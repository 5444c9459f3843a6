//! Message envelopes and the matching engine.
//!
//! Simulated MPI matching follows the standard:
//!
//! * a delivered message matches the *earliest-posted* fitting receive;
//! * a posted receive matches the *earliest-delivered* fitting unexpected
//!   message;
//! * non-overtaking holds because message *headers* between a given pair
//!   share latency and therefore arrive (and are delivered) in send order.
//!
//! The queues are index-backed so matching stays O(1) for the dominant
//! specific-source/specific-tag case even with tens of thousands of
//! outstanding receives (a linear-algorithm collective at the root posts
//! P−1 of them, paper §V-C).

use crate::comm::CommId;
use std::collections::{HashMap, VecDeque};
use xsim_core::{Bytes, Rank, SimTime};

/// Wildcard-capable source selector (`MPI_ANY_SOURCE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SrcSel {
    /// Match only this world rank.
    Of(Rank),
    /// `MPI_ANY_SOURCE`.
    Any,
}

impl SrcSel {
    /// Whether a concrete source fits this selector.
    #[inline]
    pub fn matches(self, src: Rank) -> bool {
        match self {
            SrcSel::Of(r) => r == src,
            SrcSel::Any => true,
        }
    }

    /// Whether this selector is the wildcard.
    pub fn is_any(self) -> bool {
        matches!(self, SrcSel::Any)
    }
}

/// Wildcard-capable tag selector (`MPI_ANY_TAG`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagSel {
    /// Match only this tag.
    Of(u32),
    /// `MPI_ANY_TAG`.
    Any,
}

impl TagSel {
    /// Whether a concrete tag fits this selector.
    #[inline]
    pub fn matches(self, tag: u32) -> bool {
        match self {
            TagSel::Of(t) => t == tag,
            TagSel::Any => true,
        }
    }
}

/// An arrived message envelope.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sending world rank.
    pub src: Rank,
    /// Communicator the message travels on.
    pub comm: CommId,
    /// Message tag.
    pub tag: u32,
    /// Payload.
    pub data: Bytes,
    /// Per-(src → dst) send sequence number (diagnostic).
    pub seq: u64,
    /// Virtual time the header arrived at the receiver.
    pub header_arrival: SimTime,
    /// Virtual time the payload is fully available (eager), or `None`
    /// for a rendezvous message whose transfer has not happened yet.
    pub payload_ready: Option<SimTime>,
    /// For rendezvous: the sender-side `(world rank, request id)` to
    /// complete when the transfer finishes.
    pub send_req: Option<(Rank, u64)>,
}

impl Envelope {
    /// A contentless placeholder left behind when a transport box is
    /// recycled. Allocation-free (the empty payload stores inline).
    pub(crate) fn blank() -> Self {
        Envelope {
            src: Rank(0),
            comm: CommId(0),
            tag: 0,
            data: Bytes::new(),
            seq: 0,
            header_arrival: SimTime::ZERO,
            payload_ready: None,
            send_req: None,
        }
    }
}

/// A posted receive awaiting a match.
#[derive(Debug, Clone)]
pub struct PostedRecv {
    /// Receive request id (receiver-local, unique).
    pub req: u64,
    /// Communicator.
    pub comm: CommId,
    /// Source selector.
    pub src: SrcSel,
    /// Tag selector.
    pub tag: TagSel,
    /// Virtual time the receive was posted.
    pub posted_at: SimTime,
    /// Post-order stamp, assigned by the queue (earlier = matched first).
    pub post_seq: u64,
}

#[derive(Debug)]
struct QueuedEnv {
    order: u64,
    env: Envelope,
}

/// The matching state of one receiver: unexpected messages and posted
/// (unmatched) receives.
#[derive(Debug, Default)]
pub struct MatchQueues {
    // Unexpected side: FIFO per (comm, src, tag) bucket, with a global
    // delivery-order stamp for wildcard competition.
    unexpected: HashMap<(CommId, Rank, u32), VecDeque<QueuedEnv>>,
    n_unexpected: usize,
    deliver_counter: u64,
    // Posted side: receives by request id plus four selector indexes
    // holding request ids in post order. Index entries are removed
    // lazily (skipped when the id is no longer in `posted`).
    posted: HashMap<u64, PostedRecv>,
    post_counter: u64,
    idx_exact: HashMap<(CommId, Rank, u32), VecDeque<u64>>,
    idx_any_src: HashMap<(CommId, u32), VecDeque<u64>>,
    idx_any_tag: HashMap<(CommId, Rank), VecDeque<u64>>,
    idx_any_any: HashMap<CommId, VecDeque<u64>>,
}

impl MatchQueues {
    /// Number of unexpected messages queued.
    pub fn unexpected_len(&self) -> usize {
        self.n_unexpected
    }

    /// Number of posted unmatched receives.
    pub fn posted_len(&self) -> usize {
        self.posted.len()
    }

    fn front_live(&mut self, key: FrontKey) -> Option<u64> {
        let posted = &self.posted;
        let q = match key {
            FrontKey::Exact(k) => self.idx_exact.get_mut(&k),
            FrontKey::AnySrc(k) => self.idx_any_src.get_mut(&k),
            FrontKey::AnyTag(k) => self.idx_any_tag.get_mut(&k),
            FrontKey::AnyAny(k) => self.idx_any_any.get_mut(&k),
        }?;
        while let Some(&req) = q.front() {
            if posted.contains_key(&req) {
                return Some(req);
            }
            q.pop_front();
        }
        None
    }

    /// Deliver an arrived envelope: match it against the earliest-posted
    /// fitting receive, or queue it as unexpected. Returns the matched
    /// receive and the envelope when a match happened.
    pub fn deliver(&mut self, env: Envelope) -> Option<(PostedRecv, Envelope)> {
        let keys = [
            FrontKey::Exact((env.comm, env.src, env.tag)),
            FrontKey::AnySrc((env.comm, env.tag)),
            FrontKey::AnyTag((env.comm, env.src)),
            FrontKey::AnyAny(env.comm),
        ];
        let mut best: Option<u64> = None;
        for key in keys {
            if let Some(req) = self.front_live(key) {
                let seq = self.posted[&req].post_seq;
                best = match best {
                    Some(b) if self.posted[&b].post_seq <= seq => best,
                    _ => Some(req),
                };
            }
        }
        match best {
            Some(req) => {
                let posted = self.posted.remove(&req).expect("live front");
                Some((posted, env))
            }
            None => {
                self.deliver_counter += 1;
                let order = self.deliver_counter;
                self.n_unexpected += 1;
                self.unexpected
                    .entry((env.comm, env.src, env.tag))
                    .or_default()
                    .push_back(QueuedEnv { order, env });
                None
            }
        }
    }

    /// Post a receive: match it against the earliest-delivered fitting
    /// unexpected message, or queue it. Returns the matched envelope.
    pub fn post(&mut self, mut recv: PostedRecv) -> Option<Envelope> {
        // Locate the best unexpected bucket for this selector.
        let best_bucket: Option<(CommId, Rank, u32)> = match (recv.src, recv.tag) {
            (SrcSel::Of(s), TagSel::Of(t)) => {
                let k = (recv.comm, s, t);
                self.unexpected.get(&k).filter(|q| !q.is_empty()).map(|_| k)
            }
            _ => {
                // Wildcard: scan buckets of this communicator, pick the
                // one whose front has the lowest delivery order.
                let mut best: Option<((CommId, Rank, u32), u64)> = None;
                for (k, q) in &self.unexpected {
                    if k.0 != recv.comm {
                        continue;
                    }
                    if !recv.src.matches(k.1) || !recv.tag.matches(k.2) {
                        continue;
                    }
                    if let Some(front) = q.front() {
                        best = match best {
                            Some((_, o)) if o <= front.order => best,
                            _ => Some((*k, front.order)),
                        };
                    }
                }
                best.map(|(k, _)| k)
            }
        };
        match best_bucket {
            Some(k) => {
                let q = self.unexpected.get_mut(&k).expect("bucket exists");
                let qe = q.pop_front().expect("non-empty bucket");
                if q.is_empty() {
                    self.unexpected.remove(&k);
                }
                self.n_unexpected -= 1;
                Some(qe.env)
            }
            None => {
                self.post_counter += 1;
                recv.post_seq = self.post_counter;
                let req = recv.req;
                match (recv.src, recv.tag) {
                    (SrcSel::Of(s), TagSel::Of(t)) => self
                        .idx_exact
                        .entry((recv.comm, s, t))
                        .or_default()
                        .push_back(req),
                    (SrcSel::Any, TagSel::Of(t)) => self
                        .idx_any_src
                        .entry((recv.comm, t))
                        .or_default()
                        .push_back(req),
                    (SrcSel::Of(s), TagSel::Any) => self
                        .idx_any_tag
                        .entry((recv.comm, s))
                        .or_default()
                        .push_back(req),
                    (SrcSel::Any, TagSel::Any) => self
                        .idx_any_any
                        .entry(recv.comm)
                        .or_default()
                        .push_back(req),
                }
                self.posted.insert(req, recv);
                None
            }
        }
    }

    /// Non-destructively find the earliest-delivered unexpected message
    /// matching the selectors (`MPI_Probe`/`MPI_Iprobe`): returns
    /// `(src, tag, payload bytes)`.
    pub fn peek(&self, comm: CommId, src: SrcSel, tag: TagSel) -> Option<(Rank, u32, usize)> {
        let mut best: Option<(&QueuedEnv, u64)> = None;
        for (k, q) in &self.unexpected {
            if k.0 != comm || !src.matches(k.1) || !tag.matches(k.2) {
                continue;
            }
            if let Some(front) = q.front() {
                best = match best {
                    Some((_, o)) if o <= front.order => best,
                    _ => Some((front, front.order)),
                };
            }
        }
        best.map(|(qe, _)| (qe.env.src, qe.env.tag, qe.env.data.len()))
    }

    /// Remove and return every posted receive whose source selector can
    /// only be satisfied by `failed_src` — plus, if `include_any_source`
    /// is set, every wildcard-source receive. Used by the failure/abort
    /// release machinery (paper §IV-C).
    pub fn take_recvs_involving(
        &mut self,
        failed_src: Rank,
        include_any_source: bool,
    ) -> Vec<PostedRecv> {
        let ids: Vec<u64> = self
            .posted
            .values()
            .filter(|p| match p.src {
                SrcSel::Of(r) => r == failed_src,
                SrcSel::Any => include_any_source,
            })
            .map(|p| p.req)
            .collect();
        let mut out: Vec<PostedRecv> = ids
            .into_iter()
            .map(|id| self.posted.remove(&id).expect("listed"))
            .collect();
        out.sort_by_key(|p| p.post_seq);
        out
    }

    /// Remove a posted receive by request id. Returns whether it was
    /// present (index entries are cleaned lazily).
    pub fn cancel_posted(&mut self, req: u64) -> bool {
        self.posted.remove(&req).is_some()
    }

    /// Drop every unexpected message originating from `src`. (xSim keeps
    /// already-arrived messages from failed peers, so the failure path
    /// does *not* call this; communicator teardown may.)
    pub fn purge_unexpected_from(&mut self, src: Rank) -> usize {
        let keys: Vec<_> = self
            .unexpected
            .keys()
            .filter(|k| k.1 == src)
            .cloned()
            .collect();
        let mut purged = 0;
        for k in keys {
            if let Some(q) = self.unexpected.remove(&k) {
                purged += q.len();
            }
        }
        self.n_unexpected -= purged;
        purged
    }
}

#[derive(Clone, Copy)]
enum FrontKey {
    Exact((CommId, Rank, u32)),
    AnySrc((CommId, u32)),
    AnyTag((CommId, Rank)),
    AnyAny(CommId),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(src: u32, tag: u32, seq: u64, arrival_ns: u64) -> Envelope {
        Envelope {
            src: Rank(src),
            comm: CommId(0),
            tag,
            data: Bytes::new(),
            seq,
            header_arrival: SimTime(arrival_ns),
            payload_ready: Some(SimTime(arrival_ns)),
            send_req: None,
        }
    }

    fn recv(req: u64, src: SrcSel, tag: TagSel) -> PostedRecv {
        PostedRecv {
            req,
            comm: CommId(0),
            src,
            tag,
            posted_at: SimTime(0),
            post_seq: 0,
        }
    }

    #[test]
    fn unexpected_then_post_matches() {
        let mut q = MatchQueues::default();
        assert!(q.deliver(env(1, 7, 0, 10)).is_none());
        assert_eq!(q.unexpected_len(), 1);
        let m = q.post(recv(0, SrcSel::Of(Rank(1)), TagSel::Of(7))).unwrap();
        assert_eq!(m.src, Rank(1));
        assert_eq!(q.unexpected_len(), 0);
    }

    #[test]
    fn post_then_deliver_matches() {
        let mut q = MatchQueues::default();
        assert!(q.post(recv(0, SrcSel::Any, TagSel::Any)).is_none());
        let (r, e) = q.deliver(env(3, 9, 0, 5)).unwrap();
        assert_eq!(r.req, 0);
        assert_eq!(e.src, Rank(3));
        assert_eq!(q.posted_len(), 0);
    }

    #[test]
    fn non_overtaking_same_sender() {
        let mut q = MatchQueues::default();
        // Headers arrive in send order (same pair, same latency).
        q.deliver(env(1, 7, 0, 10));
        q.deliver(env(1, 7, 1, 11));
        let m = q.post(recv(0, SrcSel::Of(Rank(1)), TagSel::Of(7))).unwrap();
        assert_eq!(m.seq, 0, "first-sent must match first");
        let m2 = q.post(recv(1, SrcSel::Of(Rank(1)), TagSel::Of(7))).unwrap();
        assert_eq!(m2.seq, 1);
    }

    #[test]
    fn wildcard_prefers_earliest_delivery() {
        let mut q = MatchQueues::default();
        q.deliver(env(1, 7, 0, 10));
        q.deliver(env(2, 7, 0, 20));
        let m = q.post(recv(0, SrcSel::Any, TagSel::Of(7))).unwrap();
        assert_eq!(m.src, Rank(1), "earliest delivered wins");
        let m2 = q.post(recv(1, SrcSel::Any, TagSel::Of(7))).unwrap();
        assert_eq!(m2.src, Rank(2));
    }

    #[test]
    fn tag_and_comm_must_fit() {
        let mut q = MatchQueues::default();
        q.deliver(env(1, 7, 0, 10));
        assert!(q
            .post(recv(0, SrcSel::Of(Rank(1)), TagSel::Of(8)))
            .is_none());
        assert_eq!(q.posted_len(), 1);
        assert!(q.deliver(env(1, 9, 1, 12)).is_none());
        let (r, _) = q.deliver(env(1, 8, 2, 13)).unwrap();
        assert_eq!(r.req, 0);
    }

    #[test]
    fn different_comms_do_not_match() {
        let mut q = MatchQueues::default();
        let mut e = env(1, 7, 0, 10);
        e.comm = CommId(5);
        q.deliver(e);
        assert!(q.post(recv(0, SrcSel::Any, TagSel::Any)).is_none());
        assert_eq!(q.posted_len(), 1);
        assert_eq!(q.unexpected_len(), 1);
    }

    #[test]
    fn fifo_among_posted_recvs() {
        let mut q = MatchQueues::default();
        q.post(recv(0, SrcSel::Any, TagSel::Any));
        q.post(recv(1, SrcSel::Any, TagSel::Any));
        let (r, _) = q.deliver(env(5, 1, 0, 3)).unwrap();
        assert_eq!(r.req, 0, "oldest posted recv matches first");
    }

    #[test]
    fn earlier_wildcard_beats_later_specific() {
        let mut q = MatchQueues::default();
        q.post(recv(0, SrcSel::Any, TagSel::Any));
        q.post(recv(1, SrcSel::Of(Rank(5)), TagSel::Of(1)));
        let (r, _) = q.deliver(env(5, 1, 0, 3)).unwrap();
        assert_eq!(r.req, 0, "posting order decides, not specificity");
        let (r2, _) = q.deliver(env(5, 1, 1, 4)).unwrap();
        assert_eq!(r2.req, 1);
    }

    #[test]
    fn take_recvs_involving_failed_rank() {
        let mut q = MatchQueues::default();
        q.post(recv(0, SrcSel::Of(Rank(1)), TagSel::Any));
        q.post(recv(1, SrcSel::Of(Rank(2)), TagSel::Any));
        q.post(recv(2, SrcSel::Any, TagSel::Any));
        let released = q.take_recvs_involving(Rank(1), false);
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].req, 0);
        let released = q.take_recvs_involving(Rank(1), true);
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].req, 2, "wildcard released when requested");
        assert_eq!(q.posted_len(), 1);
    }

    #[test]
    fn cancel_posted_removes_lazily() {
        let mut q = MatchQueues::default();
        q.post(recv(7, SrcSel::Any, TagSel::Any));
        q.post(recv(8, SrcSel::Any, TagSel::Any));
        assert!(q.cancel_posted(7));
        assert!(!q.cancel_posted(7));
        // The stale index entry must be skipped: the delivery matches 8.
        let (r, _) = q.deliver(env(1, 1, 0, 1)).unwrap();
        assert_eq!(r.req, 8);
    }

    #[test]
    fn peek_is_nondestructive_and_ordered() {
        let mut q = MatchQueues::default();
        assert!(q.peek(CommId(0), SrcSel::Any, TagSel::Any).is_none());
        q.deliver(env(2, 7, 0, 10));
        q.deliver(env(1, 9, 0, 11));
        let (src, tag, len) = q.peek(CommId(0), SrcSel::Any, TagSel::Any).unwrap();
        assert_eq!((src, tag, len), (Rank(2), 7, 0), "earliest delivery");
        assert_eq!(
            q.peek(CommId(0), SrcSel::Of(Rank(1)), TagSel::Any)
                .unwrap()
                .1,
            9
        );
        assert!(q
            .peek(CommId(0), SrcSel::Of(Rank(3)), TagSel::Any)
            .is_none());
        assert_eq!(q.unexpected_len(), 2, "peek must not consume");
    }

    #[test]
    fn purge_unexpected() {
        let mut q = MatchQueues::default();
        q.deliver(env(1, 0, 0, 1));
        q.deliver(env(1, 3, 1, 2));
        q.deliver(env(2, 0, 0, 3));
        assert_eq!(q.purge_unexpected_from(Rank(1)), 2);
        assert_eq!(q.unexpected_len(), 1);
    }

    #[test]
    fn many_specific_recvs_match_quickly() {
        // Smoke-check the indexed path: P-1 posted specific receives, as
        // a linear collective root would create.
        let mut q = MatchQueues::default();
        let n = 10_000u32;
        for i in 0..n {
            q.post(recv(i as u64, SrcSel::Of(Rank(i)), TagSel::Of(42)));
        }
        for i in (0..n).rev() {
            let (r, _) = q.deliver(env(i, 42, 0, i as u64)).unwrap();
            assert_eq!(r.req, i as u64);
        }
        assert_eq!(q.posted_len(), 0);
    }
}
