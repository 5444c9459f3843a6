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
//! The queues live in one [`SmallMap`] ordered by `(comm, src, tag,
//! stamp)`: a flat scan for the handful of entries a rank usually has,
//! an ordered tree at depth, so the dominant specific-source/specific-tag
//! match stays O(log n) even with tens of thousands of outstanding
//! receives or unexpected messages (a linear-algorithm collective at the
//! root holds P−1 of them, paper §V-C).

use crate::comm::CommId;
use crate::smallmap::SmallMap;
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

    /// The specific rank, `None` for the wildcard.
    pub fn rank(self) -> Option<Rank> {
        match self {
            SrcSel::Of(r) => Some(r),
            SrcSel::Any => None,
        }
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

    /// The specific tag, `None` for the wildcard.
    pub fn tag(self) -> Option<u32> {
        match self {
            TagSel::Of(t) => Some(t),
            TagSel::Any => None,
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
    /// Per-(src → dst) send sequence number under a lossy transport
    /// (the key of its loss draws); 0 on the reliable one.
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

/// Where an item queues: `(communicator, source, tag)`, `None` standing
/// for a wildcard selector (only posted receives have those).
type Bucket = (CommId, Option<Rank>, Option<u32>);

/// A bucket plus the item's queue stamp. The derived tuple order keeps a
/// bucket's items adjacent and oldest-first, and puts every bucket of
/// one `(communicator, source)` pair in one contiguous key range.
type MatchKey = (CommId, Option<Rank>, Option<u32>, u64);

fn stamped((comm, src, tag): Bucket, stamp: u64) -> MatchKey {
    (comm, src, tag, stamp)
}

fn key_range(bucket: Bucket) -> (MatchKey, MatchKey) {
    (stamped(bucket, 0), stamped(bucket, u64::MAX))
}

/// One matching entry. Its key already says where it queues and when,
/// so the entry carries only what the key cannot: a posted receive's
/// request id, or an unexpected message in the transport box it arrived
/// in: 48 B a slot, key included.
#[derive(Debug)]
enum Item {
    /// An unexpected message (always in an exact bucket).
    Env(Box<Envelope>),
    /// A posted, unmatched receive: its request id.
    Recv(u64),
}

/// The matching state of one receiver: unexpected messages and posted
/// (unmatched) receives, in one keyed container.
///
/// For an exact `(comm, src, tag)` bucket a queued message and a posted
/// receive never coexist (either would have matched the other), so one
/// entry kind per bucket serves both sides. Entries are removed the
/// moment they match or are cancelled — an idle receiver holds nothing.
#[derive(Debug, Default)]
pub struct MatchQueues {
    items: SmallMap<MatchKey, Item>,
    /// Delivery/post order stamp: earlier = matched first.
    stamp: u64,
    /// How many of `items` are unexpected messages (the rest are posted
    /// receives).
    n_unexpected: usize,
}

impl MatchQueues {
    /// Number of unexpected messages queued.
    pub fn unexpected_len(&self) -> usize {
        self.n_unexpected
    }

    /// Number of posted unmatched receives.
    pub fn posted_len(&self) -> usize {
        self.items.len() - self.n_unexpected
    }

    /// Entries physically held (messages, receives and whatever indexes
    /// them): zero once every message matched and every receive matched
    /// or was cancelled. Test probe for leaked index entries.
    #[doc(hidden)]
    pub fn retained_entries(&self) -> usize {
        self.items.len()
    }

    fn next_stamp(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    /// Deliver an arrived envelope: match it against the earliest-posted
    /// fitting receive, or queue it (box and all) as unexpected. Returns
    /// the matched receive's request id and the envelope when a match
    /// happened.
    pub fn deliver(&mut self, env: Box<Envelope>) -> Option<(u64, Box<Envelope>)> {
        let (src, tag) = (Some(env.src), Some(env.tag));
        let exact = (env.comm, src, tag);
        let mut best: Option<MatchKey> = None;
        for bucket in [
            exact,
            (env.comm, None, tag),
            (env.comm, src, None),
            (env.comm, None, None),
        ] {
            let (lo, hi) = key_range(bucket);
            // The exact bucket may hold earlier unexpected messages
            // instead of receives: then it offers no candidate.
            if let Some((key, Item::Recv(_))) = self.items.first_in(lo, hi) {
                if best.is_none_or(|b| key.3 < b.3) {
                    best = Some(key);
                }
            }
        }
        match best {
            Some(key) => {
                let Some(Item::Recv(req)) = self.items.remove(&key) else {
                    unreachable!("candidate is a posted receive");
                };
                Some((req, env))
            }
            None => {
                let stamp = self.next_stamp();
                self.n_unexpected += 1;
                self.items.insert(stamped(exact, stamp), Item::Env(env));
                None
            }
        }
    }

    /// The earliest-delivered unexpected message fitting the selectors.
    fn earliest_unexpected(
        &self,
        comm: CommId,
        src: SrcSel,
        tag: TagSel,
    ) -> Option<(MatchKey, &Envelope)> {
        let found = match (src, tag) {
            (SrcSel::Of(s), TagSel::Of(t)) => {
                let (lo, hi) = key_range((comm, Some(s), Some(t)));
                self.items.first_in(lo, hi)
            }
            // Wildcard: scan, keeping the lowest delivery stamp.
            _ => self
                .items
                .iter()
                .filter(|(k, item)| {
                    matches!(item, Item::Env(_))
                        && k.0 == comm
                        && k.1.is_some_and(|s| src.matches(s))
                        && k.2.is_some_and(|t| tag.matches(t))
                })
                .min_by_key(|(k, _)| k.3),
        };
        match found {
            Some((key, Item::Env(env))) => Some((key, env)),
            _ => None,
        }
    }

    /// Post receive request `req` on `comm` with selectors `src`/`tag`:
    /// match it against the earliest-delivered fitting unexpected
    /// message, or queue it. Returns the matched envelope.
    pub fn post(
        &mut self,
        req: u64,
        comm: CommId,
        src: SrcSel,
        tag: TagSel,
    ) -> Option<Box<Envelope>> {
        if let Some((key, _)) = self.earliest_unexpected(comm, src, tag) {
            let Some(Item::Env(env)) = self.items.remove(&key) else {
                unreachable!("found above");
            };
            self.n_unexpected -= 1;
            return Some(env);
        }
        let stamp = self.next_stamp();
        let bucket = (comm, src.rank(), tag.tag());
        self.items.insert(stamped(bucket, stamp), Item::Recv(req));
        None
    }

    /// Non-destructively find the earliest-delivered unexpected message
    /// matching the selectors (`MPI_Probe`/`MPI_Iprobe`): returns
    /// `(src, tag, payload bytes)`.
    pub fn peek(&self, comm: CommId, src: SrcSel, tag: TagSel) -> Option<(Rank, u32, usize)> {
        self.earliest_unexpected(comm, src, tag)
            .map(|(_, env)| (env.src, env.tag, env.data.len()))
    }

    /// Remove the posted receive `req`, which was posted on `comm` with
    /// source selector `src`. Returns whether it was present.
    pub fn cancel_posted(&mut self, req: u64, comm: CommId, src: SrcSel) -> bool {
        let src = src.rank();
        // Every tag bucket of this (comm, src): `None` sorts first.
        let (lo, hi) = ((comm, src, None, 0), (comm, src, Some(u32::MAX), u64::MAX));
        let found = self
            .items
            .range(lo, hi)
            .find(|(_, item)| matches!(item, Item::Recv(r) if *r == req))
            .map(|(key, _)| key);
        found.is_some_and(|key| self.items.remove(&key).is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(src: u32, tag: u32, seq: u64, arrival_ns: u64) -> Box<Envelope> {
        Box::new(Envelope {
            src: Rank(src),
            comm: CommId(0),
            tag,
            data: Bytes::new(),
            seq,
            header_arrival: SimTime(arrival_ns),
            payload_ready: Some(SimTime(arrival_ns)),
            send_req: None,
        })
    }

    /// A receive on communicator 0: request id and selectors.
    fn recv(req: u64, src: SrcSel, tag: TagSel) -> (u64, SrcSel, TagSel) {
        (req, src, tag)
    }

    impl MatchQueues {
        fn post_recv(&mut self, (req, src, tag): (u64, SrcSel, TagSel)) -> Option<Box<Envelope>> {
            self.post(req, CommId(0), src, tag)
        }
    }

    #[test]
    fn a_matching_slot_holds_a_key_and_a_word() {
        assert!(size_of::<(MatchKey, Item)>() <= 56);
    }

    #[test]
    fn unexpected_then_post_matches() {
        let mut q = MatchQueues::default();
        assert!(q.deliver(env(1, 7, 0, 10)).is_none());
        assert_eq!(q.unexpected_len(), 1);
        let m = q
            .post_recv(recv(0, SrcSel::Of(Rank(1)), TagSel::Of(7)))
            .unwrap();
        assert_eq!(m.src, Rank(1));
        assert_eq!(q.unexpected_len(), 0);
    }

    #[test]
    fn post_then_deliver_matches() {
        let mut q = MatchQueues::default();
        assert!(q.post_recv(recv(0, SrcSel::Any, TagSel::Any)).is_none());
        let (r, e) = q.deliver(env(3, 9, 0, 5)).unwrap();
        assert_eq!(r, 0);
        assert_eq!(e.src, Rank(3));
        assert_eq!(q.posted_len(), 0);
    }

    #[test]
    fn non_overtaking_same_sender() {
        let mut q = MatchQueues::default();
        // Headers arrive in send order (same pair, same latency).
        q.deliver(env(1, 7, 0, 10));
        q.deliver(env(1, 7, 1, 11));
        let m = q
            .post_recv(recv(0, SrcSel::Of(Rank(1)), TagSel::Of(7)))
            .unwrap();
        assert_eq!(m.seq, 0, "first-sent must match first");
        let m2 = q
            .post_recv(recv(1, SrcSel::Of(Rank(1)), TagSel::Of(7)))
            .unwrap();
        assert_eq!(m2.seq, 1);
    }

    #[test]
    fn wildcard_prefers_earliest_delivery() {
        let mut q = MatchQueues::default();
        q.deliver(env(1, 7, 0, 10));
        q.deliver(env(2, 7, 0, 20));
        let m = q.post_recv(recv(0, SrcSel::Any, TagSel::Of(7))).unwrap();
        assert_eq!(m.src, Rank(1), "earliest delivered wins");
        let m2 = q.post_recv(recv(1, SrcSel::Any, TagSel::Of(7))).unwrap();
        assert_eq!(m2.src, Rank(2));
    }

    #[test]
    fn tag_and_comm_must_fit() {
        let mut q = MatchQueues::default();
        q.deliver(env(1, 7, 0, 10));
        assert!(q
            .post_recv(recv(0, SrcSel::Of(Rank(1)), TagSel::Of(8)))
            .is_none());
        assert_eq!(q.posted_len(), 1);
        assert!(q.deliver(env(1, 9, 1, 12)).is_none());
        let (r, _) = q.deliver(env(1, 8, 2, 13)).unwrap();
        assert_eq!(r, 0);
    }

    #[test]
    fn different_comms_do_not_match() {
        let mut q = MatchQueues::default();
        let mut e = env(1, 7, 0, 10);
        e.comm = CommId(5);
        q.deliver(e);
        assert!(q.post_recv(recv(0, SrcSel::Any, TagSel::Any)).is_none());
        assert_eq!(q.posted_len(), 1);
        assert_eq!(q.unexpected_len(), 1);
    }

    #[test]
    fn fifo_among_posted_recvs() {
        let mut q = MatchQueues::default();
        q.post_recv(recv(0, SrcSel::Any, TagSel::Any));
        q.post_recv(recv(1, SrcSel::Any, TagSel::Any));
        let (r, _) = q.deliver(env(5, 1, 0, 3)).unwrap();
        assert_eq!(r, 0, "oldest posted recv matches first");
    }

    #[test]
    fn earlier_wildcard_beats_later_specific() {
        let mut q = MatchQueues::default();
        q.post_recv(recv(0, SrcSel::Any, TagSel::Any));
        q.post_recv(recv(1, SrcSel::Of(Rank(5)), TagSel::Of(1)));
        let (r, _) = q.deliver(env(5, 1, 0, 3)).unwrap();
        assert_eq!(r, 0, "posting order decides, not specificity");
        let (r2, _) = q.deliver(env(5, 1, 1, 4)).unwrap();
        assert_eq!(r2, 1);
    }

    #[test]
    fn cancel_posted_removes_the_entry() {
        let mut q = MatchQueues::default();
        q.post_recv(recv(7, SrcSel::Any, TagSel::Any));
        q.post_recv(recv(8, SrcSel::Any, TagSel::Any));
        q.post_recv(recv(9, SrcSel::Of(Rank(1)), TagSel::Of(1)));
        assert!(q.cancel_posted(7, CommId(0), SrcSel::Any));
        assert!(!q.cancel_posted(7, CommId(0), SrcSel::Any));
        assert!(
            !q.cancel_posted(9, CommId(0), SrcSel::Any),
            "wrong selector"
        );
        assert_eq!(q.posted_len(), 2);
        // The delivery matches 8, the earliest receive still posted.
        let (r, _) = q.deliver(env(1, 1, 0, 1)).unwrap();
        assert_eq!(r, 8);
        assert!(q.cancel_posted(9, CommId(0), SrcSel::Of(Rank(1))));
        assert_eq!(q.posted_len(), 0);
        assert_eq!(q.retained_entries(), 0);
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
    fn many_specific_recvs_match_quickly() {
        // Smoke-check the indexed path: P-1 posted specific receives, as
        // a linear collective root would create.
        let mut q = MatchQueues::default();
        let n = 10_000u32;
        for i in 0..n {
            q.post_recv(recv(i as u64, SrcSel::Of(Rank(i)), TagSel::Of(42)));
        }
        for i in (0..n).rev() {
            let (r, _) = q.deliver(env(i, 42, 0, i as u64)).unwrap();
            assert_eq!(r, i as u64);
        }
        assert_eq!(q.posted_len(), 0);
    }
}
