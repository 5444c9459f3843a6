//! Nonblocking-communication request bookkeeping.

use crate::comm::CommId;
use crate::error::MpiError;
use crate::msg::SrcSel;
use crate::smallmap::SmallMap;
use xsim_core::{Bytes, Rank, SimTime};

/// Handle to a nonblocking operation, analogous to `MPI_Request`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReqId(pub u64);

/// What a completed receive yields.
#[derive(Debug, Clone)]
pub struct RecvOut {
    /// Payload.
    pub data: Bytes,
    /// Source world rank.
    pub src: Rank,
    /// Message tag.
    pub tag: u32,
}

/// Send or receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// A send request.
    Send,
    /// A receive request.
    Recv,
}

/// Completion payload: `None` for sends, `Some` for receives.
pub type ReqResult = Result<Option<RecvOut>, MpiError>;

/// One request: what a pending one is matched, failed and revoked by,
/// or — once complete — only its result, until its owner collects it.
/// No completed-request path reads the pending fields, so a slot holds
/// one or the other.
#[derive(Debug)]
pub enum Request {
    /// Not completed yet.
    Pending(Pending),
    /// Completed at virtual time `at`.
    Done {
        /// Completion time; the owner sees it once its clock gets there.
        at: SimTime,
        /// The payload (receives) or `None` (sends), or the error.
        result: ReqResult,
    },
}

/// The fields of a pending request.
#[derive(Debug, Clone, Copy)]
pub struct Pending {
    /// Kind (send/recv).
    pub kind: ReqKind,
    /// Communicator.
    pub comm: CommId,
    /// Peer: destination for sends; source selector for receives.
    pub peer: SrcSel,
    /// Tag (sends) — receives keep their selector in the match queue.
    pub tag: u32,
    /// Virtual time the request was posted.
    pub posted_at: SimTime,
    /// Released by its owner (`MPI_Request_free`) while still pending:
    /// nobody will collect it, so it leaves the table when it completes.
    freed: bool,
}

impl Request {
    /// Whether the request has not completed yet.
    pub fn is_pending(&self) -> bool {
        matches!(self, Request::Pending(_))
    }

    /// The pending fields; `None` once complete.
    pub fn pending(&self) -> Option<&Pending> {
        match self {
            Request::Pending(p) => Some(p),
            Request::Done { .. } => None,
        }
    }
}

/// The per-rank request table. Ids are handed out in program order;
/// the table holds its first request inline (a blocking operation has
/// no second) and gives its heap back whenever it drains.
#[derive(Debug, Default)]
pub struct RequestTable {
    map: SmallMap<u64, Request>,
    next: u64,
}

impl RequestTable {
    /// Register a new pending request; returns its id.
    pub fn create(
        &mut self,
        kind: ReqKind,
        comm: CommId,
        peer: SrcSel,
        tag: u32,
        posted_at: SimTime,
    ) -> ReqId {
        let id = self.next;
        self.next += 1;
        self.map.insert(
            id,
            Request::Pending(Pending {
                kind,
                comm,
                peer,
                tag,
                posted_at,
                freed: false,
            }),
        );
        ReqId(id)
    }

    /// Release a request its owner will never wait on
    /// (`MPI_Request_free`). A completed request leaves the table at
    /// once. A pending one stays — the failure and revoke paths must
    /// still find it and complete it exactly as if it were held — and
    /// leaves when it completes. Returns `false` for an unknown id.
    pub(crate) fn free(&mut self, id: ReqId) -> bool {
        match self.map.get_mut(&id.0) {
            None => false,
            Some(Request::Pending(p)) => {
                p.freed = true;
                true
            }
            Some(Request::Done { .. }) => self.map.remove(&id.0).is_some(),
        }
    }

    /// Number of live (pending or uncollected) requests.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no requests are live.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Look up a request.
    pub fn get(&self, id: ReqId) -> Option<&Request> {
        self.map.get(&id.0)
    }

    /// Complete a pending request at virtual time `at`. Returns `false`
    /// (and changes nothing) if the request is unknown or already done —
    /// completion races (message arrival vs. failure timeout) resolve to
    /// whichever event fires first. A request freed while pending
    /// (`MPI_Request_free`) completes the same way (the return value, and so every wake and
    /// counter that follows it, is unchanged) and leaves the table.
    pub fn complete(&mut self, id: ReqId, at: SimTime, result: ReqResult) -> bool {
        match self.map.get_mut(&id.0) {
            Some(Request::Pending(p)) if p.freed => {
                self.map.remove(&id.0);
                true
            }
            Some(r @ Request::Pending(_)) => {
                *r = Request::Done { at, result };
                true
            }
            _ => false,
        }
    }

    /// If `id` is done and its completion time has been reached by the
    /// caller's clock, remove it and return `(completion time, result)`.
    pub fn try_take(&mut self, id: ReqId, now: SimTime) -> Option<(SimTime, ReqResult)> {
        if !self.is_done(id, now) {
            return None;
        }
        match self.map.remove(&id.0)? {
            Request::Done { at, result } => Some((at, result)),
            Request::Pending(_) => unreachable!("checked done above"),
        }
    }

    /// Whether `id` is complete from the perspective of a caller at
    /// `now` (used by `MPI_Test`).
    pub fn is_done(&self, id: ReqId, now: SimTime) -> bool {
        matches!(self.map.get(&id.0), Some(Request::Done { at, .. }) if *at <= now)
    }

    /// Ids of pending requests whose peer is `dead` (specific), plus —
    /// when `include_any_source` — pending receives with a wildcard
    /// source. Returned with their post times so the caller can compute
    /// the paper's timeout-adjusted error completion times (§IV-C).
    pub fn pending_involving(&self, dead: Rank, include_any_source: bool) -> Vec<(ReqId, SimTime)> {
        self.pending_where(|r| match r.peer {
            SrcSel::Of(p) => p == dead,
            SrcSel::Any => include_any_source && r.kind == ReqKind::Recv,
        })
    }

    /// Ids and post times of the pending requests `fits` accepts, in id
    /// order.
    fn pending_where(&self, fits: impl Fn(&Pending) -> bool) -> Vec<(ReqId, SimTime)> {
        let mut v: Vec<(ReqId, SimTime)> = self
            .map
            .iter()
            .filter_map(|(id, r)| Some((ReqId(id), r.pending()?)))
            .filter(|(_, p)| fits(p))
            .map(|(id, p)| (id, p.posted_at))
            .collect();
        v.sort_by_key(|(id, _)| id.0);
        v
    }

    /// Ids and post times of pending requests on a communicator, in id
    /// order. Used by `MPI_Comm_revoke` to release in-flight operations.
    pub fn pending_on_comm(&self, comm: CommId) -> Vec<(ReqId, SimTime)> {
        self.pending_where(|r| r.comm == comm)
    }

    /// Drop a request outright (used on communicator teardown).
    pub fn remove(&mut self, id: ReqId) -> bool {
        self.map.remove(&id.0).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> RequestTable {
        RequestTable::default()
    }

    /// A slot is a request id and the request: 88 B while a completed
    /// request's result sat next to its pending fields.
    #[test]
    fn a_request_slot_fits_its_budget() {
        let size = std::mem::size_of::<(u64, Request)>();
        eprintln!("(u64, Request): {size} B");
        assert!(size <= 56, "(u64, Request) is {size} B");
    }

    #[test]
    fn create_complete_take() {
        let mut t = table();
        let id = t.create(
            ReqKind::Recv,
            CommId(0),
            SrcSel::Of(Rank(1)),
            5,
            SimTime(10),
        );
        assert!(t.get(id).unwrap().is_pending());
        assert!(t.complete(id, SimTime(20), Ok(None)));
        // Not observable before its completion time.
        assert!(t.try_take(id, SimTime(15)).is_none());
        assert!(!t.is_done(id, SimTime(15)));
        assert!(t.is_done(id, SimTime(20)));
        let (at, res) = t.try_take(id, SimTime(20)).unwrap();
        assert_eq!(at, SimTime(20));
        assert!(res.is_ok());
        assert!(t.is_empty());
    }

    #[test]
    fn double_complete_is_ignored() {
        let mut t = table();
        let id = t.create(ReqKind::Send, CommId(0), SrcSel::Of(Rank(2)), 0, SimTime(0));
        assert!(t.complete(id, SimTime(5), Ok(None)));
        assert!(!t.complete(
            id,
            SimTime(9),
            Err(MpiError::Invalid("should not overwrite"))
        ));
        let (_, res) = t.try_take(id, SimTime(100)).unwrap();
        assert!(res.is_ok(), "first completion wins");
    }

    #[test]
    fn unknown_request_is_inert() {
        let mut t = table();
        assert!(!t.complete(ReqId(99), SimTime(0), Ok(None)));
        assert!(t.try_take(ReqId(99), SimTime(0)).is_none());
        assert!(!t.remove(ReqId(99)));
        assert!(!t.free(ReqId(99)));
    }

    #[test]
    fn free_removes_a_done_request_at_once() {
        let mut t = table();
        let id = t.create(ReqKind::Send, CommId(0), SrcSel::Of(Rank(1)), 0, SimTime(0));
        assert!(t.complete(id, SimTime(5), Ok(None)));
        // Freed before its completion time is reached: still gone.
        assert!(t.free(id));
        assert!(t.is_empty());
        assert!(!t.free(id), "a freed id is unknown");
        assert!(t.try_take(id, SimTime(9)).is_none());
    }

    #[test]
    fn a_freed_pending_request_stays_until_it_completes() {
        let mut t = table();
        let id = t.create(ReqKind::Send, CommId(0), SrcSel::Of(Rank(3)), 0, SimTime(2));
        let kept = t.create(ReqKind::Send, CommId(0), SrcSel::Of(Rank(3)), 0, SimTime(4));
        assert!(t.free(id));
        assert_eq!(t.len(), 2);
        // The failure path still sees it, with its post time.
        assert_eq!(
            t.pending_involving(Rank(3), false),
            vec![(id, SimTime(2)), (kept, SimTime(4))]
        );
        assert_eq!(t.pending_on_comm(CommId(0)).len(), 2);
        // Its completion reports success like any other, then drops it.
        assert!(t.complete(id, SimTime(7), Err(MpiError::Revoked)));
        assert!(t.get(id).is_none());
        assert!(!t.complete(id, SimTime(8), Ok(None)), "already gone");
        assert_eq!(t.len(), 1);
        assert!(t.complete(kept, SimTime(7), Ok(None)));
        assert!(t.try_take(kept, SimTime(7)).is_some());
        assert!(t.is_empty());
    }

    #[test]
    fn pending_involving_filters() {
        let mut t = table();
        let a = t.create(ReqKind::Recv, CommId(0), SrcSel::Of(Rank(1)), 0, SimTime(1));
        let _b = t.create(ReqKind::Recv, CommId(0), SrcSel::Of(Rank(2)), 0, SimTime(2));
        let c = t.create(ReqKind::Recv, CommId(0), SrcSel::Any, 0, SimTime(3));
        let d = t.create(ReqKind::Send, CommId(0), SrcSel::Of(Rank(1)), 0, SimTime(4));
        let e = t.create(ReqKind::Send, CommId(0), SrcSel::Any, 0, SimTime(5)); // odd but inert

        let hits = t.pending_involving(Rank(1), false);
        assert_eq!(
            hits.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![a, d]
        );
        let hits = t.pending_involving(Rank(1), true);
        assert_eq!(
            hits.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![a, c, d]
        );
        let _ = e;

        // Completed requests are not "pending".
        t.complete(a, SimTime(9), Ok(None));
        let hits = t.pending_involving(Rank(1), false);
        assert_eq!(hits.iter().map(|(id, _)| *id).collect::<Vec<_>>(), vec![d]);
    }
}
