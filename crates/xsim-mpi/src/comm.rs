//! Communicators.
//!
//! Each simulated rank keeps its own communicator table; because
//! communicator construction is collective and deterministic, all member
//! ranks derive identical ids and groups without shared mutable state —
//! the property that keeps the parallel engine equivalent to the
//! sequential one.

use crate::error::ErrHandler;
use std::collections::BTreeMap;
use std::sync::Arc;
use xsim_core::{Rank, SimTime};

/// Identifier of a communicator (context id in MPI terms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CommId(pub u32);

impl CommId {
    /// `MPI_COMM_WORLD`.
    pub const WORLD: CommId = CommId(0);
}

/// A communicator handle as seen by applications. Cheap to copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Comm {
    /// The communicator id.
    pub id: CommId,
}

impl Comm {
    /// The world communicator handle.
    pub const WORLD: Comm = Comm { id: CommId::WORLD };
}

/// One rank's view of a communicator.
#[derive(Debug, Clone)]
pub struct CommView {
    /// Members, as world ranks, in communicator rank order.
    pub members: Arc<Vec<Rank>>,
    /// This process's rank within the communicator.
    pub my_rank: usize,
    /// Error handler attached to the communicator.
    pub errhandler: ErrHandler,
    /// Set when `MPI_Comm_revoke` reached this rank, with the revoke time.
    pub revoked: Option<SimTime>,
    /// Count of collective operations started on this communicator; used
    /// to derive per-collective internal tags.
    pub coll_seq: u64,
}

impl CommView {
    /// Number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Translate a communicator rank to a world rank.
    pub fn world_rank(&self, comm_rank: usize) -> Option<Rank> {
        self.members.get(comm_rank).copied()
    }

    /// Translate a world rank to a communicator rank.
    pub fn comm_rank(&self, world: Rank) -> Option<usize> {
        self.members.iter().position(|r| *r == world)
    }
}

/// One rank's communicator table, indexed by the dense [`CommId`]: the
/// world view lives inline, derived communicators in a `Vec` that stays
/// unallocated until the first `comm_dup`/`comm_split`/`comm_shrink`.
#[derive(Debug)]
pub struct CommTable {
    world: CommView,
    /// View of communicator `i + 1`; `None` where this rank skipped the
    /// id (not a member). The next id is `derived.len() + 1`.
    derived: Vec<Option<CommView>>,
}

impl CommTable {
    /// A table containing `MPI_COMM_WORLD` over `n` ranks with this
    /// process at world rank `me`.
    pub fn new_world(n: usize, me: Rank, default_handler: ErrHandler) -> Self {
        Self::new_world_shared(
            Arc::new((0..n).map(Rank::new).collect()),
            me,
            default_handler,
        )
    }

    /// Like [`new_world`](Self::new_world) but with a shared member
    /// list, so a million co-located ranks don't each materialize the
    /// world group.
    pub fn new_world_shared(
        members: Arc<Vec<Rank>>,
        me: Rank,
        default_handler: ErrHandler,
    ) -> Self {
        CommTable {
            world: CommView {
                members,
                my_rank: me.idx(),
                errhandler: default_handler,
                revoked: None,
                coll_seq: 0,
            },
            derived: Vec::new(),
        }
    }

    /// Look up a communicator view.
    pub fn view(&self, id: CommId) -> Option<&CommView> {
        match id.0.checked_sub(1) {
            None => Some(&self.world),
            Some(i) => self.derived.get(i as usize)?.as_ref(),
        }
    }

    /// Look up a communicator view mutably.
    pub fn view_mut(&mut self, id: CommId) -> Option<&mut CommView> {
        match id.0.checked_sub(1) {
            None => Some(&mut self.world),
            Some(i) => self.derived.get_mut(i as usize)?.as_mut(),
        }
    }

    /// Install a derived communicator with the next deterministic id.
    /// Every member must perform the same installation sequence, so ids
    /// agree across ranks (MPI's collective-order requirement).
    pub fn install(&mut self, members: Arc<Vec<Rank>>, me: Rank, handler: ErrHandler) -> CommId {
        let my_rank = members
            .iter()
            .position(|r| *r == me)
            .expect("installing a communicator this rank is not a member of");
        self.push(Some(CommView {
            members,
            my_rank,
            errhandler: handler,
            revoked: None,
            coll_seq: 0,
        }))
    }

    /// Advance the id counter without installing a view — used by ranks
    /// that participate in a `comm_split` but receive `color = None`
    /// (undefined), so their next derived communicator id stays in sync
    /// with members'.
    pub fn skip_id(&mut self) -> CommId {
        self.push(None)
    }

    fn push(&mut self, view: Option<CommView>) -> CommId {
        self.derived.push(view);
        CommId(u32::try_from(self.derived.len()).expect("communicator ids fit u32"))
    }

    /// Mark a communicator revoked at `time` (idempotent, keeps the
    /// earliest time).
    pub fn revoke(&mut self, id: CommId, time: SimTime) {
        if let Some(v) = self.view_mut(id) {
            v.revoked = Some(match v.revoked {
                Some(t) => t.min(time),
                None => time,
            });
        }
    }
}

/// Compute the deterministic groups of a `comm_split`: one group per
/// color, members ordered by `(key, parent rank)`. Input is
/// `(parent_rank, color, key)` per member, parent-rank-ordered. `None`
/// colors (MPI_UNDEFINED) join no group.
pub fn split_groups(entries: &[(Rank, Option<u32>, i64)]) -> Vec<(u32, Vec<Rank>)> {
    let mut by_color: BTreeMap<u32, Vec<(i64, Rank)>> = BTreeMap::new();
    for (rank, color, key) in entries {
        if let Some(c) = color {
            by_color.entry(*c).or_default().push((*key, *rank));
        }
    }
    by_color
        .into_iter()
        .map(|(c, mut v)| {
            v.sort(); // by key, then parent (world) rank
            (c, v.into_iter().map(|(_, r)| r).collect())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_table_basics() {
        let t = CommTable::new_world(4, Rank(2), ErrHandler::Fatal);
        let w = t.view(CommId::WORLD).unwrap();
        assert_eq!(w.size(), 4);
        assert_eq!(w.my_rank, 2);
        assert_eq!(w.world_rank(3), Some(Rank(3)));
        assert_eq!(w.comm_rank(Rank(1)), Some(1));
    }

    #[test]
    fn install_assigns_sequential_ids() {
        let mut t = CommTable::new_world(4, Rank(1), ErrHandler::Fatal);
        let id1 = t.install(
            Arc::new(vec![Rank(0), Rank(1)]),
            Rank(1),
            ErrHandler::Return,
        );
        let id2 = t.install(Arc::new(vec![Rank(1), Rank(3)]), Rank(1), ErrHandler::Fatal);
        assert_eq!(id1, CommId(1));
        assert_eq!(id2, CommId(2));
        assert_eq!(t.view(id1).unwrap().my_rank, 1);
        assert_eq!(t.view(id2).unwrap().my_rank, 0);
    }

    #[test]
    fn skip_id_keeps_counters_aligned() {
        let mut t = CommTable::new_world(2, Rank(0), ErrHandler::Fatal);
        assert_eq!(t.skip_id(), CommId(1));
        let id = t.install(Arc::new(vec![Rank(0)]), Rank(0), ErrHandler::Fatal);
        assert_eq!(id, CommId(2));
        assert!(t.view(CommId(1)).is_none());
    }

    #[test]
    fn revoke_is_idempotent_min() {
        let mut t = CommTable::new_world(2, Rank(0), ErrHandler::Fatal);
        t.revoke(CommId::WORLD, SimTime(100));
        t.revoke(CommId::WORLD, SimTime(50));
        t.revoke(CommId::WORLD, SimTime(200));
        assert_eq!(t.view(CommId::WORLD).unwrap().revoked, Some(SimTime(50)));
    }

    #[test]
    fn split_groups_orders_by_key_then_rank() {
        let entries = vec![
            (Rank(0), Some(1), 5),
            (Rank(1), Some(0), 0),
            (Rank(2), Some(1), 5),
            (Rank(3), Some(1), 1),
            (Rank(4), None, 0),
        ];
        let groups = split_groups(&entries);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0], (0, vec![Rank(1)]));
        assert_eq!(groups[1], (1, vec![Rank(3), Rank(0), Rank(2)]));
    }

    #[test]
    fn split_groups_empty() {
        assert!(split_groups(&[]).is_empty());
        assert!(split_groups(&[(Rank(0), None, 0)]).is_empty());
    }
}
