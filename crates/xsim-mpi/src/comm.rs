//! Communicators.
//!
//! Each simulated rank keeps its own communicator table; because
//! communicator construction is collective and deterministic, all member
//! ranks derive identical ids and groups without shared mutable state —
//! the property that keeps the parallel engine equivalent to the
//! sequential one.
//!
//! `MPI_COMM_WORLD` is not stored per rank: its group lives once per run
//! in [`MpiWorld`](crate::state::MpiWorld), its collective counter inline
//! in the rank's state, and a revoke in the rank's `CommTable`. No
//! communicator has an error handler of its own: every error goes to the
//! run's (`MpiWorld::default_errhandler`).

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

/// One rank's view of a communicator, borrowed from wherever its parts
/// are kept.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CommView<'a> {
    /// Members, as world ranks, in communicator rank order.
    pub members: &'a Arc<Vec<Rank>>,
    /// This process's rank within the communicator.
    pub my_rank: usize,
    /// Set when `MPI_Comm_revoke` reached this rank, with the revoke time.
    pub revoked: Option<SimTime>,
}

impl CommView<'_> {
    /// Number of members.
    pub(crate) fn size(&self) -> usize {
        self.members.len()
    }

    /// Translate a communicator rank to a world rank.
    pub(crate) fn world_rank(&self, comm_rank: usize) -> Option<Rank> {
        self.members.get(comm_rank).copied()
    }
}

/// A derived communicator as one of its members stores it.
#[derive(Debug)]
struct Derived {
    members: Arc<Vec<Rank>>,
    my_rank: usize,
    revoked: Option<SimTime>,
    /// Count of collective operations started on this communicator; used
    /// to derive per-collective internal tags.
    coll_seq: u64,
}

/// What one rank stores about its communicators beyond the world's
/// collective counter: a world revoke and the derived communicators,
/// indexed by the dense [`CommId`]. Both parts are empty until the first
/// revoke, `comm_dup`, `comm_split` or `comm_shrink`.
#[derive(Debug)]
pub(crate) struct CommTable {
    /// When `MPI_Comm_revoke` reached this rank for `MPI_COMM_WORLD`.
    world_revoked: Option<SimTime>,
    /// Communicator `i + 1`; `None` where this rank skipped the id (not
    /// a member). The next id is `derived.len() + 1`.
    derived: Vec<Option<Derived>>,
}

impl CommTable {
    /// A table that knows only `MPI_COMM_WORLD`.
    pub(crate) const fn new() -> Self {
        CommTable {
            world_revoked: None,
            derived: Vec::new(),
        }
    }

    fn derived(&self, id: CommId) -> Option<&Derived> {
        self.derived.get(id.0.checked_sub(1)? as usize)?.as_ref()
    }

    fn derived_mut(&mut self, id: CommId) -> Option<&mut Derived> {
        self.derived
            .get_mut(id.0.checked_sub(1)? as usize)?
            .as_mut()
    }

    /// Rank `me`'s view of communicator `id`, the world's assembled from
    /// its shared group.
    pub(crate) fn view<'a>(
        &'a self,
        world_members: &'a Arc<Vec<Rank>>,
        me: Rank,
        id: CommId,
    ) -> Option<CommView<'a>> {
        if id == CommId::WORLD {
            return Some(CommView {
                members: world_members,
                my_rank: me.idx(),
                revoked: self.world_revoked,
            });
        }
        self.derived(id).map(|d| CommView {
            members: &d.members,
            my_rank: d.my_rank,
            revoked: d.revoked,
        })
    }

    /// The collective counter of a derived communicator (the world's is
    /// kept next to the rank's hot state).
    pub(crate) fn coll_seq_mut(&mut self, id: CommId) -> Option<&mut u64> {
        self.derived_mut(id).map(|d| &mut d.coll_seq)
    }

    /// Install a derived communicator with the next deterministic id.
    /// Every member must perform the same installation sequence, so ids
    /// agree across ranks (MPI's collective-order requirement).
    pub(crate) fn install(&mut self, members: Arc<Vec<Rank>>, me: Rank) -> CommId {
        let my_rank = members
            .iter()
            .position(|r| *r == me)
            .expect("installing a communicator this rank is not a member of");
        self.push(Some(Derived {
            members,
            my_rank,
            revoked: None,
            coll_seq: 0,
        }))
    }

    /// Advance the id counter without installing a view — used by ranks
    /// that participate in a `comm_split` but receive `color = None`
    /// (undefined), so their next derived communicator id stays in sync
    /// with members'.
    pub(crate) fn skip_id(&mut self) -> CommId {
        self.push(None)
    }

    fn push(&mut self, view: Option<Derived>) -> CommId {
        self.derived.push(view);
        CommId(u32::try_from(self.derived.len()).expect("communicator ids fit u32"))
    }

    /// Mark a communicator revoked at `time` (idempotent, keeps the
    /// earliest time).
    pub(crate) fn revoke(&mut self, id: CommId, time: SimTime) {
        let slot = if id == CommId::WORLD {
            &mut self.world_revoked
        } else {
            match self.derived_mut(id) {
                Some(d) => &mut d.revoked,
                None => return,
            }
        };
        *slot = Some(slot.map_or(time, |t| t.min(time)));
    }
}

/// Compute the deterministic groups of a `comm_split`: one group per
/// color, members ordered by `(key, parent rank)`. Input is
/// `(parent_rank, color, key)` per member, parent-rank-ordered. `None`
/// colors (MPI_UNDEFINED) join no group.
pub(crate) fn split_groups(entries: &[(Rank, Option<u32>, i64)]) -> Vec<(u32, Vec<Rank>)> {
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

    fn world(n: usize) -> Arc<Vec<Rank>> {
        Arc::new((0..n).map(Rank::new).collect())
    }

    #[test]
    fn world_view_is_assembled_from_the_shared_group() {
        let (members, t) = (world(4), CommTable::new());
        let w = t.view(&members, Rank(2), CommId::WORLD).unwrap();
        assert_eq!(w.size(), 4);
        assert_eq!(w.my_rank, 2);
        assert_eq!(w.world_rank(3), Some(Rank(3)));
        assert!(Arc::ptr_eq(w.members, &members), "shared, not copied");
    }

    #[test]
    fn install_assigns_sequential_ids() {
        let (members, mut t) = (world(4), CommTable::new());
        let id1 = t.install(Arc::new(vec![Rank(0), Rank(1)]), Rank(1));
        let id2 = t.install(Arc::new(vec![Rank(1), Rank(3)]), Rank(1));
        assert_eq!(id1, CommId(1));
        assert_eq!(id2, CommId(2));
        let view = |id| t.view(&members, Rank(1), id).unwrap();
        assert_eq!(view(id1).my_rank, 1);
        assert_eq!(view(id2).my_rank, 0);
    }

    #[test]
    fn skip_id_keeps_counters_aligned() {
        let (members, mut t) = (world(2), CommTable::new());
        assert_eq!(t.skip_id(), CommId(1));
        let id = t.install(Arc::new(vec![Rank(0)]), Rank(0));
        assert_eq!(id, CommId(2));
        assert!(t.view(&members, Rank(0), CommId(1)).is_none());
        assert!(t.coll_seq_mut(CommId(1)).is_none());
        *t.coll_seq_mut(id).unwrap() += 1;
        assert_eq!(t.coll_seq_mut(id).copied(), Some(1));
    }

    #[test]
    fn revoke_is_idempotent_min() {
        let (members, mut t) = (world(1), CommTable::new());
        let revoked = |t: &CommTable, id| t.view(&members, Rank(0), id).and_then(|v| v.revoked);
        t.revoke(CommId::WORLD, SimTime(100));
        t.revoke(CommId::WORLD, SimTime(50));
        t.revoke(CommId::WORLD, SimTime(200));
        assert_eq!(revoked(&t, CommId::WORLD), Some(SimTime(50)));
        let id = t.install(Arc::new(vec![Rank(0)]), Rank(0));
        assert_eq!(revoked(&t, id), None);
        t.revoke(id, SimTime(7));
        t.revoke(CommId(9), SimTime(1)); // unknown: ignored
        assert_eq!(revoked(&t, id), Some(SimTime(7)));
        assert_eq!(revoked(&t, CommId(9)), None);
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
