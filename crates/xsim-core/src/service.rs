//! Per-shard service registry.
//!
//! Upper layers (the simulated MPI layer, machine models, fault
//! controllers) keep their per-rank state in *services* attached to each
//! kernel shard. Services are looked up by type, so layers stay decoupled:
//! xsim-core never names them.
//!
//! A shard carries a handful of services (MPI, FS, power and obs, plus
//! whatever a setup hook adds), and the MPI layer — the hottest client —
//! is installed first. The registry is therefore a short `Vec` of
//! `(TypeId, slot)` pairs scanned by `TypeId` equality: no hashing, and a
//! lookup of the first service is one comparison. Taking a service out
//! (`ServiceMap::take`) leaves its slot empty (the type keeps its
//! position) and `ServiceMap::put_back` refills that slot, so the
//! detach / re-attach round trip of every MPI operation moves one
//! box pointer and nothing else.

use std::any::{Any, TypeId};

/// A kernel-resident service: any `'static + Send` state container.
pub trait Service: Any + Send {}
impl<T: Any + Send> Service for T {}

/// Type-indexed slots of the services installed on one kernel shard.
#[derive(Default)]
pub(crate) struct ServiceMap {
    /// One slot per installed type, in install order; `None` while the
    /// service is taken.
    slots: Vec<(TypeId, Option<Box<dyn Any + Send>>)>,
}

impl ServiceMap {
    /// Empty registry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn slot<T: Service>(&self) -> Option<&Option<Box<dyn Any + Send>>> {
        let id = TypeId::of::<T>();
        self.slots.iter().find(|(t, _)| *t == id).map(|(_, s)| s)
    }

    #[inline]
    fn slot_mut<T: Service>(&mut self) -> Option<&mut Option<Box<dyn Any + Send>>> {
        let id = TypeId::of::<T>();
        self.slots
            .iter_mut()
            .find(|(t, _)| *t == id)
            .map(|(_, s)| s)
    }

    /// Install (or replace, in its existing slot) the service of type `T`.
    pub(crate) fn insert<T: Service>(&mut self, svc: T) {
        self.put_back(Box::new(svc));
    }

    /// Shared access to the service of type `T`, if installed.
    #[inline]
    pub(crate) fn get<T: Service>(&self) -> Option<&T> {
        self.slot::<T>()?.as_ref()?.downcast_ref::<T>()
    }

    /// Mutable access to the service of type `T`, if installed.
    #[inline]
    pub(crate) fn get_mut<T: Service>(&mut self) -> Option<&mut T> {
        self.slot_mut::<T>()?.as_mut()?.downcast_mut::<T>()
    }

    /// Move the service of type `T` out of its slot (used by hooks that
    /// need to call into the kernel while holding the service). The slot
    /// stays reserved and reads as absent until
    /// [`put_back`](Self::put_back).
    #[inline]
    pub(crate) fn take<T: Service>(&mut self) -> Option<Box<T>> {
        self.slot_mut::<T>()?.take()?.downcast::<T>().ok()
    }

    /// Re-install a service previously [`take`](Self::take)n, into its
    /// own slot (a type seen for the first time gets a new one).
    #[inline]
    pub(crate) fn put_back<T: Service>(&mut self, svc: Box<T>) {
        match self.slot_mut::<T>() {
            Some(slot) => *slot = Some(svc),
            None => self.slots.push((TypeId::of::<T>(), Some(svc))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter(u32);
    struct Name(&'static str);
    struct Flag(bool);

    #[test]
    fn insert_get_mutate() {
        let mut m = ServiceMap::new();
        assert!(m.get::<Counter>().is_none());
        m.insert(Counter(1));
        m.get_mut::<Counter>().unwrap().0 += 1;
        assert_eq!(m.get::<Counter>().unwrap().0, 2);
    }

    #[test]
    fn take_and_put_back() {
        let mut m = ServiceMap::new();
        m.insert(Counter(7));
        m.insert(Name("mpi"));
        let c = m.take::<Counter>().unwrap();
        assert!(m.get::<Counter>().is_none());
        assert!(m.get_mut::<Counter>().is_none());
        assert!(m.take::<Counter>().is_none(), "nothing left to take");
        assert_eq!(m.get::<Name>().unwrap().0, "mpi", "neighbours unaffected");
        m.put_back(c);
        assert_eq!(m.get::<Counter>().unwrap().0, 7);
        assert_eq!(m.slots.len(), 2, "the same slot, not a new one");
        assert_eq!(m.slots[0].0, TypeId::of::<Counter>());
    }

    #[test]
    fn insert_replaces() {
        let mut m = ServiceMap::new();
        m.insert(Counter(1));
        m.insert(Name("a"));
        m.insert(Counter(9));
        assert_eq!(m.get::<Counter>().unwrap().0, 9);
        assert_eq!(m.slots.len(), 2, "replaced in place");
        // Installing over a taken service fills its slot; the box handed
        // back afterwards replaces it in turn.
        let taken = m.take::<Name>().unwrap();
        m.insert(Name("b"));
        assert_eq!(m.get::<Name>().unwrap().0, "b");
        m.put_back(taken);
        assert_eq!(m.get::<Name>().unwrap().0, "a");
        assert_eq!(m.slots.len(), 2);
    }

    #[test]
    fn lookups_do_not_depend_on_install_order() {
        let mut fwd = ServiceMap::new();
        fwd.insert(Counter(5));
        fwd.insert(Name("x"));
        fwd.insert(Flag(true));
        let mut rev = ServiceMap::new();
        rev.insert(Flag(true));
        rev.insert(Name("x"));
        rev.insert(Counter(5));
        for m in [&mut fwd, &mut rev] {
            assert_eq!(m.get::<Counter>().unwrap().0, 5);
            assert_eq!(m.get::<Name>().unwrap().0, "x");
            assert!(m.get::<Flag>().unwrap().0);
            m.get_mut::<Counter>().unwrap().0 += 1;
            let f = m.take::<Flag>().unwrap();
            assert_eq!(m.get::<Counter>().unwrap().0, 6);
            m.put_back(f);
            assert!(m.get::<Flag>().is_some());
            assert!(m.get::<u64>().is_none());
        }
    }
}
