//! The one associative container of per-rank MPI state.
//!
//! A simulated rank usually has a handful of operations outstanding — a
//! blocking collective has one request and one queued message or posted
//! receive at a time — but a linear-collective root has tens of
//! thousands. [`SmallMap`] holds nothing on the heap while empty, a flat
//! unsorted `Vec` (linear scan, no hashing) up to [`FEW_MAX`] entries
//! and a `BTreeMap` beyond, so lookups and ordered range queries stay
//! O(log n) at depth. Both forms give their memory back when the map
//! drains: the tree frees its nodes as it empties, and the flat form
//! retains at most one slot (so alternating insert/remove — a blocking
//! send or receive — does not allocate each time).

use std::collections::BTreeMap;

/// Largest entry count held in the flat form.
pub(crate) const FEW_MAX: usize = 8;

#[derive(Debug)]
pub(crate) enum SmallMap<K, V> {
    Few(Vec<(K, V)>),
    Many(BTreeMap<K, V>),
}

impl<K, V> Default for SmallMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> SmallMap<K, V> {
    /// An empty map (no heap).
    pub(crate) const fn new() -> Self {
        SmallMap::Few(Vec::new())
    }
}

impl<K: Ord + Copy, V> SmallMap<K, V> {
    pub(crate) fn len(&self) -> usize {
        match self {
            SmallMap::Few(v) => v.len(),
            SmallMap::Many(m) => m.len(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        match self {
            SmallMap::Few(v) => v.iter().find(|(k, _)| k == key).map(|(_, val)| val),
            SmallMap::Many(m) => m.get(key),
        }
    }

    pub(crate) fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self {
            SmallMap::Few(v) => v.iter_mut().find(|(k, _)| k == key).map(|(_, val)| val),
            SmallMap::Many(m) => m.get_mut(key),
        }
    }

    /// Insert an entry. `key` must not be present (every user's keys are
    /// unique by construction: request ids, stamped match keys).
    pub(crate) fn insert(&mut self, key: K, val: V) {
        debug_assert!(self.get(&key).is_none(), "duplicate SmallMap key");
        if let SmallMap::Few(v) = self {
            if v.len() < FEW_MAX {
                if v.capacity() == 0 {
                    // One slot, not `Vec`'s default four: most ranks
                    // never hold a second entry.
                    v.reserve_exact(1);
                }
                v.push((key, val));
                return;
            }
            *self = SmallMap::Many(std::mem::take(v).into_iter().collect());
        }
        if let SmallMap::Many(m) = self {
            m.insert(key, val);
        }
    }

    pub(crate) fn remove(&mut self, key: &K) -> Option<V> {
        match self {
            SmallMap::Few(v) => {
                let i = v.iter().position(|(k, _)| k == key)?;
                let (_, val) = v.swap_remove(i);
                if v.is_empty() && v.capacity() > 1 {
                    *v = Vec::new();
                }
                Some(val)
            }
            SmallMap::Many(m) => {
                let val = m.remove(key)?;
                if m.is_empty() {
                    *self = SmallMap::default();
                }
                Some(val)
            }
        }
    }

    /// The entry with the smallest key in `lo..=hi`.
    pub(crate) fn first_in(&self, lo: K, hi: K) -> Option<(K, &V)> {
        match self {
            SmallMap::Few(v) => v
                .iter()
                .filter(|(k, _)| lo <= *k && *k <= hi)
                .min_by_key(|(k, _)| *k)
                .map(|(k, val)| (*k, val)),
            SmallMap::Many(m) => m.range(lo..=hi).next().map(|(k, val)| (*k, val)),
        }
    }

    /// Every entry, in unspecified (but run-to-run identical) order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        let (few, many) = match self {
            SmallMap::Few(v) => (Some(v), None),
            SmallMap::Many(m) => (None, Some(m)),
        };
        few.into_iter()
            .flatten()
            .map(|(k, val)| (*k, val))
            .chain(many.into_iter().flatten().map(|(k, val)| (*k, val)))
    }

    /// Every entry with a key in `lo..=hi`, in unspecified order.
    pub(crate) fn range(&self, lo: K, hi: K) -> impl Iterator<Item = (K, &V)> {
        let (few, many) = match self {
            SmallMap::Few(v) => (Some(v), None),
            SmallMap::Many(m) => (None, Some(m.range(lo..=hi))),
        };
        few.into_iter()
            .flatten()
            .filter(move |(k, _)| lo <= *k && *k <= hi)
            .map(|(k, val)| (*k, val))
            .chain(many.into_iter().flatten().map(|(k, val)| (*k, val)))
    }

    /// Entry slots currently held on the heap (flat capacity, or tree
    /// entries): zero for a map that never held anything, at most one
    /// after a drain.
    #[cfg(test)]
    fn retained(&self) -> usize {
        match self {
            SmallMap::Few(v) => v.capacity(),
            SmallMap::Many(m) => m.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spills_to_the_tree_and_returns_when_drained() {
        let mut m: SmallMap<u64, u64> = SmallMap::default();
        assert_eq!(m.retained(), 0, "an empty map holds no heap");
        for i in 0..FEW_MAX as u64 {
            m.insert(i, i * 10);
        }
        assert!(matches!(m, SmallMap::Few(_)));
        m.insert(100, 1000);
        assert!(matches!(m, SmallMap::Many(_)));
        assert_eq!(m.len(), FEW_MAX + 1);
        assert_eq!(m.get(&3), Some(&30));
        assert_eq!(m.first_in(4, 200).map(|(k, _)| k), Some(4));
        assert_eq!(m.range(6, 200).count(), 3);
        for i in 0..FEW_MAX as u64 {
            assert_eq!(m.remove(&i), Some(i * 10));
        }
        assert!(
            matches!(m, SmallMap::Many(_)),
            "no switch back while in use"
        );
        assert_eq!(m.remove(&100), Some(1000));
        assert!(matches!(m, SmallMap::Few(_)));
        assert_eq!(m.retained(), 0);
    }

    #[test]
    fn flat_form_retains_one_slot_at_most() {
        let mut m: SmallMap<u64, u64> = SmallMap::default();
        m.insert(1, 1);
        assert_eq!(m.retained(), 1);
        assert_eq!(m.remove(&1), Some(1));
        assert_eq!(m.retained(), 1, "a single slot survives the drain");
        m.insert(2, 2);
        m.insert(3, 3);
        assert_eq!(m.first_in(0, 9).map(|(k, _)| k), Some(2));
        *m.get_mut(&3).unwrap() += 1;
        assert_eq!(m.iter().map(|(_, v)| *v).sum::<u64>(), 6);
        m.remove(&2);
        m.remove(&3);
        assert!(m.is_empty());
        assert_eq!(m.retained(), 0, "a grown buffer is given back");
        assert_eq!(m.remove(&3), None);
    }
}
