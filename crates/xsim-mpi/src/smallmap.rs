//! The one associative container of per-rank MPI state.
//!
//! A simulated rank usually has a handful of operations outstanding — a
//! blocking collective has one request and one queued message or posted
//! receive at a time, a replicated halo a couple of dozen — but a
//! linear-collective root has tens of thousands. [`SmallMap`] holds its
//! first entry inline, in the rank's own record, so posting, matching,
//! completing and taking that entry follow no pointer. A second entry
//! moves the map to a flat unsorted `Vec` (linear scan, no hashing): one
//! block of [`FEW_MIN`] slots, grown in place to 16 and then
//! [`FEW_MAX`] slots, so only a map beyond [`FEW_MAX`] entries builds a
//! `BTreeMap`, where lookups and ordered range queries stay O(log n) at
//! depth. Every form gives its memory back when the map drains: it
//! returns to the empty form, which holds no heap.
//!
//! Iteration order is unspecified (the flat form's is insertion order,
//! except that a removal moves the last entry into the hole), but
//! run-to-run identical. No caller depends on it: the failure paths sort
//! the requests they collect before they schedule anything.

use std::collections::BTreeMap;
use std::mem;

/// Slots of the flat block the second entry allocates.
const FEW_MIN: usize = 8;

/// Largest entry count held in the flat forms: the block doubles twice
/// (8 → 16 → 32) before the map spills to the tree.
pub(crate) const FEW_MAX: usize = 32;

#[derive(Debug)]
pub(crate) enum SmallMap<K, V> {
    /// No entries, no heap.
    Empty,
    /// One entry, inline.
    One((K, V)),
    /// Two to [`FEW_MAX`] entries in one block of 8, 16 or 32 slots.
    Few(Vec<(K, V)>),
    /// More than [`FEW_MAX`] entries (until the map drains).
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
        SmallMap::Empty
    }

    /// The entries of a flat form; empty for the tree.
    fn flat(&self) -> &[(K, V)] {
        match self {
            SmallMap::Empty | SmallMap::Many(_) => &[],
            SmallMap::One(entry) => std::slice::from_ref(entry),
            SmallMap::Few(v) => v,
        }
    }
}

impl<K: Ord + Copy, V> SmallMap<K, V> {
    pub(crate) fn len(&self) -> usize {
        match self {
            SmallMap::Many(m) => m.len(),
            _ => self.flat().len(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        matches!(self, SmallMap::Empty)
    }

    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        match self {
            SmallMap::Many(m) => m.get(key),
            _ => self.flat().iter().find(|(k, _)| k == key).map(|(_, v)| v),
        }
    }

    pub(crate) fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let flat = match self {
            SmallMap::Empty => return None,
            SmallMap::One(entry) => std::slice::from_mut(entry),
            SmallMap::Few(v) => v.as_mut_slice(),
            SmallMap::Many(m) => return m.get_mut(key),
        };
        flat.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Insert an entry. `key` must not be present (every user's keys are
    /// unique by construction: request ids, stamped match keys).
    pub(crate) fn insert(&mut self, key: K, val: V) {
        debug_assert!(self.get(&key).is_none(), "duplicate SmallMap key");
        match self {
            SmallMap::Empty => *self = SmallMap::One((key, val)),
            SmallMap::One(_) => {
                let SmallMap::One(first) = mem::take(self) else {
                    unreachable!("matched above");
                };
                let mut v = Vec::with_capacity(FEW_MIN);
                v.push(first);
                v.push((key, val));
                *self = SmallMap::Few(v);
            }
            SmallMap::Few(v) if v.len() < FEW_MAX => {
                if v.len() == v.capacity() {
                    // 8 → 16 → 32 slots: the block doubles in place.
                    v.reserve_exact(v.len());
                }
                v.push((key, val));
            }
            SmallMap::Few(v) => {
                let mut m: BTreeMap<K, V> = mem::take(v).into_iter().collect();
                m.insert(key, val);
                *self = SmallMap::Many(m);
            }
            SmallMap::Many(m) => {
                m.insert(key, val);
            }
        }
    }

    pub(crate) fn remove(&mut self, key: &K) -> Option<V> {
        let (val, drained) = match self {
            SmallMap::Empty => return None,
            SmallMap::One((k, _)) if k != key => return None,
            SmallMap::One(_) => {
                let SmallMap::One((_, val)) = mem::take(self) else {
                    unreachable!("matched above");
                };
                return Some(val);
            }
            SmallMap::Few(v) => {
                let i = v.iter().position(|(k, _)| k == key)?;
                (v.swap_remove(i).1, v.is_empty())
            }
            SmallMap::Many(m) => (m.remove(key)?, m.is_empty()),
        };
        if drained {
            *self = SmallMap::Empty;
        }
        Some(val)
    }

    /// The entry with the smallest key in `lo..=hi`.
    pub(crate) fn first_in(&self, lo: K, hi: K) -> Option<(K, &V)> {
        match self {
            SmallMap::Many(m) => m.range(lo..=hi).next().map(|(k, v)| (*k, v)),
            _ => self
                .flat()
                .iter()
                .filter(|(k, _)| lo <= *k && *k <= hi)
                .min_by_key(|(k, _)| *k)
                .map(|(k, v)| (*k, v)),
        }
    }

    /// Every entry, in unspecified (but run-to-run identical) order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        let many = match self {
            SmallMap::Many(m) => Some(m),
            _ => None,
        };
        self.flat()
            .iter()
            .map(|(k, v)| (*k, v))
            .chain(many.into_iter().flatten().map(|(k, v)| (*k, v)))
    }

    /// Every entry with a key in `lo..=hi`, in unspecified order.
    pub(crate) fn range(&self, lo: K, hi: K) -> impl Iterator<Item = (K, &V)> {
        let many = match self {
            SmallMap::Many(m) => Some(m.range(lo..=hi)),
            _ => None,
        };
        self.flat()
            .iter()
            .filter(move |(k, _)| lo <= *k && *k <= hi)
            .map(|(k, v)| (*k, v))
            .chain(many.into_iter().flatten().map(|(k, v)| (*k, v)))
    }

    /// Entry slots currently held on the heap (flat capacity, or tree
    /// entries): zero for the empty and inline forms, so zero once the
    /// map has drained.
    #[cfg(test)]
    fn retained(&self) -> usize {
        match self {
            SmallMap::Empty | SmallMap::One(_) => 0,
            SmallMap::Few(v) => v.capacity(),
            SmallMap::Many(m) => m.len(),
        }
    }
}

impl<K: Ord + Copy> SmallMap<K, u64> {
    /// The counter under `key` (0 if absent), which then counts one up.
    pub(crate) fn next(&mut self, key: K) -> u64 {
        match self.get_mut(&key) {
            Some(next) => {
                *next += 1;
                *next - 1
            }
            None => {
                self.insert(key, 1);
                0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsim_core::rng::{for_each_case, DetRng};

    #[test]
    fn grows_in_place_then_spills_to_the_tree_and_returns_when_drained() {
        let mut m: SmallMap<u64, u64> = SmallMap::default();
        assert!(matches!(m, SmallMap::Empty));
        assert_eq!(m.retained(), 0, "an empty map holds no heap");
        m.insert(0, 0);
        assert!(matches!(m, SmallMap::One(_)));
        assert_eq!(m.retained(), 0, "the first entry is inline");
        for i in 1..FEW_MAX as u64 {
            m.insert(i, i * 10);
            assert!(matches!(m, SmallMap::Few(_)));
            let n = i as usize + 1;
            let slots = [FEW_MIN, 16, FEW_MAX].into_iter().find(|&s| n <= s);
            assert_eq!(Some(m.retained()), slots, "{n} entries: one block");
        }
        m.insert(100, 1000);
        assert!(matches!(m, SmallMap::Many(_)), "the 33rd entry spills");
        assert_eq!(m.len(), FEW_MAX + 1);
        assert_eq!(m.get(&3), Some(&30));
        assert_eq!(m.first_in(4, 200).map(|(k, _)| k), Some(4));
        assert_eq!(m.range(FEW_MAX as u64 - 2, 200).count(), 3);
        for i in 0..FEW_MAX as u64 {
            assert_eq!(m.remove(&i), Some(i * 10));
        }
        assert!(
            matches!(m, SmallMap::Many(_)),
            "no switch back while in use"
        );
        assert_eq!(m.remove(&100), Some(1000));
        assert!(matches!(m, SmallMap::Empty));
        assert_eq!(m.retained(), 0);
    }

    #[test]
    fn drained_flat_forms_return_to_empty() {
        let mut m: SmallMap<u64, u64> = SmallMap::default();
        m.insert(1, 1);
        assert_eq!(m.remove(&2), None, "a miss leaves the inline entry");
        assert_eq!(m.remove(&1), Some(1));
        assert!(matches!(m, SmallMap::Empty));
        m.insert(2, 2);
        m.insert(3, 3);
        assert_eq!(m.first_in(0, 9).map(|(k, _)| k), Some(2));
        *m.get_mut(&3).unwrap() += 1;
        assert_eq!(m.iter().map(|(_, v)| *v).sum::<u64>(), 6);
        m.remove(&2);
        assert!(
            matches!(m, SmallMap::Few(_)),
            "one entry left: the block stays until the drain"
        );
        m.remove(&3);
        assert!(matches!(m, SmallMap::Empty));
        assert_eq!(m.retained(), 0, "the block is given back");
        assert_eq!(m.remove(&3), None);
    }

    /// Random operations against a `BTreeMap` oracle. Each case fills the
    /// map towards a random target of up to 96 entries (so it passes
    /// through the inline, flat and tree forms: the block's 8 → 16 → 32
    /// growth, the spill at the 33rd entry), churns it, and drains it;
    /// every result is compared, the form and the block size follow the
    /// most entries held since the last drain, and a drained map must
    /// hold no heap.
    #[test]
    fn matches_a_btreemap_oracle() {
        fn check(m: &SmallMap<u64, u64>, oracle: &BTreeMap<u64, u64>, g: &mut DetRng) {
            assert_eq!(m.len(), oracle.len());
            assert_eq!(m.is_empty(), oracle.is_empty());
            let (a, b) = (g.gen_range_u64(160), g.gen_range_u64(160));
            let (lo, hi) = (a.min(b), a.max(b));
            let want = oracle.range(lo..=hi).next().map(|(k, v)| (*k, v));
            assert_eq!(m.first_in(lo, hi), want, "first_in({lo}, {hi})");
            let mut got: Vec<_> = m.range(lo, hi).map(|(k, v)| (k, *v)).collect();
            got.sort_unstable();
            let want: Vec<_> = oracle.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
            assert_eq!(got, want, "range({lo}, {hi})");
            let mut all: Vec<_> = m.iter().map(|(k, v)| (k, *v)).collect();
            all.sort_unstable();
            let want: Vec<_> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
            assert_eq!(all, want);
        }

        for_each_case(0x5a11_3a90, 200, |g| {
            let mut m: SmallMap<u64, u64> = SmallMap::new();
            let mut oracle = BTreeMap::new();
            let mut held = 0;
            let target = 1 + g.gen_index(3 * FEW_MAX);
            for step in 0..8 * target {
                let key = g.gen_range_u64(160);
                // Mostly growing until the target is reached, then
                // mostly shrinking.
                let grow = g.gen_index(4) != 0;
                let grow = if oracle.len() < target { grow } else { !grow };
                match g.gen_index(3) {
                    0 => {
                        assert_eq!(m.get(&key), oracle.get(&key));
                        if let Some(v) = m.get_mut(&key) {
                            *v += 1;
                            *oracle.get_mut(&key).unwrap() += 1;
                        }
                    }
                    _ if grow && !oracle.contains_key(&key) => {
                        m.insert(key, step as u64);
                        oracle.insert(key, step as u64);
                    }
                    _ => assert_eq!(m.remove(&key), oracle.remove(&key)),
                }
                // The most entries held since the map last drained
                // decides its form and the size of its block.
                held = if oracle.is_empty() {
                    0
                } else {
                    held.max(oracle.len())
                };
                match (oracle.len(), held) {
                    (0, _) => assert!(matches!(m, SmallMap::Empty)),
                    (1, 1) => assert!(matches!(m, SmallMap::One(_))),
                    (_, h) if h <= FEW_MAX => {
                        assert!(matches!(m, SmallMap::Few(_)));
                        let slots = [FEW_MIN, 16, FEW_MAX].into_iter().find(|&s| h <= s);
                        assert_eq!(Some(m.retained()), slots, "block after {h} entries");
                    }
                    _ => assert!(matches!(m, SmallMap::Many(_))),
                }
                check(&m, &oracle, g);
            }
            let keys: Vec<u64> = oracle.keys().copied().collect();
            for key in keys {
                assert_eq!(m.remove(&key), oracle.remove(&key));
                check(&m, &oracle, g);
            }
            assert!(matches!(m, SmallMap::Empty));
            assert_eq!(m.retained(), 0, "a drained map holds no heap");
        });
    }
}
