//! Compressed working-set membership over a shared symbol universe.
//!
//! Symbol ids in this codebase are mix64-hashed `u64`s — effectively
//! uniform random points in `0..2^64` — so a bitmap keyed by raw id
//! values cannot compress them. What *can* be exploited is that every
//! peer in a swarm draws from the same finite pool: the object's symbol
//! universe. [`IdSet`] stores that universe once (sorted, behind an
//! `Arc` so a million peers share a single copy) and represents each
//! peer's membership as a plain bitmap over universe *ranks*. Per-set
//! cost is `ceil(universe/64)` words — under 2 KiB for a 16k-symbol
//! object versus tens of bytes *per id* for a hash set — and an insert
//! is a binary search plus a bit test.

use std::sync::Arc;

/// A membership set over a fixed, shared universe of ids.
///
/// Construction sorts and deduplicates the universe; all sets built via
/// [`IdUniverse::empty_set`] on the same [`IdUniverse`] share that one
/// allocation. Ids outside the universe are never members and cannot be
/// inserted.
#[derive(Clone, Debug)]
pub struct IdSet {
    universe: IdUniverse,
    words: Vec<u64>,
}

/// A sorted, deduplicated, reference-counted id universe.
///
/// Cheap to clone; the backing slice is shared.
#[derive(Clone, Debug)]
pub struct IdUniverse {
    ids: Arc<[u64]>,
}

impl IdUniverse {
    /// Builds a universe from arbitrary ids (sorted and deduplicated
    /// internally).
    #[must_use]
    pub fn new(mut ids: Vec<u64>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        Self { ids: ids.into() }
    }

    /// Rank of `id` in the sorted universe, if present.
    #[must_use]
    pub(crate) fn rank(&self, id: u64) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// Creates an empty membership set over this universe.
    #[must_use]
    pub fn empty_set(&self) -> IdSet {
        IdSet {
            universe: self.clone(),
            words: vec![0u64; self.ids.len().div_ceil(64)],
        }
    }
}

impl IdSet {
    /// Inserts `id`; returns `true` if it was newly added.
    ///
    /// # Panics
    /// Panics if `id` is not in the universe — membership over unknown
    /// ids is a logic error at every call site, not a recoverable case.
    pub fn insert(&mut self, id: u64) -> bool {
        let rank = self
            .universe
            .rank(id)
            .expect("id outside the shared universe");
        let (word, bit) = (rank / 64, rank % 64);
        let mask = 1u64 << bit;
        if self.words[word] & mask != 0 {
            return false;
        }
        self.words[word] |= mask;
        true
    }

    /// Removes all members, keeping the universe and capacity.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::mix64;

    fn sparse_ids(n: u64) -> Vec<u64> {
        (0..n).map(|i| mix64(0x1D5E_7000 ^ i)).collect()
    }

    #[test]
    fn insert_reports_each_id_new_once() {
        let pool = sparse_ids(100);
        let uni = IdUniverse::new(pool.clone());
        let mut set = uni.empty_set();
        for &id in &pool {
            assert!(set.insert(id));
            assert!(!set.insert(id), "second insert must report present");
        }
    }

    #[test]
    #[should_panic(expected = "outside the shared universe")]
    fn outside_universe_insert_panics() {
        let uni = IdUniverse::new(sparse_ids(10));
        let mut set = uni.empty_set();
        set.insert(0xDEAD_BEEF);
    }

    #[test]
    fn universe_is_shared_not_copied() {
        let uni = IdUniverse::new(sparse_ids(1000));
        let a = uni.empty_set();
        let b = uni.empty_set();
        assert!(Arc::ptr_eq(&a.universe.ids, &b.universe.ids));
        // Per-set footprint is the bitmap alone: 1000 bits -> 16 words.
        assert_eq!(a.words.len(), 16);
        assert_eq!(b.words.len(), 16);
    }

    #[test]
    fn clear_retains_universe() {
        let uni = IdUniverse::new(sparse_ids(64));
        let mut set = uni.empty_set();
        for &id in &sparse_ids(64) {
            set.insert(id);
        }
        set.clear();
        assert!(set.words.iter().all(|&w| w == 0));
        assert!(set.insert(sparse_ids(1)[0]));
    }

    #[test]
    fn duplicate_universe_ids_deduplicate() {
        let mut pool = sparse_ids(20);
        pool.extend(sparse_ids(20));
        let uni = IdUniverse::new(pool);
        assert_eq!(uni.ids.len(), 20);
    }
}
