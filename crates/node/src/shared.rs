//! The one working set all of a node's connection threads feed.
//!
//! Each inbound session decodes into its own frozen-snapshot
//! [`icd_core::ReceiverMachine`]; what makes the node a single peer
//! rather than a bundle of independent downloads is this type: every
//! decoded symbol lands here, duplicates across sessions collapse
//! (`insert` dedupes by id), and completion is judged against the
//! shared distinct count — never by summing per-session gains, which
//! would double-count symbols two senders both shipped.

use std::sync::Mutex;

use icd_core::WorkingSet;
use icd_fountain::EncodedSymbol;

/// A mutex-guarded [`WorkingSet`] with a completion target, shared by
/// every connection thread of a node.
#[derive(Debug)]
pub struct SharedWorkingSet {
    inner: Mutex<WorkingSet>,
    target: usize,
}

impl SharedWorkingSet {
    /// Wraps a node's initial share. `target` is the distinct-symbol
    /// count that means "complete" (the universe size).
    #[must_use]
    pub fn new(initial: WorkingSet, target: usize) -> Self {
        Self {
            inner: Mutex::new(initial),
            target,
        }
    }

    /// Ingests one decoded symbol. Returns `true` if it was new to the
    /// node (not just to the session that decoded it).
    pub fn ingest(&self, symbol: EncodedSymbol) -> bool {
        self.inner.lock().expect("working set lock").insert(symbol)
    }

    /// Distinct symbols currently held.
    #[must_use]
    pub fn distinct(&self) -> usize {
        self.inner.lock().expect("working set lock").len()
    }

    /// Whether the node reached its target.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.distinct() >= self.target
    }

    /// A clone of the current working set — the snapshot a new session
    /// (serve or fetch) freezes for its machine.
    #[must_use]
    pub fn snapshot(&self) -> WorkingSet {
        self.inner.lock().expect("working set lock").clone()
    }

    /// Sorted ids currently held (diagnostics, roster reporting).
    #[must_use]
    pub fn sorted_ids(&self) -> Vec<u64> {
        self.inner.lock().expect("working set lock").sorted_ids()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn sym(id: u64) -> EncodedSymbol {
        EncodedSymbol {
            id,
            payload: Bytes::from(id.to_le_bytes().to_vec()),
        }
    }

    #[test]
    fn cross_thread_ingestion_dedupes() {
        let shared = std::sync::Arc::new(SharedWorkingSet::new(WorkingSet::new(), 100));
        // Two "sessions" racing overlapping id ranges: 0..75 and 25..100.
        let a = shared.clone();
        let ta = std::thread::spawn(move || (0..75).filter(|&i| a.ingest(sym(i))).count());
        let b = shared.clone();
        let tb = std::thread::spawn(move || (25..100).filter(|&i| b.ingest(sym(i))).count());
        let fresh_a = ta.join().expect("join a");
        let fresh_b = tb.join().expect("join b");
        // The overlap 25..75 is credited to exactly one of them.
        assert_eq!(fresh_a + fresh_b, 100);
        assert!(shared.is_complete());
        assert_eq!(shared.distinct(), 100);
    }
}
