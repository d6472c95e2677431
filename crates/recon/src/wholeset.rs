//! The trivial exact baseline: ship the whole key set (§5.1).
//!
//! "Peer A can obviously send the entire set S_A, but this requires
//! O(|S_A| log u) bits to be transmitted." Zero error, maximal cost —
//! the yardstick the cost table measures everything else against.

use std::collections::HashSet;

/// Peer A's message: its complete key set (sorted for determinism).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WholeSetMessage {
    keys: Vec<u64>,
}

impl WholeSetMessage {
    /// Builds the message.
    #[must_use]
    pub(crate) fn build(keys: &[u64]) -> Self {
        let mut keys = keys.to_vec();
        keys.sort_unstable();
        keys.dedup();
        Self { keys }
    }

    /// Wire size: 8 bytes per key (`|S_A| log u` bits with u = 2^64).
    #[must_use]
    pub(crate) fn wire_size(&self) -> usize {
        self.keys.len() * 8
    }

    /// The keys (sorted).
    #[must_use]
    pub(crate) fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// Computes S_B ∖ S_A exactly.
    #[must_use]
    pub(crate) fn missing_at_sender(&self, b_keys: &[u64]) -> Vec<u64> {
        let a: HashSet<u64> = self.keys.iter().copied().collect();
        let mut out: Vec<u64> = b_keys.iter().copied().filter(|k| !a.contains(k)).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_difference() {
        let msg = WholeSetMessage::build(&[1, 2, 3, 4]);
        let diff = msg.missing_at_sender(&[3, 4, 5, 6]);
        assert_eq!(diff, vec![5, 6]);
    }

    #[test]
    fn dedup_and_sort() {
        let msg = WholeSetMessage::build(&[5, 1, 5, 3]);
        assert_eq!(msg.keys(), &[1, 3, 5]);
        assert_eq!(msg.wire_size(), 24);
    }

    #[test]
    fn duplicate_b_keys_reported_once() {
        let msg = WholeSetMessage::build(&[1]);
        assert_eq!(msg.missing_at_sender(&[2, 2, 1]), vec![2]);
    }

    #[test]
    fn empty_cases() {
        let empty = WholeSetMessage::build(&[]);
        assert!(empty.keys().is_empty());
        assert_eq!(empty.missing_at_sender(&[7]), vec![7]);
        let msg = WholeSetMessage::build(&[7]);
        assert!(msg.missing_at_sender(&[]).is_empty());
    }
}
