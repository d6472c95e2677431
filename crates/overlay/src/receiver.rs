//! Receiver-side state for simulated transfers.
//!
//! The receiver tracks the set of distinct encoded symbols it holds and
//! runs incoming recoded packets through the data plane's substitution
//! buffer instantiated without payloads (`icd_fountain::RecodeBuffer<()>`)
//! — the §6.1 simplification keeps payload bytes out of the simulation
//! while the substitution *structure* stays exact. Completion is reaching
//! `target` distinct symbols, i.e. `(1 + decode_overhead) · l` per the
//! paper's constant-overhead assumption.

use icd_fountain::RecodeBuffer;

use crate::strategy::{Packet, PacketScratch};
use crate::SymbolId;

/// A simulated receiver.
#[derive(Debug, Clone)]
pub struct Receiver {
    buffer: RecodeBuffer<()>,
    target: usize,
}

impl Receiver {
    /// Creates a receiver holding `initial` symbols, aiming for `target`
    /// distinct symbols (already-held symbols count toward it).
    #[must_use]
    pub fn new(initial: &[SymbolId], target: usize) -> Self {
        // Size for the full run: the known set ends at ~target ids, and
        // pre-sizing keeps the hash tables from rehashing mid-transfer
        // (the set's 7/8 load factor leaves room for a cascade's small
        // overshoot).
        let mut buffer = RecodeBuffer::with_capacity(target.max(initial.len()));
        for &id in initial {
            buffer.add_known(id, &[], |_, ()| {});
        }
        Self { buffer, target }
    }

    /// Number of distinct symbols currently held.
    #[must_use]
    pub(crate) fn distinct_symbols(&self) -> usize {
        self.buffer.known_count()
    }

    /// True once the decoding target is met.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.distinct_symbols() >= self.target
    }

    /// Distinct symbols still needed.
    #[must_use]
    pub(crate) fn remaining(&self) -> usize {
        self.target.saturating_sub(self.distinct_symbols())
    }

    /// Snapshot of the current working set (sorted, for determinism).
    /// Used when re-handshaking on a migrated connection.
    #[must_use]
    pub(crate) fn working_set(&self) -> Vec<SymbolId> {
        let mut ids: Vec<SymbolId> = self.buffer.known_ids().collect();
        ids.sort_unstable();
        ids
    }

    /// Symbols gained after the receiver held its first `distinct`, in
    /// arrival order.
    #[must_use]
    pub(crate) fn symbols_since(&self, distinct: usize) -> &[SymbolId] {
        self.buffer.known_since(distinct)
    }

    /// Ingests one packet; returns the number of *new* distinct symbols
    /// gained (0 for redundant packets; possibly > 1 when a recoded
    /// packet cascades).
    pub fn receive(&mut self, packet: &Packet) -> usize {
        match packet {
            Packet::Encoded(id) => self.receive_ids(false, std::slice::from_ref(id)),
            Packet::Recoded(components) => self.receive_ids(true, components),
        }
    }

    /// [`Receiver::receive`] from the tick loop's reusable scratch —
    /// no packet object, no per-packet allocation.
    pub(crate) fn receive_scratch(&mut self, scratch: &PacketScratch) -> usize {
        self.receive_ids(scratch.is_recoded(), scratch.ids())
    }

    /// The shared ingest path behind [`Receiver::receive`] and
    /// [`Receiver::receive_scratch`].
    fn receive_ids(&mut self, recoded: bool, ids: &[SymbolId]) -> usize {
        if !recoded && self.buffer.knows(ids[0]) {
            0
        } else {
            self.buffer.receive(ids, &[], |_, ()| {})
        }
    }

    /// Recoded packets still awaiting resolution.
    #[must_use]
    pub fn pending_recoded(&self) -> usize {
        self.buffer.pending_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state() {
        let r = Receiver::new(&[1, 2, 3], 10);
        assert_eq!(r.distinct_symbols(), 3);
        assert_eq!(r.remaining(), 7);
        assert!(!r.is_complete());
        assert!(r.buffer.knows(2));
        assert!(!r.buffer.knows(4));
    }

    #[test]
    fn encoded_packet_gains_one() {
        let mut r = Receiver::new(&[1], 3);
        assert_eq!(r.receive(&Packet::Encoded(2)), 1);
        assert_eq!(r.receive(&Packet::Encoded(2)), 0, "duplicate is redundant");
        assert_eq!(r.receive(&Packet::Encoded(3)), 1);
        assert!(r.is_complete());
    }

    #[test]
    fn recoded_packet_substitution() {
        // Receiver knows 10; recoded {10, 20} yields 20 immediately.
        let mut r = Receiver::new(&[10], 5);
        assert_eq!(r.receive(&Packet::Recoded(vec![10, 20])), 1);
        assert!(r.buffer.knows(20));
        // Recoded {30, 40} pends; then 30 arrives and 40 cascades out.
        assert_eq!(r.receive(&Packet::Recoded(vec![30, 40])), 0);
        assert_eq!(r.pending_recoded(), 1);
        assert_eq!(r.receive(&Packet::Encoded(30)), 2, "30 plus cascaded 40");
        assert!(r.buffer.knows(40));
        assert_eq!(r.pending_recoded(), 0);
    }

    #[test]
    fn fully_known_recoded_is_redundant() {
        let mut r = Receiver::new(&[1, 2], 10);
        assert_eq!(r.receive(&Packet::Recoded(vec![1, 2])), 0);
    }

    #[test]
    fn completion_at_exact_target() {
        let mut r = Receiver::new(&[], 2);
        assert_eq!(r.remaining(), 2);
        r.receive(&Packet::Encoded(1));
        assert!(!r.is_complete());
        r.receive(&Packet::Encoded(2));
        assert!(r.is_complete());
        assert_eq!(r.remaining(), 0);
    }
}
