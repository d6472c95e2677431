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
        // Size the known side for the full run: the set ends at ~target
        // ids. A swarm peer's target is small enough for the buffer to
        // scan its arrival list instead of keeping a hash table, and the
        // list has headroom past `target`, so a peer that also takes one
        // last in-flight symbol or a cascade's overshoot does not double
        // it. The substitution side stays empty until a recoding link
        // connects (`reserve_substitution`): most receivers are only
        // ever sent encoded symbols.
        let mut buffer = RecodeBuffer::with_capacity(target.max(initial.len()));
        for &id in initial {
            buffer.add_known(id, (), |_, ()| {});
        }
        Self { buffer, target }
    }

    /// Sizes the substitution side for this transfer. The engine calls
    /// it when a recoding link connects here, before the link's first
    /// packet; it changes capacity only, never an outcome.
    pub(crate) fn reserve_substitution(&mut self) {
        self.buffer
            .reserve_substitution(self.target.max(self.distinct_symbols()));
    }

    /// Heap bytes of the known set and arrival list, by capacity.
    pub(crate) fn known_bytes(&self) -> usize {
        self.buffer.known_bytes()
    }

    /// Heap bytes of the substitution side, by capacity.
    pub(crate) fn substitution_bytes(&self) -> usize {
        self.buffer.substitution_bytes()
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

    /// Symbols gained after the receiver held its first `distinct`, in
    /// arrival order.
    #[must_use]
    pub(crate) fn symbols_since(&self, distinct: usize) -> &[SymbolId] {
        self.buffer.known_since(distinct)
    }

    /// Ingests one packet given by its symbol ids — the encoded id, or a
    /// recoded packet's components (an encoded symbol is the degree-1
    /// case). Returns the number of *new* distinct symbols gained (0 for
    /// redundant packets; possibly > 1 when a recoded packet cascades).
    pub fn receive(&mut self, ids: &[SymbolId]) -> usize {
        self.buffer.receive(ids, (), |_, ()| {})
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
        assert_eq!(r.receive(&[2]), 1);
        assert_eq!(r.receive(&[2]), 0, "duplicate is redundant");
        assert_eq!(r.receive(&[3]), 1);
        assert!(r.is_complete());
    }

    #[test]
    fn recoded_packet_substitution() {
        // Receiver knows 10; recoded {10, 20} yields 20 immediately.
        let mut r = Receiver::new(&[10], 5);
        assert_eq!(r.receive(&[10, 20]), 1);
        assert!(r.buffer.knows(20));
        // Recoded {30, 40} pends; then 30 arrives and 40 cascades out.
        assert_eq!(r.receive(&[30, 40]), 0);
        assert_eq!(r.buffer.pending_count(), 1);
        assert_eq!(r.receive(&[30]), 2, "30 plus cascaded 40");
        assert!(r.buffer.knows(40));
        assert_eq!(r.buffer.pending_count(), 0);
    }

    #[test]
    fn fully_known_recoded_is_redundant() {
        let mut r = Receiver::new(&[1, 2], 10);
        assert_eq!(r.receive(&[1, 2]), 0);
    }

    #[test]
    fn completion_at_exact_target() {
        let mut r = Receiver::new(&[], 2);
        assert_eq!(r.remaining(), 2);
        r.receive(&[1]);
        assert!(!r.is_complete());
        r.receive(&[2]);
        assert!(r.is_complete());
        assert_eq!(r.remaining(), 0);
    }
}
