//! The pluggable set-summary abstraction (§3/§5 as an open family).
//!
//! The paper frames fine-grained reconciliation as an *open* family of
//! set-summary mechanisms — Bloom filters, approximate reconciliation
//! trees, and exact approaches such as whole-set exchange, truncated
//! hash sets, and invertible Bloom lookup tables — traded off
//! by wire size, accuracy, and compute. This module defines the one
//! abstraction every mechanism plugs into:
//!
//! * [`SummaryId`] — a stable 16-bit protocol identifier per mechanism.
//! * [`SetSummary`] — the receiver-side digest: built over a key set,
//!   encoded to a self-describing wire body, able to answer
//!   membership-style probes.
//! * [`Reconciler`] — the sender-side view: decoded from a peer's wire
//!   body, it yields the symbol diff that drives an informed transfer.
//!   Every [`SetSummary`] is also a [`Reconciler`] (supertrait), so a
//!   digest round-trips through bytes without losing its answers.
//! * [`SummaryRegistry`] — maps [`SummaryId`]s to constructors, decoders
//!   and analytic cost advisors ([`SummarySpec`]). Policy code scores
//!   candidates through the registry instead of hardcoding mechanism
//!   names; sessions, the wire layer, and the experiment grid all
//!   dispatch purely on [`SummaryId`]. [`standard_registry`] is the one
//!   process-wide table of the five shipped mechanisms.
//! * `codec` — the bounds-checked little-endian primitives every body
//!   format is written and read with.

pub(crate) mod codec;
mod registry;
mod traits;

pub use registry::{cheapest_mechanism, standard_registry, SummaryRegistry, SummarySpec};
pub use traits::{DiffEstimate, Reconciler, SetSummary, SummaryError, SummarySizing};

/// Stable protocol identifier of a summary mechanism.
///
/// The numeric value travels on the wire (in the generic summary frame)
/// and addresses the [`SummaryRegistry`]; it must never be reused for a
/// different mechanism. Known ids are given named constants; any other
/// id is a private mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SummaryId(pub u16);

impl SummaryId {
    /// No fine-grained summary at all: the sender works from the sketch
    /// alone. Reserved — never present in a registry.
    pub const NONE: SummaryId = SummaryId(0);
    /// Whole-set exchange (§5.1's trivial exact baseline).
    pub const WHOLE_SET: SummaryId = SummaryId(1);
    /// Truncated-hash set (§5.1's middle option).
    pub const HASH_SET: SummaryId = SummaryId(2);
    // Id 3 carried the characteristic-polynomial sketch, which the
    // rateless IBLT replaced; it is retired, never to be reassigned.
    /// Bloom filter over the working set (§5.2).
    pub const BLOOM: SummaryId = SummaryId(4);
    /// Approximate reconciliation tree summary (§5.3).
    pub const ART: SummaryId = SummaryId(5);
    /// Rateless invertible Bloom lookup table (exact, O(d) cells).
    pub const RIBLT: SummaryId = SummaryId(6);

    /// Human-readable mechanism name (stable; used in tables and logs).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SummaryId::NONE => "none",
            SummaryId::WHOLE_SET => "whole-set",
            SummaryId::HASH_SET => "hash-set",
            SummaryId::BLOOM => "bloom",
            SummaryId::ART => "art",
            SummaryId::RIBLT => "riblt",
            _ => "private",
        }
    }
}

impl std::fmt::Display for SummaryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}({})", self.label(), self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_distinct_and_labelled() {
        let ids = [
            SummaryId::WHOLE_SET,
            SummaryId::HASH_SET,
            SummaryId::BLOOM,
            SummaryId::ART,
            SummaryId::RIBLT,
        ];
        let set: std::collections::HashSet<u16> = ids.iter().map(|i| i.0).collect();
        assert_eq!(set.len(), ids.len());
        for id in ids {
            assert_ne!(id, SummaryId::NONE);
            assert_ne!(id.label(), "none");
            assert_ne!(id.label(), "private");
        }
        assert_eq!(SummaryId(0x9999).label(), "private");
        assert_eq!(SummaryId(3).label(), "private", "retired char-poly id");
        assert_eq!(format!("{}", SummaryId::BLOOM), "bloom(4)");
    }
}
