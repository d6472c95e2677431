//! The experiment geometries of §6.3.
//!
//! Symbol inventory construction mirrors the paper's text exactly:
//!
//! * **Two-peer (Figure 5)** — "the receiver is initially in possession
//!   of half of the distinct symbols in the system. The sender stores
//!   the other half of symbols plus a fraction of the receiver's symbols
//!   to achieve the specified level of correlation." The cap "no nodes
//!   with partial content initially have more than n symbols" restricts
//!   correlation to `1 − factor/2` — which is exactly why Figure 5(a)'s
//!   x-axis ends at 0.45 (compact, 1.1n) and 5(b)'s at 0.25 (stretched,
//!   1.5n). This module enforces the same cap.
//! * **Full + partial (Figure 6)** — the same two-peer geometry with a
//!   full sender alongside.
//! * **Multi-sender (Figures 7, 8)** — "each of the symbols in the
//!   system is initially either distributed to all of the peers or is
//!   known to only one peer. Each peer in the system initially has the
//!   same number of symbols": a shared pool of `s` symbols at everyone
//!   (including the receiver) plus a private pool of `p` per peer, with
//!   correlation `c = s / (s + p)`.
//!
//! A receiver completes on reaching `(1 + decode_overhead)·n` distinct
//! symbols (§6.1's constant-7 % assumption). Scenarios hold inventories
//! only: each net derives the cards and digests it exchanges from them.

use icd_util::hash::mix64;
use icd_util::rng::{Rng64, Xoshiro256StarStar};

use crate::strategy::FRESH_ID_BIT;
use crate::SymbolId;

/// Parameters shared by all scenario builders.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioParams {
    /// Number of source blocks `n` (the paper's reference: 23 968).
    pub num_blocks: usize,
    /// Distinct symbols in the system as a multiple of `n`
    /// (1.1 = compact, 1.5 = stretched).
    pub distinct_factor: f64,
    /// Constant decoding overhead assumption (paper: 0.07).
    pub decode_overhead: f64,
    /// Seed for inventory construction.
    pub seed: u64,
}

impl ScenarioParams {
    /// Compact scenario (§6.3): 1.1n distinct symbols.
    #[must_use]
    pub fn compact(num_blocks: usize, seed: u64) -> Self {
        Self {
            num_blocks,
            distinct_factor: 1.1,
            decode_overhead: 0.07,
            seed,
        }
    }

    /// Stretched scenario (§6.3): 1.5n distinct symbols.
    #[must_use]
    pub fn stretched(num_blocks: usize, seed: u64) -> Self {
        Self {
            num_blocks,
            distinct_factor: 1.5,
            decode_overhead: 0.07,
            seed,
        }
    }

    /// Distinct symbols in the system.
    #[must_use]
    pub fn distinct_symbols(&self) -> usize {
        (self.distinct_factor * self.num_blocks as f64).round() as usize
    }

    /// The receiver's completion target: `(1 + ε)·n` distinct symbols.
    #[must_use]
    pub fn target(&self) -> usize {
        ((1.0 + self.decode_overhead) * self.num_blocks as f64).ceil() as usize
    }

    /// Largest two-peer correlation honouring the "no partial node holds
    /// more than n symbols" cap: `1 − factor/2`.
    #[must_use]
    pub fn max_two_peer_correlation(&self) -> f64 {
        (1.0 - self.distinct_factor / 2.0).max(0.0)
    }

    /// Deterministic distinct symbol ids (top bit clear, so they can
    /// never collide with full-sender fresh ids). Shared by every
    /// inventory builder — the churn pool construction included — so
    /// there is exactly one id-derivation rule in the simulator.
    pub fn symbol_ids(&self, count: usize) -> Vec<SymbolId> {
        (0..count as u64)
            .map(|i| mix64(self.seed ^ i.wrapping_mul(0xA24B_AED4_963E_E407)) & !FRESH_ID_BIT)
            .collect()
    }
}

/// A two-peer transfer instance (Figure 5 / Figure 6 geometry).
#[derive(Debug, Clone)]
pub struct TwoPeerScenario {
    /// The receiver's initial working set.
    pub receiver_set: Vec<SymbolId>,
    /// The partial sender's working set.
    pub sender_set: Vec<SymbolId>,
    /// The receiver's completion target (distinct symbols).
    pub target: usize,
    /// The correlation actually achieved (|A∩B| / |B|).
    pub correlation: f64,
}

impl TwoPeerScenario {
    /// Builds the Figure 5 geometry at the requested correlation.
    ///
    /// Panics if `correlation` exceeds the scenario's cap (the paper's
    /// plots simply end there).
    #[must_use]
    pub fn build(params: &ScenarioParams, correlation: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&correlation),
            "correlation must be in [0, 1)"
        );
        assert!(
            correlation <= params.max_two_peer_correlation() + 1e-9,
            "correlation {correlation} exceeds cap {} (node capacity n)",
            params.max_two_peer_correlation()
        );
        let distinct = params.distinct_symbols();
        let ids = params.symbol_ids(distinct);
        let half = distinct / 2;
        let receiver_set: Vec<SymbolId> = ids[..half].to_vec();
        let mut sender_set: Vec<SymbolId> = ids[half..].to_vec();
        // Overlap x with c = x / (|other half| + x)  ⇒  x = c·h/(1−c).
        let base = sender_set.len();
        let overlap = ((correlation * base as f64) / (1.0 - correlation)).round() as usize;
        let overlap = overlap
            .min(receiver_set.len())
            .min(params.num_blocks - base.min(params.num_blocks));
        let mut rng = Xoshiro256StarStar::new(params.seed ^ 0x0E81_A9F0_57E1_AF01);
        for idx in rng.sample_distinct(receiver_set.len(), overlap) {
            sender_set.push(receiver_set[idx]);
        }
        let correlation = overlap as f64 / sender_set.len() as f64;
        Self {
            receiver_set,
            sender_set,
            target: params.target(),
            correlation,
        }
    }

    /// Distinct symbols the receiver still needs.
    #[must_use]
    pub fn needed(&self) -> usize {
        self.target - self.receiver_set.len()
    }
}

/// A k-partial-sender instance (Figures 7 and 8 geometry).
#[derive(Debug, Clone)]
pub struct MultiSenderScenario {
    /// The receiver's initial working set (shared + its private pool).
    pub receiver_set: Vec<SymbolId>,
    /// One working set per partial sender (shared + private pool each).
    pub sender_sets: Vec<Vec<SymbolId>>,
    /// Completion target.
    pub target: usize,
    /// Achieved correlation s/(s+p).
    pub correlation: f64,
}

impl MultiSenderScenario {
    /// Builds the Figures 7/8 geometry with `k` partial senders at the
    /// requested correlation (share of each peer's set that is the
    /// universal pool).
    #[must_use]
    pub fn build(params: &ScenarioParams, k: usize, correlation: f64) -> Self {
        assert!(k >= 1, "need at least one sender");
        assert!(
            (0.0..1.0).contains(&correlation),
            "correlation must be in [0, 1)"
        );
        let peers = k + 1; // senders + receiver
        let distinct = params.distinct_symbols() as f64;
        // D = s + peers·p,  m = s + p,  c = s/m
        //   ⇒ m = D / (c + peers·(1 − c)).
        let m = distinct / (correlation + peers as f64 * (1.0 - correlation));
        let shared = (correlation * m).round() as usize;
        let private = (m - shared as f64).round().max(0.0) as usize;
        assert!(
            shared + private <= params.num_blocks,
            "peer inventory exceeds node capacity n"
        );
        let total = shared + peers * private;
        let ids = params.symbol_ids(total);
        let shared_pool = &ids[..shared];
        let mut slices = ids[shared..].chunks_exact(private.max(1));
        let mut make_peer = || -> Vec<SymbolId> {
            let mut set = shared_pool.to_vec();
            if private > 0 {
                set.extend_from_slice(slices.next().expect("enough private slices"));
            }
            set
        };
        let receiver_set = make_peer();
        let sender_sets: Vec<Vec<SymbolId>> = (0..k).map(|_| make_peer()).collect();
        let correlation = if shared + private == 0 {
            0.0
        } else {
            shared as f64 / (shared + private) as f64
        };
        Self {
            receiver_set,
            sender_sets,
            target: params.target(),
            correlation,
        }
    }

    /// Distinct symbols the receiver still needs.
    #[must_use]
    pub(crate) fn needed(&self) -> usize {
        self.target - self.receiver_set.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn set(v: &[SymbolId]) -> HashSet<SymbolId> {
        v.iter().copied().collect()
    }

    #[test]
    fn compact_geometry_matches_paper() {
        let p = ScenarioParams::compact(10_000, 1);
        assert_eq!(p.distinct_symbols(), 11_000);
        assert_eq!(p.target(), 10_700);
        assert!((p.max_two_peer_correlation() - 0.45).abs() < 1e-9);
    }

    #[test]
    fn stretched_geometry_matches_paper() {
        let p = ScenarioParams::stretched(10_000, 1);
        assert_eq!(p.distinct_symbols(), 15_000);
        assert!((p.max_two_peer_correlation() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn two_peer_structure() {
        let p = ScenarioParams::compact(4000, 7);
        let s = TwoPeerScenario::build(&p, 0.3);
        let r = set(&s.receiver_set);
        let snd = set(&s.sender_set);
        // Receiver has half the distinct symbols.
        assert_eq!(r.len(), p.distinct_symbols() / 2);
        // Sender holds the other half plus overlap drawn from receiver.
        assert!(snd.len() <= p.num_blocks, "capacity cap violated");
        let inter = r.intersection(&snd).count();
        let c = inter as f64 / snd.len() as f64;
        assert!((c - 0.3).abs() < 0.02, "achieved correlation {c}");
        assert!((s.correlation - c).abs() < 1e-9);
        // Union covers the whole system.
        assert_eq!(r.union(&snd).count(), p.distinct_symbols());
    }

    #[test]
    fn two_peer_zero_correlation_is_disjoint() {
        let p = ScenarioParams::compact(2000, 9);
        let s = TwoPeerScenario::build(&p, 0.0);
        assert_eq!(
            set(&s.receiver_set)
                .intersection(&set(&s.sender_set))
                .count(),
            0
        );
    }

    #[test]
    fn two_peer_receiver_can_always_finish() {
        // Sender's useful symbols must cover the receiver's needs at
        // every admissible correlation.
        for factor in [1.1, 1.5] {
            let p = ScenarioParams {
                distinct_factor: factor,
                ..ScenarioParams::compact(5000, 11)
            };
            let step = p.max_two_peer_correlation() / 5.0;
            for i in 0..=5 {
                let s = TwoPeerScenario::build(&p, step * i as f64);
                let useful = set(&s.sender_set).difference(&set(&s.receiver_set)).count();
                assert!(
                    useful >= s.needed(),
                    "factor {factor}, c {}: useful {useful} < needed {}",
                    s.correlation,
                    s.needed()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds cap")]
    fn over_cap_correlation_rejected() {
        let p = ScenarioParams::compact(1000, 1);
        let _ = TwoPeerScenario::build(&p, 0.6);
    }

    #[test]
    fn multi_sender_structure() {
        let p = ScenarioParams::compact(6000, 13);
        let s = MultiSenderScenario::build(&p, 4, 0.4);
        assert_eq!(s.sender_sets.len(), 4);
        let r = set(&s.receiver_set);
        // All peers the same size.
        for ss in &s.sender_sets {
            assert_eq!(ss.len(), s.receiver_set.len());
        }
        // Pairwise sender intersections equal the shared pool exactly.
        let shared_size = (s.correlation * s.receiver_set.len() as f64).round() as usize;
        for (i, a) in s.sender_sets.iter().enumerate() {
            let a = set(a);
            assert_eq!(
                a.intersection(&r).count(),
                shared_size,
                "sender {i} vs receiver"
            );
            for b in &s.sender_sets[i + 1..] {
                assert_eq!(a.intersection(&set(b)).count(), shared_size);
            }
        }
    }

    #[test]
    fn multi_sender_receiver_can_finish() {
        for k in [2usize, 4] {
            for c in [0.0, 0.25, 0.5] {
                let p = ScenarioParams::compact(6000, 17);
                let s = MultiSenderScenario::build(&p, k, c);
                let r = set(&s.receiver_set);
                let mut reachable = r.clone();
                for ss in &s.sender_sets {
                    reachable.extend(ss.iter().copied());
                }
                assert!(
                    reachable.len() >= s.target,
                    "k={k}, c={c}: reachable {} < target {}",
                    reachable.len(),
                    s.target
                );
            }
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let p = ScenarioParams::compact(1000, 5);
        let a = TwoPeerScenario::build(&p, 0.2);
        let b = TwoPeerScenario::build(&p, 0.2);
        assert_eq!(a.receiver_set, b.receiver_set);
        assert_eq!(a.sender_set, b.sender_set);
        let p2 = ScenarioParams::compact(1000, 6);
        let c = TwoPeerScenario::build(&p2, 0.2);
        assert_ne!(a.receiver_set, c.receiver_set);
    }
}
