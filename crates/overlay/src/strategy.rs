//! The simulator's side of the §6.2 strategies.
//!
//! The strategies themselves run in `icd-core` ([`StrategyKind`],
//! [`StrategySender`]) — the one sender both the session machines and
//! the engine's packet links drive. What is left here is what only a
//! simulated connection needs:
//!
//! * [`ReceiverHandshake`] — the one-shot control exchange of §6.1 as
//!   the engine ships it (encoded digest plus calling card), and the
//!   sender a packet link builds from it;
//! * [`FullSender`] — the digital fountain a full peer streams.

use icd_core::strategy::{missing_at_peer, PacketScratch, StrategySender};
use icd_sketch::{
    DiffEstimate, MinwiseSketch, PermutationFamily, SummaryId, SummaryRegistry, SummarySizing,
};

pub use icd_core::strategy::StrategyKind;

use crate::SymbolId;

/// What the receiver hands a sender at connection setup (the one-shot
/// control exchange of §6.1; never updated during the transfer). The
/// digest travels *encoded*, exactly as it would on the wire: the sender
/// decodes it through its registry, so the simulator exercises the same
/// frame path as the session machines.
#[derive(Debug, Clone, Default)]
pub struct ReceiverHandshake {
    /// Encoded summary frame `(mechanism id, body bytes)`.
    pub summary: Option<(SummaryId, Vec<u8>)>,
    /// Min-wise sketch of the receiver's working set (MW strategy).
    pub sketch: Option<MinwiseSketch>,
}

impl ReceiverHandshake {
    /// Builds the handshake a receiver with `working_set` would send,
    /// providing whatever `strategy` requires. `sizing` and `estimate`
    /// parameterize the digest exactly as in the session layer;
    /// `registry` must hold the strategy's mechanism. `calling_card` is
    /// the receiver's standing min-wise sketch (§4, computed once per
    /// working-set state and cached by the caller); pass `None` to
    /// compute it here. It is only consulted when the strategy needs a
    /// sketch.
    ///
    /// Panics if the strategy names a mechanism absent from `registry` —
    /// a configuration error, not a runtime condition.
    #[must_use]
    pub fn for_strategy(
        strategy: StrategyKind,
        working_set: &[SymbolId],
        sizing: &SummarySizing,
        family: &PermutationFamily,
        registry: &SummaryRegistry,
        estimate: &DiffEstimate,
        calling_card: Option<&MinwiseSketch>,
    ) -> Self {
        let summary = strategy.summary_id().map(|id| {
            let mut keys = working_set.to_vec();
            keys.sort_unstable();
            let digest = registry
                .build(id, sizing, estimate, &keys)
                .expect("strategy mechanism must be registered");
            (id, digest.encode_body())
        });
        let sketch = strategy.needs_sketch().then(|| {
            calling_card
                .cloned()
                .unwrap_or_else(|| MinwiseSketch::from_keys(family, working_set.iter().copied()))
        });
        Self { summary, sketch }
    }

    /// Encoded digest size in bytes (0 without one) — the handshake cost
    /// ablations account against transfer savings.
    #[must_use]
    pub fn summary_bytes(&self) -> usize {
        self.summary.as_ref().map_or(0, |(_, body)| body.len())
    }

    /// The sender a packet link runs for `strategy` over `inventory`
    /// against this handshake: the summary strategies draw from what the
    /// digest clears (decoded through `registry`), Recode/MW scales its
    /// degrees by the containment the receiver's sketch estimates against
    /// `own_card`, the sender's calling card. `seed` and `request_hint`
    /// are [`StrategySender::new`]'s.
    ///
    /// Panics if the handshake lacks what the strategy requires — a
    /// protocol violation, not a runtime condition.
    #[must_use]
    pub fn sender(
        &self,
        strategy: StrategyKind,
        inventory: &[SymbolId],
        own_card: Option<&MinwiseSketch>,
        registry: &SummaryRegistry,
        seed: u64,
        request_hint: usize,
    ) -> StrategySender {
        let pool = match strategy.summary_id() {
            Some(id) => {
                let (shipped, body) = self
                    .summary
                    .as_ref()
                    .expect("summary strategy needs a digest in the handshake");
                assert_eq!(*shipped, id, "handshake digest mismatch");
                missing_at_peer(registry, id, body, inventory).expect("handshake digest must decode")
            }
            None => inventory.to_vec(),
        };
        let containment = if strategy.needs_sketch() {
            let receiver = self.sketch.as_ref().expect("Recode/MW needs a sketch");
            let own = own_card.expect("Recode/MW needs the sender's calling card");
            // c = |A∩B| / |B| with A = the receiver, B = this sender.
            receiver.estimate(own).containment_of_b()
        } else {
            0.0
        };
        StrategySender::new(strategy, pool, containment, seed, request_hint, None)
    }
}

/// A *full* sender: holds the whole file and streams fresh encoded
/// symbols from an unbounded universe (the digital fountain). Fresh ids
/// are drawn from a private counter namespace that cannot collide with
/// scenario symbols (which are hashes with the top bit clear).
#[derive(Debug)]
pub struct FullSender {
    next: u64,
}

/// Tag bit marking full-sender (fresh fountain) symbol ids.
pub const FRESH_ID_BIT: u64 = 1 << 63;

impl FullSender {
    /// Creates a full sender with its own id namespace (`stream` keeps
    /// multiple full senders disjoint).
    #[must_use]
    pub fn new(stream: u32) -> Self {
        Self {
            next: FRESH_ID_BIT | (u64::from(stream) << 48),
        }
    }

    /// Writes the next fresh symbol (always new to every receiver) into
    /// `out`; a full sender never exhausts.
    pub fn emit(&mut self, out: &mut PacketScratch) {
        out.set_encoded(self.next);
        self.next += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icd_sketch::standard_registry;
    use icd_util::rng::{Rng64, Xoshiro256StarStar};
    use std::collections::HashSet;

    #[test]
    fn full_sender_never_repeats_and_never_collides() {
        let mut fs = FullSender::new(0);
        let mut fs2 = FullSender::new(1);
        let mut rng = Xoshiro256StarStar::new(13);
        // Scenario ids clear the top bit, so they never collide with
        // fresh ids.
        let scenario_ids: HashSet<u64> =
            (0..1000).map(|_| rng.next_u64() & !FRESH_ID_BIT).collect();
        let mut out = PacketScratch::default();
        let mut seen = HashSet::new();
        for _ in 0..10_000 {
            fs.emit(&mut out);
            let id = out.ids()[0];
            assert!(!out.is_recoded());
            assert!(seen.insert(id), "full sender repeated {id}");
            assert!(!scenario_ids.contains(&id), "collided with scenario id");
        }
        fs2.emit(&mut out);
        assert!(!seen.contains(&out.ids()[0]), "streams must be disjoint");
    }

    #[test]
    #[should_panic(expected = "needs a digest")]
    fn missing_summary_is_a_protocol_violation() {
        let _ = ReceiverHandshake::default().sender(
            StrategyKind::RandomSummary(SummaryId::BLOOM),
            &[1, 2, 3],
            None,
            standard_registry(),
            15,
            10,
        );
    }
}
