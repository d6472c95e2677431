//! The sender strategies of §6.2, generalized over summary mechanisms.
//!
//! The paper presents five strategies; the two informed ones use a Bloom
//! filter. Here the informed strategies are parameterized by
//! [`SummaryId`], so *any* mechanism registered in the peers'
//! [`SummaryRegistry`] — Bloom, ART, whole-set, hash-set, char-poly —
//! can drive them, and the experiment grid can sweep mechanisms as a
//! strategy axis:
//!
//! * **Random** — "The transmitting node randomly picks an available
//!   symbol to send. This simple strategy is used by Swarmcast." Uniform
//!   with replacement: the sender is stateless per packet, the honest
//!   reading of an uninformed gossip sender (and what produces the
//!   coupon-collector behaviour the paper highlights).
//! * **Random/summary** — the paper's Random/BF with a pluggable digest:
//!   the receiver's encoded summary frame is decoded through the
//!   registry, and the resulting `Reconciler` yields the candidate list
//!   the sender walks in random order without repetition (resending a
//!   symbol the digest already cleared would be pure waste the sender
//!   can avoid for free); the digest is never updated mid-transfer, as
//!   in §6.1.
//! * **Recode** — recoded symbols over the sender's *entire* working set
//!   with the capped degree distribution (degree limit 50, §6.1).
//! * **Recode/summary** — the paper's Recode/BF, likewise generalized:
//!   recoding restricted to the digest-cleared candidates, with the
//!   recoding *domain* capped near the receiver's request ("we restrict
//!   the recoding domain to an appropriate small size", §6.1).
//! * **Recode/MW** — recoded symbols over the entire working set with
//!   degrees scaled by 1/(1−c), c estimated from exchanged min-wise
//!   sketches.

use icd_fountain::{RecodePolicy, RecodeScratch, Recoder};
use icd_sketch::{MinwiseSketch, PermutationFamily};
use icd_summary::{DiffEstimate, SummaryId, SummaryRegistry, SummarySizing};
use icd_util::rng::{Rng64, Xoshiro256StarStar};

use crate::SymbolId;

/// One packet on the data plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Packet {
    /// A plain encoded symbol, identified by id.
    Encoded(SymbolId),
    /// A recoded symbol: XOR of the listed encoded symbols.
    Recoded(Vec<SymbolId>),
}

impl Packet {
    /// True framed wire size of this packet carrying a `block_size`
    /// payload: the exact `write_frame_buf` length of the corresponding
    /// `icd-wire` message (length prefix included). Delegates to the
    /// closed forms pinned against the real encoder in `icd-wire`, so
    /// byte-accounting ablations can never drift from the wire again —
    /// the old hand-rolled header arithmetic here undercounted every
    /// packet by 9–11 bytes (missing the frame prefix, tag, and count
    /// fields).
    #[must_use]
    pub fn wire_size(&self, block_size: usize) -> usize {
        match self {
            Packet::Encoded(_) => icd_wire::encoded_symbol_frame_len(block_size),
            Packet::Recoded(c) => icd_wire::recoded_symbol_frame_len(c.len(), block_size),
        }
    }
}

/// A reusable packet buffer for the tick loop: one of these lives for a
/// whole simulated transfer, so emitting a packet allocates nothing —
/// the component list is rewritten in place each tick.
#[derive(Debug, Clone, Default)]
pub struct PacketScratch {
    recoded: bool,
    ids: Vec<SymbolId>,
}

impl PacketScratch {
    /// An empty scratch buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the held packet is recoded.
    #[must_use]
    pub fn is_recoded(&self) -> bool {
        self.recoded
    }

    /// The held packet's symbol ids: the single encoded id, or the
    /// recoded component list.
    #[must_use]
    pub fn ids(&self) -> &[SymbolId] {
        &self.ids
    }

    /// Materializes an owning [`Packet`] (allocates; tests and
    /// non-hot-path callers only).
    #[must_use]
    pub fn to_packet(&self) -> Packet {
        if self.recoded {
            Packet::Recoded(self.ids.clone())
        } else {
            Packet::Encoded(self.ids[0])
        }
    }

    fn set_encoded(&mut self, id: SymbolId) {
        self.recoded = false;
        self.ids.clear();
        self.ids.push(id);
    }

    fn set_recoded(&mut self, components: &[SymbolId]) {
        self.recoded = true;
        self.ids.clear();
        self.ids.extend_from_slice(components);
    }
}

/// Which sender strategy a connection runs. The informed strategies name
/// their summary mechanism by registry id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Uninformed uniform selection (Swarmcast baseline).
    Random,
    /// Random selection filtered through the receiver's digest
    /// (the paper's Random/BF when the id is [`SummaryId::BLOOM`]).
    RandomSummary(SummaryId),
    /// Oblivious recoding over the whole working set.
    Recode,
    /// Recoding restricted to digest-cleared candidates (the paper's
    /// Recode/BF when the id is [`SummaryId::BLOOM`]).
    RecodeSummary(SummaryId),
    /// Recoding with min-wise-estimated degree scaling.
    RecodeMinwise,
}

impl StrategyKind {
    /// The paper's five strategies in presentation order (the informed
    /// ones Bloom-backed, as in §6.2).
    pub const ALL: [StrategyKind; 5] = [
        StrategyKind::Random,
        StrategyKind::RandomSummary(SummaryId::BLOOM),
        StrategyKind::Recode,
        StrategyKind::RecodeSummary(SummaryId::BLOOM),
        StrategyKind::RecodeMinwise,
    ];

    /// The label used in the paper's figure legends (mechanism-suffixed
    /// for non-Bloom digests, e.g. `Random/CPI`).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            StrategyKind::Random => "Random",
            StrategyKind::RandomSummary(id) => random_label(*id),
            StrategyKind::Recode => "Recode",
            StrategyKind::RecodeSummary(id) => recode_label(*id),
            StrategyKind::RecodeMinwise => "Recode/MW",
        }
    }

    /// The summary mechanism this strategy ships, if any.
    #[must_use]
    pub fn summary_id(&self) -> Option<SummaryId> {
        match self {
            StrategyKind::RandomSummary(id) | StrategyKind::RecodeSummary(id) => Some(*id),
            _ => None,
        }
    }

    /// Whether the strategy needs a receiver digest in the handshake.
    #[must_use]
    pub fn needs_summary(&self) -> bool {
        self.summary_id().is_some()
    }

    /// Whether the strategy needs min-wise sketches.
    #[must_use]
    pub fn needs_sketch(&self) -> bool {
        matches!(self, StrategyKind::RecodeMinwise)
    }
}

/// Figure-legend suffix per mechanism; the `(prefix, id)` pairs below
/// keep the labels `&'static str` without a second id→name table.
const SUMMARY_SUFFIXES: [(SummaryId, &str, &str); 5] = [
    (SummaryId::BLOOM, "Random/BF", "Recode/BF"),
    (SummaryId::ART, "Random/ART", "Recode/ART"),
    (SummaryId::WHOLE_SET, "Random/WS", "Recode/WS"),
    (SummaryId::HASH_SET, "Random/HS", "Recode/HS"),
    (SummaryId::CHAR_POLY, "Random/CPI", "Recode/CPI"),
];

fn random_label(id: SummaryId) -> &'static str {
    SUMMARY_SUFFIXES
        .iter()
        .find(|(known, _, _)| *known == id)
        .map_or("Random/?", |(_, random, _)| random)
}

fn recode_label(id: SummaryId) -> &'static str {
    SUMMARY_SUFFIXES
        .iter()
        .find(|(known, _, _)| *known == id)
        .map_or("Recode/?", |(_, _, recode)| recode)
}

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
    /// `registry` must hold the strategy's mechanism.
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
    ) -> Self {
        Self::for_strategy_with(strategy, working_set, sizing, family, registry, estimate, None)
    }

    /// [`ReceiverHandshake::for_strategy`] with the receiver's standing
    /// min-wise sketch supplied by the caller (§4's calling card,
    /// computed once per working-set state — e.g. cached on a scenario)
    /// instead of rebuilt per connection. Pass `None` to compute it
    /// here; the sketch is only consulted when the strategy needs one.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn for_strategy_with(
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
}

/// A sender bound to one receiver for the duration of a connection.
#[derive(Debug)]
pub struct Sender {
    kind: StrategyKind,
    /// The working set Random draws from (empty for the other
    /// strategies, which keep only candidates or a recoder).
    working: Vec<SymbolId>,
    working_len: usize,
    /// Random-order candidate queue (summary strategies);
    /// `next_candidate` indexes into it.
    candidates: Vec<SymbolId>,
    next_candidate: usize,
    recoder: Option<Recoder>,
    rng: Xoshiro256StarStar,
    packets_sent: u64,
    recode_scratch: RecodeScratch,
}

impl Sender {
    /// Creates a sender running `kind` over `working` symbols, given the
    /// receiver's handshake. `family` is the protocol-wide permutation
    /// family (for the sender's own sketch under Recode/MW); `registry`
    /// decodes the handshake digest. `request_hint` is the number of
    /// symbols the receiver asked this sender for (§6.1); recode-summary
    /// strategies use it to size their recoding domain.
    ///
    /// Panics if the working set is empty or if the handshake lacks what
    /// the strategy requires — both are protocol violations, not runtime
    /// conditions.
    #[must_use]
    pub fn new(
        kind: StrategyKind,
        working: Vec<SymbolId>,
        handshake: &ReceiverHandshake,
        family: &PermutationFamily,
        registry: &SummaryRegistry,
        seed: u64,
        request_hint: usize,
    ) -> Self {
        Self::with_calling_card(kind, &working, handshake, family, registry, seed, request_hint, None)
    }

    /// [`Sender::new`] with the sender's own standing min-wise sketch
    /// supplied (its §4 calling card — a function of `working`, cached
    /// by the caller across connections) instead of rebuilt here. Pass
    /// `None` to compute it; only Recode/MW consults it. `working` is
    /// borrowed: only the strategies that draw from it keep a copy.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn with_calling_card(
        kind: StrategyKind,
        working: &[SymbolId],
        handshake: &ReceiverHandshake,
        family: &PermutationFamily,
        registry: &SummaryRegistry,
        seed: u64,
        request_hint: usize,
        calling_card: Option<&MinwiseSketch>,
    ) -> Self {
        assert!(!working.is_empty(), "sender needs a non-empty working set");
        let mut rng = Xoshiro256StarStar::new(seed);
        let mut candidates = Vec::new();
        let mut next_candidate = 0;
        let mut recoder = None;
        let mut drawn = Vec::new();
        match kind {
            StrategyKind::Random => drawn = working.to_vec(),
            StrategyKind::RandomSummary(_) => {
                candidates = cleared_candidates(kind, working, handshake, registry);
                rng.shuffle(&mut candidates);
                next_candidate = 0;
            }
            StrategyKind::Recode => {
                recoder = Some(Recoder::from_ids(
                    working.to_vec(),
                    icd_fountain::recode::PAPER_DEGREE_LIMIT,
                    RecodePolicy::Oblivious,
                ));
            }
            StrategyKind::RecodeSummary(_) => {
                candidates = cleared_candidates(kind, working, handshake, registry);
                if !candidates.is_empty() {
                    // Restrict the recoding domain to what the receiver
                    // asked for (plus recode-layer decoding headroom);
                    // recoding over every candidate would force the
                    // receiver to collect the whole candidate fountain.
                    let domain_size = (request_hint + request_hint / 10 + 8)
                        .min(candidates.len())
                        .max(1);
                    rng.shuffle(&mut candidates);
                    let domain = candidates[..domain_size].to_vec();
                    recoder = Some(Recoder::from_ids(
                        domain,
                        icd_fountain::recode::PAPER_DEGREE_LIMIT,
                        RecodePolicy::Oblivious,
                    ));
                }
            }
            StrategyKind::RecodeMinwise => {
                let receiver_sketch = handshake.sketch.as_ref().expect("Recode/MW needs a sketch");
                let own = calling_card
                    .cloned()
                    .unwrap_or_else(|| MinwiseSketch::from_keys(family, working.iter().copied()));
                // c = |A∩B| / |B| with B = this sender: containment of
                // the sender's set in the receiver's (estimate() treats
                // self as A = receiver side; call from receiver sketch).
                let c = receiver_sketch.estimate(&own).containment_of_b();
                recoder = Some(Recoder::from_ids(
                    working.to_vec(),
                    icd_fountain::recode::PAPER_DEGREE_LIMIT,
                    RecodePolicy::MinwiseScaled { containment: c },
                ));
            }
        }
        Self {
            kind,
            working: drawn,
            working_len: working.len(),
            candidates,
            next_candidate,
            recoder,
            rng,
            packets_sent: 0,
            recode_scratch: RecodeScratch::default(),
        }
    }

    /// The strategy this sender runs.
    #[must_use]
    pub fn kind(&self) -> StrategyKind {
        self.kind
    }

    /// Packets emitted so far.
    #[must_use]
    pub fn packets_sent(&self) -> u64 {
        self.packets_sent
    }

    /// Size of the sender's working set.
    #[must_use]
    pub fn working_set_size(&self) -> usize {
        self.working_len
    }

    /// Number of symbols the receiver's digest cleared for sending
    /// (summary strategies only; 0 otherwise).
    #[must_use]
    pub fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    /// Emits the next packet, or `None` if this sender can provably
    /// contribute nothing more (a summary sender that exhausted its
    /// candidate list — everything else it holds, the receiver told it
    /// it has).
    pub fn next_packet(&mut self) -> Option<Packet> {
        let mut scratch = PacketScratch::new();
        self.next_packet_into(&mut scratch)
            .then(|| scratch.to_packet())
    }

    /// Emits the next packet into reusable scratch — the tick loop's
    /// allocation-free form of [`Sender::next_packet`]. Returns `false`
    /// (leaving `scratch` stale) when the sender is exhausted.
    pub fn next_packet_into(&mut self, scratch: &mut PacketScratch) -> bool {
        let emitted = match self.kind {
            StrategyKind::Random => {
                let id = self.working[self.rng.index(self.working.len())];
                scratch.set_encoded(id);
                true
            }
            StrategyKind::RandomSummary(_) => {
                if self.next_candidate >= self.candidates.len() {
                    false
                } else {
                    scratch.set_encoded(self.candidates[self.next_candidate]);
                    self.next_candidate += 1;
                    true
                }
            }
            StrategyKind::Recode | StrategyKind::RecodeMinwise => {
                let recoder = self.recoder.as_ref().expect("recoding sender has a recoder");
                recoder.generate_into(&mut self.rng, &mut self.recode_scratch);
                scratch.set_recoded(&self.recode_scratch.components);
                true
            }
            StrategyKind::RecodeSummary(_) => match self.recoder.as_ref() {
                Some(recoder) => {
                    recoder.generate_into(&mut self.rng, &mut self.recode_scratch);
                    scratch.set_recoded(&self.recode_scratch.components);
                    true
                }
                None => false,
            },
        };
        if emitted {
            self.packets_sent += 1;
        }
        emitted
    }
}

/// Decodes the handshake digest and returns the sorted candidate ids the
/// digest clears — one registry dispatch for every mechanism. Every
/// reconciler returns its answer sorted and de-duplicated whatever the
/// order of `working`, so the sender's set is passed as it stands.
fn cleared_candidates(
    kind: StrategyKind,
    working: &[SymbolId],
    handshake: &ReceiverHandshake,
    registry: &SummaryRegistry,
) -> Vec<SymbolId> {
    let (id, body) = handshake
        .summary
        .as_ref()
        .expect("summary strategy needs a digest in the handshake");
    assert_eq!(Some(*id), kind.summary_id(), "handshake digest mismatch");
    let reconciler = registry
        .decode(*id, body)
        .expect("handshake digest must decode");
    reconciler.missing_at_peer(working)
}

/// A *full* sender: holds the whole file and streams fresh encoded
/// symbols from an unbounded universe (the digital fountain). Fresh ids
/// are drawn from a private counter namespace that cannot collide with
/// scenario symbols (which are hashes with the top bit clear).
#[derive(Debug)]
pub struct FullSender {
    next: u64,
    packets_sent: u64,
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
            packets_sent: 0,
        }
    }

    /// Emits the next fresh symbol (always new to every receiver).
    pub fn next_packet(&mut self) -> Packet {
        let mut scratch = PacketScratch::new();
        self.next_packet_into(&mut scratch);
        scratch.to_packet()
    }

    /// [`FullSender::next_packet`] into reusable scratch (a full sender
    /// never exhausts, so this always emits).
    pub fn next_packet_into(&mut self, scratch: &mut PacketScratch) {
        scratch.set_encoded(self.next);
        self.next += 1;
        self.packets_sent += 1;
    }

    /// Packets emitted so far.
    #[must_use]
    pub fn packets_sent(&self) -> u64 {
        self.packets_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icd_bloom::BloomDigest;
    use icd_recon::shared_registry;
    use std::collections::HashSet;

    fn ids(n: usize, seed: u64) -> Vec<SymbolId> {
        let mut rng = Xoshiro256StarStar::new(seed);
        // Clear the top bit so scenario ids never collide with fresh ids.
        (0..n).map(|_| rng.next_u64() & !FRESH_ID_BIT).collect()
    }

    fn family() -> PermutationFamily {
        PermutationFamily::standard(42)
    }

    fn handshake_for(
        strategy: StrategyKind,
        working: &[SymbolId],
        peer_len: usize,
        hint: usize,
    ) -> ReceiverHandshake {
        ReceiverHandshake::for_strategy(
            strategy,
            working,
            &SummarySizing::default(),
            &family(),
            shared_registry(),
            &DiffEstimate::new(working.len(), peer_len, hint),
        )
    }

    #[test]
    fn random_sender_draws_from_working_set() {
        let working = ids(100, 1);
        let set: HashSet<_> = working.iter().copied().collect();
        let hs = ReceiverHandshake::default();
        let mut s = Sender::new(
            StrategyKind::Random,
            working,
            &hs,
            &family(),
            shared_registry(),
            7,
            100,
        );
        for _ in 0..500 {
            match s.next_packet() {
                Some(Packet::Encoded(id)) => assert!(set.contains(&id)),
                other => panic!("unexpected packet {other:?}"),
            }
        }
        assert_eq!(s.packets_sent(), 500);
    }

    #[test]
    fn random_bloom_sends_only_unfiltered_and_exhausts() {
        let receiver_set = ids(500, 2);
        let sender_set: Vec<SymbolId> = receiver_set[..250]
            .iter()
            .copied()
            .chain(ids(250, 3))
            .collect();
        let strategy = StrategyKind::RandomSummary(SummaryId::BLOOM);
        let hs = handshake_for(strategy, &receiver_set, sender_set.len(), 250);
        let (_, body) = hs.summary.clone().expect("digest built");
        let filter = BloomDigest::decode(&body).expect("bloom body");
        let mut s = Sender::new(
            strategy,
            sender_set,
            &hs,
            &family(),
            shared_registry(),
            8,
            250,
        );
        let mut sent = HashSet::new();
        while let Some(Packet::Encoded(id)) = s.next_packet() {
            assert!(!filter.filter().contains(id), "sent a filtered symbol");
            assert!(sent.insert(id), "resent {id}");
        }
        // ≈ 250 useful (minus FP withholding) then exhaustion.
        assert!(sent.len() > 200 && sent.len() <= 250, "sent {}", sent.len());
        assert!(s.next_packet().is_none(), "stays exhausted");
    }

    #[test]
    fn every_registered_mechanism_drives_an_informed_sender() {
        let receiver_set = ids(200, 21);
        let fresh = ids(60, 22);
        let sender_set: Vec<SymbolId> = receiver_set[..100]
            .iter()
            .copied()
            .chain(fresh.iter().copied())
            .collect();
        let receiver: HashSet<_> = receiver_set.iter().copied().collect();
        for id in shared_registry().ids() {
            let strategy = StrategyKind::RandomSummary(id);
            let hs = handshake_for(strategy, &receiver_set, sender_set.len(), fresh.len());
            let mut s = Sender::new(
                strategy,
                sender_set.clone(),
                &hs,
                &family(),
                shared_registry(),
                23,
                fresh.len(),
            );
            let mut sent = HashSet::new();
            while let Some(Packet::Encoded(sym)) = s.next_packet() {
                assert!(!receiver.contains(&sym), "{id}: sent a held symbol");
                sent.insert(sym);
            }
            // Every mechanism must clear a usable share of the truly
            // fresh symbols (exact ones all of them).
            assert!(
                sent.len() * 2 >= fresh.len(),
                "{id}: cleared only {} of {}",
                sent.len(),
                fresh.len()
            );
        }
    }

    #[test]
    fn recode_components_come_from_working_set() {
        let working = ids(200, 4);
        let set: HashSet<_> = working.iter().copied().collect();
        let hs = ReceiverHandshake::default();
        let mut s = Sender::new(
            StrategyKind::Recode,
            working,
            &hs,
            &family(),
            shared_registry(),
            9,
            100,
        );
        for _ in 0..100 {
            match s.next_packet() {
                Some(Packet::Recoded(components)) => {
                    assert!(!components.is_empty() && components.len() <= 50);
                    assert!(components.iter().all(|id| set.contains(id)));
                }
                other => panic!("unexpected packet {other:?}"),
            }
        }
    }

    #[test]
    fn recode_bloom_components_all_useful() {
        let receiver_set = ids(400, 5);
        let sender_set: Vec<SymbolId> = receiver_set[..200]
            .iter()
            .copied()
            .chain(ids(200, 6))
            .collect();
        let strategy = StrategyKind::RecodeSummary(SummaryId::BLOOM);
        let hs = handshake_for(strategy, &receiver_set, sender_set.len(), 200);
        let receiver: HashSet<_> = receiver_set.iter().copied().collect();
        let mut s = Sender::new(
            strategy,
            sender_set,
            &hs,
            &family(),
            shared_registry(),
            10,
            200,
        );
        for _ in 0..100 {
            let Some(Packet::Recoded(components)) = s.next_packet() else {
                panic!("expected recoded packet");
            };
            for id in components {
                assert!(!receiver.contains(&id), "recoded over a known symbol");
            }
        }
    }

    #[test]
    fn recode_minwise_scales_degree_with_correlation() {
        let shared = ids(800, 7);
        let sender_set: Vec<SymbolId> = shared.iter().copied().chain(ids(200, 8)).collect();
        // Receiver holds 80 % of the sender's set.
        let receiver_set = shared;
        let hs = handshake_for(StrategyKind::RecodeMinwise, &receiver_set, sender_set.len(), 200);
        let mut correlated = Sender::new(
            StrategyKind::RecodeMinwise,
            sender_set.clone(),
            &hs,
            &family(),
            shared_registry(),
            11,
            200,
        );
        // Uncorrelated receiver for comparison.
        let hs0 = handshake_for(StrategyKind::RecodeMinwise, &ids(800, 99), sender_set.len(), 200);
        let mut uncorrelated = Sender::new(
            StrategyKind::RecodeMinwise,
            sender_set,
            &hs0,
            &family(),
            shared_registry(),
            12,
            200,
        );
        let avg = |s: &mut Sender| {
            let mut total = 0usize;
            for _ in 0..200 {
                if let Some(Packet::Recoded(c)) = s.next_packet() {
                    total += c.len();
                }
            }
            total as f64 / 200.0
        };
        let hi = avg(&mut correlated);
        let lo = avg(&mut uncorrelated);
        assert!(
            hi > lo * 1.5,
            "correlated degree {hi} should exceed uncorrelated {lo}"
        );
    }

    #[test]
    fn full_sender_never_repeats_and_never_collides() {
        let mut fs = FullSender::new(0);
        let mut fs2 = FullSender::new(1);
        let scenario_ids: HashSet<_> = ids(1000, 13).into_iter().collect();
        let mut seen = HashSet::new();
        for _ in 0..10_000 {
            let Packet::Encoded(id) = fs.next_packet() else {
                unreachable!()
            };
            assert!(seen.insert(id), "full sender repeated {id}");
            assert!(!scenario_ids.contains(&id), "collided with scenario id");
        }
        let Packet::Encoded(id2) = fs2.next_packet() else {
            unreachable!()
        };
        assert!(!seen.contains(&id2), "streams must be disjoint");
    }

    #[test]
    #[should_panic(expected = "needs a digest")]
    fn missing_summary_is_a_protocol_violation() {
        let hs = ReceiverHandshake::default();
        let _ = Sender::new(
            StrategyKind::RandomSummary(SummaryId::BLOOM),
            ids(10, 14),
            &hs,
            &family(),
            shared_registry(),
            15,
            10,
        );
    }

    #[test]
    fn labels_match_paper() {
        let labels: Vec<&str> = StrategyKind::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            vec!["Random", "Random/BF", "Recode", "Recode/BF", "Recode/MW"]
        );
        assert_eq!(
            StrategyKind::RandomSummary(SummaryId::CHAR_POLY).label(),
            "Random/CPI"
        );
        assert_eq!(
            StrategyKind::RecodeSummary(SummaryId::WHOLE_SET).label(),
            "Recode/WS"
        );
    }

    #[test]
    fn packet_wire_size_is_the_framed_length() {
        // prefix(4) + tag(1) + id(8) + count(4) + payload.
        assert_eq!(Packet::Encoded(1).wire_size(1400), 1417);
        // prefix(4) + tag(1) + count(4) + 3 ids + count(4) + payload.
        assert_eq!(Packet::Recoded(vec![1, 2, 3]).wire_size(1400), 1437);
        // Cross-check against the actual encoder, not just the formula.
        use bytes::Bytes;
        let mut scratch = Vec::new();
        icd_wire::write_frame_buf(
            &mut std::io::sink(),
            &icd_wire::Message::EncodedSymbol {
                id: 1,
                payload: Bytes::from(vec![0u8; 1400]),
            },
            &mut scratch,
        )
        .expect("sink write");
        assert_eq!(scratch.len(), Packet::Encoded(1).wire_size(1400));
        icd_wire::write_frame_buf(
            &mut std::io::sink(),
            &icd_wire::Message::RecodedSymbol {
                components: vec![1, 2, 3],
                payload: Bytes::from(vec![0u8; 1400]),
            },
            &mut scratch,
        )
        .expect("sink write");
        assert_eq!(scratch.len(), Packet::Recoded(vec![1, 2, 3]).wire_size(1400));
    }
}
