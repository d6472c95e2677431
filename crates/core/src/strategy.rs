//! The sender strategies of §6.2, generalized over summary mechanisms —
//! the one copy the session machines and the overlay engine's packet
//! links both run.
//!
//! The paper presents five strategies; the two informed ones use a Bloom
//! filter. Here the informed strategies are parameterized by
//! [`SummaryId`], so *any* mechanism registered in the peers'
//! [`SummaryRegistry`] — Bloom, ART, whole-set, hash-set, RIBLT —
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
//!   registry ([`missing_at_peer`]), and the sender walks the cleared
//!   candidates in random order without repetition (resending a symbol
//!   the digest already cleared would be pure waste the sender can avoid
//!   for free); the digest is never updated mid-transfer, as in §6.1.
//! * **Recode** — recoded symbols over the sender's *entire* working set
//!   with the capped degree distribution (degree limit 50, §6.1).
//! * **Recode/summary** — the paper's Recode/BF, likewise generalized:
//!   recoding restricted to the digest-cleared candidates, with the
//!   recoding *domain* capped near the receiver's request ("we restrict
//!   the recoding domain to an appropriate small size", §6.1).
//! * **Recode/MW** — recoded symbols over the entire working set with
//!   degrees scaled by 1/(1−c), c estimated from exchanged min-wise
//!   sketches.
//!
//! A [`StrategySender`] works over symbol ids: each
//! [`StrategySender::emit`] writes the next packet's ids into a reusable
//! [`PacketScratch`] or reports exhaustion. The overlay engine books
//! those ids as they stand; [`crate::SenderMachine`] frames them, taking
//! an encoded symbol's payload from its [`WorkingSet`] and a recoded
//! one's from the recoder's packed arena.

use icd_fountain::recode::PAPER_DEGREE_LIMIT;
use icd_fountain::{EncodedSymbol, RecodePolicy, RecodeScratch, Recoder, SymbolId};
use icd_util::rng::{Rng64, Xoshiro256StarStar};
use icd_util::symbol::SymbolBuf;

use crate::summary::{SummaryError, SummaryId, SummaryRegistry};
use crate::working_set::WorkingSet;

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
    /// for non-Bloom digests, e.g. `Random/RIBLT`).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            StrategyKind::Random => "Random",
            StrategyKind::RandomSummary(id) => summary_label(*id, false),
            StrategyKind::Recode => "Recode",
            StrategyKind::RecodeSummary(id) => summary_label(*id, true),
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

    /// Whether the strategy sends recoded symbols, so its receiver
    /// buffers them for substitution.
    #[must_use]
    pub fn recodes(&self) -> bool {
        matches!(
            self,
            StrategyKind::Recode | StrategyKind::RecodeSummary(_) | StrategyKind::RecodeMinwise
        )
    }

    /// Whether the strategy needs min-wise sketches.
    #[must_use]
    pub fn needs_sketch(&self) -> bool {
        matches!(self, StrategyKind::RecodeMinwise)
    }
}

/// Figure-legend labels per mechanism, `(id, Random/…, Recode/…)`: the
/// labels stay `&'static str` without a second id→name table.
const SUMMARY_LABELS: [(SummaryId, &str, &str); 5] = [
    (SummaryId::BLOOM, "Random/BF", "Recode/BF"),
    (SummaryId::ART, "Random/ART", "Recode/ART"),
    (SummaryId::WHOLE_SET, "Random/WS", "Recode/WS"),
    (SummaryId::HASH_SET, "Random/HS", "Recode/HS"),
    (SummaryId::RIBLT, "Random/RIBLT", "Recode/RIBLT"),
];

fn summary_label(id: SummaryId, recode: bool) -> &'static str {
    match SUMMARY_LABELS.iter().find(|(known, _, _)| *known == id) {
        Some((_, _, label)) if recode => label,
        Some((_, label, _)) => label,
        None if recode => "Recode/?",
        None => "Random/?",
    }
}

/// Decodes a receiver's `id` summary body through `registry` and returns
/// the ids of `inventory` it clears — the summary strategies' candidate
/// pool. One registry dispatch for every mechanism; every reconciler
/// answers sorted and de-duplicated whatever the order of `inventory`.
pub fn missing_at_peer(
    registry: &SummaryRegistry,
    id: SummaryId,
    body: &[u8],
    inventory: &[SymbolId],
) -> Result<Vec<SymbolId>, SummaryError> {
    Ok(registry.decode(id, body)?.missing_at_peer(inventory))
}

/// A reusable packet buffer: one lives for a whole run, and each
/// [`StrategySender::emit`] rewrites it in place, so emitting a packet
/// allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct PacketScratch {
    recoded: bool,
    recode: RecodeScratch,
}

impl PacketScratch {
    /// Whether the held packet is recoded.
    #[must_use]
    pub fn is_recoded(&self) -> bool {
        self.recoded
    }

    /// The held packet's symbol ids: the single encoded id, or the
    /// recoded component list (sorted).
    #[must_use]
    pub fn ids(&self) -> &[SymbolId] {
        &self.recode.components
    }

    /// The held recoded packet's payload: the XOR of its components',
    /// empty when the recoder carries no payloads.
    pub(crate) fn payload(&self) -> &SymbolBuf {
        &self.recode.payload
    }

    /// Holds the plain encoded symbol `id`.
    pub fn set_encoded(&mut self, id: SymbolId) {
        self.recoded = false;
        self.recode.components.clear();
        self.recode.components.push(id);
    }
}

/// How a [`StrategySender`] picks its next packet.
#[derive(Debug)]
enum Pick {
    /// Random: uniform with replacement over the inventory.
    Draw(Box<[SymbolId]>),
    /// Random/summary: the shuffled candidates, each sent once.
    Walk { ids: Box<[SymbolId]>, next: usize },
    /// The recoding strategies. Boxed: a recoder is several times the
    /// size of the other picks, and every live link holds a sender.
    Recode(Box<Recoder>),
}

/// A sender bound to one receiver for the duration of a connection,
/// running one [`StrategyKind`]. Pull-based: the caller decides when
/// (and whether) the next packet goes out.
#[derive(Debug)]
pub struct StrategySender {
    pick: Pick,
    rng: Xoshiro256StarStar,
}

impl StrategySender {
    /// Creates a sender running `kind` over `pool`: the sender's
    /// inventory for Random, Recode and Recode/MW, in the order given
    /// (Random indexes it, recoders sample its positions); for the
    /// summary strategies the ids the receiver's digest cleared
    /// ([`missing_at_peer`]). An empty pool gives a sender that is
    /// exhausted from the start.
    ///
    /// The sender draws from one `Xoshiro256StarStar` seeded by `seed`;
    /// the summary strategies shuffle their pool with it first.
    /// `containment` is Recode/MW's estimate `c = |A∩B| / |B|` of how
    /// much of this sender's set the receiver holds (ignored otherwise).
    /// `request_hint` is the number of symbols the receiver asked this
    /// sender for (§6.1); Recode/summary sizes its recoding domain from
    /// it. With `payloads`, recoders pack each id's payload from that
    /// working set, so recoded packets carry their XOR; every pool id
    /// must then be held there.
    #[must_use]
    pub fn new(
        kind: StrategyKind,
        mut pool: Vec<SymbolId>,
        containment: f64,
        seed: u64,
        request_hint: usize,
        payloads: Option<&WorkingSet>,
    ) -> Self {
        let mut rng = Xoshiro256StarStar::new(seed);
        if kind.summary_id().is_some() {
            rng.shuffle(&mut pool);
        }
        let recode = |ids: Vec<SymbolId>, policy| {
            if ids.is_empty() {
                return Pick::Walk {
                    ids: Box::default(),
                    next: 0,
                };
            }
            Pick::Recode(Box::new(match payloads {
                None => Recoder::from_ids(ids, PAPER_DEGREE_LIMIT, policy),
                Some(working) => {
                    let symbols = ids
                        .into_iter()
                        .map(|id| EncodedSymbol {
                            id,
                            payload: working.payload(id).expect("pool ids are held").clone(),
                        })
                        .collect();
                    Recoder::new(symbols, PAPER_DEGREE_LIMIT, policy)
                }
            }))
        };
        // The id picks hold their pool at its length: a digest's answer
        // is collected without knowing its size, and every live link
        // keeps its pool for the link's lifetime.
        let pick = match kind {
            StrategyKind::Random => Pick::Draw(pool.into_boxed_slice()),
            StrategyKind::RandomSummary(_) => Pick::Walk {
                ids: pool.into_boxed_slice(),
                next: 0,
            },
            StrategyKind::Recode => recode(pool, RecodePolicy::Oblivious),
            StrategyKind::RecodeSummary(_) => {
                // Restrict the recoding domain to what the receiver asked
                // for (plus recode-layer decoding headroom); recoding over
                // every candidate would force the receiver to collect the
                // whole candidate fountain.
                pool.truncate(request_hint.saturating_add(request_hint / 10).saturating_add(8));
                recode(pool, RecodePolicy::Oblivious)
            }
            StrategyKind::RecodeMinwise => recode(pool, RecodePolicy::MinwiseScaled { containment }),
        };
        Self { pick, rng }
    }

    /// Heap bytes behind this sender, by capacity: its id pool, or its
    /// boxed recoder and everything the recoder holds.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        match &self.pick {
            Pick::Draw(ids) | Pick::Walk { ids, .. } => std::mem::size_of_val(&**ids),
            Pick::Recode(recoder) => std::mem::size_of::<Recoder>() + recoder.heap_bytes(),
        }
    }

    /// Writes the next packet into `out` and returns `true`, or returns
    /// `false` (leaving `out` stale) when this sender can provably
    /// contribute nothing more: a summary sender that walked its whole
    /// candidate list — everything else it holds, the receiver told it
    /// it has — or a sender with an empty pool.
    #[inline]
    pub fn emit(&mut self, out: &mut PacketScratch) -> bool {
        match &mut self.pick {
            Pick::Draw(ids) if !ids.is_empty() => out.set_encoded(ids[self.rng.index(ids.len())]),
            Pick::Walk { ids, next } if *next < ids.len() => {
                out.set_encoded(ids[*next]);
                *next += 1;
            }
            Pick::Recode(recoder) => {
                recoder.generate_into(&mut self.rng, &mut out.recode);
                out.recoded = true;
            }
            _ => return false,
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::{standard_registry, DiffEstimate, SummarySizing};
    use icd_sketch::bloom::BloomDigest;
    use icd_sketch::{MinwiseSketch, PermutationFamily};
    use std::collections::HashSet;

    fn ids(n: usize, seed: u64) -> Vec<SymbolId> {
        let mut rng = Xoshiro256StarStar::new(seed);
        (0..n).map(|_| rng.next_u64()).collect()
    }

    /// The encoded digest a receiver holding `receiver` ships a sender of
    /// `peer_len` symbols it expects `hint` new ones from.
    fn digest(id: SummaryId, receiver: &[SymbolId], peer_len: usize, hint: usize) -> Vec<u8> {
        let mut keys = receiver.to_vec();
        keys.sort_unstable();
        standard_registry()
            .build(
                id,
                &SummarySizing::default(),
                &DiffEstimate::new(receiver.len(), peer_len, hint),
                &keys,
            )
            .expect("registered mechanism")
            .encode_body()
    }

    /// A summary sender over what `receiver`'s digest clears of `sender`.
    fn informed(
        kind: StrategyKind,
        receiver: &[SymbolId],
        sender: &[SymbolId],
        hint: usize,
        seed: u64,
    ) -> StrategySender {
        let id = kind.summary_id().expect("summary strategy");
        let body = digest(id, receiver, sender.len(), hint);
        let pool = missing_at_peer(standard_registry(), id, &body, sender).expect("digest decodes");
        StrategySender::new(kind, pool, 0.0, seed, hint, None)
    }

    /// Emits `n` packets, returning each one's ids and recoded flag.
    fn packets(sender: &mut StrategySender, n: usize) -> Vec<(bool, Vec<SymbolId>)> {
        let mut out = PacketScratch::default();
        (0..n)
            .map_while(|_| sender.emit(&mut out).then(|| (out.is_recoded(), out.ids().to_vec())))
            .collect()
    }

    #[test]
    fn random_sender_draws_from_working_set() {
        let working = ids(100, 1);
        let set: HashSet<_> = working.iter().copied().collect();
        let mut s = StrategySender::new(StrategyKind::Random, working, 0.0, 7, 100, None);
        let sent = packets(&mut s, 500);
        assert_eq!(sent.len(), 500, "Random never exhausts");
        for (recoded, ids) in sent {
            assert!(!recoded && ids.len() == 1 && set.contains(&ids[0]));
        }
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
        let body = digest(SummaryId::BLOOM, &receiver_set, sender_set.len(), 250);
        let filter = BloomDigest::decode(&body).expect("bloom body");
        let mut s = informed(strategy, &receiver_set, &sender_set, 250, 8);
        let mut sent = HashSet::new();
        for (recoded, ids) in packets(&mut s, usize::MAX) {
            assert!(!recoded);
            assert!(!filter.filter().contains(ids[0]), "sent a filtered symbol");
            assert!(sent.insert(ids[0]), "resent {}", ids[0]);
        }
        // ≈ 250 useful (minus FP withholding) then exhaustion.
        assert!(sent.len() > 200 && sent.len() <= 250, "sent {}", sent.len());
        assert!(packets(&mut s, 1).is_empty(), "stays exhausted");
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
        for id in standard_registry().ids() {
            let strategy = StrategyKind::RandomSummary(id);
            let mut s = informed(strategy, &receiver_set, &sender_set, fresh.len(), 23);
            let mut sent = HashSet::new();
            for (_, ids) in packets(&mut s, usize::MAX) {
                assert!(!receiver.contains(&ids[0]), "{id}: sent a held symbol");
                sent.insert(ids[0]);
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
        let mut s = StrategySender::new(StrategyKind::Recode, working, 0.0, 9, 100, None);
        let sent = packets(&mut s, 100);
        assert_eq!(sent.len(), 100);
        for (recoded, components) in sent {
            assert!(recoded && !components.is_empty() && components.len() <= 50);
            assert!(components.iter().all(|id| set.contains(id)));
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
        let receiver: HashSet<_> = receiver_set.iter().copied().collect();
        let mut s = informed(strategy, &receiver_set, &sender_set, 200, 10);
        let sent = packets(&mut s, 100);
        assert_eq!(sent.len(), 100, "recoding never exhausts");
        for (recoded, components) in sent {
            assert!(recoded, "expected recoded packet");
            for id in components {
                assert!(!receiver.contains(&id), "recoded over a known symbol");
            }
        }
    }

    #[test]
    fn recode_minwise_scales_degree_with_correlation() {
        let family = PermutationFamily::standard(42);
        let shared = ids(800, 7);
        let sender_set: Vec<SymbolId> = shared.iter().copied().chain(ids(200, 8)).collect();
        let own = MinwiseSketch::from_keys(&family, sender_set.iter().copied());
        // c = |A∩B| / |B| from the receiver's sketch (A) against ours (B).
        let containment = |receiver: &[SymbolId]| {
            MinwiseSketch::from_keys(&family, receiver.iter().copied())
                .estimate(&own)
                .containment_of_b()
        };
        // Receiver holds 80 % of the sender's set, or none of it.
        let mut correlated = StrategySender::new(
            StrategyKind::RecodeMinwise,
            sender_set.clone(),
            containment(&shared),
            11,
            200,
            None,
        );
        let mut uncorrelated = StrategySender::new(
            StrategyKind::RecodeMinwise,
            sender_set,
            containment(&ids(800, 99)),
            12,
            200,
            None,
        );
        let avg = |s: &mut StrategySender| {
            let total: usize = packets(s, 200).iter().map(|(_, c)| c.len()).sum();
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
    fn an_empty_pool_is_exhausted_not_a_panic() {
        let kinds = StrategyKind::ALL.into_iter().chain([StrategyKind::RandomSummary(SummaryId::ART)]);
        for kind in kinds {
            let mut s = StrategySender::new(kind, Vec::new(), 0.5, 1, 10, Some(&WorkingSet::new()));
            assert!(packets(&mut s, 3).is_empty(), "{} emitted from nothing", kind.label());
        }
    }

    #[test]
    fn labels_match_paper() {
        let labels: Vec<&str> = StrategyKind::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            vec!["Random", "Random/BF", "Recode", "Recode/BF", "Recode/MW"]
        );
        assert_eq!(
            StrategyKind::RandomSummary(SummaryId::RIBLT).label(),
            "Random/RIBLT"
        );
        assert_eq!(
            StrategyKind::RecodeSummary(SummaryId::WHOLE_SET).label(),
            "Recode/WS"
        );
    }
}
