//! Property-based tests for the codec: exact reconstruction across
//! arbitrary geometry, encoder determinism, and recode-buffer soundness.

use bytes::Bytes;
use icd_fountain::decoder::DecodeStats;
use icd_fountain::{
    CodeSpec, DecodeStatus, Decoder, EncodedSymbol, Encoder, RecodeBuffer, RecodePolicy,
    Recoder,
};
use icd_util::rng::Xoshiro256StarStar;
use icd_util::symbol::SymbolBuf;
use proptest::prelude::*;

/// Id-only reference peeler for the differential tests below: sets of
/// unknown neighbors, no payloads, peeled naively to a fixpoint. What it
/// reports per call is what [`Decoder`] must report.
struct ReferencePeeler {
    spec: CodeSpec,
    known: Vec<bool>,
    pending: Vec<Vec<usize>>,
    seen: std::collections::HashSet<u64>,
    stats: DecodeStats,
}

impl ReferencePeeler {
    fn new(spec: CodeSpec) -> Self {
        let known = vec![false; spec.num_blocks()];
        Self { spec, known, pending: Vec::new(), seen: Default::default(), stats: DecodeStats::default() }
    }

    fn recovered(&self) -> usize {
        self.known.iter().filter(|&&k| k).count()
    }

    fn receive(&mut self, id: u64) -> DecodeStatus {
        self.stats.received += 1;
        if !self.seen.insert(id) {
            self.stats.duplicates += 1;
            return DecodeStatus::Duplicate;
        }
        let mut unknown = self.spec.neighbors(id);
        unknown.retain(|&b| !self.known[b]);
        if unknown.is_empty() {
            self.stats.redundant += 1;
            return DecodeStatus::Redundant;
        }
        let before = self.recovered();
        self.pending.push(unknown);
        while let Some(b) = self.pending.iter().find(|u| u.len() == 1).map(|u| u[0]) {
            self.known[b] = true;
            for u in &mut self.pending {
                u.retain(|&x| x != b);
            }
            self.pending.retain(|u| !u.is_empty());
        }
        match self.recovered() - before {
            0 => DecodeStatus::Buffered,
            _ if self.recovered() == self.known.len() => DecodeStatus::Complete,
            newly_recovered => DecodeStatus::Progress { newly_recovered },
        }
    }
}

/// Id-only reference for the recode cascade: every pending recoded
/// symbol keeps the `Vec` of its still-unknown component ids, each
/// substitution finds and removes one occurrence, and a list down to one
/// id yields it. Watchers fire in FIFO order per id and the cascade is a
/// LIFO stack, the order [`RecodeBuffer`] must reproduce with its
/// count-and-XOR slots.
#[derive(Default)]
struct ReferenceCascade {
    known: std::collections::HashSet<u64>,
    arrivals: Vec<u64>,
    pending: Vec<Option<Vec<u64>>>,
    watchers: std::collections::HashMap<u64, Vec<usize>>,
    redundant: u64,
}

impl ReferenceCascade {
    fn pending_count(&self) -> usize {
        self.pending.iter().filter(|p| p.is_some()).count()
    }

    fn add_known(&mut self, id: u64) -> Vec<u64> {
        self.resolve(id, false)
    }

    fn receive(&mut self, components: &[u64]) -> Vec<u64> {
        let remaining: Vec<u64> =
            components.iter().copied().filter(|id| !self.known.contains(id)).collect();
        match remaining.len() {
            0 => {
                self.redundant += 1;
                Vec::new()
            }
            1 => self.resolve(remaining[0], true),
            _ => {
                let slot = self.pending.len();
                for &id in &remaining {
                    self.watchers.entry(id).or_default().push(slot);
                }
                self.pending.push(Some(remaining));
                Vec::new()
            }
        }
    }

    fn resolve(&mut self, seed: u64, report_seed: bool) -> Vec<u64> {
        let mut recovered = Vec::new();
        let mut queue = vec![seed];
        let mut report = report_seed;
        while let Some(id) = queue.pop() {
            let reported = std::mem::replace(&mut report, true);
            if !self.known.insert(id) {
                continue;
            }
            self.arrivals.push(id);
            if reported {
                recovered.push(id);
            }
            for slot in self.watchers.remove(&id).unwrap_or_default() {
                let Some(remaining) = self.pending[slot].as_mut() else {
                    continue;
                };
                let Some(pos) = remaining.iter().position(|&x| x == id) else {
                    continue;
                };
                remaining.swap_remove(pos);
                match remaining.len() {
                    0 => {
                        self.pending[slot] = None;
                        self.redundant += 1;
                    }
                    1 => {
                        queue.push(remaining[0]);
                        self.pending[slot] = None;
                    }
                    _ => {}
                }
            }
        }
        recovered
    }
}

/// The payload of symbol `id` in the cascade tests: eight bytes of it.
fn truth(id: u64) -> [u8; 8] {
    id.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes()
}

/// XOR of the component payloads, one term per listed occurrence.
fn blend(components: &[u64]) -> Vec<u8> {
    let mut out = [0u8; 8];
    for &id in components {
        xor_into(&mut out, &truth(id));
    }
    out.to_vec()
}

/// Byte-at-a-time XOR: the obviously-correct reference.
fn xor_into(dst: &mut [u8], src: &[u8]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

#[test]
fn stale_watchers_do_not_disturb_later_pending_symbols() {
    // z0 = {a, b, c} resolves through b and yields c. Its watcher node on
    // c is stale by the time c's chain runs, and z1 = {c, d}, buffered
    // after z0, sits behind it in that chain: z1 must still yield d.
    let (a, b, c, d) = (11u64, 22, 33, 44);
    let mut buf = RecodeBuffer::<Bytes>::new();
    let mut reference = ReferenceCascade::default();
    let mut step = |buf: &mut RecodeBuffer<Bytes>, components: &[u64]| {
        let mut ids = Vec::new();
        buf.receive(components, Bytes::from(blend(components)), |id, p| {
            assert_eq!(p.to_vec(), truth(id), "payload of {id}");
            ids.push(id);
        });
        assert_eq!(ids, reference.receive(components), "recoveries of {components:?}");
        ids
    };
    assert!(step(&mut buf, &[a, b, c]).is_empty());
    assert_eq!(step(&mut buf, &[a]), [a]);
    assert!(step(&mut buf, &[c, d]).is_empty());
    assert_eq!(buf.pending_count(), 2);
    assert_eq!(step(&mut buf, &[b]), [b, c, d]);
    assert_eq!(buf.pending_count(), 0);
    assert_eq!(buf.redundant_count(), 0);
    // Every chain is spent: a later symbol over the same ids is redundant.
    assert!(step(&mut buf, &[c, d, a]).is_empty());
    assert_eq!(buf.redundant_count(), 1);
    assert_eq!(buf.known_since(0), [a, b, c, d]);
}

/// Feeds `arrivals` to a [`Decoder`] and the reference side by side and
/// holds every observable equal after every call.
fn assert_decoder_matches_reference(encoder: &Encoder, arrivals: &[EncodedSymbol]) -> Decoder {
    let mut decoder = Decoder::new(encoder.spec().clone());
    let mut reference = ReferencePeeler::new(encoder.spec().clone());
    for (step, symbol) in arrivals.iter().enumerate() {
        assert_eq!(decoder.receive(symbol), reference.receive(symbol.id), "status at arrival {step}");
        assert_eq!(decoder.stats(), reference.stats, "stats at arrival {step}");
        assert_eq!(decoder.recovered_blocks(), reference.recovered(), "recovered at arrival {step}");
        assert_eq!(decoder.buffered_symbols(), reference.pending.len(), "buffered at arrival {step}");
    }
    decoder
}

#[test]
fn two_ripple_entries_racing_for_one_block() {
    // Two buffered symbols over the same pair {x, y}, then x alone: both
    // reach one unknown (y) in the same ripple, the first popped recovers
    // it, the second must retire without recovering anything.
    let content: Vec<u8> = (0..64u8).collect();
    let encoder = Encoder::for_content(&content, 16, 3);
    let spec = encoder.spec();
    assert_eq!(spec.num_blocks(), 4);
    let pairs: Vec<u64> = (0..10_000).filter(|&id| spec.neighbors(id) == [0, 1]).take(2).collect();
    let single = (0..10_000).find(|&id| spec.neighbors(id) == [0]).expect("a degree-1 id");
    let arrivals: Vec<EncodedSymbol> =
        [pairs[0], pairs[1], single].iter().map(|&id| encoder.symbol(id)).collect();
    let decoder = assert_decoder_matches_reference(&encoder, &arrivals);
    assert_eq!(decoder.recovered_blocks(), 2);
    assert_eq!(decoder.buffered_symbols(), 0);
    // Finish the decode: the racing entry must not have corrupted block 1.
    let mut decoder = decoder;
    for symbol in encoder.stream(9) {
        if decoder.receive(&symbol) == DecodeStatus::Complete {
            break;
        }
    }
    assert_eq!(decoder.into_content(content.len()).expect("complete"), content);
}

#[test]
fn the_cheapest_ready_symbol_releases_the_block() {
    // L = {1, 2} and H = {0, 1, 2} are buffered; {0} then {1} leave both
    // with block 2 as their last unknown. H's payload is corrupt, so the
    // content comes out right only if L, the symbol with fewer
    // neighbors, is the one that releases block 2.
    let content: Vec<u8> = (0..64u8).collect();
    let encoder = Encoder::for_content(&content, 16, 3);
    let spec = encoder.spec();
    assert_eq!(spec.num_blocks(), 4);
    let find = |blocks: &[usize]| {
        (0..100_000)
            .find(|&id| spec.neighbors(id) == blocks)
            .expect("an id over these blocks")
    };
    let corrupt = EncodedSymbol {
        id: find(&[0, 1, 2]),
        payload: Bytes::from(vec![0xA5; 16]),
    };
    assert_ne!(corrupt, encoder.symbol(corrupt.id));
    let mut arrivals = vec![encoder.symbol(find(&[1, 2])), corrupt];
    arrivals.extend([find(&[0]), find(&[1])].map(|id| encoder.symbol(id)));
    arrivals.extend(encoder.stream(9).take(200));
    let decoder = assert_decoder_matches_reference(&encoder, &arrivals);
    assert!(decoder.is_complete());
    let decoded = decoder.into_content(content.len());
    assert_eq!(decoded.expect("complete"), content);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn encoder_is_a_pure_function_of_id(
        content in proptest::collection::vec(any::<u8>(), 1..2000),
        block_size in 8usize..128,
        seed in any::<u64>(),
        id in any::<u64>(),
    ) {
        let e1 = Encoder::for_content(&content, block_size, seed);
        let e2 = Encoder::for_content(&content, block_size, seed);
        prop_assert_eq!(e1.symbol(id), e2.symbol(id));
        prop_assert_eq!(e1.spec().neighbors(id), e2.spec().neighbors(id));
    }

    #[test]
    fn neighbors_are_valid(num_blocks in 1usize..500, seed in any::<u64>(), id in any::<u64>()) {
        let spec = CodeSpec::new(num_blocks, 4, seed);
        let n = spec.neighbors(id);
        prop_assert!(!n.is_empty());
        prop_assert!(n.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(n.iter().all(|&b| b < num_blocks));
    }

    #[test]
    fn out_of_order_delivery_still_decodes(
        content in proptest::collection::vec(any::<u8>(), 100..1500),
        block_size in 16usize..100,
        seed in any::<u64>(),
    ) {
        let encoder = Encoder::for_content(&content, block_size, seed);
        let l = encoder.spec().num_blocks();
        // Collect a generous batch, then deliver shuffled.
        let mut symbols: Vec<EncodedSymbol> = encoder.stream(seed ^ 1).take(3 * l + 30).collect();
        let mut rng = Xoshiro256StarStar::new(seed ^ 2);
        icd_util::rng::Rng64::shuffle(&mut rng, &mut symbols);
        let mut dec = Decoder::new(encoder.spec().clone());
        let mut done = false;
        for sym in &symbols {
            if matches!(dec.receive(sym), DecodeStatus::Complete) {
                done = true;
                break;
            }
        }
        prop_assert!(done, "3l + 30 symbols should decode");
        prop_assert_eq!(dec.into_content(content.len()).unwrap(), content);
    }

    #[test]
    fn decoder_matches_id_only_reference(
        content in proptest::collection::vec(any::<u8>(), 1..1500),
        block_size in 8usize..100,
        seed in any::<u64>(),
    ) {
        // Random geometry, code seed and arrival order, with repeated
        // ids mixed in and the feed running on past completion.
        let encoder = Encoder::for_content(&content, block_size, seed);
        let l = encoder.spec().num_blocks();
        let mut arrivals: Vec<EncodedSymbol> = encoder.stream(seed ^ 1).take(3 * l + 30).collect();
        let repeats = arrivals[..l.min(20)].to_vec();
        arrivals.extend(repeats);
        let mut rng = Xoshiro256StarStar::new(seed ^ 2);
        icd_util::rng::Rng64::shuffle(&mut rng, &mut arrivals);
        let decoder = assert_decoder_matches_reference(&encoder, &arrivals);
        prop_assert!(decoder.is_complete(), "3l + 30 symbols should decode");
        prop_assert_eq!(decoder.into_content(content.len()).unwrap(), content);
    }

    #[test]
    fn recode_buffer_only_reveals_true_symbols(
        n_symbols in 3usize..60,
        known_frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        // Recoded packets over a working set can only ever resolve to
        // symbols of that working set, with their exact payloads.
        let symbols: Vec<EncodedSymbol> = (0..n_symbols as u64)
            .map(|i| EncodedSymbol {
                id: i * 7 + 1,
                payload: Bytes::from(vec![(i % 256) as u8; 8]),
            })
            .collect();
        let truth: std::collections::HashMap<u64, Bytes> =
            symbols.iter().map(|s| (s.id, s.payload.clone())).collect();
        let recoder = Recoder::new(symbols.clone(), 10, RecodePolicy::Oblivious);
        let mut buf = RecodeBuffer::<Bytes>::new();
        let cut = ((n_symbols as f64) * known_frac) as usize;
        for s in &symbols[..cut] {
            buf.add_known(s.id, s.payload.clone(), |_, _| {});
        }
        let mut rng = Xoshiro256StarStar::new(seed);
        for _ in 0..200 {
            let rec = recoder.generate(&mut rng);
            let mut got = Vec::new();
            buf.receive(&rec.components, rec.payload.clone(), |id, p| got.push((id, p.to_vec())));
            for (id, payload) in got {
                prop_assert_eq!(&payload[..], &truth.get(&id).expect("known id")[..]);
            }
        }
    }

    #[test]
    fn vectorized_xor_matches_scalar_reference(
        len in 0usize..1024,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        // SymbolBuf's word-packed XOR is byte-identical to the scalar
        // loop at every length, including non-multiple-of-8 tails.
        let mut rng = Xoshiro256StarStar::new(seed_a);
        let a: Vec<u8> = (0..len).map(|_| (icd_util::rng::Rng64::next_u64(&mut rng) & 0xFF) as u8).collect();
        let mut rng = Xoshiro256StarStar::new(seed_b);
        let b: Vec<u8> = (0..len).map(|_| (icd_util::rng::Rng64::next_u64(&mut rng) & 0xFF) as u8).collect();
        let mut slow = a.clone();
        xor_into(&mut slow, &b);
        let mut buf = SymbolBuf::from_bytes(&a);
        buf.xor_bytes(&b);
        prop_assert_eq!(buf.to_vec(), slow);
    }

    #[test]
    fn recode_buffer_matches_id_list_reference(
        universe in 4usize..48,
        packets in proptest::collection::vec(
            (proptest::collection::vec(0usize..48, 1..7), any::<bool>()),
            1..160,
        ),
    ) {
        // The simulator's RecodeBuffer<()> and the data plane's
        // RecodeBuffer<Bytes> must both match the list-of-remaining-ids
        // reference call by call: same recoveries in the same order, same
        // known set in the same arrival order, same redundancy and pending
        // accounting, across interleaved add_known and receive calls.
        // Component lists come unsorted and may repeat an id, as the wire
        // allows; every recovered payload must be the true one.
        let ids: Vec<u64> = (0..universe as u64).map(|i| i * 31 + 5).collect();
        let mut full = RecodeBuffer::<Bytes>::new();
        let mut lean = RecodeBuffer::<()>::new();
        let mut reference = ReferenceCascade::default();
        for (step, (picks, seed_known)) in packets.into_iter().enumerate() {
            let components: Vec<u64> = picks.iter().map(|&p| ids[p % universe]).collect();
            let (mut full_got, mut lean_got) = (Vec::new(), Vec::new());
            let mut payloads_ok = true;
            let mut check = |id: u64, p: &Bytes| {
                payloads_ok &= p.to_vec() == truth(id);
                full_got.push(id);
            };
            let (a, b, expect) = if seed_known {
                let id = components[0];
                (
                    full.add_known(id, Bytes::from(truth(id)), &mut check),
                    lean.add_known(id, (), |id, ()| lean_got.push(id)),
                    reference.add_known(id),
                )
            } else {
                (
                    full.receive(&components, Bytes::from(blend(&components)), &mut check),
                    lean.receive(&components, (), |id, ()| lean_got.push(id)),
                    reference.receive(&components),
                )
            };
            prop_assert!(payloads_ok, "wrong payload recovered at step {}", step);
            prop_assert_eq!(a, expect.len(), "count at step {}", step);
            prop_assert_eq!(b, expect.len(), "count at step {}", step);
            prop_assert_eq!(&full_got, &expect, "recoveries at step {}", step);
            prop_assert_eq!(&lean_got, &expect, "recoveries at step {}", step);
            for buf_known in [full.known_since(0), lean.known_since(0)] {
                prop_assert_eq!(buf_known, &reference.arrivals[..]);
            }
            prop_assert_eq!(full.known_count(), reference.known.len());
            prop_assert_eq!(lean.known_count(), reference.known.len());
            prop_assert_eq!(full.pending_count(), reference.pending_count());
            prop_assert_eq!(lean.pending_count(), reference.pending_count());
            prop_assert_eq!(full.redundant_count(), reference.redundant);
            prop_assert_eq!(lean.redundant_count(), reference.redundant);
        }
    }

    #[test]
    fn degree_one_recoded_is_the_symbol(payload in proptest::collection::vec(any::<u8>(), 0..64), id in any::<u64>()) {
        let mut buf = RecodeBuffer::<Bytes>::new();
        let mut got = Vec::new();
        buf.receive(&[id], Bytes::from(payload.clone()), |id, p| got.push((id, p.to_vec())));
        prop_assert_eq!(got.len(), 1);
        prop_assert_eq!(got[0].0, id);
        prop_assert_eq!(&got[0].1[..], &payload[..]);
    }
}
