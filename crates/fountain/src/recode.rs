//! Recoded content (§5.4.2).
//!
//! A **recoded symbol** is the XOR of a set of *encoded* symbols,
//! accompanied by the list of their ids. A partial sender — one that
//! cannot decode yet, so cannot run a fresh fountain — blends the symbols
//! it does hold so that a correlated receiver is unlikely to get pure
//! redundancy. Decoding recoded symbols uses the same substitution rule
//! as the base code, one level up: known encoded symbols are XORed out,
//! and a recoded symbol reduced to one unknown component yields that
//! encoded symbol (the paper's y₅/y₈/y₁₃ worked example is a unit test
//! below). The receiver's [`RecodeBuffer`] tracks each buffered symbol
//! the way the peeling decoder tracks an encoded one: a count of unknown
//! components and the XOR of their ids, not a list of them.
//!
//! Degree selection: with estimated containment `c` (fraction of the
//! sender's set the receiver already has), the probability that a
//! degree-`d` recoded symbol is *immediately* useful is
//! `P(d) = C(cn, d−1)·(1−c)n / C(n, d)`, maximized at
//! `d* ≈ c/(1−c) + 1`. (The paper's printed formula transposes `c` and
//! `1−c`; DESIGN.md documents the erratum and the derivation.) Because a
//! locally optimal degree risks total redundancy, the paper uses `d*` as
//! a *lower limit* and draws degrees between it and the cap; the
//! Recode/MW strategy instead scales an obliviously drawn degree by
//! `1/(1−c)`. Both policies are implemented and compared in the Figure
//! 5–8 experiments.

use std::collections::hash_map::Entry;

use bytes::Bytes;

use icd_util::hash::FastHashMap;
use icd_util::mem::{table_bytes, vec_bytes};
use icd_util::rng::{DistinctSampler, Rng64};
use icd_util::symbol::{SymbolBuf, SymbolPool};

use crate::block::SymbolId;
use crate::degree::DegreeDistribution;
use crate::encoder::EncodedSymbol;

/// The paper's recoding degree cap: "a degree limit of 50" (§6.1).
pub const PAPER_DEGREE_LIMIT: usize = 50;

/// A recoded symbol: XOR of the listed encoded symbols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecodedSymbol {
    /// Ids of the encoded symbols blended in, sorted and distinct.
    pub components: Vec<SymbolId>,
    /// XOR of the component payloads.
    pub payload: Bytes,
}

/// Degree-selection policy for a recoding sender.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecodePolicy {
    /// No correlation knowledge: draw from the capped base distribution
    /// (the paper's plain "Recode" strategy).
    Oblivious,
    /// Min-wise estimate available: scale a drawn degree `d` to
    /// `⌊d / (1−c)⌋`, subject to the cap ("Recode/MW", §6.2).
    MinwiseScaled {
        /// Estimated containment `c = |A∩B| / |B|`.
        containment: f64,
    },
    /// Degree drawn between the immediate-utility optimum `d*(c)` and the
    /// cap (§5.4.2's "lower limit" rule).
    LowerBounded {
        /// Estimated containment `c = |A∩B| / |B|`.
        containment: f64,
    },
}

/// The degree maximizing immediate usefulness:
/// `d* = ⌈(c·n + 1) / ((1−c)·n)⌉`, clamped to `[1, n]`.
#[must_use]
pub fn optimal_degree(n: usize, containment: f64) -> usize {
    assert!(n >= 1, "working set must be non-empty");
    let c = containment.clamp(0.0, 1.0);
    let nf = n as f64;
    let denom = (1.0 - c) * nf;
    if denom < 1.0 {
        // Receiver has (almost) everything we do; blend maximally.
        return n;
    }
    let d = ((c * nf + 1.0) / denom).ceil() as usize;
    d.clamp(1, n)
}

/// Probability that a degree-`d` recoded symbol over a working set of `n`
/// symbols with containment `c` immediately yields a new encoded symbol:
/// exactly `d−1` components known to the receiver and one unknown.
///
/// Computed in log space; exact hypergeometric term, no approximation.
#[must_use]
pub fn immediately_useful_probability(n: usize, containment: f64, d: usize) -> f64 {
    let c = containment.clamp(0.0, 1.0);
    let known = (c * n as f64).round() as usize;
    let unknown = n - known.min(n);
    if d == 0 || d > n || unknown == 0 || d - 1 > known {
        return 0.0;
    }
    // ln [ C(known, d-1) * unknown / C(n, d) ]
    let ln = ln_choose(known, d - 1) + (unknown as f64).ln() - ln_choose(n, d);
    ln.exp()
}

/// `ln C(m, k)` via the product form — exact enough for k ≤ cap (50).
fn ln_choose(m: usize, k: usize) -> f64 {
    if k > m {
        return f64::NEG_INFINITY;
    }
    let k = k.min(m - k);
    let mut acc = 0.0f64;
    for i in 0..k {
        acc += ((m - i) as f64).ln() - ((i + 1) as f64).ln();
    }
    acc
}

/// A recoding sender over a working set of encoded symbols.
///
/// Ids and payloads are stored as parallel arrays: component selection
/// touches only the dense id array (8 bytes per symbol, cache-resident
/// even at fig-5 working-set sizes), and payload memory is read only
/// when the symbols actually carry bytes — the §6.1 simulator runs with
/// empty payloads and never pulls them into cache at all.
#[derive(Debug, Clone)]
pub struct Recoder {
    ids: Vec<SymbolId>,
    /// All payloads packed word-aligned into one contiguous arena
    /// (`word_stride` words per symbol, tails zero-padded): recoding
    /// XORs whole words against whole words with no byte repacking, no
    /// per-symbol pointer chase, and hardware-prefetch-friendly layout.
    payload_words: Vec<u64>,
    word_stride: usize,
    payload_len: usize,
    distribution: DegreeDistribution,
    policy: RecodePolicy,
    cap: usize,
}

impl Recoder {
    /// Creates a recoder over `symbols` with degree cap `cap` (the paper
    /// uses [`PAPER_DEGREE_LIMIT`]) and the given policy.
    ///
    /// Panics if `symbols` is empty — a peer with nothing to send must
    /// not open a recoding session.
    #[must_use]
    pub fn new(symbols: Vec<EncodedSymbol>, cap: usize, policy: RecodePolicy) -> Self {
        assert!(!symbols.is_empty(), "recoder needs a non-empty working set");
        let payload_len = symbols[0].payload.len();
        let word_stride = payload_len.div_ceil(8);
        let mut ids = Vec::with_capacity(symbols.len());
        let mut payload_words = vec![0u64; symbols.len() * word_stride];
        let mut packer = SymbolBuf::zeroed(payload_len);
        for (i, sym) in symbols.into_iter().enumerate() {
            ids.push(sym.id);
            packer.copy_from_bytes(&sym.payload);
            payload_words[i * word_stride..(i + 1) * word_stride].copy_from_slice(packer.words());
        }
        Self::build(ids, payload_words, payload_len, cap, policy)
    }

    /// Creates a payload-less recoder straight from symbol ids — the
    /// simulator's form (§6.1 keeps payload bytes out of the simulation),
    /// which skips materializing `EncodedSymbol`s entirely.
    ///
    /// Panics if `ids` is empty, like [`Recoder::new`].
    #[must_use]
    pub fn from_ids(ids: Vec<SymbolId>, cap: usize, policy: RecodePolicy) -> Self {
        assert!(!ids.is_empty(), "recoder needs a non-empty working set");
        Self::build(ids, Vec::new(), 0, cap, policy)
    }

    fn build(
        ids: Vec<SymbolId>,
        payload_words: Vec<u64>,
        payload_len: usize,
        cap: usize,
        policy: RecodePolicy,
    ) -> Self {
        assert!(cap >= 1, "degree cap must be at least 1");
        let n = ids.len();
        let cap = cap.min(n);
        let distribution = DegreeDistribution::paper_default(n).capped(cap);
        Self {
            ids,
            payload_words,
            word_stride: payload_len.div_ceil(8),
            payload_len,
            distribution,
            policy,
            cap,
        }
    }

    /// Heap bytes behind this recoder, by capacity: the id array, the
    /// packed payload arena and the degree table.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        vec_bytes(&self.ids) + vec_bytes(&self.payload_words) + self.distribution.heap_bytes()
    }

    /// Draws the degree for the next symbol according to the policy.
    fn draw_degree<R: Rng64>(&self, rng: &mut R) -> usize {
        let base = self.distribution.sample(rng);
        let n = self.ids.len();
        match self.policy {
            RecodePolicy::Oblivious => base.min(self.cap),
            RecodePolicy::MinwiseScaled { containment } => {
                let c = containment.clamp(0.0, 0.999);
                // §6.2: degree ⌊d / (1−c)⌋, subject to the maximum degree.
                let scaled = ((base as f64) / (1.0 - c)).floor() as usize;
                scaled.clamp(1, self.cap)
            }
            RecodePolicy::LowerBounded { containment } => {
                let lo = optimal_degree(n, containment).min(self.cap);
                base.clamp(lo, self.cap)
            }
        }
    }

    /// Generates one recoded symbol.
    #[must_use]
    pub fn generate<R: Rng64>(&self, rng: &mut R) -> RecodedSymbol {
        let mut scratch = RecodeScratch::default();
        self.generate_into(rng, &mut scratch);
        RecodedSymbol {
            components: std::mem::take(&mut scratch.components),
            payload: Bytes::from_fill(scratch.payload.len(), |out| scratch.payload.write_to(out)),
        }
    }

    /// Generates one recoded symbol into reusable scratch — the
    /// allocation-free form of [`Recoder::generate`]. After the call
    /// `scratch.components` holds the sorted component ids and
    /// `scratch.payload` their XOR.
    pub fn generate_into<R: Rng64>(&self, rng: &mut R, scratch: &mut RecodeScratch) {
        let d = self.draw_degree(rng).min(self.ids.len()).max(1);
        scratch
            .sampler
            .sample_into(rng, self.ids.len(), d, &mut scratch.picks);
        // No need to order the picks: XOR commutes and the component ids
        // are sorted below — the output is identical either way.
        if scratch.payload.len() == self.payload_len {
            scratch.payload.clear();
        } else {
            scratch.payload = SymbolBuf::zeroed(self.payload_len);
        }
        scratch.components.clear();
        for &i in &scratch.picks {
            scratch.components.push(self.ids[i]);
        }
        if self.payload_len > 0 {
            let stride = self.word_stride;
            let arena = |i: usize| &self.payload_words[i * stride..(i + 1) * stride];
            // Several source streams per pass: overlapping cache misses,
            // not sequential ones, decide throughput at high degree.
            let picks = scratch.picks.iter();
            scratch.payload.xor_word_slices(picks.map(|&i| arena(i)));
        }
        scratch.components.sort_unstable();
    }
}

/// Reusable buffers for allocation-free recoded-symbol generation
/// ([`Recoder::generate_into`]).
#[derive(Debug, Clone, Default)]
pub struct RecodeScratch {
    /// Sorted component ids (valid after `generate_into` returns).
    pub components: Vec<SymbolId>,
    /// XOR of the component payloads (valid after `generate_into`).
    pub payload: SymbolBuf,
    picks: Vec<usize>,
    sampler: DistinctSampler,
}

/// Sentinel for "no node" in a [`WatcherArena`] chain.
const WATCH_NONE: u32 = u32::MAX;

/// Flat watcher index: which buffered pending symbols are waiting on
/// each unknown id.
///
/// The obvious representation — `FastHashMap<SymbolId, Vec<u32>>` — costs
/// a separate heap allocation per watched id (most lists hold one or two
/// slots) and 24 bytes of `Vec` header per map entry. At swarm scale
/// that dominated the buffers' footprint. This arena stores every
/// watcher as one 8-byte node in a single `Vec`, chained per id as an
/// intrusive linked list; the map holds just a `(head, tail)` pair.
/// Appending at the tail and walking from the head preserves the exact
/// FIFO order the `Vec` lists had, so cascade order — and with it every
/// golden outcome — is unchanged. Retired nodes go on a free stack and
/// are reused, keeping the arena sized by *concurrent* watchers, not
/// lifetime total.
#[derive(Debug, Clone, Default)]
struct WatcherArena {
    /// Per-id chain endpoints: id → (head node, tail node).
    lists: FastHashMap<SymbolId, (u32, u32)>,
    /// Node store: `(slot, next)` — the pending slot watching, and the
    /// next node in this id's chain ([`WATCH_NONE`] terminates).
    nodes: Vec<(u32, u32)>,
    /// Recycled node indices.
    free: Vec<u32>,
}

impl WatcherArena {
    /// Makes room for `ids` watched ids and as many nodes.
    fn reserve(&mut self, ids: usize) {
        self.lists.reserve(ids.saturating_sub(self.lists.len()));
        self.nodes.reserve(ids.saturating_sub(self.nodes.len()));
    }

    fn bytes(&self) -> usize {
        table_bytes(&self.lists) + vec_bytes(&self.nodes) + vec_bytes(&self.free)
    }

    /// Registers pending `slot` as watching `id` (appended in FIFO
    /// position, matching the historical per-id `Vec` push order).
    fn watch(&mut self, id: SymbolId, slot: u32) {
        let node = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = (slot, WATCH_NONE);
                i
            }
            None => {
                let i = u32::try_from(self.nodes.len()).expect("watcher arena overflow");
                self.nodes.push((slot, WATCH_NONE));
                i
            }
        };
        match self.lists.entry(id) {
            Entry::Occupied(mut e) => {
                let (_, tail) = *e.get();
                self.nodes[tail as usize].1 = node;
                e.get_mut().1 = node;
            }
            Entry::Vacant(e) => {
                e.insert((node, node));
            }
        }
    }

    /// Detaches `id`'s chain and returns its head ([`WATCH_NONE`] if
    /// nothing watches `id`). Walk it with [`WatcherArena::take_next`].
    fn start(&mut self, id: SymbolId) -> u32 {
        // Most resolutions happen with nothing pending at all; skip the
        // probe (and its cache miss) then.
        if self.lists.is_empty() {
            return WATCH_NONE;
        }
        match self.lists.remove(&id) {
            Some((head, _)) => head,
            None => WATCH_NONE,
        }
    }

    /// Consumes one node of a detached chain: recycles it and returns
    /// `(slot, next)`.
    fn take_next(&mut self, cur: u32) -> (u32, u32) {
        let (slot, next) = self.nodes[cur as usize];
        self.free.push(cur);
        (slot, next)
    }
}

/// What a [`RecodeBuffer`] stores for each known symbol, and how it
/// accumulates a pending recoded one.
///
/// The §6.1 simulation "keeps payload bytes out of the simulation while
/// the substitution *structure* stays exact": it runs the buffer over
/// `()`, so every payload operation compiles away and the known side
/// is an id list or an id set. The data plane runs the same buffer over
/// [`Bytes`]: a known symbol's payload is shared by reference count with
/// the working set or frame it came from, never copied, and only a
/// recoded symbol that still has unknown components is copied — once —
/// into a word-aligned [`SymbolBuf`] accumulator drawn from a
/// [`SymbolPool`]. The cascade is written once, in [`RecodeBuffer`], and
/// never branches on the payload type.
pub trait RecodePayload: Sized {
    /// A pending recoded symbol's running XOR.
    type Acc;

    /// Recycler for accumulators the buffer releases.
    type Pool: Clone + Default + std::fmt::Debug;

    /// Starts an accumulator from a recoded symbol's payload.
    fn load(pool: &mut Self::Pool, payload: &Self) -> Self::Acc;

    /// XORs a known payload into an accumulator.
    fn xor_in(acc: &mut Self::Acc, known: &Self);

    /// Turns an accumulator left with one unknown component into that
    /// symbol's payload, recycling the accumulator.
    fn freeze(pool: &mut Self::Pool, acc: Self::Acc) -> Self;

    /// Hands an accumulator the buffer no longer needs back to the pool.
    fn release(pool: &mut Self::Pool, acc: Self::Acc);
}

impl RecodePayload for () {
    type Acc = ();
    type Pool = ();

    #[inline]
    fn load((): &mut (), (): &()) {}

    #[inline]
    fn xor_in((): &mut (), (): &()) {}

    #[inline]
    fn freeze((): &mut (), (): ()) {}

    #[inline]
    fn release((): &mut (), (): ()) {}
}

impl RecodePayload for Bytes {
    type Acc = SymbolBuf;
    type Pool = SymbolPool;

    fn load(pool: &mut SymbolPool, payload: &Bytes) -> SymbolBuf {
        let mut acc = pool.acquire_for_overwrite(payload.len());
        acc.copy_from_bytes(payload);
        acc
    }

    fn xor_in(acc: &mut SymbolBuf, known: &Bytes) {
        acc.xor_bytes(known);
    }

    fn freeze(pool: &mut SymbolPool, acc: SymbolBuf) -> Bytes {
        let payload = Bytes::from_fill(acc.len(), |out| acc.write_to(out));
        pool.release(acc);
        payload
    }

    fn release(pool: &mut SymbolPool, acc: SymbolBuf) {
        pool.release(acc);
    }
}

/// Largest known set a [`RecodeBuffer`] indexes by scanning its arrival
/// list. A set this small fits in a few cache lines as a plain id list,
/// while a hash table over it costs a power-of-two bucket array plus
/// control bytes — about twice the list at the swarm's 69-id targets.
const SCAN_LIMIT: usize = 128;

/// Position of `id` in `ids`, if present. Compares eight ids per step
/// and branches once per step, not once per id: a lookup is a miss or a
/// hit at a random place, so per-id exits mispredict (≈25% faster on
/// 70-id lists than `position` alone, x86-64).
fn scan(ids: &[SymbolId], id: SymbolId) -> Option<usize> {
    const STEP: usize = 8;
    let mut chunks = ids.chunks_exact(STEP);
    let mut base = 0;
    for chunk in &mut chunks {
        if chunk.iter().fold(false, |hit, &known| hit | (known == id)) {
            return chunk
                .iter()
                .position(|&known| known == id)
                .map(|i| base + i);
        }
        base += STEP;
    }
    let rest = chunks.remainder();
    rest.iter().position(|&known| known == id).map(|i| base + i)
}

/// The known side of a [`RecodeBuffer`]: every known id in the order it
/// became known, and the index that answers membership and holds the
/// payloads.
#[derive(Debug, Clone)]
struct Known<P> {
    /// The known ids in the order they became known.
    arrivals: Vec<SymbolId>,
    index: KnownIndex<P>,
}

#[derive(Debug, Clone)]
enum KnownIndex<P> {
    /// At most [`SCAN_LIMIT`] ids: membership scans `arrivals`, and
    /// `payloads[i]` belongs to `arrivals[i]` (zero bytes for `()`).
    Scan(Vec<P>),
    /// Id → payload.
    Table(FastHashMap<SymbolId, P>),
}

impl<P> Known<P> {
    /// See [`RecodeBuffer::with_capacity`]; the table's ⅞ load factor
    /// already leaves the lists' headroom.
    fn with_capacity(expected: usize) -> Self {
        let slots = expected + expected / 8 + 2;
        let index = if expected <= SCAN_LIMIT {
            KnownIndex::Scan(Vec::with_capacity(slots))
        } else {
            KnownIndex::Table(FastHashMap::with_capacity_and_hasher(
                expected,
                Default::default(),
            ))
        };
        Self {
            arrivals: Vec::with_capacity(slots),
            index,
        }
    }

    fn get(&self, id: SymbolId) -> Option<&P> {
        match &self.index {
            KnownIndex::Scan(payloads) => scan(&self.arrivals, id).map(|i| &payloads[i]),
            KnownIndex::Table(table) => table.get(&id),
        }
    }

    /// Adds `id` with `payload` and returns the stored payload, or
    /// `None` (dropping `payload`) if `id` was already known.
    fn insert(&mut self, id: SymbolId, payload: P) -> Option<&P> {
        if matches!(self.index, KnownIndex::Scan(_)) {
            if scan(&self.arrivals, id).is_some() {
                return None;
            }
            if self.arrivals.len() == SCAN_LIMIT {
                self.promote();
            }
        }
        match &mut self.index {
            KnownIndex::Scan(payloads) => {
                self.arrivals.push(id);
                payloads.push(payload);
                payloads.last()
            }
            KnownIndex::Table(table) => match table.entry(id) {
                Entry::Occupied(_) => None,
                Entry::Vacant(slot) => {
                    self.arrivals.push(id);
                    Some(&*slot.insert(payload))
                }
            },
        }
    }

    /// Moves a scanned set into a table, once, as it grows past
    /// [`SCAN_LIMIT`]; a no-op for a table.
    fn promote(&mut self) {
        if let KnownIndex::Scan(payloads) = &mut self.index {
            let table = self
                .arrivals
                .iter()
                .copied()
                .zip(payloads.drain(..))
                .collect();
            self.index = KnownIndex::Table(table);
        }
    }

    fn bytes(&self) -> usize {
        vec_bytes(&self.arrivals)
            + match &self.index {
                KnownIndex::Scan(payloads) => vec_bytes(payloads),
                KnownIndex::Table(table) => table_bytes(table),
            }
    }
}

/// The substitution side of a [`RecodeBuffer`]: unresolved recoded
/// symbols and the index of who waits on which id. Only a buffer that
/// receives a symbol with two or more unknown components needs it, so
/// the buffer holds it boxed and allocates it on first use.
#[derive(Debug, Clone)]
struct Substitution<A> {
    /// Unresolved recoded symbols, slot-addressed by watchers. Slots are
    /// append-only and never reused: a resolved slot still has watcher
    /// nodes on its other components, and those must read `None` when
    /// their id resolves later rather than land in an unrelated symbol.
    pending: Vec<Option<PendingRecoded<A>>>,
    /// Number of `Some` slots in `pending`.
    pending_live: usize,
    watchers: WatcherArena,
    /// Unknown component ids of the symbol being received.
    unknown_ids: Vec<SymbolId>,
}

impl<A> Default for Substitution<A> {
    fn default() -> Self {
        Self {
            pending: Vec::new(),
            pending_live: 0,
            watchers: WatcherArena::default(),
            unknown_ids: Vec::new(),
        }
    }
}

impl<A> Substitution<A> {
    fn bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + vec_bytes(&self.pending)
            + self.watchers.bytes()
            + vec_bytes(&self.unknown_ids)
    }

    /// Buffers a symbol whose unknown components are `unknown_ids`
    /// (`unknown` of them, XOR `unknown_xor`), watching each of them.
    fn park(&mut self, unknown: usize, unknown_xor: SymbolId, acc: A) {
        let slot = u32::try_from(self.pending.len()).expect("pending overflow");
        for &id in &self.unknown_ids {
            self.watchers.watch(id, slot);
        }
        self.pending.push(Some(PendingRecoded {
            unknown: u32::try_from(unknown).expect("degree overflow"),
            unknown_xor,
            acc,
        }));
        self.pending_live += 1;
    }

    /// Substitutes the newly known `id` (payload `data`) into every
    /// symbol waiting on it, pushing each one left with a single
    /// unknown component onto `queue` as that symbol.
    fn substitute<P: RecodePayload<Acc = A>>(
        &mut self,
        id: SymbolId,
        data: &P,
        pool: &mut P::Pool,
        queue: &mut Vec<(SymbolId, P)>,
    ) {
        let mut cur = self.watchers.start(id);
        while cur != WATCH_NONE {
            let (slot, next) = self.watchers.take_next(cur);
            cur = next;
            // A chain is detached when its id resolves, so each node
            // fires once; a `None` slot was resolved through another of
            // its components.
            let entry = &mut self.pending[slot as usize];
            let Some(p) = entry.as_mut() else {
                continue;
            };
            p.unknown -= 1;
            p.unknown_xor ^= id;
            P::xor_in(&mut p.acc, data);
            if p.unknown == 1 {
                if let Some(p) = entry.take() {
                    self.pending_live -= 1;
                    queue.push((p.unknown_xor, P::freeze(pool, p.acc)));
                }
            }
        }
    }
}

/// Receiver-side substitution buffer for recoded symbols.
///
/// Tracks which encoded symbols the receiver knows, buffers unresolved
/// recoded symbols, and cascades: a recovered encoded symbol may unlock
/// further recoded symbols, exactly like the base decoder's ripple but
/// one level up. Generic over the [`RecodePayload`] each entry carries:
/// `RecodeBuffer<()>` in the simulator, `RecodeBuffer<Bytes>` on the
/// data plane — one cascade, so the simulated substitution structure is
/// the real one.
///
/// A buffered recoded symbol is the lazy-release form the peeling
/// decoder uses: a count of still-unknown components and the XOR of
/// their ids, never a list. Each substitution is `count -= 1`,
/// `xor ^= id` and one payload XOR; once the count reaches 1 the XOR
/// *is* the remaining id. This holds for any multiset of components,
/// duplicates included, so it recovers exactly what a list of remaining
/// ids would, in the same order.
///
/// The known set has two layouts, picked from the size it is built for.
/// [`RecodeBuffer::with_capacity`] for at most 128 ids keeps no hash
/// table: membership is a linear scan of the arrival list it keeps
/// anyway, and payloads sit in a list parallel to it. A set that grows
/// past 128 ids moves into a table once. Larger sizes, and
/// [`RecodeBuffer::new`], start with the table. The layout is capacity
/// only: recoveries, their order and every count are the same in both.
/// The substitution side (pending symbols and their watchers) is
/// allocated on first use, so a buffer that is only ever sent encoded
/// symbols holds none of it.
///
/// Recoveries go to a caller-supplied sink, in recovery order, so a
/// caller that only counts them allocates nothing per packet. The
/// id-keyed tables hash through `icd_util`'s fast hasher: this buffer
/// sits on the per-packet path of every simulated transfer.
#[derive(Debug, Clone)]
pub struct RecodeBuffer<P: RecodePayload> {
    known: Known<P>,
    /// Recoded symbols that arrived fully known (pure redundancy).
    redundant: u64,
    pool: P::Pool,
    /// Reusable cascade stack (empty between calls).
    queue: Vec<(SymbolId, P)>,
    substitution: Option<Box<Substitution<P::Acc>>>,
}

#[derive(Debug, Clone)]
struct PendingRecoded<A> {
    /// Components not yet known; at least 2 while the slot is pending.
    unknown: u32,
    /// XOR of the unknown component ids — the last one once `unknown`
    /// is 1.
    unknown_xor: SymbolId,
    /// XOR of the payload and every component known so far.
    acc: A,
}

impl<P: RecodePayload> Default for RecodeBuffer<P> {
    fn default() -> Self {
        Self {
            known: Known {
                arrivals: Vec::new(),
                index: KnownIndex::Table(FastHashMap::default()),
            },
            redundant: 0,
            pool: P::Pool::default(),
            queue: Vec::new(),
            substitution: None,
        }
    }
}

impl<P: RecodePayload> RecodeBuffer<P> {
    /// Creates an empty buffer whose known set is a hash table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a buffer whose known side is sized for roughly
    /// `expected_known` symbols, so it never pays a mid-transfer rehash
    /// or doubling: a scanned arrival list at 128 ids or fewer, a
    /// pre-sized table above. The arrival list gets an eighth more room,
    /// plus two, for a transfer that overshoots. The substitution side
    /// starts empty: only recoded symbols with two or more unknown
    /// components land there, so a receiver behind recoding links sizes
    /// it with [`RecodeBuffer::reserve_substitution`] before their first
    /// packet.
    #[must_use]
    pub fn with_capacity(expected_known: usize) -> Self {
        Self {
            known: Known::with_capacity(expected_known),
            ..Self::default()
        }
    }

    /// Sizes the substitution side for a transfer toward roughly
    /// `expected_known` symbols: room for `expected_known / 2` pending
    /// slots and watched ids. Capacity only — no outcome of
    /// [`RecodeBuffer::receive`] depends on it — and a no-op once the
    /// room is there.
    pub fn reserve_substitution(&mut self, expected_known: usize) {
        let want = expected_known / 2;
        let side = self.substitution.get_or_insert_with(Box::default);
        side.pending
            .reserve(want.saturating_sub(side.pending.len()));
        side.watchers.reserve(want);
    }

    /// Heap bytes of the known side (the arrival list, the table or
    /// scanned payload list over it, and the stack every insertion
    /// cascades through), by capacity. Payloads a `RecodeBuffer<Bytes>`
    /// shares by reference count are not counted.
    #[must_use]
    pub fn known_bytes(&self) -> usize {
        self.known.bytes() + vec_bytes(&self.queue)
    }

    /// Heap bytes of the substitution side (its box, pending slots, the
    /// watcher index and the unknown-component scratch), by capacity:
    /// zero until a symbol with two or more unknown components arrives
    /// or the side is reserved. Accumulator payloads are not counted.
    #[must_use]
    pub fn substitution_bytes(&self) -> usize {
        self.substitution.as_ref().map_or(0, |side| side.bytes())
    }

    /// Seeds the buffer with a symbol the receiver already holds,
    /// cascading through pending recoded symbols. Symbols the cascade
    /// recovers go to `recovered`; the seed itself does not (the caller
    /// evidently has it). Returns the number recovered.
    pub fn add_known(
        &mut self,
        id: SymbolId,
        payload: P,
        recovered: impl FnMut(SymbolId, &P),
    ) -> usize {
        self.resolve(id, payload, false, recovered)
    }

    /// Whether an encoded symbol id is known.
    #[must_use]
    pub fn knows(&self, id: SymbolId) -> bool {
        self.known.get(id).is_some()
    }

    /// The payload held for known symbol `id`.
    #[must_use]
    pub fn known_payload(&self, id: SymbolId) -> Option<&P> {
        self.known.get(id)
    }

    /// The recycler pending symbols' accumulators are drawn from.
    #[must_use]
    pub fn pool(&self) -> &P::Pool {
        &self.pool
    }

    /// Number of known encoded symbols.
    #[must_use]
    pub fn known_count(&self) -> usize {
        self.known.arrivals.len()
    }

    /// The ids that became known after the first `count`, in the order
    /// they became known — what a holder gained since it last looked.
    #[must_use]
    pub fn known_since(&self, count: usize) -> &[SymbolId] {
        let arrivals = &self.known.arrivals;
        &arrivals[count.min(arrivals.len())..]
    }

    /// Unresolved recoded symbols currently buffered.
    #[must_use]
    pub fn pending_count(&self) -> usize {
        self.substitution
            .as_ref()
            .map_or(0, |side| side.pending_live)
    }

    /// Recoded symbols that arrived with every component already known.
    #[must_use]
    pub fn redundant_count(&self) -> u64 {
        self.redundant
    }

    /// Whether the known set is held as a scanned list.
    #[cfg(test)]
    fn scans(&self) -> bool {
        matches!(self.known.index, KnownIndex::Scan(_))
    }

    /// Receives a recoded symbol given by its component ids and payload
    /// (a plain encoded symbol is the degree-1 case). Every symbol it
    /// recovers — none when buffered or redundant, several via cascade —
    /// goes to `recovered`. Returns the number recovered.
    ///
    /// A degree-1 symbol's payload is kept as given: it becomes the
    /// known payload without passing through an accumulator.
    pub fn receive(
        &mut self,
        components: &[SymbolId],
        payload: P,
        recovered: impl FnMut(SymbolId, &P),
    ) -> usize {
        assert!(!components.is_empty(), "recoded symbol with no components");
        let (id, payload) = if let [id] = components {
            if self.knows(*id) {
                self.redundant += 1;
                return 0;
            }
            (*id, payload)
        } else {
            let mut acc = P::load(&mut self.pool, &payload);
            let mut unknown_ids = self.substitution.as_deref_mut().map(|side| {
                side.unknown_ids.clear();
                &mut side.unknown_ids
            });
            let (mut unknown, mut unknown_xor) = (0, 0);
            for &id in components {
                match self.known.get(id) {
                    Some(known) => P::xor_in(&mut acc, known),
                    None => {
                        unknown += 1;
                        unknown_xor ^= id;
                        if let Some(ids) = unknown_ids.as_deref_mut() {
                            ids.push(id);
                        }
                    }
                }
            }
            match unknown {
                0 => {
                    self.redundant += 1;
                    P::release(&mut self.pool, acc);
                    return 0;
                }
                1 => (unknown_xor, P::freeze(&mut self.pool, acc)),
                _ => {
                    let fresh = self.substitution.is_none();
                    let side = self.substitution.get_or_insert_with(Box::default);
                    if fresh {
                        // The side did not exist to collect this first
                        // buffered symbol's unknown ids.
                        let known = &self.known;
                        let ids = components.iter().copied();
                        side.unknown_ids
                            .extend(ids.filter(|&id| known.get(id).is_none()));
                    }
                    side.park(unknown, unknown_xor, acc);
                    return 0;
                }
            }
        };
        self.resolve(id, payload, true, recovered)
    }

    /// Marks `id` known with `payload` and cascades, returning the number
    /// of recoveries handed to `recovered`. `report_seed` says whether
    /// the seed itself counts (true when it arrived inside a recoded
    /// symbol, false when the caller already held it); cascade
    /// recoveries always do.
    fn resolve(
        &mut self,
        id: SymbolId,
        payload: P,
        report_seed: bool,
        mut recovered: impl FnMut(SymbolId, &P),
    ) -> usize {
        let mut gained = 0;
        let mut queue = std::mem::take(&mut self.queue);
        queue.push((id, payload));
        let mut report = report_seed;
        while let Some((id, data)) = queue.pop() {
            let reported = std::mem::replace(&mut report, true);
            // `None`: two pending symbols of one cascade resolved to the
            // same id; the first to land is kept.
            let Some(data) = self.known.insert(id, data) else {
                continue;
            };
            if reported {
                gained += 1;
                recovered(id, data);
            }
            if let Some(side) = self.substitution.as_deref_mut() {
                side.substitute(id, data, &mut self.pool, &mut queue);
            }
        }
        self.queue = queue;
        gained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::{DecodeStatus, Decoder};
    use crate::encoder::Encoder;
    use icd_util::rng::{SplitMix64, Xoshiro256StarStar};
    use std::collections::HashMap;

    fn xor_into(dst: &mut [u8], src: &[u8]) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= s;
        }
    }

    fn sym(id: SymbolId, byte: u8) -> EncodedSymbol {
        EncodedSymbol {
            id,
            payload: Bytes::from(vec![byte; 4]),
        }
    }

    fn add_known(buf: &mut RecodeBuffer<Bytes>, sym: &EncodedSymbol) {
        buf.add_known(sym.id, sym.payload.clone(), |_, _| {});
    }

    /// Receives `rec`, collecting what it recovers as encoded symbols.
    fn receive(buf: &mut RecodeBuffer<Bytes>, rec: &RecodedSymbol) -> Vec<EncodedSymbol> {
        let mut out = Vec::new();
        buf.receive(&rec.components, rec.payload.clone(), |id, payload| {
            out.push(EncodedSymbol {
                id,
                payload: payload.clone(),
            });
        });
        out
    }

    #[test]
    fn paper_worked_example() {
        // §5.4.2: "a peer with output symbols y5, y8 and y13 can generate
        // recoded symbols z1 = y13, z2 = y5 ⊕ y8 and z3 = y5 ⊕ y13. A
        // peer that receives z1, z2 and z3 can immediately recover y13.
        // Then by substituting y13 into z3, the peer can recover y5, and
        // similarly, can recover y8 from z2."
        let y5 = sym(5, 0x50);
        let y8 = sym(8, 0x80);
        let y13 = sym(13, 0xD0);
        let z1 = RecodedSymbol {
            components: vec![13],
            payload: y13.payload.clone(),
        };
        let mut z2p = y5.payload.to_vec();
        xor_into(&mut z2p, &y8.payload);
        let z2 = RecodedSymbol {
            components: vec![5, 8],
            payload: Bytes::from(z2p),
        };
        let mut z3p = y5.payload.to_vec();
        xor_into(&mut z3p, &y13.payload);
        let z3 = RecodedSymbol {
            components: vec![5, 13],
            payload: Bytes::from(z3p),
        };

        let mut buf = RecodeBuffer::new();
        assert!(receive(&mut buf, &z2).is_empty(), "z2 buffered");
        assert!(receive(&mut buf, &z3).is_empty(), "z3 buffered");
        // z1 recovers y13 → z3 yields y5 → z2 yields y8.
        let got = receive(&mut buf, &z1);
        let ids: std::collections::HashSet<SymbolId> = got.iter().map(|s| s.id).collect();
        assert_eq!(ids, [13u64, 5, 8].into_iter().collect());
        let by_id: HashMap<SymbolId, &EncodedSymbol> = got.iter().map(|s| (s.id, s)).collect();
        assert_eq!(by_id[&5].payload, y5.payload);
        assert_eq!(by_id[&8].payload, y8.payload);
        assert_eq!(by_id[&13].payload, y13.payload);
    }

    #[test]
    fn known_payloads_are_shared_not_copied() {
        // A held payload and a degree-1 arrival (a view into a larger
        // frame) are stored as given; only a recoded symbol that still
        // has unknown components draws an accumulator from the pool.
        let mut buf = RecodeBuffer::<Bytes>::new();
        let held = Bytes::from(vec![1u8; 64]);
        buf.add_known(1, held.clone(), |_, _| {});
        let frame = Bytes::from(vec![2u8; 80]);
        let arriving = frame.slice(16..);
        assert_eq!(buf.receive(&[2], arriving.clone(), |_, _| {}), 1);
        assert_eq!(
            buf.known_payload(1).map(|p| p.as_ptr()),
            Some(held.as_ptr())
        );
        assert_eq!(
            buf.known_payload(2).map(|p| p.as_ptr()),
            Some(arriving.as_ptr())
        );
        assert_eq!(buf.pool().stats().allocated, 0);
        assert_eq!(
            buf.receive(&[1, 3], Bytes::from(vec![3u8; 64]), |_, _| {}),
            1
        );
        assert_eq!(
            buf.known_payload(3).map(|p| p.to_vec()),
            Some(vec![2u8; 64])
        );
        assert_eq!(buf.pool().stats().allocated, 1);
        assert_eq!(buf.pool().stats().released, 1);
    }

    #[test]
    fn fully_known_recoded_symbol_is_redundant() {
        let mut buf = RecodeBuffer::new();
        let a = sym(1, 1);
        let b = sym(2, 2);
        add_known(&mut buf, &a);
        add_known(&mut buf, &b);
        let mut p = a.payload.to_vec();
        xor_into(&mut p, &b.payload);
        let rec = RecodedSymbol {
            components: vec![1, 2],
            payload: Bytes::from(p),
        };
        assert!(receive(&mut buf, &rec).is_empty());
        assert_eq!(buf.redundant_count(), 1);
    }

    #[test]
    fn recovered_payloads_match_originals() {
        // End-to-end: sender working set → recoded stream → receiver
        // recovers symbols byte-identical to the sender's.
        let mut rng = Xoshiro256StarStar::new(1);
        let data: Vec<u8> = (0..5000).map(|i| (i % 256) as u8).collect();
        let enc = Encoder::for_content(&data, 100, 2);
        let sender_set: Vec<EncodedSymbol> = enc.stream(10).take(60).collect();
        let originals: HashMap<SymbolId, Bytes> = sender_set
            .iter()
            .map(|s| (s.id, s.payload.clone()))
            .collect();
        let recoder = Recoder::new(sender_set.clone(), 10, RecodePolicy::Oblivious);
        let mut buf = RecodeBuffer::new();
        // Receiver knows half the sender's set already.
        for s in &sender_set[..30] {
            add_known(&mut buf, s);
        }
        let mut recovered = 0usize;
        for _ in 0..2000 {
            let rec = recoder.generate(&mut rng);
            for got in receive(&mut buf, &rec) {
                assert_eq!(
                    got.payload, originals[&got.id],
                    "payload corrupted for {}",
                    got.id
                );
                recovered += 1;
            }
            if buf.known_count() == sender_set.len() {
                break;
            }
        }
        assert_eq!(
            buf.known_count(),
            sender_set.len(),
            "receiver should learn the full working set (recovered {recovered})"
        );
    }

    #[test]
    fn recode_then_decode_end_to_end() {
        // Receiver decodes the *file* using only recoded symbols from a
        // partial sender plus its own partial set.
        let data: Vec<u8> = SplitMix64::new(3)
            .next_u64()
            .to_le_bytes()
            .iter()
            .cycle()
            .take(3000)
            .copied()
            .collect();
        let enc = Encoder::for_content(&data, 50, 4);
        let n = enc.spec().num_blocks();
        // Sender holds 2n distinct symbols (ample for peeling at this
        // small n, where overhead variance is large); receiver starts
        // with 0.4n of them.
        let universe: Vec<EncodedSymbol> = enc.stream(20).take(n * 2).collect();
        let receiver_start = &universe[..(2 * n / 5)];
        let mut decoder = Decoder::new(enc.spec().clone());
        let mut buf = RecodeBuffer::new();
        for s in receiver_start {
            add_known(&mut buf, s);
            let _ = decoder.receive(s);
        }
        let recoder = Recoder::new(universe.clone(), 25, RecodePolicy::Oblivious);
        let mut rng = Xoshiro256StarStar::new(5);
        let mut done = decoder.is_complete();
        let mut iterations = 0;
        while !done {
            iterations += 1;
            assert!(iterations < 100_000, "recode transfer failed to converge");
            let rec = recoder.generate(&mut rng);
            for got in receive(&mut buf, &rec) {
                if matches!(decoder.receive(&got), DecodeStatus::Complete) {
                    done = true;
                }
            }
        }
        assert_eq!(decoder.into_content(data.len()).expect("complete"), data);
    }

    #[test]
    fn reserving_the_substitution_side_changes_no_outcome() {
        // Capacity only: a buffer that reserved, one that did not, and a
        // bare `new()` one see the same recoveries in the same order.
        let mut plain = RecodeBuffer::<()>::with_capacity(150);
        let mut reserved = RecodeBuffer::<()>::with_capacity(150);
        reserved.reserve_substitution(150);
        assert_eq!(plain.substitution_bytes(), 0);
        assert!(reserved.substitution_bytes() > 0);
        let mut bare = RecodeBuffer::<()>::new();
        let mut rng = Xoshiro256StarStar::new(9);
        let mut buffers = [&mut plain, &mut reserved, &mut bare];
        for id in 0..40 {
            for buf in &mut buffers {
                buf.add_known(id, (), |_, ()| {});
            }
        }
        let mut components = Vec::new();
        for _ in 0..2_000 {
            let degree = 1 + rng.index(6);
            components.clear();
            components.extend(
                rng.sample_distinct(200, degree)
                    .into_iter()
                    .map(|i| i as SymbolId),
            );
            let outcomes: Vec<(usize, Vec<SymbolId>)> = buffers
                .iter_mut()
                .map(|buf| {
                    let mut got = Vec::new();
                    let n = buf.receive(&components, (), |id, ()| got.push(id));
                    (n, got)
                })
                .collect();
            assert!(
                outcomes.windows(2).all(|w| w[0] == w[1]),
                "{components:?}: {outcomes:?}"
            );
        }
        let arrivals: Vec<&[SymbolId]> = buffers.iter().map(|b| b.known_since(0)).collect();
        assert!(arrivals.windows(2).all(|w| w[0] == w[1]));
        assert!(
            arrivals[0].len() > 100,
            "the stream must exercise the cascade"
        );
        let counts: Vec<(usize, u64)> = buffers
            .iter()
            .map(|b| (b.pending_count(), b.redundant_count()))
            .collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    /// Feeds one random stream to a buffer built for a scanned set (it
    /// scans until the set passes `SCAN_LIMIT`, then promotes), one
    /// pre-sized as a table and one bare `new()` table, and checks that
    /// every outcome agrees: recoveries in order, arrival order, pending
    /// and redundant counts, and each known payload. `payload` builds a
    /// symbol's payload from its components.
    fn layouts_agree<P>(payload: impl Fn(&[SymbolId]) -> P)
    where
        P: RecodePayload + Clone + PartialEq + std::fmt::Debug,
    {
        let mut scan = RecodeBuffer::<P>::with_capacity(SCAN_LIMIT);
        let mut table = RecodeBuffer::<P>::with_capacity(SCAN_LIMIT + 1);
        let mut bare = RecodeBuffer::<P>::new();
        assert!(scan.scans() && !table.scans() && !bare.scans());
        let mut buffers = [&mut scan, &mut table, &mut bare];
        for id in 0..20 {
            for buf in &mut buffers {
                buf.add_known(id, payload(&[id]), |_, _| {});
            }
        }
        let universe = 3 * SCAN_LIMIT;
        let mut rng = Xoshiro256StarStar::new(12);
        let mut components = Vec::new();
        let mut scanned_packets = 0;
        for _ in 0..4_000 {
            let degree = 1 + rng.index(6);
            components.clear();
            let picks = rng.sample_distinct(universe, degree).into_iter();
            components.extend(picks.map(|i| i as SymbolId));
            scanned_packets += usize::from(buffers[0].scans());
            let outcomes: Vec<(usize, Vec<(SymbolId, P)>)> = buffers
                .iter_mut()
                .map(|buf| {
                    let mut got = Vec::new();
                    let n = buf.receive(&components, payload(&components), |id, p| {
                        got.push((id, p.clone()));
                    });
                    (n, got)
                })
                .collect();
            assert!(
                outcomes.windows(2).all(|w| w[0] == w[1]),
                "{components:?}: {outcomes:?}"
            );
            for (id, p) in &outcomes[0].1 {
                assert_eq!(*p, payload(&[*id]), "recovered {id} with a wrong payload");
            }
        }
        assert!(
            scanned_packets > 100,
            "the stream must run in the scanned layout"
        );
        assert!(
            !buffers[0].scans(),
            "the scanned set must promote mid-stream"
        );
        let arrivals: Vec<&[SymbolId]> = buffers.iter().map(|b| b.known_since(0)).collect();
        assert!(arrivals.windows(2).all(|w| w[0] == w[1]));
        assert!(
            arrivals[0].len() > 2 * SCAN_LIMIT,
            "the stream must exercise the cascade"
        );
        for &id in arrivals[0] {
            let held: Vec<Option<&P>> = buffers.iter().map(|b| b.known_payload(id)).collect();
            assert!(held.windows(2).all(|w| w[0] == w[1]), "payload of {id}");
        }
        let counts: Vec<(usize, u64)> = buffers
            .iter()
            .map(|b| (b.pending_count(), b.redundant_count()))
            .collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    #[test]
    fn scanned_and_table_known_sets_agree() {
        layouts_agree(|_| ());
        // A symbol's payload is its id's bytes; a recoded one carries
        // the XOR of its components'.
        layouts_agree(|components| {
            let mut out = [0u8; 8];
            for id in components {
                xor_into(&mut out, &id.to_le_bytes());
            }
            Bytes::from(out.to_vec())
        });
    }

    #[test]
    fn optimal_degree_matches_brute_force() {
        let n = 1000;
        for &c in &[0.0, 0.1, 0.3, 0.5, 0.7, 0.9] {
            let d_star = optimal_degree(n, c);
            let p_star = immediately_useful_probability(n, c, d_star);
            // Brute force over a window.
            let (best_d, best_p) = (1..=60)
                .map(|d| (d, immediately_useful_probability(n, c, d)))
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
                .expect("non-empty");
            assert!(
                p_star >= best_p * 0.999 || (d_star as i64 - best_d as i64).abs() <= 1,
                "c={c}: d*={d_star} (p={p_star:.5}) vs brute {best_d} (p={best_p:.5})"
            );
        }
    }

    #[test]
    fn optimal_degree_grows_with_containment() {
        let n = 1000;
        assert_eq!(optimal_degree(n, 0.0), 1);
        let seq: Vec<usize> = [0.0, 0.5, 0.8, 0.9, 0.95]
            .iter()
            .map(|&c| optimal_degree(n, c))
            .collect();
        assert!(seq.windows(2).all(|w| w[0] <= w[1]), "{seq:?}");
        assert!(optimal_degree(n, 0.9) >= 9);
        assert_eq!(
            optimal_degree(10, 1.0),
            10,
            "full containment blends everything"
        );
    }

    #[test]
    fn useful_probability_sane() {
        // c=0: degree 1 is always immediately useful.
        assert!((immediately_useful_probability(100, 0.0, 1) - 1.0).abs() < 1e-9);
        // c=0: degree 2 can never be (two unknowns).
        assert_eq!(immediately_useful_probability(100, 0.0, 2), 0.0);
        // Full containment: nothing new can emerge.
        assert_eq!(immediately_useful_probability(100, 1.0, 5), 0.0);
        // Probabilities bounded.
        for d in 1..=50 {
            let p = immediately_useful_probability(200, 0.6, d);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn minwise_scaling_raises_degrees() {
        let symbols: Vec<EncodedSymbol> = (0..200).map(|i| sym(i, i as u8)).collect();
        let mut rng = Xoshiro256StarStar::new(6);
        let oblivious = Recoder::new(symbols.clone(), 50, RecodePolicy::Oblivious);
        let scaled = Recoder::new(
            symbols,
            50,
            RecodePolicy::MinwiseScaled { containment: 0.5 },
        );
        let avg = |r: &Recoder, rng: &mut Xoshiro256StarStar| {
            (0..500)
                .map(|_| r.generate(rng).components.len())
                .sum::<usize>() as f64
                / 500.0
        };
        let a = avg(&oblivious, &mut rng);
        let b = avg(&scaled, &mut rng);
        assert!(b > a * 1.3, "scaled avg degree {b} vs oblivious {a}");
    }

    #[test]
    fn lower_bounded_policy_enforces_floor() {
        let symbols: Vec<EncodedSymbol> = (0..500).map(|i| sym(i, i as u8)).collect();
        let c = 0.9;
        let lo = optimal_degree(500, c);
        let r = Recoder::new(symbols, 50, RecodePolicy::LowerBounded { containment: c });
        let mut rng = Xoshiro256StarStar::new(7);
        for _ in 0..500 {
            let d = r.generate(&mut rng).components.len();
            assert!(d >= lo && d <= 50, "degree {d} outside [{lo}, 50]");
        }
    }

    #[test]
    fn components_are_sorted_distinct_members() {
        let symbols: Vec<EncodedSymbol> = (0..100).map(|i| sym(i * 3, i as u8)).collect();
        let ids: std::collections::HashSet<SymbolId> = symbols.iter().map(|s| s.id).collect();
        let r = Recoder::new(symbols, 20, RecodePolicy::Oblivious);
        let mut rng = Xoshiro256StarStar::new(8);
        for _ in 0..200 {
            let rec = r.generate(&mut rng);
            assert!(rec.components.windows(2).all(|w| w[0] < w[1]));
            assert!(rec.components.iter().all(|id| ids.contains(id)));
            assert!(!rec.components.is_empty() && rec.components.len() <= 20);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty working set")]
    fn empty_working_set_rejected() {
        let _ = Recoder::new(vec![], 10, RecodePolicy::Oblivious);
    }

    #[test]
    #[should_panic(expected = "no components")]
    fn empty_recoded_symbol_rejected() {
        let mut buf = RecodeBuffer::<()>::new();
        let _ = buf.receive(&[], (), |_, _| {});
    }
}
