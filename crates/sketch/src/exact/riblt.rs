//! Rateless invertible Bloom lookup tables: exact reconciliation in O(d).
//!
//! An IBLT cell holds `(count, XOR of keys, XOR of key checksums)`
//! (Eppstein et al., "What's the Difference?", SIGCOMM 2011). Subtract
//! the cells two peers built over the same indices and every shared key
//! cancels; a cell left with count ±1 and a checksum matching its key
//! XOR is *pure* and yields one key of the symmetric difference, which
//! is then removed from its other cells — the same ripple the fountain
//! decoder runs over its `(count, XOR of unknown ids)` pairs.
//!
//! The *rateless* variant (Yang, Gilad and Alizadeh, "Practical Rateless
//! Set Reconciliation", SIGCOMM 2024, <https://arxiv.org/abs/2402.02668>)
//! gives the cell sequence no end: every key lands in cell 0, and in
//! cell i with probability 1/(1 + i/2), so any prefix of the sequence is
//! a valid table and ≈ 1.35–1.7·d cells of it peel a difference of d.
//! [`Encoder`] produces a set's cells one at a time; [`Peeler`] takes a
//! peer's cells one at a time and peels as they arrive. Each side does
//! O(ln m) cell updates per key for a prefix of m cells — no field
//! arithmetic and no term in d beyond the prefix itself.
//!
//! The summary digest ships a fixed prefix sized from the estimated
//! difference (`prefix_len`); the cost harness streams cells until the
//! peel completes, which measures the smallest prefix that peels.

use icd_util::hash::{hash64, mix64};

use crate::summary::codec::{FrameReader, FrameWriter};
use crate::summary::SummaryError;

/// Bytes one cell takes on the wire: a u32 count and two u64 XORs.
pub(crate) const CELL_BYTES: usize = 20;

/// Seed namespacing the key checksum (protocol constant).
const CHECK_SEED: u64 = 0x5249_424C_5443_484B; // "RIBLTCHK"

/// Cells per estimated difference in a one-shot prefix. A difference of
/// d peels from ≈ 1.4·d cells on average, so about 3 cells per estimated
/// element cover a true difference of up to twice the estimate — the
/// headroom a min-wise estimate needs (`tests/riblt_threshold.rs`).
const PREFIX_PER_DELTA: f64 = 3.0;

/// Flat cells added to every one-shot prefix: small differences need
/// relatively more cells than large ones (the hardest estimate, d̂ ≈ 15,
/// still peels ≥ 99 % of the time at d = 2·d̂).
const PREFIX_SLACK: usize = 32;

/// One-shot prefix length for an estimated symmetric difference d̂:
/// ⌈`PREFIX_PER_DELTA`·d̂⌉ + `PREFIX_SLACK` cells.
#[must_use]
pub(crate) fn prefix_len(expected_delta: usize) -> usize {
    (PREFIX_PER_DELTA * expected_delta as f64).ceil() as usize + PREFIX_SLACK
}

/// Expected number of cells a key touches in a prefix of `m` cells:
/// Σ_{i<m} 1/(1 + i/2) = 2·(H_{m+1} − 1), in closed form so cost
/// advisors stay O(1). About 9.3 at m = 150 and 13.3 at m = 1 500.
#[must_use]
pub(crate) fn cells_per_key(m: usize) -> f64 {
    let n = m as f64 + 1.0;
    // H_n ≈ ln n + γ + 1/(2n) − 1/(12n²).
    2.0 * (n.ln() + 0.577_215_664_9 + 0.5 / n - 1.0 / (12.0 * n * n) - 1.0)
}

fn checksum(key: u64) -> u64 {
    hash64(key, CHECK_SEED)
}

/// One coded cell. Counts are signed: a peeler's cells hold its own set
/// minus the peer's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cell {
    count: i64,
    key: u64,
    check: u64,
}

impl Cell {
    fn add(&mut self, walk: &Walk) {
        self.count += walk.sign;
        self.key ^= walk.key;
        self.check ^= walk.check;
    }

    fn subtract(&mut self, other: &Cell) {
        self.count -= other.count;
        self.key ^= other.key;
        self.check ^= other.check;
    }

    fn is_pure(&self) -> bool {
        self.count.abs() == 1 && checksum(self.key) == self.check
    }

    fn is_empty(&self) -> bool {
        *self == Cell::default()
    }

    /// Writes the wire form: count (u32), key XOR, checksum XOR. Only
    /// encoder cells are sent, and their counts are set sizes, so they fit.
    pub(crate) fn write(&self, w: &mut FrameWriter) {
        w.u32(u32::try_from(self.count).unwrap_or(u32::MAX));
        w.u64(self.key);
        w.u64(self.check);
    }

    /// Reads one wire cell.
    pub(crate) fn read(r: &mut FrameReader<'_>) -> Result<Self, SummaryError> {
        Ok(Self {
            count: i64::from(r.u32()?),
            key: r.u64()?,
            check: r.u64()?,
        })
    }
}

/// A key's walk through the cell indices it lands in, drawn from a PRNG
/// seeded by the key's checksum so both peers walk it identically.
#[derive(Debug, Clone, Copy)]
struct Walk {
    next: usize,
    key: u64,
    check: u64,
    state: u64,
    sign: i64,
}

impl Walk {
    fn new(key: u64, sign: i64) -> Self {
        let check = checksum(key);
        Self {
            next: 0,
            key,
            check,
            state: check,
            sign,
        }
    }

    /// Steps to the next index. Given the last index ℓ, P(skip past j)
    /// = Π_{ℓ<k≤j} (1 − 1/(1 + k/2)) = (ℓ+1)(ℓ+2)/((j+1)(j+2)); with
    /// u uniform on (0, 1] the inverse CDF is next = ℓ + ⌈(ℓ + 1.5)·(1/√u − 1)⌉.
    fn advance(&mut self) {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        // 1/√u with u = (r + 1)/2^64.
        let inv_sqrt_u = 4_294_967_296.0 / (mix64(self.state) as f64 + 1.0).sqrt();
        let step = ((self.next as f64 + 1.5) * (inv_sqrt_u - 1.0))
            .ceil()
            .max(1.0);
        self.next = self.next.saturating_add(step as usize);
    }
}

/// A set's rateless cell stream: cell 0, 1, 2, … one per call. Cells
/// are coded ahead in doubling prefixes: every key's walk stops at the
/// first index past the prefix and resumes when it grows, so the
/// resumption costs one pass over the walks per doubling.
#[derive(Debug, Clone)]
pub struct Encoder {
    walks: Vec<Walk>,
    cells: Vec<Cell>,
    sent: usize,
}

impl Encoder {
    /// Codes `keys` (duplicates count once).
    #[must_use]
    pub fn new(keys: &[u64]) -> Self {
        Self::distinct(&sorted_distinct(keys))
    }

    fn distinct(keys: &[u64]) -> Self {
        Self {
            walks: keys.iter().map(|&key| Walk::new(key, 1)).collect(),
            cells: Vec::new(),
            sent: 0,
        }
    }

    /// Codes the prefix up to `len` cells.
    fn extend(&mut self, len: usize) {
        let Self { walks, cells, .. } = self;
        cells.resize(len.max(cells.len()), Cell::default());
        for walk in walks {
            while walk.next < cells.len() {
                cells[walk.next].add(walk);
                walk.advance();
            }
        }
    }

    /// The next cell of the stream.
    pub fn next_cell(&mut self) -> Cell {
        if self.sent == self.cells.len() {
            self.extend((2 * self.sent).max(64));
        }
        self.sent += 1;
        self.cells[self.sent - 1]
    }
}

/// The first `m` cells of `keys`' stream (duplicates count once).
pub(crate) fn prefix(keys: &[u64], m: usize) -> Vec<Cell> {
    let mut encoder = Encoder::new(keys);
    encoder.extend(m);
    encoder.cells
}

fn sorted_distinct(keys: &[u64]) -> Vec<u64> {
    let mut keys = keys.to_vec();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// The receiving side: codes its own set, subtracts each peer cell as it
/// arrives, and peels.
#[derive(Debug, Clone)]
pub struct Peeler {
    /// The local set, sorted and distinct.
    local: Vec<u64>,
    /// The local set's stream, plus every recovered key walked with the
    /// sign that cancels it. The cells it has sent also have the peer's
    /// cells subtracted; the rest wait for them.
    coded: Encoder,
    /// Recovered keys with count +1: held locally, absent at the peer.
    found: Vec<u64>,
    peels: usize,
    /// Set when the peels would outnumber the cells received. An honest
    /// peer cannot cause that, since every honest peel empties a cell
    /// that stays empty; the cap bounds the work a forged body can force.
    stuck: bool,
}

impl Peeler {
    /// A peeler for the local set `local` (duplicates count once).
    #[must_use]
    pub fn new(local: &[u64]) -> Self {
        let local = sorted_distinct(local);
        let coded = Encoder::distinct(&local);
        Self {
            local,
            coded,
            found: Vec::new(),
            peels: 0,
            stuck: false,
        }
    }

    /// Takes the peer's next cell and peels whatever it frees.
    pub fn push(&mut self, remote: &Cell) {
        let index = self.coded.sent;
        let mut cell = self.coded.next_cell();
        cell.subtract(remote);
        self.coded.cells[index] = cell;
        let received = index + 1;
        let mut pending = vec![index];
        while let Some(i) = pending.pop() {
            let cell = self.coded.cells[i];
            if self.stuck || !cell.is_pure() {
                continue;
            }
            if self.peels == received {
                self.stuck = true;
                continue;
            }
            self.peels += 1;
            if cell.count == 1 {
                self.found.push(cell.key);
            }
            let mut walk = Walk::new(cell.key, -cell.count);
            while walk.next < self.coded.cells.len() {
                self.coded.cells[walk.next].add(&walk);
                if walk.next < received {
                    pending.push(walk.next);
                }
                walk.advance();
            }
            self.coded.walks.push(walk);
        }
    }

    /// Whether the whole difference has been peeled. Cell 0 holds every
    /// key, so it is empty exactly when nothing is left (up to a 2⁻⁶⁴
    /// checksum collision).
    #[must_use]
    pub fn is_done(&self) -> bool {
        !self.stuck && self.coded.sent > 0 && self.coded.cells[0].is_empty()
    }

    /// Cells received so far.
    #[must_use]
    pub fn cells_received(&self) -> usize {
        self.coded.sent
    }

    /// The local keys the peer lacks, sorted and distinct — or nothing
    /// when the cells received did not peel completely.
    #[must_use]
    pub fn missing_at_peer(mut self) -> Vec<u64> {
        if !self.is_done() {
            return Vec::new();
        }
        // A forged cell can peel a key that was never local.
        self.found.retain(|k| self.local.binary_search(k).is_ok());
        self.found.sort_unstable();
        self.found.dedup();
        self.found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icd_util::rng::{Rng64, Xoshiro256StarStar};

    fn keys(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = Xoshiro256StarStar::new(seed);
        (0..n).map(|_| rng.next_u64()).collect()
    }

    #[test]
    fn walks_hit_cell_i_with_probability_about_one_over_one_plus_half_i() {
        // The ceiling step approximates (ℓ+1)(ℓ+2) by (ℓ+1.5)², which
        // reads cell 1 at ≈ 0.64 instead of 2/3; further out the
        // approximation vanishes.
        let m = 64;
        let n = 20_000;
        let mut hits = vec![0usize; m];
        for key in keys(n, 1) {
            let mut walk = Walk::new(key, 1);
            while walk.next < m {
                hits[walk.next] += 1;
                walk.advance();
            }
        }
        assert_eq!(hits[0], n, "every key lands in cell 0");
        for (i, &h) in hits.iter().enumerate() {
            let p = 1.0 / (1.0 + i as f64 / 2.0);
            let sd = (n as f64 * p * (1.0 - p)).sqrt();
            let slack = 0.05 * n as f64 * p + 5.0 * sd;
            assert!((h as f64 - n as f64 * p).abs() <= slack, "cell {i}: {h}");
        }
        let mean = hits.iter().sum::<usize>() as f64 / n as f64;
        let expect = cells_per_key(m);
        assert!((mean - expect).abs() < 0.02 * expect, "{mean} vs {expect}");
    }

    #[test]
    fn cells_per_key_matches_the_sum() {
        for m in [1usize, 2, 10, 150, 1_500] {
            let exact: f64 = (0..m).map(|i| 2.0 / (i as f64 + 2.0)).sum();
            assert!((cells_per_key(m) - exact).abs() < 0.01, "m = {m}");
        }
    }

    #[test]
    fn peeling_recovers_both_directions_and_reports_the_local_one() {
        let shared = keys(300, 2);
        let local_only = keys(25, 3);
        let remote_only = keys(15, 4);
        let local: Vec<u64> = shared.iter().chain(&local_only).copied().collect();
        let remote: Vec<u64> = shared.iter().chain(&remote_only).copied().collect();
        let mut encoder = Encoder::new(&remote);
        let mut peeler = Peeler::new(&local);
        while !peeler.is_done() {
            peeler.push(&encoder.next_cell());
        }
        assert!(
            peeler.cells_received() <= 200,
            "{}",
            peeler.cells_received()
        );
        assert_eq!(peeler.missing_at_peer(), sorted_distinct(&local_only));
    }

    #[test]
    fn identical_sets_peel_from_one_cell() {
        let set = keys(100, 5);
        let mut peeler = Peeler::new(&set);
        peeler.push(&Encoder::new(&set).next_cell());
        assert!(peeler.is_done());
        assert!(peeler.missing_at_peer().is_empty());
    }

    #[test]
    fn a_short_prefix_yields_nothing() {
        let local = keys(200, 6);
        let mut encoder = Encoder::new(&[]);
        let mut peeler = Peeler::new(&local);
        for _ in 0..10 {
            peeler.push(&encoder.next_cell());
        }
        assert!(!peeler.is_done());
        assert!(peeler.missing_at_peer().is_empty());
    }

    #[test]
    fn wire_cells_roundtrip() {
        let mut encoder = Encoder::new(&keys(50, 7));
        for _ in 0..8 {
            let cell = encoder.next_cell();
            let mut w = FrameWriter::new();
            cell.write(&mut w);
            let body = w.finish();
            assert_eq!(body.len(), CELL_BYTES);
            assert_eq!(Cell::read(&mut FrameReader::new(&body)), Ok(cell));
        }
    }
}
