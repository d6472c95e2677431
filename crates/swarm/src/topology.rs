//! Seeded overlay topology generators.
//!
//! The paper's §6 transfers are hand-wired lines and fan-ins; a swarm
//! needs a *graph*. The three builders here cover the standard overlay
//! shapes of the follow-on CDN literature: sparse random graphs
//! (Erdős–Rényi `G(n, p)`), power-law degree distributions
//! (preferential attachment, the peer-to-peer reference shape), and
//! ring-plus-chords small worlds (guaranteed-connected baselines).
//!
//! Every builder is a pure function of `(kind, nodes, seed)` and emits a
//! normalized undirected edge list: no self-loops, no duplicate edges,
//! endpoints ordered `a < b`, edges sorted — the deterministic preset a
//! [`crate::Swarm`] turns into directed [`icd_overlay::net::Link`]s.

use icd_util::rng::{Rng64, Xoshiro256StarStar};

/// Which random-graph family to generate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologyKind {
    /// Erdős–Rényi `G(n, p)`: every unordered pair is an edge
    /// independently with probability `p`. Not guaranteed connected —
    /// swarms heal isolated incomplete nodes by re-attaching them.
    ErdosRenyi {
        /// Per-pair edge probability in `[0, 1]`.
        p: f64,
    },
    /// Preferential attachment (Barabási–Albert): a seed clique of
    /// `m + 1` nodes, then each new node attaches to `m` distinct
    /// existing nodes with degree-proportional probability. Connected by
    /// construction; degree distribution is power-law.
    PowerLaw {
        /// Edges each arriving node creates (≥ 1).
        m: usize,
    },
    /// A ring `0–1–…–(n−1)–0` plus `chords` random non-ring edges — the
    /// small-world baseline with exactly `n + chords` edges.
    RingChords {
        /// Extra random chords (capped by the number of available
        /// non-ring pairs).
        chords: usize,
    },
}

impl TopologyKind {
    /// Short label for experiment tables.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            TopologyKind::ErdosRenyi { p } => format!("ER(p={p})"),
            TopologyKind::PowerLaw { m } => format!("power-law(m={m})"),
            TopologyKind::RingChords { chords } => format!("ring+{chords}"),
        }
    }
}

/// A generated overlay graph: `nodes` peers and a normalized undirected
/// edge list (see the module docs for the invariants).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// Number of peers.
    pub nodes: usize,
    /// Undirected edges with `a < b`, sorted, duplicate-free.
    pub edges: Vec<(usize, usize)>,
}

impl Topology {
    /// Per-node neighbor lists (symmetric).
    #[must_use]
    pub fn adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.nodes];
        for &(a, b) in &self.edges {
            adj[a].push(b);
            adj[b].push(a);
        }
        adj
    }

    /// Whether every node can reach every other node.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        if self.nodes == 0 {
            return true;
        }
        let adj = self.adjacency();
        let mut seen = vec![false; self.nodes];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut visited = 1;
        while let Some(v) = stack.pop() {
            for &w in &adj[v] {
                if !seen[w] {
                    seen[w] = true;
                    visited += 1;
                    stack.push(w);
                }
            }
        }
        visited == self.nodes
    }

    fn normalize(nodes: usize, mut edges: Vec<(usize, usize)>) -> Self {
        for e in &mut edges {
            if e.0 > e.1 {
                *e = (e.1, e.0);
            }
            debug_assert!(e.0 < e.1 && e.1 < nodes, "malformed edge {e:?}");
        }
        edges.sort_unstable();
        edges.dedup();
        Self { nodes, edges }
    }
}

/// Salt separating topology RNG streams from everything else keyed by
/// the same experiment seed.
const TOPOLOGY_SEED_SALT: u64 = 0x5A71_D010;

/// Builds a deterministic topology of `nodes` peers. Panics on
/// parameters that cannot produce a well-formed graph (`p` outside
/// `[0, 1]`, `m == 0`, or a power-law/ring geometry with too few nodes).
#[must_use]
pub fn build_topology(kind: TopologyKind, nodes: usize, seed: u64) -> Topology {
    let mut rng = Xoshiro256StarStar::new(
        icd_util::hash::mix64(seed ^ TOPOLOGY_SEED_SALT),
    );
    match kind {
        TopologyKind::ErdosRenyi { p } => erdos_renyi(nodes, p, &mut rng),
        TopologyKind::PowerLaw { m } => power_law(nodes, m, &mut rng),
        TopologyKind::RingChords { chords } => ring_chords(nodes, chords, &mut rng),
    }
}

fn erdos_renyi(nodes: usize, p: f64, rng: &mut Xoshiro256StarStar) -> Topology {
    assert!((0.0..=1.0).contains(&p), "edge probability must be in [0, 1]");
    let mut edges = Vec::new();
    for a in 0..nodes {
        for b in (a + 1)..nodes {
            if rng.chance(p) {
                edges.push((a, b));
            }
        }
    }
    Topology::normalize(nodes, edges)
}

fn power_law(nodes: usize, m: usize, rng: &mut Xoshiro256StarStar) -> Topology {
    assert!(m >= 1, "preferential attachment needs m >= 1");
    let core = m + 1;
    assert!(nodes >= core, "need at least m + 1 nodes for the seed clique");
    let mut edges = Vec::new();
    // Degree-proportional sampling via the repeated-endpoints list:
    // every edge contributes both endpoints, so a uniform draw from the
    // list is a draw proportional to degree.
    let mut endpoints: Vec<usize> = Vec::with_capacity(2 * (core * (core - 1) / 2 + (nodes - core) * m));
    for a in 0..core {
        for b in (a + 1)..core {
            edges.push((a, b));
            endpoints.push(a);
            endpoints.push(b);
        }
    }
    let mut targets = Vec::with_capacity(m);
    for v in core..nodes {
        targets.clear();
        while targets.len() < m {
            let t = endpoints[rng.index(endpoints.len())];
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            edges.push((t, v));
            endpoints.push(t);
            endpoints.push(v);
        }
    }
    Topology::normalize(nodes, edges)
}

fn ring_chords(nodes: usize, chords: usize, rng: &mut Xoshiro256StarStar) -> Topology {
    assert!(nodes >= 3, "a ring needs at least 3 nodes");
    let mut edges: Vec<(usize, usize)> = (0..nodes).map(|i| (i, (i + 1) % nodes)).collect();
    // Chords are sampled from the non-ring pairs; cap the request at
    // what exists so the builder always terminates.
    let non_ring_pairs = nodes * (nodes - 1) / 2 - nodes;
    let chords = chords.min(non_ring_pairs);
    let mut have: icd_util::hash::FastHashSet<(usize, usize)> = edges
        .iter()
        .map(|&(a, b)| if a < b { (a, b) } else { (b, a) })
        .collect();
    let mut added = 0;
    while added < chords {
        let a = rng.index(nodes);
        let b = rng.index(nodes);
        if a == b {
            continue;
        }
        let e = if a < b { (a, b) } else { (b, a) };
        if have.insert(e) {
            edges.push(e);
            added += 1;
        }
    }
    Topology::normalize(nodes, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_law_edge_count_is_exact() {
        let t = build_topology(TopologyKind::PowerLaw { m: 2 }, 100, 7);
        // Seed clique C(3,2)=3 edges + 97 arrivals × 2.
        assert_eq!(t.edges.len(), 3 + 97 * 2);
        assert!(t.is_connected());
    }

    #[test]
    fn ring_chords_edge_count_is_exact() {
        let t = build_topology(TopologyKind::RingChords { chords: 12 }, 40, 9);
        assert_eq!(t.edges.len(), 40 + 12);
        assert!(t.is_connected());
    }

    #[test]
    fn ring_chords_caps_at_available_pairs() {
        // 4 nodes: 6 pairs, 4 on the ring → at most 2 chords.
        let t = build_topology(TopologyKind::RingChords { chords: 50 }, 4, 1);
        assert_eq!(t.edges.len(), 6);
    }

    #[test]
    fn erdos_renyi_tracks_expected_density() {
        let n = 120;
        let p = 0.1;
        let t = build_topology(TopologyKind::ErdosRenyi { p }, n, 3);
        let expected = p * (n * (n - 1) / 2) as f64;
        let got = t.edges.len() as f64;
        assert!(
            (got - expected).abs() < expected * 0.25,
            "got {got} edges, expected ≈{expected}"
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let kind = TopologyKind::PowerLaw { m: 3 };
        assert_eq!(build_topology(kind, 64, 5), build_topology(kind, 64, 5));
        assert_ne!(build_topology(kind, 64, 5), build_topology(kind, 64, 6));
    }

    #[test]
    fn power_law_grows_hubs() {
        let t = build_topology(TopologyKind::PowerLaw { m: 2 }, 400, 11);
        let degrees: Vec<usize> = t.adjacency().iter().map(Vec::len).collect();
        let max = *degrees.iter().max().expect("nonempty");
        let mean = degrees.iter().sum::<usize>() as f64 / degrees.len() as f64;
        assert!(
            max as f64 > mean * 4.0,
            "no hub emerged: max degree {max}, mean {mean:.1}"
        );
    }
}
