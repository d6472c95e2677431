//! The collapsed hashed trie underlying an approximate reconciliation
//! tree.
//!
//! Nodes live in an arena (`Vec`-indexed) — no `Rc`/`RefCell`, no
//! recursion-depth hazards on adversarial inputs. A tree is built in one
//! batch (`from_keys`, O(n log n)) over the ids of one exchange: ART
//! digests are sized per exchange, so no peer keeps a tree live between
//! exchanges.

use icd_util::hash::hash64;

/// Protocol-level parameters shared by all peers building comparable
/// trees. Like the min-wise permutation family, these are "fixed
/// universally off-line": two trees are only comparable if their params
/// match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArtParams {
    /// Seed for the position hash (tree balancing, §5.3's first hash).
    pub position_seed: u64,
    /// Seed for the value hash (spatial decorrelation, §5.3's second
    /// hash into `[1, h)`).
    pub value_seed: u64,
}

impl Default for ArtParams {
    fn default() -> Self {
        Self {
            position_seed: 0x4152_545F_504F_5331, // "ART_POS1"
            value_seed: 0x4152_545F_5641_4C31,    // "ART_VAL1"
        }
    }
}

impl ArtParams {
    /// Position of a key: a uniform 64-bit string; the trie is built on
    /// its bits, most-significant first.
    #[inline]
    #[must_use]
    pub(crate) fn position(&self, key: u64) -> u64 {
        hash64(key, self.position_seed)
    }

    /// Value of a key: the per-element hash whose XORs label tree nodes.
    /// Zero is remapped so values lie in `[1, 2^64)` per the paper (an
    /// all-zero XOR would then only arise from genuinely empty content or
    /// an even multiset, never from a single element).
    #[inline]
    #[must_use]
    pub(crate) fn value(&self, key: u64) -> u64 {
        let v = hash64(key, self.value_seed);
        if v == 0 {
            1
        } else {
            v
        }
    }
}

/// Arena index of a node.
pub(crate) type NodeId = u32;

#[derive(Debug, Clone)]
pub(crate) enum Node {
    /// A leaf holds exactly one position (w.h.p. one key; collisions in
    /// the 64-bit position space would share a leaf, preserving
    /// correctness of node values).
    Leaf { value: u64, keys: Vec<u64> },
    /// An internal node splits on the first position bit its keys
    /// disagree on: left subtree has the bit clear, right subtree set.
    /// `value` is the XOR of both children.
    Internal {
        value: u64,
        left: NodeId,
        right: NodeId,
    },
}

impl Node {
    #[inline]
    pub(crate) fn value(&self) -> u64 {
        match self {
            Node::Leaf { value, .. } | Node::Internal { value, .. } => *value,
        }
    }
}

/// A peer's reconciliation tree over its working-set keys.
#[derive(Debug, Clone)]
pub struct ReconciliationTree {
    params: ArtParams,
    nodes: Vec<Node>,
    root: Option<NodeId>,
    len: usize,
}

impl ReconciliationTree {
    /// Builds a tree over `keys` (duplicates are ignored).
    #[must_use]
    pub fn from_keys<I: IntoIterator<Item = u64>>(params: ArtParams, keys: I) -> Self {
        let mut items: Vec<(u64, u64)> =
            keys.into_iter().map(|k| (params.position(k), k)).collect();
        items.sort_unstable();
        items.dedup_by_key(|(p, k)| (*p, *k));
        // Drop duplicate keys (same position AND key).
        let mut tree = Self {
            params,
            nodes: Vec::new(),
            root: None,
            len: 0,
        };
        if items.is_empty() {
            return tree;
        }
        tree.len = items.len();
        let root = tree.build_range(&items, 0);
        tree.root = Some(root);
        tree
    }

    /// Recursive batch construction over a position-sorted slice.
    /// `depth` is the next bit to examine (0 = MSB). Single-child chains
    /// are collapsed by advancing `depth` without creating nodes.
    fn build_range(&mut self, items: &[(u64, u64)], mut depth: u32) -> NodeId {
        debug_assert!(!items.is_empty());
        // All same position → leaf (holds all colliding keys).
        if items.first().map(|(p, _)| p) == items.last().map(|(p, _)| p) {
            let keys: Vec<u64> = items.iter().map(|&(_, k)| k).collect();
            let value = keys.iter().fold(0u64, |acc, &k| acc ^ self.params.value(k));
            return self.push(Node::Leaf { value, keys });
        }
        // Find the first bit where the slice splits (collapse equal
        // prefixes). Positions differ, so a split bit must exist.
        loop {
            debug_assert!(depth < 64, "identical positions cannot reach depth 64");
            let mask = 1u64 << (63 - depth);
            let first_set = items[0].0 & mask != 0;
            let last_set = items[items.len() - 1].0 & mask != 0;
            if first_set == last_set {
                depth += 1;
                continue;
            }
            // Sorted by position ⇒ split point is where the bit flips.
            let split = items.partition_point(|&(p, _)| p & mask == 0);
            let left = self.build_range(&items[..split], depth + 1);
            let right = self.build_range(&items[split..], depth + 1);
            let value = self.nodes[left as usize].value() ^ self.nodes[right as usize].value();
            return self.push(Node::Internal { value, left, right });
        }
    }

    fn push(&mut self, node: Node) -> NodeId {
        let id = u32::try_from(self.nodes.len()).expect("tree exceeds u32 arena");
        self.nodes.push(node);
        id
    }

    /// Number of distinct keys in the tree.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the tree holds no keys.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Root value — equal for two trees iff they hold identical sets
    /// (up to the negligible XOR-collision probability). This is the O(1)
    /// "are we identical?" test.
    #[must_use]
    pub fn root_value(&self) -> Option<u64> {
        self.root.map(|r| self.nodes[r as usize].value())
    }

    pub(crate) fn root(&self) -> Option<NodeId> {
        self.root
    }

    pub(crate) fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id as usize]
    }

    /// Visits every live node value, distinguishing internal from leaf —
    /// the input to summary construction.
    pub(crate) fn visit_values<F: FnMut(u64, bool)>(&self, mut f: F) {
        let Some(root) = self.root else { return };
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            match &self.nodes[id as usize] {
                Node::Leaf { value, .. } => f(*value, true),
                Node::Internal {
                    value, left, right, ..
                } => {
                    f(*value, false);
                    stack.push(*left);
                    stack.push(*right);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icd_util::rng::{Rng64, Xoshiro256StarStar};

    impl ReconciliationTree {
        /// Maximum root-to-leaf depth (collapsed) — O(log n) w.h.p.
        pub(crate) fn depth(&self) -> usize {
            fn depth_of(tree: &ReconciliationTree, id: NodeId) -> usize {
                match tree.node(id) {
                    Node::Leaf { .. } => 1,
                    Node::Internal { left, right, .. } => {
                        1 + depth_of(tree, *left).max(depth_of(tree, *right))
                    }
                }
            }
            self.root.map_or(0, |r| depth_of(self, r))
        }
    }

    fn keys(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = Xoshiro256StarStar::new(seed);
        (0..n).map(|_| rng.next_u64()).collect()
    }

    #[test]
    fn empty_tree() {
        let t = ReconciliationTree::from_keys(ArtParams::default(), []);
        assert!(t.is_empty());
        assert_eq!(t.root_value(), None);
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn single_key() {
        let params = ArtParams::default();
        let t = ReconciliationTree::from_keys(params, [42u64]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.root_value(), Some(params.value(42)));
        assert_eq!(t.depth(), 1);
    }

    #[test]
    fn root_value_is_xor_of_element_values() {
        let params = ArtParams::default();
        let ks = keys(500, 1);
        let t = ReconciliationTree::from_keys(params, ks.iter().copied());
        let expect = ks.iter().fold(0u64, |acc, &k| acc ^ params.value(k));
        assert_eq!(t.root_value(), Some(expect));
    }

    #[test]
    fn identical_sets_identical_roots() {
        let params = ArtParams::default();
        let ks = keys(300, 2);
        let a = ReconciliationTree::from_keys(params, ks.iter().copied());
        let mut shuffled = ks.clone();
        Xoshiro256StarStar::new(9).shuffle(&mut shuffled);
        let b = ReconciliationTree::from_keys(params, shuffled);
        assert_eq!(a.root_value(), b.root_value());
    }

    #[test]
    fn different_sets_different_roots() {
        let params = ArtParams::default();
        let ks = keys(300, 3);
        let a = ReconciliationTree::from_keys(params, ks.iter().copied());
        let b = ReconciliationTree::from_keys(params, ks[..299].iter().copied());
        assert_ne!(a.root_value(), b.root_value());
    }

    #[test]
    fn duplicates_ignored_in_batch() {
        let params = ArtParams::default();
        let mut ks = keys(100, 4);
        ks.extend(keys(100, 4)); // same again
        let t = ReconciliationTree::from_keys(params, ks);
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn depth_is_logarithmic() {
        let params = ArtParams::default();
        for n in [100usize, 1000, 10_000] {
            let t = ReconciliationTree::from_keys(params, keys(n, 7));
            let bound = 4 * (n as f64).log2().ceil() as usize + 8;
            assert!(
                t.depth() <= bound,
                "depth {} exceeds O(log n) bound {bound} at n={n}",
                t.depth()
            );
        }
    }

    #[test]
    fn subset_relation_visible_in_values() {
        // Removing one key changes the root by exactly that key's value.
        let params = ArtParams::default();
        let ks = keys(50, 10);
        let full = ReconciliationTree::from_keys(params, ks.iter().copied());
        let partial = ReconciliationTree::from_keys(params, ks[1..].iter().copied());
        assert_eq!(
            full.root_value().unwrap() ^ partial.root_value().unwrap(),
            params.value(ks[0])
        );
    }
}
