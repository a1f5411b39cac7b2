//! CART decision tree classifier (Gini impurity, numeric features), and
//! the node-range split engine that every tree learner in this crate —
//! [`DecisionTree`], [`RandomForest`](crate::RandomForest) and
//! [`GradientBoosting`](crate::GradientBoosting) — grows its trees on.
//!
//! `Presort` copies the features column-major and sorts each feature's
//! `(value, sample index)` order once per fit (a forest shares one across
//! all its trees). `NodeRanges` lays every feature's order, plus one
//! segment in ascending sample order, out in one flat `u32` array; a node
//! owns the range `lo..hi` of every segment. A split marks its samples
//! left or right once, then stably partitions each segment in place
//! through one scratch buffer, so no node allocates and no node sorts.

use crate::{Classifier, Dataset};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of a [`DecisionTree`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTreeParams {
    /// Maximum tree depth (`None` = grow until pure).
    pub max_depth: Option<usize>,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples every leaf must keep.
    pub min_samples_leaf: usize,
    /// Features considered per split (`None` = all); random forests pass
    /// `sqrt(dim)` here.
    pub max_features: Option<usize>,
    /// Seed for the per-split feature subsampling.
    pub seed: u64,
}

impl Default for DecisionTreeParams {
    fn default() -> Self {
        DecisionTreeParams {
            max_depth: None,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: None,
            seed: 0,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf {
        class: usize,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Index of the left child in the node arena; right child is
        /// `left + 1` would not hold in general, so both are stored.
        left: usize,
        right: usize,
    },
}

/// CART decision tree classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    params: DecisionTreeParams,
    nodes: Vec<Node>,
    n_classes: usize,
    dim: usize,
}

/// A dataset's features, column-major, with every feature's sample order
/// sorted once: the shared, read-only half of the split engine.
pub(crate) struct Presort {
    n: usize,
    dim: usize,
    /// `values[f * n + i]` is feature `f` of sample `i`.
    values: Vec<f64>,
    /// `order[f * n..(f + 1) * n]` lists every sample in ascending
    /// `(feature f value, sample index)` order.
    order: Vec<u32>,
}

impl Presort {
    pub(crate) fn new(x: &[Vec<f64>]) -> Self {
        let n = x.len();
        let dim = x.first().map_or(0, Vec::len);
        let mut values = vec![0.0; n * dim];
        for (i, row) in x.iter().enumerate() {
            for (f, &v) in row.iter().enumerate() {
                values[f * n + i] = v;
            }
        }
        let mut order = Vec::with_capacity(n * dim);
        for col in values.chunks_exact(n.max(1)).take(dim) {
            let start = order.len();
            order.extend(0..n as u32);
            order[start..].sort_unstable_by(|&a, &b| {
                col[a as usize].total_cmp(&col[b as usize]).then(a.cmp(&b))
            });
        }
        Presort {
            n,
            dim,
            values,
            order,
        }
    }

    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// Feature `f` of every sample, indexed by sample.
    pub(crate) fn column(&self, f: usize) -> &[f64] {
        &self.values[f * self.n..(f + 1) * self.n]
    }
}

/// One tree's working orders: `dim + 1` segments of `len` samples in one
/// flat array (feature `f`'s order at `f * len`, ascending sample order
/// last). Every node is a range `lo..hi` of every segment.
pub(crate) struct NodeRanges {
    len: usize,
    idx: Vec<u32>,
    scratch: Vec<u32>,
    /// Side of the split being applied, indexed by sample.
    goes_left: Vec<bool>,
}

impl NodeRanges {
    /// Segments over the samples `keep` accepts, in presorted order.
    pub(crate) fn new(presort: &Presort, keep: impl Fn(usize) -> bool) -> Self {
        let n = presort.n;
        let mut idx = Vec::with_capacity((presort.dim + 1) * n);
        for f in 0..presort.dim {
            let order = &presort.order[f * n..(f + 1) * n];
            idx.extend(order.iter().filter(|&&i| keep(i as usize)));
        }
        idx.extend((0..n as u32).filter(|&i| keep(i as usize)));
        let len = idx.len() / (presort.dim + 1);
        NodeRanges {
            len,
            idx,
            scratch: Vec::with_capacity(len),
            goes_left: vec![false; n],
        }
    }

    /// Number of samples in the tree (the root node is `0..len()`).
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Node `lo..hi` in ascending order of feature `f`.
    pub(crate) fn feature(&self, f: usize, lo: usize, hi: usize) -> &[u32] {
        &self.idx[f * self.len + lo..f * self.len + hi]
    }

    /// Node `lo..hi` in ascending sample order.
    pub(crate) fn samples(&self, lo: usize, hi: usize) -> &[u32] {
        let base = self.idx.len() - self.len;
        &self.idx[base + lo..base + hi]
    }

    /// Split node `lo..hi`: in every segment the samples `left` accepts
    /// move to `lo..mid` and the rest to `mid..hi`, each side keeping its
    /// order. Returns `mid`.
    pub(crate) fn split(&mut self, lo: usize, hi: usize, left: impl Fn(usize) -> bool) -> usize {
        let NodeRanges {
            len,
            idx,
            scratch,
            goes_left,
        } = self;
        let base = idx.len() - *len;
        let mut n_left = 0;
        for &i in &idx[base + lo..base + hi] {
            let l = left(i as usize);
            goes_left[i as usize] = l;
            n_left += l as usize;
        }
        for segment in idx.chunks_exact_mut(*len) {
            let node = &mut segment[lo..hi];
            scratch.clear();
            let mut w = 0;
            for r in 0..node.len() {
                let i = node[r];
                if goes_left[i as usize] {
                    node[w] = i;
                    w += 1;
                } else {
                    scratch.push(i);
                }
            }
            node[w..].copy_from_slice(scratch);
        }
        lo + n_left
    }
}

fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts
        .iter()
        .map(|&c| {
            let p = c as f64 / t;
            p * p
        })
        .sum::<f64>()
}

/// Majority class of a node's class-count histogram (ties break to the
/// highest class index, as `max_by_key` keeps the last maximum).
fn majority_of(counts: &[usize]) -> usize {
    counts
        .iter()
        .enumerate()
        .max_by_key(|&(_, c)| c)
        .map(|(k, _)| k)
        .unwrap_or(0)
}

/// One CART fit on the split engine. Class counts are integers weighted
/// by each sample's multiplicity, so a bootstrap's duplicates never need
/// expanding: a Gini boundary only falls between distinct values, where
/// the counts — and so every impurity, threshold and leaf — are exactly
/// those of the expanded sample, whatever the order inside a run of ties.
struct CartBuilder<'a> {
    params: &'a DecisionTreeParams,
    presort: &'a Presort,
    y: &'a [usize],
    weight: &'a [usize],
    ranges: NodeRanges,
    rng: StdRng,
    nodes: Vec<Node>,
    /// Scan order of the node's candidate features.
    feats: Vec<usize>,
    /// The node's class counts, and both sides of a candidate boundary.
    counts: Vec<usize>,
    left: Vec<usize>,
    right: Vec<usize>,
}

impl CartBuilder<'_> {
    fn leaf(&mut self, class: usize) -> usize {
        self.nodes.push(Node::Leaf { class });
        self.nodes.len() - 1
    }

    fn build(&mut self, lo: usize, hi: usize, depth: usize) -> usize {
        self.counts.fill(0);
        for &i in self.ranges.samples(lo, hi) {
            self.counts[self.y[i as usize]] += self.weight[i as usize];
        }
        let total: usize = self.counts.iter().sum();
        let majority = majority_of(&self.counts);
        let pure = self.counts.iter().filter(|&&c| c > 0).count() <= 1;
        let depth_capped = self.params.max_depth.is_some_and(|d| depth >= d);
        if pure || depth_capped || total < self.params.min_samples_split {
            return self.leaf(majority);
        }

        // Feature subsample (random forests); all features otherwise.
        let dim = self.presort.dim();
        self.feats.clear();
        self.feats.extend(0..dim);
        if let Some(m) = self.params.max_features {
            self.feats.shuffle(&mut self.rng);
            self.feats.truncate(m.max(1).min(dim));
            self.feats.sort_unstable(); // deterministic scan order
        }

        // Note: like scikit-learn, zero-gain splits are accepted — greedy
        // Gini cannot see the XOR-style interactions that only pay off one
        // level deeper. Recursion still terminates because a found split
        // always separates distinct feature values.
        let Some((feature, threshold, gain_gini)) = self.best_split(lo, hi, total) else {
            return self.leaf(majority);
        };
        // Reject only splits that *worsen* impurity (possible with feature
        // subsampling on noisy nodes).
        if gain_gini > gini(&self.counts, total) + 1e-12 {
            return self.leaf(majority);
        }

        let col = self.presort.column(feature);
        let mid = self.ranges.split(lo, hi, |i| col[i] <= threshold);
        // Reserve this node's slot, then build children.
        let me = self.leaf(majority);
        let left = self.build(lo, mid, depth + 1);
        let right = self.build(mid, hi, depth + 1);
        self.nodes[me] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        me
    }

    /// Scan every candidate feature's boundaries in the node's presorted
    /// order; returns `(feature, threshold, weighted child Gini)`.
    fn best_split(&mut self, lo: usize, hi: usize, total: usize) -> Option<(usize, f64, f64)> {
        let min_leaf = self.params.min_samples_leaf;
        let mut best: Option<(usize, f64, f64)> = None;
        for &f in &self.feats {
            let col = self.presort.column(f);
            let order = self.ranges.feature(f, lo, hi);
            self.left.fill(0);
            self.right.copy_from_slice(&self.counts);
            let mut n_left = 0;
            for s in 1..order.len() {
                let prev = order[s - 1] as usize;
                let (label, w) = (self.y[prev], self.weight[prev]);
                self.left[label] += w;
                self.right[label] -= w;
                n_left += w;
                let v_prev = col[prev];
                let v_next = col[order[s] as usize];
                if v_next <= v_prev {
                    continue; // no threshold separates equal values
                }
                if n_left < min_leaf || total - n_left < min_leaf {
                    continue;
                }
                let g = (n_left as f64 * gini(&self.left, n_left)
                    + (total - n_left) as f64 * gini(&self.right, total - n_left))
                    / total as f64;
                let threshold = v_prev + (v_next - v_prev) / 2.0;
                let better = match best {
                    None => true,
                    Some((_, _, bg)) => g < bg - 1e-15,
                };
                if better {
                    best = Some((f, threshold, g));
                }
            }
        }
        best
    }
}

impl DecisionTree {
    /// New untrained tree with the given parameters.
    pub fn new(params: DecisionTreeParams) -> Self {
        DecisionTree {
            params,
            nodes: Vec::new(),
            n_classes: 0,
            dim: 0,
        }
    }

    /// New untrained tree with default parameters.
    pub fn with_defaults() -> Self {
        Self::new(DecisionTreeParams::default())
    }

    /// Number of nodes in the fitted tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the fitted tree (0 for a single leaf).
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], i: usize) -> usize {
            match &nodes[i] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + walk(nodes, *left).max(walk(nodes, *right)),
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            walk(&self.nodes, 0)
        }
    }

    /// Fit on the samples of `data` (presorted as `presort`), each counted
    /// `weight[i]` times; samples of weight 0 are left out. The tree is
    /// the one a plain fit on the expanded sample grows.
    pub(crate) fn fit_weighted(&mut self, data: &Dataset, presort: &Presort, weight: &[usize]) {
        self.n_classes = data.n_classes;
        self.dim = data.dim();
        let ranges = NodeRanges::new(presort, |i| weight[i] > 0);
        assert!(ranges.len() > 0, "cannot fit on an empty dataset");
        let root = ranges.len();
        let k = data.n_classes;
        let mut builder = CartBuilder {
            params: &self.params,
            presort,
            y: &data.y,
            weight,
            ranges,
            rng: StdRng::seed_from_u64(self.params.seed),
            nodes: Vec::new(),
            feats: Vec::with_capacity(presort.dim()),
            counts: vec![0; k],
            left: vec![0; k],
            right: vec![0; k],
        };
        builder.build(0, root, 0);
        self.nodes = builder.nodes;
    }
}

impl Classifier for DecisionTree {
    fn fit(&mut self, data: &Dataset) {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        self.fit_weighted(data, &Presort::new(&data.x), &vec![1; data.len()]);
    }

    fn predict_one(&self, x: &[f64]) -> usize {
        assert!(!self.nodes.is_empty(), "predict before fit");
        assert_eq!(x.len(), self.dim, "feature width mismatch");
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                Node::Leaf { class } => return *class,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if x[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "DT"
    }
}

/// The reference CART the engine replaced: every node re-sorts a
/// `(value, label)` scratch per feature. Test oracle only.
#[cfg(test)]
impl DecisionTree {
    pub(crate) fn fit_naive(&mut self, data: &Dataset) {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        self.nodes.clear();
        self.n_classes = data.n_classes;
        self.dim = data.dim();
        let indices: Vec<usize> = (0..data.len()).collect();
        let mut rng = StdRng::seed_from_u64(self.params.seed);
        let mut scratch = Vec::new();
        self.build_naive(data, &indices, 0, &mut rng, &mut scratch);
    }

    fn best_split_naive(
        &self,
        data: &Dataset,
        indices: &[usize],
        features: &[usize],
        scratch: &mut Vec<(f64, usize)>,
    ) -> Option<(usize, f64, f64)> {
        let n = indices.len();
        let min_leaf = self.params.min_samples_leaf;
        let mut best: Option<(usize, f64, f64)> = None;
        for &f in features {
            scratch.clear();
            scratch.extend(indices.iter().map(|&i| (data.x[i][f], data.y[i])));
            scratch.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));

            let mut left_counts = vec![0usize; data.n_classes];
            let mut right_counts = vec![0usize; data.n_classes];
            for &(_, label) in scratch.iter() {
                right_counts[label] += 1;
            }
            for split_at in 1..n {
                let (v_prev, label_prev) = scratch[split_at - 1];
                left_counts[label_prev] += 1;
                right_counts[label_prev] -= 1;
                let v_next = scratch[split_at].0;
                if v_next <= v_prev {
                    continue;
                }
                if split_at < min_leaf || n - split_at < min_leaf {
                    continue;
                }
                let g = (split_at as f64 * gini(&left_counts, split_at)
                    + (n - split_at) as f64 * gini(&right_counts, n - split_at))
                    / n as f64;
                let threshold = v_prev + (v_next - v_prev) / 2.0;
                let better = match best {
                    None => true,
                    Some((_, _, bg)) => g < bg - 1e-15,
                };
                if better {
                    best = Some((f, threshold, g));
                }
            }
        }
        best
    }

    fn build_naive(
        &mut self,
        data: &Dataset,
        indices: &[usize],
        depth: usize,
        rng: &mut StdRng,
        scratch: &mut Vec<(f64, usize)>,
    ) -> usize {
        let mut counts = vec![0usize; data.n_classes];
        for &i in indices {
            counts[data.y[i]] += 1;
        }
        let majority = majority_of(&counts);
        let pure = counts.iter().filter(|&&c| c > 0).count() <= 1;
        let depth_capped = self.params.max_depth.is_some_and(|d| depth >= d);
        if pure || depth_capped || indices.len() < self.params.min_samples_split {
            self.nodes.push(Node::Leaf { class: majority });
            return self.nodes.len() - 1;
        }

        let mut feats: Vec<usize> = (0..data.dim()).collect();
        if let Some(m) = self.params.max_features {
            feats.shuffle(rng);
            feats.truncate(m.max(1).min(data.dim()));
            feats.sort_unstable();
        }

        let Some((feature, threshold, gain_gini)) =
            self.best_split_naive(data, indices, &feats, scratch)
        else {
            self.nodes.push(Node::Leaf { class: majority });
            return self.nodes.len() - 1;
        };
        let parent_gini = gini(&counts, indices.len());
        if gain_gini > parent_gini + 1e-12 {
            self.nodes.push(Node::Leaf { class: majority });
            return self.nodes.len() - 1;
        }

        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
            .iter()
            .partition(|&&i| data.x[i][feature] <= threshold);

        let me = self.nodes.len();
        self.nodes.push(Node::Leaf { class: majority }); // placeholder
        let left = self.build_naive(data, &left_idx, depth + 1, rng, scratch);
        let right = self.build_naive(data, &right_idx, depth + 1, rng, scratch);
        self.nodes[me] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        me
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdata;

    fn xor_dataset() -> Dataset {
        // XOR with slight jitter: needs depth 2.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for (a, b, l) in [(0.0, 0.0, 0), (0.0, 1.0, 1), (1.0, 0.0, 1), (1.0, 1.0, 0)] {
            for j in 0..4 {
                let eps = j as f64 * 0.01;
                x.push(vec![a + eps, b - eps]);
                y.push(l);
            }
        }
        Dataset::new(x, y, 2)
    }

    #[test]
    fn learns_xor() {
        let data = xor_dataset();
        let mut t = DecisionTree::with_defaults();
        t.fit(&data);
        let preds = t.predict(&data.x);
        assert_eq!(preds, data.y);
        assert!(t.depth() >= 2);
    }

    #[test]
    fn max_depth_limits_tree() {
        let data = xor_dataset();
        let mut t = DecisionTree::new(DecisionTreeParams {
            max_depth: Some(1),
            ..Default::default()
        });
        t.fit(&data);
        assert!(t.depth() <= 1);
    }

    #[test]
    fn pure_dataset_yields_single_leaf() {
        let data = Dataset::new(vec![vec![1.0], vec![2.0], vec![3.0]], vec![1, 1, 1], 2);
        let mut t = DecisionTree::with_defaults();
        t.fit(&data);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict_one(&[99.0]), 1);
    }

    #[test]
    fn constant_features_yield_majority_leaf() {
        let data = Dataset::new(vec![vec![5.0], vec![5.0], vec![5.0]], vec![0, 1, 1], 2);
        let mut t = DecisionTree::with_defaults();
        t.fit(&data);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict_one(&[5.0]), 1);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let data = xor_dataset();
        let mut t = DecisionTree::new(DecisionTreeParams {
            min_samples_leaf: 8,
            ..Default::default()
        });
        t.fit(&data);
        // With 16 samples and min leaf 8 only one split is possible.
        assert!(t.depth() <= 1);
    }

    #[test]
    fn deterministic_with_feature_subsampling() {
        let data = xor_dataset();
        let params = DecisionTreeParams {
            max_features: Some(1),
            seed: 3,
            ..Default::default()
        };
        let mut a = DecisionTree::new(params.clone());
        let mut b = DecisionTree::new(params);
        a.fit(&data);
        b.fit(&data);
        assert_eq!(a, b);
    }

    #[test]
    fn separable_threshold_is_midpoint() {
        let data = Dataset::new(
            vec![vec![1.0], vec![2.0], vec![10.0], vec![11.0]],
            vec![0, 0, 1, 1],
            2,
        );
        let mut t = DecisionTree::with_defaults();
        t.fit(&data);
        assert_eq!(t.predict_one(&[5.9]), 0);
        assert_eq!(t.predict_one(&[6.1]), 1);
    }

    #[test]
    #[should_panic]
    fn predict_before_fit_panics() {
        DecisionTree::with_defaults().predict_one(&[1.0]);
    }

    #[test]
    fn split_keeps_every_segment_ordered() {
        let data = testdata::tied_dataset(40, 3, 1);
        let presort = Presort::new(&data.x);
        let mut ranges = NodeRanges::new(&presort, |i| i % 3 != 0);
        let n = ranges.len();
        let col = presort.column(4);
        let mid = ranges.split(0, n, |i| col[i] <= 0.0);
        for (lo, hi) in [(0, mid), (mid, n)] {
            let mut samples = ranges.samples(lo, hi).to_vec();
            assert!(samples.windows(2).all(|w| w[0] < w[1]));
            assert!(samples
                .iter()
                .all(|&i| i % 3 != 0 && (col[i as usize] <= 0.0) == (lo == 0)));
            samples.sort_unstable();
            for f in 0..presort.dim() {
                let order = ranges.feature(f, lo, hi);
                let v = presort.column(f);
                assert!(order.windows(2).all(|w| {
                    let (a, b) = (w[0] as usize, w[1] as usize);
                    v[a].total_cmp(&v[b]).then(a.cmp(&b)).is_lt()
                }));
                let mut members = order.to_vec();
                members.sort_unstable();
                assert_eq!(members, samples, "feature {f} segment holds other samples");
            }
        }
    }

    /// The engine must grow node-for-node identical trees (structure,
    /// thresholds, tie-breaks) to the naive per-node re-sorting search:
    /// equal under `PartialEq`, in predictions, and in the serialized
    /// bytes, which also tell `-0.0` from `0.0`.
    #[test]
    fn presorted_tree_identical_to_naive() {
        for (name, data) in testdata::datasets() {
            for params in [
                DecisionTreeParams::default(),
                DecisionTreeParams {
                    max_depth: Some(3),
                    ..Default::default()
                },
                DecisionTreeParams {
                    min_samples_leaf: 5,
                    min_samples_split: 12,
                    ..Default::default()
                },
                DecisionTreeParams {
                    max_features: Some(2),
                    seed: 42,
                    ..Default::default()
                },
            ] {
                let mut fast = DecisionTree::new(params.clone());
                let mut slow = DecisionTree::new(params.clone());
                fast.fit(&data);
                slow.fit_naive(&data);
                assert_eq!(fast, slow, "tree mismatch on {name} with {params:?}");
                assert_eq!(
                    serde_json::to_string(&fast).unwrap(),
                    serde_json::to_string(&slow).unwrap(),
                    "tree bytes differ on {name} with {params:?}"
                );
                assert_eq!(
                    fast.predict(&data.x),
                    slow.predict(&data.x),
                    "prediction mismatch on {name}"
                );
            }
        }
    }
}
