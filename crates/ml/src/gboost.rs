//! Gradient-boosted decision trees with the XGBoost formulation:
//! second-order (Newton) boosting on the multiclass softmax objective,
//! exact greedy split search, L2-regularized leaf weights.
//!
//! The paper's configuration (Section 5.1): learning rate 0.1, 100 rounds.

use crate::tree::{NodeRanges, Presort};
use crate::{Classifier, Dataset};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of [`GradientBoosting`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GradientBoostingParams {
    /// Boosting rounds (one tree per class per round).
    pub n_rounds: usize,
    /// Shrinkage applied to every leaf weight.
    pub learning_rate: f64,
    /// Maximum depth of each regression tree.
    pub max_depth: usize,
    /// L2 regularization on leaf weights (XGBoost's lambda).
    pub lambda: f64,
    /// Minimum loss reduction to keep a split (XGBoost's gamma).
    pub gamma: f64,
    /// Minimum hessian sum per child (XGBoost's min_child_weight).
    pub min_child_weight: f64,
}

impl Default for GradientBoostingParams {
    /// The paper's configuration: 100 rounds, learning rate 0.1.
    fn default() -> Self {
        GradientBoostingParams {
            n_rounds: 100,
            learning_rate: 0.1,
            max_depth: 6,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1.0,
        }
    }
}

/// One node of a regression tree, arena-indexed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum RegNode {
    Leaf {
        weight: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct RegTree {
    nodes: Vec<RegNode>,
}

impl RegTree {
    fn predict(&self, x: &[f64]) -> f64 {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                RegNode::Leaf { weight } => return *weight,
                RegNode::Split {
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
}

/// One regression tree's fit on the split engine. The `gl`/`hl` prefix
/// sums depend on summation order, so every node scans its samples in
/// the presorted `(value, sample index)` order and sums its gradients in
/// ascending sample order.
struct TreeBuilder<'a> {
    presort: &'a Presort,
    grad: &'a [f64],
    hess: &'a [f64],
    params: &'a GradientBoostingParams,
    ranges: NodeRanges,
    nodes: Vec<RegNode>,
}

impl TreeBuilder<'_> {
    fn leaf(&mut self, g: f64, h: f64) -> usize {
        let weight = leaf_weight(self.params, g, h);
        self.nodes.push(RegNode::Leaf { weight });
        self.nodes.len() - 1
    }

    fn build(&mut self, lo: usize, hi: usize, depth: usize) -> usize {
        let samples = self.ranges.samples(lo, hi);
        let g_sum: f64 = samples.iter().map(|&i| self.grad[i as usize]).sum();
        let h_sum: f64 = samples.iter().map(|&i| self.hess[i as usize]).sum();

        if depth >= self.params.max_depth || hi - lo < 2 {
            return self.leaf(g_sum, h_sum);
        }

        // Exact greedy split search over all features. Two cut-offs skip
        // only positions that could never pass the checks below: a
        // feature whose node values are all equal has no threshold, and
        // since every hessian is positive, `hl` never decreases, so once
        // `h_sum - hl` falls below `min_child_weight` it stays below.
        let parent = score(self.params, g_sum, h_sum);
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gain)
        for f in 0..self.presort.dim() {
            let col = self.presort.column(f);
            let order = self.ranges.feature(f, lo, hi);
            if col[order[order.len() - 1] as usize] <= col[order[0] as usize] {
                continue;
            }
            let mut gl = 0.0;
            let mut hl = 0.0;
            for s in 1..order.len() {
                let prev = order[s - 1] as usize;
                gl += self.grad[prev];
                hl += self.hess[prev];
                if h_sum - hl < self.params.min_child_weight {
                    break;
                }
                let v_prev = col[prev];
                let v_next = col[order[s] as usize];
                if v_next <= v_prev {
                    continue;
                }
                if hl < self.params.min_child_weight {
                    continue;
                }
                let (gr, hr) = (g_sum - gl, h_sum - hl);
                let gain = 0.5 * (score(self.params, gl, hl) + score(self.params, gr, hr) - parent)
                    - self.params.gamma;
                if gain > best.map_or(0.0, |(_, _, bg)| bg) + 1e-12 {
                    best = Some((f, v_prev + (v_next - v_prev) / 2.0, gain));
                }
            }
        }

        let Some((feature, threshold, _)) = best else {
            return self.leaf(g_sum, h_sum);
        };
        let col = self.presort.column(feature);
        let mid = self.ranges.split(lo, hi, |i| col[i] <= threshold);
        let me = self.nodes.len();
        self.nodes.push(RegNode::Leaf { weight: 0.0 }); // placeholder
        let left = self.build(lo, mid, depth + 1);
        let right = self.build(mid, hi, depth + 1);
        self.nodes[me] = RegNode::Split {
            feature,
            threshold,
            left,
            right,
        };
        me
    }
}

fn leaf_weight(params: &GradientBoostingParams, g: f64, h: f64) -> f64 {
    -g / (h + params.lambda)
}

fn score(params: &GradientBoostingParams, g: f64, h: f64) -> f64 {
    g * g / (h + params.lambda)
}

/// XGBoost-style multiclass gradient boosting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GradientBoosting {
    params: GradientBoostingParams,
    /// `rounds x n_classes` trees.
    trees: Vec<Vec<RegTree>>,
    n_classes: usize,
    dim: usize,
}

impl GradientBoosting {
    /// New untrained booster.
    pub fn new(params: GradientBoostingParams) -> Self {
        GradientBoosting {
            params,
            trees: Vec::new(),
            n_classes: 0,
            dim: 0,
        }
    }

    /// New untrained booster with the paper's defaults.
    pub fn with_defaults() -> Self {
        Self::new(GradientBoostingParams::default())
    }

    /// Number of boosting rounds actually fitted.
    pub fn n_rounds(&self) -> usize {
        self.trees.len()
    }

    /// Raw margin scores for one row.
    pub fn margins(&self, x: &[f64]) -> Vec<f64> {
        let mut m = vec![0.0; self.n_classes];
        for round in &self.trees {
            for (k, tree) in round.iter().enumerate() {
                m[k] += self.params.learning_rate * tree.predict(x);
            }
        }
        m
    }

    /// Boosting loop; `grow(grad, hess)` fits one regression tree to a
    /// class's gradients and hessians.
    fn boost(&mut self, data: &Dataset, grow: impl Fn(&[f64], &[f64]) -> RegTree + Sync) {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        let (n, k) = (data.len(), data.n_classes);
        self.n_classes = k;
        self.dim = data.dim();
        self.trees.clear();

        // Running margins F[i*k + c].
        let mut margins = vec![0.0f64; n * k];

        for _ in 0..self.params.n_rounds {
            // Softmax probabilities per sample.
            let mut probs = vec![0.0f64; n * k];
            for i in 0..n {
                let row = &margins[i * k..(i + 1) * k];
                let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let mut sum = 0.0;
                for c in 0..k {
                    let e = (row[c] - max).exp();
                    probs[i * k + c] = e;
                    sum += e;
                }
                for c in 0..k {
                    probs[i * k + c] /= sum;
                }
            }

            // One regression tree per class, built in parallel.
            let round: Vec<RegTree> = (0..k)
                .into_par_iter()
                .map(|c| {
                    let grad: Vec<f64> = (0..n)
                        .map(|i| probs[i * k + c] - (data.y[i] == c) as usize as f64)
                        .collect();
                    let hess: Vec<f64> = (0..n)
                        .map(|i| {
                            let p = probs[i * k + c];
                            (p * (1.0 - p)).max(1e-16)
                        })
                        .collect();
                    grow(&grad, &hess)
                })
                .collect();

            for i in 0..n {
                for (c, tree) in round.iter().enumerate() {
                    margins[i * k + c] += self.params.learning_rate * tree.predict(&data.x[i]);
                }
            }
            self.trees.push(round);
        }
    }
}

impl Classifier for GradientBoosting {
    fn fit(&mut self, data: &Dataset) {
        // The features never change across rounds: one presort serves
        // every tree of every round.
        let presort = Presort::new(&data.x);
        let params = self.params.clone();
        self.boost(data, |grad, hess| {
            let mut builder = TreeBuilder {
                presort: &presort,
                grad,
                hess,
                params: &params,
                ranges: NodeRanges::new(&presort, |_| true),
                nodes: Vec::new(),
            };
            builder.build(0, builder.ranges.len(), 0);
            RegTree {
                nodes: builder.nodes,
            }
        });
    }

    fn predict_one(&self, x: &[f64]) -> usize {
        assert!(!self.trees.is_empty(), "predict before fit");
        assert_eq!(x.len(), self.dim, "feature width mismatch");
        self.margins(x)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(c, _)| c)
            .expect("at least one class")
    }

    fn predict(&self, xs: &[Vec<f64>]) -> Vec<usize> {
        xs.par_iter().map(|x| self.predict_one(x)).collect()
    }

    fn name(&self) -> &'static str {
        "XGBoost"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdata;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The reference builder the engine replaced: re-sorts every feature
    /// at every node, ties canonicalized to `(value, sample index)`.
    struct NaiveBuilder<'a> {
        x: &'a [Vec<f64>],
        grad: &'a [f64],
        hess: &'a [f64],
        params: &'a GradientBoostingParams,
        nodes: Vec<RegNode>,
    }

    impl NaiveBuilder<'_> {
        fn scan_feature(
            &self,
            f: usize,
            ordered: &[u32],
            g_sum: f64,
            h_sum: f64,
            best: &mut Option<(usize, f64, f64)>,
        ) {
            let mut gl = 0.0;
            let mut hl = 0.0;
            for s in 1..ordered.len() {
                let prev = ordered[s - 1] as usize;
                gl += self.grad[prev];
                hl += self.hess[prev];
                let v_prev = self.x[prev][f];
                let v_next = self.x[ordered[s] as usize][f];
                if v_next <= v_prev {
                    continue;
                }
                let (gr, hr) = (g_sum - gl, h_sum - hl);
                if hl < self.params.min_child_weight || hr < self.params.min_child_weight {
                    continue;
                }
                let gain = 0.5
                    * (score(self.params, gl, hl) + score(self.params, gr, hr)
                        - score(self.params, g_sum, h_sum))
                    - self.params.gamma;
                if gain > best.map_or(0.0, |(_, _, bg)| bg) + 1e-12 {
                    *best = Some((f, v_prev + (v_next - v_prev) / 2.0, gain));
                }
            }
        }

        fn build(&mut self, indices: &[u32], depth: usize) -> usize {
            let g_sum: f64 = indices.iter().map(|&i| self.grad[i as usize]).sum();
            let h_sum: f64 = indices.iter().map(|&i| self.hess[i as usize]).sum();

            if depth >= self.params.max_depth || indices.len() < 2 {
                let w = leaf_weight(self.params, g_sum, h_sum);
                self.nodes.push(RegNode::Leaf { weight: w });
                return self.nodes.len() - 1;
            }

            let dim = self.x[0].len();
            let mut best: Option<(usize, f64, f64)> = None;
            let mut ordered: Vec<u32> = Vec::with_capacity(indices.len());
            for f in 0..dim {
                ordered.clear();
                ordered.extend_from_slice(indices);
                ordered.sort_unstable_by(|&a, &b| {
                    self.x[a as usize][f]
                        .total_cmp(&self.x[b as usize][f])
                        .then(a.cmp(&b))
                });
                self.scan_feature(f, &ordered, g_sum, h_sum, &mut best);
            }

            let Some((feature, threshold, _)) = best else {
                let w = leaf_weight(self.params, g_sum, h_sum);
                self.nodes.push(RegNode::Leaf { weight: w });
                return self.nodes.len() - 1;
            };
            let (left_idx, right_idx): (Vec<u32>, Vec<u32>) = indices
                .iter()
                .partition(|&&i| self.x[i as usize][feature] <= threshold);
            let me = self.nodes.len();
            self.nodes.push(RegNode::Leaf { weight: 0.0 }); // placeholder
            let left = self.build(&left_idx, depth + 1);
            let right = self.build(&right_idx, depth + 1);
            self.nodes[me] = RegNode::Split {
                feature,
                threshold,
                left,
                right,
            };
            me
        }
    }

    fn fit_naive(params: &GradientBoostingParams, data: &Dataset) -> GradientBoosting {
        let mut gb = GradientBoosting::new(params.clone());
        let all_indices: Vec<u32> = (0..data.len() as u32).collect();
        gb.boost(data, |grad, hess| {
            let mut builder = NaiveBuilder {
                x: &data.x,
                grad,
                hess,
                params,
                nodes: Vec::new(),
            };
            builder.build(&all_indices, 0);
            RegTree {
                nodes: builder.nodes,
            }
        });
        gb
    }

    /// Columns that are constant over the whole dataset or over the
    /// nodes a split on another column makes, including one that mixes
    /// `-0.0` and `0.0` (equal values that sort apart): the split search
    /// skips every such column at such a node.
    fn constant_columns_dataset() -> Dataset {
        let mut rng = StdRng::seed_from_u64(31);
        let x: Vec<Vec<f64>> = (0..96)
            .map(|i| {
                vec![
                    2.0,
                    if i % 3 == 0 { -0.0 } else { 0.0 },
                    if i < 48 { 1.0 } else { 3.0 },
                    if i < 48 { (i % 4) as f64 } else { 5.0 },
                    rng.gen_range(-1.0..1.0),
                ]
            })
            .collect();
        let y: Vec<usize> = (0..96)
            .map(|i| (usize::from(i >= 48) + usize::from(x[i][4] > 0.3)) % 3)
            .collect();
        Dataset::new(x, y, 3)
    }

    /// The engine must grow boosters identical to the naive per-node
    /// re-sorting search: equal under `PartialEq`, in predictions, and in
    /// the serialized bytes, which also tell `-0.0` from `0.0`.
    #[test]
    fn presorted_gboost_identical_to_naive() {
        let mut datasets = testdata::datasets();
        datasets.push(("constant_columns", constant_columns_dataset()));
        for (name, data) in datasets {
            for params in [
                GradientBoostingParams {
                    n_rounds: 8,
                    max_depth: 3,
                    ..Default::default()
                },
                GradientBoostingParams {
                    n_rounds: 4,
                    max_depth: 6,
                    min_child_weight: 2.0,
                    ..Default::default()
                },
                GradientBoostingParams {
                    n_rounds: 6,
                    max_depth: 5,
                    min_child_weight: 4.0,
                    ..Default::default()
                },
            ] {
                let mut fast = GradientBoosting::new(params.clone());
                fast.fit(&data);
                let slow = fit_naive(&params, &data);
                assert_eq!(fast, slow, "booster mismatch on {name} with {params:?}");
                assert_eq!(
                    serde_json::to_string(&fast).unwrap(),
                    serde_json::to_string(&slow).unwrap(),
                    "booster bytes differ on {name} with {params:?}"
                );
                assert_eq!(
                    fast.predict(&data.x),
                    slow.predict(&data.x),
                    "prediction mismatch on {name}"
                );
            }
        }
    }

    fn fast_params(rounds: usize) -> GradientBoostingParams {
        GradientBoostingParams {
            n_rounds: rounds,
            max_depth: 3,
            ..Default::default()
        }
    }

    #[test]
    fn learns_asymmetric_xor() {
        // An off-center XOR: unlike the perfectly symmetric version (where
        // every axis-aligned split leaves both halves class-balanced and
        // all first-order gradient sums vanish), this one gives greedy
        // boosting a foothold at the root.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..8 {
            for j in 0..8 {
                x.push(vec![i as f64, j as f64]);
                y.push(((i < 3) ^ (j < 5)) as usize);
            }
        }
        let data = Dataset::new(x, y, 2);
        let mut gb = GradientBoosting::new(fast_params(30));
        gb.fit(&data);
        let acc = crate::accuracy(&data.y, &gb.predict(&data.x), 2);
        assert!(acc > 0.98, "accuracy {acc}");
    }

    #[test]
    fn multiclass_blobs() {
        let mut rng = StdRng::seed_from_u64(0);
        let centers = [(-4.0, 0.0), (4.0, 0.0), (0.0, 5.0)];
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..150 {
            let c = i % 3;
            x.push(vec![
                centers[c].0 + rng.gen_range(-1.5..1.5),
                centers[c].1 + rng.gen_range(-1.5..1.5),
            ]);
            y.push(c);
        }
        let data = Dataset::new(x, y, 3);
        let mut gb = GradientBoosting::new(fast_params(20));
        gb.fit(&data);
        let acc = crate::accuracy(&data.y, &gb.predict(&data.x), 3);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn more_rounds_do_not_hurt_training_fit() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..40 {
            x.push(vec![i as f64]);
            y.push((i % 3 == 0) as usize);
        }
        let data = Dataset::new(x, y, 2);
        let mut short = GradientBoosting::new(fast_params(3));
        let mut long = GradientBoosting::new(fast_params(30));
        short.fit(&data);
        long.fit(&data);
        let acc_s = crate::accuracy(&data.y, &short.predict(&data.x), 2);
        let acc_l = crate::accuracy(&data.y, &long.predict(&data.x), 2);
        assert!(acc_l >= acc_s, "{acc_l} < {acc_s}");
    }

    #[test]
    fn margins_start_symmetric() {
        // With zero rounds the model must not be usable.
        let gb = GradientBoosting::new(fast_params(5));
        assert_eq!(gb.n_rounds(), 0);
    }

    #[test]
    fn deterministic() {
        let data = Dataset::new(
            (0..30)
                .map(|i| vec![(i % 7) as f64, (i % 5) as f64])
                .collect(),
            (0..30).map(|i| (i % 2) as usize).collect(),
            2,
        );
        let mut a = GradientBoosting::new(fast_params(10));
        let mut b = GradientBoosting::new(fast_params(10));
        a.fit(&data);
        b.fit(&data);
        assert_eq!(a.predict(&data.x), b.predict(&data.x));
    }
}
