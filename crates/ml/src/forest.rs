//! Random forest: bagged CART trees with per-split feature subsampling.
//!
//! The paper's configuration (Section 5.1): 100 estimators, maximum depth 6.
//!
//! Every tree grows on the forest's one `Presort`: a bootstrap sample is
//! the per-sample multiplicity of `n` draws, never a copied dataset, and
//! the tree counts classes weighted by it (see [`crate::tree`] for why
//! that grows exactly the tree the expanded sample would).

use crate::tree::{DecisionTree, DecisionTreeParams, Presort};
use crate::{Classifier, Dataset};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of a [`RandomForest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomForestParams {
    /// Number of trees.
    pub n_estimators: usize,
    /// Maximum depth of each tree.
    pub max_depth: Option<usize>,
    /// Features per split (`None` = `sqrt(dim)`).
    pub max_features: Option<usize>,
    /// Master seed; per-tree seeds derive from it.
    pub seed: u64,
}

impl Default for RandomForestParams {
    /// The paper's configuration: 100 estimators, depth 6.
    fn default() -> Self {
        RandomForestParams {
            n_estimators: 100,
            max_depth: Some(6),
            max_features: None,
            seed: 0,
        }
    }
}

/// Bagged random forest classifier with majority voting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomForest {
    params: RandomForestParams,
    trees: Vec<DecisionTree>,
    n_classes: usize,
}

impl RandomForest {
    /// New untrained forest with the given parameters.
    pub fn new(params: RandomForestParams) -> Self {
        RandomForest {
            params,
            trees: Vec::new(),
            n_classes: 0,
        }
    }

    /// New untrained forest with the paper's defaults.
    pub fn with_defaults() -> Self {
        Self::new(RandomForestParams::default())
    }

    /// The RNG of tree `t`: its bootstrap draws, then its tree seed.
    fn tree_rng(&self, t: usize) -> StdRng {
        StdRng::seed_from_u64(
            self.params.seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(t as u64 + 1)),
        )
    }

    /// Per-class vote counts for one row.
    pub fn vote_counts(&self, x: &[f64]) -> Vec<usize> {
        let mut votes = vec![0usize; self.n_classes];
        for t in &self.trees {
            votes[t.predict_one(x)] += 1;
        }
        votes
    }
}

impl Classifier for RandomForest {
    fn fit(&mut self, data: &Dataset) {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        self.n_classes = data.n_classes;
        let max_features = self
            .params
            .max_features
            .unwrap_or_else(|| (data.dim() as f64).sqrt().ceil() as usize)
            .max(1);
        let n = data.len();
        let presort = Presort::new(&data.x);
        self.trees = (0..self.params.n_estimators)
            .into_par_iter()
            .map(|t| {
                // Independent bootstrap per tree, derived deterministically.
                let mut rng = self.tree_rng(t);
                let mut draws = vec![0usize; n];
                for _ in 0..n {
                    draws[rng.gen_range(0..n)] += 1;
                }
                let mut tree = DecisionTree::new(DecisionTreeParams {
                    max_depth: self.params.max_depth,
                    max_features: Some(max_features),
                    seed: rng.gen(),
                    ..Default::default()
                });
                tree.fit_weighted(data, &presort, &draws);
                tree
            })
            .collect();
    }

    fn predict_one(&self, x: &[f64]) -> usize {
        assert!(!self.trees.is_empty(), "predict before fit");
        let votes = self.vote_counts(x);
        votes
            .iter()
            .enumerate()
            .max_by_key(|&(_, v)| v)
            .map(|(k, _)| k)
            .expect("at least one class")
    }

    fn predict(&self, xs: &[Vec<f64>]) -> Vec<usize> {
        xs.par_iter().map(|x| self.predict_one(x)).collect()
    }

    fn name(&self) -> &'static str {
        "RF"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdata;
    use rand::Rng;

    /// The forest as it was grown before the shared presort: each tree
    /// copies its bootstrap sample with `data.subset` and fits the naive
    /// CART on it, from the same per-tree RNG stream.
    fn fit_by_subset(params: &RandomForestParams, data: &Dataset) -> RandomForest {
        let mut rf = RandomForest::new(params.clone());
        rf.n_classes = data.n_classes;
        let max_features = params
            .max_features
            .unwrap_or_else(|| (data.dim() as f64).sqrt().ceil() as usize)
            .max(1);
        let n = data.len();
        rf.trees = (0..params.n_estimators)
            .map(|t| {
                let mut rng = rf.tree_rng(t);
                let bootstrap: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                let mut tree = DecisionTree::new(DecisionTreeParams {
                    max_depth: params.max_depth,
                    max_features: Some(max_features),
                    seed: rng.gen(),
                    ..Default::default()
                });
                tree.fit_naive(&data.subset(&bootstrap));
                tree
            })
            .collect();
        rf
    }

    #[test]
    fn forest_identical_to_subset_oracle() {
        let sets = [
            ("tied", testdata::tied_dataset(120, 3, 5)),
            ("rows13", testdata::tied_dataset(13, 2, 9)),
            ("wide", testdata::random_dataset(200, 21, 4, 17)),
        ];
        for (name, data) in &sets {
            for max_depth in [Some(6), None] {
                for max_features in [None, Some(2)] {
                    let params = RandomForestParams {
                        n_estimators: 12,
                        max_depth,
                        max_features,
                        seed: 31,
                    };
                    let mut rf = RandomForest::new(params.clone());
                    rf.fit(data);
                    let oracle = fit_by_subset(&params, data);
                    assert_eq!(
                        serde_json::to_string(&rf).unwrap(),
                        serde_json::to_string(&oracle).unwrap(),
                        "forest differs from its oracle on {name} with {params:?}"
                    );
                }
            }
        }
    }

    /// Two Gaussian-ish blobs, linearly separable.
    fn blobs(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let class = i % 2;
            let center = if class == 0 { -2.0 } else { 2.0 };
            x.push(vec![
                center + rng.gen_range(-1.0..1.0),
                center + rng.gen_range(-1.0..1.0),
            ]);
            y.push(class);
        }
        Dataset::new(x, y, 2)
    }

    #[test]
    fn separable_blobs_high_accuracy() {
        let train = blobs(200, 1);
        let test = blobs(100, 2);
        let mut rf = RandomForest::new(RandomForestParams {
            n_estimators: 30,
            ..Default::default()
        });
        rf.fit(&train);
        let acc = crate::accuracy(&test.y, &rf.predict(&test.x), 2);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn forest_beats_stump_on_xor() {
        // 2-feature XOR grid; a depth-6 forest should fit it exactly.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                x.push(vec![i as f64, j as f64]);
                y.push(((i < 5) ^ (j < 5)) as usize);
            }
        }
        let data = Dataset::new(x, y, 2);
        let mut rf = RandomForest::new(RandomForestParams {
            n_estimators: 40,
            seed: 5,
            ..Default::default()
        });
        rf.fit(&data);
        let acc = crate::accuracy(&data.y, &rf.predict(&data.x), 2);
        assert!(acc > 0.97, "accuracy {acc}");
    }

    #[test]
    fn deterministic_given_seed() {
        let data = blobs(80, 3);
        let mut a = RandomForest::new(RandomForestParams {
            n_estimators: 10,
            seed: 9,
            ..Default::default()
        });
        let mut b = RandomForest::new(RandomForestParams {
            n_estimators: 10,
            seed: 9,
            ..Default::default()
        });
        a.fit(&data);
        b.fit(&data);
        assert_eq!(a, b);
        assert_eq!(a.predict(&data.x), b.predict(&data.x));
    }

    #[test]
    fn vote_counts_sum_to_estimators() {
        let data = blobs(50, 4);
        let mut rf = RandomForest::new(RandomForestParams {
            n_estimators: 15,
            ..Default::default()
        });
        rf.fit(&data);
        let votes = rf.vote_counts(&data.x[0]);
        assert_eq!(votes.iter().sum::<usize>(), 15);
    }
}
