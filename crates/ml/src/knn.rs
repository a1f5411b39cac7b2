//! Brute-force k-nearest-neighbors classifier.
//!
//! The paper notes that a KNN predictor over the same transformed /
//! scaled / PCA-projected feature space as the clustering algorithms
//! should be competitive with the semi-supervised approach; this is that
//! predictor.

use crate::{dot, Classifier, Dataset};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// KNN classifier with majority vote (ties broken toward the nearest
/// neighbor's class).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KnnClassifier {
    /// Number of neighbors.
    pub k: usize,
    x: Vec<Vec<f64>>,
    y: Vec<usize>,
    /// Squared norm of each training row, precomputed at fit time so a
    /// query ranks neighbors by `|t|^2 - 2 q.t` (the `|q|^2` term is
    /// constant per query and dropped) with one dot product per row.
    norms: Vec<f64>,
    n_classes: usize,
}

impl KnnClassifier {
    /// New untrained classifier with `k` neighbors.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "k must be positive");
        KnnClassifier {
            k,
            x: Vec::new(),
            y: Vec::new(),
            norms: Vec::new(),
            n_classes: 0,
        }
    }
}

impl Classifier for KnnClassifier {
    fn fit(&mut self, data: &Dataset) {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        self.x = data.x.clone();
        self.y = data.y.clone();
        self.norms = data.x.iter().map(|xi| dot(xi, xi)).collect();
        self.n_classes = data.n_classes;
    }

    fn predict_one(&self, x: &[f64]) -> usize {
        assert!(!self.x.is_empty(), "predict before fit");
        let k = self.k.min(self.x.len());
        // Partial selection of the k nearest rows by the norm expansion:
        // |x - t|^2 = |t|^2 - 2 x.t + |x|^2, with the constant |x|^2
        // dropped — same ranking, one multiply-add per element instead of
        // subtract-square.
        let mut dists: Vec<(f64, usize)> = self
            .x
            .iter()
            .zip(self.norms.iter().zip(&self.y))
            .map(|(xi, (&ni, &yi))| (ni - 2.0 * dot(x, xi), yi))
            .collect();
        dists.select_nth_unstable_by(k - 1, |a, b| a.0.total_cmp(&b.0));
        let neighbors = &mut dists[..k];
        neighbors.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));

        let mut votes = vec![0usize; self.n_classes];
        for &(_, label) in neighbors.iter() {
            votes[label] += 1;
        }
        let max_votes = *votes.iter().max().expect("at least one class");
        // Tie break: the tied class whose representative appears earliest
        // in the sorted neighbor list (i.e. is nearest).
        neighbors
            .iter()
            .find(|&&(_, label)| votes[label] == max_votes)
            .map(|&(_, label)| label)
            .expect("k >= 1")
    }

    fn predict(&self, xs: &[Vec<f64>]) -> Vec<usize> {
        xs.par_iter().map(|x| self.predict_one(x)).collect()
    }

    fn name(&self) -> &'static str {
        "KNN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdata;

    fn simple() -> Dataset {
        Dataset::new(
            vec![
                vec![0.0, 0.0],
                vec![0.1, 0.0],
                vec![0.0, 0.1],
                vec![5.0, 5.0],
                vec![5.1, 5.0],
                vec![5.0, 5.1],
            ],
            vec![0, 0, 0, 1, 1, 1],
            2,
        )
    }

    #[test]
    fn nearest_cluster_wins() {
        let mut knn = KnnClassifier::new(3);
        knn.fit(&simple());
        assert_eq!(knn.predict_one(&[0.2, 0.2]), 0);
        assert_eq!(knn.predict_one(&[4.8, 4.9]), 1);
    }

    #[test]
    fn k1_memorizes_training_data() {
        let data = simple();
        let mut knn = KnnClassifier::new(1);
        knn.fit(&data);
        assert_eq!(knn.predict(&data.x), data.y);
    }

    #[test]
    fn k_larger_than_dataset_is_clamped() {
        let data = simple();
        let mut knn = KnnClassifier::new(100);
        knn.fit(&data);
        // All six points vote; 3 vs 3 tie resolved toward the nearest.
        assert_eq!(knn.predict_one(&[0.0, 0.0]), 0);
        assert_eq!(knn.predict_one(&[5.0, 5.0]), 1);
    }

    #[test]
    fn tie_broken_by_proximity() {
        let data = Dataset::new(
            vec![vec![0.0], vec![1.0], vec![3.0], vec![4.0]],
            vec![0, 0, 1, 1],
            2,
        );
        let mut knn = KnnClassifier::new(4);
        knn.fit(&data);
        // Query at 0.5: votes tie 2-2, nearest neighbor has class 0.
        assert_eq!(knn.predict_one(&[0.5]), 0);
        // Query at 3.5: nearest is class 1.
        assert_eq!(knn.predict_one(&[3.5]), 1);
    }

    #[test]
    #[should_panic]
    fn zero_k_rejected() {
        KnnClassifier::new(0);
    }

    #[test]
    fn knn_norm_expansion_matches_direct_distances() {
        // Reference ranking: direct squared distances, same selection and
        // tie-break logic as KnnClassifier::predict_one.
        fn reference_predict(train: &Dataset, k: usize, q: &[f64]) -> usize {
            let k = k.min(train.x.len());
            let mut dists: Vec<(f64, usize)> = train
                .x
                .iter()
                .zip(&train.y)
                .map(|(xi, &yi)| (crate::sq_dist(q, xi), yi))
                .collect();
            dists.select_nth_unstable_by(k - 1, |a, b| a.0.total_cmp(&b.0));
            let neighbors = &mut dists[..k];
            neighbors.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            let mut votes = vec![0usize; train.n_classes];
            for &(_, label) in neighbors.iter() {
                votes[label] += 1;
            }
            let max_votes = *votes.iter().max().unwrap();
            neighbors
                .iter()
                .find(|&&(_, label)| votes[label] == max_votes)
                .map(|&(_, label)| label)
                .unwrap()
        }

        for (name, data) in testdata::datasets() {
            for k in [1, 3, 5] {
                let mut knn = KnnClassifier::new(k);
                knn.fit(&data);
                let queries = testdata::random_dataset(40, data.dim(), 2, 77 + k as u64);
                for q in &queries.x {
                    assert_eq!(
                        knn.predict_one(q),
                        reference_predict(&data, k, q),
                        "knn mismatch on {name} k={k}"
                    );
                }
            }
        }
    }
}
