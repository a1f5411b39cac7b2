//! Multinomial (softmax) logistic regression trained with full-batch
//! gradient descent plus Nesterov momentum.
//!
//! Used both as a supervised baseline component and as one of the paper's
//! three cluster-labeling strategies (LR).

use crate::{Classifier, Dataset};
use serde::{Deserialize, Serialize};

/// Hyper-parameters of [`LogisticRegression`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogisticRegressionParams {
    /// L2 regularization strength.
    pub l2: f64,
    /// Learning rate.
    pub lr: f64,
    /// Momentum coefficient.
    pub momentum: f64,
    /// Maximum gradient-descent iterations.
    pub max_iter: usize,
    /// Stop when the gradient norm falls below this.
    pub tol: f64,
}

impl Default for LogisticRegressionParams {
    fn default() -> Self {
        LogisticRegressionParams {
            l2: 1e-4,
            lr: 0.5,
            momentum: 0.9,
            max_iter: 300,
            tol: 1e-6,
        }
    }
}

/// Softmax regression classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogisticRegression {
    params: LogisticRegressionParams,
    /// Row-major `n_classes x (dim + 1)` weights; last column is the bias.
    weights: Vec<Vec<f64>>,
    n_classes: usize,
    dim: usize,
}

impl LogisticRegression {
    /// New untrained model.
    pub fn new(params: LogisticRegressionParams) -> Self {
        LogisticRegression {
            params,
            weights: Vec::new(),
            n_classes: 0,
            dim: 0,
        }
    }

    /// New untrained model with default parameters.
    pub fn with_defaults() -> Self {
        Self::new(LogisticRegressionParams::default())
    }

    /// Class scores (`w_k . x + b_k`) for one row, into `out`.
    fn scores_into(&self, x: &[f64], out: &mut [f64]) {
        for (o, w) in out.iter_mut().zip(&self.weights) {
            *o = w[..self.dim]
                .iter()
                .zip(x)
                .map(|(wi, xi)| wi * xi)
                .sum::<f64>()
                + w[self.dim];
        }
    }

    /// Class probabilities for one row (softmax of the scores), into `out`.
    fn proba_into(&self, x: &[f64], out: &mut [f64]) {
        self.scores_into(x, out);
        let max = out.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for v in out.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in out.iter_mut() {
            *v /= sum;
        }
    }

    /// Class probabilities for one row (softmax of the scores).
    pub fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        let mut p = vec![0.0; self.n_classes];
        self.proba_into(x, &mut p);
        p
    }
}

impl Classifier for LogisticRegression {
    fn fit(&mut self, data: &Dataset) {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        let (n, d, k) = (data.len(), data.dim(), data.n_classes);
        self.n_classes = k;
        self.dim = d;
        self.weights = vec![vec![0.0; d + 1]; k];
        let mut velocity = vec![vec![0.0; d + 1]; k];
        let mut grad = vec![vec![0.0; d + 1]; k];
        let mut p = vec![0.0; k];
        let inv_n = 1.0 / n as f64;

        for _ in 0..self.params.max_iter {
            // Gradient of mean cross-entropy + L2.
            for g in grad.iter_mut() {
                g.fill(0.0);
            }
            for (x, &label) in data.x.iter().zip(&data.y) {
                self.proba_into(x, &mut p);
                for c in 0..k {
                    let coef = (p[c] - (c == label) as usize as f64) * inv_n;
                    let g = &mut grad[c];
                    for j in 0..d {
                        g[j] += coef * x[j];
                    }
                    g[d] += coef;
                }
            }
            let mut gnorm2 = 0.0;
            for c in 0..k {
                for j in 0..=d {
                    if j < d {
                        grad[c][j] += self.params.l2 * self.weights[c][j];
                    }
                    gnorm2 += grad[c][j] * grad[c][j];
                    velocity[c][j] =
                        self.params.momentum * velocity[c][j] - self.params.lr * grad[c][j];
                    self.weights[c][j] += velocity[c][j];
                }
            }
            if gnorm2.sqrt() < self.params.tol {
                break;
            }
        }
    }

    fn predict_one(&self, x: &[f64]) -> usize {
        assert!(!self.weights.is_empty(), "predict before fit");
        assert_eq!(x.len(), self.dim, "feature width mismatch");
        let mut scores = vec![0.0; self.n_classes];
        self.scores_into(x, &mut scores);
        scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(k, _)| k)
            .expect("at least one class")
    }

    fn name(&self) -> &'static str {
        "LR"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn blobs3(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers = [(-3.0, 0.0), (3.0, 0.0), (0.0, 4.0)];
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let c = i % 3;
            x.push(vec![
                centers[c].0 + rng.gen_range(-1.0..1.0),
                centers[c].1 + rng.gen_range(-1.0..1.0),
            ]);
            y.push(c);
        }
        Dataset::new(x, y, 3)
    }

    /// The fit loop before its buffers were reused, verbatim: fresh score,
    /// probability and gradient vectors per sample and per iteration.
    /// Returns the weights and the number of iterations run.
    fn fit_allocating(params: &LogisticRegressionParams, data: &Dataset) -> (Vec<Vec<f64>>, usize) {
        let (n, d, k) = (data.len(), data.dim(), data.n_classes);
        let mut weights = vec![vec![0.0; d + 1]; k];
        let mut velocity = vec![vec![0.0; d + 1]; k];
        let inv_n = 1.0 / n as f64;
        let proba = |weights: &[Vec<f64>], x: &[f64]| {
            let mut s: Vec<f64> = weights
                .iter()
                .map(|w| w[..d].iter().zip(x).map(|(wi, xi)| wi * xi).sum::<f64>() + w[d])
                .collect();
            let max = s.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mut sum = 0.0;
            for v in s.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in s.iter_mut() {
                *v /= sum;
            }
            s
        };
        for iteration in 1..=params.max_iter {
            let mut grad = vec![vec![0.0; d + 1]; k];
            for (x, &label) in data.x.iter().zip(&data.y) {
                let p = proba(&weights, x);
                for c in 0..k {
                    let coef = (p[c] - (c == label) as usize as f64) * inv_n;
                    let g = &mut grad[c];
                    for j in 0..d {
                        g[j] += coef * x[j];
                    }
                    g[d] += coef;
                }
            }
            let mut gnorm2 = 0.0;
            for c in 0..k {
                for j in 0..=d {
                    if j < d {
                        grad[c][j] += params.l2 * weights[c][j];
                    }
                    gnorm2 += grad[c][j] * grad[c][j];
                    velocity[c][j] = params.momentum * velocity[c][j] - params.lr * grad[c][j];
                    weights[c][j] += velocity[c][j];
                }
            }
            if gnorm2.sqrt() < params.tol {
                return (weights, iteration);
            }
        }
        (weights, params.max_iter)
    }

    /// Cluster-sized fits (the semi-supervised LR labeler's 4-20 members
    /// in the 8-dimensional embedding) must match the allocating loop in
    /// every weight bit, including one fit that stops early on `tol`.
    #[test]
    fn buffered_fit_is_bit_identical_to_allocating_loop() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut cases = Vec::new();
        for (rows, classes) in [(4, 2), (7, 3), (12, 4), (16, 3), (20, 4), (20, 2)] {
            let x: Vec<Vec<f64>> = (0..rows)
                .map(|_| (0..8).map(|_| rng.gen_range(-2.0..2.0)).collect())
                .collect();
            let y: Vec<usize> = (0..rows).map(|i| i % classes).collect();
            cases.push((
                LogisticRegressionParams::default(),
                Dataset::new(x, y, classes),
            ));
        }
        let early = LogisticRegressionParams {
            tol: 1e-2,
            ..Default::default()
        };
        cases.push((early, blobs3(12, 7)));

        let bits =
            |w: &[Vec<f64>]| -> Vec<u64> { w.iter().flatten().map(|v| v.to_bits()).collect() };
        let mut stopped_early = false;
        for (params, data) in cases {
            let (weights, iterations) = fit_allocating(&params, &data);
            stopped_early |= iterations < params.max_iter;
            let mut lr = LogisticRegression::new(params);
            lr.fit(&data);
            assert_eq!(
                bits(&lr.weights),
                bits(&weights),
                "weights differ on {} rows x {} classes",
                data.len(),
                data.n_classes
            );
        }
        assert!(stopped_early, "no case stopped early on tol");
    }

    #[test]
    fn separates_three_blobs() {
        let train = blobs3(150, 1);
        let test = blobs3(60, 2);
        let mut lr = LogisticRegression::with_defaults();
        lr.fit(&train);
        let acc = crate::accuracy(&test.y, &lr.predict(&test.x), 3);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn probabilities_sum_to_one() {
        let data = blobs3(60, 3);
        let mut lr = LogisticRegression::with_defaults();
        lr.fit(&data);
        for x in &data.x {
            let p = lr.predict_proba(x);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn confident_on_far_points() {
        let data = blobs3(150, 4);
        let mut lr = LogisticRegression::with_defaults();
        lr.fit(&data);
        let p = lr.predict_proba(&[-10.0, 0.0]);
        assert!(p[0] > 0.99, "p = {p:?}");
    }

    #[test]
    fn deterministic() {
        let data = blobs3(60, 5);
        let mut a = LogisticRegression::with_defaults();
        let mut b = LogisticRegression::with_defaults();
        a.fit(&data);
        b.fit(&data);
        assert_eq!(a.predict(&data.x), b.predict(&data.x));
    }

    #[test]
    fn single_class_dataset() {
        let data = Dataset::new(vec![vec![1.0], vec![2.0]], vec![0, 0], 1);
        let mut lr = LogisticRegression::with_defaults();
        lr.fit(&data);
        assert_eq!(lr.predict_one(&[9.0]), 0);
    }
}
