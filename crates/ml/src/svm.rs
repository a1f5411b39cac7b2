//! Linear support vector machine, one-vs-rest, squared hinge loss.
//!
//! Trained by full-batch gradient descent with momentum on
//! `0.5 ||w||^2 + C/n * sum max(0, 1 - y f(x))^2`, which is smooth and
//! deterministic. Multiclass prediction takes the argmax of the per-class
//! decision values. Features are expected to be pre-scaled (the supervised
//! pipeline scales them).

use crate::{Classifier, Dataset};
use serde::{Deserialize, Serialize};

/// Hyper-parameters of [`LinearSvm`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearSvmParams {
    /// Misclassification cost.
    pub c: f64,
    /// Learning rate.
    pub lr: f64,
    /// Momentum coefficient.
    pub momentum: f64,
    /// Gradient-descent iterations per binary problem.
    pub max_iter: usize,
}

impl Default for LinearSvmParams {
    fn default() -> Self {
        // The loss uses the *mean* hinge term, so `c` plays the role of
        // `C * n` in the usual sum formulation; 500 corresponds to a
        // moderately regularized LinearSVC on corpus-sized datasets. The
        // learning rate is relative: the trainer divides it by a Lipschitz
        // estimate of the objective, so the same setting is stable across
        // feature scales.
        LinearSvmParams {
            c: 500.0,
            lr: 1.0,
            momentum: 0.95,
            max_iter: 800,
        }
    }
}

/// One-vs-rest linear SVM classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearSvm {
    params: LinearSvmParams,
    /// Per-class weight vectors, `n_classes x (dim + 1)`, bias last.
    weights: Vec<Vec<f64>>,
    n_classes: usize,
    dim: usize,
}

impl LinearSvm {
    /// New untrained model.
    pub fn new(params: LinearSvmParams) -> Self {
        LinearSvm {
            params,
            weights: Vec::new(),
            n_classes: 0,
            dim: 0,
        }
    }

    /// New untrained model with default parameters.
    pub fn with_defaults() -> Self {
        Self::new(LinearSvmParams::default())
    }

    /// Decision value `w_k . x + b_k` for class `k`.
    pub fn decision(&self, k: usize, x: &[f64]) -> f64 {
        let w = &self.weights[k];
        w[..self.dim]
            .iter()
            .zip(x)
            .map(|(wi, xi)| wi * xi)
            .sum::<f64>()
            + w[self.dim]
    }

    /// Step size from a Lipschitz estimate of the squared-hinge
    /// objective: L ~ 1 (regularizer) + 2 C E[||x||^2 + 1].
    fn step(&self, data: &Dataset) -> f64 {
        let mean_sq: f64 = data
            .x
            .iter()
            .map(|x| x.iter().map(|v| v * v).sum::<f64>() + 1.0)
            .sum::<f64>()
            / data.len() as f64;
        self.params.lr / (1.0 + 2.0 * self.params.c * mean_sq)
    }

    /// Fit one binary one-vs-rest problem; `targets[i]` in {-1, +1}.
    ///
    /// Each iteration first computes every sample's decision value, one
    /// feature at a time across all samples (`cols` is the data
    /// column-major), so the loop vectorises over samples while each
    /// sample still sums its products from `-0.0` in feature order, as
    /// `Iterator::sum` does. It then lists the samples with a positive
    /// margin, and their gradient coefficients, without a branch, and
    /// adds their gradient terms in ascending sample order.
    fn fit_binary(&self, data: &Dataset, cols: &[f64], step: f64, targets: &[f64]) -> Vec<f64> {
        let (n, d) = (data.len(), data.dim());
        let c_over_n = self.params.c / n as f64;
        let mut w = vec![0.0; d + 1];
        let mut velocity = vec![0.0; d + 1];
        let mut grad = vec![0.0; d + 1];
        let mut f = vec![0.0; n];
        let mut active = vec![0; n];
        let mut coefs = vec![0.0; n];
        for _ in 0..self.params.max_iter {
            f.fill(-0.0);
            for j in 0..d {
                let wj = w[j];
                for (fi, &xi) in f.iter_mut().zip(&cols[j * n..(j + 1) * n]) {
                    *fi += wj * xi;
                }
            }
            let mut m = 0;
            for (i, (&fi, &yi)) in f.iter().zip(targets).enumerate() {
                let margin = 1.0 - yi * (fi + w[d]);
                active[m] = i;
                coefs[m] = -2.0 * c_over_n * yi * margin;
                m += (margin > 0.0) as usize;
            }
            // grad = w (excluding bias) + C/n * sum -2 y (1 - y f)_+ x
            grad[..d].copy_from_slice(&w[..d]);
            grad[d] = 0.0;
            for (&i, &coef) in active[..m].iter().zip(&coefs[..m]) {
                for (g, &xi) in grad[..d].iter_mut().zip(&data.x[i]) {
                    *g += coef * xi;
                }
                grad[d] += coef;
            }
            for j in 0..=d {
                velocity[j] = self.params.momentum * velocity[j] - step * grad[j];
                w[j] += velocity[j];
            }
        }
        w
    }
}

/// The binary targets of class `k` against the rest: +1 or -1 per sample.
fn one_vs_rest(data: &Dataset, k: usize) -> Vec<f64> {
    data.y
        .iter()
        .map(|&l| if l == k { 1.0 } else { -1.0 })
        .collect()
}

impl Classifier for LinearSvm {
    fn fit(&mut self, data: &Dataset) {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        let (n, d) = (data.len(), data.dim());
        self.n_classes = data.n_classes;
        self.dim = d;
        let mut cols = vec![0.0; n * d];
        for (i, x) in data.x.iter().enumerate() {
            for (j, &v) in x.iter().enumerate() {
                cols[j * n + i] = v;
            }
        }
        let step = self.step(data);
        self.weights = (0..data.n_classes)
            .map(|k| self.fit_binary(data, &cols, step, &one_vs_rest(data, k)))
            .collect();
    }

    fn predict_one(&self, x: &[f64]) -> usize {
        assert!(!self.weights.is_empty(), "predict before fit");
        assert_eq!(x.len(), self.dim, "feature width mismatch");
        (0..self.n_classes)
            .map(|k| (k, self.decision(k, x)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(k, _)| k)
            .expect("at least one class")
    }

    fn name(&self) -> &'static str {
        "SVM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn blobs(n: usize, seed: u64, classes: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers = [(-3.0, -3.0), (3.0, 3.0), (-3.0, 3.0), (3.0, -3.0)];
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let c = i % classes;
            x.push(vec![
                centers[c].0 + rng.gen_range(-1.0..1.0),
                centers[c].1 + rng.gen_range(-1.0..1.0),
            ]);
            y.push(c);
        }
        Dataset::new(x, y, classes)
    }

    /// The trainer the vectorised loop replaced: one binary problem per
    /// class, one sample at a time, a branch per margin. Test oracle only.
    fn fit_per_class(params: &LinearSvmParams, data: &Dataset) -> Vec<Vec<f64>> {
        let (n, d) = (data.len(), data.dim());
        (0..data.n_classes)
            .map(|k| {
                let targets = one_vs_rest(data, k);
                let mut w = vec![0.0; d + 1];
                let mut velocity = vec![0.0; d + 1];
                let c_over_n = params.c / n as f64;
                let mean_sq: f64 = data
                    .x
                    .iter()
                    .map(|x| x.iter().map(|v| v * v).sum::<f64>() + 1.0)
                    .sum::<f64>()
                    / n as f64;
                let step = params.lr / (1.0 + 2.0 * params.c * mean_sq);
                for _ in 0..params.max_iter {
                    let mut grad = vec![0.0; d + 1];
                    grad[..d].copy_from_slice(&w[..d]);
                    for (x, &yi) in data.x.iter().zip(&targets) {
                        let f: f64 =
                            w[..d].iter().zip(x).map(|(wi, xi)| wi * xi).sum::<f64>() + w[d];
                        let margin = 1.0 - yi * f;
                        if margin > 0.0 {
                            let coef = -2.0 * c_over_n * yi * margin;
                            for j in 0..d {
                                grad[j] += coef * x[j];
                            }
                            grad[d] += coef;
                        }
                    }
                    for j in 0..=d {
                        velocity[j] = params.momentum * velocity[j] - step * grad[j];
                        w[j] += velocity[j];
                    }
                }
                w
            })
            .collect()
    }

    /// The trainer's weights must equal the oracle's bit for bit.
    fn assert_matches_oracle(data: &Dataset, what: &str) {
        let mut svm = LinearSvm::with_defaults();
        svm.fit(data);
        let oracle = fit_per_class(&svm.params, data);
        let bits = |ws: &[Vec<f64>]| -> Vec<Vec<u64>> {
            ws.iter()
                .map(|w| w.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&svm.weights), bits(&oracle), "{what}: weights differ");
    }

    /// `n` rows of `d` features spread over `[-2, 2)`, labels drawn from
    /// `0..labels` in a problem of `classes` classes.
    fn random_data(n: usize, d: usize, labels: usize, classes: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(-2.0..2.0)).collect())
            .collect();
        let y = (0..n).map(|_| rng.gen_range(0..labels)).collect();
        Dataset::new(x, y, classes)
    }

    #[test]
    fn fit_is_bit_identical_to_per_class_oracle() {
        assert_matches_oracle(&random_data(160, 8, 4, 4, 11), "160x8, 4 classes");
        assert_matches_oracle(&blobs(200, 3, 4), "four blobs");
        assert_matches_oracle(&random_data(40, 1, 3, 3, 12), "d = 1");
        assert_matches_oracle(&random_data(30, 5, 1, 1, 13), "k = 1");
        assert_matches_oracle(&random_data(70, 6, 7, 7, 14), "k = 7");
        // Class 2 of 5 has no samples: its problem has no positive target.
        let mut absent = random_data(50, 4, 4, 5, 15);
        for l in &mut absent.y {
            if *l == 2 {
                *l = 4;
            }
        }
        assert_matches_oracle(&absent, "a class with no samples");
        // All-zero rows have zero products: only the bias moves them.
        let mut zeros = random_data(48, 8, 4, 4, 16);
        for x in zeros.x.iter_mut().step_by(3) {
            x.fill(0.0);
        }
        assert_matches_oracle(&zeros, "some all-zero rows");
        let all_zero = Dataset::new(vec![vec![0.0; 3]; 12], (0..12).map(|i| i % 2).collect(), 2);
        assert_matches_oracle(&all_zero, "all rows zero");
        let no_features = Dataset::new(vec![Vec::new(); 9], (0..9).map(|i| i % 3).collect(), 3);
        assert_matches_oracle(&no_features, "d = 0");
    }

    #[test]
    fn binary_separable() {
        let train = blobs(100, 1, 2);
        let test = blobs(50, 2, 2);
        let mut svm = LinearSvm::with_defaults();
        svm.fit(&train);
        let acc = crate::accuracy(&test.y, &svm.predict(&test.x), 2);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn four_class_ovr() {
        let train = blobs(200, 3, 4);
        let test = blobs(80, 4, 4);
        let mut svm = LinearSvm::with_defaults();
        svm.fit(&train);
        let acc = crate::accuracy(&test.y, &svm.predict(&test.x), 4);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn margin_sign_matches_class() {
        let train = blobs(100, 5, 2);
        let mut svm = LinearSvm::with_defaults();
        svm.fit(&train);
        // A point deep inside class 0's blob has positive class-0 decision.
        assert!(svm.decision(0, &[-3.0, -3.0]) > 0.0);
        assert!(svm.decision(1, &[-3.0, -3.0]) < 0.0);
    }

    #[test]
    fn deterministic() {
        let data = blobs(60, 6, 2);
        let mut a = LinearSvm::with_defaults();
        let mut b = LinearSvm::with_defaults();
        a.fit(&data);
        b.fit(&data);
        assert_eq!(a.weights, b.weights);
    }
}
