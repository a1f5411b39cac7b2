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
    /// Row-major `n_classes x (dim + 1)` weights, flat; the last entry of
    /// each class row is its bias.
    weights: Vec<f64>,
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

    /// Class probabilities for one row (softmax of the scores).
    pub fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        let mut p = vec![0.0; self.n_classes];
        class_scores(&self.weights, x, self.dim, &mut p);
        let max = p.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for v in p.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in p.iter_mut() {
            *v /= sum;
        }
        p
    }
}

/// Class scores (`w_k . x + b_k`) of one row under flat `k x (d + 1)`
/// weights, into `out` (`k = out.len()`): each class sums its products
/// from `-0.0` in feature order, as `Iterator::sum` does, then adds its
/// bias.
#[inline(always)]
fn class_scores(weights: &[f64], x: &[f64], d: usize, out: &mut [f64]) {
    for (o, w) in out.iter_mut().zip(weights.chunks_exact(d + 1)) {
        *o = w[..d].iter().zip(x).map(|(wi, xi)| wi * xi).sum::<f64>() + w[d];
    }
}

/// Full-batch gradient descent with momentum on the mean cross-entropy
/// plus L2, over `x` (the rows, flat row-major, `d` wide) and labels `y`
/// in `0..k`; `s` is `k` slots of scratch. Returns the flat `k x (d + 1)`
/// weights.
///
/// Each iteration first takes every sample's coefficients: the scores
/// (see [`class_scores`]), their max folded in class order, `exp(s - max)`
/// and its sum in class order, and each class's `(e / sum - [c = y]) *
/// inv_n`. It then accumulates the gradient one class at a time, adding
/// the samples' terms in ascending sample order, so a class's `d + 1`
/// running sums can stay in registers. The L2 term, the gradient norm
/// and the momentum step then run over `(c, j)` in flat order. Every sum
/// adds the same terms in the same order as the per-row loop this kernel
/// replaced, so the weights match it bit for bit (the `fit_allocating`
/// test oracle).
///
/// Inlined into each call site, so a literal `(d, k)` there unrolls every
/// class and feature loop and keeps `s`, then a stack array, in registers.
#[inline(always)]
fn descend(
    params: &LogisticRegressionParams,
    x: &[f64],
    y: &[usize],
    (d, k): (usize, usize),
    s: &mut [f64],
) -> Vec<f64> {
    let width = d + 1;
    let inv_n = 1.0 / y.len() as f64;
    let mut weights = vec![0.0; k * width];
    let mut velocity = vec![0.0; k * width];
    let mut grad = vec![0.0; k * width];
    let mut coefs = vec![0.0; y.len() * k];
    let s = &mut s[..k];
    for _ in 0..params.max_iter {
        for (i, (&label, cf)) in y.iter().zip(coefs.chunks_exact_mut(k)).enumerate() {
            class_scores(&weights, &x[i * d..(i + 1) * d], d, s);
            let max = s.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mut sum = 0.0;
            for v in s.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for (c, (f, &e)) in cf.iter_mut().zip(s.iter()).enumerate() {
                *f = (e / sum - (c == label) as usize as f64) * inv_n;
            }
        }
        for (c, g) in grad.chunks_exact_mut(width).enumerate() {
            g.fill(0.0);
            for (i, cf) in coefs.chunks_exact(k).enumerate() {
                let (coef, row) = (cf[c], &x[i * d..(i + 1) * d]);
                for j in 0..d {
                    g[j] += coef * row[j];
                }
                g[d] += coef;
            }
        }
        let mut gnorm2 = 0.0;
        for c in 0..k {
            for j in 0..width {
                let i = c * width + j;
                if j < d {
                    grad[i] += params.l2 * weights[i];
                }
                gnorm2 += grad[i] * grad[i];
                velocity[i] = params.momentum * velocity[i] - params.lr * grad[i];
                weights[i] += velocity[i];
            }
        }
        if gnorm2.sqrt() < params.tol {
            break;
        }
    }
    weights
}

impl Classifier for LogisticRegression {
    fn fit(&mut self, data: &Dataset) {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        let (d, k) = (data.dim(), data.n_classes);
        self.n_classes = k;
        self.dim = d;
        let x = data.x.concat();
        // Every fit of the semi-supervised LR labeler has this shape: a
        // cluster's members in the 8-dimensional PCA embedding (the
        // paper's default `pca_dim`) over the 4 CUSP formats (COO, CSR,
        // ELL, HYB). With the literal shape LLVM unrolls the 8-wide dot
        // products and keeps the 4 scores in registers.
        self.weights = if (d, k) == (8, 4) {
            descend(&self.params, &x, &data.y, (8, 4), &mut [0.0; 4])
        } else {
            descend(&self.params, &x, &data.y, (d, k), &mut vec![0.0; k])
        };
    }

    fn predict_one(&self, x: &[f64]) -> usize {
        assert!(!self.weights.is_empty(), "predict before fit");
        assert_eq!(x.len(), self.dim, "feature width mismatch");
        let mut scores = vec![0.0; self.n_classes];
        class_scores(&self.weights, x, self.dim, &mut scores);
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

    /// `rows` rows of `d` features over `[-2, 2)` in `k` classes, row `i`
    /// labelled `label(i)`.
    fn random_set(
        rng: &mut StdRng,
        (rows, d, k): (usize, usize, usize),
        label: impl Fn(usize) -> usize,
    ) -> Dataset {
        let x = (0..rows)
            .map(|_| (0..d).map(|_| rng.gen_range(-2.0..2.0)).collect())
            .collect();
        Dataset::new(x, (0..rows).map(label).collect(), k)
    }

    /// Every fit must match the allocating loop in every weight bit: the
    /// semi-supervised LR labeler's shape (8 dims x 4 classes, 4-40
    /// members), which runs the kernel at its literal shape, and every
    /// other shape, which runs it at a runtime one. Both cover a class
    /// with no samples, a single-class set and an early stop on `tol`.
    #[test]
    fn buffered_fit_is_bit_identical_to_allocating_loop() {
        let mut rng = StdRng::seed_from_u64(11);
        let defaults = LogisticRegressionParams::default;
        let mut cases = Vec::new();
        for rows in [4, 7, 12, 20, 33, 40] {
            cases.push((defaults(), random_set(&mut rng, (rows, 8, 4), |i| i % 4)));
        }
        let skip_two = |i: usize| [0, 1, 3][i % 3];
        cases.push((defaults(), random_set(&mut rng, (15, 8, 4), skip_two)));
        cases.push((defaults(), random_set(&mut rng, (9, 8, 4), |_| 2)));
        let mut rows = 4;
        for d in [1, 3, 8, 21] {
            for k in (2..=7).filter(|&k| (d, k) != (8, 4)) {
                cases.push((defaults(), random_set(&mut rng, (rows, d, k), |i| i % k)));
                rows = 4 + (rows + 13) % 37;
            }
        }
        cases.push((defaults(), random_set(&mut rng, (11, 3, 5), skip_two)));
        cases.push((defaults(), random_set(&mut rng, (6, 21, 3), |_| 1)));
        cases.push((defaults(), random_set(&mut rng, (5, 1, 1), |_| 0)));
        // Four separated blobs in the labeler's shape, and three in two
        // dimensions, converge within `max_iter` at this tolerance.
        let early = LogisticRegressionParams {
            tol: 1e-2,
            ..Default::default()
        };
        let mut blobs4 = random_set(&mut rng, (16, 8, 4), |i| i % 4);
        for (x, &c) in blobs4.x.iter_mut().zip(&blobs4.y) {
            x[c] += 8.0;
        }
        cases.push((early.clone(), blobs4));
        cases.push((early, blobs3(12, 7)));

        let bits = |w: &[f64]| -> Vec<u64> { w.iter().map(|v| v.to_bits()).collect() };
        let mut stopped_early = Vec::new();
        for (params, data) in cases {
            let (weights, iterations) = fit_allocating(&params, &data);
            if iterations < params.max_iter {
                stopped_early.push((data.dim(), data.n_classes));
            }
            let mut lr = LogisticRegression::new(params);
            lr.fit(&data);
            assert_eq!(
                bits(&lr.weights),
                bits(&weights.concat()),
                "weights differ on {} rows x {} dims x {} classes",
                data.len(),
                data.dim(),
                data.n_classes
            );
        }
        assert!(
            stopped_early.contains(&(8, 4)),
            "no (8, 4) fit stopped early"
        );
        assert!(
            stopped_early.contains(&(2, 3)),
            "no runtime-shape fit stopped early"
        );
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
