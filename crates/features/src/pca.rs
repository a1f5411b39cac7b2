//! Principal component analysis via cyclic Jacobi eigendecomposition.
//!
//! The feature space is tiny (21 dimensions), so a dense symmetric Jacobi
//! solver is simple, dependency-free, and numerically robust. The paper
//! projects the transformed, scaled features onto the top 8 components
//! before clustering.

/// A fitted PCA projection.
///
/// The kept components live in one contiguous row-major `k x dim` buffer
/// so a projection walks a single cache-resident block instead of
/// pointer-chasing per-component `Vec`s. The serialized form keeps the
/// original nested `components` shape (hand-written impls below), so
/// artifacts written before the flat layout load unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct Pca {
    /// Column means of the training data (length `dim`).
    mean: Vec<f64>,
    /// Principal axes, flat row-major `k x dim`, orthonormal rows sorted
    /// by decreasing eigenvalue.
    components: Vec<f64>,
    /// Number of kept components.
    k: usize,
    /// Eigenvalues (variances) of the kept components.
    explained_variance: Vec<f64>,
    /// Total variance of the training data (sum of all eigenvalues).
    total_variance: f64,
}

// The wire shape is the historic one — `components` as nested rows, same
// field names and order — so model artifacts serialized before the flat
// layout deserialize unchanged and re-serialized artifacts are
// byte-identical.
impl serde::Serialize for Pca {
    fn serialize(&self, w: &mut serde::Writer<'_>) {
        let dim = self.mean.len();
        w.begin_object();
        w.key("mean");
        self.mean.serialize(w);
        w.key("components");
        w.begin_array();
        for i in 0..self.k {
            w.element();
            self.components[i * dim..(i + 1) * dim].serialize(w);
        }
        w.end_array();
        w.key("explained_variance");
        self.explained_variance.serialize(w);
        w.key("total_variance");
        self.total_variance.serialize(w);
        w.end_object();
    }
}

impl serde::Deserialize for Pca {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let mut mean = serde::Slot::new();
        let mut components: serde::Slot<Vec<Vec<f64>>> = serde::Slot::new();
        let mut explained_variance = serde::Slot::new();
        let mut total_variance = serde::Slot::new();
        r.object("object for Pca", |r, key| match &*key {
            "mean" => mean.read(r),
            "components" => components.read(r),
            "explained_variance" => explained_variance.read(r),
            "total_variance" => total_variance.read(r),
            _ => r.skip(),
        })?;
        let mean = mean.take("mean", "Pca")?;
        let nested = components.take("components", "Pca")?;
        let k = nested.len();
        Ok(Pca {
            mean,
            components: nested.into_iter().flatten().collect(),
            k,
            explained_variance: explained_variance.take("explained_variance", "Pca")?,
            total_variance: total_variance.take("total_variance", "Pca")?,
        })
    }
}

/// Jacobi eigendecomposition of a symmetric matrix (row-major `n x n`).
/// Returns `(eigenvalues, eigenvectors)` with eigenvectors as rows, sorted
/// by decreasing eigenvalue.
pub fn symmetric_eigen(a: &[Vec<f64>]) -> (Vec<f64>, Vec<Vec<f64>>) {
    let n = a.len();
    let mut m: Vec<Vec<f64>> = a.to_vec();
    // v starts as identity; accumulates rotations (columns are eigenvectors).
    let mut v = vec![vec![0.0; n]; n];
    for (i, row) in v.iter_mut().enumerate() {
        row[i] = 1.0;
    }

    let max_sweeps = 100;
    for _ in 0..max_sweeps {
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += m[i][j] * m[i][j];
            }
        }
        if off.sqrt() < 1e-12 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                if m[p][q].abs() < 1e-300 {
                    continue;
                }
                // Classical Jacobi rotation zeroing m[p][q].
                let theta = (m[q][q] - m[p][p]) / (2.0 * m[p][q]);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for k in 0..n {
                    let (mkp, mkq) = (m[k][p], m[k][q]);
                    m[k][p] = c * mkp - s * mkq;
                    m[k][q] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let (mpk, mqk) = (m[p][k], m[q][k]);
                    m[p][k] = c * mpk - s * mqk;
                    m[q][k] = s * mpk + c * mqk;
                }
                for k in 0..n {
                    let (vkp, vkq) = (v[k][p], v[k][q]);
                    v[k][p] = c * vkp - s * vkq;
                    v[k][q] = s * vkp + c * vkq;
                }
            }
        }
    }

    let mut pairs: Vec<(f64, Vec<f64>)> = (0..n)
        .map(|i| (m[i][i], (0..n).map(|k| v[k][i]).collect()))
        .collect();
    pairs.sort_by(|a, b| b.0.total_cmp(&a.0));
    let eigenvalues = pairs.iter().map(|(e, _)| *e).collect();
    let eigenvectors = pairs.into_iter().map(|(_, v)| v).collect();
    (eigenvalues, eigenvectors)
}

impl Pca {
    /// Fit a `k`-component PCA on training rows.
    ///
    /// # Panics
    /// Panics if `rows` is empty, rows have inconsistent widths, or
    /// `k == 0`. `k` is clamped to the data dimension.
    pub fn fit(rows: &[Vec<f64>], k: usize) -> Self {
        assert!(!rows.is_empty(), "need training rows to fit PCA");
        let dim = rows[0].len();
        for r in rows {
            assert_eq!(r.len(), dim, "row width mismatch");
        }
        Self::fit_with(rows.len(), dim, k, |i, buf| buf.copy_from_slice(&rows[i]))
    }

    /// Fit a `k`-component PCA over `n` rows produced on demand:
    /// `fill(i, buf)` writes row `i` into the single reused buffer (it is
    /// called twice per row — mean pass, then covariance pass). Visits
    /// rows in index order with the same accumulation, so the fitted
    /// projection is bit-identical to [`Pca::fit`] on materialized rows.
    ///
    /// # Panics
    /// Panics if `n == 0` or `k == 0`. `k` is clamped to `dim`.
    pub fn fit_with(
        n: usize,
        dim: usize,
        k: usize,
        mut fill: impl FnMut(usize, &mut [f64]),
    ) -> Self {
        assert!(n > 0, "need training rows to fit PCA");
        assert!(k > 0, "need at least one component");
        let k = k.min(dim);

        let mut buf = vec![0.0; dim];
        let mut mean = vec![0.0; dim];
        for i in 0..n {
            fill(i, &mut buf);
            for j in 0..dim {
                mean[j] += buf[j];
            }
        }
        for mj in mean.iter_mut() {
            *mj /= n as f64;
        }

        // Covariance matrix (population normalization; the constant factor
        // does not affect component directions).
        let mut cov = vec![vec![0.0; dim]; dim];
        for r in 0..n {
            fill(r, &mut buf);
            for i in 0..dim {
                let di = buf[i] - mean[i];
                for j in i..dim {
                    cov[i][j] += di * (buf[j] - mean[j]);
                }
            }
        }
        for i in 0..dim {
            for j in i..dim {
                cov[i][j] /= n as f64;
                cov[j][i] = cov[i][j];
            }
        }

        let (eigenvalues, eigenvectors) = symmetric_eigen(&cov);
        let total_variance: f64 = eigenvalues.iter().map(|e| e.max(0.0)).sum();
        Pca {
            mean,
            components: eigenvectors.into_iter().take(k).flatten().collect(),
            k,
            explained_variance: eigenvalues
                .into_iter()
                .take(k)
                .map(|e| e.max(0.0))
                .collect(),
            total_variance,
        }
    }

    /// Number of kept components.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Input dimension.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Variance captured by each kept component.
    pub fn explained_variance(&self) -> &[f64] {
        &self.explained_variance
    }

    /// Fraction of total variance captured by the kept components.
    pub fn explained_variance_ratio(&self) -> f64 {
        if self.total_variance <= 0.0 {
            1.0
        } else {
            self.explained_variance.iter().sum::<f64>() / self.total_variance
        }
    }

    /// Project a row onto the kept components.
    pub fn transform(&self, row: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.k];
        self.transform_into(row, &mut out);
        out
    }

    /// Project a row into a caller-provided buffer of length `k`,
    /// allocation-free. Each output is the sequential dot product
    /// `sum_j c[j] * (x[j] - m[j])` in increasing `j` from 0.0 — the same
    /// accumulation order as the historic nested-`Vec` path, so results
    /// are bit-identical.
    pub fn transform_into(&self, row: &[f64], out: &mut [f64]) {
        assert_eq!(row.len(), self.dim(), "row width mismatch");
        assert_eq!(out.len(), self.k, "output width mismatch");
        let dim = self.dim();
        for (i, o) in out.iter_mut().enumerate() {
            let comp = &self.components[i * dim..(i + 1) * dim];
            let mut acc = 0.0;
            for j in 0..dim {
                acc += comp[j] * (row[j] - self.mean[j]);
            }
            *o = acc;
        }
    }

    /// Map a projected point back into the original space (lossy if
    /// `k < dim`).
    pub fn inverse_transform(&self, z: &[f64]) -> Vec<f64> {
        assert_eq!(z.len(), self.k(), "component count mismatch");
        let dim = self.dim();
        let mut out = self.mean.clone();
        for (zi, comp) in z.iter().zip(self.components.chunks_exact(dim)) {
            for (o, c) in out.iter_mut().zip(comp) {
                *o += zi * c;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn eigen_of_diagonal_matrix() {
        let a = vec![
            vec![3.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 2.0],
        ];
        let (vals, vecs) = symmetric_eigen(&a);
        assert!((vals[0] - 3.0).abs() < 1e-10);
        assert!((vals[1] - 2.0).abs() < 1e-10);
        assert!((vals[2] - 1.0).abs() < 1e-10);
        assert!((vecs[0][0].abs() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn eigen_satisfies_definition() {
        let a = vec![
            vec![4.0, 1.0, 0.5],
            vec![1.0, 3.0, -0.2],
            vec![0.5, -0.2, 1.0],
        ];
        let (vals, vecs) = symmetric_eigen(&a);
        for (lambda, v) in vals.iter().zip(&vecs) {
            // || A v - lambda v || small
            for i in 0..3 {
                let av: f64 = (0..3).map(|j| a[i][j] * v[j]).sum();
                assert!((av - lambda * v[i]).abs() < 1e-8);
            }
        }
        // Orthonormal eigenvectors.
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot(&vecs[i], &vecs[j]) - expect).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn pca_finds_dominant_direction() {
        // Points along the (1, 1) diagonal with tiny orthogonal noise.
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| {
                let t = i as f64 / 10.0;
                let noise = if i % 2 == 0 { 0.01 } else { -0.01 };
                vec![t + noise, t - noise]
            })
            .collect();
        let pca = Pca::fit(&rows, 1);
        assert_eq!(pca.k(), 1);
        // First axis should be close to (1, 1)/sqrt(2) up to sign.
        let c = &pca.transform(&[1.0 + rows[0][0], 1.0 + rows[0][1]]);
        let c0 = &pca.transform(&[rows[0][0], rows[0][1]]);
        assert!(
            (c[0] - c0[0]).abs() > 1.0,
            "diagonal step should move the projection strongly"
        );
        assert!(pca.explained_variance_ratio() > 0.99);
    }

    #[test]
    fn transform_inverse_roundtrip_full_rank() {
        let rows = vec![
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 7.0],
            vec![-1.0, 0.5, 2.0],
            vec![2.0, -2.0, 1.0],
        ];
        let pca = Pca::fit(&rows, 3);
        for r in &rows {
            let back = pca.inverse_transform(&pca.transform(r));
            for (a, b) in r.iter().zip(&back) {
                assert!((a - b).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn k_is_clamped_to_dim() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![0.0, 1.0]];
        let pca = Pca::fit(&rows, 10);
        assert_eq!(pca.k(), 2);
    }

    #[test]
    fn projection_of_mean_is_origin() {
        let rows = vec![vec![2.0, 4.0], vec![4.0, 8.0], vec![6.0, 6.0]];
        let pca = Pca::fit(&rows, 2);
        let mean = [4.0, 6.0];
        for z in pca.transform(&mean) {
            assert!(z.abs() < 1e-10);
        }
    }

    #[test]
    fn constant_data_yields_zero_variance() {
        let rows = vec![vec![5.0, 5.0]; 10];
        let pca = Pca::fit(&rows, 2);
        assert!(pca.explained_variance().iter().all(|&v| v.abs() < 1e-12));
        assert_eq!(pca.explained_variance_ratio(), 1.0);
    }

    #[test]
    fn wire_shape_is_nested_and_round_trips() {
        use serde::{Deserialize, Reader, Serialize, Value, Writer};
        let rows = vec![
            vec![1.0, 2.0, 3.0],
            vec![4.0, 0.5, 6.0],
            vec![7.0, 8.0, 0.25],
            vec![2.0, 9.0, 4.0],
        ];
        let pca = Pca::fit(&rows, 2);

        // The artifact format predates the flat component buffer: an
        // object with these exact field names in this exact order, with
        // `components` as one nested row per kept component.
        let mut json = Vec::new();
        pca.serialize(&mut Writer::compact(&mut json));
        let json = String::from_utf8(json).unwrap();
        let v = Value::deserialize(&mut Reader::new(&json)).unwrap();
        let Value::Object(fields) = &v else {
            panic!("expected object")
        };
        let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            ["mean", "components", "explained_variance", "total_variance"]
        );
        let Value::Array(comps) = &fields[1].1 else {
            panic!("components must be nested rows")
        };
        assert_eq!(comps.len(), pca.k());
        assert!(comps
            .iter()
            .all(|c| matches!(c, Value::Array(row) if row.len() == 3)));

        let back = Pca::deserialize(&mut Reader::new(&json)).unwrap();
        assert_eq!(back, pca);
        for (a, b) in back.transform(&rows[0]).iter().zip(pca.transform(&rows[0])) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
