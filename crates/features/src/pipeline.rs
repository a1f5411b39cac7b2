//! The paper's full preprocessing pipeline: transforms → min-max scaling
//! → PCA.
//!
//! [`Preprocessor::fit`] learns every stage from training feature vectors
//! and produces an 8-dimensional (configurable) embedding in which
//! Euclidean distance correlates with matrix similarity — the input space
//! of the clustering algorithms and the KNN predictor.

use crate::{FeatureVector, MinMaxScaler, Pca, TransformSet};
use serde::{Deserialize, Serialize};

/// Default PCA dimensionality used in the paper.
pub const DEFAULT_PCA_DIM: usize = 8;

/// Fitted preprocessing pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Preprocessor {
    transforms: TransformSet,
    scaler: MinMaxScaler,
    pca: Option<Pca>,
}

impl Preprocessor {
    /// Fit the pipeline on raw feature rows. `pca_dim = None` skips PCA
    /// (useful for ablations); `Some(k)` keeps the top `k` components.
    pub fn fit_rows(rows: &[Vec<f64>], pca_dim: Option<usize>) -> Self {
        let borrowed: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Self::fit_borrowed(&borrowed, pca_dim)
    }

    /// Fit the pipeline on borrowed rows without cloning the training
    /// data: each downstream stage regenerates the rows it needs through
    /// one reused buffer (`MinMaxScaler::fit_with` / `Pca::fit_with`)
    /// instead of materializing a transformed and a scaled copy of the
    /// whole corpus. The fitted stages are bit-identical to the historic
    /// materializing path (`fitting_from_borrowed_rows_is_bit_identical`
    /// proves it against an in-test reference).
    pub fn fit_borrowed(rows: &[&[f64]], pca_dim: Option<usize>) -> Self {
        assert!(!rows.is_empty(), "need training rows");
        let dim = rows[0].len();
        let transforms = TransformSet::auto(rows);
        let scaler = MinMaxScaler::fit_with(rows.len(), dim, |i, buf| {
            buf.copy_from_slice(rows[i]);
            transforms.apply_in_place(buf);
        });
        let pca = pca_dim.map(|k| {
            Pca::fit_with(rows.len(), dim, k, |i, buf| {
                buf.copy_from_slice(rows[i]);
                transforms.apply_in_place(buf);
                scaler.transform_in_place(buf);
            })
        });
        Preprocessor {
            transforms,
            scaler,
            pca,
        }
    }

    /// Fit on [`FeatureVector`]s with the paper's default 8-dim PCA.
    pub fn fit(features: &[FeatureVector]) -> Self {
        let rows: Vec<&[f64]> = features.iter().map(|f| f.as_slice()).collect();
        Self::fit_borrowed(&rows, Some(DEFAULT_PCA_DIM))
    }

    /// Fit without the transform stage (the naive pipeline the paper shows
    /// to fail); still scales and projects.
    pub fn fit_without_transforms(rows: &[Vec<f64>], pca_dim: Option<usize>) -> Self {
        assert!(!rows.is_empty(), "need training rows");
        let transforms = TransformSet::identity(rows[0].len());
        let scaler = MinMaxScaler::fit(rows);
        let scaled: Vec<Vec<f64>> = rows.iter().map(|r| scaler.transform(r)).collect();
        let pca = pca_dim.map(|k| Pca::fit(&scaled, k));
        Preprocessor {
            transforms,
            scaler,
            pca,
        }
    }

    /// Output dimensionality of the pipeline.
    pub fn out_dim(&self) -> usize {
        self.pca
            .as_ref()
            .map_or_else(|| self.scaler.dim(), |p| p.k())
    }

    /// The fitted transform stage.
    pub fn transforms(&self) -> &TransformSet {
        &self.transforms
    }

    /// The fitted scaling stage.
    pub fn scaler(&self) -> &MinMaxScaler {
        &self.scaler
    }

    /// The fitted PCA stage, if any.
    pub fn pca(&self) -> Option<&Pca> {
        self.pca.as_ref()
    }

    /// Embed one raw feature row.
    pub fn embed_row(&self, row: &[f64]) -> Vec<f64> {
        let mut scratch = vec![0.0; row.len()];
        let mut out = vec![0.0; self.out_dim()];
        self.embed_into(row, &mut scratch, &mut out);
        out
    }

    /// Embed one raw feature row into a caller-provided output buffer,
    /// allocation-free. `scratch` (length = input dim) carries the row
    /// through the in-place transform and scaling stages; `out` (length =
    /// [`Self::out_dim`]) receives the final embedding. Every stage runs
    /// the same arithmetic in the same order as the allocating path, so
    /// the embedding is bit-identical to [`Self::embed_row`].
    pub fn embed_into(&self, row: &[f64], scratch: &mut [f64], out: &mut [f64]) {
        assert_eq!(row.len(), scratch.len(), "scratch width mismatch");
        assert_eq!(out.len(), self.out_dim(), "output width mismatch");
        scratch.copy_from_slice(row);
        self.transforms.apply_in_place(scratch);
        self.scaler.transform_in_place(scratch);
        match &self.pca {
            Some(p) => p.transform_into(scratch, out),
            None => out.copy_from_slice(scratch),
        }
    }

    /// Embed one [`FeatureVector`].
    pub fn embed(&self, f: &FeatureVector) -> Vec<f64> {
        self.embed_row(f.as_slice())
    }
}

/// A pipeline fitted on a training set, with that set embedded through
/// it: the label-independent input every embedding model trains on (the
/// clusterings, the SVM and KNN). Fitting it is a pure function of the
/// feature bits and `pca_dim`, so models that train on the same set can
/// share one.
#[derive(Debug, Clone)]
pub struct Embedding {
    preprocessor: Preprocessor,
    rows: Vec<Vec<f64>>,
}

impl Embedding {
    /// Fit the pipeline with a `pca_dim`-component PCA on `features` and
    /// embed each of them: bit-identical to `Preprocessor::fit_rows` on
    /// their rows followed by `embed_row` on each.
    pub fn fit(features: &[FeatureVector], pca_dim: usize) -> Self {
        let rows: Vec<&[f64]> = features.iter().map(|f| f.as_slice()).collect();
        let preprocessor = Preprocessor::fit_borrowed(&rows, Some(pca_dim));
        let rows = rows.iter().map(|r| preprocessor.embed_row(r)).collect();
        Embedding { preprocessor, rows }
    }

    /// The fitted pipeline.
    pub fn preprocessor(&self) -> &Preprocessor {
        &self.preprocessor
    }

    /// The training set embedded, one row per feature vector.
    pub fn rows(&self) -> &[Vec<f64>] {
        &self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FeatureId;
    use spsel_matrix::{gen, CsrMatrix};

    fn corpus_features() -> Vec<FeatureVector> {
        let mut fs = Vec::new();
        for seed in 0..6 {
            fs.push(FeatureVector::from_csr(&CsrMatrix::from(
                &gen::random_uniform(100 + seed as usize * 37, 120, 5, seed),
            )));
            fs.push(FeatureVector::from_csr(&CsrMatrix::from(&gen::power_law(
                150, 150, 2, 2.2, 100, seed,
            ))));
            fs.push(FeatureVector::from_csr(&CsrMatrix::from(&gen::stencil2d(
                10 + seed as usize,
                seed,
            ))));
        }
        fs
    }

    #[test]
    fn default_pipeline_outputs_8_dims() {
        let fs = corpus_features();
        let pre = Preprocessor::fit(&fs);
        assert_eq!(pre.out_dim(), DEFAULT_PCA_DIM);
        for f in &fs {
            assert_eq!(pre.embed(f).len(), DEFAULT_PCA_DIM);
        }
    }

    #[test]
    fn no_pca_keeps_feature_count() {
        let fs = corpus_features();
        let rows: Vec<Vec<f64>> = fs.iter().map(|f| f.as_slice().to_vec()).collect();
        let pre = Preprocessor::fit_rows(&rows, None);
        assert_eq!(pre.out_dim(), crate::NUM_FEATURES);
    }

    #[test]
    fn embeddings_are_finite() {
        let fs = corpus_features();
        let pre = Preprocessor::fit(&fs);
        for f in &fs {
            for v in pre.embed(f) {
                assert!(v.is_finite());
            }
        }
    }

    #[test]
    fn transform_stage_compresses_dynamic_range() {
        // Corpus with log-spread sizes: the nnz column is heavy-tailed, so
        // the auto policy must log-transform it, and in the transformed
        // space a mid-size matrix should sit genuinely between a tiny and a
        // huge one instead of collapsing onto the tiny one.
        let mut fs = Vec::new();
        for (i, n) in [
            50usize, 70, 90, 120, 160, 220, 300, 400, 550, 750, 1000, 1400, 1900, 2600, 3500, 4800,
            6500, 8800, 12000,
        ]
        .iter()
        .enumerate()
        {
            fs.push(FeatureVector::from_csr(&CsrMatrix::from(
                &gen::random_uniform(*n, *n, 8, i as u64),
            )));
        }
        let rows: Vec<Vec<f64>> = fs.iter().map(|f| f.as_slice().to_vec()).collect();

        let with = Preprocessor::fit_rows(&rows, None);
        let without = Preprocessor::fit_without_transforms(&rows, None);
        assert_ne!(
            with.transforms().transforms()[FeatureId::Nnz.index()],
            crate::Transform::Identity,
            "nnz column must be detected as skewed"
        );

        // Look at the nnz coordinate (no PCA, so columns are preserved):
        // without transforms the mid-size matrix collapses onto the small
        // one; with the variance-stabilizing transform it sits much closer
        // to the middle of the [small, huge] interval.
        let (small, mid, huge) = (&fs[0], &fs[9], &fs[18]);
        let j = FeatureId::Nnz.index();
        let rel = |p: &Preprocessor| -> f64 {
            let (s, m, h) = (p.embed(small)[j], p.embed(mid)[j], p.embed(huge)[j]);
            (m - s) / (h - s)
        };
        let (r_with, r_without) = (rel(&with), rel(&without));
        assert!(
            r_with > 2.0 * r_without,
            "transforms should spread mid-size matrices: {r_with} vs {r_without}"
        );
    }

    #[test]
    fn fitting_from_borrowed_rows_is_bit_identical() {
        // Reference: the historic materializing path — clone the corpus,
        // materialize the transformed rows for the scaler, materialize
        // the scaled rows for PCA.
        let fs = corpus_features();
        let rows: Vec<Vec<f64>> = fs.iter().map(|f| f.as_slice().to_vec()).collect();
        let transforms = TransformSet::auto(&rows);
        let transformed: Vec<Vec<f64>> = rows.iter().map(|r| transforms.apply(r)).collect();
        let scaler = MinMaxScaler::fit(&transformed);
        let scaled: Vec<Vec<f64>> = transformed.iter().map(|r| scaler.transform(r)).collect();
        let pca = Pca::fit(&scaled, DEFAULT_PCA_DIM);

        let pre = Preprocessor::fit(&fs);
        assert_eq!(pre.transforms(), &transforms);
        assert_eq!(pre.scaler(), &scaler);
        assert_eq!(pre.pca(), Some(&pca));
    }

    #[test]
    fn embed_into_matches_embed_row_bitwise() {
        let fs = corpus_features();
        for pca_dim in [Some(DEFAULT_PCA_DIM), None] {
            let rows: Vec<Vec<f64>> = fs.iter().map(|f| f.as_slice().to_vec()).collect();
            let pre = Preprocessor::fit_rows(&rows, pca_dim);
            let mut scratch = vec![0.0; crate::NUM_FEATURES];
            let mut out = vec![0.0; pre.out_dim()];
            for f in &fs {
                pre.embed_into(f.as_slice(), &mut scratch, &mut out);
                let reference = pre.embed(f);
                let bits_a: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
                let bits_b: Vec<u64> = reference.iter().map(|v| v.to_bits()).collect();
                assert_eq!(bits_a, bits_b);
            }
        }
    }

    #[test]
    fn deterministic_fit() {
        let fs = corpus_features();
        let a = Preprocessor::fit(&fs);
        let b = Preprocessor::fit(&fs);
        for f in &fs {
            assert_eq!(a.embed(f), b.embed(f));
        }
    }
}
