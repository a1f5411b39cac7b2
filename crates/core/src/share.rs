//! Cross-cell sharing of fitted models (the training hot path).
//!
//! Table cells are independent experiments, but many of them train on
//! the *same data*: Table 4's three labeler columns cluster the same
//! `(GPU, fold)` split with the same method before labeling it three
//! different ways, Tables 5 and 7's three retraining budgets start from
//! the same fold (and often reduce to identical label vectors on it),
//! and every clustering, SVM and KNN of a fold trains in the same
//! embedding of it. [`FitPool`] is a content-addressed pool of fitted
//! artifacts: callers key a fit by the exact bit patterns of everything
//! that determines it (feature values, labels, method, seed, PCA
//! dimension), so two cells that would compute the same model compute it
//! once — and a cell that would not, never shares by accident. Keys use
//! the cache layer's [`KeyWriter`] FNV hashing, over a word-at-a-time
//! digest of the feature bits.
//!
//! The pool holds three kinds of fit, and each builds on the first:
//!
//! * an [`Embedding`] of a training set (the transform → scale → PCA
//!   pipeline and the embedded rows), keyed by the features and
//!   `pca_dim`;
//! * a clustering, keyed by the features, method, seed and `pca_dim`,
//!   clustered in the pooled embedding;
//! * a supervised selector, keyed by the features, labels and config;
//!   SVM and KNN train in the pooled embedding.
//!
//! The pool is an in-memory, per-run structure shared across a table's
//! parallel cells; fits never run under the pool lock, so concurrent
//! cells that race on the same key at worst duplicate a deterministic
//! fit (first insert wins).

use crate::cache::KeyWriter;
use crate::error::CoreResult;
use crate::semi::{ClusterMethod, FittedClustering, SemiSupervisedSelector};
use crate::supervised::{SupervisedConfig, SupervisedSelector};
use spsel_features::{Embedding, FeatureVector};
use spsel_matrix::Format;
use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The fits of one kind, by key, and how many lookups each way went.
struct Shelf<T> {
    fits: Mutex<HashMap<u64, Arc<T>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<T> Default for Shelf<T> {
    fn default() -> Self {
        Shelf {
            fits: Mutex::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl<T> Shelf<T> {
    /// The fit under `key`, computed by `fit` (outside the lock) if absent.
    fn get_or_fit(&self, key: u64, fit: impl FnOnce() -> T) -> Arc<T> {
        let Ok(fitted) = self.get_or_try_fit(key, || Ok::<_, Infallible>(fit()));
        fitted
    }

    /// As `get_or_fit`, for a fit that can fail; a failure is not stored.
    fn get_or_try_fit<E>(&self, key: u64, fit: impl FnOnce() -> Result<T, E>) -> Result<Arc<T>, E> {
        if let Some(found) = self.fits.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(found.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let fitted = Arc::new(fit()?);
        Ok(self
            .fits
            .lock()
            .unwrap()
            .entry(key)
            .or_insert(fitted)
            .clone())
    }
}

/// Content-addressed pool of fitted embeddings, clusterings and
/// supervised models.
#[derive(Default)]
pub struct FitPool {
    embeddings: Shelf<Embedding>,
    clusterings: Shelf<FittedClustering>,
    supervised: Shelf<SupervisedSelector>,
}

/// Feed a training set: its row count, then one digest of every
/// feature's bit pattern in row order. The digest chains a 128-bit
/// multiply-fold a 64-bit word at a time, an eighth of the steps of
/// feeding the same bits to [`KeyWriter`] byte by byte. Pool keys never
/// leave memory, so nothing persisted depends on this digest.
fn feed_features(w: &mut KeyWriter, features: &[FeatureVector]) {
    let mut h: u64 = 0x243f_6a88_85a3_08d3;
    for f in features {
        for &v in f.as_slice() {
            let m = u128::from(h ^ v.to_bits()) * 0x9e37_79b9_7f4a_7c15;
            h = (m as u64) ^ (m >> 64) as u64;
        }
    }
    w.usize(features.len());
    w.u64(h);
}

fn feed_method(w: &mut KeyWriter, method: ClusterMethod) {
    match method {
        ClusterMethod::KMeans { nc } => {
            w.str("kmeans");
            w.usize(nc);
        }
        ClusterMethod::MeanShift => w.str("meanshift"),
        ClusterMethod::Birch { nc } => {
            w.str("birch");
            w.usize(nc);
        }
    }
}

impl FitPool {
    /// Fresh, empty pool.
    pub fn new() -> Self {
        FitPool::default()
    }

    /// Fits of any kind served from the pool instead of recomputed.
    pub fn hits(&self) -> u64 {
        let shelves = [
            &self.embeddings.hits,
            &self.clusterings.hits,
            &self.supervised.hits,
        ];
        shelves.iter().map(|n| n.load(Ordering::Relaxed)).sum()
    }

    /// Fits of any kind actually computed.
    pub fn misses(&self) -> u64 {
        let shelves = [
            &self.embeddings.misses,
            &self.clusterings.misses,
            &self.supervised.misses,
        ];
        shelves.iter().map(|n| n.load(Ordering::Relaxed)).sum()
    }

    /// Embeddings actually computed (preprocessing pipeline fits).
    pub fn embedding_fits(&self) -> u64 {
        self.embeddings.misses.load(Ordering::Relaxed)
    }

    /// The embedding of `features` with a `pca_dim`-component PCA —
    /// fitted at most once per pool, whatever model (or table cell)
    /// trains in it.
    pub(crate) fn embedding(&self, features: &[FeatureVector], pca_dim: usize) -> Arc<Embedding> {
        let mut w = KeyWriter::new();
        w.str("embedding");
        w.usize(pca_dim);
        feed_features(&mut w, features);
        self.embeddings
            .get_or_fit(w.finish(), || Embedding::fit(features, pca_dim))
    }

    /// The clustering of `(features, method, seed, pca_dim)` — fitted at
    /// most once per pool, whatever labeler (or table cell) asks for it,
    /// in the pooled embedding of `(features, pca_dim)`.
    pub fn clustering(
        &self,
        features: &[FeatureVector],
        method: ClusterMethod,
        seed: u64,
        pca_dim: usize,
    ) -> Arc<FittedClustering> {
        let mut w = KeyWriter::new();
        w.str("clustering");
        feed_method(&mut w, method);
        w.u64(seed);
        w.usize(pca_dim);
        feed_features(&mut w, features);
        self.clusterings.get_or_fit(w.finish(), || {
            let embedding = self.embedding(features, pca_dim);
            SemiSupervisedSelector::cluster(embedding, method, seed)
        })
    }

    /// The supervised selector of `(features, labels, cfg)` — for models
    /// trained on features alone (CNN cells carry density images and fit
    /// outside the pool). Budgets or cells whose label vectors coincide
    /// on the same fold share one fit, and SVM and KNN train in the
    /// pooled embedding of the features, so one embedding serves both
    /// models and every label vector of a fold.
    pub fn supervised(
        &self,
        features: &[FeatureVector],
        labels: &[Format],
        cfg: SupervisedConfig,
    ) -> CoreResult<Arc<SupervisedSelector>> {
        let mut w = KeyWriter::new();
        w.str("supervised");
        w.str(&serde_json::to_string(&cfg).expect("supervised config serializes"));
        w.usize(labels.len());
        for l in labels {
            w.usize(l.index());
        }
        feed_features(&mut w, features);
        self.supervised.get_or_try_fit(w.finish(), || {
            SupervisedSelector::fit_with_embedding(features, None, labels, cfg, |dim| {
                self.embedding(features, dim)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spsel_features::NUM_FEATURES;

    fn key(features: &[FeatureVector]) -> u64 {
        let mut w = KeyWriter::new();
        feed_features(&mut w, features);
        w.finish()
    }

    /// The feature digest sees every bit and the order of the rows.
    #[test]
    fn feature_keys_tell_signed_zeros_and_row_order_apart() {
        let row = |first: f64| {
            let mut values = [1.5; NUM_FEATURES];
            values[0] = first;
            FeatureVector::from_raw(values)
        };
        assert_ne!(key(&[row(0.0)]), key(&[row(-0.0)]));
        assert_ne!(key(&[row(2.0), row(3.0)]), key(&[row(3.0), row(2.0)]));
        assert_ne!(key(&[row(2.0)]), key(&[row(2.0), row(2.0)]));
        assert_eq!(key(&[row(2.0), row(3.0)]), key(&[row(2.0), row(3.0)]));
    }
}
