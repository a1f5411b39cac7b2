//! Evaluation protocols: local k-fold cross-validation (Tables 4 and 6)
//! and the cross-architecture transfer experiment with 0 / 25 / 50 %
//! retraining (Tables 5 and 7), one function each over one fold driver.
//!
//! Folds run through the parallel runtime's index-addressed drivers: every
//! fold derives from the same `(folds, seed)` split and writes only its own
//! output slot, so serial and parallel runs are bit-identical at any worker
//! count (`tests/thread_sweep.rs` proves it). Every protocol fits
//! through a shared [`FitPool`], so cells that would train an identical
//! model — or an identical embedding, or clustering — fit it once;
//! `tests/share.rs` proves every protocol bit-identical to a plain oracle
//! that fits from scratch in every fold.

use crate::error::CoreResult;
use crate::semi::{SemiConfig, SemiSupervisedSelector};
use crate::share::FitPool;
use crate::speedup::{selection_quality, SelectionQuality};
use crate::supervised::{SupervisedConfig, SupervisedSelector};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use spsel_features::{DensityImage, FeatureVector};
use spsel_gpusim::BenchResult;
use spsel_matrix::Format;
use spsel_ml::cv::{stratified_kfold, stratified_subsample};
use std::sync::Arc;

/// Fraction of target-architecture training data available for retraining.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RetrainBudget {
    /// Direct transfer, no target benchmarks.
    Zero,
    /// 25 % of the training data benchmarked on the target.
    Quarter,
    /// 50 % of the training data benchmarked on the target.
    Half,
}

impl RetrainBudget {
    /// The paper's three budgets in column order.
    pub const ALL: [RetrainBudget; 3] = [
        RetrainBudget::Zero,
        RetrainBudget::Quarter,
        RetrainBudget::Half,
    ];

    /// The fraction of training data this budget benchmarks.
    pub fn fraction(self) -> f64 {
        match self {
            RetrainBudget::Zero => 0.0,
            RetrainBudget::Quarter => 0.25,
            RetrainBudget::Half => 0.5,
        }
    }

    /// Column header used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            RetrainBudget::Zero => "0%",
            RetrainBudget::Quarter => "25%",
            RetrainBudget::Half => "50%",
        }
    }
}

/// Everything a transfer experiment needs about the common-subset corpus.
#[derive(Debug, Clone, Copy)]
pub struct TransferInput<'a> {
    /// Features of the common-subset matrices.
    pub features: &'a [FeatureVector],
    /// Density images (only needed for CNN models).
    pub images: Option<&'a [Option<DensityImage>]>,
    /// Benchmark results on the *source* architecture.
    pub source: &'a [BenchResult],
    /// Benchmark results on the *target* architecture.
    pub target: &'a [BenchResult],
}

fn labels_of(results: &[BenchResult], indices: &[usize]) -> Vec<Format> {
    indices.iter().map(|&i| results[i].best).collect()
}

fn results_of(results: &[BenchResult], indices: &[usize]) -> Vec<BenchResult> {
    indices.iter().map(|&i| results[i]).collect()
}

fn features_of(features: &[FeatureVector], indices: &[usize]) -> Vec<FeatureVector> {
    indices.iter().map(|&i| features[i].clone()).collect()
}

fn images_of(
    images: Option<&[Option<DensityImage>]>,
    indices: &[usize],
) -> Option<Vec<Option<DensityImage>>> {
    images.map(|imgs| indices.iter().map(|&i| imgs[i].clone()).collect())
}

/// The fold driver of every protocol: a stratified k-fold split on the
/// best formats of `truth`, `cell(train, test)` run on every fold through
/// the parallel runtime, and each of the cell's `N` slots averaged over
/// the folds in fold order. The first failing fold's error wins.
fn cross_validate<const N: usize>(
    truth: &[BenchResult],
    folds: usize,
    seed: u64,
    cell: impl Fn(&[usize], &[usize]) -> CoreResult<[SelectionQuality; N]> + Send + Sync,
) -> CoreResult<[SelectionQuality; N]> {
    let y: Vec<usize> = truth.iter().map(|r| r.best.index()).collect();
    let per_fold: Vec<[SelectionQuality; N]> = stratified_kfold(&y, Format::COUNT, folds, seed)
        .par_iter()
        .map(|(train, test)| cell(train, test))
        .collect::<Vec<_>>()
        .into_iter()
        .collect::<CoreResult<_>>()?;
    Ok(std::array::from_fn(|slot| {
        let per_slot: Vec<SelectionQuality> = per_fold.iter().map(|q| q[slot]).collect();
        SelectionQuality::average(&per_slot)
    }))
}

/// The positions within `train` that each budget benchmarks on the target:
/// a stratified subset by target label, `None` at 0 %.
fn retrain_subsets(target: &[BenchResult], train: &[usize], seed: u64) -> [Option<Vec<usize>>; 3] {
    let train_y: Vec<usize> = train.iter().map(|&i| target[i].best.index()).collect();
    RetrainBudget::ALL.map(|budget| {
        (budget.fraction() > 0.0)
            .then(|| stratified_subsample(&train_y, Format::COUNT, budget.fraction(), seed))
    })
}

/// Fit a supervised model. Featural models come from the pool; with
/// images (CNN) the model fits directly, because an image tensor is not
/// part of the pool key.
fn fit_supervised(
    features: &[FeatureVector],
    images: Option<&[Option<DensityImage>]>,
    labels: &[Format],
    cfg: SupervisedConfig,
    pool: &FitPool,
) -> CoreResult<Arc<SupervisedSelector>> {
    match images {
        None => pool.supervised(features, labels, cfg),
        Some(_) => SupervisedSelector::fit(features, images, labels, cfg).map(Arc::new),
    }
}

/// Local protocol for the semi-supervised selector (Table 4): k-fold
/// cross-validation with training and evaluation on the same
/// architecture. Each fold's clustering comes from `pool`, so cells that
/// train different labelers on the same `(features, method, seed)` fold
/// fit it once; `SemiSupervisedSelector::fit` is definitionally
/// `from_clustering(fit_clustering(..))`, so sharing moves no bit.
pub fn local_semi(
    features: &[FeatureVector],
    results: &[BenchResult],
    cfg: SemiConfig,
    folds: usize,
    seed: u64,
    pool: &FitPool,
) -> SelectionQuality {
    let [q] = cross_validate(results, folds, seed, |train, test| {
        let fc = pool.clustering(
            &features_of(features, train),
            cfg.method,
            cfg.seed,
            cfg.pca_dim,
        );
        let sel = SemiSupervisedSelector::from_clustering(&fc, &labels_of(results, train), cfg);
        let preds = sel.predict_batch(&features_of(features, test));
        Ok([selection_quality(&preds, &results_of(results, test))])
    })
    .expect("semi-supervised folds do not fail");
    q
}

/// Local protocol for a supervised model (Table 6). Errors when the model
/// cannot be fit (e.g. CNN without images) instead of panicking.
pub fn local_supervised(
    features: &[FeatureVector],
    images: Option<&[Option<DensityImage>]>,
    results: &[BenchResult],
    cfg: SupervisedConfig,
    folds: usize,
    seed: u64,
    pool: &FitPool,
) -> CoreResult<SelectionQuality> {
    let [q] = cross_validate(results, folds, seed, |train, test| {
        let sel = fit_supervised(
            &features_of(features, train),
            images_of(images, train).as_deref(),
            &labels_of(results, train),
            cfg,
            pool,
        )?;
        let test_images = images_of(images, test);
        let preds = sel.predict_batch(&features_of(features, test), test_images.as_deref());
        Ok([selection_quality(&preds, &results_of(results, test))])
    })?;
    Ok(q)
}

/// Transfer protocol for the semi-supervised selector (Table 5) at all
/// three retraining budgets: the clustering is fitted *once* per fold on
/// the training fold and labeled with *source* labels, then cloned and
/// relabeled with *target* benchmarks of a stratified subset for each
/// nonzero budget. Evaluation is against the target ground truth on the
/// held-out fold. The folds depend only on the target's labels, so the
/// clustering comes from `pool`: every labeler, and every source GPU of
/// one target, shares it.
pub fn transfer_semi(
    input: TransferInput<'_>,
    cfg: SemiConfig,
    folds: usize,
    seed: u64,
    pool: &FitPool,
) -> [SelectionQuality; 3] {
    cross_validate(input.target, folds, seed, |train, test| {
        let fc = pool.clustering(
            &features_of(input.features, train),
            cfg.method,
            cfg.seed,
            cfg.pca_dim,
        );
        let base =
            SemiSupervisedSelector::from_clustering(&fc, &labels_of(input.source, train), cfg);
        let test_features = features_of(input.features, test);
        let test_results = results_of(input.target, test);
        Ok(retrain_subsets(input.target, train, seed).map(|subset| {
            let preds = match subset {
                Some(sub) => {
                    let sub_labels: Vec<Format> =
                        sub.iter().map(|&p| input.target[train[p]].best).collect();
                    let mut sel = base.clone();
                    sel.relabel(&sub, &sub_labels);
                    sel.predict_batch(&test_features)
                }
                None => base.predict_batch(&test_features),
            };
            selection_quality(&preds, &test_results)
        }))
    })
    .expect("semi-supervised folds do not fail")
}

/// Transfer protocol for a supervised model (Table 7) at all three
/// retraining budgets: the model trains on the training fold where the
/// budget's subset carries target labels and the rest carries source
/// labels; evaluation is against the target ground truth on the held-out
/// fold. Budgets whose label vectors coincide on a fold share one fit
/// through `pool`.
pub fn transfer_supervised(
    input: TransferInput<'_>,
    cfg: SupervisedConfig,
    folds: usize,
    seed: u64,
    pool: &FitPool,
) -> CoreResult<[SelectionQuality; 3]> {
    cross_validate(input.target, folds, seed, |train, test| {
        let train_features = features_of(input.features, train);
        let train_images = images_of(input.images, train);
        let test_features = features_of(input.features, test);
        let test_images = images_of(input.images, test);
        let test_results = results_of(input.target, test);
        let source_labels = labels_of(input.source, train);
        let mut qs = Vec::with_capacity(RetrainBudget::ALL.len());
        for subset in retrain_subsets(input.target, train, seed) {
            let mut labels = source_labels.clone();
            for &p in subset.iter().flatten() {
                labels[p] = input.target[train[p]].best;
            }
            let sel = fit_supervised(&train_features, train_images.as_deref(), &labels, cfg, pool)?;
            let preds = sel.predict_batch(&test_features, test_images.as_deref());
            qs.push(selection_quality(&preds, &test_results));
        }
        Ok([qs[0], qs[1], qs[2]])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semi::{ClusterMethod, Labeler};
    use crate::supervised::SupervisedModel;
    use spsel_gpusim::SpmvTimes;
    use spsel_matrix::{gen, CsrMatrix};

    /// Synthetic two-population problem with architecture-dependent labels:
    /// population A is ELL on the source but CSR on the target.
    fn problem() -> (Vec<FeatureVector>, Vec<BenchResult>, Vec<BenchResult>) {
        let mut features = Vec::new();
        let mut source = Vec::new();
        let mut target = Vec::new();
        let mk = |best: Format| -> BenchResult {
            let mut us = [10.0; 4];
            us[best.index()] = 5.0;
            BenchResult {
                times: SpmvTimes { us },
                best,
            }
        };
        for s in 0..30u64 {
            features.push(FeatureVector::from_csr(&CsrMatrix::from(&gen::stencil2d(
                10 + s as usize % 7,
                s,
            ))));
            source.push(mk(Format::Ell));
            target.push(mk(Format::Csr));
            features.push(FeatureVector::from_csr(&CsrMatrix::from(&gen::power_law(
                250, 250, 2, 2.4, 100, s,
            ))));
            source.push(mk(Format::Csr));
            target.push(mk(Format::Csr));
        }
        (features, source, target)
    }

    #[test]
    fn local_semi_beats_chance() {
        let (features, source, _) = problem();
        let q = local_semi(
            &features,
            &source,
            SemiConfig::new(ClusterMethod::KMeans { nc: 8 }, Labeler::Vote, 1),
            5,
            1,
            &FitPool::new(),
        );
        assert!(q.acc > 0.8, "acc {}", q.acc);
        assert!(q.mcc > 0.5, "mcc {}", q.mcc);
    }

    #[test]
    fn retraining_repairs_transfer() {
        let (features, source, target) = problem();
        let input = TransferInput {
            features: &features,
            images: None,
            source: &source,
            target: &target,
        };
        let cfg = SemiConfig::new(ClusterMethod::KMeans { nc: 8 }, Labeler::Vote, 1);
        let [q0, _, q50] = transfer_semi(input, cfg, 5, 2, &FitPool::new());
        // At 0% the selector predicts ELL for population A (source labels)
        // but the target wants CSR, so accuracy is ~0.5; retraining fixes it.
        assert!(q0.acc < 0.75, "0% acc {}", q0.acc);
        assert!(q50.acc > 0.9, "50% acc {}", q50.acc);
    }

    #[test]
    fn supervised_transfer_also_improves_with_budget() {
        let (features, source, target) = problem();
        let input = TransferInput {
            features: &features,
            images: None,
            source: &source,
            target: &target,
        };
        let cfg = SupervisedConfig::quick(SupervisedModel::Dt, 3);
        let [q0, _, q50] = transfer_supervised(input, cfg, 5, 2, &FitPool::new()).unwrap();
        // At 0% population A carries only stale source labels (~50%
        // overall accuracy); at 50% half of its labels are corrected, so
        // accuracy must rise markedly (though mixed labels cap it).
        assert!(q50.acc > q0.acc + 0.1, "50% {} vs 0% {}", q50.acc, q0.acc);
        assert!(q50.acc > 0.65, "50% acc {}", q50.acc);
    }

    #[test]
    fn local_supervised_learns() {
        let (features, source, _) = problem();
        let q = local_supervised(
            &features,
            None,
            &source,
            SupervisedConfig::quick(SupervisedModel::Rf, 5),
            5,
            3,
            &FitPool::new(),
        )
        .unwrap();
        assert!(q.acc > 0.85, "acc {}", q.acc);
    }
}
