//! Cross-cell fit sharing is *provably free*: every protocol in
//! `spsel_core::transfer` must produce results bit-identical to a plain
//! oracle written here — one that fits from scratch in every fold, runs
//! the folds in order and averages them in order — while actually sharing
//! fits (the pool reports hits). These tests are the equivalence proof
//! the table runners rely on.

use spsel_core::corpus::CorpusConfig;
use spsel_core::experiments::ExperimentContext;
use spsel_core::semi::{ClusterMethod, Labeler, SemiConfig, SemiSupervisedSelector};
use spsel_core::share::FitPool;
use spsel_core::speedup::{selection_quality, SelectionQuality};
use spsel_core::supervised::{SupervisedConfig, SupervisedModel, SupervisedSelector};
use spsel_core::transfer::{
    local_semi, local_supervised, transfer_semi, transfer_supervised, RetrainBudget, TransferInput,
};
use spsel_core::CoreResult;
use spsel_features::{DensityImage, FeatureVector};
use spsel_gpusim::{BenchResult, Gpu};
use spsel_matrix::Format;
use spsel_ml::cv::{stratified_kfold, stratified_subsample};

/// Bitwise equality: shared fits must not move a result by even one ulp.
fn assert_bit_identical(a: &SelectionQuality, b: &SelectionQuality, what: &str) {
    assert_eq!(a.acc.to_bits(), b.acc.to_bits(), "{what}: acc");
    assert_eq!(a.f1.to_bits(), b.f1.to_bits(), "{what}: f1");
    assert_eq!(a.mcc.to_bits(), b.mcc.to_bits(), "{what}: mcc");
    assert_eq!(a.gt.to_bits(), b.gt.to_bits(), "{what}: gt");
    assert_eq!(a.csr.to_bits(), b.csr.to_bits(), "{what}: csr");
    assert_eq!((a.threshold, a.n), (b.threshold, b.n), "{what}: counts");
}

fn context() -> ExperimentContext {
    ExperimentContext::new(CorpusConfig::small(30, 2))
}

fn pick<T: Clone>(items: &[T], indices: &[usize]) -> Vec<T> {
    indices.iter().map(|&i| items[i].clone()).collect()
}

fn labels_of(results: &[BenchResult], indices: &[usize]) -> Vec<Format> {
    indices.iter().map(|&i| results[i].best).collect()
}

/// The oracles' fold loop: serial, in fold order, averaged in fold order.
fn oracle_cv(
    truth: &[BenchResult],
    folds: usize,
    seed: u64,
    mut fold: impl FnMut(&[usize], &[usize]) -> CoreResult<SelectionQuality>,
) -> CoreResult<SelectionQuality> {
    let y: Vec<usize> = truth.iter().map(|r| r.best.index()).collect();
    let mut qualities = Vec::new();
    for (train, test) in stratified_kfold(&y, Format::COUNT, folds, seed) {
        qualities.push(fold(&train, &test)?);
    }
    Ok(SelectionQuality::average(&qualities))
}

/// A supervised fit from scratch, with the fold's images when there are
/// any, scored on the held-out matrices.
fn oracle_supervised_fold(
    features: &[FeatureVector],
    images: Option<&[Option<DensityImage>]>,
    truth: &[BenchResult],
    labels: &[Format],
    train: &[usize],
    test: &[usize],
    cfg: SupervisedConfig,
) -> CoreResult<SelectionQuality> {
    let train_images = images.map(|imgs| pick(imgs, train));
    let sel =
        SupervisedSelector::fit(&pick(features, train), train_images.as_deref(), labels, cfg)?;
    let test_images = images.map(|imgs| pick(imgs, test));
    let preds = sel.predict_batch(&pick(features, test), test_images.as_deref());
    Ok(selection_quality(&preds, &pick(truth, test)))
}

fn oracle_local_semi(
    features: &[FeatureVector],
    results: &[BenchResult],
    cfg: SemiConfig,
    folds: usize,
    seed: u64,
) -> SelectionQuality {
    oracle_cv(results, folds, seed, |train, test| {
        let sel =
            SemiSupervisedSelector::fit(&pick(features, train), &labels_of(results, train), cfg);
        let preds = sel.predict_batch(&pick(features, test));
        Ok(selection_quality(&preds, &pick(results, test)))
    })
    .unwrap()
}

fn oracle_local_supervised(
    features: &[FeatureVector],
    images: Option<&[Option<DensityImage>]>,
    results: &[BenchResult],
    cfg: SupervisedConfig,
    folds: usize,
    seed: u64,
) -> CoreResult<SelectionQuality> {
    oracle_cv(results, folds, seed, |train, test| {
        let labels = labels_of(results, train);
        oracle_supervised_fold(features, images, results, &labels, train, test, cfg)
    })
}

/// The stratified subset of `train` (as positions) that `budget`
/// benchmarks on the target, or `None` at 0 %.
fn oracle_subset(
    target: &[BenchResult],
    train: &[usize],
    budget: RetrainBudget,
    seed: u64,
) -> Option<Vec<usize>> {
    let train_y: Vec<usize> = train.iter().map(|&i| target[i].best.index()).collect();
    (budget.fraction() > 0.0)
        .then(|| stratified_subsample(&train_y, Format::COUNT, budget.fraction(), seed))
}

fn oracle_transfer_semi(
    input: TransferInput<'_>,
    cfg: SemiConfig,
    budget: RetrainBudget,
    folds: usize,
    seed: u64,
) -> SelectionQuality {
    oracle_cv(input.target, folds, seed, |train, test| {
        let mut sel = SemiSupervisedSelector::fit(
            &pick(input.features, train),
            &labels_of(input.source, train),
            cfg,
        );
        if let Some(sub) = oracle_subset(input.target, train, budget, seed) {
            let sub_labels: Vec<Format> =
                sub.iter().map(|&p| input.target[train[p]].best).collect();
            sel.relabel(&sub, &sub_labels);
        }
        let preds = sel.predict_batch(&pick(input.features, test));
        Ok(selection_quality(&preds, &pick(input.target, test)))
    })
    .unwrap()
}

fn oracle_transfer_supervised(
    input: TransferInput<'_>,
    cfg: SupervisedConfig,
    budget: RetrainBudget,
    folds: usize,
    seed: u64,
) -> CoreResult<SelectionQuality> {
    oracle_cv(input.target, folds, seed, |train, test| {
        let mut labels = labels_of(input.source, train);
        for p in oracle_subset(input.target, train, budget, seed).unwrap_or_default() {
            labels[p] = input.target[train[p]].best;
        }
        let (features, images, truth) = (input.features, input.images, input.target);
        oracle_supervised_fold(features, images, truth, &labels, train, test, cfg)
    })
}

#[test]
fn pooled_local_semi_is_bit_identical_and_actually_shares() {
    let ctx = context();
    let gpu = Gpu::Turing;
    let indices = ctx.dataset(gpu);
    let features = ctx.features(&indices);
    let results = ctx.results(gpu, &indices).unwrap();

    let pool = FitPool::new();
    for method in [
        ClusterMethod::KMeans { nc: 6 },
        ClusterMethod::MeanShift,
        ClusterMethod::Birch { nc: 6 },
    ] {
        for labeler in [
            Labeler::Vote,
            Labeler::LogisticRegression,
            Labeler::RandomForest,
        ] {
            let cfg = SemiConfig::new(method, labeler, 1);
            let oracle = oracle_local_semi(&features, &results, cfg, 3, 1);
            let pooled = local_semi(&features, &results, cfg, 3, 1, &pool);
            assert_bit_identical(
                &pooled,
                &oracle,
                &format!("{}-{}", method.name(), labeler.name()),
            );
        }
    }
    // Three labelers per method cluster identical folds: two thirds of
    // all clustering fits must come from the pool.
    assert!(
        pool.hits() >= 2 * pool.misses(),
        "{:?}",
        (pool.hits(), pool.misses())
    );
}

#[test]
fn fit_decomposes_into_fit_clustering_then_from_clustering() {
    let ctx = context();
    let indices = ctx.dataset(Gpu::Pascal);
    let features = ctx.features(&indices);
    let results = ctx.results(Gpu::Pascal, &indices).unwrap();
    let labels: Vec<_> = results.iter().map(|r| r.best).collect();

    let cfg = SemiConfig::new(ClusterMethod::KMeans { nc: 5 }, Labeler::Vote, 9);
    let direct = SemiSupervisedSelector::fit(&features, &labels, cfg);
    let fc = SemiSupervisedSelector::fit_clustering(&features, cfg.method, cfg.seed, cfg.pca_dim);
    let staged = SemiSupervisedSelector::from_clustering(&fc, &labels, cfg);
    assert!(fc.n_clusters() > 0);
    assert_eq!(
        direct.predict_batch(&features),
        staged.predict_batch(&features),
        "the two-stage fit must predict identically to the one-shot fit"
    );
}

#[test]
fn pooled_local_supervised_is_bit_identical() {
    let ctx = context();
    let gpu = Gpu::Volta;
    let indices = ctx.dataset(gpu);
    let features = ctx.features(&indices);
    let results = ctx.results(gpu, &indices).unwrap();

    let pool = FitPool::new();
    for model in [SupervisedModel::Dt, SupervisedModel::Knn] {
        let cfg = SupervisedConfig::quick(model, 3);
        let oracle = oracle_local_supervised(&features, None, &results, cfg, 3, 3).unwrap();
        let pooled = local_supervised(&features, None, &results, cfg, 3, 3, &pool).unwrap();
        assert_bit_identical(&pooled, &oracle, &format!("{model:?}"));
    }
    let misses_after_first = pool.misses();
    // Re-running an identical cell is served entirely from the pool.
    let cfg = SupervisedConfig::quick(SupervisedModel::Dt, 3);
    local_supervised(&features, None, &results, cfg, 3, 3, &pool).unwrap();
    assert_eq!(
        pool.misses(),
        misses_after_first,
        "no refit on identical cell"
    );
    assert!(pool.hits() >= 3, "per-fold fits served from the pool");
}

#[test]
fn budgets_protocol_matches_per_budget_protocol() {
    let ctx = context();
    let common = ctx.common_subset();
    let features = ctx.features(&common);
    let source = ctx.results(Gpu::Pascal, &common).unwrap();
    let target = ctx.results(Gpu::Turing, &common).unwrap();
    let input = TransferInput {
        features: &features,
        images: None,
        source: &source,
        target: &target,
    };

    let sup_cfg = SupervisedConfig::quick(SupervisedModel::Dt, 5);
    let sup = transfer_supervised(input, sup_cfg, 3, 5, &FitPool::new()).unwrap();
    let semi_cfg = SemiConfig::new(ClusterMethod::KMeans { nc: 6 }, Labeler::Vote, 5);
    let semi = transfer_semi(input, semi_cfg, 3, 5, &FitPool::new());
    for (i, budget) in RetrainBudget::ALL.into_iter().enumerate() {
        let oracle = oracle_transfer_supervised(input, sup_cfg, budget, 3, 5).unwrap();
        assert_bit_identical(&sup[i], &oracle, &format!("supervised {budget:?}"));
        let oracle = oracle_transfer_semi(input, semi_cfg, budget, 3, 5);
        assert_bit_identical(&semi[i], &oracle, &format!("semi-supervised {budget:?}"));
    }
}

#[test]
fn one_embedding_serves_svm_knn_and_every_budget_of_a_fold() {
    let ctx = context();
    let common = ctx.common_subset();
    let features = ctx.features(&common);
    let source = ctx.results(Gpu::Volta, &common).unwrap();
    let target = ctx.results(Gpu::Pascal, &common).unwrap();
    let input = TransferInput {
        features: &features,
        images: None,
        source: &source,
        target: &target,
    };

    let pool = FitPool::new();
    for model in [SupervisedModel::Svm, SupervisedModel::Knn] {
        let cfg = SupervisedConfig::quick(model, 6);
        let pooled = transfer_supervised(input, cfg, 3, 6, &pool).unwrap();
        for (i, budget) in RetrainBudget::ALL.into_iter().enumerate() {
            let oracle = oracle_transfer_supervised(input, cfg, budget, 3, 6).unwrap();
            assert_bit_identical(&pooled[i], &oracle, &format!("{model:?} {budget:?}"));
        }
    }
    // Three folds, three embeddings: both models and all three budgets of
    // a fold train in one.
    assert_eq!(pool.embedding_fits(), 3);

    // Local cross-validation on the target's labels splits the same folds,
    // so its clusterings reuse those embeddings too.
    let cfg = SemiConfig::new(ClusterMethod::KMeans { nc: 6 }, Labeler::Vote, 6);
    let pooled = local_semi(&features, &target, cfg, 3, 6, &pool);
    let oracle = oracle_local_semi(&features, &target, cfg, 3, 6);
    assert_bit_identical(&pooled, &oracle, "K-Means-VOTE in pooled embeddings");
    assert_eq!(pool.embedding_fits(), 3);
}

#[test]
fn image_models_fit_outside_the_pool_and_match_the_oracle() {
    let ctx = ExperimentContext::new(CorpusConfig::small(30, 2).with_images(16));
    let cfg = SupervisedConfig::quick(SupervisedModel::Cnn, 4);
    let pool = FitPool::new();

    let indices = ctx.dataset(Gpu::Volta);
    let features = ctx.features(&indices);
    let images = ctx.images(&indices);
    let results = ctx.results(Gpu::Volta, &indices).unwrap();
    let local = local_supervised(&features, Some(&images), &results, cfg, 3, 4, &pool).unwrap();
    let oracle = oracle_local_supervised(&features, Some(&images), &results, cfg, 3, 4).unwrap();
    assert_bit_identical(&local, &oracle, "local CNN");

    let common = ctx.common_subset();
    let features = ctx.features(&common);
    let images = ctx.images(&common);
    let source = ctx.results(Gpu::Pascal, &common).unwrap();
    let target = ctx.results(Gpu::Turing, &common).unwrap();
    let input = TransferInput {
        features: &features,
        images: Some(&images),
        source: &source,
        target: &target,
    };
    let transfer = transfer_supervised(input, cfg, 3, 4, &pool).unwrap();
    for (i, budget) in RetrainBudget::ALL.into_iter().enumerate() {
        let oracle = oracle_transfer_supervised(input, cfg, budget, 3, 4).unwrap();
        assert_bit_identical(&transfer[i], &oracle, &format!("transfer CNN {budget:?}"));
    }
    // An image tensor is not part of the pool key: CNN fits never enter it.
    assert_eq!((pool.hits(), pool.misses()), (0, 0));
}
