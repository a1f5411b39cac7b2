//! Criterion benches backing Table 9: training time of each classifier on
//! a corpus-scale tabular problem. (The table binary measures wall-clock
//! once; these benches give statistically robust versions of the same
//! comparisons.)

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spsel_features::pipeline::DEFAULT_PCA_DIM;
use spsel_features::Preprocessor;
use spsel_ml::forest::{RandomForest, RandomForestParams};
use spsel_ml::gboost::{GradientBoosting, GradientBoostingParams};
use spsel_ml::knn::KnnClassifier;
use spsel_ml::logreg::LogisticRegression;
use spsel_ml::svm::LinearSvm;
use spsel_ml::tree::{DecisionTree, DecisionTreeParams};
use spsel_ml::{Classifier, Dataset};

/// Corpus-like training set: 1000 samples, 21 features, 4 unbalanced
/// classes.
fn dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let class = match rng.gen_range(0..100) {
            0..=66 => 1,  // CSR-dominant imbalance
            67..=92 => 2, // ELL
            93..=97 => 3, // HYB
            _ => 0,       // COO
        };
        let row: Vec<f64> = (0..21)
            .map(|j| class as f64 * 0.7 + ((j * 13) % 7) as f64 * 0.1 + rng.gen_range(-0.5..0.5))
            .collect();
        x.push(row);
        y.push(class);
    }
    Dataset::new(x, y, 4)
}

fn bench_training(c: &mut Criterion) {
    let data = dataset(1_000, 5);
    let mut group = c.benchmark_group("train_1000x21");
    group.sample_size(10);
    group.bench_function("dt", |b| {
        b.iter(|| {
            let mut m = DecisionTree::with_defaults();
            m.fit(&data);
            m
        })
    });
    group.bench_function("rf_100", |b| {
        b.iter(|| {
            let mut m = RandomForest::new(RandomForestParams::default());
            m.fit(&data);
            m
        })
    });
    group.bench_function("svm", |b| {
        b.iter(|| {
            let mut m = LinearSvm::with_defaults();
            m.fit(&data);
            m
        })
    });
    group.bench_function("knn_fit", |b| {
        b.iter(|| {
            let mut m = KnnClassifier::new(5);
            m.fit(&data);
            m
        })
    });
    group.bench_function("logreg", |b| {
        b.iter(|| {
            let mut m = LogisticRegression::with_defaults();
            m.fit(&data);
            m
        })
    });
    group.bench_function("xgboost_25r", |b| {
        b.iter(|| {
            let mut m = GradientBoosting::new(GradientBoostingParams {
                n_rounds: 25,
                ..Default::default()
            });
            m.fit(&data);
            m
        })
    });
    group.finish();
}

/// Corpus-scale tree ensembles: the two heaviest trainers at full paper
/// configuration (100 trees / 100 boosting rounds) on a 2000x21 problem,
/// the size the augmented corpus presents per GPU.
fn bench_training_corpus_scale(c: &mut Criterion) {
    let data = dataset(2_000, 5);
    let mut group = c.benchmark_group("train_2000x21");
    group.sample_size(10);
    group.bench_function("rf_100", |b| {
        b.iter(|| {
            let mut m = RandomForest::new(RandomForestParams::default());
            m.fit(&data);
            m
        })
    });
    group.bench_function("xgboost_100r", |b| {
        b.iter(|| {
            let mut m = GradientBoosting::new(GradientBoostingParams {
                n_rounds: 100,
                ..Default::default()
            });
            m.fit(&data);
            m
        })
    });
    group.finish();
}

/// A semi-supervised LR labeler's problem: the members of one cluster in
/// the 8-dimensional PCA embedding, `rows` of them over 4 classes.
fn cluster(rows: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let x = (0..rows)
        .map(|_| (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    Dataset::new(x, (0..rows).map(|i| i % 4).collect(), 4)
}

/// [`dataset`] through the tables' embedding pipeline (transforms,
/// scaling, 8-component PCA): a cross-validation fold as SVM and KNN see
/// it.
fn embedded_fold(rows: usize, seed: u64) -> Dataset {
    let data = dataset(rows, seed);
    let pre = Preprocessor::fit_rows(&data.x, Some(DEFAULT_PCA_DIM));
    let x = data.x.iter().map(|r| pre.embed_row(r)).collect();
    Dataset::new(x, data.y, data.n_classes)
}

/// The fits the quick paper tables (4, 6 and 7) actually make: one
/// cross-validation fold of the quick corpus, with the tree models at the
/// tables' quick configuration, the SVM in the fold's embedding, and the
/// LR labeler on one cluster.
fn bench_training_table_scale(c: &mut Criterion) {
    let data = dataset(160, 5);
    let fold = embedded_fold(160, 5);
    let members = cluster(12, 5);
    let mut group = c.benchmark_group("train_fold_160x21");
    group.sample_size(20);
    group.bench_function("dt_depth6", |b| {
        b.iter(|| {
            let mut m = DecisionTree::new(DecisionTreeParams {
                max_depth: Some(6),
                seed: 5,
                ..Default::default()
            });
            m.fit(&data);
            m
        })
    });
    group.bench_function("rf_20_depth6", |b| {
        b.iter(|| {
            let mut m = RandomForest::new(RandomForestParams {
                n_estimators: 20,
                max_depth: Some(6),
                seed: 5,
                ..Default::default()
            });
            m.fit(&data);
            m
        })
    });
    group.bench_function("xgboost_15r", |b| {
        b.iter(|| {
            let mut m = GradientBoosting::new(GradientBoostingParams {
                n_rounds: 15,
                ..Default::default()
            });
            m.fit(&data);
            m
        })
    });
    group.bench_function("svm_fold_160x8", |b| {
        b.iter(|| {
            let mut m = LinearSvm::with_defaults();
            m.fit(&fold);
            m
        })
    });
    group.bench_function("logreg_cluster_12x8", |b| {
        b.iter(|| {
            let mut m = LogisticRegression::with_defaults();
            m.fit(&members);
            m
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_training,
    bench_training_corpus_scale,
    bench_training_table_scale
);
criterion_main!(benches);
