//! Thread-count sweep: the rayon shim's index-addressed slots promise
//! bit-identical output at any worker count. Prove it end-to-end through
//! corpus generation, benchmarking, and the fault-tolerant measurement
//! path (`SPSEL_THREADS` offers the same control from the environment).

use spselect::core::corpus::{Corpus, CorpusConfig};
use spselect::core::experiments::ExperimentContext;
use spselect::core::semi::{ClusterMethod, Labeler, SemiConfig};
use spselect::core::share::FitPool;
use spselect::core::speedup::SelectionQuality;
use spselect::core::supervised::{SupervisedConfig, SupervisedModel};
use spselect::core::transfer::{local_semi, local_supervised};
use spselect::gpusim::{FaultConfig, Gpu, TrialPolicy};

#[test]
fn corpus_and_benches_are_bit_identical_at_any_worker_count() {
    let cfg = CorpusConfig::small(24, 99);
    let faults = FaultConfig::uniform(0.05, 7);
    let policy = TrialPolicy::default();

    let build = || {
        let corpus = Corpus::build(cfg.clone());
        let benches: Vec<_> = Gpu::ALL.iter().map(|&g| corpus.benchmark(g)).collect();
        let measured: Vec<_> = Gpu::ALL
            .iter()
            .map(|&g| corpus.measure(g, &faults, &policy).results())
            .collect();
        (corpus, benches, measured)
    };

    rayon::set_threads(Some(1));
    let (base_corpus, base_benches, base_measured) = build();
    let base_ids: Vec<u64> = base_corpus.records.iter().map(|r| r.id).collect();

    for workers in [2, 4, 8] {
        rayon::set_threads(Some(workers));
        let (corpus, benches, measured) = build();
        let ids: Vec<u64> = corpus.records.iter().map(|r| r.id).collect();
        assert_eq!(ids, base_ids, "{workers} workers: corpus diverged");
        for (g, gpu) in Gpu::ALL.iter().enumerate() {
            for i in 0..corpus.len() {
                let same_bench = match (benches[g][i], base_benches[g][i]) {
                    (Some(a), Some(b)) => {
                        a.times.us.map(f64::to_bits) == b.times.us.map(f64::to_bits)
                    }
                    (None, None) => true,
                    _ => false,
                };
                assert!(
                    same_bench,
                    "{workers} workers: {gpu} bench record {i} diverged"
                );
                let same_measured = match (measured[g][i], base_measured[g][i]) {
                    (Some(a), Some(b)) => {
                        a.times.us.map(f64::to_bits) == b.times.us.map(f64::to_bits)
                    }
                    (None, None) => true,
                    _ => false,
                };
                assert!(
                    same_measured,
                    "{workers} workers: {gpu} faulty measurement {i} diverged"
                );
            }
        }
    }
    rayon::set_threads(None);
}

/// Bitwise comparison of two quality summaries (PartialEq on f64 would
/// accept -0.0 == 0.0; the promise here is stronger).
fn same_quality(a: &SelectionQuality, b: &SelectionQuality) -> bool {
    a.acc.to_bits() == b.acc.to_bits()
        && a.f1.to_bits() == b.f1.to_bits()
        && a.mcc.to_bits() == b.mcc.to_bits()
        && a.gt.to_bits() == b.gt.to_bits()
        && a.csr.to_bits() == b.csr.to_bits()
        && a.threshold == b.threshold
        && a.n == b.n
}

#[test]
fn cross_validation_is_bit_identical_at_any_worker_count() {
    let ctx = ExperimentContext::new(CorpusConfig::small(24, 6));
    let ds = ctx.dataset(Gpu::Turing);
    let features = ctx.features(&ds);
    let results = ctx.results(Gpu::Turing, &ds).expect("feasible dataset");

    // Fold-parallel supervised CVs (RF bags its trees and XGBoost builds
    // its class trees in parallel) and semi-supervised CVs (the LR and RF
    // labelers fit inside the clusters): every fold derives its work from
    // the shared seed alone, so the per-fold qualities and their average
    // must not depend on the worker count. Four clusters keep them large
    // and mixed enough that the labelers fit models rather than vote.
    // A fresh pool per run: every run fits its models itself rather than
    // reading them from an earlier run's pool.
    let run = || -> Vec<(&str, SelectionQuality)> {
        let pool = FitPool::new();
        let sup = |model| {
            local_supervised(
                &features,
                None,
                &results,
                SupervisedConfig::quick(model, 5),
                3,
                5,
                &pool,
            )
            .expect("supervised CV fits")
        };
        let semi = |nc, labeler| {
            local_semi(
                &features,
                &results,
                SemiConfig::new(ClusterMethod::KMeans { nc }, labeler, 5),
                3,
                5,
                &pool,
            )
        };
        vec![
            ("supervised RF", sup(SupervisedModel::Rf)),
            ("supervised XGBoost", sup(SupervisedModel::Xgb)),
            ("semi-supervised Vote", semi(8, Labeler::Vote)),
            ("semi-supervised LR", semi(4, Labeler::LogisticRegression)),
            ("semi-supervised RF", semi(4, Labeler::RandomForest)),
        ]
    };

    rayon::set_threads(Some(1));
    let base = run();
    for workers in [2, 4, 8] {
        rayon::set_threads(Some(workers));
        for ((name, q), (_, base_q)) in run().iter().zip(&base) {
            assert!(
                same_quality(q, base_q),
                "{workers} workers: {name} CV diverged ({q:?} vs {base_q:?})"
            );
        }
    }
    rayon::set_threads(None);
}
