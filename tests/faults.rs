//! Chaos test for the deterministic fault-injection harness: with every
//! fault class firing at 5%, the measurement pipeline must recover almost
//! every cell, quarantine the rest with recorded reasons, reproduce
//! bit-identically under the same fault seed, and leave the headline
//! selection accuracy essentially unchanged.

use spselect::core::cache::Cache;
use spselect::core::corpus::CorpusConfig;
use spselect::core::experiments::ExperimentContext;
use spselect::core::semi::{ClusterMethod, Labeler, SemiConfig};
use spselect::core::share::FitPool;
use spselect::core::telemetry::RunReport;
use spselect::core::transfer::local_semi;
use spselect::gpusim::{FaultConfig, FaultRates, Gpu, TrialPolicy};

const FAULT_RATE: f64 = 0.05;
const FAULT_SEED: u64 = 2021;

/// Only the classes the trial layer can *recover from* (retry, robust
/// aggregation). Spurious OOMs legitimately remove a format from a cell,
/// so they are exercised by the degradation tests, not the accuracy ones.
fn recoverable_faults() -> FaultConfig {
    FaultConfig {
        seed: FAULT_SEED,
        rates: FaultRates {
            transient: FAULT_RATE,
            spike: FAULT_RATE,
            drop: FAULT_RATE,
            oom: 0.0,
            cache_corruption: 0.0,
            gpu_outage: 0.0,
        },
    }
}

fn corpus_cfg() -> CorpusConfig {
    CorpusConfig::small(80, 42)
}

fn build(faults: &FaultConfig) -> ExperimentContext {
    ExperimentContext::build_with_faults(
        corpus_cfg(),
        &Cache::disabled(),
        &mut RunReport::new("chaos"),
        faults,
        &TrialPolicy::default(),
    )
}

#[test]
fn faults_off_is_bit_identical_to_plain_benchmarking() {
    let ctx = build(&FaultConfig::off());
    assert!(!ctx.degradation.any(), "{:?}", ctx.degradation);
    for (g, gpu) in Gpu::ALL.iter().enumerate() {
        let plain = ctx.corpus.benchmark(*gpu);
        assert_eq!(ctx.benches[g], plain, "{gpu}: faults-off path diverged");
    }
}

#[test]
fn same_fault_seed_reruns_bit_identically() {
    let faults = FaultConfig::uniform(FAULT_RATE, FAULT_SEED);
    let a = build(&faults);
    let b = build(&faults);
    assert_eq!(a.benches, b.benches);
    assert_eq!(a.degradation, b.degradation);

    // A different fault seed produces a different fault pattern (the
    // injector is keyed, not incidental).
    let c = build(&FaultConfig::uniform(FAULT_RATE, FAULT_SEED + 1));
    assert_ne!(
        a.degradation.injected, c.degradation.injected,
        "fault seed must steer the injection pattern"
    );
}

#[test]
fn five_percent_faults_recover_almost_every_cell() {
    let clean = build(&FaultConfig::off());
    let faulty = build(&FaultConfig::uniform(FAULT_RATE, FAULT_SEED));

    assert!(faulty.degradation.injected.any(), "no faults fired at 5%");
    assert!(
        faulty.degradation.injected.outliers_rejected > 0,
        "spikes at 5% must trip the MAD filter: {:?}",
        faulty.degradation.injected
    );

    let mut cells = 0usize;
    let mut recovered = 0usize;
    for g in 0..Gpu::ALL.len() {
        for i in 0..clean.corpus.len() {
            if clean.benches[g][i].is_none() {
                continue; // genuinely infeasible everywhere
            }
            cells += 1;
            if faulty.benches[g][i].is_some() {
                recovered += 1;
            }
        }
    }
    let recovery = recovered as f64 / cells as f64;
    assert!(
        recovery >= 0.95,
        "only {recovered}/{cells} cells recovered ({recovery:.3})"
    );
    // Quarantines are the complement of recovery and must each carry a
    // typed reason. (Injected OOMs can also erase whole cells when every
    // format is lost; they are counted, not quarantined.)
    let quarantined = &faulty.degradation.quarantined;
    assert!(quarantined.len() <= cells - recovered);
    for q in quarantined {
        assert!(!q.class.is_empty() && !q.reason.is_empty(), "{q:?}");
    }
}

#[test]
fn recoverable_faults_leave_labels_intact() {
    // Transients retry, spikes are rejected by the MAD filter, dropped
    // trials leave a majority, and the antithetic jitter keeps the median
    // of a fault-free cell exactly at its true time: the labels the
    // pipeline feeds the selectors must be essentially unchanged.
    let clean = build(&FaultConfig::off());
    let faulty = build(&recoverable_faults());
    assert!(faulty.degradation.injected.any(), "no faults fired");

    let mut recovered = 0usize;
    let mut label_matches = 0usize;
    for g in 0..Gpu::ALL.len() {
        for i in 0..clean.corpus.len() {
            let (Some(c), Some(f)) = (clean.benches[g][i], faulty.benches[g][i]) else {
                continue;
            };
            recovered += 1;
            if f.best == c.best {
                label_matches += 1;
            }
        }
    }
    let agreement = label_matches as f64 / recovered as f64;
    assert!(
        agreement >= 0.99,
        "labels flipped on {}/{recovered} recovered cells ({agreement:.3})",
        recovered - label_matches
    );
}

#[test]
fn headline_accuracy_moves_less_than_a_point() {
    // Headline-sized dataset: with realistically sized clusters, the one
    // or two near-tie labels a 5% fault rate can flip cannot swing a
    // cluster vote, so the reported accuracy barely moves.
    let big = CorpusConfig::small(240, 42);
    let build = |faults: &FaultConfig| {
        ExperimentContext::build_with_faults(
            big.clone(),
            &Cache::disabled(),
            &mut RunReport::new("chaos-headline"),
            faults,
            &TrialPolicy::default(),
        )
    };
    let clean = build(&FaultConfig::off());
    let faulty = build(&recoverable_faults());

    // Evaluate on the dataset both runs kept, so the comparison isolates
    // what fault injection did to the *measurements* (a few quarantined
    // cells shrinking the dataset is separate, and covered above).
    let g = Gpu::Volta as usize;
    let ds: Vec<usize> = (0..clean.corpus.len())
        .filter(|&i| clean.benches[g][i].is_some() && faulty.benches[g][i].is_some())
        .collect();
    let features = clean.features(&ds);
    let quality = |ctx: &ExperimentContext| {
        let results = ctx.results(Gpu::Volta, &ds).unwrap();
        let cfg = SemiConfig::new(ClusterMethod::KMeans { nc: 12 }, Labeler::Vote, 11);
        local_semi(&features, &results, cfg, 3, 11, &FitPool::new())
    };
    let q_clean = quality(&clean);
    let q_faulty = quality(&faulty);
    assert!(
        (q_clean.acc - q_faulty.acc).abs() < 0.01,
        "headline accuracy moved {:.4} -> {:.4}",
        q_clean.acc,
        q_faulty.acc
    );
}
