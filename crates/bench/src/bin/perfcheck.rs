//! `perfcheck`: measure the experiment pipeline's parallel speedup and
//! cache effectiveness, and emit the numbers as a JSON run report.
//!
//! Three timed configurations of `ExperimentContext` construction:
//!
//! 1. **cold-serial** — parallelism forced off, cache disabled (the
//!    pre-parallel baseline);
//! 2. **cold-parallel** — parallel build + benchmark, writing into a
//!    fresh cache directory;
//! 3. **warm-cached** — the same run again, now served from the cache.
//!
//! The report records `parallel_speedup` (1 vs 2) and `cache_speedup`
//! (2 vs 3), and the run asserts that parallel and serial construction
//! produce bit-identical corpora and benchmark results.
//!
//! It then measures the training phase on the real corpus: per-model fit
//! time, and a cold/warm demonstration of the per-table experiment cache
//! (a warm Table 4 rerun must be served entirely from disk).
//!
//! Finally it profiles the serving decision path: the warmed
//! `FeatureExtractor`, the per-phase (embed / assign / label) nanosecond
//! budget of a steady-state `learn: false` select, and an Elafrou-style
//! per-feature cost table attributing each Table 1 feature to the
//! extractor pass that pays for it.

use spsel_bench::HarnessOptions;
use spsel_core::cache::Cache;
use spsel_core::experiments::{table4, ExperimentContext};
use spsel_core::semi::{ClusterMethod, Labeler, SemiConfig};
use spsel_core::telemetry::RunReport;
use spsel_core::{SemiSupervisedSelector, ShardedOnlineSelector};
use spsel_features::stats::WARP_ROWS;
use spsel_features::{FeatureExtractor, FeatureId, FeatureVector, MatrixStats};
use spsel_gpusim::Gpu;
use spsel_matrix::{gen, CsrMatrix, Format, FormatRegistry, SpMv, Workload};
use spsel_ml::forest::{RandomForest, RandomForestParams};
use spsel_ml::gboost::{GradientBoosting, GradientBoostingParams};
use spsel_ml::knn::KnnClassifier;
use spsel_ml::tree::{DecisionTree, DecisionTreeParams};
use spsel_ml::{Classifier, Dataset};
use std::hint::black_box;
use std::time::Instant;

/// Milliseconds of the fastest of three runs of `f` (best-of-n damps
/// scheduler noise without a full Criterion session).
fn time_ms(mut f: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let mut h = HarnessOptions::open();
    let cfg = h.opts.corpus.clone();
    let dir = h
        .opts
        .cache_dir
        .clone()
        .unwrap_or_else(|| "results/cache".to_string());
    let dir = format!("{dir}/perfcheck-{}", std::process::id());
    eprintln!("perfcheck: {} base matrices, cache dir {dir}", cfg.n_base);

    // 1. Cold, serial, uncached.
    rayon::set_serial(true);
    let start = Instant::now();
    let serial_ctx = ExperimentContext::build(
        cfg.clone(),
        &Cache::disabled(),
        &mut RunReport::new("perfcheck-serial"),
    );
    let serial_s = start.elapsed().as_secs_f64();
    rayon::set_serial(false);
    eprintln!("cold-serial    {serial_s:>8.2}s");

    // 2. Cold, parallel, populating a fresh cache.
    let cache = Cache::new(&dir);
    let start = Instant::now();
    let parallel_ctx =
        ExperimentContext::build(cfg.clone(), &cache, &mut RunReport::new("perfcheck-cold"));
    let cold_s = start.elapsed().as_secs_f64();
    eprintln!("cold-parallel  {cold_s:>8.2}s");

    // Parallel execution must be bit-identical to serial.
    assert_eq!(
        serial_ctx.corpus.records, parallel_ctx.corpus.records,
        "parallel corpus differs from serial"
    );
    assert_eq!(
        serial_ctx.benches, parallel_ctx.benches,
        "parallel benchmarks differ from serial"
    );

    // 3. Warm, served from the cache.
    let warm_cache = Cache::new(&dir);
    let start = Instant::now();
    let warm_ctx = ExperimentContext::build(
        cfg.clone(),
        &warm_cache,
        &mut RunReport::new("perfcheck-warm"),
    );
    let warm_s = start.elapsed().as_secs_f64();
    eprintln!("warm-cached    {warm_s:>8.2}s");
    assert_eq!(warm_ctx.benches, parallel_ctx.benches, "cached run differs");
    let wr = warm_cache.report();
    assert_eq!(wr.misses, 0, "warm run should not miss ({wr:?})");

    h.report.record("cold_serial", serial_s);
    h.report.record("cold_parallel", cold_s);
    h.report.record("warm_cached", warm_s);
    let parallel_speedup = serial_s / cold_s;
    let cache_speedup = cold_s / warm_s;
    println!("parallel speedup (cold serial / cold parallel): {parallel_speedup:.2}x");
    println!("cache speedup    (cold parallel / warm cached): {cache_speedup:.2}x");

    // 4. Training phase on the real corpus: the Turing dataset, labels
    //    from the modeled benchmarks — exactly what the supervised
    //    experiments train on.
    let ds = parallel_ctx.dataset(Gpu::Turing);
    let features = parallel_ctx.features(&ds);
    let results = parallel_ctx
        .results(Gpu::Turing, &ds)
        .expect("feasible Turing dataset");
    let x: Vec<Vec<f64>> = features.iter().map(|f| f.as_slice().to_vec()).collect();
    let y: Vec<usize> = results.iter().map(|r| r.best.index()).collect();
    let data = Dataset::new(x, y, Format::COUNT);
    eprintln!(
        "training set: {} samples x {} features",
        data.len(),
        data.dim()
    );

    let dt_params = DecisionTreeParams {
        max_depth: Some(20),
        seed: 17,
        ..Default::default()
    };
    let dt_fit_ms = time_ms(|| DecisionTree::new(dt_params.clone()).fit(&data));
    let gb_params = GradientBoostingParams {
        n_rounds: if h.opts.quick { 10 } else { 100 },
        ..Default::default()
    };
    let gboost_fit_ms = time_ms(|| GradientBoosting::new(gb_params.clone()).fit(&data));
    let rf_fit_ms = time_ms(|| {
        RandomForest::new(RandomForestParams {
            n_estimators: if h.opts.quick { 20 } else { 100 },
            max_depth: Some(6),
            seed: 17,
            ..Default::default()
        })
        .fit(&data)
    });
    let knn_fit_ms = time_ms(|| KnnClassifier::new(5).fit(&data));
    let training = TrainingSummary {
        samples: data.len(),
        dt_fit_ms,
        gboost_fit_ms,
        rf_fit_ms,
        knn_fit_ms,
    };
    h.report.record("train_dt", dt_fit_ms / 1e3);
    h.report.record("train_gboost", gboost_fit_ms / 1e3);
    h.report.record("train_rf", rf_fit_ms / 1e3);
    h.report.record("train_knn", knn_fit_ms / 1e3);
    println!(
        "fit time: dt {dt_fit_ms:.0}ms, rf {rf_fit_ms:.0}ms, \
         xgboost {gboost_fit_ms:.0}ms, knn {knn_fit_ms:.0}ms"
    );

    // 5. Experiment cache, cold vs warm: a Table 4 run stored once must
    //    be served from disk with zero training on the rerun.
    let exp_dir = format!("{dir}-exp");
    let exp_cache = Cache::new(&exp_dir);
    let t4cfg = table4::Table4Config {
        nc_candidates: vec![25, 50],
        folds: 3,
        seed: 17,
    };
    let digest = parallel_ctx.digest();
    let start = Instant::now();
    assert!(
        exp_cache
            .load_experiment::<table4::Table4, _>("table4", digest, &t4cfg)
            .is_none(),
        "fresh experiment cache must miss"
    );
    let cold_t4 = table4::run(&parallel_ctx, &t4cfg);
    exp_cache.store_experiment("table4", digest, &t4cfg, &cold_t4);
    let exp_cold_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let warm_t4: table4::Table4 = exp_cache
        .load_experiment("table4", digest, &t4cfg)
        .expect("warm experiment rerun must hit");
    let exp_warm_s = start.elapsed().as_secs_f64();
    assert_eq!(
        serde_json::to_string(&warm_t4).unwrap(),
        serde_json::to_string(&cold_t4).unwrap(),
        "cached table differs from computed"
    );
    let exp_report = exp_cache.report();
    assert_eq!(
        (exp_report.experiment_hits, exp_report.experiment_misses),
        (1, 1),
        "expected exactly one miss (cold) and one hit (warm)"
    );
    h.report.record("experiment_cold", exp_cold_s);
    h.report.record("experiment_warm", exp_warm_s);
    let experiment_cache = ExperimentCacheSummary {
        cold_s: exp_cold_s,
        warm_s: exp_warm_s,
        speedup: exp_cold_s / exp_warm_s,
        hits: exp_report.experiment_hits,
        misses: exp_report.experiment_misses,
        stores: exp_report.experiment_stores,
    };
    println!(
        "experiment cache (table4): cold {exp_cold_s:.2}s, warm {exp_warm_s:.4}s \
         ({:.0}x), {} hit / {} miss",
        experiment_cache.speedup, exp_report.experiment_hits, exp_report.experiment_misses
    );

    // 6. Decision path: the steady-state `learn: false` select budget,
    //    stage by stage. The probe sweep mixes the corpus families at
    //    serving-typical sizes; every number is the best of three full
    //    sweeps (same scheduler-noise damping as `time_ms`).
    let probes: Vec<CsrMatrix> = (0..12u64)
        .flat_map(|s| {
            [
                CsrMatrix::from(&gen::stencil2d(24 + s as usize % 8, s)),
                CsrMatrix::from(&gen::banded(600 + s as usize * 13, 5, 0.8, s)),
                CsrMatrix::from(&gen::power_law(700 + s as usize * 11, 700, 2, 2.2, 300, s)),
                CsrMatrix::from(&gen::row_skewed(500 + s as usize * 7, 900, 2, 80, 0.1, s)),
            ]
        })
        .collect();
    let n_probes = probes.len() as f64;
    let probe_nnz: usize = probes.iter().map(|m| m.nnz()).sum();

    // The warmed extractor: the extract phase of a select.
    let mut extractor = FeatureExtractor::new();
    for csr in &probes {
        extractor.stats(csr); // size the scratch before timing
    }
    let single_ms = time_ms(|| {
        for csr in &probes {
            black_box(extractor.stats(csr));
        }
    });
    let extract_ns = single_ms * 1e6 / n_probes;

    // Per-pass kernels mirroring the extractor's three walks, timed over
    // the same sweep with pre-sized epoch-stamped scratch. These are
    // attribution weights for the feature table, not a second source of
    // truth: their sum tracks the single-pass total.
    let mut hist = Vec::new();
    let mut hist_epoch: Vec<u32> = Vec::new();
    let mut epoch = 0u32;
    let walk1_ms = time_ms(|| {
        for csr in &probes {
            epoch += 1;
            let row_ptr = csr.row_ptr();
            let (mut nnz, mut lo, mut hi) = (0usize, usize::MAX, 0usize);
            let (mut csr_max, mut warp) = (0usize, 0usize);
            for r in 0..csr.nrows() {
                let c = row_ptr[r + 1] - row_ptr[r];
                nnz += c;
                lo = lo.min(c);
                hi = hi.max(c);
                warp += c;
                if (r + 1) % WARP_ROWS == 0 {
                    csr_max = csr_max.max(warp);
                    warp = 0;
                }
                if hist.len() <= c {
                    hist.resize(c + 1, 0usize);
                    hist_epoch.resize(c + 1, 0);
                }
                if hist_epoch[c] == epoch {
                    hist[c] += 1;
                } else {
                    hist[c] = 1;
                    hist_epoch[c] = epoch;
                }
            }
            black_box((nnz, lo, hi, csr_max.max(warp)));
        }
    });
    struct ProbePrep {
        counts: Vec<usize>,
        mean: f64,
        width: usize,
    }
    let preps: Vec<ProbePrep> = probes
        .iter()
        .map(|m| {
            let s = MatrixStats::from_csr(m);
            ProbePrep {
                counts: m.row_counts(),
                mean: s.nnz_mean,
                width: s.hyb_ell_width,
            }
        })
        .collect();
    let walk2_ms = time_ms(|| {
        for p in &preps {
            let (mut var, mut low, mut low_n) = (0.0f64, 0.0f64, 0usize);
            let (mut high, mut high_n, mut ell_nnz) = (0.0f64, 0usize, 0usize);
            for &c in &p.counts {
                let d = c as f64 - p.mean;
                var += d * d;
                if d < 0.0 {
                    low += d * d;
                    low_n += 1;
                } else if d > 0.0 {
                    high += d * d;
                    high_n += 1;
                }
                ell_nnz += c.min(p.width);
            }
            black_box((var, low, low_n, high, high_n, ell_nnz));
        }
    });
    let mut diag_epoch: Vec<u32> = Vec::new();
    let mut depoch = 0u32;
    let walk3_ms = time_ms(|| {
        for csr in &probes {
            depoch += 1;
            let (nrows, ncols) = (csr.nrows(), csr.ncols());
            if nrows == 0 || ncols == 0 {
                continue;
            }
            let offsets = nrows + ncols - 1;
            if diag_epoch.len() < offsets {
                diag_epoch.resize(offsets, 0);
            }
            let row_ptr = csr.row_ptr();
            let col_idx = csr.col_idx();
            let mut diagonals = 0usize;
            for r in 0..nrows {
                for &c in &col_idx[row_ptr[r]..row_ptr[r + 1]] {
                    let idx = c as usize + nrows - 1 - r;
                    if diag_epoch[idx] != depoch {
                        diag_epoch[idx] = depoch;
                        diagonals += 1;
                    }
                }
            }
            black_box(diagonals);
        }
    });
    let pass_cost = |pass: &str| -> f64 {
        let ms = match pass {
            "row-ptr walk" => walk1_ms,
            "counts walk" => walk2_ms,
            "col-idx walk" => walk3_ms,
            _ => return 0.0, // header fields and O(1) derived ratios
        };
        ms * 1e6 / n_probes
    };
    let feature_costs: Vec<FeatureCost> = FeatureId::ALL
        .iter()
        .map(|&id| {
            let pass = pass_of(id);
            let shared = pass_cost(pass);
            let siblings = FeatureId::ALL
                .iter()
                .filter(|&&o| pass_of(o) == pass)
                .count();
            FeatureCost {
                feature: id.name().to_string(),
                pass: pass.to_string(),
                pass_ns: shared,
                share_ns: shared / siblings as f64,
            }
        })
        .collect();

    // Steady-state decide on a warm-started online selector trained from
    // the real corpus: per-phase nanoseconds straight from the same
    // counters the serving engine exports in its Stats reply.
    let labels: Vec<Format> = results.iter().map(|r| r.best).collect();
    let nc = 25.min((labels.len() / 2).max(2));
    let semi = SemiSupervisedSelector::fit(
        &features,
        &labels,
        SemiConfig::new(ClusterMethod::KMeans { nc }, Labeler::Vote, 17),
    );
    let online = ShardedOnlineSelector::from_batch(&semi, 0.5, 64, 4);
    let probe_fvs: Vec<FeatureVector> = probes
        .iter()
        .map(|m| FeatureVector::from_stats(&extractor.stats(m)))
        .collect();
    for fv in &probe_fvs {
        online.decide(fv, false); // size the thread-local embed scratch
    }
    let rounds = if h.opts.quick { 50 } else { 200 };
    let (mut embed_sum, mut assign_sum, mut label_sum, mut n_dec) = (0u64, 0u64, 0u64, 0u64);
    for _ in 0..rounds {
        for fv in &probe_fvs {
            let (view, ph) = online.decide_phased(fv, false);
            black_box(view.decision.cluster);
            embed_sum += ph.embed_ns;
            assign_sum += ph.assign_ns;
            label_sum += ph.label_ns;
            n_dec += 1;
        }
    }
    let embed_ns = embed_sum as f64 / n_dec as f64;
    let assign_ns = assign_sum as f64 / n_dec as f64;
    let label_ns = label_sum as f64 / n_dec as f64;
    let select_ns = extract_ns + embed_ns + assign_ns + label_ns;
    h.report.record("decision_extract", extract_ns / 1e9);
    h.report.record("decision_embed", embed_ns / 1e9);
    h.report.record("decision_assign", assign_ns / 1e9);
    h.report.record("decision_label", label_ns / 1e9);
    println!(
        "decision path (learn:false, {} clusters): extract {extract_ns:.0}ns + \
         embed {embed_ns:.0}ns + assign {assign_ns:.0}ns + label {label_ns:.0}ns \
         = {select_ns:.0}ns/select",
        online.n_clusters(),
    );
    println!("feature budget (avg ns per probe matrix, pass cost shared by its features):");
    for fc in &feature_costs {
        println!(
            "  {:<13} {:<12} pass {:>8.0} ns  share {:>7.0} ns",
            fc.feature, fc.pass, fc.pass_ns, fc.share_ns
        );
    }
    let decision_path = DecisionPathSummary {
        probe_matrices: probes.len(),
        probe_nnz,
        single_pass_extract_ns: extract_ns,
        embed_ns,
        assign_ns,
        label_ns,
        select_ns,
        decisions_timed: n_dec,
        row_ptr_walk_ns: pass_cost("row-ptr walk"),
        counts_walk_ns: pass_cost("counts walk"),
        col_idx_walk_ns: pass_cost("col-idx walk"),
        feature_costs,
    };

    // 7. Kernel section: per-format SpMV vs SpMM microsecond costs over
    //    the full registry, built and dispatched through the registry's
    //    own `FormatSpec::build` path — the CPU-side ground truth for the
    //    workload abstraction. Infeasible conversions (ELL/DIA blow-up on
    //    the irregular probe) are reported as absent, not errors.
    let registry = FormatRegistry::full();
    let kernel_probes = [
        ("stencil2d-64", CsrMatrix::from(&gen::stencil2d(64, 3))),
        (
            "power-law-2k",
            CsrMatrix::from(&gen::power_law(2000, 2000, 2, 2.2, 400, 3)),
        ),
    ];
    let kernel_reps = if h.opts.quick { 5 } else { 20 };
    let spmm_k = Workload::DEFAULT_SPMM_K;
    let mut kernels: Vec<KernelCost> = Vec::new();
    println!(
        "kernel section ({} formats x {} probes, best of 3 x {kernel_reps} reps):",
        registry.formats().len(),
        kernel_probes.len(),
    );
    for (probe, csr) in &kernel_probes {
        let x1 = vec![1.0; csr.ncols()];
        let mut y1 = vec![0.0; csr.nrows()];
        let xk = vec![1.0; csr.ncols() * spmm_k];
        let mut yk = vec![0.0; csr.nrows() * spmm_k];
        for spec in registry.specs() {
            let Ok(kernel) = spec.build(csr) else {
                println!("  {probe:<13} {:<5} infeasible", spec.name());
                continue;
            };
            let spmv_us = time_ms(|| {
                for _ in 0..kernel_reps {
                    kernel.spmv(&x1, &mut y1);
                    black_box(&y1);
                }
            }) * 1e3
                / kernel_reps as f64;
            let spmm_us = time_ms(|| {
                for _ in 0..kernel_reps {
                    kernel.spmm(&xk, spmm_k, &mut yk);
                    black_box(&yk);
                }
            }) * 1e3
                / kernel_reps as f64;
            println!(
                "  {probe:<13} {:<5} spmv {spmv_us:>9.1}us  spmm{spmm_k} {spmm_us:>9.1}us \
                 ({:.2}x per column), {} KiB",
                spec.name(),
                spmm_us / (spmv_us * spmm_k as f64),
                kernel.memory_bytes() / 1024,
            );
            kernels.push(KernelCost {
                probe: probe.to_string(),
                format: spec.name().to_string(),
                nnz: csr.nnz(),
                spmv_us,
                spmm_k,
                spmm_us,
                spmm_per_column_ratio: spmm_us / (spmv_us * spmm_k as f64),
                memory_bytes: kernel.memory_bytes(),
            });
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&exp_dir);
    h.finish(&PerfSummary {
        parallel_speedup,
        cache_speedup,
        cold_serial_s: serial_s,
        cold_parallel_s: cold_s,
        warm_cached_s: warm_s,
        threads: rayon::current_num_threads(),
        training,
        experiment_cache,
        decision_path,
        kernels,
    });
}

/// The extractor pass that pays for one Table 1 feature: the row-pointer
/// walk (counts, extrema, warp chunks, HYB histogram), the counts walk
/// (mean-relative deviations, HYB ELL occupancy), the column-index walk
/// (diagonal census), the O(1) header, or an O(1) derived ratio.
fn pass_of(id: FeatureId) -> &'static str {
    match id {
        FeatureId::NRows | FeatureId::NCols => "header",
        FeatureId::Nnz
        | FeatureId::NnzMu
        | FeatureId::NnzMin
        | FeatureId::NnzMax
        | FeatureId::CsrMax
        | FeatureId::HybEllSize => "row-ptr walk",
        FeatureId::NnzSig
        | FeatureId::SigLower
        | FeatureId::SigHigher
        | FeatureId::HybCoo
        | FeatureId::HybEllFrac => "counts walk",
        FeatureId::Diagonals | FeatureId::DiaSize | FeatureId::DiaFrac => "col-idx walk",
        FeatureId::NnzFrac
        | FeatureId::MaxMu
        | FeatureId::MuMin
        | FeatureId::EllFrac
        | FeatureId::EllSize => "derived",
    }
}

#[derive(serde::Serialize)]
struct PerfSummary {
    parallel_speedup: f64,
    cache_speedup: f64,
    cold_serial_s: f64,
    cold_parallel_s: f64,
    warm_cached_s: f64,
    threads: usize,
    training: TrainingSummary,
    experiment_cache: ExperimentCacheSummary,
    decision_path: DecisionPathSummary,
    kernels: Vec<KernelCost>,
}

/// One (probe matrix, format) cell of the kernel section: measured CPU
/// SpMV and SpMM costs through the registry's dispatch path.
#[derive(serde::Serialize)]
struct KernelCost {
    probe: String,
    format: String,
    nnz: usize,
    spmv_us: f64,
    spmm_k: usize,
    spmm_us: f64,
    /// SpMM cost per dense column relative to one SpMV — below 1.0 means
    /// the format amortizes the sparse walk over the k columns.
    spmm_per_column_ratio: f64,
    memory_bytes: usize,
}

/// Stage-by-stage budget of one steady-state `learn: false` select, plus
/// the per-feature cost attribution (Elafrou-style feature budget).
#[derive(serde::Serialize)]
struct DecisionPathSummary {
    probe_matrices: usize,
    probe_nnz: usize,
    /// Avg ns per matrix for the warmed single-pass extractor.
    single_pass_extract_ns: f64,
    /// Avg per-decision phase nanoseconds from `decide_phased` — the same
    /// counters the serving engine accumulates into its Stats reply.
    embed_ns: f64,
    assign_ns: f64,
    label_ns: f64,
    /// extract + embed + assign + label: the whole budget for one select.
    select_ns: f64,
    decisions_timed: u64,
    row_ptr_walk_ns: f64,
    counts_walk_ns: f64,
    col_idx_walk_ns: f64,
    feature_costs: Vec<FeatureCost>,
}

/// One Table 1 feature's slot in the budget: the extractor pass that
/// computes it, that pass's cost, and the cost amortized over the pass's
/// features (header fields and derived ratios are O(1) and cost 0).
#[derive(serde::Serialize)]
struct FeatureCost {
    feature: String,
    pass: String,
    pass_ns: f64,
    share_ns: f64,
}

/// Fit times on the per-GPU corpus dataset.
#[derive(serde::Serialize)]
struct TrainingSummary {
    samples: usize,
    dt_fit_ms: f64,
    gboost_fit_ms: f64,
    rf_fit_ms: f64,
    knn_fit_ms: f64,
}

/// Cold compute-and-store vs warm load-from-disk for one Table 4 run.
#[derive(serde::Serialize)]
struct ExperimentCacheSummary {
    cold_s: f64,
    warm_s: f64,
    speedup: f64,
    hits: u64,
    misses: u64,
    stores: u64,
}
