//! Corpus benchmarking: turn matrix statistics into ground-truth labels.
//!
//! Two entry points:
//!
//! * [`benchmark_corpus`] — the fault-free single-shot path. One modeled
//!   measurement per (matrix, format), exactly as before.
//! * [`measure_corpus`] — the resilient trial-level path. Each feasible
//!   (matrix, format) cell is measured over [`TrialPolicy::trials`]
//!   independent trials; transient failures are retried with bounded
//!   deterministic backoff, timing spikes are rejected by median + MAD
//!   aggregation, and cells that still cannot produce enough valid trials
//!   are *quarantined* with a typed [`BenchError`] instead of panicking.
//!
//! With faults disabled, `measure_corpus` takes the single-shot path and
//! is bit-identical to `benchmark_corpus`.

use crate::faults::{FaultClass, FaultConfig};
use crate::model::{predict_times, SpmvTimes};
use crate::spec::GpuSpec;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use spsel_features::MatrixStats;
use spsel_matrix::Format;

/// Benchmark outcome for one matrix on one GPU.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BenchResult {
    /// Modeled kernel times.
    pub times: SpmvTimes,
    /// Fastest feasible format (the ground-truth label).
    pub best: Format,
}

/// Why a cell could not be measured. Carried by quarantined records so the
/// degradation report can say what was lost and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BenchError {
    /// Every trial of one format died to transient failures even after
    /// retries.
    TransientExhausted {
        /// The format whose measurement failed.
        format: Format,
        /// Total attempts spent (trials x retries).
        attempts: u32,
    },
    /// Too few valid trials survived faults and outlier rejection.
    InsufficientTrials {
        /// The format whose measurement failed.
        format: Format,
        /// Valid trials obtained.
        valid: u32,
        /// Minimum the policy requires.
        needed: u32,
    },
}

impl BenchError {
    /// Stable class name for telemetry.
    pub fn class(&self) -> &'static str {
        match self {
            BenchError::TransientExhausted { .. } => "transient_exhausted",
            BenchError::InsufficientTrials { .. } => "insufficient_trials",
        }
    }

    /// Human-readable reason for the degradation report.
    pub fn reason(&self) -> String {
        match self {
            BenchError::TransientExhausted { format, attempts } => {
                format!("{format}: every trial failed transiently ({attempts} attempts)")
            }
            BenchError::InsufficientTrials {
                format,
                valid,
                needed,
            } => format!("{format}: only {valid} valid trials, need {needed}"),
        }
    }
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.reason())
    }
}

impl std::error::Error for BenchError {}

/// Outcome of measuring one matrix on one GPU under the resilient path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BenchOutcome {
    /// Measurement succeeded.
    Ok {
        /// The aggregated result.
        result: BenchResult,
    },
    /// No format fits in device memory (the paper drops such matrices
    /// from that GPU's dataset).
    Infeasible,
    /// Measurement was irrecoverable; the record is excluded from this
    /// GPU's dataset with a recorded reason.
    Quarantined {
        /// Why the cell could not be measured.
        error: BenchError,
    },
}

impl BenchOutcome {
    /// The usable result, if any — quarantined and infeasible records both
    /// disappear from the dataset, just with different bookkeeping.
    pub fn result(&self) -> Option<BenchResult> {
        match self {
            BenchOutcome::Ok { result } => Some(*result),
            _ => None,
        }
    }
}

/// How many trials to run per cell and when to give up.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrialPolicy {
    /// Trials per (matrix, format) cell.
    pub trials: u32,
    /// Retries per trial after a transient failure.
    pub max_retries: u32,
    /// Minimum valid trials for a usable aggregate.
    pub min_valid: u32,
    /// MAD multiplier beyond which a trial is rejected as an outlier.
    pub mad_k: f64,
}

impl Default for TrialPolicy {
    fn default() -> Self {
        TrialPolicy {
            trials: 7,
            max_retries: 3,
            min_valid: 3,
            mad_k: 6.0,
        }
    }
}

/// Counters of everything the fault injector did and the recovery layer
/// absorbed during one benchmark run. Mergeable across records and GPUs.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultCounters {
    /// Transient failures injected.
    pub transient: u64,
    /// Retries performed in response.
    pub retries: u64,
    /// Simulated backoff accumulated across retries, microseconds.
    pub backoff_us: f64,
    /// Timing spikes injected.
    pub spikes: u64,
    /// Trials dropped outright.
    pub dropped: u64,
    /// Spurious OOMs injected (cell forced infeasible).
    pub oom_injected: u64,
    /// Trials rejected by median + MAD aggregation.
    pub outliers_rejected: u64,
    /// Trials lost entirely (dropped or transient-exhausted).
    pub trials_lost: u64,
}

impl FaultCounters {
    /// Accumulate another counter set into this one.
    pub fn merge(&mut self, other: &FaultCounters) {
        self.transient += other.transient;
        self.retries += other.retries;
        self.backoff_us += other.backoff_us;
        self.spikes += other.spikes;
        self.dropped += other.dropped;
        self.oom_injected += other.oom_injected;
        self.outliers_rejected += other.outliers_rejected;
        self.trials_lost += other.trials_lost;
    }

    /// Whether anything at all was injected or absorbed.
    pub fn any(&self) -> bool {
        self.transient > 0
            || self.spikes > 0
            || self.dropped > 0
            || self.oom_injected > 0
            || self.outliers_rejected > 0
            || self.trials_lost > 0
    }
}

/// One GPU's resilient benchmark run over a corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusBench {
    /// Per-record outcomes, index-aligned with the input corpus.
    pub outcomes: Vec<BenchOutcome>,
    /// What the fault injector did and the recovery layer absorbed.
    pub counters: FaultCounters,
}

impl CorpusBench {
    /// Collapse to the classic `Vec<Option<BenchResult>>` view: quarantined
    /// and infeasible records both become `None`.
    pub fn results(&self) -> Vec<Option<BenchResult>> {
        self.outcomes.iter().map(|o| o.result()).collect()
    }

    /// Indices and errors of quarantined records.
    pub fn quarantined(&self) -> Vec<(usize, BenchError)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| match o {
                BenchOutcome::Quarantined { error } => Some((i, *error)),
                _ => None,
            })
            .collect()
    }
}

/// Median of a non-empty slice (sorted copy; ties average).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Median + MAD outlier mask: `true` for trials within `mad_k` median
/// absolute deviations of the median, `false` for rejected outliers.
fn mad_keep_mask(trials: &[f64], mad_k: f64) -> Vec<bool> {
    let m = median(trials);
    let deviations: Vec<f64> = trials.iter().map(|t| (t - m).abs()).collect();
    let mad = median(&deviations);
    // A degenerate (near-zero) MAD means the trials agree; keep them all
    // rather than rejecting on floating-point dust.
    let threshold = mad_k * mad.max(1e-9 * m.abs());
    trials.iter().map(|t| (t - m).abs() <= threshold).collect()
}

/// Median + MAD outlier rejection: reject trials more than `mad_k` median
/// absolute deviations from the median, then re-take the median of the
/// survivors. Returns `(aggregate, rejected_count)`.
#[cfg(test)]
fn robust_aggregate(trials: &[f64], mad_k: f64) -> (f64, u64) {
    let keep = mad_keep_mask(trials, mad_k);
    let kept: Vec<f64> = trials
        .iter()
        .zip(&keep)
        .filter_map(|(t, k)| k.then_some(*t))
        .collect();
    let rejected = (trials.len() - kept.len()) as u64;
    if kept.is_empty() {
        (median(trials), rejected)
    } else {
        (median(&kept), rejected)
    }
}

/// Measure one feasible cell over `policy.trials` trials. `base_us` is the
/// cell's true averaged time (model prediction including the cell-level
/// measurement noise). Returns the aggregated time, or a [`BenchError`] if
/// the cell is irrecoverable.
fn measure_cell(
    base_us: f64,
    matrix_id: u64,
    format: Format,
    gpu_idx: usize,
    faults: &FaultConfig,
    policy: &TrialPolicy,
    counters: &mut FaultCounters,
) -> Result<f64, BenchError> {
    let fi = format.index();
    let mut valid: Vec<(u64, f64)> = Vec::with_capacity(policy.trials as usize);
    let mut attempts_total = 0u32;
    for trial in 0..policy.trials as u64 {
        // Transient failures: retry with exponential backoff (simulated —
        // the backoff is accounted, not slept).
        let mut survived = false;
        for attempt in 0..=policy.max_retries as u64 {
            attempts_total += 1;
            let event = trial * 32 + attempt;
            if faults.roll(FaultClass::Transient, matrix_id, fi, gpu_idx, event) {
                counters.transient += 1;
                if attempt < policy.max_retries as u64 {
                    counters.retries += 1;
                    counters.backoff_us += FaultConfig::backoff_us(attempt + 1);
                }
                continue;
            }
            survived = true;
            break;
        }
        if !survived {
            counters.trials_lost += 1;
            continue;
        }
        // Dropped trials: the measurement is lost, no retry possible.
        if faults.roll(FaultClass::Drop, matrix_id, fi, gpu_idx, trial) {
            counters.dropped += 1;
            counters.trials_lost += 1;
            continue;
        }
        // A surviving trial: the cell's true time under per-trial jitter,
        // possibly multiplied by an injected outlier spike.
        let mut t = base_us * faults.trial_jitter(matrix_id, fi, gpu_idx, trial);
        if faults.roll(FaultClass::Spike, matrix_id, fi, gpu_idx, trial) {
            counters.spikes += 1;
            t *= faults.spike_magnitude(matrix_id, fi, gpu_idx, trial);
        }
        valid.push((trial, t));
    }
    if valid.is_empty() {
        return Err(BenchError::TransientExhausted {
            format,
            attempts: attempts_total,
        });
    }
    // MAD outlier rejection over the surviving trials.
    let values: Vec<f64> = valid.iter().map(|&(_, t)| t).collect();
    let keep = mad_keep_mask(&values, policy.mad_k);
    let unrejected: Vec<(u64, f64)> = valid
        .iter()
        .zip(&keep)
        .filter_map(|(v, k)| k.then_some(*v))
        .collect();
    counters.outliers_rejected += (valid.len() - unrejected.len()) as u64;

    // Antithetic symmetry repair: the jitter of trials `2p-1` and `2p` is
    // antithetic (one deviate, opposite signs), so when one side of a pair
    // is lost or rejected the other is discarded too. Survivors are then
    // the unjittered center trial plus whole pairs, and their median sits
    // exactly on the cell's true time instead of drifting by a half-jitter
    // whenever a fault leaves an unbalanced trial count.
    let survived = |t: u64| unrejected.iter().any(|&(u, _)| u == t);
    let balanced: Vec<f64> = unrejected
        .iter()
        .filter(|&&(t, _)| {
            if t == 0 {
                return true;
            }
            let partner = if t % 2 == 1 { t + 1 } else { t - 1 };
            partner >= policy.trials as u64 || survived(partner)
        })
        .map(|&(_, t)| t)
        .collect();
    // `min_valid` gates on measurement evidence: how many trials actually
    // produced believable numbers.
    if (unrejected.len() as u32) < policy.min_valid {
        return Err(BenchError::InsufficientTrials {
            format,
            valid: unrejected.len() as u32,
            needed: policy.min_valid,
        });
    }
    // The balanced subset is unbiased at any size — a lone center trial is
    // exactly the true time, a lone pair brackets it symmetrically — so
    // aggregation prefers it whenever it is non-empty. Only a cell whose
    // center is gone and whose every pair is broken falls back to the full
    // unrejected set (rare, and still within a half-jitter of the truth).
    let kept: Vec<f64> = if balanced.is_empty() {
        unrejected.iter().map(|&(_, t)| t).collect()
    } else {
        counters.trials_lost += (unrejected.len() - balanced.len()) as u64;
        balanced
    };
    Ok(median(&kept))
}

/// Measure one matrix on one GPU under the resilient path.
fn measure_record(
    spec: &GpuSpec,
    stats: &MatrixStats,
    matrix_id: u64,
    faults: &FaultConfig,
    policy: &TrialPolicy,
) -> (BenchOutcome, FaultCounters) {
    let mut counters = FaultCounters::default();
    let gpu_idx = spec.gpu as usize;
    // The fault-free prediction is the per-cell ground truth the trials
    // scatter around.
    let true_times = predict_times(spec, stats, matrix_id);
    let mut us = [f64::INFINITY; 4];
    for format in Format::ALL {
        let fi = format.index();
        let base = true_times.us[fi];
        if !base.is_finite() {
            continue; // genuinely out of memory: no measurement to run
        }
        // Spurious OOM: the cell reports out-of-memory even though the
        // model says it fits. Real campaigns lose the cell, not the run.
        if faults.roll(FaultClass::Oom, matrix_id, fi, gpu_idx, 0) {
            counters.oom_injected += 1;
            continue;
        }
        match measure_cell(
            base,
            matrix_id,
            format,
            gpu_idx,
            faults,
            policy,
            &mut counters,
        ) {
            Ok(t) => us[fi] = t,
            Err(error) => return (BenchOutcome::Quarantined { error }, counters),
        }
    }
    let times = SpmvTimes { us };
    let outcome = match times.best() {
        Some(best) => BenchOutcome::Ok {
            result: BenchResult { times, best },
        },
        None => BenchOutcome::Infeasible,
    };
    (outcome, counters)
}

/// Resiliently benchmark a corpus on one GPU: trial-level measurement with
/// retry, robust aggregation, and quarantine, driven by `faults`.
///
/// With `faults` disabled this is the single-shot [`benchmark_corpus`],
/// its `None` cells reported as infeasible.
pub fn measure_corpus(
    spec: &GpuSpec,
    stats: &[MatrixStats],
    ids: &[u64],
    faults: &FaultConfig,
    policy: &TrialPolicy,
) -> CorpusBench {
    assert_eq!(stats.len(), ids.len(), "one id per matrix");
    if !faults.enabled() {
        let outcomes = benchmark_corpus(spec, stats, ids)
            .into_iter()
            .map(|r| match r {
                Some(result) => BenchOutcome::Ok { result },
                None => BenchOutcome::Infeasible,
            })
            .collect();
        return CorpusBench {
            outcomes,
            counters: FaultCounters::default(),
        };
    }
    let per_record: Vec<(BenchOutcome, FaultCounters)> = stats
        .par_iter()
        .zip(ids.par_iter())
        .map(|(s, &id)| measure_record(spec, s, id, faults, policy))
        .collect();
    let mut counters = FaultCounters::default();
    let mut outcomes = Vec::with_capacity(per_record.len());
    for (o, c) in per_record {
        counters.merge(&c);
        outcomes.push(o);
    }
    CorpusBench { outcomes, counters }
}

/// Benchmark a corpus: one result per matrix, `None` when no format fits
/// in device memory (the paper drops such matrices from that GPU's
/// dataset).
///
/// `ids[i]` is the stable identifier of matrix `i`, used to seed the
/// deterministic measurement noise.
pub fn benchmark_corpus(
    spec: &GpuSpec,
    stats: &[MatrixStats],
    ids: &[u64],
) -> Vec<Option<BenchResult>> {
    assert_eq!(stats.len(), ids.len(), "one id per matrix");
    stats
        .par_iter()
        .zip(ids.par_iter())
        .map(|(s, &id)| {
            let times = predict_times(spec, s, id);
            times.best().map(|best| BenchResult { times, best })
        })
        .collect()
}

/// Count the best-format label distribution of benchmark results (Table 3
/// rows). Index order matches [`Format::ALL`].
pub fn label_distribution(results: &[Option<BenchResult>]) -> [usize; 4] {
    let mut counts = [0usize; 4];
    for r in results.iter().flatten() {
        counts[r.best.index()] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{pascal_gtx1080, volta_v100};

    fn corpus() -> (Vec<MatrixStats>, Vec<u64>) {
        let mut stats = Vec::new();
        // Uniform ELL-friendly matrices.
        for i in 0..5usize {
            stats.push(MatrixStats::from_row_counts(
                50_000 + i * 1000,
                50_000,
                &vec![12usize; 50_000 + i * 1000],
            ));
        }
        // Irregular CSR-friendly matrices.
        for i in 0..5usize {
            let mut counts = vec![4usize; 40_000];
            for j in (0..40_000).step_by(37 + i) {
                counts[j] = 50;
            }
            stats.push(MatrixStats::from_row_counts(40_000, 40_000, &counts));
        }
        let ids = (0..stats.len() as u64).collect();
        (stats, ids)
    }

    #[test]
    fn corpus_gets_labels() {
        let (stats, ids) = corpus();
        let results = benchmark_corpus(&pascal_gtx1080(), &stats, &ids);
        assert_eq!(results.len(), 10);
        assert!(results.iter().all(|r| r.is_some()));
        let dist = label_distribution(&results);
        assert_eq!(dist.iter().sum::<usize>(), 10);
    }

    #[test]
    fn uniform_and_irregular_get_different_labels() {
        let (stats, ids) = corpus();
        let results = benchmark_corpus(&volta_v100(), &stats, &ids);
        let first = results[0].unwrap().best;
        let last = results[9].unwrap().best;
        assert_ne!(first, last, "uniform vs irregular should differ");
    }

    #[test]
    fn oom_matrix_yields_none_only_when_everything_oom() {
        // All formats need > 0.45 * 8 GB on Pascal: ~2B nonzeros. Built
        // literally because a 400M-entry row-count vector is pointless.
        let s = MatrixStats {
            nrows: 400_000_000,
            ncols: 400_000_000,
            nnz: 2_000_000_000,
            nnz_min: 5,
            nnz_max: 5,
            nnz_mean: 5.0,
            nnz_std: 0.0,
            sig_lower: 0.0,
            sig_higher: 0.0,
            csr_max: 160,
            hyb_ell_width: 5,
            hyb_ell_size: 2_000_000_000,
            hyb_ell_nnz: 2_000_000_000,
            hyb_coo_nnz: 0,
            diagonals: 5,
            dia_size: 2_000_000_000,
            ell_size: 2_000_000_000,
        };
        let results = benchmark_corpus(&pascal_gtx1080(), std::slice::from_ref(&s), &[0]);
        assert!(results[0].is_none());
        // The resilient path agrees: genuinely-OOM matrices are
        // Infeasible, not Quarantined.
        let bench = measure_corpus(
            &pascal_gtx1080(),
            &[s],
            &[0],
            &FaultConfig::uniform(0.05, 1),
            &TrialPolicy::default(),
        );
        assert_eq!(bench.outcomes[0], BenchOutcome::Infeasible);
    }

    #[test]
    fn deterministic() {
        let (stats, ids) = corpus();
        let a = benchmark_corpus(&pascal_gtx1080(), &stats, &ids);
        let b = benchmark_corpus(&pascal_gtx1080(), &stats, &ids);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.map(|r| r.best), y.map(|r| r.best));
        }
    }

    #[test]
    fn faults_off_measure_matches_benchmark_bit_for_bit() {
        let (stats, ids) = corpus();
        let spec = volta_v100();
        let single = benchmark_corpus(&spec, &stats, &ids);
        let bench = measure_corpus(
            &spec,
            &stats,
            &ids,
            &FaultConfig::off(),
            &TrialPolicy::default(),
        );
        assert_eq!(bench.results(), single);
        assert_eq!(bench.counters, FaultCounters::default());
    }

    #[test]
    fn faulty_measure_is_deterministic() {
        let (stats, ids) = corpus();
        let spec = pascal_gtx1080();
        let faults = FaultConfig::uniform(0.10, 42);
        let policy = TrialPolicy::default();
        let a = measure_corpus(&spec, &stats, &ids, &faults, &policy);
        let b = measure_corpus(&spec, &stats, &ids, &faults, &policy);
        assert_eq!(a, b);
        // A different fault seed changes what was injected.
        let c = measure_corpus(
            &spec,
            &stats,
            &ids,
            &FaultConfig::uniform(0.10, 43),
            &policy,
        );
        assert_ne!(a.counters, c.counters);
    }

    #[test]
    fn spikes_are_rejected_not_absorbed() {
        // With only spikes enabled (no lost trials), every cell must
        // aggregate to within jitter of the true time and keep its label.
        let (stats, ids) = corpus();
        let spec = volta_v100();
        let mut faults = FaultConfig::off();
        faults.rates.spike = 0.15;
        let bench = measure_corpus(&spec, &stats, &ids, &faults, &TrialPolicy::default());
        assert!(bench.counters.spikes > 0, "no spikes injected at 15%");
        assert!(bench.counters.outliers_rejected > 0);
        let truth = benchmark_corpus(&spec, &stats, &ids);
        for (o, t) in bench.outcomes.iter().zip(&truth) {
            let r = o.result().expect("no trials lost, so no quarantine");
            assert_eq!(r.best, t.unwrap().best, "spike flipped a label");
            for f in Format::ALL {
                let ratio = r.times.get(f) / t.unwrap().times.get(f);
                assert!((0.9..=1.1).contains(&ratio), "{f}: ratio {ratio}");
            }
        }
    }

    #[test]
    fn heavy_transients_quarantine_instead_of_panicking() {
        let (stats, ids) = corpus();
        let spec = pascal_gtx1080();
        // At a 90% transient rate nearly every attempt fails: quarantine
        // must absorb it.
        let mut faults = FaultConfig::off();
        faults.rates.transient = 0.9;
        let bench = measure_corpus(&spec, &stats, &ids, &faults, &TrialPolicy::default());
        let q = bench.quarantined();
        assert!(!q.is_empty(), "90% transient rate must quarantine");
        for (_, err) in &q {
            assert!(!err.reason().is_empty());
        }
        assert!(bench.counters.retries > 0);
        assert!(bench.counters.backoff_us > 0.0);
    }

    #[test]
    fn moderate_faults_mostly_recover() {
        let (stats, ids) = corpus();
        let spec = volta_v100();
        let bench = measure_corpus(
            &spec,
            &stats,
            &ids,
            &FaultConfig::uniform(0.05, 7),
            &TrialPolicy::default(),
        );
        let ok = bench
            .outcomes
            .iter()
            .filter(|o| o.result().is_some())
            .count();
        assert!(ok >= 9, "5% faults should recover >=9/10 cells, got {ok}");
    }

    #[test]
    fn robust_aggregate_rejects_spike() {
        let trials = [10.0, 10.1, 9.9, 10.05, 250.0];
        let (agg, rejected) = robust_aggregate(&trials, 6.0);
        assert_eq!(rejected, 1);
        assert!((agg - 10.0).abs() < 0.1, "aggregate {agg}");
    }

    #[test]
    fn robust_aggregate_keeps_agreeing_trials() {
        let trials = [5.0, 5.0, 5.0, 5.0];
        let (agg, rejected) = robust_aggregate(&trials, 6.0);
        assert_eq!(rejected, 0);
        assert_eq!(agg, 5.0);
    }
}
