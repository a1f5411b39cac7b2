//! Run instrumentation: phase wall-clock timers and cache counters,
//! serialized as the JSON run report written next to each table's output.
//!
//! The report answers, for any regenerated table: how long each pipeline
//! phase took, whether the on-disk cache was used, and how effective it
//! was — which is what makes the "cold run is parallel" and "warm run is
//! cached" claims auditable instead of anecdotal.

use serde::{Deserialize, Serialize, Wire};
use spsel_gpusim::{FaultCounters, FaultRates};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Wall-clock duration of one pipeline phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseSample {
    /// Phase name (`corpus_build`, `benchmark`, `experiment`, ...).
    pub name: String,
    /// Elapsed wall-clock seconds.
    pub seconds: f64,
}

/// Snapshot of the cache counters at report time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheReport {
    /// Whether the cache was consulted at all (false under
    /// `SPSEL_NO_CACHE=1` or when running without a cache directory).
    pub enabled: bool,
    /// Artifacts served from disk.
    pub hits: u64,
    /// Artifacts that had to be recomputed (absent, stale, or corrupt).
    pub misses: u64,
    /// Artifacts written back to disk this run.
    pub stores: u64,
    /// Misses caused specifically by an unreadable (truncated or
    /// garbage) artifact, as opposed to an absent or stale one.
    pub corrupt: u64,
    /// Individual records (and benchmark cells) served from shard
    /// artifacts instead of being regenerated or re-benchmarked.
    pub record_hits: u64,
    /// Individual records (and benchmark cells) that had to be computed
    /// fresh and were written back into shard artifacts.
    pub record_misses: u64,
    /// Serve-time records appended to the corpus by `spsel corpus
    /// ingest` this run.
    pub records_ingested: u64,
    /// Experiment-phase results served from disk (each one skips a whole
    /// table's training/CV work).
    pub experiment_hits: u64,
    /// Experiment-phase results that had to be recomputed.
    pub experiment_misses: u64,
    /// Experiment-phase results written back to disk this run.
    pub experiment_stores: u64,
    /// Trained model artifacts served from disk (each one makes a warm
    /// `spsel train` rerun instant).
    pub model_hits: u64,
    /// Trained model artifacts that had to be retrained.
    pub model_misses: u64,
    /// Trained model artifacts written back to disk this run.
    pub model_stores: u64,
}

/// The field types the serving-counter table may declare, and how each
/// sits in its `AtomicU64` slot: a `u64` as itself, an `f64` as its
/// [`f64::to_bits`] pattern.
trait CounterType: Copy {
    fn from_slot(slot: u64) -> Self;
}

impl CounterType for u64 {
    fn from_slot(slot: u64) -> u64 {
        slot
    }
}

impl CounterType for f64 {
    fn from_slot(slot: u64) -> f64 {
        f64::from_bits(slot)
    }
}

/// Generates, from the one table of serving counters below, the
/// [`ServingReport`] struct, whose derives give it its JSON and binary
/// wire forms, and its lock-free mirror [`ServingCounters`] with
/// [`ServingCounters::load`]. The binary field order and the JSON key
/// order are the table's order.
macro_rules! serving_counters {
    ($($(#[$doc:meta])* $name:ident: $ty:ident,)*) => {
        /// Snapshot of a serving process's counters (the `spsel-serve`
        /// daemon or an in-process engine driven by `loadgen`): request
        /// mix, latency quantiles from a monotonic clock,
        /// online-clustering activity, and how much feedback the online
        /// loop absorbed.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize, Wire)]
        pub struct ServingReport {
            $($(#[$doc])* pub $name: $ty,)*
        }

        /// Lock-free mirror of [`ServingReport`]: one `AtomicU64` slot
        /// per field, same names, same order. An `f64` field's slot
        /// holds its [`f64::to_bits`] pattern; for the non-negative
        /// values a report carries, bit order is numeric order, so
        /// `fetch_max` on the bits keeps a maximum.
        #[derive(Debug, Default)]
        pub struct ServingCounters {
            $($(#[$doc])* pub $name: AtomicU64,)*
        }

        impl ServingCounters {
            /// Plain-value snapshot of every slot. The loads are
            /// `Relaxed`: the slots are statistics and publish no other
            /// data.
            pub fn load(&self) -> ServingReport {
                ServingReport {
                    $($name: CounterType::from_slot(self.$name.load(Ordering::Relaxed)),)*
                }
            }
        }
    };
}

// The serving counters. Their order is the binary wire order and the
// JSON key order, so reordering or inserting one changes both formats.
serving_counters! {
    /// Requests received, all types (each batch counts once).
    requests: u64,
    /// `select` requests answered (batched selects count individually).
    select_requests: u64,
    /// `feedback` requests answered.
    feedback_requests: u64,
    /// `stats` requests answered.
    stats_requests: u64,
    /// `batch` envelopes received.
    batch_requests: u64,
    /// Largest number of selects carried by one batch envelope.
    max_batch_size: u64,
    /// Requests answered with an error envelope.
    errors: u64,
    /// Requests dropped because they exceeded their deadline.
    deadline_exceeded: u64,
    /// Selects answered from an already-labeled cluster (the serving
    /// analogue of a cache hit: no benchmark needed).
    cluster_hits: u64,
    /// Selects that opened a brand-new online cluster.
    new_clusters: u64,
    /// Selects that asked the client to benchmark (unlabeled cluster).
    benchmarks_requested: u64,
    /// Feedback labels applied to online clusters.
    feedback_applied: u64,
    /// Median request latency in microseconds (monotonic clock,
    /// log-bucketed histogram upper bound).
    p50_latency_us: f64,
    /// 99th-percentile request latency in microseconds.
    p99_latency_us: f64,
    /// Worst observed request latency in microseconds.
    max_latency_us: f64,
    /// `learn: false` selects with per-phase decision timing recorded
    /// (the denominator for the four `decision_*_ns` sums below).
    timed_decisions: u64,
    /// Cumulative nanoseconds those decisions spent extracting Table 1
    /// features from the matrix (single-pass extractor; zero for selects
    /// that supplied an inline feature vector).
    decision_extract_ns: u64,
    /// Cumulative nanoseconds spent embedding features (variance
    /// transforms, min-max scaling, PCA projection).
    decision_embed_ns: u64,
    /// Cumulative nanoseconds in the nearest-centroid query over the
    /// flat centroid buffer.
    decision_assign_ns: u64,
    /// Cumulative nanoseconds in cluster label and size lookups.
    decision_label_ns: u64,
    /// Median decision-path latency in microseconds (extract + embed +
    /// assign + label for one `learn: false` select, log-bucketed
    /// nanosecond histogram upper bound). Unlike `p50_latency_us` this
    /// excludes protocol parse/serialize and pipeline queue time, so it
    /// is the honest figure for the decision budget on a machine where
    /// clients and server share cores.
    decision_p50_us: f64,
    /// 99th-percentile decision-path latency in microseconds.
    decision_p99_us: f64,
    /// Decisions answered lock-free from an online snapshot
    /// (`learn: false` selects), summed over GPUs.
    read_decisions: u64,
    /// Decisions that took the online write path (`learn: true`).
    write_decisions: u64,
    /// Online write-side lock acquisitions (centroid + shard locks).
    write_lock_acquisitions: u64,
    /// Cumulative microseconds writers waited for online write locks.
    write_lock_wait_us: u64,
    /// Online snapshots published (one per applied mutation).
    snapshot_swaps: u64,
    /// Batch items skipped mid-compute by the cooperative deadline check.
    deadline_skipped: u64,
    /// Feedback records replayed from the journal at startup.
    journal_replayed: u64,
    /// Feedback records appended to the journal this run.
    journal_appended: u64,
    /// Journal lines skipped at replay (malformed or out-of-range).
    journal_skipped: u64,
    /// Requests answered with a `shed` envelope by admission control
    /// instead of being computed (slow reader, write buffer over the
    /// shed threshold).
    shed: u64,
    /// Connections accepted since startup.
    connections_accepted: u64,
    /// Connections refused at accept because the connection cap was
    /// reached.
    connections_rejected: u64,
    /// Most connections open at once.
    peak_connections: u64,
    /// Requests that arrived on binary-negotiated connections.
    binary_requests: u64,
    /// Cluster-opening observes (`learn: true` selects) appended to the
    /// journal this run.
    observes_journaled: u64,
    /// Observe records replayed from the journal at startup.
    observes_replayed: u64,
    /// Torn journal tails sealed (or unreadable checkpoints ignored)
    /// across startups of this process.
    torn_tails: u64,
    /// Journal compactions: online state checkpointed and the journal
    /// rotated down to a tail.
    compactions: u64,
    /// Model artifacts hot-swapped in without dropping a request.
    swaps: u64,
    /// `swap` requests received (success or failure).
    swap_requests: u64,
    /// `sync` (replica catch-up) requests received.
    sync_requests: u64,
    /// Journal records streamed to replicas by `sync` replies.
    sync_records_sent: u64,
    /// Bytes of checkpoint + journal records streamed to replicas.
    sync_bytes_sent: u64,
    /// Records this process applied from `sync` replies (follower side).
    sync_records_applied: u64,
}

/// One quarantined record: excluded from a GPU's dataset, with the reason.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuarantinedRecord {
    /// GPU whose dataset lost the record.
    pub gpu: String,
    /// Record index within the corpus.
    pub index: usize,
    /// Stable record id.
    pub id: u64,
    /// Error class (`transient_exhausted`, `insufficient_trials`).
    pub class: String,
    /// Human-readable reason.
    pub reason: String,
}

/// Count of one degradation class, for the per-class summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassCount {
    /// Class name.
    pub class: String,
    /// Occurrences.
    pub count: u64,
}

/// The `degradation` section of a run report: everything the fault
/// injector did and everything the pipeline absorbed or lost.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DegradationReport {
    /// Whether fault injection was active this run.
    pub faults_enabled: bool,
    /// Fault seed (meaningful only when enabled).
    pub fault_seed: u64,
    /// Per-class injection rates.
    pub fault_rates: FaultRates,
    /// Injection and recovery counters, merged across GPUs.
    pub injected: FaultCounters,
    /// Records excluded from a GPU's dataset, with reasons.
    pub quarantined: Vec<QuarantinedRecord>,
    /// Per-class counts over `quarantined` plus whole-GPU failures.
    pub per_class: Vec<ClassCount>,
    /// Records with no feasible format on some GPU (includes injected
    /// OOM-induced infeasibility).
    pub infeasible: u64,
    /// Cache artifact corruptions injected on write this run.
    pub cache_corruption_injected: u64,
    /// GPUs whose entire benchmark run failed and was skipped.
    pub failed_gpus: Vec<String>,
}

impl DegradationReport {
    /// Add one quarantined record and keep the per-class counts in sync.
    pub fn quarantine(&mut self, record: QuarantinedRecord) {
        self.bump_class(&record.class.clone());
        self.quarantined.push(record);
    }

    /// Record a whole-GPU outage.
    pub fn fail_gpu(&mut self, gpu: &str) {
        self.failed_gpus.push(gpu.to_string());
        self.bump_class("gpu_outage");
    }

    fn bump_class(&mut self, class: &str) {
        match self.per_class.iter_mut().find(|c| c.class == class) {
            Some(c) => c.count += 1,
            None => self.per_class.push(ClassCount {
                class: class.to_string(),
                count: 1,
            }),
        }
    }

    /// Whether anything degraded at all (worth printing).
    pub fn any(&self) -> bool {
        self.injected.any()
            || !self.quarantined.is_empty()
            || !self.failed_gpus.is_empty()
            || self.cache_corruption_injected > 0
    }

    /// One-line human summary for stderr.
    pub fn summary(&self) -> String {
        format!(
            "faults: {} transient ({} retries), {} spikes, {} dropped, {} oom, \
             {} outliers rejected; {} quarantined, {} gpu(s) lost, \
             {} cache corruption(s) injected",
            self.injected.transient,
            self.injected.retries,
            self.injected.spikes,
            self.injected.dropped,
            self.injected.oom_injected,
            self.injected.outliers_rejected,
            self.quarantined.len(),
            self.failed_gpus.len(),
            self.cache_corruption_injected,
        )
    }
}

/// Structured record of one harness invocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Name of the run (usually the table binary's name).
    pub name: String,
    /// Per-phase wall-clock timings, in execution order.
    pub phases: Vec<PhaseSample>,
    /// Cache effectiveness for this run.
    pub cache: CacheReport,
    /// Worker threads the parallel runtime used (1 when forced serial).
    pub threads: usize,
    /// Whether `SPSEL_SERIAL=1` forced serial execution.
    pub serial: bool,
    /// Fault injection and graceful-degradation accounting.
    pub degradation: DegradationReport,
    /// Serving counters, present when the run hosted a request loop
    /// (`spsel-serve`, `loadgen`).
    pub serving: Option<ServingReport>,
}

impl RunReport {
    /// Fresh report; thread count and serial flag are sampled from the
    /// parallel runtime at construction.
    pub fn new(name: impl Into<String>) -> Self {
        let serial = rayon::serial_forced();
        RunReport {
            name: name.into(),
            phases: Vec::new(),
            cache: CacheReport::default(),
            threads: if serial {
                1
            } else {
                rayon::current_num_threads()
            },
            serial,
            degradation: DegradationReport::default(),
            serving: None,
        }
    }

    /// Time `f` as one named phase, appending its sample to the report.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.phases.push(PhaseSample {
            name: name.to_string(),
            seconds: start.elapsed().as_secs_f64(),
        });
        out
    }

    /// Record an externally measured phase.
    pub fn record(&mut self, name: &str, seconds: f64) {
        self.phases.push(PhaseSample {
            name: name.to_string(),
            seconds,
        });
    }

    /// Elapsed seconds of a named phase, if it was recorded.
    pub fn phase_seconds(&self, name: &str) -> Option<f64> {
        self.phases
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.seconds)
    }

    /// Total seconds across all recorded phases.
    pub fn total_seconds(&self) -> f64 {
        self.phases.iter().map(|p| p.seconds).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate_in_order() {
        let mut r = RunReport::new("test");
        let x = r.time("a", || 2 + 2);
        assert_eq!(x, 4);
        r.record("b", 1.5);
        assert_eq!(r.phases.len(), 2);
        assert_eq!(r.phases[0].name, "a");
        assert_eq!(r.phase_seconds("b"), Some(1.5));
        assert!(r.total_seconds() >= 1.5);
        assert!(r.phase_seconds("missing").is_none());
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut r = RunReport::new("rt");
        r.record("phase", 0.25);
        r.cache.hits = 3;
        r.cache.enabled = true;
        r.serving = Some(ServingReport {
            requests: 100,
            select_requests: 90,
            feedback_applied: 4,
            p50_latency_us: 128.0,
            p99_latency_us: 4096.0,
            ..Default::default()
        });
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("p99_latency_us"));
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn degradation_tracks_quarantines_and_classes() {
        let mut d = DegradationReport {
            faults_enabled: true,
            fault_seed: 7,
            ..Default::default()
        };
        assert!(!d.any());
        d.quarantine(QuarantinedRecord {
            gpu: "Volta".into(),
            index: 3,
            id: 12,
            class: "insufficient_trials".into(),
            reason: "CSR: only 2 valid trials, need 3".into(),
        });
        d.quarantine(QuarantinedRecord {
            gpu: "Pascal".into(),
            index: 9,
            id: 40,
            class: "insufficient_trials".into(),
            reason: "ELL: only 1 valid trials, need 3".into(),
        });
        d.fail_gpu("Turing");
        assert!(d.any());
        assert_eq!(d.quarantined.len(), 2);
        assert_eq!(d.failed_gpus, vec!["Turing".to_string()]);
        let insufficient = d
            .per_class
            .iter()
            .find(|c| c.class == "insufficient_trials")
            .unwrap();
        assert_eq!(insufficient.count, 2);
        let outage = d
            .per_class
            .iter()
            .find(|c| c.class == "gpu_outage")
            .unwrap();
        assert_eq!(outage.count, 1);
        assert!(d.summary().contains("2 quarantined"));
        // The section serializes as part of the run report.
        let mut r = RunReport::new("deg");
        r.degradation = d;
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("degradation"));
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
