//! The decision engine: one codepath shared by the `select` CLI, the
//! daemon, and tests.
//!
//! An [`Engine`] holds, per GPU, the fitted batch selector (for
//! explanations) and a [`ShardedOnlineSelector`] warm-started from it
//! (for streaming decisions and feedback). Read-only decisions
//! (`learn: false`) are answered lock-free from the selector's published
//! snapshot; observations and feedback go through its sharded write
//! side, so decisions scale with cores instead of serializing per GPU.
//! Decisions are fully deterministic: the simulated measurement noise is
//! seeded by a hash of the matrix's own feature bits, so the same matrix
//! always sees the same predicted times — which is what makes artifact
//! round-trips bit-identical and testable.
//!
//! The whole per-GPU model lives behind one `RwLock<Arc<ModelState>>`
//! slot: readers clone the `Arc` and drop the guard immediately, so a
//! hot-swap ([`Engine::swap`]) is one pointer store — in-flight requests
//! finish against the model they started with and the next request sees
//! the new one, with nothing dropped. When a journal is attached, every
//! state mutation (a `learn: true` observe, an applied feedback) is
//! serialized under one lifecycle lock and journaled in application
//! order before its reply is produced, which is what makes a restarted
//! daemon byte-identical to one that never died (see
//! [`crate::journal`] for the durable format, compaction, and the crash
//! harness).

use crate::artifact::{
    self, feature_pipeline_digest, registry_for_digest, ModelArtifact, ARTIFACT_VERSION,
};
use crate::error::ServeError;
use crate::journal::{self, CrashPoint, FeedbackJournal, JournalLine};
use crate::metrics::ServeMetrics;
use crate::protocol::{
    parse_format, parse_gpu, parse_workload, FeedbackReply, FormatTime, GpuStats, LifecycleStats,
    SelectBody, SelectReply, StatsReply, SwapReply, SyncReply,
};
use spsel_core::cache::KeyWriter;
use spsel_core::overhead::{
    amortized_best, amortized_best_workload, break_even_iterations, break_even_iterations_workload,
};
use spsel_core::semi::SemiSupervisedSelector;
use spsel_core::telemetry::ServingReport;
use spsel_core::{DecisionPhaseNs, ShardedOnlineSelector};
use spsel_features::{FeatureExtractor, FeatureId, FeatureVector, MatrixStats, NUM_FEATURES};
use spsel_gpusim::cost::ConversionCostModel;
use spsel_gpusim::{predict_times, predict_workload_times, Gpu};
use spsel_matrix::io::{self, StructureRead, StructureSink};
use spsel_matrix::{CsrMatrix, Format, FormatRegistry, SpMv, Workload};
use std::cell::RefCell;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

thread_local! {
    /// Per-thread single-pass feature extractor: its scratch (row-count
    /// table, row-count histogram, diagonal census stamps) is reused
    /// across requests, so steady-state featurization of a streamed file
    /// allocates nothing per row or entry: only the file's bytes and its
    /// parsed header.
    static EXTRACTOR: RefCell<FeatureExtractor> = RefCell::new(FeatureExtractor::new());
}

/// Online-learning knobs for the serving engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineOptions {
    /// Embedded-space distance beyond which a streamed matrix opens a new
    /// online cluster.
    pub online_threshold: f64,
    /// Upper bound on online cluster growth.
    pub online_max_clusters: usize,
    /// Write shards per GPU for the online label table; 0 means one per
    /// parallel-runtime worker.
    pub write_shards: usize,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            online_threshold: 0.5,
            online_max_clusters: 256,
            write_shards: 0,
        }
    }
}

/// Durability knobs for an attached journal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JournalConfig {
    /// fsync every append before acknowledging it (checkpoint and
    /// rotation boundaries are always fsynced, regardless).
    pub fsync: bool,
    /// Compact the journal into a checkpoint once this many records have
    /// accumulated since the last one; 0 disables automatic compaction.
    pub checkpoint_every: u64,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            fsync: false,
            checkpoint_every: 4096,
        }
    }
}

struct GpuState {
    gpu: Gpu,
    batch: SemiSupervisedSelector,
    online: ShardedOnlineSelector,
    training_records: usize,
    /// Per-workload cluster-label tables (training-cluster order), for
    /// every registered workload other than SpMV. SpMV labels live in
    /// the online selector itself; online clusters past the training
    /// set fall back to the SpMV decision.
    workload_labels: Vec<(Workload, Vec<Format>)>,
}

/// Everything that swaps atomically when a retrained artifact is
/// published: the per-GPU selectors, the conversion model, the format
/// registry the labels were drawn from, and the identity of the training
/// context they came from.
struct ModelState {
    states: Vec<GpuState>,
    conversion: ConversionCostModel,
    registry: FormatRegistry,
    artifact_version: u32,
    context_digest: String,
}

type SelectorSeed = (
    Gpu,
    SemiSupervisedSelector,
    usize,
    Vec<(Workload, Vec<Format>)>,
);

impl ModelState {
    fn build(
        selectors: Vec<SelectorSeed>,
        conversion: ConversionCostModel,
        registry: FormatRegistry,
        opts: &EngineOptions,
        shards: usize,
        context_digest: String,
    ) -> ModelState {
        let states = selectors
            .into_iter()
            .map(|(gpu, batch, training_records, workload_labels)| GpuState {
                gpu,
                online: ShardedOnlineSelector::from_batch(
                    &batch,
                    opts.online_threshold,
                    opts.online_max_clusters,
                    shards,
                ),
                batch,
                training_records,
                workload_labels,
            })
            .collect();
        ModelState {
            states,
            conversion,
            registry,
            artifact_version: ARTIFACT_VERSION,
            context_digest,
        }
    }

    fn from_artifact(
        artifact: &ModelArtifact,
        opts: &EngineOptions,
        shards: usize,
    ) -> Result<ModelState, ServeError> {
        let registry = registry_for_digest(&artifact.registry_digest).ok_or_else(|| {
            ServeError::RegistryDigestMismatch {
                found: artifact.registry_digest.clone(),
                expected: FormatRegistry::cusp_default().digest(),
            }
        })?;
        let mut pairs = Vec::new();
        for g in &artifact.gpus {
            let gpu = parse_gpu(&g.gpu)?;
            // Workload names the build does not know are skipped, not
            // fatal: the SpMV fallback still answers them correctly.
            let workload_labels = g
                .workload_labels
                .iter()
                .filter_map(|wl| {
                    Workload::parse(&wl.workload)
                        .ok()
                        .map(|w| (w, wl.labels.clone()))
                })
                .collect();
            pairs.push((gpu, g.selector.clone(), g.training_records, workload_labels));
        }
        Ok(ModelState::build(
            pairs,
            artifact.conversion,
            registry,
            opts,
            shards,
            artifact.context_digest.clone(),
        ))
    }

    fn state(&self, gpu: Gpu) -> Result<&GpuState, ServeError> {
        self.states
            .iter()
            .find(|s| s.gpu == gpu)
            .ok_or_else(|| ServeError::UnknownGpu {
                name: format!("{} (not in the loaded model)", gpu.name()),
            })
    }
}

/// Mutable lifecycle state, serialized under one lock: the open journal,
/// where the last checkpoint left off, and how far the tail has grown.
/// Lock ordering: the lifecycle lock is always taken *before* the model
/// slot's write lock, never while holding a model guard.
struct Lifecycle {
    journal: Option<FeedbackJournal>,
    checkpoint_seq: u64,
    records_since_checkpoint: u64,
    checkpoint_every: u64,
    last_swap_digest: Option<String>,
}

/// A loaded model ready to answer selection queries.
pub struct Engine {
    model: RwLock<Arc<ModelState>>,
    opts: EngineOptions,
    shards: usize,
    metrics: ServeMetrics,
    feature_digest: String,
    default_iterations: usize,
    lifecycle: Mutex<Lifecycle>,
    /// Fast-path gate: when no journal is attached, mutations skip the
    /// lifecycle lock entirely and serving behaves exactly as before.
    journal_active: AtomicBool,
    journal_replayed: AtomicU64,
    journal_appended: AtomicU64,
    journal_skipped: AtomicU64,
    observes_journaled: AtomicU64,
    observes_replayed: AtomicU64,
    torn_tails: AtomicU64,
    compactions: AtomicU64,
    swaps: AtomicU64,
    sync_records_sent: AtomicU64,
    sync_bytes_sent: AtomicU64,
    sync_records_applied: AtomicU64,
    last_seq: AtomicU64,
    applied_seq: AtomicU64,
}

impl Engine {
    /// Build from a validated artifact. Fails only if an entry names a
    /// GPU this build does not simulate.
    pub fn from_artifact(
        artifact: &ModelArtifact,
        opts: &EngineOptions,
    ) -> Result<Self, ServeError> {
        let shards = Self::shard_count(opts);
        let model = ModelState::from_artifact(artifact, opts, shards)?;
        Ok(Self::assemble(model, *opts, shards))
    }

    /// Build from freshly fitted selectors (the CLI's train-on-demand
    /// path); `training_records` rides along for stats. Always a
    /// CUSP-default model: the CLI path labels SpMV only.
    pub fn from_selectors(
        selectors: Vec<(Gpu, SemiSupervisedSelector, usize)>,
        conversion: ConversionCostModel,
        opts: &EngineOptions,
    ) -> Self {
        let shards = Self::shard_count(opts);
        let seeds = selectors
            .into_iter()
            .map(|(gpu, batch, n)| (gpu, batch, n, Vec::new()))
            .collect();
        let model = ModelState::build(
            seeds,
            conversion,
            FormatRegistry::cusp_default(),
            opts,
            shards,
            String::new(),
        );
        Self::assemble(model, *opts, shards)
    }

    fn shard_count(opts: &EngineOptions) -> usize {
        if opts.write_shards == 0 {
            rayon::current_num_threads()
        } else {
            opts.write_shards
        }
    }

    fn assemble(model: ModelState, opts: EngineOptions, shards: usize) -> Engine {
        Engine {
            model: RwLock::new(Arc::new(model)),
            opts,
            shards,
            metrics: ServeMetrics::new(),
            feature_digest: feature_pipeline_digest(),
            default_iterations: 1000,
            lifecycle: Mutex::new(Lifecycle {
                journal: None,
                checkpoint_seq: 0,
                records_since_checkpoint: 0,
                checkpoint_every: 0,
                last_swap_digest: None,
            }),
            journal_active: AtomicBool::new(false),
            journal_replayed: AtomicU64::new(0),
            journal_appended: AtomicU64::new(0),
            journal_skipped: AtomicU64::new(0),
            observes_journaled: AtomicU64::new(0),
            observes_replayed: AtomicU64::new(0),
            torn_tails: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            sync_records_sent: AtomicU64::new(0),
            sync_bytes_sent: AtomicU64::new(0),
            sync_records_applied: AtomicU64::new(0),
            last_seq: AtomicU64::new(0),
            applied_seq: AtomicU64::new(0),
        }
    }

    /// The current model. The slot's read guard is held only long enough
    /// to clone the `Arc`, so a request works entirely off the model it
    /// started with even if a swap publishes a new one mid-flight.
    fn model(&self) -> Arc<ModelState> {
        Arc::clone(&self.model.read().expect("model slot poisoned"))
    }

    fn lifecycle_lock(&self) -> Result<std::sync::MutexGuard<'_, Lifecycle>, ServeError> {
        self.lifecycle.lock().map_err(|_| ServeError::LockPoisoned {
            what: "engine lifecycle".to_string(),
        })
    }

    /// Restore durable online state and keep the journal open for
    /// appending, with default durability knobs. See
    /// [`Engine::attach_journal_with`].
    pub fn attach_journal(&mut self, path: impl AsRef<Path>) -> Result<(u64, u64), ServeError> {
        self.attach_journal_with(path, JournalConfig::default())
    }

    /// Restore durable online state: install the checkpoint (if one
    /// exists and matches this model's training context), replay the
    /// journal tail — observes and feedback past the checkpoint — onto
    /// the online selectors, then keep the journal open so every
    /// mutation from now on is journaled before it is acknowledged.
    /// Returns `(replayed, skipped)` feedback-record counts — skipped
    /// counts malformed lines and records that no longer apply (e.g. a
    /// cluster index past the warm-start), neither of which is fatal.
    /// Call before sharing the engine (`&mut self` enforces this).
    pub fn attach_journal_with(
        &mut self,
        path: impl AsRef<Path>,
        cfg: JournalConfig,
    ) -> Result<(u64, u64), ServeError> {
        let path = path.as_ref();
        let model = self.model();

        // 1. Checkpoint, if any: a compacted fold of everything up to
        //    its `last_seq`. One from a different training context is
        //    ignored (the artifact changed under it) and the daemon
        //    starts from the artifact's warm start instead.
        let mut checkpoint_seq = 0u64;
        match journal::load_checkpoint(&journal::checkpoint_path(path)) {
            Ok(Some(ckpt)) if ckpt.context_digest == model.context_digest => {
                install_checkpoint(&model, &ckpt);
                checkpoint_seq = ckpt.last_seq;
            }
            Ok(_) => {}
            // Unreadable checkpoints should be impossible (they are
            // published by atomic rename), but a corrupt disk is not a
            // reason to refuse to serve: fall back to the warm start.
            Err(_) => {
                self.torn_tails.fetch_add(1, Ordering::Relaxed);
            }
        }

        // 2. The tail: every record past the checkpoint, in order.
        let scan = journal::read_journal(path)?;
        self.torn_tails.fetch_add(scan.malformed, Ordering::Relaxed);
        let (observes, replayed, apply_skipped) =
            replay_entries(&model, &scan.entries, checkpoint_seq);
        let skipped = scan.malformed + apply_skipped;
        self.observes_replayed.store(observes, Ordering::Relaxed);
        self.journal_replayed.store(replayed, Ordering::Relaxed);
        self.journal_skipped.store(skipped, Ordering::Relaxed);

        // 3. Reopen for appending; numbering continues above both the
        //    tail and the checkpoint.
        let journal = FeedbackJournal::open_with(path, cfg.fsync)?;
        journal.ensure_seq_above(checkpoint_seq);
        self.last_seq.store(journal.last_seq(), Ordering::Relaxed);
        self.applied_seq
            .store(journal.last_seq(), Ordering::Relaxed);
        let mut lc = self.lifecycle_lock()?;
        lc.journal = Some(journal);
        lc.checkpoint_seq = checkpoint_seq;
        lc.records_since_checkpoint = observes + replayed;
        lc.checkpoint_every = cfg.checkpoint_every;
        drop(lc);
        self.journal_active.store(true, Ordering::Release);
        Ok((replayed, skipped))
    }

    /// GPUs this engine can decide for, in artifact order.
    pub fn gpus(&self) -> Vec<Gpu> {
        self.model().states.iter().map(|s| s.gpu).collect()
    }

    /// The engine's serving counters (shared with the request loop).
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// Run `f` against the batch selector backing one GPU (for
    /// explanations); `None` when the model does not know the GPU.
    pub fn with_batch_selector<R>(
        &self,
        gpu: Gpu,
        f: impl FnOnce(&SemiSupervisedSelector) -> R,
    ) -> Option<R> {
        let model = self.model();
        model
            .states
            .iter()
            .find(|s| s.gpu == gpu)
            .map(|s| f(&s.batch))
    }

    /// Resolve a request body to `(features, stats)`: read and
    /// featurize the matrix file, or reconstruct stats from an inline
    /// Table 1 vector.
    pub fn resolve_features(
        &self,
        body: &SelectBody,
    ) -> Result<(FeatureVector, MatrixStats), ServeError> {
        let (fv, stats, _) = self.resolve_features_timed(body)?;
        Ok((fv, stats))
    }

    /// [`Self::resolve_features`] plus the nanoseconds spent in feature
    /// extraction proper: for a matrix file, the extractor's walks after
    /// the read (see [`matrix_stats`]); 0 for inline vectors.
    fn resolve_features_timed(
        &self,
        body: &SelectBody,
    ) -> Result<(FeatureVector, MatrixStats, u64), ServeError> {
        if let Some(path) = &body.matrix {
            let (stats, extract_ns) = matrix_stats(path)?;
            return Ok((FeatureVector::from_stats(&stats), stats, extract_ns));
        }
        if let Some(values) = &body.features {
            if values.len() != NUM_FEATURES {
                return Err(ServeError::FeatureDim {
                    got: values.len(),
                    expected: NUM_FEATURES,
                });
            }
            let mut raw = [0.0; NUM_FEATURES];
            raw.copy_from_slice(values);
            let fv = FeatureVector::from_raw(raw);
            let stats = stats_from_features(&fv);
            return Ok((fv, stats, 0));
        }
        Err(ServeError::BadRequest {
            message: "select needs `matrix` (a path) or `features` (21 values)".into(),
        })
    }

    /// One online decision, journaled when it mutates durable state.
    ///
    /// `learn: false` never touches a write lock: the whole view comes
    /// from one immutable snapshot of the model the request started
    /// with. `learn: true` with a journal attached serializes under the
    /// lifecycle lock so the journal's append order equals the
    /// application order (observe replay is order-dependent), and the
    /// observe is durable before the reply exists.
    fn decide(
        &self,
        model: &Arc<ModelState>,
        gpu: Gpu,
        fv: &FeatureVector,
        learn: bool,
    ) -> Result<(spsel_core::OnlineView, DecisionPhaseNs), ServeError> {
        if !(learn && self.journal_active.load(Ordering::Acquire)) {
            let state = model.state(gpu)?;
            return Ok(state.online.decide_phased(fv, learn));
        }
        let mut lc = self.lifecycle_lock()?;
        // Re-resolve under the lock: a swap that landed between the
        // caller's model read and here must not have its rebased state
        // bypassed by an observe applied to the superseded model.
        let model = self.model();
        let state = model.state(gpu)?;
        let (view, phases) = state.online.decide_phased(fv, true);
        if let Some(journal) = lc.journal.as_ref() {
            let seq = journal.append_observe(gpu.name(), fv.as_slice())?;
            self.observes_journaled.fetch_add(1, Ordering::Relaxed);
            self.last_seq.store(seq, Ordering::Relaxed);
            self.applied_seq.store(seq, Ordering::Relaxed);
            lc.records_since_checkpoint += 1;
            self.maybe_compact(&mut lc)?;
        }
        Ok((view, phases))
    }

    /// Answer one selection query end to end. This is the single decision
    /// codepath: CLI, daemon, and batch requests all land here.
    pub fn select(&self, body: &SelectBody) -> Result<SelectReply, ServeError> {
        let gpu = parse_gpu(&body.gpu)?;
        let workload = parse_workload(&body.workload)?;
        let model = self.model();
        model.state(gpu)?;
        let (fv, stats, extract_ns) = self.resolve_features_timed(body)?;
        let iterations = body.iterations.unwrap_or(self.default_iterations);
        let learn = body.learn.unwrap_or(true);

        let (view, phases) = self.decide(&model, gpu, &fv, learn)?;
        let decision = view.decision;
        self.metrics
            .select(decision.new_cluster, decision.benchmark_requested);
        if !learn {
            self.metrics.decision_phases(extract_ns, phases);
        }

        // The SpMV path is the original four-format codepath, untouched:
        // a CUSP-default model answers SpMV requests byte-identically to
        // builds that predate workloads. Other workloads (and wider
        // registries) go through the workload-generic tables.
        let legacy_spmv = workload == Workload::SpMv
            && model.registry.digest() == FormatRegistry::cusp_default().digest();
        let (format, predicted, amortized, break_even) = if legacy_spmv {
            let times = predict_times(&gpu.spec(), &stats, matrix_id(&fv));
            let amortized = amortized_best(&times, &model.conversion, iterations);
            let break_even = break_even_iterations(&times, &model.conversion, amortized.format);
            let predicted = Format::ALL
                .into_iter()
                .map(|f| {
                    let t = times.get(f);
                    FormatTime {
                        format: f.name().to_string(),
                        us: t.is_finite().then_some(t),
                    }
                })
                .collect();
            (decision.format, predicted, amortized, break_even)
        } else {
            let state = model.state(gpu)?;
            // Non-SpMV format: the cluster's per-workload label when the
            // cluster was seen in training; the SpMV decision otherwise
            // (online clusters opened after training have no table row).
            let format = if workload == Workload::SpMv {
                decision.format
            } else {
                state
                    .workload_labels
                    .iter()
                    .find(|(w, _)| *w == workload)
                    .and_then(|(_, labels)| labels.get(decision.cluster))
                    .copied()
                    .unwrap_or(decision.format)
            };
            let times = predict_workload_times(
                &gpu.spec(),
                &stats,
                matrix_id(&fv),
                &model.registry,
                workload,
            );
            let formats = model.registry.formats();
            let amortized =
                amortized_best_workload(&times, &formats, &model.conversion, iterations);
            let break_even =
                break_even_iterations_workload(&times, &model.conversion, amortized.format);
            let predicted = formats
                .iter()
                .map(|&f| {
                    let t = times.get(f);
                    FormatTime {
                        format: f.name().to_string(),
                        us: t.is_finite().then_some(t),
                    }
                })
                .collect();
            (format, predicted, amortized, break_even)
        };

        Ok(SelectReply {
            gpu: gpu.name().to_string(),
            workload: workload.name(),
            format: format.name().to_string(),
            cluster: decision.cluster,
            cluster_size: view.cluster_size,
            centroid_distance: view.distance,
            new_cluster: decision.new_cluster,
            benchmark_requested: decision.benchmark_requested,
            predicted,
            amortized_format: amortized.format.name().to_string(),
            amortized_total_us: amortized.total_us,
            csr_total_us: amortized.csr_total_us,
            break_even_iterations: break_even,
            iterations,
        })
    }

    /// Apply a measured label to an online cluster (the feedback loop),
    /// counting it and journaling it when a journal is attached. Without
    /// a journal only the cluster's own shard lock is taken — feedback
    /// never blocks reads, and never blocks observations landing in
    /// other shards. With a journal, application and append are one
    /// critical section so journal order equals application order.
    pub fn feedback(
        &self,
        gpu: &str,
        cluster: usize,
        best: &str,
    ) -> Result<FeedbackReply, ServeError> {
        if !self.journal_active.load(Ordering::Acquire) {
            let reply = apply_feedback_to(&self.model(), gpu, cluster, best)?;
            self.metrics.feedback();
            return Ok(reply);
        }
        let mut lc = self.lifecycle_lock()?;
        let reply = apply_feedback_to(&self.model(), gpu, cluster, best)?;
        self.metrics.feedback();
        if let Some(journal) = lc.journal.as_ref() {
            let seq = journal.append_feedback(&reply.gpu, reply.cluster, &reply.format)?;
            self.journal_appended.fetch_add(1, Ordering::Relaxed);
            self.last_seq.store(seq, Ordering::Relaxed);
            self.applied_seq.store(seq, Ordering::Relaxed);
            lc.records_since_checkpoint += 1;
            self.maybe_compact(&mut lc)?;
        }
        Ok(reply)
    }

    fn maybe_compact(&self, lc: &mut Lifecycle) -> Result<(), ServeError> {
        if lc.checkpoint_every > 0 && lc.records_since_checkpoint >= lc.checkpoint_every {
            self.compact_locked(lc, CrashPoint::None)?;
        }
        Ok(())
    }

    /// Compact the journal now: fold the full online state into a
    /// checkpoint (temp-file-then-atomic-rename, fsynced), then rotate
    /// the journal down to a header. Returns `true` when the journal was
    /// rotated. Errors when no journal is attached.
    pub fn compact(&self) -> Result<bool, ServeError> {
        let mut lc = self.lifecycle_lock()?;
        self.compact_locked(&mut lc, CrashPoint::None)
    }

    /// [`Engine::compact`] with a deterministic kill switch, for the
    /// crash-fault harness: the compaction stops dead at `crash`,
    /// exactly as if the process had been `kill -9`ed there, and returns
    /// `false`. Every stop point leaves the pair (checkpoint, journal)
    /// in a state a restart recovers from.
    pub fn compact_with_crash(&self, crash: CrashPoint) -> Result<bool, ServeError> {
        let mut lc = self.lifecycle_lock()?;
        self.compact_locked(&mut lc, crash)
    }

    fn compact_locked(&self, lc: &mut Lifecycle, crash: CrashPoint) -> Result<bool, ServeError> {
        let Some(journal) = lc.journal.as_ref() else {
            return Err(ServeError::BadRequest {
                message: "no journal attached; nothing to compact".into(),
            });
        };
        // The checkpoint must not claim records the disk does not hold.
        journal.sync()?;
        let model = self.model();
        let last_seq = journal.last_seq();
        let checkpoint = journal::Checkpoint {
            checkpoint_version: journal::CHECKPOINT_VERSION,
            context_digest: model.context_digest.clone(),
            last_seq,
            gpus: model
                .states
                .iter()
                .map(|s| journal::CheckpointGpu {
                    gpu: s.gpu.name().to_string(),
                    state: s.online.export_state(),
                })
                .collect(),
        };
        let path = journal::checkpoint_path(journal.path());
        if !journal::write_checkpoint(&path, &checkpoint, crash)? {
            return Ok(false);
        }
        // Never rotate the tail away unless the published checkpoint
        // reads back.
        journal::load_checkpoint(&path)?;
        if crash == CrashPoint::AfterCheckpointRename {
            return Ok(false);
        }
        if !journal.rotate(last_seq, crash)? {
            return Ok(false);
        }
        lc.checkpoint_seq = last_seq;
        lc.records_since_checkpoint = 0;
        self.compactions.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    /// Zero-downtime hot-swap: load and digest-validate a retrained
    /// artifact, warm-start a fresh model from it, rebase the journal
    /// tail (every record past the checkpoint) onto it, and publish it
    /// atomically. In-flight requests finish against the old model;
    /// nothing is dropped or shed. When a journal is attached the swap
    /// ends with a compaction, so the durable state on disk carries the
    /// new training context and a restart resumes from the new artifact.
    pub fn swap(&self, path: &str, expected_digest: Option<&str>) -> Result<SwapReply, ServeError> {
        let artifact = artifact::load(path)?;
        if let Some(expected) = expected_digest {
            if expected != artifact.context_digest {
                return Err(ServeError::ContextDigestMismatch {
                    found: artifact.context_digest.clone(),
                    expected: expected.to_string(),
                });
            }
        }
        let mut lc = self.lifecycle_lock()?;
        let next = Arc::new(ModelState::from_artifact(
            &artifact,
            &self.opts,
            self.shards,
        )?);
        let mut rebased = 0u64;
        if let Some(journal) = lc.journal.as_ref() {
            journal.sync()?;
            let scan = journal::read_journal(journal.path())?;
            let (observes, feedback, _skipped) =
                replay_entries(&next, &scan.entries, lc.checkpoint_seq);
            rebased = observes + feedback;
        }
        let previous_digest = self.model().context_digest.clone();
        *self.model.write().expect("model slot poisoned") = Arc::clone(&next);
        self.swaps.fetch_add(1, Ordering::Relaxed);
        lc.last_swap_digest = Some(next.context_digest.clone());
        if lc.journal.is_some() {
            self.compact_locked(&mut lc, CrashPoint::None)?;
        }
        Ok(SwapReply {
            artifact_version: next.artifact_version,
            context_digest: next.context_digest.clone(),
            previous_digest,
            gpus: next.states.len(),
            rebased,
            checkpoint_seq: lc.checkpoint_seq,
        })
    }

    /// Replica catch-up, leader side: everything a follower at
    /// `from_seq` is missing — the checkpoint (when the follower is
    /// behind it) plus the journal records past `max(from_seq,
    /// checkpoint)`, re-serialized as canonical v2 lines in sequence
    /// order. Requires an attached journal.
    pub fn sync(&self, from_seq: u64) -> Result<SyncReply, ServeError> {
        let lc = self.lifecycle_lock()?;
        let Some(journal) = lc.journal.as_ref() else {
            return Err(ServeError::BadRequest {
                message: "sync requires a journal-backed leader (start it with --journal)".into(),
            });
        };
        journal.sync()?;
        let model = self.model();
        let mut checkpoint = None;
        if from_seq < lc.checkpoint_seq {
            let path = journal::checkpoint_path(journal.path());
            checkpoint = Some(std::fs::read_to_string(&path).map_err(|e| ServeError::Io {
                path: path.display().to_string(),
                message: e.to_string(),
            })?);
        }
        let floor = lc.checkpoint_seq.max(from_seq);
        let scan = journal::read_journal(journal.path())?;
        let mut records = Vec::new();
        for entry in &scan.entries {
            if entry.seq() > floor {
                records.push(
                    serde_json::to_string(entry).map_err(|e| ServeError::Malformed {
                        message: e.to_string(),
                    })?,
                );
            }
        }
        let bytes = records.iter().map(|r| r.len() as u64).sum::<u64>()
            + checkpoint.as_ref().map_or(0, |c| c.len() as u64);
        self.sync_records_sent
            .fetch_add(records.len() as u64, Ordering::Relaxed);
        self.sync_bytes_sent.fetch_add(bytes, Ordering::Relaxed);
        Ok(SyncReply {
            last_seq: journal.last_seq(),
            checkpoint_seq: lc.checkpoint_seq,
            context_digest: model.context_digest.clone(),
            checkpoint,
            records,
        })
    }

    /// Replica catch-up, follower side: install the checkpoint (if the
    /// reply carries one) and apply every record above what this engine
    /// has already applied, in order and without re-journaling. Returns
    /// the number of records applied. Rejects state from a different
    /// training context — a replica must serve the same artifact as its
    /// leader.
    pub fn apply_sync(&self, reply: &SyncReply) -> Result<u64, ServeError> {
        let mut lc = self.lifecycle_lock()?;
        let model = self.model();
        if reply.context_digest != model.context_digest {
            return Err(ServeError::ContextDigestMismatch {
                found: reply.context_digest.clone(),
                expected: model.context_digest.clone(),
            });
        }
        let mut applied = 0u64;
        if let Some(raw) = &reply.checkpoint {
            let ckpt = journal::parse_checkpoint(raw)?;
            if ckpt.context_digest != model.context_digest {
                return Err(ServeError::ContextDigestMismatch {
                    found: ckpt.context_digest.clone(),
                    expected: model.context_digest.clone(),
                });
            }
            install_checkpoint(&model, &ckpt);
            self.applied_seq.fetch_max(ckpt.last_seq, Ordering::Relaxed);
            lc.checkpoint_seq = lc.checkpoint_seq.max(ckpt.last_seq);
        }
        for line in &reply.records {
            let Some(entry) = journal::parse_line(line, 0) else {
                self.torn_tails.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            let seq = entry.seq();
            if seq <= self.applied_seq.load(Ordering::Relaxed) {
                continue;
            }
            let ok = match &entry {
                JournalLine::Observe { gpu, features, .. } => {
                    apply_observe_to(&model, gpu, features).is_ok()
                }
                JournalLine::Feedback {
                    gpu, cluster, best, ..
                } => apply_feedback_to(&model, gpu, *cluster, best).is_ok(),
                JournalLine::Header { .. } => false,
            };
            if ok {
                applied += 1;
            }
            self.applied_seq.fetch_max(seq, Ordering::Relaxed);
        }
        self.sync_records_applied
            .fetch_add(applied, Ordering::Relaxed);
        self.last_seq.fetch_max(reply.last_seq, Ordering::Relaxed);
        Ok(applied)
    }

    /// The highest sequence number this engine has applied (its own
    /// appends, startup replay, or follower catch-up) — what a follower
    /// passes as the next `Sync.from_seq`.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq.load(Ordering::Relaxed)
    }

    /// The full serving report: wire counters from [`ServeMetrics`] plus
    /// the engine-level online-contention, journal, and lifecycle
    /// counters.
    pub fn serving_report(&self) -> ServingReport {
        let mut report = self.metrics.report();
        let model = self.model();
        for s in &model.states {
            let c = s.online.contention().report();
            report.read_decisions += c.read_decisions;
            report.write_decisions += c.write_decisions;
            report.write_lock_acquisitions += c.write_lock_acquisitions;
            report.write_lock_wait_us += c.write_lock_wait_us;
            report.snapshot_swaps += c.snapshot_swaps;
        }
        report.journal_replayed = self.journal_replayed.load(Ordering::Relaxed);
        report.journal_appended = self.journal_appended.load(Ordering::Relaxed);
        report.journal_skipped = self.journal_skipped.load(Ordering::Relaxed);
        report.observes_journaled = self.observes_journaled.load(Ordering::Relaxed);
        report.observes_replayed = self.observes_replayed.load(Ordering::Relaxed);
        report.torn_tails = self.torn_tails.load(Ordering::Relaxed);
        report.compactions = self.compactions.load(Ordering::Relaxed);
        report.swaps = self.swaps.load(Ordering::Relaxed);
        report.sync_records_sent = self.sync_records_sent.load(Ordering::Relaxed);
        report.sync_bytes_sent = self.sync_bytes_sent.load(Ordering::Relaxed);
        report.sync_records_applied = self.sync_records_applied.load(Ordering::Relaxed);
        report
    }

    /// Snapshot the serving counters, per-GPU online state, and the
    /// model lifecycle (journal length, checkpoint position, last swap).
    pub fn stats(&self) -> StatsReply {
        self.metrics.stats();
        let model = self.model();
        let gpus = model
            .states
            .iter()
            .map(|s| {
                let snap = s.online.snapshot();
                let contention = s.online.contention().report();
                GpuStats {
                    gpu: s.gpu.name().to_string(),
                    clusters: snap.n_clusters(),
                    unlabeled_clusters: snap.unlabeled_clusters(),
                    staleness: snap.staleness(),
                    training_records: s.training_records,
                    shards: s.online.shards(),
                    snapshot_version: snap.version(),
                    shard_imbalance: contention.shard_imbalance(),
                    shard_feedbacks: contention.shard_feedbacks,
                }
            })
            .collect();
        let lifecycle = match self.lifecycle.lock() {
            Ok(lc) => LifecycleStats {
                journal_attached: lc.journal.is_some(),
                last_seq: self.last_seq.load(Ordering::Relaxed),
                applied_seq: self.applied_seq.load(Ordering::Relaxed),
                checkpoint_seq: lc.checkpoint_seq,
                records_since_checkpoint: lc.records_since_checkpoint,
                journal_bytes: lc
                    .journal
                    .as_ref()
                    .and_then(|j| std::fs::metadata(j.path()).ok())
                    .map_or(0, |m| m.len()),
                context_digest: model.context_digest.clone(),
                last_swap_digest: lc.last_swap_digest.clone(),
                swaps: self.swaps.load(Ordering::Relaxed),
                compactions: self.compactions.load(Ordering::Relaxed),
            },
            // A poisoned lifecycle must not take stats down with it.
            Err(_) => LifecycleStats {
                journal_attached: self.journal_active.load(Ordering::Relaxed),
                last_seq: self.last_seq.load(Ordering::Relaxed),
                applied_seq: self.applied_seq.load(Ordering::Relaxed),
                checkpoint_seq: 0,
                records_since_checkpoint: 0,
                journal_bytes: 0,
                context_digest: model.context_digest.clone(),
                last_swap_digest: None,
                swaps: self.swaps.load(Ordering::Relaxed),
                compactions: self.compactions.load(Ordering::Relaxed),
            },
        };
        StatsReply {
            artifact_version: model.artifact_version,
            feature_digest: self.feature_digest.clone(),
            gpus,
            serving: self.serving_report(),
            lifecycle,
        }
    }
}

/// The label-application core of the feedback loop, shared by wire
/// requests, journal replay, swap rebasing, and follower catch-up.
/// Validates the cluster index so a bad client (or a stale journal
/// record) gets a typed error instead of an out-of-range panic. Touches
/// neither metrics nor the journal.
fn apply_feedback_to(
    model: &ModelState,
    gpu: &str,
    cluster: usize,
    best: &str,
) -> Result<FeedbackReply, ServeError> {
    let gpu = parse_gpu(gpu)?;
    let state = model.state(gpu)?;
    let format = parse_format(best)?;
    let view = state
        .online
        .report_benchmark(cluster, format)
        .ok_or_else(|| ServeError::UnknownCluster {
            gpu: gpu.name().to_string(),
            cluster,
            clusters: state.online.n_clusters(),
        })?;
    Ok(FeedbackReply {
        gpu: gpu.name().to_string(),
        cluster,
        format: format.name().to_string(),
        unlabeled_clusters: view.unlabeled_clusters,
        staleness: view.staleness,
    })
}

/// Re-apply one journaled observation: the raw feature values go through
/// the same `decide(learn: true)` path the original request took, so
/// centroid motion and cluster creation replay bit-exactly.
fn apply_observe_to(model: &ModelState, gpu: &str, features: &[f64]) -> Result<(), ServeError> {
    let gpu = parse_gpu(gpu)?;
    let state = model.state(gpu)?;
    if features.len() != NUM_FEATURES {
        return Err(ServeError::FeatureDim {
            got: features.len(),
            expected: NUM_FEATURES,
        });
    }
    let mut raw = [0.0; NUM_FEATURES];
    raw.copy_from_slice(features);
    state.online.decide(&FeatureVector::from_raw(raw), true);
    Ok(())
}

/// Replay journal entries with `seq > after_seq` onto `model`, in file
/// order. Returns `(observes_applied, feedback_applied, skipped)`;
/// records that no longer apply are skipped, never fatal.
fn replay_entries(model: &ModelState, entries: &[JournalLine], after_seq: u64) -> (u64, u64, u64) {
    let (mut observes, mut feedback, mut skipped) = (0u64, 0u64, 0u64);
    for entry in entries {
        match entry {
            JournalLine::Observe { seq, gpu, features } if *seq > after_seq => {
                match apply_observe_to(model, gpu, features) {
                    Ok(()) => observes += 1,
                    Err(_) => skipped += 1,
                }
            }
            JournalLine::Feedback {
                seq,
                gpu,
                cluster,
                best,
            } if *seq > after_seq => match apply_feedback_to(model, gpu, *cluster, best) {
                Ok(_) => feedback += 1,
                Err(_) => skipped += 1,
            },
            _ => {}
        }
    }
    (observes, feedback, skipped)
}

/// Install a checkpoint's per-GPU state into a model (GPUs are matched
/// by name; a checkpoint entry for a GPU the model lacks is ignored).
fn install_checkpoint(model: &ModelState, checkpoint: &journal::Checkpoint) {
    for g in &checkpoint.gpus {
        if let Some(state) = model
            .states
            .iter()
            .find(|s| s.gpu.name().eq_ignore_ascii_case(&g.gpu))
        {
            state.online.install_state(&g.state);
        }
    }
}

/// Largest row or column count a matrix file may declare: 2^24.
///
/// It is set by a memory budget. Reading a file allocates per entry, but
/// selecting on it also allocates per declared row and column however
/// few entries there are. A streamed select (see [`matrix_stats`])
/// builds no COO or CSR form: it needs 8 B of extractor row count and
/// 4 B of diagonal stamp per row, plus 4 B of stamp per column, so at
/// most 16 B per unit of the larger dimension, or 256 MiB for a shape at
/// the cap, all of it extractor scratch the worker keeps for later
/// requests. A file whose entry order takes the fallback also builds
/// the CSR form, 8 B of row pointer per row more: at most 384 MiB at
/// the cap. Without a cap, the 70-byte `4000000000 4000000000 0`
/// (0 entries, indices within `u32`) aborts the process on a 32 GB
/// allocation.
pub const MAX_MATRIX_DIM: usize = 1 << 24;

/// The thread's extractor as the sink of a Matrix Market read, declining
/// any shape past [`MAX_MATRIX_DIM`] so that nothing is sized per row or
/// column for it.
struct CappedExtractor<'a>(&'a mut FeatureExtractor);

impl StructureSink for CappedExtractor<'_> {
    fn begin(&mut self, nrows: usize, ncols: usize) -> bool {
        nrows <= MAX_MATRIX_DIM && ncols <= MAX_MATRIX_DIM && self.0.begin(nrows, ncols)
    }

    #[inline]
    fn position(&mut self, row: usize, col: usize) {
        self.0.position(row, col);
    }
}

/// Read a Matrix Market file and compute its [`MatrixStats`]: the one
/// featurization behind every `matrix` select and the `select` CLI.
///
/// Every Table 1 feature is a property of the sparsity pattern, so only
/// the structure is read (values are validated, not converted). The
/// file's positions stream straight into the thread's
/// [`FeatureExtractor`], with no COO or CSR form, whenever the entry
/// order proves them distinct (see [`io::stream_matrix_market`]); any
/// other file is read into a matrix, converted to CSR and extracted from
/// that, with the same stats or the same error. A shape past
/// [`MAX_MATRIX_DIM`] is `too_large`, once the file has read without
/// error, and nothing is allocated per row for it.
///
/// Returns the stats and the nanoseconds of the extractor's walks after
/// the read: the aggregate walks over the row counts for a streamed
/// file, the walks over the CSR form otherwise.
pub fn matrix_stats(path: &str) -> Result<(MatrixStats, u64), ServeError> {
    EXTRACTOR.with(|ex| {
        let ex = &mut *ex.borrow_mut();
        let read = io::stream_matrix_market_file(path, &mut CappedExtractor(ex)).map_err(|e| {
            ServeError::Io {
                path: path.to_string(),
                message: e.to_string(),
            }
        })?;
        Ok(match read {
            StructureRead::Streamed => timed(|| ex.finish()),
            StructureRead::Collected(coo) => {
                let (nrows, ncols) = (coo.nrows(), coo.ncols());
                if nrows > MAX_MATRIX_DIM || ncols > MAX_MATRIX_DIM {
                    return Err(ServeError::TooLarge {
                        path: path.to_string(),
                        nrows,
                        ncols,
                        max: MAX_MATRIX_DIM,
                    });
                }
                let csr = CsrMatrix::from(&coo);
                timed(|| ex.stats(&csr))
            }
        })
    })
}

/// `f`'s result and the nanoseconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as u64)
}

/// Deterministic measurement-noise seed for a matrix: an FNV-1a hash of
/// its feature bits. The same matrix (by features) always sees the same
/// simulated times, on the CLI, the daemon, and across artifact reloads.
pub fn matrix_id(fv: &FeatureVector) -> u64 {
    let mut w = KeyWriter::new();
    for &v in fv.as_slice() {
        w.f64(v);
    }
    w.finish()
}

/// Reconstruct the raw [`MatrixStats`] the GPU performance model needs
/// from a Table 1 feature vector. Every stats field is either a feature
/// itself or derivable from one (`hyb_ell_nnz = nnz - hyb_coo`,
/// `hyb_ell_width = hyb_ell_size / nrows`), which is what makes the
/// inline-features request path possible without shipping the matrix.
pub fn stats_from_features(fv: &FeatureVector) -> MatrixStats {
    let count = |id: FeatureId| fv.get(id).max(0.0).round() as usize;
    let nrows = count(FeatureId::NRows);
    let nnz = count(FeatureId::Nnz);
    let hyb_ell_size = count(FeatureId::HybEllSize);
    let hyb_coo_nnz = count(FeatureId::HybCoo);
    MatrixStats {
        nrows,
        ncols: count(FeatureId::NCols),
        nnz,
        nnz_min: count(FeatureId::NnzMin),
        nnz_max: count(FeatureId::NnzMax),
        nnz_mean: fv.get(FeatureId::NnzMu),
        nnz_std: fv.get(FeatureId::NnzSig),
        sig_lower: fv.get(FeatureId::SigLower),
        sig_higher: fv.get(FeatureId::SigHigher),
        csr_max: count(FeatureId::CsrMax),
        hyb_ell_width: hyb_ell_size.checked_div(nrows).unwrap_or(0),
        hyb_ell_size,
        hyb_ell_nnz: nnz.saturating_sub(hyb_coo_nnz),
        hyb_coo_nnz,
        diagonals: count(FeatureId::Diagonals),
        dia_size: count(FeatureId::DiaSize),
        ell_size: count(FeatureId::EllSize),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spsel_matrix::gen;

    #[test]
    fn stats_survive_the_feature_round_trip() {
        // matrix -> stats -> features -> stats must reproduce every field
        // the GPU model reads, so inline-feature requests decide exactly
        // like matrix-path requests.
        for seed in 0..5u64 {
            let csr = CsrMatrix::from(&gen::power_law(200, 200, 2, 2.3, 80, seed));
            let stats = MatrixStats::from_csr(&csr);
            let fv = FeatureVector::from_stats(&stats);
            let back = stats_from_features(&fv);
            assert_eq!(back, stats);
            assert_eq!(matrix_id(&fv), matrix_id(&FeatureVector::from_stats(&back)));
        }
    }

    #[test]
    fn matrix_id_distinguishes_matrices() {
        let a = FeatureVector::from_csr(&CsrMatrix::from(&gen::stencil2d(10, 0)));
        let b = FeatureVector::from_csr(&CsrMatrix::from(&gen::stencil2d(11, 0)));
        assert_ne!(matrix_id(&a), matrix_id(&b));
        assert_eq!(matrix_id(&a), matrix_id(&a));
    }
}
