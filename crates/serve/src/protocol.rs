//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one response line per request, over a plain TCP
//! stream. Requests are an externally tagged enum: unit requests are bare
//! JSON strings (`"Stats"`, `"Shutdown"`), payload-carrying requests are
//! single-key objects (`{"Select": {...}}`). Every response is one flat
//! [`Response`] envelope: `ok` plus exactly one populated section (or
//! `error`), so clients never parse alternations.
//!
//! See the README for one worked request/response example per type.

use crate::error::{ErrorEnvelope, ServeError};
use serde::{Deserialize, Serialize};
use spsel_core::telemetry::ServingReport;
use spsel_gpusim::Gpu;
use spsel_matrix::{Format, Workload};

/// One format-selection query: a matrix by path *or* by inline Table 1
/// feature vector, on one GPU, for an iteration horizon.
///
/// The optional fields may be absent on the wire (`#[serde(default)]`),
/// and an absent `workload` means SpMV, which keeps every pre-workload
/// client bit-compatible.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectBody {
    /// Path to a Matrix Market file, readable by the server process.
    #[serde(default)]
    pub matrix: Option<String>,
    /// Inline Table 1 features (exactly 21 values, table order) —
    /// the zero-I/O path for clients that extract features themselves.
    #[serde(default)]
    pub features: Option<Vec<f64>>,
    /// GPU to decide for (`Pascal`, `Volta`, `Turing`).
    pub gpu: String,
    /// SpMV iteration horizon for the amortized recommendation
    /// (default 1000).
    #[serde(default)]
    pub iterations: Option<usize>,
    /// Whether this observation may update the online clustering
    /// (default true; set false for read-only probes).
    #[serde(default)]
    pub learn: Option<bool>,
    /// Workload to decide for (`spmv`, `spmm`, `spmm32`, ...); absent
    /// means SpMV — full wire compatibility with pre-workload clients.
    #[serde(default)]
    pub workload: Option<String>,
}

/// One request line.
///
/// Every `Option` field is `#[serde(default)]`, so optional keys
/// (deadline, learn flag, workload, ...) may be absent on the wire and
/// older clients keep working.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Select a format for one matrix.
    Select {
        /// Path to a Matrix Market file.
        #[serde(default)]
        matrix: Option<String>,
        /// Inline Table 1 features (21 values).
        #[serde(default)]
        features: Option<Vec<f64>>,
        /// GPU to decide for.
        gpu: String,
        /// SpMV iteration horizon (default 1000).
        #[serde(default)]
        iterations: Option<usize>,
        /// Per-request deadline in milliseconds (overrides the server
        /// default; omit for the default).
        #[serde(default)]
        deadline_ms: Option<u64>,
        /// Whether the online clustering may learn from this observation.
        #[serde(default)]
        learn: Option<bool>,
        /// Workload to decide for; absent means SpMV.
        #[serde(default)]
        workload: Option<String>,
    },
    /// Select for many matrices in one round-trip; the worker fans the
    /// bodies out through the parallel runtime.
    Batch {
        /// The individual selection queries.
        requests: Vec<SelectBody>,
        /// Deadline for the whole batch, milliseconds.
        #[serde(default)]
        deadline_ms: Option<u64>,
    },
    /// Report a measured best format for a cluster (the online loop):
    /// the server labels/refreshes that cluster without refitting.
    Feedback {
        /// GPU whose online selector to update.
        gpu: String,
        /// Cluster index from an earlier select response.
        cluster: usize,
        /// Measured best format (`COO`, `CSR`, `ELL`, `HYB`).
        best: String,
    },
    /// Fetch the serving counters and per-GPU online-clustering state.
    Stats,
    /// Hot-swap the serving model: load and digest-validate a retrained
    /// artifact, rebase the journal tail onto it, and publish it
    /// atomically — in-flight requests finish against the old model,
    /// nothing is dropped.
    Swap {
        /// Path to the retrained artifact, readable by the server
        /// process.
        path: String,
        /// Expected training-context digest; the swap is rejected when
        /// the artifact's digest differs. Omit to accept any valid
        /// artifact.
        #[serde(default)]
        expected_digest: Option<String>,
    },
    /// Replica catch-up: stream the checkpoint (when the caller is
    /// behind it) plus every journal record past `from_seq`, so a
    /// follower converges on the leader's online state.
    Sync {
        /// Highest sequence number the caller has already applied
        /// (0 for a cold follower).
        from_seq: u64,
    },
    /// Gracefully stop the daemon after answering this request.
    Shutdown,
}

impl Request {
    /// View a `Select` request as the batchable body it carries.
    #[allow(clippy::too_many_arguments)]
    pub fn select_body(
        matrix: &Option<String>,
        features: &Option<Vec<f64>>,
        gpu: &str,
        iterations: Option<usize>,
        learn: Option<bool>,
        workload: &Option<String>,
    ) -> SelectBody {
        SelectBody {
            matrix: matrix.clone(),
            features: features.clone(),
            gpu: gpu.to_string(),
            iterations,
            learn,
            workload: workload.clone(),
        }
    }
}

/// Predicted SpMV time of one format; `us` is absent when the format is
/// infeasible (out of memory) on the target GPU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FormatTime {
    /// Format name.
    pub format: String,
    /// Predicted microseconds per SpMV, absent when infeasible.
    pub us: Option<f64>,
}

/// Answer to one selection query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectReply {
    /// GPU the decision is for.
    pub gpu: String,
    /// Workload the decision is for (`spmv` unless requested otherwise).
    pub workload: String,
    /// Recommended format (the cluster's label).
    pub format: String,
    /// Cluster the matrix was assigned to.
    pub cluster: usize,
    /// Observations in that cluster (training seed plus streamed).
    pub cluster_size: usize,
    /// Distance to the nearest centroid before this observation.
    pub centroid_distance: f64,
    /// Whether this matrix opened a brand-new online cluster.
    pub new_cluster: bool,
    /// Whether the server wants this matrix benchmarked (unlabeled
    /// cluster) — answer with a `Feedback` request.
    pub benchmark_requested: bool,
    /// Predicted per-format SpMV times.
    pub predicted: Vec<FormatTime>,
    /// Overhead-conscious recommendation at the iteration horizon.
    pub amortized_format: String,
    /// Total cost (conversion + iterations x kernel) of that choice, us.
    pub amortized_total_us: f64,
    /// Total cost of staying with CSR, us.
    pub csr_total_us: f64,
    /// Iterations after which leaving CSR pays off, absent when it never
    /// does.
    pub break_even_iterations: Option<usize>,
    /// Iteration horizon the amortized numbers used.
    pub iterations: usize,
}

/// Answer to a feedback request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeedbackReply {
    /// GPU whose online selector was updated.
    pub gpu: String,
    /// Cluster that was labeled.
    pub cluster: usize,
    /// The label now carried by that cluster.
    pub format: String,
    /// Clusters still waiting for a benchmark label.
    pub unlabeled_clusters: usize,
    /// Observations absorbed by unlabeled clusters since their last
    /// benchmark.
    pub staleness: usize,
}

/// Per-GPU online-clustering state in a stats reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuStats {
    /// GPU name.
    pub gpu: String,
    /// Current online cluster count.
    pub clusters: usize,
    /// Clusters without a benchmark label.
    pub unlabeled_clusters: usize,
    /// Observations absorbed by unlabeled clusters.
    pub staleness: usize,
    /// Matrices used to train the batch selector behind this GPU.
    pub training_records: usize,
    /// Write shards the online label table is split over.
    pub shards: usize,
    /// Version of the GPU's current online snapshot (publishes since
    /// startup).
    pub snapshot_version: u64,
    /// Feedback labels applied per shard, shard order.
    pub shard_feedbacks: Vec<u64>,
    /// Busiest-shard feedback count over the mean (1.0 = balanced,
    /// 0.0 = no feedback yet).
    pub shard_imbalance: f64,
}

/// Model-lifecycle state in a stats reply: where the journal, the
/// checkpoint, and the serving model stand — replay and compaction
/// health without reading logs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LifecycleStats {
    /// Whether a journal is attached (mutations are durable).
    pub journal_attached: bool,
    /// Highest journal sequence number assigned or seen.
    pub last_seq: u64,
    /// Highest sequence number this engine has applied (equals
    /// `last_seq` on a leader; trails it on a catching-up follower).
    pub applied_seq: u64,
    /// Highest sequence number folded into the checkpoint (0 before the
    /// first compaction).
    pub checkpoint_seq: u64,
    /// Journal records accumulated since the last checkpoint — the tail
    /// a restart would replay.
    pub records_since_checkpoint: u64,
    /// Current journal file size in bytes.
    pub journal_bytes: u64,
    /// Training-context digest of the serving model.
    pub context_digest: String,
    /// Context digest the last hot-swap published, absent before any
    /// swap.
    pub last_swap_digest: Option<String>,
    /// Hot-swaps published since startup.
    pub swaps: u64,
    /// Journal compactions completed since startup.
    pub compactions: u64,
}

/// Answer to a stats request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsReply {
    /// Artifact serialization version the engine was loaded from.
    pub artifact_version: u32,
    /// Feature-pipeline digest the engine's models consume.
    pub feature_digest: String,
    /// Per-GPU online state.
    pub gpus: Vec<GpuStats>,
    /// Serving counters since startup.
    pub serving: ServingReport,
    /// Journal/checkpoint/swap lifecycle state.
    pub lifecycle: LifecycleStats,
}

/// Answer to a hot-swap request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwapReply {
    /// Serialization version of the artifact now serving.
    pub artifact_version: u32,
    /// Training-context digest of the artifact now serving.
    pub context_digest: String,
    /// Digest of the model that was replaced.
    pub previous_digest: String,
    /// GPUs in the new model.
    pub gpus: usize,
    /// Journal-tail records rebased onto the new model before it was
    /// published.
    pub rebased: u64,
    /// Checkpoint position after the swap's compaction (unchanged when
    /// no journal is attached).
    pub checkpoint_seq: u64,
}

/// Answer to a sync request: what the follower is missing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyncReply {
    /// Leader's highest journal sequence number.
    pub last_seq: u64,
    /// Sequence the leader's checkpoint covers.
    pub checkpoint_seq: u64,
    /// Leader's training-context digest — a follower rejects state from
    /// a different context.
    pub context_digest: String,
    /// The checkpoint file, verbatim, when `from_seq` is behind it;
    /// absent when the follower only needs tail records.
    pub checkpoint: Option<String>,
    /// Journal records past `max(from_seq, checkpoint_seq)`, canonical
    /// v2 lines in sequence order.
    pub records: Vec<String>,
}

/// Answer to a shutdown request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShutdownReply {
    /// Always true: the daemon stops accepting connections after this
    /// response is written.
    pub stopping: bool,
}

/// One response line: `ok` plus exactly one populated section.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Whether the request succeeded.
    pub ok: bool,
    /// Populated when `ok` is false.
    pub error: Option<ErrorEnvelope>,
    /// Populated for `Select` requests.
    pub select: Option<SelectReply>,
    /// Populated for `Batch` requests: one response per body, in order.
    pub batch: Option<Vec<Response>>,
    /// Populated for `Feedback` requests.
    pub feedback: Option<FeedbackReply>,
    /// Populated for `Stats` requests.
    pub stats: Option<StatsReply>,
    /// Populated for `Swap` requests.
    pub swap: Option<SwapReply>,
    /// Populated for `Sync` requests.
    pub sync: Option<SyncReply>,
    /// Populated for `Shutdown` requests.
    pub shutdown: Option<ShutdownReply>,
}

impl Response {
    fn empty(ok: bool) -> Self {
        Response {
            ok,
            error: None,
            select: None,
            batch: None,
            feedback: None,
            stats: None,
            swap: None,
            sync: None,
            shutdown: None,
        }
    }

    /// Error response carrying `e`'s envelope.
    pub fn from_error(e: &ServeError) -> Self {
        Response {
            error: Some(e.envelope()),
            ..Response::empty(false)
        }
    }

    /// Successful selection response.
    pub fn of_select(reply: SelectReply) -> Self {
        Response {
            select: Some(reply),
            ..Response::empty(true)
        }
    }

    /// Batch response; `ok` reflects whether every body succeeded.
    pub fn of_batch(responses: Vec<Response>) -> Self {
        let ok = responses.iter().all(|r| r.ok);
        Response {
            batch: Some(responses),
            ..Response::empty(ok)
        }
    }

    /// Successful feedback response.
    pub fn of_feedback(reply: FeedbackReply) -> Self {
        Response {
            feedback: Some(reply),
            ..Response::empty(true)
        }
    }

    /// Stats response.
    pub fn of_stats(reply: StatsReply) -> Self {
        Response {
            stats: Some(reply),
            ..Response::empty(true)
        }
    }

    /// Hot-swap response.
    pub fn of_swap(reply: SwapReply) -> Self {
        Response {
            swap: Some(reply),
            ..Response::empty(true)
        }
    }

    /// Sync (replica catch-up) response.
    pub fn of_sync(reply: SyncReply) -> Self {
        Response {
            sync: Some(reply),
            ..Response::empty(true)
        }
    }

    /// Shutdown acknowledgement.
    pub fn of_shutdown() -> Self {
        Response {
            shutdown: Some(ShutdownReply { stopping: true }),
            ..Response::empty(true)
        }
    }
}

/// Parse a GPU name from the wire (case-insensitive).
pub fn parse_gpu(name: &str) -> Result<Gpu, ServeError> {
    Gpu::ALL
        .into_iter()
        .find(|g| g.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| ServeError::UnknownGpu {
            name: name.to_string(),
        })
}

/// Parse a storage-format name from the wire (case-insensitive). The
/// whole format universe parses — feedback may name any format a served
/// registry could have recommended, not only the CUSP four.
pub fn parse_format(name: &str) -> Result<Format, ServeError> {
    Format::UNIVERSE
        .into_iter()
        .find(|f| f.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| ServeError::UnknownFormat {
            name: name.to_string(),
        })
}

/// Parse a workload name from the wire (`spmv`, `spmm`, `spmm32`, ...);
/// `None` means the client predates workloads and gets SpMV.
pub fn parse_workload(workload: &Option<String>) -> Result<Workload, ServeError> {
    match workload {
        None => Ok(Workload::SpMv),
        Some(name) => {
            Workload::parse(name).map_err(|_| ServeError::UnknownWorkload { name: name.clone() })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_json() {
        let reqs = vec![
            Request::Select {
                matrix: Some("a.mtx".into()),
                features: None,
                gpu: "Volta".into(),
                iterations: Some(500),
                deadline_ms: Some(20),
                learn: Some(false),
                workload: Some("spmm32".into()),
            },
            Request::Batch {
                requests: vec![SelectBody {
                    matrix: None,
                    features: Some(vec![1.0; 21]),
                    gpu: "Pascal".into(),
                    iterations: None,
                    learn: None,
                    workload: None,
                }],
                deadline_ms: None,
            },
            Request::Feedback {
                gpu: "Turing".into(),
                cluster: 3,
                best: "HYB".into(),
            },
            Request::Stats,
            Request::Swap {
                path: "retrained.spsel".into(),
                expected_digest: Some("abc123".into()),
            },
            Request::Sync { from_seq: 42 },
            Request::Shutdown,
        ];
        for r in reqs {
            let json = serde_json::to_string(&r).unwrap();
            let back: Request = serde_json::from_str(&json).unwrap();
            assert_eq!(back, r);
        }
        // Unit requests are bare strings on the wire.
        assert_eq!(serde_json::to_string(&Request::Stats).unwrap(), "\"Stats\"");
        let back: Request = serde_json::from_str("\"Shutdown\"").unwrap();
        assert_eq!(back, Request::Shutdown);
    }

    #[test]
    fn responses_round_trip_and_batch_ok_aggregates() {
        let good = Response::of_shutdown();
        let bad = Response::from_error(&ServeError::UnknownGpu { name: "X".into() });
        assert!(good.ok && !bad.ok);
        let batch = Response::of_batch(vec![good.clone(), bad.clone()]);
        assert!(!batch.ok, "one failed body fails the batch");
        let json = serde_json::to_string(&batch).unwrap();
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(back, batch);
        assert_eq!(
            back.batch.as_ref().unwrap()[1].error.as_ref().unwrap().code,
            "unknown_gpu"
        );
    }

    #[test]
    fn gpu_and_format_names_parse_case_insensitively() {
        assert_eq!(parse_gpu("volta").unwrap(), Gpu::Volta);
        assert_eq!(parse_gpu("PASCAL").unwrap(), Gpu::Pascal);
        assert!(parse_gpu("TPU").is_err());
        assert_eq!(parse_format("hyb").unwrap(), Format::Hyb);
        assert_eq!(parse_format("Csr").unwrap(), Format::Csr);
        assert_eq!(parse_format("BSR").unwrap(), Format::Bsr);
        assert_eq!(parse_format("sell").unwrap(), Format::Sell);
        assert!(parse_format("CSC").is_err());
    }

    #[test]
    fn workload_names_parse_and_default_to_spmv() {
        assert_eq!(parse_workload(&None).unwrap(), Workload::SpMv);
        assert_eq!(
            parse_workload(&Some("SPMV".into())).unwrap(),
            Workload::SpMv
        );
        assert_eq!(
            parse_workload(&Some("spmm".into())).unwrap(),
            Workload::SpMm {
                k: Workload::DEFAULT_SPMM_K
            }
        );
        assert_eq!(
            parse_workload(&Some("spmm32".into())).unwrap(),
            Workload::SpMm { k: 32 }
        );
        let err = parse_workload(&Some("gemm".into())).unwrap_err();
        assert_eq!(err.code(), "unknown_workload");
    }

    #[test]
    fn select_requests_without_optional_keys_still_parse() {
        // Pre-workload clients omit `workload` (and may omit the other
        // optional keys); the hand-written Deserialize must accept that.
        let line = r#"{"Select":{"gpu":"Volta","features":[1.0,2.0]}}"#;
        let req: Request = serde_json::from_str(line).unwrap();
        match req {
            Request::Select {
                gpu,
                workload,
                deadline_ms,
                matrix,
                ..
            } => {
                assert_eq!(gpu, "Volta");
                assert_eq!(workload, None);
                assert_eq!(deadline_ms, None);
                assert_eq!(matrix, None);
            }
            other => panic!("expected Select, got {other:?}"),
        }
        let line = r#"{"Batch":{"requests":[{"gpu":"Pascal"}]}}"#;
        let req: Request = serde_json::from_str(line).unwrap();
        match req {
            Request::Batch {
                requests,
                deadline_ms,
            } => {
                assert_eq!(requests.len(), 1);
                assert_eq!(requests[0].gpu, "Pascal");
                assert_eq!(requests[0].workload, None);
                assert_eq!(deadline_ms, None);
            }
            other => panic!("expected Batch, got {other:?}"),
        }
    }
}
