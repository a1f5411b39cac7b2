//! `spsel-serve`: the persistent format-selection service.
//!
//! The paper's conclusion sketches an online classification system that
//! learns from SpMV operations as they are performed; this crate is the
//! serving half that makes it deployable:
//!
//! * [`artifact`] — versioned, self-describing model artifacts: train
//!   once (`spsel train`), ship the file, load it anywhere with
//!   bit-identical decisions. Version or feature-pipeline mismatches are
//!   typed errors, never panics.
//! * [`engine`] — the one decision codepath (batch selector + warm
//!   [`spsel_core::ShardedOnlineSelector`] per GPU) shared by the
//!   `select` CLI, the daemon, and tests. Read-only decisions are
//!   answered lock-free from a published snapshot; observations and
//!   feedback go through a sharded write side.
//! * [`server`] — a nonblocking readiness-loop TCP server: each
//!   [`event_loop`] worker multiplexes thousands of persistent
//!   connections through one hand-rolled `poll(2)` loop, with pipelined
//!   requests, per-request deadlines (enforced cooperatively inside
//!   batches), load-shedding admission control for slow readers, and
//!   graceful shutdown. [`protocol`] defines the wire types, which
//!   derive their JSON and binary forms, [`framing`] the length-prefixed
//!   binary protocol negotiated per connection (same
//!   [`protocol::Request`]/[`protocol::Response`] on both), and [`error`]
//!   the typed error envelope.
//! * [`metrics`] — lock-free serving counters (latency quantiles from a
//!   monotonic clock, lock-contention and snapshot-swap counts) surfaced
//!   through the `stats` request and the run-report JSON.
//! * [`journal`] — an append-only, sequence-numbered JSONL journal of
//!   every online mutation (cluster-opening observes *and* feedback
//!   labels), replayed at startup so a restarted daemon is
//!   state-identical to the one that died. Past a record threshold the
//!   journal compacts into an atomic checkpoint of the online state plus
//!   a short tail; torn tails from a mid-write crash are sealed and
//!   counted, never fatal. The same machinery powers zero-downtime
//!   artifact hot-swap (`Swap`) and replica catch-up (`Sync`).
//! * [`ingest`] — corpus growth: `spsel corpus ingest` replays journaled
//!   observations into the persistent cache's growth shards, so the next
//!   `spsel train` learns from serve-time matrices without regenerating
//!   or re-benchmarking anything that already exists.
//!
//! The daemon binary is `spsel-serve`; the artifact CLI is `spsel`
//! (`train`, `inspect`, `request`); `loadgen` in the bench crate drives
//! concurrent synthetic clients against all of this.

pub mod artifact;
pub mod client;
pub mod engine;
pub mod error;
pub mod event_loop;
pub mod framing;
pub mod ingest;
pub mod journal;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use artifact::{
    feature_pipeline_digest, registry_for_digest, ModelArtifact, TrainConfig, WorkloadLabels,
    ARTIFACT_VERSION,
};
pub use client::{Client, Protocol};
pub use engine::{Engine, EngineOptions, JournalConfig};
pub use error::{ErrorEnvelope, ServeError};
pub use framing::{FrameBuffer, MAGIC, MAX_FRAME};
pub use ingest::{ingest_journal, IngestReport};
pub use journal::{
    checkpoint_path, load_checkpoint, parse_checkpoint, parse_line, read_journal, write_checkpoint,
    Checkpoint, CheckpointGpu, CrashPoint, FeedbackJournal, JournalLine, JournalRecord,
    JournalScan, CHECKPOINT_VERSION, JOURNAL_VERSION,
};
pub use metrics::ServeMetrics;
pub use protocol::{
    parse_workload, LifecycleStats, Request, Response, SelectBody, SelectReply, SwapReply,
    SyncReply,
};
pub use server::{ServeOptions, Server};
