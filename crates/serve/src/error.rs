//! Typed serving errors and the wire error envelope.
//!
//! Every failure a client (or the `select` CLI) can provoke — malformed
//! JSON, an unknown GPU, a stale artifact, a missed deadline — maps to a
//! [`ServeError`] variant, and every variant renders as the same
//! [`ErrorEnvelope`] on the wire: a stable machine-readable `code` plus a
//! human-readable `message`. Nothing on the request path panics.

use serde::{Deserialize, Serialize};
use spsel_core::CoreError;
use std::fmt;

/// Why a serving operation (artifact load, request decode, decision)
/// failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The request was syntactically or semantically malformed.
    BadRequest {
        /// What was wrong.
        message: String,
    },
    /// The request named a GPU the model does not know.
    UnknownGpu {
        /// The offending name.
        name: String,
    },
    /// The request named a storage format that does not exist.
    UnknownFormat {
        /// The offending name.
        name: String,
    },
    /// The request named a workload this build does not simulate.
    UnknownWorkload {
        /// The offending name.
        name: String,
    },
    /// Feedback referenced a cluster index the online selector does not
    /// have (would otherwise be an assertion failure deep in the core).
    UnknownCluster {
        /// GPU whose online selector was addressed.
        gpu: String,
        /// The offending cluster index.
        cluster: usize,
        /// Current number of clusters.
        clusters: usize,
    },
    /// An inline feature vector had the wrong dimensionality.
    FeatureDim {
        /// Features received.
        got: usize,
        /// Features required (Table 1 length).
        expected: usize,
    },
    /// An I/O failure on a matrix file or model artifact path.
    Io {
        /// The path involved.
        path: String,
        /// The underlying error text.
        message: String,
    },
    /// The request took longer than its deadline allowed.
    DeadlineExceeded {
        /// Deadline the request carried (or the server default), ms.
        deadline_ms: u64,
        /// Time actually spent, ms.
        elapsed_ms: u64,
    },
    /// A batch item was never computed: the batch deadline had already
    /// elapsed when the cooperative check reached it. Earlier items in
    /// the same batch still carry real replies.
    DeadlineSkipped {
        /// Deadline the batch carried (or the server default), ms.
        deadline_ms: u64,
        /// Batch time already spent when this item was reached, ms.
        elapsed_ms: u64,
    },
    /// The request was never computed: the connection's pending output
    /// exceeded the shed threshold (a slow reader), so admission control
    /// answered with this envelope instead of burning compute on a reply
    /// the client is not draining.
    Shed {
        /// Bytes already queued for this connection.
        pending_bytes: usize,
        /// Shed threshold the server is running with.
        threshold_bytes: usize,
    },
    /// A binary frame declared a length past the protocol maximum — the
    /// stream cannot be resynchronized, so the connection is closed after
    /// this envelope.
    FrameTooLarge {
        /// Declared payload length.
        declared: u32,
        /// Largest payload the protocol allows.
        max: u32,
    },
    /// The artifact was written by an incompatible serialization version.
    VersionMismatch {
        /// Version found in the artifact.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The artifact was trained against a different feature pipeline.
    FeatureDigestMismatch {
        /// Digest found in the artifact.
        found: String,
        /// Digest of this build's pipeline.
        expected: String,
    },
    /// An artifact (or wire payload) that should be ours does not parse.
    Malformed {
        /// Parser diagnostics.
        message: String,
    },
    /// An internal lock was poisoned by a panicking holder. The request
    /// fails typed instead of propagating the panic (one wedged worker
    /// must not take down journaling or serving).
    LockPoisoned {
        /// Which lock (e.g. `journal writer`, `engine lifecycle`).
        what: String,
    },
    /// The artifact was trained against a format registry this build
    /// does not provide (different format set or conversion costs).
    RegistryDigestMismatch {
        /// Digest found in the artifact.
        found: String,
        /// Digest(s) this build accepts.
        expected: String,
    },
    /// A swap or sync named (or delivered) state from a different
    /// training context than the one being extended.
    ContextDigestMismatch {
        /// Digest found on the incoming artifact or state.
        found: String,
        /// Digest the operation expected.
        expected: String,
    },
    /// A core-pipeline error (training data, labeling, ...).
    Core(CoreError),
}

impl ServeError {
    /// Stable machine-readable error code for the wire envelope.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::BadRequest { .. } => "bad_request",
            ServeError::UnknownGpu { .. } => "unknown_gpu",
            ServeError::UnknownFormat { .. } => "unknown_format",
            ServeError::UnknownWorkload { .. } => "unknown_workload",
            ServeError::UnknownCluster { .. } => "unknown_cluster",
            ServeError::FeatureDim { .. } => "feature_dim",
            ServeError::Io { .. } => "io",
            ServeError::DeadlineExceeded { .. } => "deadline_exceeded",
            ServeError::DeadlineSkipped { .. } => "deadline_skipped",
            ServeError::Shed { .. } => "shed",
            ServeError::FrameTooLarge { .. } => "frame_too_large",
            ServeError::VersionMismatch { .. } => "artifact_version_mismatch",
            ServeError::FeatureDigestMismatch { .. } => "feature_digest_mismatch",
            ServeError::Malformed { .. } => "malformed",
            ServeError::LockPoisoned { .. } => "lock_poisoned",
            ServeError::RegistryDigestMismatch { .. } => "registry_digest_mismatch",
            ServeError::ContextDigestMismatch { .. } => "context_digest_mismatch",
            ServeError::Core(_) => "core",
        }
    }

    /// The wire form of this error. A message longer than
    /// [`MAX_ERROR_MESSAGE`] bytes is cut on a char boundary and ends in
    /// `...`, so JSON and binary replies carry the same text.
    pub fn envelope(&self) -> ErrorEnvelope {
        let mut message = self.to_string();
        if message.len() > MAX_ERROR_MESSAGE {
            let mut cut = MAX_ERROR_MESSAGE - 3;
            while !message.is_char_boundary(cut) {
                cut -= 1;
            }
            message.truncate(cut);
            message.push_str("...");
        }
        ErrorEnvelope {
            code: self.code().to_string(),
            message,
        }
    }
}

/// Longest error-envelope message, in bytes. Messages echo client input
/// (a matrix path, a GPU name, the first line of a file), and the binary
/// framing writes strings with a `u16` length.
pub const MAX_ERROR_MESSAGE: usize = 4096;

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadRequest { message } => write!(f, "bad request: {message}"),
            ServeError::UnknownGpu { name } => {
                write!(
                    f,
                    "unknown GPU `{name}` (expected Pascal, Volta, or Turing)"
                )
            }
            ServeError::UnknownFormat { name } => {
                write!(
                    f,
                    "unknown format `{name}` (expected COO, CSR, ELL, HYB, \
                     BSR, SELL, or DIA)"
                )
            }
            ServeError::UnknownWorkload { name } => {
                write!(
                    f,
                    "unknown workload `{name}` (expected `spmv`, `spmm`, or \
                     `spmm<k>` with k in 1..=4096)"
                )
            }
            ServeError::UnknownCluster {
                gpu,
                cluster,
                clusters,
            } => write!(
                f,
                "cluster {cluster} does not exist on {gpu} ({clusters} clusters)"
            ),
            ServeError::FeatureDim { got, expected } => {
                write!(f, "feature vector has {got} values, expected {expected}")
            }
            ServeError::Io { path, message } => write!(f, "{path}: {message}"),
            ServeError::DeadlineExceeded {
                deadline_ms,
                elapsed_ms,
            } => write!(f, "deadline of {deadline_ms} ms exceeded ({elapsed_ms} ms)"),
            ServeError::DeadlineSkipped {
                deadline_ms,
                elapsed_ms,
            } => write!(
                f,
                "skipped: batch deadline of {deadline_ms} ms had elapsed \
                 ({elapsed_ms} ms) before this item was computed"
            ),
            ServeError::Shed {
                pending_bytes,
                threshold_bytes,
            } => write!(
                f,
                "shed: {pending_bytes} bytes already queued for this connection \
                 (threshold {threshold_bytes}); drain responses before sending more"
            ),
            ServeError::FrameTooLarge { declared, max } => write!(
                f,
                "frame declares a {declared}-byte payload, protocol maximum is {max}; \
                 closing the connection"
            ),
            ServeError::VersionMismatch { found, expected } => write!(
                f,
                "artifact version {found} is incompatible with this build \
                 (expected {expected}); re-run `spsel train`"
            ),
            ServeError::FeatureDigestMismatch { found, expected } => write!(
                f,
                "artifact was trained against feature pipeline {found}, \
                 this build computes {expected}; re-run `spsel train`"
            ),
            ServeError::Malformed { message } => write!(f, "malformed payload: {message}"),
            ServeError::LockPoisoned { what } => write!(
                f,
                "internal {what} lock was poisoned by a panicking holder; \
                 this request failed but the daemon is still serving"
            ),
            ServeError::RegistryDigestMismatch { found, expected } => write!(
                f,
                "artifact was trained against format registry {found}, which \
                 this build does not provide (expected {expected}); re-run \
                 `spsel train`"
            ),
            ServeError::ContextDigestMismatch { found, expected } => write!(
                f,
                "training-context digest {found} does not match the serving \
                 context {expected}; retrain against the same corpus or omit \
                 the expectation"
            ),
            ServeError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        // Argument/IO core errors keep their specific wire codes so CLI
        // and daemon report them identically.
        match e {
            CoreError::InvalidArgument { message } => ServeError::BadRequest { message },
            CoreError::Io { path, message } => ServeError::Io { path, message },
            other => ServeError::Core(other),
        }
    }
}

/// The wire form of every failure: one stable code, one readable message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorEnvelope {
    /// Machine-readable error class (`bad_request`, `unknown_gpu`, ...).
    pub code: String,
    /// Human-readable description.
    pub message: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_has_a_distinct_code_and_message() {
        let errors = [
            ServeError::BadRequest {
                message: "x".into(),
            },
            ServeError::UnknownGpu { name: "TPU".into() },
            ServeError::UnknownFormat { name: "CSC".into() },
            ServeError::UnknownWorkload {
                name: "gemm".into(),
            },
            ServeError::UnknownCluster {
                gpu: "Volta".into(),
                cluster: 99,
                clusters: 4,
            },
            ServeError::FeatureDim {
                got: 3,
                expected: 21,
            },
            ServeError::Io {
                path: "a.mtx".into(),
                message: "gone".into(),
            },
            ServeError::DeadlineExceeded {
                deadline_ms: 5,
                elapsed_ms: 9,
            },
            ServeError::DeadlineSkipped {
                deadline_ms: 5,
                elapsed_ms: 9,
            },
            ServeError::Shed {
                pending_bytes: 300_000,
                threshold_bytes: 262_144,
            },
            ServeError::FrameTooLarge {
                declared: u32::MAX,
                max: 8 << 20,
            },
            ServeError::VersionMismatch {
                found: 2,
                expected: 1,
            },
            ServeError::FeatureDigestMismatch {
                found: "aa".into(),
                expected: "bb".into(),
            },
            ServeError::Malformed {
                message: "truncated".into(),
            },
            ServeError::LockPoisoned {
                what: "journal writer".into(),
            },
            ServeError::RegistryDigestMismatch {
                found: "ee".into(),
                expected: "ff".into(),
            },
            ServeError::ContextDigestMismatch {
                found: "cc".into(),
                expected: "dd".into(),
            },
            ServeError::Core(CoreError::EmptyDataset {
                gpu: "Pascal".into(),
            }),
        ];
        let codes: std::collections::HashSet<_> = errors.iter().map(|e| e.code()).collect();
        assert_eq!(codes.len(), errors.len());
        for e in &errors {
            let env = e.envelope();
            assert_eq!(env.code, e.code());
            assert!(!env.message.is_empty());
        }
    }

    #[test]
    fn long_messages_are_cut_on_a_char_boundary() {
        // With the one-byte `x` ahead of them, the two-byte `é`s put the
        // 4093-byte cut mid-character.
        for name in ["x".repeat(70_000), format!("x{}", "\u{e9}".repeat(35_000))] {
            let env = ServeError::UnknownGpu { name }.envelope();
            assert!(
                env.message.len() <= MAX_ERROR_MESSAGE,
                "{}",
                env.message.len()
            );
            assert!(env.message.len() > MAX_ERROR_MESSAGE - 8);
            assert!(env.message.starts_with("unknown GPU `"));
            assert!(env.message.ends_with("..."));
        }
        let short = ServeError::UnknownGpu { name: "TPU".into() };
        assert_eq!(short.envelope().message, short.to_string());
    }

    #[test]
    fn envelope_round_trips_and_core_args_map_to_wire_codes() {
        let env = ServeError::VersionMismatch {
            found: 9,
            expected: 1,
        }
        .envelope();
        let json = serde_json::to_string(&env).unwrap();
        let back: ErrorEnvelope = serde_json::from_str(&json).unwrap();
        assert_eq!(back, env);

        let e: ServeError = CoreError::invalid_argument("--base takes a number").into();
        assert_eq!(e.code(), "bad_request");
        let e: ServeError = CoreError::io("m.mtx", "denied").into();
        assert_eq!(e.code(), "io");
    }
}
