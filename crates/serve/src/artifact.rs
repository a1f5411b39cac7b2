//! Versioned, self-describing model artifacts.
//!
//! An artifact is everything a serving process needs to make decisions
//! without retraining: one fitted [`SemiSupervisedSelector`] per GPU
//! (which embeds its [`spsel_features::Preprocessor`]), the explicit
//! per-GPU cluster-label tables, the conversion-cost model, and enough
//! provenance (artifact version, feature-pipeline digest, corpus config,
//! context digest) to refuse anything stale.
//!
//! Compatibility rule: an artifact is loadable iff its
//! `artifact_version` equals this build's [`ARTIFACT_VERSION`] *and* its
//! `feature_digest` equals [`feature_pipeline_digest()`]. Any change to
//! the serialized shape must bump [`ARTIFACT_VERSION`]; any change to the
//! Table 1 feature set changes the digest by construction. Both
//! mismatches are typed [`ServeError`]s, never panics.
//!
//! Serialization uses the workspace's serde_json shim, which prints
//! floats with shortest-round-trip formatting — so a load reproduces
//! every model coefficient bit-for-bit and decisions from a reloaded
//! artifact are bit-identical to the selector that produced it (see
//! `tests/artifact.rs`).

use crate::error::ServeError;
use serde::{Deserialize, Serialize, Slot};
use spsel_core::cache::{Cache, KeyWriter};
use spsel_core::corpus::{Corpus, CorpusConfig};
use spsel_core::experiments::formatzoo::RegistryChoice;
use spsel_core::experiments::ExperimentContext;
use spsel_core::semi::{
    majority_label, ClusterMethod, Labeler, SemiConfig, SemiSupervisedSelector,
};
use spsel_core::CoreResult;
use spsel_features::{FeatureId, NUM_FEATURES};
use spsel_gpusim::cost::ConversionCostModel;
use spsel_gpusim::{best_format_for, Gpu};
use spsel_matrix::{Format, FormatRegistry, Workload};
use std::path::Path;

/// Version of the artifact serialization format. Bump on any change to
/// the serialized shape or semantics; a mismatch is rejected at load.
pub const ARTIFACT_VERSION: u32 = 1;

/// Digest of the feature pipeline the artifact's models consume: the
/// feature count and the exact Table 1 feature order. Models trained
/// against a different pipeline cannot be applied to this build's
/// feature vectors, digest inequality catches that at load time.
pub fn feature_pipeline_digest() -> String {
    let mut w = KeyWriter::new();
    w.usize(NUM_FEATURES);
    for id in FeatureId::ALL {
        w.str(id.name());
    }
    w.finish_hex()
}

/// The registry a digest names, when this build provides it. An
/// artifact whose digest is none of these cannot be served — its label
/// space (format set, order, or conversion costs) differs from anything
/// this build can decide over.
pub fn registry_for_digest(digest: &str) -> Option<FormatRegistry> {
    [
        FormatRegistry::cusp_default(),
        FormatRegistry::extended(),
        FormatRegistry::full(),
    ]
    .into_iter()
    .find(|r| r.digest() == digest)
}

fn known_registry_digests() -> String {
    [
        FormatRegistry::cusp_default(),
        FormatRegistry::extended(),
        FormatRegistry::full(),
    ]
    .iter()
    .map(|r| r.digest())
    .collect::<Vec<_>>()
    .join(", ")
}

/// One workload's per-cluster label table: `labels[c]` is the best
/// format for cluster `c` under this workload (majority vote over the
/// cluster's training members, falling back to the SpMV label).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadLabels {
    /// Workload wire name (`spmm4`, `spmm32`, ...).
    pub workload: String,
    /// One format label per cluster, cluster order.
    pub labels: Vec<Format>,
}

/// One GPU's trained selector plus its self-describing label tables.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GpuArtifact {
    /// GPU name (`Pascal`, `Volta`, `Turing`).
    pub gpu: String,
    /// The fitted selector (embeds preprocessing and clustering).
    pub selector: SemiSupervisedSelector,
    /// Per-cluster format labels, duplicated out of the selector so
    /// `spsel inspect` (and foreign tooling) can read the decision table
    /// without understanding the full selector encoding.
    pub cluster_labels: Vec<Format>,
    /// Per-workload cluster label tables for the non-SpMV workloads;
    /// empty in pre-workload artifacts (every workload then falls back
    /// to the SpMV labels), which is why the key may be absent.
    #[serde(default)]
    pub workload_labels: Vec<WorkloadLabels>,
    /// Matrices the selector was trained on.
    pub training_records: usize,
}

/// A complete, versioned serving model.
#[derive(Debug, Clone, Serialize)]
pub struct ModelArtifact {
    /// Serialization version — must equal [`ARTIFACT_VERSION`] to load.
    pub artifact_version: u32,
    /// Feature-pipeline digest — must equal [`feature_pipeline_digest`].
    pub feature_digest: String,
    /// Format-registry digest: the label space the model was trained
    /// over. Must name a registry this build provides
    /// ([`registry_for_digest`]); pre-registry artifacts (no such field)
    /// default to the CUSP four.
    pub registry_digest: String,
    /// Hex digest of the training context (corpus + every benchmark bit).
    pub context_digest: String,
    /// Corpus configuration the model was trained on.
    pub corpus: CorpusConfig,
    /// Conversion-cost model for amortized recommendations.
    pub conversion: ConversionCostModel,
    /// One entry per GPU that produced a usable training set.
    pub gpus: Vec<GpuArtifact>,
}

/// An artifact's top-level keys as read, each value or conversion error
/// held, so that [`from_json`] can check the version and the registry
/// digest before it reports anything else.
#[derive(Default)]
struct ArtifactFields {
    artifact_version: Slot<u32>,
    feature_digest: Slot<String>,
    registry_digest: Slot<Option<String>>,
    context_digest: Slot<String>,
    corpus: Slot<CorpusConfig>,
    conversion: Slot<ConversionCostModel>,
    gpus: Slot<Vec<GpuArtifact>>,
}

impl serde::Deserialize for ArtifactFields {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let mut f = ArtifactFields::default();
        r.object("object for ModelArtifact", |r, key| match &*key {
            "artifact_version" => f.artifact_version.read(r),
            "feature_digest" => f.feature_digest.read(r),
            "registry_digest" => f.registry_digest.read(r),
            "context_digest" => f.context_digest.read(r),
            "corpus" => f.corpus.read(r),
            "conversion" => f.conversion.read(r),
            "gpus" => f.gpus.read(r),
            _ => r.skip(),
        })?;
        Ok(f)
    }
}

impl ArtifactFields {
    /// The artifact, or the first missing or mistyped key in declaration
    /// order. An absent `registry_digest` means CUSP default, so
    /// pre-registry artifacts load.
    fn into_artifact(self) -> Result<ModelArtifact, serde::Error> {
        Ok(ModelArtifact {
            artifact_version: self
                .artifact_version
                .take("artifact_version", "ModelArtifact")?,
            feature_digest: self
                .feature_digest
                .take("feature_digest", "ModelArtifact")?,
            registry_digest: self
                .registry_digest
                .take_or(None)?
                .unwrap_or_else(|| FormatRegistry::cusp_default().digest()),
            context_digest: self
                .context_digest
                .take("context_digest", "ModelArtifact")?,
            corpus: self.corpus.take("corpus", "ModelArtifact")?,
            conversion: self.conversion.take("conversion", "ModelArtifact")?,
            gpus: self.gpus.take("gpus", "ModelArtifact")?,
        })
    }
}

impl serde::Deserialize for ModelArtifact {
    // Hand-written so `registry_digest` may be absent: pre-registry
    // artifacts load as CUSP-default models.
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        ArtifactFields::deserialize(r)?.into_artifact()
    }
}

/// Training-time configuration: which labeler/seed to use and how the
/// cluster count scales with the training-set size (the `select` CLI's
/// long-standing `max(n / divisor, min_clusters)` heuristic).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Seed for clustering and per-cluster models.
    pub seed: u64,
    /// Cluster-labeling strategy.
    pub labeler: Labeler,
    /// Cluster count = `max(n / cluster_divisor, min_clusters)`.
    pub cluster_divisor: usize,
    /// Lower bound on the cluster count.
    pub min_clusters: usize,
    /// Format registry (label space) to train over. The default —
    /// [`RegistryChoice::CuspDefault`] — reproduces the historical
    /// pipeline bit-for-bit: measured bench labels, same class count.
    pub registry: RegistryChoice,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            seed: 7,
            labeler: Labeler::Vote,
            cluster_divisor: 10,
            min_clusters: 4,
            registry: RegistryChoice::CuspDefault,
        }
    }
}

impl TrainConfig {
    /// The per-GPU [`SemiConfig`] for a training set of `n` matrices.
    pub fn semi_config(&self, n: usize) -> SemiConfig {
        SemiConfig::new(
            ClusterMethod::KMeans {
                nc: (n / self.cluster_divisor).max(self.min_clusters),
            },
            self.labeler,
            self.seed,
        )
    }

    /// Cache key for a trained artifact: artifact version, training
    /// context digest, and every training parameter — anything that could
    /// change the trained model changes the key.
    pub fn cache_key(&self, context_digest: u64) -> u64 {
        let mut w = KeyWriter::new();
        w.u32(ARTIFACT_VERSION);
        w.u64(context_digest);
        w.u64(self.seed);
        w.str(self.labeler.name());
        w.usize(self.cluster_divisor);
        w.usize(self.min_clusters);
        w.str(&self.registry.registry().digest());
        w.finish()
    }
}

/// Train one selector per active GPU from an experiment context.
/// GPUs that lost their whole benchmark run (fault degradation) are
/// skipped; an error is returned only when *no* GPU is trainable.
pub fn train(ctx: &ExperimentContext, tc: &TrainConfig) -> CoreResult<ModelArtifact> {
    let registry = tc.registry.registry();
    let mut gpus = Vec::new();
    for gpu in ctx.active_gpus() {
        let indices = ctx.dataset(gpu);
        if indices.is_empty() {
            continue;
        }
        let features = ctx.features(&indices);
        // SpMV training labels: the measured bench labels under the CUSP
        // default registry — bit-identical to the historical pipeline —
        // and model-derived best-of-registry labels otherwise (the bench
        // harness only measures the CUSP four).
        let labels: Vec<Format> = match tc.registry {
            RegistryChoice::CuspDefault => match Corpus::labels(ctx.bench(gpu), &indices) {
                Ok(l) => l,
                Err(_) => continue,
            },
            _ => {
                let spec = gpu.spec();
                indices
                    .iter()
                    .map(|&i| {
                        let r = &ctx.corpus.records[i];
                        best_format_for(&spec, &r.stats, r.id, &registry, Workload::SpMv)
                            .unwrap_or(Format::Csr)
                    })
                    .collect()
            }
        };
        let selector =
            SemiSupervisedSelector::fit(&features, &labels, tc.semi_config(indices.len()));
        let cluster_labels = selector.cluster_labels().to_vec();
        let workload_labels =
            workload_label_tables(ctx, gpu, &indices, &selector, &registry, &cluster_labels);
        gpus.push(GpuArtifact {
            gpu: gpu.name().to_string(),
            cluster_labels,
            workload_labels,
            training_records: indices.len(),
            selector,
        });
    }
    if gpus.is_empty() {
        return Err(spsel_core::CoreError::EmptyDataset { gpu: "all".into() });
    }
    Ok(ModelArtifact {
        artifact_version: ARTIFACT_VERSION,
        feature_digest: feature_pipeline_digest(),
        registry_digest: registry.digest(),
        context_digest: format!("{:016x}", ctx.digest()),
        corpus: ctx.corpus.config().clone(),
        conversion: ConversionCostModel::default(),
        gpus,
    })
}

/// One per-cluster label table per non-SpMV workload: every cluster is
/// labeled by majority vote over its training members' best registered
/// format under that workload, falling back to the cluster's SpMV label
/// when no member has a feasible format.
fn workload_label_tables(
    ctx: &ExperimentContext,
    gpu: Gpu,
    indices: &[usize],
    selector: &SemiSupervisedSelector,
    registry: &FormatRegistry,
    cluster_labels: &[Format],
) -> Vec<WorkloadLabels> {
    let spec = gpu.spec();
    let assignments = &selector.clustering().assignments;
    let nc = cluster_labels.len();
    Workload::ALL
        .into_iter()
        .filter(|&w| w != Workload::SpMv)
        .map(|w| {
            let mut members: Vec<Vec<Format>> = vec![Vec::new(); nc];
            for (pos, &i) in indices.iter().enumerate() {
                let r = &ctx.corpus.records[i];
                if let Some(f) = best_format_for(&spec, &r.stats, r.id, registry, w) {
                    members[assignments[pos]].push(f);
                }
            }
            WorkloadLabels {
                workload: w.name(),
                labels: (0..nc)
                    .map(|c| majority_label(&members[c], cluster_labels[c]))
                    .collect(),
            }
        })
        .collect()
}

/// Train with the artifact-bytes cache: a warm rerun with the same
/// context and training config loads the stored bytes instead of
/// retraining (counted as a model hit in the cache report).
pub fn train_cached(
    ctx: &ExperimentContext,
    tc: &TrainConfig,
    cache: &Cache,
) -> Result<ModelArtifact, ServeError> {
    let key = tc.cache_key(ctx.digest());
    if let Some(payload) = cache.load_model(ARTIFACT_VERSION, key) {
        // A cached payload that no longer parses (version drift without a
        // bump would be a bug, but bugs happen) falls back to retraining.
        if let Ok(artifact) = from_json(&payload) {
            return Ok(artifact);
        }
    }
    let artifact = train(ctx, tc)?;
    cache.store_model(ARTIFACT_VERSION, key, &to_json(&artifact));
    Ok(artifact)
}

/// Serialize an artifact to its canonical JSON encoding.
pub fn to_json(artifact: &ModelArtifact) -> String {
    serde_json::to_string(artifact).expect("model artifact serializes")
}

/// Parse and validate an artifact: version first (so any future encoding
/// still gets a precise [`ServeError::VersionMismatch`], not a parse
/// error), then the full decode, then the feature-pipeline digest, then
/// the format-registry digest (which must name a registry this build
/// provides; absent means CUSP default, so pre-registry artifacts keep
/// loading).
pub fn from_json(payload: &str) -> Result<ModelArtifact, ServeError> {
    let malformed = |e: serde::Error| ServeError::Malformed {
        message: e.to_string(),
    };
    // One pass over the bytes: syntax errors surface here, every key's
    // conversion waits in its slot.
    let fields: ArtifactFields = serde_json::from_str(payload).map_err(malformed)?;
    let found = fields
        .artifact_version
        .clone()
        .take("artifact_version", "ModelArtifact")
        .map_err(malformed)?;
    if found != ARTIFACT_VERSION {
        return Err(ServeError::VersionMismatch {
            found,
            expected: ARTIFACT_VERSION,
        });
    }
    // Registry digest is also checked before the full decode: a model
    // trained over a format set this build does not provide must get the
    // precise mismatch error even if the rest of the payload has drifted
    // with it.
    let registry_digest = fields
        .registry_digest
        .clone()
        .take_or(None)
        .map_err(malformed)?
        .unwrap_or_else(|| FormatRegistry::cusp_default().digest());
    if registry_for_digest(&registry_digest).is_none() {
        return Err(ServeError::RegistryDigestMismatch {
            found: registry_digest,
            expected: known_registry_digests(),
        });
    }
    let artifact = fields.into_artifact().map_err(malformed)?;
    let expected = feature_pipeline_digest();
    if artifact.feature_digest != expected {
        return Err(ServeError::FeatureDigestMismatch {
            found: artifact.feature_digest,
            expected,
        });
    }
    Ok(artifact)
}

/// Like [`from_json`], but additionally requires the artifact's registry
/// digest to equal `registry`'s exactly — for callers that have already
/// committed to a specific format set (e.g. a daemon started with an
/// explicit registry choice).
pub fn from_json_with(
    payload: &str,
    registry: &FormatRegistry,
) -> Result<ModelArtifact, ServeError> {
    let artifact = from_json(payload)?;
    let expected = registry.digest();
    if artifact.registry_digest != expected {
        return Err(ServeError::RegistryDigestMismatch {
            found: artifact.registry_digest,
            expected,
        });
    }
    Ok(artifact)
}

/// Write an artifact to `path` atomically: the payload lands in a
/// sibling temp file, is fsynced, and is renamed into place, so a crash
/// mid-save (or a concurrent `Swap` request loading the path) sees
/// either the old artifact or the new one — never a torn hybrid.
pub fn save(artifact: &ModelArtifact, path: impl AsRef<Path>) -> Result<(), ServeError> {
    let path = path.as_ref();
    let io_err = |e: std::io::Error| ServeError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    };
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let write = || -> std::io::Result<()> {
        let mut file = std::fs::File::create(&tmp)?;
        std::io::Write::write_all(&mut file, to_json(artifact).as_bytes())?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    };
    write().map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        io_err(e)
    })
}

/// Read and validate an artifact from `path`.
pub fn load(path: impl AsRef<Path>) -> Result<ModelArtifact, ServeError> {
    let path = path.as_ref();
    let payload = std::fs::read_to_string(path).map_err(|e| ServeError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    from_json(&payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_digest_is_stable_and_order_sensitive() {
        assert_eq!(feature_pipeline_digest(), feature_pipeline_digest());
        assert_eq!(feature_pipeline_digest().len(), 16);
    }

    #[test]
    fn train_config_keys_separate_every_parameter() {
        let base = TrainConfig::default();
        let k = base.cache_key(1);
        assert_eq!(k, base.cache_key(1), "keys are deterministic");
        assert_ne!(k, base.cache_key(2), "context digest in the key");
        assert_ne!(
            k,
            TrainConfig { seed: 8, ..base }.cache_key(1),
            "seed in the key"
        );
        assert_ne!(
            k,
            TrainConfig {
                labeler: Labeler::RandomForest,
                ..base
            }
            .cache_key(1),
            "labeler in the key"
        );
        assert_ne!(
            k,
            TrainConfig {
                cluster_divisor: 5,
                ..base
            }
            .cache_key(1),
            "divisor in the key"
        );
    }

    #[test]
    fn version_mismatch_is_detected_before_full_decode() {
        // A payload with only a (wrong) version field: a full decode would
        // fail on missing fields, but the version check must win.
        let err = from_json(r#"{"artifact_version": 99}"#).unwrap_err();
        assert_eq!(err.code(), "artifact_version_mismatch");
        let err = from_json("not json at all").unwrap_err();
        assert_eq!(err.code(), "malformed");
        let err = from_json(r#"{"no_version": true}"#).unwrap_err();
        assert_eq!(err.code(), "malformed");
    }

    #[test]
    fn unknown_registry_digest_is_a_typed_error() {
        let payload = format!(
            r#"{{"artifact_version": {ARTIFACT_VERSION},
                "feature_digest": "{}",
                "registry_digest": "ffffffffffffffff"}}"#,
            feature_pipeline_digest()
        );
        let err = from_json(&payload).unwrap_err();
        assert_eq!(err.code(), "registry_digest_mismatch");
        assert!(err.to_string().contains("ffffffffffffffff"));
    }

    #[test]
    fn every_built_in_registry_digest_resolves() {
        for reg in [
            FormatRegistry::cusp_default(),
            FormatRegistry::extended(),
            FormatRegistry::full(),
        ] {
            let found = registry_for_digest(&reg.digest()).expect("digest must resolve");
            assert_eq!(found.digest(), reg.digest());
        }
        assert!(registry_for_digest("0000000000000000").is_none());
    }

    #[test]
    fn missing_registry_digest_defaults_to_cusp_default() {
        // Pre-registry artifacts never serialized the field; they must
        // decode as CUSP-default models.
        let fields: ArtifactFields = serde_json::from_str(
            r#"{"artifact_version": 1,
                "feature_digest": "aa",
                "context_digest": "bb",
                "corpus": {"matrices": 1, "seed": 2, "rows_min": 3, "rows_max": 4},
                "conversion": {"cost": {}},
                "gpus": []}"#,
        )
        .unwrap();
        let digest = fields.registry_digest.take_or(None).unwrap();
        assert!(digest.is_none());
        assert_eq!(
            digest.unwrap_or_else(|| FormatRegistry::cusp_default().digest()),
            FormatRegistry::cusp_default().digest()
        );
    }
}
