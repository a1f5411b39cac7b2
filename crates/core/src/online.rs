//! The online classification system the paper's conclusion sketches:
//! "an online classification system that makes full use of the
//! clustering-based approach by being able to learn from SpMV operations
//! while they are being performed."
//!
//! [`ShardedOnlineSelector`] wraps the incremental K-Means extension with
//! per-cluster format labels and a benchmark queue: matrices stream in,
//! join or open clusters, and the selector tells the caller which
//! matrices are worth benchmarking (new or unlabeled clusters). Feeding
//! back one measured label per new cluster keeps the selector current
//! without ever refitting.
//!
//! It is built for serving on a snapshot/delta design: read-only
//! decisions are answered from an immutable, atomically-swappable
//! [`OnlineSnapshot`] without ever touching a write lock, while mutations
//! (observations' centroid updates, `report_benchmark` labels) go through
//! a small write side — one centroid lock that serializes observations
//! (their running-mean updates are order-dependent) plus per-shard label
//! locks so feedback on one cluster region never blocks feedback (or
//! new-cluster bookkeeping) landing elsewhere. Every mutation publishes a
//! fresh snapshot before its reply is produced, so a single-client
//! stream decides exactly as one serial selector would, at any shard
//! count (`crates/core/tests/online.rs` proves it against a serial
//! oracle).

use crate::semi::SemiSupervisedSelector;
use serde::{Deserialize, Serialize};
use spsel_features::{FeatureVector, Preprocessor};
use spsel_matrix::Format;
use spsel_ml::cluster::online::OnlineKMeans;
use spsel_ml::FlatCentroids;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Instant;

/// The selector's answer for one streamed matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineDecision {
    /// Cluster the matrix joined (possibly freshly created).
    pub cluster: usize,
    /// Whether the matrix opened a new cluster.
    pub new_cluster: bool,
    /// Recommended format (the cluster label, or the default).
    pub format: Format,
    /// Whether benchmarking this matrix would label an unlabeled cluster —
    /// the caller should measure it and call
    /// [`ShardedOnlineSelector::report_benchmark`].
    pub benchmark_requested: bool,
}

/// One shard of the per-cluster label state. Cluster `c` lives in shard
/// `c % shards` at slot `c / shards`, so clusters created in increasing
/// index order always append at the end of their shard.
#[derive(Debug, Clone, Default)]
struct LabelShard {
    labels: Vec<Option<Format>>,
    unlabeled_observations: Vec<usize>,
}

/// An immutable view of the online state at one instant: the centroid
/// table plus the sharded label tables. Readers clone the `Arc` and then
/// work entirely off the snapshot — nothing they read can change under
/// them, and nothing they do can block a writer.
#[derive(Debug)]
pub struct OnlineSnapshot {
    version: u64,
    clusters: Arc<OnlineKMeans>,
    /// Flattened centroids with precomputed squared norms, derived from
    /// `clusters` when the snapshot is built. Read decisions answer
    /// nearest-centroid queries from this single contiguous buffer;
    /// publishes that leave the centroid table untouched (label edits)
    /// reuse the previous snapshot's buffer via the `Arc`.
    flat: Arc<FlatCentroids>,
    shards: Vec<Arc<LabelShard>>,
}

impl OnlineSnapshot {
    /// Monotonic publish counter (0 for the warm-start snapshot).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Current number of clusters.
    pub fn n_clusters(&self) -> usize {
        self.clusters.n_clusters()
    }

    /// Label carried by one cluster (`None` when unlabeled or out of
    /// range).
    pub fn label(&self, cluster: usize) -> Option<Format> {
        let shards = self.shards.len();
        self.shards[cluster % shards]
            .labels
            .get(cluster / shards)
            .copied()
            .flatten()
    }

    /// Whether a cluster currently carries a benchmark-derived label.
    pub fn is_labeled(&self, cluster: usize) -> bool {
        self.label(cluster).is_some()
    }

    /// Clusters still waiting for a benchmark label.
    pub fn unlabeled_clusters(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.labels.iter().filter(|l| l.is_none()).count())
            .sum()
    }

    /// Observations absorbed by unlabeled clusters since their last
    /// benchmark.
    pub fn staleness(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.unlabeled_observations.iter().sum::<usize>())
            .sum()
    }

    /// Observations absorbed by one cluster (seed mass plus streamed
    /// members), or 0 for an out-of-range index.
    pub fn cluster_count(&self, cluster: usize) -> usize {
        self.clusters.counts().get(cluster).copied().unwrap_or(0)
    }
}

/// Wall-clock nanoseconds one decision spent in each stage of the read
/// path (all zero for `learn: true` decisions, which are dominated by the
/// write side anyway). Returned by
/// [`ShardedOnlineSelector::decide_phased`] so the serving layer can
/// account its latency budget stage by stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionPhaseNs {
    /// Preprocessing: transforms, scaling, and PCA projection.
    pub embed_ns: u64,
    /// Nearest-centroid query over the flat centroid buffer.
    pub assign_ns: u64,
    /// Label and cluster-size lookup in the sharded tables.
    pub label_ns: u64,
}

thread_local! {
    /// Reusable embedding buffers for the read path: `(scratch, z)` where
    /// `scratch` carries the raw features through the in-place transform
    /// and scaling stages and `z` receives the final embedding. Sized on
    /// first use per thread, then allocation-free.
    static EMBED_SCRATCH: RefCell<(Vec<f64>, Vec<f64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Contention counters for one [`ShardedOnlineSelector`]: how many
/// decisions were served lock-free from a snapshot, how many took the
/// write side, how long writers waited, and how feedback spread over the
/// shards. All atomics — recording is wait-free and never perturbs the
/// hot path it measures.
#[derive(Debug)]
pub struct OnlineContention {
    read_decisions: AtomicU64,
    write_decisions: AtomicU64,
    write_lock_acquisitions: AtomicU64,
    write_lock_wait_us: AtomicU64,
    snapshot_swaps: AtomicU64,
    shard_feedbacks: Vec<AtomicU64>,
}

impl OnlineContention {
    fn new(shards: usize) -> Self {
        OnlineContention {
            read_decisions: AtomicU64::new(0),
            write_decisions: AtomicU64::new(0),
            write_lock_acquisitions: AtomicU64::new(0),
            write_lock_wait_us: AtomicU64::new(0),
            snapshot_swaps: AtomicU64::new(0),
            shard_feedbacks: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Plain-value snapshot of every counter.
    pub fn report(&self) -> ContentionReport {
        ContentionReport {
            read_decisions: self.read_decisions.load(Ordering::Relaxed),
            write_decisions: self.write_decisions.load(Ordering::Relaxed),
            write_lock_acquisitions: self.write_lock_acquisitions.load(Ordering::Relaxed),
            write_lock_wait_us: self.write_lock_wait_us.load(Ordering::Relaxed),
            snapshot_swaps: self.snapshot_swaps.load(Ordering::Relaxed),
            shard_feedbacks: self
                .shard_feedbacks
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Serializable-as-plain-values form of [`OnlineContention`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ContentionReport {
    /// Decisions answered from a snapshot without any write lock
    /// (`learn: false` selects).
    pub read_decisions: u64,
    /// Decisions that took the write side (`learn: true` observes).
    pub write_decisions: u64,
    /// Write-side lock acquisitions (centroid lock plus shard locks).
    pub write_lock_acquisitions: u64,
    /// Cumulative microseconds writers spent waiting for those locks.
    pub write_lock_wait_us: u64,
    /// Snapshots published (one per applied mutation).
    pub snapshot_swaps: u64,
    /// Feedback labels applied per shard, shard order.
    pub shard_feedbacks: Vec<u64>,
}

impl ContentionReport {
    /// Busiest-shard feedback count divided by the mean — 1.0 is a
    /// perfectly balanced write load, 0.0 when no feedback arrived.
    pub fn shard_imbalance(&self) -> f64 {
        let total: u64 = self.shard_feedbacks.iter().sum();
        if total == 0 || self.shard_feedbacks.is_empty() {
            return 0.0;
        }
        let max = *self.shard_feedbacks.iter().max().expect("non-empty") as f64;
        max / (total as f64 / self.shard_feedbacks.len() as f64)
    }
}

/// The full answer to one streamed decision, read or write path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineView {
    /// The decision itself (cluster, format, benchmark request).
    pub decision: OnlineDecision,
    /// Distance to the nearest centroid *before* this observation moved
    /// (or created) one — the novelty that was judged against the
    /// threshold.
    pub distance: f64,
    /// Occupancy of the decided cluster after the decision.
    pub cluster_size: usize,
    /// Version of the snapshot the decision was made against (the newly
    /// published one on the write path).
    pub snapshot_version: u64,
}

/// What a feedback label changed, for the caller's reply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineFeedbackView {
    /// Clusters still waiting for a benchmark label, post-update.
    pub unlabeled_clusters: usize,
    /// Staleness post-update (the labeled cluster's count was cleared).
    pub staleness: usize,
    /// Version of the snapshot the label landed in.
    pub snapshot_version: u64,
}

/// A serializable export of one selector's complete online state: the
/// centroid table plus the label tables flattened back into cluster
/// order. This is the unit a checkpoint persists and a replica installs —
/// [`ShardedOnlineSelector::export_state`] produces it and
/// [`ShardedOnlineSelector::install_state`] makes a selector serve it,
/// independent of how many write shards either side runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineStateData {
    /// The incremental clustering (centroids, counts, threshold, cap).
    pub clusters: OnlineKMeans,
    /// Per-cluster format label, cluster order (`None` when unlabeled).
    pub labels: Vec<Option<Format>>,
    /// Per-cluster observations since the last benchmark, cluster order.
    pub unlabeled_observations: Vec<usize>,
}

/// A streaming format selector built on incremental clustering:
/// lock-free read decisions from an atomically-swapped snapshot, sharded
/// write side for mutations. See the module docs for the locking design.
#[derive(Debug)]
pub struct ShardedOnlineSelector {
    preprocessor: Preprocessor,
    default: Format,
    snapshot: RwLock<Arc<OnlineSnapshot>>,
    /// Serializes centroid mutations: running-mean updates and cluster
    /// creation are order-dependent, so observes apply one at a time.
    centroid_lock: Mutex<()>,
    /// One lock per label shard; feedback takes only its cluster's
    /// shard lock, never the centroid lock.
    shard_locks: Vec<Mutex<()>>,
    contention: OnlineContention,
}

impl ShardedOnlineSelector {
    /// Start from a fitted batch selector: the batch clustering seeds the
    /// online centroids, its cluster labels carry over (so the warm
    /// start predicts exactly as the batch selector does and has no
    /// unlabeled cluster), and the batch preprocessing pipeline is reused
    /// (transforms are corpus statistics, stable enough to freeze).
    /// Unlabeled clusters recommend CSR.
    ///
    /// `distance_threshold` controls when a streamed matrix is novel
    /// enough to open a new cluster; `max_clusters` bounds growth. The
    /// label table is split over `shards` write shards (clamped to at
    /// least 1).
    pub fn from_batch(
        batch: &SemiSupervisedSelector,
        distance_threshold: f64,
        max_clusters: usize,
        shards: usize,
    ) -> Self {
        let shards = shards.max(1);
        let clusters =
            OnlineKMeans::from_clustering(batch.clustering(), distance_threshold, max_clusters);
        let mut tables = vec![LabelShard::default(); shards];
        for (c, &label) in batch.cluster_labels().iter().enumerate() {
            tables[c % shards].labels.push(Some(label));
            tables[c % shards].unlabeled_observations.push(0);
        }
        let flat = Arc::new(clusters.flatten());
        ShardedOnlineSelector {
            preprocessor: batch.preprocessor().clone(),
            default: Format::Csr,
            snapshot: RwLock::new(Arc::new(OnlineSnapshot {
                version: 0,
                clusters: Arc::new(clusters),
                flat,
                shards: tables.into_iter().map(Arc::new).collect(),
            })),
            centroid_lock: Mutex::new(()),
            shard_locks: (0..shards).map(|_| Mutex::new(())).collect(),
            contention: OnlineContention::new(shards),
        }
    }

    /// Number of write shards the label table is split over.
    pub fn shards(&self) -> usize {
        self.shard_locks.len()
    }

    /// The selector's contention counters.
    pub fn contention(&self) -> &OnlineContention {
        &self.contention
    }

    /// The current snapshot. The internal read guard is held only long
    /// enough to clone the `Arc`; all reads off the returned snapshot are
    /// lock-free.
    pub fn snapshot(&self) -> Arc<OnlineSnapshot> {
        Arc::clone(&self.snapshot.read().expect("snapshot slot poisoned"))
    }

    /// Acquire a write-side lock, charging the wait to the counters.
    fn lock_timed<'a>(&self, lock: &'a Mutex<()>) -> MutexGuard<'a, ()> {
        let start = Instant::now();
        let guard = lock.lock().expect("online write lock poisoned");
        self.contention
            .write_lock_acquisitions
            .fetch_add(1, Ordering::Relaxed);
        let waited = start.elapsed().as_micros() as u64;
        if waited > 0 {
            self.contention
                .write_lock_wait_us
                .fetch_add(waited, Ordering::Relaxed);
        }
        guard
    }

    /// Atomically replace the snapshot with `f(current)`. The swap lock
    /// is exclusive but brief: `f` only splices prebuilt `Arc`s (or a
    /// one-entry label edit) into the current snapshot.
    fn publish<F>(&self, f: F) -> Arc<OnlineSnapshot>
    where
        F: FnOnce(&OnlineSnapshot) -> OnlineSnapshot,
    {
        let mut slot = self.snapshot.write().expect("snapshot slot poisoned");
        let next = Arc::new(f(&slot));
        *slot = Arc::clone(&next);
        self.contention
            .snapshot_swaps
            .fetch_add(1, Ordering::Relaxed);
        next
    }

    /// Answer one streamed matrix.
    ///
    /// `learn: false` is the read path, served entirely from the current
    /// snapshot without acquiring any write lock and without moving the
    /// model: the nearest cluster, its label (CSR while unlabeled),
    /// whether it still wants a benchmark, and never a new cluster.
    ///
    /// `learn: true` is the write path: the matrix joins its nearest
    /// cluster (moving that centroid) or, when farther than the distance
    /// threshold and below the cluster cap, opens a new unlabeled one.
    /// A matrix landing in an unlabeled cluster requests a benchmark and
    /// adds one to the staleness. Observes are serialized with each
    /// other and published as a fresh snapshot before this method
    /// returns; `distance` is the pre-observation distance to the
    /// nearest centroid.
    pub fn decide(&self, features: &FeatureVector, learn: bool) -> OnlineView {
        self.decide_phased(features, learn).0
    }

    /// [`Self::decide`] plus per-phase wall-clock nanoseconds, so the
    /// serving layer can account the decision budget stage by stage.
    pub fn decide_phased(
        &self,
        features: &FeatureVector,
        learn: bool,
    ) -> (OnlineView, DecisionPhaseNs) {
        let mut phases = DecisionPhaseNs::default();
        if !learn {
            // Steady-state read path: allocation-free. The embedding runs
            // through thread-local scratch, the nearest-centroid query
            // walks the snapshot's flat buffer, and the reply is built
            // from plain copies. (`resize` on the warm scratch is a no-op;
            // the only allocations ever are the first call on a thread or
            // a model hot-swap that widens the embedding.)
            let view = EMBED_SCRATCH.with(|cell| {
                let (scratch, z) = &mut *cell.borrow_mut();
                let t0 = Instant::now();
                scratch.resize(features.as_slice().len(), 0.0);
                z.resize(self.preprocessor.out_dim(), 0.0);
                self.preprocessor
                    .embed_into(features.as_slice(), scratch, z);
                let t1 = Instant::now();
                let snap = self.snapshot();
                self.contention
                    .read_decisions
                    .fetch_add(1, Ordering::Relaxed);
                let (cluster, distance) = snap.flat.nearest(z).expect("no observations yet");
                let t2 = Instant::now();
                let label = snap.label(cluster);
                let cluster_size = snap.cluster_count(cluster);
                let t3 = Instant::now();
                phases.embed_ns = (t1 - t0).as_nanos() as u64;
                phases.assign_ns = (t2 - t1).as_nanos() as u64;
                phases.label_ns = (t3 - t2).as_nanos() as u64;
                OnlineView {
                    decision: OnlineDecision {
                        cluster,
                        new_cluster: false,
                        format: label.unwrap_or(self.default),
                        benchmark_requested: label.is_none(),
                    },
                    distance,
                    cluster_size,
                    snapshot_version: snap.version,
                }
            });
            return (view, phases);
        }

        let z = self.preprocessor.embed(features);
        let _centroids = self.lock_timed(&self.centroid_lock);
        // The centroid lock makes this snapshot's centroid table
        // authoritative: only observes mutate it, and they all hold the
        // lock. The heavy work — cloning and updating the table — happens
        // here, outside the swap lock.
        let base = self.snapshot();
        let distance = base.clusters.novelty(&z);
        let mut clusters = (*base.clusters).clone();
        let (cluster, new_cluster) = clusters.observe(&z);
        let clusters = Arc::new(clusters);
        let flat = Arc::new(clusters.flatten());
        let n_shards = self.shard_locks.len();
        let shard = cluster % n_shards;

        let mut format = self.default;
        let mut benchmark_requested = true;
        let snap = if new_cluster {
            // Appending the new cluster's label slot touches shard state,
            // so take that shard's lock (excluding concurrent feedback to
            // the same region) before splicing in the update.
            let _labels = self.lock_timed(&self.shard_locks[shard]);
            self.publish(|cur| {
                let mut shards = cur.shards.clone();
                let mut data = (**shards.get(shard).expect("shard exists")).clone();
                data.labels.push(None);
                data.unlabeled_observations.push(1);
                shards[shard] = Arc::new(data);
                OnlineSnapshot {
                    version: cur.version + 1,
                    clusters: Arc::clone(&clusters),
                    flat: Arc::clone(&flat),
                    shards,
                }
            })
        } else {
            let _labels = self.lock_timed(&self.shard_locks[shard]);
            self.publish(|cur| {
                // Read the joined cluster's label at publish time so a
                // feedback that just landed is honored.
                let label = cur.label(cluster);
                format = label.unwrap_or(self.default);
                benchmark_requested = label.is_none();
                let shards = if benchmark_requested {
                    let mut shards = cur.shards.clone();
                    let mut data = (**shards.get(shard).expect("shard exists")).clone();
                    data.unlabeled_observations[cluster / n_shards] += 1;
                    shards[shard] = Arc::new(data);
                    shards
                } else {
                    cur.shards.clone()
                };
                OnlineSnapshot {
                    version: cur.version + 1,
                    clusters: Arc::clone(&clusters),
                    flat: Arc::clone(&flat),
                    shards,
                }
            })
        };
        self.contention
            .write_decisions
            .fetch_add(1, Ordering::Relaxed);
        (
            OnlineView {
                decision: OnlineDecision {
                    cluster,
                    new_cluster,
                    format,
                    benchmark_requested,
                },
                distance,
                cluster_size: snap.cluster_count(cluster),
                snapshot_version: snap.version,
            },
            phases,
        )
    }

    /// Feed back a measured best format for `cluster`, taking only that
    /// cluster's shard lock — feedback never blocks observations landing
    /// in other shards, and never blocks read decisions at all. Returns
    /// `None` (applying nothing) when the cluster does not exist.
    pub fn report_benchmark(&self, cluster: usize, best: Format) -> Option<OnlineFeedbackView> {
        // Cluster indices only ever grow, so a bounds check against the
        // current snapshot stays valid under the shard lock below.
        if cluster >= self.snapshot().n_clusters() {
            return None;
        }
        let n_shards = self.shard_locks.len();
        let shard = cluster % n_shards;
        let _labels = self.lock_timed(&self.shard_locks[shard]);
        self.contention.shard_feedbacks[shard].fetch_add(1, Ordering::Relaxed);
        let snap = self.publish(|cur| {
            let mut shards = cur.shards.clone();
            let mut data = (**shards.get(shard).expect("shard exists")).clone();
            data.labels[cluster / n_shards] = Some(best);
            data.unlabeled_observations[cluster / n_shards] = 0;
            shards[shard] = Arc::new(data);
            OnlineSnapshot {
                version: cur.version + 1,
                clusters: Arc::clone(&cur.clusters),
                flat: Arc::clone(&cur.flat),
                shards,
            }
        });
        Some(OnlineFeedbackView {
            unlabeled_clusters: snap.unlabeled_clusters(),
            staleness: snap.staleness(),
            snapshot_version: snap.version,
        })
    }

    /// Flatten the current snapshot into a serializable
    /// [`OnlineStateData`]: the centroid table plus the label tables in
    /// cluster order. Taken from one snapshot, so the export is an
    /// instant-consistent cut even under concurrent mutation.
    pub fn export_state(&self) -> OnlineStateData {
        let snap = self.snapshot();
        let n = snap.n_clusters();
        let n_shards = snap.shards.len();
        let mut labels = Vec::with_capacity(n);
        let mut unlabeled_observations = Vec::with_capacity(n);
        for c in 0..n {
            let shard = &snap.shards[c % n_shards];
            labels.push(shard.labels.get(c / n_shards).copied().flatten());
            unlabeled_observations.push(
                shard
                    .unlabeled_observations
                    .get(c / n_shards)
                    .copied()
                    .unwrap_or(0),
            );
        }
        OnlineStateData {
            clusters: (*snap.clusters).clone(),
            labels,
            unlabeled_observations,
        }
    }

    /// Replace the selector's entire online state with an exported one
    /// (a checkpoint being restored, or a leader state a replica is
    /// installing), re-sharded for this selector's shard count. A
    /// lifecycle operation, not a serving mutation: it takes the whole
    /// write side exclusively but does not count toward the contention
    /// or snapshot-swap counters.
    pub fn install_state(&self, state: &OnlineStateData) {
        let _centroids = self.centroid_lock.lock().expect("centroid lock poisoned");
        let _shards: Vec<MutexGuard<'_, ()>> = self
            .shard_locks
            .iter()
            .map(|l| l.lock().expect("shard lock poisoned"))
            .collect();
        let n_shards = self.shard_locks.len();
        let mut tables = vec![LabelShard::default(); n_shards];
        for (c, label) in state.labels.iter().enumerate() {
            tables[c % n_shards].labels.push(*label);
            tables[c % n_shards]
                .unlabeled_observations
                .push(state.unlabeled_observations.get(c).copied().unwrap_or(0));
        }
        let mut slot = self.snapshot.write().expect("snapshot slot poisoned");
        *slot = Arc::new(OnlineSnapshot {
            version: slot.version + 1,
            clusters: Arc::new(state.clusters.clone()),
            flat: Arc::new(state.clusters.flatten()),
            shards: tables.into_iter().map(Arc::new).collect(),
        });
    }

    /// Nearest-cluster prediction from the current snapshot (read path).
    pub fn predict(&self, features: &FeatureVector) -> Format {
        self.decide(features, false).decision.format
    }

    /// Current number of clusters.
    pub fn n_clusters(&self) -> usize {
        self.snapshot().n_clusters()
    }

    /// Clusters still waiting for a benchmark label.
    pub fn unlabeled_clusters(&self) -> usize {
        self.snapshot().unlabeled_clusters()
    }

    /// Observations absorbed by unlabeled clusters since their last
    /// benchmark.
    pub fn staleness(&self) -> usize {
        self.snapshot().staleness()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semi::{ClusterMethod, Labeler, SemiConfig};
    use spsel_matrix::{gen, CsrMatrix};

    fn batch_selector() -> (SemiSupervisedSelector, Vec<FeatureVector>) {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for s in 0..15u64 {
            features.push(FeatureVector::from_csr(&CsrMatrix::from(&gen::stencil2d(
                10 + s as usize % 5,
                s,
            ))));
            labels.push(Format::Ell);
            features.push(FeatureVector::from_csr(&CsrMatrix::from(&gen::power_law(
                300, 300, 2, 2.4, 120, s,
            ))));
            labels.push(Format::Csr);
        }
        let sel = SemiSupervisedSelector::fit(
            &features,
            &labels,
            SemiConfig::new(ClusterMethod::KMeans { nc: 6 }, Labeler::Vote, 3),
        );
        (sel, features)
    }

    #[test]
    fn warm_start_preserves_batch_predictions() {
        let (batch, features) = batch_selector();
        let online = ShardedOnlineSelector::from_batch(&batch, 0.5, 32, 3);
        for f in &features {
            assert_eq!(online.predict(f), batch.predict(f));
        }
        assert_eq!(online.unlabeled_clusters(), 0);
    }

    #[test]
    fn novel_family_requests_benchmark_then_uses_it() {
        let (batch, _) = batch_selector();
        let online = ShardedOnlineSelector::from_batch(&batch, 0.3, 32, 3);
        // A family the batch never saw: huge row-skewed matrices.
        let novel =
            FeatureVector::from_csr(&CsrMatrix::from(&gen::bimodal(2000, 2000, 3, 40, 0.3, 8)));
        let d = online.decide(&novel, true).decision;
        if d.new_cluster {
            assert!(
                d.benchmark_requested,
                "new cluster must ask for a benchmark"
            );
            assert_eq!(d.format, Format::Csr, "default before any benchmark");
            online.report_benchmark(d.cluster, Format::Hyb);
            assert_eq!(online.predict(&novel), Format::Hyb);
            assert_eq!(online.unlabeled_clusters(), 0);
        } else {
            // Absorbed into an existing (labeled) cluster: no benchmark.
            assert!(!d.benchmark_requested);
        }
    }

    #[test]
    fn exported_state_installs_identically_across_shard_counts() {
        let (batch, features) = batch_selector();
        let donor = ShardedOnlineSelector::from_batch(&batch, 0.3, 64, 4);
        // Mutate: open clusters and label one of them.
        let novel =
            FeatureVector::from_csr(&CsrMatrix::from(&gen::bimodal(2000, 2000, 3, 40, 0.3, 8)));
        let d = donor.decide(&novel, true);
        donor.report_benchmark(d.decision.cluster, Format::Hyb);
        let state = donor.export_state();
        assert_eq!(state.labels.len(), donor.n_clusters());
        assert_eq!(state.unlabeled_observations.len(), donor.n_clusters());

        // Install into selectors with different shard counts: decisions
        // and bookkeeping must match the donor exactly.
        for shards in [1usize, 3, 8] {
            let clone = ShardedOnlineSelector::from_batch(&batch, 0.3, 64, shards);
            clone.install_state(&state);
            assert_eq!(clone.n_clusters(), donor.n_clusters());
            assert_eq!(clone.unlabeled_clusters(), donor.unlabeled_clusters());
            assert_eq!(clone.staleness(), donor.staleness());
            assert_eq!(clone.predict(&novel), donor.predict(&novel));
            for f in &features {
                assert_eq!(clone.predict(f), donor.predict(f));
            }
        }

        // And the export itself round-trips through JSON bit-exactly.
        let json = serde_json::to_string(&state).unwrap();
        let back: OnlineStateData = serde_json::from_str(&json).unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn staleness_counts_unlabeled_observations() {
        let (batch, _) = batch_selector();
        let online = ShardedOnlineSelector::from_batch(&batch, 0.05, 64, 3);
        let mut requested = 0;
        for s in 0..10u64 {
            let f = FeatureVector::from_csr(&CsrMatrix::from(&gen::multi_diagonal(
                700 + s as usize * 13,
                7,
                s,
            )));
            let d = online.decide(&f, true).decision;
            requested += d.benchmark_requested as usize;
        }
        assert_eq!(online.staleness(), requested);
        // Labeling every unlabeled cluster clears the staleness.
        let snap = online.snapshot();
        let unlabeled: Vec<usize> = (0..online.n_clusters())
            .filter(|&c| !snap.is_labeled(c))
            .collect();
        for c in unlabeled {
            online.report_benchmark(c, Format::Ell);
        }
        assert_eq!(online.staleness(), 0);
        assert_eq!(online.unlabeled_clusters(), 0);
    }
}
