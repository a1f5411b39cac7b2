//! Behavioural tests for the [`ShardedOnlineSelector`] as the serving
//! layer uses it: deterministic streaming, benchmark prioritization for
//! unlabeled clusters, the feedback-then-redecide loop — and
//! bit-identical equivalence between it and [`OnlineSelector`], a
//! serial selector kept here as the oracle of its semantics.

use spsel_core::semi::{ClusterMethod, Labeler, SemiConfig, SemiSupervisedSelector};
use spsel_core::{OnlineDecision, ShardedOnlineSelector};
use spsel_features::{FeatureVector, Preprocessor};
use spsel_matrix::{gen, CsrMatrix, Format};
use spsel_ml::cluster::online::OnlineKMeans;

/// The serial streaming selector: incremental K-Means over the batch
/// selector's embedding, one optional label per cluster, and a
/// per-cluster count of observations since the last benchmark. The
/// sharded selector must decide exactly as this one does.
struct OnlineSelector {
    preprocessor: Preprocessor,
    clusters: OnlineKMeans,
    /// Per-cluster format label (`None` until a benchmark arrives).
    labels: Vec<Option<Format>>,
    /// Observations since the last benchmark, per cluster (staleness).
    unlabeled_observations: Vec<usize>,
}

impl OnlineSelector {
    /// Seed the online centroids with the batch clustering; its labels
    /// carry over and its preprocessing is reused.
    fn from_batch(
        batch: &SemiSupervisedSelector,
        distance_threshold: f64,
        max_clusters: usize,
    ) -> Self {
        let clusters =
            OnlineKMeans::from_clustering(batch.clustering(), distance_threshold, max_clusters);
        let labels: Vec<Option<Format>> = batch.cluster_labels().iter().map(|&f| Some(f)).collect();
        let n = labels.len();
        OnlineSelector {
            preprocessor: batch.preprocessor().clone(),
            clusters,
            labels,
            unlabeled_observations: vec![0; n],
        }
    }

    fn n_clusters(&self) -> usize {
        self.clusters.n_clusters()
    }

    fn unlabeled_clusters(&self) -> usize {
        self.labels.iter().filter(|l| l.is_none()).count()
    }

    fn decision(&self, cluster: usize, new_cluster: bool) -> OnlineDecision {
        OnlineDecision {
            cluster,
            new_cluster,
            format: self.labels[cluster].unwrap_or(Format::Csr),
            benchmark_requested: self.labels[cluster].is_none(),
        }
    }

    /// Join (or open) a cluster and take its recommendation.
    fn observe(&mut self, features: &FeatureVector) -> OnlineDecision {
        let z = self.preprocessor.embed(features);
        let (cluster, new_cluster) = self.clusters.observe(&z);
        if new_cluster {
            self.labels.push(None);
            self.unlabeled_observations.push(0);
        }
        if self.labels[cluster].is_none() {
            self.unlabeled_observations[cluster] += 1;
        }
        self.decision(cluster, new_cluster)
    }

    /// The nearest cluster's recommendation, without updating the model.
    fn peek(&self, features: &FeatureVector) -> OnlineDecision {
        let cluster = self.clusters.assign(&self.preprocessor.embed(features));
        self.decision(cluster, false)
    }

    fn novelty(&self, features: &FeatureVector) -> f64 {
        self.clusters.novelty(&self.preprocessor.embed(features))
    }

    fn cluster_count(&self, cluster: usize) -> usize {
        self.clusters.counts().get(cluster).copied().unwrap_or(0)
    }

    fn is_labeled(&self, cluster: usize) -> bool {
        self.labels.get(cluster).is_some_and(|l| l.is_some())
    }

    /// The latest measurement wins.
    fn report_benchmark(&mut self, cluster: usize, best: Format) {
        self.labels[cluster] = Some(best);
        self.unlabeled_observations[cluster] = 0;
    }

    fn staleness(&self) -> usize {
        self.unlabeled_observations.iter().sum()
    }
}

/// A small two-family batch training set: regular stencils (ELL-friendly)
/// and power-law matrices (CSR-friendly).
fn batch_selector() -> SemiSupervisedSelector {
    let mut features = Vec::new();
    let mut labels = Vec::new();
    for s in 0..12u64 {
        features.push(FeatureVector::from_csr(&CsrMatrix::from(&gen::stencil2d(
            12 + s as usize % 4,
            s,
        ))));
        labels.push(Format::Ell);
        features.push(FeatureVector::from_csr(&CsrMatrix::from(&gen::power_law(
            250, 250, 2, 2.4, 100, s,
        ))));
        labels.push(Format::Csr);
    }
    SemiSupervisedSelector::fit(
        &features,
        &labels,
        SemiConfig::new(ClusterMethod::KMeans { nc: 5 }, Labeler::Vote, 3),
    )
}

/// A stream mixing known families with genuinely novel shapes, in a
/// fixed order.
fn stream() -> Vec<FeatureVector> {
    let mut fv = Vec::new();
    for s in 0..8u64 {
        fv.push(FeatureVector::from_csr(&CsrMatrix::from(&gen::power_law(
            260,
            260,
            2,
            2.3,
            90,
            100 + s,
        ))));
        fv.push(FeatureVector::from_csr(&CsrMatrix::from(&gen::stencil2d(
            14 + s as usize % 3,
            200 + s,
        ))));
        fv.push(FeatureVector::from_csr(&CsrMatrix::from(&gen::bimodal(
            1500,
            1500,
            3,
            40,
            0.3,
            300 + s,
        ))));
        fv.push(FeatureVector::from_csr(&CsrMatrix::from(
            &gen::multi_diagonal(600 + s as usize * 17, 7, 400 + s),
        )));
    }
    fv
}

/// Streaming is deterministic: two selectors warm-started from the same
/// batch model and fed the same stream make identical decisions at every
/// step — the property that makes serving reproducible across restarts.
#[test]
fn identical_streams_produce_identical_decision_sequences() {
    let batch = batch_selector();
    let a = ShardedOnlineSelector::from_batch(&batch, 0.3, 64, 1);
    let b = ShardedOnlineSelector::from_batch(&batch, 0.3, 64, 4);
    let mut decisions: Vec<OnlineDecision> = Vec::new();
    for fv in &stream() {
        let da = a.decide(fv, true).decision;
        let db = b.decide(fv, true).decision;
        assert_eq!(da, db, "divergent decision at step {}", decisions.len());
        decisions.push(da);
    }
    assert_eq!(a.n_clusters(), b.n_clusters());
    assert_eq!(a.staleness(), b.staleness());
    // The stream contains at least one shape the batch never saw.
    assert!(
        decisions.iter().any(|d| d.new_cluster),
        "the novel families should have opened clusters"
    );
}

/// A read decision is the read-only twin of a learning one: it reports
/// the same cluster, format, and benchmark request the next learning
/// decision will make, and repeated reads never move the model.
#[test]
fn read_decisions_match_learning_ones_without_mutating() {
    let batch = batch_selector();
    let online = ShardedOnlineSelector::from_batch(&batch, 0.3, 64, 3);
    for fv in &stream() {
        let before_clusters = online.n_clusters();
        let before_staleness = online.staleness();
        let p1 = online.decide(fv, false).decision;
        let p2 = online.decide(fv, false).decision;
        assert_eq!(p1, p2, "read decisions must be idempotent");
        assert_eq!(online.n_clusters(), before_clusters);
        assert_eq!(online.staleness(), before_staleness);
        let d = online.decide(fv, true).decision;
        if !d.new_cluster {
            assert_eq!(p1.cluster, d.cluster);
            assert_eq!(p1.format, d.format);
            assert_eq!(p1.benchmark_requested, d.benchmark_requested);
        }
    }
}

/// Unlabeled clusters are prioritized for benchmarking: every observation
/// landing in a label-less cluster requests a benchmark (and raises the
/// staleness), while observations in labeled clusters never do.
#[test]
fn only_unlabeled_clusters_request_benchmarks() {
    let batch = batch_selector();
    let online = ShardedOnlineSelector::from_batch(&batch, 0.3, 64, 3);
    assert_eq!(
        online.unlabeled_clusters(),
        0,
        "warm start is fully labeled"
    );
    let mut stale = 0usize;
    for fv in &stream() {
        let d = online.decide(fv, true).decision;
        assert_eq!(
            d.benchmark_requested,
            !online.snapshot().is_labeled(d.cluster),
            "benchmark requests must track label state"
        );
        if d.new_cluster {
            assert!(d.benchmark_requested, "a fresh cluster has no label yet");
            assert_eq!(d.format, Format::Csr, "unlabeled clusters fall back to CSR");
        }
        stale += d.benchmark_requested as usize;
        assert_eq!(online.staleness(), stale);
    }
    assert!(
        online.unlabeled_clusters() > 0,
        "the novel families should still be awaiting labels"
    );
}

/// The feedback loop: a benchmark label on a cluster immediately changes
/// that cluster's recommendation, stops its benchmark requests, clears
/// its staleness — and a later (corrective) label wins over the first.
#[test]
fn feedback_then_redecide_uses_the_measured_label() {
    let batch = batch_selector();
    let online = ShardedOnlineSelector::from_batch(&batch, 0.3, 64, 3);
    let novel = FeatureVector::from_csr(&CsrMatrix::from(&gen::bimodal(1500, 1500, 3, 40, 0.3, 9)));
    let d = online.decide(&novel, true).decision;
    if !d.new_cluster {
        // With this threshold the bimodal family is genuinely novel; if
        // generators ever change, the test is vacuous rather than wrong.
        return;
    }
    assert_eq!(d.format, Format::Csr, "default before feedback");
    assert!(d.benchmark_requested);

    online.report_benchmark(d.cluster, Format::Hyb).unwrap();
    assert!(online.snapshot().is_labeled(d.cluster));
    assert_eq!(
        online.staleness(),
        0,
        "feedback clears the cluster's staleness"
    );

    // Redecide: the same family now gets the measured format, observing
    // or peeking, and no further benchmarks are requested.
    let again = online.decide(&novel, true).decision;
    assert_eq!(again.cluster, d.cluster);
    assert_eq!(again.format, Format::Hyb);
    assert!(!again.benchmark_requested);
    assert_eq!(online.decide(&novel, false).decision.format, Format::Hyb);
    assert_eq!(online.predict(&novel), Format::Hyb);

    // The platform drifts and a new measurement disagrees: latest wins.
    online.report_benchmark(d.cluster, Format::Ell).unwrap();
    assert_eq!(online.predict(&novel), Format::Ell);
}

/// The determinism guarantee: for any single-client stream of
/// interleaved observes, peeks, and feedback, the sharded selector makes
/// decisions bit-identical to the serial `OnlineSelector`, at every
/// shard count — so its concurrency design changes no reply.
#[test]
fn sharded_selector_is_bit_identical_to_serial_for_any_shard_count() {
    let batch = batch_selector();
    for shards in [1usize, 3, 8] {
        let mut serial = OnlineSelector::from_batch(&batch, 0.3, 64);
        let sharded = ShardedOnlineSelector::from_batch(&batch, 0.3, 64, shards);
        assert_eq!(sharded.shards(), shards);
        for (i, fv) in stream().iter().enumerate() {
            // Read path first: peek and the lock-free decide must agree.
            let peek = serial.peek(fv);
            let read = sharded.decide(fv, false);
            assert_eq!(
                read.decision, peek,
                "read divergence at step {i} ({shards} shards)"
            );

            // Write path: observe on both, compare every field bit for
            // bit (distance is an f64 — compare exactly, not loosely).
            let pre_novelty = serial.novelty(fv);
            let d = serial.observe(fv);
            let view = sharded.decide(fv, true);
            assert_eq!(
                view.decision, d,
                "write divergence at step {i} ({shards} shards)"
            );
            assert_eq!(
                view.distance.to_bits(),
                pre_novelty.to_bits(),
                "novelty must be the pre-observation distance, bit for bit"
            );
            assert_eq!(view.cluster_size, serial.cluster_count(d.cluster));

            // Interleave feedback every third step to exercise the shard
            // locks mid-stream.
            if i % 3 == 2 {
                let cluster = d.cluster;
                serial.report_benchmark(cluster, Format::Hyb);
                let fb = sharded
                    .report_benchmark(cluster, Format::Hyb)
                    .expect("cluster exists");
                assert_eq!(fb.unlabeled_clusters, serial.unlabeled_clusters());
                assert_eq!(fb.staleness, serial.staleness());
            }
            assert_eq!(sharded.n_clusters(), serial.n_clusters());
            assert_eq!(sharded.staleness(), serial.staleness());
        }
        // Post-stream, every cluster's label and the final prediction
        // agree.
        let snap = sharded.snapshot();
        for c in 0..serial.n_clusters() {
            assert_eq!(snap.is_labeled(c), serial.is_labeled(c));
        }
        for fv in stream().iter().take(4) {
            assert_eq!(sharded.predict(fv), serial.peek(fv).format);
        }
        // Out-of-range feedback is a typed None, not a panic.
        assert!(sharded.report_benchmark(10_000, Format::Coo).is_none());
    }
}

/// Read-only floods never touch the write side: `decide(_, false)` takes
/// zero write locks and publishes zero snapshots, which is exactly what
/// the serving layer's contention counters assert in CI.
#[test]
fn read_only_decisions_take_no_write_locks() {
    let batch = batch_selector();
    let sharded = ShardedOnlineSelector::from_batch(&batch, 0.3, 64, 4);
    let base_version = sharded.snapshot().version();
    for fv in &stream() {
        for _ in 0..3 {
            let view = sharded.decide(fv, false);
            assert_eq!(view.snapshot_version, base_version);
        }
    }
    let c = sharded.contention().report();
    assert_eq!(c.read_decisions, stream().len() as u64 * 3);
    assert_eq!(c.write_decisions, 0);
    assert_eq!(c.write_lock_acquisitions, 0, "reads must be lock-free");
    assert_eq!(c.write_lock_wait_us, 0);
    assert_eq!(c.snapshot_swaps, 0);
    assert_eq!(c.shard_imbalance(), 0.0, "no feedback yet");

    // One write decision flips the counters and bumps the version.
    let view = sharded.decide(&stream()[0], true);
    assert_eq!(view.snapshot_version, base_version + 1);
    let c = sharded.contention().report();
    assert_eq!(c.write_decisions, 1);
    assert!(c.write_lock_acquisitions >= 1);
    assert_eq!(c.snapshot_swaps, 1);
}

/// Feedback counters land in the cluster's own shard (`cluster % shards`)
/// and the imbalance ratio reflects a skewed write load.
#[test]
fn feedback_is_counted_per_shard() {
    let batch = batch_selector();
    let shards = 4;
    let sharded = ShardedOnlineSelector::from_batch(&batch, 0.3, 64, shards);
    let n = sharded.n_clusters().min(shards);
    // All feedback onto cluster 1's shard: maximally imbalanced.
    for _ in 0..6 {
        sharded.report_benchmark(1 % n, Format::Ell).unwrap();
    }
    let c = sharded.contention().report();
    assert_eq!(c.shard_feedbacks.len(), shards);
    assert_eq!(c.shard_feedbacks.iter().sum::<u64>(), 6);
    assert_eq!(c.shard_feedbacks[1 % n % shards], 6);
    assert_eq!(c.shard_imbalance(), shards as f64, "one hot shard");
}
