//! Lock-free serving counters and log-bucketed latency histograms.
//!
//! The counters are a [`ServingCounters`] mirror of
//! [`spsel_core::telemetry::ServingReport`], one atomic slot per report
//! field; the event methods here decide which slots one event bumps.
//! Latencies come from a monotonic clock ([`std::time::Instant`]) and land
//! in power-of-two buckets, so p50/p99 are exact bucket upper bounds —
//! cheap enough to record on every request, precise enough for a
//! throughput report. A snapshot serializes as the report for the
//! `stats` request and the run-report JSON.

use spsel_core::telemetry::{ServingCounters, ServingReport};
use spsel_core::DecisionPhaseNs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of power-of-two buckets; bucket `i` holds samples with
/// `floor(log2(v)) == i`, so the top bucket covers ~584 thousand years
/// of microseconds.
const BUCKETS: usize = 64;

pub(crate) fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn add(c: &AtomicU64, n: u64) {
    c.fetch_add(n, Ordering::Relaxed);
}

/// Lock-free power-of-two histogram (a zero sample lands in bucket 0).
#[derive(Debug)]
struct Histogram([AtomicU64; BUCKETS]);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(std::array::from_fn(|_| AtomicU64::new(0)))
    }
}

impl Histogram {
    fn record(&self, v: u64) {
        bump(&self.0[(v | 1).ilog2() as usize]);
    }

    /// Quantile `q` in [0, 1]: the upper bound (`2^(i+1) - 1` base
    /// units) of the bucket holding the `ceil(q * n)`-th smallest
    /// sample, 0 when empty.
    fn quantile(&self, q: f64) -> f64 {
        let counts: [u64; BUCKETS] = std::array::from_fn(|i| self.0[i].load(Ordering::Relaxed));
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return ((1u128 << (i + 1)) - 1) as f64;
            }
        }
        ((1u128 << BUCKETS) - 1) as f64
    }
}

/// Shared mutable serving counters (all atomics; clones of the owning
/// engine share them by reference).
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// One slot per report field. The engine bumps its journal,
    /// lifecycle and sync slots directly.
    pub(crate) counters: ServingCounters,
    /// Request latency, microsecond buckets.
    latency_us: Histogram,
    /// The whole decision path of one `learn: false` select (extract +
    /// embed + assign + label), *nanosecond* buckets — finer grained
    /// than the request histogram because a steady-state decision
    /// completes in well under a microsecond.
    decision_ns: Histogram,
    /// Connections open right now (a gauge, not a report field).
    connections_open: AtomicU64,
}

impl ServeMetrics {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one incoming request line (any type, before parsing).
    pub fn request(&self) {
        bump(&self.counters.requests);
    }

    /// Count one answered select (batched bodies count individually).
    /// `new_cluster` / `benchmark_requested` mirror the decision flags; a
    /// select answered from an already-labeled cluster is a cluster hit.
    pub fn select(&self, new_cluster: bool, benchmark_requested: bool) {
        bump(&self.counters.select_requests);
        if new_cluster {
            bump(&self.counters.new_clusters);
        }
        if benchmark_requested {
            bump(&self.counters.benchmarks_requested);
        } else {
            bump(&self.counters.cluster_hits);
        }
    }

    /// Count one applied feedback label.
    pub fn feedback(&self) {
        bump(&self.counters.feedback_requests);
        bump(&self.counters.feedback_applied);
    }

    /// Count one stats request.
    pub fn stats(&self) {
        bump(&self.counters.stats_requests);
    }

    /// Count one batch envelope of `size` bodies.
    pub fn batch(&self, size: usize) {
        bump(&self.counters.batch_requests);
        self.counters
            .max_batch_size
            .fetch_max(size as u64, Ordering::Relaxed);
    }

    /// Count one error response.
    pub fn error(&self) {
        bump(&self.counters.errors);
    }

    /// Count one deadline miss (also an error response).
    pub fn deadline_exceeded(&self) {
        bump(&self.counters.deadline_exceeded);
        bump(&self.counters.errors);
    }

    /// Count one batch item skipped by the cooperative mid-compute
    /// deadline check (the batch envelope itself still succeeds, so this
    /// is not an error response).
    pub fn deadline_skipped(&self) {
        bump(&self.counters.deadline_skipped);
    }

    /// Count one request answered with a `shed` envelope by admission
    /// control (also an error response, like a deadline miss).
    pub fn shed(&self) {
        bump(&self.counters.shed);
        bump(&self.counters.errors);
    }

    /// Count one accepted connection; returns nothing but tracks the
    /// open-connection gauge and its peak.
    pub fn connection_opened(&self) {
        bump(&self.counters.connections_accepted);
        let open = self.connections_open.fetch_add(1, Ordering::Relaxed) + 1;
        self.counters
            .peak_connections
            .fetch_max(open, Ordering::Relaxed);
    }

    /// Count one closed connection (the gauge counterpart of
    /// [`Self::connection_opened`]).
    pub fn connection_closed(&self) {
        self.connections_open.fetch_sub(1, Ordering::Relaxed);
    }

    /// Count one connection refused at accept (connection cap reached).
    pub fn connection_rejected(&self) {
        bump(&self.counters.connections_rejected);
    }

    /// Connections open right now.
    pub fn open_connections(&self) -> u64 {
        self.connections_open.load(Ordering::Relaxed)
    }

    /// Count one request that arrived on a binary-negotiated connection.
    pub fn binary_request(&self) {
        bump(&self.counters.binary_requests);
    }

    /// Count one artifact hot-swap request (success or failure).
    pub fn swap_request(&self) {
        bump(&self.counters.swap_requests);
    }

    /// Count one replica catch-up (`sync`) request.
    pub fn sync_request(&self) {
        bump(&self.counters.sync_requests);
    }

    /// Account one `learn: false` decision's per-phase nanoseconds
    /// (`extract_ns` measured by the caller around featurization, the
    /// rest from [`DecisionPhaseNs`]).
    pub fn decision_phases(&self, extract_ns: u64, phases: DecisionPhaseNs) {
        let c = &self.counters;
        bump(&c.timed_decisions);
        add(&c.decision_extract_ns, extract_ns);
        add(&c.decision_embed_ns, phases.embed_ns);
        add(&c.decision_assign_ns, phases.assign_ns);
        add(&c.decision_label_ns, phases.label_ns);
        self.decision_ns
            .record(extract_ns + phases.embed_ns + phases.assign_ns + phases.label_ns);
    }

    /// Record one request's wall-clock latency.
    pub fn record_latency(&self, elapsed: Duration) {
        let us = elapsed.as_micros().min(u64::MAX as u128) as u64;
        self.latency_us.record(us);
        self.counters
            .max_latency_us
            .fetch_max((us as f64).to_bits(), Ordering::Relaxed);
    }

    /// Serializable snapshot of every counter, with the latency
    /// quantiles read from the histograms. The online-contention slots
    /// hold only what retired models counted; `Engine::serving_report`
    /// adds the live model's selectors.
    pub fn report(&self) -> ServingReport {
        ServingReport {
            p50_latency_us: self.latency_us.quantile(0.50),
            p99_latency_us: self.latency_us.quantile(0.99),
            decision_p50_us: self.decision_ns.quantile(0.50) / 1e3,
            decision_p99_us: self.decision_ns.quantile(0.99) / 1e3,
            ..self.counters.load()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_into_the_report() {
        let m = ServeMetrics::new();
        m.request();
        m.request();
        m.select(true, true);
        m.select(false, false);
        m.feedback();
        m.stats();
        m.batch(5);
        m.batch(3);
        m.error();
        m.deadline_exceeded();
        let r = m.report();
        assert_eq!(r.requests, 2);
        assert_eq!(r.select_requests, 2);
        assert_eq!(r.new_clusters, 1);
        assert_eq!(r.benchmarks_requested, 1);
        assert_eq!(r.cluster_hits, 1);
        assert_eq!(r.feedback_requests, 1);
        assert_eq!(r.feedback_applied, 1);
        assert_eq!(r.stats_requests, 1);
        assert_eq!(r.batch_requests, 2);
        assert_eq!(r.max_batch_size, 5);
        assert_eq!(r.errors, 2, "deadline misses are also errors");
        assert_eq!(r.deadline_exceeded, 1);
    }

    #[test]
    fn connection_and_shed_counters_accumulate() {
        let m = ServeMetrics::new();
        m.connection_opened();
        m.connection_opened();
        m.connection_opened();
        assert_eq!(m.open_connections(), 3);
        m.connection_closed();
        assert_eq!(m.open_connections(), 2);
        m.connection_opened();
        m.connection_rejected();
        m.shed();
        m.binary_request();
        m.binary_request();
        let r = m.report();
        assert_eq!(r.connections_accepted, 4);
        assert_eq!(r.connections_rejected, 1);
        assert_eq!(r.peak_connections, 3, "peak was before the close");
        assert_eq!(r.shed, 1);
        assert_eq!(r.errors, 1, "a shed is also an error response");
        assert_eq!(r.binary_requests, 2);
    }

    #[test]
    fn latency_quantiles_are_bucket_upper_bounds() {
        let m = ServeMetrics::new();
        assert_eq!(m.report().p50_latency_us, 0.0, "empty histogram");
        // 99 fast requests (~100 us), 1 slow (~50 ms).
        for _ in 0..99 {
            m.record_latency(Duration::from_micros(100));
        }
        m.record_latency(Duration::from_millis(50));
        let r = m.report();
        // 100 us lands in bucket 6 (64..127); upper bound 127.
        assert_eq!(r.p50_latency_us, 127.0);
        // The p99 target is the 99th request, still in the fast bucket.
        assert_eq!(r.p99_latency_us, 127.0);
        assert!(r.max_latency_us >= 50_000.0);
        // One more slow request pushes p99 into the slow bucket.
        for _ in 0..5 {
            m.record_latency(Duration::from_millis(50));
        }
        let r = m.report();
        assert!(r.p99_latency_us > 10_000.0);
        // p50 is unchanged.
        assert_eq!(r.p50_latency_us, 127.0);
    }

    #[test]
    fn decision_phase_counters_and_quantiles_accumulate() {
        let m = ServeMetrics::new();
        let r = m.report();
        assert_eq!(r.decision_p50_us, 0.0, "empty decision histogram");
        // 99 sub-microsecond decisions (~700 ns), one slow 40 us outlier.
        for _ in 0..99 {
            m.decision_phases(
                200,
                DecisionPhaseNs {
                    embed_ns: 300,
                    assign_ns: 150,
                    label_ns: 50,
                },
            );
        }
        m.decision_phases(
            30_000,
            DecisionPhaseNs {
                embed_ns: 5_000,
                assign_ns: 4_000,
                label_ns: 1_000,
            },
        );
        let r = m.report();
        assert_eq!(r.timed_decisions, 100);
        assert_eq!(r.decision_extract_ns, 99 * 200 + 30_000);
        assert_eq!(r.decision_embed_ns, 99 * 300 + 5_000);
        assert_eq!(r.decision_assign_ns, 99 * 150 + 4_000);
        assert_eq!(r.decision_label_ns, 99 * 50 + 1_000);
        // 700 ns lands in bucket 9 (512..1023 ns): upper bound 1023 ns.
        assert_eq!(r.decision_p50_us, 1.023);
        // The p99 target is the 99th decision, still in the fast bucket;
        // the 40 us outlier only shows past p99.
        assert_eq!(r.decision_p99_us, 1.023);
        // The request-latency histogram is untouched by decision timing.
        assert_eq!(r.p50_latency_us, 0.0);
    }

    #[test]
    fn sub_microsecond_latencies_land_in_the_first_bucket() {
        let m = ServeMetrics::new();
        m.record_latency(Duration::from_nanos(10));
        assert_eq!(m.report().p50_latency_us, 1.0);
    }
}
