//! The per-layer metrics of a traced run: what each one measures, its
//! unit, and which end-to-end metric it should move on which workload.
//! A layer a workload's end-to-end path never calls reads 0 there.

/// `(name, unit, end-to-end metrics it should move, workload)`.
pub const LAYERS: &[(&str, &str, &str, &str)] = &[
    (
        "matrix.io.parse_ms",
        "ms",
        "op_p50_ms op_tail_ms ops_per_s",
        "serve-mtx",
    ),
    (
        "matrix.io.bytes",
        "bytes",
        "op_p50_ms op_tail_ms ops_per_s",
        "serve-mtx",
    ),
    (
        "matrix.csr.convert_ms",
        "ms",
        "op_p50_ms op_tail_ms ops_per_s",
        "serve-mtx",
    ),
    (
        "features.extract_ms",
        "ms",
        "op_p50_ms op_tail_ms ops_per_s",
        "serve-mtx",
    ),
    (
        "features.legacy_stats_ms",
        "ms",
        "setup_s",
        "all (corpus build, training)",
    ),
    ("core.online.embed_us", "us", "op_p50_ms", "serve-features"),
    ("core.online.assign_us", "us", "op_p50_ms", "serve-features"),
    ("core.online.label_us", "us", "op_p50_ms", "serve-features"),
    (
        "core.online.write_decisions",
        "count",
        "op_tail_ms",
        "serve-features",
    ),
    (
        "core.online.write_lock_wait_us",
        "us",
        "op_tail_ms",
        "serve-features",
    ),
    (
        "core.online.snapshot_swaps",
        "count",
        "op_tail_ms",
        "serve-features",
    ),
    (
        "core.online.new_clusters",
        "count",
        "op_tail_ms",
        "serve-features",
    ),
    (
        "core.online.cluster_hit_frac",
        "frac",
        "op_p50_ms",
        "serve-features",
    ),
    ("gpusim.price_spmv_us", "us", "op_p50_ms", "serve-features"),
    ("gpusim.price_spmm_us", "us", "op_p50_ms", "serve-features"),
    (
        "core.overhead.amortize_us",
        "us",
        "op_p50_ms",
        "serve-features",
    ),
    (
        "serve.protocol.decode_us",
        "us",
        "op_p50_ms ops_per_s",
        "serve-features",
    ),
    (
        "serve.protocol.encode_us",
        "us",
        "op_p50_ms ops_per_s",
        "serve-features",
    ),
    (
        "serve.engine.select_us",
        "us",
        "op_p50_ms op_tail_ms ops_per_s",
        "serve-mtx serve-features",
    ),
    (
        "serve.event_loop.wire_us",
        "us",
        "op_p50_ms ops_per_s",
        "serve-features",
    ),
    (
        "serve.server.p50_us",
        "us",
        "op_p50_ms ops_per_s",
        "serve-features",
    ),
    ("serve.server.p99_us", "us", "op_tail_ms", "serve-features"),
    (
        "serve.failed_frac",
        "frac",
        "op_p50_ms ops_per_s",
        "serve-features",
    ),
    (
        "serve.journal.records",
        "count",
        "op_tail_ms",
        "serve-features",
    ),
    (
        "serve.journal.compactions",
        "count",
        "op_tail_ms",
        "serve-features",
    ),
    (
        "serve.journal.bytes",
        "bytes",
        "op_tail_ms",
        "serve-features",
    ),
    (
        "serve.artifact.train_ms",
        "ms",
        "setup_s",
        "serve-mtx serve-features",
    ),
    (
        "serve.artifact.load_ms",
        "ms",
        "setup_s",
        "serve-mtx serve-features",
    ),
    ("core.corpus.build_s", "s", "setup_s", "all"),
    ("core.corpus.records", "count", "setup_s", "all"),
    ("gpusim.bench.measure_s", "s", "setup_s", "all"),
    ("core.cache.record_misses", "count", "setup_s", "all"),
    ("core.cache.stores", "count", "setup_s", "all"),
    (
        "core.cache.warm_build_s",
        "s",
        "op_p50_ms ops_per_s",
        "paper-tables",
    ),
    (
        "core.experiments.table4_s",
        "s",
        "op_p50_ms ops_per_s",
        "paper-tables",
    ),
    (
        "core.experiments.table6_s",
        "s",
        "ops_per_s",
        "paper-tables",
    ),
    (
        "core.experiments.table7_s",
        "s",
        "ops_per_s",
        "paper-tables",
    ),
    (
        "ml.fit.kmeans_ms",
        "ms",
        "op_p50_ms ops_per_s",
        "paper-tables",
    ),
    (
        "ml.fit.meanshift_ms",
        "ms",
        "op_p50_ms ops_per_s",
        "paper-tables",
    ),
    (
        "ml.fit.birch_ms",
        "ms",
        "op_p50_ms ops_per_s",
        "paper-tables",
    ),
    ("ml.fit.dt_ms", "ms", "ops_per_s", "paper-tables"),
    ("ml.fit.rf_ms", "ms", "ops_per_s", "paper-tables"),
    ("ml.fit.xgboost_ms", "ms", "ops_per_s", "paper-tables"),
    ("ml.fit.svm_ms", "ms", "ops_per_s", "paper-tables"),
    ("ml.fit.knn_ms", "ms", "ops_per_s", "paper-tables"),
    (
        "ml.fit.logreg_ms",
        "ms",
        "op_p50_ms ops_per_s",
        "paper-tables",
    ),
    (
        "bench.trace_overhead_frac",
        "frac",
        "(none: traced minus untraced median)",
        "all",
    ),
    (
        "bench.unexplained_frac",
        "frac",
        "(none: client median left to the event loop)",
        "serve-mtx serve-features",
    ),
];

/// Per-layer values a traced run measured, plus notes for the printout.
#[derive(Debug, Default)]
pub struct Layers {
    values: Vec<(&'static str, f64)>,
    notes: Vec<String>,
}

impl Layers {
    /// Record a value. Panics on a name missing from [`LAYERS`], so the
    /// table and the measurements cannot drift apart.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYERS.iter().any(|l| l.0 == name),
            "{name} is not in the layer table"
        );
        self.values.retain(|v| v.0 != name);
        self.values.push((name, value));
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Every layer in table order: `(name, value, unit, moves, on)`,
    /// 0 for layers this workload's path never calls.
    pub fn all(&self) -> Vec<(&'static str, f64, &'static str, &'static str, &'static str)> {
        LAYERS
            .iter()
            .map(|&(name, unit, moves, on)| {
                let value = self
                    .values
                    .iter()
                    .find(|v| v.0 == name)
                    .map_or(0.0, |v| v.1);
                (name, value, unit, moves, on)
            })
            .collect()
    }

    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the layer table, in order.
    #[test]
    fn benchmark_json_lists_every_layer() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        let per_layer = v
            .as_object()
            .unwrap()
            .iter()
            .find(|(k, _)| k == "per_layer")
            .map(|(_, v)| v.clone())
            .unwrap();
        let serde_json::Value::Array(items) = per_layer else {
            panic!("per_layer is not an array")
        };
        let listed: Vec<(String, String)> = items
            .iter()
            .map(|item| {
                let obj = item.as_object().unwrap();
                let get = |k: &str| match &obj.iter().find(|(n, _)| n == k).unwrap().1 {
                    serde_json::Value::Str(s) => s.clone(),
                    other => panic!("{k}: {other:?}"),
                };
                (get("name"), get("unit"))
            })
            .collect();
        let table: Vec<(String, String)> = LAYERS
            .iter()
            .map(|l| (l.0.to_string(), l.1.to_string()))
            .collect();
        assert_eq!(listed, table);
    }
}
