//! Criterion bench for the JSON codec on the paths that carry it:
//!
//! * `json/decode_inline_select` and `json/encode_select_reply`: one
//!   `serve-features` request line (21 inline features, `spmm32`) and the
//!   daemon's reply to it, as `Request` and `Response`;
//! * `json/artifact_to_json` and `json/artifact_from_json`: the model
//!   artifact `spsel train --quick` writes (~157 KB);
//! * `json/table4_pretty`: the committed Table 4 result, pretty-printed
//!   as the table binaries write it.
//!
//! The quick artifact is trained here with the cache disabled, so setup
//! takes a few seconds.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use spsel_core::cache::Cache;
use spsel_core::corpus::CorpusConfig;
use spsel_core::experiments::{table4, ExperimentContext};
use spsel_core::telemetry::RunReport;
use spsel_serve::artifact::{self, TrainConfig};
use spsel_serve::{server, Engine, EngineOptions, Request, Response};
use std::time::Instant;

const TABLE4: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../baselines/table4.json");

/// A `serve-features` select line: 21 inline Table 1 features.
const INLINE_SELECT: &str = "{\"Select\":{\"matrix\":null,\"features\":[4096.0,4096.0,20480.0,\
0.001220703125,5.0,5.0,5.0,0.0,0.0,1.0,5.0,5.0,0.0,0.0,1.0,3.0,0.0,0.0,1.0,0.0,0.0],\
\"gpu\":\"Pascal\",\"iterations\":null,\"deadline_ms\":null,\"learn\":false,\"workload\":\"spmm32\"}}";

fn bench_json_codec(c: &mut Criterion) {
    let mut report = RunReport::new("json-codec-bench");
    let ctx = ExperimentContext::build(
        CorpusConfig::small(120, 0xC0FFEE),
        &Cache::disabled(),
        &mut report,
    );
    let model = artifact::train(&ctx, &TrainConfig::default()).expect("training succeeds");
    let engine = Engine::from_artifact(&model, &EngineOptions::default()).expect("engine");

    let request: Request = serde_json::from_str(INLINE_SELECT).expect("the line decodes");
    let (reply, _) = server::handle_request(&engine, &request, Instant::now(), 0);
    assert!(reply.select.is_some(), "the select is answered");
    let reply_json = serde_json::to_string(&reply).expect("replies encode");
    let back: Response = serde_json::from_str(&reply_json).expect("replies decode");
    assert_eq!(back, reply);

    let mut group = c.benchmark_group("json");
    group.throughput(Throughput::Bytes(INLINE_SELECT.len() as u64));
    group.bench_function("decode_inline_select", |b| {
        b.iter(|| serde_json::from_str::<Request>(black_box(INLINE_SELECT)).unwrap())
    });
    group.throughput(Throughput::Bytes(reply_json.len() as u64));
    group.bench_function("encode_select_reply", |b| {
        b.iter(|| serde_json::to_string(black_box(&reply)).unwrap())
    });

    let artifact_json = artifact::to_json(&model);
    group.throughput(Throughput::Bytes(artifact_json.len() as u64));
    group.sample_size(20);
    group.bench_function("artifact_to_json", |b| {
        b.iter(|| artifact::to_json(black_box(&model)))
    });
    group.bench_function("artifact_from_json", |b| {
        b.iter(|| artifact::from_json(black_box(&artifact_json)).unwrap())
    });

    let text = std::fs::read_to_string(TABLE4).expect("read the committed table 4");
    let t4: table4::Table4 = serde_json::from_str(&text).expect("table 4 decodes");
    assert_eq!(serde_json::to_string_pretty(&t4).unwrap(), text);
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.bench_function("table4_pretty", |b| {
        b.iter(|| serde_json::to_string_pretty(black_box(&t4)).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_json_codec);
criterion_main!(benches);
