//! Property tests for the binary wire codec, and the protocol-
//! equivalence guarantee: the same request answered over JSON and over
//! binary frames yields bit-identical decision payloads.
//!
//! Floats travel as raw `f64::to_bits` patterns, so the round-trip
//! properties are asserted on the *encoded bytes* (encode → decode →
//! re-encode must reproduce the frame byte for byte), which covers NaN
//! payloads and signed zeros that `PartialEq` on the decoded structs
//! would miss.

use proptest::collection;
use proptest::prelude::*;
use serde::{Wire, WireReader};
use spsel_core::cache::Cache;
use spsel_core::corpus::CorpusConfig;
use spsel_core::experiments::ExperimentContext;
use spsel_core::telemetry::{RunReport, ServingReport};
use spsel_features::{FeatureVector, MatrixStats};
use spsel_matrix::{gen, CsrMatrix};
use spsel_serve::artifact::{self, TrainConfig};
use spsel_serve::framing::{self, FrameBuffer};
use spsel_serve::protocol::{
    FeedbackReply, FormatTime, GpuStats, LifecycleStats, Request, Response, SelectBody,
    SelectReply, ShutdownReply, StatsReply, SwapReply, SyncReply,
};
use spsel_serve::{Client, Engine, EngineOptions, ErrorEnvelope, ServeOptions, Server};
use std::sync::Arc;

const GPUS: [&str; 3] = ["Pascal", "Volta", "Turing"];
const FORMATS: [&str; 4] = ["COO", "CSR", "ELL", "HYB"];

/// Bits → f64 preserving the exact pattern: NaNs, infinities,
/// subnormals, signed zeros all included.
fn f(bits: u64) -> f64 {
    f64::from_bits(bits)
}

/// Decode one whole frame and encode what it decoded to.
fn reencode(frame: &[u8]) -> Vec<u8> {
    let mut buf = FrameBuffer::new();
    buf.push(frame);
    let (kind, body) = buf.next_frame().unwrap().expect("one whole frame");
    assert_eq!(buf.pending(), 0, "exactly one frame");
    if kind == framing::kind::RESPONSE {
        framing::encode_response(&framing::decode_response(kind, &body).unwrap())
    } else {
        framing::encode_request(&framing::decode_request(kind, &body).unwrap())
    }
}

/// Encode → frame-extract → decode → re-encode, asserting the two
/// encodings are byte-identical (bit-pattern round-trip).
fn assert_request_roundtrips(request: &Request) {
    let wire = framing::encode_request(request);
    assert_eq!(reencode(&wire), wire, "re-encoding drifted for {request:?}");
}

fn assert_response_roundtrips(response: &Response) {
    let wire = framing::encode_response(response);
    assert_eq!(
        reencode(&wire),
        wire,
        "re-encoding drifted for {response:?}"
    );
}

/// A select body whose floats are raw bit patterns and whose options
/// exercise every presence combination.
fn arb_select_body() -> impl Strategy<Value = SelectBody> {
    (
        collection::vec(0u64..u64::MAX, 0..25),
        0u64..u64::MAX,
        0u8..8,
    )
        .prop_map(|(bits, word, tags)| SelectBody {
            matrix: (tags & 1 != 0).then(|| format!("mtx/§-{word:x}.mtx")),
            features: (tags & 2 != 0).then(|| bits.iter().map(|&b| f(b)).collect()),
            gpu: GPUS[word as usize % GPUS.len()].to_string(),
            iterations: (tags & 4 != 0).then_some(word as usize % 100_000),
            learn: match word % 3 {
                0 => None,
                1 => Some(false),
                _ => Some(true),
            },
            workload: match word % 5 {
                0 => Some("spmv".to_string()),
                1 => Some("spmm4".to_string()),
                2 => Some("spmm32".to_string()),
                3 => Some(format!("workload-§-{word:x}")),
                _ => None,
            },
        })
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        collection::vec(arb_select_body(), 0..5),
        0u64..u64::MAX,
        0u8..7,
    )
        .prop_map(|(bodies, word, variant)| match variant {
            0 => {
                let body = bodies.into_iter().next().unwrap_or(SelectBody {
                    matrix: None,
                    features: None,
                    gpu: "Volta".into(),
                    iterations: None,
                    learn: None,
                    workload: None,
                });
                Request::Select {
                    matrix: body.matrix,
                    features: body.features,
                    gpu: body.gpu,
                    iterations: body.iterations,
                    deadline_ms: (word & 1 != 0).then_some(word >> 1),
                    learn: body.learn,
                    workload: body.workload,
                }
            }
            1 => Request::Batch {
                requests: bodies,
                deadline_ms: (word & 1 != 0).then_some(word >> 1),
            },
            2 => Request::Feedback {
                gpu: GPUS[word as usize % GPUS.len()].to_string(),
                cluster: word as usize % 10_000,
                best: FORMATS[word as usize % FORMATS.len()].to_string(),
            },
            3 => Request::Stats,
            4 => Request::Swap {
                path: format!("models/§-{word:x}.spsel"),
                expected_digest: (word & 2 != 0).then(|| format!("{word:016x}")),
            },
            5 => Request::Sync { from_seq: word },
            _ => Request::Shutdown,
        })
}

/// A serving report read from a buffer of raw words through the report's
/// own wire form, where every counter is one little-endian word: every
/// u64 field a raw counter, every f64 field a raw bit pattern (fields
/// past the pool reuse its words, rotated). The buffer holds more words
/// than the report has counters.
fn report_from(pool: &[u64]) -> ServingReport {
    let words: Vec<u8> = (0..128)
        .flat_map(|i| pool[i % pool.len()].rotate_left(i as u32).to_le_bytes())
        .collect();
    ServingReport::take(&mut WireReader::new(&words), "serving", false)
        .expect("the buffer covers every counter")
}

fn lifecycle_from(pool: &[u64]) -> LifecycleStats {
    LifecycleStats {
        journal_attached: pool[20] & 1 != 0,
        last_seq: pool[21],
        applied_seq: pool[22],
        checkpoint_seq: pool[23],
        records_since_checkpoint: pool[24],
        journal_bytes: pool[25],
        context_digest: format!("{:016x}", pool[26]),
        last_swap_digest: (pool[27] & 1 != 0).then(|| format!("{:016x}", pool[27])),
        swaps: pool[28],
        compactions: pool[29],
    }
}

fn select_reply_from(pool: &[u64]) -> SelectReply {
    SelectReply {
        gpu: GPUS[pool[0] as usize % GPUS.len()].to_string(),
        workload: ["spmv", "spmm4", "spmm32"][pool[14] as usize % 3].to_string(),
        format: FORMATS[pool[1] as usize % FORMATS.len()].to_string(),
        cluster: pool[2] as usize % 1_000_000,
        cluster_size: pool[3] as usize % 1_000_000,
        centroid_distance: f(pool[4]),
        new_cluster: pool[5] & 1 != 0,
        benchmark_requested: pool[5] & 2 != 0,
        predicted: (0..pool[6] % 5)
            .map(|i| FormatTime {
                format: FORMATS[i as usize % FORMATS.len()].to_string(),
                us: (pool[7] & (1 << i) != 0).then(|| f(pool[8].rotate_left(i as u32))),
            })
            .collect(),
        amortized_format: FORMATS[pool[9] as usize % FORMATS.len()].to_string(),
        amortized_total_us: f(pool[10]),
        csr_total_us: f(pool[11]),
        break_even_iterations: (pool[12] & 1 != 0).then(|| pool[12] as usize >> 1),
        iterations: pool[13] as usize % 1_000_000,
    }
}

/// A response with no section populated.
fn no_section(ok: bool) -> Response {
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

/// Every response variant, the no-section envelope included, floats by
/// bit pattern, batches nested one level (the wire cap is depth 2: a
/// batch of non-batch responses).
fn arb_response() -> impl Strategy<Value = Response> {
    (collection::vec(0u64..u64::MAX, 40usize), 0u8..9).prop_map(|(pool, variant)| {
        let error = Response {
            error: Some(ErrorEnvelope {
                code: "shed".to_string(),
                message: format!("unicode £ message {:x} \u{1F980}", pool[30]),
            }),
            ..no_section(false)
        };
        match variant {
            0 => error,
            1 => Response::of_select(select_reply_from(&pool)),
            2 => Response::of_batch(
                (0..pool[31] % 4)
                    .map(|i| {
                        if i & 1 == 0 {
                            Response::of_select(select_reply_from(&pool[i as usize..]))
                        } else {
                            error.clone()
                        }
                    })
                    .collect(),
            ),
            3 => Response::of_feedback(FeedbackReply {
                gpu: GPUS[pool[32] as usize % GPUS.len()].to_string(),
                cluster: pool[33] as usize % 1_000_000,
                format: FORMATS[pool[34] as usize % FORMATS.len()].to_string(),
                unlabeled_clusters: pool[35] as usize % 1_000_000,
                staleness: pool[36] as usize % 1_000_000,
            }),
            4 => Response::of_stats(StatsReply {
                artifact_version: pool[37] as u32,
                feature_digest: format!("{:016x}", pool[38]),
                gpus: (0..pool[39] % 4)
                    .map(|i| GpuStats {
                        gpu: GPUS[i as usize % GPUS.len()].to_string(),
                        clusters: pool[i as usize] as usize % 1_000_000,
                        unlabeled_clusters: pool[i as usize + 1] as usize % 1_000_000,
                        staleness: pool[i as usize + 2] as usize % 1_000_000,
                        training_records: pool[i as usize + 3] as usize % 1_000_000,
                        shards: pool[i as usize + 4] as usize % 64,
                        snapshot_version: pool[i as usize + 5],
                        shard_feedbacks: pool[i as usize..i as usize + 4].to_vec(),
                        shard_imbalance: f(pool[i as usize + 6]),
                    })
                    .collect(),
                serving: report_from(&pool),
                lifecycle: lifecycle_from(&pool),
            }),
            5 => Response::of_swap(SwapReply {
                artifact_version: pool[0] as u32,
                context_digest: format!("{:016x}", pool[1]),
                previous_digest: format!("{:016x}", pool[2]),
                gpus: pool[3] as usize % 8,
                rebased: pool[4],
                checkpoint_seq: pool[5],
            }),
            6 => Response::of_sync(SyncReply {
                last_seq: pool[6],
                checkpoint_seq: pool[7],
                context_digest: format!("{:016x}", pool[8]),
                checkpoint: (pool[9] & 1 != 0)
                    .then(|| format!("{{\"checkpoint_version\":1,\"pad\":\"{:x}\"}}", pool[10])),
                records: (0..pool[11] % 4)
                    .map(|i| format!("{{\"Feedback\":{{\"seq\":{}}}}}", pool[12].wrapping_add(i)))
                    .collect(),
            }),
            7 => Response {
                shutdown: Some(ShutdownReply {
                    stopping: pool[29] & 1 != 0,
                }),
                ..no_section(true)
            },
            _ => no_section(pool[15] & 1 != 0),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_request_variant_round_trips_bit_exactly(request in arb_request()) {
        assert_request_roundtrips(&request);
    }

    #[test]
    fn every_response_variant_round_trips_bit_exactly(response in arb_response()) {
        assert_response_roundtrips(&response);
    }

    #[test]
    fn finite_requests_also_round_trip_by_equality(
        bits in collection::vec(0u64..u64::MAX, 21usize),
        word in 0u64..u64::MAX,
    ) {
        // With finite floats the decoded struct must equal the original
        // under PartialEq too, not just re-encode identically.
        let features: Vec<f64> = bits
            .iter()
            .map(|&b| {
                let v = f(b);
                if v.is_finite() { v } else { (b >> 12) as f64 * 1e-3 }
            })
            .collect();
        let request = Request::Select {
            matrix: None,
            features: Some(features),
            gpu: GPUS[word as usize % GPUS.len()].to_string(),
            iterations: Some(word as usize % 10_000),
            deadline_ms: Some(word % 100_000),
            learn: Some(word & 1 != 0),
            workload: None,
        };
        let wire = framing::encode_request(&request);
        let mut buf = FrameBuffer::new();
        buf.push(&wire);
        let (kind, body) = buf.next_frame().unwrap().unwrap();
        prop_assert_eq!(framing::decode_request(kind, &body).unwrap(), request);
    }

    #[test]
    fn pipelined_frames_split_anywhere_reassemble_in_order(
        reqs in collection::vec(arb_request(), 1..5),
        cut_word in 0u64..u64::MAX,
    ) {
        // Concatenate several frames, feed them in two arbitrary chunks,
        // and require the same requests back in order.
        let wire: Vec<u8> = reqs.iter().flat_map(framing::encode_request).collect();
        let cut = (cut_word as usize) % (wire.len() + 1);
        let mut buf = FrameBuffer::new();
        buf.push(&wire[..cut]);
        let mut decoded_wire = Vec::new();
        while let Some((kind, body)) = buf.next_frame().unwrap() {
            let r = framing::decode_request(kind, &body).unwrap();
            decoded_wire.extend(framing::encode_request(&r));
        }
        buf.push(&wire[cut..]);
        while let Some((kind, body)) = buf.next_frame().unwrap() {
            let r = framing::decode_request(kind, &body).unwrap();
            decoded_wire.extend(framing::encode_request(&r));
        }
        prop_assert_eq!(decoded_wire, wire);
        prop_assert_eq!(buf.pending(), 0);
    }
}

/// A serving report whose every field holds its own value, set by name
/// through JSON: the keys are those of the report's own JSON form, in
/// its order; the `i`-th integer field reads `1_000_000_007 * (i + 1)`
/// and the `i`-th float field `(i + 1) + 0.25`, so no two fields agree
/// and no float is whole.
fn distinct_serving_report() -> ServingReport {
    use serde_json::Value;
    let zero = serde_json::to_string(&ServingReport::default()).unwrap();
    let Value::Object(pairs) = serde_json::from_str(&zero).unwrap() else {
        panic!("a serving report is a JSON object: {zero}");
    };
    let pairs = pairs
        .into_iter()
        .enumerate()
        .map(|(i, (key, value))| {
            let value = match value {
                Value::UInt(_) => Value::UInt(1_000_000_007 * (i as u64 + 1)),
                Value::Float(_) => Value::Float((i + 1) as f64 + 0.25),
                other => panic!("{key} is a {}, not a counter", other.kind()),
            };
            (key, value)
        })
        .collect();
    serde_json::from_str(&serde_json::to_string(&Value::Object(pairs)).unwrap()).unwrap()
}

const STATS_WIRE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../baselines/stats-wire.txt"
);

/// Wire stability alone cannot catch a field the binary codec silently
/// drops (the re-encode of the lossy decode matches the lossy wire), so
/// a stats reply with every counter set to a distinct finite value must
/// also round-trip by equality. Its three encodings are pinned byte for
/// byte by `baselines/stats-wire.txt`: line 1 is the binary frame in
/// hex, line 2 the compact JSON reply, the rest the pretty run report
/// whose `serving` block holds the reply's counters. On a mismatch the
/// test names each differing part and writes the actual file next to
/// the test binaries.
#[test]
fn stats_reply_fields_survive_binary_round_trip() {
    let pool: Vec<u64> = (1..=40).collect();
    let serving = distinct_serving_report();
    let response = Response::of_stats(StatsReply {
        artifact_version: 7,
        feature_digest: "0123456789abcdef".into(),
        gpus: vec![GpuStats {
            gpu: "Volta".into(),
            clusters: 12,
            unlabeled_clusters: 3,
            staleness: 5,
            training_records: 480,
            shards: 2,
            snapshot_version: 17,
            shard_feedbacks: vec![4, 9],
            shard_imbalance: 1.3846153846153846,
        }],
        serving,
        lifecycle: lifecycle_from(&pool),
    });
    let wire = framing::encode_response(&response);
    let mut buf = FrameBuffer::new();
    buf.push(&wire);
    let (kind, body) = buf.next_frame().unwrap().unwrap();
    let decoded = framing::decode_response(kind, &body).unwrap();
    assert_eq!(decoded, response, "binary codec dropped a stats field");

    let mut run = RunReport::new("stats-wire");
    run.threads = 1;
    run.serial = false;
    run.serving = Some(serving);
    let hex: String = wire.iter().map(|b| format!("{b:02x}")).collect();
    let parts = [
        ("binary frame", hex),
        ("compact JSON", serde_json::to_string(&response).unwrap()),
        (
            "pretty run report",
            serde_json::to_string_pretty(&run).unwrap(),
        ),
    ];
    let actual: String = parts.iter().map(|(_, text)| format!("{text}\n")).collect();
    let expected = std::fs::read_to_string(STATS_WIRE).unwrap_or_default();
    let mut want = expected.splitn(3, '\n');
    let mut differing = Vec::new();
    for (name, text) in &parts {
        if want.next().map(|w| w.trim_end_matches('\n')) != Some(text.as_str()) {
            differing.push(*name);
        }
    }
    if !differing.is_empty() {
        let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("stats-wire.txt");
        std::fs::write(&out, &actual).expect("write the actual stats encodings");
        panic!(
            "stats reply encodings differ from {STATS_WIRE}: {} (the actual file is in {})",
            differing.join(", "),
            out.display()
        );
    }
}

// ---------------------------------------------------------------------
// The wire transcript: every message kind's frame, byte for byte
// ---------------------------------------------------------------------

const WIRE_TRANSCRIPT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../baselines/wire-transcript.txt"
);

/// One message of the wire transcript.
enum Message {
    Request(Request),
    Response(Box<Response>),
}

impl Message {
    fn frame(&self) -> Vec<u8> {
        match self {
            Message::Request(r) => framing::encode_request(r),
            Message::Response(r) => framing::encode_response(r),
        }
    }
}

/// Every request kind and every reply kind, with distinct field values:
/// options present and absent, empty and nested batches, an error, the
/// no-section envelope and non-finite floats.
fn wire_messages() -> Vec<(&'static str, Message)> {
    let q = Message::Request;
    let a = |response| Message::Response(Box::new(response));
    let select_reply = SelectReply {
        gpu: "Volta".into(),
        workload: "spmm32".into(),
        format: "HYB".into(),
        cluster: 17,
        cluster_size: 230,
        centroid_distance: 0.4375,
        new_cluster: true,
        benchmark_requested: false,
        predicted: vec![
            FormatTime {
                format: "COO".into(),
                us: Some(12.5),
            },
            FormatTime {
                format: "CSR".into(),
                us: Some(9.75),
            },
            FormatTime {
                format: "ELL".into(),
                us: None,
            },
            FormatTime {
                format: "HYB".into(),
                us: Some(8.125),
            },
        ],
        amortized_format: "HYB".into(),
        amortized_total_us: f64::INFINITY,
        csr_total_us: 97_500.0,
        break_even_iterations: Some(640),
        iterations: 1000,
    };
    let error = Response {
        error: Some(ErrorEnvelope {
            code: "unknown_gpu".into(),
            message: "unknown GPU `TPU` £ \u{1F980}".into(),
        }),
        ..no_section(false)
    };
    vec![
        (
            "request-select-full",
            q(Request::Select {
                matrix: Some("mtx/§-web.mtx".into()),
                features: Some(vec![
                    1.5,
                    -0.0,
                    f64::from_bits(1),
                    f64::INFINITY,
                    f64::from_bits(0x7ff8_0000_0000_0abc),
                    4096.0,
                ]),
                gpu: "Volta".into(),
                iterations: Some(1234),
                deadline_ms: Some(250),
                learn: Some(false),
                workload: Some("spmm32".into()),
            }),
        ),
        (
            "request-select-bare",
            q(Request::Select {
                matrix: None,
                features: None,
                gpu: "Pascal".into(),
                iterations: None,
                deadline_ms: None,
                learn: None,
                workload: None,
            }),
        ),
        (
            "request-batch",
            q(Request::Batch {
                requests: vec![
                    SelectBody {
                        matrix: Some("a.mtx".into()),
                        features: None,
                        gpu: "Turing".into(),
                        iterations: Some(77),
                        learn: Some(true),
                        workload: None,
                    },
                    SelectBody {
                        matrix: None,
                        features: Some(vec![3.0, 4.5]),
                        gpu: "Pascal".into(),
                        iterations: None,
                        learn: None,
                        workload: Some("spmm4".into()),
                    },
                ],
                deadline_ms: Some(9000),
            }),
        ),
        (
            "request-batch-empty",
            q(Request::Batch {
                requests: vec![],
                deadline_ms: None,
            }),
        ),
        (
            "request-feedback",
            q(Request::Feedback {
                gpu: "Turing".into(),
                cluster: 4242,
                best: "ELL".into(),
            }),
        ),
        ("request-stats", q(Request::Stats)),
        ("request-shutdown", q(Request::Shutdown)),
        (
            "request-swap-digest",
            q(Request::Swap {
                path: "models/retrained.spsel".into(),
                expected_digest: Some("5eed5eed5eed5eed".into()),
            }),
        ),
        (
            "request-swap-bare",
            q(Request::Swap {
                path: "m.spsel".into(),
                expected_digest: None,
            }),
        ),
        ("request-sync", q(Request::Sync { from_seq: 31_337 })),
        ("reply-error", a(error.clone())),
        ("reply-select", a(Response::of_select(select_reply.clone()))),
        (
            "reply-batch",
            a(Response::of_batch(vec![
                Response::of_select(SelectReply {
                    gpu: "Pascal".into(),
                    workload: "spmv".into(),
                    format: "CSR".into(),
                    cluster: 3,
                    cluster_size: 41,
                    centroid_distance: 1.0625,
                    new_cluster: false,
                    benchmark_requested: true,
                    predicted: vec![FormatTime {
                        format: "CSR".into(),
                        us: Some(6.5),
                    }],
                    amortized_format: "CSR".into(),
                    amortized_total_us: 6500.0,
                    csr_total_us: 6500.0,
                    break_even_iterations: None,
                    iterations: 999,
                }),
                error,
            ])),
        ),
        ("reply-batch-empty", a(Response::of_batch(vec![]))),
        (
            "reply-feedback",
            a(Response::of_feedback(FeedbackReply {
                gpu: "Pascal".into(),
                cluster: 5,
                format: "CSR".into(),
                unlabeled_clusters: 2,
                staleness: 11,
            })),
        ),
        (
            "reply-stats",
            a(Response::of_stats(StatsReply {
                artifact_version: 3,
                feature_digest: "fedcba9876543210".into(),
                gpus: vec![GpuStats {
                    gpu: "Turing".into(),
                    clusters: 21,
                    unlabeled_clusters: 4,
                    staleness: 6,
                    training_records: 512,
                    shards: 2,
                    snapshot_version: 33,
                    shard_feedbacks: vec![8, 13],
                    shard_imbalance: 1.2380952380952381,
                }],
                serving: distinct_serving_report(),
                lifecycle: LifecycleStats {
                    journal_attached: true,
                    last_seq: 101,
                    applied_seq: 99,
                    checkpoint_seq: 64,
                    records_since_checkpoint: 37,
                    journal_bytes: 18_432,
                    context_digest: "00c0ffee00c0ffee".into(),
                    last_swap_digest: Some("0badf00d0badf00d".into()),
                    swaps: 2,
                    compactions: 5,
                },
            })),
        ),
        (
            "reply-swap",
            a(Response::of_swap(SwapReply {
                artifact_version: 4,
                context_digest: "1111222233334444".into(),
                previous_digest: "5555666677778888".into(),
                gpus: 3,
                rebased: 12,
                checkpoint_seq: 140,
            })),
        ),
        (
            "reply-sync",
            a(Response::of_sync(SyncReply {
                last_seq: 58,
                checkpoint_seq: 40,
                context_digest: "abcdefabcdefabcd".into(),
                checkpoint: Some("{\"checkpoint_version\":1,\"seq\":40}".into()),
                records: vec![
                    "{\"Feedback\":{\"seq\":41}}".into(),
                    "{\"Observe\":{\"seq\":42}}".into(),
                ],
            })),
        ),
        (
            "reply-sync-empty",
            a(Response::of_sync(SyncReply {
                last_seq: 7,
                checkpoint_seq: 0,
                context_digest: "9999aaaabbbbcccc".into(),
                checkpoint: None,
                records: vec![],
            })),
        ),
        ("reply-shutdown", a(Response::of_shutdown())),
        ("reply-none", a(no_section(true))),
    ]
}

/// The binary frame of every message kind is pinned byte for byte by
/// `baselines/wire-transcript.txt`: one line per message, its label, a
/// space, then the whole frame in hex. Each frame must also decode and
/// re-encode to itself. On a mismatch the test names the first differing
/// label and writes the actual file next to the test binaries.
#[test]
fn every_message_kind_matches_the_wire_transcript() {
    let mut actual = String::new();
    for (label, message) in wire_messages() {
        let frame = message.frame();
        assert_eq!(reencode(&frame), frame, "{label} drifted on re-encode");
        let hex: String = frame.iter().map(|b| format!("{b:02x}")).collect();
        actual.push_str(&format!("{label} {hex}\n"));
    }
    let expected = std::fs::read_to_string(WIRE_TRANSCRIPT).unwrap_or_default();
    if actual != expected {
        let mut want = expected.lines();
        let first = actual
            .lines()
            .find(|line| want.next() != Some(*line))
            .map_or("(a line past the last message)", |line| {
                line.split(' ').next().unwrap_or(line)
            });
        let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("wire-transcript.txt");
        std::fs::write(&out, &actual).expect("write the actual wire transcript");
        panic!(
            "frames differ from {WIRE_TRANSCRIPT}, first at `{first}` (the actual file is in {})",
            out.display()
        );
    }
}

/// A sequence longer than its `u16` prefix can count is cut to the first
/// 65 535 items, as a long string is cut at a char boundary: encoding
/// never panics and the frame stays well formed.
#[test]
fn sequences_past_their_prefix_are_cut_to_what_it_counts() {
    let first: Vec<u64> = (0..65_535).collect();
    let stats = Response::of_stats(StatsReply {
        artifact_version: 1,
        feature_digest: "d".into(),
        gpus: vec![GpuStats {
            gpu: "Volta".into(),
            clusters: 1,
            unlabeled_clusters: 0,
            staleness: 0,
            training_records: 1,
            shards: 70_000,
            snapshot_version: 1,
            shard_feedbacks: (0..70_000).collect(),
            shard_imbalance: 1.0,
        }],
        serving: ServingReport::default(),
        lifecycle: lifecycle_from(&[0; 30]),
    });
    let wire = framing::encode_response(&stats);
    let decoded = framing::decode_response(wire[4], &wire[5..]).expect("the cut frame decodes");
    let gpu = &decoded.stats.expect("a stats reply").gpus[0];
    assert_eq!(gpu.shards, 70_000);
    assert_eq!(gpu.shard_feedbacks, first);

    let select = Request::Select {
        matrix: None,
        features: Some((0..70_000).map(|i| i as f64).collect()),
        gpu: "Pascal".into(),
        iterations: None,
        deadline_ms: Some(5),
        learn: None,
        workload: None,
    };
    let wire = framing::encode_request(&select);
    let Request::Select {
        features,
        deadline_ms,
        ..
    } = framing::decode_request(wire[4], &wire[5..]).expect("the cut frame decodes")
    else {
        panic!("a select request")
    };
    let features = features.expect("features");
    assert_eq!(features.len(), 65_535);
    assert_eq!(features.last(), Some(&65_534.0));
    assert_eq!(deadline_ms, Some(5));
}

// ---------------------------------------------------------------------
// Protocol equivalence against a live daemon
// ---------------------------------------------------------------------

fn build_engine() -> Engine {
    let cache = Cache::disabled();
    let mut report = RunReport::new("framing-test");
    let ctx = ExperimentContext::build(CorpusConfig::small(25, 7), &cache, &mut report);
    let model = artifact::train(&ctx, &TrainConfig::default()).expect("training succeeds");
    Engine::from_artifact(&model, &EngineOptions::default()).unwrap()
}

fn feature_vec(seed: u64) -> Vec<f64> {
    let csr = CsrMatrix::from(&gen::power_law(140, 140, 2, 2.3, 50, seed));
    FeatureVector::from_stats(&MatrixStats::from_csr(&csr))
        .as_slice()
        .to_vec()
}

/// The same request stream over a JSON connection and a binary
/// connection must produce bit-identical decision payloads (the
/// response re-serialized through the same JSON serializer).
#[test]
fn json_and_binary_replies_are_bit_identical() {
    let engine = Arc::new(build_engine());
    let server = Server::bind(
        engine,
        ServeOptions {
            workers: 2,
            ..ServeOptions::default()
        },
    )
    .expect("bind succeeds");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run());

    let mut json_client = Client::connect(addr).expect("json client connects");
    let mut bin_client = Client::connect_binary(addr).expect("binary client connects");

    // Read-only selects (learn: false) are deterministic, so the two
    // protocols see identical engine state for every request.
    let mut requests: Vec<Request> = (0..8)
        .map(|s| Request::Select {
            matrix: None,
            features: Some(feature_vec(s)),
            gpu: GPUS[s as usize % GPUS.len()].to_string(),
            iterations: Some(300 + s as usize),
            deadline_ms: None,
            learn: Some(false),
            workload: None,
        })
        .collect();
    requests.push(Request::Batch {
        requests: (0..5)
            .map(|s| SelectBody {
                matrix: None,
                features: Some(feature_vec(100 + s)),
                gpu: GPUS[s as usize % GPUS.len()].to_string(),
                iterations: None,
                learn: Some(false),
                workload: None,
            })
            .collect(),
        deadline_ms: None,
    });
    // A typed error must be identical over both protocols too.
    requests.push(Request::Select {
        matrix: None,
        features: Some(feature_vec(9)),
        gpu: "TPU".into(),
        iterations: None,
        deadline_ms: None,
        learn: Some(false),
        workload: None,
    });
    requests.push(Request::Feedback {
        gpu: "Volta".into(),
        cluster: usize::MAX,
        best: "HYB".into(),
    });

    for request in &requests {
        let via_json = json_client.roundtrip(request).expect("json roundtrip");
        let via_binary = bin_client.roundtrip(request).expect("binary roundtrip");
        assert_eq!(
            serde_json::to_string(&via_json).unwrap(),
            serde_json::to_string(&via_binary).unwrap(),
            "decision payloads diverged for {request:?}"
        );
    }

    // Stats counters move between calls, but the model-derived fields
    // must agree.
    let s_json = json_client
        .roundtrip(&Request::Stats)
        .unwrap()
        .stats
        .expect("stats payload");
    let s_bin = bin_client
        .roundtrip(&Request::Stats)
        .unwrap()
        .stats
        .expect("stats payload");
    assert_eq!(s_json.artifact_version, s_bin.artifact_version);
    assert_eq!(s_json.feature_digest, s_bin.feature_digest);
    assert_eq!(s_json.gpus, s_bin.gpus);
    assert!(s_bin.serving.binary_requests >= 12);

    let down = bin_client.roundtrip(&Request::Shutdown).unwrap();
    assert!(down.ok && down.shutdown.is_some());
    let report = handle.join().unwrap();
    assert_eq!(report.errors, 4, "one bad-gpu and one bad-cluster each way");
    assert!(report.binary_requests >= 13);
}
