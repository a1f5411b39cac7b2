//! Adversarial wire-protocol tests against a live daemon: torn frames,
//! oversized and zero length prefixes, garbage bytes, cross-connection
//! isolation, slow readers, load shedding, and a multi-hundred-
//! connection soak. Nothing here may panic the server or disturb a
//! well-behaved neighbour connection.

use spsel_core::cache::Cache;
use spsel_core::corpus::CorpusConfig;
use spsel_core::experiments::ExperimentContext;
use spsel_core::telemetry::RunReport;
use spsel_features::{FeatureVector, MatrixStats};
use spsel_matrix::{gen, CsrMatrix};
use spsel_serve::artifact::{self, ModelArtifact, TrainConfig};
use spsel_serve::engine::MAX_MATRIX_DIM;
use spsel_serve::framing::{self, MAGIC};
use spsel_serve::protocol::{Request, Response, SelectBody};
use spsel_serve::{server, Client, Engine, EngineOptions, ServeOptions, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

/// One model for the whole suite: training dominates test wall time and
/// every test here wants the same small corpus.
fn model() -> &'static ModelArtifact {
    static MODEL: OnceLock<ModelArtifact> = OnceLock::new();
    MODEL.get_or_init(|| {
        let cache = Cache::disabled();
        let mut report = RunReport::new("robustness-test");
        let ctx = ExperimentContext::build(CorpusConfig::small(25, 11), &cache, &mut report);
        artifact::train(&ctx, &TrainConfig::default()).expect("training succeeds")
    })
}

fn start_server(
    opts: ServeOptions,
) -> (
    SocketAddr,
    std::thread::JoinHandle<spsel_core::telemetry::ServingReport>,
) {
    let engine = Arc::new(Engine::from_artifact(model(), &EngineOptions::default()).unwrap());
    let server = Server::bind(engine, opts).expect("bind succeeds");
    let addr = server.local_addr().expect("bound address");
    (addr, std::thread::spawn(move || server.run()))
}

fn single_worker() -> ServeOptions {
    ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    }
}

fn feature_vec(seed: u64) -> Vec<f64> {
    let csr = CsrMatrix::from(&gen::power_law(130, 130, 2, 2.3, 50, seed));
    FeatureVector::from_stats(&MatrixStats::from_csr(&csr))
        .as_slice()
        .to_vec()
}

fn select_request(seed: u64) -> Request {
    Request::Select {
        matrix: None,
        features: Some(feature_vec(seed)),
        gpu: "Volta".into(),
        iterations: Some(200),
        deadline_ms: None,
        learn: Some(false),
        workload: None,
    }
}

fn shutdown_via(addr: SocketAddr) {
    let mut control = Client::connect(addr).expect("control connects");
    let _ = control.roundtrip(&Request::Shutdown);
}

/// Read one binary response frame off a raw stream.
fn read_frame(stream: &mut impl Read) -> std::io::Result<Response> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    framing::decode_response(payload[0], &payload[1..])
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

fn expect_eof(stream: &mut impl Read) {
    let mut byte = [0u8; 1];
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match stream.read(&mut byte) {
            Ok(0) => return,
            Ok(_) => panic!("expected the server to close, got more bytes"),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                assert!(
                    Instant::now() < deadline,
                    "server never closed the connection"
                );
            }
            Err(_) => return, // reset also counts as closed
        }
    }
}

/// A binary conversation split at *every* byte boundary, each half sent
/// as its own TCP segment, must reassemble to the same two replies.
#[test]
fn torn_frames_reassemble_at_every_split_point() {
    let (addr, handle) = start_server(single_worker());
    let select_frame = framing::encode_request(&select_request(1));
    let stats_frame = framing::encode_request(&Request::Stats);
    let mut conversation = Vec::new();
    conversation.extend_from_slice(&MAGIC);
    conversation.extend_from_slice(&select_frame);
    conversation.extend_from_slice(&stats_frame);

    // The full sweep is quadratic in wall time only through connect
    // cost; the conversation is ~300 bytes so this stays fast.
    for cut in 1..conversation.len() {
        let mut stream = TcpStream::connect(addr).expect("connects");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(&conversation[..cut]).unwrap();
        stream.flush().unwrap();
        // Give the halves a real chance to arrive as separate reads.
        std::thread::sleep(Duration::from_millis(1));
        stream.write_all(&conversation[cut..]).unwrap();
        stream.flush().unwrap();

        let mut ack = [0u8; 4];
        stream.read_exact(&mut ack).expect("magic ack");
        assert_eq!(ack, MAGIC, "split at {cut}: bad ack");
        let select = read_frame(&mut stream).expect("select reply");
        assert!(select.ok, "split at {cut}: {select:?}");
        assert!(select.select.is_some(), "split at {cut}");
        let stats = read_frame(&mut stream).expect("stats reply");
        assert!(stats.ok && stats.stats.is_some(), "split at {cut}");
    }
    shutdown_via(addr);
    let report = handle.join().unwrap();
    assert_eq!(report.errors, 0, "no split may produce an error");
}

/// An oversized length prefix cannot be resynchronized: typed
/// `frame_too_large` envelope, then the connection closes. A zero
/// length is `malformed`, same closing behavior.
#[test]
fn oversized_and_zero_length_prefixes_answer_typed_and_close() {
    let (addr, handle) = start_server(single_worker());
    for (prefix, code) in [
        (u32::MAX.to_le_bytes(), "frame_too_large"),
        ((framing::MAX_FRAME + 1).to_le_bytes(), "frame_too_large"),
        (0u32.to_le_bytes(), "malformed"),
    ] {
        let mut stream = TcpStream::connect(addr).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(&MAGIC).unwrap();
        stream.write_all(&prefix).unwrap();
        let mut ack = [0u8; 4];
        stream.read_exact(&mut ack).unwrap();
        assert_eq!(ack, MAGIC);
        let reply = read_frame(&mut stream).expect("typed error frame");
        assert!(!reply.ok);
        assert_eq!(reply.error.expect("error envelope").code, code);
        expect_eof(&mut stream);
    }
    shutdown_via(addr);
    handle.join().unwrap();
}

/// Error messages echo client input. A binary `Select` whose matrix path
/// fills a whole `u16` string yields an `io` message longer than a wire
/// string may be; it must come back as a typed envelope, capped the same
/// way over JSON, and the only worker must go on answering.
#[test]
fn oversize_error_messages_answer_typed_and_the_worker_keeps_serving() {
    let (addr, handle) = start_server(single_worker());
    let request = Request::Select {
        matrix: Some("m".repeat(u16::MAX as usize)),
        features: None,
        gpu: "Volta".into(),
        iterations: Some(200),
        deadline_ms: None,
        learn: Some(false),
        workload: None,
    };
    let binary_conversation = |requests: &[&Request]| {
        let mut stream = TcpStream::connect(addr).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(&MAGIC).unwrap();
        for r in requests {
            stream.write_all(&framing::encode_request(r)).unwrap();
        }
        let mut ack = [0u8; 4];
        stream.read_exact(&mut ack).expect("magic ack");
        assert_eq!(ack, MAGIC);
        requests
            .iter()
            .map(|_| read_frame(&mut stream).expect("typed reply frame"))
            .collect::<Vec<_>>()
    };

    let replies = binary_conversation(&[&request, &Request::Stats]);
    assert!(!replies[0].ok);
    let envelope = replies[0].error.clone().expect("error envelope");
    assert_eq!(envelope.code, "io");
    assert!(envelope.message.len() <= spsel_serve::error::MAX_ERROR_MESSAGE);
    assert!(replies[1].ok && replies[1].stats.is_some());

    // The worker still serves new binary and JSON connections, and the
    // JSON reply carries the same capped envelope.
    let replies = binary_conversation(&[&Request::Stats]);
    assert!(replies[0].ok && replies[0].stats.is_some());
    let mut json = Client::connect(addr).expect("json connects");
    assert_eq!(json.roundtrip(&request).unwrap().error, Some(envelope));
    assert!(json.roundtrip(&Request::Stats).unwrap().stats.is_some());
    shutdown_via(addr);
    handle.join().unwrap();
}

/// A 70-byte file declaring a 4e9 x 4e9 shape with no entries parses,
/// but its CSR form would need 32 GB of row pointers. It must be refused
/// typed, before that allocation, as must a shape one past
/// `MAX_MATRIX_DIM` in either dimension; a shape exactly at the cap is
/// served, and the only worker answers the next select.
#[test]
fn a_huge_declared_shape_is_too_large_and_the_worker_keeps_serving() {
    let dir = std::env::temp_dir().join(format!("spsel-huge-shape-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let shape_file = |name: &str, nrows: usize, ncols: usize| {
        let path = dir.join(name);
        std::fs::write(
            &path,
            format!("%%MatrixMarket matrix coordinate real general\n{nrows} {ncols} 0\n"),
        )
        .unwrap();
        Request::Select {
            matrix: Some(path.display().to_string()),
            features: None,
            gpu: "Volta".into(),
            iterations: Some(200),
            deadline_ms: None,
            learn: Some(false),
            workload: None,
        }
    };
    let cap = MAX_MATRIX_DIM;

    let (addr, handle) = start_server(single_worker());
    let mut client = Client::connect(addr).expect("connects");
    for (name, nrows, ncols) in [
        ("huge.mtx", 4_000_000_000, 4_000_000_000),
        ("over-rows.mtx", cap + 1, 1),
        ("over-cols.mtx", 1, cap + 1),
    ] {
        let reply = client.roundtrip(&shape_file(name, nrows, ncols)).unwrap();
        assert!(!reply.ok, "{name}");
        let envelope = reply.error.expect("error envelope");
        assert_eq!(envelope.code, "too_large", "{}", envelope.message);
        assert!(
            envelope.message.contains(&format!("{nrows} x {ncols}")),
            "{}",
            envelope.message
        );
    }
    // At the cap in columns: 4 B of diagonal stamps per column, 64 MiB.
    let at_cap = client.roundtrip(&shape_file("at-cap.mtx", 1, cap)).unwrap();
    assert!(at_cap.ok && at_cap.select.is_some(), "{at_cap:?}");
    let ok = client.roundtrip(&select_request(3)).unwrap();
    assert!(ok.ok && ok.select.is_some(), "{ok:?}");
    shutdown_via(addr);
    handle.join().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A frame cut off by the peer closing its write side gets a typed
/// `malformed` envelope, not silence and not a panic.
#[test]
fn truncated_tail_at_eof_is_a_typed_malformed_error() {
    let (addr, handle) = start_server(single_worker());
    let frame = framing::encode_request(&select_request(2));
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&MAGIC).unwrap();
    stream.write_all(&frame[..frame.len() / 2]).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut ack = [0u8; 4];
    stream.read_exact(&mut ack).unwrap();
    let reply = read_frame(&mut stream).expect("typed error frame");
    assert!(!reply.ok);
    assert_eq!(reply.error.expect("error envelope").code, "malformed");
    expect_eof(&mut stream);
    shutdown_via(addr);
    handle.join().unwrap();
}

/// Garbage *inside* a well-framed payload (unknown kind, truncated
/// body) is a typed reply and the connection stays usable; so does a
/// garbage JSON line. Only unframeable garbage closes.
#[test]
fn garbage_payloads_answer_typed_and_leave_the_connection_usable() {
    let (addr, handle) = start_server(single_worker());

    // Binary: unknown kind byte in a valid frame.
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&MAGIC).unwrap();
    let mut ack = [0u8; 4];
    stream.read_exact(&mut ack).unwrap();
    stream.write_all(&5u32.to_le_bytes()).unwrap();
    stream.write_all(&[0x7F, 0xDE, 0xAD, 0xBE, 0xEF]).unwrap();
    let reply = read_frame(&mut stream).expect("typed error frame");
    assert!(!reply.ok);
    assert_eq!(reply.error.expect("error envelope").code, "malformed");
    // Same connection, valid frame: still served.
    stream
        .write_all(&framing::encode_request(&Request::Stats))
        .unwrap();
    let stats = read_frame(&mut stream).expect("stats after garbage");
    assert!(stats.ok && stats.stats.is_some());
    drop(stream);

    // Binary: a truncated body inside a well-framed Select.
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&MAGIC).unwrap();
    stream.read_exact(&mut ack).unwrap();
    let full = framing::encode_request(&select_request(3));
    // Keep the frame header but declare only half the body: the decoder
    // runs out of bytes mid-struct.
    let body_len = (full.len() - 4) / 2;
    stream.write_all(&(body_len as u32).to_le_bytes()).unwrap();
    stream.write_all(&full[4..4 + body_len]).unwrap();
    let reply = read_frame(&mut stream).expect("typed error frame");
    assert!(!reply.ok);
    assert_eq!(reply.error.expect("error envelope").code, "malformed");
    stream
        .write_all(&framing::encode_request(&Request::Stats))
        .unwrap();
    assert!(read_frame(&mut stream).expect("still alive").ok);
    drop(stream);

    // JSON: a garbage line answers bad_request and the line protocol
    // keeps going.
    let mut client = Client::connect(addr).expect("json connects");
    let raw = client.roundtrip_raw("this is not json").unwrap();
    assert!(raw.contains("bad_request"), "{raw}");
    let ok = client.roundtrip(&Request::Stats).unwrap();
    assert!(ok.ok);

    // A preamble that is neither JSON nor the magic ('S' but not SPB1):
    // typed JSON error, then close.
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"SPBX garbage\n").unwrap();
    let mut line = String::new();
    BufReader::new(stream.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    assert!(line.contains("bad_request"), "{line}");
    expect_eof(&mut stream);

    shutdown_via(addr);
    handle.join().unwrap();
}

/// A malformed (and closed) connection must not disturb a healthy one
/// that is mid-session on the same single-worker event loop.
#[test]
fn malformed_connection_never_disturbs_its_neighbour() {
    let (addr, handle) = start_server(single_worker());
    let mut healthy = Client::connect_binary(addr).expect("healthy connects");
    let first = healthy.roundtrip(&select_request(4)).unwrap();
    assert!(first.ok);

    // Neighbour sends an unrecoverable length prefix and dies.
    let mut evil = TcpStream::connect(addr).expect("evil connects");
    evil.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    evil.write_all(&MAGIC).unwrap();
    let mut ack = [0u8; 4];
    evil.read_exact(&mut ack).unwrap();
    evil.write_all(&u32::MAX.to_le_bytes()).unwrap();
    let reply = read_frame(&mut evil).expect("typed error frame");
    assert_eq!(reply.error.expect("envelope").code, "frame_too_large");
    expect_eof(&mut evil);

    // The healthy connection continues bit-identically.
    let again = healthy.roundtrip(&select_request(4)).unwrap();
    assert_eq!(
        serde_json::to_string(&again).unwrap(),
        serde_json::to_string(&first).unwrap(),
        "neighbour failure changed a read-only reply"
    );
    shutdown_via(addr);
    handle.join().unwrap();
}

/// A reader draining one byte per tick must not stall other clients on
/// the same worker: the event loop parks its reply in the write buffer
/// and keeps serving everyone else.
#[test]
fn slow_reader_does_not_stall_other_connections() {
    let (addr, handle) = start_server(single_worker());

    // The slow client requests a hefty batch reply, then barely reads.
    let mut slow = TcpStream::connect(addr).expect("slow connects");
    slow.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let bodies: Vec<SelectBody> = (0..40)
        .map(|s| SelectBody {
            matrix: None,
            features: Some(feature_vec(40 + s)),
            gpu: "Pascal".into(),
            iterations: None,
            learn: Some(false),
            workload: None,
        })
        .collect();
    let batch = serde_json::to_string(&Request::Batch {
        requests: bodies,
        deadline_ms: None,
    })
    .unwrap();
    slow.write_all(batch.as_bytes()).unwrap();
    slow.write_all(b"\n").unwrap();

    // Trickle-read 64 bytes at one byte per 2ms while the fast client
    // works; the worker must interleave both.
    let trickle = std::thread::spawn(move || {
        let mut head = Vec::with_capacity(64);
        let mut byte = [0u8; 1];
        for _ in 0..64 {
            slow.read_exact(&mut byte).expect("slow byte");
            head.push(byte[0]);
            std::thread::sleep(Duration::from_millis(2));
        }
        // Then drain the rest and check the reply parses whole.
        let mut rest = String::new();
        let mut reader = BufReader::new(slow);
        reader.read_line(&mut rest).expect("rest of reply");
        let full = format!("{}{rest}", String::from_utf8(head).unwrap());
        let reply: Response = serde_json::from_str(full.trim()).expect("parses");
        assert!(reply.ok, "slow client's own reply must still be whole");
        assert_eq!(reply.batch.expect("batch payload").len(), 40);
    });

    let mut fast = Client::connect(addr).expect("fast connects");
    let started = Instant::now();
    for s in 0..30 {
        let reply = fast.roundtrip(&select_request(200 + s)).unwrap();
        assert!(reply.ok, "fast request {s} failed: {reply:?}");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(10),
        "fast client stalled behind the slow reader: {elapsed:?}"
    );
    trickle.join().unwrap();
    shutdown_via(addr);
    handle.join().unwrap();
}

/// Admission control: pipelined requests behind an undrained write
/// buffer get typed `shed` envelopes, and the `shed` counter in the
/// final report equals the number of shed envelopes observed on the
/// wire.
#[test]
fn shed_envelopes_match_the_shed_counter_exactly() {
    let (addr, handle) = start_server(ServeOptions {
        workers: 1,
        shed_buffer_bytes: 4096,
        ..ServeOptions::default()
    });
    // One burst of pipelined Stats requests: replies (a few KiB each)
    // pile into the connection's write buffer far faster than the
    // kernel drains them, so past the threshold the server must answer
    // `shed` instead of computing.
    const BURST: usize = 3000;
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut burst = Vec::with_capacity(BURST * 8);
    for _ in 0..BURST {
        burst.extend_from_slice(b"\"Stats\"\n");
    }
    stream.write_all(&burst).unwrap();
    stream.flush().unwrap();

    let mut shed_seen = 0usize;
    let mut served = 0usize;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    for i in 0..BURST {
        line.clear();
        let n = reader.read_line(&mut line).expect("reply line");
        assert!(n > 0, "connection died at reply {i}");
        let reply: Response = serde_json::from_str(line.trim()).expect("parses");
        match reply.error {
            Some(e) => {
                assert_eq!(e.code, "shed", "only shed errors expected: {e:?}");
                shed_seen += 1;
            }
            None => {
                assert!(reply.ok && reply.stats.is_some());
                served += 1;
            }
        }
    }
    assert!(shed_seen > 0, "burst never tripped the shed threshold");
    assert_eq!(shed_seen + served, BURST);

    // The buffer is drained now, so a fresh request is served — and the
    // final report's counter must match the envelopes we counted.
    shutdown_via(addr);
    let report = handle.join().unwrap();
    assert_eq!(report.shed as usize, shed_seen);
    assert_eq!(
        report.errors as usize, shed_seen,
        "sheds are the only errors"
    );
}

/// Connections past `max_connections` are answered with one `shed`
/// line and closed; existing connections are untouched.
#[test]
fn connection_cap_rejects_extras_with_a_shed_line() {
    let (addr, handle) = start_server(ServeOptions {
        workers: 1,
        max_connections: 4,
        ..ServeOptions::default()
    });
    let mut held: Vec<Client> = (0..4)
        .map(|_| Client::connect(addr).expect("held connects"))
        .collect();
    for c in held.iter_mut() {
        assert!(c.roundtrip(&Request::Stats).unwrap().ok);
    }

    let mut extra = TcpStream::connect(addr).expect("extra connects");
    extra
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut line = String::new();
    BufReader::new(extra.try_clone().unwrap())
        .read_line(&mut line)
        .expect("rejection line");
    let reply: Response = serde_json::from_str(line.trim()).expect("parses");
    assert_eq!(reply.error.expect("envelope").code, "shed");
    expect_eof(&mut extra);

    // Held connections still work, and the report shows the rejection.
    for c in held.iter_mut() {
        assert!(c.roundtrip(&Request::Stats).unwrap().ok);
    }
    drop(held);
    // Wait for the server to reap the closed connections so a control
    // connection is admitted under the cap.
    std::thread::sleep(Duration::from_millis(100));
    shutdown_via(addr);
    let report = handle.join().unwrap();
    assert!(report.connections_rejected >= 1);
    assert_eq!(report.peak_connections, 4);
}

/// 256 simultaneous binary connections, pipelined, zero failures — the
/// mini-soak CI runs in-process.
#[test]
fn soak_256_binary_connections_zero_failures() {
    let (addr, handle) = start_server(ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    });
    const THREADS: usize = 8;
    const CONNS_PER_THREAD: usize = 32;
    const REQUESTS_PER_CONN: usize = 6;
    const PIPELINE: usize = 3;
    // One shared feature vector: the soak exercises the wire and the
    // event loop, not the feature extractor.
    let features = Arc::new(feature_vec(9000));
    let barrier = Arc::new(Barrier::new(THREADS));

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let features = Arc::clone(&features);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || -> usize {
                let mut conns: Vec<Client> = (0..CONNS_PER_THREAD)
                    .map(|_| Client::connect_binary(addr).expect("soak connects"))
                    .collect();
                // Everyone connects before anyone issues requests, so
                // all 256 connections are provably open at once.
                barrier.wait();
                let mut failed = 0usize;
                let mut issued = vec![0usize; conns.len()];
                let mut inflight = vec![0usize; conns.len()];
                loop {
                    let mut live = false;
                    for (i, conn) in conns.iter_mut().enumerate() {
                        while issued[i] < REQUESTS_PER_CONN && inflight[i] < PIPELINE {
                            let request = Request::Select {
                                matrix: None,
                                features: Some(features.as_ref().clone()),
                                gpu: ["Pascal", "Volta", "Turing"][(t + i + issued[i]) % 3].into(),
                                iterations: Some(100),
                                deadline_ms: None,
                                learn: Some(false),
                                workload: None,
                            };
                            conn.send(&request).expect("send");
                            issued[i] += 1;
                            inflight[i] += 1;
                        }
                        if inflight[i] > 0 {
                            conn.flush().expect("flush");
                            live = true;
                        }
                    }
                    if !live {
                        return failed;
                    }
                    for (i, conn) in conns.iter_mut().enumerate() {
                        if inflight[i] == 0 {
                            continue;
                        }
                        let reply = conn.recv().expect("recv");
                        inflight[i] -= 1;
                        if !reply.ok {
                            failed += 1;
                        }
                    }
                }
            })
        })
        .collect();
    let failed: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert_eq!(failed, 0, "soak must be failure-free");

    shutdown_via(addr);
    let report = handle.join().unwrap();
    let total = (THREADS * CONNS_PER_THREAD * REQUESTS_PER_CONN) as u64;
    assert_eq!(report.select_requests, total);
    assert_eq!(report.binary_requests, total);
    assert_eq!(report.errors, 0);
    assert_eq!(report.shed, 0);
    assert!(
        report.peak_connections >= (THREADS * CONNS_PER_THREAD) as u64,
        "all {} connections were open concurrently, peak says {}",
        THREADS * CONNS_PER_THREAD,
        report.peak_connections
    );
}

/// Deadlines compose with pipelining: a request's age is measured from
/// when its bytes arrived, so one queued behind a long batch on the
/// same connection is rejected with a typed `deadline_exceeded`
/// envelope before any decision work.
#[test]
fn pipelined_request_behind_a_long_batch_exceeds_its_deadline() {
    // The fat batch's reply is megabytes; disable shedding so the late
    // select is judged by the deadline check, not admission control.
    let (addr, handle) = start_server(ServeOptions {
        shed_buffer_bytes: 0,
        ..single_worker()
    });
    // First a fat batch (thousands of decisions — the allocation-free
    // decide runs in well under a microsecond, so it takes this many to
    // stay comfortably over 1ms of compute), then a 1ms-deadline select
    // pipelined behind it in the same write.
    let bodies: Vec<SelectBody> = (0..4096)
        .map(|s| SelectBody {
            matrix: None,
            features: Some(feature_vec(500 + s)),
            gpu: "Turing".into(),
            iterations: None,
            learn: Some(false),
            workload: None,
        })
        .collect();
    // One write syscall for handshake + both frames, so both requests
    // land in the same event-loop fill and share an arrival stamp.
    let mut wire = Vec::new();
    wire.extend_from_slice(&MAGIC);
    wire.extend_from_slice(&framing::encode_request(&Request::Batch {
        requests: bodies,
        deadline_ms: None,
    }));
    wire.extend_from_slice(&framing::encode_request(&Request::Select {
        matrix: None,
        features: Some(feature_vec(501)),
        gpu: "Volta".into(),
        iterations: None,
        deadline_ms: Some(1),
        learn: Some(false),
        workload: None,
    }));
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream.write_all(&wire).unwrap();
    let mut ack = [0u8; 4];
    stream.read_exact(&mut ack).unwrap();
    assert_eq!(ack, MAGIC);
    let batch = read_frame(&mut stream).expect("batch reply");
    assert!(batch.ok, "the batch itself had no deadline");
    let late = read_frame(&mut stream).expect("late select reply");
    assert!(!late.ok);
    assert_eq!(late.error.expect("envelope").code, "deadline_exceeded");
    shutdown_via(addr);
    let report = handle.join().unwrap();
    assert_eq!(report.deadline_exceeded, 1);
}

/// JSON pipelining: many request lines written at once come back as
/// exactly one reply line each, in order, identical to lockstep
/// round-trips of the same requests.
#[test]
fn json_pipelining_preserves_order_and_payloads() {
    let (addr, handle) = start_server(single_worker());
    let requests: Vec<Request> = (0..20).map(|s| select_request(300 + s)).collect();

    // Lockstep reference on one connection.
    let mut reference = Client::connect(addr).expect("reference connects");
    let expected: Vec<String> = requests
        .iter()
        .map(|r| {
            let reply = reference.roundtrip(r).unwrap();
            serde_json::to_string(&reply).unwrap()
        })
        .collect();

    // Pipelined: all twenty lines in one write.
    let mut stream = TcpStream::connect(addr).expect("pipelined connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut blob = String::new();
    for r in &requests {
        blob.push_str(&serde_json::to_string(r).unwrap());
        blob.push('\n');
    }
    stream.write_all(blob.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    for (i, want) in expected.iter().enumerate() {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply line");
        let got: Response = serde_json::from_str(line.trim()).expect("parses");
        assert_eq!(
            &serde_json::to_string(&got).unwrap(),
            want,
            "pipelined reply {i} diverged from lockstep"
        );
    }
    shutdown_via(addr);
    handle.join().unwrap();
}

/// The JSON line of a `learn` select carrying 21 copies of `value`,
/// written verbatim (a float formatter would not write `1e999`).
fn inline_select_line(value: &str, learn: bool) -> String {
    let values = vec![value; spsel_features::NUM_FEATURES].join(",");
    format!(
        "{{\"Select\":{{\"matrix\":null,\"features\":[{values}],\"gpu\":\"pascal\",\
         \"iterations\":500,\"deadline_ms\":null,\"learn\":{learn}}}}}"
    )
}

fn pascal_clusters(engine: &Engine) -> usize {
    engine
        .stats()
        .gpus
        .iter()
        .find(|g| g.gpu == "Pascal")
        .unwrap()
        .clusters
}

/// Non-finite inline features never reach the online clusters or the
/// cost model: JSON `1e999` (which parses to +inf) and a binary frame's
/// NaN bits, both with `learn: true`, are `bad_request`, no cluster
/// opens, and the next select answers byte for byte as before.
#[test]
fn non_finite_inline_features_are_bad_requests_that_change_nothing() {
    let engine = Engine::from_artifact(model(), &EngineOptions::default()).unwrap();
    let probe = |engine: &Engine| {
        let line = serde_json::to_string(&select_request(7)).unwrap();
        let (reply, _) = server::handle_line(engine, &line, Instant::now(), 0);
        serde_json::to_string(&reply).unwrap()
    };
    let before = probe(&engine);
    let clusters = pascal_clusters(&engine);

    let (json, _) = server::handle_line(
        &engine,
        &inline_select_line("1e999", true),
        Instant::now(),
        0,
    );
    let error = json.error.expect("1e999 is refused");
    assert_eq!(error.code, "bad_request");
    assert!(error.message.contains("feature 0"), "{}", error.message);

    let mut nan = feature_vec(3);
    nan[5] = f64::from_bits(0x7ff8_0000_dead_beef);
    let request = Request::Select {
        matrix: None,
        features: Some(nan),
        gpu: "pascal".into(),
        iterations: Some(500),
        deadline_ms: None,
        learn: Some(true),
        workload: None,
    };
    let mut frames = framing::FrameBuffer::new();
    frames.push(&framing::encode_request(&request));
    let (kind, body) = frames.next_frame().unwrap().expect("one whole frame");
    let decoded = framing::decode_request(kind, &body).expect("NaN bits decode");
    let (binary, _) = server::handle_request(&engine, &decoded, Instant::now(), 0);
    let error = binary.error.expect("NaN is refused");
    assert_eq!(error.code, "bad_request");
    assert!(error.message.contains("feature 5"), "{}", error.message);

    assert_eq!(pascal_clusters(&engine), clusters, "no cluster opened");
    assert_eq!(probe(&engine), before);
}

/// Finite but absurd inline features (`1e300` everywhere) price without
/// overflowing: the stats rebuilt from them saturate at `usize::MAX`,
/// and the select gets a reply, learning or not. No format fits, so the
/// amortized answer is CSR, the format the matrix already has.
#[test]
fn huge_finite_inline_features_get_a_reply() {
    let engine = Engine::from_artifact(model(), &EngineOptions::default()).unwrap();
    for learn in [false, true] {
        let line = inline_select_line("1e300", learn);
        let (reply, _) = server::handle_line(&engine, &line, Instant::now(), 0);
        let json = serde_json::to_string(&reply).unwrap();
        assert!(json.contains("\"amortized_format\":\"CSR\""), "{json}");
        let select = reply.select.expect("a select reply");
        assert_eq!(select.predicted.len(), 4);
    }
}

/// A JSON line nested far past the reader's depth cap (1 MiB of `[`)
/// is one `bad_request`, not a stack overflow: the only worker answers
/// the select pipelined behind it on the same connection, and the next
/// connection too.
#[test]
fn deeply_nested_json_is_a_bad_request_and_the_worker_keeps_serving() {
    let (addr, handle) = start_server(single_worker());
    let select = serde_json::to_string(&select_request(5)).unwrap();
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut conversation = vec![b'['; 1 << 20];
    conversation.push(b'\n');
    conversation.extend_from_slice(select.as_bytes());
    conversation.push(b'\n');
    stream.write_all(&conversation).unwrap();

    let mut lines = BufReader::new(stream).lines();
    let mut reply = || -> Response {
        let line = lines.next().expect("a reply line").expect("readable");
        serde_json::from_str(&line).expect("parses")
    };
    let refused = reply();
    let error = refused.error.expect("an error envelope");
    assert_eq!(error.code, "bad_request");
    assert!(
        error.message.contains("nesting deeper than 128 levels"),
        "{}",
        error.message
    );
    assert!(reply().select.is_some(), "the pipelined select is answered");

    let mut client = Client::connect(addr).expect("a new connection");
    assert!(client
        .roundtrip(&select_request(5))
        .unwrap()
        .select
        .is_some());
    shutdown_via(addr);
    handle.join().unwrap();
}
