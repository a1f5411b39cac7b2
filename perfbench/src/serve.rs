//! The serve workloads, against the shipped `spsel-serve` binary: one
//! daemon with one event-loop worker, one client connection, one request
//! in flight (a closed loop with a single caller, who waits for a format
//! before starting its SpMV loop).
//!
//! Every request line is encoded before the clock starts, and replies
//! are compared after the timed window with those an in-process
//! [`Engine`], built from the same artifact, gives to the same line
//! sequence — so the client does no codec, parsing or extraction work
//! that would compete with the daemon for the two cores.

use crate::inputs::{self, FeatureOp, OpKind};
use crate::layers::Layers;
use crate::{child, fail, host, median, pipeline_child, stats, Outcome, Result};
use spsel_core::overhead::{amortized_best, break_even_iterations};
use spsel_core::telemetry::{RunReport, ServingReport};
use spsel_features::{FeatureExtractor, FeatureVector, MatrixStats};
use spsel_gpusim::cost::ConversionCostModel;
use spsel_gpusim::{predict_times, predict_workload_times, Gpu};
use spsel_matrix::{io, CsrMatrix, FormatRegistry, Workload};
use spsel_serve::engine::{matrix_id, stats_from_features};
use spsel_serve::protocol::{Request, Response, SelectBody, StatsReply};
use spsel_serve::server::{handle_line, handle_request};
use spsel_serve::{artifact, Engine, EngineOptions};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Stdio};
use std::time::{Duration, Instant};

/// GPUs the requests rotate through.
const GPUS: [Gpu; 3] = [Gpu::Pascal, Gpu::Volta, Gpu::Turing];
/// Cold set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Timed ops a window must reach, so the tail percentile rests on at
/// least 50 samples beyond it.
const MIN_TIMED_OPS: usize = 1000;
/// Hard stop for one timed window, whatever `--seconds` asks.
const MAX_WINDOW_S: f64 = 60.0;
/// Untimed `serve-features` ops before the window.
const FEATURE_WARMUP: usize = 2000;
/// Throughput ceiling the `serve-features` sequence is sized for (the
/// window ends early if a daemon ever outruns it).
const MAX_FEATURE_OPS_PER_S: f64 = 40_000.0;

/// A running `spsel-serve` daemon. Dropping it shuts it down.
pub struct Daemon {
    child: Child,
    pub addr: String,
}

impl Daemon {
    /// Start the daemon on an ephemeral port with one event-loop worker
    /// and its default journal next to the model, and wait until it
    /// announces its address.
    pub fn start(bin: &Path, dir: &Path, model: &str) -> Result<Daemon> {
        let mut child = child(bin, dir)
            .args([
                "--model",
                model,
                "--workers",
                "1",
                "--json",
                "serve-report.json",
            ])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(fail("spawn spsel-serve"))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        match (read, line.trim().strip_prefix("listening on ")) {
            (Ok(_), Some(addr)) => Ok(Daemon {
                addr: addr.to_string(),
                child,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("spsel-serve did not announce an address: {line:?}"))
            }
        }
    }

    /// Send `Shutdown`, wait for the process to exit, and kill it when
    /// it has not exited within ten seconds.
    pub fn stop(&mut self) -> Result<()> {
        if let Ok(Some(_)) = self.child.try_wait() {
            return Ok(());
        }
        if let Ok(mut wire) = Wire::connect(&self.addr) {
            let _ = wire.stream.set_read_timeout(Some(Duration::from_secs(2)));
            let _ = wire.roundtrip(b"\"Shutdown\"\n", &mut Vec::new());
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return match status.success() {
                    true => Ok(()),
                    false => Err(format!("spsel-serve exited with {status}")),
                };
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        Err("spsel-serve ignored Shutdown and was killed".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// One lockstep JSON connection.
pub struct Wire {
    stream: TcpStream,
    buf: Vec<u8>,
    len: usize,
}

impl Wire {
    pub fn connect(addr: &str) -> Result<Wire> {
        let stream = TcpStream::connect(addr).map_err(fail("connect"))?;
        stream.set_nodelay(true).map_err(fail("nodelay"))?;
        // A hung daemon fails the run instead of hanging it.
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(fail("read timeout"))?;
        Ok(Wire {
            stream,
            buf: vec![0; 64 * 1024],
            len: 0,
        })
    }

    /// Write one request line (newline included) and append its reply
    /// line, without the newline, to `out`.
    pub fn roundtrip(&mut self, line: &[u8], out: &mut Vec<u8>) -> Result<()> {
        self.stream.write_all(line).map_err(fail("send"))?;
        let mut scanned = 0;
        loop {
            if let Some(pos) = self.buf[scanned..self.len].iter().position(|&b| b == b'\n') {
                let end = scanned + pos;
                out.extend_from_slice(&self.buf[..end]);
                self.buf.copy_within(end + 1..self.len, 0);
                self.len -= end + 1;
                return Ok(());
            }
            scanned = self.len;
            if self.len == self.buf.len() {
                self.buf.resize(self.buf.len() * 2, 0);
            }
            match self.stream.read(&mut self.buf[self.len..]) {
                Ok(0) => return Err("daemon closed the connection".into()),
                Ok(n) => self.len += n,
                Err(e) => return Err(format!("receive: {e}")),
            }
        }
    }

    /// The daemon's `Stats` reply.
    pub fn stats(&mut self) -> Result<StatsReply> {
        let mut raw = Vec::new();
        self.roundtrip(b"\"Stats\"\n", &mut raw)?;
        let response: Response = serde_json::from_slice(&raw).map_err(fail("parse Stats reply"))?;
        response
            .stats
            .ok_or_else(|| "Stats reply without stats".into())
    }
}

/// A daemon that has answered its first request, the connection that
/// got the answer, and the run's set-up samples.
struct Deployment {
    daemon: Daemon,
    wire: Wire,
    model: PathBuf,
    setup_s: Vec<f64>,
    train_ms: Vec<f64>,
}

/// [`SETUPS`] cold deployments, each timed from a `spsel train --quick`
/// into an empty cache until `spsel-serve --model` answers its first
/// request. All but the last daemon are shut down again.
fn deploy(bin_dir: &Path, run_dir: &Path) -> Result<Deployment> {
    let mut setup_s = Vec::new();
    let mut train_ms = Vec::new();
    for k in 0.. {
        let dir = run_dir.join(format!("setup{k}"));
        std::fs::create_dir_all(&dir).map_err(fail("create set-up dir"))?;
        let start = Instant::now();
        let status = pipeline_child(&bin_dir.join("spsel"), &dir)
            .args([
                "train",
                "--quick",
                "--cache",
                "cache",
                "--out",
                "model.spsel",
            ])
            .args(["--json", "train.json"])
            .status()
            .map_err(fail("spawn spsel train"))?;
        if !status.success() {
            return Err(format!("spsel train failed: {status}"));
        }
        let mut daemon = Daemon::start(&bin_dir.join("spsel-serve"), &dir, "model.spsel")?;
        let mut wire = Wire::connect(&daemon.addr)?;
        wire.stats()?;
        setup_s.push(start.elapsed().as_secs_f64());
        let report: RunReport = std::fs::read_to_string(dir.join("train.json"))
            .ok()
            .and_then(|t| serde_json::from_str(&t).ok())
            .ok_or("unreadable train report")?;
        train_ms.push(report.phase_seconds("train").unwrap_or(0.0) * 1e3);
        if k + 1 == SETUPS {
            return Ok(Deployment {
                daemon,
                wire,
                model: dir.join("model.spsel"),
                setup_s,
                train_ms,
            });
        }
        daemon.stop()?;
    }
    unreachable!("the loop returns at k + 1 == SETUPS")
}

/// The reference engine: the served artifact, loaded in-process.
fn reference_engine(model: &Path) -> Result<Engine> {
    let artifact = artifact::load(model).map_err(fail("load artifact"))?;
    Engine::from_artifact(&artifact, &EngineOptions::default()).map_err(fail("build engine"))
}

/// The daemon's code path for one JSON line, split at the protocol
/// layer: the reply bytes plus nanoseconds in decode, engine and encode.
pub fn answer(engine: &Engine, line: &[u8]) -> (String, [u64; 3]) {
    let line = std::str::from_utf8(line)
        .expect("request lines are UTF-8")
        .trim_end();
    let t0 = Instant::now();
    let parsed = serde_json::from_str::<Request>(line);
    let t1 = Instant::now();
    let response = match parsed {
        Ok(request) => handle_request(engine, &request, t1, 0).0,
        Err(_) => handle_line(engine, line, t1, 0).0,
    };
    let t2 = Instant::now();
    let reply = serde_json::to_string(&response).expect("responses serialize");
    let t3 = Instant::now();
    let ns = |a: Instant, b: Instant| (b - a).as_nanos() as u64;
    (reply, [ns(t0, t1), ns(t1, t2), ns(t2, t3)])
}

/// Every reply of a run, in op order.
#[derive(Default)]
struct Transcript {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Transcript {
    fn get(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }

    fn len(&self) -> usize {
        self.ends.len()
    }
}

/// The client side of one serve run: encoded lines, the op sequence
/// over them (`None` past its end), and what the daemon answered.
struct Client<'a> {
    wire: &'a mut Wire,
    lines: &'a [Vec<u8>],
    line_of: &'a dyn Fn(usize) -> Option<usize>,
    log: Transcript,
}

impl Client<'_> {
    fn send(&mut self) -> Result<bool> {
        let Some(line) = (self.line_of)(self.log.len()) else {
            return Ok(false);
        };
        self.wire
            .roundtrip(&self.lines[line], &mut self.log.bytes)?;
        self.log.ends.push(self.log.bytes.len());
        Ok(true)
    }

    /// `count` untimed ops.
    fn warm(&mut self, count: usize) -> Result<()> {
        for _ in 0..count {
            if !self.send()? {
                return Err("op sequence ended during warm-up".into());
            }
        }
        Ok(())
    }

    /// The timed window: ops timed from send to reply until `seconds`
    /// have passed and at least [`MIN_TIMED_OPS`] were timed. Returns
    /// per-op seconds and the window's wall time.
    fn window(&mut self, seconds: f64) -> Result<(Vec<f64>, f64)> {
        let mut ops = Vec::with_capacity(1 << 16);
        let start = Instant::now();
        loop {
            let elapsed = start.elapsed().as_secs_f64();
            if (elapsed >= seconds && ops.len() >= MIN_TIMED_OPS) || elapsed >= MAX_WINDOW_S {
                break;
            }
            let sent = Instant::now();
            if !self.send()? {
                break;
            }
            ops.push(sent.elapsed().as_secs_f64());
        }
        let wall = start.elapsed().as_secs_f64();
        if ops.len() < MIN_TIMED_OPS {
            return Err(format!(
                "only {} timed ops in {wall:.1}s; a window needs {MIN_TIMED_OPS}",
                ops.len()
            ));
        }
        Ok((ops, wall))
    }
}

/// The measured part of a serve run.
struct Measured {
    ops: Vec<f64>,
    wall: f64,
    log: Transcript,
    ticks: String,
}

/// Warm up, then measure. Untraced: one window of `seconds`. Traced:
/// window A as untraced, then window B between two `Stats` snapshots
/// (the daemon counters' deltas); each takes half the time, and B's
/// median against A's is the tracing overhead.
fn measure(
    dep: &mut Deployment,
    lines: &[Vec<u8>],
    line_of: &dyn Fn(usize) -> Option<usize>,
    warmup: usize,
    seconds: f64,
    traced: Option<&mut Layers>,
) -> Result<Measured> {
    let mut client = Client {
        wire: &mut dep.wire,
        lines,
        line_of,
        log: Transcript::default(),
    };
    client.warm(warmup)?;
    let ticks_before = host::cpu_ticks();
    let (ops, wall) = match traced {
        None => client.window(seconds)?,
        Some(layers) => {
            let (ops_a, _) = client.window(seconds / 2.0)?;
            let before = client.wire.stats()?.serving;
            let (ops_b, wall_b) = client.window(seconds / 2.0)?;
            let after = client.wire.stats()?;
            daemon_layers(&before, &after, layers);
            let (a, b) = (p50(&ops_a), p50(&ops_b));
            layers.set("bench.trace_overhead_frac", (b - a) / a);
            layers.note(format!(
                "tracing overhead: op_p50 {:.4} ms traced vs {:.4} ms untraced ({:+.1}%)",
                b * 1e3,
                a * 1e3,
                (b - a) / a * 100.0
            ));
            (ops_b, wall_b)
        }
    };
    let ticks = host::window_ticks(ticks_before, host::cpu_ticks());
    Ok(Measured {
        ops,
        wall,
        log: client.log,
        ticks,
    })
}

/// Per-layer metrics from the daemon's counters across window B.
fn daemon_layers(before: &ServingReport, after: &StatsReply, layers: &mut Layers) {
    let a = &after.serving;
    let d = |f: fn(&ServingReport) -> u64| f(a).saturating_sub(f(before)) as f64;
    let timed = d(|s| s.timed_decisions).max(1.0);
    let requests = d(|s| s.requests).max(1.0);
    layers.set(
        "core.online.embed_us",
        d(|s| s.decision_embed_ns) / timed / 1e3,
    );
    layers.set(
        "core.online.assign_us",
        d(|s| s.decision_assign_ns) / timed / 1e3,
    );
    layers.set(
        "core.online.label_us",
        d(|s| s.decision_label_ns) / timed / 1e3,
    );
    layers.set("core.online.write_decisions", d(|s| s.write_decisions));
    layers.set(
        "core.online.write_lock_wait_us",
        d(|s| s.write_lock_wait_us),
    );
    layers.set("core.online.snapshot_swaps", d(|s| s.snapshot_swaps));
    layers.set("core.online.new_clusters", d(|s| s.new_clusters));
    layers.set(
        "core.online.cluster_hit_frac",
        d(|s| s.cluster_hits) / d(|s| s.select_requests).max(1.0),
    );
    layers.set("serve.server.p50_us", a.p50_latency_us);
    layers.set("serve.server.p99_us", a.p99_latency_us);
    let failed = d(|s| s.errors) + d(|s| s.shed) + d(|s| s.deadline_exceeded);
    layers.set("serve.failed_frac", failed / requests);
    let records = d(|s| s.observes_journaled) + d(|s| s.journal_appended);
    layers.set("serve.journal.records", records);
    layers.set("serve.journal.compactions", d(|s| s.compactions));
    layers.set("serve.journal.bytes", after.lifecycle.journal_bytes as f64);
}

fn p50(ops: &[f64]) -> f64 {
    let mut v = ops.to_vec();
    v.sort_by(f64::total_cmp);
    stats::percentile(&v, 0.5).unwrap_or(f64::NAN)
}

fn time_ns<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = Instant::now();
    let r = std::hint::black_box(f());
    (r, start.elapsed().as_nanos() as u64)
}

/// Median of per-call nanoseconds, scaled by `1 / div`.
fn med(ns: &[u64], div: f64) -> f64 {
    median(&ns.iter().map(|&n| n as f64 / div).collect::<Vec<_>>())
}

/// Per-call gpusim pricing and overhead amortization, as `Engine::select`
/// runs them: SpMV prices plus amortization, or `spmm32` prices.
#[derive(Default)]
struct Pricing {
    spmv: Vec<u64>,
    spmm: Vec<u64>,
    amortize: Vec<u64>,
}

impl Pricing {
    fn price(
        &mut self,
        conv: &ConversionCostModel,
        gpu: Gpu,
        fv: &FeatureVector,
        stats: &MatrixStats,
        spmm: bool,
    ) {
        let spec = gpu.spec();
        let id = matrix_id(fv);
        if spmm {
            let registry = FormatRegistry::cusp_default();
            let workload = Workload::SpMm { k: 32 };
            let (_, ns) = time_ns(|| predict_workload_times(&spec, stats, id, &registry, workload));
            self.spmm.push(ns);
            return;
        }
        let (times, ns) = time_ns(|| predict_times(&spec, stats, id));
        self.spmv.push(ns);
        let (_, ns) = time_ns(|| {
            let choice = amortized_best(&times, conv, 1000);
            break_even_iterations(&times, conv, choice.format)
        });
        self.amortize.push(ns);
    }

    fn record(&self, layers: &mut Layers) {
        layers.set("gpusim.price_spmv_us", med(&self.spmv, 1e3));
        layers.set("gpusim.price_spmm_us", med(&self.spmm, 1e3));
        layers.set("core.overhead.amortize_us", med(&self.amortize, 1e3));
    }
}

/// Traced metrics every serve workload shares: the event loop's share
/// of the client median, artifact train/load times, and the quick
/// training context rebuilt in-process.
fn serve_layers(
    dep: &Deployment,
    m: &Measured,
    inproc_us: f64,
    run_dir: &Path,
    layers: &mut Layers,
) -> Result<()> {
    let op_us = p50(&m.ops) * 1e6;
    layers.set("serve.event_loop.wire_us", op_us - inproc_us);
    layers.set("bench.unexplained_frac", (op_us - inproc_us) / op_us);
    layers.note(format!(
        "in-process decode + engine + encode ({inproc_us:.1} us) explains {:.1}% of the \
         {:.1} us client median; {:.1}% is left to the event loop, TCP and wake-ups",
        inproc_us / op_us * 100.0,
        op_us,
        (op_us - inproc_us) / op_us * 100.0
    ));
    layers.set("serve.artifact.train_ms", median(&dep.train_ms));
    let (engine, ns) = time_ns(|| reference_engine(&dep.model));
    engine?;
    layers.set("serve.artifact.load_ms", ns as f64 / 1e6);
    crate::paper::context_layers(run_dir, layers)?;
    Ok(())
}

fn select_line(
    matrix: Option<&str>,
    features: Option<&FeatureVector>,
    gpu: Gpu,
    learn: bool,
    spmm: bool,
) -> Vec<u8> {
    let request = Request::Select {
        matrix: matrix.map(str::to_string),
        features: features.map(|f| f.as_slice().to_vec()),
        gpu: gpu.name().to_string(),
        iterations: None,
        deadline_ms: None,
        learn: Some(learn),
        workload: spmm.then(|| "spmm32".to_string()),
    };
    let mut line = serde_json::to_vec(&request).expect("requests serialize");
    line.push(b'\n');
    line
}

fn outcome(dep: Deployment, m: Measured, failed: usize, layers: Layers) -> Outcome {
    Outcome {
        attempted: m.log.len(),
        failed,
        setup_s: dep.setup_s,
        ops: m.ops,
        tail: 0.95,
        window_s: m.wall,
        layers,
        ticks: m.ticks,
    }
}

/// `serve-mtx`: selects by Matrix Market path, `learn: false`, rotating
/// through the three GPUs. Op `i` reads file `order[i % 100]` for GPU
/// `i % 3`, so 300 distinct lines cycle; one untimed pass over the
/// files precedes the window.
pub fn serve_mtx(
    bin_dir: &Path,
    run_dir: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome> {
    let files =
        inputs::write_mtx_files(seed, &run_dir.join("mtx")).map_err(fail("write inputs"))?;
    let order = inputs::permutation(seed, files.len());
    let n = files.len() * GPUS.len();
    let file_of = |j: usize| order[j % files.len()];
    let lines: Vec<Vec<u8>> = (0..n)
        .map(|j| {
            select_line(
                Some(&files[file_of(j)]),
                None,
                GPUS[j % GPUS.len()],
                false,
                false,
            )
        })
        .collect();

    let mut dep = deploy(bin_dir, run_dir)?;
    let mut layers = Layers::default();
    let line_of = |i: usize| Some(i % n);
    let m = measure(
        &mut dep,
        &lines,
        &line_of,
        files.len(),
        seconds,
        trace.then_some(&mut layers),
    )?;
    dep.daemon.stop()?;

    // Reference replies per distinct line: `learn: false` never mutates
    // state, so a line's reply does not depend on its position.
    let engine = reference_engine(&dep.model)?;
    let (reference, protocol): (Vec<String>, Vec<[u64; 3]>) =
        lines.iter().map(|l| answer(&engine, l)).unzip();
    let failed = (0..m.log.len())
        .filter(|&i| m.log.get(i) != reference[i % n].as_bytes())
        .count();

    if trace {
        // Each file through the layers `Engine::select` calls before
        // deciding: Matrix Market parse, COO->CSR, extraction (and the
        // legacy stats pipeline the corpus build still uses).
        let mut file_ns = Vec::new();
        let (mut parse, mut convert, mut extract, mut legacy, mut bytes) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut extractor = FeatureExtractor::new();
        let mut featurized = Vec::new();
        for path in &files {
            bytes.push(std::fs::metadata(path).map_err(fail("stat input"))?.len() as f64);
            let (coo, p) = time_ns(|| io::read_matrix_market_file(path));
            let coo = coo.map_err(fail("parse input"))?;
            let (csr, c) = time_ns(|| CsrMatrix::from(&coo));
            let (stats, e) = time_ns(|| extractor.stats(&csr));
            let fv = FeatureVector::from_stats(&stats);
            let (_, l) = time_ns(|| MatrixStats::from_csr(&csr));
            parse.push(p);
            convert.push(c);
            extract.push(e);
            legacy.push(l);
            file_ns.push(p + c + e);
            featurized.push((fv, stats));
        }
        layers.set("matrix.io.parse_ms", med(&parse, 1e6));
        layers.set("matrix.io.bytes", median(&bytes));
        layers.set("matrix.csr.convert_ms", med(&convert, 1e6));
        layers.set("features.extract_ms", med(&extract, 1e6));
        layers.set("features.legacy_stats_ms", med(&legacy, 1e6));

        // Per distinct line: protocol split from the reference pass; the
        // engine's self time excludes the file layers it calls.
        let conv = artifact::load(&dep.model)
            .map_err(fail("load artifact"))?
            .conversion;
        let mut pricing = Pricing::default();
        let mut engine_self = Vec::new();
        let mut total = Vec::new();
        for (j, [decode, engine, encode]) in protocol.iter().enumerate() {
            let f = file_of(j);
            engine_self.push(engine.saturating_sub(file_ns[f]));
            total.push(decode + engine + encode);
            let (fv, stats) = &featurized[f];
            pricing.price(&conv, GPUS[j % GPUS.len()], fv, stats, false);
        }
        pricing.record(&mut layers);
        layers.set(
            "serve.protocol.decode_us",
            med(&protocol.iter().map(|p| p[0]).collect::<Vec<_>>(), 1e3),
        );
        layers.set(
            "serve.protocol.encode_us",
            med(&protocol.iter().map(|p| p[2]).collect::<Vec<_>>(), 1e3),
        );
        layers.set("serve.engine.select_us", med(&engine_self, 1e3));
        serve_layers(&dep, &m, med(&total, 1e3), run_dir, &mut layers)?;
    }
    Ok(outcome(dep, m, failed, layers))
}

/// Index of an op's select line in the `serve-features` line table:
/// one line per (pool vector, GPU, kind), feedback lines after them.
fn select_index(op: &FeatureOp) -> usize {
    let kind = match op.kind {
        OpKind::Read => 0,
        OpKind::ReadSpmm => 1,
        _ => 2,
    };
    (op.vector * GPUS.len() + op.gpu) * 3 + kind
}

/// `serve-features`: selects carrying the 21 feature values inline over
/// JSON. Per block of 20 selects: 2 `learn: true` (each followed by its
/// `Feedback`), 5 tagged `spmm32`, 13 `learn: false` SpMV; the daemon
/// keeps its default journal (compaction every 4096 records, which at
/// 2 records per 22 ops lands several times in every window).
pub fn serve_features(
    bin_dir: &Path,
    run_dir: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome> {
    let pool = inputs::feature_pool(seed);
    let max_ops = FEATURE_WARMUP + (seconds * MAX_FEATURE_OPS_PER_S) as usize;
    let ops = inputs::feature_ops(seed, max_ops);
    let mut lines = Vec::new();
    for (_, fv) in &pool {
        for gpu in GPUS {
            for (learn, spmm) in [(false, false), (false, true), (true, false)] {
                lines.push(select_line(None, Some(fv), gpu, learn, spmm));
            }
        }
    }

    let mut dep = deploy(bin_dir, run_dir)?;
    // Pre-pass over the mutating ops only (reads leave the online state
    // alone): each feedback names the cluster its learning select got,
    // and the best format among the reply's predicted times.
    let engine = reference_engine(&dep.model)?;
    let mut seq: Vec<u32> = Vec::with_capacity(ops.len());
    let mut pending = None;
    for op in &ops {
        let index = match op.kind {
            OpKind::Learn => {
                let (_, fv) = &pool[op.vector];
                let body = SelectBody {
                    matrix: None,
                    features: Some(fv.as_slice().to_vec()),
                    gpu: GPUS[op.gpu].name().to_string(),
                    iterations: None,
                    learn: Some(true),
                    workload: None,
                };
                pending = Some(engine.select(&body).map_err(fail("reference select"))?);
                select_index(op)
            }
            OpKind::Feedback => {
                let reply = pending.take().ok_or("feedback without a select")?;
                let best = reply
                    .predicted
                    .iter()
                    .filter_map(|t| t.us.map(|us| (us, &t.format)))
                    .min_by(|a, b| a.0.total_cmp(&b.0))
                    .map_or("CSR".to_string(), |(_, f)| f.clone());
                engine
                    .feedback(&reply.gpu, reply.cluster, &best)
                    .map_err(fail("reference feedback"))?;
                let request = Request::Feedback {
                    gpu: reply.gpu.clone(),
                    cluster: reply.cluster,
                    best,
                };
                let mut line = serde_json::to_vec(&request).expect("requests serialize");
                line.push(b'\n');
                lines.push(line);
                lines.len() - 1
            }
            _ => select_index(op),
        };
        seq.push(index as u32);
    }
    drop(engine);

    let mut layers = Layers::default();
    let line_of = |i: usize| seq.get(i).map(|&l| l as usize);
    let m = measure(
        &mut dep,
        &lines,
        &line_of,
        FEATURE_WARMUP,
        seconds,
        trace.then_some(&mut layers),
    )?;
    dep.daemon.stop()?;

    // Replay the sent prefix, in order, through a fresh engine.
    let engine = reference_engine(&dep.model)?;
    let mut failed = 0;
    let (mut decode, mut select, mut encode, mut total) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..m.log.len() {
        let (reply, [d, e, s]) = answer(&engine, &lines[seq[i] as usize]);
        if reply.as_bytes() != m.log.get(i) {
            failed += 1;
        }
        decode.push(d);
        if ops[i].kind != OpKind::Feedback {
            select.push(e);
        }
        encode.push(s);
        total.push(d + e + s);
    }

    if trace {
        let conv = artifact::load(&dep.model)
            .map_err(fail("load artifact"))?
            .conversion;
        let mut pricing = Pricing::default();
        let mut legacy = Vec::new();
        for (csr, fv) in &pool {
            let stats = stats_from_features(fv);
            for gpu in GPUS {
                pricing.price(&conv, gpu, fv, &stats, false);
                pricing.price(&conv, gpu, fv, &stats, true);
            }
            legacy.push(time_ns(|| MatrixStats::from_csr(csr)).1);
        }
        pricing.record(&mut layers);
        layers.set("features.legacy_stats_ms", med(&legacy, 1e6));
        layers.set("serve.protocol.decode_us", med(&decode, 1e3));
        layers.set("serve.protocol.encode_us", med(&encode, 1e3));
        layers.set("serve.engine.select_us", med(&select, 1e3));
        serve_layers(&dep, &m, med(&total, 1e3), run_dir, &mut layers)?;
    }
    Ok(outcome(dep, m, failed, layers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spsel_serve::{JournalConfig, ServeOptions, Server};
    use std::sync::Arc;

    /// The reference-reply generator against a live daemon: a short
    /// `serve-features` sequence (learning, feedback, `spmm32`) through
    /// the real event loop with a journal attached, byte-compared with
    /// what `answer` gives on a fresh engine built from the same
    /// artifact.
    #[test]
    fn reference_replies_match_a_live_daemon() {
        let dir = crate::inputs::tests::scratch("live");
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = spsel_core::corpus::CorpusConfig::small(40, 3);
        let cache = spsel_core::cache::Cache::disabled();
        let ctx = spsel_core::experiments::ExperimentContext::build(
            cfg,
            &cache,
            &mut RunReport::new("t"),
        );
        let model = artifact::train(&ctx, &artifact::TrainConfig::default()).unwrap();
        let path = dir.join("model.spsel");
        artifact::save(&model, &path).unwrap();

        let mut live = reference_engine(&path).unwrap();
        let journal = JournalConfig {
            fsync: false,
            checkpoint_every: 64,
        };
        live.attach_journal_with(dir.join("model.spsel.journal"), journal)
            .unwrap();
        let opts = ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        };
        let server = Server::bind(Arc::new(live), opts).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || server.run());

        let pool = inputs::feature_pool(9);
        let ops = inputs::feature_ops(9, 600);
        let engine = reference_engine(&path).unwrap();
        let mut wire = Wire::connect(&addr).unwrap();
        let mut pending = None;
        let mut compared = 0;
        for op in &ops {
            let line = match op.kind {
                OpKind::Feedback => {
                    let reply: SelectBodyReply = pending.take().unwrap();
                    let request = Request::Feedback {
                        gpu: reply.0,
                        cluster: reply.1,
                        best: "CSR".into(),
                    };
                    let mut line = serde_json::to_vec(&request).unwrap();
                    line.push(b'\n');
                    line
                }
                kind => select_line(
                    None,
                    Some(&pool[op.vector].1),
                    GPUS[op.gpu],
                    kind == OpKind::Learn,
                    kind == OpKind::ReadSpmm,
                ),
            };
            let (expected, _) = answer(&engine, &line);
            let mut got = Vec::new();
            wire.roundtrip(&line, &mut got).unwrap();
            assert_eq!(String::from_utf8(got).unwrap(), expected, "op {op:?}");
            if op.kind == OpKind::Learn {
                let r: Response = serde_json::from_str(&expected).unwrap();
                let s = r.select.unwrap();
                pending = Some((s.gpu, s.cluster));
            }
            compared += 1;
        }
        let stats = wire.stats().unwrap();
        assert!(
            stats.serving.compactions > 0,
            "the sequence crossed a compaction"
        );
        wire.roundtrip(b"\"Shutdown\"\n", &mut Vec::new()).unwrap();
        handle.join().unwrap();
        assert_eq!(compared, ops.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    type SelectBodyReply = (String, usize);
}
