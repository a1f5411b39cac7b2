//! `perfbench`: the spselect benchmark (see `perfbench/README.md`).
//!
//! ```sh
//! perfbench --workload serve-mtx|serve-features|paper-tables --seed N \
//!           --seconds S --trace 0|1 --bin-dir DIR
//! ```
//!
//! Run from the repository root, normally through `perfbench/run.py`,
//! which builds the shipped binaries into DIR first. Each run works in
//! its own directory under `.perfbench_runs/`, removed when it ends. The
//! last stdout line is the result object; the line before it records
//! the host. A run that cannot measure exits nonzero without a result.

mod host;
mod inputs;
mod layers;
mod paper;
mod serve;
mod stats;

use layers::Layers;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

pub type Result<T> = std::result::Result<T, String>;

/// Error mapper that prefixes what was being done.
pub fn fail<E: Display>(what: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e}")
}

pub use stats::median;

/// A child process of the benchmark: run in `dir`, no stdin, output
/// discarded unless redirected, and none of the `SPSEL_*` escape hatches
/// (cache off, thread count, faults) the caller's environment may set.
/// [`pipeline_child`] adds the one setting the benchmark does make.
pub fn child(bin: &Path, dir: &Path) -> Command {
    let mut cmd = Command::new(bin);
    cmd.current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("SPSEL_") {
            cmd.env_remove(key);
        }
    }
    cmd
}

/// A [`child`] that runs the pipeline (`spsel train`, the table
/// binaries) with one worker thread. On a 2-vCPU host shared with other
/// tenants, a second busy thread draws several times the steal time of
/// one (about 10% against 2% of ticks for `table4`) and widens the
/// run-to-run spread with it; one thread measures the code, not the
/// neighbours. Parallel speedups are therefore not measured here.
pub fn pipeline_child(bin: &Path, dir: &Path) -> Command {
    let mut cmd = child(bin, dir);
    cmd.env("SPSEL_THREADS", "1");
    cmd
}

/// Run in-process pipeline work with one worker thread, as
/// [`pipeline_child`] runs the binaries.
pub fn one_thread<R>(f: impl FnOnce() -> R) -> R {
    rayon::set_threads(Some(1));
    let r = f();
    rayon::set_threads(None);
    r
}

/// What a workload measured.
pub struct Outcome {
    /// Ops sent (warm-up included: every one is verified).
    pub attempted: usize,
    /// Ops whose output did not match the reference.
    pub failed: usize,
    /// Cold set-up samples, seconds.
    pub setup_s: Vec<f64>,
    /// Timed ops, seconds each.
    pub ops: Vec<f64>,
    /// The tail percentile this workload reports (p99 needs 1000 ops).
    pub tail: f64,
    /// Seconds the timed ops took in total.
    pub window_s: f64,
    /// Traced runs only.
    pub layers: Layers,
    /// CPU ticks over the timed window.
    pub ticks: String,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
}

fn parse_args() -> Result<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let num = |flag: &str| -> Result<u64> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok(Args {
        workload: get("--workload")?,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1) as f64,
        trace,
        // Absolute: children run in their own directories.
        bin_dir: std::fs::canonicalize(get("--bin-dir")?).map_err(fail("--bin-dir"))?,
    })
}

/// A run's private directory; removed on drop, success or failure.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Confine this process, and every process it starts, to CPU 0. A
/// lockstep request then never waits for the hypervisor to wake a
/// second vCPU: on a shared 2-vCPU host those wake-ups turned host steal
/// into twice its share of `serve-features` latency (4 of 10 runs
/// with 12–23% steal moved p95 by up to 2x and halved throughput), while
/// `serve-mtx`, with two wake-ups per 3 ms op, barely moved. Returns
/// whether the pin took (`taskset` may be missing); the host line
/// records it.
fn pin_to_one_cpu() -> bool {
    Command::new("taskset")
        .args(["-cp", "0", &std::process::id().to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

fn run() -> Result<()> {
    let args = parse_args()?;
    let root = std::env::current_dir().map_err(fail("current dir"))?;
    for needed in ["Cargo.toml", "crates", "baselines"] {
        if !root.join(needed).exists() {
            return Err(format!("{needed} missing: run from the repository root"));
        }
    }
    // Fingerprint first: CPU counts read after pinning see one CPU.
    let fingerprint = host::fingerprint(&root);
    let pinned = pin_to_one_cpu();
    let run_dir = RunDir(root.join(".perfbench_runs").join(format!(
        "{}-s{}-p{}",
        args.workload,
        args.seed,
        std::process::id()
    )));
    std::fs::create_dir_all(&run_dir.0).map_err(fail("create run dir"))?;
    let (bins, dir, seed, secs, trace) = (
        &args.bin_dir,
        &run_dir.0,
        args.seed,
        args.seconds,
        args.trace,
    );
    let outcome = match args.workload.as_str() {
        "serve-mtx" => serve::serve_mtx(bins, dir, seed, secs, trace)?,
        "serve-features" => serve::serve_features(bins, dir, seed, secs, trace)?,
        "paper-tables" => paper::paper_tables(bins, &root, dir, seed, secs, trace)?,
        other => return Err(format!("unknown workload {other}")),
    };

    println!(
        "{{\"host\":{},\"window\":{},\"pinned_cpu0\":{pinned},\"workload\":{:?},\"seed\":{seed},\"trace\":{trace}}}",
        fingerprint,
        outcome.ticks,
        args.workload
    );
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if trace {
        println!("per-layer metrics ({} traced):", args.workload);
        for (name, value, unit, moves, on) in outcome.layers.all() {
            println!("  {name:<32} {value:>14.4} {unit:<6} moves {moves} on {on}");
            metrics.push((name.to_string(), value, unit));
        }
        for note in outcome.layers.notes() {
            println!("  {note}");
        }
    } else {
        let mut ops = outcome.ops.clone();
        ops.sort_by(f64::total_cmp);
        let p50 = stats::percentile(&ops, 0.5);
        let tail = stats::percentile(&ops, outcome.tail);
        let (Some(p50), Some(tail)) = (p50, tail) else {
            return Err(format!(
                "{} timed ops leave fewer than {} samples beyond p{}",
                ops.len(),
                stats::MIN_BEYOND,
                outcome.tail * 100.0
            ));
        };
        eprintln!(
            "{} timed ops in {:.2}s; tail = p{}; {} cold set-ups",
            ops.len(),
            outcome.window_s,
            outcome.tail * 100.0,
            outcome.setup_s.len()
        );
        metrics.push(("setup_s".into(), median(&outcome.setup_s), "s"));
        metrics.push(("op_p50_ms".into(), p50 * 1e3, "ms"));
        metrics.push(("op_tail_ms".into(), tail * 1e3, "ms"));
        metrics.push((
            "ops_per_s".into(),
            ops.len() as f64 / outcome.window_s,
            "1/s",
        ));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{name:?}:{{\"value\":{},\"unit\":{unit:?}}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        body.join(",")
    );
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
