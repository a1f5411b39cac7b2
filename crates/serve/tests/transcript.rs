//! The committed select transcript: every reply the daemon gives to a
//! fixed set of requests, byte for byte.
//!
//! Two small seeded artifacts are trained in-process with the cache
//! disabled, one over the default CUSP registry and one over
//! [`RegistryChoice::Extended`]. Each answers `learn: false` selects
//! through [`server::handle_line`] for every combination of GPU,
//! workload (`spmv`, `spmm4`, `spmm32`), iteration horizon (1 and 10^6)
//! and source:
//!
//! * Matrix Market files written here: the CI smoke matrix; `general`,
//!   `pattern` and `symmetric` headers with entries in row-major order
//!   (streamed into the extractor) and in column-major or shuffled order
//!   (the structure-reader fallback); a shape past the cap; a missing
//!   path;
//! * inline Table 1 vectors: corpus-like ones, a zero-nnz one, and one
//!   whose ELL slab does not fit on Pascal (a `null` predicted time).
//!
//! Then each artifact runs a short `learn: true` → `Feedback` →
//! re-select sequence. The transcript is compared with
//! `baselines/select-transcript.jsonl`; the temporary directory is
//! masked as `$DIR` in requests and replies. On a mismatch the test
//! names the first differing line and writes the whole actual
//! transcript next to the test binaries for inspection.

use spsel_core::cache::Cache;
use spsel_core::corpus::CorpusConfig;
use spsel_core::experiments::formatzoo::RegistryChoice;
use spsel_core::experiments::ExperimentContext;
use spsel_core::telemetry::RunReport;
use spsel_features::{FeatureVector, MatrixStats};
use spsel_matrix::{gen, CooMatrix, CsrMatrix};
use spsel_serve::artifact::{self, TrainConfig};
use spsel_serve::{server, Engine, EngineOptions};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

const BASELINE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../baselines/select-transcript.jsonl"
);
const GPUS: [&str; 3] = ["pascal", "volta", "turing"];
const WORKLOADS: [&str; 3] = ["spmv", "spmm4", "spmm32"];
const ITERATIONS: [usize; 2] = [1, 1_000_000];

/// Where a select's matrix comes from, and its name in the transcript.
enum Source {
    File(&'static str),
    Inline(&'static str, Vec<f64>),
}

impl Source {
    fn name(&self) -> &'static str {
        match self {
            Source::File(name) | Source::Inline(name, _) => name,
        }
    }
}

/// Write a coordinate file: one `row col [value]` line per entry, in
/// the order given (1-based on disk).
fn write_mtx(
    dir: &Path,
    name: &str,
    header: &str,
    shape: (usize, usize),
    entries: &[(usize, usize)],
) {
    let pattern = header.contains("pattern");
    let mut text = format!("%%MatrixMarket matrix coordinate {header}\n");
    text += &format!("{} {} {}\n", shape.0, shape.1, entries.len());
    for &(r, c) in entries {
        if pattern {
            text += &format!("{} {}\n", r + 1, c + 1);
        } else {
            text += &format!("{} {} {}.5\n", r + 1, c + 1, (r * 7 + c) % 10);
        }
    }
    std::fs::write(dir.join(format!("{name}.mtx")), text).expect("write matrix file");
}

fn positions(coo: &CooMatrix) -> Vec<(usize, usize)> {
    CsrMatrix::from(coo)
        .iter()
        .map(|(r, c, _)| (r, c))
        .collect()
}

fn column_major(entries: &[(usize, usize)]) -> Vec<(usize, usize)> {
    let mut out = entries.to_vec();
    out.sort_by_key(|&(r, c)| (c, r));
    out
}

/// The files of the transcript, in request order.
fn write_files(dir: &Path) -> Vec<Source> {
    std::fs::write(
        dir.join("smoke.mtx"),
        "%%MatrixMarket matrix coordinate real general\n4 4 5\n1 1 1.0\n2 2 2.0\n3 3 3.0\n4 4 4.0\n4 1 0.5\n",
    )
    .expect("write smoke matrix");
    let general = positions(&gen::power_law(90, 90, 2, 2.3, 40, 3));
    write_mtx(dir, "general-rows", "real general", (90, 90), &general);
    write_mtx(
        dir,
        "general-cols",
        "real general",
        (90, 90),
        &column_major(&general),
    );
    let pattern = positions(&gen::banded(70, 4, 0.7, 5));
    write_mtx(dir, "pattern-rows", "pattern general", (70, 70), &pattern);
    // A fixed shuffle: a stride coprime to the entry count.
    let stride = (1..)
        .map(|k| 7 * k + 3)
        .find(|s| gcd(*s, pattern.len()) == 1 && s % pattern.len() > 1)
        .unwrap();
    let shuffled: Vec<_> = (0..pattern.len())
        .map(|i| pattern[i * stride % pattern.len()])
        .collect();
    write_mtx(
        dir,
        "pattern-shuffled",
        "pattern general",
        (70, 70),
        &shuffled,
    );
    // The lower triangle of a symmetrized pattern.
    let lower: BTreeSet<(usize, usize)> = positions(&gen::random_uniform(60, 60, 4, 9))
        .into_iter()
        .map(|(r, c)| (r.max(c), r.min(c)))
        .collect();
    let lower: Vec<_> = lower.into_iter().collect();
    write_mtx(dir, "symmetric-rows", "real symmetric", (60, 60), &lower);
    write_mtx(
        dir,
        "symmetric-cols",
        "real symmetric",
        (60, 60),
        &column_major(&lower),
    );
    write_mtx(dir, "too-large", "real general", (1 << 24 | 1, 1), &[]);
    [
        "smoke",
        "general-rows",
        "general-cols",
        "pattern-rows",
        "pattern-shuffled",
        "symmetric-rows",
        "symmetric-cols",
        "too-large",
        "missing",
    ]
    .into_iter()
    .map(Source::File)
    .collect()
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn features_of(stats: &MatrixStats) -> Vec<f64> {
    FeatureVector::from_stats(stats).as_slice().to_vec()
}

fn csr_features(coo: &CooMatrix) -> Vec<f64> {
    features_of(&MatrixStats::from_csr(&CsrMatrix::from(coo)))
}

fn inline_vectors() -> Vec<Source> {
    // 2M rows of 100 with one of 200: a 400M-slot ELL slab, 4.8 GB,
    // past Pascal's memory budget and within Turing's.
    let mut counts = vec![100usize; 2_000_000];
    counts[0] = 200;
    vec![
        Source::Inline(
            "power-law",
            csr_features(&gen::power_law(150, 150, 2, 2.4, 60, 1)),
        ),
        Source::Inline("stencil", csr_features(&gen::stencil2d(12, 2))),
        Source::Inline(
            "row-skewed",
            csr_features(&gen::row_skewed(300, 300, 2, 90, 0.1, 4)),
        ),
        Source::Inline("zero-nnz", csr_features(&CooMatrix::zeros(16, 16))),
        Source::Inline(
            "ell-past-pascal",
            features_of(&MatrixStats::from_row_counts(2_000_000, 2_000_000, &counts)),
        ),
    ]
}

/// The `matrix`/`features` pair of a select body.
fn source_fields(dir: &Path, source: &Source) -> String {
    match source {
        Source::File(name) => format!(
            "\"matrix\":\"{}\",\"features\":null",
            dir.join(format!("{name}.mtx")).display()
        ),
        Source::Inline(_, values) => format!(
            "\"matrix\":null,\"features\":{}",
            serde_json::to_string(values).unwrap()
        ),
    }
}

/// Answers request lines and records each exchange, masked.
struct Recorder<'a> {
    engine: Engine,
    artifact: &'a str,
    dir: String,
    lines: Vec<String>,
}

impl Recorder<'_> {
    fn exchange(&mut self, source: &str, request: &str) -> spsel_serve::Response {
        let (response, _) = server::handle_line(&self.engine, request, Instant::now(), 0);
        let reply = serde_json::to_string(&response).expect("response serializes");
        self.lines.push(format!(
            "{{\"artifact\":\"{}\",\"source\":\"{source}\",\"request\":{},\"response\":{}}}",
            self.artifact,
            request.replace(&self.dir, "$DIR"),
            reply.replace(&self.dir, "$DIR")
        ));
        response
    }
}

fn select_line(
    fields: &str,
    gpu: &str,
    workload: &str,
    iterations: Option<usize>,
    learn: bool,
) -> String {
    let iterations = iterations.map_or("null".to_string(), |n| n.to_string());
    format!(
        "{{\"Select\":{{{fields},\"gpu\":\"{gpu}\",\"iterations\":{iterations},\
         \"deadline_ms\":null,\"learn\":{learn},\"workload\":\"{workload}\"}}}}"
    )
}

fn record(artifact: &str, registry: RegistryChoice, dir: &Path, sources: &[Source]) -> Vec<String> {
    let cache = Cache::disabled();
    let mut report = RunReport::new("select-transcript");
    let ctx = ExperimentContext::build(CorpusConfig::small(30, 17), &cache, &mut report);
    let model = artifact::train(
        &ctx,
        &TrainConfig {
            registry,
            ..TrainConfig::default()
        },
    )
    .expect("training succeeds");
    let mut rec = Recorder {
        engine: Engine::from_artifact(&model, &EngineOptions::default()).expect("engine"),
        artifact,
        dir: dir.display().to_string(),
        lines: Vec::new(),
    };
    for source in sources {
        let fields = source_fields(dir, source);
        for gpu in GPUS {
            for workload in WORKLOADS {
                for n in ITERATIONS {
                    let line = select_line(&fields, gpu, workload, Some(n), false);
                    rec.exchange(source.name(), &line);
                }
            }
        }
    }

    // Learn a novel matrix and a file, label the novel one's cluster,
    // and decide again: the label must reach both workloads.
    let novel = Source::Inline(
        "bimodal",
        csr_features(&gen::bimodal(1500, 1500, 3, 40, 0.3, 9)),
    );
    let novel = source_fields(dir, &novel);
    let learned = rec.exchange(
        "bimodal",
        &select_line(&novel, "pascal", "spmv", None, true),
    );
    let cluster = learned.select.expect("select reply").cluster;
    let smoke = source_fields(dir, &Source::File("smoke"));
    rec.exchange(
        "smoke",
        &select_line(&smoke, "volta", "spmv", Some(500), true),
    );
    let feedback =
        format!("{{\"Feedback\":{{\"gpu\":\"pascal\",\"cluster\":{cluster},\"best\":\"ELL\"}}}}");
    rec.exchange("feedback", &feedback);
    for workload in WORKLOADS {
        rec.exchange(
            "bimodal",
            &select_line(&novel, "pascal", workload, None, false),
        );
    }
    rec.exchange(
        "smoke",
        &select_line(&smoke, "volta", "spmv", Some(500), false),
    );
    rec.lines
}

#[test]
fn select_replies_match_the_committed_transcript() {
    let dir: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join("select-transcript");
    std::fs::create_dir_all(&dir).expect("create the file directory");
    let mut sources = write_files(&dir);
    sources.extend(inline_vectors());

    let mut actual = record("cusp", RegistryChoice::CuspDefault, &dir, &sources);
    actual.extend(record("extended", RegistryChoice::Extended, &dir, &sources));
    let actual = actual.join("\n") + "\n";

    let expected = std::fs::read_to_string(BASELINE).unwrap_or_default();
    if actual != expected {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("select-transcript.jsonl");
        std::fs::write(&out, &actual).expect("write the actual transcript");
        let (want, got): (Vec<&str>, Vec<&str>) =
            (expected.lines().collect(), actual.lines().collect());
        let line = (0..want.len().max(got.len()))
            .find(|&i| want.get(i) != got.get(i))
            .unwrap_or(want.len());
        panic!(
            "select transcript differs from {BASELINE} at line {}\n  expected: {}\n  actual:   {}\n\
             (the whole actual transcript is in {})",
            line + 1,
            want.get(line).unwrap_or(&"<end of file>"),
            got.get(line).unwrap_or(&"<end of file>"),
            out.display()
        );
    }
}
