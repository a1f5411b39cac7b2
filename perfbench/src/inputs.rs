//! Workload inputs. Everything here is a pure function of the workload
//! seed and runs before any clock starts: the program under test only
//! ever sees what these functions generate.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use spsel_features::{FeatureExtractor, FeatureVector};
use spsel_matrix::gen::{self, Family};
use spsel_matrix::{io, CooMatrix, CsrMatrix, SpMv};
use std::io::Write;
use std::path::Path;

/// Matrix Market files per `serve-mtx` run. Coprime with the GPU count,
/// so the rotation pairs every file with every GPU.
pub const MTX_FILES: usize = 100;
/// log10 range of matrix nnz on `serve-mtx` (and the feature pool).
pub const NNZ_LOG10: (f64, f64) = (3.0, 5.0);
/// Distinct matrices behind the `serve-features` feature vectors.
pub const FEATURE_POOL: usize = 128;
/// Selects per `serve-features` mixing block: 2 learning selects (each
/// followed by its feedback), 5 `spmm32` reads, 13 SpMV reads.
const BLOCK: [OpKind; 20] = {
    let mut b = [OpKind::Read; 20];
    b[0] = OpKind::Learn;
    b[1] = OpKind::Learn;
    b[2] = OpKind::ReadSpmm;
    b[3] = OpKind::ReadSpmm;
    b[4] = OpKind::ReadSpmm;
    b[5] = OpKind::ReadSpmm;
    b[6] = OpKind::ReadSpmm;
    b
};

/// Matrix Market header variant of a generated file (SuiteSparse ships
/// all three).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Header {
    /// `real general`, written by the library's own writer.
    General,
    /// `real symmetric`: the lower triangle, expanded again on read.
    Symmetric,
    /// `pattern general`: indices only.
    Pattern,
}

const HEADERS: [Header; 5] = [
    Header::General,
    Header::Symmetric,
    Header::General,
    Header::Pattern,
    Header::General,
];

const FAMILIES: [Family; 7] = [
    Family::RandomUniform,
    Family::PowerLaw,
    Family::Banded,
    Family::Stencil2D,
    Family::BlockDiagonal,
    Family::Bimodal,
    Family::MultiDiagonal,
];

/// One matrix to generate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixSpec {
    pub family: Family,
    pub header: Header,
    pub target_nnz: usize,
    pub seed: u64,
}

fn rng_for(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// `n` matrix specs whose nnz targets are stratified log-uniform over
/// `10^lo..10^hi`: the i-th target lies at a seeded point of the i-th of
/// `n` equal log-width strata. Sizes stay continuous (no gaps between
/// cost classes) and every seed covers the range evenly. The family and
/// header of a stratum are fixed (they rotate with the stratum index),
/// so the request-cost distribution — and with it the median and tail —
/// does not hinge on which seed drew a cheap or costly file where.
pub fn matrix_specs(seed: u64, n: usize, (lo, hi): (f64, f64)) -> Vec<MatrixSpec> {
    let mut rng = rng_for(seed, 1);
    (0..n)
        .map(|i| {
            let u: f64 = rng.gen();
            let exponent = lo + (hi - lo) * (i as f64 + u) / n as f64;
            MatrixSpec {
                family: FAMILIES[i % FAMILIES.len()],
                header: HEADERS[i % HEADERS.len()],
                target_nnz: 10f64.powf(exponent).round() as usize,
                seed: rng.gen(),
            }
        })
        .collect()
}

/// Generate a spec's matrix with the library's generator families. The
/// families' nnz only approximates what their parameters predict, so a
/// matrix more than 5% off its target is generated again with the
/// target rescaled by the miss (nnz is linear in it for every family),
/// up to three times; the closest attempt wins.
pub fn generate(spec: &MatrixSpec) -> CooMatrix {
    let target = spec.target_nnz as f64;
    let mut t = target;
    let mut best: Option<(f64, CooMatrix)> = None;
    for _ in 0..3 {
        let m = generate_sized(spec, t);
        let ratio = target / m.nnz().max(1) as f64;
        let off = ratio.ln().abs();
        if best.as_ref().is_none_or(|b| off < b.0) {
            best = Some((off, m));
        }
        if off <= 0.05 {
            break;
        }
        t *= ratio;
    }
    best.expect("at least one attempt").1
}

/// [`generate`] for an nnz target `t`, sizing each family's parameters
/// so its expected nnz meets it.
fn generate_sized(spec: &MatrixSpec, t: f64) -> CooMatrix {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let s: u64 = rng.gen();
    let dim = |per_row: f64, min: f64| (t / per_row).max(min) as usize;
    match spec.family {
        Family::RandomUniform => {
            let deg = rng.gen_range(4..=24usize);
            let n = dim(deg as f64, 64.0);
            gen::random_uniform(n, n, deg.min(n / 2), s)
        }
        Family::PowerLaw => {
            let min_deg = rng.gen_range(2..=4usize);
            let gamma = rng.gen_range(2.3..2.9);
            let n = dim(min_deg as f64 * (gamma - 1.0) / (gamma - 2.0), 64.0);
            gen::power_law(n, n, min_deg, gamma, (n / 8).clamp(8, 4000), s)
        }
        Family::Banded => {
            let bandwidth = rng.gen_range(2..=8usize);
            let fill = rng.gen_range(0.5..1.0);
            gen::banded(
                dim((2 * bandwidth + 1) as f64 * fill, 64.0),
                bandwidth,
                fill,
                s,
            )
        }
        Family::Stencil2D => gen::stencil2d(((t / 5.0).sqrt() as usize).max(4), s),
        Family::BlockDiagonal => {
            let block = rng.gen_range(8..=32usize);
            let fill = rng.gen_range(0.5..1.0);
            let nblocks = dim((block * block) as f64 * fill, 2.0);
            gen::block_diagonal(nblocks, block, fill, s)
        }
        Family::Bimodal => {
            let a = rng.gen_range(2..=6usize);
            let b = rng
                .gen_range(20..=60usize)
                .min(((t / 4.0).sqrt() as usize).max(8));
            let frac = rng.gen_range(0.1..0.3);
            let n = dim(a as f64 * (1.0 - frac) + b as f64 * frac, b as f64 + 1.0);
            gen::bimodal(n, n, a, b, frac, s)
        }
        _ => {
            let ndiags = rng.gen_range(3..=12usize);
            gen::multi_diagonal(dim(ndiags as f64, 64.0), ndiags, s)
        }
    }
}

/// Write `m` as a Matrix Market file with the given header variant.
pub fn write_mtx(m: &CooMatrix, header: Header, path: &Path) -> std::io::Result<()> {
    if header == Header::General {
        return io::write_matrix_market_file(m, path)
            .map_err(|e| std::io::Error::other(e.to_string()));
    }
    let lower: Vec<(usize, usize, f64)> = match header {
        Header::Symmetric => m.iter().filter(|&(r, c, _)| r >= c).collect(),
        _ => m.iter().collect(),
    };
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let kind = match header {
        Header::Symmetric => "real symmetric",
        _ => "pattern general",
    };
    writeln!(w, "%%MatrixMarket matrix coordinate {kind}")?;
    writeln!(w, "{} {} {}", m.nrows(), m.ncols(), lower.len())?;
    for (r, c, v) in lower {
        match header {
            Header::Symmetric => writeln!(w, "{} {} {:.17e}", r + 1, c + 1, v)?,
            _ => writeln!(w, "{} {}", r + 1, c + 1)?,
        }
    }
    w.flush()
}

/// Write the `serve-mtx` files into `dir` and return their paths,
/// smallest first.
pub fn write_mtx_files(seed: u64, dir: &Path) -> std::io::Result<Vec<String>> {
    std::fs::create_dir_all(dir)?;
    matrix_specs(seed, MTX_FILES, NNZ_LOG10)
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let path = dir.join(format!("m{i:03}.mtx"));
            write_mtx(&generate(spec), spec.header, &path)?;
            Ok(path.to_string_lossy().into_owned())
        })
        .collect()
}

/// The feature vectors `serve-features` sends: Table 1 features of
/// [`FEATURE_POOL`] generated matrices, plus their CSR forms for the
/// traced replay.
pub fn feature_pool(seed: u64) -> Vec<(CsrMatrix, FeatureVector)> {
    let mut extractor = FeatureExtractor::new();
    matrix_specs(seed ^ 0xfea7, FEATURE_POOL, NNZ_LOG10)
        .iter()
        .map(|spec| {
            let csr = CsrMatrix::from(&generate(spec));
            let fv = FeatureVector::from_stats(&extractor.stats(&csr));
            (csr, fv)
        })
        .collect()
}

/// What one `serve-features` op sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `learn: false` SpMV select.
    Read,
    /// `learn: false` select tagged `spmm32`.
    ReadSpmm,
    /// `learn: true` SpMV select; always followed by its feedback.
    Learn,
    /// Feedback for the preceding learning select.
    Feedback,
}

/// One `serve-features` op: a kind, a pool vector and a GPU index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureOp {
    pub kind: OpKind,
    pub vector: usize,
    pub gpu: usize,
}

/// The first `count` ops of the seed's `serve-features` sequence: blocks
/// of 20 selects in seeded order, with exactly the [`BLOCK`] mix per
/// block, each learning select followed by its feedback.
pub fn feature_ops(seed: u64, count: usize) -> Vec<FeatureOp> {
    let mut rng = rng_for(seed, 2);
    let mut ops = Vec::with_capacity(count + 1);
    while ops.len() < count {
        let mut block = BLOCK;
        block.shuffle(&mut rng);
        for kind in block {
            let op = FeatureOp {
                kind,
                vector: rng.gen_range(0..FEATURE_POOL),
                gpu: rng.gen_range(0..3),
            };
            ops.push(op);
            if kind == OpKind::Learn {
                ops.push(FeatureOp {
                    kind: OpKind::Feedback,
                    ..op
                });
            }
        }
    }
    // Never end on a learning select whose feedback was cut off.
    if ops[count - 1].kind == OpKind::Learn {
        ops.truncate(count + 1);
    } else {
        ops.truncate(count);
    }
    ops
}

/// Seeded permutation of `0..n` (the order `serve-mtx` visits files).
pub fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng_for(seed, 3));
    order
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn scratch(name: &str) -> std::path::PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.perfbench_runs")
            .join(format!("test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn read_all(paths: &[String]) -> Vec<Vec<u8>> {
        paths.iter().map(|p| std::fs::read(p).unwrap()).collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_files_and_other_seeds_differ() {
        let (a, b, c) = (scratch("a"), scratch("b"), scratch("c"));
        let fa = read_all(&write_mtx_files(7, &a).unwrap());
        let fb = read_all(&write_mtx_files(7, &b).unwrap());
        let fc = read_all(&write_mtx_files(8, &c).unwrap());
        assert_eq!(fa, fb);
        assert_ne!(fa, fc);
        // Every file parses, and the header mix is present.
        let text: Vec<String> = fa
            .iter()
            .map(|f| String::from_utf8_lossy(&f[..60]).into_owned())
            .collect();
        assert!(text.iter().any(|t| t.contains("symmetric")));
        assert!(text.iter().any(|t| t.contains("pattern")));
        for p in std::fs::read_dir(&a).unwrap() {
            io::read_matrix_market_file(p.unwrap().path()).unwrap();
        }
        for d in [a, b, c] {
            std::fs::remove_dir_all(d).unwrap();
        }
    }

    #[test]
    fn generated_nnz_lands_near_its_target() {
        for spec in matrix_specs(4, 30, (3.0, 4.0)) {
            let nnz = generate(&spec).nnz() as f64;
            let miss = nnz / spec.target_nnz as f64;
            assert!((0.85..1.15).contains(&miss), "{spec:?}: {nnz}");
        }
    }

    #[test]
    fn nnz_targets_cover_the_range_continuously() {
        let specs = matrix_specs(3, MTX_FILES, NNZ_LOG10);
        let logs: Vec<f64> = specs
            .iter()
            .map(|s| (s.target_nnz as f64).log10())
            .collect();
        assert!(logs.windows(2).all(|w| w[1] > w[0]));
        assert!(logs[0] < 3.03 && logs[MTX_FILES - 1] > 4.97);
        let gap = logs.windows(2).map(|w| w[1] - w[0]).fold(0.0, f64::max);
        assert!(gap < 0.05, "largest gap {gap}");
    }

    #[test]
    fn feature_sequences_are_seeded_and_keep_the_mix() {
        let a = feature_ops(11, 2200);
        assert_eq!(a, feature_ops(11, 2200));
        assert_ne!(a, feature_ops(12, 2200));
        let count = |k| a.iter().filter(|o| o.kind == k).count();
        assert_eq!(count(OpKind::Learn), 200);
        assert_eq!(count(OpKind::Feedback), 200);
        assert_eq!(count(OpKind::ReadSpmm), 500);
        for w in a.windows(2) {
            if w[0].kind == OpKind::Learn {
                assert_eq!(w[1].kind, OpKind::Feedback);
                assert_eq!((w[0].vector, w[0].gpu), (w[1].vector, w[1].gpu));
            }
        }
        let pool_a: Vec<FeatureVector> = feature_pool(5).into_iter().map(|p| p.1).collect();
        let pool_b: Vec<FeatureVector> = feature_pool(5).into_iter().map(|p| p.1).collect();
        let pool_c: Vec<FeatureVector> = feature_pool(6).into_iter().map(|p| p.1).collect();
        assert_eq!(pool_a, pool_b);
        assert_ne!(pool_a, pool_c);
    }
}
