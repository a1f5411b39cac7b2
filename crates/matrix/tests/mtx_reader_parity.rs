//! Differential suite for the Matrix Market reader.
//!
//! [`reference`] is the line-at-a-time reader `io::read_matrix_market`
//! replaced: `BufRead::lines`, `str::trim`, `str::split_whitespace` and
//! `str::parse` per field, then the sort and validation the old
//! `CooMatrix::from_triplets` did. It is kept here, and only here, as the
//! oracle. Its one change is the
//! `u32` dimension check both readers now make. For every input the
//! one-pass reader must give the same matrix (value bits included) or
//! the same error (variant, message, line), and the structure reader
//! `io::read_matrix_market_structure` the same positions with every
//! value 1.0, or the same error. The structure stream
//! `io::stream_matrix_market` must hand a sink those positions, each
//! exactly once, or fall back to the structure reader's matrix, or give
//! the same error.

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng, StdRng};
use spsel_matrix::io::{StructureRead, StructureSink};
use spsel_matrix::{gen, io, CooMatrix, MatrixError, SpMv};
use std::io::{BufRead, BufReader, Read};

type Result<T> = std::result::Result<T, MatrixError>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ValueKind {
    Real,
    Integer,
    Pattern,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
    SkewSymmetric,
}

/// The reference reader.
fn reference<R: Read>(reader: R) -> Result<CooMatrix> {
    let mut lines = BufReader::new(reader).lines().enumerate();

    // Header line.
    let (lineno, header) = loop {
        match lines.next() {
            Some((i, line)) => {
                let line = line?;
                if !line.trim().is_empty() {
                    break (i + 1, line);
                }
            }
            None => {
                return Err(MatrixError::Parse {
                    line: 0,
                    msg: "empty file".into(),
                })
            }
        }
    };
    let toks: Vec<String> = header
        .split_whitespace()
        .map(|t| t.to_lowercase())
        .collect();
    if toks.len() < 5 || toks[0] != "%%matrixmarket" || toks[1] != "matrix" {
        return Err(MatrixError::Parse {
            line: lineno,
            msg: format!("bad header `{header}`"),
        });
    }
    if toks[2] != "coordinate" {
        return Err(MatrixError::Parse {
            line: lineno,
            msg: format!("unsupported storage `{}` (only coordinate)", toks[2]),
        });
    }
    let kind = match toks[3].as_str() {
        "real" => ValueKind::Real,
        "integer" => ValueKind::Integer,
        "pattern" => ValueKind::Pattern,
        other => {
            return Err(MatrixError::Parse {
                line: lineno,
                msg: format!("unsupported value type `{other}`"),
            })
        }
    };
    let symmetry = match toks[4].as_str() {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        "skew-symmetric" => Symmetry::SkewSymmetric,
        other => {
            return Err(MatrixError::Parse {
                line: lineno,
                msg: format!("unsupported symmetry `{other}`"),
            })
        }
    };

    // Size line (skipping comments).
    let (lineno, size_line) = loop {
        match lines.next() {
            Some((i, line)) => {
                let line = line?;
                let t = line.trim();
                if !t.is_empty() && !t.starts_with('%') {
                    break (i + 1, line);
                }
            }
            None => {
                return Err(MatrixError::Parse {
                    line: 0,
                    msg: "missing size line".into(),
                })
            }
        }
    };
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| t.parse::<usize>())
        .collect::<std::result::Result<_, _>>()
        .map_err(|e| MatrixError::Parse {
            line: lineno,
            msg: format!("bad size line: {e}"),
        })?;
    if dims.len() != 3 {
        return Err(MatrixError::Parse {
            line: lineno,
            msg: "size line must have 3 fields".into(),
        });
    }
    let (nrows, ncols, declared_nnz) = (dims[0], dims[1], dims[2]);
    let dense = nrows.checked_mul(ncols).ok_or_else(|| MatrixError::Parse {
        line: lineno,
        msg: format!("dimension overflow: {nrows} x {ncols}"),
    })?;
    // The one addition to the replaced reader.
    if nrows > u32::MAX as usize || ncols > u32::MAX as usize {
        return Err(MatrixError::Parse {
            line: lineno,
            msg: format!("dimensions {nrows} x {ncols} exceed the u32 index range"),
        });
    }
    if declared_nnz > dense {
        return Err(MatrixError::Parse {
            line: lineno,
            msg: format!("declared {declared_nnz} entries exceed {nrows} x {ncols} capacity"),
        });
    }

    const PREALLOC_CAP: usize = 1 << 20;
    let mut triplets: Vec<(usize, usize, f64)> = Vec::with_capacity(declared_nnz.min(PREALLOC_CAP));
    let mut seen = 0usize;
    for (i, line) in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut fields = t.split_whitespace();
        let parse_idx = |f: Option<&str>, lineno: usize| -> Result<usize> {
            f.ok_or_else(|| MatrixError::Parse {
                line: lineno,
                msg: "missing index".into(),
            })?
            .parse::<usize>()
            .map_err(|e| MatrixError::Parse {
                line: lineno,
                msg: format!("bad index: {e}"),
            })
        };
        let r = parse_idx(fields.next(), i + 1)?;
        let c = parse_idx(fields.next(), i + 1)?;
        if r == 0 || c == 0 {
            return Err(MatrixError::Parse {
                line: i + 1,
                msg: "indices are 1-based".into(),
            });
        }
        let v = match kind {
            ValueKind::Pattern => 1.0,
            _ => fields
                .next()
                .ok_or_else(|| MatrixError::Parse {
                    line: i + 1,
                    msg: "missing value".into(),
                })?
                .parse::<f64>()
                .map_err(|e| MatrixError::Parse {
                    line: i + 1,
                    msg: format!("bad value: {e}"),
                })?,
        };
        if !v.is_finite() {
            return Err(MatrixError::Parse {
                line: i + 1,
                msg: format!("non-finite value `{v}`"),
            });
        }
        let (r, c) = (r - 1, c - 1);
        triplets.push((r, c, v));
        match symmetry {
            Symmetry::General => {}
            Symmetry::Symmetric => {
                if r != c {
                    triplets.push((c, r, v));
                }
            }
            Symmetry::SkewSymmetric => {
                if r != c {
                    triplets.push((c, r, -v));
                }
            }
        }
        seen += 1;
    }
    if seen != declared_nnz {
        return Err(MatrixError::Parse {
            line: 0,
            msg: format!("declared {declared_nnz} entries, found {seen}"),
        });
    }
    // The replaced `CooMatrix::from_triplets`: bounds in file order, then
    // a row-major sort and the first duplicate in sorted order. The sorted,
    // validated triplets then go through the public constructor unchanged.
    for &(r, c, _) in &triplets {
        if r >= nrows || c >= ncols {
            return Err(MatrixError::IndexOutOfBounds {
                row: r,
                col: c,
                nrows,
                ncols,
            });
        }
    }
    triplets.sort_unstable_by_key(|a| (a.0, a.1));
    for w in triplets.windows(2) {
        if w[0].0 == w[1].0 && w[0].1 == w[1].1 {
            return Err(MatrixError::DuplicateEntry {
                row: w[0].0,
                col: w[0].1,
            });
        }
    }
    CooMatrix::from_triplets(nrows, ncols, &triplets)
}

/// Which way the two readers agreed on one input.
#[derive(Debug, PartialEq, Eq)]
enum Agreement {
    SameMatrix,
    SameError,
}

/// A sink that keeps the shape and every position it is handed.
#[derive(Debug, Default)]
struct Collecting {
    shape: Option<(usize, usize)>,
    positions: Vec<(u32, u32)>,
}

impl StructureSink for Collecting {
    fn begin(&mut self, nrows: usize, ncols: usize) -> bool {
        self.shape = Some((nrows, ncols));
        self.positions.clear();
        true
    }

    fn position(&mut self, row: usize, col: usize) {
        self.positions.push((row as u32, col as u32));
    }
}

/// The structure stream's outcome on `bytes`: its positions (sorted) on
/// the streamed path, its matrix on the fallback, or its error.
fn stream(bytes: &[u8]) -> Result<std::result::Result<Collecting, CooMatrix>> {
    let mut sink = Collecting::default();
    Ok(match io::stream_matrix_market(bytes, &mut sink)? {
        StructureRead::Streamed => {
            sink.positions.sort_unstable();
            Ok(sink)
        }
        StructureRead::Collected(m) => Err(m),
    })
}

/// Whether the structure stream takes the streamed path on `bytes`, a
/// file that reads to a matrix, after [`check`] has held all four
/// readers to the reference.
fn streams(bytes: &[u8]) -> bool {
    assert_eq!(check(bytes), Agreement::SameMatrix);
    matches!(stream(bytes), Ok(Ok(_)))
}

/// Run the four readers on `bytes`; panic with the input on any
/// difference.
fn check(bytes: &[u8]) -> Agreement {
    let want = reference(bytes);
    let got = io::read_matrix_market(bytes);
    let structure = io::read_matrix_market_structure(bytes);
    let streamed = stream(bytes);
    let input = || String::from_utf8_lossy(bytes).into_owned();
    let bits = |m: &CooMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let agreement = match (&want, &got) {
        (Ok(w), Ok(g)) => {
            assert!(
                w == g && bits(w) == bits(g),
                "matrices differ on {:?}:\nreference {w:?}\none-pass  {g:?}",
                input()
            );
            Agreement::SameMatrix
        }
        (Err(w), Err(g)) => {
            assert_eq!(w, g, "errors differ on {:?}", input());
            Agreement::SameError
        }
        _ => panic!(
            "readers disagree on {:?}:\nreference {want:?}\none-pass  {got:?}",
            input()
        ),
    };
    match (&want, &structure) {
        (Ok(w), Ok(s)) => {
            let ones = vec![1f64.to_bits(); w.nnz()];
            assert!(
                (w.nrows(), w.ncols()) == (s.nrows(), s.ncols())
                    && w.row_indices() == s.row_indices()
                    && w.col_indices() == s.col_indices()
                    && bits(s) == ones,
                "structure differs on {:?}:\nreference {w:?}\nstructure {s:?}",
                input()
            );
        }
        (Err(w), Err(s)) => assert_eq!(w, s, "structure error differs on {:?}", input()),
        _ => panic!(
            "structure reader disagrees on {:?}:\nreference {want:?}\nstructure {structure:?}",
            input()
        ),
    }
    match (&structure, &streamed) {
        // Sorted, the positions are the matrix's exactly when each came
        // once: a repeat would leave the list longer.
        (Ok(s), Ok(Ok(sink))) => {
            let positions: Vec<(u32, u32)> = s
                .row_indices()
                .iter()
                .copied()
                .zip(s.col_indices().iter().copied())
                .collect();
            assert!(
                sink.shape == Some((s.nrows(), s.ncols())) && sink.positions == positions,
                "streamed positions differ on {:?}:\nstructure {s:?}\nstreamed  {sink:?}",
                input()
            );
        }
        (Ok(s), Ok(Err(m))) => assert_eq!(s, m, "fallback differs on {:?}", input()),
        (Err(s), Err(g)) => assert_eq!(s, g, "stream error differs on {:?}", input()),
        _ => panic!(
            "structure stream disagrees on {:?}:\nstructure {structure:?}\nstream    {streamed:?}",
            input()
        ),
    }
    agreement
}

const KINDS: [&str; 3] = ["real", "integer", "pattern"];
const SYMMETRIES: [&str; 3] = ["general", "symmetric", "skew-symmetric"];

#[derive(Debug, Clone, Copy)]
enum Order {
    RowMajor,
    ColMajor,
    Shuffled,
}

/// One seeded, well-formed-ish Matrix Market text: a random kind,
/// symmetry, shape and entry order, written with a random mix of line
/// endings, separators, comments, blank lines, trailing fields and index
/// spellings. A few cases get a wrong declared count or stray entries.
fn generate(rng: &mut StdRng) -> Vec<u8> {
    let kind = KINDS[rng.gen_range(0..3usize)];
    let symmetry = SYMMETRIES[rng.gen_range(0..3usize)];
    let square = rng.gen_bool(0.6);
    let nrows = rng.gen_range(1..=9usize);
    let ncols = if square {
        nrows
    } else {
        rng.gen_range(1..=9usize)
    };
    let mirrored = symmetry != "general";

    // Distinct positions; symmetric files store the lower triangle, with
    // an occasional upper entry that may collide after expansion.
    let mut positions = Vec::new();
    for r in 0..nrows {
        for c in 0..ncols {
            let stored = !mirrored || r >= c || rng.gen_bool(0.03);
            if stored && rng.gen_bool(0.35) {
                positions.push((r, c));
            }
        }
    }
    match [Order::RowMajor, Order::ColMajor, Order::Shuffled][rng.gen_range(0..3usize)] {
        Order::RowMajor => {}
        Order::ColMajor => positions.sort_by_key(|&(r, c)| (c, r)),
        Order::Shuffled => positions.shuffle(rng),
    }
    if rng.gen_bool(0.03) && !positions.is_empty() {
        // A repeated stored entry.
        let p = positions[rng.gen_range(0..positions.len())];
        positions.push(p);
    }
    if rng.gen_bool(0.03) {
        // An entry past the declared shape.
        positions.push((
            nrows + rng.gen_range(0..2usize),
            rng.gen_range(0..ncols + 1),
        ));
    }

    let crlf = rng.gen_bool(0.3);
    let eol = if crlf { "\r\n" } else { "\n" };
    let seps = [" ", " ", "\t", "  ", " \t "];
    let sep = |rng: &mut StdRng| seps[rng.gen_range(0..seps.len())];
    let mut out = String::new();
    if rng.gen_bool(0.05) {
        out.push_str(eol);
    }
    let header_kind = if rng.gen_bool(0.2) {
        kind.to_uppercase()
    } else {
        kind.to_string()
    };
    let banner = if rng.gen_bool(0.2) {
        "%%matrixmarket"
    } else {
        "%%MatrixMarket"
    };
    out.push_str(&format!(
        "{banner} matrix coordinate {header_kind} {symmetry}{eol}"
    ));
    for _ in 0..rng.gen_range(0..3usize) {
        out.push_str(&format!("% comment {}{eol}", rng.gen_range(0..1000u32)));
    }
    let declared = match rng.gen_range(0..40u32) {
        0 => positions.len() + 1,
        1 => positions.len().saturating_sub(1),
        _ => positions.len(),
    };
    out.push_str(&format!(
        "{nrows}{}{ncols}{}{declared}{eol}",
        sep(rng),
        sep(rng)
    ));
    for (i, &(r, c)) in positions.iter().enumerate() {
        if rng.gen_bool(0.05) {
            out.push_str(if rng.gen_bool(0.5) {
                "% mid comment"
            } else {
                "  "
            });
            out.push_str(eol);
        }
        if rng.gen_bool(0.05) {
            out.push(' ');
        }
        let index = |rng: &mut StdRng, i: usize| match rng.gen_range(0..30u32) {
            0 => format!("+{}", i + 1),
            1 => format!("0{}", i + 1),
            _ => (i + 1).to_string(),
        };
        out.push_str(&index(rng, r));
        out.push_str(sep(rng));
        out.push_str(&index(rng, c));
        if kind != "pattern" {
            out.push_str(sep(rng));
            let v = match rng.gen_range(0..8u32) {
                0 => format!("{}", rng.gen_range(-9..10i32)),
                1 => format!("{:e}", rng.gen_range(-1e6..1e6f64)),
                2 => format!(".{}", rng.gen_range(0..100u32)),
                3 => "-0".to_string(),
                _ => format!("{:.17e}", rng.gen_range(-10.0..10.0f64)),
            };
            out.push_str(&v);
        }
        if rng.gen_bool(0.05) {
            out.push_str(&format!("{}extra", sep(rng)));
        }
        if rng.gen_bool(0.03) {
            out.push(' ');
        }
        let last = i + 1 == positions.len();
        if !(last && rng.gen_bool(0.2)) {
            out.push_str(eol);
        }
    }
    if rng.gen_bool(0.05) {
        out.push_str(&format!("% trailing comment{eol}{eol}"));
    }
    out.into_bytes()
}

/// Bytes a mutation may write: ASCII structure, Unicode whitespace
/// pieces, and bytes that are never valid UTF-8.
const MUTANT_BYTES: &[u8] = &[
    b'0', b'1', b'9', b' ', b'\t', b'\n', b'\r', 0x0B, 0x0C, b'%', b'+', b'-', b'.', b'e', b'x',
    0x80, 0xC2, 0xA0, 0x85, 0xE2, 0xFF, 0xC0,
];

/// Apply one to three random byte mutations.
fn mutate(rng: &mut StdRng, mut bytes: Vec<u8>) -> Vec<u8> {
    for _ in 0..rng.gen_range(1..=3usize) {
        let b = MUTANT_BYTES[rng.gen_range(0..MUTANT_BYTES.len())];
        let at = rng.gen_range(0..=bytes.len());
        match rng.gen_range(0..3u32) {
            0 if at < bytes.len() => bytes[at] = b,
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, b),
        }
    }
    bytes
}

/// Put an invalid UTF-8 byte inside a comment line (or append one).
fn poison_comment(rng: &mut StdRng, bytes: Vec<u8>) -> Vec<u8> {
    let text = bytes;
    let comment_starts: Vec<usize> = text
        .windows(2)
        .enumerate()
        .filter(|(_, w)| w[0] == b'\n' && w[1] == b'%')
        .map(|(i, _)| i + 2)
        .collect();
    let bad = [0xFFu8, 0x80, 0xC2][rng.gen_range(0..3usize)];
    let mut out = text;
    match comment_starts.len() {
        0 => out.extend_from_slice(&[b'%', b' ', bad, b'\n']),
        n => {
            let at = comment_starts[rng.gen_range(0..n)];
            out.insert(at, bad);
        }
    }
    out
}

#[test]
fn seeded_inputs_and_mutations_read_identically() {
    let mut rng = StdRng::seed_from_u64(0x6d74_785f_7061_7269);
    let (mut matrices, mut errors, mut streamed) = (0usize, 0usize, 0usize);
    for case in 0..30_000u32 {
        let text = generate(&mut rng);
        let input = match case % 4 {
            0 | 1 => text,
            2 => mutate(&mut rng, text),
            _ => poison_comment(&mut rng, text),
        };
        match check(&input) {
            Agreement::SameMatrix => matrices += 1,
            Agreement::SameError => errors += 1,
        }
        streamed += usize::from(matches!(stream(&input), Ok(Ok(_))));
    }
    // Every outcome must be well exercised, or the suite proves little.
    assert!(matrices > 5_000, "only {matrices} inputs parsed");
    assert!(errors > 5_000, "only {errors} inputs failed");
    assert!(streamed > 2_000, "only {streamed} inputs streamed");
    assert!(
        matrices - streamed > 2_000,
        "only {} inputs fell back",
        matrices - streamed
    );
    eprintln!("{matrices} identical matrices ({streamed} streamed), {errors} identical errors");
}

/// `entries` as a Matrix Market file with the given header, in the
/// order given.
fn render(kind: &str, symmetry: &str, m: &CooMatrix, entries: &[(usize, usize, f64)]) -> String {
    let mut text = format!(
        "%%MatrixMarket matrix coordinate {kind} {symmetry}\n{} {} {}\n",
        m.nrows(),
        m.ncols(),
        entries.len()
    );
    for &(r, c, v) in entries {
        match kind {
            "pattern" => text.push_str(&format!("{} {}\n", r + 1, c + 1)),
            "integer" => text.push_str(&format!("{} {} {}\n", r + 1, c + 1, v.round())),
            _ => text.push_str(&format!("{} {} {:.17e}\n", r + 1, c + 1, v)),
        }
    }
    text
}

/// `m`'s entries in `order`: all of them for a `general` file, the lower
/// triangle for a mirrored one.
fn ordered(m: &CooMatrix, symmetry: &str, order: Order, seed: u64) -> Vec<(usize, usize, f64)> {
    let mut entries: Vec<(usize, usize, f64)> = m
        .iter()
        .filter(|&(r, c, _)| symmetry == "general" || r >= c)
        .collect();
    match order {
        Order::RowMajor => {}
        Order::ColMajor => entries.sort_by_key(|&(r, c, _)| (c, r)),
        Order::Shuffled => entries.shuffle(&mut StdRng::seed_from_u64(seed)),
    }
    entries
}

/// Every reader agrees with the reference on every kind, symmetry and
/// order, and the order picks the stream's path. Row-major `general` and
/// `pattern` files and lower-triangle mirrored files stream.
/// Column-major and shuffled files, upper-triangle mirrored files, and a
/// row-major file whose last two entries are swapped, so that the order
/// proof fails only at the last entry, fall back to the structure reader.
#[test]
fn every_kind_symmetry_and_order_reads_identically_on_generated_matrices() {
    for (seed, m) in [
        gen::random_uniform(40, 40, 5, 1),
        gen::power_law(60, 60, 2, 2.1, 20, 2),
        gen::banded(50, 3, 0.7, 3),
        gen::random_uniform(30, 45, 4, 4),
    ]
    .iter()
    .enumerate()
    {
        for kind in KINDS {
            for symmetry in SYMMETRIES {
                for order in [Order::RowMajor, Order::ColMajor, Order::Shuffled] {
                    let entries = ordered(m, symmetry, order, seed as u64);
                    assert_eq!(
                        streams(render(kind, symmetry, m, &entries).as_bytes()),
                        matches!(order, Order::RowMajor),
                        "{kind} {symmetry} {order:?}, matrix {seed}"
                    );
                }
                let mut entries = ordered(m, symmetry, Order::RowMajor, 0);
                if symmetry == "general" {
                    let n = entries.len();
                    entries.swap(n - 2, n - 1);
                } else {
                    entries = m
                        .iter()
                        .filter(|&(r, c, _)| r <= c && c < m.nrows())
                        .collect();
                }
                assert!(
                    !streams(render(kind, symmetry, m, &entries).as_bytes()),
                    "{kind} {symmetry} swapped or upper, matrix {seed}"
                );
            }
        }
    }
}

#[test]
fn invalid_utf8_fails_only_when_its_line_is_reached() {
    let head = "%%MatrixMarket matrix coordinate real general\n2 2 1\n";
    // Inside a comment, and inside an ignored trailing field.
    for body in [
        b"% caf\xE9\n1 1 1.0\n".as_slice(),
        b"1 1 1.0 trailing\xFF\n",
        b"1 1 1.0\n% tail \xC0\n",
        b"1 1 1.0\n\xFF",
    ] {
        let input = [head.as_bytes(), body].concat();
        assert_eq!(check(&input), Agreement::SameError);
        let err = io::read_matrix_market(input.as_slice()).unwrap_err();
        assert_eq!(
            err,
            MatrixError::Io("stream did not contain valid UTF-8".into())
        );
    }
    // An earlier parse error still wins over a later invalid line.
    let input = [head.as_bytes(), b"1 x 1.0\n% \xFF\n"].concat();
    assert_eq!(check(&input), Agreement::SameError);
    assert!(matches!(
        io::read_matrix_market(input.as_slice()),
        Err(MatrixError::Parse { line: 3, .. })
    ));
    // On the header line itself.
    assert_eq!(check(b"%%Matrix\xFFMarket\n"), Agreement::SameError);
}

#[test]
fn errors_keep_their_order_and_mirrored_entries_are_bounds_checked() {
    let cases: &[&str] = &[
        // Parse error after an out-of-bounds entry: the parse error wins.
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n3 1 1.0\n1 x 1.0\n",
        // Count mismatch beats an earlier out-of-bounds entry.
        "%%MatrixMarket matrix coordinate real general\n2 2 3\n3 1 1.0\n1 1 1.0\n",
        // Out-of-bounds beats a duplicate.
        "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n1 1 2.0\n3 3 1.0\n",
        // The smallest duplicated position is reported.
        "%%MatrixMarket matrix coordinate real general\n3 3 4\n3 3 1\n3 3 1\n2 2 1\n2 2 1\n",
        // Non-square symmetric: the mirror of (1, 3) is (3, 1), outside 2x3.
        "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 3 1.0\n",
        "%%MatrixMarket matrix coordinate pattern skew-symmetric\n3 2 1\n3 1\n",
    ];
    for text in cases {
        assert_eq!(check(text.as_bytes()), Agreement::SameError, "{text}");
    }
    let err = io::read_matrix_market(cases[4].as_bytes()).unwrap_err();
    assert_eq!(
        err,
        MatrixError::IndexOutOfBounds {
            row: 2,
            col: 0,
            nrows: 2,
            ncols: 3
        }
    );
    let err = io::read_matrix_market(cases[3].as_bytes()).unwrap_err();
    assert_eq!(err, MatrixError::DuplicateEntry { row: 1, col: 1 });
}

#[test]
fn unusual_spellings_read_identically() {
    let cases: &[&[u8]] = &[
        // Unicode whitespace splits fields and trims lines, as in std.
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1\u{a0}2\u{2003}3.5\n".as_bytes(),
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n\u{85}% comment\n2 2 1\n".as_bytes(),
        b"%%MatrixMarket matrix coordinate real general\n2 2 1\n1\x0B1\x0C1\n",
        b"%%MatrixMarket matrix coordinate real general\n2 2 1\n1\x1F1 1\n",
        // The Kelvin sign lowercases to an ASCII `k`.
        "%%MatrixMar\u{212A}et matrix coordinate real general\n1 1 1\n1 1 1\n".as_bytes(),
        // A lone `\r` at the end of a header without a newline is kept.
        b"%%MatrixMarket matrix array real general\r",
        b"%%NotMM\r\r\n",
        // Index spellings: `+`, leading zeros, signs, overflow.
        b"%%MatrixMarket matrix coordinate real general\n2 2 1\n+1 002 1\n",
        b"%%MatrixMarket matrix coordinate real general\n2 2 1\n++1 2 1\n",
        b"%%MatrixMarket matrix coordinate real general\n2 2 1\n+ 2 1\n",
        b"%%MatrixMarket matrix coordinate real general\n2 2 1\n-1 2 1\n",
        b"%%MatrixMarket matrix coordinate real general\n2 2 1\n99999999999999999999999 2 1\n",
        b"%%MatrixMarket matrix coordinate real general\n2 2 1\n99999999999999999999x 2 1\n",
        b"%%MatrixMarket matrix coordinate real general\n2 2 1\n0 2 1\n",
        b"%%MatrixMarket matrix coordinate real general\n2 2 1\n2\n",
        b"%%MatrixMarket matrix coordinate real general\n2 2 1\n2 2\n",
        b"%%MatrixMarket matrix coordinate real general\n2 2 1\n2 2 1e999\n",
        b"%%MatrixMarket matrix coordinate real general\n2 2 1\n2 2 nan\n",
        b"%%MatrixMarket matrix coordinate real general\n2 2 1\n2 2 1.0.0\n",
        b"%%MatrixMarket matrix coordinate integer skew-symmetric\n2 2 1\n2 1 -0\n",
        // Size-line shapes.
        b"%%MatrixMarket matrix coordinate real general\n2 2\n",
        b"%%MatrixMarket matrix coordinate real general\n2 2 1 1\n",
        b"%%MatrixMarket matrix coordinate real general\n2 -2 1\n",
        b"%%MatrixMarket matrix coordinate real general\n5000000000 1 1\n5000000000 1 1.0\n",
        b"%%MatrixMarket matrix coordinate real general\n4294967295 1 1\n4294967295 1 1.0\n",
        b"",
        b"\n \n\t\n",
        b"%%MatrixMarket matrix coordinate real general\n% only comments\n",
    ];
    for text in cases {
        check(text);
    }
}

/// Value spellings at and past the edges of what the structure reader
/// proves finite without converting: the exponent bounds, 20- and
/// 21-digit integer parts, signs, `inf` / `infinity` / `nan` in any case,
/// truncated tokens, and zero-padded or overlong exponents.
const EDGE_VALUES: &[&str] = &[
    "1e279",
    "1e280",
    "1e281",
    "1e308",
    "1e309",
    "-1e280",
    "1e-280",
    "1e-281",
    "2e-400",
    "1.7976931348623157e308",
    "99999999999999999999",
    "99999999999999999999e280",
    "99999999999999999999.5e280",
    "100000000000000000000",
    "000000000000000000001",
    "100000000000000000000e-100",
    "+1",
    "-0",
    "+0.0",
    "+.5",
    "-.5e-3",
    "1.",
    "1.e5",
    ".",
    "-.",
    ".e1",
    "1e",
    "1e+",
    "e5",
    "+",
    "-",
    "++1",
    "+-1",
    "1e0000000000000000000000280",
    "1e0000000000000000000000281",
    "1E+0005",
    "1e-00000000000000000000000000000009",
    "1e99999999999999999999999",
    "inf",
    "-INF",
    "+Infinity",
    "infinity",
    "iNfInItY",
    "nan",
    "NaN",
    "-nan",
    "infx",
    "1.0.0",
    "1e5.0",
    "0x10",
    "1_000",
    "1,5",
    "1d5",
];

#[test]
fn value_edge_spellings_read_identically() {
    for value in EDGE_VALUES {
        for header in ["real general", "integer skew-symmetric", "real symmetric"] {
            let text =
                format!("%%MatrixMarket matrix coordinate {header}\n3 3 2\n1 1 2.5\n3 1 {value}\n");
            // Scanned in place; with CRLF and tabs; and, through a
            // non-breaking space, on the general path.
            check(text.as_bytes());
            check(
                text.replace('\n', "\r\n")
                    .replace("3 1 ", "3\t 1\t")
                    .as_bytes(),
            );
            check(text.replace("3 1 ", "3 1\u{a0}").as_bytes());
        }
    }
}

/// Whenever the byte check says a token is finite, std must parse it to
/// a finite value. Tokens are built near the check's bounds (integer
/// parts of up to 32 digits, exponents around 280 and 308, zero padding,
/// signs) with an occasional stray character, plus tokens of random
/// bytes from the float alphabet.
#[test]
fn proves_finite_implies_std_parses_a_finite_value() {
    let mut rng = StdRng::seed_from_u64(0x6669_6e69_7465);
    let digits = |rng: &mut StdRng, n: usize| -> String {
        (0..n)
            .map(|_| char::from(b'0' + rng.gen_range(0..10u8)))
            .collect()
    };
    let signs = ["", "", "+", "-", "--", "+-"];
    let (mut proven, mut fallback_finite) = (0usize, 0usize);
    for case in 0..400_000u32 {
        let token = if case % 4 == 3 {
            const ALPHABET: &[u8] = b"0123456789.eE+-infatyINFATY_x ";
            (0..rng.gen_range(0..12usize))
                .map(|_| char::from(ALPHABET[rng.gen_range(0..ALPHABET.len())]))
                .collect()
        } else {
            let mut t = String::from(signs[rng.gen_range(0..signs.len())]);
            let int_len = rng.gen_range(0..=32usize);
            t.push_str(&digits(&mut rng, int_len));
            if rng.gen_bool(0.5) {
                t.push('.');
                let frac_len = rng.gen_range(0..=20usize);
                t.push_str(&digits(&mut rng, frac_len));
            }
            if rng.gen_bool(0.7) {
                t.push(if rng.gen_bool(0.5) { 'e' } else { 'E' });
                t.push_str(signs[rng.gen_range(0..signs.len())]);
                let exp: u32 = match rng.gen_range(0..4u32) {
                    0 => [0, 279, 280, 281, 288, 300, 307, 308, 309, 324, 325]
                        [rng.gen_range(0..11usize)],
                    1 => rng.gen_range(270..320),
                    2 => rng.gen_range(0..30),
                    _ => rng.gen_range(0..100_000),
                };
                let pad = if rng.gen_bool(0.2) {
                    rng.gen_range(0..30usize)
                } else {
                    0
                };
                t.push_str(&"0".repeat(pad));
                if !rng.gen_bool(0.03) {
                    t.push_str(&exp.to_string());
                }
            }
            if rng.gen_bool(0.03) {
                let at = rng.gen_range(0..=t.len());
                t.insert(at, ['.', 'e', 'x', '+', '_'][rng.gen_range(0..5usize)]);
            }
            t
        };
        let std = token.parse::<f64>();
        if io::proves_finite(token.as_bytes()) {
            proven += 1;
            assert!(
                std.as_ref().is_ok_and(|v| v.is_finite()),
                "proved finite, but std gives {std:?} for {token:?}"
            );
        } else if std.is_ok_and(f64::is_finite) {
            fallback_finite += 1;
        }
    }
    // Both sides of the check must be well exercised.
    assert!(proven > 50_000, "only {proven} tokens proved finite");
    assert!(
        fallback_finite > 10_000,
        "only {fallback_finite} finite fallbacks"
    );
    eprintln!("{proven} tokens proved finite, {fallback_finite} finite only through std");
    for value in EDGE_VALUES {
        let std = value.parse::<f64>();
        if io::proves_finite(value.as_bytes()) {
            assert!(std.is_ok_and(f64::is_finite), "{value}");
        }
    }
}

#[test]
fn proves_finite_holds_its_stated_bounds() {
    let cases: &[(&str, bool)] = &[
        ("1e280", true),
        ("-1e280", true),
        ("1e-280", true),
        ("1e281", false),
        ("1e-281", false),
        ("99999999999999999999e280", true),
        ("100000000000000000000", false),
        ("1e0000000000000000000000280", true),
        ("1E+0005", true),
        ("+.5", true),
        ("-0", true),
        ("1.", true),
        ("1.e5", true),
        ("2.71828182845904523536e0", true),
        (".", false),
        ("1e", false),
        ("e5", false),
        ("++1", false),
        ("inf", false),
        ("NaN", false),
        ("", false),
    ];
    for &(token, proved) in cases {
        assert_eq!(io::proves_finite(token.as_bytes()), proved, "{token:?}");
    }
}
