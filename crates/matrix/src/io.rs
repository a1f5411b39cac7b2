//! Matrix Market (`.mtx`) reading and writing.
//!
//! Supports the `matrix coordinate` variants the SuiteSparse collection
//! uses: `real` / `integer` / `pattern` values with `general` / `symmetric`
//! / `skew-symmetric` symmetry. Symmetric storage is expanded to a full
//! general matrix on read, matching what SpMV benchmarking needs.
//!
//! The reader makes one pass over the bytes. It reads the input whole,
//! validates UTF-8 once, and scans lines and fields in place: no `String`
//! per line, indices parsed straight from their digits, entries pushed
//! into the `u32`/`u32`/`f64` arrays a [`CooMatrix`] keeps, and no sort
//! when the entries already arrive row-major. For every input it gives
//! the matrix, or the error (variant, message, line), that a reader
//! built on `BufRead::lines` and `str::split_whitespace` gives;
//! `crates/matrix/tests/mtx_reader_parity.rs` keeps that reader as the
//! reference and checks the two against each other. Three rules hold
//! that parity:
//!
//! * **UTF-8.** A line holding an invalid byte fails with
//!   `Io("stream did not contain valid UTF-8")` when the parse reaches
//!   it, even inside a comment or an ignored trailing field, and not
//!   before: an earlier error still wins.
//! * **Error order.** Parse errors come first, then a declared-count
//!   mismatch, then the first out-of-bounds entry in file order, then the
//!   smallest duplicated position.
//! * **Mirrored entries.** The entry a `symmetric` / `skew-symmetric`
//!   file implies across the diagonal is bounds-checked like a stored
//!   one, which matters on non-square shapes.

use crate::{CooMatrix, MatrixError, Result};
use std::io::{Read, Write};
use std::path::Path;

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

fn parse_error(line: usize, msg: impl Into<String>) -> MatrixError {
    MatrixError::Parse {
        line,
        msg: msg.into(),
    }
}

/// The input's lines, split and stripped as `BufRead::lines` does: on
/// `\n`, dropping one `\r` before it.
///
/// UTF-8 is validated once, up front. The cursor hands out only the
/// whole lines before the first invalid byte; asking for the line that
/// holds it fails the way `BufRead::lines` fails on that line.
struct Lines<'a> {
    text: &'a str,
    pos: usize,
    /// 1-based number of the line last returned.
    number: usize,
    /// Whether a line holding invalid UTF-8 follows `text`.
    poisoned: bool,
}

impl<'a> Lines<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        let (text, poisoned) = match std::str::from_utf8(bytes) {
            Ok(text) => (text, false),
            Err(e) => {
                let valid = &bytes[..e.valid_up_to()];
                let cut = valid.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
                // Whole lines of the valid prefix, so this cannot fail.
                (std::str::from_utf8(&bytes[..cut]).unwrap_or_default(), true)
            }
        };
        Lines {
            text,
            pos: 0,
            number: 0,
            poisoned,
        }
    }

    /// End of input: `None`, or the error of the line that was cut off.
    fn end<T>(&self) -> Result<Option<T>> {
        if self.poisoned {
            return Err(MatrixError::Io("stream did not contain valid UTF-8".into()));
        }
        Ok(None)
    }

    fn next_line(&mut self) -> Result<Option<&'a str>> {
        let rest = &self.text[self.pos..];
        if rest.is_empty() {
            return self.end();
        }
        self.number += 1;
        Ok(Some(match rest.find('\n') {
            Some(end) => {
                self.pos += end + 1;
                let line = &rest[..end];
                line.strip_suffix('\r').unwrap_or(line)
            }
            None => {
                self.pos = self.text.len();
                rest
            }
        }))
    }

    /// The next line of the entry section. Lines in the common shape are
    /// scanned once, byte by byte; any other line comes back whole.
    fn next_entry(&mut self, pattern: bool) -> Result<Option<EntryLine<'a>>> {
        let bytes = self.text.as_bytes();
        if self.pos == bytes.len() {
            return self.end();
        }
        let Some((line, end)) = scan_entry(self.text, self.pos, pattern) else {
            return Ok(self.next_line()?.map(EntryLine::Other));
        };
        self.number += 1;
        // Skip whatever the line holds past its last needed field.
        self.pos = bytes[end..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(bytes.len(), |i| end + i + 1);
        Ok(Some(line))
    }
}

/// One line of the entry section.
enum EntryLine<'a> {
    /// A blank line or a comment.
    Skip,
    /// Row and column as written (1-based), and the value field unless
    /// the file is `pattern`.
    Fast(usize, usize, Option<&'a str>),
    /// Any other line, for the general path.
    Other(&'a str),
}

/// ASCII whitespace as `char::is_whitespace` has it, `\n` included.
fn is_space(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// Skip whitespace up to the end of the line.
fn skip_blanks(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && bytes[i] != b'\n' && is_space(bytes[i]) {
        i += 1;
    }
    i
}

/// An index field of plain digits (after at most one `+`) that ends at
/// whitespace or the end of input, read straight from its digits.
/// `None` for anything else, overflow included.
fn scan_index(bytes: &[u8], mut i: usize) -> Option<(usize, usize)> {
    if bytes.get(i) == Some(&b'+') {
        i += 1;
    }
    let start = i;
    let mut n = 0usize;
    while let Some(&b) = bytes.get(i) {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        n = n.checked_mul(10)?.checked_add(d as usize)?;
        i += 1;
    }
    let ends_field = bytes.get(i).is_none_or(|&b| is_space(b));
    (i > start && ends_field).then_some((n, i))
}

/// Scan the entry line starting at byte `i` if it has the common shape:
/// ASCII whitespace between fields, indices of plain digits, and (unless
/// `pattern`) an all-ASCII value field. Returns the line and the position
/// after its last needed field, or `None` to send the line to the
/// general path. On the lines it accepts, this yields exactly the fields
/// `str::split_whitespace` and `usize::from_str` would.
fn scan_entry(text: &str, i: usize, pattern: bool) -> Option<(EntryLine<'_>, usize)> {
    let bytes = text.as_bytes();
    let i = skip_blanks(bytes, i);
    match bytes.get(i) {
        None | Some(b'\n') | Some(b'%') => return Some((EntryLine::Skip, i)),
        _ => {}
    }
    let (r, i) = scan_index(bytes, i)?;
    let (c, i) = scan_index(bytes, skip_blanks(bytes, i))?;
    if pattern {
        return Some((EntryLine::Fast(r, c, None), i));
    }
    let start = skip_blanks(bytes, i);
    let mut end = start;
    while let Some(&b) = bytes.get(end) {
        if !b.is_ascii() {
            return None;
        }
        if is_space(b) {
            break;
        }
        end += 1;
    }
    (end > start).then(|| (EntryLine::Fast(r, c, Some(&text[start..end])), end))
}

/// A 1-based index field, parsed as `usize::from_str` parses it.
fn parse_index(field: Option<&str>, line: usize) -> Result<usize> {
    field
        .ok_or_else(|| parse_error(line, "missing index"))?
        .parse::<usize>()
        .map_err(|e| parse_error(line, format!("bad index: {e}")))
}

/// Read a Matrix Market file from any reader.
pub fn read_matrix_market<R: Read>(mut reader: R) -> Result<CooMatrix> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    let mut lines = Lines::new(&bytes);

    // Header line.
    let header = loop {
        match lines.next_line()? {
            Some(line) if !line.trim().is_empty() => break line,
            Some(_) => {}
            None => return Err(parse_error(0, "empty file")),
        }
    };
    let lineno = lines.number;
    let toks: Vec<String> = header
        .split_whitespace()
        .map(|t| t.to_lowercase())
        .collect();
    if toks.len() < 5 || toks[0] != "%%matrixmarket" || toks[1] != "matrix" {
        return Err(parse_error(lineno, format!("bad header `{header}`")));
    }
    if toks[2] != "coordinate" {
        return Err(parse_error(
            lineno,
            format!("unsupported storage `{}` (only coordinate)", toks[2]),
        ));
    }
    let kind = match toks[3].as_str() {
        "real" => ValueKind::Real,
        "integer" => ValueKind::Integer,
        "pattern" => ValueKind::Pattern,
        other => {
            return Err(parse_error(
                lineno,
                format!("unsupported value type `{other}`"),
            ))
        }
    };
    let symmetry = match toks[4].as_str() {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        "skew-symmetric" => Symmetry::SkewSymmetric,
        other => {
            return Err(parse_error(
                lineno,
                format!("unsupported symmetry `{other}`"),
            ))
        }
    };

    // Size line (skipping comments).
    let size_line = loop {
        match lines.next_line()? {
            Some(line) => {
                let t = line.trim();
                if !t.is_empty() && !t.starts_with('%') {
                    break line;
                }
            }
            None => return Err(parse_error(0, "missing size line")),
        }
    };
    let lineno = lines.number;
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| t.parse::<usize>())
        .collect::<std::result::Result<_, _>>()
        .map_err(|e| parse_error(lineno, format!("bad size line: {e}")))?;
    if dims.len() != 3 {
        return Err(parse_error(lineno, "size line must have 3 fields"));
    }
    let (nrows, ncols, declared_nnz) = (dims[0], dims[1], dims[2]);
    // Guard against absurd size lines before trusting them: the dense
    // extent must be representable, each dimension must fit the `u32`
    // indices a `CooMatrix` stores, and the entry count cannot exceed the
    // dense extent.
    let dense = nrows
        .checked_mul(ncols)
        .ok_or_else(|| parse_error(lineno, format!("dimension overflow: {nrows} x {ncols}")))?;
    if nrows > u32::MAX as usize || ncols > u32::MAX as usize {
        return Err(parse_error(
            lineno,
            format!("dimensions {nrows} x {ncols} exceed the u32 index range"),
        ));
    }
    if declared_nnz > dense {
        return Err(parse_error(
            lineno,
            format!("declared {declared_nnz} entries exceed {nrows} x {ncols} capacity"),
        ));
    }

    // Cap preallocation so a corrupt size line cannot trigger a huge
    // allocation before any entry is parsed.
    const PREALLOC_CAP: usize = 1 << 20;
    let capacity = declared_nnz.min(PREALLOC_CAP);
    let mut rows: Vec<u32> = Vec::with_capacity(capacity);
    let mut cols: Vec<u32> = Vec::with_capacity(capacity);
    let mut vals: Vec<f64> = Vec::with_capacity(capacity);
    // The first out-of-bounds entry is remembered rather than raised, so
    // a parse error or count mismatch later in the file still wins.
    let mut out_of_bounds = None;
    let mut push = |r: usize, c: usize, v: f64| {
        if (r >= nrows || c >= ncols) && out_of_bounds.is_none() {
            out_of_bounds = Some((r, c));
        }
        rows.push(r as u32);
        cols.push(c as u32);
        vals.push(v);
    };
    let pattern = kind == ValueKind::Pattern;
    let mut seen = 0usize;
    while let Some(line) = lines.next_entry(pattern)? {
        let lineno = lines.number;
        let (r, c, value) = match line {
            EntryLine::Skip => continue,
            EntryLine::Fast(r, c, value) => (r, c, value),
            EntryLine::Other(line) => {
                let t = line.trim();
                if t.is_empty() || t.starts_with('%') {
                    continue;
                }
                let mut fields = t.split_whitespace();
                let r = parse_index(fields.next(), lineno)?;
                let c = parse_index(fields.next(), lineno)?;
                (r, c, fields.next())
            }
        };
        if r == 0 || c == 0 {
            return Err(parse_error(lineno, "indices are 1-based"));
        }
        let v = match kind {
            ValueKind::Pattern => 1.0,
            _ => value
                .ok_or_else(|| parse_error(lineno, "missing value"))?
                .parse::<f64>()
                .map_err(|e| parse_error(lineno, format!("bad value: {e}")))?,
        };
        if !v.is_finite() {
            return Err(parse_error(lineno, format!("non-finite value `{v}`")));
        }
        let (r, c) = (r - 1, c - 1);
        push(r, c, v);
        if r != c {
            match symmetry {
                Symmetry::General => {}
                Symmetry::Symmetric => push(c, r, v),
                Symmetry::SkewSymmetric => push(c, r, -v),
            }
        }
        seen += 1;
    }
    if seen != declared_nnz {
        return Err(parse_error(
            0,
            format!("declared {declared_nnz} entries, found {seen}"),
        ));
    }
    if let Some((row, col)) = out_of_bounds {
        return Err(MatrixError::IndexOutOfBounds {
            row,
            col,
            nrows,
            ncols,
        });
    }
    CooMatrix::from_unsorted_parts(nrows, ncols, rows, cols, vals)
}

/// Read a Matrix Market file from disk.
pub fn read_matrix_market_file<P: AsRef<Path>>(path: P) -> Result<CooMatrix> {
    read_matrix_market(std::fs::File::open(path)?)
}

/// Write a matrix as `matrix coordinate real general`.
pub fn write_matrix_market<W: Write>(m: &CooMatrix, mut w: W) -> Result<()> {
    use crate::SpMv;
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% written by spselect")?;
    writeln!(w, "{} {} {}", m.nrows(), m.ncols(), m.nnz())?;
    for (r, c, v) in m.iter() {
        writeln!(w, "{} {} {:.17e}", r + 1, c + 1, v)?;
    }
    Ok(())
}

/// Write a matrix to a `.mtx` file on disk.
pub fn write_matrix_market_file<P: AsRef<Path>>(m: &CooMatrix, path: P) -> Result<()> {
    write_matrix_market(m, std::io::BufWriter::new(std::fs::File::create(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpMv;

    #[test]
    fn parse_general_real() {
        let text =
            "%%MatrixMarket matrix coordinate real general\n% comment\n3 3 2\n1 1 1.5\n3 2 -2.0\n";
        let m = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.to_dense()[2][1], -2.0);
    }

    #[test]
    fn parse_symmetric_expands() {
        let text =
            "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 1.0\n2 1 5.0\n3 3 2.0\n";
        let m = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(m.nnz(), 4);
        let d = m.to_dense();
        assert_eq!(d[0][1], 5.0);
        assert_eq!(d[1][0], 5.0);
    }

    #[test]
    fn parse_skew_symmetric() {
        let text = "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 3.0\n";
        let m = read_matrix_market(text.as_bytes()).unwrap();
        let d = m.to_dense();
        assert_eq!(d[1][0], 3.0);
        assert_eq!(d[0][1], -3.0);
    }

    #[test]
    fn parse_pattern() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n";
        let m = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(m.values(), &[1.0, 1.0]);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_matrix_market("%%NotMM\n1 1 0\n".as_bytes()).is_err());
        assert!(
            read_matrix_market("%%MatrixMarket matrix array real general\n1 1\n".as_bytes())
                .is_err()
        );
    }

    #[test]
    fn rejects_count_mismatch() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_zero_based_indices() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn write_read_roundtrip() {
        let m =
            CooMatrix::from_triplets(3, 4, &[(0, 1, 1.25), (1, 3, -0.5), (2, 0, 1e-10)]).unwrap();
        let mut buf = Vec::new();
        write_matrix_market(&m, &mut buf).unwrap();
        let back = read_matrix_market(buf.as_slice()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn integer_values() {
        let text = "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 7\n";
        let m = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(m.values(), &[7.0]);
    }

    #[test]
    fn rejects_truncated_file() {
        // Header but no size line.
        let err = read_matrix_market("%%MatrixMarket matrix coordinate real general\n".as_bytes())
            .unwrap_err();
        assert!(matches!(err, MatrixError::Parse { .. }), "{err}");
        // Size line promises more entries than the body delivers.
        let text = "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 1.0\n2 2 2.0\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("declared 3 entries"), "{err}");
    }

    #[test]
    fn rejects_bad_symmetry_token() {
        let text = "%%MatrixMarket matrix coordinate real hermitian\n2 2 1\n1 1 1.0\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("unsupported symmetry"), "{err}");
    }

    #[test]
    fn rejects_non_finite_values() {
        for bad in ["inf", "-inf", "nan", "1e999"] {
            let text = format!("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 {bad}\n");
            let err = read_matrix_market(text.as_bytes()).unwrap_err();
            assert!(
                err.to_string().contains("non-finite value"),
                "`{bad}`: {err}"
            );
        }
    }

    #[test]
    fn rejects_dimension_overflow() {
        let text = format!(
            "%%MatrixMarket matrix coordinate real general\n{n} {n} 1\n1 1 1.0\n",
            n = usize::MAX
        );
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("dimension overflow"), "{err}");
    }

    #[test]
    fn rejects_dimensions_past_the_u32_index_range() {
        // Indices are stored as u32: row 5000000000 would wrap to 705032703.
        for size in ["5000000000 1 1", "1 5000000000 1"] {
            let text = format!(
                "%%MatrixMarket matrix coordinate real general\n{size}\n5000000000 1 1.0\n"
            );
            let err = read_matrix_market(text.as_bytes()).unwrap_err();
            assert!(
                matches!(&err, MatrixError::Parse { line: 2, msg } if msg.contains("u32 index range")),
                "{err}"
            );
        }
        // The largest representable dimension still reads.
        let text =
            "%%MatrixMarket matrix coordinate pattern general\n4294967295 1 1\n4294967295 1\n";
        let m = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(m.row_indices(), &[u32::MAX - 1]);
    }

    #[test]
    fn rejects_nnz_beyond_capacity() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 9\n1 1 1.0\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("exceed"), "{err}");
    }

    #[test]
    fn rejects_duplicate_after_symmetric_expansion() {
        // (2,1) stored explicitly and also produced by expanding (1,2).
        let text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n2 1 1.0\n2 1 2.0\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(
            matches!(err, MatrixError::DuplicateEntry { .. }),
            "expected duplicate-entry error, got {err}"
        );
    }
}
