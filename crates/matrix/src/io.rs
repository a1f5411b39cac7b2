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
//!
//! One entry loop serves three entry points. The common entry line (single
//! spaces, plain-digit indices, a value proved finite, a `\n` ending) is
//! scanned inline in that loop; any other line goes to a second scanner
//! or to the general path. Each entry point is a sink of the loop:
//!
//! * [`read_matrix_market`] collects every entry and its value.
//! * [`read_matrix_market_structure`] collects the sparsity pattern, for
//!   callers such as format selection: every Table 1 feature is a
//!   property of the pattern. It validates each value without converting
//!   it and gives the same positions, or the same error, with every value
//!   1.0.
//! * [`stream_matrix_market`] builds no matrix at all: it hands each
//!   position to a [`StructureSink`] as it scans, while the entry order
//!   proves the positions distinct, and falls back to the structure
//!   reader when it cannot.

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
#[derive(Clone, Copy)]
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

    /// The entry line at the cursor if it has the common shape: a row
    /// and a column of plain digits and (unless `pattern`) a value that
    /// [`finite_float_end`] proves finite, separated by single spaces and
    /// ended by `\n`. Returns the indices as written and the value field,
    /// and moves to the next line; any other line returns `None` and
    /// leaves the cursor where it was, for [`Self::next_entry`].
    #[inline]
    fn common_entry(&mut self, pattern: bool) -> Option<(usize, usize, Option<&'a str>)> {
        let bytes = self.text.as_bytes();
        let (r, i) = plain_index(bytes, self.pos)?;
        if bytes.get(i) != Some(&b' ') {
            return None;
        }
        let (c, i) = plain_index(bytes, i + 1)?;
        let (value, end) = if pattern {
            (None, i)
        } else {
            if bytes.get(i) != Some(&b' ') {
                return None;
            }
            let end = finite_float_end(bytes, i + 1)?;
            (Some(&self.text[i + 1..end]), end)
        };
        if bytes.get(end) != Some(&b'\n') {
            return None;
        }
        self.pos = end + 1;
        self.number += 1;
        Some((r, c, value))
    }

    /// The next line of the entry section, for lines
    /// [`Self::common_entry`] does not take. Lines in [`scan_entry`]'s
    /// shape are scanned once, byte by byte; any other line comes back
    /// whole.
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
        self.pos = match bytes.get(end) {
            Some(b'\n') => end + 1,
            _ => bytes[end..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(bytes.len(), |i| end + i + 1),
        };
        Ok(Some(line))
    }
}

/// One line of the entry section.
enum EntryLine<'a> {
    /// A blank line or a comment.
    Skip,
    /// Row and column as written (1-based), the value field unless the
    /// file is `pattern`, and whether the scan already proved the value
    /// finite (see [`proves_finite`]).
    Fast(usize, usize, Option<&'a str>, bool),
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

/// Skip the whitespace between two fields: a single space without a
/// loop, anything else through [`skip_blanks`].
fn skip_separator(bytes: &[u8], i: usize) -> usize {
    if bytes.get(i) == Some(&b' ') && bytes.get(i + 1).is_some_and(|&b| b > b' ') {
        i + 1
    } else {
        skip_blanks(bytes, i)
    }
}

/// Digits an index field may have on the fast path: 10^19 - 1 fits a
/// `u64`, so they are read without checked arithmetic. A longer field
/// goes to the general path, which keeps the overflow error.
const FAST_INDEX_DIGITS: usize = 19;

/// The run of at most [`FAST_INDEX_DIGITS`] digits that starts at byte
/// `i`, read as a number, and the position after it; `None` if byte `i`
/// is not a digit. The caller checks what ends the field.
#[inline]
fn plain_index(bytes: &[u8], mut i: usize) -> Option<(usize, usize)> {
    let start = i;
    let limit = bytes.len().min(start + FAST_INDEX_DIGITS);
    let mut n = 0u64;
    while i < limit {
        let d = bytes[i].wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        n = n * 10 + d as u64;
        i += 1;
    }
    (i > start).then_some((usize::try_from(n).ok()?, i))
}

/// An index field of plain digits (after at most one `+`) that ends at
/// whitespace or the end of input, read straight from its digits.
/// `None` for anything else, a field past [`FAST_INDEX_DIGITS`] included.
fn scan_index(bytes: &[u8], mut i: usize) -> Option<(usize, usize)> {
    if bytes.get(i) == Some(&b'+') {
        i += 1;
    }
    let (n, i) = plain_index(bytes, i)?;
    bytes.get(i).is_none_or(|&b| is_space(b)).then_some((n, i))
}

/// Scan the entry line starting at byte `i` if it has the common shape:
/// ASCII whitespace between fields, indices of plain digits, and (unless
/// `pattern`) a value field of printable ASCII, checked by
/// [`proves_finite`] in the same pass. Returns the line and the position
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
    let (c, i) = scan_index(bytes, skip_separator(bytes, i))?;
    if pattern {
        return Some((EntryLine::Fast(r, c, None, false), i));
    }
    let start = skip_separator(bytes, i);
    let ends_field = |end: usize| bytes.get(end).is_none_or(|&b| is_space(b));
    // One pass over the common value both finds its end and proves it
    // finite.
    if let Some(end) = finite_float_end(bytes, start).filter(|&end| ends_field(end)) {
        return Some((EntryLine::Fast(r, c, Some(&text[start..end]), true), end));
    }
    let mut end = start;
    while bytes.get(end).is_some_and(|&b| b > b' ' && b < 0x7f) {
        end += 1;
    }
    // A control byte, DEL or non-ASCII byte in the field: general path.
    (end > start && ends_field(end))
        .then(|| (EntryLine::Fast(r, c, Some(&text[start..end]), false), end))
}

/// A 1-based index field, parsed as `usize::from_str` parses it.
fn parse_index(field: Option<&str>, line: usize) -> Result<usize> {
    field
        .ok_or_else(|| parse_error(line, "missing index"))?
        .parse::<usize>()
        .map_err(|e| parse_error(line, format!("bad index: {e}")))
}

/// Read a Matrix Market file from any reader.
pub fn read_matrix_market<R: Read>(reader: R) -> Result<CooMatrix> {
    read_coordinate(reader, true)
}

/// Read a Matrix Market file from disk.
pub fn read_matrix_market_file<P: AsRef<Path>>(path: P) -> Result<CooMatrix> {
    read_matrix_market(std::fs::File::open(path)?)
}

/// Read only the sparsity structure of a Matrix Market file: the matrix
/// [`read_matrix_market`] gives with every stored value 1.0, as in a
/// `pattern` file, or exactly the error it gives. Values are validated
/// but not converted: a field [`proves_finite`] accepts is known to parse
/// as a finite `f64`, and any other field goes to `str::parse::<f64>`
/// and the non-finite check, as in the value-keeping reader.
pub fn read_matrix_market_structure<R: Read>(reader: R) -> Result<CooMatrix> {
    read_coordinate(reader, false)
}

/// Receives the sparsity structure of a Matrix Market file while
/// [`stream_matrix_market`] scans it.
pub trait StructureSink {
    /// A matrix of the declared shape begins; forget any earlier one.
    /// Called once per read, after the size line passed its checks and
    /// before any entry is read. Returning `false` declines the stream:
    /// the sink then receives nothing, and the file is read as
    /// [`read_matrix_market_structure`] reads it.
    fn begin(&mut self, nrows: usize, ncols: usize) -> bool;

    /// One position of the matrix, 0-based and within the declared
    /// shape: a stored entry, or the entry a `symmetric` /
    /// `skew-symmetric` file implies across the diagonal. No position
    /// comes twice.
    fn position(&mut self, row: usize, col: usize);
}

/// How [`stream_matrix_market`] read a file.
#[derive(Debug, PartialEq)]
pub enum StructureRead {
    /// The sink received every position of the matrix, each once.
    Streamed,
    /// The sink declined the stream, or the entry order did not prove
    /// the positions distinct. This is the matrix
    /// [`read_matrix_market_structure`] gives; whatever the sink received
    /// is partial and dropped, and its next [`StructureSink::begin`]
    /// clears it.
    Collected(CooMatrix),
}

/// Read the sparsity structure of a Matrix Market file into `sink`,
/// building no matrix when the entry order allows it.
///
/// As it scans, the reader hands each stored position, and its mirror,
/// to the sink, for as long as the order of the entries proves, at O(1)
/// per entry, that no position repeats: `(row, col)` strictly ascending,
/// and, in a `symmetric` or `skew-symmetric` file, every stored entry on
/// or below the diagonal, so that no mirror can meet a stored entry.
/// That is the order [`write_matrix_market`] writes. An entry that
/// breaks the order, or lies outside the shape, ends the stream: the
/// reader drops what the sink received and reads the bytes again as
/// [`read_matrix_market_structure`] does, so the outcome is always that
/// reader's matrix or its exact error. A parse error or a count mismatch
/// found while streaming is that error.
pub fn stream_matrix_market<R: Read, S: StructureSink>(
    reader: R,
    sink: &mut S,
) -> Result<StructureRead> {
    let bytes = read_all(reader)?;
    let mut lines = Lines::new(&bytes);
    let header = read_header(&mut lines)?;
    if sink.begin(header.nrows, header.ncols) {
        let mut proven = Proven {
            sink,
            nrows: header.nrows,
            ncols: header.ncols,
            mirrored: header.symmetry != Symmetry::General,
            next_key: 0,
        };
        let mut scan = lines;
        if read_entries(&mut scan, &header, false, &mut proven)? {
            return Ok(StructureRead::Streamed);
        }
    }
    collect(lines, &header, false).map(StructureRead::Collected)
}

/// [`stream_matrix_market`] from a file on disk.
pub fn stream_matrix_market_file<P: AsRef<Path>, S: StructureSink>(
    path: P,
    sink: &mut S,
) -> Result<StructureRead> {
    stream_matrix_market(std::fs::File::open(path)?, sink)
}

/// Whether the bytes of a value field alone prove that `str::parse::<f64>`
/// reads it as a finite number. The field must match the float grammar
/// without `inf` or `nan`: an optional sign, digits with at most one
/// `.` and at least one digit, then optionally `e` or `E`, an optional
/// sign and digits. It may have at most 20 digits before the point and
/// an exponent of magnitude at most 280, so its value is below
/// 10^20 · 10^280 = 10^300, under `f64::MAX`. Leading zeros in the
/// exponent are allowed, as std allows them. `false` proves nothing.
pub fn proves_finite(field: &[u8]) -> bool {
    finite_float_end(field, 0) == Some(field.len())
}

/// The end of the longest float [`proves_finite`] accepts that starts at
/// byte `i`, or `None` if none does. The float is the whole field only if
/// it ends there.
#[inline]
fn finite_float_end(bytes: &[u8], i: usize) -> Option<usize> {
    let after_sign = |i: usize| i + usize::from(matches!(bytes.get(i), Some(b'+' | b'-')));
    let int_start = after_sign(i);
    let mut i = digit_run_end(bytes, int_start);
    let int_digits = i - int_start;
    let mut frac_digits = 0;
    if bytes.get(i) == Some(&b'.') {
        let frac_end = digit_run_end(bytes, i + 1);
        frac_digits = frac_end - (i + 1);
        i = frac_end;
    }
    if int_digits + frac_digits == 0 || int_digits > 20 {
        return None;
    }
    if !matches!(bytes.get(i), Some(b'e' | b'E')) {
        return Some(i);
    }
    let exp_start = after_sign(i + 1);
    i = exp_start;
    let mut exp = 0u32;
    while let Some(d) = bytes.get(i).filter(|b| b.is_ascii_digit()) {
        exp = exp * 10 + u32::from(d - b'0');
        if exp > 280 {
            return None;
        }
        i += 1;
    }
    (i > exp_start).then_some(i)
}

/// The end of the run of ASCII digits that starts at byte `i`: eight
/// bytes at a time while eight remain, then byte by byte.
#[inline]
fn digit_run_end(bytes: &[u8], mut i: usize) -> usize {
    while let Some(word) = bytes.get(i..).and_then(<[u8]>::first_chunk::<8>) {
        let mask = non_digits(u64::from_le_bytes(*word));
        if mask != 0 {
            // Bytes are numbered from the low end, so the first
            // non-digit is the lowest set byte of the mask.
            return i + mask.trailing_zeros() as usize / 8;
        }
        // A word of digits moves on by a constant, so the next load
        // need not wait for this one's mask.
        i += 8;
    }
    while bytes.get(i).is_some_and(u8::is_ascii_digit) {
        i += 1;
    }
    i
}

/// A mask of `word` with bits set in each byte that is not an ASCII
/// digit, and in no other byte.
#[inline]
fn non_digits(word: u64) -> u64 {
    const HIGH: u64 = 0xf0f0_f0f0_f0f0_f0f0;
    const LOW: u64 = 0x0f0f_0f0f_0f0f_0f0f;
    // A digit becomes 0x00..=0x09, and only a digit does: its high
    // nibble is clear, and adding 6 to its low nibble stays below 0x10.
    // No byte carries into the next (0x0f + 0x06 < 0x100).
    let x = word ^ 0x3030_3030_3030_3030;
    (x & HIGH) | ((x & LOW) + 0x0606_0606_0606_0606) & HIGH
}

/// The banner and size line of a file.
struct Header {
    kind: ValueKind,
    symmetry: Symmetry,
    nrows: usize,
    ncols: usize,
    declared_nnz: usize,
}

fn read_all<R: Read>(mut reader: R) -> Result<Vec<u8>> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    Ok(bytes)
}

/// Parse the banner and the size line, leaving `lines` at the line after
/// the size line.
fn read_header(lines: &mut Lines<'_>) -> Result<Header> {
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
    Ok(Header {
        kind,
        symmetry,
        nrows,
        ncols,
        declared_nnz,
    })
}

/// Where the entry loop puts each stored entry.
trait EntrySink {
    /// One stored entry, 0-based as written (it may lie outside the
    /// shape), and its value; 1.0 unless values are kept. `false` stops
    /// the loop.
    fn stored(&mut self, row: usize, col: usize, value: f64) -> bool;
}

/// The one entry loop: parse every entry line after the size line and
/// hand each entry to `sink`. With `keep_values`, every value is
/// converted; without, entries read 1.0 and a value field is converted
/// only when [`proves_finite`] cannot vouch for it (both scanners apply
/// the same check as they find the field's end; the value-keeping reader
/// ignores the verdict). Returns `false` if the sink stopped the loop,
/// and `true` once every entry went to the sink and their number matched
/// the size line.
fn read_entries<S: EntrySink>(
    lines: &mut Lines<'_>,
    header: &Header,
    keep_values: bool,
    sink: &mut S,
) -> Result<bool> {
    let pattern = header.kind == ValueKind::Pattern;
    let mut seen = 0usize;
    loop {
        let (r, c, value, proven) = match lines.common_entry(pattern) {
            Some((r, c, value)) => (r, c, value, true),
            None => match lines.next_entry(pattern)? {
                None => break,
                Some(EntryLine::Skip) => continue,
                Some(EntryLine::Fast(r, c, value, proven)) => (r, c, value, proven),
                Some(EntryLine::Other(line)) => {
                    let t = line.trim();
                    if t.is_empty() || t.starts_with('%') {
                        continue;
                    }
                    let lineno = lines.number;
                    let mut fields = t.split_whitespace();
                    let r = parse_index(fields.next(), lineno)?;
                    let c = parse_index(fields.next(), lineno)?;
                    let value = fields.next();
                    (
                        r,
                        c,
                        value,
                        value.is_some_and(|f| proves_finite(f.as_bytes())),
                    )
                }
            },
        };
        let lineno = lines.number;
        if r == 0 || c == 0 {
            return Err(parse_error(lineno, "indices are 1-based"));
        }
        let v = match header.kind {
            ValueKind::Pattern => 1.0,
            _ => {
                let field = value.ok_or_else(|| parse_error(lineno, "missing value"))?;
                if keep_values || !proven {
                    let v = field
                        .parse::<f64>()
                        .map_err(|e| parse_error(lineno, format!("bad value: {e}")))?;
                    if !v.is_finite() {
                        return Err(parse_error(lineno, format!("non-finite value `{v}`")));
                    }
                    v
                } else {
                    1.0
                }
            }
        };
        if !sink.stored(r - 1, c - 1, v) {
            return Ok(false);
        }
        seen += 1;
    }
    if seen != header.declared_nnz {
        return Err(parse_error(
            0,
            format!("declared {} entries, found {seen}", header.declared_nnz),
        ));
    }
    Ok(true)
}

/// The value-keeping and structure readers: read the whole input into a
/// [`CooMatrix`].
fn read_coordinate<R: Read>(reader: R, keep_values: bool) -> Result<CooMatrix> {
    let bytes = read_all(reader)?;
    let mut lines = Lines::new(&bytes);
    let header = read_header(&mut lines)?;
    collect(lines, &header, keep_values)
}

/// Read the entries after the size line into a [`CooMatrix`]: the sink
/// of the two COO readers, and the structure stream's fallback.
fn collect(mut lines: Lines<'_>, header: &Header, keep_values: bool) -> Result<CooMatrix> {
    // Cap preallocation so a corrupt size line cannot trigger a huge
    // allocation before any entry is parsed.
    const PREALLOC_CAP: usize = 1 << 20;
    let capacity = header.declared_nnz.min(PREALLOC_CAP);
    let mut coo = CooEntries {
        header,
        keep_values,
        rows: Vec::with_capacity(capacity),
        cols: Vec::with_capacity(capacity),
        vals: Vec::with_capacity(if keep_values { capacity } else { 0 }),
        out_of_bounds: None,
    };
    read_entries(&mut lines, header, keep_values, &mut coo)?;
    let (nrows, ncols) = (header.nrows, header.ncols);
    if let Some((row, col)) = coo.out_of_bounds {
        return Err(MatrixError::IndexOutOfBounds {
            row,
            col,
            nrows,
            ncols,
        });
    }
    let vals = if keep_values {
        coo.vals
    } else {
        vec![1.0; coo.rows.len()]
    };
    CooMatrix::from_unsorted_parts(nrows, ncols, coo.rows, coo.cols, vals)
}

/// Every entry and its mirror as COO arrays, in file order.
struct CooEntries<'h> {
    header: &'h Header,
    keep_values: bool,
    rows: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<f64>,
    /// The first out-of-bounds entry is remembered rather than raised,
    /// so a parse error or count mismatch later in the file still wins.
    out_of_bounds: Option<(usize, usize)>,
}

impl CooEntries<'_> {
    fn push(&mut self, r: usize, c: usize, v: f64) {
        if (r >= self.header.nrows || c >= self.header.ncols) && self.out_of_bounds.is_none() {
            self.out_of_bounds = Some((r, c));
        }
        self.rows.push(r as u32);
        self.cols.push(c as u32);
        if self.keep_values {
            self.vals.push(v);
        }
    }
}

impl EntrySink for CooEntries<'_> {
    fn stored(&mut self, r: usize, c: usize, v: f64) -> bool {
        self.push(r, c, v);
        if r != c {
            match self.header.symmetry {
                Symmetry::General => {}
                Symmetry::Symmetric => self.push(c, r, v),
                Symmetry::SkewSymmetric => self.push(c, r, -v),
            }
        }
        true
    }
}

/// Hands positions to a [`StructureSink`] for as long as the entry order
/// proves them distinct (see [`stream_matrix_market`]).
struct Proven<'s, S> {
    sink: &'s mut S,
    nrows: usize,
    ncols: usize,
    /// Whether stored entries off the diagonal imply a mirror.
    mirrored: bool,
    /// The smallest key `row << 32 | col` the next stored entry may have.
    next_key: u64,
}

impl<S: StructureSink> EntrySink for Proven<'_, S> {
    #[inline]
    fn stored(&mut self, r: usize, c: usize, _: f64) -> bool {
        if r >= self.nrows || c >= self.ncols {
            return false;
        }
        // Both indices fit a `u32` here, so the key cannot overflow.
        let key = (r as u64) << 32 | c as u64;
        if key < self.next_key {
            return false;
        }
        self.next_key = key + 1;
        if self.mirrored && r != c {
            // Below the diagonal, so the mirror's row `c < r` is in
            // bounds; its column `r` is checked.
            if c > r || r >= self.ncols {
                return false;
            }
            self.sink.position(c, r);
        }
        self.sink.position(r, c);
        true
    }
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
    fn non_digit_mask_marks_exactly_the_non_digit_bytes() {
        // Every byte value in every lane, beside digits and beside bytes
        // that would carry if a lane could carry into the next.
        for filler in [b'0', b'9', b'/', b':', 0xff] {
            for lane in 0..8 {
                for b in 0..=255u8 {
                    let mut word = [filler; 8];
                    word[lane] = b;
                    let mask = non_digits(u64::from_le_bytes(word)).to_le_bytes();
                    for (k, &m) in mask.iter().enumerate() {
                        let byte = word[k];
                        assert_eq!(m != 0, !byte.is_ascii_digit(), "{word:?} lane {k}");
                    }
                }
            }
        }
    }

    #[test]
    fn digit_runs_end_where_a_byte_loop_ends_them() {
        // End of input, the bytes either side of the digits in ASCII,
        // the float grammar's and the line's separators, and bytes past
        // ASCII.
        let ends: [Option<u8>; 15] = [
            None,
            Some(b'/'),
            Some(b':'),
            Some(b';'),
            Some(b'<'),
            Some(b'='),
            Some(b'>'),
            Some(b'?'),
            Some(b'.'),
            Some(b'e'),
            Some(b' '),
            Some(b'\n'),
            Some(0x80),
            Some(0xc2),
            Some(0xff),
        ];
        for offset in 0..8 {
            for len in 0..=24usize {
                for end in ends {
                    let mut bytes = vec![b'x'; offset];
                    bytes.extend((0..len).map(|k| b'0' + ((k * 7 + offset) % 10) as u8));
                    if let Some(b) = end {
                        // Digits after the end must not join the run.
                        bytes.push(b);
                        bytes.extend_from_slice(b"123456789");
                    }
                    assert_eq!(
                        digit_run_end(&bytes, offset),
                        offset + len,
                        "{len} digits at offset {offset}, ended by {end:?}"
                    );
                }
            }
        }
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
