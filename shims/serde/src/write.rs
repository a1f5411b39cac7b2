//! The JSON writer behind [`crate::Serialize`].

use std::io::Write as _;

/// Appends JSON to a byte buffer, compact or pretty (2-space indent,
/// `": "` after keys, empty containers as bare `[]` / `{}`).
///
/// Containers are written as `begin_*`, then [`Writer::element`] or
/// [`Writer::key`] before each member, then `end_*`. Nothing is
/// allocated beyond the buffer's own growth: numbers and escapes are
/// formatted in place.
#[derive(Debug)]
pub struct Writer<'a> {
    out: &'a mut Vec<u8>,
    pretty: bool,
    depth: usize,
    /// A container was just opened and has no member yet.
    fresh: bool,
}

impl<'a> Writer<'a> {
    /// A compact writer appending to `out`.
    pub fn compact(out: &'a mut Vec<u8>) -> Self {
        Writer {
            out,
            pretty: false,
            depth: 0,
            fresh: false,
        }
    }

    /// A pretty-printing writer appending to `out`.
    pub fn pretty(out: &'a mut Vec<u8>) -> Self {
        Writer {
            pretty: true,
            ..Writer::compact(out)
        }
    }

    /// `null`.
    #[inline]
    pub fn null(&mut self) {
        self.out.extend_from_slice(b"null");
    }

    /// `true` or `false`.
    #[inline]
    pub fn bool(&mut self, b: bool) {
        self.out
            .extend_from_slice(if b { b"true" } else { b"false" });
    }

    /// An unsigned integer, in full.
    pub fn u64(&mut self, mut v: u64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.out.extend_from_slice(&digits[at..]);
    }

    /// A signed integer, in full.
    pub fn i64(&mut self, v: i64) {
        if v < 0 {
            self.out.push(b'-');
        }
        self.u64(v.unsigned_abs());
    }

    /// A float as Rust's shortest round-trip form (`{:?}`); `null` when
    /// it is not finite, since JSON has no NaN or infinity.
    pub fn f64(&mut self, v: f64) {
        if v.is_finite() {
            // Writing to a Vec cannot fail.
            let _ = write!(self.out, "{v:?}");
        } else {
            self.null();
        }
    }

    /// A string. Only `"`, `\` and control bytes are escaped: `\n`,
    /// `\r` and `\t` by name, the rest as lowercase `\u00xx`.
    pub fn str(&mut self, s: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        self.out.push(b'"');
        let bytes = s.as_bytes();
        let mut start = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let named: &[u8] = match b {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                0..=0x1f => &[
                    b'\\',
                    b'u',
                    b'0',
                    b'0',
                    HEX[(b >> 4) as usize],
                    HEX[(b & 0xf) as usize],
                ],
                _ => continue,
            };
            self.out.extend_from_slice(&bytes[start..i]);
            self.out.extend_from_slice(named);
            start = i + 1;
        }
        self.out.extend_from_slice(&bytes[start..]);
        self.out.push(b'"');
    }

    /// Open an array.
    #[inline]
    pub fn begin_array(&mut self) {
        self.open(b'[');
    }

    /// Close the innermost array.
    #[inline]
    pub fn end_array(&mut self) {
        self.close(b']');
    }

    /// Open an object.
    #[inline]
    pub fn begin_object(&mut self) {
        self.open(b'{');
    }

    /// Close the innermost object.
    #[inline]
    pub fn end_object(&mut self) {
        self.close(b'}');
    }

    /// Start the next array element.
    #[inline]
    pub fn element(&mut self) {
        self.separate();
    }

    /// Start the next object member: its key and the colon.
    pub fn key(&mut self, key: &str) {
        self.separate();
        self.str(key);
        self.out
            .extend_from_slice(if self.pretty { b": " } else { b":" });
    }

    fn open(&mut self, bracket: u8) {
        self.out.push(bracket);
        self.depth += 1;
        self.fresh = true;
    }

    fn separate(&mut self) {
        if !self.fresh {
            self.out.push(b',');
        }
        self.fresh = false;
        self.newline();
    }

    fn close(&mut self, bracket: u8) {
        self.depth -= 1;
        if !self.fresh {
            self.newline();
        }
        self.fresh = false;
        self.out.push(bracket);
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push(b'\n');
            self.out.extend(std::iter::repeat_n(b' ', 2 * self.depth));
        }
    }
}
