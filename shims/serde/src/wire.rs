//! The binary wire format: each value written as its raw bytes, in
//! declaration order, with no keys, no tags besides option tags, and no
//! padding.
//!
//! The rules, for the primitives here and for `#[derive(Wire)]`:
//!
//! * Integers are little-endian. A `usize` travels as a `u64`, and an
//!   `f64` as its [`f64::to_bits`] pattern, so a decoded float is
//!   bit-identical to the encoded one (NaN payloads and signed zeros
//!   included).
//! * A `bool` is one byte, 0 or 1. An `Option` is a tag byte, 0 or 1,
//!   followed by the value when present. Any other tag byte is an error.
//! * A `String` or a `Vec` is preceded by its length as a `u16`, or as a
//!   `u32` when the value is *long*: inside a field marked
//!   `#[wire(long)]`, every length is a `u32`. A value longer than its
//!   prefix can count is cut: a string at the last char boundary that
//!   fits, a sequence after the last item that fits. Writing never
//!   panics.
//! * A struct is its fields, in declaration order.
//!
//! Reading is total and bounded. Every read is bounds-checked, an error
//! names the field that failed, and a declared count larger than the
//! bytes left is refused before anything is allocated for it: every item
//! takes at least one byte, so the check never refuses a valid value.

use crate::Error;

/// Types with a binary wire form. `#[derive(Wire)]` implements it for a
/// named-field struct by writing its fields in declaration order.
pub trait Wire: Sized {
    /// Append this value's bytes to `out`. With `long`, every length
    /// inside the value is a `u32` instead of a `u16`.
    fn put(&self, out: &mut Vec<u8>, long: bool);

    /// Read one value. `field` names it in errors; `long` as for
    /// [`Wire::put`].
    fn take(r: &mut WireReader<'_>, field: &str, long: bool) -> Result<Self, Error>;
}

/// The largest length a prefix can count.
fn max_len(long: bool) -> usize {
    if long {
        u32::MAX as usize
    } else {
        u16::MAX as usize
    }
}

fn put_len(out: &mut Vec<u8>, len: usize, long: bool) {
    if long {
        (len as u32).put(out, false);
    } else {
        (len as u16).put(out, false);
    }
}

/// Write a length prefix for `items`, then as many of them as the prefix
/// can count, each through `put_item`.
pub fn put_seq<T>(
    out: &mut Vec<u8>,
    items: &[T],
    long: bool,
    mut put_item: impl FnMut(&mut Vec<u8>, &T),
) {
    let n = items.len().min(max_len(long));
    put_len(out, n, long);
    for item in &items[..n] {
        put_item(out, item);
    }
}

/// Cursor over one encoded value. Every read is bounds-checked and
/// fails with an error naming its field instead of panicking.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize, field: &str) -> Result<&'a [u8], Error> {
        if n > self.remaining() {
            return Err(Error::msg(format!(
                "truncated frame: {field} needs {n} bytes, {} left",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self, field: &str) -> Result<[u8; N], Error> {
        let mut raw = [0; N];
        raw.copy_from_slice(self.bytes(N, field)?);
        Ok(raw)
    }

    fn len(&mut self, field: &str, long: bool) -> Result<usize, Error> {
        Ok(if long {
            u32::take(self, field, false)? as usize
        } else {
            u16::take(self, field, false)? as usize
        })
    }

    /// Read a length prefix, then that many items through `take_item`.
    /// A count larger than the bytes left is refused first, and the
    /// vector reserves no more bytes than are left.
    pub fn take_seq<T>(
        &mut self,
        field: &str,
        long: bool,
        mut take_item: impl FnMut(&mut Self) -> Result<T, Error>,
    ) -> Result<Vec<T>, Error> {
        let n = self.len(field, long)?;
        if n > self.remaining() {
            return Err(Error::msg(format!(
                "{field} declares {n} items in {} bytes",
                self.remaining()
            )));
        }
        let mut items = Vec::with_capacity(n.min(self.remaining() / size_of::<T>().max(1)));
        for _ in 0..n {
            items.push(take_item(self)?);
        }
        Ok(items)
    }

    /// Fail unless every byte was read.
    pub fn finish(&self, what: &str) -> Result<(), Error> {
        match self.remaining() {
            0 => Ok(()),
            left => Err(Error::msg(format!(
                "{what}: {left} trailing bytes after the payload"
            ))),
        }
    }
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>, _: bool) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn take(r: &mut WireReader<'_>, field: &str, _: bool) -> Result<Self, Error> {
                Ok(<$t>::from_le_bytes(r.array(field)?))
            }
        }
    )*};
}
impl_uint!(u8, u16, u32, u64);

impl Wire for usize {
    fn put(&self, out: &mut Vec<u8>, _: bool) {
        (*self as u64).put(out, false);
    }
    fn take(r: &mut WireReader<'_>, field: &str, _: bool) -> Result<Self, Error> {
        let v = u64::take(r, field, false)?;
        usize::try_from(v).map_err(|_| Error::msg(format!("{field} {v} overflows usize")))
    }
}

impl Wire for f64 {
    fn put(&self, out: &mut Vec<u8>, _: bool) {
        self.to_bits().put(out, false);
    }
    fn take(r: &mut WireReader<'_>, field: &str, _: bool) -> Result<Self, Error> {
        u64::take(r, field, false).map(f64::from_bits)
    }
}

/// A tag byte that must be 0 or 1.
fn flag(r: &mut WireReader<'_>, field: &str, what: &str) -> Result<bool, Error> {
    match u8::take(r, field, false)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(Error::msg(format!(
            "{field}: {what} tag {other} is not 0/1"
        ))),
    }
}

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>, _: bool) {
        out.push(u8::from(*self));
    }
    fn take(r: &mut WireReader<'_>, field: &str, _: bool) -> Result<Self, Error> {
        flag(r, field, "bool")
    }
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>, long: bool) {
        let mut len = self.len().min(max_len(long));
        while !self.is_char_boundary(len) {
            len -= 1;
        }
        put_len(out, len, long);
        out.extend_from_slice(&self.as_bytes()[..len]);
    }
    fn take(r: &mut WireReader<'_>, field: &str, long: bool) -> Result<Self, Error> {
        let len = r.len(field, long)?;
        std::str::from_utf8(r.bytes(len, field)?)
            .map(str::to_owned)
            .map_err(|_| Error::msg(format!("{field} is not valid UTF-8")))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>, long: bool) {
        out.push(u8::from(self.is_some()));
        if let Some(value) = self {
            value.put(out, long);
        }
    }
    fn take(r: &mut WireReader<'_>, field: &str, long: bool) -> Result<Self, Error> {
        if flag(r, field, "option")? {
            T::take(r, field, long).map(Some)
        } else {
            Ok(None)
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>, long: bool) {
        put_seq(out, self, long, |out, item| item.put(out, long));
    }
    fn take(r: &mut WireReader<'_>, field: &str, long: bool) -> Result<Self, Error> {
        r.take_seq(field, long, |r| T::take(r, field, long))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes<T: Wire>(value: &T, long: bool) -> Vec<u8> {
        let mut out = Vec::new();
        value.put(&mut out, long);
        out
    }

    fn read<T: Wire>(buf: &[u8], long: bool) -> Result<T, Error> {
        let mut r = WireReader::new(buf);
        let value = T::take(&mut r, "x", long)?;
        r.finish("x")?;
        Ok(value)
    }

    #[test]
    fn primitives_follow_the_layout_rules() {
        assert_eq!(bytes(&0x0102_u16, false), [2, 1]);
        assert_eq!(bytes(&7usize, false), bytes(&7u64, false));
        assert_eq!(bytes(&-0.0f64, false), (1u64 << 63).to_le_bytes());
        assert_eq!(bytes(&Some(true), false), [1, 1]);
        assert_eq!(bytes(&None::<u8>, false), [0]);
        assert_eq!(bytes(&"ab".to_string(), false), [2, 0, b'a', b'b']);
        assert_eq!(bytes(&"ab".to_string(), true), [2, 0, 0, 0, b'a', b'b']);
        let nested = vec![vec![1u8], vec![]];
        assert_eq!(
            bytes(&nested, true),
            [2, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0]
        );
        assert_eq!(
            read::<Vec<Vec<u8>>>(&bytes(&nested, true), true).unwrap(),
            nested
        );
        let nan = f64::from_bits(0x7ff8_0000_0000_0abc);
        assert_eq!(
            read::<f64>(&bytes(&nan, false), false).unwrap().to_bits(),
            nan.to_bits()
        );
    }

    #[test]
    fn values_past_their_prefix_are_cut() {
        // 65 535 bytes end inside the last 'é', so the cut falls before it.
        let text = "é".repeat(40_000);
        let cut: String = read(&bytes(&text, false), false).unwrap();
        assert_eq!(cut.len(), 65_534);
        assert_eq!(read::<String>(&bytes(&text, true), true).unwrap(), text);
        let items: Vec<u8> = vec![3; 70_000];
        let cut: Vec<u8> = read(&bytes(&items, false), false).unwrap();
        assert_eq!(cut.len(), 65_535);
    }

    #[test]
    fn malformed_input_names_its_field() {
        let e = |buf: &[u8]| {
            read::<Option<Vec<f64>>>(buf, false)
                .unwrap_err()
                .to_string()
        };
        assert_eq!(e(&[1, 0xff, 0xff]), "x declares 65535 items in 0 bytes");
        assert_eq!(
            e(&[1, 1, 0, 0, 0]),
            "truncated frame: x needs 8 bytes, 2 left"
        );
        assert_eq!(e(&[2]), "x: option tag 2 is not 0/1");
        assert_eq!(e(&[0, 0]), "x: 1 trailing bytes after the payload");
        assert_eq!(
            read::<bool>(&[7], false).unwrap_err().to_string(),
            "x: bool tag 7 is not 0/1"
        );
        assert_eq!(
            read::<String>(&[1, 0, 0xff], false)
                .unwrap_err()
                .to_string(),
            "x is not valid UTF-8"
        );
        assert_eq!(
            read::<usize>(&u64::MAX.to_le_bytes(), false).is_ok(),
            usize::BITS == 64
        );
    }
}
