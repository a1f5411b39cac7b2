//! The JSON reader behind [`crate::Deserialize`].

use crate::{hold, Error, Value};
use std::borrow::Cow;

/// Deepest nesting of arrays and objects the reader accepts. Every level
/// costs a few stack frames, so without a cap one long line of `[`
/// would overflow the stack.
pub(crate) const MAX_DEPTH: usize = 128;

/// A scalar as read, or the kind of a container the reader skipped.
#[derive(Debug)]
pub(crate) enum Scalar<'de> {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number with no `.`, `e` or `E` that fits `i64`, written with a
    /// leading `-`.
    Int(i64),
    /// A number with no `.`, `e` or `E` that fits `u64`.
    UInt(u64),
    /// Any other number.
    Float(f64),
    /// A string, borrowed from the input unless it held escapes.
    Str(Cow<'de, str>),
    /// An array, skipped.
    Array,
    /// An object, skipped.
    Object,
}

impl Scalar<'_> {
    /// Short human name of the value's kind (for error messages).
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Scalar::Null => "null",
            Scalar::Bool(_) => "bool",
            Scalar::Int(_) | Scalar::UInt(_) => "integer",
            Scalar::Float(_) => "number",
            Scalar::Str(_) => "string",
            Scalar::Array => "array",
            Scalar::Object => "object",
        }
    }
}

/// Reads JSON values straight from a string's bytes, one pass, no tree.
///
/// Whitespace (space, tab, newline, carriage return) may stand between
/// any two tokens. Syntax errors name the byte offset they were found
/// at; nesting deeper than 128 arrays or objects is a syntax error.
#[derive(Debug)]
pub struct Reader<'de> {
    src: &'de str,
    pos: usize,
    depth: usize,
}

impl<'de> Reader<'de> {
    /// A reader at the start of `src`.
    pub fn new(src: &'de str) -> Self {
        Reader {
            src,
            pos: 0,
            depth: 0,
        }
    }

    /// End the document: only whitespace may follow its value.
    pub fn finish(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos == self.src.len() {
            Ok(())
        } else {
            Err(Error::syntax(format!(
                "trailing characters at byte {}",
                self.pos
            )))
        }
    }

    /// Consume a `null` if one comes next.
    pub(crate) fn null(&mut self) -> bool {
        self.skip_ws();
        let null = self.bytes()[self.pos..].starts_with(b"null");
        if null {
            self.pos += 4;
        }
        null
    }

    /// Read the next value as a scalar. An array or object is skipped
    /// whole (checked for syntax) and reported by kind only, which is all
    /// a type expecting a scalar needs for its error.
    pub(crate) fn scalar(&mut self) -> Result<Scalar<'de>, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal(b"null", Scalar::Null),
            Some(b't') => self.literal(b"true", Scalar::Bool(true)),
            Some(b'f') => self.literal(b"false", Scalar::Bool(false)),
            Some(b'"') => self.string().map(Scalar::Str),
            Some(b'[') => self.array("", |r| r.skip()).map(|()| Scalar::Array),
            Some(b'{') => self.object("", |r, _| r.skip()).map(|()| Scalar::Object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(Error::syntax(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            ))),
        }
    }

    /// Skip the next value, checking its syntax.
    pub fn skip(&mut self) -> Result<(), Error> {
        self.scalar().map(drop)
    }

    /// Read the next value as a [`Value`] tree.
    pub(crate) fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'[') => {
                let mut items = Vec::new();
                self.array("", |r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut pairs = Vec::new();
                self.object("", |r, key| {
                    pairs.push((key.into_owned(), r.value()?));
                    Ok(())
                })?;
                Ok(Value::Object(pairs))
            }
            _ => Ok(match self.scalar()? {
                Scalar::Null => Value::Null,
                Scalar::Bool(b) => Value::Bool(b),
                Scalar::Int(i) => Value::Int(i),
                Scalar::UInt(u) => Value::UInt(u),
                Scalar::Float(f) => Value::Float(f),
                Scalar::Str(s) => Value::Str(s.into_owned()),
                Scalar::Array | Scalar::Object => unreachable!("containers are read above"),
            }),
        }
    }

    /// Read an array, calling `item` once per element; `item` must
    /// consume that element. Anything but an array is skipped and
    /// reported as `expected {expected}, found {kind}`.
    pub(crate) fn array(
        &mut self,
        expected: &str,
        mut item: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.skip_ws();
        if self.peek() != Some(b'[') {
            let kind = self.scalar()?.kind();
            return Err(Error::expected(expected, kind));
        }
        self.open()?;
        self.skip_ws();
        if self.peek() != Some(b']') {
            loop {
                item(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => break,
                    _ => {
                        return Err(Error::syntax(format!(
                            "expected , or ] at byte {}",
                            self.pos
                        )))
                    }
                }
            }
        }
        self.close();
        Ok(())
    }

    /// Read an object, calling `field` once per key, in document order;
    /// `field` must consume that key's value. Anything but an object is
    /// skipped and reported as `expected {expected}, found {kind}`.
    pub fn object(
        &mut self,
        expected: &str,
        mut field: impl FnMut(&mut Self, Cow<'de, str>) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.skip_ws();
        if self.peek() != Some(b'{') {
            let kind = self.scalar()?.kind();
            return Err(Error::expected(expected, kind));
        }
        self.open()?;
        self.skip_ws();
        if self.peek() != Some(b'}') {
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                field(self, key)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => break,
                    _ => {
                        return Err(Error::syntax(format!(
                            "expected , or }} at byte {}",
                            self.pos
                        )))
                    }
                }
            }
        }
        self.close();
        Ok(())
    }

    /// Read an externally tagged enum of type `ty`: a unit variant as a
    /// bare string, looked up by `unit`, or a data variant as a one-key
    /// object, whose value `data` reads given the key. `data` must
    /// consume the value, also for a key it does not know.
    pub fn variant<T>(
        &mut self,
        ty: &str,
        unit: impl FnOnce(&str) -> Option<T>,
        data: impl FnOnce(&mut Self, &str) -> Result<T, Error>,
    ) -> Result<T, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => {
                let name = self.string()?;
                unit(&name).ok_or_else(|| Error::unknown_variant(&name, ty))
            }
            Some(b'{') => {
                let mut data = Some(data);
                let mut read = None;
                let mut keys = 0;
                self.object("", |r, key| {
                    keys += 1;
                    match data.take() {
                        Some(data) => read = Some(hold(data(r, &key))?),
                        None => r.skip()?,
                    }
                    Ok(())
                })?;
                match read {
                    Some(result) if keys == 1 => result,
                    _ => Err(Error::expected(&format!("variant of {ty}"), "object")),
                }
            }
            _ => {
                let kind = self.scalar()?.kind();
                Err(Error::expected(&format!("variant of {ty}"), kind))
            }
        }
    }

    fn bytes(&self) -> &'de [u8] {
        self.src.as_bytes()
    }

    fn skip_ws(&mut self) {
        let bytes = self.bytes();
        while self.pos < bytes.len() && matches!(bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r') {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::syntax(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    /// Step into the array or object whose bracket is next.
    fn open(&mut self) -> Result<(), Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::syntax(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        self.pos += 1;
        Ok(())
    }

    /// Step out past the closing bracket.
    fn close(&mut self) {
        self.depth -= 1;
        self.pos += 1;
    }

    fn literal(&mut self, lit: &[u8], v: Scalar<'de>) -> Result<Scalar<'de>, Error> {
        if self.bytes()[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(Error::syntax(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn string(&mut self) -> Result<Cow<'de, str>, Error> {
        self.expect(b'"')?;
        let bytes = self.bytes();
        // Owned only once an escape forces a copy.
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            while self.pos < bytes.len() && bytes[self.pos] != b'"' && bytes[self.pos] != b'\\' {
                self.pos += 1;
            }
            // Both ends sit next to ASCII bytes, so on char boundaries.
            let run = &self.src[start..self.pos];
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(run);
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error::syntax("unterminated escape".to_string()))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => {
                            let hex = bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::syntax("truncated \\u escape".to_string()))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .ok_or_else(|| Error::syntax("bad \\u escape".to_string()))?;
                            self.pos += 4;
                            // Surrogates have no char of their own: each
                            // half reads as U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => {
                            return Err(Error::syntax(format!(
                                "invalid escape \\{} at byte {}",
                                other as char, self.pos
                            )))
                        }
                    }
                }
                _ => return Err(Error::syntax("unterminated string".to_string())),
            }
        }
    }

    /// Read a number token: the longest run of digits, `.`, `e`, `E`,
    /// `+` and `-` after an optional leading `-`. Without `.`, `e` or
    /// `E` it is an integer when it fits one; otherwise it must parse as
    /// an `f64`.
    fn number(&mut self) -> Result<Scalar<'de>, Error> {
        let bytes = self.bytes();
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fraction = false;
        while let Some(&c) = bytes.get(self.pos) {
            match c {
                b'0'..=b'9' | b'+' | b'-' => {}
                b'.' | b'e' | b'E' => fraction = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        if !fraction {
            if let Some(magnitude) = text.strip_prefix('-') {
                if let Ok(i) = magnitude.parse::<i64>() {
                    // `--9223372036854775808` is i64::MIN negated.
                    return Ok(Scalar::Int(i.wrapping_neg()));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Scalar::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Scalar::Float)
            .map_err(|_| Error::syntax(format!("invalid number `{text}` at byte {start}")))
    }
}
