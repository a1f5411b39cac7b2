//! Offline stand-in for `serde`.
//!
//! Much smaller than upstream serde's visitor machinery, and exactly what
//! the workspace needs: `#[derive(Serialize, Deserialize)]` on plain data
//! types, with JSON as the one data format (the sibling `serde_json`
//! shim is its entry point).
//!
//! Both directions work on bytes, with no value tree in between:
//!
//! * [`Serialize`] appends compact or pretty JSON to a byte buffer
//!   through one [`Writer`]. Object keys keep declaration order, so
//!   encodings are deterministic and cached artifacts are byte-stable.
//! * [`Deserialize`] reads one JSON value straight from the bytes
//!   through a [`Reader`]. Syntax errors end the document at once. A
//!   conversion error (a wrong type, a missing key) is held while the
//!   reader finishes the document, so a later syntax error still wins,
//!   and struct fields report in declaration order.
//!
//! [`Value`] is the one tree type, for callers that want a document
//! without a schema; it serializes and deserializes like any other type.

pub use serde_derive::{Deserialize, Serialize};

mod read;
mod write;

pub use read::Reader;
use read::Scalar;
pub use write::Writer;

/// Owned JSON-like value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer (only produced for negative numbers).
    Int(i64),
    /// Unsigned integer.
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object with insertion-ordered keys.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Borrow as an object's key/value pairs.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Short human name of the value's kind (for error messages).
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Serialization/deserialization error.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
    /// The bytes are not JSON (as opposed to JSON of the wrong shape).
    syntax: bool,
}

impl Error {
    /// Free-form conversion error.
    pub fn msg(msg: impl Into<String>) -> Self {
        Error {
            msg: msg.into(),
            syntax: false,
        }
    }

    /// "expected X, found Y" error.
    pub fn expected(what: &str, found: &str) -> Self {
        Error::msg(format!("expected {what}, found {found}"))
    }

    /// Unknown enum variant error.
    pub fn unknown_variant(variant: &str, ty: &str) -> Self {
        Error::msg(format!("unknown variant `{variant}` for {ty}"))
    }

    fn syntax(msg: String) -> Self {
        Error { msg, syntax: true }
    }

    /// Whether the input is not JSON at all. Such an error ends the
    /// document; any other waits for the reader to finish it.
    pub fn is_syntax(&self) -> bool {
        self.syntax
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

/// Types that write themselves as JSON.
pub trait Serialize {
    /// Append this value's JSON to `w`.
    fn serialize(&self, w: &mut Writer<'_>);
}

/// Types that read themselves from JSON.
///
/// `deserialize` reads exactly one value. On success, and on a
/// conversion error, the reader is left just past that value, so the
/// caller can go on with the document; after a syntax error the
/// reader's position means nothing.
pub trait Deserialize: Sized {
    /// Read one value of this type.
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error>;

    /// Read a JSON array of this type. Numbers override it to collect
    /// through a stack buffer, so a short array allocates once, at its
    /// final length.
    fn deserialize_vec(r: &mut Reader<'_>) -> Result<Vec<Self>, Error> {
        let mut items = Vec::new();
        each(r, |item| items.push(item))?;
        Ok(items)
    }
}

/// Read a JSON array, handing each element to `push`. After the first
/// element that fails to convert the rest are only checked for syntax,
/// and that error is returned once the array is read.
fn each<T: Deserialize>(r: &mut Reader<'_>, mut push: impl FnMut(T)) -> Result<(), Error> {
    let mut failed = None;
    r.array("array", |r| {
        if failed.is_some() {
            return r.skip();
        }
        match hold(T::deserialize(r))? {
            Ok(item) => push(item),
            Err(e) => failed = Some(e),
        }
        Ok(())
    })?;
    failed.map_or(Ok(()), Err)
}

/// Split a result: a syntax error ends the document (`Err`), anything
/// else is the caller's to keep (`Ok`).
fn hold<T>(result: Result<T, Error>) -> Result<Result<T, Error>, Error> {
    match result {
        Err(e) if e.syntax => Err(e),
        other => Ok(other),
    }
}

/// One struct field while its object is read: empty until the key
/// appears, then the first occurrence's value or conversion error. The
/// derive builds one per field and takes them in declaration order, which
/// fixes the order conversion errors report in.
#[derive(Debug, Clone)]
pub struct Slot<T>(Option<Result<T, Error>>);

impl<T> Default for Slot<T> {
    fn default() -> Self {
        Slot(None)
    }
}

impl<T> Slot<T> {
    /// An empty slot.
    pub fn new() -> Self {
        Slot(None)
    }

    /// The value of a required key.
    pub fn take(self, key: &str, ty: &str) -> Result<T, Error> {
        self.0
            .unwrap_or_else(|| Err(Error::msg(format!("missing field `{key}` in {ty}"))))
    }

    /// The value of a key that may be absent: `absent` when it is.
    pub fn take_or(self, absent: T) -> Result<T, Error> {
        self.0.unwrap_or(Ok(absent))
    }
}

impl<T: Deserialize> Slot<T> {
    /// Read this key's value. A repeated key is only checked for
    /// syntax: the first occurrence counts.
    pub fn read(&mut self, r: &mut Reader<'_>) -> Result<(), Error> {
        if self.0.is_some() {
            return r.skip();
        }
        self.0 = Some(hold(T::deserialize(r))?);
        Ok(())
    }
}

// ---------------------------------------------------------------- primitives

impl Serialize for bool {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.bool(*self);
    }
}

impl Deserialize for bool {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        match r.scalar()? {
            Scalar::Bool(b) => Ok(b),
            other => Err(Error::expected("bool", other.kind())),
        }
    }
}

/// Collect a JSON array of numbers through a stack buffer: up to 32 of
/// them allocate once, at their final length.
fn number_vec<T: Deserialize + Copy + Default>(r: &mut Reader<'_>) -> Result<Vec<T>, Error> {
    let mut buf = [T::default(); 32];
    let mut n = 0;
    let mut spilled = Vec::new();
    each(r, |x| {
        if n < buf.len() {
            buf[n] = x;
            n += 1;
        } else {
            if spilled.is_empty() {
                spilled.extend_from_slice(&buf);
            }
            spilled.push(x);
        }
    })?;
    Ok(if spilled.is_empty() {
        buf[..n].to_vec()
    } else {
        spilled
    })
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer<'_>) {
                w.u64(*self as u64);
            }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                let raw = match r.scalar()? {
                    Scalar::UInt(u) => u,
                    Scalar::Int(i) if i >= 0 => i as u64,
                    other => return Err(Error::expected("unsigned integer", other.kind())),
                };
                <$t>::try_from(raw)
                    .map_err(|_| Error::msg(format!("{raw} out of range for {}", stringify!($t))))
            }
            fn deserialize_vec(r: &mut Reader<'_>) -> Result<Vec<Self>, Error> {
                number_vec(r)
            }
        }
    )*};
}
impl_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer<'_>) {
                w.i64(*self as i64);
            }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                let raw: i64 = match r.scalar()? {
                    Scalar::Int(i) => i,
                    Scalar::UInt(u) => i64::try_from(u)
                        .map_err(|_| Error::msg(format!("{u} out of range for i64")))?,
                    other => return Err(Error::expected("integer", other.kind())),
                };
                <$t>::try_from(raw)
                    .map_err(|_| Error::msg(format!("{raw} out of range for {}", stringify!($t))))
            }
            fn deserialize_vec(r: &mut Reader<'_>) -> Result<Vec<Self>, Error> {
                number_vec(r)
            }
        }
    )*};
}
impl_int!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer<'_>) {
                w.f64(*self as f64);
            }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                match r.scalar()? {
                    Scalar::Float(f) => Ok(f as $t),
                    Scalar::Int(i) => Ok(i as $t),
                    Scalar::UInt(u) => Ok(u as $t),
                    // Non-finite floats are encoded as null (JSON has no NaN).
                    Scalar::Null => Ok(<$t>::NAN),
                    other => Err(Error::expected("number", other.kind())),
                }
            }
            fn deserialize_vec(r: &mut Reader<'_>) -> Result<Vec<Self>, Error> {
                number_vec(r)
            }
        }
    )*};
}
impl_float!(f32, f64);

impl Serialize for String {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.str(self);
    }
}

impl Deserialize for String {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        match r.scalar()? {
            Scalar::Str(s) => Ok(s.into_owned()),
            other => Err(Error::expected("string", other.kind())),
        }
    }
}

impl Serialize for str {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.str(self);
    }
}

impl Serialize for char {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.str(self.encode_utf8(&mut [0; 4]));
    }
}

// -------------------------------------------------------------- containers

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, w: &mut Writer<'_>) {
        (**self).serialize(w);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, w: &mut Writer<'_>) {
        match self {
            None => w.null(),
            Some(x) => x.serialize(w),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        if r.null() {
            Ok(None)
        } else {
            T::deserialize(r).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.begin_array();
        for item in self {
            w.element();
            item.serialize(w);
        }
        w.end_array();
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, w: &mut Writer<'_>) {
        self.as_slice().serialize(w);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        T::deserialize_vec(r)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, w: &mut Writer<'_>) {
        self.as_slice().serialize(w);
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let items: Vec<T> = Vec::deserialize(r)?;
        let n = items.len();
        items
            .try_into()
            .map_err(|_| Error::msg(format!("expected array of length {N}, got {n}")))
    }
}

macro_rules! impl_tuple {
    ($(($($t:ident : $idx:tt),+),)*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize(&self, w: &mut Writer<'_>) {
                w.begin_array();
                $(
                    w.element();
                    self.$idx.serialize(w);
                )+
                w.end_array();
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                let mut slots = ($(Slot::<$t>::new(),)+);
                let mut n = 0usize;
                r.array("array (tuple)", |r| {
                    match n {
                        $($idx => slots.$idx.read(r)?,)+
                        _ => r.skip()?,
                    }
                    n += 1;
                    Ok(())
                })?;
                let expected = [$(stringify!($idx)),+].len();
                if n != expected {
                    return Err(Error::msg(format!(
                        "expected tuple of length {expected}, got {n}")));
                }
                // Every slot was read once, so none is missing.
                Ok(($(slots.$idx.take("", "")?,)+))
            }
        }
    )*};
}
impl_tuple! {
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
}

impl Serialize for Value {
    fn serialize(&self, w: &mut Writer<'_>) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::Int(i) => w.i64(*i),
            Value::UInt(u) => w.u64(*u),
            Value::Float(f) => w.f64(*f),
            Value::Str(s) => w.str(s),
            Value::Array(items) => items.serialize(w),
            Value::Object(pairs) => {
                w.begin_object();
                for (key, value) in pairs {
                    w.key(key);
                    value.serialize(w);
                }
                w.end_object();
            }
        }
    }
}

impl Deserialize for Value {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.value()
    }
}
