//! Offline stand-in for `serde_json`.
//!
//! The entry points of the `serde` shim's JSON codec: `to_*` run a
//! type's [`Serialize`] through a compact or pretty [`serde::Writer`],
//! `from_*` run its [`Deserialize`] through a [`serde::Reader`] and then
//! check that only whitespace follows. No value tree is built on either
//! path. The encoder is deterministic (object keys keep declaration
//! order, floats use Rust's shortest round-trip formatting), which the
//! experiment cache relies on for byte-stable artifacts. Non-finite
//! floats encode as `null`, matching upstream `serde_json`'s lossy
//! behavior.

use serde::{Deserialize, Reader, Serialize, Writer};
pub use serde::{Error, Value};

/// Append `value`'s compact JSON to `out`.
pub fn to_writer<T: Serialize + ?Sized>(out: &mut Vec<u8>, value: &T) -> Result<(), Error> {
    value.serialize(&mut Writer::compact(out));
    Ok(())
}

/// Serialize to a compact JSON byte vector.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    let mut out = Vec::with_capacity(128);
    to_writer(&mut out, value)?;
    Ok(out)
}

/// Serialize to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    utf8(to_vec(value)?)
}

/// Serialize to a pretty-printed (2-space indented) JSON string.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = Vec::with_capacity(128);
    value.serialize(&mut Writer::pretty(&mut out));
    utf8(out)
}

fn utf8(bytes: Vec<u8>) -> Result<String, Error> {
    String::from_utf8(bytes).map_err(|e| Error::msg(format!("invalid UTF-8: {e}")))
}

/// Deserialize from JSON bytes.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error::msg(format!("invalid UTF-8: {e}")))?;
    from_str(s)
}

/// Deserialize from a JSON string. A syntax error anywhere in the
/// document, trailing characters included, wins over a conversion error
/// found before it.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut r = Reader::new(s);
    match T::deserialize(&mut r) {
        Err(e) if e.is_syntax() => Err(e),
        value => {
            r.finish()?;
            value
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_value_tree() {
        let v = Value::Object(vec![
            ("name".into(), Value::Str("a \"b\"\n".into())),
            ("n".into(), Value::UInt(42)),
            ("neg".into(), Value::Int(-7)),
            ("f".into(), Value::Float(0.1)),
            (
                "arr".into(),
                Value::Array(vec![Value::Null, Value::Bool(true)]),
            ),
            ("empty".into(), Value::Array(vec![])),
        ]);
        let compact = to_string(&v).unwrap();
        let back: Value = from_str(&compact).unwrap();
        assert_eq!(back, v);
        let pretty = to_string_pretty(&v).unwrap();
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for f in [0.1, 1.0, -3.5e-9, 1e300, f64::MIN_POSITIVE] {
            let s = to_string(&f).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{s}");
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let v = Value::Object(vec![
            ("b".into(), Value::UInt(1)),
            ("a".into(), Value::UInt(2)),
        ]);
        assert_eq!(to_string(&v).unwrap(), to_string(&v).unwrap());
        assert_eq!(to_string(&v).unwrap(), r#"{"b":1,"a":2}"#);
    }

    #[test]
    fn floats_print_shortest_round_trip_and_non_finite_as_null() {
        assert_eq!(to_string(&-0.0f64).unwrap(), "-0.0");
        assert_eq!(to_string(&5e-324f64).unwrap(), "5e-324");
        assert_eq!(to_string(&f64::MAX).unwrap(), "1.7976931348623157e308");
        assert_eq!(to_string(&1e300f64).unwrap(), "1e300");
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        // f32 is widened to f64 before printing.
        assert_eq!(to_string(&0.1f32).unwrap(), "0.10000000149011612");
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(to_string(&x).unwrap(), "null");
            assert_eq!(to_string_pretty(&x).unwrap(), "null");
        }
        for x in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert_eq!(to_string(&x).unwrap(), "null");
        }
        assert_eq!(
            to_string(&vec![1.5, f64::NAN, -2e-7]).unwrap(),
            "[1.5,null,-2e-7]"
        );
    }

    #[test]
    fn integers_print_in_full() {
        assert_eq!(to_string(&i64::MIN).unwrap(), "-9223372036854775808");
        assert_eq!(to_string(&i64::MAX).unwrap(), "9223372036854775807");
        assert_eq!(to_string(&u64::MAX).unwrap(), "18446744073709551615");
        assert_eq!(to_string(&i8::MIN).unwrap(), "-128");
        assert_eq!(to_string(&u8::MAX).unwrap(), "255");
        assert_eq!(to_string(&0usize).unwrap(), "0");
        assert_eq!(to_string(&-1i32).unwrap(), "-1");
    }

    #[test]
    fn strings_escape_control_bytes_quotes_and_backslashes_only() {
        let text: String = (0u8..0x20)
            .map(char::from)
            .chain("\"\\/é€😀\u{7f}".chars())
            .collect();
        let escaped = concat!(
            r#"\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\u0008\t\n\u000b\u000c\r\u000e\u000f"#,
            r#"\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f"#,
            r#"\"\\/é€😀"#,
            "\u{7f}"
        );
        assert_eq!(to_string(&text).unwrap(), format!("\"{escaped}\""));
        let v = Value::Object(vec![(text.clone(), Value::Str(text.clone()))]);
        assert_eq!(
            to_string(&v).unwrap(),
            format!("{{\"{escaped}\":\"{escaped}\"}}")
        );
        assert_eq!(
            to_string_pretty(&v).unwrap(),
            format!("{{\n  \"{escaped}\": \"{escaped}\"\n}}")
        );
        let back: Value = from_str(&to_string(&v).unwrap()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn pretty_printing_keeps_empty_containers_bare() {
        let v = Value::Object(vec![
            ("a".into(), Value::Array(vec![])),
            ("b".into(), Value::Object(vec![])),
            (
                "c".into(),
                Value::Array(vec![
                    Value::Array(vec![]),
                    Value::Object(vec![]),
                    Value::Array(vec![Value::Null]),
                ]),
            ),
            (
                "d".into(),
                Value::Object(vec![("e".into(), Value::Object(vec![]))]),
            ),
        ]);
        let expected = "{\n  \"a\": [],\n  \"b\": {},\n  \"c\": [\n    [],\n    {},\n    [\n      null\n    ]\n  ],\n  \"d\": {\n    \"e\": {}\n  }\n}";
        assert_eq!(to_string_pretty(&v).unwrap(), expected);
        assert_eq!(
            to_string(&v).unwrap(),
            r#"{"a":[],"b":{},"c":[[],{},[null]],"d":{"e":{}}}"#
        );
        assert_eq!(to_string_pretty(&Value::Array(vec![])).unwrap(), "[]");
        assert_eq!(to_string_pretty(&Value::Object(vec![])).unwrap(), "{}");
    }
}
