//! The committed decode transcript: what the JSON reader makes of a
//! fixed set of request, reply and journal lines, byte for byte.
//!
//! Each line of `baselines/decode-transcript.jsonl` names a target type
//! (`Request`, `Response` or `JournalLine`), one input, and one outcome:
//! `value`, the decoded value encoded again, or `error`, the exact error
//! message. The inputs cover
//!
//! * every request kind, valid;
//! * each field of `Select`, `Feedback`, `Swap`, `Sync`, `Batch` and a
//!   batch body: absent, `null`, and every other JSON type;
//! * repeated and unknown keys, unit variants written as objects, data
//!   variants written as strings, `{}` and two-key variant objects;
//! * number spellings (`-0`, `1e999`, integers past both 64-bit ranges,
//!   `01`, `.5`, `5.`, `1e`, `--1`, `1-2`, ...) in counts and in
//!   feature values;
//! * string escapes, raw control bytes and unterminated strings, in
//!   values, keys and variant names;
//! * whitespace inserted at every byte of a request, and trailing
//!   garbage, also after a field that fails to convert;
//! * every byte prefix of one inline `Select` line and one `Feedback`
//!   line;
//! * arrays and objects nested up to 128 levels;
//! * every reply in `baselines/select-transcript.jsonl`, as `Response`
//!   inputs, plus replies and journal lines with missing or mistyped
//!   fields.
//!
//! On a mismatch the test names the first differing line and writes the
//! whole actual transcript next to the test binaries for inspection.

use serde::{Deserialize, Serialize};
use spsel_serve::journal::JournalLine;
use spsel_serve::{Request, Response};
use std::path::Path;

const BASELINE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../baselines/decode-transcript.jsonl"
);
const SELECT_TRANSCRIPT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../baselines/select-transcript.jsonl"
);

/// A value of every JSON type, several spellings of some.
const VALUES: [&str; 16] = [
    "null",
    "true",
    "false",
    "0",
    "7",
    "-3",
    "-0",
    "1.5",
    "1e2",
    "\"x\"",
    "\"\"",
    "[]",
    "[1,2]",
    "[\"a\"]",
    "{}",
    "{\"a\":1}",
];

/// Number spellings, valid and not.
const NUMBERS: [&str; 34] = [
    "-0",
    "0",
    "-0.0",
    "0.0",
    "1e999",
    "-1e999",
    "18446744073709551615",
    "18446744073709551616",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775808",
    "-9223372036854775809",
    "1.5",
    "-1",
    "01",
    "-01",
    ".5",
    "-.5",
    "5.",
    "1e",
    "1e+",
    "--1",
    "-+1",
    "1-2",
    "1+2",
    "-",
    "+1",
    "1e+2",
    "1E2",
    "1e-2",
    "1.e3",
    "5e-324",
    "2.5e-324",
    "1.7976931348623157e308",
];

/// Raw JSON string tokens: escapes, control bytes, non-ASCII text and
/// strings that never end.
const STRINGS: [&str; 22] = [
    r#""\u0041""#,
    r#""\u0061bc""#,
    r#""\ud800""#,
    r#""\ud83d\ude00""#,
    r#""\/""#,
    r#""\x""#,
    r#""\u12""#,
    r#""\u12zz""#,
    r#""\u+041""#,
    r#""\b\f\n\r\t\"\\""#,
    "\"é\"",
    r#""\u00e9""#,
    "\"a\u{1}b\"",
    "\"tab\there\"",
    "\"\u{7f}\"",
    "\"\u{1F600}\"",
    r#""Pasc"#,
    r#""Pasc\"#,
    r#""Pasc\u00"#,
    r#""Pasc\""#,
    r#""""#,
    r#""PASCAL""#,
];

/// One object body: `(key, raw JSON value)` pairs in order.
type Body = Vec<(&'static str, String)>;

fn object(body: &Body) -> String {
    let pairs: Vec<String> = body.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", pairs.join(","))
}

fn variant(name: &str, body: &Body) -> String {
    format!("{{\"{name}\":{}}}", object(body))
}

fn select_body() -> Body {
    vec![
        ("matrix", "\"a.mtx\"".into()),
        ("features", "[1.5,2,-3e-2]".into()),
        ("gpu", "\"Pascal\"".into()),
        ("iterations", "1000".into()),
        ("deadline_ms", "20".into()),
        ("learn", "true".into()),
        ("workload", "\"spmm32\"".into()),
    ]
}

fn batch_item() -> Body {
    vec![
        ("matrix", "null".into()),
        ("features", "[0.5,4]".into()),
        ("gpu", "\"Volta\"".into()),
        ("iterations", "10".into()),
        ("learn", "false".into()),
        ("workload", "\"spmv\"".into()),
    ]
}

fn batch_body() -> Body {
    vec![
        ("requests", format!("[{}]", object(&batch_item()))),
        ("deadline_ms", "50".into()),
    ]
}

fn feedback_body() -> Body {
    vec![
        ("gpu", "\"Pascal\"".into()),
        ("cluster", "3".into()),
        ("best", "\"ELL\"".into()),
    ]
}

fn swap_body() -> Body {
    vec![
        ("path", "\"m.spsel\"".into()),
        ("expected_digest", "\"abc\"".into()),
    ]
}

fn sync_body() -> Body {
    vec![("from_seq", "5".into())]
}

/// The body with field `i` replaced by `value` (`None`: removed).
fn with(body: &Body, i: usize, value: Option<&str>) -> Body {
    let mut out = body.clone();
    match value {
        Some(v) => out[i].1 = v.to_string(),
        None => {
            out.remove(i);
        }
    }
    out
}

/// A `Select` line as the serving benchmark sends it: 21 inline
/// features, every optional key spelled out.
const INLINE_SELECT: &str = "{\"Select\":{\"matrix\":null,\"features\":[4096.0,4096.0,20480.0,\
0.001220703125,5.0,5.0,5.0,0.0,0.0,1.0,5.0,5.0,0.0,0.0,1.0,3.0,0.0,0.0,1.0,0.0,0.0],\
\"gpu\":\"pascal\",\"iterations\":1000,\"deadline_ms\":null,\"learn\":false,\"workload\":\"spmm32\"}}";
const FEEDBACK: &str = "{\"Feedback\":{\"gpu\":\"pascal\",\"cluster\":2,\"best\":\"ELL\"}}";

fn request_inputs() -> Vec<String> {
    // Every request kind, valid.
    let mut out: Vec<String> = vec![
        variant("Select", &select_body()),
        INLINE_SELECT.to_string(),
        r#"{"Select":{"gpu":"Pascal"}}"#.into(),
        r#"{"Select":{"matrix":"x.mtx","features":null,"gpu":"turing","iterations":null,"deadline_ms":null,"learn":null,"workload":null}}"#.into(),
        variant("Batch", &batch_body()),
        r#"{"Batch":{"requests":[]}}"#.into(),
        r#"{"Batch":{"requests":[{"gpu":"Pascal"},{"gpu":"Volta","features":[]}],"deadline_ms":null}}"#.into(),
        variant("Feedback", &feedback_body()),
        FEEDBACK.into(),
        variant("Swap", &swap_body()),
        r#"{"Swap":{"path":"m.spsel"}}"#.into(),
        variant("Sync", &sync_body()),
        "\"Stats\"".into(),
        "\"Shutdown\"".into(),
    ];

    // Each field: absent, then every JSON type in its place.
    let kinds: [(&str, Body); 5] = [
        ("Select", select_body()),
        ("Feedback", feedback_body()),
        ("Swap", swap_body()),
        ("Sync", sync_body()),
        ("Batch", batch_body()),
    ];
    for (name, body) in &kinds {
        for i in 0..body.len() {
            out.push(variant(name, &with(body, i, None)));
            for v in VALUES {
                out.push(variant(name, &with(body, i, Some(v))));
            }
        }
    }
    let item = batch_item();
    for i in 0..item.len() {
        for value in std::iter::once(None).chain(VALUES.iter().map(|v| Some(*v))) {
            let body = vec![
                ("requests", format!("[{}]", object(&with(&item, i, value)))),
                ("deadline_ms", "50".into()),
            ];
            out.push(variant("Batch", &body));
        }
    }
    // Feature arrays holding other types.
    for v in VALUES {
        out.push(format!(
            r#"{{"Select":{{"gpu":"Pascal","features":[1,{v},2]}}}}"#
        ));
    }

    // Repeated and unknown keys.
    for raw in [
        r#"{"Select":{"gpu":"Pascal","gpu":"Volta"}}"#,
        r#"{"Select":{"gpu":"Pascal","gpu":7}}"#,
        r#"{"Select":{"gpu":7,"gpu":"Pascal"}}"#,
        r#"{"Select":{"gpu":"Pascal","features":[1],"features":"x"}}"#,
        r#"{"Select":{"features":"x","gpu":"Pascal","features":[1]}}"#,
        r#"{"Select":{"learn":1,"gpu":"Pascal","learn":true}}"#,
        r#"{"Feedback":{"gpu":"a","cluster":1,"best":"b","cluster":-1}}"#,
        r#"{"Feedback":{"cluster":-1,"gpu":"a","cluster":1,"best":"b"}}"#,
        r#"{"Sync":{"from_seq":1,"from_seq":2}}"#,
        r#"{"Select":{"gpu":"Pascal","extra":[1,{"a":null}],"more":{"b":[true]}}}"#,
        r#"{"Select":{"gpu":"Pascal","Select":{"gpu":"Volta"}}}"#,
        r#"{"Sync":{"from_seq":1,"deadline_ms":"x"}}"#,
        r#"{"Batch":{"requests":[{"gpu":"Pascal","deadline_ms":5}]}}"#,
        r#"{"Select":{"gpu":7,"iterations":-1,"learn":"no"}}"#,
        r#"{"Select":{"learn":"no","iterations":-1,"gpu":7}}"#,
        r#"{"Select":{"iterations":-1,"learn":"no"}}"#,
        r#"{"Feedback":{"best":1,"cluster":"x"}}"#,
        r#"{"Batch":{"requests":[{"gpu":1},{"gpu":2}],"deadline_ms":"x"}}"#,
        r#"{"Batch":{"deadline_ms":"x","requests":[{"gpu":1}]}}"#,
    ] {
        out.push(raw.into());
    }

    // Variant shapes.
    for raw in [
        r#"{"Stats":{}}"#,
        r#"{"Stats":null}"#,
        r#"{"Shutdown":1}"#,
        r#""Select""#,
        r#""Feedback""#,
        r#""Batch""#,
        r#""Swap""#,
        r#""Sync""#,
        r#""stats""#,
        r#""Nope""#,
        r#""""#,
        "{}",
        r#"{"Nope":1}"#,
        r#"{"Nope":[1,{"a":2}]}"#,
        r#"{"Select":{"gpu":"Pascal"},"Stats":null}"#,
        r#"{"Stats":null,"Select":{"gpu":"Pascal"}}"#,
        r#"{"Nope":1,"Select":{"gpu":"Pascal"}}"#,
        r#"{"Select":{"gpu":7},"Stats":null}"#,
        r#"{"Select":{"gpu":"Pascal"},"Select":{"gpu":"Volta"}}"#,
        r#"{"Select":{"gpu":"Pascal"},"x":}"#,
        r#"{"Select":null}"#,
        r#"{"Select":[]}"#,
        r#"{"Select":"Pascal"}"#,
        r#"{"Sync":5}"#,
        r#"{"Batch":[]}"#,
        "null",
        "true",
        "1",
        "-1",
        "1.5",
        "[]",
        "[\"Stats\"]",
        "",
        " ",
        "nul",
        "nulll",
        "tru",
        "falsey",
        "{",
        "}",
        "[",
        "]",
        ",",
        ":",
        "{\"Stats\"}",
        "{\"Stats\":}",
        "{\"Stats\" null}",
        "{\"Select\":{\"gpu\":\"Pascal\",}}",
        "{\"Select\":{,\"gpu\":\"Pascal\"}}",
        "{\"Select\":{\"gpu\":\"Pascal\"]}",
        "{\"Select\":{\"features\":[1,]}}",
        "{\"Select\":{\"features\":[,1]}}",
        "{\"Select\":{\"features\":[1 2]}}",
        "{\"Select\":{\"features\":[1}}}",
        "{Select:1}",
        "{1:2}",
        "{\"Select\"::1}",
        "'Stats'",
        "\u{feff}\"Stats\"",
        "é",
    ] {
        out.push(raw.into());
    }

    // Number spellings in every number-carrying place.
    for n in NUMBERS {
        out.push(format!(r#"{{"Sync":{{"from_seq":{n}}}}}"#));
        out.push(format!(
            r#"{{"Feedback":{{"gpu":"a","cluster":{n},"best":"b"}}}}"#
        ));
        out.push(format!(r#"{{"Select":{{"gpu":"a","iterations":{n}}}}}"#));
        out.push(format!(r#"{{"Select":{{"gpu":"a","deadline_ms":{n}}}}}"#));
        out.push(format!(r#"{{"Select":{{"gpu":"a","features":[{n}]}}}}"#));
        out.push(format!(
            r#"{{"Select":{{"gpu":"a","features":[1,{n},2]}}}}"#
        ));
        out.push(format!(r#"{{"Select":{{"gpu":"a","extra":{n}}}}}"#));
        out.push(n.to_string());
    }

    // Escapes and raw bytes in values, keys and variant names.
    for s in STRINGS {
        out.push(format!(r#"{{"Select":{{"gpu":{s}}}}}"#));
        out.push(format!(r#"{{"Select":{{"gpu":"a","workload":{s}}}}}"#));
        out.push(format!(r#"{{"Select":{{"gpu":"a",{s}:1}}}}"#));
        out.push(format!(r#"{{{s}:{{"gpu":"a"}}}}"#));
        out.push(s.to_string());
    }
    for raw in [
        r#"{"Select":{"\u0067pu":"Pascal"}}"#,
        r#"{"Sel\u0065ct":{"gpu":"Pascal"}}"#,
        r#""\u0053tats""#,
        r#"{"Select":{"gpu":"Pascal","gpu\u0000":7}}"#,
        r#"{"Feedback":{"gpu":"a\nb","cluster":1,"best":"\u001f\u007f"}}"#,
    ] {
        out.push(raw.into());
    }

    // Whitespace at every byte of a short request, and around it.
    let short = r#"{"Select":{"matrix":null,"features":[1.5,-2e3],"gpu":"Pascal","iterations":10,"learn":true}}"#;
    for at in 0..=short.len() {
        out.push(format!("{} \t\n\r{}", &short[..at], &short[at..]));
    }
    for at in 0..=FEEDBACK.len() {
        out.push(format!("{} {}", &FEEDBACK[..at], &FEEDBACK[at..]));
    }

    // Trailing garbage, also after a field that fails to convert, and a
    // syntax error after one.
    for raw in [
        "\"Stats\" x",
        "\"Stats\"\"Stats\"",
        "\"Stats\" \"Stats\"",
        "\"Stats\" \t\n\r",
        "{\"Sync\":{\"from_seq\":1}}}",
        "{\"Sync\":{\"from_seq\":1}},",
        "{\"Sync\":{\"from_seq\":1}} 1",
        "{\"Sync\":{\"from_seq\":1}}\n{\"Sync\":{\"from_seq\":2}}",
        "{\"Sync\":{\"from_seq\":-1}} x",
        "{\"Sync\":{\"from_seq\":\"a\"}}]",
        "{\"Select\":{\"gpu\":7,\"features\":[1,}}",
        "{\"Select\":{\"gpu\":7,\"features\":[1,2]}",
        "{\"Select\":{\"gpu\":7},\"x\"}",
        "{\"Nope\":1} 2",
        "\"Nope\" 2",
        "{} x",
        "[1,2] x",
        "{\"Select\":{\"gpu\":\"a\",\"features\":\"x\",\"extra\":[1e]}}",
        "{\"Select\":{\"gpu\":\"a\",\"features\":\"x\",\"extra\":\"\\q\"}}",
    ] {
        out.push(raw.into());
    }

    // Every byte prefix of one inline Select line and one Feedback line.
    for end in 0..INLINE_SELECT.len() {
        out.push(INLINE_SELECT[..end].to_string());
    }
    for end in 0..FEEDBACK.len() {
        out.push(FEEDBACK[..end].to_string());
    }

    // Nesting up to 128 levels, counting every `[` and `{` from the top.
    for depth in [1usize, 2, 3, 8, 64, 126, 127, 128] {
        let arrays = |n: usize| format!("{}1{}", "[".repeat(n), "]".repeat(n));
        let objects = |n: usize| format!("{}1{}", "{\"a\":".repeat(n), "}".repeat(n));
        out.push(arrays(depth));
        out.push(objects(depth));
        out.push("[".repeat(depth));
        out.push(format!("{}{}", "[".repeat(depth), "]".repeat(depth)));
        if depth >= 2 {
            out.push(format!(
                r#"{{"Select":{{"gpu":"a","features":{}}}}}"#,
                arrays(depth - 2)
            ));
            out.push(format!(
                r#"{{"Select":{{"gpu":"a","extra":{}}}}}"#,
                objects(depth - 2)
            ));
            out.push(format!(r#"{{"Nope":{}}}"#, arrays(depth - 1)));
        }
        if depth >= 5 {
            let mixed: String = (0..depth - 4)
                .map(|i| if i % 2 == 0 { "[" } else { "{\"k\":" })
                .collect();
            let close: String = (0..depth - 4)
                .rev()
                .map(|i| if i % 2 == 0 { "]" } else { "}" })
                .collect();
            out.push(format!(
                r#"{{"Batch":{{"requests":[{{"gpu":"a","x":{mixed}0{close}}}]}}}}"#
            ));
        }
    }
    out
}

fn response_inputs() -> Vec<String> {
    let transcript =
        std::fs::read_to_string(SELECT_TRANSCRIPT).expect("read the select transcript");
    let mut out: Vec<String> = transcript
        .lines()
        .map(|line| {
            let at = line
                .find(",\"response\":")
                .expect("a response in every line");
            line[at + ",\"response\":".len()..line.len() - 1].to_string()
        })
        .collect();
    let reply = out[0].clone();
    for raw in [
        "{\"ok\":true}",
        "{\"ok\":\"yes\",\"error\":null,\"select\":null,\"batch\":null,\"feedback\":null,\"stats\":null,\"swap\":null,\"sync\":null,\"shutdown\":null}",
        "{\"ok\":false,\"error\":{\"code\":\"bad_request\",\"message\":\"m\"},\"select\":null,\"batch\":null,\"feedback\":null,\"stats\":null,\"swap\":null,\"sync\":null,\"shutdown\":null}",
        "{\"ok\":false,\"error\":{\"code\":\"bad_request\"},\"select\":null,\"batch\":null,\"feedback\":null,\"stats\":null,\"swap\":null,\"sync\":null,\"shutdown\":null}",
        "{\"ok\":true,\"error\":null,\"select\":null,\"batch\":[],\"feedback\":null,\"stats\":null,\"swap\":null,\"sync\":null,\"shutdown\":{\"stopping\":true}}",
        "{\"ok\":true,\"error\":null,\"select\":null,\"batch\":null,\"feedback\":null,\"stats\":null,\"swap\":null,\"sync\":{\"last_seq\":3,\"checkpoint_seq\":1,\"context_digest\":\"d\",\"checkpoint\":null,\"records\":[\"{\\\"Header\\\":{}}\"]},\"shutdown\":null}",
        "[]",
        "null",
    ] {
        out.push(raw.into());
    }
    // A reply with its fields replaced one by one.
    for (key, value) in [
        ("\"cluster\":", "-1"),
        ("\"cluster\":", "1.0"),
        ("\"centroid_distance\":", "null"),
        ("\"centroid_distance\":", "\"x\""),
        ("\"predicted\":", "{}"),
        ("\"break_even_iterations\":", "null"),
        ("\"us\":", "null"),
        ("\"us\":", "true"),
        ("\"format\":", "1"),
        ("\"gpu\":", "[]"),
    ] {
        let at = reply.find(key).expect("the reply has the key") + key.len();
        let end = at + reply[at..].find([',', '}']).expect("the value ends");
        out.push(format!("{}{value}{}", &reply[..at], &reply[end..]));
    }
    out
}

fn journal_inputs() -> Vec<String> {
    let observe = "{\"Observe\":{\"seq\":1,\"gpu\":\"Pascal\",\"features\":[1.0,0.5,-2.0,1e300]}}";
    let mut out: Vec<String> = vec![
        "{\"Header\":{\"version\":2,\"base_seq\":0}}".into(),
        "{\"Header\":{\"version\":2}}".into(),
        "{\"Header\":{\"version\":4294967296,\"base_seq\":0}}".into(),
        "{\"Header\":{\"version\":-1,\"base_seq\":0}}".into(),
        observe.into(),
        "{\"Observe\":{\"seq\":1,\"gpu\":\"Pascal\",\"features\":[null,1]}}".into(),
        "{\"Observe\":{\"seq\":1,\"gpu\":\"Pascal\",\"features\":null}}".into(),
        "{\"Feedback\":{\"seq\":2,\"gpu\":\"Pascal\",\"cluster\":3,\"best\":\"ELL\"}}".into(),
        "{\"Feedback\":{\"seq\":2,\"gpu\":\"Pascal\",\"cluster\":3}}".into(),
        "{\"gpu\":\"Pascal\",\"cluster\":3,\"best\":\"ELL\"}".into(),
        "\"Header\"".into(),
        "{\"Header\":{\"version\":2,\"base_seq\":0},\"Observe\":{}}".into(),
    ];
    for end in 0..observe.len() {
        out.push(observe[..end].to_string());
    }
    out
}

/// One transcript line: the target, the input, and what decoding it
/// gave.
fn entry<T: Deserialize + Serialize>(target: &str, input: &str) -> String {
    let outcome = match serde_json::from_str::<T>(input) {
        Ok(value) => format!(
            "\"value\":{}",
            serde_json::to_string(&value).expect("decoded values encode")
        ),
        Err(e) => format!(
            "\"error\":{}",
            serde_json::to_string(&e.to_string()).expect("messages encode")
        ),
    };
    format!(
        "{{\"target\":\"{target}\",\"input\":{},{outcome}}}",
        serde_json::to_string(input).expect("inputs encode")
    )
}

#[test]
fn decode_outcomes_match_the_committed_transcript() {
    let mut lines: Vec<String> = Vec::new();
    lines.extend(
        request_inputs()
            .iter()
            .map(|i| entry::<Request>("Request", i)),
    );
    lines.extend(
        response_inputs()
            .iter()
            .map(|i| entry::<Response>("Response", i)),
    );
    lines.extend(
        journal_inputs()
            .iter()
            .map(|i| entry::<JournalLine>("JournalLine", i)),
    );
    let actual = lines.join("\n") + "\n";

    let expected = std::fs::read_to_string(BASELINE).unwrap_or_default();
    if actual != expected {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("decode-transcript.jsonl");
        std::fs::write(&out, &actual).expect("write the actual transcript");
        let (want, got): (Vec<&str>, Vec<&str>) =
            (expected.lines().collect(), actual.lines().collect());
        let line = (0..want.len().max(got.len()))
            .find(|&i| want.get(i) != got.get(i))
            .unwrap_or(want.len());
        panic!(
            "decode transcript differs from {BASELINE} at line {}\n  expected: {}\n  actual:   {}\n\
             (the whole actual transcript is in {})",
            line + 1,
            want.get(line).unwrap_or(&"<end of file>"),
            got.get(line).unwrap_or(&"<end of file>"),
            out.display()
        );
    }
}
