//! Derive macros for the offline `serde` stand-in.
//!
//! Hand-rolled token parsing (no `syn`/`quote` available offline). Supports
//! the shapes this workspace serializes: non-generic named-field structs and
//! enums whose variants are unit or struct-like. A field may carry
//! `#[serde(default)]`: an absent key then reads as the field type's
//! `Default` (`None` for an `Option`). Tuple structs, tuple variants,
//! generics and any other `#[serde(...)]` attribute are rejected loudly.
//!
//! The generated code writes and reads JSON directly: `Serialize` emits
//! each key literal and the field's own write, and `Deserialize` emits a
//! key dispatch that reads each field into a `serde::Slot`, then takes
//! the slots in declaration order. Structs are objects; enums are
//! externally tagged (a unit variant is a bare string, a struct variant a
//! one-key object).

use proc_macro::{Delimiter, Group, TokenStream, TokenTree};

enum Shape {
    /// Named fields.
    Struct(Vec<Field>),
    /// Variants: name plus `None` (unit) or named fields (struct-like).
    Enum(Vec<(String, Option<Vec<Field>>)>),
}

/// One named field.
struct Field {
    name: String,
    /// `#[serde(default)]`: the key may be absent.
    default: bool,
}

/// Split a brace group's stream at top-level commas, tracking `<`/`>` depth
/// so commas inside generic arguments don't split (commas inside `()`/`[]`
/// groups are naturally nested tokens and never seen here).
fn split_commas(group: &Group) -> Vec<Vec<TokenTree>> {
    let mut parts: Vec<Vec<TokenTree>> = vec![Vec::new()];
    let mut angle = 0i32;
    for tok in group.stream() {
        if let TokenTree::Punct(p) = &tok {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle == 0 => {
                    parts.push(Vec::new());
                    continue;
                }
                _ => {}
            }
        }
        parts.last_mut().unwrap().push(tok);
    }
    if parts.last().is_some_and(|p| p.is_empty()) {
        parts.pop();
    }
    parts
}

/// Skip leading `#[...]` attributes and visibility, returning the index of
/// the first substantive token.
fn skip_attrs_and_vis(toks: &[TokenTree], mut i: usize) -> usize {
    loop {
        match toks.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                i += 1; // the `[...]` group
                if matches!(toks.get(i), Some(TokenTree::Group(_))) {
                    i += 1;
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1; // optional `(crate)` etc.
                if matches!(
                    toks.get(i),
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
                ) {
                    i += 1;
                }
            }
            _ => return i,
        }
    }
}

/// Whether an attribute group (the `[...]` after `#`) is
/// `serde(default)`; any other `serde(...)` is refused.
fn is_serde_default(attr: &Group) -> bool {
    let toks: Vec<TokenTree> = attr.stream().into_iter().collect();
    match toks.first() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {
            let args = toks.get(1).map(|t| t.to_string());
            assert!(
                toks.len() == 2 && args.as_deref() == Some("(default)"),
                "serde derive: only #[serde(default)] is supported by the offline shim"
            );
            true
        }
        _ => false,
    }
}

/// One comma-separated part of a struct body: the field's name and
/// whether it carries `#[serde(default)]`.
fn field(part: &[TokenTree]) -> Field {
    let default = part.windows(2).any(|w| match w {
        [TokenTree::Punct(p), TokenTree::Group(g)] if p.as_char() == '#' => is_serde_default(g),
        _ => false,
    });
    let i = skip_attrs_and_vis(part, 0);
    match part.get(i) {
        Some(TokenTree::Ident(id)) => Field {
            name: id.to_string(),
            default,
        },
        other => panic!("serde derive: expected field name, found {other:?}"),
    }
}

fn parse(input: TokenStream) -> (String, Shape) {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_attrs_and_vis(&toks, 0);
    let kind = match toks.get(i) {
        Some(TokenTree::Ident(id)) => {
            let k = id.to_string();
            assert!(
                k == "struct" || k == "enum",
                "serde derive: expected struct or enum, found `{k}`"
            );
            k
        }
        other => panic!("serde derive: expected item keyword, found {other:?}"),
    };
    i += 1;
    let name = match toks.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde derive: expected type name, found {other:?}"),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = toks.get(i) {
        assert!(
            p.as_char() != '<',
            "serde derive: generic type `{name}` not supported by the offline shim"
        );
    }
    let body = match toks.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g,
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            panic!("serde derive: tuple struct `{name}` not supported by the offline shim")
        }
        other => panic!("serde derive: expected item body for `{name}`, found {other:?}"),
    };
    let shape = if kind == "struct" {
        Shape::Struct(split_commas(body).iter().map(|p| field(p)).collect())
    } else {
        let variants = split_commas(body)
            .iter()
            .map(|part| {
                let vi = skip_attrs_and_vis(part, 0);
                let vname = match part.get(vi) {
                    Some(TokenTree::Ident(id)) => id.to_string(),
                    other => panic!("serde derive: expected variant name, found {other:?}"),
                };
                let fields = match part.get(vi + 1) {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                        Some(split_commas(g).iter().map(|p| field(p)).collect())
                    }
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                        panic!(
                            "serde derive: tuple variant `{name}::{vname}` not supported by the offline shim"
                        )
                    }
                    _ => None,
                };
                (vname, fields)
            })
            .collect();
        Shape::Enum(variants)
    };
    (name, shape)
}

/// `Serialize` body writing the named fields of `base` (an expression
/// prefix such as `&self.`, or empty for bindings) as one object.
fn write_fields(fields: &[Field], base: &str) -> String {
    let members: String = fields
        .iter()
        .map(|f| {
            let f = &f.name;
            format!("__w.key(\"{f}\"); ::serde::Serialize::serialize({base}{f}, __w);")
        })
        .collect();
    format!("__w.begin_object(); {members} __w.end_object();")
}

/// `Deserialize` body reading an object into the named fields and
/// building `path { fields }` from them; `path` (a struct or variant)
/// also names the type in error messages.
fn read_fields(fields: &[Field], path: &str) -> String {
    let slots: String = fields
        .iter()
        .map(|f| format!("let mut __f_{} = ::serde::Slot::new();", f.name))
        .collect();
    let arms: String = fields
        .iter()
        .map(|f| format!("\"{0}\" => __f_{0}.read(__r),", f.name))
        .collect();
    let inits: String = fields
        .iter()
        .map(|Field { name: f, default }| {
            if *default {
                format!("{f}: __f_{f}.take_or(::std::default::Default::default())?,")
            } else {
                format!("{f}: __f_{f}.take(\"{f}\", \"{path}\")?,")
            }
        })
        .collect();
    format!(
        "{slots}\n\
         __r.object(\"object for {path}\", |__r, __k| match &*__k {{\n\
             {arms}\n\
             _ => __r.skip(),\n\
         }})?;\n\
         ::std::result::Result::Ok({path} {{ {inits} }})"
    )
}

/// Derive `serde::Serialize`: write the value as JSON.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, shape) = parse(input);
    let body = match &shape {
        Shape::Struct(fields) => write_fields(fields, "&self."),
        Shape::Enum(variants) => {
            let arms: String = variants
                .iter()
                .map(|(v, fields)| match fields {
                    None => format!("{name}::{v} => __w.str(\"{v}\"),"),
                    Some(fs) => format!(
                        "{name}::{v} {{ {binds} }} => {{\n\
                             __w.begin_object(); __w.key(\"{v}\"); {inner} __w.end_object();\n\
                         }},",
                        binds = fs
                            .iter()
                            .map(|f| f.name.as_str())
                            .collect::<Vec<_>>()
                            .join(", "),
                        inner = write_fields(fs, ""),
                    ),
                })
                .collect();
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn serialize(&self, __w: &mut ::serde::Writer<'_>) {{ {body} }}\n\
         }}"
    )
    .parse()
    .expect("serde derive: generated Serialize impl must parse")
}

/// Derive `serde::Deserialize`: read the value from JSON.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let (name, shape) = parse(input);
    let body = match &shape {
        Shape::Struct(fields) => read_fields(fields, &name),
        Shape::Enum(variants) => {
            let unit_arms: String = variants
                .iter()
                .filter(|(_, f)| f.is_none())
                .map(|(v, _)| format!("\"{v}\" => ::std::option::Option::Some({name}::{v}),"))
                .collect();
            let data_arms: String = variants
                .iter()
                .filter_map(|(v, f)| f.as_ref().map(|fs| (v, fs)))
                .map(|(v, fs)| {
                    format!(
                        "\"{v}\" => {{ {} }},",
                        read_fields(fs, &format!("{name}::{v}"))
                    )
                })
                .collect();
            format!(
                "__r.variant(\"{name}\",\n\
                    |__s| match __s {{\n\
                        {unit_arms}\n\
                        _ => ::std::option::Option::None,\n\
                    }},\n\
                    |__r, __k| match __k {{\n\
                        {data_arms}\n\
                        _ => {{\n\
                            __r.skip()?;\n\
                            ::std::result::Result::Err(::serde::Error::unknown_variant(__k, \"{name}\"))\n\
                        }}\n\
                    }},\n\
                )"
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn deserialize(__r: &mut ::serde::Reader<'_>) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                 {body}\n\
             }}\n\
         }}"
    )
    .parse()
    .expect("serde derive: generated Deserialize impl must parse")
}
