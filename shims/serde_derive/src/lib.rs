//! Offline stand-in for `serde_derive`.
//!
//! The build container has no crates.io access, so these derives are written
//! directly against `proc_macro` — no `syn`, no `quote`. The parser handles
//! exactly the shapes this workspace declares: non-generic structs (named,
//! tuple, unit) and enums (unit, newtype, tuple, and struct variants),
//! without `#[serde(...)]` attributes. Anything else is a compile error, by
//! design: better to fail loudly than silently mis-serialize.
//!
//! Code generation builds a source string and parses it back into a
//! `TokenStream`; the generated impls target the `serde` shim's
//! `to_value`/`from_value` traits.

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Parsed shape of the deriving type.
enum Shape {
    NamedStruct(Vec<String>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<String>),
}

struct Input {
    name: String,
    shape: Shape,
}

/// Drop leading outer attributes (`#[...]`) and visibility (`pub`,
/// `pub(...)`) from a token slice.
fn skip_attrs_and_vis(tokens: &[TokenTree]) -> &[TokenTree] {
    let mut i = 0;
    loop {
        match (tokens.get(i), tokens.get(i + 1)) {
            (Some(TokenTree::Punct(p)), Some(TokenTree::Group(g)))
                if p.as_char() == '#' && g.delimiter() == Delimiter::Bracket =>
            {
                i += 2;
            }
            (Some(TokenTree::Ident(id)), next) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = next {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            _ => return &tokens[i..],
        }
    }
}

/// Split a token slice on commas that sit outside any `<...>` nesting.
/// (Group delimiters are already opaque single tokens, so only angle
/// brackets need explicit depth tracking.)
fn split_top_commas(tokens: &[TokenTree]) -> Vec<Vec<TokenTree>> {
    let mut out = Vec::new();
    let mut cur = Vec::new();
    let mut angle: i32 = 0;
    for t in tokens {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle == 0 => {
                    out.push(std::mem::take(&mut cur));
                    continue;
                }
                _ => {}
            }
        }
        cur.push(t.clone());
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Parse one `name: Type` field declaration; returns the field name.
fn parse_named_field(chunk: &[TokenTree]) -> String {
    let chunk = skip_attrs_and_vis(chunk);
    match chunk.first() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected field name, found {other:?}"),
    }
}

fn parse_named_fields(group_tokens: Vec<TokenTree>) -> Vec<String> {
    split_top_commas(&group_tokens)
        .iter()
        .filter(|c| !c.is_empty())
        .map(|c| parse_named_field(c))
        .collect()
}

fn count_tuple_fields(group_tokens: Vec<TokenTree>) -> usize {
    split_top_commas(&group_tokens)
        .iter()
        .filter(|c| !c.is_empty())
        .count()
}

fn parse_variant(chunk: &[TokenTree]) -> Variant {
    let chunk = skip_attrs_and_vis(chunk);
    let name = match chunk.first() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected variant name, found {other:?}"),
    };
    let kind = match chunk.get(1) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            VariantKind::Tuple(count_tuple_fields(g.stream().into_iter().collect()))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            VariantKind::Struct(parse_named_fields(g.stream().into_iter().collect()))
        }
        // Bare name, or `Name = discriminant` — both serialize as unit.
        _ => VariantKind::Unit,
    };
    Variant { name, kind }
}

fn parse_input(input: TokenStream) -> Input {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let tokens = skip_attrs_and_vis(&tokens);
    let (kw, rest) = match tokens.first() {
        Some(TokenTree::Ident(id)) => (id.to_string(), &tokens[1..]),
        other => panic!("serde shim derive: expected `struct` or `enum`, found {other:?}"),
    };
    let name = match rest.first() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected type name, found {other:?}"),
    };
    if let Some(TokenTree::Punct(p)) = rest.get(1) {
        if p.as_char() == '<' {
            panic!(
                "serde shim derive: generic type `{name}` is not supported; \
                 write the impls by hand"
            );
        }
    }
    let body = rest.get(1);
    let shape = match kw.as_str() {
        "struct" => match body {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::NamedStruct(parse_named_fields(g.stream().into_iter().collect()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::TupleStruct(count_tuple_fields(g.stream().into_iter().collect()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::UnitStruct,
            None => Shape::UnitStruct,
            other => panic!("serde shim derive: unsupported struct body {other:?}"),
        },
        "enum" => match body {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let variants = split_top_commas(&g.stream().into_iter().collect::<Vec<_>>())
                    .iter()
                    .filter(|c| !c.is_empty())
                    .map(|c| parse_variant(c))
                    .collect();
                Shape::Enum(variants)
            }
            other => panic!("serde shim derive: unsupported enum body {other:?}"),
        },
        other => panic!("serde shim derive: expected `struct` or `enum`, found `{other}`"),
    };
    Input { name, shape }
}

// ---------------------------------------------------------------------------
// Serialize
// ---------------------------------------------------------------------------

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let input = parse_input(input);
    let name = &input.name;
    let body = match &input.shape {
        Shape::NamedStruct(fields) => {
            let entries: Vec<String> = fields
                .iter()
                .map(|f| format!("({f:?}.to_string(), ::serde::Serialize::to_value(&self.{f}))"))
                .collect();
            format!("::serde::Value::Object(vec![{}])", entries.join(", "))
        }
        // Newtype structs serialize transparently, matching real serde.
        Shape::TupleStruct(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Shape::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Array(vec![{}])", items.join(", "))
        }
        Shape::UnitStruct => "::serde::Value::Null".to_string(),
        Shape::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    match &v.kind {
                        VariantKind::Unit => format!(
                            "{name}::{vn} => ::serde::Value::Str({vn:?}.to_string()),"
                        ),
                        VariantKind::Tuple(1) => format!(
                            "{name}::{vn}(f0) => ::serde::Value::Object(vec![({vn:?}.to_string(), \
                             ::serde::Serialize::to_value(f0))]),"
                        ),
                        VariantKind::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                            let items: Vec<String> = (0..*n)
                                .map(|i| format!("::serde::Serialize::to_value(f{i})"))
                                .collect();
                            format!(
                                "{name}::{vn}({binds}) => ::serde::Value::Object(vec![({vn:?}.to_string(), \
                                 ::serde::Value::Array(vec![{items}]))]),",
                                binds = binds.join(", "),
                                items = items.join(", ")
                            )
                        }
                        VariantKind::Struct(fields) => {
                            let binds = fields.join(", ");
                            let entries: Vec<String> = fields
                                .iter()
                                .map(|f| {
                                    format!(
                                        "({f:?}.to_string(), ::serde::Serialize::to_value({f}))"
                                    )
                                })
                                .collect();
                            format!(
                                "{name}::{vn} {{ {binds} }} => ::serde::Value::Object(vec![({vn:?}.to_string(), \
                                 ::serde::Value::Object(vec![{entries}]))]),",
                                entries = entries.join(", ")
                            )
                        }
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join(" "))
        }
    };
    let out = format!(
        "#[automatically_derived]\n\
         #[allow(clippy::all)]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    );
    out.parse()
        .expect("serde shim derive: generated Serialize impl failed to parse")
}

// ---------------------------------------------------------------------------
// Deserialize
// ---------------------------------------------------------------------------

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let input = parse_input(input);
    let name = &input.name;
    let body = match &input.shape {
        Shape::NamedStruct(fields) => {
            let inits: Vec<String> = fields
                .iter()
                .map(|f| format!("{f}: ::serde::get_field(v, {name:?}, {f:?})?"))
                .collect();
            format!("Ok({name} {{ {} }})", inits.join(", "))
        }
        Shape::TupleStruct(1) => format!(
            "Ok({name}(::serde::Deserialize::from_value(v).map_err(|e| \
             ::serde::Error(format!(\"{name}: {{}}\", e)))?))"
        ),
        Shape::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::get_index(v, {name:?}, {i})?"))
                .collect();
            format!("Ok({name}({}))", items.join(", "))
        }
        Shape::UnitStruct => format!("Ok({name})"),
        Shape::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    let path = format!("{name}::{vn}");
                    match &v.kind {
                        VariantKind::Unit => format!("{vn:?} => Ok({path}),"),
                        VariantKind::Tuple(1) => format!(
                            "{vn:?} => {{\n\
                                 let p = payload.ok_or_else(|| ::serde::Error(format!(\
                                     \"{path}: missing variant payload\")))?;\n\
                                 Ok({path}(::serde::Deserialize::from_value(p).map_err(|e| \
                                     ::serde::Error(format!(\"{path}: {{}}\", e)))?))\n\
                             }}"
                        ),
                        VariantKind::Tuple(n) => {
                            let items: Vec<String> = (0..*n)
                                .map(|i| format!("::serde::get_index(p, \"{path}\", {i})?"))
                                .collect();
                            format!(
                                "{vn:?} => {{\n\
                                     let p = payload.ok_or_else(|| ::serde::Error(format!(\
                                         \"{path}: missing variant payload\")))?;\n\
                                     Ok({path}({items}))\n\
                                 }}",
                                items = items.join(", ")
                            )
                        }
                        VariantKind::Struct(fields) => {
                            let inits: Vec<String> = fields
                                .iter()
                                .map(|f| format!("{f}: ::serde::get_field(p, \"{path}\", {f:?})?"))
                                .collect();
                            format!(
                                "{vn:?} => {{\n\
                                     let p = payload.ok_or_else(|| ::serde::Error(format!(\
                                         \"{path}: missing variant payload\")))?;\n\
                                     Ok({path} {{ {inits} }})\n\
                                 }}",
                                inits = inits.join(", ")
                            )
                        }
                    }
                })
                .collect();
            format!(
                "let (variant, payload) = ::serde::enum_variant(v, {name:?})?;\n\
                 let _ = &payload;\n\
                 match variant {{\n\
                     {arms}\n\
                     other => Err(::serde::Error(format!(\
                         \"{name}: unknown variant `{{}}`\", other))),\n\
                 }}",
                arms = arms.join("\n")
            )
        }
    };
    let out = format!(
        "#[automatically_derived]\n\
         #[allow(clippy::all)]\n\
         impl ::serde::Deserialize for {name} {{\n\
             fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                 let _ = v;\n\
                 {body}\n\
             }}\n\
         }}"
    );
    out.parse()
        .expect("serde shim derive: generated Deserialize impl failed to parse")
}
