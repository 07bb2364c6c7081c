//! Offline stand-in for `serde_derive`.
//!
//! The sandbox that runs `perf_gate` has no crates.io registry, so the
//! benchmark builds the workspace against the small local crates under
//! `crates/perf/standins/`. This one derives the stand-in `serde` traits
//! (`ser_json` / `de_json`, JSON only) for the shapes the workspace uses:
//! named, tuple and unit structs, enums with unit, tuple and struct
//! variants (externally tagged, like serde), lifetime and type parameters,
//! `#[serde(transparent)]` and field-level `#[serde(default)]`. It parses
//! the item by hand because `syn`/`quote` are not available either.

use proc_macro::{Delimiter, TokenStream, TokenTree};

struct Field {
    name: String,
    default: bool,
}

enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Body {
    Struct(Shape),
    Enum(Vec<Variant>),
}

struct Input {
    name: String,
    /// Generic parameters as declared (`'a, T: Clone`), without the angle brackets.
    generics_decl: String,
    /// Generic arguments for the self type (`'a, T`).
    generics_use: String,
    type_params: Vec<String>,
    transparent: bool,
    body: Body,
}

fn is_punct(t: Option<&TokenTree>, c: char) -> bool {
    matches!(t, Some(TokenTree::Punct(p)) if p.as_char() == c)
}

fn ident_of(t: Option<&TokenTree>) -> Option<String> {
    match t {
        Some(TokenTree::Ident(i)) => {
            let s = i.to_string();
            Some(s.strip_prefix("r#").map(str::to_string).unwrap_or(s))
        }
        _ => None,
    }
}

/// The idents inside `#[serde(...)]`; empty for any other attribute.
fn serde_flags(attr: Option<&TokenTree>) -> Vec<String> {
    let Some(TokenTree::Group(g)) = attr else {
        return Vec::new();
    };
    let toks: Vec<TokenTree> = g.stream().into_iter().collect();
    if ident_of(toks.first()).as_deref() != Some("serde") {
        return Vec::new();
    }
    match toks.get(1) {
        Some(TokenTree::Group(inner)) => inner
            .stream()
            .into_iter()
            .filter_map(|t| ident_of(Some(&t)))
            .collect(),
        _ => Vec::new(),
    }
}

/// Skips attributes starting at `i`, returning the serde flags seen.
fn skip_attrs(toks: &[TokenTree], i: &mut usize) -> Vec<String> {
    let mut flags = Vec::new();
    while is_punct(toks.get(*i), '#') {
        flags.extend(serde_flags(toks.get(*i + 1)));
        *i += 2;
    }
    flags
}

fn skip_visibility(toks: &[TokenTree], i: &mut usize) {
    if ident_of(toks.get(*i)).as_deref() == Some("pub") {
        *i += 1;
        if matches!(toks.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *i += 1;
        }
    }
}

/// Advances past one type (or expression) up to the next comma that is
/// not nested inside `<...>`; groups are single tokens already.
fn skip_to_comma(toks: &[TokenTree], i: &mut usize) {
    let mut depth = 0i32;
    while let Some(t) = toks.get(*i) {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => depth += 1,
                '>' if *i > 0 && is_punct(toks.get(*i - 1), '-') => {}
                '>' => depth -= 1,
                ',' if depth == 0 => return,
                _ => {}
            }
        }
        *i += 1;
    }
}

fn parse_named(stream: TokenStream) -> Vec<Field> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let flags = skip_attrs(&toks, &mut i);
        skip_visibility(&toks, &mut i);
        let name = ident_of(toks.get(i)).expect("field name");
        i += 1;
        assert!(is_punct(toks.get(i), ':'), "expected `:` after field name");
        i += 1;
        skip_to_comma(&toks, &mut i);
        i += 1;
        fields.push(Field {
            name,
            default: flags.iter().any(|f| f == "default"),
        });
    }
    fields
}

fn count_tuple(stream: TokenStream) -> usize {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut n = 0;
    let mut i = 0;
    while i < toks.len() {
        skip_to_comma(&toks, &mut i);
        i += 1;
        n += 1;
    }
    n
}

fn shape_of(group: Option<&TokenTree>) -> Option<Shape> {
    match group {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            Some(Shape::Tuple(count_tuple(g.stream())))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            Some(Shape::Named(parse_named(g.stream())))
        }
        _ => None,
    }
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        skip_attrs(&toks, &mut i);
        let name = ident_of(toks.get(i)).expect("variant name");
        i += 1;
        let shape = match shape_of(toks.get(i)) {
            Some(s) => {
                i += 1;
                s
            }
            None => Shape::Unit,
        };
        skip_to_comma(&toks, &mut i); // an explicit discriminant, if any
        i += 1;
        variants.push(Variant { name, shape });
    }
    variants
}

fn parse(input: TokenStream) -> Input {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let flags = skip_attrs(&toks, &mut i);
    skip_visibility(&toks, &mut i);
    let kind = ident_of(toks.get(i)).expect("struct or enum");
    i += 1;
    let name = ident_of(toks.get(i)).expect("type name");
    i += 1;

    let mut generics_decl = String::new();
    let mut generics_use = Vec::new();
    let mut type_params = Vec::new();
    if is_punct(toks.get(i), '<') {
        i += 1;
        let start = i;
        let mut depth = 1;
        while depth > 0 {
            match toks.get(i) {
                Some(TokenTree::Punct(p)) if p.as_char() == '<' => depth += 1,
                Some(TokenTree::Punct(p)) if p.as_char() == '>' => depth -= 1,
                Some(_) => {}
                None => panic!("unclosed generics"),
            }
            i += 1;
        }
        let params = &toks[start..i - 1];
        generics_decl = params.iter().cloned().collect::<TokenStream>().to_string();
        let mut j = 0;
        while j < params.len() {
            if is_punct(params.get(j), '\'') {
                generics_use.push(format!(
                    "'{}",
                    ident_of(params.get(j + 1)).expect("lifetime")
                ));
            } else if ident_of(params.get(j)).as_deref() == Some("const") {
                generics_use.push(ident_of(params.get(j + 1)).expect("const parameter"));
            } else {
                let p = ident_of(params.get(j)).expect("type parameter");
                type_params.push(p.clone());
                generics_use.push(p);
            }
            skip_to_comma(params, &mut j);
            j += 1;
        }
    }

    let body = if kind == "enum" {
        let group = toks[i..]
            .iter()
            .find(|t| matches!(t, TokenTree::Group(g) if g.delimiter() == Delimiter::Brace))
            .expect("enum body");
        match group {
            TokenTree::Group(g) => Body::Enum(parse_variants(g.stream())),
            _ => unreachable!(),
        }
    } else {
        let shape = toks[i..]
            .iter()
            .find_map(|t| shape_of(Some(t)))
            .unwrap_or(Shape::Unit);
        Body::Struct(shape)
    };

    Input {
        name,
        generics_decl,
        generics_use: generics_use.join(", "),
        type_params,
        transparent: flags.iter().any(|f| f == "transparent"),
        body,
    }
}

fn impl_header(input: &Input, trait_name: &str) -> String {
    let bounds: Vec<String> = input
        .type_params
        .iter()
        .map(|p| format!("{p}: ::serde::{trait_name}"))
        .collect();
    let where_clause = if bounds.is_empty() {
        String::new()
    } else {
        format!(" where {}", bounds.join(", "))
    };
    format!(
        "impl<{}> ::serde::{trait_name} for {}<{}>{where_clause}",
        input.generics_decl, input.name, input.generics_use
    )
}

/// Statements that write `shape` as JSON; `access(i, name)` names field
/// `i` as an expression of reference type.
fn ser_shape(shape: &Shape, transparent: bool, access: &dyn Fn(usize, &str) -> String) -> String {
    const SER: &str = "::serde::Serialize::ser_json";
    match shape {
        Shape::Unit => "out.push_str(\"null\");".to_string(),
        Shape::Tuple(1) => format!("{SER}({}, out);", access(0, "")),
        Shape::Named(fields) if transparent && fields.len() == 1 => {
            format!("{SER}({}, out);", access(0, &fields[0].name))
        }
        Shape::Tuple(n) => {
            let mut s = String::from("out.push('[');");
            for k in 0..*n {
                if k > 0 {
                    s.push_str("out.push(',');");
                }
                s.push_str(&format!("{SER}({}, out);", access(k, "")));
            }
            s.push_str("out.push(']');");
            s
        }
        Shape::Named(fields) => {
            let mut s = String::from("out.push('{');");
            for (k, f) in fields.iter().enumerate() {
                let sep = if k > 0 { "," } else { "" };
                s.push_str(&format!("out.push_str(\"{sep}\\\"{}\\\":\");", f.name));
                s.push_str(&format!("{SER}({}, out);", access(k, &f.name)));
            }
            s.push_str("out.push('}');");
            s
        }
    }
}

/// An expression that builds `ctor` from the JSON value `src` (a
/// `&::serde::Value` expression).
fn de_shape(shape: &Shape, transparent: bool, ctor: &str, what: &str, src: &str) -> String {
    const DE: &str = "::serde::Deserialize::de_json";
    match shape {
        Shape::Unit => ctor.to_string(),
        Shape::Tuple(1) => format!("{ctor}({DE}({src})?)"),
        Shape::Named(fields) if transparent && fields.len() == 1 => {
            format!("{ctor} {{ {}: {DE}({src})? }}", fields[0].name)
        }
        Shape::Tuple(n) => {
            let args: Vec<String> = (0..*n).map(|k| format!("{DE}(&seq[{k}])?")).collect();
            format!(
                "{{ let seq = ::serde::de_seq({src}, {n}, \"{what}\")?; {ctor}({}) }}",
                args.join(", ")
            )
        }
        Shape::Named(fields) => {
            let inits: Vec<String> = fields
                .iter()
                .map(|f| {
                    let helper = if f.default {
                        "de_field_or_default"
                    } else {
                        "de_field"
                    };
                    format!("{0}: ::serde::{helper}(obj, \"{0}\")?", f.name)
                })
                .collect();
            format!(
                "{{ let obj = ::serde::de_object({src}, \"{what}\")?; {ctor} {{ {} }} }}",
                inits.join(", ")
            )
        }
    }
}

/// Derives the stand-in `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let input = parse(input);
    let body = match &input.body {
        Body::Struct(shape) => ser_shape(shape, input.transparent, &|k, name| {
            if name.is_empty() {
                format!("&self.{k}")
            } else {
                format!("&self.{name}")
            }
        }),
        Body::Enum(variants) if variants.is_empty() => "match *self {}".to_string(),
        Body::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let path = format!("{}::{}", input.name, v.name);
                match &v.shape {
                    Shape::Unit => {
                        arms.push_str(&format!("{path} => out.push_str(\"\\\"{}\\\"\"),", v.name))
                    }
                    Shape::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|k| format!("f{k}")).collect();
                        arms.push_str(&format!(
                            "{path}({}) => {{ out.push_str(\"{{\\\"{}\\\":\"); {} out.push('}}'); }}",
                            binds.join(", "),
                            v.name,
                            ser_shape(&v.shape, false, &|k, _| format!("f{k}"))
                        ));
                    }
                    Shape::Named(fields) => {
                        let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        arms.push_str(&format!(
                            "{path} {{ {} }} => {{ out.push_str(\"{{\\\"{}\\\":\"); {} out.push('}}'); }}",
                            binds.join(", "),
                            v.name,
                            ser_shape(&v.shape, false, &|_, name| name.to_string())
                        ));
                    }
                }
            }
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "{} {{ fn ser_json(&self, out: &mut ::std::string::String) {{ {body} }} }}",
        impl_header(&input, "Serialize")
    )
    .parse()
    .expect("generated Serialize impl parses")
}

/// Derives the stand-in `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let input = parse(input);
    let name = &input.name;
    let body = match &input.body {
        Body::Struct(shape) => format!(
            "::core::result::Result::Ok({})",
            de_shape(shape, input.transparent, name, name, "v")
        ),
        Body::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let ctor = format!("{name}::{}", v.name);
                let what = format!("{name}::{}", v.name);
                let value = match v.shape {
                    Shape::Unit => ctor,
                    _ => format!(
                        "{{ let inner = ::serde::variant_payload(payload, \"{what}\")?; {} }}",
                        de_shape(&v.shape, false, &ctor, &what, "inner")
                    ),
                };
                arms.push_str(&format!(
                    "\"{}\" => ::core::result::Result::Ok({value}),",
                    v.name
                ));
            }
            format!(
                "let (tag, payload) = ::serde::enum_parts(v, \"{name}\")?; \
                 let _ = &payload; \
                 match tag {{ {arms} other => ::core::result::Result::Err(\
                 ::serde::Error::unknown_variant(\"{name}\", other)) }}"
            )
        }
    };
    format!(
        "{} {{ fn de_json(v: &::serde::Value) -> ::core::result::Result<Self, ::serde::Error> {{ {body} }} }}",
        impl_header(&input, "Deserialize")
    )
    .parse()
    .expect("generated Deserialize impl parses")
}
