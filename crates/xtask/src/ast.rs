//! A lightweight Rust item parser over token trees.
//!
//! This is deliberately not a full grammar: dqa-lint needs *items* (so
//! test code can be exempted at item scope and `allow` pragmas can cover
//! whole functions), *imports* (so `Instant` can be resolved to
//! `std::time::Instant` — or proven to be something else), and *function
//! bodies as token trees* (walked by the rule visitors with a scope
//! stack). Expression grammar beyond method/path calls is intentionally
//! left to the visitors.
//!
//! The parser is tolerant by construction: anything it does not
//! recognize becomes an [`ItemKind::Other`] item spanning to the next
//! `;` or brace group, and the walk continues. A linter must degrade
//! gracefully on code mid-edit.

use crate::tree::{Group, Tree};

/// One parsed attribute, reduced to the identifiers it contains
/// (`#[cfg(any(test, loom))]` → `["cfg", "any", "test", "loom"]`).
#[derive(Debug, Clone)]
pub struct Attr {
    pub idents: Vec<String>,
    pub line: u32,
}

impl Attr {
    /// Whether this attribute marks test-only code: `#[test]`,
    /// `#[cfg(test)]`, `#[cfg(any(test, ...))]`, `#[tokio::test]`-style.
    /// `#[cfg(not(test))]` is non-test code.
    pub fn is_test(&self) -> bool {
        if self.idents.iter().any(|s| s == "not") {
            return false;
        }
        let has_test = self.idents.iter().any(|s| s == "test" || s == "loom");
        has_test
            && (self.idents.first().is_some_and(|s| s == "cfg")
                || self.idents.last().is_some_and(|s| s == "test"))
    }
}

/// One name introduced by a `use` declaration.
#[derive(Debug, Clone)]
pub struct UseImport {
    /// Full path as written, `::`-joined (e.g. `std::collections::HashMap`).
    pub path: String,
    /// The name it binds locally (last segment, or the `as` alias).
    pub alias: String,
    /// `use foo::*` — binds everything under `path`.
    pub glob: bool,
    /// Line / byte span of the last path segment (rewritten by `--fix`).
    pub line: u32,
    pub lo: usize,
    pub hi: usize,
}

/// What kind of item a node is.
#[derive(Debug, Clone)]
pub enum ItemKind {
    Use(Vec<UseImport>),
    Mod,
    Fn(FnDecl),
    Struct,
    Enum,
    Union,
    Trait,
    Impl(ImplDecl),
    TypeAlias,
    Const,
    Static,
    ExternCrate,
    MacroDef,
    MacroCall,
    Other,
}

/// An `impl` block's header, as far as the linter needs it.
#[derive(Debug, Clone, Default)]
pub struct ImplDecl {
    /// First identifier of the implementing type (`AdmissionGate` for
    /// `impl AdmissionGate` or `impl Clock for AdmissionGate`).
    pub self_ty: Option<String>,
    /// First identifier of the trait, for trait impls.
    pub trait_name: Option<String>,
}

/// A function signature plus body.
#[derive(Debug, Clone)]
pub struct FnDecl {
    /// The parameter-list group.
    pub params: Option<Group>,
    /// Return-type trees between `->` and the body (empty if none).
    pub ret: Vec<Tree>,
    /// The `{ ... }` body (None for trait method declarations).
    pub body: Option<Group>,
}

/// One parsed item.
#[derive(Debug, Clone)]
pub struct Item {
    pub attrs: Vec<Attr>,
    pub kind: ItemKind,
    /// The item's declared name, when it has one.
    pub name: Option<String>,
    /// First and last source lines covered by the item.
    pub line_lo: u32,
    pub line_hi: u32,
    /// Whether an attribute marks this item (and its subtree) test-only.
    pub is_test: bool,
    /// Nested items (module bodies, impl/trait members).
    pub children: Vec<Item>,
    /// The item's own header/body trees, excluding parsed children for
    /// mod/impl/trait (kept for struct fields, const exprs, fn bodies via
    /// [`FnDecl`], and [`ItemKind::Other`] fallbacks).
    pub tokens: Vec<Tree>,
}

/// A parsed source file: a flat module tree of items.
#[derive(Debug, Clone, Default)]
pub struct File {
    pub items: Vec<Item>,
}

/// Parse a file's token trees into items.
pub fn parse(trees: &[Tree]) -> File {
    File {
        items: parse_items(trees),
    }
}

fn parse_items(trees: &[Tree]) -> Vec<Item> {
    let mut items = Vec::new();
    let mut i = 0usize;
    while i < trees.len() {
        // Collect outer attributes; drop inner ones (`#![...]`).
        let mut attrs = Vec::new();
        while i < trees.len() && trees[i].is_punct('#') {
            let inner = trees.get(i + 1).is_some_and(|t| t.is_punct('!'));
            let open = if inner { i + 2 } else { i + 1 };
            let Some(g) = trees.get(open).and_then(Tree::group).filter(|g| g.delim == '[')
            else {
                break;
            };
            if !inner {
                attrs.push(Attr {
                    idents: collect_idents(&g.trees),
                    line: trees[i].line(),
                });
            }
            i = open + 1;
        }
        if i >= trees.len() {
            break;
        }
        let start = i;
        let (item, next) = parse_one(trees, i, attrs);
        items.push(item);
        i = next.max(start + 1);
    }
    items
}

fn collect_idents(trees: &[Tree]) -> Vec<String> {
    let mut out = Vec::new();
    for t in trees {
        match t {
            Tree::Leaf(tok) => {
                if let Some(s) = tok.ident() {
                    out.push(s.to_string());
                }
            }
            Tree::Group(g) => out.extend(collect_idents(&g.trees)),
        }
    }
    out
}

/// Skip visibility (`pub`, `pub(crate)`, `pub(in path)`) and fn-qualifier
/// keywords, returning the index of the defining keyword.
fn skip_qualifiers(trees: &[Tree], mut i: usize) -> usize {
    loop {
        match trees.get(i).and_then(Tree::ident) {
            Some("pub") => {
                i += 1;
                if trees.get(i).is_some_and(|t| t.is_group('(')) {
                    i += 1;
                }
            }
            Some("default" | "unsafe" | "async") => i += 1,
            // `const fn` / `extern "C" fn` are qualifiers; `const NAME` and
            // `extern crate` are items — only skip when a `fn` follows.
            Some("const" | "extern") => {
                let mut j = i + 1;
                if trees
                    .get(j)
                    .and_then(Tree::leaf)
                    .is_some_and(|t| matches!(t.kind, crate::scan::TokKind::Lit(_)))
                {
                    j += 1; // the ABI string of `extern "C"`
                }
                let further = matches!(
                    trees.get(j).and_then(Tree::ident),
                    Some("fn" | "unsafe" | "async")
                );
                if further {
                    i += 1;
                } else {
                    return i;
                }
            }
            _ => return i,
        }
    }
}

/// Skip a `<...>` generic-parameter list starting at `i` (which indexes
/// `<`); returns the index past the matching `>`. `->` never appears at
/// this token level inside generics except in `Fn() -> T` bounds, whose
/// `>`-half is preceded by `-` and is not counted.
fn skip_generics(trees: &[Tree], mut i: usize) -> usize {
    let mut depth = 0i32;
    let mut prev_minus = false;
    while i < trees.len() {
        if trees[i].is_punct('<') {
            depth += 1;
        } else if trees[i].is_punct('>') && !prev_minus {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        prev_minus = trees[i].is_punct('-');
        i += 1;
    }
    i
}

/// Find the next top-level `;` or `{}` group from `i`; returns the index
/// one past it (the legacy "skip one item" rule).
fn skip_to_item_end(trees: &[Tree], mut i: usize) -> usize {
    while i < trees.len() {
        if trees[i].is_punct(';') {
            return i + 1;
        }
        if trees[i].is_group('{') {
            return i + 1;
        }
        i += 1;
    }
    i
}

fn line_range(trees: &[Tree]) -> (u32, u32) {
    let lo = trees.first().map_or(0, Tree::line);
    let hi = trees
        .iter()
        .map(|t| match t {
            Tree::Group(g) => g.close_line,
            Tree::Leaf(t) => t.line,
        })
        .max()
        .unwrap_or(lo);
    (lo, hi)
}

fn parse_one(trees: &[Tree], i: usize, attrs: Vec<Attr>) -> (Item, usize) {
    let is_test = attrs.iter().any(Attr::is_test);
    let kw_at = skip_qualifiers(trees, i);
    let kw = trees.get(kw_at).and_then(Tree::ident).unwrap_or("");
    let mk = |kind, name: Option<String>, end: usize, children: Vec<Item>| {
        let slice = &trees[i..end.min(trees.len())];
        let (line_lo, line_hi) = line_range(slice);
        (
            Item {
                attrs,
                kind,
                name,
                line_lo,
                line_hi,
                is_test,
                children,
                tokens: slice.to_vec(),
            },
            end,
        )
    };

    match kw {
        "use" => {
            // A use declaration ends at its `;` — the `{...}` of a use
            // tree is part of the path, not an item body.
            let semi = trees[kw_at..]
                .iter()
                .position(|t| t.is_punct(';'))
                .map(|p| p + kw_at)
                .unwrap_or(trees.len());
            let imports = parse_use(&trees[kw_at + 1..semi]);
            mk(
                ItemKind::Use(imports),
                None,
                (semi + 1).min(trees.len()),
                Vec::new(),
            )
        }
        "mod" => {
            let name = trees.get(kw_at + 1).and_then(Tree::ident).map(String::from);
            let end = skip_to_item_end(trees, kw_at);
            let children = trees[..end]
                .iter()
                .rev()
                .find_map(Tree::group)
                .filter(|g| g.delim == '{')
                .map(|g| parse_items(&g.trees))
                .unwrap_or_default();
            mk(ItemKind::Mod, name, end, children)
        }
        "fn" => {
            let name = trees.get(kw_at + 1).and_then(Tree::ident).map(String::from);
            let mut j = kw_at + 2;
            if trees.get(j).is_some_and(|t| t.is_punct('<')) {
                j = skip_generics(trees, j);
            }
            let params = trees
                .get(j)
                .and_then(Tree::group)
                .filter(|g| g.delim == '(')
                .cloned();
            if params.is_some() {
                j += 1;
            }
            // Return type: trees between `->` and the body/`;`/`where`.
            let mut ret = Vec::new();
            if trees.get(j).is_some_and(|t| t.is_punct('-'))
                && trees.get(j + 1).is_some_and(|t| t.is_punct('>'))
            {
                j += 2;
                while j < trees.len()
                    && !trees[j].is_group('{')
                    && !trees[j].is_punct(';')
                    && trees[j].ident() != Some("where")
                {
                    ret.push(trees[j].clone());
                    j += 1;
                }
            }
            let end = skip_to_item_end(trees, j);
            let body = trees[j..end]
                .iter()
                .rev()
                .find_map(Tree::group)
                .filter(|g| g.delim == '{')
                .cloned();
            mk(ItemKind::Fn(FnDecl { params, ret, body }), name, end, Vec::new())
        }
        "struct" | "enum" | "union" => {
            let name = trees.get(kw_at + 1).and_then(Tree::ident).map(String::from);
            let kind = match kw {
                "struct" => ItemKind::Struct,
                "enum" => ItemKind::Enum,
                _ => ItemKind::Union,
            };
            // Tuple structs end at `;` *after* their `(..)`; braced ones at
            // the `{}` group.
            let mut j = kw_at + 1;
            if trees.get(j + 1).is_some_and(|t| t.is_punct('<')) {
                j = skip_generics(trees, j + 1);
            }
            let mut end = skip_to_item_end(trees, j);
            // A tuple struct's `(..)` group is not the item end; continue to
            // the `;`.
            if end > 0
                && trees.get(end - 1).is_some_and(|t| t.is_group('('))
            {
                end = skip_to_item_end(trees, end);
            }
            mk(kind, name, end, Vec::new())
        }
        "trait" => {
            let name = trees.get(kw_at + 1).and_then(Tree::ident).map(String::from);
            let end = skip_to_item_end(trees, kw_at);
            let children = trees[..end]
                .iter()
                .rev()
                .find_map(Tree::group)
                .filter(|g| g.delim == '{')
                .map(|g| parse_items(&g.trees))
                .unwrap_or_default();
            mk(ItemKind::Trait, name, end, children)
        }
        "impl" => {
            let mut j = kw_at + 1;
            if trees.get(j).is_some_and(|t| t.is_punct('<')) {
                j = skip_generics(trees, j);
            }
            // Header trees up to the body group or a `where` clause.
            let mut header = Vec::new();
            let mut k = j;
            while k < trees.len() && !trees[k].is_group('{') {
                header.push(&trees[k]);
                k += 1;
            }
            let for_pos = header.iter().position(|t| t.is_ident("for"));
            let ty_first_ident = |ts: &[&Tree]| {
                ts.iter()
                    .filter(|t| !t.is_punct('&') && !t.is_punct('\''))
                    .find_map(|t| t.ident())
                    .filter(|s| !matches!(*s, "dyn" | "mut" | "where"))
                    .map(String::from)
                    .or_else(|| {
                        ts.iter()
                            .find_map(|t| t.ident())
                            .map(String::from)
                    })
            };
            let decl = match for_pos {
                Some(p) => ImplDecl {
                    trait_name: ty_first_ident(&header[..p]),
                    self_ty: ty_first_ident(&header[p + 1..]),
                },
                None => ImplDecl {
                    trait_name: None,
                    self_ty: ty_first_ident(&header),
                },
            };
            let end = skip_to_item_end(trees, kw_at);
            let children = trees[..end]
                .iter()
                .rev()
                .find_map(Tree::group)
                .filter(|g| g.delim == '{')
                .map(|g| parse_items(&g.trees))
                .unwrap_or_default();
            let name = decl.self_ty.clone();
            mk(ItemKind::Impl(decl), name, end, children)
        }
        "type" => {
            let name = trees.get(kw_at + 1).and_then(Tree::ident).map(String::from);
            mk(ItemKind::TypeAlias, name, skip_to_item_end(trees, kw_at), Vec::new())
        }
        "const" | "static" => {
            let mut j = kw_at + 1;
            if trees.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let name = trees.get(j).and_then(Tree::ident).map(String::from);
            let kind = if kw == "const" {
                ItemKind::Const
            } else {
                ItemKind::Static
            };
            mk(kind, name, skip_to_item_end(trees, kw_at), Vec::new())
        }
        "extern" => mk(
            ItemKind::ExternCrate,
            None,
            skip_to_item_end(trees, kw_at),
            Vec::new(),
        ),
        "macro_rules" => {
            let name = trees.get(kw_at + 2).and_then(Tree::ident).map(String::from);
            mk(ItemKind::MacroDef, name, skip_to_item_end(trees, kw_at), Vec::new())
        }
        _ => {
            // A top-level macro call (`name!{...}` / `name!(...);`) or
            // something unrecognized: swallow to the next `;`/brace group.
            let kind = if trees.get(kw_at + 1).is_some_and(|t| t.is_punct('!')) {
                ItemKind::MacroCall
            } else {
                ItemKind::Other
            };
            mk(kind, None, skip_to_item_end(trees, i), Vec::new())
        }
    }
}

/// Flatten one `use` declaration's trees (without the `use` keyword and
/// trailing `;`) into bound names.
fn parse_use(trees: &[Tree]) -> Vec<UseImport> {
    let mut out = Vec::new();
    flatten_use(trees, &[], &mut out);
    out
}

#[derive(Clone)]
struct Seg {
    name: String,
    line: u32,
    lo: usize,
    hi: usize,
}

fn flatten_use(trees: &[Tree], prefix: &[Seg], out: &mut Vec<UseImport>) {
    let mut segs: Vec<Seg> = prefix.to_vec();
    let mut i = 0usize;
    let flush = |segs: &[Seg], alias: Option<&Seg>, glob: bool, out: &mut Vec<UseImport>| {
        if segs.is_empty() {
            return;
        }
        let last = alias.unwrap_or_else(|| segs.last().expect("non-empty"));
        // The span rewritten by --fix is the *path's* last segment, not
        // the alias.
        let path_last = segs.last().expect("non-empty");
        out.push(UseImport {
            path: segs.iter().map(|s| s.name.as_str()).collect::<Vec<_>>().join("::"),
            alias: last.name.clone(),
            glob,
            line: path_last.line,
            lo: path_last.lo,
            hi: path_last.hi,
        });
    };
    while i < trees.len() {
        match &trees[i] {
            Tree::Leaf(t) => {
                if let Some(name) = t.ident() {
                    if name == "as" {
                        let alias = trees.get(i + 1).and_then(Tree::leaf).and_then(|l| {
                            l.ident().map(|s| Seg {
                                name: s.to_string(),
                                line: l.line,
                                lo: l.lo,
                                hi: l.hi,
                            })
                        });
                        flush(&segs, alias.as_ref(), false, out);
                        segs = prefix.to_vec();
                        segs.clear();
                        i += 2;
                        // Skip a following comma.
                        if trees.get(i).is_some_and(|t| t.is_punct(',')) {
                            i += 1;
                            segs = prefix.to_vec();
                        }
                        continue;
                    }
                    if name == "self" && !segs.is_empty() {
                        // `use a::b::{self, C}` — binds `b`.
                        flush(&segs, None, false, out);
                        i += 1;
                        continue;
                    }
                    segs.push(Seg {
                        name: name.to_string(),
                        line: t.line,
                        lo: t.lo,
                        hi: t.hi,
                    });
                    i += 1;
                } else if t.is_punct('*') {
                    flush(&segs, None, true, out);
                    segs = prefix.to_vec();
                    i += 1;
                } else if t.is_punct(',') {
                    if segs.len() > prefix.len() {
                        flush(&segs, None, false, out);
                    }
                    segs = prefix.to_vec();
                    i += 1;
                } else {
                    // `:` of `::` and anything else.
                    i += 1;
                }
            }
            Tree::Group(g) if g.delim == '{' => {
                flatten_use(&g.trees, &segs, out);
                segs = prefix.to_vec();
                i += 1;
            }
            Tree::Group(_) => i += 1,
        }
    }
    if segs.len() > prefix.len() {
        flush(&segs, None, false, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;
    use crate::tree::build;

    fn file(src: &str) -> File {
        parse(&build(&scan(src).toks))
    }

    #[test]
    fn parses_use_trees() {
        let f = file("use std::collections::{HashMap, BTreeMap as Sorted};\nuse serde::*;\nuse a::b::{self, C};");
        let all: Vec<(String, String, bool)> = f
            .items
            .iter()
            .filter_map(|i| match &i.kind {
                ItemKind::Use(u) => Some(u.clone()),
                _ => None,
            })
            .flatten()
            .map(|u| (u.alias, u.path, u.glob))
            .collect();
        assert!(all.contains(&("HashMap".into(), "std::collections::HashMap".into(), false)));
        assert!(all.contains(&("Sorted".into(), "std::collections::BTreeMap".into(), false)));
        assert!(all.contains(&("serde".into(), "serde".into(), true)));
        assert!(all.contains(&("b".into(), "a::b".into(), false)));
        assert!(all.contains(&("C".into(), "a::b::C".into(), false)));
    }

    #[test]
    fn fn_bodies_and_names_are_captured() {
        let f = file("pub async fn go<T: Clone>(x: T) -> T { x }");
        assert_eq!(f.items.len(), 1);
        assert_eq!(f.items[0].name.as_deref(), Some("go"));
        let ItemKind::Fn(d) = &f.items[0].kind else {
            panic!("not a fn: {:?}", f.items[0].kind);
        };
        assert!(d.params.is_some());
        assert!(d.body.is_some());
        assert!(!d.ret.is_empty());
    }

    #[test]
    fn cfg_test_mods_are_marked() {
        let f = file("#[cfg(test)]\nmod tests { fn helper() {} }\nfn real() {}");
        assert!(f.items[0].is_test);
        assert_eq!(f.items[0].children.len(), 1);
        assert!(!f.items[1].is_test);
    }

    #[test]
    fn cfg_not_test_is_not_test() {
        let f = file("#[cfg(not(test))]\nfn real() {}");
        assert!(!f.items[0].is_test);
    }

    #[test]
    fn impl_headers_resolve_self_type_and_trait() {
        let f = file("impl<T> Clock for Wall<T> { fn now(&self) -> f64 { 0.0 } }");
        let ItemKind::Impl(d) = &f.items[0].kind else {
            panic!()
        };
        assert_eq!(d.trait_name.as_deref(), Some("Clock"));
        assert_eq!(d.self_ty.as_deref(), Some("Wall"));
        assert_eq!(f.items[0].children.len(), 1);
        let f2 = file("impl AdmissionGate { fn admit(&self) {} }");
        let ItemKind::Impl(d2) = &f2.items[0].kind else {
            panic!()
        };
        assert_eq!(d2.self_ty.as_deref(), Some("AdmissionGate"));
        assert_eq!(d2.trait_name, None);
    }

    #[test]
    fn tuple_structs_span_to_semicolon() {
        let f = file("pub struct Wrap(pub u32);\nfn after() {}");
        assert_eq!(f.items.len(), 2);
        assert!(matches!(f.items[0].kind, ItemKind::Struct));
        assert!(matches!(f.items[1].kind, ItemKind::Fn(_)));
    }

    #[test]
    fn generics_with_fn_bounds_do_not_derail() {
        let f = file("fn apply<F: Fn(u32) -> u32>(f: F) -> u32 { f(1) }");
        assert_eq!(f.items.len(), 1);
        let ItemKind::Fn(d) = &f.items[0].kind else {
            panic!()
        };
        assert!(d.body.is_some());
    }

    #[test]
    fn stacked_test_attrs_swallow_the_item() {
        let f = file("#[test]\n#[ignore]\nfn t() { panic!(\"x\") }\nfn keep() {}");
        assert!(f.items[0].is_test);
        assert!(!f.items[1].is_test);
    }
}
