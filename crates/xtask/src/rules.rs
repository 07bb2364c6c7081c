//! The dqa-lint v2 rule set: semantic determinism/robustness invariants.
//!
//! Every rule is deny-by-default inside its crate scope and can be waived
//! with a `// dqa-lint: allow(<rule>)` comment on the offending line, the
//! line directly above it, or — new in v2 — directly above an enclosing
//! item (fn/impl/mod), which waives the rule for the whole item. Test
//! code (`#[cfg(test)]` modules, `#[test]` functions, `#[cfg(loom)]`
//! verification shims) is exempt from all rules.
//!
//! Unlike the v1 token matcher, rules run over the parsed [`crate::ast`]
//! with per-scope symbol resolution ([`crate::sem`]): `Instant` only
//! fires when it (provably or plausibly) *is* `std::time::Instant`, names
//! in strings/comments/attributes never reach the matcher, and the
//! deep rules (`lock-order`, `blocking-under-guard`,
//! `hashmap-iter-order`, `clock-leak`) reason about guard lifetimes,
//! iteration chains and time domains — things no token pattern can see.

use crate::ast::{Attr, File, FnDecl, Item, ItemKind};
use crate::scan::{ScanResult, Tok, TokKind};
use crate::sem::{judge, Ctx, Scope, Verdict};
use crate::tree::{Group, Tree};

/// Which crates a rule applies to, by crate (directory) name.
#[derive(Debug, Clone, Copy)]
pub enum RuleScope {
    /// Only these crates.
    Only(&'static [&'static str]),
    /// Every workspace crate except these.
    AllExcept(&'static [&'static str]),
}

impl RuleScope {
    pub fn applies_to(&self, krate: &str) -> bool {
        match self {
            RuleScope::Only(names) => names.contains(&krate),
            RuleScope::AllExcept(names) => !names.contains(&krate),
        }
    }
}

/// The crates whose state must replay bit-for-bit from a seed: the
/// discrete-event simulator and everything its scheduling decisions read.
pub const VIRTUAL_TIME_CRATES: &[&str] = &["cluster-sim", "scheduler", "loadsim", "analytical"];

/// The crates that host long-lived worker threads talking over channels:
/// the node runtime, the federation broker tier above it, and the
/// elastic re-sharding tier whose migration pacing both backends embed.
/// All must bound every channel, never block forever on a receive, and
/// funnel wall-clock reads through one pragma'd site, or a slow/dead
/// peer turns into an unobservable hang instead of a recoverable
/// timeout.
pub const THREADED_RUNTIME_CRATES: &[&str] = &["dqa-runtime", "federation", "rebalance"];

/// Modules outside the threaded-runtime crates that still must not read
/// the wall clock directly. The causal-tracing tier derives every span
/// timestamp from the recorder's injected [`Clock`]; a raw read there
/// would split span identity between time domains, breaking the
/// bit-identical double-run guarantee the trace gate enforces. Matched
/// as a workspace-relative path suffix, so `raw-instant` covers these
/// files even though their crate as a whole is exempt (dqa-obs hosts
/// the sanctioned `WallClock` impl itself).
pub const RAW_INSTANT_EXTRA_PATHS: &[&str] = &["dqa-obs/src/trace.rs"];

/// All rule names, in documentation order (v1 rules then v2 deep rules).
pub const RULE_NAMES: &[&str] = &[
    "wall-clock",
    "unordered-state",
    "raw-instant",
    "runtime-panic",
    "unbounded-recv",
    "unbounded-channel",
    "raw-fs-write",
    "lock-order",
    "blocking-under-guard",
    "hashmap-iter-order",
    "clock-leak",
];

/// A single finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name.
    pub rule: &'static str,
    /// What was matched (e.g. `thread::sleep`, `gate.state -> board.rows`).
    pub matched: String,
    /// Why it is banned here.
    pub why: &'static str,
    /// Suggested fix.
    pub help: &'static str,
}

/// One lock-acquisition-order edge observed while another guard was held;
/// collected per file, judged workspace-wide (cycle detection) by
/// [`crate::lockgraph`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdge {
    /// Label of the lock already held.
    pub held: String,
    /// Label of the lock being acquired.
    pub acquired: String,
    pub file: String,
    /// Line of the inner acquisition.
    pub line: u32,
    /// Whether an allow pragma covers the acquisition site.
    pub allowed: bool,
}

/// A `--fix`-able byte-span rewrite.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edit {
    pub lo: usize,
    pub hi: usize,
    pub replacement: String,
}

/// Everything one file's analysis produced.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    pub diags: Vec<Diagnostic>,
    pub lock_edges: Vec<LockEdge>,
    /// Mechanical rewrites for the diagnostics above (`--fix`).
    pub fixes: Vec<Edit>,
}

// ---------------------------------------------------------------------------
// Rule metadata (scopes + messages).
// ---------------------------------------------------------------------------

struct Meta {
    name: &'static str,
    scope: RuleScope,
    why: &'static str,
    help: &'static str,
}

const WALL_CLOCK: Meta = Meta {
    name: "wall-clock",
    scope: RuleScope::Only(VIRTUAL_TIME_CRATES),
    why: "virtual-time code read the wall clock",
    help: "derive every timestamp from the engine's virtual clock; wall-clock reads make \
           the simulation non-replayable",
};

const UNORDERED_STATE: Meta = Meta {
    name: "unordered-state",
    scope: RuleScope::Only(VIRTUAL_TIME_CRATES),
    why: "sim/scheduler state uses a hash collection",
    help: "use BTreeMap/BTreeSet or a sorted Vec: hash iteration order varies per process \
           and corrupts seeded reproducibility",
};

const RAW_INSTANT: Meta = Meta {
    name: "raw-instant",
    scope: RuleScope::Only(THREADED_RUNTIME_CRATES),
    why: "runtime code read the wall clock directly",
    help: "go through crate::clock::now_instant() (the one pragma'd read point) or take a \
           dqa_obs::Clock; a single sanctioned site keeps runtime timing swappable for \
           tests and observable by the metrics layer",
};

const RUNTIME_PANIC: Meta = Meta {
    name: "runtime-panic",
    scope: RuleScope::Only(&["dqa-runtime"]),
    why: "runtime code can abort the node",
    help: "node actors must degrade through the SEND/ISEND/RECV failure-recovery path \
           (typed QaError, board liveness), never panic",
};

const UNBOUNDED_RECV: Meta = Meta {
    name: "unbounded-recv",
    scope: RuleScope::Only(THREADED_RUNTIME_CRATES),
    why: "runtime code blocks forever on a channel",
    help: "use recv_timeout (bounded by the sub-task poll interval) or try_recv so a dead \
           peer is detected by the failure-recovery/deadline path instead of hanging the \
           thread",
};

const UNBOUNDED_CHANNEL: Meta = Meta {
    name: "unbounded-channel",
    scope: RuleScope::Only(THREADED_RUNTIME_CRATES),
    why: "runtime code uses an unbounded channel",
    help: "use bounded(capacity) plus send_timeout so a saturated node exerts backpressure \
           the coordinator can observe (re-queue via the retry path) instead of buffering \
           without limit until memory runs out",
};

const RAW_FS_WRITE: Meta = Meta {
    name: "raw-fs-write",
    scope: RuleScope::Only(&["dqa-runtime"]),
    why: "runtime code writes the filesystem directly",
    help: "durable coordinator state must flow through the journal crate's checksummed \
           append-only log (CoordinatorJournal); ad-hoc writes bypass torn-tail recovery \
           and term fencing, so a crash can leave unreplayable state",
};

/// Shared with [`crate::lockgraph`], which emits the actual diagnostics.
pub const LOCK_ORDER_WHY: &str = "lock acquired in a cycle of the workspace lock-order graph";
pub const LOCK_ORDER_HELP: &str =
    "two code paths acquire these locks in opposite orders, which can deadlock under \
     contention; impose one global order (acquire in label order), or narrow one \
     guard's scope so the acquisitions never overlap";

const LOCK_ORDER: Meta = Meta {
    name: "lock-order",
    scope: RuleScope::AllExcept(&[]),
    why: LOCK_ORDER_WHY,
    help: LOCK_ORDER_HELP,
};

const BLOCKING_UNDER_GUARD: Meta = Meta {
    name: "blocking-under-guard",
    scope: RuleScope::AllExcept(&[]),
    why: "blocking call while a lock guard is held",
    help: "a blocked holder stalls every other thread contending for the guard (and can \
           deadlock if the wake-up path needs the same lock); drop the guard before \
           blocking, or restructure so the wait happens outside the critical section",
};

const HASHMAP_ITER_ORDER: Meta = Meta {
    name: "hashmap-iter-order",
    scope: RuleScope::AllExcept(&[]),
    why: "iteration over a hash container's nondeterministic order",
    help: "hash iteration order varies per process and run; iterate a BTreeMap/BTreeSet, \
           or collect and sort before the order can feed scheduling, serialization or \
           tie-breaking",
};

const CLOCK_LEAK: Meta = Meta {
    name: "clock-leak",
    scope: RuleScope::AllExcept(&[]),
    why: "wall-clock read in code already parameterized by a virtual Clock",
    help: "code that takes a dqa_obs::Clock must derive *all* its timestamps from it; a \
           raw Instant/SystemTime read next to clock.now() mixes time domains, so the \
           same code diverges between the runtime and the simulator",
};

// ---------------------------------------------------------------------------
// The analysis driver.
// ---------------------------------------------------------------------------

/// Run every in-scope rule over one parsed file.
pub fn check_file(krate: &str, rel_path: &str, file: &File, scan: &ScanResult) -> FileAnalysis {
    let mut ctx = Ctx::default();
    ctx.push(Scope::from_items(&file.items));
    let mut chk = Checker {
        krate,
        rel: rel_path,
        scan,
        ctx,
        out: FileAnalysis::default(),
        item_allow_stack: Vec::new(),
        self_ty: None,
        impl_trait: None,
        hash_fields: collect_hash_fields(file),
    };
    chk.walk_items(&file.items);
    chk.out.diags.sort();
    chk.out
        .diags
        .dedup_by(|a, b| a.file == b.file && a.line == b.line && a.rule == b.rule);
    chk.out
}

/// Struct fields in this file whose declared type is a hash container
/// (`self.<field>` iteration flags hashmap-iter-order).
fn collect_hash_fields(file: &File) -> Vec<String> {
    let mut out = Vec::new();
    fn walk(items: &[Item], out: &mut Vec<String>) {
        for item in items {
            if matches!(
                item.kind,
                ItemKind::Struct | ItemKind::Enum | ItemKind::Union
            ) {
                // Fields live in the item's `{}` group: `name: Type,`.
                if let Some(g) = item.tokens.iter().rev().find_map(Tree::group) {
                    let ts = &g.trees;
                    for i in 0..ts.len() {
                        if ts[i].is_punct(':')
                            && !ts.get(i + 1).is_some_and(|t| t.is_punct(':'))
                            && !ts.get(i.wrapping_sub(1)).is_some_and(|t| t.is_punct(':'))
                        {
                            let field = ts.get(i.wrapping_sub(1)).and_then(Tree::ident);
                            let ty = ts.get(i + 1).and_then(Tree::ident);
                            if let (Some(f), Some(t)) = (field, ty) {
                                if is_hash_name(t) {
                                    out.push(f.to_string());
                                }
                            }
                        }
                    }
                }
            }
            walk(&item.children, out);
        }
    }
    walk(&file.items, &mut out);
    out
}

fn is_hash_name(name: &str) -> bool {
    matches!(name, "HashMap" | "HashSet")
}

/// The ordered twin of a banned hash container path.
fn btree_twin(banned: &str) -> &'static str {
    if banned.ends_with("HashSet") {
        "BTreeSet"
    } else {
        "BTreeMap"
    }
}

struct Checker<'a> {
    krate: &'a str,
    rel: &'a str,
    scan: &'a ScanResult,
    ctx: Ctx,
    out: FileAnalysis,
    /// Rules waived for the whole enclosing item(s) by pragmas above them.
    item_allow_stack: Vec<Vec<String>>,
    /// Enclosing `impl` self type (for lock labels / clock-leak).
    self_ty: Option<String>,
    /// Enclosing `impl`'s trait name.
    impl_trait: Option<String>,
    hash_fields: Vec<String>,
}

impl Checker<'_> {
    fn in_scope(&self, meta: &Meta) -> bool {
        meta.scope.applies_to(self.krate)
            || (meta.name == "raw-instant"
                && RAW_INSTANT_EXTRA_PATHS
                    .iter()
                    .any(|p| self.rel.ends_with(p)))
    }

    /// A pragma on the reported line, the line above it, or one covering
    /// an enclosing item waives the rule.
    fn allowed(&self, line: u32, rule: &str) -> bool {
        let line_hit = [line, line.saturating_sub(1)].iter().any(|l| {
            self.scan
                .allows
                .get(l)
                .is_some_and(|rs| rs.iter().any(|r| r == rule))
        });
        line_hit
            || self
                .item_allow_stack
                .iter()
                .any(|rs| rs.iter().any(|r| r == rule))
    }

    fn report(&mut self, meta: &Meta, line: u32, matched: impl Into<String>) -> bool {
        if !self.in_scope(meta) || self.allowed(line, meta.name) {
            return false;
        }
        self.out.diags.push(Diagnostic {
            file: self.rel.to_string(),
            line,
            rule: meta.name,
            matched: matched.into(),
            why: meta.why,
            help: meta.help,
        });
        true
    }

    fn walk_items(&mut self, items: &[Item]) {
        for item in items {
            if item.is_test {
                continue;
            }
            // Item-scoped pragma: `// dqa-lint: allow(x)` on the line
            // above the item (or above its attributes) covers the item.
            let pragma_line = item
                .attrs
                .first()
                .map(|a: &Attr| a.line)
                .unwrap_or(item.line_lo);
            let item_allows = [pragma_line.saturating_sub(1), pragma_line]
                .iter()
                .filter_map(|l| self.scan.allows.get(l))
                .flatten()
                .cloned()
                .collect::<Vec<_>>();
            self.item_allow_stack.push(item_allows);
            self.walk_item(item);
            self.item_allow_stack.pop();
        }
    }

    fn walk_item(&mut self, item: &Item) {
        match &item.kind {
            ItemKind::Use(imports) => self.check_imports(imports),
            ItemKind::Mod => {
                self.ctx.push(Scope::from_items(&item.children));
                self.walk_items(&item.children);
                self.ctx.pop();
            }
            ItemKind::Impl(decl) => {
                let prev_ty = self.self_ty.take();
                let prev_tr = self.impl_trait.take();
                self.self_ty = decl.self_ty.clone();
                self.impl_trait = decl.trait_name.clone();
                self.walk_items(&item.children);
                self.self_ty = prev_ty;
                self.impl_trait = prev_tr;
            }
            ItemKind::Trait => self.walk_items(&item.children),
            ItemKind::Fn(decl) => self.walk_fn(item, decl),
            // Struct fields, const/static/type-alias right-hand sides,
            // macro bodies, unrecognized items: scan for banned mentions
            // and calls, without guard tracking.
            _ => {
                let mut st = BodyState::default();
                self.walk_exprs(&item.tokens, &mut st);
            }
        }
    }

    // -- imports ----------------------------------------------------------

    fn check_imports(&mut self, imports: &[crate::ast::UseImport]) {
        for u in imports {
            let segs: Vec<&str> = u.path.split("::").collect();
            for (meta, banned, display) in [
                (&WALL_CLOCK, "std::time::Instant", "std::time::Instant"),
                (
                    &WALL_CLOCK,
                    "std::time::SystemTime",
                    "std::time::SystemTime",
                ),
                (&UNORDERED_STATE, "std::collections::HashMap", "HashMap"),
                (&UNORDERED_STATE, "std::collections::HashSet", "HashSet"),
                (
                    &UNBOUNDED_CHANNEL,
                    "std::sync::mpsc::channel",
                    "std::sync::mpsc::channel",
                ),
            ] {
                if u.glob {
                    continue;
                }
                if judge(&self.ctx, &segs, banned) != Verdict::Innocent
                    && self.report(meta, u.line, display)
                    && meta.name == "unordered-state"
                {
                    // `use std::collections::HashMap;` — the span covers
                    // the final path segment, so rewriting it to the
                    // BTree twin is purely mechanical.
                    self.out.fixes.push(Edit {
                        lo: u.lo,
                        hi: u.hi,
                        replacement: btree_twin(banned).to_string(),
                    });
                }
            }
        }
    }

    // -- function bodies ---------------------------------------------------

    fn walk_fn(&mut self, _item: &Item, decl: &FnDecl) {
        // Signature: type mentions (params + return type).
        let mut sig_state = BodyState::default();
        if let Some(params) = &decl.params {
            self.walk_exprs(&params.trees, &mut sig_state);
        }
        self.walk_exprs(&decl.ret, &mut sig_state);

        // clock-leak evidence: does this fn live in a virtual-time world?
        let clock_param = decl
            .params
            .as_ref()
            .is_some_and(|p| mentions_clock_type(&p.trees))
            || self.impl_trait.as_deref() == Some("Clock");

        if let Some(body) = &decl.body {
            let mut st = BodyState {
                clock_scope: clock_param,
                ..BodyState::default()
            };
            // Seed known-hash vars from hash-typed params.
            if let Some(params) = &decl.params {
                seed_hash_params(&params.trees, &mut st);
                st.clock_scope |= mentions_clock_recv(&params.trees);
            }
            self.walk_block(&body.trees, &mut st);
            // Wall reads seen before the virtual-clock evidence (e.g. a
            // ManualClock mention later in the body) flush here.
            self.maybe_clock_leak(&mut st);
        }
    }

    /// Walk a `{}` block: statement-aware (let bindings, guard scopes).
    fn walk_block(&mut self, trees: &[Tree], st: &mut BodyState) {
        let guards_before = st.guards.len();
        let vars_before = st.hash_vars.len();
        let mut i = 0usize;
        while i < trees.len() {
            let stmt_end = statement_end(trees, i);
            self.walk_statement(&trees[i..stmt_end], st);
            i = stmt_end.max(i + 1);
            // Skip the `;` itself.
            if trees
                .get(i.wrapping_sub(1))
                .is_some_and(|t| t.is_punct(';'))
            {
                continue;
            }
        }
        st.guards.truncate(guards_before);
        st.hash_vars.truncate(vars_before);
    }

    /// One statement: classify `let` bindings, then run the expression
    /// walk; a guard bound by `let` survives to the end of the block,
    /// a temporary guard dies with the statement.
    fn walk_statement(&mut self, trees: &[Tree], st: &mut BodyState) {
        let temp_guards_before = st.guards.len();
        let mut bound_guard: Option<String> = None;
        let mut is_let = false;
        let mut name: Option<String> = None;

        if trees.first().is_some_and(|t| t.is_ident("let")) {
            is_let = true;
            let mut j = 1;
            if trees.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            name = trees.get(j).and_then(Tree::ident).map(String::from);
            // `let x: HashMap<..> = ...` / `let x: Vec<_> = ...`.
            if let (Some(n), true) = (&name, trees.get(j + 1).is_some_and(|t| t.is_punct(':'))) {
                if let Some(ty) = trees.get(j + 2).and_then(Tree::ident) {
                    if is_hash_name(ty) && self.ctx.resolve_ident(ty) != crate::sem::Origin::Local {
                        st.hash_vars.push(n.clone());
                    }
                }
            }
            // `let x = HashMap::new()` / `...collect::<HashMap<..>>()`.
            if let Some(n) = &name {
                if rhs_is_hash(&trees[j..]) {
                    st.hash_vars.push(n.clone());
                }
                // Shadowing kills a previous guard/hash binding.
                if !rhs_is_lock(&trees[j..]) {
                    st.guards.retain(|g| g.var.as_deref() != Some(n.as_str()));
                }
            }
        }

        // Expression-level events (mentions, calls, guard acquisitions).
        let acquired_before = st.pending_guard.take();
        let _ = acquired_before;
        self.walk_exprs(trees, st);

        // A `let g = <...>.lock();` statement: name the guard acquired in
        // this statement so it survives the statement.
        if let (true, Some(n)) = (is_let, name) {
            if let Some(g) = st
                .guards
                .iter_mut()
                .rev()
                .find(|g| g.var.is_none() && g.temp)
            {
                g.var = Some(n.clone());
                g.temp = false;
                bound_guard = Some(n);
            }
        }
        let _ = bound_guard;

        // `drop(g)` / `mem::drop(g)` releases the guard named `g` for the
        // rest of the block.
        let mut j = 0usize;
        while j < trees.len() {
            if trees[j].is_ident("drop") {
                if let Some(g) = trees
                    .get(j + 1)
                    .and_then(Tree::group)
                    .filter(|g| g.delim == '(')
                {
                    if g.trees.len() == 1 {
                        if let Some(name) = g.trees[0].ident() {
                            st.guards.retain(|gi| gi.var.as_deref() != Some(name));
                        }
                    }
                }
            }
            j += 1;
        }

        // Temporary (unbound) guards die with the statement.
        st.guards.truncate_temporaries(temp_guards_before);
    }

    /// The linear expression walk: paths, method calls, loops, nested
    /// groups. This is where most rules fire.
    fn walk_exprs(&mut self, trees: &[Tree], st: &mut BodyState) {
        let mut i = 0usize;
        while i < trees.len() {
            match &trees[i] {
                Tree::Leaf(tok) => {
                    if tok.ident() == Some("for") {
                        // `for pat in EXPR { .. }` — find `in`, the
                        // iterated expression, and the body.
                        if let Some(adv) = self.handle_for_loop(&trees[i..], st) {
                            i += adv;
                            continue;
                        }
                    }
                    if tok.is_punct('.') {
                        if let Some(adv) = self.handle_method(trees, i, st) {
                            i += adv;
                            continue;
                        }
                    }
                    if let Some(first) = tok.ident() {
                        if !is_expr_keyword(first) {
                            let adv = self.handle_path(trees, i, st);
                            i += adv;
                            continue;
                        }
                    }
                    i += 1;
                }
                Tree::Group(g) => {
                    if g.delim == '{' {
                        self.walk_block(&g.trees, st);
                    } else {
                        self.walk_exprs(&g.trees, st);
                    }
                    i += 1;
                }
            }
        }
    }

    /// `for pat in EXPR { body }`: returns trees consumed, if parsed.
    fn handle_for_loop(&mut self, trees: &[Tree], st: &mut BodyState) -> Option<usize> {
        let in_pos = trees
            .iter()
            .position(|t| t.is_ident("in"))
            .filter(|&p| p > 0)?;
        let body_pos = trees[in_pos..]
            .iter()
            .position(|t| t.is_group('{'))
            .map(|p| p + in_pos)?;
        let iterated = &trees[in_pos + 1..body_pos];
        // Direct iteration over a hash container (`for x in &map`,
        // `for (k, v) in map.iter()`, …).
        if let Some(line) = self.hash_iteration(iterated, st) {
            self.report(&HASHMAP_ITER_ORDER, line, hash_iter_label(iterated));
        }
        // Walk the iterated expression (it may itself contain calls) and
        // the body.
        self.walk_exprs(iterated, st);
        if let Some(body) = trees[body_pos].group() {
            self.walk_block(&body.trees, st);
        }
        Some(body_pos + 1)
    }

    /// Whether an iterated expression is a hash container or a
    /// non-reordering adapter chain on one; returns the line to report.
    fn hash_iteration(&self, iterated: &[Tree], st: &BodyState) -> Option<u32> {
        // Strip leading `&`/`mut`.
        let mut k = 0usize;
        while iterated
            .get(k)
            .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
        {
            k += 1;
        }
        let root = iterated.get(k)?;
        let root_name = root.ident()?;
        let line = root.line();
        let is_hash_root = if root_name == "self" {
            let field = iterated
                .get(k + 2)
                .and_then(Tree::ident)
                .filter(|_| iterated.get(k + 1).is_some_and(|t| t.is_punct('.')));
            field.is_some_and(|f| self.hash_fields.iter().any(|h| h == f))
        } else {
            st.hash_vars.iter().any(|v| v == root_name)
        };
        if !is_hash_root {
            return None;
        }
        // A chain that restores order (sort/collect-into-BTree) is fine;
        // plain iteration and adapters like .iter()/.keys()/.map() are not.
        if chain_restores_order(&iterated[k..]) {
            return None;
        }
        Some(line)
    }

    /// Method-call handling (`.name(args)`): rules that react to method
    /// calls, guard tracking, and receiver-chain labels. `i` indexes the
    /// `.`; returns trees consumed from `i`, if this was a method call.
    fn handle_method(&mut self, trees: &[Tree], i: usize, st: &mut BodyState) -> Option<usize> {
        let name = trees.get(i + 1).and_then(Tree::ident)?;
        let name_line = trees[i + 1].line();
        // Optional turbofish between name and args.
        let mut j = i + 2;
        if trees.get(j).is_some_and(|t| t.is_punct(':'))
            && trees.get(j + 1).is_some_and(|t| t.is_punct(':'))
            && trees.get(j + 2).is_some_and(|t| t.is_punct('<'))
        {
            j = skip_angle(trees, j + 2);
        }
        let args = trees
            .get(j)
            .and_then(Tree::group)
            .filter(|g| g.delim == '(');
        let args = args?;
        let n_args = count_args(args);

        match name {
            "unwrap" | "expect" => {
                self.report(&RUNTIME_PANIC, name_line, format!(".{name}()"));
            }
            "recv" => {
                self.report(&UNBOUNDED_RECV, name_line, ".recv()");
                self.blocking_under_guard(st, name_line, ".recv()");
            }
            "recv_timeout" => {
                self.blocking_under_guard(st, name_line, ".recv_timeout()");
            }
            "join" if n_args == 0 => {
                self.blocking_under_guard(st, name_line, ".join()");
            }
            "wait" | "wait_until" | "wait_timeout" | "wait_while" | "wait_timeout_while"
            | "wait_while_until" => {
                // `cv.wait(&mut guard)` *is* the condvar protocol: the
                // guard is meant to be held. Only flag a wait whose
                // arguments do not hand over one of the live guards.
                let hands_over_guard = st.guards.iter().any(|g| {
                    g.var
                        .as_deref()
                        .is_some_and(|v| group_mentions_ident(args, v))
                });
                if !hands_over_guard {
                    self.blocking_under_guard(st, name_line, &format!(".{name}()"));
                }
            }
            "lock" | "read" | "write" if n_args == 0 => {
                // `.write()` with args is io::Write; zero-arg is a lock.
                if !(name == "read" || name == "write") || receiver_is_lockish(trees, i) {
                    self.acquire_guard(trees, i, name_line, st);
                }
            }
            _ => {}
        }

        // Walk the argument group (closures, nested calls).
        self.walk_exprs(&args.trees, st);
        Some(j + 1 - i)
    }

    fn blocking_under_guard(&mut self, st: &BodyState, line: u32, what: &str) {
        if let Some(g) = st.guards.last() {
            let meta = &BLOCKING_UNDER_GUARD;
            if self.in_scope(meta) && !self.allowed(line, meta.name) {
                self.out.diags.push(Diagnostic {
                    file: self.rel.to_string(),
                    line,
                    rule: meta.name,
                    matched: format!("{what} while holding {}", g.label),
                    why: meta.why,
                    help: meta.help,
                });
            }
        }
    }

    /// A lock acquisition at `.lock()`/`.read()`/`.write()`: label the
    /// receiver, record lock-order edges against every held guard, and
    /// push the new guard (temporary until a `let` claims it).
    fn acquire_guard(&mut self, trees: &[Tree], dot: usize, line: u32, st: &mut BodyState) {
        let label = self.lock_label(trees, dot);
        for held in &st.guards {
            let allowed = self.allowed(line, LOCK_ORDER.name) || !self.in_scope(&LOCK_ORDER);
            self.out.lock_edges.push(LockEdge {
                held: held.label.clone(),
                acquired: label.clone(),
                file: self.rel.to_string(),
                line,
                allowed,
            });
        }
        st.guards.push(GuardInfo {
            var: None,
            label,
            temp: true,
        });
        st.pending_guard = Some(());
    }

    /// Build a workspace-unifiable label for the lock receiver ending at
    /// the `.` at `dot`: `crate::Type.field.path` with indexes stripped.
    fn lock_label(&mut self, trees: &[Tree], dot: usize) -> String {
        let mut parts: Vec<String> = Vec::new();
        let mut k = dot;
        // Walk backwards over the receiver chain.
        while k > 0 {
            let prev = &trees[k - 1];
            if let Some(id) = prev.ident() {
                if is_expr_keyword(id) {
                    break;
                }
                parts.push(id.to_string());
                k -= 1;
                // A preceding `.` or `::` continues the chain.
                if k >= 1 && trees[k - 1].is_punct('.') {
                    k -= 1;
                    continue;
                }
                if k >= 2 && trees[k - 1].is_punct(':') && trees[k - 2].is_punct(':') {
                    k -= 2;
                    continue;
                }
                break;
            }
            if prev.is_group('[') {
                parts.push("[]".to_string());
                k -= 1;
                continue;
            }
            if prev.is_group('(') {
                // A call result: include it opaquely and stop.
                parts.push("()".to_string());
                k -= 1;
                continue;
            }
            break;
        }
        parts.reverse();
        let owner = self.self_ty.clone().unwrap_or_else(|| "fn".to_string());
        let chain = if parts.first().map(String::as_str) == Some("self") {
            parts[1..].join(".")
        } else {
            parts.join(".")
        };
        let chain = if chain.is_empty() {
            "<expr>".to_string()
        } else {
            chain
        };
        format!("{}::{owner}.{chain}", self.krate)
    }

    /// Path-expression handling starting at an identifier; returns trees
    /// consumed. Fires mention rules, path-call rules, macro rules, and
    /// clock-leak bookkeeping.
    fn handle_path(&mut self, trees: &[Tree], i: usize, st: &mut BodyState) -> usize {
        // Never a path root: field access (`x.Instant` is not a path).
        if i > 0 && trees[i - 1].is_punct('.') {
            return 1;
        }
        let mut segs: Vec<&str> = Vec::new();
        let mut seg_lines: Vec<u32> = Vec::new();
        let mut seg_spans: Vec<(usize, usize)> = Vec::new();
        let mut k = i;
        while let Some(id) = trees.get(k).and_then(Tree::ident) {
            segs.push(id);
            seg_lines.push(trees[k].line());
            seg_spans.push((trees[k].lo(), trees[k].hi()));
            if trees.get(k + 1).is_some_and(|t| t.is_punct(':'))
                && trees.get(k + 2).is_some_and(|t| t.is_punct(':'))
            {
                if trees.get(k + 3).is_some_and(|t| t.is_punct('<')) {
                    // Turbofish: type arguments scanned separately below.
                    k += 3;
                    let end = skip_angle(trees, k);
                    k = end;
                    break;
                }
                if trees.get(k + 3).and_then(Tree::ident).is_some() {
                    k += 3;
                    continue;
                }
            }
            k += 1;
            break;
        }
        let consumed = (k - i).max(1);
        let is_call = trees.get(k).is_some_and(|t| t.is_group('('));
        let is_macro = trees.get(k).is_some_and(|t| t.is_punct('!'));
        let last_line = *seg_lines.last().unwrap_or(&0);

        if is_macro {
            if let Some(&m) = segs.first() {
                if matches!(m, "panic" | "unreachable" | "todo" | "unimplemented") {
                    self.report(&RUNTIME_PANIC, seg_lines[0], format!("{m}!"));
                }
            }
            return consumed;
        }

        // Type-mention rules: fire on the banned type's own segment.
        let call_hi = trees.get(k).and_then(Tree::group).map(|g| g.hi);
        self.mention_rules(&segs, &seg_lines, &seg_spans, call_hi.filter(|_| is_call));

        // Path-call rules.
        if is_call {
            self.path_call_rules(&segs, &seg_lines, last_line, st);
        }

        // clock-leak: `clock.now()`-style reads handled in method walk via
        // receiver names; `ManualClock` mention marks the scope virtual.
        if segs.iter().any(|s| *s == "ManualClock") {
            st.clock_scope = true;
        }

        consumed
    }

    fn mention_rules(
        &mut self,
        segs: &[&str],
        seg_lines: &[u32],
        seg_spans: &[(usize, usize)],
        call_hi: Option<usize>,
    ) {
        for (meta, banned, display) in [
            (&WALL_CLOCK, "std::time::Instant", "std::time::Instant"),
            (
                &WALL_CLOCK,
                "std::time::SystemTime",
                "std::time::SystemTime",
            ),
            (&UNORDERED_STATE, "std::collections::HashMap", "HashMap"),
            (&UNORDERED_STATE, "std::collections::HashSet", "HashSet"),
        ] {
            if !self.in_scope(meta) {
                continue;
            }
            let last = banned.split("::").last().unwrap_or(banned);
            let Some(pos) = segs.iter().position(|s| *s == last) else {
                continue;
            };
            if judge(&self.ctx, &segs[..=pos], banned) != Verdict::Innocent
                && self.report(meta, seg_lines[pos], display)
                && meta.name == "unordered-state"
            {
                let twin = btree_twin(banned);
                // `HashMap::with_capacity(n)` has no BTree equivalent:
                // rewrite the whole call to `BTreeMap::new()`.
                if segs.get(pos + 1) == Some(&"with_capacity") {
                    if let Some(hi) = call_hi {
                        self.out.fixes.push(Edit {
                            lo: seg_spans[pos].0,
                            hi,
                            replacement: format!("{twin}::new()"),
                        });
                        continue;
                    }
                }
                self.out.fixes.push(Edit {
                    lo: seg_spans[pos].0,
                    hi: seg_spans[pos].1,
                    replacement: twin.to_string(),
                });
            }
        }
    }

    fn path_call_rules(
        &mut self,
        segs: &[&str],
        seg_lines: &[u32],
        last_line: u32,
        st: &mut BodyState,
    ) {
        let last = *segs.last().unwrap_or(&"");
        match last {
            "sleep" if segs.len() >= 2 => {
                if judge(&self.ctx, segs, "std::thread::sleep") != Verdict::Innocent {
                    self.report(&WALL_CLOCK, last_line, "thread::sleep");
                    if !st.guards.is_empty() {
                        self.blocking_under_guard(st, last_line, "thread::sleep()");
                    }
                }
            }
            "now" if segs.len() >= 2 => {
                if judge(&self.ctx, segs, "std::time::Instant::now") != Verdict::Innocent {
                    self.report(&RAW_INSTANT, last_line, "Instant::now()");
                    st.wall_reads.push((last_line, "Instant::now()"));
                    self.maybe_clock_leak(st);
                }
                if judge(&self.ctx, segs, "std::time::SystemTime::now") != Verdict::Innocent {
                    st.wall_reads.push((last_line, "SystemTime::now()"));
                    self.maybe_clock_leak(st);
                }
            }
            "new" if segs.len() >= 2 && segs[segs.len() - 2] == "WallClock" => {
                st.wall_reads.push((last_line, "WallClock::new()"));
                self.maybe_clock_leak(st);
            }
            "now_instant" => {
                st.wall_reads.push((last_line, "now_instant()"));
                self.maybe_clock_leak(st);
            }
            "channel" => {
                if judge(&self.ctx, segs, "std::sync::mpsc::channel") != Verdict::Innocent {
                    self.report(
                        &UNBOUNDED_CHANNEL,
                        seg_lines[segs.len() - 1],
                        "std::sync::mpsc::channel",
                    );
                }
            }
            "write" if segs.len() >= 2 => {
                if judge(&self.ctx, segs, "std::fs::write") != Verdict::Innocent {
                    self.report(&RAW_FS_WRITE, last_line, "fs::write");
                }
            }
            "create" if segs.len() >= 2 => {
                if judge(&self.ctx, segs, "std::fs::File::create") != Verdict::Innocent {
                    self.report(&RAW_FS_WRITE, last_line, "File::create");
                }
            }
            "drop" if segs.len() == 1 => {
                // `drop(g)` releases a guard mid-block; handled by caller
                // walking args — but we must forget the guard here. The
                // argument group follows this path; peek it in walk_exprs
                // is complex, so mark a pending drop by name resolution in
                // the statement walk instead (conservative: clear nothing).
            }
            _ => {}
        }
    }

    fn maybe_clock_leak(&mut self, st: &mut BodyState) {
        if !st.clock_scope {
            return;
        }
        let reads = std::mem::take(&mut st.wall_reads);
        for (line, what) in reads {
            self.report(&CLOCK_LEAK, line, what);
        }
    }
}

// ---------------------------------------------------------------------------
// Body-walk state and small helpers.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct GuardInfo {
    /// The `let` variable holding the guard (None while temporary).
    var: Option<String>,
    label: String,
    /// True until a `let` claims it; temporaries die with the statement.
    temp: bool,
}

trait GuardVec {
    fn truncate_temporaries(&mut self, floor: usize);
}

impl GuardVec for Vec<GuardInfo> {
    fn truncate_temporaries(&mut self, floor: usize) {
        let mut i = self.len();
        while i > floor {
            i -= 1;
            if self[i].temp {
                self.remove(i);
            }
        }
    }
}

#[derive(Debug, Default)]
struct BodyState {
    guards: Vec<GuardInfo>,
    hash_vars: Vec<String>,
    /// True when the enclosing fn is parameterized by a virtual Clock.
    clock_scope: bool,
    /// Wall-clock reads seen so far in this fn (flushed into clock-leak
    /// diagnostics the moment the scope is known to be virtual).
    wall_reads: Vec<(u32, &'static str)>,
    pending_guard: Option<()>,
}

/// Statement boundary: the next `;` at this nesting level, or — for
/// block-shaped statements (`if`/`match`/`for`/… ending in `{}` with no
/// `;`) — one past their final group when a new statement keyword starts.
fn statement_end(trees: &[Tree], start: usize) -> usize {
    let mut i = start;
    while i < trees.len() {
        if trees[i].is_punct(';') {
            return i + 1;
        }
        i += 1;
    }
    trees.len()
}

fn is_expr_keyword(s: &str) -> bool {
    matches!(
        s,
        "let"
            | "mut"
            | "if"
            | "else"
            | "match"
            | "while"
            | "loop"
            | "for"
            | "in"
            | "return"
            | "break"
            | "continue"
            | "fn"
            | "move"
            | "ref"
            | "pub"
            | "use"
            | "mod"
            | "impl"
            | "struct"
            | "enum"
            | "trait"
            | "type"
            | "where"
            | "as"
            | "dyn"
            | "unsafe"
            | "async"
            | "await"
            | "const"
            | "static"
            | "extern"
            | "crate"
    )
}

/// Skip a `<...>` starting at `i` (which indexes `<`); returns the index
/// past the matching `>`.
fn skip_angle(trees: &[Tree], mut i: usize) -> usize {
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

fn count_args(g: &Group) -> usize {
    if g.trees.is_empty() {
        return 0;
    }
    1 + g.trees.iter().filter(|t| t.is_punct(',')).count()
}

fn group_mentions_ident(g: &Group, name: &str) -> bool {
    g.trees.iter().any(|t| match t {
        Tree::Leaf(tok) => tok.ident() == Some(name),
        Tree::Group(inner) => group_mentions_ident(inner, name),
    })
}

/// Whether a receiver chain ending at the `.` at `dot` looks like a lock
/// (`self.state.read()` yes; `file.read()`… also yes — the heuristic is
/// receiver-based only for read/write: require a known lock-ish name in
/// the chain to curb io false positives).
fn receiver_is_lockish(trees: &[Tree], dot: usize) -> bool {
    let mut k = dot;
    let mut names = Vec::new();
    while k > 0 {
        let prev = &trees[k - 1];
        if let Some(id) = prev.ident() {
            names.push(id.to_lowercase());
            k -= 1;
            if k >= 1 && trees[k - 1].is_punct('.') {
                k -= 1;
                continue;
            }
            break;
        }
        if prev.is_group('[') || prev.is_group('(') {
            k -= 1;
            continue;
        }
        break;
    }
    names.iter().any(|n| {
        n.contains("lock") || n.contains("mutex") || n.contains("rw") || n.contains("guard")
    })
}

/// `let x = <rhs>`: does the right-hand side construct a hash container?
fn rhs_is_hash(trees: &[Tree]) -> bool {
    let eq = trees.iter().position(|t| t.is_punct('='));
    let Some(eq) = eq else { return false };
    let rhs = &trees[eq + 1..];
    // `HashMap::new()`, `HashMap::with_capacity(..)`, `HashMap::from(..)`.
    if rhs.first().and_then(Tree::ident).is_some_and(is_hash_name) {
        return true;
    }
    // `...collect::<HashMap<..>>()` or `HashSet` in a turbofish.
    let mut prev_colon2 = false;
    for w in rhs.windows(2) {
        if w[0].is_punct(':') && w[1].is_punct(':') {
            prev_colon2 = true;
            continue;
        }
        if prev_colon2 {
            if w[1].ident().is_some_and(is_hash_name) {
                return true;
            }
            prev_colon2 = false;
        }
    }
    false
}

/// `let g = <rhs>`: does the right-hand side end in a lock acquisition
/// (possibly via `.unwrap()`/`.expect(..)`)?
fn rhs_is_lock(trees: &[Tree]) -> bool {
    let names: Vec<&str> = trees.iter().filter_map(Tree::ident).collect();
    names
        .iter()
        .rev()
        .take(3)
        .any(|n| matches!(*n, "lock" | "read" | "write" | "try_lock"))
}

/// Whether an adapter chain restores a deterministic order: an explicit
/// sort, or collecting into an ordered container.
fn chain_restores_order(trees: &[Tree]) -> bool {
    let names: Vec<&str> = trees.iter().filter_map(Tree::ident).collect();
    names.iter().any(|n| {
        n.starts_with("sort")
            || matches!(*n, "BTreeMap" | "BTreeSet" | "BinaryHeap")
            || matches!(
                *n,
                "count" | "sum" | "product" | "min" | "max" | "all" | "any" | "len"
            )
    })
}

/// A short human label for a flagged hash iteration.
fn hash_iter_label(iterated: &[Tree]) -> String {
    let mut out = String::new();
    for t in iterated.iter().take(6) {
        match t {
            Tree::Leaf(tok) => match &tok.kind {
                TokKind::Ident(s) => {
                    if !out.is_empty() && !out.ends_with('.') && !out.ends_with('&') {
                        out.push('.');
                    }
                    out.push_str(s);
                }
                TokKind::Punct('&') => out.push('&'),
                _ => {}
            },
            Tree::Group(_) => out.push_str("()"),
        }
    }
    if out.is_empty() {
        "hash iteration".to_string()
    } else {
        format!("iteration over {out}")
    }
}

/// Does a parameter list mention a virtual clock type (`&dyn Clock`,
/// `impl Clock`, `Arc<ManualClock>`, `C: Clock`)?
fn mentions_clock_type(trees: &[Tree]) -> bool {
    let names: Vec<&str> = flat_idents(trees);
    names
        .windows(1)
        .any(|w| matches!(w[0], "Clock" | "ManualClock"))
}

/// Params named like a clock (`clock: …`) also mark the scope virtual.
fn mentions_clock_recv(trees: &[Tree]) -> bool {
    flat_idents(trees).iter().any(|n| *n == "clock")
}

fn flat_idents(trees: &[Tree]) -> Vec<&str> {
    let mut out = Vec::new();
    for t in trees {
        match t {
            Tree::Leaf(tok) => {
                if let Some(s) = tok.ident() {
                    out.push(s);
                }
            }
            Tree::Group(g) => out.extend(flat_idents(&g.trees)),
        }
    }
    out
}

/// Seed hash-typed fn params (`m: &HashMap<K, V>`) as known-hash vars.
fn seed_hash_params(trees: &[Tree], st: &mut BodyState) {
    let mut i = 0usize;
    while i < trees.len() {
        if trees[i].is_punct(':') && i > 0 {
            if let Some(name) = trees[i - 1].ident() {
                let mut j = i + 1;
                while trees.get(j).is_some_and(|t| {
                    t.is_punct('&')
                        || t.is_ident("mut")
                        || matches!(
                            t,
                            Tree::Leaf(Tok {
                                kind: TokKind::Lifetime,
                                ..
                            })
                        )
                }) {
                    j += 1;
                }
                if trees.get(j).and_then(Tree::ident).is_some_and(is_hash_name) {
                    st.hash_vars.push(name.to_string());
                }
            }
        }
        i += 1;
    }
}
