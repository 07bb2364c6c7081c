//! Golden tests for dqa-lint: seeded-violation fixtures must flag every
//! rule at exact file:line positions, waivers and exemptions must hold,
//! and the clean fixture (plus the real workspace) must produce zero
//! diagnostics.

use std::path::PathBuf;
use xtask::{lint_source, render_json, run_lint};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn violations_fixture_flags_each_rule_at_exact_lines() {
    let (checked, diags) = run_lint(&fixture("violations")).expect("fixture lint");
    assert_eq!(checked, 6, "fixture tree should contribute 6 source files");

    let got: Vec<(&str, &str, u32, &str)> = diags
        .iter()
        .map(|d| (d.file.as_str(), d.rule, d.line, d.matched.as_str()))
        .collect();
    let sim = "crates/cluster-sim/src/lib.rs";
    let obs = "crates/dqa-obs/src/trace.rs";
    let rt = "crates/dqa-runtime/src/lib.rs";
    let fed = "crates/federation/src/lib.rs";
    let reb = "crates/rebalance/src/lib.rs";
    let want = vec![
        (sim, "unordered-state", 4, "HashMap"),
        (sim, "wall-clock", 5, "std::time::Instant"),
        (sim, "wall-clock", 8, "std::time::Instant"),
        (sim, "unordered-state", 9, "HashMap"),
        (sim, "wall-clock", 13, "thread::sleep"),
        (obs, "raw-instant", 8, "Instant::now()"),
        (rt, "runtime-panic", 5, ".unwrap()"),
        (rt, "runtime-panic", 9, ".expect()"),
        (rt, "runtime-panic", 13, "panic!"),
        (rt, "runtime-panic", 17, "unreachable!"),
        (rt, "unbounded-channel", 21, "std::sync::mpsc::channel"),
        (rt, "raw-instant", 26, "Instant::now()"),
        (rt, "unbounded-recv", 34, ".recv()"),
        (rt, "raw-fs-write", 54, "fs::write"),
        (rt, "raw-fs-write", 58, "File::create"),
        (fed, "unbounded-channel", 5, "std::sync::mpsc::channel"),
        (reb, "raw-instant", 6, "Instant::now()"),
        (reb, "unbounded-recv", 10, ".recv()"),
        (reb, "unbounded-channel", 14, "std::sync::mpsc::channel"),
    ];
    assert_eq!(got, want);
}

#[test]
fn rebalance_inherits_clock_and_channel_rules_but_not_panic_rules() {
    let (_, diags) = run_lint(&fixture("violations")).expect("fixture lint");
    let reb: Vec<_> = diags
        .iter()
        .filter(|d| d.file.ends_with("rebalance/src/lib.rs"))
        .collect();
    // Exactly the three seeded threaded-runtime flags: the `.unwrap()`
    // (runtime-panic stays dqa-runtime-only) and the pragma'd
    // Instant/recv must not.
    assert_eq!(reb.len(), 3, "rebalance fixture diags: {reb:?}");
    assert!(
        reb.iter().all(|d| d.rule != "runtime-panic"),
        "runtime-panic leaked into the rebalance scope: {reb:?}"
    );
}

#[test]
fn federation_inherits_channel_rules_but_not_panic_rules() {
    let (_, diags) = run_lint(&fixture("violations")).expect("fixture lint");
    let fed: Vec<_> = diags
        .iter()
        .filter(|d| d.file.ends_with("federation/src/lib.rs"))
        .collect();
    // Exactly the seeded unbounded() flags: the `.unwrap()` (runtime-panic
    // stays dqa-runtime-only) and the pragma'd Instant/recv must not.
    assert_eq!(fed.len(), 1, "federation fixture diags: {fed:?}");
    assert_eq!(fed[0].rule, "unbounded-channel");
}

#[test]
fn pragma_and_test_code_waivers_hold_in_violations_fixture() {
    let (_, diags) = run_lint(&fixture("violations")).expect("fixture lint");
    // Line 18 of the cluster-sim fixture carries a pragma'd Instant; line
    // 30 of the dqa-runtime fixture a pragma'd unwrap, line 39 a pragma'd
    // bare recv, line 44 a pragma'd unbounded(), line 50 a pragma'd
    // Instant::now() and line 63 a pragma'd fs::write (pragma on the line
    // above). Every #[cfg(test)] mod holds violations of the crate-scoped
    // rules. Past the waived region starting at line 29 only the seeded
    // bare-recv (34) and raw-fs-write (54, 58) violations may flag.
    assert!(
        diags
            .iter()
            .all(|d| !(d.file.ends_with("cluster-sim/src/lib.rs") && d.line >= 16)),
        "waived or test-mod line flagged in cluster-sim fixture: {diags:?}"
    );
    assert!(
        diags
            .iter()
            .all(|d| !(d.file.ends_with("dqa-runtime/src/lib.rs")
                && d.line >= 29
                && ![34, 54, 58].contains(&d.line))),
        "waived or test-mod line flagged in dqa-runtime fixture: {diags:?}"
    );
}

#[test]
fn raw_instant_covers_the_trace_module_but_not_the_rest_of_dqa_obs() {
    let (_, diags) = run_lint(&fixture("violations")).expect("fixture lint");
    let obs: Vec<_> = diags
        .iter()
        .filter(|d| d.file.contains("dqa-obs"))
        .collect();
    // Exactly the seeded trace-module read flags: the pragma'd twin in
    // trace.rs is waived, and clock.rs — the sanctioned wall-clock read
    // point — stays outside the path-scoped extension entirely.
    assert_eq!(obs.len(), 1, "dqa-obs fixture diags: {obs:?}");
    assert_eq!(obs[0].file, "crates/dqa-obs/src/trace.rs");
    assert_eq!(obs[0].rule, "raw-instant");
    assert!(
        diags.iter().all(|d| !d.file.ends_with("dqa-obs/src/clock.rs")),
        "raw-instant leaked outside the trace module: {diags:?}"
    );
}

#[test]
fn clean_fixture_has_zero_diagnostics() {
    let (checked, diags) = run_lint(&fixture("clean")).expect("fixture lint");
    assert_eq!(checked, 1);
    assert!(diags.is_empty(), "clean fixture flagged: {diags:?}");
}

#[test]
fn json_rendering_is_valid_and_complete() {
    let (checked, diags) = run_lint(&fixture("violations")).expect("fixture lint");
    let json = render_json(checked, &diags);
    assert!(json.starts_with(&format!(
        "{{\"files_checked\":{checked},\"count\":{}",
        diags.len()
    )));
    // Every diagnostic's location must appear verbatim.
    for d in &diags {
        assert!(json.contains(&format!("\"file\":\"{}\",\"line\":{}", d.file, d.line)));
    }
    // All seven v1-style rule names exercised except the per-fixture
    // exemptions.
    for rule in [
        "wall-clock",
        "unordered-state",
        "raw-instant",
        "runtime-panic",
        "unbounded-recv",
        "unbounded-channel",
        "raw-fs-write",
    ] {
        assert!(
            json.contains(&format!("\"rule\":\"{rule}\"")),
            "missing {rule}"
        );
    }
}

#[test]
fn lexer_ignores_strings_comments_and_attr_tokens() {
    let src = r####"
        //! HashMap in a doc comment is fine.
        /* block comment: thread_rng, Instant, .unwrap() */
        #[doc = "Instant HashMap thread_rng"]
        pub fn f() -> &'static str {
            "panic! unreachable! HashMap Instant thread_rng"
        }
        pub const RAW: &str = r##"SystemTime .expect("x")"##;
    "####;
    for krate in ["cluster-sim", "dqa-runtime", "corpus"] {
        let diags = lint_source(krate, "crates/x/src/lib.rs", src);
        assert!(diags.is_empty(), "{krate}: false positives {diags:?}");
    }
}

#[test]
fn deep_fixture_flags_each_new_rule_at_exact_lines() {
    let (checked, diags) = run_lint(&fixture("deep")).expect("fixture lint");
    assert_eq!(
        checked, 4,
        "deep fixture tree should contribute 4 source files"
    );

    let got: Vec<(&str, &str, u32, &str)> = diags
        .iter()
        .map(|d| (d.file.as_str(), d.rule, d.line, d.matched.as_str()))
        .collect();
    let want = vec![
        (
            "crates/clocky/src/lib.rs",
            "clock-leak",
            9,
            "Instant::now()",
        ),
        (
            "crates/guardy/src/lib.rs",
            "blocking-under-guard",
            9,
            ".recv_timeout() while holding guardy::fn.m",
        ),
        (
            "crates/hashy/src/lib.rs",
            "hashmap-iter-order",
            12,
            "iteration over &self.map",
        ),
        (
            "crates/hashy/src/lib.rs",
            "hashmap-iter-order",
            29,
            "iteration over m.iter()",
        ),
        (
            "crates/locky/src/lib.rs",
            "lock-order",
            15,
            "locky::Pair.a -> locky::Pair.b",
        ),
        (
            "crates/locky/src/lib.rs",
            "lock-order",
            21,
            "locky::Pair.b -> locky::Pair.a",
        ),
    ];
    assert_eq!(got, want);
}

#[test]
fn deep_fixture_waived_and_clean_variants_stay_silent() {
    let (_, diags) = run_lint(&fixture("deep")).expect("fixture lint");
    // Each fixture file carries a pragma-waived twin of its violation and
    // clean variants (consistent lock order, condvar hand-over,
    // drop-before-block, BTree-collect, sort-after, wall-only fn). None
    // of those lines may flag: locky past line 24 (ba_waived + cd pair),
    // guardy past line 12 (waived stall, wait_ok, drop_first), hashy past
    // line 17 (waived iteration + ordered forms), clocky past line 13
    // (waived bridge, pure_virtual, wall_only).
    // `allowed` lists the seeded violations that legitimately live past
    // the floor (hashy's free-fn violation sits below its clean forms).
    for (file, floor, allowed) in [
        ("crates/locky/src/lib.rs", 24, &[][..]),
        ("crates/guardy/src/lib.rs", 12, &[][..]),
        ("crates/hashy/src/lib.rs", 17, &[29u32][..]),
        ("crates/clocky/src/lib.rs", 13, &[][..]),
    ] {
        assert!(
            diags
                .iter()
                .all(|d| !(d.file == file && d.line >= floor && !allowed.contains(&d.line))),
            "waived/clean variant flagged in {file}: {diags:?}"
        );
    }
}

#[test]
fn fix_golden_rewrites_hash_state_to_btree() {
    let before = std::fs::read_to_string(fixture("fix/before.rs")).expect("before fixture");
    let after = std::fs::read_to_string(fixture("fix/after.rs")).expect("after fixture");
    let analysis = xtask::analyze_source("scheduler", "crates/scheduler/src/state.rs", &before);
    let (fixed, n) = xtask::fix::apply(&before, &analysis.fixes);
    assert!(n >= 6, "expected >=6 mechanical edits, got {n}");
    assert_eq!(
        fixed, after,
        "--fix output must match the golden after file"
    );
    // The rewritten file must lint clean.
    let diags = lint_source("scheduler", "crates/scheduler/src/state.rs", &fixed);
    assert!(diags.is_empty(), "diags after fix: {diags:?}");
    // And the fixed point: fixing the clean file changes nothing.
    let again = xtask::analyze_source("scheduler", "crates/scheduler/src/state.rs", &after);
    assert!(
        again.fixes.is_empty(),
        "fix must be idempotent: {:?}",
        again.fixes
    );
}

#[test]
fn item_scoped_allow_pragma_waives_the_whole_item() {
    let src = "\
// dqa-lint: allow(runtime-panic)
pub fn noisy(x: Option<u64>) -> u64 {
    let a = x.unwrap();
    let b = x.expect(\"still waived\");
    a + b
}

pub fn other(x: Option<u64>) -> u64 {
    x.unwrap()
}
";
    let diags = lint_source("dqa-runtime", "crates/dqa-runtime/src/x.rs", src);
    // Only `other`'s unwrap may flag: the pragma above `noisy` covers
    // every line of that item.
    assert_eq!(diags.len(), 1, "diags: {diags:?}");
    assert_eq!(diags[0].line, 9);
}

#[test]
fn resolution_kills_shadowed_name_false_positives() {
    // A virtual-time crate defining its *own* Instant (the whole point of
    // virtual time) must not trip wall-clock; same for an internal import.
    let src = "\
pub struct Instant {
    pub ticks: u64,
}

pub fn now(clock_ticks: u64) -> Instant {
    Instant { ticks: clock_ticks }
}
";
    let diags = lint_source("cluster-sim", "crates/cluster-sim/src/time.rs", src);
    assert!(diags.is_empty(), "local Instant flagged: {diags:?}");

    let src2 = "use crate::virt::Instant;\npub fn t() -> Instant { Instant::default() }\n";
    let diags2 = lint_source("cluster-sim", "crates/cluster-sim/src/t.rs", src2);
    assert!(
        diags2.is_empty(),
        "internal Instant import flagged: {diags2:?}"
    );
}

#[test]
fn real_workspace_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (checked, diags) = run_lint(&root).expect("workspace lint");
    assert!(
        checked > 50,
        "workspace walk found too few files: {checked}"
    );
    assert!(diags.is_empty(), "workspace must lint clean: {diags:?}");
}
