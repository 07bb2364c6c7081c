//! One soak runner: every stress gate of the repo is a row of
//! [`SCENARIOS`], driven by `soak <scenario>…|all [--ci] [--seed N]
//! [--out DIR]`.
//!
//! A scenario file holds only its set-up and its invariants; what they
//! share lives here once: argument parsing, the DES double run
//! ([`double_run`]), outcome conservation ([`conserved`]), [`percentile`],
//! the fault-free [`baseline`], and the tail every gate ends with — one
//! stable verdict line per scenario,
//!
//! ```text
//! soak <name> seed=<n> ok|VIOLATION(<k>) des=<digest>
//! ```
//!
//! and, on a violation, `DIR/<name>/{violations.txt,trace.txt,metrics.json}`
//! plus a non-zero exit. `des` folds the serialised bytes of every
//! virtual-time report the scenario produced (`-` when it has none), so
//! "every soak digest unchanged" is `diff` over two runs' verdict lines.
//!
//! Adding a scenario is one file with a `pub fn run(&Ctx) -> Outcome` and
//! one row in [`SCENARIOS`]; CI runs `soak all --ci` and picks it up.

mod chaos;
mod federation;
mod integrity;
mod obs_overhead;
mod overload;
mod rebalance;
mod recovery;
mod trace;

use crate::fixtures::QaFixture;
use dqa_obs::{splitmix64, MetricsRegistry};
use dqa_runtime::{Cluster, ClusterConfig, DistributedAnswer};
use nlp::NamedEntityRecognizer;
pub use qa_types::stats::percentile;
use qa_types::OverloadCounts;
use serde::Serialize;
use std::path::{Path, PathBuf};

/// One row of the scenario table.
#[derive(Debug)]
pub struct Scenario {
    /// Name on the command line and in the verdict line.
    pub name: &'static str,
    /// Seed used when `--seed` is not given (the one CI gates on).
    pub seed: u64,
    /// Set-up plus invariants.
    pub run: fn(&Ctx) -> Outcome,
}

/// Every soak and gate, in the order `all` runs them.
#[rustfmt::skip]
pub const SCENARIOS: &[Scenario] = &[
    Scenario { name: "chaos", seed: 2001, run: chaos::run },
    Scenario { name: "overload", seed: 3001, run: overload::run },
    Scenario { name: "obs_overhead", seed: 4001, run: obs_overhead::run },
    Scenario { name: "recovery", seed: 4242, run: recovery::run },
    Scenario { name: "federation", seed: 7001, run: federation::run },
    Scenario { name: "rebalance", seed: 8001, run: rebalance::run },
    Scenario { name: "trace", seed: 9001, run: trace::run },
    Scenario { name: "integrity", seed: 10_001, run: integrity::run },
];

/// What the driver hands a scenario.
pub struct Ctx {
    /// Short fixed-size configuration for a per-commit gate.
    pub ci: bool,
    /// Seed of every fixture, schedule and simulation in the scenario.
    pub seed: u64,
    /// `DIR/<scenario>`: the violation dump lands here, and a scenario may
    /// leave forensic files of its own next to it.
    pub dir: PathBuf,
}

/// What a scenario hands back.
#[derive(Default)]
pub struct Outcome {
    /// Broken invariants; empty means the scenario held.
    pub violations: Vec<String>,
    /// Run summaries or runtime traces for `trace.txt`.
    pub trace: Vec<String>,
    /// Registry snapshotted into `metrics.json` on a violation.
    pub metrics: Option<MetricsRegistry>,
    /// Fold of every virtual-time report's digest.
    pub des: Option<u64>,
}

impl Outcome {
    /// Print one summary line and keep it for the violation dump.
    pub fn say(&mut self, line: String) {
        println!("  {line}");
        self.trace.push(line);
    }

    /// Fold a virtual-time report's serialised bytes into [`Outcome::des`].
    pub fn fold(&mut self, bytes: &str) {
        self.mix(digest(bytes));
    }

    fn mix(&mut self, digest: u64) {
        self.des = Some(splitmix64(self.des.unwrap_or(0) ^ digest));
    }

    /// [`double_run`], with the first run's digest folded in.
    pub fn double_run<R: PartialEq>(
        &mut self,
        run: impl FnMut() -> R,
        bytes: impl Fn(&R) -> String,
    ) -> Twice<R> {
        let twice = double_run(run, bytes);
        self.mix(twice.digests.0);
        twice
    }

    /// End a scenario whose later steps depend on the broken one.
    pub fn fail(mut self, msg: impl Into<String>, registry: &MetricsRegistry) -> Outcome {
        self.violations.push(msg.into());
        self.metrics = Some(registry.clone());
        self
    }
}

/// A seeded report and the evidence that a replay reproduced it.
pub struct Twice<R> {
    /// The first run.
    pub report: R,
    /// The first run's serialised bytes.
    pub export: String,
    /// Digests of both runs' serialised bytes.
    pub digests: (u64, u64),
    /// The runs differed, by `PartialEq` or in their serialised bytes.
    pub diverged: bool,
}

/// Run a seeded virtual-time configuration twice: bit-identical replay
/// means equal values *and* equal serialised bytes.
pub fn double_run<R: PartialEq>(
    mut run: impl FnMut() -> R,
    bytes: impl Fn(&R) -> String,
) -> Twice<R> {
    let (report, replay) = (run(), run());
    let (export, again) = (bytes(&report), bytes(&replay));
    Twice {
        diverged: report != replay || export != again,
        digests: (digest(&export), digest(&again)),
        report,
        export,
    }
}

/// The serialisation [`double_run`] compares unless a scenario has a
/// more telling export of its own.
pub fn json<R: Serialize>(report: &R) -> String {
    serde_json::to_string(report).expect("serialize report")
}

fn digest(bytes: &str) -> u64 {
    bytes.bytes().fold(0, |h, b| splitmix64(h ^ u64::from(b)))
}

/// Outcome conservation: every offered question left exactly one record
/// and exactly one outcome — answered, degraded or rejected.
pub fn conserved(counts: &OverloadCounts, records: usize, offered: usize) -> bool {
    counts.offered() == offered && records == offered
}

/// A thread-runtime cluster over the fixture's index.
fn start(fixture: &QaFixture, config: ClusterConfig) -> Cluster {
    Cluster::start(
        fixture.retriever(),
        NamedEntityRecognizer::standard(),
        config,
    )
}

/// The bytes two answers are compared by: score bits included.
fn answer_bytes(out: &DistributedAnswer) -> Vec<u8> {
    out.answers.encode()
}

/// Fault-free answer bytes for every fixture question: what each later
/// wave of the scenario must reproduce.
fn baseline(clean: &Cluster, fixture: &QaFixture) -> Vec<Vec<u8>> {
    fixture
        .questions
        .iter()
        .map(|gq| {
            let out = clean.ask(&gq.question).expect("fault-free ask failed");
            assert!(out.coverage.is_complete(), "fault-free run degraded");
            answer_bytes(&out)
        })
        .collect()
}

/// The parsed command line.
#[derive(Debug)]
pub struct Args {
    /// Rows to run, in the order named.
    pub scenarios: Vec<&'static Scenario>,
    /// `--ci`.
    pub ci: bool,
    /// `--seed N`: replaces the table seed of every selected row.
    pub seed: Option<u64>,
    /// `--out DIR` (default `target/soak`).
    pub out: PathBuf,
}

/// Parse `soak`'s arguments. Anything that would make the run differ from
/// what was asked — an unparsable or missing value, an unknown flag or
/// scenario — is an error carrying the usage text, never a silent default.
pub fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        scenarios: Vec::new(),
        ci: false,
        seed: None,
        out: "target/soak".into(),
    };
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--ci" => args.ci = true,
            "--seed" => {
                let v = it.next().ok_or_else(|| usage("--seed wants a value"))?;
                let seed = v
                    .parse()
                    .map_err(|_| usage(&format!("--seed wants an unsigned integer, got {v:?}")))?;
                args.seed = Some(seed);
            }
            "--out" => {
                let dir = it.next().ok_or_else(|| usage("--out wants a directory"))?;
                args.out = dir.into();
            }
            "all" => args.scenarios.extend(SCENARIOS),
            flag if flag.starts_with('-') => return Err(usage(&format!("unknown flag {flag}"))),
            name => match SCENARIOS.iter().find(|s| s.name == name) {
                Some(s) => args.scenarios.push(s),
                None => return Err(usage(&format!("unknown scenario {name}"))),
            },
        }
    }
    if args.scenarios.is_empty() {
        return Err(usage("no scenario named"));
    }
    Ok(args)
}

fn usage(problem: &str) -> String {
    let names: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
    format!(
        "soak: {problem}\nusage: soak <scenario>...|all [--ci] [--seed N] [--out DIR]\n\
         scenarios: {}",
        names.join(" ")
    )
}

fn verdict(name: &str, seed: u64, outcome: &Outcome) -> String {
    let status = match outcome.violations.len() {
        0 => "ok".to_string(),
        k => format!("VIOLATION({k})"),
    };
    let des = outcome
        .des
        .map_or_else(|| "-".to_string(), |d| format!("{d:016x}"));
    format!("soak {name} seed={seed} {status} des={des}")
}

/// Leave `violations.txt`, `trace.txt` and (when the scenario kept a
/// registry) `metrics.json` under `dir`.
fn dump(dir: &Path, outcome: &Outcome) -> std::io::Result<()> {
    let lines = |ls: &[String]| ls.iter().map(|l| format!("{l}\n")).collect::<String>();
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("violations.txt"), lines(&outcome.violations))?;
    std::fs::write(dir.join("trace.txt"), lines(&outcome.trace))?;
    if let Some(registry) = &outcome.metrics {
        std::fs::write(dir.join("metrics.json"), registry.snapshot().to_json())?;
    }
    Ok(())
}

/// Run one scenario, print its verdict line and, if it broke an
/// invariant, leave the dump under `out/<name>`. True when it held.
pub fn run_scenario(scenario: &Scenario, ci: bool, seed: u64, out: &Path) -> bool {
    let ctx = Ctx {
        ci,
        seed,
        dir: out.join(scenario.name),
    };
    let outcome = (scenario.run)(&ctx);
    for v in &outcome.violations {
        eprintln!("soak {} VIOLATION: {v}", scenario.name);
    }
    if !outcome.violations.is_empty() {
        match dump(&ctx.dir, &outcome) {
            Ok(()) => eprintln!(
                "soak {}: dump left under {}",
                scenario.name,
                ctx.dir.display()
            ),
            Err(e) => eprintln!(
                "soak {}: cannot write {}: {e}",
                scenario.name,
                ctx.dir.display()
            ),
        }
    }
    println!("{}\n", verdict(scenario.name, seed, &outcome));
    outcome.violations.is_empty()
}

/// The `soak` binary: exit code 0 when every selected scenario held, 1 on
/// a violation, 2 on a usage error.
pub fn main(argv: impl IntoIterator<Item = String>) -> i32 {
    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(usage) => {
            eprintln!("{usage}");
            return 2;
        }
    };
    let broken = args
        .scenarios
        .iter()
        .filter(|s| !run_scenario(s, args.ci, args.seed.unwrap_or(s.seed), &args.out))
        .count();
    i32::from(broken > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(argv.iter().map(|a| a.to_string()))
    }

    fn rejected(argv: &[&str]) -> String {
        let usage = parse(argv).expect_err("must be rejected");
        assert!(usage.contains("usage: soak"), "{usage}");
        for s in SCENARIOS {
            assert!(usage.contains(s.name), "usage must list {}", s.name);
        }
        usage
    }

    #[test]
    fn scenario_names_are_unique_and_non_empty() {
        for (i, s) in SCENARIOS.iter().enumerate() {
            assert!(!s.name.is_empty());
            assert!(
                SCENARIOS[..i].iter().all(|t| t.name != s.name),
                "{}",
                s.name
            );
        }
    }

    #[test]
    fn all_expands_in_table_order() {
        let args = parse(&["all", "--ci"]).expect("valid");
        let names: Vec<_> = args.scenarios.iter().map(|s| s.name).collect();
        let table: Vec<_> = SCENARIOS.iter().map(|s| s.name).collect();
        assert_eq!(names, table);
        assert!(args.ci && args.seed.is_none());
    }

    #[test]
    fn named_scenarios_keep_their_order_and_flags_parse() {
        let args = parse(&["trace", "--seed", "7", "chaos", "--out", "x/y"]).expect("valid");
        let names: Vec<_> = args.scenarios.iter().map(|s| s.name).collect();
        assert_eq!(names, ["trace", "chaos"]);
        assert_eq!(args.seed, Some(7));
        assert_eq!(args.out, PathBuf::from("x/y"));
    }

    #[test]
    fn an_unparsable_seed_is_rejected_not_defaulted() {
        assert!(rejected(&["chaos", "--seed", "20O1"]).contains("20O1"));
    }

    #[test]
    fn a_missing_value_is_rejected() {
        assert!(rejected(&["chaos", "--seed"]).contains("--seed wants a value"));
        assert!(rejected(&["chaos", "--out"]).contains("--out wants a directory"));
    }

    #[test]
    fn an_unknown_flag_is_rejected() {
        assert!(rejected(&["chaos", "--questions", "4"]).contains("unknown flag --questions"));
    }

    #[test]
    fn an_unknown_or_absent_scenario_is_rejected() {
        assert!(rejected(&["chaos_soak"]).contains("unknown scenario chaos_soak"));
        assert!(rejected(&["--ci"]).contains("no scenario named"));
        assert_eq!(main(["nonesuch".to_string()]), 2);
    }

    #[test]
    fn double_run_flags_differing_reports_and_digests_equal_ones_equally() {
        let mut n = 0u32;
        let drifting = double_run(
            || {
                n += 1;
                n
            },
            json,
        );
        assert!(drifting.diverged);
        assert_ne!(drifting.digests.0, drifting.digests.1);

        let steady = double_run(|| vec![1u32, 2, 3], json);
        assert!(!steady.diverged);
        assert_eq!(steady.report, [1, 2, 3]);
        assert_eq!(steady.digests.0, steady.digests.1);
        assert_eq!(
            steady.digests,
            double_run(|| vec![1u32, 2, 3], json).digests
        );

        // Equal values whose exports differ still count as diverged.
        let flip = std::cell::Cell::new(false);
        let export = double_run(
            || 1u32,
            |_| {
                flip.set(!flip.get());
                flip.get().to_string()
            },
        );
        assert!(export.diverged);
    }

    #[test]
    fn a_violating_scenario_leaves_the_dump_and_reports_failure() {
        fn stub(ctx: &Ctx) -> Outcome {
            let mut out = Outcome::default();
            out.trace.push(format!("stub ran at seed {}", ctx.seed));
            out.fold("report bytes");
            out.fail("stub: the invariant broke", &MetricsRegistry::new())
        }
        fn held(_: &Ctx) -> Outcome {
            Outcome::default()
        }
        let dir = std::env::temp_dir().join(format!("soak-driver-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let row = |run| Scenario {
            name: "stub",
            seed: 5,
            run,
        };

        assert!(run_scenario(&row(held), true, 5, &dir));
        assert!(
            !dir.join("stub").exists(),
            "a scenario that held dumps nothing"
        );

        assert!(!run_scenario(&row(stub), true, 5, &dir));
        let read = |f: &str| std::fs::read_to_string(dir.join("stub").join(f)).expect(f);
        assert_eq!(read("violations.txt"), "stub: the invariant broke\n");
        assert_eq!(read("trace.txt"), "stub ran at seed 5\n");
        assert!(read("metrics.json").starts_with('{'));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verdict_lines_are_stable_and_diffable() {
        let mut out = Outcome::default();
        assert_eq!(
            verdict("chaos", 2001, &out),
            "soak chaos seed=2001 ok des=-"
        );
        out.fold("a");
        out.violations = vec!["x".into(), "y".into()];
        let line = verdict("trace", 9001, &out);
        assert!(
            line.starts_with("soak trace seed=9001 VIOLATION(2) des="),
            "{line}"
        );
        let mut again = Outcome::default();
        again.fold("a");
        assert_eq!(again.des, out.des);
    }

    #[test]
    fn conservation_and_percentile() {
        let counts = OverloadCounts {
            answered: 2,
            degraded: 1,
            rejected: 1,
        };
        assert!(conserved(&counts, 4, 4));
        assert!(!conserved(&counts, 3, 4));
        assert!(!conserved(&counts, 5, 5));
        assert_eq!(percentile(&mut [], 0.5), 0.0);
        assert_eq!(percentile(&mut [3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(percentile(&mut [3.0, 1.0, 2.0], 0.99), 3.0);
    }
}
