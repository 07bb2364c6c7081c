//! `perf_gate`: the end-to-end and per-layer performance ledger.
//!
//! ```text
//! perf_gate --workload W --seed S [--seconds N] [--trace 0|1]   one run
//! perf_gate --all [--seed S] [--seconds N] [--runs K] [--out F] every workload, each in a child process
//! perf_gate --compare A.json B.json                             do two result sets agree?
//! perf_gate --benchmark-json                                    print BENCHMARK.json from the catalogue
//! ```
//!
//! Every layer is measured from outside, by timing calls into the crates'
//! public functions. See `README.md` for the catalogue and the protocol.

mod calib;
mod catalogue;
mod compare;
mod probes;
mod report;
mod sim;
mod spans;
mod stats;
mod text;

use catalogue::{END_TO_END, PER_LAYER, SIM_CLUSTER, WORKLOADS};
use report::{out_dir, Metrics, ResultLine, ResultSet, RunRecord, Tally};
use serde::{Deserialize, Serialize};
use spans::Recorder;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

/// How long one run measures; also `run_seconds` in `BENCHMARK.json`. The
/// host's slow spells last 5-10 s, so a run has to be a few of them long
/// for its median pass to be a quiet one; 92 driver runs with their
/// set-up still fit 3420 s at 20 s each.
pub const RUN_SECONDS: u64 = 20;

/// The frozen input sizes. Results are comparable only between runs that
/// share them, so they travel with every result set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sizes {
    /// 8 sub-collections × 1200 = 9 600 documents, 10× `trec_like`.
    pub docs_per_collection: usize,
    /// Questions per pass (the issue's 512, cut so that a 20 s run holds
    /// 6-9 whole passes at 15-25 ms a question, and a warm-up pass is short).
    pub questions: usize,
    /// Questions between two slices on `pipeline_seq` (see `calib.rs`).
    pub segment_questions: usize,
    /// Times the set-up path runs; `setup_s` is the median.
    pub setup_repeats: usize,
    pub runtime_nodes: usize,
    /// Closed-loop client threads on the runtime workloads (sized for 2 cores).
    pub runtime_clients: usize,
    pub sim_paper_nodes: usize,
    pub sim_paper_seeds: u64,
    pub sim_large_nodes: usize,
}

pub const SIZES: Sizes = Sizes {
    docs_per_collection: 1200,
    questions: 128,
    segment_questions: 8,
    setup_repeats: 3,
    runtime_nodes: 2,
    runtime_clients: 2,
    sim_paper_nodes: 12,
    sim_paper_seeds: 5,
    sim_large_nodes: 100,
};

/// One run's arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
}

impl RunArgs {
    pub fn duration(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// What a workload hands back.
pub struct Measured {
    pub tally: Tally,
    pub metrics: Metrics,
    /// Latency samples taken (items × passes).
    pub samples: u64,
    /// The traced run's spans.
    pub spans: Option<Recorder>,
    /// The run's figures over all passes pooled, for the human reader.
    pub note: String,
}

impl Measured {
    pub fn new(
        tally: Tally,
        metrics: Metrics,
        samples: usize,
        spans: Option<Recorder>,
        note: String,
    ) -> Measured {
        Measured {
            tally,
            metrics,
            samples: samples as u64,
            spans,
            note,
        }
    }
}

enum Mode {
    Run(RunArgs),
    All {
        seed: u64,
        seconds: u64,
        runs: usize,
        out: PathBuf,
    },
    Compare(PathBuf, PathBuf),
    BenchmarkJson,
}

fn parse(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced, mut runs) = (2001u64, RUN_SECONDS, false, 1usize);
    let (mut all, mut benchmark_json) = (false, false);
    let mut out = None;
    let mut compare = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = number(value()?)?,
            "--seconds" => seconds = number(value()?)?,
            "--runs" => runs = number(value()?)? as usize,
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--all" => all = true,
            "--benchmark-json" => benchmark_json = true,
            "--compare" => compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if seconds == 0 || seconds > 60 {
        return Err("--seconds must be between 1 and 60".into());
    }
    match (workload, all, compare, benchmark_json) {
        (Some(w), false, None, false) if catalogue::workload(&w).is_some() => {
            Ok(Mode::Run(RunArgs {
                workload: w,
                seed,
                seconds,
                traced,
            }))
        }
        (Some(w), false, None, false) => Err(format!(
            "unknown workload `{w}`; one of: {}",
            WORKLOADS
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
                .join(", ")
        )),
        (None, true, None, false) => Ok(Mode::All {
            seed,
            seconds,
            runs: runs.max(1),
            out: out.unwrap_or_else(|| out_dir().join("results.json")),
        }),
        (None, false, Some((a, b)), false) => Ok(Mode::Compare(a, b)),
        (None, false, None, true) => Ok(Mode::BenchmarkJson),
        _ => Err("give exactly one of --workload, --all, --compare, --benchmark-json".into()),
    }
}

fn run_file(workload: &str, traced: bool) -> PathBuf {
    out_dir().join(format!(
        "{workload}.{}.json",
        if traced { "traced" } else { "run" }
    ))
}

fn write_json<T: Serialize>(path: &Path, value: &T) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn read_text(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_result_set(path: &Path) -> Result<ResultSet, String> {
    serde_json::from_str(&read_text(path)?).map_err(|e| format!("{}: {e}", path.display()))
}

/// One run: measure, print every metric by name with its unit, keep the
/// record and the spans under `<target>/perf`, end with the result line.
fn run_one(args: &RunArgs) -> Result<bool, String> {
    let measured = if args.workload == SIM_CLUSTER {
        sim::run(args)
    } else {
        text::run(args)
    };
    let metrics = measured.metrics.finish(args.traced)?;
    let result = ResultLine {
        correct: measured.tally.correct(),
        attempted: measured.tally.attempted,
        failed: measured.tally.failed,
        metrics,
    };
    println!(
        "# {} seed {} {} s {}",
        args.workload,
        args.seed,
        args.seconds,
        if args.traced { "traced" } else { "untraced" }
    );
    for (name, m) in &result.metrics {
        // A per-layer metric is printed with what it is expected to move.
        let moves = PER_LAYER
            .iter()
            .find(|l| l.name == name)
            .map_or(String::new(), |l| format!("   -> {}", l.moves));
        println!("{name:<44} {:>16.6} {}{moves}", m.value, m.unit);
    }
    println!(
        "latency samples {}   attempted {}   failed {}",
        measured.samples, result.attempted, result.failed
    );
    println!("{}", measured.note);
    if let Some(rec) = &measured.spans {
        let path = out_dir().join(format!("{}.trace.json", args.workload));
        write_json(&path, &rec.spans())?;
        println!("{} spans -> {}", rec.spans().len(), path.display());
    }
    let record = RunRecord {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        samples: measured.samples,
        result,
    };
    write_json(&run_file(&args.workload, args.traced), &record)?;
    println!(
        "{}",
        serde_json::to_string(&record.result).map_err(|e| e.to_string())?
    );
    Ok(record.result.correct)
}

/// Every workload, each run in its own child process so that
/// `peak_rss_mb` belongs to one workload.
fn run_all(seed: u64, seconds: u64, runs: usize, out: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut set = ResultSet {
        fingerprint: report::fingerprint(),
        sizes: SIZES,
        runs: Vec::new(),
    };
    let mut all_correct = true;
    for w in WORKLOADS {
        for (traced, repeat) in (0..runs).map(|r| (false, r)).chain([(true, 0)]) {
            eprintln!(
                "perf_gate: {} {} run {}",
                w.name,
                if traced { "traced" } else { "untraced" },
                repeat + 1
            );
            // A record left by an earlier run must not pass for this one's.
            let path = run_file(w.name, traced);
            let _ = std::fs::remove_file(&path);
            let status = Command::new(&exe)
                .args(["--workload", w.name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .stdout(Stdio::null())
                .status()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            // Exit code 1 is a run whose checks failed; its record is kept.
            // Anything else measured nothing.
            if !matches!(status.code(), Some(0 | 1)) {
                return Err(format!("{} ended with {status}", w.name));
            }
            let record: RunRecord = serde_json::from_str(&read_text(&path)?)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            all_correct &= status.success() && record.result.correct;
            set.runs.push(record);
        }
    }
    write_json(out, &set)?;

    println!("fingerprint: {:?}", set.fingerprint);
    println!("sizes: {:?}", set.sizes);
    for run in &set.runs {
        println!(
            "\n# {} seed {} {} s {}: attempted {} failed {} samples {}",
            run.workload,
            run.seed,
            run.seconds,
            if run.traced { "traced" } else { "untraced" },
            run.result.attempted,
            run.result.failed,
            run.samples
        );
        for (name, m) in &run.result.metrics {
            println!("{name:<44} {:>16.6} {}", m.value, m.unit);
        }
    }
    println!("\nresult set -> {}", out.display());
    Ok(all_correct)
}

fn run_compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (a, b) = (read_result_set(a)?, read_result_set(b)?);
    if a.sizes != b.sizes {
        return Err("the two result sets were measured with different frozen sizes".into());
    }
    // Recall, sizes and simulated results are compared for equality.
    let seeds = |set: &ResultSet| set.runs.iter().map(|r| r.seed).collect::<BTreeSet<_>>();
    if seeds(&a) != seeds(&b) {
        return Err("the two result sets were measured with different seeds".into());
    }
    let rows = compare::compare(&a, &b);
    if rows.is_empty() {
        return Err("the two result sets share no workload".into());
    }
    print!("{}", compare::render(&rows));
    Ok(rows.iter().all(compare::Row::within_bound))
}

/// `BENCHMARK.json` as the driver's contract shapes it, from the catalogue.
fn benchmark_json() -> String {
    #[derive(Serialize)]
    struct W {
        name: &'static str,
        why: &'static str,
    }
    #[derive(Serialize)]
    struct E {
        name: &'static str,
        unit: &'static str,
        better: &'static str,
        bound: f64,
    }
    #[derive(Serialize)]
    struct L {
        name: &'static str,
        unit: &'static str,
        better: &'static str,
    }
    #[derive(Serialize)]
    struct Benchmark {
        command: Vec<&'static str>,
        paths: Vec<&'static str>,
        run_seconds: u64,
        workloads: Vec<W>,
        end_to_end: Vec<E>,
        per_layer: Vec<L>,
    }
    let b = Benchmark {
        command: vec!["python3", "crates/perf/run.py"],
        paths: vec!["crates/perf"],
        run_seconds: RUN_SECONDS,
        workloads: WORKLOADS
            .iter()
            .map(|w| W {
                name: w.name,
                why: w.why,
            })
            .collect(),
        end_to_end: END_TO_END
            .iter()
            .map(|m| E {
                name: m.name,
                unit: m.unit,
                better: m.better,
                bound: m.bound,
            })
            .collect(),
        per_layer: PER_LAYER
            .iter()
            .map(|m| L {
                name: m.name,
                unit: m.unit,
                better: m.better,
            })
            .collect(),
    };
    serde_json::to_string_pretty(&b).unwrap_or_default()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|mode| match mode {
        Mode::Run(run) => run_one(&run),
        Mode::All {
            seed,
            seconds,
            runs,
            out,
        } => run_all(seed, seconds, runs, &out),
        Mode::Compare(a, b) => run_compare(&a, &b),
        Mode::BenchmarkJson => {
            println!("{}", benchmark_json());
            Ok(true)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perf_gate: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let mode = parse(&args(&[
            "--workload",
            "sim_cluster",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]));
        match mode {
            Ok(Mode::Run(r)) => assert_eq!(
                r,
                RunArgs {
                    workload: "sim_cluster".into(),
                    seed: 7,
                    seconds: 3,
                    traced: true
                }
            ),
            _ => panic!("expected a run"),
        }
        assert!(parse(&args(&["--workload", "nope"])).is_err());
        assert!(parse(&args(&["--workload", "sim_cluster", "--trace", "2"])).is_err());
        assert!(parse(&args(&["--workload", "sim_cluster", "--seconds", "0"])).is_err());
        assert!(parse(&args(&["--all", "--workload", "sim_cluster"])).is_err());
        assert!(parse(&args(&[])).is_err());
        assert!(matches!(
            parse(&args(&["--all", "--runs", "3"])),
            Ok(Mode::All { runs: 3, .. })
        ));
        assert!(matches!(
            parse(&args(&["--compare", "a", "b"])),
            Ok(Mode::Compare(..))
        ));
    }

    #[test]
    fn printed_benchmark_json_is_the_committed_file() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the workspace root");
        assert_eq!(committed.trim_end(), benchmark_json());
    }
}
