//! What one run reports: the failure tally, the metric map, the machine
//! fingerprint, and the one-line JSON result the driver reads.

use crate::catalogue::{END_TO_END, PER_LAYER};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Operations attempted and failed. A failed check is an operation that
/// failed: it counts in both.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; returns `ok` for chaining.
    pub fn record(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricValue {
    pub value: f64,
    pub unit: String,
}

/// Metric values by name. Units come from the catalogue, so a name the
/// catalogue does not know cannot be reported.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The map to print: exactly the catalogue's end-to-end (untraced) or
    /// per-layer (traced) names, each with its unit. A per-layer metric
    /// whose layer is not on this workload's path reads 0. Errors name a
    /// metric that was set but is not in the catalogue, or an end-to-end
    /// metric that was not measured.
    pub fn finish(&self, traced: bool) -> Result<BTreeMap<String, MetricValue>, String> {
        let catalogue: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        if let Some(stray) = self
            .0
            .keys()
            .find(|k| !catalogue.iter().any(|(name, _)| name == *k))
        {
            return Err(format!("metric `{stray}` is not in the catalogue"));
        }
        catalogue
            .into_iter()
            .map(|(name, unit)| {
                let value = match self.get(name) {
                    Some(v) if v.is_finite() => v,
                    Some(v) => return Err(format!("metric `{name}` is not finite ({v})")),
                    None if traced => 0.0,
                    None => return Err(format!("end-to-end metric `{name}` was not measured")),
                };
                Ok((
                    name.to_string(),
                    MetricValue {
                        value,
                        unit: unit.to_string(),
                    },
                ))
            })
            .collect()
    }
}

/// The last line of standard output: the contract with the driver.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, MetricValue>,
}

/// Where and on what a run was made.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fingerprint {
    pub git_commit: String,
    pub rustc: String,
    pub nproc: usize,
    pub cpu_model: String,
    /// `name version` of every third-party package in the lock file;
    /// `(stand-in)` marks a local crate from `crates/perf/standins`.
    pub dependencies: Vec<String>,
}

/// One run as kept in result files (`--all`, `--compare`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Latency samples behind the percentiles (items × passes).
    pub samples: u64,
    pub result: ResultLine,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultSet {
    pub fingerprint: Fingerprint,
    pub sizes: crate::Sizes,
    pub runs: Vec<RunRecord>,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `<target>/perf`, where every run output goes; never committed.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    Path::new(&target).join("perf")
}

fn locked_dependencies() -> Vec<String> {
    let candidates = [
        out_dir().join("stage/Cargo.lock"),
        PathBuf::from("Cargo.lock"),
    ];
    let Some(text) = candidates
        .iter()
        .find_map(|p| std::fs::read_to_string(p).ok())
    else {
        return vec!["unknown (no Cargo.lock found)".to_string()];
    };
    let workspace = |name: &str| Path::new("crates").join(name).is_dir() || name == "falcon-dqa";
    let mut deps = Vec::new();
    for block in text.split("[[package]]").skip(1) {
        let field = |key: &str| {
            block
                .lines()
                .find_map(|l| l.strip_prefix(key)?.trim().strip_prefix("= "))
                .map(|v| v.trim_matches('"').to_string())
        };
        let (Some(name), Some(version)) = (field("name"), field("version")) else {
            continue;
        };
        match field("source") {
            Some(_) => deps.push(format!("{name} {version}")),
            None if workspace(&name) || name.starts_with("dqa-") => {}
            None => deps.push(format!("{name} {version} (stand-in)")),
        }
    }
    deps.sort();
    deps
}

pub fn fingerprint() -> Fingerprint {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Fingerprint {
        git_commit: command_line("git", &["rev-parse", "HEAD"])
            .unwrap_or_else(|| "unknown (not a git checkout)".to_string()),
        rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        cpu_model,
        dependencies: locked_dependencies(),
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system) this process has used, all threads.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 12th and 13th of those, in clock ticks (100 per second on Linux).
    let after = stat.rsplit(')').next().unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_check_counts_as_attempted_and_failed() {
        let mut t = Tally::default();
        assert!(!t.correct(), "nothing attempted is not a pass");
        assert!(t.record(true));
        assert!(t.correct());
        assert!(!t.record(false));
        let mut other = Tally::default();
        other.record(true);
        t.merge(other);
        assert_eq!((t.attempted, t.failed), (3, 1));
        assert!(!t.correct());
    }

    #[test]
    fn finish_prints_exactly_the_catalogue() {
        let mut m = Metrics::default();
        for e in END_TO_END {
            m.set(e.name, 1.5);
        }
        let out = m.finish(false).unwrap();
        assert_eq!(out.keys().map(String::as_str).collect::<Vec<_>>(), {
            let mut names: Vec<&str> = END_TO_END.iter().map(|e| e.name).collect();
            names.sort_unstable();
            names
        });
        assert_eq!(out["setup_s"].unit, "s");

        // A traced run fills the layers it did not visit with 0 …
        let mut t = Metrics::default();
        t.set("nlp.qp_us", 3.0);
        let out = t.finish(true).unwrap();
        assert_eq!(out.len(), PER_LAYER.len());
        assert_eq!(out["nlp.qp_us"].value, 3.0);
        assert_eq!(out["journal.append_us"].value, 0.0);
        // … but an untraced run may not skip an end-to-end metric,
        assert!(Metrics::default().finish(false).is_err());
        // nor may either kind print a name outside its catalogue.
        assert!(t.finish(false).is_err());
        let mut nan = Metrics::default();
        nan.set("nlp.qp_us", f64::NAN);
        assert!(nan.finish(true).is_err());
    }

    #[test]
    fn process_probes_read_something() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_s() >= 0.0);
    }
}
