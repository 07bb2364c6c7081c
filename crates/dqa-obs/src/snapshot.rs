//! Point-in-time metric snapshots and their exporters.
//!
//! A [`Snapshot`] is deterministically ordered (`BTreeMap` keyed by the
//! canonical `name{label="value"}` string), derives `PartialEq`, and
//! serializes to stable JSON — which is what lets the simulator assert
//! bit-identical metrics across seeded replays. [`Snapshot::to_prometheus`]
//! renders the text exposition format; [`validate_prometheus`] is the
//! parser the CI smoke job runs against that output.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Canonical metric key: `name` alone, or `name{k="v",k2="v2"}` with
/// label pairs sorted by key and values escaped Prometheus-style.
pub fn metric_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut pairs: Vec<(&str, &str)> = labels.to_vec();
    pairs.sort_unstable();
    let mut out = String::with_capacity(name.len() + 16 * pairs.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    out.push('}');
    out
}

/// Split a canonical key back into its base name and label pairs.
pub fn split_key(key: &str) -> (&str, Vec<(String, String)>) {
    let Some(brace) = key.find('{') else {
        return (key, Vec::new());
    };
    let base = &key[..brace];
    let body = key[brace..].trim_start_matches('{').trim_end_matches('}');
    let mut labels = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let Some(eq) = rest.find('=') else { break };
        let k = rest[..eq].to_string();
        let after = &rest[eq + 1..];
        let Some(stripped) = after.strip_prefix('"') else {
            break;
        };
        // Scan to the closing unescaped quote.
        let mut value = String::new();
        let mut chars = stripped.char_indices();
        let mut end = stripped.len();
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => {
                    if let Some((_, e)) = chars.next() {
                        value.push(match e {
                            'n' => '\n',
                            other => other,
                        });
                    }
                }
                '"' => {
                    end = i;
                    break;
                }
                other => value.push(other),
            }
        }
        labels.push((k, value));
        rest = stripped[end..]
            .trim_start_matches('"')
            .trim_start_matches(',');
    }
    (base, labels)
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Merged view of one histogram: per-bucket counts (not cumulative),
/// with `counts.len() == bounds.len() + 1` — the last slot is the
/// overflow (`+Inf`) bucket.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (`le`, inclusive), strictly increasing.
    pub bounds: Vec<f64>,
    /// Observations per bucket; last element counts `> bounds.last()`.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Nearest-rank quantile estimate: the upper bound of the bucket
    /// containing the q-th observation. Estimates are within one bucket
    /// width of the true value for in-range samples; observations past
    /// the last bound clamp to it.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self
                    .bounds
                    .get(i)
                    .copied()
                    .unwrap_or_else(|| self.bounds.last().copied().unwrap_or(f64::INFINITY));
            }
        }
        self.bounds.last().copied().unwrap_or(f64::INFINITY)
    }
}

/// A deterministically ordered snapshot of a whole registry.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Counter values by canonical key.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by canonical key.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram states by canonical key.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Counter value for an exact canonical key (0 when absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Sum of every counter in the `base` family across label values.
    pub fn counter_family(&self, base: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| split_key(k).0 == base)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Stable pretty-printed JSON (BTreeMap order, shortest-roundtrip
    /// floats — byte-identical for identical registries).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string())
    }

    /// Parse a snapshot back from [`Snapshot::to_json`] output.
    pub fn from_json(s: &str) -> Result<Snapshot, String> {
        serde_json::from_str(s).map_err(|e| format!("invalid metrics JSON: {e}"))
    }

    /// Render the Prometheus text exposition format, one `# TYPE` line
    /// per family, histogram buckets cumulative with a `+Inf` terminator.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut typed: BTreeSet<&str> = BTreeSet::new();
        for (key, v) in &self.counters {
            let (base, _) = split_key(key);
            if typed.insert(base) {
                let _ = writeln!(out, "# TYPE {base} counter");
            }
            let _ = writeln!(out, "{key} {v}");
        }
        for (key, v) in &self.gauges {
            let (base, _) = split_key(key);
            if typed.insert(base) {
                let _ = writeln!(out, "# TYPE {base} gauge");
            }
            let _ = writeln!(out, "{key} {v}");
        }
        for (key, h) in &self.histograms {
            let (base, labels) = split_key(key);
            if typed.insert(base) {
                let _ = writeln!(out, "# TYPE {base} histogram");
            }
            let label_prefix = if labels.is_empty() {
                String::new()
            } else {
                let mut s = String::new();
                for (k, v) in &labels {
                    let _ = write!(s, "{k}=\"{}\",", escape_label(v));
                }
                s
            };
            let mut cumulative = 0u64;
            for (i, c) in h.counts.iter().enumerate() {
                cumulative += c;
                let le = match h.bounds.get(i) {
                    Some(b) => format!("{b}"),
                    None => "+Inf".to_string(),
                };
                let _ = writeln!(
                    out,
                    "{base}_bucket{{{label_prefix}le=\"{le}\"}} {cumulative}"
                );
            }
            let tail = if labels.is_empty() {
                String::new()
            } else {
                format!("{{{}}}", label_prefix.trim_end_matches(','))
            };
            let _ = writeln!(out, "{base}_sum{tail} {}", h.sum);
            let _ = writeln!(out, "{base}_count{tail} {}", h.count);
        }
        out
    }
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Validate Prometheus exposition text: legal metric/label names, no
/// duplicate samples, parseable values, at most one `# TYPE` per family,
/// and complete histogram families (`_bucket` + `_sum` + `_count` with a
/// `+Inf` terminator). Returns the number of samples on success.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    let mut samples: BTreeSet<String> = BTreeSet::new();
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut bucket_families: BTreeSet<String> = BTreeSet::new();
    let mut inf_buckets: BTreeSet<String> = BTreeSet::new();
    let mut plain: BTreeSet<String> = BTreeSet::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.trim().splitn(3, ' ');
            match parts.next() {
                Some("TYPE") => {
                    let name = parts.next().ok_or(format!("line {n}: bare # TYPE"))?;
                    let kind = parts.next().unwrap_or("");
                    if !valid_metric_name(name) {
                        return Err(format!("line {n}: illegal metric name {name:?}"));
                    }
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(format!("line {n}: unknown TYPE {kind:?}"));
                    }
                    if types.insert(name.to_string(), kind.to_string()).is_some() {
                        return Err(format!("line {n}: duplicate # TYPE for {name}"));
                    }
                }
                Some("HELP") => {}
                _ => return Err(format!("line {n}: unrecognized comment {line:?}")),
            }
            continue;
        }
        // Sample line: name[{labels}] value
        let (series, value) = match line.rfind(' ') {
            Some(i) => (&line[..i], line[i + 1..].trim()),
            None => return Err(format!("line {n}: no value in {line:?}")),
        };
        if value.parse::<f64>().is_err() && !matches!(value, "+Inf" | "-Inf" | "NaN") {
            return Err(format!("line {n}: unparseable value {value:?}"));
        }
        let (name, labels) = split_key(series);
        if !valid_metric_name(name) {
            return Err(format!("line {n}: illegal metric name {name:?}"));
        }
        for (k, _) in &labels {
            if !valid_metric_name(k) || k.contains(':') {
                return Err(format!("line {n}: illegal label name {k:?}"));
            }
        }
        if !samples.insert(series.to_string()) {
            return Err(format!("line {n}: duplicate sample {series}"));
        }
        if let Some(family) = name.strip_suffix("_bucket") {
            bucket_families.insert(family.to_string());
            if labels.iter().any(|(k, v)| k == "le" && v == "+Inf") {
                inf_buckets.insert(family.to_string());
            }
        } else {
            plain.insert(name.to_string());
        }
    }
    for family in &bucket_families {
        if !plain.contains(&format!("{family}_sum")) || !plain.contains(&format!("{family}_count"))
        {
            return Err(format!("histogram {family} missing _sum/_count"));
        }
        if !inf_buckets.contains(family) {
            return Err(format!("histogram {family} missing +Inf bucket"));
        }
    }
    Ok(samples.len())
}

/// One labelled interval on a timeline, in clock seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What the interval covers (e.g. a module name).
    pub label: String,
    /// Start, seconds since the clock epoch.
    pub start: f64,
    /// End, seconds since the clock epoch.
    pub end: f64,
}

impl Span {
    /// Construct a span; `end` is clamped to at least `start`.
    pub fn new(label: impl Into<String>, start: f64, end: f64) -> Span {
        Span {
            label: label.into(),
            start,
            end: end.max(start),
        }
    }

    /// Seconds covered.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Render spans as an ASCII waterfall, `width` columns wide:
///
/// ```text
/// QP    |##                  |   0.000s +0.020s
/// PR    |  ########          |   0.020s +1.760s
/// ```
pub fn render_waterfall(spans: &[Span], width: usize) -> Vec<String> {
    if spans.is_empty() {
        return Vec::new();
    }
    let width = width.max(10);
    let lo = spans.iter().map(|s| s.start).fold(f64::INFINITY, f64::min);
    let hi = spans
        .iter()
        .map(|s| s.end)
        .fold(f64::NEG_INFINITY, f64::max);
    let range = (hi - lo).max(1e-9);
    let label_w = spans
        .iter()
        .map(|s| s.label.len())
        .max()
        .unwrap_or(4)
        .max(4);
    let col = |t: f64| (((t - lo) / range) * width as f64).round() as usize;
    spans
        .iter()
        .map(|s| {
            let a = col(s.start).min(width - 1);
            let b = col(s.end).clamp(a + 1, width);
            let mut bar = String::with_capacity(width);
            for i in 0..width {
                bar.push(if i >= a && i < b { '#' } else { ' ' });
            }
            format!(
                "{:<label_w$} |{bar}| {:>8.3}s +{:.3}s",
                s.label,
                s.start,
                s.duration()
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_canonical_and_split_back() {
        let k = metric_key("dqa_x", &[("b", "2"), ("a", "1")]);
        assert_eq!(k, r#"dqa_x{a="1",b="2"}"#);
        let (base, labels) = split_key(&k);
        assert_eq!(base, "dqa_x");
        assert_eq!(
            labels,
            vec![("a".into(), "1".into()), ("b".into(), "2".into())]
        );
        assert_eq!(split_key("dqa_plain"), ("dqa_plain", vec![]));
    }

    #[test]
    fn label_escaping_round_trips() {
        let k = metric_key("m", &[("path", "a\"b\\c")]);
        let (_, labels) = split_key(&k);
        assert_eq!(labels[0].1, "a\"b\\c");
    }

    #[test]
    fn prometheus_output_validates() {
        let mut snap = Snapshot::default();
        snap.counters
            .insert(metric_key("dqa_q_total", &[("outcome", "answered")]), 3);
        snap.counters
            .insert(metric_key("dqa_q_total", &[("outcome", "rejected")]), 1);
        snap.gauges.insert("dqa_in_flight".into(), 2.0);
        snap.histograms.insert(
            metric_key("dqa_module_seconds", &[("module", "PR")]),
            HistogramSnapshot {
                bounds: vec![1.0, 2.0],
                counts: vec![3, 1, 1],
                count: 5,
                sum: 6.5,
            },
        );
        let text = snap.to_prometheus();
        let n = validate_prometheus(&text).expect("valid exposition");
        assert_eq!(n, 3 + 3 + 2); // 2 counters + gauge + 3 buckets + sum + count
        assert!(text.contains("# TYPE dqa_module_seconds histogram"));
        assert!(text.contains(r#"dqa_module_seconds_bucket{module="PR",le="+Inf"} 5"#));
        assert!(text.contains(r#"dqa_module_seconds_sum{module="PR"} 6.5"#));
    }

    #[test]
    fn validator_rejects_duplicates_and_bad_names() {
        assert!(validate_prometheus("x 1\nx 2\n").is_err());
        assert!(validate_prometheus("9bad 1\n").is_err());
        assert!(validate_prometheus("ok 1\nok2 nope\n").is_err());
        assert!(validate_prometheus("h_bucket{le=\"+Inf\"} 1\n").is_err()); // no _sum/_count
        assert!(validate_prometheus("ok 1\n# TYPE ok counter\n# TYPE ok counter\n").is_err());
        assert_eq!(validate_prometheus("ok 1\nok2 2\n"), Ok(2));
    }

    #[test]
    fn json_round_trips_bit_identically() {
        let mut snap = Snapshot::default();
        snap.gauges.insert("dqa_load".into(), 0.1 + 0.2); // non-representable sum
        snap.histograms.insert(
            "dqa_h".into(),
            HistogramSnapshot {
                bounds: vec![0.001, 2.5],
                counts: vec![1, 0, 2],
                count: 3,
                sum: 7.123456789012345,
            },
        );
        let json = snap.to_json();
        let back = Snapshot::from_json(&json).expect("parses");
        assert_eq!(back, snap);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn quantiles_hit_bucket_upper_bounds() {
        let h = HistogramSnapshot {
            bounds: vec![1.0, 2.0, 4.0],
            counts: vec![5, 3, 2, 0],
            count: 10,
            sum: 15.0,
        };
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(0.5), 1.0);
        assert_eq!(h.quantile(0.8), 2.0);
        assert_eq!(h.quantile(1.0), 4.0);
        assert_eq!(h.mean(), 1.5);
    }

    #[test]
    fn waterfall_orders_and_scales() {
        let spans = vec![
            Span::new("QP", 0.0, 0.5),
            Span::new("PR", 0.5, 3.0),
            Span::new("AP", 3.0, 4.0),
        ];
        let lines = render_waterfall(&spans, 20);
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("QP"));
        assert!(lines[1].contains('#'));
        // PR covers more than half the range; its bar is the longest.
        let hashes = |s: &str| s.chars().filter(|c| *c == '#').count();
        assert!(hashes(&lines[1]) > hashes(&lines[0]));
        assert!(hashes(&lines[1]) > hashes(&lines[2]));
    }

    #[test]
    fn empty_waterfall_is_empty() {
        assert!(render_waterfall(&[], 40).is_empty());
    }

    #[test]
    fn zero_length_span_at_the_right_edge_gets_the_last_column() {
        let spans = vec![Span::new("PR", 0.0, 4.0), Span::new("AP", 4.0, 4.0)];
        let lines = render_waterfall(&spans, 20);
        let bar = lines[1].split('|').nth(1).expect("bar between pipes");
        assert_eq!(bar, format!("{:>20}", "#"));
    }

    #[test]
    fn counter_family_sums_across_labels() {
        let mut snap = Snapshot::default();
        snap.counters
            .insert(metric_key("dqa_m_total", &[("kind", "pr")]), 2);
        snap.counters
            .insert(metric_key("dqa_m_total", &[("kind", "ap")]), 3);
        snap.counters.insert("dqa_other_total".into(), 7);
        assert_eq!(snap.counter_family("dqa_m_total"), 5);
        assert_eq!(snap.counter(r#"dqa_m_total{kind="pr"}"#), 2);
        assert_eq!(snap.counter("absent"), 0);
    }
}
