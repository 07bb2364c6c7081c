//! The metric and workload vocabulary: every name `perf_gate` may print,
//! with its unit, and — for per-layer metrics — the layer it belongs to and
//! the end-to-end metric and workload it is expected to move. `BENCHMARK.json`
//! must list exactly these names (a unit test holds the two together).

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// An end-to-end metric: printed by every workload on an untraced run.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A per-layer metric: printed by every workload on a traced run.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// What should move when this does: `metric@workload`.
    pub moves: &'static str,
}

pub const PIPELINE_SEQ: &str = "pipeline_seq";
pub const RUNTIME_BARE: &str = "runtime_bare";
pub const RUNTIME_ARMORED: &str = "runtime_armored";
pub const SIM_CLUSTER: &str = "sim_cluster";

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: PIPELINE_SEQ,
        why: "QaPipeline::answer on one thread: nlp + ir-engine + qa-pipeline only, where the IR hot-path work must show",
    },
    Workload {
        name: RUNTIME_BARE,
        why: "Cluster::submit, 2 nodes, 2 clients, every optional tier off: the gap to pipeline_seq is channels + dispatch + merge",
    },
    Workload {
        name: RUNTIME_ARMORED,
        why: "same cluster with journal, integrity, elastic, admission gate, metrics and tracing on: the price of the armour",
    },
    Workload {
        name: SIM_CLUSTER,
        why: "cluster-sim host speed on Table 5/6 runs plus one N=100 run: ir-engine idle, the DES engine does everything",
    },
];

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "questions_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p95_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const TEXT_SETUP: &str = "setup_s@pipeline_seq,runtime_*";
const TEXT_LATENCY: &str =
    "latency_p50_ms@pipeline_seq (most), runtime_* (less), sim_cluster (none)";
const ARMORED: &str = "latency_p50_ms,questions_per_s@runtime_armored; none@runtime_bare";
const SIM_SPEED: &str = "questions_per_s@sim_cluster";
const RUNTIME_QPS: &str = "questions_per_s@runtime_*";

pub const PER_LAYER: &[PerLayer] = &[
    // ir-engine
    layer("ir-engine.index_build_s", "s", "lower", TEXT_SETUP),
    layer("ir-engine.encode_v2_s", "s", "lower", TEXT_SETUP),
    layer("ir-engine.decode_verified_s", "s", "lower", TEXT_SETUP),
    layer("ir-engine.terms_us_per_kb", "us/KB", "lower", TEXT_LATENCY),
    layer("ir-engine.quorum_us.strict", "us", "lower", TEXT_LATENCY),
    layer("ir-engine.quorum_us.relaxed", "us", "lower", TEXT_LATENCY),
    layer("ir-engine.quorum_us.common", "us", "lower", TEXT_LATENCY),
    layer(
        "ir-engine.retrieve_us_per_shard",
        "us",
        "lower",
        TEXT_LATENCY,
    ),
    layer("ir-engine.extract_share", "share", "lower", TEXT_LATENCY),
    layer("ir-engine.verify_sampled_us", "us", "lower", ARMORED),
    layer("ir-engine.io_bytes_per_q", "B", "lower", TEXT_LATENCY),
    layer(
        "ir-engine.docs_matched_per_q",
        "count",
        "lower",
        TEXT_LATENCY,
    ),
    layer("ir-engine.paragraphs_per_q", "count", "lower", TEXT_LATENCY),
    layer(
        "ir-engine.quorum_rounds_per_q",
        "count",
        "lower",
        TEXT_LATENCY,
    ),
    layer(
        "ir-engine.segment_bytes",
        "B",
        "lower",
        "peak_rss_mb@runtime_armored",
    ),
    layer(
        "ir-engine.postings_bytes",
        "B",
        "lower",
        "peak_rss_mb@pipeline_seq,runtime_*",
    ),
    layer(
        "ir-engine.segment_bytes_per_text_byte",
        "share",
        "lower",
        "peak_rss_mb@runtime_armored; gated by --compare",
    ),
    // nlp
    layer("nlp.qp_us", "us", "lower", TEXT_LATENCY),
    layer("nlp.ner_us_per_paragraph", "us", "lower", TEXT_LATENCY),
    // qa-pipeline
    layer(
        "qa-pipeline.qp_us",
        "us",
        "lower",
        "latency_p50_ms@pipeline_seq",
    ),
    layer(
        "qa-pipeline.pr_us",
        "us",
        "lower",
        "latency_p50_ms@pipeline_seq",
    ),
    layer(
        "qa-pipeline.ps_us",
        "us",
        "lower",
        "latency_p50_ms@pipeline_seq",
    ),
    layer(
        "qa-pipeline.po_us",
        "us",
        "lower",
        "latency_p50_ms@pipeline_seq",
    ),
    layer(
        "qa-pipeline.ap_us",
        "us",
        "lower",
        "latency_p50_ms@pipeline_seq",
    ),
    layer(
        "qa-pipeline.trace_residual_share",
        "share",
        "lower",
        "none (trace quality)",
    ),
    layer(
        "qa-pipeline.paragraphs_accepted_per_q",
        "count",
        "lower",
        "latency_p50_ms@pipeline_seq",
    ),
    layer(
        "qa-pipeline.useful_paragraph_ratio",
        "share",
        "higher",
        "latency_p50_ms@pipeline_seq",
    ),
    layer(
        "qa-pipeline.answer_recall",
        "share",
        "higher",
        "none (answer quality; exact for a seed; gated by --compare)",
    ),
    // scheduler / loadsim
    layer("scheduler.partition_us.send", "us", "lower", SIM_SPEED),
    layer("scheduler.partition_us.isend", "us", "lower", SIM_SPEED),
    layer("scheduler.partition_us.recv", "us", "lower", SIM_SPEED),
    layer("scheduler.meta_schedule_us", "us", "lower", SIM_SPEED),
    layer("loadsim.load_fn_ns", "ns", "lower", SIM_SPEED),
    // dqa-runtime
    layer("dqa-runtime.start_s", "s", "lower", "setup_s@runtime_*"),
    layer("dqa-runtime.shutdown_s", "s", "lower", "setup_s@runtime_*"),
    layer(
        "dqa-runtime.ask_1node_us",
        "us",
        "lower",
        "latency_p50_ms@runtime_bare",
    ),
    layer(
        "dqa-runtime.hop_overhead_us",
        "us",
        "lower",
        "latency_p50_ms@runtime_bare",
    ),
    layer(
        "dqa-runtime.phase_us.qp",
        "us",
        "lower",
        "latency_p50_ms@runtime_*",
    ),
    layer(
        "dqa-runtime.phase_us.pr",
        "us",
        "lower",
        "latency_p50_ms@runtime_*",
    ),
    layer(
        "dqa-runtime.phase_us.ps",
        "us",
        "lower",
        "latency_p50_ms@runtime_*",
    ),
    layer(
        "dqa-runtime.phase_us.po",
        "us",
        "lower",
        "latency_p50_ms@runtime_*",
    ),
    layer(
        "dqa-runtime.phase_us.ap",
        "us",
        "lower",
        "latency_p50_ms@runtime_*",
    ),
    layer(
        "dqa-runtime.pr_nodes_per_q",
        "count",
        "higher",
        "latency_p95_ms@runtime_*",
    ),
    layer(
        "dqa-runtime.ap_nodes_per_q",
        "count",
        "higher",
        "latency_p95_ms@runtime_*",
    ),
    layer("dqa-runtime.gate_ns", "ns", "lower", ARMORED),
    layer("dqa-runtime.cpu_s_per_q", "s", "lower", RUNTIME_QPS),
    layer(
        "dqa-runtime.latency_p99_ms",
        "ms",
        "lower",
        "latency_p95_ms@runtime_*",
    ),
    layer(
        "dqa-runtime.latency_max_ms",
        "ms",
        "lower",
        "latency_p95_ms@runtime_*",
    ),
    layer("dqa-runtime.degraded", "count", "lower", "failed@runtime_*"),
    layer("dqa-runtime.rejected", "count", "lower", "failed@runtime_*"),
    layer("dqa-runtime.failed", "count", "lower", "failed@runtime_*"),
    // journal
    layer("journal.append_us", "us", "lower", ARMORED),
    layer(
        "journal.append_fsync_us",
        "us",
        "lower",
        "none (fsync_every is None in runtime_armored)",
    ),
    layer("journal.records_per_q", "count", "lower", ARMORED),
    layer("journal.bytes_per_q", "B", "lower", ARMORED),
    layer(
        "journal.replay_records_per_s",
        "1/s",
        "higher",
        "none (recovery path, off every workload)",
    ),
    // dqa-obs
    layer(
        "dqa-obs.counter_inc_ns",
        "ns",
        "lower",
        "questions_per_s@runtime_armored,sim_cluster",
    ),
    layer(
        "dqa-obs.histogram_observe_ns",
        "ns",
        "lower",
        "questions_per_s@runtime_armored,sim_cluster",
    ),
    layer(
        "dqa-obs.span_emit_ns",
        "ns",
        "lower",
        "questions_per_s@runtime_armored",
    ),
    layer("dqa-obs.snapshot_us", "us", "lower", SIM_SPEED),
    layer(
        "dqa-obs.critical_path_us",
        "us",
        "lower",
        "none (report path)",
    ),
    layer(
        "dqa-obs.spans_per_q",
        "count",
        "lower",
        "questions_per_s@runtime_armored",
    ),
    layer(
        "dqa-obs.trace_dropped",
        "count",
        "lower",
        "none (warm-up pass; must stay 0)",
    ),
    // cluster-sim
    layer(
        "cluster-sim.host_ms_per_question.paper",
        "ms",
        "lower",
        "latency_p50_ms@sim_cluster",
    ),
    layer(
        "cluster-sim.host_ms_per_question.large",
        "ms",
        "lower",
        "latency_p95_ms@sim_cluster",
    ),
    layer(
        "cluster-sim.engine_advance_ns.t64",
        "ns",
        "lower",
        "latency_p50_ms@sim_cluster",
    ),
    layer(
        "cluster-sim.engine_advance_ns.t4096",
        "ns",
        "lower",
        "latency_p95_ms@sim_cluster",
    ),
    layer(
        "cluster-sim.metrics_overhead_share",
        "share",
        "lower",
        SIM_SPEED,
    ),
    layer(
        "cluster-sim.trace_events_per_q",
        "count",
        "lower",
        "none (record_trace is off in sim_cluster)",
    ),
    layer(
        "cluster-sim.migrations.qa",
        "count",
        "higher",
        "none (simulated result; exact for a seed)",
    ),
    layer(
        "cluster-sim.migrations.pr",
        "count",
        "higher",
        "none (simulated result; exact for a seed)",
    ),
    layer(
        "cluster-sim.migrations.ap",
        "count",
        "higher",
        "none (simulated result; exact for a seed)",
    ),
    layer(
        "cluster-sim.sim_throughput_qpm",
        "1/min",
        "higher",
        "none (simulated result; exact for a seed; gated by --compare)",
    ),
    layer(
        "cluster-sim.sim_response_mean_s",
        "s",
        "lower",
        "none (simulated result; exact for a seed; gated by --compare)",
    ),
    layer(
        "cluster-sim.sim_response_p99_s",
        "s",
        "lower",
        "none (simulated result; exact for a seed; gated by --compare)",
    ),
    // the harness itself
    layer(
        "perf.trace_overhead_share",
        "share",
        "lower",
        "none (cost of the harness's own spans)",
    ),
    layer(
        "perf.host_factor",
        "share",
        "lower",
        "none (how slowly the host ran the reference slice; times are divided by it)",
    ),
];

/// Per-layer metrics `--compare` gates beside the end-to-end ones, with the
/// share of A by which each may worsen. They describe the answers, the
/// segment and the simulated results, not the host, and repeat exactly for
/// a seed, so a change that only claims speed may not move them.
pub const GATED: &[(&str, f64)] = &[
    ("qa-pipeline.answer_recall", 0.0),
    ("ir-engine.segment_bytes_per_text_byte", 0.05),
    ("cluster-sim.sim_throughput_qpm", 0.02),
    ("cluster-sim.sim_response_mean_s", 0.02),
    ("cluster-sim.sim_response_p99_s", 0.02),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
            assert!((0.0..=0.25).contains(&m.bound), "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
            assert!(m.name.contains('.'), "{} needs a layer prefix", m.name);
        }
        for (name, bound) in GATED {
            assert!(PER_LAYER.iter().any(|m| m.name == *name), "{name}");
            assert!((0.0..=0.25).contains(bound), "{name}");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }
}
