//! End-to-end data-integrity soak: corrupt index segments on *both*
//! backends — the virtual-time DES mirror (`cluster_sim::integrity`) and
//! the thread runtime (`dqa_runtime::Cluster`) — and assert the tier's
//! core contract end to end:
//!
//! 1. **Zero silently-wrong answers** — on the runtime, every answer is
//!    either byte-identical to the fault-free baseline at full coverage,
//!    or *explicitly* coverage-degraded (quarantine skips annotated in
//!    coverage and the trace). An answer that differs from baseline while
//!    claiming full coverage is the failure this whole tier exists to
//!    prevent.
//! 2. **Detect-and-repair** — every injected corruption is detected (by
//!    the scrubber or the read path) and repaired (replica splice or
//!    source rebuild); the post-repair answer wave is byte-identical to
//!    the baseline again.
//! 3. **Determinism** — every DES scenario runs twice and the serialized
//!    reports must match byte for byte.
//! 4. **Foreground protection** — with the admission gate pinned above
//!    the throttle's headroom line, scrub steps defer; repair is slower
//!    but never racing foreground questions for capacity.
//!
//! On a violation the runtime drill leaves the corrupted segment image at
//! `DIR/integrity/segment.bin` next to the dump. `--ci` runs a 60 s
//! virtual horizon and a 4-question drill.

use super::{answer_bytes, baseline, json, start, Ctx, Outcome};
use crate::fixtures::QaFixture;
use cluster_sim::integrity::{
    run_integrity_sim, IntegritySimConfig, IntegritySimReport, LoadWindow,
};
use dqa_obs::{names, MetricsRegistry};
use dqa_runtime::{ClusterConfig, IntegrityConfig};
use faults::FaultSchedule;

/// Run one DES scenario twice, check bit-identity and the invariants
/// every scenario shares.
fn run_des(name: &str, cfg: &IntegritySimConfig, out: &mut Outcome) -> IntegritySimReport {
    let twice = out.double_run(|| run_integrity_sim(cfg), json);
    let report = twice.report;
    let tag = format!("des [{name}]");
    if twice.diverged {
        out.violations.push(format!("{tag}: double run diverged"));
    }
    if report.detected_by_scrub + report.detected_by_read != report.injected {
        out.violations.push(format!(
            "{tag}: {} of {} corruption(s) were never detected",
            report
                .injected
                .saturating_sub(report.detected_by_scrub + report.detected_by_read),
            report.injected
        ));
    }
    if report.repaired_replica + report.repaired_rebuild != report.injected
        || report.unrepaired_at_horizon != 0
    {
        out.violations.push(format!(
            "{tag}: {} corruption(s) still unrepaired at the horizon",
            report.unrepaired_at_horizon
        ));
    }
    out.say(format!(
        "{tag}: {} injected, {}/{} detected scrub/read, {}/{} repaired replica/rebuild, \
         {} degraded question(s), {} exposed, ttr mean {:.2} s max {:.2} s, {} throttled",
        report.injected,
        report.detected_by_scrub,
        report.detected_by_read,
        report.repaired_replica,
        report.repaired_rebuild,
        report.degraded_questions,
        report.silently_exposed,
        report.mean_time_to_repair_secs,
        report.max_time_to_repair_secs,
        report.throttled_steps
    ));
    report
}

/// Thread-runtime drill: corrupt two segments, ask under quarantine, scrub,
/// and byte-compare the healed answers against the fault-free baseline.
fn run_runtime_demo(ctx: &Ctx, out: &mut Outcome) {
    let fixture = QaFixture::small(ctx.seed, if ctx.ci { 4 } else { 8 });
    let registry = MetricsRegistry::new();
    let config = |faults, metrics| ClusterConfig {
        nodes: 4,
        faults,
        integrity: Some(IntegrityConfig {
            // Exhaustive read-path verification: a question must never read a
            // damaged region undetected, so "differs from baseline at full
            // coverage" is a true violation, not a sampling miss.
            read_sample_blocks: usize::MAX,
            ..IntegrityConfig::default()
        }),
        metrics,
        ..ClusterConfig::default()
    };

    // Fault-free baseline answers, integrity tier on but nothing injected.
    let clean = start(&fixture, config(FaultSchedule::none(), None));
    let baseline = baseline(&clean, &fixture);
    clean.shutdown();

    // The corrupted cluster: one bit flip and one torn write, scheduled at
    // t = 0 and fired explicitly before the first wave.
    let faults = FaultSchedule::seeded(ctx.seed)
        .bit_flip_index(1, 0.0)
        .torn_write_index(2, 0.0);
    let cluster = start(&fixture, config(faults, Some(registry.clone())));
    let injected = cluster.inject_scheduled_corruption();
    if injected != 2 {
        out.violations
            .push(format!("runtime: injected {injected} of 2 corruptions"));
    }

    // Wave under corruption: every answer must be baseline-identical at
    // full coverage OR explicitly degraded — never silently different.
    let mut degraded = 0usize;
    for (i, gq) in fixture.questions.iter().enumerate() {
        match cluster.ask(&gq.question) {
            Err(e) => out.violations.push(format!(
                "runtime corrupt-wave: question {} failed outright ({e:?})",
                gq.question.id
            )),
            Ok(answer) if !answer.coverage.is_complete() => degraded += 1,
            Ok(answer) if answer_bytes(&answer) != baseline[i] => out.violations.push(format!(
                "runtime corrupt-wave: question {} SILENTLY WRONG — differs \
                 from baseline while claiming full coverage",
                gq.question.id
            )),
            Ok(_) => {}
        }
    }
    if degraded == 0 {
        out.violations
            .push("runtime corrupt-wave: two quarantined sub-collections degraded nothing".into());
    }
    let quarantined = cluster.quarantined_subs();
    if quarantined != vec![1, 2] {
        out.violations.push(format!(
            "runtime: expected sub-collections [1, 2] quarantined, saw {quarantined:?}"
        ));
    }

    // Scrub-and-repair, then the healed wave must be byte-identical again.
    let report = cluster.scrub();
    if report.repaired() != 2 || !cluster.quarantined_subs().is_empty() {
        out.violations.push(format!(
            "runtime: scrub repaired {} of 2 (replica {:?}, rebuild {:?})",
            report.repaired(),
            report.repaired_replica,
            report.repaired_rebuild
        ));
    }
    for (i, gq) in fixture.questions.iter().enumerate() {
        match cluster.ask(&gq.question) {
            Err(e) => out.violations.push(format!(
                "runtime healed-wave: question {} failed ({e:?})",
                gq.question.id
            )),
            Ok(answer) => {
                if !answer.coverage.is_complete() || answer_bytes(&answer) != baseline[i] {
                    out.violations.push(format!(
                        "runtime healed-wave: question {} not byte-identical to the \
                         fault-free baseline after repair",
                        gq.question.id
                    ));
                }
            }
        }
    }

    // Forensic artifact on failure: dump the segment image so a broken
    // repair can be diffed offline.
    if !out.violations.is_empty() {
        if let Some(segment) = cluster.integrity_segment() {
            let path = ctx.dir.join("segment.bin");
            let written =
                std::fs::create_dir_all(&ctx.dir).and_then(|()| std::fs::write(&path, segment));
            if let Err(e) = written {
                eprintln!("soak integrity: cannot write {}: {e}", path.display());
            }
        }
    }
    cluster.shutdown();

    let snap = registry.snapshot();
    let failures = snap.counter_family(names::INTEGRITY_CHECKSUM_FAILURES_TOTAL);
    let repairs = snap.counter_family(names::INTEGRITY_REPAIRS_TOTAL);
    if failures < 2 {
        out.violations.push(format!(
            "runtime: only {failures} checksum failure(s) recorded for 2 corruptions"
        ));
    }
    if repairs != 2 {
        out.violations
            .push(format!("runtime: {repairs} repair(s) recorded, want 2"));
    }
    out.say(format!(
        "runtime: {injected} injected, {failures} checksum failure(s), {repairs} repair(s), \
         {degraded} degraded question(s), healed wave byte-identical",
    ));
    out.metrics = Some(registry);
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let seed = ctx.seed;
    let horizon = if ctx.ci { 60.0 } else { 120.0 };
    println!("Integrity soak — seed {seed}, horizon {horizon} virtual s\n");

    let base = |read_sample_blocks| IntegritySimConfig {
        horizon_secs: horizon,
        read_sample_blocks,
        faults: FaultSchedule::seeded(seed)
            .bit_flip_index(1, 3.0)
            .torn_write_index(4, horizon * 0.25)
            .bit_flip_index(6, horizon * 0.5),
        ..IntegritySimConfig::default()
    };

    // Exhaustive read sampling: zero exposure, by construction.
    let tag = "des [exhaustive-read-check]";
    let report = run_des("exhaustive-read-check", &base(usize::MAX), &mut out);
    if report.silently_exposed != 0 {
        out.violations.push(format!(
            "{tag}: {} question(s) read corrupt data undetected under an \
             exhaustive read check",
            report.silently_exposed
        ));
    }
    if report.degraded_questions == 0 {
        out.violations
            .push(format!("{tag}: quarantine skips degraded nothing"));
    }

    // Scrubber-only detection: read checks off, the scrubber must still
    // find and heal everything by the horizon.
    if run_des("scrub-only", &base(0), &mut out).detected_by_read != 0 {
        out.violations
            .push("des [scrub-only]: read check fired while disabled".into());
    }

    // Both copies of one region damaged: repair falls back to the
    // source-of-truth rebuild.
    let cfg = IntegritySimConfig {
        replica_damaged: vec![4],
        ..base(usize::MAX)
    };
    if run_des("replica-double-fault", &cfg, &mut out).repaired_rebuild == 0 {
        out.violations.push(
            "des [replica-double-fault]: replica double fault never forced a rebuild repair".into(),
        );
    }

    // Gate pinned at capacity for the first half: the throttle defers
    // scrub steps and repair lands late but lands.
    let cfg = IntegritySimConfig {
        load: vec![LoadWindow {
            from: 0.0,
            until: horizon * 0.5,
            in_flight: 8,
        }],
        ..base(usize::MAX)
    };
    if run_des("scrub-under-load", &cfg, &mut out).throttled_steps == 0 {
        out.violations
            .push("des [scrub-under-load]: a pinned gate deferred no scrub steps".into());
    }

    println!();
    run_runtime_demo(ctx, &mut out);
    out
}
