//! Coordinator-crash recovery soak: kill the journaled leader mid-load,
//! fail a successor over, replay the journal and *resume* — not restart
//! — the in-flight question, asserting the failover layer's hard
//! invariants:
//!
//! 1. **Zero lost questions.** Every pre-crash answer survives replay
//!    byte-for-byte, and the question caught in flight by the crash is
//!    resumed to a full-coverage answer.
//! 2. **Crash transparency.** The resumed answer is byte-identical to
//!    the crash-free baseline of the same seed.
//! 3. **Fencing.** A surviving handle of the deposed incarnation (the
//!    zombie ex-leader) keeps computing, but every grant it tries to
//!    journal after the successor's term is rejected — visible in
//!    `dqa_fenced_grants_total`, with zero records appended.
//!
//! Each phase depends on the one before, so the scenario ends at its
//! first violation with the registry of the incarnation that broke. The
//! live and crashed journal images stay under `DIR/recovery/` next to the
//! dump. `--ci` runs four questions.

use super::{start, Ctx, Outcome};
use crate::fixtures::QaFixture;
use dqa_obs::MetricsRegistry;
use dqa_runtime::{ClusterConfig, CoordinatorJournal};
use journal::{read_segment, JournalRecord};
use qa_types::{QuestionId, RankedAnswers};
use scheduler::partition::PartitionStrategy;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn config(journal: Option<CoordinatorJournal>, registry: &MetricsRegistry) -> ClusterConfig {
    ClusterConfig {
        nodes: 3,
        ap_partition: PartitionStrategy::Recv { chunk_size: 4 },
        journal,
        metrics: Some(registry.clone()),
        ..ClusterConfig::default()
    }
}

/// Copy the journal at `live` to `crash`, truncated immediately before
/// `question`'s final-answer record: the exact on-disk image of a
/// coordinator killed after granting and collecting that question's
/// chunks but before durably answering it.
fn crash_image(live: &Path, crash: &Path, question: QuestionId) {
    std::fs::create_dir_all(crash).expect("create crash dir");
    let mut segments: Vec<PathBuf> = std::fs::read_dir(live)
        .expect("read journal dir")
        .map(|e| e.expect("journal dir entry").path())
        .collect();
    segments.sort();
    let mut cut = None;
    for (i, seg) in segments.iter().enumerate() {
        for (offset, framed) in read_segment(seg).expect("journal segment readable") {
            if matches!(
                &framed.record,
                JournalRecord::Answered { question: q, .. } if *q == question
            ) {
                cut = Some((i, offset));
            }
        }
    }
    let (cut_seg, cut_off) = cut.expect("the doomed question's answer must be journaled");
    for (i, seg) in segments.iter().enumerate() {
        if i > cut_seg {
            continue; // written after the kill: never existed
        }
        let bytes = std::fs::read(seg).expect("read segment");
        let keep = if i == cut_seg {
            &bytes[..cut_off as usize]
        } else {
            &bytes[..]
        };
        std::fs::write(crash.join(seg.file_name().expect("segment name")), keep)
            .expect("write crash segment");
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let out = Outcome::default();
    let questions = if ctx.ci { 4 } else { 6 };
    let live_dir = ctx.dir.join("journal");
    let crash_dir = ctx.dir.join("journal-crash");
    let _ = std::fs::remove_dir_all(&live_dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
    let fixture = QaFixture::small(ctx.seed, questions);

    // Phase 0 — crash-free baseline: the answers every later incarnation
    // must reproduce exactly.
    let baseline_registry = MetricsRegistry::new();
    let clean = start(&fixture, config(None, &baseline_registry));
    let mut baseline = Vec::new();
    for gq in &fixture.questions {
        let answer = clean.ask(&gq.question).expect("crash-free ask failed");
        if !answer.coverage.is_complete() {
            return out.fail("crash-free baseline degraded", &baseline_registry);
        }
        baseline.push(answer.answers);
    }
    clean.shutdown();

    // Phase 1 — the doomed leader: a journaled run of the same load.
    let (leader, _) = CoordinatorJournal::open(&live_dir).expect("open live journal");
    let leader_registry = MetricsRegistry::new();
    let cl = start(&fixture, config(Some(leader.clone()), &leader_registry));
    for (i, gq) in fixture.questions.iter().enumerate() {
        let answer = cl.ask(&gq.question).expect("journaled ask failed");
        if answer.answers != baseline[i] {
            return out.fail(
                format!("journaling perturbed question {}", gq.question.id),
                &leader_registry,
            );
        }
    }
    let appended = leader.appended();
    cl.shutdown();
    drop(leader); // the kill: the leader process is gone

    // The crash lands mid-question: cut the journal just before the last
    // question's durable answer.
    let doomed = fixture.questions[questions - 1].question.id;
    crash_image(&live_dir, &crash_dir, doomed);

    // Phase 2 — failover: a successor replays the crashed journal and
    // promotes past the dead incarnation's term. A handle frozen at the
    // old term, minted before the promotion, plays the zombie ex-leader.
    let recovery_start = Instant::now();
    let (successor, recovery) = CoordinatorJournal::open(&crash_dir).expect("open crashed journal");
    let recovery_registry = MetricsRegistry::new();
    if recovery.state.gate_occupancy() != 1 {
        return out.fail(
            format!(
                "replay found {} in-flight question(s), want exactly the one killed mid-load",
                recovery.state.gate_occupancy()
            ),
            &recovery_registry,
        );
    }
    for (i, gq) in fixture.questions[..questions - 1].iter().enumerate() {
        let survived = recovery
            .state
            .get(gq.question.id)
            .and_then(|rec| rec.answer())
            .is_some_and(|(payload, complete)| {
                complete && RankedAnswers::decode(payload).as_ref() == Ok(&baseline[i])
            });
        if !survived {
            return out.fail(
                format!(
                    "pre-crash answer for {} lost or changed in replay",
                    gq.question.id
                ),
                &recovery_registry,
            );
        }
    }
    let zombie = successor.standby();
    let term = successor.promote().expect("promote successor");

    // Phase 3 — resume the in-flight question on a fresh cluster.
    let cl2 = start(&fixture, config(Some(successor), &recovery_registry));
    let resumed = cl2.resume(&recovery);
    let recovery_ms = recovery_start.elapsed().as_secs_f64() * 1e3;
    if resumed.len() != 1 {
        return out.fail(
            format!("resume returned {} question(s), want 1", resumed.len()),
            &recovery_registry,
        );
    }
    let (q, res) = &resumed[0];
    match res {
        Ok(answer) if !answer.coverage.is_complete() => {
            return out.fail("resumed answer lost coverage", &recovery_registry)
        }
        Ok(answer) if answer.answers != baseline[questions - 1] => {
            return out.fail(
                format!("resumed answer for {} diverged from the baseline", q.id),
                &recovery_registry,
            )
        }
        Ok(_) => {}
        Err(e) => {
            return out.fail(
                format!("resume of {} failed: {e}", q.id),
                &recovery_registry,
            )
        }
    }
    cl2.shutdown();
    let snap = recovery_registry.snapshot();
    for (key, want) in [
        ("dqa_failovers_total", 1u64),
        ("dqa_resumed_questions_total", 1u64),
    ] {
        if snap.counter(key) != want {
            return out.fail(
                format!("{key} = {}, want {want}", snap.counter(key)),
                &recovery_registry,
            );
        }
    }
    if snap.counter("dqa_replayed_records_total") == 0 {
        return out.fail("no journal records replayed", &recovery_registry);
    }
    if snap.gauges.get("dqa_leader_term").copied() != Some(term as f64) {
        return out.fail(
            "leader-term gauge did not follow the promotion",
            &recovery_registry,
        );
    }

    // Phase 4 — the zombie ex-leader keeps answering but appends nothing:
    // every post-term grant must bounce off the fence.
    let zombie_registry = MetricsRegistry::new();
    let cl3 = start(&fixture, config(Some(zombie), &zombie_registry));
    let answer = cl3
        .ask(&fixture.questions[0].question)
        .expect("zombie ask failed");
    cl3.shutdown();
    if answer.answers != baseline[0] {
        return out.fail(
            "fencing corrupted the zombie's in-memory answer",
            &zombie_registry,
        );
    }
    let zsnap = zombie_registry.snapshot();
    if zsnap.counter("dqa_fenced_grants_total") == 0 {
        return out.fail("zombie grants were not fenced", &zombie_registry);
    }
    if zsnap.counter("dqa_journal_records_total") != 0 {
        return out.fail("a fenced incarnation appended records", &zombie_registry);
    }

    println!(
        "Recovery soak — seed {}, {questions} questions, 3 nodes",
        ctx.seed
    );
    println!(
        "  leader journaled {appended} record(s); crash cut mid-question {doomed}; \
         successor promoted to term {term}"
    );
    println!(
        "  replayed {} record(s), resumed 1 question in {recovery_ms:.1} ms wall \
         (recovery histogram: {} sample(s))",
        snap.counter("dqa_replayed_records_total"),
        snap.histograms
            .get("dqa_recovery_seconds")
            .map_or(0, |h| h.count),
    );
    println!(
        "  zombie fenced: {} grant(s) rejected, 0 appended",
        zsnap.counter("dqa_fenced_grants_total")
    );
    out
}
