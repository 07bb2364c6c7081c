//! Property tests for the journal's two safety pillars:
//!
//! 1. **Replay idempotence** — `replay ∘ replay = replay`: folding a frame
//!    sequence into [`RecoveredState`] twice yields the state of folding
//!    it once, and re-opening a journal reproduces the first open's state.
//! 2. **Torn-tail recovery** — truncating the journal at *every* byte
//!    offset inside the last record still opens successfully and drops
//!    exactly that record, nothing more.
//! 3. **Mid-segment corruption detection** — flipping any byte of any
//!    non-tail frame makes `open` fail with `CorruptFrame` (never a
//!    silent truncation of the valid records behind the damage, and
//!    never a successful open over damaged bytes).
//! 4. **The frame payload codec** — `decode ∘ encode = id` for every
//!    record kind, and arbitrary bytes decode to an error or to a record
//!    whose encoding is exactly those bytes: never a panic, never a second
//!    spelling of one record.
//!
//! The generators cover all eleven record kinds. proptest does not compile
//! in the offline build (its stand-in is empty); the same properties run
//! there as seeded `#[test]`s in `src/record.rs`.

use journal::{
    Framed, Journal, JournalError, JournalOptions, JournalPhase, JournalRecord, RecoveredState,
    SchedulingPoint,
};
use proptest::prelude::*;
use qa_types::{Question, QuestionId};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static DIRS: AtomicU64 = AtomicU64::new(0);

fn tmp(name: &str) -> PathBuf {
    let n = DIRS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "dqa-journal-props-{}-{name}-{n}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn phase(ap: bool) -> JournalPhase {
    if ap {
        JournalPhase::Ap
    } else {
        JournalPhase::Pr
    }
}

fn record_strategy() -> impl Strategy<Value = JournalRecord> {
    let q = 0u32..8;
    prop_oneof![
        q.clone().prop_map(|id| JournalRecord::Admitted {
            question: Question::new(QuestionId::new(id), format!("question {id}")),
        }),
        (q.clone(), 0usize..3, prop::collection::vec(0u32..6, 1..4)).prop_map(
            |(id, point, nodes)| JournalRecord::Scheduled {
                question: QuestionId::new(id),
                point: [
                    SchedulingPoint::Qa,
                    SchedulingPoint::Pr,
                    SchedulingPoint::Ap
                ][point],
                nodes,
            }
        ),
        (q.clone(), any::<bool>(), 0u32..4, 0u32..6).prop_map(|(id, ap, chunk, node)| {
            JournalRecord::ChunkGranted {
                question: QuestionId::new(id),
                phase: phase(ap),
                chunk,
                node,
            }
        }),
        (
            q.clone(),
            any::<bool>(),
            0u32..4,
            prop::collection::vec(any::<u8>(), 0..24)
        )
            .prop_map(|(id, ap, chunk, payload)| JournalRecord::PartialResult {
                question: QuestionId::new(id),
                phase: phase(ap),
                chunk,
                payload,
            }),
        (q.clone(), any::<bool>(), 0u32..5).prop_map(|(id, ap, spent)| {
            JournalRecord::RetrySpent {
                question: QuestionId::new(id),
                phase: phase(ap),
                spent,
            }
        }),
        (
            q.clone(),
            prop::collection::vec(any::<u8>(), 0..24),
            any::<bool>()
        )
            .prop_map(|(id, payload, complete)| JournalRecord::Answered {
                question: QuestionId::new(id),
                payload,
                complete,
            }),
        q.prop_map(|id| JournalRecord::Abandoned {
            question: QuestionId::new(id),
        }),
        (2u64..6).prop_map(|term| JournalRecord::TermChange { term }),
        (
            0u64..4,
            prop::collection::vec((0u32..8, 0u32..6, 0u32..6), 0..5)
        )
            .prop_map(|(plan, steps)| JournalRecord::RebalancePlanned { plan, steps }),
        (0u64..4, 0u32..8, 0u32..6).prop_map(|(plan, sub, to)| JournalRecord::RebalanceStepDone {
            plan,
            sub,
            to
        }),
        (0u64..4).prop_map(|plan| JournalRecord::RebalanceConverged { plan }),
    ]
}

fn fold(records: &[JournalRecord]) -> RecoveredState {
    let mut state = RecoveredState::new();
    for record in records {
        state.apply(&Framed {
            term: 1,
            record: record.clone(),
        });
    }
    state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// decode ∘ encode = id on the frame payload, whatever the term.
    #[test]
    fn payload_codec_round_trips(record in record_strategy(), term in any::<u64>()) {
        let framed = Framed { term, record };
        prop_assert_eq!(Framed::decode(&framed.encode()), Ok(framed));
    }

    /// Hostile payloads: an error, or the one encoding of the record they
    /// decode to. A mutated encoding is the interesting input — it keeps a
    /// valid prefix — so half the cases start from one.
    #[test]
    fn hostile_payloads_are_an_error_or_canonical(
        record in record_strategy(),
        garbage in prop::collection::vec(any::<u8>(), 0..96),
        at_frac in 0.0f64..1.0,
        byte in any::<u8>(),
        mutate in any::<bool>(),
    ) {
        let bytes = if mutate {
            let mut bytes = Framed { term: 1, record }.encode();
            let at = ((at_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
            bytes[at] = byte;
            bytes
        } else {
            garbage
        };
        if let Ok(framed) = Framed::decode(&bytes) {
            prop_assert_eq!(framed.encode(), bytes);
        }
    }

    /// replay ∘ replay = replay, both in memory and across disk re-opens.
    #[test]
    fn replay_is_idempotent(records in prop::collection::vec(record_strategy(), 1..40)) {
        // In memory: applying the sequence twice changes nothing.
        let once = fold(&records);
        let mut twice = once.clone();
        for record in &records {
            twice.apply(&Framed { term: 1, record: record.clone() });
        }
        prop_assert_eq!(&once, &twice);

        // On disk: a second open replays to the identical state.
        let dir = tmp("idem");
        {
            let (mut j, _) = Journal::open(&dir).unwrap();
            for record in &records {
                j.append(1, record).unwrap();
            }
        }
        let (_, first) = Journal::open(&dir).unwrap();
        let (_, second) = Journal::open(&dir).unwrap();
        prop_assert_eq!(&first.state, &second.state);
        prop_assert_eq!(&first.state, &once);
        prop_assert_eq!(first.stats.records, records.len() as u64);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Truncating at every byte offset of the last record recovers the
    /// journal minus exactly that record; truncating at the frame
    /// boundary keeps everything.
    #[test]
    fn torn_tail_recovers_at_every_offset(
        records in prop::collection::vec(record_strategy(), 1..12),
    ) {
        let dir = tmp("torn");
        {
            let (mut j, _) = Journal::open(&dir).unwrap();
            for record in &records {
                j.append(1, record).unwrap();
            }
        }
        let segment = dir.join("segment-000000.dqaj");
        let full = fs::read(&segment).unwrap();
        let frames = journal::read_segment(&segment).unwrap();
        prop_assert_eq!(frames.len(), records.len());
        let last_start = frames.last().map(|(off, _)| *off).unwrap() as usize;
        let want_prefix = fold(&records[..records.len() - 1]);

        let scratch = tmp("torn-scratch");
        fs::create_dir_all(&scratch).unwrap();
        let cut_path = scratch.join("segment-000000.dqaj");
        for cut in last_start..full.len() {
            fs::write(&cut_path, &full[..cut]).unwrap();
            let (_, rec) = Journal::open(&scratch).unwrap();
            prop_assert_eq!(
                rec.stats.records,
                records.len() as u64 - 1,
                "cut at byte {} must drop exactly the torn record",
                cut
            );
            prop_assert_eq!(rec.stats.truncated_bytes, (cut - last_start) as u64);
            prop_assert_eq!(&rec.state, &want_prefix);
        }
        // Cutting exactly at the end is not a tear at all.
        fs::write(&cut_path, &full).unwrap();
        let (_, rec) = Journal::open(&scratch).unwrap();
        prop_assert_eq!(rec.stats.records, records.len() as u64);
        prop_assert_eq!(rec.stats.truncated_bytes, 0u64);
        prop_assert_eq!(&rec.state, &fold(&records));
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&scratch);
    }

    /// Replay across segment-rotation boundaries: with a tiny segment cap
    /// the writer rotates mid-sequence (the path the dir-fsync fix in
    /// `Journal::rotate` hardens), and reopening must fold every record in
    /// order across all segments to the same state as one flat replay —
    /// through a *fresh* `Journal::open_with` that discovers the segments
    /// from the directory alone.
    #[test]
    fn replay_crosses_rotation_boundaries(
        records in prop::collection::vec(record_strategy(), 8..40),
        max_segment in 96u64..512,
    ) {
        let dir = tmp("rotate");
        let opts = JournalOptions { max_segment_bytes: max_segment, fsync_every: Some(1) };
        {
            let (mut j, _) = Journal::open_with(&dir, opts).unwrap();
            for record in &records {
                j.append(1, record).unwrap();
            }
        }
        let segment_count = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .is_ok_and(|e| e.file_name().to_string_lossy().ends_with(".dqaj"))
            })
            .count();
        prop_assert!(
            segment_count > 1,
            "cap {} bytes over {} records must rotate",
            max_segment,
            records.len()
        );
        let (_, rec) = Journal::open_with(&dir, opts).unwrap();
        prop_assert_eq!(rec.stats.segments as usize, segment_count);
        prop_assert_eq!(rec.stats.records, records.len() as u64);
        prop_assert_eq!(rec.stats.truncated_bytes, 0u64);
        prop_assert_eq!(&rec.state, &fold(&records));
        // And the reopened journal keeps appending into the *latest*
        // segment rather than resurrecting an earlier one.
        {
            // At the recovered term: the sequence may hold a `TermChange`.
            let (mut j, _) = Journal::open_with(&dir, opts).unwrap();
            let term = j.term();
            j.append(term, &JournalRecord::Abandoned { question: QuestionId::new(0) }).unwrap();
        }
        let (_, after) = Journal::open_with(&dir, opts).unwrap();
        prop_assert_eq!(after.stats.records, records.len() as u64 + 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Flipping one byte anywhere inside a *non-tail* frame must surface
    /// as [`JournalError::CorruptFrame`]: a checksum-valid frame still
    /// sits behind the damage, so neither a successful open nor a
    /// torn-tail truncation is acceptable — both would silently lose or
    /// accept corrupted records.
    #[test]
    fn byte_flip_in_non_tail_frame_is_corrupt_frame(
        records in prop::collection::vec(record_strategy(), 2..12),
        frame_frac in 0.0f64..1.0,
        byte_frac in 0.0f64..1.0,
        mask in 1u8..=255,
    ) {
        let dir = tmp("flip");
        {
            let (mut j, _) = Journal::open(&dir).unwrap();
            for record in &records {
                j.append(1, record).unwrap();
            }
        }
        let segment = dir.join("segment-000000.dqaj");
        let clean = fs::read(&segment).unwrap();
        let frames = journal::read_segment(&segment).unwrap();
        prop_assert_eq!(frames.len(), records.len());
        // Pick any frame except the last, then any byte inside it
        // (header and payload alike are fair game).
        let victim = ((frame_frac * (frames.len() - 1) as f64) as usize)
            .min(frames.len() - 2);
        let start = frames[victim].0 as usize;
        let end = frames[victim + 1].0 as usize;
        let pos = start + ((byte_frac * (end - start) as f64) as usize).min(end - start - 1);
        let mut bytes = clean.clone();
        bytes[pos] ^= mask;
        fs::write(&segment, &bytes).unwrap();

        match Journal::open(&dir) {
            Err(JournalError::CorruptFrame { offset, .. }) => {
                prop_assert!(
                    offset <= pos as u64,
                    "damage at byte {} blamed on a later frame (offset {})",
                    pos,
                    offset
                );
            }
            Err(other) => {
                return Err(TestCaseError::fail(format!(
                    "flip at byte {pos} gave {other:?}, want CorruptFrame"
                )));
            }
            Ok(_) => {
                return Err(TestCaseError::fail(format!(
                    "flip at byte {pos} opened successfully"
                )));
            }
        }
        // Detection must not destroy evidence: the segment keeps every
        // byte for offline repair.
        prop_assert_eq!(fs::metadata(&segment).unwrap().len(), bytes.len() as u64);
        let _ = fs::remove_dir_all(&dir);
    }
}
