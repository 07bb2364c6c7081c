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
//! The generator covers all eleven record kinds. `src/record.rs` mutates
//! one pinned record per kind: by offset at its length, count and enum
//! bytes, and 2 000 seeded overwrites each.

use journal::{
    Framed, Journal, JournalError, JournalOptions, JournalPhase, JournalRecord, RecoveredState,
    SchedulingPoint,
};
use qa_types::rng::{cases, Rng};
use qa_types::{Question, QuestionId};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A directory no other case or test process uses.
fn tmp(name: &str) -> PathBuf {
    static DIRS: AtomicU64 = AtomicU64::new(0);
    let n = DIRS.fetch_add(1, Ordering::Relaxed);
    let dir = format!("dqa-journal-props-{}-{name}-{n}", std::process::id());
    let dir = std::env::temp_dir().join(dir);
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn record(rng: &mut Rng) -> JournalRecord {
    let question = QuestionId::new(rng.below(8) as u32);
    let phase = |rng: &mut Rng| {
        if rng.bool(0.5) {
            JournalPhase::Ap
        } else {
            JournalPhase::Pr
        }
    };
    let bytes = |rng: &mut Rng| rng.vec(0..=23, |r| r.next_u64() as u8);
    match rng.below(11) {
        0 => JournalRecord::Admitted {
            question: Question::new(question, format!("question {}", question.raw())),
        },
        1 => JournalRecord::Scheduled {
            question,
            point: [
                SchedulingPoint::Qa,
                SchedulingPoint::Pr,
                SchedulingPoint::Ap,
            ][rng.below(3)],
            nodes: rng.vec(1..=3, |r| r.below(6) as u32),
        },
        2 => JournalRecord::ChunkGranted {
            question,
            phase: phase(rng),
            chunk: rng.below(4) as u32,
            node: rng.below(6) as u32,
        },
        3 => JournalRecord::PartialResult {
            question,
            phase: phase(rng),
            chunk: rng.below(4) as u32,
            payload: bytes(rng),
        },
        4 => JournalRecord::RetrySpent {
            question,
            phase: phase(rng),
            spent: rng.below(5) as u32,
        },
        5 => JournalRecord::Answered {
            question,
            payload: bytes(rng),
            complete: rng.bool(0.5),
        },
        6 => JournalRecord::Abandoned { question },
        7 => JournalRecord::TermChange {
            term: rng.range(2..=5),
        },
        8 => JournalRecord::RebalancePlanned {
            plan: rng.range(0..=3),
            steps: rng.vec(0..=4, |r| {
                (r.below(8) as u32, r.below(6) as u32, r.below(6) as u32)
            }),
        },
        9 => JournalRecord::RebalanceStepDone {
            plan: rng.range(0..=3),
            sub: rng.below(8) as u32,
            to: rng.below(6) as u32,
        },
        _ => JournalRecord::RebalanceConverged {
            plan: rng.range(0..=3),
        },
    }
}

/// A fresh journal directory holding `records`, all at term 1.
fn written(name: &str, records: &[JournalRecord], opts: JournalOptions) -> PathBuf {
    let dir = tmp(name);
    let (mut j, _) = Journal::open_with(&dir, opts).unwrap();
    for record in records {
        j.append(1, record).unwrap();
    }
    dir
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

/// decode ∘ encode = id on the frame payload, whatever the term.
#[test]
fn payload_codec_round_trips() {
    cases(0x10a1_0001, 48 * 11, |rng| {
        let framed = Framed {
            term: rng.next_u64(),
            record: record(rng),
        };
        assert_eq!(Framed::decode(&framed.encode()), Ok(framed));
    });
}

/// Hostile payloads: an error, or the one encoding of the record they
/// decode to. A mutated encoding is the interesting input — it keeps a
/// valid prefix — so half the cases start from one.
#[test]
fn hostile_payloads_are_an_error_or_canonical() {
    cases(0x10a1_0002, 48 * 11, |rng| {
        let bytes = if rng.bool(0.5) {
            let mut bytes = Framed {
                term: 1,
                record: record(rng),
            }
            .encode();
            let at = rng.below(bytes.len());
            bytes[at] = rng.next_u64() as u8;
            bytes
        } else {
            rng.vec(0..=95, |r| r.next_u64() as u8)
        };
        if let Ok(framed) = Framed::decode(&bytes) {
            assert_eq!(framed.encode(), bytes);
        }
    });
}

/// replay ∘ replay = replay, both in memory and across disk re-opens.
#[test]
fn replay_is_idempotent() {
    cases(0x10a1_0003, 48, |rng| {
        let records = rng.vec(1..=39, record);
        // In memory: applying the sequence twice changes nothing.
        let once = fold(&records);
        let mut twice = once.clone();
        for record in &records {
            twice.apply(&Framed {
                term: 1,
                record: record.clone(),
            });
        }
        assert_eq!(&once, &twice);

        // On disk: a second open replays to the identical state.
        let dir = written("idem", &records, JournalOptions::default());
        let (_, first) = Journal::open(&dir).unwrap();
        let (_, second) = Journal::open(&dir).unwrap();
        assert_eq!(&first.state, &second.state);
        assert_eq!(&first.state, &once);
        assert_eq!(first.stats.records, records.len() as u64);
        let _ = fs::remove_dir_all(&dir);
    });
}

/// Truncating at every byte offset of the last record recovers the
/// journal minus exactly that record; truncating at the frame
/// boundary keeps everything.
#[test]
fn torn_tail_recovers_at_every_offset() {
    cases(0x10a1_0004, 48, |rng| {
        let records = rng.vec(1..=11, record);
        let dir = written("torn", &records, JournalOptions::default());
        let segment = dir.join("segment-000000.dqaj");
        let full = fs::read(&segment).unwrap();
        let frames = journal::read_segment(&segment).unwrap();
        assert_eq!(frames.len(), records.len());
        let last_start = frames.last().map(|(off, _)| *off).unwrap() as usize;
        let want_prefix = fold(&records[..records.len() - 1]);

        let scratch = tmp("torn-scratch");
        fs::create_dir_all(&scratch).unwrap();
        let cut_path = scratch.join("segment-000000.dqaj");
        for cut in last_start..full.len() {
            fs::write(&cut_path, &full[..cut]).unwrap();
            let (_, rec) = Journal::open(&scratch).unwrap();
            assert_eq!(
                rec.stats.records,
                records.len() as u64 - 1,
                "cut at byte {cut} must drop exactly the torn record"
            );
            assert_eq!(rec.stats.truncated_bytes, (cut - last_start) as u64);
            assert_eq!(&rec.state, &want_prefix);
        }
        // Cutting exactly at the end is not a tear at all.
        fs::write(&cut_path, &full).unwrap();
        let (_, rec) = Journal::open(&scratch).unwrap();
        assert_eq!(rec.stats.records, records.len() as u64);
        assert_eq!(rec.stats.truncated_bytes, 0u64);
        assert_eq!(&rec.state, &fold(&records));
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&scratch);
    });
}

/// Replay across segment-rotation boundaries: with a tiny segment cap
/// the writer rotates mid-sequence (the path the dir-fsync fix in
/// `Journal::rotate` hardens), and reopening must fold every record in
/// order across all segments to the same state as one flat replay —
/// through a *fresh* `Journal::open_with` that discovers the segments
/// from the directory alone.
#[test]
fn replay_crosses_rotation_boundaries() {
    cases(0x10a1_0005, 48, |rng| {
        let records = rng.vec(8..=39, record);
        let max_segment = rng.range(96..=511);
        let opts = JournalOptions {
            max_segment_bytes: max_segment,
            fsync_every: Some(1),
        };
        let dir = written("rotate", &records, opts);
        let segment_bytes: Vec<u64> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".dqaj"))
            .map(|e| e.metadata().unwrap().len())
            .collect();
        let segment_count = segment_bytes.len();
        // A binary frame is 21 to ~70 bytes, so the shortest sequences fit
        // under the largest caps; most do not.
        assert_eq!(
            segment_count > 1,
            segment_bytes.iter().sum::<u64>() >= max_segment,
            "cap {max_segment} over segments of {segment_bytes:?} bytes"
        );
        let (_, rec) = Journal::open_with(&dir, opts).unwrap();
        assert_eq!(rec.stats.segments as usize, segment_count);
        assert_eq!(rec.stats.records, records.len() as u64);
        assert_eq!(rec.stats.truncated_bytes, 0u64);
        assert_eq!(&rec.state, &fold(&records));
        // And the reopened journal keeps appending into the *latest*
        // segment rather than resurrecting an earlier one.
        {
            // At the recovered term: the sequence may hold a `TermChange`.
            let (mut j, _) = Journal::open_with(&dir, opts).unwrap();
            let term = j.term();
            let abandoned = JournalRecord::Abandoned {
                question: QuestionId::new(0),
            };
            j.append(term, &abandoned).unwrap();
        }
        let (_, after) = Journal::open_with(&dir, opts).unwrap();
        assert_eq!(after.stats.records, records.len() as u64 + 1);
        let _ = fs::remove_dir_all(&dir);
    });
}

/// Flipping one byte anywhere inside a *non-tail* frame must surface
/// as [`JournalError::CorruptFrame`]: a checksum-valid frame still
/// sits behind the damage, so neither a successful open nor a
/// torn-tail truncation is acceptable — both would silently lose or
/// accept corrupted records.
#[test]
fn byte_flip_in_non_tail_frame_is_corrupt_frame() {
    cases(0x10a1_0006, 48, |rng| {
        let records = rng.vec(2..=11, record);
        let dir = written("flip", &records, JournalOptions::default());
        let segment = dir.join("segment-000000.dqaj");
        let clean = fs::read(&segment).unwrap();
        let frames = journal::read_segment(&segment).unwrap();
        assert_eq!(frames.len(), records.len());
        // Pick any frame except the last, then any byte inside it
        // (header and payload alike are fair game).
        let victim = rng.below(frames.len() - 1);
        let start = frames[victim].0 as usize;
        let end = frames[victim + 1].0 as usize;
        let pos = start + rng.below(end - start);
        let mut bytes = clean.clone();
        bytes[pos] ^= rng.range(1..=255) as u8;
        fs::write(&segment, &bytes).unwrap();

        match Journal::open(&dir) {
            Err(JournalError::CorruptFrame { offset, .. }) => assert!(
                offset <= pos as u64,
                "damage at byte {pos} blamed on a later frame (offset {offset})"
            ),
            Err(other) => panic!("flip at byte {pos} gave {other:?}, want CorruptFrame"),
            Ok(_) => panic!("flip at byte {pos} opened successfully"),
        }
        // Detection must not destroy evidence: the segment keeps every
        // byte for offline repair.
        assert_eq!(fs::metadata(&segment).unwrap().len(), bytes.len() as u64);
        let _ = fs::remove_dir_all(&dir);
    });
}
