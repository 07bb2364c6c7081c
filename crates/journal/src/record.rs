//! Journal record schema — the coordinator decisions worth surviving.
//!
//! Records are deliberately close to the paper's vocabulary: a question is
//! admitted, scheduled at the three migration scheduling points (QA, PR,
//! AP), granted chunks, collects partial results, and is finally answered.
//! Payloads that the coordinator would otherwise have to recompute
//! (scored paragraphs, ranked answers) are opaque bytes here — the codecs
//! live beside their types (`qa_types::RankedAnswers::{encode, decode}`,
//! `qa_pipeline::ScoredParagraph::{encode_refs, decode_refs}`) — so the journal
//! crate does not depend on the pipeline crates.
//! Every variant has a writer in `dqa-runtime`; a kind nothing writes is
//! not part of the schema.
//!
//! # Frame payload
//!
//! One frame's payload is a [`Framed`]: `term u64 · kind u8 · fields`,
//! fixed-width little-endian, byte strings and `str`s behind a `u32`
//! length ([`qa_types::wire`]). The fields follow the variant's declaration
//! order, ids as `u32`, enums and `bool`s as one byte, a `Vec` as a `u32`
//! count and its elements. [`Framed::decode`] refuses an unknown kind or
//! enum byte, a length or count larger than the bytes that remain, invalid
//! UTF-8 and trailing bytes; it never allocates more than the payload's
//! own length. There is one format: a journal written by the `serde_json`
//! codec this one replaced fails that decode (the byte after its first
//! eight, an ASCII digit of `{"term":N`, is no record kind) and is refused
//! as corrupt — replay it with the build that wrote it.

use qa_types::wire::{put_bytes, put_str, put_u32, put_u64, put_u8, Reader};
use qa_types::{QaError, Question, QuestionId};

/// The three migration scheduling points of the meta-scheduler (Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SchedulingPoint {
    /// Question admission: which node becomes the question's home.
    Qa = 0,
    /// Paragraph Retrieval fan-out: which nodes serve PR chunks.
    Pr = 1,
    /// Answer Processing fan-out: which nodes serve AP batches.
    Ap = 2,
}

/// Distributed phase a chunk belongs to (QP and PO run on the home node
/// and are cheap to recompute; only the fan-out phases journal chunks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum JournalPhase {
    /// Paragraph Retrieval (PS fused in, as in Fig. 3).
    Pr = 0,
    /// Answer Processing.
    Ap = 1,
}

/// One durable coordinator decision.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A question passed the admission gate. Stores the full question so
    /// a successor coordinator can resume it without the client.
    Admitted {
        /// The admitted question.
        question: Question,
    },
    /// The meta-scheduler chose `nodes` at scheduling point `point`.
    Scheduled {
        /// Which question.
        question: QuestionId,
        /// Which of the three scheduling points.
        point: SchedulingPoint,
        /// Chosen node ids (home first for [`SchedulingPoint::Qa`]).
        nodes: Vec<u32>,
    },
    /// Chunk `chunk` of `phase` was granted to worker `node`.
    ChunkGranted {
        /// Which question.
        question: QuestionId,
        /// Which fan-out phase.
        phase: JournalPhase,
        /// Chunk id within the phase (deterministic 0..n ordering).
        chunk: u32,
        /// Worker node the chunk was sent to.
        node: u32,
    },
    /// First (deduplicated) result for a chunk, with its payload:
    /// paragraph references and scores for PR, the encoded `RankedAnswers`
    /// for AP. Implies the chunk is done.
    PartialResult {
        /// Which question.
        question: QuestionId,
        /// Which fan-out phase.
        phase: JournalPhase,
        /// Chunk id within the phase.
        chunk: u32,
        /// Opaque encoded bytes of the phase result.
        payload: Vec<u8>,
    },
    /// Cumulative retry budget spent in `phase` (monotone, so replaying
    /// an old record under a newer one is a no-op).
    RetrySpent {
        /// Which question.
        question: QuestionId,
        /// Which fan-out phase.
        phase: JournalPhase,
        /// Total retries spent so far in this phase.
        spent: u32,
    },
    /// The question finished with an answer: `payload` is the encoded
    /// final `RankedAnswers`; `complete` is false for degraded
    /// (partial-coverage) answers.
    Answered {
        /// Which question.
        question: QuestionId,
        /// Opaque encoded bytes of the final ranked answers.
        payload: Vec<u8>,
        /// Whether coverage was complete (false for degraded answers).
        complete: bool,
    },
    /// The question terminated without an answer (coordination error);
    /// it no longer occupies an admission slot.
    Abandoned {
        /// Which question.
        question: QuestionId,
    },
    /// Leadership changed hands: all subsequent frames carry `term`.
    TermChange {
        /// The new (strictly higher) term.
        term: u64,
    },
    /// The rebalancer minted a migration plan: `steps` is the ordered
    /// `(sub, from, to)` ownership transfers. Journaled *before* any step
    /// applies, so a successor knows the full intent.
    RebalancePlanned {
        /// Plan id, unique per coordinator incarnation.
        plan: u64,
        /// Ordered transfers as raw ids: `(sub_collection, from, to)`.
        steps: Vec<(u32, u32, u32)>,
    },
    /// One step of a planned migration was applied: `sub` is now owned by
    /// `to`. Replaying after the fact is a no-op (idempotent fold), which
    /// makes a crash-resumed plan exactly-once.
    RebalanceStepDone {
        /// The plan the step belongs to.
        plan: u64,
        /// The migrated sub-collection.
        sub: u32,
        /// Its new owner.
        to: u32,
    },
    /// Every step of `plan` has applied and the convergence invariant was
    /// re-verified: each sub-collection owned by exactly one live node.
    RebalanceConverged {
        /// The completed plan.
        plan: u64,
    },
}

/// A record stamped with the term of the coordinator that wrote it —
/// exactly what one on-disk frame's payload encodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Framed {
    /// Term of the writing coordinator (fencing token).
    pub term: u64,
    /// The decision itself.
    pub record: JournalRecord,
}

impl SchedulingPoint {
    fn from_byte(b: u8) -> Result<SchedulingPoint, QaError> {
        match b {
            0 => Ok(SchedulingPoint::Qa),
            1 => Ok(SchedulingPoint::Pr),
            2 => Ok(SchedulingPoint::Ap),
            _ => Err(bad("scheduling point", b)),
        }
    }
}

impl JournalPhase {
    fn from_byte(b: u8) -> Result<JournalPhase, QaError> {
        match b {
            0 => Ok(JournalPhase::Pr),
            1 => Ok(JournalPhase::Ap),
            _ => Err(bad("phase", b)),
        }
    }
}

fn bad(what: &str, byte: u8) -> QaError {
    QaError::Codec(format!("unknown {what} byte {byte:#04x}"))
}

fn question_id(r: &mut Reader<'_>) -> Result<QuestionId, QaError> {
    r.u32().map(QuestionId::new)
}

/// Append one frame payload — `term`, the record's kind byte, its fields —
/// to `out` (module header). Borrowing, so an append never clones the
/// record.
pub(crate) fn encode_payload(out: &mut Vec<u8>, term: u64, record: &JournalRecord) {
    put_u64(out, term);
    match record {
        JournalRecord::Admitted { question } => {
            put_u8(out, 1);
            put_u32(out, question.id.raw());
            put_str(out, &question.text);
        }
        JournalRecord::Scheduled {
            question,
            point,
            nodes,
        } => {
            put_u8(out, 2);
            put_u32(out, question.raw());
            put_u8(out, *point as u8);
            put_u32(out, nodes.len() as u32);
            for node in nodes {
                put_u32(out, *node);
            }
        }
        JournalRecord::ChunkGranted {
            question,
            phase,
            chunk,
            node,
        } => {
            put_u8(out, 3);
            put_u32(out, question.raw());
            put_u8(out, *phase as u8);
            put_u32(out, *chunk);
            put_u32(out, *node);
        }
        JournalRecord::PartialResult {
            question,
            phase,
            chunk,
            payload,
        } => {
            put_u8(out, 4);
            put_u32(out, question.raw());
            put_u8(out, *phase as u8);
            put_u32(out, *chunk);
            put_bytes(out, payload);
        }
        JournalRecord::RetrySpent {
            question,
            phase,
            spent,
        } => {
            put_u8(out, 5);
            put_u32(out, question.raw());
            put_u8(out, *phase as u8);
            put_u32(out, *spent);
        }
        JournalRecord::Answered {
            question,
            payload,
            complete,
        } => {
            put_u8(out, 6);
            put_u32(out, question.raw());
            put_bytes(out, payload);
            put_u8(out, u8::from(*complete));
        }
        JournalRecord::Abandoned { question } => {
            put_u8(out, 7);
            put_u32(out, question.raw());
        }
        JournalRecord::TermChange { term } => {
            put_u8(out, 8);
            put_u64(out, *term);
        }
        JournalRecord::RebalancePlanned { plan, steps } => {
            put_u8(out, 9);
            put_u64(out, *plan);
            put_u32(out, steps.len() as u32);
            for (sub, from, to) in steps {
                put_u32(out, *sub);
                put_u32(out, *from);
                put_u32(out, *to);
            }
        }
        JournalRecord::RebalanceStepDone { plan, sub, to } => {
            put_u8(out, 10);
            put_u64(out, *plan);
            put_u32(out, *sub);
            put_u32(out, *to);
        }
        JournalRecord::RebalanceConverged { plan } => {
            put_u8(out, 11);
            put_u64(out, *plan);
        }
    }
}

impl Framed {
    /// The bytes one frame stores for this record (module header).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        encode_payload(&mut out, self.term, &self.record);
        out
    }

    /// Decode one frame's payload; the exact inverse of [`Framed::encode`].
    /// Anything else — see the module header — is an error.
    pub fn decode(payload: &[u8]) -> Result<Framed, QaError> {
        let mut r = Reader::new(payload);
        let term = r.u64()?;
        let record = match r.u8()? {
            1 => JournalRecord::Admitted {
                question: Question::new(question_id(&mut r)?, r.str()?),
            },
            2 => JournalRecord::Scheduled {
                question: question_id(&mut r)?,
                point: SchedulingPoint::from_byte(r.u8()?)?,
                nodes: {
                    let n = r.count(4)?;
                    (0..n).map(|_| r.u32()).collect::<Result<_, _>>()?
                },
            },
            3 => JournalRecord::ChunkGranted {
                question: question_id(&mut r)?,
                phase: JournalPhase::from_byte(r.u8()?)?,
                chunk: r.u32()?,
                node: r.u32()?,
            },
            4 => JournalRecord::PartialResult {
                question: question_id(&mut r)?,
                phase: JournalPhase::from_byte(r.u8()?)?,
                chunk: r.u32()?,
                payload: r.bytes()?.to_vec(),
            },
            5 => JournalRecord::RetrySpent {
                question: question_id(&mut r)?,
                phase: JournalPhase::from_byte(r.u8()?)?,
                spent: r.u32()?,
            },
            6 => JournalRecord::Answered {
                question: question_id(&mut r)?,
                payload: r.bytes()?.to_vec(),
                complete: match r.u8()? {
                    0 => false,
                    1 => true,
                    b => return Err(bad("bool", b)),
                },
            },
            7 => JournalRecord::Abandoned {
                question: question_id(&mut r)?,
            },
            8 => JournalRecord::TermChange { term: r.u64()? },
            9 => JournalRecord::RebalancePlanned {
                plan: r.u64()?,
                steps: {
                    let n = r.count(12)?;
                    (0..n)
                        .map(|_| Ok((r.u32()?, r.u32()?, r.u32()?)))
                        .collect::<Result<_, QaError>>()?
                },
            },
            10 => JournalRecord::RebalanceStepDone {
                plan: r.u64()?,
                sub: r.u32()?,
                to: r.u32()?,
            },
            11 => JournalRecord::RebalanceConverged { plan: r.u64()? },
            kind => return Err(bad("record kind", kind)),
        };
        r.finish()?;
        Ok(Framed { term, record })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{self, Decoded};
    use qa_types::rng::Rng;

    /// One record per kind that has a writer, with the bytes its frame
    /// payload stores under term 3, as hex.
    fn pinned() -> Vec<(JournalRecord, &'static str)> {
        let q = QuestionId::new(7);
        vec![
            (
                JournalRecord::Admitted {
                    question: Question::new(q, "where is it"),
                },
                "0300000000000000 01 07000000 0b000000 7768657265206973206974",
            ),
            (
                JournalRecord::Scheduled {
                    question: q,
                    point: SchedulingPoint::Pr,
                    nodes: vec![0, 3],
                },
                "0300000000000000 02 07000000 01 02000000 00000000 03000000",
            ),
            (
                JournalRecord::ChunkGranted {
                    question: q,
                    phase: JournalPhase::Pr,
                    chunk: 5,
                    node: 1,
                },
                "0300000000000000 03 07000000 00 05000000 01000000",
            ),
            (
                JournalRecord::PartialResult {
                    question: q,
                    phase: JournalPhase::Ap,
                    chunk: 2,
                    payload: b"[1]".to_vec(),
                },
                "0300000000000000 04 07000000 01 02000000 03000000 5b315d",
            ),
            (
                JournalRecord::RetrySpent {
                    question: q,
                    phase: JournalPhase::Ap,
                    spent: 4,
                },
                "0300000000000000 05 07000000 01 04000000",
            ),
            (
                JournalRecord::Answered {
                    question: q,
                    payload: b"{}".to_vec(),
                    complete: false,
                },
                "0300000000000000 06 07000000 02000000 7b7d 00",
            ),
            (
                JournalRecord::Abandoned { question: q },
                "0300000000000000 07 07000000",
            ),
            (
                JournalRecord::TermChange { term: 4 },
                "0300000000000000 08 0400000000000000",
            ),
            (
                JournalRecord::RebalancePlanned {
                    plan: 9,
                    steps: vec![(2, 0, 1), (5, 0, 3)],
                },
                "0300000000000000 09 0900000000000000 02000000 \
                 020000000000000001000000 050000000000000003000000",
            ),
            (
                JournalRecord::RebalanceStepDone {
                    plan: 9,
                    sub: 2,
                    to: 1,
                },
                "0300000000000000 0a 0900000000000000 02000000 01000000",
            ),
            (
                JournalRecord::RebalanceConverged { plan: 9 },
                "0300000000000000 0b 0900000000000000",
            ),
        ]
    }

    fn unhex(text: &str) -> Vec<u8> {
        let digits: Vec<u8> = text.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
        digits
            .chunks(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect()
    }

    /// The bytes a frame stores, field by field: a reordered field, a
    /// renumbered kind or a widened integer turns this red.
    #[test]
    fn stored_frame_bytes_are_pinned() {
        let pinned = pinned();
        assert_eq!(pinned.len(), 11, "one pin per record kind");
        for (record, hex) in pinned {
            let bytes = unhex(hex);
            let framed = Framed { term: 3, record };
            assert_eq!(framed.encode(), bytes, "{framed:?}");
            assert_eq!(Framed::decode(&bytes).unwrap(), framed);
        }
    }

    /// What a reader makes of the bytes at the head of `buf`: the frame
    /// layer, then the record decode.
    fn read(buf: &[u8]) -> Result<Framed, &'static str> {
        match frame::decode(buf, 0) {
            Decoded::Frame { payload, .. } => Framed::decode(payload).map_err(|_| "corrupt"),
            Decoded::Torn => Err("torn"),
            Decoded::Corrupt(_) => Err("corrupt"),
        }
    }

    #[test]
    fn every_truncation_is_torn_and_every_bit_flip_is_caught() {
        for (record, _) in pinned() {
            let framed = Framed { term: 3, record };
            let bytes = frame::encode(&framed.encode());
            assert_eq!(read(&bytes).as_ref(), Ok(&framed));
            for cut in 0..bytes.len() {
                assert_eq!(read(&bytes[..cut]), Err("torn"), "{framed:?} cut at {cut}");
            }
            for bit in 0..bytes.len() * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                // A length that grew reads past the buffer (torn; the
                // segment scan then finds no valid frame behind it); every
                // other flip fails the checksum.
                let grew = bit < 32 && flipped[bit / 8] > bytes[bit / 8];
                let want = if grew && bit < 24 { "torn" } else { "corrupt" };
                assert_eq!(read(&flipped), Err(want), "{framed:?} bit {bit}");
            }
        }
    }

    /// Overwrite the four bytes at `at` and checksum the result again, so
    /// only the record decode stands between the bytes and the fold.
    fn with_u32(payload: &[u8], at: usize, v: u32) -> Vec<u8> {
        let mut out = payload.to_vec();
        out[at..at + 4].copy_from_slice(&v.to_le_bytes());
        frame::encode(&out)
    }

    fn with_byte(payload: &[u8], at: usize, v: u8) -> Vec<u8> {
        let mut out = payload.to_vec();
        out[at] = v;
        frame::encode(&out)
    }

    #[test]
    fn rechecksummed_mutations_are_corrupt_never_a_panic() {
        // Offsets of the fields a mutation aims at, by kind byte: the
        // length or count prefixes, and the phase / point / bool bytes.
        const KIND: usize = 8;
        let lengths = |kind: u8| -> &[usize] {
            match kind {
                1 | 6 => &[13],
                2 => &[14],
                4 => &[18],
                9 => &[17],
                _ => &[],
            }
        };
        let mut rng = Rng::new(20);
        for (record, _) in pinned() {
            let payload = Framed { term: 3, record }.encode();
            let kind = payload[KIND];
            let corrupt = |frame: Vec<u8>, what: &str| {
                assert_eq!(read(&frame), Err("corrupt"), "kind {kind}: {what}");
            };

            for unknown in (0..=255u8).filter(|k| !(1..=11).contains(k)) {
                corrupt(with_byte(&payload, KIND, unknown), "unknown kind");
            }
            for &at in lengths(kind) {
                let rest = (payload.len() - at - 4) as u32;
                for len in [rest + 1, rest * 2 + 7, 1 << 31, u32::MAX] {
                    corrupt(with_u32(&payload, at, len), "length past the end");
                }
            }
            if (2..=5).contains(&kind) {
                for byte in [2 + u8::from(kind == 2), 0x7f, 0xff] {
                    corrupt(with_byte(&payload, 13, byte), "phase/point byte");
                }
            }
            if kind == 6 {
                corrupt(with_byte(&payload, payload.len() - 1, 2), "bool byte");
            }
            if kind == 1 {
                corrupt(with_byte(&payload, 17, 0xff), "broken UTF-8");
            }
            let mut trailing = payload.clone();
            trailing.push(0);
            corrupt(frame::encode(&trailing), "one trailing byte");

            // Seeded single-byte overwrites: the decode is an error, or the
            // bytes were a record's own encoding all along. Never a panic.
            for _ in 0..2_000 {
                let at = rng.below(payload.len());
                let byte = rng.next_u64() as u8;
                let mut mutated = payload.clone();
                mutated[at] = byte;
                if let Ok(framed) = Framed::decode(&mutated) {
                    assert_eq!(framed.encode(), mutated, "decode accepted a non-encoding");
                }
            }
        }
        // Seeded garbage of every small length, checksummed or not.
        for len in 0..64 {
            let garbage: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            assert!(read(&garbage).is_err());
            if let Ok(framed) = Framed::decode(&garbage) {
                assert_eq!(framed.encode(), garbage);
            }
        }
    }
}
