//! Segmented append-only journal files.
//!
//! A journal is a directory of `segment-NNNNNN.dqaj` files. Frames
//! ([`crate::frame`]) are appended to the highest-numbered segment; when
//! it reaches [`JournalOptions::max_segment_bytes`] a fresh segment is
//! started. On [`Journal::open`] every segment is scanned in order and
//! folded into a [`RecoveredState`]; a torn tail — the only damage a
//! crash can inflict — is legal *only* on the final segment and is
//! truncated away, dropping exactly the torn record. Corruption anywhere
//! else is reported, never silently skipped.

use crate::frame::{self, Decoded};
use crate::record::{encode_payload, Framed, JournalRecord};
use crate::replay::{RecoveredState, ReplayStats};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// File extension for journal segments.
const SEGMENT_EXT: &str = "dqaj";
/// File-name prefix for journal segments.
const SEGMENT_PREFIX: &str = "segment-";

/// Tunables for a [`Journal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalOptions {
    /// Rotate to a new segment once the current one reaches this size.
    pub max_segment_bytes: u64,
    /// `Some(n)`: `fsync` after every `n` appends (seeded-fsync testing
    /// hooks sit on this knob). `None`: every append still reaches the OS
    /// via `write(2)` — crash-of-process safe — but is not flushed to the
    /// platter.
    pub fsync_every: Option<u32>,
}

impl Default for JournalOptions {
    fn default() -> JournalOptions {
        JournalOptions {
            max_segment_bytes: 1024 * 1024,
            fsync_every: None,
        }
    }
}

/// Errors surfaced by the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// Underlying filesystem error (stringified for `Clone`/`PartialEq`).
    Io(String),
    /// A segment other than the final one is damaged structurally (e.g.
    /// torn short): the journal cannot be trusted.
    Corrupt {
        /// Segment file the damage was found in.
        segment: String,
        /// Byte offset of the damaged frame.
        offset: u64,
        /// Human-readable diagnosis.
        detail: String,
    },
    /// One specific frame is damaged *mid-segment* — a checksum failure,
    /// an impossible declared length, or a tear with checksum-valid
    /// frames still behind it. Distinct from tail truncation: truncating
    /// here would silently drop the valid records after the damage, so
    /// recovery must surface the damaged frame instead.
    CorruptFrame {
        /// Segment file holding the damaged frame.
        segment: String,
        /// Byte offset of the damaged frame.
        offset: u64,
        /// Human-readable diagnosis.
        detail: String,
    },
    /// An append carried a stale (or unknown) term: the writer has been
    /// fenced off by a newer coordinator.
    Fenced {
        /// Term the writer presented.
        attempted: u64,
        /// Term the journal currently requires.
        current: u64,
    },
    /// A record does not fit one frame ([`frame::MAX_PAYLOAD`]); nothing
    /// was written.
    Codec(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(msg) => write!(f, "journal I/O error: {msg}"),
            JournalError::Corrupt {
                segment,
                offset,
                detail,
            } => write!(f, "journal corrupt in {segment} at byte {offset}: {detail}"),
            JournalError::CorruptFrame {
                segment,
                offset,
                detail,
            } => write!(
                f,
                "journal frame corrupt in {segment} at byte {offset}: {detail}"
            ),
            JournalError::Fenced { attempted, current } => write!(
                f,
                "fenced: append with term {attempted} rejected (journal at term {current})"
            ),
            JournalError::Codec(msg) => write!(f, "journal codec error: {msg}"),
        }
    }
}

impl std::error::Error for JournalError {}

fn io_err(err: std::io::Error) -> JournalError {
    JournalError::Io(err.to_string())
}

/// What [`Journal::open`] reconstructed.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovery {
    /// Coordinator state folded from every surviving frame.
    pub state: RecoveredState,
    /// How much work the scan did (replayed-record counter feed).
    pub stats: ReplayStats,
}

/// An open, appendable journal directory.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    opts: JournalOptions,
    file: File,
    segment_index: u64,
    segment_len: u64,
    term: u64,
    appended: u64,
    since_sync: u32,
    /// The frame being appended, header and payload; kept between appends
    /// so a record costs no allocation.
    frame: Vec<u8>,
}

impl Journal {
    /// Open (or create) the journal in `dir` with default options.
    pub fn open(dir: impl AsRef<Path>) -> Result<(Journal, Recovery), JournalError> {
        Journal::open_with(dir, JournalOptions::default())
    }

    /// Open (or create) the journal in `dir`, scanning every segment,
    /// truncating a torn tail on the final one, and returning the
    /// replayed state alongside the appendable journal.
    pub fn open_with(
        dir: impl AsRef<Path>,
        opts: JournalOptions,
    ) -> Result<(Journal, Recovery), JournalError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(io_err)?;
        let segments = list_segments(&dir)?;
        let mut state = RecoveredState::new();
        let mut stats = ReplayStats::default();
        let mut tail_len = 0u64;
        let last = segments.len().checked_sub(1);
        for (i, (index, path)) in segments.iter().enumerate() {
            let is_last = Some(i) == last;
            let end = scan_segment(path, is_last, &mut state, &mut stats)?;
            stats.segments += 1;
            if is_last {
                tail_len = end;
                let _ = index;
            }
        }
        let (segment_index, path) = match segments.last() {
            Some((index, path)) => (*index, path.clone()),
            None => (0, segment_path(&dir, 0)),
        };
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(io_err)?;
        let term = state.term().max(1);
        Ok((
            Journal {
                dir,
                opts,
                file,
                segment_index,
                segment_len: tail_len,
                term,
                appended: 0,
                since_sync: 0,
                frame: Vec::new(),
            },
            Recovery { state, stats },
        ))
    }

    /// The term this journal currently requires of writers.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Records appended through this handle (not counting replayed ones).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Append one record under `term`. Rejects any term other than the
    /// journal's current one with [`JournalError::Fenced`] — the fencing
    /// check a zombie ex-leader fails after a standby promoted itself via
    /// [`Journal::advance_term`].
    pub fn append(&mut self, term: u64, record: &JournalRecord) -> Result<(), JournalError> {
        if term != self.term {
            return Err(JournalError::Fenced {
                attempted: term,
                current: self.term,
            });
        }
        self.frame.clear();
        self.frame.resize(frame::HEADER_LEN, 0);
        encode_payload(&mut self.frame, term, record);
        frame::seal(&mut self.frame).map_err(JournalError::Codec)?;
        self.file.write_all(&self.frame).map_err(io_err)?;
        self.segment_len += self.frame.len() as u64;
        self.appended += 1;
        if let Some(every) = self.opts.fsync_every {
            self.since_sync += 1;
            if self.since_sync >= every {
                self.file.sync_data().map_err(io_err)?;
                self.since_sync = 0;
            }
        }
        if self.segment_len >= self.opts.max_segment_bytes {
            self.rotate()?;
        }
        Ok(())
    }

    /// Raise the journal's term to `new_term` (strictly higher) and
    /// durably record the change. Called by a standby on promotion; every
    /// writer still holding the old term is fenced from here on.
    pub fn advance_term(&mut self, new_term: u64) -> Result<u64, JournalError> {
        if new_term <= self.term {
            return Err(JournalError::Fenced {
                attempted: new_term,
                current: self.term,
            });
        }
        self.term = new_term;
        self.append(new_term, &JournalRecord::TermChange { term: new_term })?;
        Ok(new_term)
    }

    /// Force an `fsync` of the current segment.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        self.file.sync_data().map_err(io_err)?;
        self.since_sync = 0;
        Ok(())
    }

    fn rotate(&mut self) -> Result<(), JournalError> {
        self.file.sync_data().map_err(io_err)?;
        self.segment_index += 1;
        let path = segment_path(&self.dir, self.segment_index);
        self.file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)
            .map_err(io_err)?;
        // Creating the file durably requires syncing its *directory*
        // entry too: `create_new` + `sync_data` on the file alone leaves
        // the name unlinked after a power cut, and replay would then see
        // segment N but not N+1 — an undetectable gap, because a missing
        // final segment looks exactly like a journal that never rotated.
        File::open(&self.dir)
            .and_then(|d| d.sync_all())
            .map_err(io_err)?;
        self.segment_len = 0;
        self.since_sync = 0;
        Ok(())
    }
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("{SEGMENT_PREFIX}{index:06}.{SEGMENT_EXT}"))
}

fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, JournalError> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir).map_err(io_err)? {
        let entry = entry.map_err(io_err)?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name
            .strip_prefix(SEGMENT_PREFIX)
            .and_then(|s| s.strip_suffix(&format!(".{SEGMENT_EXT}")))
        else {
            continue;
        };
        if let Ok(index) = stem.parse::<u64>() {
            segments.push((index, entry.path()));
        }
    }
    segments.sort_by_key(|(index, _)| *index);
    Ok(segments)
}

/// Scan one segment file, folding frames into `state`. Returns the byte
/// offset one past the last valid frame. A torn tail is truncated away
/// when `is_last`, and is corruption otherwise.
fn scan_segment(
    path: &Path,
    is_last: bool,
    state: &mut RecoveredState,
    stats: &mut ReplayStats,
) -> Result<u64, JournalError> {
    let buf = fs::read(path).map_err(io_err)?;
    let segment = path.display().to_string();
    let mut offset = 0u64;
    while (offset as usize) < buf.len() {
        match frame::decode(&buf, offset) {
            Decoded::Frame { payload, next } => {
                let framed = Framed::decode(payload).map_err(|e| JournalError::Corrupt {
                    segment: segment.clone(),
                    offset,
                    detail: format!("checksum-valid frame with undecodable payload: {e}"),
                })?;
                state.apply(&framed);
                stats.records += 1;
                offset = next;
            }
            Decoded::Torn => {
                if !is_last {
                    return Err(JournalError::Corrupt {
                        segment,
                        offset,
                        detail: "torn frame in non-final segment".into(),
                    });
                }
                // A tear is only legal as the *tail*: if a checksum-valid
                // frame still decodes past this point, the "tear" is a
                // damaged frame (e.g. a corrupted length field) and
                // truncating would silently drop the valid records
                // behind it.
                if let Some(later) = valid_frame_after(&buf, offset) {
                    return Err(JournalError::CorruptFrame {
                        segment,
                        offset,
                        detail: format!(
                            "unreadable frame followed by a valid frame at byte {later} — \
                             mid-segment corruption, not a torn tail"
                        ),
                    });
                }
                let torn = buf.len() as u64 - offset;
                let file = OpenOptions::new().write(true).open(path).map_err(io_err)?;
                file.set_len(offset).map_err(io_err)?;
                file.sync_data().map_err(io_err)?;
                stats.truncated_bytes += torn;
                break;
            }
            Decoded::Corrupt(detail) => {
                return Err(JournalError::CorruptFrame {
                    segment,
                    offset,
                    detail,
                });
            }
        }
    }
    Ok(offset)
}

/// Scan forward from a torn read for any checksum-valid frame whose
/// payload decodes as a record: proof the tear is mid-segment damage
/// rather than a crash-truncated tail. A CRC collision on garbage is
/// ~2⁻³², and the record decode pushes accidental matches further still.
fn valid_frame_after(buf: &[u8], torn_at: u64) -> Option<u64> {
    let mut probe = torn_at as usize + 1;
    while probe + frame::HEADER_LEN <= buf.len() {
        if let Decoded::Frame { payload, .. } = frame::decode(buf, probe as u64) {
            if Framed::decode(payload).is_ok() {
                return Some(probe as u64);
            }
        }
        probe += 1;
    }
    None
}

/// Read every complete frame of one segment file with its start offset.
/// Crash harnesses use the offsets to cut a journal at an exact frame
/// boundary ("a crash is a prefix of the log"). A torn tail simply ends
/// the scan; genuine corruption is an error.
pub fn read_segment(path: impl AsRef<Path>) -> Result<Vec<(u64, Framed)>, JournalError> {
    let path = path.as_ref();
    let buf = fs::read(path).map_err(io_err)?;
    let segment = path.display().to_string();
    let mut frames = Vec::new();
    let mut offset = 0u64;
    while (offset as usize) < buf.len() {
        match frame::decode(&buf, offset) {
            Decoded::Frame { payload, next } => {
                let framed = Framed::decode(payload).map_err(|e| JournalError::Corrupt {
                    segment: segment.clone(),
                    offset,
                    detail: e.to_string(),
                })?;
                frames.push((offset, framed));
                offset = next;
            }
            Decoded::Torn => break,
            Decoded::Corrupt(detail) => {
                return Err(JournalError::CorruptFrame {
                    segment,
                    offset,
                    detail,
                });
            }
        }
    }
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SchedulingPoint;
    use qa_types::{Question, QuestionId};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dqa-journal-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn admit(id: u32) -> JournalRecord {
        JournalRecord::Admitted {
            question: Question::new(QuestionId::new(id), format!("question {id}")),
        }
    }

    #[test]
    fn append_then_open_replays_everything() {
        let dir = tmp("roundtrip");
        {
            let (mut j, rec) = Journal::open(&dir).unwrap();
            assert!(rec.state.is_empty());
            j.append(1, &admit(1)).unwrap();
            j.append(
                1,
                &JournalRecord::Scheduled {
                    question: QuestionId::new(1),
                    point: SchedulingPoint::Qa,
                    nodes: vec![3],
                },
            )
            .unwrap();
            assert_eq!(j.appended(), 2);
        }
        let (j, rec) = Journal::open(&dir).unwrap();
        assert_eq!(rec.stats.records, 2);
        assert_eq!(rec.stats.truncated_bytes, 0);
        assert_eq!(rec.state.gate_occupancy(), 1);
        let q = rec.state.get(QuestionId::new(1)).unwrap();
        assert_eq!(q.home(), Some(3));
        assert_eq!(j.term(), 1);
    }

    #[test]
    fn rotation_splits_segments_and_open_reads_across_them() {
        let dir = tmp("rotate");
        let opts = JournalOptions {
            max_segment_bytes: 256,
            fsync_every: Some(1),
        };
        {
            let (mut j, _) = Journal::open_with(&dir, opts).unwrap();
            for i in 0..20 {
                j.append(1, &admit(i)).unwrap();
            }
        }
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() > 1, "expected rotation, got {segments:?}");
        let (_, rec) = Journal::open_with(&dir, opts).unwrap();
        assert_eq!(rec.stats.records, 20);
        assert_eq!(rec.stats.segments as usize, segments.len());
        assert_eq!(rec.state.gate_occupancy(), 20);
    }

    #[test]
    fn stale_term_is_fenced() {
        let dir = tmp("fence");
        let (mut j, _) = Journal::open(&dir).unwrap();
        j.append(1, &admit(1)).unwrap();
        j.advance_term(2).unwrap();
        let err = j.append(1, &admit(2)).unwrap_err();
        assert_eq!(
            err,
            JournalError::Fenced {
                attempted: 1,
                current: 2
            }
        );
        // Term can only move forward.
        assert!(j.advance_term(2).is_err());
        // The fenced append left no trace.
        let (_, rec) = Journal::open(&dir).unwrap();
        assert_eq!(rec.state.gate_occupancy(), 1);
        assert_eq!(rec.state.term(), 2);
    }

    #[test]
    fn torn_tail_is_truncated_dropping_only_last_record() {
        let dir = tmp("torn");
        {
            let (mut j, _) = Journal::open(&dir).unwrap();
            for i in 0..3 {
                j.append(1, &admit(i)).unwrap();
            }
        }
        let path = segment_path(&dir, 0);
        let full = fs::read(&path).unwrap();
        let frames = read_segment(&path).unwrap();
        assert_eq!(frames.len(), 3);
        let last_start = frames[2].0;
        // Cut mid-way through the last frame.
        let cut = last_start + (full.len() as u64 - last_start) / 2;
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(cut)
            .unwrap();
        let (_, rec) = Journal::open(&dir).unwrap();
        assert_eq!(rec.stats.records, 2, "torn record dropped, rest kept");
        assert_eq!(rec.stats.truncated_bytes, cut - last_start);
        assert_eq!(fs::metadata(&path).unwrap().len(), last_start);
    }

    #[test]
    fn corruption_in_non_final_segment_is_an_error() {
        let dir = tmp("midcorrupt");
        let opts = JournalOptions {
            max_segment_bytes: 128,
            fsync_every: None,
        };
        {
            let (mut j, _) = Journal::open_with(&dir, opts).unwrap();
            for i in 0..10 {
                j.append(1, &admit(i)).unwrap();
            }
        }
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() > 1);
        // Flip a payload byte in the first segment.
        let first = &segments[0].1;
        let mut bytes = fs::read(first).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(first, &bytes).unwrap();
        match Journal::open_with(&dir, opts) {
            Err(JournalError::CorruptFrame { .. }) => {}
            other => panic!("expected CorruptFrame, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_length_field_does_not_masquerade_as_torn_tail() {
        let dir = tmp("lenflip");
        {
            let (mut j, _) = Journal::open(&dir).unwrap();
            for i in 0..3 {
                j.append(1, &admit(i)).unwrap();
            }
        }
        let path = segment_path(&dir, 0);
        let clean = fs::read(&path).unwrap();
        // Overwrite frame 0's length prefix with a value that is within
        // MAX_PAYLOAD but runs past the end of the file: a naive scan
        // reads this as a torn tail at byte 0 and would truncate away
        // every valid frame behind it.
        let mut bytes = clean.clone();
        bytes[..4].copy_from_slice(&0xFFFFu32.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        match Journal::open(&dir) {
            Err(JournalError::CorruptFrame { offset, detail, .. }) => {
                assert_eq!(offset, 0);
                assert!(detail.contains("not a torn tail"), "{detail}");
            }
            other => panic!("expected CorruptFrame, got {other:?}"),
        }
        // Crucially, recovery refused rather than destroyed: the file
        // still holds every byte, so a repair tool can salvage frames
        // 1 and 2.
        assert_eq!(fs::metadata(&path).unwrap().len(), bytes.len() as u64);
    }

    #[test]
    fn checksum_failure_mid_final_segment_is_corrupt_frame() {
        let dir = tmp("crcflip");
        {
            let (mut j, _) = Journal::open(&dir).unwrap();
            for i in 0..3 {
                j.append(1, &admit(i)).unwrap();
            }
        }
        let path = segment_path(&dir, 0);
        let frames = read_segment(&path).unwrap();
        let second_start = frames[1].0;
        let mut bytes = fs::read(&path).unwrap();
        // Flip one payload byte of the *middle* frame: checksum fails
        // there while a checksum-valid frame still follows.
        bytes[second_start as usize + frame::HEADER_LEN] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        match Journal::open(&dir) {
            Err(JournalError::CorruptFrame { offset, .. }) => {
                assert_eq!(offset, second_start);
            }
            other => panic!("expected CorruptFrame, got {other:?}"),
        }
    }

    /// One format, replaced: a segment holding a checksum-valid frame of
    /// the `serde_json` codec this crate used to write is corrupt — never
    /// skipped, never cut off as a torn tail, never folded as something
    /// else — wherever in the segment the frame sits.
    #[test]
    fn a_frame_of_the_retired_json_codec_is_refused_loudly() {
        let json = frame::encode(
            br#"{"term":3,"record":{"Scheduled":{"question":7,"point":"Pr","nodes":[0,3]}}}"#,
        );
        let binary = |id| {
            frame::encode(
                &Framed {
                    term: 1,
                    record: admit(id),
                }
                .encode(),
            )
        };
        let images = [
            (0, json.clone()),
            (binary(1).len(), [binary(1), json.clone()].concat()),
            (binary(1).len(), [binary(1), json, binary(2)].concat()),
        ];
        for (i, (json_at, image)) in images.into_iter().enumerate() {
            let dir = tmp(&format!("json-{i}"));
            fs::create_dir_all(&dir).unwrap();
            let path = segment_path(&dir, 0);
            fs::write(&path, &image).unwrap();
            for result in [
                Journal::open(&dir).map(|_| ()),
                read_segment(&path).map(|_| ()),
            ] {
                match result {
                    Err(JournalError::Corrupt {
                        segment,
                        offset,
                        detail,
                    }) => {
                        assert!(segment.ends_with("segment-000000.dqaj"), "{segment}");
                        assert_eq!(offset, json_at as u64, "image {i}");
                        assert!(detail.contains("unknown record kind"), "{detail}");
                    }
                    other => panic!("image {i}: expected Corrupt, got {other:?}"),
                }
            }
            assert_eq!(fs::read(&path).unwrap(), image, "refused, not repaired");
        }
    }

    #[test]
    fn reopen_resumes_appends_at_recovered_term() {
        let dir = tmp("reopen");
        {
            let (mut j, _) = Journal::open(&dir).unwrap();
            j.append(1, &admit(1)).unwrap();
            j.advance_term(5).unwrap();
        }
        let (mut j, rec) = Journal::open(&dir).unwrap();
        assert_eq!(rec.state.term(), 5);
        assert_eq!(j.term(), 5);
        j.append(5, &admit(2)).unwrap();
        assert!(matches!(
            j.append(4, &admit(3)),
            Err(JournalError::Fenced { .. })
        ));
    }
}
