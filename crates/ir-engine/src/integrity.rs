//! Self-verifying index segments: the versioned `DQAIDX3` format.
//!
//! The paper's nodes keep pre-built sub-collection indexes on local disk;
//! this codec is the equivalent, so examples can build once and reload.
//! Without checksums a single flipped bit in a persisted index silently
//! changes answers, so `DQAIDX3` — the only segment format — wraps the
//! postings payload in two CRC layers and corruption is *detected*,
//! attributed and recoverable:
//!
//! * a **self-checksummed directory** up front (`sub id`, body length,
//!   body CRC per shard, the directory itself CRC-protected), so a
//!   damaged shard can be identified and skipped without trusting any
//!   byte of its body;
//! * a **per-shard body CRC** catching any corruption in a shard; and
//! * **per-term-block CRCs** inside the body, so a background scrubber
//!   can spot-check a bounded sample of blocks without re-hashing whole
//!   shards, and a detected fault is attributed to a block.
//!
//! Layout (fixed-width integers little-endian; `bytes` is a `u32` length
//! and that many bytes; `list` is the gap + varint codec of
//! [`crate::postings`]; `var` is one of its LEB128 varints):
//!
//! ```text
//! magic "DQAIDX3\0"
//! u32   n_shards
//! n_shards × { u32 sub_id, u32 body_len, u32 body_crc }
//! u32   dir_crc          — CRC-32 of every byte above
//! n_shards shard bodies, back to back, each exactly body_len bytes:
//!   u64 term_occurrences
//!   u32 doc_count
//!   bytes doc_ids        — list of doc_count document ids, increasing
//!   bytes doc_units      — list of doc_count running totals of text units:
//!                          its gaps are the units (title + paragraphs) of
//!                          each document, its last entry the unit count,
//!                          at most MAX_SHARD_UNITS (2^24: the builder
//!                          stops there, a reader refuses more unsized)
//!   u32 n_blocks
//!   n_blocks × { u32 block_len, u32 block_crc, block body }
//!     block body: u32 n_terms · n_terms ×
//!       { var term_len, term, var n_units, var enc_len, enc }
//!       enc — list of the n_units text units holding the term, each
//!             below the shard's unit count
//! ```
//!
//! Terms are sorted across a shard's blocks, [`TERM_BLOCK`] to a block.
//! A posting names a text unit, so there is no document-level list to
//! store: a document holds a term when one of its units does. An image
//! written under the retired `DQAIDX1` or `DQAIDX2` magic fails the magic
//! check; there is one reader.
//!
//! Three readers cover the three consumers: [`decode_index_v2`] verifies
//! everything and fails on the first damaged byte (strict load);
//! [`decode_index_quarantining`] returns the intact shards plus a
//! quarantine report for the damaged ones (the runtime's
//! detect→degrade→repair path); [`decode_index_auto`] is the strict load
//! with the workspace's `QaError`. [`verify_index_v2`] and
//! [`verify_sampled`] check without decoding (full scrub / paced
//! spot-check). The CRC-32 is [`qa_types::crc32`], the one the journal's
//! frames use.

use crate::index::{ShardedIndex, SubIndex, TermTable, MAX_SHARD_UNITS};
use crate::persist::varint;
use crate::postings::{write_varint, PostingsList};
pub use qa_types::crc32;
use qa_types::rng::mix;
use qa_types::wire::{put_bytes, put_u32, put_u64, Reader};
use qa_types::{DocId, QaError, SubCollectionId};

/// Magic header of the checksummed format. The digit moves with the body
/// layout, so an image from an older binary is refused here and never
/// misread: `DQAIDX2` held document-granular lists behind fixed-width term
/// headers.
pub const MAGIC_V2: &[u8; 8] = b"DQAIDX3\0";
/// Terms per CRC-protected block. Small enough that a sampled check
/// touches little data, large enough that block headers stay cheap.
pub const TERM_BLOCK: usize = 64;
const DIR_ENTRY_BYTES: usize = 12;

/// Why an index segment (or part of one) failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntegrityError {
    /// The envelope is structurally unreadable (bad magic, truncation,
    /// absurd counts). Nothing inside can be trusted.
    Format(String),
    /// The shard directory's own checksum failed: shard identity and
    /// boundaries cannot be trusted, so the whole segment is suspect.
    DirectoryChecksum,
    /// A shard body's checksum failed.
    ShardChecksum {
        /// The damaged sub-collection.
        sub: u32,
    },
    /// A term block's checksum failed inside an otherwise-readable shard.
    BlockChecksum {
        /// The sub-collection holding the block.
        sub: u32,
        /// Zero-based block index within the shard.
        block: u32,
    },
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntegrityError::Format(s) => write!(f, "integrity: {s}"),
            IntegrityError::DirectoryChecksum => write!(f, "integrity: directory checksum failed"),
            IntegrityError::ShardChecksum { sub } => {
                write!(f, "integrity: checksum failed for sub-collection {sub}")
            }
            IntegrityError::BlockChecksum { sub, block } => write!(
                f,
                "integrity: checksum failed for sub-collection {sub} term block {block}"
            ),
        }
    }
}

impl std::error::Error for IntegrityError {}

impl From<IntegrityError> for QaError {
    fn from(e: IntegrityError) -> QaError {
        QaError::Codec(e.to_string())
    }
}

/// One shard the quarantining reader refused to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantine {
    /// The damaged sub-collection (from the verified directory).
    pub sub: u32,
    /// What failed.
    pub error: IntegrityError,
}

/// Result of a quarantining load: every intact shard, plus the report of
/// what was refused — never a silently smaller index.
#[derive(Debug, Clone)]
pub struct VerifiedIndex {
    /// The shards that passed every checksum.
    pub index: ShardedIndex,
    /// The shards that did not, with the failure attributed.
    pub quarantined: Vec<Quarantine>,
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Serialize a sharded index in the checksummed `DQAIDX3` format.
/// Deterministic: the same index always yields the same bytes.
pub fn encode_index_v2(index: &ShardedIndex) -> Vec<u8> {
    let bodies: Vec<Vec<u8>> = index.shards().map(encode_shard_body).collect();
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC_V2);
    put_u32(&mut out, index.shard_count() as u32);
    for (shard, body) in index.shards().zip(&bodies) {
        put_u32(&mut out, shard.id.raw());
        put_u32(&mut out, body.len() as u32);
        put_u32(&mut out, crc32(body));
    }
    let dir_crc = crc32(&out);
    put_u32(&mut out, dir_crc);
    for body in &bodies {
        out.extend_from_slice(body);
    }
    out
}

fn encode_shard_body(shard: &SubIndex) -> Vec<u8> {
    let mut body = Vec::new();
    put_u64(&mut body, shard.term_occurrences());
    put_u32(&mut body, shard.doc_count() as u32);
    let doc_ids: Vec<u32> = shard.doc_ids().iter().map(|d| d.raw()).collect();
    put_bytes(&mut body, PostingsList::from_sorted(&doc_ids).encoded());
    put_bytes(
        &mut body,
        PostingsList::from_sorted(&shard.doc_start()[1..]).encoded(),
    );
    let mut terms: Vec<(&str, &PostingsList)> = shard.terms_iter().collect();
    terms.sort_by_key(|(t, _)| *t);
    let blocks: Vec<&[(&str, &PostingsList)]> = terms.chunks(TERM_BLOCK).collect();
    put_u32(&mut body, blocks.len() as u32);
    let mut blk = Vec::new();
    for block in blocks {
        blk.clear();
        put_u32(&mut blk, block.len() as u32);
        for (term, postings) in block {
            write_varint(&mut blk, term.len() as u32);
            blk.extend_from_slice(term.as_bytes());
            write_varint(&mut blk, postings.len() as u32);
            write_varint(&mut blk, postings.compressed_bytes() as u32);
            blk.extend_from_slice(postings.encoded());
        }
        put_u32(&mut body, blk.len() as u32);
        put_u32(&mut body, crc32(&blk));
        body.extend_from_slice(&blk);
    }
    body
}

// ---------------------------------------------------------------------
// The verified directory
// ---------------------------------------------------------------------

struct DirEntry {
    sub: u32,
    len: usize,
    crc: u32,
    /// Byte offset of the body within the segment.
    offset: usize,
}

/// Parse and CRC-verify the envelope; returns the directory. Everything
/// past this point can attribute damage to a sub-collection.
fn read_directory(data: &[u8]) -> Result<Vec<DirEntry>, IntegrityError> {
    let fmt = |s: &str| IntegrityError::Format(s.into());
    if data.len() < MAGIC_V2.len() + 4 {
        return Err(fmt("truncated header"));
    }
    if &data[..8] != MAGIC_V2 {
        return Err(fmt("bad magic"));
    }
    let n_shards = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes")) as usize;
    if n_shards > 1 << 16 {
        return Err(fmt("absurd shard count"));
    }
    let dir_end = 12 + n_shards * DIR_ENTRY_BYTES;
    if data.len() < dir_end + 4 {
        return Err(fmt("truncated directory"));
    }
    let stored = u32::from_le_bytes(data[dir_end..dir_end + 4].try_into().expect("4 bytes"));
    if crc32(&data[..dir_end]) != stored {
        return Err(IntegrityError::DirectoryChecksum);
    }
    let mut entries = Vec::with_capacity(n_shards);
    let mut offset = dir_end + 4;
    for i in 0..n_shards {
        let at = 12 + i * DIR_ENTRY_BYTES;
        let word = |j: usize| {
            u32::from_le_bytes(
                data[at + 4 * j..at + 4 * j + 4]
                    .try_into()
                    .expect("4 bytes"),
            )
        };
        let len = word(1) as usize;
        entries.push(DirEntry {
            sub: word(0),
            len,
            crc: word(2),
            offset,
        });
        offset += len;
    }
    Ok(entries)
}

fn shard_bytes<'a>(data: &'a [u8], e: &DirEntry) -> Result<&'a [u8], IntegrityError> {
    data.get(e.offset..e.offset + e.len)
        .ok_or(IntegrityError::ShardChecksum { sub: e.sub })
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Strict verified decode of a `DQAIDX3` segment: every directory, shard
/// and block checksum is validated; the first failure is an error naming
/// the damaged sub-collection (and block where applicable).
pub fn decode_index_v2(data: &[u8]) -> Result<ShardedIndex, IntegrityError> {
    let entries = read_directory(data)?;
    let mut shards = Vec::with_capacity(entries.len());
    let mut end = 12 + entries.len() * DIR_ENTRY_BYTES + 4;
    for e in &entries {
        let body = shard_bytes(data, e)?;
        if crc32(body) != e.crc {
            return Err(IntegrityError::ShardChecksum { sub: e.sub });
        }
        shards.push(decode_shard_body(e.sub, body)?);
        end = e.offset + e.len;
    }
    if end != data.len() {
        return Err(IntegrityError::Format("trailing bytes".into()));
    }
    Ok(ShardedIndex::from_shards(shards))
}

/// Quarantining decode: intact shards load, damaged shards are skipped
/// and reported. Only envelope damage (unreadable or checksum-failing
/// directory) is fatal — there the shard boundaries themselves cannot be
/// trusted.
pub fn decode_index_quarantining(data: &[u8]) -> Result<VerifiedIndex, IntegrityError> {
    let entries = read_directory(data)?;
    let mut shards = Vec::new();
    let mut quarantined = Vec::new();
    for e in &entries {
        let verdict = shard_bytes(data, e).and_then(|body| {
            if crc32(body) != e.crc {
                return Err(IntegrityError::ShardChecksum { sub: e.sub });
            }
            decode_shard_body(e.sub, body)
        });
        match verdict {
            Ok(shard) => shards.push(shard),
            Err(error) => quarantined.push(Quarantine { sub: e.sub, error }),
        }
    }
    Ok(VerifiedIndex {
        index: ShardedIndex::from_shards(shards),
        quarantined,
    })
}

/// The verifying reader for untrusted segment bytes: [`decode_index_v2`]
/// with the error folded into [`QaError::Codec`]. Any other magic —
/// including the retired `DQAIDX1` and `DQAIDX2` — is rejected.
pub fn decode_index_auto(data: &[u8]) -> Result<ShardedIndex, QaError> {
    decode_index_v2(data).map_err(QaError::from)
}

fn decode_shard_body(sub: u32, body: &[u8]) -> Result<SubIndex, IntegrityError> {
    let fmt = |s: String| IntegrityError::Format(format!("sub-collection {sub}: {s}"));
    let qerr = |e: QaError| {
        fmt(match e {
            QaError::Codec(s) => s,
            other => other.to_string(),
        })
    };
    let mut r = Reader::new(body);
    let term_occurrences = r.u64().map_err(qerr)?;
    let doc_count = r.u32().map_err(qerr)?;
    // Each list is walked entry by entry before anything is sized by it.
    let doc_ids = PostingsList::from_encoded(r.bytes().map_err(qerr)?, doc_count, 1 << 32)
        .map_err(|e| fmt(format!("doc id list: {e}")))?;
    // Its last entry sizes the unit → document table.
    let most_units = u64::from(MAX_SHARD_UNITS) + 1;
    let doc_units = PostingsList::from_encoded(r.bytes().map_err(qerr)?, doc_count, most_units)
        .map_err(|e| fmt(format!("units-per-document list: {e}")))?;
    let doc_ids: Vec<DocId> = doc_ids.iter().map(DocId::new).collect();
    let doc_start: Vec<u32> = std::iter::once(0).chain(&doc_units).collect();
    let unit_count = doc_start[doc_start.len() - 1];
    let n_blocks = r.u32().map_err(qerr)? as usize;
    // A block spends at least 8 bytes on its length and CRC words.
    if n_blocks > r.remaining() / 8 {
        return Err(fmt("absurd block count".into()));
    }
    let mut postings = TermTable::default();
    for block_idx in 0..n_blocks {
        let block_len = r.u32().map_err(qerr)? as usize;
        let block_crc = r.u32().map_err(qerr)?;
        let blk = r.take(block_len).map_err(qerr)?;
        if crc32(blk) != block_crc {
            return Err(IntegrityError::BlockChecksum {
                sub,
                block: block_idx as u32,
            });
        }
        decode_term_block(blk, unit_count, &mut postings).map_err(qerr)?;
    }
    if r.remaining() != 0 {
        return Err(fmt("trailing bytes in shard body".into()));
    }
    Ok(SubIndex::from_parts(
        SubCollectionId::new(sub),
        postings,
        doc_ids,
        doc_start,
        term_occurrences,
    ))
}

fn decode_term_block(blk: &[u8], unit_count: u32, postings: &mut TermTable) -> Result<(), QaError> {
    let mut r = Reader::new(blk);
    let n_terms = r.u32()? as usize;
    // A term spends at least its three one-byte header varints.
    if n_terms > TERM_BLOCK || n_terms > r.remaining() / 3 {
        return Err(QaError::Codec("absurd term count in block".into()));
    }
    for _ in 0..n_terms {
        let term_len = varint(&mut r)? as usize;
        let term = std::str::from_utf8(r.take(term_len)?)
            .map_err(|_| QaError::Codec("term not utf-8".into()))?
            .to_string();
        let n_units = varint(&mut r)?;
        let enc_len = varint(&mut r)? as usize;
        let list = PostingsList::from_encoded(r.take(enc_len)?, n_units, u64::from(unit_count))
            .map_err(|e| QaError::Codec(format!("postings for {term}: {e}")))?;
        postings.insert(term, list);
    }
    if r.remaining() != 0 {
        return Err(QaError::Codec("trailing bytes in term block".into()));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Verification without decoding (scrubber paths)
// ---------------------------------------------------------------------

/// Byte regions of each shard body in directory order, as
/// `(sub, offset, len)`. The directory is CRC-verified first, so the
/// regions can be trusted even when the bodies cannot — this is what
/// lets a segment store corrupt, verify and splice-repair individual
/// shards without decoding anything.
pub fn shard_regions(data: &[u8]) -> Result<Vec<(u32, usize, usize)>, IntegrityError> {
    Ok(read_directory(data)?
        .iter()
        .map(|e| (e.sub, e.offset, e.len))
        .collect())
}

/// Fully verify one sub-collection's body: its shard CRC and every term
/// block CRC. The scrubber's per-shard pass — paced one shard at a time
/// so verification never monopolizes a node.
pub fn verify_shard(data: &[u8], sub: u32) -> Result<(), IntegrityError> {
    let entries = read_directory(data)?;
    let e = entries
        .iter()
        .find(|e| e.sub == sub)
        .ok_or_else(|| IntegrityError::Format(format!("unknown sub-collection {sub}")))?;
    let body = shard_bytes(data, e)?;
    if crc32(body) != e.crc {
        return Err(IntegrityError::ShardChecksum { sub: e.sub });
    }
    verify_blocks(e.sub, body, None)
}

/// Spot-check one sub-collection: structural validation plus a seeded
/// sample of up to `max_blocks` term blocks (same draw discipline as
/// [`verify_sampled`]). The question-path read check.
pub fn verify_shard_sampled(
    data: &[u8],
    sub: u32,
    seed: u64,
    max_blocks: usize,
) -> Result<(), IntegrityError> {
    let entries = read_directory(data)?;
    let e = entries
        .iter()
        .find(|e| e.sub == sub)
        .ok_or_else(|| IntegrityError::Format(format!("unknown sub-collection {sub}")))?;
    let body = shard_bytes(data, e)?;
    verify_blocks(e.sub, body, Some((seed, max_blocks)))
}

/// Fully verify a `DQAIDX3` segment without building the index: the
/// directory, every shard CRC and every block CRC. This is the
/// scrubber's deep pass; it allocates nothing proportional to the index.
pub fn verify_index_v2(data: &[u8]) -> Result<(), IntegrityError> {
    let entries = read_directory(data)?;
    for e in &entries {
        let body = shard_bytes(data, e)?;
        if crc32(body) != e.crc {
            return Err(IntegrityError::ShardChecksum { sub: e.sub });
        }
        verify_blocks(e.sub, body, None)?;
    }
    Ok(())
}

/// Spot-check: verify the directory, every shard's *structure*, and a
/// seeded sample of up to `max_blocks` term blocks per shard (chosen by
/// splitmix64 over `(seed, sub, draw)`, so replays sample identically).
/// Cheaper than [`verify_index_v2`] on large shards; a corruption in an
/// unsampled block is caught by a later pass with a different seed or by
/// the full shard CRC during the next deep scrub.
pub fn verify_sampled(data: &[u8], seed: u64, max_blocks: usize) -> Result<(), IntegrityError> {
    let entries = read_directory(data)?;
    for e in &entries {
        let body = shard_bytes(data, e)?;
        verify_blocks(e.sub, body, Some((seed, max_blocks)))?;
    }
    Ok(())
}

/// Walk a shard body's block table. With `sample = None` every block CRC
/// is checked; with `Some((seed, max))` only a seeded sample is hashed
/// (structure is always validated).
fn verify_blocks(
    sub: u32,
    body: &[u8],
    sample: Option<(u64, usize)>,
) -> Result<(), IntegrityError> {
    let fmt = |s: &str| IntegrityError::Format(format!("sub-collection {sub}: {s}"));
    let qfmt = |_: QaError| fmt("truncated shard body");
    let mut r = Reader::new(body);
    r.u64().map_err(qfmt)?; // term occurrences
    let doc_count = r.u32().map_err(qfmt)? as usize;
    // A document spends at least a byte in each of its two lists.
    let (doc_ids, doc_units) = (r.bytes().map_err(qfmt)?, r.bytes().map_err(qfmt)?);
    if doc_count > doc_ids.len().min(doc_units.len()) {
        return Err(fmt("absurd document count"));
    }
    let n_blocks = r.u32().map_err(qfmt)? as usize;
    if n_blocks > r.remaining() / 8 {
        return Err(fmt("absurd block count"));
    }
    let checked: Option<Vec<bool>> = sample.map(|(seed, max)| {
        if max >= n_blocks {
            // Budget covers the shard: degenerate to the full check.
            return vec![true; n_blocks];
        }
        // Seeded draws with replacement: distinct passes (different
        // seeds) sample different blocks, one pass is bit-replayable.
        let mut pick = vec![false; n_blocks];
        for draw in 0..max {
            let b = (mix(seed, u64::from(sub), draw as u64) % n_blocks as u64) as usize;
            pick[b] = true;
        }
        pick
    });
    for block_idx in 0..n_blocks {
        let block_len = r.u32().map_err(qfmt)? as usize;
        let block_crc = r.u32().map_err(qfmt)?;
        let blk = r.take(block_len).map_err(qfmt)?;
        let check = checked.as_ref().is_none_or(|picks| picks[block_idx]);
        if check && crc32(blk) != block_crc {
            return Err(IntegrityError::BlockChecksum {
                sub,
                block: block_idx as u32,
            });
        }
    }
    if r.remaining() != 0 {
        return Err(fmt("trailing bytes in shard body"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::{Corpus, CorpusConfig};

    fn index() -> ShardedIndex {
        let c = Corpus::generate(CorpusConfig::small(66)).unwrap();
        ShardedIndex::build(&c.documents, c.config.sub_collections)
    }

    #[test]
    fn crc32_check_value() {
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn v2_round_trip() {
        let idx = index();
        let bytes = encode_index_v2(&idx);
        let back = decode_index_v2(&bytes).unwrap();
        assert_eq!(back.shard_count(), idx.shard_count());
        assert_eq!(back.doc_count(), idx.doc_count());
        for (a, b) in idx.shards().zip(back.shards()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn v2_encoding_is_deterministic() {
        let idx = index();
        assert_eq!(encode_index_v2(&idx), encode_index_v2(&idx));
    }

    #[test]
    fn auto_reader_is_the_strict_reader_and_rejects_the_retired_v1_magic() {
        let idx = index();
        let v3 = encode_index_v2(&idx);
        assert_eq!(decode_index_auto(&v3).unwrap(), idx);
        for retired in [b"DQAIDX1\0", b"DQAIDX2\0"] {
            let mut old = v3.clone();
            old[..8].copy_from_slice(retired);
            for bytes in [&old[..], &old[..8], &old[..12], b""] {
                let err = decode_index_auto(bytes).unwrap_err();
                assert!(matches!(err, QaError::Codec(_)), "{err:?}");
            }
            let err = decode_index_v2(&old).unwrap_err();
            assert_eq!(err, IntegrityError::Format("bad magic".into()));
        }
    }

    /// A one-shard segment around `body`, every checksum valid, so the
    /// structural guards behind the CRC layers are what gets exercised.
    fn segment_around(body: &[u8]) -> Vec<u8> {
        let mut out = MAGIC_V2.to_vec();
        put_u32(&mut out, 1);
        put_u32(&mut out, 0); // sub-collection id
        put_u32(&mut out, body.len() as u32);
        put_u32(&mut out, crc32(body));
        let dir_crc = crc32(&out);
        put_u32(&mut out, dir_crc);
        out.extend_from_slice(body);
        out
    }

    #[test]
    fn rejects_absurd_counts_before_allocating() {
        let rejected = |body: &[u8], what: &str| {
            let err = decode_index_v2(&segment_around(body)).unwrap_err();
            assert!(
                matches!(err, IntegrityError::Format(ref s) if s.contains(what)),
                "{what}: {err:?}"
            );
        };
        let list = |entries: &[u32]| PostingsList::from_sorted(entries).encoded().to_vec();
        // term occurrences · doc count · doc ids · units per document,
        // then whatever `rest` appends (block count, blocks)
        let shard = |doc_count: u32, doc_ids: &[u8], doc_units: &[u8], rest: &[u8]| {
            let mut body = Vec::new();
            put_u64(&mut body, 0);
            put_u32(&mut body, doc_count);
            put_bytes(&mut body, doc_ids);
            put_bytes(&mut body, doc_units);
            body.extend_from_slice(rest);
            body
        };
        let no_blocks = 0u32.to_le_bytes();
        // The rows below differ from this one, which loads.
        let two_docs = shard(2, &list(&[4, 9]), &list(&[3, 5]), &no_blocks);
        assert_eq!(
            decode_index_v2(&segment_around(&two_docs))
                .unwrap()
                .shards()
                .next()
                .unwrap()
                .doc_start(),
            [0, 3, 5]
        );

        // giant doc count, zero payload bytes
        rejected(
            &shard(u32::MAX, b"", b"", &no_blocks),
            "doc id list: absurd entry count",
        );
        // units-per-document: one entry short of, and one past, the doc count
        rejected(
            &shard(2, &list(&[4, 9]), &list(&[3]), &no_blocks),
            "units-per-document list: absurd entry count",
        );
        rejected(
            &shard(2, &list(&[4, 9]), &list(&[3, 5, 6]), &no_blocks),
            "units-per-document list: trailing bytes",
        );
        // a unit total past `u32::MAX`
        let mut overflowing = Vec::new();
        write_varint(&mut overflowing, u32::MAX);
        write_varint(&mut overflowing, 1);
        rejected(
            &shard(2, &list(&[4, 9]), &overflowing, &no_blocks),
            "units-per-document list: entry out of range",
        );
        // a unit total past the builder's bound: 34 bytes of body behind
        // valid checksums that used to size a 16 GiB unit → document table
        for total in [MAX_SHARD_UNITS + 1, 0xFFFF_FFFE] {
            rejected(
                &shard(1, &list(&[0]), &list(&[total]), &no_blocks),
                "units-per-document list: entry out of range",
            );
        }
        // block count no input could hold
        rejected(
            &shard(0, b"", b"", &u32::MAX.to_le_bytes()),
            "absurd block count",
        );

        let in_one_block = |blk: &[u8]| {
            let mut rest = 1u32.to_le_bytes().to_vec();
            put_u32(&mut rest, blk.len() as u32);
            put_u32(&mut rest, crc32(blk));
            rest.extend_from_slice(blk);
            shard(2, &list(&[4, 9]), &list(&[3, 5]), &rest)
        };
        // n_terms · { var term_len, term, var n_units, var enc_len, enc }
        let one_term = |n_units: u32, enc: &[u8]| {
            let mut blk = 1u32.to_le_bytes().to_vec();
            blk.extend_from_slice(b"\x03dog");
            write_varint(&mut blk, n_units);
            write_varint(&mut blk, enc.len() as u32);
            blk.extend_from_slice(enc);
            in_one_block(&blk)
        };
        decode_index_v2(&segment_around(&one_term(2, &list(&[1, 4])))).unwrap();
        // a unit the shard does not have (it has 0..5)
        rejected(&one_term(2, &list(&[1, 5])), "dog: entry out of range");
        // postings count, zero encoded bytes
        rejected(&one_term(u32::MAX, b""), "dog: absurd entry count");
        // A term costs three header bytes at least: 64 terms claimed, room
        // for 63 (and a count past the block size is absurd whatever the room).
        let claim = |n_terms: u32, room: usize| {
            let mut blk = n_terms.to_le_bytes().to_vec();
            blk.resize(4 + room, 0);
            in_one_block(&blk)
        };
        rejected(&claim(u32::MAX, 0), "absurd term count");
        rejected(&claim(TERM_BLOCK as u32 + 1, 1 << 12), "absurd term count");
        rejected(
            &claim(TERM_BLOCK as u32, 3 * TERM_BLOCK - 1),
            "absurd term count",
        );
    }

    #[test]
    fn empty_index_round_trips() {
        let bytes = encode_index_v2(&ShardedIndex::build(&[], 0));
        assert_eq!(decode_index_v2(&bytes).unwrap().shard_count(), 0);
        verify_index_v2(&bytes).unwrap();
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        // Small corpus so the exhaustive sweep stays fast.
        let c = Corpus::generate(CorpusConfig::small(7)).unwrap();
        let idx = ShardedIndex::build(&c.documents[..6.min(c.documents.len())], 2);
        let clean = encode_index_v2(&idx);
        let baseline = decode_index_v2(&clean).unwrap();
        for pos in 0..clean.len() {
            for bit in [0u8, 3, 7] {
                let mut bytes = clean.clone();
                bytes[pos] ^= 1 << bit;
                match decode_index_v2(&bytes) {
                    Err(_) => {}
                    Ok(decoded) => {
                        // A flip the strict reader accepts must decode to
                        // the identical index (e.g. it landed in a length
                        // field in a way the CRC caught — impossible — or
                        // the flip was reverted; in practice this arm
                        // should never run, and if it does the result
                        // must not be silently different).
                        for (a, b) in baseline.shards().zip(decoded.shards()) {
                            assert_eq!(a, b, "silent corruption at byte {pos} bit {bit}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn torn_write_is_detected_at_every_cut() {
        let bytes = encode_index_v2(&index());
        for cut in [0, 7, 11, bytes.len() / 3, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_index_v2(&bytes[..cut]).is_err(),
                "cut at {cut} accepted"
            );
            assert!(verify_index_v2(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn quarantining_reader_isolates_the_damaged_shard() {
        let idx = index();
        assert!(idx.shard_count() >= 2, "need multiple shards");
        let clean = encode_index_v2(&idx);
        // Damage the *last* shard body byte: directory + earlier shards
        // stay intact.
        let mut bytes = clean.clone();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let loaded = decode_index_quarantining(&bytes).unwrap();
        assert_eq!(loaded.quarantined.len(), 1);
        let victim = loaded.quarantined[0].sub;
        assert_eq!(victim, (idx.shard_count() - 1) as u32);
        assert_eq!(loaded.index.shard_count(), idx.shard_count() - 1);
        assert!(loaded.index.shard(SubCollectionId::new(victim)).is_none());
        // The intact shards decode byte-identical to the originals.
        for shard in loaded.index.shards() {
            assert_eq!(idx.shard(shard.id), Some(shard));
        }
    }

    #[test]
    fn directory_damage_is_fatal_not_partial() {
        let mut bytes = encode_index_v2(&index());
        bytes[9] ^= 0x40; // inside n_shards/directory region
        assert!(matches!(
            decode_index_quarantining(&bytes),
            Err(IntegrityError::DirectoryChecksum) | Err(IntegrityError::Format(_))
        ));
    }

    #[test]
    fn block_checksum_failure_names_the_block() {
        let idx = index();
        let clean = encode_index_v2(&idx);
        // Flip a byte deep in the first shard's body, past its header, so
        // the damage lands inside a term block.
        let entries = read_directory(&clean).unwrap();
        let first = &entries[0];
        let mut bytes = clean.clone();
        let target = first.offset + first.len - 3;
        bytes[target] ^= 0x10;
        // Full verification attributes to shard (body CRC checked first).
        assert_eq!(
            verify_index_v2(&bytes),
            Err(IntegrityError::ShardChecksum { sub: first.sub })
        );
        // A sampled check that happens to hash every block attributes to
        // the block level.
        let err = verify_sampled(&bytes, 1, 1 << 12).unwrap_err();
        assert!(
            matches!(err, IntegrityError::BlockChecksum { sub, .. } if sub == first.sub),
            "{err:?}"
        );
    }

    #[test]
    fn per_shard_verification_attributes_and_regions_tile_the_segment() {
        let idx = index();
        let clean = encode_index_v2(&idx);
        let regions = shard_regions(&clean).unwrap();
        assert_eq!(regions.len(), idx.shard_count());
        // Regions are contiguous and cover the segment exactly.
        let dir_end = 12 + regions.len() * DIR_ENTRY_BYTES + 4;
        let mut expect = dir_end;
        for (_, offset, len) in &regions {
            assert_eq!(*offset, expect);
            expect += len;
        }
        assert_eq!(expect, clean.len());
        // Every shard verifies clean; damaging one shard fails only it.
        for (sub, _, _) in &regions {
            verify_shard(&clean, *sub).unwrap();
            verify_shard_sampled(&clean, *sub, 9, 2).unwrap();
        }
        let (victim, offset, len) = regions[regions.len() / 2];
        let mut bytes = clean.clone();
        bytes[offset + len / 2] ^= 0x08;
        assert!(verify_shard(&bytes, victim).is_err());
        for (sub, _, _) in &regions {
            if *sub != victim {
                verify_shard(&bytes, *sub).unwrap();
            }
        }
        assert!(matches!(
            verify_shard(&clean, u32::MAX),
            Err(IntegrityError::Format(_))
        ));
    }

    #[test]
    fn sampled_verification_is_deterministic_and_bounded() {
        let bytes = encode_index_v2(&index());
        verify_sampled(&bytes, 42, 2).unwrap();
        verify_sampled(&bytes, 42, 0).unwrap(); // structure-only pass
                                                // Different seeds pick different blocks but all pass on clean data.
        for seed in 0..8 {
            verify_sampled(&bytes, seed, 1).unwrap();
        }
    }
}
