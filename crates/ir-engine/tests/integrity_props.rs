//! Property tests for the checksummed `DQAIDX3` segment codec:
//!
//! 1. **Round trip** — encode → strict decode reproduces every shard for
//!    arbitrary generated document sets.
//! 2. **One format** — the auto reader is the strict reader, and the
//!    same bytes under a retired magic (`DQAIDX1`, `DQAIDX2`) are rejected.
//! 3. **No silent corruption** — flipping any single byte of a `DQAIDX3`
//!    segment makes the strict reader error *or* (vacuously) decode the
//!    identical index; it never returns silently different postings. The
//!    quarantining reader likewise either flags damage or returns the
//!    pristine index.
//! 4. **Hostile bytes** — an image mutated anywhere (directory, shard
//!    regions, lists) and checksummed again, so that only structural
//!    validation stands in the way, reads as an error or as a well-formed
//!    index: never a panic, never a table sized by a number the bytes
//!    merely claim.

use ir_engine::index::MAX_SHARD_UNITS;
use ir_engine::{
    decode_index_auto, decode_index_quarantining, decode_index_v2, encode_index_v2, shard_regions,
    verify_index_v2, verify_sampled, verify_shard_sampled, ShardedIndex,
};
use qa_types::rng::{cases, Rng};
use qa_types::{crc32, DocId, Document, SubCollectionId};

const WORDS: &[&str] = &[
    "granite", "harbor", "signal", "velvet", "meadow", "cascade", "lantern", "orchid", "tunnel",
    "quarry", "breeze", "copper", "drift", "ember",
];

/// 1–3 shards over 1–9 documents of 1–3 paragraphs of 1–7 words.
fn index(rng: &mut Rng) -> ShardedIndex {
    let subs = rng.range(1..=3) as u32;
    let docs: Vec<Document> = (0..rng.range(1..=9) as u32)
        .map(|id| Document {
            id: DocId::new(id),
            sub_collection: SubCollectionId::new(rng.below(subs as usize) as u32),
            title: format!("doc {id}"),
            paragraphs: rng.vec(1..=3, |r| {
                r.vec(1..=7, |r| WORDS[r.below(WORDS.len())]).join(" ")
            }),
        })
        .collect();
    ShardedIndex::build(&docs, subs as usize)
}

fn shards_equal(a: &ShardedIndex, b: &ShardedIndex) -> bool {
    a.shard_count() == b.shard_count() && a.shards().zip(b.shards()).all(|(x, y)| x == y)
}

#[test]
fn v2_round_trips() {
    cases(0x1d83_0001, 48, |rng| {
        let idx = index(rng);
        let bytes = encode_index_v2(&idx);
        verify_index_v2(&bytes).unwrap();
        let back = decode_index_v2(&bytes).unwrap();
        assert!(shards_equal(&idx, &back));
    });
}

#[test]
fn auto_reader_accepts_only_v2() {
    cases(0x1d83_0002, 48, |rng| {
        let idx = index(rng);
        let mut bytes = encode_index_v2(&idx);
        assert!(shards_equal(&idx, &decode_index_auto(&bytes).unwrap()));
        for retired in [b"DQAIDX1\0", b"DQAIDX2\0"] {
            bytes[..8].copy_from_slice(retired);
            assert!(decode_index_auto(&bytes).is_err());
        }
    });
}

#[test]
fn single_byte_flip_never_silently_differs() {
    cases(0x1d83_0003, 48, |rng| {
        let idx = index(rng);
        let clean = encode_index_v2(&idx);
        let (pos, bit) = (rng.below(clean.len()), rng.below(8));
        let mut bytes = clean.clone();
        bytes[pos] ^= 1 << bit;
        // Detected is the required outcome; a decode is acceptable only if
        // it is *identical* (cannot happen for a real flip, but the
        // property we need is "never silently different").
        if let Ok(decoded) = decode_index_v2(&bytes) {
            assert!(
                shards_equal(&idx, &decoded),
                "silent corruption at byte {pos} bit {bit}"
            );
        }
        // The quarantining reader must flag the damage or return the
        // pristine index — a smaller index with no quarantine report is
        // a silent data loss.
        if let Ok(loaded) = decode_index_quarantining(&bytes) {
            assert!(
                !loaded.quarantined.is_empty() || shards_equal(&idx, &loaded.index),
                "quarantining reader silently dropped data at byte {pos} bit {bit}"
            );
        }
    });
}

#[test]
fn truncation_never_silently_differs() {
    cases(0x1d83_0004, 48, |rng| {
        let idx = index(rng);
        let clean = encode_index_v2(&idx);
        let cut = rng.below(clean.len());
        assert!(
            decode_index_v2(&clean[..cut]).is_err(),
            "cut at {cut} accepted"
        );
        if let Ok(loaded) = decode_index_quarantining(&clean[..cut]) {
            assert!(
                !loaded.quarantined.is_empty() || shards_equal(&idx, &loaded.index),
                "torn segment silently shrank at cut {cut}"
            );
        }
    });
}

fn u32_at(bytes: &[u8], at: usize) -> Option<usize> {
    let word = bytes.get(at..at.checked_add(4)?)?;
    Some(u32::from_le_bytes(word.try_into().unwrap()) as usize)
}

/// Writes the CRC-32 of `image[of]` at `at`; `None` if `of` does not fit.
fn put_crc(image: &mut [u8], at: usize, of: std::ops::Range<usize>) -> Option<()> {
    let crc = crc32(image.get(of)?).to_le_bytes();
    image.get_mut(at..at + 4)?.copy_from_slice(&crc);
    Some(())
}

/// Checksum `image` again, innermost first — term blocks, shard bodies,
/// directory — following the length fields as they now read. Where they
/// no longer fit the image the walk stops: what is left fails a checksum,
/// which is an error like any other.
fn reseal(image: &mut [u8]) -> Option<()> {
    let dir_end = 12 + 12 * u32_at(image, 8)?.min(1 << 16);
    let mut body = dir_end + 4;
    for entry in (12..dir_end).step_by(12) {
        let end = body.checked_add(u32_at(image, entry + 4)?)?;
        // A block walk that falls off the body leaves its blocks as they are.
        let _ = reseal_blocks(image, body, end);
        put_crc(image, entry + 8, body..end)?;
        body = end;
    }
    put_crc(image, dir_end, 0..dir_end)
}

/// A body is u64 occurrences, u32 documents, two length-prefixed lists, the
/// block count, then `{ u32 len, u32 crc, bytes }` per block.
fn reseal_blocks(image: &mut [u8], body: usize, end: usize) -> Option<()> {
    let lists = (0..2).try_fold(body + 12, |at, _| at.checked_add(4 + u32_at(image, at)?))?;
    let mut at = lists + 4;
    for _ in 0..u32_at(image, lists)? {
        let next = (at + 8).checked_add(u32_at(image, at)?)?;
        if next > end {
            return None;
        }
        put_crc(image, at + 4, at + 8..next)?;
        at = next;
    }
    Some(())
}

/// What "correct" means for an index the decoder let through: no table
/// larger than the writer's bound or than the bytes could pay for, every
/// posting resolving to a document, and the index surviving its own round
/// trip.
fn assert_well_formed(idx: &ShardedIndex, image_len: usize) {
    for shard in idx.shards() {
        assert!(shard.unit_count() <= MAX_SHARD_UNITS as usize);
        assert!(shard.doc_count() <= image_len, "a document costs two bytes");
        for (term, list) in shard.terms_iter() {
            assert!(shard.doc_freq(term) <= list.len());
        }
    }
    let again = decode_index_v2(&encode_index_v2(idx)).unwrap();
    assert!(shards_equal(idx, &again));
}

#[test]
fn rechecksummed_mutations_are_an_error_or_a_well_formed_index() {
    cases(0x1d83_0005, 48, |rng| {
        let clean = encode_index_v2(&index(rng));
        let dir_end = 12 + 12 * u32_at(&clean, 8).unwrap();
        for _ in 0..64 {
            let mut image = clean.clone();
            // The directory (shard count, ids, region lengths) half the
            // time, else anywhere in the bodies: counts, lists, blocks.
            let at = if rng.bool(0.5) {
                8 + rng.below(dir_end - 8)
            } else {
                dir_end + 4 + rng.below(clean.len() - dir_end - 4)
            };
            image[at] = match rng.below(4) {
                0 => image[at] | 0x80, // a varint that runs on
                1 => 0xff,
                2 => image[at].wrapping_add(1),
                _ => rng.next_u64() as u8,
            };
            reseal(&mut image);

            if let Ok(idx) = decode_index_v2(&image) {
                assert_well_formed(&idx, image.len());
            }
            if let Ok(loaded) = decode_index_quarantining(&image) {
                assert_well_formed(&loaded.index, image.len());
            }
            // The readers that do not decode only have to come back.
            let _ = verify_index_v2(&image);
            let _ = verify_sampled(&image, rng.next_u64(), 2);
            for (sub, _, _) in shard_regions(&image).unwrap_or_default() {
                let _ = verify_shard_sampled(&image, sub, 7, 1);
            }
        }
    });
}
