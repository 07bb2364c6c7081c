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

use ir_engine::{
    decode_index_auto, decode_index_quarantining, decode_index_v2, encode_index_v2,
    verify_index_v2, ShardedIndex,
};
use proptest::prelude::*;
use qa_types::{DocId, Document, SubCollectionId};

const WORDS: &[&str] = &[
    "granite", "harbor", "signal", "velvet", "meadow", "cascade", "lantern", "orchid", "tunnel",
    "quarry", "breeze", "copper", "drift", "ember",
];

fn document_strategy(id: u32, subs: u32) -> impl Strategy<Value = Document> {
    (
        0..subs,
        prop::collection::vec(prop::collection::vec(0..WORDS.len(), 1..8), 1..4),
    )
        .prop_map(move |(sub, paragraphs)| Document {
            id: DocId::new(id),
            sub_collection: SubCollectionId::new(sub),
            title: format!("doc {id}"),
            paragraphs: paragraphs
                .into_iter()
                .map(|words| {
                    words
                        .into_iter()
                        .map(|w| WORDS[w])
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .collect(),
        })
}

fn index_strategy() -> impl Strategy<Value = ShardedIndex> {
    (1u32..4)
        .prop_flat_map(|subs| {
            (1usize..10).prop_flat_map(move |n| {
                (0..n as u32)
                    .map(|id| document_strategy(id, subs))
                    .collect::<Vec<_>>()
                    .prop_map(move |docs| (docs, subs))
            })
        })
        .prop_map(|(docs, subs)| ShardedIndex::build(&docs, subs as usize))
}

fn shards_equal(a: &ShardedIndex, b: &ShardedIndex) -> bool {
    a.shard_count() == b.shard_count() && a.shards().zip(b.shards()).all(|(x, y)| x == y)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn v2_round_trips(idx in index_strategy()) {
        let bytes = encode_index_v2(&idx);
        verify_index_v2(&bytes).unwrap();
        let back = decode_index_v2(&bytes).unwrap();
        prop_assert!(shards_equal(&idx, &back));
    }

    #[test]
    fn auto_reader_accepts_only_v2(idx in index_strategy()) {
        let mut bytes = encode_index_v2(&idx);
        prop_assert!(shards_equal(&idx, &decode_index_auto(&bytes).unwrap()));
        for retired in [b"DQAIDX1\0", b"DQAIDX2\0"] {
            bytes[..8].copy_from_slice(retired);
            prop_assert!(decode_index_auto(&bytes).is_err());
        }
    }

    #[test]
    fn single_byte_flip_never_silently_differs(
        idx in index_strategy(),
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let clean = encode_index_v2(&idx);
        let pos = ((pos_frac * clean.len() as f64) as usize).min(clean.len() - 1);
        let mut bytes = clean.clone();
        bytes[pos] ^= 1 << bit;
        match decode_index_v2(&bytes) {
            Err(_) => {} // detected — the required outcome
            Ok(decoded) => {
                // Only acceptable if the decode is *identical* (cannot
                // happen for a real flip, but the property we need is
                // "never silently different").
                prop_assert!(
                    shards_equal(&idx, &decoded),
                    "silent corruption at byte {pos} bit {bit}"
                );
            }
        }
        // The quarantining reader must flag the damage or return the
        // pristine index — a smaller index with no quarantine report is
        // a silent data loss.
        if let Ok(loaded) = decode_index_quarantining(&bytes) {
            prop_assert!(
                !loaded.quarantined.is_empty() || shards_equal(&idx, &loaded.index),
                "quarantining reader silently dropped data at byte {pos} bit {bit}"
            );
        }
    }

    #[test]
    fn truncation_never_silently_differs(
        idx in index_strategy(),
        cut_frac in 0.0f64..1.0,
    ) {
        let clean = encode_index_v2(&idx);
        let cut = ((cut_frac * clean.len() as f64) as usize).min(clean.len() - 1);
        prop_assert!(decode_index_v2(&clean[..cut]).is_err(), "cut at {cut} accepted");
        if let Ok(loaded) = decode_index_quarantining(&clean[..cut]) {
            prop_assert!(
                !loaded.quarantined.is_empty() || shards_equal(&idx, &loaded.index),
                "torn segment silently shrank at cut {cut}"
            );
        }
    }
}
