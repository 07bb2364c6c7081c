//! Delta + varint compressed postings lists.
//!
//! A postings list stores, sorted, the *text units* containing a term — a
//! document's title, then each of its paragraphs, numbered densely per
//! shard in document-id order (see [`crate::index`]). Numbers are
//! gap-encoded (each minus its predecessor) and the gaps written as LEB128
//! varints, the standard IR compression scheme. Decoding is streaming, so
//! evaluation never materializes more than it needs. The same codec holds
//! a segment's document-id and units-per-document lists.

/// A compressed list of strictly increasing `u32`s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PostingsList {
    encoded: Vec<u8>,
    len: u32,
    /// The last entry (0 while empty), which the next gap is taken from.
    last: u32,
}

impl PostingsList {
    /// Build from sorted numbers (a repeat is dropped).
    pub fn from_sorted(ids: &[u32]) -> Self {
        let mut list = PostingsList {
            encoded: Vec::with_capacity(ids.len()),
            ..Self::default()
        };
        ids.iter().for_each(|&id| list.push(id));
        list
    }

    /// Append `id`; a repeat of the last entry is dropped (a term seen
    /// again in the same text unit).
    ///
    /// # Panics
    /// When `id` is below the last entry.
    pub fn push(&mut self, id: u32) {
        if self.len == 0 || id != self.last {
            let gap = id.checked_sub(self.last);
            write_varint(&mut self.encoded, gap.expect("entries must not decrease"));
            self.last = id;
            self.len += 1;
        }
    }

    /// Rebuild from untrusted bytes (persistence): exactly `len` varints
    /// filling `encoded`, strictly increasing and all below `limit`, so
    /// that iteration can neither overflow nor yield a number a dense
    /// table of `limit` entries does not have.
    pub(crate) fn from_encoded(encoded: &[u8], len: u32, limit: u64) -> Result<Self, &'static str> {
        if len as usize > encoded.len() {
            return Err("absurd entry count");
        }
        let mut pos = 0;
        let mut prev: Option<u64> = None;
        for _ in 0..len {
            let (gap, read) = read_varint(&encoded[pos..]).ok_or("list truncated")?;
            pos += read;
            let id = match prev {
                None => u64::from(gap),
                Some(p) if gap > 0 => p + u64::from(gap),
                Some(_) => return Err("list not increasing"),
            };
            if id >= limit {
                return Err("entry out of range");
            }
            prev = Some(id);
        }
        if pos != encoded.len() {
            return Err("trailing bytes after list");
        }
        Ok(PostingsList {
            encoded: encoded.to_vec(),
            len,
            last: prev.unwrap_or(0) as u32,
        })
    }

    /// Number of entries in the list.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size of the compressed representation in bytes.
    pub fn compressed_bytes(&self) -> usize {
        self.encoded.len()
    }

    /// Iterate the entries in increasing order.
    pub fn iter(&self) -> PostingsIter<'_> {
        PostingsIter {
            data: &self.encoded,
            prev: 0,
            remaining: self.len,
        }
    }

    /// Decode to a vector (tests and small lists).
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter().collect()
    }

    /// Raw encoded bytes (persistence).
    pub(crate) fn encoded(&self) -> &[u8] {
        &self.encoded
    }
}

impl<'a> IntoIterator for &'a PostingsList {
    type Item = u32;
    type IntoIter = PostingsIter<'a>;
    fn into_iter(self) -> PostingsIter<'a> {
        self.iter()
    }
}

/// Streaming decoder over a [`PostingsList`].
#[derive(Debug, Clone)]
pub struct PostingsIter<'a> {
    data: &'a [u8],
    prev: u32,
    remaining: u32,
}

impl Iterator for PostingsIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.remaining == 0 {
            return None;
        }
        let (gap, read) = read_varint(self.data)?;
        self.data = &self.data[read..];
        self.remaining -= 1;
        // The first gap is the first entry itself (`prev` starts at 0).
        self.prev += gap;
        Some(self.prev)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for PostingsIter<'_> {}

/// LEB128 varint encode — the one varint of the crate: list gaps here, the
/// per-term header words of a segment in [`crate::integrity`].
pub(crate) fn write_varint(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// LEB128 varint decode; returns (value, bytes consumed).
pub(crate) fn read_varint(data: &[u8]) -> Option<(u32, usize)> {
    let mut v = 0u32;
    let mut shift = 0u32;
    for (i, &b) in data.iter().enumerate() {
        v |= ((b & 0x7f) as u32) << shift;
        if b & 0x80 == 0 {
            return Some((v, i + 1));
        }
        shift += 7;
        if shift >= 32 {
            return None;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let input = [0, 1, 5, 127, 128, 300, 1_000_000];
        let p = PostingsList::from_sorted(&input);
        assert_eq!(p.to_vec(), input);
        assert_eq!(p.len(), 7);
        assert!(!p.is_empty());
    }

    #[test]
    fn empty_list() {
        let p = PostingsList::from_sorted(&[]);
        assert!(p.is_empty());
        assert_eq!(p.to_vec(), Vec::<u32>::new());
        assert_eq!(p.compressed_bytes(), 0);
    }

    #[test]
    fn compression_beats_raw_u32_for_dense_lists() {
        let input: Vec<u32> = (0..1000).collect();
        let p = PostingsList::from_sorted(&input);
        assert!(
            p.compressed_bytes() < 1000 * 4 / 2,
            "compressed {} bytes",
            p.compressed_bytes()
        );
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u32, 1, 127, 128, 16_383, 16_384, u32::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let (back, n) = read_varint(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(n, buf.len());
        }
    }

    #[test]
    fn read_varint_rejects_truncation() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 1_000_000);
        assert!(read_varint(&buf[..buf.len() - 1]).is_none());
        assert!(read_varint(&[]).is_none());
    }

    #[test]
    fn read_varint_rejects_overflow() {
        // Five continuation bytes exceed 32 bits of shift.
        assert!(read_varint(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x01]).is_none());
    }

    #[test]
    fn untrusted_bytes_are_validated_entry_by_entry() {
        let good = PostingsList::from_sorted(&[0, 1, 5, 300]);
        let load = |enc: &[u8], len, limit| PostingsList::from_encoded(enc, len, limit);
        assert_eq!(load(good.encoded(), 4, 301), Ok(good.clone()));
        assert_eq!(load(good.encoded(), 4, 300), Err("entry out of range"));
        assert_eq!(
            load(good.encoded(), 3, 301),
            Err("trailing bytes after list")
        );
        assert_eq!(load(good.encoded(), 5, 301), Err("list truncated"));
        assert_eq!(load(&[], u32::MAX, 301), Err("absurd entry count"));
        assert_eq!(load(&[3, 0], 2, 301), Err("list not increasing"));
        // Gaps that sum past `u32::MAX` would wrap the streaming decoder.
        let mut wrap = Vec::new();
        write_varint(&mut wrap, u32::MAX);
        write_varint(&mut wrap, 1);
        assert_eq!(load(&wrap, 2, 1 << 32), Err("entry out of range"));
        assert_eq!(
            load(&wrap[..5], 1, 1 << 32).map(|p| p.to_vec()),
            Ok(vec![u32::MAX])
        );
    }

    #[test]
    fn size_hint_is_exact() {
        let p = PostingsList::from_sorted(&[2, 4, 6]);
        let mut it = p.iter();
        assert_eq!(it.size_hint(), (3, Some(3)));
        it.next();
        assert_eq!(it.size_hint(), (2, Some(2)));
        assert_eq!(it.len(), 2);
    }
}
