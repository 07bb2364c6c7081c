//! On-disk frame format: `[len: u32 LE][crc32: u32 LE][payload]`.
//!
//! `len` counts the payload bytes only; `crc32` covers the payload only.
//! The fixed 8-byte header makes torn-tail detection exact: a partial
//! header, a payload shorter than `len`, or a checksum mismatch each mark
//! the first byte of the frame as the truncation point.

/// Fixed header size: 4-byte length + 4-byte checksum.
pub const HEADER_LEN: usize = 8;

/// Upper bound on a single payload; anything larger is corruption, not a
/// record (the largest, a chunk's ranked answers, is a few kilobytes).
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// CRC-32 (IEEE) of a payload — the workspace's one implementation, the
/// same polynomial zlib/Ethernet use, so journals can be checked with
/// standard external tooling.
pub use qa_types::crc32;

/// Encode one frame (header + payload) into a fresh buffer.
pub fn encode(payload: &[u8]) -> Vec<u8> {
    let mut out = vec![0; HEADER_LEN];
    out.extend_from_slice(payload);
    seal(&mut out).expect("payload within the frame cap");
    out
}

/// Fill in the header of a frame built in place: `frame` is
/// [`HEADER_LEN`] reserved bytes followed by the payload. A payload above
/// [`MAX_PAYLOAD`] is refused — [`decode`] would call it corruption.
pub fn seal(frame: &mut [u8]) -> Result<(), String> {
    let (header, payload) = frame.split_at_mut(HEADER_LEN);
    if payload.len() > MAX_PAYLOAD as usize {
        return Err(format!(
            "record of {} bytes exceeds the frame cap {MAX_PAYLOAD}",
            payload.len()
        ));
    }
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    Ok(())
}

/// Outcome of decoding the frame starting at `buf[offset..]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decoded<'a> {
    /// A complete, checksum-valid frame; `next` is the offset one past it.
    Frame {
        /// The payload bytes.
        payload: &'a [u8],
        /// Offset of the byte after this frame.
        next: u64,
    },
    /// The buffer ends before the frame does (torn tail at `offset`).
    Torn,
    /// The frame is complete but fails its checksum, or declares an
    /// impossible length. Carries a human-readable detail.
    Corrupt(String),
}

/// Decode the frame starting at byte `offset` of `buf`.
pub fn decode(buf: &[u8], offset: u64) -> Decoded<'_> {
    let start = offset as usize;
    let rest = &buf[start..];
    if rest.len() < HEADER_LEN {
        return Decoded::Torn;
    }
    let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
    let want = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
    if len > MAX_PAYLOAD {
        return Decoded::Corrupt(format!("frame length {len} exceeds cap {MAX_PAYLOAD}"));
    }
    let body = &rest[HEADER_LEN..];
    if body.len() < len as usize {
        return Decoded::Torn;
    }
    let payload = &body[..len as usize];
    let got = crc32(payload);
    if got != want {
        return Decoded::Corrupt(format!(
            "checksum mismatch: stored {want:#010x}, computed {got:#010x}"
        ));
    }
    Decoded::Frame {
        payload,
        next: offset + (HEADER_LEN + len as usize) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip() {
        let frame = encode(b"hello");
        match decode(&frame, 0) {
            Decoded::Frame { payload, next } => {
                assert_eq!(payload, b"hello");
                assert_eq!(next, frame.len() as u64);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn every_truncation_is_torn_not_corrupt() {
        let frame = encode(b"paragraph payload");
        for cut in 0..frame.len() {
            assert_eq!(
                decode(&frame[..cut], 0),
                Decoded::Torn,
                "cut at byte {cut} must read as a torn tail"
            );
        }
    }

    #[test]
    fn bitflip_is_corrupt() {
        let mut frame = encode(b"stable");
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        assert!(matches!(decode(&frame, 0), Decoded::Corrupt(_)));
    }
}
