//! The one CRC-32 (IEEE 802.3, reflected `0xEDB88320`) behind the index
//! segment's three checksum layers and the journal's frames.
//!
//! Slicing-by-8: eight compile-time tables let the loop fold eight input
//! bytes per step instead of one. Same polynomial, same initial value and
//! final inversion as zlib/Ethernet, so both files can be checked with
//! standard external tooling.

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of `bytes` (check value: `crc32(b"123456789") == 0xCBF4_3926`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][c[4] as usize]
            ^ TABLES[2][c[5] as usize]
            ^ TABLES[1][c[6] as usize]
            ^ TABLES[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::splitmix64;

    /// The byte-at-a-time loop `ir-engine` and `journal` each carried.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
        }
        !crc
    }

    #[test]
    fn check_values() {
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn slicing_agrees_with_the_bytewise_loop_at_every_tail_length() {
        let buf: Vec<u8> = (0..1 << 20).map(|i| splitmix64(i) as u8).collect();
        for len in 0..=64 {
            // Unaligned starts too: the eight-byte steps must not care.
            for start in [0, 1, 7] {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
        assert_eq!(crc32(&buf), crc32_bytewise(&buf));
    }
}
