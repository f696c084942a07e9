//! CRC32 (IEEE 802.3 / zlib polynomial) for frame integrity checks.
//!
//! The wire format ([`frame`](crate::frame)) protects every payload
//! with a CRC computed over the connection's implicit frame sequence
//! number followed by the payload bytes, so bit flips, dropped frames
//! and duplicated frames all surface as a checksum mismatch on the
//! receiver. Implemented in-crate because the workspace builds fully
//! offline: eight 256-entry tables built at compile time ("slice-by-8"),
//! so [`Crc32::update`] folds one 64-bit word per step instead of one
//! byte. Table `k` is the byte table advanced over `k` further zero
//! bytes, which makes the word step the eight byte steps it replaces —
//! same polynomial, same value for every input and every way of
//! splitting it across `update` calls (the tests compare against a
//! table-free bit-at-a-time reference).

/// The reflected IEEE polynomial (0xEDB88320), as used by zlib,
/// Ethernet and PNG.
const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per step of [`Crc32::update`].
const WORD: usize = 8;

const fn build_tables() -> [[u32; 256]; WORD] {
    let mut tables = [[0u32; 256]; WORD];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // tables[k][b]: the CRC state after byte `b` and then `k` zero bytes.
    let mut k = 1;
    while k < WORD {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; WORD] = build_tables();

/// Incremental CRC32 state.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// A fresh checksum.
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Folds `data` into the checksum; returns `self` for chaining.
    pub fn update(mut self, data: &[u8]) -> Crc32 {
        let mut crc = self.state;
        let mut words = data.chunks_exact(WORD);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[0][(hi >> 24) as usize];
        }
        // The tail shorter than a word.
        for &byte in words.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
        }
        self.state = crc;
        self
    }

    /// The final checksum value.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

/// One-shot CRC32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    Crc32::new().update(data).finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The definition, one bit at a time, with no table: what every
    /// table-driven `update` must equal.
    fn reference(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc ^= byte as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any data, at any alignment of its first byte, folded through
        /// one to four `update` calls split anywhere, is the reference
        /// value: the word loop, its tail and the chaining agree.
        #[test]
        fn word_wide_update_equals_the_bitwise_reference(
            data in proptest::collection::vec(any::<u8>(), 0..4097),
            cuts in proptest::collection::vec(any::<usize>(), 0..4),
        ) {
            let want = reference(&data);
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();
            for offset in 0..WORD {
                let mut backing = vec![0xA5u8; offset];
                backing.extend_from_slice(&data);
                let shifted = &backing[offset..];
                let mut crc = Crc32::new();
                let mut from = 0;
                for &cut in cuts.iter().chain([&data.len()]) {
                    crc = crc.update(&shifted[from..cut]);
                    from = cut;
                }
                prop_assert_eq!(crc.finish(), want, "offset {}, cuts {:?}", offset, cuts);
            }
        }
    }

    #[test]
    fn known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let whole = crc32(b"hello, world");
        let split = Crc32::new()
            .update(b"hello")
            .update(b", ")
            .update(b"world")
            .finish();
        assert_eq!(whole, split);
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let data = vec![0x5Au8; 64];
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(
                    crc32(&flipped),
                    clean,
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }
}
