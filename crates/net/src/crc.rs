//! CRC32 (IEEE 802.3 / zlib polynomial) for frame integrity checks.
//!
//! The wire format ([`frame`](crate::frame)) protects every payload
//! with a CRC computed over the connection's implicit frame sequence
//! number followed by the payload bytes, so bit flips, dropped frames
//! and duplicated frames all surface as a checksum mismatch on the
//! receiver. Implemented in-crate because the workspace builds fully
//! offline, with two kernels behind the one [`Crc32::update`]:
//!
//! * **Folded** (x86_64 with `pclmulqdq` and `sse4.1`, inputs of
//!   `FOLD_MIN` bytes or more): carry-less multiplication folds four
//!   128-bit lanes per 64 bytes, then one lane per 16 bytes, and a
//!   Barrett reduction takes the remainder to 32 bits — the
//!   construction of Intel's "Fast CRC Computation for Generic
//!   Polynomials Using PCLMULQDQ". The tail shorter than a lane goes
//!   through the table kernel.
//! * **Table** (everything else: short inputs such as control frames
//!   and the 8-byte sequence prefix, other architectures, CPUs without
//!   those features): eight 256-entry tables built at compile time
//!   ("slice-by-8"), one 64-bit word per step. Table `k` is the byte
//!   table advanced over `k` further zero bytes, which makes the word
//!   step the eight byte steps it replaces.
//!
//! Both compute the same polynomial and the same value for every input
//! and every way of splitting it across `update` calls. The tests call
//! each kernel directly against a table-free bit-at-a-time reference
//! and pin a 1 MiB known vector, so the wire value cannot move between
//! builds. Runtime CPU feature detection is the only dispatch, and the
//! call into the folded kernel after it is the workspace's one `unsafe`
//! site.

/// The reflected IEEE polynomial (0xEDB88320), as used by zlib,
/// Ethernet and PNG.
const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per step of the table kernel.
const WORD: usize = 8;

/// The shortest input [`Crc32::update`] hands to the folded kernel:
/// the fold starts from four full lanes. At this length it already
/// beats the table loop: ≈ 14 ns against ≈ 26 ns per call on a 2-core
/// Intel Xeon host.
const FOLD_MIN: usize = 64;

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
        self.state = match kernel(data.len()) {
            #[cfg(target_arch = "x86_64")]
            Kernel::Folded => clmul::fold(self.state, data),
            Kernel::Table => table(self.state, data),
        };
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

/// The two implementations of one checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Table,
    #[cfg(target_arch = "x86_64")]
    Folded,
}

/// The kernel [`Crc32::update`] runs for `len` bytes on this CPU.
fn kernel(len: usize) -> Kernel {
    if len < FOLD_MIN {
        return Kernel::Table;
    }
    #[cfg(target_arch = "x86_64")]
    if clmul::detected() {
        return Kernel::Folded;
    }
    Kernel::Table
}

/// The slice-by-8 kernel: `data` folded into the raw (uninverted)
/// state `crc`, one 64-bit word per step and the tail byte by byte.
fn table(mut crc: u32, data: &[u8]) -> u32 {
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
    crc
}

/// The carry-less-multiply kernel. Each constant is `x^n mod P` for the
/// distance `n` it folds across, bit-reflected and shifted left by one
/// to match the reflected bit order; `MU` is `floor(x^64 / P)`.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Folds a lane across 512 bits (four lanes ahead): `x^(512+32)`
    /// for the low half, `x^(512-32)` for the high half.
    const K1: u64 = 0x1_5444_2bd4;
    const K2: u64 = 0x1_c6e4_1596;
    /// Folds a lane across 128 bits (the next lane).
    const K3: u64 = 0x1_7519_97d0;
    const K4: u64 = 0x0_ccaa_009e;
    /// Folds 64 bits down to 32.
    const K5: u64 = 0x1_63cd_6124;
    /// The 33-bit polynomial, reflected, and its Barrett constant.
    const P: u64 = 0x1_db71_0641;
    const MU: u64 = 0x1_f701_1641;

    /// Whether this CPU runs the folded kernel. The standard library
    /// detects the features once per process and caches them.
    pub(super) fn detected() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// `data` folded into the raw state `crc`; the table kernel's value
    /// for every input, and the table kernel itself on a CPU without
    /// the features.
    #[allow(unsafe_code)]
    pub(super) fn fold(crc: u32, data: &[u8]) -> u32 {
        if !detected() {
            return super::table(crc, data);
        }
        // SAFETY: `fold_lanes` is safe code whose only requirement is
        // that the CPU supports the `pclmulqdq` and `sse4.1` instructions
        // it is compiled with, and `detected()` just confirmed both.
        unsafe { fold_lanes(crc, data) }
    }

    /// `data` folded into the raw state `crc`, 64 bytes per step while
    /// four lanes remain, then 16; the tail under a lane, or an input
    /// under four lanes, goes through the table kernel.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_lanes(crc: u32, data: &[u8]) -> u32 {
        let (lanes, tail) = data.as_chunks::<16>();
        let Some((first, mut rest)) = lanes.split_first_chunk::<4>() else {
            return super::table(crc, data);
        };
        let k1k2 = _mm_set_epi64x(K2 as i64, K1 as i64);
        let k3k4 = _mm_set_epi64x(K4 as i64, K3 as i64);

        // Four lanes in flight, each folded 64 bytes ahead per step.
        let mut x0 = _mm_xor_si128(load(&first[0]), _mm_cvtsi32_si128(crc as i32));
        let mut x1 = load(&first[1]);
        let mut x2 = load(&first[2]);
        let mut x3 = load(&first[3]);
        while let Some((block, more)) = rest.split_first_chunk::<4>() {
            x0 = fold_into(x0, k1k2, load(&block[0]));
            x1 = fold_into(x1, k1k2, load(&block[1]));
            x2 = fold_into(x2, k1k2, load(&block[2]));
            x3 = fold_into(x3, k1k2, load(&block[3]));
            rest = more;
        }

        // Down to one lane, then one further lane per 16 bytes.
        let mut x = fold_into(x0, k3k4, x1);
        x = fold_into(x, k3k4, x2);
        x = fold_into(x, k3k4, x3);
        for lane in rest {
            x = fold_into(x, k3k4, load(lane));
        }
        super::table(reduce(x, k3k4), tail)
    }

    /// Lane bytes 0..16, least significant first.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(bytes: &[u8; 16]) -> __m128i {
        let lane = u128::from_le_bytes(*bytes);
        _mm_set_epi64x((lane >> 64) as i64, lane as i64)
    }

    /// `x` carried `k`'s distance forward and added to `next`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_into(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// The 128-bit remainder reduced to the raw 32-bit state.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn reduce(x: __m128i, k3k4: __m128i) -> u32 {
        let low32 = _mm_set_epi64x(0xFFFF_FFFF, 0xFFFF_FFFF);
        // 128 → 96 bits: the low half folded onto the high half.
        let x = _mm_xor_si128(
            _mm_srli_si128::<8>(x),
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
        );
        // 96 → 64 bits.
        let k5 = _mm_set_epi64x(0, K5 as i64);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), k5),
            _mm_srli_si128::<4>(x),
        );
        // Barrett: the quotient by P from MU, then the remainder.
        let pmu = _mm_set_epi64x(MU as i64, P as i64);
        let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pmu);
        let qp = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), pmu);
        _mm_extract_epi32::<1>(_mm_xor_si128(x, qp)) as u32
    }
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

    /// A kernel over the raw (uninverted) state.
    type KernelFn = fn(u32, &[u8]) -> u32;

    /// Every kernel this build has, called directly rather than through
    /// the dispatch, with its name.
    fn kernels() -> Vec<(&'static str, KernelFn)> {
        #[allow(unused_mut)]
        let mut all: Vec<(&'static str, KernelFn)> = vec![("table", table)];
        #[cfg(target_arch = "x86_64")]
        all.push(("folded", clmul::fold));
        all
    }

    /// `data` through `kernel` in pieces ending at each of `cuts`.
    fn chained(kernel: KernelFn, data: &[u8], cuts: &[usize]) -> u32 {
        let mut crc = !0;
        let mut from = 0;
        for &cut in cuts.iter().chain([&data.len()]) {
            crc = kernel(crc, &data[from..cut]);
            from = cut;
        }
        !crc
    }

    /// `len` bytes of a fixed 64-bit LCG stream (Knuth's MMIX
    /// constants), one byte from the top of each state.
    fn lcg_bytes(len: usize) -> Vec<u8> {
        let mut s: u64 = 0x0123_4567_89AB_CDEF;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (s >> 56) as u8
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Each kernel, at every first-byte offset of a 16-byte lane,
        /// over data split at one to four points, is the reference
        /// value.
        #[test]
        fn both_kernels_equal_the_bitwise_reference(
            data in proptest::collection::vec(any::<u8>(), 0..4097),
            cuts in proptest::collection::vec(any::<usize>(), 1..5),
        ) {
            let want = reference(&data);
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();
            for offset in 0..16 {
                let mut backing = vec![0x5Au8; offset];
                backing.extend_from_slice(&data);
                let shifted = &backing[offset..];
                for (name, kernel) in kernels() {
                    prop_assert_eq!(
                        chained(kernel, shifted, &cuts),
                        want,
                        "{} kernel, offset {}, cuts {:?}", name, offset, cuts
                    );
                }
            }
        }
    }

    /// Every length from 0 to 4096 bytes at every first-byte offset of
    /// a lane, against the reference state of the same prefix: each
    /// block, lane and tail boundary of both kernels.
    #[test]
    fn both_kernels_agree_at_every_length_and_offset() {
        let backing = lcg_bytes(4096 + 16);
        for offset in 0..16 {
            let data = &backing[offset..offset + 4096];
            let mut state = !0u32;
            for len in 0..=data.len() {
                if len > 0 {
                    state = reference_step(state, data[len - 1]);
                }
                for (name, kernel) in kernels() {
                    assert_eq!(
                        kernel(!0, &data[..len]),
                        state,
                        "{name} kernel, offset {offset}, length {len}"
                    );
                }
            }
        }
    }

    /// One byte of the reference, on the raw (uninverted) state.
    fn reference_step(crc: u32, byte: u8) -> u32 {
        let mut crc = crc ^ byte as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
        }
        crc
    }

    /// 1 MiB and 13 bytes of the LCG stream: the reference, both
    /// kernels whole and split, and the dispatching `crc32` give the
    /// value pinned here — the wire value of a frame this long, so a
    /// build whose checksum moves fails before it meets a peer.
    #[test]
    fn one_mebibyte_known_vector() {
        const WANT: u32 = 0x2D6D_F5B2;
        let data = lcg_bytes((1 << 20) + 13);
        assert_eq!(reference(&data), WANT, "reference");
        assert_eq!(crc32(&data), WANT, "dispatch");
        for (name, kernel) in kernels() {
            assert_eq!(chained(kernel, &data, &[]), WANT, "{name} kernel");
            assert_eq!(
                chained(kernel, &data, &[1, 4099, 70_001, 1 << 19]),
                WANT,
                "{name} kernel, split"
            );
        }
    }

    /// The shape `frame_crc` checksums: an 8-byte sequence number, then
    /// a payload long enough for the folded kernel, chained through
    /// two `update` calls.
    #[test]
    fn sequence_prefix_then_long_payload_is_the_reference() {
        let payload = lcg_bytes(4096 + 7);
        for len in [FOLD_MIN - 1, FOLD_MIN, FOLD_MIN + 1, 1000, 4096 + 7] {
            for seq in [0u64, 1, 0x0123_4567_89AB_CDEF, u64::MAX] {
                let mut whole = seq.to_be_bytes().to_vec();
                whole.extend_from_slice(&payload[..len]);
                assert_eq!(
                    crate::frame::frame_crc(seq, &payload[..len]),
                    reference(&whole),
                    "seq {seq}, payload {len}"
                );
            }
        }
    }

    /// On a CPU that has the features, inputs of `FOLD_MIN` bytes or
    /// more dispatch to the folded kernel, so a broken detection cannot
    /// silently keep every frame on the table loop. The features are
    /// read from `/proc/cpuinfo` where it exists, independently of the
    /// standard library's detection the dispatch uses.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn dispatch_picks_the_folded_kernel_where_the_cpu_has_it() {
        assert_eq!(kernel(0), Kernel::Table);
        assert_eq!(kernel(FOLD_MIN - 1), Kernel::Table);
        let has = match std::fs::read_to_string("/proc/cpuinfo") {
            Ok(info) => info
                .lines()
                .find(|l| l.starts_with("flags"))
                .is_some_and(|flags| {
                    let flags: Vec<&str> = flags.split_whitespace().collect();
                    flags.contains(&"pclmulqdq") && flags.contains(&"sse4_1")
                }),
            Err(_) => {
                std::arch::is_x86_feature_detected!("pclmulqdq")
                    && std::arch::is_x86_feature_detected!("sse4.1")
            }
        };
        let want = if has { Kernel::Folded } else { Kernel::Table };
        assert_eq!(kernel(FOLD_MIN), want);
        assert_eq!(kernel(1 << 20), want);
    }
}
