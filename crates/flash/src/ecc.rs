//! SECDED error-correcting code for page data and delta records.
//!
//! Real MLC controllers use BCH/LDPC; for the simulator a single-error-
//! correcting, double-error-detecting (SECDED) code per chunk is sufficient
//! because the interference model injects sparse bit flips. The code is the
//! classic "XOR of set-bit positions" construction:
//!
//! * `locator` — XOR of `(bit_position + 1)` over all 1-bits. A single
//!   flipped bit at position `p` changes the locator by exactly `p + 1`,
//!   which both detects and locates it.
//! * `parity` — overall bit parity, which disambiguates single (correct)
//!   from double (detect-only) errors.
//!
//! Codewords are 4 bytes per chunk (`CHUNK = 512` data bytes), matching the
//! paper's Figure 3 OOB budget: an 8 KB page body needs 64 B for
//! `ECC_initial`, leaving room in a 128 B OOB for per-delta-record
//! codewords (`ECC_delta_rec 1..N`, one 4 B codeword each, delta records
//! being far smaller than a chunk).
//!
//! # Word-parallel encoding
//!
//! Both fields are XORs of per-bit terms, so the encoder never visits a
//! bit on its own. It reads the chunk as little-endian `u64` words, the
//! tail zero-padded. Bit `t` of word `w` is bit position `64w + t`, so its
//! locator term is `64w | (t + 1)` for `t < 63` and `64(w + 1)` for
//! `t = 63`. Hence:
//!
//! * locator bit `j < 6` depends on `t` only: it is the parity of the XOR
//!   of all words, masked to the bits whose `t + 1` has bit `j` set;
//! * locator bit `6 + k` depends on the word index only: it is the parity
//!   of the XOR of the words whose `w` has bit `k` set (bits `t < 63`) or
//!   whose `w + 1` has (bit 63);
//! * the overall parity is the parity of the XOR of all words.
//!
//! Those XOR folds cost a few operations per word, taken eight words at a
//! time, plus fourteen parities per chunk — independent of how many bits
//! are set. The codewords are bit-identical to the per-bit definition.

use serde::{Deserialize, Serialize};

/// Data bytes covered by one codeword.
pub const CHUNK: usize = 512;

/// Encoded size of one codeword in the OOB area.
pub const CODEWORD_BYTES: usize = 4;

/// One SECDED codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Codeword {
    /// XOR of `(bit index + 1)` over all set bits of the chunk.
    pub locator: u16,
    /// Overall parity (number of set bits mod 2).
    pub parity: u8,
}

impl Codeword {
    /// Serialize to the on-flash OOB representation.
    ///
    /// An all-`0xFF` slot means "not yet written" on flash. Bytes 0–2 hold
    /// the locator and parity bit-inverted, which alone could still come
    /// out as `0xFF 0xFF 0xFF` (locator 0, parity 0); byte 3 is therefore a
    /// marker, always `0x00`, so a written slot never reads as erased. Any
    /// codeword can be programmed over an erased slot under the `1 → 0`
    /// rule.
    pub fn to_bytes(self) -> [u8; CODEWORD_BYTES] {
        [
            !(self.locator as u8),
            !((self.locator >> 8) as u8),
            !self.parity,
            0x00,
        ]
    }

    /// Parse a codeword slot; `None` if the slot is still erased.
    pub fn from_bytes(b: &[u8; CODEWORD_BYTES]) -> Option<Codeword> {
        if b == &[0xFF; CODEWORD_BYTES] {
            return None;
        }
        Some(Codeword {
            locator: (!b[0] as u16) | ((!b[1] as u16) << 8),
            parity: !b[2] & 1,
        })
    }
}

/// Result of a check-and-correct pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EccOutcome {
    /// Data matched the codeword.
    Clean,
    /// A single-bit error was found and corrected in place; the payload is
    /// the corrected bit's absolute position within the checked region.
    Corrected { bit: usize },
    /// More errors than the code can correct.
    Uncorrectable,
}

/// Bit 63 of a word: the one lane whose locator term, `64(w + 1)`, carries
/// into the word index.
const TOP: u64 = 1 << 63;

/// Bytes folded per step: eight words, so a word's place in its group
/// gives bits 0–2 of its index `w` and the group number the rest.
const GROUP_BYTES: usize = 64;

/// `LOW_LANES[j]`: the word bits `t < 63` whose locator term `t + 1` has
/// bit `j` set. Bit 63's term `64(w + 1)` has no low bits.
const LOW_LANES: [u64; 6] = {
    let mut lanes = [0u64; 6];
    let mut t = 0;
    while t < 63 {
        let mut j = 0;
        while j < 6 {
            if ((t + 1) >> j) & 1 == 1 {
                lanes[j] |= 1 << t;
            }
            j += 1;
        }
        t += 1;
    }
    lanes
};

/// XOR folds of a chunk's little-endian words: everything its codeword
/// depends on.
#[derive(Default)]
struct Folds {
    /// XOR of every word.
    all: u64,
    /// `by_index[k]`: XOR of the words whose index `w` has bit `k` set.
    /// Read on bits `t < 63`, whose locator term is `64w | (t + 1)`.
    /// `by_index[6]` stays zero, as `w < 64`.
    by_index: [u64; 7],
    /// `by_next[k]`: XOR of the words whose `w + 1` has bit `k` set. Read
    /// on bit 63, whose locator term is `64(w + 1)`.
    by_next: [u64; 7],
}

/// All-ones if bit 0 of `bit` is set, else zero.
#[inline(always)]
fn select(bit: usize) -> u64 {
    0u64.wrapping_sub(bit as u64 & 1)
}

#[inline(always)]
fn parity(v: u64) -> u16 {
    (v.count_ones() & 1) as u16
}

impl Folds {
    /// Fold words `8g .. 8g + 8`.
    #[inline(always)]
    fn add_group(&mut self, g: usize, bytes: &[u8; GROUP_BYTES]) {
        let x: [u64; 8] = std::array::from_fn(|i| {
            u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("8-byte word"))
        });
        let even = x[0] ^ x[2] ^ x[4] ^ x[6];
        let odd = x[1] ^ x[3] ^ x[5] ^ x[7];
        let sum = even ^ odd;
        self.all ^= sum;
        // Bits 0–2 of w = 8g + i are those of i ...
        self.by_index[0] ^= odd;
        self.by_index[1] ^= x[2] ^ x[3] ^ x[6] ^ x[7];
        self.by_index[2] ^= x[4] ^ x[5] ^ x[6] ^ x[7];
        // ... and of w + 1 those of i + 1, zero for the last word.
        self.by_next[0] ^= even;
        self.by_next[1] ^= x[1] ^ x[2] ^ x[5] ^ x[6];
        self.by_next[2] ^= x[3] ^ x[4] ^ x[5] ^ x[6];
        // The higher bits are those of g, except that the last word's
        // w + 1 is 8(g + 1).
        let head = sum ^ x[7];
        for k in 0..4 {
            self.by_index[3 + k] ^= sum & select(g >> k);
            self.by_next[3 + k] ^= (head & select(g >> k)) ^ (x[7] & select((g + 1) >> k));
        }
    }

    fn codeword(&self) -> Codeword {
        let mut locator = 0u16;
        for (j, &lane) in LOW_LANES.iter().enumerate() {
            locator |= parity(self.all & lane) << j;
        }
        for (k, (&index, &next)) in self.by_index.iter().zip(&self.by_next).enumerate() {
            locator |= parity((index & !TOP) | (next & TOP)) << (6 + k);
        }
        Codeword {
            locator,
            parity: parity(self.all) as u8,
        }
    }
}

/// Compute the codeword for up to [`CHUNK`] bytes of data.
///
/// Panics if `data` is longer than a chunk — callers split pages into
/// chunks with [`encode_region`].
pub fn encode_chunk(data: &[u8]) -> Codeword {
    assert!(data.len() <= CHUNK, "chunk too large: {}", data.len());
    let mut folds = Folds::default();
    let (groups, tail) = data.as_chunks::<GROUP_BYTES>();
    for (g, bytes) in groups.iter().enumerate() {
        folds.add_group(g, bytes);
    }
    if !tail.is_empty() {
        let mut padded = [0u8; GROUP_BYTES];
        padded[..tail.len()].copy_from_slice(tail);
        folds.add_group(groups.len(), &padded);
    }
    folds.codeword()
}

/// Check one chunk against its codeword, correcting a single-bit error in
/// place if possible.
pub fn check_chunk(data: &mut [u8], expected: Codeword) -> EccOutcome {
    let actual = encode_chunk(data);
    if actual == expected {
        return EccOutcome::Clean;
    }
    let delta = actual.locator ^ expected.locator;
    let parity_differs = actual.parity != expected.parity;
    if parity_differs && delta != 0 {
        // Single-bit error at position delta - 1.
        let pos = (delta - 1) as usize;
        let (byte, bit) = (pos / 8, pos % 8);
        if byte >= data.len() {
            return EccOutcome::Uncorrectable;
        }
        data[byte] ^= 1 << bit;
        // Verify the correction actually reconciles the codeword (a 3-bit
        // error can masquerade as a single-bit one at a bogus position).
        if encode_chunk(data) == expected {
            EccOutcome::Corrected { bit: pos }
        } else {
            data[byte] ^= 1 << bit; // undo
            EccOutcome::Uncorrectable
        }
    } else {
        // Same parity but different locator => even number of flips >= 2.
        // Different parity but zero locator delta => >= 3 flips.
        EccOutcome::Uncorrectable
    }
}

/// Number of codewords needed to cover `len` bytes.
#[inline]
pub fn codewords_for(len: usize) -> usize {
    len.div_ceil(CHUNK)
}

/// Encode a whole region chunk-by-chunk.
pub fn encode_region(data: &[u8]) -> Vec<Codeword> {
    data.chunks(CHUNK).map(encode_chunk).collect()
}

/// Check (and correct in place) a whole region against its codewords.
///
/// Returns the total number of corrected bits, or `Err(chunk_index)` for the
/// first uncorrectable chunk.
pub fn check_region(data: &mut [u8], codewords: &[Codeword]) -> Result<usize, usize> {
    assert_eq!(
        codewords.len(),
        codewords_for(data.len()),
        "codeword count mismatch"
    );
    let mut corrected = 0usize;
    for (i, (chunk, &cw)) in data.chunks_mut(CHUNK).zip(codewords).enumerate() {
        match check_chunk(chunk, cw) {
            EccOutcome::Clean => {}
            EccOutcome::Corrected { .. } => corrected += 1,
            EccOutcome::Uncorrectable => return Err(i),
        }
    }
    Ok(corrected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The codeword by definition, one loop turn per set bit: the oracle
    /// the word-parallel kernel must match bit for bit.
    fn encode_chunk_per_bit(data: &[u8]) -> Codeword {
        assert!(data.len() <= CHUNK, "chunk too large: {}", data.len());
        let mut locator: u16 = 0;
        let mut ones: u32 = 0;
        for (byte_idx, &b) in data.iter().enumerate() {
            if b == 0 {
                continue;
            }
            ones += b.count_ones();
            let mut bits = b;
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                let pos = byte_idx * 8 + bit;
                locator ^= (pos + 1) as u16;
                bits &= bits - 1;
            }
        }
        Codeword {
            locator,
            parity: (ones & 1) as u8,
        }
    }

    #[test]
    fn clean_round_trip() {
        let mut data = vec![0xA5u8; 300];
        let cw = encode_chunk(&data);
        assert_eq!(check_chunk(&mut data, cw), EccOutcome::Clean);
    }

    #[test]
    fn corrects_single_bit_flip() {
        let mut data: Vec<u8> = (0..CHUNK).map(|i| (i * 7) as u8).collect();
        let cw = encode_chunk(&data);
        let original = data.clone();
        data[123] ^= 0x10;
        match check_chunk(&mut data, cw) {
            EccOutcome::Corrected { bit } => assert_eq!(bit, 123 * 8 + 4),
            other => panic!("expected correction, got {other:?}"),
        }
        assert_eq!(data, original);
    }

    #[test]
    fn detects_double_bit_flip() {
        let mut data = vec![0x3Cu8; 64];
        let cw = encode_chunk(&data);
        data[1] ^= 0x01;
        data[2] ^= 0x01;
        assert_eq!(check_chunk(&mut data, cw), EccOutcome::Uncorrectable);
    }

    #[test]
    fn erased_codeword_slot_is_none() {
        assert_eq!(Codeword::from_bytes(&[0xFF; 4]), None);
    }

    #[test]
    fn codeword_bytes_round_trip() {
        let cw = Codeword {
            locator: 0xBEEF,
            parity: 1,
        };
        let b = cw.to_bytes();
        assert_eq!(Codeword::from_bytes(&b), Some(cw));
    }

    #[test]
    fn codeword_of_all_0xff_data_is_storable() {
        // Data of all 1-bits must still produce a codeword distinguishable
        // from an erased slot.
        let data = vec![0xFFu8; CHUNK];
        let cw = encode_chunk(&data);
        assert!(Codeword::from_bytes(&cw.to_bytes()).is_some());
    }

    #[test]
    fn region_helpers() {
        let mut data = vec![0u8; 8192];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        assert_eq!(codewords_for(8192), 16);
        let cws = encode_region(&data);
        assert_eq!(cws.len(), 16);
        data[5000] ^= 0x80;
        data[100] ^= 0x02;
        assert_eq!(check_region(&mut data, &cws), Ok(2));
    }

    #[test]
    fn region_uncorrectable_reports_chunk() {
        let mut data = vec![0x55u8; 1024];
        let cws = encode_region(&data);
        data[600] ^= 1;
        data[601] ^= 1;
        assert_eq!(check_region(&mut data, &cws), Err(1));
    }

    #[test]
    fn empty_region_is_trivially_clean() {
        let cws = encode_region(&[]);
        assert!(cws.is_empty());
        assert_eq!(check_region(&mut [], &cws), Ok(0));
    }

    #[test]
    fn every_single_flip_of_a_full_chunk_is_corrected() {
        let data: Vec<u8> = (0..CHUNK).map(|i| (i * 37 + 11) as u8).collect();
        let cw = encode_chunk(&data);
        for pos in 0..CHUNK * 8 {
            let mut corrupted = data.clone();
            corrupted[pos / 8] ^= 1 << (pos % 8);
            let seen = encode_chunk(&corrupted);
            assert_eq!(seen.locator ^ cw.locator, (pos + 1) as u16, "bit {pos}");
            assert_eq!(
                check_chunk(&mut corrupted, cw),
                EccOutcome::Corrected { bit: pos }
            );
            assert_eq!(corrupted, data, "bit {pos}");
        }
    }

    /// A chunk of one of the shapes the word kernel must get right: dense
    /// random, sparse (~8 % ones, like workload pages), all `0xFF`, bit 63
    /// of every word, and bit 63 of a random subset of words.
    fn shaped_chunk(shape: u8, seed: u64) -> Vec<u8> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..CHUNK)
            .map(|i| match shape {
                0 => rng.gen(),
                1 => (0..8).fold(0, |b, bit| b | u8::from(rng.gen_range(0..100) < 8) << bit),
                2 => 0xFF,
                3 => u8::from(i % 8 == 7) << 7,
                _ => u8::from(i % 8 == 7 && rng.gen()) << 7,
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The word-parallel kernel equals the per-set-bit definition on
        /// every prefix length `0..=CHUNK` of every input shape.
        #[test]
        fn word_kernel_matches_per_bit_oracle(shape in 0u8..5, seed in any::<u64>()) {
            let data = shaped_chunk(shape, seed);
            for len in 0..=CHUNK {
                let (word, bit) = (encode_chunk(&data[..len]), encode_chunk_per_bit(&data[..len]));
                prop_assert!(word == bit, "shape {} len {}: {:?} != {:?}", shape, len, word, bit);
            }
        }
    }

    proptest! {
        /// encode → check round-trips clean for any region, and a single
        /// bit flip anywhere (any chunk, including a short tail chunk) is
        /// corrected back to the original bytes.
        #[test]
        fn region_corrects_any_single_flip(
            data in proptest::collection::vec(any::<u8>(), 1..3 * CHUNK),
            flip in any::<usize>(),
        ) {
            let cws = encode_region(&data);
            let mut clean = data.clone();
            prop_assert_eq!(check_region(&mut clean, &cws), Ok(0));
            prop_assert_eq!(&clean, &data);

            let mut corrupted = data.clone();
            let bit = flip % (data.len() * 8);
            corrupted[bit / 8] ^= 1 << (bit % 8);
            prop_assert_eq!(check_region(&mut corrupted, &cws), Ok(1));
            prop_assert_eq!(corrupted, data);
        }

        /// A double flip inside one chunk is pinned to exactly that chunk
        /// index — never "corrected" into wrong data, never blamed on a
        /// neighbour.
        #[test]
        fn region_reports_the_corrupted_chunk(
            data in proptest::collection::vec(any::<u8>(), CHUNK + 1..4 * CHUNK),
            a in any::<usize>(),
            b in any::<usize>(),
            chunk_sel in any::<usize>(),
        ) {
            let cws = encode_region(&data);
            let chunk = chunk_sel % codewords_for(data.len());
            let start = chunk * CHUNK;
            let bits = (data.len() - start).min(CHUNK) * 8;
            let (pa, pb) = (a % bits, b % bits);
            prop_assume!(pa != pb);
            let mut corrupted = data.clone();
            corrupted[start + pa / 8] ^= 1 << (pa % 8);
            corrupted[start + pb / 8] ^= 1 << (pb % 8);
            prop_assert_eq!(check_region(&mut corrupted, &cws), Err(chunk));
        }

        /// Any single bit flip in any chunk is corrected back to the
        /// original data.
        #[test]
        fn corrects_any_single_flip(
            data in proptest::collection::vec(any::<u8>(), 1..CHUNK),
            flip in any::<usize>(),
        ) {
            let cw = encode_chunk(&data);
            let mut corrupted = data.clone();
            let pos = flip % (data.len() * 8);
            corrupted[pos / 8] ^= 1 << (pos % 8);
            let outcome = check_chunk(&mut corrupted, cw);
            prop_assert_eq!(outcome, EccOutcome::Corrected { bit: pos });
            prop_assert_eq!(corrupted, data);
        }

        /// Any two distinct bit flips are flagged uncorrectable — never
        /// silently "corrected" to wrong data.
        #[test]
        fn detects_any_double_flip(
            data in proptest::collection::vec(any::<u8>(), 1..CHUNK),
            a in any::<usize>(),
            b in any::<usize>(),
        ) {
            let bits = data.len() * 8;
            let (pa, pb) = (a % bits, b % bits);
            prop_assume!(pa != pb);
            let cw = encode_chunk(&data);
            let mut corrupted = data.clone();
            corrupted[pa / 8] ^= 1 << (pa % 8);
            corrupted[pb / 8] ^= 1 << (pb % 8);
            let outcome = check_chunk(&mut corrupted, cw);
            prop_assert_eq!(outcome, EccOutcome::Uncorrectable);
        }
    }
}
