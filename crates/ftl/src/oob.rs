//! OOB-area codec — Figure 3's `ECC_initial … ECC_delta_rec 1..N` layout.
//!
//! The OOB area of every flash page holds:
//!
//! ```text
//! ┌──────────────────────────────┬──────────┬───┬──────────┐
//! │ ECC_initial (k codewords)    │ ECC_rec 0│ … │ ECC_rec N-1 │ … erased
//! └──────────────────────────────┴──────────┴───┴──────────┘
//! ```
//!
//! * `ECC_initial` covers the page image *minus the delta-record area*
//!   (header + body + footer) — the bytes that never change between an
//!   out-of-place write and the next erase.
//! * `ECC_rec i` covers delta record slot `i` alone and is appended into
//!   its own erased OOB slot together with the record, so the append stays
//!   a legal `1 → 0` program on both planes.
//!
//! Without an IPA layout the whole page is covered by `ECC_initial`.

use std::ops::Range;

use ipa_core::PageLayout;
use ipa_flash::ecc::{
    check_chunk, codewords_for, encode_chunk, Codeword, EccOutcome, CHUNK, CODEWORD_BYTES,
};

/// Per-page-format OOB codec.
#[derive(Debug, Clone)]
pub struct OobCodec {
    page_size: usize,
    oob_size: usize,
    layout: Option<PageLayout>,
    initial_codewords: usize,
}

/// Result of verifying a page against its OOB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyOutcome {
    /// Bits corrected across the initial region and all records.
    pub corrected_bits: u64,
}

/// The page had more bit errors than SECDED can repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UncorrectableError;

impl std::fmt::Display for UncorrectableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "uncorrectable ECC error")
    }
}

impl std::error::Error for UncorrectableError {}

impl OobCodec {
    /// Build a codec; panics if the OOB area cannot hold the codewords the
    /// format needs (a configuration error, caught at device setup).
    pub fn new(page_size: usize, oob_size: usize, layout: Option<PageLayout>) -> Self {
        if let Some(l) = &layout {
            assert_eq!(l.page_size, page_size, "layout/page size mismatch");
            assert!(
                l.record_size() <= CHUNK,
                "delta record ({} B) exceeds one ECC chunk ({CHUNK} B)",
                l.record_size()
            );
        }
        let initial_len = match &layout {
            Some(l) => page_size - l.delta_area_len(),
            None => page_size,
        };
        let initial_codewords = codewords_for(initial_len);
        let records = layout.as_ref().map(|l| l.scheme.n as usize).unwrap_or(0);
        let needed = (initial_codewords + records) * CODEWORD_BYTES;
        assert!(
            needed <= oob_size,
            "OOB too small: need {needed} B (ECC_initial {initial_codewords} cw + {records} \
             record cw), have {oob_size} B"
        );
        OobCodec {
            page_size,
            oob_size,
            layout,
            initial_codewords,
        }
    }

    #[inline]
    pub fn layout(&self) -> Option<&PageLayout> {
        self.layout.as_ref()
    }

    /// OOB byte offset of delta record `i`'s codeword.
    #[inline]
    pub fn record_oob_offset(&self, i: u16) -> usize {
        (self.initial_codewords + i as usize) * CODEWORD_BYTES
    }

    /// Where `ECC_initial` chunk `i` lives in the page: its bytes are
    /// `page[a]` followed by `page[b]`. `b` is empty except for the one
    /// chunk that straddles the delta-record area, whose head lies before
    /// the area and whose tail after it.
    fn initial_chunk(&self, i: usize) -> (Range<usize>, Range<usize>) {
        let gap = match &self.layout {
            Some(l) => l.delta_area_range(),
            None => self.page_size..self.page_size,
        };
        let start = i * CHUNK;
        let end = (start + CHUNK).min(self.page_size - gap.len());
        let after = |off: usize| off + gap.len();
        if end <= gap.start {
            (start..end, 0..0)
        } else if start >= gap.start {
            (after(start)..after(end), 0..0)
        } else {
            (start..gap.start, gap.end..after(end))
        }
    }

    /// The straddling chunk's two parts, copied into one buffer; returns
    /// the buffer and the chunk's length.
    fn gather(page: &[u8], a: &Range<usize>, b: &Range<usize>) -> ([u8; CHUNK], usize) {
        let mut buf = [0u8; CHUNK];
        let n = a.len() + b.len();
        buf[..a.len()].copy_from_slice(&page[a.clone()]);
        buf[a.len()..n].copy_from_slice(&page[b.clone()]);
        (buf, n)
    }

    /// Build the full OOB image for an out-of-place page write: initial
    /// codewords, record codewords for any records already present in the
    /// image (migration batches carry them along), erased elsewhere.
    pub fn encode_oob(&self, page: &[u8]) -> Vec<u8> {
        debug_assert_eq!(page.len(), self.page_size);
        let mut oob = vec![0xFFu8; self.oob_size];
        for i in 0..self.initial_codewords {
            let cw = match self.initial_chunk(i) {
                (a, b) if b.is_empty() => encode_chunk(&page[a]),
                (a, b) => {
                    let (buf, n) = Self::gather(page, &a, &b);
                    encode_chunk(&buf[..n])
                }
            };
            let off = i * CODEWORD_BYTES;
            oob[off..off + CODEWORD_BYTES].copy_from_slice(&cw.to_bytes());
        }
        if let Some(l) = &self.layout {
            for i in 0..l.scheme.n {
                let slot = self.record_slice(page, i);
                if slot[0] != 0xFF {
                    let cw = encode_chunk(slot);
                    let off = self.record_oob_offset(i);
                    oob[off..off + CODEWORD_BYTES].copy_from_slice(&cw.to_bytes());
                }
            }
        }
        oob
    }

    /// Codeword bytes for one delta record slot image (the OOB append that
    /// accompanies a `write_delta`).
    pub fn encode_record(&self, record_bytes: &[u8]) -> [u8; CODEWORD_BYTES] {
        encode_chunk(record_bytes).to_bytes()
    }

    fn record_slice<'a>(&self, page: &'a [u8], i: u16) -> &'a [u8] {
        let l = self.layout.as_ref().expect("record access requires layout");
        let off = l.record_offset(i);
        &page[off..off + l.record_size()]
    }

    /// The codeword slot at OOB byte `off`.
    fn slot(oob: &[u8], off: usize) -> &[u8; CODEWORD_BYTES] {
        oob[off..off + CODEWORD_BYTES]
            .try_into()
            .expect("slot width")
    }

    /// Bits one chunk check corrected, or the loss it found.
    fn tally(outcome: EccOutcome) -> Result<u64, UncorrectableError> {
        match outcome {
            EccOutcome::Clean => Ok(0),
            EccOutcome::Corrected { .. } => Ok(1),
            EccOutcome::Uncorrectable => Err(UncorrectableError),
        }
    }

    /// Verify a page image against its OOB, correcting single-bit errors
    /// in place. On `Err` the page may already hold the corrections made
    /// to chunks checked before the loss was found.
    pub fn verify(&self, page: &mut [u8], oob: &[u8]) -> Result<VerifyOutcome, UncorrectableError> {
        debug_assert_eq!(page.len(), self.page_size);
        debug_assert_eq!(oob.len(), self.oob_size);
        let mut corrected = 0u64;

        // 1. Initial region, checked and corrected where it lies.
        for i in 0..self.initial_codewords {
            // An erased codeword for a programmed page is data loss: the
            // write path always writes ECC_initial.
            let cw = Codeword::from_bytes(Self::slot(oob, i * CODEWORD_BYTES))
                .ok_or(UncorrectableError)?;
            let outcome = match self.initial_chunk(i) {
                (a, b) if b.is_empty() => check_chunk(&mut page[a], cw),
                (a, b) => {
                    let (mut buf, n) = Self::gather(page, &a, &b);
                    let outcome = check_chunk(&mut buf[..n], cw);
                    if let EccOutcome::Corrected { .. } = outcome {
                        page[a.clone()].copy_from_slice(&buf[..a.len()]);
                        page[b].copy_from_slice(&buf[a.len()..n]);
                    }
                    outcome
                }
            };
            corrected += Self::tally(outcome)?;
        }

        // 2. Delta records: verify exactly those slots whose OOB codeword
        //    was written. The OOB marker is authoritative — a disturbed
        //    control byte in the data area cannot fabricate a record.
        if let Some(l) = self.layout {
            for i in 0..l.scheme.n {
                let Some(cw) = Codeword::from_bytes(Self::slot(oob, self.record_oob_offset(i)))
                else {
                    continue;
                };
                let roff = l.record_offset(i);
                corrected += Self::tally(check_chunk(&mut page[roff..roff + l.record_size()], cw))?;
            }
        }
        Ok(VerifyOutcome {
            corrected_bits: corrected,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_core::{write_record_into, DeltaRecord, NmScheme};
    use ipa_flash::ecc::{check_region, encode_region};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn layout() -> PageLayout {
        PageLayout::new(2048, 24, 8, NmScheme::new(2, 4))
    }

    fn codec() -> OobCodec {
        OobCodec::new(2048, 64, Some(layout()))
    }

    fn sample_page(l: &PageLayout) -> Vec<u8> {
        let mut p: Vec<u8> = (0..l.page_size).map(|i| (i % 251) as u8).collect();
        l.wipe_delta_area(&mut p);
        p
    }

    #[test]
    fn clean_page_verifies() {
        let l = layout();
        let c = codec();
        let mut page = sample_page(&l);
        let oob = c.encode_oob(&page);
        let out = c.verify(&mut page, &oob).unwrap();
        assert_eq!(out.corrected_bits, 0);
    }

    #[test]
    fn corrects_body_flip() {
        let l = layout();
        let c = codec();
        let mut page = sample_page(&l);
        let oob = c.encode_oob(&page);
        let original = page.clone();
        page[100] ^= 0x40;
        let out = c.verify(&mut page, &oob).unwrap();
        assert_eq!(out.corrected_bits, 1);
        assert_eq!(page, original);
    }

    #[test]
    fn detects_double_flip_in_one_chunk() {
        let l = layout();
        let c = codec();
        let mut page = sample_page(&l);
        let oob = c.encode_oob(&page);
        page[10] ^= 1;
        page[11] ^= 1;
        assert!(c.verify(&mut page, &oob).is_err());
    }

    #[test]
    fn record_append_round_trip() {
        let l = layout();
        let c = codec();
        let mut page = sample_page(&l);
        let mut oob = c.encode_oob(&page);

        // Append record 0 the way write_delta would.
        let rec = DeltaRecord::new(vec![(30, 0x77)], vec![1; l.meta_len()], l.scheme);
        write_record_into(&mut page, &l, 0, &rec);
        let roff = l.record_offset(0);
        let cw = c.encode_record(&page[roff..roff + l.record_size()]);
        let ooff = c.record_oob_offset(0);
        oob[ooff..ooff + CODEWORD_BYTES].copy_from_slice(&cw);

        let out = c.verify(&mut page, &oob).unwrap();
        assert_eq!(out.corrected_bits, 0);

        // Flip one bit inside the record: corrected independently.
        let original = page.clone();
        page[roff + 2] ^= 0x08;
        let out = c.verify(&mut page, &oob).unwrap();
        assert_eq!(out.corrected_bits, 1);
        assert_eq!(page, original);
    }

    #[test]
    fn disturbed_control_byte_without_oob_marker_is_ignored() {
        // A 1→0 disturb flip can make an erased control byte (0xFF) look
        // "present" (bit 7 cleared). The OOB marker is the authority: no
        // codeword ⇒ slot not verified, and decode-side sanity checks
        // reject the garbage.
        let l = layout();
        let c = codec();
        let mut page = sample_page(&l);
        let oob = c.encode_oob(&page);
        let roff = l.record_offset(0);
        page[roff] &= 0x7F; // disturb: control byte bit 7 → 0
                            // Initial region does not cover the delta area, so verify passes.
        assert!(c.verify(&mut page, &oob).is_ok());
    }

    #[test]
    fn plain_codec_covers_whole_page() {
        let c = OobCodec::new(2048, 64, None);
        let mut page: Vec<u8> = (0..2048).map(|i| (i % 7) as u8).collect();
        let oob = c.encode_oob(&page);
        page[2000] ^= 2;
        let out = c.verify(&mut page, &oob).unwrap();
        assert_eq!(out.corrected_bits, 1);
    }

    #[test]
    fn erased_initial_codeword_is_data_loss() {
        let c = OobCodec::new(2048, 64, None);
        let mut page = vec![0u8; 2048];
        let oob = vec![0xFFu8; 64];
        assert!(c.verify(&mut page, &oob).is_err());
    }

    #[test]
    #[should_panic(expected = "OOB too small")]
    fn oversubscribed_oob_rejected() {
        // 2048-byte page → 4 initial codewords (16 B) + 16 records (64 B)
        // = 80 B > 32 B.
        let l = PageLayout::new(2048, 24, 8, NmScheme::new(16, 4));
        let _ = OobCodec::new(2048, 32, Some(l));
    }

    #[test]
    fn record_oob_offsets_follow_initial_codewords() {
        let c = codec();
        // 2048 - 90 = 1958 bytes → 4 codewords → records start at 16.
        assert_eq!(c.record_oob_offset(0), 16);
        assert_eq!(c.record_oob_offset(1), 20);
    }

    /// The bytes `ECC_initial` covers, concatenated, and the delta-record
    /// area they skip (empty without a layout).
    fn initial_region_by_copy(c: &OobCodec, page: &[u8]) -> (Vec<u8>, Range<usize>) {
        let gap = c
            .layout
            .map_or(c.page_size..c.page_size, |l| l.delta_area_range());
        ([&page[..gap.start], &page[gap.end..]].concat(), gap)
    }

    /// The copy-based verify the codec used to run: gather `ECC_initial`'s
    /// bytes into a fresh buffer, check them as one region, scatter them
    /// back; records are checked in place. The oracle for the in-place
    /// [`OobCodec::verify`].
    fn verify_by_copy(
        c: &OobCodec,
        page: &mut [u8],
        oob: &[u8],
    ) -> Result<u64, UncorrectableError> {
        let (mut region, gap) = initial_region_by_copy(c, page);
        let cws = (0..c.initial_codewords)
            .map(|i| Codeword::from_bytes(OobCodec::slot(oob, i * CODEWORD_BYTES)))
            .collect::<Option<Vec<_>>>()
            .ok_or(UncorrectableError)?;
        let mut corrected = check_region(&mut region, &cws).map_err(|_| UncorrectableError)? as u64;
        page[..gap.start].copy_from_slice(&region[..gap.start]);
        page[gap.end..].copy_from_slice(&region[gap.start..]);
        if let Some(l) = c.layout {
            for i in 0..l.scheme.n {
                if let Some(cw) = Codeword::from_bytes(OobCodec::slot(oob, c.record_oob_offset(i)))
                {
                    let roff = l.record_offset(i);
                    let rec = &mut page[roff..roff + l.record_size()];
                    corrected += OobCodec::tally(check_chunk(rec, cw))?;
                }
            }
        }
        Ok(corrected)
    }

    /// A codec whose delta-record area sits wherever `footer` puts it:
    /// most footers make one `ECC_initial` chunk straddle the area, some
    /// align it to a chunk boundary, `None` covers the whole page.
    fn any_codec(page_size: usize, footer: Option<usize>, n: u16) -> OobCodec {
        let layout = footer.map(|f| PageLayout::new(page_size, 24, f, NmScheme::new(n, 4)));
        OobCodec::new(page_size, 128, layout)
    }

    proptest! {
        /// In-place encode and verify agree with the copy-based ones:
        /// same codewords; same outcome, corrected page and corrected-bit
        /// count under up to three flips, half of them aimed at the chunk
        /// that straddles the delta-record area.
        #[test]
        fn in_place_verify_matches_copy_based(
            big in any::<bool>(),
            footer in 0usize..460,
            plain in any::<bool>(),
            n in 1u16..5,
            records in 0u16..5,
            flips in 0usize..4,
            seed in any::<u64>(),
        ) {
            let page_size = if big { 4096 } else { 2048 };
            // Leave the layout some body bytes.
            prop_assume!(24 + footer + n as usize * (37 + footer) < page_size);
            let c = any_codec(page_size, (!plain).then_some(footer), n);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut page: Vec<u8> = (0..page_size).map(|_| rng.gen()).collect();
            if let Some(l) = c.layout {
                l.wipe_delta_area(&mut page);
            }
            let mut oob = c.encode_oob(&page);
            let (region, _) = initial_region_by_copy(&c, &page);
            for (i, cw) in encode_region(&region).into_iter().enumerate() {
                prop_assert_eq!(Codeword::from_bytes(OobCodec::slot(&oob, i * CODEWORD_BYTES)), Some(cw));
            }
            if let Some(l) = c.layout {
                for i in 0..records.min(n) {
                    let meta = vec![i as u8; l.meta_len()];
                    let rec = DeltaRecord::new(vec![(30 + i, rng.gen())], meta, l.scheme);
                    write_record_into(&mut page, &l, i, &rec);
                    let cw = c.encode_record(c.record_slice(&page, i));
                    let off = c.record_oob_offset(i);
                    oob[off..off + CODEWORD_BYTES].copy_from_slice(&cw);
                }
            }
            let straddle = (0..c.initial_codewords)
                .map(|i| c.initial_chunk(i))
                .find(|(_, b)| !b.is_empty());
            for _ in 0..flips {
                let byte = match &straddle {
                    Some((a, b)) if rng.gen() => {
                        let k = rng.gen_range(0..a.len() + b.len());
                        if k < a.len() { a.start + k } else { b.start + k - a.len() }
                    }
                    _ => rng.gen_range(0..page_size),
                };
                page[byte] ^= 1u8 << rng.gen_range(0..8);
            }
            let (mut in_place, mut by_copy) = (page.clone(), page);
            let got = c.verify(&mut in_place, &oob).map(|o| o.corrected_bits);
            let want = verify_by_copy(&c, &mut by_copy, &oob);
            prop_assert_eq!(got, want);
            if want.is_ok() {
                prop_assert_eq!(in_place, by_copy);
            }
        }
    }
}
