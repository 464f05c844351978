//! Failure injection: the stack under hostile conditions — exhausted NOP
//! budgets, retired blocks, disturb storms, near-full devices and forced
//! unsafe appends.

use in_place_appends::core::DeltaRecord;
use in_place_appends::flash::{FlashChip, FlashStats, Nand, PageImage, Ppa};
use in_place_appends::ftl::{BlockDevice, Ftl, FtlConfig, FtlError, NativeFlashDevice};
use in_place_appends::prelude::*;
use in_place_appends::storage::standard_layout;
use ipa_testkit::quiet_slc;

#[test]
fn nop_exhaustion_falls_back_transparently() {
    // Device allows only 1 append per page; the engine must stay correct
    // by falling back to out-of-place writes once budgets run out.
    let device = DeviceConfig::small().with_nop(2); // initial program + 1 append
    let mut e = StorageEngine::build(
        device,
        EngineConfig::default()
            .with_ipa(NmScheme::new(4, 8))
            .with_buffer_frames(8),
        &[TableSpec::heap("t", 64, 64)],
    )
    .unwrap();
    let t = e.table("t").unwrap();
    let tx = e.begin();
    let mut rids = Vec::new();
    for k in 0..200u64 {
        let mut row = [0u8; 64];
        row[..8].copy_from_slice(&k.to_le_bytes());
        rids.push(e.insert(tx, t, &row).unwrap());
    }
    e.commit(tx).unwrap();
    e.flush_all().unwrap();

    // A few updates per page per flush cycle, so evictions produce
    // in-place verdicts; with NOP=2 only the first append per page
    // succeeds and every later one must fall back.
    let mut expect = vec![0u8; rids.len()];
    for round in 0..40u8 {
        for (k, rid) in rids.iter().enumerate() {
            if k % 20 == (round % 20) as usize {
                let tx = e.begin();
                e.update_field(tx, t, *rid, 16, &[round + 1]).unwrap();
                e.commit(tx).unwrap();
                expect[k] = round + 1;
            }
        }
        e.flush_all().unwrap();
    }
    let s = e.stats();
    assert!(s.pool.evict_in_place > 0, "some appends must succeed first");
    assert!(
        s.pool.in_place_fallbacks > 0,
        "NOP=2 must trigger fallbacks"
    );
    e.restart_clean().unwrap();
    for (k, rid) in rids.iter().enumerate() {
        assert_eq!(
            e.get(t, *rid).unwrap()[16],
            expect[k],
            "row {k} lost in fallback"
        );
    }
}

#[test]
fn retired_blocks_shrink_but_do_not_corrupt() {
    let mut cfg = quiet_slc(24, 8, 0);
    cfg.erase_endurance = 6; // blocks die after six erases
    let mut ftl = Ftl::new(FlashChip::new(cfg), FtlConfig::traditional());
    let data = vec![0x3Cu8; 2048];
    // Churn a small working set hard; blocks will start retiring.
    let mut writes = 0u64;
    for i in 0..3_000u64 {
        match ftl.write(i % 16, &data) {
            Ok(()) => writes += 1,
            Err(FtlError::DeviceFull) => break, // all spares eventually die
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    assert!(
        writes > 500,
        "device died implausibly early ({writes} writes)"
    );
    // Whatever is still mapped must read back intact.
    let mut buf = vec![0u8; 2048];
    for lba in 0..16u64 {
        if ftl.read(lba, &mut buf).is_ok() {
            assert!(buf.iter().all(|&b| b == 0x3C));
        }
    }
}

/// Run the §3 append storm — N×M deltas hammered into every page between
/// periodic rewrites — on the given flash mode, and count uncorrectable
/// reads. The `unsafe_ipa` override lets the storm run on modes the
/// safety policy would normally refuse.
fn append_storm(mode: FlashMode, unsafe_ipa: bool) -> u64 {
    let scheme = NmScheme::new(8, 8);
    let layout = standard_layout(2048, scheme);
    let device = DeviceConfig::new(Geometry::new(32, 32, 2048, 128), mode)
        .with_nop(16)
        .with_seed(99);
    let config = if unsafe_ipa {
        FtlConfig::ipa_native(layout).with_unsafe_ipa()
    } else {
        FtlConfig::ipa_native(layout)
    };
    let mut ftl = Ftl::new(FlashChip::new(device), config);
    let blank = vec![0xFFu8; 2048];
    for lba in 0..32u64 {
        ftl.write(lba, &blank).unwrap();
    }
    let meta = vec![0u8; layout.meta_len()];
    let mut uncorrectable = 0u64;
    let mut buf = vec![0u8; 2048];
    'outer: for round in 0..60u16 {
        for lba in 0..32u64 {
            let slot = round % scheme.n;
            if slot == 0 && round > 0 {
                ftl.write(lba, &blank).unwrap();
            }
            let rec = DeltaRecord::new(vec![(40, 0)], meta.clone(), scheme);
            let res = ftl.write_delta(lba, layout.record_offset(slot), &rec.encode(&layout));
            if !unsafe_ipa {
                // On a safe mode every append must be accepted outright.
                res.unwrap();
            }
        }
        for lba in 0..32u64 {
            match ftl.read(lba, &mut buf) {
                Ok(()) => {}
                Err(FtlError::Uncorrectable { .. }) => {
                    uncorrectable += 1;
                    if uncorrectable > 3 {
                        break 'outer;
                    }
                    ftl.write(lba, &blank).unwrap();
                }
                Err(e) => panic!("unexpected: {e}"),
            }
        }
    }
    uncorrectable
}

#[test]
fn forced_unsafe_appends_corrupt_data_eventually() {
    // The negative control for the paper's §3: running IPA on full-MLC
    // pages (explicitly overriding the safety policy) must produce
    // ECC-visible damage — otherwise our interference model is vacuous.
    assert!(
        append_storm(FlashMode::MlcFull, true) > 0,
        "unsafe MLC appends must eventually defeat SECDED"
    );
}

#[test]
fn safe_modes_stay_clean_under_the_same_storm() {
    // Positive control: the identical append storm on pSLC produces zero
    // data loss.
    assert_eq!(append_storm(FlashMode::PSlc, false), 0);
}

#[test]
fn table_region_exhaustion_is_a_clean_error() {
    let mut e = StorageEngine::build(
        DeviceConfig::small(),
        EngineConfig::default(),
        &[TableSpec::heap("tiny", 100, 2)],
    )
    .unwrap();
    let t = e.table("tiny").unwrap();
    let tx = e.begin();
    let mut inserted = 0;
    loop {
        match e.insert(tx, t, &[0u8; 100]) {
            Ok(_) => inserted += 1,
            Err(in_place_appends::storage::StorageError::TableFull(name)) => {
                assert_eq!(name, "tiny");
                break;
            }
            Err(err) => panic!("unexpected: {err}"),
        }
        assert!(inserted < 1_000, "TableFull never reported");
    }
    e.commit(tx).unwrap();
    assert!(inserted > 100, "two 8 KB pages hold well over 100 rows");
}

/// A chip whose first firmware-internal (GC) read finds two flipped bits
/// in the first ECC chunk of its page — more than SECDED can repair.
struct FlipsOnFirstMigration {
    chip: FlashChip,
    armed: bool,
}

impl Nand for FlipsOnFirstMigration {
    fn geometry(&self) -> Geometry {
        *self.chip.geometry()
    }
    fn mode(&self) -> FlashMode {
        self.chip.mode()
    }
    fn flash_stats(&self) -> FlashStats {
        *self.chip.stats()
    }
    fn elapsed_ns(&self) -> u64 {
        self.chip.elapsed_ns()
    }
    fn nop_limit(&self, page: u32) -> u16 {
        self.chip.nop_limit(page)
    }
    fn is_erased(&self, ppa: Ppa) -> in_place_appends::flash::Result<bool> {
        self.chip.is_erased(ppa)
    }
    fn program_count(&self, ppa: Ppa) -> in_place_appends::flash::Result<u16> {
        self.chip.program_count(ppa)
    }
    fn erase_count(&self, block: u32) -> in_place_appends::flash::Result<u32> {
        self.chip.erase_count(block)
    }
    fn max_erase_count(&self) -> u32 {
        self.chip.max_erase_count()
    }
    fn is_bad(&self, block: u32) -> bool {
        self.chip.is_bad(block)
    }
    fn peek_data(&self, ppa: Ppa) -> Option<Vec<u8>> {
        self.chip.peek_data(ppa).map(<[u8]>::to_vec)
    }
    fn peek_oob(&self, ppa: Ppa) -> Option<Vec<u8>> {
        self.chip.peek_oob(ppa).map(<[u8]>::to_vec)
    }
    fn read_page(&mut self, ppa: Ppa) -> in_place_appends::flash::Result<PageImage> {
        self.chip.read_page(ppa)
    }
    fn copyback_read(&mut self, ppa: Ppa) -> in_place_appends::flash::Result<PageImage> {
        let mut img = self.chip.read_page(ppa)?;
        if std::mem::take(&mut self.armed) {
            img.data[10] ^= 0x01;
            img.data[11] ^= 0x01;
        }
        Ok(img)
    }
    fn program_page(
        &mut self,
        ppa: Ppa,
        data: &[u8],
        oob: &[u8],
    ) -> in_place_appends::flash::Result<()> {
        self.chip.program_page(ppa, data, oob)
    }
    fn reprogram_page(
        &mut self,
        ppa: Ppa,
        data: &[u8],
        oob: &[u8],
    ) -> in_place_appends::flash::Result<()> {
        self.chip.reprogram_page(ppa, data, oob)
    }
    fn append_region(
        &mut self,
        ppa: Ppa,
        data_off: usize,
        bytes: &[u8],
        oob_off: usize,
        oob_bytes: &[u8],
    ) -> in_place_appends::flash::Result<()> {
        self.chip
            .append_region(ppa, data_off, bytes, oob_off, oob_bytes)
    }
    fn erase_block(&mut self, block: u32) -> in_place_appends::flash::Result<()> {
        self.chip.erase_block(block)
    }
}

#[test]
fn gc_migration_keeps_an_uncorrectable_page_uncorrectable() {
    // GC moves a page it cannot correct. The host read of that LBA must
    // report the loss, not return the damaged bits under fresh codewords.
    let chip = FlipsOnFirstMigration {
        chip: FlashChip::new(quiet_slc(24, 8, 0)),
        armed: true,
    };
    let mut ftl = Ftl::new(chip, FtlConfig::traditional());
    let lbas = ftl.capacity_pages();
    let page = |lba: u64, round: u8| vec![(lba as u8).wrapping_mul(29) ^ round; 2048];
    let mut round = vec![0u8; lbas as usize];
    for lba in 0..lbas {
        ftl.write(lba, &page(lba, 0)).unwrap();
    }
    // Scattered overwrites leave valid pages in every victim, so GC soon
    // has to migrate one.
    for i in 0..2_000u64 {
        if ftl.device_stats().gc_page_migrations > 0 {
            break;
        }
        let lba = i * 37 % lbas;
        round[lba as usize] = round[lba as usize].wrapping_add(1);
        ftl.write(lba, &page(lba, round[lba as usize])).unwrap();
    }
    assert!(ftl.device_stats().gc_page_migrations > 0, "GC never ran");
    assert_eq!(ftl.device_stats().uncorrectable_reads, 1, "GC saw the loss");

    let mut buf = vec![0u8; 2048];
    let mut lost = 0;
    for lba in 0..lbas {
        match ftl.read(lba, &mut buf) {
            Ok(()) => assert_eq!(
                buf,
                page(lba, round[lba as usize]),
                "LBA {lba} silently wrong"
            ),
            Err(FtlError::Uncorrectable { .. }) => lost += 1,
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    assert_eq!(lost, 1, "exactly the damaged page reads as lost");
}
