//! Micro-benchmarks for the SECDED ECC codec (controller-side cost of
//! every page write and read).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ipa_core::NmScheme;
use ipa_flash::ecc::{check_chunk, check_region, encode_chunk, encode_region};
use ipa_ftl::OobCodec;
use ipa_storage::standard_layout;

/// An 8 KB page with about 8 % of its bits set, the density of the
/// workload pages perfbench samples (`flash.page_set_bit_frac` 0.07–0.09).
/// The dense pattern pages below set half their bits.
fn sparse_page() -> Vec<u8> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    (0..8192)
        .map(|_| {
            (0..8).fold(0u8, |byte, bit| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                if (state >> 33) % 100 < 8 {
                    byte | 1 << bit
                } else {
                    byte
                }
            })
        })
        .collect()
}

fn bench_chunks(c: &mut Criterion) {
    let data: Vec<u8> = (0..512).map(|i| (i * 31) as u8).collect();
    let cw = encode_chunk(&data);

    c.bench_function("ecc/encode 512B chunk", |b| {
        b.iter(|| black_box(encode_chunk(&data)))
    });
    c.bench_function("ecc/check clean 512B chunk", |b| {
        b.iter_with_setup(|| data.clone(), |mut d| black_box(check_chunk(&mut d, cw)))
    });
    c.bench_function("ecc/correct 1-bit flip", |b| {
        b.iter_with_setup(
            || {
                let mut d = data.clone();
                d[100] ^= 0x10;
                d
            },
            |mut d| black_box(check_chunk(&mut d, cw)),
        )
    });

    let page: Vec<u8> = (0..8192).map(|i| (i * 7) as u8).collect();
    let cws = encode_region(&page);
    c.bench_function("ecc/encode 8KB region", |b| {
        b.iter(|| black_box(encode_region(&page)))
    });
    c.bench_function("ecc/check 8KB region", |b| {
        b.iter_with_setup(
            || page.clone(),
            |mut p| black_box(check_region(&mut p, &cws)),
        )
    });

    let sparse = sparse_page();
    let sparse_cws = encode_region(&sparse);
    c.bench_function("ecc/encode 8KB sparse region", |b| {
        b.iter(|| black_box(encode_region(&sparse)))
    });
    c.bench_function("ecc/check 8KB sparse region", |b| {
        b.iter_with_setup(
            || sparse.clone(),
            |mut p| black_box(check_region(&mut p, &sparse_cws)),
        )
    });
}

fn bench_oob_codec(c: &mut Criterion) {
    let layout = standard_layout(8192, NmScheme::new(2, 4));
    let codec = OobCodec::new(8192, 128, Some(layout));
    let mut page: Vec<u8> = (0..8192).map(|i| (i * 13) as u8).collect();
    layout.wipe_delta_area(&mut page);
    let oob = codec.encode_oob(&page);

    c.bench_function("oob/encode full page write", |b| {
        b.iter(|| black_box(codec.encode_oob(&page)))
    });
    c.bench_function("oob/verify clean page read", |b| {
        b.iter_with_setup(
            || page.clone(),
            |mut p| black_box(codec.verify(&mut p, &oob)),
        )
    });

    let mut sparse = sparse_page();
    layout.wipe_delta_area(&mut sparse);
    let sparse_oob = codec.encode_oob(&sparse);
    c.bench_function("oob/encode sparse page write", |b| {
        b.iter(|| black_box(codec.encode_oob(&sparse)))
    });
    c.bench_function("oob/verify sparse page read", |b| {
        b.iter_with_setup(
            || sparse.clone(),
            |mut p| black_box(codec.verify(&mut p, &sparse_oob)),
        )
    });
}

criterion_group!(benches, bench_chunks, bench_oob_codec);
criterion_main!(benches);
