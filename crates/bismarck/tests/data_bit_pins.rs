//! Golden pins for everything that must not move when the privacy noise
//! sampler changes: `SYNTH` tables and noiseless `TRAIN` models. Both are
//! drawn from the data sampler (`bolton_rng::dist::standard_normal`) and
//! the PSGD engine, never from the noise sampler, so the benchmark tables
//! and every noiseless answer stay byte-identical.
//!
//! The hashes depend on the SIMD reduction lane width (SYNTH normalizes
//! its directions with a `dot`; training reduces with `dot`), so each pin
//! holds one value per width: 4 for `scalar`/`avx2`, 16 for `avx512`.
//! Both were captured before the noise sampler existed.

use bolton_bismarck::{Db, Session};
use bolton_linalg::simd;
use std::sync::Arc;

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// The pinned value for the active dispatch's lane width.
fn for_width(width4: u64, width16: u64) -> u64 {
    match simd::active().lane_width() {
        4 => width4,
        16 => width16,
        w => panic!("no pin captured for lane width {w}"),
    }
}

/// A session over `CREATE TABLE t (DIM 50)` + `SYNTH t ROWS 2000 SEED 1 NOISE 0.05`.
fn synth_session() -> (Arc<Db>, Session) {
    let db = Arc::new(Db::new());
    let mut session = Session::new(Arc::clone(&db));
    session.run("CREATE TABLE t (DIM 50)").unwrap();
    session.run("SYNTH t ROWS 2000 SEED 1 NOISE 0.05").unwrap();
    (db, session)
}

#[test]
fn synth_table_is_pinned() {
    let (db, _session) = synth_session();
    let handle = db.table("t").unwrap();
    let table = handle.read().unwrap();
    let mut words = Vec::new();
    table
        .scan_rows(&mut |_, x, y| {
            words.extend(x.iter().map(|v| v.to_bits()));
            words.push(y.to_bits());
        })
        .unwrap();
    assert_eq!(words.len(), 2000 * 51);
    let hash = fnv1a(words);
    assert_eq!(
        hash,
        for_width(0x2bbc_5c0d_8f53_774b, 0x1ce7_1f5d_a1bf_38f2),
        "SYNTH data moved: {hash:#018x}"
    );
}

#[test]
fn noiseless_train_is_pinned() {
    let (db, mut session) = synth_session();
    for (batch, width4, width16) in [
        (1, 0x9f9a_3dac_0aa2_da2a, 0xb691_e122_014f_5410),
        (10, 0xfe40_daa3_ca89_64c8, 0x1f9c_5dbb_4a19_b617),
    ] {
        let model = format!("m{batch}");
        session
            .run(&format!(
                "TRAIN {model} ON t ALGO noiseless LAMBDA 0.01 PASSES 2 BATCH {batch} SEED 3"
            ))
            .unwrap();
        let hash = fnv1a(db.model(&model).unwrap().iter().map(|w| w.to_bits()));
        assert_eq!(
            hash,
            for_width(width4, width16),
            "noiseless model at batch {batch} moved: {hash:#018x}"
        );
    }
}
