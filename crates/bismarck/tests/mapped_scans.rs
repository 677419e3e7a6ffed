//! Mapped scans of DISK tables: SQL TRAIN and EVAL read rows in place from
//! the heap file's shared mapping. These tests pin that the read path is
//! invisible to answers — a mapped DISK table, the same table read through
//! the buffer pool, and a MEMORY table give bit-identical models and
//! byte-identical responses — and that a mapped scan always sees every row:
//! rows still in dirty pool frames, pages appended after an earlier scan,
//! and rows read by concurrent scans.
//!
//! Every test also passes with `BOLTON_MMAP=off` (then all three tables
//! read through the pool); only the `mapped_scans` counters differ.

use bolton_bismarck::sql::QueryResult;
use bolton_bismarck::{score_batch, Backing, Db, Session, SynthSpec, Table};
use std::path::PathBuf;
use std::sync::Arc;

const DIM: usize = 10;
const ROWS: usize = 700;

/// Whether DISK tables scan through the heap mapping in this process.
fn maps() -> bool {
    bolton_data::mmap::MMAP_SUPPORTED && !bolton_data::mmap::disabled_by_env()
}

/// Fixed synthetic rows (dim 10 ⇒ 93 rows per page, so 8 pages).
fn rows() -> Vec<(Vec<f64>, f64)> {
    let spec = SynthSpec { rows: ROWS, dim: DIM, label_noise: 0.05, feature_scale: 1.0 };
    let source =
        bolton_bismarck::synthesize("src", &spec, Backing::Memory, 64, &mut bolton_rng::seeded(41))
            .unwrap();
    let mut out = Vec::new();
    source.scan_rows(&mut |_, x, y| out.push((x.to_vec(), y))).unwrap();
    out
}

fn fill(mut table: Table, rows: &[(Vec<f64>, f64)]) -> Table {
    for (x, y) in rows {
        table.insert(x, *y).unwrap();
    }
    table
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bolton-mapped-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(session: &mut Session, stmt: &str) -> QueryResult {
    session.run(stmt).unwrap_or_else(|e| panic!("{stmt}: {e}"))
}

/// The answer's text. `QueryResult`'s `Debug` prints floats with `{:?}`,
/// exactly as the wire protocols do, so equal text means equal responses.
fn text(result: &QueryResult) -> String {
    format!("{result:?}")
}

fn bits(w: &[f64]) -> Vec<u64> {
    w.iter().map(|v| v.to_bits()).collect()
}

/// Every algorithm at batch 1, 10 and 100 trains bit-identically on a
/// mapped DISK table with a 4-frame pool, the same table read through the
/// pool, and a MEMORY table; TRAIN and EVAL answer identically; and a
/// CHECKPOINT plus reopen of the DISK table recovers its COUNT and EVAL.
#[test]
fn disk_mapped_disk_pooled_and_memory_tables_train_identically() {
    let rows = rows();
    let dir = scratch_dir("parity");
    let db = Arc::new(Db::open(&dir).unwrap());
    db.register_table(fill(Table::create("d", DIM, Backing::TempFile, 4).unwrap(), &rows)).unwrap();
    db.register_table(fill(Table::create_unmapped("p", DIM, Backing::TempFile, 4).unwrap(), &rows))
        .unwrap();
    db.register_table(fill(Table::create("m", DIM, Backing::Memory, 256).unwrap(), &rows)).unwrap();
    let mut session = Session::new(Arc::clone(&db));

    for algo in ["noiseless", "bolton", "scs13", "bst14"] {
        for batch in [1, 10, 100] {
            let mut answers = Vec::new();
            for table in ["d", "p", "m"] {
                let model = format!("w_{algo}_{batch}_{table}");
                let trained = run(
                    &mut session,
                    &format!(
                        "TRAIN {model} ON {table} ALGO {algo} EPS 1 DELTA 0.000001 LAMBDA 0.01 \
                         PASSES 2 BATCH {batch} SEED 17"
                    ),
                );
                let QueryResult::Trained { accuracy, .. } = trained else {
                    panic!("TRAIN answered {trained:?}")
                };
                let eval = run(&mut session, &format!("EVAL {model} ON {table}"));
                answers.push((bits(&db.model(&model).unwrap()), accuracy.to_bits(), text(&eval)));
            }
            assert_eq!(answers[0], answers[1], "{algo} batch {batch}: mapped vs pooled DISK");
            assert_eq!(answers[0], answers[2], "{algo} batch {batch}: DISK vs MEMORY");
        }
    }
    let (d, p) = (db.table("d").unwrap(), db.table("p").unwrap());
    let (d, p) = (d.read().unwrap().pool_stats(), p.read().unwrap().pool_stats());
    assert_eq!(p.mapped_scans, 0, "the pooled twin never maps: {p:?}");
    if maps() {
        // Two passes plus the scoring ranges per TRAIN, and EVAL's ranges.
        assert!(d.mapped_scans >= 12 * 4, "{d:?}");
        assert_eq!(d.misses, 0, "mapped DISK scans never miss the pool: {d:?}");
    }

    let w = db.model("w_bolton_10_d").unwrap();
    let eval_before = text(&run(&mut session, "EVAL w_bolton_10_d ON d"));
    let count_before = text(&run(&mut session, "SELECT COUNT(*) FROM d"));
    run(&mut session, "CHECKPOINT");
    drop(session);
    drop(db);

    let db = Arc::new(Db::open(&dir).unwrap());
    assert_eq!(db.table("d").unwrap().read().unwrap().backing(), &Backing::TempFile);
    db.put_model("w_bolton_10_d", w.as_ref().clone());
    let mut session = Session::new(Arc::clone(&db));
    assert_eq!(text(&run(&mut session, "SELECT COUNT(*) FROM d")), count_before);
    assert_eq!(text(&run(&mut session, "EVAL w_bolton_10_d ON d")), eval_before);
    assert_eq!(count_before, text(&QueryResult::Count(ROWS)));
    drop(session);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Rows inserted over SQL sit in dirty frames of a pool big enough to hold
/// the whole table; the next TRAIN, EVAL and COUNT still see every one of
/// them, answering exactly as a MEMORY table with the same rows does.
#[test]
fn rows_in_dirty_frames_are_visible_to_the_next_scan() {
    let rows = rows();
    let db = Arc::new(Db::new());
    db.create_table("d", DIM, Backing::TempFile, 64).unwrap();
    db.create_table("m", DIM, Backing::Memory, 64).unwrap();
    let mut session = Session::new(Arc::clone(&db));
    let mut answers = Vec::new();
    for table in ["d", "m"] {
        for (x, y) in &rows {
            let values: Vec<String> =
                x.iter().chain(std::iter::once(y)).map(|v| format!("{v:?}")).collect();
            run(&mut session, &format!("INSERT INTO {table} VALUES ({})", values.join(", ")));
        }
        let train = run(
            &mut session,
            &format!("TRAIN w_{table} ON {table} ALGO bolton EPS 1 LAMBDA 0.01 PASSES 2 SEED 3"),
        );
        let QueryResult::Trained { accuracy, .. } = train else { panic!("{train:?}") };
        answers.push((
            accuracy.to_bits(),
            bits(&db.model(&format!("w_{table}")).unwrap()),
            text(&run(&mut session, &format!("EVAL w_{table} ON {table}"))),
            text(&run(&mut session, &format!("SELECT COUNT(*) FROM {table}"))),
        ));
    }
    assert_eq!(answers[0], answers[1]);
    assert!(answers[0].2.starts_with(&format!("Scores {{ rows: {ROWS},")), "{}", answers[0].2);
    let stats = db.table("d").unwrap().read().unwrap().pool_stats();
    assert_eq!(stats.mapped_scans > 0, maps(), "{stats:?}");
}

/// Pages appended after a mapped scan are in the next one: the heap file
/// grew past the old mapping, so the scan remaps.
#[test]
fn pages_appended_after_a_scan_are_scanned_after_a_remap() {
    let rows = rows();
    let mut table = fill(Table::create("d", DIM, Backing::TempFile, 2).unwrap(), &rows[..50]);
    let collect = |table: &Table| {
        let mut seen = Vec::new();
        table.scan_rows(&mut |_, x, y| seen.push((x.to_vec(), y))).unwrap();
        seen
    };
    assert_eq!(collect(&table), rows[..50]);
    for (x, y) in &rows[50..] {
        table.insert(x, *y).unwrap();
    }
    assert_eq!(collect(&table), rows);
    let mut ordered = Vec::new();
    let order: Vec<usize> = (0..ROWS).rev().collect();
    bolton_sgd::TrainSet::scan_order(&table, &order, &mut |_, x, y| ordered.push((x.to_vec(), y)));
    assert!(ordered.iter().eq(rows.iter().rev()));
    assert_eq!(table.pool_stats().mapped_scans, if maps() { 3 } else { 0 });
}

/// Two threads scanning one shared DISK table, and the parallel
/// `score_batch` ranges, agree bit for bit with a sequential scan.
#[test]
fn concurrent_mapped_scans_agree_with_a_sequential_scan() {
    let rows = rows();
    let table = fill(Table::create("d", DIM, Backing::TempFile, 4).unwrap(), &rows);
    let sequential = {
        let mut seen = Vec::new();
        table.scan_rows(&mut |rid, x, y| seen.push((rid, bits(x), y.to_bits()))).unwrap();
        seen
    };
    assert_eq!(sequential.len(), ROWS);
    let model: Vec<f64> = (0..DIM).map(|j| (j as f64 - 4.5) / 7.0).collect();
    let (scans, scores) = std::thread::scope(|s| {
        let scanners: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut seen = Vec::new();
                    for _ in 0..3 {
                        seen.clear();
                        table
                            .scan_rows(&mut |rid, x, y| seen.push((rid, bits(x), y.to_bits())))
                            .unwrap();
                    }
                    seen
                })
            })
            .collect();
        let scores = score_batch(&model, &table);
        (scanners.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>(), scores)
    });
    for seen in scans {
        assert!(seen == sequential);
    }
    let expect: Vec<u64> =
        rows.iter().map(|(x, _)| bolton_sgd::metrics::score(&model, x).to_bits()).collect();
    assert_eq!(bits(&scores), expect);
}
