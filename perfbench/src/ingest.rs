//! `ingest-durable`: pipelined INSERTs into a durable `Db` (fsync on every
//! commit, checkpoints by record count) while a second connection reads
//! the same table.

use crate::client::{self, Answer, Kind, Stmt, DEPTH};
use crate::json::Json;
use crate::replay::ReadReplay;
use crate::serve::{self, DIM, ROWS};
use crate::stats::{median, tail_percentile};
use crate::trace::Tracer;
use crate::vfs::CountingVfs;
use crate::{table_header, Config, Pass, Workload};
use bolton_bismarck::{Db, DurabilityOptions, Session};
use bolton_rng::Rng;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Auto-checkpoint after this many WAL records.
const CHECKPOINT_EVERY: u64 = 5_000;
/// INSERTs and reads per second of `--seconds`, sized so the two streams
/// run side by side for about that long on a 2-thread x86-64 machine.
const INSERT_RATE: f64 = 1_400.0;
const READ_RATE: f64 = 350.0;
/// Payload bytes of one inserted row: DIM features and a label, as f64.
const ROW_BYTES: usize = (DIM + 1) * 8;

pub struct IngestDurable;

pub struct Env {
    read: serve::Env,
    vfs: CountingVfs,
    data: PathBuf,
    acked: usize,
}

fn inserts(seed: u64, n: usize) -> Vec<Stmt> {
    let mut rng = bolton_rng::seeded(seed ^ 0x1a5e_27ed_0000_0002);
    (0..n)
        .map(|_| {
            let mut text = String::from("INSERT INTO t VALUES (");
            for _ in 0..DIM {
                let _ = write!(text, "{:.4}, ", rng.next_range(-1.0, 1.0));
            }
            text.push_str(if rng.next_bool(0.5) { "1)" } else { "-1)" });
            Stmt { kind: Kind::Insert, text }
        })
        .collect()
}

fn reads(seed: u64, n: usize) -> Vec<Stmt> {
    let mut rng = bolton_rng::seeded(seed ^ 0x0ead_0000_0003);
    (0..n)
        .map(|_| {
            if rng.next_bool(0.5) {
                Stmt { kind: Kind::Count, text: "SELECT COUNT(*) FROM t".into() }
            } else {
                Stmt { kind: Kind::EvalModel, text: "EVAL MODEL m ON t".into() }
            }
        })
        .collect()
}

/// Inserts answered so far, for pacing the reader. The insert thread wakes
/// the reader only when the count reaches what the reader waits for.
#[derive(Default)]
struct Progress {
    /// (answered, stream ended, count the reader waits for)
    state: Mutex<(usize, bool, usize)>,
    reached: Condvar,
}

impl Progress {
    fn advance(&self) {
        let mut s = self.state.lock().expect("progress lock");
        s.0 += 1;
        if s.0 == s.2 {
            self.reached.notify_one();
        }
    }

    /// No more answers will come (the insert stream ended or failed).
    fn finish(&self) {
        self.state.lock().expect("progress lock").1 = true;
        self.reached.notify_one();
    }

    fn wait_for(&self, n: usize) {
        let mut s = self.state.lock().expect("progress lock");
        s.2 = n;
        while s.0 < n && !s.1 {
            s = self.reached.wait(s).expect("progress lock");
        }
    }
}

/// Rows a read saw (`count=` or `rows=`).
fn rows_seen(r: &bolton_bismarck::Response) -> Option<usize> {
    r.get("count").or_else(|| r.get("rows")).and_then(|v| v.parse().ok())
}

fn options(data: &Path) -> DurabilityOptions {
    DurabilityOptions::new(data)
        .sync_wal(true)
        .sync_window(Duration::ZERO)
        .checkpoint_every(CHECKPOINT_EVERY)
}

impl Workload for IngestDurable {
    type Env = Env;

    fn setup(&self, cfg: &Config, dir: &Path) -> Result<Env, String> {
        let data = dir.join("data");
        let vfs = CountingVfs::default();
        let db =
            Db::open_with(options(&data).vfs(Arc::new(vfs.clone())).registry(dir.join("registry")))
                .map_err(|e| format!("open durable db: {e}"))?;
        let read = serve::setup_read_db(cfg, dir, db)?;
        Ok(Env { read, vfs, data, acked: 0 })
    }

    fn measure(&self, cfg: &Config, env: &mut Env, traced: bool) -> Result<Pass, String> {
        let ins = inserts(cfg.seed, cfg.work(INSERT_RATE));
        let rds = reads(cfg.seed, cfg.work(READ_RATE));
        let mut writer = client::connect_v2(&env.read.server)?;
        let mut reader = client::connect_v2(&env.read.server)?;
        let mut lane = if traced {
            Some((Tracer::new(Instant::now(), 1), ReadReplay::new(Arc::clone(&env.read.db), &[])?))
        } else {
            None
        };
        let mut behind = Vec::new();
        let mut kinds = std::collections::HashMap::new();
        // Read i goes out once i × (inserts ÷ reads) inserts are acked, so
        // every run's reads see the same table sizes whatever the pace.
        let progress = Progress::default();
        let per_read = ins.len() as f64 / rds.len() as f64;
        env.vfs.reset();
        crate::reset_buffer(&env.read.db);
        let start = Instant::now();
        let (ins_answers, rd_answers) = std::thread::scope(|s| {
            let w = s.spawn(|| {
                let out = client::run_v2(&mut writer, &ins, DEPTH, |_, _| progress.advance());
                progress.finish();
                out
            });
            let r = client::run_paced(
                &mut reader,
                &rds,
                |i| progress.wait_for((i as f64 * per_read) as usize),
                |i, a| {
                    if let Some((tracer, replay)) = lane.as_mut() {
                        let id = (1u64 << 32) + i as u64;
                        kinds.insert(id, rds[i].kind);
                        let lines = replay.replay(tracer, id, &rds[i], a);
                        // Inserts only add rows, so the replay, which runs after
                        // the server answered, sees at least as many.
                        let replayed = rows_seen(&bolton_bismarck::Response::from_lines(&lines));
                        if replayed < rows_seen(&a.response) {
                            behind.push(format!(
                                "{}: server {:?}, replay {lines:?}",
                                rds[i].text, a.response
                            ));
                        }
                    }
                },
            );
            (w.join().expect("insert thread"), r)
        });
        let wall_s = start.elapsed().as_secs_f64();
        let counts = env.vfs.counts();
        let (ins_answers, rd_answers) = (ins_answers?, rd_answers?);
        drop((writer, reader));

        let mut pass = Pass { wall_s, ..Pass::default() };
        for b in behind {
            pass.check(false, || format!("traced replay saw fewer rows: {b}"));
        }
        for answers in [&ins_answers, &rd_answers] {
            let (failed, shed) = client::count_failures(answers);
            pass.failed += failed;
            pass.shed += shed;
            pass.attempted += answers.len() as u64;
        }
        env.acked = ins_answers.iter().flatten().filter(|a| a.response.is_ok()).count();
        // Reads see a table that only grows, within the rows that exist.
        let mut last = ROWS;
        for (stmt, a) in rds.iter().zip(&rd_answers) {
            let Some(a) = a else { continue };
            let seen = rows_seen(&a.response);
            let ok = seen.is_some_and(|n| n >= last && n <= ROWS + ins.len());
            pass.check(
                ok || stmt.kind == Kind::EvalModel && seen.is_some_and(|n| n >= ROWS),
                || format!("{}: answered {:?} after seeing {last} rows", stmt.text, a.response),
            );
            if stmt.kind == Kind::Count {
                last = seen.unwrap_or(last);
            }
        }

        let lat = |v: &[Option<Answer>]| -> Vec<f64> {
            v.iter().flatten().map(Answer::latency_ms).collect()
        };
        let (ins_ms, rd_ms) = (lat(&ins_answers), lat(&rd_answers));
        let all: Vec<f64> = ins_ms.iter().chain(&rd_ms).copied().collect();
        let p = &mut pass.values;
        p.set("stmts_per_s", all.len() as f64 / wall_s, "1/s", all.len());
        p.set("stmt_p50_ms", median(&all), "ms", all.len());
        p.set("inserts_per_s", ins_ms.len() as f64 / wall_s, "1/s", ins_ms.len());
        p.set("insert_p50_ms", median(&ins_ms), "ms", ins_ms.len());
        p.set("read_stmts_per_s", rd_ms.len() as f64 / wall_s, "1/s", rd_ms.len());
        p.set("read_p50_ms", median(&rd_ms), "ms", rd_ms.len());
        for (name, v) in
            [("stmt_p99_ms", &all), ("insert_p99_ms", &ins_ms), ("read_p99_ms", &rd_ms)]
        {
            if let Some(p99) = tail_percentile(v, 0.99) {
                p.set(name, p99, "ms", v.len());
            }
        }
        let written = counts.wal_bytes + counts.other_bytes + counts.synced_file_bytes;
        let user = (env.acked * ROW_BYTES) as f64;
        p.set("disk_bytes_per_user_byte", written as f64 / user.max(1.0), "ratio", env.acked);
        let per_insert = |x: f64| x / env.acked.max(1) as f64;
        let fsync_ms: Vec<f64> = counts.wal_fsync_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        p.set("wal.fsyncs_per_insert", per_insert(fsync_ms.len() as f64), "ratio", fsync_ms.len());
        p.set("wal.fsync_ms.p50", median(&fsync_ms), "ms", fsync_ms.len());
        p.set(
            "wal.fsync_ms.p99",
            tail_percentile(&fsync_ms, 0.99).unwrap_or(0.0),
            "ms",
            fsync_ms.len(),
        );
        p.set("wal.bytes_per_insert", per_insert(counts.wal_bytes as f64), "B", env.acked);
        p.set(
            "checkpoint.count",
            counts.checkpoint_ns.len() as f64,
            "count",
            counts.checkpoint_ns.len(),
        );
        let ckpt_s = counts.checkpoint_ns.iter().fold(0.0, |a, &ns| a + ns as f64 / 1e9);
        p.set("checkpoint.s", ckpt_s, "s", counts.checkpoint_ns.len());
        p.set("fsyncs_total", counts.fsyncs as f64, "count", 1);

        pass.buffer_values(&env.read.db);
        pass.header.push((
            "tables".into(),
            Json::Arr(vec![table_header("t", ROWS + ins.len(), DIM, "memory")]),
        ));
        pass.header.push((
            "durability".into(),
            Json::obj([
                ("sync_on_commit", Json::Bool(true)),
                ("sync_window_us", Json::Num(0.0)),
                ("checkpoint_every_records", Json::Num(CHECKPOINT_EVERY as f64)),
                ("segment_bytes", Json::Num(bolton_bismarck::wal::DEFAULT_SEGMENT_BYTES as f64)),
            ]),
        ));
        if let Some((tracer, replay)) = lane {
            pass.spans = tracer.spans;
            pass.layers = replay.layers;
            pass.kinds = kinds;
        }
        Ok(pass)
    }

    fn finish(&self, env: Env, pass: Option<&mut Pass>) -> Result<(), String> {
        let Env { read, data, acked, .. } = env;
        let Some(pass) = pass else {
            read.server.stop();
            drop(read.db);
            let _ = std::fs::remove_dir_all(&read.dir);
            return Ok(());
        };
        // The table ends with the seed rows plus every acked insert, and a
        // fresh open of the data directory after SHUTDOWN recovers them.
        let want = ROWS + acked;
        let mut c = client::connect_v2(&read.server)?;
        let count = c.query("SELECT COUNT(*) FROM t").map_err(|e| e.to_string())?;
        pass.check(count.get("count") == Some(&want.to_string()), || {
            format!("final COUNT(*) {count:?}, want {want}")
        });
        let bye = c.request("SHUTDOWN").map_err(|e| e.to_string())?;
        pass.check(bye == ["ok bye"], || format!("SHUTDOWN answered {bye:?}"));
        drop(c);
        read.server.wait();
        drop(read.db);
        let reopened = Db::open_with(options(&data)).map_err(|e| format!("reopen: {e}"))?;
        let recovered = Session::new(Arc::new(reopened)).run("SELECT COUNT(*) FROM t");
        let recovered = recovered.map_err(|e| format!("recovered count: {e}"))?;
        pass.check(client::render(&recovered) == [format!("ok count={want}")], || {
            format!("recovered {recovered:?}, want {want}")
        });
        let _ = std::fs::remove_dir_all(&read.dir);
        Ok(())
    }
}
