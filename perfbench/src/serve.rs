//! `serve-read` (two pipelined v2 connections) and `interactive-v1` (one
//! v1 connection, one statement at a time) over the same read mix on a
//! memory table that fits the buffer pool.

use crate::client::{self, Answer, Expected, Kind, Stmt, DEPTH};
use crate::json::Json;
use crate::replay::{Layers, ReadReplay};
use crate::stats::{median, tail_percentile};
use crate::trace::{Span, Tracer};
use crate::{table_header, Config, Pass, Workload};
use bolton_bismarck::server::Client;
use bolton_bismarck::{Db, Response, RunningServer};
use bolton_rng::Rng;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

pub const ROWS: usize = 4_000;
pub const DIM: usize = 16;
pub const PREPARE: &str = "PREPARE q AS SELECT AVG($1) FROM t";
/// Share of statements that carry a per-request literal (the private
/// count's seed), so the parse cache sees misses.
pub const LITERAL_SHARE: f64 = 0.2;
/// Statements per second of `--seconds` each workload is sized for on a
/// 2-thread x86-64 machine.
const SERVE_RATE: f64 = 4_000.0;
const V1_RATE: f64 = 20.0;

/// The read mix: 30% `SELECT COUNT(*)`, 20% `EVAL MODEL`, 30% `EXECUTE`
/// of the prepared AVG over one of the 16 columns, 20% private counts
/// with a fresh seed literal each.
pub fn read_mix(seed: u64, n: usize, lane: u64) -> Vec<Stmt> {
    let mut rng = bolton_rng::seeded(seed ^ (lane << 48) ^ 0x5e7e_d5ee_d000_0001);
    (0..n)
        .map(|i| {
            let u = rng.next_f64();
            if u < 0.3 {
                Stmt { kind: Kind::Count, text: "SELECT COUNT(*) FROM t".into() }
            } else if u < 0.5 {
                Stmt { kind: Kind::EvalModel, text: "EVAL MODEL m ON t".into() }
            } else if u < 1.0 - LITERAL_SHARE {
                let col = rng.next_index(DIM);
                Stmt { kind: Kind::Execute, text: format!("EXECUTE q ({col})") }
            } else {
                let literal = (lane << 32) + i as u64;
                Stmt {
                    kind: Kind::PrivateCount,
                    text: format!("SELECT PRIVATE COUNT(*) FROM t EPS 0.5 SEED {literal}"),
                }
            }
        })
        .collect()
}

pub struct Env {
    pub server: RunningServer,
    pub db: Arc<Db>,
    pub dir: PathBuf,
}

/// Server on a `Db` with a model registry; a memory table of `rows` × 16
/// and the model `m` trained on it and saved. The set-up connection is
/// closed before the measured work starts.
pub fn setup_read_db(cfg: &Config, dir: &Path, db: Db) -> Result<Env, String> {
    let db = Arc::new(db);
    let server = client::start_server(Arc::clone(&db))?;
    let mut c = client::connect_v2(&server)?;
    client::expect_ok(&mut c, &format!("CREATE TABLE t (DIM {DIM}) MEMORY"))?;
    client::expect_ok(&mut c, &format!("SYNTH t ROWS {ROWS} SEED {} NOISE 0.05", cfg.seed))?;
    client::expect_ok(
        &mut c,
        &format!("TRAIN m ON t ALGO bolton EPS 1 LAMBDA 0.01 PASSES 2 BATCH 10 SEED {}", cfg.seed),
    )?;
    client::expect_ok(&mut c, "SAVE MODEL m")?;
    Ok(Env { server, db, dir: dir.to_path_buf() })
}

fn setup(cfg: &Config, dir: &Path) -> Result<Env, String> {
    let db = Db::with_registry(dir.join("registry")).map_err(|e| format!("registry: {e}"))?;
    setup_read_db(cfg, dir, db)
}

fn teardown(env: Env) {
    env.server.stop();
    drop(env.db);
    let _ = std::fs::remove_dir_all(&env.dir);
}

/// Latency figures over the answered statements, and the failure counts.
pub fn summarize(pass: &mut Pass, answers: &[&Option<Answer>], wall_s: f64) {
    let latencies: Vec<f64> = answers.iter().copied().flatten().map(Answer::latency_ms).collect();
    pass.attempted += answers.len() as u64;
    pass.values.set("stmts_per_s", answers.len() as f64 / wall_s, "1/s", answers.len());
    pass.values.set("stmt_p50_ms", median(&latencies), "ms", latencies.len());
    if let Some(p99) = tail_percentile(&latencies, 0.99) {
        pass.values.set("stmt_p99_ms", p99, "ms", latencies.len());
    }
}

/// Checks every answer against in-process `Session::run` of its text.
fn check_answers(
    pass: &mut Pass,
    expected: &mut Expected,
    stmts: &[Stmt],
    answers: &[Option<Answer>],
) {
    for (stmt, answer) in stmts.iter().zip(answers) {
        let Some(answer) = answer else { continue };
        let want = expected.lines(&stmt.text);
        let ok = match &answer.lines {
            // Raw lines (v1): byte-identical.
            Some(lines) => *lines == want,
            None => answer.response == Response::from_lines(&want),
        };
        pass.check(ok, || {
            format!("{}: server {:?}, in-process {want:?}", stmt.text, answer.response)
        });
    }
}

fn failures_of(pass: &mut Pass, answers: &[Option<Answer>]) {
    let (failed, shed) = client::count_failures(answers);
    pass.failed += failed;
    pass.shed += shed;
}

/// One lane's traced state: its span recorder, the in-process replay, and
/// the statement ids it replayed.
struct Lane {
    tracer: Tracer,
    replay: ReadReplay,
    kinds: HashMap<u64, Kind>,
    mismatches: Vec<String>,
}

impl Lane {
    fn new(db: &Arc<Db>, epoch: Instant, lane: u32) -> Result<Lane, String> {
        Ok(Lane {
            tracer: Tracer::new(epoch, lane),
            replay: ReadReplay::new(Arc::clone(db), &[PREPARE])?,
            kinds: HashMap::new(),
            mismatches: Vec::new(),
        })
    }

    /// Replays statement `i` of this lane; the replayed answer must equal
    /// the server's.
    fn replay(&mut self, lane: u32, i: usize, stmt: &Stmt, answer: &Answer) {
        let id = (u64::from(lane) << 32) + i as u64;
        self.kinds.insert(id, stmt.kind);
        let lines = self.replay.replay(&mut self.tracer, id, stmt, answer);
        if Response::from_lines(&lines) != answer.response && self.mismatches.len() < 5 {
            self.mismatches
                .push(format!("{}: server {:?}, replay {lines:?}", stmt.text, answer.response));
        }
    }
}

fn merge_lanes(pass: &mut Pass, lanes: Vec<Lane>) {
    let mut spans: Vec<Span> = Vec::new();
    let mut layers = Layers::default();
    for lane in lanes {
        for m in lane.mismatches {
            pass.check(false, || format!("traced replay differs: {m}"));
        }
        spans.extend(lane.tracer.spans);
        layers.merge(lane.replay.layers);
        pass.kinds.extend(lane.kinds);
    }
    pass.spans = spans;
    pass.layers = layers;
}

fn read_header(pass: &mut Pass) {
    pass.header.push(("tables".into(), Json::Arr(vec![table_header("t", ROWS, DIM, "memory")])));
    pass.header.push(("durability".into(), Json::str("none (in-memory catalog, file registry)")));
    pass.header.push(("literal_share".into(), Json::Num(LITERAL_SHARE)));
}

pub struct ServeRead;

impl Workload for ServeRead {
    type Env = Env;

    fn setup(&self, cfg: &Config, dir: &Path) -> Result<Env, String> {
        setup(cfg, dir)
    }

    fn measure(&self, cfg: &Config, env: &mut Env, traced: bool) -> Result<Pass, String> {
        let per_conn = cfg.work(SERVE_RATE) / 2;
        let mixes: Vec<Vec<Stmt>> =
            (1..=2).map(|lane| read_mix(cfg.seed, per_conn, lane)).collect();
        let mut clients = Vec::new();
        for _ in 0..2 {
            let mut c = client::connect_v2(&env.server)?;
            client::expect_ok(&mut c, PREPARE)?;
            clients.push(c);
        }
        let epoch = Instant::now();
        let mut lanes = Vec::new();
        if traced {
            for lane in 1..=2 {
                lanes.push(Lane::new(&env.db, epoch, lane)?);
            }
        }
        crate::reset_buffer(&env.db);
        let start = Instant::now();
        let results: Vec<Result<Vec<Option<Answer>>, String>> = std::thread::scope(|s| {
            let mut handles = Vec::new();
            let mut lanes_iter = lanes.iter_mut();
            for (k, (c, mix)) in clients.iter_mut().zip(&mixes).enumerate() {
                let lane_state = lanes_iter.next();
                handles.push(s.spawn(move || {
                    let lane = k as u32 + 1;
                    match lane_state {
                        Some(l) => {
                            client::run_v2(c, mix, DEPTH, |i, a| l.replay(lane, i, &mix[i], a))
                        }
                        None => client::run_v2(c, mix, DEPTH, |_, _| {}),
                    }
                }));
            }
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        let wall_s = start.elapsed().as_secs_f64();
        drop(clients);
        let mut pass = Pass { wall_s, ..Pass::default() };
        let answers: Vec<Vec<Option<Answer>>> = results.into_iter().collect::<Result<_, _>>()?;
        let all: Vec<&Option<Answer>> = answers.iter().flatten().collect();
        summarize(&mut pass, &all, wall_s);
        let mut expected = Expected::new(Arc::clone(&env.db), &[PREPARE])?;
        for (mix, a) in mixes.iter().zip(&answers) {
            failures_of(&mut pass, a);
            check_answers(&mut pass, &mut expected, mix, a);
        }
        pass.buffer_values(&env.db);
        read_header(&mut pass);
        if traced {
            merge_lanes(&mut pass, lanes);
        }
        Ok(pass)
    }

    fn finish(&self, env: Env, _pass: Option<&mut Pass>) -> Result<(), String> {
        teardown(env);
        Ok(())
    }
}

pub struct InteractiveV1;

impl Workload for InteractiveV1 {
    type Env = Env;

    fn setup(&self, cfg: &Config, dir: &Path) -> Result<Env, String> {
        setup(cfg, dir)
    }

    fn measure(&self, cfg: &Config, env: &mut Env, traced: bool) -> Result<Pass, String> {
        let mix = read_mix(cfg.seed, cfg.work(V1_RATE), 1);
        let mut c = Client::connect(env.server.addr()).map_err(|e| format!("v1 connect: {e}"))?;
        client::expect_ok(&mut c, PREPARE)?;
        let mut lane = if traced { Some(Lane::new(&env.db, Instant::now(), 1)?) } else { None };
        crate::reset_buffer(&env.db);
        let start = Instant::now();
        let answers = client::run_blocking(&mut c, &mix, |i, a| {
            if let Some(l) = lane.as_mut() {
                l.replay(1, i, &mix[i], a);
            }
        })?;
        let wall_s = start.elapsed().as_secs_f64();
        drop(c);
        let mut pass = Pass { wall_s, ..Pass::default() };
        let all: Vec<&Option<Answer>> = answers.iter().collect();
        summarize(&mut pass, &all, wall_s);
        failures_of(&mut pass, &answers);
        let mut expected = Expected::new(Arc::clone(&env.db), &[PREPARE])?;
        check_answers(&mut pass, &mut expected, &mix, &answers);
        // v1 and v2 must answer byte-identically: the same statements over
        // a v2 connection, one at a time.
        let mut v2 = client::connect_v2(&env.server)?;
        client::expect_ok(&mut v2, PREPARE)?;
        let again = client::run_blocking(&mut v2, &mix, |_, _| {})?;
        for ((stmt, a), b) in mix.iter().zip(&answers).zip(&again) {
            let (a, b) = (
                a.as_ref().and_then(|a| a.lines.clone()),
                b.as_ref().and_then(|b| b.lines.clone()),
            );
            pass.check(a.is_some() && a == b, || format!("{}: v1 {a:?}, v2 {b:?}", stmt.text));
        }
        pass.buffer_values(&env.db);
        read_header(&mut pass);
        if let Some(l) = lane {
            merge_lanes(&mut pass, vec![l]);
        }
        Ok(pass)
    }

    fn finish(&self, env: Env, _pass: Option<&mut Pass>) -> Result<(), String> {
        teardown(env);
        Ok(())
    }
}
