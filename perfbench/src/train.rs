//! `train-fig5`: the paper's Figure 5 as users reach it — SQL `TRAIN` over
//! one v2 connection in a closed loop, the four algorithms at three batch
//! sizes interleaved round-robin, on a disk table about ten times the
//! buffer pool.

use crate::client::{self, render, Answer, Kind, Stmt};
use crate::replay::{record_client, replay_protocol, timed, Layers};
use crate::stats::{median, tail_percentile};
use crate::trace::Tracer;
use crate::{table_header, Config, Pass, Workload};
use bolton::api::{AlgorithmKind, LossKind, TrainPlan};
use bolton::bst14::{self, Bst14Config};
use bolton::output_perturbation::calibrate_sensitivity;
use bolton::{BoltOnConfig, Budget, TrainSet};
use bolton_bismarck::server::Client;
use bolton_bismarck::sql::QueryResult;
use bolton_bismarck::{Db, RunningServer, Table};
use bolton_privacy::mechanisms::{GaussianMechanism, NoiseMechanism};
use bolton_sgd::engine::batches_per_pass;
use bolton_sgd::metrics::accuracy_from_scores;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub const ROWS: usize = 50_000;
pub const DIM: usize = 50;
const PASSES: usize = 2;
const EPS: f64 = 1.0;
const DELTA: f64 = 1e-6;
const LAMBDA: f64 = 0.01;
const ALGOS: [&str; 4] = ["noiseless", "bolton", "scs13", "bst14"];
const BATCHES: [usize; 3] = [1, 10, 100];
/// One round (every algorithm at every batch size) takes about this long
/// on a 2-thread x86-64 machine; `--seconds` buys whole rounds.
const SECONDS_PER_ROUND: f64 = 5.0;
/// Training accuracy every TRAIN must reach, per algorithm. Noiseless and
/// bolt-on training reach about 0.94 on this data. At ε = 1 the per-step
/// noise of SCS13 and BST14 dominates their models (0.41-0.64 across
/// seeds), so their floor only rejects a broken or inverted model.
fn accuracy_floor(algo: &str) -> f64 {
    match algo {
        "noiseless" | "bolton" => 0.85,
        _ => 0.25,
    }
}

pub struct TrainFig5;

pub struct Env {
    server: RunningServer,
    db: Arc<Db>,
    client: Client,
}

struct Spec {
    algo: &'static str,
    batch: usize,
    seed: u64,
}

impl Spec {
    fn text(&self) -> String {
        format!(
            "TRAIN m_{a}_{b} ON t ALGO {a} EPS {EPS} DELTA {DELTA:.6} LAMBDA {LAMBDA} PASSES {PASSES} BATCH {b} SEED {s}",
            a = self.algo,
            b = self.batch,
            s = self.seed
        )
    }
}

fn specs(cfg: &Config) -> Vec<Spec> {
    let rounds = cfg.work(1.0 / SECONDS_PER_ROUND);
    let mut out = Vec::new();
    for _ in 0..rounds {
        for (bi, &batch) in BATCHES.iter().enumerate() {
            for (ai, algo) in ALGOS.iter().enumerate() {
                // The same (algo, batch) trains with the same seed in every
                // round, so its answers must repeat exactly.
                let seed = cfg.seed.wrapping_mul(1000) + (bi * ALGOS.len() + ai) as u64;
                out.push(Spec { algo, batch, seed });
            }
        }
    }
    out
}

impl Workload for TrainFig5 {
    type Env = Env;

    fn setup(&self, cfg: &Config, _dir: &Path) -> Result<Env, String> {
        let db = Arc::new(Db::new());
        let server = client::start_server(Arc::clone(&db))?;
        let mut client = client::connect_v2(&server)?;
        client::expect_ok(&mut client, &format!("CREATE TABLE t (DIM {DIM}) DISK"))?;
        client::expect_ok(
            &mut client,
            &format!("SYNTH t ROWS {ROWS} SEED {} NOISE 0.05", cfg.seed),
        )?;
        Ok(Env { server, db, client })
    }

    fn measure(&self, cfg: &Config, env: &mut Env, traced: bool) -> Result<Pass, String> {
        let specs = specs(cfg);
        let stmts: Vec<Stmt> =
            specs.iter().map(|s| Stmt { kind: Kind::Train, text: s.text() }).collect();
        crate::reset_buffer(&env.db);
        let epoch = Instant::now();
        let mut tracer = Tracer::new(epoch, 1);
        let mut layers = Layers::default();
        let mut replay_failures = Vec::new();
        let start = Instant::now();
        let answers = client::run_blocking(&mut env.client, &stmts, |i, answer| {
            if traced {
                let lines =
                    replay_train(&mut tracer, &mut layers, &env.db, i as u64, &specs[i], answer);
                if answer.lines.as_deref() != Some(&lines[..]) {
                    replay_failures.push(format!(
                        "{}: server {:?}, replay {lines:?}",
                        stmts[i].text, answer.lines
                    ));
                }
            }
        })?;
        let wall_s = start.elapsed().as_secs_f64();

        let mut pass = Pass { wall_s, ..Pass::default() };
        pass.attempted = answers.len() as u64;
        (pass.failed, pass.shed) = client::count_failures(&answers);
        for f in replay_failures {
            pass.check(false, || format!("traced replay differs: {f}"));
        }
        let latencies: Vec<f64> = answers.iter().flatten().map(Answer::latency_ms).collect();
        pass.values.set("stmts_per_s", answers.len() as f64 / wall_s, "1/s", answers.len());
        pass.values.set("stmt_p50_ms", median(&latencies), "ms", latencies.len());
        if let Some(p99) = tail_percentile(&latencies, 0.99) {
            pass.values.set("stmt_p99_ms", p99, "ms", latencies.len());
        }
        check_and_summarize(&mut pass, &specs, &answers);

        pass.buffer_values(&env.db);
        pass.header.push(("tables".into(), json_tables()));
        pass.header.push(("durability".into(), crate::json::Json::str("none (in-memory catalog)")));
        if traced {
            pass.kinds = (0..stmts.len() as u64).map(|i| (i, Kind::Train)).collect();
            pass.spans = tracer.spans;
            pass.layers = layers;
        }
        Ok(pass)
    }

    fn finish(&self, env: Env, _pass: Option<&mut Pass>) -> Result<(), String> {
        drop(env.client);
        env.server.stop();
        Ok(())
    }
}

fn json_tables() -> crate::json::Json {
    crate::json::Json::Arr(vec![table_header("t", ROWS, DIM, "disk")])
}

/// Output checks (every TRAIN ok above its floor, and a repeated
/// statement answers identically) and the Figure 5 figures.
fn check_and_summarize(pass: &mut Pass, specs: &[Spec], answers: &[Option<Answer>]) {
    let mut first: HashMap<String, Vec<String>> = HashMap::new();
    let mut by_cell: BTreeMap<(&str, usize), Vec<f64>> = BTreeMap::new();
    let mut by_algo: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (spec, answer) in specs.iter().zip(answers) {
        let Some(answer) = answer else { continue };
        let text = spec.text();
        let acc = answer.response.get("acc").and_then(|a| a.parse::<f64>().ok());
        pass.check(acc.is_some_and(|a| a >= accuracy_floor(spec.algo)), || {
            format!(
                "{text}: answered {:?}, below the accuracy floor {}",
                answer.lines,
                accuracy_floor(spec.algo)
            )
        });
        let lines = answer.lines.clone().unwrap_or_default();
        let seen = first.entry(text.clone()).or_insert_with(|| lines.clone());
        pass.check(*seen == lines, || format!("{text}: answered {lines:?}, earlier {seen:?}"));
        by_cell.entry((spec.algo, spec.batch)).or_default().push(answer.latency_ms() / 1e3);
        by_algo.entry(spec.algo).or_default().push(answer.latency_ms() / 1e3);
        if let Some(a) = acc {
            pass.values.set(format!("train_acc.{}.b{}", spec.algo, spec.batch), a, "ratio", 1);
        }
    }
    for (algo, secs) in &by_algo {
        let epochs = (secs.len() * PASSES) as f64;
        pass.values.set(
            format!("train_epoch_s.{algo}"),
            secs.iter().sum::<f64>() / epochs,
            "s",
            secs.len(),
        );
    }
    // Derived Figure 5 ratios (not metrics): each algorithm's median TRAIN
    // time over noiseless at the same batch size.
    for &batch in &BATCHES {
        let Some(base) = by_cell.get(&("noiseless", batch)).map(|v| median(v)) else { continue };
        for algo in &ALGOS[1..] {
            if let Some(v) = by_cell.get(&(*algo, batch)) {
                pass.values.set(
                    format!("fig5.{algo}_over_noiseless.b{batch}"),
                    median(v) / base,
                    "ratio",
                    v.len(),
                );
            }
        }
    }
}

/// The visitor is timed on every `VISIT_SAMPLE`-th row only, and the
/// total scaled up from those rows: two clock reads per row would cost
/// about as much as the gradient they time.
const VISIT_SAMPLE: u64 = 16;

/// A `TrainSet` view of the table that times each scan and, inside it,
/// the visitor (gradient, noise hook and update) the SGD engine passes.
struct SpanScan<'a> {
    table: &'a Table,
    /// Per scan: start, end, estimated visitor ns, rows.
    scans: RefCell<Vec<(Instant, Instant, u64, u64)>>,
}

impl SpanScan<'_> {
    fn timed_scan(
        &self,
        scan: impl FnOnce(&mut dyn FnMut(usize, &[f64], f64)),
        visit: &mut dyn FnMut(usize, &[f64], f64),
    ) {
        let start = Instant::now();
        let mut sampled_ns = 0u64;
        let mut rows = 0u64;
        scan(&mut |i, x, y| {
            if rows.is_multiple_of(VISIT_SAMPLE) {
                let t = Instant::now();
                visit(i, x, y);
                sampled_ns += t.elapsed().as_nanos() as u64;
            } else {
                visit(i, x, y);
            }
            rows += 1;
        });
        let sampled_rows = rows.div_ceil(VISIT_SAMPLE).max(1);
        let visit_ns = sampled_ns * rows / sampled_rows;
        self.scans.borrow_mut().push((start, Instant::now(), visit_ns, rows));
    }
}

impl TrainSet for SpanScan<'_> {
    fn len(&self) -> usize {
        TrainSet::len(self.table)
    }

    fn dim(&self) -> usize {
        TrainSet::dim(self.table)
    }

    fn scan_order(&self, order: &[usize], visit: &mut dyn FnMut(usize, &[f64], f64)) {
        self.timed_scan(|v| TrainSet::scan_order(self.table, order, v), visit);
    }

    fn scan(&self, visit: &mut dyn FnMut(usize, &[f64], f64)) {
        self.timed_scan(|v| TrainSet::scan(self.table, v), visit);
    }
}

fn algorithm(algo: &str) -> AlgorithmKind {
    match algo {
        "noiseless" => AlgorithmKind::Noiseless,
        "bolton" => AlgorithmKind::BoltOn,
        "scs13" => AlgorithmKind::Scs13,
        _ => AlgorithmKind::Bst14,
    }
}

/// Replays one TRAIN in-process the way the session runs it — read lock,
/// `TrainPlan::train` over the span-recording scan, the scoring pass — and
/// then the privacy layer at the statement's noise-draw count. Returns the
/// answer's wire lines.
fn replay_train(
    tr: &mut Tracer,
    layers: &mut Layers,
    db: &Db,
    id: u64,
    spec: &Spec,
    answer: &Answer,
) -> Vec<String> {
    record_client(tr, id, answer);
    let budget = Budget::approx(EPS, DELTA).expect("a valid budget");
    let loss_kind = LossKind::Logistic { lambda: LAMBDA };
    let algo = algorithm(spec.algo);
    let handle = db.table("t").expect("the training table");
    let mut exec_ns = 0.0;
    let lines = tr.span("replay", id, |tr| {
        let (lines, ns) = {
            let start = tr.now();
            let lines = tr.span("train.execute", id, |tr| {
                let (table, ns) =
                    timed(tr, "db.read_lock_wait", id, || handle.read().expect("table lock"));
                layers.push("db.read_lock_wait_us", ns / 1e3);
                let plan = TrainPlan::new(
                    loss_kind,
                    algo,
                    (algo != AlgorithmKind::Noiseless).then_some(budget),
                )
                .with_passes(PASSES)
                .with_batch_size(spec.batch);
                let scan = SpanScan { table: &table, scans: RefCell::new(Vec::new()) };
                let model = tr.span("train", id, |tr| {
                    let model = plan.train(&scan, &mut bolton_rng::seeded(spec.seed));
                    for (s, e, visit_ns, rows) in scan.scans.borrow().iter() {
                        let (s, e) = (tr.at(*s), tr.at(*e));
                        let scan_id = tr.record("table.scan", id, s, e);
                        // The visitor time as one child span from the scan's
                        // start: its length is what the self time needs.
                        tr.record_child(scan_id, "sgd.grad", id, s, s + visit_ns);
                        layers.push("sgd.grad_s", *visit_ns as f64 / 1e9);
                        layers.push(
                            "table.scan_self_s",
                            (e - s).saturating_sub(*visit_ns) as f64 / 1e9,
                        );
                        layers.push("sgd.rows_visited", *rows as f64);
                    }
                    model
                });
                let Ok(model) = model else { return vec!["err training failed".to_string()] };
                let ((scores, labels), ns) = timed(tr, "session.score", id, || {
                    bolton_bismarck::session::score_batch_with_labels(&model, &table)
                });
                layers.push("session.score_s", ns / 1e9);
                let accuracy = accuracy_from_scores(&scores, &labels);
                render(&QueryResult::Trained {
                    model: format!("m_{}_{}", spec.algo, spec.batch),
                    accuracy,
                })
            });
            (lines, (tr.now() - start) as f64)
        };
        exec_ns = ns;
        replay_privacy(tr, layers, id, spec, algo, budget, loss_kind);
        replay_protocol(tr, layers, id, &spec.text(), &lines);
        lines
    });
    layers.push("server.unattributed_ms", answer.latency_ms() - exec_ns / 1e6);
    lines
}

/// The privacy layer of one TRAIN: its exact noise-draw count, the time of
/// that many draws of the mechanism it uses, and the time of its
/// sensitivity calibration.
fn replay_privacy(
    tr: &mut Tracer,
    layers: &mut Layers,
    id: u64,
    spec: &Spec,
    algo: AlgorithmKind,
    budget: Budget,
    loss_kind: LossKind,
) {
    let (loss, natural_radius) = loss_kind.build();
    let steps = (batches_per_pass(ROWS, spec.batch.min(ROWS)) * PASSES) as u64;
    let mut rng = bolton_rng::seeded(spec.seed ^ 0x5eed);
    let mut w = vec![0.0; DIM];
    let draws: u64 = match algo {
        AlgorithmKind::Noiseless => 0,
        AlgorithmKind::BoltOn => {
            let config = BoltOnConfig::new(budget).with_passes(PASSES).with_batch_size(spec.batch);
            let (delta2, ns) = timed(tr, "core.calibrate", id, || {
                calibrate_sensitivity(loss.as_ref(), &config, ROWS)
            });
            layers.push("core.calibrate_s", ns / 1e9);
            let mech =
                NoiseMechanism::for_budget(&budget, DIM, delta2.expect("bolt-on calibration"))
                    .expect("bolt-on mechanism");
            let (_, ns) = timed(tr, "privacy.noise", id, || mech.perturb(&mut rng, &mut w));
            layers.push("privacy.noise_s", ns / 1e9);
            1
        }
        AlgorithmKind::Scs13 | AlgorithmKind::Bst14 => {
            if algo == AlgorithmKind::Bst14 {
                let config = Bst14Config::new(budget, natural_radius.unwrap_or(10.0))
                    .with_passes(PASSES)
                    .with_batch_size(spec.batch);
                let (cal, ns) = timed(tr, "core.calibrate", id, || {
                    bst14::calibrate(loss.as_ref(), &config, ROWS, DIM)
                });
                black_box(cal.expect("BST14 calibration"));
                layers.push("core.calibrate_s", ns / 1e9);
            }
            // One Gaussian draw per update, as both algorithms add.
            let per_pass = budget.split_even(PASSES);
            let sensitivity = 2.0 * loss.lipschitz() / spec.batch as f64;
            let mech = GaussianMechanism::new(sensitivity, per_pass.eps(), per_pass.delta())
                .expect("gaussian mechanism");
            let (_, ns) = timed(tr, "privacy.noise", id, || {
                for _ in 0..steps {
                    mech.perturb(&mut rng, &mut w);
                }
            });
            layers.push("privacy.noise_s", ns / 1e9);
            steps
        }
        AlgorithmKind::ObjectivePerturbation => 0,
    };
    black_box(&w);
    layers.push("privacy.noise_draws", draws as f64);
}
