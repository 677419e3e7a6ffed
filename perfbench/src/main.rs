//! The repository's benchmark: an in-process `bismarck` server on a `Db`
//! the benchmark builds itself, driven through the public client by one
//! of four workloads, with every answer checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-read --seed 1 --seconds 12 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! work untraced and then traced, and reports the per-layer metrics and
//! the tracing overhead. The last line of standard output is one JSON
//! object (`correct`, `attempted`, `failed`, `metrics`); the full result,
//! and the spans of a traced run, go under `.bench_out/` in the working
//! directory. The process exits non-zero when an output check fails. See
//! `perfbench/README.md` for the workloads and metrics.

mod client;
mod ingest;
mod json;
mod replay;
mod report;
mod serve;
mod stats;
mod trace;
mod train;
mod vfs;

use client::Kind;
use json::Json;
use replay::Layers;
use report::{RunResult, Values, END_TO_END, PER_LAYER};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Span;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

/// Where results, spans and every file a run writes go, under the
/// working directory.
const OUT_DIR: &str = ".bench_out";

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// This run's private directory (temp tables, data directories).
    pub run_dir: PathBuf,
}

impl Config {
    /// How many units of work a workload sized at `per_second` units per
    /// second does in a run: fixed by `--seconds`, never by the clock, so
    /// every run with the same arguments does the same statements.
    pub fn work(&self, per_second: f64) -> usize {
        ((self.seconds as f64 * per_second).round() as usize).max(1)
    }
}

/// One measured pass over a workload's fixed work.
#[derive(Default)]
pub struct Pass {
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub shed: u64,
    /// End-to-end and workload-specific values.
    pub values: Values,
    /// Per-layer samples (traced passes).
    pub layers: Layers,
    pub spans: Vec<Span>,
    pub kinds: HashMap<u64, Kind>,
    /// Output checks that failed, and the first few of their messages.
    pub checks_failed: u64,
    pub failures: Vec<String>,
    /// Header entries the workload contributes (tables, WAL policy).
    pub header: Vec<(String, Json)>,
}

impl Pass {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.checks_failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }
}

/// Statistics of the buffer pool of table `t` start from zero.
pub fn reset_buffer(db: &bolton_bismarck::Db) {
    if let Ok(handle) = db.table("t") {
        handle.read().expect("table lock").reset_pool_stats();
    }
}

impl Pass {
    /// The buffer-pool figures of table `t` since [`reset_buffer`].
    pub fn buffer_values(&mut self, db: &bolton_bismarck::Db) {
        let Ok(handle) = db.table("t") else { return };
        let stats = handle.read().expect("table lock").pool_stats();
        let lookups = stats.hits + stats.misses;
        let hit_rate = stats.hits as f64 / lookups.max(1) as f64;
        self.values.set("buffer.hit_rate", hit_rate, "ratio", lookups as usize);
        self.values.set("buffer.misses", stats.misses as f64, "count", 1);
        self.values.set("buffer.evictions", stats.evictions as f64, "count", 1);
    }
}

pub trait Workload {
    type Env;
    /// Starts the server and builds the data; what `setup_s` times.
    fn setup(&self, cfg: &Config, dir: &Path) -> Result<Self::Env, String>;
    /// Runs the fixed work, untraced or traced.
    fn measure(&self, cfg: &Config, env: &mut Self::Env, traced: bool) -> Result<Pass, String>;
    /// Stops the server and removes the data; with a pass, first runs the
    /// end-of-run checks into it.
    fn finish(&self, env: Self::Env, pass: Option<&mut Pass>) -> Result<(), String>;
}

/// A table's shape for the run header: rows × dim, and its bytes against
/// the buffer pool's.
pub fn table_header(name: &str, rows: usize, dim: usize, backing: &str) -> Json {
    let rows_per_page = bolton_bismarck::Page::rows_per_page(dim);
    let bytes = rows.div_ceil(rows_per_page) * bolton_bismarck::PAGE_SIZE;
    let pool_bytes = bolton_bismarck::table::DEFAULT_POOL_PAGES * bolton_bismarck::PAGE_SIZE;
    Json::obj([
        ("name", Json::str(name)),
        ("backing", Json::str(backing)),
        ("rows", Json::Num(rows as f64)),
        ("dim", Json::Num(dim as f64)),
        ("bytes", Json::Num(bytes as f64)),
        ("pool_bytes", Json::Num(pool_bytes as f64)),
        ("bytes_over_pool", Json::Num(bytes as f64 / pool_bytes as f64)),
    ])
}

fn run<W: Workload>(w: &W, cfg: &Config) -> Result<(Pass, Vec<f64>, f64), String> {
    if cfg.trace {
        // The same work untraced, then traced: the tracing overhead is the
        // ratio of the two wall times.
        let mut env = w.setup(cfg, &cfg.run_dir.join("untraced"))?;
        let base = w.measure(cfg, &mut env, false)?;
        w.finish(env, None)?;
        let t = Instant::now();
        let mut env = w.setup(cfg, &cfg.run_dir.join("traced"))?;
        let setup_s = t.elapsed().as_secs_f64();
        let mut pass = w.measure(cfg, &mut env, true)?;
        w.finish(env, Some(&mut pass))?;
        let overhead = pass.wall_s / base.wall_s - 1.0;
        return Ok((pass, vec![setup_s], overhead));
    }
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut env = None;
    for i in 0..SETUP_REPEATS {
        if let Some(previous) = env.take() {
            w.finish(previous, None)?;
        }
        let t = Instant::now();
        env = Some(w.setup(cfg, &cfg.run_dir.join(format!("setup-{i}")))?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut env = env.expect("at least one set-up");
    let mut pass = w.measure(cfg, &mut env, false)?;
    w.finish(env, Some(&mut pass))?;
    Ok((pass, setups, 0.0))
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the checkout came from, when it is a git work tree.
fn git_rev(root: &Path) -> String {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r))
            .map_or_else(|_| format!("unresolved {r}"), |s| s.trim().to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "none (not a git work tree)".to_string(),
    }
}

/// FNV-1a over the paths and bytes of every file under `crates/`, so a
/// result names the exact source it measured even outside git.
fn source_fingerprint(root: &Path) -> String {
    let mut files = Vec::new();
    let mut stack = vec![root.join("crates")];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else { continue };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else {
                files.push(p);
            }
        }
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let rel = f.strip_prefix(root).unwrap_or(&f).to_string_lossy().into_owned();
        for b in rel.bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn header(root: &Path, workload_header: Vec<(String, Json)>) -> Json {
    let l = client::limits();
    let simd = bolton_linalg::simd::active();
    let mut pairs = vec![
        ("git_rev".to_string(), Json::str(git_rev(root))),
        ("source_fnv64".to_string(), Json::str(source_fingerprint(root))),
        (
            "hardware_threads".to_string(),
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("worker_pool_threads".to_string(), Json::Num(bolton_sgd::pool::global().threads() as f64)),
        ("simd_mode".to_string(), Json::str(simd.name())),
        ("simd_lanes".to_string(), Json::Num(simd.lane_width() as f64)),
        (
            "limits".to_string(),
            Json::obj([
                ("stmt_timeout_ms", Json::Num(l.stmt_timeout_ms as f64)),
                ("rate_limit", Json::Num(l.rate_limit as f64)),
                ("global_rate_limit", Json::Num(l.global_rate_limit as f64)),
                ("max_conn_per_ip", Json::Num(l.max_conn_per_ip as f64)),
                ("max_active_statements", Json::Num(l.max_active_statements as f64)),
                ("idle_timeout_ms", Json::Num(l.idle_timeout_ms as f64)),
                ("read_timeout_ms", Json::Num(l.read_timeout_ms as f64)),
                ("drain_timeout_ms", Json::Num(l.drain_timeout_ms as f64)),
                ("pipeline_executors", Json::Num(l.pipeline_executors as f64)),
                ("pipeline_depth", Json::Num(l.pipeline_depth as f64)),
                ("parse_engines", Json::Num(l.parse_engines as f64)),
                ("parse_cache", Json::Num(l.parse_cache as f64)),
                ("max_connections", Json::Num(client::MAX_CONNECTIONS as f64)),
            ]),
        ),
        (
            "buffer_pool_pages".to_string(),
            Json::Num(bolton_bismarck::table::DEFAULT_POOL_PAGES as f64),
        ),
        ("client_depth".to_string(), Json::Num(client::DEPTH as f64)),
    ];
    pairs.extend(workload_header);
    Json::Obj(pairs)
}

/// The per-layer metrics of a traced pass, from its layer samples and the
/// layer values the workload set (0 for a layer the workload skips).
fn per_layer(pass: &Pass, overhead: f64) -> (Values, Values) {
    let l = &pass.layers;
    let mut derived = Values::default();
    let hits = l.list("engine.parse_us.hit").len();
    let misses = l.list("engine.parse_us.miss").len();
    let mean = |name: &str| {
        let v = l.list(name);
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let n = |name: &str| l.list(name).len();
    for (name, unit) in PER_LAYER {
        let name = *name;
        if let Some(m) = pass.values.get(name) {
            derived.0.insert(name.to_string(), m.clone());
            continue;
        }
        match name {
            "engine.parse_cache_hit_rate" => derived.set(
                name,
                if hits + misses == 0 { 0.0 } else { hits as f64 / (hits + misses) as f64 },
                unit,
                hits + misses,
            ),
            // Sums: the layer's total over the run.
            "table.scan_self_s"
            | "sgd.grad_s"
            | "sgd.rows_visited"
            | "privacy.noise_draws"
            | "privacy.noise_s"
            | "core.calibrate_s"
            | "session.score_s" => {
                derived.set(name, l.sum(name), unit, n(name));
            }
            // Means, so that rare long waits count.
            "db.read_lock_wait_us" | "db.write_lock_wait_us" => {
                derived.set(name, mean(name), unit, n(name));
            }
            "limits.shed_frac" => derived.set(
                name,
                pass.shed as f64 / pass.attempted.max(1) as f64,
                unit,
                pass.attempted as usize,
            ),
            "trace.overhead_frac" => derived.set(name, overhead, unit, 2),
            // Medians per operation.
            _ => derived.set(name, l.median(name), unit, n(name)),
        }
    }
    let mut extra = pass.values.clone();
    extra.0.retain(|k, _| !PER_LAYER.iter().any(|(n, _)| n == k));
    // Waits and the unattributed remainder show contention in their tails.
    for (name, unit) in [
        ("db.read_lock_wait_us", "us"),
        ("db.write_lock_wait_us", "us"),
        ("server.unattributed_ms", "ms"),
    ] {
        if let Some(p99) = stats::tail_percentile(l.list(name), 0.99) {
            extra.set(format!("{name}.p99"), p99, unit, n(name));
        }
    }
    (derived, extra)
}

fn parse_args() -> Result<(String, u64, u64, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed '{value}'"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad --seconds '{value}'"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace '{value}' (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}' (one of {})", WORKLOADS.join(", ")));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok((workload, seed, seconds, trace))
}

const WORKLOADS: &[&str] = &["train-fig5", "serve-read", "ingest-durable", "interactive-v1"];

fn main() {
    let (workload, seed, seconds, trace) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds N] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let root = std::env::current_dir().expect("working directory");
    let out = root.join(OUT_DIR);
    let run_dir = out.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(run_dir.join("tmp")).expect("create the run directory");
    // Before any thread starts: disk-backed temp tables go under the run
    // directory, and no BOLTON_* knob from the environment reaches the
    // system — the benchmark sets every knob itself.
    std::env::set_var("TMPDIR", run_dir.join("tmp"));
    for (key, _) in std::env::vars() {
        if key.starts_with("BOLTON_") {
            std::env::remove_var(key);
        }
    }
    let cfg = Config { workload: workload.clone(), seed, seconds, trace, run_dir: run_dir.clone() };
    let started = Instant::now();
    let result = match workload.as_str() {
        "train-fig5" => run(&train::TrainFig5, &cfg),
        "serve-read" => run(&serve::ServeRead, &cfg),
        "interactive-v1" => run(&serve::InteractiveV1, &cfg),
        _ => run(&ingest::IngestDurable, &cfg),
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    let (mut pass, setups, overhead) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            std::process::exit(1);
        }
    };
    let (metrics, extra) = if trace {
        per_layer(&pass, overhead)
    } else {
        let mut metrics = Values::default();
        metrics.set("setup_s", stats::median(&setups), "s", setups.len());
        for (name, _) in END_TO_END {
            if let Some(m) = pass.values.get(name) {
                metrics.0.insert(name.to_string(), m.clone());
            }
        }
        let mut extra = pass.values.clone();
        extra.0.retain(|k, _| !END_TO_END.iter().any(|(n, _)| n == k));
        extra.set("peak_rss_mb", peak_rss_mb(), "MB", 1);
        extra.set(
            "failed_frac",
            pass.failed as f64 / pass.attempted.max(1) as f64,
            "ratio",
            pass.attempted as usize,
        );
        (metrics, extra)
    };
    let wanted = if trace { PER_LAYER } else { END_TO_END };
    for (name, _) in wanted {
        pass.check(metrics.get(name).is_some(), || format!("metric {name} was not measured"));
    }
    let breakdown =
        if trace { replay::breakdown(&pass.spans, &pass.kinds) } else { Json::Arr(vec![]) };
    let result = RunResult {
        workload: workload.clone(),
        seed,
        seconds,
        trace,
        correct: pass.checks_failed == 0 && pass.failed == 0,
        attempted: pass.attempted,
        failed: pass.failed,
        header: header(&root, std::mem::take(&mut pass.header)),
        metrics,
        extra,
        breakdown,
        failures: pass.failures.clone(),
    };
    let stem = format!("{workload}-seed{seed}-trace{}", u8::from(trace));
    let _ = std::fs::write(out.join(format!("result-{stem}.json")), result.to_json().dump() + "\n");
    if trace {
        let mut text = String::new();
        for s in &pass.spans {
            text.push_str(&s.to_json().dump());
            text.push('\n');
        }
        // One file per workload, overwritten by its next traced run.
        let _ = std::fs::write(out.join(format!("spans-{workload}.jsonl")), text);
    }
    print_report(&result, started.elapsed().as_secs_f64());
    std::process::exit(if result.correct { 0 } else { 1 });
}

fn print_report(r: &RunResult, elapsed_s: f64) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(
        out,
        "perfbench {} seed={} seconds={} trace={}",
        r.workload,
        r.seed,
        r.seconds,
        u8::from(r.trace)
    );
    let _ = writeln!(out, "header {}", r.header.dump());
    for (section, values) in [("metric", &r.metrics), ("extra", &r.extra)] {
        for (name, m) in &values.0 {
            let _ = writeln!(out, "{section} {name} = {} {} (n={})", m.value, m.unit, m.samples);
        }
    }
    if let Json::Arr(kinds) = &r.breakdown {
        for k in kinds {
            let _ = writeln!(out, "breakdown {}", k.dump());
        }
    }
    for f in &r.failures {
        let _ = writeln!(out, "check failed: {f}");
    }
    let _ = writeln!(
        out,
        "attempted={} failed={} correct={} wall_s={elapsed_s:.1}",
        r.attempted, r.failed, r.correct
    );
    let _ = writeln!(out, "{}", r.summary_line());
}
