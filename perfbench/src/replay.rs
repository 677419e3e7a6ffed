//! The traced run's in-process replay of a read the server just answered:
//! the same statement through the public calls of each layer, each call
//! inside a span, with the per-layer samples the metrics are made from.

use crate::client::{render, Answer, Kind, Stmt};
use crate::json::Json;
use crate::stats::median;
use crate::trace::{Span, Tracer};
use bolton_bismarck::protocol::{self, MAX_FRAME_PAYLOAD};
use bolton_bismarck::session::score_batch_with_labels;
use bolton_bismarck::{Db, EnginePool, Session};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::Arc;

/// Named sample lists gathered at the layer boundaries.
#[derive(Default)]
pub struct Layers(pub BTreeMap<String, Vec<f64>>);

impl Layers {
    pub fn push(&mut self, name: &str, v: f64) {
        self.0.entry(name.to_string()).or_default().push(v);
    }

    pub fn merge(&mut self, other: Layers) {
        for (k, mut v) in other.0 {
            self.0.entry(k).or_default().append(&mut v);
        }
    }

    pub fn list(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn median(&self, name: &str) -> f64 {
        median(self.list(name))
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.list(name).iter().fold(0.0, |a, b| a + b)
    }
}

/// Times `f` as a finished child span of the open one.
pub fn timed<T>(tr: &mut Tracer, name: &'static str, stmt: u64, f: impl FnOnce() -> T) -> (T, f64) {
    let start = tr.now();
    let out = f();
    let end = tr.now();
    tr.record(name, stmt, start, end);
    (out, end.saturating_sub(start) as f64)
}

/// Records the wire round trip the client saw as the statement's root span.
pub fn record_client(tr: &mut Tracer, stmt: u64, answer: &Answer) {
    let (sent, done) = (tr.at(answer.sent), tr.at(answer.done));
    tr.record("client.request", stmt, sent, done);
}

/// Times encoding `text` into a request frame and decoding the response
/// frame carrying `lines`, as the two protocol spans.
pub fn replay_protocol(
    tr: &mut Tracer,
    layers: &mut Layers,
    stmt: u64,
    text: &str,
    lines: &[String],
) {
    let (_, ns) =
        timed(tr, "protocol.encode", stmt, || black_box(protocol::encode(0, 1, text.as_bytes())));
    layers.push("protocol.encode_ns", ns);
    let mut payload = lines.join("\n");
    payload.push('\n');
    let frame = protocol::encode(0, 1, payload.as_bytes());
    let (decoded, ns) =
        timed(tr, "protocol.decode", stmt, || protocol::decode(&frame, MAX_FRAME_PAYLOAD));
    assert!(matches!(decoded, Ok(Some(_))), "a frame the benchmark encoded must decode");
    layers.push("protocol.decode_ns", ns);
}

/// The table and registry model every read workload's set-up creates.
const TABLE: &str = "t";
const MODEL: &str = "m";

/// Replays reads on one client thread.
pub struct ReadReplay {
    db: Arc<Db>,
    session: Session,
    engines: EnginePool,
    pub layers: Layers,
}

impl ReadReplay {
    /// A replay session that has run `prepare` (the PREPAREs the client
    /// ran) and a parse pool shaped like the server's.
    pub fn new(db: Arc<Db>, prepare: &[&str]) -> Result<ReadReplay, String> {
        let mut session = Session::new(Arc::clone(&db));
        for stmt in prepare {
            session.run(stmt).map_err(|e| format!("{stmt}: {e}"))?;
        }
        let limits = crate::client::limits();
        Ok(ReadReplay {
            db,
            session,
            engines: EnginePool::new(limits.parse_engines, limits.parse_cache),
            layers: Layers::default(),
        })
    }

    /// Replays `stmt` (answered by the server as `answer`) and returns the
    /// in-process answer's wire lines.
    pub fn replay(
        &mut self,
        tr: &mut Tracer,
        id: u64,
        stmt: &Stmt,
        answer: &Answer,
    ) -> Vec<String> {
        record_client(tr, id, answer);
        let mut exec_ns = 0.0;
        let lines = tr.span("replay", id, |tr| {
            let before = self.engines.stats();
            let (parsed, parse_ns) =
                timed(tr, "engine.parse", id, || self.engines.parse(&stmt.text));
            let hit = self.engines.stats().hits > before.hits;
            let key = if hit { "engine.parse_us.hit" } else { "engine.parse_us.miss" };
            self.layers.push(key, parse_ns / 1e3);
            let lines = match parsed {
                Ok(parsed) => {
                    let (result, ns) =
                        timed(tr, "session.execute", id, || self.session.execute(&parsed));
                    exec_ns = ns;
                    self.layers.push(&format!("session.execute_us.{}", stmt.kind.name()), ns / 1e3);
                    match result {
                        Ok(r) => render(&r),
                        Err(e) => vec![format!("err {e}")],
                    }
                }
                Err(e) => vec![format!("err {e}")],
            };
            tr.span("layers", id, |tr| self.replay_layers(tr, id, stmt.kind));
            replay_protocol(tr, &mut self.layers, id, &stmt.text, &lines);
            lines
        });
        let unattributed_ms = answer.latency_ms() - exec_ns / 1e6;
        self.layers.push("server.unattributed_ms", unattributed_ms);
        lines
    }

    /// The statement's work split over the table lock, the registry and
    /// the scoring pass.
    fn replay_layers(&mut self, tr: &mut Tracer, id: u64, kind: Kind) {
        let Ok(handle) = self.db.table(TABLE) else { return };
        let model = (kind == Kind::EvalModel)
            .then(|| {
                let registry = self.db.registry()?;
                let (loaded, ns) =
                    timed(tr, "registry.load", id, || registry.load_versioned(MODEL, None).ok());
                self.layers.push("registry.load_us", ns / 1e3);
                loaded
            })
            .flatten();
        let (guard, ns) = timed(tr, "db.read_lock_wait", id, || handle.read().expect("table lock"));
        self.layers.push("db.read_lock_wait_us", ns / 1e3);
        if let Some((_, w)) = model {
            let ((scores, _), ns) =
                timed(tr, "session.score", id, || score_batch_with_labels(&w, &guard));
            black_box(scores);
            self.layers.push("session.score_s", ns / 1e9);
        }
        drop(guard);
        let (guard, ns) =
            timed(tr, "db.write_lock_wait", id, || handle.write().expect("table lock"));
        drop(guard);
        self.layers.push("db.write_lock_wait_us", ns / 1e3);
    }
}

/// The spans that stand for the statement's own execution in-process.
pub const WORK_SPANS: &[&str] = &["session.execute", "train.execute"];

/// The breakdown entry for the round trip minus the in-process execution.
const UNATTRIBUTED: &str = "unattributed";

/// Where each statement kind's time went: per span name, the median self
/// time per statement, next to the median round trip the client saw.
pub fn breakdown(spans: &[Span], kinds: &HashMap<u64, Kind>) -> Json {
    let selfs = crate::trace::self_times(spans);
    // kind -> span name -> per-statement self ns
    let mut per_stmt: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
    let mut work: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        *per_stmt.entry(s.stmt).or_default().entry(s.name).or_default() += selfs[&s.id] as f64;
        if WORK_SPANS.contains(&s.name) {
            *work.entry(s.stmt).or_default() += s.dur_ns() as f64;
        }
    }
    let mut by_kind: BTreeMap<Kind, BTreeMap<&'static str, Vec<f64>>> = BTreeMap::new();
    for (stmt, names) in per_stmt {
        let Some(kind) = kinds.get(&stmt) else { continue };
        let entry = by_kind.entry(*kind).or_default();
        if let Some(client) = names.get("client.request") {
            let work = work.get(&stmt).copied().unwrap_or(0.0);
            entry.entry(UNATTRIBUTED).or_default().push(client - work);
        }
        for (name, ns) in names {
            entry.entry(name).or_default().push(ns);
        }
    }
    Json::Arr(
        by_kind
            .into_iter()
            .map(|(kind, names)| {
                let n = names.get("client.request").map_or(0, Vec::len);
                let parts = names
                    .iter()
                    .map(|(name, v)| (name.to_string(), Json::Num(median(v) / 1e3)))
                    .collect();
                Json::obj([
                    ("kind", Json::str(kind.name())),
                    ("statements", Json::Num(n as f64)),
                    ("self_us_p50", Json::Obj(parts)),
                ])
            })
            .collect(),
    )
}
