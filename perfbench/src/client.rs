//! The client side shared by every workload: the server the benchmark
//! starts, statement kinds, the closed loops that drive v2 and v1
//! connections, and the in-process answers they are checked against.

use bolton_bismarck::server::{serve, Client};
use bolton_bismarck::sql::QueryResult;
use bolton_bismarck::{Db, Limits, Response, RunningServer, ServerConfig, Session};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Requests each pipelined (v2) connection keeps in flight.
pub const DEPTH: usize = 8;

/// The server limits the benchmark runs under, set here rather than read
/// from `BOLTON_*`: no deadlines, rate limits, quotas or admission cap, so
/// no statement is shed; two pipeline executors and two parse engines for
/// the two hardware threads the benchmark is sized for.
pub fn limits() -> Limits {
    Limits {
        stmt_timeout_ms: 0,
        rate_limit: 0,
        global_rate_limit: 0,
        max_conn_per_ip: 0,
        max_active_statements: 0,
        idle_timeout_ms: 0,
        read_timeout_ms: 0,
        drain_timeout_ms: 30_000,
        pipeline_executors: 2,
        pipeline_depth: 64,
        parse_engines: 2,
        parse_cache: 256,
    }
}

pub const MAX_CONNECTIONS: usize = 16;

pub fn start_server(db: Arc<Db>) -> Result<RunningServer, String> {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        max_connections: MAX_CONNECTIONS,
        limits: limits(),
    };
    serve(db, &config).map_err(|e| format!("server start: {e}"))
}

pub fn connect_v2(server: &RunningServer) -> Result<Client, String> {
    Client::connect_v2(server.addr()).map_err(|e| format!("v2 connect: {e}"))
}

/// Sends `stmt` and fails unless the server answers `ok`.
pub fn expect_ok(client: &mut Client, stmt: &str) -> Result<String, String> {
    client.expect_ok(stmt).map_err(|e| format!("{stmt}: {e}"))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    Count,
    EvalModel,
    Execute,
    PrivateCount,
    Insert,
    Train,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Count => "count",
            Kind::EvalModel => "eval_model",
            Kind::Execute => "execute",
            Kind::PrivateCount => "private_count",
            Kind::Insert => "insert",
            Kind::Train => "train",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Stmt {
    pub kind: Kind,
    pub text: String,
}

/// One answered statement.
pub struct Answer {
    pub response: Response,
    /// The raw response lines (v1 and blocking v2 requests only).
    pub lines: Option<Vec<String>>,
    pub sent: Instant,
    pub done: Instant,
}

impl Answer {
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.sent).as_secs_f64() * 1e3
    }
}

/// A closed loop on one v2 connection keeping up to `depth` requests in
/// flight. `on_answer(i, answer)` runs as each response arrives, before the
/// next request goes out (the traced run replays reads there).
pub fn run_v2(
    client: &mut Client,
    stmts: &[Stmt],
    depth: usize,
    mut on_answer: impl FnMut(usize, &Answer),
) -> Result<Vec<Option<Answer>>, String> {
    let mut answers: Vec<Option<Answer>> = (0..stmts.len()).map(|_| None).collect();
    let mut in_flight: HashMap<u32, (usize, Instant)> = HashMap::with_capacity(depth);
    let mut next = 0;
    let mut received = 0;
    while received < stmts.len() {
        while next < stmts.len() && in_flight.len() < depth {
            let sent = Instant::now();
            let id = client.send_request(&stmts[next].text).map_err(|e| format!("send: {e}"))?;
            in_flight.insert(id, (next, sent));
            next += 1;
        }
        let (id, response) = client.recv_response().map_err(|e| format!("recv: {e}"))?;
        let done = Instant::now();
        let (i, sent) = in_flight.remove(&id).ok_or_else(|| format!("unexpected id {id}"))?;
        let answer = Answer { response, lines: None, sent, done };
        on_answer(i, &answer);
        answers[i] = Some(answer);
        received += 1;
    }
    Ok(answers)
}

/// One statement at a time on a v1 (or v2) connection, keeping the lines.
pub fn run_blocking(
    client: &mut Client,
    stmts: &[Stmt],
    on_answer: impl FnMut(usize, &Answer),
) -> Result<Vec<Option<Answer>>, String> {
    run_paced(client, stmts, |_| {}, on_answer)
}

/// [`run_blocking`], calling `before(i)` before statement `i` is sent
/// (and before its clock starts).
pub fn run_paced(
    client: &mut Client,
    stmts: &[Stmt],
    mut before: impl FnMut(usize),
    mut on_answer: impl FnMut(usize, &Answer),
) -> Result<Vec<Option<Answer>>, String> {
    let mut answers = Vec::with_capacity(stmts.len());
    for (i, stmt) in stmts.iter().enumerate() {
        before(i);
        let sent = Instant::now();
        let lines = client.request(&stmt.text).map_err(|e| format!("request: {e}"))?;
        let done = Instant::now();
        let answer =
            Answer { response: Response::from_lines(&lines), lines: Some(lines), sent, done };
        on_answer(i, &answer);
        answers.push(Some(answer));
    }
    Ok(answers)
}

/// The wire lines the server writes for `result`, for the result kinds the
/// benchmark's statements produce.
pub fn render(result: &QueryResult) -> Vec<String> {
    let line = match result {
        QueryResult::Ok => "ok".to_string(),
        QueryResult::Count(n) => format!("ok count={n}"),
        QueryResult::Scalar(Some(v)) => format!("ok scalar={v:?}"),
        QueryResult::Scalar(None) => "ok null".to_string(),
        QueryResult::Trained { model, accuracy } => format!("ok trained={model} acc={accuracy:?}"),
        QueryResult::Scores { rows, accuracy, auc } => {
            format!("ok rows={rows} acc={accuracy:?} auc={auc:?}")
        }
        other => format!("unrendered {other:?}"),
    };
    vec![line]
}

/// In-process answers from `Session::run` on the same `Db`, memoized by
/// statement text (the read workloads repeat most statements).
pub struct Expected {
    session: Session,
    memo: HashMap<String, Vec<String>>,
}

impl Expected {
    /// A session that has run `setup` (e.g. the PREPARE the clients ran).
    pub fn new(db: Arc<Db>, setup: &[&str]) -> Result<Expected, String> {
        let mut session = Session::new(db);
        for stmt in setup {
            session.run(stmt).map_err(|e| format!("{stmt}: {e}"))?;
        }
        Ok(Expected { session, memo: HashMap::new() })
    }

    pub fn lines(&mut self, text: &str) -> Vec<String> {
        if let Some(lines) = self.memo.get(text) {
            return lines.clone();
        }
        let lines = match self.session.run(text) {
            Ok(result) => render(&result),
            Err(e) => vec![format!("err {e}")],
        };
        self.memo.insert(text.to_string(), lines.clone());
        lines
    }
}

/// Counts failed answers (errors, sheds, or missing), and busy sheds.
pub fn count_failures(answers: &[Option<Answer>]) -> (u64, u64) {
    let mut failed = 0;
    let mut shed = 0;
    for a in answers {
        match a {
            Some(a) if a.response.is_ok() => {}
            Some(a) => {
                failed += 1;
                if a.response.err_kind() == Some(bolton_bismarck::ErrKind::Busy) {
                    shed += 1;
                }
            }
            None => failed += 1,
        }
    }
    (failed, shed)
}
