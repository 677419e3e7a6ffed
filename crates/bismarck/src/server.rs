//! The serving loop: a line-protocol SQL server over a shared [`Db`].
//!
//! ## Protocol
//!
//! One statement per line (UTF-8, `\n`-terminated). For every statement
//! the server writes zero or more data lines, each prefixed `* `, then
//! exactly one terminator line:
//!
//! ```text
//! ok [key=value …]     success, with a result summary
//! err <message>        failure (the connection stays usable)
//! ```
//!
//! e.g. `SELECT COUNT(*) FROM t` → `ok count=1000`; `EVAL MODEL m VERSION
//! 1 ON t` → `ok rows=1000 acc=0.947 auc=0.986`; `SHOW TABLES` → one `* `
//! line per table then `ok count=N`. Floats are printed in Rust's
//! shortest round-trip form, so a client can compare responses exactly.
//! `\q` (or `quit`) closes the connection; `SHUTDOWN` drains and stops
//! the whole server after answering `ok bye`.
//!
//! Two `err` codes are structured for machine retry logic:
//!
//! ```text
//! err busy retry_after_ms=N    shed by rate limiting or admission control
//! err timeout …                the statement ran past BOLTON_STMT_TIMEOUT_MS
//! ```
//!
//! ## Protocol v2 (binary, pipelined)
//!
//! The same listener also speaks the [`crate::protocol`] binary framing,
//! auto-detected from the first byte of the connection (`0xB2` can never
//! start a UTF-8 statement line, so legacy v1 clients need no changes).
//! A v2 connection carries many statements in flight at once: a reader
//! thread decodes frames, a dispatcher runs the shedding gates and parses
//! through the server-wide [`EnginePool`] (hot statements skip the
//! tokenizer), and `BOLTON_PIPELINE_EXECUTORS` executor threads run
//! statements concurrently, answering each on its own request ID — out of
//! order when a fast statement overtakes a slow one. Response payloads
//! are byte-for-byte the v1 response block, so the two protocols answer
//! identically. `busy`/`timeout` shedding is per request ID.
//!
//! ## Concurrency
//!
//! Thread-per-connection: each accepted connection gets a
//! [`Session`], so statements from different clients interleave under the
//! [`crate::db`] locking discipline (readers `EVAL`/`SELECT` while a
//! writer `TRAIN`s). Heavy statements fan out internally on the shared
//! [`bolton_sgd::pool`] worker pool, so a single connection's batch score
//! or training pass still uses every core.
//!
//! ## Resilience
//!
//! Each connection additionally runs a *reader thread* that feeds
//! complete statement lines to the session thread over a bounded channel.
//! While a statement executes, the reader sits in `read()` on the socket,
//! so a client hanging up mid-statement is noticed immediately: the
//! reader flips the session's [`CancelToken`] and the statement aborts at
//! its next cancellation point, releasing its locks with table and
//! registry state unchanged. The same token enforces
//! `BOLTON_STMT_TIMEOUT_MS`, slow-loris lines are cut after
//! `BOLTON_READ_TIMEOUT_MS`, idle connections are reaped after
//! `BOLTON_IDLE_TIMEOUT_MS`, and [`Limits`] rate/admission shedding
//! answers `err busy retry_after_ms=N` instead of queueing. `SHOW LIMITS`
//! reports every knob plus live counters. On `SHUTDOWN` (or
//! [`RunningServer::begin_drain`], wired to SIGTERM by `bismarck_serve`)
//! the server stops accepting, caps every in-flight statement's deadline
//! to the drain window, waits for connections to finish, fsyncs the WAL,
//! and attempts a final best-effort CHECKPOINT.
//!
//! Listens on TCP (`127.0.0.1:5433`) or, with an `unix:/path` address, a
//! Unix domain socket.
//!
//! ## One write per message
//!
//! Every wire message — a v1 statement line (or a [`Client::pipeline`]
//! batch of them), a v1 response block, a v2 frame — reaches the kernel
//! as one write, and both ends of every TCP connection set `TCP_NODELAY`.
//! A message split across writes on a Nagle socket holds its tail until
//! the peer ACKs the head, and a peer still waiting for the rest of the
//! message ACKs only when its delayed-ACK timer fires (≈ 40 ms on Linux),
//! so that timer, not the statement, would set every round trip.

use crate::db::Db;
use crate::engine::EnginePool;
use crate::error::{DbError, DbResult};
use crate::limits::{
    Admission, AdmissionPermit, CancelCause, CancelToken, IpQuota, Limits, TokenBucket,
};
use crate::protocol::{self, Frame, Response};
use crate::session::Session;
use crate::sql::{QueryResult, Statement};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration (see the `BOLTON_SERVE_*` / `BOLTON_*` environment
/// knobs in the `bismarck_serve` binary).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// `host:port` for TCP, or `unix:/path/to.sock` for a Unix socket.
    /// Port 0 binds an ephemeral port (reported by
    /// [`RunningServer::addr`]).
    pub addr: String,
    /// Connections beyond this answer `err server at connection limit`
    /// and are closed.
    pub max_connections: usize,
    /// Resilience knobs: deadlines, rate limits, admission control, drain.
    pub limits: Limits,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self { addr: "127.0.0.1:0".to_string(), max_connections: 64, limits: Limits::default() }
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    /// Accepts one connection, with the peer address the per-IP quota
    /// keys on. TCP connections get `TCP_NODELAY` (see the module docs).
    fn accept(&self) -> std::io::Result<(Conn, String)> {
        match self {
            Listener::Tcp(l) => {
                let (s, peer) = l.accept()?;
                // Best effort: the connection works without it, only slower.
                let _ = s.set_nodelay(true);
                Ok((Conn::Tcp(s), peer.ip().to_string()))
            }
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| (Conn::Unix(s), "local".to_string())),
        }
    }
}

/// One accepted connection (either transport), readable and writable.
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    fn try_clone(&self) -> std::io::Result<Conn> {
        Ok(match self {
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
            #[cfg(unix)]
            Conn::Unix(s) => Conn::Unix(s.try_clone()?),
        })
    }

    /// Sets the kernel receive timeout — reads then fail `WouldBlock`
    /// after `t`, which the reader thread uses as its polling tick.
    fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(t),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(t),
        }
    }

    /// Sets the kernel send timeout, so a client that stops draining its
    /// receive buffer cannot block a session thread in `write()` forever.
    fn set_write_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_write_timeout(t),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_write_timeout(t),
        }
    }

    /// Closes both directions, waking any thread blocked on the socket.
    fn shutdown(&self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            #[cfg(unix)]
            Conn::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }
}

impl std::io::Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

fn unix_path(addr: &str) -> Option<&str> {
    addr.strip_prefix("unix:")
}

fn connect(addr: &str) -> std::io::Result<Conn> {
    match unix_path(addr) {
        #[cfg(unix)]
        Some(path) => Ok(Conn::Unix(UnixStream::connect(path)?)),
        #[cfg(not(unix))]
        Some(_) => Err(std::io::Error::other("unix sockets are not supported here")),
        None => {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            Ok(Conn::Tcp(stream))
        }
    }
}

/// State shared by the accept loop, every connection thread, and the
/// [`RunningServer`] handle: the shutdown/drain flag, live-connection and
/// in-flight-statement accounting, and the cancel token of every live
/// session (so drain can cap their deadlines).
struct ServerShared {
    db: Arc<Db>,
    addr: String,
    limits: Limits,
    shutdown: AtomicBool,
    active: AtomicUsize,
    max_connections: usize,
    admission: Option<Arc<Admission>>,
    global_bucket: Option<TokenBucket>,
    ip_quota: Option<Arc<IpQuota>>,
    tokens: Mutex<HashMap<u64, CancelToken>>,
    next_token: AtomicU64,
    /// The server-wide parse/plan pool, shared by every connection on
    /// both protocol versions.
    engines: EnginePool,
}

impl ServerShared {
    /// Stops accepting and caps every in-flight statement's deadline to
    /// the drain window. Idempotent; safe from a signal-watcher thread.
    fn begin_drain(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        let window = self.limits.drain_timeout();
        for token in self.tokens.lock().expect("token registry lock").values() {
            token.cap_deadline(window);
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = connect(&self.addr);
    }

    fn register_token(&self, token: &CancelToken) -> u64 {
        let id = self.next_token.fetch_add(1, Ordering::Relaxed);
        self.tokens.lock().expect("token registry lock").insert(id, token.clone());
        // A drain that started while we were registering must still cap us.
        if self.shutdown.load(Ordering::SeqCst) {
            token.cap_deadline(self.limits.drain_timeout());
        }
        id
    }

    fn unregister_token(&self, id: u64) {
        self.tokens.lock().expect("token registry lock").remove(&id);
    }
}

/// Lets in-flight work finish within the drain window, hard-cancels
/// stragglers, then makes everything acked durable: WAL fsync plus a
/// best-effort CHECKPOINT.
fn drain_connections(shared: &ServerShared) {
    let deadline = Instant::now() + shared.limits.drain_timeout();
    while shared.active.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    if shared.active.load(Ordering::SeqCst) > 0 {
        // Out of patience: flip every remaining token and give the
        // sessions a short grace period to unwind and release locks.
        for token in shared.tokens.lock().expect("token registry lock").values() {
            token.cancel();
        }
        let grace = Instant::now() + Duration::from_millis(500);
        while shared.active.load(Ordering::SeqCst) > 0 && Instant::now() < grace {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    if let Some(wal) = shared.db.wal() {
        let _ = wal.sync_all();
    }
    if shared.db.is_durable() {
        let _ = shared.db.checkpoint();
    }
}

/// A handle on a running server: its bound address, drain, and a clean
/// stop.
pub struct RunningServer {
    addr: String,
    shared: Arc<ServerShared>,
    accept: Option<JoinHandle<()>>,
    socket_file: Option<PathBuf>,
}

impl RunningServer {
    /// The address clients connect to (the actual bound port when the
    /// config asked for `:0`; `unix:/path` for Unix sockets).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Whether a `SHUTDOWN` statement (or [`RunningServer::stop`] /
    /// [`RunningServer::begin_drain`]) has stopped the accept loop.
    pub fn is_shut_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Starts a graceful drain without blocking: stop accepting, cap
    /// in-flight statements to the drain window. Pair with
    /// [`RunningServer::wait`] (which finishes the drain and the final
    /// WAL fsync / checkpoint) — this is what a SIGTERM handler calls.
    pub fn begin_drain(&self) {
        self.shared.begin_drain();
    }

    /// A cheap, `Send` closure that triggers [`RunningServer::begin_drain`]
    /// — hand it to a signal-watcher thread while the main thread blocks
    /// in [`RunningServer::wait`].
    pub fn drainer(&self) -> impl Fn() + Send + 'static {
        let shared = Arc::clone(&self.shared);
        move || shared.begin_drain()
    }

    /// Stops accepting, drains in-flight statements up to the drain
    /// window, fsyncs the WAL (best-effort CHECKPOINT), and joins the
    /// accept loop.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    /// Blocks until the accept loop exits (a client issued `SHUTDOWN` or
    /// [`RunningServer::begin_drain`] was called), then finishes the
    /// graceful drain.
    pub fn wait(mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        self.shared.begin_drain();
        drain_connections(&self.shared);
        self.cleanup_socket();
    }

    fn stop_inner(&mut self) {
        self.shared.begin_drain();
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        drain_connections(&self.shared);
        self.cleanup_socket();
    }

    fn cleanup_socket(&mut self) {
        if let Some(path) = self.socket_file.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop_inner();
        }
    }
}

/// Starts serving `db` per `config`, returning immediately with a handle.
///
/// # Errors
/// Bind failures.
pub fn serve(db: Arc<Db>, config: &ServerConfig) -> DbResult<RunningServer> {
    let (listener, addr, socket_file) = match unix_path(&config.addr) {
        #[cfg(unix)]
        Some(path) => {
            let path_buf = PathBuf::from(path);
            // A leftover socket file from a previous run blocks bind.
            let _ = std::fs::remove_file(&path_buf);
            let listener = UnixListener::bind(&path_buf)?;
            (Listener::Unix(listener), config.addr.clone(), Some(path_buf))
        }
        #[cfg(not(unix))]
        Some(_) => {
            return Err(DbError::Io(std::io::Error::other(
                "unix sockets are not supported on this platform",
            )))
        }
        None => {
            let listener = TcpListener::bind(&config.addr)?;
            let addr = listener.local_addr()?.to_string();
            (Listener::Tcp(listener), addr, None)
        }
    };
    let limits = config.limits.clone();
    let shared = Arc::new(ServerShared {
        db,
        addr: addr.clone(),
        shutdown: AtomicBool::new(false),
        active: AtomicUsize::new(0),
        max_connections: config.max_connections.max(1),
        admission: (limits.max_active_statements > 0)
            .then(|| Admission::new(limits.max_active_statements)),
        global_bucket: (limits.global_rate_limit > 0)
            .then(|| TokenBucket::new(limits.global_rate_limit, limits.global_rate_limit)),
        ip_quota: (limits.max_conn_per_ip > 0).then(|| IpQuota::new(limits.max_conn_per_ip)),
        tokens: Mutex::new(HashMap::new()),
        next_token: AtomicU64::new(0),
        engines: EnginePool::new(limits.parse_engines, limits.parse_cache),
        limits,
    });
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("bismarck-accept".to_string())
            .spawn(move || accept_loop(&listener, &shared))
            .expect("spawn accept thread")
    };
    Ok(RunningServer { addr, shared, accept: Some(accept), socket_file })
}

fn accept_loop(listener: &Listener, shared: &Arc<ServerShared>) {
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok((mut conn, peer)) = accepted else {
            // Persistent accept errors (EMFILE under fd pressure, …) must
            // not busy-spin the accept thread at 100% CPU.
            std::thread::sleep(std::time::Duration::from_millis(50));
            continue;
        };
        if shared.active.load(Ordering::SeqCst) >= shared.max_connections {
            let msg = format!("err server at connection limit ({})\n", shared.max_connections);
            let _ = conn.write_all(msg.as_bytes());
            continue;
        }
        // Per-address quota: one greedy host sheds before it can occupy
        // the global connection budget.
        let ip_permit = match &shared.ip_quota {
            Some(quota) => match quota.try_acquire(&peer) {
                Some(permit) => Some(permit),
                None => {
                    let msg = format!(
                        "err busy connection quota for {peer} exhausted ({} allowed)\n",
                        shared.limits.max_conn_per_ip
                    );
                    let _ = conn.write_all(msg.as_bytes());
                    continue;
                }
            },
            None => None,
        };
        // A drop guard (not a trailing fetch_sub) releases the slot, so a
        // panicking statement — or a failed spawn — can never leak it.
        let slot = ConnectionSlot(Arc::clone(shared));
        shared.active.fetch_add(1, Ordering::SeqCst);
        let shared = Arc::clone(shared);
        let _ = std::thread::Builder::new().name("bismarck-conn".to_string()).spawn(move || {
            let _slot = slot;
            let _ip_permit = ip_permit;
            handle_connection(conn, &shared);
        });
    }
}

/// Owns one slot of the connection budget; dropping it (normal return,
/// connection-thread panic, or a spawn failure) releases the slot.
struct ConnectionSlot(Arc<ServerShared>);

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Per-statement byte cap: a client streaming bytes without a newline
/// must not grow server memory without bound.
const MAX_STATEMENT_BYTES: usize = 64 * 1024;

/// How often blocked waits re-check for drain/idle/disconnect.
const TICK: Duration = Duration::from_millis(25);

/// One bounded line read.
enum LineRead {
    Line(String),
    Eof,
    TooLong,
    /// A started line did not complete within the read deadline — the
    /// slow-loris defense.
    Stalled,
}

/// Reads one `\n`-terminated line, never buffering more than `max` bytes.
/// With `line_deadline`, the socket's receive timeout is the polling tick
/// and a line whose first byte arrived more than the deadline ago is cut
/// as [`LineRead::Stalled`].
fn read_line_capped(
    reader: &mut impl BufRead,
    max: usize,
    line_deadline: Option<Duration>,
) -> std::io::Result<LineRead> {
    let mut buf = Vec::new();
    let mut line_started: Option<Instant> = None;
    loop {
        let available = match reader.fill_buf() {
            Ok(available) => available,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                if let (Some(limit), Some(started)) = (line_deadline, line_started) {
                    if started.elapsed() >= limit {
                        return Ok(LineRead::Stalled);
                    }
                }
                continue;
            }
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line(String::from_utf8_lossy(&buf).into_owned())
            });
        }
        if line_started.is_none() {
            line_started = Some(Instant::now());
        }
        if let Some(pos) = available.iter().position(|&b| b == b'\n') {
            buf.extend_from_slice(&available[..pos]);
            reader.consume(pos + 1);
            return Ok(if buf.len() > max {
                LineRead::TooLong
            } else {
                LineRead::Line(String::from_utf8_lossy(&buf).into_owned())
            });
        }
        buf.extend_from_slice(available);
        let consumed = available.len();
        reader.consume(consumed);
        if buf.len() > max {
            return Ok(LineRead::TooLong);
        }
    }
}

/// What the reader thread hands the session thread. Disconnects carry no
/// event: the reader cancels the session's token and closes the channel.
enum ConnEvent {
    Line(String),
    TooLong,
    Stalled,
}

fn handle_connection(mut conn: Conn, shared: &Arc<ServerShared>) {
    let Ok(read_half) = conn.try_clone() else { return };
    let Ok(ctrl) = conn.try_clone() else { return };
    let read_deadline = shared.limits.read_timeout();
    // The kernel receive timeout is every blocked read's polling tick —
    // the protocol sniff, the v1 line reader, and the v2 frame reader all
    // need it to notice shutdown/idle while waiting for bytes.
    let _ = conn.set_read_timeout(Some(TICK));
    if read_deadline.is_some() {
        // The send timeout bounds writes to a client that stopped reading.
        let _ = conn.set_write_timeout(read_deadline);
    }
    let mut reader = BufReader::new(read_half);
    // Sniff the first byte to pick the protocol: [`protocol::MAGIC`] is
    // `>= 0x80` and therefore never starts a UTF-8 statement line, so one
    // peeked byte decides — v2 binary frames or the v1 line protocol.
    let started = Instant::now();
    let first = loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match reader.fill_buf() {
            Ok([]) => return, // clean EOF before the first byte
            Ok(buf) => break buf[0],
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                if let Some(limit) = shared.limits.idle_timeout() {
                    if started.elapsed() >= limit {
                        let msg = format!(
                            "err idle connection reaped after {}ms\n",
                            shared.limits.idle_timeout_ms
                        );
                        let _ = conn.write_all(msg.as_bytes());
                        return;
                    }
                }
            }
            Err(_) => return,
        }
    };
    if first == protocol::MAGIC {
        handle_v2_connection(conn, reader, &ctrl, shared);
    } else {
        handle_line_connection(conn, reader, &ctrl, shared);
    }
}

/// The v1 write half. Every response block is gathered here and reaches
/// the kernel in one `write_all` at `flush`, however many lines it has
/// (see "One write per message" in the module docs).
struct ResponseWriter {
    conn: Conn,
    buf: Vec<u8>,
}

impl Write for ResponseWriter {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let sent = self.conn.write_all(&self.buf);
        self.buf.clear();
        sent
    }
}

fn handle_line_connection(
    conn: Conn,
    line_reader: BufReader<Conn>,
    ctrl: &Conn,
    shared: &Arc<ServerShared>,
) {
    let read_deadline = shared.limits.read_timeout();
    let mut writer = ResponseWriter { conn, buf: Vec::new() };
    let token = CancelToken::new();
    let token_id = shared.register_token(&token);
    let mut session = Session::with_cancel(Arc::clone(&shared.db), token.clone());
    // The reader thread: turns the socket into a channel of statement
    // lines and — crucially — sits in read() while a statement executes,
    // so a mid-statement disconnect flips the cancel token immediately.
    let (line_tx, line_rx) = mpsc::sync_channel::<ConnEvent>(1);
    let reader_handle = {
        let token = token.clone();
        std::thread::Builder::new().name("bismarck-read".to_string()).spawn(move || {
            let mut reader = line_reader;
            loop {
                match read_line_capped(&mut reader, MAX_STATEMENT_BYTES, read_deadline) {
                    Ok(LineRead::Line(line)) => {
                        if line_tx.send(ConnEvent::Line(line)).is_err() {
                            return;
                        }
                    }
                    Ok(LineRead::TooLong) => {
                        let _ = line_tx.send(ConnEvent::TooLong);
                        return;
                    }
                    Ok(LineRead::Stalled) => {
                        let _ = line_tx.send(ConnEvent::Stalled);
                        return;
                    }
                    Ok(LineRead::Eof) | Err(_) => {
                        token.cancel();
                        return;
                    }
                }
            }
        })
    };
    let conn_bucket = (shared.limits.rate_limit > 0)
        .then(|| TokenBucket::new(shared.limits.rate_limit, shared.limits.rate_limit));
    let mut last_activity = Instant::now();
    'conn: loop {
        // Wait for the next statement, ticking so drain, disconnect, and
        // idle reaping are noticed while the connection sits quiet.
        let event = loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                break 'conn;
            }
            match line_rx.recv_timeout(TICK) {
                Ok(event) => break event,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if token.cause() == Some(CancelCause::Disconnect) {
                        break 'conn;
                    }
                    if let Some(limit) = shared.limits.idle_timeout() {
                        if last_activity.elapsed() >= limit {
                            let _ = writeln!(
                                writer,
                                "err idle connection reaped after {}ms",
                                shared.limits.idle_timeout_ms
                            );
                            let _ = writer.flush();
                            break 'conn;
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break 'conn,
            }
        };
        last_activity = Instant::now();
        let line = match event {
            ConnEvent::Line(line) => line,
            ConnEvent::TooLong => {
                // The remainder of the oversized line is still in flight;
                // closing the connection is the only bounded response.
                let _ = writeln!(writer, "err statement exceeds {MAX_STATEMENT_BYTES} bytes");
                let _ = writer.flush();
                break;
            }
            ConnEvent::Stalled => {
                let _ = writeln!(
                    writer,
                    "err read timeout: statement line incomplete after {}ms",
                    shared.limits.read_timeout_ms
                );
                let _ = writer.flush();
                break;
            }
        };
        let statement = line.trim();
        if statement.is_empty() {
            continue;
        }
        if statement == "\\q" || statement.eq_ignore_ascii_case("quit") {
            break;
        }
        let stmt = match shared.engines.parse(statement) {
            Ok(stmt) => stmt,
            Err(e) => {
                if writeln!(writer, "err {e}").and_then(|()| writer.flush()).is_err() {
                    break;
                }
                continue;
            }
        };
        match &*stmt {
            Statement::Shutdown => {
                // Answer, then drain: the accept loop stops and stop()/
                // wait() finish in-flight work and the final WAL fsync.
                let _ = writeln!(writer, "ok bye").and_then(|()| writer.flush());
                shared.begin_drain();
                break;
            }
            Statement::ShowLimits => {
                if write_limits(&mut writer, shared).and_then(|()| writer.flush()).is_err() {
                    break;
                }
            }
            stmt => {
                // Shedding gates, cheapest first: per-connection rate,
                // global rate, then the admission semaphore. Every
                // rejection is the structured `err busy retry_after_ms=N`
                // so clients back off instead of piling on.
                if let Some(bucket) = &conn_bucket {
                    if let Err(retry) = bucket.try_acquire() {
                        if shed_busy(&mut writer, retry).is_err() {
                            break;
                        }
                        continue;
                    }
                }
                if let Some(bucket) = &shared.global_bucket {
                    if let Err(retry) = bucket.try_acquire() {
                        if shed_busy(&mut writer, retry).is_err() {
                            break;
                        }
                        continue;
                    }
                }
                let permit = match &shared.admission {
                    Some(admission) => match admission.try_acquire() {
                        Some(permit) => Some(permit),
                        None => {
                            if shed_busy(&mut writer, Duration::from_millis(10)).is_err() {
                                break;
                            }
                            continue;
                        }
                    },
                    None => None,
                };
                token.arm(shared.limits.stmt_timeout());
                if shared.shutdown.load(Ordering::SeqCst) {
                    token.cap_deadline(shared.limits.drain_timeout());
                }
                let outcome = session.execute(stmt);
                token.disarm();
                drop(permit);
                let io = match outcome {
                    Ok(result) => write_result(&mut writer, &result),
                    Err(e) => writeln!(writer, "err {e}"),
                };
                if io.and_then(|()| writer.flush()).is_err() {
                    break;
                }
            }
        }
    }
    // Unblock the reader (it may sit in read()), then join it so the
    // thread never outlives the connection's accounting.
    let _ = ctrl.shutdown();
    drop(writer);
    if let Ok(handle) = reader_handle {
        let _ = handle.join();
    }
    shared.unregister_token(token_id);
    // The TRAIN→SAVE crash window (REPRODUCING.md): models trained but
    // never saved live only in memory and die with the server.
    let unsaved = session.unsaved_models();
    if !unsaved.is_empty() {
        eprintln!(
            "warning: session closed with unsaved model(s) {} — \
             run SAVE MODEL <name> to persist them to the registry",
            unsaved.join(", ")
        );
    }
}

// ---------------------------------------------------------------------------
// Protocol v2: pipelined binary frames
// ---------------------------------------------------------------------------

/// One admitted statement on its way to an executor.
struct Work {
    request_id: u32,
    stmt: Arc<Statement>,
    /// Held until the statement finishes, so pipelined work counts
    /// against `max_active_statements` exactly like v1 statements.
    permit: Option<AdmissionPermit>,
}

/// The dispatcher→executor queue: a closable condvar deque. Depth is
/// bounded upstream by the reader channel (`pipeline_depth`), so the
/// deque itself never grows past the frames already admitted.
struct WorkQueue {
    state: Mutex<(VecDeque<Work>, bool)>,
    cond: Condvar,
}

impl WorkQueue {
    fn new() -> Self {
        WorkQueue { state: Mutex::new((VecDeque::new(), false)), cond: Condvar::new() }
    }

    fn push(&self, work: Work) {
        let mut state = self.state.lock().expect("work queue lock");
        if state.1 {
            return; // closing: the connection is tearing down
        }
        state.0.push_back(work);
        self.cond.notify_one();
    }

    /// Wakes every executor; they drain the remaining work, then exit.
    fn close(&self) {
        let mut state = self.state.lock().expect("work queue lock");
        state.1 = true;
        self.cond.notify_all();
    }

    fn pop(&self) -> Option<Work> {
        let mut state = self.state.lock().expect("work queue lock");
        loop {
            if let Some(work) = state.0.pop_front() {
                return Some(work);
            }
            if state.1 {
                return None;
            }
            state = self.cond.wait(state).expect("work queue lock");
        }
    }
}

/// One bounded v2 frame read (the binary analogue of [`LineRead`]).
enum FrameRead {
    Frame(Frame),
    /// Clean EOF at a frame boundary — or a torn frame cut by a
    /// disconnect; either way the client is gone.
    Eof,
    /// The header's `len` exceeds the statement cap.
    TooLong {
        request_id: u32,
        len: u64,
    },
    /// A started frame did not complete within the read deadline.
    Stalled,
    /// Bytes that can never become a valid frame (bad magic/checksum).
    Corrupt(String),
}

/// Reads one frame, never buffering more than `max_payload` + header
/// bytes; the socket's receive timeout is the polling tick, and a frame
/// whose first byte arrived more than `frame_deadline` ago is cut as
/// [`FrameRead::Stalled`] — the slow-loris defense, per frame.
fn read_frame_capped(
    reader: &mut impl BufRead,
    max_payload: usize,
    frame_deadline: Option<Duration>,
) -> std::io::Result<FrameRead> {
    let mut buf = Vec::new();
    let mut frame_started: Option<Instant> = None;
    loop {
        match protocol::decode(&buf, max_payload) {
            Ok(Some((frame, _consumed))) => return Ok(FrameRead::Frame(frame)),
            Ok(None) => {} // torn prefix: need more bytes
            Err(protocol::FrameError::Oversize { request_id, len, .. }) => {
                return Ok(FrameRead::TooLong { request_id, len })
            }
            Err(e) => return Ok(FrameRead::Corrupt(e.to_string())),
        }
        // Take only the bytes this frame still needs, so the next frame's
        // bytes stay in the BufReader for the next call.
        let needed = if buf.len() < protocol::HEADER_LEN {
            protocol::HEADER_LEN - buf.len()
        } else {
            let header =
                protocol::parse_header(&buf, max_payload).expect("decode validated the header");
            protocol::HEADER_LEN + header.len as usize - buf.len()
        };
        let available = match reader.fill_buf() {
            Ok(available) => available,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                if let (Some(limit), Some(started)) = (frame_deadline, frame_started) {
                    if started.elapsed() >= limit {
                        return Ok(FrameRead::Stalled);
                    }
                }
                continue;
            }
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(FrameRead::Eof);
        }
        if frame_started.is_none() {
            frame_started = Some(Instant::now());
        }
        let take = needed.min(available.len());
        buf.extend_from_slice(&available[..take]);
        reader.consume(take);
    }
}

/// What the v2 reader thread hands the dispatcher.
enum V2Event {
    Frame(Frame),
    TooLong { request_id: u32, len: u64 },
    Stalled,
    Corrupt(String),
}

/// Writes one response frame (payload = the v1 response block) and
/// flushes, under the connection's shared writer lock.
fn write_response_frame(
    writer: &Mutex<BufWriter<Conn>>,
    request_id: u32,
    payload: &[u8],
) -> std::io::Result<()> {
    let mut w = writer.lock().expect("connection writer lock");
    protocol::write_frame(&mut *w, 0, request_id, payload)?;
    w.flush()
}

/// The v2 shed response: `err busy retry_after_ms=N` on the shed
/// request's own ID, while its pipelined neighbours proceed.
fn shed_busy_frame(
    writer: &Mutex<BufWriter<Conn>>,
    request_id: u32,
    retry: Duration,
) -> std::io::Result<()> {
    let ms = u64::try_from(retry.as_millis()).unwrap_or(u64::MAX).max(1);
    write_response_frame(writer, request_id, format!("err busy retry_after_ms={ms}\n").as_bytes())
}

/// One executor: pops admitted statements, runs them on its forked
/// session (own [`CancelToken`], shared prepared statements), and writes
/// each response frame as its statement finishes — this is what lets a
/// fast pipelined statement overtake a slow one.
fn executor_loop(
    session: &mut Session,
    token: &CancelToken,
    queue: &WorkQueue,
    writer: &Mutex<BufWriter<Conn>>,
    in_flight: &AtomicUsize,
    shared: &ServerShared,
) {
    while let Some(work) = queue.pop() {
        let Work { request_id, stmt, permit } = work;
        token.arm(shared.limits.stmt_timeout());
        if shared.shutdown.load(Ordering::SeqCst) {
            token.cap_deadline(shared.limits.drain_timeout());
        }
        let outcome = session.execute(&stmt);
        token.disarm();
        drop(permit);
        let mut payload = Vec::new();
        let _ = match outcome {
            Ok(result) => write_result(&mut payload, &result),
            Err(e) => writeln!(payload, "err {e}"),
        };
        // A failed write means the client is gone; keep draining so every
        // queued permit is released and the queue empties for join.
        let _ = write_response_frame(writer, request_id, &payload);
        in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

fn handle_v2_connection(
    conn: Conn,
    frame_reader: BufReader<Conn>,
    ctrl: &Conn,
    shared: &Arc<ServerShared>,
) {
    let read_deadline = shared.limits.read_timeout();
    let depth = shared.limits.pipeline_depth.max(1);
    let executors = shared.limits.pipeline_executors.max(1);
    // Executors interleave response frames, so the write half is shared
    // and each frame goes out as one locked write.
    let writer = Arc::new(Mutex::new(BufWriter::new(conn)));
    // The base session holds the connection's prepared statements and
    // unsaved-model set; executors fork it, each with its own token.
    let base_token = CancelToken::new();
    let base_session = Session::with_cancel(Arc::clone(&shared.db), base_token.clone());
    let queue = Arc::new(WorkQueue::new());
    let in_flight = Arc::new(AtomicUsize::new(0));
    let mut exec_tokens = Vec::with_capacity(executors);
    let mut token_ids = Vec::with_capacity(executors);
    let mut exec_handles = Vec::with_capacity(executors);
    for i in 0..executors {
        let token = CancelToken::new();
        token_ids.push(shared.register_token(&token));
        exec_tokens.push(token.clone());
        let mut session = base_session.fork(token.clone());
        let queue = Arc::clone(&queue);
        let writer = Arc::clone(&writer);
        let in_flight = Arc::clone(&in_flight);
        let shared = Arc::clone(shared);
        let handle =
            std::thread::Builder::new().name(format!("bismarck-exec-{i}")).spawn(move || {
                executor_loop(&mut session, &token, &queue, &writer, &in_flight, &shared);
            });
        if let Ok(handle) = handle {
            exec_handles.push(handle);
        }
    }
    // The reader thread: decodes frames into a channel whose capacity is
    // the pipeline depth — a client pushing more frames than that blocks
    // in TCP, which is the backpressure. On disconnect it flips every
    // executor's token so in-flight statements abort and release locks.
    let (frame_tx, frame_rx) = mpsc::sync_channel::<V2Event>(depth);
    let reader_tokens = exec_tokens.clone();
    let reader_handle =
        std::thread::Builder::new().name("bismarck-read".to_string()).spawn(move || {
            let mut reader = frame_reader;
            loop {
                match read_frame_capped(&mut reader, MAX_STATEMENT_BYTES, read_deadline) {
                    Ok(FrameRead::Frame(frame)) => {
                        if frame_tx.send(V2Event::Frame(frame)).is_err() {
                            return;
                        }
                    }
                    Ok(FrameRead::TooLong { request_id, len }) => {
                        let _ = frame_tx.send(V2Event::TooLong { request_id, len });
                        return;
                    }
                    Ok(FrameRead::Stalled) => {
                        let _ = frame_tx.send(V2Event::Stalled);
                        return;
                    }
                    Ok(FrameRead::Corrupt(detail)) => {
                        let _ = frame_tx.send(V2Event::Corrupt(detail));
                        return;
                    }
                    Ok(FrameRead::Eof) | Err(_) => {
                        for token in &reader_tokens {
                            token.cancel();
                        }
                        return;
                    }
                }
            }
        });
    let conn_bucket = (shared.limits.rate_limit > 0)
        .then(|| TokenBucket::new(shared.limits.rate_limit, shared.limits.rate_limit));
    let mut last_activity = Instant::now();
    'conn: loop {
        let event = loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                break 'conn;
            }
            match frame_rx.recv_timeout(TICK) {
                Ok(event) => break event,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if exec_tokens[0].cause() == Some(CancelCause::Disconnect) {
                        break 'conn;
                    }
                    if let Some(limit) = shared.limits.idle_timeout() {
                        // Only reap a connection with nothing in flight: a
                        // client silently awaiting a long TRAIN is not idle.
                        if in_flight.load(Ordering::SeqCst) == 0 && last_activity.elapsed() >= limit
                        {
                            let msg = format!(
                                "err idle connection reaped after {}ms\n",
                                shared.limits.idle_timeout_ms
                            );
                            let _ = write_response_frame(&writer, 0, msg.as_bytes());
                            break 'conn;
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break 'conn,
            }
        };
        last_activity = Instant::now();
        let frame = match event {
            V2Event::Frame(frame) => frame,
            V2Event::TooLong { request_id, len } => {
                let msg = format!(
                    "err statement exceeds {MAX_STATEMENT_BYTES} bytes (frame len {len})\n"
                );
                let _ = write_response_frame(&writer, request_id, msg.as_bytes());
                break;
            }
            V2Event::Stalled => {
                let msg = format!(
                    "err read timeout: frame incomplete after {}ms\n",
                    shared.limits.read_timeout_ms
                );
                let _ = write_response_frame(&writer, 0, msg.as_bytes());
                break;
            }
            V2Event::Corrupt(detail) => {
                // The stream is desynchronized; answering on ID 0 then
                // closing is the only bounded response.
                let msg = format!("err protocol {detail}\n");
                let _ = write_response_frame(&writer, 0, msg.as_bytes());
                break;
            }
        };
        let id = frame.request_id;
        if frame.flags != 0 {
            let msg = format!("err protocol reserved flags 0x{:02x} must be 0\n", frame.flags);
            if write_response_frame(&writer, id, msg.as_bytes()).is_err() {
                break;
            }
            continue;
        }
        let text = String::from_utf8_lossy(&frame.payload);
        let statement = text.trim();
        if statement.is_empty() {
            if write_response_frame(&writer, id, b"err empty statement\n").is_err() {
                break;
            }
            continue;
        }
        if statement == "\\q" || statement.eq_ignore_ascii_case("quit") {
            let _ = write_response_frame(&writer, id, b"ok bye\n");
            break;
        }
        let stmt = match shared.engines.parse(statement) {
            Ok(stmt) => stmt,
            Err(e) => {
                let msg = format!("err {e}\n");
                if write_response_frame(&writer, id, msg.as_bytes()).is_err() {
                    break;
                }
                continue;
            }
        };
        match &*stmt {
            Statement::Shutdown => {
                let _ = write_response_frame(&writer, id, b"ok bye\n");
                shared.begin_drain();
                break;
            }
            Statement::ShowLimits => {
                // Cheap and session-free: answered inline, never queued.
                let mut payload = Vec::new();
                let _ = write_limits(&mut payload, shared);
                if write_response_frame(&writer, id, &payload).is_err() {
                    break;
                }
            }
            _ => {
                // The same shedding gates as v1, cheapest first — but each
                // rejection answers on the shed request's own ID.
                if let Some(bucket) = &conn_bucket {
                    if let Err(retry) = bucket.try_acquire() {
                        if shed_busy_frame(&writer, id, retry).is_err() {
                            break;
                        }
                        continue;
                    }
                }
                if let Some(bucket) = &shared.global_bucket {
                    if let Err(retry) = bucket.try_acquire() {
                        if shed_busy_frame(&writer, id, retry).is_err() {
                            break;
                        }
                        continue;
                    }
                }
                let permit = match &shared.admission {
                    Some(admission) => match admission.try_acquire() {
                        Some(permit) => Some(permit),
                        None => {
                            if shed_busy_frame(&writer, id, Duration::from_millis(10)).is_err() {
                                break;
                            }
                            continue;
                        }
                    },
                    None => None,
                };
                in_flight.fetch_add(1, Ordering::SeqCst);
                queue.push(Work { request_id: id, stmt, permit });
            }
        }
    }
    // Teardown: stop feeding the executors and let them drain — every
    // queued response still reaches a connected client — then unblock
    // and join the reader so no thread outlives the accounting.
    queue.close();
    for handle in exec_handles {
        let _ = handle.join();
    }
    let _ = ctrl.shutdown();
    drop(writer);
    if let Ok(handle) = reader_handle {
        let _ = handle.join();
    }
    for id in token_ids {
        shared.unregister_token(id);
    }
    let unsaved = base_session.unsaved_models();
    if !unsaved.is_empty() {
        eprintln!(
            "warning: session closed with unsaved model(s) {} — \
             run SAVE MODEL <name> to persist them to the registry",
            unsaved.join(", ")
        );
    }
}

/// The structured shed response: clients parse `retry_after_ms` and back
/// off. Rounds sub-millisecond waits up so a client never retries hot.
fn shed_busy(w: &mut impl Write, retry: Duration) -> std::io::Result<()> {
    let ms = u64::try_from(retry.as_millis()).unwrap_or(u64::MAX).max(1);
    writeln!(w, "err busy retry_after_ms={ms}")?;
    w.flush()
}

/// `SHOW LIMITS`: every knob plus the live counters, one `key=value` per
/// data line.
fn write_limits(w: &mut impl Write, shared: &ServerShared) -> std::io::Result<()> {
    let l = &shared.limits;
    let in_flight = shared.admission.as_ref().map_or(0, |a| a.in_flight());
    let parse_stats = shared.engines.stats();
    let entries: &[(&str, u64)] = &[
        ("stmt_timeout_ms", l.stmt_timeout_ms),
        ("rate_limit", l.rate_limit),
        ("global_rate_limit", l.global_rate_limit),
        ("max_conn_per_ip", l.max_conn_per_ip as u64),
        ("max_active_statements", l.max_active_statements as u64),
        ("idle_timeout_ms", l.idle_timeout_ms),
        ("read_timeout_ms", l.read_timeout_ms),
        ("drain_timeout_ms", l.drain_timeout_ms),
        ("max_connections", shared.max_connections as u64),
        ("active_connections", shared.active.load(Ordering::SeqCst) as u64),
        ("in_flight_statements", in_flight as u64),
        ("pipeline_executors", l.pipeline_executors as u64),
        ("pipeline_depth", l.pipeline_depth as u64),
        ("parse_engines", l.parse_engines as u64),
        ("parse_cache_capacity", l.parse_cache as u64),
        ("parse_cache_hits", parse_stats.hits),
        ("parse_cache_misses", parse_stats.misses),
    ];
    for (key, value) in entries {
        writeln!(w, "* {key}={value}")?;
    }
    writeln!(w, "ok count={}", entries.len())
}

/// Encodes one [`QueryResult`] onto the wire (data lines + terminator).
fn write_result(w: &mut impl Write, result: &QueryResult) -> std::io::Result<()> {
    match result {
        QueryResult::Ok => writeln!(w, "ok"),
        QueryResult::Count(n) => writeln!(w, "ok count={n}"),
        QueryResult::Scalar(Some(v)) => writeln!(w, "ok scalar={v:?}"),
        QueryResult::Scalar(None) => writeln!(w, "ok null"),
        QueryResult::Names(names) => {
            for name in names {
                writeln!(w, "* {name}")?;
            }
            writeln!(w, "ok count={}", names.len())
        }
        QueryResult::Histogram(bins) => {
            for (label, count) in bins {
                writeln!(w, "* {label} {count}")?;
            }
            writeln!(w, "ok count={}", bins.len())
        }
        QueryResult::Stats(cols) => {
            for (i, c) in cols.iter().enumerate() {
                let name = if i + 1 == cols.len() { "label".to_string() } else { format!("f{i}") };
                writeln!(
                    w,
                    "* {name} min={:?} max={:?} mean={:?} std={:?}",
                    c.min, c.max, c.mean, c.std_dev
                )?;
            }
            writeln!(w, "ok count={}", cols.len())
        }
        QueryResult::Trained { model, accuracy } => {
            writeln!(w, "ok trained={model} acc={accuracy:?}")
        }
        QueryResult::Scores { rows, accuracy, auc } => {
            writeln!(w, "ok rows={rows} acc={accuracy:?} auc={auc:?}")
        }
        QueryResult::ModelVersioned { model, version, dim } => {
            writeln!(w, "ok model={model} version={version} dim={dim}")
        }
        QueryResult::Models(models) => {
            for m in models {
                writeln!(
                    w,
                    "* {} v{} dim={} checksum={:016x}{}",
                    m.name,
                    m.version,
                    m.dim,
                    m.checksum,
                    if m.latest { " latest" } else { "" }
                )?;
            }
            writeln!(w, "ok count={}", models.len())
        }
        QueryResult::Checkpointed { tables, lsn } => {
            writeln!(w, "ok tables={tables} lsn={lsn}")
        }
    }
}

/// Which wire format a [`Client`] speaks.
enum Transport {
    /// v1: one statement per line, responses read to the terminator.
    Line,
    /// v2: binary frames with client-assigned request IDs.
    Binary { next_id: u32 },
}

/// A client for either protocol version: [`Client::connect`] speaks the
/// v1 line protocol, [`Client::connect_v2`] the binary framing — same
/// typed surface ([`Client::query`], [`Client::pipeline`]) over both,
/// because v2 response payloads are byte-for-byte the v1 response block.
/// Used by the `bismarck_serve --client` mode, the CI smokes, the
/// benches, and the tests.
pub struct Client {
    reader: BufReader<Conn>,
    writer: Conn,
    transport: Transport,
}

impl Client {
    /// Connects with the v1 line protocol (`host:port` or `unix:/path`).
    ///
    /// # Errors
    /// Connection failures.
    pub fn connect(addr: &str) -> DbResult<Self> {
        let conn = connect(addr)?;
        let read_half = conn.try_clone()?;
        Ok(Self { reader: BufReader::new(read_half), writer: conn, transport: Transport::Line })
    }

    /// Connects with the v2 binary framing on the same listener (the
    /// server auto-detects from the first frame's magic byte).
    ///
    /// # Errors
    /// Connection failures.
    pub fn connect_v2(addr: &str) -> DbResult<Self> {
        let conn = connect(addr)?;
        let read_half = conn.try_clone()?;
        Ok(Self {
            reader: BufReader::new(read_half),
            writer: conn,
            transport: Transport::Binary { next_id: 1 },
        })
    }

    /// Whether this client speaks the v2 binary framing.
    #[must_use]
    pub fn is_v2(&self) -> bool {
        matches!(self.transport, Transport::Binary { .. })
    }

    /// Sends one statement without waiting for its response, returning
    /// the request ID to match against [`Client::recv_response`]. This is
    /// the raw pipelining primitive ([`Client::pipeline`] is the batch
    /// convenience on top).
    ///
    /// # Errors
    /// I/O failures, or [`DbError::Parse`] on a v1 connection — the line
    /// protocol has no request IDs to match responses by.
    pub fn send_request(&mut self, statement: &str) -> DbResult<u32> {
        let Transport::Binary { next_id } = &mut self.transport else {
            return Err(DbError::Parse(
                "send_request needs a v2 connection (Client::connect_v2)".to_string(),
            ));
        };
        let id = *next_id;
        *next_id = next_id.wrapping_add(1);
        protocol::write_frame(&mut self.writer, 0, id, statement.as_bytes())?;
        self.writer.flush()?;
        Ok(id)
    }

    /// Receives the next response frame — whichever request finished
    /// first — as `(request_id, response)`.
    ///
    /// # Errors
    /// I/O failures (including EOF), a corrupt frame, or a v1 connection.
    pub fn recv_response(&mut self) -> DbResult<(u32, Response)> {
        if !self.is_v2() {
            return Err(DbError::Parse(
                "recv_response needs a v2 connection (Client::connect_v2)".to_string(),
            ));
        }
        let frame = protocol::read_frame(&mut self.reader, protocol::MAX_FRAME_PAYLOAD)?
            .ok_or_else(|| {
                DbError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-response",
                ))
            })?;
        Ok((frame.request_id, Response::from_payload(&frame.payload)))
    }

    /// Sends one statement and collects the full response block: data
    /// lines first, terminator (`ok …` / `err …`) last. Identical lines
    /// on both transports.
    ///
    /// # Errors
    /// I/O failures or a server that hangs up mid-response.
    pub fn request(&mut self, statement: &str) -> DbResult<Vec<String>> {
        match &mut self.transport {
            Transport::Line => {
                self.send_lines(&[statement])?;
                Ok(protocol::read_response_block(&mut self.reader)?)
            }
            Transport::Binary { .. } => {
                let id = self.send_request(statement)?;
                let frame = protocol::read_frame(&mut self.reader, protocol::MAX_FRAME_PAYLOAD)?
                    .ok_or_else(|| {
                        DbError::Io(std::io::Error::new(
                            std::io::ErrorKind::UnexpectedEof,
                            "server closed the connection mid-response",
                        ))
                    })?;
                if frame.request_id != id {
                    return Err(DbError::Parse(format!(
                        "response for request {} while awaiting {id} — \
                         use pipeline()/recv_response() for pipelined statements",
                        frame.request_id
                    )));
                }
                Ok(String::from_utf8_lossy(&frame.payload).lines().map(str::to_string).collect())
            }
        }
    }

    /// [`Client::request`], returning just the terminator line and
    /// erroring on `err`.
    ///
    /// # Errors
    /// I/O failures, or [`DbError::Parse`] carrying the server's `err`
    /// message.
    pub fn expect_ok(&mut self, statement: &str) -> DbResult<String> {
        let lines = self.request(statement)?;
        let last = lines.last().expect("request returns at least the terminator").clone();
        if last.starts_with("err") {
            return Err(DbError::Parse(format!("server: {last}")));
        }
        Ok(last)
    }

    /// Sends one statement and parses the response into the typed
    /// [`Response`] — `Ok`/`Rows` with key=value fields, or a structured
    /// `Err` with an [`crate::protocol::ErrKind`] and `retry_after_ms`.
    ///
    /// # Errors
    /// Transport failures only; a server-side `err` is `Ok(Response::Err
    /// {…})`, so retry logic can match on the kind.
    pub fn query(&mut self, statement: &str) -> DbResult<Response> {
        let lines = self.request(statement)?;
        Ok(Response::from_lines(&lines))
    }

    /// v1: sends `statements`, each `\n`-terminated, in one write. A line
    /// split across writes stalls: Nagle holds its tail until the server
    /// ACKs the head, and the server, with no complete line to answer,
    /// ACKs only when its delayed-ACK timer fires.
    fn send_lines(&mut self, statements: &[&str]) -> std::io::Result<()> {
        let mut batch = Vec::with_capacity(statements.iter().map(|s| s.len() + 1).sum());
        for statement in statements {
            batch.extend_from_slice(statement.as_bytes());
            batch.push(b'\n');
        }
        self.writer.write_all(&batch)
    }

    /// Sends every statement before reading any response, then returns
    /// the responses **in request order** (on v2 the server may complete
    /// them out of order; the request IDs put them back). One round trip
    /// for the whole batch on both transports.
    ///
    /// # Errors
    /// Transport failures; server-side `err`s come back as
    /// [`Response::Err`] entries.
    pub fn pipeline(&mut self, statements: &[&str]) -> DbResult<Vec<Response>> {
        match &mut self.transport {
            Transport::Line => {
                self.send_lines(statements)?;
                let mut responses = Vec::with_capacity(statements.len());
                for _ in statements {
                    let lines = protocol::read_response_block(&mut self.reader)?;
                    responses.push(Response::from_lines(&lines));
                }
                Ok(responses)
            }
            Transport::Binary { .. } => {
                let mut ids = Vec::with_capacity(statements.len());
                for statement in statements {
                    let Transport::Binary { next_id } = &mut self.transport else { unreachable!() };
                    let id = *next_id;
                    *next_id = next_id.wrapping_add(1);
                    protocol::write_frame(&mut self.writer, 0, id, statement.as_bytes())?;
                    ids.push(id);
                }
                self.writer.flush()?;
                let mut by_id = BTreeMap::new();
                while by_id.len() < ids.len() {
                    let (id, response) = self.recv_response()?;
                    by_id.insert(id, response);
                }
                ids.iter()
                    .map(|id| {
                        by_id
                            .remove(id)
                            .ok_or_else(|| DbError::Parse(format!("no response for request {id}")))
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::Backing;

    fn spawn_server() -> (RunningServer, Arc<Db>) {
        let db = Arc::new(Db::new());
        let server = serve(Arc::clone(&db), &ServerConfig::default()).unwrap();
        (server, db)
    }

    fn spawn_server_with(limits: Limits) -> (RunningServer, Arc<Db>) {
        let db = Arc::new(Db::new());
        let config = ServerConfig { limits, ..ServerConfig::default() };
        let server = serve(Arc::clone(&db), &config).unwrap();
        (server, db)
    }

    #[test]
    fn single_client_session_end_to_end() {
        let (server, _db) = spawn_server();
        let mut client = Client::connect(server.addr()).unwrap();
        assert_eq!(client.expect_ok("CREATE TABLE t (DIM 3)").unwrap(), "ok");
        assert_eq!(client.expect_ok("SYNTH t ROWS 200 SEED 5 NOISE 0.1").unwrap(), "ok");
        assert_eq!(client.expect_ok("SELECT COUNT(*) FROM t").unwrap(), "ok count=200");
        let trained = client.expect_ok("TRAIN m ON t ALGO noiseless PASSES 2 SEED 1").unwrap();
        assert!(trained.starts_with("ok trained=m acc="), "{trained}");
        let eval = client.expect_ok("EVAL m ON t").unwrap();
        assert!(eval.starts_with("ok rows=200 acc="), "{eval}");
        // Errors keep the connection usable.
        let lines = client.request("SELECT COUNT(*) FROM ghost").unwrap();
        assert!(lines.last().unwrap().starts_with("err"), "{lines:?}");
        assert_eq!(client.expect_ok("SELECT COUNT(*) FROM t").unwrap(), "ok count=200");
        // Multi-line responses.
        let lines = client.request("SHOW TABLES").unwrap();
        assert_eq!(lines, vec!["* t".to_string(), "ok count=1".to_string()]);
        server.stop();
    }

    #[test]
    fn sessions_share_the_db_and_shutdown_stops_the_server() {
        let (server, _db) = spawn_server();
        let addr = server.addr().to_string();
        let mut a = Client::connect(&addr).unwrap();
        let mut b = Client::connect(&addr).unwrap();
        a.expect_ok("CREATE TABLE t (DIM 2)").unwrap();
        a.expect_ok("INSERT INTO t VALUES (0.5, -0.5, 1)").unwrap();
        // The second session sees the first session's table at once.
        assert_eq!(b.expect_ok("SELECT COUNT(*) FROM t").unwrap(), "ok count=1");
        // Prepared statements stay per-session.
        a.expect_ok("PREPARE q AS SELECT COUNT(*) FROM t").unwrap();
        assert!(b.expect_ok("EXECUTE q").is_err());
        assert_eq!(a.expect_ok("EXECUTE q").unwrap(), "ok count=1");
        // SHUTDOWN answers, then the accept loop exits.
        assert_eq!(b.expect_ok("SHUTDOWN").unwrap(), "ok bye");
        server.wait();
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_transport_works() {
        let path = std::env::temp_dir().join(format!(
            "bolton-serve-{}-{:?}.sock",
            std::process::id(),
            std::thread::current().id()
        ));
        let config = ServerConfig {
            addr: format!("unix:{}", path.display()),
            max_connections: 4,
            limits: Limits::default(),
        };
        let db = Arc::new(Db::new());
        let server = serve(db, &config).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        client.expect_ok("CREATE TABLE u (DIM 2)").unwrap();
        assert_eq!(client.expect_ok("SELECT COUNT(*) FROM u").unwrap(), "ok count=0");
        server.stop();
        assert!(!path.exists(), "socket file is cleaned up");
    }

    #[test]
    fn oversized_statements_close_the_connection() {
        let (server, _db) = spawn_server();
        let mut client = Client::connect(server.addr()).unwrap();
        let huge = format!("SELECT COUNT(*) FROM {}", "x".repeat(MAX_STATEMENT_BYTES));
        match client.request(&huge) {
            Ok(lines) => {
                assert!(lines.last().unwrap().starts_with("err statement exceeds"), "{lines:?}")
            }
            Err(DbError::Io(_)) => {} // server hung up before the err line arrived
            Err(other) => panic!("unexpected {other:?}"),
        }
        // A fresh connection still works.
        let mut again = Client::connect(server.addr()).unwrap();
        again.expect_ok("CREATE TABLE ok_table (DIM 1)").unwrap();
        server.stop();
    }

    #[test]
    fn connection_limit_is_enforced() {
        let db = Arc::new(Db::new());
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            max_connections: 1,
            limits: Limits::default(),
        };
        let server = serve(db, &config).unwrap();
        let mut first = Client::connect(server.addr()).unwrap();
        first.expect_ok("CREATE TABLE t (DIM 1)").unwrap();
        // While the first connection is alive, a second is turned away.
        let mut second = Client::connect(server.addr()).unwrap();
        let outcome = second.request("SELECT COUNT(*) FROM t");
        match outcome {
            Ok(lines) => assert!(
                lines.last().unwrap().starts_with("err server at connection limit"),
                "{lines:?}"
            ),
            Err(DbError::Io(_)) => {} // server already hung up
            Err(other) => panic!("unexpected error {other:?}"),
        }
        drop(second);
        server.stop();
    }

    #[test]
    fn show_limits_reports_knobs_and_live_counters() {
        let (server, _db) = spawn_server();
        let mut client = Client::connect(server.addr()).unwrap();
        let lines = client.request("SHOW LIMITS").unwrap();
        assert!(lines.contains(&"* stmt_timeout_ms=0".to_string()), "{lines:?}");
        assert!(lines.contains(&"* drain_timeout_ms=5000".to_string()), "{lines:?}");
        assert!(lines.contains(&"* max_connections=64".to_string()), "{lines:?}");
        assert!(lines.contains(&"* active_connections=1".to_string()), "{lines:?}");
        assert!(lines.contains(&"* pipeline_executors=4".to_string()), "{lines:?}");
        assert!(lines.contains(&"* parse_cache_capacity=256".to_string()), "{lines:?}");
        assert_eq!(lines.last().unwrap(), "ok count=17");
        // SHOW LIMITS cannot hide inside a prepared statement.
        let nested = client.request("PREPARE q AS SHOW LIMITS").unwrap();
        assert!(nested.last().unwrap().starts_with("err"), "{nested:?}");
        server.stop();
    }

    #[test]
    fn rate_limited_connection_sheds_with_retry_after() {
        let limits = Limits { rate_limit: 1, ..Limits::default() };
        let (server, _db) = spawn_server_with(limits);
        let mut client = Client::connect(server.addr()).unwrap();
        client.expect_ok("CREATE TABLE t (DIM 1)").unwrap();
        // The burst is spent; an immediate follow-up sheds.
        let lines = client.request("SELECT COUNT(*) FROM t").unwrap();
        let last = lines.last().unwrap();
        assert!(last.starts_with("err busy retry_after_ms="), "{last}");
        let ms: u64 = last.rsplit('=').next().unwrap().parse().unwrap();
        assert!((1..=1_000).contains(&ms), "retry_after bounded by 1/rate: {ms}");
        // Shed statements never wedge the connection.
        std::thread::sleep(Duration::from_millis(1_100));
        assert_eq!(client.expect_ok("SELECT COUNT(*) FROM t").unwrap(), "ok count=0");
        server.stop();
    }

    #[test]
    fn statement_deadline_answers_err_timeout_and_frees_the_table() {
        let limits = Limits { stmt_timeout_ms: 40, ..Limits::default() };
        let (server, db) = spawn_server_with(limits);
        let mut client = Client::connect(server.addr()).unwrap();
        client.expect_ok("CREATE TABLE t (DIM 4)").unwrap();
        client.expect_ok("SYNTH t ROWS 600 SEED 7 NOISE 0.05").unwrap();
        // A TRAIN that would run for minutes is cut at the deadline.
        let lines =
            client.request("TRAIN m ON t ALGO noiseless PASSES 100000 BATCH 10 SEED 1").unwrap();
        let last = lines.last().unwrap();
        assert!(last.starts_with("err timeout"), "{last}");
        // The table lock was released and no model was published.
        let handle = db.table("t").unwrap();
        assert!(handle.try_write().is_ok(), "cancelled TRAIN leaked the table lock");
        assert!(db.model("m").is_err());
        // The connection survives and fast statements still fit.
        assert_eq!(client.expect_ok("SELECT COUNT(*) FROM t").unwrap(), "ok count=600");
        server.stop();
    }

    #[test]
    fn admission_control_sheds_beyond_the_statement_cap() {
        let limits = Limits { max_active_statements: 1, ..Limits::default() };
        let (server, _db) = spawn_server_with(limits);
        let addr = server.addr().to_string();
        let mut a = Client::connect(&addr).unwrap();
        a.expect_ok("CREATE TABLE t (DIM 4)").unwrap();
        a.expect_ok("SYNTH t ROWS 600 SEED 7 NOISE 0.05").unwrap();
        // Client A occupies the single permit with a long TRAIN.
        let trainer = std::thread::spawn(move || {
            a.request("TRAIN m ON t ALGO noiseless PASSES 2000 BATCH 10 SEED 1")
        });
        // Give the TRAIN a moment to claim the permit, then keep
        // knocking; while A trains, B must see `err busy`.
        std::thread::sleep(Duration::from_millis(20));
        let mut b = Client::connect(&addr).unwrap();
        let mut shed = false;
        for _ in 0..500 {
            let lines = b.request("SELECT COUNT(*) FROM t").unwrap();
            let last = lines.last().unwrap();
            if last.starts_with("err busy retry_after_ms=") {
                shed = true;
                break;
            }
            assert!(last.starts_with("ok"), "{last}");
        }
        let trained = trainer.join().unwrap().unwrap();
        assert!(shed, "never saw err busy while the permit was held");
        assert!(trained.last().unwrap().starts_with("ok trained="), "{trained:?}");
        // With the permit free again, B is admitted.
        assert_eq!(b.expect_ok("SELECT COUNT(*) FROM t").unwrap(), "ok count=600");
        server.stop();
    }

    #[test]
    fn per_ip_quota_sheds_extra_connections() {
        let limits = Limits { max_conn_per_ip: 1, ..Limits::default() };
        let (server, _db) = spawn_server_with(limits);
        let mut first = Client::connect(server.addr()).unwrap();
        first.expect_ok("CREATE TABLE t (DIM 1)").unwrap();
        let mut second = Client::connect(server.addr()).unwrap();
        match second.request("SELECT COUNT(*) FROM t") {
            Ok(lines) => {
                assert!(lines.last().unwrap().starts_with("err busy connection quota"), "{lines:?}")
            }
            Err(DbError::Io(_)) => {} // server hung up after the quota line
            Err(other) => panic!("unexpected {other:?}"),
        }
        // Dropping the first connection frees the quota slot.
        drop(first);
        drop(second);
        for _ in 0..200 {
            let mut retry = Client::connect(server.addr()).unwrap();
            if retry.expect_ok("SELECT COUNT(*) FROM t").is_ok() {
                server.stop();
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("quota slot never freed after disconnect");
    }

    #[test]
    fn idle_connections_are_reaped() {
        let limits = Limits { idle_timeout_ms: 60, ..Limits::default() };
        let (server, _db) = spawn_server_with(limits);
        let mut client = Client::connect(server.addr()).unwrap();
        client.expect_ok("CREATE TABLE t (DIM 1)").unwrap();
        std::thread::sleep(Duration::from_millis(250));
        // The server has reaped us: either the goodbye line or a straight
        // EOF, depending on how much the client read before the close.
        match client.request("SELECT COUNT(*) FROM t") {
            Ok(lines) => {
                assert!(lines.last().unwrap().starts_with("err idle"), "{lines:?}")
            }
            Err(DbError::Io(_)) => {}
            Err(other) => panic!("unexpected {other:?}"),
        }
        // Fresh connections are unaffected.
        let mut again = Client::connect(server.addr()).unwrap();
        again.expect_ok("SELECT COUNT(*) FROM t").unwrap();
        server.stop();
    }

    #[test]
    fn slow_loris_partial_lines_are_cut() {
        let limits = Limits { read_timeout_ms: 60, ..Limits::default() };
        let (server, _db) = spawn_server_with(limits);
        let mut conn = connect(server.addr()).unwrap();
        // A line that never completes: bytes trickle in, no newline.
        conn.write_all(b"SELECT COUNT(*) ").unwrap();
        conn.flush().unwrap();
        std::thread::sleep(Duration::from_millis(300));
        conn.write_all(b"FROM t\n").and_then(|()| conn.flush()).ok();
        let mut response = String::new();
        let n = BufReader::new(conn).read_line(&mut response).unwrap_or(0);
        // Either the read-timeout error arrived or the server already
        // closed the socket — both prove the line was cut.
        assert!(
            n == 0 || response.starts_with("err read timeout"),
            "expected a cut connection, got {response:?}"
        );
        // The session thread is free: a fresh connection works.
        let mut again = Client::connect(server.addr()).unwrap();
        again.expect_ok("CREATE TABLE t (DIM 1)").unwrap();
        server.stop();
    }

    #[test]
    fn mid_statement_disconnect_cancels_and_releases_the_table() {
        let (server, db) = spawn_server();
        let mut client = Client::connect(server.addr()).unwrap();
        client.expect_ok("CREATE TABLE t (DIM 4)").unwrap();
        client.expect_ok("SYNTH t ROWS 600 SEED 7 NOISE 0.05").unwrap();
        // Fire a TRAIN that would run for minutes, then vanish.
        writeln!(client.writer, "TRAIN m ON t ALGO noiseless PASSES 1000000 BATCH 10 SEED 1")
            .unwrap();
        client.writer.flush().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        drop(client);
        // The reader thread cancels the session; the table frees quickly.
        let handle = db.table("t").unwrap();
        let freed = (0..1_000).any(|_| {
            if handle.try_write().is_ok() {
                true
            } else {
                std::thread::sleep(Duration::from_millis(5));
                false
            }
        });
        assert!(freed, "disconnected TRAIN kept the table read-locked");
        assert!(db.model("m").is_err(), "cancelled TRAIN must not publish a model");
        // No connection slot leaked either: a new client still connects.
        let mut again = Client::connect(server.addr()).unwrap();
        assert_eq!(again.expect_ok("SELECT COUNT(*) FROM t").unwrap(), "ok count=600");
        server.stop();
    }

    #[test]
    fn graceful_drain_waits_for_in_flight_statements() {
        let (server, db) = spawn_server();
        let addr = server.addr().to_string();
        let mut a = Client::connect(&addr).unwrap();
        a.expect_ok("CREATE TABLE t (DIM 4)").unwrap();
        a.expect_ok("SYNTH t ROWS 600 SEED 7 NOISE 0.05").unwrap();
        // Start a statement that takes a while but finishes well inside
        // the 5 s drain window.
        let worker = std::thread::spawn(move || {
            a.request("TRAIN m ON t ALGO noiseless PASSES 200 BATCH 10 SEED 1")
        });
        std::thread::sleep(Duration::from_millis(30));
        server.stop(); // begin_drain + wait for the connection to finish
        let lines = worker.join().unwrap().unwrap();
        assert!(
            lines.last().unwrap().starts_with("ok trained="),
            "drain must let the in-flight TRAIN finish: {lines:?}"
        );
        assert!(db.model("m").is_ok(), "the drained TRAIN's result was published");
    }

    #[test]
    fn tcp_connections_set_nodelay_on_both_ends() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let listener = Listener::Tcp(listener);
        let client = Client::connect(&addr).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        for conn in [&client.writer, &accepted] {
            let Conn::Tcp(stream) = conn else { panic!("expected a TCP connection") };
            assert!(stream.nodelay().unwrap());
        }
    }

    #[test]
    fn v1_requests_reach_the_peer_in_one_write() {
        use std::io::Read;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let client = std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            let single = c.request("SELECT COUNT(*) FROM t").unwrap();
            let batch = c.pipeline(&["SHOW TABLES", "SELECT COUNT(*) FROM t"]).unwrap();
            (single, batch)
        });
        // The first read holds the whole message, trailing `\n` included.
        let (mut peer, _) = listener.accept().unwrap();
        let mut buf = [0u8; 1024];
        let n = peer.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"SELECT COUNT(*) FROM t\n");
        peer.write_all(b"ok count=0\n").unwrap();
        let n = peer.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"SHOW TABLES\nSELECT COUNT(*) FROM t\n");
        peer.write_all(b"* t\nok count=1\nok count=0\n").unwrap();
        let (single, batch) = client.join().unwrap();
        assert_eq!(single, vec!["ok count=0".to_string()]);
        assert_eq!(batch[0].rows(), ["t".to_string()]);
        assert_eq!(batch[1].get("count"), Some("0"));
    }

    // A v1 round trip that waits on a delayed ACK takes at least 40 ms;
    // one that does not takes about 0.1 ms (SELECT COUNT(*)) or 2 ms (SHOW
    // TABLES over 1 500 tables, unoptimized). The bounds in the next two
    // tests sit at least 10x above the second and well below the first.
    #[test]
    fn v1_round_trips_do_not_wait_on_delayed_acks() {
        let (server, db) = spawn_server();
        db.create_table("t", 2, Backing::Memory, 1).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let start = Instant::now();
        for _ in 0..50 {
            assert_eq!(client.expect_ok("SELECT COUNT(*) FROM t").unwrap(), "ok count=0");
        }
        let elapsed = start.elapsed();
        assert!(elapsed < Duration::from_secs(1), "50 round trips took {elapsed:?}");
        server.stop();
    }

    #[test]
    fn large_v1_responses_do_not_wait_on_delayed_acks() {
        let (server, db) = spawn_server();
        for i in 0..1_500 {
            db.create_table(&format!("table_with_a_long_name_{i:05}"), 1, Backing::Memory, 1)
                .unwrap();
        }
        let mut client = Client::connect(server.addr()).unwrap();
        let mut round_trips: Vec<Duration> = (0..10)
            .map(|_| {
                let start = Instant::now();
                let lines = client.request("SHOW TABLES").unwrap();
                assert_eq!(lines.last().unwrap(), "ok count=1500");
                start.elapsed()
            })
            .collect();
        // The median, so a scheduling hiccup on one round trip cannot fail
        // the test; a delayed-ACK stall slows every one of them.
        round_trips.sort();
        let median = round_trips[5];
        assert!(
            median < Duration::from_millis(25),
            "median round trip {median:?}: {round_trips:?}"
        );
        server.stop();
    }

    #[test]
    fn v2_client_session_end_to_end() {
        let (server, _db) = spawn_server();
        let mut client = Client::connect_v2(server.addr()).unwrap();
        assert!(client.is_v2());
        assert_eq!(client.expect_ok("CREATE TABLE t (DIM 3)").unwrap(), "ok");
        assert_eq!(client.expect_ok("SYNTH t ROWS 200 SEED 5 NOISE 0.1").unwrap(), "ok");
        assert_eq!(client.expect_ok("SELECT COUNT(*) FROM t").unwrap(), "ok count=200");
        // The typed surface.
        let response = client.query("SELECT COUNT(*) FROM t").unwrap();
        assert!(response.is_ok());
        assert_eq!(response.get("count"), Some("200"));
        // Errors keep the connection usable and carry a structured kind.
        let response = client.query("SELECT COUNT(*) FROM ghost").unwrap();
        assert_eq!(response.err_kind(), Some(protocol::ErrKind::Other));
        assert_eq!(client.expect_ok("SELECT COUNT(*) FROM t").unwrap(), "ok count=200");
        // Multi-line responses come through frame payloads unchanged.
        let lines = client.request("SHOW TABLES").unwrap();
        assert_eq!(lines, vec!["* t".to_string(), "ok count=1".to_string()]);
        server.stop();
    }

    #[test]
    fn v1_and_v2_answers_are_bit_identical_on_one_listener() {
        let (server, _db) = spawn_server();
        let mut v1 = Client::connect(server.addr()).unwrap();
        let mut v2 = Client::connect_v2(server.addr()).unwrap();
        v1.expect_ok("CREATE TABLE t (DIM 3)").unwrap();
        v1.expect_ok("SYNTH t ROWS 64 SEED 9 NOISE 0.1").unwrap();
        v1.expect_ok("TRAIN m ON t ALGO noiseless PASSES 2 SEED 1").unwrap();
        for stmt in ["SELECT COUNT(*) FROM t", "SHOW TABLES", "EVAL m ON t"] {
            assert_eq!(v1.request(stmt).unwrap(), v2.request(stmt).unwrap(), "{stmt}");
        }
        server.stop();
    }

    #[test]
    fn v2_pipeline_answers_every_request_in_order() {
        let (server, _db) = spawn_server();
        let mut setup = Client::connect(server.addr()).unwrap();
        setup.expect_ok("CREATE TABLE a (DIM 2)").unwrap();
        setup.expect_ok("SYNTH a ROWS 10 SEED 1 NOISE 0.1").unwrap();
        setup.expect_ok("CREATE TABLE b (DIM 2)").unwrap();
        setup.expect_ok("SYNTH b ROWS 20 SEED 1 NOISE 0.1").unwrap();
        let mut client = Client::connect_v2(server.addr()).unwrap();
        let responses = client
            .pipeline(&[
                "SELECT COUNT(*) FROM a",
                "SELECT COUNT(*) FROM b",
                "SELECT COUNT(*) FROM ghost",
                "SELECT COUNT(*) FROM a",
            ])
            .unwrap();
        assert_eq!(responses[0].get("count"), Some("10"));
        assert_eq!(responses[1].get("count"), Some("20"));
        assert!(!responses[2].is_ok(), "{:?}", responses[2]);
        assert_eq!(responses[3].get("count"), Some("10"));
        server.stop();
    }

    #[test]
    fn v2_fast_statement_overtakes_a_slow_one() {
        let (server, _db) = spawn_server();
        let mut setup = Client::connect(server.addr()).unwrap();
        setup.expect_ok("CREATE TABLE big (DIM 4)").unwrap();
        setup.expect_ok("SYNTH big ROWS 600 SEED 7 NOISE 0.05").unwrap();
        setup.expect_ok("CREATE TABLE small (DIM 2)").unwrap();
        setup.expect_ok("SYNTH small ROWS 5 SEED 1 NOISE 0.1").unwrap();
        let mut client = Client::connect_v2(server.addr()).unwrap();
        // A long TRAIN on one table, then a fast COUNT on another (no
        // lock conflict): with ≥2 executors the COUNT answers first.
        let train = client
            .send_request("TRAIN m ON big ALGO noiseless PASSES 300 BATCH 10 SEED 1")
            .unwrap();
        let count = client.send_request("SELECT COUNT(*) FROM small").unwrap();
        let (first_id, first) = client.recv_response().unwrap();
        assert_eq!(first_id, count, "the fast COUNT must overtake the TRAIN");
        assert_eq!(first.get("count"), Some("5"));
        let (second_id, second) = client.recv_response().unwrap();
        assert_eq!(second_id, train);
        assert!(second.is_ok(), "{second:?}");
        server.stop();
    }

    #[test]
    fn v2_prepared_statements_are_shared_across_executors() {
        let (server, _db) = spawn_server();
        let mut setup = Client::connect(server.addr()).unwrap();
        setup.expect_ok("CREATE TABLE t (DIM 2)").unwrap();
        setup.expect_ok("SYNTH t ROWS 12 SEED 1 NOISE 0.1").unwrap();
        let mut client = Client::connect_v2(server.addr()).unwrap();
        client.expect_ok("PREPARE q AS SELECT COUNT(*) FROM t").unwrap();
        // Whichever executor picks each EXECUTE up must see the PREPARE.
        let responses = client.pipeline(&["EXECUTE q"; 12]).unwrap();
        for response in &responses {
            assert_eq!(response.get("count"), Some("12"), "{response:?}");
        }
        server.stop();
    }

    #[test]
    fn v2_shutdown_answers_then_drains() {
        let (server, _db) = spawn_server();
        let mut client = Client::connect_v2(server.addr()).unwrap();
        assert_eq!(client.expect_ok("SHUTDOWN").unwrap(), "ok bye");
        server.wait();
    }
}
