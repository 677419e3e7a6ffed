//! A miniature in-RDBMS analytics engine modeled on Bismarck (Feng, Kumar,
//! Recht, Ré — SIGMOD 2012), the substrate the paper integrates private SGD
//! into (Section 4.2, Figure 1).
//!
//! The engine reproduces the architectural elements the paper's experiments
//! exercise:
//!
//! * [`page`] / [`heap`] — 8 KiB pages in memory or on disk (temp-file heaps
//!   for the larger-than-memory scalability runs); disk heaps also hand out
//!   one shared read-only mapping of the file, which table scans read rows
//!   from in place.
//! * [`buffer`] — a clock-eviction buffer pool serving inserts, memory
//!   tables, and the scan fallback when a disk heap is not mapped.
//! * [`table`] — fixed-width rows of `(features, label)`; implements
//!   [`bolton_sgd::TrainSet`] so every training algorithm runs against
//!   tables unchanged.
//! * [`uda`] — the `initialize/transition/terminate` aggregate API; the SGD
//!   epoch is an aggregate exactly like `AVG`.
//! * [`driver`] — the front-end controller: shuffle, epoch loop, convergence
//!   test, and the two noise-injection points of Figure 1 ((B) output noise
//!   for the bolt-on approach, (C) per-batch noise for SCS13/BST14).
//! * [`synth`] — the binary-classification data synthesizer used by the
//!   scalability experiments.
//! * [`sql`] — a small SQL front end (CREATE/INSERT/SYNTH/COUNT/AVG/SHUFFLE
//!   plus the serving statements) over the [`catalog`].
//!
//! On top of the single-session engine sits the serving layer (the
//! "train once, serve forever" story):
//!
//! * [`db`] — the shared, thread-safe [`Db`]: an `RwLock` catalog of
//!   `Arc<RwLock<Table>>` handles plus shared models, so concurrent
//!   readers scan while a writer trains.
//! * [`session`] — per-connection [`Session`]s executing the full SQL
//!   surface (TRAIN/EVAL/SAVE MODEL/…, prepared statements) and the
//!   [`score_batch`] parallel batch-scoring API.
//! * [`registry`] — the versioned, crash-safe on-disk [`ModelRegistry`].
//! * [`server`] — the `bismarck_serve` line-protocol server loop
//!   (TCP/Unix socket, thread-per-connection) and its [`server::Client`].
//!
//! Tables themselves are durable when the [`Db`] is opened on a data
//! directory ([`Db::open`]):
//!
//! * [`wal`] — the checksummed, length-prefixed write-ahead log with
//!   group commit; every mutation is logged and fsynced before it is
//!   acknowledged, and `CHECKPOINT` snapshots tables into the
//!   `bolton_data` row-store format then truncates the log.
//! * [`fault`] — the deterministic fault-injection [`Vfs`]
//!   the crash-recovery tests (and the model registry) use to prove every
//!   crash window: fail, short-write, or torn-write at the N-th
//!   filesystem operation — plus the [`fault::FaultStream`] network
//!   wrapper that replays the same trick against the wire protocol.
//!
//! The serving layer is hardened against overload and misbehaving
//! clients:
//!
//! * [`limits`] — token-bucket rate limiting (per connection and global),
//!   per-address connection quotas, a shedding admission controller
//!   (`err busy retry_after_ms=N`), and the [`CancelToken`] that gives
//!   every statement a deadline (`err timeout …`) and aborts work for
//!   disconnected clients, releasing locks with state unchanged.
//! * [`protocol`] — wire protocol v2: length-prefixed, FNV-checksummed
//!   binary frames with request IDs, so one connection pipelines many
//!   statements with out-of-order completion. Auto-detected from the
//!   first byte, with the v1 line protocol still served on the same
//!   listener; [`protocol::Response`] is the typed client-side view of
//!   both.
//! * [`engine`] — the shared round-robin parse/plan [`engine::EnginePool`]
//!   with an LRU parse cache, so hot statements skip the tokenizer and
//!   per-connection parser state is gone.

pub mod buffer;
pub mod catalog;
pub mod db;
pub mod driver;
pub mod engine;
pub mod error;
pub mod fault;
pub mod heap;
pub mod limits;
pub mod page;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod session;
pub mod sql;
pub mod synth;
pub mod table;
pub mod uda;
pub mod wal;

pub use buffer::{BufferPool, PoolStats};
pub use catalog::Catalog;
pub use db::{Db, DurabilityOptions};
pub use driver::{train, DriverConfig, TrainedModel};
pub use engine::{EnginePool, EngineStats};
pub use error::{DbError, DbResult};
pub use fault::{FaultStream, FaultVfs, StdVfs, StreamFault, Vfs, VfsFile};
pub use heap::Backing;
pub use limits::{Admission, CancelCause, CancelToken, IpQuota, Limits, TokenBucket};
pub use page::{Page, PAGE_SIZE};
pub use protocol::{ErrKind, Frame, FrameError, Response};
pub use registry::{ModelRegistry, ModelVersion};
pub use server::{RunningServer, ServerConfig};
pub use session::{score_batch, Session};
pub use synth::{synthesize, SynthSpec};
pub use table::Table;
pub use uda::{run_aggregate, Aggregate, AvgAggregate, SgdEpochAggregate};
pub use wal::{Wal, WalRecord};
