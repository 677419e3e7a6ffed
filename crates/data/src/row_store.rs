//! The chunked on-disk row store behind out-of-core training — the data
//! path that makes the paper's larger-than-memory configuration
//! (Figure 2b) real instead of simulated through a starved buffer pool.
//!
//! A store file is a header plus a sequence of *chunks* of up to
//! `chunk_rows` rows each (dense or sparse encoding), followed by a chunk
//! directory. [`RowStoreWriter`] streams rows to disk one chunk at a time,
//! so converting a corpus never holds more than one chunk in memory;
//! [`StoredDataset`] reads chunks back through a byte-budgeted LRU
//! `ChunkCache` (`BOLTON_MEM_BUDGET`) and adapts them to the
//! [`bolton_sgd::chunked::ChunkedRows`] view, which makes a file on disk a
//! first-class [`TrainSet`]/[`SparseTrainSet`]: the engine, the worker
//! pool, the tuning grids, and the bolt-on private algorithms all run
//! against it unchanged.
//!
//! Pair scans with
//! [`SamplingScheme::chunked`](bolton_sgd::SamplingScheme::chunked) so each
//! pass pins every chunk exactly once (sequential-ish I/O) instead of
//! seeking randomly across the file.
//!
//! ## On-disk format (version 1, little-endian)
//!
//! ```text
//! header (64 bytes):
//!   magic "BOLTNRS1" | version u32 | encoding u32 (0 dense, 1 sparse)
//!   dim u64 | rows u64 | chunk_rows u64 | chunk_count u64
//!   dir_offset u64 | reserved u64
//! chunks (back to back):
//!   dense row:  dim × f64 features, f64 label
//!   sparse row: u32 nnz, nnz × (u32 index, f64 value), f64 label
//! directory (at dir_offset): chunk_count × (offset u64, bytes u64, rows u64)
//! ```
//!
//! Feature and label bits round-trip exactly, so a model trained from disk
//! is *bit-identical* to one trained from the same rows in memory.
//!
//! ## mmap-backed reads
//!
//! Dense-encoded stores are memory-mapped at open time when the platform
//! supports it (see [`crate::mmap`]): chunk "decodes" then hand out
//! borrowed `&[f64]` row views straight into the mapped file — no
//! read+copy, no byte-by-byte float decoding — and the little-endian
//! on-disk floats are the in-memory floats, so bit-identity to the copy
//! path is structural. The cache still charges a mapped chunk its full
//! decoded size, so budgets, evictions, and peak-residency behave exactly
//! as they do for copied chunks (the win is CPU and real memory traffic,
//! not accounting). Fallback to the decode-copy path happens when:
//!
//! * the encoding is sparse (rows have unaligned `u32` fields and must be
//!   materialized anyway),
//! * any directory offset is not 8-aligned (cannot view `f64`s in place),
//! * the platform has no mapping path (non-unix, big-endian),
//! * `BOLTON_MMAP=off`, or
//! * the store was opened with [`StoredDataset::open_copying`] (used by
//!   the Bismarck fault-injection harness, which models I/O faults at the
//!   syscall layer that a shared mapping would bypass).
//!
//! [`CacheStats::borrowed_mmap_hits`] vs [`CacheStats::copied_hits`] make
//! the distinction observable per serve.

use crate::mmap::MmapRegion;
use bolton_linalg::SparseVec;
use bolton_sgd::chunked::{ChunkedRows, SparseChunkedRows};
use bolton_sgd::dataset::TuningData;
use bolton_sgd::{SparseTrainSet, TrainSet};
use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const MAGIC: &[u8; 8] = b"BOLTNRS1";
const VERSION: u32 = 1;
const HEADER_BYTES: usize = 64;
const DIR_ENTRY_BYTES: usize = 24;

/// Default chunk-cache budget when `BOLTON_MEM_BUDGET` is unset: 64 MiB.
pub const DEFAULT_MEM_BUDGET: usize = 64 * 1024 * 1024;

/// Environment variable naming the chunk-cache byte budget.
pub const MEM_BUDGET_ENV: &str = "BOLTON_MEM_BUDGET";

pub use crate::mmap::MMAP_ENV;

/// How rows are encoded on disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Encoding {
    /// `dim` feature f64s plus the label per row.
    Dense,
    /// Only nonzeros (`u32` index, `f64` value) plus the label per row.
    Sparse,
}

impl Encoding {
    fn code(self) -> u32 {
        match self {
            Encoding::Dense => 0,
            Encoding::Sparse => 1,
        }
    }

    fn from_code(code: u32) -> Option<Self> {
        match code {
            0 => Some(Encoding::Dense),
            1 => Some(Encoding::Sparse),
            _ => None,
        }
    }
}

/// Errors produced by the row store.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not a valid row store (bad magic, truncated chunk, …).
    Corrupt {
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "row store i/o error: {e}"),
            StoreError::Corrupt { message } => write!(f, "corrupt row store: {message}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

fn corrupt(message: impl Into<String>) -> StoreError {
    StoreError::Corrupt { message: message.into() }
}

/// Byte location of one chunk plus its row count.
#[derive(Clone, Copy, Debug)]
struct ChunkMeta {
    offset: u64,
    bytes: u64,
    rows: u64,
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streams rows into a new store file, flushing every `chunk_rows` rows —
/// peak memory is one encoded chunk regardless of the corpus size.
pub struct RowStoreWriter {
    file: File,
    path: PathBuf,
    dim: usize,
    chunk_rows: usize,
    encoding: Encoding,
    buf: Vec<u8>,
    rows_in_buf: usize,
    rows: usize,
    offset: u64,
    dir: Vec<ChunkMeta>,
}

impl RowStoreWriter {
    /// Creates a store with dense row encoding at `path` (truncating any
    /// existing file).
    ///
    /// # Errors
    /// I/O failures.
    ///
    /// # Panics
    /// Panics if `dim == 0` or `chunk_rows == 0`.
    pub fn create_dense(
        path: impl AsRef<Path>,
        dim: usize,
        chunk_rows: usize,
    ) -> Result<Self, StoreError> {
        Self::create(path, dim, chunk_rows, Encoding::Dense)
    }

    /// Creates a store with sparse row encoding at `path`.
    ///
    /// # Errors
    /// I/O failures.
    ///
    /// # Panics
    /// Panics if `dim == 0` or `chunk_rows == 0`.
    pub fn create_sparse(
        path: impl AsRef<Path>,
        dim: usize,
        chunk_rows: usize,
    ) -> Result<Self, StoreError> {
        Self::create(path, dim, chunk_rows, Encoding::Sparse)
    }

    fn create(
        path: impl AsRef<Path>,
        dim: usize,
        chunk_rows: usize,
        encoding: Encoding,
    ) -> Result<Self, StoreError> {
        assert!(dim > 0, "dimension must be positive");
        assert!(chunk_rows > 0, "chunk_rows must be positive");
        let path = path.as_ref().to_path_buf();
        let mut file = File::create(&path)?;
        // Placeholder header; rewritten with the final counts by `finish`.
        file.write_all(&[0u8; HEADER_BYTES])?;
        Ok(Self {
            file,
            path,
            dim,
            chunk_rows,
            encoding,
            buf: Vec::new(),
            rows_in_buf: 0,
            rows: 0,
            offset: HEADER_BYTES as u64,
            dir: Vec::new(),
        })
    }

    /// Appends one dense row.
    ///
    /// # Errors
    /// I/O failures.
    ///
    /// # Panics
    /// Panics if `features.len() != dim` or the store is sparse-encoded.
    pub fn push_dense(&mut self, features: &[f64], label: f64) -> Result<(), StoreError> {
        assert_eq!(self.encoding, Encoding::Dense, "dense push on a sparse-encoded store");
        assert_eq!(features.len(), self.dim, "feature dimension mismatch");
        for v in features {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
        self.buf.extend_from_slice(&label.to_le_bytes());
        self.end_row()
    }

    /// Appends one sparse row (only its nonzeros are stored).
    ///
    /// # Errors
    /// I/O failures.
    ///
    /// # Panics
    /// Panics if `row.dim() != dim` or the store is dense-encoded.
    pub fn push_sparse(&mut self, row: &SparseVec, label: f64) -> Result<(), StoreError> {
        assert_eq!(self.encoding, Encoding::Sparse, "sparse push on a dense-encoded store");
        assert_eq!(row.dim(), self.dim, "row dimension mismatch");
        let nnz = u32::try_from(row.nnz()).expect("nnz fits in u32");
        self.buf.extend_from_slice(&nnz.to_le_bytes());
        for (i, v) in row.iter() {
            let i = u32::try_from(i).expect("index fits in u32");
            self.buf.extend_from_slice(&i.to_le_bytes());
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
        self.buf.extend_from_slice(&label.to_le_bytes());
        self.end_row()
    }

    fn end_row(&mut self) -> Result<(), StoreError> {
        self.rows_in_buf += 1;
        self.rows += 1;
        if self.rows_in_buf == self.chunk_rows {
            self.flush_chunk()?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> Result<(), StoreError> {
        if self.rows_in_buf == 0 {
            return Ok(());
        }
        self.dir.push(ChunkMeta {
            offset: self.offset,
            bytes: self.buf.len() as u64,
            rows: self.rows_in_buf as u64,
        });
        self.file.write_all(&self.buf)?;
        self.offset += self.buf.len() as u64;
        self.buf.clear();
        self.rows_in_buf = 0;
        Ok(())
    }

    /// Rows written so far.
    pub fn rows_written(&self) -> usize {
        self.rows
    }

    /// Flushes the tail chunk, writes the chunk directory, and rewrites the
    /// header with the final counts. The store is unreadable until this
    /// runs.
    ///
    /// # Errors
    /// I/O failures.
    pub fn finish(mut self) -> Result<PathBuf, StoreError> {
        self.flush_chunk()?;
        let dir_offset = self.offset;
        let mut dir_bytes = Vec::with_capacity(self.dir.len() * DIR_ENTRY_BYTES);
        for meta in &self.dir {
            dir_bytes.extend_from_slice(&meta.offset.to_le_bytes());
            dir_bytes.extend_from_slice(&meta.bytes.to_le_bytes());
            dir_bytes.extend_from_slice(&meta.rows.to_le_bytes());
        }
        self.file.write_all(&dir_bytes)?;

        let mut header = [0u8; HEADER_BYTES];
        header[0..8].copy_from_slice(MAGIC);
        header[8..12].copy_from_slice(&VERSION.to_le_bytes());
        header[12..16].copy_from_slice(&self.encoding.code().to_le_bytes());
        header[16..24].copy_from_slice(&(self.dim as u64).to_le_bytes());
        header[24..32].copy_from_slice(&(self.rows as u64).to_le_bytes());
        header[32..40].copy_from_slice(&(self.chunk_rows as u64).to_le_bytes());
        header[40..48].copy_from_slice(&(self.dir.len() as u64).to_le_bytes());
        header[48..56].copy_from_slice(&dir_offset.to_le_bytes());
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(&header)?;
        self.file.sync_all()?;
        Ok(self.path)
    }
}

// ---------------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------------

/// Chunk-cache counters, readable at any time via
/// [`StoredDataset::cache_stats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Chunk fetches served from the cache (thread-local pin hits are not
    /// counted — they never reach the cache).
    pub hits: u64,
    /// Chunk fetches that decoded from disk.
    pub misses: u64,
    /// Chunks dropped to stay within the byte budget.
    pub evictions: u64,
    /// Decoded bytes currently resident.
    pub resident_bytes: usize,
    /// High-water mark of [`CacheStats::resident_bytes`]. Never exceeds the
    /// budget unless a single chunk is larger than the whole budget.
    /// Thread-local pins are not counted: each scanning thread can hold
    /// one decoded chunk beyond this figure (see the pin docs).
    pub peak_resident_bytes: usize,
    /// The configured byte budget.
    pub budget_bytes: usize,
    /// Chunk serves whose row views borrow the memory-mapped file (no
    /// decode copy happened for this chunk). Every cache serve — hit or
    /// miss — counts as exactly one of `borrowed_mmap_hits` or
    /// [`CacheStats::copied_hits`], so
    /// `borrowed_mmap_hits + copied_hits == hits + misses`.
    pub borrowed_mmap_hits: u64,
    /// Chunk serves backed by a decode-copied buffer (sparse encoding,
    /// mmap unavailable/disabled, or a copy-mode open).
    pub copied_hits: u64,
}

/// One decoded chunk, shared between the cache and per-thread pins.
struct DecodedChunk {
    /// First store row held by this chunk.
    first_row: usize,
    labels: Vec<f64>,
    data: ChunkData,
    /// Decoded footprint charged against the budget. Mapped chunks charge
    /// the same figure as their copied equivalent, so budget/eviction/peak
    /// behavior is identical either way.
    bytes: usize,
}

enum ChunkData {
    /// Row-major `rows × dim` features, decode-copied from disk.
    Dense(Vec<f64>),
    /// Borrowed view into the store's memory mapping: rows are
    /// `(dim + 1)`-strided `f64` runs (features then label) starting at
    /// `float_offset` f64s into the region. Labels are still copied into
    /// `DecodedChunk::labels` (rows × 8 bytes) so label access never
    /// depends on the stride.
    DenseMapped {
        region: Arc<MmapRegion>,
        /// Chunk start, in f64s from the beginning of the mapping.
        float_offset: usize,
    },
    Sparse(Vec<SparseVec>),
}

impl DecodedChunk {
    /// Row `r`'s feature slice of a dense-content chunk.
    fn dense_features(&self, r: usize, dim: usize) -> &[f64] {
        match &self.data {
            ChunkData::Dense(features) => &features[r * dim..(r + 1) * dim],
            ChunkData::DenseMapped { region, float_offset } => {
                region.f64s((float_offset + r * (dim + 1)) * 8, dim)
            }
            ChunkData::Sparse(_) => unreachable!("dense row access on a sparse chunk"),
        }
    }

    /// Whether serves of this chunk borrow the mapping (vs a copied buffer).
    fn is_mapped(&self) -> bool {
        matches!(self.data, ChunkData::DenseMapped { .. })
    }
}

/// The byte-budgeted LRU chunk cache inside a [`StoredDataset`].
///
/// Eviction drops least-recently-used chunks *before* admitting a new one,
/// so resident bytes never exceed the budget (unless one chunk alone is
/// bigger). Evicted chunks stay alive for as long as a worker's
/// thread-local pin still holds them — a worker mid-scan never loses its
/// hot chunk to another worker's fetches.
struct ChunkCache {
    budget: usize,
    stamp: u64,
    resident: HashMap<usize, (Arc<DecodedChunk>, u64)>,
    stats: CacheStats,
}

impl ChunkCache {
    fn new(budget: usize) -> Self {
        let budget = budget.max(1);
        Self {
            budget,
            stamp: 0,
            resident: HashMap::new(),
            stats: CacheStats { budget_bytes: budget, ..CacheStats::default() },
        }
    }

    fn get(&mut self, chunk: usize) -> Option<Arc<DecodedChunk>> {
        self.stamp += 1;
        let stamp = self.stamp;
        if let Some((arc, used)) = self.resident.get_mut(&chunk) {
            *used = stamp;
            self.stats.hits += 1;
            return Some(arc.clone());
        }
        None
    }

    /// Attributes one serve (hit or miss) to the mapped-borrow or
    /// decode-copy counter, keeping
    /// `borrowed_mmap_hits + copied_hits == hits + misses`.
    fn note_serve(&mut self, chunk: &DecodedChunk) {
        if chunk.is_mapped() {
            self.stats.borrowed_mmap_hits += 1;
        } else {
            self.stats.copied_hits += 1;
        }
    }

    fn admit(&mut self, chunk: usize, decoded: Arc<DecodedChunk>) {
        while self.stats.resident_bytes + decoded.bytes > self.budget && !self.resident.is_empty() {
            let (&victim, _) = self
                .resident
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .expect("non-empty cache has an LRU entry");
            let (gone, _) = self.resident.remove(&victim).expect("victim resident");
            self.stats.resident_bytes -= gone.bytes;
            self.stats.evictions += 1;
        }
        self.stamp += 1;
        self.stats.resident_bytes += decoded.bytes;
        self.stats.peak_resident_bytes =
            self.stats.peak_resident_bytes.max(self.stats.resident_bytes);
        self.resident.insert(chunk, (decoded, self.stamp));
    }
}

// ---------------------------------------------------------------------------
// StoredDataset
// ---------------------------------------------------------------------------

/// Unique ids so thread-local pins never confuse two open stores.
static STORE_IDS: AtomicU64 = AtomicU64::new(1);

struct StoreInner {
    id: u64,
    file: Mutex<File>,
    dim: usize,
    chunk_rows: usize,
    encoding: Encoding,
    dir: Vec<ChunkMeta>,
    cache: Mutex<ChunkCache>,
    /// The whole-file read-only mapping, when chunk reads can borrow from
    /// it (dense encoding, 8-aligned chunks, platform support, not
    /// disabled). `None` means every read takes the decode-copy path.
    mapping: Option<Arc<MmapRegion>>,
}

thread_local! {
    /// The calling thread's pinned chunk: `(store id, chunk id, chunk)`.
    /// One pin per thread is exactly the out-of-core scan contract — a
    /// worker's chunk-local order touches one chunk for a long run, and
    /// the pin keeps that chunk alive across the run even if the shared
    /// cache evicts it under pressure from other workers.
    ///
    /// Residency note: a pin persists after the scan (and after the
    /// `StoredDataset` is dropped) until the thread scans a different
    /// chunk or store, so long-lived pool threads retain up to one
    /// decoded chunk each beyond what [`CacheStats`] accounts for —
    /// process peak memory is `budget + threads × chunk_bytes` in the
    /// worst case. Size `chunk_rows` with that bound in mind.
    static PIN: std::cell::RefCell<Option<(u64, usize, Arc<DecodedChunk>)>> =
        const { std::cell::RefCell::new(None) };
}

/// A file-backed training set: a contiguous row range of an on-disk row
/// store, read through the shared `ChunkCache`.
///
/// Cloning (and [`StoredDataset::split`]) is cheap — views share the file
/// handle, directory, and cache. Implements [`TrainSet`],
/// [`SparseTrainSet`], and [`TuningData`], so the engine, the sparse
/// engine, parallel PSGD, the tuning grids, and `train_private(_sparse)`
/// all run against disk-resident data unchanged.
///
/// Scans panic on I/O errors or file corruption discovered mid-read
/// (mirroring the Bismarck table scan contract); use
/// [`StoredDataset::open`] to surface malformed files as errors up front.
#[derive(Clone)]
pub struct StoredDataset {
    inner: Arc<StoreInner>,
    lo: usize,
    hi: usize,
}

impl fmt::Debug for StoredDataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StoredDataset")
            .field("rows", &(self.hi - self.lo))
            .field("dim", &self.inner.dim)
            .field("chunk_rows", &self.inner.chunk_rows)
            .field("encoding", &self.inner.encoding)
            .finish()
    }
}

fn env_budget() -> usize {
    std::env::var(MEM_BUDGET_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(DEFAULT_MEM_BUDGET)
}

impl StoredDataset {
    /// Opens a store with the cache budget taken from `BOLTON_MEM_BUDGET`
    /// (bytes; default 64 MiB). Dense stores are mmap-backed when possible
    /// (see the module docs for the fallback rules).
    ///
    /// # Errors
    /// I/O failures and malformed files.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with_budget(path, env_budget())
    }

    /// Opens a store with an explicit chunk-cache byte budget.
    ///
    /// # Errors
    /// I/O failures and malformed files.
    pub fn open_with_budget(
        path: impl AsRef<Path>,
        budget_bytes: usize,
    ) -> Result<Self, StoreError> {
        Self::open_impl(path, budget_bytes, true)
    }

    /// Opens a store with mmap-backed reads disabled: every chunk takes
    /// the decode-copy path regardless of platform or `BOLTON_MMAP`. The
    /// Bismarck fault-injection harness uses this so recovery reads stay
    /// observable as explicit file I/O; it is also the behavioral twin the
    /// mmap parity tests compare against.
    ///
    /// # Errors
    /// I/O failures and malformed files.
    pub fn open_copying(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_impl(path, env_budget(), false)
    }

    /// [`StoredDataset::open_copying`] with an explicit cache budget.
    ///
    /// # Errors
    /// I/O failures and malformed files.
    pub fn open_copying_with_budget(
        path: impl AsRef<Path>,
        budget_bytes: usize,
    ) -> Result<Self, StoreError> {
        Self::open_impl(path, budget_bytes, false)
    }

    fn open_impl(
        path: impl AsRef<Path>,
        budget_bytes: usize,
        allow_mmap: bool,
    ) -> Result<Self, StoreError> {
        let mut file = File::open(path.as_ref())?;
        let mut header = [0u8; HEADER_BYTES];
        file.read_exact(&mut header).map_err(|_| corrupt("file shorter than the header"))?;
        if &header[0..8] != MAGIC {
            return Err(corrupt("bad magic (not a bolton row store)"));
        }
        let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(corrupt(format!("unsupported version {version}")));
        }
        let encoding =
            Encoding::from_code(u32::from_le_bytes(header[12..16].try_into().expect("4 bytes")))
                .ok_or_else(|| corrupt("unknown row encoding"))?;
        let u64_at = |lo: usize| u64::from_le_bytes(header[lo..lo + 8].try_into().expect("8"));
        let dim = usize::try_from(u64_at(16)).map_err(|_| corrupt("dim overflow"))?;
        let rows = usize::try_from(u64_at(24)).map_err(|_| corrupt("rows overflow"))?;
        let chunk_rows = usize::try_from(u64_at(32)).map_err(|_| corrupt("chunk_rows overflow"))?;
        let chunk_count =
            usize::try_from(u64_at(40)).map_err(|_| corrupt("chunk_count overflow"))?;
        let dir_offset = u64_at(48);
        if dim == 0 || chunk_rows == 0 {
            return Err(corrupt("zero dim or chunk_rows"));
        }
        if chunk_count != rows.div_ceil(chunk_rows) {
            return Err(corrupt("chunk count disagrees with rows/chunk_rows"));
        }

        file.seek(SeekFrom::Start(dir_offset))?;
        let mut dir_bytes = vec![0u8; chunk_count * DIR_ENTRY_BYTES];
        file.read_exact(&mut dir_bytes).map_err(|_| corrupt("truncated chunk directory"))?;
        let mut dir = Vec::with_capacity(chunk_count);
        let mut expect_rows = 0usize;
        for (c, entry) in dir_bytes.chunks_exact(DIR_ENTRY_BYTES).enumerate() {
            let meta = ChunkMeta {
                offset: u64::from_le_bytes(entry[0..8].try_into().expect("8")),
                bytes: u64::from_le_bytes(entry[8..16].try_into().expect("8")),
                rows: u64::from_le_bytes(entry[16..24].try_into().expect("8")),
            };
            let here = usize::try_from(meta.rows).map_err(|_| corrupt("chunk rows overflow"))?;
            let full = if c + 1 == chunk_count { rows - chunk_rows * c } else { chunk_rows };
            if here != full {
                return Err(corrupt(format!("chunk {c} holds {here} rows, expected {full}")));
            }
            expect_rows += here;
            dir.push(meta);
        }
        if expect_rows != rows {
            return Err(corrupt("directory row total disagrees with header"));
        }

        // Dense chunks are raw little-endian f64 runs, so when every chunk
        // sits on an 8-byte boundary the file itself can serve as the
        // decoded representation. (Writer-produced files always qualify:
        // 64-byte header, then chunks of rows×(dim+1)×8 bytes each.)
        let mapping = if allow_mmap
            && encoding == Encoding::Dense
            && !crate::mmap::disabled_by_env()
            && dir.iter().all(|m| m.offset % 8 == 0)
        {
            let map_len = dir.last().map(|m| (m.offset + m.bytes) as usize).unwrap_or(0);
            MmapRegion::map(&file, map_len).map(Arc::new)
        } else {
            None
        };

        Ok(Self {
            inner: Arc::new(StoreInner {
                id: STORE_IDS.fetch_add(1, Ordering::Relaxed),
                file: Mutex::new(file),
                dim,
                chunk_rows,
                encoding,
                dir,
                cache: Mutex::new(ChunkCache::new(budget_bytes)),
                mapping,
            }),
            lo: 0,
            hi: rows,
        })
    }

    /// Whether chunk reads borrow from a memory mapping (false on the
    /// decode-copy fallback in any of its forms).
    pub fn mmap_backed(&self) -> bool {
        self.inner.mapping.is_some()
    }

    /// Number of rows in this view.
    pub fn len(&self) -> usize {
        self.hi - self.lo
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.hi == self.lo
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.inner.dim
    }

    /// The on-disk row encoding.
    pub fn encoding(&self) -> Encoding {
        self.inner.encoding
    }

    /// Rows per full on-disk chunk.
    pub fn chunk_rows(&self) -> usize {
        self.inner.chunk_rows
    }

    /// A snapshot of the shared chunk-cache counters (shared by every view
    /// of this store).
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.lock().expect("cache lock").stats
    }

    /// Resets hit/miss/eviction counters and re-bases the resident peak at
    /// the current residency. Also drops this thread's pin so a benchmark
    /// phase starts cold.
    pub fn reset_cache_stats(&self) {
        let mut cache = self.inner.cache.lock().expect("cache lock");
        let CacheStats { resident_bytes, budget_bytes, .. } = cache.stats;
        cache.stats = CacheStats {
            resident_bytes,
            peak_resident_bytes: resident_bytes,
            budget_bytes,
            ..CacheStats::default()
        };
        drop(cache);
        PIN.with(|p| {
            if let Ok(mut pin) = p.try_borrow_mut() {
                if pin.as_ref().is_some_and(|(sid, _, _)| *sid == self.inner.id) {
                    *pin = None;
                }
            }
        });
    }

    /// Label of view row `i` (convenience for tests and metrics).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn label_of(&self, i: usize) -> f64 {
        assert!(i < self.len(), "row {i} out of range");
        let inner_row = self.lo + i;
        let chunk = self.chunk_arc(inner_row / self.inner.chunk_rows);
        chunk.labels[inner_row - chunk.first_row]
    }

    /// Splits the view into `parts` nearly equal contiguous portions
    /// sharing this store's file handle and chunk cache (the private
    /// tuning Algorithm 3, line 2, without copying any data).
    ///
    /// # Panics
    /// Panics if `parts == 0` or `parts > len`.
    pub fn split(&self, parts: usize) -> Vec<StoredDataset> {
        assert!(parts > 0 && parts <= self.len(), "invalid split arity");
        let base = self.len() / parts;
        let extra = self.len() % parts;
        let mut out = Vec::with_capacity(parts);
        let mut start = self.lo;
        for p in 0..parts {
            let size = base + usize::from(p < extra);
            out.push(StoredDataset { inner: Arc::clone(&self.inner), lo: start, hi: start + size });
            start += size;
        }
        out
    }

    /// Fetches (pin → cache → disk) the decoded chunk holding store rows
    /// `[chunk·chunk_rows, …)`.
    fn chunk_arc(&self, chunk: usize) -> Arc<DecodedChunk> {
        let id = self.inner.id;
        PIN.with(|p| match p.try_borrow_mut() {
            Ok(mut pin) => {
                if let Some((sid, pc, arc)) = pin.as_ref() {
                    if *sid == id && *pc == chunk {
                        return arc.clone();
                    }
                }
                let arc = self.fetch(chunk);
                *pin = Some((id, chunk, arc.clone()));
                arc
            }
            // Reentrant fetch (a visitor scanning this store again): skip
            // the pin, go straight to the shared cache.
            Err(_) => self.fetch(chunk),
        })
    }

    fn fetch(&self, chunk: usize) -> Arc<DecodedChunk> {
        {
            let mut cache = self.inner.cache.lock().expect("cache lock");
            if let Some(arc) = cache.get(chunk) {
                cache.note_serve(&arc);
                return arc;
            }
            cache.stats.misses += 1;
        }
        // Decode outside the cache lock, so pool workers missing on
        // *different* chunks overlap their disk reads and decodes (only
        // the file seek+read itself is serialized, by the file mutex). Two
        // workers racing on the same chunk may both decode it; the first
        // admission wins and the loser adopts it — rare, and far cheaper
        // than serializing every miss behind one lock.
        let decoded = Arc::new(
            self.inner.read_chunk(chunk).unwrap_or_else(|e| panic!("row store chunk {chunk}: {e}")),
        );
        let mut cache = self.inner.cache.lock().expect("cache lock");
        if let Some((arc, _)) = cache.resident.get(&chunk) {
            let arc = arc.clone();
            cache.note_serve(&arc);
            return arc;
        }
        cache.admit(chunk, decoded.clone());
        cache.note_serve(&decoded);
        decoded
    }
}

impl StoreInner {
    fn read_chunk(&self, chunk: usize) -> Result<DecodedChunk, StoreError> {
        let meta = *self
            .dir
            .get(chunk)
            .unwrap_or_else(|| panic!("chunk {chunk} out of range ({} chunks)", self.dir.len()));
        if let Some(region) = &self.mapping {
            return self.map_chunk(chunk, meta, region);
        }
        let mut raw = vec![0u8; meta.bytes as usize];
        {
            let mut file = self.file.lock().expect("file lock");
            file.seek(SeekFrom::Start(meta.offset))?;
            file.read_exact(&mut raw).map_err(|_| corrupt(format!("truncated chunk {chunk}")))?;
        }
        let rows = meta.rows as usize;
        let first_row = chunk * self.chunk_rows;
        let mut labels = Vec::with_capacity(rows);
        match self.encoding {
            Encoding::Dense => {
                let row_bytes = (self.dim + 1) * 8;
                if raw.len() != rows * row_bytes {
                    return Err(corrupt(format!("dense chunk {chunk} has wrong byte count")));
                }
                let mut features = Vec::with_capacity(rows * self.dim);
                for row in raw.chunks_exact(row_bytes) {
                    for v in row[..self.dim * 8].chunks_exact(8) {
                        features.push(f64::from_le_bytes(v.try_into().expect("8 bytes")));
                    }
                    labels
                        .push(f64::from_le_bytes(row[self.dim * 8..].try_into().expect("8 bytes")));
                }
                let bytes = (features.len() + labels.len()) * 8;
                Ok(DecodedChunk { first_row, labels, data: ChunkData::Dense(features), bytes })
            }
            Encoding::Sparse => {
                let mut sparse_rows = Vec::with_capacity(rows);
                let mut at = 0usize;
                let mut take = |n: usize| -> Result<&[u8], StoreError> {
                    let slice = raw
                        .get(at..at + n)
                        .ok_or_else(|| corrupt(format!("truncated sparse chunk {chunk}")))?;
                    at += n;
                    Ok(slice)
                };
                let mut nnz_total = 0usize;
                for _ in 0..rows {
                    let nnz = u32::from_le_bytes(take(4)?.try_into().expect("4 bytes")) as usize;
                    let mut pairs = Vec::with_capacity(nnz);
                    for _ in 0..nnz {
                        let i = u32::from_le_bytes(take(4)?.try_into().expect("4 bytes")) as usize;
                        let v = f64::from_le_bytes(take(8)?.try_into().expect("8 bytes"));
                        if i >= self.dim {
                            return Err(corrupt(format!(
                                "sparse chunk {chunk}: index {i} outside dim {}",
                                self.dim
                            )));
                        }
                        pairs.push((i, v));
                    }
                    nnz_total += nnz;
                    sparse_rows.push(SparseVec::from_pairs(self.dim, pairs));
                    labels.push(f64::from_le_bytes(take(8)?.try_into().expect("8 bytes")));
                }
                if at != raw.len() {
                    return Err(corrupt(format!("sparse chunk {chunk} has trailing bytes")));
                }
                let bytes = nnz_total * 16 + labels.len() * 8;
                Ok(DecodedChunk { first_row, labels, data: ChunkData::Sparse(sparse_rows), bytes })
            }
        }
    }

    /// The mmap "decode": validate the chunk's shape, copy out the labels
    /// (rows × 8 bytes), and borrow the features in place. Charged bytes
    /// equal the copied chunk's decoded size so the cache behaves
    /// identically in both modes.
    fn map_chunk(
        &self,
        chunk: usize,
        meta: ChunkMeta,
        region: &Arc<MmapRegion>,
    ) -> Result<DecodedChunk, StoreError> {
        debug_assert_eq!(self.encoding, Encoding::Dense, "only dense stores are mapped");
        let rows = meta.rows as usize;
        let stride = self.dim + 1;
        if meta.bytes as usize != rows * stride * 8 {
            return Err(corrupt(format!("dense chunk {chunk} has wrong byte count")));
        }
        let float_offset = meta.offset as usize / 8;
        let floats = region.f64s(meta.offset as usize, rows * stride);
        let labels = (0..rows).map(|r| floats[r * stride + self.dim]).collect::<Vec<f64>>();
        Ok(DecodedChunk {
            first_row: chunk * self.chunk_rows,
            labels,
            data: ChunkData::DenseMapped { region: Arc::clone(region), float_offset },
            bytes: rows * stride * 8,
        })
    }
}

impl ChunkedRows for StoredDataset {
    fn len(&self) -> usize {
        self.hi - self.lo
    }

    fn dim(&self) -> usize {
        self.inner.dim
    }

    fn chunk_len(&self) -> usize {
        self.inner.chunk_rows
    }

    fn visit_chunk_rows(
        &self,
        chunk: usize,
        locals: &[usize],
        visit: &mut dyn FnMut(usize, &[f64], f64),
    ) {
        // The view's chunk grid is anchored at `lo`. For a chunk-aligned
        // view (the full store, and any split portion that happens to land
        // on a chunk boundary) every view chunk *is* one store chunk, so
        // the decoded chunk is fetched once per call and rows index it
        // directly. Misaligned views (split portions) straddle two store
        // chunks per view chunk and fall back to per-row resolution
        // through the thread pin.
        let cl = self.inner.chunk_rows;
        let base = chunk * cl;
        let dim = self.inner.dim;
        let aligned = self.lo.is_multiple_of(cl);
        thread_local! {
            static ROW_BUF: std::cell::RefCell<Vec<f64>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        match self.inner.encoding {
            Encoding::Dense => {
                if aligned {
                    let decoded = self.chunk_arc(self.lo / cl + chunk);
                    for (k, &l) in locals.iter().enumerate() {
                        let view_row = base + l;
                        assert!(view_row < self.len(), "row {view_row} out of range");
                        visit(k, decoded.dense_features(l, dim), decoded.labels[l]);
                    }
                    return;
                }
                for (k, &l) in locals.iter().enumerate() {
                    let view_row = base + l;
                    assert!(view_row < self.len(), "row {view_row} out of range");
                    let inner_row = self.lo + view_row;
                    let decoded = self.chunk_arc(inner_row / cl);
                    let r = inner_row - decoded.first_row;
                    visit(k, decoded.dense_features(r, dim), decoded.labels[r]);
                }
            }
            Encoding::Sparse => {
                let mut body = |buf: &mut Vec<f64>| {
                    buf.clear();
                    buf.resize(dim, 0.0);
                    if aligned {
                        let decoded = self.chunk_arc(self.lo / cl + chunk);
                        let ChunkData::Sparse(rows) = &decoded.data else {
                            unreachable!("sparse store decodes sparse chunks")
                        };
                        for (k, &l) in locals.iter().enumerate() {
                            let view_row = base + l;
                            assert!(view_row < self.len(), "row {view_row} out of range");
                            rows[l].write_dense(buf);
                            visit(k, buf, decoded.labels[l]);
                        }
                        return;
                    }
                    for (k, &l) in locals.iter().enumerate() {
                        let view_row = base + l;
                        assert!(view_row < self.len(), "row {view_row} out of range");
                        let inner_row = self.lo + view_row;
                        let decoded = self.chunk_arc(inner_row / cl);
                        let r = inner_row - decoded.first_row;
                        let ChunkData::Sparse(rows) = &decoded.data else {
                            unreachable!("sparse store decodes sparse chunks")
                        };
                        rows[r].write_dense(buf);
                        visit(k, buf, decoded.labels[r]);
                    }
                };
                ROW_BUF.with(|cell| match cell.try_borrow_mut() {
                    Ok(mut buf) => body(&mut buf),
                    Err(_) => body(&mut vec![0.0; dim]),
                });
            }
        }
    }
}

impl SparseChunkedRows for StoredDataset {
    fn visit_chunk_rows_sparse(
        &self,
        chunk: usize,
        locals: &[usize],
        visit: &mut dyn FnMut(usize, &SparseVec, f64),
    ) {
        let cl = self.inner.chunk_rows;
        let base = chunk * cl;
        // One fetch per call for chunk-aligned views, as in the dense scan.
        if self.lo.is_multiple_of(cl) {
            let decoded = self.chunk_arc(self.lo / cl + chunk);
            for (k, &l) in locals.iter().enumerate() {
                let view_row = base + l;
                assert!(view_row < self.len(), "row {view_row} out of range");
                visit_decoded_sparse(&decoded, l, self.inner.dim, k, visit);
            }
            return;
        }
        for (k, &l) in locals.iter().enumerate() {
            let view_row = base + l;
            assert!(view_row < self.len(), "row {view_row} out of range");
            let inner_row = self.lo + view_row;
            let decoded = self.chunk_arc(inner_row / cl);
            let r = inner_row - decoded.first_row;
            visit_decoded_sparse(&decoded, r, self.inner.dim, k, visit);
        }
    }
}

/// Hands decoded row `r` to a sparse visitor as position `k`.
fn visit_decoded_sparse(
    decoded: &DecodedChunk,
    r: usize,
    dim: usize,
    k: usize,
    visit: &mut dyn FnMut(usize, &SparseVec, f64),
) {
    match &decoded.data {
        ChunkData::Sparse(rows) => visit(k, &rows[r], decoded.labels[r]),
        // Correctness fallback for dense-encoded stores (copied or
        // mapped): build the sparse row on the fly (allocates per row —
        // prefer a sparse-encoded store for the O(nnz) path).
        ChunkData::Dense(_) | ChunkData::DenseMapped { .. } => {
            let row = SparseVec::from_dense(decoded.dense_features(r, dim));
            visit(k, &row, decoded.labels[r]);
        }
    }
}

impl TrainSet for StoredDataset {
    fn len(&self) -> usize {
        self.hi - self.lo
    }

    fn dim(&self) -> usize {
        self.inner.dim
    }

    fn scan_order(&self, order: &[usize], visit: &mut dyn FnMut(usize, &[f64], f64)) {
        bolton_sgd::chunked::scan_order(self, order, visit);
    }
}

impl SparseTrainSet for StoredDataset {
    fn scan_order_sparse(&self, order: &[usize], visit: &mut dyn FnMut(usize, &SparseVec, f64)) {
        bolton_sgd::chunked::scan_order_sparse(self, order, visit);
    }
}

impl TuningData for StoredDataset {
    fn split_portions(&self, parts: usize) -> Vec<Self> {
        self.split(parts)
    }
}

/// Streams an in-memory dense dataset into a store file (test/bench
/// convenience; real corpora use the streaming loader converters).
///
/// # Errors
/// I/O failures.
pub fn write_dense_dataset(
    data: &bolton_sgd::InMemoryDataset,
    path: impl AsRef<Path>,
    chunk_rows: usize,
) -> Result<PathBuf, StoreError> {
    let mut writer = RowStoreWriter::create_dense(path, TrainSet::dim(data), chunk_rows)?;
    for i in 0..TrainSet::len(data) {
        writer.push_dense(data.features_of(i), data.label_of(i))?;
    }
    writer.finish()
}

/// Streams an in-memory sparse dataset into a sparse-encoded store file.
///
/// # Errors
/// I/O failures.
pub fn write_sparse_dataset(
    data: &bolton_sgd::SparseDataset,
    path: impl AsRef<Path>,
    chunk_rows: usize,
) -> Result<PathBuf, StoreError> {
    let mut writer = RowStoreWriter::create_sparse(path, TrainSet::dim(data), chunk_rows)?;
    for i in 0..TrainSet::len(data) {
        writer.push_sparse(data.row(i), data.label_of(i))?;
    }
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolton_rng::seeded;
    use bolton_sgd::engine::SamplingScheme;
    use bolton_sgd::schedule::StepSize;
    use bolton_sgd::{run_psgd, InMemoryDataset, Logistic, SgdConfig, SparseDataset};

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("bolton-rowstore-{}-{name}.rws", std::process::id()))
    }

    fn linear(m: usize, dim: usize, seed: u64) -> InMemoryDataset {
        crate::generator::linear_binary(&mut seeded(seed), m, dim, 0.05)
    }

    #[test]
    fn dense_roundtrip_is_bit_exact() {
        let data = linear(53, 5, 601);
        let path = tmp("dense-roundtrip");
        write_dense_dataset(&data, &path, 8).unwrap();
        let stored = StoredDataset::open(&path).unwrap();
        assert_eq!(TrainSet::len(&stored), 53);
        assert_eq!(TrainSet::dim(&stored), 5);
        assert_eq!(stored.encoding(), Encoding::Dense);
        assert_eq!(stored.chunk_rows(), 8);
        for i in 0..53 {
            assert_eq!(stored.get(i), data.get(i), "row {i}");
            assert_eq!(stored.label_of(i), data.label_of(i));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sparse_roundtrip_preserves_rows_and_empty_rows() {
        let rows = vec![
            SparseVec::from_pairs(6, [(1, 0.5), (4, -2.0)]),
            SparseVec::from_pairs(6, []), // all-zero row
            SparseVec::from_pairs(6, [(0, 1.25)]),
        ];
        let labels = vec![1.0, -1.0, 1.0];
        let data = SparseDataset::new(rows, labels);
        let path = tmp("sparse-roundtrip");
        write_sparse_dataset(&data, &path, 2).unwrap();
        let stored = StoredDataset::open(&path).unwrap();
        assert_eq!(stored.encoding(), Encoding::Sparse);
        let mut seen = Vec::new();
        stored.scan_order_sparse(&[0, 1, 2], &mut |pos, row, y| {
            seen.push((pos, row.clone(), y));
        });
        for (pos, row, y) in &seen {
            assert_eq!(row, data.row(*pos), "row {pos}");
            assert_eq!(*y, data.label_of(*pos));
        }
        // Dense scan of the sparse store agrees too.
        for i in 0..3 {
            assert_eq!(stored.get(i), data.get(i));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn training_from_disk_is_bit_identical_to_memory() {
        let data = linear(700, 6, 602);
        let path = tmp("train-parity");
        write_dense_dataset(&data, &path, 64).unwrap();
        // Budget of two chunks: constant eviction pressure during training.
        let chunk_bytes = 64 * 7 * 8;
        let stored = StoredDataset::open_with_budget(&path, 2 * chunk_bytes).unwrap();
        let loss = Logistic::plain();
        for sampling in [
            SamplingScheme::Permutation { fresh_each_pass: false },
            SamplingScheme::Permutation { fresh_each_pass: true },
            SamplingScheme::chunked(64),
            SamplingScheme::ChunkedPermutation { chunk_len: 64, fresh_each_pass: true },
        ] {
            let config = SgdConfig::new(StepSize::Constant(0.3))
                .with_passes(2)
                .with_batch_size(3)
                .with_sampling(sampling);
            let mem = run_psgd(&data, &loss, &config, &mut seeded(603));
            let disk = run_psgd(&stored, &loss, &config, &mut seeded(603));
            assert_eq!(mem.model, disk.model, "{sampling:?}");
            assert_eq!(mem.updates, disk.updates);
        }
        let stats = stored.cache_stats();
        assert!(stats.evictions > 0, "budget must force evictions: {stats:?}");
        assert!(stats.peak_resident_bytes <= 2 * chunk_bytes, "{stats:?}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn chunked_sampling_pins_each_chunk_once_per_pass() {
        let data = linear(320, 4, 604);
        let path = tmp("pin-locality");
        write_dense_dataset(&data, &path, 32).unwrap(); // 10 chunks
        let chunk_bytes = 32 * 5 * 8;
        // Room for a single chunk: any non-local order would thrash.
        let stored = StoredDataset::open_with_budget(&path, chunk_bytes).unwrap();
        let loss = Logistic::plain();
        let config = SgdConfig::new(StepSize::Constant(0.2))
            .with_passes(3)
            .with_sampling(SamplingScheme::chunked(32));
        let out = run_psgd(&stored, &loss, &config, &mut seeded(605));
        assert_eq!(out.updates, 3 * 320);
        let stats = stored.cache_stats();
        // 10 chunks: the shared (non-fresh) order pins each chunk once per
        // pass; the thread pin absorbs within-pass locality, so the cache
        // sees at most one fetch per chunk per pass.
        assert!(stats.misses <= 30, "chunk-local order should fetch ≤ chunks×passes: {stats:?}");
        assert!(stats.peak_resident_bytes <= chunk_bytes, "{stats:?}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn parallel_training_from_disk_matches_memory() {
        use bolton_sgd::run_parallel_psgd;
        let data = linear(512, 5, 606);
        let path = tmp("parallel-parity");
        write_dense_dataset(&data, &path, 64).unwrap(); // 8 chunks
        let stored = StoredDataset::open_with_budget(&path, 3 * 64 * 6 * 8).unwrap();
        let loss = Logistic::plain();
        let config = SgdConfig::new(StepSize::Constant(0.3))
            .with_passes(2)
            .with_sampling(SamplingScheme::chunked(64));
        for workers in [1usize, 2, 4] {
            let mem = run_parallel_psgd(&data, &loss, &config, workers, &mut seeded(607));
            let disk = run_parallel_psgd(&stored, &loss, &config, workers, &mut seeded(607));
            assert_eq!(mem.model, disk.model, "{workers} workers");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sparse_store_trains_like_sparse_memory() {
        use bolton_sgd::run_sparse_psgd;
        let (_, sparse) = bolton_sgd::dataset::sparse_pair_fixture(300, 12, 0.2, 608);
        let path = tmp("sparse-train-parity");
        write_sparse_dataset(&sparse, &path, 32).unwrap();
        let stored = StoredDataset::open_with_budget(&path, 1 << 16).unwrap();
        let loss = Logistic::plain();
        let config = SgdConfig::new(StepSize::Constant(0.3))
            .with_passes(2)
            .with_sampling(SamplingScheme::chunked(32));
        let mem = run_sparse_psgd(&sparse, &loss, &config, &mut seeded(609));
        let disk = run_sparse_psgd(&stored, &loss, &config, &mut seeded(609));
        assert_eq!(mem.model, disk.model);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn split_views_share_the_cache_and_cover_all_rows() {
        let data = linear(103, 3, 610);
        let path = tmp("split-views");
        write_dense_dataset(&data, &path, 16).unwrap();
        let stored = StoredDataset::open_with_budget(&path, 1 << 20).unwrap();
        let parts = stored.split(4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.iter().map(TrainSet::len).sum::<usize>(), 103);
        assert_eq!(TrainSet::len(&parts[0]), 26);
        // Portion boundaries land mid-chunk; every row resolves correctly.
        let mut offset = 0usize;
        for part in &parts {
            for i in 0..TrainSet::len(part) {
                assert_eq!(part.get(i), data.get(offset + i));
            }
            offset += TrainSet::len(part);
        }
        // TuningData goes through the same split.
        let portions = TuningData::split_portions(&stored, 5);
        assert_eq!(portions.len(), 5);
        assert_eq!(portions.iter().map(TrainSet::len).sum::<usize>(), 103);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn private_training_from_disk_matches_memory_bit_for_bit() {
        use bolton::output_perturbation::{train_private, BoltOnConfig};
        use bolton::Budget;
        let data = linear(400, 4, 611);
        let path = tmp("private-parity");
        write_dense_dataset(&data, &path, 64).unwrap();
        let stored = StoredDataset::open_with_budget(&path, 2 * 64 * 5 * 8).unwrap();
        let config = BoltOnConfig::new(Budget::pure(1.0).unwrap()).with_passes(3);
        let loss = Logistic::plain();
        let mem = train_private(&data, &loss, &config, &mut seeded(612)).unwrap();
        let disk = train_private(&stored, &loss, &config, &mut seeded(612)).unwrap();
        // Identical Δ₂ calibration, identical noise draw, identical model:
        // the release from disk is bit-for-bit the in-memory release.
        assert_eq!(mem.sensitivity, disk.sensitivity);
        assert_eq!(mem.unperturbed, disk.unperturbed);
        assert_eq!(mem.model, disk.model);
        std::fs::remove_file(&path).unwrap();
    }

    /// The tuning grid accepts disk-backed data: Algorithm 3 splits the
    /// store into portion views (no copies) and trains candidates against
    /// them through the shared cache.
    #[test]
    fn private_tuning_grid_runs_on_disk() {
        use bolton::tuning::{grid, private_tune_models_parallel, Candidate};
        use bolton::Budget;
        use bolton_sgd::pool::WorkerPool;
        let data = linear(360, 4, 615);
        let path = tmp("tuning-grid");
        write_dense_dataset(&data, &path, 32).unwrap();
        let stored = StoredDataset::open_with_budget(&path, 1 << 16).unwrap();
        let candidates = grid(&[1, 2], &[1], &[0.0]);
        let loss = Logistic::plain();
        let train = |portion: &StoredDataset, c: &Candidate, rng: &mut dyn bolton_rng::Rng| {
            let config = SgdConfig::new(StepSize::Constant(0.3)).with_passes(c.passes);
            run_psgd(portion, &loss, &config, rng).model
        };
        let errors = |model: &Vec<f64>, holdout: &StoredDataset| {
            bolton_sgd::metrics::zero_one_errors(model, holdout)
        };
        let pool = WorkerPool::new(2);
        let tuned = private_tune_models_parallel(
            &pool.runner(),
            &stored,
            &candidates,
            Budget::pure(1.0).unwrap(),
            &train,
            &errors,
            616,
            &mut seeded(617),
        )
        .unwrap();
        assert_eq!(tuned.error_counts.len(), 2);
        assert!(tuned.selected < 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_store_roundtrips() {
        let path = tmp("empty");
        let writer = RowStoreWriter::create_dense(&path, 3, 4).unwrap();
        assert_eq!(writer.rows_written(), 0);
        writer.finish().unwrap();
        let stored = StoredDataset::open(&path).unwrap();
        assert_eq!(TrainSet::len(&stored), 0);
        assert!(stored.is_empty());
        let mut visits = 0usize;
        stored.scan(&mut |_, _, _| visits += 1);
        assert_eq!(visits, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_garbage_and_truncation() {
        let path = tmp("garbage");
        std::fs::write(&path, b"definitely not a row store").unwrap();
        assert!(matches!(StoredDataset::open(&path), Err(StoreError::Corrupt { .. })));
        std::fs::write(&path, b"BOLT").unwrap();
        assert!(matches!(StoredDataset::open(&path), Err(StoreError::Corrupt { .. })));
        // A valid store truncated mid-directory.
        let data = linear(40, 3, 613);
        write_dense_dataset(&data, &path, 8).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        assert!(matches!(StoredDataset::open(&path), Err(StoreError::Corrupt { .. })));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reset_cache_stats_rebases_peak() {
        let data = linear(96, 3, 614);
        let path = tmp("reset-stats");
        write_dense_dataset(&data, &path, 16).unwrap();
        let stored = StoredDataset::open_with_budget(&path, 1 << 20).unwrap();
        stored.scan(&mut |_, _, _| {});
        let warm = stored.cache_stats();
        assert!(warm.misses > 0);
        stored.reset_cache_stats();
        let reset = stored.cache_stats();
        assert_eq!(reset.misses, 0);
        assert_eq!(reset.hits, 0);
        assert_eq!(reset.evictions, 0);
        assert_eq!(reset.peak_resident_bytes, reset.resident_bytes);
        std::fs::remove_file(&path).unwrap();
    }

    /// Mapped and copy-mode opens of the same dense store serve identical
    /// rows, and the serve counters make the path taken observable:
    /// every serve is exactly one of borrowed-from-mmap or decode-copied.
    #[test]
    fn mmap_and_copy_paths_agree_and_are_observable() {
        let data = linear(120, 4, 620);
        let path = tmp("mmap-parity");
        write_dense_dataset(&data, &path, 16).unwrap();
        let mapped = StoredDataset::open_with_budget(&path, 1 << 20).unwrap();
        let copied = StoredDataset::open_copying_with_budget(&path, 1 << 20).unwrap();
        // `BOLTON_MMAP=off` in the environment legitimately disables the
        // mapping (the CI matrix runs the suite that way), so only require
        // it when the knob permits and the platform supports it.
        assert_eq!(
            mapped.mmap_backed(),
            crate::mmap::MMAP_SUPPORTED && !crate::mmap::disabled_by_env()
        );
        assert!(!copied.mmap_backed(), "copy-mode open must never map");
        for i in 0..120 {
            assert_eq!(mapped.get(i), copied.get(i), "row {i}");
            assert_eq!(mapped.label_of(i), copied.label_of(i), "label {i}");
        }
        let ms = mapped.cache_stats();
        let cs = copied.cache_stats();
        assert_eq!(ms.borrowed_mmap_hits + ms.copied_hits, ms.hits + ms.misses, "{ms:?}");
        assert_eq!(cs.borrowed_mmap_hits + cs.copied_hits, cs.hits + cs.misses, "{cs:?}");
        if mapped.mmap_backed() {
            assert!(ms.borrowed_mmap_hits > 0, "{ms:?}");
            assert_eq!(ms.copied_hits, 0, "{ms:?}");
        }
        assert_eq!(cs.borrowed_mmap_hits, 0, "{cs:?}");
        assert!(cs.copied_hits > 0, "{cs:?}");
        std::fs::remove_file(&path).unwrap();
    }

    /// Sparse stores always fall back to decode copies (their rows hold
    /// unaligned u32 fields and must be materialized anyway).
    #[test]
    fn sparse_stores_are_never_mapped() {
        let (_, sparse) = bolton_sgd::dataset::sparse_pair_fixture(40, 8, 0.2, 621);
        let path = tmp("sparse-no-mmap");
        write_sparse_dataset(&sparse, &path, 16).unwrap();
        let stored = StoredDataset::open_with_budget(&path, 1 << 16).unwrap();
        assert!(!stored.mmap_backed());
        stored.scan(&mut |_, _, _| {});
        let stats = stored.cache_stats();
        assert_eq!(stats.borrowed_mmap_hits, 0);
        assert!(stats.copied_hits > 0);
        std::fs::remove_file(&path).unwrap();
    }

    /// Training from a mapped store is bit-identical to training from a
    /// copy-mode open of the same file (which is in turn bit-identical to
    /// memory, per `training_from_disk_is_bit_identical_to_memory`) —
    /// under eviction pressure, so mapped chunks cycle through the cache.
    #[test]
    fn mmap_training_is_bit_identical_to_copy_mode() {
        let data = linear(700, 6, 622);
        let path = tmp("mmap-train-parity");
        write_dense_dataset(&data, &path, 64).unwrap();
        let chunk_bytes = 64 * 7 * 8;
        let mapped = StoredDataset::open_with_budget(&path, 2 * chunk_bytes).unwrap();
        let copied = StoredDataset::open_copying_with_budget(&path, 2 * chunk_bytes).unwrap();
        let loss = Logistic::plain();
        let config = SgdConfig::new(StepSize::Constant(0.3))
            .with_passes(2)
            .with_batch_size(3)
            .with_sampling(SamplingScheme::chunked(64));
        let from_map = run_psgd(&mapped, &loss, &config, &mut seeded(623));
        let from_copy = run_psgd(&copied, &loss, &config, &mut seeded(623));
        assert_eq!(from_map.model, from_copy.model);
        let stats = mapped.cache_stats();
        assert!(stats.evictions > 0, "budget must force evictions: {stats:?}");
        assert!(stats.peak_resident_bytes <= 2 * chunk_bytes, "{stats:?}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    #[should_panic(expected = "dense push on a sparse-encoded store")]
    fn encoding_mismatch_rejected() {
        let path = tmp("encoding-mismatch");
        let mut writer = RowStoreWriter::create_sparse(&path, 3, 4).unwrap();
        let _ = writer.push_dense(&[1.0, 2.0, 3.0], 1.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use bolton_sgd::engine::{PassOrders, SamplingScheme, SgdConfig};
    use bolton_sgd::schedule::StepSize;
    use bolton_sgd::SparseDataset;
    use proptest::prelude::*;

    fn tmp(name: &str, case: u64) -> PathBuf {
        std::env::temp_dir()
            .join(format!("bolton-rowstore-prop-{}-{name}-{case}.rws", std::process::id()))
    }

    proptest! {
        /// Dense write→read round-trips the exact rows for any shape and
        /// chunk size (including the single-chunk edge `chunk_rows ≥ m`).
        #[test]
        fn dense_roundtrip(
            m in 1usize..60,
            dim in 1usize..6,
            chunk_rows in 1usize..70,
            seed in 0u64..1000,
        ) {
            let data = crate::generator::linear_binary(
                &mut bolton_rng::seeded(seed), m, dim, 0.1);
            let path = tmp("dense", seed.wrapping_mul(61) ^ (m as u64) << 16 ^ (chunk_rows as u64));
            write_dense_dataset(&data, &path, chunk_rows).unwrap();
            let stored = StoredDataset::open_with_budget(&path, 1 << 14).unwrap();
            prop_assert_eq!(TrainSet::len(&stored), m);
            for i in 0..m {
                prop_assert_eq!(stored.get(i), data.get(i));
            }
            std::fs::remove_file(&path).unwrap();
        }

        /// Sparse write→read round-trips rows exactly, including all-zero
        /// rows.
        #[test]
        fn sparse_roundtrip(
            m in 1usize..40,
            chunk_rows in 1usize..50,
            seed in 0u64..1000,
        ) {
            use bolton_rng::Rng as _;
            let dim = 9usize;
            let mut rng = bolton_rng::seeded(seed);
            let mut rows: Vec<SparseVec> = Vec::with_capacity(m);
            for _ in 0..m {
                let mut pairs: Vec<(usize, f64)> = Vec::new();
                for j in 0..dim {
                    if rng.next_bool(0.25) {
                        pairs.push((j, rng.next_range(-1.0, 1.0)));
                    }
                }
                rows.push(SparseVec::from_pairs(dim, pairs));
            }
            let labels: Vec<f64> =
                (0..m).map(|_| if rng.next_bool(0.5) { 1.0 } else { -1.0 }).collect();
            let data = SparseDataset::new(rows, labels);
            let path = tmp("sparse", seed.wrapping_mul(67) ^ (m as u64) << 16 ^ (chunk_rows as u64));
            write_sparse_dataset(&data, &path, chunk_rows).unwrap();
            let stored = StoredDataset::open_with_budget(&path, 1 << 14).unwrap();
            let mut visited = 0usize;
            stored.scan_order_sparse(
                &(0..m).collect::<Vec<_>>(),
                &mut |pos, row, y| {
                    assert_eq!(row, data.row(pos));
                    assert_eq!(y, data.label_of(pos));
                    visited += 1;
                },
            );
            prop_assert_eq!(visited, m);
            std::fs::remove_file(&path).unwrap();
        }

        /// Chunked scans visit every row exactly once, in order positions,
        /// under any chunk size and any sampling scheme's pass orders.
        #[test]
        fn scans_cover_every_row_once(
            m in 1usize..80,
            chunk_rows in 1usize..90,
            order_chunk in 1usize..90,
            fresh_bit in 0u8..2,
            flat_bit in 0u8..2,
            seed in 0u64..1000,
        ) {
            let dim = 3usize;
            let data = crate::generator::linear_binary(
                &mut bolton_rng::seeded(seed), m, dim, 0.1);
            let path = tmp("cover", seed.wrapping_mul(71)
                ^ (m as u64) << 24 ^ (chunk_rows as u64) << 12 ^ (order_chunk as u64));
            write_dense_dataset(&data, &path, chunk_rows).unwrap();
            // A budget of one decoded chunk: worst-case eviction pressure.
            let stored = StoredDataset::open_with_budget(
                &path, chunk_rows.min(m) * (dim + 1) * 8).unwrap();
            let (fresh, flat) = (fresh_bit == 1, flat_bit == 1);
            let sampling = if flat {
                SamplingScheme::Permutation { fresh_each_pass: fresh }
            } else {
                SamplingScheme::ChunkedPermutation { chunk_len: order_chunk, fresh_each_pass: fresh }
            };
            let config = SgdConfig::new(StepSize::Constant(0.1))
                .with_passes(2)
                .with_sampling(sampling);
            let orders = PassOrders::sample(&config, m, &mut bolton_rng::seeded(seed ^ 0xA5));
            for pass in 0..2 {
                let order = orders.order(pass);
                let mut seen = vec![0usize; m];
                let mut pos_ok = true;
                stored.scan_order(order, &mut |pos, x, y| {
                    let i = order[pos];
                    seen[i] += 1;
                    pos_ok &= x == data.features_of(i) && y == data.label_of(i);
                });
                prop_assert!(pos_ok, "row content mismatch");
                prop_assert!(seen.iter().all(|&c| c == 1), "rows visited != once: {seen:?}");
            }
            std::fs::remove_file(&path).unwrap();
        }
    }
}
