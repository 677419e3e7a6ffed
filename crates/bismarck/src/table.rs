//! Tables: a schema (feature dimensionality) over a paged heap, with the
//! `ORDER BY RANDOM()` shuffle the Bismarck architecture performs before
//! training (Figure 1).
//!
//! A table implements [`bolton_sgd::TrainSet`], so the SGD engine and every
//! private algorithm run against it unchanged — that interchangeability *is*
//! the bolt-on integration story.
//!
//! Scans of file-backed tables read rows in place from one shared
//! read-only mapping of the heap file (`MappedRows`): no pool latch per
//! row and no decode copy. Memory tables, and file tables whose heap cannot
//! be mapped, scan through the buffer pool.

use crate::buffer::{BufferPool, PoolStats};
use crate::error::{DbError, DbResult};
use crate::heap::{Backing, HeapStorage};
use crate::page::{Page, PAGE_HEADER, PAGE_SIZE};
use bolton_data::mmap::MmapRegion;
use bolton_rng::Rng;
use bolton_sgd::chunked::ChunkedRows;
use bolton_sgd::TrainSet;
use std::sync::{Arc, Mutex};

/// Default number of buffer-pool frames for new tables (256 × 8 KiB = 2 MiB).
pub const DEFAULT_POOL_PAGES: usize = 256;

/// A table of `(features[dim], label)` rows.
pub struct Table {
    name: String,
    dim: usize,
    rows: usize,
    backing: Backing,
    // A mutex (page latch) so that read paths (scans) work through &Table
    // even when the table is shared across server sessions: the pool
    // mutates internally on every fetch. The latch is held only for the
    // duration of a single page access — never across a visit callback —
    // so concurrent readers interleave at page granularity and a frame is
    // effectively pinned (unevictable) exactly while its bytes are read.
    pool: Mutex<BufferPool>,
    /// Whether scans read the heap file's mapping rather than the pool;
    /// fixed at create, so memory tables never take the latch to find out.
    mapped: bool,
    tail_pid: Option<usize>,
    /// Highest WAL LSN applied to this table (0 = none / not durable).
    /// Maintained by the durability layer in `db.rs`; recovery uses it to
    /// know where replay left the table.
    last_lsn: u64,
}

impl Table {
    /// Creates an empty table.
    ///
    /// # Errors
    /// Propagates storage-open failures.
    ///
    /// # Panics
    /// Panics if `dim == 0` or a row would not fit in one page.
    pub fn create(
        name: impl Into<String>,
        dim: usize,
        backing: Backing,
        pool_pages: usize,
    ) -> DbResult<Self> {
        let storage = backing.open()?;
        Ok(Self::with_storage(name.into(), dim, backing, storage, pool_pages))
    }

    /// [`Table::create`] with heap-file mapping off: every scan goes
    /// through the buffer pool, whatever the platform or `BOLTON_MMAP`
    /// say. This is the pool-path twin that the mapped-scan parity tests
    /// compare against; memory tables are unaffected.
    ///
    /// # Errors
    /// Propagates storage-open failures.
    ///
    /// # Panics
    /// As [`Table::create`].
    pub fn create_unmapped(
        name: impl Into<String>,
        dim: usize,
        backing: Backing,
        pool_pages: usize,
    ) -> DbResult<Self> {
        let storage = backing.open_with_mapping(false)?;
        Ok(Self::with_storage(name.into(), dim, backing, storage, pool_pages))
    }

    fn with_storage(
        name: String,
        dim: usize,
        backing: Backing,
        storage: Box<dyn HeapStorage>,
        pool_pages: usize,
    ) -> Self {
        assert!(dim > 0, "tables need at least one feature column");
        assert!(Page::rows_per_page(dim) > 0, "row of dim {dim} does not fit in a page");
        Self {
            name,
            dim,
            rows: 0,
            backing,
            mapped: storage.maps_pages(),
            pool: Mutex::new(BufferPool::new(storage, pool_pages)),
            tail_pid: None,
            last_lsn: 0,
        }
    }

    /// Convenience: an in-memory table with the default pool size.
    pub fn in_memory(name: impl Into<String>, dim: usize) -> Self {
        Self::create(name, dim, Backing::Memory, DEFAULT_POOL_PAGES)
            .expect("in-memory table creation cannot fail")
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The backing kind this table was created with.
    pub fn backing(&self) -> &Backing {
        &self.backing
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// Buffer-pool statistics.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.lock().expect("pool latch").stats()
    }

    /// Resets buffer-pool statistics.
    pub fn reset_pool_stats(&self) {
        self.pool.lock().expect("pool latch").reset_stats();
    }

    /// Storage description (backing + pool), with how many scans the heap
    /// file's mapping has served instead of the pool.
    pub fn describe(&self) -> String {
        let pool = self.pool.lock().expect("pool latch");
        format!(
            "table '{}' dim={} rows={} [{}] mapped_scans={}",
            self.name,
            self.dim,
            self.rows,
            pool.describe(),
            pool.stats().mapped_scans
        )
    }

    /// Inserts one row.
    ///
    /// # Errors
    /// [`DbError::SchemaMismatch`] if `features.len() != dim`.
    pub fn insert(&mut self, features: &[f64], label: f64) -> DbResult<()> {
        if features.len() != self.dim {
            return Err(DbError::SchemaMismatch { expected: self.dim, got: features.len() });
        }
        let mut pool = self.pool.lock().expect("pool latch");
        let need_new_page = match self.tail_pid {
            None => true,
            Some(pid) => !pool.with_page(pid, |p| p.has_room(self.dim))?,
        };
        if need_new_page {
            let pid = pool.append_page(&Page::new())?;
            self.tail_pid = Some(pid);
        }
        let pid = self.tail_pid.expect("tail page exists");
        pool.with_page_mut(pid, |p| p.push_row(features, label))??;
        self.rows += 1;
        Ok(())
    }

    /// Inserts one row and stamps it with the WAL position `lsn` — both
    /// the table-level watermark and the touched page's frame. The
    /// durability layer calls this so every applied change carries the
    /// log position that justifies it.
    ///
    /// # Errors
    /// [`DbError::SchemaMismatch`] if `features.len() != dim`.
    pub fn insert_at_lsn(&mut self, features: &[f64], label: f64, lsn: u64) -> DbResult<()> {
        self.insert(features, label)?;
        self.note_lsn(lsn);
        Ok(())
    }

    /// Records that this table's state now reflects WAL position `lsn`,
    /// stamping the tail page's frame for the dirty-page bookkeeping.
    pub fn note_lsn(&mut self, lsn: u64) {
        self.last_lsn = self.last_lsn.max(lsn);
        if let Some(pid) = self.tail_pid {
            self.pool.lock().expect("pool latch").stamp_lsn(pid, lsn);
        }
    }

    /// Highest WAL LSN applied to this table (0 = none recorded).
    pub fn last_lsn(&self) -> u64 {
        self.last_lsn
    }

    /// Bulk insert from an iterator of `(features, label)` rows.
    pub fn insert_all<'a>(
        &mut self,
        rows: impl IntoIterator<Item = (&'a [f64], f64)>,
    ) -> DbResult<()> {
        for (x, y) in rows {
            self.insert(x, y)?;
        }
        Ok(())
    }

    fn locate(&self, rid: usize) -> DbResult<(usize, usize)> {
        if rid >= self.rows {
            return Err(DbError::RowOutOfBounds { rid, rows: self.rows });
        }
        let rpp = Page::rows_per_page(self.dim);
        Ok((rid / rpp, rid % rpp))
    }

    /// Reads row `rid` into `features_out`, returning the label.
    ///
    /// # Errors
    /// [`DbError::RowOutOfBounds`] for a bad row id.
    ///
    /// # Panics
    /// Panics if `features_out.len() != dim`.
    pub fn read_row(&self, rid: usize, features_out: &mut [f64]) -> DbResult<f64> {
        assert_eq!(features_out.len(), self.dim, "output buffer dimension mismatch");
        let (pid, slot) = self.locate(rid)?;
        self.pool.lock().expect("pool latch").with_page(pid, |p| p.read_row(slot, features_out))?
    }

    /// The rows of a mapped file-backed table as in-place views, or `None`
    /// when scans go through the pool (memory tables, mapping off or
    /// refused) — decided without the latch for memory tables.
    ///
    /// Takes the latch once to flush dirty frames, so the file holds every
    /// row for the whole scan: `&self` means the caller holds the table for
    /// reading, so no insert can run until the view is dropped.
    fn mapped_rows(&self) -> DbResult<Option<MappedRows>> {
        if !self.mapped || self.rows == 0 {
            return Ok(None);
        }
        let region = self.pool.lock().expect("pool latch").mapping()?;
        Ok(region.map(|region| MappedRows { region, rows: self.rows, dim: self.dim }))
    }

    /// Sequential full scan: `visit(rid, features, label)` per row.
    ///
    /// This is the access path of one Bismarck epoch. A mapped file-backed
    /// table hands out each row straight from the mapping. Otherwise pages
    /// stream through the pool in order, so a pool far smaller than the
    /// table still scans at full speed: each page is snapshotted into a
    /// local frame under a short-lived latch, then its rows are visited
    /// with no lock held.
    ///
    /// Either way visit callbacks may themselves scan the table (reentrant
    /// metric scans), and concurrent sessions never observe a torn page.
    pub fn scan_rows(&self, visit: &mut dyn FnMut(usize, &[f64], f64)) -> DbResult<()> {
        self.scan_range(0, self.rows, visit)
    }

    /// [`Table::scan_rows`] over the row range `[lo, hi)` — the shard
    /// shape parallel batch scoring fans out. A mapped table takes the
    /// latch once per range; the pool path once per page, with one page
    /// snapshot per page instead of per row.
    ///
    /// # Errors
    /// Propagates storage errors.
    ///
    /// # Panics
    /// Panics if `lo > hi` or `hi > row_count()`.
    pub fn scan_range(
        &self,
        lo: usize,
        hi: usize,
        visit: &mut dyn FnMut(usize, &[f64], f64),
    ) -> DbResult<()> {
        assert!(lo <= hi && hi <= self.rows, "range [{lo}, {hi}) out of {} rows", self.rows);
        if lo == hi {
            return Ok(());
        }
        if let Some(view) = self.mapped_rows()? {
            return view.scan_range(lo, hi, visit);
        }
        let rpp = Page::rows_per_page(self.dim);
        let mut buf = vec![0.0; self.dim];
        let mut snapshot = Page::new();
        for pid in (lo / rpp)..=((hi - 1) / rpp) {
            self.pool
                .lock()
                .expect("pool latch")
                .with_page(pid, |p| snapshot.bytes_mut().copy_from_slice(p.bytes()))?;
            let page_base = pid * rpp;
            let slot_lo = lo.saturating_sub(page_base);
            let slot_hi = (hi - page_base).min(snapshot.row_count());
            for slot in slot_lo..slot_hi {
                let label = snapshot.read_row(slot, &mut buf)?;
                visit(page_base + slot, &buf, label);
            }
        }
        Ok(())
    }

    /// Rewrites the table in a uniformly random order — the engine-level
    /// equivalent of `SELECT * ... ORDER BY RANDOM()` that Bismarck issues
    /// before SGD. Returns the number of rows moved.
    ///
    /// The shuffled copy uses the same backing kind (a fresh temp file for
    /// disk tables) and replaces this table's heap atomically on success.
    /// A mapped table's rows are read from the mapping, not one pool miss
    /// per row.
    pub fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) -> DbResult<usize> {
        let order = bolton_rng::random_permutation(rng, self.rows);
        let backing = match &self.backing {
            Backing::Memory => Backing::Memory,
            // Named files shuffle into a temp file too: the original path
            // keeps the pre-shuffle data (mirrors CREATE TABLE AS SELECT).
            Backing::TempFile | Backing::File(_) => Backing::TempFile,
        };
        let pool_pages = self.pool.lock().expect("pool latch").capacity();
        let storage = backing.open_with_mapping(self.mapped)?;
        let mut shuffled =
            Table::with_storage(self.name.clone(), self.dim, backing, storage, pool_pages);
        let source = self.mapped_rows()?;
        let mut buf = vec![0.0; self.dim];
        for &rid in &order {
            let (x, label) = match &source {
                Some(view) => view.row(rid)?,
                None => {
                    let label = self.read_row(rid, &mut buf)?;
                    (&buf[..], label)
                }
            };
            shuffled.insert(x, label)?;
        }
        shuffled.pool.lock().expect("pool latch").flush()?;
        let moved = shuffled.rows;
        // The rebuilt table holds the same logical state: keep the LSN
        // watermark rather than resetting it to "never logged".
        shuffled.last_lsn = self.last_lsn;
        *self = shuffled;
        Ok(moved)
    }

    /// Flushes dirty pages to storage.
    pub fn flush(&self) -> DbResult<()> {
        self.pool.lock().expect("pool latch").flush()
    }

    /// Flushes dirty pages and fsyncs the heap — used by checkpoints on
    /// named-file tables so the heap file itself is never behind the
    /// snapshot taken from it.
    pub fn flush_durable(&self) -> DbResult<()> {
        self.pool.lock().expect("pool latch").flush_and_sync()
    }

    /// Highest LSN still sitting on a dirty (unflushed) page frame.
    pub fn max_dirty_lsn(&self) -> u64 {
        self.pool.lock().expect("pool latch").max_dirty_lsn()
    }
}

impl ChunkedRows for Table {
    fn len(&self) -> usize {
        self.rows
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn chunk_len(&self) -> usize {
        // A table chunk *is* a heap page: the chunked scan's same-page runs
        // become consecutive hits on one pooled frame, so ordered scans
        // under a chunk-local permutation stream pages exactly like the
        // sequential Bismarck epoch.
        Page::rows_per_page(self.dim)
    }

    fn visit_chunk_rows(
        &self,
        chunk: usize,
        locals: &[usize],
        visit: &mut dyn FnMut(usize, &[f64], f64),
    ) {
        // The pool path, for tables whose heap is not mapped. The row
        // buffer is thread-local so the many short runs of a chunked scan
        // don't allocate. The pool latch is taken per row (as in
        // `read_row`) and released before the visit callback runs, so
        // reentrant metric scans keep working.
        thread_local! {
            static ROW_BUF: std::cell::RefCell<Vec<f64>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        let rpp = self.chunk_len();
        let mut body = |buf: &mut Vec<f64>| {
            buf.clear();
            buf.resize(self.dim, 0.0);
            for (k, &l) in locals.iter().enumerate() {
                let rid = chunk * rpp + l;
                let label = self
                    .read_row(rid, buf)
                    .unwrap_or_else(|e| panic!("scan_order: row {rid}: {e}"));
                visit(k, buf, label);
            }
        };
        ROW_BUF.with(|cell| match cell.try_borrow_mut() {
            Ok(mut buf) => body(&mut buf),
            Err(_) => body(&mut vec![0.0; self.dim]),
        });
    }
}

impl TrainSet for Table {
    fn len(&self) -> usize {
        self.rows
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn scan_order(&self, order: &[usize], visit: &mut dyn FnMut(usize, &[f64], f64)) {
        match self.mapped_rows() {
            Ok(Some(view)) => bolton_sgd::chunked::scan_order(&view, order, visit),
            Ok(None) => bolton_sgd::chunked::scan_order(self, order, visit),
            Err(e) => panic!("scan_order: {e}"),
        }
    }

    fn scan(&self, visit: &mut dyn FnMut(usize, &[f64], f64)) {
        self.scan_rows(visit).unwrap_or_else(|e| panic!("scan: {e}"));
    }
}

/// A file-backed table's rows read in place from the heap file's shared
/// mapping, for the length of one scan. A chunk is a heap page, so the view
/// plugs into [`bolton_sgd::chunked::scan_order`] like the table itself;
/// rows reach the visitor as borrowed `&[f64]` views with no latch and no
/// copy. Every access checks the page header's row count, and
/// [`MmapRegion`] bounds-checks every byte range.
struct MappedRows {
    region: Arc<MmapRegion>,
    rows: usize,
    dim: usize,
}

impl MappedRows {
    /// Rows page `pid` holds, per its header.
    fn page_rows(&self, pid: usize) -> usize {
        Page::row_count_in(self.region.bytes(pid * PAGE_SIZE, PAGE_HEADER))
    }

    /// Slot `slot` of page `pid`, whose header records `page_rows` rows.
    fn slot(&self, pid: usize, page_rows: usize, slot: usize) -> DbResult<(&[f64], f64)> {
        if slot >= page_rows {
            return Err(DbError::SlotOutOfBounds { slot, rows: page_rows });
        }
        let offset = pid * PAGE_SIZE + Page::row_offset(self.dim, slot);
        let (label, features) =
            self.region.f64s(offset, self.dim + 1).split_last().expect("a row has a label");
        Ok((features, *label))
    }

    /// Row `rid` as `(features, label)`.
    fn row(&self, rid: usize) -> DbResult<(&[f64], f64)> {
        if rid >= self.rows {
            return Err(DbError::RowOutOfBounds { rid, rows: self.rows });
        }
        let rpp = Page::rows_per_page(self.dim);
        let pid = rid / rpp;
        self.slot(pid, self.page_rows(pid), rid % rpp)
    }

    /// Visits rows `[lo, hi)` in order; `lo < hi <= rows`.
    fn scan_range(
        &self,
        lo: usize,
        hi: usize,
        visit: &mut dyn FnMut(usize, &[f64], f64),
    ) -> DbResult<()> {
        let rpp = Page::rows_per_page(self.dim);
        for pid in (lo / rpp)..=((hi - 1) / rpp) {
            let page_base = pid * rpp;
            let page_rows = self.page_rows(pid);
            for slot in lo.saturating_sub(page_base)..(hi - page_base).min(rpp) {
                let (x, y) = self.slot(pid, page_rows, slot)?;
                visit(page_base + slot, x, y);
            }
        }
        Ok(())
    }
}

impl ChunkedRows for MappedRows {
    fn len(&self) -> usize {
        self.rows
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn chunk_len(&self) -> usize {
        Page::rows_per_page(self.dim)
    }

    fn visit_chunk_rows(
        &self,
        chunk: usize,
        locals: &[usize],
        visit: &mut dyn FnMut(usize, &[f64], f64),
    ) {
        let page_rows = self.page_rows(chunk);
        for (k, &l) in locals.iter().enumerate() {
            let (x, y) = self.slot(chunk, page_rows, l).unwrap_or_else(|e| {
                panic!("scan_order: row {}: {e}", chunk * self.chunk_len() + l)
            });
            visit(k, x, y);
        }
    }

    fn prefetch_row(&self, row: usize) {
        if row < self.rows {
            let rpp = Page::rows_per_page(self.dim);
            let offset = (row / rpp) * PAGE_SIZE + Page::row_offset(self.dim, row % rpp);
            self.region.prefetch(offset, Page::row_bytes(self.dim));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(backing: Backing, pool_pages: usize, rows: usize, dim: usize) -> Table {
        let mut t = Table::create("t", dim, backing, pool_pages).unwrap();
        for i in 0..rows {
            let x: Vec<f64> = (0..dim).map(|j| (i * dim + j) as f64).collect();
            t.insert(&x, if i % 2 == 0 { 1.0 } else { -1.0 }).unwrap();
        }
        t
    }

    #[test]
    fn insert_and_read_roundtrip() {
        let t = filled(Backing::Memory, 8, 100, 3);
        assert_eq!(t.row_count(), 100);
        let mut buf = vec![0.0; 3];
        let label = t.read_row(17, &mut buf).unwrap();
        assert_eq!(buf, vec![51.0, 52.0, 53.0]);
        assert_eq!(label, -1.0);
    }

    #[test]
    fn schema_mismatch_rejected() {
        let mut t = Table::in_memory("t", 3);
        assert!(matches!(
            t.insert(&[1.0], 1.0),
            Err(DbError::SchemaMismatch { expected: 3, got: 1 })
        ));
    }

    #[test]
    fn scan_visits_all_rows_in_order() {
        let t = filled(Backing::Memory, 8, 250, 2);
        let mut rids = Vec::new();
        t.scan_rows(&mut |rid, x, _| {
            assert_eq!(x[0], (rid * 2) as f64);
            rids.push(rid);
        })
        .unwrap();
        assert_eq!(rids, (0..250).collect::<Vec<_>>());
    }

    #[test]
    fn larger_than_memory_scan_is_correct() {
        // dim=100 ⇒ 10 rows/page; 500 rows = 50 pages; pool of 3 frames.
        let t = filled(Backing::TempFile, 3, 500, 100);
        let mut count = 0usize;
        t.scan_rows(&mut |rid, x, _| {
            assert_eq!(x[5], (rid * 100 + 5) as f64);
            count += 1;
        })
        .unwrap();
        assert_eq!(count, 500);
        let stats = t.pool_stats();
        assert!(stats.evictions > 0, "pool must have evicted: {stats:?}");
    }

    #[test]
    fn random_access_matches_sequential() {
        let t = filled(Backing::TempFile, 4, 200, 10);
        let mut via_scan = vec![0.0; 200];
        t.scan_rows(&mut |rid, x, _| via_scan[rid] = x[0]).unwrap();
        let mut buf = vec![0.0; 10];
        for rid in [0, 7, 199, 42, 100] {
            t.read_row(rid, &mut buf).unwrap();
            assert_eq!(buf[0], via_scan[rid]);
        }
    }

    #[test]
    fn shuffle_is_a_permutation_of_rows() {
        let mut t = filled(Backing::Memory, 16, 300, 2);
        let mut before: Vec<f64> = Vec::new();
        t.scan_rows(&mut |_, x, _| before.push(x[0])).unwrap();
        let mut rng = bolton_rng::seeded(101);
        let moved = t.shuffle(&mut rng).unwrap();
        assert_eq!(moved, 300);
        let mut after: Vec<f64> = Vec::new();
        t.scan_rows(&mut |_, x, _| after.push(x[0])).unwrap();
        assert_ne!(before, after, "shuffle should change the order");
        let mut b = before.clone();
        let mut a = after.clone();
        b.sort_by(|p, q| p.partial_cmp(q).unwrap());
        a.sort_by(|p, q| p.partial_cmp(q).unwrap());
        assert_eq!(a, b, "shuffle must preserve the multiset of rows");
    }

    #[test]
    fn shuffle_disk_table() {
        let mut t = filled(Backing::TempFile, 3, 120, 40);
        let mut rng = bolton_rng::seeded(102);
        t.shuffle(&mut rng).unwrap();
        assert_eq!(t.row_count(), 120);
        let mut sum = 0.0;
        t.scan_rows(&mut |_, x, _| sum += x[0]).unwrap();
        // Sum of first-coordinates is invariant: Σ i·40 for i in 0..120.
        let expect: f64 = (0..120).map(|i| (i * 40) as f64).sum();
        assert_eq!(sum, expect);
    }

    #[test]
    fn trainset_impl_agrees_with_table_api() {
        let t = filled(Backing::Memory, 8, 50, 4);
        assert_eq!(TrainSet::len(&t), 50);
        assert_eq!(TrainSet::dim(&t), 4);
        let mut seen = Vec::new();
        t.scan_order(&[10, 0, 49], &mut |pos, x, _| seen.push((pos, x[0])));
        assert_eq!(seen, vec![(0, 40.0), (1, 0.0), (2, 196.0)]);
    }

    /// Whether file-backed tables scan through the heap mapping here (the
    /// platform maps and `BOLTON_MMAP` is not `off`).
    fn maps() -> bool {
        bolton_data::mmap::MMAP_SUPPORTED && !bolton_data::mmap::disabled_by_env()
    }

    /// An ordered scan under the chunk-local permutation streams pages:
    /// even a 2-frame pool over a 50-page table misses each page only once
    /// per scan — the out-of-core access pattern Figure 2b needs. Memory
    /// tables always scan through the pool, so this pins the pool path.
    #[test]
    fn chunk_local_ordered_scan_streams_pages() {
        // dim=100 ⇒ 10 rows/page; 500 rows = 50 pages; pool of 2 frames.
        let t = filled(Backing::Memory, 2, 500, 100);
        let rpp = ChunkedRows::chunk_len(&t);
        assert_eq!(rpp, 10);
        t.reset_pool_stats();
        let order = bolton_rng::chunked_permutation(&mut bolton_rng::seeded(77), 500, rpp);
        let mut count = 0usize;
        t.scan_order(&order, &mut |pos, x, _| {
            assert_eq!(x[0], (order[pos] * 100) as f64);
            count += 1;
        });
        assert_eq!(count, 500);
        let stats = t.pool_stats();
        assert_eq!(stats.misses, 50, "one fetch per page expected: {stats:?}");
    }

    /// scan_range visits exactly `[lo, hi)` for ranges that start/end
    /// mid-page, cover whole pages, or are empty — and agrees with the
    /// full scan.
    #[test]
    fn scan_range_matches_full_scan() {
        // dim=100 ⇒ 10 rows/page; 47 rows = 4 full pages + a 7-row tail.
        let t = filled(Backing::TempFile, 3, 47, 100);
        let mut full = Vec::new();
        t.scan_rows(&mut |rid, x, y| full.push((rid, x[0], y))).unwrap();
        for (lo, hi) in [(0, 47), (3, 17), (10, 20), (9, 11), (40, 47), (46, 47), (5, 5)] {
            let mut got = Vec::new();
            t.scan_range(lo, hi, &mut |rid, x, y| got.push((rid, x[0], y))).unwrap();
            assert_eq!(got, full[lo..hi], "range [{lo}, {hi})");
        }
    }

    #[test]
    #[should_panic(expected = "out of 10 rows")]
    fn scan_range_bounds_checked() {
        let t = filled(Backing::Memory, 4, 10, 2);
        let _ = t.scan_range(0, 11, &mut |_, _, _| {});
    }

    #[test]
    fn lsn_watermark_tracks_inserts_and_survives_shuffle() {
        let mut t = Table::in_memory("t", 2);
        assert_eq!(t.last_lsn(), 0);
        t.insert_at_lsn(&[1.0, 2.0], 1.0, 5).unwrap();
        t.insert_at_lsn(&[3.0, 4.0], -1.0, 9).unwrap();
        assert_eq!(t.last_lsn(), 9);
        assert_eq!(t.max_dirty_lsn(), 9);
        t.flush_durable().unwrap();
        assert_eq!(t.max_dirty_lsn(), 0, "flushed frames carry no dirty LSN");
        assert_eq!(t.last_lsn(), 9, "the table watermark is not reset by a flush");
        let mut rng = bolton_rng::seeded(7);
        t.shuffle(&mut rng).unwrap();
        assert_eq!(t.last_lsn(), 9, "shuffle preserves the watermark");
        // A stale stamp never regresses the watermark.
        t.note_lsn(3);
        assert_eq!(t.last_lsn(), 9);
    }

    #[test]
    fn row_out_of_bounds() {
        let t = filled(Backing::Memory, 4, 10, 2);
        let mut buf = vec![0.0; 2];
        assert!(matches!(t.read_row(10, &mut buf), Err(DbError::RowOutOfBounds { .. })));
    }

    #[test]
    fn pool_stats_reflect_locality() {
        let t = filled(Backing::Memory, 64, 1000, 10);
        t.reset_pool_stats();
        t.scan_rows(&mut |_, _, _| {}).unwrap();
        let stats = t.pool_stats();
        // 1000 rows at 203 rows/page (dim=10 ⇒ 88-byte rows) is 5 pages;
        // with 64 frames everything fits: sequential scan re-hits each page.
        assert_eq!(stats.misses, 0, "{stats:?}");
        assert!(stats.hits > 0);
    }

    /// The mapped twin of `chunk_local_ordered_scan_streams_pages`: the same
    /// scan of a file-backed table never touches the pool — one mapped scan,
    /// zero misses — and sees the same rows.
    #[test]
    fn chunk_local_ordered_scan_of_a_file_table_is_one_mapped_scan() {
        let t = filled(Backing::TempFile, 2, 500, 100);
        let rpp = ChunkedRows::chunk_len(&t);
        t.reset_pool_stats();
        let order = bolton_rng::chunked_permutation(&mut bolton_rng::seeded(77), 500, rpp);
        let mut count = 0usize;
        t.scan_order(&order, &mut |pos, x, y| {
            assert_eq!(x[0], (order[pos] * 100) as f64);
            assert_eq!(y, if order[pos].is_multiple_of(2) { 1.0 } else { -1.0 });
            count += 1;
        });
        assert_eq!(count, 500);
        let stats = t.pool_stats();
        if maps() {
            assert_eq!((stats.misses, stats.hits, stats.mapped_scans), (0, 0, 1), "{stats:?}");
        } else {
            assert_eq!((stats.misses, stats.mapped_scans), (50, 0), "{stats:?}");
        }
    }

    /// The mapped twin of `pool_stats_reflect_locality`: a sequential scan
    /// of a file-backed table is one mapped scan with no pool lookups.
    #[test]
    fn sequential_scan_of_a_file_table_is_one_mapped_scan() {
        let t = filled(Backing::TempFile, 64, 1000, 10);
        t.reset_pool_stats();
        let mut count = 0usize;
        t.scan_rows(&mut |rid, x, _| {
            assert_eq!(x[3], (rid * 10 + 3) as f64);
            count += 1;
        })
        .unwrap();
        assert_eq!(count, 1000);
        let stats = t.pool_stats();
        assert_eq!(stats.misses, 0, "{stats:?}");
        if maps() {
            assert_eq!((stats.hits, stats.mapped_scans), (0, 1), "{stats:?}");
            assert!(t.describe().ends_with("mapped_scans=1"), "{}", t.describe());
        } else {
            assert!(stats.hits > 0);
            assert_eq!(stats.mapped_scans, 0, "{stats:?}");
        }
    }

    /// Memory tables never take the mapped path, and an unmapped file
    /// table scans through the pool like a memory one.
    #[test]
    fn memory_and_unmapped_tables_scan_through_the_pool() {
        let mut unmapped = Table::create_unmapped("u", 10, Backing::TempFile, 4).unwrap();
        let memory = filled(Backing::Memory, 4, 300, 10);
        memory.scan_rows(&mut |_, x, y| unmapped.insert(x, y).unwrap()).unwrap();
        for t in [&memory, &unmapped] {
            t.reset_pool_stats();
            let mut rows = Vec::new();
            t.scan_order(&[5, 250, 0], &mut |_, x, y| rows.push((x[0], y)));
            t.scan_rows(&mut |_, _, _| {}).unwrap();
            assert_eq!(rows, vec![(50.0, -1.0), (2500.0, 1.0), (0.0, 1.0)]);
            let stats = t.pool_stats();
            assert_eq!(stats.mapped_scans, 0, "{stats:?}");
            assert!(stats.hits + stats.misses > 0, "{stats:?}");
        }
    }

    /// Rows still sitting in dirty pool frames are in the next mapped scan
    /// (the view flushes first), and pages appended after a scan are in
    /// the one after it (the heap remaps once the file has grown).
    #[test]
    fn mapped_scans_see_dirty_frames_and_remap_after_growth() {
        // dim=10 ⇒ 93 rows/page; every page stays resident and dirty.
        let mut t = filled(Backing::TempFile, 64, 150, 10);
        let sum = |t: &Table| {
            let mut s = 0.0;
            t.scan_rows(&mut |_, x, _| s += x[0]).unwrap();
            s
        };
        let expect = |rows: usize| (0..rows).map(|i| (i * 10) as f64).sum::<f64>();
        assert_eq!(sum(&t), expect(150));
        for i in 150..1000 {
            let x: Vec<f64> = (0..10).map(|j| (i * 10 + j) as f64).collect();
            t.insert(&x, 1.0).unwrap();
        }
        assert_eq!(sum(&t), expect(1000));
        let mut tail = Vec::new();
        t.scan_range(990, 1000, &mut |rid, x, _| tail.push((rid, x[9]))).unwrap();
        assert_eq!(tail, (990..1000).map(|i| (i, (i * 10 + 9) as f64)).collect::<Vec<_>>());
        let mut x = vec![0.0; 10];
        assert_eq!(t.read_row(999, &mut x).unwrap(), 1.0);
        assert_eq!(x[0], 9990.0);
        assert_eq!(t.pool_stats().mapped_scans, if maps() { 3 } else { 0 });
    }

    /// Shuffling a file-backed table reads its rows through the mapping and
    /// lands them in exactly the order the pool path produces.
    #[test]
    fn shuffle_of_a_mapped_file_table_matches_the_pool_path() {
        let mapped = filled(Backing::TempFile, 2, 200, 40);
        let mut unmapped = Table::create_unmapped("t", 40, Backing::TempFile, 2).unwrap();
        mapped.scan_rows(&mut |_, x, y| unmapped.insert(x, y).unwrap()).unwrap();
        let order = bolton_rng::random_permutation(&mut bolton_rng::seeded(9), 200);
        let mut shuffled = Vec::new();
        let mut mapped_scans = Vec::new();
        for mut t in [mapped, unmapped] {
            t.shuffle(&mut bolton_rng::seeded(9)).unwrap();
            let mut got = Vec::new();
            t.scan_rows(&mut |_, x, y| got.push((x[0], y))).unwrap();
            shuffled.push(got);
            mapped_scans.push(t.pool_stats().mapped_scans);
        }
        // The shuffled copy keeps its source's read path.
        assert_eq!(mapped_scans, vec![u64::from(maps()), 0]);
        let expect: Vec<(f64, f64)> =
            order.iter().map(|&i| ((i * 40) as f64, if i % 2 == 0 { 1.0 } else { -1.0 })).collect();
        assert_eq!(shuffled, vec![expect.clone(), expect]);
    }
}
