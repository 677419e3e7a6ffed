//! Chunk-granular row access — the single scan implementation behind every
//! [`TrainSet`](crate::dataset::TrainSet).
//!
//! The paper's in-RDBMS framing (Bismarck's buffer pool, Figure 2b's
//! larger-than-memory configuration) makes *paged* access the natural data
//! layout: rows live in fixed-size chunks (a heap page, a file chunk, or —
//! degenerately — one chunk holding the whole in-memory dataset), and a
//! scan pins one chunk at a time. [`ChunkedRows`] captures exactly that
//! contract, and [`scan_order`]/[`scan_order_sparse`] implement the ordered
//! [`TrainSet::scan_order`](crate::dataset::TrainSet::scan_order) visit
//! *once* over it: the order is split into maximal same-chunk runs so a
//! chunk is pinned once per run rather than once per row.
//!
//! Consumers that want sequential-I/O-friendly multi-pass training over
//! out-of-core chunks pair this with
//! [`SamplingScheme::ChunkedPermutation`](crate::engine::SamplingScheme):
//! a two-level "shuffle chunks, shuffle within each chunk" order whose
//! same-chunk runs are whole chunks, so each pass touches every chunk
//! exactly once.
//!
//! Because every backend scans through this one implementation, a row's
//! features reach the gradient kernels as the same `&[f64]` slice whether
//! they live in a `Vec`, a buffer-pool page, or an mmap-backed chunk view —
//! so training from any backend is bit-identical at a fixed seed and SIMD
//! dispatch mode (see `bolton_linalg::simd` for the lane-width contract).

use bolton_linalg::SparseVec;

/// Maximum rows per generic-scan run; bounds the index-translation buffer
/// at zero heap allocations per scan (mirrors `ShardView`'s chunking).
pub const SCAN_RUN: usize = 128;

/// How many order positions past each run's last row [`scan_order`] hints
/// [`ChunkedRows::prefetch_row`].
pub const PREFETCH_AHEAD: usize = 4;

/// Rows laid out in fixed-size chunks (the last chunk may be short).
///
/// `visit_chunk_rows` is the only data-access primitive; everything else —
/// ordered scans, shard scans, metrics — is derived from it, so a new
/// storage backend (file-backed chunk store, buffer-pool table) implements
/// one method and inherits the whole training stack.
pub trait ChunkedRows {
    /// Number of rows.
    fn len(&self) -> usize;

    /// Whether the dataset holds no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Feature dimensionality `d`.
    fn dim(&self) -> usize;

    /// Rows per full chunk (≥ 1). The final chunk holds the remainder.
    fn chunk_len(&self) -> usize;

    /// Number of chunks: `⌈len / chunk_len⌉`.
    fn num_chunks(&self) -> usize {
        self.len().div_ceil(self.chunk_len())
    }

    /// Rows held by chunk `chunk`.
    ///
    /// # Panics
    /// Panics if `chunk >= num_chunks()`.
    fn rows_in_chunk(&self, chunk: usize) -> usize {
        let chunks = self.num_chunks();
        assert!(chunk < chunks, "chunk {chunk} out of range ({chunks} chunks)");
        let cl = self.chunk_len();
        if chunk + 1 == chunks {
            self.len() - chunk * cl
        } else {
            cl
        }
    }

    /// Pins chunk `chunk` and streams the rows at the given chunk-local
    /// indices: `visit(k, features, label)` for the `k`-th entry of
    /// `locals`. The chunk (page, cache entry) need only stay resident for
    /// the duration of the call — no lifetimes escape the storage layer.
    ///
    /// # Panics
    /// Implementations panic if `chunk` or any local index is out of range.
    fn visit_chunk_rows(
        &self,
        chunk: usize,
        locals: &[usize],
        visit: &mut dyn FnMut(usize, &[f64], f64),
    );

    /// Hints that row `row` will be visited soon, so a backend that hands
    /// out rows in place (a file mapping) can start loading it while the
    /// current rows are processed. Purely advisory: the default does
    /// nothing, and implementations must ignore out-of-range rows.
    fn prefetch_row(&self, _row: usize) {}
}

/// Chunked rows that can additionally stream *sparse* rows, handing the
/// visitor each example's [`SparseVec`] without densification — the chunked
/// counterpart of [`SparseTrainSet`](crate::dataset::SparseTrainSet).
pub trait SparseChunkedRows: ChunkedRows {
    /// Like [`ChunkedRows::visit_chunk_rows`], but hands out sparse rows.
    ///
    /// # Panics
    /// Implementations panic if `chunk` or any local index is out of range.
    fn visit_chunk_rows_sparse(
        &self,
        chunk: usize,
        locals: &[usize],
        visit: &mut dyn FnMut(usize, &SparseVec, f64),
    );
}

/// Splits `order` into maximal same-chunk runs (capped at [`SCAN_RUN`]) and
/// dispatches each run through `per_run(chunk, locals, base_position)`.
fn for_each_run(
    m: usize,
    chunk_len: usize,
    order: &[usize],
    per_run: &mut dyn FnMut(usize, &[usize], usize),
) {
    debug_assert!(chunk_len >= 1, "chunk_len must be positive");
    let mut locals = [0usize; SCAN_RUN];
    let mut start = 0usize;
    while start < order.len() {
        let chunk = order[start] / chunk_len;
        let mut run = 1usize;
        while run < SCAN_RUN && start + run < order.len() && order[start + run] / chunk_len == chunk
        {
            run += 1;
        }
        for (slot, &g) in locals.iter_mut().zip(&order[start..start + run]) {
            assert!(g < m, "scan index {g} out of range ({m} rows)");
            *slot = g - chunk * chunk_len;
        }
        per_run(chunk, &locals[..run], start);
        start += run;
    }
}

/// The one ordered dense scan: visits `order`'s rows in order, pinning each
/// chunk once per same-chunk run. Backs every
/// [`TrainSet::scan_order`](crate::dataset::TrainSet::scan_order)
/// implementation in the workspace.
///
/// # Panics
/// Panics if any index in `order` is out of range.
pub fn scan_order<C: ChunkedRows + ?Sized>(
    data: &C,
    order: &[usize],
    visit: &mut dyn FnMut(usize, &[f64], f64),
) {
    if order.is_empty() {
        return;
    }
    // Degenerate single-chunk stores (the in-memory datasets) skip run
    // detection entirely: no per-row division, no index translation, one
    // pin — the engine's inner loop stays as direct as before the
    // refactor.
    if data.num_chunks() <= 1 {
        data.visit_chunk_rows(0, order, visit);
        return;
    }
    for_each_run(data.len(), data.chunk_len(), order, &mut |chunk, locals, base| {
        // Random orders make most runs one row long; hinting the row a few
        // positions ahead overlaps its memory fetch with this run's work.
        if let Some(&ahead) = order.get(base + locals.len() - 1 + PREFETCH_AHEAD) {
            data.prefetch_row(ahead);
        }
        data.visit_chunk_rows(chunk, locals, &mut |k, x, y| visit(base + k, x, y));
    });
}

/// The one ordered sparse scan; backs every
/// [`SparseTrainSet::scan_order_sparse`](crate::dataset::SparseTrainSet::scan_order_sparse)
/// implementation.
///
/// # Panics
/// Panics if any index in `order` is out of range.
pub fn scan_order_sparse<C: SparseChunkedRows + ?Sized>(
    data: &C,
    order: &[usize],
    visit: &mut dyn FnMut(usize, &SparseVec, f64),
) {
    if order.is_empty() {
        return;
    }
    if data.num_chunks() <= 1 {
        data.visit_chunk_rows_sparse(0, order, visit);
        return;
    }
    for_each_run(data.len(), data.chunk_len(), order, &mut |chunk, locals, base| {
        data.visit_chunk_rows_sparse(chunk, locals, &mut |k, x, y| visit(base + k, x, y));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy chunked store: row i has features [i, 2i] and label ±1.
    struct Toy {
        rows: usize,
        cl: usize,
        pins: std::cell::Cell<usize>,
        hints: std::cell::RefCell<Vec<usize>>,
    }

    impl Toy {
        fn new(rows: usize, cl: usize) -> Self {
            Self { rows, cl, pins: std::cell::Cell::new(0), hints: Default::default() }
        }
    }

    impl ChunkedRows for Toy {
        fn len(&self) -> usize {
            self.rows
        }
        fn dim(&self) -> usize {
            2
        }
        fn chunk_len(&self) -> usize {
            self.cl
        }
        fn visit_chunk_rows(
            &self,
            chunk: usize,
            locals: &[usize],
            visit: &mut dyn FnMut(usize, &[f64], f64),
        ) {
            self.pins.set(self.pins.get() + 1);
            assert!(chunk < self.num_chunks(), "chunk out of range");
            for (k, &l) in locals.iter().enumerate() {
                let i = chunk * self.cl + l;
                assert!(l < self.rows_in_chunk(chunk), "local out of range");
                let x = [i as f64, 2.0 * i as f64];
                visit(k, &x, if i.is_multiple_of(2) { 1.0 } else { -1.0 });
            }
        }
        fn prefetch_row(&self, row: usize) {
            self.hints.borrow_mut().push(row);
        }
    }

    /// Each run hints the row `PREFETCH_AHEAD` positions past its last row,
    /// so a one-row-per-run (random) order hints every upcoming row once.
    #[test]
    fn runs_hint_the_rows_ahead() {
        let toy = Toy::new(12, 2);
        let order = [11usize, 0, 5, 8, 2, 10, 3, 7, 1];
        scan_order(&toy, &order, &mut |_, _, _| {});
        assert_eq!(*toy.hints.borrow(), order[PREFETCH_AHEAD..]);
        // A chunk-local order has one hint per run, not per row.
        let toy = Toy::new(12, 4);
        let order: Vec<usize> = (8..12).chain(0..4).chain(4..8).collect();
        scan_order(&toy, &order, &mut |_, _, _| {});
        assert_eq!(*toy.hints.borrow(), vec![order[3 + PREFETCH_AHEAD], order[7 + PREFETCH_AHEAD]]);
    }

    #[test]
    fn scan_visits_in_order_with_positions() {
        let toy = Toy::new(10, 4);
        let order = [9usize, 1, 2, 3, 0, 8];
        let mut seen = Vec::new();
        scan_order(&toy, &order, &mut |pos, x, y| seen.push((pos, x[0], y)));
        assert_eq!(seen.len(), order.len());
        for (pos, &(seen_pos, x0, y)) in seen.iter().enumerate() {
            assert_eq!(pos, seen_pos);
            assert_eq!(x0, order[pos] as f64);
            assert_eq!(y, if order[pos].is_multiple_of(2) { 1.0 } else { -1.0 });
        }
    }

    #[test]
    fn chunk_local_order_pins_each_chunk_once() {
        let toy = Toy::new(12, 4);
        // A chunk-local order: all of chunk 2, then 0, then 1.
        let order: Vec<usize> = (8..12).chain(0..4).chain(4..8).collect();
        scan_order(&toy, &order, &mut |_, _, _| {});
        assert_eq!(toy.pins.get(), 3, "one pin per chunk-run expected");
    }

    #[test]
    fn runs_are_capped_at_scan_run() {
        // Two chunks (so the fast path doesn't apply); a long same-chunk
        // prefix must still split into SCAN_RUN-sized runs.
        let toy = Toy::new(3 * SCAN_RUN + 10, 3 * SCAN_RUN);
        let order: Vec<usize> = (0..3 * SCAN_RUN).collect();
        let mut count = 0usize;
        scan_order(&toy, &order, &mut |_, _, _| count += 1);
        assert_eq!(count, 3 * SCAN_RUN);
        assert_eq!(toy.pins.get(), 3, "runs must cap at SCAN_RUN");
    }

    /// A single-chunk store (the in-memory degenerate case) is scanned
    /// with exactly one pin and no run detection.
    #[test]
    fn single_chunk_fast_path_pins_once() {
        let toy = Toy::new(3 * SCAN_RUN, 3 * SCAN_RUN);
        let order: Vec<usize> = (0..3 * SCAN_RUN).rev().collect();
        let mut seen = Vec::new();
        scan_order(&toy, &order, &mut |pos, x, _| seen.push((pos, x[0])));
        assert_eq!(toy.pins.get(), 1, "single chunk must pin once");
        assert_eq!(seen.len(), order.len());
        for (pos, &(p, x0)) in seen.iter().enumerate() {
            assert_eq!(pos, p);
            assert_eq!(x0, order[pos] as f64);
        }
    }

    #[test]
    fn rows_in_chunk_covers_remainder() {
        let toy = Toy::new(10, 4);
        assert_eq!(toy.num_chunks(), 3);
        assert_eq!(toy.rows_in_chunk(0), 4);
        assert_eq!(toy.rows_in_chunk(2), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_rejected() {
        let toy = Toy::new(5, 2);
        scan_order(&toy, &[5], &mut |_, _, _| {});
    }
}
