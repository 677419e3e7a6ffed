//! Heap files: ordered collections of pages, in memory or on disk.
//!
//! The disk implementation is a plain file of `PAGE_SIZE`-aligned pages with
//! explicit `read/write_page` (positioned I/O: one syscall per page), which
//! is what the buffer pool manages. It also hands out one shared read-only
//! mapping of the whole file ([`HeapStorage::mapping`]), which `&Table`
//! scans read rows from in place. Temp files are unlinked on drop so
//! scalability experiments clean up after themselves.
//!
//! A mapped heap file must be owned by one process, and nothing outside the
//! server may truncate it while it is open: reading a mapped page past the
//! end of a shrunken file raises `SIGBUS`.

use crate::error::{DbError, DbResult};
use crate::page::{Page, PAGE_SIZE};
use bolton_data::mmap::{self, MmapRegion};
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Where a heap file's pages live.
///
/// `Send` so tables (and the buffer pools that own the storage) can be
/// shared across server sessions behind locks.
pub trait HeapStorage: Send {
    /// Number of pages.
    fn page_count(&self) -> usize;

    /// Reads page `pid` into `page`.
    fn read_page(&mut self, pid: usize, page: &mut Page) -> DbResult<()>;

    /// Writes `page` at `pid`.
    fn write_page(&mut self, pid: usize, page: &Page) -> DbResult<()>;

    /// Appends a page, returning its id.
    fn append_page(&mut self, page: &Page) -> DbResult<usize>;

    /// Makes every written page durable (fsync for file-backed heaps;
    /// a no-op in memory). Checkpoints call this through
    /// [`BufferPool::flush_and_sync`](crate::buffer::BufferPool::flush_and_sync)
    /// so a named heap file is never left behind a snapshot it feeds.
    fn sync(&mut self) -> DbResult<()> {
        Ok(())
    }

    /// Whether [`HeapStorage::mapping`] can serve this heap at all. Fixed
    /// at open, so callers decide without asking the storage each time.
    fn maps_pages(&self) -> bool {
        false
    }

    /// A read-only mapping covering every page written so far, or `None`
    /// when this heap is not mapped (memory heaps, mapping switched off,
    /// or the platform refused the mapping). The mapping shows the file,
    /// not the buffer pool: callers flush dirty frames first.
    fn mapping(&mut self) -> Option<Arc<MmapRegion>> {
        None
    }

    /// Human-readable backing description (for EXPLAIN-style output).
    fn describe(&self) -> String;
}

/// In-memory heap: a vector of pages.
#[derive(Default)]
pub struct MemHeap {
    pages: Vec<Page>,
}

impl MemHeap {
    /// An empty in-memory heap.
    pub fn new() -> Self {
        Self::default()
    }
}

impl HeapStorage for MemHeap {
    fn page_count(&self) -> usize {
        self.pages.len()
    }

    fn read_page(&mut self, pid: usize, page: &mut Page) -> DbResult<()> {
        let src =
            self.pages.get(pid).ok_or(DbError::PageOutOfBounds { pid, pages: self.pages.len() })?;
        page.bytes_mut().copy_from_slice(src.bytes());
        Ok(())
    }

    fn write_page(&mut self, pid: usize, page: &Page) -> DbResult<()> {
        let pages = self.pages.len();
        let dst = self.pages.get_mut(pid).ok_or(DbError::PageOutOfBounds { pid, pages })?;
        dst.bytes_mut().copy_from_slice(page.bytes());
        Ok(())
    }

    fn append_page(&mut self, page: &Page) -> DbResult<usize> {
        self.pages.push(page.clone());
        Ok(self.pages.len() - 1)
    }

    fn describe(&self) -> String {
        format!("memory ({} pages)", self.pages.len())
    }
}

/// Disk heap: one file of consecutive pages.
pub struct FileHeap {
    file: File,
    pages: usize,
    path: PathBuf,
    delete_on_drop: bool,
    /// Whether scans may map the file (platform support, `BOLTON_MMAP`,
    /// and the opener's choice, all settled at open).
    map_allowed: bool,
    /// The current mapping; replaced by a longer one once the file has
    /// grown past it. Scans hold clones, so a replaced mapping stays valid
    /// until the last scan reading it ends.
    map: Option<Arc<MmapRegion>>,
}

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

impl FileHeap {
    /// Opens (creating if missing) a heap file at `path`. Scans read the
    /// file through a shared mapping unless the platform has none or
    /// `BOLTON_MMAP=off` is set.
    pub fn open(path: &Path) -> DbResult<Self> {
        Self::open_with_mapping(path, true)
    }

    /// Creates a fresh heap in the system temp directory, unlinked on drop.
    pub fn temp() -> DbResult<Self> {
        Self::temp_with_mapping(true)
    }

    /// [`FileHeap::open`]; with `allow_map` false, never mapped, so every
    /// read goes through the buffer pool whatever the platform or
    /// `BOLTON_MMAP` say.
    fn open_with_mapping(path: &Path, allow_map: bool) -> DbResult<Self> {
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(DbError::Corrupt(format!(
                "heap file {} has length {len}, not a multiple of the page size",
                path.display()
            )));
        }
        Ok(Self {
            file,
            pages: (len / PAGE_SIZE as u64) as usize,
            path: path.to_path_buf(),
            delete_on_drop: false,
            map_allowed: allow_map && mmap::MMAP_SUPPORTED && !mmap::disabled_by_env(),
            map: None,
        })
    }

    /// [`FileHeap::temp`], mapped only if `allow_map`.
    fn temp_with_mapping(allow_map: bool) -> DbResult<Self> {
        let n = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("bolton-heap-{}-{n}.bin", std::process::id()));
        let mut heap = Self::open_with_mapping(&path, allow_map)?;
        heap.delete_on_drop = true;
        // A pre-existing file from a crashed run would corrupt page counts.
        heap.file.set_len(0)?;
        heap.pages = 0;
        Ok(heap)
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn offset(pid: usize) -> u64 {
        (pid * PAGE_SIZE) as u64
    }
}

impl Drop for FileHeap {
    fn drop(&mut self) {
        if self.delete_on_drop {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// Reads exactly `buf.len()` bytes at `offset`.
#[cfg(unix)]
fn read_at(file: &mut File, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

/// Writes all of `buf` at `offset`.
#[cfg(unix)]
fn write_at(file: &mut File, offset: u64, buf: &[u8]) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::write_all_at(file, buf, offset)
}

#[cfg(not(unix))]
fn read_at(file: &mut File, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(buf)
}

#[cfg(not(unix))]
fn write_at(file: &mut File, offset: u64, buf: &[u8]) -> std::io::Result<()> {
    use std::io::{Seek, SeekFrom, Write};
    file.seek(SeekFrom::Start(offset))?;
    file.write_all(buf)
}

impl HeapStorage for FileHeap {
    fn page_count(&self) -> usize {
        self.pages
    }

    fn read_page(&mut self, pid: usize, page: &mut Page) -> DbResult<()> {
        if pid >= self.pages {
            return Err(DbError::PageOutOfBounds { pid, pages: self.pages });
        }
        read_at(&mut self.file, Self::offset(pid), page.bytes_mut())?;
        Ok(())
    }

    fn write_page(&mut self, pid: usize, page: &Page) -> DbResult<()> {
        if pid >= self.pages {
            return Err(DbError::PageOutOfBounds { pid, pages: self.pages });
        }
        write_at(&mut self.file, Self::offset(pid), page.bytes())?;
        Ok(())
    }

    fn append_page(&mut self, page: &Page) -> DbResult<usize> {
        write_at(&mut self.file, Self::offset(self.pages), page.bytes())?;
        self.pages += 1;
        Ok(self.pages - 1)
    }

    fn sync(&mut self) -> DbResult<()> {
        self.file.sync_all()?;
        Ok(())
    }

    fn maps_pages(&self) -> bool {
        self.map_allowed
    }

    fn mapping(&mut self) -> Option<Arc<MmapRegion>> {
        let len = self.pages * PAGE_SIZE;
        if !self.map_allowed || len == 0 {
            return None;
        }
        if self.map.as_ref().is_none_or(|m| m.len() < len) {
            // Pages are only ever appended, so a longer mapping of the same
            // file serves every page the old one did.
            self.map = MmapRegion::map(&self.file, len).map(Arc::new);
        }
        self.map.clone()
    }

    fn describe(&self) -> String {
        format!("disk {} ({} pages)", self.path.display(), self.pages)
    }
}

/// How a table's heap is backed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Backing {
    /// Pages held in RAM.
    Memory,
    /// Pages in an unlinked temp file (the "larger than memory" experiments).
    TempFile,
    /// Pages in a named file.
    File(PathBuf),
}

impl Backing {
    /// Instantiates the storage.
    pub fn open(&self) -> DbResult<Box<dyn HeapStorage>> {
        self.open_with_mapping(true)
    }

    /// [`Backing::open`]; with `allow_map` false, file heaps are never
    /// mapped (the pool-path twin that mapped-scan parity tests compare
    /// against).
    pub(crate) fn open_with_mapping(&self, allow_map: bool) -> DbResult<Box<dyn HeapStorage>> {
        Ok(match self {
            Backing::Memory => Box::new(MemHeap::new()),
            Backing::TempFile => Box::new(FileHeap::temp_with_mapping(allow_map)?),
            Backing::File(path) => Box::new(FileHeap::open_with_mapping(path, allow_map)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(storage: &mut dyn HeapStorage) {
        let mut page = Page::new();
        page.push_row(&[1.0, 2.0], 1.0).unwrap();
        let pid = storage.append_page(&page).unwrap();
        assert_eq!(pid, 0);
        let mut page2 = Page::new();
        page2.push_row(&[3.0, 4.0], -1.0).unwrap();
        assert_eq!(storage.append_page(&page2).unwrap(), 1);
        assert_eq!(storage.page_count(), 2);

        let mut read = Page::new();
        storage.read_page(1, &mut read).unwrap();
        let mut buf = vec![0.0; 2];
        assert_eq!(read.read_row(0, &mut buf).unwrap(), -1.0);
        assert_eq!(buf, vec![3.0, 4.0]);

        // Overwrite page 0 and read it back.
        storage.write_page(0, &page2).unwrap();
        storage.read_page(0, &mut read).unwrap();
        assert_eq!(read.read_row(0, &mut buf).unwrap(), -1.0);

        assert!(matches!(storage.read_page(9, &mut read), Err(DbError::PageOutOfBounds { .. })));
    }

    #[test]
    fn mem_heap_roundtrip() {
        roundtrip(&mut MemHeap::new());
    }

    #[test]
    fn file_heap_roundtrip() {
        let mut heap = FileHeap::temp().unwrap();
        roundtrip(&mut heap);
    }

    #[test]
    fn temp_file_is_deleted_on_drop() {
        let path;
        {
            let heap = FileHeap::temp().unwrap();
            path = heap.path().to_path_buf();
            assert!(path.exists());
        }
        assert!(!path.exists());
    }

    #[test]
    fn file_heap_persists_across_reopen() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("bolton-test-heap-{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut heap = FileHeap::open(&path).unwrap();
            let mut page = Page::new();
            page.push_row(&[9.0], 1.0).unwrap();
            heap.append_page(&page).unwrap();
        }
        {
            let mut heap = FileHeap::open(&path).unwrap();
            assert_eq!(heap.page_count(), 1);
            let mut page = Page::new();
            heap.read_page(0, &mut page).unwrap();
            let mut buf = vec![0.0; 1];
            assert_eq!(page.read_row(0, &mut buf).unwrap(), 1.0);
            assert_eq!(buf[0], 9.0);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_length_detected() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("bolton-corrupt-{}.bin", std::process::id()));
        std::fs::write(&path, b"short").unwrap();
        assert!(matches!(FileHeap::open(&path), Err(DbError::Corrupt(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn backing_open_variants() {
        assert!(Backing::Memory.open().is_ok());
        assert!(Backing::TempFile.open().is_ok());
    }

    #[test]
    fn sync_succeeds_on_both_backings() {
        let mut mem = MemHeap::new();
        mem.sync().unwrap();
        let mut file = FileHeap::temp().unwrap();
        let mut page = Page::new();
        page.push_row(&[1.0], 1.0).unwrap();
        file.append_page(&page).unwrap();
        file.sync().unwrap();
    }

    fn maps() -> bool {
        mmap::MMAP_SUPPORTED && !mmap::disabled_by_env()
    }

    fn page_with(value: f64) -> Page {
        let mut page = Page::new();
        page.push_row(&[value], 1.0).unwrap();
        page
    }

    /// The first feature of page `pid`'s first row, read from a mapping.
    fn mapped_value(region: &MmapRegion, pid: usize) -> f64 {
        region.f64s(pid * PAGE_SIZE + Page::row_offset(1, 0), 1)[0]
    }

    #[test]
    fn mapping_covers_appended_pages_and_grows_with_the_file() {
        let mut heap = FileHeap::temp().unwrap();
        assert!(heap.mapping().is_none(), "an empty heap has nothing to map");
        heap.append_page(&page_with(1.0)).unwrap();
        let Some(first) = heap.mapping() else {
            assert!(!maps(), "mapping is on, so a non-empty heap maps");
            return;
        };
        assert_eq!(first.len(), PAGE_SIZE);
        assert_eq!(mapped_value(&first, 0), 1.0);
        // No growth: the same mapping is handed out again.
        assert!(Arc::ptr_eq(&first, &heap.mapping().unwrap()));
        heap.append_page(&page_with(2.0)).unwrap();
        heap.write_page(0, &page_with(3.0)).unwrap();
        let second = heap.mapping().unwrap();
        assert_eq!(second.len(), 2 * PAGE_SIZE);
        assert_eq!((mapped_value(&second, 0), mapped_value(&second, 1)), (3.0, 2.0));
        // The old mapping stays readable (scans may still hold it) and,
        // being shared, shows writes made after it was taken.
        assert_eq!(mapped_value(&first, 0), 3.0);
    }

    #[test]
    fn reopened_file_heap_maps_its_existing_pages() {
        let path =
            std::env::temp_dir().join(format!("bolton-map-reopen-{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut heap = FileHeap::open(&path).unwrap();
            for v in [4.0, 5.0, 6.0] {
                heap.append_page(&page_with(v)).unwrap();
            }
            heap.sync().unwrap();
        }
        let mut heap = FileHeap::open(&path).unwrap();
        assert_eq!(heap.maps_pages(), maps());
        if let Some(region) = heap.mapping() {
            assert_eq!(region.len(), 3 * PAGE_SIZE);
            let values: Vec<f64> = (0..3).map(|pid| mapped_value(&region, pid)).collect();
            assert_eq!(values, vec![4.0, 5.0, 6.0]);
            assert_eq!(Page::row_count_in(region.bytes(2 * PAGE_SIZE, 8)), 1);
        }
        drop(heap);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unmapped_and_memory_heaps_never_map() {
        let mut mem = MemHeap::new();
        mem.append_page(&page_with(1.0)).unwrap();
        assert!(!mem.maps_pages());
        assert!(mem.mapping().is_none());
        let mut file = FileHeap::temp_with_mapping(false).unwrap();
        file.append_page(&page_with(1.0)).unwrap();
        assert!(!file.maps_pages());
        assert!(file.mapping().is_none());
        assert!(!Backing::TempFile.open_with_mapping(false).unwrap().maps_pages());
        assert_eq!(Backing::TempFile.open().unwrap().maps_pages(), maps());
    }
}
