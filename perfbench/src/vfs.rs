//! A counting [`Vfs`] passed to the durable `Db` through
//! `DurabilityOptions::vfs`: it forwards to [`StdVfs`] and counts the
//! bytes, fsyncs and checkpoints the write side performs.

use bolton_bismarck::wal::parse_segment_seq;
use bolton_bismarck::{DbResult, StdVfs, Vfs, VfsFile};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The name the checkpoint commit renames onto.
const CURRENT_FILE: &str = "CURRENT";

#[derive(Clone, Debug, Default, PartialEq)]
pub struct VfsCounts {
    /// Bytes appended to WAL segments.
    pub wal_bytes: u64,
    /// Bytes written through the vfs to any other file (CATALOG, CURRENT).
    pub other_bytes: u64,
    /// Bytes of files written outside the vfs and synced through it (the
    /// checkpoint row stores), sized when synced.
    pub synced_file_bytes: u64,
    /// Every fsync: file handles, `sync_file`, `sync_dir` and `truncate`.
    pub fsyncs: u64,
    /// Duration of each WAL segment fsync, in ns.
    pub wal_fsync_ns: Vec<u64>,
    /// Duration of each committed checkpoint, in ns.
    pub checkpoint_ns: Vec<u64>,
}

#[derive(Default)]
struct State {
    counts: VfsCounts,
    /// Start of the latest WAL fsync: a checkpoint opens by syncing the log.
    last_wal_sync: Option<Instant>,
    /// Start of the checkpoint in progress.
    checkpoint_start: Option<Instant>,
}

/// See the module docs. Clones share their counters.
#[derive(Clone, Default)]
pub struct CountingVfs {
    state: Arc<Mutex<State>>,
}

impl CountingVfs {
    pub fn counts(&self) -> VfsCounts {
        self.state.lock().expect("vfs counters").counts.clone()
    }

    pub fn reset(&self) {
        *self.state.lock().expect("vfs counters") = State::default();
    }

    fn with<T>(&self, f: impl FnOnce(&mut State) -> T) -> T {
        f(&mut self.state.lock().expect("vfs counters"))
    }

    fn wrap(&self, path: &Path, inner: Arc<dyn VfsFile>) -> Arc<dyn VfsFile> {
        let wal = path.file_name().and_then(|n| n.to_str()).and_then(parse_segment_seq).is_some();
        Arc::new(CountingFile { inner, vfs: self.clone(), wal })
    }
}

struct CountingFile {
    inner: Arc<dyn VfsFile>,
    vfs: CountingVfs,
    wal: bool,
}

impl VfsFile for CountingFile {
    fn write_all(&self, buf: &[u8]) -> DbResult<()> {
        self.inner.write_all(buf)?;
        let n = buf.len() as u64;
        self.vfs.with(|s| {
            if self.wal {
                s.counts.wal_bytes += n;
            } else {
                s.counts.other_bytes += n;
            }
        });
        Ok(())
    }

    fn sync(&self) -> DbResult<()> {
        let start = Instant::now();
        self.inner.sync()?;
        let ns = start.elapsed().as_nanos() as u64;
        self.vfs.with(|s| {
            s.counts.fsyncs += 1;
            if self.wal {
                s.counts.wal_fsync_ns.push(ns);
                s.last_wal_sync = Some(start);
            }
        });
        Ok(())
    }
}

impl Vfs for CountingVfs {
    fn create(&self, path: &Path) -> DbResult<Arc<dyn VfsFile>> {
        Ok(self.wrap(path, StdVfs.create(path)?))
    }

    fn open_append(&self, path: &Path) -> DbResult<Arc<dyn VfsFile>> {
        Ok(self.wrap(path, StdVfs.open_append(path)?))
    }

    fn rename(&self, from: &Path, to: &Path) -> DbResult<()> {
        StdVfs.rename(from, to)?;
        if to.file_name().is_some_and(|n| n == CURRENT_FILE) {
            self.with(|s| {
                if let Some(start) = s.checkpoint_start.take() {
                    s.counts.checkpoint_ns.push(start.elapsed().as_nanos() as u64);
                }
            });
        }
        Ok(())
    }

    fn truncate(&self, path: &Path, len: u64) -> DbResult<()> {
        StdVfs.truncate(path, len)?;
        self.with(|s| s.counts.fsyncs += 1);
        Ok(())
    }

    fn sync_file(&self, path: &Path) -> DbResult<()> {
        StdVfs.sync_file(path)?;
        let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
        self.with(|s| {
            s.counts.fsyncs += 1;
            s.counts.synced_file_bytes += bytes;
            // The first staged snapshot file of a checkpoint: it began
            // with the log sync just before the snapshot was written.
            if s.checkpoint_start.is_none() {
                s.checkpoint_start = Some(s.last_wal_sync.unwrap_or_else(Instant::now));
            }
        });
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> DbResult<()> {
        StdVfs.sync_dir(dir)?;
        self.with(|s| s.counts.fsyncs += 1);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> DbResult<()> {
        StdVfs.remove_file(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolton_bismarck::wal::segment_file_name;

    #[test]
    fn counts_match_a_known_write_sequence() {
        let dir = std::env::temp_dir().join(format!("perfbench-vfs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let vfs = CountingVfs::default();

        let wal = vfs.create(&dir.join(segment_file_name(1))).unwrap();
        wal.write_all(&[0; 100]).unwrap();
        wal.write_all(&[0; 28]).unwrap();
        wal.sync().unwrap();
        wal.sync().unwrap();

        // A file written outside the vfs, then synced through it, opens a
        // checkpoint; the CURRENT swap commits it.
        let store = dir.join("t.rowstore");
        std::fs::write(&store, [1u8; 4096]).unwrap();
        vfs.sync_file(&store).unwrap();
        let cur = vfs.create(&dir.join("CURRENT.tmp")).unwrap();
        cur.write_all(b"checkpoint-0\n").unwrap();
        cur.sync().unwrap();
        vfs.rename(&dir.join("CURRENT.tmp"), &dir.join(CURRENT_FILE)).unwrap();
        vfs.sync_dir(&dir).unwrap();

        let c = vfs.counts();
        assert_eq!(c.wal_bytes, 128);
        assert_eq!(c.other_bytes, 13);
        assert_eq!(c.synced_file_bytes, 4096);
        assert_eq!(c.fsyncs, 2 + 1 + 1 + 1);
        assert_eq!(c.wal_fsync_ns.len(), 2);
        assert_eq!(c.checkpoint_ns.len(), 1);

        vfs.reset();
        assert_eq!(vfs.counts(), VfsCounts::default());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
