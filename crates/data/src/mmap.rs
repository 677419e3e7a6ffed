//! Minimal read-only memory mapping for the row store and the Bismarck
//! heap files.
//!
//! The workspace bakes in a no-new-dependencies rule, so instead of the
//! `libc`/`memmap2` crates this module declares the two syscall wrappers it
//! needs against the C library `std` already links. Only what the readers
//! require is provided: map a whole file `PROT_READ`/`MAP_SHARED`,
//! reinterpret 8-aligned byte ranges as `&[f64]` (valid because both file
//! formats store little-endian `f64`s and every supported target here is
//! little-endian), and unmap on drop.
//!
//! Platforms without the mapping path (or big-endian targets, where the
//! on-disk little-endian floats cannot be reinterpreted in place) compile
//! [`MmapRegion::map`] to `None` and the readers keep their copying paths —
//! mapping is an optimization, never a requirement. `BOLTON_MMAP=off`
//! ([`disabled_by_env`]) turns it off at run time.

use std::fs::File;

#[cfg(all(
    any(target_os = "linux", target_os = "macos"),
    target_endian = "little",
    target_pointer_width = "64"
))]
mod sys {
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_void};

    // Identical values on Linux and macOS.
    const PROT_READ: c_int = 1;
    const MAP_SHARED: c_int = 1;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    pub fn map_readonly(file: &std::fs::File, len: usize) -> Option<(*const u8, usize)> {
        if len == 0 {
            return None;
        }
        // SAFETY: a fresh MAP_SHARED|PROT_READ mapping of a valid fd; the
        // kernel picks the address. MAP_FAILED is (size_t)-1.
        let ptr =
            unsafe { mmap(std::ptr::null_mut(), len, PROT_READ, MAP_SHARED, file.as_raw_fd(), 0) };
        if ptr as usize == usize::MAX {
            return None;
        }
        Some((ptr as *const u8, len))
    }

    pub fn unmap(ptr: *const u8, len: usize) {
        // SAFETY: `ptr`/`len` came from a successful `map_readonly` and the
        // region is unmapped exactly once (owned by `MmapRegion`).
        unsafe {
            munmap(ptr as *mut c_void, len);
        }
    }
}

/// Whether this build can memory-map store files at all.
pub const MMAP_SUPPORTED: bool = cfg!(all(
    any(target_os = "linux", target_os = "macos"),
    target_endian = "little",
    target_pointer_width = "64"
));

/// Environment variable disabling mmap-backed reads (`off` forces the
/// copying paths; anything else, or unset, allows mapping).
pub const MMAP_ENV: &str = "BOLTON_MMAP";

/// Whether `BOLTON_MMAP=off` is set. Readers check it per open, not once
/// per process, so tests and benches can toggle it between opens.
pub fn disabled_by_env() -> bool {
    std::env::var(MMAP_ENV).is_ok_and(|v| v.trim().eq_ignore_ascii_case("off"))
}

/// A read-only mapping of an entire file, unmapped on drop.
///
/// The region outlives every borrowed row view through `Arc`: decoded
/// chunks hold an `Arc<MmapRegion>`, and thread-local pins hold the chunks,
/// so a mapping stays valid for as long as anything can still read it.
pub struct MmapRegion {
    ptr: *const u8,
    len: usize,
}

// SAFETY: the region is immutable after construction (PROT_READ) and the
// pointer references kernel-managed memory not tied to any thread.
unsafe impl Send for MmapRegion {}
unsafe impl Sync for MmapRegion {}

impl MmapRegion {
    /// Maps the first `len` bytes of `file` read-only. Returns `None` when
    /// the platform has no mapping path, the file is empty, or the syscall
    /// fails — callers fall back to buffered reads.
    pub fn map(file: &File, len: usize) -> Option<Self> {
        #[cfg(all(
            any(target_os = "linux", target_os = "macos"),
            target_endian = "little",
            target_pointer_width = "64"
        ))]
        {
            sys::map_readonly(file, len).map(|(ptr, len)| Self { ptr, len })
        }
        #[cfg(not(all(
            any(target_os = "linux", target_os = "macos"),
            target_endian = "little",
            target_pointer_width = "64"
        )))]
        {
            let _ = (file, len);
            None
        }
    }

    /// Length of the mapping in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty (never true for a successful map).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `len` bytes starting at `byte_offset`.
    ///
    /// # Panics
    /// Panics if the range leaves the mapping.
    pub fn bytes(&self, byte_offset: usize, len: usize) -> &[u8] {
        let end = byte_offset + len;
        assert!(
            end <= self.len,
            "byte view [{byte_offset}, {end}) outside mapping of {}",
            self.len
        );
        // SAFETY: in-bounds (asserted), and the mapping is read-only and
        // lives as long as `&self`.
        unsafe { std::slice::from_raw_parts(self.ptr.add(byte_offset), len) }
    }

    /// Hints the CPU to start loading bytes `[byte_offset, byte_offset +
    /// len)` into cache. Advisory only: a range outside the mapping is
    /// ignored, and targets without a prefetch instruction do nothing.
    pub fn prefetch(&self, byte_offset: usize, len: usize) {
        if byte_offset.saturating_add(len) > self.len {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        for line in (byte_offset..byte_offset + len).step_by(64) {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            // SAFETY: `line` is inside the mapping (checked above), and a
            // prefetch never faults or changes memory; SSE is part of the
            // x86-64 baseline.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(self.ptr.add(line) as *const i8) };
        }
    }

    /// Reinterprets `count` `f64`s starting at `byte_offset` as a slice.
    ///
    /// # Panics
    /// Panics if the range leaves the mapping or `byte_offset` is not
    /// 8-aligned (mmap returns page-aligned bases, so 8-alignment of the
    /// offset implies 8-alignment of the pointer).
    pub fn f64s(&self, byte_offset: usize, count: usize) -> &[f64] {
        assert_eq!(byte_offset % 8, 0, "unaligned f64 view at byte {byte_offset}");
        let end = byte_offset + count * 8;
        assert!(end <= self.len, "f64 view [{byte_offset}, {end}) outside mapping of {}", self.len);
        // SAFETY: in-bounds (asserted), 8-aligned (asserted; base is
        // page-aligned), all bit patterns are valid f64s, and the mapping
        // is read-only and lives as long as `&self`.
        unsafe { std::slice::from_raw_parts(self.ptr.add(byte_offset) as *const f64, count) }
    }
}

impl Drop for MmapRegion {
    fn drop(&mut self) {
        #[cfg(all(
            any(target_os = "linux", target_os = "macos"),
            target_endian = "little",
            target_pointer_width = "64"
        ))]
        sys::unmap(self.ptr, self.len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn maps_and_reads_f64s() {
        if !MMAP_SUPPORTED {
            return;
        }
        let path =
            std::env::temp_dir().join(format!("bolton-mmap-test-{}.bin", std::process::id()));
        let values = [1.5f64, -2.25, 0.0, 1e300];
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(&[0u8; 8]).unwrap(); // an 8-byte prefix, like a header
        for v in values {
            f.write_all(&v.to_le_bytes()).unwrap();
        }
        f.sync_all().unwrap();
        drop(f);
        let file = std::fs::File::open(&path).unwrap();
        let region = MmapRegion::map(&file, 8 + values.len() * 8).expect("mapping succeeds");
        assert_eq!(region.len(), 8 + values.len() * 8);
        assert_eq!(region.f64s(8, values.len()), &values);
        assert_eq!(region.bytes(8, 8), &values[0].to_le_bytes());
        assert!(std::panic::catch_unwind(|| region.bytes(8, values.len() * 8 + 1)).is_err());
        // Prefetch hints never panic, in range or out of it.
        region.prefetch(0, region.len());
        region.prefetch(region.len(), 64);
        region.prefetch(usize::MAX, 8);
        drop(region);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unaligned_view_panics() {
        if !MMAP_SUPPORTED {
            return;
        }
        let path =
            std::env::temp_dir().join(format!("bolton-mmap-unaligned-{}.bin", std::process::id()));
        std::fs::write(&path, [0u8; 32]).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let region = MmapRegion::map(&file, 32).expect("mapping succeeds");
        assert!(std::panic::catch_unwind(|| region.f64s(4, 1)).is_err());
        assert!(std::panic::catch_unwind(|| region.f64s(32, 1)).is_err());
        drop(region);
        std::fs::remove_file(&path).unwrap();
    }
}
