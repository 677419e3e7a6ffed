//! Fixed-size pages holding fixed-width training rows.
//!
//! A row is `dim` feature doubles followed by one label double, serialized
//! little-endian. The page header stores the row count; rows pack densely
//! after it. Fixed-width rows keep the row-id ↔ (page, slot) mapping a pure
//! arithmetic function, which the permuted scans rely on.

use crate::error::{DbError, DbResult};

/// Page size in bytes (PostgreSQL's default, which Bismarck runs on).
pub const PAGE_SIZE: usize = 8192;

/// Bytes reserved at the head of each page (row count + padding).
pub const PAGE_HEADER: usize = 8;

/// One 8 KiB page.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page").field("rows", &self.row_count()).finish()
    }
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    /// A fresh empty page.
    pub fn new() -> Self {
        Self { data: Box::new([0u8; PAGE_SIZE]) }
    }

    /// Bytes one row occupies for a `dim`-feature schema.
    pub const fn row_bytes(dim: usize) -> usize {
        (dim + 1) * 8
    }

    /// Rows a page can hold for a `dim`-feature schema.
    pub const fn rows_per_page(dim: usize) -> usize {
        (PAGE_SIZE - PAGE_HEADER) / Self::row_bytes(dim)
    }

    /// Byte offset of row `slot` within a page of a `dim`-feature schema.
    pub const fn row_offset(dim: usize, slot: usize) -> usize {
        PAGE_HEADER + slot * Self::row_bytes(dim)
    }

    /// The row count recorded in a page image's header; `header` holds the
    /// page's first [`PAGE_HEADER`] bytes.
    pub fn row_count_in(header: &[u8]) -> usize {
        u32::from_le_bytes(header[0..4].try_into().expect("4-byte row count")) as usize
    }

    /// Number of rows currently stored.
    pub fn row_count(&self) -> usize {
        Self::row_count_in(&self.data[..PAGE_HEADER])
    }

    fn set_row_count(&mut self, n: usize) {
        self.data[0..4].copy_from_slice(&(n as u32).to_le_bytes());
    }

    /// Whether a row of the given schema still fits.
    pub fn has_room(&self, dim: usize) -> bool {
        self.row_count() < Self::rows_per_page(dim)
    }

    /// Appends a row. Returns the slot index.
    ///
    /// # Errors
    /// [`DbError::RowTooLarge`] if even an empty page cannot hold the row;
    /// [`DbError::SlotOutOfBounds`] if the page is full.
    pub fn push_row(&mut self, features: &[f64], label: f64) -> DbResult<usize> {
        let dim = features.len();
        let capacity = Self::rows_per_page(dim);
        if capacity == 0 {
            return Err(DbError::RowTooLarge { dim });
        }
        let slot = self.row_count();
        if slot >= capacity {
            return Err(DbError::SlotOutOfBounds { slot, rows: capacity });
        }
        let mut offset = Self::row_offset(dim, slot);
        for &v in features {
            self.data[offset..offset + 8].copy_from_slice(&v.to_le_bytes());
            offset += 8;
        }
        self.data[offset..offset + 8].copy_from_slice(&label.to_le_bytes());
        self.set_row_count(slot + 1);
        Ok(slot)
    }

    /// Reads the row at `slot` into `features_out`, returning the label.
    ///
    /// # Errors
    /// [`DbError::SlotOutOfBounds`] for a bad slot.
    ///
    /// # Panics
    /// Panics if `features_out.len()` disagrees with the schema the page was
    /// written with (callers own the schema; pages are schema-less bytes).
    pub fn read_row(&self, slot: usize, features_out: &mut [f64]) -> DbResult<f64> {
        let dim = features_out.len();
        if slot >= self.row_count() {
            return Err(DbError::SlotOutOfBounds { slot, rows: self.row_count() });
        }
        let mut offset = Self::row_offset(dim, slot);
        for v in features_out.iter_mut() {
            *v =
                f64::from_le_bytes(self.data[offset..offset + 8].try_into().expect("8-byte slice"));
            offset += 8;
        }
        let label =
            f64::from_le_bytes(self.data[offset..offset + 8].try_into().expect("8-byte slice"));
        Ok(label)
    }

    /// Resets the page to empty (bytes retained, count zeroed).
    pub fn clear(&mut self) {
        self.set_row_count(0);
    }

    /// Raw bytes (for the heap file).
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    /// Mutable raw bytes (for the heap file).
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_capacity_math() {
        // dim=50: row = 408 bytes; (8192-8)/408 = 20 rows.
        assert_eq!(Page::row_bytes(50), 408);
        assert_eq!(Page::rows_per_page(50), 20);
        // Degenerate: a row wider than a page.
        assert_eq!(Page::rows_per_page(2000), 0);
    }

    #[test]
    fn push_then_read_roundtrip() {
        let mut page = Page::new();
        let rows = [
            (vec![1.0, -2.5, 3.25], 1.0),
            (vec![0.0, 0.5, -0.5], -1.0),
            (vec![f64::MIN_POSITIVE, 1e300, -1e-300], 1.0),
        ];
        for (i, (x, y)) in rows.iter().enumerate() {
            assert_eq!(page.push_row(x, *y).unwrap(), i);
        }
        assert_eq!(page.row_count(), 3);
        let mut buf = vec![0.0; 3];
        for (i, (x, y)) in rows.iter().enumerate() {
            let label = page.read_row(i, &mut buf).unwrap();
            assert_eq!(&buf, x);
            assert_eq!(label, *y);
        }
    }

    #[test]
    fn page_fills_to_exact_capacity() {
        let dim = 100;
        let cap = Page::rows_per_page(dim);
        let mut page = Page::new();
        let x = vec![0.25; dim];
        for _ in 0..cap {
            page.push_row(&x, 1.0).unwrap();
        }
        assert!(matches!(page.push_row(&x, 1.0), Err(DbError::SlotOutOfBounds { .. })));
    }

    #[test]
    fn oversized_row_is_rejected() {
        let mut page = Page::new();
        let x = vec![0.0; 2000];
        assert!(matches!(page.push_row(&x, 1.0), Err(DbError::RowTooLarge { .. })));
    }

    #[test]
    fn read_bad_slot_fails() {
        let page = Page::new();
        let mut buf = vec![0.0; 2];
        assert!(matches!(page.read_row(0, &mut buf), Err(DbError::SlotOutOfBounds { .. })));
    }

    #[test]
    fn clear_resets_count() {
        let mut page = Page::new();
        page.push_row(&[1.0], 1.0).unwrap();
        page.clear();
        assert_eq!(page.row_count(), 0);
        assert!(page.has_room(1));
    }

    #[test]
    fn bytes_roundtrip_through_copy() {
        let mut page = Page::new();
        page.push_row(&[7.0, 8.0], -1.0).unwrap();
        let mut copy = Page::new();
        copy.bytes_mut().copy_from_slice(page.bytes());
        let mut buf = vec![0.0; 2];
        assert_eq!(copy.read_row(0, &mut buf).unwrap(), -1.0);
        assert_eq!(buf, vec![7.0, 8.0]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any batch of rows that fits in one page round-trips exactly,
        /// including non-finite and subnormal values (pages are raw bits).
        #[test]
        fn page_roundtrips_arbitrary_rows(
            dim in 1usize..64,
            raw_rows in proptest::collection::vec(
                (proptest::collection::vec(proptest::num::f64::ANY, 0..64), proptest::num::f64::ANY),
                1..12,
            ),
        ) {
            let mut page = Page::new();
            let capacity = Page::rows_per_page(dim);
            let mut written: Vec<(Vec<f64>, f64)> = Vec::new();
            for (values, label) in raw_rows {
                if written.len() == capacity.min(12) {
                    break;
                }
                // Resize the row to the page's schema width.
                let mut row = values;
                row.resize(dim, 0.0);
                page.push_row(&row, label).unwrap();
                written.push((row, label));
            }
            prop_assert_eq!(page.row_count(), written.len());
            let mut buf = vec![0.0; dim];
            for (slot, (row, label)) in written.iter().enumerate() {
                let got_label = page.read_row(slot, &mut buf).unwrap();
                // Bit-exact comparison (NaN-safe).
                prop_assert_eq!(got_label.to_bits(), label.to_bits());
                for (a, b) in buf.iter().zip(row.iter()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }

        /// Capacity arithmetic: rows_per_page never overflows the page.
        #[test]
        fn capacity_fits_in_page(dim in 1usize..2000) {
            let capacity = Page::rows_per_page(dim);
            prop_assert!(PAGE_HEADER + capacity * Page::row_bytes(dim) <= PAGE_SIZE);
            // One more row would overflow.
            prop_assert!(PAGE_HEADER + (capacity + 1) * Page::row_bytes(dim) > PAGE_SIZE);
        }
    }
}
