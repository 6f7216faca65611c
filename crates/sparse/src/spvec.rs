//! Sparse vectors in list format — the vector format of vector-driven
//! SpMSpV algorithms.
//!
//! The "list" format of §II-C: a compact array of `(index, value)` pairs plus
//! the logical dimension. The paper lets the list be kept sorted or unsorted
//! (Figure 2 compares the two); this workspace keeps one order. A
//! [`SparseVec`]'s indices are **strictly ascending** — sorted and unique —
//! by construction: every constructor checks it in the pass that checks
//! bounds, so no consumer sorts, deduplicates or branches on the order.

use std::ops::Range;

use crate::error::SparseError;
use crate::Scalar;

/// A sparse vector stored as parallel `indices`/`values` arrays, indices
/// strictly ascending and below `len`.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseVec<T> {
    len: usize,
    indices: Vec<usize>,
    values: Vec<T>,
}

/// Checks the list-format invariant in one pass: every index below `len`
/// and above its predecessor.
fn check_ascending(indices: &[usize], len: usize) -> Result<(), SparseError> {
    // `next` is the smallest index the next entry may carry.
    let mut next = 0usize;
    for &i in indices {
        if i >= len {
            return Err(SparseError::VectorIndexOutOfBounds { index: i, len });
        }
        if i < next {
            return Err(SparseError::InvalidStructure(format!(
                "index {i} repeats or descends (indices must be strictly ascending)"
            )));
        }
        next = i + 1;
    }
    Ok(())
}

impl<T: Scalar> SparseVec<T> {
    /// An empty sparse vector of logical dimension `len`.
    pub fn new(len: usize) -> Self {
        SparseVec { len, indices: Vec::new(), values: Vec::new() }
    }

    /// Builds a vector from `(index, value)` pairs in any order: sorts them
    /// by index, then rejects out-of-bounds or duplicate indices.
    pub fn from_pairs(len: usize, mut pairs: Vec<(usize, T)>) -> Result<Self, SparseError> {
        pairs.sort_unstable_by_key(|&(i, _)| i);
        let (indices, values) = pairs.into_iter().unzip();
        Self::from_parts(len, indices, values)
    }

    /// Builds a vector from raw parallel arrays, rejecting a length
    /// mismatch and any index that is out of bounds or not strictly above
    /// its predecessor (one O(nnz) pass).
    pub fn from_parts(
        len: usize,
        indices: Vec<usize>,
        values: Vec<T>,
    ) -> Result<Self, SparseError> {
        if indices.len() != values.len() {
            return Err(SparseError::InvalidStructure(format!(
                "indices ({}) and values ({}) differ in length",
                indices.len(),
                values.len()
            )));
        }
        check_ascending(&indices, len)?;
        Ok(SparseVec { len, indices, values })
    }

    /// Logical dimension `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the vector stores no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Number of stored entries (`nnz(x)`, the paper's `f`).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Borrow of the index array.
    #[inline]
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Borrow of the value array.
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Iterates over `(index, &value)` pairs in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> + '_ {
        self.indices.iter().copied().zip(self.values.iter())
    }

    /// Appends an entry after the last one.
    ///
    /// # Panics
    ///
    /// When `index` is out of bounds or not above the last stored index.
    pub fn push(&mut self, index: usize, value: T) {
        assert!(
            index < self.len && self.indices.last().is_none_or(|&last| last < index),
            "push of index {index} after {:?}: out of bounds or not ascending (length {})",
            self.indices.last(),
            self.len
        );
        self.indices.push(index);
        self.values.push(value);
    }

    /// Whether the stored indices are strictly ascending: always, since
    /// every constructor enforces it.
    pub fn is_sorted(&self) -> bool {
        true
    }

    /// Sorts the entries by index: a no-op, since they always are.
    pub fn sort_by_index(&mut self) {}

    /// A copy in index order: a plain clone, since the entries always are.
    pub fn sorted(&self) -> Self {
        self.clone()
    }

    /// Value at logical position `i`, if stored. O(log nnz).
    pub fn get(&self, i: usize) -> Option<&T> {
        self.indices.binary_search(&i).ok().map(|k| &self.values[k])
    }

    /// Removes all entries but keeps the allocation, mirroring the paper's
    /// advice to reuse workspace across iterative algorithms such as BFS.
    pub fn clear(&mut self) {
        self.indices.clear();
        self.values.clear();
    }

    /// Keeps only the entries for which the predicate returns `true`.
    pub fn retain(&mut self, mut pred: impl FnMut(usize, &T) -> bool) {
        let mut write = 0usize;
        for read in 0..self.nnz() {
            if pred(self.indices[read], &self.values[read]) {
                self.indices[write] = self.indices[read];
                self.values[write] = self.values[read];
                write += 1;
            }
        }
        self.indices.truncate(write);
        self.values.truncate(write);
    }

    /// Consumes the vector, returning `(len, indices, values)`.
    pub fn into_parts(self) -> (usize, Vec<usize>, Vec<T>) {
        (self.len, self.indices, self.values)
    }

    /// Extracts the entries whose indices fall in `range`, re-based to the
    /// range start: an entry `(i, v)` with `range.start <= i < range.end`
    /// becomes `(i - range.start, v)` in a vector of logical dimension
    /// `range.len()`. The entries in `range` are one contiguous run of the
    /// ascending index array, found by two binary searches.
    ///
    /// This is the frontier-scatter primitive of 1D column-partitioned
    /// SpMSpV (CombBLAS-style): a shard owning columns `[lo, hi)` of the
    /// matrix receives exactly `x.slice_remap(lo..hi)` as its local input.
    ///
    /// # Panics
    ///
    /// When the range is decreasing or extends past [`SparseVec::len`].
    pub fn slice_remap(&self, range: Range<usize>) -> SparseVec<T> {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "slice_remap range {range:?} out of bounds for length {}",
            self.len
        );
        let run = run_in(&self.indices, &range);
        SparseVec {
            len: range.end - range.start,
            indices: self.indices[run.clone()].iter().map(|&i| i - range.start).collect(),
            values: self.values[run].to_vec(),
        }
    }
}

/// Positions in the ascending `indices` of the entries that fall in `range`.
fn run_in(indices: &[usize], range: &Range<usize>) -> Range<usize> {
    let lo = indices.partition_point(|&i| i < range.start);
    lo..lo + indices[lo..].partition_point(|&i| i < range.end)
}

impl<T: Scalar + PartialOrd> SparseVec<T> {
    /// Same dimension, indices and values — `==`, named for the tests that
    /// compare kernels entry by entry.
    pub fn same_entries(&self, other: &Self) -> bool {
        self == other
    }
}

impl SparseVec<f64> {
    /// Like [`SparseVec::same_entries`] but comparing floating-point values
    /// with a relative tolerance.
    ///
    /// Parallel SpMSpV algorithms add the products that collide on one output
    /// row in a nondeterministic (or at least different) order, so two
    /// correct implementations agree only up to floating-point rounding; this
    /// is the comparison every cross-algorithm test uses.
    pub fn approx_same_entries(&self, other: &Self, rel_tol: f64) -> bool {
        self.len == other.len
            && self.indices == other.indices
            && self.values.iter().zip(&other.values).all(|(&x, &y)| {
                let scale = x.abs().max(y.abs()).max(1.0);
                (x - y).abs() <= rel_tol * scale
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_same_entries_tolerates_rounding() {
        let a = SparseVec::from_pairs(4, vec![(1, 0.1 + 0.2), (3, 1.0)]).unwrap();
        let b = SparseVec::from_pairs(4, vec![(3, 1.0), (1, 0.3)]).unwrap();
        assert!(a.approx_same_entries(&b, 1e-12));
        let c = SparseVec::from_pairs(4, vec![(3, 1.0), (1, 0.31)]).unwrap();
        assert!(!a.approx_same_entries(&c, 1e-12));
        let d = SparseVec::from_pairs(4, vec![(2, 0.3), (3, 1.0)]).unwrap();
        assert!(!a.approx_same_entries(&d, 1e-12));
    }

    #[test]
    fn from_pairs_validates_bounds_and_duplicates() {
        assert!(SparseVec::from_pairs(4, vec![(0, 1.0), (5, 2.0)]).is_err());
        assert!(SparseVec::from_pairs(4, vec![(1, 1.0), (1, 2.0)]).is_err());
        let v = SparseVec::from_pairs(4, vec![(3, 1.0), (1, 2.0)]).unwrap();
        assert_eq!(v.indices(), &[1, 3], "pairs are sorted by index");
        assert_eq!(v.values(), &[2.0, 1.0], "values travel with their indices");
    }

    #[test]
    fn sort_and_get() {
        let mut v = SparseVec::from_pairs(10, vec![(7, 7.0), (2, 2.0), (5, 5.0)]).unwrap();
        assert_eq!(v.get(5).copied(), Some(5.0));
        let before = v.clone();
        v.sort_by_index();
        assert_eq!(v, before, "already in index order");
        assert_eq!(v.indices(), &[2, 5, 7]);
        assert_eq!(v.values(), &[2.0, 5.0, 7.0]);
        assert_eq!(v.get(7).copied(), Some(7.0));
        assert_eq!(v.get(3), None);
    }

    #[test]
    fn same_entries_ignores_order() {
        let a = SparseVec::from_pairs(9, vec![(8, 1.0), (0, 2.0)]).unwrap();
        let b = SparseVec::from_pairs(9, vec![(0, 2.0), (8, 1.0)]).unwrap();
        let c = SparseVec::from_pairs(9, vec![(0, 2.0), (7, 1.0)]).unwrap();
        assert!(a.same_entries(&b));
        assert!(!a.same_entries(&c));
    }

    #[test]
    fn retain_and_clear() {
        let mut v = SparseVec::from_pairs(10, vec![(1, 1.0), (2, -2.0), (3, 3.0)]).unwrap();
        v.retain(|_, &val| val > 0.0);
        assert_eq!(v.indices(), &[1, 3]);
        v.clear();
        assert!(v.is_empty());
        assert_eq!(v.len(), 10);
    }

    #[test]
    fn from_parts_checks_lengths_and_bounds() {
        assert!(SparseVec::from_parts(3, vec![0, 1], vec![1.0]).is_err());
        assert!(SparseVec::from_parts(3, vec![0, 9], vec![1.0, 2.0]).is_err());
        assert!(SparseVec::from_parts(3, vec![0, 2], vec![1.0, 2.0]).is_ok());
        // Descending and repeated indices break the invariant.
        assert!(SparseVec::from_parts(3, vec![2, 0], vec![1.0, 2.0]).is_err());
        assert!(SparseVec::from_parts(3, vec![1, 1], vec![1.0, 2.0]).is_err());
    }

    #[test]
    #[should_panic(expected = "not ascending")]
    fn push_rejects_a_repeated_index() {
        let mut v = SparseVec::new(5);
        v.push(3, 1.0);
        v.push(3, 2.0);
    }

    #[test]
    fn slice_remap_rebases_and_preserves_order() {
        let v = SparseVec::from_pairs(10, vec![(7, 7.0), (2, 2.0), (5, 5.0), (4, 4.0)]).unwrap();
        let s = v.slice_remap(4..8);
        assert_eq!(s.len(), 4);
        // 4, 5, 7 survive in index order, re-based.
        assert_eq!(s.indices(), &[0, 1, 3]);
        assert_eq!(s.values(), &[4.0, 5.0, 7.0]);
        // Empty and full ranges.
        assert_eq!(v.slice_remap(0..0).len(), 0);
        assert_eq!(v.slice_remap(0..10).nnz(), v.nnz());
        assert!(v.slice_remap(8..10).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_remap_rejects_out_of_range() {
        let v = SparseVec::from_pairs(4, vec![(1, 1.0)]).unwrap();
        let _ = v.slice_remap(2..5);
    }

    #[test]
    fn sorted_returns_copy_without_mutating_original() {
        let v = SparseVec::from_pairs(6, vec![(5, 5.0), (0, 0.5)]).unwrap();
        let s = v.sorted();
        assert_eq!(s, v);
        assert_eq!(v.indices(), &[0, 5]);
    }
}
