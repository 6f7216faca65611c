//! The bitvector sparse-vector format used by GraphMat.
//!
//! §II-C of the paper: "The alternative bitvector format is composed of a
//! O(n)-length bitmap that signals whether or not a particular index is
//! nonzero, and an O(nnz) list of values." The matrix-driven baseline needs
//! constant-time membership tests (`is x(j) nonzero?`) while iterating over
//! all non-empty matrix columns.
//!
//! This implementation stores the bitmap as `u64` words plus a per-word rank
//! (prefix popcount) so the position of an index's value within the compact
//! value list is found in O(1).

use crate::error::SparseError;
use crate::spvec::SparseVec;
use crate::Scalar;

/// A sparse vector stored as a bitmap plus a compact list of values.
#[derive(Debug, Clone, PartialEq)]
pub struct BitVec<T> {
    len: usize,
    words: Vec<u64>,
    /// `ranks[w]` = number of set bits in `words[..w]`.
    ranks: Vec<usize>,
    /// Values of the set positions, ordered by index.
    values: Vec<T>,
}

impl<T: Scalar> BitVec<T> {
    /// Builds a bitvector from a sparse list vector. The list is already in
    /// index order, so its values copy straight into the value list.
    pub fn from_sparse(v: &SparseVec<T>) -> Self {
        let len = v.len();
        let nwords = len.div_ceil(64);
        let mut words = vec![0u64; nwords];
        let mut values = Vec::with_capacity(v.nnz());
        for (i, val) in v.iter() {
            words[i / 64] |= 1u64 << (i % 64);
            values.push(*val);
        }
        let mut ranks = vec![0usize; nwords + 1];
        for w in 0..nwords {
            ranks[w + 1] = ranks[w] + words[w].count_ones() as usize;
        }
        BitVec { len, words, ranks, values }
    }

    /// Builds a bitvector directly from `(index, value)` pairs.
    pub fn from_pairs(len: usize, pairs: Vec<(usize, T)>) -> Result<Self, SparseError> {
        Ok(Self::from_sparse(&SparseVec::from_pairs(len, pairs)?))
    }

    /// Logical dimension.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no bits are set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of set positions.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Constant-time membership test, the operation GraphMat's inner loop
    /// performs for every non-empty matrix column.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Value stored at position `i`, found by rank in O(1).
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        if !self.contains(i) {
            return None;
        }
        let word = i / 64;
        let bit = i % 64;
        let below = (self.words[word] & ((1u64 << bit) - 1)).count_ones() as usize;
        Some(&self.values[self.ranks[word] + below])
    }

    /// Iterates `(index, &value)` pairs in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> + '_ {
        let mut value_pos = 0usize;
        (0..self.len).filter_map(move |i| {
            if self.contains(i) {
                let v = &self.values[value_pos];
                value_pos += 1;
                Some((i, v))
            } else {
                None
            }
        })
    }

    /// Converts back to the list format (sorted by index).
    pub fn to_sparse(&self) -> SparseVec<T> {
        let mut out = SparseVec::new(self.len);
        for (i, v) in self.iter() {
            out.push(i, *v);
        }
        out
    }
}

/// A mutable bitmap over the index space `0..len`, the value-less sibling of
/// [`BitVec`] used as an **output mask** by the masked SpMSpV kernels.
///
/// Where [`BitVec`] is a frozen snapshot of a sparse vector (bitmap + rank +
/// values), `MaskBits` is the evolving membership set graph algorithms
/// maintain between multiplications — BFS inserts every newly visited vertex
/// after each level. Storage is the same `u64`-word bitmap, so membership
/// tests cost one shift and mask, and [`MaskBits::clear`] reuses the
/// allocation across runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskBits {
    len: usize,
    words: Vec<u64>,
    count: usize,
}

impl MaskBits {
    /// An empty mask over `0..len`.
    pub fn new(len: usize) -> Self {
        MaskBits { len, words: vec![0u64; len.div_ceil(64)], count: 0 }
    }

    /// Builds a mask with the listed positions set.
    pub fn from_indices(len: usize, indices: impl IntoIterator<Item = usize>) -> Self {
        let mut mask = Self::new(len);
        for i in indices {
            mask.insert(i);
        }
        mask
    }

    /// The raw bitmap words (`len.div_ceil(64)` of them, LSB-first). This is
    /// the wire representation of a mask: together with
    /// [`MaskBits::from_words`] it lets a transport ship the membership set
    /// without re-enumerating positions.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a mask from its raw bitmap words (the inverse of
    /// [`MaskBits::words`]). The word count must match `len.div_ceil(64)`
    /// and no bit past `len` may be set — a decoder feeding this from
    /// untrusted bytes gets an error, never an inconsistent mask.
    pub fn from_words(len: usize, words: Vec<u64>) -> Result<Self, SparseError> {
        if words.len() != len.div_ceil(64) {
            return Err(SparseError::InvalidStructure(format!(
                "mask of dimension {len} needs {} words, got {}",
                len.div_ceil(64),
                words.len()
            )));
        }
        if !len.is_multiple_of(64) {
            if let Some(&tail) = words.last() {
                if tail >> (len % 64) != 0 {
                    return Err(SparseError::InvalidStructure(format!(
                        "mask word {} has bits set past dimension {len}",
                        words.len() - 1
                    )));
                }
            }
        }
        let count = words.iter().map(|w| w.count_ones() as usize).sum();
        Ok(MaskBits { len, words, count })
    }

    /// Logical dimension of the index space.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no position is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of set positions.
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Constant-time membership test.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "mask index {i} out of range for {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets position `i`; returns `true` when it was previously unset.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.len, "mask index {i} out of range for {}", self.len);
        let w = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        if *w & bit == 0 {
            *w |= bit;
            self.count += 1;
            true
        } else {
            false
        }
    }

    /// Unsets position `i`; returns `true` when it was previously set.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(i < self.len, "mask index {i} out of range for {}", self.len);
        let w = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        if *w & bit != 0 {
            *w &= !bit;
            self.count -= 1;
            true
        } else {
            false
        }
    }

    /// Sets every listed position.
    pub fn extend(&mut self, indices: impl IntoIterator<Item = usize>) {
        for i in indices {
            self.insert(i);
        }
    }

    /// Unsets every position, keeping the allocation (so a BFS wrapper can be
    /// reused across runs without reallocating).
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
        self.count = 0;
    }

    /// Iterates the set positions in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let tz = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(w * 64 + tz)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BitVec<f64> {
        BitVec::from_pairs(200, vec![(0, 1.0), (63, 2.0), (64, 3.0), (130, 4.0), (199, 5.0)])
            .unwrap()
    }

    #[test]
    fn contains_and_get() {
        let b = sample();
        assert_eq!(b.nnz(), 5);
        assert!(b.contains(63));
        assert!(b.contains(64));
        assert!(!b.contains(65));
        assert!(!b.contains(1000));
        assert_eq!(b.get(130).copied(), Some(4.0));
        assert_eq!(b.get(131), None);
        assert_eq!(b.get(0).copied(), Some(1.0));
        assert_eq!(b.get(199).copied(), Some(5.0));
    }

    #[test]
    fn rank_lookup_matches_iteration_order() {
        let b = sample();
        let via_iter: Vec<_> = b.iter().map(|(i, &v)| (i, v)).collect();
        assert_eq!(via_iter, vec![(0, 1.0), (63, 2.0), (64, 3.0), (130, 4.0), (199, 5.0)]);
        for (i, v) in &via_iter {
            assert_eq!(b.get(*i).copied(), Some(*v));
        }
    }

    #[test]
    fn roundtrip_with_sparse_list() {
        let v = SparseVec::from_pairs(100, vec![(7, 7.0), (99, 9.0), (42, 4.2)]).unwrap();
        let b = BitVec::from_sparse(&v);
        assert!(b.to_sparse().same_entries(&v));
    }

    #[test]
    fn unsorted_input_is_handled() {
        let v = SparseVec::from_pairs(10, vec![(9, 9.0), (0, 0.5), (4, 4.0)]).unwrap();
        let b = BitVec::from_sparse(&v);
        assert_eq!(b.get(9).copied(), Some(9.0));
        assert_eq!(b.get(0).copied(), Some(0.5));
        assert_eq!(b.get(4).copied(), Some(4.0));
    }

    #[test]
    fn empty_and_full_edge_cases() {
        let empty: BitVec<f64> = BitVec::from_pairs(0, vec![]).unwrap();
        assert!(empty.is_empty());
        assert!(!empty.contains(0));

        let full = BitVec::from_pairs(3, vec![(0, 1.0), (1, 2.0), (2, 3.0)]).unwrap();
        assert_eq!(full.nnz(), 3);
        assert_eq!(full.get(2).copied(), Some(3.0));
    }

    #[test]
    fn mask_insert_remove_contains() {
        let mut m = MaskBits::new(130);
        assert!(m.is_empty());
        assert!(m.insert(0));
        assert!(m.insert(64));
        assert!(m.insert(129));
        assert!(!m.insert(64), "second insert reports already-set");
        assert_eq!(m.count(), 3);
        assert!(m.contains(64));
        assert!(!m.contains(63));
        assert!(m.remove(64));
        assert!(!m.remove(64));
        assert_eq!(m.count(), 2);
        assert!(!m.contains(64));
    }

    #[test]
    fn mask_clear_keeps_capacity_and_empties() {
        let mut m = MaskBits::from_indices(100, [1, 50, 99]);
        assert_eq!(m.count(), 3);
        m.clear();
        assert!(m.is_empty());
        assert!(!m.contains(50));
        assert_eq!(m.len(), 100);
        m.insert(50);
        assert_eq!(m.count(), 1);
    }

    #[test]
    fn mask_iter_ascending() {
        let m = MaskBits::from_indices(200, [199, 0, 63, 64, 130]);
        let got: Vec<usize> = m.iter().collect();
        assert_eq!(got, vec![0, 63, 64, 130, 199]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn mask_insert_out_of_range_panics() {
        let mut m = MaskBits::new(10);
        m.insert(10);
    }
}
