//! Bitmaps over an index space: the bitvector format GraphMat and pull read,
//! and the output mask the masked kernels consult.
//!
//! §II-C of the paper: "The alternative bitvector format is composed of a
//! O(n)-length bitmap that signals whether or not a particular index is
//! nonzero, and an O(nnz) list of values." [`FrontierBits`] is that bitmap
//! over a [`SparseVec`](crate::SparseVec)'s indices, plus a per-word rank
//! (prefix popcount) so an index's position in the vector's own value list
//! is found in O(1). It holds no values: the vector's `values()` is the
//! O(nnz) list.

use crate::error::SparseError;

/// A reusable bitvector over the indices of one sparse vector at a time:
/// `u64` words plus a per-word rank table. The matrix-driven GraphMat
/// baseline and the bottom-up pull kernel both hold one.
///
/// A call [`load`](Self::load)s its input vector's indices, asks
/// [`contains`](Self::contains) and [`rank`](Self::rank), and
/// [`clear`](Self::clear)s the same indices before the next call, so each
/// call costs `O(nnz + n/64)` and the arrays are allocated once.
#[derive(Debug, Default)]
pub struct FrontierBits {
    words: Vec<u64>,
    /// `ranks[w]`: the set bits in `words[..w]`.
    ranks: Vec<usize>,
}

impl FrontierBits {
    /// Sets the bits of `indices` (strictly ascending, each below `len`, as
    /// a [`SparseVec`](crate::SparseVec)'s are) and rebuilds the rank table
    /// over `0..len`. The bitmap must be clear: new, or
    /// [`clear`](Self::clear)ed of the last load. The arrays only grow.
    pub fn load(&mut self, len: usize, indices: &[usize]) {
        let nwords = len.div_ceil(64);
        if self.words.len() < nwords {
            self.words.resize(nwords, 0);
            self.ranks.resize(nwords, 0);
        }
        for &j in indices {
            self.words[j / 64] |= 1 << (j % 64);
        }
        let mut below = 0;
        for (r, w) in self.ranks[..nwords].iter_mut().zip(&self.words) {
            *r = below;
            below += w.count_ones() as usize;
        }
    }

    /// Whether `j` is one of the loaded indices.
    #[inline]
    pub fn contains(&self, j: usize) -> bool {
        (self.words[j / 64] >> (j % 64)) & 1 == 1
    }

    /// The position of a loaded index `j` in the loaded vector's
    /// `indices()` and `values()`: its word's rank plus the set bits below
    /// it in the word.
    #[inline]
    pub fn rank(&self, j: usize) -> usize {
        self.ranks[j / 64] + (self.words[j / 64] & ((1 << (j % 64)) - 1)).count_ones() as usize
    }

    /// Unsets the bits of `indices`, the ones last loaded, in `O(nnz)`: it
    /// zeroes each index's word, since every bit set there came from them.
    pub fn clear(&mut self, indices: &[usize]) {
        for &j in indices {
            self.words[j / 64] = 0;
        }
    }
}

/// A mutable bitmap over the index space `0..len`, used as an **output
/// mask** by the masked SpMSpV kernels.
///
/// Where [`FrontierBits`] mirrors one input vector per call, `MaskBits` is
/// the evolving membership set graph algorithms maintain between
/// multiplications — BFS inserts every newly visited vertex after each
/// level. Storage is the same `u64`-word bitmap, so membership tests cost
/// one shift and mask, and [`MaskBits::clear`] reuses the allocation across
/// runs.
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

    /// The positions of `range`, re-based to start at 0: a mask over
    /// `range.len()` whose position `i` is this mask's `range.start + i`.
    /// Each word is two shifted source words, so it costs `O(len / 64)`
    /// whatever the alignment. A column-partitioned shard gets the rows it
    /// owns this way.
    ///
    /// # Panics
    ///
    /// When the range is decreasing or extends past [`MaskBits::len`].
    pub fn slice(&self, range: std::ops::Range<usize>) -> MaskBits {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "mask slice {range:?} out of range for {}",
            self.len
        );
        let len = range.len();
        let (first, shift) = (range.start / 64, range.start % 64);
        let mut words: Vec<u64> = (first..first + len.div_ceil(64))
            .map(|w| {
                let above = match shift {
                    0 => 0,
                    _ => self.words.get(w + 1).map_or(0, |&next| next << (64 - shift)),
                };
                (self.words[w] >> shift) | above
            })
            .collect();
        if let Some(last) = words.last_mut().filter(|_| !len.is_multiple_of(64)) {
            *last &= (1 << (len % 64)) - 1;
        }
        let count = words.iter().map(|w| w.count_ones() as usize).sum();
        MaskBits { len, words, count }
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

    use crate::SparseVec;

    /// The lengths around word boundaries every test sweeps.
    const LENS: [usize; 6] = [0, 1, 63, 64, 65, 130];

    fn loaded(x: &SparseVec<f64>) -> FrontierBits {
        let mut bits = FrontierBits::default();
        bits.load(x.len(), x.indices());
        bits
    }

    /// Every index, the last column alone, every third index ending at
    /// the last column, and nothing, over `0..len`.
    fn patterns(len: usize) -> Vec<SparseVec<f64>> {
        let vec = |idx: Vec<usize>| {
            let vals = idx.iter().map(|&i| i as f64 + 0.5).collect();
            SparseVec::from_parts(len, idx, vals).unwrap()
        };
        let mut out = vec![vec((0..len).collect()), vec(Vec::new())];
        if len > 0 {
            out.push(vec(vec![len - 1]));
            out.push(vec(((len - 1) % 3..len).step_by(3).collect()));
        }
        out
    }

    #[test]
    fn contains_and_get() {
        let x =
            SparseVec::from_parts(200, vec![0, 63, 64, 130, 199], vec![1.0, 2.0, 3.0, 4.0, 5.0])
                .unwrap();
        let bits = loaded(&x);
        for j in [0, 63, 64, 130, 199] {
            assert!(bits.contains(j));
        }
        for j in [1, 62, 65, 129, 198] {
            assert!(!bits.contains(j));
        }
        assert_eq!(x.values()[bits.rank(130)], 4.0);
        assert_eq!(x.values()[bits.rank(0)], 1.0);
        assert_eq!(x.values()[bits.rank(199)], 5.0);
    }

    #[test]
    fn rank_lookup_matches_iteration_order() {
        for len in LENS {
            for x in patterns(len) {
                let bits = loaded(&x);
                for (pos, &j) in x.indices().iter().enumerate() {
                    assert_eq!(bits.rank(j), pos, "len {len}, index {j}");
                }
            }
        }
    }

    #[test]
    fn empty_and_full_edge_cases() {
        for len in LENS {
            let [full, empty, ..] = &patterns(len)[..] else { unreachable!() };
            let bits = loaded(full);
            assert!((0..len).all(|j| bits.contains(j) && bits.rank(j) == j), "full, len {len}");
            let bits = loaded(empty);
            assert!((0..len).all(|j| !bits.contains(j)), "empty, len {len}");
        }
        // The last column alone, at every length.
        for len in LENS.into_iter().filter(|&len| len > 0) {
            let bits = loaded(&patterns(len)[2]);
            assert!(bits.contains(len - 1));
            assert_eq!(bits.rank(len - 1), 0);
            assert!((0..len - 1).all(|j| !bits.contains(j)));
        }
    }

    #[test]
    fn roundtrip_with_sparse_list() {
        for len in LENS {
            for x in patterns(len) {
                let bits = loaded(&x);
                let mut back = SparseVec::new(len);
                for j in (0..len).filter(|&j| bits.contains(j)) {
                    back.push(j, x.values()[bits.rank(j)]);
                }
                assert_eq!(back, x, "len {len}");
            }
        }
    }

    #[test]
    fn unsorted_input_is_handled() {
        let x = SparseVec::from_pairs(10, vec![(9, 9.0), (0, 0.5), (4, 4.0)]).unwrap();
        let bits = loaded(&x);
        assert_eq!(x.values()[bits.rank(9)], 9.0);
        assert_eq!(x.values()[bits.rank(0)], 0.5);
        assert_eq!(x.values()[bits.rank(4)], 4.0);
    }

    #[test]
    fn clear_zeroes_every_word() {
        for len in LENS {
            for x in patterns(len) {
                let mut bits = loaded(&x);
                bits.clear(x.indices());
                assert!(bits.words.iter().all(|&w| w == 0), "len {len}");
            }
        }
    }

    #[test]
    fn a_smaller_load_sees_no_stale_bit() {
        let mut bits = FrontierBits::default();
        for (big, small) in [(130, 65), (130, 1), (64, 63), (65, 0)] {
            for first in patterns(big) {
                bits.load(big, first.indices());
                bits.clear(first.indices());
                for second in patterns(small) {
                    bits.load(small, second.indices());
                    for j in 0..small {
                        assert_eq!(bits.contains(j), second.get(j).is_some(), "{big} → {small}");
                    }
                    for (pos, &j) in second.indices().iter().enumerate() {
                        assert_eq!(bits.rank(j), pos);
                    }
                    bits.clear(second.indices());
                }
            }
        }
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
    fn mask_slice_rebases_every_alignment() {
        let len = 200;
        let set: Vec<usize> = (0..len).filter(|i| i % 3 == 0 || i % 7 == 1).collect();
        let m = MaskBits::from_indices(len, set.iter().copied());
        for start in [0, 1, 5, 63, 64, 65, 127, 130, 200] {
            for end in [start, start + 1, start + 63, start + 64, start + 65, len] {
                if end > len {
                    continue;
                }
                let slice = m.slice(start..end);
                let want: Vec<usize> = set
                    .iter()
                    .filter(|&&i| (start..end).contains(&i))
                    .map(|&i| i - start)
                    .collect();
                assert_eq!(slice.len(), end - start, "{start}..{end}");
                assert_eq!(slice.iter().collect::<Vec<_>>(), want, "{start}..{end}");
                assert_eq!(slice.count(), want.len(), "{start}..{end}");
                // The tail is clear, as `from_words` demands of any mask.
                let rebuilt = MaskBits::from_words(slice.len(), slice.words().to_vec());
                assert_eq!(rebuilt.expect("tail bits are clear"), slice);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn mask_insert_out_of_range_panics() {
        let mut m = MaskBits::new(10);
        m.insert(10);
    }
}
