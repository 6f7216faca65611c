//! Sparse multi-vectors: `k` sparse vectors of one dimension stored as lanes
//! over a shared index pool.
//!
//! The SpMSpV-bucket kernel processes one sparse frontier per call, but its
//! motivating applications — multi-source BFS, betweenness-centrality-style
//! sweeps, batched personalized PageRank — naturally present *k* frontiers at
//! once. [`SparseVecBatch`] is the substrate for that workload class: lane
//! `l` is a logical [`SparseVec`], but all lanes share one `indices`/`values`
//! pool partitioned by `lane_ptr` (exactly the CSC `colptr` idea applied to a
//! bundle of vectors), so a batched kernel can traverse the whole batch
//! without chasing `k` separate allocations.
//!
//! [`SparseVecBatch::fuse_columns`] converts the per-lane layout into the
//! *fused* column-major layout batched SpMSpV consumes: the sorted union of
//! active indices, each carrying the `(lane, value)` pairs that activate it.
//! One pass over the matrix's columns then serves every lane — the
//! amortization that makes batching pay.
//!
//! Every lane keeps [`SparseVec`]'s invariant — strictly ascending indices —
//! checked by the constructors in the pass that checks bounds.

use std::ops::Range;

use crate::error::SparseError;
use crate::spvec::{check_ascending, run_in, SparseVec};
use crate::Scalar;

/// `k` sparse vectors of one logical dimension, stored lane-major over a
/// shared index pool.
///
/// Invariants:
///
/// * `lane_ptr.len() == k + 1`, `lane_ptr[0] == 0`, non-decreasing, and
///   `lane_ptr[k] == indices.len() == values.len()`;
/// * every stored index is `< len`;
/// * indices within one lane are strictly ascending, as in a [`SparseVec`].
#[derive(Debug, Clone, PartialEq)]
pub struct SparseVecBatch<T> {
    len: usize,
    lane_ptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<T>,
}

impl<T: Scalar> SparseVecBatch<T> {
    /// An empty batch: `k` lanes of dimension `len`, no stored entries.
    pub fn new(len: usize, k: usize) -> Self {
        SparseVecBatch { len, lane_ptr: vec![0; k + 1], indices: Vec::new(), values: Vec::new() }
    }

    /// Bundles `k` sparse vectors (all of the same dimension) into a batch,
    /// copying their entries into the shared pool in lane order.
    pub fn from_lanes(lanes: &[SparseVec<T>]) -> Result<Self, SparseError> {
        let len = lanes.first().map(|v| v.len()).unwrap_or(0);
        if let Some(bad) = lanes.iter().find(|v| v.len() != len) {
            return Err(SparseError::InvalidStructure(format!(
                "batch lanes disagree on dimension: {} vs {}",
                bad.len(),
                len
            )));
        }
        let total: usize = lanes.iter().map(|v| v.nnz()).sum();
        let mut lane_ptr = Vec::with_capacity(lanes.len() + 1);
        let mut indices = Vec::with_capacity(total);
        let mut values = Vec::with_capacity(total);
        lane_ptr.push(0);
        for lane in lanes {
            indices.extend_from_slice(lane.indices());
            values.extend_from_slice(lane.values());
            lane_ptr.push(indices.len());
        }
        Ok(SparseVecBatch { len, lane_ptr, indices, values })
    }

    /// Builds a batch from raw parts, validating every invariant: the lane
    /// structure, then each lane's indices in one O(nnz) pass (in bounds
    /// and strictly ascending).
    pub fn from_parts(
        len: usize,
        lane_ptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<T>,
    ) -> Result<Self, SparseError> {
        if lane_ptr.is_empty() || lane_ptr[0] != 0 {
            return Err(SparseError::InvalidStructure("lane_ptr must start with 0".into()));
        }
        if lane_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(SparseError::InvalidStructure("lane_ptr must be non-decreasing".into()));
        }
        if *lane_ptr.last().unwrap() != indices.len() || indices.len() != values.len() {
            return Err(SparseError::InvalidStructure(format!(
                "lane_ptr end {} does not match pool sizes {}/{}",
                lane_ptr.last().unwrap(),
                indices.len(),
                values.len()
            )));
        }
        for w in lane_ptr.windows(2) {
            check_ascending(&indices[w[0]..w[1]], len)?;
        }
        Ok(SparseVecBatch { len, lane_ptr, indices, values })
    }

    /// A single-lane batch wrapping one vector (`k == 1`).
    pub fn from_single(v: &SparseVec<T>) -> Self {
        Self::from_lanes(std::slice::from_ref(v)).expect("one lane is always consistent")
    }

    /// Logical dimension shared by all lanes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Number of lanes `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.lane_ptr.len() - 1
    }

    /// Total stored entries across all lanes.
    #[inline]
    pub fn total_nnz(&self) -> usize {
        self.indices.len()
    }

    /// `true` when no lane stores any entry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Borrow of lane `l` as `(indices, values)` slices.
    #[inline]
    pub fn lane(&self, l: usize) -> (&[usize], &[T]) {
        let r = self.lane_ptr[l]..self.lane_ptr[l + 1];
        (&self.indices[r.clone()], &self.values[r])
    }

    /// Copies lane `l` out into a standalone [`SparseVec`].
    pub fn lane_vec(&self, l: usize) -> SparseVec<T> {
        let (idx, val) = self.lane(l);
        SparseVec::from_parts(self.len, idx.to_vec(), val.to_vec())
            .expect("batch invariants imply lane validity")
    }

    /// Splits the batch back into `k` standalone vectors.
    pub fn to_lanes(&self) -> Vec<SparseVec<T>> {
        (0..self.k()).map(|l| self.lane_vec(l)).collect()
    }

    /// Lane-wise [`SparseVec::slice_remap`]: every lane keeps only its
    /// entries with indices in `range`, re-based to the range start, and the
    /// batch's logical dimension becomes `range.len()`. The lane count is
    /// preserved (lanes that lose all entries stay as empty lanes), so a
    /// column-partitioned shard sees the same batch width as the router.
    ///
    /// # Panics
    ///
    /// When the range is decreasing or extends past [`SparseVecBatch::len`].
    pub fn slice_remap(&self, range: Range<usize>) -> SparseVecBatch<T> {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "slice_remap range {range:?} out of bounds for length {}",
            self.len
        );
        let mut lane_ptr = Vec::with_capacity(self.k() + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        lane_ptr.push(0);
        for l in 0..self.k() {
            let (idx, val) = self.lane(l);
            let run = run_in(idx, &range);
            indices.extend(idx[run.clone()].iter().map(|&i| i - range.start));
            values.extend_from_slice(&val[run]);
            lane_ptr.push(indices.len());
        }
        SparseVecBatch { len: range.end - range.start, lane_ptr, indices, values }
    }

    /// Fuses the lanes into the column-major layout batched SpMSpV consumes:
    /// the sorted union of active indices, each with its `(lane, value)`
    /// activations. Lane order within one column follows lane id, and each
    /// lane's entries appear in ascending index order — the property that
    /// makes a batched bucket kernel's per-lane accumulation order identical
    /// to the single-vector kernel's.
    ///
    /// An `O(nnz · log k)` k-way merge of the ascending lanes: one cursor per
    /// lane, a min-heap keyed on `(col, lane)`.
    pub fn fuse_columns(&self) -> FusedColumns<T> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let k = self.k();
        let total = self.total_nnz();
        let mut cursor: Vec<usize> = self.lane_ptr[..k].to_vec();
        let mut heap: BinaryHeap<Reverse<(usize, usize)>> = BinaryHeap::with_capacity(k);
        for (l, &c) in cursor.iter().enumerate() {
            if c < self.lane_ptr[l + 1] {
                heap.push(Reverse((self.indices[c], l)));
            }
        }

        let mut cols = Vec::new();
        let mut offsets = vec![0usize];
        let mut lanes = Vec::with_capacity(total);
        let mut values = Vec::with_capacity(total);
        while let Some(Reverse((j, l))) = heap.pop() {
            if cols.last() != Some(&j) {
                cols.push(j);
                offsets.push(lanes.len());
            }
            lanes.push(l as u32);
            values.push(self.values[cursor[l]]);
            *offsets.last_mut().unwrap() = lanes.len();
            cursor[l] += 1;
            if cursor[l] < self.lane_ptr[l + 1] {
                heap.push(Reverse((self.indices[cursor[l]], l)));
            }
        }
        FusedColumns { cols, offsets, lanes, values }
    }
}

impl<T: Scalar + PartialOrd> SparseVecBatch<T> {
    /// Lane-wise [`SparseVec::same_entries`]: `==`.
    pub fn same_entries(&self, other: &Self) -> bool {
        self == other
    }
}

impl SparseVecBatch<f64> {
    /// Lane-wise [`SparseVec::approx_same_entries`] with a relative
    /// tolerance, for comparing floating-point batches across kernels that
    /// reduce in different orders.
    pub fn approx_same_entries(&self, other: &Self, rel_tol: f64) -> bool {
        self.len == other.len
            && self.k() == other.k()
            && (0..self.k())
                .all(|l| self.lane_vec(l).approx_same_entries(&other.lane_vec(l), rel_tol))
    }
}

/// The fused (column-major) view of a [`SparseVecBatch`]: for every active
/// column of the union, the `(lane, value)` pairs that activate it.
///
/// Produced by [`SparseVecBatch::fuse_columns`]; consumed by the batched
/// bucket kernel, which walks `cols` once and scales each matrix column by
/// all of its activations in one traversal.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedColumns<T> {
    cols: Vec<usize>,
    offsets: Vec<usize>,
    lanes: Vec<u32>,
    values: Vec<T>,
}

impl<T: Scalar> FusedColumns<T> {
    /// The sorted union of active column indices.
    #[inline]
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Number of distinct active columns.
    #[inline]
    pub fn num_cols(&self) -> usize {
        self.cols.len()
    }

    /// The `(lane, value)` activations of the `c`-th active column (position
    /// in [`FusedColumns::cols`], not the column index itself).
    #[inline]
    pub fn activations(&self, c: usize) -> (&[u32], &[T]) {
        let r = self.offsets[c]..self.offsets[c + 1];
        (&self.lanes[r.clone()], &self.values[r])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_batch() -> SparseVecBatch<f64> {
        SparseVecBatch::from_lanes(&[
            SparseVec::from_pairs(6, vec![(4, 4.0), (1, 1.0)]).unwrap(),
            SparseVec::from_pairs(6, vec![]).unwrap(),
            SparseVec::from_pairs(6, vec![(1, 10.0), (5, 50.0), (3, 30.0)]).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn from_lanes_roundtrips() {
        let b = demo_batch();
        assert_eq!(b.k(), 3);
        assert_eq!(b.len(), 6);
        assert_eq!(b.total_nnz(), 5);
        assert_eq!(b.lane(0).0.len(), 2);
        assert_eq!(b.lane(1).0.len(), 0);
        assert_eq!(b.lane(2).0.len(), 3);
        let lanes = b.to_lanes();
        assert_eq!(lanes[0].indices(), &[1, 4]);
        assert_eq!(lanes[2].values(), &[10.0, 30.0, 50.0]);
    }

    #[test]
    fn from_lanes_rejects_mixed_dimensions() {
        let r = SparseVecBatch::from_lanes(&[SparseVec::<f64>::new(4), SparseVec::<f64>::new(5)]);
        assert!(r.is_err());
    }

    #[test]
    fn from_parts_validates() {
        assert!(SparseVecBatch::from_parts(4, vec![0, 1], vec![9], vec![1.0]).is_err());
        assert!(SparseVecBatch::from_parts(4, vec![0, 2], vec![0], vec![1.0]).is_err());
        assert!(SparseVecBatch::from_parts(4, vec![1, 1], vec![], Vec::<f64>::new()).is_err());
        assert!(SparseVecBatch::from_parts(4, vec![0, 1], vec![2], vec![1.0]).is_ok());
        // duplicate index within one lane is rejected...
        assert!(SparseVecBatch::from_parts(4, vec![0, 2], vec![3, 3], vec![1.0, 2.0]).is_err());
        // ...so is a descending one...
        assert!(SparseVecBatch::from_parts(4, vec![0, 2], vec![3, 1], vec![1.0, 2.0]).is_err());
        // ...but the same index in different lanes is fine
        assert!(SparseVecBatch::from_parts(4, vec![0, 1, 2], vec![3, 3], vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn fuse_columns_builds_sorted_union_with_lane_order() {
        let b = demo_batch();
        let fused = b.fuse_columns();
        assert_eq!(fused.cols(), &[1, 3, 4, 5]);
        assert_eq!(fused.lanes.len(), 5);
        // column 1 is activated by lanes 0 and 2, in lane order
        let (lanes, vals) = fused.activations(0);
        assert_eq!(lanes, &[0, 2]);
        assert_eq!(vals, &[1.0, 10.0]);
        // column 3 only by lane 2
        assert_eq!(fused.activations(1).0, &[2]);
    }

    #[test]
    fn single_lane_batch_matches_vector() {
        let v = SparseVec::from_pairs(9, vec![(2, 2.0), (7, 7.0)]).unwrap();
        let b = SparseVecBatch::from_single(&v);
        assert_eq!(b.k(), 1);
        assert_eq!(b.lane_vec(0), v);
    }

    #[test]
    fn empty_batch_fuses_to_nothing() {
        let b = SparseVecBatch::<f64>::new(10, 4);
        assert!(b.is_empty());
        let fused = b.fuse_columns();
        assert_eq!(fused.num_cols(), 0);
        assert_eq!(fused.lanes.len(), 0);
    }

    /// Fusion by sorting `(col, lane, value)` triples — the oracle the
    /// k-way merge must reproduce.
    fn fuse_by_sort(b: &SparseVecBatch<f64>) -> FusedColumns<f64> {
        let mut triples: Vec<(usize, u32, f64)> = (0..b.k())
            .flat_map(|l| b.lane_vec(l).iter().map(|(j, &v)| (j, l as u32, v)).collect::<Vec<_>>())
            .collect();
        // Stable by column: lanes stay in ascending lane order within one.
        triples.sort_by_key(|&(j, _, _)| j);
        let mut fused = FusedColumns {
            cols: Vec::new(),
            offsets: vec![0],
            lanes: Vec::new(),
            values: Vec::new(),
        };
        for (j, l, v) in triples {
            if fused.cols.last() != Some(&j) {
                fused.cols.push(j);
                fused.offsets.push(fused.lanes.len());
            }
            fused.lanes.push(l);
            fused.values.push(v);
            *fused.offsets.last_mut().unwrap() = fused.lanes.len();
        }
        fused
    }

    #[test]
    fn merge_fusion_is_identical_to_sort_fusion() {
        // Pseudo-random lanes (multiplicative hash) across several shapes;
        // the k-way merge must reproduce a sort of the triples bit for bit:
        // same column union, same (lane, value) order within columns.
        for (n, k, per_lane) in [(40usize, 1usize, 7usize), (64, 3, 13), (100, 8, 25), (9, 5, 9)] {
            let lanes: Vec<SparseVec<f64>> = (0..k)
                .map(|l| {
                    let mut idx: Vec<usize> =
                        (0..per_lane).map(|e| (e * 2654435761 + l * 97) % n).collect();
                    idx.sort_unstable();
                    idx.dedup();
                    let pairs = idx.iter().map(|&j| (j, (j + 10 * l) as f64)).collect();
                    SparseVec::from_pairs(n, pairs).unwrap()
                })
                .collect();
            let b = SparseVecBatch::from_lanes(&lanes).unwrap();
            assert_eq!(b.fuse_columns(), fuse_by_sort(&b), "n={n} k={k}");
        }
    }

    #[test]
    fn slice_remap_keeps_lane_count_and_rebases() {
        let b = demo_batch();
        let s = b.slice_remap(1..5);
        assert_eq!(s.k(), 3, "lane count survives slicing");
        assert_eq!(s.len(), 4);
        assert_eq!(s.lane(0).0, &[0, 3]); // 1, 4 re-based by 1
        assert_eq!(s.lane(1).0.len(), 0);
        assert_eq!(s.lane(2).0, &[0, 2]); // 1, 3 survive; 5 is cut
        assert_eq!(s.lane(2).1, &[10.0, 30.0]);
        // Lane-wise agreement with the vector primitive.
        for l in 0..b.k() {
            assert_eq!(s.lane_vec(l), b.lane_vec(l).slice_remap(1..5));
        }
        // Degenerate ranges.
        assert_eq!(b.slice_remap(0..0).k(), 3);
        assert_eq!(b.slice_remap(0..6), b);
    }

    #[test]
    fn same_entries_is_lane_wise() {
        let a = demo_batch();
        let b = demo_batch();
        assert!(a.same_entries(&b));
        let c = SparseVecBatch::from_lanes(&[
            SparseVec::from_pairs(6, vec![(4, 4.0), (1, 1.0)]).unwrap(),
            SparseVec::from_pairs(6, vec![(0, 9.0)]).unwrap(),
            SparseVec::from_pairs(6, vec![(1, 10.0), (5, 50.0), (3, 30.0)]).unwrap(),
        ])
        .unwrap();
        assert!(!a.same_entries(&c));
    }
}
