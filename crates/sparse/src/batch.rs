//! Sparse multi-vectors: `k` sparse vectors of one dimension, held as lanes.
//!
//! The SpMSpV-bucket kernel processes one sparse frontier per call, but its
//! motivating applications — multi-source BFS, betweenness-centrality-style
//! sweeps, batched personalized PageRank — naturally present *k* frontiers at
//! once. [`SparseVecBatch`] is the substrate for that workload class: lane
//! `l` *is* a [`SparseVec`], so every batched kernel hands each lane to a
//! single-vector kernel as a borrow and moves that kernel's output in as the
//! result lane, and a caller moves lanes in and out without copying them.
//!
//! The batch records its dimension itself rather than reading it off a lane,
//! so a batch of no lanes still has one, and every constructor checks that
//! each lane has it.

use crate::error::SparseError;
use crate::spvec::SparseVec;
use crate::Scalar;

/// `k` sparse vectors of one logical dimension.
///
/// Invariant: every lane's [`SparseVec::len`] is the batch's
/// [`SparseVecBatch::len`]. Each lane keeps [`SparseVec`]'s own invariant
/// (strictly ascending indices below `len`).
#[derive(Debug, Clone, PartialEq)]
pub struct SparseVecBatch<T> {
    len: usize,
    lanes: Vec<SparseVec<T>>,
}

impl<T: Scalar> SparseVecBatch<T> {
    /// An empty batch: `k` lanes of dimension `len`, no stored entries.
    pub fn new(len: usize, k: usize) -> Self {
        SparseVecBatch { len, lanes: (0..k).map(|_| SparseVec::new(len)).collect() }
    }

    /// Takes `lanes` as the batch's lanes, rejecting any lane whose
    /// dimension is not `len`. Nothing is copied; this is how a batch of no
    /// lanes gets a dimension.
    pub fn with_lanes(len: usize, lanes: Vec<SparseVec<T>>) -> Result<Self, SparseError> {
        if let Some(bad) = lanes.iter().find(|v| v.len() != len) {
            return Err(SparseError::InvalidStructure(format!(
                "batch lanes disagree on dimension: {} vs {}",
                bad.len(),
                len
            )));
        }
        Ok(SparseVecBatch { len, lanes })
    }

    /// Bundles copies of `k` sparse vectors (all of the same dimension) into
    /// a batch. An empty slice gives a batch of dimension 0; use
    /// [`SparseVecBatch::with_lanes`] to size a batch of no lanes.
    pub fn from_lanes(lanes: &[SparseVec<T>]) -> Result<Self, SparseError> {
        let len = lanes.first().map(|v| v.len()).unwrap_or(0);
        Self::with_lanes(len, lanes.to_vec())
    }

    /// A single-lane batch holding a copy of one vector (`k == 1`).
    pub fn from_single(v: &SparseVec<T>) -> Self {
        SparseVecBatch { len: v.len(), lanes: vec![v.clone()] }
    }

    /// Logical dimension shared by all lanes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Number of lanes `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.lanes.len()
    }

    /// Total stored entries across all lanes.
    pub fn total_nnz(&self) -> usize {
        self.lanes.iter().map(SparseVec::nnz).sum()
    }

    /// `true` when no lane stores any entry.
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(SparseVec::is_empty)
    }

    /// Lane `l`.
    #[inline]
    pub fn lane(&self, l: usize) -> &SparseVec<T> {
        &self.lanes[l]
    }

    /// Moves the lanes out, in lane order.
    pub fn into_lanes(self) -> Vec<SparseVec<T>> {
        self.lanes
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
            && self.lanes.iter().zip(&other.lanes).all(|(a, b)| a.approx_same_entries(b, rel_tol))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_lanes() -> Vec<SparseVec<f64>> {
        vec![
            SparseVec::from_pairs(6, vec![(4, 4.0), (1, 1.0)]).unwrap(),
            SparseVec::from_pairs(6, vec![]).unwrap(),
            SparseVec::from_pairs(6, vec![(1, 10.0), (5, 50.0), (3, 30.0)]).unwrap(),
        ]
    }

    #[test]
    fn from_lanes_roundtrips() {
        let b = SparseVecBatch::from_lanes(&demo_lanes()).unwrap();
        assert_eq!(b.k(), 3);
        assert_eq!(b.len(), 6);
        assert_eq!(b.total_nnz(), 5);
        assert_eq!(b.lane(0).nnz(), 2);
        assert_eq!(b.lane(1).nnz(), 0);
        assert_eq!(b.lane(2).nnz(), 3);
        let lanes = b.into_lanes();
        assert_eq!(lanes[0].indices(), &[1, 4]);
        assert_eq!(lanes[2].values(), &[10.0, 30.0, 50.0]);
    }

    #[test]
    fn from_lanes_rejects_mixed_dimensions() {
        let r = SparseVecBatch::from_lanes(&[SparseVec::<f64>::new(4), SparseVec::<f64>::new(5)]);
        assert!(r.is_err());
    }

    #[test]
    fn with_lanes_checks_every_lane_and_sizes_a_batch_of_none() {
        assert!(SparseVecBatch::with_lanes(6, demo_lanes()).is_ok());
        assert!(SparseVecBatch::with_lanes(7, demo_lanes()).is_err());
        let mut lanes = demo_lanes();
        lanes.push(SparseVec::new(5));
        assert!(SparseVecBatch::with_lanes(6, lanes).is_err());
        let none = SparseVecBatch::<f64>::with_lanes(9, Vec::new()).unwrap();
        assert_eq!((none.len(), none.k()), (9, 0));
        assert_eq!(none, SparseVecBatch::new(9, 0));
    }

    #[test]
    fn single_lane_batch_matches_vector() {
        let v = SparseVec::from_pairs(9, vec![(2, 2.0), (7, 7.0)]).unwrap();
        let b = SparseVecBatch::from_single(&v);
        assert_eq!(b.k(), 1);
        assert_eq!(b.lane(0), &v);
    }

    #[test]
    fn same_entries_is_lane_wise() {
        let a = SparseVecBatch::from_lanes(&demo_lanes()).unwrap();
        let b = SparseVecBatch::with_lanes(6, demo_lanes()).unwrap();
        assert!(a.same_entries(&b));
        let mut lanes = demo_lanes();
        lanes[1] = SparseVec::from_pairs(6, vec![(0, 9.0)]).unwrap();
        let c = SparseVecBatch::with_lanes(6, lanes).unwrap();
        assert!(!a.same_entries(&c));
        assert!(!a.approx_same_entries(&c, 1e-12));
    }
}
