//! The unified `Mxv` operation API: **one descriptor** for single, batched,
//! and masked SpMSpV.
//!
//! The kernels of this crate expose three low-level front doors —
//! [`SpMSpV::multiply`] for one vector and
//! [`LaneBatch::multiply_batch`] for a
//! bundle of lanes, and the `*_masked` variants of both. Every workload
//! (BFS, multi-source BFS, personalized PageRank serving, betweenness
//! sweeps) needs some combination of the three, and writing each workload
//! three times does not scale. [`Mxv`] is the GraphBLAS-style operation
//! descriptor that collapses them: describe the computation once —
//!
//! ```
//! use sparse_substrate::{fixtures, MaskBits, PlusTimes};
//! use spmspv::ops::Mxv;
//! use spmspv::{AlgorithmKind, MaskMode, SpMSpVOptions};
//!
//! let a = fixtures::figure1_matrix();
//! let x = fixtures::figure1_vector();
//! let visited = MaskBits::from_indices(8, [0, 4]);
//! let mut op = Mxv::over(&a)
//!     .semiring(&PlusTimes)
//!     .mask(&visited, MaskMode::Complement)
//!     .algorithm(AlgorithmKind::Bucket)
//!     .options(SpMSpVOptions::with_threads(2))
//!     .prepare();
//! let y = op.run(&x);
//! assert!(y.get(0).is_none() && y.get(4).is_none());
//! ```
//!
//! — and execute it against a [`SparseVec`] ([`PreparedMxv::run`]) or a
//! [`SparseVecBatch`] ([`PreparedMxv::run_batch`]) interchangeably. The
//! descriptor owns the algorithm instances and their pre-allocated
//! workspaces (instantiated lazily, reused across calls — the paper's
//! amortization strategy), owns at most one mask bitmap — shared by every
//! lane of a batch — so iterative algorithms can update membership between
//! runs, and applies the mask **inside** the kernels, before a product is
//! formed (the bucket kernels' Step 1), never as an output post-filter. Per-lane masks (one visited set per source) are
//! not a descriptor concern: the serving [`crate::engine::Engine`] hands each
//! request's own mask to the batched kernel as a
//! [`BatchMaskView::PerLane`] view.
//!
//! Algorithm selection is pluggable and shared by both shapes:
//! [`AlgorithmKind`] picks the single-vector kernel (bucket, pull, the
//! CombBLAS/GraphMat baselines, …), and a batch runs each lane on a kernel
//! of the same family ([`LaneBatch`]). The default is the `Adaptive`
//! dispatcher ([`crate::adaptive`]), which resolves the family per call —
//! per lane, for a batch — from the frontier without changing any result.

use sparse_substrate::{CscMatrix, MaskBits, Scalar, Semiring, SparseVec, SparseVecBatch};

use crate::algorithm::{build_algorithm, AlgorithmKind, SpMSpV, SpMSpVOptions};
use crate::batch::LaneBatch;
use crate::masked::{BatchMaskView, MaskMode, MaskView};

/// Entry point of the unified operation API. See the [module docs](self).
pub struct Mxv;

impl Mxv {
    /// Starts describing a multiplication over `matrix`. Defaults: adaptive
    /// kernel dispatch (each call, and each lane of a batch, picks the
    /// family from its frontier; see [`crate::adaptive`]), default options,
    /// no mask. Results never depend on the dispatch: every family reduces in
    /// the same order.
    pub fn over<A: Scalar>(matrix: &CscMatrix<A>) -> MxvOp<'_, A, ()> {
        MxvOp {
            matrix,
            semiring: (),
            options: SpMSpVOptions::default(),
            algorithm: AlgorithmKind::Adaptive,
            mask: None,
        }
    }
}

/// The operation descriptor under construction: matrix, semiring, algorithm
/// selection, options, and mask. Produced by [`Mxv::over`]; every setter
/// moves `self` so descriptions chain; [`MxvOp::prepare`] compiles it into a
/// reusable [`PreparedMxv`].
///
/// `SR` is `()` until [`MxvOp::semiring`] captures the semiring.
pub struct MxvOp<'a, A, SR> {
    matrix: &'a CscMatrix<A>,
    semiring: SR,
    options: SpMSpVOptions,
    algorithm: AlgorithmKind,
    mask: Option<(MaskBits, MaskMode)>,
}

impl<'a, A: Scalar, SR> MxvOp<'a, A, SR> {
    /// Selects the semiring `⊕.⊗` the multiplication runs under. The
    /// semiring is captured by value (all semirings in this workspace are
    /// zero-sized `Copy` types).
    pub fn semiring<S: Clone>(self, semiring: &S) -> MxvOp<'a, A, S> {
        MxvOp {
            matrix: self.matrix,
            semiring: semiring.clone(),
            options: self.options,
            algorithm: self.algorithm,
            mask: self.mask,
        }
    }

    /// Selects the algorithm family of single calls and of every lane of a
    /// batch (default: [`AlgorithmKind::Adaptive`]).
    pub fn algorithm(mut self, kind: AlgorithmKind) -> Self {
        self.algorithm = kind;
        self
    }

    /// Sets the tuning options shared by all algorithm families.
    pub fn options(mut self, options: SpMSpVOptions) -> Self {
        self.options = options;
        self
    }

    /// Masks the output with a copy of `bits`, shared by every lane in
    /// batched runs. The prepared descriptor owns the copy; update it
    /// between runs through [`PreparedMxv::mask_mut`].
    ///
    /// Panics unless `bits` spans exactly the matrix's row space — a
    /// shorter bitmap would silently treat the uncovered rows as unset (and
    /// panic on probes past its last word inside the parallel merge).
    pub fn mask(mut self, bits: &MaskBits, mode: MaskMode) -> Self {
        MaskView::new(bits, mode).check_rows(self.matrix.nrows());
        self.mask = Some((bits.clone(), mode));
        self
    }

    /// Masks the output with an initially **empty** bitmap over the matrix's
    /// rows — the BFS idiom: start with nothing visited, then insert
    /// vertices through [`PreparedMxv::mask_mut`] as the traversal claims
    /// them.
    pub fn masked(mut self, mode: MaskMode) -> Self {
        self.mask = Some((MaskBits::new(self.matrix.nrows()), mode));
        self
    }
}

impl<'a, A: Scalar, S> MxvOp<'a, A, S> {
    /// Compiles the description into a reusable [`PreparedMxv`].
    ///
    /// `X` — the input-vector element type — is usually inferred from the
    /// first `run`/`run_batch` call.
    pub fn prepare<X: Scalar>(self) -> PreparedMxv<'a, A, X, S>
    where
        S: Semiring<A, X>,
    {
        PreparedMxv {
            matrix: self.matrix,
            semiring: self.semiring,
            options: self.options,
            algorithm: self.algorithm,
            mask: self.mask,
            single: None,
            batch: None,
        }
    }
}

/// A compiled [`Mxv`] descriptor: owns the (lazily instantiated) algorithm
/// instances with their pre-allocated workspaces and the mask bitmap, and
/// executes single vectors and batches through one interface.
///
/// ```
/// use sparse_substrate::{fixtures, PlusTimes, SparseVecBatch};
/// use spmspv::ops::Mxv;
///
/// let a = fixtures::figure1_matrix();
/// let x = fixtures::figure1_vector();
/// let mut op = Mxv::over(&a).semiring(&PlusTimes).prepare();
/// let single = op.run(&x);                                  // one vector
/// let batch = op.run_batch(&SparseVecBatch::from_single(&x)); // same op, k lanes
/// assert_eq!(batch.lane(0), &single);
/// ```
pub struct PreparedMxv<'a, A, X, S: Semiring<A, X>> {
    matrix: &'a CscMatrix<A>,
    semiring: S,
    options: SpMSpVOptions,
    algorithm: AlgorithmKind,
    mask: Option<(MaskBits, MaskMode)>,
    single: Option<Box<dyn SpMSpV<A, X, S> + 'a>>,
    batch: Option<LaneBatch<'a, A, X, S>>,
}

impl<'a, A, X, S> PreparedMxv<'a, A, X, S>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X> + 'a,
{
    /// Executes the operation on one sparse vector: `y ← ⟨mask⟩ (A ⊕.⊗ x)`.
    ///
    /// The single-vector algorithm instance (and its workspaces) is created
    /// on first use and reused afterwards.
    pub fn run(&mut self, x: &SparseVec<X>) -> SparseVec<S::Output> {
        let single = self.single.get_or_insert_with(|| {
            build_algorithm(self.matrix, self.algorithm, self.options.clone())
        });
        let mask = self.mask.as_ref().map(|(bits, mode)| MaskView::new(bits, *mode));
        single.multiply_masked(x, &self.semiring, mask)
    }

    /// Executes the operation on a sparse multi-vector, lane-wise:
    /// `Y[l] ← ⟨mask⟩ (A ⊕.⊗ X[l])`, the one mask filtering every lane.
    ///
    /// The lanes run on kernels of the descriptor's algorithm family
    /// ([`LaneBatch`]), created on first use and reused.
    pub fn run_batch(&mut self, x: &SparseVecBatch<X>) -> SparseVecBatch<S::Output> {
        let batch = self.batch.get_or_insert_with(|| {
            LaneBatch::new(self.matrix, self.algorithm, self.options.clone())
        });
        let mask = self
            .mask
            .as_ref()
            .map(|(bits, mode)| BatchMaskView::Shared(MaskView::new(bits, *mode)));
        batch.multiply_batch_masked(x, &self.semiring, mask.as_ref())
    }

    /// The matrix the descriptor was prepared over.
    pub fn matrix(&self) -> &'a CscMatrix<A> {
        self.matrix
    }

    /// The mask interpretation, when the descriptor is masked.
    pub fn mask_mode(&self) -> Option<MaskMode> {
        self.mask.as_ref().map(|&(_, mode)| mode)
    }

    /// Mutable access to the mask bitmap, for iterative algorithms that grow
    /// the membership set between runs (BFS inserts every newly visited
    /// vertex). Panics when the descriptor is unmasked.
    pub fn mask_mut(&mut self) -> &mut MaskBits {
        match &mut self.mask {
            Some((bits, _)) => bits,
            None => panic!("descriptor has no mask; build with .mask()/.masked()"),
        }
    }

    /// Empties the mask bitmap, keeping its allocation, so the descriptor
    /// can serve a fresh traversal. A no-op when the descriptor is unmasked.
    pub fn mask_clear(&mut self) {
        if let Some((bits, _)) = &mut self.mask {
            bits.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_substrate::gen::{erdos_renyi, random_sparse_vec};
    use sparse_substrate::ops::spmspv_reference;
    use sparse_substrate::{fixtures, PlusTimes};

    #[test]
    fn unmasked_run_matches_reference_for_every_algorithm() {
        let a = erdos_renyi(200, 5.0, 3);
        let x = random_sparse_vec(200, 40, 9);
        let expected = spmspv_reference(&a, &x, &PlusTimes);
        for kind in [
            AlgorithmKind::Bucket,
            AlgorithmKind::CombBlasSpa,
            AlgorithmKind::CombBlasHeap,
            AlgorithmKind::GraphMat,
            AlgorithmKind::SortBased,
            AlgorithmKind::Sequential,
            AlgorithmKind::Adaptive,
        ] {
            let mut op = Mxv::over(&a)
                .semiring(&PlusTimes)
                .algorithm(kind)
                .options(SpMSpVOptions::with_threads(2))
                .prepare();
            let y = op.run(&x);
            assert!(y.approx_same_entries(&expected, 1e-9), "{kind} diverged through Mxv");
        }
    }

    #[test]
    fn one_descriptor_serves_single_and_batch() {
        let a = fixtures::figure1_matrix();
        let x = fixtures::figure1_vector();
        let mut op = Mxv::over(&a).semiring(&PlusTimes).prepare();
        let single = op.run(&x);
        let batch = op.run_batch(&SparseVecBatch::from_single(&x));
        assert_eq!(batch.k(), 1);
        assert_eq!(batch.lane(0), &single);
        assert_eq!(op.algorithm, AlgorithmKind::Adaptive);
        assert_eq!(op.mask_mode(), None);
    }

    #[test]
    fn shared_mask_filters_in_kernel_like_the_post_filter_oracle() {
        let a = erdos_renyi(150, 6.0, 11);
        let x = random_sparse_vec(150, 30, 4);
        let bits = MaskBits::from_indices(150, (0..150).step_by(3));
        for mode in [MaskMode::Keep, MaskMode::Complement] {
            let mut op = Mxv::over(&a).semiring(&PlusTimes).mask(&bits, mode).prepare();
            let y = op.run(&x);
            let mut oracle = spmspv_reference(&a, &x, &PlusTimes);
            oracle.retain(|i, _| match mode {
                MaskMode::Keep => bits.contains(i),
                MaskMode::Complement => !bits.contains(i),
            });
            assert!(y.approx_same_entries(&oracle, 1e-12), "{mode:?} diverged");
        }
    }

    #[test]
    fn mask_mut_grows_the_visited_set_between_runs() {
        let a = fixtures::figure1_matrix();
        let x = fixtures::figure1_vector();
        let mut op = Mxv::over(&a).semiring(&PlusTimes).masked(MaskMode::Complement).prepare();
        let before = op.run(&x);
        let first_row = before.iter().next().expect("non-empty product").0;
        op.mask_mut().insert(first_row);
        let after = op.run(&x);
        assert!(after.get(first_row).is_none(), "newly masked row must vanish");
        assert_eq!(after.nnz(), before.nnz() - 1);
        op.mask_clear();
        assert_eq!(op.run(&x).nnz(), before.nnz());
    }

    #[test]
    fn every_batch_selector_agrees_with_fused() {
        let a = erdos_renyi(120, 5.0, 7);
        let lanes: Vec<_> = (0..3).map(|l| random_sparse_vec(120, 20, l as u64)).collect();
        let batch = SparseVecBatch::from_lanes(&lanes).unwrap();
        let bits = MaskBits::from_indices(120, (0..120).step_by(2));
        let run = |kind: AlgorithmKind| {
            let mut op = Mxv::over(&a)
                .semiring(&PlusTimes)
                .algorithm(kind)
                .mask(&bits, MaskMode::Keep)
                .prepare();
            op.run_batch(&batch)
        };
        let bucket = run(AlgorithmKind::Bucket);
        for kind in [
            AlgorithmKind::CombBlasSpa,
            AlgorithmKind::CombBlasHeap,
            AlgorithmKind::GraphMat,
            AlgorithmKind::SortBased,
            AlgorithmKind::Sequential,
            AlgorithmKind::Pull,
            AlgorithmKind::Adaptive,
        ] {
            assert_eq!(bucket, run(kind), "{kind} disagrees with bucket lanes under a mask");
        }
    }

    #[test]
    #[should_panic(expected = "mask covers 4 rows but the matrix has 8 output rows")]
    fn undersized_mask_is_rejected_at_description_time() {
        let a = fixtures::figure1_matrix();
        let _ = Mxv::over(&a).semiring(&PlusTimes).mask(&MaskBits::new(4), MaskMode::Keep);
    }
}
