//! The unified `Mxv` operation API: **one descriptor** for single, batched,
//! and masked SpMSpV.
//!
//! The kernels of this crate expose three low-level front doors —
//! [`SpMSpV::multiply`] for one vector and
//! [`SpMSpVBatch::multiply_batch`] for a
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
//! amortization strategy), owns the mask bitmap(s) so iterative algorithms
//! can update membership between runs, and applies the mask **inside** the
//! kernels' merge step, never as an output post-filter.
//!
//! Algorithm selection is pluggable in both shapes: [`AlgorithmKind`] picks
//! the single-vector kernel (bucket, the CombBLAS/GraphMat baselines, …)
//! and [`BatchAlgorithmKind`] picks the batched one (fused bucket, the
//! naive per-lane fallback, or the row-split baseline). Both default to the
//! `Adaptive` dispatchers ([`crate::adaptive`]), which resolve the family
//! per call from the frontier's density without changing any result.

use std::sync::Arc;

use sparse_substrate::{CscMatrix, MaskBits, Scalar, Semiring, SparseVec, SparseVecBatch};

use crate::algorithm::{build_algorithm, AlgorithmKind, SpMSpV, SpMSpVOptions};
use crate::batch::{build_batch_algorithm, BatchAlgorithmKind, BatchRunInfo, SpMSpVBatch};
use crate::engine::EngineError;
use crate::masked::{BatchMaskView, MaskMode, MaskView};

/// Best-effort extraction of a panic payload's message (`panic!` with a
/// formatted message boxes a `String`; a literal boxes a `&'static str`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "kernel panicked with a non-string payload".to_string()
    }
}

/// Entry point of the unified operation API. See the [module docs](self).
pub struct Mxv;

impl Mxv {
    /// Starts describing a multiplication over `matrix`. Defaults: adaptive
    /// kernel dispatch in both shapes (each call picks the family from the
    /// frontier's density; see [`crate::adaptive`]), default options, no
    /// mask. Results never depend on the dispatch: every family reduces in
    /// the same order.
    pub fn over<A: Scalar>(matrix: &CscMatrix<A>) -> MxvOp<'_, A, ()> {
        MxvOp {
            matrix,
            semiring: (),
            options: SpMSpVOptions::default(),
            algorithm: AlgorithmKind::Adaptive,
            batch_algorithm: BatchAlgorithmKind::Adaptive,
            mask: MaskStore::Unmasked,
        }
    }
}

/// The mask a descriptor owns: nothing, one shared bitmap, or one bitmap per
/// batch lane. Per-lane bitmaps are `Arc`-shared with the callers that
/// submitted them (the serving engine's requests), so installing them for a
/// flush moves refcounts, not `O(n)` bits.
#[derive(Debug, Clone)]
enum MaskStore {
    Unmasked,
    Shared { bits: MaskBits, mode: MaskMode },
    PerLane { masks: Vec<Arc<MaskBits>>, mode: MaskMode },
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
    batch_algorithm: BatchAlgorithmKind,
    mask: MaskStore,
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
            batch_algorithm: self.batch_algorithm,
            mask: self.mask,
        }
    }

    /// Selects the single-vector algorithm family (default:
    /// [`AlgorithmKind::Adaptive`]).
    pub fn algorithm(mut self, kind: AlgorithmKind) -> Self {
        self.algorithm = kind;
        self
    }

    /// Selects the batched algorithm family (default:
    /// [`BatchAlgorithmKind::Adaptive`]).
    pub fn batch_algorithm(mut self, kind: BatchAlgorithmKind) -> Self {
        self.batch_algorithm = kind;
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
        self.mask = MaskStore::Shared { bits: bits.clone(), mode };
        self
    }

    /// Masks the output with an initially **empty** bitmap over the matrix's
    /// rows — the BFS idiom: start with nothing visited, then insert
    /// vertices through [`PreparedMxv::mask_mut`] as the traversal claims
    /// them.
    pub fn masked(mut self, mode: MaskMode) -> Self {
        self.mask = MaskStore::Shared { bits: MaskBits::new(self.matrix.nrows()), mode };
        self
    }

    /// Masks batched runs with one initially empty bitmap **per lane**
    /// (multi-source BFS: each source keeps its own visited set). Update
    /// lane `l` through [`PreparedMxv::lane_mask_mut`]; retire lanes with
    /// [`PreparedMxv::retain_lanes`]. Single-vector [`PreparedMxv::run`]
    /// panics under a per-lane mask.
    pub fn lane_masks(mut self, k: usize, mode: MaskMode) -> Self {
        // One Arc per lane (not `vec![arc; k]`, which would share a single
        // allocation and force a copy-on-write on the first insert).
        let masks = (0..k).map(|_| Arc::new(MaskBits::new(self.matrix.nrows()))).collect();
        self.mask = MaskStore::PerLane { masks, mode };
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
            batch_algorithm: self.batch_algorithm,
            mask: self.mask,
            single: None,
            batch: None,
            last_batch_info: None,
        }
    }
}

/// A compiled [`Mxv`] descriptor: owns the (lazily instantiated) algorithm
/// instances with their pre-allocated workspaces and the mask bitmap(s), and
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
/// assert_eq!(batch.lane_vec(0), single);
/// ```
pub struct PreparedMxv<'a, A, X, S: Semiring<A, X>> {
    matrix: &'a CscMatrix<A>,
    semiring: S,
    options: SpMSpVOptions,
    algorithm: AlgorithmKind,
    batch_algorithm: BatchAlgorithmKind,
    mask: MaskStore,
    single: Option<Box<dyn SpMSpV<A, X, S> + 'a>>,
    batch: Option<Box<dyn SpMSpVBatch<A, X, S> + 'a>>,
    last_batch_info: Option<BatchRunInfo>,
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
    /// on first use and reused afterwards. Panics when the descriptor
    /// carries per-lane masks (those only make sense for batches).
    pub fn run(&mut self, x: &SparseVec<X>) -> SparseVec<S::Output> {
        if self.single.is_none() {
            self.single = Some(build_algorithm(self.matrix, self.algorithm, self.options.clone()));
        }
        let mask = match &self.mask {
            MaskStore::Unmasked => None,
            MaskStore::Shared { bits, mode } => Some(MaskView::new(bits, *mode)),
            MaskStore::PerLane { .. } => {
                panic!("per-lane masks apply to run_batch; use .mask()/.masked() for single runs")
            }
        };
        self.single.as_mut().expect("instantiated above").multiply_masked(x, &self.semiring, mask)
    }

    /// Executes the operation on a sparse multi-vector, lane-wise:
    /// `Y[l] ← ⟨mask_l⟩ (A ⊕.⊗ X[l])`. A shared mask filters every lane; a
    /// per-lane mask must have exactly `x.k()` bitmaps.
    ///
    /// The batched algorithm instance is created on first use and reused.
    pub fn run_batch(&mut self, x: &SparseVecBatch<X>) -> SparseVecBatch<S::Output> {
        if self.batch.is_none() {
            self.batch = Some(build_batch_algorithm(
                self.matrix,
                self.batch_algorithm,
                self.options.clone(),
            ));
        }
        let mask = match &self.mask {
            MaskStore::Unmasked => None,
            MaskStore::Shared { bits, mode } => {
                Some(BatchMaskView::Shared(MaskView::new(bits, *mode)))
            }
            MaskStore::PerLane { masks, mode } => {
                Some(BatchMaskView::PerLane { masks, mode: *mode })
            }
        };
        let batch = self.batch.as_mut().expect("instantiated above");
        let y = batch.multiply_batch_masked(x, &self.semiring, mask.as_ref());
        self.last_batch_info = batch.last_run_info();
        y
    }

    /// [`PreparedMxv::run_batch`] with panic isolation: a kernel panic is
    /// caught and surfaced as [`EngineError::KernelFailed`] carrying the
    /// panic message, instead of unwinding into the caller.
    ///
    /// This is the serving engine's execution entry point — a malformed
    /// request that trips a kernel assertion must fail *its* flush group,
    /// not the process. After an `Err` the descriptor's workspaces may be
    /// mid-mutation; callers that reuse descriptors should discard this one
    /// (the engine evicts it from its pool and rebuilds lazily).
    pub fn try_run_batch(
        &mut self,
        x: &SparseVecBatch<X>,
    ) -> Result<SparseVecBatch<S::Output>, EngineError> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run_batch(x)))
            .map_err(|payload| EngineError::KernelFailed(panic_message(payload.as_ref())))
    }

    /// The concrete kernel family the most recent [`PreparedMxv::run_batch`]
    /// resolved to — what an adaptive descriptor actually executed. `None`
    /// before the first batched run and after a run on an all-empty batch,
    /// which executes nothing.
    pub fn last_batch_run_info(&self) -> Option<BatchRunInfo> {
        self.last_batch_info
    }

    /// The matrix the descriptor was prepared over.
    pub fn matrix(&self) -> &'a CscMatrix<A> {
        self.matrix
    }

    /// The selected single-vector algorithm family.
    pub fn algorithm_kind(&self) -> AlgorithmKind {
        self.algorithm
    }

    /// The selected batched algorithm family.
    pub fn batch_algorithm_kind(&self) -> BatchAlgorithmKind {
        self.batch_algorithm
    }

    /// The mask interpretation, when the descriptor is masked.
    pub fn mask_mode(&self) -> Option<MaskMode> {
        match &self.mask {
            MaskStore::Unmasked => None,
            MaskStore::Shared { mode, .. } | MaskStore::PerLane { mode, .. } => Some(*mode),
        }
    }

    /// Mutable access to the shared mask bitmap, for iterative algorithms
    /// that grow the membership set between runs (BFS inserts every newly
    /// visited vertex). Panics when the descriptor is unmasked or carries
    /// per-lane masks.
    pub fn mask_mut(&mut self) -> &mut MaskBits {
        match &mut self.mask {
            MaskStore::Shared { bits, .. } => bits,
            MaskStore::Unmasked => panic!("descriptor has no mask; build with .mask()/.masked()"),
            MaskStore::PerLane { .. } => {
                panic!("descriptor has per-lane masks; use lane_mask_mut(lane)")
            }
        }
    }

    /// Mutable access to lane `lane`'s mask bitmap. Panics when the
    /// descriptor does not carry per-lane masks.
    ///
    /// Per-lane masks are `Arc`-shared; between flushes the descriptor's
    /// reference is unique, so this is the zero-copy `Arc::make_mut` path —
    /// a clone only happens if the caller still holds the same `Arc`.
    pub fn lane_mask_mut(&mut self, lane: usize) -> &mut MaskBits {
        match &mut self.mask {
            MaskStore::PerLane { masks, .. } => Arc::make_mut(&mut masks[lane]),
            _ => panic!("descriptor has no per-lane masks; build with .lane_masks(k, mode)"),
        }
    }

    /// Number of per-lane masks, when the descriptor carries them.
    pub fn lane_mask_count(&self) -> Option<usize> {
        match &self.mask {
            MaskStore::PerLane { masks, .. } => Some(masks.len()),
            _ => None,
        }
    }

    /// Drops the per-lane masks whose `keep` flag is `false`, compacting the
    /// rest in order — the lane-retirement idiom of multi-source BFS: when a
    /// source's frontier drains, its lane leaves the batch and its mask must
    /// leave the descriptor so lane indices stay aligned. Panics when the
    /// descriptor does not carry per-lane masks or `keep` has the wrong
    /// length.
    pub fn retain_lanes(&mut self, keep: &[bool]) {
        match &mut self.mask {
            MaskStore::PerLane { masks, .. } => {
                assert_eq!(keep.len(), masks.len(), "keep flags must cover every lane mask");
                let mut lane = 0usize;
                masks.retain(|_| {
                    let k = keep[lane];
                    lane += 1;
                    k
                });
            }
            _ => panic!("descriptor has no per-lane masks; build with .lane_masks(k, mode)"),
        }
    }

    /// Empties every mask bitmap (shared or per-lane), keeping allocations
    /// where the descriptor is the sole owner, so it can serve a fresh
    /// traversal.
    pub fn mask_clear(&mut self) {
        match &mut self.mask {
            MaskStore::Unmasked => {}
            MaskStore::Shared { bits, .. } => bits.clear(),
            MaskStore::PerLane { masks, .. } => {
                masks.iter_mut().for_each(|m| Arc::make_mut(m).clear())
            }
        }
    }

    /// Replaces the descriptor's mask with one caller-provided bitmap per
    /// lane — the serving-engine idiom, where every coalesced request brings
    /// its own `Arc`-shared mask and the pooled descriptor is re-masked
    /// before each fused flush by moving refcounts, never bits. The
    /// prepared kernels (and their workspaces) are kept.
    ///
    /// Panics when any bitmap does not span the matrix's row space.
    pub fn set_lane_masks(&mut self, masks: Vec<Arc<MaskBits>>, mode: MaskMode) {
        for bits in &masks {
            assert_eq!(
                bits.len(),
                self.matrix.nrows(),
                "lane mask covers {} rows but the matrix has {} output rows",
                bits.len(),
                self.matrix.nrows()
            );
        }
        self.mask = MaskStore::PerLane { masks, mode };
    }

    /// Removes the mask entirely (keeping the prepared kernels), so the same
    /// pooled descriptor can serve masked and unmasked flushes alternately.
    pub fn unmask(&mut self) {
        self.mask = MaskStore::Unmasked;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_substrate::gen::{erdos_renyi, random_sparse_vec};
    use sparse_substrate::ops::spmspv_reference;
    use sparse_substrate::{fixtures, PlusTimes, Select2ndMin};

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
        assert_eq!(batch.lane_vec(0), single);
        assert_eq!(op.algorithm_kind(), AlgorithmKind::Adaptive);
        assert_eq!(op.batch_algorithm_kind(), BatchAlgorithmKind::Adaptive);
        assert_eq!(op.mask_mode(), None);
        let info = op.last_batch_run_info().expect("batched run recorded its resolution");
        assert_ne!(info.kernel, BatchAlgorithmKind::Adaptive, "info must be concrete");
    }

    #[test]
    fn batch_run_info_is_per_call() {
        let a = erdos_renyi(150, 6.0, 11);
        let lanes: Vec<SparseVec<f64>> = (0..3).map(|l| random_sparse_vec(150, 30, l)).collect();
        let busy = SparseVecBatch::from_lanes(&lanes).unwrap();
        let idle = SparseVecBatch::<f64>::new(150, 3);
        for kind in BatchAlgorithmKind::all() {
            for threads in [1usize, 2] {
                let mut op = Mxv::over(&a)
                    .semiring(&PlusTimes)
                    .batch_algorithm(kind)
                    .options(SpMSpVOptions::with_threads(threads))
                    .prepare();
                assert_eq!(op.last_batch_run_info(), None, "{kind}: nothing ran yet");
                let _ = op.run_batch(&busy);
                assert!(op.last_batch_run_info().is_some(), "{kind}: a run that merged");
                // An all-empty batch executes nothing; reporting the
                // previous call's kernel here is what the engine used to
                // record as a flush's choice.
                assert!(op.run_batch(&idle).is_empty());
                assert_eq!(op.last_batch_run_info(), None, "{kind}/{threads}t: stale run info");
            }
        }
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
    fn per_lane_masks_filter_each_lane_independently() {
        let a = fixtures::figure1_matrix();
        let x = fixtures::figure1_vector();
        let batch = SparseVecBatch::from_lanes(&[x.clone(), x.clone()]).unwrap();
        let mut op =
            Mxv::over(&a).semiring(&PlusTimes).lane_masks(2, MaskMode::Complement).prepare();
        let unmasked = spmspv_reference(&a, &x, &PlusTimes);
        let lane1_first = unmasked.iter().next().unwrap().0;
        op.lane_mask_mut(1).insert(lane1_first);
        let y = op.run_batch(&batch);
        assert_eq!(y.lane_vec(0).nnz(), unmasked.nnz(), "lane 0 unmasked");
        assert!(y.lane_vec(1).get(lane1_first).is_none(), "lane 1 masked");
        assert_eq!(op.lane_mask_count(), Some(2));
    }

    #[test]
    fn retain_lanes_tracks_retirement() {
        let a = fixtures::tridiagonal(10);
        let mut op: PreparedMxv<'_, f64, usize, Select2ndMin> =
            Mxv::over(&a).semiring(&Select2ndMin).lane_masks(3, MaskMode::Complement).prepare();
        op.lane_mask_mut(0).insert(0);
        op.lane_mask_mut(2).insert(2);
        op.retain_lanes(&[false, true, true]);
        assert_eq!(op.lane_mask_count(), Some(2));
        // The surviving masks kept their contents and shifted down.
        assert!(!op.lane_mask_mut(0).contains(0));
        assert!(op.lane_mask_mut(1).contains(2));
    }

    #[test]
    fn every_batch_selector_agrees_with_fused() {
        let a = erdos_renyi(120, 5.0, 7);
        let lanes: Vec<_> = (0..3).map(|l| random_sparse_vec(120, 20, l as u64)).collect();
        let batch = SparseVecBatch::from_lanes(&lanes).unwrap();
        let bits = MaskBits::from_indices(120, (0..120).step_by(2));
        let run = |kind: BatchAlgorithmKind| {
            let mut op = Mxv::over(&a)
                .semiring(&PlusTimes)
                .batch_algorithm(kind)
                .mask(&bits, MaskMode::Keep)
                .prepare();
            op.run_batch(&batch)
        };
        let fused = run(BatchAlgorithmKind::Bucket);
        for kind in BatchAlgorithmKind::all().into_iter().skip(1) {
            assert_eq!(fused, run(kind), "{kind} disagrees with the fused batch under a mask");
        }
    }

    #[test]
    fn try_run_batch_catches_kernel_panics_as_errors() {
        use crate::engine::EngineError;
        let a = fixtures::tridiagonal(6);
        let x = SparseVec::from_pairs(6, vec![(0, 1.0)]).unwrap();
        let batch = SparseVecBatch::from_lanes(&[x.clone(), x.clone()]).unwrap();
        // 3 lane masks against a 2-lane batch trips a kernel assertion; the
        // fallible entry point must surface it, not unwind.
        let mut op = Mxv::over(&a)
            .semiring(&PlusTimes)
            .batch_algorithm(BatchAlgorithmKind::Naive)
            .lane_masks(3, MaskMode::Keep)
            .prepare();
        let err = op.try_run_batch(&batch).map(drop).expect_err("mismatched lane masks must fail");
        match err {
            EngineError::KernelFailed(msg) => {
                assert!(msg.contains("lanes"), "panic message lost: {msg}")
            }
            other => panic!("expected KernelFailed, got {other:?}"),
        }
        // A healthy call through the same entry point still succeeds.
        let mut ok = Mxv::over(&a).semiring(&PlusTimes).prepare();
        let y = ok.try_run_batch(&batch).expect("healthy batch run");
        assert_eq!(y.lane_vec(0), ok.run(&x));
    }

    #[test]
    #[should_panic(expected = "mask covers 4 rows but the matrix has 8 output rows")]
    fn undersized_mask_is_rejected_at_description_time() {
        let a = fixtures::figure1_matrix();
        let _ = Mxv::over(&a).semiring(&PlusTimes).mask(&MaskBits::new(4), MaskMode::Keep);
    }

    #[test]
    #[should_panic(expected = "per-lane mask has 3 lanes but the input batch has 2 lanes")]
    fn lane_mask_count_mismatch_panics_on_every_batch_family() {
        let a = fixtures::tridiagonal(6);
        let x = SparseVec::from_pairs(6, vec![(0, 1.0)]).unwrap();
        let batch = SparseVecBatch::from_lanes(&[x.clone(), x]).unwrap();
        let mut op = Mxv::over(&a)
            .semiring(&PlusTimes)
            .batch_algorithm(BatchAlgorithmKind::Naive)
            .lane_masks(3, MaskMode::Keep)
            .prepare();
        let _ = op.run_batch(&batch);
    }

    #[test]
    #[should_panic(expected = "per-lane masks apply to run_batch")]
    fn single_run_under_per_lane_masks_panics() {
        let a = fixtures::tridiagonal(4);
        let x = SparseVec::from_pairs(4, vec![(0, 1.0)]).unwrap();
        let mut op = Mxv::over(&a).semiring(&PlusTimes).lane_masks(2, MaskMode::Keep).prepare();
        let _ = op.run(&x);
    }
}
