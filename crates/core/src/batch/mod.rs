//! Batched (multi-source) SpMSpV: `Y ← A ⊕.⊗ X` for a bundle of `k` sparse
//! vectors. A batch is its lanes.
//!
//! The motivating applications of SpMSpV — multi-source BFS, batched
//! personalized PageRank, betweenness-centrality-style sweeps — present `k`
//! sparse frontiers at once. Every batched family here computes output lane
//! `l` by running input lane `l` through a single-vector kernel; the
//! families differ only in the kernel and in how the lanes share the pool:
//!
//! * [`SpMSpVBucketBatch`] (over [`SpMSpVBucket`]) and
//!   [`AdaptiveBatch`](crate::AdaptiveBatch) (over
//!   [`AdaptiveSpMSpV`](crate::AdaptiveSpMSpV)) run on the lane runner.
//!   A batch gets the participants its exact flops, summed over the lanes,
//!   earn ([`Executor::capped_for`]); call that `t`. A *narrow* batch, one
//!   whose lanes earn two participants each on average (`2k ≤ t`), runs its
//!   lanes one after another on one kernel of the configured participants,
//!   which caps each lane by its own flops, so a one-lane batch is exactly a
//!   single-vector call. Any other batch is spread over `t` participants of
//!   the pool: [`Executor::map`] hands lanes out dynamically, and whichever
//!   participant claims a lane checks out a one-thread kernel for it and
//!   returns the kernel when the lane is done. So lanes too small to fork on
//!   their own still run side by side. The workspaces belong to
//!   participants, not lanes: the runner keeps at most `t` one-thread
//!   kernels and reuses them across calls.
//! * [`NaiveBatch`] runs the lanes one after another on one bucket kernel.
//!   It is the correctness oracle, the serving engine's degraded retry, and
//!   the baseline the benchmark's `batch.amortization` row compares against.
//!
//! ## Determinism
//!
//! Output lane `l` *is* a single-vector kernel's output for input lane `l`,
//! and every single-vector kernel in this crate reduces each row in
//! ascending-column order whatever its thread count. So every batched
//! result is **bit-identical** to `k` independent
//! [`SpMSpVBucket`] calls by construction — for
//! any semiring, including floating-point `(+, ×)` where reduction order
//! matters.

mod naive;

pub use naive::NaiveBatch;

use std::sync::{Mutex, PoisonError};

use sparse_substrate::ops::required_multiplications;
use sparse_substrate::{CscMatrix, Scalar, Semiring, SpaBackend, SparseVec, SparseVecBatch};

use crate::algorithm::{MatrixRef, SpMSpV, SpMSpVOptions};
use crate::bucket::SpMSpVBucket;
use crate::executor::Executor;
use crate::masked::{BatchMaskView, MaskView};
use crate::timing::StepTimings;

/// A prepared batched SpMSpV computation `Y ← A ⊕.⊗ X` over a fixed matrix,
/// where `X` and `Y` are sparse multi-vectors with matching lane counts.
///
/// The batched counterpart of [`crate::SpMSpV`]. Implementations may be
/// called with varying `k` between calls; workspaces grow amortized.
pub trait SpMSpVBatch<A: Scalar, X: Scalar, S: Semiring<A, X>>: Send {
    /// Human-readable algorithm name.
    fn name(&self) -> &'static str;

    /// Number of matrix rows (`m`, the dimension of every output lane).
    fn nrows(&self) -> usize;

    /// Number of matrix columns (`n`, the dimension of every input lane).
    fn ncols(&self) -> usize;

    /// Computes `Y ← A ⊕.⊗ X` lane-wise: output lane `l` is
    /// `A ⊕.⊗ X[l]`, its indices ascending like every lane's.
    fn multiply_batch(&mut self, x: &SparseVecBatch<X>, semiring: &S) -> SparseVecBatch<S::Output>;

    /// Computes `Y ← ⟨mask⟩ (A ⊕.⊗ X)`: like
    /// [`SpMSpVBatch::multiply_batch`], but only output rows the mask keeps
    /// (per lane, for a [`BatchMaskView::PerLane`] mask) may appear.
    ///
    /// The default implementation post-filters an unmasked product; the
    /// implementations in this crate override it to hand each lane's mask
    /// to its single-vector kernel, which consults it before it forms a
    /// product. Result entries are identical either way.
    fn multiply_batch_masked(
        &mut self,
        x: &SparseVecBatch<X>,
        semiring: &S,
        mask: Option<&BatchMaskView<'_>>,
    ) -> SparseVecBatch<S::Output> {
        let y = self.multiply_batch(x, semiring);
        match mask {
            None => y,
            Some(mask) => mask_filter_batch(y, mask),
        }
    }

    /// The concrete kernel family (and accumulator) the most recent call
    /// executed. The info is **per call**: every kernel in this crate
    /// reports `Some` after a multiplication that had anything to multiply
    /// and `None` before the first call and after a call on an all-empty
    /// input. `None` by default so third-party implementations stay
    /// source-compatible.
    fn last_run_info(&self) -> Option<BatchRunInfo> {
        None
    }
}

/// The concrete configuration one batched call executed with: which kernel
/// family ran and which accumulator its lanes merged through. Surfaced
/// through [`SpMSpVBatch::last_run_info`] so the serving engine's telemetry
/// ([`crate::stats::EngineStats`]) can record what ran per flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BatchRunInfo {
    /// The kernel family that executed (never
    /// [`BatchAlgorithmKind::Adaptive`], whose lanes run on the same runner
    /// as [`BatchAlgorithmKind::Bucket`] and report it).
    pub kernel: BatchAlgorithmKind,
    /// The accumulator the merge ran through.
    pub backend: SpaBackend,
}

impl std::fmt::Display for BatchRunInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.kernel.label(), self.backend.label())
    }
}

/// Post-filters a batched product through a mask — the fallback path the
/// default [`SpMSpVBatch::multiply_batch_masked`] uses (and the oracle the
/// in-kernel implementations are property-tested against).
pub fn mask_filter_batch<T: Scalar>(
    y: SparseVecBatch<T>,
    mask: &BatchMaskView<'_>,
) -> SparseVecBatch<T> {
    mask.check_lanes(y.k());
    mask.check_rows(y.len());
    let m = y.len();
    let mut lanes = y.into_lanes();
    for (l, lane) in lanes.iter_mut().enumerate() {
        let view = mask.lane_view(l);
        lane.retain(|i, _| view.keeps(i));
    }
    SparseVecBatch::with_lanes(m, lanes).expect("filtering keeps every lane's dimension")
}

/// Identifier for each batched algorithm family — the batch counterpart of
/// [`crate::AlgorithmKind`], so callers can swap batched implementations the
/// same way the benchmark harness swaps single-vector ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatchAlgorithmKind {
    /// Every lane through a [`SpMSpVBucket`] kernel, lanes spread over the
    /// pool ([`SpMSpVBucketBatch`]).
    Bucket,
    /// `k` bucket calls one after another on one kernel ([`NaiveBatch`]) —
    /// the correctness oracle and amortization baseline.
    Naive,
    /// Every lane through an [`AdaptiveSpMSpV`](crate::AdaptiveSpMSpV)
    /// kernel, which picks the sequential SPA or the bucket kernel per lane
    /// ([`crate::adaptive::AdaptiveBatch`]). Lanes share the pool as for
    /// [`Self::Bucket`].
    Adaptive,
}

impl BatchAlgorithmKind {
    /// Display name, the batch counterpart of [`crate::AlgorithmKind::label`].
    pub fn label(&self) -> &'static str {
        match self {
            BatchAlgorithmKind::Bucket => "SpMSpV-bucket-batch",
            BatchAlgorithmKind::Naive => "Naive-batch",
            BatchAlgorithmKind::Adaptive => "Adaptive-batch",
        }
    }

    /// Every batched family, fixed ones first ([`Self::Adaptive`] last).
    pub fn all() -> [BatchAlgorithmKind; 3] {
        [BatchAlgorithmKind::Bucket, BatchAlgorithmKind::Naive, BatchAlgorithmKind::Adaptive]
    }

    /// The families a run can report (everything but [`Self::Adaptive`]).
    /// `const` so telemetry tables ([`crate::stats::ChoiceCounts`]) derive
    /// from this single source.
    pub const fn fixed() -> [BatchAlgorithmKind; 2] {
        [BatchAlgorithmKind::Bucket, BatchAlgorithmKind::Naive]
    }
}

impl std::fmt::Display for BatchAlgorithmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Builds a boxed [`SpMSpVBatch`] instance of the requested batched family,
/// generic over the semiring — mirrors [`crate::algorithm::build_algorithm`].
/// `matrix` is borrowed (`&CscMatrix`) or shared (`Arc<CscMatrix>`); see
/// [`MatrixRef`].
pub fn build_batch_algorithm<'a, A, X, S>(
    matrix: impl Into<MatrixRef<'a, A>>,
    kind: BatchAlgorithmKind,
    options: SpMSpVOptions,
) -> Box<dyn SpMSpVBatch<A, X, S> + 'a>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X> + 'a,
{
    let matrix = matrix.into();
    match kind {
        BatchAlgorithmKind::Bucket => Box::new(SpMSpVBucketBatch::new(matrix, options)),
        BatchAlgorithmKind::Naive => Box::new(NaiveBatch::new(matrix, options)),
        BatchAlgorithmKind::Adaptive => {
            Box::new(crate::adaptive::AdaptiveBatch::new(matrix, options))
        }
    }
}

/// Checks a batched call's operands against an `m × n` matrix on the
/// calling thread: the input's dimension, and the mask's lane count and
/// rows.
fn check_operands<X: Scalar>(
    (m, n): (usize, usize),
    x: &SparseVecBatch<X>,
    mask: Option<&BatchMaskView<'_>>,
) {
    assert_eq!(x.len(), n, "input batch has dimension {} but the matrix has {n} columns", x.len());
    if let Some(mask) = mask {
        mask.check_lanes(x.k());
        mask.check_rows(m);
    }
}

/// A single-vector kernel the lane runner builds and runs lanes on.
pub(crate) trait LaneKernel<'a, A: Scalar, X: Scalar, S: Semiring<A, X>>:
    SpMSpV<A, X, S> + Sized
{
    /// Prepares a kernel over `matrix`.
    fn build(matrix: MatrixRef<'a, A>, options: SpMSpVOptions) -> Self;

    /// Multiplies one lane. A kernel without a step breakdown reports zero
    /// timings.
    fn run_lane(
        &mut self,
        x: &SparseVec<X>,
        semiring: &S,
        mask: Option<MaskView<'_>>,
    ) -> (SparseVec<S::Output>, StepTimings) {
        (self.multiply_masked(x, semiring, mask), StepTimings::default())
    }
}

impl<'a, A: Scalar, X: Scalar, S: Semiring<A, X>> LaneKernel<'a, A, X, S>
    for SpMSpVBucket<'a, A, X, S>
{
    fn build(matrix: MatrixRef<'a, A>, options: SpMSpVOptions) -> Self {
        SpMSpVBucket::new(matrix, options)
    }

    fn run_lane(
        &mut self,
        x: &SparseVec<X>,
        semiring: &S,
        mask: Option<MaskView<'_>>,
    ) -> (SparseVec<S::Output>, StepTimings) {
        self.multiply_masked_with_timings(x, semiring, mask)
    }
}

/// Runs every lane of a batch through a single-vector kernel `K`. See the
/// [module docs](self) for how the lanes share the pool.
pub(crate) struct LaneRunner<'a, A, K> {
    matrix: MatrixRef<'a, A>,
    options: SpMSpVOptions,
    executor: Executor,
    /// The kernel of `t` participants that narrow batches (`2k ≤ t`) run
    /// their lanes on, built on first use.
    wide: Option<K>,
    /// Idle one-thread kernels. A participant pops one per lane it claims
    /// (building one if none is idle) and pushes it back after the lane, so
    /// there are never more than `t`. Every update under the lock is one
    /// pop or push, so the list stays valid even if a lock were poisoned.
    idle: Mutex<Vec<K>>,
    /// Whether the most recent call had anything to multiply (gates
    /// [`SpMSpVBatch::last_run_info`]).
    ran: bool,
}

impl<'a, A: Scalar, K> LaneRunner<'a, A, K> {
    pub(crate) fn new(matrix: MatrixRef<'a, A>, options: SpMSpVOptions) -> Self {
        let executor = options.build_executor();
        LaneRunner {
            matrix,
            options,
            executor,
            wide: None,
            idle: Mutex::new(Vec::new()),
            ran: false,
        }
    }

    pub(crate) fn matrix(&self) -> &CscMatrix<A> {
        &self.matrix
    }

    /// The wide kernel, if built, and the idle one-thread kernels.
    #[cfg(test)]
    pub(crate) fn kernels(&mut self) -> (Option<&K>, &[K]) {
        (self.wide.as_ref(), self.idle.get_mut().unwrap_or_else(PoisonError::into_inner))
    }

    /// What the most recent call ran: the lane runner, which is what
    /// [`BatchAlgorithmKind::Bucket`] names.
    pub(crate) fn last_run_info(&self) -> Option<BatchRunInfo> {
        self.ran.then_some(BatchRunInfo {
            kernel: BatchAlgorithmKind::Bucket,
            backend: SpaBackend::Dense,
        })
    }

    /// Computes `Y ← ⟨mask⟩ (A ⊕.⊗ X)` lane by lane and returns it with the
    /// lanes' step timings summed.
    pub(crate) fn run<X, S>(
        &mut self,
        x: &SparseVecBatch<X>,
        semiring: &S,
        mask: Option<&BatchMaskView<'_>>,
    ) -> (SparseVecBatch<S::Output>, StepTimings)
    where
        X: Scalar,
        S: Semiring<A, X>,
        K: LaneKernel<'a, A, X, S>,
    {
        check_operands((self.matrix.nrows(), self.matrix.ncols()), x, mask);
        self.ran = !x.is_empty();
        let lane_mask = |l| mask.map(|m| m.lane_view(l));
        // The participant count the batch's exact flops earn, summed over
        // its lanes. A batch whose lanes earn two participants each on
        // average (`2k ≤ t`) runs lane after lane on the kernel of the
        // configured participants, which caps each lane by its own flops; the
        // rest — and a batch of no lanes, which then builds no kernel —
        // spread over `t` participants of the pool, so lanes too small to
        // fork alone still run side by side.
        let flops = (0..x.k()).map(|l| required_multiplications(&self.matrix, x.lane(l))).sum();
        let executor = self.executor.capped_for(flops);
        let narrow = x.k() >= 1 && 2 * x.k() <= executor.threads();
        let lanes: Vec<(SparseVec<S::Output>, StepTimings)> = if narrow {
            let (matrix, options) = (&self.matrix, &self.options);
            let wide = self.wide.get_or_insert_with(|| K::build(matrix.clone(), options.clone()));
            (0..x.k()).map(|l| wide.run_lane(x.lane(l), semiring, lane_mask(l))).collect()
        } else {
            let (matrix, idle) = (&self.matrix, &self.idle);
            executor.map(0..x.k(), |l| {
                let idle_kernel = idle.lock().unwrap_or_else(PoisonError::into_inner).pop();
                let mut kernel = idle_kernel
                    .unwrap_or_else(|| K::build(matrix.clone(), SpMSpVOptions::with_threads(1)));
                let out = kernel.run_lane(x.lane(l), semiring, lane_mask(l));
                idle.lock().unwrap_or_else(PoisonError::into_inner).push(kernel);
                out
            })
        };

        // Chaos-testing hook, consulted on the calling thread once the lanes
        // are done and before they are merged into one batch. No-op unless a
        // test armed the site under the `failpoints` feature.
        if let Err(msg) = crate::failpoint::act("batch.merge") {
            panic!("failpoint batch.merge: {msg}");
        }
        let mut timings = StepTimings::default();
        let ys = lanes
            .into_iter()
            .map(|(y, lane_timings)| {
                timings += lane_timings;
                y
            })
            .collect();
        let y = SparseVecBatch::with_lanes(self.matrix.nrows(), ys)
            .expect("every lane has the matrix's row dimension");
        (y, timings)
    }
}

/// The bucket kernel applied per lane: the [lane runner](self) over
/// [`SpMSpVBucket`] kernels.
pub struct SpMSpVBucketBatch<'a, A, X, S: Semiring<A, X>> {
    lanes: LaneRunner<'a, A, SpMSpVBucket<'a, A, X, S>>,
}

impl<'a, A, X, S> SpMSpVBucketBatch<'a, A, X, S>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X>,
{
    /// Prepares the batched kernel for `matrix`. The lane kernels (and their
    /// `O(m)` accumulators) are built on first use and then reused.
    pub fn new(matrix: impl Into<MatrixRef<'a, A>>, options: SpMSpVOptions) -> Self {
        SpMSpVBucketBatch { lanes: LaneRunner::new(matrix.into(), options) }
    }

    /// The options this instance was built with.
    pub fn options(&self) -> &SpMSpVOptions {
        &self.lanes.options
    }

    /// Computes `Y ← A ⊕.⊗ X` and returns the lanes' per-step wall-clock
    /// breakdowns summed (`estimate` reads zero, as for
    /// [`SpMSpVBucket`]).
    pub fn multiply_batch_with_timings(
        &mut self,
        x: &SparseVecBatch<X>,
        semiring: &S,
    ) -> (SparseVecBatch<S::Output>, StepTimings) {
        self.multiply_batch_masked_with_timings(x, semiring, None)
    }

    /// Computes `Y ← ⟨mask⟩ (A ⊕.⊗ X)` with the lanes' per-step breakdowns
    /// summed. Each lane's mask is consulted inside its kernel's Step 1, so
    /// a masked-out product is never formed.
    pub fn multiply_batch_masked_with_timings(
        &mut self,
        x: &SparseVecBatch<X>,
        semiring: &S,
        mask: Option<&BatchMaskView<'_>>,
    ) -> (SparseVecBatch<S::Output>, StepTimings) {
        let (y, timings) = self.lanes.run(x, semiring, mask);
        if self.lanes.ran {
            crate::obs::record_batch_phases(&timings);
        }
        (y, timings)
    }
}

impl<'a, A, X, S> SpMSpVBatch<A, X, S> for SpMSpVBucketBatch<'a, A, X, S>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X>,
{
    fn name(&self) -> &'static str {
        "SpMSpV-bucket-batch"
    }

    fn nrows(&self) -> usize {
        self.lanes.matrix().nrows()
    }

    fn ncols(&self) -> usize {
        self.lanes.matrix().ncols()
    }

    fn multiply_batch(&mut self, x: &SparseVecBatch<X>, semiring: &S) -> SparseVecBatch<S::Output> {
        self.multiply_batch_with_timings(x, semiring).0
    }

    fn multiply_batch_masked(
        &mut self,
        x: &SparseVecBatch<X>,
        semiring: &S,
        mask: Option<&BatchMaskView<'_>>,
    ) -> SparseVecBatch<S::Output> {
        self.multiply_batch_masked_with_timings(x, semiring, mask).0
    }

    fn last_run_info(&self) -> Option<BatchRunInfo> {
        self.lanes.last_run_info()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_substrate::gen::{erdos_renyi, random_sparse_vec, rmat, RmatParams};
    use sparse_substrate::ops::spmspv_batch_reference;
    use sparse_substrate::{fixtures, PlusTimes, Select2ndMin, SparseVec};

    fn random_batch(n: usize, k: usize, nnz: usize, seed: u64) -> SparseVecBatch<f64> {
        let lanes: Vec<SparseVec<f64>> =
            (0..k).map(|l| random_sparse_vec(n, nnz.min(n), seed + 31 * l as u64)).collect();
        SparseVecBatch::from_lanes(&lanes).unwrap()
    }

    #[test]
    fn single_lane_batch_matches_single_vector_kernel() {
        let a = fixtures::figure1_matrix();
        let x = fixtures::figure1_vector();
        let batch_x = SparseVecBatch::from_single(&x);
        let mut batch = SpMSpVBucketBatch::new(&a, SpMSpVOptions::with_threads(2));
        let mut single = crate::SpMSpVBucket::new(&a, SpMSpVOptions::with_threads(2));
        let by = batch.multiply_batch(&batch_x, &PlusTimes);
        let sy = crate::SpMSpV::multiply(&mut single, &x, &PlusTimes);
        assert_eq!(by.k(), 1);
        assert_eq!(by.lane(0), &sy, "k=1 batch must be bit-identical to the single kernel");
    }

    #[test]
    fn matches_reference_across_k_threads_and_density() {
        let a = erdos_renyi(300, 6.0, 11);
        for k in [1usize, 3, 8] {
            for threads in [1usize, 2, 4] {
                for nnz in [1usize, 20, 150] {
                    let x = random_batch(300, k, nnz, 7 + k as u64 + nnz as u64);
                    let expected = spmspv_batch_reference(&a, &x, &PlusTimes);
                    let mut alg = SpMSpVBucketBatch::new(&a, SpMSpVOptions::with_threads(threads));
                    let y = alg.multiply_batch(&x, &PlusTimes);
                    assert!(
                        y.approx_same_entries(&expected, 1e-9),
                        "mismatch at k={k}, threads={threads}, nnz={nnz}"
                    );
                }
            }
        }
    }

    #[test]
    fn bit_identical_to_k_independent_bucket_calls() {
        let a = rmat(9, 8, RmatParams::graph500(), 3);
        let n = a.ncols();
        let x = random_batch(n, 5, 200, 42);
        let mut batch = SpMSpVBucketBatch::new(&a, SpMSpVOptions::with_threads(4));
        let y = batch.multiply_batch(&x, &PlusTimes);
        let mut single = crate::SpMSpVBucket::new(&a, SpMSpVOptions::with_threads(3));
        for l in 0..x.k() {
            let lane_y = crate::SpMSpV::multiply(&mut single, x.lane(l), &PlusTimes);
            assert_eq!(
                y.lane(l),
                &lane_y,
                "lane {l} differs from an independent SpMSpVBucket call"
            );
        }
    }

    #[test]
    fn select2nd_semiring_runs_batched() {
        let a = rmat(8, 8, RmatParams::graph500(), 9);
        let n = a.ncols();
        let lanes: Vec<SparseVec<usize>> = (0..3)
            .map(|l| SparseVec::from_pairs(n, vec![(l * 7 + 1, l * 7 + 1)]).unwrap())
            .collect();
        let x = SparseVecBatch::from_lanes(&lanes).unwrap();
        let expected = spmspv_batch_reference(&a, &x, &Select2ndMin);
        let mut alg = SpMSpVBucketBatch::new(&a, SpMSpVOptions::with_threads(4));
        let y = alg.multiply_batch(&x, &Select2ndMin);
        assert!(y.same_entries(&expected));
    }

    #[test]
    fn empty_and_ragged_lanes() {
        let a = fixtures::tridiagonal(40);
        let lanes = vec![
            SparseVec::new(40),
            SparseVec::from_pairs(40, vec![(0, 1.0)]).unwrap(),
            SparseVec::new(40),
            SparseVec::from_pairs(40, (0..40).map(|i| (i, 1.0)).collect()).unwrap(),
        ];
        let x = SparseVecBatch::from_lanes(&lanes).unwrap();
        let expected = spmspv_batch_reference(&a, &x, &PlusTimes);
        let mut alg = SpMSpVBucketBatch::new(&a, SpMSpVOptions::with_threads(8));
        let y = alg.multiply_batch(&x, &PlusTimes);
        assert!(y.approx_same_entries(&expected, 1e-12));
        assert!(y.lane(0).is_empty());
        assert!(y.lane(2).is_empty());
    }

    #[test]
    fn fully_empty_batch_short_circuits() {
        let a = fixtures::figure1_matrix();
        let x = SparseVecBatch::<f64>::new(8, 6);
        let mut alg = SpMSpVBucketBatch::new(&a, SpMSpVOptions::default());
        let y = alg.multiply_batch(&x, &PlusTimes);
        assert_eq!(y.k(), 6);
        assert!(y.is_empty());
    }

    #[test]
    fn workspace_survives_varying_k_across_calls() {
        let a = erdos_renyi(200, 5.0, 5);
        let mut alg = SpMSpVBucketBatch::new(&a, SpMSpVOptions::with_threads(2));
        for (call, k) in [1usize, 16, 4, 32, 2].into_iter().enumerate() {
            let x = random_batch(200, k, 30, call as u64);
            let expected = spmspv_batch_reference(&a, &x, &PlusTimes);
            let y = alg.multiply_batch(&x, &PlusTimes);
            assert!(y.approx_same_entries(&expected, 1e-9), "call {call} (k={k}) diverged");
        }
    }

    #[test]
    fn timings_cover_all_steps() {
        let a = erdos_renyi(1000, 8.0, 77);
        let x = random_batch(1000, 8, 200, 6);
        let mut alg = SpMSpVBucketBatch::new(&a, SpMSpVOptions::with_threads(2));
        let (y, t) = alg.multiply_batch_with_timings(&x, &PlusTimes);
        assert!(!y.is_empty());
        let f = t.fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn batch_run_info_is_per_call() {
        let a = erdos_renyi(150, 6.0, 11);
        let busy = random_batch(150, 3, 30, 0);
        let idle = SparseVecBatch::<f64>::new(150, 3);
        for kind in BatchAlgorithmKind::all() {
            for threads in [1usize, 2] {
                let mut alg = build_batch_algorithm::<f64, f64, PlusTimes>(
                    &a,
                    kind,
                    SpMSpVOptions::with_threads(threads),
                );
                assert_eq!(alg.last_run_info(), None, "{kind}: nothing ran yet");
                let _ = alg.multiply_batch(&busy, &PlusTimes);
                let info = alg.last_run_info().expect("a run that merged reports its family");
                assert_ne!(
                    info.kernel,
                    BatchAlgorithmKind::Adaptive,
                    "{kind}: info must be concrete"
                );
                // An all-empty batch executes nothing; reporting the previous
                // call's kernel here is what the engine would record as a
                // flush's choice.
                assert!(alg.multiply_batch(&idle, &PlusTimes).is_empty());
                assert_eq!(alg.last_run_info(), None, "{kind}/{threads}t: stale run info");
            }
        }
    }

    #[test]
    fn shared_handle_shares_the_matrix_and_matches_a_borrowed_one() {
        use std::sync::Arc;
        let a = Arc::new(erdos_renyi(200, 6.0, 13));
        let wide = random_batch(200, 3, 40, 1);
        let single = random_batch(200, 1, 40, 2);
        for kind in BatchAlgorithmKind::all() {
            for threads in [1usize, 2] {
                let opts = SpMSpVOptions::with_threads(threads);
                let mut shared = build_batch_algorithm::<f64, f64, PlusTimes>(
                    Arc::clone(&a),
                    kind,
                    opts.clone(),
                );
                let mut borrowed = build_batch_algorithm::<f64, f64, PlusTimes>(&*a, kind, opts);
                for x in [&wide, &single] {
                    let y = shared.multiply_batch(x, &PlusTimes);
                    assert_eq!(y, borrowed.multiply_batch(x, &PlusTimes), "{kind}/{threads}t");
                    assert_eq!(shared.last_run_info(), borrowed.last_run_info());
                }
                assert!(Arc::strong_count(&a) > 1, "{kind}: the kernel holds the Arc");
                if kind == BatchAlgorithmKind::Adaptive && threads == 1 {
                    // `a`, the runner, its one one-thread lane kernel and
                    // that kernel's lazily built sequential delegate — one
                    // matrix.
                    assert_eq!(Arc::strong_count(&a), 4);
                }
                drop(shared);
                assert_eq!(Arc::strong_count(&a), 1, "{kind}: dropping the kernel releases it");
            }
        }
    }

    #[test]
    fn zero_lane_batches_keep_the_matrix_dimension() {
        let a = fixtures::figure1_matrix();
        let x = SparseVecBatch::<f64>::new(a.ncols(), 0);
        let wrong = SparseVecBatch::<f64>::new(a.ncols() + 1, 0);
        for kind in BatchAlgorithmKind::all() {
            let opts = SpMSpVOptions::with_threads(2);
            let mut alg = build_batch_algorithm::<f64, f64, PlusTimes>(&a, kind, opts);
            let y = alg.multiply_batch(&x, &PlusTimes);
            assert_eq!((y.len(), y.k()), (a.nrows(), 0), "{kind}");
            assert_eq!(alg.last_run_info(), None, "{kind}: nothing ran");
            // A zero-lane input of the wrong dimension is rejected too.
            let run = std::panic::AssertUnwindSafe(|| alg.multiply_batch(&wrong, &PlusTimes));
            let err = std::panic::catch_unwind(run).expect_err("a 9-column input must panic");
            let msg = err.downcast_ref::<String>().map_or("", String::as_str);
            assert!(msg.contains("columns"), "{kind}: {msg}");
        }
    }

    #[test]
    fn runner_keeps_at_most_t_lane_kernels_and_reuses_them() {
        use std::sync::Arc;
        let a = Arc::new(erdos_renyi(1000, 8.0, 21));
        for threads in [2usize, 3] {
            let mut alg = SpMSpVBucketBatch::<f64, f64, PlusTimes>::new(
                Arc::clone(&a),
                SpMSpVOptions::with_threads(threads),
            );
            // k = 32 ≥ t, and enough flops (~32 × 150 × 8) that the cap
            // leaves all t participants.
            let x = random_batch(1000, 32, 150, threads as u64);
            let flops = (0..x.k()).map(|l| required_multiplications(&a, x.lane(l))).sum();
            assert_eq!(Executor::new(threads).capped_for(flops).threads(), threads);
            let expected =
                NaiveBatch::new(&*a, SpMSpVOptions::with_threads(1)).multiply_batch(&x, &PlusTimes);
            // A kernel is built only when none is idle, so no more exist
            // than participants ever ran at once — however many pool
            // workers happen to join a given call — and a later call
            // reuses them instead of building more.
            let mut held = 1;
            for call in 0..4 {
                assert_eq!(alg.multiply_batch(&x, &PlusTimes), expected);
                let (wide, idle) = alg.lanes.kernels();
                assert!(wide.is_none(), "a spread batch never builds the wide kernel");
                let kernels = idle.len();
                assert!(
                    (held..=threads).contains(&kernels),
                    "t = {threads}, call {call}: {kernels} lane kernels after {held}"
                );
                held = kernels;
                // `a`, the runner and every kernel built: all idle again,
                // none dropped.
                assert_eq!(Arc::strong_count(&a), 2 + held, "t = {threads}, call {call}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn dimension_mismatch_panics() {
        let a = fixtures::figure1_matrix();
        let x = SparseVecBatch::<f64>::new(9, 2);
        let mut alg = SpMSpVBucketBatch::new(&a, SpMSpVOptions::default());
        let _ = alg.multiply_batch(&x, &PlusTimes);
    }
}
