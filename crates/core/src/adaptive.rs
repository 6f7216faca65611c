//! Density-driven dispatch: pick the kernel family per call.
//!
//! The paper's central claim is *work-efficiency*: the bucket algorithm does
//! `O(flops)` work where SPA-based competitors pay `O(m)` for accumulator
//! setup. Generation stamps already removed the setup cost from every
//! accumulator in this workspace, but the *constant factors* of the kernel
//! families still cross over with frontier density and thread count:
//!
//! * for tiny frontiers the parallel pipeline is overhead over the
//!   sequential SPA;
//! * with one worker, a single flat SPA pass has none of the bucket
//!   pipeline's fixed costs and stays ahead until the working set outgrows
//!   it.
//!
//! [`AdaptiveSpMSpV`] sits in front of the two kernels and resolves these
//! trade-offs per call from `(frontier nnz, m, threads)`. [`AdaptiveBatch`]
//! applies it per lane on the [lane runner](crate::batch): a lane spread
//! over the pool runs on a one-thread kernel and so takes the single-thread
//! rule. The crossovers are the named constants below — measured once on
//! the reference dev container, not settable: no caller ever needed a
//! different value, and the committed ledger under `benchmark/results/`
//! (`adaptive.sequential_share`, `adaptive.regret`) is where a change to
//! one of them has to show up.
//!
//! Both kernels reduce each row in ascending-column order, so the
//! dispatcher's choice never changes the result — adaptive output is
//! bit-identical to whichever kernel it delegates to, which the property
//! tests assert.

use sparse_substrate::{CscMatrix, Scalar, Semiring, SparseVec, SparseVecBatch};

use crate::algorithm::{AlgorithmKind, MatrixRef, SpMSpV, SpMSpVOptions};
use crate::baselines::SequentialSpa;
use crate::batch::{BatchRunInfo, LaneKernel, LaneRunner, SpMSpVBatch};
use crate::bucket::SpMSpVBucket;
use crate::masked::{BatchMaskView, MaskView};

/// Single-vector: estimated flops at or below which the sequential SPA beats
/// the parallel bucket pipeline's fixed costs.
const SEQUENTIAL_FLOPS_CUTOFF: usize = 256;
/// One worker: estimated flops at or below which the sequential SPA runs
/// instead of the one-participant bucket kernel.
///
/// The value was measured with the batched row-split kernel, since deleted,
/// running one piece: a single flat SPA pass, which stayed ahead of the
/// bucket pipeline well past a million flops. It has not been re-measured
/// against the one-participant bucket kernel; ROADMAP direction 2(a)
/// re-derives it.
const ONE_WORKER_SPA_FLOPS_CUTOFF: usize = 1 << 22;
/// One worker: largest row count `m` at which the sequential SPA runs
/// instead of the one-participant bucket kernel for non-tiny frontiers —
/// beyond it the `O(m)` accumulator's scatter is miss-dominated. Measured,
/// and due to be re-derived, like [`ONE_WORKER_SPA_FLOPS_CUTOFF`].
const ONE_WORKER_SPA_MAX_M: usize = 1 << 17;

/// Estimated multiplications for a frontier of `nnz` entries against
/// `matrix` (mean column degree × nnz — exact counting would cost a pass
/// over the frontier, which dispatch must not).
fn estimated_flops<A: Scalar>(matrix: &CscMatrix<A>, nnz: usize) -> usize {
    let cols = matrix.ncols().max(1);
    nnz.saturating_mul(matrix.nnz()) / cols
}

/// [`AlgorithmKind::Adaptive`]: dispatches each single-vector call between
/// the parallel bucket kernel and the sequential SPA from the frontier's
/// estimated flops. Both delegates are instantiated lazily and keep their
/// workspaces across calls, exactly like a fixed-family descriptor.
///
/// Both delegates reduce each row in ascending-column order, so switching
/// families mid-traversal never changes a result.
pub struct AdaptiveSpMSpV<'a, A, X, S: Semiring<A, X>> {
    matrix: MatrixRef<'a, A>,
    options: SpMSpVOptions,
    threads: usize,
    bucket: Option<SpMSpVBucket<'a, A, X, S>>,
    sequential: Option<SequentialSpa<'a, A, S::Output>>,
    last: Option<AlgorithmKind>,
}

impl<'a, A, X, S> AdaptiveSpMSpV<'a, A, X, S>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X>,
{
    /// Prepares the dispatcher (no kernel is instantiated until the first
    /// call needs it).
    pub fn new(matrix: impl Into<MatrixRef<'a, A>>, options: SpMSpVOptions) -> Self {
        let threads = options.build_executor().threads();
        AdaptiveSpMSpV {
            matrix: matrix.into(),
            options,
            threads,
            bucket: None,
            sequential: None,
            last: None,
        }
    }

    /// The fixed family the most recent call delegated to (`None` before
    /// the first call).
    pub fn last_choice(&self) -> Option<AlgorithmKind> {
        self.last
    }

    fn choose(&self, x: &SparseVec<X>) -> AlgorithmKind {
        let flops = estimated_flops(&self.matrix, x.nnz());
        // With one worker the bucket pipeline's fixed costs never pay until
        // the working set outgrows a single SPA pass, so the one-worker
        // cutoff is much larger — but only while m is small enough that the
        // flat O(m) SPA's scatter stays cache-friendly.
        let cutoff = if self.threads == 1 && self.matrix.nrows() <= ONE_WORKER_SPA_MAX_M {
            SEQUENTIAL_FLOPS_CUTOFF.max(ONE_WORKER_SPA_FLOPS_CUTOFF)
        } else {
            SEQUENTIAL_FLOPS_CUTOFF
        };
        if flops <= cutoff {
            AlgorithmKind::Sequential
        } else {
            AlgorithmKind::Bucket
        }
    }
}

impl<'a, A, X, S> SpMSpV<A, X, S> for AdaptiveSpMSpV<'a, A, X, S>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X>,
{
    fn name(&self) -> &'static str {
        "Adaptive"
    }

    fn nrows(&self) -> usize {
        self.matrix.nrows()
    }

    fn ncols(&self) -> usize {
        self.matrix.ncols()
    }

    fn multiply(&mut self, x: &SparseVec<X>, semiring: &S) -> SparseVec<S::Output> {
        self.multiply_masked(x, semiring, None)
    }

    fn multiply_masked(
        &mut self,
        x: &SparseVec<X>,
        semiring: &S,
        mask: Option<MaskView<'_>>,
    ) -> SparseVec<S::Output> {
        if let Some(mask) = mask {
            mask.check_rows(self.matrix.nrows());
        }
        let choice = self.choose(x);
        self.last = Some(choice);
        crate::obs::record_adaptive_single(choice);
        match choice {
            AlgorithmKind::Sequential => {
                let seq = self.sequential.get_or_insert_with(|| {
                    SequentialSpa::new(self.matrix.clone(), self.options.clone())
                });
                SpMSpV::<A, X, S>::multiply_masked(seq, x, semiring, mask)
            }
            _ => {
                let bucket = self.bucket.get_or_insert_with(|| {
                    SpMSpVBucket::new(self.matrix.clone(), self.options.clone())
                });
                bucket.multiply_masked(x, semiring, mask)
            }
        }
    }
}

impl<'a, A, X, S> LaneKernel<'a, A, X, S> for AdaptiveSpMSpV<'a, A, X, S>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X>,
{
    fn build(matrix: MatrixRef<'a, A>, options: SpMSpVOptions) -> Self {
        AdaptiveSpMSpV::new(matrix, options)
    }
}

/// [`BatchAlgorithmKind::Adaptive`](crate::BatchAlgorithmKind::Adaptive):
/// [`AdaptiveSpMSpV`] applied per lane on the [lane runner](crate::batch).
/// Each lane's kernel picks its family from that lane's frontier (the
/// `adaptive.single.*` counters count the picks);
/// [`SpMSpVBatch::last_run_info`] reports the runner,
/// [`BatchAlgorithmKind::Bucket`](crate::BatchAlgorithmKind::Bucket).
pub struct AdaptiveBatch<'a, A, X, S: Semiring<A, X>> {
    lanes: LaneRunner<'a, A, AdaptiveSpMSpV<'a, A, X, S>>,
}

impl<'a, A, X, S> AdaptiveBatch<'a, A, X, S>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X>,
{
    /// Prepares the dispatcher (no lane kernel is built until a call needs
    /// it).
    pub fn new(matrix: impl Into<MatrixRef<'a, A>>, options: SpMSpVOptions) -> Self {
        AdaptiveBatch { lanes: LaneRunner::new(matrix.into(), options) }
    }
}

impl<'a, A, X, S> SpMSpVBatch<A, X, S> for AdaptiveBatch<'a, A, X, S>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X>,
{
    fn name(&self) -> &'static str {
        "Adaptive-batch"
    }

    fn nrows(&self) -> usize {
        self.lanes.matrix().nrows()
    }

    fn ncols(&self) -> usize {
        self.lanes.matrix().ncols()
    }

    fn multiply_batch(&mut self, x: &SparseVecBatch<X>, semiring: &S) -> SparseVecBatch<S::Output> {
        self.multiply_batch_masked(x, semiring, None)
    }

    fn multiply_batch_masked(
        &mut self,
        x: &SparseVecBatch<X>,
        semiring: &S,
        mask: Option<&BatchMaskView<'_>>,
    ) -> SparseVecBatch<S::Output> {
        self.lanes.run(x, semiring, mask).0
    }

    fn last_run_info(&self) -> Option<BatchRunInfo> {
        self.lanes.last_run_info()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_substrate::fixtures::tridiagonal;
    use sparse_substrate::gen::{erdos_renyi, random_sparse_vec};
    use sparse_substrate::ops::spmspv_reference;
    use sparse_substrate::PlusTimes;

    /// A frontier size whose estimated flops against `a` exceed `flops`.
    fn nnz_past(a: &CscMatrix<f64>, flops: usize) -> usize {
        (flops + 1) * a.ncols() / a.nnz() + 1
    }

    #[test]
    fn single_adaptive_matches_its_delegates() {
        let a = erdos_renyi(300, 6.0, 5);
        let opts = SpMSpVOptions::with_threads(2);
        let mut seen = Vec::new();
        // ~6 flops per frontier entry: 1 and 4 sit under the sequential
        // cutoff, 200 well past it.
        for nnz in [1usize, 4, 200] {
            let x = random_sparse_vec(300, nnz, 7 + nnz as u64);
            let mut adaptive: AdaptiveSpMSpV<'_, f64, f64, PlusTimes> =
                AdaptiveSpMSpV::new(&a, opts.clone());
            let y = adaptive.multiply(&x, &PlusTimes);
            let choice = adaptive.last_choice().expect("ran above");
            let mut fixed = crate::build_algorithm::<f64, f64, PlusTimes>(&a, choice, opts.clone());
            assert_eq!(y, fixed.multiply(&x, &PlusTimes), "adaptive ≠ its {choice} delegate");
            let expected = spmspv_reference(&a, &x, &PlusTimes);
            assert!(y.approx_same_entries(&expected, 1e-9));
            seen.push(choice);
        }
        assert_eq!(
            seen,
            [AlgorithmKind::Sequential, AlgorithmKind::Sequential, AlgorithmKind::Bucket],
            "the frontier sizes must cross the sequential cutoff"
        );
    }

    #[test]
    fn tiny_sorted_frontiers_go_sequential_big_ones_bucket() {
        let a = erdos_renyi(500, 8.0, 3);
        let mut adaptive: AdaptiveSpMSpV<'_, f64, f64, PlusTimes> =
            AdaptiveSpMSpV::new(&a, SpMSpVOptions::with_threads(4));
        let tiny = random_sparse_vec(500, 2, 1);
        let _ = adaptive.multiply(&tiny, &PlusTimes);
        assert_eq!(adaptive.last_choice(), Some(AlgorithmKind::Sequential));
        let big = random_sparse_vec(500, nnz_past(&a, SEQUENTIAL_FLOPS_CUTOFF), 2);
        let _ = adaptive.multiply(&big, &PlusTimes);
        assert_eq!(adaptive.last_choice(), Some(AlgorithmKind::Bucket));

        // One worker: the same big frontier stays on the flat SPA pass while
        // m is small, and goes back to the bucket kernel once m outgrows it.
        let mut one: AdaptiveSpMSpV<'_, f64, f64, PlusTimes> =
            AdaptiveSpMSpV::new(&a, SpMSpVOptions::with_threads(1));
        let _ = one.multiply(&big, &PlusTimes);
        assert_eq!(one.last_choice(), Some(AlgorithmKind::Sequential));
        let tall = tridiagonal(ONE_WORKER_SPA_MAX_M + 1);
        let mut one: AdaptiveSpMSpV<'_, f64, f64, PlusTimes> =
            AdaptiveSpMSpV::new(&tall, SpMSpVOptions::with_threads(1));
        let big = random_sparse_vec(tall.ncols(), nnz_past(&tall, SEQUENTIAL_FLOPS_CUTOFF), 2);
        let _ = one.multiply(&big, &PlusTimes);
        assert_eq!(one.last_choice(), Some(AlgorithmKind::Bucket));
    }

    #[test]
    fn batch_adaptive_family_decision() {
        // Each lane decides for itself. A narrow batch (k < t) runs on the
        // runner's kernel of t participants, which takes the multi-thread
        // rule; lanes spread over the pool run on one-thread kernels, which
        // take the single-thread rule.
        let a = erdos_renyi(400, 6.0, 9);
        let big = nnz_past(&a, SEQUENTIAL_FLOPS_CUTOFF);
        let opts = SpMSpVOptions::with_threads(2);
        let batch = |k: usize, nnz: usize| {
            let lanes: Vec<_> =
                (0..k).map(|l| random_sparse_vec(400, nnz, 40 + l as u64)).collect();
            SparseVecBatch::from_lanes(&lanes).unwrap()
        };
        let mut alg: AdaptiveBatch<'_, f64, f64, PlusTimes> = AdaptiveBatch::new(&a, opts.clone());

        let one = batch(1, big);
        let y = alg.multiply_batch(&one, &PlusTimes);
        let (wide, idle) = alg.lanes.kernels();
        assert_eq!(wide.and_then(AdaptiveSpMSpV::last_choice), Some(AlgorithmKind::Bucket));
        assert!(idle.is_empty(), "k < t never checks out a one-thread kernel");
        let mut single: AdaptiveSpMSpV<'_, f64, f64, PlusTimes> = AdaptiveSpMSpV::new(&a, opts);
        assert_eq!(y.lane(0), &single.multiply(one.lane(0), &PlusTimes));

        let four = batch(4, big);
        let y = alg.multiply_batch(&four, &PlusTimes);
        let (_, idle) = alg.lanes.kernels();
        assert!(!idle.is_empty());
        for kernel in idle {
            assert_eq!(kernel.last_choice(), Some(AlgorithmKind::Sequential));
        }
        for l in 0..4 {
            let expected = spmspv_reference(&a, four.lane(l), &PlusTimes);
            assert!(y.lane(l).approx_same_entries(&expected, 1e-9), "lane {l}");
        }
        assert_eq!(
            alg.last_run_info().map(|info| info.kernel),
            Some(crate::BatchAlgorithmKind::Bucket)
        );
    }
}
