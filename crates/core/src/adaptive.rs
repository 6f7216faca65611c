//! Density-driven dispatch: pick the kernel family per call.
//!
//! The paper's central claim is *work-efficiency*: the bucket algorithm does
//! `O(flops)` work where SPA-based competitors pay `O(m)` (or `O(m·k)`
//! batched) for accumulator setup. Generation stamps already removed the
//! setup cost from every accumulator in this workspace, but the *constant
//! factors* of the kernel families still cross over with frontier density,
//! batch width and thread count:
//!
//! * for tiny frontiers the parallel pipeline is overhead over the
//!   sequential SPA, and for `k = 1` the fused batch pipeline is overhead
//!   over the single-vector kernel;
//! * with one worker, a single fused-SPA row-split pass has none of the
//!   bucket pipeline's fixed costs and stays ahead until the working set
//!   outgrows it;
//! * a fused `m × k` accumulator that scatters over tens of megabytes loses
//!   to `k` per-lane calls whose `O(m)` accumulators stay cache-friendly.
//!
//! [`AdaptiveSpMSpV`] (single-vector) and [`AdaptiveBatch`] (batched) sit in
//! front of the fixed kernels and resolve these trade-offs per call from
//! `(frontier nnz, k, m, threads)`. The crossovers are the named constants
//! below — measured once on the reference dev container, not settable: no
//! caller ever needed a different value, and the committed ledger under
//! `benchmark/results/` (`adaptive.choice.*`, `adaptive.regret`) is where a
//! change to one of them has to show up.
//!
//! Because every fixed kernel in this workspace reduces each `(row, lane)`
//! in ascending-column order and emits ascending lanes, the dispatcher's
//! choice never changes the result — adaptive
//! output is bit-identical to whichever fixed family it delegates to, which
//! the property tests assert.

use sparse_substrate::{CscMatrix, Scalar, Semiring, SparseVec, SparseVecBatch};

use crate::algorithm::{AlgorithmKind, MatrixRef, SpMSpV, SpMSpVOptions};
use crate::baselines::SequentialSpa;
use crate::batch::{
    BatchAlgorithmKind, BatchRunInfo, CombBlasSpaBatch, NaiveBatch, SpMSpVBatch, SpMSpVBucketBatch,
};
use crate::bucket::SpMSpVBucket;
use crate::masked::{BatchMaskView, MaskView};

/// Single-vector: estimated flops at or below which the sequential SPA beats
/// the parallel bucket pipeline's fixed costs.
const SEQUENTIAL_FLOPS_CUTOFF: usize = 256;
/// Batched: widths `k` at or below this run as independent single-vector
/// calls ([`NaiveBatch`]) — fusing one lane is pure overhead.
const NAIVE_K_CUTOFF: usize = 1;
/// Batched, single-threaded: minimum width for the *wide-batch naive band* —
/// at large `k`, per-lane single-vector calls keep every accumulator at
/// `O(m)` instead of `O(m·k)`, which beats fusion for moderate per-lane work.
const NAIVE_WIDE_MIN_K: usize = 4;
/// Batched, single-threaded: minimum estimated flops **per lane** for the
/// wide-batch naive band (below it, `k` kernel launches dominate).
const NAIVE_MIN_FLOPS_PER_LANE: usize = 512;
/// Batched, single-threaded: fused-accumulator footprint `m·k` (slots) at or
/// above which per-lane naive calls win outright — each lane's `O(m)`
/// accumulator stays TLB/cache-friendly where one `O(m·k)` accumulator
/// scatters over tens of megabytes.
const FUSED_MAX_SLOTS: usize = 1 << 22;
/// Single-threaded: estimated flops at or below which one flat SPA pass (the
/// row-split kernel with one piece, or the sequential kernel) beats the
/// three-pass bucket pipeline. With one worker the row-split baseline
/// degenerates to a single fused-SPA pass with none of the bucket pipeline's
/// fixed costs, and stays ahead well past a million flops.
const ROWSPLIT_FLOPS_CUTOFF: usize = 1 << 22;
/// Single-threaded: largest row count `m` at which a flat sequential SPA
/// pass still wins for non-tiny frontiers — beyond it the `O(m)`
/// accumulator's scatter is miss-dominated and the per-lane bucket kernel
/// takes over.
const ROWSPLIT_MAX_M: usize = 1 << 17;

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
    matrix: &'a CscMatrix<A>,
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
    pub fn new(matrix: &'a CscMatrix<A>, options: SpMSpVOptions) -> Self {
        let threads = options.build_executor().threads();
        AdaptiveSpMSpV { matrix, options, threads, bucket: None, sequential: None, last: None }
    }

    /// The fixed family the most recent call delegated to (`None` before
    /// the first call).
    pub fn last_choice(&self) -> Option<AlgorithmKind> {
        self.last
    }

    fn choose(&self, x: &SparseVec<X>) -> AlgorithmKind {
        let flops = estimated_flops(self.matrix, x.nnz());
        // With one worker the parallel pipeline's fixed costs never pay
        // until the working set outgrows a single SPA pass, so the
        // single-thread cutoff is the (much larger) row-split one — but
        // only while m is small enough that the flat O(m) SPA's scatter
        // stays cache-friendly.
        let cutoff = if self.threads == 1 && self.matrix.nrows() <= ROWSPLIT_MAX_M {
            SEQUENTIAL_FLOPS_CUTOFF.max(ROWSPLIT_FLOPS_CUTOFF)
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
                let seq = self
                    .sequential
                    .get_or_insert_with(|| SequentialSpa::new(self.matrix, self.options.clone()));
                SpMSpV::<A, X, S>::multiply_masked(seq, x, semiring, mask)
            }
            _ => {
                let bucket = self
                    .bucket
                    .get_or_insert_with(|| SpMSpVBucket::new(self.matrix, self.options.clone()));
                bucket.multiply_masked(x, semiring, mask)
            }
        }
    }
}

/// [`BatchAlgorithmKind::Adaptive`]: dispatches each batched call between
/// the fused bucket kernel, the per-lane naive fallback, and the row-split
/// baseline from `(total nnz, k, m, threads)`. Delegates are lazy and keep
/// their workspaces across calls.
pub struct AdaptiveBatch<'a, A, X, S: Semiring<A, X>> {
    matrix: MatrixRef<'a, A>,
    options: SpMSpVOptions,
    threads: usize,
    bucket: Option<SpMSpVBucketBatch<'a, A, X, S>>,
    naive: Option<NaiveBatch<'a, A, X, S>>,
    rowsplit: Option<CombBlasSpaBatch<'a, A, X, S>>,
    last: Option<BatchRunInfo>,
}

impl<'a, A, X, S> AdaptiveBatch<'a, A, X, S>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X>,
{
    /// Prepares the dispatcher (no kernel is instantiated until the first
    /// call needs it).
    pub fn new(matrix: impl Into<MatrixRef<'a, A>>, options: SpMSpVOptions) -> Self {
        let threads = options.build_executor().threads();
        AdaptiveBatch {
            matrix: matrix.into(),
            options,
            threads,
            bucket: None,
            naive: None,
            rowsplit: None,
            last: None,
        }
    }

    /// What the most recent call executed (`None` before the first call and
    /// after a call that merged nothing).
    pub fn last_choice(&self) -> Option<BatchRunInfo> {
        self.last
    }

    /// The family a batch of this shape dispatches to (exposed so tests and
    /// the bench can compare the adaptive run against its delegate).
    pub fn choose(&self, total_nnz: usize, k: usize) -> BatchAlgorithmKind {
        let flops = estimated_flops(&self.matrix, total_nnz);
        if self.threads == 1 && flops <= ROWSPLIT_FLOPS_CUTOFF {
            // Single-threaded regime. Per-lane naive calls win when
            // each lane carries enough work to amortize its kernel launch,
            // or when the fused accumulator's m·k footprint is so large
            // that any one-accumulator layout scatters over tens of
            // megabytes — per-lane O(m) accumulators stay TLB/cache
            // friendly. The single fused-SPA row-split pass (no bucket/
            // gather costs, no multi-piece duplication) takes what
            // is left, provided m itself is small enough that its flat
            // scatter is not miss-dominated — past that, naive again.
            let per_lane = flops / k.max(1);
            if k >= NAIVE_WIDE_MIN_K && per_lane >= NAIVE_MIN_FLOPS_PER_LANE {
                return BatchAlgorithmKind::Naive;
            }
            if self.matrix.nrows().saturating_mul(k) >= FUSED_MAX_SLOTS {
                return BatchAlgorithmKind::Naive;
            }
            if self.matrix.nrows() <= ROWSPLIT_MAX_M || per_lane <= SEQUENTIAL_FLOPS_CUTOFF {
                return BatchAlgorithmKind::CombBlasRowSplit;
            }
            return BatchAlgorithmKind::Naive;
        }
        if k <= NAIVE_K_CUTOFF {
            return BatchAlgorithmKind::Naive;
        }
        // Past the single-pass cutoff (or with real parallelism) bulk work
        // amortizes the fused accumulator — the bucket pipeline's cache-
        // blocked merge is built for exactly this regime, so the footprint
        // rule above deliberately does not extend here.
        BatchAlgorithmKind::Bucket
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
        self.matrix.nrows()
    }

    fn ncols(&self) -> usize {
        self.matrix.ncols()
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
        if let Some(mask) = mask {
            mask.check_rows(self.matrix.nrows());
        }
        let kernel = self.choose(x.total_nnz(), x.k());
        crate::obs::record_adaptive_batch_kernel(kernel);
        let (y, info) = match kernel {
            BatchAlgorithmKind::Naive => {
                let naive = self.naive.get_or_insert_with(|| {
                    NaiveBatch::new(self.matrix.clone(), self.options.clone())
                });
                let y = naive.multiply_batch_masked(x, semiring, mask);
                (y, naive.last_run_info())
            }
            BatchAlgorithmKind::CombBlasRowSplit => {
                let rowsplit = self.rowsplit.get_or_insert_with(|| {
                    CombBlasSpaBatch::new(self.matrix.clone(), self.options.clone())
                });
                let y = rowsplit.multiply_batch_masked(x, semiring, mask);
                (y, rowsplit.last_run_info())
            }
            _ => {
                let bucket = self.bucket.get_or_insert_with(|| {
                    SpMSpVBucketBatch::new(self.matrix.clone(), self.options.clone())
                });
                let y = bucket.multiply_batch_masked(x, semiring, mask);
                (y, bucket.last_run_info())
            }
        };
        self.last = info;
        y
    }

    fn last_run_info(&self) -> Option<BatchRunInfo> {
        self.last
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
        let tall = tridiagonal(ROWSPLIT_MAX_M + 1);
        let mut one: AdaptiveSpMSpV<'_, f64, f64, PlusTimes> =
            AdaptiveSpMSpV::new(&tall, SpMSpVOptions::with_threads(1));
        let big = random_sparse_vec(tall.ncols(), nnz_past(&tall, SEQUENTIAL_FLOPS_CUTOFF), 2);
        let _ = one.multiply(&big, &PlusTimes);
        assert_eq!(one.last_choice(), Some(AlgorithmKind::Bucket));
    }

    #[test]
    fn batch_adaptive_family_decision() {
        use BatchAlgorithmKind::{Bucket, CombBlasRowSplit, Naive};
        let a = erdos_renyi(400, 6.0, 9);
        let past_single_pass = nnz_past(&a, ROWSPLIT_FLOPS_CUTOFF);

        let one: AdaptiveBatch<'_, f64, f64, PlusTimes> =
            AdaptiveBatch::new(&a, SpMSpVOptions::with_threads(1));
        assert_eq!(one.choose(4, 8), CombBlasRowSplit);
        assert_eq!(one.choose(100, 1), CombBlasRowSplit, "one flat pass beats k = 1 naive");
        // Wide-batch naive band: enough per-lane work, bounded total.
        assert_eq!(one.choose(1_600, 16), Naive);
        assert_eq!(one.choose(64, 16), CombBlasRowSplit, "too little/lane");
        assert_eq!(one.choose(1_600, 2), CombBlasRowSplit, "too narrow");
        // A fused accumulator of FUSED_MAX_SLOTS or more never pays.
        assert_eq!(one.choose(64, FUSED_MAX_SLOTS / 400 - 1), CombBlasRowSplit);
        assert_eq!(one.choose(64, FUSED_MAX_SLOTS / 400 + 1), Naive);
        // Past the single-pass cutoff the thread count stops mattering.
        assert_eq!(one.choose(past_single_pass, 8), Bucket);
        assert_eq!(one.choose(past_single_pass, 1), Naive);

        // Past ROWSPLIT_MAX_M rows the flat pass only keeps tiny lanes.
        let tall = tridiagonal(ROWSPLIT_MAX_M + 1);
        let one: AdaptiveBatch<'_, f64, f64, PlusTimes> =
            AdaptiveBatch::new(&tall, SpMSpVOptions::with_threads(1));
        assert_eq!(one.choose(64, 2), CombBlasRowSplit);
        assert_eq!(one.choose(2 * nnz_past(&tall, SEQUENTIAL_FLOPS_CUTOFF), 2), Naive);

        // Multi-threaded: row-split duplicates work, never chosen.
        let four: AdaptiveBatch<'_, f64, f64, PlusTimes> =
            AdaptiveBatch::new(&a, SpMSpVOptions::with_threads(4));
        assert_eq!(four.choose(4, 8), Bucket);
        assert_eq!(four.choose(100, 1), Naive);
    }
}
