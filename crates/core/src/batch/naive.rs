//! The fallback batched algorithm: `k` single-vector [`SpMSpVBucket`] calls,
//! one after another on one kernel.
//!
//! This is the correctness oracle for the lane runner's families (every
//! batched result must match it lane for lane), the serving engine's
//! degraded retry, and the baseline the benchmark's `batch.amortization` row
//! compares against.

use sparse_substrate::{Scalar, Semiring, SpaBackend, SparseVec, SparseVecBatch};

use crate::algorithm::{MatrixRef, SpMSpV, SpMSpVOptions};
use crate::bucket::SpMSpVBucket;
use crate::masked::BatchMaskView;

use super::{assemble, check_operands, BatchAlgorithmKind, BatchRunInfo, SpMSpVBatch};

/// Batched SpMSpV as `k` independent bucket multiplications sharing one
/// prepared [`SpMSpVBucket`] instance (so the per-lane workspace reuse of
/// the single-vector kernel still applies).
pub struct NaiveBatch<'a, A, X, S: Semiring<A, X>> {
    inner: SpMSpVBucket<'a, A, X, S>,
    /// Whether the most recent call had anything to multiply (gates
    /// [`SpMSpVBatch::last_run_info`]).
    ran: bool,
}

impl<'a, A, X, S> NaiveBatch<'a, A, X, S>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X>,
{
    /// Prepares the fallback for `matrix` with the given options.
    pub fn new(matrix: impl Into<MatrixRef<'a, A>>, options: SpMSpVOptions) -> Self {
        NaiveBatch { inner: SpMSpVBucket::new(matrix, options), ran: false }
    }
}

impl<'a, A, X, S> SpMSpVBatch<A, X, S> for NaiveBatch<'a, A, X, S>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X>,
{
    fn name(&self) -> &'static str {
        "Naive-batch"
    }

    fn nrows(&self) -> usize {
        self.inner.nrows()
    }

    fn ncols(&self) -> usize {
        self.inner.ncols()
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
        check_operands((self.inner.nrows(), self.inner.ncols()), x, mask);
        self.ran = !x.is_empty();
        let lanes: Vec<SparseVec<S::Output>> = (0..x.k())
            .map(|l| {
                self.inner.multiply_masked(&x.lane_vec(l), semiring, mask.map(|m| m.lane_view(l)))
            })
            .collect();
        assemble(self.inner.nrows(), &lanes)
    }

    fn last_run_info(&self) -> Option<BatchRunInfo> {
        // The single-vector kernel's SPA is a plain per-row array — the
        // k = 1 degenerate case of the dense index-major layout.
        self.ran.then_some(BatchRunInfo {
            kernel: BatchAlgorithmKind::Naive,
            backend: SpaBackend::Dense,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_substrate::gen::{erdos_renyi, random_sparse_vec};
    use sparse_substrate::ops::spmspv_batch_reference;
    use sparse_substrate::PlusTimes;

    #[test]
    fn naive_batch_matches_reference() {
        let a = erdos_renyi(150, 5.0, 4);
        let lanes: Vec<SparseVec<f64>> =
            (0..4).map(|l| random_sparse_vec(150, 25, l as u64)).collect();
        let x = SparseVecBatch::from_lanes(&lanes).unwrap();
        let expected = spmspv_batch_reference(&a, &x, &PlusTimes);
        let mut alg = NaiveBatch::new(&a, SpMSpVOptions::with_threads(3));
        let y = alg.multiply_batch(&x, &PlusTimes);
        assert!(y.approx_same_entries(&expected, 1e-9));
        assert_eq!(alg.name(), "Naive-batch");
        assert_eq!(alg.nrows(), 150);
        assert_eq!(alg.ncols(), 150);
    }
}
