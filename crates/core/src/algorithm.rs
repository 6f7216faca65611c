//! The common interface every SpMSpV implementation exposes.

use std::ops::Deref;
use std::sync::Arc;

use sparse_substrate::{CscMatrix, Scalar, Semiring, SparseVec};

use crate::executor::Executor;
use crate::masked::MaskView;

/// How a kernel holds its matrix: borrowed from the caller, or shared with
/// whoever else owns it (an owning [`crate::Engine`] and the kernels it
/// builds hold the same `Arc`).
///
/// Cloning copies the reference or bumps the `Arc` count, never the matrix.
/// Kernels dereference it once per call, not per entry.
#[derive(Debug)]
pub enum MatrixRef<'a, A> {
    /// A caller-owned matrix that outlives the kernel.
    Borrowed(&'a CscMatrix<A>),
    /// A matrix shared by reference count.
    Shared(Arc<CscMatrix<A>>),
}

impl<A> Clone for MatrixRef<'_, A> {
    fn clone(&self) -> Self {
        match self {
            MatrixRef::Borrowed(m) => MatrixRef::Borrowed(m),
            MatrixRef::Shared(m) => MatrixRef::Shared(Arc::clone(m)),
        }
    }
}

impl<A> Deref for MatrixRef<'_, A> {
    type Target = CscMatrix<A>;

    fn deref(&self) -> &CscMatrix<A> {
        match self {
            MatrixRef::Borrowed(m) => m,
            MatrixRef::Shared(m) => m,
        }
    }
}

impl<'a, A> From<&'a CscMatrix<A>> for MatrixRef<'a, A> {
    fn from(matrix: &'a CscMatrix<A>) -> Self {
        MatrixRef::Borrowed(matrix)
    }
}

impl<A> From<Arc<CscMatrix<A>>> for MatrixRef<'_, A> {
    fn from(matrix: Arc<CscMatrix<A>>) -> Self {
        MatrixRef::Shared(matrix)
    }
}

/// Tuning knobs shared by the parallel algorithms.
#[derive(Debug, Clone, Default)]
pub struct SpMSpVOptions {
    /// Number of worker threads (`t`). `0` means all logical CPUs.
    pub threads: usize,
}

impl SpMSpVOptions {
    /// Convenience constructor pinning the thread count.
    pub fn with_threads(threads: usize) -> Self {
        SpMSpVOptions { threads }
    }

    /// Materializes the executor implied by `threads`.
    pub fn build_executor(&self) -> Executor {
        Executor::new(self.threads)
    }
}

/// A prepared SpMSpV computation `y ← A ⊕.⊗ x` over a fixed matrix.
///
/// Implementations hold whatever matrix representation and pre-allocated
/// workspace they need (the paper stresses that buckets and the SPA are
/// allocated once and reused across the many multiplications of an iterative
/// algorithm such as BFS), so `multiply` can be called repeatedly with
/// different input vectors.
pub trait SpMSpV<A: Scalar, X: Scalar, S: Semiring<A, X>>: Send {
    /// Human-readable algorithm name, as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Number of matrix rows (`m`, the dimension of `y`).
    fn nrows(&self) -> usize;

    /// Number of matrix columns (`n`, the dimension of `x`).
    fn ncols(&self) -> usize;

    /// Computes `y ← A ⊕.⊗ x`. Like every [`SparseVec`], `y` holds unique
    /// indices in ascending order.
    fn multiply(&mut self, x: &SparseVec<X>, semiring: &S) -> SparseVec<S::Output>;

    /// Computes `y ← ⟨mask⟩ (A ⊕.⊗ x)`: like [`SpMSpV::multiply`], but only
    /// output rows the mask keeps may appear in `y`.
    ///
    /// The default implementation post-filters an unmasked product, which is
    /// correct for any implementation; every algorithm in this crate
    /// overrides it to consult the mask **before it forms a product** (the
    /// bucket kernel in Step 1), so masked rows are never accumulated and no
    /// output-sized filter pass runs.
    /// Result entries (rows, values, and order) are identical either way.
    fn multiply_masked(
        &mut self,
        x: &SparseVec<X>,
        semiring: &S,
        mask: Option<MaskView<'_>>,
    ) -> SparseVec<S::Output> {
        if let Some(mask) = mask {
            mask.check_rows(self.nrows());
        }
        let mut y = self.multiply(x, semiring);
        if let Some(mask) = mask {
            y.retain(|i, _| mask.keeps(i));
        }
        y
    }
}

/// Builds a boxed [`SpMSpV`] instance of the requested algorithm family,
/// generic over the semiring — the single dispatch point the [`crate::ops`]
/// descriptor (and the per-semiring helpers in `spmspv-graphs`) build on.
pub fn build_algorithm<'a, A, X, S>(
    matrix: &'a CscMatrix<A>,
    kind: AlgorithmKind,
    options: SpMSpVOptions,
) -> Box<dyn SpMSpV<A, X, S> + 'a>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X> + 'a,
{
    use crate::adaptive::AdaptiveSpMSpV;
    use crate::baselines::{CombBlasHeap, CombBlasSpa, GraphMatSpMSpV, SequentialSpa, SortBased};
    use crate::bucket::SpMSpVBucket;
    use crate::pull::SpMSpVPull;
    match kind {
        AlgorithmKind::Bucket => Box::new(SpMSpVBucket::new(matrix, options)),
        AlgorithmKind::CombBlasSpa => Box::new(CombBlasSpa::new(matrix, options)),
        AlgorithmKind::CombBlasHeap => Box::new(CombBlasHeap::new(matrix, options)),
        AlgorithmKind::GraphMat => Box::new(GraphMatSpMSpV::new(matrix, options)),
        AlgorithmKind::SortBased => Box::new(SortBased::new(matrix, options)),
        AlgorithmKind::Sequential => Box::new(SequentialSpa::new(matrix, options)),
        AlgorithmKind::Pull => Box::new(SpMSpVPull::new(matrix, options)),
        AlgorithmKind::Adaptive => Box::new(AdaptiveSpMSpV::new(matrix, options)),
    }
}

/// Identifier for each algorithm family, used by the benchmark harness to
/// enumerate competitors exactly as the paper's figures do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// The paper's SpMSpV-bucket algorithm.
    Bucket,
    /// CombBLAS row-split algorithm with a per-piece SPA.
    CombBlasSpa,
    /// CombBLAS row-split algorithm with heap-based merging.
    CombBlasHeap,
    /// GraphMat-style matrix-driven algorithm (DCSC + bitvector).
    GraphMat,
    /// Sort-based vector-driven algorithm (Yang et al., GPU origin).
    SortBased,
    /// Sequential SPA-based reference.
    Sequential,
    /// Bottom-up: each row the mask keeps scans its entries up to the first
    /// frontier member ([`crate::pull::SpMSpVPull`]). Runs only where that
    /// is exact, and the sequential SPA otherwise.
    Pull,
    /// Dispatch per call between [`AlgorithmKind::Pull`] (by Beamer's
    /// edge-count rule), [`AlgorithmKind::Bucket`] and
    /// [`AlgorithmKind::Sequential`] (by the participants the frontier's
    /// exact flops earn) ([`crate::adaptive::AdaptiveSpMSpV`]).
    Adaptive,
}

impl AlgorithmKind {
    /// All parallel algorithms compared in Figures 3–5.
    pub fn paper_competitors() -> [AlgorithmKind; 4] {
        [
            AlgorithmKind::Bucket,
            AlgorithmKind::CombBlasSpa,
            AlgorithmKind::CombBlasHeap,
            AlgorithmKind::GraphMat,
        ]
    }

    /// Display name matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            AlgorithmKind::Bucket => "SpMSpV-bucket",
            AlgorithmKind::CombBlasSpa => "CombBLAS-SPA",
            AlgorithmKind::CombBlasHeap => "CombBLAS-heap",
            AlgorithmKind::GraphMat => "GraphMat",
            AlgorithmKind::SortBased => "SpMSpV-sort",
            AlgorithmKind::Sequential => "Sequential-SPA",
            AlgorithmKind::Pull => "SpMSpV-pull",
            AlgorithmKind::Adaptive => "Adaptive",
        }
    }
}

impl std::fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_match_the_paper() {
        let o = SpMSpVOptions::default();
        assert_eq!(o.threads, 0);
    }

    #[test]
    fn builder_setters_compose() {
        let o = SpMSpVOptions::with_threads(2);
        assert_eq!(o.threads, 2);
        assert_eq!(o.build_executor().threads(), 2);
    }

    #[test]
    fn labels_match_figures() {
        assert_eq!(AlgorithmKind::Bucket.label(), "SpMSpV-bucket");
        assert_eq!(AlgorithmKind::GraphMat.to_string(), "GraphMat");
        assert_eq!(AlgorithmKind::paper_competitors().len(), 4);
    }
}
