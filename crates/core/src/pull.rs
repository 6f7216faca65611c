//! The bottom-up ("pull") step of direction-optimizing BFS (Beamer,
//! Asanović, Patterson, SC 2012) as a single-vector SpMSpV kernel.
//!
//! Push — every other kernel in this crate — walks the frontier's columns
//! and forms one product per entry, `flops` of them. Pull walks the other
//! way: for every row the mask keeps, it scans that row's entries in
//! ascending column order and stops at the first frontier member
//! (GraphBLAST's masked "early exit"; Yang, Buluç, Owens, ICPP 2018). When
//! the frontier is dense and few rows are left, that reads a small fraction
//! of what push reads. The frontier is held as a [`FrontierBits`], the
//! substrate's bitvector (GraphMat's too): one bit per column answers "is
//! `j` in the frontier", and its per-word rank finds `j`'s value in `x`.
//!
//! Stopping early is exact, not approximate, when three things hold, and
//! [`SpMSpVPull`] checks all three, cheapest first:
//!
//! 1. the matrix is square and a mask is given (pull visits the rows the
//!    mask keeps; with no mask it would visit all of them);
//! 2. [`Semiring::first_hit_decides`] holds for the frontier's values:
//!    `Select2ndMin` over a frontier whose values strictly ascend with
//!    their index, as a BFS frontier's do (each vertex carries its own id),
//!    so the first hit in ascending order is the `min` push computes;
//! 3. the pattern is symmetric ([`CscMatrix::is_structurally_symmetric`],
//!    cached per matrix), so column `i` lists row `i`'s entries in
//!    ascending order and no transpose is built.
//!
//! When one fails, the kernel runs the sequential SPA instead, so
//! [`AlgorithmKind::Pull`](crate::AlgorithmKind::Pull) is a valid family
//! for any call and its output always equals push's. Adaptive dispatch
//! ([`crate::adaptive`]) checks the same conditions before it picks pull.

use sparse_substrate::{CscMatrix, FrontierBits, Scalar, Semiring, SparseVec};

use crate::algorithm::{MatrixRef, SpMSpV, SpMSpVOptions};
use crate::baselines::SequentialSpa;
use crate::masked::MaskView;

/// Whether a pull over `matrix` computes exactly what push computes for
/// `x` under `semiring` (conditions 2 and 3 of the [module docs](self),
/// and squareness), cheapest first: `O(1)`, then `O(nnz(x))`, then the
/// matrix's cached symmetry flag (one `O(nnz)` pass the first time).
pub(crate) fn is_exact<A, X, S>(matrix: &CscMatrix<A>, x: &SparseVec<X>, semiring: &S) -> bool
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X>,
{
    matrix.nrows() == matrix.ncols()
        && semiring.first_hit_decides(x.values())
        && matrix.is_structurally_symmetric()
}

/// [`AlgorithmKind::Pull`](crate::AlgorithmKind::Pull): the bottom-up
/// kernel of the [module docs](self), on one participant. It visits the
/// mask's kept rows in ascending order and emits each row that meets the
/// frontier as it goes, so its output is sorted by construction.
pub struct SpMSpVPull<'a, A, Y> {
    matrix: MatrixRef<'a, A>,
    /// The frontier's columns, loaded on entry and cleared on exit (both
    /// `O(nnz(x))`, plus the `O(n/64)` rank rebuild). Column `j`'s position
    /// in `x` is one read of a rank table that fits in cache, where a
    /// search of `x`'s indices or an `n`-entry position array would miss.
    frontier: FrontierBits,
    fallback: Option<SequentialSpa<'a, A, Y>>,
    scanned: Option<usize>,
}

impl<'a, A: Scalar, Y: Scalar> SpMSpVPull<'a, A, Y> {
    /// Prepares the kernel (no workspace is allocated until a call needs
    /// it). The options are taken for uniformity with the parallel
    /// kernels; one participant has none to read.
    pub fn new(matrix: impl Into<MatrixRef<'a, A>>, _options: SpMSpVOptions) -> Self {
        SpMSpVPull {
            matrix: matrix.into(),
            frontier: FrontierBits::default(),
            fallback: None,
            scanned: None,
        }
    }

    /// Matrix entries the last call read, or `None` when it ran the
    /// sequential SPA because pull would not have been exact. A row that
    /// meets a frontier member costs the entries up to and including it;
    /// a row that meets none costs its whole column.
    pub fn last_scanned(&self) -> Option<usize> {
        self.scanned
    }

    fn pull<X: Scalar, S: Semiring<A, X, Output = Y>>(
        &mut self,
        x: &SparseVec<X>,
        semiring: &S,
        mask: MaskView<'_>,
    ) -> SparseVec<Y> {
        let matrix = &*self.matrix;
        self.frontier.load(matrix.ncols(), x.indices());
        let frontier = &self.frontier;
        let (mut indices, mut values) = (Vec::new(), Vec::new());
        let mut scanned = 0;
        for i in mask.kept_rows() {
            let (rows, vals) = matrix.column(i);
            match rows.iter().position(|&j| frontier.contains(j)) {
                Some(k) => {
                    scanned += k + 1;
                    indices.push(i);
                    values.push(semiring.multiply(&vals[k], &x.values()[frontier.rank(rows[k])]));
                }
                None => scanned += rows.len(),
            }
        }
        self.frontier.clear(x.indices());
        self.scanned = Some(scanned);
        SparseVec::from_parts(matrix.nrows(), indices, values).expect("kept rows ascend")
    }
}

impl<'a, A, X, S> SpMSpV<A, X, S> for SpMSpVPull<'a, A, S::Output>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X>,
{
    fn name(&self) -> &'static str {
        "Pull"
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
        let matrix = &*self.matrix;
        assert_eq!(x.len(), matrix.ncols(), "dimension mismatch");
        if let Some(mask) = mask {
            mask.check_rows(matrix.nrows());
            if is_exact(matrix, x, semiring) {
                return self.pull(x, semiring, mask);
            }
        }
        self.scanned = None;
        let fallback = self.fallback.get_or_insert_with(|| {
            SequentialSpa::new(self.matrix.clone(), SpMSpVOptions::default())
        });
        SpMSpV::<A, X, S>::multiply_masked(fallback, x, semiring, mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_substrate::fixtures::tridiagonal;
    use sparse_substrate::{MaskBits, PlusTimes, Select2ndMin};

    use crate::masked::MaskMode;
    use crate::SpMSpVBucket;

    /// Frontier `{3, 4}` of a 10-vertex path, carrying its own ids.
    fn path_frontier() -> (CscMatrix<f64>, SparseVec<usize>) {
        (tridiagonal(10), SparseVec::from_pairs(10, vec![(3, 3), (4, 4)]).unwrap())
    }

    #[test]
    fn pulls_the_first_frontier_member_and_counts_what_it_read() {
        let (a, x) = path_frontier();
        let visited = MaskBits::from_indices(10, [2, 3, 4]);
        let mask = MaskView::new(&visited, MaskMode::Complement);
        let mut pull = SpMSpVPull::new(&a, SpMSpVOptions::default());
        let y = pull.multiply_masked(&x, &Select2ndMin, Some(mask));
        assert_eq!(y, SparseVec::from_pairs(10, vec![(5, 4)]).unwrap());
        let mut push = SpMSpVBucket::new(&a, SpMSpVOptions::with_threads(2));
        assert_eq!(y, push.multiply_masked(&x, &Select2ndMin, Some(mask)));
        // The kept rows 0, 1 and 5–9 hold 2 + 3 + 3·4 + 2 entries; row 5
        // stops at its first, row 4.
        assert_eq!(pull.last_scanned(), Some(2 + 3 + 1 + 3 * 3 + 2));
        // The frontier bits are clear again: a second call on a frontier
        // disjoint from the first sees none of its columns.
        let x = SparseVec::from_pairs(10, vec![(8, 8)]).unwrap();
        let visited = MaskBits::from_indices(10, [8]);
        let mask = MaskView::new(&visited, MaskMode::Complement);
        let y = pull.multiply_masked(&x, &Select2ndMin, Some(mask));
        assert_eq!(y, SparseVec::from_pairs(10, vec![(7, 8), (9, 8)]).unwrap());
    }

    #[test]
    fn declines_to_the_sequential_spa_when_pull_would_not_be_exact() {
        let (a, x) = path_frontier();
        let visited = MaskBits::from_indices(10, [3, 4]);
        let mask = MaskView::new(&visited, MaskMode::Complement);
        let mut pull = SpMSpVPull::new(&a, SpMSpVOptions::default());
        let mut seq = SequentialSpa::new(&a, SpMSpVOptions::default());

        // No mask.
        let y = pull.multiply(&x, &Select2ndMin);
        assert_eq!(pull.last_scanned(), None);
        assert_eq!(y, SpMSpV::<f64, usize, Select2ndMin>::multiply(&mut seq, &x, &Select2ndMin));

        // Values that do not ascend with their index.
        let shuffled = SparseVec::from_pairs(10, vec![(3, 4), (4, 3)]).unwrap();
        let y = pull.multiply_masked(&shuffled, &Select2ndMin, Some(mask));
        assert_eq!(pull.last_scanned(), None);
        assert_eq!(y, SparseVec::from_pairs(10, vec![(2, 4), (5, 3)]).unwrap());

        // A semiring whose sum is not its first term.
        let reals = SparseVec::from_pairs(10, vec![(3, 1.0), (4, 2.0)]).unwrap();
        let mut pull = SpMSpVPull::new(&a, SpMSpVOptions::default());
        let y = pull.multiply_masked(&reals, &PlusTimes, Some(mask));
        assert_eq!(pull.last_scanned(), None);
        let mut seq = SequentialSpa::new(&a, SpMSpVOptions::default());
        assert_eq!(
            y,
            SpMSpV::<f64, f64, PlusTimes>::multiply_masked(
                &mut seq,
                &reals,
                &PlusTimes,
                Some(mask)
            )
        );
    }
}
