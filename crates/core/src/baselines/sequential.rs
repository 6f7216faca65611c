//! Sequential vector-driven SPA algorithm (the optimal serial baseline).
//!
//! This is Gustavson's column-gather formulation restricted to the selected
//! columns: `O(d·f)` work, `O(m)` one-time SPA allocation with partial
//! (generation-based) initialization. It is both the ground-truth oracle the
//! parallel algorithms are verified against and the `t = 1` anchor for the
//! speedup numbers reported in the figures.

use sparse_substrate::{CscMatrix, Scalar, Semiring, Spa, SparseVec};

use crate::algorithm::{MatrixRef, SpMSpV, SpMSpVOptions};
use crate::masked::MaskView;

/// Sequential SPA-based SpMSpV over a CSC matrix.
pub struct SequentialSpa<'a, A, Y> {
    matrix: MatrixRef<'a, A>,
    spa: Spa<Y>,
}

impl<'a, A: Scalar, Y: Scalar> SequentialSpa<'a, A, Y> {
    /// Prepares the algorithm (allocates the SPA once). The options are
    /// taken for uniformity with the parallel kernels; one thread has none
    /// to read.
    pub fn new(matrix: impl Into<MatrixRef<'a, A>>, _options: SpMSpVOptions) -> Self {
        let matrix = matrix.into();
        let spa = Spa::new(matrix.nrows());
        SequentialSpa { matrix, spa }
    }
}

impl<'a, A, X, S> SpMSpV<A, X, S> for SequentialSpa<'a, A, S::Output>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X>,
{
    fn name(&self) -> &'static str {
        "Sequential-SPA"
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
        }
        // In-kernel mask, dispatched once per call: a dropped row never
        // touches the SPA.
        match mask {
            None => gather(matrix, x, &mut self.spa, semiring, |_| true),
            Some(mask) => gather(matrix, x, &mut self.spa, semiring, mask.row_filter()),
        }
        let mut pairs = self.spa.drain();
        pairs.sort_unstable_by_key(|&(i, _)| i);
        let mut y = SparseVec::new(self.matrix.nrows());
        for (i, v) in pairs {
            y.push(i, v);
        }
        y
    }
}

/// Accumulates `A(:, j) ⊗ x(j)` into `spa` for every entry of `x`, skipping
/// the rows `keeps` rejects before their product is formed.
fn gather<A: Scalar, X: Scalar, S: Semiring<A, X>>(
    matrix: &CscMatrix<A>,
    x: &SparseVec<X>,
    spa: &mut Spa<S::Output>,
    semiring: &S,
    keeps: impl Fn(usize) -> bool,
) {
    for (j, xv) in x.iter() {
        let (rows, vals) = matrix.column(j);
        for (&i, av) in rows.iter().zip(vals.iter()) {
            if keeps(i) {
                spa.accumulate(i, semiring.multiply(av, xv), |a, b| semiring.add(a, b));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_substrate::ops::spmspv_reference;
    use sparse_substrate::{fixtures, PlusTimes};

    #[test]
    fn matches_reference_and_sorts_output() {
        let a = fixtures::figure1_matrix();
        let x = fixtures::figure1_vector();
        let mut alg = SequentialSpa::new(&a, SpMSpVOptions::default());
        let y = SpMSpV::<f64, f64, PlusTimes>::multiply(&mut alg, &x, &PlusTimes);
        assert!(y.approx_same_entries(&spmspv_reference(&a, &x, &PlusTimes), 1e-9));
    }

    #[test]
    fn spa_is_reused_across_calls() {
        let a = fixtures::tridiagonal(40);
        let mut alg = SequentialSpa::new(&a, SpMSpVOptions::default());
        for start in 0..10usize {
            let x = SparseVec::from_pairs(40, vec![(start, 1.0)]).unwrap();
            let y = SpMSpV::<f64, f64, PlusTimes>::multiply(&mut alg, &x, &PlusTimes);
            assert!(y.approx_same_entries(&spmspv_reference(&a, &x, &PlusTimes), 1e-9));
        }
    }
}
