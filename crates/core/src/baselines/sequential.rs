//! Sequential vector-driven SPA algorithm (the optimal serial baseline).
//!
//! This is Gustavson's column-gather formulation restricted to the selected
//! columns: `O(d·f)` work, `O(m)` one-time SPA allocation with partial
//! (generation-based) initialization. It is both the ground-truth oracle the
//! parallel algorithms are verified against and the `t = 1` anchor for the
//! speedup numbers reported in the figures.

use sparse_substrate::{CscMatrix, Scalar, Semiring, Spa, SparseVec};

use crate::algorithm::{SpMSpV, SpMSpVOptions};
use crate::masked::MaskView;

/// Sequential SPA-based SpMSpV over a CSC matrix.
pub struct SequentialSpa<'a, A, Y> {
    matrix: &'a CscMatrix<A>,
    spa: Spa<Y>,
}

impl<'a, A: Scalar, Y: Scalar> SequentialSpa<'a, A, Y> {
    /// Prepares the algorithm (allocates the SPA once). The options are
    /// taken for uniformity with the parallel kernels; one thread has none
    /// to read.
    pub fn new(matrix: &'a CscMatrix<A>, _options: SpMSpVOptions) -> Self {
        SequentialSpa { matrix, spa: Spa::new(matrix.nrows()) }
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
        assert_eq!(x.len(), self.matrix.ncols(), "dimension mismatch");
        if let Some(mask) = mask {
            mask.check_rows(self.matrix.nrows());
        }
        for (j, xv) in x.iter() {
            let (rows, vals) = self.matrix.column(j);
            for (&i, av) in rows.iter().zip(vals.iter()) {
                // In-kernel mask: a dropped row never touches the SPA.
                if let Some(mask) = mask {
                    if !mask.keeps(i) {
                        continue;
                    }
                }
                let prod = semiring.multiply(av, xv);
                self.spa.accumulate(i, prod, |a, b| semiring.add(a, b));
            }
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
