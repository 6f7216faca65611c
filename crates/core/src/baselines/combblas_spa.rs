//! CombBLAS-SPA: row-split, vector-driven, private-SPA algorithm.
//!
//! The matrix is split row-wise into `t` pieces ahead of time, each stored in
//! DCSC (the pieces are hypersparse). Every thread multiplies its own
//! `m/t × n` piece with the **entire** input vector using a private SPA of
//! size `m/t`, then the per-piece results are concatenated.
//!
//! This is the strategy §II-F criticises: every thread scans all `f`
//! nonzeros of `x`, so total work is `O(t·f + d·f)` — not work-efficient once
//! `t > d` — although no synchronization is needed because each thread owns a
//! disjoint slice of `y`. Reproducing that inefficiency faithfully is the
//! point: it is what Figures 3–5 measure.

use sparse_substrate::{DcscMatrix, Scalar, Semiring, Spa, SparseVec};

use crate::algorithm::{MatrixRef, SpMSpV, SpMSpVOptions};
use crate::executor::Executor;
use crate::masked::MaskView;

/// Row-split CombBLAS-style SpMSpV with one private SPA per thread.
pub struct CombBlasSpa<'a, A, Y> {
    matrix: MatrixRef<'a, A>,
    pieces: Vec<DcscMatrix<A>>,
    /// Row offset of each piece within the full matrix.
    offsets: Vec<usize>,
    /// One private SPA per piece, allocated once.
    spas: Vec<Spa<Y>>,
    executor: Executor,
}

impl<'a, A: Scalar, Y: Scalar> CombBlasSpa<'a, A, Y> {
    /// Splits `matrix` row-wise into one DCSC piece per thread.
    pub fn new(matrix: impl Into<MatrixRef<'a, A>>, options: SpMSpVOptions) -> Self {
        let matrix = matrix.into();
        let executor = options.build_executor();
        let t = executor.threads().max(1);
        let pieces = DcscMatrix::row_split(&matrix, t);
        let offsets = matrix.row_split_offsets(t);
        let spas = pieces.iter().map(|p| Spa::new(p.nrows())).collect();
        CombBlasSpa { matrix, pieces, offsets, spas, executor }
    }

    /// Number of row pieces (= threads the algorithm was prepared for).
    pub fn pieces(&self) -> usize {
        self.pieces.len()
    }
}

impl<'a, A, X, S> SpMSpV<A, X, S> for CombBlasSpa<'a, A, S::Output>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X>,
{
    fn name(&self) -> &'static str {
        "CombBLAS-SPA"
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
        let offsets = &self.offsets;
        let pieces = &self.pieces;
        let per_piece: Vec<Vec<(usize, S::Output)>> = self.executor.map(
            pieces.iter().zip(&mut self.spas).enumerate(),
            |(p, (piece, spa))| {
                // Work inefficiency on purpose: the whole of x is scanned
                // by every piece. The mask is checked against the global
                // row id (piece rows are piece-local) before the SPA.
                let piece_base = offsets[p];
                for (j, xv) in x.iter() {
                    if let Some((rows, vals)) = piece.column(j) {
                        for (&i, av) in rows.iter().zip(vals.iter()) {
                            if let Some(mask) = mask {
                                if !mask.keeps(i + piece_base) {
                                    continue;
                                }
                            }
                            let prod = semiring.multiply(av, xv);
                            spa.accumulate(i, prod, |a, b| semiring.add(a, b));
                        }
                    }
                }
                let (indices, values) = spa.drain_sorted();
                let base = offsets[p];
                indices.into_iter().map(|i| i + base).zip(values).collect()
            },
        );

        let mut y = SparseVec::new(self.matrix.nrows());
        for piece in per_piece {
            for (i, v) in piece {
                y.push(i, v);
            }
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_substrate::gen::{erdos_renyi, random_sparse_vec};
    use sparse_substrate::ops::spmspv_reference;
    use sparse_substrate::{fixtures, PlusTimes};

    #[test]
    fn matches_reference_on_figure1() {
        let a = fixtures::figure1_matrix();
        let x = fixtures::figure1_vector();
        let mut alg = CombBlasSpa::new(&a, SpMSpVOptions::with_threads(3));
        let y = SpMSpV::<f64, f64, PlusTimes>::multiply(&mut alg, &x, &PlusTimes);
        assert!(y.approx_same_entries(&spmspv_reference(&a, &x, &PlusTimes), 1e-9));
    }

    #[test]
    fn piece_count_tracks_thread_option() {
        let a = erdos_renyi(120, 4.0, 3);
        let alg: CombBlasSpa<'_, f64, f64> = CombBlasSpa::new(&a, SpMSpVOptions::with_threads(5));
        assert_eq!(alg.pieces(), 5);
    }

    #[test]
    fn reuse_across_many_vectors() {
        let a = erdos_renyi(250, 5.0, 17);
        let mut alg = CombBlasSpa::new(&a, SpMSpVOptions::with_threads(4));
        for f in [1usize, 17, 88, 250] {
            let x = random_sparse_vec(250, f, f as u64);
            let y = SpMSpV::<f64, f64, PlusTimes>::multiply(&mut alg, &x, &PlusTimes);
            assert!(y.approx_same_entries(&spmspv_reference(&a, &x, &PlusTimes), 1e-9));
        }
    }

    #[test]
    fn more_threads_than_rows_still_works() {
        let a = fixtures::tridiagonal(3);
        let x = SparseVec::from_pairs(3, vec![(1, 2.0)]).unwrap();
        let mut alg = CombBlasSpa::new(&a, SpMSpVOptions::with_threads(8));
        let y = SpMSpV::<f64, f64, PlusTimes>::multiply(&mut alg, &x, &PlusTimes);
        assert!(y.approx_same_entries(&spmspv_reference(&a, &x, &PlusTimes), 1e-9));
    }
}
