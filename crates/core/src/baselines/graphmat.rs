//! GraphMat-style matrix-driven SpMSpV.
//!
//! GraphMat stores the matrix row-split in DCSC and the vector as a
//! bitvector. The algorithm is **matrix-driven**: every thread iterates over
//! *all* non-empty columns of its piece and asks, per column, whether the
//! corresponding input entry is set — an `O(nzc)` term per multiplication
//! that is independent of `nnz(x)`. That term is why GraphMat's runtime stays
//! flat as the vector gets sparser (Figure 3) and why it loses by orders of
//! magnitude on very sparse frontiers, while staying competitive on dense
//! ones.

use sparse_substrate::{DcscMatrix, Scalar, Semiring, Spa, SparseVec};

use crate::algorithm::{MatrixRef, SpMSpV, SpMSpVOptions};
use crate::executor::Executor;
use crate::masked::MaskView;

/// Matrix-driven SpMSpV with row-split DCSC pieces and a bitvector input.
pub struct GraphMatSpMSpV<'a, A, X, Y> {
    matrix: MatrixRef<'a, A>,
    pieces: Vec<DcscMatrix<A>>,
    offsets: Vec<usize>,
    spas: Vec<Spa<Y>>,
    /// Reusable bitmap over the input dimension (one bit per column).
    bitmap: Vec<u64>,
    /// Reusable dense value array over the input dimension.
    xvals: Vec<X>,
    executor: Executor,
}

impl<'a, A: Scalar, X: Scalar, Y: Scalar> GraphMatSpMSpV<'a, A, X, Y> {
    /// Splits `matrix` row-wise and allocates the bitvector workspace.
    pub fn new(matrix: impl Into<MatrixRef<'a, A>>, options: SpMSpVOptions) -> Self {
        let matrix = matrix.into();
        let executor = options.build_executor();
        let t = executor.threads().max(1);
        let pieces = DcscMatrix::row_split(&matrix, t);
        let offsets = matrix.row_split_offsets(t);
        let spas = pieces.iter().map(|p| Spa::new(p.nrows())).collect();
        let n = matrix.ncols();
        GraphMatSpMSpV {
            matrix,
            pieces,
            offsets,
            spas,
            bitmap: vec![0u64; n.div_ceil(64)],
            xvals: vec![X::default(); n],
            executor,
        }
    }
}

impl<'a, A, X, S> SpMSpV<A, X, S> for GraphMatSpMSpV<'a, A, X, S::Output>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X>,
{
    fn name(&self) -> &'static str {
        "GraphMat"
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

        // Load the input into the (pre-allocated) bitvector: O(f).
        for (j, v) in x.iter() {
            self.bitmap[j / 64] |= 1u64 << (j % 64);
            self.xvals[j] = *v;
        }

        let bitmap = &self.bitmap;
        let xvals = &self.xvals;
        let offsets = &self.offsets;
        let pieces = &self.pieces;
        let per_piece: Vec<Vec<(usize, S::Output)>> = self.executor.map(
            pieces.iter().zip(&mut self.spas).enumerate(),
            |(p, (piece, spa))| {
                // Matrix-driven scan: every stored (non-empty) column of
                // the piece is visited, regardless of nnz(x). The mask is
                // checked against the global row id before the SPA.
                let piece_base = offsets[p];
                for (j, rows, vals) in piece.iter_columns() {
                    if (bitmap[j / 64] >> (j % 64)) & 1 == 0 {
                        continue;
                    }
                    let xv = &xvals[j];
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
                let (indices, values) = spa.drain_sorted();
                let base = offsets[p];
                indices.into_iter().map(|i| i + base).zip(values).collect()
            },
        );

        // Clear only the bits we set: O(f), keeping the workspace reusable.
        for (j, _) in x.iter() {
            self.bitmap[j / 64] &= !(1u64 << (j % 64));
        }

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
        let mut alg = GraphMatSpMSpV::new(&a, SpMSpVOptions::with_threads(3));
        let y = SpMSpV::<f64, f64, PlusTimes>::multiply(&mut alg, &x, &PlusTimes);
        assert!(y.approx_same_entries(&spmspv_reference(&a, &x, &PlusTimes), 1e-9));
    }

    #[test]
    fn bitmap_is_cleared_between_calls() {
        let a = erdos_renyi(200, 5.0, 31);
        let mut alg = GraphMatSpMSpV::new(&a, SpMSpVOptions::with_threads(2));
        let x1 = random_sparse_vec(200, 50, 1);
        let x2 = random_sparse_vec(200, 3, 2);
        let _ = SpMSpV::<f64, f64, PlusTimes>::multiply(&mut alg, &x1, &PlusTimes);
        // If stale bits from x1 survived, the second product would include
        // columns not present in x2 and diverge from the reference.
        let y2 = SpMSpV::<f64, f64, PlusTimes>::multiply(&mut alg, &x2, &PlusTimes);
        assert!(y2.approx_same_entries(&spmspv_reference(&a, &x2, &PlusTimes), 1e-9));
    }

    #[test]
    fn dense_input_vector() {
        let a = erdos_renyi(150, 4.0, 77);
        let x = random_sparse_vec(150, 150, 4);
        let mut alg = GraphMatSpMSpV::new(&a, SpMSpVOptions::with_threads(4));
        let y = SpMSpV::<f64, f64, PlusTimes>::multiply(&mut alg, &x, &PlusTimes);
        assert!(y.approx_same_entries(&spmspv_reference(&a, &x, &PlusTimes), 1e-9));
    }
}
