//! CombBLAS-heap: row-split, vector-driven algorithm with heap-based merging.
//!
//! Like [`super::CombBlasSpa`] the matrix is split row-wise into `t` DCSC
//! pieces, but instead of a sparse accumulator each piece merges the scaled
//! columns it selects with a k-way heap merge (a priority queue keyed on the
//! row index). The merge is `O(d·f·lg f)` — the `lg f` factor is what makes
//! the algorithm roughly 3.5× slower than the SPA-based competitors once the
//! vector gets dense (Figure 3) — but produces sorted output for free.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sparse_substrate::{CscMatrix, DcscMatrix, Scalar, Semiring, SparseVec};

use crate::algorithm::{SpMSpV, SpMSpVOptions};
use crate::executor::Executor;
use crate::masked::MaskView;

/// Row-split CombBLAS-style SpMSpV with per-thread heap merging.
pub struct CombBlasHeap<'a, A> {
    matrix: &'a CscMatrix<A>,
    pieces: Vec<DcscMatrix<A>>,
    offsets: Vec<usize>,
    executor: Executor,
}

impl<'a, A: Scalar> CombBlasHeap<'a, A> {
    /// Splits `matrix` row-wise into one DCSC piece per thread.
    pub fn new(matrix: &'a CscMatrix<A>, options: SpMSpVOptions) -> Self {
        let executor = options.build_executor();
        let t = executor.threads().max(1);
        let pieces = DcscMatrix::row_split(matrix, t);
        let offsets = matrix.row_split_offsets(t);
        CombBlasHeap { matrix, pieces, offsets, executor }
    }
}

impl<'a, A, X, S> SpMSpV<A, X, S> for CombBlasHeap<'a, A>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X>,
{
    fn name(&self) -> &'static str {
        "CombBLAS-heap"
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
        let per_piece: Vec<Vec<(usize, S::Output)>> =
            self.executor.map(pieces.iter().enumerate(), |(p, piece)| {
                // The selected columns of this piece, each a list sorted
                // by row id.
                let mut columns: Vec<(&[usize], &[A], &X)> = Vec::new();
                for (j, xv) in x.iter() {
                    if let Some((rows, vals)) = piece.column(j) {
                        if !rows.is_empty() {
                            columns.push((rows, vals, xv));
                        }
                    }
                }
                // K-way merge keyed by (row, column position) via a
                // min-heap of per-column cursors.
                let mut heap: BinaryHeap<Reverse<(usize, usize)>> =
                    BinaryHeap::with_capacity(columns.len());
                let mut cursors = vec![0usize; columns.len()];
                for (c, (rows, _, _)) in columns.iter().enumerate() {
                    heap.push(Reverse((rows[0], c)));
                }
                let base = offsets[p];
                let mut out: Vec<(usize, S::Output)> = Vec::new();
                while let Some(Reverse((row, c))) = heap.pop() {
                    let (rows, vals, xv) = columns[c];
                    let k = cursors[c];
                    // In-kernel mask: the cursor still advances past a
                    // dropped row, but no product is formed or merged.
                    let keeps = mask.map(|m| m.keeps(row + base)).unwrap_or(true);
                    if keeps {
                        let prod = semiring.multiply(&vals[k], xv);
                        match out.last_mut() {
                            Some(last) if last.0 == row + base => {
                                last.1 = semiring.add(last.1, prod);
                            }
                            _ => out.push((row + base, prod)),
                        }
                    }
                    cursors[c] += 1;
                    if cursors[c] < rows.len() {
                        heap.push(Reverse((rows[cursors[c]], c)));
                    }
                }
                out
            });

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
    fn matches_reference_and_is_sorted() {
        let a = fixtures::figure1_matrix();
        let x = fixtures::figure1_vector();
        let mut alg = CombBlasHeap::new(&a, SpMSpVOptions::with_threads(2));
        let y = SpMSpV::<f64, f64, PlusTimes>::multiply(&mut alg, &x, &PlusTimes);
        assert!(y.approx_same_entries(&spmspv_reference(&a, &x, &PlusTimes), 1e-9));
    }

    #[test]
    fn random_matrices_and_densities() {
        let a = erdos_renyi(300, 7.0, 29);
        for threads in [1usize, 4] {
            let mut alg = CombBlasHeap::new(&a, SpMSpVOptions::with_threads(threads));
            for f in [2usize, 30, 300] {
                let x = random_sparse_vec(300, f, f as u64 + 7);
                let y = SpMSpV::<f64, f64, PlusTimes>::multiply(&mut alg, &x, &PlusTimes);
                assert!(y.approx_same_entries(&spmspv_reference(&a, &x, &PlusTimes), 1e-9));
            }
        }
    }

    #[test]
    fn duplicate_heavy_columns_are_combined() {
        // A matrix where every selected column hits the same rows, forcing
        // maximal combining inside the heap merge.
        let mut coo = sparse_substrate::CooMatrix::new(4, 6);
        for j in 0..6usize {
            coo.push(0, j, 1.0);
            coo.push(3, j, 2.0);
        }
        let a = CscMatrix::from_coo(coo, |p, q| p + q);
        let x = SparseVec::from_pairs(6, (0..6).map(|j| (j, 1.0)).collect()).unwrap();
        let mut alg = CombBlasHeap::new(&a, SpMSpVOptions::with_threads(2));
        let y = SpMSpV::<f64, f64, PlusTimes>::multiply(&mut alg, &x, &PlusTimes);
        assert_eq!(y.get(0).copied(), Some(6.0));
        assert_eq!(y.get(3).copied(), Some(12.0));
        assert_eq!(y.nnz(), 2);
    }
}
