//! Reference (sequential, obviously-correct) kernels.
//!
//! Every parallel SpMSpV implementation in the `spmspv` crate is tested
//! against [`spmspv_reference`], a direct transcription of the mathematical
//! definition of `y ← A ⊕.⊗ x` with no regard for performance.

use crate::batch::SparseVecBatch;
use crate::csc::CscMatrix;
use crate::semiring::Semiring;
use crate::spvec::SparseVec;
use crate::Scalar;

/// Sequential, definition-level SpMSpV: gathers the selected columns into a
/// dense accumulator of size `m` and compacts the result. `O(m + d·f)` time
/// and `O(m)` extra space — deliberately naive; use the `spmspv` crate for
/// the real algorithms.
///
/// The output is sorted by index.
pub fn spmspv_reference<A, X, S>(
    a: &CscMatrix<A>,
    x: &SparseVec<X>,
    semiring: &S,
) -> SparseVec<S::Output>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X>,
{
    assert_eq!(
        a.ncols(),
        x.len(),
        "matrix has {} columns but vector has dimension {}",
        a.ncols(),
        x.len()
    );
    let m = a.nrows();
    let mut acc: Vec<Option<S::Output>> = vec![None; m];
    for (j, xv) in x.iter() {
        let (rows, vals) = a.column(j);
        for (&i, av) in rows.iter().zip(vals.iter()) {
            let prod = semiring.multiply(av, xv);
            acc[i] = Some(match acc[i] {
                Some(existing) => semiring.add(existing, prod),
                None => prod,
            });
        }
    }
    let mut y = SparseVec::new(m);
    for (i, slot) in acc.into_iter().enumerate() {
        if let Some(v) = slot {
            y.push(i, v);
        }
    }
    y
}

/// Reference batched SpMSpV: `k` independent [`spmspv_reference`] calls,
/// one per lane, giving `k` lanes of dimension `m` (also for `k = 0`).
/// Every batched kernel is tested against this.
pub fn spmspv_batch_reference<A, X, S>(
    a: &CscMatrix<A>,
    x: &SparseVecBatch<X>,
    semiring: &S,
) -> SparseVecBatch<S::Output>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X>,
{
    assert_eq!(
        a.ncols(),
        x.len(),
        "matrix has {} columns but the batch has dimension {}",
        a.ncols(),
        x.len()
    );
    let lanes = (0..x.k()).map(|l| spmspv_reference(a, x.lane(l), semiring)).collect();
    SparseVecBatch::with_lanes(a.nrows(), lanes)
        .expect("reference lanes have the matrix's row dimension")
}

/// Number of scalar multiplications SpMSpV must perform for this operand
/// pair: `Σ_{j : x(j) ≠ 0} nnz(A(:, j))`. This is the paper's lower-bound
/// quantity `d·f` computed exactly, used by the work-efficiency experiments.
pub fn required_multiplications<A: Scalar, X: Scalar>(a: &CscMatrix<A>, x: &SparseVec<X>) -> usize {
    x.iter().map(|(j, _)| a.column_nnz(j)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{figure1_matrix, figure1_vector, tridiagonal};
    use crate::semiring::{PlusTimes, Select2ndMin};

    #[test]
    fn figure1_example_matches_the_paper() {
        // Figure 1: y = A(:,2) + A(:,5) + A(:,7) with unit x values.
        let a = figure1_matrix();
        let x = figure1_vector();
        let y = spmspv_reference(&a, &x, &PlusTimes);
        // Selected columns 2, 5, 7 contribute:
        //   col 2: rows {0:e=5, 2:p=16, 3:f=6, 4:q=17}
        //   col 5: rows {0:s=19, 6:n=14}
        //   col 7: rows {4:t=20}
        let expect: Vec<(usize, f64)> =
            vec![(0, 5.0 + 19.0), (2, 16.0), (3, 6.0), (4, 17.0 + 20.0), (6, 14.0)];
        let got: Vec<(usize, f64)> = y.iter().map(|(i, &v)| (i, v)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn empty_vector_gives_empty_result() {
        let a = figure1_matrix();
        let x = SparseVec::new(8);
        let y = spmspv_reference(&a, &x, &PlusTimes);
        assert!(y.is_empty());
        assert_eq!(y.len(), 8);
    }

    #[test]
    fn dense_vector_matches_spmv() {
        let a = tridiagonal(30);
        let xd: Vec<f64> = (0..30).map(|i| i as f64 + 1.0).collect();
        let xs = SparseVec::from_parts(30, (0..30).collect(), xd.clone()).unwrap();
        let mut via_spmspv = vec![0.0; 30];
        for (i, &v) in spmspv_reference(&a, &xs, &PlusTimes).iter() {
            via_spmspv[i] = v;
        }
        // Column-oriented SpMV: every column scaled by its dense x entry.
        let mut via_spmv = vec![0.0; 30];
        for (j, &xj) in xd.iter().enumerate() {
            let (rows, vals) = a.column(j);
            for (&i, &av) in rows.iter().zip(vals.iter()) {
                via_spmv[i] += av * xj;
            }
        }
        for i in 0..30 {
            assert!((via_spmspv[i] - via_spmv[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn select2nd_semiring_propagates_parents() {
        let a = figure1_matrix();
        let x = SparseVec::from_pairs(8, vec![(2, 2usize), (5, 5usize)]).unwrap();
        let y = spmspv_reference(&a, &x, &Select2ndMin);
        // Row 0 is reachable from both columns 2 and 5; min parent = 2.
        assert_eq!(y.get(0).copied(), Some(2));
    }

    #[test]
    fn required_multiplications_counts_selected_columns() {
        let a = figure1_matrix();
        let x = figure1_vector();
        // columns 2, 5, 7 have 4, 2, 1 entries
        assert_eq!(required_multiplications(&a, &x), 7);
    }

    #[test]
    fn batch_reference_keeps_the_row_dimension_of_a_zero_lane_batch() {
        // 5 × 3: a zero-lane input has dimension 3, its product dimension 5.
        let a = CscMatrix::<f64>::empty(5, 3);
        let x = SparseVecBatch::<f64>::new(a.ncols(), 0);
        let y = spmspv_batch_reference(&a, &x, &PlusTimes);
        assert_eq!((y.len(), y.k()), (a.nrows(), 0));
    }

    #[test]
    #[should_panic(expected = "matrix has")]
    fn batch_reference_rejects_a_zero_lane_batch_of_the_wrong_dimension() {
        let a = figure1_matrix();
        let _ = spmspv_batch_reference(&a, &SparseVecBatch::<f64>::new(9, 0), &PlusTimes);
    }

    #[test]
    #[should_panic(expected = "matrix has")]
    fn dimension_mismatch_panics() {
        let a = figure1_matrix();
        let x = SparseVec::<f64>::new(9);
        let _ = spmspv_reference(&a, &x, &PlusTimes);
    }
}
