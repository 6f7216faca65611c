//! Property-based tests (proptest) over randomly generated matrices,
//! vectors and algorithm configurations.
//!
//! These complement the unit tests with invariants that must hold for *any*
//! operand pair:
//!
//! * every parallel algorithm agrees with the sequential reference,
//! * sorted and unsorted bucket variants agree,
//! * the output never contains duplicate or out-of-range indices,
//! * format conversions round-trip,
//! * SpMSpV is linear in the input vector.

use proptest::prelude::*;
use sparse_substrate::ops::{required_multiplications, spmspv_reference};
use sparse_substrate::{CooMatrix, CscMatrix, DcscMatrix, PlusTimes, SparseVec};
use spmspv::baselines::{CombBlasHeap, CombBlasSpa, GraphMatSpMSpV, SortBased};
use spmspv::{SpMSpV, SpMSpVBucket, SpMSpVOptions};

/// Strategy: a random sparse matrix with up to `max_dim` rows/columns and
/// integer-valued entries (so floating-point addition is exact and results
/// can be compared exactly regardless of reduction order).
fn matrix_strategy(max_dim: usize) -> impl Strategy<Value = CscMatrix<f64>> {
    (2usize..max_dim, 2usize..max_dim).prop_flat_map(|(m, n)| {
        let entry = (0..m, 0..n, 1i32..16);
        proptest::collection::vec(entry, 0..(m * n).min(400)).prop_map(move |entries| {
            let mut coo = CooMatrix::new(m, n);
            for (i, j, v) in entries {
                coo.push(i, j, v as f64);
            }
            CscMatrix::from_coo(coo, |a, b| a + b)
        })
    })
}

/// Strategy: a sparse vector of dimension `n` with integer values.
fn vector_strategy(n: usize) -> impl Strategy<Value = SparseVec<f64>> {
    proptest::collection::btree_map(0..n, 1i32..16, 0..n.min(60)).prop_map(move |map| {
        SparseVec::from_pairs(n, map.into_iter().map(|(i, v)| (i, v as f64)).collect())
            .expect("btree_map keys are unique and in range")
    })
}

/// Matrix and conforming vector together.
fn operands(max_dim: usize) -> impl Strategy<Value = (CscMatrix<f64>, SparseVec<f64>)> {
    matrix_strategy(max_dim).prop_flat_map(|a| {
        let n = a.ncols();
        (Just(a), vector_strategy(n))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bucket_matches_reference_for_any_operands(
        (a, x) in operands(80),
        threads in 1usize..6,
        sorted in any::<bool>(),
    ) {
        let expected = spmspv_reference(&a, &x, &PlusTimes);
        let opts = SpMSpVOptions::with_threads(threads).sorted(sorted);
        let mut alg = SpMSpVBucket::new(&a, opts);
        let y = alg.multiply(&x, &PlusTimes);
        prop_assert!(y.same_entries(&expected));
        // structural invariants
        prop_assert_eq!(y.len(), a.nrows());
        let mut seen = y.indices().to_vec();
        seen.sort_unstable();
        let before = seen.len();
        seen.dedup();
        prop_assert_eq!(before, seen.len(), "duplicate output indices");
        prop_assert!(seen.iter().all(|&i| i < a.nrows()));
        if sorted {
            prop_assert!(y.is_sorted());
        }
    }

    #[test]
    fn all_baselines_match_reference_for_any_operands(
        (a, x) in operands(60),
        threads in 1usize..5,
    ) {
        let expected = spmspv_reference(&a, &x, &PlusTimes);
        let opts = SpMSpVOptions::with_threads(threads);
        let mut algs: Vec<Box<dyn SpMSpV<f64, f64, PlusTimes>>> = vec![
            Box::new(CombBlasSpa::new(&a, opts.clone())),
            Box::new(CombBlasHeap::new(&a, opts.clone())),
            Box::new(GraphMatSpMSpV::new(&a, opts.clone())),
            Box::new(SortBased::new(&a, opts)),
        ];
        for alg in algs.iter_mut() {
            let y = alg.multiply(&x, &PlusTimes);
            prop_assert!(y.same_entries(&expected), "{} diverged", alg.name());
        }
    }

    #[test]
    fn spmspv_is_linear_in_the_vector((a, x) in operands(60)) {
        // A(2x) == 2(Ax) under plus-times with integer values.
        let doubled = SparseVec::from_parts(
            x.len(),
            x.indices().to_vec(),
            x.values().iter().map(|v| v * 2.0).collect(),
        ).unwrap();
        let mut alg = SpMSpVBucket::new(&a, SpMSpVOptions::with_threads(2));
        let y1 = alg.multiply(&x, &PlusTimes);
        let y2 = alg.multiply(&doubled, &PlusTimes);
        let y1_doubled = SparseVec::from_parts(
            y1.len(),
            y1.indices().to_vec(),
            y1.values().iter().map(|v| v * 2.0).collect(),
        ).unwrap();
        prop_assert!(y2.same_entries(&y1_doubled));
    }

    #[test]
    fn output_nnz_is_bounded_by_required_work((a, x) in operands(80)) {
        let y = spmspv_reference(&a, &x, &PlusTimes);
        let work = required_multiplications(&a, &x);
        prop_assert!(y.nnz() <= work, "nnz(y)={} exceeds d*f={}", y.nnz(), work);
    }

    #[test]
    fn format_conversions_roundtrip(a in matrix_strategy(60)) {
        // CSC -> DCSC -> CSC and transpose-twice agreements.
        let dcsc = DcscMatrix::from_csc(&a);
        prop_assert_eq!(dcsc.nnz(), a.nnz());
        prop_assert_eq!(dcsc.to_csc(), a.clone());

        let tt = a.transpose().transpose();
        prop_assert_eq!(tt, a.clone());

        // row_split partitions the nonzeros for any piece count
        for pieces in [1usize, 2, 3, 7] {
            let split = a.row_split(pieces);
            let total: usize = split.iter().map(|p| p.nnz()).sum();
            prop_assert_eq!(total, a.nnz());
        }
    }

    #[test]
    fn sorted_and_unsorted_bucket_variants_agree((a, x) in operands(70)) {
        let mut sorted = SpMSpVBucket::new(&a, SpMSpVOptions::with_threads(3).sorted(true));
        let mut unsorted = SpMSpVBucket::new(&a, SpMSpVOptions::with_threads(3).sorted(false));
        let ys = sorted.multiply(&x, &PlusTimes);
        let yu = unsorted.multiply(&x, &PlusTimes);
        prop_assert!(ys.same_entries(&yu));
        prop_assert!(ys.is_sorted());
    }
}
