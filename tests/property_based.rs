//! Property-based tests (proptest) over randomly generated matrices,
//! vectors and algorithm configurations.
//!
//! These complement the unit tests with invariants that must hold for *any*
//! operand pair:
//!
//! * every parallel algorithm agrees with the sequential reference, on
//!   small operands and on operands large enough to split a call across
//!   participants,
//! * the output never contains duplicate or out-of-range indices,
//! * sparse vectors are strictly ascending by construction, and every
//!   kernel's output is,
//! * format conversions round-trip,
//! * SpMSpV is linear in the input vector.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use sparse_substrate::ops::{required_multiplications, spmspv_reference};
use sparse_substrate::{
    CooMatrix, CscMatrix, DcscMatrix, MaskBits, PlusTimes, SparseVec, SparseVecBatch,
};
use spmspv::baselines::{CombBlasHeap, CombBlasSpa, GraphMatSpMSpV, SortBased};
use spmspv::{
    build_algorithm, AlgorithmKind, BatchMaskView, LaneBatch, MaskMode, MaskView, SpMSpV,
    SpMSpVBucket, SpMSpVOptions,
};

mod common;

const ALL_KINDS: [AlgorithmKind; 8] = [
    AlgorithmKind::Bucket,
    AlgorithmKind::CombBlasSpa,
    AlgorithmKind::CombBlasHeap,
    AlgorithmKind::GraphMat,
    AlgorithmKind::SortBased,
    AlgorithmKind::Sequential,
    AlgorithmKind::Pull,
    AlgorithmKind::Adaptive,
];

fn ascending(indices: &[usize]) -> bool {
    indices.windows(2).all(|w| w[0] < w[1])
}

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

/// Strategy: operands whose calls earn several participants — a seeded
/// Erdős–Rényi matrix of 300–700 columns at mean degree 64 with
/// small-integer entries, and a frontier over a tenth to all of its columns:
/// ~2 000–45 000 flops, so a call earns one to five participants.
fn split_operands() -> impl Strategy<Value = (CscMatrix<f64>, SparseVec<f64>)> {
    (300usize..700, any::<u64>(), 1usize..11).prop_map(|(n, seed, tenths)| {
        (common::degree_64_matrix(n, seed), common::integer_frontier(n, n * tenths / 10, seed ^ 1))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The bucket kernel split as many ways as the call's flops earn, and
    /// Adaptive on both sides of its fork threshold, match the reference.
    #[test]
    fn split_calls_match_reference((a, x) in split_operands(), threads in 1usize..6) {
        let expected = spmspv_reference(&a, &x, &PlusTimes);
        let opts = SpMSpVOptions::with_threads(threads);
        for kind in [AlgorithmKind::Bucket, AlgorithmKind::Adaptive] {
            let mut alg = build_algorithm::<f64, f64, PlusTimes>(&a, kind, opts.clone());
            prop_assert_eq!(&alg.multiply(&x, &PlusTimes), &expected, "{}", kind);
        }
    }

    #[test]
    fn bucket_matches_reference_for_any_operands(
        (a, x) in operands(80),
        threads in 1usize..6,
    ) {
        let expected = spmspv_reference(&a, &x, &PlusTimes);
        let mut alg = SpMSpVBucket::new(&a, SpMSpVOptions::with_threads(threads));
        let y = alg.multiply(&x, &PlusTimes);
        prop_assert_eq!(&y, &expected);
        // structural invariants
        prop_assert_eq!(y.len(), a.nrows());
        prop_assert!(ascending(y.indices()), "output not ascending");
        prop_assert!(y.indices().iter().all(|&i| i < a.nrows()));
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
            prop_assert_eq!(&y, &expected, "{} diverged", alg.name());
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
        prop_assert_eq!(y2, y1_doubled);
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

    /// Strictly ascending indices are an invariant of every sparse vector
    /// and batch lane: `from_pairs` sorts whatever order it is given, the
    /// other constructors reject a repeated or descending index, and every
    /// kernel family's output keeps the order.
    #[test]
    fn sparse_vectors_are_strictly_ascending_by_construction(
        (a, x) in operands(50),
        shuffle in any::<u64>(),
        threads in 1usize..4,
    ) {
        let n = x.len();
        let pairs: Vec<(usize, f64)> = x.iter().map(|(i, &v)| (i, v)).collect();
        let mut shuffled = pairs.clone();
        shuffled.sort_by_key(|&(i, _)| (i as u64 ^ shuffle).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        prop_assert_eq!(
            SparseVec::from_pairs(n, shuffled).unwrap(),
            SparseVec::from_pairs(n, pairs.clone()).unwrap()
        );

        if x.nnz() >= 2 {
            let (idx, vals) = (x.indices(), x.values().to_vec());
            let mut descending = idx.to_vec();
            descending.swap(0, 1);
            let mut repeated = idx.to_vec();
            repeated[1] = repeated[0];
            for bad in [descending, repeated] {
                prop_assert!(SparseVec::from_parts(n, bad.clone(), vals.clone()).is_err());
                let mut pushed = SparseVec::new(n);
                let pushes = catch_unwind(AssertUnwindSafe(|| {
                    for &i in &bad {
                        pushed.push(i, 1.0);
                    }
                }));
                prop_assert!(pushes.is_err(), "push accepted {:?}", bad);
            }
        }

        let opts = SpMSpVOptions::with_threads(threads);
        for kind in ALL_KINDS {
            let mut alg = build_algorithm::<f64, f64, PlusTimes>(&a, kind, opts.clone());
            prop_assert!(ascending(alg.multiply(&x, &PlusTimes).indices()), "{kind}");
        }
        let mut evens = x.clone();
        evens.retain(|i, _| i % 2 == 0);
        let batch = SparseVecBatch::from_lanes(&[x.clone(), SparseVec::new(n), evens]).unwrap();
        let thirds = MaskBits::from_indices(a.nrows(), (0..a.nrows()).step_by(3));
        let view = BatchMaskView::Shared(MaskView::new(&thirds, MaskMode::Keep));
        for kind in ALL_KINDS {
            let mut alg: LaneBatch<'_, f64, f64, PlusTimes> = LaneBatch::new(&a, kind, opts.clone());
            let y = alg.multiply_batch(&batch, &PlusTimes);
            let masked = alg.multiply_batch_masked(&batch, &PlusTimes, Some(&view));
            for l in 0..y.k() {
                prop_assert!(ascending(y.lane(l).indices()), "{kind} lane {l}");
                prop_assert!(ascending(masked.lane(l).indices()), "{kind} masked lane {l}");
            }
            prop_assert_eq!(masked, common::mask_filter_batch(y, &view), "{}", kind);
        }
    }
}
