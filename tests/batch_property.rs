//! Property-based tests for the batched SpMSpV subsystem: for any operands,
//! the fused kernel [`SpMSpVBucketBatch`], the fallback [`NaiveBatch`] and
//! `k` independent [`spmspv_reference`] calls must agree — across semirings
//! (`PlusTimes`, the BFS `Select2ndMin`) and batch widths `k ∈ {1, 3, 32}`.
//!
//! Entry values are small integers (stored as `f64` where applicable) so
//! floating-point addition is exact and results compare exactly regardless
//! of reduction order.

use std::sync::Arc;

use proptest::prelude::*;
use sparse_substrate::ops::{spmspv_batch_reference, spmspv_reference};
use sparse_substrate::{
    CooMatrix, CscMatrix, MaskBits, PlusTimes, Select2ndMin, SparseVec, SparseVecBatch,
};
use spmspv::batch::{NaiveBatch, SpMSpVBatch, SpMSpVBucketBatch};
use spmspv::{
    build_batch_algorithm, AdaptiveBatch, BatchAlgorithmKind, BatchMaskView, MaskMode, SpMSpV,
    SpMSpVBucket, SpMSpVOptions,
};

/// Strategy: a random sparse matrix with up to `max_dim` rows/columns and
/// small-integer entries.
fn matrix_strategy(max_dim: usize) -> impl Strategy<Value = CscMatrix<f64>> {
    (2usize..max_dim, 2usize..max_dim).prop_flat_map(|(m, n)| {
        let entry = (0..m, 0..n, 1i32..16);
        proptest::collection::vec(entry, 0..(m * n).min(300)).prop_map(move |entries| {
            let mut coo = CooMatrix::new(m, n);
            for (i, j, v) in entries {
                coo.push(i, j, v as f64);
            }
            CscMatrix::from_coo(coo, |a, b| a + b)
        })
    })
}

/// Strategy: one sparse lane of dimension `n` with integer values.
fn lane_strategy(n: usize) -> impl Strategy<Value = SparseVec<f64>> {
    proptest::collection::btree_map(0..n, 1i32..16, 0..n.min(40)).prop_map(move |map| {
        let pairs = map.into_iter().map(|(i, v)| (i, v as f64)).collect();
        SparseVec::from_pairs(n, pairs).expect("btree_map keys are unique and in range")
    })
}

/// Strategy: a batch of `k ∈ {1, 3, 32}` lanes conforming to `a`.
fn batch_operands(max_dim: usize) -> impl Strategy<Value = (CscMatrix<f64>, SparseVecBatch<f64>)> {
    matrix_strategy(max_dim).prop_flat_map(|a| {
        let n = a.ncols();
        let k = prop_oneof![Just(1usize), Just(3usize), Just(32usize)];
        (Just(a), k.prop_flat_map(move |k| proptest::collection::vec(lane_strategy(n), k..k + 1)))
            .prop_map(|(a, lanes)| {
                let batch = SparseVecBatch::from_lanes(&lanes).expect("lanes share n");
                (a, batch)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bucket_batch_equals_naive_equals_reference_plus_times(
        (a, x) in batch_operands(50),
        threads in 1usize..5,
    ) {
        let opts = SpMSpVOptions::with_threads(threads);
        let expected = spmspv_batch_reference(&a, &x, &PlusTimes);

        let mut fused = SpMSpVBucketBatch::new(&a, opts.clone());
        let y = fused.multiply_batch(&x, &PlusTimes);
        prop_assert_eq!(&y, &expected, "fused kernel diverged from reference");

        let mut naive = NaiveBatch::new(&a, opts);
        let yn = naive.multiply_batch(&x, &PlusTimes);
        prop_assert_eq!(&y, &yn, "fused kernel diverged from NaiveBatch");

        // Structural invariants, lane by lane.
        prop_assert_eq!(y.len(), a.nrows());
        prop_assert_eq!(y.k(), x.k());
        for l in 0..y.k() {
            let (indices, _) = y.lane(l);
            prop_assert!(indices.windows(2).all(|w| w[0] < w[1]), "lane {} not ascending", l);
            prop_assert!(indices.iter().all(|&i| i < a.nrows()), "lane {} out of bounds", l);
        }
    }

    #[test]
    fn bucket_batch_matches_reference_on_bfs_semiring(
        (a, x) in batch_operands(50),
        threads in 1usize..5,
    ) {
        // Reinterpret each lane as a BFS frontier: the value carried for
        // index i is i itself (the discovering vertex's id).
        let frontier_lanes: Vec<SparseVec<usize>> = (0..x.k())
            .map(|l| {
                let (indices, _) = x.lane(l);
                SparseVec::from_pairs(x.len(), indices.iter().map(|&i| (i, i)).collect())
                    .expect("indices already validated")
            })
            .collect();
        let frontiers = SparseVecBatch::from_lanes(&frontier_lanes).expect("lanes share n");

        let expected = spmspv_batch_reference(&a, &frontiers, &Select2ndMin);
        let mut fused = SpMSpVBucketBatch::new(&a, SpMSpVOptions::with_threads(threads));
        let y = fused.multiply_batch(&frontiers, &Select2ndMin);
        prop_assert_eq!(&y, &expected, "Select2ndMin batch diverged from reference");

        let mut naive = NaiveBatch::new(&a, SpMSpVOptions::with_threads(threads));
        let yn = naive.multiply_batch(&frontiers, &Select2ndMin);
        prop_assert_eq!(&y, &yn, "Select2ndMin batch diverged from NaiveBatch");
    }

    #[test]
    fn sorted_bucket_batch_is_bit_identical_to_k_single_calls(
        (a, x) in batch_operands(40),
        batch_threads in 1usize..5,
        single_threads in 1usize..5,
    ) {
        // Lane l's reduction order inside the batched kernel is identical
        // to the single-vector kernel's, so equality is exact (bit-level),
        // not just up to rounding — even though thread counts differ
        // between the two runs.
        let mut fused =
            SpMSpVBucketBatch::new(&a, SpMSpVOptions::with_threads(batch_threads));
        let y = fused.multiply_batch(&x, &PlusTimes);
        let mut single =
            SpMSpVBucket::new(&a, SpMSpVOptions::with_threads(single_threads));
        for l in 0..x.k() {
            let lane_y = single.multiply(&x.lane_vec(l), &PlusTimes);
            prop_assert_eq!(
                y.lane_vec(l), lane_y,
                "lane {} not bit-identical to an independent SpMSpVBucket call", l
            );
        }
    }

    /// The fused bucket kernel matches the [`NaiveBatch`] oracle bit for
    /// bit — any mask shape, k ∈ {1, 3, 32}, any thread count.
    #[test]
    fn every_spa_backend_matches_the_naive_oracle(
        (a, x) in batch_operands(40),
        threads in 1usize..5,
        mask_case in 0usize..5,
    ) {
        let m = a.nrows();
        let k = x.k();
        // Mask shapes: none, shared keep/complement, per-lane keep/complement.
        let shared = MaskBits::from_indices(m, (0..m).step_by(3));
        let per_lane: Vec<Arc<MaskBits>> = (0..k)
            .map(|l| Arc::new(MaskBits::from_indices(m, (l % 4..m).step_by(2 + l % 3))))
            .collect();
        let view = match mask_case {
            0 => None,
            1 => Some(BatchMaskView::Shared(spmspv::MaskView::new(&shared, MaskMode::Keep))),
            2 => Some(BatchMaskView::Shared(spmspv::MaskView::new(
                &shared,
                MaskMode::Complement,
            ))),
            3 => Some(BatchMaskView::PerLane { masks: &per_lane, mode: MaskMode::Keep }),
            _ => Some(BatchMaskView::PerLane { masks: &per_lane, mode: MaskMode::Complement }),
        };

        let opts = SpMSpVOptions::with_threads(threads);
        let mut naive = NaiveBatch::new(&a, opts.clone());
        let oracle = naive.multiply_batch_masked(&x, &PlusTimes, view.as_ref());
        let mut fused = SpMSpVBucketBatch::new(&a, opts);
        let y = fused.multiply_batch_masked(&x, &PlusTimes, view.as_ref());
        prop_assert_eq!(&y, &oracle, "not bit-identical to the oracle (mask {})", mask_case);
    }

    /// The adaptive batch dispatcher always produces exactly what the fixed
    /// family it resolved to produces. On operands this small the fixed
    /// thresholds reduce to: one worker → one flat row-split pass; more
    /// workers → per-lane naive for k = 1, the fused bucket kernel otherwise
    /// — so the property reaches all three delegates.
    #[test]
    fn adaptive_always_matches_its_resolved_delegate(
        (a, x) in batch_operands(40),
        threads in 1usize..5,
    ) {
        let opts = SpMSpVOptions::with_threads(threads);
        let mut adaptive: AdaptiveBatch<'_, f64, f64, PlusTimes> =
            AdaptiveBatch::new(&a, opts.clone());
        let y = adaptive.multiply_batch(&x, &PlusTimes);
        match adaptive.last_run_info() {
            // Empty inputs short-circuit before any merge runs, so there is
            // legitimately nothing to report.
            None => prop_assert!(x.is_empty(), "run info may only be absent for empty inputs"),
            Some(info) => {
                let expected = match (threads, x.k()) {
                    (1, _) => BatchAlgorithmKind::CombBlasRowSplit,
                    (_, 1) => BatchAlgorithmKind::Naive,
                    _ => BatchAlgorithmKind::Bucket,
                };
                prop_assert_eq!(info.kernel, expected);
                let mut fixed =
                    build_batch_algorithm::<f64, f64, PlusTimes>(&a, info.kernel, opts);
                let y_fixed = fixed.multiply_batch(&x, &PlusTimes);
                prop_assert_eq!(y, y_fixed, "adaptive diverged from its {} delegate", info);
            }
        }
    }

    #[test]
    fn batch_lanes_are_independent((a, x) in batch_operands(40)) {
        // Multiplying the whole batch must equal multiplying any sub-batch:
        // lanes never leak into each other.
        let mut fused = SpMSpVBucketBatch::new(&a, SpMSpVOptions::with_threads(2));
        let y_full = fused.multiply_batch(&x, &PlusTimes);
        let half = x.k().div_ceil(2);
        let sub = SparseVecBatch::from_lanes(&x.to_lanes()[..half]).expect("lanes share n");
        let y_sub = fused.multiply_batch(&sub, &PlusTimes);
        for l in 0..half {
            prop_assert_eq!(y_full.lane_vec(l), y_sub.lane_vec(l), "lane {} leaked", l);
        }
    }
}

/// Deterministic fixture check on the graph classes the paper benchmarks
/// (acceptance criterion: bit-identical on R-MAT and grid fixtures).
#[test]
fn bit_identical_on_rmat_and_grid_fixtures() {
    use sparse_substrate::gen::{grid2d, random_sparse_vec, rmat, RmatParams};

    let fixtures: Vec<(&str, CscMatrix<f64>)> =
        vec![("rmat", rmat(10, 8, RmatParams::graph500(), 17)), ("grid", grid2d(30, 34))];
    for (name, a) in fixtures {
        let n = a.ncols();
        for k in [1usize, 3, 32] {
            let lanes: Vec<SparseVec<f64>> =
                (0..k).map(|l| random_sparse_vec(n, (n / 8).max(1), 900 + l as u64)).collect();
            let x = SparseVecBatch::from_lanes(&lanes).unwrap();
            let mut fused = SpMSpVBucketBatch::new(&a, SpMSpVOptions::with_threads(4));
            let y = fused.multiply_batch(&x, &PlusTimes);
            let mut single = SpMSpVBucket::new(&a, SpMSpVOptions::with_threads(3));
            for l in 0..k {
                let lane_y = single.multiply(&x.lane_vec(l), &PlusTimes);
                assert_eq!(y.lane_vec(l), lane_y, "{name}: lane {l} of k={k} not bit-identical");
            }
            // And the reference agrees up to rounding (random f64 values).
            let expected = spmspv_batch_reference(&a, &x, &PlusTimes);
            assert!(y.approx_same_entries(&expected, 1e-9), "{name}: reference disagrees");
        }
    }
}

/// The batched result of a single lane equals the plain single-vector
/// pipeline end to end (reference included), tying the two subsystems
/// together.
#[test]
fn single_lane_round_trip_through_both_pipelines() {
    use sparse_substrate::gen::{random_sparse_vec, rmat, RmatParams};

    let a = rmat(9, 6, RmatParams::web_like(), 23);
    let x = random_sparse_vec(a.ncols(), 100, 5);
    let batch_x = SparseVecBatch::from_single(&x);

    let mut fused = SpMSpVBucketBatch::new(&a, SpMSpVOptions::with_threads(2));
    let y_batch = fused.multiply_batch(&batch_x, &PlusTimes).lane_vec(0);
    let mut single = SpMSpVBucket::new(&a, SpMSpVOptions::with_threads(2));
    let y_single = single.multiply(&x, &PlusTimes);
    let y_ref = spmspv_reference(&a, &x, &PlusTimes);

    assert_eq!(y_batch, y_single);
    assert!(y_batch.approx_same_entries(&y_ref, 1e-9));
}
