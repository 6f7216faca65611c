//! Property-based tests for the batched SpMSpV subsystem: for any operands,
//! the lane runner [`LaneBatch`] over bucket and Adaptive lanes, `k`
//! independent single-vector calls and `k` independent [`spmspv_reference`]
//! calls must agree — across semirings (`PlusTimes`, the BFS
//! `Select2ndMin`), batch widths `1 ≤ k ≤ 32` and thread counts
//! `t ∈ {1, 2, 3, 8}`. Most operands are small, so their batches earn one
//! participant and run spread; the adaptive suite's operands are large
//! enough to earn up to eight, so both the narrow (`k < t`) and the spread
//! (`k ≥ t`) paths of the lane runner are compared.
//!
//! Entry values are small integers (stored as `f64` where applicable) so
//! floating-point addition is exact and results compare exactly regardless
//! of reduction order.

use std::sync::Arc;

use proptest::prelude::*;
use sparse_substrate::ops::{required_multiplications, spmspv_batch_reference, spmspv_reference};
use sparse_substrate::{
    CooMatrix, CscMatrix, MaskBits, PlusTimes, Select2ndMin, SparseVec, SparseVecBatch,
};
use sparse_substrate::{Scalar, Semiring};
use spmspv::ops::Mxv;
use spmspv::{
    build_algorithm, AdaptiveSpMSpV, AlgorithmKind, BatchMaskView, Executor, LaneBatch, MaskMode,
    SpMSpV, SpMSpVBucket, SpMSpVOptions,
};

mod common;

/// A lane runner of `kind` lanes at `threads` participants.
fn runner<'a, X: Scalar, S: Semiring<f64, X> + 'a>(
    a: &'a CscMatrix<f64>,
    kind: AlgorithmKind,
    threads: usize,
) -> LaneBatch<'a, f64, X, S> {
    LaneBatch::new(a, kind, SpMSpVOptions::with_threads(threads))
}

/// `k` independent single-vector bucket calls at `threads` participants,
/// one per lane, each under its lane's mask: the oracle every batch must
/// equal bit for bit.
fn independent_lanes<X: Scalar, S: Semiring<f64, X>>(
    a: &CscMatrix<f64>,
    threads: usize,
    x: &SparseVecBatch<X>,
    semiring: &S,
    mask: Option<&BatchMaskView<'_>>,
) -> SparseVecBatch<S::Output> {
    let mut single = SpMSpVBucket::new(a, SpMSpVOptions::with_threads(threads));
    let lanes = (0..x.k())
        .map(|l| single.multiply_masked(x.lane(l), semiring, mask.map(|m| m.lane_view(l))))
        .collect();
    SparseVecBatch::with_lanes(a.nrows(), lanes).expect("lanes have the row dimension")
}

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

/// Strategy: a batch of `1 ≤ k ≤ 32` lanes conforming to `a`.
fn batch_operands(max_dim: usize) -> impl Strategy<Value = (CscMatrix<f64>, SparseVecBatch<f64>)> {
    matrix_strategy(max_dim).prop_flat_map(|a| {
        let n = a.ncols();
        let k = 1usize..33;
        (Just(a), k.prop_flat_map(move |k| proptest::collection::vec(lane_strategy(n), k..k + 1)))
            .prop_map(|(a, lanes)| {
                let batch = SparseVecBatch::from_lanes(&lanes).expect("lanes share n");
                (a, batch)
            })
    })
}

/// Strategy: a batch large enough for the lane runner's participant cap to
/// matter — a seeded Erdős–Rényi matrix of 300–700 columns at mean degree
/// 64 with small-integer entries, and `1 ≤ k ≤ 8` lanes over a tenth to all
/// of its columns each (~2 000–45 000 flops a lane). So a batch earns one
/// to eight participants, runs narrow or spread, and a narrow batch's lanes
/// fall on both sides of Adaptive's fork threshold.
fn large_batch_operands() -> impl Strategy<Value = (CscMatrix<f64>, SparseVecBatch<f64>)> {
    (300usize..700, any::<u64>(), proptest::collection::vec(1usize..11, 1..9)).prop_map(
        |(n, seed, tenths)| {
            let lanes: Vec<SparseVec<f64>> = tenths
                .iter()
                .enumerate()
                .map(|(l, &t)| common::integer_frontier(n, n * t / 10, seed ^ (l as u64 + 1)))
                .collect();
            let x = SparseVecBatch::from_lanes(&lanes).expect("lanes share n");
            (common::degree_64_matrix(n, seed), x)
        },
    )
}

/// Strategy: a thread count on both sides of small and large `k`.
fn threads() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(2usize), Just(3usize), Just(8usize)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bucket_batch_equals_naive_equals_reference_plus_times(
        (a, x) in batch_operands(50),
        threads in threads(),
    ) {
        let expected = spmspv_batch_reference(&a, &x, &PlusTimes);

        let y = runner(&a, AlgorithmKind::Bucket, threads).multiply_batch(&x, &PlusTimes);
        prop_assert_eq!(&y, &expected, "bucket batch diverged from reference");

        let yn = independent_lanes(&a, threads, &x, &PlusTimes, None);
        prop_assert_eq!(&y, &yn, "bucket batch diverged from independent calls");

        let mut adaptive = runner(&a, AlgorithmKind::Adaptive, threads);
        prop_assert_eq!(&adaptive.multiply_batch(&x, &PlusTimes), &yn, "adaptive diverged");

        // Structural invariants, lane by lane.
        prop_assert_eq!(y.len(), a.nrows());
        prop_assert_eq!(y.k(), x.k());
        for l in 0..y.k() {
            let indices = y.lane(l).indices();
            prop_assert!(indices.windows(2).all(|w| w[0] < w[1]), "lane {} not ascending", l);
            prop_assert!(indices.iter().all(|&i| i < a.nrows()), "lane {} out of bounds", l);
        }
    }

    #[test]
    fn bucket_batch_matches_reference_on_bfs_semiring(
        (a, x) in batch_operands(50),
        threads in threads(),
    ) {
        // Reinterpret each lane as a BFS frontier: the value carried for
        // index i is i itself (the discovering vertex's id).
        let frontier_lanes: Vec<SparseVec<usize>> = (0..x.k())
            .map(|l| {
                let indices = x.lane(l).indices();
                SparseVec::from_pairs(x.len(), indices.iter().map(|&i| (i, i)).collect())
                    .expect("indices already validated")
            })
            .collect();
        let frontiers = SparseVecBatch::from_lanes(&frontier_lanes).expect("lanes share n");

        let expected = spmspv_batch_reference(&a, &frontiers, &Select2ndMin);
        let y = runner(&a, AlgorithmKind::Bucket, threads).multiply_batch(&frontiers, &Select2ndMin);
        prop_assert_eq!(&y, &expected, "Select2ndMin batch diverged from reference");

        let yn = independent_lanes(&a, threads, &frontiers, &Select2ndMin, None);
        prop_assert_eq!(&y, &yn, "Select2ndMin batch diverged from independent calls");

        let mut adaptive = runner(&a, AlgorithmKind::Adaptive, threads);
        let ya = adaptive.multiply_batch(&frontiers, &Select2ndMin);
        prop_assert_eq!(&ya, &yn, "Select2ndMin adaptive batch diverged from independent calls");
    }

    #[test]
    fn sorted_bucket_batch_is_bit_identical_to_k_single_calls(
        (a, x) in batch_operands(40),
        batch_threads in threads(),
        single_threads in 1usize..5,
    ) {
        // Lane l of the batch *is* a single-vector call, whose output does
        // not depend on its thread count, so equality is exact (bit-level),
        // not just up to rounding — even though thread counts differ
        // between the two runs.
        let y = runner(&a, AlgorithmKind::Bucket, batch_threads).multiply_batch(&x, &PlusTimes);
        let mut single =
            SpMSpVBucket::new(&a, SpMSpVOptions::with_threads(single_threads));
        for l in 0..x.k() {
            let lane_y = single.multiply(x.lane(l), &PlusTimes);
            prop_assert_eq!(
                y.lane(l), &lane_y,
                "lane {} not bit-identical to an independent SpMSpVBucket call", l
            );
        }
    }

    /// Both lane families match `k` independent masked single-vector calls
    /// bit for bit, and the post-filtered unmasked batch — any mask shape,
    /// 1 ≤ k ≤ 32, t ∈ {1, 2, 3, 8}.
    #[test]
    fn every_spa_backend_matches_the_naive_oracle(
        (a, x) in batch_operands(40),
        threads in threads(),
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

        let oracle = independent_lanes(&a, threads, &x, &PlusTimes, view.as_ref());
        if let Some(view) = &view {
            let unmasked = spmspv_batch_reference(&a, &x, &PlusTimes);
            prop_assert_eq!(&oracle, &common::mask_filter_batch(unmasked, view));
        }
        for kind in [AlgorithmKind::Bucket, AlgorithmKind::Adaptive] {
            let mut alg = runner(&a, kind, threads);
            let y = alg.multiply_batch_masked(&x, &PlusTimes, view.as_ref());
            prop_assert_eq!(&y, &oracle, "{} not bit-identical to the oracle (mask {})", kind, mask_case);
        }
    }

    /// Every lane of an Adaptive batch is exactly what the single-vector
    /// family it resolved to produces, and the whole batch equals the
    /// bucket batch. A lane runs on a kernel of all `threads` participants
    /// when the batch is narrow and of one otherwise, so an Adaptive kernel
    /// of those participants, replaying the lane, makes its choice. The
    /// operands are large enough that lanes pick both push families.
    #[test]
    fn adaptive_always_matches_its_resolved_delegate(
        (a, x) in large_batch_operands(),
        threads in threads(),
    ) {
        let y = runner(&a, AlgorithmKind::Adaptive, threads).multiply_batch(&x, &PlusTimes);
        let bucket = runner(&a, AlgorithmKind::Bucket, threads).multiply_batch(&x, &PlusTimes);
        prop_assert_eq!(&y, &bucket, "adaptive batch diverged from the bucket batch");
        let flops = (0..x.k()).map(|l| required_multiplications(&a, x.lane(l))).sum();
        let narrow = 2 * x.k() <= Executor::new(threads).capped_for(flops).threads();
        let lane_opts = SpMSpVOptions::with_threads(if narrow { threads } else { 1 });
        for l in 0..x.k() {
            let mut replay: AdaptiveSpMSpV<'_, f64, f64, PlusTimes> =
                AdaptiveSpMSpV::new(&a, lane_opts.clone());
            prop_assert_eq!(y.lane(l), &replay.multiply(x.lane(l), &PlusTimes), "lane {}", l);
            let choice = replay.last_choice().expect("the replay ran");
            let mut fixed = build_algorithm::<f64, f64, PlusTimes>(&a, choice, lane_opts.clone());
            let y_fixed = fixed.multiply(x.lane(l), &PlusTimes);
            prop_assert_eq!(y.lane(l), &y_fixed, "lane {} diverged from its {} delegate", l, choice);
        }
    }

    #[test]
    fn batch_lanes_are_independent((a, x) in batch_operands(40)) {
        // Multiplying the whole batch must equal multiplying any sub-batch:
        // lanes never leak into each other.
        let mut fused = runner(&a, AlgorithmKind::Bucket, 2);
        let y_full = fused.multiply_batch(&x, &PlusTimes);
        let half = x.k().div_ceil(2);
        let mut lanes = x.clone().into_lanes();
        lanes.truncate(half);
        let sub = SparseVecBatch::with_lanes(x.len(), lanes).expect("lanes share n");
        let y_sub = fused.multiply_batch(&sub, &PlusTimes);
        for l in 0..half {
            prop_assert_eq!(y_full.lane(l), y_sub.lane(l), "lane {} leaked", l);
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
            let y = runner(&a, AlgorithmKind::Bucket, 4).multiply_batch(&x, &PlusTimes);
            let mut single = SpMSpVBucket::new(&a, SpMSpVOptions::with_threads(3));
            for l in 0..k {
                let lane_y = single.multiply(x.lane(l), &PlusTimes);
                assert_eq!(y.lane(l), &lane_y, "{name}: lane {l} of k={k} not bit-identical");
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

    let mut op = Mxv::over(&a)
        .semiring(&PlusTimes)
        .algorithm(AlgorithmKind::Bucket)
        .options(SpMSpVOptions::with_threads(2))
        .prepare();
    let y_batch = op.run_batch(&batch_x).into_lanes().remove(0);
    let mut single = SpMSpVBucket::new(&a, SpMSpVOptions::with_threads(2));
    let y_single = single.multiply(&x, &PlusTimes);
    let y_ref = spmspv_reference(&a, &x, &PlusTimes);

    assert_eq!(y_batch, y_single);
    assert!(y_batch.approx_same_entries(&y_ref, 1e-9));
}
