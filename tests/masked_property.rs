//! Property-based tests for in-kernel masked SpMSpV: for any operands and
//! any mask, every kernel's `multiply_masked` / `multiply_batch_masked`
//! must equal the post-filtered unmasked oracle (multiply, then drop the
//! rows the mask rejects) — across [`MaskMode::Keep`] and
//! [`MaskMode::Complement`], semirings (`PlusTimes`, the BFS
//! `Select2ndMin`), every algorithm family,
//! and batch widths `1 ≤ k ≤ 32` at thread counts `t ∈ {1, 2, 3, 8}` with
//! shared and per-lane masks. The drawn operands are small, so their calls
//! earn one participant: they run one-participant bucket kernels and
//! Adaptive's sequential delegate. A counting semiring checks, on operands
//! whose every lane earns eight participants, that the bucket kernels and
//! the adaptive batch never form a product the mask discards — in a split
//! Step 1, on both sides of the lane runner's narrow / spread split, and in
//! both Adaptive delegates.
//!
//! Entry values are small integers (stored as `f64` where applicable) so
//! floating-point addition is exact and results compare exactly regardless
//! of reduction order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use sparse_substrate::ops::{required_multiplications, spmspv_batch_reference, spmspv_reference};
use sparse_substrate::{
    CooMatrix, CscMatrix, MaskBits, PlusTimes, Select2ndMin, Semiring, SparseVec, SparseVecBatch,
};
use spmspv::batch::mask_filter_batch;
use spmspv::ops::Mxv;
use spmspv::{
    build_algorithm, build_batch_algorithm, AdaptiveBatch, AlgorithmKind, BatchAlgorithmKind,
    BatchMaskView, Executor, MaskMode, MaskView, SpMSpV, SpMSpVBatch, SpMSpVBucket,
    SpMSpVBucketBatch, SpMSpVOptions,
};

mod common;

const ALL_KINDS: [AlgorithmKind; 7] = [
    AlgorithmKind::Bucket,
    AlgorithmKind::CombBlasSpa,
    AlgorithmKind::CombBlasHeap,
    AlgorithmKind::GraphMat,
    AlgorithmKind::SortBased,
    AlgorithmKind::Sequential,
    AlgorithmKind::Pull,
];

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

/// Strategy: a mask over the output dimension `m` — an arbitrary subset of
/// the rows (possibly empty, possibly everything).
fn mask_strategy(m: usize) -> impl Strategy<Value = MaskBits> {
    proptest::collection::vec(0..m, 0..m.min(60))
        .prop_map(move |rows| MaskBits::from_indices(m, rows))
}

/// Strategy: a thread count on both sides of small and large `k`.
fn threads() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(2usize), Just(3usize), Just(8usize)]
}

fn mode_strategy() -> impl Strategy<Value = MaskMode> {
    prop_oneof![Just(MaskMode::Keep), Just(MaskMode::Complement)]
}

/// Strategy: matrix, single input lane, mask over the rows, mask mode.
fn single_operands(
    max_dim: usize,
) -> impl Strategy<Value = (CscMatrix<f64>, SparseVec<f64>, MaskBits, MaskMode)> {
    matrix_strategy(max_dim).prop_flat_map(|a| {
        let n = a.ncols();
        let m = a.nrows();
        (Just(a), lane_strategy(n), mask_strategy(m), mode_strategy())
    })
}

/// Strategy: matrix, a batch of `1 ≤ k ≤ 32` lanes, one mask per lane, mask
/// mode.
#[allow(clippy::type_complexity)]
fn batch_operands(
    max_dim: usize,
) -> impl Strategy<Value = (CscMatrix<f64>, SparseVecBatch<f64>, Vec<Arc<MaskBits>>, MaskMode)> {
    matrix_strategy(max_dim).prop_flat_map(|a| {
        let n = a.ncols();
        let m = a.nrows();
        let k = 1usize..33;
        (
            Just(a),
            k.prop_flat_map(move |k| {
                (
                    proptest::collection::vec(lane_strategy(n), k..k + 1),
                    proptest::collection::vec(mask_strategy(m).prop_map(Arc::new), k..k + 1),
                )
            }),
            mode_strategy(),
        )
            .prop_map(|(a, (lanes, masks), mode)| {
                let batch = SparseVecBatch::from_lanes(&lanes).expect("lanes share n");
                (a, batch, masks, mode)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every single-vector kernel's in-kernel mask equals post-filtering its
    /// own unmasked product, under `(+, ×)`.
    #[test]
    fn masked_single_kernels_equal_post_filter_oracle_plus_times(
        (a, x, mask, mode) in single_operands(40),
        threads in 1usize..5,
    ) {
        let opts = SpMSpVOptions::with_threads(threads);
        let view = MaskView::new(&mask, mode);
        for kind in ALL_KINDS {
            let mut alg = build_algorithm::<f64, f64, PlusTimes>(&a, kind, opts.clone());
            let y = alg.multiply_masked(&x, &PlusTimes, Some(view));
            let mut oracle = alg.multiply(&x, &PlusTimes);
            oracle.retain(|i, _| view.keeps(i));
            prop_assert_eq!(
                &y,
                &oracle,
                "{kind} in-kernel mask diverged from post-filter ({mode:?})"
            );
            // No masked-out row may survive.
            prop_assert!(
                y.iter().all(|(i, _)| view.keeps(i)),
                "{kind} leaked a masked-out row"
            );
        }
    }

    /// Same oracle under the BFS `(min, select2nd)` semiring, driven through
    /// the `Mxv` descriptor (the path `bfs` actually takes).
    #[test]
    fn masked_mxv_equals_post_filter_oracle_select2nd_min(
        (a, x, mask, mode) in single_operands(40),
        threads in 1usize..5,
    ) {
        let frontier = SparseVec::from_pairs(
            x.len(),
            x.iter().map(|(i, _)| (i, i)).collect(),
        ).expect("indices already validated");
        let view = MaskView::new(&mask, mode);
        for kind in ALL_KINDS {
            let mut masked_op = Mxv::over(&a)
                .semiring(&Select2ndMin)
                .algorithm(kind)
                .mask(&mask, mode)
                .options(SpMSpVOptions::with_threads(threads))
                .prepare();
            let y = masked_op.run(&frontier);
            let mut unmasked_op = Mxv::over(&a)
                .semiring(&Select2ndMin)
                .algorithm(kind)
                .options(SpMSpVOptions::with_threads(threads))
                .prepare();
            let mut oracle = unmasked_op.run(&frontier);
            oracle.retain(|i, _| view.keeps(i));
            prop_assert_eq!(
                &y,
                &oracle,
                "{kind} Mxv mask diverged from post-filter under Select2ndMin ({mode:?})"
            );
        }
    }

    /// Every batched family, shared mask: in-kernel equals post-filter,
    /// and the lane-parallel families equal the [`NaiveBatch`] oracle.
    ///
    /// [`NaiveBatch`]: spmspv::NaiveBatch
    #[test]
    fn masked_batch_kernels_equal_post_filter_oracle_shared(
        (a, x, masks, mode) in batch_operands(40),
        threads in threads(),
    ) {
        let opts = SpMSpVOptions::with_threads(threads);
        let shared = &masks[0];
        let view = BatchMaskView::Shared(MaskView::new(shared, mode));
        let naive = spmspv::NaiveBatch::new(&a, opts.clone())
            .multiply_batch_masked(&x, &PlusTimes, Some(&view));
        for kind in BatchAlgorithmKind::all() {
            let mut alg = build_batch_algorithm::<f64, f64, PlusTimes>(&a, kind, opts.clone());
            let y = alg.multiply_batch_masked(&x, &PlusTimes, Some(&view));
            let oracle = mask_filter_batch(alg.multiply_batch(&x, &PlusTimes), &view);
            prop_assert_eq!(
                &y,
                &oracle,
                "{kind} shared mask diverged from post-filter ({mode:?}, k={})",
                x.k()
            );
            prop_assert_eq!(&y, &naive, "{kind} diverged from NaiveBatch ({mode:?}, k={})", x.k());
        }
    }

    /// Every batched family, one mask per lane: in-kernel equals
    /// post-filter, lane by lane, and the lane-parallel families equal the
    /// [`NaiveBatch`] oracle.
    ///
    /// [`NaiveBatch`]: spmspv::NaiveBatch
    #[test]
    fn masked_batch_kernels_equal_post_filter_oracle_per_lane(
        (a, x, masks, mode) in batch_operands(40),
        threads in threads(),
    ) {
        let opts = SpMSpVOptions::with_threads(threads);
        let view = BatchMaskView::PerLane { masks: &masks, mode };
        let naive = spmspv::NaiveBatch::new(&a, opts.clone())
            .multiply_batch_masked(&x, &PlusTimes, Some(&view));
        for kind in BatchAlgorithmKind::all() {
            let mut alg = build_batch_algorithm::<f64, f64, PlusTimes>(&a, kind, opts.clone());
            let y = alg.multiply_batch_masked(&x, &PlusTimes, Some(&view));
            let oracle = mask_filter_batch(alg.multiply_batch(&x, &PlusTimes), &view);
            prop_assert_eq!(
                &y,
                &oracle,
                "{kind} per-lane mask diverged from post-filter ({mode:?}, k={})",
                x.k()
            );
            prop_assert_eq!(&y, &naive, "{kind} diverged from NaiveBatch ({mode:?}, k={})", x.k());
            for l in 0..y.k() {
                prop_assert!(
                    y.lane(l).indices().iter().all(|&i| view.keeps(i, l)),
                    "{kind} leaked a masked-out row in lane {l}"
                );
            }
        }
    }

    /// The masked bucket batch is bit-identical to k masked single-vector
    /// calls (the mask analogue of the unmasked bit-identity property).
    #[test]
    fn masked_batch_is_bit_identical_to_masked_single_calls(
        (a, x, masks, mode) in batch_operands(32),
        batch_threads in threads(),
        single_threads in 1usize..5,
    ) {
        let view = BatchMaskView::PerLane { masks: &masks, mode };
        let mut fused = build_batch_algorithm::<f64, f64, PlusTimes>(
            &a,
            BatchAlgorithmKind::Bucket,
            SpMSpVOptions::with_threads(batch_threads),
        );
        let y = fused.multiply_batch_masked(&x, &PlusTimes, Some(&view));
        let mut single = build_algorithm::<f64, f64, PlusTimes>(
            &a,
            AlgorithmKind::Bucket,
            SpMSpVOptions::with_threads(single_threads),
        );
        for (l, lane_mask) in masks.iter().enumerate() {
            let lane_y = single.multiply_masked(
                x.lane(l),
                &PlusTimes,
                Some(MaskView::new(lane_mask, mode)),
            );
            prop_assert_eq!(
                y.lane(l), &lane_y,
                "masked lane {} not bit-identical to a masked SpMSpVBucket call", l
            );
        }
    }

    /// Degenerate masks behave like set algebra demands: an empty Keep mask
    /// (or a full Complement mask) yields an empty product; an empty
    /// Complement mask (or a full Keep mask) yields the unmasked product.
    #[test]
    fn degenerate_masks_are_identity_or_annihilator(
        (a, x, _, _) in single_operands(30),
        threads in 1usize..4,
    ) {
        let m = a.nrows();
        let empty = MaskBits::new(m);
        let full = MaskBits::from_indices(m, 0..m);
        let opts = SpMSpVOptions::with_threads(threads);
        let mut alg = build_algorithm::<f64, f64, PlusTimes>(&a, AlgorithmKind::Bucket, opts);
        let unmasked = alg.multiply(&x, &PlusTimes);

        let keep_nothing =
            alg.multiply_masked(&x, &PlusTimes, Some(MaskView::new(&empty, MaskMode::Keep)));
        prop_assert!(keep_nothing.is_empty());
        let complement_everything =
            alg.multiply_masked(&x, &PlusTimes, Some(MaskView::new(&full, MaskMode::Complement)));
        prop_assert!(complement_everything.is_empty());

        let keep_everything =
            alg.multiply_masked(&x, &PlusTimes, Some(MaskView::new(&full, MaskMode::Keep)));
        prop_assert_eq!(&keep_everything, &unmasked);
        let complement_nothing =
            alg.multiply_masked(&x, &PlusTimes, Some(MaskView::new(&empty, MaskMode::Complement)));
        prop_assert_eq!(&complement_nothing, &unmasked);
    }
}

/// Deterministic spot check on the graph classes the paper benchmarks: the
/// BFS mask shape (¬visited) through the whole `Mxv` batch path.
#[test]
fn bfs_shaped_mask_on_rmat_and_grid_fixtures() {
    use sparse_substrate::gen::{grid2d, random_sparse_vec, rmat, RmatParams};

    let fixtures: Vec<(&str, CscMatrix<f64>)> =
        vec![("rmat", rmat(10, 8, RmatParams::graph500(), 17)), ("grid", grid2d(30, 34))];
    for (name, a) in fixtures {
        let n = a.ncols();
        let visited = MaskBits::from_indices(n, (0..n).step_by(3));
        for k in [1usize, 3, 32] {
            let lanes: Vec<SparseVec<f64>> =
                (0..k).map(|l| random_sparse_vec(n, (n / 8).max(1), 700 + l as u64)).collect();
            let x = SparseVecBatch::from_lanes(&lanes).unwrap();

            let mut masked_op = Mxv::over(&a)
                .semiring(&PlusTimes)
                .mask(&visited, MaskMode::Complement)
                .options(SpMSpVOptions::with_threads(4))
                .prepare();
            let y = masked_op.run_batch(&x);

            let mut unmasked_op = Mxv::over(&a)
                .semiring(&PlusTimes)
                .options(SpMSpVOptions::with_threads(3))
                .prepare::<f64>();
            let view = BatchMaskView::Shared(MaskView::new(&visited, MaskMode::Complement));
            let oracle = mask_filter_batch(unmasked_op.run_batch(&x), &view);
            assert_eq!(y, oracle, "{name}: masked k={k} batch differs from post-filter oracle");
        }
    }
}

/// A kernel that implements only the unmasked entry points, so its masked
/// calls go through the two traits' post-filter defaults.
struct PostFilterOnly<'a>(&'a CscMatrix<f64>);

impl SpMSpV<f64, f64, PlusTimes> for PostFilterOnly<'_> {
    fn name(&self) -> &'static str {
        "post-filter default"
    }
    fn nrows(&self) -> usize {
        self.0.nrows()
    }
    fn ncols(&self) -> usize {
        self.0.ncols()
    }
    fn multiply(&mut self, x: &SparseVec<f64>, semiring: &PlusTimes) -> SparseVec<f64> {
        spmspv_reference(self.0, x, semiring)
    }
}

impl SpMSpVBatch<f64, f64, PlusTimes> for PostFilterOnly<'_> {
    fn name(&self) -> &'static str {
        "post-filter default"
    }
    fn nrows(&self) -> usize {
        self.0.nrows()
    }
    fn ncols(&self) -> usize {
        self.0.ncols()
    }
    fn multiply_batch(
        &mut self,
        x: &SparseVecBatch<f64>,
        semiring: &PlusTimes,
    ) -> SparseVecBatch<f64> {
        spmspv_batch_reference(self.0, x, semiring)
    }
}

/// The kernels' own entry points (not only `Mxv::mask` and `Engine::submit`
/// above them) reject a mask that does not span the matrix's rows, with the
/// same message and before any work: an empty frontier is rejected too, and
/// the panic is the assert on the calling thread, not an index error on a
/// pool worker. One row per algorithm family of both shapes, plus the two
/// traits' post-filter defaults.
#[test]
fn short_masks_are_rejected_at_every_kernel_entry_point() {
    use sparse_substrate::fixtures::{figure1_matrix, figure1_vector};
    type Single<'a> = Box<dyn SpMSpV<f64, f64, PlusTimes> + 'a>;
    type Batch<'a> = Box<dyn SpMSpVBatch<f64, f64, PlusTimes> + 'a>;

    let a = figure1_matrix();
    let short = [Arc::new(MaskBits::new(4))];
    let view = MaskView::new(&short[0], MaskMode::Complement);
    let batch_views = [
        BatchMaskView::Shared(view),
        BatchMaskView::PerLane { masks: &short, mode: MaskMode::Complement },
    ];
    let assert_rejected = |what: &str, run: &mut dyn FnMut()| {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
            .expect_err(&format!("{what}: a 4-row mask over 8 rows must be rejected"));
        let msg = payload.downcast_ref::<String>().map(String::as_str).unwrap_or_default();
        assert!(
            msg.contains("mask covers 4 rows but the matrix has 8 output rows"),
            "{what}: panicked with {msg:?}"
        );
    };

    let opts = SpMSpVOptions::with_threads(2);
    let mut singles: Vec<Single<'_>> = ALL_KINDS
        .into_iter()
        .chain([AlgorithmKind::Adaptive])
        .map(|kind| build_algorithm(&a, kind, opts.clone()))
        .collect();
    singles.push(Box::new(PostFilterOnly(&a)));
    let mut batches: Vec<Batch<'_>> = BatchAlgorithmKind::all()
        .into_iter()
        .map(|kind| build_batch_algorithm(&a, kind, opts.clone()))
        .collect();
    batches.push(Box::new(PostFilterOnly(&a)));

    for x in [figure1_vector(), SparseVec::new(a.ncols())] {
        for alg in &mut singles {
            let what = format!("{} with nnz(x) = {}", alg.name(), x.nnz());
            assert_rejected(&what, &mut || drop(alg.multiply_masked(&x, &PlusTimes, Some(view))));
        }
        let xb = SparseVecBatch::from_single(&x);
        for alg in &mut batches {
            for mask in &batch_views {
                let what = format!("{} with nnz(x) = {} under {mask:?}", alg.name(), x.nnz());
                assert_rejected(&what, &mut || {
                    drop(alg.multiply_batch_masked(&xb, &PlusTimes, Some(mask)))
                });
            }
        }
    }
}

/// A per-lane mask with more bitmaps than the batch has lanes is rejected
/// with one message by every batched family, adaptive included.
#[test]
fn lane_mask_count_mismatch_panics_on_every_batch_family() {
    use sparse_substrate::fixtures::tridiagonal;

    let a = tridiagonal(6);
    let x = SparseVec::from_pairs(6, vec![(0, 1.0)]).unwrap();
    let batch = SparseVecBatch::from_lanes(&[x.clone(), x]).unwrap();
    let masks: Vec<Arc<MaskBits>> = (0..3).map(|_| Arc::new(MaskBits::new(6))).collect();
    let view = BatchMaskView::PerLane { masks: &masks, mode: MaskMode::Keep };
    for kind in BatchAlgorithmKind::all() {
        let mut alg =
            build_batch_algorithm::<f64, f64, PlusTimes>(&a, kind, SpMSpVOptions::default());
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            drop(alg.multiply_batch_masked(&batch, &PlusTimes, Some(&view)))
        }))
        .expect_err(&format!("{kind}: 3 lane masks over 2 lanes must be rejected"));
        let msg = payload.downcast_ref::<String>().map(String::as_str).unwrap_or_default();
        assert!(
            msg.contains("per-lane mask has 3 lanes but the input batch has 2 lanes"),
            "{kind}: panicked with {msg:?}"
        );
    }
}

/// `(+, ×)` over `f64` that counts every `multiply` (a product formed) and
/// every `add` (a product merged into one already in the accumulator).
#[derive(Default)]
struct Counting {
    multiplies: AtomicUsize,
    adds: AtomicUsize,
}

impl Counting {
    /// The `(multiply, add)` counts so far, resetting both to zero.
    fn take(&self) -> (usize, usize) {
        (self.multiplies.swap(0, Ordering::Relaxed), self.adds.swap(0, Ordering::Relaxed))
    }
}

impl Semiring<f64, f64> for Counting {
    type Output = f64;

    fn zero(&self) -> f64 {
        0.0
    }

    fn multiply(&self, a: &f64, x: &f64) -> f64 {
        self.multiplies.fetch_add(1, Ordering::Relaxed);
        a * x
    }

    fn add(&self, lhs: f64, rhs: f64) -> f64 {
        self.adds.fetch_add(1, Ordering::Relaxed);
        lhs + rhs
    }
}

/// Products of `x`'s selected columns whose row `keeps` accepts.
fn kept_products(a: &CscMatrix<f64>, x: &SparseVec<f64>, keeps: impl Fn(usize) -> bool) -> usize {
    x.iter().map(|(j, _)| a.column(j).0.iter().filter(|&&i| keeps(i)).count()).sum()
}

/// The bucket kernel, its batch and the adaptive batch form exactly the
/// products the mask keeps — all of them unmasked, and a masked-out row
/// never reaches `multiply` — and merge each kept product once: every kept
/// product past the first on its `(row, lane)` is one `add`. Covers 1–8
/// participants, both mask modes, and shared and per-lane batch masks whose
/// lanes disagree on the same rows. Every lane carries ~77k flops, so it
/// earns all eight participants alone: single calls split `t` ways, the
/// three-lane batch runs narrow at eight participants (each lane on the
/// bucket kernel, Adaptive's too) and spread at two and three (each lane on
/// a one-thread kernel, Adaptive's on the sequential SPA).
#[test]
fn masked_out_products_are_never_formed() {
    let n = 2000;
    let a = common::degree_64_matrix(n, 41);
    let lanes: Vec<SparseVec<f64>> =
        (0..3).map(|l| common::integer_frontier(n, 1200, 50 + l as u64)).collect();
    for lane in &lanes {
        let flops = required_multiplications(&a, lane);
        assert_eq!(Executor::new(8).capped_for(flops).threads(), 8, "{flops} flops");
    }
    let x = SparseVecBatch::from_lanes(&lanes).unwrap();
    // Lane l's mask holds the multiples of l + 2: lanes disagree on most rows.
    let lane_masks: Vec<Arc<MaskBits>> =
        (0..3).map(|l| Arc::new(MaskBits::from_indices(n, (0..n).step_by(l + 2)))).collect();
    let counting = Counting::default();
    for threads in [1usize, 2, 3, 8] {
        let opts = SpMSpVOptions::with_threads(threads);
        // Unmasked, every product of the selected columns is formed.
        let y = SpMSpVBucket::new(&a, opts.clone()).multiply(&lanes[0], &counting);
        let all = kept_products(&a, &lanes[0], |_| true);
        assert_eq!(counting.take(), (all, all - y.nnz()), "single, {threads}t, unmasked");
        let y = SpMSpVBucketBatch::new(&a, opts.clone()).multiply_batch(&x, &counting);
        let all: usize = lanes.iter().map(|lane| kept_products(&a, lane, |_| true)).sum();
        assert_eq!(counting.take(), (all, all - y.total_nnz()), "batch, {threads}t, unmasked");
        for mode in [MaskMode::Keep, MaskMode::Complement] {
            let view = MaskView::new(&lane_masks[0], mode);
            let mut single = SpMSpVBucket::new(&a, opts.clone());
            let y = single.multiply_masked(&lanes[0], &counting, Some(view));
            let kept = kept_products(&a, &lanes[0], |i| view.keeps(i));
            assert!(kept > y.nnz() && y.nnz() > 0, "the fixture must merge and mask");
            assert_eq!(counting.take(), (kept, kept - y.nnz()), "single, {threads}t, {mode:?}");

            let mut bucket = SpMSpVBucketBatch::new(&a, opts.clone());
            let mut adaptive = AdaptiveBatch::new(&a, opts.clone());
            let shared = BatchMaskView::Shared(view);
            let per_lane = BatchMaskView::PerLane { masks: &lane_masks, mode };
            for mask in [shared, per_lane] {
                let kept: usize =
                    (0..x.k()).map(|l| kept_products(&a, &lanes[l], |i| mask.keeps(i, l))).sum();
                let batches: [&mut dyn SpMSpVBatch<f64, f64, Counting>; 2] =
                    [&mut bucket, &mut adaptive];
                for batch in batches {
                    let y = batch.multiply_batch_masked(&x, &counting, Some(&mask));
                    assert_eq!(
                        counting.take(),
                        (kept, kept - y.total_nnz()),
                        "{}, {threads}t, {mask:?}",
                        batch.name()
                    );
                }
            }
        }
    }
}
