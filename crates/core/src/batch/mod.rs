//! Batched (multi-source) SpMSpV: `Y ← A ⊕.⊗ X` for a bundle of `k` sparse
//! vectors. A batch is its lanes.
//!
//! The motivating applications of SpMSpV — multi-source BFS, batched
//! personalized PageRank, betweenness-centrality-style sweeps — present `k`
//! sparse frontiers at once. [`LaneBatch`], the one batched kernel, computes
//! output lane `l` by running input lane `l` through a single-vector kernel
//! of one [`AlgorithmKind`], built by [`build_algorithm`]: the paper's
//! bucket kernel, [`AlgorithmKind::Adaptive`] (which picks pull, the
//! sequential SPA or the bucket kernel per lane), or any baseline.
//!
//! A batch gets the participants its exact flops, summed over the lanes,
//! earn ([`Executor::capped_for`]); call that `t`. A *narrow* batch, one
//! whose lanes earn two participants each on average (`2k ≤ t`), runs its
//! lanes one after another on one kernel of the configured participants,
//! which caps each lane by its own flops, so a one-lane batch is exactly a
//! single-vector call. Any other batch is spread over `t` participants of
//! the pool: [`Executor::map`] hands lanes out dynamically, and whichever
//! participant claims a lane checks out a one-thread kernel for it and
//! returns the kernel when the lane is done. So lanes too small to fork on
//! their own still run side by side. The workspaces belong to participants,
//! not lanes: the runner keeps at most `t` one-thread kernels and reuses
//! them across calls. The serving engine's degraded retry is a fresh runner
//! of the same family at one participant, so every lane runs one after
//! another on one one-thread kernel.
//!
//! ## Determinism
//!
//! Output lane `l` *is* a single-vector kernel's output for input lane `l`.
//! The paper's bucket kernel, pull, the sequential SPA and Adaptive reduce
//! each row in ascending-column order (pull by its first hit, which is the
//! same value) whatever their thread count. So a batch of any of those
//! families is **bit-identical** to `k` independent single-vector calls by
//! construction — for any semiring, including floating-point `(+, ×)` where
//! reduction order matters.

use std::sync::{Mutex, PoisonError};

use sparse_substrate::ops::required_multiplications;
use sparse_substrate::{Scalar, Semiring, SparseVec, SparseVecBatch};

use crate::algorithm::{build_algorithm, AlgorithmKind, MatrixRef, SpMSpV, SpMSpVOptions};
use crate::executor::Executor;
use crate::masked::BatchMaskView;
use crate::timing::StepTimings;

/// A lane kernel: one single-vector kernel of the runner's family.
type Lane<'a, A, X, S> = Box<dyn SpMSpV<A, X, S> + 'a>;

/// The batched kernel: runs every lane of a batch through a single-vector
/// kernel of one [`AlgorithmKind`]. See the [module docs](self) for how the
/// lanes share the pool.
pub struct LaneBatch<'a, A, X, S: Semiring<A, X>> {
    matrix: MatrixRef<'a, A>,
    kind: AlgorithmKind,
    options: SpMSpVOptions,
    executor: Executor,
    /// The kernel of `t` participants that narrow batches (`2k ≤ t`) run
    /// their lanes on, built on first use.
    wide: Option<Lane<'a, A, X, S>>,
    /// Idle one-thread kernels. A participant pops one per lane it claims
    /// (building one if none is idle) and pushes it back after the lane, so
    /// there are never more than `t`. Every update under the lock is one
    /// pop or push, so the list stays valid even if a lock were poisoned.
    idle: Mutex<Vec<Lane<'a, A, X, S>>>,
}

impl<'a, A, X, S> LaneBatch<'a, A, X, S>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X> + 'a,
{
    /// Prepares a runner whose lanes are `kind` kernels over `matrix`
    /// (borrowed or shared; see [`MatrixRef`]). The lane kernels, and their
    /// workspaces, are built on first use and then reused.
    pub fn new(
        matrix: impl Into<MatrixRef<'a, A>>,
        kind: AlgorithmKind,
        options: SpMSpVOptions,
    ) -> Self {
        let executor = options.build_executor();
        LaneBatch {
            matrix: matrix.into(),
            kind,
            options,
            executor,
            wide: None,
            idle: Mutex::new(Vec::new()),
        }
    }

    /// Whether the wide kernel was built, and how many one-thread kernels
    /// are idle.
    #[cfg(test)]
    pub(crate) fn kernels(&mut self) -> (bool, usize) {
        (self.wide.is_some(), self.idle.get_mut().unwrap_or_else(PoisonError::into_inner).len())
    }

    /// Computes `Y ← A ⊕.⊗ X` lane-wise: output lane `l` is `A ⊕.⊗ X[l]`,
    /// its indices ascending like every lane's.
    pub fn multiply_batch(
        &mut self,
        x: &SparseVecBatch<X>,
        semiring: &S,
    ) -> SparseVecBatch<S::Output> {
        self.multiply_batch_masked(x, semiring, None)
    }

    /// Computes `Y ← ⟨mask⟩ (A ⊕.⊗ X)`: like [`LaneBatch::multiply_batch`],
    /// but only output rows the mask keeps (per lane, for a
    /// [`BatchMaskView::PerLane`] mask) may appear. Each lane's mask goes to
    /// its single-vector kernel, which consults it before it forms a
    /// product.
    pub fn multiply_batch_masked(
        &mut self,
        x: &SparseVecBatch<X>,
        semiring: &S,
        mask: Option<&BatchMaskView<'_>>,
    ) -> SparseVecBatch<S::Output> {
        self.multiply_batch_masked_with_timings(x, semiring, mask).0
    }

    /// [`LaneBatch::multiply_batch_masked`] with the lanes' per-step
    /// wall-clock breakdowns summed ([`SpMSpV::multiply_masked_with_timings`];
    /// zero unless the lanes are bucket kernels). A bucket runner records
    /// them as the `batch.*` histograms of [`crate::obs`] whenever a call
    /// has anything to multiply.
    pub fn multiply_batch_masked_with_timings(
        &mut self,
        x: &SparseVecBatch<X>,
        semiring: &S,
        mask: Option<&BatchMaskView<'_>>,
    ) -> (SparseVecBatch<S::Output>, StepTimings) {
        let (m, n) = (self.matrix.nrows(), self.matrix.ncols());
        assert_eq!(
            x.len(),
            n,
            "input batch has dimension {} but the matrix has {n} columns",
            x.len()
        );
        if let Some(mask) = mask {
            mask.check_lanes(x.k());
            mask.check_rows(m);
        }
        let lane_mask = |l| mask.map(|m| m.lane_view(l));
        // The participant count the batch's exact flops earn, summed over
        // its lanes. A batch whose lanes earn two participants each on
        // average (`2k ≤ t`) runs lane after lane on the kernel of the
        // configured participants, which caps each lane by its own flops; the
        // rest — and a batch of no lanes, which then builds no kernel —
        // spread over `t` participants of the pool, so lanes too small to
        // fork alone still run side by side.
        let flops = (0..x.k()).map(|l| required_multiplications(&self.matrix, x.lane(l))).sum();
        let executor = self.executor.capped_for(flops);
        let narrow = x.k() >= 1 && 2 * x.k() <= executor.threads();
        let kind = self.kind;
        let lanes: Vec<(SparseVec<S::Output>, StepTimings)> = if narrow {
            let (matrix, options) = (&self.matrix, &self.options);
            let wide = self
                .wide
                .get_or_insert_with(|| build_algorithm(matrix.clone(), kind, options.clone()));
            (0..x.k())
                .map(|l| wide.multiply_masked_with_timings(x.lane(l), semiring, lane_mask(l)))
                .collect()
        } else {
            let (matrix, idle) = (&self.matrix, &self.idle);
            executor.map(0..x.k(), |l| {
                let idle_kernel = idle.lock().unwrap_or_else(PoisonError::into_inner).pop();
                let mut kernel = idle_kernel.unwrap_or_else(|| {
                    build_algorithm(matrix.clone(), kind, SpMSpVOptions::with_threads(1))
                });
                let out = kernel.multiply_masked_with_timings(x.lane(l), semiring, lane_mask(l));
                idle.lock().unwrap_or_else(PoisonError::into_inner).push(kernel);
                out
            })
        };

        // Chaos-testing hook, consulted on the calling thread once the lanes
        // are done and before they are merged into one batch. No-op unless a
        // test armed the site under the `failpoints` feature.
        if let Err(msg) = crate::failpoint::act("batch.merge") {
            panic!("failpoint batch.merge: {msg}");
        }
        let mut timings = StepTimings::default();
        let ys = lanes
            .into_iter()
            .map(|(y, lane_timings)| {
                timings += lane_timings;
                y
            })
            .collect();
        let y =
            SparseVecBatch::with_lanes(m, ys).expect("every lane has the matrix's row dimension");
        if kind == AlgorithmKind::Bucket && !x.is_empty() {
            crate::obs::record_batch_phases(&timings);
        }
        (y, timings)
    }
}

/// The batched families the serving engine and [`build_batch_algorithm`]
/// name: each is a [`LaneBatch`] family ([`BatchAlgorithmKind::lanes`]).
/// Kept for `benchmark/`, which names it; the benchmark's next change moves
/// it to [`AlgorithmKind`] and removes this type (see `ROADMAP.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatchAlgorithmKind {
    /// Bucket-kernel lanes.
    Bucket,
    /// [`AlgorithmKind::Adaptive`] lanes, each picking its family from its
    /// own frontier.
    Adaptive,
}

impl BatchAlgorithmKind {
    /// The single-vector family of the lanes.
    pub fn lanes(self) -> AlgorithmKind {
        match self {
            BatchAlgorithmKind::Bucket => AlgorithmKind::Bucket,
            BatchAlgorithmKind::Adaptive => AlgorithmKind::Adaptive,
        }
    }

    /// Display name.
    pub fn label(&self) -> &'static str {
        match self {
            BatchAlgorithmKind::Bucket => "SpMSpV-bucket-batch",
            BatchAlgorithmKind::Adaptive => "Adaptive-batch",
        }
    }

    /// The fixed families ([`Self::Adaptive`] excluded); also the one cell
    /// [`crate::stats::ChoiceCounts`] reports.
    pub const fn fixed() -> [BatchAlgorithmKind; 1] {
        [BatchAlgorithmKind::Bucket]
    }
}

impl std::fmt::Display for BatchAlgorithmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// `LaneBatch::new(matrix, kind.lanes(), options)`. Kept for `benchmark/`,
/// which calls it; the benchmark's next change removes it (see
/// `ROADMAP.md`).
pub fn build_batch_algorithm<'a, A, X, S>(
    matrix: impl Into<MatrixRef<'a, A>>,
    kind: BatchAlgorithmKind,
    options: SpMSpVOptions,
) -> LaneBatch<'a, A, X, S>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X> + 'a,
{
    LaneBatch::new(matrix, kind.lanes(), options)
}

/// A [`LaneBatch`] of bucket lanes. Kept for `benchmark/`, which calls it;
/// the benchmark's next change removes it (see `ROADMAP.md`).
pub struct SpMSpVBucketBatch<'a, A, X, S: Semiring<A, X>>(LaneBatch<'a, A, X, S>);

impl<'a, A, X, S> SpMSpVBucketBatch<'a, A, X, S>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X> + 'a,
{
    /// `LaneBatch::new(matrix, AlgorithmKind::Bucket, options)`.
    pub fn new(matrix: impl Into<MatrixRef<'a, A>>, options: SpMSpVOptions) -> Self {
        SpMSpVBucketBatch(LaneBatch::new(matrix, AlgorithmKind::Bucket, options))
    }

    /// [`LaneBatch::multiply_batch_masked_with_timings`].
    pub fn multiply_batch_masked_with_timings(
        &mut self,
        x: &SparseVecBatch<X>,
        semiring: &S,
        mask: Option<&BatchMaskView<'_>>,
    ) -> (SparseVecBatch<S::Output>, StepTimings) {
        self.0.multiply_batch_masked_with_timings(x, semiring, mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_substrate::gen::{erdos_renyi, random_sparse_vec, rmat, RmatParams};
    use sparse_substrate::ops::spmspv_batch_reference;
    use sparse_substrate::{fixtures, CscMatrix, PlusTimes, Select2ndMin};

    use crate::SpMSpVBucket;

    /// Every single-vector family, each a possible lane kernel.
    const KINDS: [AlgorithmKind; 8] = [
        AlgorithmKind::Bucket,
        AlgorithmKind::CombBlasSpa,
        AlgorithmKind::CombBlasHeap,
        AlgorithmKind::GraphMat,
        AlgorithmKind::SortBased,
        AlgorithmKind::Sequential,
        AlgorithmKind::Pull,
        AlgorithmKind::Adaptive,
    ];

    fn bucket<'a, X: Scalar, S: Semiring<f64, X> + 'a>(
        a: &'a CscMatrix<f64>,
        threads: usize,
    ) -> LaneBatch<'a, f64, X, S> {
        LaneBatch::new(a, AlgorithmKind::Bucket, SpMSpVOptions::with_threads(threads))
    }

    fn random_batch(n: usize, k: usize, nnz: usize, seed: u64) -> SparseVecBatch<f64> {
        let lanes: Vec<SparseVec<f64>> =
            (0..k).map(|l| random_sparse_vec(n, nnz.min(n), seed + 31 * l as u64)).collect();
        SparseVecBatch::from_lanes(&lanes).unwrap()
    }

    #[test]
    fn single_lane_batch_matches_single_vector_kernel() {
        let a = fixtures::figure1_matrix();
        let x = fixtures::figure1_vector();
        let batch_x = SparseVecBatch::from_single(&x);
        let mut single = SpMSpVBucket::new(&a, SpMSpVOptions::with_threads(2));
        let by = bucket(&a, 2).multiply_batch(&batch_x, &PlusTimes);
        let sy = SpMSpV::multiply(&mut single, &x, &PlusTimes);
        assert_eq!(by.k(), 1);
        assert_eq!(by.lane(0), &sy, "k=1 batch must be bit-identical to the single kernel");
    }

    #[test]
    fn matches_reference_across_k_threads_and_density() {
        let a = erdos_renyi(300, 6.0, 11);
        for k in [1usize, 3, 8] {
            for threads in [1usize, 2, 4] {
                for nnz in [1usize, 20, 150] {
                    let x = random_batch(300, k, nnz, 7 + k as u64 + nnz as u64);
                    let expected = spmspv_batch_reference(&a, &x, &PlusTimes);
                    let y = bucket(&a, threads).multiply_batch(&x, &PlusTimes);
                    assert!(
                        y.approx_same_entries(&expected, 1e-9),
                        "mismatch at k={k}, threads={threads}, nnz={nnz}"
                    );
                }
            }
        }
    }

    #[test]
    fn bit_identical_to_k_independent_bucket_calls() {
        let a = rmat(9, 8, RmatParams::graph500(), 3);
        let n = a.ncols();
        let x = random_batch(n, 5, 200, 42);
        let y = bucket(&a, 4).multiply_batch(&x, &PlusTimes);
        let mut single = SpMSpVBucket::new(&a, SpMSpVOptions::with_threads(3));
        for l in 0..x.k() {
            let lane_y = SpMSpV::multiply(&mut single, x.lane(l), &PlusTimes);
            assert_eq!(
                y.lane(l),
                &lane_y,
                "lane {l} differs from an independent SpMSpVBucket call"
            );
        }
    }

    #[test]
    fn select2nd_semiring_runs_batched() {
        let a = rmat(8, 8, RmatParams::graph500(), 9);
        let n = a.ncols();
        let lanes: Vec<SparseVec<usize>> = (0..3)
            .map(|l| SparseVec::from_pairs(n, vec![(l * 7 + 1, l * 7 + 1)]).unwrap())
            .collect();
        let x = SparseVecBatch::from_lanes(&lanes).unwrap();
        let expected = spmspv_batch_reference(&a, &x, &Select2ndMin);
        let y = bucket(&a, 4).multiply_batch(&x, &Select2ndMin);
        assert!(y.same_entries(&expected));
    }

    #[test]
    fn empty_and_ragged_lanes() {
        let a = fixtures::tridiagonal(40);
        let lanes = vec![
            SparseVec::new(40),
            SparseVec::from_pairs(40, vec![(0, 1.0)]).unwrap(),
            SparseVec::new(40),
            SparseVec::from_pairs(40, (0..40).map(|i| (i, 1.0)).collect()).unwrap(),
        ];
        let x = SparseVecBatch::from_lanes(&lanes).unwrap();
        let expected = spmspv_batch_reference(&a, &x, &PlusTimes);
        let y = bucket(&a, 8).multiply_batch(&x, &PlusTimes);
        assert!(y.approx_same_entries(&expected, 1e-12));
        assert!(y.lane(0).is_empty());
        assert!(y.lane(2).is_empty());
    }

    #[test]
    fn fully_empty_batch_short_circuits() {
        let a = fixtures::figure1_matrix();
        let x = SparseVecBatch::<f64>::new(8, 6);
        let y = bucket(&a, 0).multiply_batch(&x, &PlusTimes);
        assert_eq!(y.k(), 6);
        assert!(y.is_empty());
    }

    #[test]
    fn workspace_survives_varying_k_across_calls() {
        let a = erdos_renyi(200, 5.0, 5);
        let mut alg = bucket(&a, 2);
        for (call, k) in [1usize, 16, 4, 32, 2].into_iter().enumerate() {
            let x = random_batch(200, k, 30, call as u64);
            let expected = spmspv_batch_reference(&a, &x, &PlusTimes);
            let y = alg.multiply_batch(&x, &PlusTimes);
            assert!(y.approx_same_entries(&expected, 1e-9), "call {call} (k={k}) diverged");
        }
    }

    #[test]
    fn timings_cover_all_steps() {
        let a = erdos_renyi(1000, 8.0, 77);
        let x = random_batch(1000, 8, 200, 6);
        let (y, t) = bucket(&a, 2).multiply_batch_masked_with_timings(&x, &PlusTimes, None);
        assert!(!y.is_empty());
        let f = t.fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn shared_handle_shares_the_matrix_and_matches_a_borrowed_one() {
        use std::sync::Arc;
        let a = Arc::new(erdos_renyi(200, 6.0, 13));
        let wide = random_batch(200, 3, 40, 1);
        let single = random_batch(200, 1, 40, 2);
        for kind in KINDS {
            for threads in [1usize, 2] {
                let opts = SpMSpVOptions::with_threads(threads);
                let mut shared: LaneBatch<'_, f64, f64, PlusTimes> =
                    LaneBatch::new(Arc::clone(&a), kind, opts.clone());
                let mut borrowed = LaneBatch::new(&*a, kind, opts);
                for x in [&wide, &single] {
                    let y = shared.multiply_batch(x, &PlusTimes);
                    assert_eq!(y, borrowed.multiply_batch(x, &PlusTimes), "{kind}/{threads}t");
                }
                assert!(Arc::strong_count(&a) > 1, "{kind}: the kernel holds the Arc");
                if kind == AlgorithmKind::Adaptive && threads == 1 {
                    // `a`, the runner, its one one-thread lane kernel and
                    // that kernel's lazily built sequential delegate — one
                    // matrix.
                    assert_eq!(Arc::strong_count(&a), 4);
                }
                drop(shared);
                assert_eq!(Arc::strong_count(&a), 1, "{kind}: dropping the kernel releases it");
            }
        }
    }

    #[test]
    fn zero_lane_batches_keep_the_matrix_dimension() {
        let a = fixtures::figure1_matrix();
        let x = SparseVecBatch::<f64>::new(a.ncols(), 0);
        let wrong = SparseVecBatch::<f64>::new(a.ncols() + 1, 0);
        for kind in KINDS {
            let opts = SpMSpVOptions::with_threads(2);
            let mut alg: LaneBatch<'_, f64, f64, PlusTimes> = LaneBatch::new(&a, kind, opts);
            let y = alg.multiply_batch(&x, &PlusTimes);
            assert_eq!((y.len(), y.k()), (a.nrows(), 0), "{kind}");
            assert_eq!(alg.kernels(), (false, 0), "{kind}: a batch of no lanes builds none");
            // A zero-lane input of the wrong dimension is rejected too.
            let run = std::panic::AssertUnwindSafe(|| alg.multiply_batch(&wrong, &PlusTimes));
            let err = std::panic::catch_unwind(run).expect_err("a 9-column input must panic");
            let msg = err.downcast_ref::<String>().map_or("", String::as_str);
            assert!(msg.contains("columns"), "{kind}: {msg}");
        }
    }

    #[test]
    fn runner_keeps_at_most_t_lane_kernels_and_reuses_them() {
        use std::sync::Arc;
        let a = Arc::new(erdos_renyi(1000, 8.0, 21));
        for threads in [2usize, 3] {
            let mut alg: LaneBatch<'_, f64, f64, PlusTimes> = LaneBatch::new(
                Arc::clone(&a),
                AlgorithmKind::Bucket,
                SpMSpVOptions::with_threads(threads),
            );
            // k = 32 ≥ t, and enough flops (~32 × 150 × 8) that the cap
            // leaves all t participants.
            let x = random_batch(1000, 32, 150, threads as u64);
            let flops = (0..x.k()).map(|l| required_multiplications(&a, x.lane(l))).sum();
            assert_eq!(Executor::new(threads).capped_for(flops).threads(), threads);
            let mut single = SpMSpVBucket::new(&*a, SpMSpVOptions::with_threads(1));
            let expected: Vec<SparseVec<f64>> =
                (0..x.k()).map(|l| SpMSpV::multiply(&mut single, x.lane(l), &PlusTimes)).collect();
            drop(single);
            // A kernel is built only when none is idle, so no more exist
            // than participants ever ran at once — however many pool
            // workers happen to join a given call — and a later call
            // reuses them instead of building more.
            let mut held = 1;
            for call in 0..4 {
                assert_eq!(alg.multiply_batch(&x, &PlusTimes).into_lanes(), expected);
                let (wide, kernels) = alg.kernels();
                assert!(!wide, "a spread batch never builds the wide kernel");
                assert!(
                    (held..=threads).contains(&kernels),
                    "t = {threads}, call {call}: {kernels} lane kernels after {held}"
                );
                held = kernels;
                // `a`, the runner and every kernel built: all idle again,
                // none dropped.
                assert_eq!(Arc::strong_count(&a), 2 + held, "t = {threads}, call {call}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn dimension_mismatch_panics() {
        let a = fixtures::figure1_matrix();
        let x = SparseVecBatch::<f64>::new(9, 2);
        let _ = bucket::<f64, PlusTimes>(&a, 0).multiply_batch(&x, &PlusTimes);
    }
}
