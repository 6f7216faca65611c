//! Batched (multi-source) SpMSpV: `Y ← A ⊕.⊗ X` for a bundle of `k` sparse
//! vectors in one pass over the matrix.
//!
//! The motivating applications of SpMSpV — multi-source BFS, batched
//! personalized PageRank, betweenness-centrality-style sweeps — present `k`
//! sparse frontiers at once. Calling the single-vector kernel `k` times
//! traverses the CSC column structure of `A` up to `k` times (once per lane
//! that activates a column). [`SpMSpVBucketBatch`] instead runs the
//! single-vector kernel's bucket/merge pipeline over the **union** of active
//! columns:
//!
//! 1. **Fuse**: build the sorted union of the lanes' active indices, each
//!    with its `(lane, value)` activations
//!    ([`sparse_substrate::SparseVecBatch::fuse_columns`]). Timed as
//!    `estimate`; there is no estimate pass.
//! 2. **Bucketing**: each participant pushes `(row, lane, scaled value)`
//!    triples onto its own per-bucket `Vec`s, as the single-vector kernel
//!    does; each matrix column is read **once** and scaled by all of its
//!    activations while it is hot in cache. The mask is applied here, per
//!    `(row, lane)` — once per row for a [`BatchMaskView::Shared`] mask —
//!    so a masked-out triple is never formed.
//! 3. **Merge**: per-bucket merge, reading bucket `b` from participants
//!    `0..t` in order, into a lane-aware SPA
//!    ([`sparse_substrate::LaneSpa`]) whose per-`(row, lane)` generation
//!    stamps make the `O(m·k)` accumulator logically resettable in `O(1)`.
//! 4. **Output**: per-`(bucket, lane)` unique counts size one `&mut` window
//!    per `(bucket, lane)` of the lane-major output arrays, which the
//!    buckets fill in parallel to form the [`SparseVecBatch`].
//!
//! [`NaiveBatch`] — `k` independent [`SpMSpVBucket`](crate::SpMSpVBucket) calls — is the
//! correctness oracle and the baseline the benchmark's `batch.amortization`
//! row compares against. Both implement the [`SpMSpVBatch`] trait.
//!
//! ## Determinism
//!
//! Lane `l`'s entries traverse the kernel in exactly the order the
//! single-vector kernel would traverse them (ascending column, then CSC row
//! order), so the batched result is **bit-identical** to `k` independent
//! [`SpMSpVBucket`](crate::SpMSpVBucket) calls — for any semiring, including
//! floating-point `(+, ×)` where reduction order matters.

mod naive;
mod rowsplit;

pub use naive::NaiveBatch;
pub use rowsplit::CombBlasSpaBatch;

use std::marker::PhantomData;
use std::time::{Duration, Instant};

use sparse_substrate::{
    CscMatrix, FusedColumns, LaneSpa, Scalar, Semiring, SpaBackend, SparseVecBatch,
};

use crate::algorithm::{MatrixRef, SpMSpVOptions};
use crate::bucket::{
    bucket_of, bucket_row_ranges, participant_buckets, Buckets, BUCKETS_PER_THREAD,
};
use crate::disjoint::split_grouped;
use crate::executor::{even_ranges, Executor};
use crate::masked::{BatchMaskView, MaskView};
use crate::timing::StepTimings;

/// A prepared batched SpMSpV computation `Y ← A ⊕.⊗ X` over a fixed matrix,
/// where `X` and `Y` are sparse multi-vectors with matching lane counts.
///
/// The batched counterpart of [`crate::SpMSpV`]. Implementations may be
/// called with varying `k` between calls; workspaces grow amortized.
pub trait SpMSpVBatch<A: Scalar, X: Scalar, S: Semiring<A, X>>: Send {
    /// Human-readable algorithm name.
    fn name(&self) -> &'static str;

    /// Number of matrix rows (`m`, the dimension of every output lane).
    fn nrows(&self) -> usize;

    /// Number of matrix columns (`n`, the dimension of every input lane).
    fn ncols(&self) -> usize;

    /// Computes `Y ← A ⊕.⊗ X` lane-wise: output lane `l` is
    /// `A ⊕.⊗ X[l]`, its indices ascending like every lane's.
    fn multiply_batch(&mut self, x: &SparseVecBatch<X>, semiring: &S) -> SparseVecBatch<S::Output>;

    /// Computes `Y ← ⟨mask⟩ (A ⊕.⊗ X)`: like
    /// [`SpMSpVBatch::multiply_batch`], but only output rows the mask keeps
    /// (per lane, for a [`BatchMaskView::PerLane`] mask) may appear.
    ///
    /// The default implementation post-filters an unmasked product; the
    /// implementations in this crate override it to consult the mask before
    /// they form a product, so masked rows are never accumulated. Result
    /// entries are identical either way.
    fn multiply_batch_masked(
        &mut self,
        x: &SparseVecBatch<X>,
        semiring: &S,
        mask: Option<&BatchMaskView<'_>>,
    ) -> SparseVecBatch<S::Output> {
        let y = self.multiply_batch(x, semiring);
        match mask {
            None => y,
            Some(mask) => mask_filter_batch(&y, mask),
        }
    }

    /// The concrete kernel family (and accumulator) the most recent call
    /// executed. The info is **per call**: every kernel in this crate
    /// reports `Some` after a multiplication that actually merged (adaptive
    /// ones report their delegate) and `None` before the first call and
    /// after a call on an all-empty input, which merges nothing. `None` by
    /// default so third-party implementations stay source-compatible.
    fn last_run_info(&self) -> Option<BatchRunInfo> {
        None
    }
}

/// The concrete configuration one batched call executed with: which kernel
/// family ran and which accumulator it merged through. Surfaced through
/// [`SpMSpVBatch::last_run_info`] so the serving engine's telemetry
/// ([`crate::stats::EngineStats`]) can record what the adaptive dispatch
/// actually chose per flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BatchRunInfo {
    /// The kernel family that executed (never
    /// [`BatchAlgorithmKind::Adaptive`] — dispatchers report their
    /// delegate).
    pub kernel: BatchAlgorithmKind,
    /// The accumulator the merge ran through.
    pub backend: SpaBackend,
}

impl std::fmt::Display for BatchRunInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.kernel.label(), self.backend.label())
    }
}

/// Post-filters a batched product through a mask — the fallback path the
/// default [`SpMSpVBatch::multiply_batch_masked`] uses (and the oracle the
/// in-kernel implementations are property-tested against).
pub fn mask_filter_batch<T: Scalar>(
    y: &SparseVecBatch<T>,
    mask: &BatchMaskView<'_>,
) -> SparseVecBatch<T> {
    let k = y.k();
    mask.check_lanes(k);
    mask.check_rows(y.len());
    let mut lane_ptr = Vec::with_capacity(k + 1);
    let mut indices = Vec::with_capacity(y.total_nnz());
    let mut values = Vec::with_capacity(y.total_nnz());
    lane_ptr.push(0usize);
    for l in 0..k {
        let (idx, val) = y.lane(l);
        for (&i, &v) in idx.iter().zip(val.iter()) {
            if mask.keeps(i, l) {
                indices.push(i);
                values.push(v);
            }
        }
        lane_ptr.push(indices.len());
    }
    SparseVecBatch::from_parts(y.len(), lane_ptr, indices, values)
        .expect("filtering preserves batch invariants")
}

/// Identifier for each batched algorithm family — the batch counterpart of
/// [`crate::AlgorithmKind`], so callers can swap batched implementations the
/// same way the benchmark harness swaps single-vector ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatchAlgorithmKind {
    /// The fused bucket kernel ([`SpMSpVBucketBatch`]): one traversal of the
    /// union of active columns serves every lane.
    Bucket,
    /// `k` independent single-vector bucket calls ([`NaiveBatch`]) — the
    /// correctness oracle and amortization baseline.
    Naive,
    /// CombBLAS-style row-split batch ([`CombBlasSpaBatch`]): `t` row pieces,
    /// each scanning the whole fused input with a private lane-aware SPA —
    /// the honest batched counterpart of the paper's CombBLAS-SPA baseline.
    CombBlasRowSplit,
    /// Cost-model dispatch per call between the fixed families from
    /// `(total nnz, k, m, threads)` — see [`crate::adaptive::AdaptiveBatch`].
    Adaptive,
}

impl BatchAlgorithmKind {
    /// Display name, the batch counterpart of [`crate::AlgorithmKind::label`].
    pub fn label(&self) -> &'static str {
        match self {
            BatchAlgorithmKind::Bucket => "SpMSpV-bucket-batch",
            BatchAlgorithmKind::Naive => "Naive-batch",
            BatchAlgorithmKind::CombBlasRowSplit => "CombBLAS-SPA-batch",
            BatchAlgorithmKind::Adaptive => "Adaptive-batch",
        }
    }

    /// Every batched family, fixed ones first ([`Self::Adaptive`] last).
    pub fn all() -> [BatchAlgorithmKind; 4] {
        [
            BatchAlgorithmKind::Bucket,
            BatchAlgorithmKind::Naive,
            BatchAlgorithmKind::CombBlasRowSplit,
            BatchAlgorithmKind::Adaptive,
        ]
    }

    /// The fixed families an adaptive dispatch can delegate to (everything
    /// but [`Self::Adaptive`]). `const` so telemetry tables
    /// ([`crate::stats::ChoiceCounts`]) derive from this single source.
    pub const fn fixed() -> [BatchAlgorithmKind; 3] {
        [
            BatchAlgorithmKind::Bucket,
            BatchAlgorithmKind::Naive,
            BatchAlgorithmKind::CombBlasRowSplit,
        ]
    }
}

impl std::fmt::Display for BatchAlgorithmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Builds a boxed [`SpMSpVBatch`] instance of the requested batched family,
/// generic over the semiring — mirrors [`crate::algorithm::build_algorithm`].
/// `matrix` is borrowed (`&CscMatrix`) or shared (`Arc<CscMatrix>`); see
/// [`MatrixRef`].
pub fn build_batch_algorithm<'a, A, X, S>(
    matrix: impl Into<MatrixRef<'a, A>>,
    kind: BatchAlgorithmKind,
    options: SpMSpVOptions,
) -> Box<dyn SpMSpVBatch<A, X, S> + 'a>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X> + 'a,
{
    let matrix = matrix.into();
    match kind {
        BatchAlgorithmKind::Bucket => Box::new(SpMSpVBucketBatch::new(matrix, options)),
        BatchAlgorithmKind::Naive => Box::new(NaiveBatch::new(matrix, options)),
        BatchAlgorithmKind::CombBlasRowSplit => Box::new(CombBlasSpaBatch::new(matrix, options)),
        BatchAlgorithmKind::Adaptive => {
            Box::new(crate::adaptive::AdaptiveBatch::new(matrix, options))
        }
    }
}

/// Reusable buffers of one [`SpMSpVBucketBatch`] instance: the lane-aware
/// accumulator and the per-participant buckets, both kept at their
/// high-water size so a narrow flush after a wide one never reallocates.
struct BatchWorkspace<Y> {
    spa: LaneSpa<Y>,
    /// `buckets[k][b]`: participant `k`'s triples for bucket `b`, cleared
    /// per call with their capacity kept.
    buckets: Vec<Buckets<(usize, u32, Y)>>,
}

/// The batched bucket kernel. See the [module docs](self) for the pipeline.
pub struct SpMSpVBucketBatch<'a, A, X, S: Semiring<A, X>> {
    matrix: MatrixRef<'a, A>,
    options: SpMSpVOptions,
    executor: Executor,
    workspace: BatchWorkspace<S::Output>,
    /// Whether the most recent call merged anything (see
    /// [`SpMSpVBatch::last_run_info`]).
    merged: bool,
    _marker: PhantomData<fn(X, S)>,
}

impl<'a, A, X, S> SpMSpVBucketBatch<'a, A, X, S>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X>,
{
    /// Prepares the batched kernel for `matrix`. The `O(m·k)` lane-aware SPA
    /// is allocated lazily on the first multiplication (when `k` is known)
    /// and then grown amortized.
    pub fn new(matrix: impl Into<MatrixRef<'a, A>>, options: SpMSpVOptions) -> Self {
        let executor = options.build_executor();
        let workspace = BatchWorkspace { spa: LaneSpa::new(0, 0), buckets: Vec::new() };
        SpMSpVBucketBatch {
            matrix: matrix.into(),
            options,
            executor,
            workspace,
            merged: false,
            _marker: PhantomData,
        }
    }

    /// The options this instance was built with.
    pub fn options(&self) -> &SpMSpVOptions {
        &self.options
    }

    /// Computes `Y ← A ⊕.⊗ X` and returns the per-step wall-clock breakdown
    /// (the fuse pass is accounted under `estimate`; there is no estimate
    /// pass).
    pub fn multiply_batch_with_timings(
        &mut self,
        x: &SparseVecBatch<X>,
        semiring: &S,
    ) -> (SparseVecBatch<S::Output>, StepTimings) {
        self.multiply_batch_masked_with_timings(x, semiring, None)
    }

    /// Computes `Y ← ⟨mask⟩ (A ⊕.⊗ X)` with the per-step breakdown.
    ///
    /// The mask is consulted **inside Step 1** (bucketing): a masked-out
    /// `(row, lane)` triple is never formed, so it never enters a bucket,
    /// the lane-aware SPA, the unique lists, the output gather, or a
    /// post-filter pass. The mask's cost is one bitmap probe per stored row
    /// of a selected column and active lane (per row for a shared mask),
    /// accounted under `bucketing` in the returned timings.
    pub fn multiply_batch_masked_with_timings(
        &mut self,
        x: &SparseVecBatch<X>,
        semiring: &S,
        mask: Option<&BatchMaskView<'_>>,
    ) -> (SparseVecBatch<S::Output>, StepTimings) {
        let matrix = &*self.matrix;
        if let Some(mask) = mask {
            mask.check_lanes(x.k());
            mask.check_rows(matrix.nrows());
        }
        let m = matrix.nrows();
        let n = matrix.ncols();
        let k = x.k();
        assert_eq!(
            x.len(),
            n,
            "input batch has dimension {} but the matrix has {} columns",
            x.len(),
            n
        );
        let mut timings = StepTimings::default();
        self.merged = !x.is_empty();
        if !self.merged {
            return (SparseVecBatch::new(m, k), timings);
        }

        // Same work-proportional participant count as the single-vector
        // kernel, for all steps, measured in total activations across lanes.
        let executor = self.executor.capped_for(x.total_nnz());
        let t = executor.threads();
        let nb = BUCKETS_PER_THREAD * t;

        // ---------------- Fuse ----------------
        let t0 = Instant::now();
        let fused = x.fuse_columns();
        timings.estimate = t0.elapsed();

        // ---------------- Bucketing ----------------
        // Each participant pushes the triples the mask keeps into its own
        // buckets: one probe per row for a shared mask, one per (row, lane)
        // for per-lane masks.
        let t1 = Instant::now();
        let ws = &mut self.workspace;
        let buckets = participant_buckets(&mut ws.buckets, t, nb);
        let (e, f) = (&executor, &fused);
        match mask {
            None => scatter_lanes(e, matrix, f, buckets, semiring, |_| true, |_, _| true),
            Some(BatchMaskView::Shared(view)) => {
                let keeps_row = view.row_filter();
                scatter_lanes(e, matrix, f, buckets, semiring, keeps_row, |_, _| true)
            }
            Some(&BatchMaskView::PerLane { masks, mode }) => {
                let lanes: Vec<_> =
                    masks.iter().map(|bits| MaskView::new(bits, mode).row_filter()).collect();
                let keeps_lane = |i, lane: u32| lanes[lane as usize](i);
                scatter_lanes(e, matrix, f, buckets, semiring, |_| true, keeps_lane)
            }
        }
        timings.bucketing = t1.elapsed();

        // Chaos-testing hook, consulted at the last sequential point before
        // the merge fans out across the pool (a panic here unwinds on the
        // calling thread, never inside a worker). No-op unless a test armed
        // the site under the `failpoints` feature.
        if let Err(msg) = crate::failpoint::act("batch.merge") {
            panic!("failpoint batch.merge: {msg}");
        }

        // ---------------- Merge + Output ----------------
        let row_ranges = bucket_row_ranges(m, nb);
        let params = MergeParams {
            executor: &executor,
            buckets: &ws.buckets[..t],
            row_ranges: &row_ranges,
            m,
            k,
        };
        let (y, merge_time, output_time) = merge_and_output(&mut ws.spa, semiring, &params);
        timings.merge = merge_time;
        timings.output = output_time;
        crate::obs::record_batch_phases(&timings);
        crate::obs::record_dense_merge();

        (y, timings)
    }
}

/// Step 1 of the fused kernel: participant `k` scales the `k`-th of `t` even
/// chunks of the fused columns and pushes each `(row, lane, product)` that
/// `keeps_row` and `keeps_lane` accept onto `buckets[k][bucket_of(row)]`,
/// lanes in activation (= ascending lane) order. A rejected row costs one
/// probe and no product.
fn scatter_lanes<A: Scalar, X: Scalar, S: Semiring<A, X>>(
    executor: &Executor,
    matrix: &CscMatrix<A>,
    fused: &FusedColumns<X>,
    buckets: &mut [Buckets<(usize, u32, S::Output)>],
    semiring: &S,
    keeps_row: impl Fn(usize) -> bool + Sync,
    keeps_lane: impl Fn(usize, u32) -> bool + Sync,
) {
    let (m, t) = (matrix.nrows(), executor.threads());
    let nb = BUCKETS_PER_THREAD * t;
    let chunks = even_ranges(fused.num_cols(), t);
    executor.for_each(chunks.into_iter().zip(buckets), |(chunk, mine)| {
        for c in chunk {
            let (lanes, xvals) = fused.activations(c);
            let (rows, avals) = matrix.column(fused.cols()[c]);
            for (&i, av) in rows.iter().zip(avals.iter()) {
                if !keeps_row(i) {
                    continue;
                }
                let bucket = &mut mine[bucket_of(i, m, nb)];
                for (&lane, xv) in lanes.iter().zip(xvals.iter()) {
                    if keeps_lane(i, lane) {
                        bucket.push((i, lane, semiring.multiply(av, xv)));
                    }
                }
            }
        }
    });
}

/// The inputs of [`merge_and_output`] besides the accumulator and the
/// semiring (bundled so its signature stays readable).
struct MergeParams<'p, Y> {
    executor: &'p Executor,
    /// `buckets[k][b]`: participant `k`'s triples for bucket `b`.
    buckets: &'p [Buckets<(usize, u32, Y)>],
    /// Output-row range of each bucket (contiguous from 0, covering `0..m`).
    row_ranges: &'p [std::ops::Range<usize>],
    m: usize,
    k: usize,
}

/// Steps 2 + 3 of the batched pipeline: merge every bucket's triples into
/// disjoint accumulator windows in parallel, then gather the
/// per-`(bucket, lane)` unique rows into a [`SparseVecBatch`]. Returns the
/// result plus the (merge, output) timings.
fn merge_and_output<A, X, S>(
    spa: &mut LaneSpa<S::Output>,
    semiring: &S,
    p: &MergeParams<'_, S::Output>,
) -> (SparseVecBatch<S::Output>, Duration, Duration)
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X>,
{
    let (m, k) = (p.m, p.k);
    let t2 = Instant::now();
    spa.ensure_shape(m, k);
    // Per (bucket, lane) unique row lists.
    let uinds: Vec<Vec<Vec<usize>>> = {
        let windows = spa.split_index_ranges(p.row_ranges);
        let buckets = p.buckets;
        p.executor.map(windows.into_iter().enumerate(), |(bucket, mut window)| {
            let mut uind: Vec<Vec<usize>> = vec![Vec::new(); k];
            // Participants in order: lane `l`'s entries arrive in the order
            // the single-vector kernel sees them.
            for participant in buckets {
                for &(i, lane, ref v) in &participant[bucket] {
                    if window.accumulate(i, lane as usize, *v, |a, b| semiring.add(a, b)) {
                        uind[lane as usize].push(i);
                    }
                }
            }
            for lane_uind in uind.iter_mut() {
                lane_uind.sort_unstable();
            }
            uind
        })
    };
    let merge_time = t2.elapsed();

    let t3 = Instant::now();
    // The output is lane-major: lane_ptr[l] = total unique rows of lanes
    // < l, and within a lane the buckets' rows follow in ascending bucket
    // (= row-range) order, so sorted buckets concatenate into a sorted lane.
    // Each (bucket, lane) list gets its own `&mut` window of that layout.
    let counts: Vec<Vec<usize>> =
        uinds.iter().map(|bucket_uind| bucket_uind.iter().map(Vec::len).collect()).collect();
    let mut lane_ptr = Vec::with_capacity(k + 1);
    lane_ptr.push(0usize);
    for l in 0..k {
        lane_ptr.push(lane_ptr[l] + counts.iter().map(|c| c[l]).sum::<usize>());
    }
    let y_nnz = lane_ptr[k];

    let mut out_indices = vec![0usize; y_nnz];
    let mut out_values = vec![S::Output::default(); y_nnz];
    {
        let spa = &*spa;
        let idx_windows = split_grouped(&mut out_indices, &counts);
        let val_windows = split_grouped(&mut out_values, &counts);
        let windows = idx_windows.into_iter().zip(val_windows);
        p.executor.for_each(uinds.iter().zip(windows), |(uind, (mut idx, mut val))| {
            for (l, lane_uind) in uind.iter().enumerate() {
                for (n, &i) in lane_uind.iter().enumerate() {
                    idx[l][n] = i;
                    val[l][n] = *spa.value_at(i, l);
                }
            }
        });
    }
    let y = SparseVecBatch::from_parts(m, lane_ptr, out_indices, out_values)
        .expect("batched bucket output is consistent by construction");
    let output_time = t3.elapsed();
    (y, merge_time, output_time)
}

impl<'a, A, X, S> SpMSpVBatch<A, X, S> for SpMSpVBucketBatch<'a, A, X, S>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X>,
{
    fn name(&self) -> &'static str {
        "SpMSpV-bucket-batch"
    }

    fn nrows(&self) -> usize {
        self.matrix.nrows()
    }

    fn ncols(&self) -> usize {
        self.matrix.ncols()
    }

    fn multiply_batch(&mut self, x: &SparseVecBatch<X>, semiring: &S) -> SparseVecBatch<S::Output> {
        self.multiply_batch_with_timings(x, semiring).0
    }

    fn multiply_batch_masked(
        &mut self,
        x: &SparseVecBatch<X>,
        semiring: &S,
        mask: Option<&BatchMaskView<'_>>,
    ) -> SparseVecBatch<S::Output> {
        self.multiply_batch_masked_with_timings(x, semiring, mask).0
    }

    fn last_run_info(&self) -> Option<BatchRunInfo> {
        self.merged.then_some(BatchRunInfo {
            kernel: BatchAlgorithmKind::Bucket,
            backend: SpaBackend::Dense,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_substrate::gen::{erdos_renyi, random_sparse_vec, rmat, RmatParams};
    use sparse_substrate::ops::spmspv_batch_reference;
    use sparse_substrate::{fixtures, PlusTimes, Select2ndMin, SparseVec};

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
        let mut batch = SpMSpVBucketBatch::new(&a, SpMSpVOptions::with_threads(2));
        let mut single = crate::SpMSpVBucket::new(&a, SpMSpVOptions::with_threads(2));
        let by = batch.multiply_batch(&batch_x, &PlusTimes);
        let sy = crate::SpMSpV::multiply(&mut single, &x, &PlusTimes);
        assert_eq!(by.k(), 1);
        assert_eq!(by.lane_vec(0), sy, "k=1 batch must be bit-identical to the single kernel");
    }

    #[test]
    fn matches_reference_across_k_threads_and_density() {
        let a = erdos_renyi(300, 6.0, 11);
        for k in [1usize, 3, 8] {
            for threads in [1usize, 2, 4] {
                for nnz in [1usize, 20, 150] {
                    let x = random_batch(300, k, nnz, 7 + k as u64 + nnz as u64);
                    let expected = spmspv_batch_reference(&a, &x, &PlusTimes);
                    let mut alg = SpMSpVBucketBatch::new(&a, SpMSpVOptions::with_threads(threads));
                    let y = alg.multiply_batch(&x, &PlusTimes);
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
        let mut batch = SpMSpVBucketBatch::new(&a, SpMSpVOptions::with_threads(4));
        let y = batch.multiply_batch(&x, &PlusTimes);
        let mut single = crate::SpMSpVBucket::new(&a, SpMSpVOptions::with_threads(3));
        for l in 0..x.k() {
            let lane_y = crate::SpMSpV::multiply(&mut single, &x.lane_vec(l), &PlusTimes);
            assert_eq!(
                y.lane_vec(l),
                lane_y,
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
        let mut alg = SpMSpVBucketBatch::new(&a, SpMSpVOptions::with_threads(4));
        let y = alg.multiply_batch(&x, &Select2ndMin);
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
        let mut alg = SpMSpVBucketBatch::new(&a, SpMSpVOptions::with_threads(8));
        let y = alg.multiply_batch(&x, &PlusTimes);
        assert!(y.approx_same_entries(&expected, 1e-12));
        assert!(y.lane_vec(0).is_empty());
        assert!(y.lane_vec(2).is_empty());
    }

    #[test]
    fn fully_empty_batch_short_circuits() {
        let a = fixtures::figure1_matrix();
        let x = SparseVecBatch::<f64>::new(8, 6);
        let mut alg = SpMSpVBucketBatch::new(&a, SpMSpVOptions::default());
        let y = alg.multiply_batch(&x, &PlusTimes);
        assert_eq!(y.k(), 6);
        assert!(y.is_empty());
    }

    #[test]
    fn workspace_survives_varying_k_across_calls() {
        let a = erdos_renyi(200, 5.0, 5);
        let mut alg = SpMSpVBucketBatch::new(&a, SpMSpVOptions::with_threads(2));
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
        let mut alg = SpMSpVBucketBatch::new(&a, SpMSpVOptions::with_threads(2));
        let (y, t) = alg.multiply_batch_with_timings(&x, &PlusTimes);
        assert!(!y.is_empty());
        let f = t.fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn batch_run_info_is_per_call() {
        let a = erdos_renyi(150, 6.0, 11);
        let busy = random_batch(150, 3, 30, 0);
        let idle = SparseVecBatch::<f64>::new(150, 3);
        for kind in BatchAlgorithmKind::all() {
            for threads in [1usize, 2] {
                let mut alg = build_batch_algorithm::<f64, f64, PlusTimes>(
                    &a,
                    kind,
                    SpMSpVOptions::with_threads(threads),
                );
                assert_eq!(alg.last_run_info(), None, "{kind}: nothing ran yet");
                let _ = alg.multiply_batch(&busy, &PlusTimes);
                let info = alg.last_run_info().expect("a run that merged reports its family");
                assert_ne!(
                    info.kernel,
                    BatchAlgorithmKind::Adaptive,
                    "{kind}: info must be concrete"
                );
                // An all-empty batch executes nothing; reporting the previous
                // call's kernel here is what the engine would record as a
                // flush's choice.
                assert!(alg.multiply_batch(&idle, &PlusTimes).is_empty());
                assert_eq!(alg.last_run_info(), None, "{kind}/{threads}t: stale run info");
            }
        }
    }

    #[test]
    fn shared_handle_shares_the_matrix_and_matches_a_borrowed_one() {
        use std::sync::Arc;
        let a = Arc::new(erdos_renyi(200, 6.0, 13));
        let wide = random_batch(200, 3, 40, 1);
        let single = random_batch(200, 1, 40, 2);
        for kind in BatchAlgorithmKind::all() {
            for threads in [1usize, 2] {
                let opts = SpMSpVOptions::with_threads(threads);
                let mut shared = build_batch_algorithm::<f64, f64, PlusTimes>(
                    Arc::clone(&a),
                    kind,
                    opts.clone(),
                );
                let mut borrowed = build_batch_algorithm::<f64, f64, PlusTimes>(&*a, kind, opts);
                for x in [&wide, &single] {
                    let y = shared.multiply_batch(x, &PlusTimes);
                    assert_eq!(y, borrowed.multiply_batch(x, &PlusTimes), "{kind}/{threads}t");
                    assert_eq!(shared.last_run_info(), borrowed.last_run_info());
                }
                assert!(Arc::strong_count(&a) > 1, "{kind}: the kernel holds the Arc");
                if kind == BatchAlgorithmKind::Adaptive && threads == 2 {
                    // `a`, the dispatcher, and its two lazily built delegates
                    // (bucket for k = 3, naive for k = 1) — one matrix.
                    assert_eq!(Arc::strong_count(&a), 4);
                }
                drop(shared);
                assert_eq!(Arc::strong_count(&a), 1, "{kind}: dropping the kernel releases it");
            }
        }
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn dimension_mismatch_panics() {
        let a = fixtures::figure1_matrix();
        let x = SparseVecBatch::<f64>::new(9, 2);
        let mut alg = SpMSpVBucketBatch::new(&a, SpMSpVOptions::default());
        let _ = alg.multiply_batch(&x, &PlusTimes);
    }
}
