//! The SpMSpV-bucket algorithm (Algorithm 1 of the paper), masked in Step 1
//! and without Algorithm 2's estimate pass.
//!
//! The algorithm is vector-driven and work-efficient: its total work is
//! `O(d·f)` (the number of required multiplications) regardless of the
//! thread count, and the only `O(m)` cost — allocating the SPA — is paid
//! once at construction and amortized across every subsequent multiplication
//! (exactly the pre-allocation strategy §III-A prescribes for iterative
//! algorithms such as BFS).
//!
//! Parallel structure, per multiplication:
//!
//! ```text
//!  bucketing  participant k pushes (row, A(i,j) ⊗ x(j)) for every row the   (Step 1)
//!             mask keeps into its own bucket buckets[k][bucket_of(row)]
//!  merge      per-bucket SPA merge of buckets[0][b], …, buckets[t-1][b],    (Step 2)
//!             one bucket at a time per thread
//!  output     prefix sum over per-bucket unique counts, then gather         (Step 3)
//! ```
//!
//! Two departures from the paper, both output-neutral:
//!
//! * **The mask is applied in Step 1.** A masked-out row's product is never
//!   formed, stored or merged. On BFS that is most of them: 81 % of a
//!   seed-7 R-MAT sweep's products and 67 % of a mesh sweep's.
//! * **No Algorithm 2.** The paper counts every `(thread, bucket)` pair's
//!   entries first so that all buckets share one contiguous buffer with an
//!   exclusive write window per pair (§III-A). That argument is about
//!   layout, not speed: here each participant pushes into its own `Vec` per
//!   bucket, kept in the [`BucketWorkspace`] with its capacity, so Step 1
//!   needs no counting pass and stays free of synchronization. Step 2 reads
//!   bucket `b` from participants `0..t` in order — the order the shared
//!   buffer's windows had — so every output is bit-identical to the
//!   windowed kernel's. [`StepTimings::estimate`] reads zero.

mod workspace;

pub use workspace::BucketWorkspace;
pub(crate) use workspace::{participant_buckets, Buckets};

use std::marker::PhantomData;
use std::ops::Range;
use std::time::Instant;

use sparse_substrate::ops::required_multiplications;
use sparse_substrate::{CscMatrix, Scalar, Semiring, SparseVec};

use crate::algorithm::{MatrixRef, SpMSpV, SpMSpVOptions};
use crate::disjoint::split_ranges;
use crate::executor::{even_ranges, Executor};
use crate::masked::MaskView;
use crate::timing::StepTimings;

/// Buckets per participating thread: `nb = 4t` (§III-A), enough slack for
/// dynamic scheduling to balance skewed buckets.
pub(crate) const BUCKETS_PER_THREAD: usize = 4;

/// Bucket that row `i` of an `m`-row matrix maps to when `nb` buckets are
/// used: `⌊i · nb / m⌋` (line 5 of Algorithm 1).
#[inline]
pub fn bucket_of(i: usize, m: usize, nb: usize) -> usize {
    debug_assert!(i < m);
    (i * nb) / m
}

/// The contiguous row range `[lo, hi)` owned by bucket `b`: exactly the rows
/// `i` with `bucket_of(i, m, nb) == b`. The ranges of all buckets partition
/// `0..m`, which is what lets Step 2 hand each bucket a disjoint slice of
/// the SPA.
pub fn bucket_row_ranges(m: usize, nb: usize) -> Vec<Range<usize>> {
    (0..nb)
        .map(|b| {
            let lo = (b * m).div_ceil(nb);
            let hi = ((b + 1) * m).div_ceil(nb);
            lo..hi
        })
        .collect()
}

/// The paper's work-efficient, synchronization-avoiding SpMSpV algorithm,
/// prepared for one matrix and reusable across many input vectors.
pub struct SpMSpVBucket<'a, A, X, S: Semiring<A, X>> {
    matrix: MatrixRef<'a, A>,
    options: SpMSpVOptions,
    executor: Executor,
    workspace: BucketWorkspace<S::Output>,
    _marker: PhantomData<fn(X, S)>,
}

impl<'a, A, X, S> SpMSpVBucket<'a, A, X, S>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X>,
{
    /// Prepares the algorithm for `matrix` with the given options.
    ///
    /// Allocates the `O(m)` SPA once; buckets grow lazily and are then
    /// reused (see [`BucketWorkspace`] for their bound).
    pub fn new(matrix: impl Into<MatrixRef<'a, A>>, options: SpMSpVOptions) -> Self {
        let matrix = matrix.into();
        let executor = options.build_executor();
        let workspace = BucketWorkspace::new(matrix.nrows());
        SpMSpVBucket { matrix, options, executor, workspace, _marker: PhantomData }
    }

    /// The options this instance was built with.
    pub fn options(&self) -> &SpMSpVOptions {
        &self.options
    }

    /// Computes `y ← A ⊕.⊗ x` and also returns the per-step wall-clock
    /// breakdown used by the Figure 6 experiment.
    pub fn multiply_with_timings(
        &mut self,
        x: &SparseVec<X>,
        semiring: &S,
    ) -> (SparseVec<S::Output>, StepTimings) {
        self.multiply_masked_with_timings(x, semiring, None)
    }

    /// Computes `y ← ⟨mask⟩ (A ⊕.⊗ x)` with the per-step breakdown.
    ///
    /// The mask is consulted **inside Step 1** (bucketing): a masked-out
    /// row's product is never formed, so it never enters a bucket, the SPA,
    /// the unique-index lists, the output gather, or a post-filter pass.
    /// The mask's entire cost is one bitmap probe per matrix entry of the
    /// selected columns, accounted under `bucketing` in the returned
    /// timings. `estimate` always reads zero: this kernel has no estimate
    /// pass (see the [module docs](self)).
    pub fn multiply_masked_with_timings(
        &mut self,
        x: &SparseVec<X>,
        semiring: &S,
        mask: Option<MaskView<'_>>,
    ) -> (SparseVec<S::Output>, StepTimings) {
        let matrix = &*self.matrix;
        let m = matrix.nrows();
        let n = matrix.ncols();
        assert_eq!(
            x.len(),
            n,
            "input vector has dimension {} but the matrix has {} columns",
            x.len(),
            n
        );
        if let Some(mask) = mask {
            mask.check_rows(m);
        }
        let mut timings = StepTimings::default();
        if x.is_empty() {
            return (SparseVec::new(m), timings);
        }

        // All three steps run on the participant count the call's exact
        // flops earn.
        let executor = self.executor.capped_for(required_multiplications(matrix, x));
        let t = executor.threads();
        let nb = BUCKETS_PER_THREAD * t;

        // ---------------- Step 1: bucketing ----------------
        // Each participant pushes the products the mask keeps into its own
        // buckets.
        let t1 = Instant::now();
        let ws = &mut self.workspace;
        let buckets = participant_buckets(&mut ws.buckets, t, nb);
        match mask {
            None => scatter(&executor, matrix, x, buckets, semiring, |_| true),
            Some(mask) => scatter(&executor, matrix, x, buckets, semiring, mask.row_filter()),
        }
        timings.bucketing = t1.elapsed();

        // ---------------- Step 2: per-bucket SPA merge ----------------
        let t2 = Instant::now();
        let row_ranges = bucket_row_ranges(m, nb);
        ws.bump_generation();
        let generation = ws.generation();
        let uinds: Vec<Vec<usize>> = {
            let spa_val_slices = split_ranges(&mut ws.spa_values, &row_ranges);
            let spa_stamp_slices = split_ranges(&mut ws.spa_stamps, &row_ranges);
            let buckets = &ws.buckets[..t];
            executor.map(
                spa_val_slices.into_iter().zip(spa_stamp_slices).zip(&row_ranges).enumerate(),
                |(b, ((spa_vals, spa_stamps), range))| {
                    let lo = range.start;
                    // Reserve for the worst case (every entry unique) to
                    // avoid repeated growth inside the hot loop.
                    let mut uind = Vec::with_capacity(buckets.iter().map(|p| p[b].len()).sum());
                    // Participants in order: each bucket's entries arrive in
                    // ascending column order, whatever `t` is.
                    for participant in buckets {
                        for &(i, ref v) in &participant[b] {
                            let local = i - lo;
                            if spa_stamps[local] != generation {
                                spa_stamps[local] = generation;
                                spa_vals[local] = *v;
                                uind.push(i);
                            } else {
                                spa_vals[local] = semiring.add(spa_vals[local], *v);
                            }
                        }
                    }
                    uind.sort_unstable();
                    uind
                },
            )
        };
        timings.merge = t2.elapsed();

        // ---------------- Step 3: output ----------------
        // A prefix sum over the unique counts places each bucket's rows;
        // each bucket then fills its own `&mut` window of the output.
        let t3 = Instant::now();
        let mut out_starts = Vec::with_capacity(nb + 1);
        out_starts.push(0usize);
        for u in &uinds {
            out_starts.push(out_starts.last().unwrap() + u.len());
        }
        let y_nnz = *out_starts.last().unwrap();
        let mut out_indices = vec![0usize; y_nnz];
        let mut out_values = vec![S::Output::default(); y_nnz];
        {
            let out_ranges: Vec<Range<usize>> = out_starts.windows(2).map(|w| w[0]..w[1]).collect();
            let idx_slices = split_ranges(&mut out_indices, &out_ranges);
            let val_slices = split_ranges(&mut out_values, &out_ranges);
            let spa_values = &ws.spa_values;
            executor.for_each(
                uinds.iter().zip(idx_slices).zip(val_slices).zip(&row_ranges),
                |(((uind, idx_out), val_out), range)| {
                    debug_assert!(uind.iter().all(|&i| range.contains(&i)));
                    for (k, &i) in uind.iter().enumerate() {
                        idx_out[k] = i;
                        val_out[k] = spa_values[i];
                    }
                },
            );
        }
        let y = SparseVec::from_parts(m, out_indices, out_values)
            .expect("bucket output indices are ascending and in bounds by construction");
        timings.output = t3.elapsed();

        (y, timings)
    }
}

/// Step 1: participant `k` scales the columns of its chunk of `x` and pushes
/// each `(row, product)` whose row `keeps` accepts onto its own bucket
/// `buckets[k][bucket_of(row)]` — no lock, no atomic, no counting pass. A
/// row `keeps` rejects costs one probe and no product. Participant `k`
/// takes the `k`-th of `t` even chunks of `x`, so bucket `b` read from
/// participants `0..t` in order holds its entries in ascending column order.
fn scatter<A: Scalar, X: Scalar, S: Semiring<A, X>>(
    executor: &Executor,
    matrix: &CscMatrix<A>,
    x: &SparseVec<X>,
    buckets: &mut [Buckets<(usize, S::Output)>],
    semiring: &S,
    keeps: impl Fn(usize) -> bool + Sync,
) {
    let (m, t) = (matrix.nrows(), executor.threads());
    let nb = BUCKETS_PER_THREAD * t;
    executor.for_each(even_ranges(x.nnz(), t).into_iter().zip(buckets), |(chunk, mine)| {
        for k in chunk {
            let xv = &x.values()[k];
            let (rows, vals) = matrix.column(x.indices()[k]);
            for (&i, av) in rows.iter().zip(vals.iter()) {
                if keeps(i) {
                    mine[bucket_of(i, m, nb)].push((i, semiring.multiply(av, xv)));
                }
            }
        }
    });
}

impl<'a, A, X, S> SpMSpV<A, X, S> for SpMSpVBucket<'a, A, X, S>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X>,
{
    fn name(&self) -> &'static str {
        "SpMSpV-bucket"
    }

    fn nrows(&self) -> usize {
        self.matrix.nrows()
    }

    fn ncols(&self) -> usize {
        self.matrix.ncols()
    }

    fn multiply(&mut self, x: &SparseVec<X>, semiring: &S) -> SparseVec<S::Output> {
        self.multiply_with_timings(x, semiring).0
    }

    fn multiply_masked(
        &mut self,
        x: &SparseVec<X>,
        semiring: &S,
        mask: Option<MaskView<'_>>,
    ) -> SparseVec<S::Output> {
        self.multiply_masked_with_timings(x, semiring, mask).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_substrate::gen::{erdos_renyi, random_sparse_vec, rmat, RmatParams};
    use sparse_substrate::ops::spmspv_reference;
    use sparse_substrate::{fixtures, CooMatrix, PlusTimes, Select2ndMin};

    #[test]
    fn figure1_example() {
        let a = fixtures::figure1_matrix();
        let x = fixtures::figure1_vector();
        let mut alg = SpMSpVBucket::new(&a, SpMSpVOptions::with_threads(2));
        let y = alg.multiply(&x, &PlusTimes);
        let expected = spmspv_reference(&a, &x, &PlusTimes);
        assert!(y.approx_same_entries(&expected, 1e-9));
    }

    #[test]
    fn empty_input_vector() {
        let a = fixtures::figure1_matrix();
        let x = SparseVec::new(8);
        let mut alg = SpMSpVBucket::new(&a, SpMSpVOptions::default());
        let y = alg.multiply(&x, &PlusTimes);
        assert!(y.is_empty());
        assert_eq!(y.len(), 8);
    }

    #[test]
    fn matches_reference_on_random_matrices_all_thread_counts() {
        let a = erdos_renyi(400, 6.0, 7);
        for threads in [1usize, 2, 3, 4, 8] {
            for f in [1usize, 5, 50, 400] {
                let x = random_sparse_vec(400, f, 1000 + f as u64);
                let expected = spmspv_reference(&a, &x, &PlusTimes);
                let mut alg = SpMSpVBucket::new(&a, SpMSpVOptions::with_threads(threads));
                let y = alg.multiply(&x, &PlusTimes);
                assert!(
                    y.approx_same_entries(&expected, 1e-9),
                    "mismatch at threads={threads}, nnz(x)={f}"
                );
            }
        }
    }

    #[test]
    fn workspace_is_reused_across_calls() {
        let a = erdos_renyi(300, 5.0, 3);
        let mut alg = SpMSpVBucket::new(&a, SpMSpVOptions::with_threads(2));
        for seed in 0..5u64 {
            let x = random_sparse_vec(300, 40, seed);
            let expected = spmspv_reference(&a, &x, &PlusTimes);
            let y = alg.multiply(&x, &PlusTimes);
            assert!(y.approx_same_entries(&expected, 1e-9), "call with seed {seed} diverged");
        }
    }

    #[test]
    fn more_buckets_than_entries_is_fine() {
        // A 10-row matrix under 8 participants (nb = 32): most buckets own an
        // empty row range and no entries, and must be handled gracefully.
        let (m, n) = (10, 300);
        let mut coo = CooMatrix::new(m, n);
        for j in 0..n {
            coo.push(j % m, j, 1.0 + j as f64);
        }
        let a = CscMatrix::from_coo(coo, |a, b| a + b);
        let x = random_sparse_vec(n, n, 3);
        let mut alg = SpMSpVBucket::new(&a, SpMSpVOptions::with_threads(8));
        let y = alg.multiply(&x, &PlusTimes);
        let expected = spmspv_reference(&a, &x, &PlusTimes);
        assert!(y.approx_same_entries(&expected, 1e-9));
    }

    #[test]
    fn select2nd_semiring_for_bfs_parents() {
        let a = rmat(8, 8, RmatParams::graph500(), 4);
        let n = a.ncols();
        let x = SparseVec::from_pairs(n, vec![(3, 3usize), (100, 100usize)]).unwrap();
        let expected = spmspv_reference(&a, &x, &Select2ndMin);
        let mut alg = SpMSpVBucket::new(&a, SpMSpVOptions::with_threads(4));
        let y = alg.multiply(&x, &Select2ndMin);
        assert!(y.same_entries(&expected));
    }

    #[test]
    fn timings_cover_all_steps() {
        let a = erdos_renyi(2000, 8.0, 99);
        let x = random_sparse_vec(2000, 500, 4);
        let mut alg = SpMSpVBucket::new(&a, SpMSpVOptions::with_threads(2));
        let (y, t) = alg.multiply_with_timings(&x, &PlusTimes);
        assert!(!y.is_empty());
        assert!(t.total() > std::time::Duration::ZERO);
        // every phase should have been entered (non-zero or at least measured)
        let f = t.fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn dimension_mismatch_panics() {
        let a = fixtures::figure1_matrix();
        let x = SparseVec::<f64>::from_pairs(9, vec![(0, 1.0)]).unwrap();
        let mut alg = SpMSpVBucket::new(&a, SpMSpVOptions::default());
        let _ = alg.multiply(&x, &PlusTimes);
    }

    #[test]
    fn bucket_of_partitions_rows() {
        for &(m, nb) in &[(8usize, 4usize), (10, 3), (7, 7), (100, 96), (5, 16)] {
            let ranges = bucket_row_ranges(m, nb);
            assert_eq!(ranges.len(), nb);
            // ranges are contiguous and cover 0..m
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges[nb - 1].end, m);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            // membership agrees with bucket_of
            for i in 0..m {
                let b = bucket_of(i, m, nb);
                assert!(ranges[b].contains(&i), "row {i} not in range of bucket {b}");
            }
        }
    }

    #[test]
    fn figure1_counts_match_the_paper() {
        // Figure 1 uses 4 buckets over 8 rows: rows 0-1, 2-3, 4-5, 6-7, and
        // they receive rows {0,0}, {2,3}, {4,4}, {6} — 7 products in all.
        let a = fixtures::figure1_matrix();
        let x = fixtures::figure1_vector();
        let mut buckets = Vec::new();
        let mine = participant_buckets(&mut buckets, 1, 4);
        scatter(&Executor::new(1), &a, &x, mine, &PlusTimes, |_| true);
        let rows = |b: usize| buckets[0][b].iter().map(|&(i, _)| i).collect::<Vec<_>>();
        assert_eq!(
            [rows(0), rows(1), rows(2), rows(3)],
            [vec![0, 0], vec![2, 3], vec![4, 4], vec![6]]
        );

        // Two participants split x's columns; bucket b read from participant
        // 0 then 1 holds the same rows in the same order.
        let executor = Executor::new(2);
        let mut buckets = Vec::new();
        scatter(&executor, &a, &x, participant_buckets(&mut buckets, 2, 8), &PlusTimes, |_| true);
        let in_order: Vec<usize> = (0..8)
            .flat_map(|b| buckets.iter().flat_map(move |p| p[b].iter().map(|&(i, _)| i)))
            .collect();
        assert_eq!(in_order, [0, 0, 2, 3, 4, 4, 6]);
    }
}
