//! The SpMSpV-bucket algorithm (Algorithm 1 + Algorithm 2 of the paper).
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
//!  estimate   Boffset[k][b]  = entries thread k will send to bucket b   (Alg. 2)
//!  (split)    &mut window of thread k in bucket b, Boffset[k][b] slots
//!  bucketing  write (row, A(i,j) ⊗ x(j)) into the windows, lock-free    (Step 1)
//!  merge      per-bucket SPA merge, one bucket at a time per thread     (Step 2)
//!  output     prefix sum over per-bucket unique counts, then gather     (Step 3)
//! ```
//!
//! Step 1 writes each product straight into its window. §III-A's
//! thread-private staging buffer is not used: on this code it copied every
//! product twice and measured slower than the direct write.

pub mod estimate;
mod workspace;

pub use estimate::{bucket_of, bucket_row_ranges, BucketPlan};
pub(crate) use workspace::high_water;
pub use workspace::BucketWorkspace;

use std::marker::PhantomData;
use std::ops::Range;
use std::time::Instant;

use sparse_substrate::{CscMatrix, Scalar, Semiring, SparseVec};

use crate::algorithm::{MatrixRef, SpMSpV, SpMSpVOptions};
use crate::disjoint::{split_by_boundaries, split_grouped, split_ranges};
use crate::executor::{even_ranges, Executor};
use crate::masked::MaskView;
use crate::timing::StepTimings;

/// Buckets per participating thread: `nb = 4t` (§III-A), enough slack for
/// dynamic scheduling to balance skewed buckets. Shared with the fused batch
/// kernel.
pub(crate) const BUCKETS_PER_THREAD: usize = 4;

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
    /// Allocates the `O(m)` SPA once; buckets grow lazily up to
    /// `O(nnz(A))` and are then reused.
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
    /// The mask is consulted **inside Step 2** (the per-bucket SPA merge):
    /// masked-out rows are skipped before they touch the SPA, so they never
    /// enter the unique-index lists, the output gather, or a post-filter
    /// pass — the mask's entire cost is one bitmap probe per bucket entry,
    /// accounted under `merge` in the returned timings.
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

        // All four steps run on the same work-proportional participant count.
        let executor = self.executor.capped_for(x.nnz());
        let t = executor.threads();
        let nb = BUCKETS_PER_THREAD * t;

        let chunks = even_ranges(x.nnz(), t);

        // ---------------- Estimate (Algorithm 2) ----------------
        let t0 = Instant::now();
        let plan = estimate::estimate_buckets(&executor, matrix, x.indices(), |_| 1, &chunks, nb);
        timings.estimate = t0.elapsed();

        // ---------------- Step 1: bucketing ----------------
        // Into the first `total` entries of the high-water buffer, through
        // per-(participant, bucket) `&mut` windows sized by the estimate.
        let t1 = Instant::now();
        let ws = &mut self.workspace;
        let entries = high_water(&mut ws.entries, plan.total_entries(), (0, S::Output::default()));
        scatter(&executor, matrix, x, &chunks, &plan.boffset, entries, semiring);
        timings.bucketing = t1.elapsed();

        // ---------------- Step 2: per-bucket SPA merge ----------------
        let t2 = Instant::now();
        let row_ranges = bucket_row_ranges(m, nb);
        ws.bump_generation();
        let generation = ws.generation();
        let uinds: Vec<Vec<usize>> = {
            let spa_val_slices = split_ranges(&mut ws.spa_values, &row_ranges);
            let spa_stamp_slices = split_ranges(&mut ws.spa_stamps, &row_ranges);
            let entry_slices = split_by_boundaries(&ws.entries, &plan.bucket_starts);
            executor.map(
                entry_slices.into_iter().zip(spa_val_slices).zip(spa_stamp_slices).zip(&row_ranges),
                |(((bucket_entries, spa_vals), spa_stamps), range)| {
                    let lo = range.start;
                    // Reserve for the worst case (every entry unique) to
                    // avoid repeated growth inside the hot loop.
                    let mut uind = Vec::with_capacity(bucket_entries.len());
                    for &(i, ref v) in bucket_entries {
                        if let Some(mask) = mask {
                            if !mask.keeps(i) {
                                continue;
                            }
                        }
                        let local = i - lo;
                        if spa_stamps[local] != generation {
                            spa_stamps[local] = generation;
                            spa_vals[local] = *v;
                            uind.push(i);
                        } else {
                            spa_vals[local] = semiring.add(spa_vals[local], *v);
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
            let out_ranges: Vec<std::ops::Range<usize>> =
                out_starts.windows(2).map(|w| w[0]..w[1]).collect();
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

/// Step 1: participant `k` scales the columns of its chunk of `x` and writes
/// each `(row, product)` straight into its own window of the row's bucket —
/// `boffset[k][b]` slots of `entries`, cut off with `split_at_mut`, so the
/// writes need no lock, no atomic and no `unsafe`. The fused batch kernel
/// runs the same loop over `(row, lane, product)` triples.
fn scatter<A: Scalar, X: Scalar, S: Semiring<A, X>>(
    executor: &Executor,
    matrix: &CscMatrix<A>,
    x: &SparseVec<X>,
    chunks: &[Range<usize>],
    boffset: &[Vec<usize>],
    entries: &mut [(usize, S::Output)],
    semiring: &S,
) {
    let m = matrix.nrows();
    let nb = boffset.first().map_or(0, Vec::len);
    let windows = split_grouped(entries, boffset);
    executor.for_each(chunks.iter().zip(windows), |(chunk, mut windows)| {
        let mut cursor = vec![0usize; nb];
        for k in chunk.clone() {
            let j = x.indices()[k];
            let xv = &x.values()[k];
            let (rows, vals) = matrix.column(j);
            for (&i, av) in rows.iter().zip(vals.iter()) {
                let b = bucket_of(i, m, nb);
                windows[b][cursor[b]] = (i, semiring.multiply(av, xv));
                cursor[b] += 1;
            }
        }
        assert_windows_filled(&windows, &cursor);
    });
}

/// Checks, once per participant after its chunk (`nb` compares), that it
/// filled each of its windows exactly: an overrun already panicked on the
/// bounds check, and a window left short would carry stale entries into the
/// merge. Either way estimate and bucketing disagreed; the panic reaches the
/// caller through [`Executor::map`].
pub(crate) fn assert_windows_filled<T>(windows: &[&mut [T]], cursor: &[usize]) {
    for (b, (window, &written)) in windows.iter().zip(cursor).enumerate() {
        assert_eq!(
            written,
            window.len(),
            "bucket {b}: bucketing wrote {written} entries into a window the estimate sized {}",
            window.len()
        );
    }
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

    /// Runs Step 1 over a plan whose count for (participant 1, bucket 3) is
    /// off by `skew` from what bucketing will write.
    fn scatter_with_skewed_plan(skew: isize) {
        let a = erdos_renyi(200, 6.0, 8);
        let x = random_sparse_vec(200, 80, 2);
        let executor = Executor::new(2);
        let chunks = even_ranges(x.nnz(), 2);
        let mut plan = estimate::estimate_buckets(&executor, &a, x.indices(), |_| 1, &chunks, 8);
        assert!(plan.boffset[1][3] > 0, "the fixture must put entries there");
        plan.boffset[1][3] = plan.boffset[1][3].checked_add_signed(skew).unwrap();
        let mut entries = vec![(0, 0.0); plan.boffset.iter().flatten().sum()];
        scatter(&executor, &a, &x, &chunks, &plan.boffset, &mut entries, &PlusTimes);
    }

    #[test]
    #[should_panic(expected = "bucket 3: bucketing wrote")]
    fn a_window_left_short_panics_instead_of_returning() {
        scatter_with_skewed_plan(1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn a_window_overrun_panics_instead_of_returning() {
        scatter_with_skewed_plan(-1);
    }
}
