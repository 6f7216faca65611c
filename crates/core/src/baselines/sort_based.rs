//! Sort-based SpMSpV (Yang, Wang & Owens — "concatenate, sort and prune").
//!
//! A CPU port of the GPU algorithm the paper lists in Table I: gather all
//! scaled entries of the selected columns into one array, sort the array by
//! row index, then reduce runs of equal rows. Work is `O(d·f·lg(d·f))`;
//! the algorithm is vector-driven and embarrassingly parallel (the gather
//! parallelizes over `x`'s nonzeros, the sort is a parallel merge sort), but
//! pays the `lg` factor the bucket algorithm avoids.

use sparse_substrate::{Scalar, Semiring, SparseVec};

use crate::algorithm::{MatrixRef, SpMSpV, SpMSpVOptions};
use crate::executor::{even_ranges, Executor};
use crate::masked::MaskView;

/// Sort-based vector-driven SpMSpV over a CSC matrix.
pub struct SortBased<'a, A> {
    matrix: MatrixRef<'a, A>,
    executor: Executor,
}

impl<'a, A: Scalar> SortBased<'a, A> {
    /// Prepares the algorithm (no per-matrix preprocessing is needed).
    pub fn new(matrix: impl Into<MatrixRef<'a, A>>, options: SpMSpVOptions) -> Self {
        let matrix = matrix.into();
        SortBased { matrix, executor: options.build_executor() }
    }
}

impl<'a, A, X, S> SpMSpV<A, X, S> for SortBased<'a, A>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X>,
{
    fn name(&self) -> &'static str {
        "SpMSpV-sort"
    }

    fn nrows(&self) -> usize {
        self.matrix.nrows()
    }

    fn ncols(&self) -> usize {
        self.matrix.ncols()
    }

    fn multiply(&mut self, x: &SparseVec<X>, semiring: &S) -> SparseVec<S::Output> {
        self.multiply_masked(x, semiring, None)
    }

    fn multiply_masked(
        &mut self,
        x: &SparseVec<X>,
        semiring: &S,
        mask: Option<MaskView<'_>>,
    ) -> SparseVec<S::Output> {
        assert_eq!(x.len(), self.matrix.ncols(), "dimension mismatch");
        if let Some(mask) = mask {
            mask.check_rows(self.matrix.nrows());
        }
        let matrix = &*self.matrix;
        if x.is_empty() {
            return SparseVec::new(matrix.nrows());
        }
        let t = self.executor.threads().min(x.nnz()).max(1);
        let chunks = even_ranges(x.nnz(), t);

        // Gather: each chunk of x produces its own (row, product) list.
        // The mask is applied here, before the sort — dropped rows are never
        // gathered, so they do not even inflate the sort.
        let parts: Vec<Vec<(usize, S::Output)>> = self.executor.map(&chunks, |chunk| {
            let mut out = Vec::new();
            for k in chunk.clone() {
                let j = x.indices()[k];
                let xv = &x.values()[k];
                let (rows, vals) = matrix.column(j);
                for (&i, av) in rows.iter().zip(vals.iter()) {
                    if let Some(mask) = mask {
                        if !mask.keeps(i) {
                            continue;
                        }
                    }
                    out.push((i, semiring.multiply(av, xv)));
                }
            }
            out
        });
        let mut gathered = parts.concat();

        // Sort by row (parallel) and prune by reducing runs of equal rows.
        sort_by_row(&self.executor, &mut gathered);
        let mut y = SparseVec::new(matrix.nrows());
        let mut iter = gathered.into_iter();
        if let Some((first_i, first_v)) = iter.next() {
            let mut cur_i = first_i;
            let mut cur_v = first_v;
            for (i, v) in iter {
                if i == cur_i {
                    cur_v = semiring.add(cur_v, v);
                } else {
                    y.push(cur_i, cur_v);
                    cur_i = i;
                    cur_v = v;
                }
            }
            y.push(cur_i, cur_v);
        }
        y
    }
}

/// Sorts `pairs` by row: one run per participant is sorted in parallel, then
/// the runs are k-way merged through an auxiliary buffer. Like
/// `sort_unstable_by_key`, equal rows end up in no particular order.
fn sort_by_row<Y: Scalar>(executor: &Executor, pairs: &mut [(usize, Y)]) {
    let threads = executor.threads();
    if threads == 1 || pairs.len() < 2048 {
        pairs.sort_unstable_by_key(|&(i, _)| i);
        return;
    }
    let run_len = pairs.len().div_ceil(threads);
    executor.for_each(pairs.chunks_mut(run_len), |run| run.sort_unstable_by_key(|&(i, _)| i));
    // (next unmerged position, end) of every run that still has entries.
    let mut runs: Vec<(usize, usize)> = (0..pairs.len())
        .step_by(run_len)
        .map(|start| (start, (start + run_len).min(pairs.len())))
        .collect();
    let mut merged = Vec::with_capacity(pairs.len());
    while !runs.is_empty() {
        let mut best = 0;
        for r in 1..runs.len() {
            if pairs[runs[r].0].0 < pairs[runs[best].0].0 {
                best = r;
            }
        }
        let (pos, end) = &mut runs[best];
        merged.push(pairs[*pos]);
        *pos += 1;
        if *pos == *end {
            runs.swap_remove(best);
        }
    }
    pairs.copy_from_slice(&merged);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_substrate::gen::{erdos_renyi, random_sparse_vec};
    use sparse_substrate::ops::spmspv_reference;
    use sparse_substrate::{fixtures, PlusTimes};

    #[test]
    fn matches_reference_and_is_sorted() {
        let a = fixtures::figure1_matrix();
        let x = fixtures::figure1_vector();
        let mut alg = SortBased::new(&a, SpMSpVOptions::with_threads(2));
        let y = SpMSpV::<f64, f64, PlusTimes>::multiply(&mut alg, &x, &PlusTimes);
        assert!(y.approx_same_entries(&spmspv_reference(&a, &x, &PlusTimes), 1e-9));
    }

    #[test]
    fn random_inputs_across_thread_counts() {
        let a = erdos_renyi(400, 6.0, 19);
        for threads in [1usize, 2, 8] {
            let mut alg = SortBased::new(&a, SpMSpVOptions::with_threads(threads));
            for f in [1usize, 40, 400] {
                let x = random_sparse_vec(400, f, f as u64 + 3);
                let y = SpMSpV::<f64, f64, PlusTimes>::multiply(&mut alg, &x, &PlusTimes);
                assert!(y.approx_same_entries(&spmspv_reference(&a, &x, &PlusTimes), 1e-9));
            }
        }
    }

    #[test]
    fn empty_vector_short_circuits() {
        let a = fixtures::tridiagonal(10);
        let x = SparseVec::new(10);
        let mut alg = SortBased::new(&a, SpMSpVOptions::default());
        let y = SpMSpV::<f64, f64, PlusTimes>::multiply(&mut alg, &x, &PlusTimes);
        assert!(y.is_empty());
    }
}
