//! The bottom-up ("pull") step of direction-optimizing BFS (Beamer,
//! Asanović, Patterson, SC 2012) as a single-vector SpMSpV kernel.
//!
//! Push — every other kernel in this crate — walks the frontier's columns
//! and forms one product per entry, `flops` of them. Pull walks the other
//! way: for every row the mask keeps, it scans that row's entries in
//! ascending column order and stops at the first frontier member
//! (GraphBLAST's masked "early exit"; Yang, Buluç, Owens, ICPP 2018). When
//! the frontier is dense and few rows are left, that reads a small fraction
//! of what push reads. The frontier is held as a [`FrontierBits`], the
//! substrate's bitvector (GraphMat's too): one bit per column answers "is
//! `j` in the frontier", and its per-word rank finds `j`'s value in `x`.
//!
//! Stopping early is exact, not approximate, when three things hold, and
//! [`SpMSpVPull`] checks all three, cheapest first:
//!
//! 1. the matrix is square and a mask is given (pull visits the rows the
//!    mask keeps; with no mask it would visit all of them);
//! 2. [`Semiring::first_hit_decides`] holds for the frontier's values:
//!    `Select2ndMin` over a frontier whose values strictly ascend with
//!    their index, as a BFS frontier's do (each vertex carries its own id),
//!    so the first hit in ascending order is the `min` push computes;
//! 3. the pattern is symmetric ([`CscMatrix::is_structurally_symmetric`],
//!    cached per matrix), so column `i` lists row `i`'s entries in
//!    ascending order and no transpose is built.
//!
//! When one fails, the kernel runs the sequential SPA instead, so
//! [`AlgorithmKind::Pull`](crate::AlgorithmKind::Pull) is a valid family
//! for any call and its output always equals push's. Adaptive dispatch
//! ([`crate::adaptive`]) checks the same conditions before it picks pull,
//! and then pulls without checking them again.
//!
//! Each kept row's answer depends only on its own column, the frontier
//! bits and the rank table, all read-only during the scan, so the scan
//! splits over participants with no synchronisation but the claim:
//!
//! * **participant rule:** [`Executor::capped_for`] of the kept-row count
//!   ([`MaskView::kept`], `O(1)` from the bitmap), the workspace's one
//!   parallelism rule fed with pull's own lower bound on its work: every
//!   kept row reads its `colptr` and at least one `rowids` line. The push
//!   flops would say nothing here, since they are what pull avoids reading;
//! * **block rule:** at one participant one loop over the kept rows, with
//!   no `map` call and no allocation beyond the output; on `t > 1`, `4t`
//!   contiguous blocks of mask words (§III-A's bucket count; the probe
//!   behind it is in `pull_blocks`), more than the participants and
//!   claimed dynamically through [`Executor::map`], because rmat's hubs
//!   sit at low ids and no static cut is even. Each block pulls its own
//!   kept rows into its own vectors, and the blocks are concatenated in
//!   order.
//!
//! The output, and [`SpMSpVPull::last_scanned`], are the same at every
//! participant count.
//!
//! ## The transposed reading
//!
//! The scan never needs a square matrix: it reads column `i`'s row ids and
//! writes `y(i)`, so what it computes is `Aᵀ ⊗ x` under the first-hit
//! rule. Its frontier bits span the matrix's rows, and its mask and output
//! span its columns. On a square symmetric matrix `Aᵀ` has `A`'s pattern,
//! which is condition 3. On a column slice `A(:, lo..hi)` of a symmetric
//! `A`, local column `c` is row `lo + c`'s neighbour list in ascending
//! order, so the same scan, fed the whole frontier and the mask's rows
//! `lo..hi` re-based to 0, yields `y(lo..hi)` re-based to 0. That is how a
//! [shard](crate::shard) answers a pulled request: the router checks the
//! three conditions on the whole matrix, and each shard pulls the rows it
//! owns through the crate's unchecked entry to the scan, which checks none
//! of them.

use std::ops::Range;

use sparse_substrate::{CscMatrix, FrontierBits, Scalar, Semiring, SparseVec};

use crate::algorithm::{MatrixRef, SpMSpV, SpMSpVOptions};
use crate::baselines::SequentialSpa;
use crate::bucket::BUCKETS_PER_THREAD;
use crate::executor::{even_ranges, Executor};
use crate::masked::MaskView;

/// Whether a pull over `matrix` computes exactly what push computes for
/// `x` under `semiring` (conditions 2 and 3 of the [module docs](self),
/// and squareness), cheapest first: `O(1)`, then `O(nnz(x))`, then the
/// matrix's cached symmetry flag (one `O(nnz)` pass the first time).
pub(crate) fn is_exact<A, X, S>(matrix: &CscMatrix<A>, x: &SparseVec<X>, semiring: &S) -> bool
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X>,
{
    matrix.nrows() == matrix.ncols()
        && semiring.first_hit_decides(x.values())
        && matrix.is_structurally_symmetric()
}

/// [`AlgorithmKind::Pull`](crate::AlgorithmKind::Pull): the bottom-up
/// kernel of the [module docs](self), split over the participants its
/// kept rows earn. Within a block of the mask it visits the kept rows in
/// ascending order and emits each row that meets the frontier as it goes,
/// and it concatenates the blocks in order, so its output is sorted by
/// construction.
pub struct SpMSpVPull<'a, A, Y> {
    matrix: MatrixRef<'a, A>,
    executor: Executor,
    /// The frontier's columns, loaded on entry and cleared on exit (both
    /// `O(nnz(x))`, plus the `O(n/64)` rank rebuild). Column `j`'s position
    /// in `x` is one read of a rank table that fits in cache, where a
    /// search of `x`'s indices or an `n`-entry position array would miss.
    frontier: FrontierBits,
    fallback: Option<SequentialSpa<'a, A, Y>>,
    scanned: Option<usize>,
}

impl<'a, A: Scalar, Y: Scalar> SpMSpVPull<'a, A, Y> {
    /// Prepares the kernel on the options' participants (no workspace is
    /// allocated until a call needs it).
    pub fn new(matrix: impl Into<MatrixRef<'a, A>>, options: SpMSpVOptions) -> Self {
        SpMSpVPull {
            matrix: matrix.into(),
            executor: options.build_executor(),
            frontier: FrontierBits::default(),
            fallback: None,
            scanned: None,
        }
    }

    /// Matrix entries the last call read, or `None` when it ran the
    /// sequential SPA because pull would not have been exact. A row that
    /// meets a frontier member costs the entries up to and including it;
    /// a row that meets none costs its whole column. The count is the same
    /// at any participant count.
    pub fn last_scanned(&self) -> Option<usize> {
        self.scanned
    }

    /// The pull itself, for a call that [`is_exact`], or a shard's share of
    /// a call that is exact on the whole matrix (the transposed reading of
    /// the [module docs](self)). `x` spans the matrix's rows and the mask
    /// its columns, and the output spans its columns; the caller has
    /// checked all of it. It runs on the participants the mask's kept rows
    /// earn and, on more than one, on `4t` blocks (the participant and
    /// block rules of the [module docs](self)).
    pub(crate) fn pull<X: Scalar, S: Semiring<A, X, Output = Y>>(
        &mut self,
        x: &SparseVec<X>,
        semiring: &S,
        mask: MaskView<'_>,
    ) -> SparseVec<Y> {
        let executor = self.executor.capped_for(mask.kept());
        self.pull_on(executor, x, semiring, mask)
    }

    /// [`SpMSpVPull::pull`] on `executor`'s participants, whatever the
    /// call's kept rows earn.
    fn pull_on<X: Scalar, S: Semiring<A, X, Output = Y>>(
        &mut self,
        executor: Executor,
        x: &SparseVec<X>,
        semiring: &S,
        mask: MaskView<'_>,
    ) -> SparseVec<Y> {
        let matrix = &*self.matrix;
        self.frontier.load(matrix.nrows(), x.indices());
        let words = mask.bits().words().len();
        let frontier = &self.frontier;
        let scan =
            |block| pull_rows(matrix, frontier, x.values(), semiring, mask.kept_rows_in(block));
        let (indices, values, scanned) = if executor.threads() == 1 {
            scan(0..words)
        } else {
            concatenate(executor.map(pull_blocks(words, executor.threads()), scan))
        };
        self.frontier.clear(x.indices());
        self.scanned = Some(scanned);
        SparseVec::from_parts(matrix.ncols(), indices, values).expect("kept rows ascend")
    }
}

/// The blocks a pull over `words` mask words on `t` participants claims:
/// `4t` contiguous, near-equal word ranges, as many as the bucket kernel's
/// buckets (§III-A).
///
/// Block size was probed on seed-7 `bfs_rmat` (2-vCPU guest, 6 alternating
/// rounds at `--seconds 6`, `op_p50_ms` median [q1, q3]): `4t` blocks
/// (256 words at t = 2) read 5.27 [5.22, 5.49] ms and fixed 32-word blocks
/// 5.47 [5.26, 5.78] ms, against one participant's 6.85 [6.62, 6.96] ms.
/// An earlier prototype had found fixed 8-word blocks losing about half
/// the gain to the hand-off per item, and 128-word blocks reading as
/// 32-word ones did. So the paper's count needs no constant of its own.
fn pull_blocks(words: usize, t: usize) -> Vec<Range<usize>> {
    even_ranges(words, BUCKETS_PER_THREAD * t)
}

/// Pulls each of `rows` (ascending): scans its column up to the first
/// frontier member and, if one is found, emits the row with the product of
/// that entry. Returns the emitted rows, their values and the entries
/// read.
fn pull_rows<A, X, S>(
    matrix: &CscMatrix<A>,
    frontier: &FrontierBits,
    x: &[X],
    semiring: &S,
    rows: impl Iterator<Item = usize>,
) -> (Vec<usize>, Vec<S::Output>, usize)
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X>,
{
    let (mut indices, mut values) = (Vec::new(), Vec::new());
    let mut scanned = 0;
    for i in rows {
        let (rows, vals) = matrix.column(i);
        match rows.iter().position(|&j| frontier.contains(j)) {
            Some(k) => {
                scanned += k + 1;
                indices.push(i);
                values.push(semiring.multiply(&vals[k], &x[frontier.rank(rows[k])]));
            }
            None => scanned += rows.len(),
        }
    }
    (indices, values, scanned)
}

/// The blocks' outputs in block order, and their summed scan counts.
fn concatenate<Y>(blocks: Vec<(Vec<usize>, Vec<Y>, usize)>) -> (Vec<usize>, Vec<Y>, usize) {
    let total = blocks.iter().map(|(indices, ..)| indices.len()).sum();
    let (mut indices, mut values) = (Vec::with_capacity(total), Vec::with_capacity(total));
    let mut scanned = 0;
    for (block_indices, block_values, block_scanned) in blocks {
        indices.extend(block_indices);
        values.extend(block_values);
        scanned += block_scanned;
    }
    (indices, values, scanned)
}

impl<'a, A, X, S> SpMSpV<A, X, S> for SpMSpVPull<'a, A, S::Output>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X>,
{
    fn name(&self) -> &'static str {
        "Pull"
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
        let matrix = &*self.matrix;
        assert_eq!(x.len(), matrix.ncols(), "dimension mismatch");
        if let Some(mask) = mask {
            mask.check_rows(matrix.nrows());
            if is_exact(matrix, x, semiring) {
                return self.pull(x, semiring, mask);
            }
        }
        self.scanned = None;
        let fallback = self.fallback.get_or_insert_with(|| {
            SequentialSpa::new(self.matrix.clone(), SpMSpVOptions::default())
        });
        SpMSpV::<A, X, S>::multiply_masked(fallback, x, semiring, mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_substrate::fixtures::tridiagonal;
    use sparse_substrate::gen::{rmat, RmatParams};
    use sparse_substrate::{MaskBits, PlusTimes, Select2ndMin};

    use crate::masked::MaskMode;
    use crate::SpMSpVBucket;

    /// Frontier `{3, 4}` of a 10-vertex path, carrying its own ids.
    fn path_frontier() -> (CscMatrix<f64>, SparseVec<usize>) {
        (tridiagonal(10), SparseVec::from_pairs(10, vec![(3, 3), (4, 4)]).unwrap())
    }

    #[test]
    fn pulls_the_first_frontier_member_and_counts_what_it_read() {
        let (a, x) = path_frontier();
        let visited = MaskBits::from_indices(10, [2, 3, 4]);
        let mask = MaskView::new(&visited, MaskMode::Complement);
        let mut pull = SpMSpVPull::new(&a, SpMSpVOptions::default());
        let y = pull.multiply_masked(&x, &Select2ndMin, Some(mask));
        assert_eq!(y, SparseVec::from_pairs(10, vec![(5, 4)]).unwrap());
        let mut push = SpMSpVBucket::new(&a, SpMSpVOptions::with_threads(2));
        assert_eq!(y, push.multiply_masked(&x, &Select2ndMin, Some(mask)));
        // The kept rows 0, 1 and 5–9 hold 2 + 3 + 3·4 + 2 entries; row 5
        // stops at its first, row 4.
        assert_eq!(pull.last_scanned(), Some(2 + 3 + 1 + 3 * 3 + 2));
        // The frontier bits are clear again: a second call on a frontier
        // disjoint from the first sees none of its columns.
        let x = SparseVec::from_pairs(10, vec![(8, 8)]).unwrap();
        let visited = MaskBits::from_indices(10, [8]);
        let mask = MaskView::new(&visited, MaskMode::Complement);
        let y = pull.multiply_masked(&x, &Select2ndMin, Some(mask));
        assert_eq!(y, SparseVec::from_pairs(10, vec![(7, 8), (9, 8)]).unwrap());
    }

    /// Pulls `x` under `mask` over `a` at one participant and split at
    /// {2, 3, 8}, asserting that every split equals the one-participant
    /// pull, scan count included, and that it equals push.
    fn split_equals_one_participant(
        a: &CscMatrix<f64>,
        x: &SparseVec<usize>,
        mask: MaskView<'_>,
    ) -> SparseVec<usize> {
        let mut pull = SpMSpVPull::new(a, SpMSpVOptions::default());
        let one = pull.pull_on(Executor::new(1), x, &Select2ndMin, mask);
        let scanned = pull.last_scanned();
        for threads in [2, 3, 8] {
            let split = pull.pull_on(Executor::new(threads), x, &Select2ndMin, mask);
            assert_eq!(split, one, "t = {threads}");
            assert_eq!(pull.last_scanned(), scanned, "t = {threads}");
        }
        let mut seq = SequentialSpa::new(a, SpMSpVOptions::default());
        let push = SpMSpV::<f64, usize, Select2ndMin>::multiply_masked(
            &mut seq,
            x,
            &Select2ndMin,
            Some(mask),
        );
        assert_eq!(one, push);
        one
    }

    #[test]
    fn a_split_pull_keeps_the_first_and_last_row_of_every_block() {
        let n = 3000;
        let a = tridiagonal(n);
        // Every vertex is in the frontier, so every kept row meets it at its
        // first entry: row 0 at itself, row `i > 0` at `i − 1`.
        let x = SparseVec::from_parts(n, (0..n).collect(), (0..n).collect()).unwrap();
        for t in [2, 3, 8] {
            let edges: Vec<usize> = pull_blocks(n.div_ceil(64), t)
                .into_iter()
                .filter(|block| !block.is_empty())
                .flat_map(|block| [64 * block.start, n.min(64 * block.end) - 1])
                .collect();
            assert_eq!(edges.len(), 2 * 4 * t, "t = {t}");
            let bits = MaskBits::from_indices(n, edges.iter().copied());
            let y = split_equals_one_participant(&a, &x, MaskView::new(&bits, MaskMode::Keep));
            assert_eq!(y.indices(), edges, "t = {t}");
            let parents: Vec<usize> = edges.iter().map(|&i| i.saturating_sub(1)).collect();
            assert_eq!(y.values(), parents, "t = {t}");
        }
    }

    #[test]
    fn a_split_pull_reads_no_row_past_a_complemented_last_word() {
        // Around a word, and at t = 2 (eight blocks) around blocks of one
        // word (512 rows) and of three (1 536 rows).
        for len in [63, 64, 65, 511, 512, 513, 1535, 1537] {
            let a = tridiagonal(len);
            // Every third vertex and the second-to-last, all visited: the
            // last row is kept and meets the frontier, and the last word's
            // bits past `len` are kept too once complemented.
            let frontier: Vec<usize> = (1..len - 2).step_by(3).chain([len - 2]).collect();
            let x = SparseVec::from_parts(len, frontier.clone(), frontier.clone()).unwrap();
            let visited = MaskBits::from_indices(len, frontier);
            let mask = MaskView::new(&visited, MaskMode::Complement);
            let y = split_equals_one_participant(&a, &x, mask);
            assert_eq!(y.indices().last(), Some(&(len - 1)), "len {len}");
            assert_eq!(y.values().last(), Some(&(len - 2)), "len {len}");
        }
    }

    #[test]
    fn column_slices_pull_their_own_rows() {
        let a = rmat(12, 16, RmatParams::graph500(), 7);
        assert!(a.is_structurally_symmetric());
        let n = a.ncols();
        // A BFS-shaped frontier (each vertex carries its own id) and a
        // visited set, so both mask modes keep some rows and drop others.
        let frontier: Vec<usize> = (0..n).filter(|v| v % 3 == 0).collect();
        let x = SparseVec::from_parts(n, frontier.clone(), frontier).unwrap();
        let visited = MaskBits::from_indices(n, (0..n).filter(|v| v % 5 != 2));
        let balanced = crate::shard::ShardPlan::balanced(&a, 3).bounds().to_vec();
        for mode in [MaskMode::Complement, MaskMode::Keep] {
            let mut whole = SpMSpVPull::new(&a, SpMSpVOptions::default());
            let want =
                whole.pull_on(Executor::new(1), &x, &Select2ndMin, MaskView::new(&visited, mode));
            let want_scanned = whole.last_scanned();
            assert!(want.nnz() > 0, "{mode:?}");
            // nnz-balanced cuts, and cuts off the mask's word boundaries.
            for bounds in [balanced.clone(), vec![0, 1, 100, 1000, 2049, n]] {
                for threads in [1, 3] {
                    let (mut indices, mut values, mut scanned) = (Vec::new(), Vec::new(), 0);
                    for (slice, w) in a.column_split(&bounds).iter().zip(bounds.windows(2)) {
                        let owned = visited.slice(w[0]..w[1]);
                        let mut pull = SpMSpVPull::new(slice, SpMSpVOptions::default());
                        let y = pull.pull_on(
                            Executor::new(threads),
                            &x,
                            &Select2ndMin,
                            MaskView::new(&owned, mode),
                        );
                        assert_eq!(y.len(), w[1] - w[0]);
                        indices.extend(y.indices().iter().map(|i| w[0] + i));
                        values.extend_from_slice(y.values());
                        scanned += pull.last_scanned().expect("pulled");
                    }
                    let concatenated = SparseVec::from_parts(n, indices, values).unwrap();
                    assert_eq!(concatenated, want, "{mode:?}, {bounds:?}, t = {threads}");
                    assert_eq!(Some(scanned), want_scanned, "{mode:?}, {bounds:?}, t = {threads}");
                }
            }
        }
    }

    #[test]
    fn declines_to_the_sequential_spa_when_pull_would_not_be_exact() {
        let (a, x) = path_frontier();
        let visited = MaskBits::from_indices(10, [3, 4]);
        let mask = MaskView::new(&visited, MaskMode::Complement);
        let mut pull = SpMSpVPull::new(&a, SpMSpVOptions::default());
        let mut seq = SequentialSpa::new(&a, SpMSpVOptions::default());

        // No mask.
        let y = pull.multiply(&x, &Select2ndMin);
        assert_eq!(pull.last_scanned(), None);
        assert_eq!(y, SpMSpV::<f64, usize, Select2ndMin>::multiply(&mut seq, &x, &Select2ndMin));

        // Values that do not ascend with their index.
        let shuffled = SparseVec::from_pairs(10, vec![(3, 4), (4, 3)]).unwrap();
        let y = pull.multiply_masked(&shuffled, &Select2ndMin, Some(mask));
        assert_eq!(pull.last_scanned(), None);
        assert_eq!(y, SparseVec::from_pairs(10, vec![(2, 4), (5, 3)]).unwrap());

        // A semiring whose sum is not its first term.
        let reals = SparseVec::from_pairs(10, vec![(3, 1.0), (4, 2.0)]).unwrap();
        let mut pull = SpMSpVPull::new(&a, SpMSpVOptions::default());
        let y = pull.multiply_masked(&reals, &PlusTimes, Some(mask));
        assert_eq!(pull.last_scanned(), None);
        let mut seq = SequentialSpa::new(&a, SpMSpVOptions::default());
        assert_eq!(
            y,
            SpMSpV::<f64, f64, PlusTimes>::multiply_masked(
                &mut seq,
                &reals,
                &PlusTimes,
                Some(mask)
            )
        );
    }
}
