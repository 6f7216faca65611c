//! CombBLAS-style **row-split** batched baseline.
//!
//! The single-vector [`CombBlasSpa`](crate::baselines::CombBlasSpa) baseline
//! splits the matrix row-wise into `t` DCSC pieces and has every thread
//! multiply its own piece with the *entire* input vector. This is the same
//! strategy extended to a batch: every thread walks the **whole fused input**
//! (all `k` lanes) against its own `m/t × n` piece, accumulating into a
//! private per-piece lane-aware accumulator, and the per-piece outputs are
//! concatenated row-range by row-range.
//!
//! Like its single-vector counterpart it is intentionally *not*
//! work-efficient — each of the `t` pieces re-reads all `nnz(X)` activations,
//! so total work is `O(t·nnz(X) + d·nnz(X))` — but it needs no
//! synchronization (each piece owns a disjoint row slice of every output
//! lane) and it amortizes the matrix traversal across lanes exactly like the
//! fused bucket kernel does. That makes it the honest in-tree comparison for
//! [`SpMSpVBucketBatch`](super::SpMSpVBucketBatch): the fused kernel must
//! beat a batched row-split, not only the `k`-independent-calls
//! [`NaiveBatch`](super::NaiveBatch).
//!
//! Each piece merges through the same accumulator as the fused kernel — a
//! private [`LaneSpa`] over its `m/t × k` slot space, used directly instead
//! of through windows.
//!
//! Output determinism matches the rest of the crate: each lane is sorted
//! ascending, so results are comparable entry-for-entry
//! with the bucket kernels (bit-identical for order-insensitive semirings;
//! the row-split reduction order *within* one `(row, lane)` follows column
//! order, same as every other family here).

use sparse_substrate::{
    DcscMatrix, FusedColumns, LaneSpa, Scalar, Semiring, SpaBackend, SparseVecBatch,
};

use crate::algorithm::{MatrixRef, SpMSpVOptions};
use crate::executor::Executor;
use crate::masked::BatchMaskView;

use super::{BatchAlgorithmKind, BatchRunInfo, SpMSpVBatch};

/// Row-split CombBLAS-style batched SpMSpV with one private lane-aware
/// accumulator per piece.
pub struct CombBlasSpaBatch<'a, A, X, S: Semiring<A, X>> {
    matrix: MatrixRef<'a, A>,
    pieces: Vec<DcscMatrix<A>>,
    /// Row offset of each piece within the full matrix.
    offsets: Vec<usize>,
    /// One accumulator per piece, grown amortized as `k` varies.
    spas: Vec<LaneSpa<S::Output>>,
    executor: Executor,
    /// Whether the most recent call merged anything (see
    /// [`SpMSpVBatch::last_run_info`]).
    merged: bool,
    _marker: std::marker::PhantomData<fn(X, S)>,
}

impl<'a, A, X, S> CombBlasSpaBatch<'a, A, X, S>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X>,
{
    /// Splits `matrix` row-wise into one DCSC piece per thread.
    pub fn new(matrix: impl Into<MatrixRef<'a, A>>, options: SpMSpVOptions) -> Self {
        let matrix = matrix.into();
        let executor = options.build_executor();
        let t = executor.threads().max(1);
        let pieces = DcscMatrix::row_split(&matrix, t);
        let offsets = matrix.row_split_offsets(t);
        let spas = pieces.iter().map(|p| LaneSpa::new(p.nrows(), 0)).collect();
        CombBlasSpaBatch {
            matrix,
            pieces,
            offsets,
            spas,
            executor,
            merged: false,
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of row pieces (= threads the algorithm was prepared for).
    pub fn pieces(&self) -> usize {
        self.pieces.len()
    }
}

/// One piece's merge: scan the whole fused input against the piece,
/// accumulate into `spa`, and emit lane-major `(global row, value)` lists.
fn rowsplit_piece<A, X, S>(
    piece: &DcscMatrix<A>,
    piece_base: usize,
    spa: &mut LaneSpa<S::Output>,
    fused: &FusedColumns<X>,
    k: usize,
    mask: Option<&BatchMaskView<'_>>,
    semiring: &S,
) -> Vec<Vec<(usize, S::Output)>>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X>,
{
    spa.ensure_shape(piece.nrows().max(1), k.max(1));
    let mut uind: Vec<Vec<usize>> = vec![Vec::new(); k];
    for c in 0..fused.num_cols() {
        let j = fused.cols()[c];
        let Some((rows, avals)) = piece.column(j) else { continue };
        let (lanes, xvals) = fused.activations(c);
        for (&i, av) in rows.iter().zip(avals.iter()) {
            for (&lane, xv) in lanes.iter().zip(xvals.iter()) {
                if let Some(mask) = mask {
                    if !mask.keeps(i + piece_base, lane as usize) {
                        continue;
                    }
                }
                let prod = semiring.multiply(av, xv);
                if spa.accumulate(i, lane as usize, prod, |a, b| semiring.add(a, b)) {
                    uind[lane as usize].push(i);
                }
            }
        }
    }
    uind.into_iter()
        .enumerate()
        .map(|(lane, mut lane_uind)| {
            lane_uind.sort_unstable();
            lane_uind.into_iter().map(|i| (i + piece_base, *spa.value_at(i, lane))).collect()
        })
        .collect()
}

impl<'a, A, X, S> SpMSpVBatch<A, X, S> for CombBlasSpaBatch<'a, A, X, S>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X>,
{
    fn name(&self) -> &'static str {
        "CombBLAS-SPA-batch"
    }

    fn nrows(&self) -> usize {
        self.matrix.nrows()
    }

    fn ncols(&self) -> usize {
        self.matrix.ncols()
    }

    fn multiply_batch(&mut self, x: &SparseVecBatch<X>, semiring: &S) -> SparseVecBatch<S::Output> {
        self.multiply_batch_masked(x, semiring, None)
    }

    fn multiply_batch_masked(
        &mut self,
        x: &SparseVecBatch<X>,
        semiring: &S,
        mask: Option<&BatchMaskView<'_>>,
    ) -> SparseVecBatch<S::Output> {
        let m = self.matrix.nrows();
        let n = self.matrix.ncols();
        let k = x.k();
        assert_eq!(
            x.len(),
            n,
            "input batch has dimension {} but the matrix has {} columns",
            x.len(),
            n
        );
        if let Some(mask) = mask {
            mask.check_lanes(k);
            mask.check_rows(m);
        }
        self.merged = !x.is_empty();
        if !self.merged {
            return SparseVecBatch::new(m, k);
        }

        // Shared fused view: the sorted union of active columns with their
        // (lane, value) activations. Every piece scans all of it — the
        // row-split work inefficiency, faithfully reproduced — but each
        // matrix column is still read once per piece for all lanes, which is
        // the batched amortization this baseline exists to measure.
        let fused = x.fuse_columns();

        let offsets = &self.offsets;
        let pieces = &self.pieces;
        let fused = &fused;
        // Per-piece, lane-major `(row, value)` lists with global row ids.
        type PieceLanes<Y> = Vec<Vec<(usize, Y)>>;
        let per_piece: Vec<PieceLanes<S::Output>> = self
            .executor
            .map(pieces.iter().zip(&mut self.spas).enumerate(), |(p, (piece, spa))| {
                rowsplit_piece(piece, offsets[p], spa, fused, k, mask, semiring)
            });

        // Concatenate: lane l = piece 0's lane l, then piece 1's, … — pieces
        // cover ascending row ranges, so sorted pieces concatenate into a
        // sorted lane.
        let mut lane_ptr = Vec::with_capacity(k + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        lane_ptr.push(0usize);
        for l in 0..k {
            for piece_lanes in &per_piece {
                for &(i, ref v) in &piece_lanes[l] {
                    indices.push(i);
                    values.push(*v);
                }
            }
            lane_ptr.push(indices.len());
        }
        SparseVecBatch::from_parts(m, lane_ptr, indices, values)
            .expect("row-split output is consistent by construction")
    }

    fn last_run_info(&self) -> Option<BatchRunInfo> {
        self.merged.then_some(BatchRunInfo {
            kernel: BatchAlgorithmKind::CombBlasRowSplit,
            backend: SpaBackend::Dense,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_substrate::gen::{erdos_renyi, random_sparse_vec, rmat, RmatParams};
    use sparse_substrate::ops::spmspv_batch_reference;
    use sparse_substrate::{fixtures, MaskBits, PlusTimes, Select2ndMin, SparseVec};

    use crate::batch::{mask_filter_batch, NaiveBatch, SpMSpVBucketBatch};
    use crate::masked::{MaskMode, MaskView};

    fn random_batch(n: usize, k: usize, nnz: usize, seed: u64) -> SparseVecBatch<f64> {
        let lanes: Vec<SparseVec<f64>> =
            (0..k).map(|l| random_sparse_vec(n, nnz.min(n), seed + 31 * l as u64)).collect();
        SparseVecBatch::from_lanes(&lanes).unwrap()
    }

    #[test]
    fn matches_reference_across_k_and_threads() {
        let a = erdos_renyi(250, 6.0, 13);
        for k in [1usize, 3, 8] {
            for threads in [1usize, 2, 5] {
                let x = random_batch(250, k, 40, 7 + k as u64 + threads as u64);
                let expected = spmspv_batch_reference(&a, &x, &PlusTimes);
                let mut alg = CombBlasSpaBatch::new(&a, SpMSpVOptions::with_threads(threads));
                let y = alg.multiply_batch(&x, &PlusTimes);
                assert!(
                    y.approx_same_entries(&expected, 1e-9),
                    "mismatch at k={k}, threads={threads}"
                );
                assert_eq!(alg.pieces(), threads);
            }
        }
    }

    /// The run info is per call: `None` before the first run and after an
    /// all-empty batch, the row-split family after a run that merged.
    #[test]
    fn every_backend_produces_identical_output() {
        let a = erdos_renyi(220, 5.0, 8);
        let x = random_batch(220, 6, 35, 3);
        let mut alg = CombBlasSpaBatch::new(&a, SpMSpVOptions::with_threads(3));
        assert_eq!(alg.last_run_info(), None, "no run yet, nothing to report");
        let y = alg.multiply_batch(&x, &PlusTimes);
        assert_eq!(
            y,
            NaiveBatch::new(&a, SpMSpVOptions::with_threads(3)).multiply_batch(&x, &PlusTimes)
        );
        let info = alg.last_run_info().expect("merged above");
        assert_eq!(info.kernel, BatchAlgorithmKind::CombBlasRowSplit);
        assert_eq!(info.backend, SpaBackend::Dense);
        let _ = alg.multiply_batch(&SparseVecBatch::<f64>::new(220, 6), &PlusTimes);
        assert_eq!(alg.last_run_info(), None, "an empty batch merges nothing");
    }

    #[test]
    fn agrees_with_fused_bucket_batch_on_bfs_semiring() {
        let a = rmat(8, 8, RmatParams::graph500(), 4);
        let n = a.ncols();
        let lanes: Vec<SparseVec<usize>> = (0..4)
            .map(|l| SparseVec::from_pairs(n, vec![(l * 13 + 2, l * 13 + 2)]).unwrap())
            .collect();
        let x = SparseVecBatch::from_lanes(&lanes).unwrap();
        let mut rowsplit = CombBlasSpaBatch::new(&a, SpMSpVOptions::with_threads(3));
        let mut bucket = SpMSpVBucketBatch::new(&a, SpMSpVOptions::with_threads(4));
        let yr = rowsplit.multiply_batch(&x, &Select2ndMin);
        let yb = bucket.multiply_batch(&x, &Select2ndMin);
        assert_eq!(yr, yb, "row-split batch diverged from the fused bucket batch");
    }

    #[test]
    fn in_kernel_mask_matches_post_filter_oracle() {
        let a = erdos_renyi(180, 5.0, 3);
        let x = random_batch(180, 5, 30, 11);
        let shared = MaskBits::from_indices(180, (0..180).step_by(3));
        let per_lane: Vec<std::sync::Arc<MaskBits>> = (0..5)
            .map(|l| std::sync::Arc::new(MaskBits::from_indices(180, (l..180).step_by(4))))
            .collect();
        for mode in [MaskMode::Keep, MaskMode::Complement] {
            for view in [
                BatchMaskView::Shared(MaskView::new(&shared, mode)),
                BatchMaskView::PerLane { masks: &per_lane, mode },
            ] {
                let mut alg = CombBlasSpaBatch::new(&a, SpMSpVOptions::with_threads(4));
                let masked = alg.multiply_batch_masked(&x, &PlusTimes, Some(&view));
                let unmasked = alg.multiply_batch(&x, &PlusTimes);
                let oracle = mask_filter_batch(&unmasked, &view);
                assert_eq!(masked, oracle, "{mode:?} diverged from the post-filter oracle");
            }
        }
    }

    #[test]
    fn empty_batch_and_workspace_reuse_across_varying_k() {
        let a = fixtures::tridiagonal(60);
        let mut alg = CombBlasSpaBatch::new(&a, SpMSpVOptions::with_threads(3));
        let empty = alg.multiply_batch(&SparseVecBatch::<f64>::new(60, 4), &PlusTimes);
        assert_eq!(empty.k(), 4);
        assert!(empty.is_empty());
        for (call, k) in [1usize, 9, 2, 17].into_iter().enumerate() {
            let x = random_batch(60, k, 12, call as u64);
            let expected = spmspv_batch_reference(&a, &x, &PlusTimes);
            let y = alg.multiply_batch(&x, &PlusTimes);
            assert!(y.approx_same_entries(&expected, 1e-12), "call {call} (k={k}) diverged");
        }
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn dimension_mismatch_panics() {
        let a = fixtures::figure1_matrix();
        let x = SparseVecBatch::<f64>::new(9, 2);
        let mut alg = CombBlasSpaBatch::new(&a, SpMSpVOptions::default());
        let _ = alg.multiply_batch(&x, &PlusTimes);
    }
}
