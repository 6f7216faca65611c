//! `ESTIMATE-BUCKETS` (Algorithm 2) and the bucket geometry helpers.
//!
//! A preprocessing pass over the selected columns counts how many scaled
//! entries each thread will contribute to each bucket. That `t × nb` count
//! matrix gives (a) the storage layout of the buckets inside one contiguous
//! buffer (a prefix sum) and (b) an exclusive write window per
//! `(thread, bucket)` pair, cut off that buffer by
//! [`split_grouped`](crate::disjoint::split_grouped), which is what makes
//! the bucketing step of Algorithm 1 free of synchronization.

use sparse_substrate::{CscMatrix, Scalar};

use crate::executor::Executor;

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
pub fn bucket_row_ranges(m: usize, nb: usize) -> Vec<std::ops::Range<usize>> {
    (0..nb)
        .map(|b| {
            let lo = (b * m).div_ceil(nb);
            let hi = ((b + 1) * m).div_ceil(nb);
            lo..hi
        })
        .collect()
}

/// Output of [`estimate_buckets`]: everything Step 1 needs to write without
/// synchronization and Step 2 needs to find its bucket's entries.
#[derive(Debug, Clone)]
pub struct BucketPlan {
    /// `boffset[k][b]`: number of entries thread `k` will insert into bucket
    /// `b` (Algorithm 2's output) — the size of its write window there.
    pub boffset: Vec<Vec<usize>>,
    /// `bucket_starts[b]`: position of bucket `b`'s first entry in the shared
    /// bucket buffer; `bucket_starts[nb]` is the total entry count.
    pub bucket_starts: Vec<usize>,
}

impl BucketPlan {
    /// Total number of scaled entries that will be produced
    /// (= `Σ_{j: x(j)≠0} nnz(A(:,j))`, the paper's `d·f`).
    pub fn total_entries(&self) -> usize {
        *self.bucket_starts.last().expect("bucket_starts is never empty")
    }
}

/// Algorithm 2: counts per-(thread, bucket) contributions in parallel, then
/// derives the bucket layout with a prefix sum (`O(t·nb)` work on the
/// calling thread, matching the paper's "on the master thread" note for
/// Step 3's prefix sum).
///
/// Participant `k` counts the selected columns `cols[chunks[k]]`; each
/// stored row of column `cols[c]` adds `weight(c)` entries to its bucket.
/// The single-vector kernel passes `x`'s indices with weight 1; the fused
/// batch kernel passes the union of active columns, each weighted by its
/// number of active lanes.
pub fn estimate_buckets<A: Scalar>(
    executor: &Executor,
    matrix: &CscMatrix<A>,
    cols: &[usize],
    weight: impl Fn(usize) -> usize + Sync,
    chunks: &[std::ops::Range<usize>],
    nb: usize,
) -> BucketPlan {
    let m = matrix.nrows();
    let boffset: Vec<Vec<usize>> = executor.map(chunks, |chunk| {
        let mut counts = vec![0usize; nb];
        for c in chunk.clone() {
            let w = weight(c);
            let (rows, _) = matrix.column(cols[c]);
            for &i in rows {
                counts[bucket_of(i, m, nb)] += w;
            }
        }
        counts
    });

    let mut bucket_starts = vec![0usize; nb + 1];
    for b in 0..nb {
        let size: usize = boffset.iter().map(|counts| counts[b]).sum();
        bucket_starts[b + 1] = bucket_starts[b] + size;
    }
    BucketPlan { boffset, bucket_starts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disjoint::split_grouped;
    use crate::executor::even_ranges;
    use sparse_substrate::fixtures::{figure1_matrix, figure1_vector};
    use sparse_substrate::gen::{erdos_renyi, random_sparse_vec};
    use sparse_substrate::ops::required_multiplications;
    use sparse_substrate::SparseVecBatch;

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
        // Figure 1 uses 4 buckets over 8 rows: rows 0-1, 2-3, 4-5, 6-7.
        let a = figure1_matrix();
        let x = figure1_vector();
        let chunks = even_ranges(x.nnz(), 1);
        let plan = estimate_buckets(&Executor::new(1), &a, x.indices(), |_| 1, &chunks, 4);
        assert_eq!(plan.total_entries(), 7);
        // Buckets receive: rows {0,0}=2, {2,3}=2, {4,4}=2, {6}=1
        assert_eq!(plan.bucket_starts, [0, 2, 4, 6, 7]);
    }

    #[test]
    fn totals_equal_required_multiplications() {
        let a = erdos_renyi(300, 5.0, 2);
        let x = random_sparse_vec(300, 60, 3);
        let lanes: Vec<_> = (0..4).map(|l| random_sparse_vec(300, 40, 10 + l)).collect();
        let fused = SparseVecBatch::from_lanes(&lanes).unwrap().fuse_columns();
        let batch_flops: usize = lanes.iter().map(|x| required_multiplications(&a, x)).sum();
        for threads in [1usize, 2, 5] {
            let executor = Executor::new(threads);
            let chunks = even_ranges(x.nnz(), threads);
            let plan = estimate_buckets(&executor, &a, x.indices(), |_| 1, &chunks, 4 * threads);
            assert_eq!(plan.total_entries(), required_multiplications(&a, &x));
            // Weighted by active lanes, a batch's plan holds every lane's
            // products.
            let chunks = even_ranges(fused.num_cols(), threads);
            let weight = |c| fused.activations(c).0.len();
            let plan = estimate_buckets(&executor, &a, fused.cols(), weight, &chunks, 4 * threads);
            assert_eq!(plan.total_entries(), batch_flops);
        }
    }

    #[test]
    fn write_windows_are_disjoint_and_cover_buckets() {
        let a = erdos_renyi(200, 4.0, 5);
        let x = random_sparse_vec(200, 50, 7);
        let t = 3;
        let nb = 12;
        let chunks = even_ranges(x.nnz(), t);
        let plan = estimate_buckets(&Executor::new(t), &a, x.indices(), |_| 1, &chunks, nb);
        // Each slot holds its own position, so a window shows where it sits.
        let mut buf: Vec<usize> = (0..plan.total_entries()).collect();
        let windows = split_grouped(&mut buf, &plan.boffset);
        for (k, group) in windows.iter().enumerate() {
            assert_eq!(group.iter().map(|w| w.len()).collect::<Vec<_>>(), plan.boffset[k]);
        }
        for b in 0..nb {
            // Bucket b is thread 0's window, then thread 1's, …, exactly.
            let in_bucket: Vec<usize> = windows.iter().flat_map(|g| g[b].to_vec()).collect();
            assert_eq!(
                in_bucket,
                (plan.bucket_starts[b]..plan.bucket_starts[b + 1]).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn empty_vector_plan() {
        let a = figure1_matrix();
        let chunks = even_ranges(0, 1);
        let plan = estimate_buckets(&Executor::new(1), &a, &[], |_| 1, &chunks, 4);
        assert_eq!(plan.total_entries(), 0);
        assert_eq!(plan.bucket_starts, [0; 5]);
    }
}
