//! The bucket kernels against the parallel runtime (`spmspv::Executor`), at
//! the two ends the property suites do not reach: frontiers too small to be
//! worth a second participant, and frontiers large enough that every one of
//! up to eight participants gets a chunk (the property suites' lanes hold at
//! most 40 nonzeros, so they never split an input more than two ways).

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};

use sparse_substrate::gen::{erdos_renyi, random_sparse_vec, rmat, RmatParams};
use sparse_substrate::{MaskBits, PlusTimes, Semiring, SparseVec, SparseVecBatch};
use spmspv::{
    BatchMaskView, MaskMode, MaskView, SpMSpV, SpMSpVBatch, SpMSpVBucket, SpMSpVBucketBatch,
    SpMSpVOptions,
};

/// `(+, ×)` over `f64` that notes which thread ran each `multiply` (the
/// bucketing step) and each `add` (the merge step).
#[derive(Default)]
struct ThreadRecorder {
    seen: Mutex<HashSet<ThreadId>>,
}

impl ThreadRecorder {
    fn note(&self) {
        self.seen.lock().unwrap().insert(thread::current().id());
    }
}

impl Semiring<f64, f64> for ThreadRecorder {
    type Output = f64;

    fn zero(&self) -> f64 {
        0.0
    }

    fn multiply(&self, a: &f64, x: &f64) -> f64 {
        self.note();
        a * x
    }

    fn add(&self, lhs: f64, rhs: f64) -> f64 {
        self.note();
        lhs + rhs
    }
}

/// Every other row.
fn striped_mask(m: usize) -> MaskBits {
    MaskBits::from_indices(m, (0..m).step_by(2))
}

/// A frontier of at most 32 nonzeros is capped to one participant, and the
/// cap covers all four steps: with eight threads configured, nothing of the
/// call may run on a pool worker — estimate and bucketing (one chunk) as
/// before, and also merge and output, whose four buckets used to fan out
/// over the whole pool.
#[test]
fn small_frontiers_never_leave_the_calling_thread() {
    // ~20 entries per column spread over all rows: every column reaches
    // every bucket, and 32 columns collide on most rows (so `add` runs).
    let a = erdos_renyi(200, 20.0, 11);
    let m = a.nrows();
    let bits = striped_mask(m);
    let per_lane: Vec<Arc<MaskBits>> = (0..4).map(|_| Arc::new(striped_mask(m))).collect();
    let opts = SpMSpVOptions::with_threads(8);
    let recorder = ThreadRecorder::default();

    let mut single = SpMSpVBucket::new(&a, opts.clone());
    let mut batch = SpMSpVBucketBatch::new(&a, opts);
    // Repeated, because a worker taking a bucket is a race, not a certainty.
    for round in 0..50u64 {
        let x = random_sparse_vec(a.ncols(), 32, round);
        let view = MaskView::new(&bits, MaskMode::Complement);
        assert!(!single.multiply(&x, &recorder).is_empty());
        assert!(!single.multiply_masked(&x, &recorder, Some(view)).is_empty());

        // Four lanes of eight: 32 activations in total.
        let lanes: Vec<SparseVec<f64>> =
            (0..4).map(|l| random_sparse_vec(a.ncols(), 8, 4 * round + l)).collect();
        let xs = SparseVecBatch::from_lanes(&lanes).unwrap();
        let shared = BatchMaskView::Shared(view);
        let lanewise = BatchMaskView::PerLane { masks: &per_lane, mode: MaskMode::Keep };
        assert!(!batch.multiply_batch(&xs, &recorder).is_empty());
        assert!(!batch.multiply_batch_masked(&xs, &recorder, Some(&shared)).is_empty());
        assert!(!batch.multiply_batch_masked(&xs, &recorder, Some(&lanewise)).is_empty());
    }

    let seen = recorder.seen.into_inner().unwrap();
    assert_eq!(seen, HashSet::from([thread::current().id()]), "a pool worker took part");
}

/// Pool sizes {1, 2, 3, 8} on frontiers of at least `32 · 8` nonzeros, so
/// the input really is split `t` ways and merged from `4t` buckets: the
/// result must be *equal* — not approximately — across sizes under `f64`
/// `(+, ×)`, whose sums depend on reduction order, for single, batched,
/// shared-mask and per-lane-mask calls. Guards the chunking against
/// scheduler changes.
#[test]
fn outputs_are_identical_across_pool_sizes() {
    const SIZES: [usize; 4] = [1, 2, 3, 8];
    const K: usize = 4;
    let a = rmat(10, 8, RmatParams::graph500(), 5);
    let (m, n) = (a.nrows(), a.ncols());
    let bits = striped_mask(m);
    let per_lane: Vec<Arc<MaskBits>> =
        (0..K).map(|l| Arc::new(MaskBits::from_indices(m, (l..m).step_by(3)))).collect();
    let view = MaskView::new(&bits, MaskMode::Complement);
    let shared = BatchMaskView::Shared(view);
    let lanewise = BatchMaskView::PerLane { masks: &per_lane, mode: MaskMode::Keep };

    let lane = |seed: u64| random_sparse_vec(n, 32 * 8 + 44, seed);
    let x = lane(1);
    let xs = SparseVecBatch::from_lanes(&(0..K as u64).map(lane).collect::<Vec<_>>()).unwrap();

    let run = |threads: usize| {
        let opts = SpMSpVOptions::with_threads(threads);
        let mut single = SpMSpVBucket::new(&a, opts.clone());
        let mut batch = SpMSpVBucketBatch::new(&a, opts);
        (
            single.multiply(&x, &PlusTimes),
            single.multiply_masked(&x, &PlusTimes, Some(view)),
            batch.multiply_batch(&xs, &PlusTimes),
            batch.multiply_batch_masked(&xs, &PlusTimes, Some(&shared)),
            batch.multiply_batch_masked(&xs, &PlusTimes, Some(&lanewise)),
        )
    };
    let reference = run(1);
    assert!(reference.0.nnz() > 500);
    assert!(reference.1.nnz() < reference.0.nnz(), "the mask removes rows");
    assert!(reference.4.total_nnz() < reference.2.total_nnz());
    for threads in &SIZES[1..] {
        assert_eq!(run(*threads), reference, "threads={threads}");
    }
}
