//! The bucket kernels against the parallel runtime (`spmspv::Executor`), at
//! the two ends of its one parallelism rule, `Executor::capped_for`: calls
//! whose flops earn one participant, and calls whose flops earn every one of
//! up to eight participants a chunk (the property suites' operands are
//! small, so most of their calls earn one) — and in between, a batch whose
//! lanes earn one participant each but several together.

use std::collections::HashSet;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, ThreadId};
use std::time::Duration;

use sparse_substrate::gen::{erdos_renyi, random_sparse_vec, rmat, RmatParams};
use sparse_substrate::ops::required_multiplications;
use sparse_substrate::{MaskBits, PlusTimes, Semiring, SparseVec, SparseVecBatch};
use spmspv::{
    AlgorithmKind, BatchMaskView, Executor, LaneBatch, MaskMode, MaskView, SpMSpV, SpMSpVBucket,
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

/// `(+, ×)` over `f64` whose `multiply` waits until two threads have
/// multiplied, for at most a second in all. Two lanes that run side by side
/// meet at once; lanes that run one after another on one thread spend the
/// second waiting and then see one thread only.
#[derive(Default)]
struct Rendezvous {
    state: Mutex<(HashSet<ThreadId>, bool)>,
    met: Condvar,
}

impl Semiring<f64, f64> for Rendezvous {
    type Output = f64;

    fn zero(&self) -> f64 {
        0.0
    }

    fn multiply(&self, a: &f64, x: &f64) -> f64 {
        let mut state = self.state.lock().unwrap();
        if state.0.insert(thread::current().id()) {
            self.met.notify_all();
        }
        // The flag records that a wait timed out, so no later call waits.
        if state.0.len() < 2 && !state.1 {
            let (mut state, timeout) = self
                .met
                .wait_timeout_while(state, Duration::from_secs(1), |(seen, _)| seen.len() < 2)
                .unwrap();
            state.1 |= timeout.timed_out();
        }
        a * x
    }

    fn add(&self, lhs: f64, rhs: f64) -> f64 {
        lhs + rhs
    }
}

/// Every other row.
fn striped_mask(m: usize) -> MaskBits {
    MaskBits::from_indices(m, (0..m).step_by(2))
}

/// A call of under 16 000 flops earns one participant, and the cap covers
/// every step: with eight threads configured, nothing of the call may run
/// on a pool worker — bucketing (one chunk), and also merge and output,
/// whose four buckets would otherwise fan out over the whole pool. The same
/// holds for a batch whose lanes' flops add up to under 16 000.
#[test]
fn small_frontiers_never_leave_the_calling_thread() {
    // ~20 entries per column spread over all rows: every column reaches
    // every bucket, and 32 columns collide on most rows (so `add` runs). A
    // call of 32 columns is ~640 flops.
    let a = erdos_renyi(200, 20.0, 11);
    let m = a.nrows();
    let bits = striped_mask(m);
    let per_lane: Vec<Arc<MaskBits>> = (0..4).map(|_| Arc::new(striped_mask(m))).collect();
    let opts = SpMSpVOptions::with_threads(8);
    let recorder = ThreadRecorder::default();

    let mut single = SpMSpVBucket::new(&a, opts.clone());
    let mut batch = LaneBatch::new(&a, AlgorithmKind::Bucket, opts);
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

/// A batch whose lanes are each too small to fork alone, but whose summed
/// flops earn several participants, runs its lanes side by side: two lanes
/// of ~12.8k flops at eight threads earn three participants together and one
/// each, so the batch spreads instead of running them one after another on
/// the calling thread. Holds for the bucket batch and the adaptive batch.
#[test]
fn small_lanes_of_a_batch_run_side_by_side() {
    let a = erdos_renyi(2000, 8.0, 13);
    let lanes: Vec<SparseVec<f64>> =
        (0..2).map(|l| random_sparse_vec(a.ncols(), 1600, 70 + l)).collect();
    let executor = Executor::new(8);
    let flops: Vec<usize> = lanes.iter().map(|x| required_multiplications(&a, x)).collect();
    assert!(flops.iter().all(|&f| executor.capped_for(f).threads() == 1), "{flops:?}");
    assert_eq!(executor.capped_for(flops.iter().sum()).threads(), 3, "{flops:?}");
    let x = SparseVecBatch::from_lanes(&lanes).unwrap();

    let opts = SpMSpVOptions::with_threads(8);
    let expected =
        LaneBatch::new(&a, AlgorithmKind::Bucket, opts.clone()).multiply_batch(&x, &PlusTimes);
    for kind in [AlgorithmKind::Bucket, AlgorithmKind::Adaptive] {
        let mut batch = LaneBatch::new(&a, kind, opts.clone());
        let rendezvous = Rendezvous::default();
        assert_eq!(batch.multiply_batch(&x, &rendezvous), expected, "{kind}");
        let (seen, timed_out) = rendezvous.state.into_inner().unwrap();
        assert!(!timed_out && seen.len() == 2, "{kind}: the lanes ran one after another");
    }
}

/// Pool sizes {1, 2, 3, 8} on frontiers whose flops earn eight
/// participants, so the input really is split `t` ways and merged from `4t`
/// buckets — and a batch of `K < 8` such lanes runs them on its kernel of
/// eight, while at two and three participants it spreads them: the
/// result must be *equal* — not approximately — across sizes under `f64`
/// `(+, ×)`, whose sums depend on reduction order, for single, batched,
/// shared-mask and per-lane-mask calls. Guards the chunking against
/// scheduler changes.
#[test]
fn outputs_are_identical_across_pool_sizes() {
    const SIZES: [usize; 4] = [1, 2, 3, 8];
    const K: usize = 4;
    let a = rmat(12, 16, RmatParams::graph500(), 5);
    let (m, n) = (a.nrows(), a.ncols());
    let bits = striped_mask(m);
    let per_lane: Vec<Arc<MaskBits>> =
        (0..K).map(|l| Arc::new(MaskBits::from_indices(m, (l..m).step_by(3)))).collect();
    let view = MaskView::new(&bits, MaskMode::Complement);
    let shared = BatchMaskView::Shared(view);
    let lanewise = BatchMaskView::PerLane { masks: &per_lane, mode: MaskMode::Keep };

    let lane = |seed: u64| random_sparse_vec(n, 3000, seed);
    let x = lane(1);
    let xs = SparseVecBatch::from_lanes(&(0..K as u64).map(lane).collect::<Vec<_>>()).unwrap();
    for x in std::iter::once(&x).chain((0..K).map(|l| xs.lane(l))) {
        let flops = required_multiplications(&a, x);
        assert_eq!(Executor::new(8).capped_for(flops).threads(), 8, "{flops} flops");
    }

    let run = |threads: usize| {
        let opts = SpMSpVOptions::with_threads(threads);
        let mut single = SpMSpVBucket::new(&a, opts.clone());
        let mut batch = LaneBatch::new(&a, AlgorithmKind::Bucket, opts);
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
