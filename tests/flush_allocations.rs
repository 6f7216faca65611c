//! Allocation counts on the batch path: a warm [`Engine::flush`] (and a warm
//! batched call) allocates what its lanes' single-vector kernels allocate
//! plus a per-call constant — nothing more per lane, so no lane is copied on
//! the way in or out.
//!
//! The counting allocator counts per thread, and every kernel here runs with
//! one thread, so all the work of a call happens on the test's own thread
//! and no pool worker allocates on its behalf.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sparse_substrate::gen::{erdos_renyi, random_sparse_vec};
use sparse_substrate::{CscMatrix, MaskBits, PlusTimes, SparseVec, SparseVecBatch};
use spmspv::baselines::SequentialSpa;
use spmspv::{
    AdaptiveSpMSpV, AlgorithmKind, Engine, EngineConfig, LaneBatch, MaskMode, MaskView, MxvRequest,
    SpMSpV, SpMSpVOptions,
};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the allocations (fresh and resized) each
/// thread asks for.
struct Counting;

fn count() {
    // `try_with`: a thread being torn down has no counter left to bump.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

fn one_thread() -> SpMSpVOptions {
    SpMSpVOptions::with_threads(1)
}

fn frontiers(n: usize, k: usize) -> Vec<SparseVec<f64>> {
    (0..k).map(|l| random_sparse_vec(n, 24, 100 + l as u64)).collect()
}

/// A warm sequential SPA call allocates exactly its output's two arrays
/// (indices and values), masked or not. The sequential SPA runs every call
/// too small to earn a second participant, which on a high-diameter BFS is
/// nearly every call.
#[test]
fn warm_sequential_spa_call_allocates_only_its_output() {
    let a = erdos_renyi(4000, 8.0, 7);
    let x = random_sparse_vec(a.ncols(), 300, 5);
    let bits = MaskBits::from_indices(a.nrows(), (0..a.nrows()).step_by(2));
    let mask = Some(MaskView::new(&bits, MaskMode::Complement));
    let mut spa = SequentialSpa::new(&a, one_thread());
    for mask in [None, mask] {
        let mut call =
            || SpMSpV::<f64, f64, PlusTimes>::multiply_masked(&mut spa, &x, &PlusTimes, mask);
        let cold = call();
        let (warm, allocated) = allocations(&mut call);
        assert_eq!(warm, cold);
        assert!(warm.nnz() > 100, "{} output entries", warm.nnz());
        assert_eq!(allocated, 2, "a warm call made {allocated} allocations ({mask:?})");
    }
}

/// The same lanes run one after another through a warm one-thread lane
/// kernel — the engine's default family's — and the allocations that took.
fn direct(
    kernel: &mut AdaptiveSpMSpV<'_, f64, f64, PlusTimes>,
    lanes: &[SparseVec<f64>],
) -> (Vec<SparseVec<f64>>, u64) {
    allocations(|| lanes.iter().map(|x| kernel.multiply(x, &PlusTimes)).collect())
}

/// Allocations a warm flush of `k` non-empty requests makes beyond running
/// the same lanes directly through the engine's one-thread lane kernel.
fn flush_overhead(a: &CscMatrix<f64>, k: usize) -> u64 {
    let engine = Engine::over_with(a, PlusTimes, EngineConfig::default().options(one_thread()));
    let mut kernel = AdaptiveSpMSpV::new(a, one_thread());
    let lanes = frontiers(a.ncols(), k);
    assert!(lanes.iter().all(|x| !x.is_empty()));
    let mut overhead = None;
    // The first round builds the kernels and sizes their workspaces; the
    // second is counted.
    for _ in 0..2 {
        let tickets: Vec<_> =
            lanes.iter().map(|x| engine.submit(MxvRequest::new(x.clone()))).collect();
        let (outcome, flushed) = allocations(|| engine.flush());
        assert_eq!((outcome.batches, outcome.lanes), (1, k));
        let (expected, ran) = direct(&mut kernel, &lanes);
        for (ticket, y) in tickets.iter().zip(&expected) {
            assert_eq!(&ticket.try_take().expect("served").expect("served"), y);
        }
        overhead = Some(flushed.checked_sub(ran).expect("a flush runs its lanes' kernels"));
    }
    overhead.expect("two rounds ran")
}

#[test]
fn warm_flush_allocates_no_more_per_lane_than_its_lane_kernels() {
    let a = erdos_renyi(4000, 8.0, 7);
    let (narrow, wide) = (flush_overhead(&a, 8), flush_overhead(&a, 32));
    // Every buffer of the flush's own is sized once from the drained count,
    // so its overhead does not grow with k at all — not per lane (a lane
    // copy would cost two allocations each) and not per doubling.
    assert_eq!(
        narrow, wide,
        "flush overhead went from {narrow} allocations at k = 8 to {wide} at k = 32"
    );
}

/// Allocations a warm batched call of `k` lanes makes beyond running them
/// directly through its one-thread lane kernel.
fn batch_overhead(a: &CscMatrix<f64>, k: usize) -> u64 {
    let mut batch: LaneBatch<'_, f64, f64, PlusTimes> =
        LaneBatch::new(a, AlgorithmKind::Adaptive, one_thread());
    let mut kernel = AdaptiveSpMSpV::new(a, one_thread());
    let lanes = frontiers(a.ncols(), k);
    let x = SparseVecBatch::from_lanes(&lanes).expect("lanes share n");
    let mut overhead = None;
    for _ in 0..2 {
        let (y, batched) = allocations(|| batch.multiply_batch(&x, &PlusTimes));
        let (expected, ran) = direct(&mut kernel, &lanes);
        assert_eq!(y.into_lanes(), expected);
        overhead = Some(batched.checked_sub(ran).expect("a batched call runs its lanes' kernels"));
    }
    overhead.expect("two rounds ran")
}

#[test]
fn warm_batch_call_allocates_no_more_per_lane_than_its_lane_kernels() {
    let a = erdos_renyi(4000, 8.0, 7);
    let (narrow, wide) = (batch_overhead(&a, 8), batch_overhead(&a, 32));
    assert!(
        wide < narrow + (32 - 8),
        "batch overhead grew from {narrow} allocations at k = 8 to {wide} at k = 32"
    );
}
