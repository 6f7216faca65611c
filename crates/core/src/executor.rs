//! The parallel runtime: one fork-join primitive over one process-wide pool.
//!
//! The paper's kernel needs exactly one parallel construct, an OpenMP-style
//! `parallel for`: over `t` chunks of the input in the estimate and bucketing
//! steps, and over `nb = 4t` buckets that threads claim *dynamically* in the
//! merge and output steps (§III-A, "Load balancing" — more buckets than
//! threads only balances load if a thread that finishes a light bucket can
//! take the next one). [`Executor::map`] is that construct.
//!
//! The model:
//!
//! * An [`Executor`] is a **participant count** `t` (the paper pins the
//!   OpenMP thread count per run; so do [`SpMSpVOptions`](crate::SpMSpVOptions)
//!   and the strong-scaling sweeps). It owns no threads.
//! * The **participants** of one `map` call are the calling thread plus up
//!   to `t − 1` workers of a single pool, started on the first parallel call
//!   with one worker per logical CPU and kept for the life of the process.
//!   Workers park on a condvar between calls.
//! * Every participant repeatedly **claims the next unstarted item** with
//!   one atomic increment and runs the closure on it, until no item is left.
//!   Results come back in item order whichever participant produced them.
//! * The caller never waits for a worker that has not joined: when it runs
//!   out of items it withdraws the call's invitation and waits only for the
//!   workers already inside, each of which is finishing an item. A call
//!   therefore completes even when every worker is busy elsewhere, which is
//!   what keeps nested calls and concurrent submitters (the shard router's
//!   per-shard engines) free of deadlock.
//! * A panic in the closure, on any participant, is re-raised on the caller
//!   after every participant has left.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, LockResult, Mutex, Once, PoisonError};

/// Exact flops (scalar multiplications, `Σ nnz(A(:, j))` over the frontier)
/// that earn one participant (see [`Executor::capped_for`]), so a call forks
/// at 16 000 flops.
///
/// Measured on a 2-vCPU guest with the cap lifted, so that every call could
/// be timed at two participants: masked `Select2ndMin` BFS levels over
/// seed-7 `rmat(17, 16)` (64 sources, 401 levels) and
/// `triangular_mesh(500, 500)` (8 sources, 4 860 levels), median per-level
/// kernel time of the sequential SPA and the bucket kernel's ratio to it at
/// one and two participants:
///
/// | flops    | rmat seq | t = 1 | t = 2 | mesh seq | t = 1 | t = 2 |
/// |----------|---------:|------:|------:|---------:|------:|------:|
/// | < 1k     |   0.3 µs |  5.26 | 24.86 |   2.3 µs |  2.31 |  9.08 |
/// | 1k–2k    |    14 µs |  2.14 |  3.00 |   7.9 µs |  1.66 |  3.29 |
/// | 2k–4k    |    29 µs |  1.82 |  2.22 |    17 µs |  1.47 |  2.70 |
/// | 4k–8k    |    51 µs |  1.33 |  2.03 |    35 µs |  1.32 |  1.85 |
/// | 8k–12k   |   125 µs |  1.31 |  1.39 |    68 µs |  1.24 |  1.48 |
/// | 12k–16k  |   162 µs |  1.35 |  0.88 |        — |       |       |
/// | 16k–24k  |   356 µs |  1.00 |  0.77 |        — |       |       |
/// | 32k–64k  |   533 µs |  1.17 |  0.76 |        — |       |       |
/// | 64k–256k |  1.4 ms  |  1.15 |  0.76 |        — |       |       |
/// | ≥ 256k   |   11 ms  |  1.04 |  0.70 |        — |       |       |
///
/// Two participants lose below ~12k flops on both graphs and win above, and
/// at one participant the sequential SPA beats the bucket kernel in every
/// band, on the mesh's 250 000 rows too. Per traversal, forking every call
/// costs 23.8 ms of kernel time on the mesh and forking from 16k costs
/// 9.4 ms (no mesh level reaches it); on rmat any fork point from 4k to 32k
/// gives 18.2 ms, against 24.9 ms never forking.
///
/// Only the step from one participant to two was measured: a 2-vCPU guest
/// cannot time more. That a third participant pays from 24k flops and an
/// eighth from 64k is the same constant extrapolated linearly, unmeasured.
const MIN_FLOPS_PER_PARTICIPANT: usize = 8_000;

/// A participant count plus the fork-join primitive that honours it. See the
/// [module docs](self) for the execution model.
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// Creates an executor of `threads` participants (`0` means "all logical
    /// CPUs").
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 { num_cpus() } else { threads };
        crate::obs::executor_gauges().0.record_max(threads as u64);
        Executor { threads }
    }

    /// Number of participants (`t` in the paper's notation).
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The executor a multiplication of `flops` exact scalar
    /// multiplications should run on: one participant per
    /// `MIN_FLOPS_PER_PARTICIPANT` flops, at least one and at most
    /// [`threads`](Self::threads). This is the workspace's one parallelism
    /// rule: the bucket kernel runs all three steps on it, the lane runner
    /// spreads a batch by it, and adaptive dispatch runs the sequential SPA
    /// whenever it yields one participant.
    ///
    /// The paper assumes at most `f` threads take part (§III-B). We
    /// additionally ask for a minimum amount of work per participant: BFS on
    /// a high-diameter graph issues thousands of multiplications of a few
    /// thousand flops each, and fanning those out costs more in hand-off
    /// than the multiplication itself — the observation §IV-D makes ("our
    /// work-efficient algorithm might not scale well when the vector is
    /// very sparse ... due to the scarcity of work for all threads").
    pub fn capped_for(&self, flops: usize) -> Executor {
        Executor { threads: self.threads.min(flops / MIN_FLOPS_PER_PARTICIPANT).max(1) }
    }

    /// Runs `f` on every item, in parallel across this executor's
    /// participants, and returns the results in item order.
    pub fn map<I, R, F>(&self, items: I, f: F) -> Vec<R>
    where
        I: IntoIterator,
        I::Item: Send,
        R: Send,
        F: Fn(I::Item) -> R + Sync,
    {
        let _inflight = InflightGuard::enter();
        let items = items.into_iter();
        if self.threads == 1 {
            return items.map(f).collect();
        }
        // A slot hands its item to whichever participant claims its index
        // and takes back the result; the lock is never contended (an index
        // is claimed once). Results need no sort, and the call's
        // allocations (the slots, the results) do not depend on which
        // participant ran which item.
        let slots: Vec<_> = items.map(|item| Mutex::new((Some(item), None::<R>))).collect();
        let next = AtomicUsize::new(0);
        let participate = || loop {
            // Relaxed: the counter only hands out indices; the item and its
            // result are published by the slot's mutex.
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else { break };
            let item = recover(slot.lock()).0.take().expect("an index is claimed once");
            let result = f(item);
            recover(slot.lock()).1 = Some(result);
        };
        match self.threads.min(slots.len()).saturating_sub(1) {
            0 => participate(),
            helpers => fork_join(&participate, helpers),
        }
        slots
            .into_iter()
            .map(|slot| recover(slot.into_inner()).1.expect("every item ran"))
            .collect()
    }

    /// Runs `f` on every item, in parallel across this executor's
    /// participants.
    pub fn for_each<I, F>(&self, items: I, f: F)
    where
        I: IntoIterator,
        I::Item: Send,
        F: Fn(I::Item) + Sync,
    {
        self.map(items, f);
    }
}

/// Keeps the `executor.inflight` gauge equal to the number of parallel steps
/// currently running — decrements on drop, so an unwinding kernel cannot
/// leave the gauge stuck high.
struct InflightGuard;

impl InflightGuard {
    fn enter() -> Self {
        crate::obs::executor_gauges().1.add(1);
        InflightGuard
    }
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        crate::obs::executor_gauges().1.sub(1);
    }
}

/// Takes the guard out of a lock or wait result, poisoned or not. No caller
/// code ever runs under the runtime's locks (closures run between them), and
/// every update under them is a single push, pop or counter step, so the
/// data is valid even if a lock were poisoned — and [`fork_join`] must not
/// unwind between posting a call and seeing its last participant leave.
fn recover<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

type Panic = Box<dyn Any + Send>;

/// One `map` call as the pool sees it.
struct Call {
    /// The participant loop, borrowed from the caller's frame with its
    /// lifetime erased (see [`fork_join`]).
    participate: &'static (dyn Fn() + Sync),
    /// Workers currently inside `participate`, and the first panic one of
    /// them raised.
    inside: Mutex<(usize, Option<Panic>)>,
    all_left: Condvar,
}

struct Pool {
    /// Calls still inviting workers, each with the number it still wants.
    inviting: Mutex<VecDeque<(Arc<Call>, usize)>>,
    posted: Condvar,
}

/// The process-wide pool. Its workers are detached on purpose: they serve
/// until the process exits and hold no state a join could flush (a panicking
/// closure is caught and handed to its caller).
static POOL: Pool = Pool { inviting: Mutex::new(VecDeque::new()), posted: Condvar::new() };

/// Starts the pool's workers, one per logical CPU, on the first call.
fn start_workers() {
    static STARTED: Once = Once::new();
    STARTED.call_once(|| {
        for i in 0..num_cpus() {
            std::thread::Builder::new()
                .name(format!("spmspv-{i}"))
                .spawn(worker)
                .expect("failed to spawn pool worker");
        }
    });
}

fn worker() {
    let mut inviting = recover(POOL.inviting.lock());
    loop {
        let Some((call, wanted)) = inviting.front_mut() else {
            inviting = recover(POOL.posted.wait(inviting));
            continue;
        };
        // Join while still holding the pool lock: the caller withdraws its
        // invitation under the same lock, so it sees every worker that got in.
        let call = Arc::clone(call);
        recover(call.inside.lock()).0 += 1;
        *wanted -= 1;
        if *wanted == 0 {
            inviting.pop_front();
        }
        drop(inviting);

        let panic = catch_unwind(AssertUnwindSafe(call.participate)).err();
        let mut inside = recover(call.inside.lock());
        inside.0 -= 1;
        if inside.1.is_none() {
            inside.1 = panic;
        }
        if inside.0 == 0 {
            call.all_left.notify_one();
        }
        drop(inside);
        inviting = recover(POOL.inviting.lock());
    }
}

/// Runs `participate` on the calling thread and on up to `helpers` pool
/// workers at once; returns when all of them have left it, re-raising the
/// first panic any of them hit.
fn fork_join(participate: &(dyn Fn() + Sync), helpers: usize) {
    start_workers();
    // SAFETY: only the lifetime changes. A worker obtains this reference
    // solely by joining the call while it sits in `POOL.inviting`, and
    // joining registers the worker in `inside` under the pool lock. Below,
    // the call is taken out of `inviting` under that lock (so no later
    // worker can join) and this function then blocks until `inside` is back
    // to zero, i.e. until every worker that holds the reference has returned
    // from it. Nothing in between can unwind: the caller's own turn runs
    // under `catch_unwind`, and the locks are taken through `recover`. So
    // the borrow is never used after this function gives it back.
    #[allow(unsafe_code)]
    let erased = unsafe {
        std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(participate)
    };
    let call = Arc::new(Call {
        participate: erased,
        inside: Mutex::new((0, None)),
        all_left: Condvar::new(),
    });
    recover(POOL.inviting.lock()).push_back((Arc::clone(&call), helpers));
    for _ in 0..helpers {
        POOL.posted.notify_one();
    }

    let own_panic = catch_unwind(AssertUnwindSafe(participate)).err();

    recover(POOL.inviting.lock()).retain(|(other, _)| !Arc::ptr_eq(other, &call));
    let mut inside = recover(call.inside.lock());
    while inside.0 > 0 {
        inside = recover(call.all_left.wait(inside));
    }
    if let Some(panic) = own_panic.or(inside.1.take()) {
        drop(inside);
        resume_unwind(panic);
    }
}

/// Number of logical CPUs visible to the process.
pub fn num_cpus() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Splits `0..len` into `pieces` contiguous ranges of near-equal size.
/// Piece `p` is `[bounds(p), bounds(p+1))`. Used to chunk the nonzeros of
/// `x` across threads and the rows of the matrix across buckets.
pub fn even_ranges(len: usize, pieces: usize) -> Vec<std::ops::Range<usize>> {
    assert!(pieces > 0);
    (0..pieces).map(|p| (p * len / pieces)..((p + 1) * len / pieces)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Barrier;
    use std::thread::{self, ThreadId};

    /// The pool sizes ROADMAP 8(a) names: sequential, the host's own, an odd
    /// one, and one past any CI host's CPU count.
    const SIZES: [usize; 4] = [1, 2, 3, 8];

    #[test]
    fn executor_reports_thread_count() {
        let ex = Executor::new(3);
        assert_eq!(ex.threads(), 3);
        let ex0 = Executor::new(0);
        assert!(ex0.threads() >= 1);
    }

    #[test]
    fn even_ranges_cover_everything_without_overlap() {
        for len in [0usize, 1, 7, 100, 101] {
            for pieces in [1usize, 2, 3, 8] {
                let ranges = even_ranges(len, pieces);
                assert_eq!(ranges.len(), pieces);
                let total: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(total, len);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges[pieces - 1].end, len);
            }
        }
    }

    #[test]
    fn map_returns_results_in_item_order() {
        for threads in SIZES {
            let ex = Executor::new(threads);
            for n in [0usize, 1, 2, 7, 1000] {
                let doubled = ex.map(0..n, |i| i * 2);
                assert_eq!(doubled, (0..n).map(|i| i * 2).collect::<Vec<_>>(), "t={threads} n={n}");
            }
        }
    }

    #[test]
    fn items_may_be_disjoint_mutable_borrows() {
        for threads in SIZES {
            let ex = Executor::new(threads);
            let mut v = vec![0usize; 64];
            ex.for_each(v.iter_mut().enumerate(), |(i, slot)| *slot = i);
            assert_eq!(v, (0..64).collect::<Vec<_>>());

            // The kernels' shape: pre-split windows zipped with shared data.
            let offsets: Vec<usize> = (0..8).map(|w| w * 8).collect();
            let sums = ex.map(v.chunks_mut(8).zip(&offsets), |(window, &base)| {
                window.iter_mut().for_each(|x| *x -= base);
                window.iter().sum::<usize>()
            });
            assert_eq!(sums, vec![28; 8]);
        }
    }

    /// Distinct threads that ran an item of `ex.map` over `n` items.
    fn threads_used(ex: &Executor, n: usize) -> HashSet<ThreadId> {
        ex.map(0..n, |_| thread::current().id()).into_iter().collect()
    }

    #[test]
    fn one_participant_means_the_calling_thread() {
        let used = threads_used(&Executor::new(1), 100);
        assert_eq!(used, HashSet::from([thread::current().id()]));
    }

    #[test]
    fn a_second_participant_really_runs_concurrently() {
        // Both items block until two threads are inside the closure at once,
        // so this returns only if a pool worker joins the caller.
        let barrier = Barrier::new(2);
        let ids = Executor::new(2).map(0..2, |_| {
            barrier.wait();
            thread::current().id()
        });
        assert_ne!(ids[0], ids[1]);
        assert!(ids.contains(&thread::current().id()), "the caller takes part");
    }

    #[test]
    fn never_more_participants_than_asked_for() {
        for threads in SIZES {
            let used = threads_used(&Executor::new(threads), 500);
            assert!(used.len() <= threads, "{} threads ran a t={threads} call", used.len());
        }
    }

    #[test]
    fn asking_for_more_participants_than_the_pool_has_workers() {
        let ex = Executor::new(num_cpus() + 62);
        let squares = ex.map(0..2000usize, |i| i * i);
        assert_eq!(squares, (0..2000).map(|i| i * i).collect::<Vec<_>>());
        assert!(threads_used(&ex, 2000).len() <= num_cpus() + 1);
    }

    #[test]
    fn capped_for_scales_participants_with_the_input() {
        let ex = Executor::new(8);
        for (flops, expect) in [
            (0, 1),
            (1, 1),
            (15_999, 1),
            (16_000, 2),
            (23_999, 2),
            (24_000, 3),
            (63_999, 7),
            (64_000, 8),
            (usize::MAX, 8),
        ] {
            assert_eq!(ex.capped_for(flops).threads(), expect, "flops = {flops}");
        }
        assert_eq!(Executor::new(2).capped_for(1_000_000).threads(), 2);
        assert_eq!(Executor::new(1).capped_for(usize::MAX).threads(), 1);
    }

    #[test]
    fn nested_and_concurrent_submitters_all_finish() {
        // More submitters than workers, each nesting a call inside every
        // item: completes only because no call waits on an unjoined worker.
        let ex = Executor::new(3);
        let expect: usize = (0..8).map(|i| (0..8).map(|j| i * j).sum::<usize>()).sum();
        thread::scope(|s| {
            for _ in 0..2 * num_cpus() + 2 {
                s.spawn(|| {
                    for _ in 0..20 {
                        let rows = ex.map(0..8usize, |i| ex.map(0..8usize, |j| i * j));
                        assert_eq!(rows.iter().flatten().sum::<usize>(), expect);
                    }
                });
            }
        });
    }

    fn panic_message(result: thread::Result<()>) -> String {
        let payload = result.expect_err("the call should have panicked");
        payload.downcast_ref::<&str>().map(|s| s.to_string()).expect("a &str payload")
    }

    #[test]
    fn a_panic_reaches_the_caller_and_the_pool_keeps_serving() {
        let ex = Executor::new(2);
        // On whichever participant claims item 7 …
        let anywhere = catch_unwind(|| ex.for_each(0..16, |i| assert!(i != 7, "item seven")));
        assert_eq!(panic_message(anywhere), "item seven");
        // … and on a pool worker for certain: the barrier puts the two items
        // on two threads, and only the one that is not the caller panics.
        let caller = thread::current().id();
        let barrier = Barrier::new(2);
        let on_worker = catch_unwind(AssertUnwindSafe(|| {
            ex.for_each(0..2, |_| {
                barrier.wait();
                assert!(thread::current().id() == caller, "worker side");
            })
        }));
        assert_eq!(panic_message(on_worker), "worker side");
        // The pool lost no worker to either panic.
        let barrier = Barrier::new(2);
        ex.for_each(0..2, |_| {
            barrier.wait();
        });
        assert_eq!(ex.map(0..100, |i| i + 1), (1..=100).collect::<Vec<_>>());
    }
}
