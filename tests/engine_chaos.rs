//! Chaos suite for the serving engine, driven by the `spmspv::failpoint`
//! harness (run with `--features failpoints`): inject kernel panics, delays,
//! injected errors, and forced overload, then assert the two invariants the
//! robustness layer promises:
//!
//! 1. **every ticket resolves** — a value or an `EngineError`, never a hang
//!    (all waits here are bounded by `wait_timeout`, so a violation fails
//!    the test instead of wedging the suite);
//! 2. **successful results are unaffected by the chaos** — bit-identical to
//!    an independent single-vector `PreparedMxv::run` of the same request.
//!
//! The failpoint registry is process-global, so every test takes `FP_LOCK`
//! for its whole body and relies on `FailGuard` drops to disarm on all exit
//! paths.
//!
//! Every test but one needs the `failpoints` feature and is compiled only
//! with it. `saturated_serve_loop_conserves_requests` runs in both feature
//! states: overload alone must already conserve requests, and the feature
//! adds re-armed faults on top of the same traffic.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

#[cfg(feature = "failpoints")]
use proptest::prelude::*;
use sparse_substrate::gen::{erdos_renyi, random_sparse_vec};
use sparse_substrate::{CscMatrix, MaskBits, PlusTimes, SparseVec};
use spmspv::engine::{Engine, EngineConfig, EngineError, MxvRequest, OverloadPolicy};
#[cfg(feature = "failpoints")]
use spmspv::failpoint::{self, FailAction};
use spmspv::ops::Mxv;
#[cfg(feature = "failpoints")]
use spmspv::BatchAlgorithmKind;
use spmspv::MaskMode;

/// Serializes every test in this file: failpoint sites are process-global.
static FP_LOCK: Mutex<()> = Mutex::new(());

fn fp_lock() -> std::sync::MutexGuard<'static, ()> {
    FP_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Bounded claim: every ticket in this suite is collected through this, so
/// a ticket that never resolves fails the assertion instead of hanging.
fn claim(ticket: &spmspv::engine::Ticket<f64>) -> Result<SparseVec<f64>, EngineError> {
    ticket.wait_timeout(Duration::from_secs(10))
}

/// An engine pinned to the bucket batch kernel, which consults the
/// `batch.merge` failpoint after its lanes ran and before it merges them
/// into one batch.
#[cfg(feature = "failpoints")]
fn bucket_config() -> EngineConfig {
    EngineConfig::default().batch_algorithm(BatchAlgorithmKind::Bucket)
}

fn independent_run(
    a: &CscMatrix<f64>,
    x: &SparseVec<f64>,
    mask: Option<(&MaskBits, MaskMode)>,
) -> SparseVec<f64> {
    let op = Mxv::over(a).semiring(&PlusTimes);
    let mut op = match mask {
        Some((bits, mode)) => op.mask(bits, mode).prepare(),
        None => op.prepare(),
    };
    op.run(x)
}

/// How the requests of [`saturated_serve_loop_conserves_requests`] resolved.
#[derive(Debug, Default)]
struct Tally {
    submitted: usize,
    ok: usize,
    deadline_exceeded: usize,
    overloaded: usize,
    kernel_failed: usize,
    cancelled: usize,
}

/// Keeps re-arming short-lived one-shot faults across the flush path while
/// traffic flows: merge panics (degrade path), execute errors (retry path),
/// demux delays (deadline races). Each guard drops at the end of its cycle,
/// so an unconsumed plan never outlives the run.
#[cfg(feature = "failpoints")]
fn rearm_faults_until(stop: &AtomicBool) {
    for cycle in 0u64.. {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let _guard = match cycle % 3 {
            0 => failpoint::arm("batch.merge", FailAction::Panic("chaos: merge".into()), Some(1)),
            1 => failpoint::arm(
                "engine.flush.execute",
                FailAction::Error("chaos: execute".into()),
                Some(1),
            ),
            _ => failpoint::arm(
                "engine.flush.demux",
                FailAction::Delay(Duration::from_millis(2)),
                Some(2),
            ),
        };
        std::thread::sleep(Duration::from_millis(3));
    }
}

/// Closed-loop clients saturate a tiny `ShedOldest` queue under the `serve`
/// loop: bursts of 1–4 requests, masked and unmasked mixed, every fifth with
/// a deadline tight enough for queueing to expire it. No ticket may be lost —
/// each resolves, within a bounded wait, to a value or one of the four
/// terminal errors — the client-side counts must equal the engine's own, and
/// sampled successes are bit-identical to an independent run. With the
/// `failpoints` feature the same traffic also survives re-armed kernel
/// panics, execute errors and demux delays.
#[test]
fn saturated_serve_loop_conserves_requests() {
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 30;
    let _fp = fp_lock();
    let a = erdos_renyi(256, 6.0, 33);
    let n = a.ncols();
    // Eight slots against ten requests per round of bursts, held for a linger
    // far longer than a burst takes to submit: shedding must fire.
    let engine = Engine::over_with(
        &a,
        PlusTimes,
        EngineConfig::default()
            .max_lanes(16)
            .queue_capacity(2 * CLIENTS)
            .overload_policy(OverloadPolicy::ShedOldest)
            .linger(Duration::from_millis(1)),
    );

    let stop_faults = AtomicBool::new(false);
    let client = |engine: &Engine<'_, f64, f64, PlusTimes>, c: usize| {
        let session = engine.session();
        let mut tally = Tally::default();
        for round in 0..ROUNDS {
            let burst: Vec<_> = (0..1 + (c + round) % 4)
                .map(|_| {
                    tally.submitted += 1;
                    let reqno = tally.submitted;
                    let x =
                        random_sparse_vec(n, 16 + (reqno * 13) % 48, (c * 10_007 + reqno) as u64);
                    let mask = reqno
                        .is_multiple_of(3)
                        .then(|| MaskBits::from_indices(n, (c % 3..n).step_by(2 + reqno % 3)));
                    let mut request = MxvRequest::new(x.clone());
                    if let Some(bits) = &mask {
                        request = request.mask(bits.clone(), MaskMode::Complement);
                    }
                    let budget = if reqno.is_multiple_of(5) { 3 } else { 500 };
                    let ticket = session.submit(request.timeout(Duration::from_millis(budget)));
                    (ticket, x, mask)
                })
                .collect();
            // Closed loop: claim the whole burst before the next round.
            for (ticket, x, mask) in burst {
                match claim(&ticket) {
                    Ok(y) => {
                        tally.ok += 1;
                        if tally.ok.is_multiple_of(10) {
                            let mask = mask.as_ref().map(|bits| (bits, MaskMode::Complement));
                            assert_eq!(y, independent_run(&a, &x, mask), "served result diverged");
                        }
                    }
                    Err(EngineError::DeadlineExceeded) => tally.deadline_exceeded += 1,
                    Err(EngineError::Overloaded) => tally.overloaded += 1,
                    Err(EngineError::KernelFailed(_)) => tally.kernel_failed += 1,
                    Err(EngineError::Cancelled) => tally.cancelled += 1,
                    Err(lost) => panic!("a ticket never resolved terminally: {lost}"),
                }
            }
        }
        session.close();
        tally
    };
    let tallies: Vec<Tally> = engine.serve(|engine| {
        std::thread::scope(|scope| {
            #[cfg(feature = "failpoints")]
            scope.spawn(|| rearm_faults_until(&stop_faults));
            let clients: Vec<_> =
                (0..CLIENTS).map(|c| scope.spawn(move || client(engine, c))).collect();
            let tallies = clients.into_iter().map(|h| h.join().expect("client panicked")).collect();
            stop_faults.store(true, Ordering::Relaxed);
            tallies
        })
    });

    let sum = |field: fn(&Tally) -> usize| tallies.iter().map(field).sum::<usize>();
    let submitted = sum(|t| t.submitted);
    let resolved = sum(|t| t.ok)
        + sum(|t| t.deadline_exceeded)
        + sum(|t| t.overloaded)
        + sum(|t| t.kernel_failed)
        + sum(|t| t.cancelled);
    assert_eq!(submitted, resolved, "every submitted request resolves exactly once: {tallies:?}");
    let stats = engine.stats();
    assert_eq!(stats.requests, submitted, "the engine saw every submission");
    assert!(stats.shed > 0, "the overload policy must have fired: {stats}");
    assert_eq!(stats.shed, sum(|t| t.overloaded), "every shed request told its client");
    assert_eq!(stats.timeouts, sum(|t| t.deadline_exceeded), "every expiry told its client");
    assert!(sum(|t| t.ok) > 0, "a saturated engine still serves");
    assert_eq!(
        engine.obs().snapshot().gauge("engine.queue.depth"),
        Some(0),
        "the queue must be empty once `serve` has returned"
    );
    if cfg!(feature = "failpoints") {
        assert!(stats.panics_recovered > 0, "the armed faults left no trace: {stats}");
        assert!(
            stats.degraded_flushes <= stats.panics_recovered,
            "a degraded flush is the retry of a recovered failure: {stats}"
        );
    }
}

/// A panic at the batch kernel's merge step must not take the flush
/// down: the engine catches it, retries the group once on a fresh
/// one-participant runner, and every ticket still gets its bit-exact
/// result.
#[cfg(feature = "failpoints")]
#[test]
fn merge_panic_degrades_to_oracle_and_still_serves_exactly() {
    let _fp = fp_lock();
    let a = erdos_renyi(150, 5.0, 21);
    // Pin the bucket family so the flush is guaranteed to reach the armed
    // merge step (the adaptive dispatcher might pick it anyway; pinning
    // removes the maybe).
    let engine = Engine::over_with(&a, PlusTimes, bucket_config());
    let xs: Vec<SparseVec<f64>> = (0..5).map(|i| random_sparse_vec(150, 30, 60 + i)).collect();
    let _g =
        failpoint::arm("batch.merge", FailAction::Panic("chaos: merge blew up".into()), Some(1));
    let tickets: Vec<_> = xs.iter().map(|x| engine.submit(MxvRequest::new(x.clone()))).collect();
    let outcome = engine.flush();
    assert!(failpoint::hits("batch.merge") >= 1, "the fault plan must have fired");
    assert_eq!(outcome.panics_recovered, 1, "exactly one kernel failure survived");
    assert_eq!(outcome.degraded_flushes, 1, "the group was served by the retry");
    assert_eq!(outcome.lanes, 5, "every lane still served");
    for (ticket, x) in tickets.iter().zip(&xs) {
        let y = claim(ticket).expect("degraded flush must still serve");
        assert_eq!(y, independent_run(&a, x, None), "degraded result diverged from oracle");
    }
    // The engine keeps serving cleanly after recovery: the evicted
    // kernel is rebuilt lazily and the spent failpoint stays dormant.
    let again = engine.submit(MxvRequest::new(xs[0].clone()));
    let outcome = engine.flush();
    assert_eq!(outcome.panics_recovered, 0);
    assert_eq!(claim(&again).expect("healthy flush"), independent_run(&a, &xs[0], None));
    let stats = engine.stats();
    assert_eq!(stats.panics_recovered, 1);
    assert_eq!(stats.degraded_flushes, 1);
}

/// When the retry fails too (two consecutive injected errors), only the
/// doomed group's tickets fail — a different group in the same flush is
/// served untouched.
#[cfg(feature = "failpoints")]
#[test]
fn double_execute_failure_fails_only_its_group() {
    let _fp = fp_lock();
    let a = erdos_renyi(120, 5.0, 33);
    let engine = Engine::over_with(&a, PlusTimes, bucket_config());
    let xs: Vec<SparseVec<f64>> = (0..4).map(|i| random_sparse_vec(120, 25, 90 + i)).collect();
    // An empty ¬mask keeps every row, but its mask mode puts the healthy
    // requests in a group of their own.
    let nothing = MaskBits::new(120);
    // Two shots: the doomed group's first attempt AND its retry.
    // Submission order makes the unmasked group run first, so both shots
    // land on it; the masked group's attempt comes third and finds the site
    // spent.
    let _g = failpoint::arm(
        "engine.flush.execute",
        FailAction::Error("chaos: executor unavailable".into()),
        Some(2),
    );
    let doomed: Vec<_> =
        xs[..2].iter().map(|x| engine.submit(MxvRequest::new(x.clone()))).collect();
    let healthy: Vec<_> = xs[2..]
        .iter()
        .map(|x| {
            engine.submit(MxvRequest::new(x.clone()).mask(nothing.clone(), MaskMode::Complement))
        })
        .collect();
    let outcome = engine.flush();
    assert_eq!(outcome.panics_recovered, 2, "first attempt + failed retry");
    assert_eq!(outcome.degraded_flushes, 0, "the retry never succeeded");
    assert_eq!(outcome.lanes, 2, "only the healthy group's lanes executed");
    for t in &doomed {
        match claim(t) {
            Err(EngineError::KernelFailed(msg)) => {
                assert!(msg.contains("executor unavailable"), "error message lost: {msg}")
            }
            other => panic!("doomed ticket must fail with KernelFailed, got {other:?}"),
        }
    }
    for (t, x) in healthy.iter().zip(&xs[2..]) {
        let y = claim(t).expect("healthy group must be served");
        assert_eq!(y, independent_run(&a, x, Some((&nothing, MaskMode::Complement))));
    }
}

/// A delay injected between execution and demux pushes an in-flight request
/// past its deadline: the engine must drop the stale result and fail the
/// ticket rather than deliver it as fresh.
#[cfg(feature = "failpoints")]
#[test]
fn demux_delay_expires_in_flight_deadlines() {
    let _fp = fp_lock();
    let a = erdos_renyi(100, 4.0, 8);
    let engine = Engine::over(&a, PlusTimes);
    let x = random_sparse_vec(100, 20, 5);
    let _g =
        failpoint::arm("engine.flush.demux", FailAction::Delay(Duration::from_millis(30)), Some(1));
    let stale = engine.submit(MxvRequest::new(x.clone()).timeout(Duration::from_millis(5)));
    let outcome = engine.flush();
    assert_eq!(outcome.timeouts, 1, "the delayed lane must expire at demux");
    assert_eq!(outcome.lanes, 1, "the lane was executed, then dropped");
    assert_eq!(claim(&stale), Err(EngineError::DeadlineExceeded));
    assert_eq!(engine.stats().timeouts, 1);
    // Without the delay the same deadline is comfortable.
    let fresh = engine.submit(MxvRequest::new(x.clone()).timeout(Duration::from_secs(30)));
    engine.flush();
    assert_eq!(claim(&fresh).expect("served"), independent_run(&a, &x, None));
}

/// A panic before any group runs (queue drained, nothing resolved yet) is
/// the worst case for waiters: the resolution guard must fail every drained
/// ticket on the way out so no client is stranded.
#[cfg(feature = "failpoints")]
#[test]
fn assemble_panic_resolves_every_drained_ticket() {
    let _fp = fp_lock();
    let a = erdos_renyi(80, 4.0, 14);
    let engine = Engine::over(&a, PlusTimes);
    let xs: Vec<SparseVec<f64>> = (0..2).map(|i| random_sparse_vec(80, 15, 40 + i)).collect();
    let tickets: Vec<_> = xs.iter().map(|x| engine.submit(MxvRequest::new(x.clone()))).collect();
    let _g = failpoint::arm(
        "engine.flush.assemble",
        FailAction::Panic("chaos: assembler down".into()),
        Some(1),
    );
    let flushed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.flush()));
    assert!(flushed.is_err(), "the armed assemble panic must escape flush itself");
    for t in &tickets {
        match claim(t) {
            Err(EngineError::KernelFailed(msg)) => {
                assert!(msg.contains("aborted by panic"), "unexpected failure: {msg}")
            }
            other => panic!("drained ticket must resolve as KernelFailed, got {other:?}"),
        }
    }
    // The engine itself is not poisoned: the next flush serves normally.
    let after = engine.submit(MxvRequest::new(xs[0].clone()));
    engine.flush();
    assert_eq!(claim(&after).expect("served"), independent_run(&a, &xs[0], None));
}

/// Same panic under the `serve` loop: the loop catches the crashed flush,
/// restarts, and keeps serving — clients after the crash succeed, clients
/// drained into the crashed flush get an error, nobody hangs.
#[cfg(feature = "failpoints")]
#[test]
fn serve_loop_restarts_after_a_crashed_flush() {
    let _fp = fp_lock();
    let a = erdos_renyi(80, 4.0, 27);
    let engine =
        Engine::over_with(&a, PlusTimes, EngineConfig::default().linger(Duration::from_millis(1)));
    let x = random_sparse_vec(80, 15, 71);
    let _g = failpoint::arm(
        "engine.flush.assemble",
        FailAction::Panic("chaos: flush crashed mid-serve".into()),
        Some(1),
    );
    let (first, second) = engine.serve(|engine| {
        let t1 = engine.submit(MxvRequest::new(x.clone()));
        let first = claim(&t1);
        // By now the armed shot is spent (that flush crashed); the restarted
        // loop must serve this one.
        let t2 = engine.submit(MxvRequest::new(x.clone()));
        let second = claim(&t2);
        (first, second)
    });
    assert!(
        matches!(first, Err(EngineError::KernelFailed(_))),
        "crashed flush's client must get an error, got {first:?}"
    );
    assert_eq!(second.expect("restarted loop must keep serving"), independent_run(&a, &x, None));
    assert!(failpoint::hits("engine.flush.assemble") >= 1);
}

/// The degrade retry must be recorded as what *actually executed*: the
/// Bucket group's first attempt died before running, so the retry — a fresh
/// one-participant runner of the same family — served the group, the audit
/// trail (`EngineStats::choices`) must show exactly one batch, and the
/// trace ring must narrate the `degrade.retry`.
#[cfg(feature = "failpoints")]
#[test]
fn degrade_retry_is_recorded_in_choices_and_trace() {
    use spmspv::obs::TraceKind;
    let _fp = fp_lock();
    let a = erdos_renyi(100, 4.0, 55);
    let engine = Engine::over_with(&a, PlusTimes, bucket_config());
    let xs: Vec<SparseVec<f64>> = (0..3).map(|i| random_sparse_vec(100, 20, 200 + i)).collect();
    // One shot: the Bucket group's first attempt dies at the execute site;
    // the one-participant retry finds the site spent and serves the group.
    let _g = failpoint::arm(
        "engine.flush.execute",
        FailAction::Error("chaos: first attempt only".into()),
        Some(1),
    );
    let tickets: Vec<_> = xs.iter().map(|x| engine.submit(MxvRequest::new(x.clone()))).collect();
    let outcome = engine.flush();
    assert_eq!(outcome.degraded_flushes, 1, "the retry must have served the group");
    for (t, x) in tickets.iter().zip(&xs) {
        assert_eq!(claim(t).expect("degraded flush serves"), independent_run(&a, x, None));
    }
    assert_eq!(outcome.panics_recovered, 1, "only the first attempt failed");
    assert_eq!((outcome.batches, outcome.lanes), (1, xs.len()), "one batch served every lane");
    let choices = engine.stats().choices;
    assert_eq!(choices.total(), 1, "exactly one batch actually ran: the retry");
    assert_eq!(
        choices.iter().collect::<Vec<_>>(),
        [(BatchAlgorithmKind::Bucket, spmspv::SpaBackend::Dense, 1)],
        "the retry's batch must be recorded"
    );
    let events = engine.obs().events();
    assert!(
        events.iter().any(|e| matches!(
            e.kind,
            TraceKind::DegradeRetry { from: BatchAlgorithmKind::Bucket }
        )),
        "trace ring must contain the degrade.retry event, got: {events:?}"
    );
}

/// The generated fault plan for the chaos property.
#[cfg(feature = "failpoints")]
#[derive(Debug, Clone)]
enum Fault {
    None,
    MergePanic,
    ExecuteError,
    ExecuteDelay,
}

#[cfg(feature = "failpoints")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The headline chaos property: random traffic + a random fault plan +
    /// forced shedding, and still (1) every ticket resolves within a bounded
    /// wait and (2) every successful ticket is bit-identical to its
    /// independent run.
    #[test]
    fn chaos_never_hangs_and_successes_are_exact(
        seed in 0u64..1000,
        nreq in 3usize..10,
        fault in prop_oneof![
            Just(Fault::None),
            Just(Fault::MergePanic),
            Just(Fault::ExecuteError),
            Just(Fault::ExecuteDelay),
        ],
        shed in any::<bool>(),
    ) {
        let _fp = fp_lock();
        let a = erdos_renyi(90, 4.0, seed);
        // Pin Bucket so MergePanic plans actually reach their site.
        let config = if shed {
            // A queue smaller than the traffic forces Overloaded outcomes.
            bucket_config()
                .queue_capacity(nreq.saturating_sub(2).max(1))
                .overload_policy(OverloadPolicy::ShedOldest)
        } else {
            bucket_config()
        };
        let engine = Engine::over_with(&a, PlusTimes, config);
        let _guard = match fault {
            Fault::None => None,
            Fault::MergePanic => Some(failpoint::arm(
                "batch.merge",
                FailAction::Panic("chaos property: merge panic".into()),
                Some(1),
            )),
            Fault::ExecuteError => Some(failpoint::arm(
                "engine.flush.execute",
                FailAction::Error("chaos property: execute error".into()),
                Some(1),
            )),
            Fault::ExecuteDelay => Some(failpoint::arm(
                "engine.flush.execute",
                FailAction::Delay(Duration::from_millis(2)),
                Some(1),
            )),
        };
        let xs: Vec<SparseVec<f64>> =
            (0..nreq).map(|i| random_sparse_vec(90, 20, seed * 31 + i as u64)).collect();
        let tickets: Vec<_> = xs.iter().map(|x| engine.submit(MxvRequest::new(x.clone()))).collect();
        engine.flush();
        let mut successes = 0usize;
        for (ticket, x) in tickets.iter().zip(&xs) {
            // The bounded claim IS invariant (1): no hang, ever.
            match claim(ticket) {
                Ok(y) => {
                    successes += 1;
                    prop_assert_eq!(
                        y,
                        independent_run(&a, x, None),
                        "a chaos survivor diverged from its oracle"
                    );
                }
                Err(
                    EngineError::Overloaded
                    | EngineError::KernelFailed(_)
                    | EngineError::DeadlineExceeded,
                ) => {}
                Err(other) => {
                    return Err(TestCaseError::fail(format!("unexpected failure: {other:?}")));
                }
            }
        }
        // Every single-shot fault plan is lossless: a panic or error costs
        // the first attempt but the retry serves the group, and a
        // delay merely slows the flush. Only forced shedding loses requests.
        if !shed {
            prop_assert_eq!(successes, nreq, "single-shot fault plans must serve everything");
        }
        // And the engine must still be healthy afterwards.
        let again = engine.submit(MxvRequest::new(xs[0].clone()));
        engine.flush();
        prop_assert_eq!(
            claim(&again).expect("post-chaos flush must serve"),
            independent_run(&a, &xs[0], None)
        );
    }
}

/// An Erdős–Rényi matrix with its values remapped to small integers, so
/// cross-shard ⊕-merges stay exact and sharded results compare bit-for-bit
/// against the unsharded oracle.
#[cfg(feature = "failpoints")]
fn integral_matrix(n: usize, d: f64, seed: u64) -> CscMatrix<f64> {
    let a = erdos_renyi(n, d, seed);
    let mut coo = sparse_substrate::CooMatrix::new(n, n);
    for (i, j, v) in a.iter() {
        coo.push(i, j, (v * 8.0).floor() + 1.0);
    }
    CscMatrix::from_coo(coo, |x, y| x + y)
}

/// A small integral-valued frontier confined to `range`'s columns, so its
/// fan-out touches exactly one shard.
#[cfg(feature = "failpoints")]
fn confined_vec(n: usize, range: &std::ops::Range<usize>, seed: u64) -> SparseVec<f64> {
    let want = range.len().clamp(1, 6);
    let mut pairs: Vec<(usize, f64)> = (0..want)
        .map(|t| {
            let col = range.start + (seed as usize * 7 + t * 13) % range.len();
            (col, ((seed as usize + t) % 9 + 1) as f64)
        })
        .collect();
    pairs.sort_unstable_by_key(|p| p.0);
    pairs.dedup_by_key(|p| p.0);
    SparseVec::from_pairs(n, pairs).expect("indices confined to range")
}

/// The tentpole isolation story: a failpoint armed inside exactly **one**
/// shard's flush (`shard.flush.1`). Every ticket routed through shard 1
/// fails with `KernelFailed`; tickets whose frontiers only touch shard 0's
/// columns are served in the *same flush*, bit-identical to the oracle —
/// and once the shot is spent, the previously doomed frontiers (including
/// cross-shard merges) serve exactly.
#[cfg(feature = "failpoints")]
#[test]
fn single_shard_outage_fails_only_routed_tickets() {
    use spmspv::shard::ShardedEngine;
    let _fp = fp_lock();
    let a = integral_matrix(140, 5.0, 77);
    let router = ShardedEngine::partition(&a, PlusTimes, 3);
    assert!(router.num_shards() >= 2, "need ≥ 2 shards for an isolation story");
    let r0 = router.plan().range(0);
    let r1 = router.plan().range(1);

    let safe_x: Vec<SparseVec<f64>> =
        (0..3).map(|i| confined_vec(a.ncols(), &r0, 10 + i)).collect();
    let doomed_x: Vec<SparseVec<f64>> =
        (0..3).map(|i| confined_vec(a.ncols(), &r1, 50 + i)).collect();

    let before = failpoint::hits("shard.flush.1");
    let _g = failpoint::arm(
        "shard.flush.1",
        FailAction::Error("chaos: shard 1 unreachable".into()),
        Some(1),
    );
    let safe: Vec<_> = safe_x.iter().map(|x| router.submit(MxvRequest::new(x.clone()))).collect();
    let doomed: Vec<_> =
        doomed_x.iter().map(|x| router.submit(MxvRequest::new(x.clone()))).collect();
    let outcome = router.flush();
    assert_eq!(failpoint::hits("shard.flush.1"), before + 1, "the outage must have fired");
    assert_eq!(outcome.merged, safe.len(), "sibling-shard tickets resolve untouched");
    assert_eq!(outcome.failed, doomed.len(), "only shard-1-routed tickets fail");
    assert!(
        outcome.failures.iter().all(|m| m.contains("shard 1:")),
        "in-process outages carry their shard attribution: {:?}",
        outcome.failures
    );
    for (t, x) in safe.iter().zip(&safe_x) {
        let y = claim(t).expect("shard 0 must be unaffected by shard 1's outage");
        assert!(y.same_entries(&independent_run(&a, x, None)), "survivor diverged from oracle");
    }
    for t in &doomed {
        match claim(t) {
            Err(EngineError::KernelFailed(msg)) => assert!(
                msg.contains("shard 1:") && msg.contains("shard 1 unreachable"),
                "outage message lost: {msg}"
            ),
            other => panic!("shard-1 ticket must fail with KernelFailed, got {other:?}"),
        }
    }

    // The shot is spent: the same frontiers — plus one straddling both
    // shards — now serve exactly through the healed fleet.
    let mut straddle = confined_vec(a.ncols(), &r0, 3);
    for (i, v) in confined_vec(a.ncols(), &r1, 4).iter() {
        straddle.push(i, *v);
    }
    let retry: Vec<_> = doomed_x
        .iter()
        .chain(std::iter::once(&straddle))
        .map(|x| router.submit(MxvRequest::new(x.clone())))
        .collect();
    let outcome = router.flush();
    assert_eq!(outcome.failed, 0, "healed fleet must serve everything");
    assert_eq!(outcome.merged, retry.len());
    for (t, x) in retry.iter().zip(doomed_x.iter().chain(std::iter::once(&straddle))) {
        let y = claim(t).expect("healed shard must serve");
        assert!(y.same_entries(&independent_run(&a, x, None)), "post-outage result diverged");
    }
    assert_eq!(router.obs().snapshot().counter("shard.failed"), Some(doomed_x.len() as u64));
}

/// A shard exchange that panics fails only that shard's tickets: the
/// `engine.flush.assemble` panic fires once, inside whichever shard engine
/// reaches it first, and the router's flush still returns with every
/// routed ticket resolved. The downed shard's tickets — its lone request
/// and the request straddling both shards — fail with its `shard <s>:`
/// attribution, and the other shard's lone request merges equal to the
/// oracle in the same flush.
#[cfg(feature = "failpoints")]
#[test]
fn exchange_panic_fails_only_its_shards_tickets() {
    use spmspv::shard::ShardedEngine;
    let _fp = fp_lock();
    let a = integral_matrix(140, 5.0, 79);
    let router = ShardedEngine::partition(&a, PlusTimes, 2);
    assert_eq!(router.num_shards(), 2, "need 2 shards for an isolation story");
    let alone: Vec<SparseVec<f64>> =
        (0..2).map(|s| confined_vec(a.ncols(), &router.plan().range(s), 20 + s as u64)).collect();
    let mut straddle = alone[0].clone();
    for (i, v) in alone[1].iter() {
        straddle.push(i, *v);
    }
    let xs = [alone[0].clone(), alone[1].clone(), straddle];
    let tickets: Vec<_> = xs.iter().map(|x| router.submit(MxvRequest::new(x.clone()))).collect();

    let before = failpoint::hits("engine.flush.assemble");
    let _g = failpoint::arm(
        "engine.flush.assemble",
        FailAction::Panic("chaos: shard engine down".into()),
        Some(1),
    );
    let outcome = router.flush();
    assert_eq!(failpoint::hits("engine.flush.assemble"), before + 1, "the panic must have fired");
    let results: Vec<_> = tickets.iter().map(claim).collect();
    // The shard whose engine panicked fails its lone request; the other
    // shard's lone request is served.
    let down = if results[0].is_err() { 0 } else { 1 };
    let up = 1 - down;
    assert_eq!((outcome.merged, outcome.failed), (1, 2), "{results:?}");
    let served = results[up].as_ref().expect("the other shard must be unaffected");
    assert!(served.same_entries(&independent_run(&a, &xs[up], None)), "survivor diverged");
    for r in [down, 2] {
        match &results[r] {
            Err(EngineError::KernelFailed(msg)) => assert!(
                msg.starts_with(&format!("shard {down}: ")) && msg.contains("shard engine down"),
                "request {r}: the panic message lost its shard attribution: {msg}"
            ),
            other => panic!("request {r} went through shard {down}: got {other:?}"),
        }
    }
    assert!(outcome.failures.iter().all(|m| m.contains(&format!("shard {down}:"))));

    // The shot is spent: the same requests now merge exactly.
    let retry: Vec<_> = xs.iter().map(|x| router.submit(MxvRequest::new(x.clone()))).collect();
    assert_eq!(router.flush().merged, xs.len());
    for (t, x) in retry.iter().zip(&xs) {
        let y = claim(t).expect("the healed shard serves");
        assert!(y.same_entries(&independent_run(&a, x, None)), "post-panic result diverged");
    }
}

/// Failpoint parity over sockets: the same `shard.flush.1` outage armed on
/// a TCP-connected router has the same blast radius as in-process — the
/// downed shard's tickets fail with the transport's `shard 1:` attribution,
/// sibling hosts serve bit-exact in the same flush, and the injected outage
/// never touches the wire (healing needs no reconnect).
#[cfg(feature = "failpoints")]
#[test]
fn single_shard_outage_has_the_same_blast_radius_over_tcp() {
    use spmspv::net::{ShardHost, TcpConfig};
    use spmspv::obs::ObsConfig;
    use spmspv::shard::{ShardPlan, ShardedEngine};
    let _fp = fp_lock();
    let a = integral_matrix(120, 5.0, 78);
    let plan = ShardPlan::balanced(&a, 3);
    assert!(plan.num_shards() >= 2, "need ≥ 2 shards for an isolation story");

    let mut hosts = Vec::new();
    let mut addrs = Vec::new();
    for (s, part) in a.column_split(plan.bounds()).into_iter().enumerate() {
        let host = ShardHost::bind(
            "127.0.0.1:0",
            s,
            plan.range(s),
            part,
            PlusTimes,
            EngineConfig::default(),
        )
        .expect("bind an ephemeral localhost port");
        addrs.push(host.local_addr().expect("bound"));
        hosts.push(host.spawn());
    }
    let router = ShardedEngine::<f64, f64, PlusTimes>::connect(
        plan.clone(),
        a.nrows(),
        PlusTimes,
        &addrs,
        TcpConfig::default(),
        ObsConfig::default(),
    )
    .expect("dial every host");
    let r0 = router.plan().range(0);
    let r1 = router.plan().range(1);

    let safe_x: Vec<SparseVec<f64>> =
        (0..3).map(|i| confined_vec(a.ncols(), &r0, 20 + i)).collect();
    let doomed_x: Vec<SparseVec<f64>> =
        (0..3).map(|i| confined_vec(a.ncols(), &r1, 60 + i)).collect();

    let before = failpoint::hits("shard.flush.1");
    let _g = failpoint::arm(
        "shard.flush.1",
        FailAction::Error("chaos: shard 1 unreachable".into()),
        Some(1),
    );
    let safe: Vec<_> = safe_x.iter().map(|x| router.submit(MxvRequest::new(x.clone()))).collect();
    let doomed: Vec<_> =
        doomed_x.iter().map(|x| router.submit(MxvRequest::new(x.clone()))).collect();
    let outcome = router.flush();
    assert_eq!(failpoint::hits("shard.flush.1"), before + 1, "the outage must have fired");
    assert_eq!(outcome.merged, safe.len(), "sibling hosts serve in the same flush");
    assert_eq!(outcome.failed, doomed.len(), "only shard-1-routed tickets fail");
    assert!(
        outcome.failures.iter().all(|m| m.contains("shard 1:")),
        "remote failures carry their shard attribution: {:?}",
        outcome.failures
    );
    for (t, x) in safe.iter().zip(&safe_x) {
        let y = claim(t).expect("sibling hosts must be unaffected");
        assert!(y.same_entries(&independent_run(&a, x, None)), "survivor diverged from oracle");
    }
    for t in &doomed {
        match claim(t) {
            Err(EngineError::KernelFailed(msg)) => assert!(
                msg.contains("shard 1:") && msg.contains("unreachable"),
                "outage attribution lost: {msg}"
            ),
            other => panic!("shard-1 ticket must fail with KernelFailed, got {other:?}"),
        }
    }

    // The shot is spent: the doomed frontiers now serve exactly — and the
    // injected outage never broke the connection, so no reconnect happened.
    let retry: Vec<_> =
        doomed_x.iter().map(|x| router.submit(MxvRequest::new(x.clone()))).collect();
    let outcome = router.flush();
    assert_eq!(outcome.failed, 0, "healed fleet serves everything: {:?}", outcome.failures);
    for (t, x) in retry.iter().zip(&doomed_x) {
        let y = claim(t).expect("healed shard must serve");
        assert!(y.same_entries(&independent_run(&a, x, None)), "post-outage result diverged");
    }
    let snap = router.obs().snapshot();
    assert_eq!(snap.counter("net.reconnects").unwrap_or(0), 0, "the outage was injected, not real");

    drop(router);
    for host in hosts {
        host.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Byzantine-frame defense: a lying host is quarantined, never merged.
// ---------------------------------------------------------------------------

/// Spawns `replicas` hosts per shard of `plan`, every replica of a shard
/// loaded with the same column slice of `a`.
#[cfg(feature = "failpoints")]
fn spawn_replicated_fleet(
    a: &CscMatrix<f64>,
    plan: &spmspv::shard::ShardPlan,
    replicas: usize,
) -> (Vec<Vec<spmspv::net::ShardHostHandle>>, Vec<Vec<std::net::SocketAddr>>) {
    use spmspv::net::ShardHost;
    let mut handles = Vec::new();
    let mut groups = Vec::new();
    for (s, part) in a.column_split(plan.bounds()).into_iter().enumerate() {
        let mut hs = Vec::new();
        let mut addrs = Vec::new();
        for _ in 0..replicas {
            let host = ShardHost::bind(
                "127.0.0.1:0",
                s,
                plan.range(s),
                part.clone(),
                PlusTimes,
                EngineConfig::default(),
            )
            .expect("bind an ephemeral localhost port");
            addrs.push(host.local_addr().expect("bound listener has an address"));
            hs.push(host.spawn());
        }
        handles.push(hs);
        groups.push(addrs);
    }
    (handles, groups)
}

/// Transport config for byzantine tests: no background heartbeat (the
/// exchange must catch the lie itself) and fast re-dials.
#[cfg(feature = "failpoints")]
fn byzantine_config() -> spmspv::net::TcpConfig {
    spmspv::net::TcpConfig {
        connect_retries: 1,
        retry_backoff: Duration::from_millis(1),
        heartbeat: None,
        ..spmspv::net::TcpConfig::default()
    }
}

/// Tentpole acceptance: a host answering with a **wrong correlation id** is
/// quarantined within the flush (`shard.replica.quarantined` incremented),
/// its replica absorbs the batch, and every result stays bit-identical to
/// the oracle — zero failed tickets.
#[cfg(feature = "failpoints")]
#[test]
fn byzantine_wrong_id_is_quarantined_and_failed_over() {
    use spmspv::obs::ObsConfig;
    use spmspv::shard::{ShardPlan, ShardedEngine};
    let _fp = fp_lock();
    let a = integral_matrix(120, 5.0, 91);
    let plan = ShardPlan::balanced(&a, 2).with_fingerprints_of(&a);
    assert!(plan.num_shards() >= 2);

    let (hosts, groups) = spawn_replicated_fleet(&a, &plan, 2);
    let router = ShardedEngine::<f64, f64, PlusTimes>::connect_replicated(
        plan.clone(),
        a.nrows(),
        PlusTimes,
        &groups,
        byzantine_config(),
        ObsConfig::default(),
    )
    .expect("dial the replicated fleet");
    let r0 = plan.range(0);
    let r1 = plan.range(1);

    // Shard 0's primary lies about one reply's id; the replica is honest.
    let _g = failpoint::arm(
        "net.host.byzantine.wrong_id.0",
        FailAction::Error("byzantine: corrupt the correlation id".into()),
        Some(1),
    );
    let xs: Vec<SparseVec<f64>> = (0..3)
        .map(|i| confined_vec(a.ncols(), &r0, 30 + i))
        .chain((0..2).map(|i| confined_vec(a.ncols(), &r1, 70 + i)))
        .collect();
    let tickets: Vec<_> = xs.iter().map(|x| router.submit(MxvRequest::new(x.clone()))).collect();
    let outcome = router.flush();
    assert_eq!(
        outcome.failed, 0,
        "the honest replica must absorb the byzantine primary: {:?}",
        outcome.failures
    );
    for (t, x) in tickets.iter().zip(&xs) {
        let y = claim(t).expect("every ticket serves through the honest replica");
        assert!(y.same_entries(&independent_run(&a, x, None)), "byzantine reply leaked a result");
    }
    let snap = router.obs().snapshot();
    assert_eq!(
        snap.counter("shard.replica.quarantined"),
        Some(1),
        "exactly the lying connection is quarantined"
    );
    assert!(
        snap.counter("shard.replica.failovers").unwrap_or(0) >= 1,
        "the quarantine must register as a failover"
    );
    assert!(
        snap.counter("shard.replica.trips").unwrap_or(0) >= 1,
        "quarantine trips the replica's breaker"
    );

    drop(router);
    for group in hosts {
        for host in group {
            host.shutdown();
        }
    }
}

/// A replica-less byzantine host has the single-shard-outage blast radius:
/// an **out-of-range partial index** quarantines the connection, fails only
/// the tickets routed through that shard (with byzantine attribution),
/// sibling shards serve in the same flush, and the fleet heals once the
/// shot is spent.
#[cfg(feature = "failpoints")]
#[test]
fn byzantine_bad_index_fails_only_routed_tickets_then_heals() {
    use spmspv::obs::ObsConfig;
    use spmspv::shard::{ShardPlan, ShardedEngine};
    let _fp = fp_lock();
    let a = integral_matrix(120, 5.0, 92);
    let plan = ShardPlan::balanced(&a, 2).with_fingerprints_of(&a);
    let (hosts, groups) = spawn_replicated_fleet(&a, &plan, 1);
    let router = ShardedEngine::<f64, f64, PlusTimes>::connect_replicated(
        plan.clone(),
        a.nrows(),
        PlusTimes,
        &groups,
        byzantine_config(),
        ObsConfig::default(),
    )
    .expect("dial the fleet");
    let r0 = plan.range(0);
    let r1 = plan.range(1);

    let _g = failpoint::arm(
        "net.host.byzantine.bad_index.1",
        FailAction::Error("byzantine: first partial index becomes u64::MAX".into()),
        Some(1),
    );
    let safe_x: Vec<SparseVec<f64>> =
        (0..2).map(|i| confined_vec(a.ncols(), &r0, 40 + i)).collect();
    let doomed_x: Vec<SparseVec<f64>> =
        (0..2).map(|i| confined_vec(a.ncols(), &r1, 80 + i)).collect();
    let safe: Vec<_> = safe_x.iter().map(|x| router.submit(MxvRequest::new(x.clone()))).collect();
    let doomed: Vec<_> =
        doomed_x.iter().map(|x| router.submit(MxvRequest::new(x.clone()))).collect();
    let outcome = router.flush();
    assert_eq!(outcome.merged, safe.len(), "sibling shard serves in the same flush");
    assert_eq!(outcome.failed, doomed.len(), "only the byzantine shard's tickets fail");
    for (t, x) in safe.iter().zip(&safe_x) {
        let y = claim(t).expect("sibling shard unaffected");
        assert!(y.same_entries(&independent_run(&a, x, None)), "survivor diverged");
    }
    for t in &doomed {
        match claim(t) {
            Err(EngineError::KernelFailed(msg)) => assert!(
                msg.contains("shard 1:") && msg.contains("byzantine"),
                "byzantine attribution lost: {msg}"
            ),
            other => panic!("byzantine shard's ticket must fail as KernelFailed, got {other:?}"),
        }
    }
    let snap = router.obs().snapshot();
    assert_eq!(snap.counter("shard.replica.quarantined"), Some(1));

    // The shot is spent: the quarantined connection re-dials and serves.
    let retry: Vec<_> =
        doomed_x.iter().map(|x| router.submit(MxvRequest::new(x.clone()))).collect();
    let outcome = router.flush();
    assert_eq!(outcome.failed, 0, "healed host serves: {:?}", outcome.failures);
    for (t, x) in retry.iter().zip(&doomed_x) {
        let y = claim(t).expect("healed host serves");
        assert!(y.same_entries(&independent_run(&a, x, None)), "post-quarantine result diverged");
    }
    assert!(
        router.obs().snapshot().counter("net.reconnects").unwrap_or(0) >= 1,
        "healing a quarantine is a real reconnect"
    );

    drop(router);
    for group in hosts {
        for host in group {
            host.shutdown();
        }
    }
}

/// Same blast radius for a host that **truncates** its reply mid-header:
/// the undecodable frame quarantines the connection, only its routed
/// tickets fail, and the fleet heals on the next flush.
#[cfg(feature = "failpoints")]
#[test]
fn byzantine_truncated_reply_quarantines_then_heals() {
    use spmspv::obs::ObsConfig;
    use spmspv::shard::{ShardPlan, ShardedEngine};
    let _fp = fp_lock();
    let a = integral_matrix(120, 5.0, 93);
    let plan = ShardPlan::balanced(&a, 2).with_fingerprints_of(&a);
    let (hosts, groups) = spawn_replicated_fleet(&a, &plan, 1);
    let router = ShardedEngine::<f64, f64, PlusTimes>::connect_replicated(
        plan.clone(),
        a.nrows(),
        PlusTimes,
        &groups,
        byzantine_config(),
        ObsConfig::default(),
    )
    .expect("dial the fleet");
    let r1 = plan.range(1);

    let _g = failpoint::arm(
        "net.host.byzantine.truncate.1",
        FailAction::Error("byzantine: cut the reply mid-header".into()),
        Some(1),
    );
    let doomed_x: Vec<SparseVec<f64>> =
        (0..2).map(|i| confined_vec(a.ncols(), &r1, 85 + i)).collect();
    let doomed: Vec<_> =
        doomed_x.iter().map(|x| router.submit(MxvRequest::new(x.clone()))).collect();
    let outcome = router.flush();
    assert_eq!(outcome.failed, doomed.len(), "the truncating shard's tickets fail");
    for t in &doomed {
        match claim(t) {
            Err(EngineError::KernelFailed(msg)) => {
                assert!(msg.contains("shard 1:"), "truncation attribution lost: {msg}")
            }
            other => panic!("expected KernelFailed, got {other:?}"),
        }
    }
    assert_eq!(router.obs().snapshot().counter("shard.replica.quarantined"), Some(1));

    let retry: Vec<_> =
        doomed_x.iter().map(|x| router.submit(MxvRequest::new(x.clone()))).collect();
    let outcome = router.flush();
    assert_eq!(outcome.failed, 0, "healed host serves: {:?}", outcome.failures);
    for (t, x) in retry.iter().zip(&doomed_x) {
        let y = claim(t).expect("healed host serves");
        assert!(y.same_entries(&independent_run(&a, x, None)), "post-truncation result diverged");
    }

    drop(router);
    for group in hosts {
        for host in group {
            host.shutdown();
        }
    }
}
