//! Property tests for the shard router: **a [`ShardedEngine`] serves every
//! request bit-identically to a single unsharded [`Engine`]** — across
//! semirings (`PlusTimes`, `MinPlus`, `Select2ndMin` via BFS), mask modes
//! (unmasked / keep / complement), shard counts {1, 2, 3, 7}, fixed and
//! adaptive kernel paths, and skewed nnz distributions (power-law matrices,
//! frontiers confined to one shard's columns).
//!
//! Entry values are small integers, so `PlusTimes`'s ⊕ is exact and the
//! ascending-shard merge fold is *bitwise* the unsharded ascending-column
//! fold (`min`-based semirings are exactly associative outright). The
//! companion satellite asserts [`ShardedEngine::stats`] is the sum of the
//! per-shard [`EngineStats`]. One seeded large-operand case also takes the
//! lane runner's split bucket, Adaptive bucket and pull lanes.

use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use sparse_substrate::gen::{random_sparse_vec, rmat, RmatParams};
use sparse_substrate::{
    CooMatrix, CscMatrix, MaskBits, MinPlus, PlusTimes, Scalar, Select2ndMin, Semiring, SparseVec,
};
use spmspv::engine::{Engine, EngineConfig, EngineError, MxvRequest, OverloadPolicy};
use spmspv::net::{
    read_frame, write_frame, ConnectError, Frame, ShardHost, ShardHostHandle, TcpConfig,
    WireFrontier, WireScalar, DEFAULT_MAX_FRAME,
};
use spmspv::obs::{self, ObsConfig};
use spmspv::shard::{ShardPlan, ShardedEngine};
use spmspv::stats::EngineStats;
use spmspv::{AlgorithmKind, BatchAlgorithmKind, Executor, MaskMode, SpMSpVOptions};

mod large_case;

/// Strategy: a random sparse square matrix with small-integer entries and a
/// skew knob — `skew` of the entries land in the first `n/8` columns, so
/// high-skew cases concentrate nearly all nnz in the lowest shard.
fn matrix_strategy(max_dim: usize) -> impl Strategy<Value = CscMatrix<f64>> {
    (4usize..max_dim, 0.0f64..0.95).prop_flat_map(|(n, skew)| {
        let entry = (0..n, 0..n, 1i32..16, 0.0f64..1.0);
        proptest::collection::vec(entry, 1..(n * n).min(300)).prop_map(move |entries| {
            let mut coo = CooMatrix::new(n, n);
            let head = (n / 8).max(1);
            for (i, j, v, roll) in entries {
                let col = if roll < skew { j % head } else { j };
                coo.push(i, col, v as f64);
            }
            CscMatrix::from_coo(coo, |a, b| a + b)
        })
    })
}

/// One generated request: an integer-valued frontier (possibly confined to
/// a narrow column band, exercising single-shard fan-out) and a mask pick.
#[derive(Debug, Clone)]
struct GenRequest {
    frontier: SparseVec<f64>,
    mask: Option<(MaskBits, MaskMode)>,
}

fn request_strategy(n: usize) -> impl Strategy<Value = GenRequest> {
    let frontier =
        (proptest::collection::btree_map(0..n, 1i32..16, 1..n.min(24)), any::<bool>(), 0..n)
            .prop_map(move |(map, confine, start)| {
                let band = (n / 4).max(1);
                let pairs: Vec<(usize, f64)> = map
                    .into_iter()
                    .map(|(i, v)| (if confine { start + i % band } else { i }.min(n - 1), v as f64))
                    .collect::<std::collections::BTreeMap<usize, f64>>()
                    .into_iter()
                    .collect();
                SparseVec::from_pairs(n, pairs).expect("unique in-range indices")
            });
    let mask = prop_oneof![
        Just(None),
        (proptest::collection::btree_map(0..n, 1i32..2, 0..n), any::<bool>()).prop_map(
            move |(rows, keep)| {
                let bits = MaskBits::from_indices(n, rows.into_keys());
                let mode = if keep { MaskMode::Keep } else { MaskMode::Complement };
                Some((bits, mode))
            }
        ),
    ];
    (frontier, mask).prop_map(|(frontier, mask)| GenRequest { frontier, mask })
}

fn operands(max_dim: usize) -> impl Strategy<Value = (CscMatrix<f64>, Vec<GenRequest>)> {
    matrix_strategy(max_dim).prop_flat_map(|a| {
        let n = a.ncols();
        (Just(a), proptest::collection::vec(request_strategy(n), 1..6))
    })
}

fn build_request(r: &GenRequest) -> MxvRequest<f64> {
    let mut req = MxvRequest::new(r.frontier.clone());
    if let Some((bits, mode)) = &r.mask {
        req = req.mask(bits.clone(), *mode);
    }
    req
}

/// Serves `requests` through an unsharded engine and a `shards`-way router
/// and asserts every pair of results carries the same entry set with
/// bitwise-equal values.
fn assert_sharded_is_bit_identical<S>(
    a: &CscMatrix<f64>,
    requests: &[GenRequest],
    semiring: S,
    shards: usize,
    kind: BatchAlgorithmKind,
) -> Result<(), TestCaseError>
where
    S: Semiring<f64, f64> + Clone + 'static,
    S::Output: Scalar + PartialOrd + std::fmt::Debug,
{
    let config = EngineConfig::default().batch_algorithm(kind);
    let oracle = Engine::over_with(a, semiring.clone(), config.clone());
    let expect: Vec<SparseVec<S::Output>> = {
        let tickets: Vec<_> = requests.iter().map(|r| oracle.submit(build_request(r))).collect();
        oracle.flush();
        tickets
            .iter()
            .map(|t| t.try_take().expect("oracle flush serves").expect("oracle cannot fail"))
            .collect()
    };

    let router = ShardedEngine::partition_with(a, semiring, ShardPlan::balanced(a, shards), config);
    prop_assert!(router.num_shards() <= shards.max(1));
    let tickets: Vec<_> = requests.iter().map(|r| router.submit(build_request(r))).collect();
    let outcome = router.flush();
    prop_assert_eq!(outcome.requests, requests.len());
    prop_assert_eq!(outcome.merged + outcome.failed + outcome.retired, outcome.requests);
    prop_assert_eq!(outcome.failed, 0, "no chaos armed: nothing may fail");

    for (i, (t, want)) in tickets.iter().zip(&expect).enumerate() {
        let got = t.try_take().expect("router flush serves").expect("router cannot fail");
        prop_assert_eq!(got.len(), want.len());
        prop_assert!(
            got.same_entries(want),
            "request {} diverged under {} shards: got {:?}, want {:?}",
            i,
            router.num_shards(),
            got,
            want
        );
    }

    // Satellite: the router's merged stats are exactly the per-shard sum.
    let mut summed = EngineStats::default();
    for s in 0..router.num_shards() {
        summed.absorb(&router.shard_stats(s));
    }
    prop_assert_eq!(summed, router.stats(), "stats() must equal the absorb-sum of shard stats");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline property: sharded ≡ unsharded, bit for bit, for the
    /// exact-⊕ arithmetic semiring, across shard counts and both the fixed
    /// bucket kernel and the adaptive dispatcher.
    #[test]
    fn plus_times_sharded_equals_unsharded(
        (a, requests) in operands(28),
        shards_ix in 0usize..4,
        adaptive in any::<bool>(),
    ) {
        let kind = if adaptive { BatchAlgorithmKind::Adaptive } else { BatchAlgorithmKind::Bucket };
        let shards = [1usize, 2, 3, 7][shards_ix];
        assert_sharded_is_bit_identical(&a, &requests, PlusTimes, shards, kind)?;
    }

    /// Same property under the tropical `(min, +)` semiring — exactly
    /// associative, so bit-identity needs no integrality argument — with
    /// the bucket kernel in the mix.
    #[test]
    fn min_plus_sharded_equals_unsharded(
        (a, requests) in operands(24),
        shards_ix in 0usize..4,
        bucket in any::<bool>(),
    ) {
        let kind = if bucket { BatchAlgorithmKind::Bucket } else { BatchAlgorithmKind::Adaptive };
        let shards = [1usize, 2, 3, 7][shards_ix];
        assert_sharded_is_bit_identical(&a, &requests, MinPlus, shards, kind)?;
    }
}

/// Deterministic corner: every shard count on a matrix whose nnz all sit in
/// one column (the plan collapses to fewer shards; routing still works).
#[test]
fn concentrated_matrix_serves_through_any_shard_count() {
    let n = 12;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, 5, (i + 1) as f64);
    }
    let a = CscMatrix::from_coo(coo, |x, y| x + y);
    let x = SparseVec::from_pairs(n, vec![(5, 3.0)]).unwrap();
    let oracle = {
        let engine = Engine::over(&a, PlusTimes);
        let t = engine.submit(MxvRequest::new(x.clone()));
        engine.flush();
        t.try_take().unwrap().unwrap()
    };
    for shards in [1usize, 2, 3, 7, 100] {
        let router = ShardedEngine::partition(&a, PlusTimes, shards);
        let t = router.submit(MxvRequest::new(x.clone()));
        let outcome = router.flush();
        assert_eq!(outcome.merged, 1);
        assert!(t.try_take().unwrap().unwrap().same_entries(&oracle), "{shards} shards diverged");
    }
}

/// Deterministic corner: a frontier that straddles every shard boundary of
/// an explicit uneven plan, masked both ways.
#[test]
fn explicit_plan_with_masks_matches_oracle() {
    let n = 20;
    let mut coo = CooMatrix::new(n, n);
    for j in 0..n {
        for k in 0..3 {
            coo.push((j * 7 + k * 5) % n, j, ((j + k) % 9 + 1) as f64);
        }
    }
    let a = CscMatrix::from_coo(coo, |x, y| x + y);
    let x = SparseVec::from_pairs(n, (0..n).step_by(2).map(|j| (j, (j % 7 + 1) as f64)).collect())
        .unwrap();
    let mask = MaskBits::from_indices(n, (0..n).filter(|v| v % 3 == 0));
    for mode in [MaskMode::Keep, MaskMode::Complement] {
        let oracle = {
            let engine = Engine::over(&a, PlusTimes);
            let t = engine.submit(MxvRequest::new(x.clone()).mask(mask.clone(), mode));
            engine.flush();
            t.try_take().unwrap().unwrap()
        };
        let plan = ShardPlan::from_bounds(n, vec![0, 3, 4, 11, n]);
        let router = ShardedEngine::partition_with(&a, PlusTimes, plan, EngineConfig::default());
        let t = router.submit(MxvRequest::new(x.clone()).mask(mask.clone(), mode));
        router.flush();
        assert!(
            t.try_take().unwrap().unwrap().same_entries(&oracle),
            "masked ({mode:?}) sharded run diverged"
        );
    }
}

/// Routing bookkeeping: fan-out is the number of owning shards, empty
/// frontiers resolve to empty outputs, and cancellation retires cleanly.
#[test]
fn fanout_empty_and_cancel_edges() {
    let n = 16;
    let mut coo = CooMatrix::new(n, n);
    for j in 0..n {
        coo.push(j, j, 1.0);
        coo.push((j + 1) % n, j, 2.0);
    }
    let a = CscMatrix::from_coo(coo, |x, y| x + y);
    let router = ShardedEngine::partition(&a, PlusTimes, 4);
    assert_eq!(router.ncols(), n);
    assert_eq!(router.nrows(), n);

    // Empty frontier: fan-out 0, merged into an empty output.
    let empty = router.submit(MxvRequest::new(SparseVec::new(n)));
    // Confined frontier: it only owns columns inside shard 0's range.
    let r0 = router.plan().range(0);
    let confined =
        router.submit(MxvRequest::new(SparseVec::from_pairs(n, vec![(r0.start, 2.0)]).unwrap()));
    // Cancelled before the flush: resolves as Cancelled, never merged.
    let doomed = router.submit(MxvRequest::new(SparseVec::from_pairs(n, vec![(0, 1.0)]).unwrap()));
    assert!(doomed.cancel());

    assert_eq!(router.pending(), 3);
    let outcome = router.flush();
    assert_eq!(outcome.requests, 3);
    assert_eq!(outcome.merged, 2);
    assert_eq!(outcome.retired, 1);
    let y = empty.try_take().unwrap().unwrap();
    assert_eq!(y.len(), n);
    assert_eq!(y.nnz(), 0);
    assert!(confined.try_take().unwrap().is_ok());
    assert!(matches!(doomed.try_take(), Some(Err(spmspv::engine::EngineError::Cancelled))));

    // The fan-out histogram saw all three routings (0, 1, and the doomed
    // one's own fan-out), and dropping the router disconnects stragglers.
    let snap = router.obs().snapshot();
    assert_eq!(snap.counter("shard.requests"), Some(3));
    assert_eq!(snap.histogram("shard.fanout").map(|h| h.count), Some(3));
    let straggler =
        router.submit(MxvRequest::new(SparseVec::from_pairs(n, vec![(1, 1.0)]).unwrap()));
    drop(router);
    assert!(matches!(straggler.try_take(), Some(Err(spmspv::engine::EngineError::Disconnected))));
}

/// A request cancelled before the flush never reaches its shard engine:
/// the router drops its sub-requests, so no shard executes a lane for it.
#[test]
fn cancelled_request_never_reaches_its_shard_engine() {
    let n = 12;
    let a = chaos_fixture(n);
    let router = ShardedEngine::partition(&a, PlusTimes, 3);
    let doomed = router.submit(MxvRequest::new(SparseVec::from_pairs(n, vec![(1, 1.0)]).unwrap()));
    assert!(doomed.cancel());
    let outcome = router.flush();
    assert_eq!((outcome.requests, outcome.retired), (1, 1));
    assert_eq!(outcome.lanes, 0, "a cancelled request must not run on a shard");
    assert_eq!(outcome.shards_flushed, 0);
    assert_eq!(router.stats().lanes_executed, 0, "no shard engine executed a lane");
    assert_eq!(router.stats().requests, 0, "no shard engine was even handed the request");
}

// ---------------------------------------------------------------------------
// Remote transport: the same properties over sockets.
// ---------------------------------------------------------------------------

/// Spawns one [`ShardHost`] per shard of `plan` on ephemeral localhost
/// ports, each loaded with its column slice of `a`.
fn spawn_hosts<S>(
    a: &CscMatrix<f64>,
    plan: &ShardPlan,
    semiring: S,
    config: &EngineConfig,
) -> (Vec<ShardHostHandle>, Vec<SocketAddr>)
where
    S: Semiring<f64, f64> + Clone + 'static,
    S::Output: WireScalar,
{
    let mut handles = Vec::new();
    let mut addrs = Vec::new();
    for (s, part) in a.column_split(plan.bounds()).into_iter().enumerate() {
        let host = ShardHost::bind(
            "127.0.0.1:0",
            s,
            plan.range(s),
            part,
            semiring.clone(),
            config.clone(),
        )
        .expect("bind an ephemeral localhost port");
        addrs.push(host.local_addr().expect("bound listener has an address"));
        handles.push(host.spawn());
    }
    (handles, addrs)
}

/// The socket counterpart of [`assert_sharded_is_bit_identical`]: the same
/// requests served through [`ShardHost`] daemons over a [`TcpTransport`]
/// must match both the unsharded oracle and the in-process router, bit for
/// bit.
fn assert_tcp_matches_in_process<S>(
    a: &CscMatrix<f64>,
    requests: &[GenRequest],
    semiring: S,
    shards: usize,
    kind: BatchAlgorithmKind,
) -> Result<(), TestCaseError>
where
    S: Semiring<f64, f64> + Clone + 'static,
    S::Output: WireScalar + PartialOrd + std::fmt::Debug,
{
    let config = EngineConfig::default().batch_algorithm(kind);
    let oracle = Engine::over_with(a, semiring.clone(), config.clone());
    let expect: Vec<SparseVec<S::Output>> = {
        let tickets: Vec<_> = requests.iter().map(|r| oracle.submit(build_request(r))).collect();
        oracle.flush();
        tickets
            .iter()
            .map(|t| t.try_take().expect("oracle flush serves").expect("oracle cannot fail"))
            .collect()
    };

    let plan = ShardPlan::balanced(a, shards);
    let local = ShardedEngine::partition_with(a, semiring.clone(), plan.clone(), config.clone());
    let (hosts, addrs) = spawn_hosts(a, &plan, semiring.clone(), &config);
    let remote = ShardedEngine::<f64, f64, S>::connect(
        plan,
        a.nrows(),
        semiring,
        &addrs,
        TcpConfig::default(),
        ObsConfig::default(),
    )
    .expect("dial every freshly spawned host");

    let local_tickets: Vec<_> = requests.iter().map(|r| local.submit(build_request(r))).collect();
    let remote_tickets: Vec<_> = requests.iter().map(|r| remote.submit(build_request(r))).collect();
    local.flush();
    let outcome = remote.flush();
    prop_assert_eq!(outcome.requests, requests.len());
    prop_assert_eq!(outcome.failed, 0, "healthy hosts: nothing may fail: {:?}", outcome.failures);
    prop_assert_eq!(outcome.merged, requests.len());
    prop_assert_eq!(
        outcome.shards_flushed,
        outcome.per_shard.iter().filter(|o| o.requests > 0).count()
    );

    for (i, ((lt, rt), want)) in local_tickets.iter().zip(&remote_tickets).zip(&expect).enumerate()
    {
        let via_local = lt.try_take().expect("local serves").expect("local cannot fail");
        let via_tcp = rt.try_take().expect("remote serves").expect("remote cannot fail");
        prop_assert!(
            via_tcp.same_entries(want),
            "request {} over TCP diverged from the oracle: got {:?}, want {:?}",
            i,
            via_tcp,
            want
        );
        prop_assert!(via_tcp.same_entries(&via_local), "request {} diverged across transports", i);
    }

    // The wire moved real bytes both ways.
    let snap = remote.obs().snapshot();
    prop_assert!(snap.counter("net.bytes.out").unwrap_or(0) > 0);
    prop_assert!(snap.counter("net.bytes.in").unwrap_or(0) > 0);
    drop(remote);
    for host in hosts {
        host.shutdown();
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Transport equivalence: TCP-served results are bit-identical to the
    /// in-process router and the unsharded oracle, across semirings, mask
    /// modes, shard counts, and kernel paths.
    #[test]
    fn tcp_router_matches_in_process_and_oracle(
        (a, requests) in operands(20),
        shards_ix in 0usize..3,
        adaptive in any::<bool>(),
    ) {
        let kind = if adaptive { BatchAlgorithmKind::Adaptive } else { BatchAlgorithmKind::Bucket };
        let shards = [1usize, 2, 3][shards_ix];
        assert_tcp_matches_in_process(&a, &requests, PlusTimes, shards, kind)?;
    }

    /// The same equivalence under `(min, +)` — a second `S::Output` type
    /// travelling the wire.
    #[test]
    fn tcp_router_matches_under_min_plus(
        (a, requests) in operands(16),
        bucket in any::<bool>(),
    ) {
        let kind = if bucket { BatchAlgorithmKind::Bucket } else { BatchAlgorithmKind::Adaptive };
        assert_tcp_matches_in_process(&a, &requests, MinPlus, 3, kind)?;
    }
}

/// A deterministic three-shard fixture: ring + diagonal, so every column
/// owns nnz and per-shard confined frontiers are easy to aim.
fn chaos_fixture(n: usize) -> CscMatrix<f64> {
    let mut coo = CooMatrix::new(n, n);
    for j in 0..n {
        coo.push(j, j, (j + 1) as f64);
        coo.push((j + 3) % n, j, 2.0);
    }
    CscMatrix::from_coo(coo, |x, y| x + y)
}

fn oracle_result(a: &CscMatrix<f64>, x: &SparseVec<f64>) -> SparseVec<f64> {
    let engine = Engine::over(a, PlusTimes);
    let t = engine.submit(MxvRequest::new(x.clone()));
    engine.flush();
    t.try_take().unwrap().unwrap()
}

/// Acceptance: killing one `ShardHost` mid-load fails **only the tickets
/// routed through it** (with its `shard <s>:` attribution), siblings keep
/// serving bit-exact results, and after the host restarts on the same port
/// the router reconnects (`net.reconnects` > 0) with no stranded waiters.
#[test]
fn killed_host_fails_only_its_tickets_then_reconnects() {
    let n = 24;
    let a = chaos_fixture(n);
    let plan = ShardPlan::uniform(n, 3);
    let frontier = |col: usize| SparseVec::from_pairs(n, vec![(col, 2.0)]).unwrap();
    let want: Vec<SparseVec<f64>> =
        [1, 9, 17].iter().map(|&c| oracle_result(&a, &frontier(c))).collect();

    let (mut hosts, addrs) = spawn_hosts(&a, &plan, PlusTimes, &EngineConfig::default());
    let router = ShardedEngine::<f64, f64, PlusTimes>::connect(
        plan.clone(),
        n,
        PlusTimes,
        &addrs,
        TcpConfig::default(),
        ObsConfig::default(),
    )
    .expect("dial all three hosts");

    // Round 1: one confined request per shard, then shard 1's host dies
    // before the flush reaches it.
    let tickets: Vec<_> =
        [1, 9, 17].iter().map(|&c| router.submit(MxvRequest::new(frontier(c)))).collect();
    hosts.remove(1).kill();
    let outcome = router.flush();
    assert_eq!(outcome.requests, 3);
    assert_eq!(outcome.merged, 2, "the two live shards still serve");
    assert_eq!(outcome.failed, 1, "exactly the dead shard's ticket fails");
    assert!(
        outcome.failures.iter().all(|m| m.contains("shard 1:")),
        "failure must name the dead shard: {:?}",
        outcome.failures
    );

    // Every ticket resolved — an outage must never strand a waiter.
    let r0 = tickets[0].try_take().expect("resolved").expect("shard 0 serves");
    assert!(r0.same_entries(&want[0]), "sibling shard 0 diverged");
    match tickets[1].try_take() {
        Some(Err(EngineError::KernelFailed(msg))) => {
            assert!(msg.contains("shard 1:"), "unattributed failure: {msg}")
        }
        other => panic!("dead shard's ticket must fail as KernelFailed, got {other:?}"),
    }
    let r2 = tickets[2].try_take().expect("resolved").expect("shard 2 serves");
    assert!(r2.same_entries(&want[2]), "sibling shard 2 diverged");

    // Restart shard 1 on the *same* port (std listeners set SO_REUSEADDR,
    // so the rebind races only the old accept loop's exit).
    let part1 = a.column_split(plan.bounds()).swap_remove(1);
    let mut rebound = None;
    for _ in 0..50 {
        match ShardHost::bind(
            addrs[1],
            1,
            plan.range(1),
            part1.clone(),
            PlusTimes,
            EngineConfig::default(),
        ) {
            Ok(host) => {
                rebound = Some(host.spawn());
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    let rebound = rebound.expect("host rebinds its old port");

    // Round 2: the full fleet serves again, bit-exact, through a fresh
    // connection.
    let tickets: Vec<_> =
        [1, 9, 17].iter().map(|&c| router.submit(MxvRequest::new(frontier(c)))).collect();
    let outcome = router.flush();
    assert_eq!(outcome.merged, 3, "recovered fleet serves everything: {:?}", outcome.failures);
    for (t, want) in tickets.iter().zip(&want) {
        assert!(t.try_take().expect("resolved").expect("serves").same_entries(want));
    }
    let snap = router.obs().snapshot();
    assert!(
        snap.counter("net.reconnects").unwrap_or(0) > 0,
        "recovery must register as a reconnect"
    );

    drop(router);
    rebound.shutdown();
    for host in hosts {
        host.shutdown();
    }
}

/// Satellite: a deadline that expires *in flight* resolves as
/// `DeadlineExceeded` — never a hung ticket. Checked at the protocol level
/// (a zero budget on the wire never touches the host engine) and end to
/// end through the router.
#[test]
fn deadline_expiring_in_flight_resolves_not_hangs() {
    let n = 8;
    let a = chaos_fixture(n);

    // Protocol level: a raw connection sends a frontier whose budget is
    // already exhausted; the host must answer `DeadlineExceeded` (and the
    // flush summary), not execute it.
    let host =
        ShardHost::bind("127.0.0.1:0", 0, 0..n, a.clone(), PlusTimes, EngineConfig::default())
            .expect("bind");
    let addr = host.local_addr().unwrap();
    let handle = host.spawn();
    let mut stream = TcpStream::connect(addr).expect("dial the host");
    let dead: Frame<f64, f64> = Frame::Frontier(WireFrontier {
        request: 42,
        shard: 0,
        slice: SparseVec::from_pairs(n, vec![(1, 1.0)]).unwrap(),
        deadline_micros: Some(0),
        mask: None,
        pulled: false,
    });
    write_frame(&mut stream, &dead, DEFAULT_MAX_FRAME).unwrap();
    write_frame::<f64, f64, _>(&mut stream, &Frame::Flush, DEFAULT_MAX_FRAME).unwrap();
    let (reply, _) = read_frame::<f64, f64, _>(&mut stream, DEFAULT_MAX_FRAME)
        .expect("reply arrives")
        .expect("not EOF");
    assert!(
        matches!(reply, Frame::Error { request: 42, error: EngineError::DeadlineExceeded, .. }),
        "expired budget must come back DeadlineExceeded, got {reply:?}"
    );
    let (done, _) = read_frame::<f64, f64, _>(&mut stream, DEFAULT_MAX_FRAME)
        .expect("summary arrives")
        .expect("not EOF");
    match done {
        Frame::Done { requests, .. } => {
            assert_eq!(requests, 0, "the dead request never reached the engine")
        }
        other => panic!("expected the Done summary, got {other:?}"),
    }
    write_frame::<f64, f64, _>(&mut stream, &Frame::Goodbye, DEFAULT_MAX_FRAME).unwrap();
    handle.shutdown();

    // End to end: through a connected router, an already-expired deadline
    // resolves `DeadlineExceeded` while a generous one still serves.
    let plan = ShardPlan::uniform(n, 2);
    let (hosts, addrs) = spawn_hosts(&a, &plan, PlusTimes, &EngineConfig::default());
    let router = ShardedEngine::<f64, f64, PlusTimes>::connect(
        plan,
        n,
        PlusTimes,
        &addrs,
        TcpConfig::default(),
        ObsConfig::default(),
    )
    .expect("dial both hosts");
    let x = SparseVec::from_pairs(n, vec![(1, 1.0), (6, 2.0)]).unwrap();
    let expired = router.submit(MxvRequest::new(x.clone()).deadline(Instant::now()));
    let fresh = router
        .submit(MxvRequest::new(x.clone()).deadline(Instant::now() + Duration::from_secs(60)));
    let outcome = router.flush();
    assert_eq!(outcome.requests, 2);
    assert_eq!(outcome.timeouts, 1, "the expired request times out, nothing else");
    assert_eq!(outcome.merged, 1);
    assert!(matches!(expired.try_take(), Some(Err(EngineError::DeadlineExceeded))));
    let got = fresh.try_take().expect("resolved").expect("generous deadline serves");
    assert!(got.same_entries(&oracle_result(&a, &x)));
    drop(router);
    for host in hosts {
        host.shutdown();
    }
}

/// Closing one session and dropping another retires each one's queued
/// requests as `Cancelled` before they reach any shard, while a third
/// session's request still merges — in process and over TCP.
#[test]
fn closed_and_dropped_sessions_retire_only_their_own_requests() {
    fn check(router: &ShardedEngine<f64, f64, PlusTimes>, a: &CscMatrix<f64>, what: &str) {
        let n = a.ncols();
        // Straddles every shard, so each session's request fans out wide.
        let x = SparseVec::from_pairs(n, vec![(0, 1.0), (n / 2, 2.0), (n - 1, 3.0)]).unwrap();
        let closing = router.session();
        let dropping = router.session();
        let survivor = router.session();
        let closed = closing.submit(MxvRequest::new(x.clone()));
        let dropped = dropping.submit(MxvRequest::new(x.clone()));
        let kept = survivor.submit(MxvRequest::new(x.clone()));
        assert_eq!(closing.close(), 1, "{what}: close retires the one queued request");
        drop(dropping);
        assert_eq!(router.pending(), 1, "{what}: only the survivor's request stays queued");
        for (ticket, how) in [(&closed, "closed"), (&dropped, "dropped")] {
            assert!(
                matches!(ticket.try_take(), Some(Err(EngineError::Cancelled))),
                "{what}: a {how} session's request resolves Cancelled"
            );
        }
        assert_eq!(
            router.obs().snapshot().gauge("shard.queue.depth"),
            Some(1),
            "{what}: the queue holds the survivor's routed request"
        );
        let outcome = router.flush();
        assert_eq!((outcome.requests, outcome.merged, outcome.retired), (1, 1, 0), "{what}");
        let y = kept.try_take().expect("resolved").expect("the survivor's request merges");
        assert!(y.same_entries(&oracle_result(a, &x)), "{what}: survivor diverged from oracle");
        drop(survivor);
    }

    let n = 12;
    let a = chaos_fixture(n);
    let plan = ShardPlan::uniform(n, 3);
    let local = ShardedEngine::partition_with(&a, PlusTimes, plan.clone(), EngineConfig::default());
    check(&local, &a, "in process");

    let (hosts, addrs) = spawn_hosts(&a, &plan, PlusTimes, &EngineConfig::default());
    let remote = ShardedEngine::<f64, f64, PlusTimes>::connect(
        plan,
        n,
        PlusTimes,
        &addrs,
        TcpConfig::default(),
        ObsConfig::default(),
    )
    .expect("dial every host");
    check(&remote, &a, "over TCP");
    drop(remote);
    for host in hosts {
        host.shutdown();
    }
}

/// A frontier the host's engine would reject — a slice of the wrong
/// dimension, a mask of the wrong height — comes back as a typed `Error`
/// naming both numbers, and the same connection then serves a valid
/// frontier.
#[test]
fn malformed_frontiers_get_typed_errors_and_the_connection_keeps_serving() {
    let n = 8;
    let a = chaos_fixture(n);
    let host =
        ShardHost::bind("127.0.0.1:0", 0, 0..n, a.clone(), PlusTimes, EngineConfig::default())
            .expect("bind");
    let handle = host.spawn();
    let mut stream = TcpStream::connect(handle.addr()).expect("dial the host");
    let frontier = |request, slice, mask| {
        Frame::<f64, f64>::Frontier(WireFrontier {
            request,
            shard: 0,
            slice,
            deadline_micros: None,
            mask,
            pulled: false,
        })
    };
    let x = SparseVec::from_pairs(n, vec![(1, 1.0), (6, 2.0)]).unwrap();
    let wide = SparseVec::from_pairs(n + 1, vec![(1, 1.0)]).unwrap();
    let short_mask = Some((Arc::new(MaskBits::new(n / 2)), MaskMode::Complement));
    for frame in
        [frontier(1, wide, None), frontier(2, x.clone(), short_mask), frontier(3, x.clone(), None)]
    {
        write_frame(&mut stream, &frame, DEFAULT_MAX_FRAME).unwrap();
    }
    write_frame::<f64, f64, _>(&mut stream, &Frame::Flush, DEFAULT_MAX_FRAME).unwrap();
    let mut next = || {
        read_frame::<f64, f64, _>(&mut stream, DEFAULT_MAX_FRAME)
            .expect("reply arrives")
            .expect("not EOF")
            .0
    };
    for (id, numbers) in [(1, ["dimension 9", "8 columns"]), (2, ["4 rows", "8 output rows"])] {
        match next() {
            Frame::Error { request, error: EngineError::KernelFailed(msg), .. }
                if request == id =>
            {
                assert!(numbers.iter().all(|n| msg.contains(n)), "request {id}: {msg}")
            }
            other => panic!("request {id} must get a typed error, got {other:?}"),
        }
    }
    match next() {
        Frame::Partial { request: 3, partial, .. } => {
            assert!(partial.same_entries(&oracle_result(&a, &x)), "valid frontier diverged")
        }
        other => panic!("the valid frontier must be served, got {other:?}"),
    }
    match next() {
        Frame::Done { requests, .. } => {
            assert_eq!(requests, 1, "only the valid frontier reached the engine")
        }
        other => panic!("expected the Done summary, got {other:?}"),
    }
    write_frame::<f64, f64, _>(&mut stream, &Frame::Goodbye, DEFAULT_MAX_FRAME).unwrap();
    handle.shutdown();
}

/// A shard engine whose bounded `Block` queue holds one request still
/// serves a flush that routes two sub-requests to it: the shard's batch
/// reaches its engine as one call, past the queue, so the flush returns —
/// in process and over TCP. Each flush runs on its own thread under a 10 s
/// watchdog, so a hang fails the test instead of wedging the suite.
#[test]
fn bounded_block_shard_queue_serves_a_wider_flush() {
    fn check(router: ShardedEngine<f64, f64, PlusTimes>, a: &CscMatrix<f64>, what: &str) {
        let n = a.ncols();
        // Both frontiers sit in shard 0's columns.
        let xs = [vec![(0, 1.0), (1, 2.0)], vec![(2, 3.0)]]
            .map(|pairs| SparseVec::from_pairs(n, pairs).unwrap());
        let tickets: Vec<_> =
            xs.iter().map(|x| router.submit(MxvRequest::new(x.clone()))).collect();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(router.flush().merged);
        });
        let merged = rx
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("{what}: the flush did not return within 10 s"));
        assert_eq!(merged, 2, "{what}");
        for (t, x) in tickets.iter().zip(&xs) {
            let y = t.try_take().expect("resolved").expect("served");
            assert!(y.same_entries(&oracle_result(a, x)), "{what}: diverged from the oracle");
        }
    }

    let n = 8;
    let a = chaos_fixture(n);
    let plan = ShardPlan::uniform(n, 2);
    let config = EngineConfig::default().queue_capacity(1);
    assert_eq!(config.overload, OverloadPolicy::Block);
    let local = ShardedEngine::partition_with(&a, PlusTimes, plan.clone(), config.clone());
    check(local, &a, "in process");

    let (hosts, addrs) = spawn_hosts(&a, &plan, PlusTimes, &config);
    let remote = ShardedEngine::<f64, f64, PlusTimes>::connect(
        plan,
        n,
        PlusTimes,
        &addrs,
        TcpConfig::default(),
        ObsConfig::default(),
    )
    .expect("dial both hosts");
    check(remote, &a, "over TCP");
    for host in hosts {
        host.shutdown();
    }
}

/// Two routers on one host: each connection's `Flush` is one engine call
/// over that connection's own frontiers, so neither router's flush can
/// take the other's frontier and leave its sub-request unanswered. First
/// scripted: two connections each leave a frontier at the host, then both
/// flush back to back, and each flush must answer its own frontier. Then
/// two routers: every request of 200 concurrent rounds per router, each
/// two submits and a flush, resolves `Ok`, equal to the oracle.
#[test]
fn two_routers_on_one_host_lose_no_request() {
    const ROUNDS: usize = 200;
    let a = rmat(15, 16, RmatParams::graph500(), 7);
    let n = a.ncols();
    let plan = ShardPlan::uniform(n, 1);
    let (hosts, addrs) = spawn_hosts(&a, &plan, PlusTimes, &EngineConfig::default());
    // 4 000-nnz frontiers with integral values, so every ⊕ is exact.
    let xs: Vec<SparseVec<f64>> = (0..8)
        .map(|seed| {
            let x = random_sparse_vec(n, 4000, seed);
            SparseVec::from_pairs(n, x.iter().map(|(i, v)| (i, (v * 8.0).ceil())).collect())
                .unwrap()
        })
        .collect();
    let oracle: Vec<SparseVec<f64>> = xs.iter().map(|x| oracle_result(&a, x)).collect();

    let mut conns: Vec<TcpStream> =
        (0..2).map(|_| TcpStream::connect(addrs[0]).expect("dial the host")).collect();
    for (c, (stream, x)) in conns.iter_mut().zip(&xs).enumerate() {
        let frontier = Frame::<f64, f64>::Frontier(WireFrontier {
            request: c as u64,
            shard: 0,
            slice: x.clone(),
            deadline_micros: None,
            mask: None,
            pulled: false,
        });
        write_frame(stream, &frontier, DEFAULT_MAX_FRAME).unwrap();
        // The host reads a connection's frames in order: its `Pong` means
        // it has taken the frontier before either connection flushes.
        let ping = Frame::<f64, f64>::Ping { nonce: c as u64 };
        write_frame(stream, &ping, DEFAULT_MAX_FRAME).unwrap();
        let pong =
            read_frame::<f64, f64, _>(stream, DEFAULT_MAX_FRAME).expect("pong").expect("open");
        assert!(matches!(pong.0, Frame::Pong { nonce } if nonce == c as u64));
    }
    for stream in &mut conns {
        write_frame::<f64, f64, _>(stream, &Frame::Flush, DEFAULT_MAX_FRAME).unwrap();
    }
    for (c, stream) in conns.iter_mut().enumerate() {
        let mut next = || {
            read_frame::<f64, f64, _>(stream, DEFAULT_MAX_FRAME).expect("reply").expect("not EOF").0
        };
        match next() {
            Frame::Partial { request, partial, .. } if request == c as u64 => {
                assert!(partial.same_entries(&oracle[c]), "connection {c}: diverged")
            }
            other => panic!("connection {c}: its flush must answer its frontier, got {other:?}"),
        }
        assert!(matches!(next(), Frame::Done { requests: 1, .. }), "connection {c}: one request");
        write_frame::<f64, f64, _>(stream, &Frame::Goodbye, DEFAULT_MAX_FRAME).unwrap();
    }

    std::thread::scope(|scope| {
        for r in 0..2 {
            let (plan, addrs, xs, oracle) = (&plan, &addrs, &xs, &oracle);
            scope.spawn(move || {
                let router = ShardedEngine::<f64, f64, PlusTimes>::connect(
                    plan.clone(),
                    n,
                    PlusTimes,
                    addrs,
                    TcpConfig::default(),
                    ObsConfig::default(),
                )
                .expect("dial the host");
                for round in 0..ROUNDS {
                    let picks = [0, 1].map(|j| (2 * round + r + j) % xs.len());
                    let tickets = picks.map(|k| router.submit(MxvRequest::new(xs[k].clone())));
                    router.flush();
                    for (ticket, k) in tickets.iter().zip(picks) {
                        let y = ticket
                            .try_take()
                            .expect("the flush resolves its ticket")
                            .unwrap_or_else(|e| panic!("router {r}, round {round}: {e}"));
                        assert!(y.same_entries(&oracle[k]), "router {r}, round {round}: diverged");
                    }
                }
            });
        }
    });
    for host in hosts {
        host.shutdown();
    }
}

/// A mask of the wrong height panics at submit, as it does on an unsharded
/// engine, whichever transport carries the shards — it never reaches a
/// host to come back later as a per-shard error.
#[test]
fn wrong_height_mask_panics_at_submit_over_every_transport() {
    let n = 8;
    let a = chaos_fixture(n);
    let plan = ShardPlan::uniform(n, 2);
    let local = ShardedEngine::partition_with(&a, PlusTimes, plan.clone(), EngineConfig::default());
    let (hosts, addrs) = spawn_hosts(&a, &plan, PlusTimes, &EngineConfig::default());
    let remote = ShardedEngine::<f64, f64, PlusTimes>::connect(
        plan,
        n,
        PlusTimes,
        &addrs,
        TcpConfig::default(),
        ObsConfig::default(),
    )
    .expect("dial both hosts");

    let x = SparseVec::from_pairs(n, vec![(1, 1.0), (6, 2.0)]).unwrap();
    let short = || MxvRequest::new(x.clone()).mask(MaskBits::new(n / 2), MaskMode::Keep);
    for (what, router) in [("in-process", &local), ("tcp", &remote)] {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            router.submit(short());
        }))
        .expect_err(&format!("{what}: a 4-row mask over 8 rows must panic at submit"));
        let msg = payload.downcast_ref::<String>().map(String::as_str).unwrap_or_default();
        assert!(msg.contains("mask covers"), "{what}: panicked with {msg:?}");
        assert_eq!(router.pending(), 0, "{what}: nothing may be queued");
    }
    drop(remote);
    for host in hosts {
        host.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Replication: failover, discovery handshake, heartbeat.
// ---------------------------------------------------------------------------

/// Spawns `replicas` [`ShardHost`]s per shard of `plan`, every replica of a
/// shard loaded with the same column slice.
fn spawn_replicated_hosts<X, S>(
    a: &CscMatrix<f64>,
    plan: &ShardPlan,
    semiring: S,
    replicas: usize,
    config: &EngineConfig,
) -> (Vec<Vec<ShardHostHandle>>, Vec<Vec<SocketAddr>>)
where
    X: WireScalar,
    S: Semiring<f64, X> + Clone + 'static,
    S::Output: WireScalar,
{
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
                semiring.clone(),
                config.clone(),
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

/// A transport config for failover tests: no background heartbeat (the
/// exchange itself must discover the corpse) and short re-dial budgets so
/// dead-primary attempts fail fast.
fn failover_config() -> TcpConfig {
    TcpConfig {
        connect_retries: 1,
        retry_backoff: Duration::from_millis(1),
        heartbeat: None,
        ..TcpConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tentpole acceptance: with two replicas per shard, killing **every
    /// primary** mid-load yields zero failed tickets — the router fails
    /// over to the surviving replicas and the results stay bit-identical
    /// to the unsharded oracle.
    #[test]
    fn killed_primaries_fail_over_bit_identically(
        (a, requests) in operands(28),
        shards in 2usize..4,
    ) {
        let bucket = EngineConfig::default().batch_algorithm(BatchAlgorithmKind::Bucket);
        let oracle = Engine::over_with(&a, PlusTimes, bucket.clone());
        let expect: Vec<SparseVec<f64>> = {
            let tickets: Vec<_> = requests
                .iter()
                .map(|r| oracle.submit(build_request(r)))
                .collect();
            oracle.flush();
            tickets
                .iter()
                .map(|t| t.try_take().expect("oracle flush serves").expect("oracle cannot fail"))
                .collect()
        };

        let plan = ShardPlan::balanced(&a, shards).with_fingerprints_of(&a);
        let (mut hosts, groups) = spawn_replicated_hosts(&a, &plan, PlusTimes, 2, &bucket);
        let router = ShardedEngine::<f64, f64, PlusTimes>::connect_replicated(
            plan,
            a.nrows(),
            PlusTimes,
            &groups,
            failover_config(),
            ObsConfig::default(),
        )
        .expect("dial every replica of every shard");

        // Kill every primary before the first flush ever reaches it.
        for group in &mut hosts {
            group.remove(0).kill();
        }

        let tickets: Vec<_> = requests
            .iter()
            .map(|r| router.submit(build_request(r)))
            .collect();
        let outcome = router.flush();
        prop_assert_eq!(
            outcome.failed, 0,
            "replicas must absorb every primary death: {:?}",
            outcome.failures
        );
        for (t, want) in tickets.iter().zip(&expect) {
            let got = t.try_take().expect("resolved").expect("replica serves");
            prop_assert!(
                got.same_entries(want),
                "failover result diverged from the oracle:\n got {got:?}\nwant {want:?}"
            );
        }
        let snap = router.obs().snapshot();
        prop_assert!(
            snap.counter("shard.replica.failovers").unwrap_or(0) >= 1,
            "a dead primary must register as a failover"
        );

        drop(router);
        for group in hosts {
            for host in group {
                host.shutdown();
            }
        }
    }
}

/// The proptest above kills the primaries before the first flush; here they
/// die **between flushes of a fleet that has already served through them**,
/// so the router discovers each corpse on a connection it has used. Every
/// round after the kill must still serve every ticket, bit-identical to the
/// unsharded oracle, and each shard's primary must register as a failover.
#[test]
fn primaries_killed_between_flushes_lose_no_ticket() {
    let n = 24;
    let shards = 3;
    let a = chaos_fixture(n);
    let plan = ShardPlan::uniform(n, shards).with_fingerprints_of(&a);
    // Four requests per round; each touches one column of every shard, every
    // third one under a complement mask.
    let request = |round: usize, i: usize| {
        let pairs = (0..shards).map(|s| (8 * s + (round + 3 * i) % 8, (1 + round + i) as f64));
        let req = MxvRequest::new(SparseVec::from_pairs(n, pairs.collect()).unwrap());
        if (round + i).is_multiple_of(3) {
            req.mask(MaskBits::from_indices(n, (i..n).step_by(2)), MaskMode::Complement)
        } else {
            req
        }
    };
    let oracle = Engine::over(&a, PlusTimes);

    let (mut hosts, groups) =
        spawn_replicated_hosts(&a, &plan, PlusTimes, 2, &EngineConfig::default());
    let router = ShardedEngine::<f64, f64, PlusTimes>::connect_replicated(
        plan,
        n,
        PlusTimes,
        &groups,
        failover_config(),
        ObsConfig::default(),
    )
    .expect("dial the replicated fleet");

    let failovers = || router.obs().snapshot().counter("shard.replica.failovers").unwrap_or(0);
    for round in 0..4 {
        if round == 1 {
            assert_eq!(failovers(), 0, "round 0 must have been served by the primaries");
            for group in &mut hosts {
                group.remove(0).kill();
            }
        }
        let tickets: Vec<_> = (0..4).map(|i| router.submit(request(round, i))).collect();
        let expect: Vec<_> = (0..4).map(|i| oracle.submit(request(round, i))).collect();
        let outcome = router.flush();
        oracle.flush();
        assert_eq!(outcome.failed, 0, "round {round}: {:?}", outcome.failures);
        for (t, want) in tickets.iter().zip(&expect) {
            let got = t.try_take().expect("resolved").expect("a replica serves");
            let want = want.try_take().expect("oracle flush serves").expect("oracle cannot fail");
            assert!(got.same_entries(&want), "round {round} diverged from the oracle");
        }
    }
    assert!(failovers() >= shards as u64, "each dead primary is one failover: {}", failovers());

    drop(router);
    for group in hosts {
        for host in group {
            host.shutdown();
        }
    }
}

/// Satellite: the `single_shard_outage` blast radius shrinks to **zero**
/// when the shard has a replica — the same kill that fails one ticket on a
/// replica-less fleet fails none here.
#[test]
fn replica_shrinks_outage_blast_radius_to_zero() {
    let n = 24;
    let a = chaos_fixture(n);
    let plan = ShardPlan::uniform(n, 3).with_fingerprints_of(&a);
    let frontier = |col: usize| SparseVec::from_pairs(n, vec![(col, 2.0)]).unwrap();
    let want: Vec<SparseVec<f64>> =
        [1, 9, 17].iter().map(|&c| oracle_result(&a, &frontier(c))).collect();

    let (mut hosts, groups) =
        spawn_replicated_hosts(&a, &plan, PlusTimes, 2, &EngineConfig::default());
    let router = ShardedEngine::<f64, f64, PlusTimes>::connect_replicated(
        plan,
        n,
        PlusTimes,
        &groups,
        failover_config(),
        ObsConfig::default(),
    )
    .expect("dial the replicated fleet");

    // One confined request per shard, then shard 1's *primary* dies.
    let tickets: Vec<_> =
        [1, 9, 17].iter().map(|&c| router.submit(MxvRequest::new(frontier(c)))).collect();
    hosts[1].remove(0).kill();
    let outcome = router.flush();
    assert_eq!(outcome.requests, 3);
    assert_eq!(outcome.failed, 0, "the replica absorbs the outage: {:?}", outcome.failures);
    assert_eq!(outcome.merged, 3, "every ticket serves");
    for (t, want) in tickets.iter().zip(&want) {
        let got = t.try_take().expect("resolved").expect("serves through the replica");
        assert!(got.same_entries(want), "replica result diverged");
    }
    let snap = router.obs().snapshot();
    assert!(
        snap.counter("shard.replica.failovers").unwrap_or(0) >= 1,
        "the mid-flush failover must be counted"
    );
    assert_eq!(snap.counter("shard.failed").unwrap_or(0), 0, "no ticket failure may be recorded");

    drop(router);
    for group in hosts {
        for host in group {
            host.shutdown();
        }
    }
}

/// Tentpole acceptance: a host that advertises the wrong shard, range, or
/// matrix fingerprint in its `Welcome` is rejected at dial time as a typed
/// `PlanMismatch` — before it can serve a single wrong partial.
#[test]
fn plan_mismatch_is_rejected_at_dial_time() {
    let n = 24;
    let a = chaos_fixture(n);
    let plan = ShardPlan::uniform(n, 2).with_fingerprints_of(&a);

    // Wrong shard/range: cross-wire the two hosts' addresses.
    let (hosts, groups) = spawn_replicated_hosts(&a, &plan, PlusTimes, 1, &EngineConfig::default());
    let crossed = vec![groups[1].clone(), groups[0].clone()];
    match ShardedEngine::<f64, f64, PlusTimes>::connect_replicated(
        plan.clone(),
        n,
        PlusTimes,
        &crossed,
        failover_config(),
        ObsConfig::default(),
    ) {
        Err(ConnectError::PlanMismatch { shard: 0, reason, .. }) => {
            assert!(reason.contains("shard"), "reason should name the contradiction: {reason}")
        }
        Err(other) => panic!("crossed wiring must be PlanMismatch, got {other:?}"),
        Ok(_) => panic!("crossed wiring must not dial"),
    }

    // Wrong fingerprint: the fleet serves a structurally different matrix.
    let mut coo = CooMatrix::new(n, n);
    for j in 0..n {
        coo.push((j + 1) % n, j, 1.0);
    }
    let b = CscMatrix::from_coo(coo, |x, y| x + y);
    let stale_plan = ShardPlan::uniform(n, 2).with_fingerprints_of(&b);
    match ShardedEngine::<f64, f64, PlusTimes>::connect_replicated(
        stale_plan,
        n,
        PlusTimes,
        &groups,
        failover_config(),
        ObsConfig::default(),
    ) {
        Err(ConnectError::PlanMismatch { reason, .. }) => {
            assert!(reason.contains("fingerprint"), "reason should name the fingerprint: {reason}")
        }
        Err(other) => panic!("stale fingerprint must be PlanMismatch, got {other:?}"),
        Ok(_) => panic!("a stale fingerprint must not dial"),
    }

    // Wrong height: shard 0's slice, one row taller than the plan's output.
    let part = a.column_split(plan.bounds()).swap_remove(0);
    let mut coo = CooMatrix::new(n + 1, part.ncols());
    for (i, j, &v) in part.iter() {
        coo.push(i, j, v);
    }
    let tall = ShardHost::bind(
        "127.0.0.1:0",
        0,
        plan.range(0),
        CscMatrix::from_coo(coo, |x, _| x),
        PlusTimes,
        EngineConfig::default(),
    )
    .expect("bind an ephemeral localhost port");
    let tall_addr = tall.local_addr().expect("bound listener has an address");
    let tall = tall.spawn();
    let dial = |fleet: &[Vec<SocketAddr>]| {
        ShardedEngine::<f64, f64, PlusTimes>::connect_replicated(
            plan.clone(),
            n,
            PlusTimes,
            fleet,
            failover_config(),
            ObsConfig::default(),
        )
    };
    match dial(&[vec![tall_addr], groups[1].clone()]) {
        Err(ConnectError::PlanMismatch { shard: 0, reason, .. }) => {
            assert!(reason.contains("height"), "reason should name the height: {reason}")
        }
        Err(other) => panic!("a wrong-height Welcome must be PlanMismatch, got {other:?}"),
        Ok(_) => panic!("a wrong-height host must not dial"),
    }

    // A misconfigured replica beside a healthy primary: the dial fails too,
    // naming the misconfigured address, not the healthy one.
    match dial(&[vec![groups[0][0], tall_addr], groups[1].clone()]) {
        Err(ConnectError::PlanMismatch { shard: 0, addr, reason }) => {
            assert_eq!(addr, tall_addr, "the error must name the misconfigured replica");
            assert!(reason.contains("height"), "reason should name the height: {reason}")
        }
        Err(other) => panic!("a misconfigured replica must be PlanMismatch, got {other:?}"),
        Ok(_) => panic!("a fleet with a misconfigured replica must not dial"),
    }
    tall.shutdown();

    // The matching plan still dials fine — and counts the rejections above.
    let router = ShardedEngine::<f64, f64, PlusTimes>::connect_replicated(
        plan,
        n,
        PlusTimes,
        &groups,
        failover_config(),
        ObsConfig::default(),
    )
    .expect("the truthful fleet dials");
    drop(router);
    for group in hosts {
        for host in group {
            host.shutdown();
        }
    }
}

/// Tentpole acceptance: the background heartbeat marks a dead primary
/// unhealthy **between** flushes, so the next flush routes straight to the
/// replica — no mid-flush failover needed.
#[test]
fn heartbeat_marks_dead_replica_unhealthy_before_a_flush() {
    let n = 24;
    let a = chaos_fixture(n);
    let plan = ShardPlan::uniform(n, 1).with_fingerprints_of(&a);
    let frontier = SparseVec::from_pairs(n, vec![(5, 2.0)]).unwrap();
    let want = oracle_result(&a, &frontier);

    let (mut hosts, groups) =
        spawn_replicated_hosts(&a, &plan, PlusTimes, 2, &EngineConfig::default());
    let config = TcpConfig {
        connect_retries: 0,
        heartbeat: Some(Duration::from_millis(10)),
        // A cooldown far longer than the test: once the heartbeat trips the
        // dead primary, nothing re-admits it.
        breaker_cooldown: Duration::from_secs(60),
        ..TcpConfig::default()
    };
    let router = ShardedEngine::<f64, f64, PlusTimes>::connect_replicated(
        plan,
        n,
        PlusTimes,
        &groups,
        config,
        ObsConfig::default(),
    )
    .expect("dial both replicas");

    hosts[0].remove(0).kill();
    // Give the 10 ms heartbeat ample time to notice the corpse.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let snap = router.obs().snapshot();
        if snap.gauge("net.health.unhealthy").unwrap_or(0) >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "heartbeat never marked the dead primary unhealthy");
        std::thread::sleep(Duration::from_millis(5));
    }
    let snap = router.obs().snapshot();
    assert!(snap.counter("net.health.probes").unwrap_or(0) >= 1, "probes must be counted");
    assert!(snap.counter("net.health.failures").unwrap_or(0) >= 1, "the death is a probe failure");

    // The flush that follows routes to the replica *first*: it serves with
    // zero mid-flush failovers.
    let ticket = router.submit(MxvRequest::new(frontier));
    let outcome = router.flush();
    assert_eq!(outcome.failed, 0, "replica serves: {:?}", outcome.failures);
    let got = ticket.try_take().expect("resolved").expect("serves");
    assert!(got.same_entries(&want), "heartbeat-routed result diverged");
    let snap = router.obs().snapshot();
    assert_eq!(
        snap.counter("shard.replica.failovers").unwrap_or(0),
        0,
        "the heartbeat routed around the corpse before the flush"
    );

    drop(router);
    for group in hosts {
        for host in group {
            host.shutdown();
        }
    }
}

/// The drawn operands above never earn a second participant. This seeded
/// case does. Sharded two ways and unsharded, through engines of either
/// family, every lane equals its independent sequential-SPA run bit for
/// bit. The unsharded engine's lanes reach a bucket lane split four ways,
/// Adaptive's bucket delegate and Adaptive's pull (shown by replaying each
/// lane, and by the global `adaptive.single.*` counters, which no other
/// test of this file can move past zero for bucket); on every shard the unmasked lane's share of the frontier still
/// earns several participants alone, so each shard runs it on a split
/// bucket kernel (Adaptive never pulls on a column slice; the router pulls
/// the dense masked lane, and each shard pulls its own rows of it).
#[test]
fn large_operands_shard_bit_identically_to_sequential_runs() {
    let a = large_case::matrix();
    let requests = large_case::requests();
    let oracle: Vec<SparseVec<usize>> =
        requests.iter().map(|r| large_case::sequential(&a, r)).collect();
    let plan = ShardPlan::balanced(&a, 2);
    let executor = Executor::new(large_case::THREADS);
    for s in 0..plan.num_shards() {
        let range = plan.range(s);
        let columns = requests[0].frontier.indices().iter().filter(|j| range.contains(j));
        let flops: usize = columns.map(|&j| a.column_nnz(j)).sum();
        assert!(executor.capped_for(flops).threads() >= 2, "shard {s}: {flops} flops");
    }
    let options = SpMSpVOptions::with_threads(large_case::THREADS);
    for kind in [BatchAlgorithmKind::Bucket, BatchAlgorithmKind::Adaptive] {
        let config = EngineConfig::default().batch_algorithm(kind).options(options.clone());
        let unsharded = Engine::over_with(&a, Select2ndMin, config.clone());
        let router = ShardedEngine::partition_with(&a, Select2ndMin, plan.clone(), config);
        let local: Vec<_> = requests.iter().map(|r| unsharded.submit(r.mxv())).collect();
        let routed: Vec<_> = requests.iter().map(|r| router.submit(r.mxv())).collect();
        let before = large_case::adaptive_picks();
        unsharded.flush();
        let after = large_case::adaptive_picks();
        let outcome = router.flush();
        assert_eq!((outcome.merged, outcome.failed), (requests.len(), 0), "{kind}");
        for (i, ((l, r), want)) in local.iter().zip(&routed).zip(&oracle).enumerate() {
            let via_engine = l.try_take().expect("served").expect("succeeded");
            let via_shards = r.try_take().expect("served").expect("succeeded");
            assert_eq!(&via_engine, want, "{kind}: request {i} unsharded");
            assert_eq!(&via_shards, want, "{kind}: request {i} sharded");
        }

        let paths = large_case::replay(&a, &requests, kind);
        let pulled = if kind == BatchAlgorithmKind::Adaptive {
            [(AlgorithmKind::Pull, 1), (AlgorithmKind::Sequential, 1)]
        } else {
            [(AlgorithmKind::Bucket, 1), (AlgorithmKind::Bucket, 1)]
        };
        assert_eq!(paths[0], (AlgorithmKind::Bucket, 4), "{kind}: the unmasked lane");
        assert_eq!(paths[1..], pulled, "{kind}: the masked lanes");
        if kind == BatchAlgorithmKind::Adaptive && obs::global().enabled() {
            let counted = after.iter().zip(before).all(|(after, before)| *after > before);
            assert!(counted, "bucket and pull picks {before:?} → {after:?}");
        }
    }
}

// ---------------------------------------------------------------------------
// Pulled requests: every shard answers the rows it owns.
// ---------------------------------------------------------------------------

/// Strategy: a random symmetric pattern (unit entries, at least as many
/// edges as vertices, so a whole-vertex frontier always passes the pull
/// gates).
fn symmetric_strategy(max_dim: usize) -> impl Strategy<Value = CscMatrix<f64>> {
    (8usize..max_dim).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), n..4 * n).prop_map(move |edges| {
            let mut coo = CooMatrix::new(n, n);
            for (i, j) in edges {
                coo.push(i, j, 1.0);
                coo.push(j, i, 1.0);
            }
            CscMatrix::from_coo(coo, |x, _| x)
        })
    })
}

/// One BFS-shaped request: frontier vertices, each carrying its own id, and
/// the mask's rows — between one and `n − 1` of them, so either mode keeps
/// a row.
#[derive(Debug, Clone)]
struct BfsRequest {
    frontier: Vec<usize>,
    rows: Vec<usize>,
}

impl BfsRequest {
    fn mxv(&self, n: usize, mode: MaskMode) -> MxvRequest<usize> {
        let pairs = self.frontier.iter().map(|&v| (v, v)).collect();
        let frontier = SparseVec::from_pairs(n, pairs).expect("distinct in-range vertices");
        MxvRequest::new(frontier).mask(MaskBits::from_indices(n, self.rows.iter().copied()), mode)
    }
}

/// A symmetric matrix and up to five requests, the first of which pushes
/// every vertex (dense enough for Beamer's rule, so the router pulls it).
fn bfs_operands(max_dim: usize) -> impl Strategy<Value = (CscMatrix<f64>, Vec<BfsRequest>)> {
    symmetric_strategy(max_dim).prop_flat_map(|a| {
        let n = a.ncols();
        // Between one and `n − 1` distinct vertices.
        let vertices = move || proptest::collection::btree_map(0..n, 0..1usize, 1..n);
        let request = (vertices(), vertices()).prop_map(|(frontier, rows)| BfsRequest {
            frontier: frontier.into_keys().collect(),
            rows: rows.into_keys().collect(),
        });
        let dense = vertices().prop_map(move |rows| BfsRequest {
            frontier: (0..n).collect(),
            rows: rows.into_keys().collect(),
        });
        (Just(a), dense, proptest::collection::vec(request, 0..5)).prop_map(|(a, dense, rest)| {
            let mut requests = vec![dense];
            requests.extend(rest);
            (a, requests)
        })
    })
}

/// Serves `requests` under `mode` through `router` and asserts each result
/// equals `expect` bit for bit. Returns the flush's outcome.
fn serve_bfs(
    router: &ShardedEngine<f64, usize, Select2ndMin>,
    n: usize,
    requests: &[BfsRequest],
    mode: MaskMode,
    expect: &[SparseVec<usize>],
    what: &str,
) -> Result<spmspv::shard::ShardFlushOutcome, TestCaseError> {
    let tickets: Vec<_> = requests.iter().map(|r| router.submit(r.mxv(n, mode))).collect();
    let outcome = router.flush();
    prop_assert_eq!(outcome.failed, 0, "{}: {:?}", what, outcome.failures);
    for (i, (t, want)) in tickets.iter().zip(expect).enumerate() {
        let got = t.try_take().expect("flush serves").expect("healthy fleet");
        prop_assert_eq!(&got, want, "{}: request {}", what, i);
    }
    Ok(outcome)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Tentpole acceptance: pulled requests — shards answer their own rows,
    /// the router concatenates — are bit-identical to an unsharded engine,
    /// in process, over TCP, and over TCP after every primary was killed
    /// (the next flush fails over mid-flush), under both mask modes.
    #[test]
    fn pulled_requests_match_unsharded_tcp_and_failover(
        (a, requests) in bfs_operands(48),
        shards in 2usize..4,
        keep in any::<bool>(),
    ) {
        let n = a.ncols();
        let mode = if keep { MaskMode::Keep } else { MaskMode::Complement };
        let oracle = Engine::over(&a, Select2ndMin);
        let tickets: Vec<_> = requests.iter().map(|r| oracle.submit(r.mxv(n, mode))).collect();
        oracle.flush();
        let expect: Vec<SparseVec<usize>> = tickets
            .iter()
            .map(|t| t.try_take().expect("oracle flush serves").expect("oracle cannot fail"))
            .collect();

        let plan = ShardPlan::balanced(&a, shards);
        let local =
            ShardedEngine::partition_with(&a, Select2ndMin, plan.clone(), EngineConfig::default());
        let outcome = serve_bfs(&local, n, &requests, mode, &expect, "in process")?;
        prop_assert!(outcome.pulled > 0, "the whole-vertex request must pull");
        prop_assert_eq!(local.obs().snapshot().counter("shard.pulls"), Some(outcome.pulled as u64));

        let plan = plan.with_fingerprints_of(&a);
        let (mut hosts, groups) =
            spawn_replicated_hosts(&a, &plan, Select2ndMin, 2, &EngineConfig::default());
        let remote = ShardedEngine::<f64, usize, Select2ndMin>::connect_replicated(
            plan,
            n,
            Select2ndMin,
            &groups,
            failover_config(),
            ObsConfig::default(),
        )
        .expect("dial every replica of every shard");
        let over_tcp = serve_bfs(&remote, n, &requests, mode, &expect, "over TCP")?;
        prop_assert_eq!(over_tcp.pulled, outcome.pulled, "the router decides alike over TCP");
        for group in &mut hosts {
            group.remove(0).kill();
        }
        let failed_over = serve_bfs(&remote, n, &requests, mode, &expect, "after failover")?;
        prop_assert_eq!(failed_over.pulled, outcome.pulled);
        let snap = remote.obs().snapshot();
        prop_assert!(snap.counter("shard.replica.failovers").unwrap_or(0) >= 1);
        drop(remote);
        for group in hosts {
            for host in group {
                host.shutdown();
            }
        }
    }
}

/// A symmetric fixture for the deterministic pull cases: a ring with chords,
/// every vertex of degree 4.
fn symmetric_fixture(n: usize) -> CscMatrix<f64> {
    let mut coo = CooMatrix::new(n, n);
    for j in 0..n {
        for step in [1, 5] {
            coo.push((j + step) % n, j, 1.0);
            coo.push(j, (j + step) % n, 1.0);
        }
    }
    CscMatrix::from_coo(coo, |x, _| x)
}

/// Serves one request through an unsharded engine and through `router`,
/// asserting they agree bit for bit; returns how many requests the router
/// pulled.
fn pulled_count<X, S>(
    a: &CscMatrix<f64>,
    router: &ShardedEngine<f64, X, S>,
    semiring: S,
    request: MxvRequest<X>,
) -> usize
where
    X: Scalar,
    S: Semiring<f64, X> + Clone + 'static,
    S::Output: PartialEq + std::fmt::Debug,
{
    let pulls = || router.obs().snapshot().counter("shard.pulls").unwrap_or(0);
    let before = pulls();
    let oracle = Engine::over(a, semiring);
    let want = oracle.submit(request.clone());
    let got = router.submit(request);
    oracle.flush();
    let outcome = router.flush();
    assert_eq!(outcome.failed, 0, "{:?}", outcome.failures);
    let want = want.try_take().expect("served").expect("oracle cannot fail");
    assert_eq!(got.try_take().expect("served").expect("router cannot fail"), want);
    assert_eq!(pulls() - before, outcome.pulled as u64, "shard.pulls counts what the flush pulled");
    outcome.pulled
}

/// Each condition of exact pull, broken alone, keeps today's scatter path
/// and today's results: a non-symmetric matrix, `PlusTimes`, frontier
/// values that descend, and a TCP plan without fingerprints. The same
/// request pulls once the condition holds again.
#[test]
fn requests_that_cannot_pull_keep_the_scatter_path() {
    let n = 48;
    let a = symmetric_fixture(n);
    let visited = MaskBits::from_indices(n, (0..n).filter(|v| v % 4 != 1));
    let all: Vec<usize> = (0..n).collect();
    let bfs = |values: &[usize]| {
        let x = SparseVec::from_parts(n, all.clone(), values.to_vec()).unwrap();
        MxvRequest::new(x).mask(visited.clone(), MaskMode::Complement)
    };
    let plan = ShardPlan::balanced(&a, 3);
    let config = EngineConfig::default();
    let router = ShardedEngine::partition_with(&a, Select2ndMin, plan.clone(), config.clone());
    assert_eq!(pulled_count(&a, &router, Select2ndMin, bfs(&all)), 1, "the control pulls");

    // Descending frontier values: the first hit is no longer the min.
    let descending: Vec<usize> = (0..n).rev().collect();
    assert_eq!(pulled_count(&a, &router, Select2ndMin, bfs(&descending)), 0, "descending");

    // PlusTimes: the first hit is not the sum.
    let numeric = ShardedEngine::partition_with(&a, PlusTimes, plan.clone(), config.clone());
    let x = SparseVec::from_parts(n, all.clone(), vec![1.0; n]).unwrap();
    let request = MxvRequest::new(x).mask(visited.clone(), MaskMode::Complement);
    assert_eq!(pulled_count(&a, &numeric, PlusTimes, request), 0, "PlusTimes");

    // A non-symmetric matrix: one chord loses its mirror.
    let mut coo = CooMatrix::new(n, n);
    for (i, j, &v) in a.iter().filter(|&(i, j, _)| (i, j) != (5, 0)) {
        coo.push(i, j, v);
    }
    let lopsided = CscMatrix::from_coo(coo, |x, _| x);
    let router = ShardedEngine::partition_with(&lopsided, Select2ndMin, plan.clone(), config);
    assert_eq!(pulled_count(&lopsided, &router, Select2ndMin, bfs(&all)), 0, "non-symmetric");

    // Over TCP, only a fingerprinted plan carries the degrees the rule reads.
    let (hosts, groups) =
        spawn_replicated_hosts(&a, &plan, Select2ndMin, 1, &EngineConfig::default());
    for (fingerprinted, want) in [(false, 0), (true, 1)] {
        let plan = if fingerprinted { plan.clone().with_fingerprints_of(&a) } else { plan.clone() };
        let remote = ShardedEngine::<f64, usize, Select2ndMin>::connect_replicated(
            plan,
            n,
            Select2ndMin,
            &groups,
            failover_config(),
            ObsConfig::default(),
        )
        .expect("dial the fleet");
        let what = if fingerprinted { "fingerprinted" } else { "without fingerprints" };
        assert_eq!(pulled_count(&a, &remote, Select2ndMin, bfs(&all)), want, "TCP {what}");
    }
    for group in hosts {
        for host in group {
            host.shutdown();
        }
    }
}

/// A pulled request goes only to the shards whose rows of the mask keep
/// one: with every kept row in the middle shard, that shard alone runs it,
/// under either mask mode.
#[test]
fn a_pulled_request_fans_out_only_to_shards_owning_kept_rows() {
    let n = 48;
    let a = symmetric_fixture(n);
    let plan = ShardPlan::uniform(n, 3);
    let middle = plan.range(1);
    let all: Vec<usize> = (0..n).collect();
    let x = SparseVec::from_parts(n, all.clone(), all).unwrap();
    let kept_in_middle = MaskBits::from_indices(n, middle.clone().step_by(3));
    let visited_outside = MaskBits::from_indices(n, (0..n).filter(|v| !middle.contains(v)));
    for (bits, mode) in [(kept_in_middle, MaskMode::Keep), (visited_outside, MaskMode::Complement)]
    {
        let router =
            ShardedEngine::partition_with(&a, Select2ndMin, plan.clone(), EngineConfig::default());
        let request = MxvRequest::new(x.clone()).mask(bits, mode);
        let oracle = Engine::over(&a, Select2ndMin);
        let want = oracle.submit(request.clone());
        let got = router.submit(request);
        oracle.flush();
        let outcome = router.flush();
        assert_eq!((outcome.pulled, outcome.merged), (1, 1), "{mode:?}");
        let requests: Vec<usize> = outcome.per_shard.iter().map(|o| o.requests).collect();
        assert_eq!(requests, [0, 1, 0], "{mode:?}: only the middle shard runs it");
        assert_eq!(outcome.shards_flushed, 1, "{mode:?}");
        let fanout = router.obs().snapshot().histogram("shard.fanout").cloned();
        assert_eq!(fanout.map(|h| (h.count, h.mean())), Some((1, 1.0)), "{mode:?}");
        let want = want.try_take().expect("served").expect("oracle cannot fail");
        assert!(want.nnz() > 0, "{mode:?}: the middle shard finds parents");
        assert_eq!(got.try_take().expect("served").expect("router cannot fail"), want);
    }
}

/// Byzantine defense for pulled requests: a host that answers a `Pulled`
/// frontier with a full-height partial instead of its own rows is
/// quarantined as `WrongHeight`, and only the tickets routed through it
/// fail.
#[test]
fn a_full_height_answer_to_a_pulled_request_is_quarantined() {
    let n = 48;
    let a = symmetric_fixture(n);
    let plan = ShardPlan::uniform(n, 2).with_fingerprints_of(&a);
    let (lo, hi) = (plan.range(0).start, plan.range(0).end);

    // Shard 0 is a fake host: it passes the handshake with the right
    // advertisement, then answers every frontier with an empty partial of
    // the output's full height.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let fake_addr = listener.local_addr().unwrap();
    let fingerprint = a.column_slice(lo..hi).fingerprint();
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("the router dials");
        let mut asked = Vec::new();
        while let Ok(Some((frame, _))) =
            read_frame::<usize, usize, _>(&mut stream, DEFAULT_MAX_FRAME)
        {
            let replies: Vec<Frame<usize, usize>> = match frame {
                Frame::Hello => vec![Frame::Welcome {
                    shard: 0,
                    col_start: lo,
                    col_end: hi,
                    nrows: n,
                    fingerprint,
                }],
                Frame::Frontier(w) => {
                    asked.push(w.request);
                    Vec::new()
                }
                Frame::Flush => asked
                    .drain(..)
                    .map(|request| Frame::Partial { request, shard: 0, partial: SparseVec::new(n) })
                    .collect(),
                _ => break,
            };
            for reply in replies {
                if write_frame(&mut stream, &reply, DEFAULT_MAX_FRAME).is_err() {
                    return;
                }
            }
        }
    });
    let (hosts, groups) =
        spawn_replicated_hosts(&a, &plan, Select2ndMin, 1, &EngineConfig::default());
    let router = ShardedEngine::<f64, usize, Select2ndMin>::connect_replicated(
        plan,
        n,
        Select2ndMin,
        &[vec![fake_addr], groups[1].clone()],
        failover_config(),
        ObsConfig::default(),
    )
    .expect("the fake host passes the handshake");

    let all: Vec<usize> = (0..n).collect();
    let x = SparseVec::from_parts(n, all.clone(), all).unwrap();
    let visited = MaskBits::from_indices(n, (0..n).filter(|v| v % 3 != 0));
    let pulled = router.submit(MxvRequest::new(x).mask(visited, MaskMode::Complement));
    // Shard 1's columns only: a pushed request the fake never sees.
    let pushed = router.submit(MxvRequest::new(SparseVec::from_pairs(n, vec![(hi, hi)]).unwrap()));
    let outcome = router.flush();
    assert_eq!((outcome.pulled, outcome.failed, outcome.merged), (1, 1, 1));
    match pulled.try_take() {
        Some(Err(EngineError::KernelFailed(msg))) => assert!(
            msg.contains("shard 0:")
                && msg.contains(&format!("partial height {n} != expected height {}", hi - lo)),
            "the quarantine must name the height: {msg}"
        ),
        other => panic!("the pulled request must fail as KernelFailed, got {other:?}"),
    }
    assert!(pushed.try_take().expect("served").is_ok(), "shard 1's own request still merges");
    let snap = router.obs().snapshot();
    assert_eq!(snap.counter("shard.replica.quarantined"), Some(1));
    drop(router);
    fake.join().expect("the fake host exits once the router hangs up");
    for group in hosts {
        for host in group {
            host.shutdown();
        }
    }
}
