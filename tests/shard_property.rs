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
use std::time::{Duration, Instant};

use proptest::prelude::*;
use sparse_substrate::{
    CooMatrix, CscMatrix, MaskBits, MinPlus, PlusTimes, Scalar, Select2ndMin, Semiring, SparseVec,
};
use spmspv::engine::{Engine, EngineConfig, EngineError, MxvRequest};
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
        })
    };
    let x = SparseVec::from_pairs(n, vec![(1, 1.0), (6, 2.0)]).unwrap();
    let wide = SparseVec::from_pairs(n + 1, vec![(1, 1.0)]).unwrap();
    let short_mask = Some((MaskBits::new(n / 2), MaskMode::Complement));
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
fn spawn_replicated_hosts(
    a: &CscMatrix<f64>,
    plan: &ShardPlan,
    replicas: usize,
    config: &EngineConfig,
) -> (Vec<Vec<ShardHostHandle>>, Vec<Vec<SocketAddr>>) {
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
        let (mut hosts, groups) = spawn_replicated_hosts(&a, &plan, 2, &bucket);
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

    let (mut hosts, groups) = spawn_replicated_hosts(&a, &plan, 2, &EngineConfig::default());
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

    let (mut hosts, groups) = spawn_replicated_hosts(&a, &plan, 2, &EngineConfig::default());
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
    let (hosts, groups) = spawn_replicated_hosts(&a, &plan, 1, &EngineConfig::default());
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

    let (mut hosts, groups) = spawn_replicated_hosts(&a, &plan, 2, &EngineConfig::default());
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
/// bucket kernel (Adaptive never pulls on a column slice).
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
