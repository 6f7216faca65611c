//! Closed-loop load generator for the serving engine: bursty mixed traffic,
//! optional fault injection, measured tail latency.
//!
//! Spawns `clients` closed-loop client threads against one [`Engine`] under
//! its [`serve`] loop. Each client runs `rounds` rounds; per round it
//! submits a burst of 1–4 requests (a mix of unmasked and masked, most with
//! a comfortable per-request deadline and some with a deliberately tight
//! one), then blocks until every ticket of the burst resolves before
//! starting the next round — the closed loop that makes the measured
//! latencies back-pressure-honest. The queue is bounded with
//! [`OverloadPolicy::ShedOldest`], so bursts genuinely collide with the
//! overload policy.
//!
//! With `--features failpoints`, a chaos thread keeps re-arming one-shot
//! faults while traffic flows — kernel panics in the merge step, injected
//! execute errors, demux delays — so the report measures the engine
//! *recovering*, not just cruising.
//!
//! Every ticket is claimed with a bounded wait: the bin cannot hang on a
//! lost request (that would be a bug this harness exists to catch).
//!
//! The report — p50/p95/p99/max ticket latency, per-outcome counts, shed
//! rate, recovery counters — prints to stdout and is written as JSON to
//! `target/engine_load.json` (override with `BENCH_ENGINE_LOAD_OUT`).
//! Latency percentiles come from per-client [`Histogram`]s (log-linear,
//! relative error ≤ 1/16) merged lock-free at the end, the same machinery
//! the serving stack's own metrics use — not from sorting raw sample
//! vectors. The report also carries an `obs_overhead` section: the same
//! small closed-loop workload timed with observability enabled and with
//! [`ObsConfig::disabled`], so regressions in the telemetry hot path show
//! up in the artifact.
//!
//! Usage: `cargo run --release -p spmspv-bench [--features failpoints] --bin engine_load`
//!
//! Env knobs: `ENGINE_LOAD_SMOKE=1` (reduced run + shape assertions, the CI
//! lane), `ENGINE_LOAD_SCALE`, `ENGINE_LOAD_CLIENTS`, `ENGINE_LOAD_ROUNDS`,
//! `ENGINE_LOAD_SHARDS` (shard count for the sharded phase, default 4),
//! `ENGINE_LOAD_REMOTE=1` (also serve the sharded workload through
//! [`ShardHost`] daemons over localhost sockets), `ENGINE_LOAD_REPLICAS=N`
//! (N ≥ 2: also run the replication chaos phase — every shard served by N
//! replica hosts, every **primary killed mid-load**, zero failed tickets
//! tolerated — reported as the `failover` section).
//!
//! After the serve-loop phase, the same burst workload replays through a
//! [`ShardedEngine`] (1D column-partitioned engines behind the scatter/merge
//! router) and the report gains a `sharded` section: tail latency plus the
//! share of flush wall time spent ⊕-merging shard partials. With
//! `ENGINE_LOAD_REMOTE=1` it replays once more through a TCP-connected
//! fleet and the report gains a `remote` section: tail latency plus the
//! `net.*` wire telemetry (bytes, RPC time, reconnects).
//!
//! [`ShardHost`]: spmspv::net::ShardHost
//!
//! [`ShardedEngine`]: spmspv::shard::ShardedEngine
//!
//! [`Engine`]: spmspv::engine::Engine
//! [`serve`]: spmspv::engine::Engine::serve
//! [`OverloadPolicy::ShedOldest`]: spmspv::engine::OverloadPolicy
//! [`Histogram`]: spmspv::obs::Histogram
//! [`ObsConfig::disabled`]: spmspv::ObsConfig::disabled

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use sparse_substrate::gen::{random_sparse_vec, rmat, RmatParams};
use sparse_substrate::{MaskBits, PlusTimes, SparseVec};
use spmspv::engine::{Engine, EngineConfig, EngineError, MxvRequest, OverloadPolicy};
use spmspv::obs::Histogram;
use spmspv::{MaskMode, ObsConfig, SpMSpVOptions};
use spmspv_bench::report::Json;

/// Per-client outcome tally; merged across clients at the end.
#[derive(Default)]
struct Tally {
    ok: usize,
    deadline_exceeded: usize,
    overloaded: usize,
    failed: usize,
    /// Submit→resolution latency of every request, in microseconds — the
    /// obs layer's log-linear histogram, so clients merge lock-free and
    /// percentiles come from the same estimator the engine's own telemetry
    /// uses.
    latency: Histogram,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.ok += other.ok;
        self.deadline_exceeded += other.deadline_exceeded;
        self.overloaded += other.overloaded;
        self.failed += other.failed;
        self.latency.merge(&other.latency);
    }

    fn total(&self) -> usize {
        self.ok + self.deadline_exceeded + self.overloaded + self.failed
    }
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// The sharded phase: the same bursty closed-loop traffic, flush-driven
/// through a [`spmspv::shard::ShardedEngine`]. Returns the `sharded` report
/// section — tail latency plus the merge-time share of each flush (the
/// router's own scatter/merge overhead against the shard engines' kernel
/// time).
fn sharded_phase(scale: u32, shards: usize, clients: usize, rounds: usize) -> Json {
    use spmspv::shard::ShardedEngine;

    let a = rmat(scale, 12, RmatParams::graph500(), 7);
    let n = a.ncols();
    let nrows = a.nrows();
    let threads = std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1);
    let router = ShardedEngine::partition_with(
        &a,
        PlusTimes,
        spmspv::shard::ShardPlan::balanced(&a, shards),
        EngineConfig::default()
            .max_lanes(16)
            .options(SpMSpVOptions::with_threads(threads.div_ceil(shards.max(1)))),
    );
    let latency = Histogram::default();
    let mut merge_time = Duration::ZERO;
    let mut execute_time = Duration::ZERO;
    let mut requests = 0usize;
    let mut reqno = 0usize;
    for round in 0..rounds {
        // One burst per client per round, claimed after a single router
        // flush (the sharded router is flush-driven — no serve loop yet).
        let mut inflight = Vec::new();
        for c in 0..clients {
            let burst = 1 + (c + round) % 4;
            for _ in 0..burst {
                reqno += 1;
                let frontier: SparseVec<f64> =
                    random_sparse_vec(n, 16 + (reqno * 13) % 48, (c * 10_007 + reqno) as u64);
                let mut req = MxvRequest::new(frontier);
                if reqno.is_multiple_of(3) {
                    let bits = MaskBits::from_indices(nrows, (c % 3..nrows).step_by(2 + reqno % 3));
                    req = req.mask(bits, MaskMode::Complement);
                }
                let submitted = Instant::now();
                inflight.push((router.submit(req), submitted));
            }
        }
        let outcome = router.flush();
        merge_time += outcome.merge_time;
        execute_time += outcome.execute_time;
        for (ticket, submitted) in inflight {
            let resolved = ticket.wait_timeout(Duration::from_secs(10));
            latency.record(submitted.elapsed().as_micros().min(u64::MAX as u128) as u64);
            assert!(resolved.is_ok(), "sharded phase has no faults armed: {resolved:?}");
            requests += 1;
        }
    }
    let snap = latency.snapshot();
    let (p50, p95, p99) = (snap.quantile(0.50), snap.quantile(0.95), snap.quantile(0.99));
    let routed = merge_time + execute_time;
    let merge_share =
        if routed.is_zero() { 0.0 } else { merge_time.as_secs_f64() / routed.as_secs_f64() };
    let stats = router.stats();
    let fanout = router.obs().snapshot();
    let fanout_mean = fanout
        .histogram("shard.fanout")
        .map(|h| if h.count == 0 { 0.0 } else { h.sum as f64 / h.count as f64 })
        .unwrap_or(0.0);

    println!(
        "\nsharded phase ({} shards over {n} columns): {requests} requests, latency (µs) p50 {p50} \
         p95 {p95} p99 {p99}, merge share {:.2}%, mean fan-out {fanout_mean:.2}",
        router.num_shards(),
        merge_share * 100.0,
    );
    assert!(requests > 0, "sharded phase must serve traffic");
    assert!(p50 <= p95 && p95 <= p99, "sharded percentiles must be monotone");

    Json::obj([
        ("shards", Json::Int(router.num_shards() as i64)),
        ("requests", Json::Int(requests as i64)),
        (
            "latency_micros",
            Json::obj([
                ("p50", Json::Int(p50 as i64)),
                ("p95", Json::Int(p95 as i64)),
                ("p99", Json::Int(p99 as i64)),
                ("max", Json::Int(snap.max as i64)),
            ]),
        ),
        ("merge_time_micros", Json::micros(merge_time)),
        ("execute_time_micros", Json::micros(execute_time)),
        ("merge_share", Json::Num(merge_share)),
        ("fanout_mean", Json::Num(fanout_mean)),
        ("lanes_executed", Json::Int(stats.lanes_executed as i64)),
    ])
}

/// The remote phase (`ENGINE_LOAD_REMOTE=1`): the sharded burst workload
/// again, but served by [`spmspv::net::ShardHost`] daemons on ephemeral
/// localhost ports behind a TCP-connected router — the full wire protocol
/// (framing, deadline re-anchoring, gather) under load. Returns the
/// `remote` report section: tail latency plus the `net.*` transport
/// telemetry (bytes moved, per-exchange RPC time, reconnects — which must
/// be zero on a healthy localhost fleet).
fn remote_phase(scale: u32, shards: usize, clients: usize, rounds: usize) -> Json {
    use spmspv::net::{ShardHost, TcpConfig};
    use spmspv::shard::{ShardPlan, ShardedEngine};

    let a = rmat(scale, 12, RmatParams::graph500(), 7);
    let n = a.ncols();
    let nrows = a.nrows();
    let plan = ShardPlan::balanced(&a, shards);
    let mut hosts = Vec::new();
    let mut addrs = Vec::new();
    for (s, part) in a.column_split(plan.bounds()).into_iter().enumerate() {
        let host = ShardHost::bind(
            "127.0.0.1:0",
            s,
            plan.range(s),
            part,
            PlusTimes,
            EngineConfig::default().max_lanes(16),
        )
        .expect("bind a shard host on an ephemeral localhost port");
        addrs.push(host.local_addr().expect("bound listener has an address"));
        hosts.push(host.spawn());
    }
    let router = ShardedEngine::<f64, f64, PlusTimes>::connect(
        plan,
        nrows,
        PlusTimes,
        &addrs,
        TcpConfig::default(),
        ObsConfig::default(),
    )
    .expect("dial every freshly spawned host");

    let latency = Histogram::default();
    let mut requests = 0usize;
    let mut reqno = 0usize;
    for round in 0..rounds {
        let mut inflight = Vec::new();
        for c in 0..clients {
            let burst = 1 + (c + round) % 4;
            for _ in 0..burst {
                reqno += 1;
                let frontier: SparseVec<f64> =
                    random_sparse_vec(n, 16 + (reqno * 13) % 48, (c * 10_007 + reqno) as u64);
                let mut req = MxvRequest::new(frontier);
                if reqno.is_multiple_of(3) {
                    let bits = MaskBits::from_indices(nrows, (c % 3..nrows).step_by(2 + reqno % 3));
                    req = req.mask(bits, MaskMode::Complement);
                }
                let submitted = Instant::now();
                inflight.push((router.submit(req), submitted));
            }
        }
        let outcome = router.flush();
        assert_eq!(outcome.failed, 0, "healthy localhost fleet: {:?}", outcome.failures);
        for (ticket, submitted) in inflight {
            let resolved = ticket.wait_timeout(Duration::from_secs(10));
            latency.record(submitted.elapsed().as_micros().min(u64::MAX as u128) as u64);
            assert!(resolved.is_ok(), "remote phase has no faults armed: {resolved:?}");
            requests += 1;
        }
    }
    let snap = latency.snapshot();
    let (p50, p95, p99) = (snap.quantile(0.50), snap.quantile(0.95), snap.quantile(0.99));
    let obs = router.obs().snapshot();
    let bytes_out = obs.counter("net.bytes.out").unwrap_or(0);
    let bytes_in = obs.counter("net.bytes.in").unwrap_or(0);
    let reconnects = obs.counter("net.reconnects").unwrap_or(0);
    // Obs histograms record nanoseconds; the report speaks microseconds.
    let (rpc_count, rpc_mean) = obs
        .histogram("net.rpc.time")
        .map(|h| (h.count, if h.count == 0 { 0.0 } else { h.sum as f64 / h.count as f64 / 1e3 }))
        .unwrap_or((0, 0.0));

    println!(
        "\nremote phase ({} hosts over {n} columns): {requests} requests, latency (µs) p50 {p50} \
         p95 {p95} p99 {p99}; wire {bytes_out} B out / {bytes_in} B in, {rpc_count} exchanges \
         (mean {rpc_mean:.0} µs), {reconnects} reconnects",
        router.num_shards(),
    );
    assert!(requests > 0, "remote phase must serve traffic");
    assert!(p50 <= p95 && p95 <= p99, "remote percentiles must be monotone");
    assert!(bytes_out > 0 && bytes_in > 0, "served traffic must have crossed the wire");
    assert_eq!(reconnects, 0, "a healthy localhost fleet never reconnects");

    drop(router);
    for host in hosts {
        host.shutdown();
    }

    Json::obj([
        ("shards", Json::Int(shards as i64)),
        ("requests", Json::Int(requests as i64)),
        (
            "latency_micros",
            Json::obj([
                ("p50", Json::Int(p50 as i64)),
                ("p95", Json::Int(p95 as i64)),
                ("p99", Json::Int(p99 as i64)),
                ("max", Json::Int(snap.max as i64)),
            ]),
        ),
        ("bytes_out", Json::Int(bytes_out as i64)),
        ("bytes_in", Json::Int(bytes_in as i64)),
        ("rpc_exchanges", Json::Int(rpc_count as i64)),
        ("rpc_time_micros_mean", Json::Num(rpc_mean)),
        ("reconnects", Json::Int(reconnects as i64)),
    ])
}

/// The replication chaos phase (`ENGINE_LOAD_REPLICAS=N`, N ≥ 2): the
/// burst workload against a fleet with `replicas` hosts per shard, where
/// **every primary is killed halfway through the run**. The surviving
/// replicas must absorb the outage with zero failed tickets (the tentpole
/// failover guarantee, measured under load rather than in a unit test).
/// Returns the `failover` report section: request/failure counts, the
/// `shard.replica.*` failover telemetry, and tail latency across the kill.
fn failover_phase(
    scale: u32,
    shards: usize,
    clients: usize,
    rounds: usize,
    replicas: usize,
) -> Json {
    use spmspv::net::{ShardHost, TcpConfig};
    use spmspv::shard::{ShardPlan, ShardedEngine};

    let a = rmat(scale, 12, RmatParams::graph500(), 7);
    let n = a.ncols();
    let nrows = a.nrows();
    let plan = ShardPlan::balanced(&a, shards).with_fingerprints_of(&a);
    let mut hosts: Vec<Vec<spmspv::net::ShardHostHandle>> = Vec::new();
    let mut groups: Vec<Vec<std::net::SocketAddr>> = Vec::new();
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
                EngineConfig::default().max_lanes(16),
            )
            .expect("bind a replica host on an ephemeral localhost port");
            addrs.push(host.local_addr().expect("bound listener has an address"));
            hs.push(host.spawn());
        }
        hosts.push(hs);
        groups.push(addrs);
    }
    let num_shards = plan.num_shards();
    // No background heartbeat: the kill must be discovered *by the flush*,
    // so the measured failovers are the mid-flush re-sends themselves.
    let config = TcpConfig {
        connect_retries: 1,
        retry_backoff: Duration::from_millis(1),
        heartbeat: None,
        ..TcpConfig::default()
    };
    let router = ShardedEngine::<f64, f64, PlusTimes>::connect_replicated(
        plan,
        nrows,
        PlusTimes,
        &groups,
        config,
        ObsConfig::default(),
    )
    .expect("dial every replica of every shard");

    let latency = Histogram::default();
    let mut requests = 0usize;
    let mut reqno = 0usize;
    let mut hosts_killed = 0usize;
    let kill_round = (rounds / 2).max(1);
    for round in 0..rounds {
        if round == kill_round {
            // Mid-load chaos: every primary dies between two bursts.
            for group in &mut hosts {
                group.remove(0).kill();
                hosts_killed += 1;
            }
        }
        let mut inflight = Vec::new();
        for c in 0..clients {
            let burst = 1 + (c + round) % 4;
            for _ in 0..burst {
                reqno += 1;
                let frontier: SparseVec<f64> =
                    random_sparse_vec(n, 16 + (reqno * 13) % 48, (c * 10_007 + reqno) as u64);
                let mut req = MxvRequest::new(frontier);
                if reqno.is_multiple_of(3) {
                    let bits = MaskBits::from_indices(nrows, (c % 3..nrows).step_by(2 + reqno % 3));
                    req = req.mask(bits, MaskMode::Complement);
                }
                let submitted = Instant::now();
                inflight.push((router.submit(req), submitted));
            }
        }
        let outcome = router.flush();
        assert_eq!(
            outcome.failed, 0,
            "round {round}: replicas must absorb every primary death: {:?}",
            outcome.failures
        );
        for (ticket, submitted) in inflight {
            let resolved = ticket.wait_timeout(Duration::from_secs(10));
            latency.record(submitted.elapsed().as_micros().min(u64::MAX as u128) as u64);
            assert!(resolved.is_ok(), "failover phase must serve every ticket: {resolved:?}");
            requests += 1;
        }
    }
    let snap = latency.snapshot();
    let (p50, p95, p99) = (snap.quantile(0.50), snap.quantile(0.95), snap.quantile(0.99));
    let obs = router.obs().snapshot();
    let failovers = obs.counter("shard.replica.failovers").unwrap_or(0);
    let quarantined = obs.counter("shard.replica.quarantined").unwrap_or(0);
    let trips = obs.counter("shard.replica.trips").unwrap_or(0);

    println!(
        "\nfailover phase ({num_shards} shards × {replicas} replicas): {requests} requests, \
         {hosts_killed} primaries killed mid-load, 0 failed; {failovers} failovers, \
         {trips} breaker trips; latency (µs) p50 {p50} p95 {p95} p99 {p99}",
    );
    assert!(requests > 0, "failover phase must serve traffic");
    assert!(hosts_killed == num_shards, "every primary must have been killed");
    assert!(failovers >= 1, "a killed primary under load must register as a failover");
    assert!(p50 <= p95 && p95 <= p99, "failover percentiles must be monotone");

    drop(router);
    for group in hosts {
        for host in group {
            host.shutdown();
        }
    }

    Json::obj([
        ("shards", Json::Int(num_shards as i64)),
        ("replicas", Json::Int(replicas as i64)),
        ("requests", Json::Int(requests as i64)),
        ("failed", Json::Int(0)),
        ("hosts_killed", Json::Int(hosts_killed as i64)),
        ("failovers", Json::Int(failovers as i64)),
        ("quarantined", Json::Int(quarantined as i64)),
        ("breaker_trips", Json::Int(trips as i64)),
        (
            "latency_micros",
            Json::obj([
                ("p50", Json::Int(p50 as i64)),
                ("p95", Json::Int(p95 as i64)),
                ("p99", Json::Int(p99 as i64)),
                ("max", Json::Int(snap.max as i64)),
            ]),
        ),
    ])
}

/// Times the same small closed-loop workload twice — observability enabled
/// vs. [`ObsConfig::disabled`] — so the report carries the telemetry
/// layer's measured overhead. Each configuration runs one untimed warm-up
/// pass (thread pool + pooled descriptor construction) and then best-of-3
/// timed passes on the warm engine, the usual micro-benchmark estimator,
/// because a single sub-millisecond pass is at the mercy of one scheduler
/// hiccup.
fn obs_overhead_probe(rounds: usize) -> (Duration, Duration) {
    let run = |obs: ObsConfig| -> Duration {
        let a = rmat(8, 8, RmatParams::graph500(), 11);
        let n = a.ncols();
        let engine =
            Engine::load_with(a, PlusTimes, EngineConfig::default().max_lanes(16).obs(obs));
        let one_pass = |pass: usize| -> Duration {
            let t0 = Instant::now();
            for round in 0..rounds {
                let tickets: Vec<_> = (0..8)
                    .map(|i| {
                        let x: SparseVec<f64> = random_sparse_vec(
                            n,
                            16 + (round * 7 + i) % 32,
                            (pass * 31 + round * 97 + i) as u64,
                        );
                        engine.submit(MxvRequest::new(x))
                    })
                    .collect();
                engine.flush();
                for t in tickets {
                    t.wait_timeout(Duration::from_secs(10)).expect("overhead probe must serve");
                }
            }
            t0.elapsed()
        };
        one_pass(0); // warm-up, untimed
        (1..=3).map(one_pass).min().expect("three timed passes")
    };
    (run(ObsConfig::default()), run(ObsConfig::disabled()))
}

/// While traffic flows, keep re-arming short-lived one-shot faults across
/// the flush path: merge panics (degrade path), execute errors (retry
/// path), demux delays (deadline races). Guards drop every cycle, so an
/// unconsumed plan never leaks past the run.
#[cfg(feature = "failpoints")]
fn chaos_loop(stop: &AtomicBool) {
    use spmspv::failpoint::{self, FailAction};
    let mut cycle = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let _guard = match cycle % 3 {
            0 => failpoint::arm(
                "batch.merge",
                FailAction::Panic("load-gen chaos: merge panic".into()),
                Some(1),
            ),
            1 => failpoint::arm(
                "engine.flush.execute",
                FailAction::Error("load-gen chaos: execute error".into()),
                Some(1),
            ),
            _ => failpoint::arm(
                "engine.flush.demux",
                FailAction::Delay(Duration::from_millis(2)),
                Some(2),
            ),
        };
        std::thread::sleep(Duration::from_millis(3));
        cycle += 1;
    }
    failpoint::disarm_all();
}

fn main() {
    let smoke = std::env::var_os("ENGINE_LOAD_SMOKE").is_some();
    let scale = env_usize("ENGINE_LOAD_SCALE", if smoke { 8 } else { 12 }) as u32;
    let clients = env_usize("ENGINE_LOAD_CLIENTS", if smoke { 4 } else { 8 });
    let rounds = env_usize("ENGINE_LOAD_ROUNDS", if smoke { 12 } else { 40 });
    let shards = env_usize("ENGINE_LOAD_SHARDS", if smoke { 2 } else { 4 });
    let faults_armed = cfg!(feature = "failpoints");

    println!(
        "engine_load: closed-loop serving load generator (scale={scale}, {clients} clients × \
         {rounds} rounds{}{})",
        if faults_armed {
            ", faults armed"
        } else {
            ", no faults (build with --features failpoints)"
        },
        if smoke { ", SMOKE" } else { "" },
    );

    let a = rmat(scale, 12, RmatParams::graph500(), 7);
    let n = a.ncols();
    let nrows = a.nrows();
    let nnz = a.nnz();
    println!("graph: {n} vertices, {nnz} stored entries");

    let threads = std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1);
    // A deliberately tight queue: bursts of `clients × ≤4` requests against
    // `2 × clients` slots, so ShedOldest genuinely fires under load.
    let engine = Engine::load_with(
        a,
        PlusTimes,
        EngineConfig::default()
            .max_lanes(16)
            .queue_capacity(2 * clients)
            .overload_policy(OverloadPolicy::ShedOldest)
            .linger(Duration::from_micros(200))
            .options(SpMSpVOptions::with_threads(threads)),
    );

    let stop_chaos = AtomicBool::new(false);
    let t0 = Instant::now();
    let tally: Tally = engine.serve(|engine| {
        std::thread::scope(|scope| {
            #[cfg(feature = "failpoints")]
            scope.spawn(|| chaos_loop(&stop_chaos));

            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    scope.spawn(move || {
                        let session = engine.session();
                        let mut tally = Tally::default();
                        let mut reqno = 0usize;
                        for round in 0..rounds {
                            // Bursty arrivals: 1–4 requests, then claim all
                            // before the next round (closed loop).
                            let burst = 1 + (c + round) % 4;
                            let mut inflight = Vec::with_capacity(burst);
                            for _ in 0..burst {
                                reqno += 1;
                                let frontier: SparseVec<f64> = random_sparse_vec(
                                    n,
                                    16 + (reqno * 13) % 48,
                                    (c * 10_007 + reqno) as u64,
                                );
                                let mut req = MxvRequest::new(frontier);
                                if reqno.is_multiple_of(3) {
                                    let bits = MaskBits::from_indices(
                                        nrows,
                                        (c % 3..nrows).step_by(2 + reqno % 3),
                                    );
                                    req = req.mask(bits, MaskMode::Complement);
                                }
                                // Most deadlines are comfortable; every 5th
                                // is tight enough for injected delays (and
                                // plain queueing under overload) to expire.
                                let deadline = if reqno.is_multiple_of(5) {
                                    Duration::from_millis(3)
                                } else {
                                    Duration::from_millis(500)
                                };
                                let submitted = Instant::now();
                                let ticket = session.submit(req.timeout(deadline));
                                inflight.push((ticket, submitted));
                            }
                            for (ticket, submitted) in inflight {
                                // Bounded claim with generous slack past the
                                // request deadline: the harness must never
                                // hang on a lost ticket.
                                let resolved = ticket.wait_timeout(Duration::from_secs(10));
                                tally
                                    .latency
                                    .record(submitted.elapsed().as_micros().min(u64::MAX as u128)
                                        as u64);
                                match resolved {
                                    Ok(_) => tally.ok += 1,
                                    Err(EngineError::DeadlineExceeded) => {
                                        tally.deadline_exceeded += 1
                                    }
                                    Err(EngineError::Overloaded) => tally.overloaded += 1,
                                    Err(err) => {
                                        // KernelFailed past its retry, or a
                                        // WaitTimeout (which would be the
                                        // hang this harness hunts).
                                        assert!(
                                            !matches!(err, EngineError::WaitTimeout),
                                            "ticket unresolved after 10s: lost request"
                                        );
                                        tally.failed += 1;
                                    }
                                }
                            }
                        }
                        session.close();
                        tally
                    })
                })
                .collect();
            let mut total = Tally::default();
            for h in handles {
                total.absorb(h.join().expect("client thread panicked"));
            }
            stop_chaos.store(true, Ordering::Relaxed);
            total
        })
    });
    let wall = t0.elapsed();

    let stats = engine.stats();
    let latency = tally.latency.snapshot();
    let (p50, p95, p99) = (latency.quantile(0.50), latency.quantile(0.95), latency.quantile(0.99));
    let max = latency.max;
    let requests = tally.total();
    let shed_rate =
        if requests == 0 { 0.0 } else { (stats.shed + stats.rejected) as f64 / requests as f64 };

    println!(
        "\nserved {requests} requests in {:.1} ms: {} ok, {} deadline-exceeded, {} overloaded, \
         {} failed",
        wall.as_secs_f64() * 1e3,
        tally.ok,
        tally.deadline_exceeded,
        tally.overloaded,
        tally.failed,
    );
    println!(
        "latency (µs): p50 {p50}, p95 {p95}, p99 {p99}, max {max}; shed rate {:.1}%",
        shed_rate * 100.0
    );
    println!(
        "recovery: {} kernel failures survived, {} groups degraded to the oracle kernel",
        stats.panics_recovered, stats.degraded_flushes
    );
    println!("engine telemetry: {stats}");

    let sharded = sharded_phase(scale, shards, clients, if smoke { rounds } else { rounds / 2 });
    // The socket phase replays the sharded workload through ShardHost
    // daemons when asked for (`ENGINE_LOAD_REMOTE=1`); the committed
    // artifact is generated with it on.
    let remote = if std::env::var_os("ENGINE_LOAD_REMOTE").is_some() {
        remote_phase(scale, shards, clients, if smoke { rounds } else { rounds / 2 })
    } else {
        println!("\nremote phase skipped (set ENGINE_LOAD_REMOTE=1 to serve it over sockets)");
        Json::Null
    };
    let replicas = env_usize("ENGINE_LOAD_REPLICAS", 1);
    let failover = if replicas >= 2 {
        failover_phase(scale, shards, clients, if smoke { rounds } else { rounds / 2 }, replicas)
    } else {
        println!(
            "\nfailover phase skipped (set ENGINE_LOAD_REPLICAS=2 to kill primaries mid-load)"
        );
        Json::Null
    };

    let (obs_on, obs_off) = obs_overhead_probe(if smoke { 10 } else { 40 });
    let obs_ratio =
        if obs_off.is_zero() { 1.0 } else { obs_on.as_secs_f64() / obs_off.as_secs_f64() };
    println!(
        "obs overhead probe: enabled {:.2} ms vs disabled {:.2} ms ({:+.1}%)",
        obs_on.as_secs_f64() * 1e3,
        obs_off.as_secs_f64() * 1e3,
        (obs_ratio - 1.0) * 100.0,
    );

    let report = Json::obj([
        ("bench", Json::str("engine_load")),
        ("smoke", Json::Bool(smoke)),
        ("faults_armed", Json::Bool(faults_armed)),
        (
            "graph",
            Json::obj([
                ("generator", Json::str("rmat-graph500")),
                ("scale", Json::Int(scale as i64)),
                ("n", Json::Int(n as i64)),
                ("nnz", Json::Int(nnz as i64)),
            ]),
        ),
        ("clients", Json::Int(clients as i64)),
        ("rounds", Json::Int(rounds as i64)),
        ("requests", Json::Int(requests as i64)),
        ("wall_micros", Json::micros(wall)),
        (
            "outcomes",
            Json::obj([
                ("ok", Json::Int(tally.ok as i64)),
                ("deadline_exceeded", Json::Int(tally.deadline_exceeded as i64)),
                ("overloaded", Json::Int(tally.overloaded as i64)),
                ("failed", Json::Int(tally.failed as i64)),
            ]),
        ),
        (
            "latency_micros",
            Json::obj([
                ("p50", Json::Int(p50 as i64)),
                ("p95", Json::Int(p95 as i64)),
                ("p99", Json::Int(p99 as i64)),
                ("max", Json::Int(max as i64)),
            ]),
        ),
        ("shed_rate", Json::Num(shed_rate)),
        ("sharded", sharded),
        ("remote", remote),
        ("failover", failover),
        (
            "obs_overhead",
            Json::obj([
                ("enabled_micros", Json::micros(obs_on)),
                ("disabled_micros", Json::micros(obs_off)),
                ("ratio", Json::Num(obs_ratio)),
            ]),
        ),
        (
            "engine",
            Json::obj([
                ("shed", Json::Int(stats.shed as i64)),
                ("rejected", Json::Int(stats.rejected as i64)),
                ("timeouts", Json::Int(stats.timeouts as i64)),
                ("panics_recovered", Json::Int(stats.panics_recovered as i64)),
                ("degraded_flushes", Json::Int(stats.degraded_flushes as i64)),
                ("fused_batches", Json::Int(stats.fused_batches as i64)),
                ("lanes_executed", Json::Int(stats.lanes_executed as i64)),
                ("mean_lanes_per_batch", Json::Num(stats.mean_lanes_per_batch())),
            ]),
        ),
    ]);
    let out = std::env::var("BENCH_ENGINE_LOAD_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/engine_load.json").to_string()
    });
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).expect("create the report's directory");
    }
    std::fs::write(&out, report.render() + "\n").expect("write JSON report");
    println!("\nwrote {out}");

    // Smoke-lane shape assertions: the CI chaos lane runs this bin and then
    // validates the JSON, but the cheap invariants are asserted here too so
    // a broken run fails loudly at the source.
    assert_eq!(requests as u64, latency.count, "one latency sample per request");
    assert!(requests > 0 && tally.ok > 0, "a load run must serve something");
    assert!(p50 <= p95 && p95 <= p99 && p99 <= max, "percentiles must be monotone");
    if faults_armed {
        assert!(
            stats.panics_recovered > 0 || stats.timeouts > 0 || stats.shed > 0,
            "with faults armed, the chaos thread should have left a mark \
             (panics_recovered={}, timeouts={}, shed={})",
            stats.panics_recovered,
            stats.timeouts,
            stats.shed,
        );
    }
}
