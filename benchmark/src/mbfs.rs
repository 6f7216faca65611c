//! `mbfs_engine`, `mbfs_shard`, `mbfs_tcp`: the same lock-step multi-source
//! BFS through one local `Engine`, an in-process `ShardedEngine`, and a
//! `ShardedEngine` connected to `ShardHost`s over localhost TCP. Each adds
//! one layer to the one before, so the differences between their numbers
//! are those layers' costs.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sparse_substrate::{CscMatrix, MaskBits, Select2ndMin, SparseVec, SparseVecBatch};
use spmspv::engine::{Engine, EngineConfig, FlushOutcome, MxvRequest, Session, Ticket};
use spmspv::net::{decode_frame, encode_frame, Frame, ShardHost, ShardHostHandle, TcpConfig};
use spmspv::obs::{self, ObsConfig, Snapshot};
use spmspv::shard::{ShardPlan, ShardSession, ShardedEngine};
use spmspv::stats::ChoiceCounts;
use spmspv::timing::FlushTimings;
use spmspv::{build_batch_algorithm, BatchAlgorithmKind, BatchMaskView, MaskMode, SpMSpVOptions};
use spmspv_graphs::{bfs_prepared, multi_bfs_routed};

use crate::check;
use crate::inputs::{matrix_info, pick_sources, ReferenceBfs, Rng};
use crate::json::Json;
use crate::layers::{self, counter_delta, histogram_delta_count, histogram_delta_s};
use crate::report::{measure_with_setups, repeat_for, Report, RunConfig};
use crate::spec::WorkloadKind;
use crate::stats::{median, percentile, ratio, secs};
use crate::trace::{self, SpanId, Tracer};

type Local<'m> = Engine<'m, f64, usize, Select2ndMin>;
type Router = ShardedEngine<f64, usize, Select2ndMin>;
type Maps = Vec<Vec<Option<usize>>>;

/// What the flushes of a set of traversals returned, summed.
#[derive(Debug, Default)]
struct FlushSums {
    flushes: u64,
    lanes: u64,
    batches: u64,
    /// Wall time of the flush calls.
    wall: Duration,
    /// The engine's own phases (local engine only).
    phases: FlushTimings,
    choices: ChoiceCounts,
    shard_execute: Duration,
    shard_merge: Duration,
    /// Per flush, the slowest and the mean shard kernel time: the slowest
    /// shard sets the flush, so their ratio bounds what sharding can gain.
    slowest_shard: Duration,
    mean_shard: Duration,
}

/// What the lock-step driver needs from a serving front door.
trait FrontDoor {
    type Client<'e>
    where
        Self: 'e;
    const SUBMIT: &'static str;
    const WAIT: &'static str;

    fn vertices(&self) -> usize;
    fn open(&self) -> Self::Client<'_>;
    fn submit_via(&self, client: &Self::Client<'_>, request: MxvRequest<usize>) -> Ticket<usize>;
    fn close_client(&self, client: Self::Client<'_>);
    /// One flush under the level's span, with the durations the flush
    /// returns attached as its children.
    fn flush_level(&self, tracer: &mut Tracer, level: Option<SpanId>, sums: &mut FlushSums);
}

impl<'m> FrontDoor for Local<'m> {
    type Client<'e>
        = Session<'e, 'm, f64, usize, Select2ndMin>
    where
        Self: 'e;
    const SUBMIT: &'static str = "engine.submit";
    const WAIT: &'static str = "engine.wait";

    fn vertices(&self) -> usize {
        self.matrix().ncols()
    }
    fn open(&self) -> Self::Client<'_> {
        self.session()
    }
    fn submit_via(&self, client: &Self::Client<'_>, request: MxvRequest<usize>) -> Ticket<usize> {
        client.submit(request)
    }
    fn close_client(&self, client: Self::Client<'_>) {
        client.close();
    }
    fn flush_level(&self, tracer: &mut Tracer, level: Option<SpanId>, sums: &mut FlushSums) {
        let span = tracer.child("engine.flush", level);
        let t = Instant::now();
        let outcome: FlushOutcome = self.flush();
        sums.wall += t.elapsed();
        tracer.end(span);
        let phases = outcome.timings;
        for (name, duration) in [
            ("engine.flush.assemble", phases.assemble),
            ("engine.flush.execute", phases.execute),
            ("engine.flush.demux", phases.demux),
            ("engine.flush.recover", phases.recover),
        ] {
            tracer.attach(span, name, duration);
        }
        sums.flushes += 1;
        sums.lanes += outcome.lanes as u64;
        sums.batches += outcome.batches as u64;
        sums.phases += outcome.timings;
        sums.choices.merge(&outcome.choices);
    }
}

impl FrontDoor for Router {
    type Client<'e>
        = ShardSession<'e, f64, usize, Select2ndMin>
    where
        Self: 'e;
    const SUBMIT: &'static str = "shard.submit";
    const WAIT: &'static str = "shard.wait";

    fn vertices(&self) -> usize {
        self.ncols()
    }
    fn open(&self) -> Self::Client<'_> {
        self.session()
    }
    fn submit_via(&self, client: &Self::Client<'_>, request: MxvRequest<usize>) -> Ticket<usize> {
        client.submit(request)
    }
    fn close_client(&self, client: Self::Client<'_>) {
        client.close();
    }
    fn flush_level(&self, tracer: &mut Tracer, level: Option<SpanId>, sums: &mut FlushSums) {
        let span = tracer.child("shard.flush", level);
        let t = Instant::now();
        let outcome = self.flush();
        sums.wall += t.elapsed();
        tracer.end(span);
        let kernel: Vec<Duration> = outcome.per_shard.iter().map(|o| o.timings.execute).collect();
        let slowest = kernel.iter().copied().max().unwrap_or_default();
        // The slowest shard's kernel time blocks the parallel execute
        // phase; what is left of it is hand-off, or codec and socket time.
        let execute = tracer.attach(span, "shard.execute", outcome.execute_time);
        tracer.attach(execute, "shard.execute.kernel", slowest);
        tracer.attach(span, "shard.merge", outcome.merge_time);
        sums.flushes += 1;
        sums.lanes += outcome.lanes as u64;
        sums.batches += outcome.per_shard.iter().map(|o| o.batches as u64).sum::<u64>();
        sums.shard_execute += outcome.execute_time;
        sums.shard_merge += outcome.merge_time;
        sums.slowest_shard += slowest;
        sums.mean_shard += kernel.iter().sum::<Duration>() / kernel.len().max(1) as u32;
        for o in &outcome.per_shard {
            sums.choices.merge(&o.choices);
        }
    }
}

/// One level's inputs, kept by a recording traversal for the kernel replays.
struct LevelInput {
    frontiers: Vec<SparseVec<usize>>,
    masks: Vec<Arc<MaskBits>>,
}

struct Traversal {
    parents: Maps,
    levels: Maps,
    iterations: usize,
    inputs: Vec<LevelInput>,
    /// The first request error, if any ticket failed.
    error: Option<String>,
}

/// The lock-step traversal, written here over `session`/`submit`/`flush`
/// and `Ticket::wait` because the library's `multi_bfs_using` rebuilds its
/// engine on every call; it mirrors the library's driver step for step.
/// Spans: `graphs.traversal` → `graphs.level` → submit ×k, flush, wait ×k.
fn lockstep<E: FrontDoor>(
    door: &E,
    sources: &[usize],
    op: u64,
    tracer: &mut Tracer,
    sums: &mut FlushSums,
    record: bool,
) -> Traversal {
    let root = tracer.root("graphs.traversal", op);
    let (n, k) = (door.vertices(), sources.len());
    let mut parents: Maps = vec![vec![None; n]; k];
    let mut levels: Maps = vec![vec![None; n]; k];
    let mut visited: Vec<Arc<MaskBits>> = (0..k).map(|_| Arc::new(MaskBits::new(n))).collect();
    let mut sessions: Vec<Option<E::Client<'_>>> = Vec::with_capacity(k);
    let mut active: Vec<usize> = (0..k).collect();
    let mut frontiers: Vec<SparseVec<usize>> = Vec::with_capacity(k);
    for (s, &src) in sources.iter().enumerate() {
        parents[s][src] = Some(src);
        levels[s][src] = Some(0);
        sessions.push(Some(door.open()));
        Arc::make_mut(&mut visited[s]).insert(src);
        frontiers.push(SparseVec::from_pairs(n, vec![(src, src)]).expect("source in range"));
    }

    let mut out = Traversal { parents, levels, iterations: 0, inputs: Vec::new(), error: None };
    let mut level = 0usize;
    while !active.is_empty() {
        let level_span = tracer.child("graphs.level", root);
        if record {
            out.inputs.push(LevelInput {
                frontiers: frontiers.clone(),
                masks: active.iter().map(|&s| Arc::clone(&visited[s])).collect(),
            });
        }
        let mut tickets = Vec::with_capacity(active.len());
        for (&s, frontier) in active.iter().zip(&frontiers) {
            let request = MxvRequest::new(frontier.clone())
                .mask(Arc::clone(&visited[s]), MaskMode::Complement);
            let session = sessions[s].as_ref().expect("active source keeps its session");
            let span = tracer.child(E::SUBMIT, level_span);
            tickets.push(door.submit_via(session, request));
            tracer.end(span);
        }
        door.flush_level(tracer, level_span, sums);
        out.iterations += 1;
        level += 1;

        let mut next_active = Vec::with_capacity(active.len());
        let mut next_frontiers = Vec::with_capacity(active.len());
        for (&s, ticket) in active.iter().zip(tickets) {
            let span = tracer.child(E::WAIT, level_span);
            let reached = ticket.wait();
            tracer.end(span);
            let reached = reached.unwrap_or_else(|e| {
                out.error.get_or_insert(format!("source {}: {e}", sources[s]));
                SparseVec::new(n)
            });
            let mut next = SparseVec::new(n);
            let visited_s = Arc::make_mut(&mut visited[s]);
            for (v, &parent) in reached.iter() {
                out.parents[s][v] = Some(parent);
                out.levels[s][v] = Some(level);
                next.push(v, v);
                visited_s.insert(v);
            }
            if !next.is_empty() {
                next_active.push(s);
                next_frontiers.push(next);
            } else if let Some(session) = sessions[s].take() {
                door.close_client(session);
            }
        }
        active = next_active;
        frontiers = next_frontiers;
        tracer.end(level_span);
    }
    tracer.end(root);
    out
}

/// One timed, checked traversal through `door`.
fn timed_traversal<E: FrontDoor>(
    door: &E,
    sources: &[usize],
    op: u64,
    tracer: &mut Tracer,
    sums: &mut FlushSums,
    check: impl Fn(&Traversal) -> Result<(), String>,
    report: &mut Report,
) -> Duration {
    let t = Instant::now();
    let mut out = lockstep(door, sources, op, tracer, sums, false);
    let elapsed = t.elapsed();
    let outcome = check(&out);
    report.checked(out.error.take().map_or(outcome, Err));
    elapsed
}

/// Times unchecked traversals through two front doors turn and turn about,
/// so that a slow spell of the host falls on both.
fn paired<A: FrontDoor, B: FrontDoor>(
    first: &A,
    second: &B,
    sources: &[usize],
    window: Duration,
) -> (Vec<Duration>, Vec<Duration>) {
    let (mut off, mut unused) = (Tracer::disabled(), FlushSums::default());
    let (mut first_times, mut second_times) = (Vec::new(), Vec::new());
    repeat_for(window, 2, |_| {
        let t = Instant::now();
        std::hint::black_box(lockstep(first, sources, 0, &mut off, &mut unused, false));
        first_times.push(t.elapsed());
        let t = Instant::now();
        std::hint::black_box(lockstep(second, sources, 0, &mut off, &mut unused, false));
        second_times.push(t.elapsed());
    });
    (first_times, second_times)
}

/// Every source's tree against its reference BFS.
fn check_maps(
    a: &CscMatrix<f64>,
    refs: &[ReferenceBfs],
    parents: &Maps,
    levels: &Maps,
) -> Result<(), String> {
    refs.iter()
        .zip(parents.iter().zip(levels))
        .try_for_each(|(reference, (p, l))| check::bfs_output(a, reference, p, l))
}

fn local_engine(a: &CscMatrix<f64>, options: SpMSpVOptions) -> Local<'_> {
    Engine::over_with(
        a,
        Select2ndMin,
        EngineConfig::default()
            .batch_algorithm(BatchAlgorithmKind::Adaptive)
            .options(options)
            .max_lanes(0),
    )
}

/// Configuration of one shard's engine. There are `nproc` shards, so each
/// gets `ceil(nproc / shards)` = 1 pool thread: never more kernel threads
/// than cores.
fn shard_config() -> EngineConfig {
    EngineConfig::default().options(SpMSpVOptions::with_threads(1)).max_lanes(0)
}

/// A router and, for TCP, the in-process hosts behind it. The router drops
/// first (it says goodbye), then every host is shut down and joined.
struct Fleet {
    router: Option<Router>,
    hosts: Vec<ShardHostHandle>,
    connect: Duration,
}

impl Fleet {
    fn router(&self) -> &Router {
        self.router.as_ref().expect("router lives until drop")
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.router = None;
        for host in std::mem::take(&mut self.hosts) {
            host.shutdown();
        }
    }
}

fn build_fleet(kind: WorkloadKind, a: &CscMatrix<f64>, shards: usize) -> Fleet {
    let plan = ShardPlan::balanced(a, shards);
    if kind == WorkloadKind::MbfsShard {
        let router = ShardedEngine::partition_with(a, Select2ndMin, plan, shard_config());
        return Fleet { router: Some(router), hosts: Vec::new(), connect: Duration::ZERO };
    }
    let plan = plan.with_fingerprints_of(a);
    let mut hosts = Vec::new();
    for (shard, part) in a.column_split(plan.bounds()).into_iter().enumerate() {
        let host = ShardHost::<f64, usize, Select2ndMin>::bind(
            ("127.0.0.1", 0),
            shard,
            plan.range(shard),
            part,
            Select2ndMin,
            shard_config(),
        )
        .expect("bind an ephemeral localhost port");
        hosts.push(host.spawn());
    }
    let addrs: Vec<SocketAddr> = hosts.iter().map(ShardHostHandle::addr).collect();
    let t = Instant::now();
    let router = Router::connect(
        plan,
        a.nrows(),
        Select2ndMin,
        &addrs,
        TcpConfig::default(),
        ObsConfig::default(),
    )
    .expect("dial every in-process shard host");
    Fleet { router: Some(router), hosts, connect: t.elapsed() }
}

pub fn run(kind: WorkloadKind, cfg: &RunConfig) -> Report {
    let sizes = kind.sizes(cfg.smoke);
    let a = sizes.graph.generate(cfg.seed);
    let refs = pick_sources(&a, &mut Rng::new(cfg.seed), sizes.sources, sizes.depth_band);
    let sources: Vec<usize> = refs.iter().map(|r| r.source).collect();
    let shards = if kind == WorkloadKind::MbfsEngine { 0 } else { cfg.threads };
    let mut info = matrix_info(&a);
    info.push(("shards", Json::Int(shards as i64)));
    let mut report = Report { info, ..Report::default() };
    if kind == WorkloadKind::MbfsEngine {
        run_engine(&a, &refs, &sources, sizes.setup_reps, cfg, &mut report);
    } else {
        run_routed(kind, &a, &refs, &sources, sizes.setup_reps, cfg, &mut report);
    }
    report
}

fn end_to_end(report: &mut Report, times: &[Duration], setups: &[Duration]) {
    let times = secs(times);
    report.set_end_to_end(&times, times.len(), times.iter().sum(), setups);
}

/// Metrics every traced mbfs run derives the same way from its spans.
fn traced_common(
    report: &mut Report,
    tracer: &Tracer,
    plain: &[Duration],
    traced: &[Duration],
    recording: &Traversal,
    kernels: (&Snapshot, &Snapshot),
    sums: &FlushSums,
) {
    let totals = trace::totals(tracer.spans());
    let (traversal, level) = (totals["graphs.traversal"], totals["graphs.level"]);
    report.set("graphs.levels", recording.iterations as f64);
    report.set(
        "graphs.bookkeeping_share",
        ratio(traversal.self_s() + level.self_s(), traversal.total_s()),
    );
    report.set("graphs.traversal_p90_s", percentile(&secs(traced), 90.0));
    report.samples.insert("graphs.traversal_p90_s", traced.len() as u64);
    report.set("obs.trace_overhead", ratio(median(&secs(traced)), median(&secs(plain))));

    let (before, after) = kernels;
    layers::batch_step_shares(report, before, after);
    report.set("batch.lanes_per_flush", ratio(sums.lanes as f64, sums.flushes as f64));
}

/// Per-traversal figures of the recording traversal: which backends and
/// kernel families ran, and how many fused batches.
fn recording_counts(report: &mut Report, kernels: (&Snapshot, &Snapshot), sums: &FlushSums) {
    let (before, after) = kernels;
    layers::backend_merges(report, before, after);
    layers::choice_lanes(report, &sums.choices);
    report.set("engine.fused_batches", sums.batches as f64);
    report.set("engine.lanes_per_batch", ratio(sums.lanes as f64, sums.batches as f64));
}

/// Times checked traversals with the benchmark's spans off and on, turn and
/// turn about (so that a slow spell of the host falls on both), over
/// `window` in all. Returns the two sets of times.
fn plain_and_traced<E: FrontDoor>(
    door: &E,
    sources: &[usize],
    window: Duration,
    tracer: &mut Tracer,
    sums: &mut FlushSums,
    check: impl Fn(&Traversal) -> Result<(), String> + Copy,
    report: &mut Report,
) -> (Vec<Duration>, Vec<Duration>) {
    let (mut off, mut unused) = (Tracer::disabled(), FlushSums::default());
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    repeat_for(window, 2, |i| {
        plain.push(timed_traversal(door, sources, 0, &mut off, &mut unused, check, report));
        traced.push(timed_traversal(door, sources, i as u64, tracer, sums, check, report));
    });
    (plain, traced)
}

fn run_engine(
    a: &CscMatrix<f64>,
    refs: &[ReferenceBfs],
    sources: &[usize],
    setup_reps: usize,
    cfg: &RunConfig,
    report: &mut Report,
) {
    let mut off = Tracer::disabled();
    let mut unused = FlushSums::default();
    let check = |out: &Traversal| check_maps(a, refs, &out.parents, &out.levels);

    // Set-up: engine, pooled descriptor and workspaces, up to one warm-up
    // traversal.
    let set_up = |report: &mut Report| {
        let (mut off, mut unused) = (Tracer::disabled(), FlushSums::default());
        let t = Instant::now();
        let fresh = local_engine(a, SpMSpVOptions::default());
        let warm = lockstep(&fresh, sources, 0, &mut off, &mut unused, false);
        let elapsed = t.elapsed();
        report.checked(check(&warm));
        (fresh, elapsed)
    };

    if !cfg.traced {
        let mut times = Vec::new();
        let setups =
            measure_with_setups(cfg.slice(1.0), 2, setup_reps, report, set_up, |engine, report| {
                times.push(timed_traversal(
                    engine,
                    sources,
                    0,
                    &mut off,
                    &mut unused,
                    check,
                    report,
                ));
            });
        end_to_end(report, &times, &setups);
        return;
    }
    let (engine, _) = set_up(report);

    let mut tracer = Tracer::new(Instant::now(), true);
    let mut sums = FlushSums::default();
    let before = obs::global().snapshot();
    let (plain, traced) =
        plain_and_traced(&engine, sources, cfg.slice(0.5), &mut tracer, &mut sums, check, report);
    let after = obs::global().snapshot();

    let mut recorded = FlushSums::default();
    let rec_before = obs::global().snapshot();
    let recording = lockstep(&engine, sources, 0, &mut off, &mut recorded, true);
    let rec_after = obs::global().snapshot();
    traced_common(report, &tracer, &plain, &traced, &recording, (&before, &after), &sums);
    recording_counts(report, (&rec_before, &rec_after), &recorded);

    let totals = trace::totals(tracer.spans());
    let (submit, wait, flush) =
        (totals["engine.submit"], totals["engine.wait"], totals["engine.flush"]);
    report.set("engine.submit_us_per_req", ratio(submit.total_s() * 1e6, submit.count as f64));
    report.set("engine.wait_us_per_req", ratio(wait.total_s() * 1e6, wait.count as f64));
    let wall = sums.wall.as_secs_f64();
    report.set("engine.flush.assemble_share", ratio(sums.phases.assemble.as_secs_f64(), wall));
    report.set("engine.flush.execute_share", ratio(sums.phases.execute.as_secs_f64(), wall));
    report.set("engine.flush.demux_share", ratio(sums.phases.demux.as_secs_f64(), wall));
    report.set("engine.flush.recover_s", sums.phases.recover.as_secs_f64());
    report.set("engine.flush.unattributed_share", ratio(flush.self_s(), flush.total_s()));
    if let Some(queue_wait) = engine.obs().snapshot().histogram("engine.queue.wait") {
        report.set("engine.queue_wait_p50_us", queue_wait.quantile(0.5) as f64 * 1e-3);
    }
    report.set("executor.threads", cfg.threads as f64);

    // The single-thread baseline.
    let single = local_engine(a, SpMSpVOptions::with_threads(1));
    let warm = lockstep(&single, sources, 0, &mut off, &mut unused, false);
    report.checked(check(&warm));
    let (one_thread, all_threads) = paired(&single, &engine, sources, cfg.slice(0.2));
    drop(single);
    report.set("executor.speedup", ratio(median(&secs(&one_thread)), median(&secs(&all_threads))));

    // What batching buys: k single-source traversals over one batched one.
    let mut op = crate::bfs::prepare(a, SpMSpVOptions::default());
    bfs_prepared(&mut op, sources[0]);
    let t = Instant::now();
    for &source in sources {
        std::hint::black_box(bfs_prepared(&mut op, source));
    }
    report.set("batch.amortization", ratio(t.elapsed().as_secs_f64(), median(&secs(&plain))));
    drop(op);

    report.set("adaptive.regret", adaptive_regret(a, &recording.inputs));
    report.spans = tracer.into_spans();
}

/// Replays the recorded level batches through every fixed batched family and
/// through the adaptive dispatcher: adaptive time over the best fixed time.
fn adaptive_regret(a: &CscMatrix<f64>, inputs: &[LevelInput]) -> f64 {
    let batches: Vec<SparseVecBatch<usize>> = inputs
        .iter()
        .map(|l| SparseVecBatch::from_lanes(&l.frontiers).expect("lanes share a dimension"))
        .collect();
    let Some(widest) = (0..batches.len()).max_by_key(|&i| batches[i].total_nnz()) else {
        return 0.0;
    };
    let mut time_of = |kind: BatchAlgorithmKind| {
        let mut alg =
            build_batch_algorithm::<f64, usize, Select2ndMin>(a, kind, SpMSpVOptions::default());
        let mut run = |i: usize| {
            let mask =
                BatchMaskView::PerLane { masks: &inputs[i].masks, mode: MaskMode::Complement };
            std::hint::black_box(alg.multiply_batch_masked(
                &batches[i],
                &Select2ndMin,
                Some(&mask),
            ));
        };
        // Size the workspaces on the widest level before timing.
        run(widest);
        let t = Instant::now();
        (0..batches.len()).for_each(&mut run);
        t.elapsed().as_secs_f64()
    };
    let best_fixed =
        BatchAlgorithmKind::fixed().map(&mut time_of).into_iter().fold(f64::INFINITY, f64::min);
    ratio(time_of(BatchAlgorithmKind::Adaptive), best_fixed)
}

fn run_routed(
    kind: WorkloadKind,
    a: &CscMatrix<f64>,
    refs: &[ReferenceBfs],
    sources: &[usize],
    setup_reps: usize,
    cfg: &RunConfig,
    report: &mut Report,
) {
    let mut off = Tracer::disabled();
    let mut unused = FlushSums::default();

    // mbfs_engine's answer, which the sharded ones must match bit for bit.
    let engine = local_engine(a, SpMSpVOptions::default());
    let expected = lockstep(&engine, sources, 0, &mut off, &mut unused, false);
    report.checked(check_maps(a, refs, &expected.parents, &expected.levels));
    let check_both = |parents: &Maps, levels: &Maps| {
        check_maps(a, refs, parents, levels)?;
        if *parents == expected.parents && *levels == expected.levels {
            Ok(())
        } else {
            Err("parents or levels differ from the single-engine traversal".to_string())
        }
    };

    // Set-up: plan, column split, shard engines (or hosts, dial and
    // handshake), up to one warm-up traversal.
    let set_up = |report: &mut Report| {
        let t = Instant::now();
        let fresh = build_fleet(kind, a, cfg.threads);
        let warm = multi_bfs_routed(fresh.router(), sources);
        let elapsed = t.elapsed();
        report.checked(check_both(&warm.parents, &warm.levels));
        (fresh, elapsed)
    };

    // Untraced, the library's own driver is the front door.
    if !cfg.traced {
        let mut times = Vec::new();
        let setups =
            measure_with_setups(cfg.slice(1.0), 2, setup_reps, report, set_up, |fleet, report| {
                let t = Instant::now();
                let out = multi_bfs_routed(fleet.router(), sources);
                times.push(t.elapsed());
                report.checked(check_both(&out.parents, &out.levels));
            });
        end_to_end(report, &times, &setups);
        return;
    }
    let (fleet, setup_time) = set_up(report);
    let router = fleet.router();

    // Traced, the benchmark's own driver stands in for it (the library's
    // has no seam for spans), with spans off and on.
    let check = |out: &Traversal| check_both(&out.parents, &out.levels);
    let mut tracer = Tracer::new(Instant::now(), true);
    let mut sums = FlushSums::default();
    let (before, net_before) = (obs::global().snapshot(), router.obs().snapshot());
    let (plain, traced) =
        plain_and_traced(router, sources, cfg.slice(0.5), &mut tracer, &mut sums, check, report);
    let (after, net_after) = (obs::global().snapshot(), router.obs().snapshot());

    let mut recorded = FlushSums::default();
    let (rec_before, rec_net_before) = (obs::global().snapshot(), router.obs().snapshot());
    let recording = lockstep(router, sources, 0, &mut off, &mut recorded, true);
    let (rec_after, rec_net_after) = (obs::global().snapshot(), router.obs().snapshot());
    traced_common(report, &tracer, &plain, &traced, &recording, (&before, &after), &sums);
    recording_counts(report, (&rec_before, &rec_after), &recorded);

    let totals = trace::totals(tracer.spans());
    let submit = totals["shard.submit"];
    report.set("shard.setup_s", setup_time.as_secs_f64());
    report.set("shard.scatter_us_per_req", ratio(submit.total_s() * 1e6, submit.count as f64));
    let wall = sums.wall.as_secs_f64();
    report.set("shard.execute_share", ratio(sums.shard_execute.as_secs_f64(), wall));
    report.set("shard.merge_share", ratio(sums.shard_merge.as_secs_f64(), wall));
    report.set(
        "shard.imbalance",
        ratio(sums.slowest_shard.as_secs_f64(), sums.mean_shard.as_secs_f64()),
    );
    if let Some(fanout) = net_after.histogram("shard.fanout") {
        report.set("shard.fanout_mean", fanout.mean());
    }

    // The layer below, timed in this process: the single engine for
    // `shard.over_engine`, in-process shards for `net.over_shard_s`.
    if kind == WorkloadKind::MbfsShard {
        let (here, below) = paired(router, &engine, sources, cfg.slice(0.2));
        report.set("shard.over_engine", ratio(median(&secs(&here)), median(&secs(&below))));
    } else {
        let in_process = build_fleet(WorkloadKind::MbfsShard, a, cfg.threads);
        multi_bfs_routed(in_process.router(), sources);
        let (here, below) = paired(router, in_process.router(), sources, cfg.slice(0.2));
        report.set("net.over_shard_s", median(&secs(&here)) - median(&secs(&below)));
    }

    let split_timer = Instant::now();
    let plan = ShardPlan::balanced(a, cfg.threads);
    std::hint::black_box(a.column_split(plan.bounds()));
    report.set("sparse.column_split_s", split_timer.elapsed().as_secs_f64());
    let fingerprint_timer = Instant::now();
    std::hint::black_box(plan.with_fingerprints_of(a));
    report.set("sparse.fingerprint_s", fingerprint_timer.elapsed().as_secs_f64());

    if kind == WorkloadKind::MbfsTcp {
        let traversals = (plain.len() + traced.len()) as f64;
        let bytes_out = counter_delta(&rec_net_after, &rec_net_before, "net.bytes.out");
        let bytes_in = counter_delta(&rec_net_after, &rec_net_before, "net.bytes.in");
        report.set("net.connect_s", fleet.connect.as_secs_f64());
        report.set("net.bytes_out_per_traversal", bytes_out);
        report.set("net.bytes_in_per_traversal", bytes_in);
        report.set("net.reply_amplification", ratio(bytes_in, bytes_out));
        report.set(
            "net.exchanges",
            histogram_delta_count(&rec_net_after, &rec_net_before, "net.rpc.time"),
        );
        for (name, histogram) in [
            ("net.encode_s", "net.encode.time"),
            ("net.decode_s", "net.decode.time"),
            ("net.rpc_s", "net.rpc.time"),
        ] {
            report.set(name, histogram_delta_s(&net_after, &net_before, histogram) / traversals);
        }
        if let Some(rpc) = net_after.histogram("net.rpc.time") {
            report.set("net.rpc_floor_us", rpc.quantile(0.1) as f64 * 1e-3);
        }
        report.set("net.host_execute_s", sums.slowest_shard.as_secs_f64() / traced.len() as f64);
        report.set("net.reconnects", net_after.counter("net.reconnects").unwrap_or(0) as f64);
        codec_throughput(&recording.inputs, report);
    }
    report.spans = tracer.into_spans();
}

/// `encode_frame` / `decode_frame` timed directly on a `Partial` frame the
/// size of the recording's largest frontier.
fn codec_throughput(inputs: &[LevelInput], report: &mut Report) {
    let Some(partial) = inputs.iter().flat_map(|l| &l.frontiers).max_by_key(|f| f.nnz()).cloned()
    else {
        return;
    };
    let frame: Frame<usize, usize> = Frame::Partial { request: 1, shard: 0, partial };
    let limit = spmspv::net::DEFAULT_MAX_FRAME;
    let mut wire = Vec::new();
    let (mut encode, mut decode, mut bytes) = (Duration::ZERO, Duration::ZERO, 0usize);
    while encode + decode < Duration::from_millis(40) {
        wire.clear();
        let t = Instant::now();
        bytes += encode_frame(&frame, &mut wire, limit).expect("partial fits a frame");
        encode += t.elapsed();
        let t = Instant::now();
        std::hint::black_box(decode_frame::<usize, usize>(&wire, limit).expect("round trip"));
        decode += t.elapsed();
    }
    report.set("net.codec_encode_mb_per_s", bytes as f64 * 1e-6 / encode.as_secs_f64());
    report.set("net.codec_decode_mb_per_s", bytes as f64 * 1e-6 / decode.as_secs_f64());
}
