//! `serve_mixed`: closed-loop clients on `Engine::serve` with numeric
//! (`PlusTimes` on `f64`) requests of mixed size, a third of them masked.
//! Closed loop because the callers are in-process threads that block on
//! their tickets; the client count is `nproc`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sparse_substrate::{CscMatrix, MaskBits, PlusTimes, SparseVec};
use spmspv::engine::{Engine, EngineConfig, MxvRequest};
use spmspv::obs::{self, ObsConfig};
use spmspv::MaskMode;

use crate::check;
use crate::inputs::{matrix_info, serve_requests, Rng, ServeRequest};
use crate::json::Json;
use crate::layers;
use crate::report::{Report, RunConfig};
use crate::stats::{median, percentile, ratio, secs};
use crate::trace::{self, Tracer};

type Served<'m> = Engine<'m, f64, f64, PlusTimes>;

/// Every how many requests (per client) a result is kept and checked.
const CHECK_EVERY: usize = 50;
/// Turns each side of an alternating comparison takes (spans off / on, the
/// observed / the silent engine).
const TURNS: usize = 3;

enum Stop {
    After(Duration),
    /// Requests per client; the warm-up's fixed size.
    Requests(usize),
}

/// What one serving window produced, all clients together.
struct Window {
    latencies: Vec<Duration>,
    wall: Duration,
    /// `(pool index, result)` of every [`CHECK_EVERY`]th request.
    kept: Vec<(usize, SparseVec<f64>)>,
    errors: Vec<String>,
    tracer: Tracer,
}

impl Window {
    fn empty(epoch: Instant, traced: bool) -> Self {
        Window {
            latencies: Vec::new(),
            wall: Duration::ZERO,
            kept: Vec::new(),
            errors: Vec::new(),
            tracer: Tracer::new(epoch, traced),
        }
    }

    /// Adds another window's (or a client's) requests and wall time.
    fn absorb(&mut self, other: Window) {
        self.latencies.extend(other.latencies);
        self.wall += other.wall;
        self.kept.extend(other.kept);
        self.errors.extend(other.errors);
        self.tracer.absorb(other.tracer);
    }

    fn requests_per_s(&self) -> f64 {
        ratio(self.latencies.len() as f64, self.wall.as_secs_f64())
    }
}

/// The traffic every window replays: the request pool, the shared mask, and
/// how many closed-loop clients draw on them.
struct Traffic<'a> {
    pool: &'a [ServeRequest],
    mask: &'a Arc<MaskBits>,
    clients: usize,
    seed: u64,
    /// The epoch every window's spans are recorded against.
    epoch: Instant,
}

/// Runs the closed-loop client threads inside `Engine::serve`. Each round a
/// client submits a burst of 1–4 requests from its part of the pool, then
/// waits on every ticket; a request's latency runs from its `submit` to its
/// `Ticket::wait` returning.
fn serve_window(engine: &Served<'_>, traffic: &Traffic<'_>, stop: Stop, traced: bool) -> Window {
    let started = Instant::now();
    let per_client = engine.serve(|engine| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..traffic.clients)
                .map(|c| {
                    let stop = &stop;
                    scope.spawn(move || client(engine, traffic, c, stop, traced))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect::<Vec<_>>()
        })
    });
    let mut window = Window::empty(traffic.epoch, traced);
    window.wall = started.elapsed();
    per_client.into_iter().for_each(|part| window.absorb(part));
    window
}

fn client(
    engine: &Served<'_>,
    traffic: &Traffic<'_>,
    c: usize,
    stop: &Stop,
    traced: bool,
) -> Window {
    let pool = traffic.pool;
    let mut rng = Rng::new(traffic.seed ^ (c as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
    let mut out = Window::empty(traffic.epoch, traced);
    let session = engine.session();
    let mut next = c * pool.len() / traffic.clients;
    let mut sent = 0usize;
    let started = Instant::now();
    loop {
        match stop {
            Stop::After(window) if started.elapsed() >= *window => break,
            Stop::Requests(count) if sent >= *count => break,
            _ => {}
        }
        let burst = 1 + rng.below(4);
        // The client produces its frontiers before its requests' clocks start.
        let requests: Vec<(usize, MxvRequest<f64>)> = (0..burst)
            .map(|_| {
                let index = next;
                next = (next + 1) % pool.len();
                let request = MxvRequest::new(pool[index].frontier.clone());
                let request = if pool[index].masked {
                    request.mask(Arc::clone(traffic.mask), MaskMode::Complement)
                } else {
                    request
                };
                (index, request)
            })
            .collect();
        let mut inflight = Vec::with_capacity(burst);
        for (index, request) in requests {
            let op = (c as u64) << 32 | sent as u64;
            let keep = sent.is_multiple_of(CHECK_EVERY);
            sent += 1;
            let root = out.tracer.root("serve.request", op);
            let submitted = Instant::now();
            let span = out.tracer.child("engine.submit", root);
            let ticket = session.submit(request);
            out.tracer.end(span);
            inflight.push((index, keep, root, submitted, ticket));
        }
        for (index, keep, root, submitted, ticket) in inflight {
            let span = out.tracer.child("engine.wait", root);
            let result = ticket.wait();
            out.tracer.end(span);
            out.latencies.push(submitted.elapsed());
            out.tracer.end(root);
            match result {
                Ok(y) if keep => out.kept.push((index, y)),
                Ok(_) => {}
                Err(e) => out.errors.push(format!("request {index}: {e}")),
            }
        }
    }
    session.close();
    out
}

/// Counts a window's requests into the report: an error fails its request,
/// a wrong kept result fails its request.
fn account(report: &mut Report, a: &CscMatrix<f64>, traffic: &Traffic<'_>, window: &Window) {
    let unchecked = window.latencies.len() - window.errors.len() - window.kept.len();
    report.attempted += unchecked as u64;
    for error in &window.errors {
        report.checked(Err(error.clone()));
    }
    for (index, y) in &window.kept {
        let request = &traffic.pool[*index];
        let mask = request.masked.then_some(&**traffic.mask);
        report.checked(check::numeric_output(a, &request.frontier, mask, y));
    }
}

pub fn run(cfg: &RunConfig) -> Report {
    let kind = crate::spec::WorkloadKind::ServeMixed;
    let sizes = kind.sizes(cfg.smoke);
    let a = sizes.graph.generate(cfg.seed);
    let (pool, mask) =
        serve_requests(a.ncols(), &mut Rng::new(cfg.seed), sizes.pool, sizes.nnz.0, sizes.nnz.1);
    let clients = cfg.threads;
    let mut info = matrix_info(&a);
    info.push(("clients", Json::Int(clients as i64)));
    let mut report = Report { info, ..Report::default() };
    let traffic =
        Traffic { pool: &pool, mask: &mask, clients, seed: cfg.seed, epoch: Instant::now() };
    let window = |engine: &Served<'_>, stop: Stop, traced: bool| {
        serve_window(engine, &traffic, stop, traced)
    };

    // Set-up: the engine and its serve loop, up to the warm-up requests
    // (pooled descriptors and workspaces are built by the first flushes).
    let warmup = || Stop::Requests(sizes.warmup_requests.div_ceil(clients));
    let set_up = |report: &mut Report| {
        let t = Instant::now();
        let fresh: Served<'_> = Engine::over_with(&a, PlusTimes, EngineConfig::default());
        let warm = window(&fresh, warmup(), false);
        let elapsed = t.elapsed();
        account(report, &a, &traffic, &warm);
        (fresh, elapsed)
    };

    if !cfg.traced {
        // The window is served in as many segments as there are set-up
        // repetitions, one repetition before each, so that the repetitions
        // are spread through the run (see `report::measure_with_setups`).
        let segment = cfg.slice(1.0 / sizes.setup_reps as f64);
        let (mut engine, mut setup) = (None, Vec::new());
        let mut served = Window::empty(traffic.epoch, false);
        for _ in 0..sizes.setup_reps {
            let (fresh, elapsed) = set_up(&mut report);
            setup.push(elapsed);
            served.absorb(window(engine.get_or_insert(fresh), Stop::After(segment), false));
        }
        account(&mut report, &a, &traffic, &served);
        let latencies = secs(&served.latencies);
        report.set_end_to_end(&latencies, latencies.len(), served.wall.as_secs_f64(), &setup);
        return report;
    }
    let (engine, _) = set_up(&mut report);

    // Spans off and spans on take turns, so that a slow spell of the host
    // falls on both.
    let turn = || Stop::After(cfg.slice(0.6 / (2 * TURNS) as f64));
    let mut plain = Window::empty(traffic.epoch, false);
    let mut traced = Window::empty(traffic.epoch, true);
    let kernels_before = obs::global().snapshot();
    for _ in 0..TURNS {
        plain.absorb(window(&engine, turn(), false));
        traced.absorb(window(&engine, turn(), true));
    }
    let kernels_after = obs::global().snapshot();
    account(&mut report, &a, &traffic, &plain);
    account(&mut report, &a, &traffic, &traced);

    let latencies = secs(&traced.latencies);
    report.set("engine.request_p95_ms", percentile(&latencies, 95.0) * 1e3);
    report.set("engine.request_p99_ms", percentile(&latencies, 99.0) * 1e3);
    report.samples.insert("engine.request_p99_ms", latencies.len() as u64);
    report.set("obs.trace_overhead", ratio(plain.requests_per_s(), traced.requests_per_s()));

    let totals = trace::totals(traced.tracer.spans());
    let (submit, wait) = (totals["engine.submit"], totals["engine.wait"]);
    report.set("engine.submit_us_per_req", ratio(submit.total_s() * 1e6, submit.count as f64));
    report.set("engine.wait_us_per_req", ratio(wait.total_s() * 1e6, wait.count as f64));

    // The flush runs on the engine's server thread, out of reach of the
    // benchmark's spans; its phases come from the engine's own statistics,
    // which count from when the engine was built (the warm-up's 200 requests
    // included).
    let stats = engine.stats();
    let phases = stats.flush_timings;
    let flush_total = phases.total().as_secs_f64();
    report.set("engine.flush.assemble_share", ratio(phases.assemble.as_secs_f64(), flush_total));
    report.set("engine.flush.execute_share", ratio(phases.execute.as_secs_f64(), flush_total));
    report.set("engine.flush.demux_share", ratio(phases.demux.as_secs_f64(), flush_total));
    report.set("engine.flush.recover_s", phases.recover.as_secs_f64());
    report.set("engine.lanes_per_batch", stats.mean_lanes_per_batch());
    report.set("batch.lanes_per_flush", stats.mean_lanes_per_flush());
    if let Some(queue_wait) = engine.obs().snapshot().histogram("engine.queue.wait") {
        report.set("engine.queue_wait_p50_us", queue_wait.quantile(0.5) as f64 * 1e-3);
    }
    layers::choice_lanes(&mut report, &stats.choices);
    layers::batch_step_shares(&mut report, &kernels_before, &kernels_after);
    layers::backend_merges(&mut report, &kernels_before, &kernels_after);

    // The same traffic with the library's observability switched off, both
    // the engine's registry and the process-global one. The two engines take
    // turns, so that a slow spell of the host falls on both.
    let quiet: Served<'_> =
        Engine::over_with(&a, PlusTimes, EngineConfig::default().obs(ObsConfig::disabled()));
    obs::global().set_enabled(false);
    let warm = window(&quiet, warmup(), false);
    account(&mut report, &a, &traffic, &warm);
    let (mut observed, mut silent) = (Vec::new(), Vec::new());
    for _ in 0..TURNS {
        for (engine, enabled, rates) in
            [(&engine, true, &mut observed), (&quiet, false, &mut silent)]
        {
            obs::global().set_enabled(enabled);
            let served = window(engine, Stop::After(cfg.slice(0.3 / (2 * TURNS) as f64)), false);
            account(&mut report, &a, &traffic, &served);
            rates.push(served.requests_per_s());
        }
    }
    obs::global().set_enabled(true);
    report.set("obs.overhead_ratio", ratio(median(&silent), median(&observed)));

    report.spans = traced.tracer.into_spans();
    report
}
