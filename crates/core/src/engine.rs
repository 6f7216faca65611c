//! The serving front door: an [`Engine`] that coalesces many clients'
//! single-frontier requests into fused batched multiplications — and keeps
//! serving when requests misbehave.
//!
//! A batched kernel serves `k` frontiers in one call — its lanes spread over
//! the thread pool, its workspaces reused from call to call — but a library
//! caller had to hand-assemble a [`SparseVecBatch`] to get that win. Serving workloads (personalized
//! PageRank for many users, landmark BFS probes, reachability queries) do
//! not arrive pre-batched: they arrive as **independent requests from
//! independent logical clients**. This module is that serving layer:
//!
//! * [`Engine::load`] / [`Engine::over`] bind a matrix (owned or borrowed)
//!   to **one** [`LaneBatch`] whose lanes are kernels of the
//!   [`EngineConfig::batch_algorithm`] family — built on the first flush,
//!   workspaces reused across every flush after it. The engine and its
//!   kernels hold the same [`MatrixRef`]: the caller's borrow, or for an
//!   owned matrix one `Arc` they share;
//! * clients open [`Session`]s and submit [`MxvRequest`]s (frontier +
//!   optional output mask + optional deadline), receiving a [`Ticket`] per
//!   request;
//! * the **coalescer** (`Engine::flush`) drains the queue, groups
//!   compatible requests (same mask mode — the semiring is fixed by the
//!   engine's type, the kernel family by its configuration), moves each
//!   group's frontiers into [`SparseVecBatch`] lanes up to the
//!   [`EngineConfig::max_lanes`] width budget, executes **one** masked
//!   batched multiplication per group chunk — each request's mask becoming
//!   its lane's [`BatchMaskView::PerLane`] mask — and moves each result
//!   lane to its ticket, so no frontier or result is copied on the way.
//!
//! # Ticket lifecycle
//!
//! Every submitted request resolves to **exactly one** terminal state; no
//! code path leaves a client blocked forever. One front owns this lifecycle
//! for an [`Engine`] and a [`ShardedEngine`](crate::shard::ShardedEngine)
//! alike:
//!
//! ```text
//!            submit (admit: shape check; the router also scatters)
//!              │
//!           Pending ──────── flush: run resolves ─▶ Ready ──▶ Taken
//!              │
//!              ├─ Ticket::cancel / Session close or drop ▶ Failed(Cancelled)
//!              ├─ deadline passes                        ▶ Failed(DeadlineExceeded)
//!              ├─ queue policy sheds/rejects             ▶ Failed(Overloaded)
//!              ├─ kernel panics / errors, shard fails    ▶ Failed(KernelFailed)
//!              └─ front dropped                          ▶ Failed(Disconnected)
//! ```
//!
//! A flush drains the queue and retires, before the run, every request
//! already cancelled and every request whose deadline has passed, so a
//! client that gave up never costs kernel time; the run re-checks deadlines
//! when it delivers. [`Ticket::wait`] blocks
//! until the terminal state and returns `Result<SparseVec, EngineError>`;
//! [`Ticket::wait_timeout`] / [`Ticket::wait_deadline`] bound the block (an
//! [`EngineError::WaitTimeout`] leaves the ticket live — the request may
//! still complete); [`Ticket::try_take`] polls. Once a result is claimed,
//! later claims report [`EngineError::AlreadyTaken`].
//!
//! # Failure semantics
//!
//! A panic inside the batched kernel is **isolated to its flush group**: the
//! kernel call runs under `catch_unwind`, which turns the panic into an
//! [`EngineError::KernelFailed`] carrying its message; the engine's kernel
//! is evicted (its workspaces may be mid-mutation; the next flush rebuilds
//! it), and the group is retried **once** on a freshly built runner of the
//! same family at one participant, which runs the lanes one after another
//! on one one-thread kernel — graceful degradation, recorded as
//! `degraded_flushes` in [`crate::stats::EngineStats`]. Only if
//! the retry also fails do the group's tickets resolve as
//! [`EngineError::KernelFailed`]; every other group of the same flush, and
//! every later flush, is unaffected. Internal locks are acquired
//! poison-tolerantly, so an unwound flush cannot wedge other sessions.
//!
//! When the queue is bounded ([`EngineConfig::queue_capacity`]), the
//! [`OverloadPolicy`] decides what a full queue does to a new submission:
//! block the submitter (default), reject the newcomer, or shed the oldest
//! queued requests — shed and rejected tickets resolve as
//! [`EngineError::Overloaded`].
//!
//! Two execution styles share this pipeline:
//!
//! * **synchronous**: `submit` + `flush` — the caller decides when to fuse
//!   (the style `multi_bfs` and `pagerank_personalized_batch` use: one
//!   flush per traversal level);
//! * **thread-driven**: [`Engine::serve`] runs a background flush loop that
//!   fires when [`EngineConfig::max_lanes`] lanes are pending or after
//!   [`EngineConfig::linger`] of quiet, while client threads block on
//!   [`Ticket::wait`]. A flush that panics past its own isolation fails only
//!   the requests it had drained; the loop restarts and keeps serving.
//!
//! # Observability
//!
//! Every engine owns a metrics [`Registry`] (`Engine::obs`) holding the
//! `engine.*` counters, queue-depth/widest-flush gauges, per-phase flush
//! latency histograms, queue-wait distribution, and a bounded trace ring of
//! flush decisions (`flush.begin`, `group.fused`, `degrade.retry`,
//! `kernel.failure`, `overload`, `deadline.expired`).
//! [`Engine::stats`] is a *view* reconstructed from that registry — there is
//! no parallel bookkeeping. Configure (or disable) collection through
//! [`EngineConfig::obs`]; see the [`crate::obs`] module docs for the full
//! metric taxonomy.
//!
//! ```
//! use sparse_substrate::{fixtures, PlusTimes, SparseVec};
//! use spmspv::engine::{Engine, MxvRequest};
//!
//! let a = fixtures::figure1_matrix();
//! let engine = Engine::load(a, PlusTimes); // engine owns the matrix
//! let x = fixtures::figure1_vector();
//!
//! // Three logical clients, one fused multiplication.
//! let tickets: Vec<_> =
//!     (0..3).map(|_| engine.submit(MxvRequest::new(x.clone()))).collect();
//! engine.flush();
//! for t in tickets {
//!     let y: SparseVec<f64> = t.wait().expect("served");
//!     assert!(!y.is_empty());
//! }
//! assert_eq!(engine.stats().fused_batches, 1);
//! ```
//!
//! Results are **bit-identical** to running every request through its own
//! single-vector [`crate::SpMSpV::multiply_masked`] call (the engine
//! property test asserts exactly that): each lane *is* such a call.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sparse_substrate::{CscMatrix, MaskBits, Scalar, Semiring, SparseVec, SparseVecBatch};

use crate::algorithm::{AlgorithmKind, MatrixRef, SpMSpVOptions};
use crate::batch::{BatchAlgorithmKind, LaneBatch};
use crate::failpoint;
use crate::front::{lock, Drained, Queued, Run};
use crate::masked::{BatchMaskView, MaskMode};
use crate::obs::{Counter, Gauge, Histogram, ObsConfig, Registry, Span, TraceKind};
use crate::pull::SpMSpVPull;
use crate::stats::{ChoiceCounts, EngineStats};
use crate::timing::FlushTimings;

pub use crate::front::{EngineError, Front, FrontSession, OverloadPolicy, Ticket};

/// The serving engine: the [`Front`] over a [`LocalRun`], generic over the
/// matrix element `A`, the input element `X` and the semiring `S` — one
/// operation type, many clients. See the [module docs](self).
pub type Engine<'m, A, X, S> = Front<LocalRun<'m, A, X, S>>;

/// A handle for one logical client of an [`Engine`]: the front's session.
pub type Session<'e, 'm, A, X, S> = FrontSession<'e, LocalRun<'m, A, X, S>>;

/// Tuning knobs of an [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Width budget per fused multiplication: a flush splits each compatible
    /// group into chunks of at most this many lanes (`0` = unbounded). Also
    /// the width trigger of the [`Engine::serve`] loop.
    pub max_lanes: usize,
    /// Bound on queued requests; what happens when it is reached is the
    /// [`EngineConfig::overload`] policy's call. `0` = unbounded (the
    /// synchronous style's default).
    pub queue_capacity: usize,
    /// What a full bounded queue does to a new submission.
    pub overload: OverloadPolicy,
    /// How long the [`Engine::serve`] loop waits for more requests to
    /// coalesce before flushing a partially filled batch.
    pub linger: Duration,
    /// The family of the lane kernels every flush of this engine runs
    /// ([`BatchAlgorithmKind::lanes`]). To serve two families, run two
    /// engines.
    pub batch_algorithm: BatchAlgorithmKind,
    /// Kernel tuning options of the engine's kernel.
    pub options: SpMSpVOptions,
    /// Observability configuration for the engine's own [`Registry`]
    /// (reachable via `Engine::obs`). Disabling it skips latency
    /// histograms and trace events; the `engine.*` counters keep running so
    /// [`Engine::stats`] stays exact either way.
    pub obs: ObsConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_lanes: 64,
            queue_capacity: 0,
            overload: OverloadPolicy::Block,
            linger: Duration::from_micros(200),
            // Adaptive: each lane resolves its kernel family from its own
            // frontier, so serving traffic auto-tunes without caller hints.
            batch_algorithm: BatchAlgorithmKind::Adaptive,
            options: SpMSpVOptions::default(),
            obs: ObsConfig::default(),
        }
    }
}

impl EngineConfig {
    /// Builder-style setter for [`EngineConfig::max_lanes`].
    pub fn max_lanes(mut self, k: usize) -> Self {
        self.max_lanes = k;
        self
    }

    /// Builder-style setter for [`EngineConfig::queue_capacity`].
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n;
        self
    }

    /// Builder-style setter for [`EngineConfig::overload`].
    pub fn overload_policy(mut self, policy: OverloadPolicy) -> Self {
        self.overload = policy;
        self
    }

    /// Builder-style setter for [`EngineConfig::linger`].
    pub fn linger(mut self, d: Duration) -> Self {
        self.linger = d;
        self
    }

    /// Builder-style setter for [`EngineConfig::batch_algorithm`].
    pub fn batch_algorithm(mut self, kind: BatchAlgorithmKind) -> Self {
        self.batch_algorithm = kind;
        self
    }

    /// Builder-style setter for [`EngineConfig::options`].
    pub fn options(mut self, options: SpMSpVOptions) -> Self {
        self.options = options;
        self
    }

    /// Builder-style setter for [`EngineConfig::obs`].
    pub fn obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }
}

/// One client request: a frontier, an optional in-kernel output mask, and
/// an optional deadline. Requests with the same mask *mode* coalesce into
/// one fused multiplication; each request's mask becomes its lane's mask.
#[derive(Debug, Clone)]
pub struct MxvRequest<X> {
    pub(crate) frontier: SparseVec<X>,
    pub(crate) mask: Option<(Arc<MaskBits>, MaskMode)>,
    pub(crate) deadline: Option<Instant>,
    /// A shard's share of a request the router pulls: the frontier spans
    /// the matrix's rows, the mask and the answer its columns, and the
    /// engine runs it through the pull scan (the transposed reading of
    /// [`crate::pull`]). Only the shard transports set it.
    pub(crate) pulled: bool,
}

impl<X: Scalar> MxvRequest<X> {
    /// A plain unmasked request with no deadline.
    pub fn new(frontier: SparseVec<X>) -> Self {
        MxvRequest { frontier, mask: None, deadline: None, pulled: false }
    }

    /// Attaches this request's own output mask (the BFS `¬visited` idiom:
    /// every client carries its private visited set).
    ///
    /// Accepts an owned [`MaskBits`] or an `Arc<MaskBits>`. Iterative
    /// clients that re-submit an evolving mask every round should pass
    /// `Arc::clone(&mask)` — the bitmap then travels through the queue, the
    /// coalescer and the kernel by refcount, and between flushes the
    /// client's `Arc::make_mut` updates stay zero-copy because the engine
    /// has dropped its reference by then.
    pub fn mask(mut self, bits: impl Into<Arc<MaskBits>>, mode: MaskMode) -> Self {
        self.mask = Some((bits.into(), mode));
        self
    }

    /// Sets an absolute deadline: a flush retires the request with
    /// [`EngineError::DeadlineExceeded`] instead of running it once the
    /// deadline has passed, and re-checks when it delivers, so a result
    /// computed too late is never delivered as if it were fresh.
    pub fn deadline(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// [`MxvRequest::deadline`] expressed as a duration from now.
    pub fn timeout(self, after: Duration) -> Self {
        self.deadline(Instant::now() + after)
    }

    /// Why this request does not fit an `nrows × ncols` matrix: a frontier
    /// of another width, or a mask of another height. A pulled request
    /// reads the matrix transposed, so its frontier must span the rows and
    /// its mask, which it must carry, the columns. `None` when it fits.
    pub(crate) fn shape_error(&self, nrows: usize, ncols: usize) -> Option<String> {
        if self.pulled {
            return if self.frontier.len() != nrows {
                Some(format!(
                    "pulled request frontier has dimension {} but the matrix has {nrows} rows",
                    self.frontier.len()
                ))
            } else {
                match &self.mask {
                    None => Some("pulled request carries no mask".to_string()),
                    Some((bits, _)) if bits.len() != ncols => Some(format!(
                        "pulled request mask covers {} rows but the matrix has {ncols} columns",
                        bits.len()
                    )),
                    Some(_) => None,
                }
            };
        }
        if self.frontier.len() != ncols {
            return Some(format!(
                "request frontier has dimension {} but the matrix has {ncols} columns",
                self.frontier.len()
            ));
        }
        match &self.mask {
            Some((bits, _)) if bits.len() != nrows => Some(format!(
                "request mask covers {} rows but the matrix has {nrows} output rows",
                bits.len()
            )),
            _ => None,
        }
    }
}

/// The engine's reusable kernels: the runner of its family's lanes and,
/// for a shard's pulled requests, the pull kernel.
struct Kernels<'m, A, X, S: Semiring<A, X>> {
    lanes: Option<LaneBatch<'m, A, X, S>>,
    pull: Option<SpMSpVPull<'m, A, S::Output>>,
}

impl<A, X, S: Semiring<A, X>> Default for Kernels<'_, A, X, S> {
    fn default() -> Self {
        Kernels { lanes: None, pull: None }
    }
}

/// Turns a caught kernel panic into the error its group's tickets resolve
/// to, keeping the panic's message (`panic!` with a formatted message boxes
/// a `String`; a literal boxes a `&'static str`).
pub(crate) fn kernel_failure(payload: Box<dyn std::any::Any + Send>) -> EngineError {
    let msg = match payload.downcast::<String>() {
        Ok(msg) => *msg,
        Err(payload) => match payload.downcast_ref::<&str>() {
            Some(msg) => (*msg).to_string(),
            None => "kernel panicked with a non-string payload".to_string(),
        },
    };
    EngineError::KernelFailed(msg)
}

/// Index of each flush phase in [`EngineMetrics::flush_phase`].
const PHASE_ASSEMBLE: usize = 0;
const PHASE_EXECUTE: usize = 1;
const PHASE_DEMUX: usize = 2;
const PHASE_RECOVER: usize = 3;

/// The engine's [`Registry`] plus the `engine.*` metrics the local run
/// records, resolved once at construction so the hot paths never touch the
/// registry's name table (the front registers its own beside them).
struct EngineMetrics {
    registry: Registry,
    flushes: Arc<Counter>,
    fused_batches: Arc<Counter>,
    lanes_executed: Arc<Counter>,
    timeouts: Arc<Counter>,
    panics_recovered: Arc<Counter>,
    degraded_flushes: Arc<Counter>,
    /// `engine.choice.bucket.dense`: fused batches that did work.
    choice: Arc<Counter>,
    widest_flush: Arc<Gauge>,
    /// assemble / execute / demux / recover, see the `PHASE_*` indices.
    flush_phase: [Arc<Histogram>; 4],
}

impl EngineMetrics {
    fn new(config: &ObsConfig) -> Self {
        let registry = Registry::new(config.clone());
        EngineMetrics {
            flushes: registry.counter("engine.flushes"),
            fused_batches: registry.counter("engine.fused_batches"),
            lanes_executed: registry.counter("engine.lanes_executed"),
            timeouts: registry.counter("engine.timeouts"),
            panics_recovered: registry.counter("engine.panics_recovered"),
            degraded_flushes: registry.counter("engine.degraded_flushes"),
            choice: registry.counter("engine.choice.bucket.dense"),
            widest_flush: registry.gauge("engine.widest_flush"),
            flush_phase: [
                "engine.flush.assemble",
                "engine.flush.execute",
                "engine.flush.demux",
                "engine.flush.recover",
            ]
            .map(|name| registry.histogram(name)),
            registry,
        }
    }

    /// A span over one flush phase — recording when enabled, a plain timer
    /// otherwise, so the `FlushOutcome` timings stay exact either way.
    fn phase_span(&self, phase: usize) -> Span<'_> {
        if self.registry.enabled() {
            Span::enter(&self.flush_phase[phase])
        } else {
            Span::disabled()
        }
    }
}

/// The local run behind an [`Engine`]: it groups a drained queue's live
/// requests, executes them on its kernels and demultiplexes the results.
pub struct LocalRun<'m, A: Scalar, X: Scalar, S: Semiring<A, X>> {
    /// The runner of [`EngineConfig::batch_algorithm`] lanes and the pull
    /// kernel of pulled requests, each built on the first flush that needs
    /// it and reused by every later one (the amortization the engine
    /// exists for); `None` until then and after a panic evicted them.
    kernel: Mutex<Kernels<'m, A, X, S>>,
    metrics: EngineMetrics,
    config: EngineConfig,
    semiring: S,
    /// Borrowed for [`Engine::over`], shared with the kernel for
    /// [`Engine::load`].
    matrix: MatrixRef<'m, A>,
}

impl<'m, A, X, S> Engine<'m, A, X, S>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X> + Clone + 'm,
{
    /// An engine borrowing `matrix` from the caller, with default
    /// configuration — the fit for algorithm drivers (`multi_bfs`,
    /// `pagerank_personalized_batch`) that already hold the matrix.
    pub fn over(matrix: &'m CscMatrix<A>, semiring: S) -> Self {
        Self::over_with(matrix, semiring, EngineConfig::default())
    }

    /// [`Engine::over`] with an explicit configuration.
    pub fn over_with(matrix: &'m CscMatrix<A>, semiring: S, config: EngineConfig) -> Self {
        Self::from_matrix(MatrixRef::Borrowed(matrix), semiring, config)
    }

    /// An engine **owning** `matrix`, with default configuration — the
    /// serving deployment shape: load once, serve until dropped.
    pub fn load(matrix: CscMatrix<A>, semiring: S) -> Self {
        Self::load_with(matrix, semiring, EngineConfig::default())
    }

    /// [`Engine::load`] with an explicit configuration.
    pub fn load_with(matrix: CscMatrix<A>, semiring: S, config: EngineConfig) -> Self {
        Self::from_matrix(MatrixRef::Shared(Arc::new(matrix)), semiring, config)
    }

    fn from_matrix(matrix: MatrixRef<'m, A>, semiring: S, config: EngineConfig) -> Self {
        let (capacity, overload) = (config.queue_capacity, config.overload);
        let run = LocalRun {
            kernel: Mutex::new(Kernels::default()),
            metrics: EngineMetrics::new(&config.obs),
            config,
            semiring,
            matrix,
        };
        Front::new(run, capacity, overload)
    }

    /// The matrix this engine serves.
    pub fn matrix(&self) -> &CscMatrix<A> {
        &self.run.matrix
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.run.config
    }

    /// Cumulative coalescing and failure telemetry — a view reconstructed
    /// from the engine's metrics [`Registry`] (see `Engine::obs`). The
    /// counters are exact regardless of [`ObsConfig`]; the
    /// [`EngineStats::flush_timings`] breakdown comes from the
    /// `engine.flush.*` histograms' exact nanosecond sums and is therefore
    /// all-zero when observability is disabled.
    pub fn stats(&self) -> EngineStats {
        let (front, m) = (&self.metrics, &self.run.metrics);
        EngineStats {
            requests: front.requests.get() as usize,
            retired: front.retired.get() as usize,
            flushes: m.flushes.get() as usize,
            fused_batches: m.fused_batches.get() as usize,
            lanes_executed: m.lanes_executed.get() as usize,
            widest_flush: m.widest_flush.get() as usize,
            timeouts: m.timeouts.get() as usize,
            rejected: front.rejected.get() as usize,
            shed: front.shed.get() as usize,
            panics_recovered: m.panics_recovered.get() as usize,
            degraded_flushes: m.degraded_flushes.get() as usize,
            flush_timings: FlushTimings {
                assemble: Duration::from_nanos(m.flush_phase[PHASE_ASSEMBLE].sum()),
                execute: Duration::from_nanos(m.flush_phase[PHASE_EXECUTE].sum()),
                demux: Duration::from_nanos(m.flush_phase[PHASE_DEMUX].sum()),
                recover: Duration::from_nanos(m.flush_phase[PHASE_RECOVER].sum()),
            },
            choices: ChoiceCounts::from_count(m.choice.get() as usize),
        }
    }

    /// Runs `body` with a background flush loop serving the engine: the loop
    /// flushes whenever [`EngineConfig::max_lanes`] requests are pending or
    /// [`EngineConfig::linger`] elapses with a non-empty queue. The loop
    /// drains remaining requests and stops when `body` returns (or panics).
    ///
    /// Client threads spawned inside `body` submit through [`Session`]s and
    /// block on [`Ticket::wait`].
    ///
    /// The loop is **self-healing**: a flush that panics past its own
    /// isolation (every drained ticket is still resolved on the way out) is
    /// caught here and the loop restarts, so one poisoned flush cannot stop
    /// the engine from serving later requests. A server-thread failure never
    /// becomes a panic in the caller: if the loop cannot be recovered, the
    /// remaining queued requests resolve as [`EngineError::Disconnected`].
    pub fn serve<R: Send>(&self, body: impl FnOnce(&Self) -> R + Send) -> R {
        let config = &self.run.config;
        self.serve_during(config.max_lanes, config.linger, body)
    }
}

impl<'m, A, X, S> LocalRun<'m, A, X, S>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X> + Clone + 'm,
{
    /// Folds one flush's outcome into the run's registry counters.
    fn record_flush_outcome(&self, outcome: &FlushOutcome) {
        let m = &self.metrics;
        if outcome.batches > 0 {
            m.flushes.inc();
        }
        m.fused_batches.add(outcome.batches as u64);
        m.lanes_executed.add(outcome.lanes as u64);
        m.widest_flush.record_max(outcome.lanes as u64);
        m.timeouts.add(outcome.timeouts as u64);
        m.panics_recovered.add(outcome.panics_recovered as u64);
        m.degraded_flushes.add(outcome.degraded_flushes as u64);
        m.choice.add(outcome.choices.total() as u64);
        if outcome.timeouts > 0 {
            m.registry.trace(TraceKind::DeadlineExpired { lanes: outcome.timeouts });
        }
    }

    /// Executes one fused group with panic isolation: on the engine's
    /// kernels (built on first use) when `kernel` is given, else on freshly
    /// built ones at one participant — the one-shot degraded retry. A
    /// pushed group runs on the runner of the engine's family; a pulled one
    /// runs its lanes one after another through the pull scan, each on the
    /// participants its kept rows earn. A kernel panic comes back as
    /// [`EngineError::KernelFailed`], and the engine's kernels are then
    /// evicted: their workspaces may be mid-mutation from the unwound call,
    /// so the next flush rebuilds them cleanly.
    fn execute(
        &self,
        kernel: Option<&mut Kernels<'m, A, X, S>>,
        pulled: bool,
        x: &SparseVecBatch<X>,
        mask: Option<&BatchMaskView<'_>>,
    ) -> Result<SparseVecBatch<S::Output>, EngineError> {
        failpoint::act("engine.flush.execute").map_err(EngineError::KernelFailed)?;
        let matrix = &self.matrix;
        let run = |kernels: &mut Kernels<'m, A, X, S>, options: &SpMSpVOptions| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if !pulled {
                    let kind = self.config.batch_algorithm.lanes();
                    let runner = kernels.lanes.get_or_insert_with(|| {
                        LaneBatch::new(matrix.clone(), kind, options.clone())
                    });
                    return runner.multiply_batch_masked(x, &self.semiring, mask);
                }
                let pull = kernels
                    .pull
                    .get_or_insert_with(|| SpMSpVPull::new(matrix.clone(), options.clone()));
                let mask = mask.expect("a pulled request carries a mask");
                let ys =
                    (0..x.k()).map(|l| pull.pull(x.lane(l), &self.semiring, mask.lane_view(l)));
                SparseVecBatch::with_lanes(matrix.ncols(), ys.collect())
                    .expect("a pulled lane spans the matrix's columns")
            }))
            .map_err(kernel_failure)
        };
        match kernel {
            Some(kernels) => {
                let served = run(kernels, &self.config.options);
                if served.is_err() {
                    *kernels = Kernels::default();
                }
                served
            }
            None => run(&mut Kernels::default(), &SpMSpVOptions::with_threads(1)),
        }
    }
}

impl<'m, A, X, S> Run for LocalRun<'m, A, X, S>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X> + Clone + 'm,
{
    type Input = X;
    type Output = S::Output;
    type Entry = MxvRequest<X>;
    type Outcome = FlushOutcome;
    const PREFIX: &'static str = "engine";

    fn registry(&self) -> &Registry {
        &self.metrics.registry
    }

    fn admit(&self, _id: u64, request: MxvRequest<X>) -> MxvRequest<X> {
        if let Some(msg) = request.shape_error(self.matrix.nrows(), self.matrix.ncols()) {
            panic!("{msg}");
        }
        request
    }

    /// Groups compatible requests, fuses each group into at most
    /// [`EngineConfig::max_lanes`] lanes per batched multiplication,
    /// executes (with panic isolation and a one-shot one-participant retry
    /// per failed group), and demultiplexes results to the tickets.
    fn run(&self, live: Vec<Queued<MxvRequest<X>, S::Output>>, drained: Drained) -> FlushOutcome {
        if drained.requests == 0 {
            return FlushOutcome::default();
        }
        if let Err(msg) = failpoint::act("engine.flush.assemble") {
            panic!("failpoint engine.flush.assemble: {msg}");
        }

        let mut outcome = FlushOutcome {
            requests: drained.requests,
            retired: drained.retired,
            timeouts: drained.timeouts,
            ..FlushOutcome::default()
        };
        let sp_group = self.metrics.phase_span(PHASE_ASSEMBLE);
        // Group by mask mode, and pulled requests apart, preserving arrival
        // order within each group — the demux order clients observe.
        type Group<X, Y> = ((Option<MaskMode>, bool), Vec<Queued<MxvRequest<X>, Y>>);
        let live_len = live.len();
        let mut groups: Vec<Group<X, S::Output>> = Vec::new();
        for queued in live {
            let key = (queued.entry.mask.as_ref().map(|&(_, mode)| mode), queued.entry.pulled);
            // Sized once from the live count, so a group never regrows.
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, members)) => members.push(queued),
                None => {
                    let mut members = Vec::with_capacity(live_len);
                    members.push(queued);
                    groups.push((key, members));
                }
            }
        }
        outcome.timings.assemble += sp_group.stop();

        let width = if self.config.max_lanes == 0 { usize::MAX } else { self.config.max_lanes };
        let mut kernel = lock(&self.kernel);
        for ((mode, pulled), members) in groups {
            // The family that runs this group: a pulled group runs the pull
            // scan whatever the engine's configured family.
            let family =
                if pulled { AlgorithmKind::Pull } else { self.config.batch_algorithm.lanes() };
            let mut members = members.into_iter().peekable();
            while members.peek().is_some() {
                let sp_assemble = self.metrics.phase_span(PHASE_ASSEMBLE);
                // Mid-flight retirement check once more at assembly time: a
                // ticket cancelled after the drain still leaves the batch.
                let mut chunk = Vec::with_capacity(members.len().min(width));
                chunk.extend(members.by_ref().take(width).filter(|e| {
                    let live = e.ticket.is_pending();
                    if !live {
                        outcome.retired += 1;
                    }
                    live
                }));
                if chunk.is_empty() {
                    outcome.timings.assemble += sp_assemble.stop();
                    continue;
                }
                let first_id = chunk[0].id;
                // Disassemble the entries: frontiers move in as the batch's
                // lanes, masks become the lanes' masks by refcount, tickets
                // stay for the demux — no per-request copies.
                let mut tickets = Vec::with_capacity(chunk.len());
                let mut deadlines = Vec::with_capacity(chunk.len());
                let mut lanes = Vec::with_capacity(chunk.len());
                let mut masks = Vec::with_capacity(if mode.is_some() { chunk.len() } else { 0 });
                for queued in chunk {
                    tickets.push(queued.ticket);
                    deadlines.push(queued.deadline);
                    lanes.push(queued.entry.frontier);
                    masks.extend(queued.entry.mask.map(|(bits, _)| bits));
                }
                // A pulled lane's frontier spans the matrix's rows.
                let width = if pulled { self.matrix.nrows() } else { self.matrix.ncols() };
                let x = SparseVecBatch::with_lanes(width, lanes)
                    .expect("request dimensions are validated at submit");
                let mask = mode.map(|mode| BatchMaskView::PerLane { masks: &masks, mode });
                outcome.timings.assemble += sp_assemble.stop();
                self.metrics.registry.trace(TraceKind::GroupFused {
                    kernel: family,
                    lanes: x.k(),
                    masked: mode.is_some(),
                    first_id,
                });

                let sp_execute = self.metrics.phase_span(PHASE_EXECUTE);
                let first = self.execute(Some(&mut *kernel), pulled, &x, mask.as_ref());
                outcome.timings.execute += sp_execute.stop();
                let served = match first {
                    Ok(ok) => Some(ok),
                    Err(err) => {
                        outcome.panics_recovered += 1;
                        self.metrics.registry.trace(TraceKind::KernelFailure(err.to_string()));
                        // Graceful degradation: one retry on a fresh runner
                        // of the same family at one participant, its lanes
                        // one after another on one one-thread kernel.
                        self.metrics.registry.trace(TraceKind::DegradeRetry { from: family });
                        let sp_recover = self.metrics.phase_span(PHASE_RECOVER);
                        let retry = self.execute(None, pulled, &x, mask.as_ref());
                        outcome.timings.recover += sp_recover.stop();
                        match retry {
                            Ok(y) => {
                                outcome.degraded_flushes += 1;
                                Some(y)
                            }
                            Err(retry_err) => {
                                outcome.panics_recovered += 1;
                                self.metrics
                                    .registry
                                    .trace(TraceKind::KernelFailure(retry_err.to_string()));
                                for t in &tickets {
                                    t.fail(retry_err.clone());
                                }
                                None
                            }
                        }
                    }
                };
                let Some(y) = served else { continue };
                if !x.is_empty() {
                    outcome.choices.record();
                }

                let sp_demux = self.metrics.phase_span(PHASE_DEMUX);
                if let Err(msg) = failpoint::act("engine.flush.demux") {
                    panic!("failpoint engine.flush.demux: {msg}");
                }
                // Deadline re-check at demux: a result computed too late is
                // dropped, not delivered as if it were fresh. Each result
                // lane moves to its ticket.
                let now = Instant::now();
                for ((ticket, deadline), lane) in tickets.iter().zip(&deadlines).zip(y.into_lanes())
                {
                    if deadline.is_some_and(|d| now >= d) {
                        if ticket.fail(EngineError::DeadlineExceeded) {
                            outcome.timeouts += 1;
                        }
                        continue;
                    }
                    ticket.fulfil(lane);
                }
                outcome.batches += 1;
                outcome.lanes += tickets.len();
                outcome.timings.demux += sp_demux.stop();
            }
        }
        drop(kernel);

        self.record_flush_outcome(&outcome);
        outcome
    }

    fn retired(outcome: &FlushOutcome) -> usize {
        outcome.retired
    }
}

/// What one `Engine::flush` did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushOutcome {
    /// Requests drained from the queue.
    pub requests: usize,
    /// Requests dropped because their ticket had already resolved —
    /// cancelled, session closed, shed — before their lane was assembled.
    pub retired: usize,
    /// Fused batched multiplications executed.
    pub batches: usize,
    /// Lanes executed across those batches (= requests served, including
    /// the rare lane whose deadline expired between execute and demux).
    pub lanes: usize,
    /// Requests failed with [`EngineError::DeadlineExceeded`] — expired
    /// before fusing or between execution and demux.
    pub timeouts: usize,
    /// Kernel failures (caught panics or injected errors) this flush
    /// survived — one per failed execution attempt.
    pub panics_recovered: usize,
    /// Groups that were served by the one-shot one-participant retry after
    /// their first attempt failed.
    pub degraded_flushes: usize,
    /// Wall-clock breakdown of this flush.
    pub timings: FlushTimings,
    /// Fused batches of this flush that had anything to multiply (a group
    /// of all-empty frontiers executes nothing and records none).
    pub choices: ChoiceCounts,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{build_algorithm, AlgorithmKind};
    use crate::masked::MaskView;
    use sparse_substrate::gen::{erdos_renyi, random_sparse_vec};
    use sparse_substrate::{fixtures, PlusTimes, Select2ndMin};

    fn requests(n: usize, count: usize, seed: u64) -> Vec<SparseVec<f64>> {
        (0..count).map(|i| random_sparse_vec(n, (n / 4).max(1), seed + i as u64)).collect()
    }

    /// The oracle: one independent single-vector kernel call per request,
    /// same options.
    fn independent_run<X: Scalar, S: Semiring<f64, X>>(
        a: &CscMatrix<f64>,
        semiring: &S,
        x: &SparseVec<X>,
        mask: Option<(&MaskBits, MaskMode)>,
    ) -> SparseVec<S::Output> {
        build_algorithm(a, AlgorithmKind::Adaptive, SpMSpVOptions::default()).multiply_masked(
            x,
            semiring,
            mask.map(|(bits, mode)| MaskView::new(bits, mode)),
        )
    }

    #[test]
    fn coalesced_flush_is_bit_identical_to_independent_runs() {
        let a = erdos_renyi(200, 6.0, 9);
        let engine = Engine::over(&a, PlusTimes);
        let frontiers = requests(200, 6, 3);
        let tickets: Vec<Ticket<f64>> =
            frontiers.iter().map(|x| engine.submit(MxvRequest::new(x.clone()))).collect();
        let outcome = engine.flush();
        assert_eq!(outcome.requests, 6);
        assert_eq!(outcome.lanes, 6);
        assert_eq!(outcome.batches, 1, "six compatible requests must fuse into one batch");
        for (ticket, x) in tickets.into_iter().zip(frontiers.iter()) {
            let y = ticket.try_take().expect("flushed").expect("served");
            assert_eq!(y, independent_run(&a, &PlusTimes, x, None), "engine lane diverged");
        }
        let stats = engine.stats();
        assert_eq!(stats.requests, 6);
        assert_eq!(stats.fused_batches, 1);
        assert_eq!(stats.widest_flush, 6);
        assert!(stats.mean_lanes_per_batch() > 5.9);
    }

    #[test]
    fn owned_matrix_engine_serves_after_load() {
        let a = fixtures::figure1_matrix();
        let x = fixtures::figure1_vector();
        let expected = independent_run(&a, &PlusTimes, &x, None);
        let engine = Engine::load(a, PlusTimes);
        let t = engine.submit(MxvRequest::new(x));
        engine.flush();
        assert_eq!(t.wait().expect("served"), expected);
        assert_eq!(engine.matrix().nrows(), 8);
    }

    #[test]
    fn per_request_masks_become_lane_masks() {
        let a = erdos_renyi(150, 5.0, 4);
        let engine = Engine::over(&a, PlusTimes);
        let frontiers = requests(150, 4, 11);
        let masks: Vec<MaskBits> =
            (0..4).map(|i| MaskBits::from_indices(150, (i..150).step_by(3))).collect();
        let tickets: Vec<Ticket<f64>> = frontiers
            .iter()
            .zip(masks.iter())
            .map(|(x, bits)| {
                engine.submit(MxvRequest::new(x.clone()).mask(bits.clone(), MaskMode::Complement))
            })
            .collect();
        let outcome = engine.flush();
        assert_eq!(outcome.batches, 1, "same mask mode must coalesce");
        for ((ticket, x), bits) in tickets.into_iter().zip(&frontiers).zip(&masks) {
            let y = ticket.try_take().expect("flushed").expect("served");
            assert_eq!(y, independent_run(&a, &PlusTimes, x, Some((bits, MaskMode::Complement))));
        }
    }

    #[test]
    fn incompatible_requests_split_into_groups() {
        let a = erdos_renyi(100, 5.0, 2);
        let engine = Engine::over(&a, PlusTimes);
        let xs = requests(100, 4, 5);
        let bits = MaskBits::from_indices(100, (0..100).step_by(2));
        engine.submit(MxvRequest::new(xs[0].clone()));
        engine.submit(MxvRequest::new(xs[1].clone()).mask(bits.clone(), MaskMode::Keep));
        engine.submit(MxvRequest::new(xs[2].clone()).mask(bits, MaskMode::Complement));
        engine.submit(MxvRequest::new(xs[3].clone()));
        let outcome = engine.flush();
        assert_eq!(outcome.batches, 3, "three mask modes, three groups");
        assert_eq!(outcome.lanes, 4);
    }

    #[test]
    fn max_lanes_budget_chunks_wide_groups() {
        let a = erdos_renyi(80, 4.0, 7);
        let engine = Engine::over_with(&a, PlusTimes, EngineConfig::default().max_lanes(2));
        let xs = requests(80, 5, 23);
        let tickets: Vec<Ticket<f64>> =
            xs.iter().map(|x| engine.submit(MxvRequest::new(x.clone()))).collect();
        let outcome = engine.flush();
        assert_eq!(outcome.batches, 3, "5 lanes under a width budget of 2 → 3 batches");
        for (ticket, x) in tickets.into_iter().zip(&xs) {
            assert_eq!(
                ticket.try_take().expect("flushed").expect("served"),
                independent_run(&a, &PlusTimes, x, None)
            );
        }
    }

    #[test]
    fn cancelled_ticket_retires_before_assembly() {
        let a = erdos_renyi(90, 4.0, 1);
        let engine = Engine::over(&a, PlusTimes);
        let xs = requests(90, 3, 2);
        let keep0 = engine.submit(MxvRequest::new(xs[0].clone()));
        let dropped = engine.submit(MxvRequest::new(xs[1].clone()));
        let keep1 = engine.submit(MxvRequest::new(xs[2].clone()));
        assert!(dropped.cancel());
        assert!(!dropped.cancel(), "second cancel is a no-op");
        let outcome = engine.flush();
        assert_eq!(outcome.retired, 1);
        assert_eq!(outcome.lanes, 2);
        assert_eq!(dropped.try_take(), Some(Err(EngineError::Cancelled)));
        assert_eq!(
            keep0.try_take().expect("served").expect("succeeded"),
            independent_run(&a, &PlusTimes, &xs[0], None)
        );
        assert_eq!(
            keep1.try_take().expect("served").expect("succeeded"),
            independent_run(&a, &PlusTimes, &xs[2], None)
        );
        assert_eq!(engine.stats().retired, 1);

        // A flush whose every request was retired runs no batch: its
        // retirements count, but it is not a serving flush.
        let late = engine.submit(MxvRequest::new(xs[0].clone()));
        assert!(late.cancel());
        let outcome = engine.flush();
        assert_eq!((outcome.retired, outcome.batches), (1, 0));
        let stats = engine.stats();
        assert_eq!((stats.retired, stats.flushes), (2, 1));
    }

    #[test]
    fn closing_a_session_retires_its_queued_requests() {
        let a = erdos_renyi(70, 4.0, 6);
        let engine = Engine::over(&a, PlusTimes);
        let xs = requests(70, 3, 9);
        let closing = engine.session();
        let staying = engine.session();
        assert_ne!(closing.id(), staying.id());
        let dead = closing.submit(MxvRequest::new(xs[0].clone()));
        let live = staying.submit(MxvRequest::new(xs[1].clone()));
        let dead2 = closing.submit(MxvRequest::new(xs[2].clone()));
        assert_eq!(closing.close(), 2);
        let outcome = engine.flush();
        assert_eq!(outcome.lanes, 1);
        assert_eq!(dead.wait(), Err(EngineError::Cancelled));
        assert_eq!(dead2.try_take(), Some(Err(EngineError::Cancelled)));
        assert_eq!(
            live.try_take().expect("served").expect("succeeded"),
            independent_run(&a, &PlusTimes, &xs[1], None)
        );
    }

    #[test]
    fn dropping_a_session_retires_like_close() {
        let a = erdos_renyi(60, 4.0, 15);
        let engine = Engine::over(&a, PlusTimes);
        let xs = requests(60, 2, 21);
        let orphan = {
            let session = engine.session();
            session.submit(MxvRequest::new(xs[0].clone()))
            // Session dropped here without close(): its queued request must
            // still resolve, not linger pending forever.
        };
        let live = engine.submit(MxvRequest::new(xs[1].clone()));
        let outcome = engine.flush();
        assert_eq!(outcome.lanes, 1);
        assert_eq!(orphan.wait(), Err(EngineError::Cancelled));
        assert_eq!(
            live.try_take().expect("served").expect("succeeded"),
            independent_run(&a, &PlusTimes, &xs[1], None)
        );
    }

    #[test]
    fn dropping_the_engine_fails_pending_tickets() {
        let a = fixtures::figure1_matrix();
        let x = fixtures::figure1_vector();
        let engine = Engine::load(a, PlusTimes);
        let never_flushed = engine.submit(MxvRequest::new(x));
        drop(engine);
        // No deadlock: the drop resolved the ticket, so an untimed wait
        // returns immediately.
        assert_eq!(never_flushed.wait(), Err(EngineError::Disconnected));
    }

    #[test]
    fn wait_timeout_leaves_the_ticket_live() {
        let a = fixtures::figure1_matrix();
        let x = fixtures::figure1_vector();
        let engine = Engine::over(&a, PlusTimes);
        let ticket = engine.submit(MxvRequest::new(x.clone()));
        // Nothing flushes: the bounded wait must give up, not hang.
        assert_eq!(ticket.wait_timeout(Duration::from_millis(10)), Err(EngineError::WaitTimeout));
        assert!(ticket.is_pending(), "a wait timeout must not consume the request");
        engine.flush();
        assert_eq!(
            ticket.wait_timeout(Duration::from_secs(5)).expect("served after flush"),
            independent_run(&a, &PlusTimes, &x, None)
        );
    }

    #[test]
    fn expired_deadline_is_retired_before_fusing() {
        let a = erdos_renyi(80, 4.0, 3);
        let engine = Engine::over(&a, PlusTimes);
        let xs = requests(80, 2, 7);
        let expired = engine.submit(MxvRequest::new(xs[0].clone()).timeout(Duration::ZERO));
        let fresh = engine.submit(
            MxvRequest::new(xs[1].clone()).deadline(Instant::now() + Duration::from_secs(60)),
        );
        let outcome = engine.flush();
        assert_eq!(outcome.timeouts, 1);
        assert_eq!(outcome.lanes, 1, "the expired request must never cost a lane");
        assert_eq!(expired.wait(), Err(EngineError::DeadlineExceeded));
        assert_eq!(
            fresh.try_take().expect("served").expect("succeeded"),
            independent_run(&a, &PlusTimes, &xs[1], None)
        );
        assert_eq!(engine.stats().timeouts, 1);
    }

    #[test]
    fn reject_policy_fails_the_newcomer_when_full() {
        let a = erdos_renyi(50, 4.0, 5);
        let engine = Engine::over_with(
            &a,
            PlusTimes,
            EngineConfig::default().queue_capacity(1).overload_policy(OverloadPolicy::Reject),
        );
        let xs = requests(50, 2, 13);
        let queued = engine.submit(MxvRequest::new(xs[0].clone()));
        let refused = engine.submit(MxvRequest::new(xs[1].clone()));
        assert_eq!(refused.try_take(), Some(Err(EngineError::Overloaded)));
        assert_eq!(engine.pending(), 1, "the rejected request must not occupy the queue");
        engine.flush();
        assert_eq!(
            queued.try_take().expect("served").expect("succeeded"),
            independent_run(&a, &PlusTimes, &xs[0], None)
        );
        let stats = engine.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.shed, 0);
    }

    #[test]
    fn shed_oldest_policy_prefers_the_freshest_requests() {
        let a = erdos_renyi(50, 4.0, 19);
        let engine = Engine::over_with(
            &a,
            PlusTimes,
            EngineConfig::default().queue_capacity(2).overload_policy(OverloadPolicy::ShedOldest),
        );
        let xs = requests(50, 3, 29);
        let oldest = engine.submit(MxvRequest::new(xs[0].clone()));
        let middle = engine.submit(MxvRequest::new(xs[1].clone()));
        let newest = engine.submit(MxvRequest::new(xs[2].clone()));
        assert_eq!(oldest.wait(), Err(EngineError::Overloaded), "oldest is shed, not the newcomer");
        engine.flush();
        assert_eq!(
            middle.try_take().expect("served").expect("succeeded"),
            independent_run(&a, &PlusTimes, &xs[1], None)
        );
        assert_eq!(
            newest.try_take().expect("served").expect("succeeded"),
            independent_run(&a, &PlusTimes, &xs[2], None)
        );
        assert_eq!(engine.stats().shed, 1);
    }

    #[test]
    fn serve_loop_fuses_concurrent_clients() {
        let a = erdos_renyi(160, 5.0, 12);
        let engine = Engine::over_with(
            &a,
            PlusTimes,
            EngineConfig::default().max_lanes(8).linger(Duration::from_millis(20)),
        );
        let xs = requests(160, 8, 31);
        let results: Vec<(SparseVec<f64>, SparseVec<f64>)> = engine.serve(|engine| {
            std::thread::scope(|s| {
                let handles: Vec<_> = xs
                    .iter()
                    .map(|x| {
                        s.spawn(move || {
                            let session = engine.session();
                            let ticket = session.submit(MxvRequest::new(x.clone()));
                            (ticket.wait().expect("served"), x.clone())
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("client panicked")).collect()
            })
        });
        for (y, x) in &results {
            assert_eq!(*y, independent_run(&a, &PlusTimes, x, None), "served lane diverged");
        }
        let stats = engine.stats();
        assert_eq!(stats.requests, 8);
        assert_eq!(stats.lanes_executed, 8);
        assert!(
            stats.fused_batches < 8,
            "serve loop should coalesce at least some of the 8 concurrent requests \
             (got {} batches)",
            stats.fused_batches
        );
    }

    #[test]
    fn serve_loop_without_width_budget_flushes_on_linger_only() {
        // max_lanes = 0 must mean "no width trigger" in serve mode too: the
        // loop coalesces whatever accumulates within one linger window
        // instead of flushing every request alone.
        let a = erdos_renyi(100, 4.0, 3);
        let engine = Engine::over_with(
            &a,
            PlusTimes,
            EngineConfig::default().max_lanes(0).linger(Duration::from_millis(20)),
        );
        let xs = requests(100, 6, 17);
        let results: Vec<(SparseVec<f64>, SparseVec<f64>)> = engine.serve(|engine| {
            std::thread::scope(|s| {
                let handles: Vec<_> = xs
                    .iter()
                    .map(|x| {
                        s.spawn(move || {
                            let ticket = engine.submit(MxvRequest::new(x.clone()));
                            (ticket.wait().expect("served"), x.clone())
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("client panicked")).collect()
            })
        });
        for (y, x) in &results {
            assert_eq!(*y, independent_run(&a, &PlusTimes, x, None));
        }
        let stats = engine.stats();
        assert_eq!(stats.lanes_executed, 6);
        assert!(
            stats.fused_batches < 6,
            "an unbounded width budget must still coalesce concurrent requests \
             (got {} batches for 6 requests)",
            stats.fused_batches
        );
    }

    #[test]
    fn takes_after_the_first_report_already_taken() {
        let a = fixtures::figure1_matrix();
        let x = fixtures::figure1_vector();
        let engine = Engine::over(&a, PlusTimes);
        let ticket = engine.submit(MxvRequest::new(x));
        engine.flush();
        assert!(ticket.try_take().expect("served").is_ok());
        assert_eq!(
            ticket.try_take(),
            Some(Err(EngineError::AlreadyTaken)),
            "second take must report the claim, not hang or panic"
        );
        assert_eq!(ticket.wait(), Err(EngineError::AlreadyTaken));
    }

    #[test]
    fn bounded_queue_applies_backpressure_without_losing_requests() {
        let a = erdos_renyi(60, 4.0, 8);
        let engine = Engine::over_with(
            &a,
            PlusTimes,
            EngineConfig::default()
                .max_lanes(2)
                .queue_capacity(2)
                .linger(Duration::from_micros(100)),
        );
        let xs = requests(60, 12, 44);
        let served: usize = engine.serve(|engine| {
            std::thread::scope(|s| {
                let handles: Vec<_> = xs
                    .iter()
                    .map(|x| {
                        s.spawn(move || {
                            engine.submit(MxvRequest::new(x.clone())).wait().expect("served").nnz()
                        })
                    })
                    .collect();
                handles.into_iter().filter_map(|h| h.join().ok()).count()
            })
        });
        assert_eq!(served, 12);
        assert_eq!(engine.stats().lanes_executed, 12);
    }

    #[test]
    fn select2nd_semiring_engine_serves_bfs_shaped_requests() {
        let a = fixtures::tridiagonal(12);
        let engine: Engine<'_, f64, usize, Select2ndMin> = Engine::over(&a, Select2ndMin);
        let frontier = SparseVec::from_pairs(12, vec![(4, 4usize)]).unwrap();
        let mut visited = MaskBits::new(12);
        visited.insert(4);
        let t = engine
            .submit(MxvRequest::new(frontier.clone()).mask(visited.clone(), MaskMode::Complement));
        engine.flush();
        let y = t.try_take().expect("served").expect("succeeded");
        let mask = Some((&visited, MaskMode::Complement));
        assert_eq!(y, independent_run(&a, &Select2ndMin, &frontier, mask));
        assert!(y.get(4).is_none(), "¬visited mask dropped the source");
    }

    #[test]
    fn an_all_empty_group_records_no_choice() {
        let a = erdos_renyi(200, 6.0, 9);
        let engine = Engine::over(&a, PlusTimes);
        let busy: Vec<Ticket<f64>> =
            requests(200, 3, 5).into_iter().map(|x| engine.submit(MxvRequest::new(x))).collect();
        assert_eq!(engine.flush().choices.total(), 1);
        drop(busy);
        // The engine's kernel has now run once. A group of empty frontiers
        // executes nothing, so it must not re-report that run as its own.
        let idle: Vec<Ticket<f64>> =
            (0..3).map(|_| engine.submit(MxvRequest::new(SparseVec::new(200)))).collect();
        let outcome = engine.flush();
        assert_eq!(outcome.batches, 1);
        assert_eq!(outcome.choices.total(), 0, "an empty flush recorded a run");
        for ticket in idle {
            assert!(ticket.try_take().expect("flushed").expect("served").is_empty());
        }
        assert_eq!(engine.stats().choices.total(), 1);
    }

    #[test]
    fn flush_on_an_empty_queue_is_a_noop() {
        let a = fixtures::figure1_matrix();
        let engine: Engine<'_, f64, f64, PlusTimes> = Engine::over(&a, PlusTimes);
        assert_eq!(engine.flush(), FlushOutcome::default());
        assert_eq!(engine.pending(), 0);
        assert_eq!(engine.stats().flushes, 0);
    }

    #[test]
    fn engine_error_displays_are_distinct_and_informative() {
        let errors = [
            EngineError::Cancelled,
            EngineError::DeadlineExceeded,
            EngineError::Overloaded,
            EngineError::KernelFailed("lane SPA index out of range".to_string()),
            EngineError::Disconnected,
            EngineError::WaitTimeout,
            EngineError::AlreadyTaken,
        ];
        let rendered: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
        for (i, a) in rendered.iter().enumerate() {
            assert!(!a.is_empty());
            for b in rendered.iter().skip(i + 1) {
                assert_ne!(a, b, "two error variants render identically");
            }
        }
        assert!(rendered[3].contains("lane SPA index out of range"), "message must survive");
    }

    #[test]
    fn kernel_panic_payloads_become_kernel_failed() {
        let literal: Box<dyn std::any::Any + Send> = Box::new("lane SPA index out of range");
        let formatted: Box<dyn std::any::Any + Send> =
            Box::new(format!("per-lane mask has {} lanes", 3));
        assert_eq!(
            kernel_failure(literal),
            EngineError::KernelFailed("lane SPA index out of range".to_string())
        );
        assert_eq!(
            kernel_failure(formatted),
            EngineError::KernelFailed("per-lane mask has 3 lanes".to_string())
        );
        assert!(matches!(kernel_failure(Box::new(7u8)), EngineError::KernelFailed(msg)
            if msg.contains("non-string payload")));
    }

    /// `run` serves its requests as one flush past the queue and answers
    /// them in order: queued requests stay queued, an expired request
    /// answers `DeadlineExceeded` in its place, every request counts in
    /// `engine.requests`, and no requests make a zero outcome.
    #[test]
    fn run_answers_in_order_and_leaves_the_queue_alone() {
        let a = erdos_renyi(60, 4.0, 21);
        let engine = Engine::over(&a, PlusTimes);
        let queued = engine.submit(MxvRequest::new(random_sparse_vec(60, 10, 99)));
        let xs = requests(60, 3, 40);
        let past = Instant::now() - Duration::from_millis(1);
        let batch = vec![
            MxvRequest::new(xs[0].clone()),
            MxvRequest::new(xs[1].clone()).deadline(past),
            MxvRequest::new(xs[2].clone()),
        ];
        let (results, outcome) = engine.run(batch);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0], Ok(independent_run(&a, &PlusTimes, &xs[0], None)));
        assert_eq!(results[1], Err(EngineError::DeadlineExceeded));
        assert_eq!(results[2], Ok(independent_run(&a, &PlusTimes, &xs[2], None)));
        assert_eq!((outcome.requests, outcome.lanes, outcome.timeouts), (3, 2, 1));
        assert_eq!(engine.pending(), 1, "the queued request is not run");
        assert!(queued.is_pending());
        assert_eq!(engine.stats().requests, 4, "run counts its requests as submit does");

        let (none, zero) = engine.run(Vec::new());
        assert!(none.is_empty());
        assert_eq!(zero, FlushOutcome::default());
        assert_eq!(engine.flush().requests, 1, "the queued request is still flushable");
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn submit_rejects_mismatched_frontier_dimension() {
        let a = fixtures::figure1_matrix();
        let engine: Engine<'_, f64, f64, PlusTimes> = Engine::over(&a, PlusTimes);
        let _ = engine.submit(MxvRequest::new(SparseVec::new(9)));
    }

    #[test]
    #[should_panic(expected = "output rows")]
    fn submit_rejects_mismatched_mask_dimension() {
        let a = fixtures::figure1_matrix();
        let engine: Engine<'_, f64, f64, PlusTimes> = Engine::over(&a, PlusTimes);
        let _ = engine
            .submit(MxvRequest::new(SparseVec::new(8)).mask(MaskBits::new(4), MaskMode::Keep));
    }

    /// A pulled group runs the pull scan whatever the engine's family, and
    /// its trace says so: the `group.fused` event of a pulled group names
    /// [`AlgorithmKind::Pull`], a pushed group's the configured family's
    /// lanes.
    #[test]
    fn a_pulled_group_is_traced_as_the_family_that_ran() {
        let n = 64;
        let a = fixtures::tridiagonal(n);
        let engine: Engine<'_, f64, usize, Select2ndMin> = Engine::over_with(
            &a,
            Select2ndMin,
            EngineConfig::default().batch_algorithm(BatchAlgorithmKind::Bucket),
        );
        let frontier = SparseVec::from_pairs(n, vec![(10, 10usize), (40, 40)]).unwrap();
        let visited = MaskBits::from_indices(n, [10, 40]);
        let request =
            || MxvRequest::new(frontier.clone()).mask(visited.clone(), MaskMode::Complement);
        let mut pulled = request();
        pulled.pulled = true;
        let (results, outcome) = engine.run(vec![pulled, request()]);
        assert_eq!((outcome.batches, outcome.lanes), (2, 2), "pulled and pushed run apart");
        assert_eq!(results[0], results[1], "a whole square matrix pulls what it pushes");
        let fused: Vec<AlgorithmKind> = engine
            .obs()
            .events()
            .into_iter()
            .filter_map(|e| match e.kind {
                TraceKind::GroupFused { kernel, .. } => Some(kernel),
                _ => None,
            })
            .collect();
        assert_eq!(fused, [AlgorithmKind::Pull, AlgorithmKind::Bucket]);
        let rendered = engine.obs().events().iter().map(|e| e.kind.to_string()).collect::<Vec<_>>();
        assert!(
            rendered.iter().any(|e| e.starts_with("group.fused kernel=SpMSpV-pull")),
            "{rendered:?}"
        );
    }
}
