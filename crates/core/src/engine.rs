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
//! * the **coalescer** ([`Engine::flush`]) drains the queue, groups
//!   compatible requests (same mask mode — the semiring is fixed by the
//!   engine's type, the kernel family by its configuration), moves each
//!   group's frontiers into [`SparseVecBatch`] lanes up to the
//!   [`EngineConfig::max_lanes`] width budget, executes **one** masked
//!   batched multiplication per group chunk — each request's mask becoming
//!   its lane's [`BatchMaskView::PerLane`] mask — and moves each result
//!   lane to its ticket, so no frontier or result is copied on the way;
//! * requests retired mid-flight — a cancelled [`Ticket`], a closed
//!   [`Session`], an expired deadline — leave the batch before lanes are
//!   assembled, so a slow client that gave up never costs kernel time.
//!
//! # Ticket lifecycle
//!
//! Every submitted request resolves to **exactly one** terminal state; no
//! code path leaves a client blocked forever:
//!
//! ```text
//!            submit
//!              │
//!           Pending ──────── flush demux ───────▶ Ready ──▶ Taken
//!              │
//!              ├─ Ticket::cancel / Session drop ▶ Failed(Cancelled)
//!              ├─ deadline passes               ▶ Failed(DeadlineExceeded)
//!              ├─ queue policy sheds/rejects    ▶ Failed(Overloaded)
//!              ├─ kernel panics / errors        ▶ Failed(KernelFailed)
//!              └─ Engine dropped                ▶ Failed(Disconnected)
//! ```
//!
//! [`Ticket::wait`] blocks until the terminal state and returns
//! `Result<SparseVec, EngineError>`; [`Ticket::wait_timeout`] /
//! [`Ticket::wait_deadline`] bound the block (an [`EngineError::WaitTimeout`]
//! leaves the ticket live — the request may still complete);
//! [`Ticket::try_take`] polls. Once a result is claimed, later claims report
//! [`EngineError::AlreadyTaken`].
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
//! * **synchronous**: `submit` + [`Engine::flush`] — the caller decides when
//!   to fuse (the style `multi_bfs` and `pagerank_personalized_batch` use:
//!   one flush per traversal level);
//! * **thread-driven**: [`Engine::serve`] runs a background flush loop that
//!   fires when [`EngineConfig::max_lanes`] lanes are pending or after
//!   [`EngineConfig::linger`] of quiet, while client threads block on
//!   [`Ticket::wait`]. A flush that panics past its own isolation fails only
//!   the requests it had drained; the loop restarts and keeps serving.
//!
//! # Observability
//!
//! Every engine owns a metrics [`Registry`] ([`Engine::obs`]) holding the
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

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use sparse_substrate::{CscMatrix, MaskBits, Scalar, Semiring, SparseVec, SparseVecBatch};

use crate::algorithm::{MatrixRef, SpMSpVOptions};
use crate::batch::{BatchAlgorithmKind, LaneBatch};
use crate::failpoint;
use crate::masked::{BatchMaskView, MaskMode};
use crate::obs::{Counter, Gauge, Histogram, ObsConfig, Registry, Span, TraceKind};
use crate::stats::{ChoiceCounts, EngineStats};
use crate::timing::FlushTimings;

/// Poison-tolerant lock: a panic while holding an engine lock (an unwound
/// kernel, an injected failpoint) must not wedge every other session, so the
/// engine treats a poisoned mutex as still usable — its invariants are
/// re-established by the flush path's resolution guard, not by the lock.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Why a request did not (or cannot yet) produce a result. Carried by the
/// ticket's `Failed` terminal state and returned by every [`Ticket`]
/// accessor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The request was retired before execution: [`Ticket::cancel`] was
    /// called, or its [`Session`] closed / was dropped.
    Cancelled,
    /// The request's [`MxvRequest::deadline`] passed before a flush could
    /// serve it (checked both before fusing and again at demux time).
    DeadlineExceeded,
    /// The bounded queue was full and the [`OverloadPolicy`] shed this
    /// request (oldest-first) or rejected it outright.
    Overloaded,
    /// Kernel execution failed — a caught panic or an injected failpoint
    /// error — and the one-shot one-participant retry failed too. The
    /// string is the panic/error message.
    KernelFailed(String),
    /// The engine went away (dropped, or its serve loop died) before the
    /// request was served.
    Disconnected,
    /// [`Ticket::wait_timeout`] / [`Ticket::wait_deadline`] gave up before
    /// the request resolved. Not terminal: the ticket stays live and the
    /// request may still complete.
    WaitTimeout,
    /// The result was already claimed by an earlier
    /// [`Ticket::wait`] / [`Ticket::try_take`].
    AlreadyTaken,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Cancelled => f.write_str("request cancelled before it was served"),
            EngineError::DeadlineExceeded => f.write_str("request deadline exceeded"),
            EngineError::Overloaded => {
                f.write_str("engine overloaded: request shed or rejected by the queue policy")
            }
            EngineError::KernelFailed(msg) => write!(f, "kernel execution failed: {msg}"),
            EngineError::Disconnected => {
                f.write_str("engine disconnected before the request was served")
            }
            EngineError::WaitTimeout => {
                f.write_str("timed out waiting for the result (the request may still complete)")
            }
            EngineError::AlreadyTaken => {
                f.write_str("result already claimed by an earlier wait/try_take")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// What a full bounded queue does to a new submission.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Block the submitter until the queue drains (backpressure) — the
    /// classic closed-loop behavior, and the default.
    #[default]
    Block,
    /// Fail the **new** request immediately with [`EngineError::Overloaded`]
    /// (its ticket is returned already failed; nothing queues). Counted in
    /// [`EngineStats::rejected`].
    Reject,
    /// Fail the **oldest** queued requests with [`EngineError::Overloaded`]
    /// until the newcomer fits — freshest-first serving for workloads where
    /// a stale answer is worthless. Counted in [`EngineStats::shed`].
    ShedOldest,
}

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
    /// (reachable via [`Engine::obs`]). Disabling it skips latency
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
}

impl<X: Scalar> MxvRequest<X> {
    /// A plain unmasked request with no deadline.
    pub fn new(frontier: SparseVec<X>) -> Self {
        MxvRequest { frontier, mask: None, deadline: None }
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
    /// [`EngineError::DeadlineExceeded`] instead of fusing it once the
    /// deadline has passed, and re-checks at demux time so a result computed
    /// too late is never delivered as if it were fresh.
    pub fn deadline(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// [`MxvRequest::deadline`] expressed as a duration from now.
    pub fn timeout(self, after: Duration) -> Self {
        self.deadline(Instant::now() + after)
    }
}

/// Result slot state shared between a [`Ticket`] and the queue/coalescer.
enum TicketState<Y> {
    Pending,
    Ready(SparseVec<Y>),
    Taken,
    Failed(EngineError),
}

pub(crate) struct TicketShared<Y> {
    state: Mutex<TicketState<Y>>,
    ready: Condvar,
}

impl<Y> TicketShared<Y> {
    pub(crate) fn new() -> Self {
        TicketShared { state: Mutex::new(TicketState::Pending), ready: Condvar::new() }
    }

    pub(crate) fn fulfil(&self, y: SparseVec<Y>) {
        let mut st = lock(&self.state);
        if matches!(*st, TicketState::Pending) {
            *st = TicketState::Ready(y);
            self.ready.notify_all();
        }
    }

    /// Moves a pending ticket to `Failed(err)` and wakes its waiters;
    /// returns whether the ticket was still pending (a resolved ticket
    /// keeps its result — failure never overwrites success).
    pub(crate) fn fail(&self, err: EngineError) -> bool {
        let mut st = lock(&self.state);
        if matches!(*st, TicketState::Pending) {
            *st = TicketState::Failed(err);
            self.ready.notify_all();
            true
        } else {
            false
        }
    }

    pub(crate) fn is_pending(&self) -> bool {
        matches!(*lock(&self.state), TicketState::Pending)
    }
}

/// A claim on one request's result.
///
/// In the synchronous style, call [`Engine::flush`] and then
/// [`Ticket::try_take`]; under [`Engine::serve`], block on [`Ticket::wait`]
/// (or its bounded variants). Every ticket **resolves** — to a value or an
/// [`EngineError`] — even when the request is cancelled, shed, expired, its
/// kernel panics, or the engine is dropped; see the
/// [module docs](self#ticket-lifecycle).
pub struct Ticket<Y> {
    shared: Arc<TicketShared<Y>>,
}

impl<Y> Ticket<Y> {
    /// A ticket resolved by a router (e.g. `spmspv::shard`) rather than an
    /// engine queue, paired with the shared slot the router fulfils.
    pub(crate) fn detached() -> (Self, Arc<TicketShared<Y>>) {
        let shared = Arc::new(TicketShared::new());
        (Ticket { shared: Arc::clone(&shared) }, shared)
    }

    /// Blocks until `deadline` (forever when `None`) for the terminal state.
    fn wait_until(&self, deadline: Option<Instant>) -> Result<SparseVec<Y>, EngineError> {
        let mut st = lock(&self.shared.state);
        loop {
            match std::mem::replace(&mut *st, TicketState::Taken) {
                TicketState::Ready(y) => return Ok(y),
                TicketState::Failed(err) => {
                    *st = TicketState::Failed(err.clone());
                    return Err(err);
                }
                TicketState::Taken => return Err(EngineError::AlreadyTaken),
                TicketState::Pending => {
                    *st = TicketState::Pending;
                    match deadline {
                        None => {
                            st = self.shared.ready.wait(st).unwrap_or_else(PoisonError::into_inner)
                        }
                        Some(d) => {
                            let now = Instant::now();
                            if now >= d {
                                return Err(EngineError::WaitTimeout);
                            }
                            let (guard, _) = self
                                .shared
                                .ready
                                .wait_timeout(st, d - now)
                                .unwrap_or_else(PoisonError::into_inner);
                            st = guard;
                        }
                    }
                }
            }
        }
    }

    /// Blocks until the request resolves, consuming the ticket. Every
    /// request does resolve — served, cancelled, expired, shed, failed, or
    /// disconnected — so this cannot hang on a dead engine (dropping the
    /// [`Engine`] fails all pending tickets).
    ///
    /// Only sensible when something will flush — the [`Engine::serve`] loop,
    /// or another thread calling [`Engine::flush`].
    pub fn wait(self) -> Result<SparseVec<Y>, EngineError> {
        self.wait_until(None)
    }

    /// [`Ticket::wait`] bounded by a duration. On [`EngineError::WaitTimeout`]
    /// the ticket is untouched and still live: the caller may wait again,
    /// poll [`Ticket::try_take`], or [`Ticket::cancel`].
    pub fn wait_timeout(&self, timeout: Duration) -> Result<SparseVec<Y>, EngineError> {
        self.wait_until(Some(Instant::now() + timeout))
    }

    /// [`Ticket::wait_timeout`] against an absolute deadline — the natural
    /// companion of [`MxvRequest::deadline`].
    pub fn wait_deadline(&self, deadline: Instant) -> Result<SparseVec<Y>, EngineError> {
        self.wait_until(Some(deadline))
    }

    /// Polls the terminal state: `None` while the request is still pending,
    /// `Some(Ok(_))` exactly once for a served result, `Some(Err(_))` for a
    /// failed request (repeatable) or an already-claimed result.
    pub fn try_take(&self) -> Option<Result<SparseVec<Y>, EngineError>> {
        let mut st = lock(&self.shared.state);
        match std::mem::replace(&mut *st, TicketState::Taken) {
            TicketState::Ready(y) => Some(Ok(y)),
            TicketState::Failed(err) => {
                *st = TicketState::Failed(err.clone());
                Some(Err(err))
            }
            TicketState::Taken => Some(Err(EngineError::AlreadyTaken)),
            TicketState::Pending => {
                *st = TicketState::Pending;
                None
            }
        }
    }

    /// Retires the request: a still-queued request is dropped from the next
    /// flush (its lane is never assembled) and resolves as
    /// [`EngineError::Cancelled`]; a request already served keeps its
    /// result. Returns whether the request was still pending.
    pub fn cancel(&self) -> bool {
        self.shared.fail(EngineError::Cancelled)
    }

    /// Whether the request has not resolved yet.
    pub fn is_pending(&self) -> bool {
        self.shared.is_pending()
    }
}

/// One queued request, tagged with the session that submitted it.
struct QueueEntry<X, Y> {
    /// Engine-unique request id — ties `group.fused` trace events back to
    /// individual submissions.
    id: u64,
    /// When the request was admitted, for the `engine.queue.wait` histogram.
    submitted: Instant,
    session: u64,
    frontier: SparseVec<X>,
    mask: Option<(Arc<MaskBits>, MaskMode)>,
    deadline: Option<Instant>,
    ticket: Arc<TicketShared<Y>>,
}

struct RequestQueue<X, Y> {
    entries: Mutex<VecDeque<QueueEntry<X, Y>>>,
    /// Signalled when requests arrive (wakes the serve loop).
    grew: Condvar,
    /// Signalled when the queue drains (unblocks bounded `submit`).
    shrank: Condvar,
}

/// Turns a caught kernel panic into the error its group's tickets resolve
/// to, keeping the panic's message (`panic!` with a formatted message boxes
/// a `String`; a literal boxes a `&'static str`).
fn kernel_failure(payload: Box<dyn std::any::Any + Send>) -> EngineError {
    let msg = match payload.downcast::<String>() {
        Ok(msg) => *msg,
        Err(payload) => match payload.downcast_ref::<&str>() {
            Some(msg) => (*msg).to_string(),
            None => "kernel panicked with a non-string payload".to_string(),
        },
    };
    EngineError::KernelFailed(msg)
}

/// Fails every still-pending ticket of a drained flush when dropped. On a
/// normal flush this is a no-op (the flush resolved them all); on unwind —
/// a kernel panic that escaped isolation, an armed `engine.flush.assemble`
/// failpoint — it is the difference between a failed flush and a client
/// stranded on a [`Condvar`] forever.
pub(crate) struct ResolveOnDrop<Y> {
    pub(crate) tickets: Vec<Arc<TicketShared<Y>>>,
}

impl<Y> Drop for ResolveOnDrop<Y> {
    fn drop(&mut self) {
        // Only a still-pending ticket gets the error, so a normal flush
        // allocates no message per ticket here.
        for t in self.tickets.iter().filter(|t| t.is_pending()) {
            t.fail(EngineError::KernelFailed("flush aborted by panic".to_string()));
        }
    }
}

/// Index of each flush phase in [`EngineMetrics::flush_phase`].
const PHASE_ASSEMBLE: usize = 0;
const PHASE_EXECUTE: usize = 1;
const PHASE_DEMUX: usize = 2;
const PHASE_RECOVER: usize = 3;

/// The engine's bookkeeping: one per-engine [`Registry`] plus `Arc` handles
/// to every `engine.*` metric, resolved once at construction so the hot
/// paths never touch the registry's name table. [`Engine::stats`]
/// reconstructs [`EngineStats`] as a view over these handles; the registry
/// itself is the export surface ([`Engine::obs`]).
struct EngineMetrics {
    registry: Registry,
    requests: Arc<Counter>,
    retired: Arc<Counter>,
    flushes: Arc<Counter>,
    fused_batches: Arc<Counter>,
    lanes_executed: Arc<Counter>,
    timeouts: Arc<Counter>,
    rejected: Arc<Counter>,
    shed: Arc<Counter>,
    panics_recovered: Arc<Counter>,
    degraded_flushes: Arc<Counter>,
    /// `engine.choice.bucket.dense`: fused batches that did work.
    choice: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    widest_flush: Arc<Gauge>,
    queue_wait: Arc<Histogram>,
    /// assemble / execute / demux / recover, see the `PHASE_*` indices.
    flush_phase: [Arc<Histogram>; 4],
}

impl EngineMetrics {
    fn new(config: &ObsConfig) -> Self {
        let registry = Registry::new(config.clone());
        EngineMetrics {
            requests: registry.counter("engine.requests"),
            retired: registry.counter("engine.retired"),
            flushes: registry.counter("engine.flushes"),
            fused_batches: registry.counter("engine.fused_batches"),
            lanes_executed: registry.counter("engine.lanes_executed"),
            timeouts: registry.counter("engine.timeouts"),
            rejected: registry.counter("engine.rejected"),
            shed: registry.counter("engine.shed"),
            panics_recovered: registry.counter("engine.panics_recovered"),
            degraded_flushes: registry.counter("engine.degraded_flushes"),
            choice: registry.counter("engine.choice.bucket.dense"),
            queue_depth: registry.gauge("engine.queue.depth"),
            widest_flush: registry.gauge("engine.widest_flush"),
            queue_wait: registry.histogram("engine.queue.wait"),
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

/// The serving engine. See the [module docs](self).
///
/// Generic over the matrix element `A`, the input element `X` and the
/// semiring `S` — one engine serves one operation type, many clients. The
/// engine is `Sync`: sessions on any thread may submit while the serve loop
/// (or any thread) flushes. Dropping the engine fails every still-queued
/// request with [`EngineError::Disconnected`], so no client waits on a dead
/// engine.
pub struct Engine<'m, A: Scalar, X: Scalar, S: Semiring<A, X>> {
    /// The runner of [`EngineConfig::batch_algorithm`] lanes, built on the
    /// first flush and reused by every later one (the amortization the
    /// engine exists for); `None` until then and after a panic evicted it.
    kernel: Mutex<Option<LaneBatch<'m, A, X, S>>>,
    queue: RequestQueue<X, S::Output>,
    metrics: EngineMetrics,
    config: EngineConfig,
    semiring: S,
    next_session: AtomicU64,
    next_request: AtomicU64,
    /// Borrowed for [`Engine::over`], shared with the kernel for
    /// [`Engine::load`].
    matrix: MatrixRef<'m, A>,
}

/// Methods available under the struct's own bounds — shared by the `Drop`
/// impls (which may not add bounds) and the main serving impl below.
impl<'m, A: Scalar, X: Scalar, S: Semiring<A, X>> Engine<'m, A, X, S> {
    /// Drains the queue, failing every still-pending ticket with `err`.
    /// Returns how many tickets were failed.
    fn fail_queue(&self, err: EngineError) -> usize {
        let drained: Vec<QueueEntry<X, S::Output>> = {
            let mut q = lock(&self.queue.entries);
            let drained = q.drain(..).collect();
            self.metrics.queue_depth.set(q.len() as u64);
            drained
        };
        self.queue.shrank.notify_all();
        drained.iter().filter(|e| e.ticket.fail(err.clone())).count()
    }

    /// Retires every still-queued request of `session`: entries leave the
    /// queue and their tickets resolve as [`EngineError::Cancelled`].
    fn retire_session(&self, session: u64) -> usize {
        let retired = {
            let mut q = lock(&self.queue.entries);
            let before = q.len();
            q.retain(|e| {
                if e.session == session {
                    e.ticket.fail(EngineError::Cancelled);
                    false
                } else {
                    true
                }
            });
            self.metrics.queue_depth.set(q.len() as u64);
            before - q.len()
        };
        if retired > 0 {
            self.queue.shrank.notify_all();
            self.metrics.retired.add(retired as u64);
        }
        retired
    }
}

impl<'m, A: Scalar, X: Scalar, S: Semiring<A, X>> Drop for Engine<'m, A, X, S> {
    fn drop(&mut self) {
        // Clients may hold tickets beyond the engine's life (tickets are
        // `Arc`-shared): resolve everything still queued so no waiter blocks
        // on an engine that will never flush again.
        self.fail_queue(EngineError::Disconnected);
    }
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
        let metrics = EngineMetrics::new(&config.obs);
        Engine {
            kernel: Mutex::new(None),
            queue: RequestQueue {
                entries: Mutex::new(VecDeque::new()),
                grew: Condvar::new(),
                shrank: Condvar::new(),
            },
            metrics,
            config,
            semiring,
            next_session: AtomicU64::new(1),
            next_request: AtomicU64::new(0),
            matrix,
        }
    }

    /// The matrix this engine serves.
    pub fn matrix(&self) -> &CscMatrix<A> {
        &self.matrix
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Cumulative coalescing and failure telemetry — a view reconstructed
    /// from the engine's metrics [`Registry`] (see [`Engine::obs`]). The
    /// counters are exact regardless of [`ObsConfig`]; the
    /// [`EngineStats::flush_timings`] breakdown comes from the
    /// `engine.flush.*` histograms' exact nanosecond sums and is therefore
    /// all-zero when observability is disabled.
    pub fn stats(&self) -> EngineStats {
        let m = &self.metrics;
        EngineStats {
            requests: m.requests.get() as usize,
            retired: m.retired.get() as usize,
            flushes: m.flushes.get() as usize,
            fused_batches: m.fused_batches.get() as usize,
            lanes_executed: m.lanes_executed.get() as usize,
            widest_flush: m.widest_flush.get() as usize,
            timeouts: m.timeouts.get() as usize,
            rejected: m.rejected.get() as usize,
            shed: m.shed.get() as usize,
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

    /// This engine's observability registry: every `engine.*` counter,
    /// gauge, and latency histogram plus the flush trace ring. Snapshot it
    /// (and merge with [`crate::obs::global`]'s snapshot) for a full report.
    pub fn obs(&self) -> &Registry {
        &self.metrics.registry
    }

    /// Folds one flush's outcome into the registry counters. Submit-side
    /// counters (`requests`, `rejected`, `shed`) are recorded at submit
    /// time, never here; phase durations are recorded by the flush's spans.
    fn record_flush_outcome(&self, outcome: &FlushOutcome) {
        let m = &self.metrics;
        m.retired.add(outcome.retired as u64);
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

    /// Requests currently queued (submitted, not yet flushed).
    pub fn pending(&self) -> usize {
        lock(&self.queue.entries).len()
    }

    /// Opens a session: a handle for one logical client, whose queued
    /// requests can be retired together with [`Session::close`].
    pub fn session(&self) -> Session<'_, 'm, A, X, S> {
        Session { engine: self, id: self.next_session.fetch_add(1, Ordering::Relaxed) }
    }

    /// Submits an anonymous request (no session). See [`Session::submit`].
    pub fn submit(&self, request: MxvRequest<X>) -> Ticket<S::Output> {
        self.submit_tagged(0, request)
    }

    fn submit_tagged(&self, session: u64, request: MxvRequest<X>) -> Ticket<S::Output> {
        let m = &*self.matrix;
        assert_eq!(
            request.frontier.len(),
            m.ncols(),
            "request frontier has dimension {} but the matrix has {} columns",
            request.frontier.len(),
            m.ncols()
        );
        if let Some((bits, _)) = &request.mask {
            assert_eq!(
                bits.len(),
                m.nrows(),
                "request mask covers {} rows but the matrix has {} output rows",
                bits.len(),
                m.nrows()
            );
        }
        let shared = Arc::new(TicketShared {
            state: Mutex::new(TicketState::Pending),
            ready: Condvar::new(),
        });
        let entry = QueueEntry {
            id: self.next_request.fetch_add(1, Ordering::Relaxed),
            submitted: Instant::now(),
            session,
            frontier: request.frontier,
            mask: request.mask,
            deadline: request.deadline,
            ticket: Arc::clone(&shared),
        };
        // Count the request before it becomes flushable, so a concurrent
        // `stats()` snapshot always sees `requests ≥ lanes_executed`.
        self.metrics.requests.inc();
        let capacity = self.config.queue_capacity;
        let mut shed = 0usize;
        let mut rejected = false;
        {
            let mut q = lock(&self.queue.entries);
            if capacity > 0 && q.len() >= capacity {
                match self.config.overload {
                    OverloadPolicy::Block => {
                        while q.len() >= capacity {
                            q = self.queue.shrank.wait(q).unwrap_or_else(PoisonError::into_inner);
                        }
                    }
                    OverloadPolicy::Reject => rejected = true,
                    OverloadPolicy::ShedOldest => {
                        while q.len() >= capacity {
                            let victim = q.pop_front().expect("len ≥ capacity > 0");
                            victim.ticket.fail(EngineError::Overloaded);
                            shed += 1;
                        }
                    }
                }
            }
            if !rejected {
                q.push_back(entry);
            }
            self.metrics.queue_depth.set(q.len() as u64);
        }
        if rejected {
            shared.fail(EngineError::Overloaded);
        }
        if shed > 0 || rejected {
            self.metrics.shed.add(shed as u64);
            if rejected {
                self.metrics.rejected.inc();
            }
            self.metrics
                .registry
                .trace(TraceKind::Overload { shed, rejected: usize::from(rejected) });
        }
        self.queue.grew.notify_all();
        Ticket { shared }
    }

    /// Drains the queue and serves every live request: groups compatible
    /// requests, fuses each group into at most [`EngineConfig::max_lanes`]
    /// lanes per batched multiplication, executes (with panic isolation and
    /// a one-shot one-participant retry per failed group), and
    /// demultiplexes results to the tickets. Every drained request resolves
    /// before this returns — even if a kernel panics. Returns what happened
    /// (all zeros when the queue was empty).
    pub fn flush(&self) -> FlushOutcome {
        let drained: Vec<QueueEntry<X, S::Output>> = {
            let mut q = lock(&self.queue.entries);
            let drained = q.drain(..).collect();
            self.metrics.queue_depth.set(q.len() as u64);
            drained
        };
        self.queue.shrank.notify_all();
        if drained.is_empty() {
            return FlushOutcome::default();
        }
        if self.metrics.registry.enabled() {
            let now = Instant::now();
            for entry in &drained {
                self.metrics
                    .queue_wait
                    .record_duration(now.saturating_duration_since(entry.submitted));
            }
            self.metrics.registry.trace(TraceKind::FlushBegin { requests: drained.len() });
        }

        // From here on, an unwind out of this function resolves every
        // drained ticket on the way out (normal completion resolves them
        // all itself, making the guard a no-op).
        let _resolve_guard =
            ResolveOnDrop { tickets: drained.iter().map(|e| Arc::clone(&e.ticket)).collect() };
        if let Err(msg) = failpoint::act("engine.flush.assemble") {
            panic!("failpoint engine.flush.assemble: {msg}");
        }

        let mut outcome = FlushOutcome { requests: drained.len(), ..FlushOutcome::default() };
        let sp_group = self.metrics.phase_span(PHASE_ASSEMBLE);
        // Group by mask mode, preserving arrival order within each group —
        // the demux order clients observe.
        type Group<X, Y> = (Option<MaskMode>, Vec<QueueEntry<X, Y>>);
        let now = Instant::now();
        let drained_len = drained.len();
        let mut groups: Vec<Group<X, S::Output>> = Vec::new();
        for entry in drained {
            if entry.deadline.is_some_and(|d| now >= d) {
                if entry.ticket.fail(EngineError::DeadlineExceeded) {
                    outcome.timeouts += 1;
                } else {
                    outcome.retired += 1;
                }
                continue;
            }
            if !entry.ticket.is_pending() {
                outcome.retired += 1;
                continue;
            }
            let key = entry.mask.as_ref().map(|&(_, mode)| mode);
            // Sized once from the drained count, so a group never regrows.
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, members)) => members.push(entry),
                None => {
                    let mut members = Vec::with_capacity(drained_len);
                    members.push(entry);
                    groups.push((key, members));
                }
            }
        }
        outcome.timings.assemble += sp_group.stop();

        let width = if self.config.max_lanes == 0 { usize::MAX } else { self.config.max_lanes };
        let kind = self.config.batch_algorithm;
        let mut kernel = lock(&self.kernel);
        for (mode, members) in groups {
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
                for entry in chunk {
                    tickets.push(entry.ticket);
                    deadlines.push(entry.deadline);
                    lanes.push(entry.frontier);
                    masks.extend(entry.mask.map(|(bits, _)| bits));
                }
                let x = SparseVecBatch::with_lanes(self.matrix.ncols(), lanes)
                    .expect("request dimensions are validated at submit");
                let mask = mode.map(|mode| BatchMaskView::PerLane { masks: &masks, mode });
                outcome.timings.assemble += sp_assemble.stop();
                self.metrics.registry.trace(TraceKind::GroupFused {
                    kernel: kind,
                    lanes: x.k(),
                    masked: mode.is_some(),
                    first_id,
                });

                let sp_execute = self.metrics.phase_span(PHASE_EXECUTE);
                let first = self.execute(Some(&mut *kernel), &x, mask.as_ref());
                outcome.timings.execute += sp_execute.stop();
                let served = match first {
                    Ok(ok) => Some(ok),
                    Err(err) => {
                        outcome.panics_recovered += 1;
                        self.metrics.registry.trace(TraceKind::KernelFailure(err.to_string()));
                        // Graceful degradation: one retry on a fresh runner
                        // of the same family at one participant, its lanes
                        // one after another on one one-thread kernel.
                        self.metrics.registry.trace(TraceKind::DegradeRetry { from: kind });
                        let sp_recover = self.metrics.phase_span(PHASE_RECOVER);
                        let retry = self.execute(None, &x, mask.as_ref());
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

    /// Executes one fused group with panic isolation: on the engine's
    /// runner (built on first use) when `kernel` is given, else on a freshly
    /// built runner of the same family at one participant — the one-shot
    /// degraded retry. A kernel panic comes back as
    /// [`EngineError::KernelFailed`], and the engine's runner is then
    /// evicted: its workspaces may be mid-mutation from the unwound call, so
    /// the next flush rebuilds it cleanly.
    fn execute(
        &self,
        kernel: Option<&mut Option<LaneBatch<'m, A, X, S>>>,
        x: &SparseVecBatch<X>,
        mask: Option<&BatchMaskView<'_>>,
    ) -> Result<SparseVecBatch<S::Output>, EngineError> {
        failpoint::act("engine.flush.execute").map_err(EngineError::KernelFailed)?;
        let lanes = self.config.batch_algorithm.lanes();
        let run = |runner: &mut LaneBatch<'m, A, X, S>| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                runner.multiply_batch_masked(x, &self.semiring, mask)
            }))
            .map_err(kernel_failure)
        };
        match kernel {
            Some(slot) => {
                let runner = slot.get_or_insert_with(|| {
                    LaneBatch::new(self.matrix.clone(), lanes, self.config.options.clone())
                });
                let served = run(runner);
                if served.is_err() {
                    *slot = None;
                }
                served
            }
            None => {
                run(&mut LaneBatch::new(self.matrix.clone(), lanes, SpMSpVOptions::with_threads(1)))
            }
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
    pub fn serve<R: Send>(&self, body: impl FnOnce(&Self) -> R + Send) -> R
    where
        S::Output: Scalar,
    {
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let server = scope.spawn(|| loop {
                let loop_run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.serve_loop(&shutdown)
                }));
                match loop_run {
                    Ok(()) => break,
                    // The panicking flush already resolved the tickets it
                    // had drained (ResolveOnDrop); whatever is still queued
                    // is intact — go back to serving it.
                    Err(_) if !shutdown.load(Ordering::SeqCst) => continue,
                    Err(_) => {
                        // Shutting down: no more flushes are coming, so
                        // resolve the stragglers instead of stranding them.
                        self.fail_queue(EngineError::Disconnected);
                        break;
                    }
                }
            });
            // Raise the shutdown flag even when `body` unwinds, so the
            // scope's implicit join cannot deadlock on a still-running loop.
            let guard = ShutdownGuard { flag: &shutdown, queue: &self.queue };
            let out = body(self);
            drop(guard);
            if server.join().is_err() {
                // Unreachable in practice (the loop catches panics), but if
                // the server thread dies anyway the clients must not: fail
                // the leftovers instead of propagating the panic.
                self.fail_queue(EngineError::Disconnected);
            }
            out
        })
    }

    fn serve_loop(&self, shutdown: &AtomicBool) {
        let linger = self.config.linger.max(Duration::from_micros(1));
        // `max_lanes == 0` means "no width budget" for the coalescer, so it
        // disables the width trigger too: the loop then flushes on linger
        // timeouts only.
        let width = if self.config.max_lanes == 0 { usize::MAX } else { self.config.max_lanes };
        loop {
            let mut deadline: Option<Instant> = None;
            {
                let mut entries = lock(&self.queue.entries);
                loop {
                    if shutdown.load(Ordering::SeqCst) || entries.len() >= width {
                        break;
                    }
                    if !entries.is_empty() && deadline.is_none() {
                        deadline = Some(Instant::now() + linger);
                    }
                    match deadline {
                        Some(d) => {
                            let now = Instant::now();
                            if now >= d {
                                break;
                            }
                            let (guard, _) = self
                                .queue
                                .grew
                                .wait_timeout(entries, d - now)
                                .unwrap_or_else(PoisonError::into_inner);
                            entries = guard;
                        }
                        // Empty queue: block until a submit (or the shutdown
                        // guard) signals `grew` — no periodic wakeups.
                        None => {
                            entries = self
                                .queue
                                .grew
                                .wait(entries)
                                .unwrap_or_else(PoisonError::into_inner)
                        }
                    }
                }
                if entries.is_empty() && shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            self.flush();
        }
    }
}

/// Raises the shutdown flag (and wakes the serve loop) on drop — including
/// on unwind out of a `serve` body.
struct ShutdownGuard<'a, X, Y> {
    flag: &'a AtomicBool,
    queue: &'a RequestQueue<X, Y>,
}

impl<X, Y> Drop for ShutdownGuard<'_, X, Y> {
    fn drop(&mut self) {
        self.flag.store(true, Ordering::SeqCst);
        // Notify while holding the queue lock: the serve loop checks the
        // flag and parks on `grew` under this same mutex, so the notify
        // cannot land in the gap between its check and its wait (a lost
        // wakeup would hang the untimed empty-queue wait forever).
        let _entries = lock(&self.queue.entries);
        self.queue.grew.notify_all();
    }
}

/// What one [`Engine::flush`] did.
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

/// A handle for one logical client of an [`Engine`].
///
/// Sessions are cheap (an id plus a borrow) and independent: many sessions
/// submit concurrently, and the coalescer fuses across session boundaries.
/// [`Session::close`] — or simply dropping the session — retires the
/// session's still-queued requests, resolving their tickets as
/// [`EngineError::Cancelled`]: the serving-side counterpart of multi-source
/// BFS lane retirement, and the guarantee that a client that disappears
/// takes its pending work with it.
pub struct Session<'e, 'm, A: Scalar, X: Scalar, S: Semiring<A, X>> {
    engine: &'e Engine<'m, A, X, S>,
    id: u64,
}

impl<'e, 'm, A: Scalar, X: Scalar, S: Semiring<A, X>> Drop for Session<'e, 'm, A, X, S> {
    fn drop(&mut self) {
        self.engine.retire_session(self.id);
    }
}

impl<'e, 'm, A, X, S> Session<'e, 'm, A, X, S>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X> + Clone + 'm,
{
    /// This session's id (unique within its engine).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Submits a request on behalf of this session. When the engine's queue
    /// is bounded and full, the [`EngineConfig::overload`] policy decides:
    /// block for backpressure, reject this request, or shed the oldest.
    pub fn submit(&self, request: MxvRequest<X>) -> Ticket<S::Output> {
        self.engine.submit_tagged(self.id, request)
    }

    /// Closes the session, retiring its still-queued requests mid-flight:
    /// their lanes are never assembled and their tickets resolve as
    /// [`EngineError::Cancelled`]. Requests already served keep their
    /// results. Returns how many requests were retired. (Dropping the
    /// session without calling this does the same, minus the count.)
    pub fn close(self) -> usize {
        self.engine.retire_session(self.id)
    }
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
}
