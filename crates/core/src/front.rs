//! The one front door both serving layers share: queue, admission,
//! sessions, tickets, drain, serve loop and `Drop`. What differs is the
//! [`Run`]: an [`Engine`](crate::engine::Engine) groups, executes and
//! demultiplexes; a [`ShardedEngine`](crate::shard::ShardedEngine) scatters
//! at admission, then exchanges with the shards and merges.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use sparse_substrate::{Scalar, SparseVec};

use crate::engine::MxvRequest;
use crate::obs::{Counter, Gauge, Histogram, Registry, TraceKind};

/// Poison-tolerant lock: a panic while holding a front's lock (an unwound
/// kernel, an injected failpoint) must not wedge every other session, so a
/// poisoned mutex is treated as still usable — the invariants are
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
    /// called, or its session closed / was dropped.
    Cancelled,
    /// The request's [`MxvRequest::deadline`] passed before a flush could
    /// serve it (checked both before the run and again when its result is
    /// delivered).
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
    /// [`EngineStats::rejected`](crate::stats::EngineStats::rejected).
    Reject,
    /// Fail the **oldest** queued requests with [`EngineError::Overloaded`]
    /// until the newcomer fits — freshest-first serving for workloads where
    /// a stale answer is worthless. Counted in
    /// [`EngineStats::shed`](crate::stats::EngineStats::shed).
    ShedOldest,
}

/// Result slot state shared between a [`Ticket`] and its front.
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
/// In the synchronous style, call `flush` and then [`Ticket::try_take`];
/// under [`Engine::serve`](crate::engine::Engine::serve), block on
/// [`Ticket::wait`] (or its bounded variants). Every ticket **resolves** —
/// to a value or an [`EngineError`] — even when the request is cancelled,
/// shed, expired, its kernel panics, or its front is dropped; see the
/// [engine docs](crate::engine#ticket-lifecycle).
pub struct Ticket<Y> {
    shared: Arc<TicketShared<Y>>,
}

impl<Y> Ticket<Y> {
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
    /// disconnected — so this cannot hang on a dead front (dropping it
    /// fails all pending tickets).
    ///
    /// Only sensible when something will flush — the
    /// [`Engine::serve`](crate::engine::Engine::serve) loop, or another
    /// thread calling `flush`.
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
    /// flush (it never reaches the run) and resolves as
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

/// Results in order: one per request of an `Engine::run` call, or one per
/// owning shard of a routed request.
pub(crate) type Results<Y> = Vec<Result<SparseVec<Y>, EngineError>>;

/// Fails every still-pending ticket of a drained flush when dropped. On a
/// normal flush this is a no-op (the run resolved them all); on unwind — a
/// kernel panic that escaped isolation, an armed `engine.flush.assemble`
/// failpoint — it is the difference between a failed flush and a client
/// stranded on a [`Condvar`] forever.
struct ResolveOnDrop<Y> {
    tickets: Vec<Arc<TicketShared<Y>>>,
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

/// What differs between the layers: what a request becomes at admission,
/// and how the live requests of one drained queue are served. Public in
/// name only (a private module): no other crate can name it.
pub trait Run {
    /// The frontier element of a request.
    type Input: Scalar;
    /// The element of an answer.
    type Output: Scalar;
    /// What the queue holds per admitted request.
    type Entry;
    /// What one flush reports.
    type Outcome: Default;
    /// The name prefix of the front's own metrics (`engine`, `shard`).
    const PREFIX: &'static str;

    /// The registry the front records into, beside the run's own metrics.
    fn registry(&self) -> &Registry;

    /// Checks `request`'s shape, panicking with
    /// [`MxvRequest::shape_error`]'s message, and turns it into the entry
    /// the queue holds; `id` is the front's id for it.
    fn admit(&self, id: u64, request: MxvRequest<Self::Input>) -> Self::Entry;

    /// Serves the live entries of one drained queue, in arrival order, and
    /// resolves every one of their tickets. `drained` is what the front
    /// counted before the run; the outcome includes it.
    fn run(&self, live: Vec<Queued<Self::Entry, Self::Output>>, drained: Drained) -> Self::Outcome;

    /// The requests `outcome` counts as retired unserved.
    fn retired(outcome: &Self::Outcome) -> usize;
}

/// One admitted request: the run's entry plus what the front tracks of it.
pub struct Queued<E, Y> {
    /// Front-unique request id — ties trace events back to submissions.
    pub(crate) id: u64,
    submitted: Instant,
    session: u64,
    pub(crate) deadline: Option<Instant>,
    pub(crate) ticket: Arc<TicketShared<Y>>,
    pub(crate) entry: E,
}

impl<E, Y> Queued<E, Y> {
    /// The client's claim on this request's result.
    fn claim(&self) -> Ticket<Y> {
        Ticket { shared: Arc::clone(&self.ticket) }
    }
}

/// What the front counted of one drained queue before the run: requests
/// drained, already resolved (retired) and expired (failed
/// `DeadlineExceeded`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Drained {
    pub(crate) requests: usize,
    pub(crate) retired: usize,
    pub(crate) timeouts: usize,
}

/// The front's own metrics, `<prefix>.<name>` (the [`crate::obs`] tables
/// list them).
pub(crate) struct FrontMetrics {
    pub(crate) requests: Arc<Counter>,
    pub(crate) retired: Arc<Counter>,
    pub(crate) rejected: Arc<Counter>,
    pub(crate) shed: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    queue_wait: Arc<Histogram>,
}

impl FrontMetrics {
    fn new(registry: &Registry, prefix: &str) -> Self {
        let name = |metric: &str| format!("{prefix}.{metric}");
        FrontMetrics {
            requests: registry.counter(&name("requests")),
            retired: registry.counter(&name("retired")),
            rejected: registry.counter(&name("rejected")),
            shed: registry.counter(&name("shed")),
            queue_depth: registry.gauge(&name("queue.depth")),
            queue_wait: registry.histogram(&name("queue.wait")),
        }
    }
}

/// A serving front door over the run `R`: [`Engine`](crate::engine::Engine)
/// and [`ShardedEngine`](crate::shard::ShardedEngine) are this type over
/// their runs, and the [engine docs](crate::engine#ticket-lifecycle) draw a
/// request's lifecycle. Dropping it fails every still-queued request with
/// [`EngineError::Disconnected`].
pub struct Front<R: Run> {
    pub(crate) run: R,
    queue: Mutex<VecDeque<Queued<R::Entry, R::Output>>>,
    /// Signalled when requests arrive (wakes the serve loop).
    grew: Condvar,
    /// Signalled when the queue drains (unblocks bounded `submit`).
    shrank: Condvar,
    /// Bound on queued requests; `0` = unbounded.
    capacity: usize,
    overload: OverloadPolicy,
    pub(crate) metrics: FrontMetrics,
    next_session: AtomicU64,
    next_request: AtomicU64,
}

impl<R: Run> Front<R> {
    /// A front over `run` whose queue holds at most `capacity` requests
    /// (`0` = unbounded), `overload` deciding what a full queue does.
    pub(crate) fn new(run: R, capacity: usize, overload: OverloadPolicy) -> Self {
        let metrics = FrontMetrics::new(run.registry(), R::PREFIX);
        Front {
            run,
            queue: Mutex::new(VecDeque::new()),
            grew: Condvar::new(),
            shrank: Condvar::new(),
            capacity,
            overload,
            metrics,
            next_session: AtomicU64::new(1),
            next_request: AtomicU64::new(0),
        }
    }

    /// This front's observability registry: the `engine.*` family of an
    /// engine (with its flush trace ring), or the `shard.*` family of a
    /// router (plus `net.*` over sockets; its shard engines' registries are
    /// its `shard_obs`).
    pub fn obs(&self) -> &Registry {
        self.run.registry()
    }

    /// Requests currently queued (submitted, not yet flushed).
    pub fn pending(&self) -> usize {
        lock(&self.queue).len()
    }

    /// Opens a session: a handle for one logical client, whose queued
    /// requests can be retired together with [`FrontSession::close`].
    pub fn session(&self) -> FrontSession<'_, R> {
        FrontSession { front: self, id: self.next_session.fetch_add(1, Ordering::Relaxed) }
    }

    /// Submits an anonymous request (no session). See
    /// [`FrontSession::submit`].
    pub fn submit(&self, request: MxvRequest<R::Input>) -> Ticket<R::Output> {
        self.submit_tagged(0, request)
    }

    fn submit_tagged(&self, session: u64, request: MxvRequest<R::Input>) -> Ticket<R::Output> {
        let entry = self.admit(session, request);
        let ticket = entry.claim();
        let capacity = self.capacity;
        let mut shed = 0usize;
        let mut rejected = false;
        {
            let mut q = lock(&self.queue);
            if capacity > 0 && q.len() >= capacity {
                match self.overload {
                    OverloadPolicy::Block => {
                        while q.len() >= capacity {
                            q = self.shrank.wait(q).unwrap_or_else(PoisonError::into_inner);
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
            ticket.shared.fail(EngineError::Overloaded);
        }
        if shed > 0 || rejected {
            self.metrics.shed.add(shed as u64);
            if rejected {
                self.metrics.rejected.inc();
            }
            self.run
                .registry()
                .trace(TraceKind::Overload { shed, rejected: usize::from(rejected) });
        }
        self.grew.notify_all();
        ticket
    }

    /// Runs the admit step on `request` (which panics on a shape that does
    /// not fit), counts it in `<prefix>.requests` and turns it into a
    /// queue entry with a pending ticket slot.
    fn admit(&self, session: u64, request: MxvRequest<R::Input>) -> Queued<R::Entry, R::Output> {
        let id = self.next_request.fetch_add(1, Ordering::Relaxed);
        let deadline = request.deadline;
        let entry = self.run.admit(id, request);
        // Count the request before it becomes flushable, so a concurrent
        // stats snapshot always sees `requests ≥ lanes_executed`.
        self.metrics.requests.inc();
        let ticket = Arc::new(TicketShared {
            state: Mutex::new(TicketState::Pending),
            ready: Condvar::new(),
        });
        Queued { id, submitted: Instant::now(), session, deadline, ticket, entry }
    }

    /// Drains the queue and serves every live request through the run:
    /// requests already cancelled, closed or expired are retired first, and
    /// every drained request resolves before this returns — even if a
    /// kernel panics. Returns what happened (all zeros when the queue was
    /// empty).
    pub fn flush(&self) -> R::Outcome {
        self.serve_drained(self.drain())
    }

    /// Takes everything queued off the queue.
    fn drain(&self) -> Vec<Queued<R::Entry, R::Output>> {
        let drained = {
            let mut q = lock(&self.queue);
            self.metrics.queue_depth.set(0);
            q.drain(..).collect()
        };
        self.shrank.notify_all();
        drained
    }

    /// Serves `requests` as one flush, past the queue: the queue's capacity
    /// and overload policy do not apply, and queued requests stay queued.
    /// Returns one result per request, in order, and the flush's outcome
    /// (all zeros for no requests). Requests are admitted and counted as
    /// [`Front::submit`] does. A shard's whole batch reaches its engine
    /// through this one call.
    pub(crate) fn run(
        &self,
        requests: Vec<MxvRequest<R::Input>>,
    ) -> (Results<R::Output>, R::Outcome) {
        let entries: Vec<_> = requests.into_iter().map(|request| self.admit(0, request)).collect();
        let tickets: Vec<_> = entries.iter().map(Queued::claim).collect();
        let outcome = self.serve_drained(entries);
        let results = tickets
            .iter()
            .map(|t| t.try_take().expect("a flush resolves every request it serves"))
            .collect();
        (results, outcome)
    }

    /// The body of [`Front::flush`] and `run`: retires what is no longer
    /// live, then hands the rest to the run.
    fn serve_drained(&self, mut drained: Vec<Queued<R::Entry, R::Output>>) -> R::Outcome {
        let mut counted = Drained { requests: drained.len(), ..Drained::default() };
        if drained.is_empty() {
            return self.run.run(drained, counted);
        }
        let registry = self.run.registry();
        if registry.enabled() {
            let now = Instant::now();
            for entry in &drained {
                self.metrics
                    .queue_wait
                    .record_duration(now.saturating_duration_since(entry.submitted));
            }
            registry.trace(TraceKind::FlushBegin { requests: drained.len() });
        }
        // From here on, an unwind out of this function resolves every
        // drained ticket on the way out (normal completion resolves them
        // all, making the guard a no-op).
        let _resolve_guard =
            ResolveOnDrop { tickets: drained.iter().map(|e| Arc::clone(&e.ticket)).collect() };
        // Retired mid-flight — cancelled, session closed, deadline passed:
        // such a request never reaches the run.
        let now = Instant::now();
        drained.retain(|entry| {
            if entry.deadline.is_some_and(|d| now >= d) {
                if entry.ticket.fail(EngineError::DeadlineExceeded) {
                    counted.timeouts += 1;
                } else {
                    counted.retired += 1;
                }
                false
            } else if !entry.ticket.is_pending() {
                counted.retired += 1;
                false
            } else {
                true
            }
        });
        let outcome = self.run.run(drained, counted);
        self.metrics.retired.add(R::retired(&outcome) as u64);
        outcome
    }

    /// Retires every still-queued request of `session`: entries leave the
    /// queue and their tickets resolve as [`EngineError::Cancelled`].
    fn retire_session(&self, session: u64) -> usize {
        let retired = {
            let mut q = lock(&self.queue);
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
            self.shrank.notify_all();
            self.metrics.retired.add(retired as u64);
        }
        retired
    }

    /// Drains the queue, failing every still-pending ticket with `err`.
    fn fail_queue(&self, err: EngineError) {
        for entry in self.drain() {
            entry.ticket.fail(err.clone());
        }
    }

    /// Runs `body` with a self-healing background flush loop: it flushes
    /// when `width` requests are pending (`0` = no width trigger) or
    /// `linger` elapses, and stops when `body` returns. See
    /// [`Engine::serve`](crate::engine::Engine::serve).
    pub(crate) fn serve_during<T: Send>(
        &self,
        width: usize,
        linger: Duration,
        body: impl FnOnce(&Self) -> T + Send,
    ) -> T
    where
        Self: Sync,
    {
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let server = scope.spawn(|| loop {
                let loop_run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.serve_loop(&shutdown, width, linger)
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
            let guard = ShutdownGuard { flag: &shutdown, front: self };
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

    fn serve_loop(&self, shutdown: &AtomicBool, width: usize, linger: Duration) {
        let linger = linger.max(Duration::from_micros(1));
        // A width of 0 means "no width budget", so it disables the width
        // trigger too: the loop then flushes on linger timeouts only.
        let width = if width == 0 { usize::MAX } else { width };
        loop {
            let mut deadline: Option<Instant> = None;
            {
                let mut entries = lock(&self.queue);
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
                                .grew
                                .wait_timeout(entries, d - now)
                                .unwrap_or_else(PoisonError::into_inner);
                            entries = guard;
                        }
                        // Empty queue: block until a submit (or the shutdown
                        // guard) signals `grew` — no periodic wakeups.
                        None => {
                            entries =
                                self.grew.wait(entries).unwrap_or_else(PoisonError::into_inner)
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

impl<R: Run> Drop for Front<R> {
    fn drop(&mut self) {
        // Clients may hold tickets beyond the front's life (tickets are
        // `Arc`-shared): resolve everything still queued so no waiter blocks
        // on a front that will never flush again.
        self.fail_queue(EngineError::Disconnected);
    }
}

/// Raises the shutdown flag (and wakes the serve loop) on drop — including
/// on unwind out of a serve body.
struct ShutdownGuard<'a, R: Run> {
    flag: &'a AtomicBool,
    front: &'a Front<R>,
}

impl<R: Run> Drop for ShutdownGuard<'_, R> {
    fn drop(&mut self) {
        self.flag.store(true, Ordering::SeqCst);
        // Notify while holding the queue lock: the serve loop checks the
        // flag and parks on `grew` under this same mutex, so the notify
        // cannot land in the gap between its check and its wait (a lost
        // wakeup would hang the untimed empty-queue wait forever).
        let _entries = lock(&self.front.queue);
        self.front.grew.notify_all();
    }
}

/// A handle for one logical client of a [`Front`]: cheap (an id plus a
/// borrow) and independent of other sessions. [`FrontSession::close`] — or
/// dropping it — retires its still-queued requests as
/// [`EngineError::Cancelled`], so a client that disappears takes its
/// pending work with it.
pub struct FrontSession<'e, R: Run> {
    front: &'e Front<R>,
    id: u64,
}

impl<R: Run> FrontSession<'_, R> {
    /// This session's id (unique within its front).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Submits a request on behalf of this session. When the front's queue
    /// is bounded and full, its [`OverloadPolicy`] decides: block for
    /// backpressure, reject this request, or shed the oldest.
    pub fn submit(&self, request: MxvRequest<R::Input>) -> Ticket<R::Output> {
        self.front.submit_tagged(self.id, request)
    }

    /// Closes the session, retiring its still-queued requests mid-flight:
    /// they never reach the run and their tickets resolve as
    /// [`EngineError::Cancelled`]. Requests already served keep their
    /// results. Returns how many requests were retired. (Dropping the
    /// session without calling this does the same, minus the count.)
    pub fn close(self) -> usize {
        let retired = self.front.retire_session(self.id);
        std::mem::forget(self);
        retired
    }
}

impl<R: Run> Drop for FrontSession<'_, R> {
    fn drop(&mut self) {
        self.front.retire_session(self.id);
    }
}
