//! The router's per-shard hop, factored behind [`ShardTransport`].
//!
//! [`ShardedEngine`](super::ShardedEngine) scatters, gathers, and merges;
//! *how* a sub-request reaches its shard engine is the transport's
//! business. [`InProcess`] is the original path — one [`Engine`] per shard
//! in this address space — and [`crate::net::TcpTransport`] carries the
//! same protocol over sockets to [`crate::net::ShardHost`] processes,
//! failing over between replica hosts of a shard without the router
//! noticing. The router hands every transport [`WireRequest`]s and reads
//! back [`ShardMsg`] replies, so the transports are behaviorally
//! interchangeable (the shard
//! property suite asserts bit-identical results across them, replicated
//! fleets with killed primaries included).

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sparse_substrate::{MaskBits, Scalar, Semiring, SparseVec};

use crate::engine::{Engine, EngineError, FlushOutcome, MxvRequest, Ticket};
use crate::masked::MaskMode;
use crate::obs::Registry;
use crate::stats::EngineStats;

use super::ShardMsg;

/// One routed sub-request handed to a transport: the frontier slice
/// (re-based to the shard's column range) plus its sidecars — the shared
/// output mask and both flavors of the deadline (absolute for in-process
/// engines and the gather-side re-check; relative for the wire).
pub struct WireRequest<X> {
    /// Router-unique request id.
    pub request: u64,
    /// Destination shard.
    pub shard: usize,
    /// The frontier slice, re-based to the shard's local columns.
    pub slice: SparseVec<X>,
    /// Remaining deadline budget in microseconds at submit time. A socket
    /// transport recomputes this at write time so queue wait is clamped
    /// out of the budget too.
    pub deadline_micros: Option<u64>,
    /// The router-local absolute deadline.
    pub deadline: Option<Instant>,
    /// Output mask sidecar (full output height — every shard shares it).
    pub mask: Option<(Arc<MaskBits>, MaskMode)>,
}

/// What one [`ShardTransport::exchange`] produced: the gathered replies in
/// wire shape plus the execution telemetry the router folds into its
/// [`ShardFlushOutcome`](super::ShardFlushOutcome).
pub struct Exchange<Y> {
    /// One `Partial`/`Error` reply per live sub-request, keyed by
    /// `(request, shard)`.
    pub replies: Vec<ShardMsg<Y>>,
    /// Each shard engine's own flush outcome, indexed by shard. A remote
    /// transport fills in the summary fields its host ships back (lanes,
    /// requests, execute time); a downed shard's slot stays default.
    pub per_shard: Vec<FlushOutcome>,
    /// Shards whose engines actually flushed.
    pub shards_flushed: usize,
    /// Wall time of the parallel scatter/execute/gather phase.
    pub execute_time: Duration,
}

/// How sub-requests reach shard engines and replies come back. Implemented
/// by [`InProcess`] (shard engines in this address space) and
/// [`crate::net::TcpTransport`] (shard engines behind
/// [`crate::net::ShardHost`] daemons).
///
/// The contract mirrors the router's flush discipline: [`enqueue`]d
/// requests sit until [`exchange`], which must produce exactly one reply
/// per enqueued request that is neither `retired` nor silently dropped —
/// a transport failure is an `Error` reply, never a missing one.
///
/// [`enqueue`]: ShardTransport::enqueue
/// [`exchange`]: ShardTransport::exchange
pub trait ShardTransport<X: Scalar, Y: Scalar>: Send + Sync {
    /// Number of shards behind this transport.
    fn num_shards(&self) -> usize;

    /// Queues one sub-request for its shard.
    fn enqueue(&self, request: WireRequest<X>);

    /// Sub-requests currently queued for `shard` (feeds the
    /// `shard.queue_depth.<s>` gauge).
    fn queued(&self, shard: usize) -> usize;

    /// Shards that have work to flush.
    fn involved(&self) -> Vec<usize>;

    /// Drops queued sub-requests whose request id is in `ids` (session
    /// close / client cancel): no reply will be produced for them.
    fn retire(&self, ids: &[u64]);

    /// Flushes every involved shard and gathers replies. `down[s]` carries
    /// an injected outage for shard `s` (the `shard.flush.<s>` failpoint):
    /// the shard must not execute, and its sub-requests must come back as
    /// `KernelFailed` errors. `retired` lists request ids cancelled after
    /// enqueue; their sub-requests produce no reply.
    fn exchange(&self, down: &[Option<String>], retired: &[u64]) -> Exchange<Y>;

    /// Shard `s`'s engine stats — `None` when the shard lives in another
    /// process (its stats are local to the host).
    fn shard_stats(&self, shard: usize) -> Option<EngineStats>;

    /// Shard `s`'s engine registry — `None` when the shard is remote.
    fn shard_obs(&self, shard: usize) -> Option<&Registry>;
}

/// One sub-request awaiting its shard's reply: `(request id, shard,
/// ticket)`.
type Inflight<Y> = (u64, usize, Ticket<Y>);

/// The original transport: one [`Engine`] per shard in this process, each
/// slice submitted as it is straight into its shard's queue. Sub-request tickets are
/// held here between `enqueue` and `exchange`.
pub struct InProcess<A: Scalar, X: Scalar, S: Semiring<A, X> + Clone + 'static> {
    engines: Vec<Engine<'static, A, X, S>>,
    inflight: Mutex<Vec<Inflight<S::Output>>>,
}

impl<A, X, S> InProcess<A, X, S>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X> + Clone + 'static,
{
    /// Wraps a fleet of shard engines (index = shard).
    pub fn new(engines: Vec<Engine<'static, A, X, S>>) -> Self {
        InProcess { engines, inflight: Mutex::new(Vec::new()) }
    }
}

impl<A, X, S> ShardTransport<X, S::Output> for InProcess<A, X, S>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X> + Clone + 'static,
{
    fn num_shards(&self) -> usize {
        self.engines.len()
    }

    fn enqueue(&self, request: WireRequest<X>) {
        let sub =
            MxvRequest { frontier: request.slice, mask: request.mask, deadline: request.deadline };
        let ticket = self.engines[request.shard].submit(sub);
        crate::engine::lock(&self.inflight).push((request.request, request.shard, ticket));
    }

    fn queued(&self, shard: usize) -> usize {
        self.engines[shard].pending()
    }

    fn involved(&self) -> Vec<usize> {
        (0..self.engines.len()).filter(|&s| self.engines[s].pending() > 0).collect()
    }

    fn retire(&self, ids: &[u64]) {
        let mut inflight = crate::engine::lock(&self.inflight);
        inflight.retain(|(id, _, ticket)| {
            if ids.contains(id) {
                ticket.cancel();
                false
            } else {
                true
            }
        });
    }

    fn exchange(&self, down: &[Option<String>], retired: &[u64]) -> Exchange<S::Output> {
        let entries: Vec<(u64, usize, Ticket<S::Output>)> = {
            let mut inflight = crate::engine::lock(&self.inflight);
            inflight.drain(..).collect()
        };
        let involved = self.involved();
        let mut per_shard = vec![FlushOutcome::default(); self.engines.len()];
        let mut shards_flushed = 0;

        // A downed shard's engine is not flushed at all this round; its
        // sub-requests stay queued (their cancelled lanes drain at the
        // next flush) and come back as errors below.
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            let handles: Vec<(usize, _)> = involved
                .iter()
                .filter(|&&s| down[s].is_none())
                .map(|&s| (s, scope.spawn(move || self.engines[s].flush())))
                .collect();
            for (s, handle) in handles {
                per_shard[s] = handle.join().expect("shard flush thread panicked");
                shards_flushed += 1;
            }
        });
        let execute_time = t0.elapsed();

        let mut replies = Vec::with_capacity(entries.len());
        for (id, s, ticket) in entries {
            if retired.contains(&id) {
                // Client cancelled between submit and flush: drop the
                // sub-ticket too so the shard queue sheds the dead lane.
                ticket.cancel();
                continue;
            }
            if let Some(msg) = &down[s] {
                ticket.cancel();
                replies.push(ShardMsg::error(id, s, EngineError::KernelFailed(msg.clone())));
                continue;
            }
            let reply = match ticket.try_take() {
                Some(Ok(y)) => ShardMsg::partial(id, s, y),
                Some(Err(e)) => ShardMsg::error(id, s, e),
                None => {
                    ticket.cancel();
                    ShardMsg::error(
                        id,
                        s,
                        EngineError::KernelFailed("shard never flushed the sub-request".into()),
                    )
                }
            };
            replies.push(reply);
        }
        Exchange { replies, per_shard, shards_flushed, execute_time }
    }

    fn shard_stats(&self, shard: usize) -> Option<EngineStats> {
        Some(self.engines[shard].stats())
    }

    fn shard_obs(&self, shard: usize) -> Option<&Registry> {
        Some(self.engines[shard].obs())
    }
}
