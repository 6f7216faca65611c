//! The router's per-shard hop, factored behind [`ShardTransport`].
//!
//! [`ShardedEngine`](super::ShardedEngine) queues, scatters, gathers, and
//! merges; a transport only serves one shard's batch at a time. [`InProcess`]
//! is the original path — one [`Engine`] per shard in this address space —
//! and [`crate::net::TcpTransport`] carries the same batch over sockets to
//! [`crate::net::ShardHost`] processes, failing over between replica hosts
//! of a shard without the router noticing. The router hands every transport
//! [`WireRequest`]s and reads back [`ShardMsg`] replies, so the transports
//! are behaviorally interchangeable (the shard property suite asserts
//! bit-identical results across them, replicated fleets with killed
//! primaries included).

use std::sync::Arc;
use std::time::Instant;

use sparse_substrate::{MaskBits, Scalar, Semiring, SparseVec};

use crate::engine::{Engine, FlushOutcome, MxvRequest};
use crate::masked::MaskMode;
use crate::obs::Registry;
use crate::stats::EngineStats;

use super::messages::settle;
use super::ShardMsg;

/// One routed sub-request handed to a transport: the frontier slice
/// (re-based to the shard's column range) plus its sidecars — the shared
/// output mask and the router-local absolute deadline (a socket transport
/// turns it into a relative budget when it writes the frame).
pub struct WireRequest<X> {
    /// Router-unique request id.
    pub request: u64,
    /// The frontier slice, re-based to the shard's local columns.
    pub slice: SparseVec<X>,
    /// The router-local absolute deadline.
    pub deadline: Option<Instant>,
    /// Output mask sidecar (full output height — every shard shares it).
    pub mask: Option<(Arc<MaskBits>, MaskMode)>,
}

/// How one shard's batch reaches its engine and the replies come back.
/// Implemented by [`InProcess`] (shard engines in this address space) and
/// [`crate::net::TcpTransport`] (shard engines behind
/// [`crate::net::ShardHost`] daemons).
///
/// The router owns the queues, the per-shard threads, injected outages and
/// cancels; [`exchange`](ShardTransport::exchange) must produce exactly one
/// reply per request in the batch — a transport failure is an `Error`
/// reply, never a missing one.
pub trait ShardTransport<X: Scalar, Y: Scalar>: Send + Sync {
    /// Number of shards behind this transport.
    fn num_shards(&self) -> usize;

    /// Executes `batch` on `shard` and gathers its replies, plus the shard
    /// engine's flush outcome — `None` when the shard never flushed (every
    /// replica of a remote shard failed). A remote transport fills in the
    /// summary fields its host ships back (lanes, requests, execute time).
    fn exchange(
        &self,
        shard: usize,
        batch: Vec<WireRequest<X>>,
    ) -> (Vec<ShardMsg<Y>>, Option<FlushOutcome>);

    /// Shard `s`'s engine stats — `None` when the shard lives in another
    /// process (its stats are local to the host).
    fn shard_stats(&self, shard: usize) -> Option<EngineStats>;

    /// Shard `s`'s engine registry — `None` when the shard is remote.
    fn shard_obs(&self, shard: usize) -> Option<&Registry>;
}

/// The original transport: one [`Engine`] per shard in this process. A
/// batch is submitted to its shard's engine, which is flushed at once, so
/// in-process shards get their work at the same point remote hosts do.
pub struct InProcess<A: Scalar, X: Scalar, S: Semiring<A, X> + Clone + 'static> {
    engines: Vec<Engine<'static, A, X, S>>,
}

impl<A, X, S> InProcess<A, X, S>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X> + Clone + 'static,
{
    /// Wraps a fleet of shard engines (index = shard).
    pub fn new(engines: Vec<Engine<'static, A, X, S>>) -> Self {
        InProcess { engines }
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

    fn exchange(
        &self,
        shard: usize,
        batch: Vec<WireRequest<X>>,
    ) -> (Vec<ShardMsg<S::Output>>, Option<FlushOutcome>) {
        let engine = &self.engines[shard];
        let tickets: Vec<_> = batch
            .into_iter()
            .map(|req| {
                let sub =
                    MxvRequest { frontier: req.slice, mask: req.mask, deadline: req.deadline };
                (req.request, engine.submit(sub))
            })
            .collect();
        let outcome = engine.flush();
        let replies = tickets
            .into_iter()
            .map(|(request, ticket)| ShardMsg { request, shard, result: settle(ticket) })
            .collect();
        (replies, Some(outcome))
    }

    fn shard_stats(&self, shard: usize) -> Option<EngineStats> {
        Some(self.engines[shard].stats())
    }

    fn shard_obs(&self, shard: usize) -> Option<&Registry> {
        Some(self.engines[shard].obs())
    }
}
