//! The router's per-shard hop, factored behind [`ShardTransport`].
//!
//! [`ShardedEngine`](super::ShardedEngine) queues, scatters, gathers, and
//! merges; a transport only serves one shard's batch at a time. [`InProcess`]
//! is the original path — one [`Engine`] per shard in this address space —
//! and [`crate::net::TcpTransport`] carries the same batch over sockets to
//! [`crate::net::ShardHost`] processes, failing over between replica hosts
//! of a shard without the router noticing. The router hands every transport
//! [`WireRequest`]s and reads back one result per request, by position, so
//! the transports are behaviorally interchangeable (the shard property
//! suite asserts bit-identical results across them, replicated fleets with
//! killed primaries included).

use std::sync::Arc;
use std::time::Instant;

use sparse_substrate::{MaskBits, Scalar, Semiring, SparseVec};

use crate::engine::{Engine, EngineError, FlushOutcome, MxvRequest};
use crate::masked::MaskMode;
use crate::obs::Registry;
use crate::stats::EngineStats;

/// One routed sub-request handed to a transport: a frontier plus its
/// sidecars — the output mask and the router-local absolute deadline (a
/// socket transport turns it into a relative budget when it writes the
/// frame).
///
/// A pushed sub-request (`pulled == false`) carries the frontier slice
/// re-based to the shard's column range and the whole mask, and its answer
/// is a full-height partial. A pulled one carries the whole frontier and
/// the mask's rows `[lo, hi)` of the shard's range, re-based to 0, and its
/// answer is those rows, `hi − lo` high.
pub struct WireRequest<X> {
    /// Router-unique request id: the correlation id a socket transport
    /// writes and checks each reply against.
    pub request: u64,
    /// The frontier slice, re-based to the shard's local columns; for a
    /// pulled sub-request, the whole frontier.
    pub slice: SparseVec<X>,
    /// The router-local absolute deadline.
    pub deadline: Option<Instant>,
    /// Output mask sidecar: the whole mask (full output height, the same
    /// `Arc` every shard shares), or for a pulled sub-request the shard's
    /// own rows of it.
    pub mask: Option<(Arc<MaskBits>, MaskMode)>,
    /// Whether the shard pulls the rows it owns (the transposed reading of
    /// [`crate::pull`]) instead of pushing its slice of the frontier.
    pub pulled: bool,
}

/// How one shard's batch reaches its engine and the results come back.
/// Implemented by [`InProcess`] (shard engines in this address space) and
/// [`crate::net::TcpTransport`] (shard engines behind
/// [`crate::net::ShardHost`] daemons).
///
/// The router owns the queues, the per-shard threads, injected outages and
/// cancels; [`exchange`](ShardTransport::exchange) must answer every entry
/// of the batch, in order — a transport failure is an `Err` in that entry's
/// place, never a missing one.
pub trait ShardTransport<X: Scalar, Y: Scalar>: Send + Sync {
    /// Number of shards behind this transport.
    fn num_shards(&self) -> usize;

    /// Executes `batch` on `shard` as one engine flush and returns one
    /// result per batch entry, by position (the partial product or, for a
    /// pulled entry, the shard's rows of the product; or the
    /// error that fails only the tickets routed through this shard), plus
    /// the shard engine's flush outcome — `None` when no engine ran the
    /// batch (every replica of a remote shard failed). A remote transport
    /// fills in the summary fields its host ships back (lanes, requests,
    /// execute time).
    fn exchange(
        &self,
        shard: usize,
        batch: Vec<WireRequest<X>>,
    ) -> (Vec<Result<SparseVec<Y>, EngineError>>, Option<FlushOutcome>);

    /// Shard `s`'s engine stats — `None` when the shard lives in another
    /// process (its stats are local to the host).
    fn shard_stats(&self, shard: usize) -> Option<EngineStats>;

    /// Shard `s`'s engine registry — `None` when the shard is remote.
    fn shard_obs(&self, shard: usize) -> Option<&Registry>;
}

/// The original transport: one [`Engine`] per shard in this process. A
/// batch is one call into its shard's engine, served as one flush at once,
/// so in-process shards get their work at the same point remote hosts do.
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
    ) -> (Vec<Result<SparseVec<S::Output>, EngineError>>, Option<FlushOutcome>) {
        let requests = batch
            .into_iter()
            .map(|req| MxvRequest {
                frontier: req.slice,
                mask: req.mask,
                deadline: req.deadline,
                pulled: req.pulled,
            })
            .collect();
        let (results, outcome) = self.engines[shard].run(requests);
        (results, Some(outcome))
    }

    fn shard_stats(&self, shard: usize) -> Option<EngineStats> {
        Some(self.engines[shard].stats())
    }

    fn shard_obs(&self, shard: usize) -> Option<&Registry> {
        Some(self.engines[shard].obs())
    }
}
