//! The process-agnostic shard → router reply.
//!
//! Every reply that crosses the shard boundary is a [`ShardMsg`]: plain
//! owned data — a [`SparseVec`] partial or a `String`-carrying error, keyed
//! by `u64` request id and shard — with no `Arc`s, borrows, thread handles,
//! or `Instant`s. The in-process transport builds these from its shard
//! engine's tickets; a socket transport decodes them from `Partial` /
//! `Error` frames. See the [module docs](super) for the transport contract.

use sparse_substrate::{Scalar, SparseVec};

use crate::engine::{EngineError, Ticket};

/// One shard → router reply of the scatter/merge protocol. `Y` is the
/// semiring's output type. Frontier slices travel the other way as a
/// [`WireRequest`](super::transport::WireRequest): in-process they are
/// submitted to the shard engine as they are, over TCP they are encoded as
/// a `Frontier` frame.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardMsg<Y> {
    /// Echoed request id.
    pub request: u64,
    /// Responding shard.
    pub shard: usize,
    /// The full-height partial product, to be ⊕-merged with the other
    /// owning shards' partials, or the error that fails only the tickets
    /// routed through this shard.
    pub result: Result<SparseVec<Y>, EngineError>,
}

/// The result of a sub-request whose engine has just flushed: the ticket's
/// terminal state, or — for a ticket the flush left pending — a cancel and
/// a `KernelFailed`, so every sub-request gets exactly one reply.
pub(crate) fn settle<Y: Scalar>(ticket: Ticket<Y>) -> Result<SparseVec<Y>, EngineError> {
    ticket.try_take().unwrap_or_else(|| {
        ticket.cancel();
        Err(EngineError::KernelFailed("shard never flushed the sub-request".into()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partial_and_error_unpack_as_results() {
        let partial = SparseVec::from_pairs(4, vec![(0, 1.0)]).unwrap();
        let (ticket, shared) = Ticket::detached();
        shared.fulfil(partial.clone());
        assert_eq!(settle(ticket), Ok(partial));

        let (ticket, shared) = Ticket::<f64>::detached();
        shared.fail(EngineError::KernelFailed("boom".into()));
        assert_eq!(settle(ticket), Err(EngineError::KernelFailed("boom".into())));

        // A ticket the flush never reached is cancelled, and its reply
        // still comes back as an error rather than a hole.
        let (ticket, shared) = Ticket::<f64>::detached();
        match settle(ticket) {
            Err(EngineError::KernelFailed(msg)) => assert!(msg.contains("never flushed"), "{msg}"),
            other => panic!("an unflushed ticket must settle as KernelFailed, got {other:?}"),
        }
        assert!(!shared.is_pending(), "settling an unflushed ticket cancels it");
    }
}
