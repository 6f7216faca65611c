//! The process-agnostic shard → router reply.
//!
//! Every reply that crosses the shard boundary is a [`ShardMsg`]: plain
//! owned data — `Vec`s of scalars, `u64` request ids, `String` errors —
//! with no `Arc`s, borrows, thread handles, or `Instant`s. The in-process
//! transport builds these from its shard engines' tickets; a socket
//! transport decodes them from `Partial` / `Error` frames. See the
//! [module docs](super) for the transport contract.

use sparse_substrate::{Scalar, SparseVec};

use crate::engine::EngineError;

/// One shard → router reply of the scatter/merge protocol. `Y` is the
/// semiring's output type. Frontier slices travel the other way as a
/// [`WireRequest`](super::transport::WireRequest): in-process they are
/// submitted to the shard engine as they are, over TCP they are encoded as
/// a `Frontier` frame.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardMsg<Y> {
    /// One full-height partial product, to be ⊕-merged with the other
    /// owning shards' partials.
    Partial {
        /// Echoed request id.
        request: u64,
        /// Responding shard.
        shard: usize,
        /// Global output dimension (= matrix rows).
        len: usize,
        /// Global row indices of the partial's entries.
        indices: Vec<usize>,
        /// Values parallel to `indices`.
        values: Vec<Y>,
    },
    /// The sub-request failed. Fails only the tickets routed through this
    /// shard.
    Error {
        /// Echoed request id.
        request: u64,
        /// Failing shard.
        shard: usize,
        /// What went wrong (already plain data — its only payload is the
        /// `KernelFailed` message string).
        error: EngineError,
    },
}

impl<Y: Scalar> ShardMsg<Y> {
    /// Packs a shard's partial product.
    pub fn partial(request: u64, shard: usize, partial: SparseVec<Y>) -> Self {
        let (len, indices, values) = partial.into_parts();
        ShardMsg::Partial { request, shard, len, indices, values }
    }

    /// Packs a shard failure.
    pub fn error(request: u64, shard: usize, error: EngineError) -> Self {
        ShardMsg::Error { request, shard, error }
    }

    /// The request this message belongs to.
    pub fn request(&self) -> u64 {
        match self {
            ShardMsg::Partial { request, .. } | ShardMsg::Error { request, .. } => *request,
        }
    }

    /// The shard this message comes from.
    pub fn shard(&self) -> usize {
        match self {
            ShardMsg::Partial { shard, .. } | ShardMsg::Error { shard, .. } => *shard,
        }
    }

    /// Unpacks the reply: `Ok(partial)` for a `Partial`, `Err(error)` for an
    /// `Error`.
    pub fn into_result(self) -> Result<SparseVec<Y>, EngineError> {
        match self {
            ShardMsg::Partial { len, indices, values, .. } => {
                Ok(SparseVec::from_parts(len, indices, values).expect("partial was a valid vector"))
            }
            ShardMsg::Error { error, .. } => Err(error),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partial_and_error_unpack_as_results() {
        let partial = SparseVec::from_pairs(4, vec![(0, 1.0)]).unwrap();
        let ok: ShardMsg<f64> = ShardMsg::partial(3, 1, partial.clone());
        assert_eq!(ok.into_result(), Ok(partial));
        let err: ShardMsg<f64> = ShardMsg::error(3, 1, EngineError::KernelFailed("boom".into()));
        assert_eq!((err.request(), err.shard()), (3, 1));
        assert_eq!(err.into_result(), Err(EngineError::KernelFailed("boom".into())));
    }
}
