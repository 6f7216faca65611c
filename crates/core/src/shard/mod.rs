//! Shard-parallel serving: 1D column-partitioned engines behind a
//! scatter/merge router.
//!
//! The source paper frames work-efficient SpMSpV as the *node-level* kernel
//! inside CombBLAS's distributed, 1D/2D-partitioned matrix world. This
//! module is the serving stack's first step into that world: a
//! [`ShardPlan`] splits the matrix by **column ranges** (CombBLAS-style 1D,
//! balanced by nnz rather than width), each range becomes a standalone
//! sub-matrix owned by its own [`Engine`](crate::engine::Engine), and a
//! [`ShardedEngine`] router presents the familiar
//! `Session`/`MxvRequest`/`Ticket` surface on top of the fleet.
//!
//! ## Why column partitioning composes
//!
//! A shard owning columns `[lo, hi)` holds an `nrows × (hi − lo)` slice of
//! the matrix — **full output height**. For any semiring `(⊕, ⊗)`:
//!
//! ```text
//! y = A ⊗ x = ⊕ₚ Aₚ ⊗ xₚ        xₚ = x sliced to [lo, hi), re-based to 0
//! ```
//!
//! so the router only has to do three cheap things per request:
//!
//! 1. **Scatter** — slice the frontier by each shard's index range
//!    ([`SparseVec::slice_remap`](sparse_substrate::SparseVec::slice_remap))
//!    and queue one sub-request per *owning* shard at the router (shards
//!    whose slice is empty are skipped entirely; the `shard.fanout`
//!    histogram records how many shards each request actually touched).
//!    Output masks cover rows, which every shard shares, so the same
//!    `Arc`'d mask bitmap travels to each sub-request untouched, and
//!    deadlines propagate verbatim.
//! 2. **Execute** — at [`ShardedEngine::flush`] the router builds each
//!    involved shard's batch from its queued requests, skipping those
//!    already cancelled, and hands the batches to the transport in parallel
//!    (one scoped thread per shard). The transport submits the batch to
//!    the shard's engine and flushes it — in this process or on a
//!    [`ShardHost`](crate::net::ShardHost) — so shard engines get their work
//!    at the flush whichever transport carries it. Each shard engine
//!    coalesces, panic-isolates, and degrades exactly as a standalone
//!    engine would: the fault-tolerance semantics of the engine layer
//!    compose per shard. A shard engine configured with a bounded
//!    [`OverloadPolicy::Block`](crate::engine::OverloadPolicy::Block) queue
//!    smaller than one flush's batch blocks that batch's submission for
//!    good, in process exactly as on a `ShardHost`, because nothing
//!    flushes the engine until the whole batch is in.
//! 3. **Merge** — fold the full-height partial outputs with the semiring's
//!    `⊕` in ascending shard order ([`merge_partials`]). Because shard `p`'s
//!    partial is itself a left-fold over ascending columns, the merged fold
//!    order is the global ascending-column order — the same order a
//!    single unsharded engine reduces in.
//!
//! ## Failure semantics
//!
//! One shard's [`EngineError`](crate::engine::EngineError) fails **only the
//! tickets routed through it**: a request whose frontier never touches the
//! failed shard's columns resolves normally. An injected outage (the
//! `shard.flush.<s>` failpoint) is handled by the router for every
//! transport: the downed shard's batch is never handed over, and its
//! tickets fail with `KernelFailed("shard <s>: …")`. A sub-request that
//! exceeds its deadline inside a shard surfaces as `DeadlineExceeded` on
//! the routed ticket. A request cancelled before the flush — its ticket
//! cancelled, or its [`ShardSession`] closed or dropped — never leaves the
//! router. Dropping the router fails every still-queued ticket with
//! `Disconnected`, exactly like dropping an engine. A bounded `Block`
//! shard queue smaller than one flush's batch blocks the flush, in process
//! as on a `ShardHost` (see Execute above); no test or workload configures
//! one.
//!
//! ## Transports
//!
//! A sub-request goes out as a [`transport::WireRequest`] (frontier slice
//! plus mask and deadline sidecars) and comes back as a [`ShardMsg`] — plain
//! data (request id, shard, and the partial or the error) with no `Arc`s,
//! borrows, handles, or `Instant`s in its payload. The router owns the
//! whole sub-request lifecycle: the queues, the per-shard threads, the
//! injected outages and the cancels. The per-shard hop itself is a
//! [`ShardTransport`] that serves one shard's batch per
//! [`exchange`](ShardTransport::exchange): [`transport::InProcess`] submits
//! the batch to its shard engine in this address space and flushes it (the
//! [`ShardedEngine::partition`] path), and [`crate::net::TcpTransport`]
//! encodes it as frames over sockets to [`crate::net::ShardHost`] daemons
//! (both hand the shard engine its whole batch before flushing it, so
//! they block alike on a bounded `Block` queue — see Execute above)
//! ([`ShardedEngine::connect`](crate::net)), optionally N replicas deep
//! per shard ([`ShardedEngine::connect_replicated`](crate::net)) with
//! mid-flush failover, per-replica circuit breakers, and byzantine-frame
//! quarantine. The router logic — scatter, fan-out bookkeeping, merge,
//! failure isolation — is written against the message shape, so results
//! are bit-identical across transports (and across failovers: every
//! replica of a shard serves the same column slice, verified at dial time
//! against the plan's structural fingerprint).
//!
//! ## Observability
//!
//! The router owns its own [`Registry`](crate::obs::Registry) with the
//! `shard.*` metric family (see the [`crate::obs`] taxonomy): routing
//! fan-out, per-shard queue depth gauges (sub-requests queued at the
//! router), and the merge-time histogram.
//! [`ShardedEngine::stats`] returns the **sum** of the per-shard
//! [`EngineStats`](crate::stats::EngineStats) (via
//! [`EngineStats::absorb`](crate::stats::EngineStats::absorb)), so existing
//! engine dashboards read a sharded deployment unchanged.

mod merge;
mod messages;
mod plan;
mod router;
pub mod transport;

pub use merge::merge_partials;
pub(crate) use messages::settle;
pub use messages::ShardMsg;
pub use plan::ShardPlan;
pub use router::{ShardFlushOutcome, ShardSession, ShardedEngine};
pub use transport::ShardTransport;
