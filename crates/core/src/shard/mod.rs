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
//! That is a *pushed* request, and every request is pushed unless the
//! router pulls it (below). The router only has to do three cheap things
//! per request:
//!
//! 1. **Scatter** — slice the frontier by each shard's index range
//!    ([`SparseVec::slice_remap`](sparse_substrate::SparseVec::slice_remap))
//!    and queue one sub-request per *owning* shard at the router (shards
//!    whose slice is empty are skipped entirely; the `shard.fanout`
//!    histogram records how many shards each request actually touched).
//!    A pushed request's output mask covers rows, which every shard
//!    shares, so the same `Arc`'d mask bitmap travels to each sub-request
//!    untouched, and deadlines propagate verbatim.
//! 2. **Execute** — at [`ShardedEngine::flush`] the router builds each
//!    involved shard's batch from its queued requests, skipping those
//!    already cancelled, and hands the batches to the transport in parallel
//!    (one scoped thread per shard). The transport serves the batch as one
//!    call into the shard's engine — in this process or on a
//!    [`ShardHost`](crate::net::ShardHost) — which runs it as one flush
//!    past the engine's queue, so a bounded shard queue never holds a batch
//!    back, and answers every entry by position. Each shard engine
//!    coalesces, panic-isolates, and degrades exactly as a standalone
//!    engine would: the fault-tolerance semantics of the engine layer
//!    compose per shard.
//! 3. **Merge** — fold the full-height partial outputs with the semiring's
//!    `⊕` in ascending shard order ([`merge_partials`]). Because shard `p`'s
//!    partial is itself a left-fold over ascending columns, the merged fold
//!    order is the global ascending-column order — the same order a
//!    single unsharded engine reduces in. A pulled request's answers are
//!    instead concatenated in shard order, with no `⊕`.
//!
//! ## Pulled requests: every shard answers the rows it owns
//!
//! The full-output-height contract above is the pushed one. On a dense
//! level of a BFS, pushing makes every shard form a product for each of
//! its frontier edges and ship back a full-height partial. The bottom-up
//! step of distributed BFS (Beamer, Buluç, Asanović, Patterson, IPDPSW
//! 2013) lets every owner resolve its own vertices against the whole
//! frontier instead, and this router does that per request. When
//!
//! * the plan keeps the column degrees of a square, structurally symmetric
//!   matrix (only [`ShardPlan::with_fingerprints_of`] and
//!   [`ShardedEngine::partition_with`] attach them, since only they read
//!   the whole matrix), and
//! * the request's mask keeps a row, and Adaptive's pull rule
//!   ([`crate::adaptive`]) holds on the whole request: `α · flops ≥ n`,
//!   [`first_hit_decides`](sparse_substrate::Semiring::first_hit_decides)
//!   for its frontier's values, and `m_u < α · flops`,
//!
//! the router *pulls* it. Each shard whose rows `[lo, hi)` of the mask keep
//! one gets the whole frontier and those rows of the mask, re-based to 0,
//! and pulls them: for symmetric `A`, its local column `c` is row
//! `lo + c`'s neighbour list, so the pull scan over its slice yields
//! `y(lo..hi)` ([`crate::pull`]'s transposed reading). The answers are
//! disjoint, ascending row ranges, and the router concatenates them in
//! shard order. The first hit is the `min` push and merge compute, so the
//! result is bit-identical. Fan-out is the shards owning a kept row (at
//! least one), and the `shard.pulls` counter and
//! [`ShardFlushOutcome::pulled`] count the pulled requests.
//!
//! ## Failure semantics
//!
//! One shard's [`EngineError`](crate::engine::EngineError) fails **only the
//! tickets routed through it**: a request whose frontier never touches the
//! failed shard's columns resolves normally. An injected outage (the
//! `shard.flush.<s>` failpoint) is handled by the router for every
//! transport: the downed shard's batch is never handed over, and its
//! tickets fail with `KernelFailed("shard <s>: …")`. A shard exchange that
//! panics (a shard engine's flush unwinding past its own isolation) fails
//! its shard's tickets the same way, carrying the panic's message, and the
//! router's flush still returns. A sub-request that exceeds its deadline
//! inside a shard surfaces as `DeadlineExceeded` on the routed ticket. A
//! request cancelled or expired before the flush — its ticket cancelled,
//! its [`ShardSession`] closed or dropped, its deadline passed — never
//! leaves the router. Dropping the router fails every still-queued ticket
//! with `Disconnected`: the router's queue, sessions and tickets are the
//! same front an engine has.
//!
//! ## Transports
//!
//! A sub-request goes out as a [`transport::WireRequest`] (frontier slice,
//! or for a pulled request the whole frontier, plus mask and deadline
//! sidecars and the pulled flag) and comes back as one
//! `Result<SparseVec, EngineError>` in its batch position — the partial (a
//! pulled request's owned rows), or the error, with no `Arc`s, borrows,
//! handles, or `Instant`s in its payload. The router owns the whole sub-request lifecycle: the queues,
//! the per-shard threads, the injected outages and the cancels, and it
//! places each result by the routed index it recorded while building the
//! batch. The per-shard hop itself is a [`ShardTransport`] that serves one
//! shard's batch per [`exchange`](ShardTransport::exchange):
//! [`transport::InProcess`] runs the batch on its shard engine in this
//! address space (the [`ShardedEngine::partition`] path), and
//! [`crate::net::TcpTransport`] encodes it as frames over sockets to
//! [`crate::net::ShardHost`] daemons, which run each connection's batch as
//! one engine call and answer in the order the frontiers arrived
//! ([`ShardedEngine::connect`](crate::net)), optionally N replicas deep
//! per shard ([`ShardedEngine::connect_replicated`](crate::net)) with
//! mid-flush failover, per-replica circuit breakers, and byzantine-frame
//! quarantine. The router logic — scatter, fan-out bookkeeping, merge,
//! failure isolation — is written against the positional answer, so
//! results are bit-identical across transports (and across failovers:
//! every replica of a shard serves the same column slice, verified at dial
//! time against the plan's structural fingerprint).
//!
//! ## Observability
//!
//! The router owns its own [`Registry`](crate::obs::Registry) with the
//! `shard.*` metric family (see the [`crate::obs`] taxonomy): routing
//! fan-out, pulled requests, per-shard queue depth gauges (sub-requests
//! queued at the router), and the merge-time histogram.
//! [`ShardedEngine::stats`] returns the **sum** of the per-shard
//! [`EngineStats`](crate::stats::EngineStats) (via
//! [`EngineStats::absorb`](crate::stats::EngineStats::absorb)), so existing
//! engine dashboards read a sharded deployment unchanged.

mod merge;
mod plan;
mod router;
pub mod transport;

pub use merge::merge_partials;
pub use plan::ShardPlan;
pub use router::{ShardFlushOutcome, ShardRun, ShardSession, ShardedEngine};
pub use transport::ShardTransport;
