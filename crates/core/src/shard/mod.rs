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
//!    and submit one sub-request per *owning* shard (shards whose slice is
//!    empty are skipped entirely; the `shard.fanout` histogram records how
//!    many shards each request actually touched). Output masks cover rows,
//!    which every shard shares, so the same `Arc`'d mask bitmap travels to
//!    each sub-request untouched, and deadlines propagate verbatim.
//! 2. **Execute** — flush every involved shard engine in parallel
//!    ([`ShardedEngine::flush`] runs one scoped thread per shard). Each
//!    shard engine coalesces, panic-isolates, and degrades exactly as a
//!    standalone engine would: the fault-tolerance semantics of the engine
//!    layer compose per shard.
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
//! failed shard's columns resolves normally. A sub-request that exceeds its
//! deadline inside a shard surfaces as `DeadlineExceeded` on the routed
//! ticket. Dropping the router fails every still-queued ticket with
//! `Disconnected`, exactly like dropping an engine.
//!
//! ## Transports
//!
//! A sub-request goes out as a [`transport::WireRequest`] (frontier slice
//! plus mask and deadline sidecars) and comes back as a [`ShardMsg`] — a
//! plain-data enum (partial result / error) with no `Arc`s, borrows,
//! handles, or `Instant`s in its payload. The per-shard hop itself is
//! pluggable: the router drives a [`ShardTransport`], with
//! [`transport::InProcess`] submitting each slice straight into its shard
//! engine in this address space (the [`ShardedEngine::partition`] path)
//! and [`crate::net::TcpTransport`] encoding requests and replies as
//! frames over sockets to [`crate::net::ShardHost`] daemons
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
//! fan-out, per-shard queue depth gauges, and the merge-time histogram.
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
pub use messages::ShardMsg;
pub use plan::ShardPlan;
pub use router::{ShardFlushOutcome, ShardSession, ShardedEngine};
pub use transport::ShardTransport;
