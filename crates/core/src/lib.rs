//! # spmspv
//!
//! A work-efficient parallel sparse matrix–sparse vector multiplication
//! library, reproducing *"A Work-Efficient Parallel Sparse Matrix-Sparse
//! Vector Multiplication Algorithm"* (Azad & Buluç, IPDPS 2017).
//!
//! ## The `Mxv` operation API
//!
//! The front door of the crate is the [`ops::Mxv`] descriptor — **one**
//! GraphBLAS-style operation description that serves single vectors,
//! batches, and masks through the same object:
//!
//! ```
//! use sparse_substrate::{fixtures, PlusTimes, SparseVecBatch};
//! use spmspv::ops::Mxv;
//! use spmspv::{AlgorithmKind, MaskMode, SpMSpVOptions};
//!
//! let a = fixtures::figure1_matrix();
//! let x = fixtures::figure1_vector();
//!
//! let mut op = Mxv::over(&a)
//!     .semiring(&PlusTimes)                   // ⊕.⊗
//!     .algorithm(AlgorithmKind::Bucket)       // pluggable kernel family
//!     .masked(MaskMode::Complement)           // in-kernel output mask
//!     .options(SpMSpVOptions::default())
//!     .prepare();                             // workspaces allocated once
//!
//! let y = op.run(&x);                         // one frontier …
//! let ys = op.run_batch(&SparseVecBatch::from_single(&x)); // … or k at once
//! op.mask_mut().insert(3);                    // grow the visited set
//! # let _ = (y, ys);
//! ```
//!
//! Underneath, the descriptor drives the paper's three-step bucket
//! algorithm:
//!
//! 1. **Bucketing** (Step 1): each thread pushes `(row, A(i,j) ⊗ x(j))`
//!    pairs from its selected matrix columns into its own row-range buckets
//!    — no locks, no atomics, no `unsafe`, and no Algorithm 2 counting pass.
//!    When the descriptor is masked, a masked-out row's product is never
//!    formed: the mask is probed *here*, before it costs anything more.
//! 2. **SPA merge** (Step 2): merge each bucket, read from every thread in
//!    turn, independently with a partially-initialized sparse accumulator.
//! 3. **Output** (Step 3): concatenate the buckets' unique indices into the
//!    result vector with a prefix sum.
//!
//! The same descriptor executes batches of `k` frontiers, one mask shared
//! by every lane. A batch is its lanes: [`LaneBatch`] runs each lane
//! through a single-vector kernel of the descriptor's [`AlgorithmKind`] and
//! spreads the lanes over the thread pool. Per-lane masks — multi-source
//! BFS, where every source keeps its own visited set — reach the lanes
//! through the serving [`engine`], one request's mask per lane.
//!
//! ## Kernel layer
//!
//! The descriptor compiles down to one trait and one runner the benchmark
//! harness and power users can still drive directly:
//!
//! * [`SpMSpV`] — single-vector kernels: the paper's [`SpMSpVBucket`], the
//!   bottom-up [`SpMSpVPull`], and faithful re-implementations of the
//!   baselines the paper compares against ([`baselines::CombBlasSpa`],
//!   [`baselines::CombBlasHeap`], [`baselines::GraphMatSpMSpV`],
//!   [`baselines::SortBased`], [`baselines::SequentialSpa`]), all built
//!   by [`build_algorithm`];
//! * [`LaneBatch`] — the one batched kernel: `build_algorithm(kind)`
//!   applied per lane, so every batched result is bit-identical to `k`
//!   independent single-vector calls by construction.
//!
//! `AlgorithmKind::Adaptive` (the default) dispatches each call — each
//! lane, for a batch; see [`adaptive`] — to pull on dense BFS levels, to
//! the sequential SPA when the frontier's exact flops earn one participant
//! ([`Executor::capped_for`]) and to the bucket kernel otherwise; the
//! `adaptive.single.*` metrics of [`obs`] count what ran.
//!
//! [`SpMSpV::multiply_masked`] checks the mask **inside** each kernel,
//! ahead of the product it would form; a default post-filtering
//! implementation keeps third-party implementations source-compatible.
//!
//! ## Serving many clients: the `engine` layer
//!
//! [`engine::Engine`] puts one [`LaneBatch`] behind a serving front door:
//! many logical clients submit [`engine::MxvRequest`]s through
//! [`engine::Session`] handles, and a coalescer fuses compatible requests
//! into one batched multiplication per flush. The engine has full failure
//! semantics — per-request deadlines, [`engine::OverloadPolicy`] queue
//! policies, panic-isolated flushes with graceful degradation, and tickets
//! that always resolve (to a value or an [`engine::EngineError`], never a
//! hang). See the [`engine`] module docs; the [`failpoint`] module is the
//! deterministic fault-injection harness the chaos tests drive it with.
//!
//! ## Observability: the `obs` layer
//!
//! Everything above is instrumented through [`obs`]: each engine owns a
//! metrics [`Registry`] (atomic counters/gauges plus log-linear latency
//! histograms per flush phase and a structured trace ring), the kernel,
//! adaptive, executor, and failpoint layers record into the process-wide
//! [`obs::global`] registry, and [`stats::EngineStats`] is a *view* over
//! the engine's registry rather than parallel bookkeeping.
//! [`obs::Snapshot`] exports the whole thing as JSON or a human dashboard;
//! [`ObsConfig`] is the off switch. The module docs list every metric name
//! and its unit.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod adaptive;
pub mod algorithm;
pub mod baselines;
pub mod batch;
pub mod bucket;
pub mod disjoint;
pub mod engine;
pub mod executor;
pub mod failpoint;
mod front;
pub mod masked;
pub mod net;
pub mod obs;
pub mod ops;
pub mod pull;
pub mod shard;
pub mod stats;
pub mod timing;

pub use adaptive::AdaptiveSpMSpV;
pub use algorithm::{build_algorithm, AlgorithmKind, MatrixRef, SpMSpV, SpMSpVOptions};
pub use batch::{build_batch_algorithm, BatchAlgorithmKind, LaneBatch, SpMSpVBucketBatch};
pub use bucket::SpMSpVBucket;
pub use engine::{Engine, EngineConfig, EngineError, MxvRequest, OverloadPolicy, Session, Ticket};
pub use executor::Executor;
pub use masked::{BatchMaskView, MaskMode, MaskView};
pub use net::{ShardHost, TcpConfig, TcpTransport};
pub use obs::{ObsConfig, Registry};
pub use ops::{Mxv, MxvOp, PreparedMxv};
pub use pull::SpMSpVPull;
pub use shard::{ShardFlushOutcome, ShardPlan, ShardSession, ShardedEngine};
pub use sparse_substrate::SpaBackend;
pub use stats::{ChoiceCounts, WorkStats};
pub use timing::StepTimings;
