//! The scatter/merge router: [`ShardedEngine`], the front over the
//! [`ShardRun`].

use std::marker::PhantomData;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sparse_substrate::{CscMatrix, MaskBits, Scalar, Semiring};

use crate::adaptive::{unvisited_edges, PULL_ALPHA};
use crate::engine::{
    kernel_failure, Engine, EngineConfig, EngineError, FlushOutcome, MxvRequest, OverloadPolicy,
};
use crate::failpoint;
use crate::front::{Drained, Front, FrontSession, Queued, Results, Run};
use crate::masked::MaskView;
use crate::obs::{Counter, Histogram, Registry};
use crate::stats::EngineStats;

use super::merge::concatenate_rows;
use super::transport::{InProcess, ShardTransport, WireRequest};
use super::{merge_partials, ShardPlan};

/// One routed request as the router queues it: the shards it fanned out
/// to in ascending shard order (the merge order) and one sub-request per
/// such shard, parallel to `fanout`. A pushed request fans out to the
/// shards owning its frontier's columns, a pulled one to those owning its
/// mask's kept rows.
pub struct Routed<X> {
    fanout: Vec<usize>,
    subs: Vec<WireRequest<X>>,
    pulled: bool,
}

/// The `shard.*` metrics the scatter run records (the front registers its
/// own beside them).
pub(crate) struct ShardMetrics {
    registry: Registry,
    /// `shard.pulls` — requests routed as pulls: each shard answered the
    /// rows it owns.
    pulls: Arc<Counter>,
    /// `shard.flushes` — router flushes that resolved at least one request.
    flushes: Arc<Counter>,
    /// `shard.failed` — tickets failed by a shard-side error.
    failed: Arc<Counter>,
    /// `shard.fanout` — owning shards per routed request.
    fanout: Arc<Histogram>,
    /// `shard.merge.time` — per-flush merge latency (⊕-folds and
    /// concatenations).
    merge_time: Arc<Histogram>,
}

impl ShardMetrics {
    fn new(registry: Registry) -> Self {
        ShardMetrics {
            pulls: registry.counter("shard.pulls"),
            flushes: registry.counter("shard.flushes"),
            failed: registry.counter("shard.failed"),
            fanout: registry.histogram("shard.fanout"),
            merge_time: registry.histogram("shard.merge.time"),
            registry,
        }
    }
}

/// What one [`ShardedEngine::flush`] did. The per-shard engine outcomes are
/// kept whole (indexed by shard; all-zero for shards with nothing queued)
/// so callers can attribute lanes, timeouts, and degradations to the shard
/// that produced them.
#[derive(Debug, Clone, Default)]
pub struct ShardFlushOutcome {
    /// Routed requests resolved by this flush (merged + failed + retired).
    pub requests: usize,
    /// Requests whose partials merged into a delivered result.
    pub merged: usize,
    /// Requests the router pulled: each went, with the whole frontier, to
    /// the shards owning its mask's kept rows, and their answers were
    /// concatenated (counted among the requests that left the router).
    pub pulled: usize,
    /// Requests failed by a shard error (single-shard outage, sub-request
    /// failure, overload inside a shard).
    pub failed: usize,
    /// Requests already cancelled when the flush reached them.
    pub retired: usize,
    /// Requests that missed their deadline (counted within `failed`'s
    /// complement — a timeout is its own bucket, not a shard failure).
    pub timeouts: usize,
    /// Shards whose engines actually flushed.
    pub shards_flushed: usize,
    /// Total lanes executed across all shard engines.
    pub lanes: usize,
    /// Wall time of the parallel shard-flush phase.
    pub execute_time: Duration,
    /// Wall time spent merging answers into final outputs (⊕-folding
    /// partials, or concatenating a pulled request's rows).
    pub merge_time: Duration,
    /// Each shard engine's own [`FlushOutcome`], indexed by shard. For a
    /// remote transport these carry the summary the host ships back
    /// (lanes, requests, execute time).
    pub per_shard: Vec<FlushOutcome>,
    /// The error message of every request failed by a shard error this
    /// flush, in resolution order. Failures originating from a remote
    /// shard carry their `shard <s>:` prefix, so multi-process outages
    /// stay attributable in logs.
    pub failures: Vec<String>,
}

/// A fleet of column-range shard engines behind one engine-shaped front
/// door: the [`Front`] over a [`ShardRun`]. See the [module docs](super)
/// for the partitioning and merge contract.
///
/// The router is flush-driven, like [`Engine`] in its synchronous style:
/// submit, then flush to scatter-execute-merge everything queued. Its
/// queue is unbounded.
///
/// *Where* the shard engines live is the transport's business:
/// [`ShardedEngine::partition`] keeps them in-process, while
/// [`ShardedEngine::connect`](crate::net) reaches
/// [`ShardHost`](crate::net::ShardHost) daemons over TCP — the routing,
/// merge, and failure semantics are identical.
pub type ShardedEngine<A, X, S> = Front<ShardRun<A, X, S>>;

/// A logical client of a [`ShardedEngine`]: the front's session.
pub type ShardSession<'e, A, X, S> = FrontSession<'e, ShardRun<A, X, S>>;

/// The scatter run behind a [`ShardedEngine`]: it scatters each request at
/// admission, then exchanges with the shards and merges at the flush.
pub struct ShardRun<A: Scalar, X: Scalar, S: Semiring<A, X> + Clone + 'static> {
    plan: ShardPlan,
    nrows: usize,
    semiring: S,
    transport: Box<dyn ShardTransport<X, S::Output>>,
    metrics: ShardMetrics,
    marker: PhantomData<fn() -> A>,
}

impl<A, X, S> ShardedEngine<A, X, S>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X> + Clone + 'static,
{
    /// Partitions `matrix` into `shards` nnz-balanced column ranges (via
    /// [`ShardPlan::balanced`]) and starts one default-configured engine
    /// per shard. The plan may hold fewer shards than asked for when the
    /// matrix cannot support more (see [`ShardPlan::balanced`]).
    pub fn partition(matrix: &CscMatrix<A>, semiring: S, shards: usize) -> Self {
        let plan = ShardPlan::balanced(matrix, shards);
        Self::partition_with(matrix, semiring, plan, EngineConfig::default())
    }

    /// [`ShardedEngine::partition`] with an explicit plan and per-shard
    /// engine configuration. Each shard engine **owns** its sub-matrix
    /// (`matrix` is only borrowed to slice it), so the router has no
    /// lifetime tie to the caller's matrix. When `matrix` is square and
    /// structurally symmetric, the router may pull (see the
    /// [module docs](super)).
    ///
    /// A shard engine serves each batch past its own queue, so of `config`
    /// it reads [`EngineConfig::options`],
    /// [`EngineConfig::batch_algorithm`], [`EngineConfig::max_lanes`] and
    /// [`EngineConfig::obs`] (which also configures the router's own
    /// registry); [`EngineConfig::queue_capacity`],
    /// [`EngineConfig::overload`] and [`EngineConfig::linger`] have no
    /// effect. The router's own queue is unbounded.
    pub fn partition_with(
        matrix: &CscMatrix<A>,
        semiring: S,
        plan: ShardPlan,
        config: EngineConfig,
    ) -> Self {
        assert_eq!(
            plan.ncols(),
            matrix.ncols(),
            "shard plan covers {} columns but the matrix has {}",
            plan.ncols(),
            matrix.ncols()
        );
        let engines: Vec<Engine<'static, A, X, S>> = matrix
            .column_split(plan.bounds())
            .into_iter()
            .map(|sub| Engine::load_with(sub, semiring.clone(), config.clone()))
            .collect();
        let registry = Registry::new(config.obs.clone());
        Self::from_transport(
            plan.with_symmetry_of(matrix),
            matrix.nrows(),
            semiring,
            registry,
            Box::new(InProcess::new(engines)),
        )
    }

    /// Assembles a router over an already-built transport. The shared
    /// entry point of [`ShardedEngine::partition_with`] (in-process) and
    /// [`ShardedEngine::connect`](crate::net) (sockets).
    pub(crate) fn from_transport(
        plan: ShardPlan,
        nrows: usize,
        semiring: S,
        registry: Registry,
        transport: Box<dyn ShardTransport<X, S::Output>>,
    ) -> Self {
        let run = ShardRun {
            plan,
            nrows,
            semiring,
            transport,
            metrics: ShardMetrics::new(registry),
            marker: PhantomData,
        };
        Front::new(run, 0, OverloadPolicy::Block)
    }

    /// The column partition this router scatters by.
    pub fn plan(&self) -> &ShardPlan {
        &self.run.plan
    }

    /// Number of shard engines behind the router.
    pub fn num_shards(&self) -> usize {
        self.run.transport.num_shards()
    }

    /// Output dimension (rows of the original matrix). Every shard keeps
    /// full output height: a pushed request's partials span it, and a
    /// pulled request's answers are the shards' own ranges of it.
    pub fn nrows(&self) -> usize {
        self.run.nrows
    }

    /// Input dimension (columns of the original matrix).
    pub fn ncols(&self) -> usize {
        self.run.plan.ncols()
    }

    /// Shard `s`'s engine registry (the `engine.*` family for that shard).
    ///
    /// # Panics
    ///
    /// When the shard lives in another process — its registry is local to
    /// the [`ShardHost`](crate::net::ShardHost) that owns it.
    pub fn shard_obs(&self, s: usize) -> &Registry {
        self.run
            .transport
            .shard_obs(s)
            .expect("shard observability is local to the shard host process")
    }

    /// Shard `s`'s own engine stats (one addend of
    /// [`ShardedEngine::stats`]).
    ///
    /// # Panics
    ///
    /// When the shard lives in another process (see
    /// [`ShardedEngine::shard_obs`]).
    pub fn shard_stats(&self, s: usize) -> EngineStats {
        self.run.transport.shard_stats(s).expect("shard stats are local to the shard host process")
    }

    /// The sum of every *local* shard engine's [`EngineStats`] — existing
    /// engine dashboards read a sharded deployment through the same shape.
    /// For a remote transport this is empty (each host owns its stats);
    /// the router's own telemetry lives in its `obs` registry.
    pub fn stats(&self) -> EngineStats {
        let mut total = EngineStats::default();
        for s in 0..self.num_shards() {
            if let Some(stats) = self.run.transport.shard_stats(s) {
                total.absorb(&stats);
            }
        }
        total
    }
}

impl<A, X, S> ShardRun<A, X, S>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X> + Clone + 'static,
{
    /// Whether the router pulls `request`: the plan keeps the degrees of a
    /// square, structurally symmetric matrix, the mask keeps a row, and
    /// Adaptive's pull rule ([`crate::adaptive`]) holds on the whole
    /// request, its gates cheapest first — `α · flops ≥ n`, then the
    /// semiring's first hit decides, then `m_u < α · flops`.
    fn pulls(&self, request: &MxvRequest<X>) -> bool {
        let (Some(colptr), Some((bits, mode))) = (self.plan.symmetric_colptr(), &request.mask)
        else {
            return false;
        };
        let mask = MaskView::new(bits, *mode);
        let x = &request.frontier;
        let flops: usize = x.indices().iter().map(|&j| colptr[j + 1] - colptr[j]).sum();
        let budget = PULL_ALPHA.saturating_mul(flops);
        mask.kept() > 0
            && budget >= self.nrows
            && self.semiring.first_hit_decides(x.values())
            && unvisited_edges(colptr, mask) < budget
    }

    /// A pushed request's sub-requests: the frontier's slice of each shard
    /// owning one of its columns, with the whole mask.
    fn scatter(&self, id: u64, request: MxvRequest<X>) -> (Vec<usize>, Vec<WireRequest<X>>) {
        let mut fanout = Vec::new();
        let mut subs = Vec::new();
        for s in 0..self.transport.num_shards() {
            let slice = request.frontier.slice_remap(self.plan.range(s));
            if slice.nnz() == 0 {
                continue;
            }
            fanout.push(s);
            subs.push(WireRequest {
                request: id,
                slice,
                deadline: request.deadline,
                mask: request.mask.clone(),
                pulled: false,
            });
        }
        (fanout, subs)
    }

    /// A pulled request's sub-requests: the whole frontier to each shard
    /// whose rows of the mask keep one, with those rows re-based to 0.
    fn scatter_pulled(&self, id: u64, request: MxvRequest<X>) -> (Vec<usize>, Vec<WireRequest<X>>) {
        let (bits, mode) = request.mask.as_ref().expect("a pulled request carries a mask");
        let mode = *mode;
        let owned: Vec<(usize, MaskBits)> = (0..self.transport.num_shards())
            .map(|s| (s, bits.slice(self.plan.range(s))))
            .filter(|(_, rows)| MaskView::new(rows, mode).kept() > 0)
            .collect();
        let fanout = owned.iter().map(|&(s, _)| s).collect();
        // The last owner takes the frontier itself, the others a copy.
        let frontiers = std::iter::repeat_n(request.frontier, owned.len());
        let subs = owned
            .into_iter()
            .zip(frontiers)
            .map(|((_, rows), slice)| WireRequest {
                request: id,
                slice,
                deadline: request.deadline,
                mask: Some((Arc::new(rows), mode)),
                pulled: true,
            })
            .collect();
        (fanout, subs)
    }
}

impl<A, X, S> Run for ShardRun<A, X, S>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X> + Clone + 'static,
{
    type Input = X;
    type Output = S::Output;
    type Entry = Routed<X>;
    type Outcome = ShardFlushOutcome;
    const PREFIX: &'static str = "shard";

    fn registry(&self) -> &Registry {
        &self.metrics.registry
    }

    /// Scattering happens here: the router decides whether to push or pull
    /// the request (see the [module docs](super)). A pushed frontier is
    /// sliced per owning shard
    /// ([`SparseVec::slice_remap`](sparse_substrate::SparseVec::slice_remap));
    /// a pulled one goes whole to each shard owning a kept row of its mask,
    /// with that shard's rows of the mask. Like an engine's, panics with
    /// [`MxvRequest`]'s shape message on a frontier or mask that does not
    /// fit the matrix, over any transport.
    fn admit(&self, id: u64, request: MxvRequest<X>) -> Routed<X> {
        if let Some(msg) = request.shape_error(self.nrows, self.plan.ncols()) {
            panic!("{msg}");
        }
        let pulled = self.pulls(&request);
        let (fanout, subs) =
            if pulled { self.scatter_pulled(id, request) } else { self.scatter(id, request) };
        if pulled {
            self.metrics.pulls.inc();
        }
        self.metrics.fanout.record(fanout.len() as u64);
        Routed { fanout, subs, pulled }
    }

    /// Scatter-execute-merge for the live routed requests: builds each
    /// involved shard's batch, hands the batches to the transport **in
    /// parallel** (one scoped thread per shard), then folds each pushed
    /// request's partials with the semiring's `⊕` in ascending shard
    /// order, or concatenates a pulled request's row ranges in shard order,
    /// and resolves its ticket. A shard failure resolves only the tickets
    /// routed through that shard.
    fn run(
        &self,
        mut live: Vec<Queued<Routed<X>, S::Output>>,
        drained: Drained,
    ) -> ShardFlushOutcome {
        let shards = self.transport.num_shards();
        let mut outcome = ShardFlushOutcome {
            requests: drained.requests,
            retired: drained.retired,
            timeouts: drained.timeouts,
            per_shard: vec![FlushOutcome::default(); shards],
            ..ShardFlushOutcome::default()
        };
        if drained.requests == 0 {
            return outcome;
        }
        // Each shard's batch, and beside it the live index of each entry.
        let mut batches: Vec<Vec<WireRequest<X>>> = (0..shards).map(|_| Vec::new()).collect();
        let mut owners: Vec<Vec<usize>> = (0..shards).map(|_| Vec::new()).collect();
        for (i, r) in live.iter_mut().enumerate() {
            for (&s, sub) in r.entry.fanout.iter().zip(r.entry.subs.drain(..)) {
                batches[s].push(sub);
                owners[s].push(i);
            }
        }

        let transport = &*self.transport;
        let t0 = Instant::now();
        let exchanged: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = batches
                .into_iter()
                .enumerate()
                .filter(|(_, batch)| !batch.is_empty())
                .map(|(s, batch)| {
                    // Single-shard outage injection: a downed shard's batch
                    // is never handed to the transport.
                    let handle = failpoint::act(&format!("shard.flush.{s}"))
                        .map(|()| scope.spawn(move || transport.exchange(s, batch)));
                    (s, handle)
                })
                .collect();
            handles
                .into_iter()
                .map(|(s, handle)| {
                    // A panicking exchange fails only its own shard's entries.
                    let answer = handle.and_then(|h| {
                        h.join().map_err(|payload| match kernel_failure(payload) {
                            EngineError::KernelFailed(msg) => msg,
                            other => other.to_string(),
                        })
                    });
                    (s, answer)
                })
                .collect()
        });
        outcome.execute_time = t0.elapsed();

        // Each request's shard results, in ascending shard order (the merge
        // fold order): shards are visited in ascending order.
        let mut results: Vec<Results<S::Output>> =
            live.iter().map(|r| Vec::with_capacity(r.entry.fanout.len())).collect();
        for (s, answer) in exchanged {
            match answer {
                Ok((replies, done)) => {
                    if let Some(shard_outcome) = done {
                        outcome.per_shard[s] = shard_outcome;
                        outcome.shards_flushed += 1;
                    }
                    debug_assert_eq!(replies.len(), owners[s].len(), "one result per entry");
                    for (&i, reply) in owners[s].iter().zip(replies) {
                        results[i].push(reply);
                    }
                }
                Err(msg) => {
                    let error = EngineError::KernelFailed(format!("shard {s}: {msg}"));
                    for &i in &owners[s] {
                        results[i].push(Err(error.clone()));
                    }
                }
            }
        }
        outcome.lanes = outcome.per_shard.iter().map(|o| o.lanes).sum();

        for (r, shard_results) in live.into_iter().zip(results) {
            outcome.pulled += usize::from(r.entry.pulled);
            // The first error in ascending shard order wins.
            match shard_results.into_iter().collect::<Result<Vec<_>, _>>() {
                Err(EngineError::DeadlineExceeded) => {
                    outcome.timeouts += 1;
                    r.ticket.fail(EngineError::DeadlineExceeded);
                }
                Err(e) => {
                    outcome.failed += 1;
                    self.metrics.failed.inc();
                    outcome.failures.push(e.to_string());
                    r.ticket.fail(e);
                }
                Ok(partials) => {
                    // Deadline re-check at merge time: a result assembled
                    // too late is never delivered as if it were fresh.
                    if r.deadline.is_some_and(|d| Instant::now() >= d) {
                        outcome.timeouts += 1;
                        r.ticket.fail(EngineError::DeadlineExceeded);
                        continue;
                    }
                    let t_merge = Instant::now();
                    let y = if r.entry.pulled {
                        let rows = r.entry.fanout.iter().map(|&s| self.plan.range(s));
                        concatenate_rows(self.nrows, rows.zip(partials))
                    } else {
                        merge_partials(self.nrows, partials, |a, b| self.semiring.add(a, b))
                    };
                    outcome.merge_time += t_merge.elapsed();
                    outcome.merged += 1;
                    r.ticket.fulfil(y);
                }
            }
        }
        self.metrics.flushes.inc();
        self.metrics.merge_time.record_duration(outcome.merge_time);
        outcome
    }

    fn retired(outcome: &ShardFlushOutcome) -> usize {
        outcome.retired
    }
}
