//! Multi-source breadth-first search, expressed as `k` clients of the
//! serving [`Engine`].
//!
//! `k` BFS traversals (one per source) advance in lock step: each source is
//! one engine [`Session`] that submits its current frontier — with its own
//! `¬visited` mask — as an [`MxvRequest`] every level, and **one**
//! [`Engine::flush`] per level coalesces every still-active source into a
//! single batched SpMSpV, whose lanes the kernel spreads over the thread
//! pool. This is the workload batched SpMSpV exists for — betweenness
//! centrality,
//! all-pairs-ish reachability probes and landmark selection all run many
//! BFSs from different sources over one graph.
//!
//! Each request's mask becomes its lane's in-kernel
//! [`MaskMode::Complement`] mask, so the lane's kernel never forms a product
//! for an already-visited vertex and each lane's output is exactly its next
//! frontier.
//!
//! Sources finish at different levels; a source whose frontier empties
//! simply closes its session and stops submitting, so later levels' fused
//! batches only carry the still-active sources.
//! [`MultiBfsResult::active_lanes_per_level`] records that shrinkage.
//!
//! The lock-step driver is generic over the serving front door: the same
//! traversal runs against a single [`Engine`] ([`multi_bfs`]) or a
//! column-partitioned [`ShardedEngine`] fleet ([`multi_bfs_sharded`]) —
//! BFS's `(min, select2nd)` semiring is exactly associative, so the
//! sharded scatter/merge is bit-identical to the unsharded run.

use std::sync::Arc;
use std::time::Duration;

use sparse_substrate::{CscMatrix, MaskBits, Select2ndMin, SparseVec};
use spmspv::engine::{Engine, EngineConfig, MxvRequest, Session, Ticket};
use spmspv::obs::TraceKind;
use spmspv::shard::{ShardPlan, ShardSession, ShardedEngine};
use spmspv::stats::EngineStats;
use spmspv::{BatchAlgorithmKind, MaskMode, SpMSpVOptions};

/// Result of a multi-source BFS: one parent/level map per source, plus the
/// batched-execution telemetry.
#[derive(Debug, Clone)]
pub struct MultiBfsResult {
    /// The sources, in the order the per-source results are stored.
    pub sources: Vec<usize>,
    /// `parents[s][v]`: BFS parent of `v` in the tree rooted at
    /// `sources[s]` (`parents[s][sources[s]] == sources[s]`), or `None`.
    pub parents: Vec<Vec<Option<usize>>>,
    /// `levels[s][v]`: hop distance of `v` from `sources[s]`, or `None`.
    pub levels: Vec<Vec<Option<usize>>>,
    /// Vertices reached per source, including the source itself.
    pub num_visited: Vec<usize>,
    /// Number of levels executed (= batched SpMSpV calls).
    pub iterations: usize,
    /// Wall-clock time spent inside the batched SpMSpV across all levels.
    pub spmspv_time: Duration,
    /// Number of still-active lanes fed to each level's batched SpMSpV —
    /// demonstrates lane retirement.
    pub active_lanes_per_level: Vec<usize>,
    /// The serving engine's coalescing telemetry for this traversal: every
    /// level's `active` requests collapsed into one fused batch. For a
    /// sharded run this is the **sum** over the shard engines.
    pub engine_stats: EngineStats,
}

/// What the lock-step BFS driver needs from a serving front door. Both
/// [`Engine`] and [`ShardedEngine`] qualify: per-client sessions submitting
/// masked [`MxvRequest`]s, one flush per level, and engine-shaped stats.
trait BfsFrontDoor {
    /// The per-source client handle.
    type Client<'e>
    where
        Self: 'e;

    fn open(&self) -> Self::Client<'_>;
    fn submit_via(&self, client: &Self::Client<'_>, request: MxvRequest<usize>) -> Ticket<usize>;
    fn close_client(&self, client: Self::Client<'_>);
    /// Flushes one level; returns the wall time spent executing kernels and
    /// records the level trace event.
    fn flush_level(&self, level: usize, active_lanes: usize) -> Duration;
    fn final_stats(&self) -> EngineStats;
}

impl<'m> BfsFrontDoor for Engine<'m, f64, usize, Select2ndMin> {
    type Client<'e>
        = Session<'e, 'm, f64, usize, Select2ndMin>
    where
        Self: 'e;

    fn open(&self) -> Self::Client<'_> {
        self.session()
    }

    fn submit_via(&self, client: &Self::Client<'_>, request: MxvRequest<usize>) -> Ticket<usize> {
        client.submit(request)
    }

    fn close_client(&self, client: Self::Client<'_>) {
        client.close();
    }

    fn flush_level(&self, level: usize, active_lanes: usize) -> Duration {
        let outcome = self.flush();
        debug_assert_eq!(outcome.lanes, active_lanes);
        // Per-level trace into the engine's ring: the traversal's shrinking
        // batch width is the story the flush events alone don't tell.
        self.obs().trace(TraceKind::Level { level, active_lanes });
        outcome.timings.execute
    }

    fn final_stats(&self) -> EngineStats {
        self.stats()
    }
}

impl BfsFrontDoor for ShardedEngine<f64, usize, Select2ndMin> {
    type Client<'e>
        = ShardSession<'e, f64, usize, Select2ndMin>
    where
        Self: 'e;

    fn open(&self) -> Self::Client<'_> {
        self.session()
    }

    fn submit_via(&self, client: &Self::Client<'_>, request: MxvRequest<usize>) -> Ticket<usize> {
        client.submit(request)
    }

    fn close_client(&self, client: Self::Client<'_>) {
        client.close();
    }

    fn flush_level(&self, level: usize, active_lanes: usize) -> Duration {
        let outcome = self.flush();
        // One lane per (active source, owning shard) pair — ≥ active_lanes
        // whenever a frontier straddles a shard boundary.
        debug_assert!(outcome.lanes >= active_lanes || outcome.requests == 0);
        self.obs().trace(TraceKind::Level { level, active_lanes });
        outcome.execute_time
    }

    fn final_stats(&self) -> EngineStats {
        self.stats()
    }
}

/// Runs BFS from every vertex in `sources` simultaneously through the
/// adaptive batched kernel: at every level, each source's frontier picks the
/// single-vector kernel family that wins for its own density.
///
/// Equivalent to calling [`crate::bfs()`] once per source (the property tests
/// assert exactly that), but running each level's still-active sources as
/// one batch over the thread pool.
pub fn multi_bfs(a: &CscMatrix<f64>, sources: &[usize], options: SpMSpVOptions) -> MultiBfsResult {
    multi_bfs_using(a, sources, BatchAlgorithmKind::Adaptive, options)
}

/// [`multi_bfs`] with an explicit batched family — the lanes' single-vector
/// kernel ([`BatchAlgorithmKind::lanes`]) — so callers can pin the bucket
/// kernel the way single-vector workloads pick an [`spmspv::AlgorithmKind`].
pub fn multi_bfs_using(
    a: &CscMatrix<f64>,
    sources: &[usize],
    batch_kind: BatchAlgorithmKind,
    options: SpMSpVOptions,
) -> MultiBfsResult {
    check_bfs_inputs(a, sources);
    // One serving engine per traversal; every source is one client session.
    // `max_lanes(0)` lifts the width budget so each level stays exactly one
    // fused multiplication, preserving the pre-engine execution shape.
    let engine: Engine<'_, f64, usize, Select2ndMin> = Engine::over_with(
        a,
        Select2ndMin,
        EngineConfig::default().batch_algorithm(batch_kind).options(options).max_lanes(0),
    );
    drive_lockstep(&engine, a.ncols(), sources)
}

/// [`multi_bfs`] over a [`ShardedEngine`]: the matrix is 1D
/// column-partitioned into `shards` nnz-balanced ranges and every level's
/// frontiers are scatter/merged through the shard router. Results are
/// **identical** to [`multi_bfs`] — BFS's `(min, select2nd)` reduction is
/// exactly associative, so the per-shard fold order cannot show.
pub fn multi_bfs_sharded(
    a: &CscMatrix<f64>,
    sources: &[usize],
    shards: usize,
    options: SpMSpVOptions,
) -> MultiBfsResult {
    check_bfs_inputs(a, sources);
    let engine = ShardedEngine::partition_with(
        a,
        Select2ndMin,
        ShardPlan::balanced(a, shards),
        EngineConfig::default().options(options).max_lanes(0),
    );
    drive_lockstep(&engine, a.ncols(), sources)
}

/// [`multi_bfs`] through an **existing** router front door, whatever its
/// transport: the caller builds (and owns the lifecycle of) the
/// [`ShardedEngine`] — e.g. one connected to remote
/// [`ShardHost`](spmspv::net::ShardHost) daemons via
/// [`ShardedEngine::connect`] — and this drives the same lock-step
/// traversal over it. With an in-process router this is exactly
/// [`multi_bfs_sharded`]; with a socket transport every level's frontiers
/// travel the wire and the results are still bit-identical (the remote
/// shard property suite holds the transport to that).
pub fn multi_bfs_routed(
    engine: &ShardedEngine<f64, usize, Select2ndMin>,
    sources: &[usize],
) -> MultiBfsResult {
    let n = engine.ncols();
    assert_eq!(engine.nrows(), n, "BFS expects a square adjacency matrix");
    for &s in sources {
        assert!(s < n, "source vertex {s} out of range for {n} vertices");
    }
    drive_lockstep(engine, n, sources)
}

fn check_bfs_inputs(a: &CscMatrix<f64>, sources: &[usize]) {
    assert_eq!(a.nrows(), a.ncols(), "BFS expects a square adjacency matrix");
    for &s in sources {
        assert!(s < a.ncols(), "source vertex {s} out of range for {} vertices", a.ncols());
    }
}

/// The lock-step traversal over any [`BfsFrontDoor`].
fn drive_lockstep<E: BfsFrontDoor>(engine: &E, n: usize, sources: &[usize]) -> MultiBfsResult {
    let k = sources.len();
    let mut parents: Vec<Vec<Option<usize>>> = vec![vec![None; n]; k];
    let mut levels: Vec<Vec<Option<usize>>> = vec![vec![None; n]; k];
    let mut num_visited = vec![0usize; k];

    // active[lane] = source index this batch lane serves; a finished source
    // closes its session and stops submitting, so the fused batch width
    // tracks the number of unfinished sources.
    let mut active: Vec<usize> = Vec::with_capacity(k);
    let mut sessions: Vec<Option<E::Client<'_>>> = Vec::with_capacity(k);
    // One Arc-shared visited set per source: each level's request carries a
    // refcount bump instead of an O(n)-bit copy, and between flushes the
    // engine has dropped its reference, so `Arc::make_mut` updates below
    // stay zero-copy.
    let mut visited: Vec<Arc<MaskBits>> = (0..k).map(|_| Arc::new(MaskBits::new(n))).collect();
    let mut frontiers: Vec<SparseVec<usize>> = Vec::with_capacity(k);
    for (s, &src) in sources.iter().enumerate() {
        parents[s][src] = Some(src);
        levels[s][src] = Some(0);
        num_visited[s] = 1;
        active.push(s);
        sessions.push(Some(engine.open()));
        Arc::make_mut(&mut visited[s]).insert(src);
        frontiers.push(SparseVec::from_pairs(n, vec![(src, src)]).expect("source index in range"));
    }

    let mut iterations = 0usize;
    let mut spmspv_time = Duration::ZERO;
    let mut active_lanes_per_level = Vec::new();
    let mut level = 0usize;

    while !active.is_empty() {
        active_lanes_per_level.push(active.len());
        // Every still-active source submits its frontier with its own
        // ¬visited mask; one flush fuses them all. Each frontier moves into
        // its request: the next level's is built from the kernel output.
        let tickets: Vec<_> = active
            .iter()
            .zip(frontiers.drain(..))
            .map(|(&s, frontier)| {
                let request =
                    MxvRequest::new(frontier).mask(Arc::clone(&visited[s]), MaskMode::Complement);
                let session = sessions[s].as_ref().expect("active source keeps its session");
                engine.submit_via(session, request)
            })
            .collect();
        spmspv_time += engine.flush_level(level, active.len());
        iterations += 1;
        level += 1;

        let mut next_active = Vec::with_capacity(active.len());
        let mut next_frontiers = Vec::with_capacity(active.len());
        for (&s, ticket) in active.iter().zip(tickets) {
            let reached = ticket
                .try_take()
                .expect("flush served every live request")
                .expect("BFS requests cannot fail on a healthy fleet");
            // The lane's ¬visited mask already dropped known vertices in the
            // kernel; everything that comes back is a fresh discovery.
            // The engine released its mask references when the flush
            // returned, so this make_mut never copies the bitmap.
            let visited_s = Arc::make_mut(&mut visited[s]);
            for (v, &parent) in reached.iter() {
                debug_assert!(
                    parents[s][v].is_none(),
                    "in-kernel lane mask admits only unvisited vertices"
                );
                parents[s][v] = Some(parent);
                levels[s][v] = Some(level);
                visited_s.insert(v);
            }
            num_visited[s] += reached.nnz();
            // The next frontier is the discovered set, each vertex carrying
            // its own id: the reply's own value buffer is overwritten with
            // its indices, so no buffer is allocated or copied twice.
            let (_, discovered, mut ids) = reached.into_parts();
            ids.copy_from_slice(&discovered);
            let next = SparseVec::from_parts(n, discovered, ids)
                .expect("kernel output indices are strictly ascending");
            if !next.is_empty() {
                next_active.push(s);
                next_frontiers.push(next);
            } else if let Some(session) = sessions[s].take() {
                engine.close_client(session);
            }
        }
        active = next_active;
        frontiers = next_frontiers;
    }

    MultiBfsResult {
        sources: sources.to_vec(),
        parents,
        levels,
        num_visited,
        iterations,
        spmspv_time,
        active_lanes_per_level,
        engine_stats: engine.final_stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs;
    use sparse_substrate::gen::{grid2d, rmat, RmatParams};
    use sparse_substrate::CooMatrix;
    use spmspv::AlgorithmKind;

    #[test]
    fn agrees_with_independent_single_source_bfs() {
        let a = rmat(8, 8, RmatParams::graph500(), 5);
        let sources = [0usize, 3, 17, 99];
        let multi = multi_bfs(&a, &sources, SpMSpVOptions::with_threads(4));
        for (s, &src) in sources.iter().enumerate() {
            let single = bfs(&a, src, AlgorithmKind::Bucket, SpMSpVOptions::with_threads(2));
            assert_eq!(multi.levels[s], single.levels, "levels differ for source {src}");
            assert_eq!(
                multi.num_visited[s], single.num_visited,
                "visited count differs for source {src}"
            );
        }
        // Serving telemetry: each level's requests fused into one batch.
        assert_eq!(multi.engine_stats.fused_batches, multi.iterations);
        assert_eq!(
            multi.engine_stats.requests,
            multi.active_lanes_per_level.iter().sum::<usize>(),
            "one request per active source per level"
        );
        assert_eq!(multi.engine_stats.widest_flush, sources.len());
    }

    #[test]
    fn batch_families_agree() {
        let a = rmat(7, 7, RmatParams::graph500(), 19);
        let sources = [0usize, 5, 63];
        let fused = multi_bfs_using(
            &a,
            &sources,
            BatchAlgorithmKind::Bucket,
            SpMSpVOptions::with_threads(3),
        );
        let adaptive = multi_bfs(&a, &sources, SpMSpVOptions::with_threads(2));
        assert_eq!(fused.active_lanes_per_level, adaptive.active_lanes_per_level);
        // Each source against its own single-vector traversal.
        for (s, &src) in sources.iter().enumerate() {
            let single = bfs(&a, src, AlgorithmKind::Bucket, SpMSpVOptions::with_threads(2));
            for multi in [&fused, &adaptive] {
                assert_eq!(multi.parents[s], single.parents, "parents differ for source {src}");
                assert_eq!(multi.levels[s], single.levels, "levels differ for source {src}");
            }
        }
    }

    #[test]
    fn sharded_traversal_is_identical_across_shard_counts() {
        let a = rmat(8, 8, RmatParams::graph500(), 11);
        let sources = [0usize, 3, 17, 99];
        let base = multi_bfs(&a, &sources, SpMSpVOptions::with_threads(3));
        for shards in [1usize, 2, 3, 7] {
            let sharded = multi_bfs_sharded(&a, &sources, shards, SpMSpVOptions::with_threads(2));
            assert_eq!(base.parents, sharded.parents, "{shards} shards: parents differ");
            assert_eq!(base.levels, sharded.levels, "{shards} shards: levels differ");
            assert_eq!(base.num_visited, sharded.num_visited);
            assert_eq!(base.iterations, sharded.iterations);
            assert_eq!(base.active_lanes_per_level, sharded.active_lanes_per_level);
            // Per-shard engines saw at least one lane per level overall, and
            // the summed stats stay engine-shaped.
            assert!(sharded.engine_stats.lanes_executed >= base.engine_stats.lanes_executed);
        }
    }

    #[test]
    fn parents_form_valid_trees_per_source() {
        let a = grid2d(9, 14);
        let sources = [0usize, 60, 125];
        let r = multi_bfs(&a, &sources, SpMSpVOptions::with_threads(3));
        for (s, &src) in sources.iter().enumerate() {
            for v in 0..a.ncols() {
                match (r.parents[s][v], r.levels[s][v]) {
                    (Some(p), Some(l)) => {
                        if v == src {
                            assert_eq!(p, src);
                            assert_eq!(l, 0);
                        } else {
                            assert!(a.get(v, p).is_some() || a.get(p, v).is_some());
                            assert_eq!(r.levels[s][p], Some(l - 1));
                        }
                    }
                    (None, None) => {}
                    other => panic!("inconsistent parent/level for {v}: {other:?}"),
                }
            }
            assert_eq!(r.num_visited[s], a.ncols(), "grid is connected");
        }
    }

    #[test]
    fn lanes_retire_as_sources_finish() {
        // A path graph: BFS from one end takes n-1 levels, from the middle
        // n/2, so lanes must retire at different times.
        let n = 24;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n - 1 {
            coo.push(i, i + 1, 1.0);
            coo.push(i + 1, i, 1.0);
        }
        let a = CscMatrix::from_coo(coo, |v, _| v);
        let r = multi_bfs(&a, &[0, n / 2], SpMSpVOptions::with_threads(2));
        assert_eq!(r.active_lanes_per_level.first(), Some(&2));
        assert_eq!(r.active_lanes_per_level.last(), Some(&1));
        // from the end: n-1 productive levels + the final empty expansion
        assert_eq!(r.iterations, n);
        assert_eq!(r.num_visited, vec![n, n]);
    }

    #[test]
    fn duplicate_sources_produce_identical_lanes() {
        let a = grid2d(6, 6);
        let r = multi_bfs(&a, &[7, 7], SpMSpVOptions::with_threads(2));
        assert_eq!(r.levels[0], r.levels[1]);
        assert_eq!(r.parents[0], r.parents[1]);
    }

    #[test]
    fn no_sources_is_a_noop() {
        let a = grid2d(4, 4);
        let r = multi_bfs(&a, &[], SpMSpVOptions::default());
        assert_eq!(r.iterations, 0);
        assert!(r.parents.is_empty());
        assert!(r.active_lanes_per_level.is_empty());

        let sharded = multi_bfs_sharded(&a, &[], 3, SpMSpVOptions::default());
        assert_eq!(sharded.iterations, 0);
    }
}
