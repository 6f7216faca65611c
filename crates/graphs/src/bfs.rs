//! Breadth-first search via SpMSpV frontier expansion.
//!
//! One BFS level is exactly one SpMSpV: the current frontier is the sparse
//! input vector `x` (carrying, for every frontier vertex, its own id), the
//! graph's adjacency matrix is `A`, and `y ← Aᵀ·x` under the
//! `(min, select2nd)` semiring yields, for every vertex adjacent to the
//! frontier, the smallest id of a frontier vertex that discovered it.
//! Masking out already-visited vertices turns `y` into the next frontier.
//!
//! The search is expressed on the [`Mxv`] descriptor with a
//! [`MaskMode::Complement`] mask over the visited set, so the kernel drops
//! already-visited vertices **inside the multiplication** — the next
//! frontier comes straight out of it, with no separate filtering pass over
//! `y`. The level's SpMSpV runs top-down (push: the frontier's columns
//! scatter to their rows) or, under [`AlgorithmKind::Adaptive`] on a dense
//! level of a symmetric graph, bottom-up (pull: each unvisited vertex scans
//! its neighbours up to the first frontier member; see [`spmspv::pull`]).
//! Both give the same parent: the frontier's values ascend with their ids,
//! so the first member met in ascending order is the `min`.
//!
//! Figures 4 and 5 of the paper time *only* the SpMSpV calls of a BFS run;
//! [`BfsResult::spmspv_time`] reports exactly that quantity.

use std::time::{Duration, Instant};

use sparse_substrate::{CscMatrix, Select2ndMin, SparseVec};
use spmspv::ops::{Mxv, PreparedMxv};
use spmspv::{AlgorithmKind, MaskMode, SpMSpVOptions};

/// Result of a breadth-first search.
#[derive(Debug, Clone)]
pub struct BfsResult {
    /// `parents[v]` is the BFS parent of `v` (`parents[source] == source`),
    /// or `None` when `v` was not reached.
    pub parents: Vec<Option<usize>>,
    /// `levels[v]` is the BFS level (distance in hops from the source).
    pub levels: Vec<Option<usize>>,
    /// Number of vertices reached, including the source.
    pub num_visited: usize,
    /// Number of BFS levels executed (= number of SpMSpV calls).
    pub iterations: usize,
    /// Sum of wall-clock time spent inside SpMSpV across all levels —
    /// the quantity the paper's Figures 4 and 5 report.
    pub spmspv_time: Duration,
    /// `nnz(x)` of the frontier fed to each SpMSpV call.
    pub frontier_sizes: Vec<usize>,
}

/// Runs BFS from `source` using the requested SpMSpV algorithm.
///
/// The adjacency matrix is interpreted column-wise: `a.column(v)` lists the
/// out-neighbours of `v` (for the symmetric matrices produced by the
/// generators the distinction does not matter).
pub fn bfs(
    a: &CscMatrix<f64>,
    source: usize,
    kind: AlgorithmKind,
    options: SpMSpVOptions,
) -> BfsResult {
    let mut op = Mxv::over(a)
        .semiring(&Select2ndMin)
        .algorithm(kind)
        .masked(MaskMode::Complement)
        .options(options)
        .prepare();
    bfs_prepared(&mut op, source)
}

/// Runs BFS from `source` on a caller-prepared [`Mxv`] descriptor — the
/// reuse idiom for running many searches over one graph: the descriptor's
/// workspaces and mask allocation survive across calls.
///
/// The descriptor must carry a shared [`MaskMode::Complement`] mask (build
/// with `.masked(MaskMode::Complement)`); it is cleared on entry and holds
/// the visited set of this search on return.
pub fn bfs_prepared(
    op: &mut PreparedMxv<'_, f64, usize, Select2ndMin>,
    source: usize,
) -> BfsResult {
    let a = op.matrix();
    let n = a.ncols();
    assert!(source < n, "source vertex {source} out of range for {n} vertices");
    assert_eq!(a.nrows(), a.ncols(), "BFS expects a square adjacency matrix");
    assert!(
        op.mask_mode() == Some(MaskMode::Complement),
        "BFS needs a shared ¬visited mask; build the descriptor with .masked(MaskMode::Complement)"
    );

    let mut parents: Vec<Option<usize>> = vec![None; n];
    let mut levels: Vec<Option<usize>> = vec![None; n];
    parents[source] = Some(source);
    levels[source] = Some(0);

    op.mask_clear();
    op.mask_mut().insert(source);
    let mut frontier = SparseVec::from_pairs(n, vec![(source, source)]).expect("valid source");
    let mut num_visited = 1usize;
    let mut iterations = 0usize;
    let mut spmspv_time = Duration::ZERO;
    let mut frontier_sizes = Vec::new();

    let mut level = 0usize;
    while !frontier.is_empty() {
        frontier_sizes.push(frontier.nnz());
        let t = Instant::now();
        let reached = op.run(&frontier);
        spmspv_time += t.elapsed();
        iterations += 1;
        level += 1;

        // The ¬visited mask already dropped known vertices inside the
        // kernel, so everything that comes back is a fresh discovery.
        let visited = op.mask_mut();
        for (v, &parent) in reached.iter() {
            debug_assert!(parents[v].is_none(), "in-kernel mask admits only unvisited vertices");
            parents[v] = Some(parent);
            levels[v] = Some(level);
            visited.insert(v);
        }
        num_visited += reached.nnz();
        // The next frontier is the discovered set, each vertex carrying its
        // own id: one copy of the output's ascending index array.
        let (_, discovered, _) = reached.into_parts();
        frontier = SparseVec::from_parts(n, discovered.clone(), discovered)
            .expect("kernel output indices are strictly ascending");
    }

    BfsResult { parents, levels, num_visited, iterations, spmspv_time, frontier_sizes }
}

/// Runs a plain BFS and returns, for every level, the frontier as a sparse
/// `f64` vector (unit values). Figure 3 of the paper sweeps `nnz(x)` by
/// taking real BFS frontiers of different sizes; this helper produces them.
pub fn bfs_frontiers(a: &CscMatrix<f64>, source: usize) -> Vec<SparseVec<f64>> {
    let n = a.ncols();
    let mut visited = vec![false; n];
    visited[source] = true;
    let mut frontier = vec![source];
    let mut out = Vec::new();
    while !frontier.is_empty() {
        let sv = SparseVec::from_pairs(n, frontier.iter().map(|&v| (v, 1.0)).collect())
            .expect("frontier indices are in range");
        out.push(sv);
        let mut next = Vec::new();
        for &v in &frontier {
            for &u in a.column(v).0 {
                if !visited[u] {
                    visited[u] = true;
                    next.push(u);
                }
            }
        }
        frontier = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_substrate::gen::{grid2d, rmat, RmatParams};
    use sparse_substrate::CooMatrix;
    use spmspv::SpMSpV;

    fn path_graph(n: usize) -> CscMatrix<f64> {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n - 1 {
            coo.push(i, i + 1, 1.0);
            coo.push(i + 1, i, 1.0);
        }
        CscMatrix::from_coo(coo, |a, _| a)
    }

    #[test]
    fn bfs_on_a_path_gives_exact_levels() {
        let a = path_graph(10);
        let r = bfs(&a, 0, AlgorithmKind::Bucket, SpMSpVOptions::with_threads(2));
        assert_eq!(r.num_visited, 10);
        assert_eq!(r.iterations, 10); // 9 productive levels + 1 empty-frontier check is folded; levels 1..=9
        for v in 0..10 {
            assert_eq!(r.levels[v], Some(v));
        }
        assert_eq!(r.parents[0], Some(0));
        assert_eq!(r.parents[5], Some(4));
    }

    #[test]
    fn all_algorithms_produce_identical_levels() {
        let a = rmat(8, 8, RmatParams::graph500(), 5);
        let source = 0;
        let reference = bfs(&a, source, AlgorithmKind::Sequential, SpMSpVOptions::with_threads(1));
        for kind in [
            AlgorithmKind::Bucket,
            AlgorithmKind::CombBlasSpa,
            AlgorithmKind::CombBlasHeap,
            AlgorithmKind::GraphMat,
            AlgorithmKind::SortBased,
            AlgorithmKind::Pull,
            AlgorithmKind::Adaptive,
        ] {
            let r = bfs(&a, source, kind, SpMSpVOptions::with_threads(4));
            assert_eq!(r.num_visited, reference.num_visited, "{kind} visited count differs");
            assert_eq!(r.levels, reference.levels, "{kind} levels differ");
        }
    }

    #[test]
    fn mxv_path_is_bit_identical_to_a_post_filter_loop() {
        // The acceptance bar of the Mxv migration, kept alive after the
        // removal of the old `bfs_with` entry point: the in-kernel-masked
        // descriptor run reproduces a multiply-then-filter frontier loop
        // exactly — same parents, same levels, same telemetry counts.
        let a = rmat(8, 8, RmatParams::graph500(), 21);
        for source in [0usize, 9, 77] {
            let new = bfs(&a, source, AlgorithmKind::Bucket, SpMSpVOptions::with_threads(3));

            let mut alg = spmspv::SpMSpVBucket::new(&a, SpMSpVOptions::with_threads(3));
            let n = a.ncols();
            let mut parents: Vec<Option<usize>> = vec![None; n];
            let mut levels: Vec<Option<usize>> = vec![None; n];
            parents[source] = Some(source);
            levels[source] = Some(0);
            let mut frontier =
                SparseVec::from_pairs(n, vec![(source, source)]).expect("valid source");
            let mut num_visited = 1usize;
            let mut iterations = 0usize;
            let mut frontier_sizes = Vec::new();
            let mut level = 0usize;
            while !frontier.is_empty() {
                frontier_sizes.push(frontier.nnz());
                let reached = SpMSpV::multiply(&mut alg, &frontier, &Select2ndMin);
                iterations += 1;
                level += 1;
                let mut next = SparseVec::new(n);
                for (v, &parent) in reached.iter() {
                    if parents[v].is_none() {
                        parents[v] = Some(parent);
                        levels[v] = Some(level);
                        num_visited += 1;
                        next.push(v, v);
                    }
                }
                frontier = next;
            }

            assert_eq!(new.parents, parents, "parents differ for source {source}");
            assert_eq!(new.levels, levels, "levels differ for source {source}");
            assert_eq!(new.num_visited, num_visited);
            assert_eq!(new.iterations, iterations);
            assert_eq!(new.frontier_sizes, frontier_sizes);
        }
    }

    #[test]
    fn prepared_descriptor_is_reusable_across_sources() {
        let a = grid2d(7, 9);
        let mut op = Mxv::over(&a)
            .semiring(&Select2ndMin)
            .masked(MaskMode::Complement)
            .options(SpMSpVOptions::with_threads(2))
            .prepare();
        for source in [0usize, 30, 62] {
            let reused = bfs_prepared(&mut op, source);
            let fresh = bfs(&a, source, AlgorithmKind::Bucket, SpMSpVOptions::with_threads(2));
            assert_eq!(reused.levels, fresh.levels, "reused descriptor diverged at {source}");
        }
    }

    #[test]
    fn parents_form_a_valid_bfs_tree() {
        let a = grid2d(12, 17);
        let r = bfs(&a, 5, AlgorithmKind::Bucket, SpMSpVOptions::with_threads(3));
        for v in 0..a.ncols() {
            match (r.parents[v], r.levels[v]) {
                (Some(p), Some(l)) => {
                    if v == 5 {
                        assert_eq!(p, 5);
                        assert_eq!(l, 0);
                    } else {
                        // parent is a real neighbour one level closer
                        assert!(a.get(v, p).is_some() || a.get(p, v).is_some());
                        assert_eq!(r.levels[p], Some(l - 1));
                    }
                }
                (None, None) => {}
                other => panic!("inconsistent parent/level for {v}: {other:?}"),
            }
        }
        // grid is connected
        assert_eq!(r.num_visited, a.ncols());
    }

    #[test]
    fn disconnected_vertices_stay_unvisited() {
        // two disjoint edges: 0-1 and 2-3
        let mut coo = CooMatrix::new(4, 4);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        coo.push(2, 3, 1.0);
        coo.push(3, 2, 1.0);
        let a = CscMatrix::from_coo(coo, |x, _| x);
        let r = bfs(&a, 0, AlgorithmKind::Bucket, SpMSpVOptions::with_threads(2));
        assert_eq!(r.num_visited, 2);
        assert_eq!(r.levels[1], Some(1));
        assert_eq!(r.levels[2], None);
        assert_eq!(r.parents[3], None);
    }

    #[test]
    fn frontier_sizes_sum_to_visited_count() {
        let a = rmat(9, 6, RmatParams::graph500(), 12);
        let r = bfs(&a, 1, AlgorithmKind::Bucket, SpMSpVOptions::with_threads(2));
        let total: usize = r.frontier_sizes.iter().sum();
        assert_eq!(total, r.num_visited);
        assert_eq!(r.frontier_sizes.len(), r.iterations);
    }

    #[test]
    fn bfs_frontiers_match_bfs_levels() {
        let a = grid2d(8, 8);
        let frontiers = bfs_frontiers(&a, 0);
        let r = bfs(&a, 0, AlgorithmKind::Sequential, SpMSpVOptions::with_threads(1));
        // one frontier per level, sizes agree with the level histogram
        let mut level_counts = std::collections::BTreeMap::new();
        for l in r.levels.iter().flatten() {
            *level_counts.entry(*l).or_insert(0usize) += 1;
        }
        assert_eq!(frontiers.len(), level_counts.len());
        for (level, frontier) in frontiers.iter().enumerate() {
            assert_eq!(frontier.nnz(), level_counts[&level]);
        }
    }
}
