//! The bottom-up (pull) kernel and Adaptive's three-way rule.
//!
//! Bit-identity: with [`AlgorithmKind::Pull`] forced on every level, and
//! with [`AlgorithmKind::Adaptive`], BFS parents, levels and frontier sizes
//! equal those of push ([`AlgorithmKind::Bucket`]) on symmetric rmat,
//! Erdős–Rényi, grid and triangular-mesh graphs; multi-source BFS through a
//! local `Engine` equals single push BFS per source; and pull equals push
//! under arbitrary masks in both modes. Every positive case also checks
//! that pull ran, by replaying the traversal's levels through a kernel
//! whose choice can be read. Where pull would not be exact — a
//! non-symmetric matrix, a non-square column slice, a frontier whose values
//! do not ascend, `PlusTimes` — it declines, and the result still equals
//! push.
//!
//! Split pull: on `rmat(15, 16)`, whose wide levels keep enough rows to earn
//! a second participant, pull at 2, 3 and 8 threads equals the
//! one-participant pull level by level, entries scanned included, BFS at
//! every thread count equals push, and a second thread is shown to run a
//! block.
//!
//! Counts, not times: on rmat, Adaptive's entries scanned stay near the
//! per-level minimum of push and pull; on a mesh, Adaptive never gets past
//! the `O(1)` gates; and a matrix's symmetry flag is computed only where a
//! pull could run, once per matrix.

use std::sync::Arc;

use sparse_substrate::gen::{erdos_renyi, grid2d, rmat, triangular_mesh, RmatParams};
use sparse_substrate::ops::required_multiplications;
use sparse_substrate::{CooMatrix, CscMatrix, MaskBits, PlusTimes, Select2ndMin, SparseVec};
use spmspv::engine::{Engine, EngineConfig, MxvRequest};
use spmspv::{
    obs, AdaptiveSpMSpV, AlgorithmKind, Executor, MaskMode, MaskView, SpMSpV, SpMSpVBucket,
    SpMSpVOptions, SpMSpVPull,
};
use spmspv_graphs::{bfs, multi_bfs, BfsResult};

mod rendezvous;
use rendezvous::Rendezvous;

/// `a`'s pattern made symmetric (values summed where an entry meets its
/// mirror).
fn symmetrized(a: &CscMatrix<f64>) -> CscMatrix<f64> {
    let mut coo = CooMatrix::new(a.nrows(), a.ncols());
    for (i, j, &v) in a.iter() {
        coo.push(i, j, v);
    }
    coo.symmetrize();
    CscMatrix::from_coo(coo, |x, y| x + y)
}

fn rmat_graph(scale: u32) -> CscMatrix<f64> {
    rmat(scale, 16, RmatParams::graph500(), 7)
}

/// The four symmetric graph families of the suite.
fn symmetric_graphs() -> Vec<(&'static str, CscMatrix<f64>)> {
    vec![
        ("rmat(11, 16)", rmat_graph(11)),
        ("symmetric erdos_renyi(3000, 8)", symmetrized(&erdos_renyi(3000, 8.0, 3))),
        ("grid2d(40, 50)", grid2d(40, 50)),
        ("triangular_mesh(30, 40)", triangular_mesh(30, 40)),
    ]
}

/// Three spread-out vertices that have neighbours, and the highest-degree
/// vertex.
fn sources(a: &CscMatrix<f64>) -> Vec<usize> {
    let n = a.ncols();
    let mut picked: Vec<usize> = [0, n / 3, 2 * n / 3]
        .into_iter()
        .filter_map(|start| (start..n).find(|&v| a.column_nnz(v) > 0))
        .collect();
    picked.extend((0..n).max_by_key(|&v| a.column_nnz(v)));
    picked
}

/// The `(frontier, visited)` pair of every level of `r`, exactly as BFS
/// hands them to its kernel: the level's vertices carrying their own ids,
/// and every vertex at that level or closer.
fn levels_of(r: &BfsResult) -> Vec<(SparseVec<usize>, MaskBits)> {
    let n = r.levels.len();
    let mut by_level: Vec<Vec<(usize, usize)>> = vec![Vec::new(); r.iterations];
    for (v, level) in r.levels.iter().enumerate() {
        if let Some(l) = *level {
            by_level[l].push((v, v));
        }
    }
    let mut visited = MaskBits::new(n);
    by_level
        .into_iter()
        .map(|members| {
            visited.extend(members.iter().map(|&(v, _)| v));
            (SparseVec::from_pairs(n, members).expect("vertices are in range"), visited.clone())
        })
        .collect()
}

fn complement(visited: &MaskBits) -> MaskView<'_> {
    MaskView::new(visited, MaskMode::Complement)
}

fn assert_same_bfs(what: &str, got: &BfsResult, push: &BfsResult) {
    assert_eq!(got.parents, push.parents, "{what}: parents");
    assert_eq!(got.levels, push.levels, "{what}: levels");
    assert_eq!(got.frontier_sizes, push.frontier_sizes, "{what}: frontier sizes");
}

#[test]
fn forced_pull_and_adaptive_bfs_equal_push_on_symmetric_graphs() {
    for (name, a) in symmetric_graphs() {
        let opts = SpMSpVOptions::with_threads(2);
        let mut adaptive_pulls = 0;
        for source in sources(&a) {
            let push = bfs(&a, source, AlgorithmKind::Bucket, opts.clone());
            for kind in [AlgorithmKind::Pull, AlgorithmKind::Adaptive] {
                let got = bfs(&a, source, kind, opts.clone());
                assert_same_bfs(&format!("{name} from {source}, {kind}"), &got, &push);
            }

            // The same levels again, through kernels whose work can be read:
            // forced pull runs on every level, and matches push level by
            // level.
            let mut pull = SpMSpVPull::new(&a, opts.clone());
            let mut bucket = SpMSpVBucket::new(&a, opts.clone());
            let mut adaptive = AdaptiveSpMSpV::new(&a, opts.clone());
            for (level, (x, visited)) in levels_of(&push).iter().enumerate() {
                let mask = Some(complement(visited));
                let y = SpMSpV::<f64, usize, Select2ndMin>::multiply_masked(
                    &mut pull,
                    x,
                    &Select2ndMin,
                    mask,
                );
                assert!(pull.last_scanned().is_some(), "{name} from {source}: level {level}");
                assert_eq!(y, bucket.multiply_masked(x, &Select2ndMin, mask));
                adaptive.multiply_masked(x, &Select2ndMin, mask);
                adaptive_pulls += usize::from(adaptive.last_choice() == Some(AlgorithmKind::Pull));
            }
        }
        if name.starts_with("rmat") || name.contains("erdos_renyi") {
            assert!(adaptive_pulls > 0, "{name}: Adaptive never pulled");
        }
    }
}

#[test]
fn pull_equals_push_under_any_mask_in_both_modes() {
    let a = rmat_graph(11);
    let n = a.ncols();
    let push = bfs(&a, sources(&a)[0], AlgorithmKind::Bucket, SpMSpVOptions::with_threads(2));
    let mut pull = SpMSpVPull::new(&a, SpMSpVOptions::default());
    let mut bucket = SpMSpVBucket::new(&a, SpMSpVOptions::with_threads(2));
    for (level, (x, visited)) in levels_of(&push).iter().enumerate() {
        // The BFS mask, its complement, and two arbitrary row subsets.
        let unvisited = MaskBits::from_indices(n, (0..n).filter(|&v| !visited.contains(v)));
        let every_third = MaskBits::from_indices(n, (level..n).step_by(3));
        let sparse = MaskBits::from_indices(n, (0..n).step_by(7 + level));
        for bits in [visited, &unvisited, &every_third, &sparse] {
            for mode in [MaskMode::Keep, MaskMode::Complement] {
                let mask = Some(MaskView::new(bits, mode));
                let y = SpMSpV::<f64, usize, Select2ndMin>::multiply_masked(
                    &mut pull,
                    x,
                    &Select2ndMin,
                    mask,
                );
                assert!(pull.last_scanned().is_some(), "level {level} {mode:?}: pull declined");
                assert_eq!(
                    y,
                    bucket.multiply_masked(x, &Select2ndMin, mask),
                    "level {level} {mode:?}"
                );
            }
        }
    }
}

#[test]
fn multi_bfs_lanes_pull_and_equal_single_push_bfs() {
    let a = rmat_graph(12);
    let sources: Vec<usize> = sources(&a).into_iter().chain([7, 100, 1000, 4000]).collect();
    let pulls_before = obs::global().counter("adaptive.single.pull").get();
    let multi = multi_bfs(&a, &sources, SpMSpVOptions::with_threads(2));
    let pulls = obs::global().counter("adaptive.single.pull").get() - pulls_before;
    let mut replayed_pulls = 0;
    for (s, &source) in sources.iter().enumerate() {
        let push = bfs(&a, source, AlgorithmKind::Bucket, SpMSpVOptions::with_threads(2));
        assert_eq!(multi.parents[s], push.parents, "source {source}: parents");
        assert_eq!(multi.levels[s], push.levels, "source {source}: levels");

        // A spread lane runs a one-thread Adaptive kernel; the rule reads
        // only the lane's frontier and mask, so a replay makes its choices.
        let mut lane = AdaptiveSpMSpV::new(&a, SpMSpVOptions::with_threads(1));
        for (x, visited) in levels_of(&push) {
            lane.multiply_masked(&x, &Select2ndMin, Some(complement(&visited)));
            replayed_pulls += usize::from(lane.last_choice() == Some(AlgorithmKind::Pull));
        }
    }
    assert!(replayed_pulls > 0, "no lane level crossed the pull gate");
    if obs::global().enabled() {
        assert!(pulls >= replayed_pulls as u64, "{pulls} pulls counted, {replayed_pulls} replayed");
    }
}

/// Split pull: on `rmat(15, 16)` the BFS levels that keep 16 000 rows or
/// more earn pull a second participant, which claims blocks of mask words
/// beside the caller.
#[test]
fn split_pull_equals_one_participant_and_push_at_every_thread_count() {
    let a = rmat_graph(15);
    let source = *sources(&a).last().expect("the highest-degree vertex");
    let push = bfs(&a, source, AlgorithmKind::Bucket, SpMSpVOptions::with_threads(2));
    for threads in [1, 2, 3, 8] {
        for kind in [AlgorithmKind::Pull, AlgorithmKind::Adaptive] {
            let got = bfs(&a, source, kind, SpMSpVOptions::with_threads(threads));
            assert_same_bfs(&format!("t = {threads}, {kind}"), &got, &push);
        }
    }

    // Level by level, the split pull is the one-participant pull, its scan
    // count included.
    let levels = levels_of(&push);
    let earns_two = |mask: MaskView<'_>| Executor::new(2).capped_for(mask.kept()).threads() == 2;
    let mut one = SpMSpVPull::new(&a, SpMSpVOptions::with_threads(1));
    let mut splits: Vec<_> =
        [2, 3, 8].map(|t| (t, SpMSpVPull::new(&a, SpMSpVOptions::with_threads(t)))).into();
    for (level, (x, visited)) in levels.iter().enumerate() {
        let mask = Some(complement(visited));
        let expected =
            SpMSpV::<f64, usize, Select2ndMin>::multiply_masked(&mut one, x, &Select2ndMin, mask);
        assert!(one.last_scanned().is_some(), "level {level}: pull declined");
        for (threads, split) in &mut splits {
            let y =
                SpMSpV::<f64, usize, Select2ndMin>::multiply_masked(split, x, &Select2ndMin, mask);
            assert_eq!(y, expected, "level {level}, t = {threads}");
            assert_eq!(split.last_scanned(), one.last_scanned(), "level {level}, t = {threads}");
        }
    }
    let split_levels: Vec<_> =
        levels.iter().filter(|(_, visited)| earns_two(complement(visited))).collect();
    assert!(split_levels.len() >= 2, "{} levels earn a second participant", split_levels.len());

    // Replayed with a semiring that waits for a second thread: a second
    // participant really ran a block.
    let mut split = SpMSpVPull::new(&a, SpMSpVOptions::with_threads(2));
    let met = split_levels.iter().any(|(x, visited)| {
        let rendezvous = Rendezvous::<Select2ndMin>::default();
        let y = split.multiply_masked(x, &rendezvous, Some(complement(visited)));
        assert_eq!(y, one.multiply_masked(x, &Select2ndMin, Some(complement(visited))));
        rendezvous.outcome().0 >= 2
    });
    assert!(met, "no level ran a block on a second thread");
}

/// Runs `x` through forced pull, push and Adaptive, asserting that the
/// results agree and that neither pull kernel nor Adaptive pulled.
fn declined<X, S>(a: &CscMatrix<f64>, x: &SparseVec<X>, semiring: &S, mask: MaskView<'_>)
where
    X: sparse_substrate::Scalar,
    S: sparse_substrate::Semiring<f64, X>,
{
    let opts = SpMSpVOptions::with_threads(2);
    let mut pull = SpMSpVPull::new(a, opts.clone());
    let y = SpMSpV::<f64, X, S>::multiply_masked(&mut pull, x, semiring, Some(mask));
    assert_eq!(pull.last_scanned(), None, "pull ran where it is not exact");
    let mut bucket = SpMSpVBucket::new(a, opts.clone());
    assert_eq!(y, bucket.multiply_masked(x, semiring, Some(mask)));
    let mut adaptive = AdaptiveSpMSpV::new(a, opts);
    assert_eq!(y, adaptive.multiply_masked(x, semiring, Some(mask)));
    assert_ne!(adaptive.last_choice(), Some(AlgorithmKind::Pull));
}

#[test]
fn pull_declines_where_it_would_not_be_exact_and_still_equals_push() {
    // A non-symmetric matrix: the whole BFS through forced pull is push's.
    let directed = erdos_renyi(2000, 8.0, 5);
    for source in sources(&directed) {
        let opts = SpMSpVOptions::with_threads(2);
        let push = bfs(&directed, source, AlgorithmKind::Bucket, opts.clone());
        for kind in [AlgorithmKind::Pull, AlgorithmKind::Adaptive] {
            let got = bfs(&directed, source, kind, opts.clone());
            assert_same_bfs(&format!("directed from {source}, {kind}"), &got, &push);
        }
        for (x, visited) in levels_of(&push) {
            declined(&directed, &x, &Select2ndMin, complement(&visited));
        }
    }
    assert_eq!(directed.cached_symmetry(), Some(false));

    // A dense BFS level of a symmetric graph, where pull would pay.
    let a = rmat_graph(11);
    let n = a.ncols();
    let push = bfs(&a, sources(&a)[0], AlgorithmKind::Bucket, SpMSpVOptions::with_threads(2));
    let (x, visited) = levels_of(&push).into_iter().max_by_key(|(x, _)| x.nnz()).unwrap();

    // Its values reversed, so they descend with their index.
    let descending = SparseVec::from_parts(
        n,
        x.indices().to_vec(),
        x.indices().iter().map(|&v| n - v).collect(),
    )
    .unwrap();
    declined(&a, &descending, &Select2ndMin, complement(&visited));

    // `PlusTimes` over the same level (unit values, so sums are exact); a
    // fresh copy of the matrix shows the symmetry flag is never computed.
    let fresh = a.column_slice(0..n);
    let reals = SparseVec::from_parts(n, x.indices().to_vec(), vec![1.0; x.nnz()]).unwrap();
    declined(&fresh, &reals, &PlusTimes, complement(&visited));
    assert_eq!(fresh.cached_symmetry(), None);

    // The shard shape: a column slice, square no longer. Its frontier is
    // the level's entries in the slice's columns.
    let slice = a.column_slice(0..n / 2);
    declined(&slice, &x.slice_remap(0..n / 2), &Select2ndMin, complement(&visited));
    assert_eq!(slice.cached_symmetry(), None);
}

/// Per level of `r`: push's flops, the entries a pull scans (up to each
/// kept row's first frontier member, or its whole column), and whether
/// `adaptive` pulled. Checks the pull kernel's own count on the way.
fn level_work(
    a: &CscMatrix<f64>,
    r: &BfsResult,
    adaptive: &mut AdaptiveSpMSpV<'_, f64, usize, Select2ndMin>,
) -> Vec<(usize, usize, bool)> {
    let mut pull = SpMSpVPull::new(a, SpMSpVOptions::default());
    levels_of(r)
        .iter()
        .map(|(x, visited)| {
            let mask = complement(visited);
            let scan: usize = mask
                .kept_rows()
                .map(|i| {
                    let rows = a.column(i).0;
                    rows.iter().position(|&j| x.get(j).is_some()).map_or(rows.len(), |k| k + 1)
                })
                .sum();
            SpMSpV::<f64, usize, Select2ndMin>::multiply_masked(
                &mut pull,
                x,
                &Select2ndMin,
                Some(mask),
            );
            assert_eq!(pull.last_scanned(), Some(scan), "the kernel's count is the oracle's");
            adaptive.multiply_masked(x, &Select2ndMin, Some(mask));
            let pulled = adaptive.last_choice() == Some(AlgorithmKind::Pull);
            (required_multiplications(a, x), scan, pulled)
        })
        .collect()
}

#[test]
fn adaptive_scans_close_to_the_per_level_minimum_on_rmat() {
    let a = rmat_graph(14);
    let mut adaptive = AdaptiveSpMSpV::new(&a, SpMSpVOptions::with_threads(2));
    let (mut adaptive_scan, mut oracle, mut push_total) = (0, 0, 0);
    for source in sources(&a) {
        let r = bfs(&a, source, AlgorithmKind::Bucket, SpMSpVOptions::with_threads(2));
        for (flops, scan, pulled) in level_work(&a, &r, &mut adaptive) {
            adaptive_scan += if pulled { scan } else { flops };
            oracle += flops.min(scan);
            push_total += flops;
        }
    }
    assert!(
        4 * adaptive_scan <= 5 * oracle,
        "Adaptive scanned {adaptive_scan} entries, the per-level minimum is {oracle}"
    );
    assert!(
        5 * adaptive_scan <= push_total,
        "Adaptive scanned {adaptive_scan} entries, push alone {push_total}"
    );
}

/// The mesh of the `bfs_mesh` workload: its frontiers hold `O(√n)`
/// vertices, so `α · flops` never reaches `n`. (On a 100 × 100 mesh they
/// do, late in a traversal from its centre, and a few levels pull there.)
#[test]
fn adaptive_never_gets_past_the_constant_time_gates_on_a_mesh() {
    let a = triangular_mesh(500, 500);
    let n = a.ncols();
    let r = bfs(&a, n / 2 + 250, AlgorithmKind::Sequential, SpMSpVOptions::with_threads(1));
    let levels = levels_of(&r);
    for threads in [1, 2] {
        let mut adaptive = AdaptiveSpMSpV::new(&a, SpMSpVOptions::with_threads(threads));
        for (x, visited) in &levels {
            adaptive.multiply_masked(x, &Select2ndMin, Some(complement(visited)));
            assert_ne!(adaptive.last_choice(), Some(AlgorithmKind::Pull), "t = {threads}");
        }
        assert_eq!(adaptive.unvisited_edge_counts(), 0, "t = {threads}");
    }
    assert_eq!(a.cached_symmetry(), None, "the symmetry pass never ran");
}

#[test]
fn the_symmetry_flag_is_computed_once_per_matrix_and_only_where_pull_could_run() {
    let a = rmat_graph(12);
    let n = a.ncols();
    assert_eq!(a.cached_symmetry(), None);

    // Numeric traffic through an engine, a third of it masked (the
    // `serve_mixed` shape): the semiring's hook says no before the flag.
    let engine: Engine<'_, f64, f64, PlusTimes> =
        Engine::over_with(&a, PlusTimes, EngineConfig::default());
    let visited = Arc::new(MaskBits::from_indices(n, (0..n).step_by(5)));
    let tickets: Vec<_> = (0..6usize)
        .map(|r| {
            let x = SparseVec::from_pairs(n, (r..n).step_by(3).map(|j| (j, 1.0)).collect());
            let request = MxvRequest::new(x.unwrap());
            let request = if r % 3 == 0 {
                request.mask(Arc::clone(&visited), MaskMode::Complement)
            } else {
                request
            };
            engine.submit(request)
        })
        .collect();
    engine.flush();
    for ticket in tickets {
        ticket.try_take().expect("flushed").expect("served");
    }
    assert_eq!(a.cached_symmetry(), None, "a numeric semiring computed the flag");

    // BFS computes it on the first call that passes the cheaper gates, and
    // every later descriptor over the same matrix reads the cached answer.
    let first = bfs(&a, sources(&a)[0], AlgorithmKind::Adaptive, SpMSpVOptions::with_threads(2));
    assert_eq!(a.cached_symmetry(), Some(true));
    let again = bfs(&a, sources(&a)[0], AlgorithmKind::Adaptive, SpMSpVOptions::with_threads(1));
    assert_same_bfs("a second descriptor", &again, &first);
    assert_eq!(a.cached_symmetry(), Some(true));
}
