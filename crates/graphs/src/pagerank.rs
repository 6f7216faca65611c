//! Data-driven (push-style) PageRank on the SpMSpV primitive.
//!
//! §I of the paper: "Even seemingly more regular graph algorithms, such as
//! PageRank, are better implemented in a data-driven way using the SpMSpV
//! primitive … because SpMSpV allows marking vertices inactive using the
//! sparsity of the input vector, as soon as its value converges."
//!
//! The implementation expands the power series
//! `π = (1−α)/n · Σ_{k≥0} (α·P)ᵏ · e`: each round multiplies the current
//! *contribution* vector by `α·P` with one SpMSpV and adds it into the rank
//! estimate, dropping entries whose contribution fell below `tolerance`.
//! Because contributions decay geometrically, the active frontier shrinks as
//! the computation proceeds — vertices are "marked inactive using the
//! sparsity of the input vector, as soon as \[their\] value converges", which
//! is precisely the behaviour the paper describes. Mass parked on dangling
//! vertices is not redistributed (the truncation the tolerance introduces
//! anyway); the final vector is renormalized to sum to one.

use sparse_substrate::{CooMatrix, CscMatrix, PlusTimes, SparseVec};
use spmspv::ops::Mxv;
use spmspv::{AlgorithmKind, SpMSpVOptions};

/// Tuning parameters for [`pagerank_datadriven`].
#[derive(Debug, Clone, Copy)]
pub struct PageRankOptions {
    /// Damping factor α (0.85 in the classic formulation).
    pub damping: f64,
    /// Per-vertex change below which a vertex is considered converged and
    /// dropped from the active frontier.
    pub tolerance: f64,
    /// Hard cap on the number of iterations.
    pub max_iterations: usize,
}

impl Default for PageRankOptions {
    fn default() -> Self {
        PageRankOptions { damping: 0.85, tolerance: 1e-8, max_iterations: 100 }
    }
}

/// Result of a PageRank run.
#[derive(Debug, Clone)]
pub struct PageRankResult {
    /// Final rank per vertex (sums to ≈ 1 for graphs without dangling mass
    /// loss; dangling mass is redistributed uniformly).
    pub ranks: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Number of active vertices fed to the SpMSpV in each iteration — the
    /// quantity that demonstrates the data-driven shrinkage.
    pub active_per_iteration: Vec<usize>,
}

/// Builds the column-stochastic transition matrix `P` where
/// `P(u, v) = 1/outdeg(v)` for every edge `v → u` (columns are sources).
pub fn transition_matrix(a: &CscMatrix<f64>) -> CscMatrix<f64> {
    let n = a.ncols();
    let mut coo = CooMatrix::with_capacity(a.nrows(), n, a.nnz());
    for v in 0..n {
        let (rows, _) = a.column(v);
        if rows.is_empty() {
            continue;
        }
        let w = 1.0 / rows.len() as f64;
        for &u in rows {
            coo.push(u, v, w);
        }
    }
    CscMatrix::from_coo(coo, |x, y| x + y)
}

/// Runs data-driven PageRank with the requested SpMSpV algorithm.
pub fn pagerank_datadriven(
    a: &CscMatrix<f64>,
    kind: AlgorithmKind,
    spmspv_options: SpMSpVOptions,
    options: PageRankOptions,
) -> PageRankResult {
    assert_eq!(a.nrows(), a.ncols(), "PageRank expects a square adjacency matrix");
    let n = a.ncols();
    if n == 0 {
        return PageRankResult {
            ranks: Vec::new(),
            iterations: 0,
            active_per_iteration: Vec::new(),
        };
    }
    let p = transition_matrix(a);
    let mut op =
        Mxv::over(&p).semiring(&PlusTimes).algorithm(kind).options(spmspv_options).prepare::<f64>();
    let alpha = options.damping;

    let mut ranks = vec![0.0f64; n];
    // Round-0 contribution: the uniform teleport mass (1-α)/n everywhere.
    let mut contrib =
        SparseVec::from_pairs(n, (0..n).map(|v| (v, (1.0 - alpha) / n as f64)).collect())
            .expect("initial contributions are in range");
    let mut active_per_iteration = Vec::new();
    let mut iterations = 0usize;

    while !contrib.is_empty() && iterations < options.max_iterations {
        active_per_iteration.push(contrib.nnz());
        iterations += 1;

        // Absorb this round's contributions into the rank estimate.
        for (v, &c) in contrib.iter() {
            ranks[v] += c;
        }

        // Next round: α · P · contrib, dropping negligible entries so the
        // frontier keeps shrinking.
        let propagated = op.run(&contrib);
        let mut next = SparseVec::new(n);
        for (u, &c) in propagated.iter() {
            let scaled = alpha * c;
            if scaled > options.tolerance {
                next.push(u, scaled);
            }
        }
        contrib = next;
    }

    // Mass truncated by the tolerance or parked on dangling vertices is
    // restored by normalization.
    let total: f64 = ranks.iter().sum();
    if total > 0.0 {
        for r in ranks.iter_mut() {
            *r /= total;
        }
    }

    PageRankResult { ranks, iterations, active_per_iteration }
}

/// Result of a batched personalized PageRank run.
#[derive(Debug, Clone)]
pub struct PersonalizedPageRankResult {
    /// `ranks[l]` is the personalized rank vector of lane `l` (teleporting
    /// to `sources[l]`), normalized to sum to one.
    pub ranks: Vec<Vec<f64>>,
    /// Iterations executed (batched SpMSpV calls).
    pub iterations: usize,
    /// Still-active lanes fed to each iteration's batched SpMSpV — lanes
    /// retire as their contribution vector converges below tolerance.
    pub active_lanes_per_iteration: Vec<usize>,
    /// The serving engine's coalescing telemetry: every iteration's active
    /// teleport targets collapsed into one fused batch.
    pub engine_stats: spmspv::stats::EngineStats,
}

/// Batched personalized PageRank: one rank vector per teleport target in
/// `sources`, computed with a **single** batched SpMSpV per iteration —
/// expressed as `k` client sessions of a serving [`spmspv::engine::Engine`],
/// one request per still-active lane per iteration, one
/// [`spmspv::engine::Engine::flush`] per iteration.
///
/// Same power-series expansion as [`pagerank_datadriven`], but the teleport
/// mass of lane `l` is concentrated on `sources[l]` instead of spread
/// uniformly: `π_l = (1−α) · Σ_{t≥0} (α·P)ᵗ · e_{sources[l]}`. All lanes
/// share each iteration's traversal of `P`'s column structure; a lane whose
/// surviving contributions drop below `tolerance` everywhere closes its
/// session and stops submitting. Lane `l`'s result is identical to running
/// the function with `sources == [sources[l]]` alone — lanes never
/// interact.
pub fn pagerank_personalized_batch(
    a: &CscMatrix<f64>,
    sources: &[usize],
    spmspv_options: spmspv::SpMSpVOptions,
    options: PageRankOptions,
) -> PersonalizedPageRankResult {
    assert_eq!(a.nrows(), a.ncols(), "PageRank expects a square adjacency matrix");
    let n = a.ncols();
    let k = sources.len();
    for &s in sources {
        assert!(s < n, "personalization vertex {s} out of range for {n} vertices");
    }
    if n == 0 || k == 0 {
        return PersonalizedPageRankResult {
            ranks: vec![Vec::new(); k],
            iterations: 0,
            active_lanes_per_iteration: Vec::new(),
            engine_stats: spmspv::stats::EngineStats::default(),
        };
    }

    let p = transition_matrix(a);
    // One serving engine per computation; every teleport target is one
    // client session. `max_lanes(0)` keeps each iteration one fused call.
    let engine: spmspv::engine::Engine<'_, f64, f64, PlusTimes> = spmspv::engine::Engine::over_with(
        &p,
        PlusTimes,
        spmspv::engine::EngineConfig::default().options(spmspv_options).max_lanes(0),
    );
    let alpha = options.damping;

    let mut ranks = vec![vec![0.0f64; n]; k];
    // active[lane] = source index this batch lane serves.
    let mut active: Vec<usize> = (0..k).collect();
    let mut sessions: Vec<Option<spmspv::engine::Session<'_, '_, f64, f64, PlusTimes>>> =
        (0..k).map(|_| Some(engine.session())).collect();
    let mut contribs: Vec<SparseVec<f64>> = sources
        .iter()
        .map(|&s| {
            SparseVec::from_pairs(n, vec![(s, 1.0 - alpha)])
                .expect("personalization index in range")
        })
        .collect();
    let mut active_lanes_per_iteration = Vec::new();
    let mut iterations = 0usize;

    while !active.is_empty() && iterations < options.max_iterations {
        active_lanes_per_iteration.push(active.len());
        iterations += 1;

        for (lane, &s) in active.iter().enumerate() {
            for (v, &c) in contribs[lane].iter() {
                ranks[s][v] += c;
            }
        }

        let tickets: Vec<_> = active
            .iter()
            .zip(contribs.drain(..))
            .map(|(&s, contrib)| {
                sessions[s]
                    .as_ref()
                    .expect("active lane keeps its session")
                    .submit(spmspv::engine::MxvRequest::new(contrib))
            })
            .collect();
        engine.flush();

        let mut next_active = Vec::with_capacity(active.len());
        let mut next_contribs = Vec::with_capacity(active.len());
        for (&s, ticket) in active.iter().zip(tickets) {
            let propagated = ticket
                .try_take()
                .expect("flush served every live request")
                .expect("in-process PageRank requests cannot fail");
            let mut next = SparseVec::new(n);
            for (u, &c) in propagated.iter() {
                let scaled = alpha * c;
                if scaled > options.tolerance {
                    next.push(u, scaled);
                }
            }
            if !next.is_empty() {
                next_active.push(s);
                next_contribs.push(next);
            } else if let Some(session) = sessions[s].take() {
                session.close();
            }
        }
        active = next_active;
        contribs = next_contribs;
    }

    for lane_ranks in ranks.iter_mut() {
        let total: f64 = lane_ranks.iter().sum();
        if total > 0.0 {
            for r in lane_ranks.iter_mut() {
                *r /= total;
            }
        }
    }

    PersonalizedPageRankResult {
        ranks,
        iterations,
        active_lanes_per_iteration,
        engine_stats: engine.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_substrate::gen::{grid2d, rmat, RmatParams};
    use sparse_substrate::CooMatrix;

    #[test]
    fn transition_matrix_columns_sum_to_one() {
        let a = rmat(7, 4, RmatParams::graph500(), 2);
        let p = transition_matrix(&a);
        for j in 0..p.ncols() {
            let (_, vals) = p.column(j);
            if !vals.is_empty() {
                let s: f64 = vals.iter().sum();
                assert!((s - 1.0).abs() < 1e-12, "column {j} sums to {s}");
            }
        }
    }

    #[test]
    fn uniform_rank_on_a_cycle() {
        // On a directed cycle every vertex has the same rank 1/n.
        let n = 12;
        let mut coo = CooMatrix::new(n, n);
        for v in 0..n {
            coo.push((v + 1) % n, v, 1.0);
        }
        let a = CscMatrix::from_coo(coo, |x, _| x);
        let r = pagerank_datadriven(
            &a,
            AlgorithmKind::Bucket,
            SpMSpVOptions::with_threads(2),
            PageRankOptions::default(),
        );
        for &rank in &r.ranks {
            assert!((rank - 1.0 / n as f64).abs() < 1e-6, "rank {rank} not uniform");
        }
        let total: f64 = r.ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
    }

    #[test]
    fn hub_receives_more_rank_than_leaves() {
        // Star graph: all leaves point to the hub (vertex 0).
        let n = 20;
        let mut coo = CooMatrix::new(n, n);
        for v in 1..n {
            coo.push(0, v, 1.0);
        }
        let a = CscMatrix::from_coo(coo, |x, _| x);
        let r = pagerank_datadriven(
            &a,
            AlgorithmKind::Bucket,
            SpMSpVOptions::with_threads(2),
            PageRankOptions::default(),
        );
        assert!(r.ranks[0] > r.ranks[1] * 5.0, "hub rank {} vs leaf {}", r.ranks[0], r.ranks[1]);
    }

    #[test]
    fn active_set_shrinks_over_time() {
        // A scale-free graph has heterogeneous degrees, so vertices converge
        // at different iterations and the active frontier shrinks instead of
        // staying dense — the data-driven behaviour §I describes. (On a
        // perfectly regular grid every vertex converges simultaneously, so a
        // mesh would not demonstrate the effect.)
        let a = rmat(9, 4, RmatParams::web_like(), 13);
        let r = pagerank_datadriven(
            &a,
            AlgorithmKind::Bucket,
            SpMSpVOptions::with_threads(2),
            PageRankOptions { tolerance: 1e-6, ..Default::default() },
        );
        assert!(r.iterations > 2);
        let first = r.active_per_iteration[0];
        assert!(
            r.active_per_iteration.iter().any(|&c| c < first),
            "active set never shrank below the initial {first}: {:?}",
            r.active_per_iteration
        );
        // The grid case must still terminate and keep its ranks normalized,
        // just without the shrinkage claim.
        let mesh = pagerank_datadriven(
            &grid2d(12, 12),
            AlgorithmKind::Bucket,
            SpMSpVOptions::with_threads(2),
            PageRankOptions { tolerance: 1e-4, ..Default::default() },
        );
        let total: f64 = mesh.ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-2, "mesh ranks sum to {total}");
    }

    #[test]
    fn personalized_batch_lane_equals_single_source_run() {
        let a = rmat(7, 5, RmatParams::web_like(), 8);
        let sources = [0usize, 5, 40];
        let batch = pagerank_personalized_batch(
            &a,
            &sources,
            spmspv::SpMSpVOptions::with_threads(3),
            PageRankOptions::default(),
        );
        for (l, &s) in sources.iter().enumerate() {
            let single = pagerank_personalized_batch(
                &a,
                &[s],
                spmspv::SpMSpVOptions::with_threads(2),
                PageRankOptions::default(),
            );
            assert_eq!(
                batch.ranks[l], single.ranks[0],
                "lane {l} (source {s}) differs from its single-source run"
            );
        }
    }

    #[test]
    fn personalized_rank_concentrates_near_the_source() {
        // On a directed cycle, personalized PageRank from s decays
        // geometrically with distance from s, so s itself has the top rank.
        let n = 16;
        let mut coo = CooMatrix::new(n, n);
        for v in 0..n {
            coo.push((v + 1) % n, v, 1.0);
        }
        let a = CscMatrix::from_coo(coo, |x, _| x);
        let r = pagerank_personalized_batch(
            &a,
            &[3],
            spmspv::SpMSpVOptions::with_threads(2),
            PageRankOptions::default(),
        );
        let ranks = &r.ranks[0];
        let argmax = (0..n).max_by(|&i, &j| ranks[i].total_cmp(&ranks[j])).unwrap();
        assert_eq!(argmax, 3, "teleport target should hold the largest rank");
        let total: f64 = ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn personalized_lanes_retire_independently() {
        // A dangling source (no out-edges beyond itself) converges in one
        // step while a well-connected source keeps propagating.
        let n = 12;
        let mut coo = CooMatrix::new(n, n);
        for v in 0..n - 1 {
            coo.push(v + 1, v, 1.0);
            coo.push(v, v + 1, 1.0);
        }
        let a = CscMatrix::from_coo(coo, |x, _| x);
        let r = pagerank_personalized_batch(
            &a,
            &[0, n / 2],
            spmspv::SpMSpVOptions::with_threads(2),
            PageRankOptions { tolerance: 1e-6, ..Default::default() },
        );
        assert!(r.iterations > 1);
        assert_eq!(r.active_lanes_per_iteration[0], 2);
        // every iteration's lane count is non-increasing
        assert!(r.active_lanes_per_iteration.windows(2).all(|w| w[0] >= w[1]));
        // serving telemetry: one fused batch per iteration, one request per
        // active lane per iteration
        assert_eq!(r.engine_stats.fused_batches, r.iterations);
        assert_eq!(r.engine_stats.requests, r.active_lanes_per_iteration.iter().sum::<usize>());
    }

    #[test]
    fn personalized_batch_handles_empty_sources() {
        let a = grid2d(4, 4);
        let r = pagerank_personalized_batch(
            &a,
            &[],
            spmspv::SpMSpVOptions::default(),
            PageRankOptions::default(),
        );
        assert_eq!(r.iterations, 0);
        assert!(r.ranks.is_empty());
    }

    #[test]
    fn algorithms_agree_on_final_ranks() {
        let a = rmat(7, 6, RmatParams::web_like(), 5);
        let bucket = pagerank_datadriven(
            &a,
            AlgorithmKind::Bucket,
            SpMSpVOptions::with_threads(3),
            PageRankOptions::default(),
        );
        let seq = pagerank_datadriven(
            &a,
            AlgorithmKind::Sequential,
            SpMSpVOptions::with_threads(1),
            PageRankOptions::default(),
        );
        for (x, y) in bucket.ranks.iter().zip(seq.ranks.iter()) {
            assert!((x - y).abs() < 1e-6);
        }
    }
}
