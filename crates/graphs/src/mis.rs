//! Maximal independent set (Luby's algorithm) on the SpMSpV primitive.
//!
//! Each round, every undecided vertex draws a random priority; a vertex
//! joins the independent set if its priority is strictly larger than the
//! priorities of all its undecided neighbours. "Largest neighbouring
//! priority" is exactly one SpMSpV under the `(max, select2nd)` semiring
//! restricted to the still-undecided vertices — the same frontier-style
//! sparsity the paper's BFS experiments exploit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparse_substrate::{CscMatrix, SparseVec};
use spmspv::{SpMSpV, SpMSpVBucket, SpMSpVOptions};

use crate::semirings::Select2ndMax;

/// Computes a maximal independent set of the undirected graph `a`
/// (symmetric adjacency matrix) with Luby's randomized algorithm, one
/// bucket-kernel SpMSpV per round. Returns the selected vertices in
/// increasing order.
pub fn maximal_independent_set(
    a: &CscMatrix<f64>,
    options: SpMSpVOptions,
    seed: u64,
) -> Vec<usize> {
    assert_eq!(a.nrows(), a.ncols(), "adjacency matrix must be square");
    let n = a.ncols();
    let mut alg: SpMSpVBucket<'_, f64, f64, Select2ndMax> = SpMSpVBucket::new(a, options);

    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Undecided,
        InSet,
        Excluded,
    }
    let mut state = vec![State::Undecided; n];
    let mut rng = StdRng::seed_from_u64(seed);
    let semiring = Select2ndMax;

    loop {
        let undecided: Vec<usize> = (0..n).filter(|&v| state[v] == State::Undecided).collect();
        if undecided.is_empty() {
            break;
        }
        // Draw priorities for undecided vertices.
        let mut priorities = vec![0.0f64; n];
        let mut frontier = SparseVec::new(n);
        for &v in &undecided {
            let p: f64 = rng.gen_range(0.0..1.0);
            priorities[v] = p;
            frontier.push(v, p);
        }
        // Largest undecided-neighbour priority per vertex.
        let neighbour_max = alg.multiply(&frontier, &semiring);
        for &v in &undecided {
            let max_nbr = neighbour_max.get(v).copied().unwrap_or(f64::NEG_INFINITY);
            if priorities[v] > max_nbr {
                state[v] = State::InSet;
            }
        }
        // Exclude neighbours of newly selected vertices.
        for v in 0..n {
            if state[v] == State::InSet {
                for &u in a.column(v).0 {
                    if state[u] == State::Undecided {
                        state[u] = State::Excluded;
                    }
                }
            }
        }
    }

    (0..n).filter(|&v| state[v] == State::InSet).collect()
}

/// Checks that `set` is an independent set of `a` and that it is maximal
/// (every vertex outside the set has a neighbour inside). Used by tests and
/// by the example binaries to validate results.
pub fn is_maximal_independent_set(a: &CscMatrix<f64>, set: &[usize]) -> bool {
    let n = a.ncols();
    let mut in_set = vec![false; n];
    for &v in set {
        in_set[v] = true;
    }
    // independence
    for &v in set {
        for &u in a.column(v).0 {
            if u != v && in_set[u] {
                return false;
            }
        }
    }
    // maximality
    for v in 0..n {
        if !in_set[v] {
            let has_selected_neighbour = a.column(v).0.iter().any(|&u| in_set[u]);
            if !has_selected_neighbour && !a.column(v).0.is_empty() {
                return false;
            }
            if a.column(v).0.is_empty() {
                // isolated vertex must be in the set
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_substrate::gen::{grid2d, rmat, RmatParams};

    #[test]
    fn grid_mis_is_valid_and_maximal() {
        let a = grid2d(10, 10);
        let set = maximal_independent_set(&a, SpMSpVOptions::with_threads(2), 42);
        assert!(!set.is_empty());
        assert!(is_maximal_independent_set(&a, &set));
    }

    #[test]
    fn scale_free_mis_is_valid_for_multiple_seeds() {
        let a = rmat(8, 6, RmatParams::graph500(), 3);
        for seed in [1u64, 7, 99] {
            let set = maximal_independent_set(&a, SpMSpVOptions::with_threads(4), seed);
            assert!(is_maximal_independent_set(&a, &set), "seed {seed} produced invalid MIS");
        }
    }

    #[test]
    fn validator_rejects_non_independent_and_non_maximal_sets() {
        let a = grid2d(3, 3);
        // adjacent vertices 0 and 1 -> not independent
        assert!(!is_maximal_independent_set(&a, &[0, 1]));
        // empty set is not maximal for a non-empty graph
        assert!(!is_maximal_independent_set(&a, &[]));
    }
}
