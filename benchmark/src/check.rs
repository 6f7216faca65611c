//! Output checks. They run outside every timed region; a failed check counts
//! the operation as failed and makes the command exit non-zero.

use sparse_substrate::{CscMatrix, MaskBits, PlusTimes, SparseVec};
use spmspv::baselines::SequentialSpa;
use spmspv::{SpMSpV, SpMSpVOptions};

use crate::inputs::{ReferenceBfs, UNREACHED};

/// A BFS output is right when its levels equal the reference BFS's and every
/// parent is a real edge to the previous level.
pub fn bfs_output(
    a: &CscMatrix<f64>,
    reference: &ReferenceBfs,
    parents: &[Option<usize>],
    levels: &[Option<usize>],
) -> Result<(), String> {
    let source = reference.source;
    if parents.len() != reference.levels.len() || levels.len() != reference.levels.len() {
        return Err(format!("source {source}: output has the wrong dimension"));
    }
    for (v, &expected) in reference.levels.iter().enumerate() {
        let expected = (expected != UNREACHED).then_some(expected as usize);
        if levels[v] != expected {
            return Err(format!(
                "source {source}: vertex {v} has level {:?}, reference {expected:?}",
                levels[v]
            ));
        }
        let parent_ok = match (expected, parents[v]) {
            (None, None) => true,
            (Some(0), Some(p)) => p == source && v == source,
            (Some(level), Some(p)) => {
                reference.levels.get(p).is_some_and(|&lp| lp as usize + 1 == level)
                    && a.get(v, p).is_some()
            }
            _ => false,
        };
        if !parent_ok {
            return Err(format!("source {source}: vertex {v} has a bad parent {:?}", parents[v]));
        }
    }
    Ok(())
}

/// A numeric result is right when it equals the sequential-SPA product,
/// post-filtered by the request's Complement mask, within 1e-9 relative.
pub fn numeric_output(
    a: &CscMatrix<f64>,
    frontier: &SparseVec<f64>,
    mask: Option<&MaskBits>,
    got: &SparseVec<f64>,
) -> Result<(), String> {
    let mut oracle = SequentialSpa::new(a, SpMSpVOptions::with_threads(1));
    let mut expected = SpMSpV::multiply(&mut oracle, frontier, &PlusTimes);
    if let Some(mask) = mask {
        expected.retain(|i, _| !mask.contains(i));
    }
    let (expected, got) = (expected.sorted(), got.sorted());
    if expected.indices() != got.indices() {
        return Err(format!(
            "result has {} entries on different rows than the oracle's {}",
            got.nnz(),
            expected.nnz()
        ));
    }
    for ((&e, &g), &row) in expected.values().iter().zip(got.values()).zip(expected.indices()) {
        if (e - g).abs() > 1e-9 * e.abs().max(g.abs()) {
            return Err(format!("row {row}: got {g}, oracle {e}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{reference_bfs, GraphSpec};

    #[test]
    fn accepts_a_right_bfs_and_rejects_wrong_levels_and_parents() {
        let a = GraphSpec::Mesh { rows: 5, cols: 5 }.generate(0);
        let reference = reference_bfs(&a, 0);
        let out = spmspv_graphs::bfs(
            &a,
            0,
            spmspv::AlgorithmKind::Bucket,
            SpMSpVOptions::with_threads(1),
        );
        assert_eq!(bfs_output(&a, &reference, &out.parents, &out.levels), Ok(()));

        let mut levels = out.levels.clone();
        levels[7] = levels[7].map(|l| l + 1);
        assert!(bfs_output(&a, &reference, &out.parents, &levels).is_err());

        // Vertex 24 is four hops out; vertex 0 is no neighbour of it.
        let mut parents = out.parents.clone();
        parents[24] = Some(0);
        assert!(bfs_output(&a, &reference, &parents, &out.levels).is_err());
    }

    #[test]
    fn numeric_check_applies_the_complement_mask() {
        let a = GraphSpec::Mesh { rows: 4, cols: 4 }.generate(0);
        let x = SparseVec::from_pairs(16, vec![(0, 0.5), (5, 0.25)]).expect("valid");
        let mut oracle = SequentialSpa::new(&a, SpMSpVOptions::with_threads(1));
        let full = SpMSpV::multiply(&mut oracle, &x, &PlusTimes);
        assert_eq!(numeric_output(&a, &x, None, &full), Ok(()));

        let mask = MaskBits::from_indices(16, [1usize, 4]);
        assert!(numeric_output(&a, &x, Some(&mask), &full).is_err(), "masked rows must be absent");
        let mut filtered = full.clone();
        filtered.retain(|i, _| !mask.contains(i));
        assert_eq!(numeric_output(&a, &x, Some(&mask), &filtered), Ok(()));
    }
}
