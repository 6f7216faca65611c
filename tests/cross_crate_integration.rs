//! Integration tests spanning the substrate, the SpMSpV algorithms and the
//! graph algorithms: end-to-end workflows a downstream user would run.

use sparse_substrate::gen::{grid2d, random_sparse_vec, rmat, RmatParams};
use sparse_substrate::mmio::{read_matrix_market, write_matrix_market};
use sparse_substrate::ops::spmspv_reference;
use sparse_substrate::{CscMatrix, PlusTimes};
use spmspv::{AlgorithmKind, SpMSpV, SpMSpVBucket, SpMSpVOptions};
use spmspv_graphs::{bfs, connected_components, pseudo_diameter};

#[test]
fn matrix_market_roundtrip_feeds_the_bucket_algorithm() {
    // Generate → write .mtx → read back → multiply → compare with the
    // in-memory original.
    let a = rmat(9, 6, RmatParams::web_like(), 4);
    let mut buffer = Vec::new();
    write_matrix_market(&mut buffer, &a).unwrap();
    let reread = CscMatrix::from_coo(read_matrix_market(&buffer[..]).unwrap(), |x, y| x + y);
    assert_eq!(a, reread);

    let x = random_sparse_vec(a.ncols(), 100, 3);
    let mut alg = SpMSpVBucket::new(&reread, SpMSpVOptions::with_threads(4));
    let y = alg.multiply(&x, &PlusTimes);
    assert!(y.approx_same_entries(&spmspv_reference(&a, &x, &PlusTimes), 1e-9));
}

#[test]
fn connected_components_agree_with_bfs_reachability() {
    let a = grid2d(25, 4); // connected
    let labels = connected_components(&a, AlgorithmKind::Bucket, SpMSpVOptions::with_threads(2));
    let r = bfs(&a, 0, AlgorithmKind::Bucket, SpMSpVOptions::with_threads(2));
    // Connected graph: every vertex reachable and carrying label 0.
    assert_eq!(r.num_visited, a.ncols());
    assert!(labels.iter().all(|&l| l == 0));
}

#[test]
fn diameter_classification_matches_table_iv_families() {
    // The scale-free stand-in must have a much smaller pseudo-diameter than
    // the mesh stand-in of similar vertex count — the property Table IV's
    // two families are built around.
    let scale_free = rmat(11, 16, RmatParams::graph500(), 5);
    let mesh = grid2d(45, 45);
    let d_sf = pseudo_diameter(&scale_free, 0, 3);
    let d_mesh = pseudo_diameter(&mesh, 0, 3);
    assert!(d_sf * 4 < d_mesh, "scale-free {d_sf} vs mesh {d_mesh}");
}

#[test]
fn all_parallel_algorithms_agree_inside_a_full_bfs() {
    let a = rmat(10, 8, RmatParams::graph500(), 21);
    let reference = bfs(&a, 1, AlgorithmKind::Sequential, SpMSpVOptions::with_threads(1));
    for kind in AlgorithmKind::paper_competitors() {
        let r = bfs(&a, 1, kind, SpMSpVOptions::with_threads(3));
        assert_eq!(r.levels, reference.levels, "{kind} BFS levels diverge");
    }
}

#[test]
fn repeated_multiplications_reuse_one_algorithm_instance() {
    // The BFS-style usage pattern: one prepared algorithm, many vectors.
    let a = rmat(10, 6, RmatParams::web_like(), 8);
    let mut alg = SpMSpVBucket::new(&a, SpMSpVOptions::with_threads(4));
    for f in [1usize, 10, 100, 1000, a.ncols()] {
        let x = random_sparse_vec(a.ncols(), f, f as u64);
        let y = alg.multiply(&x, &PlusTimes);
        let expected = spmspv_reference(&a, &x, &PlusTimes);
        assert!(y.approx_same_entries(&expected, 1e-9), "diverged at nnz(x)={f}");
    }
}
