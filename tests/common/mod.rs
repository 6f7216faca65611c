//! Seeded operands shared by the property suites: large enough that a call
//! over them earns several participants, with small-integer values so that
//! sums are exact whatever order a kernel reduces them in.

use sparse_substrate::gen::{erdos_renyi, random_sparse_vec};
use sparse_substrate::{CscMatrix, SparseVec};

/// `v` with every value replaced by a small integer.
fn integer_valued(v: f64) -> f64 {
    (v * 16.0).ceil()
}

/// A seeded `n × n` Erdős–Rényi matrix at mean degree 64 with small-integer
/// entries: a frontier of `f` entries carries ~64·f flops.
pub fn degree_64_matrix(n: usize, seed: u64) -> CscMatrix<f64> {
    let a = erdos_renyi(n, 64.0, seed);
    let values = a.values().iter().copied().map(integer_valued).collect();
    CscMatrix::from_parts(n, n, a.colptr().to_vec(), a.rowids().to_vec(), values)
        .expect("the generator's structure is valid")
}

/// A seeded frontier of `nnz` distinct entries over `n` columns with
/// small-integer values.
pub fn integer_frontier(n: usize, nnz: usize, seed: u64) -> SparseVec<f64> {
    let x = random_sparse_vec(n, nnz, seed);
    let values = x.values().iter().copied().map(integer_valued).collect();
    SparseVec::from_parts(n, x.indices().to_vec(), values).expect("same indices")
}
