//! Quickstart: describe a sparse matrix × sparse vector multiplication with
//! the unified `Mxv` operation descriptor, run it (work-efficient
//! SpMSpV-bucket under the hood), and compare against the definition-level
//! reference — then mask it, then batch it, all on the same descriptor.
//!
//! Run with: `cargo run --release --example quickstart`

use sparse_substrate::gen::{erdos_renyi, random_sparse_vec};
use sparse_substrate::ops::spmspv_reference;
use sparse_substrate::{PlusTimes, SparseVecBatch};
use spmspv::ops::Mxv;
use spmspv::{MaskMode, SpMSpVOptions};

fn main() {
    // An Erdős–Rényi matrix with n = 100k columns and ~8 nonzeros per column,
    // the model the paper uses for its complexity analysis.
    let n = 100_000;
    let a = erdos_renyi(n, 8.0, 42);
    println!(
        "matrix: {} x {} with {} nonzeros (avg column degree {:.2})",
        a.nrows(),
        a.ncols(),
        a.nnz(),
        a.avg_column_degree()
    );

    // A sparse input vector with 1% density.
    let x = random_sparse_vec(n, n / 100, 7);
    println!("input vector: nnz(x) = {}", x.nnz());

    // Describe the operation once; prepare() compiles it into a reusable
    // descriptor (the kernel and its workspaces are allocated on first run
    // and recycled afterwards).
    let mut op = Mxv::over(&a).semiring(&PlusTimes).options(SpMSpVOptions::default()).prepare();
    let start = std::time::Instant::now();
    let y = op.run(&x);
    let elapsed = start.elapsed();
    println!(
        "SpMSpV-bucket via Mxv: nnz(y) = {} computed in {:.3} ms on {} threads",
        y.nnz(),
        elapsed.as_secs_f64() * 1e3,
        std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1)
    );

    // Cross-check against the sequential reference implementation.
    let expected = spmspv_reference(&a, &x, &PlusTimes);
    assert!(y.approx_same_entries(&expected, 1e-9), "bucket result diverges from the reference");
    println!("result verified against the sequential reference");

    // The same description, masked: the kernel never forms a product for
    // every third output row (it drops them in Step 1; no post-filter pass).
    let mut masked = Mxv::over(&a).semiring(&PlusTimes).masked(MaskMode::Complement).prepare();
    masked.mask_mut().extend((0..n).step_by(3));
    let ym = masked.run(&x);
    println!("masked run: nnz = {} (unmasked had {})", ym.nnz(), y.nnz());
    assert!(ym.iter().all(|(i, _)| i % 3 != 0), "masked rows leaked");

    // And the same descriptor serves batches: one lane per input vector,
    // fused into a single traversal of the matrix.
    let lanes: Vec<_> = (0..4).map(|l| random_sparse_vec(n, n / 100, 100 + l)).collect();
    let batch = SparseVecBatch::from_lanes(&lanes).expect("lanes share n");
    let yb = op.run_batch(&batch);
    println!("batched run: k = {} lanes, total nnz = {}", yb.k(), yb.total_nnz());
}
