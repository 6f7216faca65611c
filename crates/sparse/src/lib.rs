//! # sparse-substrate
//!
//! Sparse matrix and sparse vector infrastructure used by the reproduction of
//! *"A Work-Efficient Parallel Sparse Matrix-Sparse Vector Multiplication
//! Algorithm"* (Azad & Buluç, IPDPS 2017).
//!
//! The paper's algorithm (SpMSpV-bucket) and all of its baselines operate on
//! column-oriented sparse matrix formats and list/bitvector sparse vector
//! formats. This crate provides those substrates from scratch:
//!
//! * [`CooMatrix`] — triples, the universal construction/interchange format;
//! * [`CscMatrix`] — Compressed Sparse Columns (what SpMSpV-bucket consumes);
//! * [`DcscMatrix`] — Double-Compressed Sparse Columns with an auxiliary
//!   column index (what the CombBLAS and GraphMat baselines consume);
//! * [`SparseVec`] — `(index, value)` list format, indices strictly ascending;
//! * [`SparseVecBatch`] — `k` [`SparseVec`] lanes of one dimension, the
//!   substrate of batched multi-source SpMSpV;
//! * [`FrontierBits`] — the bitvector format (bitmap + per-word rank over a
//!   [`SparseVec`]'s indices) that GraphMat and the pull kernel read — and
//!   [`MaskBits`], the mutable bitmap the masked SpMSpV kernels consult;
//! * [`Spa`] — the sparse accumulator with generation-based partial
//!   initialization (Gilbert, Moler & Schreiber);
//! * [`semiring`] — GraphBLAS-style `(add, multiply)` abstractions so the
//!   same SpMSpV kernels drive numerical multiplication, BFS, and other
//!   graph algorithms;
//! * [`gen`] — synthetic matrix generators (Erdős–Rényi, R-MAT, meshes,
//!   random geometric graphs) standing in for the University of Florida
//!   collection used in the paper;
//! * [`mmio`] — Matrix Market I/O so the real datasets can be used when
//!   available.
//!
//! All formats are plain data structures with documented invariants; the
//! parallel algorithms live in the `spmspv` crate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod bitvec;
pub mod coo;
pub mod csc;
pub mod dcsc;
pub mod error;
pub mod fixtures;
pub mod gen;
pub mod mmio;
pub mod ops;
pub mod semiring;
pub mod spa;
pub mod spvec;

pub use batch::SparseVecBatch;
pub use bitvec::{FrontierBits, MaskBits};
pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use dcsc::DcscMatrix;
pub use error::SparseError;
pub use semiring::{BoolOrAnd, MinPlus, PlusTimes, Select2ndMin, Semiring};
pub use spa::{Spa, SpaBackend};
pub use spvec::SparseVec;

/// Trait bound shared by every value stored in a sparse object.
///
/// Deliberately minimal: values must be cheaply copyable and shareable across
/// threads, and provide a `Default` placeholder so pre-allocated workspaces
/// (buckets, SPA, output buffers) can be created without knowing a semiring.
/// Arithmetic is supplied externally through a [`Semiring`], never assumed on
/// the element type itself, so graph algorithms can store parent ids, levels,
/// or booleans in the same containers that store floats.
pub trait Scalar: Copy + Send + Sync + PartialEq + Default + std::fmt::Debug + 'static {}

impl<T> Scalar for T where T: Copy + Send + Sync + PartialEq + Default + std::fmt::Debug + 'static {}
