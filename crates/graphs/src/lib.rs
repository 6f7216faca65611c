//! # spmspv-graphs
//!
//! Graph algorithms expressed on top of the SpMSpV primitive, mirroring the
//! applications the paper motivates SpMSpV with (§I): breadth-first search,
//! connected components, maximal independent set, data-driven PageRank and
//! bipartite matching. BFS is also the workload of the paper's headline
//! experiments (Figures 4 and 5 time the SpMSpV calls inside a BFS).
//!
//! The workloads program against the unified [`spmspv::ops::Mxv`] operation
//! descriptor: [`bfs()`] describes one search as a masked single-vector
//! operation (¬visited applied inside the kernel), [`multi_bfs()`] the same
//! with one mask per lane, and [`pagerank_datadriven`] /
//! [`pagerank_personalized_batch`] numeric operations over the transition
//! matrix. All take an [`spmspv::AlgorithmKind`] (the engine-driven
//! [`multi_bfs_using`] a [`spmspv::BatchAlgorithmKind`], which names one)
//! so the benchmark harness can swap the underlying SpMSpV implementation
//! exactly as the paper does.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bfs;
pub mod components;
pub mod matching;
pub mod mis;
pub mod multi_bfs;
pub mod pagerank;
pub mod pseudo_diameter;
pub mod semirings;

pub use bfs::{bfs, bfs_frontiers, bfs_prepared, BfsResult};
pub use components::connected_components;
pub use matching::bipartite_matching;
pub use mis::maximal_independent_set;
pub use multi_bfs::{multi_bfs, multi_bfs_routed, multi_bfs_using, MultiBfsResult};
pub use pagerank::{
    pagerank_datadriven, pagerank_personalized_batch, PageRankOptions, PersonalizedPageRankResult,
};
pub use pseudo_diameter::pseudo_diameter;
