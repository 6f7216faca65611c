//! Connected components and maximal independent set on a high-diameter mesh,
//! two of the graph algorithms §I lists as SpMSpV customers.
//!
//! Run with: `cargo run --release --example connected_components`

use sparse_substrate::gen::{random_geometric, triangular_mesh};
use spmspv::{AlgorithmKind, SpMSpVOptions};
use spmspv_graphs::mis::is_maximal_independent_set;
use spmspv_graphs::{connected_components, maximal_independent_set, pseudo_diameter};

fn main() {
    // A triangulated mesh (hugetric-style) — one big component.
    let mesh = triangular_mesh(300, 300);
    println!("mesh: {} vertices, {} edges", mesh.ncols(), mesh.nnz() / 2);
    let labels = connected_components(&mesh, AlgorithmKind::Bucket, SpMSpVOptions::default());
    let components = count_distinct(&labels);
    println!("  connected components: {components}");
    println!("  pseudo-diameter     : {}", pseudo_diameter(&mesh, 0, 3));

    let set = maximal_independent_set(&mesh, SpMSpVOptions::default(), 7);
    println!(
        "  maximal independent set: {} vertices ({:.1}% of the graph), valid = {}",
        set.len(),
        100.0 * set.len() as f64 / mesh.ncols() as f64,
        is_maximal_independent_set(&mesh, &set)
    );

    // A random geometric graph near the connectivity threshold usually has a
    // giant component plus a few stragglers.
    let rgg = random_geometric(30_000, 1.2, 5);
    println!("rgg : {} vertices, {} edges", rgg.ncols(), rgg.nnz() / 2);
    let labels = connected_components(&rgg, AlgorithmKind::Bucket, SpMSpVOptions::default());
    let components = count_distinct(&labels);
    let giant = largest_component_size(&labels);
    println!(
        "  connected components: {components} (largest holds {:.1}% of vertices)",
        100.0 * giant as f64 / rgg.ncols() as f64
    );
}

fn count_distinct(labels: &[usize]) -> usize {
    let mut sorted = labels.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

fn largest_component_size(labels: &[usize]) -> usize {
    let mut counts = std::collections::HashMap::new();
    for &l in labels {
        *counts.entry(l).or_insert(0usize) += 1;
    }
    counts.values().copied().max().unwrap_or(0)
}
