//! Input generation. Everything here is benchmark work: it runs before any
//! clock starts, is a pure function of the seed, and the library under test
//! only ever sees the generated values.

use std::collections::VecDeque;
use std::sync::Arc;

use sparse_substrate::gen::{random_sparse_vec, rmat, triangular_mesh, RmatParams};
use sparse_substrate::{CscMatrix, MaskBits, SparseVec};

use crate::json::Json;

/// splitmix64 — small, seedable, and independent of the vendored `rand` shim
/// the library's generators use.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// The graph a workload runs over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphSpec {
    /// R-MAT with Graph500 skew: `2^scale` vertices, `edge_factor` edges per
    /// vertex before symmetrization and de-duplication.
    Rmat { scale: u32, edge_factor: usize },
    /// `triangular_mesh(rows, cols)`: degree ≈ 6, diameter ≈ rows + cols.
    Mesh { rows: usize, cols: usize },
}

impl GraphSpec {
    pub fn generate(&self, seed: u64) -> CscMatrix<f64> {
        match *self {
            GraphSpec::Rmat { scale, edge_factor } => {
                rmat(scale, edge_factor, RmatParams::graph500(), seed)
            }
            GraphSpec::Mesh { rows, cols } => triangular_mesh(rows, cols),
        }
    }

    pub fn describe(&self) -> String {
        match *self {
            GraphSpec::Rmat { scale, edge_factor } => {
                format!("rmat scale {scale}, edge factor {edge_factor}, Graph500 skew")
            }
            GraphSpec::Mesh { rows, cols } => format!("triangular_mesh({rows}, {cols})"),
        }
    }
}

/// Bytes the CSC arrays occupy (computed from array lengths, not measured).
fn matrix_bytes(a: &CscMatrix<f64>) -> usize {
    std::mem::size_of_val(a.colptr())
        + std::mem::size_of_val(a.rowids())
        + std::mem::size_of_val(a.values())
}

/// The generated matrix's size, for the results file: its bytes sit next to
/// the host's LLC size there.
pub fn matrix_info(a: &CscMatrix<f64>) -> Vec<(&'static str, Json)> {
    vec![
        ("vertices", Json::Int(a.ncols() as i64)),
        ("nnz", Json::Int(a.nnz() as i64)),
        ("matrix_bytes", Json::Int(matrix_bytes(a) as i64)),
    ]
}

/// Level of an unreached vertex in [`ReferenceBfs::levels`].
pub const UNREACHED: u32 = u32::MAX;

/// Queue-based BFS written here, independent of the library: the oracle the
/// output checks compare against and the filter source selection uses.
#[derive(Debug, Clone)]
pub struct ReferenceBfs {
    pub source: usize,
    pub levels: Vec<u32>,
    pub reached: usize,
    /// Level of the farthest vertex.
    pub depth: u32,
}

pub fn reference_bfs(a: &CscMatrix<f64>, source: usize) -> ReferenceBfs {
    let mut levels = vec![UNREACHED; a.ncols()];
    levels[source] = 0;
    let mut queue = VecDeque::from([source]);
    let (mut reached, mut depth) = (1usize, 0u32);
    while let Some(v) = queue.pop_front() {
        let next = levels[v] + 1;
        for &u in a.column(v).0 {
            if levels[u] == UNREACHED {
                levels[u] = next;
                depth = next;
                reached += 1;
                queue.push_back(u);
            }
        }
    }
    ReferenceBfs { source, levels, reached, depth }
}

/// Draws `count` distinct BFS sources whose reference traversal reaches at
/// least a quarter of the graph and, when a band is given, whose depth lies
/// inside it — so every traversal of a workload does comparable work
/// whatever the seed. Returns each source with its reference traversal.
pub fn pick_sources(
    a: &CscMatrix<f64>,
    rng: &mut Rng,
    count: usize,
    depth_band: Option<(u32, u32)>,
) -> Vec<ReferenceBfs> {
    let n = a.ncols();
    let mut picked: Vec<ReferenceBfs> = Vec::with_capacity(count);
    let mut draws = 0usize;
    while picked.len() < count {
        draws += 1;
        assert!(draws <= 200 * count + 1000, "no admissible BFS sources in this graph");
        let candidate = rng.below(n);
        if a.column_nnz(candidate) == 0 || picked.iter().any(|p| p.source == candidate) {
            continue;
        }
        let reference = reference_bfs(a, candidate);
        let deep_enough = depth_band.is_none_or(|(lo, hi)| (lo..=hi).contains(&reference.depth));
        if reference.reached * 4 >= n && deep_enough {
            picked.push(reference);
        }
    }
    picked
}

/// One pre-generated `serve_mixed` request.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    pub frontier: SparseVec<f64>,
    pub masked: bool,
}

/// The `serve_mixed` request pool: frontier nnz log-uniform in
/// `nnz_lo..=nnz_hi`, sorted by index, one request in three carrying the
/// shared half-density mask. Also returns that mask.
///
/// The sizes are the `count` evenly spaced quantiles of the log-uniform
/// distribution, in an order the seed draws: every seed's pool holds the
/// same amount of work, and only where the nonzeros fall, which requests are
/// masked and the order they arrive in vary.
pub fn serve_requests(
    n: usize,
    rng: &mut Rng,
    count: usize,
    nnz_lo: usize,
    nnz_hi: usize,
) -> (Vec<ServeRequest>, Arc<MaskBits>) {
    let mut mask = MaskBits::new(n);
    for i in 0..n {
        if rng.next_u64() & 1 == 1 {
            mask.insert(i);
        }
    }
    let span = (nnz_hi as f64 / nnz_lo as f64).ln();
    let mut sizes: Vec<usize> = (0..count)
        .map(|i| {
            let quantile = (i as f64 + 0.5) / count as f64;
            ((nnz_lo as f64 * (quantile * span).exp()).round() as usize).clamp(nnz_lo, nnz_hi)
        })
        .collect();
    for i in (1..count).rev() {
        sizes.swap(i, rng.below(i + 1));
    }
    let requests = sizes
        .into_iter()
        .enumerate()
        .map(|(i, nnz)| {
            let mut frontier = random_sparse_vec(n, nnz, rng.next_u64());
            frontier.sort_by_index();
            ServeRequest { frontier, masked: i % 3 == 2 }
        })
        .collect();
    (requests, Arc::new(mask))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let spec = GraphSpec::Rmat { scale: 8, edge_factor: 8 };
        let (a, b) = (spec.generate(5), spec.generate(5));
        assert_eq!(a.fingerprint(), b.fingerprint());
        let pick = |seed| {
            pick_sources(&a, &mut Rng::new(seed), 4, None)
                .iter()
                .map(|r| r.source)
                .collect::<Vec<_>>()
        };
        assert_eq!(pick(11), pick(11));
        assert_ne!(pick(11), pick(12));
    }

    #[test]
    fn reference_bfs_on_a_mesh_has_the_closed_form_depth() {
        let a = GraphSpec::Mesh { rows: 6, cols: 6 }.generate(0);
        // Corner on the main diagonal: every vertex within max(dr, dc).
        let r = reference_bfs(&a, 0);
        assert_eq!((r.reached, r.depth), (36, 5));
        // The anti-diagonal corner is 5 + 5 hops from its opposite.
        assert_eq!(reference_bfs(&a, 5).depth, 10);
    }

    #[test]
    fn picked_sources_respect_reach_and_depth_band() {
        let a = GraphSpec::Mesh { rows: 12, cols: 12 }.generate(0);
        for r in pick_sources(&a, &mut Rng::new(3), 5, Some((11, 13))) {
            assert!((11..=13).contains(&r.depth) && r.reached * 4 >= a.ncols());
        }
    }

    #[test]
    fn serve_requests_stay_inside_their_nnz_range() {
        let (requests, mask) = serve_requests(4096, &mut Rng::new(9), 60, 16, 512);
        assert_eq!(requests.len(), 60);
        assert!(requests.iter().all(|r| (16..=512).contains(&r.frontier.nnz())));
        assert!(requests.iter().all(|r| r.frontier.is_sorted()));
        assert_eq!(requests.iter().filter(|r| r.masked).count(), 20);
        let density = mask.count() as f64 / 4096.0;
        assert!((0.4..0.6).contains(&density), "mask density {density}");
    }
}
