//! One seeded large-operand, BFS-shaped flush, shared by the engine and
//! shard suites. Their drawn operands are small, so under the flops rule
//! (`Executor::capped_for`) every lane they serve runs the sequential SPA
//! or a one-participant bucket kernel. This case's lanes reach the lane
//! runner's other paths: a bucket lane split over several participants,
//! Adaptive's bucket delegate, and Adaptive's pull. [`replay`] shows which
//! path each lane took.

use sparse_substrate::gen::erdos_renyi;
use sparse_substrate::ops::required_multiplications;
use sparse_substrate::{CooMatrix, CscMatrix, MaskBits, Select2ndMin, SparseVec};
use spmspv::baselines::SequentialSpa;
use spmspv::engine::MxvRequest;
use spmspv::{
    obs, AdaptiveSpMSpV, AlgorithmKind, BatchAlgorithmKind, Executor, MaskMode, MaskView, SpMSpV,
    SpMSpVOptions,
};

/// The participants every engine of the case is configured with.
pub const THREADS: usize = 4;

/// Vertices of the case's graph.
const N: usize = 4000;

/// One request: a frontier whose vertices carry their own ids (BFS's
/// ascending values) and, for a masked request, the visited set its
/// `¬visited` mask excludes.
pub struct Request {
    pub frontier: SparseVec<usize>,
    pub visited: Option<MaskBits>,
}

impl Request {
    fn new(vertices: impl Iterator<Item = usize>, visited: Option<MaskBits>) -> Request {
        let frontier = SparseVec::from_pairs(N, vertices.map(|v| (v, v)).collect())
            .expect("vertices are distinct and in range");
        Request { frontier, visited }
    }

    /// The request as an engine submits it.
    pub fn mxv(&self) -> MxvRequest<usize> {
        let request = MxvRequest::new(self.frontier.clone());
        match &self.visited {
            Some(bits) => request.mask(bits.clone(), MaskMode::Complement),
            None => request,
        }
    }

    fn mask(&self) -> Option<MaskView<'_>> {
        self.visited.as_ref().map(|bits| MaskView::new(bits, MaskMode::Complement))
    }
}

/// A symmetric Erdős–Rényi graph on 4 000 vertices at mean degree ~64.
pub fn matrix() -> CscMatrix<f64> {
    let a = erdos_renyi(N, 32.0, 2024);
    let mut coo = CooMatrix::new(N, N);
    for (i, j, &v) in a.iter() {
        coo.push(i, j, v);
    }
    coo.symmetrize();
    CscMatrix::from_coo(coo, |x, y| x + y)
}

/// Three requests in two mask groups:
///
/// * unmasked, 800 frontier vertices (~51k flops): a one-lane group, so
///   the batch is narrow and the lane runs on the kernel of all
///   [`THREADS`] participants, which its flops split four ways;
/// * `¬visited`, 400 frontier vertices with only 200 rows unvisited:
///   dense enough for Beamer's rule, so Adaptive pulls;
/// * `¬visited`, 3 vertices: too few flops to fork. With the pull lane it
///   makes a two-lane group that spreads, one one-thread kernel a lane.
pub fn requests() -> Vec<Request> {
    let dense_visited = MaskBits::from_indices(N, (0..N).filter(|i| i % 20 != 5));
    vec![
        Request::new((0..N).step_by(5), None),
        Request::new((0..N).step_by(10), Some(dense_visited)),
        Request::new(1..4, Some(MaskBits::from_indices(N, 1..4))),
    ]
}

/// The request's independent single-vector run on the sequential SPA: the
/// oracle every served lane must equal bit for bit.
pub fn sequential(a: &CscMatrix<f64>, r: &Request) -> SparseVec<usize> {
    let mut spa = SequentialSpa::new(a, SpMSpVOptions::with_threads(1));
    SpMSpV::<f64, usize, Select2ndMin>::multiply_masked(
        &mut spa,
        &r.frontier,
        &Select2ndMin,
        r.mask(),
    )
}

/// The family each request's lane ran and the participants it ran on, as
/// an engine of `kind` lanes at [`THREADS`] participants served
/// [`requests`] in one flush. The runner gives a group's lanes a kernel of
/// all participants when the group is narrow (its lanes earn two
/// participants each on average) and one-thread kernels otherwise; a lane's
/// family and participants then depend only on its frontier, mask and that
/// kernel's participants, so replaying it on such a kernel reproduces them.
pub fn replay(
    a: &CscMatrix<f64>,
    requests: &[Request],
    kind: BatchAlgorithmKind,
) -> Vec<(AlgorithmKind, usize)> {
    let flops = |r: &Request| required_multiplications(a, &r.frontier);
    let group_of = |r: &Request| r.visited.is_some();
    requests
        .iter()
        .map(|r| {
            let group: Vec<&Request> =
                requests.iter().filter(|o| group_of(o) == group_of(r)).collect();
            let earned = Executor::new(THREADS).capped_for(group.iter().map(|o| flops(o)).sum());
            let narrow = 2 * group.len() <= earned.threads();
            let lane_threads = if narrow { THREADS } else { 1 };
            let family = match kind {
                BatchAlgorithmKind::Bucket => AlgorithmKind::Bucket,
                BatchAlgorithmKind::Adaptive => {
                    let mut lane: AdaptiveSpMSpV<'_, f64, usize, Select2ndMin> =
                        AdaptiveSpMSpV::new(a, SpMSpVOptions::with_threads(lane_threads));
                    lane.multiply_masked(&r.frontier, &Select2ndMin, r.mask());
                    lane.last_choice().expect("the replay ran")
                }
            };
            let participants = match family {
                AlgorithmKind::Bucket => Executor::new(lane_threads).capped_for(flops(r)).threads(),
                _ => 1,
            };
            (family, participants)
        })
        .collect()
}

/// The global `adaptive.single.bucket` and `adaptive.single.pull` counts:
/// how many single-vector calls and lanes Adaptive has sent to each.
pub fn adaptive_picks() -> [u64; 2] {
    ["adaptive.single.bucket", "adaptive.single.pull"].map(|name| obs::global().counter(name).get())
}
