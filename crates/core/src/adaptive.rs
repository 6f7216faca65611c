//! Work-driven dispatch: pick the kernel family per call.
//!
//! The paper's central claim is *work-efficiency*: the bucket algorithm does
//! `O(flops)` work where SPA-based competitors pay `O(m)` for accumulator
//! setup. Generation stamps already removed the setup cost from every
//! accumulator in this workspace, but the bucket pipeline still pays a fixed
//! cost per call — buckets to fill and drain, and three fork-joins — that
//! only parallelism repays. §IV-D names the case where it does not: "when
//! the vector is very sparse … due to the scarcity of work for all threads".
//! And on a low-diameter graph even work-efficient push wastes most of its
//! work at the dense levels: it forms a product for every frontier edge,
//! when nearly every row it reaches has been reached already.
//!
//! [`AdaptiveSpMSpV`] therefore picks one of three families per call, from
//! `flops` (the call's exact flops, `Σ nnz(A(:, j))` over the frontier, one
//! `colptr` pass) and checks ordered cheapest first:
//!
//! 1. **Pull** ([`crate::pull`]) when Beamer's edge-count rule (Beamer,
//!    Asanović, Patterson, SC 2012) says the frontier is dense:
//!    `flops > m_u / α`, where `m_u` is the summed degree of the rows the
//!    mask keeps (the unvisited vertices, for BFS) and α is [`PULL_ALPHA`].
//!    Counting `m_u` costs `O(n/64)` plus the kept or the dropped rows,
//!    whichever are fewer, so the call must first pass gates that cost
//!    `O(1)` — a mask, `α · flops ≥ n` and a square matrix — then
//!    `O(nnz(x))` — the semiring's
//!    [`first_hit_decides`](sparse_substrate::Semiring::first_hit_decides)
//!    hook — then the matrix's cached
//!    [symmetry flag](sparse_substrate::CscMatrix::is_structurally_symmetric).
//!    An unmasked call, a large mesh (its frontiers hold `O(√n)` vertices),
//!    a column slice or a numeric semiring stops at the first gates, so
//!    only BFS-shaped calls on dense levels pay more than a comparison.
//!    A pulled call then goes straight to the scan, its exactness already
//!    checked, on the participants its kept rows earn under the same
//!    parallelism rule as rule 2 (`capped_for(kept)`; see
//!    [`crate::pull`] for the participant and block rules).
//! 2. Otherwise the workspace's one parallelism rule,
//!    [`Executor::capped_for`], says how many participants `flops` earn.
//!    One participant means the **sequential SPA**; more mean the
//!    **bucket kernel**, which then runs on exactly that many. Neither the
//!    frontier's entry count nor `m` enters this decision. A one-thread
//!    kernel never earns a second participant, so it never runs the bucket
//!    kernel (it still pulls where rule 1 says so).
//!
//! A [`LaneBatch`](crate::batch::LaneBatch) of Adaptive lanes applies the
//! same rules per lane: a lane spread over the pool runs on a one-thread
//! kernel and so runs pull on one participant or the sequential SPA (lanes
//! are a spread batch's parallel axis); the lanes of a narrow
//! batch run on the runner's kernel of `t` participants and decide by their
//! own frontier. Neither constant is settable: α is Beamer's, and
//! the parallelism rule's is measured (see [`Executor::capped_for`]). The
//! committed ledger under `benchmark/results/` (`adaptive.sequential_share`,
//! `executor.speedup`) is where a change to either has to show up.
//!
//! Every family reduces each row to the same value — push in
//! ascending-column order, pull by the first hit, which the hook says is
//! the same — so the dispatcher's choice never changes the result:
//! adaptive output is bit-identical to whichever kernel it delegates to,
//! which the property tests assert.

use sparse_substrate::ops::required_multiplications;
use sparse_substrate::{Scalar, Semiring, SparseVec};

use crate::algorithm::{AlgorithmKind, MatrixRef, SpMSpV, SpMSpVOptions};
use crate::baselines::SequentialSpa;
use crate::bucket::SpMSpVBucket;
use crate::executor::Executor;
use crate::masked::{MaskMode, MaskView};
use crate::pull::{self, SpMSpVPull};

/// Beamer's α: a call pulls when its push flops exceed `1/α` of the edges
/// left to check (`flops > m_u / α`). Pull stops each row at its first
/// frontier member, so it reads far less than `m_u`; α = 14 is the value
/// Beamer, Asanović and Patterson tuned. The rule is not sensitive to it
/// here: a prototype of this rule read 0.34×, 0.36× and 0.33× of push
/// alone at α = 4, 14 and 32 (seed-7 `rmat(17, 16)` BFS sweeps, 2-vCPU
/// guest).
///
/// Re-derived for split pull by a per-level probe: seed-7 `rmat(17, 16)`,
/// 16 probe-drawn sources, 102 masked `Select2ndMin` levels, each timed
/// best of 7 under pull and under the push family the flops rule picks,
/// three runs on a 2-vCPU guest. Summed kernel time of the levels as each α
/// dispatches them, in ms:
///
/// | α                 | t = 1, three runs   | t = 2, three runs  |
/// |-------------------|---------------------|--------------------|
/// | 4                 | 96.2 / 87.0 / 85.3  | 71.7 / 73.1 / 64.0 |
/// | 8                 | 95.7 / 87.2 / 84.4  | 67.9 / 69.3 / 61.0 |
/// | 14                | 100.4 / 92.9 / 89.0 | 61.7 / 63.2 / 57.2 |
/// | 32                | 103.2 / 95.7 / 91.9 | 62.6 / 64.0 / 57.8 |
/// | per-level minimum | 95.4 / 86.7 / 84.3  | 61.7 / 63.1 / 57.2 |
///
/// At t = 1 the rule still pulls where push is faster: on the 5–7 levels
/// of 354–522 frontier vertices with ~130.6 k rows left, pull read
/// 1.02–1.41× push, and α = 4 or 8 would save ~5 %. At t = 2, the default
/// on that guest, split pull turns those levels around (0.53–0.94× push)
/// and α = 14 sits on the per-level minimum, where α = 8 loses 7–10 %. The
/// one level left where pull loses is a last level of ~9 700 vertices over
/// ~41 k kept rows, almost all of them isolated vertices (≤ 0.2 ms). So α
/// stays 14; a rule aware of t would be a priced row term, not a second α.
pub const PULL_ALPHA: usize = 14;

/// [`AlgorithmKind::Adaptive`]: dispatches each single-vector call between
/// the bottom-up kernel, the parallel bucket kernel and the sequential SPA
/// (see the [module docs](self)). The delegates are instantiated lazily and
/// keep their workspaces across calls, exactly like a fixed-family
/// descriptor.
///
/// Every delegate reduces each row to the same value, so switching families
/// mid-traversal never changes a result.
pub struct AdaptiveSpMSpV<'a, A, X, S: Semiring<A, X>> {
    matrix: MatrixRef<'a, A>,
    options: SpMSpVOptions,
    executor: Executor,
    bucket: Option<SpMSpVBucket<'a, A, X, S>>,
    sequential: Option<SequentialSpa<'a, A, S::Output>>,
    pull: Option<SpMSpVPull<'a, A, S::Output>>,
    last: Option<AlgorithmKind>,
    unvisited_edge_counts: usize,
}

impl<'a, A, X, S> AdaptiveSpMSpV<'a, A, X, S>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X>,
{
    /// Prepares the dispatcher (no kernel is instantiated until the first
    /// call needs it).
    pub fn new(matrix: impl Into<MatrixRef<'a, A>>, options: SpMSpVOptions) -> Self {
        let executor = options.build_executor();
        AdaptiveSpMSpV {
            matrix: matrix.into(),
            options,
            executor,
            bucket: None,
            sequential: None,
            pull: None,
            last: None,
            unvisited_edge_counts: 0,
        }
    }

    /// The fixed family the most recent call delegated to (`None` before
    /// the first call).
    pub fn last_choice(&self) -> Option<AlgorithmKind> {
        self.last
    }

    /// How many calls passed every cheaper gate and counted `m_u`, the
    /// `O(n/64 + min(kept, dropped))` step of the pull rule.
    pub fn unvisited_edge_counts(&self) -> usize {
        self.unvisited_edge_counts
    }

    fn choose(
        &mut self,
        x: &SparseVec<X>,
        semiring: &S,
        mask: Option<MaskView<'_>>,
    ) -> AlgorithmKind {
        let flops = required_multiplications(&self.matrix, x);
        if mask.is_some_and(|mask| self.pull_pays(x, semiring, mask, flops)) {
            AlgorithmKind::Pull
        } else if self.executor.capped_for(flops).threads() == 1 {
            AlgorithmKind::Sequential
        } else {
            AlgorithmKind::Bucket
        }
    }

    /// Rule 1 of the [module docs](self): the gates cheapest first, then
    /// `α · flops > m_u`.
    fn pull_pays(
        &mut self,
        x: &SparseVec<X>,
        semiring: &S,
        mask: MaskView<'_>,
        flops: usize,
    ) -> bool {
        let matrix = &*self.matrix;
        let budget = PULL_ALPHA.saturating_mul(flops);
        if budget < matrix.nrows() || !pull::is_exact(matrix, x, semiring) {
            return false;
        }
        self.unvisited_edge_counts += 1;
        unvisited_edges(matrix.colptr(), mask) < budget
    }
}

/// `m_u`: the summed degree of the rows `mask` keeps, read from whichever
/// side of the mask has fewer rows — the kept rows, or the dropped ones,
/// whose degrees `nnz(A)` less is `m_u`. `colptr` is a square symmetric
/// matrix's, so column `i`'s entry count is row `i`'s degree. Early in a
/// BFS few vertices are visited and late few are left, so this walks
/// `O(n/64 + min(kept, dropped))`. The shard router applies the same rule
/// to a whole request with its plan's copy of `colptr`.
pub(crate) fn unvisited_edges(colptr: &[usize], mask: MaskView<'_>) -> usize {
    let bits = mask.bits();
    let degrees =
        |view: MaskView<'_>| -> usize { view.kept_rows().map(|i| colptr[i + 1] - colptr[i]).sum() };
    if 2 * mask.kept() <= bits.len() {
        degrees(mask)
    } else {
        let dropped = match mask.mode() {
            MaskMode::Keep => MaskMode::Complement,
            MaskMode::Complement => MaskMode::Keep,
        };
        colptr[bits.len()] - degrees(MaskView::new(bits, dropped))
    }
}

impl<'a, A, X, S> SpMSpV<A, X, S> for AdaptiveSpMSpV<'a, A, X, S>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X>,
{
    fn name(&self) -> &'static str {
        "Adaptive"
    }

    fn nrows(&self) -> usize {
        self.matrix.nrows()
    }

    fn ncols(&self) -> usize {
        self.matrix.ncols()
    }

    fn multiply(&mut self, x: &SparseVec<X>, semiring: &S) -> SparseVec<S::Output> {
        self.multiply_masked(x, semiring, None)
    }

    fn multiply_masked(
        &mut self,
        x: &SparseVec<X>,
        semiring: &S,
        mask: Option<MaskView<'_>>,
    ) -> SparseVec<S::Output> {
        let n = self.matrix.ncols();
        assert_eq!(
            x.len(),
            n,
            "input vector has dimension {} but the matrix has {n} columns",
            x.len()
        );
        if let Some(mask) = mask {
            mask.check_rows(self.matrix.nrows());
        }
        let choice = self.choose(x, semiring, mask);
        self.last = Some(choice);
        crate::obs::record_adaptive_single(choice);
        match choice {
            AlgorithmKind::Pull => {
                let pull = self.pull.get_or_insert_with(|| {
                    SpMSpVPull::new(self.matrix.clone(), self.options.clone())
                });
                // `pull_pays` checked exactness and `check_rows` the mask,
                // so the kernel does not check them again.
                pull.pull(x, semiring, mask.expect("only a masked call pulls"))
            }
            AlgorithmKind::Sequential => {
                let seq = self.sequential.get_or_insert_with(|| {
                    SequentialSpa::new(self.matrix.clone(), self.options.clone())
                });
                SpMSpV::<A, X, S>::multiply_masked(seq, x, semiring, mask)
            }
            _ => {
                let bucket = self.bucket.get_or_insert_with(|| {
                    SpMSpVBucket::new(self.matrix.clone(), self.options.clone())
                });
                bucket.multiply_masked(x, semiring, mask)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::LaneBatch;
    use sparse_substrate::fixtures::tridiagonal;
    use sparse_substrate::gen::{erdos_renyi, random_sparse_vec};
    use sparse_substrate::ops::spmspv_reference;
    use sparse_substrate::{
        CooMatrix, CscMatrix, MaskBits, PlusTimes, Select2ndMin, SparseVecBatch,
    };
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// An `m × m` star: column 0 (the hub) holds every row, and every other
    /// column `j` holds row `j` alone, so the mean column degree is under 2.
    fn star(m: usize) -> CscMatrix<f64> {
        let mut coo = CooMatrix::new(m, m);
        for i in 0..m {
            coo.push(i, 0, 1.0);
        }
        for j in 1..m {
            coo.push(j, j, 1.0);
        }
        CscMatrix::from_coo(coo, |a, b| a + b)
    }

    /// The hub's column as a one-entry frontier.
    fn hub(a: &CscMatrix<f64>) -> SparseVec<f64> {
        SparseVec::from_pairs(a.ncols(), vec![(0, 1.0)]).unwrap()
    }

    fn adaptive(a: &CscMatrix<f64>, threads: usize) -> AdaptiveSpMSpV<'_, f64, f64, PlusTimes> {
        AdaptiveSpMSpV::new(a, SpMSpVOptions::with_threads(threads))
    }

    /// The family `threads`-participant Adaptive picks for `x` over `a`.
    fn choice(a: &CscMatrix<f64>, threads: usize, x: &SparseVec<f64>) -> Option<AlgorithmKind> {
        let mut adaptive = adaptive(a, threads);
        let _ = adaptive.multiply(x, &PlusTimes);
        adaptive.last_choice()
    }

    /// `Select2ndMin`, counting the calls of its `first_hit_decides` hook.
    #[derive(Default)]
    struct CountingHook(AtomicUsize);

    impl Semiring<f64, usize> for CountingHook {
        type Output = usize;

        fn zero(&self) -> usize {
            Semiring::<f64, usize>::zero(&Select2ndMin)
        }

        fn multiply(&self, a: &f64, x: &usize) -> usize {
            Select2ndMin.multiply(a, x)
        }

        fn add(&self, lhs: usize, rhs: usize) -> usize {
            Semiring::<f64, usize>::add(&Select2ndMin, lhs, rhs)
        }

        fn first_hit_decides(&self, x: &[usize]) -> bool {
            self.0.fetch_add(1, Ordering::Relaxed);
            Semiring::<f64, usize>::first_hit_decides(&Select2ndMin, x)
        }
    }

    #[test]
    fn a_pulled_call_checks_exactness_once() {
        // Frontier {3, 4} of a 10-vertex path with 2, 3 and 4 visited:
        // α · 6 flops pass both `n` and the 19 edges left.
        let a = tridiagonal(10);
        let x = SparseVec::from_pairs(10, vec![(3, 3), (4, 4)]).unwrap();
        let visited = MaskBits::from_indices(10, [2, 3, 4]);
        let mask = Some(MaskView::new(&visited, MaskMode::Complement));
        let expected = SparseVec::from_pairs(10, vec![(5, 4)]).unwrap();

        let hook = CountingHook::default();
        let mut adaptive = AdaptiveSpMSpV::new(&a, SpMSpVOptions::with_threads(2));
        assert_eq!(adaptive.multiply_masked(&x, &hook, mask), expected);
        assert_eq!(adaptive.last_choice(), Some(AlgorithmKind::Pull));
        assert_eq!(hook.0.load(Ordering::Relaxed), 1, "Adaptive pulled");

        // The standalone family checks for itself.
        let hook = CountingHook::default();
        let mut pull = SpMSpVPull::new(&a, SpMSpVOptions::with_threads(2));
        assert_eq!(pull.multiply_masked(&x, &hook, mask), expected);
        assert_eq!(hook.0.load(Ordering::Relaxed), 1, "Pull pulled");
    }

    #[test]
    fn single_adaptive_matches_its_delegates() {
        let a = erdos_renyi(3000, 8.0, 5);
        let opts = SpMSpVOptions::with_threads(2);
        let mut seen = Vec::new();
        // ~8 flops per frontier entry: 1 and 4 entries earn one participant,
        // 2500 (~20k flops) earn two.
        for nnz in [1usize, 4, 2500] {
            let x = random_sparse_vec(3000, nnz, 7 + nnz as u64);
            let mut adaptive: AdaptiveSpMSpV<'_, f64, f64, PlusTimes> =
                AdaptiveSpMSpV::new(&a, opts.clone());
            let y = adaptive.multiply(&x, &PlusTimes);
            let choice = adaptive.last_choice().expect("ran above");
            let mut fixed = crate::build_algorithm::<f64, f64, PlusTimes>(&a, choice, opts.clone());
            assert_eq!(y, fixed.multiply(&x, &PlusTimes), "adaptive ≠ its {choice} delegate");
            let expected = spmspv_reference(&a, &x, &PlusTimes);
            assert!(y.approx_same_entries(&expected, 1e-9));
            seen.push(choice);
        }
        assert_eq!(
            seen,
            [AlgorithmKind::Sequential, AlgorithmKind::Sequential, AlgorithmKind::Bucket],
            "the frontier sizes must cross the fork threshold"
        );
    }

    #[test]
    fn tiny_sorted_frontiers_go_sequential_big_ones_bucket() {
        let a = erdos_renyi(3000, 8.0, 3);
        let tiny = random_sparse_vec(3000, 2, 1);
        let big = random_sparse_vec(3000, 2500, 2);
        assert_eq!(choice(&a, 4, &tiny), Some(AlgorithmKind::Sequential));
        assert_eq!(choice(&a, 4, &big), Some(AlgorithmKind::Bucket));

        // One-thread Adaptive is `Sequential` at any m and any flops: the
        // same big frontier, a one-entry frontier on a 2¹⁷ + 1-row hub, and
        // every column of a 2¹⁷ + 1-row tridiagonal.
        assert_eq!(choice(&a, 1, &big), Some(AlgorithmKind::Sequential));
        let tall_star = star((1 << 17) + 1);
        assert_eq!(choice(&tall_star, 1, &hub(&tall_star)), Some(AlgorithmKind::Sequential));
        let tall = tridiagonal((1 << 17) + 1);
        let all =
            SparseVec::from_pairs(tall.ncols(), (0..tall.ncols()).map(|j| (j, 1.0)).collect());
        assert_eq!(choice(&tall, 1, &all.unwrap()), Some(AlgorithmKind::Sequential));
    }

    #[test]
    fn the_rule_reads_exact_flops_not_frontier_size() {
        // ~1 000 tridiagonal entries, ~3 000 flops: many entries, too little
        // work for a second participant.
        let tri = tridiagonal(4000);
        let wide = random_sparse_vec(4000, 1000, 5);
        assert_eq!(choice(&tri, 2, &wide), Some(AlgorithmKind::Sequential));
        let flops = required_multiplications(&tri, &wide);
        assert!((2500..3100).contains(&flops), "{flops} flops");
        assert_eq!(Executor::new(2).capped_for(flops).threads(), 1);

        // One entry on a 16 384-entry hub column: a single entry, enough
        // work for two participants.
        let star = star(1 << 14);
        let one = hub(&star);
        let mut two = adaptive(&star, 2);
        let y = two.multiply(&one, &PlusTimes);
        assert_eq!(two.last_choice(), Some(AlgorithmKind::Bucket));
        assert_eq!(y, spmspv_reference(&star, &one, &PlusTimes));
        let flops = required_multiplications(&star, &one);
        assert_eq!(flops, 1 << 14);
        assert_eq!(Executor::new(2).capped_for(flops).threads(), 2);
    }

    #[test]
    fn batch_adaptive_family_decision() {
        // Each lane decides for itself. A narrow batch (2k at most the
        // participants the batch earns) runs on the runner's kernel of t
        // participants, where a lane of ~20k flops earns two and runs the
        // bucket kernel; lanes spread over the pool run on one-thread
        // kernels, which always run the sequential SPA. A lane's choice
        // depends only on its frontier, mask and participants, so an
        // Adaptive kernel of the same participants, replaying the lane,
        // makes the lane kernel's choice.
        let a = erdos_renyi(4000, 8.0, 9);
        let opts = SpMSpVOptions::with_threads(2);
        let batch = |k: usize, nnz: usize| {
            let lanes: Vec<_> =
                (0..k).map(|l| random_sparse_vec(4000, nnz, 40 + l as u64)).collect();
            SparseVecBatch::from_lanes(&lanes).unwrap()
        };
        let replay = |threads: usize, x: &SparseVec<f64>| {
            let mut kernel = adaptive(&a, threads);
            let y = kernel.multiply(x, &PlusTimes);
            (y, kernel.last_choice())
        };
        let mut alg: LaneBatch<'_, f64, f64, PlusTimes> =
            LaneBatch::new(&a, AlgorithmKind::Adaptive, opts);

        let one = batch(1, 2500);
        let y = alg.multiply_batch(&one, &PlusTimes);
        // A narrow batch runs on the kernel of t and never checks out a
        // one-thread kernel.
        assert_eq!(alg.kernels(), (true, 0));
        let (expected, choice) = replay(2, one.lane(0));
        assert_eq!(choice, Some(AlgorithmKind::Bucket));
        assert_eq!(y.lane(0), &expected);

        let four = batch(4, 2500);
        let y = alg.multiply_batch(&four, &PlusTimes);
        let (_, idle) = alg.kernels();
        assert!((1..=2).contains(&idle), "{idle} one-thread kernels");
        for l in 0..4 {
            let (expected, choice) = replay(1, four.lane(l));
            assert_eq!(choice, Some(AlgorithmKind::Sequential), "lane {l}");
            assert_eq!(y.lane(l), &expected, "lane {l}");
            let reference = spmspv_reference(&a, four.lane(l), &PlusTimes);
            assert!(y.lane(l).approx_same_entries(&reference, 1e-9), "lane {l}");
        }
    }
}
