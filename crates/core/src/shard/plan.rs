//! Column-range partition plans, balanced by nnz.
//!
//! CombBLAS splits a matrix 1D by giving every processor a contiguous range
//! of columns. Splitting by *width* (equal column counts) is trivially
//! unfair on power-law graphs — one hub column can carry more entries than
//! a thousand tail columns — so [`ShardPlan::balanced`] walks the CSC
//! `colptr` prefix sums and places each boundary where the *entry count*
//! crosses the next `total · s / shards` threshold instead.

use std::sync::Arc;

use sparse_substrate::{CscMatrix, Scalar};

/// A 1D column partition: `shards + 1` non-decreasing boundaries over
/// `0..=ncols`. Shard `s` owns columns `[bounds[s], bounds[s + 1])`.
///
/// Construction never panics on degenerate inputs: an empty matrix yields a
/// single trivial shard, and a plan never has more shards than columns (nor
/// more shards than can each receive at least one column), so callers may
/// ask for "8 shards" of a 3-column matrix and get a valid 3-shard plan.
/// Plans may additionally carry one expected matrix [fingerprint] per shard
/// (see [`ShardPlan::with_fingerprints_of`]); the remote router checks them
/// against what each host advertises at dial time, so a misconfigured or
/// stale host is rejected before it can pollute a merge. Plans without
/// fingerprints skip that check (ranges and dimensions are always verified).
///
/// A plan read from a square, structurally symmetric matrix also keeps the
/// matrix's column degrees (its `colptr`). With them the router may *pull*
/// a request: every shard answers the rows it owns, and the answers are
/// concatenated (see the [module docs](super)). Only the two places that
/// read the whole matrix attach them: [`ShardPlan::with_fingerprints_of`],
/// whose fingerprints the dial-time check holds every remote host to, and
/// [`ShardedEngine::partition_with`](super::ShardedEngine::partition_with),
/// which slices the matrix itself. Any other plan scatters every request.
///
/// [fingerprint]: CscMatrix::fingerprint
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    ncols: usize,
    bounds: Vec<usize>,
    fingerprints: Option<Vec<u64>>,
    symmetric_colptr: Option<Arc<[usize]>>,
}

impl ShardPlan {
    /// An nnz-balanced plan over `matrix` with at most `shards` shards.
    ///
    /// Boundaries are placed where the cumulative entry count crosses each
    /// `total · s / shards` threshold, then deduplicated: when the nnz mass
    /// is too concentrated to support `shards` distinct pieces (e.g. all
    /// entries in one column), the plan simply has fewer shards. `shards ==
    /// 0` is treated as 1.
    pub fn balanced<T: Scalar>(matrix: &CscMatrix<T>, shards: usize) -> ShardPlan {
        Self::from_prefix_nnz(matrix.ncols(), matrix.colptr(), shards)
    }

    /// A width-balanced plan (equal column counts, ignoring nnz) — the
    /// baseline the nnz-balanced plan is measured against, and the fallback
    /// for matrices whose entry distribution is unknown.
    pub fn uniform(ncols: usize, shards: usize) -> ShardPlan {
        let shards = shards.max(1).min(ncols.max(1));
        let mut bounds = vec![0usize];
        for s in 1..shards {
            Self::push_bound(&mut bounds, s * ncols / shards, ncols);
        }
        Self::finish(bounds, ncols)
    }

    /// The balancing core, shared by CSC (whose `colptr` *is* the prefix-sum
    /// array) and any caller with cumulative per-column entry counts.
    /// `prefix` must have `ncols + 1` non-decreasing entries with
    /// `prefix[0] == 0`.
    pub fn from_prefix_nnz(ncols: usize, prefix: &[usize], shards: usize) -> ShardPlan {
        assert_eq!(prefix.len(), ncols + 1, "prefix sums must have ncols + 1 entries");
        let total = *prefix.last().expect("ncols + 1 >= 1 entries");
        let shards = shards.max(1);
        if total == 0 {
            // No mass to balance: fall back to width balance so an all-empty
            // (or entirely empty) matrix still spreads columns sensibly.
            return Self::uniform(ncols, shards);
        }
        let mut bounds = vec![0usize];
        for s in 1..shards {
            let target = total * s / shards;
            // partition_point: first column index whose cumulative nnz
            // exceeds the target — boundaries land between columns, never
            // splitting one column's entries.
            let cut = prefix.partition_point(|&c| c <= target).saturating_sub(1);
            Self::push_bound(&mut bounds, cut, ncols);
        }
        Self::finish(bounds, ncols)
    }

    /// Appends a candidate boundary, keeping bounds strictly increasing and
    /// inside `(last, ncols)`; unsatisfiable candidates are dropped (fewer
    /// shards), never clamped into overlap.
    fn push_bound(bounds: &mut Vec<usize>, cut: usize, ncols: usize) {
        let last = *bounds.last().expect("bounds start with 0");
        if cut > last && cut < ncols {
            bounds.push(cut);
        }
    }

    fn finish(mut bounds: Vec<usize>, ncols: usize) -> ShardPlan {
        bounds.push(ncols);
        ShardPlan { ncols, bounds, fingerprints: None, symmetric_colptr: None }
    }

    /// Builds a plan from explicit boundaries. `bounds` must start at 0, end
    /// at `ncols`, and increase strictly in between (no empty shards).
    ///
    /// # Panics
    ///
    /// When the boundary list is not a valid strict partition.
    pub fn from_bounds(ncols: usize, bounds: Vec<usize>) -> ShardPlan {
        assert!(
            bounds.first() == Some(&0) && bounds.last() == Some(&ncols),
            "bounds must span 0..={ncols} (got {bounds:?})"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) || ncols == 0 && bounds.len() == 2,
            "bounds must be strictly increasing (got {bounds:?})"
        );
        ShardPlan { ncols, bounds, fingerprints: None, symmetric_colptr: None }
    }

    /// Attaches the expected per-shard matrix fingerprints, computed from
    /// the full matrix by hashing each shard's column slice — exactly the
    /// digest a correctly-loaded [`ShardHost`](crate::net::ShardHost)
    /// advertises in its `Welcome`. A fingerprinted plan makes the remote
    /// dial handshake reject hosts whose slice structurally differs from
    /// what the router will merge against. When `matrix` is square and
    /// structurally symmetric, the plan also keeps its column degrees, so
    /// the router may pull (see the [type docs](ShardPlan)).
    ///
    /// # Panics
    ///
    /// When `matrix` does not have the plan's column count.
    pub fn with_fingerprints_of<T: Scalar>(self, matrix: &CscMatrix<T>) -> ShardPlan {
        assert_eq!(
            matrix.ncols(),
            self.ncols,
            "fingerprint matrix has {} columns, plan covers {}",
            matrix.ncols(),
            self.ncols
        );
        let fps = (0..self.num_shards()).map(|s| matrix.column_slice(self.range(s)).fingerprint());
        let fingerprints = Some(fps.collect());
        ShardPlan { fingerprints, ..self }.with_symmetry_of(matrix)
    }

    /// Keeps `matrix`'s column degrees when it is square and structurally
    /// symmetric (its cached flag: one `O(nnz)` pass the first time), and
    /// drops any it held otherwise. `matrix` has the plan's column count.
    pub(super) fn with_symmetry_of<T: Scalar>(self, matrix: &CscMatrix<T>) -> ShardPlan {
        let symmetric_colptr = matrix.is_structurally_symmetric().then(|| matrix.colptr().into());
        ShardPlan { symmetric_colptr, ..self }
    }

    /// The column degrees (`colptr`, `ncols + 1` prefix sums) of the
    /// square, structurally symmetric matrix the plan was read from, or
    /// `None` when the router must not pull.
    pub(super) fn symmetric_colptr(&self) -> Option<&[usize]> {
        self.symmetric_colptr.as_deref()
    }

    /// The expected matrix fingerprint for shard `s`, when the plan carries
    /// fingerprints. `None` means "don't verify".
    pub fn fingerprint(&self, s: usize) -> Option<u64> {
        self.fingerprints.as_ref().map(|fps| fps[s])
    }

    /// Number of shards in the plan (≥ 1).
    pub fn num_shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Total columns the plan partitions.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// The boundary array: `num_shards() + 1` entries spanning `0..=ncols`.
    pub fn bounds(&self) -> &[usize] {
        &self.bounds
    }

    /// The column range shard `s` owns.
    pub fn range(&self, s: usize) -> std::ops::Range<usize> {
        self.bounds[s]..self.bounds[s + 1]
    }
}

impl std::fmt::Display for ShardPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} shards over {} columns [", self.num_shards(), self.ncols)?;
        for (s, w) in self.bounds.windows(2).enumerate() {
            if s > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{}..{}", w[0], w[1])?;
        }
        f.write_str("]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_substrate::gen::{erdos_renyi, rmat, RmatParams};
    use sparse_substrate::CooMatrix;

    fn plan_nnz<T: Scalar>(a: &CscMatrix<T>, plan: &ShardPlan) -> Vec<usize> {
        (0..plan.num_shards()).map(|s| plan.range(s).map(|j| a.column_nnz(j)).sum()).collect()
    }

    fn assert_valid(plan: &ShardPlan, ncols: usize) {
        assert_eq!(plan.bounds().first(), Some(&0));
        assert_eq!(plan.bounds().last(), Some(&ncols));
        assert!(plan.num_shards() >= 1);
        assert!(plan.bounds().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn balanced_splits_follow_nnz_not_width() {
        // A power-law-ish matrix: the nnz-balanced plan must put far fewer
        // columns in the hub-heavy prefix than the uniform plan would.
        let a = rmat(10, 8, RmatParams::graph500(), 42);
        let plan = ShardPlan::balanced(&a, 4);
        assert_valid(&plan, a.ncols());
        let loads = plan_nnz(&a, &plan);
        let widest = loads.iter().max().unwrap();
        let uniform_loads = plan_nnz(&a, &ShardPlan::uniform(a.ncols(), 4));
        let uniform_widest = uniform_loads.iter().max().unwrap();
        assert!(
            widest <= uniform_widest,
            "nnz balance ({loads:?}) must not be worse than width balance ({uniform_loads:?})"
        );
        // No shard exceeds its fair share by more than one column's worth.
        let fair = a.nnz() / plan.num_shards();
        let max_col = a.max_column_degree();
        assert!(*widest <= fair + max_col, "widest {widest} vs fair {fair} + max col {max_col}");
    }

    #[test]
    fn owner_and_range_agree() {
        let a = erdos_renyi(100, 4.0, 7);
        let plan = ShardPlan::balanced(&a, 5);
        for col in 0..a.ncols() {
            let owners = (0..plan.num_shards()).filter(|&s| plan.range(s).contains(&col));
            assert_eq!(owners.count(), 1, "column {col} must be in exactly one shard's range");
        }
    }

    #[test]
    fn empty_matrix_yields_single_trivial_shard() {
        let a: CscMatrix<f64> = CscMatrix::empty(0, 0);
        let plan = ShardPlan::balanced(&a, 4);
        assert_valid(&plan, 0);
        assert_eq!(plan.num_shards(), 1);
        assert_eq!(plan.range(0), 0..0);
    }

    #[test]
    fn matrix_with_no_entries_balances_by_width() {
        let a: CscMatrix<f64> = CscMatrix::empty(6, 12);
        let plan = ShardPlan::balanced(&a, 3);
        assert_valid(&plan, 12);
        assert_eq!(plan.num_shards(), 3);
        assert_eq!(plan.bounds(), &[0, 4, 8, 12]);
    }

    #[test]
    fn all_nnz_in_one_column_collapses_to_fewer_shards() {
        // Every entry in column 2 of a 5-column matrix: no boundary can
        // separate the mass, so the plan must not panic and must stay valid.
        let mut coo = CooMatrix::new(8, 5);
        for i in 0..8 {
            coo.push(i, 2, 1.0);
        }
        let a = CscMatrix::from_coo(coo, |x, _| x);
        for shards in [1, 2, 3, 7] {
            let plan = ShardPlan::balanced(&a, shards);
            assert_valid(&plan, 5);
            assert!(plan.num_shards() <= shards.max(1));
            // Whatever the split, every entry is owned exactly once.
            assert_eq!(plan_nnz(&a, &plan).iter().sum::<usize>(), a.nnz());
        }
    }

    #[test]
    fn more_shards_than_columns_caps_at_columns() {
        let a = erdos_renyi(3, 2.0, 1);
        let plan = ShardPlan::balanced(&a, 16);
        assert_valid(&plan, 3);
        assert!(plan.num_shards() <= 3);
        let uniform = ShardPlan::uniform(3, 16);
        assert_eq!(uniform.num_shards(), 3);
    }

    #[test]
    fn zero_shards_is_treated_as_one() {
        let a = erdos_renyi(10, 2.0, 3);
        let plan = ShardPlan::balanced(&a, 0);
        assert_eq!(plan.num_shards(), 1);
        assert_eq!(plan.range(0), 0..10);
    }

    #[test]
    fn from_bounds_validates() {
        let plan = ShardPlan::from_bounds(10, vec![0, 4, 10]);
        assert_eq!(plan.num_shards(), 2);
        assert_eq!(plan.range(1), 4..10);
        assert_eq!(plan.to_string(), "2 shards over 10 columns [0..4, 4..10]");
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_bounds_rejects_empty_shards() {
        let _ = ShardPlan::from_bounds(10, vec![0, 4, 4, 10]);
    }

    #[test]
    fn only_a_symmetric_matrix_read_whole_lets_the_router_pull() {
        let a = rmat(8, 6, RmatParams::graph500(), 17);
        assert!(a.is_structurally_symmetric());
        let plan = ShardPlan::balanced(&a, 3);
        assert_eq!(plan.symmetric_colptr(), None, "a plan read from colptr alone never pulls");
        let fingerprinted = plan.clone().with_fingerprints_of(&a);
        assert_eq!(fingerprinted.symmetric_colptr(), Some(a.colptr()));
        // One entry without its mirror.
        let mut coo = CooMatrix::new(4, 4);
        coo.push(1, 0, 1.0);
        coo.push(2, 3, 1.0);
        coo.push(3, 2, 1.0);
        let lopsided = CscMatrix::from_coo(coo, |x, _| x);
        let plan = ShardPlan::uniform(4, 2).with_fingerprints_of(&lopsided);
        assert!(plan.fingerprint(0).is_some());
        assert_eq!(plan.symmetric_colptr(), None);
    }

    #[test]
    fn fingerprints_match_per_shard_slices() {
        let a = rmat(8, 6, RmatParams::graph500(), 17);
        let plan = ShardPlan::balanced(&a, 3);
        assert_eq!(plan.fingerprint(0), None, "plain plans carry no fingerprints");
        let plan = plan.with_fingerprints_of(&a);
        for s in 0..plan.num_shards() {
            assert_eq!(
                plan.fingerprint(s),
                Some(a.column_slice(plan.range(s)).fingerprint()),
                "shard {s}"
            );
        }
        // Distinct shards of an rmat graph hash differently.
        assert_ne!(plan.fingerprint(0), plan.fingerprint(1));
    }
}
