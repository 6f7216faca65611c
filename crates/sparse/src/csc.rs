//! Compressed Sparse Columns — the matrix format consumed by SpMSpV-bucket.
//!
//! CSC stores three arrays (`colptr`, `rowids`, `values`) exactly as
//! described in §II-C of the paper. Random access to the start of a column is
//! O(1), which is the property a vector-driven SpMSpV algorithm needs: only
//! the columns `A(:, j)` with `x(j) ≠ 0` are ever touched.

use std::sync::OnceLock;

use crate::coo::CooMatrix;
use crate::error::SparseError;
use crate::Scalar;

/// A sparse matrix in Compressed Sparse Columns format.
///
/// Invariants (checked by [`CscMatrix::validate`] and by construction):
///
/// * `colptr.len() == ncols + 1`, `colptr[0] == 0`,
///   `colptr[ncols] == nnz`, and `colptr` is non-decreasing;
/// * `rowids.len() == values.len() == nnz`;
/// * every `rowids[k] < nrows`;
/// * row ids inside each column are sorted ascending and unique
///   (this implementation always keeps columns sorted, matching what
///   CombBLAS produces and what the sorted-output experiments assume).
///
/// No method takes `&mut self`, so a property of the structure computed
/// once stays true for the matrix's lifetime:
/// [`CscMatrix::is_structurally_symmetric`] is cached that way.
#[derive(Debug, Clone)]
pub struct CscMatrix<T> {
    nrows: usize,
    ncols: usize,
    colptr: Vec<usize>,
    rowids: Vec<usize>,
    values: Vec<T>,
    symmetric: OnceLock<bool>,
}

/// Equality of dimensions and entries; the symmetry cache is not compared.
impl<T: PartialEq> PartialEq for CscMatrix<T> {
    fn eq(&self, other: &Self) -> bool {
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.colptr == other.colptr
            && self.rowids == other.rowids
            && self.values == other.values
    }
}

impl<T: Scalar> CscMatrix<T> {
    /// Builds a CSC matrix from raw parts, validating every invariant.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        colptr: Vec<usize>,
        rowids: Vec<usize>,
        values: Vec<T>,
    ) -> Result<Self, SparseError> {
        let m = CscMatrix { nrows, ncols, colptr, rowids, values, symmetric: OnceLock::new() };
        m.validate()?;
        Ok(m)
    }

    /// Builds a CSC matrix from triples. Duplicate entries are collapsed with
    /// the reducer `add` and columns are sorted by row id.
    pub fn from_coo(mut coo: CooMatrix<T>, add: impl Fn(T, T) -> T) -> Self {
        coo.sum_duplicates(add);
        let nrows = coo.nrows();
        let ncols = coo.ncols();
        let nnz = coo.nnz();
        let (rows, cols, vals) = coo.into_parts();

        let mut colptr = vec![0usize; ncols + 1];
        for &c in &cols {
            colptr[c + 1] += 1;
        }
        for j in 0..ncols {
            colptr[j + 1] += colptr[j];
        }
        // `sum_duplicates` left the triples sorted column-major, so a single
        // linear copy preserves sorted row ids within each column.
        let mut rowids = vec![0usize; nnz];
        let mut values = Vec::with_capacity(nnz);
        rowids.copy_from_slice(&rows);
        values.extend_from_slice(&vals);
        CscMatrix { nrows, ncols, colptr, rowids, values, symmetric: OnceLock::new() }
    }

    /// An `nrows × ncols` matrix with no stored entries.
    pub fn empty(nrows: usize, ncols: usize) -> Self {
        CscMatrix {
            nrows,
            ncols,
            colptr: vec![0; ncols + 1],
            rowids: Vec::new(),
            values: Vec::new(),
            symmetric: OnceLock::new(),
        }
    }

    /// The identity pattern: `I(i,i) = value` for square dimension `n`.
    pub fn identity(n: usize, value: T) -> Self {
        CscMatrix {
            nrows: n,
            ncols: n,
            colptr: (0..=n).collect(),
            rowids: (0..n).collect(),
            values: vec![value; n],
            symmetric: OnceLock::new(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Number of columns that contain at least one entry (`nzc` in the
    /// paper). Matrix-driven algorithms pay `O(nzc)` per multiplication.
    pub fn nonempty_cols(&self) -> usize {
        (0..self.ncols).filter(|&j| self.colptr[j + 1] > self.colptr[j]).count()
    }

    /// Structural fingerprint: FNV-1a over dimensions, column pointers, and
    /// row ids. Two matrices with the same sparsity pattern (values ignored
    /// — the element type carries no byte representation hook) hash equal;
    /// any structural drift — a shard serving the wrong column slice, a
    /// stale reload after the matrix changed shape — flips the digest.
    /// Remote shard hosts advertise this at dial time so the router can
    /// reject a misconfigured peer before it pollutes a merge.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |word: u64| {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(PRIME);
            }
        };
        mix(self.nrows as u64);
        mix(self.ncols as u64);
        for &p in &self.colptr {
            mix(p as u64);
        }
        for &r in &self.rowids {
            mix(r as u64);
        }
        h
    }

    /// Borrow of the column pointer array (`ncols + 1` entries).
    #[inline]
    pub fn colptr(&self) -> &[usize] {
        &self.colptr
    }

    /// Borrow of the row-id array (`nnz` entries).
    #[inline]
    pub fn rowids(&self) -> &[usize] {
        &self.rowids
    }

    /// Borrow of the value array (`nnz` entries).
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Number of stored entries in column `j`.
    #[inline]
    pub fn column_nnz(&self, j: usize) -> usize {
        self.colptr[j + 1] - self.colptr[j]
    }

    /// Row ids and values of column `j`, in ascending row order.
    #[inline]
    pub fn column(&self, j: usize) -> (&[usize], &[T]) {
        let lo = self.colptr[j];
        let hi = self.colptr[j + 1];
        (&self.rowids[lo..hi], &self.values[lo..hi])
    }

    /// Value at `(i, j)` if stored.
    pub fn get(&self, i: usize, j: usize) -> Option<&T> {
        let (rows, vals) = self.column(j);
        rows.binary_search(&i).ok().map(|k| &vals[k])
    }

    /// Iterates over all stored entries as `(row, col, &value)` in
    /// column-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, &T)> + '_ {
        (0..self.ncols).flat_map(move |j| {
            let (rows, vals) = self.column(j);
            rows.iter().zip(vals.iter()).map(move |(&i, v)| (i, j, v))
        })
    }

    /// Average number of entries per column (`d` in the paper's analysis).
    pub fn avg_column_degree(&self) -> f64 {
        if self.ncols == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.ncols as f64
        }
    }

    /// Maximum number of entries in any single column.
    pub fn max_column_degree(&self) -> usize {
        (0..self.ncols).map(|j| self.column_nnz(j)).max().unwrap_or(0)
    }

    /// Whether the sparsity pattern is symmetric: the matrix is square and
    /// `(i, j)` is stored exactly when `(j, i)` is (values are not
    /// compared). Then column `i` lists row `i`'s entries too, which is what
    /// lets a bottom-up SpMSpV scan a row without building the transpose.
    ///
    /// Computed on the first call, in one `O(nnz + n)` pass, and cached
    /// for the matrix's lifetime; a non-square matrix is answered without
    /// the pass.
    pub fn is_structurally_symmetric(&self) -> bool {
        self.nrows == self.ncols && *self.symmetric.get_or_init(|| self.pattern_is_symmetric())
    }

    /// The cached answer of [`CscMatrix::is_structurally_symmetric`], or
    /// `None` when no call has computed it yet.
    pub fn cached_symmetry(&self) -> Option<bool> {
        self.symmetric.get().copied()
    }

    /// The per-column cursor walk behind
    /// [`CscMatrix::is_structurally_symmetric`]: visiting the columns in
    /// ascending order, each entry `(i, j)` must meet its mirror `(j, i)`
    /// as the next unconsumed entry of column `i` (columns ascend, so
    /// mirrors are met in order), and every column must be consumed at
    /// the end.
    fn pattern_is_symmetric(&self) -> bool {
        let mut cursor = self.colptr[..self.ncols].to_vec();
        for j in 0..self.ncols {
            for &i in self.column(j).0 {
                if cursor[i] == self.colptr[i + 1] || self.rowids[cursor[i]] != j {
                    return false;
                }
                cursor[i] += 1;
            }
        }
        cursor.iter().zip(&self.colptr[1..]).all(|(c, end)| c == end)
    }

    /// Returns the transpose as a new CSC matrix.
    ///
    /// Implemented as a linear-time bucket scatter (Gustavson's
    /// "permuted transposition"), not via COO sorting.
    pub fn transpose(&self) -> CscMatrix<T> {
        let mut colptr = vec![0usize; self.nrows + 1];
        for &i in &self.rowids {
            colptr[i + 1] += 1;
        }
        for i in 0..self.nrows {
            colptr[i + 1] += colptr[i];
        }
        let mut rowids = vec![0usize; self.nnz()];
        let mut values: Vec<T> = Vec::with_capacity(self.nnz());
        // SAFETY-free approach: fill with placeholder copies of first value.
        if let Some(&first) = self.values.first() {
            values.resize(self.nnz(), first);
        }
        let mut cursor = colptr.clone();
        for j in 0..self.ncols {
            let (rows, vals) = self.column(j);
            for (&i, &v) in rows.iter().zip(vals.iter()) {
                let dst = cursor[i];
                rowids[dst] = j;
                values[dst] = v;
                cursor[i] += 1;
            }
        }
        CscMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            colptr,
            rowids,
            values,
            symmetric: OnceLock::new(),
        }
    }

    /// Splits the matrix row-wise into `pieces` stacked submatrices of
    /// (roughly) equal row counts, as the CombBLAS / GraphMat baselines do
    /// ahead of time. Piece `p` covers rows `[offsets[p], offsets[p+1])` of
    /// the original matrix; returned row ids are re-based to the piece.
    pub fn row_split(&self, pieces: usize) -> Vec<CscMatrix<T>> {
        assert!(pieces > 0, "cannot split into zero pieces");
        let bounds: Vec<usize> = (0..=pieces).map(|p| p * self.nrows / pieces).collect();
        let mut out = Vec::with_capacity(pieces);
        for p in 0..pieces {
            let (lo, hi) = (bounds[p], bounds[p + 1]);
            let mut colptr = vec![0usize; self.ncols + 1];
            let mut rowids = Vec::new();
            let mut values = Vec::new();
            for j in 0..self.ncols {
                let (rows, vals) = self.column(j);
                let start = rows.partition_point(|&r| r < lo);
                let end = rows.partition_point(|&r| r < hi);
                for k in start..end {
                    rowids.push(rows[k] - lo);
                    values.push(vals[k]);
                }
                colptr[j + 1] = rowids.len();
            }
            out.push(CscMatrix {
                nrows: hi - lo,
                ncols: self.ncols,
                colptr,
                rowids,
                values,
                symmetric: OnceLock::new(),
            });
        }
        out
    }

    /// Row offsets produced by [`CscMatrix::row_split`] for `pieces` pieces.
    pub fn row_split_offsets(&self, pieces: usize) -> Vec<usize> {
        (0..=pieces).map(|p| p * self.nrows / pieces).collect()
    }

    /// Extracts the column range `[range.start, range.end)` as a standalone
    /// `nrows × range.len()` matrix. Column `j` of the slice is column
    /// `range.start + j` of the original; the output dimension (rows) is
    /// untouched, which is what makes 1D column partitioning compose under a
    /// semiring: `A·x = ⊕ₚ Aₚ·xₚ` where each partial product is a
    /// full-height vector.
    ///
    /// In CSC this is a pure slice: `colptr[lo..=hi]` re-based by
    /// `colptr[lo]` plus the matching `rowids`/`values` windows — `O(ncols +
    /// nnz)` of the piece, no per-entry search.
    ///
    /// # Panics
    ///
    /// When the range is decreasing or extends past [`CscMatrix::ncols`].
    pub fn column_slice(&self, range: std::ops::Range<usize>) -> CscMatrix<T> {
        assert!(
            range.start <= range.end && range.end <= self.ncols,
            "column_slice range {range:?} out of bounds for {} columns",
            self.ncols
        );
        let base = self.colptr[range.start];
        let colptr: Vec<usize> =
            self.colptr[range.start..=range.end].iter().map(|&p| p - base).collect();
        let window = self.colptr[range.start]..self.colptr[range.end];
        CscMatrix {
            nrows: self.nrows,
            ncols: range.end - range.start,
            colptr,
            rowids: self.rowids[window.clone()].to_vec(),
            values: self.values[window].to_vec(),
            symmetric: OnceLock::new(),
        }
    }

    /// Splits the matrix column-wise at `bounds` (the CombBLAS-style 1D
    /// partition consumed by the `spmspv::shard` router): piece `p` is
    /// `self.column_slice(bounds[p]..bounds[p + 1])`. `bounds` must start at
    /// `0`, end at [`CscMatrix::ncols`], and be non-decreasing — exactly the
    /// shape a shard plan produces.
    ///
    /// # Panics
    ///
    /// When `bounds` is not a valid non-decreasing `0..=ncols` partition.
    pub fn column_split(&self, bounds: &[usize]) -> Vec<CscMatrix<T>> {
        assert!(
            bounds.first() == Some(&0) && bounds.last() == Some(&self.ncols),
            "column bounds must span 0..={} (got {bounds:?})",
            self.ncols
        );
        bounds.windows(2).map(|w| self.column_slice(w[0]..w[1])).collect()
    }

    /// Checks every structural invariant, returning a description of the
    /// first violation found.
    pub fn validate(&self) -> Result<(), SparseError> {
        if self.colptr.len() != self.ncols + 1 {
            return Err(SparseError::InvalidStructure(format!(
                "colptr has {} entries, expected ncols + 1 = {}",
                self.colptr.len(),
                self.ncols + 1
            )));
        }
        if self.rowids.len() != self.values.len() {
            return Err(SparseError::InvalidStructure(format!(
                "rowids ({}) and values ({}) differ in length",
                self.rowids.len(),
                self.values.len()
            )));
        }
        if *self.colptr.first().unwrap_or(&0) != 0 {
            return Err(SparseError::InvalidStructure("colptr[0] must be 0".into()));
        }
        if *self.colptr.last().unwrap_or(&0) != self.rowids.len() {
            return Err(SparseError::InvalidStructure("colptr[ncols] must equal nnz".into()));
        }
        for j in 0..self.ncols {
            if self.colptr[j] > self.colptr[j + 1] {
                return Err(SparseError::InvalidStructure(format!(
                    "colptr decreases at column {j}"
                )));
            }
            let col = &self.rowids[self.colptr[j]..self.colptr[j + 1]];
            for w in col.windows(2) {
                if w[0] >= w[1] {
                    return Err(SparseError::InvalidStructure(format!(
                        "row ids in column {j} are not strictly increasing"
                    )));
                }
            }
            if let Some(&last) = col.last() {
                if last >= self.nrows {
                    return Err(SparseError::InvalidStructure(format!(
                        "row id {last} in column {j} exceeds nrows {}",
                        self.nrows
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::figure1_matrix;

    #[test]
    fn from_coo_builds_valid_csc() {
        let a = figure1_matrix();
        assert_eq!(a.nrows(), 8);
        assert_eq!(a.ncols(), 8);
        assert_eq!(a.nnz(), 19);
        a.validate().expect("figure-1 matrix is structurally valid");
    }

    #[test]
    fn fingerprint_tracks_structure_not_values() {
        let a = figure1_matrix();
        assert_eq!(a.fingerprint(), figure1_matrix().fingerprint());
        // A different column slice of the same matrix is a different shape.
        let left = a.column_slice(0..4);
        let right = a.column_slice(4..8);
        assert_ne!(left.fingerprint(), right.fingerprint());
        assert_ne!(left.fingerprint(), a.fingerprint());
        // Equal-shaped empty slices agree regardless of provenance.
        let e1 = a.column_slice(0..0);
        let e2 = CscMatrix::<f64>::from_parts(8, 0, vec![0], vec![], vec![])
            .expect("empty matrix is valid");
        assert_eq!(e1.fingerprint(), e2.fingerprint());
    }

    #[test]
    fn column_access_returns_sorted_rows() {
        let a = figure1_matrix();
        let (rows, _vals) = a.column(2);
        assert_eq!(rows, &[0, 2, 3, 4]);
        assert_eq!(a.column_nnz(2), 4);
        assert_eq!(a.column_nnz(7), 1);
    }

    #[test]
    fn get_finds_stored_and_missing_entries() {
        let a = figure1_matrix();
        assert_eq!(a.get(2, 2).copied(), Some(16.0)); // 'p' is the 16th letter
        assert_eq!(a.get(5, 5), None);
    }

    #[test]
    fn duplicates_are_summed_during_construction() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 2.0);
        coo.push(0, 1, 3.0);
        let a = CscMatrix::from_coo(coo, |x, y| x + y);
        assert_eq!(a.nnz(), 1);
        assert_eq!(a.get(0, 1).copied(), Some(5.0));
    }

    #[test]
    fn identity_and_empty_constructors() {
        let i = CscMatrix::identity(4, 1.0);
        assert_eq!(i.nnz(), 4);
        assert_eq!(i.get(2, 2).copied(), Some(1.0));
        assert_eq!(i.get(2, 3), None);
        let e: CscMatrix<f64> = CscMatrix::empty(3, 5);
        assert_eq!(e.nnz(), 0);
        assert_eq!(e.nonempty_cols(), 0);
        e.validate().unwrap();
    }

    #[test]
    fn nonempty_cols_counts_nzc() {
        let a = figure1_matrix();
        assert_eq!(a.nonempty_cols(), 8);
        let mut coo = CooMatrix::new(4, 4);
        coo.push(0, 0, 1.0);
        coo.push(3, 2, 1.0);
        let b = CscMatrix::from_coo(coo, |x, _| x);
        assert_eq!(b.nonempty_cols(), 2);
    }

    #[test]
    fn transpose_is_involutive_and_swaps_entries() {
        let a = figure1_matrix();
        let t = a.transpose();
        assert_eq!(t.nrows(), a.ncols());
        assert_eq!(t.get(2, 0).copied(), a.get(0, 2).copied());
        assert_eq!(t.get(1, 0).copied(), a.get(0, 1).copied());
        let tt = t.transpose();
        assert_eq!(tt, a);
        t.validate().unwrap();
    }

    #[test]
    fn row_split_partitions_all_entries() {
        let a = figure1_matrix();
        for pieces in [1, 2, 3, 4, 8] {
            let parts = a.row_split(pieces);
            assert_eq!(parts.len(), pieces);
            let total: usize = parts.iter().map(|p| p.nnz()).sum();
            assert_eq!(total, a.nnz(), "pieces must cover every entry");
            let offsets = a.row_split_offsets(pieces);
            // Every entry must appear in the right piece at the re-based row.
            for (p, part) in parts.iter().enumerate() {
                part.validate().unwrap();
                assert_eq!(part.nrows(), offsets[p + 1] - offsets[p]);
                for (i, j, v) in part.iter() {
                    assert_eq!(a.get(i + offsets[p], j).copied(), Some(*v));
                }
            }
        }
    }

    #[test]
    fn column_slice_rebases_pointers_and_keeps_rows() {
        let a = figure1_matrix();
        let s = a.column_slice(2..6);
        s.validate().unwrap();
        assert_eq!(s.nrows(), a.nrows());
        assert_eq!(s.ncols(), 4);
        for j in 0..4 {
            assert_eq!(s.column(j), a.column(2 + j), "slice column {j}");
        }
        // Degenerate slices stay valid.
        let empty = a.column_slice(3..3);
        empty.validate().unwrap();
        assert_eq!(empty.ncols(), 0);
        assert_eq!(empty.nnz(), 0);
        assert_eq!(a.column_slice(0..8), a);
    }

    #[test]
    fn column_split_partitions_all_entries() {
        let a = figure1_matrix();
        for bounds in [vec![0, 8], vec![0, 3, 8], vec![0, 2, 2, 5, 8]] {
            let parts = a.column_split(&bounds);
            assert_eq!(parts.len(), bounds.len() - 1);
            let total: usize = parts.iter().map(|p| p.nnz()).sum();
            assert_eq!(total, a.nnz(), "pieces must cover every entry");
            for (p, part) in parts.iter().enumerate() {
                part.validate().unwrap();
                assert_eq!(part.nrows(), a.nrows());
                for (i, j, v) in part.iter() {
                    assert_eq!(a.get(i, j + bounds[p]).copied(), Some(*v));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "column bounds")]
    fn column_split_rejects_partial_bounds() {
        let a = figure1_matrix();
        let _ = a.column_split(&[0, 4]);
    }

    #[test]
    fn validate_rejects_broken_structures() {
        // colptr wrong length
        assert!(CscMatrix::from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // decreasing colptr
        assert!(CscMatrix::from_parts(2, 2, vec![0, 1, 0], vec![0], vec![1.0]).is_err());
        // row id out of bounds
        assert!(CscMatrix::from_parts(2, 2, vec![0, 1, 1], vec![5], vec![1.0]).is_err());
        // unsorted rows in a column
        assert!(CscMatrix::from_parts(3, 1, vec![0, 2], vec![2, 1], vec![1.0, 2.0]).is_err());
        // valid
        assert!(CscMatrix::from_parts(3, 1, vec![0, 2], vec![1, 2], vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn structural_symmetry_ignores_values_and_is_cached() {
        let mut coo = CooMatrix::new(4, 4);
        for (i, j, v) in [(0, 1, 1.0), (1, 0, 7.0), (2, 2, 1.0), (3, 1, 2.0), (1, 3, 5.0)] {
            coo.push(i, j, v);
        }
        let a = CscMatrix::from_coo(coo, |x, y| x + y);
        assert_eq!(a.cached_symmetry(), None);
        assert!(a.is_structurally_symmetric());
        assert_eq!(a.cached_symmetry(), Some(true));
        // The cache takes no part in equality.
        assert_eq!(a, a.column_slice(0..4));

        // One missing mirror, in the middle and at a column's end.
        assert!(!figure1_matrix().is_structurally_symmetric());
        for (i, j) in [(3, 0), (0, 3)] {
            let mut coo = CooMatrix::new(4, 4);
            coo.push(0, 1, 1.0);
            coo.push(1, 0, 1.0);
            coo.push(i, j, 1.0);
            assert!(!CscMatrix::from_coo(coo, |x, _| x).is_structurally_symmetric(), "({i}, {j})");
        }

        // A non-square matrix is answered without the pass.
        let slice = a.column_slice(0..3);
        assert!(!slice.is_structurally_symmetric());
        assert_eq!(slice.cached_symmetry(), None);
        assert!(CscMatrix::<f64>::identity(5, 1.0).is_structurally_symmetric());
        assert!(CscMatrix::<f64>::empty(3, 3).is_structurally_symmetric());
    }

    #[test]
    fn degree_statistics() {
        let a = figure1_matrix();
        assert!((a.avg_column_degree() - 19.0 / 8.0).abs() < 1e-12);
        assert_eq!(a.max_column_degree(), 4);
    }
}
