//! Coordinate (triple) format — the construction and interchange format.
//!
//! Every generator and the Matrix Market reader produce a [`CooMatrix`];
//! the compressed formats ([`crate::CscMatrix`], [`crate::DcscMatrix`]) are
//! built from it.

use crate::error::SparseError;
use crate::Scalar;

/// A sparse matrix stored as a list of `(row, col, value)` triples.
///
/// Duplicates are allowed until [`CooMatrix::sum_duplicates`] (or a
/// conversion that calls it) collapses them. The triples are in arbitrary
/// order unless [`CooMatrix::sort_column_major`] has been called.
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix<T> {
    nrows: usize,
    ncols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    values: Vec<T>,
}

impl<T: Scalar> CooMatrix<T> {
    /// Creates an empty matrix of the given shape.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooMatrix { nrows, ncols, rows: Vec::new(), cols: Vec::new(), values: Vec::new() }
    }

    /// Creates an empty matrix with room for `cap` triples.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            values: Vec::with_capacity(cap),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored triples (duplicates counted individually).
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Whether no triples are stored.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Appends one entry. Panics in debug builds if out of bounds; use
    /// [`CooMatrix::try_push`] for checked insertion.
    pub fn push(&mut self, row: usize, col: usize, value: T) {
        debug_assert!(row < self.nrows && col < self.ncols, "({row},{col}) out of bounds");
        self.rows.push(row);
        self.cols.push(col);
        self.values.push(value);
    }

    /// Appends one entry, returning an error when it is out of bounds.
    pub fn try_push(&mut self, row: usize, col: usize, value: T) -> Result<(), SparseError> {
        if row >= self.nrows || col >= self.ncols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col,
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        self.push(row, col, value);
        Ok(())
    }

    /// Iterates over `(row, col, value)` triples in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, &T)> + '_ {
        self.rows
            .iter()
            .zip(self.cols.iter())
            .zip(self.values.iter())
            .map(|((&r, &c), v)| (r, c, v))
    }

    /// Borrow of the underlying triple arrays `(rows, cols, values)`.
    pub fn parts(&self) -> (&[usize], &[usize], &[T]) {
        (&self.rows, &self.cols, &self.values)
    }

    /// Sorts triples by `(col, row)`, the order required by CSC construction.
    pub fn sort_column_major(&mut self) {
        let mut perm: Vec<usize> = (0..self.nnz()).collect();
        perm.sort_unstable_by_key(|&k| (self.cols[k], self.rows[k]));
        self.apply_permutation(&perm);
    }

    fn apply_permutation(&mut self, perm: &[usize]) {
        self.rows = perm.iter().map(|&k| self.rows[k]).collect();
        self.cols = perm.iter().map(|&k| self.cols[k]).collect();
        self.values = perm.iter().map(|&k| self.values[k]).collect();
    }

    /// Collapses duplicate `(row, col)` entries with the reducer `add`.
    ///
    /// After this call the triples are sorted column-major and unique.
    pub fn sum_duplicates(&mut self, add: impl Fn(T, T) -> T) {
        if self.is_empty() {
            return;
        }
        self.sort_column_major();
        let mut out_r = Vec::with_capacity(self.nnz());
        let mut out_c = Vec::with_capacity(self.nnz());
        let mut out_v: Vec<T> = Vec::with_capacity(self.nnz());
        for k in 0..self.nnz() {
            let (r, c, v) = (self.rows[k], self.cols[k], self.values[k]);
            if let (Some(&lr), Some(&lc)) = (out_r.last(), out_c.last()) {
                if lr == r && lc == c {
                    let last = out_v.last_mut().expect("values tracks rows");
                    *last = add(*last, v);
                    continue;
                }
            }
            out_r.push(r);
            out_c.push(c);
            out_v.push(v);
        }
        self.rows = out_r;
        self.cols = out_c;
        self.values = out_v;
    }

    /// Returns the transpose (rows and columns swapped), preserving values.
    pub fn transpose(&self) -> Self {
        CooMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            rows: self.cols.clone(),
            cols: self.rows.clone(),
            values: self.values.clone(),
        }
    }

    /// Adds the transpose of every entry, producing a structurally symmetric
    /// pattern. Diagonal entries are kept once. Useful for turning directed
    /// generator output into undirected adjacency matrices like the paper's
    /// test graphs.
    pub fn symmetrize(&mut self) {
        let n = self.nnz();
        for k in 0..n {
            let (r, c) = (self.rows[k], self.cols[k]);
            if r != c {
                self.rows.push(c);
                self.cols.push(r);
                self.values.push(self.values[k]);
            }
        }
    }

    /// Removes entries on the main diagonal.
    pub fn drop_diagonal(&mut self) {
        let mut keep = Vec::with_capacity(self.nnz());
        for k in 0..self.nnz() {
            keep.push(self.rows[k] != self.cols[k]);
        }
        let mut idx = 0;
        self.rows.retain(|_| {
            let k = keep[idx];
            idx += 1;
            k
        });
        idx = 0;
        self.cols.retain(|_| {
            let k = keep[idx];
            idx += 1;
            k
        });
        idx = 0;
        self.values.retain(|_| {
            let k = keep[idx];
            idx += 1;
            k
        });
    }

    /// Consumes the matrix and returns the triple arrays.
    pub fn into_parts(self) -> (Vec<usize>, Vec<usize>, Vec<T>) {
        (self.rows, self.cols, self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CooMatrix<f64> {
        let mut m = CooMatrix::new(3, 4);
        m.push(0, 0, 1.0);
        m.push(2, 1, 2.0);
        m.push(1, 1, 3.0);
        m.push(0, 3, 4.0);
        m
    }

    #[test]
    fn push_and_iter_roundtrip() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 4);
        let triples: Vec<_> = m.iter().map(|(r, c, &v)| (r, c, v)).collect();
        assert_eq!(triples[0], (0, 0, 1.0));
        assert_eq!(triples[3], (0, 3, 4.0));
    }

    #[test]
    fn try_push_rejects_out_of_bounds() {
        let mut m = sample();
        assert!(m.try_push(3, 0, 1.0).is_err());
        assert!(m.try_push(0, 4, 1.0).is_err());
        assert!(m.try_push(2, 3, 1.0).is_ok());
    }

    #[test]
    fn sort_column_major_orders_by_col_then_row() {
        let mut m = sample();
        m.sort_column_major();
        let triples: Vec<_> = m.iter().map(|(r, c, &v)| (r, c, v)).collect();
        assert_eq!(triples, vec![(0, 0, 1.0), (1, 1, 3.0), (2, 1, 2.0), (0, 3, 4.0)]);
    }

    #[test]
    fn sum_duplicates_collapses_and_adds() {
        let mut m = CooMatrix::new(2, 2);
        m.push(0, 0, 1.0);
        m.push(0, 0, 2.5);
        m.push(1, 1, 3.0);
        m.push(0, 0, 0.5);
        m.sum_duplicates(|a, b| a + b);
        assert_eq!(m.nnz(), 2);
        let triples: Vec<_> = m.iter().map(|(r, c, &v)| (r, c, v)).collect();
        assert_eq!(triples, vec![(0, 0, 4.0), (1, 1, 3.0)]);
    }

    #[test]
    fn transpose_swaps_shape_and_indices() {
        let t = sample().transpose();
        assert_eq!(t.nrows(), 4);
        assert_eq!(t.ncols(), 3);
        let triples: Vec<_> = t.iter().map(|(r, c, &v)| (r, c, v)).collect();
        assert!(triples.contains(&(3, 0, 4.0)));
        assert!(triples.contains(&(1, 2, 2.0)));
    }

    #[test]
    fn symmetrize_mirrors_off_diagonal_entries() {
        let mut m = CooMatrix::new(3, 3);
        m.push(0, 1, 1.0);
        m.push(2, 2, 5.0);
        m.symmetrize();
        assert_eq!(m.nnz(), 3); // (0,1), (2,2), (1,0)
        let triples: Vec<_> = m.iter().map(|(r, c, &v)| (r, c, v)).collect();
        assert!(triples.contains(&(1, 0, 1.0)));
    }

    #[test]
    fn drop_diagonal_removes_only_diagonal() {
        let mut m = CooMatrix::new(3, 3);
        m.push(0, 0, 1.0);
        m.push(1, 2, 2.0);
        m.push(2, 2, 3.0);
        m.drop_diagonal();
        assert_eq!(m.nnz(), 1);
        let triples: Vec<_> = m.iter().map(|(r, c, &v)| (r, c, v)).collect();
        assert_eq!(triples, vec![(1, 2, 2.0)]);
    }

    #[test]
    fn empty_matrix_operations_are_noops() {
        let mut m: CooMatrix<f64> = CooMatrix::new(5, 5);
        m.sum_duplicates(|a, b| a + b);
        m.sort_column_major();
        m.drop_diagonal();
        assert_eq!(m.nnz(), 0);
        assert!(m.is_empty());
    }
}
