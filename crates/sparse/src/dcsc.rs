//! Double-Compressed Sparse Columns (Buluç & Gilbert, IPDPS 2008).
//!
//! DCSC removes the `O(n)` `colptr` array of CSC by storing pointers only for
//! the non-empty columns, plus the ids of those columns. This is the format
//! the CombBLAS and GraphMat baselines use after splitting the matrix
//! row-wise: each thread's piece is *hypersparse* (most columns empty), so
//! CSC would waste `O(n)` memory and `O(n)` iteration time per piece.
//!
//! An auxiliary index (`aux`) — a coarse bucketed lookup table over the
//! column ids — restores expected-constant-time random access to a column,
//! as described in §II-C of the paper.

use crate::csc::CscMatrix;
use crate::error::SparseError;
use crate::Scalar;

/// A hypersparse matrix in Double-Compressed Sparse Columns format.
#[derive(Debug, Clone, PartialEq)]
pub struct DcscMatrix<T> {
    nrows: usize,
    ncols: usize,
    /// Ids of the non-empty columns, strictly increasing. Length `nzc`.
    jc: Vec<usize>,
    /// Column pointers into `rowids`/`values`. Length `nzc + 1`.
    cp: Vec<usize>,
    /// Row ids, sorted within each column. Length `nnz`.
    rowids: Vec<usize>,
    /// Values. Length `nnz`.
    values: Vec<T>,
    /// Auxiliary index: `aux[b]` is the position in `jc` of the first
    /// non-empty column with id `>= b * aux_stride`. Length `n/aux_stride+2`.
    aux: Vec<usize>,
    aux_stride: usize,
}

impl<T: Scalar> DcscMatrix<T> {
    /// Converts a CSC matrix to DCSC.
    pub fn from_csc(csc: &CscMatrix<T>) -> Self {
        let nrows = csc.nrows();
        let ncols = csc.ncols();
        let mut jc = Vec::new();
        let mut cp = vec![0usize];
        let mut rowids = Vec::with_capacity(csc.nnz());
        let mut values = Vec::with_capacity(csc.nnz());
        for j in 0..ncols {
            let (rows, vals) = csc.column(j);
            if rows.is_empty() {
                continue;
            }
            jc.push(j);
            rowids.extend_from_slice(rows);
            values.extend_from_slice(vals);
            cp.push(rowids.len());
        }
        let mut m =
            DcscMatrix { nrows, ncols, jc, cp, rowids, values, aux: Vec::new(), aux_stride: 1 };
        m.rebuild_aux();
        m
    }

    /// Builds DCSC from raw arrays, validating the structure.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        jc: Vec<usize>,
        cp: Vec<usize>,
        rowids: Vec<usize>,
        values: Vec<T>,
    ) -> Result<Self, SparseError> {
        if cp.len() != jc.len() + 1 {
            return Err(SparseError::InvalidStructure(format!(
                "cp has {} entries, expected nzc + 1 = {}",
                cp.len(),
                jc.len() + 1
            )));
        }
        if rowids.len() != values.len() {
            return Err(SparseError::InvalidStructure("rowids and values differ in length".into()));
        }
        if *cp.last().unwrap_or(&0) != rowids.len() {
            return Err(SparseError::InvalidStructure("cp[nzc] must equal nnz".into()));
        }
        for w in jc.windows(2) {
            if w[0] >= w[1] {
                return Err(SparseError::InvalidStructure("jc must be strictly increasing".into()));
            }
        }
        if let Some(&last) = jc.last() {
            if last >= ncols {
                return Err(SparseError::InvalidStructure(format!(
                    "column id {last} exceeds ncols {ncols}"
                )));
            }
        }
        for (k, w) in cp.windows(2).enumerate() {
            if w[0] > w[1] {
                return Err(SparseError::InvalidStructure(format!("cp decreases at position {k}")));
            }
            let col = &rowids[w[0]..w[1]];
            for pair in col.windows(2) {
                if pair[0] >= pair[1] {
                    return Err(SparseError::InvalidStructure(format!(
                        "row ids not strictly increasing in stored column {k}"
                    )));
                }
            }
            if let Some(&r) = col.last() {
                if r >= nrows {
                    return Err(SparseError::InvalidStructure(format!(
                        "row id {r} exceeds nrows {nrows}"
                    )));
                }
            }
        }
        let mut m =
            DcscMatrix { nrows, ncols, jc, cp, rowids, values, aux: Vec::new(), aux_stride: 1 };
        m.rebuild_aux();
        Ok(m)
    }

    /// Rebuilds the auxiliary column lookup index. Called by constructors.
    fn rebuild_aux(&mut self) {
        // One aux slot per ~(ncols / max(nzc,1)) columns keeps the per-slot
        // scan length O(1) in expectation, the bound cited by the paper.
        let nzc = self.jc.len().max(1);
        self.aux_stride = (self.ncols / nzc).max(1);
        let slots = self.ncols / self.aux_stride + 2;
        let mut aux = vec![self.jc.len(); slots];
        let mut pos = 0usize;
        for (slot, aux_entry) in aux.iter_mut().enumerate() {
            let col_lo = slot * self.aux_stride;
            while pos < self.jc.len() && self.jc[pos] < col_lo {
                pos += 1;
            }
            *aux_entry = pos;
        }
        self.aux = aux;
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns (of the logical matrix, not just the stored ones).
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Number of non-empty columns (`nzc`).
    #[inline]
    pub fn nzc(&self) -> usize {
        self.jc.len()
    }

    /// Row ids and values of logical column `j`, or `None` when the column is
    /// empty. Uses the auxiliary index for expected-constant-time lookup.
    pub fn column(&self, j: usize) -> Option<(&[usize], &[T])> {
        let pos = self.find_column(j)?;
        let lo = self.cp[pos];
        let hi = self.cp[pos + 1];
        Some((&self.rowids[lo..hi], &self.values[lo..hi]))
    }

    /// Position of logical column `j` within the stored (non-empty) columns.
    fn find_column(&self, j: usize) -> Option<usize> {
        if j >= self.ncols || self.jc.is_empty() {
            return None;
        }
        let slot = j / self.aux_stride;
        let start = self.aux[slot];
        let end = self.aux[(slot + 1).min(self.aux.len() - 1)].max(start);
        // Scan the (expected O(1)-length) window; fall back to binary search
        // over the remainder for adversarial distributions.
        for (offset, &col) in self.jc[start..end].iter().enumerate() {
            if col == j {
                return Some(start + offset);
            }
            if col > j {
                return None;
            }
        }
        self.jc[end..].binary_search(&j).ok().map(|p| p + end)
    }

    /// Iterates `(stored-column-position, column-id, row ids, values)`.
    pub fn iter_columns(&self) -> impl Iterator<Item = (usize, &[usize], &[T])> + '_ {
        (0..self.jc.len()).map(move |k| {
            let lo = self.cp[k];
            let hi = self.cp[k + 1];
            (self.jc[k], &self.rowids[lo..hi], &self.values[lo..hi])
        })
    }

    /// Iterates all entries as `(row, col, &value)` in column-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, &T)> + '_ {
        self.iter_columns()
            .flat_map(|(j, rows, vals)| rows.iter().zip(vals.iter()).map(move |(&i, v)| (i, j, v)))
    }

    /// Converts back to CSC (mainly for tests and round-trips).
    pub fn to_csc(&self) -> CscMatrix<T> {
        let mut coo = crate::coo::CooMatrix::with_capacity(self.nrows, self.ncols, self.nnz());
        for (i, j, v) in self.iter() {
            coo.push(i, j, *v);
        }
        CscMatrix::from_coo(coo, |a, _| a)
    }

    /// Splits the matrix row-wise into `pieces` DCSC submatrices, the layout
    /// used by the CombBLAS-style baselines. Row ids are re-based per piece.
    pub fn row_split(csc: &CscMatrix<T>, pieces: usize) -> Vec<DcscMatrix<T>> {
        csc.row_split(pieces).iter().map(DcscMatrix::from_csc).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn hypersparse() -> CscMatrix<f64> {
        // 6x10 matrix with only columns 1, 4, 9 non-empty.
        let mut coo = CooMatrix::new(6, 10);
        coo.push(0, 1, 1.0);
        coo.push(5, 1, 2.0);
        coo.push(3, 4, 3.0);
        coo.push(2, 9, 4.0);
        coo.push(4, 9, 5.0);
        coo.push(1, 9, 6.0);
        CscMatrix::from_coo(coo, |a, b| a + b)
    }

    #[test]
    fn from_csc_compresses_empty_columns() {
        let d = DcscMatrix::from_csc(&hypersparse());
        assert_eq!(d.nzc(), 3);
        assert_eq!(d.nnz(), 6);
        assert_eq!(d.jc, [1, 4, 9]);
    }

    #[test]
    fn column_lookup_hits_and_misses() {
        let d = DcscMatrix::from_csc(&hypersparse());
        let (rows, vals) = d.column(9).unwrap();
        assert_eq!(rows, &[1, 2, 4]);
        assert_eq!(vals, &[6.0, 4.0, 5.0]);
        assert!(d.column(0).is_none());
        assert!(d.column(5).is_none());
        assert!(d.column(100).is_none());
        let (rows1, _) = d.column(1).unwrap();
        assert_eq!(rows1, &[0, 5]);
    }

    #[test]
    fn roundtrip_through_csc() {
        let csc = hypersparse();
        let d = DcscMatrix::from_csc(&csc);
        assert_eq!(d.to_csc(), csc);
    }

    #[test]
    fn iter_visits_every_entry_in_column_major_order() {
        let d = DcscMatrix::from_csc(&hypersparse());
        let entries: Vec<_> = d.iter().map(|(i, j, &v)| (i, j, v)).collect();
        assert_eq!(entries.len(), 6);
        assert_eq!(entries[0], (0, 1, 1.0));
        assert_eq!(entries.last().copied(), Some((4, 9, 5.0)));
        // column-major: columns appear in increasing order
        let cols: Vec<_> = entries.iter().map(|&(_, j, _)| j).collect();
        let mut sorted = cols.clone();
        sorted.sort_unstable();
        assert_eq!(cols, sorted);
    }

    #[test]
    fn row_split_rebases_rows() {
        let csc = hypersparse();
        let pieces = DcscMatrix::row_split(&csc, 3);
        assert_eq!(pieces.len(), 3);
        let total: usize = pieces.iter().map(|p| p.nnz()).sum();
        assert_eq!(total, csc.nnz());
        // piece 0 covers rows 0..2, so it sees (0,1) and (1,9)
        assert_eq!(pieces[0].nnz(), 2);
        assert_eq!(pieces[0].column(1).unwrap().0, &[0]);
    }

    #[test]
    fn from_parts_validates() {
        // cp too short
        assert!(DcscMatrix::<f64>::from_parts(2, 4, vec![1, 2], vec![0, 1], vec![0], vec![1.0])
            .is_err());
        // jc not increasing
        assert!(DcscMatrix::from_parts(
            2,
            4,
            vec![2, 1],
            vec![0, 1, 2],
            vec![0, 0],
            vec![1.0, 2.0]
        )
        .is_err());
        // good
        assert!(DcscMatrix::from_parts(
            2,
            4,
            vec![1, 2],
            vec![0, 1, 2],
            vec![0, 1],
            vec![1.0, 2.0]
        )
        .is_ok());
    }

    #[test]
    fn empty_matrix_has_no_columns() {
        let csc: CscMatrix<f64> = CscMatrix::empty(4, 7);
        let d = DcscMatrix::from_csc(&csc);
        assert_eq!(d.nzc(), 0);
        assert!(d.column(3).is_none());
        assert_eq!(d.to_csc(), csc);
    }

    #[test]
    fn dense_column_pattern_still_works() {
        // All columns non-empty: DCSC degenerates to CSC-like behaviour.
        let csc = crate::fixtures::figure1_matrix();
        let d = DcscMatrix::from_csc(&csc);
        assert_eq!(d.nzc(), 8);
        for j in 0..8 {
            let (rows, vals) = d.column(j).unwrap();
            let (crows, cvals) = csc.column(j);
            assert_eq!(rows, crows);
            assert_eq!(vals, cvals);
        }
    }
}
