//! A thin dense-vector wrapper used by reference kernels and by the SPA.

use crate::spvec::SparseVec;
use crate::Scalar;

/// A dense vector with a handful of convenience methods; mostly a `Vec<T>`
/// with the shape checks the reference SpMV/SpMSpV kernels need.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseVec<T> {
    data: Vec<T>,
}

impl<T: Scalar> DenseVec<T> {
    /// A dense vector of length `n` filled with `fill`.
    pub fn filled(n: usize, fill: T) -> Self {
        DenseVec { data: vec![fill; n] }
    }

    /// Wraps an existing `Vec`.
    pub fn from_vec(data: Vec<T>) -> Self {
        DenseVec { data }
    }

    /// Length of the vector.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the vector has zero length.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the data.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Converts to the list format, keeping entries for which `keep` holds.
    pub fn to_sparse(&self, keep: impl Fn(&T) -> bool) -> SparseVec<T> {
        SparseVec::from_dense_filtered(&self.data, keep)
    }
}

impl<T: Scalar> std::ops::Index<usize> for DenseVec<T> {
    type Output = T;
    fn index(&self, i: usize) -> &T {
        &self.data[i]
    }
}

impl<T: Scalar> std::ops::IndexMut<usize> for DenseVec<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.data[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_and_index() {
        let mut v = DenseVec::filled(3, 1.5);
        assert_eq!(v.len(), 3);
        v[1] = 2.5;
        assert_eq!(v[1], 2.5);
        assert_eq!(v.as_slice(), &[1.5, 2.5, 1.5]);
    }

    #[test]
    fn to_sparse_roundtrip() {
        let v = DenseVec::from_vec(vec![0.0, 2.0, 0.0, 4.0]);
        let s = v.to_sparse(|&x| x != 0.0);
        assert_eq!(s.indices(), &[1, 3]);
        assert_eq!(s.to_dense(0.0), v);
    }

    #[test]
    fn empty_vector() {
        let v: DenseVec<f64> = DenseVec::filled(0, 0.0);
        assert!(v.is_empty());
        assert_eq!(v.to_sparse(|_| true).nnz(), 0);
    }
}
