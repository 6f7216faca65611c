//! Symmetric row/column permutations (vertex relabelings).
//!
//! Relabeling the vertices of a graph changes the memory-access pattern of
//! the bucketing step without changing the amount of work, which is useful
//! for the cache-locality ablations (§III-A discusses how sortedness and
//! access order affect the bucketing step).

use crate::coo::CooMatrix;
use crate::csc::CscMatrix;
use crate::Scalar;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A permutation of `0..n`, stored as `perm[old] = new`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    forward: Vec<usize>,
}

impl Permutation {
    /// The identity permutation on `0..n`.
    pub fn identity(n: usize) -> Self {
        Permutation { forward: (0..n).collect() }
    }

    /// A uniformly random permutation of `0..n`, deterministic per seed.
    pub fn random(n: usize, seed: u64) -> Self {
        let mut forward: Vec<usize> = (0..n).collect();
        forward.shuffle(&mut StdRng::seed_from_u64(seed));
        Permutation { forward }
    }

    /// Builds from an explicit mapping, verifying it is a bijection.
    pub fn from_vec(forward: Vec<usize>) -> Option<Self> {
        let n = forward.len();
        let mut seen = vec![false; n];
        for &p in &forward {
            if p >= n || seen[p] {
                return None;
            }
            seen[p] = true;
        }
        Some(Permutation { forward })
    }

    /// Domain size.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// `true` for the empty permutation.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// Image of `i`.
    #[inline]
    pub fn apply(&self, i: usize) -> usize {
        self.forward[i]
    }

    /// The inverse permutation.
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0usize; self.forward.len()];
        for (old, &new) in self.forward.iter().enumerate() {
            inv[new] = old;
        }
        Permutation { forward: inv }
    }

    /// Applies the permutation symmetrically to a square matrix:
    /// `B(p(i), p(j)) = A(i, j)`.
    pub fn permute_matrix<T: Scalar>(&self, a: &CscMatrix<T>) -> CscMatrix<T> {
        assert_eq!(a.nrows(), a.ncols(), "symmetric permutation needs a square matrix");
        assert_eq!(a.nrows(), self.len(), "permutation size must match the matrix");
        let mut coo = CooMatrix::with_capacity(a.nrows(), a.ncols(), a.nnz());
        for (i, j, v) in a.iter() {
            coo.push(self.apply(i), self.apply(j), *v);
        }
        CscMatrix::from_coo(coo, |x, _| x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{figure1_matrix, figure1_vector};
    use crate::ops::spmspv_reference;
    use crate::semiring::PlusTimes;
    use crate::spvec::SparseVec;

    #[test]
    fn identity_round_trips() {
        let a = figure1_matrix();
        let p = Permutation::identity(8);
        assert_eq!(p.permute_matrix(&a), a);
    }

    #[test]
    fn random_permutation_is_a_bijection() {
        let p = Permutation::random(100, 4);
        let mut image: Vec<usize> = (0..100).map(|i| p.apply(i)).collect();
        image.sort_unstable();
        assert_eq!(image, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn inverse_undoes_apply() {
        let p = Permutation::random(50, 8);
        let inv = p.inverse();
        for i in 0..50 {
            assert_eq!(inv.apply(p.apply(i)), i);
        }
    }

    #[test]
    fn from_vec_rejects_non_bijections() {
        assert!(Permutation::from_vec(vec![0, 0, 1]).is_none());
        assert!(Permutation::from_vec(vec![0, 3, 1]).is_none());
        assert!(Permutation::from_vec(vec![2, 0, 1]).is_some());
    }

    #[test]
    fn spmspv_commutes_with_relabeling() {
        // P·(A x) == (P A P^T)(P x): relabeling before or after multiplication
        // gives the same answer. This is the invariant the cache ablation
        // relies on.
        let a = figure1_matrix();
        let x = figure1_vector();
        let p = Permutation::random(8, 123);
        let permute_vector = |v: &SparseVec<f64>| {
            SparseVec::from_pairs(
                v.len(),
                v.iter().map(|(i, &value)| (p.apply(i), value)).collect(),
            )
            .unwrap()
        };
        let y_then_permute = permute_vector(&spmspv_reference(&a, &x, &PlusTimes));
        let permute_then_y =
            spmspv_reference(&p.permute_matrix(&a), &permute_vector(&x), &PlusTimes);
        assert!(y_then_permute.same_entries(&permute_then_y));
    }
}
