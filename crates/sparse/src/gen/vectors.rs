//! Random sparse-vector generators used for the fixed-`nnz(x)` experiments
//! (Figures 2 and 6 sweep `nnz(x)` ∈ {200, 10K, 2.5M}).

use crate::spvec::SparseVec;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Generates a sparse vector of dimension `n` with exactly
/// `min(nnz, n)` distinct nonzero positions and values uniform in `(0, 1]`.
/// All positions are drawn before any value; the `(position, value)` pairs
/// are then sorted by index.
pub fn random_sparse_vec(n: usize, nnz: usize, seed: u64) -> SparseVec<f64> {
    random_sparse_vec_with(n, nnz, seed, |rng| 1.0 - rng.gen::<f64>())
}

/// Like [`random_sparse_vec`] but with a caller-supplied value generator, so
/// tests can create boolean or integer-valued vectors.
pub fn random_sparse_vec_with<T: crate::Scalar>(
    n: usize,
    nnz: usize,
    seed: u64,
    mut value: impl FnMut(&mut StdRng) -> T,
) -> SparseVec<T> {
    let mut rng = StdRng::seed_from_u64(seed);
    let nnz = nnz.min(n);
    let indices: Vec<usize> = if nnz * 4 >= n {
        // Dense-ish request: shuffle the whole index range.
        let mut all: Vec<usize> = (0..n).collect();
        all.shuffle(&mut rng);
        all.truncate(nnz);
        all
    } else {
        // Sparse request: rejection-sample distinct indices.
        let mut seen = std::collections::HashSet::with_capacity(nnz * 2);
        let mut out = Vec::with_capacity(nnz);
        while out.len() < nnz {
            let i = rng.gen_range(0..n);
            if seen.insert(i) {
                out.push(i);
            }
        }
        out
    };
    let pairs = indices.into_iter().map(|i| (i, value(&mut rng))).collect();
    SparseVec::from_pairs(n, pairs).expect("distinct in-range draws")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_nnz_and_distinct_indices() {
        for &(n, f) in &[(1000usize, 10usize), (1000, 500), (1000, 1000), (50, 200)] {
            let v = random_sparse_vec(n, f, 7);
            assert_eq!(v.nnz(), f.min(n));
            let mut idx = v.indices().to_vec();
            idx.sort_unstable();
            idx.dedup();
            assert_eq!(idx.len(), v.nnz(), "indices must be distinct");
            assert!(idx.iter().all(|&i| i < n));
        }
    }

    #[test]
    fn seeds_keep_their_entries_in_index_order() {
        // Checksums of the entries these seeds have always drawn, recorded
        // from the generator that returned them in draw order and sorted
        // afterwards: sorting inside the generator changes the order only.
        // Covers both index paths (rejection sampling and the shuffle).
        for (n, f, seed, check) in [
            (40usize, 6usize, 7u64, 0x914a_754b_94f7_35a2u64),
            (40, 30, 7, 0xfb29_81c2_42c3_6e79),
            (5000, 300, 11, 0x13cb_1c10_afbf_d359),
        ] {
            let v = random_sparse_vec(n, f, seed);
            let got = v
                .iter()
                .fold(0u64, |h, (i, x)| (h ^ i as u64).wrapping_mul(0x100_0000_01b3) ^ x.to_bits());
            assert_eq!(got, check, "n={n} f={f} seed={seed}");
            assert!(v.indices().windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(random_sparse_vec(500, 50, 1), random_sparse_vec(500, 50, 1));
        assert_ne!(random_sparse_vec(500, 50, 1), random_sparse_vec(500, 50, 2));
    }

    #[test]
    fn custom_value_generator() {
        let v = random_sparse_vec_with(100, 20, 3, |_| true);
        assert_eq!(v.nnz(), 20);
        assert!(v.values().iter().all(|&b| b));
    }

    #[test]
    fn values_nonzero() {
        let v = random_sparse_vec(200, 100, 11);
        assert!(v.values().iter().all(|&x| x > 0.0));
    }
}
