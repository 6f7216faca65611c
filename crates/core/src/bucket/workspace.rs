//! Pre-allocated, reusable workspace of the SpMSpV-bucket algorithm.
//!
//! §III-A ("Memory allocation"): *"we allocate enough memory for all buckets
//! and for the SPA in advance and pass them to the SpMSpV-bucket algorithm"*,
//! because allocation cost would otherwise dominate iterative workloads such
//! as BFS. The workspace owns the dense SPA arrays (sized `m`, allocated
//! once) and the shared bucket entry buffer, which stays initialised at the
//! high-water length of the multiplications so far (never more than
//! `O(nnz(A))` entries) so each call cuts its write windows off it.

use sparse_substrate::Scalar;

/// Reusable buffers shared by every multiplication of one
/// [`super::SpMSpVBucket`] instance.
#[derive(Debug)]
pub struct BucketWorkspace<Y> {
    /// Dense SPA values, indexed by matrix row. Entries are only meaningful
    /// where the matching stamp equals the current generation.
    pub(crate) spa_values: Vec<Y>,
    /// Generation stamp per SPA slot; `stamp[i] == generation` means slot `i`
    /// was initialized during the current multiplication. This realizes the
    /// paper's "initialize only the entries of SPA to be accessed" rule with
    /// an O(1) logical reset between multiplications.
    pub(crate) spa_stamps: Vec<u64>,
    generation: u64,
    /// Shared bucket buffer: all buckets laid out back to back, entries are
    /// `(row, scaled value)` pairs. Its length is a high-water mark; a call
    /// uses the prefix it needs (see [`high_water`]).
    pub(crate) entries: Vec<(usize, Y)>,
}

/// Returns the first `len` entries of `buf`, first replacing `buf` with a
/// fresh zeroed buffer of `len` entries if it is shorter. Never `resize`,
/// which would also copy the stale prefix. `vec![zero; len]` asks for zeroed
/// memory; pages fresh from the OS come zeroed for free, but inside a warmed
/// process the allocator usually recycles heap memory and must fill it, so
/// the growing call does pay one pass over the buffer (measured as a
/// `bfs_rmat` `setup_s` cost). Calls at or below the high-water length pay
/// nothing.
pub(crate) fn high_water<T: Copy>(buf: &mut Vec<T>, len: usize, zero: T) -> &mut [T] {
    if buf.len() < len {
        *buf = vec![zero; len];
    }
    &mut buf[..len]
}

impl<Y: Scalar> BucketWorkspace<Y> {
    /// Allocates the SPA for an `m`-row matrix. This is the only `O(m)`
    /// allocation in the algorithm's lifetime.
    pub fn new(m: usize) -> Self {
        BucketWorkspace {
            spa_values: vec![Y::default(); m],
            spa_stamps: vec![0; m],
            generation: 0,
            entries: Vec::new(),
        }
    }

    /// Starts a new multiplication: all SPA slots become logically
    /// uninitialized without touching the dense arrays.
    pub(crate) fn bump_generation(&mut self) {
        self.generation += 1;
    }

    /// The current generation stamp.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_workspace_is_sized_to_rows() {
        let ws: BucketWorkspace<f64> = BucketWorkspace::new(17);
        assert_eq!(ws.spa_values.len(), 17);
        assert_eq!(ws.entries.len(), 0);
        assert_eq!(ws.generation(), 0);
    }

    #[test]
    fn generation_bumps_monotonically() {
        let mut ws: BucketWorkspace<usize> = BucketWorkspace::new(4);
        ws.bump_generation();
        ws.bump_generation();
        assert_eq!(ws.generation(), 2);
    }
}
