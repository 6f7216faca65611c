//! Pre-allocated, reusable workspace of the SpMSpV-bucket algorithm.
//!
//! §III-A ("Memory allocation"): *"we allocate enough memory for all buckets
//! and for the SPA in advance and pass them to the SpMSpV-bucket algorithm"*,
//! because allocation cost would otherwise dominate iterative workloads such
//! as BFS. The workspace owns the dense SPA arrays (sized `m`, allocated
//! once) and the per-participant buckets, which are cleared per call and
//! keep their capacity.

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
    /// `buckets[k][b]`: the `(row, scaled value)` pairs participant `k` sent
    /// to bucket `b` in the current call (see [`participant_buckets`]). One
    /// call stores at most `nnz(A)` products in all, so the `t`
    /// participants' buckets retain at most `t·nnz(A)` entries.
    pub(crate) buckets: Vec<Buckets<(usize, Y)>>,
}

/// One participant's Step 1 output: its entries for each bucket, one `Vec`
/// per bucket.
pub(crate) type Buckets<E> = Vec<Vec<E>>;

/// Readies Step 1's storage for one call of `t` participants over `nb`
/// buckets and returns it: `buckets[k][b]`, `k < t`, `b < nb`, all empty.
/// Grows the outer and inner lists as needed and clears the buckets the
/// call uses; every `Vec` keeps its capacity, so a call no larger than an
/// earlier one allocates nothing.
pub(crate) fn participant_buckets<E>(
    buckets: &mut Vec<Buckets<E>>,
    t: usize,
    nb: usize,
) -> &mut [Buckets<E>] {
    if buckets.len() < t {
        buckets.resize_with(t, Vec::new);
    }
    for mine in &mut buckets[..t] {
        if mine.len() < nb {
            mine.resize_with(nb, Vec::new);
        }
        mine[..nb].iter_mut().for_each(Vec::clear);
    }
    &mut buckets[..t]
}

impl<Y: Scalar> BucketWorkspace<Y> {
    /// Allocates the SPA for an `m`-row matrix. This is the only `O(m)`
    /// allocation in the algorithm's lifetime.
    pub fn new(m: usize) -> Self {
        BucketWorkspace {
            spa_values: vec![Y::default(); m],
            spa_stamps: vec![0; m],
            generation: 0,
            buckets: Vec::new(),
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
        assert!(ws.buckets.is_empty());
        assert_eq!(ws.generation(), 0);
    }

    #[test]
    fn generation_bumps_monotonically() {
        let mut ws: BucketWorkspace<usize> = BucketWorkspace::new(4);
        ws.bump_generation();
        ws.bump_generation();
        assert_eq!(ws.generation(), 2);
    }

    #[test]
    fn participant_buckets_are_cleared_and_keep_their_capacity() {
        let mut buckets: Vec<Vec<Vec<u32>>> = Vec::new();
        participant_buckets(&mut buckets, 2, 8)[1][5].extend(0..100);
        // A narrower call sees empty buckets and leaves the wider shape be.
        let narrow = participant_buckets(&mut buckets, 1, 4);
        assert_eq!(narrow.len(), 1);
        assert!(narrow[0][..4].iter().all(Vec::is_empty));
        let wide = participant_buckets(&mut buckets, 2, 8);
        assert!(wide.iter().all(|mine| mine.iter().all(Vec::is_empty)));
        assert!(wide[1][5].capacity() >= 100, "clearing must not free the bucket");
    }
}
