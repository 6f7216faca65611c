//! Lock-free disjoint writes into shared buffers.
//!
//! Step 1 of Algorithm 1 has every thread write scaled matrix entries into
//! shared per-bucket storage. The paper avoids synchronization by running
//! Algorithm 2 (`ESTIMATE-BUCKETS`) first: a `t × nb` count matrix plus a
//! prefix sum gives each thread an exclusive *write window* inside every
//! bucket, so writes can proceed without locks or atomics.
//!
//! [`DisjointWriter`] is the narrow unsafe primitive that expresses "many
//! threads write to statically disjoint positions of one buffer". All other
//! parallelism in the crate hands [`Executor::map`](crate::Executor::map)
//! items pre-split with `split_at_mut`.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;

/// A shared, uninitialized buffer that multiple threads may fill
/// concurrently at **disjoint** positions.
///
/// # Safety contract
///
/// * Each index in `0..len` must be written by **at most one** thread over
///   the writer's lifetime (the SpMSpV-bucket algorithm writes each index
///   exactly once, at the offsets pre-computed by `ESTIMATE-BUCKETS`).
/// * [`DisjointWriter::assume_filled`] may only be called after every index
///   in `0..len` has been written and all writing threads have been joined
///   (`Executor::for_each` returning provides the necessary happens-before
///   edge).
pub struct DisjointWriter<T> {
    buf: Vec<UnsafeCell<MaybeUninit<T>>>,
}

// SAFETY: the buffer is only accessed through `write` at caller-guaranteed
// disjoint indices, so concurrent shared access never aliases a slot.
unsafe impl<T: Send> Sync for DisjointWriter<T> {}
unsafe impl<T: Send> Send for DisjointWriter<T> {}

impl<T> DisjointWriter<T> {
    /// Allocates an uninitialized buffer of `len` slots.
    pub fn new(len: usize) -> Self {
        let mut buf = Vec::with_capacity(len);
        buf.resize_with(len, || UnsafeCell::new(MaybeUninit::uninit()));
        DisjointWriter { buf }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when the buffer has no slots.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes `value` into slot `idx`.
    ///
    /// # Safety
    ///
    /// `idx` must be in bounds and no other thread may ever write the same
    /// `idx` (see the type-level contract). The debug assertion catches the
    /// bounds half of the contract in test builds.
    #[inline]
    pub unsafe fn write(&self, idx: usize, value: T) {
        debug_assert!(idx < self.buf.len(), "DisjointWriter index {idx} out of bounds");
        // SAFETY: caller guarantees exclusive access to this slot.
        unsafe {
            (*self.buf[idx].get()).write(value);
        }
    }

    /// Converts the buffer into an initialized `Vec<T>`.
    ///
    /// # Safety
    ///
    /// Every slot must have been written exactly once and all writers must
    /// have completed (happens-before established, e.g. by joining the
    /// threads or ending the parallel scope).
    pub unsafe fn assume_filled(self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.buf.len());
        for cell in self.buf {
            // SAFETY: caller guarantees the slot was initialized.
            out.push(unsafe { cell.into_inner().assume_init() });
        }
        out
    }
}

/// A borrowing variant of [`DisjointWriter`] over the *spare capacity* of a
/// reusable `Vec`, so the paper's "allocate the buckets once, reuse them for
/// every multiplication" optimization (§III-A, *Memory allocation*) carries
/// over: the backing `Vec<T>` lives in the algorithm's workspace and only
/// grows when a larger multiplication comes along.
///
/// # Safety contract
///
/// Same as [`DisjointWriter`]: each index written by at most one thread, and
/// the caller may only `Vec::set_len` after every index has been written and
/// the writers have been joined.
pub struct SliceWriter<'a, T> {
    ptr: *mut MaybeUninit<T>,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [MaybeUninit<T>]>,
}

// SAFETY: access is restricted to caller-guaranteed disjoint slots.
unsafe impl<T: Send> Sync for SliceWriter<'_, T> {}
unsafe impl<T: Send> Send for SliceWriter<'_, T> {}

impl<'a, T> SliceWriter<'a, T> {
    /// Wraps a spare-capacity slice (e.g. `vec.spare_capacity_mut()`).
    pub fn new(slice: &'a mut [MaybeUninit<T>]) -> Self {
        SliceWriter { ptr: slice.as_mut_ptr(), len: slice.len(), _marker: std::marker::PhantomData }
    }

    /// Number of writable slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when there are no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes `value` into slot `idx`.
    ///
    /// # Safety
    ///
    /// `idx < len` and no other thread ever writes the same `idx`.
    #[inline]
    pub unsafe fn write(&self, idx: usize, value: T) {
        debug_assert!(idx < self.len, "SliceWriter index {idx} out of bounds");
        // SAFETY: caller guarantees bounds and exclusivity.
        unsafe { (*self.ptr.add(idx)).write(value) };
    }
}

/// Splits a shared slice at the given boundary positions
/// (`boundaries[0] == 0`, last boundary == `slice.len()`). This is how both
/// bucket kernels carve the shared entry buffer into per-bucket views using
/// the `bucket_starts` prefix sums of their plan.
pub fn split_by_boundaries<'s, T>(slice: &'s [T], boundaries: &[usize]) -> Vec<&'s [T]> {
    boundaries.windows(2).map(|w| &slice[w[0]..w[1]]).collect()
}

/// Splits a mutable slice into the given consecutive, non-overlapping
/// ranges. The ranges must be sorted, contiguous from 0 and cover the whole
/// slice (exactly what bucket row-ranges and output windows look like), so
/// the split is expressible entirely in safe code via `split_at_mut`.
pub fn split_ranges<'a, T>(
    mut slice: &'a mut [T],
    ranges: &[std::ops::Range<usize>],
) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(ranges.len());
    let mut consumed = 0usize;
    for r in ranges {
        assert_eq!(r.start, consumed, "ranges must be contiguous from 0");
        let (head, tail) = slice.split_at_mut(r.end - r.start);
        out.push(head);
        slice = tail;
        consumed = r.end;
    }
    assert!(slice.is_empty(), "ranges must cover the whole slice");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_threaded_fill_roundtrips() {
        let w = DisjointWriter::new(10);
        for i in 0..10 {
            unsafe { w.write(i, i * i) };
        }
        let v = unsafe { w.assume_filled() };
        assert_eq!(v, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_disjoint_writes_from_scoped_threads() {
        let n = 10_000;
        let w = DisjointWriter::new(n);
        std::thread::scope(|s| {
            let w = &w;
            for t in 0..4 {
                s.spawn(move || {
                    // Thread t writes indices congruent to t mod 4: disjoint.
                    let mut i = t;
                    while i < n {
                        unsafe { w.write(i, i as u64 * 3) };
                        i += 4;
                    }
                });
            }
        });
        let v = unsafe { w.assume_filled() };
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64 * 3));
    }

    #[test]
    fn empty_writer() {
        let w: DisjointWriter<u8> = DisjointWriter::new(0);
        assert!(w.is_empty());
        let v = unsafe { w.assume_filled() };
        assert!(v.is_empty());
    }

    #[test]
    fn slice_writer_fills_spare_capacity_of_reused_vec() {
        let mut buf: Vec<usize> = Vec::new();
        for round in 1..4usize {
            let total = round * 1000;
            buf.clear();
            buf.reserve(total);
            {
                let writer = SliceWriter::new(&mut buf.spare_capacity_mut()[..total]);
                std::thread::scope(|s| {
                    let w = &writer;
                    for t in 0..2 {
                        s.spawn(move || {
                            let mut i = t;
                            while i < total {
                                unsafe { w.write(i, i + round) };
                                i += 2;
                            }
                        });
                    }
                });
            }
            // SAFETY: every slot in 0..total was written above.
            unsafe { buf.set_len(total) };
            assert!(buf.iter().enumerate().all(|(i, &x)| x == i + round));
        }
    }

    #[test]
    fn split_ranges_gives_disjoint_mutable_views() {
        let mut data = vec![0u32; 10];
        let ranges = vec![0..3, 3..3, 3..10];
        let parts = split_ranges(&mut data, &ranges);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].len(), 3);
        assert_eq!(parts[1].len(), 0);
        assert_eq!(parts[2].len(), 7);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn split_ranges_rejects_gaps() {
        let mut data = vec![0u32; 5];
        let _ = split_ranges(&mut data, &[0..2, 3..5]);
    }

    #[test]
    #[should_panic(expected = "cover the whole slice")]
    fn split_ranges_rejects_short_coverage() {
        let mut data = vec![0u32; 5];
        let _ = split_ranges(&mut data, &[0..2, 2..4]);
    }
}
