//! Safe splitting of one buffer into disjoint `&mut` windows.
//!
//! The kernels' parallel steps write into shared output arrays — the bucket
//! kernel's Step 2 into per-bucket slices of the SPA, its Step 3 into
//! per-bucket windows of the output. Those windows
//! are `&mut` slices cut off the buffer with `split_at_mut` before the
//! parallel step starts, so the borrow checker — not a comment — proves that
//! no two participants ever write the same slot. Every parallel step in the
//! crate hands [`Executor::map`](crate::Executor::map) items pre-split this
//! way.

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
