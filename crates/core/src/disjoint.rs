//! Safe splitting of one buffer into disjoint `&mut` windows.
//!
//! The kernels' parallel steps write into shared output arrays — the bucket
//! kernels' Step 2 into per-bucket slices of the SPA, their Step 3 into
//! per-bucket (or per-`(bucket, lane)`) windows of the output. Those windows
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

/// Cuts a buffer laid out *outer-major* — for each outer index in turn, one
/// window per inner index — into those windows, and returns them grouped by
/// the inner index: `windows[inner][outer]` has `sizes[inner][outer]` slots.
///
/// The fused batch kernel's output step uses it with outer = lane and
/// inner = bucket, so each bucket receives its own window in every output
/// lane. Panics if the rows of `sizes` differ in length or their total
/// differs from `buf.len()`.
pub fn split_grouped<'a, T>(mut buf: &'a mut [T], sizes: &[Vec<usize>]) -> Vec<Vec<&'a mut [T]>> {
    let outer = sizes.first().map_or(0, Vec::len);
    assert!(sizes.iter().all(|row| row.len() == outer), "every inner index needs {outer} sizes");
    let total: usize = sizes.iter().flatten().sum();
    assert_eq!(total, buf.len(), "window sizes total {total} but the buffer holds {}", buf.len());
    let mut groups: Vec<Vec<&'a mut [T]>> =
        sizes.iter().map(|_| Vec::with_capacity(outer)).collect();
    for o in 0..outer {
        for (group, row) in groups.iter_mut().zip(sizes) {
            let (window, rest) = buf.split_at_mut(row[o]);
            group.push(window);
            buf = rest;
        }
    }
    groups
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

    #[test]
    fn split_grouped_returns_outer_major_windows_by_inner_index() {
        // Three inner indices (buckets) × four outer ones (lanes).
        let sizes = vec![vec![2, 0, 1, 3], vec![1, 2, 0, 0], vec![0, 1, 4, 2]];
        let mut data: Vec<usize> = (0..16).collect();
        let groups = split_grouped(&mut data, &sizes);
        assert_eq!(groups.len(), 3);
        for (inner, group) in groups.iter().enumerate() {
            let lens: Vec<usize> = group.iter().map(|w| w.len()).collect();
            assert_eq!(lens, sizes[inner]);
        }
        // Reading outer-major (lane by lane, buckets in order) walks the
        // buffer front to back.
        let walked: Vec<usize> = (0..4)
            .flat_map(|outer| groups.iter().flat_map(move |g| g[outer].iter().copied()))
            .collect();
        assert_eq!(walked, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn split_grouped_handles_zero_size_windows_and_empty_shapes() {
        let mut data: Vec<u8> = Vec::new();
        let groups = split_grouped(&mut data, &[vec![0, 0], vec![0, 0]]);
        assert_eq!(groups.iter().map(Vec::len).collect::<Vec<_>>(), vec![2, 2]);
        assert!(groups.iter().flatten().all(|w| w.is_empty()));
        assert!(split_grouped(&mut data, &[]).is_empty());
        let no_outer = split_grouped(&mut data, &[vec![], vec![]]);
        assert_eq!(no_outer.len(), 2);
        assert!(no_outer.iter().all(Vec::is_empty));
    }

    #[test]
    #[should_panic(expected = "window sizes total 5 but the buffer holds 6")]
    fn split_grouped_rejects_sizes_that_miss_the_buffer() {
        let mut data = vec![0u32; 6];
        let _ = split_grouped(&mut data, &[vec![2, 1], vec![0, 2]]);
    }

    #[test]
    #[should_panic(expected = "every inner index needs 2 sizes")]
    fn split_grouped_rejects_ragged_sizes() {
        let mut data = vec![0u32; 3];
        let _ = split_grouped(&mut data, &[vec![2, 1], vec![0]]);
    }
}
