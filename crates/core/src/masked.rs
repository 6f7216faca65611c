//! Output masks for SpMSpV — the GraphBLAS-style extension the paper lists
//! as future work (§V: "GraphBLAS effort is in the process of defining masked
//! operations, including SpMSpV").
//!
//! A mask restricts which output rows may appear in `y`. The dominant use is
//! BFS: the complement of the "already visited" set masks the product so the
//! next frontier only contains undiscovered vertices. The mask is applied
//! **inside** the kernels — [`crate::SpMSpV::multiply_masked`], and through
//! it every lane of [`crate::LaneBatch::multiply_batch_masked`], consults a
//! [`MaskView`] before it forms a product (the bucket kernels in Step 1, through
//! [`MaskView::row_filter`]), so a masked multiplication never forms,
//! stores or merges a masked-out product, let alone pays a post-filter pass
//! over the output.
//!
//! The membership set itself is a [`sparse_substrate::MaskBits`] bitmap owned
//! by the caller (or by a [`crate::ops::PreparedMxv`] descriptor); the views
//! here are cheap `Copy` borrows handed to one multiplication. Per-lane
//! bitmaps travel as `Arc<MaskBits>` so iterative engine clients
//! (multi-source BFS) can hand the same visited set to every flush without
//! copying `O(n)` bits per level.

use std::ops::Range;
use std::sync::Arc;

use sparse_substrate::MaskBits;

/// Whether the mask selects the rows where it is set, or their complement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaskMode {
    /// Keep output entries whose row is in the mask.
    Keep,
    /// Keep output entries whose row is *not* in the mask
    /// (the BFS "unvisited" use-case).
    Complement,
}

/// A borrowed output mask for one single-vector multiplication: a bitmap plus
/// the interpretation mode. `Copy`, two words of state — cheap enough to
/// pass down into the kernels' inner loops.
#[derive(Debug, Clone, Copy)]
pub struct MaskView<'m> {
    bits: &'m MaskBits,
    mode: MaskMode,
}

impl<'m> MaskView<'m> {
    /// Wraps a bitmap with an interpretation mode.
    pub fn new(bits: &'m MaskBits, mode: MaskMode) -> Self {
        MaskView { bits, mode }
    }

    /// The underlying bitmap.
    #[inline]
    pub fn bits(&self) -> &'m MaskBits {
        self.bits
    }

    /// The interpretation mode.
    #[inline]
    pub fn mode(&self) -> MaskMode {
        self.mode
    }

    /// Whether output row `i` survives the mask.
    #[inline]
    pub fn keeps(&self, i: usize) -> bool {
        self.row_filter()(i)
    }

    /// [`MaskView::keeps`] with the mode hoisted out: a closure that reads
    /// row `i`'s bitmap word directly and flips the bit for
    /// [`MaskMode::Complement`], with no `match` per probe. The bucket
    /// kernels build it once per call and probe it for every product in
    /// Step 1, after [`MaskView::check_rows`] has checked that the bitmap
    /// spans every row they will probe.
    #[inline]
    pub fn row_filter(&self) -> impl Fn(usize) -> bool + Copy + Send + Sync + 'm {
        let words = self.bits.words();
        let flip = self.mode == MaskMode::Complement;
        move |i| ((words[i / 64] >> (i % 64)) & 1 == 1) != flip
    }

    /// How many rows the mask keeps, in `O(1)`: the bitmap's count, or its
    /// length less the count.
    #[inline]
    pub fn kept(&self) -> usize {
        match self.mode {
            MaskMode::Keep => self.bits.count(),
            MaskMode::Complement => self.bits.len() - self.bits.count(),
        }
    }

    /// The rows the mask keeps, in ascending order, read a bitmap word at
    /// a time: `O(len / 64 + kept)`. The bottom-up kernel
    /// ([`crate::pull`]) visits exactly these rows, and adaptive dispatch
    /// sums their degrees.
    pub fn kept_rows(&self) -> impl Iterator<Item = usize> + 'm {
        self.kept_rows_in(0..self.bits.words().len())
    }

    /// [`MaskView::kept_rows`] restricted to the bitmap words `words`, that
    /// is to rows `64 · words.start .. 64 · words.end` (cut at the mask's
    /// length): `O(words.len() + kept)`. Consecutive word ranges walk
    /// consecutive runs of the kept rows, which is how a split pull cuts
    /// its scan into blocks.
    pub(crate) fn kept_rows_in(&self, words: Range<usize>) -> impl Iterator<Item = usize> + 'm {
        let len = self.bits.len();
        let flip = if self.mode == MaskMode::Complement { u64::MAX } else { 0 };
        let start = words.start;
        self.bits.words()[words].iter().enumerate().flat_map(move |(w, &word)| {
            let w = start + w;
            // A complemented last word would keep the bits past `len`.
            let tail = if (w + 1) * 64 > len { (1u64 << (len % 64)) - 1 } else { u64::MAX };
            let mut kept = (word ^ flip) & tail;
            std::iter::from_fn(move || {
                (kept != 0).then(|| {
                    let bit = kept.trailing_zeros() as usize;
                    kept &= kept - 1;
                    w * 64 + bit
                })
            })
        })
    }

    /// Asserts that the bitmap spans exactly the `m` output rows of the
    /// matrix. Every masked entry point calls this on the calling thread:
    /// [`MaskBits::contains`] bounds-checks only in debug builds, so a short
    /// bitmap would otherwise read the uncovered rows of its last word as
    /// unset and panic with an index error on a pool worker past it.
    pub fn check_rows(&self, m: usize) {
        assert_eq!(
            self.bits.len(),
            m,
            "mask covers {} rows but the matrix has {m} output rows",
            self.bits.len()
        );
    }
}

/// A borrowed output mask for one batched multiplication: either one bitmap
/// shared by every lane, or one bitmap per lane (multi-source BFS, where each
/// source maintains its own visited set).
#[derive(Debug, Clone, Copy)]
pub enum BatchMaskView<'m> {
    /// Every lane is filtered by the same mask.
    Shared(MaskView<'m>),
    /// Lane `l` is filtered by `masks[l]`; the slice length must equal the
    /// batch width `k`.
    PerLane {
        /// One shared-ownership bitmap per lane (the engine moves each
        /// request's `Arc` here without cloning the bits).
        masks: &'m [Arc<MaskBits>],
        /// Interpretation shared by all lanes.
        mode: MaskMode,
    },
}

impl<'m> BatchMaskView<'m> {
    /// Whether output row `i` of lane `lane` survives the mask.
    #[inline]
    pub fn keeps(&self, i: usize, lane: usize) -> bool {
        self.lane_view(lane).keeps(i)
    }

    /// The single-vector view of one lane (used by fallbacks that serve the
    /// batch lane by lane).
    #[inline]
    pub fn lane_view(&self, lane: usize) -> MaskView<'m> {
        match self {
            BatchMaskView::Shared(view) => *view,
            BatchMaskView::PerLane { masks, mode } => MaskView::new(masks[lane].as_ref(), *mode),
        }
    }

    /// Number of lanes the view can serve, if lane-specific.
    pub fn lane_count(&self) -> Option<usize> {
        match self {
            BatchMaskView::Shared(_) => None,
            BatchMaskView::PerLane { masks, .. } => Some(masks.len()),
        }
    }

    /// Asserts that a lane-specific view covers exactly `k` lanes (no-op for
    /// a shared mask). Every batched entry point calls this, so all batch
    /// families reject a mismatched per-lane mask with the same message.
    pub fn check_lanes(&self, k: usize) {
        if let Some(lanes) = self.lane_count() {
            assert_eq!(
                lanes, k,
                "per-lane mask has {lanes} lanes but the input batch has {k} lanes"
            );
        }
    }

    /// [`MaskView::check_rows`] for every lane's bitmap.
    pub fn check_rows(&self, m: usize) {
        match self {
            BatchMaskView::Shared(view) => view.check_rows(m),
            BatchMaskView::PerLane { masks, mode } => {
                masks.iter().for_each(|bits| MaskView::new(bits, *mode).check_rows(m))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_views_interpret_modes() {
        let bits = MaskBits::from_indices(6, [1, 4]);
        let keep = MaskView::new(&bits, MaskMode::Keep);
        let comp = MaskView::new(&bits, MaskMode::Complement);
        assert!(keep.keeps(1) && !keep.keeps(0));
        assert!(!comp.keeps(1) && comp.keeps(0));
        assert_eq!(keep.mode(), MaskMode::Keep);
        assert_eq!(keep.bits().count(), 2);
    }

    #[test]
    fn kept_rows_walks_the_kept_set_in_order() {
        for len in [0usize, 6, 64, 65, 130] {
            let bits = MaskBits::from_indices(len, (0..len).filter(|i| i % 3 == 1));
            for mode in [MaskMode::Keep, MaskMode::Complement] {
                let view = MaskView::new(&bits, mode);
                let expected: Vec<usize> = (0..len).filter(|&i| view.keeps(i)).collect();
                assert_eq!(view.kept_rows().collect::<Vec<_>>(), expected, "{len} {mode:?}");
                assert_eq!(view.kept(), expected.len(), "{len} {mode:?}");
                // Consecutive word ranges walk consecutive runs of the rows.
                let words = len.div_ceil(64);
                let halves =
                    view.kept_rows_in(0..words / 2).chain(view.kept_rows_in(words / 2..words));
                assert_eq!(halves.collect::<Vec<_>>(), expected, "{len} {mode:?}");
            }
        }
    }

    #[test]
    fn batch_mask_views_shared_and_per_lane() {
        let shared_bits = MaskBits::from_indices(5, [2]);
        let shared = BatchMaskView::Shared(MaskView::new(&shared_bits, MaskMode::Complement));
        assert!(!shared.keeps(2, 0) && !shared.keeps(2, 7));
        assert!(shared.keeps(3, 0));
        assert_eq!(shared.lane_count(), None);

        let lanes = vec![
            Arc::new(MaskBits::from_indices(5, [0])),
            Arc::new(MaskBits::from_indices(5, [1])),
        ];
        let per_lane = BatchMaskView::PerLane { masks: &lanes, mode: MaskMode::Keep };
        assert!(per_lane.keeps(0, 0) && !per_lane.keeps(0, 1));
        assert!(per_lane.keeps(1, 1) && !per_lane.keeps(1, 0));
        assert_eq!(per_lane.lane_count(), Some(2));
        assert!(per_lane.lane_view(1).keeps(1));
    }
}
