//! The sparse accumulator (SPA) with partial initialization — the
//! single-vector [`Spa`] and the batched, lane-aware [`LaneSpa`].
//!
//! The SPA (Gilbert, Moler & Schreiber, 1992) is a dense array of values plus
//! a list of the indices that are currently occupied. The paper's key
//! requirement (§II-F) is that a work-efficient SpMSpV algorithm must **not**
//! initialize the whole `O(m)` SPA on every multiplication: only the entries
//! actually touched may be initialized, bringing initialization cost down to
//! `O(nnz(y))`.
//!
//! Both accumulators use a *generation counter*: a `stamp` array records the
//! generation at which each slot was last written, so "resetting" is a single
//! counter increment — neither ever pays an `O(m)` (or `O(m·k)`) clear
//! between multiplications, and the big allocation is paid once and reused.
//!
//! The batched kernels merge through one accumulator, [`LaneSpa`]: dense and
//! **index-major** (`slot = index·k + lane`), so the `k` lane slots of one
//! row are adjacent — a column that activates many lanes merges its run of
//! `(row, lane)` triples into one cache line — and a contiguous *row* range
//! is a contiguous memory range, which lets the bucketed merge hand each
//! bucket a disjoint `&mut` window with plain `split_at_mut`.

use std::ops::Range;

use crate::Scalar;

/// A reusable sparse accumulator over a dense index space of size `m`.
#[derive(Debug, Clone)]
pub struct Spa<T> {
    values: Vec<Option<T>>,
    stamp: Vec<u64>,
    generation: u64,
    occupied: Vec<usize>,
}

impl<T: Scalar> Spa<T> {
    /// Allocates a SPA for index space `0..m`. This is the only `O(m)` cost;
    /// subsequent resets are `O(1)` plus the entries previously occupied.
    pub fn new(m: usize) -> Self {
        Spa { values: vec![None; m], stamp: vec![0; m], generation: 1, occupied: Vec::new() }
    }

    /// Size of the underlying dense index space.
    pub fn capacity(&self) -> usize {
        self.values.len()
    }

    /// Number of currently occupied slots.
    pub fn len(&self) -> usize {
        self.occupied.len()
    }

    /// `true` when no slot is occupied in the current generation.
    pub fn is_empty(&self) -> bool {
        self.occupied.is_empty()
    }

    /// Forgets all occupied entries in O(1) (plus clearing the occupied
    /// list), without touching the dense arrays.
    pub fn reset(&mut self) {
        self.generation += 1;
        self.occupied.clear();
    }

    /// Whether slot `i` holds a value in the current generation.
    #[inline]
    pub fn is_set(&self, i: usize) -> bool {
        self.stamp[i] == self.generation
    }

    /// Current value of slot `i`, if occupied.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        if self.is_set(i) {
            self.values[i].as_ref()
        } else {
            None
        }
    }

    /// Inserts `value` at slot `i` if unoccupied, otherwise combines the old
    /// and new values with `add`. Returns `true` when the slot was freshly
    /// occupied (i.e. `i` is a new unique index).
    #[inline]
    pub fn accumulate(&mut self, i: usize, value: T, add: impl FnOnce(T, T) -> T) -> bool {
        if self.is_set(i) {
            let old = self.values[i].take().expect("occupied slot holds a value");
            self.values[i] = Some(add(old, value));
            false
        } else {
            self.stamp[i] = self.generation;
            self.values[i] = Some(value);
            self.occupied.push(i);
            true
        }
    }

    /// Indices occupied in the current generation, in first-touch order.
    pub fn occupied(&self) -> &[usize] {
        &self.occupied
    }

    /// Drains the accumulator into `(index, value)` pairs in first-touch
    /// order and resets it.
    pub fn drain(&mut self) -> Vec<(usize, T)> {
        let mut out = Vec::with_capacity(self.occupied.len());
        for &i in &self.occupied {
            out.push((i, self.values[i].expect("occupied slot holds a value")));
        }
        self.reset();
        out
    }
}

/// Label of the accumulator the batched kernels merge through, as it appears
/// in run telemetry (`BatchRunInfo`, the `batch.backend.*` and
/// `engine.choice.*` counters). There is one accumulator, so one label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpaBackend {
    /// The dense, index-major, generation-stamped [`LaneSpa`].
    Dense,
}

impl SpaBackend {
    /// Short stable name, used verbatim in metric names.
    pub fn label(&self) -> &'static str {
        match self {
            SpaBackend::Dense => "dense",
        }
    }
}

impl std::fmt::Display for SpaBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A lane-aware sparse accumulator: one SPA slot per `(index, lane)` pair,
/// for merging `k` sparse vectors at once.
///
/// Layout is index-major (`slot = index * k + lane`), so the slots of a
/// contiguous *index* range form a contiguous memory range — exactly what a
/// bucketed merge needs to hand each bucket a disjoint mutable window via
/// [`LaneSpa::split_index_ranges`]. Like [`Spa`], initialization is partial:
/// a per-slot generation stamp makes the `O(m·k)` dense arrays logically
/// empty again with a single counter bump ([`LaneSpa::reset`]), so the big
/// allocation is paid once and reused across every batched multiplication.
///
/// Allocation is high-water: [`LaneSpa::ensure_shape`] reallocates only when
/// `m · k` exceeds every shape seen before, so shrinking `k` between flushes
/// (a serving engine's narrow batch after a wide one) reuses the arrays.
#[derive(Debug, Clone)]
pub struct LaneSpa<T> {
    /// Dense storage; `len()` is the capacity high-water mark (`≥ m·k`).
    values: Vec<T>,
    stamp: Vec<u64>,
    generation: u64,
    m: usize,
    k: usize,
}

impl<T: Scalar> LaneSpa<T> {
    /// Allocates the accumulator for index space `0..m` with `k` lanes.
    pub fn new(m: usize, k: usize) -> Self {
        LaneSpa {
            values: vec![T::default(); m * k],
            stamp: vec![0; m * k],
            // Stamps start at 0, so generation 1 makes every slot logically
            // empty from the first use.
            generation: 1,
            m,
            k,
        }
    }

    /// Lane count `k`.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.k
    }

    /// Allocated slots (the high-water mark of every `m · k` seen so far).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.values.len()
    }

    /// Reshapes the accumulator to exactly `m` indices and `k` lanes, then
    /// resets. The allocation is a high-water mark: it grows only when
    /// `m · k` exceeds every earlier shape, so shrinking `k` between flushes
    /// reuses the existing arrays (stale stamps are invalidated by the
    /// generation bump, never rewritten).
    pub fn ensure_shape(&mut self, m: usize, k: usize) {
        let needed = m * k;
        if needed > self.values.len() {
            self.values.resize(needed, T::default());
            self.stamp.resize(needed, 0);
        }
        self.m = m;
        self.k = k;
        self.reset();
    }

    /// Logically empties every slot in `O(1)`.
    pub fn reset(&mut self) {
        self.generation += 1;
    }

    /// The flat slot of `(index, lane)`.
    #[inline]
    pub fn slot(&self, index: usize, lane: usize) -> usize {
        debug_assert!(index < self.m && lane < self.k);
        index * self.k + lane
    }

    /// Current value at `(index, lane)`, if occupied this generation.
    #[inline]
    pub fn get(&self, index: usize, lane: usize) -> Option<&T> {
        let s = self.slot(index, lane);
        if self.stamp[s] == self.generation {
            Some(&self.values[s])
        } else {
            None
        }
    }

    /// Inserts or combines at `(index, lane)`; returns `true` when the slot
    /// was freshly occupied this generation.
    #[inline]
    pub fn accumulate(
        &mut self,
        index: usize,
        lane: usize,
        value: T,
        add: impl FnOnce(T, T) -> T,
    ) -> bool {
        let s = self.slot(index, lane);
        if self.stamp[s] == self.generation {
            self.values[s] = add(self.values[s], value);
            false
        } else {
            self.stamp[s] = self.generation;
            self.values[s] = value;
            true
        }
    }

    /// Splits the accumulator into disjoint mutable windows, one per index
    /// range (ranges must be contiguous from 0 and cover `0..m`, like bucket
    /// row ranges). Each window can be merged into concurrently.
    pub fn split_index_ranges<'a>(
        &'a mut self,
        ranges: &[Range<usize>],
    ) -> Vec<LaneSpaWindow<'a, T>> {
        let k = self.k;
        let live = self.m * k;
        let generation = self.generation;
        let mut out = Vec::with_capacity(ranges.len());
        // Only the logically live prefix is handed out; the high-water tail
        // beyond m·k stays untouched.
        let mut values: &'a mut [T] = &mut self.values[..live];
        let mut stamps: &'a mut [u64] = &mut self.stamp[..live];
        let mut consumed = 0usize;
        for r in ranges {
            assert_eq!(r.start, consumed, "ranges must be contiguous from 0");
            let take = (r.end - r.start) * k;
            let (v_head, v_tail) = values.split_at_mut(take);
            let (s_head, s_tail) = stamps.split_at_mut(take);
            out.push(LaneSpaWindow {
                values: v_head,
                stamps: s_head,
                base_index: r.start,
                k,
                generation,
            });
            values = v_tail;
            stamps = s_tail;
            consumed = r.end;
        }
        assert_eq!(consumed, self.m, "ranges must cover the whole index space");
        out
    }

    /// Read-only access to the value at a flat slot (for the gather step
    /// that runs after all windows are merged and dropped).
    #[inline]
    pub fn value_at(&self, index: usize, lane: usize) -> &T {
        &self.values[index * self.k + lane]
    }
}

/// A disjoint mutable window of a [`LaneSpa`] covering one contiguous index
/// range across all lanes. Handed to one merge task; windows of different
/// ranges can be used from different threads simultaneously.
#[derive(Debug)]
pub struct LaneSpaWindow<'a, T> {
    values: &'a mut [T],
    stamps: &'a mut [u64],
    base_index: usize,
    k: usize,
    generation: u64,
}

impl<T: Scalar> LaneSpaWindow<'_, T> {
    /// First index this window covers.
    #[inline]
    pub fn base_index(&self) -> usize {
        self.base_index
    }

    /// Inserts or combines at `(index, lane)` (index is global; must fall in
    /// this window's range). Returns `true` when the slot was freshly
    /// occupied this generation.
    #[inline]
    pub fn accumulate(
        &mut self,
        index: usize,
        lane: usize,
        value: T,
        add: impl FnOnce(T, T) -> T,
    ) -> bool {
        let s = (index - self.base_index) * self.k + lane;
        if self.stamps[s] == self.generation {
            self.values[s] = add(self.values[s], value);
            false
        } else {
            self.stamps[s] = self.generation;
            self.values[s] = value;
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_combines_duplicates() {
        let mut spa = Spa::new(10);
        assert!(spa.accumulate(3, 1.0, |a, b| a + b));
        assert!(!spa.accumulate(3, 2.5, |a, b| a + b));
        assert!(spa.accumulate(7, 4.0, |a, b| a + b));
        assert_eq!(spa.get(3).copied(), Some(3.5));
        assert_eq!(spa.get(7).copied(), Some(4.0));
        assert_eq!(spa.get(0), None);
        assert_eq!(spa.len(), 2);
        assert_eq!(spa.occupied(), &[3, 7]);
    }

    #[test]
    fn reset_is_logical_not_physical() {
        let mut spa = Spa::new(5);
        spa.accumulate(1, 10.0, |a, b| a + b);
        spa.reset();
        assert!(spa.is_empty());
        assert_eq!(spa.get(1), None);
        // Slot can be reused in the next generation.
        assert!(spa.accumulate(1, 2.0, |a, b| a + b));
        assert_eq!(spa.get(1).copied(), Some(2.0));
    }

    #[test]
    fn drain_returns_first_touch_order_and_resets() {
        let mut spa = Spa::new(8);
        spa.accumulate(5, 1.0, |a, b| a + b);
        spa.accumulate(2, 2.0, |a, b| a + b);
        spa.accumulate(5, 3.0, |a, b| a + b);
        let drained = spa.drain();
        assert_eq!(drained, vec![(5, 4.0), (2, 2.0)]);
        assert!(spa.is_empty());
        assert_eq!(spa.get(5), None);
    }

    #[test]
    fn many_generations_do_not_interfere() {
        let mut spa = Spa::new(4);
        for gen in 0..100u64 {
            spa.accumulate(gen as usize % 4, gen as f64, |_, b| b);
            assert_eq!(spa.len(), 1);
            spa.reset();
        }
        assert!(spa.is_empty());
    }

    #[test]
    fn min_reduction_works_through_closure() {
        let mut spa = Spa::new(3);
        spa.accumulate(0, 9usize, |a, b| a.min(b));
        spa.accumulate(0, 4usize, |a, b| a.min(b));
        spa.accumulate(0, 7usize, |a, b| a.min(b));
        assert_eq!(spa.get(0).copied(), Some(4));
    }

    #[test]
    fn lane_spa_keeps_lanes_independent() {
        let mut spa = LaneSpa::new(5, 3);
        assert!(spa.accumulate(2, 0, 1.0, |a, b| a + b));
        assert!(spa.accumulate(2, 1, 10.0, |a, b| a + b));
        assert!(!spa.accumulate(2, 0, 2.0, |a, b| a + b));
        assert_eq!(spa.get(2, 0).copied(), Some(3.0));
        assert_eq!(spa.get(2, 1).copied(), Some(10.0));
        assert_eq!(spa.get(2, 2), None);
        assert_eq!(spa.get(3, 0), None);
    }

    #[test]
    fn lane_spa_reset_is_logical() {
        let mut spa = LaneSpa::new(4, 2);
        spa.accumulate(1, 1, 7.0, |a, b| a + b);
        spa.reset();
        assert_eq!(spa.get(1, 1), None);
        assert!(spa.accumulate(1, 1, 2.0, |a, b| a + b));
        assert_eq!(spa.get(1, 1).copied(), Some(2.0));
    }

    #[test]
    fn lane_spa_fresh_allocation_is_empty() {
        let spa: LaneSpa<f64> = LaneSpa::new(3, 2);
        for i in 0..3 {
            for l in 0..2 {
                assert_eq!(spa.get(i, l), None);
            }
        }
    }

    #[test]
    fn lane_spa_ensure_shape_reuses_its_largest_allocation() {
        let mut spa: LaneSpa<usize> = LaneSpa::new(4, 1);
        spa.accumulate(0, 0, 9, |a, b| a + b);
        spa.ensure_shape(4, 1); // same shape, just reset
        assert_eq!(spa.get(0, 0), None);
        spa.ensure_shape(6, 3); // grows: capacity becomes 18
        assert_eq!(spa.m, 6);
        assert_eq!(spa.lanes(), 3);
        assert_eq!(spa.capacity(), 18);
        assert!(spa.accumulate(5, 2, 1, |a, b| a + b));
        // Shrinking k (and m) keeps the allocation but takes the new
        // logical shape — the serving-engine narrow-after-wide flush.
        spa.ensure_shape(2, 2);
        assert_eq!(spa.m, 2);
        assert_eq!(spa.lanes(), 2);
        assert_eq!(spa.capacity(), 18, "shrinking must not reallocate");
        // Slots remapped by the new k are logically empty (generation bump).
        for i in 0..2 {
            for l in 0..2 {
                assert_eq!(spa.get(i, l), None);
            }
        }
        assert!(spa.accumulate(1, 1, 5, |a, b| a + b));
        assert_eq!(spa.get(1, 1).copied(), Some(5));
        // Growing again within capacity still does not reallocate.
        spa.ensure_shape(9, 2);
        assert_eq!(spa.capacity(), 18);
        spa.ensure_shape(10, 2);
        assert_eq!(spa.capacity(), 20);
    }

    #[test]
    fn lane_spa_windows_merge_disjoint_ranges_in_parallel() {
        let mut spa = LaneSpa::new(10, 2);
        spa.reset();
        let ranges = [0..4, 4..10];
        let mut windows = spa.split_index_ranges(&ranges);
        assert_eq!(windows.len(), 2);
        std::thread::scope(|s| {
            let mut it = windows.drain(..);
            let mut w0 = it.next().unwrap();
            let mut w1 = it.next().unwrap();
            s.spawn(move || {
                assert!(w0.accumulate(1, 0, 5.0, |a, b| a + b));
                assert!(!w0.accumulate(1, 0, 2.0, |a, b| a + b));
            });
            s.spawn(move || {
                assert!(w1.accumulate(9, 1, 3.0, |a, b| a + b));
            });
        });
        assert_eq!(spa.get(1, 0).copied(), Some(7.0));
        assert_eq!(spa.get(9, 1).copied(), Some(3.0));
        assert_eq!(spa.get(1, 1), None);
    }

    /// The direct protocol the row-split kernel uses: accumulate, gather
    /// through `value_at`, reset, and reshape from an empty allocation.
    #[test]
    fn every_backend_supports_the_direct_protocol() {
        let mut spa = LaneSpa::new(0, 0);
        spa.ensure_shape(50, 4);
        assert!(spa.accumulate(10, 0, 1.0, |a, b| a + b));
        assert!(spa.accumulate(10, 3, 30.0, |a, b| a + b));
        assert!(!spa.accumulate(10, 0, 2.0, |a, b| a + b));
        assert!(spa.accumulate(49, 1, 7.0, |a, b| a + b));
        assert_eq!(spa.get(10, 0).copied(), Some(3.0));
        assert_eq!(spa.get(10, 3).copied(), Some(30.0));
        assert_eq!(spa.get(10, 1), None);
        assert_eq!(spa.get(49, 1).copied(), Some(7.0));
        assert_eq!(*spa.value_at(10, 0), 3.0);
        spa.reset();
        assert_eq!(spa.get(10, 0), None);
        assert!(spa.accumulate(10, 0, 4.0, |a, b| a + b));
        assert_eq!(spa.get(10, 0).copied(), Some(4.0));
        // Reshape narrower: allocation reused, contents gone.
        spa.ensure_shape(20, 2);
        assert_eq!(spa.get(10, 0), None);
        assert!(spa.accumulate(19, 1, 9.0, |a, b| a + b));
        assert_eq!(*spa.value_at(19, 1), 9.0);
    }

    /// The windowed protocol the fused bucket kernel uses, starting from an
    /// empty allocation: reshape, merge two buckets from two threads, then
    /// gather through `value_at` once the windows are dropped.
    #[test]
    fn every_backend_supports_the_windowed_protocol() {
        let mut spa = LaneSpa::new(0, 0);
        spa.ensure_shape(10, 2);
        {
            let mut windows = spa.split_index_ranges(&[0..4, 4..10]);
            assert_eq!(windows.len(), 2);
            assert_eq!(windows[1].base_index(), 4);
            std::thread::scope(|s| {
                let mut it = windows.drain(..);
                let mut w0 = it.next().unwrap();
                let mut w1 = it.next().unwrap();
                s.spawn(move || {
                    assert!(w0.accumulate(1, 0, 5.0, |a, b| a + b));
                    assert!(!w0.accumulate(1, 0, 2.0, |a, b| a + b));
                    assert!(w0.accumulate(3, 1, 1.5, |a, b| a + b));
                });
                s.spawn(move || {
                    assert!(w1.accumulate(9, 1, 3.0, |a, b| a + b));
                    assert!(w1.accumulate(4, 0, 4.0, |a, b| a + b));
                });
            });
        }
        assert_eq!(*spa.value_at(1, 0), 7.0);
        assert_eq!(*spa.value_at(3, 1), 1.5);
        assert_eq!(*spa.value_at(9, 1), 3.0);
        assert_eq!(*spa.value_at(4, 0), 4.0);
        assert_eq!(spa.get(1, 1), None);
        assert_eq!(spa.get(4, 1), None);
    }

    /// The two ways into the dense accumulator — direct `accumulate` (the
    /// row-split kernel) and per-bucket windows (the fused kernel) — compute
    /// slots differently and must leave identical logical contents.
    #[test]
    fn dense_backends_agree_with_each_other_on_a_random_script() {
        let (m, k) = (97usize, 5usize);
        let ranges = [0..13, 13..14, 14..60, 60..97];
        let mut direct = LaneSpa::new(m, k);
        let mut windowed = LaneSpa::new(0, 0);
        windowed.ensure_shape(m, k);
        {
            let mut windows = windowed.split_index_ranges(&ranges);
            let mut state = 0x1234_5678_u64;
            for _ in 0..800 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let i = (state >> 16) as usize % m;
                let l = (state >> 40) as usize % k;
                let v = (state % 100) as f64;
                let w = ranges.iter().position(|r| r.contains(&i)).unwrap();
                let fresh = direct.accumulate(i, l, v, |x, y| x + y);
                assert_eq!(fresh, windows[w].accumulate(i, l, v, |x, y| x + y));
            }
        }
        for i in 0..m {
            for l in 0..k {
                assert_eq!(direct.get(i, l), windowed.get(i, l), "slot ({i}, {l})");
            }
        }
    }

    #[test]
    fn backends_report_their_kind_and_labels() {
        assert_eq!(SpaBackend::Dense.label(), "dense");
        assert_eq!(SpaBackend::Dense.to_string(), "dense");
    }
}
