//! The sparse accumulator (SPA) with partial initialization.
//!
//! The SPA (Gilbert, Moler & Schreiber, 1992) is a dense array of values plus
//! a list of the indices that are currently occupied. The paper's key
//! requirement (§II-F) is that a work-efficient SpMSpV algorithm must **not**
//! initialize the whole `O(m)` SPA on every multiplication: only the entries
//! actually touched may be initialized, bringing initialization cost down to
//! `O(nnz(y))`.
//!
//! [`Spa`] uses a *generation counter*: a `stamp` array records the
//! generation at which each slot was last written, so "resetting" is a single
//! counter increment — it never pays an `O(m)` clear between
//! multiplications, and the big allocation is paid once and reused.

use crate::Scalar;

/// A reusable sparse accumulator over a dense index space of size `m`.
#[derive(Debug, Clone)]
pub struct Spa<T> {
    /// Slot values; only meaningful where the stamp is current.
    values: Vec<T>,
    stamp: Vec<u64>,
    generation: u64,
    occupied: Vec<usize>,
}

impl<T: Scalar> Spa<T> {
    /// Allocates a SPA for index space `0..m`. This is the only `O(m)` cost;
    /// subsequent resets are `O(1)` plus the entries previously occupied.
    pub fn new(m: usize) -> Self {
        Spa {
            values: vec![T::default(); m],
            stamp: vec![0; m],
            generation: 1,
            occupied: Vec::new(),
        }
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
        self.is_set(i).then(|| &self.values[i])
    }

    /// Inserts `value` at slot `i` if unoccupied, otherwise combines the old
    /// and new values with `add`. Returns `true` when the slot was freshly
    /// occupied (i.e. `i` is a new unique index).
    #[inline]
    pub fn accumulate(&mut self, i: usize, value: T, add: impl FnOnce(T, T) -> T) -> bool {
        if self.is_set(i) {
            self.values[i] = add(self.values[i], value);
            false
        } else {
            self.stamp[i] = self.generation;
            self.values[i] = value;
            self.occupied.push(i);
            true
        }
    }

    /// Indices occupied in the current generation, in first-touch order.
    pub fn occupied(&self) -> &[usize] {
        &self.occupied
    }

    /// Drains the accumulator into ascending indices and their values, each
    /// array allocated once at its final length, and resets it. The
    /// occupied list is sorted in place and keeps its capacity for the next
    /// generation.
    pub fn drain_sorted(&mut self) -> (Vec<usize>, Vec<T>) {
        self.occupied.sort_unstable();
        let indices = self.occupied.clone();
        let values = indices.iter().map(|&i| self.values[i]).collect();
        self.reset();
        (indices, values)
    }
}

/// Label of the accumulator the batched kernels' lanes merge through, as it
/// appears in run telemetry (`BatchRunInfo`, the `engine.choice.*`
/// counters). There is one accumulator, so one label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpaBackend {
    /// A dense, generation-stamped per-row accumulator, one per lane kernel.
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
    fn drain_sorted_returns_ascending_parts_and_resets() {
        let mut spa = Spa::new(8);
        spa.accumulate(5, 1.0, |a, b| a + b);
        spa.accumulate(2, 2.0, |a, b| a + b);
        spa.accumulate(5, 3.0, |a, b| a + b);
        spa.accumulate(7, 0.5, |a, b| a + b);
        assert_eq!(spa.drain_sorted(), (vec![2, 5, 7], vec![2.0, 4.0, 0.5]));
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
    fn backends_report_their_kind_and_labels() {
        assert_eq!(SpaBackend::Dense.label(), "dense");
        assert_eq!(SpaBackend::Dense.to_string(), "dense");
    }
}
