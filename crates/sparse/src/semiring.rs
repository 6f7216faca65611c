//! GraphBLAS-style semirings.
//!
//! The paper phrases SpMSpV as `y ← A ⊕.⊗ x` with an `ADD` and a `MULT`
//! operation (lines 7 and 18 of Algorithm 1). Keeping the pair of operations
//! abstract lets the very same bucket kernel compute:
//!
//! * numerical products (`PlusTimes` over `f64`),
//! * shortest-path relaxations (`MinPlus`),
//! * reachability / BFS frontiers (`BoolOrAnd`),
//! * BFS parent assignment (`Select2ndMin`, which propagates the vector
//!   value — the parent vertex id — and resolves collisions with `min`).
//!
//! A semiring here maps a matrix value of type `A` and a vector value of type
//! `X` into an output of type [`Semiring::Output`], then reduces collisions on
//! the same output row with [`Semiring::add`].

use crate::Scalar;

/// An `(add, multiply)` pair used by every SpMSpV kernel in this workspace.
///
/// Implementations must satisfy the usual semiring expectations that make
/// parallel merging order-insensitive:
///
/// * `add` is **associative and commutative** — bucket merging adds collided
///   entries in a nondeterministic order across threads;
/// * `zero()` is the identity of `add` (only used by dense reference code and
///   by the masked kernels; the sparse kernels never materialize zeros).
pub trait Semiring<A, X>: Send + Sync {
    /// Result type of `multiply` and element type of the output vector.
    type Output: Scalar;

    /// Additive identity.
    fn zero(&self) -> Self::Output;

    /// Combine a matrix entry with a vector entry ("scaling a column").
    fn multiply(&self, a: &A, x: &X) -> Self::Output;

    /// Reduce two partial results that landed on the same output row.
    fn add(&self, lhs: Self::Output, rhs: Self::Output) -> Self::Output;

    /// Whether, for a frontier whose values are `x` (in ascending index
    /// order), an output row's sum is always the product of its **first**
    /// contribution: the one from the smallest column. Returning `true`
    /// also promises that [`Semiring::multiply`] never reads the matrix
    /// value, so the product may be formed from a structurally symmetric
    /// matrix's mirrored entry.
    ///
    /// This is what makes a bottom-up (pull) step exact: scanning a row's
    /// columns in ascending order may stop at the first frontier member.
    /// The default, `false`, keeps every semiring on the push kernels.
    fn first_hit_decides(&self, x: &[X]) -> bool {
        let _ = x;
        false
    }
}

/// The conventional arithmetic semiring `(+, ×)` over a numeric type.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PlusTimes;

macro_rules! impl_plus_times {
    ($($t:ty),*) => {
        $(
            impl Semiring<$t, $t> for PlusTimes {
                type Output = $t;
                #[inline]
                fn zero(&self) -> $t { 0 as $t }
                #[inline]
                fn multiply(&self, a: &$t, x: &$t) -> $t { *a * *x }
                #[inline]
                fn add(&self, lhs: $t, rhs: $t) -> $t { lhs + rhs }
            }
        )*
    };
}

impl_plus_times!(f32, f64, i32, i64, u32, u64, usize);

/// The tropical semiring `(min, +)` used for single-source shortest paths.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MinPlus;

impl Semiring<f64, f64> for MinPlus {
    type Output = f64;
    #[inline]
    fn zero(&self) -> f64 {
        f64::INFINITY
    }
    #[inline]
    fn multiply(&self, a: &f64, x: &f64) -> f64 {
        *a + *x
    }
    #[inline]
    fn add(&self, lhs: f64, rhs: f64) -> f64 {
        lhs.min(rhs)
    }
}

/// The boolean semiring `(∨, ∧)` used for plain reachability BFS.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BoolOrAnd;

impl Semiring<bool, bool> for BoolOrAnd {
    type Output = bool;
    #[inline]
    fn zero(&self) -> bool {
        false
    }
    #[inline]
    fn multiply(&self, a: &bool, x: &bool) -> bool {
        *a && *x
    }
    #[inline]
    fn add(&self, lhs: bool, rhs: bool) -> bool {
        lhs || rhs
    }
}

/// The `(min, select2nd)` semiring used for parent-carrying BFS.
///
/// `multiply` ignores the matrix value and forwards the vector value (the id
/// of the frontier vertex discovering the row); `add` keeps the smallest
/// discovered parent so the result is deterministic regardless of thread
/// interleaving. When the frontier's values strictly ascend with their
/// index (a BFS frontier carries each vertex's own id), the smallest parent
/// is the first frontier member in ascending column order, so
/// [`Semiring::first_hit_decides`] holds.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Select2ndMin;

impl<A: Scalar> Semiring<A, usize> for Select2ndMin {
    type Output = usize;
    #[inline]
    fn zero(&self) -> usize {
        usize::MAX
    }
    #[inline]
    fn multiply(&self, _a: &A, x: &usize) -> usize {
        *x
    }
    #[inline]
    fn add(&self, lhs: usize, rhs: usize) -> usize {
        lhs.min(rhs)
    }
    fn first_hit_decides(&self, x: &[usize]) -> bool {
        x.windows(2).all(|w| w[0] < w[1])
    }
}

/// The `(max, times)` semiring, occasionally useful for scaling problems and
/// exercised by the property tests as a non-standard reduction.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MaxTimes;

impl Semiring<f64, f64> for MaxTimes {
    type Output = f64;
    #[inline]
    fn zero(&self) -> f64 {
        f64::NEG_INFINITY
    }
    #[inline]
    fn multiply(&self, a: &f64, x: &f64) -> f64 {
        *a * *x
    }
    #[inline]
    fn add(&self, lhs: f64, rhs: f64) -> f64 {
        lhs.max(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plus_times_is_ordinary_arithmetic() {
        let s = PlusTimes;
        assert_eq!(Semiring::<f64, f64>::multiply(&s, &3.0, &4.0), 12.0);
        assert_eq!(Semiring::<f64, f64>::add(&s, 3.0, 4.0), 7.0);
        assert_eq!(Semiring::<f64, f64>::zero(&s), 0.0);
        assert_eq!(Semiring::<i64, i64>::multiply(&s, &-2, &6), -12);
    }

    #[test]
    fn min_plus_relaxes_paths() {
        let s = MinPlus;
        assert_eq!(s.multiply(&2.0, &3.0), 5.0);
        assert_eq!(s.add(5.0, 4.0), 4.0);
        assert_eq!(s.add(s.zero(), 4.0), 4.0);
    }

    #[test]
    fn bool_or_and_models_reachability() {
        let s = BoolOrAnd;
        assert!(s.multiply(&true, &true));
        assert!(!s.multiply(&true, &false));
        assert!(s.add(false, true));
        assert!(!s.add(false, false));
    }

    #[test]
    fn select2nd_min_keeps_smallest_parent() {
        let s = Select2ndMin;
        assert_eq!(Semiring::<f64, usize>::multiply(&s, &9.5, &7), 7);
        assert_eq!(Semiring::<f64, usize>::add(&s, 7, 3), 3);
        assert_eq!(Semiring::<f64, usize>::zero(&s), usize::MAX);
    }

    #[test]
    fn first_hit_decides_only_for_ascending_select2nd_frontiers() {
        let s = Select2ndMin;
        assert!(Semiring::<f64, usize>::first_hit_decides(&s, &[]));
        assert!(Semiring::<f64, usize>::first_hit_decides(&s, &[0, 3, 9]));
        assert!(!Semiring::<f64, usize>::first_hit_decides(&s, &[3, 0, 9]));
        assert!(!Semiring::<f64, usize>::first_hit_decides(&s, &[3, 3]));
        assert!(!Semiring::<f64, f64>::first_hit_decides(&PlusTimes, &[1.0, 2.0]));
        assert!(!MinPlus.first_hit_decides(&[1.0, 2.0]));
    }

    #[test]
    fn max_times_zero_is_identity() {
        let s = MaxTimes;
        assert_eq!(s.add(s.zero(), -3.5), -3.5);
        assert_eq!(s.multiply(&2.0, &-3.0), -6.0);
    }
}
