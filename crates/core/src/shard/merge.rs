//! Merging per-shard answers into the request's final output.
//!
//! For a pushed request each shard returns a *full-height* partial (its
//! sub-matrix keeps every row), so merging is a pure element-wise
//! `⊕`-fold. Order matters for bit-identity with an unsharded engine: shard
//! `p`'s partial is a left-fold over its columns in ascending order, so
//! folding partials in **ascending shard order** reproduces the global
//! ascending-column fold exactly.
//!
//! For a pulled request each shard returns the rows it owns, so the answers
//! are disjoint, ascending row ranges and merging is concatenation in shard
//! order ([`concatenate_rows`]), with no `⊕` at all.

use std::ops::Range;

use sparse_substrate::{Scalar, SparseVec};

/// Folds full-height shard partials into one output vector with the
/// semiring's `add`, in ascending shard order (`partials[0]` must be the
/// lowest-column shard's result, and so on).
///
/// A row present in several partials is folded left-to-right across them; a
/// row present in exactly one passes through untouched (no spurious
/// `add(zero, v)` is introduced, matching what a single engine's kernel
/// would have produced). The partials' rows are ascending, so a k-way cursor
/// merge produces the ascending output in one linear pass. A lone partial
/// is moved out as the output, not copied.
pub fn merge_partials<Y, F>(len: usize, mut partials: Vec<SparseVec<Y>>, mut add: F) -> SparseVec<Y>
where
    Y: Scalar,
    F: FnMut(Y, Y) -> Y,
{
    for p in &partials {
        assert_eq!(p.len(), len, "shard partial has wrong output dimension");
    }
    match partials.len() {
        0 => SparseVec::new(len),
        1 => partials.pop().expect("one partial"),
        _ => merge_sorted(len, &partials, &mut add),
    }
}

/// Concatenates the answers of a pulled request into one output of `len`
/// rows, in shard order: each answer comes with the rows its shard owns,
/// `[lo, hi)`, and holds them re-based to 0. The ranges ascend and are
/// disjoint, so shifting each answer's indices by its `lo` in place and
/// appending them in order is the ascending output.
///
/// # Panics
///
/// When an answer is not as high as its row range, or the ranges do not
/// ascend inside `0..len`.
pub(crate) fn concatenate_rows<Y: Scalar>(
    len: usize,
    answers: impl IntoIterator<Item = (Range<usize>, SparseVec<Y>)>,
) -> SparseVec<Y> {
    let (mut indices, mut values) = (Vec::new(), Vec::new());
    for (rows, answer) in answers {
        assert_eq!(answer.len(), rows.len(), "shard answer does not span its owned rows");
        let (_, mut owned, owned_values) = answer.into_parts();
        owned.iter_mut().for_each(|i| *i += rows.start);
        if indices.is_empty() {
            (indices, values) = (owned, owned_values);
        } else {
            indices.extend(owned);
            values.extend(owned_values);
        }
    }
    SparseVec::from_parts(len, indices, values).expect("owned row ranges ascend inside the output")
}

/// K-way cursor merge over the partials. `k` is the shard fan-out of one
/// request — small — so a linear min-scan over cursors beats a heap.
fn merge_sorted<Y, F>(len: usize, partials: &[SparseVec<Y>], add: &mut F) -> SparseVec<Y>
where
    Y: Scalar,
    F: FnMut(Y, Y) -> Y,
{
    let mut out = SparseVec::new(len);
    let mut cursors = vec![0usize; partials.len()];
    loop {
        let mut row = usize::MAX;
        for (p, &c) in partials.iter().zip(&cursors) {
            if let Some(&i) = p.indices().get(c) {
                row = row.min(i);
            }
        }
        if row == usize::MAX {
            return out;
        }
        // Fold this row's contributions in ascending shard order.
        let mut acc: Option<Y> = None;
        for (p, c) in partials.iter().zip(cursors.iter_mut()) {
            if p.indices().get(*c) == Some(&row) {
                let v = p.values()[*c];
                acc = Some(match acc {
                    None => v,
                    Some(a) => add(a, v),
                });
                *c += 1;
            }
        }
        out.push(row, acc.expect("row came from some cursor"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(len: usize, pairs: &[(usize, f64)]) -> SparseVec<f64> {
        SparseVec::from_pairs(len, pairs.to_vec()).unwrap()
    }

    #[test]
    fn disjoint_rows_concatenate() {
        let merged =
            merge_partials(6, vec![sv(6, &[(0, 1.0), (4, 4.0)]), sv(6, &[(2, 2.0)])], |a, b| a + b);
        assert_eq!(merged, sv(6, &[(0, 1.0), (2, 2.0), (4, 4.0)]));
    }

    #[test]
    fn overlapping_rows_fold_in_shard_order() {
        // Non-commutative "add" exposes fold order: keep the left operand's
        // sign, sum magnitudes.
        let order_sensitive = |a: f64, b: f64| a.signum() * (a.abs() + b.abs());
        let merged = merge_partials(
            3,
            vec![sv(3, &[(1, -1.0)]), sv(3, &[(1, 2.0)]), sv(3, &[(1, 4.0)])],
            order_sensitive,
        );
        // Shard 0 first: (((-1) ⊕ 2) ⊕ 4) = -7, not +7.
        assert_eq!(merged, sv(3, &[(1, -7.0)]));
    }

    #[test]
    fn single_partial_passes_through_untouched() {
        let p = sv(4, &[(0, 1.0), (3, 9.0)]);
        let merged = merge_partials(4, vec![p.clone()], |_, _| unreachable!("nothing to fold"));
        assert_eq!(merged, p);
        // Moved, not copied: the output owns the partial's own buffers.
        let p = sv(4, &[(1, 2.0)]);
        let (indices, values) = (p.indices().as_ptr(), p.values().as_ptr());
        let merged = merge_partials(4, vec![p], |_, _| unreachable!("nothing to fold"));
        assert_eq!((merged.indices().as_ptr(), merged.values().as_ptr()), (indices, values));
    }

    #[test]
    fn empty_input_is_empty_output() {
        let merged: SparseVec<f64> = merge_partials(7, Vec::new(), |a, _| a);
        assert_eq!(merged.nnz(), 0);
        assert_eq!(merged.len(), 7);
    }

    #[test]
    #[should_panic(expected = "wrong output dimension")]
    fn dimension_mismatch_is_rejected() {
        let _ = merge_partials(4, vec![sv(3, &[])], |a: f64, _| a);
    }

    #[test]
    fn owned_rows_concatenate_shifted_in_shard_order() {
        let answers = [
            (0..3, sv(3, &[(0, 1.0), (2, 2.0)])),
            (3..4, sv(1, &[])),
            (4..9, sv(5, &[(0, 3.0), (4, 4.0)])),
        ];
        let y = concatenate_rows(9, answers);
        assert_eq!(y, sv(9, &[(0, 1.0), (2, 2.0), (4, 3.0), (8, 4.0)]));
        // A shard whose owned mask kept nothing is absent, not empty.
        let y = concatenate_rows(9, [(4..9, sv(5, &[(1, 5.0)]))]);
        assert_eq!(y, sv(9, &[(5, 5.0)]));
        assert_eq!(concatenate_rows::<f64>(9, []), sv(9, &[]));
    }

    #[test]
    #[should_panic(expected = "does not span its owned rows")]
    fn a_full_height_answer_is_rejected() {
        let _ = concatenate_rows(6, [(2..4, sv(6, &[(5, 1.0)]))]);
    }
}
