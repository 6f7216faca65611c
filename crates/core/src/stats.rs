//! The paper's work lower bound and serving-engine telemetry.
//!
//! The paper's argument is not about constant factors but about *how much
//! work* each parallelization strategy performs relative to the lower bound
//! `Ω(d·f)` (the number of matrix entries that must be read);
//! [`WorkStats::lower_bound`] counts it exactly from the operands.
//!
//! [`EngineStats`] is the serving-side telemetry: it counts how well the
//! [`crate::engine::Engine`]'s coalescer is doing its one job — turning many
//! single-frontier requests into few wide fused multiplications.

use sparse_substrate::{CscMatrix, Scalar, SpaBackend, SparseVec};

use crate::batch::BatchAlgorithmKind;
use crate::timing::FlushTimings;

/// The paper's work measure for one SpMSpV invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkStats;

impl WorkStats {
    /// The paper's lower bound for this operand pair: the number of matrix
    /// entries in the selected columns.
    pub fn lower_bound(a: &CscMatrix<impl Scalar>, x: &SparseVec<impl Scalar>) -> usize {
        sparse_substrate::ops::required_multiplications(a, x)
    }
}

/// Coalescing telemetry of one [`crate::engine::Engine`]: how many requests
/// arrived, how few fused multiplications they collapsed into, and where the
/// flush wall-clock went.
///
/// Snapshot via [`crate::engine::Engine::stats`]; all counters are
/// cumulative since engine creation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests submitted (whether or not they ran).
    pub requests: usize,
    /// Requests retired before execution (ticket cancelled or session
    /// closed mid-flight).
    pub retired: usize,
    /// `flush` invocations that found at least one live request.
    pub flushes: usize,
    /// Fused batched multiplications executed across all flushes. Lower is
    /// better for a fixed request count: `requests − retired` lanes divided
    /// over `fused_batches` calls is the coalescing win.
    pub fused_batches: usize,
    /// Lanes executed across all fused batches (= requests that produced a
    /// result).
    pub lanes_executed: usize,
    /// Widest single flush observed (lanes).
    pub widest_flush: usize,
    /// Requests failed with
    /// [`EngineError::DeadlineExceeded`](crate::engine::EngineError) —
    /// expired before fusing or between execution and demux.
    pub timeouts: usize,
    /// Requests failed at submit time by
    /// [`OverloadPolicy::Reject`](crate::engine::OverloadPolicy).
    pub rejected: usize,
    /// Queued requests evicted by
    /// [`OverloadPolicy::ShedOldest`](crate::engine::OverloadPolicy).
    pub shed: usize,
    /// Kernel failures (caught panics or injected errors) the engine
    /// survived — one per failed execution attempt.
    pub panics_recovered: usize,
    /// Flush groups served by the one-shot one-participant retry after
    /// their first attempt failed.
    pub degraded_flushes: usize,
    /// Accumulated wall-clock breakdown across every flush.
    pub flush_timings: FlushTimings,
    /// Fused batches that did work.
    pub choices: ChoiceCounts,
}

/// Fused batches that did work: the engine's record of what ran. Every
/// batch runs on the [lane runner](crate::batch::LaneBatch) and merges
/// through the one dense accumulator, so the table has one cell,
/// `(BatchAlgorithmKind::Bucket, SpaBackend::Dense)`; which single-vector
/// family each lane picked is counted by the `adaptive.single.*` metrics of
/// [`crate::obs`]. Kept for `benchmark/`, which reads it; the benchmark's
/// next change removes it (see `ROADMAP.md`).
///
/// Fixed-size and `Copy` so it can live inside the engine's snapshot-able
/// [`EngineStats`] and per-flush
/// [`FlushOutcome`](crate::engine::FlushOutcome).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChoiceCounts {
    batches: usize,
}

impl ChoiceCounts {
    /// A table of `batches` recorded runs — how the engine's registry-backed
    /// [`EngineStats`] view reconstitutes it from its counter.
    pub(crate) const fn from_count(batches: usize) -> ChoiceCounts {
        ChoiceCounts { batches }
    }

    /// Records one batch that did work.
    pub(crate) fn record(&mut self) {
        self.batches += 1;
    }

    /// Total recorded runs.
    pub fn total(&self) -> usize {
        self.batches
    }

    /// Adds another count table into this one (flush → engine aggregation).
    pub fn merge(&mut self, other: &ChoiceCounts) {
        self.batches += other.batches;
    }

    /// Iterates the non-zero `(kernel, backend, count)` cells.
    pub fn iter(&self) -> impl Iterator<Item = (BatchAlgorithmKind, SpaBackend, usize)> + '_ {
        let [kernel] = BatchAlgorithmKind::fixed();
        (self.batches > 0).then_some((kernel, SpaBackend::Dense, self.batches)).into_iter()
    }
}

impl std::fmt::Display for ChoiceCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.iter().next() {
            None => f.write_str("no runs recorded"),
            Some((kernel, backend, n)) => write!(f, "{}/{}×{}", kernel.label(), backend.label(), n),
        }
    }
}

impl EngineStats {
    /// Adds another engine's cumulative stats into this one — the
    /// aggregation a [`ShardedEngine`](crate::shard::ShardedEngine) uses to
    /// present its per-shard engines as one serving surface. Counters and
    /// timings sum; [`EngineStats::widest_flush`] takes the max (it is a
    /// high-water mark, not a count).
    pub fn absorb(&mut self, other: &EngineStats) {
        self.requests += other.requests;
        self.retired += other.retired;
        self.flushes += other.flushes;
        self.fused_batches += other.fused_batches;
        self.lanes_executed += other.lanes_executed;
        self.widest_flush = self.widest_flush.max(other.widest_flush);
        self.timeouts += other.timeouts;
        self.rejected += other.rejected;
        self.shed += other.shed;
        self.panics_recovered += other.panics_recovered;
        self.degraded_flushes += other.degraded_flushes;
        self.flush_timings += other.flush_timings;
        self.choices.merge(&other.choices);
    }

    /// Requests that resolved as failures (any cause the engine counts).
    pub fn failures(&self) -> usize {
        self.timeouts + self.rejected + self.shed
    }

    /// Mean lanes per fused multiplication — the amortization factor the
    /// engine exists to maximize (1.0 means no coalescing happened).
    pub fn mean_lanes_per_batch(&self) -> f64 {
        if self.fused_batches == 0 {
            0.0
        } else {
            self.lanes_executed as f64 / self.fused_batches as f64
        }
    }

    /// Mean lanes per flush (a flush may execute several groups when
    /// requests are not mutually compatible).
    pub fn mean_lanes_per_flush(&self) -> f64 {
        if self.flushes == 0 {
            0.0
        } else {
            self.lanes_executed as f64 / self.flushes as f64
        }
    }
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} requests ({} retired) → {} fused batches over {} flushes \
             ({:.1} lanes/batch, widest {}); {}",
            self.requests,
            self.retired,
            self.fused_batches,
            self.flushes,
            self.mean_lanes_per_batch(),
            self.widest_flush,
            self.flush_timings,
        )?;
        if self.failures() > 0 || self.panics_recovered > 0 {
            write!(
                f,
                "; failures: {} timed out, {} rejected, {} shed, \
                 {} kernel failures survived ({} degraded)",
                self.timeouts,
                self.rejected,
                self.shed,
                self.panics_recovered,
                self.degraded_flushes,
            )?;
        }
        if self.choices.total() > 0 {
            write!(f, "; chose {}", self.choices)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_substrate::fixtures::{figure1_matrix, figure1_vector};

    #[test]
    fn lower_bound_matches_required_multiplications() {
        let a = figure1_matrix();
        let x = figure1_vector();
        assert_eq!(WorkStats::lower_bound(&a, &x), 7);
    }

    #[test]
    fn engine_stats_display_lists_failures() {
        let stats = EngineStats { timeouts: 2, rejected: 8, shed: 10, ..EngineStats::default() };
        assert_eq!(stats.failures(), 20);
        let rendered = stats.to_string();
        assert!(rendered.contains("2 timed out"), "display misses failures: {rendered}");
        assert!(rendered.contains("10 shed"), "display misses shed: {rendered}");
    }
}
