//! Per-step timing instrumentation (Figure 6 of the paper).
//!
//! The paper's SpMSpV-bucket algorithm has four distinct phases — estimate,
//! bucketing, SPA merge, output — and analyses how each one scales with
//! thread count and vector density. The kernels here have no estimate pass
//! (see [`crate::bucket`]), so `estimate` reads zero.
//! [`StepTimings`] captures one multiplication's breakdown; [`StepTimings`]
//! values can be summed across the many multiplications of a BFS run.

use std::ops::AddAssign;
use std::time::Duration;

/// Wall-clock duration of each phase of one (or several accumulated)
/// SpMSpV-bucket multiplications.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepTimings {
    /// Algorithm 2's slot: zero, since the bucket kernel has no estimate
    /// pass.
    pub estimate: Duration,
    /// Step 1: probing the mask and pushing the kept scaled entries into
    /// buckets.
    pub bucketing: Duration,
    /// Step 2: per-bucket SPA merge.
    pub merge: Duration,
    /// Step 3: concatenation into the output vector (plus optional sorting).
    pub output: Duration,
}

impl StepTimings {
    /// Total time across the four phases.
    pub fn total(&self) -> Duration {
        self.estimate + self.bucketing + self.merge + self.output
    }

    /// The four phases as `(name, duration)` pairs, in pipeline order —
    /// the names double as the `batch.<phase>` histogram suffixes in
    /// [`crate::obs`].
    pub fn phases(&self) -> [(&'static str, Duration); 4] {
        [
            ("estimate", self.estimate),
            ("bucketing", self.bucketing),
            ("merge", self.merge),
            ("output", self.output),
        ]
    }

    /// Fraction of the total spent in each phase, in the order
    /// (estimate, bucketing, merge, output). Returns zeros for an empty
    /// timing.
    pub fn fractions(&self) -> [f64; 4] {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            return [0.0; 4];
        }
        [
            self.estimate.as_secs_f64() / total,
            self.bucketing.as_secs_f64() / total,
            self.merge.as_secs_f64() / total,
            self.output.as_secs_f64() / total,
        ]
    }
}

impl AddAssign for StepTimings {
    fn add_assign(&mut self, rhs: Self) {
        self.estimate += rhs.estimate;
        self.bucketing += rhs.bucketing;
        self.merge += rhs.merge;
        self.output += rhs.output;
    }
}

impl std::fmt::Display for StepTimings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "estimate {:.3} ms | bucketing {:.3} ms | merge {:.3} ms | output {:.3} ms",
            self.estimate.as_secs_f64() * 1e3,
            self.bucketing.as_secs_f64() * 1e3,
            self.merge.as_secs_f64() * 1e3,
            self.output.as_secs_f64() * 1e3,
        )
    }
}

/// Wall-clock breakdown of one (or several accumulated) serving-engine
/// flushes — the coalescer's counterpart of [`StepTimings`].
///
/// A flush has three regular phases: *assemble* (draining the request queue,
/// grouping compatible requests, building the [`sparse_substrate::SparseVecBatch`] and
/// installing per-lane masks), *execute* (the batched
/// multiplications), and *demux* (scattering per-lane results back to the
/// tickets) — plus *recover*, the time spent re-running failed groups on a
/// one-participant runner, zero on every healthy flush. `execute` dominating is the
/// designed-for regime: it means the serving layer's bookkeeping is
/// amortized away by the batched kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushTimings {
    /// Queue drain, request grouping, batch assembly, mask installation.
    pub assemble: Duration,
    /// The batched multiplications.
    pub execute: Duration,
    /// Per-lane result scatter back to the waiting tickets.
    pub demux: Duration,
    /// Degraded retries: re-running a failed group on a one-participant
    /// runner.
    pub recover: Duration,
}

impl FlushTimings {
    /// Total time across all phases.
    pub fn total(&self) -> Duration {
        self.assemble + self.execute + self.demux + self.recover
    }

    /// The four phases as `(name, duration)` pairs — the names double as
    /// the `engine.flush.<phase>` histogram suffixes in [`crate::obs`].
    pub fn phases(&self) -> [(&'static str, Duration); 4] {
        [
            ("assemble", self.assemble),
            ("execute", self.execute),
            ("demux", self.demux),
            ("recover", self.recover),
        ]
    }

    /// Fraction of the total spent in each phase, in the order
    /// (assemble, execute, demux, recover). Returns zeros for an empty
    /// timing.
    pub fn fractions(&self) -> [f64; 4] {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            return [0.0; 4];
        }
        [
            self.assemble.as_secs_f64() / total,
            self.execute.as_secs_f64() / total,
            self.demux.as_secs_f64() / total,
            self.recover.as_secs_f64() / total,
        ]
    }
}

impl AddAssign for FlushTimings {
    fn add_assign(&mut self, rhs: Self) {
        self.assemble += rhs.assemble;
        self.execute += rhs.execute;
        self.demux += rhs.demux;
        self.recover += rhs.recover;
    }
}

impl std::fmt::Display for FlushTimings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "assemble {:.3} ms | execute {:.3} ms | demux {:.3} ms",
            self.assemble.as_secs_f64() * 1e3,
            self.execute.as_secs_f64() * 1e3,
            self.demux.as_secs_f64() * 1e3,
        )?;
        if !self.recover.is_zero() {
            write!(f, " | recover {:.3} ms", self.recover.as_secs_f64() * 1e3)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_timings_total_fractions_and_display() {
        let t = FlushTimings {
            assemble: Duration::from_millis(10),
            execute: Duration::from_millis(80),
            demux: Duration::from_millis(10),
            recover: Duration::ZERO,
        };
        assert_eq!(t.total(), Duration::from_millis(100));
        let f = t.fractions();
        assert!((f[1] - 0.8).abs() < 1e-9);
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert_eq!(FlushTimings::default().fractions(), [0.0; 4]);
        let mut acc = t;
        acc += t;
        assert_eq!(acc.execute, Duration::from_millis(160));
        assert!(t.to_string().contains("execute 80.000 ms"), "unexpected display: {t}");
        assert!(
            !t.to_string().contains("recover"),
            "a healthy flush must not advertise recovery time: {t}"
        );
        let degraded = FlushTimings { recover: Duration::from_millis(5), ..t };
        assert_eq!(degraded.total(), Duration::from_millis(105));
        assert!(
            degraded.to_string().contains("recover 5.000 ms"),
            "unexpected display: {degraded}"
        );
    }

    #[test]
    fn total_and_fractions() {
        let t = StepTimings {
            estimate: Duration::from_millis(10),
            bucketing: Duration::from_millis(20),
            merge: Duration::from_millis(50),
            output: Duration::from_millis(20),
        };
        assert_eq!(t.total(), Duration::from_millis(100));
        let f = t.fractions();
        assert!((f[0] - 0.1).abs() < 1e-9);
        assert!((f[2] - 0.5).abs() < 1e-9);
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn phases_mirror_the_fields_in_order() {
        let t = StepTimings {
            estimate: Duration::from_millis(1),
            bucketing: Duration::from_millis(2),
            merge: Duration::from_millis(3),
            output: Duration::from_millis(4),
        };
        let names: Vec<&str> = t.phases().iter().map(|&(n, _)| n).collect();
        assert_eq!(names, ["estimate", "bucketing", "merge", "output"]);
        assert_eq!(t.phases().iter().map(|&(_, d)| d).sum::<Duration>(), t.total());
        let ft = FlushTimings {
            assemble: Duration::from_millis(1),
            execute: Duration::from_millis(2),
            demux: Duration::from_millis(3),
            recover: Duration::from_millis(4),
        };
        let names: Vec<&str> = ft.phases().iter().map(|&(n, _)| n).collect();
        assert_eq!(names, ["assemble", "execute", "demux", "recover"]);
        assert_eq!(ft.phases().iter().map(|&(_, d)| d).sum::<Duration>(), ft.total());
    }

    #[test]
    fn empty_timings_have_zero_fractions() {
        let t = StepTimings::default();
        assert_eq!(t.total(), Duration::ZERO);
        assert_eq!(t.fractions(), [0.0; 4]);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = StepTimings {
            estimate: Duration::from_millis(1),
            bucketing: Duration::from_millis(2),
            merge: Duration::from_millis(3),
            output: Duration::from_millis(4),
        };
        a += a;
        assert_eq!(a.total(), Duration::from_millis(20));
        assert_eq!(a.merge, Duration::from_millis(6));
    }

    #[test]
    fn display_renders_milliseconds() {
        let t = StepTimings { merge: Duration::from_millis(5), ..Default::default() };
        let s = t.to_string();
        assert!(s.contains("merge 5.000 ms"), "unexpected display: {s}");
    }
}
