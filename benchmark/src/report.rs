//! What one workload run hands back to `main`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::spec;
use crate::trace::Span;

/// Arguments of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of the measuring window, seconds.
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    /// Kernel pool threads: `nproc`, what `SpMSpVOptions::default()` resolves to.
    pub threads: usize,
}

impl RunConfig {
    /// A share of the measuring window, for traced runs that split it
    /// between several measurements.
    pub fn slice(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

#[derive(Debug, Default)]
pub struct Report {
    /// Operations run and checked (traversals or requests).
    pub attempted: u64,
    /// Operations that errored, were refused, or failed their output check.
    pub failed: u64,
    /// Metric values by name; every name is in `spec`.
    pub metrics: BTreeMap<&'static str, f64>,
    /// How many samples stand behind the timing metrics.
    pub samples: BTreeMap<&'static str, u64>,
    pub spans: Vec<Span>,
    /// Facts about the generated inputs (sizes, bytes), for the results file.
    pub info: Vec<(&'static str, Json)>,
    /// The first few failed checks, for the operator.
    pub errors: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            spec::end_to_end(name).is_some() || spec::per_layer(name).is_some(),
            "metric {name} is not in the spec"
        );
        self.metrics.insert(name, value);
    }

    /// Counts one checked operation.
    pub fn checked(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(why);
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

impl Report {
    /// Records the three end-to-end metrics and the sample counts behind
    /// them. `op_p50_samples` are the operation times the median is taken
    /// over (seconds); `ops` operations completed in `ops_seconds`.
    pub fn set_end_to_end(
        &mut self,
        op_p50_samples: &[f64],
        ops: usize,
        ops_seconds: f64,
        setups: &[Duration],
    ) {
        self.set("op_p50_ms", crate::stats::median(op_p50_samples) * 1e3);
        self.set("ops_per_s", ops as f64 / ops_seconds);
        self.set("setup_s", crate::stats::median(&crate::stats::secs(setups)));
        self.samples.insert("op_p50_ms", op_p50_samples.len() as u64);
        self.samples.insert("ops_per_s", ops as u64);
        self.samples.insert("setup_s", setups.len() as u64);
    }
}

/// Runs `op` until `window` has elapsed and at least `min_ops` calls were
/// made; `op` gets the call index.
pub fn repeat_for(window: Duration, min_ops: usize, mut op: impl FnMut(usize)) {
    let started = Instant::now();
    let mut i = 0;
    while i < min_ops || started.elapsed() < window {
        op(i);
        i += 1;
    }
}

/// The end-to-end run's loop: operations for `window` (at least `min_ops`)
/// on the front door the first set-up builds, with the other `setup_reps - 1`
/// build-and-tear-down repetitions spread evenly through the window rather
/// than bunched at its start, so that a slow spell of the host shorter than
/// the window cannot fall on all of them. Time spent in set-ups does not
/// count towards the window. Returns the set-up times.
pub fn measure_with_setups<D>(
    window: Duration,
    min_ops: usize,
    setup_reps: usize,
    report: &mut Report,
    mut set_up: impl FnMut(&mut Report) -> (D, Duration),
    mut op: impl FnMut(&mut D, &mut Report),
) -> Vec<Duration> {
    let (mut door, first) = set_up(report);
    let mut setups = vec![first];
    let started = Instant::now();
    let mut in_setup = Duration::ZERO;
    let mut ops = 0usize;
    loop {
        let measured = started.elapsed().saturating_sub(in_setup);
        let due = window.mul_f64(setups.len() as f64 / setup_reps.max(1) as f64);
        if setups.len() < setup_reps && measured >= due {
            let t = Instant::now();
            let (torn_down, elapsed) = set_up(report);
            drop(torn_down);
            setups.push(elapsed);
            in_setup += t.elapsed();
        } else if ops < min_ops || measured < window {
            op(&mut door, report);
            ops += 1;
        } else {
            return setups;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setups_spread_through_the_window_and_do_not_eat_it() {
        let mut log = Vec::new();
        let log_cell = std::cell::RefCell::new(&mut log);
        let setups = measure_with_setups(
            Duration::from_millis(40),
            3,
            4,
            &mut Report::default(),
            |_| {
                std::thread::sleep(Duration::from_millis(2));
                log_cell.borrow_mut().push('s');
                ((), Duration::from_millis(2))
            },
            |(), _| {
                std::thread::sleep(Duration::from_millis(2));
                log_cell.borrow_mut().push('o');
            },
        );
        assert_eq!(setups.len(), 4);
        assert_eq!(&log[..2], ['s', 'o']);
        let last_setup = log.iter().rposition(|&c| c == 's').expect("a set-up");
        assert!(last_setup > log.len() / 2, "set-ups bunched at the start: {log:?}");
        // Sleeping in set-ups does not eat the operations' window.
        let ops = log.iter().filter(|&&c| c == 'o').count();
        assert!(ops >= 12, "only {ops} operations in a 40 ms window of 2 ms steps");
    }

    #[test]
    fn the_minimum_operation_count_holds_for_an_empty_window() {
        let mut ops = Vec::new();
        repeat_for(Duration::ZERO, 3, |i| ops.push(i));
        assert_eq!(ops, [0, 1, 2]);
    }
}
