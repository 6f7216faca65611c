//! `benchmark compare <a.json> <b.json>`: two results files side by side,
//! judged against the bounds of the end-to-end metrics.

use crate::json::{as_arr, as_f64, get, get_path, Json};
use crate::spec::{Better, EndToEnd, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartile_spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs of one side spread wider than the bound, so a difference
    /// inside it cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b`'s runs against `a`'s (the base) for one metric.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let (base, new) = (median(a), median(b));
    let change = match metric.better {
        Better::Lower => new / base,
        Better::Higher => base / new,
    };
    // > 1 means worse, whichever direction is better.
    let worse_by = change - 1.0;
    let every_run_better = match metric.better {
        Better::Lower => b.iter().all(|x| a.iter().all(|y| x < y)),
        Better::Higher => b.iter().all(|x| a.iter().all(|y| x > y)),
    };
    let noisy = quartile_spread(a) > metric.bound || quartile_spread(b) > metric.bound;
    let verdict = if worse_by > metric.bound {
        Verdict::Regressed
    } else if noisy && !every_run_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (new / base, verdict)
}

fn runs(doc: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let runs = get_path(doc, &["workloads", workload, "end_to_end", metric, "runs"])?;
    Some(as_arr(runs)?.iter().filter_map(as_f64).collect())
}

/// Prints the comparison; `Ok(true)` when nothing regressed and every count
/// metric present in both files is identical.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    for doc in [a, b] {
        if get(doc, "workloads").is_none() {
            return Err("not a results file: no \"workloads\" object".to_string());
        }
    }
    let mut clean = true;
    println!(
        "{:<12} {:<10} {:>12} {:>12} {:>14}  verdict (bound)",
        "workload", "metric", "a (base)", "b", "b / a"
    );
    for w in WORKLOADS {
        for m in &END_TO_END {
            let (Some(ra), Some(rb)) = (runs(a, w.name, m.name), runs(b, w.name, m.name)) else {
                continue;
            };
            if ra.is_empty() || rb.is_empty() {
                continue;
            }
            let (ratio, verdict) = judge(m, &ra, &rb);
            clean &= verdict != Verdict::Regressed;
            println!(
                "{:<12} {:<10} {:>12.4} {:>12.4} {:>14.4}  {} ({:.2}, {} is better)",
                w.name,
                m.name,
                median(&ra),
                median(&rb),
                ratio,
                verdict.label(),
                m.bound,
                m.better.label()
            );
        }
        for m in PER_LAYER.iter().filter(|m| m.count) {
            let value = |doc| {
                get_path(doc, &["workloads", w.name, "per_layer", m.name, "value"]).and_then(as_f64)
            };
            if let (Some(va), Some(vb)) = (value(a), value(b)) {
                if va != vb {
                    clean = false;
                    println!(
                        "{:<12} {} differs: {va} vs {vb} (a count must repeat)",
                        w.name, m.name
                    );
                }
            }
        }
        for (side, doc) in [("a", a), ("b", b)] {
            let failed = get_path(doc, &["workloads", w.name, "failed"]).and_then(as_f64);
            if failed.is_some_and(|f| f > 0.0) {
                clean = false;
                println!("{:<12} {side} has failed operations", w.name);
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better) -> EndToEnd {
        EndToEnd { name: "m", unit: "ms", better, bound: 0.10, what: "" }
    }

    #[test]
    fn a_latency_past_its_bound_regresses_and_a_gain_does_not() {
        let m = metric(Better::Lower);
        assert_eq!(judge(&m, &[100.0], &[111.0]).1, Verdict::Regressed);
        assert_eq!(judge(&m, &[100.0], &[109.0]).1, Verdict::Ok);
        assert_eq!(judge(&m, &[100.0], &[50.0]).1, Verdict::Ok);
    }

    #[test]
    fn higher_is_better_metrics_regress_downwards() {
        let m = metric(Better::Higher);
        let (ratio, verdict) = judge(&m, &[100.0], &[85.0]);
        assert_eq!(verdict, Verdict::Regressed);
        assert!((ratio - 0.85).abs() < 1e-12);
        assert_eq!(judge(&m, &[100.0], &[120.0]).1, Verdict::Ok);
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_every_run_is_better() {
        let m = metric(Better::Lower);
        let noisy = [80.0, 100.0, 120.0];
        assert_eq!(judge(&m, &noisy, &[99.0, 100.0, 101.0]).1, Verdict::Unresolved);
        assert_eq!(judge(&m, &noisy, &[50.0, 51.0, 52.0]).1, Verdict::Ok);
        assert_eq!(judge(&m, &noisy, &[130.0, 131.0, 132.0]).1, Verdict::Regressed);
    }
}
