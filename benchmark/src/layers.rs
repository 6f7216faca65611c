//! Per-layer metrics read from what the library already exposes: deltas of
//! its `obs` registries between two snapshots, and `ChoiceCounts`.

use spmspv::obs::{backend_slug, kernel_slug, Snapshot};
use spmspv::stats::ChoiceCounts;

use crate::report::Report;
use crate::spec::PER_LAYER;
use crate::stats::ratio;

pub fn counter_delta(after: &Snapshot, before: &Snapshot, name: &str) -> f64 {
    let value = |s: &Snapshot| s.counter(name).unwrap_or(0);
    value(after).saturating_sub(value(before)) as f64
}

/// Seconds added to histogram `name` between two snapshots.
pub fn histogram_delta_s(after: &Snapshot, before: &Snapshot, name: &str) -> f64 {
    let sum = |s: &Snapshot| s.histogram(name).map_or(0, |h| h.sum);
    sum(after).saturating_sub(sum(before)) as f64 * 1e-9
}

/// Samples added to histogram `name` between two snapshots.
pub fn histogram_delta_count(after: &Snapshot, before: &Snapshot, name: &str) -> f64 {
    let count = |s: &Snapshot| s.histogram(name).map_or(0, |h| h.count);
    count(after).saturating_sub(count(before)) as f64
}

/// The batched bucket kernel's step shares (the paper's Fig. 6 breakdown,
/// batched), from the `batch.*` histograms of the process-global registry.
pub fn batch_step_shares(report: &mut Report, before: &Snapshot, after: &Snapshot) {
    let steps = ["batch.estimate", "batch.bucketing", "batch.merge", "batch.output"]
        .map(|name| histogram_delta_s(after, before, name));
    let all: f64 = steps.iter().sum();
    let names = [
        "batch.estimate_share",
        "batch.bucketing_share",
        "batch.merge_share",
        "batch.output_share",
    ];
    for (name, step) in names.into_iter().zip(steps) {
        report.set(name, ratio(step, all));
    }
}

/// Batched merges per SPA backend (`batch.backend.<slug>` counters).
pub fn backend_merges(report: &mut Report, before: &Snapshot, after: &Snapshot) {
    for name in ["batch.backend.dense", "batch.backend.lanemajor", "batch.backend.hashed"] {
        report.set(name, counter_delta(after, before, name));
    }
}

/// Lanes per `(kernel family, SPA backend)` the adaptive dispatch resolved to.
pub fn choice_lanes(report: &mut Report, choices: &ChoiceCounts) {
    for metric in PER_LAYER.iter().filter(|m| m.name.starts_with("adaptive.choice.")) {
        let lanes: usize = choices
            .iter()
            .filter(|&(kernel, backend, _)| {
                metric.name
                    == format!("adaptive.choice.{}.{}", kernel_slug(kernel), backend_slug(backend))
            })
            .map(|(_, _, lanes)| lanes)
            .sum();
        report.set(metric.name, lanes as f64);
    }
}
