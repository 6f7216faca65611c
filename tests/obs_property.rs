//! Correctness suite for the observability histogram
//! ([`spmspv::obs::Histogram`]): bucket-seam edge cases across the full
//! `u64` axis, merge associativity at both the atomic and snapshot level,
//! and a property test holding the quantile estimator to its advertised
//! error bound — relative error ≤ 1/16 against an exact nearest-rank
//! oracle computed from the raw samples.

use proptest::prelude::*;
use spmspv::obs::{Histogram, HistogramSnapshot, NUM_BUCKETS};

/// The values most likely to land in the wrong bucket: zero, the linear→log
/// transition at 16, every power-of-two seam up to the top of the axis, and
/// `u64::MAX` itself.
fn seam_values() -> Vec<u64> {
    let mut vals = vec![0u64, 1, 2, 15, 16, 17, 31, 32, 33, u64::MAX - 1, u64::MAX];
    for shift in 5..64u32 {
        let p = 1u64 << shift;
        vals.extend([p - 1, p, p + 1]);
    }
    vals
}

#[test]
fn bucket_index_and_bounds_agree_at_every_seam() {
    for v in seam_values() {
        let idx = Histogram::bucket_index(v);
        assert!(idx < NUM_BUCKETS, "v={v} produced out-of-range bucket {idx}");
        let (lo, hi) = Histogram::bucket_bounds(idx);
        assert!(lo <= v && v <= hi, "v={v} outside its bucket [{lo}, {hi}]");
        // Neighbouring values never skip a bucket: the axis is tiled.
        if v > 0 {
            let prev = Histogram::bucket_index(v - 1);
            assert!(idx == prev || idx == prev + 1, "gap between {} and {v}", v - 1);
        }
    }
    assert_eq!(Histogram::bucket_index(0), 0);
    assert_eq!(Histogram::bucket_index(u64::MAX), NUM_BUCKETS - 1);
}

#[test]
fn single_value_histograms_report_exactly_at_every_seam() {
    // A histogram holding one distinct value must report it exactly at any
    // quantile: the midpoint estimate is clamped into [min, max].
    for v in seam_values() {
        let h = Histogram::new();
        h.record(v);
        h.record(v);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), v, "single-value histogram must be exact (v={v}, q={q})");
        }
        assert_eq!((h.min(), h.max(), h.count()), (v, v, 2));
    }
}

#[test]
fn extreme_pair_spans_the_whole_axis() {
    let h = Histogram::new();
    h.record(0);
    h.record(u64::MAX);
    assert_eq!((h.min(), h.max(), h.count()), (0, u64::MAX, 2));
    assert_eq!(h.sum(), u64::MAX, "0 + MAX is exact");
    assert_eq!(h.quantile(0.0), 0, "lowest rank resolves to the exact zero bucket");
    // The top quantile is a midpoint of the last (widest) bucket: not exact,
    // but within the advertised 1/16 relative error of the true maximum.
    let top = h.quantile(1.0);
    assert!(top >= u64::MAX - u64::MAX / 16, "top quantile {top} out of bound");
}

/// Exact nearest-rank quantile over the raw samples — the oracle the
/// bucketed estimator is held against. Matches the estimator's rank rule:
/// the `ceil(q·n)`-th smallest sample, clamped to `[1, n]`.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

/// Strategy: samples spread across magnitudes (a raw `u64` shifted right by
/// 0–63 bits), so small, medium, and huge values all appear.
fn sample_strategy() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        (any::<u64>(), 0u32..64).prop_map(|(raw, shift)| raw >> shift),
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline bound: for any sample set and any quantile, the
    /// bucketed estimate is within 1/16 relative error of the exact
    /// nearest-rank answer (+1 absolute slack for midpoint rounding).
    #[test]
    fn quantile_error_is_bounded_by_bucket_resolution(
        samples in sample_strategy(),
        q_millis in 0u32..1001,
    ) {
        let q = q_millis as f64 / 1000.0;
        let h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let exact = exact_quantile(&sorted, q);
        let est = h.quantile(q);
        let tolerance = exact / 16 + 1;
        prop_assert!(
            est.abs_diff(exact) <= tolerance,
            "estimate {est} vs exact {exact}: error {} exceeds {tolerance} (n={}, q={q})",
            est.abs_diff(exact),
            samples.len(),
        );
        // The estimate also never escapes the recorded range.
        prop_assert!(est >= h.min() && est <= h.max());
    }

    /// Exact aggregates survive bucketing: count, wrapping sum, min, max.
    #[test]
    fn aggregates_are_exact(samples in sample_strategy()) {
        let h = Histogram::new();
        let mut sum = 0u64;
        for &v in &samples {
            h.record(v);
            sum = sum.wrapping_add(v);
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.sum(), sum);
        prop_assert_eq!(h.min(), *samples.iter().min().unwrap());
        prop_assert_eq!(h.max(), *samples.iter().max().unwrap());
    }

    /// Snapshot merging is associative and commutative, and agrees with
    /// recording everything into one histogram directly.
    #[test]
    fn merge_is_associative_commutative_and_lossless(
        a in sample_strategy(),
        b in sample_strategy(),
        c in sample_strategy(),
    ) {
        let snap = |values: &[u64]| -> HistogramSnapshot {
            let h = Histogram::new();
            for &v in values {
                h.record(v);
            }
            h.snapshot()
        };
        let (sa, sb, sc) = (snap(&a), snap(&b), snap(&c));

        // (a ⊕ b) ⊕ c
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        // a ⊕ (b ⊕ c)
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right, "merge must be associative");

        // c ⊕ b ⊕ a
        let mut rev = sc.clone();
        rev.merge(&sb);
        rev.merge(&sa);
        prop_assert_eq!(&left, &rev, "merge must be commutative");

        // And lossless: identical to one histogram fed all three sets.
        let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        prop_assert_eq!(&left, &snap(&all), "merged snapshots must equal direct recording");
    }
}

/// The metric taxonomy over a live engine: every documented counter, gauge
/// and histogram is registered, the hot-path histograms carry ordered
/// quantiles, the trace ring is sequenced — and a disabled registry keeps its
/// counters exact while sampling and tracing nothing.
#[test]
fn engine_snapshot_carries_the_documented_taxonomy() {
    use std::time::Duration;

    use sparse_substrate::gen::{random_sparse_vec, rmat, RmatParams};
    use sparse_substrate::{MaskBits, PlusTimes};
    use spmspv::engine::{Engine, EngineConfig, MxvRequest};
    use spmspv::{obs, BatchAlgorithmKind, MaskMode, ObsConfig};

    let a = rmat(8, 8, RmatParams::graph500(), 3);
    let n = a.ncols();
    // Mixed traffic as in `examples/observability.rs`: adaptive requests, a
    // few masked, a few served by a second engine pinned to the bucket
    // kernel so `batch.*` fills. Returns each engine's snapshot.
    let drive = |config: ObsConfig| {
        let engine = Engine::over_with(
            &a,
            PlusTimes,
            EngineConfig::default().max_lanes(16).obs(config.clone()),
        );
        let bucket = Engine::over_with(
            &a,
            PlusTimes,
            EngineConfig::default()
                .max_lanes(16)
                .batch_algorithm(BatchAlgorithmKind::Bucket)
                .obs(config),
        );
        for round in 0..3usize {
            let tickets: Vec<_> = (0..10usize)
                .map(|i| {
                    let x =
                        random_sparse_vec(n, 8 + (round * 10 + i) % 40, (round * 1009 + i) as u64);
                    let mut req = MxvRequest::new(x);
                    if i.is_multiple_of(3) {
                        let bits = MaskBits::from_indices(n, (i..n).step_by(2 + i % 3));
                        req = req.mask(bits, MaskMode::Complement);
                    }
                    let target = if i.is_multiple_of(4) { &bucket } else { &engine };
                    target.submit(req)
                })
                .collect();
            engine.flush();
            bucket.flush();
            for t in tickets {
                t.wait_timeout(Duration::from_secs(10)).expect("request served");
            }
        }
        [engine.obs().snapshot(), bucket.obs().snapshot()]
    };

    let [mut on, on_bucket] = drive(ObsConfig::default());
    for snap in [&on, &on_bucket] {
        assert!(!snap.events.is_empty(), "an enabled engine traces its flushes");
        assert!(
            snap.events.windows(2).all(|w| w[0].seq < w[1].seq),
            "event sequence numbers must be strictly increasing"
        );
    }
    on.merge(&on_bucket);
    on.merge(&obs::global().snapshot());
    for name in [
        "engine.requests",
        "engine.retired",
        "engine.flushes",
        "engine.fused_batches",
        "engine.lanes_executed",
        "engine.timeouts",
        "engine.rejected",
        "engine.shed",
        "engine.panics_recovered",
        "engine.degraded_flushes",
        "engine.choice.bucket.dense",
    ] {
        assert!(on.counter(name).is_some(), "counter {name:?} missing");
    }
    assert_eq!(on.counter("engine.requests"), Some(30));
    for name in
        ["engine.queue.depth", "engine.widest_flush", "executor.threads", "executor.inflight"]
    {
        assert!(on.gauge(name).is_some(), "gauge {name:?} missing");
    }
    for name in [
        "engine.queue.wait",
        "engine.flush.assemble",
        "engine.flush.execute",
        "engine.flush.demux",
        "engine.flush.recover",
        "batch.estimate",
        "batch.bucketing",
        "batch.merge",
        "batch.output",
    ] {
        let h = on.histogram(name).unwrap_or_else(|| panic!("histogram {name:?} missing"));
        if name == "engine.flush.recover" {
            continue; // only fills when a kernel fails
        }
        assert!(h.count > 0, "histogram {name:?} is empty");
        let ladder = [h.min, h.quantile(0.5), h.quantile(0.9), h.quantile(0.95), h.quantile(0.99)];
        assert!(
            ladder.windows(2).all(|w| w[0] <= w[1]) && ladder[4] <= h.max,
            "{name}: quantiles not monotone inside [min, max]: {ladder:?} max {}",
            h.max
        );
        assert!(h.sum >= h.count * h.min);
    }

    let [mut off, off_bucket] = drive(ObsConfig::disabled());
    off.merge(&off_bucket);
    assert_eq!(off.counter("engine.requests"), Some(30), "counters keep running when disabled");
    assert_eq!(off.histogram("engine.queue.wait").map(|h| h.count), Some(0), "no samples");
    assert!(off.events.is_empty(), "a disabled engine must not trace");
}
