//! Unified observability: a dependency-free metrics registry, RAII phase
//! spans, and a bounded structured-event ring for flush-level traces.
//!
//! The serving stack grew disconnected telemetry surfaces —
//! [`crate::stats::EngineStats`], [`crate::timing::FlushTimings`],
//! [`crate::ChoiceCounts`] — all manually threaded and none with
//! distributions. This module replaces the bookkeeping underneath them: the
//! engine records into a [`Registry`] of atomic [`Counter`]s, [`Gauge`]s,
//! and log-linear [`Histogram`]s, and `EngineStats` becomes a *view* over
//! that registry. The paper's own evaluation method (per-step breakdowns of
//! the SpMSpV pipeline) is mirrored by per-phase histograms for both the
//! kernel steps and the flush phases.
//!
//! Two registries exist:
//!
//! * **per-engine** — every [`crate::engine::Engine`] owns one (reachable
//!   via `Engine::obs()`); all `engine.*` metrics live there, so two engines
//!   in one process never mix their numbers;
//! * **process-global** — [`global()`]; kernel-, adaptive-, executor-, and
//!   failpoint-level metrics live there because those layers are shared
//!   below the engine boundary.
//!
//! # Metric taxonomy
//!
//! Histograms record **nanoseconds** unless noted; counters are unitless
//! event counts; gauges are instantaneous levels. `engine.choice.bucket.dense`
//! keeps the `<kernel>.<backend>` shape of its name although the kernel is
//! now always `bucket` (every batch runs on the one lane runner) and the
//! backend always `dense` (the one accumulator), so dashboards and the
//! benchmark ledger keep their keys.
//!
//! **Per-engine registry**
//!
//! | metric | type | meaning |
//! |---|---|---|
//! | `engine.requests` | counter | requests admitted by `submit` |
//! | `engine.retired` | counter | lanes retired unserved (deadline, shed, session close) |
//! | `engine.flushes` | counter | flushes that executed ≥ 1 batch |
//! | `engine.fused_batches` | counter | fused batches executed |
//! | `engine.lanes_executed` | counter | lanes across all fused batches |
//! | `engine.timeouts` | counter | lanes failed with `DeadlineExceeded` |
//! | `engine.rejected` | counter | admissions refused under `OverloadPolicy::Reject` |
//! | `engine.shed` | counter | queued lanes dropped under `OverloadPolicy::ShedOldest` |
//! | `engine.panics_recovered` | counter | kernel panics/failures contained by the flush |
//! | `engine.degraded_flushes` | counter | flushes that served a group via the one-participant degrade retry |
//! | `engine.choice.bucket.dense` | counter | fused batches that had anything to multiply |
//! | `engine.queue.depth` | gauge | requests currently queued |
//! | `engine.widest_flush` | gauge | high-water mark of lanes in one flush |
//! | `engine.queue.wait` | histogram | ns from `submit` to flush drain, one sample per request |
//! | `engine.flush.assemble` | histogram | ns grouping + assembling frontiers (per flush segment) |
//! | `engine.flush.execute` | histogram | ns inside the batched kernel (per fused group) |
//! | `engine.flush.demux` | histogram | ns scattering lanes back to tickets (per fused group) |
//! | `engine.flush.recover` | histogram | ns in the one-participant degrade retry (only on failure) |
//!
//! **Per-router registry** (each [`crate::shard::ShardedEngine`] owns one,
//! reachable via `ShardedEngine::obs()`; `<s>` ranges over shard indices)
//!
//! | metric | type | meaning |
//! |---|---|---|
//! | `shard.requests` | counter | requests routed, pushed or pulled |
//! | `shard.pulls` | counter | requests routed as pulls: each owning shard answered its own rows |
//! | `shard.flushes` | counter | router flushes that resolved ≥ 1 request |
//! | `shard.failed` | counter | tickets failed by a shard-side error |
//! | `shard.fanout` | histogram | owning shards per routed request (a count, not ns) |
//! | `shard.merge.time` | histogram | ns merging answers (⊕-folds and concatenations), one sample per flush |
//! | `shard.queue_depth.<s>` | gauge | sub-requests queued for shard `s` at the router |
//!
//! A router connected over sockets ([`crate::shard::ShardedEngine::connect`])
//! adds the transport family to the same registry:
//!
//! | metric | type | meaning |
//! |---|---|---|
//! | `net.bytes.out` | counter | wire bytes written (frontiers, flushes, goodbyes) |
//! | `net.bytes.in` | counter | wire bytes read (partials, errors, done frames) |
//! | `net.reconnects` | counter | successful re-dials after a connection loss |
//! | `net.connections` | gauge | replica connections currently established |
//! | `net.handshake.rejected` | counter | dials refused because the host's `Welcome` contradicts the plan |
//! | `net.health.probes` | counter | heartbeat pings + half-open re-dial probes issued |
//! | `net.health.failures` | counter | probes that found a replica dead or unreachable |
//! | `net.health.unhealthy` | gauge | replicas currently circuit-breaker-tripped |
//! | `net.encode.time` | histogram | ns encoding outbound frames, one sample per frame |
//! | `net.decode.time` | histogram | ns decoding inbound frames, one sample per frame |
//! | `net.rpc.time` | histogram | ns for one shard's full flush exchange (write → `Done`) |
//! | `shard.replica.failovers` | counter | batches re-sent to a sibling replica after a failed attempt |
//! | `shard.replica.quarantined` | counter | connections severed for a byzantine frame |
//! | `shard.replica.trips` | counter | circuit-breaker trips (threshold, byzantine, mismatch, heartbeat) |
//!
//! **Process-global registry** ([`global()`])
//!
//! | metric | type | meaning |
//! |---|---|---|
//! | `batch.estimate` | histogram | always 0: the bucket kernel has no estimate pass (one sample per bucket-lane `LaneBatch` call that had anything to multiply) |
//! | `batch.bucketing` | histogram | ns bucketing, summed over the call's lanes |
//! | `batch.merge` | histogram | ns merging buckets, summed over the call's lanes |
//! | `batch.output` | histogram | ns emitting output, summed over the call's lanes |
//! | `adaptive.single.sequential` | counter | single-vector calls (and adaptive batch lanes) dispatched to the sequential SPA |
//! | `adaptive.single.bucket` | counter | single-vector calls (and adaptive batch lanes) dispatched to the bucket kernel |
//! | `adaptive.single.pull` | counter | single-vector calls (and adaptive batch lanes) dispatched to the bottom-up kernel |
//! | `executor.threads` | gauge | largest participant count any `Executor` was built with |
//! | `executor.inflight` | gauge | parallel steps (`Executor::map` calls) currently running |
//! | `failpoint.hits` | counter | armed failpoints fired (only with the `failpoints` feature) |
//!
//! # Trace events
//!
//! [`TraceKind`] covers the serving stack's decision points: `flush.begin`,
//! `group.fused` (kernel, lanes, masked, first request id),
//! `degrade.retry`, `kernel.failure`, `overload`,
//! `deadline.expired`, `failpoint.hit`, and `bfs.level` (from
//! `multi_bfs`). Events carry a sequence number and microseconds since
//! registry creation and live in a bounded ring of the newest 256.
//!
//! # Overhead
//!
//! A histogram record is five `Relaxed` atomic ops; a counter bump is one;
//! a kept trace event is a fetch-add plus a short mutex hold on the ring.
//! With [`ObsConfig::disabled`] the engine skips histogram samples and
//! traces entirely but keeps its counters (they are single atomic adds and
//! [`crate::stats::EngineStats`] must stay exact); the global helpers become
//! one-load no-ops. The benchmark ledger's `obs.overhead_ratio` records the
//! enabled/disabled gap.
//!
//! # Export
//!
//! [`Registry::snapshot`] returns a plain-data [`Snapshot`]; `to_json`
//! renders the machine-readable form (validated in CI), `Display` renders a
//! human dashboard, and `merge` folds several snapshots (e.g. the global
//! and an engine's) into one report.
//!
//! ```
//! use spmspv::obs::{ObsConfig, Registry};
//!
//! let reg = Registry::new(ObsConfig::default());
//! reg.counter("demo.requests").add(3);
//! reg.histogram("demo.latency").record(1_500);
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("demo.requests"), Some(3));
//! assert!(snap.to_json().render().contains("\"demo.latency\""));
//! ```

mod events;
pub mod json;
mod metrics;
mod span;

pub use events::{EventRing, TraceEvent, TraceKind};
pub use json::Json;
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use span::Span;

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

use sparse_substrate::SpaBackend;

use crate::algorithm::AlgorithmKind;
use crate::batch::BatchAlgorithmKind;
use crate::timing::StepTimings;

/// Trace events a registry's ring holds; older ones are evicted (and
/// counted as dropped).
const TRACE_RING_CAPACITY: usize = 256;

/// Observability configuration: the off switch. Metrics and traces are
/// cheap enough to have no other knob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsConfig {
    /// Master switch. Off: histogram samples and trace events are skipped
    /// (engine counters still run so [`crate::stats::EngineStats`] stays exact).
    pub enabled: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig { enabled: true }
    }
}

impl ObsConfig {
    /// Everything off: no histogram samples, no traces.
    pub fn disabled() -> Self {
        ObsConfig { enabled: false }
    }
}

/// Short stable slug for a batch kernel family, as metric names spell it
/// (`bucket` in `engine.choice.bucket.dense`). Kept for `benchmark/`, which
/// calls it; the benchmark's next change removes it (see `ROADMAP.md`).
pub fn kernel_slug(kind: BatchAlgorithmKind) -> &'static str {
    match kind {
        BatchAlgorithmKind::Bucket => "bucket",
        BatchAlgorithmKind::Adaptive => "adaptive",
    }
}

/// Short stable slug for the batched accumulator, as metric names spell it
/// (`dense`). Kept for `benchmark/`, which calls it; the benchmark's next
/// change removes it (see `ROADMAP.md`).
pub fn backend_slug(backend: SpaBackend) -> &'static str {
    backend.label()
}

type Named<T> = Mutex<Vec<(String, Arc<T>)>>;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn get_or_create<T: Default>(table: &Named<T>, name: &str) -> Arc<T> {
    let mut table = lock(table);
    if let Some((_, v)) = table.iter().find(|(n, _)| n == name) {
        return Arc::clone(v);
    }
    let v = Arc::<T>::default();
    table.push((name.to_string(), Arc::clone(&v)));
    v
}

/// A set of named metrics plus one trace ring. Handles returned by
/// [`Registry::counter`]/[`gauge`](Registry::gauge)/
/// [`histogram`](Registry::histogram) are `Arc`s: look them up once, record
/// through the handle lock-free forever after.
#[derive(Debug)]
pub struct Registry {
    enabled: AtomicBool,
    config: ObsConfig,
    start: Instant,
    counters: Named<Counter>,
    gauges: Named<Gauge>,
    histograms: Named<Histogram>,
    ring: EventRing,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new(ObsConfig::default())
    }
}

impl Registry {
    /// Creates a registry with the given configuration.
    pub fn new(config: ObsConfig) -> Self {
        Registry {
            enabled: AtomicBool::new(config.enabled),
            ring: EventRing::new(TRACE_RING_CAPACITY),
            config,
            start: Instant::now(),
            counters: Mutex::new(Vec::new()),
            gauges: Mutex::new(Vec::new()),
            histograms: Mutex::new(Vec::new()),
        }
    }

    /// The configuration this registry was built with.
    pub fn config(&self) -> &ObsConfig {
        &self.config
    }

    /// Whether histogram samples and traces are being collected.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Relaxed)
    }

    /// Flips collection at runtime (counters keep running either way).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Relaxed);
    }

    /// Returns (creating on first use) the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.counters, name)
    }

    /// Returns (creating on first use) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create(&self.gauges, name)
    }

    /// Returns (creating on first use) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create(&self.histograms, name)
    }

    /// Offers a trace event to the ring (no-op when disabled).
    pub fn trace(&self, kind: TraceKind) {
        if !self.enabled() {
            return;
        }
        let micros = u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.ring.push(micros, kind);
    }

    /// Events currently in the trace ring, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring.events()
    }

    /// A point-in-time copy of every metric and the trace ring.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: lock(&self.counters).iter().map(|(n, c)| (n.clone(), c.get())).collect(),
            gauges: lock(&self.gauges).iter().map(|(n, g)| (n.clone(), g.get())).collect(),
            histograms: lock(&self.histograms)
                .iter()
                .map(|(n, h)| (n.clone(), h.snapshot()))
                .collect(),
            events: self.ring.events(),
            dropped_events: self.ring.dropped(),
        }
    }
}

/// The process-global registry: kernel-, adaptive-, executor-, and
/// failpoint-level metrics (everything below the per-engine boundary).
/// Built on first use with [`ObsConfig::default`]; flip collection with
/// [`Registry::set_enabled`].
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

/// Plain-data copy of a [`Registry`] (and mergeable across registries).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// `(name, value)` per counter, in creation order.
    pub counters: Vec<(String, u64)>,
    /// `(name, level)` per gauge, in creation order.
    pub gauges: Vec<(String, u64)>,
    /// `(name, data)` per histogram, in creation order.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Trace-ring contents, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events evicted from the ring under pressure.
    pub dropped_events: u64,
}

impl Snapshot {
    /// Value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Level of gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Data of histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Folds `other` into this snapshot: counters add, gauges take the max,
    /// histograms merge, events concatenate (ordered by timestamp). Used to
    /// combine an engine's registry with [`global()`] into one report.
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, v) in &other.counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => *mine += v,
                None => self.counters.push((name.clone(), *v)),
            }
        }
        for (name, v) in &other.gauges {
            match self.gauges.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => *mine = (*mine).max(*v),
                None => self.gauges.push((name.clone(), *v)),
            }
        }
        for (name, h) in &other.histograms {
            match self.histograms.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => mine.merge(h),
                None => self.histograms.push((name.clone(), h.clone())),
            }
        }
        self.events.extend(other.events.iter().cloned());
        self.events.sort_by_key(|e| e.micros);
        self.dropped_events += other.dropped_events;
    }

    /// Machine-readable form (the shape CI validates): objects keyed by
    /// metric name, histograms expanded into exact aggregates plus
    /// p50/p90/p95/p99.
    pub fn to_json(&self) -> Json {
        let int = |v: u64| Json::Int(i64::try_from(v).unwrap_or(i64::MAX));
        let counters = Json::Obj(self.counters.iter().map(|(n, v)| (n.clone(), int(*v))).collect());
        let gauges = Json::Obj(self.gauges.iter().map(|(n, v)| (n.clone(), int(*v))).collect());
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(n, h)| {
                    (
                        n.clone(),
                        Json::obj([
                            ("count", int(h.count)),
                            ("sum", int(h.sum)),
                            ("min", int(h.min)),
                            ("max", int(h.max)),
                            ("mean", Json::Num(h.mean())),
                            ("p50", int(h.quantile(0.50))),
                            ("p90", int(h.quantile(0.90))),
                            ("p95", int(h.quantile(0.95))),
                            ("p99", int(h.quantile(0.99))),
                        ]),
                    )
                })
                .collect(),
        );
        let events = Json::Arr(
            self.events
                .iter()
                .map(|e| {
                    Json::obj([
                        ("seq", int(e.seq)),
                        ("micros", int(e.micros)),
                        ("what", Json::str(e.kind.to_string())),
                    ])
                })
                .collect(),
        );
        Json::obj([
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
            ("events", events),
            ("dropped_events", int(self.dropped_events)),
        ])
    }
}

/// Renders a nanosecond quantity at human scale (`ns`/`µs`/`ms`/`s`).
fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.2}ms", ns as f64 / 1e6),
        _ => format!("{:.3}s", ns as f64 / 1e9),
    }
}

impl std::fmt::Display for Snapshot {
    /// The human dashboard: counters, gauges, histograms (treated as
    /// nanoseconds, the registry convention), and the trace tail.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name_w = self
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .chain(self.gauges.iter().map(|(n, _)| n.len()))
            .chain(self.histograms.iter().map(|(n, _)| n.len()))
            .max()
            .unwrap_or(8)
            .max(8);
        if !self.counters.is_empty() {
            writeln!(f, "counters:")?;
            for (n, v) in &self.counters {
                writeln!(f, "  {n:<name_w$}  {v:>12}")?;
            }
        }
        if !self.gauges.is_empty() {
            writeln!(f, "gauges:")?;
            for (n, v) in &self.gauges {
                writeln!(f, "  {n:<name_w$}  {v:>12}")?;
            }
        }
        if !self.histograms.is_empty() {
            writeln!(
                f,
                "histograms (ns): {:>w$} {:>10} {:>10} {:>10} {:>10}",
                "count",
                "p50",
                "p95",
                "p99",
                "max",
                w = name_w.saturating_sub(5)
            )?;
            for (n, h) in &self.histograms {
                writeln!(
                    f,
                    "  {n:<name_w$}  {:>10} {:>10} {:>10} {:>10} {:>10}",
                    h.count,
                    fmt_ns(h.quantile(0.50)),
                    fmt_ns(h.quantile(0.95)),
                    fmt_ns(h.quantile(0.99)),
                    fmt_ns(h.max),
                )?;
            }
        }
        if !self.events.is_empty() || self.dropped_events > 0 {
            writeln!(f, "events ({} shown, {} dropped):", self.events.len(), self.dropped_events)?;
            for e in &self.events {
                writeln!(f, "  {e}")?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Cached hot-path helpers for the process-global registry. Each caches its
// Arc handles in a OnceLock so the steady-state cost is one enabled-load
// plus the atomic bumps themselves (the global registry never drops a
// handle, so the cache cannot go stale).

/// Records a bucket batch's per-step breakdown, summed over its lanes, into
/// the `batch.*` histograms (no-op when the global registry is disabled).
pub fn record_batch_phases(timings: &StepTimings) {
    let g = global();
    if !g.enabled() {
        return;
    }
    static H: OnceLock<[Arc<Histogram>; 4]> = OnceLock::new();
    let h = H.get_or_init(|| {
        ["batch.estimate", "batch.bucketing", "batch.merge", "batch.output"]
            .map(|name| g.histogram(name))
    });
    for (i, (_, d)) in timings.phases().iter().enumerate() {
        h[i].record_duration(*d);
    }
}

/// Counts a single-vector adaptive dispatch decision
/// (`adaptive.single.sequential` / `adaptive.single.bucket` /
/// `adaptive.single.pull`).
pub fn record_adaptive_single(kind: AlgorithmKind) {
    let g = global();
    if !g.enabled() {
        return;
    }
    static C: OnceLock<[Arc<Counter>; 3]> = OnceLock::new();
    let c = C.get_or_init(|| {
        [
            g.counter("adaptive.single.sequential"),
            g.counter("adaptive.single.bucket"),
            g.counter("adaptive.single.pull"),
        ]
    });
    match kind {
        AlgorithmKind::Sequential => c[0].inc(),
        AlgorithmKind::Pull => c[2].inc(),
        _ => c[1].inc(),
    }
}

/// The executor gauges: participant-count high-water mark and parallel steps
/// in flight. Borrowed for `'static`, so the hot path touches no refcount.
pub fn executor_gauges() -> (&'static Gauge, &'static Gauge) {
    static G: OnceLock<(Arc<Gauge>, Arc<Gauge>)> = OnceLock::new();
    let (threads, inflight) =
        G.get_or_init(|| (global().gauge("executor.threads"), global().gauge("executor.inflight")));
    (threads, inflight)
}

/// Records a fired failpoint: bumps `failpoint.hits` and traces the site.
#[cfg(feature = "failpoints")]
pub fn record_failpoint_hit(site: &str) {
    let g = global();
    if !g.enabled() {
        return;
    }
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| g.counter("failpoint.hits")).inc();
    g.trace(TraceKind::FailpointHit(site.to_string()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn registry_handles_are_shared_and_ordered() {
        let reg = Registry::new(ObsConfig::default());
        let a = reg.counter("z.second");
        let b = reg.counter("a.first");
        let a2 = reg.counter("z.second");
        assert!(Arc::ptr_eq(&a, &a2), "same name must return the same handle");
        a.add(2);
        b.inc();
        let snap = reg.snapshot();
        assert_eq!(snap.counters, vec![("z.second".into(), 2), ("a.first".into(), 1)]);
    }

    #[test]
    fn disabled_registry_skips_traces_but_counters_run() {
        let reg = Registry::new(ObsConfig::disabled());
        reg.counter("c").inc();
        reg.trace(TraceKind::FlushBegin { requests: 1 });
        assert!(!reg.enabled());
        assert_eq!(reg.snapshot().counter("c"), Some(1));
        assert!(reg.events().is_empty());
        reg.set_enabled(true);
        reg.trace(TraceKind::FlushBegin { requests: 2 });
        assert_eq!(reg.events().len(), 1);
    }

    #[test]
    fn snapshot_merge_adds_counters_and_merges_histograms() {
        let a = Registry::new(ObsConfig::default());
        let b = Registry::new(ObsConfig::default());
        a.counter("shared").add(2);
        b.counter("shared").add(3);
        b.counter("only.b").inc();
        a.gauge("depth").set(5);
        b.gauge("depth").set(9);
        a.histogram("lat").record(100);
        b.histogram("lat").record(300);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("shared"), Some(5));
        assert_eq!(merged.counter("only.b"), Some(1));
        assert_eq!(merged.gauge("depth"), Some(9), "gauges merge by max");
        let h = merged.histogram("lat").unwrap();
        assert_eq!((h.count, h.min, h.max), (2, 100, 300));
    }

    #[test]
    fn json_export_has_the_validated_shape() {
        let reg = Registry::new(ObsConfig::default());
        reg.counter("engine.requests").add(4);
        reg.histogram("engine.queue.wait").record(1000);
        reg.trace(TraceKind::DeadlineExpired { lanes: 2 });
        let rendered = reg.snapshot().to_json().render();
        for needle in [
            "\"counters\"",
            "\"gauges\"",
            "\"histograms\"",
            "\"events\"",
            "\"dropped_events\"",
            "\"engine.requests\":4",
            "\"p99\"",
            "deadline.expired",
        ] {
            assert!(rendered.contains(needle), "missing {needle} in {rendered}");
        }
    }

    #[test]
    fn dashboard_display_mentions_every_section() {
        let reg = Registry::new(ObsConfig::default());
        reg.counter("engine.requests").add(4);
        reg.gauge("engine.queue.depth").set(1);
        reg.histogram("engine.flush.execute").record_duration(Duration::from_micros(250));
        reg.trace(TraceKind::FlushBegin { requests: 4 });
        let text = reg.snapshot().to_string();
        for needle in ["counters:", "gauges:", "histograms", "events", "250.0µs", "flush.begin"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn slugs_cover_every_variant() {
        for k in [BatchAlgorithmKind::Bucket, BatchAlgorithmKind::Adaptive] {
            assert!(!kernel_slug(k).is_empty());
        }
        assert_eq!(backend_slug(SpaBackend::Dense), "dense");
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(2_500), "2.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(2_500_000_000), "2.500s");
    }
}
