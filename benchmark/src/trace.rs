//! The benchmark's own span recorder.
//!
//! Spans are recorded from outside the library, around each call into a
//! layer, and kept in memory until the run ends. A duration that a public
//! call already returns (a flush phase, a shard's merge time) is *attached*
//! as a child interval of the call's span: laid end to end from the span's
//! start, since the call reports how long the phase took, not when.
//! A span's self time is its duration minus its direct children's.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::json::Json;

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    /// Traversal or request this span belongs to.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// True for an interval built from a returned duration.
    pub attached: bool,
    /// Where the next attached child starts, relative to `start_ns`.
    attach_cursor_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name aggregate over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameTotal {
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 * 1e-9
    }
}

/// Records spans against one epoch; a disabled tracer records nothing, which
/// is what "tracing off" means for the end-to-end run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Tracer { epoch, enabled, spans: Vec::new() }
    }

    pub fn disabled() -> Self {
        Tracer::new(Instant::now(), false)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens the root span of operation `op`; `None` when tracing is off.
    pub fn root(&mut self, name: &'static str, op: u64) -> Option<SpanId> {
        self.enabled.then(|| self.push(name, None, op))
    }

    /// Opens a span under `parent`; `None` when the parent is.
    pub fn child(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        let op = self.spans[parent?].op;
        Some(self.push(name, parent, op))
    }

    fn push(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns: now,
            end_ns: now,
            attached: false,
            attach_cursor_ns: 0,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Attaches a returned duration as a child interval of `parent`.
    pub fn attach(
        &mut self,
        parent: Option<SpanId>,
        name: &'static str,
        duration: Duration,
    ) -> Option<SpanId> {
        let parent_id = parent?;
        let ns = u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX);
        let p = &mut self.spans[parent_id];
        let start_ns = p.start_ns + p.attach_cursor_ns;
        p.attach_cursor_ns += ns;
        let op = p.op;
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns,
            end_ns: start_ns + ns,
            attached: true,
            attach_cursor_ns: 0,
        });
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    /// Appends another tracer's spans (a client thread's), re-basing ids.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time per span: duration minus the direct children's durations,
/// floored at zero (children that overrun their parent are caught by
/// [`check_sums`], not hidden here).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    spans.iter().zip(child_ns).map(|(s, c)| s.duration_ns().saturating_sub(c)).collect()
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// The sum-to-whole check: for every root span, the self times of its whole
/// subtree (every child plus the root's own self time) must add up to the
/// root's measured duration within `tolerance` (a share, e.g. 0.02). Self
/// times are floored at zero, so the sum overshoots exactly when returned
/// durations claim more time than the call that returned them took. Returns
/// the largest relative gap seen.
pub fn check_sums(spans: &[Span], tolerance: f64) -> Result<f64, String> {
    let selfs = self_times(spans);
    let mut root_of = vec![0usize; spans.len()];
    let mut attributed = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        // Parents are recorded before their children, so their root is known.
        root_of[i] = s.parent.map_or(i, |p| root_of[p]);
        attributed[root_of[i]] += selfs[i];
    }
    let mut largest = 0.0f64;
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.parent.is_none()) {
        let whole = s.duration_ns() as f64;
        let gap = (attributed[i] as f64 - whole).abs() / whole.max(1.0);
        if gap > tolerance {
            return Err(format!(
                "{} (op {}): children plus self time sum to {:.6} s but the span measured {:.6} s",
                s.name,
                s.op,
                attributed[i] as f64 * 1e-9,
                whole * 1e-9
            ));
        }
        largest = largest.max(gap);
    }
    Ok(largest)
}

/// Spans as a JSON array, keeping whole operations, in order, while they fit
/// in `max_spans` (and always the first), so a committed trace stays small;
/// metrics are computed from all spans.
pub fn to_json(spans: &[Span], max_spans: usize) -> Json {
    let mut per_op: Vec<(u64, usize)> = Vec::new();
    for s in spans {
        match per_op.iter_mut().find(|(op, _)| *op == s.op) {
            Some((_, count)) => *count += 1,
            None => per_op.push((s.op, 1)),
        }
    }
    let mut budget = max_spans;
    let kept: Vec<u64> = per_op
        .iter()
        .enumerate()
        .take_while(|&(i, &(_, count))| {
            let fits = i == 0 || count <= budget;
            budget = budget.saturating_sub(count);
            fits
        })
        .map(|(_, &(op, _))| op)
        .collect();
    let int = |v: u64| Json::Int(i64::try_from(v).unwrap_or(i64::MAX));
    let rows = spans.iter().enumerate().filter(|(_, s)| kept.contains(&s.op)).map(|(id, s)| {
        Json::obj([
            ("id", int(id as u64)),
            ("parent", s.parent.map_or(Json::Null, |p| int(p as u64))),
            ("op", int(s.op)),
            ("name", Json::str(s.name)),
            ("start_ns", int(s.start_ns)),
            ("end_ns", int(s.end_ns)),
            ("attached", Json::Bool(s.attached)),
        ])
    });
    Json::Arr(rows.collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, parent, op: 0, start_ns, end_ns, attached: false, attach_cursor_ns: 0 }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = [
            span("traversal", None, 0, 100),
            span("level", Some(0), 10, 60),
            span("run", Some(1), 20, 50),
            span("level", Some(0), 60, 90),
        ];
        assert_eq!(self_times(&spans), [20, 20, 30, 30]);
        let t = totals(&spans);
        assert_eq!(t["level"], NameTotal { count: 2, total_ns: 80, self_ns: 50 });
        assert_eq!(t["run"].self_ns, 30);
        assert_eq!(check_sums(&spans, 0.02), Ok(0.0));
    }

    #[test]
    fn overrunning_children_fail_the_sum_check() {
        // The child claims 130 of a 100 ns parent: self floors at 0 and the
        // subtree sums to 130.
        let spans = [span("traversal", None, 0, 100), span("flush", Some(0), 0, 130)];
        assert_eq!(self_times(&spans), [0, 130]);
        let err = check_sums(&spans, 0.02).expect_err("30 % over");
        assert!(err.contains("traversal"), "{err}");
        // Within tolerance passes.
        let spans = [span("traversal", None, 0, 100), span("flush", Some(0), 0, 101)];
        assert_eq!(check_sums(&spans, 0.02), Ok(0.01));
    }

    #[test]
    fn attached_intervals_are_laid_end_to_end_under_their_parent() {
        let mut t = Tracer::new(Instant::now(), true);
        let root = t.root("flush", 7);
        t.attach(root, "assemble", Duration::from_nanos(30));
        t.attach(root, "execute", Duration::from_nanos(50));
        t.end(root);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert!(s[1].attached && s[2].attached && !s[0].attached);
        assert_eq!(s[1].start_ns, s[0].start_ns);
        assert_eq!(s[2].start_ns, s[1].end_ns);
        assert_eq!((s[1].duration_ns(), s[2].duration_ns()), (30, 50));
        assert_eq!((s[1].op, s[2].parent), (7, Some(0)));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let id = t.root("x", 0);
        t.attach(id, "y", Duration::from_nanos(5));
        t.end(id);
        assert!(id.is_none() && t.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parent_ids() {
        let mut a = Tracer::new(Instant::now(), true);
        let r = a.root("request", 1);
        a.end(r);
        let mut b = Tracer::new(Instant::now(), true);
        let r = b.root("request", 2);
        let c = b.child("wait", r);
        b.end(c);
        b.end(r);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[1].parent, None);
    }

    #[test]
    fn json_keeps_whole_operations_up_to_the_cap() {
        let mut spans = vec![span("a", None, 0, 1), span("b", Some(0), 0, 1)];
        let mut other = span("a", None, 2, 3);
        other.op = 9;
        spans.push(other);
        let kept = |cap| match to_json(&spans, cap) {
            Json::Arr(items) => items.len(),
            other => panic!("expected an array, got {other:?}"),
        };
        // The first operation is kept whole even when it alone is over the cap.
        assert_eq!((kept(1), kept(2), kept(3)), (2, 2, 3));
    }
}
