//! Structured flush-level trace events and the bounded ring they live in.
//!
//! A [`TraceEvent`] is a cheap, allocation-light record of one serving-layer
//! decision: a flush starting, a group being fused, an adaptive choice, a
//! degrade retry, a failpoint firing. Events land in an [`EventRing`] — a
//! bounded FIFO that drops its oldest entries under pressure (the drop count
//! is reported, never hidden).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

use crate::batch::{BatchAlgorithmKind, BatchRunInfo};

/// What happened. Variants mirror the serving stack's decision points; see
/// the [`crate::obs`] module docs for the taxonomy.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceKind {
    /// A flush drained the queue and started work.
    FlushBegin {
        /// Requests drained into this flush.
        requests: usize,
    },
    /// The coalescer fused one compatible group into a batch.
    GroupFused {
        /// Kernel family the group resolved to.
        kernel: BatchAlgorithmKind,
        /// Lanes fused into the batch.
        lanes: usize,
        /// Whether the group carries a mask.
        masked: bool,
        /// Request id of the group's first lane (ties the trace to tickets).
        first_id: u64,
    },
    /// A fused group executed on this concrete kernel family (what the
    /// adaptive layer resolved to, or the pinned one).
    AdaptiveChoice(
        /// What executed.
        BatchRunInfo,
    ),
    /// A failed group was retried on the one-shot naive fallback.
    DegradeRetry {
        /// The kernel family that failed.
        from: BatchAlgorithmKind,
    },
    /// A kernel panicked or failed; the panic was contained.
    KernelFailure(
        /// The panic/error message.
        String,
    ),
    /// The overload policy took action at admission.
    Overload {
        /// Requests shed (oldest-first) to make room.
        shed: usize,
        /// Requests rejected outright.
        rejected: usize,
    },
    /// Lanes missed their deadline and were retired unserved.
    DeadlineExpired {
        /// Lanes whose deadline expired.
        lanes: usize,
    },
    /// An armed failpoint fired.
    FailpointHit(
        /// The failpoint site name.
        String,
    ),
    /// One traversal level completed (emitted by `multi_bfs`).
    Level {
        /// Level number (0-based).
        level: usize,
        /// Sources still active at this level.
        active_lanes: usize,
    },
}

impl std::fmt::Display for TraceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceKind::FlushBegin { requests } => write!(f, "flush.begin requests={requests}"),
            TraceKind::GroupFused { kernel, lanes, masked, first_id } => write!(
                f,
                "group.fused kernel={} lanes={lanes} masked={masked} first_id={first_id}",
                kernel.label()
            ),
            TraceKind::AdaptiveChoice(info) => write!(f, "adaptive.choice {info}"),
            TraceKind::DegradeRetry { from } => {
                write!(f, "degrade.retry from={}", from.label())
            }
            TraceKind::KernelFailure(msg) => write!(f, "kernel.failure {msg}"),
            TraceKind::Overload { shed, rejected } => {
                write!(f, "overload shed={shed} rejected={rejected}")
            }
            TraceKind::DeadlineExpired { lanes } => write!(f, "deadline.expired lanes={lanes}"),
            TraceKind::FailpointHit(site) => write!(f, "failpoint.hit site={site}"),
            TraceKind::Level { level, active_lanes } => {
                write!(f, "bfs.level level={level} active_lanes={active_lanes}")
            }
        }
    }
}

/// One entry in the trace ring.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Global sequence number: the count of events offered before this one.
    pub seq: u64,
    /// Microseconds since the owning registry was created.
    pub micros: u64,
    /// What happened.
    pub kind: TraceKind,
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:>10}µs #{}] {}", self.micros, self.seq, self.kind)
    }
}

/// Bounded FIFO of trace events. Pushing is one sequence-number fetch-add
/// plus (for kept events) a short mutex hold; when the ring is full the
/// oldest event is evicted and counted in `dropped`.
#[derive(Debug)]
pub struct EventRing {
    seq: AtomicU64,
    dropped: AtomicU64,
    capacity: usize,
    entries: Mutex<VecDeque<TraceEvent>>,
}

impl EventRing {
    /// Creates a ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        EventRing {
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            capacity,
            entries: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
        }
    }

    /// Offers an event at `micros` since registry start.
    pub fn push(&self, micros: u64, kind: TraceKind) {
        let seq = self.seq.fetch_add(1, Relaxed);
        if self.capacity == 0 {
            return;
        }
        let mut entries = self.entries.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if entries.len() >= self.capacity {
            entries.pop_front();
            self.dropped.fetch_add(1, Relaxed);
        }
        entries.push_back(TraceEvent { seq, micros, kind });
    }

    /// Events currently in the ring, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Relaxed)
    }

    /// Total events ever offered (kept and dropped alike).
    pub fn offered(&self) -> u64 {
        self.seq.load(Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let ring = EventRing::new(2);
        for i in 0..5usize {
            ring.push(i as u64, TraceKind::FlushBegin { requests: i });
        }
        let events = ring.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 3);
        assert_eq!(events[1].seq, 4);
        assert_eq!(ring.dropped(), 3);
        assert_eq!(ring.offered(), 5);
    }

    #[test]
    fn events_render_human_readable() {
        let e = TraceEvent {
            seq: 7,
            micros: 1234,
            kind: TraceKind::GroupFused {
                kernel: BatchAlgorithmKind::Bucket,
                lanes: 6,
                masked: true,
                first_id: 42,
            },
        };
        let s = e.to_string();
        assert!(s.contains("group.fused") && s.contains("lanes=6") && s.contains("#7"), "{s}");
    }
}
