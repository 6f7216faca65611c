//! [`TcpTransport`]: the router side of the remote shard protocol.
//!
//! Every shard is backed by one or more replica [`ShardHost`](super::ShardHost)
//! addresses. [`exchange`](crate::shard::ShardTransport::exchange) serves one
//! shard's batch — the router calls it from one scoped thread per involved
//! shard: it writes the batch's `Frontier` frames + one `Flush` to the
//! shard's preferred replica, then gathers one reply per frontier, in the
//! order written, with a per-reply deadline check, and answers the router
//! by batch position. When a replica fails — outage *or* quarantine — the
//! whole batch is re-sent to the next replica with its
//! deadline budgets recomputed, so a single host death degrades to a retry
//! instead of failing every routed ticket. Only when every replica of a
//! shard is exhausted do the shard's sub-requests fail, as
//! [`EngineError::KernelFailed`] with a `shard <s>:` prefix — the same
//! blast radius as the `shard.flush.<s>` failpoint.
//!
//! Three defenses gate which replica a flush routes to:
//!
//! - **Discovery handshake.** At dial time the router sends `Hello` and
//!   verifies the host's `Welcome` (shard id, column range, height, matrix
//!   fingerprint) against its `ShardPlan`; a misconfigured host is a typed
//!   [`ConnectError::PlanMismatch`], not a silent wrong answer.
//! - **Per-replica circuit breaker.** Consecutive failures trip the
//!   breaker; a tripped replica is deprioritized until a timed half-open
//!   probe (the heartbeat, or a last-resort exchange attempt) re-admits it.
//! - **Byzantine-frame defense.** A reply whose correlation id is not the
//!   next unanswered frontier's (the host answers in the order it was
//!   sent), the wrong shard, the wrong height (the output's for a pushed
//!   frontier, the shard's rows for a pulled one), or bytes that do not
//!   decode quarantines the connection with a typed [`ByzantineFrame`] and
//!   trips the replica's breaker immediately.
//!
//! A background heartbeat (`Ping`/`Pong` with an echoed nonce) marks dead
//! replicas unhealthy between flushes and re-dials tripped ones after
//! their cooldown, so failover usually happens before a flush ever routes
//! to a corpse.

use std::io::{self, Write};
use std::marker::PhantomData;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sparse_substrate::{Scalar, Semiring, SparseVec};

use crate::engine::{EngineError, FlushOutcome};
use crate::obs::{Counter, Gauge, Histogram, ObsConfig, Registry};
use crate::shard::transport::{ShardTransport, WireRequest};
use crate::shard::{ShardPlan, ShardedEngine};
use crate::stats::EngineStats;

use super::codec::{
    encode_frame, encode_frontier, read_frame, write_frame, DecodeError, Frame, WireError,
    WireScalar, DEFAULT_MAX_FRAME,
};

/// Ceiling on the exponential re-dial backoff.
const RETRY_BACKOFF_CAP: Duration = Duration::from_millis(500);
/// Socket read/write timeout: an exchange that exceeds it fails over to the
/// next replica instead of blocking forever.
const IO_TIMEOUT: Option<Duration> = Some(Duration::from_secs(30));
/// `TCP_NODELAY` on shard connections: frontier frames are
/// latency-sensitive.
const NODELAY: bool = true;
/// Consecutive failures that trip a replica's circuit breaker. Byzantine
/// frames and plan mismatches trip it immediately regardless.
const BREAKER_THRESHOLD: u32 = 3;

/// Tuning knobs of a [`TcpTransport`]: the re-dial, breaker and heartbeat
/// timings tests shorten. Fixed: the frame cap ([`DEFAULT_MAX_FRAME`]), a
/// 500 ms backoff ceiling, a 30 s socket timeout, `TCP_NODELAY`, and a
/// breaker that trips after 3 consecutive failures.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Re-dial attempts per exchange when a replica's connection is down.
    pub connect_retries: u32,
    /// Base sleep before a re-dial retry; doubles per attempt up to 500 ms,
    /// with ±25% jitter so a restarted fleet does not thundering-herd one
    /// host.
    pub retry_backoff: Duration,
    /// How long a tripped breaker stays open before a half-open probe may
    /// re-admit the replica (default 250 ms).
    pub breaker_cooldown: Duration,
    /// Background heartbeat interval: pings idle connections and half-open
    /// probes tripped replicas, so a flush routes around a dead replica it
    /// never had to discover itself. `None` disables the thread
    /// (default 500 ms).
    pub heartbeat: Option<Duration>,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            connect_retries: 3,
            retry_backoff: Duration::from_millis(10),
            breaker_cooldown: Duration::from_millis(250),
            heartbeat: Some(Duration::from_millis(500)),
        }
    }
}

/// Exponential backoff with a hard cap and deterministic ±25% jitter.
/// `seed` decorrelates concurrent dialers (each replica hashes its address
/// in) so a restarted fleet does not reconnect in lockstep.
fn backoff_delay(base: Duration, cap: Duration, attempt: u32, seed: u64) -> Duration {
    let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
    let exp = base.saturating_mul(factor).min(cap);
    // splitmix64 of (seed, attempt): cheap, stateless, and good enough to
    // spread herd members — no RNG dependency on this path.
    let mut z = seed ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let frac = (z >> 11) as f64 / (1u64 << 53) as f64;
    exp.mul_f64(0.75 + 0.5 * frac)
}

/// Why [`ShardedEngine::connect`] (or
/// [`connect_replicated`](ShardedEngine::connect_replicated)) refused to
/// build a router.
#[derive(Debug)]
pub enum ConnectError {
    /// A host could not be reached (or the socket failed mid-handshake).
    Io(io::Error),
    /// A host answered the discovery handshake with an advertisement that
    /// contradicts the router's `ShardPlan` — wrong shard id, column
    /// range, output height, or matrix fingerprint. Serving through it
    /// would silently corrupt merges, so the dial is rejected instead.
    PlanMismatch {
        /// Shard the address was configured for.
        shard: usize,
        /// The offending host.
        addr: SocketAddr,
        /// Human-readable contradiction.
        reason: String,
    },
}

impl std::fmt::Display for ConnectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnectError::Io(e) => write!(f, "connect: {e}"),
            ConnectError::PlanMismatch { shard, addr, reason } => {
                write!(f, "plan mismatch dialing shard {shard} at {addr}: {reason}")
            }
        }
    }
}

impl std::error::Error for ConnectError {}

impl From<io::Error> for ConnectError {
    fn from(e: io::Error) -> Self {
        ConnectError::Io(e)
    }
}

/// A protocol violation by a host that *did* answer — evidence of a buggy
/// or hostile peer rather than a dead one. Any of these quarantines the
/// connection: the stream is severed, the replica's breaker trips
/// immediately, and the flush fails over to the next replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ByzantineFrame {
    /// A reply whose correlation id is not that of the next unanswered
    /// sub-request of this flush: the host answers in the order it was
    /// sent, so an unknown, repeated or out-of-order id is a lie.
    UnexpectedRequest {
        /// The id the host echoed.
        request: u64,
    },
    /// A reply claiming to come from a different shard.
    WrongShard {
        /// Shard this connection serves.
        expected: usize,
        /// Shard the frame claimed.
        got: usize,
    },
    /// A partial whose logical height differs from what its sub-request
    /// asked for — the router's output height for a pushed frontier, the
    /// shard's `hi − lo` owned rows for a pulled one — so its indices would
    /// be meaningless in the merge.
    WrongHeight {
        /// The height the sub-request asked for.
        expected: usize,
        /// Height the frame declared.
        got: usize,
    },
    /// Bytes that do not decode: bad magic/version/tag, truncation inside
    /// a frame, out-of-range or non-increasing vector indices, …
    Corrupt(DecodeError),
    /// A structurally valid frame that has no business in the reply
    /// direction (e.g. a `Frontier` or `Flush` from a host).
    UnexpectedFrame(&'static str),
}

impl std::fmt::Display for ByzantineFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ByzantineFrame::UnexpectedRequest { request } => {
                write!(f, "reply for request {request} does not answer the next sub-request")
            }
            ByzantineFrame::WrongShard { expected, got } => {
                write!(f, "reply claims shard {got}, connection serves shard {expected}")
            }
            ByzantineFrame::WrongHeight { expected, got } => {
                write!(f, "partial height {got} != expected height {expected}")
            }
            ByzantineFrame::Corrupt(e) => write!(f, "undecodable frame: {e}"),
            ByzantineFrame::UnexpectedFrame(tag) => {
                write!(f, "unexpected {tag} frame in reply direction")
            }
        }
    }
}

impl std::error::Error for ByzantineFrame {}

/// The `net.*` / `shard.replica.*` metric families, resolved once from the
/// router's registry.
struct NetMetrics {
    /// `net.bytes.out` — frame bytes written to shard connections.
    bytes_out: Arc<Counter>,
    /// `net.bytes.in` — frame bytes read from shard connections.
    bytes_in: Arc<Counter>,
    /// `net.encode.time` — per-exchange frame encoding latency.
    encode_time: Arc<Histogram>,
    /// `net.decode.time` — per-reply decode latency.
    decode_time: Arc<Histogram>,
    /// `net.rpc.time` — per-shard scatter→gather round-trip latency.
    rpc_time: Arc<Histogram>,
    /// `net.reconnects` — successful re-dials after a connection was lost.
    reconnects: Arc<Counter>,
    /// `net.connections` — replica connections currently open.
    connections: Arc<Gauge>,
    /// `net.handshake.rejected` — dials refused for a plan mismatch.
    handshake_rejected: Arc<Counter>,
    /// `net.health.probes` — heartbeat pings + half-open probes issued.
    health_probes: Arc<Counter>,
    /// `net.health.failures` — probes that found a replica dead.
    health_failures: Arc<Counter>,
    /// `net.health.unhealthy` — replicas currently breaker-tripped.
    unhealthy: Arc<Gauge>,
    /// `shard.replica.failovers` — batches re-sent to another replica
    /// after an attempt failed mid-flush.
    failovers: Arc<Counter>,
    /// `shard.replica.quarantined` — connections severed for a byzantine
    /// frame.
    quarantined: Arc<Counter>,
    /// `shard.replica.trips` — circuit-breaker trips (threshold,
    /// byzantine, mismatch, or heartbeat-detected death).
    trips: Arc<Counter>,
}

impl NetMetrics {
    fn new(registry: &Registry) -> Self {
        NetMetrics {
            bytes_out: registry.counter("net.bytes.out"),
            bytes_in: registry.counter("net.bytes.in"),
            encode_time: registry.histogram("net.encode.time"),
            decode_time: registry.histogram("net.decode.time"),
            rpc_time: registry.histogram("net.rpc.time"),
            reconnects: registry.counter("net.reconnects"),
            connections: registry.gauge("net.connections"),
            handshake_rejected: registry.counter("net.handshake.rejected"),
            health_probes: registry.counter("net.health.probes"),
            health_failures: registry.counter("net.health.failures"),
            unhealthy: registry.gauge("net.health.unhealthy"),
            failovers: registry.counter("shard.replica.failovers"),
            quarantined: registry.counter("shard.replica.quarantined"),
            trips: registry.counter("shard.replica.trips"),
        }
    }
}

/// Per-replica circuit breaker. `open_until == Some(t)` means tripped:
/// skipped while `now < t` (unless no healthier replica exists), half-open
/// probe allowed at `t`.
#[derive(Debug, Default)]
struct Breaker {
    consecutive: u32,
    open_until: Option<Instant>,
}

impl Breaker {
    fn is_open(&self) -> bool {
        self.open_until.is_some()
    }

    fn cooled(&self, now: Instant) -> bool {
        self.open_until.is_some_and(|t| now >= t)
    }
}

/// One replica's connection slot.
struct Replica {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Whether this slot ever held a live connection (a successful dial
    /// after that counts as a *re*-connect).
    ever_connected: bool,
    breaker: Breaker,
}

/// What the router expects shard `s`'s hosts to advertise, derived from
/// the `ShardPlan` at connect time.
struct ShardSpec {
    range: Range<usize>,
    fingerprint: Option<u64>,
}

/// How one replica attempt failed, deciding breaker treatment.
enum AttemptError {
    /// The host is unreachable or stopped answering — ordinary outage.
    Outage(String),
    /// The host answered the handshake with a contradicting advertisement.
    Mismatch(String),
    /// The host answered with a protocol violation.
    Byzantine(ByzantineFrame),
}

/// State shared between exchanges and the heartbeat thread. Deliberately
/// non-generic: handshake and health frames carry no scalar payloads, so
/// the heartbeat can encode them with any instantiation.
struct Shared {
    /// `replicas[s][r]` — replica `r` of shard `s`.
    replicas: Vec<Vec<Mutex<Replica>>>,
    expected: Vec<ShardSpec>,
    nrows: usize,
    config: TcpConfig,
    metrics: NetMetrics,
    stop: AtomicBool,
    nonce: AtomicU64,
}

impl Shared {
    /// Dials and handshakes `rep` if it is down, with capped jittered
    /// backoff between up to `retries` re-dial attempts.
    fn ensure_connected(
        &self,
        s: usize,
        rep: &mut Replica,
        retries: u32,
    ) -> Result<(), AttemptError> {
        if rep.stream.is_some() {
            return Ok(());
        }
        let mut attempt = 0u32;
        let mut stream = loop {
            match TcpStream::connect(rep.addr) {
                Ok(stream) => break stream,
                Err(e) => {
                    if attempt >= retries {
                        return Err(AttemptError::Outage(format!("connect {}: {e}", rep.addr)));
                    }
                    let seed = u64::from(rep.addr.port()) ^ ((s as u64) << 17);
                    std::thread::sleep(backoff_delay(
                        self.config.retry_backoff,
                        RETRY_BACKOFF_CAP,
                        attempt,
                        seed,
                    ));
                    attempt += 1;
                }
            }
        };
        let _ = stream.set_nodelay(NODELAY);
        let _ = stream.set_read_timeout(IO_TIMEOUT);
        let _ = stream.set_write_timeout(IO_TIMEOUT);
        if let Err(e) = self.handshake(s, rep.addr, &mut stream) {
            if matches!(e, AttemptError::Mismatch(_)) {
                self.metrics.handshake_rejected.inc();
            }
            let _ = stream.shutdown(Shutdown::Both);
            return Err(e);
        }
        if rep.ever_connected {
            self.metrics.reconnects.inc();
        }
        rep.ever_connected = true;
        rep.stream = Some(stream);
        self.metrics.connections.add(1);
        Ok(())
    }

    /// The discovery handshake: send `Hello`, verify the `Welcome` against
    /// the plan. Handshake frames carry no scalar payloads, so the
    /// concrete `Frame` instantiation is irrelevant to the bytes.
    fn handshake(
        &self,
        s: usize,
        addr: SocketAddr,
        stream: &mut TcpStream,
    ) -> Result<(), AttemptError> {
        let hs_io = |e: WireError| match e {
            WireError::Io(e) => AttemptError::Outage(format!("handshake {addr}: {e}")),
            WireError::Decode(e) => {
                AttemptError::Mismatch(format!("handshake reply does not decode: {e}"))
            }
        };
        write_frame::<f64, f64, _>(stream, &Frame::Hello, DEFAULT_MAX_FRAME).map_err(hs_io)?;
        let frame = match read_frame::<f64, f64, _>(stream, DEFAULT_MAX_FRAME) {
            Ok(Some((frame, _))) => frame,
            Ok(None) => {
                return Err(AttemptError::Outage(format!(
                    "handshake {addr}: host closed the connection"
                )))
            }
            Err(e) => return Err(hs_io(e)),
        };
        let Frame::Welcome { shard, col_start, col_end, nrows, fingerprint } = frame else {
            return Err(AttemptError::Mismatch("host did not answer Hello with Welcome".into()));
        };
        let spec = &self.expected[s];
        if shard != s {
            return Err(AttemptError::Mismatch(format!(
                "host serves shard {shard}, expected shard {s}"
            )));
        }
        if (col_start..col_end) != spec.range {
            return Err(AttemptError::Mismatch(format!(
                "host serves columns {col_start}..{col_end}, plan assigns {}..{}",
                spec.range.start, spec.range.end
            )));
        }
        if nrows != self.nrows {
            return Err(AttemptError::Mismatch(format!(
                "host output height {nrows}, router expects {}",
                self.nrows
            )));
        }
        if let Some(expected_fp) = spec.fingerprint {
            if expected_fp != fingerprint {
                return Err(AttemptError::Mismatch(format!(
                    "matrix fingerprint {fingerprint:#018x}, plan expects {expected_fp:#018x}"
                )));
            }
        }
        Ok(())
    }

    /// Drops `rep`'s stream after a failure so the next attempt re-dials.
    fn disconnect(&self, rep: &mut Replica) {
        if let Some(stream) = rep.stream.take() {
            let _ = stream.shutdown(Shutdown::Both);
            self.metrics.connections.sub(1);
        }
    }

    /// Records an ordinary failure; trips the breaker at
    /// [`BREAKER_THRESHOLD`] consecutive ones.
    fn record_failure(&self, rep: &mut Replica) {
        rep.breaker.consecutive = rep.breaker.consecutive.saturating_add(1);
        if rep.breaker.consecutive >= BREAKER_THRESHOLD {
            self.trip(rep);
        }
    }

    /// Trips the breaker immediately (byzantine frame, plan mismatch, or
    /// heartbeat-detected death — all definitive).
    fn trip(&self, rep: &mut Replica) {
        if rep.breaker.open_until.is_none() {
            self.metrics.trips.inc();
            self.metrics.unhealthy.add(1);
        }
        rep.breaker.open_until = Some(Instant::now() + self.config.breaker_cooldown);
    }

    /// Resets the breaker after a successful exchange or probe.
    fn record_success(&self, rep: &mut Replica) {
        rep.breaker.consecutive = 0;
        if rep.breaker.open_until.take().is_some() {
            self.metrics.unhealthy.sub(1);
        }
    }

    /// Replica attempt order for shard `s`: breaker-closed replicas first
    /// (in slot order, so the primary is preferred), then tripped replicas
    /// whose cooldown elapsed (half-open probes), then still-cooling ones
    /// as a last resort — a breaker gates *preference*, never admission,
    /// because trying a suspect replica still beats failing tickets.
    fn replica_order(&self, s: usize) -> Vec<usize> {
        let now = Instant::now();
        let mut healthy = Vec::new();
        let mut probe = Vec::new();
        let mut cooling = Vec::new();
        for (r, slot) in self.replicas[s].iter().enumerate() {
            let rep = crate::front::lock(slot);
            if !rep.breaker.is_open() {
                healthy.push(r);
            } else if rep.breaker.cooled(now) {
                probe.push(r);
            } else {
                cooling.push(r);
            }
        }
        healthy.extend(probe);
        healthy.extend(cooling);
        healthy
    }
}

/// One `Ping`/`Pong` round trip on an idle connection. The pong must echo
/// the nonce; the read runs under `deadline` so a hung host cannot stall
/// the heartbeat (the caller's timeout is restored afterwards).
fn ping(shared: &Shared, stream: &mut TcpStream, deadline: Duration) -> bool {
    let nonce = shared.nonce.fetch_add(1, Ordering::Relaxed);
    if write_frame::<f64, f64, _>(stream, &Frame::Ping { nonce }, DEFAULT_MAX_FRAME).is_err() {
        return false;
    }
    let _ = stream.set_read_timeout(Some(deadline.max(Duration::from_millis(10))));
    let ok = matches!(
        read_frame::<f64, f64, _>(stream, DEFAULT_MAX_FRAME),
        Ok(Some((Frame::Pong { nonce: echoed }, _))) if echoed == nonce
    );
    let _ = stream.set_read_timeout(IO_TIMEOUT);
    ok
}

/// The heartbeat loop: every `interval`, ping live idle connections, and
/// half-open re-dial tripped replicas whose cooldown elapsed. Uses
/// `try_lock` so it never contends with an in-flight exchange.
fn heartbeat_loop(shared: Arc<Shared>, interval: Duration) {
    let step = Duration::from_millis(5);
    loop {
        let mut slept = Duration::ZERO;
        while slept < interval {
            if shared.stop.load(Ordering::Relaxed) {
                return;
            }
            let nap = step.min(interval - slept);
            std::thread::sleep(nap);
            slept += nap;
        }
        for s in 0..shared.replicas.len() {
            for slot in &shared.replicas[s] {
                let Ok(mut rep) = slot.try_lock() else { continue };
                probe_replica(&shared, s, &mut rep, interval);
            }
        }
    }
}

/// One heartbeat visit to one replica slot (lock held by the caller).
fn probe_replica(shared: &Shared, s: usize, rep: &mut Replica, interval: Duration) {
    if rep.stream.is_some() {
        shared.metrics.health_probes.inc();
        let alive = ping(shared, rep.stream.as_mut().expect("checked above"), interval);
        if alive {
            shared.record_success(rep);
        } else {
            // A connection that cannot pong is definitive: sever it and
            // mark the replica unhealthy *now*, so the next flush routes
            // to a sibling without having to discover the corpse itself.
            shared.metrics.health_failures.inc();
            shared.disconnect(rep);
            shared.trip(rep);
        }
    } else if !rep.breaker.is_open() || rep.breaker.cooled(Instant::now()) {
        // Down but either never tripped or past its cooldown: half-open
        // probe (single dial + handshake, no retries).
        shared.metrics.health_probes.inc();
        match shared.ensure_connected(s, rep, 0) {
            Ok(()) => shared.record_success(rep),
            Err(_) => {
                shared.metrics.health_failures.inc();
                shared.record_failure(rep);
                if rep.breaker.is_open() {
                    // Extend the cooldown so the next probe waits again.
                    shared.trip(rep);
                }
            }
        }
    }
}

/// A [`ShardTransport`] whose shards are [`ShardHost`](super::ShardHost)
/// daemons reached over TCP, each behind one or more replicas. Build a
/// router on top of it with [`ShardedEngine::connect`] or
/// [`ShardedEngine::connect_replicated`].
pub struct TcpTransport<X, Y> {
    shared: Arc<Shared>,
    heartbeat: Option<std::thread::JoinHandle<()>>,
    marker: PhantomData<fn() -> (X, Y)>,
}

impl<X, Y> Drop for TcpTransport<X, Y> {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.heartbeat.take() {
            let _ = handle.join();
        }
    }
}

impl<X: WireScalar, Y: WireScalar> TcpTransport<X, Y> {
    /// Dials and handshakes every replica of every shard once (so a bad
    /// address or a misconfigured host fails here, not at the first
    /// flush), then starts the heartbeat. Later connection losses are
    /// re-dialed lazily per exchange and by the heartbeat.
    fn dial(
        groups: &[Vec<SocketAddr>],
        expected: Vec<ShardSpec>,
        nrows: usize,
        config: TcpConfig,
        metrics: NetMetrics,
    ) -> Result<Self, ConnectError> {
        let heartbeat_interval = config.heartbeat.filter(|d| !d.is_zero());
        let shared = Arc::new(Shared {
            replicas: groups
                .iter()
                .map(|group| {
                    group
                        .iter()
                        .map(|&addr| {
                            Mutex::new(Replica {
                                addr,
                                stream: None,
                                ever_connected: false,
                                breaker: Breaker::default(),
                            })
                        })
                        .collect()
                })
                .collect(),
            expected,
            nrows,
            config,
            metrics,
            stop: AtomicBool::new(false),
            nonce: AtomicU64::new(0),
        });
        for (s, group) in shared.replicas.iter().enumerate() {
            for slot in group {
                let mut rep = crate::front::lock(slot);
                let retries = shared.config.connect_retries;
                if let Err(e) = shared.ensure_connected(s, &mut rep, retries) {
                    return Err(match e {
                        AttemptError::Outage(msg) => ConnectError::Io(io::Error::new(
                            io::ErrorKind::ConnectionRefused,
                            format!("shard {s}: {msg}"),
                        )),
                        AttemptError::Mismatch(reason) => {
                            ConnectError::PlanMismatch { shard: s, addr: rep.addr, reason }
                        }
                        AttemptError::Byzantine(b) => ConnectError::PlanMismatch {
                            shard: s,
                            addr: rep.addr,
                            reason: b.to_string(),
                        },
                    });
                }
            }
        }
        let heartbeat = heartbeat_interval.map(|interval| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || heartbeat_loop(shared, interval))
        });
        Ok(TcpTransport { shared, heartbeat, marker: PhantomData })
    }

    /// One scatter→gather round trip against one replica: (re)connect and
    /// handshake, write every not-yet-answered frontier + a flush frame
    /// with deadline budgets recomputed *now*, then read one reply per
    /// frontier, in the order they were written, and the host's `Done`
    /// summary. `answers` holds one slot per batch entry; the attempt fills
    /// an empty slot at once only for a frontier that cannot be encoded
    /// (a permanent failure), and the rest only when the whole attempt
    /// succeeds, so a failed attempt leaves them for the next replica.
    fn attempt(
        &self,
        s: usize,
        rep: &mut Replica,
        batch: &[WireRequest<X>],
        answers: &mut [Option<Result<SparseVec<Y>, EngineError>>],
    ) -> Result<FlushOutcome, AttemptError> {
        let shared = &self.shared;
        shared.ensure_connected(s, rep, shared.config.connect_retries)?;

        // Scatter: encode all frames into one buffer, one write. The
        // deadline budget is recomputed at write time — queue wait *and*
        // any earlier failed replica attempt are clamped out, and a budget
        // already exhausted travels as zero (the host resolves it
        // `DeadlineExceeded` without touching its engine).
        let t_encode = Instant::now();
        let mut buf = Vec::new();
        // Batch positions written this attempt, in write order.
        let mut expect = Vec::with_capacity(batch.len());
        for (i, req) in batch.iter().enumerate() {
            if answers[i].is_some() {
                // Failed permanently on an earlier attempt (oversize).
                continue;
            }
            let budget = req
                .deadline
                .map(|d| d.saturating_duration_since(Instant::now()).as_micros() as u64);
            let encoded = encode_frontier(req, s, budget, &mut buf, DEFAULT_MAX_FRAME);
            match encoded {
                Ok(_) => expect.push(i),
                // An unencodable frontier (oversize) fails only its own
                // request — deterministically, so no replica retries it.
                Err(e) => {
                    answers[i] =
                        Some(Err(EngineError::KernelFailed(format!("shard {s}: encode: {e}"))))
                }
            }
        }
        let flush: Frame<X, Y> = Frame::Flush;
        if let Err(e) = encode_frame(&flush, &mut buf, DEFAULT_MAX_FRAME) {
            return Err(AttemptError::Outage(format!("encode: flush frame: {e}")));
        }
        shared.metrics.encode_time.record_duration(t_encode.elapsed());

        let stream = rep.stream.as_mut().expect("just connected");
        if let Err(e) = stream.write_all(&buf) {
            return Err(AttemptError::Outage(format!("write: {e}")));
        }
        shared.metrics.bytes_out.add(buf.len() as u64);

        // Gather: one reply per written frontier, in write order, then the
        // Done summary. Anything else the host sends — a reply that does
        // not answer the next written frontier, a wrong shard, a wrong
        // height, bytes that do not decode — is byzantine and quarantines
        // the replica.
        let mut gathered = Vec::with_capacity(expect.len());
        let done = loop {
            let t_decode = Instant::now();
            let frame = match read_frame::<X, Y, _>(stream, DEFAULT_MAX_FRAME) {
                Ok(Some((frame, n))) => {
                    shared.metrics.bytes_in.add(n as u64);
                    shared.metrics.decode_time.record_duration(t_decode.elapsed());
                    frame
                }
                Ok(None) => {
                    return Err(AttemptError::Outage("connection closed by host".to_string()))
                }
                Err(WireError::Io(e)) => {
                    return Err(AttemptError::Outage(format!("read: {e}")));
                }
                Err(WireError::Decode(e)) => {
                    return Err(AttemptError::Byzantine(ByzantineFrame::Corrupt(e)));
                }
            };
            let check_shard = |shard: usize| {
                if shard == s {
                    Ok(())
                } else {
                    Err(AttemptError::Byzantine(ByzantineFrame::WrongShard {
                        expected: s,
                        got: shard,
                    }))
                }
            };
            // The batch entry a `Partial` or `Error` must answer.
            let next = |request: u64| match expect.get(gathered.len()) {
                Some(&i) if batch[i].request == request => Ok(&batch[i]),
                _ => Err(AttemptError::Byzantine(ByzantineFrame::UnexpectedRequest { request })),
            };
            match frame {
                Frame::Partial { request, shard, partial } => {
                    check_shard(shard)?;
                    let req = next(request)?;
                    // A pushed frontier's partial spans the output; a
                    // pulled one's answer spans the host's own rows.
                    let height =
                        if req.pulled { shared.expected[s].range.len() } else { shared.nrows };
                    if partial.len() != height {
                        return Err(AttemptError::Byzantine(ByzantineFrame::WrongHeight {
                            expected: height,
                            got: partial.len(),
                        }));
                    }
                    // Per-reply deadline check: a partial gathered after
                    // its request's deadline is already worthless.
                    let late = req.deadline.is_some_and(|d| Instant::now() >= d);
                    gathered.push(if late {
                        Err(EngineError::DeadlineExceeded)
                    } else {
                        Ok(partial)
                    });
                }
                Frame::Error { request, shard, error } => {
                    check_shard(shard)?;
                    next(request)?;
                    // Attribute remote failures to their shard.
                    let error = match error {
                        EngineError::KernelFailed(msg) => {
                            EngineError::KernelFailed(format!("shard {shard}: {msg}"))
                        }
                        other => other,
                    };
                    gathered.push(Err(error));
                }
                Frame::Done { shard, lanes, requests, execute_micros } => {
                    check_shard(shard)?;
                    if gathered.len() < expect.len() {
                        return Err(AttemptError::Outage("host replied short".to_string()));
                    }
                    break FlushOutcome {
                        lanes: lanes as usize,
                        requests: requests as usize,
                        timings: crate::timing::FlushTimings {
                            execute: Duration::from_micros(execute_micros),
                            ..Default::default()
                        },
                        ..Default::default()
                    };
                }
                Frame::Goodbye => {
                    return Err(AttemptError::Outage("host said goodbye mid-flush".to_string()))
                }
                Frame::Frontier(_) => {
                    return Err(AttemptError::Byzantine(ByzantineFrame::UnexpectedFrame(
                        "Frontier",
                    )))
                }
                Frame::Flush => {
                    return Err(AttemptError::Byzantine(ByzantineFrame::UnexpectedFrame("Flush")))
                }
                Frame::Hello => {
                    return Err(AttemptError::Byzantine(ByzantineFrame::UnexpectedFrame("Hello")))
                }
                Frame::Welcome { .. } => {
                    return Err(AttemptError::Byzantine(ByzantineFrame::UnexpectedFrame("Welcome")))
                }
                Frame::Ping { .. } => {
                    return Err(AttemptError::Byzantine(ByzantineFrame::UnexpectedFrame("Ping")))
                }
                Frame::Pong { .. } => {
                    return Err(AttemptError::Byzantine(ByzantineFrame::UnexpectedFrame("Pong")))
                }
            }
        };
        for (i, answer) in expect.into_iter().zip(gathered) {
            answers[i] = Some(answer);
        }
        Ok(done)
    }
}

impl<X, Y> ShardTransport<X, Y> for TcpTransport<X, Y>
where
    X: WireScalar,
    Y: WireScalar,
{
    fn num_shards(&self) -> usize {
        self.shared.replicas.len()
    }

    /// The whole exchange for one shard, walking its replicas in health
    /// order. A failed attempt records the failure (outage → breaker
    /// count; byzantine/mismatch → immediate trip + quarantine), discards
    /// the attempt's partial progress, and re-sends the unanswered batch to
    /// the next replica. Only when every replica fails do the shard's
    /// unanswered sub-requests fail, with a `shard <s>:`-prefixed
    /// `KernelFailed` — one result per batch entry, in order, always.
    fn exchange(
        &self,
        s: usize,
        batch: Vec<WireRequest<X>>,
    ) -> (Vec<Result<SparseVec<Y>, EngineError>>, Option<FlushOutcome>) {
        let shared = &self.shared;
        let mut answers: Vec<Option<Result<SparseVec<Y>, EngineError>>> =
            (0..batch.len()).map(|_| None).collect();
        let t_rpc = Instant::now();
        let order = shared.replica_order(s);
        let mut last_err = String::from("no replica configured");
        let mut done = None;
        for (attempt_no, &r) in order.iter().enumerate() {
            let mut rep = crate::front::lock(&shared.replicas[s][r]);
            match self.attempt(s, &mut rep, &batch, &mut answers) {
                Ok(outcome) => {
                    shared.record_success(&mut rep);
                    if attempt_no > 0 {
                        shared.metrics.failovers.inc();
                    }
                    done = Some(outcome);
                    break;
                }
                Err(AttemptError::Outage(msg)) => {
                    shared.disconnect(&mut rep);
                    shared.record_failure(&mut rep);
                    last_err = msg;
                }
                Err(AttemptError::Mismatch(reason)) => {
                    shared.disconnect(&mut rep);
                    shared.trip(&mut rep);
                    last_err = format!("handshake with {}: {reason}", rep.addr);
                }
                Err(AttemptError::Byzantine(b)) => {
                    shared.disconnect(&mut rep);
                    shared.trip(&mut rep);
                    shared.metrics.quarantined.inc();
                    last_err = format!("byzantine frame from {}: {b}", rep.addr);
                }
            }
        }
        shared.metrics.rpc_time.record_duration(t_rpc.elapsed());
        // Every entry gets a result, whatever broke.
        let results = answers
            .into_iter()
            .map(|answer| {
                answer.unwrap_or_else(|| {
                    Err(EngineError::KernelFailed(format!("shard {s}: {last_err}")))
                })
            })
            .collect();
        (results, done)
    }

    fn shard_stats(&self, _shard: usize) -> Option<EngineStats> {
        None
    }

    fn shard_obs(&self, _shard: usize) -> Option<&Registry> {
        None
    }
}

impl<A, X, S> ShardedEngine<A, X, S>
where
    A: Scalar,
    X: WireScalar,
    S: Semiring<A, X> + Clone + 'static,
    S::Output: WireScalar,
{
    /// Builds a router whose shards are [`ShardHost`](super::ShardHost)
    /// daemons: `addrs[s]` serves the columns of `plan.range(s)`. A
    /// convenience wrapper over [`connect_replicated`] with one replica
    /// per shard — a host outage there fails the shard's routed tickets
    /// (there is nowhere to fail over to) until the host returns.
    ///
    /// The routing, merge, and failure semantics are identical to
    /// [`ShardedEngine::partition`] — the shard property suite asserts the
    /// results are bit-identical across transports.
    ///
    /// [`connect_replicated`]: ShardedEngine::connect_replicated
    pub fn connect(
        plan: ShardPlan,
        nrows: usize,
        semiring: S,
        addrs: &[SocketAddr],
        config: TcpConfig,
        obs: ObsConfig,
    ) -> Result<Self, ConnectError> {
        let groups: Vec<Vec<SocketAddr>> = addrs.iter().map(|&a| vec![a]).collect();
        Self::connect_replicated(plan, nrows, semiring, &groups, config, obs)
    }

    /// Builds a router with `replicas[s]` as the replica set of shard `s`
    /// (every group non-empty; slot 0 is the preferred primary). Each
    /// replica is dialed and handshake-verified against `plan` before
    /// returning — a dead address is [`ConnectError::Io`], a host
    /// advertising the wrong shard/range/height/fingerprint is
    /// [`ConnectError::PlanMismatch`]. After connect, a replica outage or
    /// quarantine mid-flush fails over to the next healthy replica (batch
    /// re-sent, deadlines recomputed), so tickets only fail when a whole
    /// replica set is down.
    pub fn connect_replicated(
        plan: ShardPlan,
        nrows: usize,
        semiring: S,
        replicas: &[Vec<SocketAddr>],
        config: TcpConfig,
        obs: ObsConfig,
    ) -> Result<Self, ConnectError> {
        assert_eq!(
            replicas.len(),
            plan.num_shards(),
            "plan has {} shards but {} replica groups were given",
            plan.num_shards(),
            replicas.len()
        );
        assert!(
            replicas.iter().all(|group| !group.is_empty()),
            "every shard needs at least one replica address"
        );
        let registry = Registry::new(obs);
        let metrics = NetMetrics::new(&registry);
        let expected: Vec<ShardSpec> = (0..plan.num_shards())
            .map(|s| ShardSpec { range: plan.range(s), fingerprint: plan.fingerprint(s) })
            .collect();
        let transport =
            TcpTransport::<X, S::Output>::dial(replicas, expected, nrows, config, metrics)?;
        Ok(Self::from_transport(plan, nrows, semiring, registry, Box::new(transport)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_with_bounded_jitter() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(500);
        for attempt in 0..64 {
            for seed in [1u64, 7, 42, 0xdead_beef] {
                let d = backoff_delay(base, cap, attempt, seed);
                let nominal =
                    base.saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX)).min(cap);
                assert!(
                    d >= nominal.mul_f64(0.75) && d <= nominal.mul_f64(1.25),
                    "attempt {attempt} seed {seed}: {d:?} outside ±25% of {nominal:?}"
                );
                assert!(
                    d <= cap.mul_f64(1.25),
                    "attempt {attempt} seed {seed}: {d:?} exceeds jittered cap"
                );
            }
        }
    }

    #[test]
    fn backoff_saturates_at_the_cap_for_huge_attempts() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(200);
        // Far past the doubling range: must stay near the cap, not overflow.
        for attempt in [20, 31, 32, 63, u32::MAX] {
            let d = backoff_delay(base, cap, attempt, 3);
            assert!(d >= cap.mul_f64(0.75) && d <= cap.mul_f64(1.25), "attempt {attempt}: {d:?}");
        }
    }

    #[test]
    fn backoff_jitter_decorrelates_seeds() {
        let base = Duration::from_millis(100);
        let cap = Duration::from_secs(1);
        let delays: Vec<Duration> = (0..16).map(|seed| backoff_delay(base, cap, 2, seed)).collect();
        let distinct: std::collections::HashSet<Duration> = delays.iter().copied().collect();
        assert!(distinct.len() > 8, "jitter should spread seeds, got {delays:?}");
    }
}
