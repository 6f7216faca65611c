//! [`ShardHost`]: the daemon side of the remote shard protocol.
//!
//! One host owns one shard's [`Engine`] behind a `TcpListener`. Routers
//! connect and stream `Frontier` frames; a `Flush` frame makes the host run
//! the frontiers that connection sent since its last `Flush` as one call
//! into its engine — one engine flush, past the engine's queue — and reply
//! with one `Partial`/`Error` per frontier, in arrival order, followed by a
//! `Done` summary frame. Deadlines arrive as
//! *relative* budgets and are re-anchored to a local `Instant` the moment
//! the frame is read, so elapsed transit time is clamped out of the budget
//! (a budget that is already zero resolves `DeadlineExceeded` without ever
//! touching the engine). A frontier whose slice is not as wide as the
//! shard, or whose mask does not span the output rows, resolves
//! `KernelFailed("shard <s>: …")` with the message the engine would panic
//! with, naming both numbers, and the connection keeps serving. A `Pulled`
//! frontier is held to the transposed shape — the whole frontier, and a
//! mask over the shard's own rows — and the engine pulls it, answering
//! those rows alone.
//!
//! The host also answers the discovery/health frames at any point in a
//! connection's life: `Hello` → `Welcome` (shard id, column range, output
//! height, matrix fingerprint — what the router verifies against its plan)
//! and `Ping` → `Pong` (nonce echoed). Clients that skip the handshake are
//! tolerated: the advertisement is for routers that want to verify, not a
//! gate.
//!
//! For the byzantine chaos harness, the reply path consults three
//! feature-gated failpoint sites (`net.host.byzantine.wrong_id.<shard>`,
//! `…bad_index.<shard>`, `…truncate.<shard>`) that turn this honest daemon
//! into a malicious variant answering wrong correlation ids, out-of-range
//! partial indices, or truncated frames — proving the router quarantines
//! such a peer instead of merging its lies.

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sparse_substrate::{CscMatrix, Scalar, Semiring};

use crate::engine::{Engine, EngineConfig, EngineError, MxvRequest};

use super::codec::{read_frame, write_frame, Frame, WireScalar, DEFAULT_MAX_FRAME, HEADER_LEN};

/// How long the accept loop sleeps between polls for new connections and
/// the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// A daemon serving one shard's engine over TCP. Build one with
/// [`ShardHost::bind`], then either [`ShardHost::run`] it on the current
/// thread or [`ShardHost::spawn`] it onto a background thread (returning a
/// [`ShardHostHandle`] for shutdown).
///
/// Every accepted connection gets its own worker thread and its own
/// frontiers: each connection's `Flush` is one flush of the shared engine
/// over that connection's frontiers alone, so one router's flush never
/// serves, or strands, another's. Concurrent connections take turns on the
/// engine's kernel.
pub struct ShardHost<A, X, S>
where
    A: Scalar,
    X: WireScalar,
    S: Semiring<A, X> + Clone + 'static,
    S::Output: WireScalar,
{
    engine: Arc<Engine<'static, A, X, S>>,
    listener: TcpListener,
    info: HostInfo,
    shutdown: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// What the host advertises in its `Welcome` frame — enough for a router
/// to verify the host against its `ShardPlan` before routing traffic.
#[derive(Debug, Clone)]
struct HostInfo {
    shard: usize,
    col_start: usize,
    col_end: usize,
    nrows: usize,
    fingerprint: u64,
}

impl<A, X, S> ShardHost<A, X, S>
where
    A: Scalar,
    X: WireScalar,
    S: Semiring<A, X> + Clone + 'static,
    S::Output: WireScalar,
{
    /// Binds a listener on `addr` (use port 0 for an ephemeral port) and
    /// loads `matrix` — this shard's column slice, full output height —
    /// into a fresh engine. `shard` is the global shard index echoed in
    /// every reply; `columns` is the *global* column range the slice was
    /// cut from (`plan.range(shard)`), advertised in the `Welcome` frame
    /// together with the slice's structural fingerprint so dialing routers
    /// can verify the host against their plan.
    ///
    /// Fails with `InvalidInput` when `matrix` is not `columns.len()` wide
    /// — the advertisement would be a lie.
    pub fn bind(
        addr: impl ToSocketAddrs,
        shard: usize,
        columns: std::ops::Range<usize>,
        matrix: CscMatrix<A>,
        semiring: S,
        config: EngineConfig,
    ) -> std::io::Result<Self> {
        if matrix.ncols() != columns.len() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "shard {shard}: matrix is {} columns wide but claims global range {}..{}",
                    matrix.ncols(),
                    columns.start,
                    columns.end
                ),
            ));
        }
        let info = HostInfo {
            shard,
            col_start: columns.start,
            col_end: columns.end,
            nrows: matrix.nrows(),
            fingerprint: matrix.fingerprint(),
        };
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(ShardHost {
            engine: Arc::new(Engine::load_with(matrix, semiring, config)),
            listener,
            info,
            shutdown: Arc::new(AtomicBool::new(false)),
            conns: Arc::new(Mutex::new(Vec::new())),
            workers: Arc::new(Mutex::new(Vec::new())),
        })
    }

    /// The bound address (resolves the actual port after binding port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// This host's shard index.
    pub fn shard(&self) -> usize {
        self.info.shard
    }

    /// The hosted engine (e.g. for reading its stats or registry from the
    /// host process).
    pub fn engine(&self) -> &Engine<'static, A, X, S> {
        &self.engine
    }

    /// Runs the accept loop on the current thread until shutdown is
    /// signalled (see [`ShardHost::spawn`] for the handle that signals
    /// it). Each connection is served by its own worker thread.
    pub fn run(&self) {
        while !self.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    // Blocking per-connection I/O; the nonblocking flag is
                    // a listener-level property on all mainstream
                    // platforms, but reset it explicitly to stay portable.
                    let _ = stream.set_nonblocking(false);
                    let _ = stream.set_nodelay(true);
                    if let Ok(clone) = stream.try_clone() {
                        crate::engine::lock(&self.conns).push(clone);
                    }
                    let engine = Arc::clone(&self.engine);
                    let info = self.info.clone();
                    let worker = std::thread::spawn(move || {
                        serve_connection(engine, info, stream);
                    });
                    crate::engine::lock(&self.workers).push(worker);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(_) => break,
            }
        }
    }

    /// Moves the host onto a background thread and returns the handle that
    /// can stop it.
    pub fn spawn(self) -> ShardHostHandle {
        let addr = self.local_addr().expect("listener has a local address");
        let shutdown = Arc::clone(&self.shutdown);
        let conns = Arc::clone(&self.conns);
        let workers = Arc::clone(&self.workers);
        let accept = std::thread::spawn(move || self.run());
        ShardHostHandle { addr, shutdown, conns, workers, accept }
    }
}

/// Handle to a [`ShardHost::spawn`]ed host: stop it gracefully with
/// [`ShardHostHandle::shutdown`] or abruptly with
/// [`ShardHostHandle::kill`] (the chaos-test path — connected routers see
/// broken pipes and fail exactly the tickets routed here).
pub struct ShardHostHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    accept: JoinHandle<()>,
}

impl ShardHostHandle {
    /// The address the host is serving on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn stop(self, join_workers: bool) {
        self.shutdown.store(true, Ordering::SeqCst);
        for stream in crate::engine::lock(&self.conns).drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let _ = self.accept.join();
        if join_workers {
            let workers: Vec<JoinHandle<()>> =
                crate::engine::lock(&self.workers).drain(..).collect();
            for w in workers {
                let _ = w.join();
            }
        }
    }

    /// Stops accepting, severs every connection, and joins the worker
    /// threads. The listening port is released when this returns.
    pub fn shutdown(self) {
        self.stop(true);
    }

    /// Severs every connection *without* waiting for workers — the abrupt
    /// mid-load failure the chaos suite injects. Routers connected here
    /// observe broken pipes on their next exchange; a replacement host can
    /// rebind the same port immediately (the accept loop has exited).
    pub fn kill(self) {
        self.stop(false);
    }
}

/// The failpoint sites that turn this host into the chaos harness's
/// malicious variant, formatted once per connection. Without the
/// `failpoints` feature `act` is an inlined no-op and nothing fires.
struct ByzantineSites {
    wrong_id: String,
    bad_index: String,
    truncate: String,
}

/// Offset of a `Partial` frame's first index byte from the frame start:
/// the header plus `request u64 | shard u32 | ytag u8 | len u64 | nnz u64`.
const PARTIAL_FIRST_INDEX: usize = HEADER_LEN + 8 + 4 + 1 + 8 + 8;

fn serve_connection<A, X, S>(
    engine: Arc<Engine<'static, A, X, S>>,
    info: HostInfo,
    mut stream: TcpStream,
) where
    A: Scalar,
    X: WireScalar,
    S: Semiring<A, X> + Clone + 'static,
    S::Output: WireScalar,
{
    let (shard, cols) = (info.shard, info.col_end - info.col_start);
    let sites = ByzantineSites {
        wrong_id: format!("net.host.byzantine.wrong_id.{shard}"),
        bad_index: format!("net.host.byzantine.bad_index.{shard}"),
        truncate: format!("net.host.byzantine.truncate.{shard}"),
    };
    // Since the last flush: every frontier's id, with the error it already
    // resolved to or `None` when it waits in `requests` for the engine.
    let mut received: Vec<(u64, Option<EngineError>)> = Vec::new();
    let mut requests: Vec<MxvRequest<X>> = Vec::new();
    // Clean EOF, stream failure, or a peer speaking garbage all end the
    // connection the same way.
    while let Ok(Some((frame, _))) = read_frame::<X, S::Output, _>(&mut stream, DEFAULT_MAX_FRAME) {
        match frame {
            Frame::Frontier(w) => {
                // Re-anchor the relative budget to the local clock *now*:
                // transit time has already been spent from the budget, and
                // a budget of zero (expired in flight) resolves without
                // touching the engine — the router gets `DeadlineExceeded`,
                // never a hung ticket.
                let received_at = Instant::now();
                let request = MxvRequest {
                    frontier: w.slice,
                    mask: w.mask,
                    deadline: w.deadline_micros.map(|b| received_at + Duration::from_micros(b)),
                    pulled: w.pulled,
                };
                // The engine panics on a request that does not fit its
                // matrix; a peer's bad frame must fail its own request, not
                // this connection.
                let error = if let Some(msg) = request.shape_error(info.nrows, cols) {
                    Some(EngineError::KernelFailed(format!("shard {shard}: {msg}")))
                } else if w.deadline_micros == Some(0) {
                    Some(EngineError::DeadlineExceeded)
                } else {
                    requests.push(request);
                    None
                };
                received.push((w.request, error));
            }
            Frame::Flush => {
                // This connection's frontiers are one engine flush; the
                // results come back in the order the frontiers went in.
                let (results, outcome) = engine.run(std::mem::take(&mut requests));
                let mut results = results.into_iter();
                let mut buf = Vec::new();
                let mut ok = true;
                for (id, error) in received.drain(..) {
                    let result = match error {
                        Some(e) => Err(e),
                        None => results.next().expect("one result per request run"),
                    };
                    let mut reply: Frame<X, S::Output> = match result {
                        Ok(y) => Frame::Partial { request: id, shard, partial: y },
                        Err(e) => Frame::Error { request: id, shard, error: e },
                    };
                    // Malicious variant: echo a correlation id nobody asked
                    // for (chaos harness only — a no-op unless armed).
                    if crate::failpoint::act(&sites.wrong_id).is_err() {
                        if let Frame::Partial { request, .. } | Frame::Error { request, .. } =
                            &mut reply
                        {
                            *request = request.wrapping_add(0xDEAD_BEEF);
                        }
                    }
                    let frame_start = buf.len();
                    if write_frame(&mut buf, &reply, DEFAULT_MAX_FRAME).is_err() {
                        ok = false;
                        break;
                    }
                    // Malicious variant: smash the first partial index to
                    // u64::MAX *after* encoding (an honest host cannot even
                    // build such a vector — the lie has to be byte surgery).
                    if let Frame::Partial { partial, .. } = &reply {
                        if partial.nnz() > 0 && crate::failpoint::act(&sites.bad_index).is_err() {
                            let at = frame_start + PARTIAL_FIRST_INDEX;
                            buf[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
                        }
                    }
                }
                let done: Frame<X, S::Output> = Frame::Done {
                    shard,
                    lanes: outcome.lanes as u64,
                    requests: outcome.requests as u64,
                    execute_micros: u64::try_from(outcome.timings.execute.as_micros())
                        .unwrap_or(u64::MAX),
                };
                if !ok || write_frame(&mut buf, &done, DEFAULT_MAX_FRAME).is_err() {
                    break;
                }
                // Malicious variant: send half a header and hang up —
                // truncation inside a frame, not a clean close.
                if crate::failpoint::act(&sites.truncate).is_err() {
                    buf.truncate(HEADER_LEN / 2);
                    let _ = stream.write_all(&buf);
                    break;
                }
                if stream.write_all(&buf).is_err() {
                    break;
                }
            }
            Frame::Hello => {
                // Discovery: advertise what this host serves. Answered at
                // any point — the handshake is for routers that verify,
                // never a gate (raw protocol clients may skip it).
                let welcome: Frame<X, S::Output> = Frame::Welcome {
                    shard,
                    col_start: info.col_start,
                    col_end: info.col_end,
                    nrows: info.nrows,
                    fingerprint: info.fingerprint,
                };
                if write_frame(&mut stream, &welcome, DEFAULT_MAX_FRAME).is_err() {
                    break;
                }
            }
            Frame::Ping { nonce } => {
                let pong: Frame<X, S::Output> = Frame::Pong { nonce };
                if write_frame(&mut stream, &pong, DEFAULT_MAX_FRAME).is_err() {
                    break;
                }
            }
            Frame::Goodbye => break,
            // Reply-direction frames from a client are a protocol
            // violation; drop the connection.
            Frame::Partial { .. }
            | Frame::Error { .. }
            | Frame::Done { .. }
            | Frame::Welcome { .. }
            | Frame::Pong { .. } => break,
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}
