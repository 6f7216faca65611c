//! Remote sharding: the shard protocol over sockets.
//!
//! The [`shard`](crate::shard) router keeps every sub-request queued until
//! its flush, then hands its transport one shard's batch of plain-data
//! sub-requests at a time and reads back one plain-data result per entry,
//! by position, precisely so the per-shard hop could leave the process. This module is that step — the CombBLAS
//! lineage's distributed-memory decomposition realized as a serving fleet:
//! shard engines live in [`ShardHost`] daemons, and a [`TcpTransport`]
//! behind the unchanged [`ShardedEngine`](crate::shard::ShardedEngine)
//! front door carries one shard's batch out and its partials back. The
//! transport holds no queue: the router's flush owns the per-shard
//! threads, the injected outages (the `shard.flush.<s>` failpoint never
//! reaches the wire) and the cancelled requests (never written). No
//! external dependencies: the wire format is hand-rolled length-prefixed
//! little-endian framing over `std::net`.
//!
//! ## Wire format
//!
//! Every frame is a 10-byte header followed by its payload; all integers
//! are little-endian:
//!
//! | offset | bytes | field |
//! |---|---|---|
//! | 0 | 4 | magic `"SMSV"` |
//! | 4 | 1 | protocol version (currently 4) |
//! | 5 | 1 | frame tag |
//! | 6 | 4 | payload length `u32` |
//!
//! | tag | frame | direction | payload |
//! |---|---|---|---|
//! | 1 | `Frontier` | router → host | `request u64 \| shard u32 \| scalar tag u8 \| dim u64 \| nnz u64 \| indices u64×nnz \| values X×nnz \| deadline flag u8 (+ budget µs u64) \| mask flag u8 (0 none / 1 keep / 2 complement; + dim u64, words u64, bitmap u64×words)` |
//! | 2 | `Partial` | host → router | `request u64 \| shard u32 \| scalar tag u8 \| dim u64 \| nnz u64 \| indices u64×nnz \| values Y×nnz` — indices strictly increasing (enforced at decode) |
//! | 3 | `Error` | host → router | `request u64 \| shard u32 \| error code u8 (+ message u32-len + UTF-8 for KernelFailed)` |
//! | 4 | `Flush` | router → host | empty — "run every frontier sent on this connection since the last `Flush` as one engine flush, reply to each in order" |
//! | 6 | `Done` | host → router | `shard u32 \| lanes u64 \| requests u64 \| execute µs u64` — sent after the per-request replies |
//! | 5 | `Goodbye` | either | empty — orderly close |
//! | 7 | `Hello` | router → host | empty — discovery probe at dial time |
//! | 8 | `Welcome` | host → router | `shard u32 \| col_start u64 \| col_end u64 \| nrows u64 \| fingerprint u64` — the host's advertisement |
//! | 9 | `Ping` | router → host | `nonce u64` — heartbeat probe |
//! | 10 | `Pong` | host → router | `nonce u64` — heartbeat reply, nonce echoed |
//! | 11 | `Pulled` | router → host | `Frontier`'s payload, for a pulled request: the whole frontier (dim = the output height) and the host's rows `[lo, hi)` of the mask, re-based to 0 (dim = `hi − lo`); its `Partial` answer is those rows, `hi − lo` high |
//!
//! Frames are bounded ([`DEFAULT_MAX_FRAME`] on both sides of a
//! connection; the codec functions take the bound as a parameter) and decoding
//! is total: truncation, bad magic/version/tag, over-limit lengths, and
//! inconsistent payloads all come back as a typed [`DecodeError`], never a
//! panic. Scalar tags ([`WireScalar::TAG`]) make a router and host
//! compiled for different semirings fail loudly with
//! [`DecodeError::ScalarMismatch`]. Every vector on the wire — `Frontier`
//! slice or `Partial` — carries strictly increasing indices, as every
//! [`sparse_substrate::SparseVec`] does, and the decoder rejects non-monotone
//! or duplicate indices as [`DecodeError::Corrupt`]: a hostile peer cannot
//! make a host multiply a column twice or inject shuffled or duplicated rows
//! into the merge.
//!
//! ## Deadline semantics
//!
//! Wall clocks don't cross process boundaries, so deadlines travel as
//! *relative* budgets: the transport computes `deadline − now` when it
//! **writes** the frame (clamping out queue wait), and the host re-anchors
//! `budget` to a local `Instant` the moment the frame is **read**
//! (clamping out transit). A budget that reaches the host already
//! exhausted resolves `DeadlineExceeded` without touching the engine, and
//! the gathering transport re-checks each reply against the router-local
//! absolute deadline — a partial that arrives too late is converted to
//! `DeadlineExceeded` rather than delivered as fresh.
//!
//! ## Discovery and health
//!
//! At dial time the router sends `Hello` and verifies the host's `Welcome`
//! — shard id, global column range, output height, and the matrix slice's
//! structural fingerprint — against its
//! [`ShardPlan`](crate::shard::ShardPlan). A contradiction is a typed
//! [`ConnectError::PlanMismatch`]: a misconfigured or stale host is
//! rejected before it can serve a single wrong answer. A background
//! heartbeat (`Ping`/`Pong`, nonce echoed) then marks dead replicas
//! unhealthy between flushes and half-open-probes tripped ones after their
//! breaker cooldown. Hosts answer `Hello`/`Ping` at any point; clients
//! that skip the handshake are tolerated.
//!
//! ## Replication and failure semantics
//!
//! Each shard may be served by N replica hosts
//! ([`ShardedEngine::connect_replicated`](crate::shard::ShardedEngine::connect_replicated));
//! on a replica outage *or* quarantine mid-flush the router re-sends the
//! whole batch — deadline budgets recomputed — to the next replica in
//! health order, so a single host death degrades to a retry. A per-replica
//! circuit breaker (consecutive-failure trip, timed half-open probe) keeps
//! flushes away from a corpse until it proves itself again. Only when
//! every replica of a shard fails does a connection outage (refused dial,
//! broken pipe, short reply, I/O timeout) fail **exactly the sub-requests
//! routed through that shard** as
//! [`EngineError`](crate::engine::EngineError) `::KernelFailed` with a
//! `shard <s>:` prefix — the same blast radius the `shard.flush.<s>`
//! failpoint injects in-process, and sibling shards are untouched.
//! Connections are re-dialed with capped, jittered exponential backoff
//! (`net.reconnects` counts successes), so a restarted host rejoins the
//! fleet without any waiter stranding: every routed ticket resolves every
//! flush, outage or not.
//!
//! ## Byzantine-frame defense
//!
//! A host answers a connection's frontiers in the order they were sent,
//! and replies are validated before they touch a merge: a correlation id
//! that is not the next unanswered frontier's, a wrong shard
//! claim, a partial of the wrong height (the output height for a pushed
//! frontier, the host's `hi − lo` rows for a pulled one), or bytes that do
//! not decode
//! (including out-of-range / non-monotone partial indices) quarantine the
//! connection with a typed [`ByzantineFrame`] — the stream is severed, the
//! replica's breaker trips immediately, `shard.replica.quarantined` is
//! incremented, and the flush fails over. The chaos harness proves this
//! with a malicious [`ShardHost`] variant (failpoint-armed) that answers
//! wrong ids, oversized indices, and truncated frames.
//!
//! ## Observability
//!
//! A socket-backed router's registry carries the `net.*` and
//! `shard.replica.*` families next to `shard.*`: `net.bytes.out` /
//! `net.bytes.in` counters, `net.encode.time` / `net.decode.time` /
//! `net.rpc.time` histograms, the `net.reconnects` /
//! `net.handshake.rejected` / `net.health.probes` / `net.health.failures`
//! counters, the `net.connections` / `net.health.unhealthy` gauges, and
//! the `shard.replica.failovers` / `shard.replica.quarantined` /
//! `shard.replica.trips` counters (see the [`crate::obs`] taxonomy).

mod codec;
mod host;
mod transport;

pub use codec::{
    decode_frame, encode_frame, encode_frontier, read_frame, write_frame, DecodeError, Frame,
    WireError, WireFrontier, WireScalar, DEFAULT_MAX_FRAME, HEADER_LEN, MAGIC, VERSION,
};
pub use host::{ShardHost, ShardHostHandle};
pub use transport::{ByzantineFrame, ConnectError, TcpConfig, TcpTransport};
