//! The wire codec: hand-rolled length-prefixed little-endian framing for
//! the shard protocol.
//!
//! One frame = a 10-byte header (`magic | version | tag | payload length`)
//! followed by the payload. Every multi-byte quantity is little-endian;
//! scalars are tagged (see [`WireScalar`]) so a router and a host compiled
//! for different semirings fail with [`DecodeError::ScalarMismatch`]
//! instead of reinterpreting bytes. Decoding never panics: truncation, bad
//! magic, version or tag mismatches, over-limit frames, and inconsistent
//! payloads (out-of-range indices, bad mask words, invalid UTF-8) all
//! surface as a typed [`DecodeError`].
//!
//! See the [module docs](super) for the full frame layout table.

use std::io::{self, Read, Write};
use std::sync::Arc;

use sparse_substrate::{MaskBits, Scalar, SparseError, SparseVec};

use crate::engine::EngineError;
use crate::masked::MaskMode;
use crate::shard::transport::WireRequest;

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"SMSV";
/// Wire protocol version carried by every frame header. Version 2 added the
/// discovery/health frames (`Hello`/`Welcome`, `Ping`/`Pong`) and made
/// `Partial` index order a protocol invariant. Version 3 dropped the
/// `Frontier` frame's trailing batched-algorithm byte: a host's engine runs
/// the one kernel family it was configured with. Version 4 added the
/// `Pulled` frame: a pulled request's whole frontier and the host's own
/// rows of its mask, answered by a `Partial` of those rows. Every vector on
/// the wire, `Frontier` slice and `Partial` alike, carries strictly
/// increasing indices; the decoder rejects anything else as corrupt.
pub const VERSION: u8 = 4;
/// Bytes of `magic | version | tag | payload_len: u32`.
pub const HEADER_LEN: usize = 10;
/// Default upper bound on one frame's payload (64 MiB). Both sides of a
/// connection enforce it: the encoder refuses to build an oversize frame
/// and the decoder refuses to buffer one.
pub const DEFAULT_MAX_FRAME: usize = 64 << 20;

const TAG_FRONTIER: u8 = 1;
const TAG_PARTIAL: u8 = 2;
const TAG_ERROR: u8 = 3;
const TAG_FLUSH: u8 = 4;
const TAG_GOODBYE: u8 = 5;
const TAG_DONE: u8 = 6;
const TAG_HELLO: u8 = 7;
const TAG_WELCOME: u8 = 8;
const TAG_PING: u8 = 9;
const TAG_PONG: u8 = 10;
const TAG_PULLED: u8 = 11;

/// Why a frame could not be decoded (or, for [`DecodeError::Oversize`],
/// encoded). Every variant is a protocol-level fault a peer can trigger;
/// none of them panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The first four bytes were not [`MAGIC`] — not this protocol.
    BadMagic([u8; 4]),
    /// The peer speaks a different protocol version.
    BadVersion(u8),
    /// Unknown frame tag byte.
    BadTag(u8),
    /// The frame's scalar tag does not match the expected [`WireScalar`]
    /// type — router and host were compiled for different semirings.
    ScalarMismatch {
        /// Tag the decoder expected for this slot.
        expected: u8,
        /// Tag found on the wire.
        got: u8,
    },
    /// The buffer or stream ended inside a frame.
    Truncated,
    /// The header declares a payload larger than the configured limit.
    Oversize {
        /// Declared payload length.
        len: usize,
        /// Configured limit it exceeds.
        limit: usize,
    },
    /// Structurally invalid payload (index out of range, inconsistent mask
    /// words, unknown enum byte, invalid UTF-8, …).
    Corrupt(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic(m) => write!(f, "bad frame magic {m:?}"),
            DecodeError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            DecodeError::BadTag(t) => write!(f, "unknown frame tag {t}"),
            DecodeError::ScalarMismatch { expected, got } => {
                write!(f, "scalar tag mismatch: expected {expected}, got {got}")
            }
            DecodeError::Truncated => f.write_str("frame truncated"),
            DecodeError::Oversize { len, limit } => {
                write!(f, "frame payload of {len} bytes exceeds the {limit}-byte limit")
            }
            DecodeError::Corrupt(what) => write!(f, "corrupt payload: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A stream-level failure: either the socket failed or the peer sent bytes
/// that do not decode.
#[derive(Debug)]
pub enum WireError {
    /// The underlying read or write failed.
    Io(io::Error),
    /// The bytes arrived but do not form a valid frame.
    Decode(DecodeError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::Decode(e) => write!(f, "decode error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        WireError::Decode(e)
    }
}

/// A scalar type with a fixed little-endian wire representation. The tag
/// byte travels in every `Frontier`/`Partial` frame so mismatched peers
/// fail loudly ([`DecodeError::ScalarMismatch`]) instead of reinterpreting
/// bit patterns.
pub trait WireScalar: Scalar {
    /// Type tag carried on the wire.
    const TAG: u8;
    /// Encoded width in bytes.
    const WIDTH: usize;
    /// Appends the little-endian encoding.
    fn write_le(&self, out: &mut Vec<u8>);
    /// Reads one value from the cursor.
    fn read_le(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

macro_rules! wire_scalar {
    ($ty:ty, $tag:expr, $width:expr) => {
        impl WireScalar for $ty {
            const TAG: u8 = $tag;
            const WIDTH: usize = $width;
            fn write_le(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn read_le(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                let bytes = r.bytes($width)?;
                Ok(<$ty>::from_le_bytes(bytes.try_into().expect("width-checked slice")))
            }
        }
    };
}

wire_scalar!(f64, 1, 8);
wire_scalar!(f32, 2, 4);
wire_scalar!(u64, 3, 8);
wire_scalar!(u32, 4, 4);
wire_scalar!(i64, 5, 8);
wire_scalar!(i32, 6, 4);

impl WireScalar for usize {
    const TAG: u8 = 7;
    const WIDTH: usize = 8;
    fn write_le(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(*self as u64).to_le_bytes());
    }
    fn read_le(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let v = r.u64()?;
        usize::try_from(v).map_err(|_| DecodeError::Corrupt("usize value overflows platform"))
    }
}

impl WireScalar for bool {
    const TAG: u8 = 8;
    const WIDTH: usize = 1;
    fn write_le(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn read_le(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Corrupt("bool byte not 0 or 1")),
        }
    }
}

/// One routed sub-request on the wire: the frontier, its relative deadline
/// budget and the output mask. A pushed sub-request (a `Frontier` frame)
/// carries the frontier's slice and the whole mask; a pulled one (a
/// `Pulled` frame, the same payload under its own tag) carries the whole
/// frontier and the host's own rows of the mask.
#[derive(Debug, Clone, PartialEq)]
pub struct WireFrontier<X> {
    /// Router-unique request id, echoed by the reply.
    pub request: u64,
    /// Destination shard.
    pub shard: usize,
    /// The frontier slice, re-based to the shard's column range; for a
    /// pulled sub-request, the whole frontier.
    pub slice: SparseVec<X>,
    /// Remaining deadline budget in microseconds (relative — the host
    /// re-anchors it to a local `Instant` on receive).
    pub deadline_micros: Option<u64>,
    /// Output mask sidecar: the whole mask (full output height, shared by
    /// all shards and by reference, as
    /// [`MxvRequest`](crate::engine::MxvRequest) holds it), or for a pulled
    /// sub-request the shard's rows `[lo, hi)` of it, re-based to 0.
    pub mask: Option<(Arc<MaskBits>, MaskMode)>,
    /// Whether the host pulls the rows it owns and answers with them alone
    /// (`hi − lo` high) instead of a full-height partial.
    pub pulled: bool,
}

/// Everything that can travel on a shard connection: a `Frontier`, the two
/// per-request replies (`Partial`, `Error`), and the control frames
/// (`Flush` = "run every frontier sent on this connection since the last
/// `Flush`", `Done` = the host's flush summary, `Goodbye` = orderly close,
/// plus the handshake and heartbeat frames).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame<X, Y> {
    /// Router → host: one request's frontier slice (+ mask sidecar), or
    /// for a pulled request its whole frontier (+ the host's mask rows);
    /// [`WireFrontier::pulled`] picks the tag.
    Frontier(WireFrontier<X>),
    /// Host → router: one full-height partial product, or a pulled
    /// request's rows of the product.
    Partial {
        /// Echoed request id.
        request: u64,
        /// Responding shard.
        shard: usize,
        /// The partial product.
        partial: SparseVec<Y>,
    },
    /// Host → router: the sub-request failed.
    Error {
        /// Echoed request id.
        request: u64,
        /// Failing shard.
        shard: usize,
        /// What went wrong.
        error: EngineError,
    },
    /// Router → host: run every frontier received on this connection
    /// since the last flush as one engine flush, and reply to each in the
    /// order it arrived.
    Flush,
    /// Host → router: flush finished; sent after the per-request replies
    /// with the host engine's execution summary.
    Done {
        /// Responding shard.
        shard: usize,
        /// Lanes the host engine executed this flush.
        lanes: u64,
        /// Requests the host engine drained this flush.
        requests: u64,
        /// Host-side kernel wall time, microseconds.
        execute_micros: u64,
    },
    /// Either direction: orderly connection close.
    Goodbye,
    /// Router → host: discovery probe sent immediately after dialing. The
    /// host answers with [`Frame::Welcome`] before any traffic flows.
    Hello,
    /// Host → router: the host's advertisement, verified against the
    /// router's `ShardPlan` at dial time — a host serving the wrong shard,
    /// column range, height, or matrix structure is rejected with a typed
    /// `PlanMismatch` instead of silently corrupting merges.
    Welcome {
        /// Shard id this host serves.
        shard: usize,
        /// First global column of the host's slice (inclusive).
        col_start: usize,
        /// One past the last global column of the host's slice.
        col_end: usize,
        /// Output height (rows of the original matrix).
        nrows: usize,
        /// Structural fingerprint of the host's matrix slice
        /// (`CscMatrix::fingerprint`).
        fingerprint: u64,
    },
    /// Router → host: liveness probe from the background heartbeat. The
    /// host echoes the nonce in a [`Frame::Pong`].
    Ping {
        /// Opaque echo token correlating probe and reply.
        nonce: u64,
    },
    /// Host → router: heartbeat reply.
    Pong {
        /// The nonce from the matching [`Frame::Ping`].
        nonce: u64,
    },
}

/// Bounds-checked little-endian cursor over a payload slice. Public only
/// because [`WireScalar::read_le`] takes it; not constructible outside the
/// codec.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4-byte slice")))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8-byte slice")))
    }

    fn usize(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.u64()?)
            .map_err(|_| DecodeError::Corrupt("length field overflows platform"))
    }

    /// A count of items each at least `width` bytes wide, rejected early
    /// when the payload cannot possibly hold it (so a corrupt count cannot
    /// drive a huge allocation).
    fn count(&mut self, width: usize) -> Result<usize, DecodeError> {
        let n = self.usize()?;
        if n.checked_mul(width.max(1)).is_none_or(|total| total > self.remaining()) {
            return Err(DecodeError::Truncated);
        }
        Ok(n)
    }

    fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() != 0 {
            return Err(DecodeError::Corrupt("trailing bytes after payload"));
        }
        Ok(())
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn mask_mode_byte(mode: MaskMode) -> u8 {
    match mode {
        MaskMode::Keep => 1,
        MaskMode::Complement => 2,
    }
}

fn error_code(e: &EngineError) -> u8 {
    match e {
        EngineError::Cancelled => 1,
        EngineError::DeadlineExceeded => 2,
        EngineError::Overloaded => 3,
        EngineError::KernelFailed(_) => 4,
        EngineError::Disconnected => 5,
        EngineError::WaitTimeout => 6,
        EngineError::AlreadyTaken => 7,
    }
}

fn spvec_payload<T: WireScalar>(out: &mut Vec<u8>, v: &SparseVec<T>) {
    put_u64(out, v.len() as u64);
    put_u64(out, v.nnz() as u64);
    for &i in v.indices() {
        put_u64(out, i as u64);
    }
    for x in v.values() {
        x.write_le(out);
    }
}

fn read_spvec<T: WireScalar>(r: &mut Reader<'_>) -> Result<SparseVec<T>, DecodeError> {
    let len = r.usize()?;
    let nnz = r.count(8 + T::WIDTH)?;
    let mut indices = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        indices.push(r.usize()?);
    }
    let mut values = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        values.push(T::read_le(r)?);
    }
    // `from_parts` checks the list-format invariant, so a hostile or buggy
    // peer cannot hand a kernel or the merge fold a repeated, shuffled or
    // out-of-range row.
    SparseVec::from_parts(len, indices, values).map_err(|e| match e {
        SparseError::VectorIndexOutOfBounds { .. } => {
            DecodeError::Corrupt("vector index out of range")
        }
        _ => DecodeError::Corrupt("vector indices not strictly increasing"),
    })
}

/// Appends the encoding of `frame` to `out`, returning the encoded byte
/// count. Fails with [`DecodeError::Oversize`] when the payload would
/// exceed `max_frame` (or `u32::MAX`) — the encoder enforces the same
/// bound its peer's decoder will.
pub fn encode_frame<X: WireScalar, Y: WireScalar>(
    frame: &Frame<X, Y>,
    out: &mut Vec<u8>,
    max_frame: usize,
) -> Result<usize, DecodeError> {
    let mut payload = Vec::new();
    let tag = match frame {
        Frame::Frontier(w) => {
            let mask = w.mask.as_ref();
            frontier_payload(&mut payload, w.request, w.shard, &w.slice, w.deadline_micros, mask);
            frontier_tag(w.pulled)
        }
        Frame::Partial { request, shard, partial } => {
            put_u64(&mut payload, *request);
            put_u32(&mut payload, *shard as u32);
            payload.push(Y::TAG);
            spvec_payload(&mut payload, partial);
            TAG_PARTIAL
        }
        Frame::Error { request, shard, error } => {
            put_u64(&mut payload, *request);
            put_u32(&mut payload, *shard as u32);
            payload.push(error_code(error));
            if let EngineError::KernelFailed(msg) = error {
                put_u32(&mut payload, msg.len() as u32);
                payload.extend_from_slice(msg.as_bytes());
            }
            TAG_ERROR
        }
        Frame::Flush => TAG_FLUSH,
        Frame::Goodbye => TAG_GOODBYE,
        Frame::Done { shard, lanes, requests, execute_micros } => {
            put_u32(&mut payload, *shard as u32);
            put_u64(&mut payload, *lanes);
            put_u64(&mut payload, *requests);
            put_u64(&mut payload, *execute_micros);
            TAG_DONE
        }
        Frame::Hello => TAG_HELLO,
        Frame::Welcome { shard, col_start, col_end, nrows, fingerprint } => {
            put_u32(&mut payload, *shard as u32);
            put_u64(&mut payload, *col_start as u64);
            put_u64(&mut payload, *col_end as u64);
            put_u64(&mut payload, *nrows as u64);
            put_u64(&mut payload, *fingerprint);
            TAG_WELCOME
        }
        Frame::Ping { nonce } => {
            put_u64(&mut payload, *nonce);
            TAG_PING
        }
        Frame::Pong { nonce } => {
            put_u64(&mut payload, *nonce);
            TAG_PONG
        }
    };
    seal(out, tag, &payload, max_frame)
}

/// [`encode_frame`] of the frame that sends `request` to `shard`, from
/// borrowed parts: the same bytes as `Frame::Frontier(WireFrontier {
/// request, shard, slice, deadline_micros: budget, mask, pulled })`,
/// without first moving or cloning the frontier and mask into a
/// [`WireFrontier`]. `budget` stands in for the request's absolute
/// deadline: the microseconds left of it at write time.
pub fn encode_frontier<X: WireScalar>(
    request: &WireRequest<X>,
    shard: usize,
    budget: Option<u64>,
    out: &mut Vec<u8>,
    max_frame: usize,
) -> Result<usize, DecodeError> {
    let mut payload = Vec::new();
    let mask = request.mask.as_ref();
    frontier_payload(&mut payload, request.request, shard, &request.slice, budget, mask);
    seal(out, frontier_tag(request.pulled), &payload, max_frame)
}

/// The tag of a pushed (`Frontier`) or pulled (`Pulled`) sub-request.
fn frontier_tag(pulled: bool) -> u8 {
    if pulled {
        TAG_PULLED
    } else {
        TAG_FRONTIER
    }
}

/// Appends the payload of a `Frontier` or `Pulled` frame to `payload`.
fn frontier_payload<X: WireScalar>(
    payload: &mut Vec<u8>,
    request: u64,
    shard: usize,
    slice: &SparseVec<X>,
    deadline_micros: Option<u64>,
    mask: Option<&(Arc<MaskBits>, MaskMode)>,
) {
    put_u64(payload, request);
    put_u32(payload, shard as u32);
    payload.push(X::TAG);
    spvec_payload(payload, slice);
    match deadline_micros {
        None => payload.push(0),
        Some(budget) => {
            payload.push(1);
            put_u64(payload, budget);
        }
    }
    match mask {
        None => payload.push(0),
        Some((bits, mode)) => {
            payload.push(mask_mode_byte(*mode));
            put_u64(payload, bits.len() as u64);
            put_u64(payload, bits.words().len() as u64);
            for &word in bits.words() {
                put_u64(payload, word);
            }
        }
    }
}

/// Appends the header and `payload` of one `tag` frame to `out`, or leaves
/// `out` untouched when the payload exceeds `max_frame` (or `u32::MAX`).
fn seal(
    out: &mut Vec<u8>,
    tag: u8,
    payload: &[u8],
    max_frame: usize,
) -> Result<usize, DecodeError> {
    if payload.len() > max_frame || u32::try_from(payload.len()).is_err() {
        return Err(DecodeError::Oversize { len: payload.len(), limit: max_frame });
    }
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(tag);
    put_u32(out, payload.len() as u32);
    out.extend_from_slice(payload);
    Ok(out.len() - start)
}

/// Decodes one complete frame from the front of `buf`, returning it and
/// the bytes consumed. `buf` must hold the whole frame
/// ([`DecodeError::Truncated`] otherwise); streaming callers use
/// [`read_frame`].
pub fn decode_frame<X: WireScalar, Y: WireScalar>(
    buf: &[u8],
    max_frame: usize,
) -> Result<(Frame<X, Y>, usize), DecodeError> {
    let header = buf.first_chunk().ok_or(DecodeError::Truncated)?;
    let (tag, payload_len) = parse_header(header, max_frame)?;
    if buf.len() < HEADER_LEN + payload_len {
        return Err(DecodeError::Truncated);
    }
    let frame = decode_payload(tag, &buf[HEADER_LEN..HEADER_LEN + payload_len])?;
    Ok((frame, HEADER_LEN + payload_len))
}

/// Checks a frame header's magic, version and payload bound, returning the
/// frame's tag and payload length.
fn parse_header(header: &[u8; HEADER_LEN], max_frame: usize) -> Result<(u8, usize), DecodeError> {
    let magic: [u8; 4] = header[..4].try_into().expect("4-byte slice");
    if magic != MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    if header[4] != VERSION {
        return Err(DecodeError::BadVersion(header[4]));
    }
    let payload_len = u32::from_le_bytes(header[6..].try_into().expect("4-byte slice")) as usize;
    if payload_len > max_frame {
        return Err(DecodeError::Oversize { len: payload_len, limit: max_frame });
    }
    Ok((header[5], payload_len))
}

fn decode_payload<X: WireScalar, Y: WireScalar>(
    tag: u8,
    payload: &[u8],
) -> Result<Frame<X, Y>, DecodeError> {
    let mut r = Reader::new(payload);
    let frame = match tag {
        TAG_FRONTIER | TAG_PULLED => {
            let request = r.u64()?;
            let shard = r.u32()? as usize;
            let xtag = r.u8()?;
            if xtag != X::TAG {
                return Err(DecodeError::ScalarMismatch { expected: X::TAG, got: xtag });
            }
            let slice = read_spvec::<X>(&mut r)?;
            let deadline_micros = match r.u8()? {
                0 => None,
                1 => Some(r.u64()?),
                _ => return Err(DecodeError::Corrupt("unknown deadline flag")),
            };
            let mask = match r.u8()? {
                0 => None,
                flag @ (1 | 2) => {
                    let len = r.usize()?;
                    let nwords = r.count(8)?;
                    let mut words = Vec::with_capacity(nwords);
                    for _ in 0..nwords {
                        words.push(r.u64()?);
                    }
                    let bits = MaskBits::from_words(len, words)
                        .map_err(|_| DecodeError::Corrupt("inconsistent mask words"))?;
                    let mode = if flag == 1 { MaskMode::Keep } else { MaskMode::Complement };
                    Some((Arc::new(bits), mode))
                }
                _ => return Err(DecodeError::Corrupt("unknown mask flag")),
            };
            let pulled = tag == TAG_PULLED;
            Frame::Frontier(WireFrontier { request, shard, slice, deadline_micros, mask, pulled })
        }
        TAG_PARTIAL => {
            let request = r.u64()?;
            let shard = r.u32()? as usize;
            let ytag = r.u8()?;
            if ytag != Y::TAG {
                return Err(DecodeError::ScalarMismatch { expected: Y::TAG, got: ytag });
            }
            let partial = read_spvec::<Y>(&mut r)?;
            Frame::Partial { request, shard, partial }
        }
        TAG_ERROR => {
            let request = r.u64()?;
            let shard = r.u32()? as usize;
            let error = match r.u8()? {
                1 => EngineError::Cancelled,
                2 => EngineError::DeadlineExceeded,
                3 => EngineError::Overloaded,
                4 => {
                    let len = r.u32()? as usize;
                    let bytes = r.bytes(len)?;
                    let msg = std::str::from_utf8(bytes)
                        .map_err(|_| DecodeError::Corrupt("error message not UTF-8"))?;
                    EngineError::KernelFailed(msg.to_string())
                }
                5 => EngineError::Disconnected,
                6 => EngineError::WaitTimeout,
                7 => EngineError::AlreadyTaken,
                _ => return Err(DecodeError::Corrupt("unknown error code")),
            };
            Frame::Error { request, shard, error }
        }
        TAG_FLUSH => Frame::Flush,
        TAG_GOODBYE => Frame::Goodbye,
        TAG_DONE => {
            let shard = r.u32()? as usize;
            let lanes = r.u64()?;
            let requests = r.u64()?;
            let execute_micros = r.u64()?;
            Frame::Done { shard, lanes, requests, execute_micros }
        }
        TAG_HELLO => Frame::Hello,
        TAG_WELCOME => {
            let shard = r.u32()? as usize;
            let col_start = r.usize()?;
            let col_end = r.usize()?;
            let nrows = r.usize()?;
            let fingerprint = r.u64()?;
            if col_start > col_end {
                return Err(DecodeError::Corrupt("welcome column range inverted"));
            }
            Frame::Welcome { shard, col_start, col_end, nrows, fingerprint }
        }
        TAG_PING => Frame::Ping { nonce: r.u64()? },
        TAG_PONG => Frame::Pong { nonce: r.u64()? },
        other => return Err(DecodeError::BadTag(other)),
    };
    r.finish()?;
    Ok(frame)
}

/// Encodes `frame` and writes it to `w`. Returns the bytes written.
pub fn write_frame<X: WireScalar, Y: WireScalar, W: Write>(
    w: &mut W,
    frame: &Frame<X, Y>,
    max_frame: usize,
) -> Result<usize, WireError> {
    let mut buf = Vec::new();
    encode_frame(frame, &mut buf, max_frame)?;
    w.write_all(&buf)?;
    Ok(buf.len())
}

/// What [`read_frame`] yields: `Ok(Some((frame, bytes_read)))`, `Ok(None)`
/// for a clean end-of-stream, or a [`WireError`].
pub type FrameRead<X, Y> = Result<Option<(Frame<X, Y>, usize)>, WireError>;

/// Reads one frame from `r`. `Ok(None)` is a clean end-of-stream (the peer
/// closed between frames); EOF *inside* a frame is
/// [`DecodeError::Truncated`]. The second tuple element is the bytes read.
pub fn read_frame<X: WireScalar, Y: WireScalar, R: Read>(
    r: &mut R,
    max_frame: usize,
) -> FrameRead<X, Y> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0;
    while filled < HEADER_LEN {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(DecodeError::Truncated.into()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let (tag, payload_len) = parse_header(&header, max_frame)?;
    let mut payload = vec![0u8; payload_len];
    if let Err(e) = r.read_exact(&mut payload) {
        return if e.kind() == io::ErrorKind::UnexpectedEof {
            Err(DecodeError::Truncated.into())
        } else {
            Err(e.into())
        };
    }
    let frame = decode_payload(tag, &payload)?;
    Ok(Some((frame, HEADER_LEN + payload_len)))
}
