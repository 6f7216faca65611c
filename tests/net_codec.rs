//! Property and adversarial tests for the shard wire codec
//! ([`spmspv::net`]): every frame **round-trips bit-identically over both
//! semiring scalar types** (`f64` and `usize`), through both the in-memory
//! encoder/decoder pair and the streaming reader/writer pair — and every
//! malformed byte sequence decodes to the *specific* typed [`DecodeError`]
//! it should, never a panic or an allocation proportional to a corrupt
//! length field.

use std::io::Cursor;
use std::sync::Arc;

use proptest::prelude::*;
use sparse_substrate::{MaskBits, SparseVec};
use spmspv::engine::EngineError;
use spmspv::net::{
    decode_frame, encode_frame, encode_frontier, read_frame, write_frame, DecodeError, Frame,
    WireError, WireFrontier, WireScalar, DEFAULT_MAX_FRAME, HEADER_LEN, MAGIC, VERSION,
};
use spmspv::shard::transport::WireRequest;
use spmspv::MaskMode;

/// Round-trips `frame` through the buffer codec *and* the streaming codec,
/// asserting byte counts agree and both decoded frames equal the original.
fn assert_round_trip<X, Y>(frame: &Frame<X, Y>) -> Result<(), TestCaseError>
where
    X: WireScalar + PartialEq + std::fmt::Debug,
    Y: WireScalar + PartialEq + std::fmt::Debug,
{
    let mut buf = Vec::new();
    let encoded = encode_frame(frame, &mut buf, DEFAULT_MAX_FRAME).expect("frame fits the limit");
    prop_assert_eq!(encoded, buf.len());
    prop_assert_eq!(&buf[..4], &MAGIC);
    prop_assert_eq!(buf[4], VERSION);

    let (decoded, consumed) = decode_frame::<X, Y>(&buf, DEFAULT_MAX_FRAME).expect("decodes");
    prop_assert_eq!(consumed, buf.len());
    prop_assert_eq!(&decoded, frame);

    let mut stream = Vec::new();
    let written = write_frame(&mut stream, frame, DEFAULT_MAX_FRAME).expect("writes");
    prop_assert_eq!(written, buf.len());
    let mut cursor = Cursor::new(stream);
    let (streamed, read) = read_frame::<X, Y, _>(&mut cursor, DEFAULT_MAX_FRAME)
        .expect("reads")
        .expect("one frame present");
    prop_assert_eq!(read, buf.len());
    prop_assert_eq!(&streamed, frame);
    // Clean end-of-stream after the frame, not an error.
    prop_assert!(matches!(read_frame::<X, Y, _>(&mut cursor, DEFAULT_MAX_FRAME), Ok(None)));
    Ok(())
}

/// One generated frontier, scalar-agnostic: entry values are small
/// integers so the same draw materializes exactly as `f64` and as `usize`.
#[derive(Debug, Clone)]
struct GenFrontier {
    n: usize,
    entries: Vec<(usize, usize)>,
    request: u64,
    shard: usize,
    deadline_micros: Option<u64>,
    mask: Option<(Vec<usize>, MaskMode)>,
    pulled: bool,
}

impl GenFrontier {
    fn frame<X: WireScalar>(&self, value: impl Fn(usize) -> X) -> Frame<X, X> {
        let pairs: Vec<(usize, X)> = self.entries.iter().map(|&(i, v)| (i, value(v))).collect();
        Frame::Frontier(WireFrontier {
            request: self.request,
            shard: self.shard,
            slice: SparseVec::from_pairs(self.n, pairs).expect("unique in-range indices"),
            deadline_micros: self.deadline_micros,
            mask: self.mask.as_ref().map(|(rows, mode)| {
                (Arc::new(MaskBits::from_indices(self.n, rows.iter().copied())), *mode)
            }),
            pulled: self.pulled,
        })
    }
}

fn frontier_strategy() -> impl Strategy<Value = GenFrontier> {
    (1usize..200).prop_flat_map(|n| {
        let entries = proptest::collection::btree_map(0..n, 0usize..1000, 0..n.min(24));
        let ids = (0u64..1_000_000, 0usize..512);
        let deadline = prop_oneof![Just(None), (0u64..5_000_000).prop_map(Some)];
        let mask = prop_oneof![
            Just(None),
            (proptest::collection::btree_map(0..n, 0usize..2, 0..n), any::<bool>()).prop_map(
                |(rows, keep)| {
                    let mode = if keep { MaskMode::Keep } else { MaskMode::Complement };
                    Some((rows.into_keys().collect::<Vec<usize>>(), mode))
                }
            ),
        ];
        (Just(n), entries, ids, (deadline, mask, any::<bool>())).prop_map(
            |(n, entries, (request, shard), (deadline_micros, mask, pulled))| GenFrontier {
                n,
                entries: entries.into_iter().collect(),
                request,
                shard,
                deadline_micros,
                mask,
                pulled,
            },
        )
    })
}

/// `encode_frontier` writes from a routed sub-request exactly the bytes
/// `encode_frame` writes for the same `Frontier` frame, pushed or pulled,
/// and they decode back to it.
fn assert_borrowed_encoding<X>(frame: &Frame<X, X>) -> Result<(), TestCaseError>
where
    X: WireScalar + PartialEq + std::fmt::Debug,
{
    let Frame::Frontier(w) = frame else { unreachable!("a Frontier frame") };
    let mut framed = Vec::new();
    encode_frame(frame, &mut framed, DEFAULT_MAX_FRAME).expect("frame fits the limit");
    let mut borrowed = Vec::new();
    let routed = WireRequest {
        request: w.request,
        slice: w.slice.clone(),
        deadline: None,
        mask: w.mask.clone(),
        pulled: w.pulled,
    };
    let n = encode_frontier(&routed, w.shard, w.deadline_micros, &mut borrowed, DEFAULT_MAX_FRAME)
        .expect("frame fits the limit");
    prop_assert_eq!(n, borrowed.len());
    prop_assert_eq!(&borrowed, &framed);
    let (decoded, consumed) = decode_frame::<X, X>(&borrowed, DEFAULT_MAX_FRAME).expect("decodes");
    prop_assert_eq!(consumed, borrowed.len());
    prop_assert_eq!(&decoded, frame);
    Ok(())
}

fn error_strategy() -> impl Strategy<Value = EngineError> {
    prop_oneof![
        Just(EngineError::Cancelled),
        Just(EngineError::DeadlineExceeded),
        Just(EngineError::Overloaded),
        (0usize..4, 0usize..64).prop_map(|(pick, len)| {
            // Exercise empty, ASCII, and multi-byte UTF-8 messages.
            let seed =
                ["", "shard 3: engine exploded", "µs-präzise Frist überschritten", "時限"][pick];
            EngineError::KernelFailed(seed.chars().cycle().take(len).collect())
        }),
        Just(EngineError::Disconnected),
        Just(EngineError::WaitTimeout),
        Just(EngineError::AlreadyTaken),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Frontiers — every sidecar combination — round-trip bitwise over
    /// both semiring scalar types.
    #[test]
    fn frontier_round_trips_over_both_scalars(g in frontier_strategy()) {
        assert_round_trip(&g.frame::<f64>(|v| v as f64 * 0.5 - 17.25))?;
        assert_round_trip(&g.frame::<usize>(|v| v * 3 + 1))?;
    }

    /// A frontier encoded from borrowed parts is the same bytes as the
    /// owned frame, over both scalar types and every sidecar combination.
    #[test]
    fn borrowed_frontier_encoding_matches_encode_frame(g in frontier_strategy()) {
        assert_borrowed_encoding(&g.frame::<f64>(|v| v as f64 * 0.5 - 17.25))?;
        assert_borrowed_encoding(&g.frame::<usize>(|v| v * 3 + 1))?;
    }

    /// Partials round-trip over both scalar types.
    #[test]
    fn partial_round_trips_over_both_scalars(g in frontier_strategy()) {
        if let Frame::Frontier(w) = g.frame::<f64>(|v| -(v as f64) / 3.0) {
            assert_round_trip::<f64, f64>(
                &Frame::Partial { request: w.request, shard: w.shard, partial: w.slice },
            )?;
        }
        if let Frame::Frontier(w) = g.frame::<usize>(|v| v) {
            assert_round_trip::<usize, usize>(
                &Frame::Partial { request: w.request, shard: w.shard, partial: w.slice },
            )?;
        }
    }

    /// Every error variant — including multi-byte UTF-8 `KernelFailed`
    /// messages — survives the wire.
    #[test]
    fn errors_and_control_frames_round_trip(
        error in error_strategy(),
        (request, shard) in (0u64..1_000_000, 0usize..512),
        (lanes, requests, micros) in (0u64..100_000, 0u64..10_000, 0u64..60_000_000),
    ) {
        assert_round_trip::<f64, f64>(&Frame::Error { request, shard, error: error.clone() })?;
        assert_round_trip::<usize, usize>(&Frame::Error { request, shard, error })?;
        assert_round_trip::<f64, f64>(&Frame::Flush)?;
        assert_round_trip::<usize, usize>(&Frame::Goodbye)?;
        assert_round_trip::<f64, f64>(
            &Frame::Done { shard, lanes, requests, execute_micros: micros },
        )?;
    }

    /// A byte stream of several frames reads back in order through the
    /// streaming decoder, ending with a clean `Ok(None)`.
    #[test]
    fn frame_sequences_stream_back_in_order(
        frontiers in proptest::collection::vec(frontier_strategy(), 1..5),
    ) {
        let frames: Vec<Frame<f64, f64>> = frontiers
            .iter()
            .map(|g| g.frame::<f64>(|v| v as f64))
            .chain([Frame::Flush, Frame::Goodbye])
            .collect();
        let mut stream = Vec::new();
        for frame in &frames {
            write_frame(&mut stream, frame, DEFAULT_MAX_FRAME).expect("writes");
        }
        let mut cursor = Cursor::new(stream);
        for frame in &frames {
            let (got, _) = read_frame::<f64, f64, _>(&mut cursor, DEFAULT_MAX_FRAME)
                .expect("reads")
                .expect("frame present");
            prop_assert_eq!(&got, frame);
        }
        prop_assert!(matches!(read_frame::<f64, f64, _>(&mut cursor, DEFAULT_MAX_FRAME), Ok(None)));
    }

    /// Truncating a valid frame at *any* byte boundary decodes to
    /// `Truncated` (or `Ok(None)` at exactly zero bytes for the streaming
    /// reader) — never a panic, never a partial frame.
    #[test]
    fn every_truncation_is_typed(g in frontier_strategy(), cut in 0.0f64..1.0) {
        let frame = g.frame::<f64>(|v| v as f64);
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf, DEFAULT_MAX_FRAME).expect("encodes");
        let cut = ((buf.len() - 1) as f64 * cut) as usize;
        prop_assert_eq!(
            decode_frame::<f64, f64>(&buf[..cut], DEFAULT_MAX_FRAME).unwrap_err(),
            DecodeError::Truncated
        );
        let mut cursor = Cursor::new(&buf[..cut]);
        match read_frame::<f64, f64, _>(&mut cursor, DEFAULT_MAX_FRAME) {
            Ok(None) => prop_assert_eq!(cut, 0, "Ok(None) only at a clean frame boundary"),
            Err(WireError::Decode(DecodeError::Truncated)) => prop_assert!(cut > 0),
            other => return Err(TestCaseError::fail(format!("unexpected: {other:?}"))),
        }
    }
}

/// Encodes one minimal frontier (`dim 4`, one entry, no sidecars) for the
/// byte-surgery tests below. The payload layout is pinned by the protocol:
/// `request u64 | shard u32 | scalar tag u8 | dim u64 | nnz u64 | indices |
/// values | deadline flag | mask flag`.
fn tiny_frontier_bytes() -> Vec<u8> {
    let frame: Frame<f64, f64> = Frame::Frontier(WireFrontier {
        request: 7,
        shard: 2,
        slice: SparseVec::from_pairs(4, vec![(2, 1.5)]).unwrap(),
        deadline_micros: None,
        mask: None,
        pulled: false,
    });
    let mut buf = Vec::new();
    encode_frame(&frame, &mut buf, DEFAULT_MAX_FRAME).unwrap();
    buf
}

fn decode_err(buf: &[u8]) -> DecodeError {
    decode_frame::<f64, f64>(buf, DEFAULT_MAX_FRAME).unwrap_err()
}

#[test]
fn adversarial_header_faults_are_typed() {
    let good = tiny_frontier_bytes();

    // Wrong magic.
    let mut buf = good.clone();
    buf[..4].copy_from_slice(b"HTTP");
    assert_eq!(decode_err(&buf), DecodeError::BadMagic(*b"HTTP"));

    // Future protocol version.
    let mut buf = good.clone();
    buf[4] = VERSION + 1;
    assert_eq!(decode_err(&buf), DecodeError::BadVersion(VERSION + 1));

    // The version before `Pulled` frames existed: a v3 peer is refused
    // outright, not misread.
    let mut buf = good.clone();
    buf[4] = 3;
    assert_eq!(decode_err(&buf), DecodeError::BadVersion(3));

    // Unknown frame tag.
    let mut buf = good.clone();
    buf[5] = 99;
    assert_eq!(decode_err(&buf), DecodeError::BadTag(99));

    // Declared payload larger than the limit: rejected from the header
    // alone, before any payload is buffered.
    let mut buf = good.clone();
    buf[6..HEADER_LEN].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        decode_err(&buf),
        DecodeError::Oversize { len: u32::MAX as usize, limit: DEFAULT_MAX_FRAME }
    );
    let mut cursor = Cursor::new(&buf);
    assert!(matches!(
        read_frame::<f64, f64, _>(&mut cursor, DEFAULT_MAX_FRAME),
        Err(WireError::Decode(DecodeError::Oversize { .. }))
    ));

    // The same header faults surface identically from the streaming reader.
    let mut buf = good.clone();
    buf[..4].copy_from_slice(b"NOPE");
    let mut cursor = Cursor::new(&buf);
    assert!(matches!(
        read_frame::<f64, f64, _>(&mut cursor, DEFAULT_MAX_FRAME),
        Err(WireError::Decode(DecodeError::BadMagic(_)))
    ));
}

#[test]
fn scalar_mismatch_is_loud_in_both_directions() {
    // A frontier of f64 read by a host compiled for usize frontiers.
    let buf = tiny_frontier_bytes();
    assert_eq!(
        decode_frame::<usize, usize>(&buf, DEFAULT_MAX_FRAME).unwrap_err(),
        DecodeError::ScalarMismatch {
            expected: <usize as WireScalar>::TAG,
            got: <f64 as WireScalar>::TAG
        }
    );

    // A partial of usize read by a router expecting f64 partials.
    let partial: Frame<usize, usize> = Frame::Partial {
        request: 1,
        shard: 0,
        partial: SparseVec::from_pairs(3, vec![(0, 9usize)]).unwrap(),
    };
    let mut buf = Vec::new();
    encode_frame(&partial, &mut buf, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!(
        decode_frame::<f64, f64>(&buf, DEFAULT_MAX_FRAME).unwrap_err(),
        DecodeError::ScalarMismatch {
            expected: <f64 as WireScalar>::TAG,
            got: <usize as WireScalar>::TAG
        }
    );
}

#[test]
fn corrupt_payloads_are_typed_not_panics() {
    // Payload byte offsets for the tiny frontier (one entry, no sidecars):
    // request 0..8 | shard 8..12 | tag 12 | dim 13..21 | nnz 21..29 |
    // index 29..37 | value 37..45 | deadline flag 45 | mask flag 46.
    let good = tiny_frontier_bytes();
    let p = HEADER_LEN;
    assert_eq!(good.len(), p + 47, "the payload ends at the mask flag");

    // Out-of-range sparse index.
    let mut buf = good.clone();
    buf[p + 29..p + 37].copy_from_slice(&100u64.to_le_bytes());
    assert_eq!(decode_err(&buf), DecodeError::Corrupt("vector index out of range"));

    // Unknown deadline flag / mask flag.
    for (offset, want) in [(45, "unknown deadline flag"), (46, "unknown mask flag")] {
        let mut buf = good.clone();
        buf[p + offset] = 0xEE;
        assert_eq!(decode_err(&buf), DecodeError::Corrupt(want), "offset {offset}");
    }

    // An absurd nnz in a size-checked count field: rejected as Truncated
    // *before* any allocation is sized from it.
    let mut buf = good.clone();
    buf[p + 21..p + 29].copy_from_slice(&u64::MAX.to_le_bytes());
    assert_eq!(decode_err(&buf), DecodeError::Truncated);

    // Trailing garbage after a structurally complete payload.
    let mut buf = good.clone();
    buf.push(0xAB);
    let declared = u32::from_le_bytes(buf[6..HEADER_LEN].try_into().unwrap()) + 1;
    buf[6..HEADER_LEN].copy_from_slice(&declared.to_le_bytes());
    assert_eq!(decode_err(&buf), DecodeError::Corrupt("trailing bytes after payload"));

    // A mask whose tail word has bits beyond the declared length.
    let masked: Frame<f64, f64> = Frame::Frontier(WireFrontier {
        request: 1,
        shard: 0,
        slice: SparseVec::new(10),
        deadline_micros: None,
        mask: Some((Arc::new(MaskBits::from_indices(10, [3usize])), MaskMode::Keep)),
        pulled: false,
    });
    let mut buf = Vec::new();
    encode_frame(&masked, &mut buf, DEFAULT_MAX_FRAME).unwrap();
    // Empty slice ⇒ mask flag sits at payload offset 30; its single word
    // occupies the final 8 bytes.
    let word_at = buf.len() - 8;
    buf[word_at..word_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert_eq!(decode_err(&buf), DecodeError::Corrupt("inconsistent mask words"));

    // A KernelFailed message that is not UTF-8.
    let err: Frame<f64, f64> =
        Frame::Error { request: 1, shard: 0, error: EngineError::KernelFailed("ab".into()) };
    let mut buf = Vec::new();
    encode_frame(&err, &mut buf, DEFAULT_MAX_FRAME).unwrap();
    let msg_at = buf.len() - 2;
    buf[msg_at] = 0xFF;
    assert_eq!(decode_err(&buf), DecodeError::Corrupt("error message not UTF-8"));

    // An unknown error code.
    let mut buf2 = good.clone();
    buf2[5] = 3; // TAG_ERROR with a frontier-sized payload is nonsense, so
                 // build a real error frame instead and poke its code byte.
    let err: Frame<f64, f64> = Frame::Error { request: 1, shard: 0, error: EngineError::Cancelled };
    let mut buf = Vec::new();
    encode_frame(&err, &mut buf, DEFAULT_MAX_FRAME).unwrap();
    buf[p + 12] = 200;
    assert_eq!(decode_err(&buf), DecodeError::Corrupt("unknown error code"));
    let _ = buf2;
}

#[test]
fn empty_and_huge_frontiers_round_trip() {
    // Completely empty frontier on a dimension-1 vector.
    let empty: Frame<usize, usize> = Frame::Frontier(WireFrontier {
        request: 0,
        shard: 0,
        slice: SparseVec::new(1),
        deadline_micros: Some(0),
        mask: None,
        pulled: false,
    });
    assert_round_trip(&empty).unwrap();

    // A dense 100k-entry frontier with a full-height mask: well past any
    // small-buffer path, still bitwise.
    let n = 100_000;
    let pairs: Vec<(usize, f64)> = (0..n).map(|i| (i, (i as f64).sin() * 1e9 + 0.125)).collect();
    let huge: Frame<f64, f64> = Frame::Frontier(WireFrontier {
        request: u64::MAX,
        shard: 4_000_000,
        slice: SparseVec::from_pairs(n, pairs).unwrap(),
        deadline_micros: Some(u64::MAX),
        mask: Some((Arc::new(MaskBits::from_indices(n, (0..n).step_by(3))), MaskMode::Complement)),
        pulled: false,
    });
    assert_round_trip(&huge).unwrap();
}

/// A pulled sub-request travels as tag 11 with the `Frontier` payload, and
/// only the tag tells the two apart: flipping it flips `pulled` and nothing
/// else.
#[test]
fn pulled_frontiers_travel_under_their_own_tag() {
    let n = 130;
    let pulled: Frame<usize, usize> = Frame::Frontier(WireFrontier {
        request: 9,
        shard: 1,
        slice: SparseVec::from_pairs(n, vec![(0, 0), (64, 64), (129, 129)]).unwrap(),
        deadline_micros: Some(250),
        mask: Some((Arc::new(MaskBits::from_indices(70, [0, 63, 64, 69])), MaskMode::Complement)),
        pulled: true,
    });
    assert_round_trip(&pulled).unwrap();
    let mut buf = Vec::new();
    encode_frame(&pulled, &mut buf, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!(buf[5], 11);
    buf[5] = 1;
    let (pushed, _) = decode_frame::<usize, usize>(&buf, DEFAULT_MAX_FRAME).unwrap();
    let Frame::Frontier(mut pushed) = pushed else { panic!("a Frontier frame") };
    assert!(!pushed.pulled);
    pushed.pulled = true;
    assert_eq!(Frame::Frontier(pushed), pulled);
}

#[test]
fn encoder_enforces_the_frame_limit_and_restores_the_buffer() {
    let frame: Frame<f64, f64> = Frame::Frontier(WireFrontier {
        request: 1,
        shard: 0,
        slice: SparseVec::from_pairs(64, (0..64).map(|i| (i, i as f64)).collect()).unwrap(),
        deadline_micros: None,
        mask: None,
        pulled: false,
    });
    let mut buf = b"prefix".to_vec();
    let err = encode_frame(&frame, &mut buf, 16).unwrap_err();
    assert!(matches!(err, DecodeError::Oversize { limit: 16, .. }));
    // The failed encode left no partial frame behind the caller's back.
    assert_eq!(buf, b"prefix");

    // The same frame encodes fine under the default limit, and a decoder
    // configured *smaller* then rejects it from the header.
    let mut buf = Vec::new();
    encode_frame(&frame, &mut buf, DEFAULT_MAX_FRAME).unwrap();
    assert!(matches!(
        decode_frame::<f64, f64>(&buf, 16).unwrap_err(),
        DecodeError::Oversize { limit: 16, .. }
    ));
}

// ---------------------------------------------------------------------------
// Version 2: discovery / health frames; the vector index invariant.
// ---------------------------------------------------------------------------

/// The v2 handshake and heartbeat frames round-trip bit-identically over
/// both scalar types (they carry no scalars, but the codec is generic).
#[test]
fn discovery_and_health_frames_round_trip() {
    assert_round_trip::<f64, f64>(&Frame::Hello).unwrap();
    assert_round_trip::<usize, usize>(&Frame::Hello).unwrap();
    for (shard, col_start, col_end, nrows, fingerprint) in [
        (0usize, 0usize, 0usize, 0usize, 0u64),
        (3, 17, 4096, 100_000, 0xdead_beef_cafe_f00d),
        (511, usize::MAX / 2, usize::MAX / 2 + 1, usize::MAX / 4, u64::MAX),
    ] {
        let welcome: Frame<f64, f64> =
            Frame::Welcome { shard, col_start, col_end, nrows, fingerprint };
        assert_round_trip(&welcome).unwrap();
        let welcome: Frame<usize, usize> =
            Frame::Welcome { shard, col_start, col_end, nrows, fingerprint };
        assert_round_trip(&welcome).unwrap();
    }
    for nonce in [0u64, 42, u64::MAX] {
        assert_round_trip::<f64, f64>(&Frame::Ping { nonce }).unwrap();
        assert_round_trip::<usize, usize>(&Frame::Pong { nonce }).unwrap();
    }
}

/// A `Welcome` whose column range is inverted is corrupt, not a frame the
/// router has to reason about.
#[test]
fn inverted_welcome_range_is_corrupt() {
    let bad: Frame<f64, f64> =
        Frame::Welcome { shard: 0, col_start: 9, col_end: 3, nrows: 10, fingerprint: 1 };
    let mut buf = Vec::new();
    encode_frame(&bad, &mut buf, DEFAULT_MAX_FRAME).unwrap();
    assert!(matches!(decode_err(&buf), DecodeError::Corrupt(_)));
}

/// Byte-surgery: a `Partial` whose indices are non-monotone or duplicated
/// on the wire is rejected at decode time — a hostile host cannot smuggle
/// shuffled or repeated rows into the merge fold.
#[test]
fn non_monotone_partial_bytes_are_corrupt() {
    // Payload layout: request u64 | shard u32 | ytag u8 | len u64 | nnz u64
    // | indices u64×nnz | values — first index at HEADER_LEN + 29.
    let first_index = HEADER_LEN + 8 + 4 + 1 + 8 + 8;
    let sorted = SparseVec::from_pairs(8, vec![(1, 1.0), (3, 3.0), (5, 5.0)]).unwrap();
    let frame: Frame<f64, f64> = Frame::Partial { request: 9, shard: 1, partial: sorted };
    let mut good = Vec::new();
    encode_frame(&frame, &mut good, DEFAULT_MAX_FRAME).unwrap();
    assert!(decode_frame::<f64, f64>(&good, DEFAULT_MAX_FRAME).is_ok());

    // Swap the first two index words: 3, 1, 5 — descending start.
    let mut swapped = good.clone();
    swapped[first_index..first_index + 8].copy_from_slice(&3u64.to_le_bytes());
    swapped[first_index + 8..first_index + 16].copy_from_slice(&1u64.to_le_bytes());
    assert_eq!(
        decode_err(&swapped),
        DecodeError::Corrupt("vector indices not strictly increasing")
    );

    // Duplicate an index: 1, 1, 5 — monotone requires *strictly* increasing.
    let mut duped = good.clone();
    duped[first_index + 8..first_index + 16].copy_from_slice(&1u64.to_le_bytes());
    assert_eq!(decode_err(&duped), DecodeError::Corrupt("vector indices not strictly increasing"));

    // And the byzantine host's signature move: an index past the vector's
    // length is out of range, not merged.
    let mut oversize = good;
    oversize[first_index + 16..first_index + 24].copy_from_slice(&u64::MAX.to_le_bytes());
    assert_eq!(decode_err(&oversize), DecodeError::Corrupt("vector index out of range"));
}

/// Byte-surgery on a `Frontier`: a slice that repeats or reorders an index
/// is corrupt too. A host fed a repeated column would multiply it twice and
/// return a silently wrong partial.
#[test]
fn non_monotone_frontier_bytes_are_corrupt() {
    // Payload layout: request u64 | shard u32 | xtag u8 | len u64 | nnz u64
    // | indices u64×nnz | values | flags — first index at HEADER_LEN + 29.
    let first_index = HEADER_LEN + 8 + 4 + 1 + 8 + 8;
    let slice = SparseVec::from_pairs(8, vec![(1, 1.0), (3, 3.0), (5, 5.0)]).unwrap();
    let frame: Frame<f64, f64> = Frame::Frontier(WireFrontier {
        request: 4,
        shard: 0,
        slice,
        deadline_micros: None,
        mask: None,
        pulled: false,
    });
    let mut good = Vec::new();
    encode_frame(&frame, &mut good, DEFAULT_MAX_FRAME).unwrap();
    assert!(decode_frame::<f64, f64>(&good, DEFAULT_MAX_FRAME).is_ok());

    // Duplicate an index: 1, 1, 5.
    let mut duped = good.clone();
    duped[first_index + 8..first_index + 16].copy_from_slice(&1u64.to_le_bytes());
    assert_eq!(decode_err(&duped), DecodeError::Corrupt("vector indices not strictly increasing"));

    // Descend: 1, 3, 2.
    let mut descending = good;
    descending[first_index + 16..first_index + 24].copy_from_slice(&2u64.to_le_bytes());
    assert_eq!(
        decode_err(&descending),
        DecodeError::Corrupt("vector indices not strictly increasing")
    );
}
