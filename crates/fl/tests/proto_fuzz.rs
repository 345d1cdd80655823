//! Property tests: wire-frame decoding never panics. A `calibre-serve`
//! process reads frames from untrusted sockets — junk bytes, truncated
//! frames, and bit flips must all surface as typed [`WireError`]s, never
//! aborts or unbounded allocations. The socket path (`Msg::read_from`,
//! one frame buffer reused across every case, as each endpoint reuses
//! one) is held to the same properties as `Msg::decode`.
#![recursion_limit = "1024"]

use std::cell::RefCell;

use calibre_fl::proto::{frame_checksum, Msg, WireError, MAX_PAYLOAD_BYTES, PROTO_VERSION};
use proptest::prelude::*;

thread_local! {
    /// The frame buffer every `read_from` case below reuses.
    static BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Reads one frame from `bytes` through the socket path, reusing [`BUF`].
fn read_from(bytes: &[u8]) -> Result<Msg, WireError> {
    BUF.with(|buf| Msg::read_from(&mut std::io::Cursor::new(bytes), &mut buf.borrow_mut()))
}

/// Whether `read_from` agrees with `decode` on `bytes`: any message it
/// returns is the one `decode` returns (compared by re-encoding, so NaN
/// payloads compare bit-exactly).
fn socket_path_agrees(bytes: &[u8]) -> bool {
    match read_from(bytes) {
        Ok(msg) => Msg::decode(bytes).is_ok_and(|(d, _)| d.encode() == msg.encode()),
        Err(_) => true,
    }
}

/// An `Assign` frame of at least 4 096 elements.
fn big_assign() -> impl Strategy<Value = Vec<u8>> {
    (
        0u32..1000,
        0u32..64,
        prop::collection::vec(any::<f32>(), 4096..4200),
    )
        .prop_map(|(round, slot, model)| {
            Msg::Assign {
                round,
                slot,
                attempt: 0,
                model,
            }
            .encode()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Arbitrary byte soup: decode returns a typed error or a valid
    // message — it must never panic, and never allocate anywhere near the
    // claimed length of a lying header.
    #[test]
    fn decode_never_panics_on_junk(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Msg::decode(&bytes);
        prop_assert!(socket_path_agrees(&bytes));
    }

    // Byte soup that *starts like a real frame* (good version byte, valid
    // tag) exercises the deeper payload parsing paths.
    #[test]
    fn decode_never_panics_on_framed_junk(
        tag in 1u8..=6,
        body in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let mut bytes = vec![PROTO_VERSION, tag];
        let len = (body.len() as u32).to_le_bytes();
        bytes.extend_from_slice(&len);
        bytes.extend_from_slice(&body);
        let _ = Msg::decode(&bytes);
        prop_assert!(socket_path_agrees(&bytes));
    }

    // Every strict prefix of a valid frame is a typed `Truncated`/`Io`
    // error — the failure mode of a torn read or a dropped connection.
    #[test]
    fn every_truncation_of_a_valid_frame_is_a_typed_error(
        round in 0u32..1000,
        slot in 0u32..64,
        model in prop::collection::vec(any::<f32>(), 0..32),
        keep in 0usize..400,
    ) {
        let frame = Msg::Assign { round, slot, attempt: 0, model }.encode();
        let keep = keep % frame.len(); // always a strict prefix
        for got in [Msg::decode(&frame[..keep]).map(|(m, _)| m), read_from(&frame[..keep])] {
            match got {
                Err(WireError::Truncated { .. } | WireError::Io(_)) => {}
                Err(other) => prop_assert!(false, "unexpected error kind: {other}"),
                Ok(_) => prop_assert!(false, "prefix decoded as a full frame"),
            }
        }
    }

    // Flipping any byte of a valid frame is detected: the checksum (or an
    // earlier structural check) rejects it. A flip inside the length field
    // may also read as truncation — but never as silent acceptance of
    // different bytes.
    #[test]
    fn single_byte_corruption_is_always_detected(
        client in 0u64..1000,
        weight in -10.0f32..10.0,
        update in prop::collection::vec(-1.0f32..1.0, 1..16),
        flip_at in 0usize..10_000,
        flip_bit in 0u8..8,
    ) {
        let original = Msg::Update { round: 3, slot: 1, client, weight, loss: 0.5, update };
        let mut bytes = original.encode();
        let at = flip_at % bytes.len();
        bytes[at] ^= 1 << flip_bit;
        // Err is the expected outcome (typed rejection); an Ok decode is
        // only acceptable when the flip was somehow a no-op semantically.
        let decoded = [Msg::decode(&bytes).map(|(m, _)| m), read_from(&bytes)];
        for got in decoded.into_iter().flatten() {
            prop_assert!(
                got == original,
                "corrupted frame decoded as different message"
            );
        }
    }

    // A header claiming an oversized payload is rejected up front, without
    // waiting for (or allocating) the claimed bytes.
    #[test]
    fn oversize_claims_are_rejected_before_allocation(extra in 1u32..1_000_000) {
        let len = MAX_PAYLOAD_BYTES.saturating_add(extra);
        let mut bytes = vec![PROTO_VERSION, 3];
        bytes.extend_from_slice(&len.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 32]);
        prop_assert!(matches!(Msg::decode(&bytes), Err(WireError::Oversize(_))));
        prop_assert!(matches!(read_from(&bytes), Err(WireError::Oversize(_))));
    }

    // Well-formed messages always round-trip bit-exactly, including
    // non-finite floats.
    #[test]
    fn roundtrip_is_bit_exact(
        round in 0u32..10_000,
        slot in 0u32..10_000,
        client in any::<u64>(),
        weight in any::<f32>(),
        loss in any::<f32>(),
        update in prop::collection::vec(any::<f32>(), 0..64),
    ) {
        let msg = Msg::Update { round, slot, client, weight, loss, update };
        let bytes = msg.encode();
        let (decoded, consumed) = Msg::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(consumed, bytes.len());
        // Compare re-encodings, not messages: NaN payloads must round-trip
        // bit-exactly, and `f32::eq` would call NaN != NaN.
        prop_assert_eq!(decoded.encode(), bytes, "round trip changed the bytes");
        let read = read_from(&bytes).expect("own encoding reads back");
        prop_assert_eq!(read.encode(), bytes, "socket round trip changed the bytes");
    }
}

/// An `Assign` or `Update` frame carrying up to 300 floats.
fn vector_frame() -> impl Strategy<Value = Vec<u8>> {
    (
        any::<bool>(),
        0u32..1000,
        any::<u64>(),
        any::<f32>(),
        prop::collection::vec(any::<f32>(), 0..300),
    )
        .prop_map(|(assign, round, client, weight, floats)| {
            if assign {
                Msg::Assign {
                    round,
                    slot: 1,
                    attempt: 2,
                    model: floats,
                }
            } else {
                Msg::Update {
                    round,
                    slot: 1,
                    client,
                    weight,
                    loss: 0.25,
                    update: floats,
                }
            }
            .encode()
        })
}

/// `frame` intact (`how` 0), cut to a strict prefix (1), or with a nonzero
/// XOR confined to one aligned 8-byte word (2).
fn damaged(mut frame: Vec<u8>, how: u8, at: usize, mask: u64) -> Vec<u8> {
    match how {
        0 => frame,
        1 => {
            frame.truncate(at % frame.len());
            frame
        }
        _ => {
            let start = 8 * (at % frame.len().div_ceil(8));
            let mask = if mask == 0 { 1 } else { mask };
            for (b, m) in frame.iter_mut().skip(start).zip(mask.to_le_bytes()) {
                *b ^= m;
            }
            frame
        }
    }
}

/// Whether a reused-buffer decode returned exactly what a fresh one did:
/// the same message (compared by re-encoding, so NaN payloads compare
/// bit-exactly) or the same typed error.
fn same_outcome(reused: &Result<Msg, WireError>, fresh: &Result<Msg, WireError>) -> bool {
    match (reused, fresh) {
        (Ok(a), Ok(b)) => a.encode() == b.encode(),
        (Err(a), Err(b)) => format!("{a:?}") == format!("{b:?}"),
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Decoding into a buffer that holds junk of any length and spare
    // capacity returns exactly what a fresh decode returns (`read_into` as
    // `Msg::read_from`, `decode_into` as `Msg::decode`), and a decoded
    // vector that fits the buffer's capacity lives in its allocation.
    #[test]
    fn decoding_into_a_used_buffer_matches_a_fresh_read(
        frame in vector_frame(),
        how in 0u8..3,
        at in any::<usize>(),
        mask in any::<u64>(),
        junk in prop::collection::vec(any::<f32>(), 0..400),
        spare in 0usize..400,
    ) {
        let bytes = damaged(frame, how, at, mask);
        for socket in [true, false] {
            let mut floats = junk.clone();
            floats.reserve_exact(spare);
            let (at, capacity) = (floats.as_ptr(), floats.capacity());
            let (reused, fresh) = if socket {
                let fresh = Msg::read_from(&mut std::io::Cursor::new(&bytes), &mut Vec::new());
                let reused = BUF.with(|buf| {
                    let mut cursor = std::io::Cursor::new(&bytes);
                    Msg::read_into(&mut cursor, &mut buf.borrow_mut(), &mut floats)
                });
                (reused, fresh)
            } else {
                let decode = |r: Result<(Msg, usize), WireError>| r.map(|(msg, _)| msg);
                (decode(Msg::decode_into(&bytes, &mut floats)), decode(Msg::decode(&bytes)))
            };
            prop_assert!(same_outcome(&reused, &fresh), "{reused:?} vs {fresh:?}");
            if let Ok(Msg::Assign { model: v, .. } | Msg::Update { update: v, .. }) = &reused {
                if v.len() <= capacity {
                    prop_assert_eq!(v.as_ptr(), at, "the vector left the supplied buffer");
                }
                prop_assert_eq!(floats.capacity(), 0, "the message owns the buffer");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // One flipped bit anywhere in a large frame — header, payload or
    // checksum trailer — is rejected by both parsers.
    #[test]
    fn a_flipped_bit_in_a_large_frame_is_rejected(
        frame in big_assign(),
        region in 0u8..3,
        at in any::<usize>(),
        bit in 0u8..8,
    ) {
        // A third of the cases each hit the 6-byte header and the 8-byte
        // trailer, which uniform positions would almost never reach.
        let at = match region {
            0 => at % 6,
            1 => frame.len() - 8 + at % 8,
            _ => at % frame.len(),
        };
        let mut bad = frame;
        bad[at] ^= 1 << bit;
        prop_assert!(Msg::decode(&bad).is_err());
        prop_assert!(read_from(&bad).is_err());
    }

    // Any nonzero XOR confined to one aligned 8-byte word of
    // header ‖ payload is rejected by both parsers.
    #[test]
    fn a_change_confined_to_one_word_is_rejected(
        frame in big_assign(),
        region in 0u8..3,
        word in any::<usize>(),
        mask in any::<u64>(),
    ) {
        let body = frame.len() - 8;
        let words = body.div_ceil(8);
        // A third of the cases each hit the header's word and the partial
        // last word.
        let word = match region {
            0 => 0,
            1 => words - 1,
            _ => word % words,
        };
        let start = 8 * word;
        let end = (start + 8).min(body);
        // Keep the mask nonzero on the bytes the (possibly partial) word has.
        let width = 8 * (end - start) as u32;
        let mask = match mask & u64::MAX.checked_shr(64 - width).unwrap_or(0) {
            0 => 1,
            m => m,
        };
        let mut bad = frame.clone();
        for (b, m) in bad[start..end].iter_mut().zip(mask.to_le_bytes()) {
            *b ^= m;
        }
        prop_assert!(Msg::decode(&bad).is_err());
        prop_assert!(read_from(&bad).is_err());
        // The checksum alone catches the change: the trailer is untouched.
        prop_assert!(frame_checksum(&bad[..body]) != frame_checksum(&frame[..body]));
    }
}
