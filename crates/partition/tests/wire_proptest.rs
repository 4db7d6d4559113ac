//! Frame-codec properties, randomized.
//!
//! The deterministic suite in `wire::tests` proves exhaustively — for a
//! fixed sample of frames — that every single-byte corruption and every
//! truncation is rejected. These properties extend the same claims to
//! randomized [`Frame::Boundary`] payloads: round-trip identity, and
//! rejection of any nonzero single-byte XOR, any truncation, and any
//! trailing garbage. The process supervisor trusts these properties
//! when it treats a decoded frame as authentic. A frame that decodes
//! cleanly but holds the wrong number of values for its batch is still
//! refused, as a typed [`LinkFault::Length`].

use dwt_partition::{BoundaryMsg, Frame, LinkFault};
use proptest::prelude::*;

fn boundary(generation: u64, link: u32, seq: u64, cycle: u64, values: Vec<i64>) -> Frame {
    Frame::Boundary { generation, link, msg: BoundaryMsg::new(seq, cycle, values) }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn boundary_frames_round_trip(
        generation in any::<u64>(),
        link in 0u32..1024,
        seq in any::<u64>(),
        cycle in any::<u64>(),
        values in prop::collection::vec(any::<i64>(), 0..32),
    ) {
        let frame = boundary(generation, link, seq, cycle, values);
        let decoded = Frame::decode(&frame.encode()).expect("clean bytes decode");
        prop_assert_eq!(decoded, frame);
    }

    #[test]
    fn any_single_byte_corruption_is_rejected(
        seq in any::<u64>(),
        values in prop::collection::vec(any::<i64>(), 1..16),
        pos_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let mut bytes = boundary(9, 2, seq, seq ^ 0x55, values).encode();
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= flip;
        prop_assert!(Frame::decode(&bytes).is_err(), "flip {flip:#x} at {pos} accepted");
    }

    #[test]
    fn any_truncation_or_trailing_garbage_is_rejected(
        seq in any::<u64>(),
        values in prop::collection::vec(any::<i64>(), 0..16),
        cut_seed in any::<u64>(),
        trailing in any::<u8>(),
    ) {
        let bytes = boundary(1, 0, seq, seq, values).encode();
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(Frame::decode(&bytes[..cut]).is_err(), "truncation to {cut} accepted");
        let mut long = bytes.clone();
        long.push(trailing);
        prop_assert!(Frame::decode(&long).is_err(), "trailing byte accepted");
    }

    #[test]
    fn a_wrong_value_count_is_a_typed_length_fault(
        seq in any::<u64>(),
        cycles in 1usize..64,
        ports in 1usize..8,
        skew in prop_oneof![-64i64..0, 1i64..64],
    ) {
        // `skew` is never 0 and `expected` never 0, so `got` differs.
        let expected = cycles * ports;
        let got = (expected as i64 + skew).max(0) as usize;
        let frame = boundary(0, 0, seq, 32, vec![7; got]);
        let Frame::Boundary { msg, .. } = Frame::decode(&frame.encode()).expect("decodes") else {
            unreachable!("a boundary frame decodes as one");
        };
        prop_assert_eq!(msg.verify(seq, expected), Err(LinkFault::Length { seq, expected, got }));
        let exact = BoundaryMsg::new(seq, 32, vec![7; expected]);
        prop_assert_eq!(exact.verify(seq, expected), Ok(()));
    }
}
