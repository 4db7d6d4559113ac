//! The boundary-exchange wire format: sequence-numbered, checksummed
//! messages of one or more cycles' values, plus the running per-link
//! hash the barrier crosschecks.
//!
//! Integrity is layered. The **checksum** on each message catches
//! payload corruption in flight immediately at the consumer. The
//! **sequence number** catches dropped, duplicated or reordered
//! messages, and the **value count** a message that does not hold
//! exactly `cycles × ports` values for its link. None catches a corruption that rewrites the checksum
//! to match (or a worker whose *state* silently diverged) — that is
//! what the per-link **running hashes** are for: producer and consumer
//! fold every message they send/receive into an FNV-1a accumulator,
//! and the coordinator crosschecks the two ends of every link at each
//! barrier. A mismatch means the two workers did not see the same
//! stream, and the frame rolls back to the last consistent snapshot.

use std::fmt;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds bytes into an FNV-1a accumulator.
#[must_use]
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The initial accumulator value for both checksums and link hashes.
#[must_use]
pub fn hash_seed() -> u64 {
    FNV_OFFSET
}

fn fold_values(mut hash: u64, seq: u64, cycle: u64, values: &[i64]) -> u64 {
    hash = fnv1a(hash, &seq.to_le_bytes());
    hash = fnv1a(hash, &cycle.to_le_bytes());
    for v in values {
        hash = fnv1a(hash, &v.to_le_bytes());
    }
    hash
}

/// One boundary-value message: the settled post-edge values of every
/// `__cut` port on one link, for one virtual cycle or, on a forward
/// link in thread mode, for a whole barrier batch of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundaryMsg {
    /// Per-link sequence number (0-based from worker spawn; the
    /// prologue exchange is seq 0).
    pub seq: u64,
    /// Virtual cycle the values belong to (the first of them, for a
    /// batch message).
    pub cycle: u64,
    /// Port values in the link's schedule order, one row of them per
    /// cycle.
    pub values: Vec<i64>,
    /// FNV-1a over `(seq, cycle, values)`.
    pub checksum: u64,
}

impl BoundaryMsg {
    /// Builds a message with a valid checksum.
    #[must_use]
    pub fn new(seq: u64, cycle: u64, values: Vec<i64>) -> BoundaryMsg {
        let checksum = fold_values(hash_seed(), seq, cycle, &values);
        BoundaryMsg { seq, cycle, values, checksum }
    }

    /// Checks the sequence number and the value count (`cycles ×
    /// ports` of the link), then recomputes and compares the checksum.
    ///
    /// # Errors
    ///
    /// Returns [`LinkFault::Sequence`], [`LinkFault::Length`] or
    /// [`LinkFault::Checksum`] on the first mismatch.
    pub fn verify(&self, expected_seq: u64, expected_len: usize) -> Result<(), LinkFault> {
        if self.seq != expected_seq {
            return Err(LinkFault::Sequence { expected: expected_seq, got: self.seq });
        }
        if self.values.len() != expected_len {
            return Err(LinkFault::Length {
                seq: self.seq,
                expected: expected_len,
                got: self.values.len(),
            });
        }
        let fresh = fold_values(hash_seed(), self.seq, self.cycle, &self.values);
        if fresh != self.checksum {
            return Err(LinkFault::Checksum { seq: self.seq });
        }
        Ok(())
    }

    /// Folds this message into a per-link running hash (used
    /// identically by sender and receiver, so the barrier can
    /// crosscheck the two ends).
    #[must_use]
    pub fn fold_into(&self, hash: u64) -> u64 {
        fold_values(hash, self.seq, self.cycle, &self.values)
    }
}

/// What went wrong on one link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFault {
    /// Payload does not match its checksum.
    Checksum {
        /// Sequence number of the corrupt message.
        seq: u64,
    },
    /// A message arrived out of order (dropped or duplicated).
    Sequence {
        /// The sequence number the consumer expected.
        expected: u64,
        /// The one that arrived.
        got: u64,
    },
    /// A message carries the wrong number of values for its link and
    /// batch.
    Length {
        /// Sequence number of the malformed message.
        seq: u64,
        /// Values the consumer expected (`cycles × ports`).
        expected: usize,
        /// Values that arrived.
        got: usize,
    },
    /// The producer's channel disconnected (worker crashed).
    Disconnected,
    /// No message within the watchdog window (worker straggling).
    Timeout,
}

impl fmt::Display for LinkFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkFault::Checksum { seq } => write!(f, "checksum mismatch at seq {seq}"),
            LinkFault::Sequence { expected, got } => {
                write!(f, "sequence gap: expected {expected}, got {got}")
            }
            LinkFault::Length { seq, expected, got } => {
                write!(f, "seq {seq} carries {got} values, expected {expected}")
            }
            LinkFault::Disconnected => write!(f, "producer disconnected"),
            LinkFault::Timeout => write!(f, "watchdog timeout"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_round_trips() {
        let msg = BoundaryMsg::new(7, 42, vec![-5, 0, 1 << 40]);
        assert_eq!(msg.verify(7, 3), Ok(()));
    }

    #[test]
    fn payload_corruption_is_detected() {
        let mut msg = BoundaryMsg::new(0, 0, vec![1, 2, 3]);
        msg.values[1] ^= 1;
        assert_eq!(msg.verify(0, 3), Err(LinkFault::Checksum { seq: 0 }));
    }

    #[test]
    fn sequence_gap_is_detected() {
        let msg = BoundaryMsg::new(5, 9, vec![0]);
        assert_eq!(msg.verify(4, 1), Err(LinkFault::Sequence { expected: 4, got: 5 }));
    }

    #[test]
    fn stealth_corruption_diverges_the_link_hashes() {
        // A corruption that rewrites the checksum passes verify() but
        // cannot make the producer's and consumer's running hashes
        // agree.
        let sent = BoundaryMsg::new(0, 0, vec![10, 20]);
        let received = BoundaryMsg::new(0, 0, vec![10, 21]);
        assert_eq!(received.verify(0, 2), Ok(()));
        assert_ne!(sent.fold_into(hash_seed()), received.fold_into(hash_seed()));
    }
}
