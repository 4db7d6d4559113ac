//! The self-describing byte protocol between the partition coordinator
//! and its shard workers.
//!
//! Worker threads take typed commands over `mpsc` channels; a worker
//! process cannot — it is a separate address space on the far side of
//! a Unix socket, possibly running a different build if an operator
//! mixes binaries. Every message to or from a process, and every
//! boundary value in either isolation, therefore travels as a
//! **frame** with a self-describing envelope:
//!
//! ```text
//! magic "DWTP" (4) | version (1) | frame type (1) | payload len (4, LE)
//! payload (len bytes)
//! FNV-1a checksum (8, LE) over every preceding byte
//! ```
//!
//! The checksum covers the header *and* payload, so any single-byte
//! substitution anywhere in the frame fails verification (FNV-1a
//! guarantees a one-byte change alters the hash); truncation is caught
//! by the explicit length prefix. Decoding is strict and total: a
//! malformed frame yields [`PartitionError::Protocol`], never a panic
//! — the coordinator treats a worker that sends garbage exactly like a
//! worker that crashed.
//!
//! The same codec carries the data plane ([`Frame::Boundary`] wrapping
//! a [`BoundaryMsg`]) and the control plane (hello, batch, heartbeat,
//! barrier report, rollback, fault, shutdown). Thread mode round-trips
//! boundary messages through these bytes too, so every differential
//! test exercises the wire format.
//!
//! Frames after a rollback carry a **generation** counter: the
//! coordinator bumps it on every rollback, and both ends drop frames
//! from older generations, so a stale in-flight boundary value can
//! never be mistaken for its replayed successor.

use std::time::Duration;

use dwt_rtl::bytes::{fnv1a, hash_seed, ByteReader, ByteWriter};
use dwt_rtl::fault::FaultSpec;
use dwt_rtl::{Error as RtlError, Result as RtlResult};

use crate::channel::BoundaryMsg;
use crate::error::PartitionError;
use crate::runner::{Batch, BatchReport, DetectionKind};

/// Frame preamble: protocol magic.
pub const MAGIC: [u8; 4] = *b"DWTP";
/// Wire protocol version; bump on any frame/payload layout change.
pub const VERSION: u8 = 2;
/// Bytes in the fixed header (magic + version + type + payload len).
pub const HEADER_LEN: usize = 10;
/// Bytes in the trailing checksum.
pub const CHECKSUM_LEN: usize = 8;
/// Hard ceiling on a frame payload (engine snapshots dominate; even a
/// large shard's snapshot is far below this).
pub const MAX_PAYLOAD: usize = 1 << 26;

const FRAME_HELLO: u8 = 1;
const FRAME_BATCH: u8 = 2;
const FRAME_BOUNDARY: u8 = 3;
const FRAME_HEARTBEAT: u8 = 4;
const FRAME_BARRIER_REPORT: u8 = 5;
const FRAME_ROLLBACK: u8 = 6;
const FRAME_FAULT: u8 = 7;
const FRAME_SHUTDOWN: u8 = 8;

/// One protocol message, either direction.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Worker → coordinator, once per connection: identity plus the
    /// FNV fingerprint of the cut it rebuilt, so a worker launched
    /// against the wrong design/part-count is rejected at admission.
    Hello {
        /// Shard index.
        worker: u32,
        /// [`cut_fingerprint`](crate::cut::PartitionedNetlist::fingerprint)
        /// of the worker's partition.
        fingerprint: u64,
    },
    /// Coordinator → worker: run one barrier batch.
    Batch {
        /// Rollback generation this batch belongs to.
        generation: u64,
        /// The batch.
        batch: Box<Batch>,
    },
    /// A boundary-value message for one link. Worker → coordinator the
    /// index names the producer's outgoing link; coordinator → worker
    /// it names the consumer's incoming link (the hub rewrites it
    /// while routing).
    Boundary {
        /// Rollback generation the value belongs to.
        generation: u64,
        /// Link index (direction-dependent, see above).
        link: u32,
        /// The sequence-numbered, checksummed payload.
        msg: BoundaryMsg,
    },
    /// Liveness beats, at most a few per watchdog window: worker →
    /// coordinator, and relayed by the hub to the worker's consumers.
    Heartbeat {
        /// Shard index of the beating worker.
        worker: u32,
        /// Rollback generation being executed.
        generation: u64,
        /// The worker's beat count.
        beats: u64,
    },
    /// Worker → coordinator: a batch finished; everything the barrier
    /// commit needs, with the snapshot as portable bytes.
    BarrierReport {
        /// Rollback generation of the batch.
        generation: u64,
        /// The report.
        report: Box<BatchReport<Vec<u8>>>,
    },
    /// Coordinator → worker: abandon the current generation and restore.
    Rollback {
        /// The new generation; the worker drops frames from older ones.
        generation: u64,
        /// Virtual cycle of the snapshot (0 for power-on).
        cycle: u64,
        /// Portable engine snapshot; empty means power-on reset.
        snapshot: Vec<u8>,
    },
    /// Worker → coordinator: a detection fired inside the worker.
    Fault {
        /// Shard index.
        worker: u32,
        /// Generation the fault occurred in.
        generation: u64,
        /// First cycle of the batch it spoiled.
        start: u64,
        /// The detection, in its wire form.
        kind: DetectionKind,
    },
    /// Coordinator → worker: exit cleanly.
    Shutdown,
}

fn bad(detail: impl Into<String>) -> PartitionError {
    PartitionError::Protocol { detail: detail.into() }
}

/// A payload that does not parse, in the codec's error type; `decode`
/// maps every such error to [`PartitionError::Protocol`].
fn malformed(detail: String) -> RtlError {
    RtlError::SnapshotDecode { detail }
}

// ------------------------------------------------- payload components

/// Appends a [`BoundaryMsg`] to a payload under construction.
fn write_boundary_msg(w: &mut ByteWriter, msg: &BoundaryMsg) {
    w.u64(msg.seq);
    w.u64(msg.cycle);
    w.seq(&msg.values, |w, &v| w.i64(v));
    w.u64(msg.checksum);
}

fn read_boundary_msg(r: &mut ByteReader<'_>) -> RtlResult<BoundaryMsg> {
    let seq = r.u64()?;
    let cycle = r.u64()?;
    let values = r.seq(8, ByteReader::i64)?;
    let checksum = r.u64()?;
    Ok(BoundaryMsg { seq, cycle, values, checksum })
}

fn write_fault_spec(w: &mut ByteWriter, spec: &FaultSpec) {
    match spec {
        FaultSpec::StuckAt { net, bit, value } => {
            w.u8(0);
            w.str(net);
            w.u64(*bit as u64);
            w.bool(*value);
        }
        FaultSpec::BitFlip { register, bit, cycle } => {
            w.u8(1);
            w.str(register);
            w.u64(*bit as u64);
            w.u64(*cycle);
        }
        FaultSpec::RamUpset { ram, addr, bit, cycle } => {
            w.u8(2);
            w.str(ram);
            w.u64(*addr as u64);
            w.u64(*bit as u64);
            w.u64(*cycle);
        }
    }
}

fn read_fault_spec(r: &mut ByteReader<'_>) -> RtlResult<FaultSpec> {
    match r.u8()? {
        0 => {
            let net = r.str()?;
            let bit = r.u64()? as usize;
            let value = r.bool()?;
            Ok(FaultSpec::StuckAt { net, bit, value })
        }
        1 => {
            let register = r.str()?;
            let bit = r.u64()? as usize;
            let cycle = r.u64()?;
            Ok(FaultSpec::BitFlip { register, bit, cycle })
        }
        2 => {
            let ram = r.str()?;
            let addr = r.u64()? as usize;
            let bit = r.u64()? as usize;
            let cycle = r.u64()?;
            Ok(FaultSpec::RamUpset { ram, addr, bit, cycle })
        }
        other => Err(malformed(format!("bad fault-spec tag {other}"))),
    }
}

fn write_detection(w: &mut ByteWriter, kind: &DetectionKind) {
    match kind {
        DetectionKind::Checksum => w.u8(0),
        DetectionKind::Sequence => w.u8(1),
        DetectionKind::LinkHashMismatch => w.u8(2),
        DetectionKind::OracleMismatch => w.u8(3),
        DetectionKind::Stall => w.u8(4),
        DetectionKind::Crash => w.u8(5),
        DetectionKind::Engine(detail) => {
            w.u8(6);
            w.str(detail);
        }
    }
}

fn read_detection(r: &mut ByteReader<'_>) -> RtlResult<DetectionKind> {
    match r.u8()? {
        0 => Ok(DetectionKind::Checksum),
        1 => Ok(DetectionKind::Sequence),
        2 => Ok(DetectionKind::LinkHashMismatch),
        3 => Ok(DetectionKind::OracleMismatch),
        4 => Ok(DetectionKind::Stall),
        5 => Ok(DetectionKind::Crash),
        6 => Ok(DetectionKind::Engine(r.str()?)),
        other => Err(malformed(format!("bad detection tag {other}"))),
    }
}

fn write_opt(w: &mut ByteWriter, value: Option<u64>) {
    w.bool(value.is_some());
    w.u64(value.unwrap_or(0));
}

fn read_opt(r: &mut ByteReader<'_>) -> RtlResult<Option<u64>> {
    let some = r.bool()?;
    let value = r.u64()?;
    Ok(some.then_some(value))
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn write_batch(w: &mut ByteWriter, b: &Batch) {
    w.u64(b.start);
    w.u64(b.cycles);
    w.bool(b.prologue);
    w.seq(&b.inputs, |w, &v| w.i64(v));
    w.seq(&b.faults, |w, (offset, spec)| {
        w.u64(*offset);
        write_fault_spec(w, spec);
    });
    write_opt(w, b.kill_at);
    write_opt(w, b.stall_at.map(|(offset, _)| offset));
    w.u64(b.stall_at.map_or(0, |(_, pause)| nanos(pause)));
    w.seq(&b.corrupt, |w, &(offset, link, stealth)| {
        w.u64(offset);
        w.u32(u32::try_from(link).unwrap_or(u32::MAX));
        w.bool(stealth);
    });
    w.u64(nanos(b.watchdog));
    write_opt(w, b.event_cap);
}

fn read_batch(r: &mut ByteReader<'_>) -> RtlResult<Batch> {
    let start = r.u64()?;
    let cycles = r.u64()?;
    let prologue = r.bool()?;
    let inputs = r.seq(8, ByteReader::i64)?;
    // The smallest encoded fault: offset, tag, empty name, bit, value.
    let faults = r.seq(22, |r| Ok((r.u64()?, read_fault_spec(r)?)))?;
    let kill_at = read_opt(r)?;
    let stall_offset = read_opt(r)?;
    let pause = Duration::from_nanos(r.u64()?);
    let corrupt = r.seq(13, |r| Ok((r.u64()?, r.u32()? as usize, r.bool()?)))?;
    Ok(Batch {
        start,
        cycles,
        prologue,
        inputs,
        faults,
        kill_at,
        stall_at: stall_offset.map(|offset| (offset, pause)),
        corrupt,
        watchdog: Duration::from_nanos(r.u64()?),
        event_cap: read_opt(r)?,
    })
}

fn write_report(w: &mut ByteWriter, report: &BatchReport<Vec<u8>>) {
    w.u32(u32::try_from(report.worker).unwrap_or(u32::MAX));
    w.u64(report.start);
    w.seq(&report.outputs, |w, &v| w.i64(v));
    w.seq(&report.out_hashes, |w, &v| w.u64(v));
    w.seq(&report.in_hashes, |w, &v| w.u64(v));
    w.u64(report.frames);
    w.bytes(&report.snapshot);
}

fn read_report(r: &mut ByteReader<'_>) -> RtlResult<BatchReport<Vec<u8>>> {
    Ok(BatchReport {
        worker: r.u32()? as usize,
        start: r.u64()?,
        outputs: r.seq(8, ByteReader::i64)?,
        out_hashes: r.seq(8, ByteReader::u64)?,
        in_hashes: r.seq(8, ByteReader::u64)?,
        frames: r.u64()?,
        snapshot: r.bytes()?,
    })
}

// ------------------------------------------------------ frame codec

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Hello { .. } => FRAME_HELLO,
            Frame::Batch { .. } => FRAME_BATCH,
            Frame::Boundary { .. } => FRAME_BOUNDARY,
            Frame::Heartbeat { .. } => FRAME_HEARTBEAT,
            Frame::BarrierReport { .. } => FRAME_BARRIER_REPORT,
            Frame::Rollback { .. } => FRAME_ROLLBACK,
            Frame::Fault { .. } => FRAME_FAULT,
            Frame::Shutdown => FRAME_SHUTDOWN,
        }
    }

    fn payload(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Frame::Hello { worker, fingerprint } => {
                w.u32(*worker);
                w.u64(*fingerprint);
            }
            Frame::Batch { generation, batch } => {
                w.u64(*generation);
                write_batch(&mut w, batch);
            }
            Frame::Boundary { generation, link, msg } => {
                w.u64(*generation);
                w.u32(*link);
                write_boundary_msg(&mut w, msg);
            }
            Frame::Heartbeat { worker, generation, beats } => {
                w.u32(*worker);
                w.u64(*generation);
                w.u64(*beats);
            }
            Frame::BarrierReport { generation, report } => {
                w.u64(*generation);
                write_report(&mut w, report);
            }
            Frame::Rollback { generation, cycle, snapshot } => {
                w.u64(*generation);
                w.u64(*cycle);
                w.bytes(snapshot);
            }
            Frame::Fault { worker, generation, start, kind } => {
                w.u32(*worker);
                w.u64(*generation);
                w.u64(*start);
                write_detection(&mut w, kind);
            }
            Frame::Shutdown => {}
        }
        w.finish()
    }

    /// Encodes the frame as one self-describing byte string:
    /// header, payload, trailing FNV-1a checksum.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.payload();
        let mut buf = Vec::with_capacity(HEADER_LEN + payload.len() + CHECKSUM_LEN);
        buf.extend_from_slice(&MAGIC);
        buf.push(VERSION);
        buf.push(self.kind());
        buf.extend_from_slice(
            &u32::try_from(payload.len()).expect("payload fits a u32 length").to_le_bytes(),
        );
        buf.extend_from_slice(&payload);
        let checksum = fnv1a(hash_seed(), &buf);
        buf.extend_from_slice(&checksum.to_le_bytes());
        buf
    }

    /// Decodes one complete frame, rejecting trailing bytes.
    ///
    /// # Errors
    ///
    /// [`PartitionError::Protocol`] for any malformation: short or
    /// over-long buffer, wrong magic/version, unknown frame type,
    /// length mismatch, checksum mismatch, or a payload that does not
    /// parse as the declared frame type.
    pub fn decode(bytes: &[u8]) -> Result<Frame, PartitionError> {
        let payload_len = header_payload_len(bytes)?;
        let total = HEADER_LEN + payload_len + CHECKSUM_LEN;
        if bytes.len() < total {
            return Err(bad(format!("frame truncated: {} of {total} bytes", bytes.len())));
        }
        if bytes.len() > total {
            return Err(bad(format!("{} trailing bytes after frame", bytes.len() - total)));
        }
        let body = &bytes[..HEADER_LEN + payload_len];
        let declared =
            u64::from_le_bytes(bytes[HEADER_LEN + payload_len..].try_into().expect("8 bytes"));
        let fresh = fnv1a(hash_seed(), body);
        if declared != fresh {
            return Err(bad(format!(
                "frame checksum mismatch ({declared:#018x} != {fresh:#018x})"
            )));
        }
        Frame::decode_payload(bytes[5], &bytes[HEADER_LEN..HEADER_LEN + payload_len]).map_err(|e| {
            match e {
                RtlError::SnapshotDecode { detail } => bad(detail),
                other => PartitionError::Rtl(other),
            }
        })
    }

    fn decode_payload(kind: u8, payload: &[u8]) -> RtlResult<Frame> {
        let mut r = ByteReader::new(payload);
        let frame = match kind {
            FRAME_HELLO => Frame::Hello { worker: r.u32()?, fingerprint: r.u64()? },
            FRAME_BATCH => {
                Frame::Batch { generation: r.u64()?, batch: Box::new(read_batch(&mut r)?) }
            }
            FRAME_BOUNDARY => Frame::Boundary {
                generation: r.u64()?,
                link: r.u32()?,
                msg: read_boundary_msg(&mut r)?,
            },
            FRAME_HEARTBEAT => {
                Frame::Heartbeat { worker: r.u32()?, generation: r.u64()?, beats: r.u64()? }
            }
            FRAME_BARRIER_REPORT => Frame::BarrierReport {
                generation: r.u64()?,
                report: Box::new(read_report(&mut r)?),
            },
            FRAME_ROLLBACK => {
                Frame::Rollback { generation: r.u64()?, cycle: r.u64()?, snapshot: r.bytes()? }
            }
            FRAME_FAULT => Frame::Fault {
                worker: r.u32()?,
                generation: r.u64()?,
                start: r.u64()?,
                kind: read_detection(&mut r)?,
            },
            FRAME_SHUTDOWN => Frame::Shutdown,
            other => return Err(malformed(format!("unknown frame type {other}"))),
        };
        r.finish()?;
        Ok(frame)
    }
}

/// Validates a frame header and returns the declared payload length,
/// so a stream reader knows how many more bytes (payload + checksum)
/// to pull before calling [`Frame::decode`] on the whole buffer.
///
/// # Errors
///
/// [`PartitionError::Protocol`] on a short buffer, bad magic, wrong
/// version, or an absurd payload length.
pub fn header_payload_len(header: &[u8]) -> Result<usize, PartitionError> {
    if header.len() < HEADER_LEN {
        return Err(bad(format!("frame header truncated: {} of {HEADER_LEN} bytes", header.len())));
    }
    if header[..4] != MAGIC {
        return Err(bad(format!("bad magic {:02x?}", &header[..4])));
    }
    if header[4] != VERSION {
        return Err(bad(format!("unsupported wire version {}", header[4])));
    }
    let payload_len = u32::from_le_bytes(header[6..10].try_into().expect("4 bytes")) as usize;
    if payload_len > MAX_PAYLOAD {
        return Err(bad(format!("payload length {payload_len} exceeds cap {MAX_PAYLOAD}")));
    }
    Ok(payload_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(length, CRC32)` of each of [`sample_frames`]' encodings.
    const PINNED_FRAMES: [(usize, u32); 10] = [
        (30, 0x9357_12f2),
        (263, 0x1910_a87c),
        (82, 0xe039_7a30),
        (38, 0x969a_a5e2),
        (142, 0x3cf5_83e5),
        (41, 0x82ab_5ceb),
        (38, 0xf9b2_cb67),
        (51, 0xa903_f80e),
        (39, 0xd113_7e2f),
        (18, 0xe762_cf72),
    ];

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello { worker: 3, fingerprint: 0xdead_beef_cafe },
            Frame::Batch {
                generation: 2,
                batch: Box::new(Batch {
                    start: 64,
                    cycles: 2,
                    prologue: true,
                    inputs: vec![1, -2, 3, 4, 5, -6],
                    faults: vec![
                        (7, FaultSpec::StuckAt { net: "x".into(), bit: 3, value: true }),
                        (9, FaultSpec::BitFlip { register: "q".into(), bit: 1, cycle: 70 }),
                        (11, FaultSpec::RamUpset { ram: "m".into(), addr: 2, bit: 0, cycle: 71 }),
                    ],
                    kill_at: Some(1),
                    stall_at: Some((5, Duration::from_millis(400))),
                    corrupt: vec![(1, 0, true), (0, 2, false)],
                    watchdog: Duration::from_millis(250),
                    event_cap: None,
                }),
            },
            Frame::Boundary {
                generation: 1,
                link: 2,
                msg: BoundaryMsg::new(17, 81, vec![-1, 0, i64::MAX >> 1]),
            },
            Frame::Heartbeat { worker: 1, generation: 4, beats: 96 },
            Frame::BarrierReport {
                generation: 4,
                report: Box::new(BatchReport {
                    worker: 0,
                    start: 0,
                    outputs: vec![10, 20],
                    out_hashes: vec![1, 2],
                    in_hashes: vec![3],
                    frames: 2,
                    snapshot: vec![0xaa; 40],
                }),
            },
            Frame::Rollback { generation: 5, cycle: 32, snapshot: vec![1, 2, 3] },
            Frame::Rollback { generation: 6, cycle: 0, snapshot: Vec::new() },
            Frame::Fault {
                worker: 1,
                generation: 3,
                start: 32,
                kind: DetectionKind::Engine("diverged".into()),
            },
            Frame::Fault { worker: 0, generation: 0, start: 0, kind: DetectionKind::Sequence },
            Frame::Shutdown,
        ]
    }

    #[test]
    fn every_frame_round_trips() {
        for frame in sample_frames() {
            let bytes = frame.encode();
            assert_eq!(
                header_payload_len(&bytes).unwrap(),
                bytes.len() - HEADER_LEN - CHECKSUM_LEN
            );
            assert_eq!(Frame::decode(&bytes).unwrap(), frame, "{frame:?}");
        }
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        for frame in sample_frames() {
            let bytes = frame.encode();
            for i in 0..bytes.len() {
                for flip in [1u8, 0x80] {
                    let mut corrupt = bytes.clone();
                    corrupt[i] ^= flip;
                    assert!(
                        matches!(Frame::decode(&corrupt), Err(PartitionError::Protocol { .. })),
                        "byte {i} flipped by {flip:#x} in {frame:?} must be rejected"
                    );
                }
            }
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        for frame in sample_frames() {
            let bytes = frame.encode();
            for cut in 0..bytes.len() {
                assert!(
                    matches!(Frame::decode(&bytes[..cut]), Err(PartitionError::Protocol { .. })),
                    "truncation at {cut} of {frame:?} must be rejected"
                );
            }
            let mut long = bytes;
            long.push(0);
            assert!(matches!(Frame::decode(&long), Err(PartitionError::Protocol { .. })));
        }
    }

    #[test]
    fn header_rejects_bad_magic_version_and_absurd_lengths() {
        let good = Frame::Shutdown.encode();
        assert!(header_payload_len(&good[..4]).is_err(), "short header");
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(header_payload_len(&bad_magic).is_err());
        let mut bad_version = good.clone();
        bad_version[4] = VERSION + 1;
        assert!(header_payload_len(&bad_version).is_err());
        let mut absurd = good;
        absurd[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(header_payload_len(&absurd).is_err());
    }

    /// Pins the encoded bytes of every sample frame (by CRC32, which
    /// the frame format does not use) and the FNV-1a under their
    /// checksums. Encoder and decoder share one codec, so a symmetric
    /// change to it passes every round trip; it cannot pass this.
    #[test]
    fn frame_encodings_are_pinned() {
        assert_eq!(crate::fnv1a(crate::hash_seed(), b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(crate::fnv1a(crate::hash_seed(), b"a"), 0xaf63_dc4c_8601_ec8c);
        let digests: Vec<(usize, u32)> = sample_frames()
            .iter()
            .map(|frame| {
                let bytes = frame.encode();
                (bytes.len(), crate::crc32(&bytes))
            })
            .collect();
        assert_eq!(digests, PINNED_FRAMES);
    }
}
