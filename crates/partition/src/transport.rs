//! The frame transport between processes: [`Frame`]s over a
//! Unix-domain stream socket.
//!
//! The protocol layer ([`wire`](crate::wire)) defines *what* travels;
//! [`SocketTransport`] defines *how*. Reads are deadline-bounded and
//! reassemble frames from the byte stream (partial reads are normal
//! under timeouts); a closed peer surfaces as
//! [`RecvError::Disconnected`]. Thread-mode boundary links need no
//! bytes: they are typed `mpsc` channels of
//! [`BoundaryMsg`](crate::channel::BoundaryMsg).
//!
//! Malformed bytes are a protocol fault, not a crash:
//! [`RecvError::Protocol`] carries the typed decode error upward where
//! the coordinator converts it into a detection and a rollback.

use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use crate::error::PartitionError;
use crate::wire::{header_payload_len, Frame, CHECKSUM_LEN, HEADER_LEN};

/// Why a receive produced no frame.
#[derive(Debug)]
pub enum RecvError {
    /// No complete frame arrived within the deadline.
    Timeout,
    /// The peer is gone (channel dropped, socket closed or reset).
    Disconnected,
    /// Bytes arrived but failed to decode as a frame.
    Protocol(PartitionError),
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Timeout => write!(f, "receive timed out"),
            RecvError::Disconnected => write!(f, "peer disconnected"),
            RecvError::Protocol(e) => write!(f, "protocol violation: {e}"),
        }
    }
}

/// Cross-process transport: frames over a Unix-domain stream socket.
///
/// The receive side buffers partial frames across calls, so a slow
/// writer (or a deadline that expires mid-frame) never corrupts frame
/// boundaries: the next call resumes where the stream left off.
#[derive(Debug)]
pub struct SocketTransport {
    stream: UnixStream,
    /// Bytes received but not yet consumed as a complete frame.
    pending: Vec<u8>,
}

impl SocketTransport {
    /// Wraps a connected stream.
    #[must_use]
    pub fn new(stream: UnixStream) -> Self {
        SocketTransport { stream, pending: Vec::new() }
    }

    /// A connected in-process pair, for tests.
    ///
    /// # Errors
    ///
    /// [`PartitionError::Transport`] if the socketpair syscall fails.
    pub fn pair() -> Result<(SocketTransport, SocketTransport), PartitionError> {
        let (a, b) =
            UnixStream::pair().map_err(|e| PartitionError::Transport { detail: e.to_string() })?;
        Ok((SocketTransport::new(a), SocketTransport::new(b)))
    }

    /// Whether `pending` holds at least one complete frame, and its
    /// total length if so.
    fn complete_frame_len(&self) -> Result<Option<usize>, PartitionError> {
        if self.pending.len() < HEADER_LEN {
            return Ok(None);
        }
        let payload_len = header_payload_len(&self.pending)?;
        let total = HEADER_LEN + payload_len + CHECKSUM_LEN;
        Ok(if self.pending.len() >= total { Some(total) } else { None })
    }

    /// Encodes and sends one frame.
    ///
    /// # Errors
    ///
    /// [`PartitionError::Transport`] when the peer is unreachable.
    pub fn send(&mut self, frame: &Frame) -> Result<(), PartitionError> {
        self.stream
            .write_all(&frame.encode())
            .and_then(|()| self.stream.flush())
            .map_err(|e| PartitionError::Transport { detail: e.to_string() })
    }

    /// Receives the next frame, waiting at most `timeout`.
    ///
    /// # Errors
    ///
    /// [`RecvError::Timeout`] if nothing complete arrived in time,
    /// [`RecvError::Disconnected`] if the peer is gone,
    /// [`RecvError::Protocol`] if the peer sent malformed bytes.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame, RecvError> {
        let deadline = Instant::now() + timeout;
        loop {
            // Header validation errors (bad magic, absurd length) are
            // unrecoverable for a byte stream — framing is lost.
            match self.complete_frame_len().map_err(RecvError::Protocol)? {
                Some(total) => {
                    let frame_bytes: Vec<u8> = self.pending.drain(..total).collect();
                    return Frame::decode(&frame_bytes).map_err(RecvError::Protocol);
                }
                None => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(RecvError::Timeout);
                    }
                    // Never Some(0): that disables the timeout.
                    let _ = self.stream.set_read_timeout(Some(deadline - now));
                    let mut chunk = [0u8; 4096];
                    match self.stream.read(&mut chunk) {
                        Ok(0) => return Err(RecvError::Disconnected),
                        Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
                        Err(e)
                            if e.kind() == ErrorKind::WouldBlock
                                || e.kind() == ErrorKind::TimedOut =>
                        {
                            return Err(RecvError::Timeout)
                        }
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(_) => return Err(RecvError::Disconnected),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::BoundaryMsg;

    fn boundary(seq: u64) -> Frame {
        Frame::Boundary { msg: BoundaryMsg::new(seq, seq, vec![-7, 9]) }
    }

    #[test]
    fn socket_transport_round_trips_and_reassembles_split_frames() {
        let (mut a, mut b) = SocketTransport::pair().unwrap();
        for seq in 0..5 {
            a.send(&boundary(seq)).unwrap();
        }
        for seq in 0..5 {
            assert_eq!(b.recv_timeout(Duration::from_secs(2)).unwrap(), boundary(seq));
        }

        // Split one frame across two raw writes with a pause; the
        // reader must reassemble it, not tear it.
        let bytes = boundary(99).encode();
        let (head, tail) = bytes.split_at(7);
        let tail = tail.to_vec();
        let mut raw = a.stream.try_clone().unwrap();
        raw.write_all(head).unwrap();
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            raw.write_all(&tail).unwrap();
        });
        assert_eq!(b.recv_timeout(Duration::from_secs(2)).unwrap(), boundary(99));
        writer.join().unwrap();
    }

    #[test]
    fn socket_transport_times_out_and_detects_disconnect() {
        let (mut a, b) = SocketTransport::pair().unwrap();
        assert!(matches!(a.recv_timeout(Duration::from_millis(20)), Err(RecvError::Timeout)));
        drop(b);
        assert!(matches!(a.recv_timeout(Duration::from_millis(20)), Err(RecvError::Disconnected)));
        assert!(matches!(a.send(&Frame::Shutdown), Err(PartitionError::Transport { .. })));
    }

    #[test]
    fn socket_transport_reports_garbage_as_protocol_error() {
        let (a, mut b) = SocketTransport::pair().unwrap();
        let mut raw = a.stream.try_clone().unwrap();
        raw.write_all(b"NOTAFRAMEATALL").unwrap();
        assert!(matches!(
            b.recv_timeout(Duration::from_millis(200)),
            Err(RecvError::Protocol(PartitionError::Protocol { .. }))
        ));

        // A checksum-corrupted but well-framed message is also typed.
        let (c, mut d) = SocketTransport::pair().unwrap();
        let mut bytes = boundary(3).encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        let mut raw = c.stream.try_clone().unwrap();
        raw.write_all(&bytes).unwrap();
        assert!(matches!(
            d.recv_timeout(Duration::from_millis(200)),
            Err(RecvError::Protocol(PartitionError::Protocol { .. }))
        ));
    }
}
