//! Hostile-network resilience for the repository's one network protocol,
//! the NDJSON query protocol of `synscan-serve`.
//!
//! Its peers may stall, trickle bytes, send garbage, oversize their
//! requests, or vanish mid-line. This module holds the two defenses the
//! daemon threads through its transport:
//!
//! * [`is_timeout`] — recognizes an expired per-read/per-write socket
//!   timeout, so a silent peer costs a typed [`NetError::TimedOut`] instead
//!   of an indefinite block;
//! * [`BoundedLineReader`] — newline-delimited request admission with a hard
//!   byte cap (slow-loris and oversized-request defense for NDJSON).

use std::io::{self, Read};
use std::time::{Duration, Instant};

/// Default idle cutoff of a kept-alive serve connection between requests
/// (`synscan-serve --stall-timeout`): 30 s.
pub const DEFAULT_STALL_TIMEOUT_MS: u64 = 30_000;

/// Default bound on a single request/response exchange on a serve connection.
pub const DEFAULT_REQUEST_DEADLINE_MS: u64 = 10_000;

/// Default cap on one NDJSON request line. Far above any legitimate query
/// (the longest verb plus arguments is well under 100 bytes) while bounding
/// what a hostile client can make the daemon buffer.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// Default admission-gate width for the serve daemon: connections beyond
/// this many simultaneously served are shed with a typed reply.
pub const DEFAULT_MAX_IN_FLIGHT: usize = 64;

/// Typed failure from the resilience layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// A read or write deadline expired. `op` names the operation
    /// ("read", "write", "request", "idle"), `ms` the budget that ran out.
    TimedOut {
        /// Which operation hit its deadline.
        op: &'static str,
        /// The expired budget in milliseconds.
        ms: u64,
    },
    /// A request exceeded the admission byte cap.
    TooLarge {
        /// The enforced cap in bytes.
        limit: usize,
    },
    /// Any other transport error, stringified.
    Io(String),
}

impl core::fmt::Display for NetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NetError::TimedOut { op, ms } => {
                write!(f, "{op} deadline exceeded after {ms}ms")
            }
            NetError::TooLarge { limit } => {
                write!(f, "request exceeds the {limit}-byte limit")
            }
            NetError::Io(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(err: io::Error) -> Self {
        if is_timeout(&err) {
            // The socket-level timeout granularity is unknown here; callers
            // that know the configured budget use `NetError::TimedOut`
            // directly with the real figure.
            NetError::TimedOut { op: "read", ms: 0 }
        } else {
            NetError::Io(err.to_string())
        }
    }
}

/// Whether an I/O error is a socket timeout. Unix sockets report expired
/// `SO_RCVTIMEO`/`SO_SNDTIMEO` as `WouldBlock`, Windows as `TimedOut`;
/// both mean the deadline fired.
pub fn is_timeout(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Newline-delimited request reader with a hard byte cap and cumulative
/// per-line deadlines.
///
/// This replaces `BufReader::read_line` on hostile-facing connections:
///
/// * a line longer than `limit` is rejected with [`NetError::TooLarge`]
///   *before* being buffered whole — the reader stops at the cap;
/// * a peer that trickles bytes without ever finishing a line (slow-loris)
///   is cut off once the line has been in flight longer than
///   `request_deadline`, even though each individual byte arrived within
///   the socket timeout;
/// * a peer that connects and sends nothing is cut off after
///   `idle_deadline` (the stall timeout), allowing keep-alive clients a
///   longer leash between requests than within one.
///
/// The underlying stream's socket read timeout should be set (its
/// `set_read_timeout`) to at most `request_deadline` so the cumulative
/// checks run.
#[derive(Debug)]
pub struct BoundedLineReader<R> {
    inner: R,
    pending: Vec<u8>,
    /// Prefix of `pending` already known to be newline-free, so each new
    /// chunk is scanned exactly once.
    scanned: usize,
    limit: usize,
    request_deadline: Option<Duration>,
    idle_deadline: Option<Duration>,
}

impl<R: Read> BoundedLineReader<R> {
    /// A reader with a byte cap, a cumulative per-line deadline, and an
    /// idle deadline between lines. `None` disables the respective check.
    pub fn with_deadlines(
        inner: R,
        limit: usize,
        request_deadline: Option<Duration>,
        idle_deadline: Option<Duration>,
    ) -> Self {
        BoundedLineReader {
            inner,
            pending: Vec::new(),
            scanned: 0,
            limit,
            request_deadline,
            idle_deadline,
        }
    }

    /// Mutable access to the wrapped stream (to write replies on a
    /// bidirectional connection).
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// Next line without its trailing `\n` (and `\r`, if any), decoded
    /// lossily. `Ok(None)` on clean EOF at a line boundary; EOF mid-line
    /// yields the partial line first (matching `read_line` semantics).
    pub fn next_line(&mut self) -> Result<Option<String>, NetError> {
        let started = Instant::now();
        loop {
            if let Some(rel) = self.pending[self.scanned..]
                .iter()
                .position(|&b| b == b'\n')
            {
                let pos = self.scanned + rel;
                let mut end = pos;
                if end > 0 && self.pending[end - 1] == b'\r' {
                    end -= 1;
                }
                let line = String::from_utf8_lossy(&self.pending[..end]).into_owned();
                self.pending.drain(..=pos);
                self.scanned = 0;
                return Ok(Some(line));
            }
            self.scanned = self.pending.len();
            if self.pending.len() > self.limit {
                return Err(NetError::TooLarge { limit: self.limit });
            }
            if let Some(budget) = self.request_deadline {
                if !self.pending.is_empty() && started.elapsed() > budget {
                    return Err(NetError::TimedOut {
                        op: "request",
                        ms: budget.as_millis() as u64,
                    });
                }
            }
            let mut chunk = [0u8; 4096];
            // Never buffer more than one cap's worth past the newline scan.
            let want = chunk
                .len()
                .min(self.limit + 1 - self.pending.len().min(self.limit));
            match self.inner.read(&mut chunk[..want.max(1)]) {
                Ok(0) => {
                    if self.pending.is_empty() {
                        return Ok(None);
                    }
                    let line = String::from_utf8_lossy(&self.pending).into_owned();
                    self.pending.clear();
                    self.scanned = 0;
                    return Ok(Some(line));
                }
                Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
                Err(err) if is_timeout(&err) => {
                    // A socket-timeout tick: decide which budget it counts
                    // against. Mid-line silence is a stalled request; silence
                    // with no bytes at all is an idle connection.
                    if !self.pending.is_empty() {
                        let ms = self
                            .request_deadline
                            .map(|d| d.as_millis() as u64)
                            .unwrap_or(0);
                        return Err(NetError::TimedOut { op: "request", ms });
                    }
                    match self.idle_deadline {
                        Some(idle) if started.elapsed() < idle => continue,
                        _ => {
                            let ms = self
                                .idle_deadline
                                .map(|d| d.as_millis() as u64)
                                .unwrap_or(0);
                            return Err(NetError::TimedOut { op: "idle", ms });
                        }
                    }
                }
                Err(err) => return Err(NetError::Io(err.to_string())),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A reader that yields `WouldBlock` (socket-timeout style) after its
    /// scripted chunks run out.
    struct TimeoutTail {
        chunks: Vec<Vec<u8>>,
    }

    impl Read for TimeoutTail {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.chunks.first_mut() {
                Some(chunk) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    chunk.drain(..n);
                    if chunk.is_empty() {
                        self.chunks.remove(0);
                    }
                    Ok(n)
                }
                None => Err(io::Error::new(io::ErrorKind::WouldBlock, "timed out")),
            }
        }
    }

    #[test]
    fn bounded_reader_splits_lines_across_chunks() {
        let tail = TimeoutTail {
            chunks: vec![b"pi".to_vec(), b"ng\nsta".to_vec(), b"ts\r\n".to_vec()],
        };
        let mut lines = BoundedLineReader::with_deadlines(tail, 64, None, None);
        assert_eq!(lines.next_line().unwrap().as_deref(), Some("ping"));
        assert_eq!(lines.next_line().unwrap().as_deref(), Some("stats"));
    }

    #[test]
    fn bounded_reader_handles_eof_with_and_without_newline() {
        let mut lines =
            BoundedLineReader::with_deadlines(Cursor::new(b"ping\n".to_vec()), 64, None, None);
        assert_eq!(lines.next_line().unwrap().as_deref(), Some("ping"));
        assert_eq!(lines.next_line().unwrap(), None);

        let mut partial =
            BoundedLineReader::with_deadlines(Cursor::new(b"tail".to_vec()), 64, None, None);
        assert_eq!(partial.next_line().unwrap().as_deref(), Some("tail"));
        assert_eq!(partial.next_line().unwrap(), None);
    }

    #[test]
    fn bounded_reader_rejects_oversized_lines_without_buffering_them() {
        let huge = vec![b'x'; 1 << 20];
        let mut lines = BoundedLineReader::with_deadlines(Cursor::new(huge), 1024, None, None);
        match lines.next_line() {
            Err(NetError::TooLarge { limit: 1024 }) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // The reader stopped at the cap instead of slurping the megabyte.
        assert!(lines.pending.len() <= 1024 + 4096 + 1);
    }

    #[test]
    fn bounded_reader_times_out_a_stalled_request() {
        let tail = TimeoutTail {
            chunks: vec![b"par".to_vec()],
        };
        let mut lines = BoundedLineReader::with_deadlines(
            tail,
            64,
            Some(Duration::from_millis(200)),
            Some(Duration::from_millis(400)),
        );
        match lines.next_line() {
            Err(NetError::TimedOut {
                op: "request",
                ms: 200,
            }) => {}
            other => panic!("expected request timeout, got {other:?}"),
        }
    }

    #[test]
    fn bounded_reader_times_out_an_idle_connection() {
        let tail = TimeoutTail { chunks: vec![] };
        let mut lines = BoundedLineReader::with_deadlines(
            tail,
            64,
            Some(Duration::from_millis(5)),
            Some(Duration::from_millis(20)),
        );
        let started = Instant::now();
        match lines.next_line() {
            Err(NetError::TimedOut { op: "idle", ms: 20 }) => {}
            other => panic!("expected idle timeout, got {other:?}"),
        }
        // The scripted reader times out instantly, so the loop spins until
        // the idle budget elapses — proving the cumulative check, not the
        // socket timeout, fired.
        assert!(started.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn net_error_display_is_stable() {
        assert_eq!(
            NetError::TimedOut {
                op: "request",
                ms: 300
            }
            .to_string(),
            "request deadline exceeded after 300ms"
        );
        assert_eq!(
            NetError::TooLarge { limit: 65536 }.to_string(),
            "request exceeds the 65536-byte limit"
        );
    }

    #[test]
    fn tcp_deadline_fires_on_a_silent_peer() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // The peer connects and stays silent.
        let peer = std::net::TcpStream::connect(addr).unwrap();
        let (mut conn, _) = listener.accept().unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let started = Instant::now();
        let err = conn.read(&mut [0u8; 16]).unwrap_err();
        assert!(is_timeout(&err), "{err:?}");
        assert!(started.elapsed() < Duration::from_secs(5), "read blocked");
        drop(peer);
    }
}
