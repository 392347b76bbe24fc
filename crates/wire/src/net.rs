//! Hostile-network resilience layer shared by every socket-facing runtime.
//!
//! Both network protocols in this repository — the NDJSON query protocol of
//! `synscan-serve` and the SYNDIST frame protocol of `repro --distributed` —
//! talk to peers that may stall, trickle bytes, send garbage, oversize their
//! requests, or vanish mid-frame. This module concentrates the defenses so
//! each runtime threads the same four pieces through its transport:
//!
//! * [`Deadline`] / [`DeadlineStream`] — per-read/per-write timeouts over any
//!   stream, surfacing expiry as a typed [`NetError::TimedOut`] instead of an
//!   indefinite block;
//! * [`BoundedLineReader`] — newline-delimited request admission with a hard
//!   byte cap (slow-loris and oversized-request defense for NDJSON);
//! * [`ChaosSocket`] — a seeded, deterministic transport-fault injector
//!   (partial writes, read stalls, mid-stream disconnects, byte corruption)
//!   in the same splitmix64 idiom as [`crate::chaos::ChaosReader`];
//! * [`Backoff`] — jittered exponential delays for dial/reconnect loops.

use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

use crate::chaos::{hits, mix64};

/// Default stall watchdog timeout, shared by the distributed coordinator's
/// heartbeat supervision and the serve daemon's idle-connection cutoff.
/// Matches the pre-hardening `SupervisionConfig` default of 30 s.
pub const DEFAULT_STALL_TIMEOUT_MS: u64 = 30_000;

/// Default bound on a single request/response exchange on a serve connection.
pub const DEFAULT_REQUEST_DEADLINE_MS: u64 = 10_000;

/// Default cap on one NDJSON request line. Far above any legitimate query
/// (the longest verb plus arguments is well under 100 bytes) while bounding
/// what a hostile client can make the daemon buffer.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// Default admission-gate width for the serve daemon: connections beyond
/// this many simultaneously queued-or-served are shed with a typed reply.
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

/// Read/write budgets for one stream. `None` means block indefinitely
/// (the pre-hardening behavior, kept available for trusted local pipes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Deadline {
    /// Budget for a single read call.
    pub read: Option<Duration>,
    /// Budget for a single write call.
    pub write: Option<Duration>,
}

impl Deadline {
    /// No deadlines: reads and writes may block forever.
    pub fn none() -> Self {
        Deadline::default()
    }

    /// The same budget for reads and writes.
    pub fn rw(budget: Duration) -> Self {
        Deadline {
            read: Some(budget),
            write: Some(budget),
        }
    }

    /// [`Deadline::rw`] from a millisecond figure; 0 means no deadline.
    pub fn from_millis(ms: u64) -> Self {
        if ms == 0 {
            Deadline::none()
        } else {
            Deadline::rw(Duration::from_millis(ms))
        }
    }
}

/// A stream whose native socket timeouts can be set. Implemented for the two
/// transports the runtimes use; in-memory test streams use
/// [`DeadlineStream::wrap`] instead.
pub trait HasDeadlines {
    /// Apply the budgets as native socket timeouts.
    fn set_deadline(&self, deadline: Deadline) -> io::Result<()>;
}

impl HasDeadlines for std::net::TcpStream {
    fn set_deadline(&self, deadline: Deadline) -> io::Result<()> {
        self.set_read_timeout(deadline.read)?;
        self.set_write_timeout(deadline.write)
    }
}

#[cfg(unix)]
impl HasDeadlines for std::os::unix::net::UnixStream {
    fn set_deadline(&self, deadline: Deadline) -> io::Result<()> {
        self.set_read_timeout(deadline.read)?;
        self.set_write_timeout(deadline.write)
    }
}

/// A stream wrapper that turns socket-timeout errors into typed
/// [`NetError::TimedOut`] I/O errors carrying the configured budget.
///
/// The deadlines themselves are enforced by the kernel (`SO_RCVTIMEO` /
/// `SO_SNDTIMEO`, set via [`HasDeadlines`]); this wrapper's job is to make
/// the expiry diagnosable — `WouldBlock` from a socket read is
/// indistinguishable from a non-blocking miss, while the error this wrapper
/// returns states which budget ran out.
#[derive(Debug)]
pub struct DeadlineStream<S> {
    inner: S,
    deadline: Deadline,
}

impl<S: HasDeadlines> DeadlineStream<S> {
    /// Apply `deadline` to the socket and wrap it.
    pub fn new(inner: S, deadline: Deadline) -> io::Result<Self> {
        inner.set_deadline(deadline)?;
        Ok(DeadlineStream { inner, deadline })
    }
}

impl<S> DeadlineStream<S> {
    /// Wrap a stream whose timeouts are already configured (or which cannot
    /// time out, e.g. an in-memory pipe in tests).
    pub fn wrap(inner: S, deadline: Deadline) -> Self {
        DeadlineStream { inner, deadline }
    }

    /// The configured budgets.
    pub fn deadline(&self) -> Deadline {
        self.deadline
    }

    /// Shared access to the wrapped stream.
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    /// Mutable access to the wrapped stream.
    pub fn get_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Unwrap.
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn typed(op: &'static str, budget: Option<Duration>, err: io::Error) -> io::Error {
        if is_timeout(&err) {
            let ms = budget.map(|d| d.as_millis() as u64).unwrap_or(0);
            io::Error::new(io::ErrorKind::TimedOut, NetError::TimedOut { op, ms })
        } else {
            err
        }
    }
}

impl<S: Read> Read for DeadlineStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner
            .read(buf)
            .map_err(|e| Self::typed("read", self.deadline.read, e))
    }
}

impl<S: Write> Write for DeadlineStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner
            .write(buf)
            .map_err(|e| Self::typed("write", self.deadline.write, e))
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner
            .flush()
            .map_err(|e| Self::typed("write", self.deadline.write, e))
    }
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
/// The underlying stream's socket read timeout should be set (via
/// [`Deadline`]) to at most `request_deadline` so the cumulative checks run.
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

/// Transport-level fault kinds injected by [`ChaosSocket`]. All are
/// deterministic in `(seed, operation index | byte offset)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Split every `period`-th write, delivering only a prefix. Benign under
    /// `write_all` loops; flushes out short-write handling bugs.
    PartialWrite {
        /// Every how many write calls the short write fires.
        period: u64,
    },
    /// Sleep `ms` before every `period`-th read — a stalling peer. Benign
    /// while `ms` stays under the reader's deadline.
    StallRead {
        /// Every how many read calls the stall fires.
        period: u64,
        /// Stall length in milliseconds.
        ms: u64,
    },
    /// Fail every write after `bytes` total bytes have been forwarded —
    /// a peer dying mid-frame. The final write before the cut delivers a
    /// prefix, so frames are torn, not cleanly truncated.
    DisconnectAfter {
        /// Total byte budget before the injected disconnect.
        bytes: u64,
    },
    /// XOR a seed-derived non-zero mask into every `period`-th byte written.
    /// The SYNDIST frame checksum is expected to catch this downstream.
    CorruptWrite {
        /// Every how many bytes the corruption fires.
        period: u64,
    },
}

const TAG_PARTIAL: u64 = 0x11;
const TAG_STALL: u64 = 0x12;
const TAG_CORRUPT: u64 = 0x13;

/// A seeded set of transport faults, mirroring [`crate::chaos::ChaosPlan`]
/// for the record layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetChaosPlan {
    /// Seed for all fault positions and corruption masks.
    pub seed: u64,
    /// Faults to inject.
    pub faults: Vec<NetFault>,
}

impl NetChaosPlan {
    /// No faults; [`ChaosSocket`] degenerates to a passthrough.
    pub fn noop(seed: u64) -> Self {
        NetChaosPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Recoverable faults only: short writes and sub-deadline stalls.
    /// A correct peer produces byte-identical results under this plan.
    pub fn benign(seed: u64) -> Self {
        NetChaosPlan {
            seed,
            faults: vec![
                NetFault::PartialWrite { period: 3 },
                NetFault::StallRead { period: 64, ms: 2 },
            ],
        }
    }

    /// Corrupting faults: flipped bytes on the wire (plus short writes).
    /// The peer must *detect* these — checksum mismatch, typed error —
    /// never absorb them silently.
    pub fn corrupting(seed: u64) -> Self {
        NetChaosPlan {
            seed,
            faults: vec![
                NetFault::PartialWrite { period: 5 },
                NetFault::CorruptWrite { period: 128 },
            ],
        }
    }

    /// The same fault set under a connection-specific seed, so each
    /// connection faults at different, still-deterministic positions.
    pub fn reseeded(&self, salt: u64) -> Self {
        NetChaosPlan {
            seed: mix64(self.seed ^ salt),
            faults: self.faults.clone(),
        }
    }
}

/// Tally of injected transport faults, for assertions in drills.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetInjectionLog {
    /// Writes shortened by [`NetFault::PartialWrite`].
    pub partial_writes: u64,
    /// Reads delayed by [`NetFault::StallRead`].
    pub stalls: u64,
    /// Bytes flipped by [`NetFault::CorruptWrite`].
    pub corrupted_bytes: u64,
    /// Whether [`NetFault::DisconnectAfter`] has fired.
    pub disconnected: bool,
}

/// Deterministic transport-fault injector over any stream, the socket-layer
/// sibling of [`crate::chaos::ChaosReader`]. Wrap the write half, the read
/// half, or both; fault positions derive from `(seed, op index)` and
/// `(seed, byte offset)` via splitmix64, so a run replays exactly.
#[derive(Debug)]
pub struct ChaosSocket<S> {
    inner: S,
    plan: NetChaosPlan,
    reads: u64,
    writes: u64,
    bytes_written: u64,
    log: NetInjectionLog,
}

impl<S> ChaosSocket<S> {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: S, plan: NetChaosPlan) -> Self {
        ChaosSocket {
            inner,
            plan,
            reads: 0,
            writes: 0,
            bytes_written: 0,
            log: NetInjectionLog::default(),
        }
    }

    /// What has been injected so far.
    pub fn log(&self) -> NetInjectionLog {
        self.log
    }

    /// Unwrap.
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn disconnect_budget(&self) -> Option<u64> {
        self.plan.faults.iter().find_map(|f| match f {
            NetFault::DisconnectAfter { bytes } => Some(*bytes),
            _ => None,
        })
    }
}

impl<S: Read> Read for ChaosSocket<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let index = self.reads;
        self.reads += 1;
        for fault in &self.plan.faults {
            if let NetFault::StallRead { period, ms } = fault {
                if hits(self.plan.seed, TAG_STALL, *period, index) {
                    std::thread::sleep(Duration::from_millis(*ms));
                    self.log.stalls += 1;
                }
            }
        }
        self.inner.read(buf)
    }
}

impl<S: Write> Write for ChaosSocket<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return self.inner.write(buf);
        }
        let index = self.writes;
        self.writes += 1;

        let mut len = buf.len();
        if let Some(budget) = self.disconnect_budget() {
            let allowed = budget.saturating_sub(self.bytes_written);
            if allowed == 0 {
                self.log.disconnected = true;
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "chaos: injected mid-stream disconnect",
                ));
            }
            len = len.min(allowed as usize);
        }
        for fault in &self.plan.faults {
            if let NetFault::PartialWrite { period } = fault {
                if len > 1 && hits(self.plan.seed, TAG_PARTIAL, *period, index) {
                    len = (len / 2).max(1);
                    self.log.partial_writes += 1;
                }
            }
        }

        let corrupt_period = self.plan.faults.iter().find_map(|f| match f {
            NetFault::CorruptWrite { period } => Some((*period).max(1)),
            _ => None,
        });
        let written = if let Some(period) = corrupt_period {
            let phase = mix64(self.plan.seed ^ TAG_CORRUPT) % period;
            let mut scratch = buf[..len].to_vec();
            for (i, byte) in scratch.iter_mut().enumerate() {
                let offset = self.bytes_written + i as u64;
                if offset % period == phase {
                    let mask = (mix64(self.plan.seed ^ offset) % 255 + 1) as u8;
                    *byte ^= mask;
                    self.log.corrupted_bytes += 1;
                }
            }
            self.inner.write(&scratch)?
        } else {
            self.inner.write(&buf[..len])?
        };
        self.bytes_written += written as u64;
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Jittered exponential backoff for dial/reconnect loops. Delays double from
/// `base` up to `cap`, each scaled by a seed-derived factor in [0.5, 1.5] so
/// a fleet of workers does not dial in lockstep — and so any given seed
/// replays the exact same schedule.
#[derive(Debug, Clone)]
pub struct Backoff {
    seed: u64,
    base: Duration,
    cap: Duration,
    attempt: u32,
}

impl Backoff {
    /// A schedule starting at `base`, doubling, capped at `cap`.
    pub fn new(seed: u64, base: Duration, cap: Duration) -> Self {
        Backoff {
            seed,
            base,
            cap,
            attempt: 0,
        }
    }

    /// The default dial schedule: 100 ms doubling to a 5 s ceiling.
    pub fn dial(seed: u64) -> Self {
        Backoff::new(seed, Duration::from_millis(100), Duration::from_secs(5))
    }

    /// Next delay in the schedule (advances the attempt counter).
    pub fn next_delay(&mut self) -> Duration {
        let exp = self.attempt.min(20);
        self.attempt += 1;
        let raw = self
            .base
            .saturating_mul(1u32 << exp.min(16))
            .min(self.cap)
            .as_millis() as u64;
        // Jitter factor in [1/2, 3/2], in 1/1024ths: 512..=1536.
        let jitter = 512 + mix64(self.seed ^ u64::from(exp)) % 1025;
        Duration::from_millis((raw * jitter / 1024).max(1))
    }

    /// Restart the schedule after a successful connection.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// Dial with retries: call `dial` up to `attempts` times, sleeping a
/// jittered exponential delay between failures and reporting each retry via
/// `on_retry(attempt, delay, error)`. Returns the last error when every
/// attempt fails.
pub fn dial_with_backoff<T, F, C>(
    attempts: u32,
    backoff: &mut Backoff,
    mut dial: F,
    mut on_retry: C,
) -> io::Result<T>
where
    F: FnMut() -> io::Result<T>,
    C: FnMut(u32, Duration, &io::Error),
{
    let attempts = attempts.max(1);
    let mut last = None;
    for attempt in 1..=attempts {
        match dial() {
            Ok(conn) => return Ok(conn),
            Err(err) => {
                if attempt < attempts {
                    let delay = backoff.next_delay();
                    on_retry(attempt, delay, &err);
                    std::thread::sleep(delay);
                }
                last = Some(err);
            }
        }
    }
    Err(last.unwrap_or_else(|| io::Error::other("dial: no attempts made")))
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
    fn deadline_stream_types_timeouts() {
        let tail = TimeoutTail { chunks: vec![] };
        let mut stream = DeadlineStream::wrap(tail, Deadline::from_millis(250));
        let err = stream.read(&mut [0u8; 8]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert_eq!(err.to_string(), "read deadline exceeded after 250ms");
    }

    #[test]
    fn deadline_stream_passes_other_errors_through() {
        struct Broken;
        impl Read for Broken {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "gone"))
            }
        }
        let mut stream = DeadlineStream::wrap(Broken, Deadline::from_millis(250));
        let err = stream.read(&mut [0u8; 8]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
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

    fn drive_writes(plan: NetChaosPlan, payload: &[u8]) -> (Vec<u8>, NetInjectionLog, bool) {
        let mut socket = ChaosSocket::new(Vec::new(), plan);
        let mut wrote_all = true;
        let mut offset = 0;
        while offset < payload.len() {
            let step = (payload.len() - offset).min(97);
            match socket.write(&payload[offset..offset + step]) {
                Ok(n) => offset += n,
                Err(_) => {
                    wrote_all = false;
                    break;
                }
            }
        }
        let log = socket.log();
        (socket.into_inner(), log, wrote_all)
    }

    #[test]
    fn chaos_socket_is_deterministic() {
        let payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let plan = NetChaosPlan::corrupting(42);
        let (a, log_a, _) = drive_writes(plan.clone(), &payload);
        let (b, log_b, _) = drive_writes(plan, &payload);
        assert_eq!(a, b);
        assert_eq!(log_a, log_b);
        assert!(log_a.corrupted_bytes > 0, "corruption plan never fired");
        assert_ne!(a, payload, "corrupting plan left the bytes untouched");
    }

    #[test]
    fn benign_chaos_preserves_bytes_under_write_all_loops() {
        let payload: Vec<u8> = (0..4096u32).map(|i| (i * 7 % 256) as u8).collect();
        let (out, log, wrote_all) = drive_writes(NetChaosPlan::benign(7), &payload);
        assert!(wrote_all);
        assert_eq!(out, payload, "benign plan must not alter delivered bytes");
        assert!(log.partial_writes > 0, "partial-write fault never fired");
    }

    #[test]
    fn reseeded_plans_fault_at_different_positions() {
        let plan = NetChaosPlan::corrupting(42);
        assert_ne!(plan.reseeded(1).seed, plan.reseeded(2).seed);
        assert_eq!(plan.reseeded(1), plan.reseeded(1));
    }

    #[test]
    fn chaos_socket_disconnects_mid_stream() {
        let plan = NetChaosPlan {
            seed: 3,
            faults: vec![NetFault::DisconnectAfter { bytes: 100 }],
        };
        let payload = vec![0xabu8; 256];
        let (out, log, wrote_all) = drive_writes(plan, &payload);
        assert!(!wrote_all, "disconnect fault never fired");
        assert!(log.disconnected);
        assert_eq!(
            out.len(),
            100,
            "disconnect must tear mid-write, not skip it"
        );
    }

    #[test]
    fn backoff_is_deterministic_and_grows_to_the_cap() {
        let mut a = Backoff::new(11, Duration::from_millis(100), Duration::from_secs(5));
        let mut b = Backoff::new(11, Duration::from_millis(100), Duration::from_secs(5));
        let delays: Vec<Duration> = (0..8).map(|_| a.next_delay()).collect();
        let replay: Vec<Duration> = (0..8).map(|_| b.next_delay()).collect();
        assert_eq!(delays, replay);
        for (i, d) in delays.iter().enumerate() {
            let nominal = Duration::from_millis(100 << i.min(6)).min(Duration::from_secs(5));
            assert!(*d >= nominal / 2, "delay {i} below jitter floor: {d:?}");
            assert!(
                *d <= nominal * 3 / 2,
                "delay {i} above jitter ceiling: {d:?}"
            );
        }
        assert!(
            delays[7] >= Duration::from_millis(2500),
            "cap never approached"
        );
    }

    #[test]
    fn backoff_reset_restarts_the_schedule() {
        let mut backoff = Backoff::dial(5);
        let first = backoff.next_delay();
        backoff.next_delay();
        backoff.reset();
        assert_eq!(backoff.next_delay(), first);
    }

    #[test]
    fn dial_with_backoff_retries_until_success() {
        let mut calls = 0;
        let mut retries = Vec::new();
        let result = dial_with_backoff(
            5,
            &mut Backoff::new(1, Duration::from_millis(1), Duration::from_millis(2)),
            || {
                calls += 1;
                if calls < 3 {
                    Err(io::Error::new(io::ErrorKind::ConnectionRefused, "nope"))
                } else {
                    Ok(calls)
                }
            },
            |attempt, _, _| retries.push(attempt),
        );
        assert_eq!(result.unwrap(), 3);
        assert_eq!(retries, vec![1, 2]);
    }

    #[test]
    fn dial_with_backoff_surfaces_the_last_error() {
        let err = dial_with_backoff(
            3,
            &mut Backoff::new(1, Duration::from_millis(1), Duration::from_millis(2)),
            || -> io::Result<()> {
                Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    "still down",
                ))
            },
            |_, _, _| {},
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn tcp_deadline_fires_on_a_silent_peer() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // The peer connects and stays silent.
        let peer = std::net::TcpStream::connect(addr).unwrap();
        let (conn, _) = listener.accept().unwrap();
        let mut stream = DeadlineStream::new(
            conn,
            Deadline {
                read: Some(Duration::from_millis(50)),
                write: None,
            },
        )
        .unwrap();
        let started = Instant::now();
        let err = stream.read(&mut [0u8; 16]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(started.elapsed() < Duration::from_secs(5), "read blocked");
        drop(peer);
    }
}
