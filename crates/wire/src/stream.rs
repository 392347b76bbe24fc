//! Pull-based, time-ordered, batched record streams.
//!
//! Every layer of the pipeline used to materialize a year's probe stream as
//! one `Vec<ProbeRecord>` before handing it downstream, making peak memory
//! O(year). [`TryRecordStream`] replaces the slice handoff with a pull
//! interface: a source yields records in timestamp order, a batch at a time,
//! and the consumer never sees more than one batch borrowed at once. Any
//! part of a telescope archive can be torn, so a pull may surface a
//! [`StreamError`] instead of a batch. The synthesis generator, the pcap
//! importer, the chaos injector and the measurement pipeline all speak this
//! one trait, so the whole record path from generator to analysis runs in
//! O(batch) memory (plus whatever the *source* inherently needs — e.g. the
//! generator's time-overlapping campaign buffers).
//!
//! The companion [`RecordSink`] is the push side: emitters that used to
//! append to a caller-owned `Vec` are generic over a sink, so the same
//! emission code can fill a buffer, feed a stream batch, or be drained into
//! [`NullSink`] purely for its deterministic RNG side effects.

use crate::pcap::PcapError;
use crate::probe::ProbeRecord;

/// Records per batch a well-behaved stream yields: large enough to amortize
/// per-batch overhead (virtual dispatch, channel sends), small enough that a
/// constant number of in-flight batches stays cache- and memory-friendly.
pub const BATCH_RECORDS: usize = 16 * 1024;

/// What a consumer does when a stream yields a recoverable fault.
///
/// Telescope archives are decayed in practice (torn tails, bitrot, duplicate
/// flushes); the policy decides whether a run is strict, lossy-but-complete,
/// or best-effort-prefix. Whatever the policy drops is tallied in
/// [`FaultCounters`] so no loss is silent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultPolicy {
    /// Surface the first fault as an error and stop (strict; the default).
    #[default]
    Fail,
    /// Drop faulty records (and duplicates / regressions) and keep going.
    SkipRecord,
    /// Treat the first fault as a clean end of stream, keeping the prefix.
    StopClean,
}

impl core::fmt::Display for FaultPolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FaultPolicy::Fail => write!(f, "fail"),
            FaultPolicy::SkipRecord => write!(f, "skip"),
            FaultPolicy::StopClean => write!(f, "stop"),
        }
    }
}

impl core::str::FromStr for FaultPolicy {
    type Err = String;

    fn from_str(s: &str) -> core::result::Result<Self, Self::Err> {
        match s {
            "fail" => Ok(FaultPolicy::Fail),
            "skip" => Ok(FaultPolicy::SkipRecord),
            "stop" => Ok(FaultPolicy::StopClean),
            other => Err(format!(
                "unknown fault policy {other:?} (expected fail, skip, or stop)"
            )),
        }
    }
}

/// Per-run tally of everything a non-strict [`FaultPolicy`] swallowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounters {
    /// Records dropped because they were unparseable or out of order.
    pub records_skipped: u64,
    /// Exact back-to-back duplicate records dropped.
    pub duplicates_dropped: u64,
    /// Capture bytes rendered unusable by skipped faults.
    pub bytes_dropped: u64,
    /// Streams cut short (treated as clean EOF) instead of erroring.
    pub streams_truncated: u64,
}

impl FaultCounters {
    /// Whether any fault was recorded at all.
    pub fn any(&self) -> bool {
        *self != FaultCounters::default()
    }

    /// Fold another tally into this one (shard merge, stream + driver).
    pub fn absorb(&mut self, other: &FaultCounters) {
        self.records_skipped += other.records_skipped;
        self.duplicates_dropped += other.duplicates_dropped;
        self.bytes_dropped += other.bytes_dropped;
        self.streams_truncated += other.streams_truncated;
    }
}

impl core::fmt::Display for FaultCounters {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} records skipped, {} duplicates dropped, {} bytes dropped, {} streams truncated",
            self.records_skipped,
            self.duplicates_dropped,
            self.bytes_dropped,
            self.streams_truncated
        )
    }
}

/// A fault surfaced by a fallible record stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamError {
    /// The underlying pcap framing broke.
    Pcap(PcapError),
    /// The stream ended mid-flight (injected or real mid-stream EOF).
    Truncated {
        /// Records successfully yielded before the cut.
        records_seen: u64,
    },
    /// The time-order contract was violated.
    Unordered {
        /// Timestamp regressions observed.
        violations: u64,
    },
}

impl core::fmt::Display for StreamError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StreamError::Pcap(e) => write!(f, "pcap fault: {e}"),
            StreamError::Truncated { records_seen } => {
                write!(f, "stream truncated after {records_seen} records")
            }
            StreamError::Unordered { violations } => {
                write!(
                    f,
                    "stream violated timestamp order ({violations} regressions)"
                )
            }
        }
    }
}

impl std::error::Error for StreamError {}

impl From<PcapError> for StreamError {
    fn from(e: PcapError) -> Self {
        StreamError::Pcap(e)
    }
}

/// A pull-based source of time-ordered probe records.
///
/// Contract:
/// * records are yielded in non-decreasing `ts_micros` order across the
///   whole stream (batch boundaries are arbitrary);
/// * each pull invalidates the previously returned slice (lending iterator
///   shape — the borrow checker enforces it);
/// * batches are non-empty;
/// * the end is terminal: after `Ok(None)` or an `Err`, every later pull
///   returns `Ok(None)`.
pub trait TryRecordStream {
    /// Yield the next batch, `Ok(None)` on clean exhaustion, or the fault.
    fn try_next_batch(&mut self) -> core::result::Result<Option<&[ProbeRecord]>, StreamError>;
}

/// A pass-through over a borrowed stream. Public only because the benchmark
/// names it; nothing in the workspace wraps a stream in it.
#[derive(Debug)]
pub struct InfallibleStream<'a, S: TryRecordStream + ?Sized>(pub &'a mut S);

impl<S: TryRecordStream + ?Sized> TryRecordStream for InfallibleStream<'_, S> {
    fn try_next_batch(&mut self) -> core::result::Result<Option<&[ProbeRecord]>, StreamError> {
        self.0.try_next_batch()
    }
}

/// A push-based consumer of probe records.
pub trait RecordSink {
    /// Accept one record.
    fn accept(&mut self, record: ProbeRecord);
}

impl RecordSink for Vec<ProbeRecord> {
    fn accept(&mut self, record: ProbeRecord) {
        self.push(record);
    }
}

/// Discards every record. Used to *replay an emitter for its RNG side
/// effects only* — the synthesis planner advances its shared RNG through
/// this sink so lazily re-run emitters observe the exact same draw sequence.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl RecordSink for NullSink {
    fn accept(&mut self, _record: ProbeRecord) {}
}

/// A [`TryRecordStream`] over an in-memory, already-sorted slice — the bridge
/// from materialized buffers (benches, tests) into the streaming pipeline.
#[derive(Debug)]
pub struct SliceStream<'a> {
    records: &'a [ProbeRecord],
    pos: usize,
    batch: usize,
}

impl<'a> SliceStream<'a> {
    /// Stream `records` (must be sorted by `ts_micros`) in
    /// [`BATCH_RECORDS`]-sized batches.
    pub fn new(records: &'a [ProbeRecord]) -> Self {
        Self::with_batch_size(records, BATCH_RECORDS)
    }

    /// As [`SliceStream::new`] with an explicit batch size (tests).
    pub fn with_batch_size(records: &'a [ProbeRecord], batch: usize) -> Self {
        Self {
            records,
            pos: 0,
            batch: batch.max(1),
        }
    }
}

impl TryRecordStream for SliceStream<'_> {
    fn try_next_batch(&mut self) -> core::result::Result<Option<&[ProbeRecord]>, StreamError> {
        if self.pos >= self.records.len() {
            return Ok(None);
        }
        let end = (self.pos + self.batch).min(self.records.len());
        let out = &self.records[self.pos..end];
        self.pos = end;
        Ok(Some(out))
    }
}

/// A free-list of reusable record batch buffers.
///
/// Batch consumers that hand `Vec<ProbeRecord>`s across threads (the sharded
/// pipeline feeder) used to allocate a fresh ~16k-record vector per batch in
/// flight — a steady allocation churn exactly on the hot path. A pool keeps
/// released buffers (cleared, capacity intact) and hands them back on
/// [`BatchPool::acquire`], so steady-state sharded throughput allocates
/// nothing per batch.
#[derive(Debug, Default)]
pub struct BatchPool {
    free: Vec<Vec<ProbeRecord>>,
}

impl BatchPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a cleared buffer with at least `capacity` reserved, reusing a
    /// released one when available.
    pub fn acquire(&mut self, capacity: usize) -> Vec<ProbeRecord> {
        match self.free.pop() {
            Some(mut buf) => {
                buf.clear();
                if buf.capacity() < capacity {
                    buf.reserve(capacity - buf.len());
                }
                buf
            }
            None => Vec::with_capacity(capacity),
        }
    }

    /// Return a buffer to the pool for reuse (contents are discarded).
    pub fn release(&mut self, buf: Vec<ProbeRecord>) {
        self.free.push(buf);
    }

    /// Buffers currently idle in the pool.
    pub fn idle(&self) -> usize {
        self.free.len()
    }
}

/// Fast-forward a fallible stream past (at least) `n` records by pulling
/// whole batches, returning the exact count consumed.
///
/// Checkpoint resume rebuilds the deterministic stream from scratch and
/// skips the records the interrupted run already processed. Because the
/// cursor in a checkpoint is always a sum of whole pulled batches, a
/// faithful replay consumes *exactly* `n` records; callers treat any other
/// return (an early end of stream, or an overshoot from mismatched batch
/// boundaries) as evidence the checkpoint does not belong to this stream.
pub fn skip_records<S: TryRecordStream + ?Sized>(
    stream: &mut S,
    n: u64,
) -> core::result::Result<u64, StreamError> {
    let mut consumed = 0u64;
    while consumed < n {
        match stream.try_next_batch()? {
            Some(batch) => consumed += batch.len() as u64,
            None => break,
        }
    }
    Ok(consumed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpFlags;
    use crate::Ipv4Address;

    fn record(ts: u64) -> ProbeRecord {
        ProbeRecord {
            ts_micros: ts,
            src_ip: Ipv4Address(1),
            dst_ip: Ipv4Address(2),
            src_port: 1,
            dst_port: 2,
            seq: 3,
            ip_id: 4,
            ttl: 5,
            flags: TcpFlags::SYN,
            window: 6,
        }
    }

    /// The sizes of the batches `stream` yields before its end.
    fn batch_sizes(stream: &mut SliceStream<'_>) -> Vec<usize> {
        std::iter::from_fn(|| stream.try_next_batch().unwrap().map(<[_]>::len)).collect()
    }

    #[test]
    fn slice_stream_batches_and_collects_losslessly() {
        let records: Vec<ProbeRecord> = (0..10u64).map(record).collect();
        let mut stream = SliceStream::with_batch_size(&records, 3);
        assert_eq!(batch_sizes(&mut stream), vec![3, 3, 3, 1]);
        assert_eq!(stream.try_next_batch(), Ok(None), "exhaustion is terminal");

        let mut stream = SliceStream::with_batch_size(&records, 4);
        let mut collected = Vec::new();
        while let Some(batch) = stream.try_next_batch().unwrap() {
            collected.extend_from_slice(batch);
        }
        assert_eq!(collected, records);
    }

    #[test]
    fn empty_slice_stream_yields_nothing() {
        let mut stream = SliceStream::new(&[]);
        assert_eq!(stream.try_next_batch(), Ok(None));
    }

    #[test]
    fn slice_stream_at_exactly_one_batch_yields_once() {
        // Batch boundary edge case: len == batch size must yield exactly one
        // full batch, then terminal None — not a full batch plus an empty one.
        let records: Vec<ProbeRecord> = (0..4u64).map(record).collect();
        let mut stream = SliceStream::with_batch_size(&records, 4);
        assert_eq!(batch_sizes(&mut stream), vec![4]);
        assert_eq!(stream.try_next_batch(), Ok(None), "exhaustion is terminal");
    }

    #[test]
    fn skip_records_consumes_whole_batches() {
        let records: Vec<ProbeRecord> = (0..10u64).map(record).collect();

        // A cursor on a batch boundary lands exactly.
        let mut stream = SliceStream::with_batch_size(&records, 3);
        assert_eq!(skip_records(&mut stream, 6), Ok(6));
        assert_eq!(
            stream.try_next_batch().unwrap().map(<[_]>::len),
            Some(3),
            "the stream resumes at the first unskipped batch"
        );

        // A cursor inside a batch overshoots to the batch end; callers treat
        // the mismatch as a foreign checkpoint.
        let mut stream = SliceStream::with_batch_size(&records, 3);
        assert_eq!(skip_records(&mut stream, 5), Ok(6));

        // A cursor past the end of the stream stops at exhaustion.
        let mut stream = SliceStream::with_batch_size(&records, 3);
        assert_eq!(skip_records(&mut stream, 99), Ok(10));

        // Zero is a no-op: nothing is pulled.
        let mut stream = SliceStream::with_batch_size(&records, 3);
        assert_eq!(skip_records(&mut stream, 0), Ok(0));
        assert_eq!(stream.try_next_batch().unwrap().map(<[_]>::len), Some(3));
    }

    #[test]
    fn fault_policy_parses_and_displays() {
        for (text, policy) in [
            ("fail", FaultPolicy::Fail),
            ("skip", FaultPolicy::SkipRecord),
            ("stop", FaultPolicy::StopClean),
        ] {
            assert_eq!(text.parse::<FaultPolicy>().unwrap(), policy);
            assert_eq!(policy.to_string(), text, "one spelling per policy");
        }
        for other in ["lenient", "skip-record", "stop-clean"] {
            assert!(other.parse::<FaultPolicy>().is_err(), "{other}");
        }
        assert_eq!(FaultPolicy::default(), FaultPolicy::Fail);
    }

    #[test]
    fn fault_counters_absorb_and_report() {
        let mut a = FaultCounters::default();
        assert!(!a.any());
        a.records_skipped = 2;
        a.bytes_dropped = 100;
        let b = FaultCounters {
            records_skipped: 1,
            duplicates_dropped: 4,
            bytes_dropped: 11,
            streams_truncated: 1,
        };
        a.absorb(&b);
        assert_eq!(
            a,
            FaultCounters {
                records_skipped: 3,
                duplicates_dropped: 4,
                bytes_dropped: 111,
                streams_truncated: 1,
            }
        );
        assert!(a.any());
        assert!(a.to_string().contains("3 records skipped"));
    }

    #[test]
    fn batch_pool_recycles_capacity() {
        let mut pool = BatchPool::new();
        assert_eq!(pool.idle(), 0);
        // Cold acquire allocates fresh.
        let mut a = pool.acquire(8);
        assert!(a.capacity() >= 8 && a.is_empty());
        a.extend((0..8u64).map(record));
        let cap = a.capacity();
        pool.release(a);
        assert_eq!(pool.idle(), 1);
        // Warm acquire reuses the released buffer, cleared.
        let b = pool.acquire(4);
        assert!(b.is_empty());
        assert_eq!(b.capacity(), cap, "capacity survives the round trip");
        assert_eq!(pool.idle(), 0);
        // A too-small pooled buffer is grown to the requested capacity.
        pool.release(Vec::with_capacity(2));
        let c = pool.acquire(64);
        assert!(c.capacity() >= 64);
    }

    #[test]
    fn sinks_accept_records() {
        let mut vec_sink: Vec<ProbeRecord> = Vec::new();
        vec_sink.accept(record(7));
        assert_eq!(vec_sink.len(), 1);
        NullSink.accept(record(8)); // must not panic, must not retain
    }
}
