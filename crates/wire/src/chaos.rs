//! Deterministic fault injection for record streams and capture bytes.
//!
//! A decade of telescope pcap decays in predictable ways: duplicate flushes,
//! bitrot, torn tails, clock jitter. This module reproduces that decay *on
//! purpose and reproducibly*: a [`ChaosPlan`] is a seed plus a list of
//! [`Fault`]s, and every injection site is a pure function of
//! `(seed, fault, position)` — the same plan over the same input corrupts the
//! same offsets on every run, so a failing chaos test is replayable from its
//! seed alone.
//!
//! Three injection layers, matching where real corruption enters:
//!
//! * [`ChaosStream`] wraps a [`RecordStream`] and injects record-level faults
//!   (duplicates, timestamp jitter, mid-stream EOF); it surfaces them through
//!   the fallible [`TryRecordStream`] interface.
//! * [`ChaosReader`] wraps any [`Read`] and injects byte-level faults
//!   (corruption at deterministic offsets, hard truncation) — what bitrot
//!   and torn copies do to the file under the parser.
//! * [`corrupt_pcap`] rewrites a well-formed capture with frame-aware faults
//!   (duplicate records, garbage frames, corrupted ethertypes, torn tails)
//!   so pcap-consuming paths can be exercised end to end.
//!
//! No randomness source is used beyond a splitmix64 mix of the plan seed:
//! the module needs no external dependencies and never consults the clock.

use std::io::{self, Read};

use crate::ingest::PcapSlice;
use crate::pcap::{GlobalHeader, PcapError, PcapWriter, GLOBAL_HEADER_LEN, RECORD_HEADER_LEN};
use crate::probe::ProbeRecord;
use crate::stream::{RecordStream, StreamError, TryRecordStream};

/// One kind of injected fault, with its placement parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Emit every `period`-th record twice, back to back with equal
    /// timestamps — a duplicated capture flush. Benign under deduplication.
    DuplicateRecord {
        /// Inject once per this many records.
        period: u64,
    },
    /// Insert an unparseable garbage frame after every `period`-th record
    /// (pcap-level only). Benign: consumers count it as a non-TCP frame.
    InsertGarbage {
        /// Inject once per this many records.
        period: u64,
    },
    /// Flip the ethertype of every `period`-th frame in place (pcap-level
    /// only). *Not* benign: a real record becomes unparseable and is lost.
    CorruptFrame {
        /// Corrupt once per this many records.
        period: u64,
    },
    /// Perturb every `period`-th record's timestamp by up to `max_micros`
    /// in either direction — clock skew; can break the time-order contract.
    JitterTimestamp {
        /// Jitter once per this many records.
        period: u64,
        /// Maximum perturbation magnitude in microseconds.
        max_micros: u64,
    },
    /// End the stream abruptly after this many records (record-level: a
    /// [`StreamError::Truncated`]; pcap-level: a torn final record).
    MidStreamEof {
        /// Records delivered before the cut.
        after_records: u64,
    },
    /// XOR a nonzero mask into every `period`-th byte past `skip`
    /// (byte-level only) — bitrot at deterministic offsets.
    CorruptBytes {
        /// Corrupt one byte per this many bytes.
        period: u64,
        /// Leave this many leading bytes untouched.
        skip: u64,
    },
    /// Hard-truncate the byte stream at this absolute offset (byte-level
    /// only) — a copy cut short.
    TruncateBytesAt {
        /// Absolute byte offset of the cut.
        offset: u64,
    },
}

/// A seeded, declarative fault-injection plan.
///
/// The same plan applied to the same input always injects at the same
/// offsets with the same values.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChaosPlan {
    /// Seed from which every injection site and value is derived.
    pub seed: u64,
    /// Faults to inject; empty means byte-identical passthrough.
    pub faults: Vec<Fault>,
}

impl ChaosPlan {
    /// A plan that injects nothing — wrappers become identity adapters.
    pub fn noop(seed: u64) -> Self {
        Self {
            seed,
            faults: Vec::new(),
        }
    }

    /// Faults that a skip-policy consumer recovers from *losslessly*:
    /// adjacent duplicates only. Analysis over the faulted stream must equal
    /// analysis over the clean one.
    pub fn benign(seed: u64) -> Self {
        Self {
            seed,
            faults: vec![Fault::DuplicateRecord { period: 7 }],
        }
    }

    /// Sparse byte-level bitrot for [`ChaosReader`]: one corrupted byte per
    /// 4 KiB, sparing the global header so the file still opens.
    pub fn byte_noise(seed: u64) -> Self {
        Self {
            seed,
            faults: vec![Fault::CorruptBytes {
                period: 4096,
                skip: 64,
            }],
        }
    }

    /// The same faults under a seed mixed with `salt` — distinct reproducible
    /// offsets per shard or per year from one user-facing seed.
    pub fn reseeded(&self, salt: u64) -> Self {
        Self {
            seed: mix64(self.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            faults: self.faults.clone(),
        }
    }
}

/// Tally of injections actually performed by a wrapper or rewriter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InjectionLog {
    /// Records emitted twice.
    pub duplicates: u64,
    /// Timestamps perturbed.
    pub jittered: u64,
    /// Garbage frames inserted.
    pub garbage_frames: u64,
    /// Real frames corrupted in place.
    pub corrupted_frames: u64,
    /// Bytes XOR-corrupted.
    pub corrupted_bytes: u64,
    /// Streams cut short.
    pub truncations: u64,
}

impl InjectionLog {
    /// Whether anything was injected at all.
    pub fn any(&self) -> bool {
        *self != InjectionLog::default()
    }
}

/// splitmix64 finalizer: the sole source of chaos values. Stateless — every
/// injection derives its value from `(seed, position)` so replay is exact.
/// Shared with [`crate::net`] so transport faults draw from the same well.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Whether a periodic fault fires at `index`. The phase within the period is
/// seed-derived (per fault kind via `tag`) so different seeds hit different,
/// but fixed, offsets.
pub(crate) fn hits(seed: u64, tag: u64, period: u64, index: u64) -> bool {
    let period = period.max(1);
    index % period == mix64(seed ^ tag) % period
}

/// Seed-derived signed jitter in `[-max, +max]`, applied with saturation.
fn jitter_ts(seed: u64, index: u64, ts: u64, max_micros: u64) -> u64 {
    let draw = mix64(seed ^ index.wrapping_mul(0x2545_f491_4f6c_dd1d));
    let magnitude = draw % (max_micros + 1);
    if draw & (1 << 63) == 0 {
        ts.saturating_add(magnitude)
    } else {
        ts.saturating_sub(magnitude)
    }
}

const TAG_DUPLICATE: u64 = 0x01;
const TAG_GARBAGE: u64 = 0x02;
const TAG_CORRUPT_FRAME: u64 = 0x03;
const TAG_JITTER: u64 = 0x04;

/// Record-level fault injector over any [`RecordStream`].
///
/// Implements [`TryRecordStream`]: benign faults reshape batches, while
/// [`Fault::MidStreamEof`] surfaces as [`StreamError::Truncated`] *after*
/// the records preceding the cut have been delivered.
#[derive(Debug)]
pub struct ChaosStream<S: RecordStream> {
    inner: S,
    plan: ChaosPlan,
    index: u64,
    out: Vec<ProbeRecord>,
    log: InjectionLog,
    pending_error: Option<StreamError>,
    done: bool,
}

impl<S: RecordStream> ChaosStream<S> {
    /// Wrap `inner`, injecting per `plan`.
    pub fn new(inner: S, plan: ChaosPlan) -> Self {
        Self {
            inner,
            plan,
            index: 0,
            out: Vec::new(),
            log: InjectionLog::default(),
            pending_error: None,
            done: false,
        }
    }

    /// What has been injected so far.
    pub fn log(&self) -> &InjectionLog {
        &self.log
    }

    fn push_record(&mut self, record: ProbeRecord) {
        let seed = self.plan.seed;
        let i = self.index;
        let mut record = record;
        for fault in &self.plan.faults {
            match *fault {
                Fault::JitterTimestamp { period, max_micros }
                    if hits(seed, TAG_JITTER, period, i) =>
                {
                    record.ts_micros = jitter_ts(seed, i, record.ts_micros, max_micros);
                    self.log.jittered += 1;
                }
                _ => {}
            }
        }
        self.out.push(record);
        for fault in &self.plan.faults {
            if let Fault::DuplicateRecord { period } = *fault {
                if hits(seed, TAG_DUPLICATE, period, i) {
                    self.out.push(record);
                    self.log.duplicates += 1;
                }
            }
        }
        self.index += 1;
    }

    fn cut_after(&self) -> Option<u64> {
        self.plan.faults.iter().find_map(|f| match *f {
            Fault::MidStreamEof { after_records } => Some(after_records),
            _ => None,
        })
    }
}

impl<S: RecordStream> TryRecordStream for ChaosStream<S> {
    fn try_next_batch(&mut self) -> Result<Option<&[ProbeRecord]>, StreamError> {
        if let Some(e) = self.pending_error.take() {
            self.done = true;
            return Err(e);
        }
        if self.done {
            return Ok(None);
        }
        self.out.clear();
        let cut = self.cut_after();
        match self.inner.next_batch() {
            None => {
                self.done = true;
                Ok(None)
            }
            Some(batch) => {
                let records: Vec<ProbeRecord> = batch.to_vec();
                for record in records {
                    if let Some(after) = cut {
                        if self.index >= after {
                            self.log.truncations += 1;
                            self.pending_error = Some(StreamError::Truncated {
                                records_seen: self.index,
                            });
                            break;
                        }
                    }
                    self.push_record(record);
                }
                if self.out.is_empty() {
                    match self.pending_error.take() {
                        Some(e) => {
                            self.done = true;
                            Err(e)
                        }
                        // Inner batches are non-empty by contract, so an
                        // empty output only happens at the cut point.
                        None => {
                            self.done = true;
                            Ok(None)
                        }
                    }
                } else {
                    Ok(Some(&self.out))
                }
            }
        }
    }

    fn len_hint(&self) -> Option<u64> {
        // Injection changes the count; the hint is only a pre-sizing aid.
        self.inner.len_hint()
    }
}

/// Byte-level fault injector over any [`Read`] — bitrot and torn copies as
/// they reach the parser.
///
/// With a no-op plan the wrapper is a byte-identical passthrough.
#[derive(Debug)]
pub struct ChaosReader<R: Read> {
    inner: R,
    plan: ChaosPlan,
    offset: u64,
    log: InjectionLog,
}

impl<R: Read> ChaosReader<R> {
    /// Wrap `inner`, injecting per `plan`.
    pub fn new(inner: R, plan: ChaosPlan) -> Self {
        Self {
            inner,
            plan,
            offset: 0,
            log: InjectionLog::default(),
        }
    }

    /// What has been injected so far.
    pub fn log(&self) -> &InjectionLog {
        &self.log
    }

    fn truncate_at(&self) -> Option<u64> {
        self.plan.faults.iter().find_map(|f| match *f {
            Fault::TruncateBytesAt { offset } => Some(offset),
            _ => None,
        })
    }
}

impl<R: Read> Read for ChaosReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut allowed = buf.len();
        if let Some(cut) = self.truncate_at() {
            if self.offset >= cut {
                if self.log.truncations == 0 {
                    self.log.truncations = 1;
                }
                return Ok(0);
            }
            allowed = allowed.min((cut - self.offset) as usize);
        }
        let n = self.inner.read(&mut buf[..allowed])?;
        for fault in &self.plan.faults {
            if let Fault::CorruptBytes { period, skip } = *fault {
                let period = period.max(1);
                for (i, byte) in buf[..n].iter_mut().enumerate() {
                    let pos = self.offset + i as u64;
                    if pos >= skip && (pos - skip).is_multiple_of(period) {
                        // `| 1` keeps the mask nonzero so the byte changes.
                        *byte ^= (mix64(self.plan.seed ^ pos) as u8) | 1;
                        self.log.corrupted_bytes += 1;
                    }
                }
            }
        }
        self.offset += n as u64;
        Ok(n)
    }
}

/// Rewrite a well-formed capture with frame-aware faults: duplicated
/// records, inserted garbage frames, in-place ethertype corruption,
/// timestamp jitter, and a torn final record for [`Fault::MidStreamEof`].
///
/// Returns the corrupted bytes and a log of what was injected. The input
/// must parse cleanly (it is the *output* that is broken on purpose).
pub fn corrupt_pcap(bytes: &[u8], plan: &ChaosPlan) -> Result<(Vec<u8>, InjectionLog), PcapError> {
    let meta = GlobalHeader::read(&mut &bytes[..])?;
    let mut records = PcapSlice::records(&bytes[GLOBAL_HEADER_LEN..], meta);
    let mut writer =
        PcapWriter::new(Vec::new(), meta.linktype).expect("writing to Vec<u8> cannot fail");
    let mut log = InjectionLog::default();
    // One frame buffer, reused: a record is copied only to be rewritten.
    let mut data = Vec::new();
    let mut index: u64 = 0;
    let mut tear_output_at: Option<usize> = None;
    let cut = plan.faults.iter().find_map(|f| match *f {
        Fault::MidStreamEof { after_records } => Some(after_records),
        _ => None,
    });
    while let Some(rec) = records.next_frame()? {
        if let Some(after) = cut {
            if index >= after {
                // Torn tail: full record header, half the promised body.
                let written_so_far = writer.buffered_len();
                writer
                    .write_record(rec.ts_micros, rec.data)
                    .expect("writing to Vec<u8> cannot fail");
                log.truncations += 1;
                tear_output_at = Some(written_so_far + RECORD_HEADER_LEN + rec.data.len() / 2);
                break;
            }
        }
        let mut ts = rec.ts_micros;
        data.clear();
        data.extend_from_slice(rec.data);
        for fault in &plan.faults {
            match *fault {
                Fault::JitterTimestamp { period, max_micros }
                    if hits(plan.seed, TAG_JITTER, period, index) =>
                {
                    ts = jitter_ts(plan.seed, index, ts, max_micros);
                    log.jittered += 1;
                }
                Fault::CorruptFrame { period }
                    if hits(plan.seed, TAG_CORRUPT_FRAME, period, index) && data.len() > 13 =>
                {
                    // Flip the ethertype: the frame no longer parses as IPv4.
                    data[12] ^= 0xff;
                    log.corrupted_frames += 1;
                }
                _ => {}
            }
        }
        writer
            .write_record(ts, &data)
            .expect("writing to Vec<u8> cannot fail");
        for fault in &plan.faults {
            match *fault {
                Fault::DuplicateRecord { period }
                    if hits(plan.seed, TAG_DUPLICATE, period, index) =>
                {
                    writer
                        .write_record(ts, &data)
                        .expect("writing to Vec<u8> cannot fail");
                    log.duplicates += 1;
                }
                Fault::InsertGarbage { period } if hits(plan.seed, TAG_GARBAGE, period, index) => {
                    // 16 bytes of seed-derived noise: too short for an
                    // Ethernet header, so consumers count it as non-TCP.
                    let mut garbage = [0u8; 16];
                    for (i, b) in garbage.iter_mut().enumerate() {
                        *b = mix64(plan.seed ^ index ^ (i as u64) << 32) as u8;
                    }
                    writer
                        .write_record(ts, &garbage)
                        .expect("writing to Vec<u8> cannot fail");
                    log.garbage_frames += 1;
                }
                _ => {}
            }
        }
        index += 1;
    }
    let mut out = writer.into_inner().expect("writing to Vec<u8> cannot fail");
    if let Some(at) = tear_output_at {
        out.truncate(at);
    }
    Ok((out, log))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{FaultPolicy, SliceStream};
    use crate::tcp::TcpFlags;
    use crate::Ipv4Address;
    use std::io::Cursor;

    fn record(ts: u64) -> ProbeRecord {
        ProbeRecord {
            ts_micros: ts,
            src_ip: Ipv4Address(10),
            dst_ip: Ipv4Address(20),
            src_port: 1,
            dst_port: 2,
            seq: 3,
            ip_id: 4,
            ttl: 5,
            flags: TcpFlags::SYN,
            window: 6,
        }
    }

    fn drain(stream: &mut dyn TryRecordStream) -> Result<Vec<ProbeRecord>, StreamError> {
        let mut all = Vec::new();
        while let Some(batch) = stream.try_next_batch()? {
            all.extend_from_slice(batch);
        }
        Ok(all)
    }

    #[test]
    fn noop_plan_is_identity() {
        let records: Vec<ProbeRecord> = (0..100u64).map(|i| record(i * 10)).collect();
        let inner = SliceStream::with_batch_size(&records, 7);
        let mut chaos = ChaosStream::new(inner, ChaosPlan::noop(42));
        assert_eq!(drain(&mut chaos).unwrap(), records);
        assert!(!chaos.log().any());
    }

    #[test]
    fn duplicates_are_adjacent_and_deterministic() {
        let records: Vec<ProbeRecord> = (0..50u64).map(|i| record(i * 10)).collect();
        let plan = ChaosPlan::benign(7);
        let run = |batch: usize| {
            let inner = SliceStream::with_batch_size(&records, batch);
            let mut chaos = ChaosStream::new(inner, plan.clone());
            let out = drain(&mut chaos).unwrap();
            (out, *chaos.log())
        };
        let (out_a, log_a) = run(8);
        let (out_b, log_b) = run(50);
        assert_eq!(out_a, out_b, "injection is batch-size independent");
        assert_eq!(log_a, log_b);
        assert!(log_a.duplicates > 0);
        assert_eq!(out_a.len(), records.len() + log_a.duplicates as usize);
        // Every injected duplicate sits right after its original.
        let mut dupes = 0;
        for pair in out_a.windows(2) {
            if pair[0] == pair[1] {
                dupes += 1;
            }
        }
        assert_eq!(dupes, log_a.duplicates);
        // A different seed lands on different offsets.
        let inner = SliceStream::new(&records);
        let mut other = ChaosStream::new(inner, ChaosPlan::benign(8));
        let out_c = drain(&mut other).unwrap();
        assert_ne!(out_a, out_c);
    }

    #[test]
    fn mid_stream_eof_yields_prefix_then_error() {
        let records: Vec<ProbeRecord> = (0..30u64).map(|i| record(i * 10)).collect();
        let plan = ChaosPlan {
            seed: 1,
            faults: vec![Fault::MidStreamEof { after_records: 12 }],
        };
        let inner = SliceStream::with_batch_size(&records, 5);
        let mut chaos = ChaosStream::new(inner, plan);
        let mut seen = Vec::new();
        let err = loop {
            match chaos.try_next_batch() {
                Ok(Some(batch)) => seen.extend_from_slice(batch),
                Ok(None) => panic!("stream must error, not end cleanly"),
                Err(e) => break e,
            }
        };
        assert_eq!(
            seen,
            records[..12].to_vec(),
            "prefix delivered before the cut"
        );
        assert_eq!(err, StreamError::Truncated { records_seen: 12 });
        assert!(
            chaos.try_next_batch().unwrap().is_none(),
            "terminal after error"
        );
    }

    #[test]
    fn jitter_is_bounded_and_seeded() {
        let records: Vec<ProbeRecord> = (0..40u64).map(|i| record(1_000_000 + i * 5)).collect();
        let plan = ChaosPlan {
            seed: 99,
            faults: vec![Fault::JitterTimestamp {
                period: 3,
                max_micros: 50,
            }],
        };
        let inner = SliceStream::new(&records);
        let mut chaos = ChaosStream::new(inner, plan);
        let out = drain(&mut chaos).unwrap();
        assert_eq!(out.len(), records.len());
        assert!(chaos.log().jittered > 0);
        for (a, b) in records.iter().zip(&out) {
            assert!(a.ts_micros.abs_diff(b.ts_micros) <= 50);
        }
    }

    #[test]
    fn chaos_reader_noop_is_byte_identical() {
        let data: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        let mut reader = ChaosReader::new(Cursor::new(&data), ChaosPlan::noop(3));
        let mut out = Vec::new();
        reader.read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
        assert!(!reader.log().any());
    }

    #[test]
    fn chaos_reader_corrupts_fixed_offsets() {
        let data = vec![0u8; 10_000];
        let plan = ChaosPlan {
            seed: 5,
            faults: vec![Fault::CorruptBytes {
                period: 1000,
                skip: 100,
            }],
        };
        let read_all = |chunk: usize| {
            let mut reader = ChaosReader::new(Cursor::new(&data), plan.clone());
            let mut out = Vec::new();
            let mut buf = vec![0u8; chunk];
            loop {
                let n = reader.read(&mut buf).unwrap();
                if n == 0 {
                    break;
                }
                out.extend_from_slice(&buf[..n]);
            }
            (out, *reader.log())
        };
        let (out_a, log_a) = read_all(77);
        let (out_b, log_b) = read_all(4096);
        assert_eq!(out_a, out_b, "corruption is chunk-size independent");
        assert_eq!(log_a, log_b);
        assert_eq!(log_a.corrupted_bytes, 10);
        let flipped: Vec<usize> = out_a
            .iter()
            .enumerate()
            .filter(|(_, b)| **b != 0)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(flipped.len(), 10);
        assert!(flipped.iter().all(|&i| i >= 100 && (i - 100) % 1000 == 0));
    }

    #[test]
    fn chaos_reader_truncates_at_offset() {
        let data = vec![7u8; 500];
        let plan = ChaosPlan {
            seed: 0,
            faults: vec![Fault::TruncateBytesAt { offset: 123 }],
        };
        let mut reader = ChaosReader::new(Cursor::new(&data), plan);
        let mut out = Vec::new();
        reader.read_to_end(&mut out).unwrap();
        assert_eq!(out.len(), 123);
        assert_eq!(reader.log().truncations, 1);
    }

    /// FNV-1a over `bytes`: a digest that is stable across toolchains. The
    /// rewrites below are pinned to what `corrupt_pcap` produced when it
    /// still read its input through a record-at-a-time reader.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn corrupt_pcap_injects_frame_level_faults() {
        use crate::pcap::LINKTYPE_ETHERNET;
        let mut writer = PcapWriter::new(Vec::new(), LINKTYPE_ETHERNET).unwrap();
        for i in 0..20u64 {
            writer.write_record(i * 1000, &[0x11u8; 60]).unwrap();
        }
        let clean = writer.into_inner().unwrap();
        let plan = ChaosPlan {
            seed: 11,
            faults: vec![
                Fault::DuplicateRecord { period: 5 },
                Fault::InsertGarbage { period: 6 },
                Fault::CorruptFrame { period: 9 },
            ],
        };
        let (dirty, log) = corrupt_pcap(&clean, &plan).unwrap();
        assert!(log.duplicates > 0 && log.garbage_frames > 0 && log.corrupted_frames > 0);
        let (dirty2, log2) = corrupt_pcap(&clean, &plan).unwrap();
        assert_eq!(dirty, dirty2, "rewriting is deterministic");
        assert_eq!((dirty.len(), fnv1a(&dirty)), (1944, 11457600728070196904));
        assert_eq!(log, log2);
        // The corrupted capture still *parses* as pcap framing.
        let mut reader = PcapSlice::new(&dirty).unwrap();
        let mut n = 0u64;
        while let Some(_frame) = reader.next_frame().unwrap() {
            n += 1;
        }
        assert_eq!(n, 20 + log.duplicates + log.garbage_frames);
    }

    #[test]
    fn corrupt_pcap_mid_stream_eof_tears_the_tail() {
        use crate::pcap::LINKTYPE_ETHERNET;
        let mut writer = PcapWriter::new(Vec::new(), LINKTYPE_ETHERNET).unwrap();
        for i in 0..10u64 {
            writer.write_record(i * 1000, &[0x22u8; 40]).unwrap();
        }
        let clean = writer.into_inner().unwrap();
        let plan = ChaosPlan {
            seed: 2,
            faults: vec![Fault::MidStreamEof { after_records: 4 }],
        };
        let (dirty, log) = corrupt_pcap(&clean, &plan).unwrap();
        assert_eq!(log.truncations, 1);
        assert_eq!((dirty.len(), fnv1a(&dirty)), (284, 6069679269978182688));
        let mut reader = PcapSlice::new(&dirty).unwrap();
        for _ in 0..4 {
            reader.next_frame().unwrap().unwrap();
        }
        assert_eq!(
            reader.next_frame().unwrap_err(),
            PcapError::TruncatedRecordBody {
                expected: 40,
                got: 20
            }
        );
    }

    #[test]
    fn reseeding_changes_offsets_reproducibly() {
        let plan = ChaosPlan::benign(1234);
        let a = plan.reseeded(2020);
        let b = plan.reseeded(2021);
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.faults, plan.faults);
        assert_eq!(a, plan.reseeded(2020), "reseeding is pure");
    }

    #[test]
    fn fault_policy_is_reexported_for_consumers() {
        // Compile-time sanity that the policy/counters types travel with
        // the chaos module's users.
        assert_eq!(FaultPolicy::default(), FaultPolicy::Fail);
    }
}
