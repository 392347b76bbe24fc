//! The partition-slice driver and its `SYNDIST` message protocol.
//!
//! A **slice** is one `(year, source-partition)` pair. [`run_slice`] replays
//! the whole year's stream through the fault gate and the admit filter, and
//! collects only the sources with `shard_of(src, parts) == part`, checkpointing
//! its full `SYNCKPT` state into [`Message::Progress`] frames as it goes.
//! [`merge_slices`] recombines the partials through
//! [`YearAnalysis::merge_partials`], bit-identically to the sequential year:
//! the partials are the same partials an in-process `Sharded { workers:
//! parts }` run produces, created with the same global origin and size hints.
//!
//! No process in this repository speaks the protocol any more: the decade
//! runs in one process (`Experiment::decade`). Every slice replays its whole
//! year, so each extra process redid the full stream for `1/parts` of the
//! useful work, and on a two-core box a second process could at best tie.
//! The driver, the six [`Message`] kinds and [`merge_slices`] remain as the
//! checkpoint-framing workload the benchmark measures.

use std::io::{Read, Write};

use synscan_wire::stream::{FaultCounters, FaultPolicy, TryRecordStream};

use crate::analysis::{YearAnalysis, YearCollector};
use crate::campaign::CampaignConfig;
use crate::checkpoint::{Checkpoint, CheckpointError, SnapReader, SnapWriter};
use crate::envelope::{read_frame, write_frame, EnvelopeError};
use crate::pipeline::feed::{Feed, SinkPlan};
use crate::pipeline::{AdmitState, PipelineError, PipelineMode, RunSpec, SizeHints};

/// Protocol version spoken in [`Message::Hello`]. Independent of the frame
/// envelope's version: the envelope carries bytes, this governs their
/// meaning.
pub const PROTO_VERSION: u32 = 1;

/// One assignable unit of distributed work: one year, one source partition
/// out of `parts`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SliceSpec {
    /// Calendar year of the slice's stream.
    pub year: u16,
    /// This slice's partition index, `0..parts`.
    pub part: u32,
    /// Total source partitions the year is split into.
    pub parts: u32,
}

impl std::fmt::Display for SliceSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/p{}of{}", self.year, self.part, self.parts)
    }
}

/// Plan the slice set for a run: every year crossed with every partition.
/// Slices are ordered partition-major within a year so the work-stealing
/// queue hands each year's partitions to different workers first — the
/// merge for a year can finish while later years still compute.
pub fn plan_slices(years: &[u16], parts: u32) -> Vec<SliceSpec> {
    let parts = parts.max(1);
    let mut slices = Vec::with_capacity(years.len() * parts as usize);
    for &year in years {
        for part in 0..parts {
            slices.push(SliceSpec { year, part, parts });
        }
    }
    slices
}

/// Why a distributed-protocol operation failed. Every decode, I/O, and
/// state problem maps here as data — a malformed or truncated frame must
/// never panic either peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistribError {
    /// The frame envelope was unreadable (I/O, magic, checksum, length).
    Envelope(EnvelopeError),
    /// A frame payload did not decode as its announced message kind.
    Checkpoint(CheckpointError),
    /// The pipeline under a slice failed (stream fault under strict
    /// policy).
    Pipeline(PipelineError),
    /// A structurally valid frame that breaks the protocol state machine
    /// (unknown kind, unexpected message, bad UTF-8 label, …).
    Protocol(String),
    /// The peer reported a slice failure.
    Remote {
        /// The slice the peer failed on.
        slice: SliceSpec,
        /// The peer's stringified error.
        message: String,
    },
}

impl std::fmt::Display for DistribError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistribError::Envelope(e) => write!(f, "distrib frame {e}"),
            DistribError::Checkpoint(e) => write!(f, "distrib payload error: {e}"),
            DistribError::Pipeline(e) => write!(f, "distrib pipeline error: {e}"),
            DistribError::Protocol(what) => write!(f, "distrib protocol violation: {what}"),
            DistribError::Remote { slice, message } => {
                write!(f, "worker failed slice {slice}: {message}")
            }
        }
    }
}

impl std::error::Error for DistribError {}

impl From<EnvelopeError> for DistribError {
    fn from(e: EnvelopeError) -> Self {
        DistribError::Envelope(e)
    }
}

impl From<CheckpointError> for DistribError {
    fn from(e: CheckpointError) -> Self {
        DistribError::Checkpoint(e)
    }
}

impl From<PipelineError> for DistribError {
    fn from(e: PipelineError) -> Self {
        DistribError::Pipeline(e)
    }
}

const KIND_HELLO: u8 = 1;
const KIND_ASSIGN: u8 = 2;
const KIND_PROGRESS: u8 = 3;
const KIND_PARTIAL: u8 = 4;
const KIND_FAILED: u8 = 5;
const KIND_SHUTDOWN: u8 = 6;

/// One protocol message. The `job` and checkpoint fields are opaque byte
/// blobs at this layer: the job spec is encoded by the binary layer (it
/// names generator scale, seed, chaos, …— synthesis-level concepts), and
/// checkpoints are whole `SYNCKPT` images ([`Checkpoint::to_bytes`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Worker greeting: protocol version + a human-readable label.
    Hello {
        /// The worker's [`PROTO_VERSION`].
        proto: u32,
        /// Diagnostic label (binary name + pid, free-form).
        worker: String,
    },
    /// Coordinator → worker: compute this slice.
    Assign {
        /// The slice to compute.
        slice: SliceSpec,
        /// Checkpoint cadence in pulled records (0 = no checkpoints).
        every: u64,
        /// Drill knob: abort the worker process after streaming this many
        /// checkpoints for the slice (the CI kill-one-worker drill).
        die_after_checkpoints: Option<u64>,
        /// Opaque job spec (generator config, policy, …).
        job: Vec<u8>,
        /// Serialized [`Checkpoint`] to resume from, if the slice was
        /// partially computed by a lost worker.
        resume: Option<Vec<u8>>,
    },
    /// Worker → coordinator: a mid-slice checkpoint (the coordinator's
    /// retry state for this slice).
    Progress {
        /// The active slice.
        slice: SliceSpec,
        /// Stream records consumed at the cut.
        cursor: u64,
        /// Serialized [`Checkpoint`].
        checkpoint: Vec<u8>,
    },
    /// Worker → coordinator: the finished slice.
    Partial {
        /// The finished slice.
        slice: SliceSpec,
        /// Total stream records consumed.
        cursor: u64,
        /// Encoded partial [`YearAnalysis`] (`store::encode_year`), absent
        /// when the stream admitted no records at all.
        analysis: Option<Vec<u8>>,
        /// Final [`AdmitState`] snapshot (capture statistics).
        admit_state: Vec<u8>,
        /// What the fault gate swallowed over the whole stream.
        faults: FaultCounters,
    },
    /// Worker → coordinator: the slice failed; the worker remains usable.
    Failed {
        /// The failed slice.
        slice: SliceSpec,
        /// Stringified error.
        message: String,
    },
    /// Coordinator → worker: no more slices; exit cleanly.
    Shutdown,
}

fn put_slice(w: &mut SnapWriter, slice: &SliceSpec) {
    w.put_u16(slice.year);
    w.put_u32(slice.part);
    w.put_u32(slice.parts);
}

fn take_slice(r: &mut SnapReader) -> Result<SliceSpec, CheckpointError> {
    Ok(SliceSpec {
        year: r.take_u16()?,
        part: r.take_u32()?,
        parts: r.take_u32()?,
    })
}

fn put_opt_bytes(w: &mut SnapWriter, bytes: Option<&[u8]>) {
    match bytes {
        None => w.put_u8(0),
        Some(b) => {
            w.put_u8(1);
            w.put_bytes(b);
        }
    }
}

fn take_opt_bytes(r: &mut SnapReader) -> Result<Option<Vec<u8>>, CheckpointError> {
    match r.take_u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.take_bytes()?.to_vec())),
        tag => Err(CheckpointError::Corrupt(format!(
            "invalid option tag {tag} in distrib payload"
        ))),
    }
}

impl Message {
    fn kind(&self) -> u8 {
        match self {
            Message::Hello { .. } => KIND_HELLO,
            Message::Assign { .. } => KIND_ASSIGN,
            Message::Progress { .. } => KIND_PROGRESS,
            Message::Partial { .. } => KIND_PARTIAL,
            Message::Failed { .. } => KIND_FAILED,
            Message::Shutdown => KIND_SHUTDOWN,
        }
    }

    fn encode_payload(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        match self {
            Message::Hello { proto, worker } => {
                w.put_u32(*proto);
                w.put_bytes(worker.as_bytes());
            }
            Message::Assign {
                slice,
                every,
                die_after_checkpoints,
                job,
                resume,
            } => {
                put_slice(&mut w, slice);
                w.put_u64(*every);
                w.put_opt_u64(*die_after_checkpoints);
                w.put_bytes(job);
                put_opt_bytes(&mut w, resume.as_deref());
            }
            Message::Progress {
                slice,
                cursor,
                checkpoint,
            } => {
                put_slice(&mut w, slice);
                w.put_u64(*cursor);
                w.put_bytes(checkpoint);
            }
            Message::Partial {
                slice,
                cursor,
                analysis,
                admit_state,
                faults,
            } => {
                put_slice(&mut w, slice);
                w.put_u64(*cursor);
                put_opt_bytes(&mut w, analysis.as_deref());
                w.put_bytes(admit_state);
                w.put_faults(faults);
            }
            Message::Failed { slice, message } => {
                put_slice(&mut w, slice);
                w.put_bytes(message.as_bytes());
            }
            Message::Shutdown => {}
        }
        w.into_bytes()
    }

    fn decode(kind: u8, payload: &[u8]) -> Result<Self, DistribError> {
        let mut r = SnapReader::new(payload);
        let message = match kind {
            KIND_HELLO => Message::Hello {
                proto: r.take_u32()?,
                worker: take_string(&mut r, "worker label")?,
            },
            KIND_ASSIGN => Message::Assign {
                slice: take_slice(&mut r)?,
                every: r.take_u64()?,
                die_after_checkpoints: r.take_opt_u64()?,
                job: r.take_bytes()?.to_vec(),
                resume: take_opt_bytes(&mut r)?,
            },
            KIND_PROGRESS => Message::Progress {
                slice: take_slice(&mut r)?,
                cursor: r.take_u64()?,
                checkpoint: r.take_bytes()?.to_vec(),
            },
            KIND_PARTIAL => Message::Partial {
                slice: take_slice(&mut r)?,
                cursor: r.take_u64()?,
                analysis: take_opt_bytes(&mut r)?,
                admit_state: r.take_bytes()?.to_vec(),
                faults: r.take_faults()?,
            },
            KIND_FAILED => Message::Failed {
                slice: take_slice(&mut r)?,
                message: take_string(&mut r, "failure message")?,
            },
            KIND_SHUTDOWN => Message::Shutdown,
            other => {
                return Err(DistribError::Protocol(format!(
                    "unknown frame kind {other}"
                )))
            }
        };
        r.finish(&format!("message of kind {kind}"))?;
        Ok(message)
    }
}

fn take_string(r: &mut SnapReader, what: &str) -> Result<String, DistribError> {
    let bytes = r.take_bytes()?;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| DistribError::Protocol(format!("{what} is not UTF-8")))
}

/// Send one message over a frame pipe (writes and flushes one frame).
pub fn send(w: &mut impl Write, message: &Message) -> Result<(), DistribError> {
    write_frame(w, message.kind(), &message.encode_payload())?;
    Ok(())
}

/// Receive one message. `Ok(None)` means the peer closed cleanly between
/// frames; every malformed byte sequence is a typed error.
pub fn recv(r: &mut impl Read) -> Result<Option<Message>, DistribError> {
    match read_frame(r)? {
        None => Ok(None),
        Some((kind, payload)) => Message::decode(kind, &payload).map(Some),
    }
}

/// Everything a worker needs to drive one slice, independent of how the
/// stream and admit filter are built (the binary layer owns those).
#[derive(Debug, Clone, Copy)]
pub struct SliceTask {
    /// The slice being computed.
    pub slice: SliceSpec,
    /// Campaign thresholds (scaled to the telescope).
    pub config: CampaignConfig,
    /// Volatility period length, days.
    pub period_days: f64,
    /// Whole-stream size hints; the driver applies the per-partition share.
    pub hints: SizeHints,
    /// Fault policy for the gate.
    pub policy: FaultPolicy,
    /// Generator seed (checkpoint identity).
    pub seed: u64,
    /// Checkpoint cadence in pulled records (0 = none).
    pub every: u64,
}

/// What one finished slice produced.
#[derive(Debug)]
pub struct SliceOutcome {
    /// The partial analysis (absent when the partition admitted nothing).
    pub analysis: Option<YearAnalysis>,
    /// Gate fault tally over the whole stream.
    pub faults: FaultCounters,
    /// Stream records consumed.
    pub cursor: u64,
    /// Checkpoints emitted through the callback.
    pub checkpoints: u64,
}

/// Drive one `(year, partition)` slice over a full year stream.
///
/// This is the pipeline's one feed loop with an inline, partition-filtered
/// sink: the fault gate and the admit filter see **every** record (so fault
/// counters, capture statistics, and the origin timestamp are global), but
/// only records whose source hashes into this slice's partition reach the
/// collector. Checkpoints — complete single-shard `SYNCKPT` images — are
/// handed to `on_checkpoint` at batch boundaries every `task.every` pulled
/// records; the coordinator keeps the newest as the slice's retry state.
///
/// With `resume`, the checkpoint is identity-validated against
/// `(year, task.seed, 1)`, the admit filter and gate are restored, and the
/// stream is fast-forwarded by exactly `cursor` records — a short or
/// misaligned replay is a typed mismatch, not a silently wrong resume.
pub fn run_slice<S, A>(
    task: &SliceTask,
    resume: Option<&Checkpoint>,
    stream: &mut S,
    admit: &mut A,
    on_checkpoint: &mut dyn FnMut(&Checkpoint) -> Result<(), DistribError>,
) -> Result<SliceOutcome, DistribError>
where
    S: TryRecordStream + ?Sized,
    A: AdmitState + ?Sized,
{
    let slice = task.slice;
    let spec = RunSpec {
        year: slice.year,
        config: task.config,
        period_days: task.period_days,
        mode: PipelineMode::Sequential,
        hints: task.hints,
        policy: task.policy,
        identity: task.seed,
    };
    let mut feed = Feed::start(&spec, on_checkpoint);
    feed.every = task.every;
    let restored = match resume {
        Some(ck) => feed.resume(ck, 1, stream, admit)?,
        None => Vec::new(),
    };
    let partition = Some((slice.part as usize, slice.parts.max(1) as usize));
    let plan = SinkPlan::Inline { partition };
    let (_, analysis) = feed.drive(plan, restored, stream, admit)?;
    Ok(SliceOutcome {
        analysis,
        faults: feed.faults(),
        cursor: feed.cursor,
        checkpoints: feed.written,
    })
}

/// Merge a year's slice partials back into the full-year analysis —
/// [`YearAnalysis::merge_partials`] with the sharded pipeline's
/// empty-partition fallback, so a year whose stream admitted nothing still
/// produces the (empty) analysis the sequential run would.
pub fn merge_slices(
    year: u16,
    config: CampaignConfig,
    period_days: f64,
    partials: Vec<YearAnalysis>,
) -> YearAnalysis {
    if partials.is_empty() {
        YearCollector::with_period(year, config, period_days).finish()
    } else {
        YearAnalysis::merge_partials(partials)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::FilterAdmit;
    use crate::pipeline::{try_collect_year_stream, PipelineMode};
    use synscan_wire::stream::{SliceStream, StreamError};
    use synscan_wire::{Ipv4Address, ProbeRecord, TcpFlags};

    fn cfg() -> CampaignConfig {
        CampaignConfig {
            min_distinct_dests: 5,
            min_rate_pps: 10.0,
            expiry_secs: 3600.0,
            monitored_addresses: 1 << 16,
        }
    }

    /// Same deterministic mix as the pipeline tests: 40 sources, two ports.
    fn records() -> Vec<ProbeRecord> {
        (0..4000u32)
            .map(|i| ProbeRecord {
                ts_micros: u64::from(i) * 997,
                src_ip: Ipv4Address(0x0a00_0000 + (i % 40) * 7),
                dst_ip: Ipv4Address(0x0b00_0000 + i * 13 % 5000),
                src_port: 40_000,
                dst_port: if i % 3 == 0 { 23 } else { 443 },
                seq: i ^ 0xdead_beef,
                ip_id: if i % 5 == 0 { 54_321 } else { 7 },
                ttl: 55,
                flags: TcpFlags::SYN,
                window: 1024,
            })
            .collect()
    }

    fn task(slice: SliceSpec, every: u64) -> SliceTask {
        SliceTask {
            slice,
            config: cfg(),
            period_days: 7.0,
            hints: SizeHints::sources(64),
            policy: FaultPolicy::Fail,
            seed: 42,
            every,
        }
    }

    fn run_part(
        recs: &[ProbeRecord],
        slice: SliceSpec,
        every: u64,
        sink: &mut Vec<Checkpoint>,
    ) -> SliceOutcome {
        let mut stream = SliceStream::with_batch_size(recs, 257);
        let mut admit = FilterAdmit(|r: &ProbeRecord| r.dst_port != 23);
        run_slice(
            &task(slice, every),
            None,
            &mut stream,
            &mut admit,
            &mut |ck| {
                sink.push(ck.clone());
                Ok(())
            },
        )
        .expect("slice runs clean")
    }

    fn sequential(recs: &[ProbeRecord]) -> YearAnalysis {
        let mut stream = SliceStream::with_batch_size(recs, 257);
        try_collect_year_stream(
            2020,
            cfg(),
            7.0,
            PipelineMode::Sequential,
            SizeHints::sources(64),
            FaultPolicy::Fail,
            &mut stream,
            |r| r.dst_port != 23,
        )
        .expect("sequential reference")
        .analysis
    }

    #[test]
    fn merged_slices_match_the_sequential_run_for_any_partition_count() {
        let recs = records();
        let expected = sequential(&recs);
        for parts in [1u32, 2, 4, 7] {
            let partials: Vec<YearAnalysis> = (0..parts)
                .filter_map(|part| {
                    let slice = SliceSpec {
                        year: 2020,
                        part,
                        parts,
                    };
                    run_part(&recs, slice, 0, &mut Vec::new()).analysis
                })
                .collect();
            let merged = merge_slices(2020, cfg(), 7.0, partials);
            assert_eq!(expected, merged, "parts = {parts}");
        }
    }

    #[test]
    fn slice_resume_from_any_checkpoint_reproduces_the_partial() {
        let recs = records();
        let slice = SliceSpec {
            year: 2020,
            part: 1,
            parts: 4,
        };
        let mut cuts = Vec::new();
        let reference = run_part(&recs, slice, 500, &mut cuts);
        assert!(
            cuts.len() >= 3,
            "expected several checkpoints, got {}",
            cuts.len()
        );
        let expected = reference.analysis.expect("partition is non-empty");
        for ck in &cuts {
            // Round-trip the checkpoint through its wire form first.
            let restored = Checkpoint::from_bytes(&ck.to_bytes()).expect("checkpoint roundtrip");
            let mut stream = SliceStream::with_batch_size(&recs, 257);
            let mut admit = FilterAdmit(|r: &ProbeRecord| r.dst_port != 23);
            let resumed = run_slice(
                &task(slice, 0),
                Some(&restored),
                &mut stream,
                &mut admit,
                &mut |_| Ok(()),
            )
            .expect("resumed slice runs clean");
            assert_eq!(
                resumed.analysis.as_ref(),
                Some(&expected),
                "resume from cursor {}",
                restored.header.cursor
            );
            assert_eq!(resumed.cursor, reference.cursor);
        }
    }

    #[test]
    fn resume_rejects_a_foreign_checkpoint() {
        let recs = records();
        let slice = SliceSpec {
            year: 2020,
            part: 0,
            parts: 2,
        };
        let mut cuts = Vec::new();
        run_part(&recs, slice, 1000, &mut cuts);
        let ck = cuts.first().expect("one checkpoint");
        let mut stream = SliceStream::with_batch_size(&recs, 257);
        let mut admit = FilterAdmit(|_: &ProbeRecord| true);
        let mut wrong = task(slice, 0);
        wrong.seed = 43;
        let err = run_slice(&wrong, Some(ck), &mut stream, &mut admit, &mut |_| Ok(()))
            .expect_err("foreign seed must be rejected");
        assert_eq!(
            err,
            DistribError::Checkpoint(CheckpointError::Mismatch {
                field: "identity",
                expected: 43,
                found: 42,
            })
        );
    }

    #[test]
    fn strict_policy_surfaces_stream_faults_as_typed_errors() {
        struct Faulty;
        impl TryRecordStream for Faulty {
            fn try_next_batch(&mut self) -> Result<Option<&[ProbeRecord]>, StreamError> {
                Err(StreamError::Truncated { records_seen: 0 })
            }
        }
        let slice = SliceSpec {
            year: 2020,
            part: 0,
            parts: 2,
        };
        let mut admit = FilterAdmit(|_: &ProbeRecord| true);
        let err = run_slice(&task(slice, 0), None, &mut Faulty, &mut admit, &mut |_| {
            Ok(())
        })
        .expect_err("strict policy is fatal");
        assert_eq!(
            err,
            DistribError::Pipeline(PipelineError::Stream(StreamError::Truncated {
                records_seen: 0
            }))
        );
    }

    #[test]
    fn plan_slices_crosses_years_with_partitions() {
        let slices = plan_slices(&[2015, 2016], 3);
        assert_eq!(slices.len(), 6);
        assert_eq!(
            slices[0],
            SliceSpec {
                year: 2015,
                part: 0,
                parts: 3
            }
        );
        assert_eq!(
            slices[5],
            SliceSpec {
                year: 2016,
                part: 2,
                parts: 3
            }
        );
        // Degenerate partition counts clamp to one slice per year.
        assert_eq!(plan_slices(&[2020], 0).len(), 1);
    }

    #[test]
    fn messages_roundtrip_through_the_frame_pipe() {
        let slice = SliceSpec {
            year: 2021,
            part: 3,
            parts: 8,
        };
        let messages = vec![
            Message::Hello {
                proto: PROTO_VERSION,
                worker: "repro[1234]".into(),
            },
            Message::Assign {
                slice,
                every: 500_000,
                die_after_checkpoints: Some(1),
                job: vec![1, 2, 3],
                resume: Some(vec![9; 40]),
            },
            Message::Assign {
                slice,
                every: 0,
                die_after_checkpoints: None,
                job: Vec::new(),
                resume: None,
            },
            Message::Progress {
                slice,
                cursor: 12_345,
                checkpoint: vec![7; 128],
            },
            Message::Partial {
                slice,
                cursor: 99_999,
                analysis: Some(vec![4; 256]),
                admit_state: vec![8; 56],
                faults: FaultCounters {
                    records_skipped: 1,
                    duplicates_dropped: 2,
                    bytes_dropped: 3,
                    streams_truncated: 4,
                },
            },
            Message::Partial {
                slice,
                cursor: 0,
                analysis: None,
                admit_state: Vec::new(),
                faults: FaultCounters::default(),
            },
            Message::Failed {
                slice,
                message: "stream truncated".into(),
            },
            Message::Shutdown,
        ];
        let mut pipe = Vec::new();
        for message in &messages {
            send(&mut pipe, message).unwrap();
        }
        let mut r = std::io::Cursor::new(pipe);
        for message in &messages {
            assert_eq!(recv(&mut r).unwrap().as_ref(), Some(message));
        }
        assert_eq!(recv(&mut r).unwrap(), None);
    }

    #[test]
    fn malformed_frames_yield_typed_errors_never_panics() {
        let assign = Message::Assign {
            slice: SliceSpec {
                year: 2020,
                part: 0,
                parts: 4,
            },
            every: 1,
            die_after_checkpoints: None,
            job: vec![5; 32],
            resume: None,
        };
        let mut clean = Vec::new();
        send(&mut clean, &assign).unwrap();

        // Unknown kind byte: envelope-valid, protocol-invalid.
        let mut frame = Vec::new();
        write_frame(&mut frame, 77, b"whatever").unwrap();
        match recv(&mut std::io::Cursor::new(frame)).unwrap_err() {
            DistribError::Protocol(what) => assert!(what.contains("unknown frame kind 77")),
            other => panic!("expected Protocol, got {other:?}"),
        }

        // Truncation at every prefix of a real message: each cut is a typed
        // frame error (mid-envelope) — never a panic, never Ok.
        for cut in 1..clean.len() {
            let err = recv(&mut std::io::Cursor::new(clean[..cut].to_vec()))
                .expect_err("truncated frame must error");
            assert!(
                matches!(err, DistribError::Envelope(_)),
                "cut {cut}: got {err:?}"
            );
        }

        // A frame whose payload is internally truncated (checksum fixed up):
        // payload decode fails with a typed checkpoint-codec error.
        let payload = assign.encode_payload();
        for cut in 0..payload.len() {
            let mut frame = Vec::new();
            write_frame(&mut frame, KIND_ASSIGN, &payload[..cut]).unwrap();
            let err = recv(&mut std::io::Cursor::new(frame)).expect_err("short payload");
            assert!(
                matches!(err, DistribError::Checkpoint(_) | DistribError::Protocol(_)),
                "cut {cut}: got {err:?}"
            );
        }

        // Trailing garbage after a valid message body.
        let mut padded = assign.encode_payload();
        padded.extend_from_slice(&[0xee; 3]);
        let mut frame = Vec::new();
        write_frame(&mut frame, KIND_ASSIGN, &padded).unwrap();
        match recv(&mut std::io::Cursor::new(frame)).unwrap_err() {
            DistribError::Checkpoint(CheckpointError::Corrupt(what)) => {
                assert!(what.contains("trailing bytes"))
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }

        // A flipped payload bit is caught by the envelope checksum.
        let mut flipped = clean.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert_eq!(
            recv(&mut std::io::Cursor::new(flipped)).unwrap_err(),
            DistribError::Envelope(EnvelopeError::ChecksumMismatch)
        );

        // A non-UTF-8 worker label is a protocol violation, not a panic.
        let mut w = SnapWriter::new();
        w.put_u32(PROTO_VERSION);
        w.put_bytes(&[0xff, 0xfe, 0x80]);
        let mut frame = Vec::new();
        write_frame(&mut frame, KIND_HELLO, &w.into_bytes()).unwrap();
        match recv(&mut std::io::Cursor::new(frame)).unwrap_err() {
            DistribError::Protocol(what) => assert!(what.contains("not UTF-8")),
            other => panic!("expected Protocol, got {other:?}"),
        }
    }

    #[test]
    fn malformed_and_truncated_frames_yield_typed_errors_never_panics() {
        let read_back = |bytes: &[u8]| recv(&mut std::io::Cursor::new(bytes));
        let hello = Message::Hello {
            proto: PROTO_VERSION,
            worker: "have you SYN me?".into(),
        };
        let mut frame = Vec::new();
        send(&mut frame, &hello).expect("in-memory frame");
        assert_eq!(read_back(&frame), Ok(Some(hello)));
        let envelope_error = |e: EnvelopeError| Err(DistribError::Envelope(e));

        // Truncation at every byte boundary: empty input is a clean close,
        // dying anywhere inside the header or the payload is Truncated. No cut
        // may panic.
        for cut in 0..frame.len() {
            match read_back(&frame[..cut]) {
                Ok(None) => assert_eq!(cut, 0, "only EOF-between-frames is a clean close"),
                Err(DistribError::Envelope(EnvelopeError::Truncated)) => {
                    assert_ne!(cut, 0, "EOF between frames is clean")
                }
                other => panic!("cut at {cut}: unexpected {other:?}"),
            }
        }

        // Corrupted magic.
        let mut bad = frame.clone();
        bad[0] ^= 0xff;
        assert_eq!(read_back(&bad), envelope_error(EnvelopeError::BadMagic));

        // Unsupported frame version (this build reads only version 2).
        let mut bad = frame.clone();
        bad[8..12].copy_from_slice(&11u32.to_le_bytes());
        assert_eq!(
            read_back(&bad),
            envelope_error(EnvelopeError::UnsupportedVersion {
                found: 11,
                expected: 2
            })
        );

        // A length field past the cap must be rejected before any allocation.
        let mut bad = frame.clone();
        bad[13..21].copy_from_slice(&u64::MAX.to_le_bytes());
        let oversized = envelope_error(EnvelopeError::Oversized(u64::MAX));
        assert_eq!(read_back(&bad), oversized);

        // Payload, checksum-field and kind-byte corruption all fail the
        // checksum: the kind is summed with the payload, so a flipped kind can
        // never pass for another message.
        for (at, what) in [(29, "payload"), (21, "checksum"), (12, "kind")] {
            let mut bad = frame.clone();
            bad[at] ^= 0x01;
            let rotten = envelope_error(EnvelopeError::ChecksumMismatch);
            assert_eq!(read_back(&bad), rotten, "{what} byte {at}");
        }
    }

    #[test]
    fn empty_partition_merges_to_the_empty_year() {
        let merged = merge_slices(2020, cfg(), 7.0, Vec::new());
        assert_eq!(merged.total_packets, 0);
        assert_eq!(merged.distinct_sources, 0);
        // And it matches what a sequential run over an admit-nothing stream
        // produces.
        let recs = records();
        let mut stream = SliceStream::new(&recs);
        let sequential_empty = try_collect_year_stream(
            2020,
            cfg(),
            7.0,
            PipelineMode::Sequential,
            SizeHints::none(),
            FaultPolicy::Fail,
            &mut stream,
            |_| false,
        )
        .unwrap()
        .analysis;
        assert_eq!(merged, sequential_empty);
    }
}
