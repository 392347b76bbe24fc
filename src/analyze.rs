//! Analysis of externally captured telescope traffic.
//!
//! [`analyze`] runs the paper's full §3 pipeline over any classic-pcap
//! capture of TCP traffic: SYN filtering, tool fingerprinting, campaign
//! detection, and summary statistics. When the telescope's address set is
//! not known, it is inferred from the capture itself in a first, record-free
//! pass — every destination that received unsolicited traffic is dark space,
//! which is exactly how real telescope datasets are delimited.
//!
//! The capture is parsed incrementally, on one decode queue or several
//! ([`AnalyzeOptions::ingest`]), and fed batch-by-batch through the
//! supervised driver in O(batch) memory: no path holds the whole capture.
//! That needs the capture to be time-ordered (real telescope captures are).
//! A one-shot input (stdin, a pipe) is read exactly once, so the dark set
//! cannot be inferred from it: without [`AnalyzeOptions::monitored`] it is
//! refused before a byte is read.
//!
//! Real archives decay, so the analysis takes a [`FaultPolicy`]: strict
//! (`Fail`, the default) turns the first malformed record, truncation, or
//! timestamp regression into a typed [`AnalyzeError`]; `SkipRecord` /
//! `StopClean` degrade gracefully instead and tally everything dropped in
//! [`AnalyzeResult::faults`] so no loss is silent — under `SkipRecord` each
//! record that goes back in time is dropped and counted as skipped.
//!
//! For captures large enough that a crash mid-analysis hurts, the
//! [`RunOptions`] carry the same checkpoint, stop flag and store as an
//! experiment year's: the full pipeline state (including the technique
//! census) checkpoints atomically to a directory, a raised stop flag
//! triggers a final checkpoint, and a resumed run re-reads the capture only
//! to fast-forward the parser, producing output bit-identical to an
//! uninterrupted one — in every ingest mode, with the dark set given or
//! inferred.

use std::collections::{BTreeMap, HashSet};
use std::io::Read;

use crate::experiment::identity_word;
use synscan_core::analysis::{toolports, yearly, YearAnalysis};
use synscan_core::checkpoint::{SnapReader, SnapWriter};
use synscan_core::pipeline::{PipelineError, SizeHints};
use synscan_core::sketch::HeavyHitterConfig;
use synscan_core::store::StoreError;
use synscan_core::{
    run_year_supervised, AdmitState, CampaignConfig, CheckpointError, PipelineMode,
    PipelineOutcome, RunError, RunOptions, RunSpec, RunStatus,
};
use synscan_telescope::capture::{classify_technique, PcapStream, ScanTechnique};
use synscan_wire::ingest::{IngestMode, IngestQueues, MappedCapture};
use synscan_wire::stream::{FaultCounters, FaultPolicy, StreamError, TryRecordStream};
use synscan_wire::{PcapError, ProbeRecord};

/// Options for an external-capture analysis.
#[derive(Debug, Clone)]
pub struct AnalyzeOptions {
    /// Monitored-address count for extrapolations. `None` = infer from the
    /// capture (distinct destinations, counted in a pass of its own).
    pub monitored: Option<u64>,
    /// Label year (affects nothing but reporting; ingress filtering is NOT
    /// applied to external captures — they already passed a real ingress).
    pub year: u16,
    /// How many top ports to summarize.
    pub top_ports: usize,
    /// How the measurement loop executes; sharded and sequential runs
    /// produce bit-identical results.
    pub pipeline: PipelineMode,
    /// What to do when the capture is malformed: fail fast (default), skip
    /// the faulty records, or keep the clean prefix.
    pub policy: FaultPolicy,
    /// How many threads decode the capture: one (`read`, on the calling
    /// thread) or N (`mmap:N`) behind one sequential reader. The records,
    /// counters and terminal error are the same.
    pub ingest: IngestMode,
    /// Sublinear heavy-hitter tracking (`--heavy-hitters`): when set, the
    /// analysis carries a space-saving top-K + count-min sketch over raw
    /// source addresses and the report gains a "network impact" section.
    pub heavy: Option<HeavyHitterConfig>,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        Self {
            monitored: None,
            year: 2024,
            top_ports: 10,
            pipeline: PipelineMode::Sequential,
            policy: FaultPolicy::Fail,
            ingest: IngestMode::default(),
            heavy: None,
        }
    }
}

/// The capture to analyze.
pub enum CaptureInput<'a> {
    /// A capture that can be read from the start any number of times.
    Capture(&'a MappedCapture),
    /// A one-shot byte source (stdin, a pipe). It is read once, so it needs
    /// [`AnalyzeOptions::monitored`] and cannot be checkpointed.
    Reader(Box<dyn Read + Send>),
}

impl CaptureInput<'_> {
    /// A one-shot input over any sendable reader.
    pub fn reader(reader: impl Read + Send + 'static) -> Self {
        CaptureInput::Reader(Box::new(reader))
    }
}

/// Why an external-capture analysis failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyzeError {
    /// The capture could not be parsed as classic pcap.
    Pcap(PcapError),
    /// The capture ended mid-stream (torn tail, injected EOF) under the
    /// strict fault policy.
    Truncated {
        /// Records successfully parsed before the cut.
        records_seen: u64,
    },
    /// The capture is not time-ordered under the strict policy. Under
    /// [`FaultPolicy::SkipRecord`] each record that goes back in time is
    /// dropped and counted instead.
    UnorderedCapture {
        /// Consecutive timestamp inversions observed in the capture.
        violations: u64,
    },
    /// A pipeline shard worker panicked.
    WorkerFailed {
        /// Index of the shard whose worker failed.
        shard: u32,
    },
    /// Persisting or resuming a checkpoint failed.
    Checkpoint(CheckpointError),
    /// The analysis was computed but could not be persisted.
    Store(StoreError),
    /// The dark set was to be inferred from a one-shot input, which would
    /// take a second read of it: refused before a byte is read.
    MonitoredRequired,
    /// A checkpoint was asked for over a one-shot input: a resumed run has
    /// to re-read the capture, and this one cannot be.
    NotReopenable,
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalyzeError::Pcap(e) => write!(
                f,
                "pcap error: {e}; re-run with --fault-policy skip to analyze past it"
            ),
            AnalyzeError::Truncated { records_seen } => write!(
                f,
                "capture truncated after {records_seen} records; re-run with \
                 --fault-policy skip to keep the prefix"
            ),
            AnalyzeError::UnorderedCapture { violations } => write!(
                f,
                "capture is not time-ordered ({violations} timestamp inversions); \
                 re-run with --fault-policy skip to drop and count each record that \
                 goes back in time"
            ),
            AnalyzeError::WorkerFailed { shard } => {
                write!(f, "analysis pipeline worker for shard {shard} failed")
            }
            AnalyzeError::Checkpoint(e) => write!(f, "{}", RunError::Checkpoint(e.clone())),
            AnalyzeError::Store(e) => write!(f, "{e}"),
            AnalyzeError::MonitoredRequired => write!(
                f,
                "the dark set cannot be inferred from a one-shot input (stdin, a pipe), \
                 which is read only once; pass --monitored N or a file"
            ),
            AnalyzeError::NotReopenable => write!(
                f,
                "a checkpointed analysis needs a file input (a resume re-reads the \
                 capture, and stdin cannot be re-read)"
            ),
        }
    }
}

impl std::error::Error for AnalyzeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AnalyzeError::Pcap(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PcapError> for AnalyzeError {
    fn from(e: PcapError) -> Self {
        AnalyzeError::Pcap(e)
    }
}

impl From<StreamError> for AnalyzeError {
    fn from(e: StreamError) -> Self {
        match e {
            StreamError::Pcap(e) => AnalyzeError::Pcap(e),
            StreamError::Truncated { records_seen } => AnalyzeError::Truncated { records_seen },
            StreamError::Unordered { violations } => AnalyzeError::UnorderedCapture { violations },
        }
    }
}

impl From<RunError> for AnalyzeError {
    fn from(e: RunError) -> Self {
        match e {
            RunError::Pipeline(PipelineError::Stream(e)) => e.into(),
            RunError::Pipeline(PipelineError::WorkerFailed { shard }) => {
                AnalyzeError::WorkerFailed { shard }
            }
            RunError::Checkpoint(e) => AnalyzeError::Checkpoint(e),
            RunError::Store(e) => AnalyzeError::Store(e),
        }
    }
}

/// The result of analyzing one capture.
#[derive(Debug)]
pub struct AnalyzeResult {
    /// Full per-year-style analysis bundle.
    pub analysis: YearAnalysis,
    /// Table-1-style summary.
    pub summary: yearly::YearSummary,
    /// Frames per §3.1 scan technique (before the SYN filter).
    pub techniques: BTreeMap<&'static str, u64>,
    /// Frames that were not IPv4/TCP at all.
    pub non_tcp_frames: u64,
    /// The monitored-address count used for extrapolation.
    pub monitored: u64,
    /// Everything the fault policy skipped or cut short to produce this
    /// result — zero across the board for a clean capture.
    pub faults: FaultCounters,
}

/// Open `reader` as a record stream on the decode queues `options` asks
/// for.
fn open(
    reader: Box<dyn Read + Send>,
    options: &AnalyzeOptions,
) -> Result<PcapStream<Box<dyn Read + Send>>, PcapError> {
    Ok(IngestQueues::over(reader, options.ingest.queues, options.policy)?.spawn())
}

/// Count the distinct probed destinations of a capture in one streaming
/// pass — the monitored-address inference without holding any records.
/// Under a lossy policy a malformed capture still infers from every record
/// the policy could salvage; the analysis pass meets (and tallies) the same
/// faults again.
fn infer_monitored(capture: &MappedCapture, options: &AnalyzeOptions) -> Result<u64, AnalyzeError> {
    let mut stream = open(capture.reader(), options)?;
    let mut dsts = HashSet::new();
    while let Some(batch) = stream.try_next_batch()? {
        dsts.extend(batch.iter().map(|record| record.dst_ip.0));
    }
    Ok(dsts.len() as u64)
}

/// Run the pipeline over a capture: infer the dark set when
/// `options.monitored` is absent, open the capture on the decode queues
/// `options.ingest` asks for, and stream it once through the driver — plain
/// under `RunOptions::default()`, checkpointed, interruptible and persisted
/// as `run` says.
///
/// With resuming [`CheckpointOptions`](synscan_core::CheckpointOptions) the
/// analysis restarts from its latest checkpoint in the directory and the
/// finished result is bit-identical to an uninterrupted run's. The
/// checkpoint's identity word covers the capture's byte length, the
/// monitored-address count, the fault policy and the heavy-hitter
/// configuration, so a resume against another capture or under other
/// options is a typed mismatch.
pub fn analyze(
    input: CaptureInput<'_>,
    options: &AnalyzeOptions,
    run: &RunOptions<'_>,
) -> Result<RunStatus<AnalyzeResult>, AnalyzeError> {
    // Two things read a capture more than once, a resume and the dark-set
    // inference, and a one-shot input serves neither. `len` is the byte
    // length of a re-readable capture (0 for a one-shot one).
    let (monitored, len, reader) = match (input, options.monitored) {
        (CaptureInput::Reader(_), _) if run.checkpoint.is_some() => {
            return Err(AnalyzeError::NotReopenable)
        }
        (CaptureInput::Reader(_), None) => return Err(AnalyzeError::MonitoredRequired),
        (CaptureInput::Reader(reader), Some(monitored)) => (monitored, 0, reader),
        (CaptureInput::Capture(capture), monitored) => {
            let monitored = match monitored {
                Some(monitored) => monitored,
                None => infer_monitored(capture, options)?,
            };
            (monitored, capture.len(), capture.reader())
        }
    };
    let identity = format!("{len} {monitored} {:?} {:?}", options.policy, options.heavy);
    let spec = RunSpec {
        year: options.year,
        config: CampaignConfig::scaled(monitored.max(1)),
        period_days: 7.0,
        mode: options.pipeline,
        hints: SizeHints::none().with_heavy(options.heavy),
        policy: options.policy,
        identity: identity_word(identity.as_bytes()),
    };
    let mut stream = open(reader, options)?;
    // The SYN filter doubles as the technique census.
    let mut census = TechniqueAdmit::default();
    let status = run_year_supervised(&spec, run, &mut stream, &mut census)?;
    // The parser's own tallies, which the driver never sees. A resumed run
    // re-reads the whole capture (the fast-forward replays it), so they
    // cover the full file either way.
    let (mut faults, non_tcp_frames) = (stream.faults(), stream.non_tcp_frames());
    Ok(status.map(|outcome: PipelineOutcome| {
        faults.absorb(&outcome.faults);
        AnalyzeResult {
            summary: yearly::summarize(&outcome.analysis, options.top_ports),
            techniques: census.census(),
            non_tcp_frames,
            monitored,
            analysis: outcome.analysis,
            faults,
        }
    }))
}

/// The §3.1 techniques and their report labels, in snapshot order; `Other`
/// last so unknown flag combinations index safely.
const TECHNIQUES: [(ScanTechnique, &str); 7] = [
    (ScanTechnique::Syn, "syn"),
    (ScanTechnique::Fin, "fin"),
    (ScanTechnique::Null, "null"),
    (ScanTechnique::Xmas, "xmas"),
    (ScanTechnique::Ack, "ack"),
    (ScanTechnique::Backscatter, "backscatter"),
    (ScanTechnique::Other, "other"),
];

/// [`AdmitState`] adapter for the capture analysis: the SYN filter doubles
/// as the technique census, and both survive a checkpoint/resume cycle.
#[derive(Debug, Default)]
struct TechniqueAdmit {
    counts: [u64; TECHNIQUES.len()],
}

impl TechniqueAdmit {
    fn census(&self) -> BTreeMap<&'static str, u64> {
        TECHNIQUES
            .iter()
            .zip(self.counts)
            .filter(|(_, n)| *n > 0)
            .map(|((_, label), n)| (*label, n))
            .collect()
    }
}

impl AdmitState for TechniqueAdmit {
    fn admit(&mut self, record: &ProbeRecord) -> bool {
        let technique = classify_technique(record.flags);
        let idx = TECHNIQUES
            .iter()
            .position(|(t, _)| *t == technique)
            .unwrap_or(TECHNIQUES.len() - 1);
        self.counts[idx] += 1;
        technique == ScanTechnique::Syn
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        for n in self.counts {
            w.put_u64(n);
        }
        w.into_bytes()
    }

    fn restore(&mut self, blob: &[u8]) -> Result<(), CheckpointError> {
        let mut r = SnapReader::new(blob);
        for slot in &mut self.counts {
            *slot = r.take_u64()?;
        }
        r.finish("technique census")
    }
}

/// Render the result as the text report the `analyze` binary prints.
pub fn render_report(result: &AnalyzeResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let a = &result.analysis;
    let _ = writeln!(out, "capture summary");
    let _ = writeln!(out, "  scan packets       {}", a.total_packets);
    let _ = writeln!(out, "  distinct sources   {}", a.distinct_sources);
    let _ = writeln!(out, "  monitored (dark)   {}", result.monitored);
    let _ = writeln!(out, "  window             {:.2} days", a.window_days());
    let _ = writeln!(out, "  frame techniques   {:?}", result.techniques);
    if result.non_tcp_frames > 0 {
        let _ = writeln!(out, "  non-TCP frames     {}", result.non_tcp_frames);
    }
    if result.faults.any() {
        let _ = writeln!(out, "  capture faults     {}", result.faults);
    }
    let _ = writeln!(out, "\ncampaigns ({}):", a.campaigns.len());
    let model = a.model();
    for campaign in a.campaigns.iter().take(25) {
        let est = campaign.estimates(&model);
        let _ = writeln!(
            out,
            "  {:<16} {:>8} pkts {:>6} ports  tool {:<8} est {:>12.0} pps  cov {:>7.3}%",
            campaign.src_ip.to_string(),
            campaign.packets,
            campaign.distinct_ports(),
            campaign.tool().map(|t| t.name()).unwrap_or("-"),
            est.rate_pps,
            est.ipv4_coverage * 100.0
        );
    }
    if a.campaigns.len() > 25 {
        let _ = writeln!(out, "  ... and {} more", a.campaigns.len() - 25);
    }
    let _ = writeln!(out, "\ntop ports by packets:");
    for (port, share) in &result.summary.top_ports_by_packets {
        let name = synscan_netmodel::service_name(*port).unwrap_or("-");
        let _ = writeln!(out, "  {:>5} {:<18} {:>5.1}%", port, name, share * 100.0);
    }
    let tracked = toolports::tracked_tool_traffic_share(a);
    let _ = writeln!(
        out,
        "\ntracked tools carry {:.1}% of the scan traffic",
        tracked * 100.0
    );
    if let Some(impact) = synscan_core::report::network_impact_of(a) {
        let _ = writeln!(
            out,
            "\nnetwork impact (top-{k} of {n} sources, sketch {bytes} B, \
             \u{3b5}N \u{2264} {err:.1})",
            k = impact.config.k,
            n = impact.tracked_sources,
            bytes = impact.sketch_bytes,
            err = impact.epsilon * impact.total_packets as f64,
        );
        for entry in impact.top_by_packets.iter().take(10) {
            let _ = writeln!(
                out,
                "  {:<16} {:>10} pkts (err \u{2264}{:>6}) {:>10.1} pps  tool {}",
                entry.source, entry.packets, entry.count_error, entry.pps, entry.tool,
            );
        }
        let p = &impact.rate_percentiles;
        let _ = writeln!(
            out,
            "  source pps percentiles  p50 {:.2}  p90 {:.2}  p99 {:.2}  max {:.2}",
            p.p50, p.p90, p.p99, p.max
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use synscan_core::CheckpointOptions;
    use synscan_scanners::traits::craft_record;
    use synscan_scanners::zmap::ZmapScanner;
    use synscan_telescope::capture::export_pcap;
    use synscan_wire::chaos::{ChaosPlan, ChaosReader};
    use synscan_wire::Ipv4Address;

    /// A plain analysis of an in-memory capture.
    fn analyze_bytes(
        bytes: Vec<u8>,
        options: &AnalyzeOptions,
    ) -> Result<AnalyzeResult, AnalyzeError> {
        let capture = MappedCapture::from_bytes(bytes);
        let status = analyze(
            CaptureInput::Capture(&capture),
            options,
            &RunOptions::default(),
        )?;
        Ok(status.completed().expect("nothing interrupts a plain run"))
    }

    fn capture_bytes() -> Vec<u8> {
        let z = ZmapScanner::new(5);
        let records: Vec<ProbeRecord> = (0..200u64)
            .map(|i| {
                craft_record(
                    &z,
                    Ipv4Address::new(203, 0, 113, 5),
                    Ipv4Address(0x0a64_0000 + (i as u32 % 100)),
                    443,
                    i,
                    i * 50_000,
                    9,
                )
            })
            .collect();
        export_pcap(&records, Vec::new()).unwrap()
    }

    #[test]
    fn analyzes_an_external_capture_end_to_end() {
        let bytes = capture_bytes();
        let result = analyze_bytes(bytes, &AnalyzeOptions::default()).expect("valid pcap");
        assert_eq!(result.analysis.total_packets, 200);
        assert_eq!(result.monitored, 100, "dark set inferred from capture");
        assert_eq!(result.techniques["syn"], 200);
        assert_eq!(result.analysis.campaigns.len(), 1);
        assert_eq!(
            result.analysis.campaigns[0].tool(),
            Some(synscan_core::ToolKind::Zmap)
        );
        assert!(!result.faults.any(), "clean capture reports no faults");
        let report = render_report(&result);
        assert!(report.contains("zmap"));
        assert!(report.contains("443"));
        assert!(!report.contains("capture faults"));
    }

    #[test]
    fn unordered_capture_is_an_error_under_fail_and_counted_under_skip() {
        let z = ZmapScanner::new(5);
        let records: Vec<ProbeRecord> = (0..50u64)
            .map(|i| {
                craft_record(
                    &z,
                    Ipv4Address::new(203, 0, 113, 5),
                    Ipv4Address(0x0a64_0000 + (i as u32 % 10)),
                    443,
                    i,
                    (50 - i) * 50_000, // decreasing timestamps
                    9,
                )
            })
            .collect();
        let bytes = export_pcap(&records, Vec::new()).unwrap();
        let strict = AnalyzeOptions {
            monitored: Some(10),
            ..AnalyzeOptions::default()
        };
        let err = analyze_bytes(bytes.clone(), &strict)
            .expect_err("unordered capture must not stream under fail");
        assert!(matches!(err, AnalyzeError::UnorderedCapture { violations } if violations > 0));
        assert!(err.to_string().contains("--fault-policy skip"));

        // Every record after the first goes back in time: each is dropped
        // and counted, and the first alone is analyzed.
        let skipped = analyze_bytes(
            bytes,
            &AnalyzeOptions {
                policy: FaultPolicy::SkipRecord,
                ..strict
            },
        )
        .expect("skip drops each regression");
        assert_eq!(skipped.analysis.total_packets, 1);
        assert_eq!(skipped.faults.records_skipped, 49);
    }

    #[test]
    fn explicit_monitored_count_overrides_inference() {
        let bytes = capture_bytes();
        let result = analyze_bytes(
            bytes,
            &AnalyzeOptions {
                monitored: Some(71_536),
                ..AnalyzeOptions::default()
            },
        )
        .unwrap();
        assert_eq!(result.monitored, 71_536);
    }

    #[test]
    fn garbage_input_is_an_error_not_a_panic() {
        for policy in [
            FaultPolicy::Fail,
            FaultPolicy::SkipRecord,
            FaultPolicy::StopClean,
        ] {
            let result = analyze_bytes(
                vec![0u8; 100],
                &AnalyzeOptions {
                    policy,
                    ..AnalyzeOptions::default()
                },
            );
            // Without a valid global header there is nothing to recover to,
            // under any policy.
            assert!(matches!(result, Err(AnalyzeError::Pcap(_))), "{policy}");
        }
    }

    #[test]
    fn truncated_capture_fails_strictly_and_skips_gracefully() {
        let mut bytes = capture_bytes();
        bytes.truncate(bytes.len() - 11); // tear into the final frame
        let strict = AnalyzeOptions {
            monitored: Some(100),
            ..AnalyzeOptions::default()
        };
        let err = analyze_bytes(bytes.clone(), &strict).unwrap_err();
        assert!(matches!(
            err,
            AnalyzeError::Pcap(PcapError::TruncatedRecordBody { .. })
        ));
        assert!(err.to_string().contains("--fault-policy skip"));

        let result = analyze_bytes(
            bytes,
            &AnalyzeOptions {
                policy: FaultPolicy::SkipRecord,
                ..strict
            },
        )
        .expect("skip policy keeps the prefix");
        assert_eq!(result.analysis.total_packets, 199);
        assert_eq!(result.faults.streams_truncated, 1);
        let report = render_report(&result);
        assert!(report.contains("capture faults"));
    }

    #[test]
    fn a_checkpoint_cut_from_another_capture_is_a_mismatch_under_every_policy() {
        let capture_a = MappedCapture::from_bytes(capture_bytes());
        let mut shorter = capture_bytes();
        shorter.truncate(shorter.len() - 2 * (16 + 54)); // two whole frames fewer
        let capture_b = MappedCapture::from_bytes(shorter);
        for policy in [
            FaultPolicy::Fail,
            FaultPolicy::SkipRecord,
            FaultPolicy::StopClean,
        ] {
            let options = AnalyzeOptions {
                monitored: Some(100),
                policy,
                ..AnalyzeOptions::default()
            };
            let dir = std::env::temp_dir().join(format!(
                "synscan-analyze-identity-{policy}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let cut = CheckpointOptions {
                every: 50,
                interrupt_after: Some(1),
                ..CheckpointOptions::new(&dir)
            };
            let status = analyze(
                CaptureInput::Capture(&capture_a),
                &options,
                &RunOptions {
                    checkpoint: Some(&cut),
                    ..RunOptions::default()
                },
            )
            .expect("the drill is not an error");
            assert!(matches!(status, RunStatus::Interrupted { .. }), "{policy}");

            let resume = CheckpointOptions {
                every: 50,
                resume: true,
                ..CheckpointOptions::new(&dir)
            };
            let resumed = |capture, options: &AnalyzeOptions| {
                analyze(
                    CaptureInput::Capture(capture),
                    options,
                    &RunOptions {
                        checkpoint: Some(&resume),
                        ..RunOptions::default()
                    },
                )
            };
            let foreign = |err| {
                matches!(
                    err,
                    AnalyzeError::Checkpoint(CheckpointError::Mismatch {
                        field: "identity",
                        ..
                    })
                )
            };
            let err = resumed(&capture_b, &options).expect_err("capture B is not capture A");
            assert!(foreign(err.clone()), "{policy}: {err:?}");
            assert!(err.to_string().contains("checkpoint does not match"));
            // The same capture under another dark-set size is another run too.
            let other = AnalyzeOptions {
                monitored: Some(101),
                ..options.clone()
            };
            assert!(
                foreign(resumed(&capture_a, &other).unwrap_err()),
                "{policy}"
            );
            // And capture A itself still resumes.
            let status = resumed(&capture_a, &options).expect("same run resumes");
            assert!(matches!(status, RunStatus::Completed { .. }), "{policy}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_one_shot_input_cannot_be_checkpointed() {
        let dir =
            std::env::temp_dir().join(format!("synscan-analyze-oneshot-{}", std::process::id()));
        let spec = CheckpointOptions::new(&dir);
        let err = analyze(
            CaptureInput::reader(std::io::Cursor::new(capture_bytes())),
            &AnalyzeOptions::default(),
            &RunOptions {
                checkpoint: Some(&spec),
                ..RunOptions::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, AnalyzeError::NotReopenable);
        assert!(!dir.exists(), "refused before anything was written");
    }

    #[test]
    fn heavy_hitters_thread_through_every_analysis_shape() {
        let bytes = capture_bytes();
        let options = AnalyzeOptions {
            monitored: Some(100),
            heavy: Some(HeavyHitterConfig::with_k(8)),
            ..AnalyzeOptions::default()
        };
        let streamed = analyze_bytes(bytes.clone(), &options).unwrap();
        let heavy = streamed
            .analysis
            .heavy
            .as_ref()
            .expect("heavy option enables sketch state");
        assert_eq!(heavy.count_min().total(), 200);

        // Sharded and sequential runs agree on the sketch too (it rides
        // inside YearAnalysis equality).
        let sharded = analyze_bytes(
            bytes,
            &AnalyzeOptions {
                pipeline: PipelineMode::Sharded { workers: 3 },
                ..options
            },
        )
        .unwrap();
        assert_eq!(streamed.analysis, sharded.analysis);

        let report = render_report(&streamed);
        assert!(report.contains("network impact"), "report: {report}");
        assert!(report.contains("203.0.113.5"));
        assert!(report.contains("source pps percentiles"));

        // Without the option the section stays out of the report.
        let plain = analyze_bytes(
            capture_bytes(),
            &AnalyzeOptions {
                monitored: Some(100),
                ..AnalyzeOptions::default()
            },
        )
        .unwrap();
        assert!(plain.analysis.heavy.is_none());
        assert!(!render_report(&plain).contains("network impact"));
    }

    #[test]
    fn chaos_seed_is_reproducible_and_counted() {
        let bytes = capture_bytes();
        let options = AnalyzeOptions {
            monitored: Some(100),
            policy: FaultPolicy::SkipRecord,
            ..AnalyzeOptions::default()
        };
        let noisy = |bytes: &Vec<u8>| {
            let reader = ChaosReader::new(
                std::io::Cursor::new(bytes.clone()),
                ChaosPlan::byte_noise(0xc0ffee),
            );
            let status = analyze(
                CaptureInput::reader(reader),
                &options,
                &RunOptions::default(),
            )
            .expect("skip policy survives byte noise");
            status.completed().expect("nothing interrupts a plain run")
        };
        let a = noisy(&bytes);
        let b = noisy(&bytes);
        assert_eq!(a.analysis, b.analysis, "same seed, same outcome");
        assert_eq!(a.faults, b.faults);
        // Byte noise over a ~13KB capture lands somewhere: either a frame
        // stopped parsing (non-TCP), a record was skipped, or the stream was
        // cut — but never a panic, and the clean run is unaffected.
        let clean = analyze_bytes(bytes, &options).unwrap();
        assert!(!clean.faults.any());
        assert!(
            a.faults.any() || a.non_tcp_frames > 0 || a.analysis != clean.analysis,
            "the injected noise must be observable somewhere"
        );
    }
}
