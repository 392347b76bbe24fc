//! Analysis of externally captured telescope traffic.
//!
//! [`analyze_pcap`] runs the paper's full §3 pipeline over any classic-pcap
//! capture of TCP traffic: SYN filtering, tool fingerprinting, campaign
//! detection, and summary statistics. When the telescope's address set is
//! not known, it is inferred from the capture itself — every destination
//! that received unsolicited traffic is dark space, which is exactly how
//! real telescope datasets are delimited.
//!
//! Two execution shapes:
//!
//! * **Streaming** (default when the monitored-address count is known):
//!   the capture is parsed incrementally through
//!   [`synscan_telescope::PcapStream`] and fed batch-by-batch into
//!   [`try_collect_year_stream`] — O(batch) memory, one pass. Requires the
//!   capture to be time-ordered (real telescope captures are); unordered
//!   input is rejected with [`AnalyzeError::UnorderedCapture`].
//! * **Materialized** (`materialize: true`, or when `monitored` must be
//!   inferred): the whole capture is loaded, sorted, and analyzed from
//!   memory — the escape hatch for unordered captures and the inference
//!   path (the dark set can only be counted after seeing every record).
//!
//! Real archives decay, so both shapes take a [`FaultPolicy`]: strict
//! (`Fail`, the default) turns the first malformed record, truncation, or
//! timestamp regression into a typed [`AnalyzeError`]; `SkipRecord` /
//! `StopClean` degrade gracefully instead and tally everything dropped in
//! [`AnalyzeResult::faults`] so no loss is silent. A `chaos_seed` wires a
//! deterministic [`synscan_wire::chaos::ChaosReader`] under the parser for
//! reproducible fault drills.
//!
//! For captures large enough that a crash mid-analysis hurts,
//! [`analyze_pcap_checkpointed`] runs the streaming shape under the
//! supervised driver: the full pipeline state (including the technique
//! census) checkpoints atomically to a directory, a caller-owned stop flag
//! triggers a final checkpoint, and a resumed run fast-forwards the capture
//! to produce output bit-identical to an uninterrupted one.

use std::collections::BTreeMap;
use std::io::Read;
use std::sync::atomic::AtomicBool;

use crate::experiment::CheckpointSpec;
use synscan_core::analysis::{toolports, yearly, YearAnalysis};
use synscan_core::checkpoint::{SnapReader, SnapWriter};
use synscan_core::pipeline::{try_collect_year_stream, PipelineError, SizeHints};
use synscan_core::sketch::HeavyHitterConfig;
use synscan_core::{
    run_year_supervised, AdmitState, CampaignConfig, Checkpoint, CheckpointError,
    CheckpointOptions, PipelineMode, PipelineOutcome, RunError, RunSpec, RunStatus,
    SupervisionReport, SupervisorOptions,
};
use synscan_telescope::capture::{classify_technique, PcapStream, ScanTechnique};
use synscan_wire::chaos::{ChaosPlan, ChaosReader};
use synscan_wire::ingest::{IngestMode, IngestQueues, MappedCapture};
use synscan_wire::stream::{
    FaultCounters, FaultPolicy, InfallibleStream, SliceStream, StreamError, TryRecordStream,
};
use synscan_wire::{PcapError, ProbeRecord};

/// Options for an external-capture analysis.
#[derive(Debug, Clone)]
pub struct AnalyzeOptions {
    /// Monitored-address count for extrapolations. `None` = infer from the
    /// capture (distinct destinations; forces a materialized pass).
    pub monitored: Option<u64>,
    /// Label year (affects nothing but reporting; ingress filtering is NOT
    /// applied to external captures — they already passed a real ingress).
    pub year: u16,
    /// How many top ports to summarize.
    pub top_ports: usize,
    /// How the measurement loop executes; sharded and sequential runs
    /// produce bit-identical results.
    pub pipeline: PipelineMode,
    /// Load and sort the whole capture in memory instead of streaming it.
    /// Required for captures that are not time-ordered.
    pub materialize: bool,
    /// What to do when the capture is malformed: fail fast (default), skip
    /// the faulty records, or keep the clean prefix.
    pub policy: FaultPolicy,
    /// Inject deterministic byte-level faults under the parser (testing /
    /// drills): `Some(seed)` wraps the input in a
    /// [`synscan_wire::chaos::ChaosReader`] with [`ChaosPlan::byte_noise`].
    pub chaos_seed: Option<u64>,
    /// How the capture bytes reach the parser: streamed off a `Read`, or
    /// opened as a reopenable capture and decoded on N threads. Only
    /// [`analyze_pcap_mapped`] honors the mapped modes; [`analyze_pcap`]
    /// always decodes on the calling thread.
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
            materialize: false,
            policy: FaultPolicy::Fail,
            chaos_seed: None,
            ingest: IngestMode::default(),
            heavy: None,
        }
    }
}

/// Why an external-capture analysis failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalyzeError {
    /// The capture could not be parsed as classic pcap.
    Pcap(PcapError),
    /// The capture ended mid-stream (torn tail, injected EOF) under the
    /// strict fault policy.
    Truncated {
        /// Records successfully parsed before the cut.
        records_seen: u64,
    },
    /// The capture is not time-ordered, so the single-pass streaming
    /// pipeline cannot analyze it. Re-run materialized to sort it first.
    UnorderedCapture {
        /// Consecutive timestamp inversions observed in the capture.
        violations: u64,
    },
    /// A pipeline shard worker died; the analysis is unrecoverable.
    WorkerPanicked,
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
                 re-run with --materialize to sort it in memory"
            ),
            AnalyzeError::WorkerPanicked => write!(f, "analysis pipeline worker panicked"),
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

impl From<PipelineError> for AnalyzeError {
    fn from(e: PipelineError) -> Self {
        match e {
            PipelineError::Stream(e) => e.into(),
            PipelineError::WorkerFailed { .. } => AnalyzeError::WorkerPanicked,
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
    /// Frames that were not IPv4/TCP at all (streaming runs only; the
    /// materialized importer skips them silently).
    pub non_tcp_frames: u64,
    /// The monitored-address count used for extrapolation.
    pub monitored: u64,
    /// Everything the fault policy skipped or cut short to produce this
    /// result — zero across the board for a clean capture.
    pub faults: FaultCounters,
}

impl AnalyzeResult {
    /// Persist the analysis as a full store slice for its label year — the
    /// same atomic write path (`--store-dir`) every run variant funnels
    /// terminal state through, making the capture queryable by
    /// `synscan-serve` without re-running the analysis.
    pub fn persist(
        &self,
        store: &synscan_core::store::AnalysisStore,
    ) -> Result<std::path::PathBuf, synscan_core::store::StoreError> {
        store.write_year(&self.analysis)
    }
}

/// Count the distinct probed destinations of a capture in one streaming
/// pass — the monitored-address inference without holding any records —
/// with the fault tally of the pass. The `analyze` binary uses this as pass
/// one of its two-pass streaming mode. Under a lossy policy a malformed
/// capture still infers from every record the policy could salvage.
pub fn infer_monitored_with_policy<R: Read>(
    reader: R,
    policy: FaultPolicy,
) -> Result<(u64, FaultCounters), AnalyzeError> {
    let mut stream = PcapStream::with_policy(reader, policy)?;
    let mut dsts = std::collections::HashSet::new();
    while let Some(batch) = stream.try_next_batch()? {
        for record in batch {
            dsts.insert(record.dst_ip.0);
        }
    }
    Ok((dsts.len() as u64, stream.faults()))
}

/// Run the pipeline over a pcap stream.
///
/// Streams single-pass when the monitored-address count is supplied and
/// `materialize` is off; otherwise falls back to loading the capture.
pub fn analyze_pcap<R: Read>(
    reader: R,
    options: &AnalyzeOptions,
) -> Result<AnalyzeResult, AnalyzeError> {
    match options.chaos_seed {
        Some(seed) => {
            let reader = ChaosReader::new(reader, ChaosPlan::byte_noise(seed));
            analyze_opened(PcapStream::with_policy(reader, options.policy)?, options)
        }
        None => analyze_opened(PcapStream::with_policy(reader, options.policy)?, options),
    }
}

/// Both shapes of the analysis over an opened capture, however many threads
/// decode it.
fn analyze_opened<R: Read>(
    stream: PcapStream<R>,
    options: &AnalyzeOptions,
) -> Result<AnalyzeResult, AnalyzeError> {
    let (Some(monitored), false) = (options.monitored, options.materialize) else {
        let (records, import_faults) = stream.into_records()?;
        let mut result = analyze_records(records, options);
        result.faults.absorb(&import_faults);
        return Ok(result);
    };
    let parsed = |s: &PcapStream<R>| (s.faults(), s.non_tcp_frames());
    analyze_stream(stream, parsed, monitored, options)
}

/// The run parameters of a capture analysis against `monitored` addresses.
fn run_spec(options: &AnalyzeOptions, monitored: u64) -> RunSpec {
    RunSpec {
        year: options.year,
        config: CampaignConfig::scaled(monitored.max(1)),
        period_days: 7.0,
        mode: options.pipeline,
        hints: SizeHints::none().with_heavy(options.heavy),
        policy: options.policy,
    }
}

/// The streaming shape, whatever parses the capture: one pass through the
/// driver with the technique census as the admit filter. `parsed` reads the
/// parser's `(faults, non-TCP frames)` tallies, which the driver never sees.
fn analyze_stream<S: TryRecordStream>(
    mut stream: S,
    parsed: impl FnOnce(&S) -> (FaultCounters, u64),
    monitored: u64,
    options: &AnalyzeOptions,
) -> Result<AnalyzeResult, AnalyzeError> {
    let spec = run_spec(options, monitored);
    let mut census = TechniqueAdmit::default();
    let outcome = try_collect_year_stream(
        spec.year,
        spec.config,
        spec.period_days,
        spec.mode,
        spec.hints,
        spec.policy,
        &mut stream,
        |record| census.admit(record),
    )?;
    let parsed = parsed(&stream);
    Ok(result_of(outcome, &census, parsed, monitored, options))
}

/// Assemble the result of a finished run from the driver's outcome, the
/// technique census, and the parser's `(faults, non-TCP frames)` tallies.
fn result_of(
    outcome: PipelineOutcome,
    census: &TechniqueAdmit,
    (mut faults, non_tcp_frames): (FaultCounters, u64),
    monitored: u64,
    options: &AnalyzeOptions,
) -> AnalyzeResult {
    faults.absorb(&outcome.faults);
    AnalyzeResult {
        summary: yearly::summarize(&outcome.analysis, options.top_ports),
        techniques: census.census(),
        non_tcp_frames,
        monitored,
        analysis: outcome.analysis,
        faults,
    }
}

/// Run the pipeline over a reopenable capture — the `--ingest mmap[:N]` path
/// of the `analyze` binary, with the decode fanned out over `N` threads.
///
/// Mirrors [`analyze_pcap`] exactly: same streaming-versus-materialized
/// split, same chaos injection (the noise wraps the capture's reader, so
/// the parser sees the same decayed bytes the `Read` path would), same
/// results on every input. [`IngestMode::Read`] decodes on the calling
/// thread, as `mmap` does.
pub fn analyze_pcap_mapped(
    capture: &MappedCapture,
    options: &AnalyzeOptions,
) -> Result<AnalyzeResult, AnalyzeError> {
    let queues = match options.ingest {
        IngestMode::Read => 1,
        IngestMode::Mapped { queues } => queues,
    };
    let reader = capture.reader();
    let plan = match options.chaos_seed {
        Some(seed) => IngestQueues::over(
            ChaosReader::new(reader, ChaosPlan::byte_noise(seed)),
            queues,
            options.policy,
        ),
        None => IngestQueues::over(reader, queues, options.policy),
    }?;
    analyze_opened(plan.spawn(), options)
}

/// Why a checkpointed capture analysis failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointedAnalyzeError {
    /// The underlying analysis failed.
    Analyze(AnalyzeError),
    /// Persisting or resuming a checkpoint failed.
    Checkpoint(CheckpointError),
    /// Checkpointed analysis only runs in the streaming shape: supply the
    /// monitored-address count and do not materialize.
    NeedsStreaming,
}

impl std::fmt::Display for CheckpointedAnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointedAnalyzeError::Analyze(e) => write!(f, "{e}"),
            CheckpointedAnalyzeError::Checkpoint(e) => write!(f, "{e}"),
            CheckpointedAnalyzeError::NeedsStreaming => write!(
                f,
                "checkpointed analysis is streaming-only: supply --monitored \
                 and drop --materialize"
            ),
        }
    }
}

impl std::error::Error for CheckpointedAnalyzeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointedAnalyzeError::Analyze(e) => Some(e),
            CheckpointedAnalyzeError::Checkpoint(e) => Some(e),
            CheckpointedAnalyzeError::NeedsStreaming => None,
        }
    }
}

impl From<AnalyzeError> for CheckpointedAnalyzeError {
    fn from(e: AnalyzeError) -> Self {
        CheckpointedAnalyzeError::Analyze(e)
    }
}

impl From<CheckpointError> for CheckpointedAnalyzeError {
    fn from(e: CheckpointError) -> Self {
        CheckpointedAnalyzeError::Checkpoint(e)
    }
}

impl From<RunError> for CheckpointedAnalyzeError {
    fn from(e: RunError) -> Self {
        match e {
            RunError::Pipeline(e) => CheckpointedAnalyzeError::Analyze(e.into()),
            RunError::Checkpoint(e) => CheckpointedAnalyzeError::Checkpoint(e),
        }
    }
}

/// How a checkpointed capture analysis ended.
// One value per run, matched once: boxing the finished analysis buys nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum AnalyzeStatus {
    /// The capture was analyzed to the end.
    Completed {
        /// The finished analysis, identical to [`analyze_pcap`]'s.
        result: AnalyzeResult,
        /// Supervision events of the run.
        report: SupervisionReport,
        /// Checkpoints written during this run.
        checkpoints: u64,
    },
    /// The run stopped early — stop flag or interrupt drill — after
    /// persisting a checkpoint to resume from.
    Interrupted {
        /// Checkpoints written during this run.
        checkpoints: u64,
        /// Capture records consumed when the run stopped.
        cursor: u64,
    },
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
        if r.remaining() != 0 {
            return Err(CheckpointError::Corrupt(
                "trailing bytes after technique census".into(),
            ));
        }
        Ok(())
    }
}

/// [`analyze_pcap`]'s streaming shape under the supervised, checkpointed
/// driver.
///
/// Requires the streaming preconditions (`monitored` known, `materialize`
/// off). With [`CheckpointSpec::resume`], the analysis restarts from its
/// latest checkpoint in the directory: the capture is re-read only to
/// fast-forward the parser, and the finished result is bit-identical to an
/// uninterrupted run's. The checkpoint identity seed is the chaos seed (0
/// without chaos), so a resume under different noise is rejected.
pub fn analyze_pcap_checkpointed<R: Read>(
    reader: R,
    options: &AnalyzeOptions,
    ckpt: &CheckpointSpec,
    stop: Option<&AtomicBool>,
) -> Result<AnalyzeStatus, CheckpointedAnalyzeError> {
    match options.chaos_seed {
        Some(seed) => checkpointed_inner(
            ChaosReader::new(reader, ChaosPlan::byte_noise(seed)),
            options,
            ckpt,
            stop,
        ),
        None => checkpointed_inner(reader, options, ckpt, stop),
    }
}

fn checkpointed_inner<R: Read>(
    reader: R,
    options: &AnalyzeOptions,
    ckpt: &CheckpointSpec,
    stop: Option<&AtomicBool>,
) -> Result<AnalyzeStatus, CheckpointedAnalyzeError> {
    let (Some(monitored), false) = (options.monitored, options.materialize) else {
        return Err(CheckpointedAnalyzeError::NeedsStreaming);
    };
    let resume = if ckpt.resume {
        Checkpoint::load_latest(&ckpt.dir, options.year)?
    } else {
        None
    };
    let mut stream = PcapStream::with_policy(reader, options.policy).map_err(AnalyzeError::from)?;
    let mut admit = TechniqueAdmit::default();
    let spec = run_spec(options, monitored);
    let opts = SupervisorOptions {
        checkpoint: Some(CheckpointOptions {
            dir: ckpt.dir.clone(),
            every: ckpt.every,
            seed: options.chaos_seed.unwrap_or(0),
            interrupt_after: ckpt.interrupt_after,
        }),
        resume,
        stop,
        ..SupervisorOptions::default()
    };
    let status = run_year_supervised(&spec, opts, &mut stream, &mut admit)?;
    Ok(match status {
        RunStatus::Completed {
            outcome,
            report,
            checkpoints,
        } => {
            // The parser re-reads the whole capture on resume (the
            // fast-forward replays it), so its parse-level fault tally and
            // frame counts cover the full file either way.
            let parsed = (stream.faults(), stream.non_tcp_frames());
            AnalyzeStatus::Completed {
                result: result_of(outcome, &admit, parsed, monitored, options),
                report,
                checkpoints,
            }
        }
        RunStatus::Interrupted {
            checkpoints,
            cursor,
        } => AnalyzeStatus::Interrupted {
            checkpoints,
            cursor,
        },
    })
}

/// Run the pipeline over already-parsed records (exposed for tests and for
/// callers with their own capture path). Sorts, so unordered input is fine;
/// under a lossy policy, exact adjacent duplicates are dropped and counted
/// exactly as the streaming path would.
pub fn analyze_records(mut records: Vec<ProbeRecord>, options: &AnalyzeOptions) -> AnalyzeResult {
    records.sort_by_key(|r| r.ts_micros);

    // Infer the dark set when not supplied: every probed destination.
    let monitored = options.monitored.unwrap_or_else(|| {
        records
            .iter()
            .map(|r| r.dst_ip.0)
            .collect::<std::collections::HashSet<u32>>()
            .len() as u64
    });

    let mut stream = SliceStream::new(&records);
    // No parser tallies: the pcap importer already skipped non-TCP frames.
    let parsed = |_: &_| (FaultCounters::default(), 0);
    analyze_stream(InfallibleStream(&mut stream), parsed, monitored, options)
        // Sorted in-memory input cannot regress in time or end mid-stream,
        // so the driver has nothing to fail on under any policy.
        .expect("sorted in-memory input cannot fault")
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
    use synscan_scanners::traits::craft_record;
    use synscan_scanners::zmap::ZmapScanner;
    use synscan_telescope::capture::export_pcap;
    use synscan_wire::Ipv4Address;

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
        let result = analyze_pcap(std::io::Cursor::new(bytes), &AnalyzeOptions::default())
            .expect("valid pcap");
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
    fn sharded_analysis_matches_sequential() {
        let bytes = capture_bytes();
        let sequential = analyze_pcap(
            std::io::Cursor::new(bytes.clone()),
            &AnalyzeOptions::default(),
        )
        .unwrap();
        let sharded = analyze_pcap(
            std::io::Cursor::new(bytes),
            &AnalyzeOptions {
                pipeline: synscan_core::PipelineMode::Sharded { workers: 3 },
                ..AnalyzeOptions::default()
            },
        )
        .unwrap();
        assert_eq!(sequential.analysis, sharded.analysis);
        assert_eq!(sequential.techniques, sharded.techniques);
        assert_eq!(sequential.monitored, sharded.monitored);
    }

    #[test]
    fn streaming_analysis_matches_materialized() {
        let bytes = capture_bytes();
        let (monitored, _) =
            infer_monitored_with_policy(std::io::Cursor::new(bytes.clone()), FaultPolicy::Fail)
                .unwrap();
        assert_eq!(monitored, 100);
        for pipeline in [
            PipelineMode::Sequential,
            PipelineMode::Sharded { workers: 3 },
        ] {
            let streamed = analyze_pcap(
                std::io::Cursor::new(bytes.clone()),
                &AnalyzeOptions {
                    monitored: Some(monitored),
                    pipeline,
                    ..AnalyzeOptions::default()
                },
            )
            .unwrap();
            let materialized = analyze_pcap(
                std::io::Cursor::new(bytes.clone()),
                &AnalyzeOptions {
                    monitored: Some(monitored),
                    pipeline,
                    materialize: true,
                    ..AnalyzeOptions::default()
                },
            )
            .unwrap();
            assert_eq!(streamed.analysis, materialized.analysis, "{pipeline}");
            assert_eq!(streamed.techniques, materialized.techniques);
            assert_eq!(streamed.monitored, materialized.monitored);
        }
    }

    #[test]
    fn unordered_capture_streams_to_an_error_but_materializes_fine() {
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
        let streaming_options = AnalyzeOptions {
            monitored: Some(10),
            ..AnalyzeOptions::default()
        };
        let err = analyze_pcap(std::io::Cursor::new(bytes.clone()), &streaming_options)
            .expect_err("unordered capture must not stream");
        assert!(matches!(err, AnalyzeError::UnorderedCapture { violations } if violations > 0));
        assert!(err.to_string().contains("--materialize"));

        let materialized = analyze_pcap(
            std::io::Cursor::new(bytes),
            &AnalyzeOptions {
                materialize: true,
                ..streaming_options
            },
        )
        .expect("materialized path sorts");
        assert_eq!(materialized.analysis.total_packets, 50);
    }

    #[test]
    fn explicit_monitored_count_overrides_inference() {
        let bytes = capture_bytes();
        let result = analyze_pcap(
            std::io::Cursor::new(bytes),
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
            let result = analyze_pcap(
                std::io::Cursor::new(vec![0u8; 100]),
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
        let err = analyze_pcap(std::io::Cursor::new(bytes.clone()), &strict).unwrap_err();
        assert!(matches!(
            err,
            AnalyzeError::Pcap(PcapError::TruncatedRecordBody { .. })
        ));
        assert!(err.to_string().contains("--fault-policy skip"));

        let result = analyze_pcap(
            std::io::Cursor::new(bytes),
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
    fn checkpointed_streaming_analysis_resumes_bit_identical() {
        let bytes = capture_bytes();
        let options = AnalyzeOptions {
            monitored: Some(100),
            ..AnalyzeOptions::default()
        };
        let baseline = analyze_pcap(std::io::Cursor::new(bytes.clone()), &options).unwrap();

        let dir = std::env::temp_dir().join(format!("synscan-analyze-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        // Interrupt right after the first checkpoint ...
        let spec = CheckpointSpec::new(&dir).every(50).interrupt_after(Some(1));
        let status =
            analyze_pcap_checkpointed(std::io::Cursor::new(bytes.clone()), &options, &spec, None)
                .unwrap();
        assert!(matches!(status, AnalyzeStatus::Interrupted { .. }));

        // ... and resume: the finished result equals the uninterrupted one.
        let spec = CheckpointSpec::new(&dir).every(50).resume(true);
        let status =
            analyze_pcap_checkpointed(std::io::Cursor::new(bytes), &options, &spec, None).unwrap();
        let AnalyzeStatus::Completed { result, .. } = status else {
            panic!("resumed analysis completes");
        };
        assert_eq!(result.analysis, baseline.analysis);
        assert_eq!(result.techniques, baseline.techniques);
        assert_eq!(result.faults, baseline.faults);
        assert_eq!(result.non_tcp_frames, baseline.non_tcp_frames);
        assert_eq!(result.monitored, baseline.monitored);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpointed_analysis_requires_the_streaming_shape() {
        let dir =
            std::env::temp_dir().join(format!("synscan-analyze-ckpt-shape-{}", std::process::id()));
        let spec = CheckpointSpec::new(&dir);
        let err = analyze_pcap_checkpointed(
            std::io::Cursor::new(capture_bytes()),
            &AnalyzeOptions::default(), // monitored unknown
            &spec,
            None,
        )
        .unwrap_err();
        assert_eq!(err, CheckpointedAnalyzeError::NeedsStreaming);
    }

    #[test]
    fn heavy_hitters_thread_through_every_analysis_shape() {
        let bytes = capture_bytes();
        let options = AnalyzeOptions {
            monitored: Some(100),
            heavy: Some(HeavyHitterConfig::with_k(8)),
            ..AnalyzeOptions::default()
        };
        let streamed = analyze_pcap(std::io::Cursor::new(bytes.clone()), &options).unwrap();
        let heavy = streamed
            .analysis
            .heavy
            .as_ref()
            .expect("heavy option enables sketch state");
        assert_eq!(heavy.count_min().total(), 200);

        // Sharded, materialized, and streamed runs agree on the sketch too
        // (it rides inside YearAnalysis equality).
        let sharded = analyze_pcap(
            std::io::Cursor::new(bytes.clone()),
            &AnalyzeOptions {
                pipeline: PipelineMode::Sharded { workers: 3 },
                ..options.clone()
            },
        )
        .unwrap();
        assert_eq!(streamed.analysis, sharded.analysis);
        let materialized = analyze_pcap(
            std::io::Cursor::new(bytes),
            &AnalyzeOptions {
                materialize: true,
                ..options
            },
        )
        .unwrap();
        assert_eq!(streamed.analysis, materialized.analysis);

        let report = render_report(&streamed);
        assert!(report.contains("network impact"), "report: {report}");
        assert!(report.contains("203.0.113.5"));
        assert!(report.contains("source pps percentiles"));

        // Without the option the section stays out of the report.
        let plain = analyze_pcap(
            std::io::Cursor::new(capture_bytes()),
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
            chaos_seed: Some(0xc0ffee),
            ..AnalyzeOptions::default()
        };
        let a = analyze_pcap(std::io::Cursor::new(bytes.clone()), &options)
            .expect("skip policy survives byte noise");
        let b = analyze_pcap(std::io::Cursor::new(bytes.clone()), &options).unwrap();
        assert_eq!(a.analysis, b.analysis, "same seed, same outcome");
        assert_eq!(a.faults, b.faults);
        // Byte noise over a ~13KB capture lands somewhere: either a frame
        // stopped parsing (non-TCP), a record was skipped, or the stream was
        // cut — but never a panic, and the clean run is unaffected.
        let clean = analyze_pcap(
            std::io::Cursor::new(bytes),
            &AnalyzeOptions {
                chaos_seed: None,
                ..options
            },
        )
        .unwrap();
        assert!(!clean.faults.any());
        assert!(
            a.faults.any() || a.non_tcp_frames > 0 || a.analysis != clean.analysis,
            "the injected noise must be observable somewhere"
        );
    }
}
