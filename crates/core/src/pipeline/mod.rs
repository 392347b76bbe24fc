//! Source-sharded parallel year pipeline.
//!
//! A single year's measurement loop — ingress filter, fingerprinting,
//! campaign grouping, aggregation — is sequential in nature only at the
//! *stream* level; every stateful stage is keyed by **source address**:
//!
//! * the campaign [`crate::campaign::Pipeline`] keeps per-source scan state
//!   machines, each open scan with its pairwise fingerprint window,
//! * [`YearCollector`]'s aggregates are commutative merges (per-port sums,
//!   per-source sets, week × /16 cells).
//!
//! Routing admitted records to N workers by `hash(src_ip) % N` therefore
//! preserves semantics exactly: each worker sees the *full, in-order* probe
//! subsequence of every source it owns, and the shard outputs combine with
//! [`YearAnalysis::merge_partials`] into a result **bit-identical** to the
//! sequential run (campaigns are canonically re-sorted by start time, then
//! source). The equivalence is enforced by the driver matrix test beside the
//! loop and by the `pipeline_equivalence` integration test at generator
//! scale.
//!
//! There is one feed loop (the private `feed` module, whose docs describe
//! it) over two sinks: one collector inline, or a fan-out of shard workers
//! behind bounded channels of ~16k-record batches. The three public drivers
//! — [`try_collect_year_stream`] here, [`supervised::run_year_supervised`]
//! and [`crate::distrib::run_slice`] (which only the benchmark calls) —
//! configure that loop; none of them has a loop of its own.

use std::thread;

use synscan_scanners::traits::mix64;
use synscan_wire::stream::{FaultCounters, FaultPolicy, StreamError, TryRecordStream};
use synscan_wire::{Ipv4Address, ProbeRecord};

use crate::analysis::{YearAnalysis, YearCollector};
use crate::campaign::CampaignConfig;
use crate::checkpoint::CheckpointError;
use crate::sketch::HeavyHitterConfig;

pub(crate) mod feed;
pub mod supervised;

/// Records per channel message / stream batch — re-exported from the wire
/// layer so every stage of the pipeline agrees on the batch granularity.
pub(crate) use synscan_wire::stream::BATCH_RECORDS;

/// How a year's measurement loop executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineMode {
    /// One pass on the calling thread — the reference implementation.
    Sequential,
    /// Fan records out to `workers` shard threads by source hash and merge
    /// the partial analyses deterministically. Bit-identical to
    /// [`PipelineMode::Sequential`].
    Sharded {
        /// Number of worker threads (the feeder runs on the calling thread).
        workers: usize,
    },
}

impl PipelineMode {
    /// Shard across every available core, or stay sequential on a
    /// single-core machine.
    pub fn auto() -> Self {
        let workers = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if workers <= 1 {
            PipelineMode::Sequential
        } else {
            PipelineMode::Sharded { workers }
        }
    }

    /// Worker-thread count this mode uses (1 for sequential).
    pub(crate) fn workers(self) -> usize {
        match self {
            PipelineMode::Sequential => 1,
            PipelineMode::Sharded { workers } => workers.max(1),
        }
    }
}

impl std::fmt::Display for PipelineMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineMode::Sequential => write!(f, "sequential"),
            PipelineMode::Sharded { workers } => write!(f, "sharded:{workers}"),
        }
    }
}

impl std::str::FromStr for PipelineMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sequential" => Ok(PipelineMode::Sequential),
            "auto" => Ok(PipelineMode::auto()),
            other => other
                .strip_prefix("sharded:")
                .and_then(|n| n.parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .map(|n| PipelineMode::Sharded { workers: n })
                .ok_or_else(|| {
                    format!("unrecognized pipeline mode `{s}` (expected sequential|auto|sharded:N)")
                }),
        }
    }
}

/// The worker a source address is routed to. Stable for the process
/// lifetime; every record of one source lands on the same shard.
/// Public only because the benchmark names it.
pub fn shard_of(src: Ipv4Address, workers: usize) -> usize {
    (mix64(u64::from(src.0)) % workers as u64) as usize
}

/// Collector sizing carried into every pipeline arm: expected-cardinality
/// hints for pre-sizing the hot state (interner, per-source vectors,
/// per-port maps), plus the optional heavy-hitter sketch configuration.
///
/// The cardinality hints are never load-bearing — `0` / [`SizeHints::none`]
/// simply means "grow on demand". The `heavy` field *is* load-bearing: when
/// set, every collector (sequential, all shards, the empty-stream fallback)
/// enables sublinear heavy-hitter tracking with that config, and the
/// resulting analysis carries sketch state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SizeHints {
    /// Expected distinct scanning sources across the whole stream.
    pub sources: usize,
    /// Expected distinct destination ports across the whole stream.
    pub ports: usize,
    /// Enable heavy-hitter sketch tracking with this sizing
    /// (`--heavy-hitters k[,width,depth]`).
    pub heavy: Option<HeavyHitterConfig>,
}

impl SizeHints {
    /// No hints: every table starts empty and grows on demand.
    pub fn none() -> Self {
        Self::default()
    }

    /// Hint only the source cardinality.
    pub fn sources(sources: usize) -> Self {
        Self {
            sources,
            ..Self::default()
        }
    }

    /// Hint both cardinalities.
    pub fn new(sources: usize, ports: usize) -> Self {
        Self {
            sources,
            ports,
            ..Self::default()
        }
    }

    /// Attach (or clear) the heavy-hitter sketch configuration.
    pub fn with_heavy(self, heavy: Option<HeavyHitterConfig>) -> Self {
        Self { heavy, ..self }
    }

    /// The share of these hints one of `workers` source-sharded workers
    /// should reserve: sources partition across shards, ports do not (every
    /// shard can see every port), and the sketch config must be identical on
    /// every shard for the partials to merge.
    pub(crate) fn per_worker(self, workers: usize) -> Self {
        Self {
            sources: self.sources / workers.max(1),
            ports: self.ports,
            heavy: self.heavy,
        }
    }

    /// Apply the hints to a collector (pre-sizes its hot tables and enables
    /// heavy-hitter tracking when configured).
    pub fn apply_to(self, collector: &mut YearCollector) {
        collector.reserve_sources(self.sources);
        collector.reserve_ports(self.ports);
        if let Some(cfg) = self.heavy {
            collector.enable_heavy_hitters(cfg);
        }
    }
}

/// Why a fallible pipeline run did not produce an analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineError {
    /// The input stream surfaced a fault under [`FaultPolicy::Fail`].
    Stream(StreamError),
    /// A shard worker panicked mid-run. The healthy workers were drained
    /// and joined; a run that checkpoints left its last cut on disk, and
    /// resuming from it re-runs the same deterministic code.
    WorkerFailed {
        /// Index of the shard whose worker failed.
        shard: u32,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Stream(e) => write!(f, "input stream fault: {e}"),
            PipelineError::WorkerFailed { shard } => {
                write!(f, "pipeline worker for shard {shard} failed")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<StreamError> for PipelineError {
    fn from(e: StreamError) -> Self {
        PipelineError::Stream(e)
    }
}

/// A completed fallible pipeline run: the analysis plus everything the
/// fault policy had to drop to get there.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineOutcome {
    /// The year's analysis over the records that survived the policy.
    pub analysis: YearAnalysis,
    /// Driver-side fault tally (duplicates, order regressions, truncated
    /// streams). Source-side counters (e.g. a pcap stream's skipped
    /// records) live with the source and are absorbed by the caller.
    pub faults: FaultCounters,
}

/// What to run: the parameters every year driver shares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSpec {
    /// Capture year under analysis.
    pub year: u16,
    /// Campaign-detection thresholds.
    pub config: CampaignConfig,
    /// Temporal bin width for the week×/16 matrix, in days.
    pub period_days: f64,
    /// Sequential or sharded execution.
    pub mode: PipelineMode,
    /// Pre-sizing hints for collector state.
    pub hints: SizeHints,
    /// Driver-side fault policy.
    pub policy: FaultPolicy,
    /// Run identity word baked into every checkpoint header: a resume under
    /// another word is rejected before any work.
    pub identity: u64,
}

impl RunSpec {
    /// A hinted collector for one of `shards` source shards of this run.
    /// With `origin` it bins days and weeks against that timestamp — a
    /// shard must use the origin of the *whole* stream; without, against
    /// its own first record.
    pub(crate) fn collector(&self, origin: Option<u64>, shards: usize) -> YearCollector {
        let mut collector = match origin {
            Some(t0) => YearCollector::with_origin(self.year, self.config, self.period_days, t0),
            None => YearCollector::with_period(self.year, self.config, self.period_days),
        };
        self.hints.per_worker(shards).apply_to(&mut collector);
        collector
    }

    /// What a run that admitted nothing analyzes to, whatever its sink —
    /// including the (empty) heavy-hitter state when the hints enable it.
    pub(crate) fn empty_analysis(&self) -> YearAnalysis {
        self.collector(None, 1).finish()
    }
}

/// The admit filter of a run: the ingress/SYN filter plus whatever state it
/// keeps.
///
/// Capture-layer filters carry counters (offered, blocked, admitted…) that
/// are part of a run's observable output, so a checkpoint must carry them
/// too. Implementors serialize whatever state they own into an opaque blob;
/// the checkpoint layer stores and returns it verbatim.
pub trait AdmitState {
    /// Decide whether `record` enters the analysis, updating any state.
    fn admit(&mut self, record: &ProbeRecord) -> bool;

    /// Serialize the filter state for a checkpoint.
    fn snapshot(&self) -> Vec<u8>;

    /// Restore state written by [`AdmitState::snapshot`].
    fn restore(&mut self, blob: &[u8]) -> Result<(), CheckpointError>;
}

/// Adapts a stateless admit closure into an [`AdmitState`] (the plain
/// driver, tests, ad-hoc runs): the snapshot is empty and restore accepts
/// only emptiness.
#[derive(Debug)]
pub struct FilterAdmit<F>(pub F);

impl<F: FnMut(&ProbeRecord) -> bool> AdmitState for FilterAdmit<F> {
    fn admit(&mut self, record: &ProbeRecord) -> bool {
        (self.0)(record)
    }

    fn snapshot(&self) -> Vec<u8> {
        Vec::new()
    }

    fn restore(&mut self, blob: &[u8]) -> Result<(), CheckpointError> {
        if blob.is_empty() {
            Ok(())
        } else {
            Err(CheckpointError::Corrupt(format!(
                "{} bytes of admit state for a stateless filter",
                blob.len()
            )))
        }
    }
}

/// Run one year's collection from any fallible record stream, sequentially
/// or fanned out over shard threads — the driver every uncheckpointed front
/// end (synthesis, pcap import, chaos tests, the benchmark) goes through.
///
/// `admit` is the ingress/SYN filter — it runs on the calling thread, in
/// stream order, exactly once per record, so stateful filters
/// ([`synscan_telescope::CaptureSession`]) keep exact statistics.
/// `hints` pre-sizes the collector's hot state ([`SizeHints::none`] = grow
/// on demand).
///
/// Faults travel two ways:
///
/// * **in-band**, as records that should not be there — exact back-to-back
///   duplicates and timestamp regressions. The loop's fault gate screens
///   every record *before* the `admit` filter, so what the filter (and its
///   statistics) sees under a lossy policy is the clean sequence.
/// * **out-of-band**, as a [`StreamError`] from the stream itself (pcap
///   fault, injected mid-stream EOF). Under [`FaultPolicy::Fail`] this
///   aborts the run with [`PipelineError::Stream`]; under
///   [`FaultPolicy::SkipRecord`] / [`FaultPolicy::StopClean`] the run ends
///   cleanly with the prefix analyzed and `streams_truncated` counted.
///
/// In sharded mode a fatal fault tears the fan-out down in order: the
/// channels close, every worker drains and exits, partial analyses are
/// discarded, and the error is returned — never a panic. A worker panic
/// surfaces the same way, as [`PipelineError::WorkerFailed`].
///
/// Memory is O(batch): the caller's stream lends one batch at a time, and
/// the fan-out keeps a bounded number of batches in flight per worker. Both
/// modes are bit-identical to offering every gate-surviving admitted record
/// to one [`YearCollector`] built with the same config and period.
#[allow(clippy::too_many_arguments)]
pub fn try_collect_year_stream<S, F>(
    year: u16,
    config: CampaignConfig,
    period_days: f64,
    mode: PipelineMode,
    hints: SizeHints,
    policy: FaultPolicy,
    stream: &mut S,
    admit: F,
) -> Result<PipelineOutcome, PipelineError>
where
    S: TryRecordStream + ?Sized,
    F: FnMut(&ProbeRecord) -> bool,
{
    let spec = RunSpec {
        year,
        config,
        period_days,
        mode,
        hints,
        policy,
        identity: 0,
    };
    let mut never_cut = |_: &_| Ok(());
    let mut feed = feed::Feed::<PipelineError>::start(&spec, &mut never_cut);
    let (_, analysis) = feed.drive(
        feed::SinkPlan::for_mode(mode),
        Vec::new(),
        stream,
        &mut FilterAdmit(admit),
    )?;
    Ok(PipelineOutcome {
        analysis: analysis.unwrap_or_else(|| spec.empty_analysis()),
        faults: feed.faults(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use synscan_wire::stream::SliceStream;
    use synscan_wire::TcpFlags;

    pub(super) fn cfg() -> CampaignConfig {
        CampaignConfig {
            min_distinct_dests: 5,
            min_rate_pps: 10.0,
            expiry_secs: 3600.0,
            monitored_addresses: 1 << 16,
        }
    }

    /// A deterministic interleaved stream: 40 sources, two ports, a mix of
    /// ZMap-marked and anonymous probes, in timestamp order.
    pub(super) fn stream() -> Vec<ProbeRecord> {
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

    fn sequential(records: &[ProbeRecord]) -> YearAnalysis {
        let mut collector = YearCollector::with_period(2020, cfg(), 7.0);
        for record in records {
            if record.dst_port != 23 {
                collector.offer(record);
            }
        }
        collector.finish()
    }

    /// The driver over an in-memory slice under the strict policy, pulled in
    /// `batch`-record batches.
    fn collect(
        mode: PipelineMode,
        hints: SizeHints,
        records: &[ProbeRecord],
        batch: usize,
        admit: impl FnMut(&ProbeRecord) -> bool,
    ) -> YearAnalysis {
        let mut input = SliceStream::with_batch_size(records, batch);
        try_collect_year_stream(
            2020,
            cfg(),
            7.0,
            mode,
            hints,
            FaultPolicy::Fail,
            &mut input,
            admit,
        )
        .expect("a clean ordered slice cannot fault")
        .analysis
    }

    fn sharded(workers: usize) -> PipelineMode {
        PipelineMode::Sharded { workers }
    }

    #[test]
    fn sharded_matches_sequential_for_any_worker_count() {
        let records = stream();
        let expected = sequential(&records);
        for workers in [1usize, 2, 3, 8] {
            let got = collect(
                sharded(workers),
                SizeHints::sources(64),
                &records,
                BATCH_RECORDS,
                |r| r.dst_port != 23,
            );
            assert_eq!(expected, got, "workers = {workers}");
        }
    }

    #[test]
    fn stream_input_matches_the_sequential_reference_in_both_modes() {
        let records = stream();
        let expected = sequential(&records);
        for mode in [
            PipelineMode::Sequential,
            PipelineMode::Sharded { workers: 3 },
        ] {
            // An adversarial batch size: prime, far from BATCH_RECORDS, so
            // batch boundaries land mid-source and mid-burst.
            let got = collect(mode, SizeHints::sources(64), &records, 257, |r| {
                r.dst_port != 23
            });
            assert_eq!(expected, got, "mode = {mode}");
        }
    }

    #[test]
    fn nothing_admitted_produces_an_empty_analysis() {
        let records = stream();
        let got = collect(
            sharded(4),
            SizeHints::none(),
            &records,
            BATCH_RECORDS,
            |_| false,
        );
        assert_eq!(got.total_packets, 0);
        assert_eq!(got.distinct_sources, 0);
        assert!(got.campaigns.is_empty());
    }

    #[test]
    fn heavy_hitter_hints_reach_every_pipeline_arm() {
        let records = stream();
        // k covers the stream's 40 sources: sharded top-K state equals the
        // sequential state only while no shard has evicted (see `sketch`).
        let hints = SizeHints::sources(64).with_heavy(Some(HeavyHitterConfig {
            k: 64,
            width: 256,
            depth: 4,
        }));
        let mut reference = YearCollector::with_period(2020, cfg(), 7.0);
        hints.apply_to(&mut reference);
        for record in &records {
            if record.dst_port != 23 {
                reference.offer(record);
            }
        }
        let expected = reference.finish();
        assert!(
            expected.heavy.is_some(),
            "sequential arm carries the sketch"
        );
        for workers in [1usize, 3] {
            let got = collect(sharded(workers), hints, &records, BATCH_RECORDS, |r| {
                r.dst_port != 23
            });
            assert_eq!(expected, got, "workers = {workers}");
        }
        // The nothing-admitted fallback must agree with an empty sequential
        // run too — including the (empty) sketch state.
        let empty = collect(sharded(4), hints, &records, BATCH_RECORDS, |_| false);
        let empty_heavy = empty.heavy.expect("fallback carries the sketch");
        assert_eq!(empty_heavy.count_min().total(), 0);
        assert!(empty_heavy.top_sources().is_empty());
    }

    #[test]
    fn shard_routing_is_a_partition() {
        for workers in [1usize, 2, 5, 8] {
            for src in 0..1000u32 {
                let shard = shard_of(Ipv4Address(src.wrapping_mul(2_654_435_761)), workers);
                assert!(shard < workers);
            }
        }
    }

    #[test]
    fn shard_of_is_stable_across_calls_and_worker_counts() {
        // Determinism: the same (source, workers) pair always routes to the
        // same shard — a source's records never split across workers, and a
        // re-run routes identically.
        for workers in [1usize, 2, 3, 4, 7, 16] {
            for src in (0..5000u32).step_by(17) {
                let addr = Ipv4Address(src.wrapping_mul(2_654_435_761));
                let first = shard_of(addr, workers);
                for _ in 0..3 {
                    assert_eq!(shard_of(addr, workers), first);
                }
            }
        }
        // Changing the worker count is a *remap*, not a perturbation of the
        // hash: the underlying mix of a given source is fixed, so the shard
        // for `workers = n` is always `mix % n` of the same value.
        let addr = Ipv4Address(0x0a01_0203);
        let wide = shard_of(addr, 1 << 16) as u64;
        for workers in [2usize, 3, 5, 8, 64] {
            // A single-shard pipeline always routes to shard 0.
            assert_eq!(shard_of(addr, 1), 0);
            assert!(shard_of(addr, workers) < workers);
        }
        assert_eq!(shard_of(addr, 1 << 16) as u64, wide, "stable across calls");
    }

    #[test]
    fn empty_stream_produces_an_empty_analysis_in_both_modes() {
        for mode in [
            PipelineMode::Sequential,
            PipelineMode::Sharded { workers: 3 },
        ] {
            let got = collect(mode, SizeHints::none(), &[], BATCH_RECORDS, |_| true);
            assert_eq!(got.total_packets, 0, "mode = {mode}");
            assert_eq!(got.distinct_sources, 0);
            assert!(got.campaigns.is_empty());

            let mut stream = SliceStream::new(&[]);
            let outcome = try_collect_year_stream(
                2020,
                cfg(),
                7.0,
                mode,
                SizeHints::none(),
                FaultPolicy::SkipRecord,
                &mut stream,
                |_| true,
            )
            .unwrap();
            assert_eq!(outcome.analysis.total_packets, 0);
            assert!(!outcome.faults.any());
        }
    }

    /// A [`TryRecordStream`] that yields some clean batches then a fault.
    struct FaultyStream {
        records: Vec<ProbeRecord>,
        pos: usize,
        batch: usize,
        error: Option<StreamError>,
        out: Vec<ProbeRecord>,
    }

    impl TryRecordStream for FaultyStream {
        fn try_next_batch(&mut self) -> Result<Option<&[ProbeRecord]>, StreamError> {
            if self.pos >= self.records.len() {
                return match self.error.take() {
                    Some(e) => Err(e),
                    None => Ok(None),
                };
            }
            let end = (self.pos + self.batch).min(self.records.len());
            self.out = self.records[self.pos..end].to_vec();
            self.pos = end;
            Ok(Some(&self.out))
        }
    }

    #[test]
    fn fatal_stream_fault_is_an_error_not_a_panic_in_both_modes() {
        let records = stream();
        for mode in [
            PipelineMode::Sequential,
            PipelineMode::Sharded { workers: 3 },
        ] {
            let mut faulty = FaultyStream {
                records: records.clone(),
                pos: 0,
                batch: 257,
                error: Some(StreamError::Truncated {
                    records_seen: records.len() as u64,
                }),
                out: Vec::new(),
            };
            let err = try_collect_year_stream(
                2020,
                cfg(),
                7.0,
                mode,
                SizeHints::none(),
                FaultPolicy::Fail,
                &mut faulty,
                |r| r.dst_port != 23,
            )
            .unwrap_err();
            assert_eq!(
                err,
                PipelineError::Stream(StreamError::Truncated {
                    records_seen: records.len() as u64
                }),
                "mode = {mode}"
            );
        }
    }

    #[test]
    fn skip_policy_turns_a_truncation_into_a_counted_clean_end() {
        let records = stream();
        let expected = sequential(&records);
        for mode in [
            PipelineMode::Sequential,
            PipelineMode::Sharded { workers: 3 },
        ] {
            let mut faulty = FaultyStream {
                records: records.clone(),
                pos: 0,
                batch: 257,
                error: Some(StreamError::Truncated {
                    records_seen: records.len() as u64,
                }),
                out: Vec::new(),
            };
            let outcome = try_collect_year_stream(
                2020,
                cfg(),
                7.0,
                mode,
                SizeHints::none(),
                FaultPolicy::SkipRecord,
                &mut faulty,
                |r| r.dst_port != 23,
            )
            .unwrap();
            // The cut happened after the last record, so the analysis over
            // the "prefix" is the full analysis — and the cut is counted.
            assert_eq!(outcome.analysis, expected, "mode = {mode}");
            assert_eq!(outcome.faults.streams_truncated, 1);
        }
    }

    #[test]
    fn gate_drops_exact_duplicates_under_skip_and_forwards_them_under_fail() {
        let records = stream();
        let expected = sequential(&records);
        // Duplicate every 7th record back to back.
        let mut dirty = Vec::with_capacity(records.len() + records.len() / 7);
        for (i, r) in records.iter().enumerate() {
            dirty.push(*r);
            if i % 7 == 0 {
                dirty.push(*r);
            }
        }
        for mode in [
            PipelineMode::Sequential,
            PipelineMode::Sharded { workers: 3 },
        ] {
            let mut input = SliceStream::with_batch_size(&dirty, 257);
            let outcome = try_collect_year_stream(
                2020,
                cfg(),
                7.0,
                mode,
                SizeHints::sources(64),
                FaultPolicy::SkipRecord,
                &mut input,
                |r| r.dst_port != 23,
            )
            .unwrap();
            assert_eq!(outcome.analysis, expected, "mode = {mode}");
            assert_eq!(
                outcome.faults.duplicates_dropped,
                (records.len() as u64).div_ceil(7)
            );
        }
        // Under the strict policy duplicates are analyzed as-is: more
        // packets than the clean run.
        let mut input = SliceStream::with_batch_size(&dirty, 257);
        let outcome = try_collect_year_stream(
            2020,
            cfg(),
            7.0,
            PipelineMode::Sequential,
            SizeHints::none(),
            FaultPolicy::Fail,
            &mut input,
            |r| r.dst_port != 23,
        )
        .unwrap();
        assert!(outcome.analysis.total_packets > expected.total_packets);
        assert!(!outcome.faults.any());
    }

    #[test]
    fn order_regression_fails_strictly_and_is_skippable() {
        let mut records = stream();
        let n = records.len();
        records.swap(n / 2, n / 2 + 1); // one adjacent inversion
        for mode in [
            PipelineMode::Sequential,
            PipelineMode::Sharded { workers: 3 },
        ] {
            let mut input = SliceStream::with_batch_size(&records, 257);
            let err = try_collect_year_stream(
                2020,
                cfg(),
                7.0,
                mode,
                SizeHints::none(),
                FaultPolicy::Fail,
                &mut input,
                |r| r.dst_port != 23,
            )
            .unwrap_err();
            assert_eq!(
                err,
                PipelineError::Stream(StreamError::Unordered { violations: 1 }),
                "mode = {mode}"
            );

            let mut input = SliceStream::with_batch_size(&records, 257);
            let outcome = try_collect_year_stream(
                2020,
                cfg(),
                7.0,
                mode,
                SizeHints::none(),
                FaultPolicy::SkipRecord,
                &mut input,
                |r| r.dst_port != 23,
            )
            .unwrap();
            assert_eq!(outcome.faults.records_skipped, 1, "mode = {mode}");
        }
    }

    #[test]
    fn mode_budgeting_and_parsing() {
        assert_eq!(PipelineMode::Sharded { workers: 3 }.workers(), 3);
        assert_eq!(PipelineMode::Sequential.workers(), 1);

        assert_eq!(
            "sequential".parse::<PipelineMode>(),
            Ok(PipelineMode::Sequential)
        );
        assert_eq!(
            "sharded:6".parse::<PipelineMode>(),
            Ok(PipelineMode::Sharded { workers: 6 })
        );
        // One spelling per setting: no abbreviation, no bare count, no case
        // folding.
        for other in ["seq", "4", "Sequential", "SHARDED:2"] {
            assert!(other.parse::<PipelineMode>().is_err(), "{other}");
        }
        assert!("sharded:0".parse::<PipelineMode>().is_err());
        assert!("bogus".parse::<PipelineMode>().is_err());
        assert!("auto".parse::<PipelineMode>().is_ok());
        assert_eq!(
            PipelineMode::Sharded { workers: 2 }.to_string(),
            "sharded:2"
        );
    }
}
