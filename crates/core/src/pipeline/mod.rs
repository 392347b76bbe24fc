//! Source-sharded parallel year pipeline.
//!
//! A single year's measurement loop — ingress filter, fingerprinting,
//! campaign grouping, aggregation — is sequential in nature only at the
//! *stream* level; every stateful stage is keyed by **source address**:
//!
//! * [`crate::FingerprintEngine`] keeps per-source pairwise state,
//! * the campaign [`crate::campaign::Pipeline`] keeps per-source scan state
//!   machines,
//! * [`YearCollector`]'s aggregates are commutative merges (per-port sums,
//!   per-source sets, week × /16 cells).
//!
//! Routing admitted records to N workers by `hash(src_ip) % N` therefore
//! preserves semantics exactly: each worker sees the *full, in-order* probe
//! subsequence of every source it owns, and the shard outputs combine with
//! [`YearAnalysis::merge_partials`] into a result **bit-identical** to the
//! sequential run (campaigns are canonically re-sorted by start time, then
//! source). The equivalence is enforced by tests here and by the
//! `pipeline_equivalence` integration test at generator scale.
//!
//! Records travel over bounded `std::sync::mpsc` channels in ~16k-record batches so
//! per-record channel overhead amortizes away; the feeder (which also runs
//! the ingress/SYN filter, keeping capture statistics exact and ordered)
//! applies backpressure naturally when workers fall behind.
//!
//! Input arrives as a [`RecordStream`] ([`collect_year_stream`]): the
//! pipeline pulls one batch at a time and never needs the year materialized.
//! [`collect_year_sharded`] remains as the slice-input convenience wrapper
//! (a [`SliceStream`] adapter over the same engine).

use std::sync::{mpsc, Arc};
use std::thread;

use synscan_scanners::traits::mix64;
use synscan_wire::ingest::{IngestQueues, MappedCapture, MappedPcapStream};
use synscan_wire::stream::{
    BatchPool, FaultCounters, FaultPolicy, InfallibleStream, RecordStream, SliceStream,
    StreamError, TryRecordStream,
};
use synscan_wire::{Ipv4Address, ProbeRecord};

use crate::analysis::{YearAnalysis, YearCollector};
use crate::campaign::CampaignConfig;
use crate::sketch::HeavyHitterConfig;

pub mod supervised;

/// Records per channel message / stream batch — re-exported from the wire
/// layer so every stage of the pipeline agrees on the batch granularity.
pub use synscan_wire::stream::BATCH_RECORDS;

/// In-flight batches per worker channel (bounded: backpressure, not OOM).
const CHANNEL_DEPTH: usize = 4;

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

    /// Divide a worker budget among `concurrent` pipelines running at once
    /// (the cross-year fan-out composes with intra-year sharding
    /// through this): each pipeline gets `workers / concurrent` threads,
    /// collapsing to sequential when its share reaches one.
    pub fn with_budget(self, concurrent: usize) -> Self {
        match self {
            PipelineMode::Sequential => PipelineMode::Sequential,
            PipelineMode::Sharded { workers } => {
                let share = workers / concurrent.max(1);
                if share <= 1 {
                    PipelineMode::Sequential
                } else {
                    PipelineMode::Sharded { workers: share }
                }
            }
        }
    }

    /// Worker-thread count this mode uses (1 for sequential).
    pub fn workers(self) -> usize {
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
        let lower = s.to_ascii_lowercase();
        match lower.as_str() {
            "sequential" | "seq" => Ok(PipelineMode::Sequential),
            "auto" => Ok(PipelineMode::auto()),
            other => other
                .strip_prefix("sharded:")
                .unwrap_or(other)
                .parse::<usize>()
                .ok()
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

/// One message on a shard channel.
enum ShardMsg {
    /// Timestamp of the first admitted record of the whole stream. Sent to
    /// every worker before any batch, so all shards compute day/week indices
    /// against the same origin the sequential collector would use.
    Origin(u64),
    /// A run of admitted records, in stream order, all owned by this shard.
    Batch(Vec<ProbeRecord>),
}

/// Why a fallible pipeline run did not produce an analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineError {
    /// The input stream surfaced a fault under [`FaultPolicy::Fail`].
    Stream(StreamError),
    /// A shard worker panicked; its partial analysis is unrecoverable.
    WorkerPanicked,
    /// A specific shard worker died mid-run (its channel closed early or its
    /// panic was contained by the supervisor). Unlike
    /// [`PipelineError::WorkerPanicked`] the shard is known, so a supervised
    /// caller can retry the run from that shard's last checkpoint.
    WorkerFailed {
        /// Index of the shard whose worker failed.
        shard: u32,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Stream(e) => write!(f, "input stream fault: {e}"),
            PipelineError::WorkerPanicked => write!(f, "pipeline worker panicked"),
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

/// Verdict of the driver's per-record fault gate.
pub(crate) enum Gate {
    /// Clean: hand the record to the admit filter.
    Pass,
    /// Drop this record (injected duplicate / order regression under skip).
    Drop,
    /// End the run cleanly, keeping everything admitted so far.
    Stop,
}

/// The driver-side recovery layer: every record from the input stream goes
/// through here *before* the ingress filter, so a recovered stream presents
/// the identical record sequence — and therefore identical capture
/// statistics — as the clean stream it decayed from.
///
/// Two faults are detectable at this layer: exact back-to-back duplicates
/// (a re-flushed capture buffer; under a lossy policy the replay is
/// dropped), and timestamp regressions (the [`TryRecordStream`] contract
/// is non-decreasing order; under [`FaultPolicy::Fail`] a regression is an
/// [`StreamError::Unordered`] error, under skip the offender is dropped).
pub(crate) struct FaultGate {
    pub(crate) policy: FaultPolicy,
    pub(crate) counters: FaultCounters,
    pub(crate) last: Option<ProbeRecord>,
}

impl FaultGate {
    pub(crate) fn new(policy: FaultPolicy) -> Self {
        Self {
            policy,
            counters: FaultCounters::default(),
            last: None,
        }
    }

    pub(crate) fn offer(&mut self, record: &ProbeRecord) -> Result<Gate, StreamError> {
        if let Some(last) = &self.last {
            // Duplicate check first: an exact replay carries an equal (not
            // regressed) timestamp, so it never reaches the order check.
            if record == last {
                match self.policy {
                    // Strict mode forwards duplicates untouched: equal
                    // timestamps do not violate the stream contract, and
                    // strict means "analyze exactly what arrived".
                    FaultPolicy::Fail => return Ok(Gate::Pass),
                    FaultPolicy::SkipRecord | FaultPolicy::StopClean => {
                        self.counters.duplicates_dropped += 1;
                        return Ok(Gate::Drop);
                    }
                }
            }
            if record.ts_micros < last.ts_micros {
                match self.policy {
                    FaultPolicy::Fail => {
                        return Err(StreamError::Unordered { violations: 1 });
                    }
                    FaultPolicy::SkipRecord => {
                        self.counters.records_skipped += 1;
                        return Ok(Gate::Drop);
                    }
                    FaultPolicy::StopClean => {
                        self.counters.streams_truncated += 1;
                        return Ok(Gate::Stop);
                    }
                }
            }
        }
        self.last = Some(*record);
        Ok(Gate::Pass)
    }

    /// A terminal error from the stream itself: fatal under strict policy,
    /// a counted clean truncation under the lossy ones.
    pub(crate) fn stream_error(&mut self, e: StreamError) -> Result<(), PipelineError> {
        match self.policy {
            FaultPolicy::Fail => Err(PipelineError::Stream(e)),
            FaultPolicy::SkipRecord | FaultPolicy::StopClean => {
                self.counters.streams_truncated += 1;
                Ok(())
            }
        }
    }
}

/// Run one year's collection from any [`RecordStream`], sequentially or
/// fanned out over shard threads.
///
/// Infallible convenience over [`try_collect_year_stream`]: the stream must
/// honor the [`RecordStream`] contract (records in non-decreasing timestamp
/// order — the generator's heap merge and pcap import both guarantee this).
/// A contract violation, or a worker panic, panics here; callers that ingest
/// untrusted or fault-injected input use the fallible driver with a
/// [`FaultPolicy`] instead.
///
/// `admit` is the ingress/SYN filter — it runs on the calling thread, in
/// stream order, exactly once per record, so stateful filters
/// ([`synscan_telescope::CaptureSession`]) keep exact statistics.
/// `hints` pre-sizes the collector's hot state ([`SizeHints::none`] = grow
/// on demand).
pub fn collect_year_stream<S, F>(
    year: u16,
    config: CampaignConfig,
    period_days: f64,
    mode: PipelineMode,
    hints: SizeHints,
    stream: &mut S,
    admit: F,
) -> YearAnalysis
where
    S: RecordStream + ?Sized,
    F: FnMut(&ProbeRecord) -> bool,
{
    let mut stream = InfallibleStream(stream);
    match try_collect_year_stream(
        year,
        config,
        period_days,
        mode,
        hints,
        FaultPolicy::Fail,
        &mut stream,
        admit,
    ) {
        Ok(outcome) => outcome.analysis,
        Err(e) => panic!("record stream violated the RecordStream contract: {e}"),
    }
}

/// Run one year's collection from any fallible record stream, sequentially
/// or fanned out over shard threads — the single driver every front end
/// (synthesis, pcap import, chaos tests, benches) ultimately goes through.
///
/// Faults travel two ways:
///
/// * **in-band**, as records that should not be there — exact back-to-back
///   duplicates and timestamp regressions. The driver's fault gate screens
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
/// itself surfaces as [`PipelineError::WorkerPanicked`].
///
/// Memory is O(batch): the caller's stream lends one batch at a time, and
/// the sharded arm keeps at most `CHANNEL_DEPTH + 1` batches in flight per
/// worker (bounded channels give natural backpressure). Both modes are
/// bit-identical to offering every gate-surviving admitted record to one
/// [`YearCollector`] built with the same config and period.
#[allow(clippy::too_many_arguments)]
pub fn try_collect_year_stream<S, F>(
    year: u16,
    config: CampaignConfig,
    period_days: f64,
    mode: PipelineMode,
    hints: SizeHints,
    policy: FaultPolicy,
    stream: &mut S,
    mut admit: F,
) -> Result<PipelineOutcome, PipelineError>
where
    S: TryRecordStream + ?Sized,
    F: FnMut(&ProbeRecord) -> bool,
{
    let mut gate = FaultGate::new(policy);
    let workers = match mode {
        PipelineMode::Sequential => {
            let mut collector = YearCollector::with_period(year, config, period_days);
            hints.apply_to(&mut collector);
            'feed: loop {
                let batch = match stream.try_next_batch() {
                    Ok(Some(batch)) => batch,
                    Ok(None) => break,
                    Err(e) => {
                        gate.stream_error(e)?;
                        break;
                    }
                };
                let mut last_admitted = None;
                let mut stop = false;
                for record in batch {
                    match gate.offer(record).map_err(PipelineError::Stream)? {
                        Gate::Pass => {
                            if admit(record) {
                                collector.offer(record);
                                last_admitted = Some(record.ts_micros);
                            }
                        }
                        Gate::Drop => {}
                        Gate::Stop => {
                            stop = true;
                            break;
                        }
                    }
                }
                // Per-batch housekeeping bounds memory; result-neutral
                // because per-source expiry is deterministic (lazy-reset
                // fingerprinting, idempotent scan expiry) — asserted by the
                // equivalence tests.
                if let Some(ts) = last_admitted {
                    collector.housekeeping(ts);
                }
                if stop {
                    break 'feed;
                }
            }
            return Ok(PipelineOutcome {
                analysis: collector.finish(),
                faults: gate.counters,
            });
        }
        PipelineMode::Sharded { workers } => workers.max(1),
    };

    let partials: Result<Vec<Option<YearAnalysis>>, PipelineError> = thread::scope(|scope| {
        // Consumed batch buffers flow back to the feeder over this channel
        // (bounded to the fan-out's maximum in-flight count, so try_send
        // from a worker can only fail if the feeder stopped draining — in
        // which case the buffer is simply dropped).
        let (recycle_tx, recycle_rx) =
            mpsc::sync_channel::<Vec<ProbeRecord>>(workers * (CHANNEL_DEPTH + 2));
        let mut txs = Vec::with_capacity(workers);
        let mut joins = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = mpsc::sync_channel::<ShardMsg>(CHANNEL_DEPTH);
            txs.push(tx);
            let hint = hints.per_worker(workers);
            let recycle = recycle_tx.clone();
            joins.push(
                scope.spawn(move || worker_loop(year, config, period_days, hint, rx, recycle)),
            );
        }
        drop(recycle_tx);

        // The feeder: gate, filter in stream order, route by source hash.
        // Batch buffers come from the pool, which refills from workers'
        // returned buffers — steady state allocates nothing per batch.
        let mut pool = BatchPool::new();
        let mut batches: Vec<Vec<ProbeRecord>> =
            (0..workers).map(|_| pool.acquire(BATCH_RECORDS)).collect();
        let mut origin_sent = false;
        let mut fatal: Option<PipelineError> = None;
        'feed: loop {
            let pulled = match stream.try_next_batch() {
                Ok(Some(pulled)) => pulled,
                Ok(None) => break,
                Err(e) => {
                    if let Err(fault) = gate.stream_error(e) {
                        fatal = Some(fault);
                    }
                    break;
                }
            };
            for record in pulled {
                match gate.offer(record) {
                    Ok(Gate::Pass) => {}
                    Ok(Gate::Drop) => continue,
                    Ok(Gate::Stop) => break 'feed,
                    Err(e) => {
                        fatal = Some(PipelineError::Stream(e));
                        break 'feed;
                    }
                }
                if !admit(record) {
                    continue;
                }
                if !origin_sent {
                    for (shard, tx) in txs.iter().enumerate() {
                        if tx.send(ShardMsg::Origin(record.ts_micros)).is_err() {
                            fatal = Some(PipelineError::WorkerFailed {
                                shard: shard as u32,
                            });
                            break 'feed;
                        }
                    }
                    origin_sent = true;
                }
                let shard = shard_of(record.src_ip, workers);
                let batch = &mut batches[shard];
                batch.push(*record);
                if batch.len() >= BATCH_RECORDS {
                    while let Ok(returned) = recycle_rx.try_recv() {
                        pool.release(returned);
                    }
                    let replacement = pool.acquire(BATCH_RECORDS);
                    let full = std::mem::replace(batch, replacement);
                    // A send on a closed channel means the worker is gone
                    // (it panicked and dropped its receiver): stop feeding
                    // and surface the shard instead of pushing into the void.
                    if txs[shard].send(ShardMsg::Batch(full)).is_err() {
                        fatal = Some(PipelineError::WorkerFailed {
                            shard: shard as u32,
                        });
                        break 'feed;
                    }
                }
            }
        }
        if fatal.is_none() {
            for (shard, (tx, batch)) in txs.iter().zip(batches).enumerate() {
                if !batch.is_empty() && tx.send(ShardMsg::Batch(batch)).is_err() {
                    fatal = Some(PipelineError::WorkerFailed {
                        shard: shard as u32,
                    });
                    break;
                }
            }
        }
        drop(txs); // close the channels: workers drain and finish

        // Join every worker before deciding the outcome: a fatal fault must
        // not leave threads running, and a worker panic must not propagate.
        let mut partials = Vec::with_capacity(workers);
        let mut panicked = false;
        for join in joins {
            match join.join() {
                Ok(partial) => partials.push(partial),
                Err(_) => panicked = true,
            }
        }
        if let Some(fault) = fatal {
            return Err(fault);
        }
        if panicked {
            return Err(PipelineError::WorkerPanicked);
        }
        Ok(partials)
    });

    let partials: Vec<YearAnalysis> = partials?.into_iter().flatten().collect();
    let analysis = if partials.is_empty() {
        // Nothing was admitted: same empty analysis the sequential path
        // would produce — including the (empty) heavy-hitter state when the
        // hints enable it, so the equivalence to sequential holds exactly.
        let mut collector = YearCollector::with_period(year, config, period_days);
        hints.apply_to(&mut collector);
        collector.finish()
    } else {
        YearAnalysis::merge_partials(partials)
    };
    Ok(PipelineOutcome {
        analysis,
        faults: gate.counters,
    })
}

/// Run one year's collection fanned out over `workers` shard threads, from
/// an in-memory slice. Convenience wrapper: adapts `records` through a
/// [`SliceStream`] into [`collect_year_stream`].
///
/// `records` must be in timestamp order (the generator and pcap import both
/// guarantee this).
pub fn collect_year_sharded<F>(
    year: u16,
    config: CampaignConfig,
    period_days: f64,
    workers: usize,
    hints: SizeHints,
    records: &[ProbeRecord],
    admit: F,
) -> YearAnalysis
where
    F: FnMut(&ProbeRecord) -> bool,
{
    let mut stream = SliceStream::new(records);
    collect_year_stream(
        year,
        config,
        period_days,
        PipelineMode::Sharded {
            workers: workers.max(1),
        },
        hints,
        &mut stream,
        admit,
    )
}

/// What the zero-copy ingest front end observed while feeding a mapped run:
/// the source-side counters that [`PipelineOutcome::faults`] deliberately
/// excludes, plus the parse census.
#[derive(Debug, Clone, Copy, Default)]
pub struct MappedIngestReport {
    /// Faults the ingest-side [`FaultPolicy`] skipped or truncated on.
    pub faults: FaultCounters,
    /// Frames that were not parseable IPv4/TCP.
    pub non_tcp_frames: u64,
    /// Consecutive-record timestamp inversions (including multi-queue
    /// boundary comparisons).
    pub order_violations: u64,
}

/// Run one year's collection straight off a mapped capture through the
/// zero-copy ingest layer: `queues = 1` decodes on the calling thread via
/// [`MappedPcapStream`]; more queues partition the mapping on record
/// boundaries and decode in parallel ([`IngestQueues`]), merging back in
/// capture order before the driver's fault gate. Either way the driver is
/// [`try_collect_year_stream`] — chaos and checkpoint semantics downstream
/// are untouched, and the result is bit-identical to feeding the same
/// capture through the `Read`-based stream.
#[allow(clippy::too_many_arguments)]
pub fn try_collect_year_mapped<F>(
    year: u16,
    config: CampaignConfig,
    period_days: f64,
    mode: PipelineMode,
    hints: SizeHints,
    policy: FaultPolicy,
    capture: &Arc<MappedCapture>,
    queues: usize,
    admit: F,
) -> Result<(PipelineOutcome, MappedIngestReport), PipelineError>
where
    F: FnMut(&ProbeRecord) -> bool,
{
    if queues <= 1 {
        let mut stream = MappedPcapStream::with_policy(capture.as_slice(), policy)
            .map_err(|e| PipelineError::Stream(StreamError::Pcap(e)))?;
        let outcome = try_collect_year_stream(
            year,
            config,
            period_days,
            mode,
            hints,
            policy,
            &mut stream,
            admit,
        )?;
        let report = MappedIngestReport {
            faults: stream.faults(),
            non_tcp_frames: stream.non_tcp_frames(),
            order_violations: stream.order_violations(),
        };
        Ok((outcome, report))
    } else {
        let mut stream = IngestQueues::new(Arc::clone(capture), queues, policy)
            .map_err(|e| PipelineError::Stream(StreamError::Pcap(e)))?
            .spawn();
        let outcome = try_collect_year_stream(
            year,
            config,
            period_days,
            mode,
            hints,
            policy,
            &mut stream,
            admit,
        )?;
        let report = MappedIngestReport {
            faults: stream.faults(),
            non_tcp_frames: stream.non_tcp_frames(),
            order_violations: stream.order_violations(),
        };
        Ok((outcome, report))
    }
}

/// One shard: own a full collector (fingerprint + campaigns + aggregates)
/// for the sources routed here. Consumed batch buffers go back to the
/// feeder via `recycle`.
fn worker_loop(
    year: u16,
    config: CampaignConfig,
    period_days: f64,
    hints: SizeHints,
    rx: mpsc::Receiver<ShardMsg>,
    recycle: mpsc::SyncSender<Vec<ProbeRecord>>,
) -> Option<YearAnalysis> {
    let mut collector: Option<YearCollector> = None;
    for msg in rx {
        match msg {
            ShardMsg::Origin(t0) => {
                let mut fresh = YearCollector::with_origin(year, config, period_days, t0);
                hints.apply_to(&mut fresh);
                collector = Some(fresh);
            }
            ShardMsg::Batch(mut batch) => {
                // The feeder's protocol sends Origin before any batch; if the
                // protocol ever drifts, degrade to this shard's first record
                // as the origin instead of panicking the worker. (A shifted
                // origin skews day/week bins; a panic loses the whole run.)
                let Some(first) = batch.first() else {
                    continue;
                };
                let first_ts = first.ts_micros;
                let collector = collector.get_or_insert_with(|| {
                    let mut fresh = YearCollector::with_origin(year, config, period_days, first_ts);
                    hints.apply_to(&mut fresh);
                    fresh
                });
                for record in &batch {
                    collector.offer(record);
                }
                // Per-batch housekeeping bounds memory; harmless for the
                // result because per-source expiry is deterministic
                // (lazy-reset fingerprinting, idempotent scan expiry).
                if let Some(last) = batch.last() {
                    collector.housekeeping(last.ts_micros);
                }
                batch.clear();
                // Best-effort: a full (or closed) recycle channel just means
                // this buffer is dropped instead of reused.
                let _ = recycle.try_send(batch);
            }
        }
    }
    collector.map(YearCollector::finish)
}

#[cfg(test)]
mod tests {
    use super::*;
    use synscan_wire::TcpFlags;

    fn cfg() -> CampaignConfig {
        CampaignConfig {
            min_distinct_dests: 5,
            min_rate_pps: 10.0,
            expiry_secs: 3600.0,
            monitored_addresses: 1 << 16,
        }
    }

    /// A deterministic interleaved stream: 40 sources, two ports, a mix of
    /// ZMap-marked and anonymous probes, in timestamp order.
    fn stream() -> Vec<ProbeRecord> {
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

    #[test]
    fn sharded_matches_sequential_for_any_worker_count() {
        let records = stream();
        let expected = sequential(&records);
        for workers in [1usize, 2, 3, 8] {
            let got = collect_year_sharded(
                2020,
                cfg(),
                7.0,
                workers,
                SizeHints::sources(64),
                &records,
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
            let mut input = SliceStream::with_batch_size(&records, 257);
            let got = collect_year_stream(
                2020,
                cfg(),
                7.0,
                mode,
                SizeHints::sources(64),
                &mut input,
                |r| r.dst_port != 23,
            );
            assert_eq!(expected, got, "mode = {mode}");
        }
    }

    #[test]
    fn nothing_admitted_produces_an_empty_analysis() {
        let records = stream();
        let got = collect_year_sharded(2020, cfg(), 7.0, 4, SizeHints::none(), &records, |_| false);
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
            let got = collect_year_sharded(2020, cfg(), 7.0, workers, hints, &records, |r| {
                r.dst_port != 23
            });
            assert_eq!(expected, got, "workers = {workers}");
        }
        // The nothing-admitted fallback must agree with an empty sequential
        // run too — including the (empty) sketch state.
        let empty = collect_year_sharded(2020, cfg(), 7.0, 4, hints, &records, |_| false);
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
            let mut stream = SliceStream::new(&[]);
            let got = collect_year_stream(
                2020,
                cfg(),
                7.0,
                mode,
                SizeHints::none(),
                &mut stream,
                |_| true,
            );
            assert_eq!(got.total_packets, 0, "mode = {mode}");
            assert_eq!(got.distinct_sources, 0);
            assert!(got.campaigns.is_empty());

            let mut stream = SliceStream::new(&[]);
            let mut stream = InfallibleStream(&mut stream);
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
            let mut input = InfallibleStream(&mut input);
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
        let mut input = InfallibleStream(&mut input);
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
            let mut input = InfallibleStream(&mut input);
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
            let mut input = InfallibleStream(&mut input);
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
        assert_eq!(
            PipelineMode::Sharded { workers: 8 }.with_budget(2),
            PipelineMode::Sharded { workers: 4 }
        );
        assert_eq!(
            PipelineMode::Sharded { workers: 8 }.with_budget(8),
            PipelineMode::Sequential
        );
        assert_eq!(
            PipelineMode::Sequential.with_budget(1),
            PipelineMode::Sequential
        );
        assert_eq!(PipelineMode::Sharded { workers: 3 }.workers(), 3);
        assert_eq!(PipelineMode::Sequential.workers(), 1);

        assert_eq!("seq".parse::<PipelineMode>(), Ok(PipelineMode::Sequential));
        assert_eq!(
            "sharded:6".parse::<PipelineMode>(),
            Ok(PipelineMode::Sharded { workers: 6 })
        );
        assert_eq!(
            "4".parse::<PipelineMode>(),
            Ok(PipelineMode::Sharded { workers: 4 })
        );
        assert!("sharded:0".parse::<PipelineMode>().is_err());
        assert!("bogus".parse::<PipelineMode>().is_err());
        assert!("auto".parse::<PipelineMode>().is_ok());
        assert_eq!(
            PipelineMode::Sharded { workers: 2 }.to_string(),
            "sharded:2"
        );
    }
}
