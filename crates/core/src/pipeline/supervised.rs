//! Supervised, checkpointed year runs: the crash-safe sibling of
//! [`try_collect_year_stream`](super::try_collect_year_stream).
//!
//! The plain pipeline driver answers "what does this stream analyze to?";
//! this module answers "and what if the machine dies halfway through a
//! decade?". It layers three guarantees over the same record-for-record
//! processing loop:
//!
//! 1. **Checkpoints** — at configurable record-count intervals the complete
//!    run state (fault-gate, admit-filter state, every shard's collector) is
//!    serialized through [`crate::checkpoint`] and written atomically to a
//!    rolling per-year file. Cuts are taken only at *pulled-batch
//!    boundaries*, so the stored cursor is always a sum of whole stream
//!    batches and a resumed run can fast-forward the deterministic input
//!    stream to land exactly on it.
//! 2. **Resume** — [`run_year_supervised`] accepts a prior [`Checkpoint`],
//!    validates its identity (year, seed, shard count), restores all state,
//!    skips the already-processed prefix, and continues. Because shard
//!    routing, expiry housekeeping, and fault gating are all deterministic
//!    and batch-boundary-neutral, a resumed run produces **bit-identical**
//!    output to an uninterrupted one — asserted by this module's tests in
//!    both sequential and sharded modes.
//! 3. **Supervision** — sharded workers run under
//!    [`contain`]: a panic becomes a typed
//!    [`PipelineError::WorkerFailed`] carrying the shard index instead of a
//!    process abort, healthy shards are joined and drained, and a watchdog
//!    thread flags workers that stop heartbeating within a deadline.
//!
//! The consistent cut in sharded mode is a message-order barrier: the feeder
//! flushes every partial per-shard batch, then sends each worker a
//! `SupMsg::Snapshot` request. Workers process messages in order, so the
//! snapshot they reply with reflects exactly the records the cursor counts —
//! no locks, no pausing the world beyond one reply per shard.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use synscan_wire::stream::{skip_records, BatchPool, FaultPolicy, TryRecordStream};
use synscan_wire::ProbeRecord;

use crate::analysis::{YearAnalysis, YearCollector};
use crate::campaign::CampaignConfig;
use crate::checkpoint::{Checkpoint, CheckpointError, CheckpointHeader};
use crate::supervise::{
    contain, watch, HeartbeatBoard, InjectedFaults, SupervisionConfig, SupervisionReport,
    WorkerFailure,
};

use super::{
    shard_of, FaultGate, Gate, PipelineError, PipelineMode, PipelineOutcome, SizeHints,
    BATCH_RECORDS, CHANNEL_DEPTH,
};

/// The admit filter of a supervised run: the stateful generalization of the
/// plain driver's `FnMut(&ProbeRecord) -> bool` closure.
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

/// Adapts a stateless admit closure into an [`AdmitState`] (tests, ad-hoc
/// runs): the snapshot is empty and restore accepts only emptiness.
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

/// What to run: the year-pipeline parameters a supervised run shares with
/// [`try_collect_year_stream`](super::try_collect_year_stream).
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
}

/// Where, how often, and under what identity to checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointOptions {
    /// Directory holding the rolling per-year checkpoint files.
    pub dir: std::path::PathBuf,
    /// Records pulled between periodic checkpoints; `0` writes only the
    /// final snapshots (completion, stop-flag interrupt).
    pub every: u64,
    /// Run identity seed baked into the header; a resume under a different
    /// seed is rejected before any work.
    pub seed: u64,
    /// Stop cleanly after this many periodic checkpoints — the
    /// deterministic interruption hook the kill-and-resume drills use.
    pub interrupt_after: Option<u64>,
}

/// Everything around the run: supervision knobs, checkpointing, resume
/// state, and fault-injection hooks.
#[derive(Default)]
pub struct SupervisorOptions<'a> {
    /// Watchdog and heartbeat timing.
    pub supervision: SupervisionConfig,
    /// Where and how often to checkpoint; `None` disables checkpointing.
    pub checkpoint: Option<CheckpointOptions>,
    /// A prior checkpoint to resume from.
    pub resume: Option<Checkpoint>,
    /// Cooperative interrupt flag (set by a signal handler): checked at
    /// batch boundaries; when raised the run writes a final checkpoint (if
    /// enabled) and returns [`RunStatus::Interrupted`].
    pub stop: Option<&'a AtomicBool>,
    /// Deterministic fault injection for supervision tests (sharded mode
    /// only; the sequential arm has no workers to fail).
    pub inject: Option<Arc<InjectedFaults>>,
}

/// Why a supervised run did not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The pipeline itself failed (stream fault, worker panic).
    Pipeline(PipelineError),
    /// Checkpoint I/O or validation failed.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Pipeline(e) => write!(f, "{e}"),
            RunError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<PipelineError> for RunError {
    fn from(e: PipelineError) -> Self {
        RunError::Pipeline(e)
    }
}

impl From<CheckpointError> for RunError {
    fn from(e: CheckpointError) -> Self {
        RunError::Checkpoint(e)
    }
}

/// How a supervised run ended.
// One value per run, matched once: boxing the finished analysis buys nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum RunStatus {
    /// The stream was fully processed.
    Completed {
        /// The analysis and driver-side fault tally.
        outcome: PipelineOutcome,
        /// Stalls and contained failures observed along the way.
        report: SupervisionReport,
        /// Checkpoints written during this run.
        checkpoints: u64,
    },
    /// The run stopped early — a raised stop flag or a reached
    /// `interrupt_after` drill limit — after persisting its state.
    Interrupted {
        /// Checkpoints written during this run.
        checkpoints: u64,
        /// Records pulled from the stream when the run stopped.
        cursor: u64,
    },
}

/// How the feed loop ended (sharded arm).
enum FeedEnd {
    /// Clean stream exhaustion: flush, final checkpoint, merge.
    Eof,
    /// Early but complete: a `StopClean` gate stop or a counted lossy stream
    /// truncation. Flush and merge, but no completion checkpoint — the
    /// cursor of a mid-batch stop does not mark a resumable position.
    Graceful,
    /// The stop flag was raised: final checkpoint, then interrupt.
    Halt,
    /// The `interrupt_after` drill limit was reached (checkpoint already
    /// written).
    DrillHalt,
    /// A fatal error: tear down without flushing.
    Dead,
}

/// Run one year under supervision, with optional checkpointing and resume.
///
/// This is the crash-safe entry point the `Experiment` and analyze layers
/// build on. Semantics:
///
/// * With `opts.resume`, the checkpoint is validated against the spec (year,
///   shard count) and the configured seed, all state is restored, and
///   `stream` — which must be a fresh instance of the *same deterministic
///   stream* the checkpoint was taken from — is fast-forwarded past the
///   already-processed prefix. The continued run produces output identical
///   to an uninterrupted one.
/// * With `opts.checkpoint`, a snapshot is written every `every` records
///   (0 = only final snapshots), plus a final snapshot on clean completion
///   (so completed years resume trivially) and on a raised stop flag.
/// * A sharded worker panic is contained and surfaced as
///   [`PipelineError::WorkerFailed`] with the shard index; healthy workers
///   are joined and the process never aborts. Callers that checkpoint can
///   retry once from the last on-disk snapshot.
pub fn run_year_supervised<S, A>(
    spec: &RunSpec,
    opts: SupervisorOptions<'_>,
    stream: &mut S,
    admit: &mut A,
) -> Result<RunStatus, RunError>
where
    S: TryRecordStream + ?Sized,
    A: AdmitState + ?Sized,
{
    let SupervisorOptions {
        supervision,
        checkpoint,
        resume,
        stop,
        inject,
    } = opts;
    let workers = spec.mode.workers();

    if let Some(ck) = &resume {
        let seed = checkpoint.as_ref().map_or(ck.header.seed, |c| c.seed);
        ck.validate(spec.year, seed, workers)?;
        admit.restore(&ck.admit_state)?;
        let consumed = skip_records(stream, ck.header.cursor).map_err(PipelineError::Stream)?;
        if consumed != ck.header.cursor {
            return Err(RunError::Checkpoint(CheckpointError::Mismatch {
                field: "cursor",
                expected: ck.header.cursor,
                found: consumed,
            }));
        }
    }

    match spec.mode {
        PipelineMode::Sequential => {
            run_sequential(spec, checkpoint.as_ref(), resume, stop, stream, admit)
        }
        PipelineMode::Sharded { .. } => run_sharded(
            spec,
            workers,
            supervision,
            checkpoint.as_ref(),
            resume,
            stop,
            inject,
            stream,
            admit,
        ),
    }
}

/// Assemble and atomically write one checkpoint file.
#[allow(clippy::too_many_arguments)]
fn write_cut(
    opts: &CheckpointOptions,
    spec: &RunSpec,
    workers: usize,
    cursor: u64,
    seq: u64,
    origin: Option<u64>,
    gate: &FaultGate,
    admit_state: Vec<u8>,
    shards: Vec<Vec<u8>>,
) -> Result<(), CheckpointError> {
    let ck = Checkpoint {
        header: CheckpointHeader {
            year: spec.year,
            seed: opts.seed,
            workers: workers as u32,
            cursor,
            seq,
            origin,
        },
        gate_last: gate.last,
        faults: gate.counters,
        admit_state,
        shards,
    };
    ck.write_atomic(&opts.dir)?;
    Ok(())
}

/// The supervised sequential driver: the reference loop plus checkpoint /
/// stop-flag handling at batch boundaries.
fn run_sequential<S, A>(
    spec: &RunSpec,
    checkpoint: Option<&CheckpointOptions>,
    resume: Option<Checkpoint>,
    stop: Option<&AtomicBool>,
    stream: &mut S,
    admit: &mut A,
) -> Result<RunStatus, RunError>
where
    S: TryRecordStream + ?Sized,
    A: AdmitState + ?Sized,
{
    let mut gate = FaultGate::new(spec.policy);
    let mut cursor = 0u64;
    let mut seq = 0u64;
    let mut restored = None;
    if let Some(ck) = &resume {
        gate.counters = ck.faults;
        gate.last = ck.gate_last;
        cursor = ck.header.cursor;
        seq = ck.header.seq;
        restored = ck.shard_collector(0)?;
    }
    let mut collector = restored.unwrap_or_else(|| {
        let mut fresh = YearCollector::with_period(spec.year, spec.config, spec.period_days);
        spec.hints.apply_to(&mut fresh);
        fresh
    });

    let every = checkpoint.map_or(0, |c| c.every);
    let mut next_due = if every > 0 { cursor + every } else { u64::MAX };
    let mut written = 0u64;
    let mut clean_eof = false;
    'feed: loop {
        if stop.is_some_and(|s| s.load(Ordering::Acquire)) {
            if let Some(c) = checkpoint {
                seq += 1;
                write_cut(
                    c,
                    spec,
                    1,
                    cursor,
                    seq,
                    collector.origin(),
                    &gate,
                    admit.snapshot(),
                    vec![Checkpoint::encode_collector(Some(&collector))],
                )?;
                written += 1;
            }
            return Ok(RunStatus::Interrupted {
                checkpoints: written,
                cursor,
            });
        }
        let batch = match stream.try_next_batch() {
            Ok(Some(batch)) => batch,
            Ok(None) => {
                clean_eof = true;
                break;
            }
            Err(e) => {
                gate.stream_error(e)?;
                break;
            }
        };
        cursor += batch.len() as u64;
        let mut last_admitted = None;
        let mut stopped = false;
        for record in batch {
            match gate.offer(record).map_err(PipelineError::Stream)? {
                Gate::Pass => {
                    if admit.admit(record) {
                        collector.offer(record);
                        last_admitted = Some(record.ts_micros);
                    }
                }
                Gate::Drop => {}
                Gate::Stop => {
                    stopped = true;
                    break;
                }
            }
        }
        if let Some(ts) = last_admitted {
            collector.housekeeping(ts);
        }
        if stopped {
            break 'feed;
        }
        if cursor >= next_due {
            if let Some(c) = checkpoint {
                seq += 1;
                write_cut(
                    c,
                    spec,
                    1,
                    cursor,
                    seq,
                    collector.origin(),
                    &gate,
                    admit.snapshot(),
                    vec![Checkpoint::encode_collector(Some(&collector))],
                )?;
                written += 1;
                next_due = cursor + every;
                if c.interrupt_after.is_some_and(|k| written >= k) {
                    return Ok(RunStatus::Interrupted {
                        checkpoints: written,
                        cursor,
                    });
                }
            }
        }
    }
    // A completion checkpoint is written only on clean exhaustion: the
    // cursor of a mid-batch `StopClean` stop or a lossy stream truncation
    // is not a resumable position (replaying from it would re-process
    // records the original run declined, or re-count the truncation).
    if clean_eof {
        if let Some(c) = checkpoint {
            seq += 1;
            write_cut(
                c,
                spec,
                1,
                cursor,
                seq,
                collector.origin(),
                &gate,
                admit.snapshot(),
                vec![Checkpoint::encode_collector(Some(&collector))],
            )?;
            written += 1;
        }
    }
    Ok(RunStatus::Completed {
        outcome: PipelineOutcome {
            analysis: collector.finish(),
            faults: gate.counters,
        },
        report: SupervisionReport::default(),
        checkpoints: written,
    })
}

/// One message on a supervised shard channel.
enum SupMsg {
    /// Timestamp of the first admitted record of the whole stream; workers
    /// that already restored a collector from a checkpoint ignore it.
    Origin(u64),
    /// A run of admitted records, in stream order, all owned by this shard.
    Batch(Vec<ProbeRecord>),
    /// Consistent-cut request: reply with the serialized collector. Sent
    /// after all partial batches were flushed, so the in-order reply
    /// reflects exactly the records the checkpoint cursor counts.
    Snapshot(mpsc::SyncSender<Vec<u8>>),
}

/// Flush partial batches and take a consistent cut of every shard's
/// collector. On failure returns the index of the dead shard.
fn collect_cut(
    txs: &[mpsc::SyncSender<SupMsg>],
    batches: &mut [Vec<ProbeRecord>],
    pool: &mut BatchPool,
) -> Result<Vec<Vec<u8>>, u32> {
    for (shard, batch) in batches.iter_mut().enumerate() {
        if !batch.is_empty() {
            let replacement = pool.acquire(BATCH_RECORDS);
            let full = std::mem::replace(batch, replacement);
            if txs[shard].send(SupMsg::Batch(full)).is_err() {
                return Err(shard as u32);
            }
        }
    }
    let mut blobs = Vec::with_capacity(txs.len());
    for (shard, tx) in txs.iter().enumerate() {
        let (reply_tx, reply_rx) = mpsc::sync_channel::<Vec<u8>>(1);
        if tx.send(SupMsg::Snapshot(reply_tx)).is_err() {
            return Err(shard as u32);
        }
        match reply_rx.recv() {
            Ok(blob) => blobs.push(blob),
            Err(_) => return Err(shard as u32),
        }
    }
    Ok(blobs)
}

/// The supervised sharded driver: heartbeats, panic containment, stall
/// watchdog, and consistent-cut checkpointing around the fan-out loop.
#[allow(clippy::too_many_arguments)]
fn run_sharded<S, A>(
    spec: &RunSpec,
    workers: usize,
    supervision: SupervisionConfig,
    checkpoint: Option<&CheckpointOptions>,
    resume: Option<Checkpoint>,
    stop: Option<&AtomicBool>,
    inject: Option<Arc<InjectedFaults>>,
    stream: &mut S,
    admit: &mut A,
) -> Result<RunStatus, RunError>
where
    S: TryRecordStream + ?Sized,
    A: AdmitState + ?Sized,
{
    let mut gate = FaultGate::new(spec.policy);
    let mut cursor = 0u64;
    let mut seq = 0u64;
    let mut origin: Option<u64> = None;
    let mut restored: Vec<Option<YearCollector>> = (0..workers).map(|_| None).collect();
    if let Some(ck) = &resume {
        gate.counters = ck.faults;
        gate.last = ck.gate_last;
        cursor = ck.header.cursor;
        seq = ck.header.seq;
        origin = ck.header.origin;
        for (shard, slot) in restored.iter_mut().enumerate() {
            *slot = ck.shard_collector(shard)?;
        }
    }

    let board = HeartbeatBoard::new(workers);
    let done = AtomicBool::new(false);

    thread::scope(|scope| {
        let (recycle_tx, recycle_rx) =
            mpsc::sync_channel::<Vec<ProbeRecord>>(workers * (CHANNEL_DEPTH + 2));
        let mut txs = Vec::with_capacity(workers);
        let mut joins = Vec::with_capacity(workers);
        for (shard, slot) in restored.iter_mut().enumerate() {
            let (tx, rx) = mpsc::sync_channel::<SupMsg>(CHANNEL_DEPTH);
            txs.push(tx);
            let spec = *spec;
            let hint = spec.hints.per_worker(workers);
            let recycle = recycle_tx.clone();
            let restored_collector = slot.take();
            let board = &board;
            let inject = inject.clone();
            joins.push(scope.spawn(move || {
                supervised_worker(
                    shard as u32,
                    spec,
                    hint,
                    restored_collector,
                    rx,
                    recycle,
                    board,
                    supervision.beat_every,
                    inject,
                )
            }));
        }
        drop(recycle_tx);
        let watchdog = scope.spawn(|| watch(&board, &supervision, &done));

        let mut pool = BatchPool::new();
        let mut batches: Vec<Vec<ProbeRecord>> =
            (0..workers).map(|_| pool.acquire(BATCH_RECORDS)).collect();
        let mut fatal: Option<RunError> = None;
        let mut end = FeedEnd::Eof;
        let mut written = 0u64;

        // On resume, re-broadcast the recorded origin so shards that had no
        // records yet bin against the same epoch; restored workers ignore it.
        let mut origin_sent = false;
        if let Some(t0) = origin {
            for (shard, tx) in txs.iter().enumerate() {
                if tx.send(SupMsg::Origin(t0)).is_err() {
                    fatal = Some(RunError::Pipeline(PipelineError::WorkerFailed {
                        shard: shard as u32,
                    }));
                    end = FeedEnd::Dead;
                    break;
                }
            }
            origin_sent = true;
        }

        let every = checkpoint.map_or(0, |c| c.every);
        let mut next_due = if every > 0 { cursor + every } else { u64::MAX };
        if fatal.is_none() {
            'feed: loop {
                if stop.is_some_and(|s| s.load(Ordering::Acquire)) {
                    end = FeedEnd::Halt;
                    break;
                }
                // `next_due` is finite only when checkpointing is enabled.
                if let (true, Some(c)) = (cursor >= next_due, checkpoint) {
                    seq += 1;
                    match collect_cut(&txs, &mut batches, &mut pool)
                        .map_err(|shard| RunError::Pipeline(PipelineError::WorkerFailed { shard }))
                        .and_then(|blobs| {
                            write_cut(
                                c,
                                spec,
                                workers,
                                cursor,
                                seq,
                                origin,
                                &gate,
                                admit.snapshot(),
                                blobs,
                            )
                            .map_err(RunError::Checkpoint)
                        }) {
                        Ok(()) => {
                            written += 1;
                            next_due = cursor + every;
                            if c.interrupt_after.is_some_and(|k| written >= k) {
                                end = FeedEnd::DrillHalt;
                                break;
                            }
                        }
                        Err(e) => {
                            fatal = Some(e);
                            end = FeedEnd::Dead;
                            break;
                        }
                    }
                }
                let pulled = match stream.try_next_batch() {
                    Ok(Some(pulled)) => pulled,
                    Ok(None) => {
                        end = FeedEnd::Eof;
                        break;
                    }
                    Err(e) => {
                        match gate.stream_error(e) {
                            Ok(()) => end = FeedEnd::Graceful,
                            Err(fault) => {
                                fatal = Some(RunError::Pipeline(fault));
                                end = FeedEnd::Dead;
                            }
                        }
                        break;
                    }
                };
                cursor += pulled.len() as u64;
                for record in pulled {
                    match gate.offer(record) {
                        Ok(Gate::Pass) => {}
                        Ok(Gate::Drop) => continue,
                        Ok(Gate::Stop) => {
                            end = FeedEnd::Graceful;
                            break 'feed;
                        }
                        Err(e) => {
                            fatal = Some(RunError::Pipeline(PipelineError::Stream(e)));
                            end = FeedEnd::Dead;
                            break 'feed;
                        }
                    }
                    if !admit.admit(record) {
                        continue;
                    }
                    if !origin_sent {
                        origin = Some(record.ts_micros);
                        for (shard, tx) in txs.iter().enumerate() {
                            if tx.send(SupMsg::Origin(record.ts_micros)).is_err() {
                                fatal = Some(RunError::Pipeline(PipelineError::WorkerFailed {
                                    shard: shard as u32,
                                }));
                                end = FeedEnd::Dead;
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
                        if txs[shard].send(SupMsg::Batch(full)).is_err() {
                            fatal = Some(RunError::Pipeline(PipelineError::WorkerFailed {
                                shard: shard as u32,
                            }));
                            end = FeedEnd::Dead;
                            break 'feed;
                        }
                    }
                }
            }
        }

        // Wind down while the workers are still alive: a final consistent
        // cut on clean exhaustion or a raised stop flag, a plain flush on
        // graceful early completion.
        if fatal.is_none() {
            let final_cut = match end {
                FeedEnd::Eof | FeedEnd::Halt => checkpoint,
                FeedEnd::Graceful | FeedEnd::DrillHalt | FeedEnd::Dead => None,
            };
            if let Some(c) = final_cut {
                seq += 1;
                match collect_cut(&txs, &mut batches, &mut pool)
                    .map_err(|shard| RunError::Pipeline(PipelineError::WorkerFailed { shard }))
                    .and_then(|blobs| {
                        write_cut(
                            c,
                            spec,
                            workers,
                            cursor,
                            seq,
                            origin,
                            &gate,
                            admit.snapshot(),
                            blobs,
                        )
                        .map_err(RunError::Checkpoint)
                    }) {
                    Ok(()) => written += 1,
                    Err(e) => fatal = Some(e),
                }
            } else if matches!(end, FeedEnd::Eof | FeedEnd::Graceful) {
                for (shard, (tx, batch)) in txs.iter().zip(batches).enumerate() {
                    if !batch.is_empty() && tx.send(SupMsg::Batch(batch)).is_err() {
                        fatal = Some(RunError::Pipeline(PipelineError::WorkerFailed {
                            shard: shard as u32,
                        }));
                        break;
                    }
                }
            }
        }

        // Close the channels so workers drain and finish, join them all
        // (containing panics), then release the watchdog.
        drop(txs);
        let mut partials = Vec::with_capacity(workers);
        let mut failures: Vec<WorkerFailure> = Vec::new();
        for (shard, join) in joins.into_iter().enumerate() {
            match join.join() {
                Ok(Ok(partial)) => partials.push(partial),
                Ok(Err(failure)) => failures.push(failure),
                Err(_) => failures.push(WorkerFailure {
                    shard: shard as u32,
                    message: "worker thread died outside containment".into(),
                }),
            }
        }
        done.store(true, Ordering::Release);
        let stalls = watchdog.join().unwrap_or_default();

        if let Some(f) = fatal {
            return Err(f);
        }
        if let Some(f) = failures.first() {
            return Err(RunError::Pipeline(PipelineError::WorkerFailed {
                shard: f.shard,
            }));
        }
        if matches!(end, FeedEnd::Halt | FeedEnd::DrillHalt) {
            return Ok(RunStatus::Interrupted {
                checkpoints: written,
                cursor,
            });
        }

        let partials: Vec<YearAnalysis> = partials.into_iter().flatten().collect();
        let analysis = if partials.is_empty() {
            YearCollector::with_period(spec.year, spec.config, spec.period_days).finish()
        } else {
            YearAnalysis::merge_partials(partials)
        };
        Ok(RunStatus::Completed {
            outcome: PipelineOutcome {
                analysis,
                faults: gate.counters,
            },
            report: SupervisionReport {
                stalls,
                failures,
                retried: 0,
            },
            checkpoints: written,
        })
    })
}

/// One supervised shard worker: the plain worker loop plus heartbeats,
/// snapshot replies, fault-injection hooks, and panic containment.
#[allow(clippy::too_many_arguments)]
fn supervised_worker(
    shard: u32,
    spec: RunSpec,
    hints: SizeHints,
    restored: Option<YearCollector>,
    rx: mpsc::Receiver<SupMsg>,
    recycle: mpsc::SyncSender<Vec<ProbeRecord>>,
    board: &HeartbeatBoard,
    beat_every: Duration,
    inject: Option<Arc<InjectedFaults>>,
) -> Result<Option<YearAnalysis>, WorkerFailure> {
    let result = contain(
        shard,
        AssertUnwindSafe(move || {
            let mut collector = restored;
            loop {
                match rx.recv_timeout(beat_every) {
                    Ok(msg) => {
                        board.beat(shard as usize);
                        match msg {
                            SupMsg::Origin(t0) => {
                                if collector.is_none() {
                                    let mut fresh = YearCollector::with_origin(
                                        spec.year,
                                        spec.config,
                                        spec.period_days,
                                        t0,
                                    );
                                    hints.apply_to(&mut fresh);
                                    collector = Some(fresh);
                                }
                            }
                            SupMsg::Batch(mut batch) => {
                                if let Some(faults) = &inject {
                                    if faults.should_panic(shard) {
                                        panic!("injected fault: worker for shard {shard} panics");
                                    }
                                    faults.maybe_stall(shard);
                                }
                                let Some(first) = batch.first() else {
                                    continue;
                                };
                                let first_ts = first.ts_micros;
                                let collector = collector.get_or_insert_with(|| {
                                    let mut fresh = YearCollector::with_origin(
                                        spec.year,
                                        spec.config,
                                        spec.period_days,
                                        first_ts,
                                    );
                                    hints.apply_to(&mut fresh);
                                    fresh
                                });
                                for record in &batch {
                                    collector.offer(record);
                                }
                                if let Some(last) = batch.last() {
                                    collector.housekeeping(last.ts_micros);
                                }
                                board.add_records(shard as usize, batch.len() as u64);
                                batch.clear();
                                let _ = recycle.try_send(batch);
                            }
                            SupMsg::Snapshot(reply) => {
                                let _ =
                                    reply.send(Checkpoint::encode_collector(collector.as_ref()));
                            }
                        }
                    }
                    // A quiet channel is not a stalled worker: beat and wait.
                    Err(mpsc::RecvTimeoutError::Timeout) => board.beat(shard as usize),
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
            collector.map(YearCollector::finish)
        }),
    );
    board.finish(shard as usize);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use synscan_wire::stream::{InfallibleStream, SliceStream, StreamError};
    use synscan_wire::{Ipv4Address, TcpFlags};

    fn cfg() -> CampaignConfig {
        CampaignConfig {
            min_distinct_dests: 5,
            min_rate_pps: 10.0,
            expiry_secs: 3600.0,
            monitored_addresses: 1 << 16,
        }
    }

    fn spec(mode: PipelineMode) -> RunSpec {
        RunSpec {
            year: 2020,
            config: cfg(),
            period_days: 7.0,
            mode,
            hints: SizeHints::none(),
            policy: FaultPolicy::Fail,
        }
    }

    /// A deterministic mixed stream: many sources, two ports, a zmap-style
    /// ip_id marker on every fifth record.
    fn records(n: u64) -> Vec<ProbeRecord> {
        (0..n)
            .map(|i| ProbeRecord {
                ts_micros: i * 1_000,
                src_ip: Ipv4Address(10 + (i % 37) as u32 * 101),
                dst_ip: Ipv4Address(0x0a00_0000 + (i as u32 % 1024)),
                src_port: (1_000 + i % 50) as u16,
                dst_port: if i % 3 == 0 { 23 } else { 443 },
                seq: (i as u32).wrapping_mul(2_654_435_761),
                ip_id: if i % 5 == 0 {
                    54_321
                } else {
                    (i % 65_536) as u16
                },
                ttl: 64,
                flags: TcpFlags::SYN,
                window: 1_024,
            })
            .collect()
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("synckpt-supervised-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn run(
        spec: &RunSpec,
        opts: SupervisorOptions<'_>,
        recs: &[ProbeRecord],
    ) -> Result<RunStatus, RunError> {
        let mut inner = SliceStream::with_batch_size(recs, 257);
        let mut stream = InfallibleStream(&mut inner);
        let mut admit = FilterAdmit(|_: &ProbeRecord| true);
        run_year_supervised(spec, opts, &mut stream, &mut admit)
    }

    fn clean_outcome(spec: &RunSpec, recs: &[ProbeRecord]) -> PipelineOutcome {
        match run(spec, SupervisorOptions::default(), recs).unwrap() {
            RunStatus::Completed { outcome, .. } => outcome,
            other => panic!("clean run did not complete: {other:?}"),
        }
    }

    fn ckpt_opts(dir: &std::path::Path, every: u64, after: Option<u64>) -> CheckpointOptions {
        CheckpointOptions {
            dir: dir.to_path_buf(),
            every,
            seed: 7,
            interrupt_after: after,
        }
    }

    #[test]
    fn sequential_interrupt_and_resume_is_bit_identical() {
        let recs = records(4_000);
        let spec = spec(PipelineMode::Sequential);
        let dir = temp_dir("seq");
        let baseline = clean_outcome(&spec, &recs);

        let opts = SupervisorOptions {
            checkpoint: Some(ckpt_opts(&dir, 1_000, Some(1))),
            ..SupervisorOptions::default()
        };
        let status = run(&spec, opts, &recs).unwrap();
        let RunStatus::Interrupted {
            checkpoints,
            cursor,
        } = status
        else {
            panic!("expected an interrupt, got {status:?}");
        };
        assert_eq!(checkpoints, 1);
        assert_eq!(cursor % 257, 0, "cut lands on a pulled-batch boundary");

        let resume = Checkpoint::load_latest(&dir, spec.year).unwrap().unwrap();
        let opts = SupervisorOptions {
            checkpoint: Some(ckpt_opts(&dir, 1_000, None)),
            resume: Some(resume),
            ..SupervisorOptions::default()
        };
        match run(&spec, opts, &recs).unwrap() {
            RunStatus::Completed {
                outcome,
                checkpoints,
                ..
            } => {
                assert_eq!(outcome, baseline, "resume is bit-identical");
                assert!(checkpoints >= 1, "the resumed run keeps checkpointing");
            }
            other => panic!("resume did not complete: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_interrupt_and_resume_matches_sequential() {
        let recs = records(4_000);
        let seq_spec = spec(PipelineMode::Sequential);
        let sharded_spec = spec(PipelineMode::Sharded { workers: 3 });
        let dir = temp_dir("sharded");
        let baseline = clean_outcome(&seq_spec, &recs);

        let opts = SupervisorOptions {
            checkpoint: Some(ckpt_opts(&dir, 1_000, Some(2))),
            ..SupervisorOptions::default()
        };
        let status = run(&sharded_spec, opts, &recs).unwrap();
        assert!(
            matches!(status, RunStatus::Interrupted { checkpoints: 2, .. }),
            "expected a two-checkpoint drill interrupt, got {status:?}"
        );

        let resume = Checkpoint::load_latest(&dir, sharded_spec.year)
            .unwrap()
            .unwrap();
        assert_eq!(resume.header.workers, 3);
        let opts = SupervisorOptions {
            checkpoint: Some(ckpt_opts(&dir, 1_000, None)),
            resume: Some(resume),
            ..SupervisorOptions::default()
        };
        match run(&sharded_spec, opts, &recs).unwrap() {
            RunStatus::Completed { outcome, .. } => {
                assert_eq!(outcome, baseline, "sharded resume is bit-identical");
            }
            other => panic!("resume did not complete: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stop_flag_checkpoints_and_resumes_even_before_any_batch() {
        let recs = records(2_000);
        let spec = spec(PipelineMode::Sharded { workers: 2 });
        let dir = temp_dir("stop");
        let baseline = clean_outcome(&spec, &recs);

        let stop = AtomicBool::new(true); // raised before the first pull
        let opts = SupervisorOptions {
            checkpoint: Some(ckpt_opts(&dir, 0, None)),
            stop: Some(&stop),
            ..SupervisorOptions::default()
        };
        match run(&spec, opts, &recs).unwrap() {
            RunStatus::Interrupted {
                checkpoints,
                cursor,
            } => {
                assert_eq!((checkpoints, cursor), (1, 0));
            }
            other => panic!("expected an interrupt, got {other:?}"),
        }

        let resume = Checkpoint::load_latest(&dir, spec.year).unwrap().unwrap();
        assert_eq!(resume.header.cursor, 0);
        let opts = SupervisorOptions {
            resume: Some(resume),
            checkpoint: Some(ckpt_opts(&dir, 0, None)),
            ..SupervisorOptions::default()
        };
        match run(&spec, opts, &recs).unwrap() {
            RunStatus::Completed { outcome, .. } => assert_eq!(outcome, baseline),
            other => panic!("resume did not complete: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn completed_run_leaves_a_resumable_final_checkpoint() {
        let recs = records(1_500);
        let spec = spec(PipelineMode::Sequential);
        let dir = temp_dir("final");

        let opts = SupervisorOptions {
            checkpoint: Some(ckpt_opts(&dir, 0, None)),
            ..SupervisorOptions::default()
        };
        let baseline = match run(&spec, opts, &recs).unwrap() {
            RunStatus::Completed {
                outcome,
                checkpoints,
                ..
            } => {
                assert_eq!(checkpoints, 1, "only the completion checkpoint");
                outcome
            }
            other => panic!("run did not complete: {other:?}"),
        };

        // Resuming a completed year fast-forwards to the end and finishes
        // identically — the uniform path decade resume relies on.
        let resume = Checkpoint::load_latest(&dir, spec.year).unwrap().unwrap();
        assert_eq!(resume.header.cursor, recs.len() as u64);
        let opts = SupervisorOptions {
            resume: Some(resume),
            checkpoint: Some(ckpt_opts(&dir, 0, None)),
            ..SupervisorOptions::default()
        };
        match run(&spec, opts, &recs).unwrap() {
            RunStatus::Completed { outcome, .. } => assert_eq!(outcome, baseline),
            other => panic!("resume did not complete: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_worker_panic_is_contained_and_typed() {
        let recs = records(3_000);
        let spec = spec(PipelineMode::Sharded { workers: 3 });
        let opts = SupervisorOptions {
            inject: Some(InjectedFaults::panic_once(1)),
            ..SupervisorOptions::default()
        };
        // The panic is contained: this call returns a typed error instead of
        // aborting the process, and the healthy shards were joined.
        let err = run(&spec, opts, &recs).unwrap_err();
        assert_eq!(
            err,
            RunError::Pipeline(PipelineError::WorkerFailed { shard: 1 })
        );
    }

    #[test]
    fn injected_stall_is_flagged_but_the_run_completes() {
        let recs = records(3_000);
        let spec = spec(PipelineMode::Sharded { workers: 2 });
        let baseline = clean_outcome(&spec, &recs);
        let opts = SupervisorOptions {
            supervision: SupervisionConfig {
                stall_after: Duration::from_millis(40),
                poll_every: Duration::from_millis(5),
                beat_every: Duration::from_millis(10),
            },
            inject: Some(InjectedFaults::stall_once(0, Duration::from_millis(200))),
            ..SupervisorOptions::default()
        };
        match run(&spec, opts, &recs).unwrap() {
            RunStatus::Completed {
                outcome, report, ..
            } => {
                assert_eq!(outcome, baseline, "a stall changes nothing downstream");
                assert!(
                    report.stalls.iter().any(|s| s.shard == 0),
                    "the watchdog flagged the stalled shard: {:?}",
                    report.stalls
                );
                assert!(report.failures.is_empty());
            }
            other => panic!("run did not complete: {other:?}"),
        }
    }

    #[test]
    fn foreign_checkpoints_are_rejected_before_any_work() {
        let recs = records(1_000);
        let dir = temp_dir("foreign");
        let seq = spec(PipelineMode::Sequential);

        // Write a legitimate sequential checkpoint.
        let opts = SupervisorOptions {
            checkpoint: Some(ckpt_opts(&dir, 0, None)),
            ..SupervisorOptions::default()
        };
        run(&seq, opts, &recs).unwrap();
        let saved = || Checkpoint::load_latest(&dir, seq.year).unwrap().unwrap();

        // Wrong seed.
        let mut wrong_seed = ckpt_opts(&dir, 0, None);
        wrong_seed.seed = 8;
        let opts = SupervisorOptions {
            checkpoint: Some(wrong_seed),
            resume: Some(saved()),
            ..SupervisorOptions::default()
        };
        assert!(matches!(
            run(&seq, opts, &recs),
            Err(RunError::Checkpoint(CheckpointError::Mismatch {
                field: "seed",
                ..
            }))
        ));

        // Wrong shard count.
        let opts = SupervisorOptions {
            checkpoint: Some(ckpt_opts(&dir, 0, None)),
            resume: Some(saved()),
            ..SupervisorOptions::default()
        };
        assert!(matches!(
            run(&spec(PipelineMode::Sharded { workers: 4 }), opts, &recs),
            Err(RunError::Checkpoint(CheckpointError::Mismatch {
                field: "workers",
                ..
            }))
        ));

        // A cursor that does not land on this stream's batch boundaries.
        let mut torn = saved();
        torn.header.cursor += 1;
        let opts = SupervisorOptions {
            checkpoint: Some(ckpt_opts(&dir, 0, None)),
            resume: Some(torn),
            ..SupervisorOptions::default()
        };
        assert!(matches!(
            run(&seq, opts, &recs),
            Err(RunError::Checkpoint(CheckpointError::Mismatch {
                field: "cursor",
                ..
            }))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lossy_stream_truncation_counts_once_across_resume() {
        // A stream that errors after yielding its records, under a lossy
        // policy: the truncation is counted exactly once whether or not the
        // run was interrupted and resumed in between.
        struct ChunkedThenError<'a> {
            records: &'a [ProbeRecord],
            pos: usize,
            chunk: usize,
        }
        impl TryRecordStream for ChunkedThenError<'_> {
            fn try_next_batch(&mut self) -> Result<Option<&[ProbeRecord]>, StreamError> {
                if self.pos >= self.records.len() {
                    return Err(StreamError::Truncated {
                        records_seen: self.pos as u64,
                    });
                }
                let end = (self.pos + self.chunk).min(self.records.len());
                let out = &self.records[self.pos..end];
                self.pos = end;
                Ok(Some(out))
            }
        }
        let recs = records(2_000);
        let mut spec = spec(PipelineMode::Sequential);
        spec.policy = FaultPolicy::SkipRecord;
        let dir = temp_dir("lossy");

        let mut admit = FilterAdmit(|_: &ProbeRecord| true);
        let mut clean = ChunkedThenError {
            records: &recs,
            pos: 0,
            chunk: 257,
        };
        let baseline =
            match run_year_supervised(&spec, SupervisorOptions::default(), &mut clean, &mut admit)
                .unwrap()
            {
                RunStatus::Completed { outcome, .. } => outcome,
                other => panic!("clean lossy run did not complete: {other:?}"),
            };
        assert_eq!(baseline.faults.streams_truncated, 1);

        let mut first = ChunkedThenError {
            records: &recs,
            pos: 0,
            chunk: 257,
        };
        let opts = SupervisorOptions {
            checkpoint: Some(ckpt_opts(&dir, 500, Some(1))),
            ..SupervisorOptions::default()
        };
        let status = run_year_supervised(&spec, opts, &mut first, &mut admit).unwrap();
        assert!(matches!(status, RunStatus::Interrupted { .. }));

        let resume = Checkpoint::load_latest(&dir, spec.year).unwrap().unwrap();
        let mut second = ChunkedThenError {
            records: &recs,
            pos: 0,
            chunk: 257,
        };
        let opts = SupervisorOptions {
            checkpoint: Some(ckpt_opts(&dir, 500, None)),
            resume: Some(resume),
            ..SupervisorOptions::default()
        };
        match run_year_supervised(&spec, opts, &mut second, &mut admit).unwrap() {
            RunStatus::Completed { outcome, .. } => {
                assert_eq!(outcome, baseline, "one truncation, counted once");
            }
            other => panic!("lossy resume did not complete: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
