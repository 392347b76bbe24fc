//! The one feed loop: pull batch → [`FaultGate`] → [`AdmitState::admit`] →
//! [`Sink`] → batch-boundary hooks.
//!
//! Every year driver is this loop under a different configuration:
//!
//! | adapter | sink | cuts |
//! |---|---|---|
//! | [`try_collect_year_stream`](super::try_collect_year_stream) | inline if sequential, fan-out if sharded | never |
//! | [`run_year_supervised`](super::supervised::run_year_supervised) | same | every `every` records and at the end, written atomically; honours the stop flag |
//! | [`run_slice`](crate::distrib::run_slice) | inline, keeping one source partition | every `every` records, handed to a callback |
//!
//! The gate and the admit filter always run on the calling thread, in
//! stream order, over **every** record — so fault counters, capture
//! statistics and the origin timestamp are the same whatever the sink does
//! with the admitted records. The two sinks differ only in *where* an
//! admitted record is collected: [`Inline`] offers it to one
//! [`YearCollector`] right here; [`FanOut`] routes it by [`shard_of`] to one
//! of N worker threads behind bounded channels.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::thread;

use synscan_wire::stream::{
    skip_records, BatchPool, FaultCounters, FaultPolicy, StreamError, TryRecordStream,
};
use synscan_wire::ProbeRecord;

use crate::analysis::{YearAnalysis, YearCollector};
use crate::checkpoint::{Checkpoint, CheckpointError, CheckpointHeader};

use super::{shard_of, AdmitState, PipelineError, PipelineMode, RunSpec, BATCH_RECORDS};

/// In-flight batches per worker channel (bounded: backpressure, not OOM).
const CHANNEL_DEPTH: usize = 4;

/// Verdict of the per-record fault gate.
enum Gate {
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
struct FaultGate {
    policy: FaultPolicy,
    counters: FaultCounters,
    last: Option<ProbeRecord>,
}

impl FaultGate {
    fn offer(&mut self, record: &ProbeRecord) -> Result<Gate, StreamError> {
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
    fn stream_error(&mut self, e: StreamError) -> Result<(), PipelineError> {
        match self.policy {
            FaultPolicy::Fail => Err(PipelineError::Stream(e)),
            FaultPolicy::SkipRecord | FaultPolicy::StopClean => {
                self.counters.streams_truncated += 1;
                Ok(())
            }
        }
    }
}

/// The loop's state — where it stands in its stream, exactly what a
/// checkpoint records and a resume restores besides the admit filter's and
/// the sink's state — and its batch-boundary hooks: when to cut a
/// checkpoint and what becomes of it, which is all that tells the three
/// adapters apart.
pub(crate) struct Feed<'a, E> {
    spec: RunSpec,
    gate: FaultGate,
    /// Records pulled from the stream so far.
    pub(crate) cursor: u64,
    /// Sequence number of the last cut.
    seq: u64,
    /// Timestamp of the stream's first admitted record, once there is one.
    origin: Option<u64>,
    /// Cut at the first batch boundary at least this many pulled records
    /// after the previous cut; `0` = no periodic cuts.
    pub(crate) every: u64,
    /// Also cut when the stream ends cleanly or the stop flag is raised.
    pub(crate) at_end: bool,
    /// Interrupt right after this many cuts (the kill-and-resume drill).
    pub(crate) halt_after: Option<u64>,
    /// Cooperative interrupt, checked before every pull.
    pub(crate) stop: Option<&'a AtomicBool>,
    /// Receives each cut (atomic file write, protocol frame, …).
    emit: &'a mut dyn FnMut(&Checkpoint) -> Result<(), E>,
    /// Cuts emitted so far.
    pub(crate) written: u64,
}

/// What [`Feed::drive`] returns: `(completed, analysis)`.
pub(crate) type Pass = (bool, Option<YearAnalysis>);

impl<'a, E: From<PipelineError>> Feed<'a, E> {
    /// At the start of the stream, with no periodic cuts, no final cut and
    /// no stop flag — `emit` is never called unless the caller sets some.
    pub(crate) fn start(
        spec: &RunSpec,
        emit: &'a mut dyn FnMut(&Checkpoint) -> Result<(), E>,
    ) -> Self {
        Self {
            spec: *spec,
            gate: FaultGate {
                policy: spec.policy,
                counters: FaultCounters::default(),
                last: None,
            },
            cursor: 0,
            seq: 0,
            origin: None,
            every: 0,
            at_end: false,
            halt_after: None,
            stop: None,
            emit,
            written: 0,
        }
    }

    /// What the fault gate swallowed so far.
    pub(crate) fn faults(&self) -> FaultCounters {
        self.gate.counters
    }

    /// Restore the run from `ck`: validate it against this run's year,
    /// identity word and sink `width`, restore the admit filter and the
    /// gate, decode one collector per shard, and fast-forward `stream` —
    /// a fresh instance of the *same deterministic stream* the checkpoint
    /// was cut from — by exactly `cursor` records. A short or misaligned
    /// replay is a typed mismatch, not a silently wrong resume.
    pub(crate) fn resume<S, A>(
        &mut self,
        ck: &Checkpoint,
        width: usize,
        stream: &mut S,
        admit: &mut A,
    ) -> Result<Vec<Option<YearCollector>>, E>
    where
        S: TryRecordStream + ?Sized,
        A: AdmitState + ?Sized,
        E: From<CheckpointError>,
    {
        ck.validate(self.spec.year, self.spec.identity, width)?;
        admit.restore(&ck.admit_state)?;
        let restored = (0..width)
            .map(|shard| ck.shard_collector(shard))
            .collect::<Result<_, _>>()?;
        let cursor = ck.header.cursor;
        let consumed = skip_records(stream, cursor).map_err(PipelineError::Stream)?;
        if consumed != cursor {
            return Err(CheckpointError::Mismatch {
                field: "cursor",
                expected: cursor,
                found: consumed,
            }
            .into());
        }
        self.gate.counters = ck.faults;
        self.gate.last = ck.gate_last;
        self.cursor = cursor;
        self.seq = ck.header.seq;
        self.origin = ck.header.origin;
        Ok(restored)
    }

    /// Run the loop from the current position into the planned sink and
    /// wind the sink down. `restored` holds one collector per shard of a
    /// resumed run (empty for a fresh one). Returns whether the stream was
    /// analyzed to its (possibly lossy) end rather than interrupted by the
    /// stop flag or the `halt_after` drill, and the (merged) analysis —
    /// `None` when no collector ever existed.
    pub(crate) fn drive<S, A>(
        &mut self,
        plan: SinkPlan,
        restored: Vec<Option<YearCollector>>,
        stream: &mut S,
        admit: &mut A,
    ) -> Result<Pass, E>
    where
        S: TryRecordStream + ?Sized,
        A: AdmitState + ?Sized,
    {
        match plan {
            SinkPlan::Inline { partition } => {
                // A whole-stream collector takes the origin from its own
                // first record, so it exists (and is checkpointed) from the
                // start. A partition must wait for the stream's origin,
                // which may belong to another partition's source.
                let collector = (restored.into_iter().next().flatten())
                    .or_else(|| partition.is_none().then(|| self.spec.collector(None, 1)));
                let sink = Inline {
                    spec: self.spec,
                    partition,
                    collector,
                    last: None,
                };
                self.run(sink, stream, admit)
            }
            SinkPlan::FanOut { workers } => thread::scope(|scope| {
                let sink = FanOut::spawn(scope, self.spec, workers, restored);
                self.run(sink, stream, admit)
            }),
        }
    }

    fn run<S, A, K>(&mut self, mut sink: K, stream: &mut S, admit: &mut A) -> Result<Pass, E>
    where
        S: TryRecordStream + ?Sized,
        A: AdmitState + ?Sized,
        K: Sink,
    {
        let completed = self.feed(stream, admit, &mut sink);
        // The sink winds down whatever happened: a fatal fault must not
        // leave worker threads running, and it outranks a worker death it
        // caused.
        let finished = sink.finish();
        let completed = completed?;
        Ok((completed, finished?))
    }

    /// The loop itself: `Ok(true)` when the stream was analyzed to its end,
    /// `Ok(false)` when interrupted. `Err` means the run is dead.
    fn feed<S, A, K>(&mut self, stream: &mut S, admit: &mut A, sink: &mut K) -> Result<bool, E>
    where
        S: TryRecordStream + ?Sized,
        A: AdmitState + ?Sized,
        K: Sink,
    {
        // On resume, shards that had seen no record at the cut must still
        // bin against the recorded origin; restored collectors carry it.
        if let Some(t0) = self.origin {
            sink.origin(t0)?;
        }
        let mut next_due = match self.every {
            0 => u64::MAX,
            every => self.cursor + every,
        };
        // The loop breaks where a final cut is due — clean exhaustion
        // (`true`) or a raised stop flag (`false`) — and returns where none
        // is: after the drill's own cut, and on the early-but-complete ends
        // (a `StopClean` gate stop, a counted lossy truncation), whose
        // cursor is not a resumable position — replaying from it would
        // re-process records the run declined, or count the truncation
        // twice.
        let completed = loop {
            if self.stop.is_some_and(|s| s.load(Ordering::Acquire)) {
                break false;
            }
            let batch = match stream.try_next_batch() {
                Ok(Some(batch)) => batch,
                Ok(None) => break true,
                Err(e) => {
                    self.gate.stream_error(e)?;
                    return Ok(true);
                }
            };
            self.cursor += batch.len() as u64;
            for record in batch {
                match self.gate.offer(record).map_err(PipelineError::Stream)? {
                    Gate::Pass => {
                        if admit.admit(record) {
                            if self.origin.is_none() {
                                self.origin = Some(record.ts_micros);
                                sink.origin(record.ts_micros)?;
                            }
                            sink.push(record)?;
                        }
                    }
                    Gate::Drop => {}
                    Gate::Stop => return Ok(true),
                }
            }
            sink.batch_end();
            if self.cursor >= next_due {
                self.cut(admit, sink)?;
                next_due = self.cursor + self.every;
                if self.halt_after.is_some_and(|k| self.written >= k) {
                    return Ok(false);
                }
            }
        };
        if self.at_end {
            self.cut(admit, sink)?;
        }
        Ok(completed)
    }

    /// Assemble one checkpoint at the current position and emit it.
    fn cut<A, K>(&mut self, admit: &A, sink: &mut K) -> Result<(), E>
    where
        A: AdmitState + ?Sized,
        K: Sink,
    {
        self.seq += 1;
        let shards = sink.cut()?;
        let checkpoint = Checkpoint {
            header: CheckpointHeader {
                year: self.spec.year,
                identity: self.spec.identity,
                workers: shards.len() as u32,
                cursor: self.cursor,
                seq: self.seq,
                origin: self.origin,
            },
            gate_last: self.gate.last,
            faults: self.gate.counters,
            admit_state: admit.snapshot(),
            shards,
        };
        (self.emit)(&checkpoint)?;
        self.written += 1;
        Ok(())
    }
}

/// Where admitted records are collected.
trait Sink {
    /// The timestamp of the stream's first admitted record, against which
    /// every shard bins days and weeks. Called before the first
    /// [`Sink::push`], and again at the start of a resumed run.
    fn origin(&mut self, t0: u64) -> Result<(), PipelineError>;

    /// One admitted record, in stream order.
    fn push(&mut self, record: &ProbeRecord) -> Result<(), PipelineError>;

    /// A pulled batch has been pushed in full.
    fn batch_end(&mut self) {}

    /// A consistent cut: one [`Checkpoint::encode_collector`] blob per
    /// shard, reflecting exactly the records pushed so far.
    fn cut(&mut self) -> Result<Vec<Vec<u8>>, PipelineError>;

    /// Wind down and hand back the analysis (`None` when no collector ever
    /// existed).
    fn finish(self) -> Result<Option<YearAnalysis>, PipelineError>;
}

/// Which sink a run feeds.
pub(crate) enum SinkPlan {
    /// One [`YearCollector`] on the calling thread. With `partition =
    /// Some((part, parts))` it keeps only records whose source hashes into
    /// `part` — one slice of [`run_slice`](crate::distrib::run_slice).
    Inline { partition: Option<(usize, usize)> },
    /// `workers` shard threads behind bounded channels.
    FanOut { workers: usize },
}

impl SinkPlan {
    /// The sink a [`PipelineMode`] selects.
    pub(crate) fn for_mode(mode: PipelineMode) -> Self {
        match mode {
            PipelineMode::Sequential => SinkPlan::Inline { partition: None },
            PipelineMode::Sharded { .. } => SinkPlan::FanOut {
                workers: mode.workers(),
            },
        }
    }
}

/// The inline sink: one collector on the calling thread.
struct Inline {
    spec: RunSpec,
    partition: Option<(usize, usize)>,
    collector: Option<YearCollector>,
    /// Timestamp of the last record offered in the current batch.
    last: Option<u64>,
}

impl Sink for Inline {
    fn origin(&mut self, t0: u64) -> Result<(), PipelineError> {
        if self.collector.is_none() {
            let parts = self.partition.map_or(1, |(_, parts)| parts);
            self.collector = Some(self.spec.collector(Some(t0), parts));
        }
        Ok(())
    }

    #[inline]
    fn push(&mut self, record: &ProbeRecord) -> Result<(), PipelineError> {
        if let Some((part, parts)) = self.partition {
            if shard_of(record.src_ip, parts) != part {
                return Ok(());
            }
        }
        self.collector
            .as_mut()
            .expect("the origin precedes the first record")
            .offer(record);
        self.last = Some(record.ts_micros);
        Ok(())
    }

    fn batch_end(&mut self) {
        // Per-batch housekeeping bounds memory; result-neutral because
        // per-source expiry is deterministic (lazy-reset fingerprinting,
        // idempotent scan expiry) — asserted by the driver matrix test.
        if let (Some(ts), Some(collector)) = (self.last.take(), self.collector.as_mut()) {
            collector.housekeeping(ts);
        }
    }

    fn cut(&mut self) -> Result<Vec<Vec<u8>>, PipelineError> {
        Ok(vec![Checkpoint::encode_collector(self.collector.as_ref())])
    }

    fn finish(self) -> Result<Option<YearAnalysis>, PipelineError> {
        Ok(self.collector.map(YearCollector::finish))
    }
}

/// One message on a shard channel.
enum ShardMsg {
    /// Timestamp of the first admitted record of the whole stream. Sent to
    /// every worker before any batch, so all shards compute day/week indices
    /// against the same origin the inline collector would use; a worker
    /// that restored a collector from a checkpoint ignores it.
    Origin(u64),
    /// A run of admitted records, in stream order, all owned by this shard.
    Batch(Vec<ProbeRecord>),
    /// Consistent-cut request: reply with the serialized collector. Sent
    /// after all partial batches were flushed; a worker handles messages in
    /// order, so its reply reflects exactly the records the cursor counts —
    /// no locks, no pausing the world beyond one reply per shard.
    Snapshot(mpsc::SyncSender<Vec<u8>>),
}

/// The fan-out sink: route each record by [`shard_of`] into a per-shard
/// batch, ship full batches over bounded channels (natural backpressure:
/// at most `CHANNEL_DEPTH + 1` batches in flight per worker) to the
/// workers, and merge their partial analyses at the end.
struct FanOut<'scope> {
    txs: Vec<mpsc::SyncSender<ShardMsg>>,
    batches: Vec<Vec<ProbeRecord>>,
    /// Batch buffers come from the pool, which refills from the buffers
    /// workers hand back — steady state allocates nothing per batch.
    pool: BatchPool,
    recycle: mpsc::Receiver<Vec<ProbeRecord>>,
    joins: Vec<thread::ScopedJoinHandle<'scope, Option<YearAnalysis>>>,
}

impl<'scope> FanOut<'scope> {
    fn spawn(
        scope: &'scope thread::Scope<'scope, '_>,
        spec: RunSpec,
        workers: usize,
        mut restored: Vec<Option<YearCollector>>,
    ) -> Self {
        restored.resize_with(workers, || None);
        // Bounded to the fan-out's maximum in-flight count, so a worker's
        // try_send can only fail if the feeder stopped draining — in which
        // case the buffer is simply dropped.
        let (recycle_tx, recycle) = mpsc::sync_channel(workers * (CHANNEL_DEPTH + 2));
        let mut txs = Vec::with_capacity(workers);
        let mut joins = Vec::with_capacity(workers);
        #[cfg(test)]
        let panic_at = hook::take();
        for restored in restored {
            let (tx, rx) = mpsc::sync_channel(CHANNEL_DEPTH);
            txs.push(tx);
            let recycle_tx = recycle_tx.clone();
            #[cfg(test)]
            let shard = joins.len();
            joins.push(scope.spawn(move || {
                #[cfg(test)]
                hook::arm(shard, panic_at);
                shard_worker(workers, spec, restored, rx, recycle_tx)
            }));
        }
        let mut pool = BatchPool::new();
        Self {
            txs,
            batches: (0..workers).map(|_| pool.acquire(BATCH_RECORDS)).collect(),
            pool,
            recycle,
            joins,
        }
    }

    /// A send on a closed channel means the worker is gone (it panicked and
    /// dropped its receiver): surface the shard instead of pushing into the
    /// void.
    fn send(&self, shard: usize, msg: ShardMsg) -> Result<(), PipelineError> {
        self.txs[shard]
            .send(msg)
            .map_err(|_| PipelineError::WorkerFailed {
                shard: shard as u32,
            })
    }

    /// Ship shard `shard`'s batch, leaving a pooled buffer in its place.
    fn ship(&mut self, shard: usize) -> Result<(), PipelineError> {
        while let Ok(returned) = self.recycle.try_recv() {
            self.pool.release(returned);
        }
        let replacement = self.pool.acquire(BATCH_RECORDS);
        let full = std::mem::replace(&mut self.batches[shard], replacement);
        self.send(shard, ShardMsg::Batch(full))
    }

    /// Ship every partial batch.
    fn flush(&mut self) -> Result<(), PipelineError> {
        for shard in 0..self.txs.len() {
            if !self.batches[shard].is_empty() {
                self.ship(shard)?;
            }
        }
        Ok(())
    }
}

impl Sink for FanOut<'_> {
    fn origin(&mut self, t0: u64) -> Result<(), PipelineError> {
        (0..self.txs.len()).try_for_each(|shard| self.send(shard, ShardMsg::Origin(t0)))
    }

    fn push(&mut self, record: &ProbeRecord) -> Result<(), PipelineError> {
        let shard = shard_of(record.src_ip, self.txs.len());
        self.batches[shard].push(*record);
        if self.batches[shard].len() >= BATCH_RECORDS {
            self.ship(shard)?;
        }
        Ok(())
    }

    fn cut(&mut self) -> Result<Vec<Vec<u8>>, PipelineError> {
        self.flush()?;
        (0..self.txs.len())
            .map(|shard| {
                let (reply_tx, reply) = mpsc::sync_channel(1);
                self.send(shard, ShardMsg::Snapshot(reply_tx))?;
                reply.recv().map_err(|_| PipelineError::WorkerFailed {
                    shard: shard as u32,
                })
            })
            .collect()
    }

    fn finish(mut self) -> Result<Option<YearAnalysis>, PipelineError> {
        // Ship what is still buffered (wasted on a dead or interrupted run,
        // but harmless), close the channels so the workers drain and exit,
        // and join every one of them. A worker that panicked joins as an
        // error, so the scope has no panic left to re-raise.
        let flushed = self.flush();
        drop(self.txs);
        let mut partials = Vec::new();
        let mut failed = None;
        for (shard, join) in self.joins.into_iter().enumerate() {
            match join.join() {
                Ok(partial) => partials.extend(partial),
                Err(_) => _ = failed.get_or_insert(shard as u32),
            }
        }
        flushed?;
        if let Some(shard) = failed {
            return Err(PipelineError::WorkerFailed { shard });
        }
        Ok((!partials.is_empty()).then(|| YearAnalysis::merge_partials(partials)))
    }
}

/// One shard of `workers`: own a full collector (fingerprint + campaigns +
/// aggregates) for the sources routed here, answer snapshot requests, and
/// hand consumed batch buffers back to the feeder via `recycle`, until the
/// feeder closes the channel. A panic here drops `rx`, so the feeder's next
/// send fails and [`FanOut::finish`] reports the shard.
fn shard_worker(
    workers: usize,
    spec: RunSpec,
    restored: Option<YearCollector>,
    rx: mpsc::Receiver<ShardMsg>,
    recycle: mpsc::SyncSender<Vec<ProbeRecord>>,
) -> Option<YearAnalysis> {
    let mut collector = restored;
    for msg in rx {
        match msg {
            ShardMsg::Origin(t0) => {
                if collector.is_none() {
                    collector = Some(spec.collector(Some(t0), workers));
                }
            }
            ShardMsg::Batch(mut batch) => {
                #[cfg(test)]
                hook::on_batch();
                let collector = collector
                    .as_mut()
                    .expect("the origin precedes the first batch");
                for record in &batch {
                    collector.offer(record);
                }
                // Per-batch housekeeping, as the inline sink does it.
                if let Some(last) = batch.last() {
                    collector.housekeeping(last.ts_micros);
                }
                batch.clear();
                // Best-effort: a full (or closed) recycle channel just means
                // this buffer is dropped instead of reused.
                let _ = recycle.try_send(batch);
            }
            ShardMsg::Snapshot(reply) => {
                let _ = reply.send(Checkpoint::encode_collector(collector.as_ref()));
            }
        }
    }
    collector.map(YearCollector::finish)
}

/// The fault hook of the worker-failure tests: a worker panic on demand, so
/// the tests can drive a shard's death without a real bug. Test builds only.
#[cfg(test)]
pub(crate) mod hook {
    use std::cell::Cell;

    thread_local! {
        /// Set on a test's thread: the next fan-out this thread spawns
        /// makes this `(shard, batch)` panic.
        static ARMED: Cell<Option<(usize, u64)>> = const { Cell::new(None) };
        /// On a worker's thread: batches it takes before it panics.
        static COUNTDOWN: Cell<Option<u64>> = const { Cell::new(None) };
    }

    /// Make `shard`'s worker panic on its `batch`-th batch (from 0) in the
    /// next fan-out the calling thread spawns.
    pub(crate) fn panic_at(shard: usize, batch: u64) {
        ARMED.set(Some((shard, batch)));
    }

    /// Disarm and return the calling thread's hook (one fan-out uses it).
    pub(super) fn take() -> Option<(usize, u64)> {
        ARMED.take()
    }

    /// On `shard`'s worker thread, before it runs.
    pub(super) fn arm(shard: usize, armed: Option<(usize, u64)>) {
        COUNTDOWN.set(armed.filter(|&(s, _)| s == shard).map(|(_, batch)| batch));
    }

    /// On each batch a worker takes.
    pub(super) fn on_batch() {
        match COUNTDOWN.get() {
            Some(0) => panic!("injected fault: a shard worker panics"),
            left => COUNTDOWN.set(left.map(|n| n - 1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distrib::merge_slices;
    use crate::pipeline::supervised::RunError;
    use crate::pipeline::tests::{cfg, stream};
    use crate::pipeline::{FilterAdmit, SizeHints};
    use synscan_wire::stream::SliceStream;

    const YEAR: u16 = 2020;
    const SEED: u64 = 9;

    fn spec(policy: FaultPolicy) -> RunSpec {
        RunSpec {
            year: YEAR,
            config: cfg(),
            period_days: 7.0,
            mode: PipelineMode::Sequential,
            hints: SizeHints::sources(64),
            policy,
            identity: SEED,
        }
    }

    /// The clean [`stream`] with every 7th record replayed back to back and one
    /// adjacent pair swapped three quarters of the way in.
    fn dirty() -> Vec<ProbeRecord> {
        let mut records = stream();
        let at = records.len() * 3 / 4;
        records.swap(at, at + 1);
        let mut out = Vec::new();
        for (i, record) in records.into_iter().enumerate() {
            out.push(record);
            if i % 7 == 0 {
                out.push(record);
            }
        }
        out
    }

    /// Batch size of the matrix's middle runs, which [`edges`] is laid out
    /// against.
    const BATCH: usize = 257;

    /// The clean [`stream`] with batch-boundary edges at batch size
    /// [`BATCH`]: the first two batches each admit only their last record
    /// (the first of them the stream's origin), and the sixth batch's first
    /// record regresses — where `StopClean` stops with nothing of that
    /// batch admitted, and `Fail` dies at a batch start here but mid-batch
    /// when the whole stream is one batch.
    fn edges() -> Vec<ProbeRecord> {
        let mut records = stream();
        for (i, record) in records[..2 * BATCH].iter_mut().enumerate() {
            record.dst_port = if i % BATCH == BATCH - 1 { 443 } else { 23 };
        }
        let at = 5 * BATCH;
        records[at].ts_micros = records[at - 1].ts_micros - 1;
        records
    }

    fn admits(record: &ProbeRecord) -> bool {
        record.dst_port != 23
    }

    type Outcome = Result<(YearAnalysis, FaultCounters), PipelineError>;

    /// The documented contract, restated without the product's gate or
    /// loop: every gate-surviving admitted record, offered to one collector.
    fn reference(records: &[ProbeRecord], policy: FaultPolicy) -> Outcome {
        let mut collector = spec(policy).collector(None, 1);
        let mut faults = FaultCounters::default();
        let mut last: Option<ProbeRecord> = None;
        for record in records {
            if let Some(last) = last {
                if *record == last && policy != FaultPolicy::Fail {
                    faults.duplicates_dropped += 1;
                    continue;
                }
                if record.ts_micros < last.ts_micros {
                    match policy {
                        FaultPolicy::Fail => {
                            return Err(StreamError::Unordered { violations: 1 }.into())
                        }
                        FaultPolicy::SkipRecord => {
                            faults.records_skipped += 1;
                            continue;
                        }
                        FaultPolicy::StopClean => {
                            faults.streams_truncated += 1;
                            break;
                        }
                    }
                }
            }
            last = Some(*record);
            if admits(record) {
                collector.offer(record);
            }
        }
        Ok((collector.finish(), faults))
    }

    /// What the matrix varies besides the input: where records go.
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        /// The whole stream into one inline collector.
        Inline,
        /// The whole stream fanned out over this many workers.
        FanOut(usize),
        /// The stream as this many slices, merged through `merge_slices`.
        Slices(usize),
    }

    impl Shape {
        /// The passes whose results combine into the year, as (plan, width).
        fn plans(self) -> Vec<(SinkPlan, usize)> {
            match self {
                Shape::Inline => vec![(SinkPlan::Inline { partition: None }, 1)],
                Shape::FanOut(workers) => {
                    let mode = PipelineMode::Sharded { workers };
                    let plan = SinkPlan::for_mode(mode);
                    vec![(plan, workers)]
                }
                Shape::Slices(parts) => (0..parts)
                    .map(|part| {
                        let partition = Some((part, parts));
                        (SinkPlan::Inline { partition }, 1)
                    })
                    .collect(),
            }
        }

        fn combine(self, policy: FaultPolicy, partials: Vec<Option<YearAnalysis>>) -> YearAnalysis {
            let spec = spec(policy);
            match self {
                Shape::Slices(_) => merge_slices(
                    YEAR,
                    spec.config,
                    spec.period_days,
                    partials.into_iter().flatten().collect(),
                ),
                _ => partials
                    .into_iter()
                    .next()
                    .flatten()
                    .unwrap_or_else(|| spec.empty_analysis()),
            }
        }
    }

    type Partial = Result<(Option<YearAnalysis>, FaultCounters), PipelineError>;

    /// One pass of the loop over `records` in batches of `batch` into
    /// `plan`, cutting every `every` records, optionally resumed from
    /// `from`. Returns what the pass produced and every cut it emitted
    /// (through the byte encoding).
    fn pass(
        (plan, width): (SinkPlan, usize),
        policy: FaultPolicy,
        (records, batch): (&[ProbeRecord], usize),
        every: u64,
        from: Option<&Checkpoint>,
    ) -> (Partial, Vec<Checkpoint>) {
        let mut stream = SliceStream::with_batch_size(records, batch);
        let mut admit = FilterAdmit(admits);
        let mut taken = Vec::new();
        let mut emit = |cut: &Checkpoint| -> Result<(), RunError> {
            taken.push(Checkpoint::from_bytes(&cut.to_bytes())?);
            Ok(())
        };
        let result = (|| {
            let mut feed = Feed::start(&spec(policy), &mut emit);
            feed.every = every;
            let restored = match from {
                Some(ck) => feed.resume(ck, width, &mut stream, &mut admit)?,
                None => Vec::new(),
            };
            let (completed, analysis) = feed.drive(plan, restored, &mut stream, &mut admit)?;
            assert!(completed);
            Ok((analysis, feed.faults()))
        })()
        .map_err(|e| match e {
            RunError::Pipeline(e) => e,
            e => panic!("a cut did not resume: {e}"),
        });
        (result, taken)
    }

    #[test]
    fn every_sink_cut_and_partition_agrees_with_the_reference() {
        let shapes = [
            Shape::Inline,
            Shape::FanOut(1),
            Shape::FanOut(2),
            Shape::FanOut(4),
            Shape::FanOut(7),
            Shape::Slices(1),
            Shape::Slices(2),
            Shape::Slices(3),
        ];
        let inputs = [
            (stream(), FaultPolicy::Fail),
            (dirty(), FaultPolicy::Fail),
            (dirty(), FaultPolicy::SkipRecord),
            (dirty(), FaultPolicy::StopClean),
            (edges(), FaultPolicy::Fail),
            (edges(), FaultPolicy::SkipRecord),
            (edges(), FaultPolicy::StopClean),
        ];
        for (records, policy) in &inputs {
            let (records, policy) = (records.as_slice(), *policy);
            let expected = reference(records, policy);
            for (shape, batch) in shapes
                .into_iter()
                .flat_map(|shape| [1, BATCH, records.len()].map(|batch| (shape, batch)))
            {
                let input = (records, batch);
                for every in [0u64, 1_000] {
                    let label = format!("{policy:?} {shape:?} batch={batch} every={every}");
                    // The straight passes, then every pass again from each
                    // of its cuts with the other passes left as they were.
                    let straight: Vec<(Partial, Vec<Checkpoint>)> = shape
                        .plans()
                        .into_iter()
                        .map(|plan| pass(plan, policy, input, every, None))
                        .collect();
                    let cuts: usize = straight.iter().map(|(_, cuts)| cuts.len()).sum();
                    // Every input runs past `every` records before any
                    // stop, so only a one-batch run may end uncut.
                    if every == 0 || batch < records.len() {
                        assert_eq!(cuts > 0, every > 0, "{label}: cuts taken");
                    }
                    let mut variants = vec![straight.iter().map(|(p, _)| p.clone()).collect()];
                    for (i, (_, taken)) in straight.iter().enumerate() {
                        for cut in taken {
                            let plan = shape.plans().swap_remove(i);
                            let mut passes: Vec<Partial> =
                                straight.iter().map(|(p, _)| p.clone()).collect();
                            passes[i] = pass(plan, policy, input, every, Some(cut)).0;
                            variants.push(passes);
                        }
                    }
                    for passes in variants {
                        let got = passes
                            .into_iter()
                            .collect::<Result<Vec<_>, _>>()
                            .map(|passes| {
                                let (partials, faults): (Vec<_>, Vec<_>) =
                                    passes.into_iter().unzip();
                                // Gate state is global: every pass counts
                                // the same faults.
                                assert!(faults.windows(2).all(|w| w[0] == w[1]), "{label}");
                                (shape.combine(policy, partials), faults[0])
                            });
                        assert_eq!(got, expected, "{label}");
                    }
                }
            }
        }
    }
}
