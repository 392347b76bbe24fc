//! Supervised, checkpointed year runs: the crash-safe sibling of
//! [`try_collect_year_stream`](super::try_collect_year_stream), and the one
//! place that decides how a run persists.
//!
//! The plain pipeline driver answers "what does this stream analyze to?";
//! this module answers "and what if the machine dies halfway through a
//! decade?". One [`RunOptions`] carries everything around the run, from the
//! command-line flags to the feed loop, and [`run_year_supervised`] acts on
//! all of it:
//!
//! 1. **Checkpoints** — at configurable record-count intervals the complete
//!    run state (fault-gate, admit-filter state, every shard's collector) is
//!    serialized through [`crate::checkpoint`] and written atomically to a
//!    rolling per-year file. Cuts are taken only at *pulled-batch
//!    boundaries*, so the stored cursor is always a sum of whole stream
//!    batches and a resumed run can fast-forward the deterministic input
//!    stream to land exactly on it.
//! 2. **Resume** — with [`CheckpointOptions::resume`] the year's latest
//!    checkpoint is loaded, its identity (year, the spec's identity word,
//!    shard count) validated, all state restored, the already-processed
//!    prefix skipped, and the run continued. Because shard routing, expiry
//!    housekeeping, and fault gating are all deterministic and
//!    batch-boundary-neutral, a resumed run produces **bit-identical**
//!    output to an uninterrupted one — asserted by this module's tests and
//!    the driver matrix in both sequential and sharded modes.
//! 3. **The store** — a completed year is written as the store's one slice
//!    for that year ([`AnalysisStore::write_year`]).
//! 4. **Worker failure** — a shard worker's panic ends the run with a typed
//!    [`PipelineError::WorkerFailed`] carrying the shard index instead of a
//!    process abort; healthy shards are drained and joined. Nothing retries
//!    it: the run is deterministic, so re-running it repeats a real panic.
//!    The last cut stays on disk for a resume once the cause is fixed.

use std::path::PathBuf;
use std::sync::atomic::AtomicBool;

use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::store::{AnalysisStore, StoreError};
use synscan_wire::stream::TryRecordStream;

use super::feed::{Feed, SinkPlan};
use super::{PipelineError, PipelineOutcome, RunSpec};

/// Re-exported here only because the benchmark names it at this path.
pub use super::AdmitState;

/// Where and how often to checkpoint, and whether to start from what is
/// already there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointOptions {
    /// Directory holding the rolling per-year checkpoint files.
    pub dir: PathBuf,
    /// Records pulled between periodic checkpoints; `0` writes only the
    /// final snapshots (completion, stop-flag interrupt).
    pub every: u64,
    /// Restart from the year's latest checkpoint in `dir` (from scratch when
    /// there is none) instead of ignoring old state.
    pub resume: bool,
    /// Stop cleanly after this many periodic checkpoints — the
    /// deterministic interruption hook the kill-and-resume drills use.
    pub interrupt_after: Option<u64>,
}

impl CheckpointOptions {
    /// Checkpoint into `dir` with completion-only cuts: no periodic cut, no
    /// resume, no drill.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            every: 0,
            resume: false,
            interrupt_after: None,
        }
    }
}

/// Everything around a run that is not the run: all optional, and the
/// default — no checkpoint, no stop flag, no store — is the plain run.
#[derive(Debug, Clone, Default)]
pub struct RunOptions<'a> {
    /// Checkpoint (and resume) as specified; `None` cuts nothing.
    pub checkpoint: Option<&'a CheckpointOptions>,
    /// Cooperative interrupt flag (set by a signal handler): checked at
    /// batch boundaries; when raised the run writes a final checkpoint (if
    /// it checkpoints at all) and returns [`RunStatus::Interrupted`].
    pub stop: Option<&'a AtomicBool>,
    /// Write the year into this store the moment it completes, so an
    /// interrupted decade leaves its finished years queryable.
    pub store: Option<&'a AnalysisStore>,
}

/// Why a supervised run did not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The pipeline itself failed (stream fault, worker panic).
    Pipeline(PipelineError),
    /// Checkpoint I/O or validation failed.
    Checkpoint(CheckpointError),
    /// The analysis was computed but could not be persisted.
    Store(StoreError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Pipeline(e) => write!(f, "{e}"),
            RunError::Checkpoint(
                e @ CheckpointError::Mismatch {
                    field: "identity", ..
                },
            ) => write!(
                f,
                "checkpoint: {e} (the identity word hashes the input and every option \
                 that shapes the analysis: one of them differs from the interrupted run's)"
            ),
            RunError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            RunError::Store(e) => write!(f, "{e}"),
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

impl From<StoreError> for RunError {
    fn from(e: StoreError) -> Self {
        RunError::Store(e)
    }
}

/// How a supervised run ended. `T` is what a completed run hands back: the
/// driver's own [`PipelineOutcome`], or whatever a front end [`map`]s it to.
///
/// [`map`]: RunStatus::map
// One value per run, matched once: boxing the finished analysis buys nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum RunStatus<T = PipelineOutcome> {
    /// The stream was fully processed.
    Completed {
        /// The analysis and driver-side fault tally.
        outcome: T,
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

impl<T> RunStatus<T> {
    /// The same ending around a converted outcome.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> RunStatus<U> {
        match self {
            RunStatus::Completed {
                outcome,
                checkpoints,
            } => RunStatus::Completed {
                outcome: f(outcome),
                checkpoints,
            },
            RunStatus::Interrupted {
                checkpoints,
                cursor,
            } => RunStatus::Interrupted {
                checkpoints,
                cursor,
            },
        }
    }

    /// The outcome of a completed run; `None` for an interrupted one.
    pub fn completed(self) -> Option<T> {
        match self {
            RunStatus::Completed { outcome, .. } => Some(outcome),
            RunStatus::Interrupted { .. } => None,
        }
    }
}

/// Run one year, checkpointed, resumable and persisted as `opts` says: the
/// one place that decides how a run persists.
///
/// * With `opts.checkpoint`, a snapshot is written at the first batch
///   boundary `every` records after the last one (0 = only final
///   snapshots), plus a final snapshot on clean completion (so completed
///   years resume trivially) and on a raised stop flag — but not after a
///   `StopClean` stop or a lossy truncation, whose cursor is not a
///   resumable position.
/// * When it also says `resume`, the year's latest checkpoint in its
///   directory (if any) is validated against the spec (year, identity word,
///   shard count), all state is restored, and `stream` — which must be a
///   fresh instance of the *same deterministic stream* the checkpoint was
///   taken from — is fast-forwarded past the already-processed prefix. The
///   continued run produces output identical to an uninterrupted one.
/// * With `opts.store`, a completed year is written as the store's one slice
///   for `spec.year`.
/// * A sharded worker panic surfaces as [`PipelineError::WorkerFailed`]
///   with the shard index; healthy workers are joined and the process
///   never aborts.
pub fn run_year_supervised<S, A>(
    spec: &RunSpec,
    opts: &RunOptions<'_>,
    stream: &mut S,
    admit: &mut A,
) -> Result<RunStatus, RunError>
where
    S: TryRecordStream + ?Sized,
    A: AdmitState + ?Sized,
{
    let checkpoint = opts.checkpoint;
    let resume = match checkpoint {
        Some(c) if c.resume => Checkpoint::load_latest(&c.dir, spec.year)?,
        _ => None,
    };
    let mut write = |cut: &Checkpoint| -> Result<(), RunError> {
        if let Some(c) = checkpoint {
            cut.write_atomic(&c.dir)?;
        }
        Ok(())
    };
    let mut feed = Feed::start(spec, &mut write);
    feed.stop = opts.stop;
    if let Some(c) = checkpoint {
        (feed.at_end, feed.every, feed.halt_after) = (true, c.every, c.interrupt_after);
    }
    let restored = match &resume {
        Some(ck) => feed.resume(ck, spec.mode.workers(), stream, admit)?,
        None => Vec::new(),
    };
    let (completed, analysis) =
        feed.drive(SinkPlan::for_mode(spec.mode), restored, stream, admit)?;
    if !completed {
        return Ok(RunStatus::Interrupted {
            checkpoints: feed.written,
            cursor: feed.cursor,
        });
    }
    let analysis = analysis.unwrap_or_else(|| spec.empty_analysis());
    if let Some(store) = opts.store {
        store.write_year(&analysis)?;
    }
    Ok(RunStatus::Completed {
        outcome: PipelineOutcome {
            analysis,
            faults: feed.faults(),
        },
        checkpoints: feed.written,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignConfig;
    use crate::pipeline::feed::hook;
    use crate::pipeline::{FilterAdmit, PipelineMode, SizeHints};
    use crate::sketch::HeavyHitterConfig;
    use synscan_wire::stream::{FaultPolicy, SliceStream, StreamError};
    use synscan_wire::{Ipv4Address, ProbeRecord, TcpFlags};

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
            identity: 7,
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
        checkpoint: Option<&CheckpointOptions>,
        recs: &[ProbeRecord],
    ) -> Result<RunStatus, RunError> {
        let opts = RunOptions {
            checkpoint,
            ..RunOptions::default()
        };
        let mut stream = SliceStream::with_batch_size(recs, 257);
        let mut admit = FilterAdmit(|_: &ProbeRecord| true);
        run_year_supervised(spec, &opts, &mut stream, &mut admit)
    }

    fn clean_outcome(spec: &RunSpec, recs: &[ProbeRecord]) -> PipelineOutcome {
        match run(spec, None, recs).unwrap() {
            RunStatus::Completed { outcome, .. } => outcome,
            other => panic!("clean run did not complete: {other:?}"),
        }
    }

    fn ckpt_opts(dir: &std::path::Path, every: u64, after: Option<u64>) -> CheckpointOptions {
        CheckpointOptions {
            every,
            interrupt_after: after,
            ..CheckpointOptions::new(dir)
        }
    }

    /// As [`ckpt_opts`], resuming from the latest cut in `dir`.
    fn resume_opts(dir: &std::path::Path, every: u64) -> CheckpointOptions {
        CheckpointOptions {
            resume: true,
            ..ckpt_opts(dir, every, None)
        }
    }

    #[test]
    fn sequential_interrupt_and_resume_is_bit_identical() {
        let recs = records(4_000);
        let spec = spec(PipelineMode::Sequential);
        let dir = temp_dir("seq");
        let baseline = clean_outcome(&spec, &recs);

        let status = run(&spec, Some(&ckpt_opts(&dir, 1_000, Some(1))), &recs).unwrap();
        let RunStatus::Interrupted {
            checkpoints,
            cursor,
        } = status
        else {
            panic!("expected an interrupt, got {status:?}");
        };
        assert_eq!(checkpoints, 1);
        assert_eq!(cursor % 257, 0, "cut lands on a pulled-batch boundary");

        match run(&spec, Some(&resume_opts(&dir, 1_000)), &recs).unwrap() {
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

        let drill = ckpt_opts(&dir, 1_000, Some(2));
        let status = run(&sharded_spec, Some(&drill), &recs).unwrap();
        assert!(
            matches!(status, RunStatus::Interrupted { checkpoints: 2, .. }),
            "expected a two-checkpoint drill interrupt, got {status:?}"
        );

        let resume = Checkpoint::load_latest(&dir, sharded_spec.year)
            .unwrap()
            .unwrap();
        assert_eq!(resume.header.workers, 3);
        match run(&sharded_spec, Some(&resume_opts(&dir, 1_000)), &recs).unwrap() {
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
        let opts = RunOptions {
            checkpoint: Some(&ckpt_opts(&dir, 0, None)),
            stop: Some(&stop),
            ..RunOptions::default()
        };
        let mut stream = SliceStream::with_batch_size(&recs, 257);
        let mut admit = FilterAdmit(|_: &ProbeRecord| true);
        match run_year_supervised(&spec, &opts, &mut stream, &mut admit).unwrap() {
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
        match run(&spec, Some(&resume_opts(&dir, 0)), &recs).unwrap() {
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

        let baseline = match run(&spec, Some(&ckpt_opts(&dir, 0, None)), &recs).unwrap() {
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
        match run(&spec, Some(&resume_opts(&dir, 0)), &recs).unwrap() {
            RunStatus::Completed { outcome, .. } => assert_eq!(outcome, baseline),
            other => panic!("resume did not complete: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_worker_panic_is_contained_and_typed() {
        let recs = records(3_000);
        let spec = spec(PipelineMode::Sharded { workers: 3 });
        hook::panic_at(1, 0);
        // This call returns a typed error instead of aborting the process
        // or re-raising the panic, and the healthy shards were joined.
        let err = run(&spec, None, &recs).unwrap_err();
        assert_eq!(
            err,
            RunError::Pipeline(PipelineError::WorkerFailed { shard: 1 })
        );
    }

    #[test]
    fn a_shard_panic_leaves_a_cut_that_resumes_to_the_clean_run() {
        let recs = records(4_000);
        let spec = spec(PipelineMode::Sharded { workers: 3 });
        let dir = temp_dir("panic");
        let baseline = clean_outcome(&spec, &recs);

        // Every pulled batch is cut, and every cut ships each shard a batch:
        // shard 1 dies at the third cut, behind two good ones.
        hook::panic_at(1, 2);
        let err = run(&spec, Some(&ckpt_opts(&dir, 1, None)), &recs).unwrap_err();
        assert_eq!(
            err,
            RunError::Pipeline(PipelineError::WorkerFailed { shard: 1 })
        );
        let cut = Checkpoint::load_latest(&dir, spec.year).unwrap().unwrap();
        assert_eq!((cut.header.seq, cut.header.cursor), (2, 2 * 257));

        match run(&spec, Some(&resume_opts(&dir, 1)), &recs).unwrap() {
            RunStatus::Completed { outcome, .. } => assert_eq!(outcome, baseline),
            other => panic!("resume did not complete: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn nothing_admitted_is_the_same_hinted_empty_analysis_in_every_mode() {
        // An empty stream, and a stream whose admit filter rejects
        // everything: the sharded fallback must carry the same (empty)
        // heavy-hitter state the sequential collector does.
        let recs = records(1_000);
        let hints = SizeHints::none().with_heavy(Some(HeavyHitterConfig::default()));
        let outcome = |mode, recs: &[ProbeRecord]| {
            let spec = RunSpec {
                hints,
                ..spec(mode)
            };
            let mut stream = SliceStream::with_batch_size(recs, 257);
            let mut admit = FilterAdmit(|_: &ProbeRecord| false);
            let status =
                run_year_supervised(&spec, &RunOptions::default(), &mut stream, &mut admit);
            match status.unwrap() {
                RunStatus::Completed { outcome, .. } => outcome,
                other => panic!("run did not complete: {other:?}"),
            }
        };
        for input in [&[][..], &recs[..]] {
            let sequential = outcome(PipelineMode::Sequential, input);
            assert!(sequential.analysis.heavy.is_some());
            assert_eq!(sequential.analysis.total_packets, 0);
            assert_eq!(
                sequential,
                outcome(PipelineMode::Sharded { workers: 4 }, input)
            );
        }
    }

    #[test]
    fn foreign_checkpoints_are_rejected_before_any_work() {
        let recs = records(1_000);
        let dir = temp_dir("foreign");
        let seq = spec(PipelineMode::Sequential);
        let resume = resume_opts(&dir, 0);

        // Write a legitimate sequential checkpoint.
        run(&seq, Some(&ckpt_opts(&dir, 0, None)), &recs).unwrap();
        let saved = Checkpoint::load_latest(&dir, seq.year).unwrap().unwrap();

        // Wrong identity word.
        let other = RunSpec { identity: 8, ..seq };
        assert!(matches!(
            run(&other, Some(&resume), &recs),
            Err(RunError::Checkpoint(CheckpointError::Mismatch {
                field: "identity",
                ..
            }))
        ));

        // Wrong shard count.
        assert!(matches!(
            run(
                &spec(PipelineMode::Sharded { workers: 4 }),
                Some(&resume),
                &recs
            ),
            Err(RunError::Checkpoint(CheckpointError::Mismatch {
                field: "workers",
                ..
            }))
        ));

        // A cursor that does not land on this stream's batch boundaries.
        let mut torn = saved;
        torn.header.cursor += 1;
        torn.write_atomic(&dir).unwrap();
        assert!(matches!(
            run(&seq, Some(&resume), &recs),
            Err(RunError::Checkpoint(CheckpointError::Mismatch {
                field: "cursor",
                ..
            }))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_completed_run_writes_its_year_to_the_store_and_an_interrupted_one_nothing() {
        let recs = records(1_500);
        let spec = spec(PipelineMode::Sharded { workers: 2 });
        let (dir, store_dir) = (temp_dir("store-ckpt"), temp_dir("store"));
        let store = AnalysisStore::open(&store_dir).unwrap();
        let stored = |drill: &CheckpointOptions| {
            let opts = RunOptions {
                checkpoint: Some(drill),
                store: Some(&store),
                ..RunOptions::default()
            };
            let mut stream = SliceStream::with_batch_size(&recs, 257);
            let mut admit = FilterAdmit(|_: &ProbeRecord| true);
            run_year_supervised(&spec, &opts, &mut stream, &mut admit).unwrap()
        };
        let status = stored(&ckpt_opts(&dir, 500, Some(1)));
        assert!(matches!(status, RunStatus::Interrupted { .. }));
        assert!(!store.slice_path(spec.year).exists());

        let status = stored(&resume_opts(&dir, 500));
        let outcome = status.completed().expect("the resumed run completes");
        assert_eq!(outcome, clean_outcome(&spec, &recs));
        let image = crate::store::StoreImage::load(&store).unwrap();
        assert_eq!(image.years, vec![outcome.analysis]);
        for dir in [dir, store_dir] {
            let _ = std::fs::remove_dir_all(&dir);
        }
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
            match run_year_supervised(&spec, &RunOptions::default(), &mut clean, &mut admit)
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
        let opts = RunOptions {
            checkpoint: Some(&ckpt_opts(&dir, 500, Some(1))),
            ..RunOptions::default()
        };
        let status = run_year_supervised(&spec, &opts, &mut first, &mut admit).unwrap();
        assert!(matches!(status, RunStatus::Interrupted { .. }));

        let mut second = ChunkedThenError {
            records: &recs,
            pos: 0,
            chunk: 257,
        };
        let opts = RunOptions {
            checkpoint: Some(&resume_opts(&dir, 500)),
            ..RunOptions::default()
        };
        match run_year_supervised(&spec, &opts, &mut second, &mut admit).unwrap() {
            RunStatus::Completed { outcome, .. } => {
                assert_eq!(outcome, baseline, "one truncation, counted once");
            }
            other => panic!("lossy resume did not complete: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
