//! Worker supervision: heartbeats, stall watchdog, panic containment.
//!
//! The sharded pipeline runs one OS thread per shard. Without supervision a
//! single worker panic aborts the whole process (poisoning hours of decade
//! progress), and a wedged worker hangs the run silently. This module gives
//! the supervised driver ([`crate::pipeline::supervised`]) the pieces it
//! needs to do better:
//!
//! * a [`HeartbeatBoard`] of lock-free per-worker liveness slots that
//!   workers bump on every message-loop iteration (a worker blocked on an
//!   empty channel still beats, via `recv_timeout`);
//! * a [`watch`] loop that polls the board and flags any unfinished worker
//!   silent past a deadline as a [`StallEvent`] — observability, not a kill
//!   switch: a flagged worker that recovers simply finishes late;
//! * [`WorkerFailure`], the typed form of a caught worker panic, which the
//!   driver converts into a recoverable error instead of a process abort;
//! * [`InjectedFaults`], one-shot deterministic panic/stall triggers that
//!   let the test suite drive every recovery path without any real crash.

use std::panic;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Timing knobs for worker supervision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisionConfig {
    /// A worker silent for longer than this (and not finished) is flagged
    /// as stalled.
    pub stall_after: Duration,
    /// How often the watchdog scans the heartbeat board.
    pub poll_every: Duration,
    /// The worker message-loop `recv_timeout`, which bounds the gap between
    /// two beats of a healthy-but-idle worker. Must be well under
    /// `stall_after`.
    pub beat_every: Duration,
}

impl Default for SupervisionConfig {
    fn default() -> Self {
        Self {
            // The stall threshold is the one timeout shared across the
            // system: the serve daemon's idle cutoff and the distributed
            // coordinator's watchdog both default to this wire-layer
            // constant, and the `--stall-timeout` flag overrides all of
            // them together.
            stall_after: Duration::from_millis(synscan_wire::net::DEFAULT_STALL_TIMEOUT_MS),
            poll_every: Duration::from_millis(100),
            beat_every: Duration::from_millis(50),
        }
    }
}

impl SupervisionConfig {
    /// Defaults with a specific stall threshold — how both binaries apply
    /// their `--stall-timeout` flag.
    pub fn with_stall_timeout(stall_after: Duration) -> Self {
        Self {
            stall_after,
            ..Self::default()
        }
    }
}

/// One worker's liveness slot.
#[derive(Debug)]
struct WorkerBeat {
    /// Milliseconds since the board's epoch at the last beat.
    last_beat_ms: AtomicU64,
    /// Records processed so far (for stall diagnostics).
    records: AtomicU64,
    /// Set when the worker's loop exits; finished workers are never stalled.
    finished: AtomicBool,
}

/// Lock-free per-worker heartbeat slots shared between workers and the
/// watchdog.
#[derive(Debug)]
pub struct HeartbeatBoard {
    epoch: Instant,
    workers: Vec<WorkerBeat>,
}

impl HeartbeatBoard {
    /// A board for `workers` shard workers, all considered freshly beating.
    pub fn new(workers: usize) -> Self {
        Self {
            epoch: Instant::now(),
            workers: (0..workers)
                .map(|_| WorkerBeat {
                    last_beat_ms: AtomicU64::new(0),
                    records: AtomicU64::new(0),
                    finished: AtomicBool::new(false),
                })
                .collect(),
        }
    }

    /// Number of workers tracked.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Whether the board tracks no workers.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Record a liveness beat for `shard`.
    pub fn beat(&self, shard: usize) {
        self.workers[shard]
            .last_beat_ms
            .store(self.now_ms(), Ordering::Relaxed);
    }

    /// Add `n` to `shard`'s processed-record count (stall diagnostics).
    pub fn add_records(&self, shard: usize, n: u64) {
        self.workers[shard].records.fetch_add(n, Ordering::Relaxed);
    }

    /// Mark `shard`'s loop as exited; it can no longer stall.
    pub fn finish(&self, shard: usize) {
        self.workers[shard].finished.store(true, Ordering::Release);
    }

    /// Milliseconds since `shard` last beat.
    pub fn silent_ms(&self, shard: usize) -> u64 {
        self.now_ms()
            .saturating_sub(self.workers[shard].last_beat_ms.load(Ordering::Relaxed))
    }

    /// Records `shard` has processed so far.
    pub fn records_processed(&self, shard: usize) -> u64 {
        self.workers[shard].records.load(Ordering::Relaxed)
    }

    /// Whether `shard`'s loop has exited.
    pub fn is_finished(&self, shard: usize) -> bool {
        self.workers[shard].finished.load(Ordering::Acquire)
    }
}

/// A worker that stopped heartbeating past the configured deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallEvent {
    /// The stalled shard.
    pub shard: u32,
    /// How long the worker had been silent when flagged, in milliseconds.
    pub silent_ms: u64,
    /// Records it had processed by then.
    pub records_processed: u64,
}

/// A worker panic, caught and carried as data instead of aborting the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerFailure {
    /// The shard whose worker panicked.
    pub shard: u32,
    /// The panic payload, stringified.
    pub message: String,
}

impl std::fmt::Display for WorkerFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker for shard {} panicked: {}",
            self.shard, self.message
        )
    }
}

/// What supervision observed over one (possibly retried) run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SupervisionReport {
    /// Workers flagged by the stall watchdog (at most once per worker per
    /// attempt).
    pub stalls: Vec<StallEvent>,
    /// Worker panics caught (the attempts they aborted were retried or
    /// surfaced as typed errors).
    pub failures: Vec<WorkerFailure>,
    /// Attempts restarted from the last checkpoint after a worker failure.
    pub retried: u32,
}

impl SupervisionReport {
    /// Fold another attempt's observations into this report.
    pub fn absorb(&mut self, other: SupervisionReport) {
        self.stalls.extend(other.stalls);
        self.failures.extend(other.failures);
        self.retried += other.retried;
    }
}

/// Scan the heartbeat board every `config.poll_every` until `done`
/// disconnects (or is sent to), flagging each unfinished worker that stays
/// silent past `config.stall_after` — once per worker, so a genuinely
/// wedged worker produces one event, not one per poll.
///
/// Runs on its own thread inside the driver's scope. The wait between scans
/// blocks on `done`, so the driver dropping its sender after joining the
/// workers releases the watchdog at once rather than a poll interval later.
pub fn watch(
    board: &HeartbeatBoard,
    config: &SupervisionConfig,
    done: mpsc::Receiver<()>,
) -> Vec<StallEvent> {
    let mut flagged = vec![false; board.len()];
    let mut events = Vec::new();
    let stall_ms = config.stall_after.as_millis() as u64;
    loop {
        for (shard, flagged) in flagged.iter_mut().enumerate() {
            if *flagged || board.is_finished(shard) {
                continue;
            }
            let silent = board.silent_ms(shard);
            if silent > stall_ms {
                *flagged = true;
                events.push(StallEvent {
                    shard: shard as u32,
                    silent_ms: silent,
                    records_processed: board.records_processed(shard),
                });
            }
        }
        if !matches!(
            done.recv_timeout(config.poll_every),
            Err(mpsc::RecvTimeoutError::Timeout)
        ) {
            return events;
        }
    }
}

/// Stringify a caught panic payload (`&str` and `String` payloads pass
/// through; anything else gets a placeholder).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One-shot deterministic fault triggers for exercising the supervision
/// paths in tests: a worker checks [`InjectedFaults::should_panic`] /
/// [`InjectedFaults::maybe_stall`] at a fixed point in its loop, and each
/// armed fault fires exactly once — so a retried attempt deterministically
/// succeeds.
#[derive(Debug)]
pub struct InjectedFaults {
    /// Shard whose worker should panic on its next batch (−1 = disarmed).
    panic_shard: AtomicI64,
    /// Shard whose worker should sleep through its next batch (−1 =
    /// disarmed).
    stall_shard: AtomicI64,
    /// How long the stalled worker sleeps.
    stall_for: Duration,
}

impl InjectedFaults {
    /// No faults armed.
    pub fn none() -> Arc<Self> {
        Arc::new(Self {
            panic_shard: AtomicI64::new(-1),
            stall_shard: AtomicI64::new(-1),
            stall_for: Duration::ZERO,
        })
    }

    /// Arm a single panic in `shard`'s worker.
    pub fn panic_once(shard: u32) -> Arc<Self> {
        Arc::new(Self {
            panic_shard: AtomicI64::new(i64::from(shard)),
            stall_shard: AtomicI64::new(-1),
            stall_for: Duration::ZERO,
        })
    }

    /// Arm a single `stall_for` sleep in `shard`'s worker.
    pub fn stall_once(shard: u32, stall_for: Duration) -> Arc<Self> {
        Arc::new(Self {
            panic_shard: AtomicI64::new(-1),
            stall_shard: AtomicI64::new(i64::from(shard)),
            stall_for,
        })
    }

    /// Whether `shard`'s worker should panic now. Disarms on first fire.
    pub fn should_panic(&self, shard: u32) -> bool {
        self.panic_shard
            .compare_exchange(i64::from(shard), -1, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    }

    /// Sleep if a stall is armed for `shard`, and say whether it did.
    /// Disarms on first fire.
    pub fn maybe_stall(&self, shard: u32) -> bool {
        let armed = self
            .stall_shard
            .compare_exchange(i64::from(shard), -1, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok();
        if armed {
            std::thread::sleep(self.stall_for);
        }
        armed
    }
}

/// Run `f` under `catch_unwind`, converting a panic into a typed
/// [`WorkerFailure`] for `shard`. The default panic hook still prints a
/// backtrace; the driver decides whether that noise matters.
pub fn contain<T>(
    shard: u32,
    f: impl FnOnce() -> T + panic::UnwindSafe,
) -> Result<T, WorkerFailure> {
    panic::catch_unwind(f).map_err(|payload| WorkerFailure {
        shard,
        message: panic_message(payload.as_ref()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> SupervisionConfig {
        SupervisionConfig {
            stall_after: Duration::from_millis(40),
            poll_every: Duration::from_millis(5),
            beat_every: Duration::from_millis(5),
        }
    }

    #[test]
    fn board_tracks_beats_and_records() {
        let board = HeartbeatBoard::new(2);
        assert_eq!(board.len(), 2);
        assert!(!board.is_empty());
        board.beat(0);
        board.add_records(0, 10);
        board.add_records(0, 5);
        assert_eq!(board.records_processed(0), 15);
        assert_eq!(board.records_processed(1), 0);
        assert!(!board.is_finished(0));
        board.finish(0);
        assert!(board.is_finished(0));
        assert!(board.silent_ms(0) < 10_000);
    }

    #[test]
    fn watchdog_flags_a_silent_worker_exactly_once() {
        let board = HeartbeatBoard::new(2);
        let config = fast_config();
        let (done, finished) = mpsc::channel();
        let events = std::thread::scope(|scope| {
            let watcher = scope.spawn(|| watch(&board, &config, finished));
            // Worker 0 beats continuously; worker 1 goes silent.
            for _ in 0..30 {
                board.beat(0);
                std::thread::sleep(Duration::from_millis(5));
            }
            board.finish(0);
            board.finish(1);
            drop(done);
            watcher.join().unwrap()
        });
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(events[0].shard, 1);
        assert!(events[0].silent_ms > 40);
    }

    #[test]
    fn watchdog_ignores_finished_workers() {
        let board = HeartbeatBoard::new(1);
        let config = fast_config();
        let (done, finished) = mpsc::channel();
        let events = std::thread::scope(|scope| {
            let watcher = scope.spawn(|| watch(&board, &config, finished));
            // The worker finishes immediately and then never beats: silence
            // after finish must not be a stall.
            board.finish(0);
            std::thread::sleep(Duration::from_millis(80));
            drop(done);
            watcher.join().unwrap()
        });
        assert!(events.is_empty(), "{events:?}");
    }

    #[test]
    fn injected_faults_fire_exactly_once() {
        let faults = InjectedFaults::panic_once(3);
        assert!(!faults.should_panic(2));
        assert!(faults.should_panic(3), "armed fault fires");
        assert!(!faults.should_panic(3), "one-shot: disarmed after firing");

        let stall = InjectedFaults::stall_once(1, Duration::from_millis(30));
        assert!(!stall.maybe_stall(0), "wrong shard");
        let before = Instant::now();
        assert!(stall.maybe_stall(1), "armed stall fires");
        // `sleep` guarantees at least the requested time, never at most.
        assert!(before.elapsed() >= Duration::from_millis(30));
        assert!(!stall.maybe_stall(1), "one-shot");

        let none = InjectedFaults::none();
        assert!(!none.should_panic(0));
        assert!(!none.maybe_stall(0));
    }

    #[test]
    fn contain_converts_panics_to_typed_failures() {
        assert_eq!(contain(0, || 42), Ok(42));
        let failure = contain(7, || -> u32 { panic!("boom {}", 13) }).unwrap_err();
        assert_eq!(failure.shard, 7);
        assert_eq!(failure.message, "boom 13");
        assert!(failure.to_string().contains("shard 7"));

        let static_failure: Result<(), WorkerFailure> = contain(1, || panic!("static message"));
        assert_eq!(static_failure.unwrap_err().message, "static message");
    }

    #[test]
    fn report_absorbs_attempts() {
        let mut report = SupervisionReport::default();
        report.absorb(SupervisionReport {
            stalls: vec![StallEvent {
                shard: 0,
                silent_ms: 100,
                records_processed: 5,
            }],
            failures: vec![WorkerFailure {
                shard: 0,
                message: "x".into(),
            }],
            retried: 1,
        });
        report.absorb(SupervisionReport::default());
        assert_eq!(report.stalls.len(), 1);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.retried, 1);
    }
}
