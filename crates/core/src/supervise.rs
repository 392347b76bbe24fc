//! Worker supervision: panic containment and the supervision report.
//!
//! The sharded pipeline runs one OS thread per shard. Without supervision a
//! single worker panic aborts the whole process, poisoning hours of decade
//! progress. This module gives the supervised driver
//! ([`crate::pipeline::supervised`]) the pieces it needs to do better:
//!
//! * [`WorkerFailure`], the typed form of a caught worker panic, which the
//!   driver converts into a recoverable error instead of a process abort;
//! * [`SupervisionReport`], what the recovery paths observed: contained
//!   failures and retries;
//! * [`InjectedFaults`], a one-shot deterministic panic trigger that lets
//!   the test suite drive every recovery path without any real crash.

use std::panic;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

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
    /// Worker panics caught (the attempts they aborted were retried or
    /// surfaced as typed errors).
    pub failures: Vec<WorkerFailure>,
    /// Attempts restarted from the last checkpoint after a worker failure.
    pub retried: u32,
}

impl SupervisionReport {
    /// Fold another attempt's observations into this report.
    pub fn absorb(&mut self, other: SupervisionReport) {
        self.failures.extend(other.failures);
        self.retried += other.retried;
    }
}

/// Stringify a caught panic payload (`&str` and `String` payloads pass
/// through; anything else gets a placeholder).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One-shot deterministic fault trigger for exercising the supervision
/// paths in tests: a worker checks `InjectedFaults::should_panic` at a
/// fixed point in its loop, and the armed fault fires exactly once — so a
/// retried attempt deterministically succeeds.
#[derive(Debug)]
pub struct InjectedFaults {
    /// Shard whose worker should panic on its next batch (−1 = disarmed).
    panic_shard: AtomicI64,
}

impl InjectedFaults {
    /// No faults armed.
    pub fn none() -> Arc<Self> {
        Arc::new(Self {
            panic_shard: AtomicI64::new(-1),
        })
    }

    /// Arm a single panic in `shard`'s worker.
    pub fn panic_once(shard: u32) -> Arc<Self> {
        Arc::new(Self {
            panic_shard: AtomicI64::new(i64::from(shard)),
        })
    }

    /// Whether `shard`'s worker should panic now. Disarms on first fire.
    pub(crate) fn should_panic(&self, shard: u32) -> bool {
        self.panic_shard
            .compare_exchange(i64::from(shard), -1, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    }
}

/// Run `f` under `catch_unwind`, converting a panic into a typed
/// [`WorkerFailure`] for `shard`. The default panic hook still prints a
/// backtrace; the driver decides whether that noise matters.
pub(crate) fn contain<T>(
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

    #[test]
    fn injected_faults_fire_exactly_once() {
        let faults = InjectedFaults::panic_once(3);
        assert!(!faults.should_panic(2));
        assert!(faults.should_panic(3), "armed fault fires");
        assert!(!faults.should_panic(3), "one-shot: disarmed after firing");

        let none = InjectedFaults::none();
        assert!(!none.should_panic(0));
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
            failures: vec![WorkerFailure {
                shard: 0,
                message: "x".into(),
            }],
            retried: 1,
        });
        report.absorb(SupervisionReport::default());
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.retried, 1);
    }
}
