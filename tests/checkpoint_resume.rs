//! End-to-end crash-safety: experiment-level interrupt/resume equivalence,
//! chaos interplay with checkpointed fault counters, and worker-panic
//! recovery via the single retry-from-checkpoint.
//!
//! The contract under test: a run that is interrupted (stop flag or drill)
//! and then resumed from its on-disk checkpoint produces output
//! bit-identical to an uninterrupted run — analysis, capture statistics,
//! and fault counters alike — in both pipeline modes, with and without
//! injected stream chaos.

use std::path::PathBuf;
use std::sync::atomic::AtomicBool;

use synscan::core::InjectedFaults;
use synscan::experiment::{CheckpointSpec, DecadeStatus, Experiment, YearRun, YearStatus};
use synscan::wire::json::ToJson;
use synscan::wire::{ChaosPlan, FaultPolicy};
use synscan::{GeneratorConfig, PipelineMode, YearConfig};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("synscan-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp checkpoint dir");
    dir
}

fn assert_same_run(resumed: &YearRun, baseline: &YearRun) {
    assert_eq!(resumed.analysis, baseline.analysis);
    assert_eq!(resumed.capture, baseline.capture);
    assert_eq!(resumed.faults, baseline.faults);
    assert_eq!(resumed.truth, baseline.truth);
}

/// Interrupt after the first checkpoint, resume, and demand bit-identical
/// output versus the uninterrupted run.
fn interrupt_resume_roundtrip(name: &str, experiment: &Experiment, mode: PipelineMode) {
    let cfg = YearConfig::for_year(2020);
    let baseline = experiment
        .try_run_year_cfg_mode(&cfg, mode)
        .expect("baseline year runs clean");

    let dir = temp_dir(name);
    let interrupted = experiment
        .try_run_year_checkpointed(
            &cfg,
            mode,
            &CheckpointSpec::new(&dir).every(1).interrupt_after(Some(1)),
            None,
        )
        .expect("interrupt drill is not an error");
    let YearStatus::Interrupted { checkpoints, .. } = interrupted else {
        panic!("the drill must interrupt the run, got {interrupted:?}");
    };
    assert_eq!(checkpoints, 1, "interrupted right after the first cut");

    let resumed = experiment
        .try_run_year_checkpointed(&cfg, mode, &CheckpointSpec::new(&dir).resume(true), None)
        .expect("resume completes");
    let YearStatus::Completed { run, report, .. } = resumed else {
        panic!("resumed run must complete, got {resumed:?}");
    };
    assert!(report.failures.is_empty());
    assert_eq!(report.retried, 0);
    assert_same_run(&run, &baseline);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sequential_interrupt_and_resume_is_bit_identical() {
    let experiment = Experiment::new(GeneratorConfig::tiny());
    interrupt_resume_roundtrip("ckpt-seq", &experiment, PipelineMode::Sequential);
}

#[test]
fn sharded_interrupt_and_resume_is_bit_identical() {
    let experiment = Experiment::new(GeneratorConfig::tiny());
    interrupt_resume_roundtrip(
        "ckpt-shard",
        &experiment,
        PipelineMode::Sharded { workers: 3 },
    );
}

#[test]
fn chaotic_interrupted_run_equals_uninterrupted_chaotic_run() {
    // Satellite of the robustness story: the fault counters accumulated
    // before the interruption are checkpointed with everything else, so an
    // interrupted-and-resumed chaotic run reports exactly the same drops as
    // an uninterrupted chaotic run — nothing double-counted, nothing lost.
    for mode in [
        PipelineMode::Sequential,
        PipelineMode::Sharded { workers: 3 },
    ] {
        let experiment = Experiment::new(GeneratorConfig::tiny())
            .with_fault_policy(FaultPolicy::SkipRecord)
            .with_chaos(ChaosPlan::benign(0xfeed));
        let cfg = YearConfig::for_year(2020);
        let baseline = experiment
            .try_run_year_cfg_mode(&cfg, mode)
            .expect("chaotic year survives under skip");
        assert!(
            baseline.faults.duplicates_dropped > 0,
            "the chaos plan must actually fire for this test to mean anything"
        );

        let dir = temp_dir(&format!("ckpt-chaos-{mode}"));
        let interrupted = experiment
            .try_run_year_checkpointed(
                &cfg,
                mode,
                &CheckpointSpec::new(&dir).every(1).interrupt_after(Some(1)),
                None,
            )
            .expect("interrupt drill is not an error");
        assert!(matches!(interrupted, YearStatus::Interrupted { .. }));

        let resumed = experiment
            .try_run_year_checkpointed(&cfg, mode, &CheckpointSpec::new(&dir).resume(true), None)
            .expect("chaotic resume completes");
        let YearStatus::Completed { run, .. } = resumed else {
            panic!("resumed chaotic run must complete, got {resumed:?}");
        };
        assert_same_run(&run, &baseline);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn injected_worker_panic_recovers_via_one_retry_from_checkpoint() {
    // A shard worker panics mid-run; the supervisor contains it, the
    // experiment layer retries once from the last on-disk checkpoint, and
    // the final result is indistinguishable from a clean run (the injected
    // fault is one-shot, so the retry succeeds).
    let mode = PipelineMode::Sharded { workers: 3 };
    let clean = Experiment::new(GeneratorConfig::tiny());
    let cfg = YearConfig::for_year(2020);
    let baseline = clean
        .try_run_year_cfg_mode(&cfg, mode)
        .expect("clean baseline");

    let experiment = clean.with_injected_faults(InjectedFaults::panic_once(1));
    let dir = temp_dir("ckpt-panic-retry");
    let status = experiment
        .try_run_year_checkpointed(&cfg, mode, &CheckpointSpec::new(&dir).every(1), None)
        .expect("the contained panic is retried, not surfaced");
    let YearStatus::Completed { run, report, .. } = status else {
        panic!("retried run must complete, got {status:?}");
    };
    assert_eq!(report.retried, 1, "exactly one retry was spent");
    assert_same_run(&run, &baseline);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stop_flag_interrupts_the_decade_and_resume_finishes_it_byte_identically() {
    // The SIGINT path end to end, minus the actual signal: a pre-raised
    // stop flag makes every year checkpoint and stop immediately; a second
    // invocation with --resume semantics finishes the decade, and the
    // rendered report (the actual table1.json bytes) equals the
    // uninterrupted run's.
    let plain = Experiment::new(GeneratorConfig::tiny())
        .try_run_decade()
        .expect("plain decade runs clean");
    let plain_json = plain.report().to_json().to_string();

    let dir = temp_dir("ckpt-decade");
    let stop = AtomicBool::new(true);
    let spec = CheckpointSpec::new(&dir).every(1);
    let status = Experiment::new(GeneratorConfig::tiny())
        .try_run_decade_checkpointed(&spec, Some(&stop))
        .expect("stopping is not an error");
    let DecadeStatus::Interrupted {
        completed,
        interrupted,
    } = status
    else {
        panic!("a pre-raised stop flag must interrupt, got completed years");
    };
    assert_eq!(completed, 0);
    assert_eq!(
        interrupted.len(),
        10,
        "all ten years stopped and checkpointed"
    );

    let status = Experiment::new(GeneratorConfig::tiny())
        .try_run_decade_checkpointed(&spec.clone().resume(true), None)
        .expect("resumed decade completes");
    let DecadeStatus::Completed { run, supervision } = status else {
        panic!("resumed decade must complete");
    };
    assert!(supervision.failures.is_empty());
    assert_eq!(supervision.retried, 0);
    let resumed_json = run.report().to_json().to_string();
    assert_eq!(
        resumed_json, plain_json,
        "table1 bytes identical across kill+resume"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
