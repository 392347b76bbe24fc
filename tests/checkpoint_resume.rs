//! End-to-end crash-safety: experiment-level interrupt/resume equivalence,
//! chaos interplay with checkpointed fault counters, golden checkpoints of
//! earlier builds, and the kill drill of both front ends.
//!
//! The contract under test: a run that is interrupted (stop flag or drill)
//! and then resumed from its on-disk checkpoint produces output
//! bit-identical to an uninterrupted run — analysis, capture statistics,
//! and fault counters alike — in both pipeline modes, with and without
//! injected stream chaos.

use std::path::PathBuf;
use std::sync::atomic::AtomicBool;

use synscan::core::store::{encode_year, AnalysisStore, StoreImage};
use synscan::core::{Checkpoint, CheckpointError, EnvelopeError};
use synscan::experiment::{DecadeStatus, Experiment, YearRun};
use synscan::wire::json::ToJson;
use synscan::wire::{ChaosPlan, FaultPolicy};
use synscan::{
    CheckpointOptions, GeneratorConfig, PipelineMode, RunError, RunOptions, RunStatus, YearConfig,
};

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

fn plain_year(experiment: &Experiment, cfg: &YearConfig, mode: PipelineMode) -> YearRun {
    experiment
        .year(cfg, mode, &RunOptions::default())
        .expect("baseline year runs clean")
        .completed()
        .expect("nothing interrupts a plain run")
}

fn checkpointed_year(
    experiment: &Experiment,
    cfg: &YearConfig,
    mode: PipelineMode,
    checkpoint: CheckpointOptions,
) -> Result<RunStatus<YearRun>, RunError> {
    let opts = RunOptions {
        checkpoint: Some(&checkpoint),
        ..RunOptions::default()
    };
    experiment.year(cfg, mode, &opts)
}

/// Interrupt after the first checkpoint, resume, and demand bit-identical
/// output versus the uninterrupted run.
fn interrupt_resume_roundtrip(name: &str, experiment: &Experiment, mode: PipelineMode) {
    let cfg = YearConfig::for_year(2020);
    let baseline = plain_year(experiment, &cfg, mode);

    let dir = temp_dir(name);
    let drill = CheckpointOptions {
        every: 1,
        interrupt_after: Some(1),
        ..CheckpointOptions::new(&dir)
    };
    let interrupted =
        checkpointed_year(experiment, &cfg, mode, drill).expect("interrupt drill is not an error");
    let RunStatus::Interrupted { checkpoints, .. } = interrupted else {
        panic!("the drill must interrupt the run, got {interrupted:?}");
    };
    assert_eq!(checkpoints, 1, "interrupted right after the first cut");

    let resume = CheckpointOptions {
        resume: true,
        ..CheckpointOptions::new(&dir)
    };
    let resumed = checkpointed_year(experiment, &cfg, mode, resume).expect("resume completes");
    let RunStatus::Completed { outcome: run, .. } = resumed else {
        panic!("resumed run must complete, got {resumed:?}");
    };
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
        let baseline = plain_year(&experiment, &YearConfig::for_year(2020), mode);
        assert!(
            baseline.faults.duplicates_dropped > 0,
            "the chaos plan must actually fire for this test to mean anything"
        );
        interrupt_resume_roundtrip(&format!("ckpt-chaos-{mode}"), &experiment, mode);
    }
}

#[test]
fn a_checkpoint_cut_at_another_scale_is_a_mismatch() {
    // Same seed, same year, same shard count — and another stream: the
    // identity word has to cover the whole generator configuration.
    let cfg = YearConfig::for_year(2020);
    let mode = PipelineMode::Sequential;
    let dir = temp_dir("ckpt-identity");
    let drill = CheckpointOptions {
        every: 1,
        interrupt_after: Some(1),
        ..CheckpointOptions::new(&dir)
    };
    let interrupted =
        checkpointed_year(&Experiment::new(GeneratorConfig::tiny()), &cfg, mode, drill)
            .expect("interrupt drill is not an error");
    assert!(matches!(interrupted, RunStatus::Interrupted { .. }));

    let thinner = GeneratorConfig {
        population_denominator: GeneratorConfig::tiny().population_denominator * 2,
        ..GeneratorConfig::tiny()
    };
    let resume = || CheckpointOptions {
        resume: true,
        ..CheckpointOptions::new(&dir)
    };
    let err = checkpointed_year(&Experiment::new(thinner), &cfg, mode, resume())
        .expect_err("another population is another run");
    assert!(
        matches!(
            err,
            RunError::Checkpoint(CheckpointError::Mismatch {
                field: "identity",
                ..
            })
        ),
        "{err:?}"
    );
    // So is the same generator under another fault policy.
    let lossy = Experiment::new(GeneratorConfig::tiny()).with_fault_policy(FaultPolicy::SkipRecord);
    assert!(matches!(
        checkpointed_year(&lossy, &cfg, mode, resume()),
        Err(RunError::Checkpoint(CheckpointError::Mismatch { .. }))
    ));
    // The run it was cut from still resumes.
    let resumed = checkpointed_year(
        &Experiment::new(GeneratorConfig::tiny()),
        &cfg,
        mode,
        resume(),
    )
    .expect("same run resumes");
    assert!(matches!(resumed, RunStatus::Completed { .. }));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_armed_kill_drill_that_cannot_fire_is_an_error_not_a_clean_exit() {
    // Every tiny year is shorter than the default 500 000-record cadence,
    // so no year reaches a periodic cut and the drill cannot crash the run
    // where it asked to: both front ends must say so instead of exiting 0.
    let dir = temp_dir("drill-unfired");
    let (out, ckpt) = (dir.join("out"), dir.join("ckpt"));
    let capture = dir.join("tiny_2020.pcap");
    let experiment = Experiment::new(GeneratorConfig::tiny());
    let output = synscan::synthesis::generate::generate_year(
        &YearConfig::for_year(2020),
        experiment.config(),
        experiment.registry(),
        experiment.dark(),
    );
    let file = std::fs::File::create(&capture).expect("create capture");
    synscan::telescope::capture::export_pcap(&output.records, file).expect("write capture");
    let drill = ["--checkpoint-dir", ckpt.to_str().unwrap()];
    let drill = [&drill[..], &["--die-after-checkpoints", "1"]].concat();
    let runs = [
        (
            env!("CARGO_BIN_EXE_repro"),
            [
                &["--scale", "tiny", "--out", out.to_str().unwrap()][..],
                &drill,
                &["table1"],
            ]
            .concat(),
        ),
        (
            env!("CARGO_BIN_EXE_analyze"),
            [&[capture.to_str().unwrap()][..], &drill].concat(),
        ),
    ];
    for (bin, args) in runs {
        let run = std::process::Command::new(bin)
            .args(&args)
            .output()
            .expect("run the binary");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{bin}: {stderr}");
        assert!(stderr.contains("never fired"), "{bin}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A golden checkpoint: tiny-scale 2015 of seed 20240915 under
/// `Sharded { workers: 2 }`, cut after its first checkpoint (every 1 000
/// records) by an earlier build.
fn golden(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data/ckpt")
        .join(name);
    std::fs::read(&path).expect("golden checkpoint")
}

fn golden_run() -> (Experiment, YearConfig, PipelineMode) {
    let gen = GeneratorConfig {
        seed: 20240915,
        ..GeneratorConfig::tiny()
    };
    (
        Experiment::new(gen),
        YearConfig::for_year(2015),
        PipelineMode::Sharded { workers: 2 },
    )
}

#[test]
fn a_checkpoint_written_by_an_earlier_build_reencodes_and_resumes() {
    // Format version 3: an idle source is its bare slot.
    let bytes = golden("year-2015-sharded2-v3.ckpt");
    let golden = Checkpoint::from_bytes(&bytes).expect("golden checkpoint decodes");
    assert_eq!((golden.header.year, golden.header.workers), (2015, 2));
    assert!(golden.header.cursor > 0, "cut mid-stream");
    assert!(golden.to_bytes() == bytes, "re-encodes to its own bytes");

    let (experiment, cfg, mode) = golden_run();
    let plain = plain_year(&experiment, &cfg, mode);

    let dir = temp_dir("ckpt-golden");
    std::fs::write(Checkpoint::path_for(&dir, 2015), &bytes).expect("stage golden");
    let store_dir = temp_dir("ckpt-golden-store");
    let store = AnalysisStore::open(&store_dir).expect("open store");
    let resume = CheckpointOptions {
        resume: true,
        ..CheckpointOptions::new(&dir)
    };
    let opts = RunOptions {
        checkpoint: Some(&resume),
        store: Some(&store),
        ..RunOptions::default()
    };
    let status = experiment.year(&cfg, mode, &opts);
    assert!(
        matches!(status, Ok(RunStatus::Completed { .. })),
        "{status:?}"
    );
    let slice = std::fs::read(store.slice_path(2015)).expect("resumed slice");
    assert!(
        slice == encode_year(&plain.analysis),
        "the resumed slice differs from a plain run's"
    );
    for dir in [dir, store_dir] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn every_shard_of_the_golden_checkpoint_reencodes_to_its_own_blob() {
    // The collector restored from a blob holds closed periods as sealed rows
    // and the open one as live cells; cut again, it writes the same bytes.
    // Each shard of this cut has reached its third one-day period.
    let golden = Checkpoint::from_bytes(&golden("year-2015-sharded2-v3.ckpt"))
        .expect("golden checkpoint decodes");
    for (shard, blob) in golden.shards.iter().enumerate() {
        let collector = golden
            .shard_collector(shard)
            .expect("shard decodes")
            .expect("shard saw records");
        assert!(
            Checkpoint::encode_collector(Some(&collector)) == *blob,
            "shard {shard} re-encodes to other bytes"
        );
        let analysis = collector.finish();
        let open_period = analysis.week_blocks.keys().last().map(|&(week, _)| week);
        assert_eq!(open_period, Some(2), "shard {shard}");
    }
}

#[test]
fn a_checkpoint_of_the_previous_format_is_refused_with_a_rerun_message() {
    // The same cut in format version 2, whose idle sources carried a
    // fingerprint window and an empty scan body each.
    let bytes = golden("year-2015-sharded2.ckpt");
    let refused = |e: &CheckpointError| {
        matches!(
            e,
            CheckpointError::Envelope(EnvelopeError::UnsupportedVersion {
                found: 2,
                expected: 3
            })
        ) && e.to_string().contains("re-run")
    };
    let err = Checkpoint::from_bytes(&bytes).expect_err("another format version");
    assert!(refused(&err), "{err}");

    let (experiment, cfg, mode) = golden_run();
    let dir = temp_dir("ckpt-golden-v2");
    std::fs::write(Checkpoint::path_for(&dir, 2015), &bytes).expect("stage golden");
    let resume = CheckpointOptions {
        resume: true,
        ..CheckpointOptions::new(&dir)
    };
    let opts = RunOptions {
        checkpoint: Some(&resume),
        ..RunOptions::default()
    };
    match experiment.year(&cfg, mode, &opts) {
        Err(RunError::Checkpoint(e)) => assert!(refused(&e), "{e}"),
        other => panic!("a version-2 checkpoint must be refused, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The years a store holds, each with its slice bytes.
fn slices(store: &AnalysisStore) -> Vec<(u16, Vec<u8>)> {
    let image = StoreImage::load(store).expect("the store loads");
    (image.year_list().into_iter())
        .map(|year| {
            let bytes = std::fs::read(store.slice_path(year)).expect("slice file reads");
            (year, bytes)
        })
        .collect()
}

#[test]
fn stop_flag_interrupts_the_decade_and_resume_finishes_it_byte_identically() {
    // The SIGINT path end to end, minus the actual signal. A pre-raised
    // stop flag makes every year checkpoint and stop immediately; the drill
    // then stops the years long enough to reach a periodic cut and lets the
    // short ones finish; a last invocation with --resume semantics finishes
    // the decade. The store holds exactly the finished years all along, and
    // the rendered report (the actual table1.json bytes) and every slice
    // equal the uninterrupted run's.
    let plain_dir = temp_dir("ckpt-decade-plain-store");
    let plain_store = AnalysisStore::open(&plain_dir).expect("open store");
    let plain = Experiment::new(GeneratorConfig::tiny())
        .decade(&RunOptions {
            store: Some(&plain_store),
            ..RunOptions::default()
        })
        .expect("plain decade runs clean")
        .completed()
        .expect("nothing interrupts a plain run");
    let plain_json = plain.report().to_json().to_string();
    let plain_slices = slices(&plain_store);
    assert_eq!(plain_slices.len(), 10);

    let dir = temp_dir("ckpt-decade");
    let store_dir = temp_dir("ckpt-decade-store");
    let store = AnalysisStore::open(&store_dir).expect("open store");
    let decade = |checkpoint: &CheckpointOptions, stop: Option<&AtomicBool>| {
        let opts = RunOptions {
            checkpoint: Some(checkpoint),
            stop,
            store: Some(&store),
        };
        Experiment::new(GeneratorConfig::tiny())
            .decade(&opts)
            .expect("stopping is not an error")
    };

    let stop = AtomicBool::new(true);
    let status = decade(
        &CheckpointOptions {
            every: 1,
            ..CheckpointOptions::new(&dir)
        },
        Some(&stop),
    );
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
    assert!(
        slices(&store).is_empty(),
        "no year finished, none is stored"
    );

    // A cadence between the shortest and the longest year's stream.
    let cadence = (plain.years.iter()).map(|y| y.capture.offered).sum::<u64>() / 10;
    let drill = CheckpointOptions {
        every: cadence,
        resume: true,
        interrupt_after: Some(1),
        ..CheckpointOptions::new(&dir)
    };
    let DecadeStatus::Interrupted {
        completed,
        interrupted,
    } = decade(&drill, None)
    else {
        panic!("the long years must meet the drill");
    };
    assert!(completed > 0 && !interrupted.is_empty());
    assert_eq!(completed + interrupted.len(), 10);
    let finished: Vec<_> = (plain_slices.iter())
        .filter(|(year, _)| !interrupted.contains(year))
        .cloned()
        .collect();
    assert_eq!(
        slices(&store),
        finished,
        "exactly the finished years are queryable, byte for byte"
    );

    let status = decade(
        &CheckpointOptions {
            every: 1,
            resume: true,
            ..CheckpointOptions::new(&dir)
        },
        None,
    );
    let DecadeStatus::Completed { run } = status else {
        panic!("resumed decade must complete");
    };
    let resumed_json = run.report().to_json().to_string();
    assert_eq!(
        resumed_json, plain_json,
        "table1 bytes identical across kill+resume"
    );
    assert_eq!(slices(&store), plain_slices, "and so is every slice");
    for dir in [dir, store_dir, plain_dir] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}
