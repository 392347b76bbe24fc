//! Fault-injection equivalence and robustness, end to end.
//!
//! Two families of guarantees:
//!
//! 1. **Benign-fault equivalence**: a stream decayed with faults the fault
//!    policy recovers from *losslessly* (injected adjacent duplicates at the
//!    record level, inserted garbage frames at the pcap level) must produce
//!    a `YearAnalysis` — and capture statistics — byte-identical to the
//!    clean run — itself anchored on the materialized reference — in every
//!    execution shape: sequential and sharded.
//! 2. **Fatal faults are errors, not panics**: under the strict `Fail`
//!    policy a truncation surfaces as a typed `Err` from both pipeline
//!    drivers, and no file in the malformed-pcap corpus can panic any code
//!    path under any policy.

mod support;

use std::fs::File;
use std::io::BufReader;
use std::path::PathBuf;
use std::sync::Arc;

use synscan::analyze::{analyze, AnalyzeError, AnalyzeOptions, AnalyzeResult, CaptureInput};
use synscan::core::pipeline::PipelineError;
use synscan::core::PipelineMode;
use synscan::experiment::{Experiment, YearRun};
use synscan::wire::chaos::{corrupt_pcap, ChaosPlan, Fault};
use synscan::wire::ingest::{IngestQueues, MappedCapture};
use synscan::wire::stream::{FaultPolicy, StreamError, TryRecordStream};
use synscan::wire::PcapError;
use synscan::{GeneratorConfig, RunError, RunOptions, YearConfig};

fn corpus_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data/corrupt")
        .join(name)
}

/// A corpus file as a one-shot input.
fn corpus_input(name: &str) -> CaptureInput<'static> {
    let file = File::open(corpus_path(name)).expect("corpus file exists");
    CaptureInput::reader(BufReader::new(file))
}

/// A plain analysis of `input`.
fn analyze_once(
    input: CaptureInput<'_>,
    options: &AnalyzeOptions,
) -> Result<AnalyzeResult, AnalyzeError> {
    let status = analyze(input, options, &RunOptions::default())?;
    Ok(status.completed().expect("nothing interrupts a plain run"))
}

/// A plain analysis of an in-memory capture, which can be read again to
/// infer the dark set.
fn analyze_bytes(bytes: Vec<u8>, options: &AnalyzeOptions) -> Result<AnalyzeResult, AnalyzeError> {
    analyze_once(
        CaptureInput::Capture(&MappedCapture::from_bytes(bytes)),
        options,
    )
}

/// A plain 2020 in `mode`, as a `Result`.
fn try_year(experiment: &Experiment, mode: PipelineMode) -> Result<YearRun, RunError> {
    let status = experiment.year(&YearConfig::for_year(2020), mode, &RunOptions::default())?;
    Ok(status.completed().expect("nothing interrupts a plain run"))
}

/// A small clean capture for the pcap-level drills.
fn clean_capture() -> Vec<u8> {
    use synscan::telescope::capture::export_pcap;
    let experiment = Experiment::new(GeneratorConfig::tiny());
    let output = synscan::synthesis::generate::generate_year(
        &synscan::YearConfig::for_year(2020),
        experiment.config(),
        experiment.registry(),
        experiment.dark(),
    );
    export_pcap(&output.records, Vec::new()).expect("export to Vec")
}

/// FNV-1a: a digest that is stable across toolchains. The rewrites below
/// are pinned to what `corrupt_pcap` produced when it still read its input
/// through a record-at-a-time reader.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

// ---------------------------------------------------------------------------
// 1. Benign-fault equivalence matrix
// ---------------------------------------------------------------------------

#[test]
fn benign_record_faults_are_invisible_in_every_execution_shape() {
    let run_with = |chaos: Option<ChaosPlan>, mode: PipelineMode| {
        let mut experiment =
            Experiment::new(GeneratorConfig::tiny()).with_fault_policy(FaultPolicy::SkipRecord);
        if let Some(plan) = chaos {
            experiment = experiment.with_chaos(plan);
        }
        try_year(&experiment, mode).expect("the skip policy runs through benign faults")
    };
    let clean = run_with(None, PipelineMode::Sequential);
    assert!(!clean.faults.any());
    // The clean run is what the materialized year analyzes to without the
    // driver: sorted vector → capture session → one collector.
    let (analysis, capture, _) =
        support::materialized_year(&Experiment::new(GeneratorConfig::tiny()), 2020);
    assert_eq!(clean.analysis, analysis);
    assert_eq!(clean.capture, capture);
    for mode in [
        PipelineMode::Sequential,
        PipelineMode::Sharded { workers: 3 },
    ] {
        let chaotic = run_with(Some(ChaosPlan::benign(0xbead)), mode);
        let label = format!("mode={mode:?}");
        assert_eq!(
            clean.analysis, chaotic.analysis,
            "{label}: benign faults leaked into the analysis"
        );
        assert_eq!(
            clean.capture, chaotic.capture,
            "{label}: benign faults leaked into the capture statistics"
        );
        assert!(
            chaotic.faults.duplicates_dropped > 0,
            "{label}: the drill must actually have injected something"
        );
        assert_eq!(chaotic.faults.records_skipped, 0, "{label}");
        assert_eq!(chaotic.faults.streams_truncated, 0, "{label}");
    }
}

#[test]
fn garbage_frames_in_a_pcap_are_counted_but_do_not_change_the_analysis() {
    // Inserted garbage frames parse as valid pcap records but not as
    // Ethernet/IPv4/TCP — consumers count them as non-TCP frames and move
    // on. Benign even under the strict policy.
    let bytes = clean_capture();
    let plan = ChaosPlan {
        seed: 0x5eed,
        faults: vec![Fault::InsertGarbage { period: 9 }],
    };
    let (dirty, log) = corrupt_pcap(&bytes, &plan).expect("clean input rewrites");
    assert!(log.garbage_frames > 0);
    assert_eq!((dirty.len(), fnv1a(&dirty)), (3070590, 147164344901557489));

    let options = AnalyzeOptions::default();
    let clean = analyze_bytes(bytes, &options).expect("clean capture");
    let decayed = analyze_bytes(dirty, &options).expect("garbage is benign");
    assert_eq!(clean.analysis, decayed.analysis);
    assert!(!decayed.faults.any(), "nothing was skipped — only ignored");
}

#[test]
fn duplicated_pcap_records_are_dropped_under_skip_and_match_the_clean_run() {
    let bytes = clean_capture();
    let plan = ChaosPlan {
        seed: 0xd0d0,
        faults: vec![Fault::DuplicateRecord { period: 11 }],
    };
    let (dirty, log) = corrupt_pcap(&bytes, &plan).expect("clean input rewrites");
    assert!(log.duplicates > 0);
    assert_eq!((dirty.len(), fnv1a(&dirty)), (3187824, 9117916276474888068));

    let options = AnalyzeOptions {
        policy: FaultPolicy::SkipRecord,
        ..AnalyzeOptions::default()
    };
    let clean = analyze_bytes(bytes, &options).expect("clean capture");
    let decayed = analyze_bytes(dirty, &options).expect("skip drops dupes");
    assert_eq!(clean.analysis, decayed.analysis);
    // Any duplicates native to the capture are dropped in both runs; the
    // decayed run drops the injected ones on top.
    assert_eq!(
        decayed.faults.duplicates_dropped,
        clean.faults.duplicates_dropped + log.duplicates
    );
}

// ---------------------------------------------------------------------------
// 2. Fatal faults: typed errors from both drivers, never panics
// ---------------------------------------------------------------------------

#[test]
fn mid_stream_eof_is_an_error_from_both_drivers_under_fail() {
    let plan = ChaosPlan {
        seed: 0xe0f0,
        faults: vec![Fault::MidStreamEof { after_records: 500 }],
    };
    for mode in [
        PipelineMode::Sequential,
        PipelineMode::Sharded { workers: 3 },
    ] {
        let result = try_year(
            &Experiment::new(GeneratorConfig::tiny()).with_chaos(plan.clone()),
            mode,
        );
        match result {
            Err(RunError::Pipeline(PipelineError::Stream(StreamError::Truncated {
                records_seen,
            }))) => {
                assert_eq!(records_seen, 500, "mode={mode:?}: cut offset is exact");
            }
            other => panic!("mode={mode:?}: expected a truncation error, got {other:?}"),
        }
    }
}

#[test]
fn mid_stream_eof_under_stop_clean_keeps_the_prefix() {
    let plan = ChaosPlan {
        seed: 0xe0f0,
        faults: vec![Fault::MidStreamEof { after_records: 500 }],
    };
    for mode in [
        PipelineMode::Sequential,
        PipelineMode::Sharded { workers: 3 },
    ] {
        let run = try_year(
            &Experiment::new(GeneratorConfig::tiny())
                .with_fault_policy(FaultPolicy::StopClean)
                .with_chaos(plan.clone()),
            mode,
        )
        .expect("stop-clean turns the cut into a clean end");
        assert_eq!(run.faults.streams_truncated, 1, "{mode:?}");
        assert!(
            run.analysis.total_packets <= 500,
            "{mode:?}: only the prefix survives"
        );
    }
}

#[test]
fn heavy_timestamp_jitter_never_panics_under_skip() {
    // Jitter large enough to guarantee order regressions; the skip policy
    // drops the regressing records and completes.
    let plan = ChaosPlan {
        seed: 0x717e,
        faults: vec![Fault::JitterTimestamp {
            period: 3,
            max_micros: 3_600_000_000, // one hour
        }],
    };
    for mode in [
        PipelineMode::Sequential,
        PipelineMode::Sharded { workers: 3 },
    ] {
        let run = try_year(
            &Experiment::new(GeneratorConfig::tiny())
                .with_fault_policy(FaultPolicy::SkipRecord)
                .with_chaos(plan.clone()),
            mode,
        )
        .expect("skip policy survives jitter");
        assert!(run.analysis.total_packets > 0, "{mode:?}");
    }
}

// ---------------------------------------------------------------------------
// 3. Malformed-pcap corpus: exact error taxonomy, no panics anywhere
// ---------------------------------------------------------------------------

#[test]
fn corpus_files_map_to_their_exact_pcap_error() {
    // The product's reader, inline (one queue) and threaded (three).
    for queues in [1, 3] {
        let open = |name: &str| {
            let capture = MappedCapture::load(corpus_path(name)).expect("corpus file exists");
            IngestQueues::exact(Arc::new(capture), queues, FaultPolicy::Fail)
        };
        // Header-level faults error at open.
        match open("bad_magic.pcap") {
            Err(PcapError::BadMagic(magic)) => assert_eq!(magic, 0xdead_beef),
            other => panic!("bad_magic.pcap: {other:?}"),
        }
        assert!(matches!(
            open("truncated_header.pcap"),
            Err(PcapError::TruncatedGlobalHeader)
        ));

        // Record-level faults error on the first pull.
        let first_error = |name: &str| {
            let mut stream = open(name).expect("global header is valid").spawn();
            match stream.try_next_batch() {
                Err(StreamError::Pcap(e)) => e,
                other => panic!("{name} with {queues} queue(s): {other:?}"),
            }
        };
        assert_eq!(
            first_error("truncated_record.pcap"),
            PcapError::TruncatedRecordBody {
                expected: 20,
                got: 5
            }
        );
        assert_eq!(
            first_error("snaplen_overflow.pcap"),
            PcapError::SnapLenOverflow(1 << 30)
        );
        let zero = first_error("zero_length.pcap");
        assert_eq!(zero, PcapError::ZeroLengthRecord { incl: 8 });
        assert!(zero.recoverable(), "zero-length records are skippable");
    }
    assert!(!PcapError::TruncatedGlobalHeader.recoverable());
}

#[test]
fn no_corpus_file_panics_any_policy_or_pipeline_path() {
    let corpus = [
        "bad_magic.pcap",
        "truncated_header.pcap",
        "truncated_record.pcap",
        "snaplen_overflow.pcap",
        "zero_length.pcap",
    ];
    for name in corpus {
        for policy in [
            FaultPolicy::Fail,
            FaultPolicy::SkipRecord,
            FaultPolicy::StopClean,
        ] {
            for pipeline in [
                PipelineMode::Sequential,
                PipelineMode::Sharded { workers: 3 },
            ] {
                let options = AnalyzeOptions {
                    monitored: Some(64),
                    policy,
                    pipeline,
                    ..AnalyzeOptions::default()
                };
                // Ok (recovered to an empty/partial analysis) or a typed
                // error — anything but a panic.
                let _ = analyze_once(corpus_input(name), &options);
            }
        }
    }
}

#[test]
fn skip_policy_recovers_what_the_corpus_allows() {
    // Records behind an unrecoverable fault are lost (the stream ends
    // cleanly); records behind a recoverable fault are analyzed.
    let options = AnalyzeOptions {
        monitored: Some(64),
        policy: FaultPolicy::SkipRecord,
        ..AnalyzeOptions::default()
    };
    let torn = analyze_once(corpus_input("truncated_record.pcap"), &options)
        .expect("skip policy survives a torn record");
    assert_eq!(torn.analysis.total_packets, 0);
    assert_eq!(torn.faults.streams_truncated, 1);

    let zero = analyze_once(corpus_input("zero_length.pcap"), &options)
        .expect("skip policy steps over a zero-length record");
    assert_eq!(zero.faults.records_skipped, 1);
    assert_eq!(zero.faults.bytes_dropped, 8);

    // And the strict policy refuses both, with the matching variant.
    let strict = AnalyzeOptions {
        policy: FaultPolicy::Fail,
        ..options
    };
    assert!(matches!(
        analyze_once(corpus_input("truncated_record.pcap"), &strict),
        Err(AnalyzeError::Pcap(PcapError::TruncatedRecordBody { .. }))
    ));
    assert!(matches!(
        analyze_once(corpus_input("zero_length.pcap"), &strict),
        Err(AnalyzeError::Pcap(PcapError::ZeroLengthRecord { .. }))
    ));
}
