//! Ingest equivalence: a capture opened as a `MappedCapture` and decoded on
//! one or many threads must be observably identical to the `Read`-based
//! `PcapStream` — same records in the same order, same fault counters, same
//! terminal errors — on clean captures and on the corrupt corpus, under
//! every fault policy. And `analyze()` must give one answer in every shape
//! it can be asked for: the one matrix of pipeline × materialize × ingest ×
//! dark set × input × plain-or-interrupted-and-resumed.
//!
//! Plus a record-boundary fuzz drill (pseudo-random captures of mixed frame
//! sizes must drain identically for every queue count) and a capture several
//! default windows long, so the suite crosses real window edges. The
//! window-edge matrix proper — every window size against every kind of edge
//! — sits beside the framer in `crates/wire/src/ingest.rs`, where a test can
//! set the window.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use synscan::analyze::{analyze, AnalyzeError, AnalyzeOptions, AnalyzeResult, CaptureInput};
use synscan::core::PipelineMode;
use synscan::experiment::{CheckpointSpec, Experiment, RunOptions};
use synscan::telescope::capture::export_pcap;
use synscan::wire::ingest::{
    IngestMode, IngestQueues, MappedCapture, MappedPcapStream, PcapStream,
};
use synscan::wire::pcap::{PcapWriter, LINKTYPE_ETHERNET};
use synscan::wire::stream::{FaultCounters, FaultPolicy, StreamError, TryRecordStream};
use synscan::wire::ProbeRecord;
use synscan::{GeneratorConfig, RunStatus};

const POLICIES: [FaultPolicy; 3] = [
    FaultPolicy::Fail,
    FaultPolicy::SkipRecord,
    FaultPolicy::StopClean,
];

const CORPUS: [&str; 5] = [
    "bad_magic.pcap",
    "truncated_header.pcap",
    "truncated_record.pcap",
    "snaplen_overflow.pcap",
    "zero_length.pcap",
];

fn corpus_bytes(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data/corrupt")
        .join(name);
    fs::read(path).expect("corpus file exists")
}

/// A small clean telescope capture.
fn clean_capture() -> Vec<u8> {
    let experiment = Experiment::new(GeneratorConfig::tiny());
    let output = synscan::synthesis::generate::generate_year(
        &synscan::YearConfig::for_year(2020),
        experiment.config(),
        experiment.registry(),
        experiment.dark(),
    );
    export_pcap(&output.records, Vec::new()).expect("export to Vec")
}

type ImportOutcome = Result<(Vec<ProbeRecord>, FaultCounters), StreamError>;

fn import_read(bytes: &[u8], policy: FaultPolicy) -> ImportOutcome {
    PcapStream::with_policy(bytes, policy)?.into_records()
}

fn import_mapped(bytes: &[u8], policy: FaultPolicy, queues: usize) -> ImportOutcome {
    let capture = Arc::new(MappedCapture::from_bytes(bytes.to_vec()));
    IngestQueues::new(capture, queues, policy)?
        .spawn()
        .into_records()
}

// ---------------------------------------------------------------------------
// 1. Corrupt corpus: identical records, counters, and terminal errors
// ---------------------------------------------------------------------------

#[test]
fn corrupt_corpus_is_identical_across_every_ingest_path() {
    for name in CORPUS {
        let bytes = corpus_bytes(name);
        for policy in POLICIES {
            let reference = import_read(&bytes, policy);
            for queues in [1, 2, 3] {
                assert_eq!(
                    reference,
                    import_mapped(&bytes, policy, queues),
                    "{name} under {policy:?} with {queues} queue(s) diverged \
                     from the Read-based stream"
                );
            }
        }
    }
}

#[test]
fn clean_capture_imports_identically_across_every_ingest_path() {
    let bytes = clean_capture();
    for policy in POLICIES {
        let reference = import_read(&bytes, policy);
        let (records, faults) = reference.as_ref().expect("clean capture imports");
        assert!(!records.is_empty() && !faults.any());
        for queues in [1, 4] {
            assert_eq!(
                reference,
                import_mapped(&bytes, policy, queues),
                "clean capture under {policy:?} with {queues} queue(s)"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Full analysis equivalence, sequential and sharded
// ---------------------------------------------------------------------------

/// A plain analysis, which nothing interrupts.
fn plain(input: CaptureInput<'_>, options: &AnalyzeOptions) -> Result<AnalyzeResult, AnalyzeError> {
    let status = analyze(input, options, &RunOptions::default())?;
    Ok(status.completed().expect("nothing interrupts a plain run"))
}

/// The same analysis interrupted right after its first checkpoint (cut at
/// the first batch boundary 50 records in) and resumed from it.
fn interrupted_and_resumed<'a>(
    input: impl Fn() -> CaptureInput<'a>,
    options: &AnalyzeOptions,
    label: &str,
) -> Result<AnalyzeResult, AnalyzeError> {
    let dir = std::env::temp_dir().join(format!("synscan-ingest-matrix-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let checkpointed = |spec: &CheckpointSpec| {
        let run = RunOptions {
            checkpoint: Some(spec),
            ..RunOptions::default()
        };
        analyze(input(), options, &run)
    };
    let first = checkpointed(&CheckpointSpec::new(&dir).every(50).interrupt_after(Some(1)))?;
    assert!(
        matches!(first, RunStatus::Interrupted { checkpoints: 1, .. }),
        "{label}: {first:?}"
    );
    let resumed = checkpointed(&CheckpointSpec::new(&dir).every(50).resume(true))?;
    let _ = fs::remove_dir_all(&dir);
    Ok(resumed.completed().expect("a resumed run completes"))
}

#[test]
fn analysis_is_identical_for_read_and_mapped_ingest_in_every_shape() {
    let bytes = clean_capture();
    let capture = MappedCapture::from_bytes(bytes.clone());
    let (records, _) = import_read(&bytes, FaultPolicy::Fail).expect("clean capture imports");
    let dark = (records.iter().map(|r| r.dst_ip.0))
        .collect::<std::collections::HashSet<_>>()
        .len() as u64;
    // The one reference: sequential, streamed on one queue, the dark set
    // given, never interrupted.
    let base = AnalyzeOptions {
        monitored: Some(dark),
        year: 2020,
        ..AnalyzeOptions::default()
    };
    let reference = plain(CaptureInput::Capture(&capture), &base).expect("reference analysis");
    assert!(reference.analysis.total_packets > 0 && reference.techniques["syn"] > 0);

    let pipelines = [
        PipelineMode::Sequential,
        PipelineMode::Sharded { workers: 3 },
    ];
    let ingests = [
        IngestMode::Read,
        IngestMode::Mapped { queues: 1 },
        IngestMode::Mapped { queues: 3 },
    ];
    let mut cells = 0;
    for (pipeline, materialize, ingest, monitored, one_shot, resumed) in pipelines
        .into_iter()
        .flat_map(|p| [false, true].map(|m| (p, m)))
        .flat_map(|(p, m)| ingests.map(|i| (p, m, i)))
        .flat_map(|(p, m, i)| [Some(dark), None].map(|d| (p, m, i, d)))
        .flat_map(|(p, m, i, d)| [false, true].map(|o| (p, m, i, d, o)))
        .flat_map(|(p, m, i, d, o)| [false, true].map(|r| (p, m, i, d, o, r)))
    {
        let label = format!(
            "{pipeline:?} materialize={materialize} ingest={ingest} monitored={monitored:?} \
             one_shot={one_shot} resumed={resumed}"
        );
        let options = AnalyzeOptions {
            monitored,
            pipeline,
            materialize,
            ingest,
            ..base.clone()
        };
        let input = || match one_shot {
            true => CaptureInput::reader(std::io::Cursor::new(bytes.clone())),
            false => CaptureInput::Capture(&capture),
        };
        let result = match resumed {
            false => plain(input(), &options),
            true => interrupted_and_resumed(input, &options, &label),
        };
        cells += 1;
        if one_shot && resumed {
            // A resume re-reads the bytes, and these come only once.
            assert_eq!(result.unwrap_err(), AnalyzeError::NotReopenable, "{label}");
            continue;
        }
        let result = result.unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(reference.analysis, result.analysis, "{label}: analysis");
        assert_eq!(reference.summary, result.summary, "{label}: summary");
        assert_eq!(reference.faults, result.faults, "{label}: faults");
        assert_eq!(
            reference.non_tcp_frames, result.non_tcp_frames,
            "{label}: non-TCP tally"
        );
        assert_eq!(
            reference.techniques, result.techniques,
            "{label}: techniques"
        );
        assert_eq!(reference.monitored, result.monitored, "{label}: dark set");
    }
    assert_eq!(cells, 2 * 2 * 3 * 2 * 2 * 2);
}

#[test]
fn corrupt_corpus_analysis_matches_read_ingest_under_every_policy() {
    for name in CORPUS {
        let bytes = corpus_bytes(name);
        for policy in POLICIES {
            for queues in [1, 3] {
                let base = AnalyzeOptions {
                    monitored: Some(64),
                    policy,
                    ..AnalyzeOptions::default()
                };
                let read = CaptureInput::reader(std::io::Cursor::new(bytes.clone()));
                let reference = plain(read, &base);
                let mapped = plain(
                    CaptureInput::Capture(&MappedCapture::from_bytes(bytes.clone())),
                    &AnalyzeOptions {
                        ingest: IngestMode::Mapped { queues },
                        ..base
                    },
                );
                let label = format!("{name} under {policy:?} with {queues} queue(s)");
                match (reference, mapped) {
                    (Ok(r), Ok(m)) => {
                        assert_eq!(r.analysis, m.analysis, "{label}: analysis");
                        assert_eq!(r.faults, m.faults, "{label}: faults");
                    }
                    (Err(r), Err(m)) => assert_eq!(r, m, "{label}: error"),
                    (r, m) => panic!("{label}: read={r:?} vs mapped={m:?}"),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 3. Record-boundary fuzz, and real window edges
// ---------------------------------------------------------------------------

/// Deterministic xorshift so the drill needs no RNG dependency.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A capture of `n` records with pseudo-random frame sizes (including many
/// non-TCP frames, so decode outcomes vary across chunk edges).
fn fuzz_capture(seed: u64, n: usize) -> Vec<u8> {
    let mut state = seed | 1;
    let mut writer = PcapWriter::new(Vec::new(), LINKTYPE_ETHERNET).expect("in-memory header");
    for i in 0..n {
        let len = 1 + (xorshift(&mut state) % 120) as usize;
        let frame: Vec<u8> = (0..len)
            .map(|j| (xorshift(&mut state) ^ j as u64) as u8)
            .collect();
        writer
            .write_record(1_000_000 + i as u64, &frame)
            .expect("in-memory record");
    }
    writer.into_inner().expect("in-memory flush")
}

#[test]
fn fuzzed_captures_drain_identically_sequential_and_parallel() {
    let drain = |stream: &mut dyn TryRecordStream| {
        let mut records = Vec::new();
        let terminal = loop {
            match stream.try_next_batch() {
                Ok(Some(batch)) => records.extend_from_slice(batch),
                Ok(None) => break None,
                Err(e) => break Some(e),
            }
        };
        (records, terminal)
    };
    for seed in [7, 0xf00d, 0xfeed_5eed] {
        for n in [1, 13, 64] {
            let bytes = fuzz_capture(seed, n);
            for policy in POLICIES {
                let mut sequential =
                    MappedPcapStream::with_policy(&bytes, policy).expect("valid header");
                let reference = drain(&mut sequential);
                let reference_counts = (
                    sequential.non_tcp_frames(),
                    sequential.order_violations(),
                    sequential.faults(),
                );
                let capture = Arc::new(MappedCapture::from_bytes(bytes.clone()));
                for queues in [1, 2, 3, 5] {
                    // `exact` bypasses the core-count clamp so the threaded
                    // merge (and the queues=1 inline decode) are exercised
                    // whatever box runs the suite.
                    let mut parallel = IngestQueues::exact(Arc::clone(&capture), queues, policy)
                        .expect("valid header")
                        .spawn();
                    let label = format!("seed={seed:#x} n={n} {policy:?} queues={queues}");
                    assert_eq!(reference, drain(&mut parallel), "{label}: records/terminal");
                    assert_eq!(
                        reference_counts,
                        (
                            parallel.non_tcp_frames(),
                            parallel.order_violations(),
                            parallel.faults(),
                        ),
                        "{label}: counters"
                    );
                }
            }
        }
    }
}

/// A time-ordered capture a little over three default (1 MiB) windows long,
/// with a frame the fast path rejects every 97 records, written to a file:
/// the one input here on which the shipped window size meets real edges and
/// `MappedCapture::load` meets a real file.
#[test]
fn a_capture_of_several_default_windows_is_identical_on_every_path() {
    let experiment = Experiment::new(GeneratorConfig::tiny());
    let seed_records = synscan::synthesis::generate::generate_year(
        &synscan::YearConfig::for_year(2020),
        experiment.config(),
        experiment.registry(),
        experiment.dark(),
    )
    .records;
    let builder = synscan::wire::SynFrameBuilder::default();
    let mut writer = PcapWriter::new(Vec::new(), LINKTYPE_ETHERNET).expect("in-memory header");
    let mut i = 0u64;
    while writer.buffered_len() < 3 * (1 << 20) + 4096 {
        let record = ProbeRecord {
            ts_micros: 1_000_000 + i,
            ..seed_records[i as usize % seed_records.len()]
        };
        let mut frame = builder.build(&record);
        if i.is_multiple_of(97) {
            frame.truncate(20); // not even an IPv4 header: counted, not parsed
        }
        writer
            .write_record(record.ts_micros, &frame)
            .expect("in-memory record");
        i += 1;
    }
    let mut bytes = writer.into_inner().expect("in-memory flush");
    bytes.truncate(bytes.len() - 7); // and a torn tail for the policies to meet

    let dir = std::env::temp_dir().join(format!("synscan-ingest-windows-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("windows.pcap");
    fs::write(&path, &bytes).expect("write capture");
    let capture = Arc::new(MappedCapture::load(&path).expect("regular file"));

    for policy in POLICIES {
        let reference = import_read(&bytes, policy);
        match (&reference, policy) {
            (Err(_), FaultPolicy::Fail) => {}
            (Ok((records, faults)), _) => {
                assert_eq!(records.len() as u64, i - 1 - (i - 1).div_ceil(97));
                assert_eq!(faults.streams_truncated, 1);
            }
            other => panic!("unexpected reference outcome {other:?}"),
        }
        for queues in [1, 2, 5] {
            let mut stream = IngestQueues::exact(Arc::clone(&capture), queues, policy)
                .expect("valid header")
                .spawn();
            let non_tcp = (i - 1).div_ceil(97);
            let label = format!("{policy:?} queues={queues}");
            let mut records = Vec::new();
            let outcome = loop {
                match stream.try_next_batch() {
                    Ok(Some(batch)) => records.extend_from_slice(batch),
                    Ok(None) => break Ok((records, stream.faults())),
                    Err(e) => break Err(e),
                }
            };
            assert_eq!(reference, outcome, "{label}");
            assert_eq!(stream.non_tcp_frames(), non_tcp, "{label}: non-TCP census");
            assert_eq!(stream.order_violations(), 0, "{label}: order census");
        }
    }
    fs::remove_dir_all(&dir).expect("remove scratch dir");
}
