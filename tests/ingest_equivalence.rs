//! Mapped-ingest equivalence: the zero-copy mapped reader (single-queue and
//! multi-queue) must be observably identical to the Read-based
//! `PcapStream` — same records in the same order, same fault counters, same
//! terminal errors — on clean captures and on the corrupt corpus, under
//! every fault policy, in every pipeline shape.
//!
//! Plus a record-boundary fuzz drill: for pseudo-random captures of mixed
//! frame sizes, `PcapSlice::partition` must tile the record area exactly,
//! and the multi-queue merge must reproduce the sequential drain for every
//! queue count.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use synscan::analyze::{analyze_pcap, analyze_pcap_mapped, AnalyzeOptions};
use synscan::core::PipelineMode;
use synscan::experiment::Experiment;
use synscan::telescope::capture::{export_pcap, import_pcap_mapped, import_pcap_with_policy};
use synscan::wire::ingest::{IngestMode, IngestQueues, MappedCapture, MappedPcapStream, PcapSlice};
use synscan::wire::pcap::{PcapWriter, GLOBAL_HEADER_LEN, LINKTYPE_ETHERNET};
use synscan::wire::stream::{FaultCounters, FaultPolicy, StreamError, TryRecordStream};
use synscan::wire::ProbeRecord;
use synscan::GeneratorConfig;

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
    import_pcap_with_policy(bytes, policy)
}

fn import_mapped(bytes: &[u8], policy: FaultPolicy, queues: usize) -> ImportOutcome {
    let capture = Arc::new(MappedCapture::from_bytes(bytes.to_vec()));
    import_pcap_mapped(&capture, policy, queues)
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

#[test]
fn analysis_is_identical_for_read_and_mapped_ingest_in_every_shape() {
    let bytes = clean_capture();
    for pipeline in [
        PipelineMode::Sequential,
        PipelineMode::Sharded { workers: 3 },
    ] {
        for materialize in [false, true] {
            let base = AnalyzeOptions {
                monitored: Some(64),
                year: 2020,
                pipeline,
                materialize,
                ..AnalyzeOptions::default()
            };
            let reference =
                analyze_pcap(bytes.as_slice(), &base).expect("read-based analysis succeeds");
            for ingest in [
                IngestMode::Mapped { queues: 1 },
                IngestMode::Mapped { queues: 3 },
            ] {
                let options = AnalyzeOptions {
                    ingest,
                    ..base.clone()
                };
                let mapped =
                    analyze_pcap_mapped(bytes.clone(), &options).expect("mapped analysis succeeds");
                let label = format!("{pipeline:?} materialize={materialize} ingest={ingest}");
                assert_eq!(reference.analysis, mapped.analysis, "{label}: analysis");
                assert_eq!(reference.summary, mapped.summary, "{label}: summary");
                assert_eq!(reference.faults, mapped.faults, "{label}: faults");
                assert_eq!(
                    reference.non_tcp_frames, mapped.non_tcp_frames,
                    "{label}: non-TCP tally"
                );
            }
        }
    }
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
                let reference = analyze_pcap(bytes.as_slice(), &base);
                let mapped = analyze_pcap_mapped(
                    bytes.clone(),
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
// 3. Record-boundary partition fuzz
// ---------------------------------------------------------------------------

/// Deterministic xorshift so the drill needs no RNG dependency.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A capture of `n` records with pseudo-random frame sizes (including many
/// non-TCP frames, so decode outcomes vary across partition points).
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
fn partition_tiles_every_fuzzed_capture_exactly() {
    for seed in [3, 0x5eed, 0xdead_beef] {
        for n in [0, 1, 2, 7, 40] {
            let bytes = fuzz_capture(seed, n);
            let slice = PcapSlice::new(&bytes).expect("valid header");
            for parts in 1..=8 {
                let ranges = slice.partition(parts);
                assert_eq!(ranges.len(), parts, "seed={seed:#x} n={n} parts={parts}");
                assert_eq!(
                    ranges[0].0, GLOBAL_HEADER_LEN,
                    "first range starts at the record area"
                );
                assert_eq!(
                    ranges[parts - 1].1,
                    bytes.len(),
                    "last range ends at the capture end"
                );
                for pair in ranges.windows(2) {
                    assert_eq!(
                        pair[0].1, pair[1].0,
                        "seed={seed:#x} n={n} parts={parts}: ranges must tile"
                    );
                }
            }
        }
    }
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
                    // merge paths (and the queues=1 inline backend) are
                    // exercised whatever box runs the suite.
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
