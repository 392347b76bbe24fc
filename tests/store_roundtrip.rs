//! The versioned analysis store end to end: slices written from every
//! pipeline and ingest mode are byte-identical; damaged files come back as
//! typed errors, never panics; and eight concurrent readers answering
//! queries *during* live store reloads stay byte-identical to the batch
//! `report` output.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use synscan::analyze::{analyze, AnalyzeOptions, CaptureInput};
use synscan::core::report::DecadeReport;
use synscan::core::store::query::{answer_line, body_of, TOP_N};
use synscan::core::store::{AnalysisStore, ImageCell, StoreError, StoreImage};
use synscan::core::EnvelopeError;
use synscan::experiment::Experiment;
use synscan::wire::json::ToJson;
use synscan::wire::Ipv4Address;
use synscan::{GeneratorConfig, PipelineMode, RunOptions, YearConfig};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("synscan-store-rt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Persist `analysis` into a throwaway store and return the slice bytes.
fn slice_bytes(tag: &str, analysis: &synscan::core::analysis::YearAnalysis) -> Vec<u8> {
    let dir = tmp_dir(tag);
    let store = AnalysisStore::open(&dir).expect("open store");
    let path = store.write_year(analysis).expect("write slice");
    let bytes = std::fs::read(&path).expect("read slice back");
    let loaded = StoreImage::load(&store).expect("load slice");
    assert_eq!(
        loaded.years,
        std::slice::from_ref(analysis),
        "store load round-trips the analysis"
    );
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

#[test]
fn slices_are_byte_identical_across_pipeline_modes() {
    let experiment = Experiment::new(GeneratorConfig::tiny());
    let cfg = YearConfig::for_year(2020);
    let modes = [
        ("seq", PipelineMode::Sequential),
        ("sh2", PipelineMode::Sharded { workers: 2 }),
        ("sh4", PipelineMode::Sharded { workers: 4 }),
    ];
    let mut all = Vec::new();
    for (tag, mode) in modes {
        let status = experiment.year(&cfg, mode, &RunOptions::default());
        let run = status.expect("clean year").completed().expect("plain run");
        all.push(slice_bytes(tag, &run.analysis));
    }
    assert!(
        all.windows(2).all(|w| w[0] == w[1]),
        "sequential and sharded runs must persist identical slice bytes"
    );
}

#[test]
fn slices_are_byte_identical_across_ingest_modes() {
    // Export a small capture, then analyze it on one decode queue and on
    // two: the persisted slices must match.
    let experiment = Experiment::new(GeneratorConfig::tiny());
    let output = synscan::synthesis::generate::generate_year(
        &YearConfig::for_year(2020),
        experiment.config(),
        experiment.registry(),
        experiment.dark(),
    );
    let dir = tmp_dir("pcap");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let pcap = dir.join("capture.pcap");
    let file = std::fs::File::create(&pcap).expect("create pcap");
    synscan::telescope::capture::export_pcap(&output.records, file).expect("export pcap");

    let options = AnalyzeOptions {
        year: 2020,
        ..AnalyzeOptions::default()
    };
    let analyzed = |input, options: &AnalyzeOptions| {
        let status = analyze(input, options, &RunOptions::default()).expect("clean capture");
        status.completed().expect("plain run")
    };
    let capture = synscan::wire::ingest::MappedCapture::load(&pcap).expect("open pcap");
    let streamed = analyzed(CaptureInput::Capture(&capture), &options);
    let mapped = analyzed(
        CaptureInput::Capture(&capture),
        &AnalyzeOptions {
            ingest: synscan::wire::ingest::IngestMode { queues: 2 },
            ..options.clone()
        },
    );
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(
        slice_bytes("ingest-read", &streamed.analysis),
        slice_bytes("ingest-mmap", &mapped.analysis),
        "streamed and mapped ingest must persist identical slice bytes"
    );
}

#[test]
fn damaged_slices_are_typed_errors_never_panics() {
    let experiment = Experiment::new(GeneratorConfig::tiny());
    let run = experiment.run_year(2020);
    let dir = tmp_dir("damage");
    let store = AnalysisStore::open(&dir).expect("open store");
    let path = store.write_year(&run.analysis).expect("write slice");
    let clean = std::fs::read(&path).expect("read slice");

    let reload = |bytes: &[u8]| -> StoreError {
        std::fs::write(&path, bytes).expect("rewrite slice");
        StoreImage::load(&store).expect_err("damaged slice must not load")
    };

    // A torn write and bit rot on disk surface through the store as the
    // envelope's typed errors (every other cut and flip: `core::envelope`),
    // each naming the file, so an operator knows which year to regenerate.
    let named = |error| StoreError::File {
        path: path.clone(),
        error: Box::new(StoreError::Envelope(error)),
    };
    let cut = clean.len() - clean.len() / 3;
    let torn = reload(&clean[..cut]);
    assert_eq!(torn, named(EnvelopeError::Truncated));
    let mut bad = clean.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0xFF;
    let rotten = reload(&bad);
    assert_eq!(rotten, named(EnvelopeError::ChecksumMismatch));
    for err in [torn, rotten] {
        assert!(err.to_string().contains(&*path.to_string_lossy()), "{err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Build a two-year store and the query set the drill fires at it.
fn drill_store(dir: &Path) -> (AnalysisStore, Vec<String>) {
    let experiment = Experiment::new(GeneratorConfig::tiny());
    let store = AnalysisStore::open(dir).expect("open store");
    let mut probe_ip = None;
    let mut probe_port = None;
    for year in [2019u16, 2020] {
        let run = experiment.run_year(year);
        if probe_ip.is_none() {
            probe_ip = run.analysis.source_packets.keys().min().copied();
            probe_port = run.analysis.port_packets.keys().min().copied();
        }
        store.write_year(&run.analysis).expect("write slice");
    }
    let ip = Ipv4Address(probe_ip.expect("tiny run has sources"));
    let port = probe_port.expect("tiny run has ports");
    let queries = vec![
        "{\"op\":\"table1\"}".to_string(),
        "{\"op\":\"summary\",\"year\":2020}".to_string(),
        format!("{{\"op\":\"source\",\"ip\":\"{ip}\"}}"),
        format!("{{\"op\":\"port\",\"port\":{port}}}"),
        format!("{{\"op\":\"campaigns\",\"ip\":\"{ip}\"}}"),
    ];
    (store, queries)
}

#[test]
fn eight_readers_stay_byte_identical_during_live_reloads() {
    let dir = tmp_dir("drill");
    let (store, queries) = drill_store(&dir);

    // The batch reference: every expected line comes from a plain
    // store-load, exactly how the offline client and `repro` render.
    let reference = StoreImage::load(&store).expect("load image");
    let expected: Vec<String> = queries.iter().map(|q| answer_line(&reference, q)).collect();
    // The table1 body IS the batch `report` artifact, byte for byte.
    assert_eq!(
        body_of(&expected[0]).expect("table1 body"),
        DecadeReport::from_years(&reference.years, TOP_N)
            .to_json()
            .to_string_pretty()
    );

    let cell = ImageCell::new(StoreImage::load(&store).expect("load image"));
    let stop = Arc::new(AtomicBool::new(false));

    // One writer thread reloading the image from disk, hot.
    let writer = {
        let cell = Arc::clone(&cell);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut installs = 0u64;
            while !stop.load(Ordering::Acquire) {
                let image = StoreImage::load(&store).expect("reload image");
                installs = cell.install(image);
            }
            installs
        })
    };

    // Eight reader threads hammering the query set through cached readers.
    let readers: Vec<_> = (0..8)
        .map(|_| {
            let cell = Arc::clone(&cell);
            let queries = queries.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut reader = cell.reader();
                for round in 0..100 {
                    for (query, want) in queries.iter().zip(&expected) {
                        let got = answer_line(reader.image(), query);
                        assert_eq!(
                            &got, want,
                            "round {round}: answer diverged during live reload"
                        );
                    }
                }
            })
        })
        .collect();

    for handle in readers {
        handle.join().expect("reader thread");
    }
    stop.store(true, Ordering::Release);
    let installs = writer.join().expect("writer thread");
    assert!(installs >= 1, "the drill must see at least one live reload");
    let _ = std::fs::remove_dir_all(&dir);
}
