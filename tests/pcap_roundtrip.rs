//! pcap interoperability: a generated year written to the classic tcpdump
//! format and re-imported must yield the identical analysis.

use synscan::core::analysis::YearCollector;
use synscan::experiment::Experiment;
use synscan::telescope::capture::export_pcap;
use synscan::telescope::CaptureSession;
use synscan::wire::stream::FaultPolicy;
use synscan::wire::IngestQueues;
use synscan::GeneratorConfig;

#[test]
fn analysis_survives_a_pcap_round_trip() {
    let experiment = Experiment::new(GeneratorConfig::tiny());
    let year_cfg = synscan::YearConfig::for_year(2020);
    let output = synscan::synthesis::generate::generate_year(
        &year_cfg,
        experiment.config(),
        experiment.registry(),
        experiment.dark(),
    );

    // Write the raw arrival stream to pcap (as the real telescope stores it).
    let pcap_bytes = export_pcap(&output.records, Vec::new()).expect("export");
    assert!(pcap_bytes.len() > 24 + output.records.len() * 16);

    // Re-import and compare record for record.
    let (replayed, _) = IngestQueues::over(std::io::Cursor::new(pcap_bytes), 1, FaultPolicy::Fail)
        .expect("pcap header")
        .spawn()
        .into_records()
        .expect("import");
    assert_eq!(replayed.len(), output.records.len());
    assert_eq!(replayed, output.records, "lossless frame round trip");

    // The full §3 pipeline gives identical results on both streams.
    let analyze = |records: &[synscan::wire::ProbeRecord]| {
        let mut session = CaptureSession::new(experiment.dark(), 2020);
        let mut collector = YearCollector::new(2020, experiment.campaign_config());
        for record in records {
            if session.offer(record) {
                collector.offer(record);
            }
        }
        collector.finish()
    };
    let direct = analyze(&output.records);
    let roundtripped = analyze(&replayed);
    assert_eq!(direct.total_packets, roundtripped.total_packets);
    assert_eq!(direct.campaigns, roundtripped.campaigns);
    assert_eq!(direct.port_packets, roundtripped.port_packets);
}

#[test]
fn a_noop_chaos_reader_is_a_byte_identical_passthrough() {
    use synscan::wire::chaos::{ChaosPlan, ChaosReader};
    let experiment = Experiment::new(GeneratorConfig::tiny());
    let output = synscan::synthesis::generate::generate_year(
        &synscan::YearConfig::for_year(2020),
        experiment.config(),
        experiment.registry(),
        experiment.dark(),
    );
    let pcap_bytes = export_pcap(&output.records, Vec::new()).expect("export");

    // Importing through a ChaosReader with an empty fault plan must be
    // indistinguishable from importing the raw bytes.
    let wrapped = ChaosReader::new(
        std::io::Cursor::new(pcap_bytes.clone()),
        ChaosPlan::noop(42),
    );
    let (replayed, _) = IngestQueues::over(wrapped, 1, FaultPolicy::Fail)
        .expect("pcap header")
        .spawn()
        .into_records()
        .expect("no-op chaos import");
    assert_eq!(replayed, output.records, "identity adapter");

    let mut probe = ChaosReader::new(std::io::Cursor::new(&pcap_bytes), ChaosPlan::noop(42));
    let mut copied = Vec::new();
    std::io::Read::read_to_end(&mut probe, &mut copied).expect("read through");
    assert_eq!(copied, pcap_bytes, "bytes untouched");
    assert!(!probe.log().any(), "nothing was injected");
}

#[test]
fn pcap_files_are_readable_by_struct_layout() {
    // The global header must be the classic libpcap layout so external
    // tools (tcpdump, wireshark) can open our files.
    let experiment = Experiment::new(GeneratorConfig::tiny());
    let run_records = synscan::synthesis::generate::generate_year(
        &synscan::YearConfig::for_year(2015),
        experiment.config(),
        experiment.registry(),
        experiment.dark(),
    )
    .records;
    let bytes = export_pcap(&run_records[..10.min(run_records.len())], Vec::new()).unwrap();
    assert_eq!(&bytes[0..4], &0xa1b2_c3d4u32.to_le_bytes(), "magic");
    assert_eq!(&bytes[4..6], &2u16.to_le_bytes(), "version major");
    assert_eq!(&bytes[6..8], &4u16.to_le_bytes(), "version minor");
    assert_eq!(&bytes[20..24], &1u32.to_le_bytes(), "LINKTYPE_ETHERNET");
    // Each record is 16 bytes of header + 58 bytes of frame.
    let expected = 24 + 10 * (16 + synscan::wire::ProbeRecord::frame_len());
    assert_eq!(bytes.len(), expected);
}
