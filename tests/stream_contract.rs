//! The record-stream contract, checked over every `TryRecordStream` source
//! the workspace has: the in-memory slice, the synthetic year, the chaos
//! injector (clean, cut mid-stream, and over an inner stream that fails),
//! the pcap stream decoded inline and on three queues, and the mapped
//! stream over a whole capture image.
//!
//! Every source must lend non-empty batches in timestamp order, and its end
//! must be terminal: after `Ok(None)` or an `Err`, every later pull returns
//! `Ok(None)`.

use std::io::Cursor;
use std::sync::Arc;

use synscan::experiment::Experiment;
use synscan::synthesis::generate::plan_year;
use synscan::telescope::capture::export_pcap;
use synscan::wire::chaos::{ChaosPlan, ChaosStream, Fault};
use synscan::wire::ingest::{IngestQueues, MappedCapture, MappedPcapStream, PcapStream};
use synscan::wire::stream::{FaultPolicy, SliceStream, StreamError, TryRecordStream};
use synscan::wire::{Ipv4Address, PcapError, ProbeRecord, TcpFlags};
use synscan::{GeneratorConfig, YearConfig};

/// Enough canonical records that the capture spans several 1 MiB read
/// windows, so three decode queues all get chunks.
const RECORDS: u64 = 40_000;

fn records() -> Vec<ProbeRecord> {
    (0..RECORDS)
        .map(|i| ProbeRecord {
            ts_micros: 1_000_000 + i * 3,
            src_ip: Ipv4Address::new(198, 51, 100, (i % 200) as u8 + 1),
            dst_ip: Ipv4Address::new(10, 0, (i / 256 % 256) as u8, (i % 256) as u8),
            src_port: 40_000 + (i % 1_000) as u16,
            dst_port: 443,
            seq: i as u32,
            ip_id: 54_321,
            ttl: 64,
            flags: TcpFlags::SYN,
            window: 1024,
        })
        .collect()
}

/// Pull `stream` to its end, checking the contract on the way. Returns the
/// records it yielded and the error that ended it, if one did.
fn drain_checked(
    name: &str,
    stream: &mut dyn TryRecordStream,
) -> (Vec<ProbeRecord>, Option<StreamError>) {
    let mut records: Vec<ProbeRecord> = Vec::new();
    let end = loop {
        match stream.try_next_batch() {
            Ok(Some(batch)) => {
                assert!(!batch.is_empty(), "{name}: an empty batch");
                records.extend_from_slice(batch);
            }
            Ok(None) => break None,
            Err(e) => break Some(e),
        }
    };
    for pull in 1..=3 {
        assert_eq!(
            stream.try_next_batch(),
            Ok(None),
            "{name}: pull {pull} after the end"
        );
    }
    assert!(
        records.windows(2).all(|w| w[0].ts_micros <= w[1].ts_micros),
        "{name}: timestamps regress"
    );
    (records, end)
}

/// The capture of `records`, whole and with its last record torn.
fn captures(records: &[ProbeRecord]) -> (Vec<u8>, Vec<u8>) {
    let clean = export_pcap(records, Vec::new()).expect("export capture");
    let mut torn = clean.clone();
    torn.truncate(torn.len() - 7);
    (clean, torn)
}

fn is_torn_record(end: Option<StreamError>) -> bool {
    matches!(
        end,
        Some(StreamError::Pcap(PcapError::TruncatedRecordBody { .. }))
    )
}

#[test]
fn slice_and_year_streams_keep_the_contract() {
    let records = records();
    let mut slice = SliceStream::with_batch_size(&records, 7);
    assert_eq!(drain_checked("slice", &mut slice), (records.clone(), None));

    let experiment = Experiment::new(GeneratorConfig::tiny());
    let plan = plan_year(
        &YearConfig::for_year(2020),
        experiment.config(),
        experiment.registry(),
        experiment.dark(),
    );
    let mut year = plan.stream(experiment.dark());
    let (yielded, end) = drain_checked("year", &mut year);
    assert_eq!(end, None);
    assert_eq!(yielded, plan.materialize(experiment.dark()));
}

#[test]
fn chaos_streams_keep_the_contract() {
    let records = records();
    let mut clean = ChaosStream::new(SliceStream::new(&records), ChaosPlan::noop(7));
    assert_eq!(
        drain_checked("chaos clean", &mut clean),
        (records.clone(), None)
    );

    let cut = ChaosPlan {
        seed: 7,
        faults: vec![Fault::MidStreamEof {
            after_records: 20_000,
        }],
    };
    let mut cut = ChaosStream::new(SliceStream::new(&records), cut);
    assert_eq!(
        drain_checked("chaos cut", &mut cut),
        (
            records[..20_000].to_vec(),
            Some(StreamError::Truncated {
                records_seen: 20_000
            })
        )
    );

    // The inner stream's own error ends the chaos stream the same way.
    let (_, torn) = captures(&records);
    let inner = PcapStream::new(Cursor::new(torn)).expect("pcap header");
    let mut failing = ChaosStream::new(inner, ChaosPlan::noop(7));
    let (yielded, end) = drain_checked("chaos over a failing stream", &mut failing);
    assert_eq!(yielded, records[..records.len() - 1]);
    assert!(is_torn_record(end), "{end:?}");
}

#[test]
fn pcap_streams_keep_the_contract() {
    let records = records();
    let (clean, torn) = captures(&records);
    for (bytes, whole) in [(clean, true), (torn, false)] {
        let expect = |name: &str, (yielded, end): (Vec<ProbeRecord>, Option<StreamError>)| {
            if whole {
                assert_eq!(end, None, "{name}");
                assert_eq!(yielded, records, "{name}");
            } else {
                assert!(is_torn_record(end), "{name}: {end:?}");
                assert_eq!(yielded, records[..records.len() - 1], "{name}");
            }
        };

        let mut inline = PcapStream::new(Cursor::new(bytes.clone())).expect("pcap header");
        expect("pcap inline", drain_checked("pcap inline", &mut inline));

        let capture = Arc::new(MappedCapture::from_bytes(bytes.clone()));
        let mut queued = IngestQueues::exact(capture, 3, FaultPolicy::Fail)
            .expect("pcap header")
            .spawn();
        expect(
            "pcap on 3 queues",
            drain_checked("pcap on 3 queues", &mut queued),
        );

        let mut mapped = MappedPcapStream::with_policy(&bytes, FaultPolicy::Fail).expect("header");
        let (yielded, end) = drain_checked("mapped", &mut mapped);
        if whole {
            expect("mapped", (yielded, end));
        } else {
            // The mapped stream drops the batch its terminal error
            // interrupts: whole batches ahead of the tear, then the error.
            assert!(is_torn_record(end), "mapped: {end:?}");
            assert_eq!(yielded, records[..yielded.len()]);
        }
    }
}
