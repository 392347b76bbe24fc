//! Cross-crate properties, replayed over a deterministic seed matrix.
//!
//! The per-crate unit suites test local invariants; these properties span
//! crate boundaries: wire round trips through pcap, crafted fingerprints
//! through the detection engine, permutation generators against set
//! semantics, campaign and capture accounting under arbitrary streams, and
//! the JSON writer against its parser. Each property draws its inputs from a
//! [`Rng`] seeded per matrix entry (see `support`), and every assertion
//! prints the seed, so a red run replays with
//! `PROPERTIES_SEED_BASE=<seed> cargo test -q --test properties`.

mod support;

use std::io::Cursor;
use std::sync::Arc;

use support::seeds;
use synscan::core::analysis::YearCollector;
use synscan::core::checkpoint::CheckpointHeader;
use synscan::core::fingerprint::rules::single_packet_verdict;
use synscan::core::{CampaignConfig, Checkpoint};
use synscan::scanners::blackrock::BlackRock;
use synscan::scanners::masscan::MasscanScanner;
use synscan::scanners::mirai::MiraiScanner;
use synscan::scanners::traits::craft_record;
use synscan::scanners::zmap::ZmapScanner;
use synscan::scanners::CyclicIter;
use synscan::stats::{mix64, Rng};
use synscan::telescope::capture::export_pcap;
use synscan::telescope::{AddressSet, CaptureSession, TelescopeConfig};
use synscan::wire::ingest::MappedCapture;
use synscan::wire::json::{self, Value};
use synscan::wire::stream::{FaultCounters, FaultPolicy, StreamError, TryRecordStream};
use synscan::wire::PcapError;
use synscan::wire::{
    ethernet, IngestQueues, Ipv4Address, Ipv4Packet, ProbeRecord, SynFrameBuilder,
};
use synscan::wire::{TcpFlags, TcpPacket};
use synscan::ToolKind;

/// Random cases drawn per seed (six seeds: about the 64 cases the properties
/// ran under before).
const CASES: usize = 10;

/// Run `case` on [`CASES`] independent generators per matrix seed.
fn for_each_case(case: impl Fn(u64, &mut Rng)) {
    for seed in seeds() {
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..CASES {
            case(seed, &mut rng);
        }
    }
}

/// A record with every field arbitrary, flags included; the timestamp fits
/// pcap's 32-bit seconds.
fn arb_record(rng: &mut Rng) -> ProbeRecord {
    ProbeRecord {
        ts_micros: rng.range(0..u64::from(u32::MAX) * 1_000_000),
        src_ip: Ipv4Address(rng.range(..)),
        dst_ip: Ipv4Address(rng.range(..)),
        src_port: rng.range(..),
        dst_port: rng.range(..),
        seq: rng.range(..),
        ip_id: rng.range(..),
        ttl: rng.range(..),
        flags: TcpFlags(rng.range(0..=0x3f)),
        window: rng.range(..),
    }
}

fn arb_syn_records(rng: &mut Rng, max: usize) -> Vec<ProbeRecord> {
    (0..rng.range(1..max))
        .map(|_| ProbeRecord {
            flags: TcpFlags::SYN,
            ..arb_record(rng)
        })
        .collect()
}

/// Deterministic record stream with few sources, so campaigns form: the seed
/// fans out through splitmix64 into every field, timestamps stay sorted.
fn seeded_records(seed: u64, n: usize) -> Vec<ProbeRecord> {
    (0..n as u64)
        .map(|i| {
            let r = mix64(seed ^ mix64(i));
            ProbeRecord {
                ts_micros: 1_577_836_800_000_000 + i * 250_000 + (r >> 56),
                src_ip: Ipv4Address((r >> 32) as u32 & 0xff),
                dst_ip: Ipv4Address(r as u32),
                src_port: 32_768 | (r >> 16) as u16,
                dst_port: [23u16, 80, 443, 2323][(r & 3) as usize],
                seq: (r >> 8) as u32,
                ip_id: (r >> 24) as u16,
                ttl: 32 + (r & 63) as u8,
                flags: TcpFlags::SYN,
                window: 1024,
            }
        })
        .collect()
}

fn campaign_cfg() -> CampaignConfig {
    CampaignConfig {
        min_distinct_dests: 5,
        min_rate_pps: 1.0,
        expiry_secs: 3600.0,
        monitored_addresses: 1 << 16,
    }
}

/// Arbitrary (sorted) records survive frame building, pcap export and
/// re-import — and so do campaign-shaped ones.
#[test]
fn pcap_round_trip_arbitrary_records() {
    let round_trip = |seed: u64, records: Vec<ProbeRecord>| {
        let bytes = export_pcap(&records, Vec::new())
            .unwrap_or_else(|e| panic!("seed={seed:#x}: export failed: {e}"));
        let (back, _) = IngestQueues::over(Cursor::new(bytes), 1, FaultPolicy::Fail)
            .unwrap_or_else(|e| panic!("seed={seed:#x}: pcap header rejected: {e}"))
            .spawn()
            .into_records()
            .unwrap_or_else(|e| panic!("seed={seed:#x}: import failed: {e}"));
        assert_eq!(back, records, "seed={seed:#x}: pcap round trip diverged");
    };
    for_each_case(|seed, rng| {
        let mut records = arb_syn_records(rng, 50);
        records.sort_by_key(|r| r.ts_micros);
        round_trip(seed, records);
    });
    for seed in seeds() {
        round_trip(seed, seeded_records(seed, 64));
    }
}

/// Truncating a capture anywhere yields a clean prefix of the records or a
/// typed truncation error — never garbage records or a panic — from the
/// product's reader, inline and on three decode threads. Every cut point is
/// tried, so no seed is involved.
#[test]
fn pcap_truncation_is_detected() {
    /// Bytes of one record: its header and a 54-byte probe frame.
    const RECORD: usize = 16 + 54;
    let records: Vec<ProbeRecord> = (0..5u32)
        .map(|i| ProbeRecord {
            ts_micros: u64::from(i) * 1000,
            src_ip: Ipv4Address(0xc633_6400 | i),
            dst_ip: Ipv4Address(0xc000_0207),
            src_port: 40_000,
            dst_port: 23,
            seq: i,
            ip_id: 54_321,
            ttl: 51,
            flags: TcpFlags::SYN,
            window: 1024,
        })
        .collect();
    let full = export_pcap(&records, Vec::new()).expect("export to Vec");
    assert_eq!(full.len(), 24 + 5 * RECORD);
    for cut in 24..full.len() {
        for queues in [1, 3] {
            let capture = Arc::new(MappedCapture::from_bytes(full[..cut].to_vec()));
            let mut stream = IngestQueues::exact(capture, queues, FaultPolicy::Fail)
                .expect("the global header is whole")
                .spawn();
            let mut seen = Vec::new();
            let end = loop {
                match stream.try_next_batch() {
                    Ok(Some(batch)) => seen.extend_from_slice(batch),
                    Ok(None) => break None,
                    Err(e) => break Some(e),
                }
            };
            let label = format!("cut={cut} queues={queues}");
            let whole = (cut - 24) / RECORD;
            assert_eq!(seen, records[..whole], "{label}: the whole records");
            match end {
                None => assert_eq!((cut - 24) % RECORD, 0, "{label}: a clean end"),
                Some(StreamError::Pcap(e)) => {
                    assert!(
                        matches!(
                            e,
                            PcapError::TruncatedRecordHeader { got: 1..=15 }
                                | PcapError::TruncatedRecordBody { .. }
                        ),
                        "{label}: {e:?}"
                    );
                    assert!(!e.recoverable(), "{label}");
                }
                Some(other) => panic!("{label}: {other:?}"),
            }
        }
    }
}

/// Any record (any flag combination, any timestamp) survives serialization
/// to a full frame and back, and the emitted frame carries valid checksums.
#[test]
fn frame_round_trip() {
    for_each_case(|seed, rng| {
        let mut record = arb_record(rng);
        record.ts_micros = rng.range(..);
        let frame = SynFrameBuilder::default().build(&record);
        let parsed = ProbeRecord::from_ethernet(record.ts_micros, &frame).unwrap();
        assert_eq!(parsed, record, "seed={seed:#x}");

        let eth = ethernet::EthernetFrame::new_checked(&frame[..]).unwrap();
        let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
        assert!(ip.verify_checksum(), "seed={seed:#x}");
        let tcp = TcpPacket::new_checked(ip.payload()).unwrap();
        assert!(
            tcp.verify_checksum(ip.src_addr(), ip.dst_addr()),
            "seed={seed:#x}"
        );
    });
}

/// Flipping any single bit of the IPv4 header breaks its checksum (the
/// checksum field itself aside). Every (byte, bit) is tried per record.
#[test]
fn ipv4_checksum_detects_any_corruption() {
    for_each_case(|seed, rng| {
        let record = arb_record(rng);
        let clean = SynFrameBuilder::default().build(&record);
        for byte in (0..20usize).filter(|b| *b != 10 && *b != 11) {
            for bit in 0..8 {
                let mut frame = clean.clone();
                frame[ethernet::HEADER_LEN + byte] ^= 1 << bit;
                // Err means the flip invalidated a length/version field —
                // equally detected.
                if let Ok(ip) = Ipv4Packet::new_checked(&frame[ethernet::HEADER_LEN..]) {
                    assert!(
                        !ip.verify_checksum(),
                        "seed={seed:#x}: byte {byte} bit {bit} went unnoticed"
                    );
                }
            }
        }
    });
}

fn assert_blackrock_bijective(seed: u64, range: u64) {
    let br = BlackRock::new(range, seed);
    let mut seen = vec![false; range as usize];
    for i in 0..range {
        let c = br.shuffle(i);
        assert!(c < range, "seed={seed:#x} range={range}: {c} out of range");
        assert!(
            !seen[c as usize],
            "seed={seed:#x} range={range}: collision at {c}"
        );
        seen[c as usize] = true;
        assert_eq!(
            br.unshuffle(c),
            i,
            "seed={seed:#x} range={range}: unshuffle({c}) != {i}"
        );
    }
}

/// BlackRock is a bijection for arbitrary domain sizes and keys.
#[test]
fn blackrock_bijective() {
    for seed in seeds() {
        for range in [1u64, 2, 255, 1024, 4099] {
            assert_blackrock_bijective(seed, range);
        }
    }
    for_each_case(|_, rng| assert_blackrock_bijective(rng.range(..), rng.range(1..5_000)));
}

fn assert_cyclic_permutes(seed: u64, domain: u64) {
    let values: Vec<u64> = CyclicIter::new(domain, seed).collect();
    assert_eq!(
        values.len() as u64,
        domain,
        "seed={seed:#x} domain={domain}: wrong walk length"
    );
    let set: std::collections::HashSet<u64> = values.iter().copied().collect();
    assert_eq!(
        set.len() as u64,
        domain,
        "seed={seed:#x} domain={domain}: walk repeated a value"
    );
}

/// The cyclic-group walk is a permutation for arbitrary domains.
#[test]
fn cyclic_iter_permutes() {
    for seed in seeds() {
        for domain in [1u64, 7, 64, 2047] {
            assert_cyclic_permutes(seed, domain);
        }
    }
    for_each_case(|_, rng| assert_cyclic_permutes(rng.range(..), rng.range(1..3_000)));
}

fn assert_shards_partition(seed: u64, domain: u64, shards: u32) {
    let mut all: Vec<u64> = Vec::new();
    for s in 0..shards {
        all.extend(ZmapScanner::shard_targets(domain, seed, s, shards));
    }
    all.sort_unstable();
    let expected: Vec<u64> = (0..domain).collect();
    assert_eq!(
        all, expected,
        "seed={seed:#x} domain={domain} shards={shards}: not a partition"
    );
}

/// ZMap shards partition the permutation for any shard count.
#[test]
fn shards_partition() {
    for seed in seeds() {
        for (domain, shards) in [(1u64, 1u32), (1000, 3), (1999, 8)] {
            assert_shards_partition(seed, domain, shards);
        }
    }
    for_each_case(|_, rng| {
        assert_shards_partition(rng.range(..), rng.range(1..2_000), rng.range(1..9));
    });
}

/// Every probe crafted by a single-packet-fingerprint tool is attributed to
/// that tool, regardless of destination, port and index.
#[test]
fn crafted_fingerprints_always_match() {
    for_each_case(|_, rng| {
        let seed: u64 = rng.range(..);
        let dst = Ipv4Address(rng.range(..));
        let port: u16 = rng.range(..);
        let idx: u64 = rng.range(..);
        let src = Ipv4Address(1);

        let zmap = craft_record(&ZmapScanner::new(seed), src, dst, port, idx, 0, 5);
        assert_eq!(
            single_packet_verdict(&zmap),
            Some(ToolKind::Zmap),
            "seed={seed:#x}: zmap probe misattributed"
        );
        let mirai = craft_record(&MiraiScanner::new(seed), src, dst, port, idx, 0, 5);
        assert_eq!(
            single_packet_verdict(&mirai),
            Some(ToolKind::Mirai),
            "seed={seed:#x}: mirai probe misattributed"
        );
        // Masscan's relation may coincidentally also be Mirai's (seq == dst)
        // with probability 2^-32; the verdict is then Mirai by specificity.
        let masscan = craft_record(&MasscanScanner::new(seed), src, dst, port, idx, 0, 5);
        let verdict = single_packet_verdict(&masscan);
        assert!(
            verdict == Some(ToolKind::Masscan) || verdict == Some(ToolKind::Mirai),
            "seed={seed:#x}: masscan probe misattributed as {verdict:?}"
        );
    });
}

/// campaigns + noise == offered, and the aggregates agree.
fn assert_packets_conserved(seed: u64, records: &[ProbeRecord]) {
    let mut collector = YearCollector::new(2020, campaign_cfg());
    for r in records {
        collector.offer(r);
    }
    let analysis = collector.finish();
    let offered = records.len() as u64;
    let campaign_packets: u64 = analysis.campaigns.iter().map(|c| c.packets).sum();
    assert_eq!(
        campaign_packets + analysis.noise.rejected_packets,
        offered,
        "seed={seed:#x}: campaigns + noise != offered"
    );
    assert_eq!(
        analysis.total_packets, offered,
        "seed={seed:#x}: total_packets drifted"
    );
    assert_eq!(
        analysis.port_packets.values().sum::<u64>(),
        offered,
        "seed={seed:#x}: port aggregation lost packets"
    );
    for campaign in &analysis.campaigns {
        assert!(
            campaign.first_ts_micros <= campaign.last_ts_micros,
            "seed={seed:#x}"
        );
        assert!(campaign.duration_secs() >= 0.0, "seed={seed:#x}");
    }
}

/// `collector` cut as a checkpoint's one shard blob and read back the way a
/// resume reads it.
fn cut_and_restore(seed: u64, collector: &YearCollector) -> YearCollector {
    let checkpoint = Checkpoint {
        header: CheckpointHeader {
            year: 2020,
            identity: seed,
            workers: 1,
            cursor: 0,
            seq: 1,
            origin: None,
        },
        gate_last: None,
        faults: FaultCounters::default(),
        admit_state: Vec::new(),
        shards: vec![Checkpoint::encode_collector(Some(collector))],
    };
    Checkpoint::from_bytes(&checkpoint.to_bytes())
        .and_then(|checkpoint| checkpoint.shard_collector(0))
        .unwrap_or_else(|e| panic!("seed={seed:#x}: cut does not restore: {e}"))
        .expect("a collector was cut")
}

/// Sealing a volatility period is invisible: a collector cut at every batch
/// boundary of a stream that crosses four period boundaries, restored and
/// continued, equals the uninterrupted one at every cut, and so do its
/// `finish` and its next cut.
#[test]
fn collector_cuts_resume_across_period_rollovers() {
    // The seeded streams span 100 s: five 20-second periods.
    let period_days = 20.0 / 86_400.0;
    for seed in seeds() {
        let records = seeded_records(seed, 400);
        let batch = Rng::seed_from_u64(seed).range(3..40);
        let mut uninterrupted = YearCollector::with_period(2020, campaign_cfg(), period_days);
        let mut resumed = uninterrupted.clone();
        for chunk in records.chunks(batch) {
            let now = chunk[chunk.len() - 1].ts_micros;
            for collector in [&mut uninterrupted, &mut resumed] {
                for record in chunk {
                    collector.offer(record);
                }
                collector.housekeeping(now);
            }
            resumed = cut_and_restore(seed, &resumed);
            assert_eq!(resumed, uninterrupted, "seed={seed:#x} batch={batch}");
        }
        assert!(
            Checkpoint::encode_collector(Some(&resumed))
                == Checkpoint::encode_collector(Some(&uninterrupted)),
            "seed={seed:#x}: the next cuts differ"
        );
        let (resumed, uninterrupted) = (resumed.finish(), uninterrupted.finish());
        let last_week = uninterrupted
            .week_blocks
            .keys()
            .last()
            .map(|&(week, _)| week);
        assert_eq!(last_week, Some(4), "seed={seed:#x}: periods crossed");
        assert_eq!(resumed, uninterrupted, "seed={seed:#x}");
    }
}

/// The campaign detector conserves packets for arbitrary sorted streams,
/// noise-dominated and campaign-forming alike.
#[test]
fn campaign_accounting_conserves_packets() {
    for_each_case(|seed, rng| {
        let mut records = arb_syn_records(rng, 300);
        records.sort_by_key(|r| r.ts_micros);
        assert_packets_conserved(seed, &records);
    });
    for seed in seeds() {
        assert_packets_conserved(seed, &seeded_records(seed, 400));
    }
}

/// The detector neither panics nor loses packets on UNSORTED streams (merged
/// pcaps deliver mild reordering in practice).
#[test]
fn campaign_accounting_survives_unsorted_input() {
    for_each_case(|seed, rng| assert_packets_conserved(seed, &arb_syn_records(rng, 200)));
    for seed in seeds() {
        let mut records = seeded_records(seed, 400);
        Rng::seed_from_u64(seed).shuffle(&mut records);
        assert_packets_conserved(seed, &records);
    }
}

/// The capture session accounts for every frame exactly once, for any flag
/// combination and destination.
#[test]
fn capture_accounting_is_exhaustive() {
    let set = AddressSet::build(&TelescopeConfig::paper_scaled(256));
    for_each_case(|seed, rng| {
        let mut session = CaptureSession::new(&set, 2020);
        for _ in 0..rng.range(1..100usize) {
            let mut record = arb_record(rng);
            // Half the frames land on monitored space, so every outcome is
            // reachable, not just `not_dark`.
            if rng.chance(0.5) {
                record.dst_ip = set.addresses()[rng.range(0..set.len())];
            }
            session.offer(&record);
        }
        let stats = session.stats();
        assert_eq!(
            stats.offered,
            stats.admitted
                + stats.not_dark
                + stats.ingress_blocked
                + stats.backscatter
                + stats.other_scan_techniques
                + stats.outage_lost,
            "seed={seed:#x}"
        );
    });
}

/// Telescope extrapolation is monotone: more distinct destinations never
/// estimate fewer targets.
#[test]
fn extrapolation_is_monotone() {
    for_each_case(|seed, rng| {
        let monitored: u64 = rng.range(100..100_000);
        let hits: u64 = rng.range(0..1_000);
        let model = synscan::stats::TelescopeModel::new(monitored);
        let a = model.extrapolate_targets(hits.min(monitored));
        let b = model.extrapolate_targets((hits + 1).min(monitored));
        assert!(b >= a, "seed={seed:#x} monitored={monitored} hits={hits}");
        assert!(
            model.coverage_fraction(hits.min(monitored)) <= 1.0,
            "seed={seed:#x} monitored={monitored} hits={hits}"
        );
    });
}

/// An arbitrary document in the writer's canonical form: `I64` only for
/// negatives, finite floats, unique keys.
fn arb_json(rng: &mut Rng, depth: usize) -> Value {
    let arb_string = |rng: &mut Rng| -> String {
        (0..rng.range(0..12usize))
            .map(|_| char::from_u32(rng.range(0..0x2_0000u32)).unwrap_or('\u{fffd}'))
            .collect()
    };
    match rng.range(0..if depth < 4 { 8u8 } else { 6 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.chance(0.5)),
        2 => Value::U64(rng.next_u64() >> rng.range(0..64u32)),
        3 => Value::I64(-1 - (rng.range(..=i64::MAX as u64) >> rng.range(0..63u32)) as i64),
        4 => Value::F64(match f64::from_bits(rng.next_u64()) {
            v if v.is_finite() => v,
            _ => rng.f64() - 0.5,
        }),
        5 => Value::Str(arb_string(rng)),
        6 => Value::Array(
            (0..rng.range(0..5usize))
                .map(|_| arb_json(rng, depth + 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.range(0..5usize))
                .map(|i| (format!("{i}{}", arb_string(rng)), arb_json(rng, depth + 1)))
                .collect(),
        ),
    }
}

/// `parse(to_string(v)) == v`, compact and pretty, bit-exact on floats.
#[test]
fn json_round_trips_through_both_layouts() {
    // `Value`'s `==` treats 0.0 and -0.0 alike; the rendered text does not.
    for_each_case(|seed, rng| {
        let value = arb_json(rng, 0);
        for text in [value.to_string(), value.to_string_pretty()] {
            let back =
                json::parse(&text).unwrap_or_else(|e| panic!("seed={seed:#x}: {e} in {text}"));
            assert_eq!(back, value, "seed={seed:#x}");
            assert_eq!(back.to_string(), value.to_string(), "seed={seed:#x}");
        }
    });
}
