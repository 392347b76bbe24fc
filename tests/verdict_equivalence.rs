//! The product keeps a source's pairwise fingerprint window inside its open
//! scan, so the window is dropped when the scan closes. Verdicts must not
//! notice: over a seed matrix, every verdict the admit path returns equals
//! that of `InternedFingerprint`, the reference that keeps one window per
//! source for the whole stream and resets it after a silence longer than
//! the campaign expiry.
//!
//! The streams put gaps of exactly the expiry and of one microsecond more
//! between a source's probes. Housekeeping runs after every record, every
//! 257 records, or never. The verdicts then reach the analysis through
//! `tool_port_packets`, and the sharded and two-slice runs (plain, and
//! resumed from mid-stream checkpoints) must equal the sequential one.

mod support;

use std::collections::BTreeMap;

use synscan::core::analysis::YearAnalysis;
use synscan::core::campaign::{CampaignConfig, Pipeline};
use synscan::core::pipeline::{try_collect_year_stream, PipelineMode, SizeHints};
use synscan::core::{
    merge_slices, run_slice, Checkpoint, FilterAdmit, InternedFingerprint, PacketVerdict,
    SliceOutcome, SliceSpec, SliceTask, SourceTable, ToolKind,
};
use synscan::scanners::custom::CustomScanner;
use synscan::scanners::masscan::MasscanScanner;
use synscan::scanners::mirai::MiraiScanner;
use synscan::scanners::nmap::NmapScanner;
use synscan::scanners::traits::{craft_record, ProbeCrafter};
use synscan::scanners::unicorn::UnicornScanner;
use synscan::scanners::zmap::ZmapScanner;
use synscan::stats::mix64;
use synscan::wire::stream::{FaultPolicy, SliceStream};
use synscan::wire::{Ipv4Address, ProbeRecord};

const YEAR: u16 = 2020;
const PERIOD_DAYS: f64 = 0.5;
const SOURCES: u64 = 24;

fn config() -> CampaignConfig {
    CampaignConfig {
        min_distinct_dests: 6,
        min_rate_pps: 100.0,
        expiry_secs: 600.0,
        monitored_addresses: 1 << 16,
    }
}

fn expiry_micros() -> u64 {
    (config().expiry_secs * 1e6) as u64
}

/// The crafter of source `k`: mostly the pairwise tools, whose verdicts
/// depend on the window, beside the single-packet ones and custom traffic.
/// Every third NMap or Unicorn source shares the session of the one before,
/// so a window leaked from one source to another would pair.
fn crafter(seed: u64, k: u64) -> Box<dyn ProbeCrafter> {
    let session = seed ^ (k / 3);
    match k % 8 {
        0 | 3 => Box::new(NmapScanner::new(session)),
        1 | 4 => Box::new(UnicornScanner::new(session)),
        2 => Box::new(CustomScanner::new(seed ^ k)),
        5 => Box::new(ZmapScanner::new(seed ^ k)),
        6 => Box::new(MasscanScanner::new(seed ^ k)),
        _ => Box::new(MiraiScanner::new(seed ^ k)),
    }
}

/// The gap before a source's next probe: exactly the expiry, one past it,
/// one short of it, several expiries, or a burst spacing.
fn gap(draw: u64) -> u64 {
    let expiry = expiry_micros();
    match draw % 10 {
        0 => expiry,
        1 => expiry + 1,
        2 => expiry - 1,
        3 => 3 * expiry,
        _ => (draw >> 8) % 2_000_000,
    }
}

/// `SOURCES` sources of 20–59 probes each, merged into timestamp order.
fn stream(seed: u64) -> Vec<ProbeRecord> {
    let mut records = Vec::new();
    for k in 0..SOURCES {
        let crafter = crafter(seed, k);
        let src = Ipv4Address(0x0a00_0000 | (k as u32) << 8 | 7);
        let mut draw = mix64(seed ^ k.wrapping_mul(0x9e37_79b9));
        let mut ts = draw % expiry_micros();
        for i in 0..20 + draw % 40 {
            draw = mix64(draw);
            let dst = Ipv4Address(0x0b00_0000 | (draw >> 40) as u32 & 0xfff);
            let port = [22u16, 23, 80, 443, 8080][(draw >> 20) as usize % 5];
            records.push(craft_record(&*crafter, src, dst, port, i, ts, 5));
            ts += gap(draw);
        }
    }
    records.sort_by_key(|r| r.ts_micros);
    records
}

/// The reference verdict of every record, from per-source windows.
fn reference_verdicts(records: &[ProbeRecord]) -> Vec<PacketVerdict> {
    let mut table = SourceTable::new();
    let mut reference = InternedFingerprint::with_expiry(expiry_micros());
    records
        .iter()
        .map(|record| reference.classify(table.intern(record.src_ip.0), record))
        .collect()
}

/// Packets per (verdict tool, port): how the verdicts reach the analysis.
fn tally(
    records: &[ProbeRecord],
    verdicts: &[PacketVerdict],
) -> Vec<((Option<ToolKind>, u16), u64)> {
    let mut tally = BTreeMap::new();
    for (record, verdict) in records.iter().zip(verdicts) {
        *tally.entry((verdict.tool(), record.dst_port)).or_default() += 1;
    }
    tally.into_iter().collect()
}

fn sequential(records: &[ProbeRecord], mode: PipelineMode) -> YearAnalysis {
    try_collect_year_stream(
        YEAR,
        config(),
        PERIOD_DAYS,
        mode,
        SizeHints::none(),
        FaultPolicy::Fail,
        &mut SliceStream::with_batch_size(records, 257),
        |_| true,
    )
    .expect("an ordered stream runs clean")
    .analysis
}

fn slice(
    records: &[ProbeRecord],
    part: u32,
    resume: Option<&Checkpoint>,
    cuts: &mut Vec<Checkpoint>,
) -> SliceOutcome {
    let task = SliceTask {
        slice: SliceSpec {
            year: YEAR,
            part,
            parts: 2,
        },
        config: config(),
        period_days: PERIOD_DAYS,
        hints: SizeHints::none(),
        policy: FaultPolicy::Fail,
        seed: 7,
        every: 128,
    };
    run_slice(
        &task,
        resume,
        &mut SliceStream::with_batch_size(records, 64),
        &mut FilterAdmit(|_: &ProbeRecord| true),
        &mut |ck| {
            cuts.push(ck.clone());
            Ok(())
        },
    )
    .expect("slice runs clean")
}

#[test]
fn verdicts_from_scan_windows_equal_per_source_windows() {
    for seed in support::seeds() {
        let records = stream(seed);
        let reference = reference_verdicts(&records);
        let paired = reference
            .iter()
            .filter(|v| matches!(v, PacketVerdict::Paired(_)))
            .count();
        assert!(paired > 50, "seed {seed:#x}: only {paired} paired verdicts");

        for every in [Some(1), Some(257), None] {
            let mut pipeline = Pipeline::new(config());
            for (i, record) in records.iter().enumerate() {
                // A sweep at the record's own timestamp, just before it, is
                // the latest the detector's order promise allows: a source
                // silent for exactly the expiry must keep its scan.
                if every.is_some_and(|n| i % n == 0) {
                    pipeline.housekeeping(record.ts_micros);
                }
                let (verdict, _) = pipeline.process_interned(record);
                assert_eq!(
                    verdict, reference[i],
                    "seed {seed:#x}, housekeeping every {every:?}: record {i} {record:?}"
                );
            }
        }

        let expected = sequential(&records, PipelineMode::Sequential);
        let tools: Vec<_> = expected
            .tool_port_packets
            .iter()
            .map(|(&key, &packets)| (key, packets))
            .collect();
        assert_eq!(tools, tally(&records, &reference), "seed {seed:#x}");
        for workers in [1, 2, 3] {
            assert_eq!(
                sequential(&records, PipelineMode::Sharded { workers }),
                expected,
                "seed {seed:#x}: sharded:{workers}"
            );
        }

        let mut partials = Vec::new();
        let mut resumed = Vec::new();
        for part in 0..2 {
            let mut cuts = Vec::new();
            partials.extend(slice(&records, part, None, &mut cuts).analysis);
            assert!(cuts.len() > 2, "seed {seed:#x}: {} cuts", cuts.len());
            let mid =
                Checkpoint::from_bytes(&cuts[cuts.len() / 2].to_bytes()).expect("a cut decodes");
            resumed.extend(slice(&records, part, Some(&mid), &mut Vec::new()).analysis);
        }
        for (what, partials) in [("2 slices", partials), ("2 resumed slices", resumed)] {
            assert_eq!(
                merge_slices(YEAR, config(), PERIOD_DAYS, partials),
                expected,
                "seed {seed:#x}: {what}"
            );
        }
    }
}
