//! Randomized equivalence: the compact hot path (interned sources, fx-hashed
//! packed-key maps, sorted-vec/bitmap sets, enum-keyed noise) against a naive
//! std-collection reference over fuzzed record streams.
//!
//! The reference implementation below is deliberately the *old* shape of the
//! collector: the address-keyed [`FingerprintEngine`], an IP-keyed open-scan
//! map, and per-aggregate `HashMap`/`HashSet`s — one lookup per aggregate per
//! record. Both sides consume ~50k pseudo-random records (tool marks, shared
//! destinations, port sets wide enough to spill every hybrid-set
//! representation, idle gaps spanning the campaign expiry) and must produce
//! an identical [`YearAnalysis`], sequentially and through the sharded merge.

use std::collections::{BTreeMap, HashMap, HashSet};

use synscan_core::analysis::{WeekCell, YearAnalysis, YearCollector};
use synscan_core::campaign::{Campaign, CampaignConfig, NoiseStats, RejectReason};
use synscan_core::fingerprint::FingerprintEngine;
use synscan_core::pipeline::{try_collect_year_stream, PipelineMode, SizeHints};
use synscan_core::ToolKind;
use synscan_stats::mix64;
use synscan_wire::stream::{FaultPolicy, InfallibleStream, SliceStream};
use synscan_wire::{Ipv4Address, ProbeRecord, TcpFlags};

const YEAR: u16 = 2020;
const PERIOD_DAYS: f64 = 0.5;
const DAY_MICROS: u64 = 86_400 * 1_000_000;
const RECORDS: usize = 50_000;
const SOURCE_POOL: usize = 256;

fn config() -> CampaignConfig {
    CampaignConfig {
        min_distinct_dests: 8,
        min_rate_pps: 100.0,
        expiry_secs: 600.0,
        monitored_addresses: 1 << 16,
    }
}

/// ~50k records from a 256-source pool: nondecreasing timestamps with
/// occasional six-hour gaps (splits campaigns, advances the day index), tool
/// marks on a subset (ZMap constant, Mirai seq=dst, Masscan relation), narrow
/// and wide port behaviors (spilling both `IdSet` and `PortSet` to bitmaps),
/// and destination reuse (exercising distinct-dest dedup).
fn fuzz_records(seed: u64) -> Vec<ProbeRecord> {
    // Source pool spread over a handful of /16s so week cells collide;
    // low bits stride by a constant so all 256 addresses are distinct.
    let sources: Vec<u32> = (0..SOURCE_POOL as u32)
        .map(|i| ((i % 8) << 16) | 0x0a00_0000 | (i * 251))
        .collect();

    let mut records = Vec::with_capacity(RECORDS);
    let mut ts = 1_000u64;
    for n in 0..RECORDS as u64 {
        let r = mix64(seed.wrapping_add(n.wrapping_mul(0x51_7c_c1_b7)));
        ts += r % 50_000;
        if n > 0 && n % 8_192 == 0 {
            ts += 6 * 3600 * 1_000_000; // past expiry, into the next day-ish
        }
        let src_idx = (r >> 8) as usize % SOURCE_POOL;
        let src = sources[src_idx];
        // A quarter of the pool scans few destinations (noise candidates);
        // the rest range widely (campaign candidates).
        let dst = if src_idx.is_multiple_of(4) {
            0x0100_0000 + (r >> 16) as u32 % 6
        } else {
            0x0100_0000 + (r >> 16) as u32 % 4_096
        };
        // Half the pool sticks to popular ports (many sources per port:
        // IdSet spills); the other half sprays ports (PortSet spills).
        let dst_port = if src_idx.is_multiple_of(2) {
            [22u16, 23, 80, 443, 7547, 8080][(r >> 24) as usize % 6]
        } else {
            1024 + ((r >> 24) % 5_000) as u16
        };
        let mut seq = (r >> 13) as u32;
        let mut ip_id = ((r >> 40) % 54_000) as u16;
        match n % 16 {
            0 | 1 => ip_id = 54_321, // ZMap mark
            2 => seq = dst,          // Mirai quirk
            3 => ip_id = ((dst ^ u32::from(dst_port) ^ seq) & 0xffff) as u16, // Masscan
            _ => {}
        }
        records.push(ProbeRecord {
            ts_micros: ts,
            src_ip: Ipv4Address(src),
            dst_ip: Ipv4Address(dst),
            src_port: 30_000 + (r % 20_000) as u16,
            dst_port,
            seq,
            ip_id,
            ttl: 32 + (r % 200) as u8,
            flags: TcpFlags::SYN,
            window: (r >> 48) as u16,
        });
    }
    records
}

/// The pre-compaction open-scan state, IP-keyed.
#[derive(Default)]
struct NaiveScan {
    first_ts: u64,
    last_ts: u64,
    packets: u64,
    dests: HashSet<u32>,
    port_packets: BTreeMap<u16, u64>,
    tool_votes: BTreeMap<ToolKind, u64>,
}

/// The pre-compaction collector: every aggregate its own std map, the
/// fingerprint engine keyed by address, reject reasons counted per close.
struct NaiveCollector {
    config: CampaignConfig,
    expiry_micros: u64,
    engine: FingerprintEngine,
    open: HashMap<u32, NaiveScan>,
    campaigns: Vec<Campaign>,
    noise: NoiseStats,
    t0: Option<u64>,
    end: u64,
    total: u64,
    period_micros: u64,
    sources: HashSet<u32>,
    port_packets: BTreeMap<u16, u64>,
    port_source_sets: HashMap<u16, HashSet<u32>>,
    source_ports: HashMap<u32, HashSet<u16>>,
    source_packets: HashMap<u32, u64>,
    day_port_packets: HashMap<(u32, u16), u64>,
    tool_port_packets: HashMap<(Option<ToolKind>, u16), u64>,
    week_cells: HashMap<(u32, u16), (u64, HashSet<u32>)>,
}

impl NaiveCollector {
    fn new(config: CampaignConfig, period_days: f64) -> Self {
        let expiry_micros = (config.expiry_secs * 1e6) as u64;
        Self {
            config,
            expiry_micros,
            engine: FingerprintEngine::with_expiry(expiry_micros),
            open: HashMap::new(),
            campaigns: Vec::new(),
            noise: NoiseStats::default(),
            t0: None,
            end: 0,
            total: 0,
            period_micros: (period_days * DAY_MICROS as f64) as u64,
            sources: HashSet::new(),
            port_packets: BTreeMap::new(),
            port_source_sets: HashMap::new(),
            source_ports: HashMap::new(),
            source_packets: HashMap::new(),
            day_port_packets: HashMap::new(),
            tool_port_packets: HashMap::new(),
            week_cells: HashMap::new(),
        }
    }

    fn close(&mut self, src: u32) {
        let scan = self.open.remove(&src).expect("open scan");
        let reject = if (scan.dests.len() as u64) < self.config.min_distinct_dests {
            Some(RejectReason::TooFewDestinations)
        } else {
            let duration = (scan.last_ts - scan.first_ts) as f64 / 1e6;
            let slow = duration > 0.0 && {
                let est = self
                    .config
                    .model()
                    .extrapolate_rate(scan.packets as f64 / duration);
                est < self.config.min_rate_pps
            };
            slow.then_some(RejectReason::TooSlow)
        };
        match reject {
            None => self.campaigns.push(Campaign {
                src_ip: Ipv4Address(src),
                first_ts_micros: scan.first_ts,
                last_ts_micros: scan.last_ts,
                packets: scan.packets,
                distinct_dests: scan.dests.len() as u64,
                port_packets: scan.port_packets,
                tool_votes: scan.tool_votes,
            }),
            Some(reason) => {
                *self.noise.rejected_sequences.entry(reason).or_default() += 1;
                self.noise.rejected_packets += scan.packets;
            }
        }
    }

    fn offer(&mut self, record: &ProbeRecord) {
        let verdict = self.engine.classify(record);
        let src = record.src_ip.0;

        // Campaign detection, IP-keyed.
        if let Some(scan) = self.open.get(&src) {
            if record.ts_micros.saturating_sub(scan.last_ts) > self.expiry_micros {
                self.close(src);
            }
        }
        let scan = self.open.entry(src).or_insert_with(|| NaiveScan {
            first_ts: record.ts_micros,
            last_ts: record.ts_micros,
            ..NaiveScan::default()
        });
        scan.first_ts = scan.first_ts.min(record.ts_micros);
        scan.last_ts = scan.last_ts.max(record.ts_micros);
        scan.packets += 1;
        scan.dests.insert(record.dst_ip.0);
        *scan.port_packets.entry(record.dst_port).or_default() += 1;
        if let Some(tool) = verdict.tool() {
            *scan.tool_votes.entry(tool).or_default() += 1;
        }

        // Aggregation, one std container per aggregate.
        let t0 = *self.t0.get_or_insert(record.ts_micros);
        self.end = self.end.max(record.ts_micros);
        self.total += 1;
        self.sources.insert(src);
        *self.port_packets.entry(record.dst_port).or_default() += 1;
        self.port_source_sets
            .entry(record.dst_port)
            .or_default()
            .insert(src);
        self.source_ports
            .entry(src)
            .or_default()
            .insert(record.dst_port);
        *self.source_packets.entry(src).or_default() += 1;
        let rel = record.ts_micros.saturating_sub(t0);
        *self
            .day_port_packets
            .entry(((rel / DAY_MICROS) as u32, record.dst_port))
            .or_default() += 1;
        *self
            .tool_port_packets
            .entry((verdict.tool(), record.dst_port))
            .or_default() += 1;
        let cell = self
            .week_cells
            .entry(((rel / self.period_micros) as u32, record.src_ip.slash16()))
            .or_insert_with(|| (0, HashSet::new()));
        cell.0 += 1;
        cell.1.insert(src);
    }

    fn finish(mut self) -> YearAnalysis {
        let srcs: Vec<u32> = self.open.keys().copied().collect();
        for src in srcs {
            self.close(src);
        }
        self.campaigns
            .sort_by_key(|c| (c.first_ts_micros, c.src_ip));
        let t0 = self.t0.unwrap_or(0);

        let mut week_blocks: HashMap<(u32, u16), WeekCell> = self
            .week_cells
            .into_iter()
            .map(|(key, (packets, sources))| {
                (
                    key,
                    WeekCell {
                        sources: sources.len() as u64,
                        packets,
                        campaigns: 0,
                    },
                )
            })
            .collect();
        for campaign in &self.campaigns {
            let week = (campaign.first_ts_micros.saturating_sub(t0) / self.period_micros) as u32;
            week_blocks
                .entry((week, campaign.src_ip.slash16()))
                .or_default()
                .campaigns += 1;
        }

        // The index is private to the crate, so no literal: the shipped
        // collector's empty year (which fixes year, telescope size and no
        // sketch), every aggregate overwritten, the index derived again.
        let mut analysis = YearCollector::with_period(YEAR, self.config, PERIOD_DAYS).finish();
        analysis.start_micros = t0;
        analysis.end_micros = self.end;
        analysis.total_packets = self.total;
        analysis.distinct_sources = self.sources.len() as u64;
        analysis.port_sources = self
            .port_source_sets
            .iter()
            .map(|(&port, set)| (port, set.len() as u64))
            .collect();
        analysis.port_packets = self.port_packets;
        analysis.source_port_counts = self
            .source_ports
            .into_iter()
            .map(|(src, ports)| (src, ports.len() as u32))
            .collect();
        analysis.source_packets = self.source_packets.into_iter().collect();
        analysis.port_source_sets = self
            .port_source_sets
            .into_iter()
            .map(|(port, set)| {
                let mut members: Vec<u32> = set.into_iter().collect();
                members.sort_unstable();
                (port, members)
            })
            .collect();
        analysis.day_port_packets = self.day_port_packets.into_iter().collect();
        analysis.tool_port_packets = self.tool_port_packets.into_iter().collect();
        analysis.week_blocks = week_blocks.into_iter().collect();
        analysis.campaigns = self.campaigns;
        analysis.noise = self.noise;
        analysis.reindex();
        analysis
    }
}

fn fast_pass(records: &[ProbeRecord], hints: SizeHints) -> YearAnalysis {
    let mut collector = YearCollector::with_period(YEAR, config(), PERIOD_DAYS);
    hints.apply_to(&mut collector);
    for (i, record) in records.iter().enumerate() {
        collector.offer(record);
        // Aggressive housekeeping cadence: expiry sweeps must never shift
        // a single verdict or campaign boundary.
        if i % 1_024 == 0 {
            collector.housekeeping(record.ts_micros);
        }
    }
    collector.finish()
}

#[test]
fn compact_collector_matches_naive_reference_on_fuzzed_records() {
    for seed in [0x5eed_0001u64, 0xdead_beef_cafe] {
        let records = fuzz_records(seed);
        let mut naive = NaiveCollector::new(config(), PERIOD_DAYS);
        for record in &records {
            naive.offer(record);
        }
        let reference = naive.finish();
        let fast = fast_pass(&records, SizeHints::none());

        // Sanity: the stream actually exercised the interesting machinery.
        assert_eq!(reference.distinct_sources, SOURCE_POOL as u64);
        assert!(
            !reference.campaigns.is_empty(),
            "no campaigns (seed {seed:#x})"
        );
        assert!(
            reference.noise.rejected_packets > 0,
            "no noise (seed {seed:#x})"
        );
        assert!(
            reference
                .tool_port_packets
                .keys()
                .any(|(tool, _)| tool.is_some()),
            "no tool attributions (seed {seed:#x})"
        );

        assert_eq!(fast, reference, "compact ≠ naive (seed {seed:#x})");

        // Pre-sizing and sharding are pure performance knobs.
        let presized = fast_pass(&records, SizeHints::new(SOURCE_POOL, 64));
        assert_eq!(presized, reference, "pre-sized diverged (seed {seed:#x})");
        for workers in [1usize, 3] {
            let sharded = try_collect_year_stream(
                YEAR,
                config(),
                PERIOD_DAYS,
                PipelineMode::Sharded { workers },
                SizeHints::new(SOURCE_POOL, 64),
                FaultPolicy::Fail,
                &mut InfallibleStream(&mut SliceStream::new(&records)),
                |_| true,
            )
            .expect("a clean ordered slice cannot fault")
            .analysis;
            assert_eq!(
                sharded, reference,
                "sharded:{workers} diverged (seed {seed:#x})"
            );
        }
    }
}

#[test]
fn naive_reference_rejects_and_splits_like_the_detector() {
    // Focused check that the reference itself is faithful: a slow narrow
    // source is noise; a fast wide source split by an idle gap yields two
    // campaigns — mirrored exactly by the compact path.
    let mk = |src: u32, dst: u32, port: u16, ts: u64| ProbeRecord {
        ts_micros: ts,
        src_ip: Ipv4Address(src),
        dst_ip: Ipv4Address(dst),
        src_port: 40_000,
        dst_port: port,
        seq: dst ^ 0x0f0f_0f0f,
        ip_id: 9,
        ttl: 64,
        flags: TcpFlags::SYN,
        window: 1024,
    };
    let mut records = Vec::new();
    for i in 0..4u32 {
        records.push(mk(1, 100 + i, 80, 1_000 + u64::from(i) * 1_000));
    }
    for i in 0..20u32 {
        records.push(mk(2, 200 + i, 443, 1_500 + u64::from(i) * 1_000));
    }
    let gap = 2 * 600 * 1_000_000u64;
    for i in 0..20u32 {
        records.push(mk(2, 400 + i, 443, gap + u64::from(i) * 1_000));
    }
    records.sort_by_key(|r| r.ts_micros);

    let mut naive = NaiveCollector::new(config(), PERIOD_DAYS);
    for record in &records {
        naive.offer(record);
    }
    let reference = naive.finish();
    assert_eq!(reference.campaigns.len(), 2);
    assert_eq!(
        reference
            .noise
            .rejected_sequences
            .get(&RejectReason::TooFewDestinations),
        Some(&1)
    );
    assert_eq!(fast_pass(&records, SizeHints::none()), reference);
}
