//! The load generator: seeded, time-sorted telescope traffic crafted by the
//! real `synscan_scanners` tool models.
//!
//! Two mixes stress the pipeline in opposite ways (why each exists is in
//! README.md): `campaign` is few sources with deep per-source state, `tail`
//! is many sources that barely touch it. Everything here runs during set-up;
//! the program under test only ever sees the records, the pcap bytes or the
//! store directory built from them.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use synscan_scanners::traits::{craft_record, mix64, ProbeCrafter};
use synscan_scanners::{
    CustomScanner, MasscanScanner, MiraiScanner, NmapScanner, UnicornScanner, ZmapScanner,
};
use synscan_telescope::{AddressSet, TelescopeConfig};
use synscan_wire::{Ipv4Address, ProbeRecord, TcpFlags};

/// Length of every generated capture window.
pub const WINDOW_MICROS: u64 = 7 * 86_400 * 1_000_000;

/// The telescope every workload captures on (17,792 dark addresses).
pub fn telescope() -> AddressSet {
    AddressSet::build(&TelescopeConfig::paper_scaled(4))
}

/// Session sizes and rejection rates of one traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Share of sources running one 2k–20k-probe session of 1–3 h.
    heavy_sources: f64,
    /// Share of sources running one 30–300-probe session of 5–60 min.
    medium_sources: f64,
    /// Share of packets carrying non-SYN flags (backscatter, FIN/NULL/XMAS).
    non_syn: f64,
    /// Share of packets aimed at a populated (non-dark) address.
    non_dark: f64,
    /// Ports the 1–5-packet sources aim at, with weights out of 100.
    light_ports: &'static [(u16, u32)],
}

/// Few sources, deep state: half a percent of the sources send about 70 % of
/// the packets, a tenth send about 20 %, the rest send 1–5 packets each.
pub const CAMPAIGN: Mix = Mix {
    heavy_sources: 0.005,
    medium_sources: 0.10,
    non_syn: 0.15,
    non_dark: 0.02,
    light_ports: SCAN_PORTS,
};

/// Many sources, shallow state: about 90 % of the packets come from
/// 1–5-packet sources, mostly on the ports the ingress policy blocks.
pub const TAIL: Mix = Mix {
    heavy_sources: 0.0,
    medium_sources: 0.003,
    non_syn: 0.30,
    non_dark: 0.05,
    light_ports: &[(23, 45), (445, 30), (2323, 10), (80, 5), (8080, 5), (22, 5)],
};

/// Ports campaign-sized sessions pick from (one port per session).
const SCAN_PORTS: &[(u16, u32)] = &[
    (80, 18),
    (443, 16),
    (22, 12),
    (8080, 10),
    (3389, 10),
    (21, 6),
    (25, 6),
    (5900, 6),
    (8443, 6),
    (3306, 5),
    (6379, 5),
];

/// Ports of the Mirai descendants the campaign-sized bots run; none is
/// blocked at the ingress, unlike the classic strain's 23.
const MIRAI_STRAIN_PORTS: &[u16] = &[2323, 5555, 7547, 37215, 52869];

/// Tool of the i-th source of a class: ZMap 30, Masscan 20, Mirai 20,
/// NMap 10, Unicorn 10, custom 10, dealt round-robin so the shares hold
/// within every class whatever the seed.
const TOOL_DEAL: [u8; 10] = [0, 1, 3, 0, 2, 4, 1, 0, 3, 5];

/// Flag bytes of the rejected share: backscatter first, then the non-SYN
/// scan techniques.
const NON_SYN_FLAGS: [TcpFlags; 6] = [
    TcpFlags::SYN_ACK,
    TcpFlags::RST,
    TcpFlags::ACK,
    TcpFlags::FIN,
    TcpFlags::NULL,
    TcpFlags::XMAS,
];

/// Microseconds since the epoch of 1 June of `year`, 00:00 UTC, near enough
/// (the pipeline only needs a plausible, year-distinct origin).
pub fn capture_start_micros(year: u16) -> u64 {
    let days = (u64::from(year) - 1970) * 365 + (u64::from(year) - 1969) / 4 + 151;
    days * 86_400 * 1_000_000
}

fn pick_weighted(rng: &mut StdRng, table: &[(u16, u32)]) -> u16 {
    let total: u32 = table.iter().map(|(_, w)| w).sum();
    let mut draw = rng.random_range(0..total);
    for &(port, weight) in table {
        if draw < weight {
            return port;
        }
        draw -= weight;
    }
    table[0].0
}

/// Log-uniform integer in `low..=high` (session sizes span a decade), drawn
/// from the `rank`-th of `of` equal strata: the class as a whole covers the
/// distribution evenly, so the total record count barely moves with the seed
/// and run-to-run spread is the program's, not the input's.
fn log_uniform(rng: &mut StdRng, low: u64, high: u64, rank: usize, of: usize) -> u64 {
    let u = (rank as f64 + rng.random::<f64>()) / of as f64;
    let value = (low as f64) * ((high as f64) / (low as f64)).powf(u);
    (value as u64).clamp(low, high)
}

/// One source's single session, drawn before any probe so the record vector
/// can be allocated once at its final size.
struct Session {
    src: Ipv4Address,
    light: bool,
    tool: u8,
    tool_seed: u64,
    port: u16,
    probes: u64,
    start: u64,
    duration: u64,
    path_ttl: u8,
}

/// Generate `sources` sources' worth of `mix` traffic captured in `year`,
/// sorted by timestamp. Same `(mix, sources, year, seed)`, same records.
pub fn generate(
    dark: &AddressSet,
    mix: &Mix,
    sources: usize,
    year: u16,
    seed: u64,
) -> Vec<ProbeRecord> {
    let mut rng = StdRng::seed_from_u64(seed ^ mix64(u64::from(year)));
    let t0 = capture_start_micros(year);
    let heavy = (sources as f64 * mix.heavy_sources).round() as usize;
    let medium = (sources as f64 * mix.medium_sources).round() as usize;
    let sessions: Vec<Session> = (0..sources)
        .map(|index| {
            // Rank within the class deals the tool.
            let (probes, seconds, rank) = if index < heavy {
                (
                    log_uniform(&mut rng, 2_000, 20_000, index, heavy),
                    rng.random_range(3_600..=10_800u64),
                    index,
                )
            } else if index < heavy + medium {
                (
                    log_uniform(&mut rng, 30, 300, index - heavy, medium),
                    rng.random_range(300..=3_600u64),
                    index - heavy,
                )
            } else {
                (
                    rng.random_range(1..=5u64),
                    rng.random_range(1..=600u64),
                    index - heavy - medium,
                )
            };
            let light = index >= heavy + medium;
            let duration = seconds * 1_000_000;
            Session {
                src: source_address(seed, year, index),
                light,
                tool: TOOL_DEAL[rank % TOOL_DEAL.len()],
                tool_seed: rng.random(),
                port: pick_weighted(&mut rng, if light { mix.light_ports } else { SCAN_PORTS }),
                probes,
                start: t0 + rng.random_range(0..WINDOW_MICROS - duration),
                duration,
                path_ttl: rng.random_range(5..25u8),
            }
        })
        .collect();

    let total: u64 = sessions.iter().map(|s| s.probes).sum();
    let mut records = Vec::with_capacity(total as usize);
    for session in &sessions {
        // The classic Telnet strain lives on the small bots; campaign-sized
        // Mirai sessions are the descendants, as in the wild. Mirai also
        // picks its own port per probe.
        let mirai = (session.tool == 3).then(|| {
            if session.light {
                MiraiScanner::new(session.tool_seed)
            } else {
                MiraiScanner::with_ports(session.tool_seed, MIRAI_STRAIN_PORTS.to_vec())
            }
        });
        let crafter: Box<dyn ProbeCrafter> = match (session.tool, &mirai) {
            (_, Some(mirai)) => Box::new(mirai.clone()),
            (0, _) => Box::new(ZmapScanner::new(session.tool_seed)),
            (1, _) => Box::new(MasscanScanner::new(session.tool_seed)),
            (2, _) => Box::new(NmapScanner::new(session.tool_seed)),
            (4, _) => Box::new(UnicornScanner::new(session.tool_seed)),
            _ => Box::new(CustomScanner::new(session.tool_seed)),
        };
        for probe in 0..session.probes {
            let dst = if rng.random_bool(mix.non_dark) {
                populated_address(dark, &mut rng)
            } else {
                dark.addresses()[rng.random_range(0..dark.len())]
            };
            let port = mirai
                .as_ref()
                .map_or(session.port, |mirai| mirai.pick_port(probe));
            let ts = session.start + rng.random_range(0..session.duration);
            let mut record = craft_record(
                crafter.as_ref(),
                session.src,
                dst,
                port,
                probe,
                ts,
                session.path_ttl,
            );
            if rng.random_bool(mix.non_syn) {
                record.flags = NON_SYN_FLAGS[rng.random_range(0..NON_SYN_FLAGS.len())];
            }
            records.push(record);
        }
    }
    records.sort_unstable_by_key(|r| (r.ts_micros, r.src_ip, r.seq));
    records
}

/// A routable, source-unique address for the `index`-th source.
fn source_address(seed: u64, year: u16, index: usize) -> Ipv4Address {
    let mut x = mix64(seed ^ (u64::from(year) << 48) ^ index as u64);
    loop {
        let addr = Ipv4Address(x as u32);
        if !addr.is_reserved() {
            return addr;
        }
        x = mix64(x);
    }
}

/// An address inside a telescope /16 that is *not* dark: a populated host
/// whose traffic the capture session must drop as `not_dark`.
fn populated_address(dark: &AddressSet, rng: &mut StdRng) -> Ipv4Address {
    loop {
        let block = dark.blocks()[rng.random_range(0..dark.blocks().len())];
        let addr = Ipv4Address((u32::from(block) << 16) | u32::from(rng.random::<u16>()));
        if !dark.contains(addr) {
            return addr;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synscan_telescope::CaptureSession;

    /// FNV-1a over the fields of every record: the identity of a generated
    /// stream.
    fn digest_records(records: &[ProbeRecord]) -> u64 {
        let mut hash = crate::stats::Fnv::new();
        for r in records {
            hash.write_u64(r.ts_micros);
            hash.write_u64(u64::from(r.src_ip.0) << 32 | u64::from(r.dst_ip.0));
            hash.write_u64(
                u64::from(r.src_port) << 48
                    | u64::from(r.dst_port) << 32
                    | u64::from(r.ip_id) << 16
                    | u64::from(r.window),
            );
            hash.write_u64(u64::from(r.seq) << 16 | u64::from(r.ttl) << 8 | u64::from(r.flags.0));
        }
        hash.finish()
    }

    /// Share of `records` a 2020 capture session admits.
    fn admit_ratio(dark: &AddressSet, records: &[ProbeRecord]) -> f64 {
        let mut session = CaptureSession::new(dark, 2020);
        let admitted = records.iter().filter(|r| session.offer(r)).count();
        admitted as f64 / records.len() as f64
    }

    #[test]
    fn same_seed_same_stream_and_another_seed_another() {
        let dark = telescope();
        let first = generate(&dark, &CAMPAIGN, 2_000, 2020, 7);
        let again = generate(&dark, &CAMPAIGN, 2_000, 2020, 7);
        let other = generate(&dark, &CAMPAIGN, 2_000, 2020, 8);
        assert_eq!(digest_records(&first), digest_records(&again));
        assert_ne!(digest_records(&first), digest_records(&other));
        assert_ne!(
            digest_records(&first),
            digest_records(&generate(&dark, &CAMPAIGN, 2_000, 2021, 7)),
            "the year is part of the stream's identity"
        );
        assert!(first.windows(2).all(|w| w[0].ts_micros <= w[1].ts_micros));
        let start = capture_start_micros(2020);
        assert!(first
            .iter()
            .all(|r| (start..start + WINDOW_MICROS).contains(&r.ts_micros)));
    }

    #[test]
    fn both_mixes_hit_their_stated_admit_ratios() {
        // README.md states these; two points either way.
        let dark = telescope();
        assert_eq!(dark.len(), 17_792);
        for seed in [1, 20_240_915] {
            let campaign = admit_ratio(&dark, &generate(&dark, &CAMPAIGN, 10_000, 2020, seed));
            assert!(
                (campaign - 0.825).abs() < 0.02,
                "campaign admits {campaign}"
            );
            let tail = admit_ratio(&dark, &generate(&dark, &TAIL, 100_000, 2020, seed));
            assert!((tail - 0.197).abs() < 0.02, "tail admits {tail}");
        }
    }

    #[test]
    fn the_campaign_mix_is_skewed_as_stated() {
        let dark = telescope();
        let sources = 10_000;
        let records = generate(&dark, &CAMPAIGN, sources, 2020, 3);
        let mut per_source = std::collections::HashMap::<u32, u64>::new();
        for record in &records {
            *per_source.entry(record.src_ip.0).or_default() += 1;
        }
        assert_eq!(per_source.len(), sources, "source addresses are distinct");
        let mut counts: Vec<u64> = per_source.into_values().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top: u64 = counts[..sources / 200].iter().sum();
        let share = top as f64 / records.len() as f64;
        assert!(
            (0.60..0.85).contains(&share),
            "top 0.5 % of sources send {share} of the packets"
        );
    }
}
