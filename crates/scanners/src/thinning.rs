//! Projection of Internet-wide scans onto the telescope.
//!
//! The paper's telescope sees only the ~71,536-address slice of each scan
//! that happens to land in its dark space. Simulating 45 billion probes and
//! discarding 99.998% of them would be absurd; instead this module computes,
//! for a scan specification, exactly the probes that *hit* the telescope:
//!
//! * **Permutation / random orders** (ZMap, Masscan, Mirai): each telescope
//!   address inside the target space is covered with probability equal to the
//!   scan's completion fraction; the hit count is binomially distributed and
//!   hit times are uniform over the scan window — exact for a uniformly
//!   random permutation, and the standard thinning construction for Poisson
//!   probing.
//! * **Sequential order** (classic custom tools, 91% of scanners per Lee et
//!   al.): the scan sweeps a contiguous range, so telescope hits arrive in
//!   address order, *clustered in time* at the moment the sweep crosses each
//!   telescope block — reproducing the bursty arrival pattern sequential
//!   scanners show in real captures.
//!
//! The output preserves per-probe header authenticity: every emitted
//! [`ProbeRecord`] is crafted by the actual tool implementation, so the §3.3
//! fingerprints survive the projection.

use synscan_stats::Rng;

use synscan_stats::sampling::sample_binomial;
use synscan_wire::{Ipv4Address, ProbeRecord};

use crate::traits::{craft_record, mix64, ProbeCrafter, TargetOrder};

/// The dark address space scans are projected onto. Implemented by the
/// telescope crate; a plain sorted `Vec<Ipv4Address>` implementation is
/// provided for tests and small captures.
pub trait DarkSpace {
    /// Number of monitored addresses.
    fn address_count(&self) -> u64;
    /// The `i`-th monitored address, `i < address_count()` (ascending order).
    fn address_at(&self, i: u64) -> Ipv4Address;
    /// Monitored addresses within `[start, end)`, ascending. The end bound
    /// is a `u64` so the full-space bound 2³² is representable.
    fn addresses_in(&self, start: u32, end_exclusive: u64) -> Vec<Ipv4Address>;
}

impl DarkSpace for Vec<Ipv4Address> {
    fn address_count(&self) -> u64 {
        self.len() as u64
    }
    fn address_at(&self, i: u64) -> Ipv4Address {
        self[i as usize]
    }
    fn addresses_in(&self, start: u32, end_exclusive: u64) -> Vec<Ipv4Address> {
        self.iter()
            .copied()
            .filter(|a| a.0 >= start && (a.0 as u64) < end_exclusive)
            .collect()
    }
}

/// The address × port space a scan targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetSpace {
    /// First address of the target range (0 for Internet-wide scans).
    pub ip_start: u32,
    /// Number of addresses targeted (2³² for Internet-wide, saturated to
    /// `u32::MAX as u64 + 1`).
    pub ip_count: u64,
    /// The destination ports, probed for every address.
    pub ports: Vec<u16>,
}

impl TargetSpace {
    /// The full IPv4 space on the given ports.
    pub fn internet_wide(ports: Vec<u16>) -> Self {
        assert!(!ports.is_empty());
        Self {
            ip_start: 0,
            ip_count: 1u64 << 32,
            ports,
        }
    }

    /// A contiguous range `[start, start+count)` on the given ports.
    pub fn range(start: Ipv4Address, count: u64, ports: Vec<u16>) -> Self {
        assert!(!ports.is_empty());
        assert!(count > 0 && start.0 as u64 + count <= (1u64 << 32));
        Self {
            ip_start: start.0,
            ip_count: count,
            ports,
        }
    }

    /// Total number of (address, port) probes for full coverage.
    pub fn total_probes(&self) -> u64 {
        self.ip_count.saturating_mul(self.ports.len() as u64)
    }
}

/// One scan to be projected.
#[derive(Debug, Clone)]
pub struct ScanSpec {
    /// Scan start time (µs since epoch).
    pub start_micros: u64,
    /// Internet-wide probing rate in packets/second.
    pub rate_pps: f64,
    /// What is targeted.
    pub targets: TargetSpace,
    /// How the target space is walked.
    pub order: TargetOrder,
    /// Fraction of the target space actually covered before the scan stops
    /// (1.0 = completed scan).
    pub coverage: f64,
}

impl ScanSpec {
    /// Number of probes the scan sends Internet-wide.
    pub fn probes_sent(&self) -> u64 {
        (self.targets.total_probes() as f64 * self.coverage).round() as u64
    }

    /// Scan duration in seconds.
    pub fn duration_secs(&self) -> f64 {
        self.probes_sent() as f64 / self.rate_pps
    }
}

/// A scan projected onto the telescope: the probes that arrived, plus the
/// ground-truth spec for calibration tests.
#[derive(Debug, Clone)]
pub struct ProjectedScan {
    /// Telescope arrivals in timestamp order.
    pub records: Vec<ProbeRecord>,
    /// Probes the scan sent Internet-wide (ground truth).
    pub probes_sent: u64,
    /// Scan duration in seconds (ground truth).
    pub duration_secs: f64,
}

/// Project `spec`, crafted by `crafter` from source `src`, onto `dark`.
///
/// `path_ttl_decrement` models hop count between scanner and telescope.
pub fn project_onto_telescope<C: ProbeCrafter + ?Sized, D: DarkSpace + ?Sized>(
    rng: &mut Rng,
    crafter: &C,
    src: Ipv4Address,
    spec: &ScanSpec,
    dark: &D,
    path_ttl_decrement: u8,
) -> ProjectedScan {
    assert!(spec.rate_pps > 0.0, "rate must be positive");
    assert!(
        (0.0..=1.0).contains(&spec.coverage),
        "coverage is a fraction"
    );
    let probes_sent = spec.probes_sent();
    let duration_secs = spec.duration_secs();
    let duration_micros = (duration_secs * 1e6) as u64;

    // Telescope addresses inside the targeted range.
    let in_range = dark.addresses_in(
        spec.targets.ip_start,
        (spec.targets.ip_start as u64 + spec.targets.ip_count).min(1u64 << 32),
    );
    if in_range.is_empty() || probes_sent == 0 {
        return ProjectedScan {
            records: Vec::new(),
            probes_sent,
            duration_secs,
        };
    }

    let ports = &spec.targets.ports;
    let mut records: Vec<ProbeRecord> = Vec::new();
    let mut probe_idx_salt = 0u64;

    match spec.order {
        TargetOrder::Sequential => {
            // The sweep crosses each in-range telescope address at a time
            // proportional to its offset; for multi-port sequential scans
            // the common pattern is "for each port, sweep the range".
            let per_port_probes = spec.targets.ip_count as f64;
            for (pi, &port) in ports.iter().enumerate() {
                for addr in &in_range {
                    let offset = (addr.0 - spec.targets.ip_start) as f64;
                    let progress =
                        (pi as f64 * per_port_probes + offset) / probes_sent.max(1) as f64;
                    if progress > 1.0 {
                        break; // partial coverage: sweep stopped early
                    }
                    let ts = spec.start_micros + (progress * duration_micros as f64) as u64;
                    records.push(craft_record(
                        crafter,
                        src,
                        *addr,
                        port,
                        probe_idx_salt,
                        ts,
                        path_ttl_decrement,
                    ));
                    probe_idx_salt += 1;
                }
            }
        }
        TargetOrder::CyclicGroup | TargetOrder::BlackRock | TargetOrder::UniformRandom => {
            let with_replacement = spec.order == TargetOrder::UniformRandom;
            let pair_count = in_range.len() as u64 * ports.len() as u64;
            let hits = if with_replacement {
                // Poisson thinning of independent uniform draws.
                let p_hit = pair_count as f64 / spec.targets.total_probes() as f64;
                sample_binomial(rng, probes_sent, p_hit)
            } else {
                // Permutation: each (addr, port) pair covered w.p. coverage.
                sample_binomial(rng, pair_count, spec.coverage)
            };
            let hits = hits.min(50_000_000); // hard memory guard
            if with_replacement || hits * 4 > pair_count * 3 {
                // Dense regime (or with replacement): draw pairs directly.
                for _ in 0..hits {
                    let addr = in_range[rng.range(0..in_range.len())];
                    let port = ports[rng.range(0..ports.len())];
                    let ts = spec.start_micros + rng.range(0..duration_micros.max(1));
                    records.push(craft_record(
                        crafter,
                        src,
                        addr,
                        port,
                        probe_idx_salt,
                        ts,
                        path_ttl_decrement,
                    ));
                    probe_idx_salt += 1;
                }
            } else {
                // Sparse regime: sample distinct pair indices by rejection.
                let mut chosen = std::collections::HashSet::with_capacity(hits as usize);
                while (chosen.len() as u64) < hits {
                    chosen.insert(rng.range(0..pair_count));
                }
                for idx in chosen {
                    // Decorrelate pair index from address via a keyed mix, so
                    // hit addresses are not biased toward low indices.
                    let scrambled = mix64(idx ^ spec.start_micros) % pair_count;
                    let addr = in_range[(scrambled % in_range.len() as u64) as usize];
                    let port = ports[(scrambled / in_range.len() as u64) as usize];
                    let ts = spec.start_micros + rng.range(0..duration_micros.max(1));
                    records.push(craft_record(
                        crafter,
                        src,
                        addr,
                        port,
                        probe_idx_salt,
                        ts,
                        path_ttl_decrement,
                    ));
                    probe_idx_salt += 1;
                }
            }
        }
    }

    records.sort_by_key(|r| r.ts_micros);
    ProjectedScan {
        records,
        probes_sent,
        duration_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::custom::CustomScanner;
    use crate::masscan::MasscanScanner;
    use crate::mirai::MiraiScanner;
    use crate::zmap::ZmapScanner;

    /// A small telescope: one dark /24 at 192.0.2.0 plus one at 198.51.100.0.
    fn telescope() -> Vec<Ipv4Address> {
        let mut v = Vec::new();
        for i in 0..256u32 {
            v.push(Ipv4Address(0xc000_0200 | i));
            v.push(Ipv4Address(0xc633_6400 | i));
        }
        v.sort();
        v
    }

    #[test]
    fn internet_wide_permutation_hits_expected_count() {
        let dark = telescope(); // 512 addresses
        let mut rng = Rng::seed_from_u64(1);
        let z = ZmapScanner::new(1);
        let spec = ScanSpec {
            start_micros: 0,
            rate_pps: 100_000.0,
            targets: TargetSpace::internet_wide(vec![443]),
            order: TargetOrder::CyclicGroup,
            coverage: 1.0,
        };
        let proj = project_onto_telescope(&mut rng, &z, Ipv4Address(1), &spec, &dark, 10);
        // Full coverage: every telescope address hit exactly once.
        assert_eq!(proj.records.len(), 512);
        assert_eq!(proj.probes_sent, 1u64 << 32);
        // Duration = 2^32 / 1e5 pps ≈ 42,950 s.
        assert!((proj.duration_secs - 42_949.67).abs() < 1.0);
        // Timestamps sorted and within the window.
        assert!(proj
            .records
            .windows(2)
            .all(|w| w[0].ts_micros <= w[1].ts_micros));
        let max_ts = proj.records.last().unwrap().ts_micros;
        assert!(max_ts as f64 <= proj.duration_secs * 1e6);
    }

    #[test]
    fn partial_coverage_scales_hits() {
        let dark = telescope();
        let mut rng = Rng::seed_from_u64(2);
        let m = MasscanScanner::new(2);
        let spec = ScanSpec {
            start_micros: 0,
            rate_pps: 1e6,
            targets: TargetSpace::internet_wide(vec![80]),
            order: TargetOrder::BlackRock,
            coverage: 0.25,
        };
        let proj = project_onto_telescope(&mut rng, &m, Ipv4Address(9), &spec, &dark, 8);
        // E[hits] = 512 × 0.25 = 128; binomial sd ≈ 9.8.
        let hits = proj.records.len() as f64;
        assert!((hits - 128.0).abs() < 50.0, "hits = {hits}");
    }

    #[test]
    fn projected_records_keep_tool_fingerprints() {
        let dark = telescope();
        let mut rng = Rng::seed_from_u64(3);
        let z = ZmapScanner::new(3);
        let spec = ScanSpec {
            start_micros: 500,
            rate_pps: 1e5,
            targets: TargetSpace::internet_wide(vec![22]),
            order: TargetOrder::CyclicGroup,
            coverage: 1.0,
        };
        let proj = project_onto_telescope(&mut rng, &z, Ipv4Address(7), &spec, &dark, 12);
        assert!(proj.records.iter().all(|r| r.ip_id == 54_321));
        assert!(proj.records.iter().all(|r| r.ttl == 64 - 12));

        let m = MiraiScanner::new(4);
        let spec2 = ScanSpec {
            order: TargetOrder::UniformRandom,
            ..spec
        };
        let proj2 = project_onto_telescope(&mut rng, &m, Ipv4Address(8), &spec2, &dark, 5);
        assert!(proj2.records.iter().all(|r| r.seq == r.dst_ip.0));
    }

    #[test]
    fn sequential_scan_hits_in_address_order_and_clusters() {
        let dark = telescope();
        let mut rng = Rng::seed_from_u64(4);
        let c = CustomScanner::new(5);
        // Sweep 192.0.0.0..192.1.0.0 (covers the first dark /24).
        let spec = ScanSpec {
            start_micros: 0,
            rate_pps: 1000.0,
            targets: TargetSpace::range(Ipv4Address::new(192, 0, 0, 0), 1 << 16, vec![23]),
            order: TargetOrder::Sequential,
            coverage: 1.0,
        };
        let proj = project_onto_telescope(&mut rng, &c, Ipv4Address(3), &spec, &dark, 6);
        assert_eq!(proj.records.len(), 256, "only the in-range /24 is hit");
        // Address order == arrival order for a sweep.
        assert!(proj.records.windows(2).all(|w| w[0].dst_ip < w[1].dst_ip));
        // The cluster spans 256 probes of a 65,536-probe sweep: under 0.5%
        // of the duration.
        let span = proj.records.last().unwrap().ts_micros - proj.records[0].ts_micros;
        assert!((span as f64) < 0.005 * proj.duration_secs * 1e6);
    }

    #[test]
    fn scan_outside_telescope_range_yields_nothing() {
        let dark = telescope();
        let mut rng = Rng::seed_from_u64(5);
        let c = CustomScanner::new(6);
        let spec = ScanSpec {
            start_micros: 0,
            rate_pps: 100.0,
            targets: TargetSpace::range(Ipv4Address::new(10, 0, 0, 0), 1 << 16, vec![80]),
            order: TargetOrder::Sequential,
            coverage: 1.0,
        };
        let proj = project_onto_telescope(&mut rng, &c, Ipv4Address(2), &spec, &dark, 4);
        assert!(proj.records.is_empty());
        assert_eq!(proj.probes_sent, 1 << 16);
    }

    #[test]
    fn multi_port_scans_hit_multiple_ports() {
        let dark = telescope();
        let mut rng = Rng::seed_from_u64(6);
        let m = MasscanScanner::new(7);
        let spec = ScanSpec {
            start_micros: 0,
            rate_pps: 1e6,
            targets: TargetSpace::internet_wide(vec![80, 8080, 443]),
            order: TargetOrder::BlackRock,
            coverage: 1.0,
        };
        let proj = project_onto_telescope(&mut rng, &m, Ipv4Address(11), &spec, &dark, 9);
        assert_eq!(proj.records.len(), 512 * 3);
        let ports: std::collections::HashSet<u16> =
            proj.records.iter().map(|r| r.dst_port).collect();
        assert_eq!(ports, [80u16, 8080, 443].into_iter().collect());
    }

    #[test]
    fn uniform_random_can_revisit() {
        // With replacement, hits = Binomial(probes, p) can exceed the number
        // of distinct pairs when probes >> space.
        let dark: Vec<Ipv4Address> = (0..16u32).map(|i| Ipv4Address(0x0100_0000 | i)).collect();
        let mut rng = Rng::seed_from_u64(7);
        let m = MiraiScanner::new(8);
        let spec = ScanSpec {
            start_micros: 0,
            rate_pps: 1e6,
            targets: TargetSpace::internet_wide(vec![23]),
            order: TargetOrder::UniformRandom,
            coverage: 3.0_f64.min(1.0), // clamp: coverage stays a fraction
                                        // (revisits emerge from probes ≈ space anyway)
        };
        let proj = project_onto_telescope(&mut rng, &m, Ipv4Address(1), &spec, &dark, 3);
        // E[hits] = 2^32 × (16/2^32) = 16, sd = 4.
        assert!(proj.records.len() < 40);
    }
}
