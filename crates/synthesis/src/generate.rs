//! The actor machinery: turns [`YearConfig`] specifications into projected
//! telescope arrival streams.
//!
//! The generator works directly in "telescope hit space": for every campaign
//! it decides how many probes *hit the telescope* (the scan's telescope
//! budget), then places those hits uniformly over the campaign interval at
//! uniformly random dark addresses — the exact distribution a uniformly
//! random target permutation induces (see `synscan_scanners::thinning` for
//! the equivalence, which the small-scale examples demonstrate end to end
//! with the real ZMap/Masscan target-selection algorithms). Header fields
//! always come from the *real tool crafters*, so fingerprints are authentic.
//!
//! Generation is split in two: [`plan_year`] runs every actor decision and
//! every random draw, but captures campaigns as lazily replayable
//! `crate::stream::EmitterSpec`s instead of materializing records;
//! [`generate_year`] is now just `plan_year` + [`crate::stream::YearPlan::materialize`].
//! The plan can equally be consumed as a bounded-memory, time-ordered
//! [`crate::stream::YearStream`] — byte-identical to the materialized vector
//! (see `crate::stream` for the merge argument).

use std::collections::BTreeMap;
use std::sync::Arc;

use synscan_stats::Rng;

use synscan_netmodel::orgs::PortStrategy;
use synscan_netmodel::{InternetRegistry, ScannerClass};
use synscan_scanners::custom::CustomScanner;
use synscan_scanners::masscan::MasscanScanner;
use synscan_scanners::mirai::MiraiScanner;
use synscan_scanners::nmap::NmapScanner;
use synscan_scanners::traits::{craft_record, mix64, ProbeCrafter, ToolKind};
use synscan_scanners::unicorn::UnicornScanner;
use synscan_scanners::zmap::ZmapScanner;
use synscan_stats::sampling::LogNormal;
use synscan_telescope::{AddressSet, BackscatterGenerator, TelescopeConfig};
use synscan_wire::stream::RecordSink;
use synscan_wire::{Ipv4Address, ProbeRecord};

use crate::stream::{plan_emit, EmitterKind, EmitterSpec, YearPlan};
use crate::yearcfg::{GroupSpec, YearConfig};

/// Global generator knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorConfig {
    /// Master seed: everything derives from it deterministically.
    pub seed: u64,
    /// Telescope size = paper size / this (address-space thinning).
    pub telescope_denominator: u32,
    /// Campaign population = paper population / this (actor thinning).
    pub population_denominator: u32,
    /// Simulated window length per year, days (paper windows: 29–61).
    pub days: f64,
    /// Fraction of backscatter contamination to mix in (paper: ~2% of
    /// unsolicited TCP is non-SYN).
    pub backscatter_fraction: f64,
    /// Cap on ports per vertical scan. Observing a P-port vertical scan
    /// costs ≥ P telescope packets, so tiny simulations must cap it.
    pub vertical_ports_cap: u32,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            seed: 0x5359_4e5f_5343, // "SYN_SC"
            // The telescope must stay large relative to the 1 h campaign
            // expiry: at 1/4 of the paper's telescope, a threshold-rate
            // (100 pps) scanner still hits dark space every ~37 minutes, so
            // §3.4's campaign semantics survive the scaling. Volume is
            // instead thinned through the campaign *population*.
            telescope_denominator: 4,
            population_denominator: 160,
            days: 7.0,
            backscatter_fraction: 0.02,
            vertical_ports_cap: 65_536,
        }
    }
}

impl GeneratorConfig {
    /// A tiny configuration for unit tests and doc examples.
    pub fn tiny() -> Self {
        Self {
            telescope_denominator: 16,
            population_denominator: 2000,
            days: 3.0,
            vertical_ports_cap: 400,
            ..Self::default()
        }
    }

    /// The telescope configuration at this scale.
    pub fn telescope(&self) -> TelescopeConfig {
        TelescopeConfig::paper_scaled(self.telescope_denominator)
    }

    /// Combined volume divisor for packet targets.
    pub(crate) fn volume_divisor(&self) -> f64 {
        f64::from(self.telescope_denominator) * f64::from(self.population_denominator)
    }
}

/// What the generator actually created — ground truth for calibration tests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroundTruth {
    /// Calendar year.
    pub year: u16,
    /// Scan campaigns generated (excluding backscatter).
    pub scans: u64,
    /// Telescope-arriving scan packets generated.
    pub packets: u64,
    /// Campaigns per group name.
    pub scans_per_group: BTreeMap<String, u64>,
    /// Packets per group name.
    pub packets_per_group: BTreeMap<String, u64>,
    /// Institutional (known-org) campaigns / packets.
    pub org_scans: u64,
    /// Institutional packets.
    pub org_packets: u64,
    /// Backscatter (non-SYN) packets mixed in.
    pub backscatter_packets: u64,
    /// Vertical-scan campaigns generated, by ports-targeted bucket.
    pub vertical_scans: BTreeMap<u32, u64>,
}

/// One generated year.
#[derive(Debug, Clone)]
pub struct YearOutput {
    /// Calendar year.
    pub year: u16,
    /// All telescope arrivals (scans + backscatter), sorted by timestamp.
    pub records: Vec<ProbeRecord>,
    /// What was generated.
    pub truth: GroundTruth,
}

/// A boxed crafter for dynamic tool dispatch.
pub(crate) fn make_crafter(
    tool: ToolKind,
    seed: u64,
    marked_zmap: bool,
) -> Box<dyn ProbeCrafter + Send> {
    match tool {
        ToolKind::Zmap if marked_zmap => Box::new(ZmapScanner::new(seed)),
        ToolKind::Zmap => Box::new(ZmapScanner::unmarked(seed)),
        ToolKind::Masscan => Box::new(MasscanScanner::new(seed)),
        ToolKind::Nmap => Box::new(NmapScanner::new(seed)),
        ToolKind::Mirai => Box::new(MiraiScanner::new(seed)),
        ToolKind::Unicorn => Box::new(UnicornScanner::new(seed)),
        ToolKind::Custom => Box::new(CustomScanner::new(seed)),
    }
}

/// Service-popularity head: the ports institutional scanners revisit most
/// (HTTPS first — §6.7/Fig 5: 443 receives 41% of its traffic from
/// institutional sources).
pub(crate) const POPULAR_SERVICE_PORTS: [u16; 10] =
    [443, 80, 22, 8080, 21, 25, 3389, 8443, 445, 3306];

/// The canonical "top N ports" ordering institutions use: popular service
/// ports first, then the rest of the range ascending.
pub(crate) fn top_ports(n: u32) -> Vec<u16> {
    let mut ports: Vec<u16> = synscan_netmodel::KNOWN_PORTS
        .iter()
        .map(|(p, _)| *p)
        .collect();
    let mut next = 1u32;
    // Walk 1..=65535 first, then port 0 last (it exists, but nobody leads
    // with it).
    while (ports.len() as u32) < n && next <= 65_535 {
        let candidate = next as u16;
        if !synscan_netmodel::KNOWN_PORTS
            .iter()
            .any(|(p, _)| *p == candidate)
        {
            ports.push(candidate);
        }
        next += 1;
    }
    if (ports.len() as u32) < n {
        ports.push(0);
    }
    ports.truncate(n as usize);
    ports
}

/// Emit `budget` telescope hits for one campaign into any sink.
#[allow(clippy::too_many_arguments)]
pub(crate) fn emit_campaign<S: RecordSink + ?Sized>(
    rng: &mut Rng,
    sink: &mut S,
    crafter: &(dyn ProbeCrafter + Send),
    src: Ipv4Address,
    ports: &[u16],
    dark: &AddressSet,
    start_micros: u64,
    duration_micros: u64,
    budget: u64,
) {
    let ttl_decrement = 5 + (mix64(u64::from(src.0)) % 20) as u8;
    for i in 0..budget {
        let dst = dark.addresses()[rng.range(0..dark.len())];
        let port = ports[rng.range(0..ports.len())];
        let ts = start_micros + rng.range(0..duration_micros.max(1));
        sink.accept(craft_record(crafter, src, dst, port, i, ts, ttl_decrement));
    }
}

/// Sample a weighted item.
fn weighted<'a, T>(rng: &mut Rng, items: &'a [(T, f64)]) -> &'a T {
    let total: f64 = items.iter().map(|(_, w)| w).sum();
    let mut pick = rng.f64() * total;
    for (item, weight) in items {
        pick -= weight;
        if pick <= 0.0 {
            return item;
        }
    }
    &items.last().expect("non-empty").0
}

/// Pick a source address for a group scan.
fn pick_source(
    rng: &mut Rng,
    registry: &InternetRegistry,
    group: &GroupSpec,
    year: u16,
) -> Ipv4Address {
    let class = *weighted(rng, group.class_mix);
    if let Some(country) = group.country_override {
        return registry
            .sample_source(rng, country, class)
            .or_else(|| registry.sample_source_any(rng, class))
            .unwrap_or(Ipv4Address::new(203, 0, 113, 1));
    }
    let country_mix = if group.country_biased {
        synscan_netmodel::country::tool_country_bias(group.tool.name(), year)
            .unwrap_or_else(|| synscan_netmodel::country::activity_mix(year))
    } else {
        synscan_netmodel::country::activity_mix(year)
    };
    let country = *weighted(rng, &country_mix);
    registry
        .sample_source(rng, country, class)
        .or_else(|| registry.sample_source_any(rng, class))
        .unwrap_or(Ipv4Address::new(203, 0, 113, 1))
}

/// Sample distinct scan ports from the group's pool, honouring the §5.1
/// alias affinity: multi-port scans usually pair a port with its
/// protocol alias (80→8080 etc.) before reaching back into the pool.
fn pick_ports(rng: &mut Rng, group: &GroupSpec, year: u16) -> Vec<u16> {
    let n = *weighted(
        rng,
        &group
            .ports_per_scan
            .iter()
            .map(|(n, p)| (*n, *p))
            .collect::<Vec<_>>(),
    );
    let mut ports: Vec<u16> = Vec::with_capacity(n as usize);
    let first = *weighted(rng, &group.port_pool);
    ports.push(first);
    if n >= 2 {
        if let Some(alias) = synscan_netmodel::ports::alias_of(first) {
            if rng.chance(crate::yearcfg::family_affinity(year)) {
                ports.push(alias);
            }
        }
    }
    let mut guard = 0;
    while (ports.len() as u32) < n && guard < 10 * n {
        let p = *weighted(rng, &group.port_pool);
        if !ports.contains(&p) {
            ports.push(p);
        } else if ports.len() >= group.port_pool.len() {
            // Pool exhausted: fill from the protocol family / adjacent ports.
            ports.push(p.wrapping_add(ports.len() as u16));
        }
        guard += 1;
    }
    ports
}

/// Sample a source of a class from the year's country activity mix — used
/// for populations without a dedicated group spec (vertical scanners,
/// disclosure surges, background stragglers).
fn sample_activity_source(
    rng: &mut Rng,
    registry: &InternetRegistry,
    year: u16,
    class: ScannerClass,
) -> Ipv4Address {
    let mix = synscan_netmodel::country::activity_mix(year);
    let country = *weighted(rng, &mix);
    registry
        .sample_source(rng, country, class)
        .or_else(|| registry.sample_source_any(rng, class))
        .unwrap_or(Ipv4Address::new(203, 0, 113, 1))
}

/// Generate one year of telescope arrivals as a materialized, sorted vector.
///
/// Equivalent to `plan_year(...).materialize(dark)` — which is exactly how
/// it is implemented. Callers that can consume records incrementally should
/// use [`plan_year`] and [`crate::stream::YearPlan::stream`] instead.
pub fn generate_year(
    year_cfg: &YearConfig,
    gen: &GeneratorConfig,
    registry: &InternetRegistry,
    dark: &AddressSet,
) -> YearOutput {
    let plan = plan_year(year_cfg, gen, registry, dark);
    let records = plan.materialize(dark);
    YearOutput {
        year: plan.year,
        records,
        truth: plan.truth,
    }
}

/// Plan one year of telescope arrivals without materializing any records.
///
/// Runs the complete actor model — every decision and every RNG draw the
/// materializing generator makes, in the same order — but at each campaign
/// emission site it snapshots the shared RNG into an
/// `crate::stream::EmitterSpec` and advances the RNG by draining the
/// emitter through a null sink. Ground truth is therefore complete at plan
/// time, and replaying the specs (materialized or heap-merged) reproduces
/// the record stream byte for byte.
pub fn plan_year(
    year_cfg: &YearConfig,
    gen: &GeneratorConfig,
    registry: &InternetRegistry,
    dark: &AddressSet,
) -> YearPlan {
    let mut rng = Rng::seed_from_u64(gen.seed ^ (u64::from(year_cfg.year) << 32));
    let window_micros = (gen.days * 86_400.0 * 1e6) as u64;
    let mut truth = GroundTruth {
        year: year_cfg.year,
        ..GroundTruth::default()
    };

    let total_packets = year_cfg.packets_per_day_full * gen.days / gen.volume_divisor();
    let total_scans =
        (year_cfg.scans_per_month_full * gen.days / 30.0 / f64::from(gen.population_denominator))
            .max(10.0);

    let mut specs: Vec<EmitterSpec> = Vec::new();

    // ---- 0. Plan the fixed-cost populations first ------------------------
    // A vertical scan of P ports costs >= P telescope packets to observe, so
    // vertical scans and disclosure surges are budgeted up front and their
    // cost deducted from the general population's budget; the year's total
    // volume stays on target.
    let pop2 = f64::from(gen.population_denominator).powi(2);
    let mut vertical_plan: Vec<(u32, u64)> = Vec::new();
    for (i, &(count_full, n_ports)) in year_cfg.vertical_scans_full.iter().enumerate() {
        let mut n = (count_full / pop2).round() as u64;
        // Every year keeps its flagship bucket (the first entry) even when
        // population thinning rounds it away — §5.2's "one scan in 2015".
        if n == 0 && i == 0 {
            n = 1;
        }
        if n > 0 {
            // Observing P ports costs ~1.15 P packets; never let one
            // campaign eat more than a quarter of the year's budget.
            let budget_cap = (total_packets * 0.25 / 1.15) as u32;
            vertical_plan.push((
                n_ports.min(gen.vertical_ports_cap).min(budget_cap.max(200)),
                n,
            ));
        }
    }
    let vertical_budget: f64 = vertical_plan
        .iter()
        .map(|&(ports, n)| f64::from(ports) * 1.15 * n as f64)
        .sum();

    let event_baseline = (total_packets / gen.days * 0.004).max(30.0);
    let mut event_plan: Vec<(u32, u16, u64)> = Vec::new();
    for event in &year_cfg.events {
        let mut day = event.day;
        loop {
            let age = f64::from(day - event.day);
            let surge = event.magnitude * (-age / event.decay_days).exp();
            if surge < 1.0 || f64::from(day) >= gen.days {
                break;
            }
            event_plan.push((day, event.port, (event_baseline * surge) as u64));
            day += 1;
        }
    }
    let event_budget: f64 = event_plan.iter().map(|&(_, _, p)| p as f64).sum();

    // ---- 1. Institutional (known-org) scanning -------------------------
    let inst_budget = total_packets * year_cfg.institutional_packet_share;
    let inst_scans = (total_scans * year_cfg.institutional_scan_share).round() as u64;
    generate_orgs(
        &mut rng,
        &mut specs,
        &mut truth,
        year_cfg,
        gen,
        registry,
        dark,
        window_micros,
        inst_budget,
        inst_scans,
    );

    // ---- 2. The general scanning population ----------------------------
    let rest_budget =
        (total_packets - inst_budget - vertical_budget - event_budget).max(total_packets * 0.1);
    for group in &year_cfg.groups {
        if group.scan_share <= 0.0 {
            continue;
        }
        let n_scans = ((total_scans * group.scan_share).round() as u64).max(1);
        let group_packets = rest_budget * group.packet_share;
        let mean_budget = (group_packets / n_scans as f64).max(30.0);
        let budget_dist = LogNormal::new((mean_budget.ln()) - 0.5, 1.0);
        let rate_dist = LogNormal::from_median(group.rate_median_pps, group.rate_sigma);
        let hit_prob = dark.len() as f64 / 4_294_967_296.0;

        for scan_idx in 0..n_scans {
            let src = pick_source(&mut rng, registry, group, year_cfg.year);
            let ports: Arc<[u16]> = pick_ports(&mut rng, group, year_cfg.year).into();
            let budget = (budget_dist.sample(&mut rng).round() as u64).clamp(30, 2_000_000);
            let crafter_seed = gen.seed ^ mix64(u64::from(src.0) ^ scan_idx);
            let (start, duration) = if group.tool == ToolKind::Mirai {
                // Bots scan continuously for (most of) the window.
                let d = (window_micros as f64 * (0.5 + rng.f64() * 0.5)) as u64;
                (rng.range(0..window_micros - d + 1), d)
            } else {
                let rate = rate_dist.sample(&mut rng).max(100.0);
                let duration_secs =
                    (budget as f64 / (rate * hit_prob)).clamp(1.0, gen.days * 86_400.0 * 0.8);
                let d = (duration_secs * 1e6) as u64;
                (rng.range(0..(window_micros - d).max(1)), d)
            };

            // Residential DHCP churn: long-running residential scans hop
            // addresses mid-flight, inflating observed source counts (§4.2).
            let class = registry.class(src);
            let duration_secs = duration as f64 / 1e6;
            let segments = if class == ScannerClass::Residential && duration_secs > 43_200.0 {
                registry.churn().expected_identities(duration_secs).round() as u64
            } else {
                1
            }
            .clamp(1, 6);

            let mut seg_src = src;
            for seg in 0..segments {
                let seg_budget = budget / segments
                    + if seg == segments - 1 {
                        budget % segments
                    } else {
                        0
                    };
                let seg_start = start + seg * (duration / segments);
                plan_emit(
                    &mut specs,
                    &mut rng,
                    dark,
                    seg_start,
                    EmitterKind::Campaign {
                        tool: group.tool,
                        crafter_seed,
                        marked: true,
                        src: seg_src,
                        ports: ports.clone(),
                        duration_micros: duration / segments,
                        budget: seg_budget,
                    },
                );
                if seg + 1 < segments {
                    seg_src = registry.churn().rotate(&mut rng, seg_src);
                }
            }

            truth.scans += segments;
            truth.packets += budget;
            *truth
                .scans_per_group
                .entry(group.name.to_string())
                .or_default() += segments;
            *truth
                .packets_per_group
                .entry(group.name.to_string())
                .or_default() += budget;
        }
    }

    // ---- 3. Vertical scans (§5.2) ---------------------------------------
    for &(n_ports, n) in &vertical_plan {
        let ports: Arc<[u16]> = top_ports(n_ports).into();
        for v in 0..n {
            // §5.4: China originates >80% of traffic on 14,444 unique ports
            // (2022) — the signature of bulk multi-port scanning from
            // Chinese hosting space; most vertical scanners live there.
            let src = if rng.chance(0.6) {
                registry
                    .sample_source(
                        &mut rng,
                        synscan_netmodel::Country::China,
                        ScannerClass::Hosting,
                    )
                    .unwrap_or(Ipv4Address::new(203, 0, 113, 77))
            } else {
                sample_activity_source(&mut rng, registry, year_cfg.year, ScannerClass::Hosting)
            };
            let tool = if v % 2 == 0 {
                ToolKind::Masscan
            } else {
                ToolKind::Zmap
            };
            let crafter_seed = gen.seed ^ mix64(v ^ (u64::from(n_ports) << 24));
            // §5.2: >1,000-port scans average ~0.3 Gbps — far faster than
            // ordinary scans; compress the whole budget into a few hours.
            let duration = (3600.0e6 * (1.0 + rng.f64() * 5.0)) as u64;
            let start = rng.range(0..(window_micros - duration).max(1));
            // Each targeted port is observed at least once (shuffled sweep),
            // plus ~15% revisits — the cheapest emission that lets the
            // campaign detector count the full port set.
            let budget = plan_emit(
                &mut specs,
                &mut rng,
                dark,
                start,
                EmitterKind::Vertical {
                    tool,
                    crafter_seed,
                    src,
                    ports: ports.clone(),
                    duration_micros: duration,
                    extra: (ports.len() / 7) as u64,
                },
            );
            truth.scans += 1;
            truth.packets += budget;
            *truth.vertical_scans.entry(n_ports).or_default() += 1;
        }
    }

    // ---- 4. Disclosure-event surges (Figure 1) --------------------------
    // Opportunistic post-disclosure scanners use whatever tooling the
    // year's ecosystem favours — the event does not change the tool mix.
    let event_tool_mix: Vec<(ToolKind, f64)> = year_cfg
        .groups
        .iter()
        .filter(|g| g.tool != ToolKind::Mirai && g.scan_share > 0.0)
        .map(|g| (g.tool, g.scan_share))
        .collect();
    for &(day, port, surge_packets) in &event_plan {
        // Split each surge day across a handful of opportunistic scanners.
        let scanners = (surge_packets / 400).clamp(1, 12);
        for s in 0..scanners {
            let src =
                sample_activity_source(&mut rng, registry, year_cfg.year, ScannerClass::Hosting);
            let tool = *weighted(&mut rng, &event_tool_mix);
            let start = u64::from(day) * 86_400_000_000 + rng.range(0..43_200_000_000u64);
            plan_emit(
                &mut specs,
                &mut rng,
                dark,
                start,
                EmitterKind::Campaign {
                    tool,
                    crafter_seed: gen.seed ^ mix64(u64::from(day) << 8 | s),
                    marked: true,
                    src,
                    ports: vec![port].into(),
                    duration_micros: 21_600_000_000, // six hours
                    budget: surge_packets / scanners,
                },
            );
            truth.scans += 1;
            truth.packets += surge_packets / scanners;
        }
    }

    // ---- 4b. Sub-threshold background sources ---------------------------
    // The paper's 45 million distinct sources are dominated by residential
    // botnet stragglers and DHCP-churned identities that send a handful of
    // probes each and never qualify as campaigns (Table 2: residential +
    // unknown are 92% of source IPs but only ~45% of packets). Model them
    // as a cloud of 1-5-packet sources on the botnet ports.
    let background_sources = (truth.scans * 4).min(200_000);
    if background_sources > 0 {
        // Before Mirai (2015/16) the stragglers probe the era's popular
        // ports; afterwards they follow the botnet strain ports.
        let bg_ports = year_cfg
            .groups
            .iter()
            .find(|g| {
                if year_cfg.year >= 2017 {
                    g.tool == ToolKind::Mirai
                } else {
                    g.tool == ToolKind::Custom
                }
            })
            .map(|g| g.port_pool.clone())
            .unwrap_or_else(|| vec![(23, 0.5), (80, 0.3), (8080, 0.2)]);
        let bg_tool = |b: u64| {
            if year_cfg.year >= 2017 && b.is_multiple_of(3) {
                ToolKind::Mirai
            } else {
                ToolKind::Custom
            }
        };
        for b in 0..background_sources {
            let class = if b % 5 < 3 {
                ScannerClass::Residential
            } else {
                ScannerClass::Unknown
            };
            let src = sample_activity_source(&mut rng, registry, year_cfg.year, class);
            // Stragglers follow the same ports-per-source trend as the
            // campaign population (Figure 3), scaled to their packet counts.
            let pps = year_cfg
                .groups
                .iter()
                .find(|g| g.tool == ToolKind::Custom)
                .map(|g| g.ports_per_scan)
                .unwrap_or(&[(1, 1.0)]);
            let n_ports = (*weighted(
                &mut rng,
                &pps.iter().map(|(n, p)| (*n, *p)).collect::<Vec<_>>(),
            ))
            .min(4);
            let mut bg_scan_ports: Vec<u16> = Vec::new();
            for _ in 0..n_ports {
                let p = *weighted(&mut rng, &bg_ports);
                if !bg_scan_ports.contains(&p) {
                    bg_scan_ports.push(p);
                }
            }
            if bg_scan_ports.len() >= 2 {
                if let Some(alias) = synscan_netmodel::ports::alias_of(bg_scan_ports[0]) {
                    if rng.chance(crate::yearcfg::family_affinity(year_cfg.year)) {
                        bg_scan_ports[1] = alias;
                    }
                }
            }
            // §6.2: by 2020 the Mirai fingerprint appears on 99.6% of all
            // TCP ports — descendants graft the routine onto arbitrary
            // services. A slice of the straggler cloud probes a uniformly
            // random port instead of the strain list.
            if year_cfg.year >= 2019 && b % 5 == 4 {
                bg_scan_ports[0] = (mix64(b ^ 0x9047) % 65_536) as u16;
            }
            let packets = bg_scan_ports.len() as u64 + 1 + (mix64(b) % 4);
            let start = rng.range(0..window_micros);
            plan_emit(
                &mut specs,
                &mut rng,
                dark,
                start,
                EmitterKind::Campaign {
                    tool: bg_tool(b),
                    crafter_seed: gen.seed ^ mix64(b | 0xb6_0000_0000),
                    marked: true,
                    src,
                    ports: bg_scan_ports.into(),
                    duration_micros: (window_micros - start).min(7_200_000_000),
                    budget: packets,
                },
            );
            truth.packets += packets;
        }
    }

    // ---- 4c. The Unicornscan rarity --------------------------------------
    // §6.1: "we find no evidence of Unicorn being used for Internet-wide
    // scanning and instead record in total only 2 distinct IP addresses
    // ever using the Unicorn scanning tool." One shows up in 2015, the
    // other in 2017.
    if matches!(year_cfg.year, 2015 | 2017) {
        let src = sample_activity_source(&mut rng, registry, year_cfg.year, ScannerClass::Unknown);
        let budget = 60 + mix64(u64::from(year_cfg.year)) % 60;
        let start = rng.range(0..window_micros / 2);
        plan_emit(
            &mut specs,
            &mut rng,
            dark,
            start,
            EmitterKind::Campaign {
                tool: ToolKind::Unicorn,
                crafter_seed: gen.seed ^ 0x7C0A | u64::from(year_cfg.year),
                marked: true,
                src,
                ports: vec![3306, 1433].into(),
                duration_micros: 7_200_000_000,
                budget,
            },
        );
        truth.scans += 1;
        truth.packets += budget;
        *truth
            .scans_per_group
            .entry("unicorn-rarity".to_string())
            .or_default() += 1;
    }

    // ---- 5. Backscatter contamination -----------------------------------
    let backscatter_budget = (truth.packets as f64 * gen.backscatter_fraction) as u64;
    if backscatter_budget > 0 {
        let victims = 3 + (backscatter_budget / 5000).min(10);
        for v in 0..victims {
            let generator = BackscatterGenerator {
                victim: Ipv4Address(mix64(gen.seed ^ v) as u32 | 0x0100_0000),
                service_port: [80u16, 443, 53, 6667][v as usize % 4],
                rate_pps: backscatter_budget as f64 / victims as f64 / (gen.days * 86_400.0),
                syn_ack_fraction: 0.7,
            };
            let emitted = plan_emit(
                &mut specs,
                &mut rng,
                dark,
                0,
                EmitterKind::Backscatter {
                    generator,
                    duration_secs: gen.days * 86_400.0,
                },
            );
            truth.backscatter_packets += emitted;
        }
    }

    YearPlan {
        year: year_cfg.year,
        truth,
        specs,
    }
}

/// Institutional scanning: known orgs, their recurrence, and port coverage.
///
/// The org population is budgeted in both packets (`inst_budget`, Table 2's
/// institutional traffic share) and campaigns (`inst_scans`, the
/// institutional scan share): source counts are derived from the scan
/// budget, so known orgs never swamp the campaign statistics at small
/// simulation scales. From 2023 on, every active org is guaranteed at least
/// one source so the Figure 8-10 coverage maps are fully populated.
#[allow(clippy::too_many_arguments)]
fn generate_orgs(
    rng: &mut Rng,
    specs: &mut Vec<EmitterSpec>,
    truth: &mut GroundTruth,
    year_cfg: &YearConfig,
    gen: &GeneratorConfig,
    registry: &InternetRegistry,
    dark: &AddressSet,
    window_micros: u64,
    inst_budget: f64,
    inst_scans: u64,
) {
    // Weight each active org by fleet size and port ambition.
    let active: Vec<(&synscan_netmodel::KnownOrg, PortStrategy, f64)> = registry
        .orgs()
        .iter()
        .filter_map(|org| {
            let strategy = org.port_strategy(year_cfg.year);
            if strategy == PortStrategy::Inactive {
                return None;
            }
            let weight = f64::from(org.source_ips) * (1.0 + f64::from(strategy.port_count()).ln());
            Some((org, strategy, weight))
        })
        .collect();
    let total_weight: f64 = active.iter().map(|(_, _, w)| w).sum();
    if total_weight <= 0.0 {
        return;
    }

    let days = (gen.days as u64).max(1);
    let guarantee_all = year_cfg.year >= 2023;
    // If per-org rounding would starve every org despite a non-zero scan
    // budget, hand the whole allotment to the heaviest org.
    let starved = inst_scans >= 1
        && !guarantee_all
        && active.iter().all(|(org, _, w)| {
            let per_source = if org.daily_recurrence {
                days as f64
            } else {
                1.0
            };
            (inst_scans as f64 * w / total_weight / per_source).round() < 1.0
        });
    let heaviest = active
        .iter()
        .enumerate()
        .max_by(|a, b| a.1 .2.partial_cmp(&b.1 .2).unwrap())
        .map(|(i, _)| i)
        .unwrap_or(0);
    for (idx, (org, strategy, weight)) in active.iter().enumerate() {
        let (org, strategy, weight) = (*org, *strategy, *weight);
        let org_budget = inst_budget * weight / total_weight;
        // Campaign allotment drives the source count: daily-recurring orgs
        // produce `days` campaigns per source.
        let org_scans = inst_scans as f64 * weight / total_weight;
        let campaigns_per_source = if org.daily_recurrence { days } else { 1 };
        let mut sources = (org_scans / campaigns_per_source as f64).round() as u32;
        if sources == 0 && (guarantee_all || (starved && idx == heaviest)) {
            sources = 1;
        }
        if sources == 0 {
            continue;
        }
        let ports: Arc<[u16]> = top_ports(strategy.port_count()).into();
        let per_campaign_budget =
            (org_budget / (f64::from(sources) * campaigns_per_source as f64)).max(30.0) as u64;

        for s in 0..sources {
            let src = registry.org_source_ip(org.id, s);
            let crafter_seed = gen.seed ^ mix64(u64::from(org.id.0) << 20 | u64::from(s));
            let phase = rng.range(0..3_600_000_000u64);
            for c in 0..campaigns_per_source {
                // Daily mode: a ~3 h scan at the same hour every day — the
                // Figure 6 institutional recurrence signature.
                let start = c * 86_400_000_000 + phase;
                let duration = 10_800_000_000u64;
                if start + duration > window_micros {
                    break;
                }
                // Institutions revisit the popular service ports more often
                // than the long tail (Censys-style service refresh): a tenth
                // of the budget lands on the popularity head that the org
                // actually scans, the rest spreads over its full set —
                // calibrated so HTTPS ends up ~40% institutional (Fig 5).
                let head: Vec<u16> = POPULAR_SERVICE_PORTS
                    .iter()
                    .copied()
                    .filter(|p| ports.contains(p))
                    .collect();
                let head_budget = if head.is_empty() {
                    0
                } else {
                    per_campaign_budget / 10
                };
                if head_budget > 0 {
                    plan_emit(
                        specs,
                        rng,
                        dark,
                        start,
                        EmitterKind::Campaign {
                            tool: ToolKind::Zmap,
                            crafter_seed,
                            marked: year_cfg.orgs_use_marked_zmap,
                            src,
                            ports: head.into(),
                            duration_micros: duration,
                            budget: head_budget,
                        },
                    );
                }
                plan_emit(
                    specs,
                    rng,
                    dark,
                    start,
                    EmitterKind::Campaign {
                        tool: ToolKind::Zmap,
                        crafter_seed,
                        marked: year_cfg.orgs_use_marked_zmap,
                        src,
                        ports: ports.clone(),
                        duration_micros: duration,
                        budget: per_campaign_budget - head_budget,
                    },
                );
                truth.scans += 1;
                truth.org_scans += 1;
                truth.packets += per_campaign_budget;
                truth.org_packets += per_campaign_budget;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synscan_wire::stream::TryRecordStream;

    fn setup() -> (GeneratorConfig, InternetRegistry, AddressSet) {
        let gen = GeneratorConfig::tiny();
        let telescope = gen.telescope();
        let dark = AddressSet::build(&telescope);
        let registry = InternetRegistry::build(gen.seed, &telescope.blocks);
        (gen, registry, dark)
    }

    #[test]
    fn generation_is_deterministic() {
        let (gen, registry, dark) = setup();
        let cfg = YearConfig::for_year(2020);
        let a = generate_year(&cfg, &gen, &registry, &dark);
        let b = generate_year(&cfg, &gen, &registry, &dark);
        assert_eq!(a.records.len(), b.records.len());
        assert_eq!(a.records.first(), b.records.first());
        assert_eq!(a.records.last(), b.records.last());
        assert_eq!(a.truth.scans, b.truth.scans);
    }

    #[test]
    fn records_are_sorted_and_target_dark_space() {
        let (gen, registry, dark) = setup();
        let cfg = YearConfig::for_year(2019);
        let out = generate_year(&cfg, &gen, &registry, &dark);
        assert!(!out.records.is_empty());
        assert!(out
            .records
            .windows(2)
            .all(|w| w[0].ts_micros <= w[1].ts_micros));
        assert!(out.records.iter().all(|r| dark.contains(r.dst_ip)));
    }

    #[test]
    fn streamed_year_is_byte_identical_to_materialized() {
        let (gen, registry, dark) = setup();
        for year in [2017u16, 2020] {
            let cfg = YearConfig::for_year(year);
            let plan = plan_year(&cfg, &gen, &registry, &dark);
            let legacy = generate_year(&cfg, &gen, &registry, &dark);
            let materialized = plan.materialize(&dark);
            assert_eq!(materialized, legacy.records, "wrapper differs, year {year}");
            assert_eq!(plan.truth, legacy.truth, "truth differs, year {year}");
            assert_eq!(plan.total_records() as usize, materialized.len());

            let mut stream = plan.stream(&dark);
            let mut streamed = Vec::new();
            while let Some(batch) = stream.try_next_batch().unwrap() {
                streamed.extend_from_slice(batch);
            }
            assert_eq!(streamed, materialized, "heap merge differs, year {year}");
            assert_eq!(stream.emitted(), plan.total_records());
        }
    }

    #[test]
    fn streaming_never_buffers_the_whole_year() {
        let (gen, registry, dark) = setup();
        let cfg = YearConfig::for_year(2020);
        let plan = plan_year(&cfg, &gen, &registry, &dark);
        let total = plan.total_records() as usize;
        let mut stream = plan.stream(&dark);
        let mut batches = 0u64;
        while stream.try_next_batch().unwrap().is_some() {
            batches += 1;
        }
        assert!(batches > 1, "a year must span multiple batches");
        assert!(
            stream.peak_buffered_records() < total,
            "streaming buffered the whole year ({} of {total} records)",
            stream.peak_buffered_records()
        );
        assert!(
            stream.peak_open_emitters() < plan.emitters(),
            "every emitter was open at once ({} of {})",
            stream.peak_open_emitters(),
            plan.emitters()
        );
    }

    #[test]
    fn packet_volume_tracks_the_target() {
        let (gen, registry, dark) = setup();
        let cfg = YearConfig::for_year(2020);
        let out = generate_year(&cfg, &gen, &registry, &dark);
        let target = cfg.packets_per_day_full * gen.days / gen.volume_divisor();
        let actual = out.truth.packets as f64;
        // Heavy-tailed budgets: expect the right order of magnitude.
        assert!(
            actual > target * 0.4 && actual < target * 3.0,
            "target {target}, actual {actual}"
        );
    }

    #[test]
    fn growth_across_decade_endpoints() {
        let (gen, registry, dark) = setup();
        let y2015 = generate_year(&YearConfig::for_year(2015), &gen, &registry, &dark);
        let y2024 = generate_year(&YearConfig::for_year(2024), &gen, &registry, &dark);
        let growth = y2024.truth.packets as f64 / y2015.truth.packets as f64;
        assert!(growth > 8.0, "packets must grow decisively, got {growth}x");
        assert!(
            y2024.truth.scans > 3 * y2015.truth.scans,
            "scan count must grow"
        );
    }

    #[test]
    fn backscatter_is_mixed_in_and_not_syn() {
        let (gen, registry, dark) = setup();
        let out = generate_year(&YearConfig::for_year(2018), &gen, &registry, &dark);
        assert!(out.truth.backscatter_packets > 0);
        let non_syn = out.records.iter().filter(|r| !r.is_syn_scan()).count() as u64;
        assert_eq!(non_syn, out.truth.backscatter_packets);
    }

    #[test]
    fn mirai_packets_carry_the_fingerprint() {
        let (gen, registry, dark) = setup();
        let out = generate_year(&YearConfig::for_year(2017), &gen, &registry, &dark);
        let mirai_like = out
            .records
            .iter()
            .filter(|r| r.is_syn_scan() && r.seq == r.dst_ip.0)
            .count();
        assert!(
            mirai_like > 100,
            "2017 must be full of Mirai probes, saw {mirai_like}"
        );
    }

    #[test]
    fn org_traffic_present_and_substantial() {
        let (gen, registry, dark) = setup();
        // 2023: every active org is guaranteed a source (Figures 9/10).
        let out = generate_year(&YearConfig::for_year(2023), &gen, &registry, &dark);
        let share = out.truth.org_packets as f64 / out.truth.packets as f64;
        assert!(
            share > 0.15 && share < 0.7,
            "institutional share 2023 = {share}"
        );
        assert!(out.truth.org_scans > 10, "all orgs contribute campaigns");
    }

    #[test]
    fn org_scans_never_dominate_campaign_counts() {
        let (gen, registry, dark) = setup();
        let out = generate_year(&YearConfig::for_year(2020), &gen, &registry, &dark);
        let share = out.truth.org_scans as f64 / out.truth.scans.max(1) as f64;
        assert!(share < 0.3, "org scan share = {share}");
    }

    #[test]
    fn top_ports_prefers_known_services() {
        let ports = top_ports(10);
        assert_eq!(ports.len(), 10);
        assert!(ports.contains(&21));
        assert!(ports.contains(&22));
        let full = top_ports(65_536);
        assert_eq!(full.len(), 65_536);
        let distinct: std::collections::HashSet<u16> = full.iter().copied().collect();
        assert_eq!(distinct.len(), 65_536);
    }

    #[test]
    fn vertical_scans_respect_the_port_cap() {
        let (gen, registry, dark) = setup();
        let out = generate_year(&YearConfig::for_year(2020), &gen, &registry, &dark);
        assert!(!out.truth.vertical_scans.is_empty());
        assert!(out
            .truth
            .vertical_scans
            .keys()
            .all(|&p| p <= gen.vertical_ports_cap));
    }

    #[test]
    fn vertical_scans_exceed_10k_ports_when_budget_allows() {
        let (mut gen, _, _) = setup();
        gen.vertical_ports_cap = 65_536;
        gen.population_denominator = 500; // enough yearly budget for a 20k-port scan
        let telescope = gen.telescope();
        let dark = AddressSet::build(&telescope);
        let registry = InternetRegistry::build(gen.seed, &telescope.blocks);
        let out = generate_year(&YearConfig::for_year(2020), &gen, &registry, &dark);
        assert!(
            out.truth.vertical_scans.keys().any(|&p| p > 10_000),
            "saw {:?}",
            out.truth.vertical_scans
        );
    }
}
