//! Cross-crate fingerprinting: every tool implementation, projected onto a
//! telescope through the thinning machinery, must be attributed correctly
//! by the measurement pipeline — and fingerprint-free tools must not.

use synscan::stats::Rng;

use synscan::core::analysis::YearCollector;
use synscan::core::CampaignConfig;
use synscan::scanners::custom::CustomScanner;
use synscan::scanners::masscan::MasscanScanner;
use synscan::scanners::mirai::MiraiScanner;
use synscan::scanners::nmap::NmapScanner;
use synscan::scanners::thinning::{project_onto_telescope, ScanSpec, TargetSpace};
use synscan::scanners::traits::{ProbeCrafter, TargetOrder};
use synscan::scanners::unicorn::UnicornScanner;
use synscan::scanners::zmap::ZmapScanner;
use synscan::telescope::{AddressSet, TelescopeConfig};
use synscan::wire::Ipv4Address;
use synscan::ToolKind;

fn dark() -> AddressSet {
    AddressSet::build(&TelescopeConfig::paper_scaled(32))
}

fn run_scan<C: ProbeCrafter>(
    crafter: &C,
    src: u32,
    order: TargetOrder,
    ports: Vec<u16>,
) -> Option<ToolKind> {
    let dark = dark();
    let mut rng = Rng::seed_from_u64(u64::from(src));
    let spec = ScanSpec {
        start_micros: 0,
        rate_pps: 50_000.0,
        targets: TargetSpace::internet_wide(ports),
        order,
        coverage: 1.0,
    };
    let projected = project_onto_telescope(&mut rng, crafter, Ipv4Address(src), &spec, &dark, 10);
    assert!(
        projected.records.len() > 100,
        "an internet-wide scan hits a /32-scale telescope plenty"
    );
    let mut collector = YearCollector::new(2024, CampaignConfig::scaled(dark.len() as u64));
    for record in &projected.records {
        collector.offer(record);
    }
    let analysis = collector.finish();
    assert_eq!(analysis.campaigns.len(), 1, "one scan, one campaign");
    analysis.campaigns[0].tool()
}

#[test]
fn zmap_attributed_through_projection() {
    let tool = run_scan(
        &ZmapScanner::new(1),
        0x0101_0101,
        TargetOrder::CyclicGroup,
        vec![443],
    );
    assert_eq!(tool, Some(ToolKind::Zmap));
}

#[test]
fn unmarked_zmap_is_not_attributed() {
    let tool = run_scan(
        &ZmapScanner::unmarked(1),
        0x0101_0102,
        TargetOrder::CyclicGroup,
        vec![443],
    );
    assert_eq!(
        tool, None,
        "post-2023 institutional builds evade the ip.id rule"
    );
}

#[test]
fn masscan_attributed_through_projection() {
    let tool = run_scan(
        &MasscanScanner::new(2),
        0x0202_0202,
        TargetOrder::BlackRock,
        vec![80, 8080],
    );
    assert_eq!(tool, Some(ToolKind::Masscan));
}

#[test]
fn mirai_attributed_through_projection() {
    let tool = run_scan(
        &MiraiScanner::with_ports(3, vec![2323]),
        0x0303_0303,
        TargetOrder::UniformRandom,
        vec![2323],
    );
    assert_eq!(tool, Some(ToolKind::Mirai));
}

#[test]
fn nmap_attributed_through_projection() {
    let tool = run_scan(
        &NmapScanner::new(4),
        0x0404_0404,
        TargetOrder::Sequential,
        vec![22],
    );
    assert_eq!(tool, Some(ToolKind::Nmap));
}

#[test]
fn unicorn_attributed_through_projection() {
    let tool = run_scan(
        &UnicornScanner::new(5),
        0x0505_0505,
        TargetOrder::Sequential,
        vec![80],
    );
    assert_eq!(tool, Some(ToolKind::Unicorn));
}

#[test]
fn custom_tool_stays_unattributed() {
    let tool = run_scan(
        &CustomScanner::new(6),
        0x0606_0606,
        TargetOrder::Sequential,
        vec![9999],
    );
    assert_eq!(tool, None);
}

#[test]
fn interleaved_tools_do_not_cross_contaminate() {
    // Two scanners interleaved in one stream: each campaign attributes to
    // its own tool even though their packets alternate at the telescope.
    let dark = dark();
    let mut rng = Rng::seed_from_u64(7);
    let zmap = ZmapScanner::new(7);
    let nmap = NmapScanner::new(8);
    let spec = ScanSpec {
        start_micros: 0,
        rate_pps: 50_000.0,
        targets: TargetSpace::internet_wide(vec![443]),
        order: TargetOrder::CyclicGroup,
        coverage: 1.0,
    };
    let a = project_onto_telescope(&mut rng, &zmap, Ipv4Address(0x0707_0707), &spec, &dark, 10);
    let b = project_onto_telescope(&mut rng, &nmap, Ipv4Address(0x0808_0808), &spec, &dark, 10);
    let mut merged: Vec<_> = a.records.iter().chain(b.records.iter()).cloned().collect();
    merged.sort_by_key(|r| r.ts_micros);

    let mut collector = YearCollector::new(2024, CampaignConfig::scaled(dark.len() as u64));
    for record in &merged {
        collector.offer(record);
    }
    let analysis = collector.finish();
    assert_eq!(analysis.campaigns.len(), 2);
    for campaign in &analysis.campaigns {
        let expected = if campaign.src_ip == Ipv4Address(0x0707_0707) {
            ToolKind::Zmap
        } else {
            ToolKind::Nmap
        };
        assert_eq!(
            campaign.tool(),
            Some(expected),
            "campaign {}",
            campaign.src_ip
        );
        // Attribution is near-unanimous, not a marginal majority.
        let total_votes: u64 = campaign.tool_votes.values().sum();
        let winning = campaign.tool_votes[&expected];
        assert!(
            winning * 10 >= total_votes * 9,
            "votes: {:?}",
            campaign.tool_votes
        );
    }
}
