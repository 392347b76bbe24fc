//! Quickstart: the full measurement loop on real scans.
//!
//! Two scans hit the telescope:
//!
//! 1. an **Internet-wide** ZMap scan of port 443 at 100,000 pps, projected
//!    onto the dark space (the paper's standard case — the campaign
//!    detector's speed/coverage extrapolations should recover the truth);
//! 2. a **targeted** sweep of a single /16 using the *actual* ZMap
//!    target-selection algorithm (the multiplicative cyclic-group walk over
//!    ℤ*ₚ) — which the pipeline, assuming Internet-wide behaviour, vastly
//!    overestimates: the single-vantage-point bias §7 of the paper warns
//!    about, reproduced live.
//!
//! Both are captured, written to pcap, read back, fingerprinted and grouped
//! into campaigns — §3 of the paper end to end.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use synscan::stats::Rng;

use synscan::core::analysis::YearCollector;
use synscan::core::CampaignConfig;
use synscan::scanners::thinning::{project_onto_telescope, ScanSpec, TargetSpace};
use synscan::scanners::traits::{craft_record, TargetOrder};
use synscan::scanners::zmap::ZmapScanner;
use synscan::scanners::CyclicIter;
use synscan::telescope::capture::{export_pcap, import_pcap};
use synscan::telescope::{AddressSet, TelescopeConfig};
use synscan::wire::Ipv4Address;

fn main() {
    // The telescope: dark addresses spread over three /16s (scaled 1/16 so
    // the example runs in milliseconds).
    let telescope = TelescopeConfig::paper_scaled(16);
    let dark = AddressSet::build(&telescope);
    println!(
        "telescope: {} dark addresses across three /16 blocks\n",
        dark.len()
    );

    // ---- Scan 1: Internet-wide ZMap at 100 kpps ------------------------
    let mut rng = Rng::seed_from_u64(1);
    let zmap_wide = ZmapScanner::new(0xa11);
    let spec = ScanSpec {
        start_micros: 0,
        rate_pps: 100_000.0,
        targets: TargetSpace::internet_wide(vec![443]),
        order: TargetOrder::CyclicGroup,
        coverage: 1.0,
    };
    let wide = project_onto_telescope(
        &mut rng,
        &zmap_wide,
        Ipv4Address::new(198, 51, 100, 7),
        &spec,
        &dark,
        12,
    );
    println!(
        "scan 1 (internet-wide): {:.2e} probes sent, {} hit the telescope over {:.1} h",
        wide.probes_sent as f64,
        wide.records.len(),
        wide.duration_secs / 3600.0
    );

    // ---- Scan 2: a targeted /16 sweep in true cyclic-group order --------
    let zmap_targeted = ZmapScanner::new(0xb22);
    let scanner_ip = Ipv4Address::new(203, 0, 113, 66);
    let block_base = u32::from(dark.blocks()[0]) << 16;
    let offset_base = wide.records.last().unwrap().ts_micros + 3_600_000_000;
    let mut targeted = Vec::new();
    for (i, offset) in CyclicIter::new(1 << 16, 7).enumerate() {
        let dst = Ipv4Address(block_base | offset as u32);
        if !dark.contains(dst) {
            continue; // a populated host: its traffic never reaches us
        }
        let ts = offset_base + (i as f64 / 10_000.0 * 1e6) as u64;
        targeted.push(craft_record(
            &zmap_targeted,
            scanner_ip,
            dst,
            443,
            i as u64,
            ts,
            9,
        ));
    }
    println!(
        "scan 2 (one /16 targeted): 65,536 probes sent, {} hit dark space",
        targeted.len()
    );

    // ---- pcap round trip -------------------------------------------------
    let mut records = wide.records.clone();
    records.extend(targeted);
    records.sort_by_key(|r| r.ts_micros);
    let pcap_bytes = export_pcap(&records, Vec::new()).expect("pcap export");
    let replayed = import_pcap(std::io::Cursor::new(&pcap_bytes)).expect("pcap import");
    assert_eq!(replayed, records);
    println!(
        "pcap: {} bytes round-tripped losslessly\n",
        pcap_bytes.len()
    );

    // ---- The §3 measurement pipeline -------------------------------------
    let mut collector = YearCollector::new(2024, CampaignConfig::scaled(dark.len() as u64));
    for record in &replayed {
        collector.offer(record);
    }
    let analysis = collector.finish();
    let model = analysis.model();

    for campaign in &analysis.campaigns {
        let est = campaign.estimates(&model);
        let which = if campaign.src_ip == scanner_ip {
            "targeted /16"
        } else {
            "internet-wide"
        };
        println!("campaign from {} ({which}):", campaign.src_ip);
        println!(
            "  tool {:?} | {} packets | est. rate {:.0} pps | est. coverage {:.3}% of IPv4",
            campaign.tool(),
            campaign.packets,
            est.rate_pps,
            est.ipv4_coverage * 100.0
        );
    }

    // The Internet-wide campaign's estimates recover the ground truth...
    let wide_campaign = analysis
        .campaigns
        .iter()
        .find(|c| c.src_ip != scanner_ip)
        .expect("wide campaign detected");
    let est = wide_campaign.estimates(&model);
    assert_eq!(wide_campaign.tool(), Some(synscan::ToolKind::Zmap));
    assert!(
        (est.rate_pps / 100_000.0 - 1.0).abs() < 0.25,
        "rate estimate {} should be near 100k pps",
        est.rate_pps
    );
    assert!(est.ipv4_coverage > 0.9, "full IPv4 coverage recovered");

    // ...while the targeted /16 scan is *overestimated* by the Internet-wide
    // assumption — the single-vantage bias of §7.
    let targeted_campaign = analysis
        .campaigns
        .iter()
        .find(|c| c.src_ip == scanner_ip)
        .expect("targeted campaign detected");
    let t_est = targeted_campaign.estimates(&model);
    println!(
        "\nnote: the targeted scan really covered 0.0015% of IPv4, but the\n\
         pipeline, assuming Internet-wide random probing, estimates {:.1}% —\n\
         the geographically-targeted-scan bias the paper's §7 cautions about.",
        t_est.ipv4_coverage * 100.0
    );
    assert!(t_est.ipv4_coverage > 0.1);
    println!("\nquickstart OK");
}
