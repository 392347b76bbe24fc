//! Ablations of the methodology's design choices (§3.4's thresholds and the
//! fingerprint's pairwise machinery), run on a fixed generated year:
//! `cargo run --release --example ablation`.
//!
//! Printed tables show how the measured ecosystem changes as each knob
//! moves — the justification behind the paper's parameter choices:
//!
//! * **destination threshold**: too low → noise floods the campaign list;
//!   too high → small sharded scans disappear (exactly the 2024 fleet
//!   signal).
//! * **idle expiry**: too short → slow scanners shatter into fragments;
//!   too long → daily institutional scans merge and the Figure 6 recurrence
//!   mode vanishes.
//! * **pairwise fingerprinting**: disabling the NMap/Unicorn matchers shows
//!   how much attribution the single-packet rules alone would lose.

use synscan_core::campaign::{CampaignConfig, CampaignDetector};
use synscan_core::fingerprint::rules::single_packet_verdict;
use synscan_netmodel::InternetRegistry;
use synscan_scanners::traits::ToolKind;
use synscan_synthesis::generate::{generate_year, GeneratorConfig};
use synscan_synthesis::yearcfg::YearConfig;
use synscan_telescope::{AddressSet, CaptureSession};
use synscan_wire::ProbeRecord;

fn banner(artifact: &str, paper_ref: &str) {
    println!("\n================================================================");
    println!("{artifact}  ({paper_ref})");
    println!("================================================================");
}

fn admitted(year: u16) -> (Vec<ProbeRecord>, u64) {
    // 1/16 telescope, 1/1200 population, 5 days: seconds per table.
    let gen = GeneratorConfig {
        telescope_denominator: 16,
        population_denominator: 1200,
        days: 5.0,
        ..GeneratorConfig::default()
    };
    let telescope = gen.telescope();
    let dark = AddressSet::build(&telescope);
    let registry = InternetRegistry::build(gen.seed, &telescope.blocks);
    let output = generate_year(&YearConfig::for_year(year), &gen, &registry, &dark);
    let mut session = CaptureSession::new(&dark, year);
    let records: Vec<ProbeRecord> = output
        .records
        .into_iter()
        .filter(|r| session.offer(r))
        .collect();
    (records, dark.len() as u64)
}

fn detect(records: &[ProbeRecord], config: CampaignConfig) -> (usize, u64) {
    let mut detector = CampaignDetector::new(config);
    for r in records {
        detector.admit(r);
    }
    let (campaigns, noise) = detector.finish();
    (campaigns.len(), noise.rejected_packets)
}

fn ablate_thresholds(records: &[ProbeRecord], monitored: u64) {
    banner(
        "ablation: campaign thresholds",
        "§3.4 — why >=100 dests (scaled) and the scaled expiry",
    );
    let base = CampaignConfig::scaled(monitored);
    println!(
        "baseline: min_dests={} expiry={:.0}s",
        base.min_distinct_dests, base.expiry_secs
    );
    println!(
        "\n{:>10} {:>10} {:>14}",
        "min_dests", "campaigns", "noise pkts"
    );
    for dests in [
        1u64,
        2,
        base.min_distinct_dests,
        4 * base.min_distinct_dests,
        400,
    ] {
        let (campaigns, noise) = detect(
            records,
            CampaignConfig {
                min_distinct_dests: dests,
                ..base
            },
        );
        println!("{dests:>10} {campaigns:>10} {noise:>14}");
    }
    println!("\n{:>10} {:>10}", "expiry (h)", "campaigns");
    for hours in [0.25f64, 1.0, base.expiry_secs / 3600.0, 12.0, 48.0] {
        let (campaigns, _) = detect(
            records,
            CampaignConfig {
                expiry_secs: hours * 3600.0,
                ..base
            },
        );
        println!("{hours:>10.2} {campaigns:>10}");
    }
}

fn ablate_pairwise(records: &[ProbeRecord], monitored: u64, year: u16) {
    banner(
        "ablation: pairwise fingerprinting",
        "§3.3 — what the NMap/Unicorn matchers add over single-packet rules",
    );
    println!("dataset year: {year} (the NMap era for 2015)");
    let mut detector = CampaignDetector::new(CampaignConfig::scaled(monitored));
    let mut with_pairwise = 0u64;
    let mut single_only = 0u64;
    let mut nmap_or_unicorn = 0u64;
    for r in records {
        let (verdict, _) = detector.admit(r);
        if let Some(tool) = verdict.tool() {
            with_pairwise += 1;
            if matches!(tool, ToolKind::Nmap | ToolKind::Unicorn) {
                nmap_or_unicorn += 1;
            }
        }
        if single_packet_verdict(r).is_some() {
            single_only += 1;
        }
    }
    let n = records.len() as f64;
    println!(
        "single-packet rules alone: {:.2}% of packets attributed",
        single_only as f64 / n * 100.0
    );
    println!(
        "with pairwise matchers:    {:.2}% ({:.3}% from NMap/Unicorn relations)",
        with_pairwise as f64 / n * 100.0,
        nmap_or_unicorn as f64 / n * 100.0
    );
}

fn main() {
    let (records, monitored) = admitted(2024);
    println!("ablation dataset: {} admitted 2024 records", records.len());
    ablate_thresholds(&records, monitored);
    // Pairwise matters where NMap lives: 2015 (31.7% of scans in the paper).
    let (records_2015, monitored_2015) = admitted(2015);
    ablate_pairwise(&records_2015, monitored_2015, 2015);
    ablate_pairwise(&records, monitored, 2024);
}
