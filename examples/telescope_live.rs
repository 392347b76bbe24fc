//! A "live" telescope session: streaming capture, filtering, and on-the-fly
//! fingerprinting of mixed traffic.
//!
//! Simultaneously active against the telescope: a Mirai bot (random targets,
//! Telnet with the 2323 dice-roll, `seq = dstIP`), an NMap session (reused
//! keystream), a Unicornscan rarity, a custom tool nobody can fingerprint,
//! and a DDoS victim's SYN/ACK backscatter. The capture session separates
//! scans from backscatter with the §3.2 SYN filter and applies the 23/445
//! ingress block; the fingerprint engine attributes each admitted probe as
//! it arrives.
//!
//! ```text
//! cargo run --release --example telescope_live
//! ```

use std::collections::BTreeMap;
use synscan::stats::Rng;

use synscan::core::FingerprintEngine;
use synscan::scanners::custom::CustomScanner;
use synscan::scanners::mirai::MiraiScanner;
use synscan::scanners::nmap::NmapScanner;
use synscan::scanners::traits::craft_record;
use synscan::scanners::unicorn::UnicornScanner;
use synscan::telescope::{AddressSet, BackscatterGenerator, CaptureSession, TelescopeConfig};
use synscan::wire::{Ipv4Address, ProbeRecord};
use synscan::ToolKind;

fn main() {
    let telescope = TelescopeConfig::paper_scaled(32);
    let dark = AddressSet::build(&telescope);
    let mut rng = Rng::seed_from_u64(99);

    // ---- Generate one hour of mixed arrivals ----------------------------
    let mut arrivals: Vec<ProbeRecord> = Vec::new();

    // A Mirai bot probing random dark addresses (Telnet 23/2323).
    let mirai = MiraiScanner::new(1);
    let bot_ip = Ipv4Address::new(77, 88, 99, 3);
    for i in 0..400u64 {
        let dst = dark.addresses()[(i as usize * 131) % dark.len()];
        let port = mirai.pick_port(i);
        arrivals.push(craft_record(&mirai, bot_ip, dst, port, i, i * 9_000_000, 7));
    }

    // An NMap operator sweeping SSH.
    let nmap = NmapScanner::new(2);
    let nmap_ip = Ipv4Address::new(203, 0, 113, 10);
    for i in 0..300u64 {
        let dst = dark.addresses()[(i as usize * 277) % dark.len()];
        arrivals.push(craft_record(
            &nmap,
            nmap_ip,
            dst,
            22,
            i,
            500 + i * 12_000_000,
            9,
        ));
    }

    // The Unicornscan rarity (the paper saw exactly 2 IPs ever use it).
    let unicorn = UnicornScanner::new(3);
    let unicorn_ip = Ipv4Address::new(198, 51, 100, 44);
    for i in 0..150u64 {
        let dst = dark.addresses()[(i as usize * 419) % dark.len()];
        arrivals.push(craft_record(
            &unicorn,
            unicorn_ip,
            dst,
            80,
            i,
            900 + i * 24_000_000,
            6,
        ));
    }

    // A custom tool with no invariant.
    let custom = CustomScanner::new(4);
    let custom_ip = Ipv4Address::new(100, 22, 33, 44);
    for i in 0..300u64 {
        let dst = dark.addresses()[(i as usize * 613) % dark.len()];
        arrivals.push(craft_record(
            &custom,
            custom_ip,
            dst,
            8080,
            i,
            1_300 + i * 12_000_000,
            15,
        ));
    }

    // Backscatter from a victim whose attacker spoofed our dark space.
    let backscatter = BackscatterGenerator {
        victim: Ipv4Address::new(192, 0, 2, 80),
        service_port: 80,
        rate_pps: 0.1,
        syn_ack_fraction: 0.75,
    };
    arrivals.extend(backscatter.generate(&mut rng, &dark, 0, 3600.0));

    arrivals.sort_by_key(|r| r.ts_micros);
    println!(
        "{} frames arrive at the telescope over one hour\n",
        arrivals.len()
    );

    // ---- Stream them through capture + fingerprinting -------------------
    let mut session = CaptureSession::new(&dark, 2020); // 23/445 blocked
    let mut engine = FingerprintEngine::new();
    let mut verdicts: BTreeMap<Ipv4Address, BTreeMap<String, u64>> = BTreeMap::new();
    for record in &arrivals {
        if !session.offer(record) {
            continue;
        }
        let verdict = engine.classify(record);
        let label = verdict
            .tool()
            .map(|t| t.name().to_string())
            .unwrap_or_else(|| "unattributed".to_string());
        *verdicts
            .entry(record.src_ip)
            .or_default()
            .entry(label)
            .or_default() += 1;
    }

    let stats = session.stats();
    println!("capture filter results (§3.2):");
    println!("  offered          {}", stats.offered);
    println!(
        "  ingress-blocked  {} (port 23 after the Mirai advent)",
        stats.ingress_blocked
    );
    println!(
        "  backscatter      {} (SYN/ACK + RST, not scans)",
        stats.backscatter
    );
    println!("  admitted scans   {}\n", stats.admitted);

    println!("per-source attribution (§3.3):");
    for (src, counts) in &verdicts {
        let summary: Vec<String> = counts.iter().map(|(t, c)| format!("{t}:{c}")).collect();
        println!("  {src:<16} {}", summary.join(" "));
    }

    // Sanity: each actor got the right label.
    let majority = |src: Ipv4Address| -> String {
        verdicts[&src]
            .iter()
            .max_by_key(|(_, c)| **c)
            .map(|(t, _)| t.clone())
            .unwrap()
    };
    assert_eq!(majority(bot_ip), ToolKind::Mirai.name());
    assert_eq!(majority(nmap_ip), ToolKind::Nmap.name());
    assert_eq!(majority(unicorn_ip), ToolKind::Unicorn.name());
    assert_eq!(majority(custom_ip), "unattributed");
    assert!(stats.ingress_blocked > 0, "port-23 probes were dropped");
    assert!(stats.backscatter > 0, "backscatter was separated");
    println!("\ntelescope live OK");
}
