//! The decade in one run: a small-scale reproduction of Table 1 plus the
//! paper's headline findings, printed as a report.
//!
//! ```text
//! cargo run --release --example decade_report
//! ```

use synscan::core::analysis::{portspread, toolports, types};
use synscan::experiment::{Experiment, RunOptions};
use synscan::netmodel::ScannerClass;
use synscan::GeneratorConfig;

fn main() {
    // Small scale: a 1/8 telescope with 1/640 of the campaign population —
    // a couple of seconds on a laptop.
    let gen = GeneratorConfig {
        telescope_denominator: 8,
        population_denominator: 640,
        days: 7.0,
        ..GeneratorConfig::default()
    };
    println!(
        "simulating 2015-2024: telescope 1/{}, population 1/{}, {} days per year ...\n",
        gen.telescope_denominator, gen.population_denominator, gen.days
    );
    // The default options are the plain run: no checkpoint, no stop flag,
    // no store — so nothing can interrupt it.
    let run = Experiment::new(gen)
        .decade(&RunOptions::default())
        .expect("a clean generator stream never faults")
        .completed()
        .expect("a plain run completes");

    let report = run.report();
    println!("{}", report.render_table1());

    println!("--- headline findings ---");
    println!(
        "scanning grew {:.0}x in packets/day (paper: ~30x) and {:.0}x in scans/month (paper: ~39x)",
        report.packets_per_day_growth().unwrap(),
        report.scans_per_month_growth().unwrap()
    );

    // Tool eras.
    let share = |year: u16, tool: &str| -> f64 {
        report
            .years
            .iter()
            .find(|y| y.year == year)
            .and_then(|y| y.tool_scan_shares.get(tool))
            .copied()
            .unwrap_or(0.0)
    };
    println!(
        "NMap led the tracked tools in 2015 ({:.0}% of scans); Mirai exploded in 2017 ({:.0}%); \
         Masscan carried the high-speed era ({:.0}% of 2020 scans); ZMap fleets surged in 2024 ({:.0}%)",
        share(2015, "nmap") * 100.0,
        share(2017, "mirai") * 100.0,
        share(2020, "masscan") * 100.0,
        share(2024, "zmap") * 100.0
    );

    // Single-port focus erodes (Figure 3).
    let single15 = portspread::single_port_fraction(&run.years[0].analysis);
    let single24 = portspread::single_port_fraction(&run.years[9].analysis);
    println!(
        "single-port scanners: {:.0}% of sources in 2015 -> {:.0}% in 2024 (paper: 83% -> ~65%)",
        single15 * 100.0,
        single24 * 100.0
    );

    // Tracked-tool traffic share peaks then collapses (§6.1).
    let tracked20 = toolports::tracked_tool_traffic_share(&run.years[5].analysis);
    let tracked24 = toolports::tracked_tool_traffic_share(&run.years[9].analysis);
    println!(
        "tracked tools carried {:.0}% of 2020 traffic but only {:.0}% of 2024 traffic \
         (paper: 92% -> <40%)",
        tracked20 * 100.0,
        tracked24 * 100.0
    );

    // Institutional scanners: tiny source share, huge packet share (Table 2).
    let shares = types::class_shares(&run.years[9].analysis, &run.registry);
    let inst = shares[&ScannerClass::Institutional];
    println!(
        "institutional scanners in 2024: {:.2}% of sources sent {:.0}% of packets \
         (paper decade-wide: 0.16% / 32.6%)",
        inst.sources * 100.0,
        inst.packets * 100.0
    );

    assert!(report.packets_per_day_growth().unwrap() > 8.0);
    assert!(share(2017, "mirai") > share(2015, "mirai"));
    assert!(tracked20 > tracked24, "fingerprint coverage must collapse");
    println!("\ndecade report OK");
}
