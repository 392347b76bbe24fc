//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--scale tiny|small|default] [--out DIR] [--store-dir DIR]
//!       [--heavy-hitters K[,WIDTH,DEPTH]]
//!       [--checkpoint-dir DIR] [--checkpoint-every N] [--resume]
//!       [--die-after-checkpoints K] [TARGET...]
//!
//! TARGET: table1 table2 fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10
//!         prose etl pcap all       (default: all)
//! ```
//!
//! The decade's one parallel level is the year: the years run in parallel,
//! each on one thread, *streamed* from the generator plan into the pipeline
//! in O(batch) memory. Sharding one year's stream over threads is
//! `analyze --pipeline sharded:N`, for one capture; `repro` refuses
//! `--pipeline` and `--ingest` as usage errors that say so.
//!
//! `--checkpoint-dir DIR` makes the run crash-safe: each year periodically
//! persists an atomic checkpoint of its full pipeline state, SIGINT/SIGTERM
//! trigger a final checkpoint before exiting, and `--resume` restarts a
//! killed run from the per-year checkpoints with bit-identical output — and
//! refuses checkpoints cut at another scale or seed.
//! `--die-after-checkpoints K` is the kill-and-resume drill: abort the
//! process (as a crash would) right after K periodic checkpoints per year. A
//! run in which no year reaches K cannot crash where asked, so it exits
//! with an error, never 0. A checkpointed run that fails says to re-run
//! with `--resume`.
//!
//! Every run's terminal state is written through the versioned analysis
//! store (`--store-dir`, default `OUT/store`): one `year-YYYY.store` slice
//! per year, written atomically the moment the year completes, so an
//! interrupted run leaves its finished years queryable. The tables and
//! figures are then rendered from the *reloaded* store image — not from the
//! in-memory run — so the artifacts double as a store round-trip proof, and
//! `synscan-serve` can answer queries over the same slices the batch run
//! produced.
//!
//! `--heavy-hitters K[,WIDTH,DEPTH]` turns on the sublinear heavy-hitter
//! layer: every year additionally carries a space-saving top-K tracker and
//! count-min rate sketch over raw source addresses (persisted through the
//! store slices), and the run prints and writes a per-year "network impact"
//! section (`heavy_hitters.json`) — top-K sources by packets and by rate,
//! per-source rate percentiles, and the aggressive-scanner census.
//!
//! Each target prints its reproduction to stdout and writes a JSON artifact
//! into the output directory. EXPERIMENTS.md records how the output compares
//! with the paper's numbers.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use synscan::core::analysis::YearAnalysis;
use synscan::core::analysis::{
    blocklist, events, geo, institutions, portspread, recurrence, speedcov, toolports, types,
    vertical, volatility,
};
use synscan::core::report::render_series;
use synscan::core::sketch::HeavyHitterConfig;
use synscan::core::store::{AnalysisStore, StoreImage};
use synscan::experiment::{DecadeRun, DecadeStatus, Experiment};
use synscan::netmodel::{InternetRegistry, ScannerClass};
use synscan::synthesis::fanout;
use synscan::wire::ingest::{IngestQueues, MappedCapture};
use synscan::wire::json::{self, ToJson};
use synscan::wire::FaultPolicy;
use synscan::{GeneratorConfig, RunError, RunOptions, ToolKind, YearConfig};

mod cli;
use cli::{flag_dir, flag_value, sig, CheckpointFlags};

const USAGE: &str = "usage: repro [--scale tiny|small|default] [--seed N] [--out DIR] \
                     [--store-dir DIR] [--heavy-hitters K[,WIDTH,DEPTH]] \
                     [--checkpoint-dir DIR] [--checkpoint-every N] [--resume] \
                     [--die-after-checkpoints K] [TARGET...]\
                     \n  --scale NAME        generator scale: tiny | small | default\
                     \n  --seed N            override the generator seed (u64)\
                     \n  --out DIR           artifact output directory (default ./out)\
                     \n  --store-dir DIR     analysis store directory holding the per-year \
                     slices every run persists and all rendering reads back \
                     (default OUT/store)\
                     \n  --heavy-hitters K[,WIDTH,DEPTH]  track the top-K sources per year \
                     in sublinear space (space-saving + count-min; default sketch \
                     2048x4) and emit the network-impact section\
                     \n  --checkpoint-dir D  persist per-year pipeline checkpoints into D; \
                     SIGINT/SIGTERM checkpoint before exiting\
                     \n  --checkpoint-every N  records between periodic checkpoints \
                     (default 500000; 0 = only on completion)\
                     \n  --resume            restart each year from its latest checkpoint \
                     in --checkpoint-dir\
                     \n  --die-after-checkpoints K  abort the process after K periodic \
                     checkpoints per year (kill-and-resume drill)\
                     \n  TARGET              table1 table2 fig1..fig10 prose etl pcap all \
                     (default all)";

const TARGETS: &[&str] = &[
    "table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "fig10", "prose", "etl", "pcap", "all",
];

fn run() -> Result<(), String> {
    let mut args = std::env::args().skip(1);
    let mut scale = "default".to_string();
    let mut out_dir = PathBuf::from("out");
    let mut store_dir: Option<PathBuf> = None;
    let mut seed_override: Option<u64> = None;
    let mut heavy: Option<HeavyHitterConfig> = None;
    let mut checkpoint = CheckpointFlags::default();
    let mut targets: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        if checkpoint.take(&arg, &mut args)? {
            continue;
        }
        match arg.as_str() {
            "--scale" => scale = flag_value(&mut args, "--scale", "tiny|small|default")?,
            "--out" => out_dir = flag_dir(&mut args, "--out")?,
            "--store-dir" => store_dir = Some(flag_dir(&mut args, "--store-dir")?),
            "--seed" => seed_override = Some(flag_value(&mut args, "--seed", "a u64 seed")?),
            "--pipeline" | "--ingest" => {
                return Err(format!(
                    "unknown flag `{arg}`: the decade runs each year on one thread; \
                     `analyze {arg}` sets it for one capture\n{USAGE}"
                ));
            }
            "--heavy-hitters" => heavy = Some(cli::heavy_hitters(&mut args)?),
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return Ok(());
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag `{other}`\n{USAGE}"));
            }
            other => {
                if !TARGETS.contains(&other) {
                    return Err(format!("unknown target `{other}`\n{USAGE}"));
                }
                targets.push(other.to_string());
            }
        }
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    let mut gen = match scale.as_str() {
        "tiny" => GeneratorConfig::tiny(),
        "small" => GeneratorConfig {
            telescope_denominator: 8,
            population_denominator: 640,
            days: 7.0,
            ..GeneratorConfig::default()
        },
        "default" => GeneratorConfig::default(),
        other => {
            return Err(format!(
                "--scale: invalid value `{other}` (tiny|small|default)"
            ))
        }
    };
    if let Some(seed) = seed_override {
        gen.seed = seed;
    }
    fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create output dir {}: {e}", out_dir.display()))?;
    let store_dir = store_dir.unwrap_or_else(|| out_dir.join("store"));
    let store = AnalysisStore::open(&store_dir)
        .map_err(|e| format!("cannot open analysis store {}: {e}", store_dir.display()))?;

    eprintln!(
        "[repro] scale={scale}: telescope 1/{}, population 1/{}, {} days/year, \
         one thread per year ({} at once)",
        gen.telescope_denominator,
        gen.population_denominator,
        gen.days,
        YearConfig::decade().len().min(fanout::width()),
    );
    eprintln!("[repro] generating and measuring the decade ...");
    let started = std::time::Instant::now();
    let experiment = Experiment::new(gen).with_heavy_hitters(heavy);
    let spec = checkpoint.spec()?;
    let opts = RunOptions {
        checkpoint: spec.as_ref(),
        // Without a checkpoint to cut there is nothing to stop for.
        stop: spec
            .as_ref()
            .map(|_| sig::install(&[sig::SIGINT, sig::SIGTERM])),
        store: Some(&store),
    };
    let status = experiment.decade(&opts).map_err(|e| match e {
        RunError::Checkpoint(_) => format!("decade run failed: {e}"),
        _ => format!("decade run failed: {e}{}", checkpoint.resume_hint()),
    })?;
    let run = match status {
        DecadeStatus::Completed { run } => {
            checkpoint.completed()?;
            run
        }
        DecadeStatus::Interrupted {
            completed,
            interrupted,
        } => {
            eprintln!(
                "[repro] interrupted: {completed} years completed and stored, years \
                 {interrupted:?} checkpointed"
            );
            return Err(checkpoint.interrupted("run"));
        }
    };
    eprintln!(
        "[repro] decade done in {:.1}s: {} packets admitted, {} campaigns",
        started.elapsed().as_secs_f64(),
        run.years
            .iter()
            .map(|y| y.analysis.total_packets)
            .sum::<u64>(),
        run.years
            .iter()
            .map(|y| y.analysis.campaigns.len())
            .sum::<usize>(),
    );

    // Render from the *reloaded* store image, not the in-memory run: every
    // artifact below is proof the slices on disk round-trip the analyses
    // bit-exactly, and `synscan-serve` answers from the very same files.
    let image = StoreImage::load(&store)
        .map_err(|e| format!("cannot load analysis store {}: {e}", store_dir.display()))?;
    eprintln!(
        "[repro] analysis store: {} slice file(s) covering years {:?} in {}",
        image.slice_files,
        image.year_list(),
        store_dir.display()
    );
    let DecadeRun {
        registry,
        monitored,
        ..
    } = run;
    let view = StoreView {
        years: image.years,
        registry,
        monitored,
    };

    let want = |t: &str| targets.iter().any(|x| x == t || x == "all");
    type Render = fn(&StoreView, &Path) -> Result<(), String>;
    let renderers: [(&[&str], Render); 12] = [
        (&["table1"], table1),
        (&["table2"], table2),
        (&["fig1"], fig1),
        (&["fig2"], fig2),
        (&["fig3"], fig3),
        (&["fig4"], fig4),
        (&["fig5"], fig5),
        (&["fig6"], fig6),
        (&["fig7"], fig7),
        (&["fig8", "fig9", "fig10"], fig8_9_10),
        (&["prose"], prose),
        (&["etl"], etl),
    ];
    for (names, render) in renderers {
        if names.iter().any(|name| want(name)) {
            render(&view, &out_dir)?;
        }
    }
    if want("pcap") {
        pcap_export(&gen, &out_dir)?;
    }
    if heavy.is_some() {
        heavy_report(&view, &out_dir)?;
    }
    Ok(())
}

/// The `--heavy-hitters` network-impact section, rendered (like every other
/// artifact) from the *reloaded* store image — so it doubles as proof the
/// sketch state round-trips the on-disk slices.
fn heavy_report(view: &StoreView, out: &Path) -> Result<(), String> {
    use synscan::core::report::network_impact_of;
    println!("=== network impact: per-year heavy hitters (sublinear sketch) ===");
    let mut artifact = Vec::new();
    for analysis in &view.years {
        let Some(impact) = network_impact_of(analysis) else {
            continue;
        };
        println!(
            "{}: top-{} of {} tracked sources, {} pkts | sketch {} B, eps*N <= {:.1}, {} evictions",
            impact.year,
            impact.config.k,
            impact.tracked_sources,
            impact.total_packets,
            impact.sketch_bytes,
            impact.epsilon * impact.total_packets as f64,
            impact.evictions,
        );
        for entry in impact.top_by_packets.iter().take(5) {
            println!(
                "  {:<16} {:>10} pkts (err <={:>6}) {:>10.1} pps  tool {:<12} origin {}",
                entry.source, entry.packets, entry.count_error, entry.pps, entry.tool, entry.origin,
            );
        }
        let p = &impact.rate_percentiles;
        println!(
            "  source pps percentiles  p50 {:.2}  p90 {:.2}  p99 {:.2}  max {:.2}",
            p.p50, p.p90, p.p99, p.max
        );
        artifact.push(impact);
    }
    if artifact.is_empty() {
        return Err("--heavy-hitters was set but no reloaded slice carries sketch state".into());
    }
    write_json(out, "heavy_hitters.json", &artifact)
}

/// What rendering needs from a finished run: the per-year analyses as read
/// back from the on-disk store, plus the world context the store does not
/// persist (the synthetic registry and the telescope size).
struct StoreView {
    /// Per-year analyses, ascending by year, reloaded from store slices.
    years: Vec<YearAnalysis>,
    /// The synthetic Internet the enrichment lookups resolve against.
    registry: InternetRegistry,
    /// Monitored telescope addresses.
    monitored: u64,
}

impl StoreView {
    fn year(&self, year: u16) -> Option<&YearAnalysis> {
        self.years.iter().find(|a| a.year == year)
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("repro: {e}");
        std::process::exit(1);
    }
}

/// Export one generated year's raw telescope arrivals as a classic pcap —
/// interoperable with tcpdump/wireshark, and re-importable by the pipeline.
/// The export is verified by re-importing it and checking the record
/// sequence round-trips exactly.
fn pcap_export(gen: &GeneratorConfig, out: &Path) -> Result<(), String> {
    use synscan::telescope::capture::export_pcap;
    println!("=== pcap export: raw 2020 telescope arrivals ===");
    let experiment = Experiment::new(GeneratorConfig {
        // A small slice is plenty for an interop artifact.
        telescope_denominator: gen.telescope_denominator.max(16),
        population_denominator: gen.population_denominator.max(1200),
        days: 2.0,
        ..*gen
    });
    // The pcap writer needs the records themselves, so this is the one
    // target that materializes a year instead of streaming it.
    let output = synscan::synthesis::generate::generate_year(
        &YearConfig::for_year(2020),
        experiment.config(),
        experiment.registry(),
        experiment.dark(),
    );
    let path = out.join("sample_2020.pcap");
    let file = fs::File::create(&path)
        .map_err(|e| format!("cannot create pcap {}: {e}", path.display()))?;
    export_pcap(&output.records, file)
        .map_err(|e| format!("cannot write pcap {}: {e}", path.display()))?;
    println!(
        "wrote {} ({} frames, {} scan packets + {} backscatter)",
        path.display(),
        output.records.len(),
        output.truth.packets,
        output.truth.backscatter_packets
    );
    // Read-back verification: the capture must re-import the identical
    // record sequence.
    let capture = MappedCapture::load(&path)
        .map_err(|e| format!("cannot re-open {}: {e}", path.display()))?;
    let failed = |e: &dyn std::fmt::Display| format!("re-import of {} failed: {e}", path.display());
    let plan =
        IngestQueues::over(capture.reader(), 1, FaultPolicy::Fail).map_err(|e| failed(&e))?;
    let (reimported, _) = plan.spawn().into_records().map_err(|e| failed(&e))?;
    if reimported != output.records {
        return Err(format!(
            "re-import mismatch: wrote {} records, read back {}",
            output.records.len(),
            reimported.len()
        ));
    }
    println!("verified: {} records round-trip", reimported.len());
    Ok(())
}

/// Appendix A: the two-phase known-scanner identification ETL, run against
/// synthesized Greynoise/rDNS-style feeds.
fn etl(view: &StoreView, out: &Path) -> Result<(), String> {
    use synscan::netmodel::etl as etl_mod;
    println!("=== Appendix A: known-scanner identification ETL ===");
    // Feeds label only 40% of org sources directly; keyword matching must
    // recover the rest (the paper's Phase 2).
    let feed = etl_mod::synthesize_feeds(&view.registry, 6, 0.4);
    let result = etl_mod::run_etl(&view.registry, &feed);
    println!(
        "feed: {} records | phase 1 (IP match): {} | phase 2 (keyword): {} | orgs identified: {}",
        feed.len(),
        result.phase1_matches,
        result.phase2_matches,
        result.organizations()
    );
    println!(
        "keyword list extracted from phase 1: {} keywords, e.g. {:?}",
        result.keywords.len(),
        &result.keywords[..result.keywords.len().min(6)]
    );
    // How much 2024 traffic the attributions cover (the appendix: 40 orgs =
    // 0.62% of sources, 50.86% of traffic).
    if let Some(yr) = view.year(2024) {
        use synscan::core::analysis::institutions;
        let (src_share, pkt_share) = institutions::known_org_shares(
            &yr.campaigns,
            &view.registry,
            yr.distinct_sources,
            yr.total_packets,
        );
        println!(
            "2024: identified orgs hold {:.2}% of sources and {:.1}% of traffic (paper: 0.62% / 50.86%)",
            src_share * 100.0,
            pkt_share * 100.0
        );
    }
    write_json(
        out,
        "etl.json",
        &json::object([
            ("feed_records", feed.len().to_json()),
            ("phase1", result.phase1_matches.to_json()),
            ("phase2", result.phase2_matches.to_json()),
            ("organizations", result.organizations().to_json()),
            ("keywords", result.keywords.to_json()),
        ]),
    )
}

fn write_json(out_dir: &Path, name: &str, value: &impl ToJson) -> Result<(), String> {
    let path = out_dir.join(name);
    fs::write(&path, value.to_json().to_string_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("[repro] wrote {}", path.display());
    Ok(())
}

fn table1(view: &StoreView, out: &Path) -> Result<(), String> {
    let report = synscan::core::report::DecadeReport::from_years(&view.years, 5);
    println!("=== Table 1: scan volume, top ports, tools by scans, 2015-2024 ===");
    println!("{}", report.render_table1());
    println!(
        "packets/day growth 2015->2024: {:.1}x (paper: ~31x)",
        report.packets_per_day_growth().unwrap_or(f64::NAN)
    );
    println!(
        "scans/month growth 2015->2024: {:.1}x (paper: ~39x)",
        report.scans_per_month_growth().unwrap_or(f64::NAN)
    );
    write_json(out, "table1.json", &report)
}

fn table2(view: &StoreView, out: &Path) -> Result<(), String> {
    // Table 2 is decade-wide: aggregate sources/scans/packets over all years.
    let mut agg: BTreeMap<ScannerClass, [f64; 3]> = BTreeMap::new();
    let mut totals = [0.0f64; 3];
    for analysis in &view.years {
        let shares = types::class_shares(analysis, &view.registry);
        let sources = analysis.distinct_sources as f64;
        let scans = analysis.campaigns.len() as f64;
        let packets = analysis.total_packets as f64;
        totals[0] += sources;
        totals[1] += scans;
        totals[2] += packets;
        for (class, share) in shares {
            let entry = agg.entry(class).or_default();
            entry[0] += share.sources * sources;
            entry[1] += share.scans * scans;
            entry[2] += share.packets * packets;
        }
    }
    println!("=== Table 2: scanner types (decade aggregate) ===");
    println!(
        "{:<15} {:>9} {:>9} {:>9}",
        "type", "sources", "scans", "packets"
    );
    let mut artifact = BTreeMap::new();
    for (class, sums) in &agg {
        let row = [
            sums[0] / totals[0] * 100.0,
            sums[1] / totals[1] * 100.0,
            sums[2] / totals[2] * 100.0,
        ];
        println!(
            "{:<15} {:>8.2}% {:>8.2}% {:>8.2}%",
            class.label(),
            row[0],
            row[1],
            row[2]
        );
        artifact.insert(class.label(), row);
    }
    write_json(out, "table2.json", &artifact)
}

fn fig1(view: &StoreView, out: &Path) -> Result<(), String> {
    println!("=== Figure 1: post-disclosure surge and decay ===");
    let mut artifact = Vec::new();
    for analysis in &view.years {
        for event in &YearConfig::for_year(analysis.year).events {
            let spec = events::EventSpec {
                port: event.port,
                disclosure_day: event.day,
            };
            let curve = events::event_curve(analysis, spec, 6);
            let ks = events::ks_return_to_normal(analysis, spec, 2, 4);
            println!(
                "{} port {:>5}: peak {:>5.1}x baseline, back under 2x after {:?} days, KS(after) D={}",
                analysis.year,
                event.port,
                curve.peak(),
                curve.days_to_return(2.0),
                ks.map(|k| format!("{:.3}", k.statistic))
                    .unwrap_or_else(|| "n/a".to_string())
            );
            artifact.push((analysis.year, event.port, curve.relative.clone()));
        }
    }
    write_json(out, "fig1.json", &artifact)
}

fn fig2(view: &StoreView, out: &Path) -> Result<(), String> {
    println!("=== Figure 2: weekly change per /16 (latest year) ===");
    let mut artifact = BTreeMap::new();
    for analysis in &view.years {
        let v = volatility::weekly_change(analysis);
        if v.packets.is_empty() {
            continue;
        }
        let (s2, c2, p2) = v.fraction_changing_by(2.0);
        let (s3, _, _) = v.fraction_changing_by(3.0);
        println!(
            "{}: >=2x change: sources {:.0}%, campaigns {:.0}%, packets {:.0}% | >=3x sources {:.0}%",
            analysis.year,
            s2 * 100.0,
            c2 * 100.0,
            p2 * 100.0,
            s3 * 100.0
        );
        // Full CDF series on a factor grid, for plotting.
        let grid: Vec<f64> = (0..40).map(|i| 1.0 + f64::from(i) * 0.25).collect();
        artifact.insert(
            analysis.year,
            json::object([
                ("ge2x", (s2, c2, p2).to_json()),
                ("ge3x_sources", s3.to_json()),
                ("sources_cdf", v.sources.series_on_grid(&grid).to_json()),
                ("packets_cdf", v.packets.series_on_grid(&grid).to_json()),
            ]),
        );
    }
    write_json(out, "fig2.json", &artifact)
}

fn fig3(view: &StoreView, out: &Path) -> Result<(), String> {
    println!("=== Figure 3: distinct ports per source (CDF head) ===");
    let mut artifact = BTreeMap::new();
    for analysis in &view.years {
        let single = portspread::single_port_fraction(analysis);
        let five_plus = portspread::at_least_n_ports_fraction(analysis, 5);
        let ten_plus = portspread::at_least_n_ports_fraction(analysis, 10);
        println!(
            "{}: exactly-1-port {:.0}%, >=5 ports {:.1}%, >=10 ports {:.1}%",
            analysis.year,
            single * 100.0,
            five_plus * 100.0,
            ten_plus * 100.0
        );
        let cdf = portspread::ports_per_source_cdf(analysis);
        let grid: Vec<f64> = [1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0, 100.0, 1000.0].to_vec();
        artifact.insert(
            analysis.year,
            json::object([
                ("single", single.to_json()),
                ("ge5", five_plus.to_json()),
                ("ge10", ten_plus.to_json()),
                ("cdf", cdf.series_on_grid(&grid).to_json()),
            ]),
        );
    }
    write_json(out, "fig3.json", &artifact)
}

fn fig4(view: &StoreView, out: &Path) -> Result<(), String> {
    println!("=== Figure 4: top-10 ports x tool mix ===");
    let mut artifact = BTreeMap::new();
    for analysis in &view.years {
        let rows = toolports::tool_mix_by_port(analysis, 10);
        let tracked = toolports::tracked_tool_traffic_share(analysis);
        println!(
            "{} (tracked tools carry {:.0}% of traffic):",
            analysis.year,
            tracked * 100.0
        );
        for row in rows.iter().take(5) {
            let mix = row
                .mix
                .iter()
                .filter(|(_, share)| **share > 0.005)
                .map(|(tool, share)| format!("{tool}:{:.0}%", share * 100.0))
                .collect::<Vec<_>>()
                .join(" ");
            println!(
                "  port {:>5} ({:>4.1}% of traffic): {}",
                row.port,
                row.traffic_share * 100.0,
                mix
            );
        }
        artifact.insert(analysis.year, (tracked, rows));
    }
    write_json(out, "fig4.json", &artifact)
}

fn fig5(view: &StoreView, out: &Path) -> Result<(), String> {
    println!("=== Figure 5: scanner types over the top-15 ports (latest year) ===");
    let Some(last) = view.years.last() else {
        return Err("decade run produced no years".to_string());
    };
    let rows = types::class_mix_by_port(last, &view.registry, 15);
    for row in &rows {
        let mix = row
            .mix
            .iter()
            .map(|(class, share)| format!("{}:{:.0}%", class.label(), share * 100.0))
            .collect::<Vec<_>>()
            .join(" ");
        println!("  port {:>5}: {}", row.port, mix);
    }
    write_json(out, "fig5.json", &rows)
}

fn fig6(view: &StoreView, out: &Path) -> Result<(), String> {
    println!("=== Figure 6: scanner recurrence and downtime ===");
    let campaigns: Vec<synscan::Campaign> = view
        .years
        .iter()
        .flat_map(|y| y.campaigns.iter().cloned())
        .collect();
    let rec = recurrence::recurrence(&campaigns, &view.registry);
    let mut artifact = BTreeMap::new();
    for class in ScannerClass::ALL {
        let many = rec.fraction_with_more_than(class, 5.0);
        let daily = rec.downtime_mode_fraction(class, 57_600.0, 115_200.0); // 16h..32h
        println!(
            "  {:<14} sources with >5 campaigns: {:>5.1}% | downtime in daily band: {:>5.1}%",
            class.label(),
            many * 100.0,
            daily * 100.0
        );
        artifact.insert(class.label(), (many, daily));
    }
    write_json(out, "fig6.json", &artifact)
}

fn fig7(view: &StoreView, out: &Path) -> Result<(), String> {
    println!("=== Figure 7: speed & coverage per scanner type (decade) ===");
    let campaigns: Vec<synscan::Campaign> = view
        .years
        .iter()
        .flat_map(|y| y.campaigns.iter().cloned())
        .collect();
    let sc = speedcov::by_class(&campaigns, &view.registry, view.monitored);
    let mut artifact = BTreeMap::new();
    let overall_mean: f64 = {
        let model = synscan::stats::TelescopeModel::new(view.monitored);
        let speeds: Vec<f64> = campaigns
            .iter()
            .map(|c| c.estimates(&model).rate_pps)
            .collect();
        speeds.iter().sum::<f64>() / speeds.len().max(1) as f64
    };
    for class in ScannerClass::ALL {
        let mean = sc.mean_speed(&class).unwrap_or(0.0);
        let fast = sc.fraction_faster_than(&class, 1000.0).unwrap_or(0.0);
        println!(
            "  {:<14} mean est. speed {:>12.0} pps ({:>5.1}x overall) | >1000 pps: {:>5.1}%",
            class.label(),
            mean,
            mean / overall_mean,
            fast * 100.0
        );
        artifact.insert(class.label(), (mean, mean / overall_mean, fast));
    }
    write_json(out, "fig7.json", &artifact)
}

fn fig8_9_10(view: &StoreView, out: &Path) -> Result<(), String> {
    for (fig, year) in [("fig9", 2023u16), ("fig10", 2024), ("fig8", 2024)] {
        let Some(yr) = view.year(year) else {
            continue;
        };
        let rows = institutions::org_port_coverage(&yr.campaigns, &view.registry);
        if fig == "fig8" {
            println!("=== Figure 8: port coverage of known scanners in 2024 ===");
            for row in &rows {
                println!(
                    "  {:<24} {:>6} ports ({:>5.1}% of range), {:>4} campaigns, {:>3} sources",
                    row.org,
                    row.ports_scanned,
                    row.port_range_fraction * 100.0,
                    row.campaigns,
                    row.sources
                );
            }
        }
        write_json(out, &format!("{fig}.json"), &rows)?;
    }
    println!("(fig9.json / fig10.json: 2023 vs 2024 per-org coverage artifacts)");
    Ok(())
}

fn prose(view: &StoreView, out: &Path) -> Result<(), String> {
    println!("=== Prose claims (P1-P5) ===");
    let mut artifact: BTreeMap<String, json::Value> = BTreeMap::new();

    // P2: port-space coverage and co-scanning.
    for analysis in &view.years {
        let y = analysis.year;
        if y == 2015 || y == 2020 || y == 2022 || y == 2024 {
            let cov = portspread::privileged_port_coverage(analysis, 0.01);
            let co = portspread::campaign_co_scan_fraction(analysis, 80, 8080).unwrap_or(0.0);
            println!(
                "{y}: privileged-port coverage {:.0}% | 80->8080 co-scan (campaigns) {:.0}%",
                cov * 100.0,
                co * 100.0
            );
            artifact.insert(
                format!("P2-{y}"),
                json::object([
                    ("privileged_coverage", cov.to_json()),
                    ("co_scan_80_8080", co.to_json()),
                ]),
            );
        }
    }

    // P3: vertical scans.
    for analysis in &view.years {
        let stats = vertical::vertical_stats(&analysis.campaigns, view.monitored);
        if stats.over_100_ports > 0 {
            println!(
                "{}: >100-port scans {} ({:.2}%), >1k {} , >10k {} | >1k mean {:.2} Gbps vs overall {:.1} Mbps",
                analysis.year,
                stats.over_100_ports,
                stats.over_100_fraction * 100.0,
                stats.over_1000_ports,
                stats.over_10000_ports,
                stats.over_1000_mean_bps / 1e9,
                stats.overall_mean_bps / 1e6,
            );
        }
        artifact.insert(format!("P3-{}", analysis.year), stats.to_json());
    }

    // P4: speed <-> ports correlation, geography.
    let campaigns: Vec<synscan::Campaign> = view
        .years
        .iter()
        .flat_map(|y| y.campaigns.iter().cloned())
        .collect();
    if let Some(r) = speedcov::speed_ports_correlation(&campaigns, view.monitored) {
        println!(
            "speed<->ports correlation: R={:.2} p={:.3} (paper: R=0.88, p<0.05)",
            r.r, r.p_value
        );
        artifact.insert(
            "P4-speed-ports".into(),
            json::object([("r", r.r.to_json()), ("p", r.p_value.to_json())]),
        );
    }
    for year in [2015u16, 2024] {
        if let Some(yr) = view.year(year) {
            let shares = geo::country_packet_shares(&yr.campaigns, &view.registry);
            let hhi = geo::country_concentration(&shares);
            let mut top: Vec<(String, f64)> = shares
                .iter()
                .map(|(c, s)| (c.code().to_string(), *s))
                .collect();
            top.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            println!(
                "{year}: top origins {} | HHI {hhi:.3}",
                top.iter()
                    .take(3)
                    .map(|(c, s)| format!("{c}:{:.0}%", s * 100.0))
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            artifact.insert(
                format!("P4-geo-{year}"),
                json::object([
                    ("hhi", hhi.to_json()),
                    ("top", top[..top.len().min(5)].to_json()),
                ]),
            );
        }
    }

    // §5.4: ports dominated >80% by one country (China 14,444, US 666 in
    // 2022). Per §6.8, institutional scanners are filtered out first —
    // otherwise the US-homed research fleets dominate every port they touch.
    if let Some(yr) = view.year(2022) {
        use synscan::netmodel::{Country, ScannerClass};
        let non_inst: Vec<synscan::Campaign> = yr
            .campaigns
            .iter()
            .filter(|c| view.registry.class(c.src_ip) != ScannerClass::Institutional)
            .cloned()
            .collect();
        let dom = geo::port_country_dominance_min(&non_inst, &view.registry, 20);
        for country in [Country::China, Country::UnitedStates, Country::Brazil] {
            let count = geo::dominated_port_count(&dom, country, 0.8);
            println!(
                "2022: {} dominates >80% of traffic on {count} ports",
                country.code()
            );
            artifact.insert(format!("P4-dominated-{}", country.code()), count.to_json());
        }
    }

    // §5.1: ports above the daily probe floor ("all ports >1,000/day by 2022",
    // scaled by the volume divisor here).
    for y in [2015u16, 2022, 2024] {
        if let Some(yr) = view.year(y) {
            let n = portspread::ports_above_daily_floor(yr, 2.0);
            println!("{y}: {n} distinct ports receive >=2 probes/day (scaled floor)");
            artifact.insert(format!("P2-floor-{y}"), n.to_json());
        }
    }

    // P5: tool speeds and top-speed trend.
    let years_slices: Vec<(u16, &[synscan::Campaign], u64)> = view
        .years
        .iter()
        .map(|y| (y.year, y.campaigns.as_slice(), view.monitored))
        .collect();
    if let Some(trend) = speedcov::top_speed_trend(&years_slices, 100) {
        println!(
            "top-100 speed trend over years: R={:.2} (paper: R=0.356, p<0.001)",
            trend.r
        );
        artifact.insert(
            "P5-top-speed-trend".into(),
            json::object([("r", trend.r.to_json()), ("p", trend.p_value.to_json())]),
        );
    }
    let sc = speedcov::by_tool(&campaigns, view.monitored);
    for tool in [
        ToolKind::Nmap,
        ToolKind::Masscan,
        ToolKind::Zmap,
        ToolKind::Mirai,
    ] {
        if let Some(mean) = sc.mean_speed(&tool) {
            println!("  mean est. speed {:<8} {:>12.0} pps", tool.name(), mean);
            artifact.insert(format!("P5-speed-{}", tool.name()), mean.to_json());
        }
    }

    // §5.1: services vs scans — no relation (paper R = 0.047). Institutional
    // traffic is filtered first (§6.8): research scanners *do* follow
    // deployment, which would manufacture a correlation.
    if let Some(yr) = view.year(2022) {
        let census = synscan::netmodel::PortCensus::synthesize(1, 100_000);
        let filtered = types::non_institutional_port_packets(yr, &view.registry);
        if let Some(r) = portspread::correlate_census(&filtered, &census) {
            println!(
                "services<->scans correlation (2022): R={:.3} (paper: R=0.047 — no relation)",
                r.r
            );
            artifact.insert(
                "P2-services-scans".into(),
                json::object([("r", r.r.to_json()), ("p", r.p_value.to_json())]),
            );
        }
    }

    // §4.4/§6.6 implication: blocklists decay within days.
    if let Some(yr) = view.year(2022) {
        let day = 86_400_000_000u64;
        let t0 = yr.start_micros;
        let decay = blocklist::blocklist_decay(&yr.campaigns, t0, day, 5);
        let series: Vec<String> = decay
            .iter()
            .map(|e| format!("{:.0}%", e.sources_blocked * 100.0))
            .collect();
        println!(
            "blocklist decay (2022, day-0 list vs days 1-5 sources): {}",
            series.join(" ")
        );
        artifact.insert("P-blocklist-decay".into(), decay.to_json());
    }

    // §6.1: the Unicorn rarity — 2 distinct source IPs across the decade.
    let unicorn_sources: std::collections::HashSet<u32> = view
        .years
        .iter()
        .flat_map(|y| y.campaigns.iter())
        .filter(|c| c.tool() == Some(ToolKind::Unicorn))
        .map(|c| c.src_ip.0)
        .collect();
    println!(
        "Unicornscan sources across the decade: {} (paper: exactly 2)",
        unicorn_sources.len()
    );
    artifact.insert("P5-unicorn-sources".into(), unicorn_sources.len().to_json());

    // §6.2: Mirai fingerprint port spread in 2020 (paper: 99.6% of ports —
    // here bounded by the scaled packet budget, reported as a count).
    if let Some(yr) = view.year(2020) {
        let mirai_ports: std::collections::HashSet<u16> = yr
            .tool_port_packets
            .iter()
            .filter(|((tool, _), _)| *tool == Some(ToolKind::Mirai))
            .map(|((_, port), _)| *port)
            .collect();
        println!(
            "2020: the Mirai fingerprint appears on {} distinct ports",
            mirai_ports.len()
        );
        artifact.insert(
            "P6-mirai-port-spread-2020".into(),
            mirai_ports.len().to_json(),
        );
    }

    // §4.1: ZMap scans per day, min/max (paper 2023: min 3,448 / max 9,051;
    // 2024: min 17,122 — "not even close").
    for y in [2023u16, 2024] {
        if let Some(yr) = view.year(y) {
            let mut per_day: BTreeMap<u64, u64> = BTreeMap::new();
            let t0 = yr.start_micros;
            for c in &yr.campaigns {
                if c.tool() == Some(ToolKind::Zmap) {
                    *per_day
                        .entry(c.first_ts_micros.saturating_sub(t0) / 86_400_000_000)
                        .or_default() += 1;
                }
            }
            let min = per_day.values().min().copied().unwrap_or(0);
            let max = per_day.values().max().copied().unwrap_or(0);
            println!("{y}: ZMap scans/day min {min} max {max}");
            artifact.insert(
                format!("P1-zmap-per-day-{y}"),
                json::object([("min", min.to_json()), ("max", max.to_json())]),
            );
        }
    }

    // P1: the 2024 ZMap fleet surge.
    let mut series = Vec::new();
    for analysis in &view.years {
        let zmap_scans = analysis
            .campaigns
            .iter()
            .filter(|c| c.tool() == Some(ToolKind::Zmap))
            .count();
        series.push((analysis.year, zmap_scans));
    }
    println!(
        "{}",
        render_series("ZMap campaigns per year (P1: 2024 surge)", series.clone())
    );
    artifact.insert("P1-zmap-scans".into(), series.to_json());

    write_json(out, "prose.json", &artifact)
}
