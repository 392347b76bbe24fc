//! Two stability facts the store and every reproduced number rest on.
//!
//! **Format.** Slices written by an older build — the committed
//! `tests/data/store/*.store`, encoded by the last hash-map-keyed
//! `YearAnalysis` — load, and encode back to the bytes they were read from.
//!
//! **Floats.** However a year's analysis was assembled — one sequential
//! pass, a three-shard `merge_partials`, or a round trip through a slice —
//! every float the figure modules derive from it has the same bits.

use std::path::PathBuf;

use synscan::core::analysis::{
    events, portspread, toolports, types, volatility, yearly, YearAnalysis,
};
use synscan::core::store::{decode_year, encode_year, AnalysisStore, StoreImage};
use synscan::experiment::Experiment;
use synscan::netmodel::InternetRegistry;
use synscan::{GeneratorConfig, PipelineMode, RunOptions, YearConfig};

fn golden(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data/store")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn golden_slices_decode_and_encode_back_to_their_bytes() {
    // Tiny-scale years of seed 20240915, the second with `--heavy-hitters
    // 8,64,2` so the sketch section is pinned too.
    for (name, year, heavy) in [
        ("year-2015.store", 2015, false),
        ("year-2016-heavy.store", 2016, true),
    ] {
        let bytes = golden(name);
        let analysis = decode_year(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(analysis.year, year, "{name}");
        assert_eq!(analysis.heavy.is_some(), heavy, "{name}");
        assert!(analysis.source_packets.len() > 50 && analysis.campaigns.len() > 10);
        assert!(
            encode_year(&analysis) == bytes,
            "{name} re-encodes differently"
        );
        assert!(analysis
            .source_packets
            .keys()
            .eq(analysis.source_port_counts.keys()));
    }
}

#[test]
fn golden_slices_stream_back_to_their_bytes() {
    // `write_year` streams the slice to its file instead of encoding it in
    // memory first; the file must be the golden, byte for byte.
    let dir = std::env::temp_dir().join(format!("synscan-golden-stream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = AnalysisStore::open(&dir).expect("open store");
    let mut sizes = Vec::new();
    for name in ["year-2015.store", "year-2016-heavy.store"] {
        let bytes = golden(name);
        let analysis = decode_year(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        let path = store.write_year(&analysis).expect("write slice");
        let written = std::fs::read(&path).expect("read written slice");
        assert!(written == bytes, "{name} streams back differently");
        sizes.push((analysis.year, bytes.len() as u64));
    }
    // The image accounts each year's one slice at its file size.
    let image = StoreImage::load(&store).expect("load image");
    let accounted: Vec<_> = (image.slices.iter()).map(|s| (s.year, s.bytes)).collect();
    assert_eq!(accounted, sizes);
    let mut left: Vec<_> = std::fs::read_dir(&dir)
        .expect("list store")
        .map(|entry| entry.expect("entry").file_name())
        .collect();
    left.sort();
    assert_eq!(
        left,
        ["year-2015.store", "year-2016.store"],
        "no staged file left"
    );
    std::fs::remove_dir_all(&dir).expect("remove store");
}

/// Every float the figure modules compute from one year, by name, as bits.
fn float_bits(analysis: &YearAnalysis, registry: &InternetRegistry) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = Vec::new();
    let mut put = |name: String, value: f64| out.push((name, value.to_bits()));

    let change = volatility::weekly_change(analysis);
    for (metric, cdf) in [
        ("sources", &change.sources),
        ("campaigns", &change.campaigns),
        ("packets", &change.packets),
    ] {
        for (i, sample) in cdf.samples().iter().enumerate() {
            put(format!("volatility.{metric}[{i}]"), *sample);
        }
    }
    let (s, c, p) = change.fraction_changing_by(2.0);
    put("volatility.by2.sources".into(), s);
    put("volatility.by2.campaigns".into(), c);
    put("volatility.by2.packets".into(), p);

    let cdf = portspread::ports_per_source_cdf(analysis);
    put("portspread.cdf.mean".into(), cdf.mean());
    for (x, y) in cdf.series() {
        put(format!("portspread.cdf({x})"), y);
    }
    put(
        "portspread.single".into(),
        portspread::single_port_fraction(analysis),
    );
    put(
        "portspread.at_least_3".into(),
        portspread::at_least_n_ports_fraction(analysis, 3),
    );
    for (a, b) in [(80, 8080), (23, 2323), (443, 80), (9, 80)] {
        let both = portspread::co_scan_fraction(analysis, a, b);
        put(format!("portspread.co_scan({a},{b})"), both.unwrap_or(-1.0));
    }
    put(
        "portspread.privileged".into(),
        portspread::privileged_port_coverage(analysis, 0.01),
    );

    for row in toolports::tool_mix_by_port(analysis, 10) {
        put(format!("toolports.{}.share", row.port), row.traffic_share);
        for (tool, share) in row.mix {
            put(format!("toolports.{}.{tool}", row.port), share);
        }
    }
    put(
        "toolports.tracked".into(),
        toolports::tracked_tool_traffic_share(analysis),
    );

    for (class, shares) in types::class_shares(analysis, registry) {
        put(format!("types.{class:?}.sources"), shares.sources);
        put(format!("types.{class:?}.scans"), shares.scans);
        put(format!("types.{class:?}.packets"), shares.packets);
    }

    for event in &YearConfig::for_year(analysis.year).events {
        let spec = events::EventSpec {
            port: event.port,
            disclosure_day: event.day,
        };
        let curve = events::event_curve(analysis, spec, 6);
        put(format!("events.{}.baseline", event.port), curve.baseline);
        for (day, relative) in curve.relative.iter().enumerate() {
            put(format!("events.{}.day{day}", event.port), *relative);
        }
        let ks = events::ks_return_to_normal(analysis, spec, 2, 4);
        put(
            format!("events.{}.ks", event.port),
            ks.map_or(-1.0, |ks| ks.statistic),
        );
    }

    let summary = yearly::summarize(analysis, 10);
    put("yearly.packets_per_day".into(), summary.packets_per_day);
    put("yearly.scans_per_month".into(), summary.scans_per_month);
    for (ranking, ports) in [
        ("packets", &summary.top_ports_by_packets),
        ("sources", &summary.top_ports_by_sources),
        ("scans", &summary.top_ports_by_scans),
    ] {
        for (port, share) in ports {
            put(format!("yearly.top_by_{ranking}.{port}"), *share);
        }
    }
    for (tool, share) in &summary.tool_scan_shares {
        put(format!("yearly.tool_scans.{tool}"), *share);
    }
    for (tool, share) in &summary.tool_packet_shares {
        put(format!("yearly.tool_packets.{tool}"), *share);
    }
    out
}

#[test]
fn figure_floats_are_bit_identical_however_the_year_was_assembled() {
    let experiment = Experiment::new(GeneratorConfig::tiny());
    let cfg = YearConfig::for_year(2020);
    assert!(
        !cfg.events.is_empty(),
        "2020 has a disclosure for events::*"
    );
    let analyzed = |mode| {
        let status = experiment.year(&cfg, mode, &RunOptions::default());
        let run = status.expect("clean year").completed().expect("plain run");
        run.analysis
    };
    let sequential = analyzed(PipelineMode::Sequential);
    let merged = analyzed(PipelineMode::Sharded { workers: 3 });
    let reloaded = decode_year(&encode_year(&sequential)).expect("round trip");

    let expected = float_bits(&sequential, experiment.registry());
    assert!(expected.len() > 100, "only {} floats", expected.len());
    for (route, analysis) in [("3-shard merge", &merged), ("slice round trip", &reloaded)] {
        assert_eq!(analysis, &sequential, "{route}");
        let got = float_bits(analysis, experiment.registry());
        for (want, have) in expected.iter().zip(&got) {
            assert_eq!(want, have, "{route}");
        }
        assert_eq!(got.len(), expected.len(), "{route}");
    }
}
