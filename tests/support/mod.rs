//! Seed-matrix support shared by the integration suites.
//!
//! Every seeded property runs over [`seeds`]: six seeds derived by splitmix64
//! from one base, and every assertion message carries the seed that failed.
//! Setting `PROPERTIES_SEED_BASE` (decimal or `0x`-hex) to a printed failing
//! seed collapses the matrix to exactly that seed, so a red run reproduces
//! with one copy-pasteable command:
//! `PROPERTIES_SEED_BASE=0xdeadbeef cargo test -q --test properties`.

// Each suite mounts this file and uses its own subset.
#![allow(dead_code)]

use synscan::core::analysis::{YearAnalysis, YearCollector};
use synscan::experiment::Experiment;
use synscan::stats::mix64;
use synscan::synthesis::generate::{plan_year, GroundTruth};
use synscan::telescope::{CaptureSession, CaptureStats};
use synscan::YearConfig;

const DEFAULT_SEED_BASE: u64 = 0x5eed_ba5e;
const MATRIX_LEN: u64 = 6;

/// A seed as the suites print it: decimal or `0x`-hex.
pub fn parse_seed(raw: &str) -> Option<u64> {
    match raw.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => raw.parse().ok(),
    }
}

/// The seed matrix: derived from the default base, or exactly the override
/// so a printed failing seed replays verbatim.
pub fn seeds() -> Vec<u64> {
    if let Ok(raw) = std::env::var("PROPERTIES_SEED_BASE") {
        let seed = parse_seed(&raw)
            .unwrap_or_else(|| panic!("PROPERTIES_SEED_BASE={raw:?} is not a seed"));
        return vec![seed];
    }
    (0..MATRIX_LEN)
        .map(|i| mix64(DEFAULT_SEED_BASE.wrapping_add(i)))
        .collect()
}

/// One year analyzed the pre-streaming way, without the product's driver:
/// the plan materialized into one sorted vector, every record offered to
/// the capture session, every admitted one to a single collector. The
/// reference the streamed and sharded shapes are held to.
pub fn materialized_year(
    experiment: &Experiment,
    year: u16,
) -> (YearAnalysis, CaptureStats, GroundTruth) {
    let plan = plan_year(
        &YearConfig::for_year(year),
        experiment.config(),
        experiment.registry(),
        experiment.dark(),
    );
    let records = plan.materialize(experiment.dark());
    let mut session = CaptureSession::new(experiment.dark(), year);
    let mut collector =
        YearCollector::with_period(year, experiment.campaign_config(), experiment.period_days());
    for record in &records {
        if session.offer(record) {
            collector.offer(record);
        }
    }
    (collector.finish(), session.stats(), plan.truth)
}
