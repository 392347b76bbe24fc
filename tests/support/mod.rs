//! Seed-matrix support shared by the integration suites, and a walker over
//! encoded blobs that finds their count fields.
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

/// Walks an encoded blob (a `SYNSTORE` payload, a checkpoint's collector)
/// the way its decoder does, noting where every length or count field sits
/// and how wide it is.
pub struct CountFields<'a> {
    payload: &'a [u8],
    /// The offset of the next field.
    pub at: usize,
    /// Every count noted so far, as `(offset, width)`.
    pub fields: Vec<(usize, usize)>,
}

impl<'a> CountFields<'a> {
    /// A walk from the start of `payload`.
    pub fn new(payload: &'a [u8]) -> Self {
        CountFields {
            payload,
            at: 0,
            fields: Vec::new(),
        }
    }

    pub fn skip(&mut self, bytes: u64) {
        self.at += bytes as usize;
    }

    pub fn tag(&mut self) -> u8 {
        self.at += 1;
        self.payload[self.at - 1]
    }

    /// A count of `width` bytes: noted, then read.
    pub fn count(&mut self, width: usize) -> u64 {
        let mut bytes = [0u8; 8];
        bytes[..width].copy_from_slice(&self.payload[self.at..self.at + width]);
        self.fields.push((self.at, width));
        self.at += width;
        u64::from_le_bytes(bytes)
    }

    /// A section of `count` entries of `entry` bytes each.
    pub fn column(&mut self, entry: u64) {
        let n = self.count(8);
        self.skip(n * entry);
    }
}

/// Where a one-source collector blob (`Checkpoint::encode_collector`) keeps
/// its open scan's destination count, port count and window length, and
/// the collector's port-row count, as `(offset, width)`, with the count each
/// holds.
pub fn open_scan_count_fields(blob: &[u8]) -> Vec<((usize, usize), u64)> {
    let mut walk = CountFields::new(blob);
    assert_eq!(walk.tag(), 1, "a collector");
    walk.skip(4 * 8 + 2 + 2 * 8); // thresholds, year, monitored, period
    if walk.tag() == 1 {
        walk.skip(8); // the origin
    }
    walk.skip(2 * 8); // end, total packets
    let sources = walk.count(8);
    walk.skip(4 * sources); // the interner
    assert_eq!(walk.count(8), 1, "one slot");
    assert_ne!(walk.count(4), u64::from(u32::MAX), "its scan is open");
    walk.skip(2 * 8 + 8); // first and last timestamps, packets
    let mut noted = Vec::new();
    let mut note = |walk: &mut CountFields, width: usize| {
        let count = walk.count(width);
        noted.push((*walk.fields.last().expect("just noted"), count));
        count
    };
    let dests = note(&mut walk, 8);
    walk.skip(4 * dests);
    let ports = note(&mut walk, 8);
    walk.skip(10 * ports + 6 * 8); // port counts, tool votes
    let window = note(&mut walk, 1);
    walk.skip(12 * window);
    if walk.tag() == 1 {
        walk.skip(1); // the confirmed tool
    }
    walk.column(4); // the active list
    assert_eq!(walk.count(8), 0, "no finished campaign");
    walk.column(9); // noise: rejected sequences
    walk.skip(8);
    note(&mut walk, 8); // the collector's port rows
    noted
}
