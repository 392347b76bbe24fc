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
    /// Every count noted so far: what it counts, where it sits as
    /// `(offset, width)`, and the count it holds.
    pub fields: Vec<(&'static str, (usize, usize), u64)>,
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

    /// A field of `width` bytes that is not a count: read, not noted.
    pub fn value(&mut self, width: usize) -> u64 {
        let mut bytes = [0u8; 8];
        bytes[..width].copy_from_slice(&self.payload[self.at..self.at + width]);
        self.at += width;
        u64::from_le_bytes(bytes)
    }

    /// A count of `what`, `width` bytes wide: noted, then read.
    pub fn count(&mut self, what: &'static str, width: usize) -> u64 {
        let at = self.at;
        let held = self.value(width);
        self.fields.push((what, (at, width), held));
        held
    }

    /// A section of `what`: its count, then that many `entry`-byte entries.
    pub fn column(&mut self, what: &'static str, entry: u64) {
        let n = self.count(what, 8);
        self.skip(n * entry);
    }

    /// A set of source ids as a checkpoint writes it: tag 0 and the sorted
    /// ids, or tag 1, the member count and the bitmap's words.
    pub fn id_set(&mut self, what: &'static str) {
        if self.tag() == 1 {
            self.count(what, 4);
            self.column(what, 8);
        } else {
            self.column(what, 4);
        }
    }

    /// A set of ports as a checkpoint writes it: tag 0 and the sorted
    /// ports, or tag 1, the member count and the 1 024 words of its bitmap.
    pub fn port_set(&mut self, what: &'static str) {
        if self.tag() == 1 {
            self.count(what, 4);
            self.skip(8 << 10);
        } else {
            self.column(what, 2);
        }
    }
}

/// Every length or count field of a collector blob
/// (`Checkpoint::encode_collector`), in blob order: what it counts, where
/// it sits as `(offset, width)`, and the count it holds.
pub fn collector_count_fields(blob: &[u8]) -> Vec<(&'static str, (usize, usize), u64)> {
    let mut walk = CountFields::new(blob);
    assert_eq!(walk.tag(), 1, "a collector");
    walk.skip(4 * 8 + 2 + 2 * 8); // thresholds, year, monitored, period
    if walk.tag() == 1 {
        walk.skip(8); // the origin
    }
    walk.skip(2 * 8); // end, total packets
    walk.column("interned sources", 4);
    for _ in 0..walk.count("source slots", 8) {
        let open = walk.value(4) != u64::from(u32::MAX);
        walk.skip(2 * 8); // first and last timestamps
        if open {
            walk.skip(8); // packets
            walk.column("open-scan destinations", 4);
            walk.column("open-scan ports", 10);
            walk.skip(6 * 8); // tool votes
            let window = walk.count("fingerprint window", 1);
            walk.skip(12 * window);
            if walk.tag() == 1 {
                walk.skip(1); // the confirmed tool
            }
        }
    }
    walk.column("active list", 4);
    for _ in 0..walk.count("campaigns", 8) {
        walk.skip(4 + 4 * 8); // source, first, last, packets, destinations
        walk.column("campaign ports", 10);
        walk.column("campaign tools", 9);
    }
    walk.column("rejected sequences", 9);
    walk.skip(8);
    for _ in 0..walk.count("port rows", 8) {
        walk.skip(2 + 8); // port, packets
        walk.id_set("a port's sources");
    }
    walk.column("source packets", 8);
    for _ in 0..walk.count("source port sets", 8) {
        walk.port_set("a source's ports");
    }
    walk.column("(day, port) cells", 16);
    walk.column("(tool, port) cells", 12);
    for _ in 0..walk.count("(week, /16) cells", 8) {
        walk.skip(2 * 8); // key, packets
        walk.id_set("a (week, /16) cell's sources");
    }
    if walk.tag() == 1 {
        walk.count("heavy-hitter k", 4);
        walk.count("heavy-hitter width", 4);
        walk.count("heavy-hitter depth", 4);
        let width = walk.count("count-min width", 4);
        let depth = walk.count("count-min depth", 4);
        walk.skip(8 + 8 * width * depth); // total, cells
        walk.count("space-saving capacity", 4);
        walk.skip(2 * 8); // total, evictions
        walk.column("space-saving slots", 8 * 12);
    }
    assert_eq!(walk.at, blob.len(), "the walk covers the blob");
    walk.fields
}

/// Where a collector blob keeps its open scans' destination counts, port
/// counts and window lengths, and the collector's port-row count, as
/// `(offset, width)`, with the count each holds.
pub fn open_scan_count_fields(blob: &[u8]) -> Vec<((usize, usize), u64)> {
    let wanted = [
        "open-scan destinations",
        "open-scan ports",
        "fingerprint window",
        "port rows",
    ];
    collector_count_fields(blob)
        .into_iter()
        .filter(|(what, ..)| wanted.contains(what))
        .map(|(_, field, held)| (field, held))
        .collect()
}
