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

use synscan::stats::mix64;

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
