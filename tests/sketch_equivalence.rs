//! Differential sketch suite: space-saving top-K and count-min against a
//! naive dense reference, over zipf / uniform / flood / interleaved-shard
//! workloads.
//!
//! The dense reference and the cases live in `tests/sketch_cases/`.
//!
//! Knobs:
//! * `SKETCH_FUZZ_ITERS` — checkpoint-fuzz iterations (default 25; CI's
//!   `sketch-drill` deep lane runs 200).
//! * `SKETCH_SEED_BASE` — base seed for the fuzz loop (default 0xf).
//!
//! Every assert message carries the failing seed, so a red run reproduces
//! with `SKETCH_SEED_BASE=<seed> cargo test -q --test sketch_equivalence`.

mod sketch_cases;
mod support;

use sketch_cases::{self as cases, Workload, SEED_MATRIX, WORKLOADS};

fn fuzz_iters() -> u64 {
    std::env::var("SKETCH_FUZZ_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(25)
}

fn fuzz_seed() -> u64 {
    std::env::var("SKETCH_SEED_BASE")
        .ok()
        .and_then(|v| support::parse_seed(&v))
        .unwrap_or(0xf)
}

fn sweep(case: impl Fn(Workload, u64)) {
    for kind in WORKLOADS {
        for seed in SEED_MATRIX {
            case(kind, seed);
        }
    }
}

#[test]
fn count_min_never_undercounts_and_overcount_stays_bounded() {
    sweep(|kind, seed| cases::count_min_bounds(kind, seed, 20_000));
}

#[test]
fn space_saving_recalls_every_heavy_key_within_epsilon() {
    sweep(|kind, seed| {
        cases::space_saving_recall(kind, seed, 20_000, 16);
        cases::space_saving_recall(kind, seed, 20_000, 2048);
    });
}

#[test]
fn shard_merge_is_byte_identical_below_capacity() {
    sweep(|kind, seed| cases::shard_merge_matches_sequential(kind, seed, 20_000));
}

#[test]
fn shard_merge_keeps_the_bounds_past_capacity() {
    sweep(|kind, seed| cases::shard_merge_bounds_past_capacity(kind, seed, 20_000));
}

#[test]
fn conservative_update_is_tighter_and_still_an_upper_bound() {
    sweep(|kind, seed| cases::conservative_update_tightens(kind, seed, 8_000));
}

#[test]
fn checkpoint_snapshots_round_trip_under_fuzz() {
    cases::checkpoint_round_trip_fuzz(fuzz_iters(), fuzz_seed());
}
