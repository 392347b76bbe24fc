//! Differential test cases for the sketch layer, mounted by
//! `tests/sketch_equivalence.rs`.
//!
//! Every case pits the sketch structures against a naive dense reference
//! (`HashMap<u64, u64>` of exact counts) over deterministic workloads —
//! zipf-like, uniform, single-source flood, and interleaved shards — and
//! asserts the formal guarantees, printing the failing seed on any assert:
//!
//! * count-min never undercounts, and the `ε·N`-overcount bound holds with
//!   margin over the `1-δ` promise;
//! * space-saving tracks every key with true count `> N/capacity`, and each
//!   tracked slot brackets the truth (`packets - err ≤ truth ≤ packets`);
//! * shard partials merge to the byte-identical sequential snapshot below
//!   top-K capacity, and the bounds survive merging past capacity;
//! * checkpoint snapshots round-trip byte-for-byte under fuzzed configs and
//!   workloads, and truncated snapshots fail typed, never panic.

use synscan_core::checkpoint::{CheckpointError, SnapReader, SnapWriter};
use synscan_core::envelope::EnvelopeError;
use synscan_core::sketch::{CountMinSketch, HeavyHitterConfig, HeavyHitters, SpaceSaving};
use synscan_stats::mix64;

use std::collections::HashMap;

/// One synthetic offer: source key, timestamp, tool slot.
#[derive(Debug, Clone, Copy)]
pub struct Offer {
    /// Source address (the sketch key).
    pub src: u32,
    /// Timestamp in microseconds.
    pub ts_micros: u64,
    /// Tool-attribution slot (0 = unattributed).
    pub tool_slot: usize,
}

/// The workload shapes every case runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Log-uniform ranks over the key pool: a heavy head and a long tail.
    Zipf,
    /// Every key equally likely: the sketch's worst case for top-K recall.
    Uniform,
    /// One source emits ~90% of all packets, the rest uniform background.
    Flood,
}

/// All workload shapes, for exhaustive sweeps.
pub const WORKLOADS: [Workload; 3] = [Workload::Zipf, Workload::Uniform, Workload::Flood];

/// Generate `n` deterministic offers for `seed` under the workload shape.
/// Keys live in a 1024-wide pool; timestamps advance ~1ms per offer.
pub fn workload(kind: Workload, seed: u64, n: usize) -> Vec<Offer> {
    const POOL: u64 = 1024;
    (0..n as u64)
        .map(|i| {
            let r = mix64(seed ^ mix64(i));
            let key = match kind {
                Workload::Zipf => {
                    // Log-uniform rank: rank 1 is ~10x rank 10, etc.
                    let u = (r >> 11) as f64 / (1u64 << 53) as f64;
                    ((POOL as f64).powf(u)) as u64 % POOL
                }
                Workload::Uniform => r % POOL,
                Workload::Flood => {
                    if r % 10 < 9 {
                        7 // the flooding source
                    } else {
                        mix64(r) % POOL
                    }
                }
            };
            Offer {
                src: 0x0a00_0000 + key as u32,
                ts_micros: 1_000 * i + (r % 997),
                tool_slot: (r % 7) as usize,
            }
        })
        .collect()
}

/// Exact dense reference: true per-key counts.
pub fn dense_counts(offers: &[Offer]) -> HashMap<u64, u64> {
    let mut counts = HashMap::new();
    for offer in offers {
        *counts.entry(u64::from(offer.src)).or_insert(0u64) += 1;
    }
    counts
}

fn feed(config: HeavyHitterConfig, offers: &[Offer]) -> HeavyHitters {
    let mut heavy = HeavyHitters::new(config);
    for offer in offers {
        heavy.offer(offer.src, offer.ts_micros, offer.tool_slot);
    }
    heavy
}

fn snapshot_bytes(heavy: &HeavyHitters) -> Vec<u8> {
    let mut w = SnapWriter::new();
    heavy.snapshot_to(&mut w);
    w.into_bytes()
}

/// Count-min guarantees against the dense reference: `estimate` never
/// undercounts any key (hard guarantee), and the fraction of keys
/// overcounting by more than `ε·N` stays within twice the `δ` promise
/// (the hashes are fixed per run, so the probabilistic bound is checked
/// with margin rather than exactly).
pub fn count_min_bounds(kind: Workload, seed: u64, n: usize) {
    let offers = workload(kind, seed, n);
    let truth = dense_counts(&offers);
    let config = HeavyHitterConfig::default();
    let mut cm = CountMinSketch::new(config.width, config.depth);
    for offer in &offers {
        cm.add(u64::from(offer.src), 1);
    }
    assert_eq!(
        cm.total(),
        offers.len() as u64,
        "count-min total drifted ({kind:?}, seed {seed:#x})"
    );
    let allowed = config.epsilon() * offers.len() as f64;
    let mut violations = 0usize;
    for (&key, &true_count) in &truth {
        let est = cm.estimate(key);
        assert!(
            est >= true_count,
            "count-min undercounted key {key:#x}: {est} < {true_count} \
             ({kind:?}, seed {seed:#x})"
        );
        if (est - true_count) as f64 > allowed {
            violations += 1;
        }
    }
    let max_violations = (2.0 * config.delta() * truth.len() as f64).ceil() as usize + 1;
    assert!(
        violations <= max_violations,
        "count-min overcount bound failed for {violations}/{} keys \
         (allowed {max_violations}, eps*N = {allowed:.1}, {kind:?}, seed {seed:#x})",
        truth.len()
    );
}

/// Space-saving guarantees against the dense reference: every key with true
/// count above `N/capacity` is tracked, every tracked slot brackets the
/// truth, and the per-slot error never exceeds `N/capacity`.
pub fn space_saving_recall(kind: Workload, seed: u64, n: usize, capacity: u32) {
    let offers = workload(kind, seed, n);
    let truth = dense_counts(&offers);
    let mut top = SpaceSaving::new(capacity);
    for offer in &offers {
        top.offer(u64::from(offer.src), offer.ts_micros, offer.tool_slot);
    }
    assert_eq!(top.total(), offers.len() as u64);
    let floor = top.total() / u64::from(capacity);
    for (&key, &true_count) in &truth {
        if true_count > floor {
            assert!(
                top.get(key).is_some(),
                "space-saving missed heavy key {key:#x} with count {true_count} \
                 > N/capacity = {floor} ({kind:?}, seed {seed:#x}, capacity {capacity})"
            );
        }
    }
    for (key, slot) in top.top() {
        let true_count = truth.get(&key).copied().unwrap_or(0);
        assert!(
            slot.packets >= true_count && slot.packets - slot.err <= true_count,
            "tracked slot {key:#x} does not bracket truth: \
             {} - {} vs {true_count} ({kind:?}, seed {seed:#x})",
            slot.packets,
            slot.err
        );
        assert!(
            slot.err <= floor,
            "slot error {} exceeds N/capacity = {floor} ({kind:?}, seed {seed:#x})",
            slot.err
        );
    }
    if top.evictions() == 0 {
        // Below capacity the tracker is exact.
        for (key, slot) in top.top() {
            assert_eq!(slot.err, 0);
            assert_eq!(Some(&slot.packets), truth.get(&key));
        }
    }
}

/// Partition the offers by source across `shards` workers (the pipeline's
/// invariant: one source never spans shards), feed each partition into its
/// own sketch, and absorb.
fn sharded(config: HeavyHitterConfig, offers: &[Offer], shards: u64) -> HeavyHitters {
    let mut partials: Vec<Vec<Offer>> = (0..shards).map(|_| Vec::new()).collect();
    for offer in offers {
        partials[(mix64(u64::from(offer.src)) % shards) as usize].push(*offer);
    }
    let mut merged = HeavyHitters::new(config);
    for partial in partials {
        merged.absorb(feed(config, &partial));
    }
    merged
}

/// Below top-K capacity, the sharded merge is byte-identical to the
/// sequential sketch — the same property the pipeline proves for the dense
/// aggregates — and the merge is order-insensitive.
pub fn shard_merge_matches_sequential(kind: Workload, seed: u64, n: usize) {
    // Capacity 2048 > the 1024-key pool: no shard ever evicts.
    let config = HeavyHitterConfig {
        k: 2048,
        ..HeavyHitterConfig::default()
    };
    let offers = workload(kind, seed, n);
    let sequential = feed(config, &offers);
    assert_eq!(sequential.top_sources().evictions(), 0);
    for shards in [2u64, 3, 7] {
        let merged = sharded(config, &offers, shards);
        assert_eq!(
            snapshot_bytes(&sequential),
            snapshot_bytes(&merged),
            "sharded merge diverged from sequential \
             ({kind:?}, seed {seed:#x}, {shards} shards)"
        );
    }
}

/// Past top-K capacity bytewise equality is forfeited (merge truncation is
/// not eviction), but the estimates and guarantees must survive: the merged
/// count-min stays byte-identical (plain updates commute), merged totals
/// match, and the merged tracker still brackets and recalls heavy keys.
pub fn shard_merge_bounds_past_capacity(kind: Workload, seed: u64, n: usize) {
    let config = HeavyHitterConfig {
        k: 16,
        ..HeavyHitterConfig::default()
    };
    let offers = workload(kind, seed, n);
    let truth = dense_counts(&offers);
    let sequential = feed(config, &offers);
    let merged = sharded(config, &offers, 3);

    // The count-min layer is unconditionally mergeable.
    let mut seq_cm = SnapWriter::new();
    sequential.count_min().snapshot_to(&mut seq_cm);
    let mut mrg_cm = SnapWriter::new();
    merged.count_min().snapshot_to(&mut mrg_cm);
    assert_eq!(
        seq_cm.into_bytes(),
        mrg_cm.into_bytes(),
        "merged count-min diverged ({kind:?}, seed {seed:#x})"
    );

    let top = merged.top_sources();
    assert_eq!(top.total(), offers.len() as u64);
    assert!(top.len() as u32 <= config.k);
    let floor = top.total() / u64::from(config.k);
    for (key, slot) in top.top() {
        let true_count = truth.get(&key).copied().unwrap_or(0);
        assert!(
            slot.packets >= true_count && slot.packets - slot.err <= true_count,
            "merged slot {key:#x} does not bracket truth: {} - {} vs {true_count} \
             ({kind:?}, seed {seed:#x})",
            slot.packets,
            slot.err
        );
    }
    for (&key, &true_count) in &truth {
        if true_count > floor {
            assert!(
                top.get(key).is_some(),
                "merged tracker missed heavy key {key:#x} with count {true_count} \
                 > N/k = {floor} ({kind:?}, seed {seed:#x})"
            );
        }
    }
}

/// Conservative update estimates are at least as tight as plain updates and
/// still never undercount — on every workload shape.
pub fn conservative_update_tightens(kind: Workload, seed: u64, n: usize) {
    let offers = workload(kind, seed, n);
    let truth = dense_counts(&offers);
    let config = HeavyHitterConfig {
        width: 64, // narrow enough to force collisions
        ..HeavyHitterConfig::default()
    };
    let mut plain = CountMinSketch::new(config.width, config.depth);
    let mut conservative = CountMinSketch::new(config.width, config.depth);
    for offer in &offers {
        plain.add(u64::from(offer.src), 1);
        conservative.add_conservative(u64::from(offer.src), 1);
    }
    for (&key, &true_count) in &truth {
        let p = plain.estimate(key);
        let c = conservative.estimate(key);
        assert!(
            c >= true_count,
            "conservative update undercounted key {key:#x}: {c} < {true_count} \
             ({kind:?}, seed {seed:#x})"
        );
        assert!(
            c <= p,
            "conservative estimate {c} looser than plain {p} for key {key:#x} \
             ({kind:?}, seed {seed:#x})"
        );
    }
}

/// Fuzz checkpoint round-trips: random configs and workloads must snapshot
/// to bytes that restore to an equal sketch re-snapshotting to the same
/// bytes; every strict prefix of a snapshot must fail typed, never panic.
pub fn checkpoint_round_trip_fuzz(iters: u64, base_seed: u64) {
    for iter in 0..iters {
        let seed = mix64(base_seed ^ iter);
        let config = HeavyHitterConfig {
            k: 1 + (mix64(seed ^ 1) % 64) as u32,
            width: 1 + (mix64(seed ^ 2) % 512) as u32,
            depth: 1 + (mix64(seed ^ 3) % 6) as u32,
        };
        let kind = WORKLOADS[(mix64(seed ^ 4) % 3) as usize];
        let n = 200 + (mix64(seed ^ 5) % 2000) as usize;
        let heavy = feed(config, &workload(kind, seed, n));

        let bytes = snapshot_bytes(&heavy);
        let mut r = SnapReader::new(&bytes);
        let restored = HeavyHitters::restore_from(&mut r)
            .unwrap_or_else(|e| panic!("restore failed ({kind:?}, seed {seed:#x}): {e:?}"));
        assert_eq!(r.remaining(), 0, "trailing snapshot bytes (seed {seed:#x})");
        assert_eq!(
            bytes,
            snapshot_bytes(&restored),
            "snapshot round-trip not byte-stable ({kind:?}, seed {seed:#x})"
        );

        // A handful of strict prefixes per iteration: typed errors only.
        for cut in 0..8u64 {
            let len = (mix64(seed ^ (100 + cut)) % bytes.len() as u64) as usize;
            let mut r = SnapReader::new(&bytes[..len]);
            match HeavyHitters::restore_from(&mut r) {
                Err(CheckpointError::Envelope(EnvelopeError::Truncated))
                | Err(CheckpointError::Corrupt(_)) => {}
                Ok(_) => panic!(
                    "truncated snapshot ({len}/{} bytes) restored cleanly (seed {seed:#x})",
                    bytes.len()
                ),
                Err(e) => panic!("unexpected restore error {e:?} (seed {seed:#x})"),
            }
        }
    }
}

/// The deterministic seed matrix the suite sweeps (the checkpoint fuzz
/// derives extra seeds from `SKETCH_SEED_BASE` on top of these).
pub const SEED_MATRIX: [u64; 3] = [0x5eed_0001, 0x5eed_0002, 0x5eed_0003];
