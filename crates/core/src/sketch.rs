//! Sublinear heavy-hitter analytics: a space-saving top-K tracker and a
//! count-min rate sketch over per-source packet counts.
//!
//! The dense collector ([`crate::analysis::YearCollector`]) holds exact
//! per-source state and therefore grows linearly with the actor population.
//! The Merit telescope behind the paper runs at /13 scale for two decades —
//! 10–100× the actor counts the dense aggregates were sized for — so the
//! "network impact" analytics (top-K sources by packets and by rate, rate
//! percentiles, the aggressive-scanner census) are built on the two classic
//! sublinear structures instead:
//!
//! * [`CountMinSketch`] — a `depth × width` counter matrix with
//!   FxHash-seeded row hashing. `estimate` never undercounts, and overcounts
//!   by more than `e/width · N` with probability at most `e^-depth`
//!   (Cormode & Muthukrishnan). The pipeline uses the **plain** update rule,
//!   whose state is a cellwise sum over the input multiset: shard sketches
//!   merge by cellwise addition into a state *byte-identical* to the
//!   sequential sketch, in any merge order. The tighter conservative-update
//!   rule is also provided ([`CountMinSketch::add_conservative`]) but is
//!   **not mergeable** — see its docs for the two-shard counterexample — so
//!   the sharded pipeline never uses it.
//! * [`SpaceSaving`] — Metwally et al.'s top-K tracker over at most
//!   `capacity` slots. Every tracked count is an upper bound with an
//!   explicit per-slot error, and any source with true count `> N/capacity`
//!   is guaranteed to be tracked. Eviction and merge truncation break ties
//!   deterministically by `(count, key)`. The slots live in an indexed
//!   min-heap on that pair, so a miss finds its victim at the root and an
//!   offer costs `O(log capacity)`; snapshots write the slots key-ascending,
//!   so equal logical state always serializes to equal bytes, whatever the
//!   heap's layout. Merge follows Agarwal et al.'s mergeable-summaries rule
//!   (union, then truncate back to capacity): while no shard has ever
//!   evicted, the merged state is *exactly* the sequential state — the
//!   regime the sharded pipeline proves byte-identical — and past capacity
//!   the `ε·N` bounds still hold, just not bytewise equality.
//!
//! [`HeavyHitters`] bundles both behind the collector-facing API: one
//! `offer(src, ts, tool_slot)` per admitted record, `absorb` for the
//! sharded merge, the `SnapWriter`/`SnapReader` codec for `SYNCKPT`
//! checkpoints and `SYNSTORE` slices, and [`HeavyHitters::network_impact`]
//! to derive the report section. The formal guarantees are enforced against
//! a dense reference by `tests/sketch_equivalence.rs`.

use std::collections::BTreeMap;
use std::hash::Hasher as _;

use synscan_stats::mix64;
use synscan_wire::impl_to_json;

use crate::checkpoint::{Ascending, CheckpointError, SnapReader, SnapWriter};
use crate::fasthash::{FxHashMap, FxHasher};

/// Tool-attribution slots a heavy-hitter slot tallies: slot 0 is
/// "no attribution", slots 1–6 follow the campaign layer's
/// `TOOL_BY_SLOT` order (ZMap, Masscan, NMap, Mirai, Unicornscan, Custom).
pub const TOOL_SLOTS: usize = 7;

/// Report names for the tool slots, index-aligned with the campaign
/// layer's `TOOL_BY_SLOT` (slot 0 = unattributed). The workspace test
/// `tool_slot_names_match_the_campaign_layer` pins the alignment.
pub const TOOL_SLOT_NAMES: [&str; TOOL_SLOTS] = [
    "unattributed",
    "zmap",
    "masscan",
    "nmap",
    "mirai",
    "unicorn",
    "custom",
];

/// Sketch sizing: top-K capacity plus the count-min matrix dimensions.
///
/// Parsed from the CLI as `k[,width,depth]` (`--heavy-hitters 10,2048,4`);
/// omitted dimensions fall back to the defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeavyHitterConfig {
    /// Top-K slots the space-saving tracker keeps.
    pub k: u32,
    /// Count-min row width (counters per row). Error bound `ε = e/width`.
    pub width: u32,
    /// Count-min depth (independent rows). Failure odds `δ = e^-depth`.
    pub depth: u32,
}
impl_to_json!(HeavyHitterConfig { k, width, depth });

impl Default for HeavyHitterConfig {
    fn default() -> Self {
        Self {
            k: 32,
            width: 2048,
            depth: 4,
        }
    }
}

impl HeavyHitterConfig {
    /// A config with `k` slots and the default count-min dimensions.
    pub fn with_k(k: u32) -> Self {
        Self {
            k,
            ..Self::default()
        }
    }

    /// Validate the dimensions (all must be ≥ 1; depth is capped at 16 —
    /// `δ = e^-16` is already ~1e-7 and deeper matrices only cost memory).
    pub fn validate(&self) -> Result<(), String> {
        if self.k == 0 || self.width == 0 || self.depth == 0 {
            return Err(format!(
                "heavy-hitter dimensions must all be >= 1 (got {self})"
            ));
        }
        if self.depth > 16 {
            return Err(format!("count-min depth {} exceeds 16", self.depth));
        }
        Ok(())
    }

    /// The count-min relative error bound `ε = e/width`: estimates exceed
    /// the true count by more than `ε · N` with probability at most
    /// [`HeavyHitterConfig::delta`].
    pub fn epsilon(&self) -> f64 {
        std::f64::consts::E / self.width as f64
    }

    /// The count-min failure probability `δ = e^-depth`.
    pub fn delta(&self) -> f64 {
        (-(self.depth as f64)).exp()
    }
}

impl std::fmt::Display for HeavyHitterConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{},{},{}", self.k, self.width, self.depth)
    }
}

impl std::str::FromStr for HeavyHitterConfig {
    type Err = String;

    /// Parse `k[,width[,depth]]`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split(',');
        let defaults = Self::default();
        let mut field = |name: &str, fallback: u32| -> Result<u32, String> {
            match parts.next() {
                None => Ok(fallback),
                Some(raw) => raw
                    .trim()
                    .parse::<u32>()
                    .map_err(|_| format!("invalid heavy-hitter {name} `{raw}` in `{s}`")),
            }
        };
        let config = Self {
            k: field("k", defaults.k)?,
            width: field("width", defaults.width)?,
            depth: field("depth", defaults.depth)?,
        };
        if parts.next().is_some() {
            return Err(format!(
                "heavy-hitter spec `{s}` has trailing fields (expected k[,width,depth])"
            ));
        }
        config.validate()?;
        Ok(config)
    }
}

/// A count-min sketch: `depth` rows of `width` saturating counters, each
/// row indexed by an independently FxHash-seeded hash of the key.
///
/// The layout is deterministic — row-major `Vec<u64>`, row seeds derived
/// from the row index alone — so two sketches over the same dimensions are
/// comparable and mergeable cell by cell, and equal logical state always
/// snapshots to equal bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountMinSketch {
    width: u32,
    depth: u32,
    /// Total mass added (`N` in the error bounds).
    total: u64,
    /// Row-major counter matrix, `depth * width` cells.
    cells: Vec<u64>,
}

impl CountMinSketch {
    /// A zeroed sketch. Panics if either dimension is 0 (callers validate
    /// through [`HeavyHitterConfig::validate`]).
    pub fn new(width: u32, depth: u32) -> Self {
        assert!(width > 0 && depth > 0, "count-min dimensions must be >= 1");
        Self {
            width,
            depth,
            total: 0,
            cells: vec![0; width as usize * depth as usize],
        }
    }

    /// Row width (counters per row).
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of rows.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Total mass added so far (`N` in the `ε · N` bounds).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The cell index of `key` in `row`: an FxHash seeded per row (row seed
    /// mixed from the row index), reduced mod width.
    fn cell_of(&self, row: u32, key: u64) -> usize {
        let mut hasher = FxHasher::default();
        hasher.write_u64(mix64(0x5359_4e5f_434d_5300 ^ u64::from(row)));
        hasher.write_u64(key);
        row as usize * self.width as usize + (hasher.finish() % u64::from(self.width)) as usize
    }

    /// Plain update: add `count` to every row's cell for `key`.
    ///
    /// This is the rule the pipeline uses. Its state is a cellwise sum over
    /// the input multiset, so it is exactly order- and partition-independent:
    /// sharded sketches [`CountMinSketch::merge`]d together equal the
    /// sequential sketch byte for byte.
    pub fn add(&mut self, key: u64, count: u64) {
        for row in 0..self.depth {
            let cell = self.cell_of(row, key);
            self.cells[cell] = self.cells[cell].saturating_add(count);
        }
        self.total = self.total.saturating_add(count);
    }

    /// Conservative update (Estan & Varghese): raise only the cells below
    /// `estimate(key) + count`. Strictly tighter estimates than
    /// [`CountMinSketch::add`] — but **not mergeable**.
    ///
    /// Counterexample (depth 2, width 2): key `a` maps to cells (r0c0, r1c0)
    /// and key `b` to (r0c0, r1c1). Sequentially adding `a`×5 then `b`×1
    /// leaves r0c0 = 5 (the conservative rule does not raise it for `b`).
    /// Split across two shards (`a` on one, `b` on the other), the cellwise
    /// merge gives r0c0 = 5 + 1 = 6. Same multiset, different state — so the
    /// sharded pipeline only ever uses the plain rule, and this one exists
    /// for single-pass consumers that want the tighter bound.
    pub fn add_conservative(&mut self, key: u64, count: u64) {
        let raised = self.estimate(key).saturating_add(count);
        for row in 0..self.depth {
            let cell = self.cell_of(row, key);
            if self.cells[cell] < raised {
                self.cells[cell] = raised;
            }
        }
        self.total = self.total.saturating_add(count);
    }

    /// The count estimate for `key`: the minimum of its `depth` cells.
    /// Never less than the true count; exceeds it by more than
    /// `e/width · total` with probability at most `e^-depth`.
    pub fn estimate(&self, key: u64) -> u64 {
        (0..self.depth)
            .map(|row| self.cells[self.cell_of(row, key)])
            .min()
            .unwrap_or(0)
    }

    /// Cellwise merge of a shard sketch built with the plain update rule.
    ///
    /// # Panics
    /// If the dimensions disagree (shards always share a config).
    pub fn merge(&mut self, other: &CountMinSketch) {
        assert_eq!(
            (self.width, self.depth),
            (other.width, other.depth),
            "count-min partials have different dimensions"
        );
        for (mine, theirs) in self.cells.iter_mut().zip(&other.cells) {
            *mine = mine.saturating_add(*theirs);
        }
        self.total = self.total.saturating_add(other.total);
    }

    /// Heap + inline bytes of the sketch state (the memory-accounting
    /// figure the hot-path bench reports as `bytes_per_source`).
    pub fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.cells.len() * std::mem::size_of::<u64>()
    }

    /// Serialize (dimensions first, then the cells row-major).
    pub fn snapshot_to(&self, w: &mut SnapWriter) {
        w.put_u32(self.width);
        w.put_u32(self.depth);
        w.put_u64(self.total);
        for &cell in &self.cells {
            w.put_u64(cell);
        }
    }

    /// Rebuild from [`CountMinSketch::snapshot_to`] bytes.
    pub fn restore_from(r: &mut SnapReader<'_>) -> Result<Self, CheckpointError> {
        let width = r.take_u32()?;
        let depth = r.take_u32()?;
        if width == 0 || depth == 0 || depth > 16 {
            return Err(CheckpointError::Corrupt(format!(
                "count-min dimensions {width}x{depth}"
            )));
        }
        let total = r.take_u64()?;
        let n_cells = width as usize * depth as usize;
        if r.remaining() < n_cells * 8 {
            return Err(crate::envelope::EnvelopeError::Truncated.into());
        }
        let mut cells = Vec::with_capacity(n_cells);
        for _ in 0..n_cells {
            cells.push(r.take_u64()?);
        }
        Ok(Self {
            width,
            depth,
            total,
            cells,
        })
    }
}

/// One tracked heavy-hitter slot: an upper-bound packet count with its
/// explicit overcount bound, the active window, and per-tool attribution
/// tallies for the census.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeavySlot {
    /// Tracked packet count — an upper bound on the true count.
    pub packets: u64,
    /// Overcount bound: `packets - err <= true count <= packets`.
    pub err: u64,
    /// First packet timestamp observed while tracked (µs).
    pub first_ts_micros: u64,
    /// Last packet timestamp observed while tracked (µs).
    pub last_ts_micros: u64,
    /// Packets per tool slot (index 0 = unattributed) observed while
    /// tracked; drives the aggressive-scanner census.
    pub tool_packets: [u64; TOOL_SLOTS],
}

impl HeavySlot {
    fn fresh(ts_micros: u64, tool_slot: usize) -> Self {
        let mut slot = Self {
            packets: 1,
            err: 0,
            first_ts_micros: ts_micros,
            last_ts_micros: ts_micros,
            tool_packets: [0; TOOL_SLOTS],
        };
        slot.tool_packets[tool_slot.min(TOOL_SLOTS - 1)] += 1;
        slot
    }

    /// Estimated packets per second over the slot's active window (floored
    /// at one second so a single-packet slot reads as its packet count, not
    /// a division by zero).
    pub fn pps(&self) -> f64 {
        let secs = (self.last_ts_micros.saturating_sub(self.first_ts_micros)) as f64 / 1e6;
        self.packets as f64 / secs.max(1.0)
    }

    /// The dominant tool slot: highest packet tally, ties to the lowest
    /// slot index (deterministic).
    pub fn dominant_tool(&self) -> usize {
        let mut best = 0usize;
        for (slot, &n) in self.tool_packets.iter().enumerate() {
            if n > self.tool_packets[best] {
                best = slot;
            }
        }
        best
    }
}

/// Metwally et al.'s space-saving top-K tracker with deterministic
/// `(count, key)` tie-breaking.
///
/// While fewer than `capacity` distinct keys have been offered the tracker
/// is exact (`err == 0` everywhere, `evictions == 0`). Past capacity, an
/// unseen key replaces the minimum slot — chosen as the smallest
/// `(packets, key)` pair, so the choice never depends on layout — inheriting
/// its count as the new slot's `err`. Invariants: every tracked `packets` is
/// an upper bound on the key's true count, the true count is at least
/// `packets - err`, and any key with true count `> total/capacity` is
/// tracked.
///
/// The slots form a binary min-heap on `(packets, key)` with a key → position
/// index, so the victim is always the root. The heap's layout depends on
/// history; equality and snapshots see only the key-sorted slots.
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    capacity: u32,
    /// Total offers absorbed (`N` in the guarantees).
    total: u64,
    /// Evictions performed; 0 means the tracker is still exact.
    evictions: u64,
    /// Tracked `(key, slot)` pairs, a min-heap on `(slot.packets, key)`.
    heap: Vec<(u64, HeavySlot)>,
    /// Heap position of every tracked key.
    position: FxHashMap<u64, u32>,
}

/// Heap order of a tracked slot: the eviction order.
fn rank(&(key, slot): &(u64, HeavySlot)) -> (u64, u64) {
    (slot.packets, key)
}

impl SpaceSaving {
    /// An empty tracker with room for `capacity` keys (panics on 0;
    /// callers validate through [`HeavyHitterConfig::validate`]).
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "space-saving capacity must be >= 1");
        Self::from_slots(capacity, 0, 0, Vec::new())
    }

    /// A tracker holding `slots` (distinct keys, any order).
    fn from_slots(capacity: u32, total: u64, evictions: u64, slots: Vec<(u64, HeavySlot)>) -> Self {
        let position = slots
            .iter()
            .enumerate()
            .map(|(at, &(key, _))| (key, at as u32))
            .collect();
        let mut tracker = Self {
            capacity,
            total,
            evictions,
            heap: slots,
            position,
        };
        tracker.heapify();
        tracker
    }

    /// Slot budget.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Total offers absorbed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Evictions performed so far. 0 ⇔ the tracker state is exact (and a
    /// shard merge below capacity is byte-identical to sequential).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Currently tracked keys (≤ capacity).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing has been offered yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The tracked slot for `key`, if present.
    pub fn get(&self, key: u64) -> Option<&HeavySlot> {
        self.position.get(&key).map(|&at| &self.heap[at as usize].1)
    }

    /// Offer one packet for `key` at `ts_micros`, attributed to
    /// `tool_slot` (0 = unattributed).
    pub fn offer(&mut self, key: u64, ts_micros: u64, tool_slot: usize) {
        self.total += 1;
        if let Some(&at) = self.position.get(&key) {
            let slot = &mut self.heap[at as usize].1;
            slot.packets += 1;
            slot.first_ts_micros = slot.first_ts_micros.min(ts_micros);
            slot.last_ts_micros = slot.last_ts_micros.max(ts_micros);
            slot.tool_packets[tool_slot.min(TOOL_SLOTS - 1)] += 1;
            self.sift_down(at as usize);
            return;
        }
        let mut fresh = HeavySlot::fresh(ts_micros, tool_slot);
        if self.heap.len() < self.capacity as usize {
            self.position.insert(key, self.heap.len() as u32);
            self.heap.push((key, fresh));
            self.sift_up(self.heap.len() - 1);
            return;
        }
        // Evict the minimum (packets, key) slot — the root; the newcomer
        // inherits its count as an upper bound and carries it as explicit
        // error.
        let (victim, victim_slot) = self.heap[0];
        self.position.remove(&victim);
        fresh.packets += victim_slot.packets;
        fresh.err = victim_slot.packets;
        self.heap[0] = (key, fresh);
        self.position.insert(key, 0);
        self.sift_down(0);
        self.evictions += 1;
    }

    /// Mergeable-summaries union (Agarwal et al.): combine slots keywise
    /// (counts and errors add, windows widen, tool tallies add), then — if
    /// the union exceeds capacity — keep the top `capacity` slots by
    /// `(packets, key)` and count the dropped ones as evictions.
    ///
    /// While `self.evictions() + other.evictions() == 0` and the union fits
    /// in capacity, this is exactly the tracker a sequential pass over the
    /// concatenated input would hold.
    pub fn merge(&mut self, other: SpaceSaving) {
        assert_eq!(
            self.capacity, other.capacity,
            "space-saving partials have different capacities"
        );
        self.total += other.total;
        self.evictions += other.evictions;
        for (key, theirs) in other.heap {
            match self.position.get(&key) {
                Some(&at) => {
                    let mine = &mut self.heap[at as usize].1;
                    mine.packets += theirs.packets;
                    mine.err += theirs.err;
                    mine.first_ts_micros = mine.first_ts_micros.min(theirs.first_ts_micros);
                    mine.last_ts_micros = mine.last_ts_micros.max(theirs.last_ts_micros);
                    for (m, t) in mine.tool_packets.iter_mut().zip(theirs.tool_packets) {
                        *m += t;
                    }
                }
                None => {
                    self.position.insert(key, self.heap.len() as u32);
                    self.heap.push((key, theirs));
                }
            }
        }
        self.heapify();
        while self.heap.len() > self.capacity as usize {
            let last = self.heap.len() - 1;
            self.swap(0, last);
            let (victim, _) = self.heap.pop().expect("non-empty");
            self.position.remove(&victim);
            self.sift_down(0);
            self.evictions += 1;
        }
    }

    /// Restore the heap order over the whole vector.
    fn heapify(&mut self) {
        for at in (0..self.heap.len() / 2).rev() {
            self.sift_down(at);
        }
    }

    /// Move the entry at `at` toward the root while it ranks below its
    /// parent.
    fn sift_up(&mut self, mut at: usize) {
        while at > 0 {
            let parent = (at - 1) / 2;
            if rank(&self.heap[parent]) <= rank(&self.heap[at]) {
                break;
            }
            self.swap(at, parent);
            at = parent;
        }
    }

    /// Move the entry at `at` toward the leaves while a child ranks below
    /// it.
    fn sift_down(&mut self, mut at: usize) {
        loop {
            let left = 2 * at + 1;
            let Some(left_entry) = self.heap.get(left) else {
                break;
            };
            let child = match self.heap.get(left + 1) {
                Some(right_entry) if rank(right_entry) < rank(left_entry) => left + 1,
                _ => left,
            };
            if rank(&self.heap[at]) <= rank(&self.heap[child]) {
                break;
            }
            self.swap(at, child);
            at = child;
        }
    }

    /// Swap two heap entries and their recorded positions.
    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        for at in [a, b] {
            let key = self.heap[at].0;
            *self
                .position
                .get_mut(&key)
                .expect("every tracked key has a position") = at as u32;
        }
    }

    /// The tracked slots, ascending by key: the logical state.
    fn by_key(&self) -> Vec<(u64, HeavySlot)> {
        let mut slots = self.heap.clone();
        slots.sort_unstable_by_key(|&(key, _)| key);
        slots
    }

    /// The tracked slots ranked by `(packets desc, key asc)` — the
    /// canonical top-K order every report renders in.
    pub fn top(&self) -> Vec<(u64, HeavySlot)> {
        let mut out = self.heap.clone();
        out.sort_by(|(ka, a), (kb, b)| b.packets.cmp(&a.packets).then(ka.cmp(kb)));
        out
    }

    /// Heap + inline bytes of the tracker state: per tracked key, its heap
    /// entry and its position-index entry.
    pub fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.heap.len()
                * (std::mem::size_of::<(u64, HeavySlot)>() + std::mem::size_of::<(u64, u32)>())
    }

    /// Serialize in canonical key-ascending order.
    pub fn snapshot_to(&self, w: &mut SnapWriter) {
        w.put_u32(self.capacity);
        w.put_u64(self.total);
        w.put_u64(self.evictions);
        w.put_u64(self.heap.len() as u64);
        for (key, slot) in self.by_key() {
            w.put_u64(key);
            w.put_u64(slot.packets);
            w.put_u64(slot.err);
            w.put_u64(slot.first_ts_micros);
            w.put_u64(slot.last_ts_micros);
            for &n in &slot.tool_packets {
                w.put_u64(n);
            }
        }
    }

    /// Rebuild from [`SpaceSaving::snapshot_to`] bytes.
    pub fn restore_from(r: &mut SnapReader<'_>) -> Result<Self, CheckpointError> {
        let capacity = r.take_u32()?;
        if capacity == 0 {
            return Err(CheckpointError::Corrupt(
                "zero space-saving capacity".into(),
            ));
        }
        let total = r.take_u64()?;
        let evictions = r.take_u64()?;
        let n_slots = r.take_len(8 * (5 + TOOL_SLOTS))?;
        if n_slots > capacity as usize {
            return Err(CheckpointError::Corrupt(format!(
                "{n_slots} slots exceed capacity {capacity}"
            )));
        }
        let mut slots = Vec::with_capacity(n_slots);
        let mut order = Ascending::new("space-saving slots");
        for _ in 0..n_slots {
            let key = order.admit(r.take_u64()?)?;
            let packets = r.take_u64()?;
            let err = r.take_u64()?;
            let first_ts_micros = r.take_u64()?;
            let last_ts_micros = r.take_u64()?;
            let mut tool_packets = [0u64; TOOL_SLOTS];
            for n in &mut tool_packets {
                *n = r.take_u64()?;
            }
            slots.push((
                key,
                HeavySlot {
                    packets,
                    err,
                    first_ts_micros,
                    last_ts_micros,
                    tool_packets,
                },
            ));
        }
        Ok(Self::from_slots(capacity, total, evictions, slots))
    }
}

impl PartialEq for SpaceSaving {
    /// Logical equality: the same counters and the same key-sorted slots,
    /// whatever order the two heaps hold them in.
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity
            && self.total == other.total
            && self.evictions == other.evictions
            && self.by_key() == other.by_key()
    }
}

impl Eq for SpaceSaving {}

/// The heavy-hitter state one collector (or one shard) accumulates: the
/// count-min rate sketch plus the space-saving top-K tracker, under one
/// config. This is the state that rides in `YearAnalysis`, checkpoints,
/// and store slices; [`HeavyHitters::network_impact`] derives the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeavyHitters {
    config: HeavyHitterConfig,
    count_min: CountMinSketch,
    top: SpaceSaving,
}

impl HeavyHitters {
    /// Fresh tracker state for `config` (validated).
    pub fn new(config: HeavyHitterConfig) -> Self {
        config.validate().expect("heavy-hitter config validated");
        Self {
            config,
            count_min: CountMinSketch::new(config.width, config.depth),
            top: SpaceSaving::new(config.k),
        }
    }

    /// The sizing this state was built with.
    pub fn config(&self) -> HeavyHitterConfig {
        self.config
    }

    /// The underlying count-min sketch.
    pub fn count_min(&self) -> &CountMinSketch {
        &self.count_min
    }

    /// The underlying space-saving tracker.
    pub fn top_sources(&self) -> &SpaceSaving {
        &self.top
    }

    /// Record one admitted packet from `src` at `ts_micros`, attributed to
    /// `tool_slot` (0 = unattributed, 1.. = `TOOL_BY_SLOT` order).
    pub fn offer(&mut self, src: u32, ts_micros: u64, tool_slot: usize) {
        let key = u64::from(src);
        self.count_min.add(key, 1);
        self.top.offer(key, ts_micros, tool_slot);
    }

    /// Count-min packet estimate for `src` (never an undercount).
    pub fn estimate(&self, src: u32) -> u64 {
        self.count_min.estimate(u64::from(src))
    }

    /// Merge a shard partial into this state (used by
    /// `YearAnalysis::merge_partials`).
    ///
    /// # Panics
    /// If the configs disagree — shards of one run always share the config.
    pub fn absorb(&mut self, other: HeavyHitters) {
        assert_eq!(
            self.config, other.config,
            "heavy-hitter partials built with different configs"
        );
        self.count_min.merge(&other.count_min);
        self.top.merge(other.top);
    }

    /// Heap + inline bytes of the full sketch state.
    pub fn state_bytes(&self) -> usize {
        std::mem::size_of::<HeavyHitterConfig>()
            + self.count_min.state_bytes()
            + self.top.state_bytes()
    }

    /// Serialize: config, count-min, then the tracker — all canonical.
    pub fn snapshot_to(&self, w: &mut SnapWriter) {
        w.put_u32(self.config.k);
        w.put_u32(self.config.width);
        w.put_u32(self.config.depth);
        self.count_min.snapshot_to(w);
        self.top.snapshot_to(w);
    }

    /// Rebuild from [`HeavyHitters::snapshot_to`] bytes.
    pub fn restore_from(r: &mut SnapReader<'_>) -> Result<Self, CheckpointError> {
        let config = HeavyHitterConfig {
            k: r.take_u32()?,
            width: r.take_u32()?,
            depth: r.take_u32()?,
        };
        config.validate().map_err(CheckpointError::Corrupt)?;
        let count_min = CountMinSketch::restore_from(r)?;
        if (count_min.width, count_min.depth) != (config.width, config.depth) {
            return Err(CheckpointError::Corrupt(
                "count-min dimensions disagree with the heavy-hitter config".into(),
            ));
        }
        let top = SpaceSaving::restore_from(r)?;
        if top.capacity != config.k {
            return Err(CheckpointError::Corrupt(
                "space-saving capacity disagrees with the heavy-hitter config".into(),
            ));
        }
        Ok(Self {
            config,
            count_min,
            top,
        })
    }

    /// Derive the "network impact" report section: top-K by packets and by
    /// pps, per-source rate percentiles (count-min estimates over
    /// `sources`, the year's distinct source list), and the
    /// aggressive-scanner census per tool × origin /8.
    pub fn network_impact(&self, year: u16, window_secs: f64, sources: &[u32]) -> NetworkImpact {
        let ranked = self.top.top();
        let entry_of = |key: u64, slot: &HeavySlot| HeavyHitterEntry {
            source: dotted(key as u32),
            packets: slot.packets,
            count_error: slot.err,
            pps: slot.pps(),
            tool: TOOL_SLOT_NAMES[slot.dominant_tool()].to_string(),
            origin: origin_of(key as u32),
        };
        let top_by_packets: Vec<HeavyHitterEntry> =
            ranked.iter().map(|(k, s)| entry_of(*k, s)).collect();
        let mut by_pps = ranked.clone();
        by_pps.sort_by(|(ka, a), (kb, b)| {
            b.pps()
                .partial_cmp(&a.pps())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(ka.cmp(kb))
        });
        let top_by_pps: Vec<HeavyHitterEntry> =
            by_pps.iter().map(|(k, s)| entry_of(*k, s)).collect();

        // Rate percentiles over the whole source population, from the
        // count-min estimates (the dense per-source counts exist too, but
        // the report is the sketch's view — that is what the differential
        // suite bounds).
        let window = window_secs.max(1.0);
        let mut rates: Vec<f64> = {
            let mut sorted: Vec<u32> = sources.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            sorted
                .iter()
                .map(|&src| self.estimate(src) as f64 / window)
                .collect()
        };
        rates.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let rate_percentiles = RatePercentiles {
            p50: percentile(&rates, 0.50),
            p90: percentile(&rates, 0.90),
            p99: percentile(&rates, 0.99),
            max: rates.last().copied().unwrap_or(0.0),
        };

        // Census: the tracked (aggressive) scanners grouped by dominant
        // tool and origin /8.
        let mut census: BTreeMap<(usize, u8), (u64, u64)> = BTreeMap::new();
        for (key, slot) in &ranked {
            let cell = census
                .entry((slot.dominant_tool(), (*key as u32 >> 24) as u8))
                .or_insert((0, 0));
            cell.0 += 1;
            cell.1 += slot.packets;
        }
        let census = census
            .into_iter()
            .map(|((tool, octet), (sources, packets))| AggressiveCensusRow {
                tool: TOOL_SLOT_NAMES[tool].to_string(),
                origin: format!("{octet}.0.0.0/8"),
                sources,
                packets,
            })
            .collect();

        NetworkImpact {
            year,
            config: self.config,
            window_secs,
            total_packets: self.count_min.total(),
            tracked_sources: self.top.len() as u64,
            evictions: self.top.evictions(),
            epsilon: self.config.epsilon(),
            delta: self.config.delta(),
            sketch_bytes: self.state_bytes() as u64,
            top_by_packets,
            top_by_pps,
            rate_percentiles,
            census,
        }
    }
}

/// Dotted-quad form of a host-order IPv4 address (kept local so the module
/// compiles standalone without the wire crate).
fn dotted(ip: u32) -> String {
    format!(
        "{}.{}.{}.{}",
        ip >> 24,
        (ip >> 16) & 0xff,
        (ip >> 8) & 0xff,
        ip & 0xff
    )
}

/// The origin /8 of a source address, as rendered in the census.
fn origin_of(ip: u32) -> String {
    format!("{}.0.0.0/8", ip >> 24)
}

/// Nearest-rank percentile of an ascending-sorted slice (0 for empty).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// One ranked source in the network-impact report.
#[derive(Debug, Clone, PartialEq)]
pub struct HeavyHitterEntry {
    /// Source address, dotted quad.
    pub source: String,
    /// Tracked packet count (upper bound on the true count).
    pub packets: u64,
    /// Overcount bound: true count ≥ `packets - count_error`.
    pub count_error: u64,
    /// Estimated packets per second over the source's active window.
    pub pps: f64,
    /// Dominant attributed tool while tracked (`"unattributed"` if none).
    pub tool: String,
    /// Origin /8 of the source.
    pub origin: String,
}
impl_to_json!(HeavyHitterEntry {
    source,
    packets,
    count_error,
    pps,
    tool,
    origin
});

/// Per-source rate percentiles (pps over the capture window), estimated
/// from the count-min sketch across every distinct source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatePercentiles {
    /// Median estimated rate.
    pub p50: f64,
    /// 90th-percentile estimated rate.
    pub p90: f64,
    /// 99th-percentile estimated rate.
    pub p99: f64,
    /// Maximum estimated rate.
    pub max: f64,
}
impl_to_json!(RatePercentiles { p50, p90, p99, max });

/// One aggressive-scanner census row: tracked heavy hitters grouped by
/// dominant tool and origin /8.
#[derive(Debug, Clone, PartialEq)]
pub struct AggressiveCensusRow {
    /// Dominant tool name (`"unattributed"` when no fingerprint matched).
    pub tool: String,
    /// Origin /8 in `a.0.0.0/8` form.
    pub origin: String,
    /// Tracked sources in this (tool, origin) cell.
    pub sources: u64,
    /// Combined tracked packets of those sources.
    pub packets: u64,
}
impl_to_json!(AggressiveCensusRow {
    tool,
    origin,
    sources,
    packets
});

/// The "network impact" report section for one year — everything derived
/// from the sketch state at report time.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkImpact {
    /// Calendar year the section covers.
    pub year: u16,
    /// Sketch sizing the state was built with.
    pub config: HeavyHitterConfig,
    /// Capture window length in seconds (rate denominator).
    pub window_secs: f64,
    /// Total admitted packets the sketch absorbed.
    pub total_packets: u64,
    /// Sources currently tracked by the top-K structure.
    pub tracked_sources: u64,
    /// Space-saving evictions (0 means the top-K is exact).
    pub evictions: u64,
    /// Count-min error bound `ε = e/width`.
    pub epsilon: f64,
    /// Count-min failure probability `δ = e^-depth`.
    pub delta: f64,
    /// Bytes the sketch state occupies (vs. dense per-source state).
    pub sketch_bytes: u64,
    /// Top-K sources by tracked packets.
    pub top_by_packets: Vec<HeavyHitterEntry>,
    /// Top-K sources by estimated packet rate.
    pub top_by_pps: Vec<HeavyHitterEntry>,
    /// Rate percentiles across every distinct source.
    pub rate_percentiles: RatePercentiles,
    /// Aggressive-scanner census per (dominant tool, origin /8).
    pub census: Vec<AggressiveCensusRow>,
}
impl_to_json!(NetworkImpact {
    year,
    config,
    window_secs,
    total_packets,
    tracked_sources,
    evictions,
    epsilon,
    delta,
    sketch_bytes,
    top_by_packets,
    top_by_pps,
    rate_percentiles,
    census
});

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot_of(h: &HeavyHitters) -> Vec<u8> {
        let mut w = SnapWriter::new();
        h.snapshot_to(&mut w);
        w.into_bytes()
    }

    #[test]
    fn config_parses_the_cli_grammar() {
        let d = HeavyHitterConfig::default();
        assert_eq!("10".parse::<HeavyHitterConfig>().unwrap(), {
            HeavyHitterConfig { k: 10, ..d }
        });
        assert_eq!(
            "10,512".parse::<HeavyHitterConfig>().unwrap(),
            HeavyHitterConfig {
                k: 10,
                width: 512,
                depth: d.depth
            }
        );
        assert_eq!(
            "10,512,5".parse::<HeavyHitterConfig>().unwrap(),
            HeavyHitterConfig {
                k: 10,
                width: 512,
                depth: 5
            }
        );
        assert!("".parse::<HeavyHitterConfig>().is_err());
        assert!("0".parse::<HeavyHitterConfig>().is_err());
        assert!("4,0".parse::<HeavyHitterConfig>().is_err());
        assert!("4,16,99".parse::<HeavyHitterConfig>().is_err());
        assert!("4,16,2,9".parse::<HeavyHitterConfig>().is_err());
        assert!("x".parse::<HeavyHitterConfig>().is_err());
        let spec: HeavyHitterConfig = "7,128,3".parse().unwrap();
        assert_eq!(spec.to_string(), "7,128,3");
    }

    #[test]
    fn count_min_never_undercounts_and_totals_add() {
        let mut cm = CountMinSketch::new(64, 4);
        for key in 0u64..500 {
            cm.add(key, key % 7 + 1);
        }
        for key in 0u64..500 {
            assert!(cm.estimate(key) > key % 7, "undercount at {key}");
        }
        assert_eq!(cm.total(), (0u64..500).map(|k| k % 7 + 1).sum::<u64>());
        assert_eq!(cm.estimate(10_000), cm.estimate(10_000)); // deterministic
    }

    #[test]
    fn plain_count_min_merge_is_byte_identical_to_sequential() {
        let keys: Vec<u64> = (0..2000).map(|i| mix64(i) % 300).collect();
        let mut sequential = CountMinSketch::new(128, 4);
        let mut even = CountMinSketch::new(128, 4);
        let mut odd = CountMinSketch::new(128, 4);
        for &k in &keys {
            sequential.add(k, 1);
            if k % 2 == 0 {
                even.add(k, 1);
            } else {
                odd.add(k, 1);
            }
        }
        let mut merged = CountMinSketch::new(128, 4);
        merged.merge(&odd);
        merged.merge(&even);
        assert_eq!(merged, sequential);
        let (mut a, mut b) = (SnapWriter::new(), SnapWriter::new());
        merged.snapshot_to(&mut a);
        sequential.snapshot_to(&mut b);
        assert_eq!(a.into_bytes(), b.into_bytes());
    }

    #[test]
    fn conservative_update_is_tighter_but_not_mergeable() {
        // Tighter: conservative estimates never exceed plain ones.
        let keys: Vec<u64> = (0..3000u64)
            .map(|i| mix64(i.wrapping_mul(3)) % 100)
            .collect();
        let mut plain = CountMinSketch::new(16, 2);
        let mut conservative = CountMinSketch::new(16, 2);
        for &k in &keys {
            plain.add(k, 1);
            conservative.add_conservative(k, 1);
        }
        for k in 0..100u64 {
            assert!(conservative.estimate(k) <= plain.estimate(k), "key {k}");
            let truth = keys.iter().filter(|&&x| x == k).count() as u64;
            assert!(conservative.estimate(k) >= truth, "undercount at {k}");
        }

        // Not mergeable: find two keys sharing a row-0 cell but not a
        // row-1 cell, add 5 of one then 1 of the other — the sequential
        // conservative state differs from the merged shard states. (Width
        // 3, not 2: FxHash's low bit is the key's low bit in every row, so
        // at a power-of-two width no pair separates in one row only.)
        let probe = CountMinSketch::new(3, 2);
        let (mut a, mut b) = (None, None);
        'search: for x in 0u64..64 {
            for y in 0u64..64 {
                if x != y
                    && probe.cell_of(0, x) == probe.cell_of(0, y)
                    && probe.cell_of(1, x) != probe.cell_of(1, y)
                {
                    a = Some(x);
                    b = Some(y);
                    break 'search;
                }
            }
        }
        let (a, b) = (a.expect("collision pair exists"), b.expect("pair"));
        let mut sequential = CountMinSketch::new(3, 2);
        sequential.add_conservative(a, 5);
        sequential.add_conservative(b, 1);
        let mut shard_a = CountMinSketch::new(3, 2);
        shard_a.add_conservative(a, 5);
        let mut shard_b = CountMinSketch::new(3, 2);
        shard_b.add_conservative(b, 1);
        shard_a.merge(&shard_b);
        assert_ne!(
            shard_a, sequential,
            "conservative update must not pretend to be mergeable"
        );
    }

    #[test]
    fn space_saving_is_exact_below_capacity() {
        let mut ss = SpaceSaving::new(8);
        for (key, count) in [(1u64, 5u64), (2, 3), (3, 9)] {
            for i in 0..count {
                ss.offer(key, i * 1_000_000, 0);
            }
        }
        assert_eq!(ss.evictions(), 0);
        let top = ss.top();
        assert_eq!(top[0].0, 3);
        assert_eq!(top[0].1.packets, 9);
        assert_eq!(top[0].1.err, 0);
        assert_eq!(top[1].0, 1);
        assert_eq!(top[2].0, 2);
    }

    #[test]
    fn space_saving_tracks_every_true_heavy_hitter() {
        // One key holds 40% of the mass; capacity 4 must keep it, and the
        // count must bracket the truth: packets - err <= 400 <= packets.
        let mut ss = SpaceSaving::new(4);
        let mut n = 0u64;
        for i in 0..1000u64 {
            let key = if i % 5 < 2 { 7 } else { 100 + (mix64(i) % 50) };
            ss.offer(key, i, 0);
            n += 1;
        }
        let slot = ss.get(7).expect("heavy key must stay tracked");
        assert!(slot.packets >= 400);
        assert!(slot.packets - slot.err <= 400);
        assert!(ss.evictions() > 0);
        assert_eq!(ss.total(), n);
        // Every slot's error is bounded by N/capacity.
        for (_, slot) in ss.top() {
            assert!(slot.err <= n / 4);
        }
    }

    #[test]
    fn space_saving_tie_break_is_deterministic() {
        // Two equal-count victims: the smaller key is evicted.
        let mut ss = SpaceSaving::new(2);
        ss.offer(10, 0, 0);
        ss.offer(20, 1, 0);
        ss.offer(30, 2, 0); // both victims have count 1 -> evict key 10
        assert!(ss.get(10).is_none());
        assert!(ss.get(20).is_some());
        let slot = ss.get(30).expect("newcomer tracked");
        assert_eq!((slot.packets, slot.err), (2, 1));
    }

    /// The min-walk tracker the heap replaced: a key-ascending `BTreeMap`
    /// whose eviction scans every slot for the smallest `(packets, key)`.
    /// Its snapshot is the format's definition.
    #[derive(Debug, Clone)]
    struct MinWalk {
        capacity: u32,
        total: u64,
        evictions: u64,
        slots: BTreeMap<u64, HeavySlot>,
    }

    impl MinWalk {
        fn new(capacity: u32) -> Self {
            Self {
                capacity,
                total: 0,
                evictions: 0,
                slots: BTreeMap::new(),
            }
        }

        fn min_key(&self) -> u64 {
            let (&victim, _) = self
                .slots
                .iter()
                .min_by_key(|(&k, slot)| (slot.packets, k))
                .expect("non-empty");
            victim
        }

        fn offer(&mut self, key: u64, ts_micros: u64, tool_slot: usize) {
            self.total += 1;
            if let Some(slot) = self.slots.get_mut(&key) {
                slot.packets += 1;
                slot.first_ts_micros = slot.first_ts_micros.min(ts_micros);
                slot.last_ts_micros = slot.last_ts_micros.max(ts_micros);
                slot.tool_packets[tool_slot.min(TOOL_SLOTS - 1)] += 1;
                return;
            }
            let mut fresh = HeavySlot::fresh(ts_micros, tool_slot);
            if self.slots.len() == self.capacity as usize {
                let victim = self.slots.remove(&self.min_key()).expect("victim");
                fresh.packets += victim.packets;
                fresh.err = victim.packets;
                self.evictions += 1;
            }
            self.slots.insert(key, fresh);
        }

        fn merge(&mut self, other: MinWalk) {
            self.total += other.total;
            self.evictions += other.evictions;
            for (key, theirs) in other.slots {
                let Some(mine) = self.slots.get_mut(&key) else {
                    self.slots.insert(key, theirs);
                    continue;
                };
                mine.packets += theirs.packets;
                mine.err += theirs.err;
                mine.first_ts_micros = mine.first_ts_micros.min(theirs.first_ts_micros);
                mine.last_ts_micros = mine.last_ts_micros.max(theirs.last_ts_micros);
                for (m, t) in mine.tool_packets.iter_mut().zip(theirs.tool_packets) {
                    *m += t;
                }
            }
            while self.slots.len() > self.capacity as usize {
                self.slots.remove(&self.min_key());
                self.evictions += 1;
            }
        }

        fn snapshot(&self) -> Vec<u8> {
            let mut w = SnapWriter::new();
            w.put_u32(self.capacity);
            w.put_u64(self.total);
            w.put_u64(self.evictions);
            w.put_u64(self.slots.len() as u64);
            for (&key, slot) in &self.slots {
                for field in [
                    key,
                    slot.packets,
                    slot.err,
                    slot.first_ts_micros,
                    slot.last_ts_micros,
                ] {
                    w.put_u64(field);
                }
                slot.tool_packets.iter().for_each(|&n| w.put_u64(n));
            }
            w.into_bytes()
        }
    }

    fn tracker_bytes(tracker: &SpaceSaving) -> Vec<u8> {
        let mut w = SnapWriter::new();
        tracker.snapshot_to(&mut w);
        w.into_bytes()
    }

    fn restored(tracker: &SpaceSaving) -> SpaceSaving {
        let bytes = tracker_bytes(tracker);
        let mut r = SnapReader::new(&bytes);
        let back = SpaceSaving::restore_from(&mut r).expect("round trip");
        assert_eq!(r.remaining(), 0);
        back
    }

    /// A seeded skewed stream: a few heavy keys, many one-off keys, and
    /// repeated counts so `(packets, key)` ties are common.
    fn skewed_offer(seed: u64, i: u64) -> (u64, u64, usize) {
        let draw = mix64(seed.wrapping_mul(0x9e37_79b9) ^ i);
        let key = match draw % 10 {
            0..=3 => draw % 5,
            4..=6 => 100 + draw % 40,
            _ => 1_000 + draw % 100_000,
        };
        (key, i * 1_000 + draw % 997, (draw >> 40) as usize % 9)
    }

    #[test]
    fn heap_tracker_matches_the_min_walk_reference() {
        for seed in 0..12u64 {
            for capacity in [1u32, 2, 3, 8, 33] {
                let what = format!("seed {seed}, capacity {capacity}");
                let mut heap = SpaceSaving::new(capacity);
                let mut walk = MinWalk::new(capacity);
                let mut shards = [SpaceSaving::new(capacity), SpaceSaving::new(capacity)];
                let mut walk_shards = [MinWalk::new(capacity), MinWalk::new(capacity)];
                for i in 0..1_500u64 {
                    let (key, ts, tool) = skewed_offer(seed, i);
                    heap.offer(key, ts, tool);
                    walk.offer(key, ts, tool);
                    let shard = (key % 2) as usize;
                    shards[shard].offer(key, ts, tool);
                    walk_shards[shard].offer(key, ts, tool);
                    if i % 250 == 249 {
                        assert_eq!(tracker_bytes(&heap), walk.snapshot(), "{what}, offer {i}");
                        // Cut and resume: the rebuilt heap continues alike.
                        heap = restored(&heap);
                    }
                }
                assert!(heap.evictions() > 0, "{what}: the stream must evict");
                assert_eq!(tracker_bytes(&heap), walk.snapshot(), "{what}");
                assert_eq!(heap, restored(&heap), "{what}: logical equality");
                for (k, slot) in walk.slots.iter() {
                    assert_eq!(heap.get(*k), Some(slot), "{what}: key {k}");
                }

                let [even, odd] = shards;
                let [walk_even, walk_odd] = walk_shards;
                let mut merged = even.clone();
                merged.merge(odd.clone());
                let mut walk_merged = walk_even.clone();
                walk_merged.merge(walk_odd.clone());
                assert_eq!(
                    tracker_bytes(&merged),
                    walk_merged.snapshot(),
                    "{what}: merge"
                );
                let mut backward = restored(&odd);
                backward.merge(restored(&even));
                let mut walk_backward = walk_odd;
                walk_backward.merge(walk_even);
                assert_eq!(
                    tracker_bytes(&backward),
                    walk_backward.snapshot(),
                    "{what}: merge of restored shards"
                );
            }
        }
    }

    #[test]
    fn heavy_hitters_merge_below_capacity_is_byte_identical() {
        let cfg = HeavyHitterConfig {
            k: 16,
            width: 256,
            depth: 3,
        };
        let mut sequential = HeavyHitters::new(cfg);
        let mut shard0 = HeavyHitters::new(cfg);
        let mut shard1 = HeavyHitters::new(cfg);
        for i in 0..4000u64 {
            let src = 0x0a00_0000 + (mix64(i) % 10) as u32; // 10 sources < k
            let ts = i * 777;
            let tool = (i % 3) as usize;
            sequential.offer(src, ts, tool);
            if src.is_multiple_of(2) {
                shard0.offer(src, ts, tool);
            } else {
                shard1.offer(src, ts, tool);
            }
        }
        let mut merged = shard1;
        merged.absorb(shard0);
        assert_eq!(merged, sequential);
        assert_eq!(snapshot_of(&merged), snapshot_of(&sequential));
    }

    #[test]
    fn snapshot_round_trips_and_rejects_corruption() {
        let mut h = HeavyHitters::new(HeavyHitterConfig {
            k: 5,
            width: 64,
            depth: 4,
        });
        for i in 0..500u64 {
            h.offer((mix64(i) % 40) as u32, i * 10_000, (i % 7) as usize);
        }
        let bytes = snapshot_of(&h);
        let mut r = SnapReader::new(&bytes);
        let back = HeavyHitters::restore_from(&mut r).expect("round trip");
        assert_eq!(r.remaining(), 0);
        assert_eq!(back, h);
        assert_eq!(snapshot_of(&back), bytes);

        // Truncations and a zero dimension are typed errors, not panics.
        for cut in [0, 4, 11, bytes.len() / 2, bytes.len() - 1] {
            let mut r = SnapReader::new(&bytes[..cut]);
            assert!(HeavyHitters::restore_from(&mut r).is_err(), "cut={cut}");
        }
        let mut zeroed = bytes.clone();
        zeroed[0..4].copy_from_slice(&0u32.to_le_bytes()); // k = 0
        let mut r = SnapReader::new(&zeroed);
        assert!(HeavyHitters::restore_from(&mut r).is_err());

        // The tracked slots close the snapshot, ascending by key; the same
        // slots in another order are not the bytes any writer emits.
        let slot = 8 * (5 + TOOL_SLOTS);
        let mut swapped = bytes.clone();
        let (head, last) = swapped.split_at_mut(bytes.len() - slot);
        head[bytes.len() - 2 * slot..].swap_with_slice(last);
        let mut r = SnapReader::new(&swapped);
        assert!(matches!(
            HeavyHitters::restore_from(&mut r),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn network_impact_ranks_rates_and_census() {
        let mut h = HeavyHitters::new(HeavyHitterConfig {
            k: 4,
            width: 512,
            depth: 4,
        });
        // Source A: 100 packets over 100 s (1 pps), zmap-attributed.
        for i in 0..100u64 {
            h.offer(0x0101_0101, i * 1_000_000, 1);
        }
        // Source B: 50 packets in 1 s (50 pps), unattributed.
        for i in 0..50u64 {
            h.offer(0xc0a8_0001, i * 20_000, 0);
        }
        let sources = [0x0101_0101u32, 0xc0a8_0001];
        let impact = h.network_impact(2020, 100.0, &sources);
        assert_eq!(impact.top_by_packets[0].source, "1.1.1.1");
        assert_eq!(impact.top_by_packets[0].packets, 100);
        assert_eq!(impact.top_by_packets[0].tool, "zmap");
        assert_eq!(impact.top_by_pps[0].source, "192.168.0.1");
        assert!(impact.top_by_pps[0].pps > 40.0);
        assert_eq!(impact.evictions, 0);
        assert_eq!(impact.total_packets, 150);
        assert!(impact.rate_percentiles.max >= impact.rate_percentiles.p50);
        assert_eq!(impact.census.len(), 2);
        assert!(impact
            .census
            .iter()
            .any(|row| row.tool == "zmap" && row.origin == "1.0.0.0/8" && row.sources == 1));
        assert!(impact.sketch_bytes > 0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.50), 2.0);
        assert_eq!(percentile(&v, 0.90), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
