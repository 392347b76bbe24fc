//! Lazy, bounded-memory emission of a planned year.
//!
//! [`crate::generate::plan_year`] runs the whole year's *planning* logic —
//! every actor decision, every plan-level RNG draw, the full ground truth —
//! but materializes no records. Instead it captures, per campaign, an
//! `EmitterSpec`: the exact RNG state at the moment the campaign's
//! per-record draws would begin, plus everything needed to replay those
//! draws (tool, crafter seed, source, ports, interval, budget). Replaying a
//! spec through `run_emitter` is *the same code path* the planner drained
//! through a [`NullSink`], so the draw sequence — and therefore every byte
//! of every record — is identical by construction.
//!
//! [`YearStream`] then merges the emitters into one time-ordered stream:
//!
//! * specs are scheduled by `(start_micros, plan_index)`;
//! * an emitter is **opened** (replayed into a sorted buffer) only when the
//!   merge frontier reaches its start time — until then it costs ~200 bytes
//!   of captured RNG state;
//! * open buffers are consumed through a binary heap keyed by
//!   `(ts_micros, plan_index)` and freed as soon as they drain.
//!
//! **Merge ≡ sort, provably.** The materialized path concatenates the
//! emitters' outputs in plan order and stable-sorts by `ts_micros`; a stable
//! sort orders equal timestamps by concatenation position, i.e. by
//! `(plan_index, within-emitter position)`. The stream yields each
//! emitter's records in within-emitter order (buffers are stable-sorted and
//! consumed front to back) and breaks equal-timestamp ties across emitters
//! by `plan_index` — the same total order. Opening by start time loses
//! nothing: an unopened spec's records all have `ts >= start`, and specs
//! are opened before the frontier passes their start. The byte-for-byte
//! equality is enforced by tests here and in `generate`.
//!
//! Peak memory is the sum of buffers of *time-overlapping* emitters — at
//! telescope scale a small fraction of the year — instead of the whole
//! year's record vector.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use synscan_stats::Rng;

use synscan_scanners::traits::{craft_record, mix64, ToolKind};
use synscan_telescope::{AddressSet, BackscatterGenerator};
use synscan_wire::stream::{NullSink, RecordSink, StreamError, TryRecordStream, BATCH_RECORDS};
use synscan_wire::{Ipv4Address, ProbeRecord};

use crate::generate::{emit_campaign, make_crafter, GroundTruth};

/// What one emitter replays. Ports are shared (`Arc`) because org fleets and
/// vertical buckets hand the same port list to many specs.
#[derive(Debug, Clone)]
pub(crate) enum EmitterKind {
    /// A plain campaign: `budget` probes uniform over the interval.
    Campaign {
        tool: ToolKind,
        crafter_seed: u64,
        marked: bool,
        src: Ipv4Address,
        ports: Arc<[u16]>,
        duration_micros: u64,
        budget: u64,
    },
    /// A vertical scan: one shuffled sweep over every targeted port, plus
    /// `extra` revisit probes.
    Vertical {
        tool: ToolKind,
        crafter_seed: u64,
        src: Ipv4Address,
        ports: Arc<[u16]>,
        duration_micros: u64,
        extra: u64,
    },
    /// One victim's backscatter burst.
    Backscatter {
        generator: BackscatterGenerator,
        duration_secs: f64,
    },
}

/// One lazily replayable campaign: captured RNG state + replay parameters.
#[derive(Debug, Clone)]
pub(crate) struct EmitterSpec {
    /// The shared generator RNG, snapshotted right before this emitter's
    /// per-record draws.
    pub(crate) rng: Rng,
    /// Earliest timestamp this emitter can produce.
    pub(crate) start_micros: u64,
    /// Exact number of records a replay produces (from the plan-time drain).
    pub(crate) count: u64,
    pub(crate) kind: EmitterKind,
}

/// Replay one emitter's per-record draws into `sink`; returns the record
/// count. This is the *only* emission code path: the planner drains it into
/// [`NullSink`] to advance the shared RNG, materialization and the stream
/// replay it from the snapshot — identical draws, identical bytes.
pub(crate) fn run_emitter<S: RecordSink + ?Sized>(
    kind: &EmitterKind,
    start_micros: u64,
    rng: &mut Rng,
    dark: &AddressSet,
    sink: &mut S,
) -> u64 {
    match kind {
        EmitterKind::Campaign {
            tool,
            crafter_seed,
            marked,
            src,
            ports,
            duration_micros,
            budget,
        } => {
            let crafter = make_crafter(*tool, *crafter_seed, *marked);
            emit_campaign(
                rng,
                sink,
                crafter.as_ref(),
                *src,
                ports,
                dark,
                start_micros,
                *duration_micros,
                *budget,
            );
            *budget
        }
        EmitterKind::Vertical {
            tool,
            crafter_seed,
            src,
            ports,
            duration_micros,
            extra,
        } => {
            let crafter = make_crafter(*tool, *crafter_seed, true);
            let ttl_dec = 5 + (mix64(u64::from(src.0)) % 20) as u8;
            let mut shuffled = ports.to_vec();
            rng.shuffle(&mut shuffled);
            for (i, &port) in shuffled.iter().enumerate() {
                let dst = dark.addresses()[rng.range(0..dark.len())];
                let ts = start_micros + rng.range(0..(*duration_micros).max(1));
                sink.accept(craft_record(
                    crafter.as_ref(),
                    *src,
                    dst,
                    port,
                    i as u64,
                    ts,
                    ttl_dec,
                ));
            }
            emit_campaign(
                rng,
                sink,
                crafter.as_ref(),
                *src,
                ports,
                dark,
                start_micros,
                *duration_micros,
                *extra,
            );
            shuffled.len() as u64 + *extra
        }
        EmitterKind::Backscatter {
            generator,
            duration_secs,
        } => {
            // `generate` sorts the burst internally, so a replay feeds the
            // sink in the same order the materialized path appended.
            let burst = generator.generate(rng, dark, start_micros, *duration_secs);
            let n = burst.len() as u64;
            for record in burst {
                sink.accept(record);
            }
            n
        }
    }
}

/// Planner-side emission: snapshot the shared RNG into a spec, then advance
/// the shared RNG through the emitter with a [`NullSink`] — the drain that
/// keeps every later plan-level draw identical to the materializing
/// generator. Returns the emitter's record count.
pub(crate) fn plan_emit(
    specs: &mut Vec<EmitterSpec>,
    rng: &mut Rng,
    dark: &AddressSet,
    start_micros: u64,
    kind: EmitterKind,
) -> u64 {
    let snapshot = rng.clone();
    let count = run_emitter(&kind, start_micros, rng, dark, &mut NullSink);
    specs.push(EmitterSpec {
        rng: snapshot,
        start_micros,
        count,
        kind,
    });
    count
}

/// A fully planned year: ground truth plus the lazy emitter set. Both
/// [`YearPlan::materialize`] and [`YearPlan::stream`] borrow the plan, so
/// one plan can back any number of (byte-identical) record passes.
#[derive(Debug, Clone)]
pub struct YearPlan {
    /// Calendar year.
    pub year: u16,
    /// What was generated — complete at plan time, before any record exists.
    pub truth: GroundTruth,
    pub(crate) specs: Vec<EmitterSpec>,
}

impl YearPlan {
    /// Exact number of records the year produces.
    pub(crate) fn total_records(&self) -> u64 {
        self.specs.iter().map(|s| s.count).sum()
    }

    /// Number of lazy emitters in the plan.
    pub fn emitters(&self) -> usize {
        self.specs.len()
    }

    /// Replay every emitter and sort — the whole year as one `Vec`, byte
    /// identical to what [`crate::generate::generate_year`] has always
    /// returned (it is now implemented as exactly this).
    pub fn materialize(&self, dark: &AddressSet) -> Vec<ProbeRecord> {
        let mut records: Vec<ProbeRecord> = Vec::with_capacity(self.total_records() as usize);
        for spec in &self.specs {
            let mut rng = spec.rng.clone();
            run_emitter(&spec.kind, spec.start_micros, &mut rng, dark, &mut records);
        }
        // Stable: equal timestamps stay in (plan order, emission order) —
        // the order the heap merge reproduces.
        records.sort_by_key(|r| r.ts_micros);
        records
    }

    /// The year as a bounded-memory [`TryRecordStream`] (one that never
    /// errors).
    pub fn stream<'p>(&'p self, dark: &'p AddressSet) -> YearStream<'p> {
        YearStream::new(self, dark)
    }
}

/// An open emitter: its sorted record buffer and the consume position.
#[derive(Debug)]
struct OpenEmitter {
    records: Vec<ProbeRecord>,
    pos: usize,
}

/// The k-way merge over a [`YearPlan`]'s emitters. See the module docs for
/// the opening rule and the merge-equals-sort argument.
#[derive(Debug)]
pub struct YearStream<'p> {
    plan: &'p YearPlan,
    dark: &'p AddressSet,
    /// Spec indices ordered by `(start_micros, plan index)`.
    schedule: Vec<u32>,
    /// Next schedule entry to open.
    cursor: usize,
    open: HashMap<u32, OpenEmitter>,
    /// Min-heap of `(head timestamp, plan index)` over open emitters.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    batch: Vec<ProbeRecord>,
    emitted: u64,
    current_buffered: usize,
    peak_buffered: usize,
    peak_open: usize,
}

impl<'p> YearStream<'p> {
    fn new(plan: &'p YearPlan, dark: &'p AddressSet) -> Self {
        let mut schedule: Vec<u32> = (0..plan.specs.len() as u32).collect();
        // Stable sort: equal start times keep plan order, so the heap
        // tie-break on plan index sees specs in the order the planner
        // emitted them.
        schedule.sort_by_key(|&i| plan.specs[i as usize].start_micros);
        Self {
            plan,
            dark,
            schedule,
            cursor: 0,
            open: HashMap::new(),
            heap: BinaryHeap::new(),
            batch: Vec::with_capacity(BATCH_RECORDS),
            emitted: 0,
            current_buffered: 0,
            peak_buffered: 0,
            peak_open: 0,
        }
    }

    /// Records yielded so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// High-water mark of records buffered across open emitters — the
    /// stream's actual memory footprint (the bounded-batch tests assert on
    /// this; a hidden full collect would make it `total_records`).
    pub fn peak_buffered_records(&self) -> usize {
        self.peak_buffered
    }

    /// High-water mark of simultaneously open emitters.
    pub fn peak_open_emitters(&self) -> usize {
        self.peak_open
    }

    /// Replay the next scheduled spec into a sorted buffer and register its
    /// head in the heap.
    fn open_next(&mut self) {
        let idx = self.schedule[self.cursor];
        self.cursor += 1;
        let spec = &self.plan.specs[idx as usize];
        let mut records: Vec<ProbeRecord> = Vec::with_capacity(spec.count as usize);
        let mut rng = spec.rng.clone();
        run_emitter(
            &spec.kind,
            spec.start_micros,
            &mut rng,
            self.dark,
            &mut records,
        );
        records.sort_by_key(|r| r.ts_micros); // stable: ties keep emission order
        if records.is_empty() {
            return;
        }
        self.current_buffered += records.len();
        self.peak_buffered = self.peak_buffered.max(self.current_buffered);
        self.heap.push(Reverse((records[0].ts_micros, idx)));
        self.open.insert(idx, OpenEmitter { records, pos: 0 });
        self.peak_open = self.peak_open.max(self.open.len());
    }

    /// Open every spec whose start time does not exceed the merge frontier.
    /// After this, the heap's minimum is globally minimal: all unopened
    /// specs start — and therefore emit — strictly later.
    fn open_due(&mut self) {
        loop {
            let Some(&next) = self.schedule.get(self.cursor) else {
                return;
            };
            let next_start = self.plan.specs[next as usize].start_micros;
            match self.heap.peek() {
                Some(&Reverse((head_ts, _))) if next_start > head_ts => return,
                _ => self.open_next(),
            }
        }
    }
}

impl TryRecordStream for YearStream<'_> {
    fn try_next_batch(&mut self) -> Result<Option<&[ProbeRecord]>, StreamError> {
        self.batch.clear();
        while self.batch.len() < BATCH_RECORDS {
            self.open_due();
            let Some(Reverse((_, idx))) = self.heap.pop() else {
                break; // no open emitters and nothing left to open
            };
            let emitter = self.open.get_mut(&idx).expect("heap entry has an emitter");
            self.batch.push(emitter.records[emitter.pos]);
            emitter.pos += 1;
            self.emitted += 1;
            self.current_buffered -= 1;
            if emitter.pos < emitter.records.len() {
                self.heap
                    .push(Reverse((emitter.records[emitter.pos].ts_micros, idx)));
            } else {
                self.open.remove(&idx); // drained: free the buffer now
            }
        }
        if self.batch.is_empty() {
            Ok(None)
        } else {
            Ok(Some(&self.batch))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synscan_telescope::TelescopeConfig;

    fn dark() -> AddressSet {
        AddressSet::build(&TelescopeConfig::paper_scaled(128))
    }

    fn campaign_spec(
        seed: u64,
        start_micros: u64,
        duration_micros: u64,
        budget: u64,
    ) -> EmitterSpec {
        EmitterSpec {
            rng: Rng::seed_from_u64(seed),
            start_micros,
            count: budget,
            kind: EmitterKind::Campaign {
                tool: ToolKind::Zmap,
                crafter_seed: seed ^ 0xc0ffee,
                marked: true,
                src: Ipv4Address::new(203, 0, 113, (seed % 250) as u8 + 1),
                ports: vec![443, 80].into(),
                duration_micros,
                budget,
            },
        }
    }

    /// 50 strictly disjoint one-hour campaigns: the stream must hold exactly
    /// one emitter's buffer at a time — the structural proof that nothing
    /// secretly collects the year.
    #[test]
    fn disjoint_emitters_are_buffered_one_at_a_time() {
        const HOUR: u64 = 3_600_000_000;
        const BUDGET: u64 = 1_000;
        let dark = dark();
        let mut specs: Vec<EmitterSpec> = (0..50u64)
            .map(|i| campaign_spec(i, i * HOUR, HOUR, BUDGET))
            .collect();
        // A zero-budget spec must be skipped cleanly, not wedge the merge.
        specs.push(campaign_spec(99, 7 * HOUR, HOUR, 0));
        let plan = YearPlan {
            year: 2020,
            truth: GroundTruth::default(),
            specs,
        };
        assert_eq!(plan.total_records(), 50 * BUDGET);

        let mut stream = plan.stream(&dark);
        let mut batches = 0usize;
        let mut collected = Vec::new();
        while let Some(batch) = stream.try_next_batch().unwrap() {
            batches += 1;
            assert!(batch.len() <= BATCH_RECORDS);
            collected.extend_from_slice(batch);
        }
        assert_eq!(stream.emitted(), 50 * BUDGET);
        assert_eq!(batches, (50 * BUDGET as usize).div_ceil(BATCH_RECORDS));
        assert!(collected
            .windows(2)
            .all(|w| w[0].ts_micros <= w[1].ts_micros));
        // The bounded-memory invariant, exactly: never more than one open
        // emitter, never more than one campaign buffered.
        assert_eq!(stream.peak_open_emitters(), 1);
        assert_eq!(stream.peak_buffered_records(), BUDGET as usize);

        assert_eq!(collected, plan.materialize(&dark));
    }

    /// Overlapping emitters with colliding timestamps: the heap tie-break on
    /// plan index must reproduce the stable sort of the materialized path.
    #[test]
    fn overlapping_emitters_merge_exactly_like_the_stable_sort() {
        let dark = dark();
        // Tiny duration forces massive timestamp collisions across specs.
        let specs: Vec<EmitterSpec> = (0..8u64).map(|i| campaign_spec(i, 1_000, 3, 400)).collect();
        let plan = YearPlan {
            year: 2021,
            truth: GroundTruth::default(),
            specs,
        };
        let materialized = plan.materialize(&dark);
        let mut stream = plan.stream(&dark);
        let mut streamed = Vec::new();
        while let Some(batch) = stream.try_next_batch().unwrap() {
            streamed.extend_from_slice(batch);
        }
        assert_eq!(streamed, materialized);
        assert_eq!(stream.peak_open_emitters(), 8, "all overlap");
    }
}
