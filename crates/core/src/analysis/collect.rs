//! The streaming per-year aggregator.
//!
//! One pass over a year's admitted probe stream builds every aggregate the
//! figure modules need, while the embedded fingerprint + campaign pipeline
//! runs alongside. Memory is proportional to the number of *distinct*
//! sources, ports and (week, /16) cells — not packets.
//!
//! Internally the collector is compact: sources are interned to dense ids
//! by the pipeline (one hash probe per record), per-source aggregates are
//! `Vec`-indexed by that id, distinct-source sets are sorted-vec/bitmap
//! hybrids ([`crate::compact`]), and the remaining tuple-keyed maps pack
//! their keys into single integers hashed with [`crate::fasthash`]. Only
//! the open volatility period's (week, /16) cells are a map: a period the
//! stream has left is sealed into sorted columns once, and nothing sorts
//! or rehashes it again. The
//! public [`YearAnalysis`] is assembled from this state at
//! [`YearCollector::finish`] as key-sorted columns ([`SortedMap`]): the
//! order the store format writes and every later stage — merge, encode,
//! decode, lookup — reads, so hashing and sorting both end there.

use std::collections::BTreeMap;

use synscan_wire::{Ipv4Address, ProbeRecord};

use synscan_scanners::traits::ToolKind;

use crate::campaign::{
    tool_slot, Campaign, CampaignConfig, NoiseStats, Pipeline, TOOL_BY_SLOT, TOOL_SLOTS,
};
use crate::checkpoint::{Ascending, CheckpointError, SnapReader, SnapWriter};
use crate::compact::{snapshot_ids, sorted_union, IdSet, PortSet, SortedMap};
use crate::fasthash::FxHashMap;
use crate::sketch::{HeavyHitterConfig, HeavyHitters};

/// Seconds per day, as µs.
const DAY_MICROS: u64 = 86_400 * 1_000_000;

/// Per-(week, /16) activity cell for the volatility analysis.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WeekCell {
    /// Distinct scanning sources seen from this /16 this week.
    pub sources: u64,
    /// Packets received from this /16 this week.
    pub packets: u64,
    /// Campaigns that *started* in this /16 this week.
    pub campaigns: u64,
}

impl WeekCell {
    /// Add another partial's tallies for the same (week, /16).
    fn absorb(&mut self, other: &WeekCell) {
        self.sources += other.sources;
        self.packets += other.packets;
        self.campaigns += other.campaigns;
    }
}

/// Lookup structures derived from one year's final campaign list: what the
/// answer path (`report::source_history`, `report::campaign_lookup`,
/// `yearly::summarize`) reads instead of walking `campaigns` per query.
///
/// A pure function of [`YearAnalysis::campaigns`] and
/// [`YearAnalysis::tool_port_packets`], built once where those become final
/// and never serialized. The tallies are integers; `summarize` divides them
/// once, exactly as it did when it counted them itself.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct YearIndex {
    /// `(source, position in campaigns)`, sorted: one source's campaigns are
    /// one contiguous run, in list order.
    postings: Vec<(u32, u32)>,
    /// Campaigns per dominant port (the port that drew most of the
    /// campaign's packets), ascending by port.
    scan_ports: Vec<(u16, u64)>,
    /// Campaigns per majority-vote tool, by vote slot.
    tool_scans: [u64; TOOL_SLOTS],
    /// Packets per tool name, unattributed packets under `"custom"`.
    tool_packets: BTreeMap<&'static str, u64>,
}

impl YearIndex {
    /// Index `campaigns` (positions refer to this slice) and tally
    /// `tool_port_packets`.
    pub(crate) fn build(
        campaigns: &[Campaign],
        tool_port_packets: &SortedMap<(Option<ToolKind>, u16), u64>,
    ) -> Self {
        let mut postings = Vec::with_capacity(campaigns.len());
        let mut scan_ports: BTreeMap<u16, u64> = BTreeMap::new();
        let mut tool_scans = [0u64; TOOL_SLOTS];
        for (position, campaign) in campaigns.iter().enumerate() {
            let position = u32::try_from(position).expect("fewer than 2^32 campaigns in a year");
            postings.push((campaign.src_ip.0, position));
            if let Some((port, _)) = campaign
                .port_packets
                .iter()
                .max_by_key(|(_, count)| **count)
            {
                *scan_ports.entry(*port).or_default() += 1;
            }
            if let Some(tool) = campaign.tool() {
                tool_scans[tool_slot(tool)] += 1;
            }
        }
        postings.sort_unstable();
        let mut tool_packets: BTreeMap<&'static str, u64> = BTreeMap::new();
        for ((tool, _), count) in tool_port_packets {
            let name = tool.map(|t| t.name()).unwrap_or("custom");
            *tool_packets.entry(name).or_default() += count;
        }
        Self {
            postings,
            scan_ports: scan_ports.into_iter().collect(),
            tool_scans,
            tool_packets,
        }
    }

    /// Positions of `source`'s campaigns in the indexed list, ascending.
    fn positions_of(&self, source: Ipv4Address) -> &[(u32, u32)] {
        let start = self.postings.partition_point(|&(src, _)| src < source.0);
        let run = self.postings[start..].partition_point(|&(src, _)| src == source.0);
        &self.postings[start..start + run]
    }

    /// Campaigns per dominant port, ascending by port.
    pub(crate) fn scan_ports(&self) -> &[(u16, u64)] {
        &self.scan_ports
    }

    /// Campaigns whose majority-vote tool is `tool`.
    pub(crate) fn tool_scans(&self, tool: ToolKind) -> u64 {
        self.tool_scans[tool_slot(tool)]
    }

    /// Packets per tool name, unattributed packets under `"custom"`.
    pub(crate) fn tool_packets(&self) -> &BTreeMap<&'static str, u64> {
        &self.tool_packets
    }
}

/// Everything the figure modules need about one year.
#[derive(Debug, Clone, PartialEq)]
pub struct YearAnalysis {
    /// Calendar year of the capture window.
    pub year: u16,
    /// First admitted packet timestamp (µs).
    pub start_micros: u64,
    /// Last admitted packet timestamp (µs).
    pub end_micros: u64,
    /// Admitted scan packets.
    pub total_packets: u64,
    /// Distinct scanning sources.
    pub distinct_sources: u64,
    /// Packets per destination port.
    pub port_packets: BTreeMap<u16, u64>,
    /// Distinct sources per destination port.
    pub port_sources: BTreeMap<u16, u64>,
    /// Distinct ports contacted per source.
    pub source_port_counts: SortedMap<u32, u32>,
    /// Packets sent by each source.
    pub source_packets: SortedMap<u32, u64>,
    /// Sources that contacted both ports of interest pairs are derived from
    /// this: port -> its sources, ascending, kept for the co-scanning
    /// analysis (bounded by distinct sources × their ports).
    pub port_source_sets: SortedMap<u16, Vec<u32>>,
    /// Packets per (day index, port) — the event-decay input.
    pub day_port_packets: SortedMap<(u32, u16), u64>,
    /// Packets per (tool, port); unattributed packets under `None`.
    pub tool_port_packets: SortedMap<(Option<ToolKind>, u16), u64>,
    /// Week × /16 volatility cells.
    pub week_blocks: SortedMap<(u32, u16), WeekCell>,
    /// The identified campaigns.
    pub campaigns: Vec<Campaign>,
    /// Rejected (non-campaign) traffic.
    pub noise: NoiseStats,
    /// Telescope monitored-address count used for extrapolations.
    pub monitored: u64,
    /// Sublinear heavy-hitter sketch state (top-K + count-min), present
    /// when the run enabled `--heavy-hitters`. The "network impact" report
    /// section is derived from this at render time.
    pub heavy: Option<HeavyHitters>,
    /// Derived from `campaigns` and `tool_port_packets` by whatever made
    /// them final; read through [`YearAnalysis::index`].
    pub(crate) index: YearIndex,
}

impl YearAnalysis {
    /// The year's lookup index.
    pub(crate) fn index(&self) -> &YearIndex {
        &self.index
    }

    /// Rebuild the index after changing `campaigns` or `tool_port_packets`
    /// by hand. Every constructor in this crate has already done so.
    pub fn reindex(&mut self) {
        self.index = YearIndex::build(&self.campaigns, &self.tool_port_packets);
    }

    /// `source`'s campaigns this year, in list order (start time).
    pub(crate) fn campaigns_of(
        &self,
        source: Ipv4Address,
    ) -> impl ExactSizeIterator<Item = &Campaign> + '_ {
        self.index
            .positions_of(source)
            .iter()
            .map(|&(_, position)| &self.campaigns[position as usize])
    }

    /// Observation window length in days (at least one day).
    pub fn window_days(&self) -> f64 {
        ((self.end_micros.saturating_sub(self.start_micros)) as f64 / DAY_MICROS as f64).max(1.0)
    }

    /// Average admitted packets per day.
    pub fn packets_per_day(&self) -> f64 {
        self.total_packets as f64 / self.window_days()
    }

    /// Campaigns per 30-day month.
    pub(crate) fn scans_per_month(&self) -> f64 {
        self.campaigns.len() as f64 / self.window_days() * 30.0
    }

    /// The telescope model for extrapolations.
    pub fn model(&self) -> synscan_stats::TelescopeModel {
        synscan_stats::TelescopeModel::new(self.monitored)
    }

    /// Merge the shard outputs of a source-partitioned run into the analysis
    /// the sequential pass over the union stream would have produced.
    ///
    /// **Invariant:** the partials must come from a *partition by source* of
    /// one admitted stream, all built against the same origin timestamp,
    /// year, and telescope. Source-keyed columns are then key-disjoint and
    /// every aggregate is a plain sum or set union, so the merge — one sorted
    /// pass per column — is exact and order-independent; campaigns are
    /// re-sorted into the canonical (start time, source) order the
    /// sequential detector emits.
    ///
    /// # Panics
    /// If `partials` is empty or the partials disagree on year/telescope.
    /// Public only because the benchmark names it.
    pub fn merge_partials(partials: Vec<YearAnalysis>) -> YearAnalysis {
        let mut iter = partials.into_iter();
        let mut merged = iter
            .next()
            .expect("merge_partials needs at least one partial");
        for partial in iter {
            merged.absorb(partial);
        }
        merged
            .campaigns
            .sort_by_key(|c| (c.first_ts_micros, c.src_ip));
        // port_sources is derived data; recompute from the merged sets so
        // sources scanning one port from two shards are never double-counted
        // (they cannot be under the partition invariant, but deriving keeps
        // the field correct by construction).
        merged.port_sources = merged
            .port_source_sets
            .iter()
            .map(|(port, set)| (*port, set.len() as u64))
            .collect();
        merged.reindex();
        merged
    }

    fn absorb(&mut self, other: YearAnalysis) {
        assert_eq!(self.year, other.year, "partials from different years");
        assert_eq!(
            self.monitored, other.monitored,
            "partials from different telescopes"
        );
        // Every shard of a non-empty stream shares the origin; an all-empty
        // shard reports end = 0 which max() ignores.
        self.start_micros = self.start_micros.min(other.start_micros);
        self.end_micros = self.end_micros.max(other.end_micros);
        self.total_packets += other.total_packets;
        // Sources are disjoint across shards, so cardinalities add.
        self.distinct_sources += other.distinct_sources;
        // Each column grows in place and frees the other's buffer; the
        // widest go first, so the narrower ones can grow into what they
        // freed instead of into fresh pages.
        self.week_blocks
            .merge_from(other.week_blocks, |mine, theirs| mine.absorb(&theirs));
        // Disjoint under the partition invariant; a source two partials both
        // list keeps the later one's row.
        self.source_packets
            .merge_from(other.source_packets, |mine, theirs| *mine = theirs);
        self.source_port_counts
            .merge_from(other.source_port_counts, |mine, theirs| *mine = theirs);
        for (port, n) in other.port_packets {
            *self.port_packets.entry(port).or_default() += n;
        }
        self.port_source_sets
            .merge_from(other.port_source_sets, |mine, theirs| {
                *mine = sorted_union(mine, &theirs)
            });
        self.day_port_packets
            .merge_from(other.day_port_packets, |mine, theirs| *mine += theirs);
        self.tool_port_packets
            .merge_from(other.tool_port_packets, |mine, theirs| *mine += theirs);
        self.campaigns.extend(other.campaigns);
        for (reason, n) in other.noise.rejected_sequences {
            *self.noise.rejected_sequences.entry(reason).or_default() += n;
        }
        self.noise.rejected_packets += other.noise.rejected_packets;
        match (&mut self.heavy, other.heavy) {
            (Some(mine), Some(theirs)) => mine.absorb(theirs),
            (None, None) => {}
            _ => panic!("partials disagree on heavy-hitter tracking"),
        }
    }
}

/// Per-port accumulator: packet count plus the distinct-source set, in one
/// map slot so the hot path pays a single lookup for both.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct PortStat {
    packets: u64,
    sources: IdSet,
}

/// Per-(week, /16) accumulator of the open period; the distinct-source
/// count is derived from the set at finish time.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct WeekState {
    packets: u64,
    sources: IdSet,
}

/// The (week, /16) cells of the periods the stream has left: one
/// [`SealedPeriod`] per period that has cells, ascending by week.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct SealedCells {
    periods: Vec<SealedPeriod>,
}

impl SealedCells {
    /// Cells held, over every period.
    fn len(&self) -> usize {
        self.periods.iter().map(|period| period.blocks.len()).sum()
    }

    /// `((week, block), packets, members)` of every cell, in key order.
    fn iter(&self) -> impl Iterator<Item = ((u32, u16), u64, &[u32])> + '_ {
        self.periods.iter().flat_map(|period| {
            period
                .cells()
                .map(|(block, packets, members)| ((period.week, block), packets, members))
        })
    }

    /// Close period `week`, later than every period held, whose cells are
    /// `live`; `live` is left empty with its capacity.
    fn seal(&mut self, week: u32, live: &mut FxHashMap<u16, WeekState>) {
        if live.is_empty() {
            return;
        }
        debug_assert!(self.periods.last().is_none_or(|period| period.week < week));
        self.periods.push(SealedPeriod::new(week, live));
        live.clear();
    }

    /// Count one packet of `sid` into the cell `(week, block)` of a closed
    /// period: the slow path for a record older than the open period, which
    /// only a caller breaking `offer`'s time-order contract sends. The cell
    /// ends up where sealing it in order would have put it.
    fn count_late(&mut self, week: u32, block: u16, sid: u32) {
        let at = self.periods.partition_point(|period| period.week < week);
        if self
            .periods
            .get(at)
            .is_none_or(|period| period.week != week)
        {
            let empty = SealedPeriod {
                week,
                ..SealedPeriod::default()
            };
            self.periods.insert(at, empty);
        }
        self.periods[at].count(block, sid);
    }
}

/// One closed period's cells, ascending by /16. A time-ordered stream never
/// touches them again, so each column is allocated once at its exact size,
/// with no hash slack and no insertable set: a cell costs its /16, its
/// packets and the end of its member run (14 B), and 4 B per member.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct SealedPeriod {
    week: u32,
    blocks: Vec<u16>,
    packets: Vec<u64>,
    /// Where each cell's member run ends in `members`; it starts where the
    /// previous cell's ends.
    ends: Vec<u32>,
    /// Every cell's distinct source ids, ascending within a cell.
    members: Vec<u32>,
}

impl SealedPeriod {
    /// Period `week` with the cells of `live`.
    fn new(week: u32, live: &FxHashMap<u16, WeekState>) -> Self {
        let mut blocks: Vec<u16> = live.keys().copied().collect();
        blocks.sort_unstable();
        let mut period = SealedPeriod {
            week,
            packets: Vec::with_capacity(blocks.len()),
            ends: Vec::with_capacity(blocks.len()),
            members: Vec::with_capacity(live.values().map(|cell| cell.sources.len()).sum()),
            blocks,
        };
        for block in &period.blocks {
            let cell = &live[block];
            period.members.extend(cell.sources.iter());
            period.packets.push(cell.packets);
            period.ends.push(
                u32::try_from(period.members.len()).expect("fewer than 2^32 members in a period"),
            );
        }
        period
    }

    /// `(block, packets, members)` of every cell, ascending by block.
    fn cells(&self) -> impl Iterator<Item = (u16, u64, &[u32])> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        self.blocks
            .iter()
            .zip(&self.packets)
            .zip(starts.zip(&self.ends))
            .map(|((&block, &packets), (start, &end))| {
                (block, packets, &self.members[start as usize..end as usize])
            })
    }

    /// Count one packet of `sid` from `block`, inserting the cell or the
    /// member where they belong.
    fn count(&mut self, block: u16, sid: u32) {
        let cell = self.blocks.partition_point(|&b| b < block);
        let start = match cell {
            0 => 0,
            _ => self.ends[cell - 1],
        };
        if self.blocks.get(cell) == Some(&block) {
            self.packets[cell] += 1;
            let run = &self.members[start as usize..self.ends[cell] as usize];
            let Err(at) = run.binary_search(&sid) else {
                return;
            };
            self.members.insert(start as usize + at, sid);
        } else {
            self.blocks.insert(cell, block);
            self.packets.insert(cell, 1);
            self.ends.insert(cell, start);
            self.members.insert(start as usize, sid);
        }
        for end in &mut self.ends[cell..] {
            *end += 1;
        }
    }
}

/// A (week, /16) cell's key as a checkpoint writes it: `(week << 16) |
/// block`.
fn cell_key(week: u32, block: u16) -> u64 {
    (u64::from(week) << 16) | u64::from(block)
}

/// Streaming collector: offer records, then [`YearCollector::finish`].
#[derive(Debug, Clone, PartialEq)]
pub struct YearCollector {
    year: u16,
    pipeline: Pipeline,
    monitored: u64,
    period_micros: u64,
    start_micros: Option<u64>,
    end_micros: u64,
    total_packets: u64,
    /// Packets + distinct sources per port (one lookup per record).
    port_stats: FxHashMap<u16, PortStat>,
    /// Packets per source, indexed by interned id.
    source_packets: Vec<u64>,
    /// Distinct ports per source, indexed by interned id.
    source_ports: Vec<PortSet>,
    /// Packets per packed `(day << 16) | port` key.
    day_port_packets: FxHashMap<u64, u64>,
    /// Packets per packed `(tool_slot << 16) | port` key (slot 0 = no tool).
    tool_port_packets: FxHashMap<u32, u64>,
    /// The open volatility period: that of the latest record in time order.
    live_week: u32,
    /// The open period's cells per /16.
    live_cells: FxHashMap<u16, WeekState>,
    /// The cells of every earlier period.
    sealed_cells: SealedCells,
    /// Sublinear heavy-hitter tracking, when enabled for the run.
    heavy: Option<HeavyHitters>,
}

impl YearCollector {
    /// New collector for `year` with the given campaign thresholds and the
    /// paper's weekly volatility granularity.
    pub fn new(year: u16, config: CampaignConfig) -> Self {
        Self::with_period(year, config, 7.0)
    }

    /// As [`YearCollector::new`] with an explicit volatility period in days.
    /// Short simulated windows (e.g. 7 days instead of the paper's 29-61)
    /// use shorter periods so the Figure 2 change statistics still have
    /// several period pairs to compare.
    pub fn with_period(year: u16, config: CampaignConfig, period_days: f64) -> Self {
        assert!(period_days > 0.0);
        Self {
            year,
            monitored: config.monitored_addresses,
            period_micros: (period_days * DAY_MICROS as f64) as u64,
            pipeline: Pipeline::new(config),
            start_micros: None,
            end_micros: 0,
            total_packets: 0,
            port_stats: FxHashMap::default(),
            source_packets: Vec::new(),
            source_ports: Vec::new(),
            day_port_packets: FxHashMap::default(),
            tool_port_packets: FxHashMap::default(),
            live_week: 0,
            live_cells: FxHashMap::default(),
            sealed_cells: SealedCells::default(),
            heavy: None,
        }
    }

    /// As [`YearCollector::with_period`], additionally pinning the origin
    /// timestamp day/week indices are computed against.
    ///
    /// A sequential collector derives the origin from its first record; a
    /// shard of a source-partitioned stream must instead use the origin of
    /// the *whole* stream, or its day and week bucket boundaries would drift
    /// from the sequential reference.
    /// Public only because the benchmark names it.
    pub fn with_origin(
        year: u16,
        config: CampaignConfig,
        period_days: f64,
        t0_micros: u64,
    ) -> Self {
        let mut collector = Self::with_period(year, config, period_days);
        collector.start_micros = Some(t0_micros);
        collector
    }

    /// Pre-size the per-source state for roughly `distinct_sources` sources,
    /// avoiding rehash/regrow churn when the caller knows the stream's width
    /// ahead of time (generator ground truth, shard fan-out).
    pub(crate) fn reserve_sources(&mut self, distinct_sources: usize) {
        self.pipeline.reserve_sources(distinct_sources);
        self.source_ports.reserve(distinct_sources);
        self.source_packets.reserve(distinct_sources);
    }

    /// Pre-size the per-port maps for roughly `distinct_ports` ports.
    pub(crate) fn reserve_ports(&mut self, distinct_ports: usize) {
        self.port_stats.reserve(distinct_ports);
        self.tool_port_packets.reserve(distinct_ports);
    }

    /// Turn on sublinear heavy-hitter tracking for this run. Must be called
    /// before any record is offered (every shard of a run enables the same
    /// config up front, so merged partials agree); a second call is a no-op
    /// to keep the hint application idempotent.
    pub(crate) fn enable_heavy_hitters(&mut self, config: HeavyHitterConfig) {
        if self.heavy.is_none() {
            self.heavy = Some(HeavyHitters::new(config));
        }
    }

    /// Offer one admitted (SYN-filtered) record in timestamp order. A
    /// record older than the open volatility period is still counted
    /// exactly, on a slow path.
    pub fn offer(&mut self, record: &ProbeRecord) {
        let (verdict, sid) = self.pipeline.process_interned(record);
        let t0 = *self.start_micros.get_or_insert(record.ts_micros);
        self.end_micros = self.end_micros.max(record.ts_micros);
        self.total_packets += 1;

        // Ids are dense and assigned in stream order, so a new source grows
        // the per-source vectors by exactly one slot.
        let idx = sid as usize;
        if idx >= self.source_packets.len() {
            self.source_packets.resize(idx + 1, 0);
            self.source_ports.resize_with(idx + 1, PortSet::default);
        }
        self.source_packets[idx] += 1;
        self.source_ports[idx].insert(record.dst_port);

        let stat = self.port_stats.entry(record.dst_port).or_default();
        stat.packets += 1;
        stat.sources.insert(sid);

        let rel = record.ts_micros.saturating_sub(t0);
        let day = (rel / DAY_MICROS) as u32;
        *self
            .day_port_packets
            .entry((u64::from(day) << 16) | u64::from(record.dst_port))
            .or_default() += 1;

        let tool_idx = match verdict.tool() {
            None => 0u32,
            Some(tool) => 1 + tool_slot(tool) as u32,
        };
        *self
            .tool_port_packets
            .entry((tool_idx << 16) | u32::from(record.dst_port))
            .or_default() += 1;

        // The sketch is keyed by the raw source address (interned ids are
        // shard-local and would not merge) and reuses the verdict's tool
        // slot for the census tallies.
        if let Some(heavy) = self.heavy.as_mut() {
            heavy.offer(record.src_ip.0, record.ts_micros, tool_idx as usize);
        }

        let week = (rel / self.period_micros) as u32;
        let block = record.src_ip.slash16();
        if week != self.live_week {
            if week < self.live_week {
                self.sealed_cells.count_late(week, block, sid);
                return;
            }
            self.sealed_cells.seal(self.live_week, &mut self.live_cells);
            self.live_week = week;
        }
        let cell = self.live_cells.entry(block).or_default();
        cell.packets += 1;
        cell.sources.insert(sid);
    }

    /// Periodic housekeeping to bound pipeline memory on long streams.
    pub fn housekeeping(&mut self, now_micros: u64) {
        self.pipeline.housekeeping(now_micros);
    }

    /// Serialize the complete collector state for a pipeline checkpoint.
    ///
    /// The campaign configuration is written first, so
    /// [`YearCollector::restore_from`] is self-contained. Hash maps are
    /// serialized in sorted key order: the byte stream for a given logical
    /// state is unique, independent of map iteration order.
    pub(crate) fn snapshot_to(&self, w: &mut SnapWriter) {
        self.pipeline.config().snapshot_to(w);
        w.put_u16(self.year);
        w.put_u64(self.monitored);
        w.put_u64(self.period_micros);
        w.put_opt_u64(self.start_micros);
        w.put_u64(self.end_micros);
        w.put_u64(self.total_packets);
        self.pipeline.snapshot_to(w);

        let mut ports: Vec<u16> = self.port_stats.keys().copied().collect();
        ports.sort_unstable();
        w.put_u64(ports.len() as u64);
        for port in ports {
            let stat = &self.port_stats[&port];
            w.put_u16(port);
            w.put_u64(stat.packets);
            stat.sources.snapshot_to(w);
        }

        w.put_u64(self.source_packets.len() as u64);
        for &packets in &self.source_packets {
            w.put_u64(packets);
        }
        w.put_u64(self.source_ports.len() as u64);
        for ports in &self.source_ports {
            ports.snapshot_to(w);
        }

        let mut day_keys: Vec<u64> = self.day_port_packets.keys().copied().collect();
        day_keys.sort_unstable();
        w.put_u64(day_keys.len() as u64);
        for key in day_keys {
            w.put_u64(key);
            w.put_u64(self.day_port_packets[&key]);
        }

        let mut tool_keys: Vec<u32> = self.tool_port_packets.keys().copied().collect();
        tool_keys.sort_unstable();
        w.put_u64(tool_keys.len() as u64);
        for key in tool_keys {
            w.put_u32(key);
            w.put_u64(self.tool_port_packets[&key]);
        }

        // The sealed rows, then the open period: every cell in key order.
        w.put_u64((self.sealed_cells.len() + self.live_cells.len()) as u64);
        for ((week, block), packets, members) in self.sealed_cells.iter() {
            w.put_u64(cell_key(week, block));
            w.put_u64(packets);
            snapshot_ids(members, w);
        }
        let mut live: Vec<(&u16, &WeekState)> = self.live_cells.iter().collect();
        live.sort_unstable_by_key(|&(block, _)| *block);
        for (&block, cell) in live {
            w.put_u64(cell_key(self.live_week, block));
            w.put_u64(cell.packets);
            cell.sources.snapshot_to(w);
        }

        // Heavy-hitter sketch state, presence-tagged (format version 2).
        match &self.heavy {
            None => w.put_u8(0),
            Some(heavy) => {
                w.put_u8(1);
                heavy.snapshot_to(w);
            }
        }
    }

    /// Rebuild a collector written by [`YearCollector::snapshot_to`].
    pub(crate) fn restore_from(r: &mut SnapReader<'_>) -> Result<Self, CheckpointError> {
        let config = CampaignConfig::restore_from(r)?;
        let year = r.take_u16()?;
        let monitored = r.take_u64()?;
        let period_micros = r.take_u64()?;
        if period_micros == 0 {
            return Err(CheckpointError::Corrupt("zero volatility period".into()));
        }
        let start_micros = r.take_opt_u64()?;
        let end_micros = r.take_u64()?;
        let total_packets = r.take_u64()?;
        let pipeline = Pipeline::restore_from(config, r)?;

        // Every per-source column has one entry per interned source, and
        // every id a set holds names one.
        let n_interned = pipeline.sources();
        let interned = |what: &str, set: &IdSet| match set.last() {
            Some(id) if id as usize >= n_interned => Err(CheckpointError::Corrupt(format!(
                "{what} holds source {id} of {n_interned}"
            ))),
            _ => Ok(()),
        };

        let n_ports = r.take_len(11)?;
        let mut port_stats = FxHashMap::default();
        port_stats.reserve(n_ports);
        let mut order = Ascending::new("collector ports");
        for _ in 0..n_ports {
            let port = order.admit(r.take_u16()?)?;
            let packets = r.take_u64()?;
            let sources = IdSet::restore_from(r)?;
            interned("a port's source set", &sources)?;
            port_stats.insert(port, PortStat { packets, sources });
        }

        let n_sources = r.take_len(8)?;
        let mut source_packets = Vec::with_capacity(n_sources);
        for _ in 0..n_sources {
            source_packets.push(r.take_u64()?);
        }
        let n_port_sets = r.take_len(2)?;
        let mut source_ports = Vec::with_capacity(n_port_sets);
        for _ in 0..n_port_sets {
            source_ports.push(PortSet::restore_from(r)?);
        }
        if n_sources != n_interned || n_port_sets != n_interned {
            return Err(CheckpointError::Corrupt(format!(
                "{n_sources} packet counts and {n_port_sets} port sets for {n_interned} sources"
            )));
        }

        let n_days = r.take_len(16)?;
        let mut day_port_packets = FxHashMap::default();
        day_port_packets.reserve(n_days);
        let mut order = Ascending::new("collector (day, port) keys");
        for _ in 0..n_days {
            let key = order.admit(r.take_u64()?)?;
            let n = r.take_u64()?;
            day_port_packets.insert(key, n);
        }

        let n_tools = r.take_len(12)?;
        let mut tool_port_packets = FxHashMap::default();
        tool_port_packets.reserve(n_tools);
        let mut order = Ascending::new("collector (tool, port) keys");
        for _ in 0..n_tools {
            let key = order.admit(r.take_u32()?)?;
            let n = r.take_u64()?;
            tool_port_packets.insert(key, n);
        }

        let n_weeks = r.take_len(17)?;
        let mut live_week = 0;
        let mut live_cells = FxHashMap::default();
        let mut sealed_cells = SealedCells::default();
        let mut cell_packets = 0u128;
        let mut order = Ascending::new("collector (week, /16) keys");
        for _ in 0..n_weeks {
            let key = order.admit(r.take_u64()?)?;
            let packets = r.take_u64()?;
            let sources = IdSet::restore_from(r)?;
            let week = u32::try_from(key >> 16)
                .map_err(|_| CheckpointError::Corrupt(format!("(week, /16) key {key:#x}")))?;
            if sources.is_empty() || sources.len() as u64 > packets {
                return Err(CheckpointError::Corrupt(format!(
                    "(week, /16) cell {key:#x}: {} sources for {packets} packets",
                    sources.len()
                )));
            }
            interned("a (week, /16) cell", &sources)?;
            cell_packets += u128::from(packets);
            // Keys ascend, so this is the move `offer` makes when the stream
            // enters a later period: the cut's split, rebuilt.
            if week != live_week {
                sealed_cells.seal(live_week, &mut live_cells);
                live_week = week;
            }
            live_cells.insert(key as u16, WeekState { packets, sources });
        }
        let source_sum: u128 = source_packets.iter().copied().map(u128::from).sum();
        if cell_packets != source_sum || source_sum != u128::from(total_packets) {
            return Err(CheckpointError::Corrupt(format!(
                "{total_packets} packets, {source_sum} by source, {cell_packets} by (week, /16)"
            )));
        }

        let heavy = match r.take_u8()? {
            0 => None,
            1 => Some(HeavyHitters::restore_from(r)?),
            tag => {
                return Err(CheckpointError::Corrupt(format!(
                    "bad heavy-hitter presence tag {tag}"
                )))
            }
        };

        Ok(Self {
            year,
            pipeline,
            monitored,
            period_micros,
            start_micros,
            end_micros,
            total_packets,
            port_stats,
            source_packets,
            source_ports,
            day_port_packets,
            tool_port_packets,
            live_week,
            live_cells,
            sealed_cells,
            heavy,
        })
    }

    /// Finish the year: close campaigns and assemble the analysis bundle,
    /// converting the compact internal state to the public (IP-keyed,
    /// key-sorted) `YearAnalysis` representation.
    ///
    /// Each piece of collector state is dropped as soon as the columns built
    /// from it exist — the interner's reverse map first, then the per-source
    /// vectors, the (week, /16) cells, the port stats — so the peak is about
    /// the larger of the collector and the analysis, not their sum.
    pub fn finish(self) -> YearAnalysis {
        let Self {
            year,
            pipeline,
            monitored,
            period_micros,
            start_micros,
            end_micros,
            total_packets,
            port_stats,
            source_packets,
            source_ports,
            day_port_packets,
            tool_port_packets,
            live_week,
            mut live_cells,
            mut sealed_cells,
            heavy,
        } = self;
        let t0 = start_micros.unwrap_or(0);
        let (campaigns, noise, table) = pipeline.finish_with_sources();
        let ips = table.into_ips();

        // The one sort over the year's sources: interned ids are in
        // first-seen order, the columns are in address order. Both
        // source-keyed columns are emitted through this permutation, already
        // ascending.
        let mut by_address: Vec<(u32, u32)> = (0..source_packets.len())
            .map(|sid| (ips[sid], sid as u32))
            .collect();
        by_address.sort_unstable();
        let source_port_counts = source_column(&by_address, |sid| source_ports[sid].len() as u32);
        drop(source_ports);
        let packets_by_source = source_column(&by_address, |sid| source_packets[sid]);
        drop(source_packets);
        drop(by_address);

        // Sealing the open period leaves every cell a row, in key order.
        sealed_cells.seal(live_week, &mut live_cells);
        drop(live_cells);
        let week_blocks: Vec<_> = sealed_cells
            .iter()
            .map(|(key, packets, members)| {
                (
                    key,
                    WeekCell {
                        sources: members.len() as u64,
                        packets,
                        campaigns: 0,
                    },
                )
            })
            .collect();
        drop(sealed_cells);
        let mut week_blocks =
            SortedMap::from_sorted(week_blocks).expect("sealed rows ascend by key");
        let mut campaign_starts: BTreeMap<(u32, u16), WeekCell> = BTreeMap::new();
        for campaign in &campaigns {
            let week = (campaign.first_ts_micros.saturating_sub(t0) / period_micros) as u32;
            campaign_starts
                .entry((week, campaign.src_ip.slash16()))
                .or_default()
                .campaigns += 1;
        }
        week_blocks.merge_from(campaign_starts.into_iter().collect(), |cell, starts| {
            cell.absorb(&starts)
        });

        let mut ports: Vec<(u16, PortStat)> = port_stats.into_iter().collect();
        ports.sort_unstable_by_key(|&(port, _)| port);
        let port_packets = ports
            .iter()
            .map(|(port, stat)| (*port, stat.packets))
            .collect();
        let port_sources = ports
            .iter()
            .map(|(port, stat)| (*port, stat.sources.len() as u64))
            .collect();
        let port_source_sets = ports
            .into_iter()
            .map(|(port, stat)| {
                let mut members: Vec<u32> =
                    stat.sources.iter().map(|sid| ips[sid as usize]).collect();
                members.sort_unstable();
                (port, members)
            })
            .collect::<Vec<_>>();
        let port_source_sets =
            SortedMap::from_sorted(port_source_sets).expect("port stats are keyed by port");
        let distinct_sources = ips.len() as u64;
        drop(ips);

        let tool_port_packets = tool_port_packets
            .into_iter()
            .map(|(key, n)| {
                let tool = match key >> 16 {
                    0 => None,
                    slot => Some(TOOL_BY_SLOT[slot as usize - 1]),
                };
                ((tool, (key & 0xffff) as u16), n)
            })
            .collect();

        YearAnalysis {
            index: YearIndex::build(&campaigns, &tool_port_packets),
            year,
            start_micros: t0,
            end_micros,
            total_packets,
            distinct_sources,
            port_packets,
            port_sources,
            source_port_counts,
            source_packets: packets_by_source,
            port_source_sets,
            day_port_packets: day_port_packets
                .into_iter()
                .map(|(key, n)| (((key >> 16) as u32, (key & 0xffff) as u16), n))
                .collect(),
            tool_port_packets,
            week_blocks,
            campaigns,
            noise,
            monitored,
            heavy,
        }
    }
}

/// One source-keyed column: `value(id)` for every source, in the address
/// order `by_address` (sorted `(address, id)` pairs) lists them.
fn source_column<V>(by_address: &[(u32, u32)], value: impl Fn(usize) -> V) -> SortedMap<u32, V> {
    let entries = by_address
        .iter()
        .map(|&(ip, sid)| (ip, value(sid as usize)))
        .collect();
    SortedMap::from_sorted(entries).expect("interned addresses are distinct")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{Checkpoint, CheckpointHeader};
    use synscan_wire::TcpFlags;

    fn cfg() -> CampaignConfig {
        CampaignConfig {
            min_distinct_dests: 5,
            min_rate_pps: 10.0,
            expiry_secs: 3600.0,
            monitored_addresses: 1 << 16,
        }
    }

    fn record(src: u32, dst: u32, port: u16, ts: u64) -> ProbeRecord {
        ProbeRecord {
            ts_micros: ts,
            src_ip: Ipv4Address(src),
            dst_ip: Ipv4Address(dst),
            src_port: 999,
            dst_port: port,
            seq: dst ^ 0x0bad_cafe,
            ip_id: 3,
            ttl: 61,
            flags: TcpFlags::SYN,
            window: 512,
        }
    }

    #[test]
    fn aggregates_are_consistent() {
        let mut collector = YearCollector::new(2020, cfg());
        // Source A scans 10 dests on port 80; source B scans 8 dests on 22+443.
        for i in 0..10u32 {
            collector.offer(&record(0x0101_0000, 100 + i, 80, (i as u64) * 1000));
        }
        for i in 0..8u32 {
            let port = if i % 2 == 0 { 22 } else { 443 };
            collector.offer(&record(0x0202_0000, 200 + i, port, (i as u64) * 1000 + 50));
        }
        let analysis = collector.finish();
        assert_eq!(analysis.total_packets, 18);
        assert_eq!(analysis.distinct_sources, 2);
        assert_eq!(analysis.port_packets[&80], 10);
        assert_eq!(analysis.port_sources[&80], 1);
        assert_eq!(analysis.source_port_counts[&0x0101_0000], 1);
        assert_eq!(analysis.source_port_counts[&0x0202_0000], 2);
        assert_eq!(analysis.campaigns.len(), 2);
    }

    #[test]
    fn week_cells_track_slash16_activity() {
        let mut collector = YearCollector::new(2020, cfg());
        // Week 0: 6 packets from /16 0x0101; week 1: 2 packets from same.
        for i in 0..6u32 {
            collector.offer(&record(0x0101_0000 + i, 100 + i, 80, (i as u64) * 1000));
        }
        let week1 = 8 * DAY_MICROS;
        for i in 0..2u32 {
            collector.offer(&record(
                0x0101_0000 + i,
                300 + i,
                80,
                week1 + (i as u64) * 1000,
            ));
        }
        let analysis = collector.finish();
        assert_eq!(analysis.week_blocks[&(0, 0x0101)].packets, 6);
        assert_eq!(analysis.week_blocks[&(0, 0x0101)].sources, 6);
        assert_eq!(analysis.week_blocks[&(1, 0x0101)].packets, 2);
    }

    #[test]
    fn day_port_matrix_indexes_relative_days() {
        let mut collector = YearCollector::new(2021, cfg());
        collector.offer(&record(1, 2, 7547, 0));
        collector.offer(&record(1, 3, 7547, 3 * DAY_MICROS + 5));
        let analysis = collector.finish();
        assert_eq!(analysis.day_port_packets[&(0, 7547)], 1);
        assert_eq!(analysis.day_port_packets[&(3, 7547)], 1);
    }

    #[test]
    fn packets_per_day_uses_window_length() {
        let mut collector = YearCollector::new(2022, cfg());
        for i in 0..20u32 {
            collector.offer(&record(1, 100 + i, 80, (i as u64) * (DAY_MICROS / 10)));
        }
        let analysis = collector.finish();
        // 20 packets over ~1.9 days.
        let ppd = analysis.packets_per_day();
        assert!(ppd > 9.0 && ppd < 21.0, "{ppd}");
    }

    #[test]
    fn merge_partials_is_order_independent() {
        // Three disjoint-source shards, same origin: merging in any order
        // yields one identical analysis.
        let shard = |src: u32, port: u16, n: u32| {
            let mut collector = YearCollector::with_origin(2020, cfg(), 7.0, 0);
            collector.reserve_sources(1);
            for i in 0..n {
                collector.offer(&record(src, 100 + i, port, 500 + u64::from(i) * 1000));
            }
            collector.finish()
        };
        let (a, b, c) = (shard(1, 80, 12), shard(2, 443, 16), shard(3, 80, 8));
        let forward = YearAnalysis::merge_partials(vec![a.clone(), b.clone(), c.clone()]);
        let backward = YearAnalysis::merge_partials(vec![c, a, b]);
        assert_eq!(forward, backward);
        assert_eq!(forward.total_packets, 36);
        assert_eq!(forward.distinct_sources, 3);
        assert_eq!(forward.port_packets[&80], 20);
        assert_eq!(forward.port_sources[&80], 2);
        assert_eq!(forward.start_micros, 0);
        assert_eq!(forward.campaigns.len(), 3);
        assert!(forward
            .campaigns
            .windows(2)
            .all(|w| (w[0].first_ts_micros, w[0].src_ip) <= (w[1].first_ts_micros, w[1].src_ip)));
    }

    #[test]
    fn index_follows_the_campaign_list_through_absorb_and_merge() {
        let shard = |src: u32, port: u16, n: u32| {
            let mut collector = YearCollector::with_origin(2020, cfg(), 7.0, 0);
            for i in 0..n {
                collector.offer(&record(src, 100 + i, port, 500 + u64::from(i) * 1000));
            }
            collector.finish()
        };
        let fresh = |a: &YearAnalysis| YearIndex::build(&a.campaigns, &a.tool_port_packets);
        let (a, b, c) = (shard(3, 80, 12), shard(1, 443, 16), shard(2, 80, 8));
        assert_eq!(*a.index(), fresh(&a));

        // `absorb` alone leaves the receiver's index describing its old
        // list; `reindex` is what `merge_partials` runs once at the end.
        let mut absorbed = a.clone();
        absorbed.absorb(b.clone());
        assert_ne!(*absorbed.index(), fresh(&absorbed));
        absorbed.reindex();
        assert_eq!(*absorbed.index(), fresh(&absorbed));

        let merged = YearAnalysis::merge_partials(vec![a, b, c]);
        assert_eq!(*merged.index(), fresh(&merged));
        for src in 1..=3 {
            let hits: Vec<_> = merged.campaigns_of(Ipv4Address(src)).collect();
            assert_eq!(hits.len(), 1);
            assert_eq!(hits[0].src_ip, Ipv4Address(src));
        }
        assert_eq!(merged.campaigns_of(Ipv4Address(4)).len(), 0);
    }

    #[test]
    fn merge_partials_tolerates_an_empty_shard() {
        // A shard that received no records (all its sources were filtered,
        // or the source hash simply never routed to it) contributes an empty
        // analysis; merging it in must be the identity.
        let mut busy = YearCollector::with_origin(2020, cfg(), 7.0, 0);
        for i in 0..12u32 {
            busy.offer(&record(1, 100 + i, 80, 500 + u64::from(i) * 1000));
        }
        let busy = busy.finish();
        let empty = YearCollector::with_origin(2020, cfg(), 7.0, 0).finish();
        assert_eq!(empty.total_packets, 0);

        let merged = YearAnalysis::merge_partials(vec![busy.clone(), empty.clone()]);
        assert_eq!(merged, YearAnalysis::merge_partials(vec![busy.clone()]));
        assert_eq!(merged.total_packets, busy.total_packets);
        assert_eq!(merged.distinct_sources, busy.distinct_sources);
        assert_eq!(merged.campaigns, busy.campaigns);
        // Empty-first ordering must not disturb the window bounds either.
        let merged = YearAnalysis::merge_partials(vec![empty, busy.clone()]);
        assert_eq!(merged.end_micros, busy.end_micros);
        assert_eq!(merged.port_sources, busy.port_sources);
    }

    #[test]
    fn merged_shards_match_a_sequential_pass() {
        // Interleave two sources, split by source, merge — bit-identical to
        // the one-collector pass.
        let records: Vec<ProbeRecord> = (0..40u32)
            .map(|i| {
                record(
                    if i % 2 == 0 { 0x0101_0000 } else { 0x0202_0000 },
                    1000 + i,
                    if i % 2 == 0 { 80 } else { 22 },
                    u64::from(i) * 1000,
                )
            })
            .collect();
        let mut sequential = YearCollector::with_period(2021, cfg(), 7.0);
        for r in &records {
            sequential.offer(r);
        }
        let t0 = records[0].ts_micros;
        let mut even = YearCollector::with_origin(2021, cfg(), 7.0, t0);
        let mut odd = YearCollector::with_origin(2021, cfg(), 7.0, t0);
        for r in &records {
            if r.src_ip.0 == 0x0101_0000 {
                even.offer(r);
            } else {
                odd.offer(r);
            }
        }
        let merged = YearAnalysis::merge_partials(vec![odd.finish(), even.finish()]);
        assert_eq!(sequential.finish(), merged);
    }

    fn collector_round_trip(collector: &YearCollector) -> YearCollector {
        let mut w = SnapWriter::new();
        collector.snapshot_to(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = YearCollector::restore_from(&mut r).unwrap();
        assert_eq!(r.remaining(), 0, "snapshot fully consumed");
        back
    }

    #[test]
    fn empty_collector_snapshot_round_trips() {
        let collector = YearCollector::with_period(2020, cfg(), 7.0);
        let back = collector_round_trip(&collector);
        assert_eq!(back, collector);
        assert_eq!(back.finish(), collector.finish());
    }

    #[test]
    fn collector_snapshot_with_pinned_origin_round_trips() {
        let collector = YearCollector::with_origin(2020, cfg(), 7.0, 123_456);
        let back = collector_round_trip(&collector);
        assert_eq!(back, collector);
        assert_eq!(back.finish().start_micros, 123_456);
    }

    #[test]
    fn mid_stream_collector_snapshot_resumes_bit_identically() {
        use synscan_scanners::traits::craft_record;
        use synscan_scanners::zmap::ZmapScanner;
        // A mixed stream — plain SYNs across two /16s and two weeks, plus a
        // ZMap-fingerprinted burst — split at an arbitrary record boundary.
        let z = ZmapScanner::new(9);
        let mut records: Vec<ProbeRecord> = (0..30u32)
            .map(|i| {
                record(
                    0x0101_0000 + (i % 3),
                    100 + i,
                    [80u16, 443, 7547][i as usize % 3],
                    u64::from(i) * 40_000,
                )
            })
            .collect();
        for i in 0..12u64 {
            records.push(craft_record(
                &z,
                Ipv4Address(0x0202_0001),
                Ipv4Address(0x0a00_0000 + i as u32),
                23,
                i,
                1_200_000 + i * 1000,
                8,
            ));
        }
        records.sort_by_key(|r| r.ts_micros);

        let mut uninterrupted = YearCollector::with_period(2021, cfg(), 7.0);
        for r in &records {
            uninterrupted.offer(r);
        }

        let split = 17;
        let mut first_half = YearCollector::with_period(2021, cfg(), 7.0);
        for r in &records[..split] {
            first_half.offer(r);
        }
        let mut resumed = collector_round_trip(&first_half);
        assert_eq!(resumed, first_half);
        for r in &records[split..] {
            resumed.offer(r);
        }
        assert_eq!(resumed.finish(), uninterrupted.finish());
    }

    /// `collector`'s blob as the one shard of a checkpoint whose envelope
    /// is sound, read back the way a resume reads it.
    fn resume_from_envelope(
        collector: &YearCollector,
    ) -> Result<Option<YearCollector>, CheckpointError> {
        let checkpoint = Checkpoint {
            header: CheckpointHeader {
                year: collector.year,
                identity: 7,
                workers: 1,
                cursor: collector.total_packets,
                seq: 1,
                origin: collector.start_micros,
            },
            gate_last: None,
            faults: Default::default(),
            admit_state: Vec::new(),
            shards: vec![Checkpoint::encode_collector(Some(collector))],
        };
        Checkpoint::from_bytes(&checkpoint.to_bytes())
            .expect("the envelope is sound")
            .shard_collector(0)
    }

    #[test]
    fn a_collector_blob_that_contradicts_itself_is_corrupt() {
        // Two sources in two /16s over two periods (one sealed), and a port
        // both scanned.
        let mut sound = YearCollector::with_period(2020, cfg(), 1.0);
        sound.offer(&record(0x0101_0001, 100, 80, 0));
        sound.offer(&record(0x0202_0001, 101, 80, 1_000));
        sound.offer(&record(0x0101_0001, 102, 22, DAY_MICROS + 5));
        assert_eq!(sound.sealed_cells.len(), 2);
        assert!(sound.live_cells.contains_key(&0x0101));
        assert_eq!(resume_from_envelope(&sound), Ok(Some(sound.clone())));

        type Corruption = fn(&mut YearCollector);
        let cases: [(&str, Corruption); 8] = [
            ("a port set missing", |c| drop(c.source_ports.pop())),
            ("a packet count missing", |c| {
                let last = c.source_packets.pop().unwrap();
                c.source_packets[0] += last;
            }),
            ("a source the interner lacks", |c| {
                c.source_packets.push(0);
                c.source_ports.push(PortSet::default());
            }),
            ("a cell without sources", |c| {
                c.live_cells.get_mut(&0x0101).unwrap().sources = IdSet::new();
            }),
            ("a cell with more sources than packets", |c| {
                let cell = c.live_cells.get_mut(&0x0101).unwrap();
                cell.sources.insert(1);
            }),
            ("cells that miss a packet", |c| {
                c.sealed_cells.periods[0].packets[0] = 0;
            }),
            ("a total no column sums to", |c| c.total_packets += 1),
            ("a port set naming an unknown source", |c| {
                c.port_stats.get_mut(&80).unwrap().sources.insert(9);
            }),
        ];
        for (what, corrupt) in cases {
            let mut collector = sound.clone();
            corrupt(&mut collector);
            assert!(
                matches!(
                    resume_from_envelope(&collector),
                    Err(CheckpointError::Corrupt(_))
                ),
                "{what} was not refused"
            );
        }
    }

    #[test]
    fn sealing_a_period_is_invisible_to_cuts_and_finish() {
        // Three one-day periods, each with five sources in each of two /16s.
        let mut collector = YearCollector::with_period(2020, cfg(), 1.0);
        for day in 0..3u64 {
            for i in 0..20u32 {
                let src = [0x0101_0000, 0x0202_0000][i as usize % 2] + i % 5;
                collector.offer(&record(
                    src,
                    100 + i,
                    80,
                    day * DAY_MICROS + u64::from(i) * 1000,
                ));
            }
            assert_eq!(collector.live_week, day as u32);
            assert_eq!(collector.sealed_cells.len(), 2 * day as usize);
            let back = collector_round_trip(&collector);
            assert_eq!(back, collector, "day {day}");
            assert_eq!(
                Checkpoint::encode_collector(Some(&back)),
                Checkpoint::encode_collector(Some(&collector)),
                "day {day}"
            );
        }
        for period in &collector.sealed_cells.periods {
            assert_eq!(period.blocks, [0x0101, 0x0202]);
            assert_eq!(period.members, [0, 2, 4, 6, 8, 1, 3, 5, 7, 9]);
        }
        let analysis = collector.finish();
        assert_eq!(analysis.week_blocks.len(), 6);
        for cell in analysis.week_blocks.values() {
            assert_eq!((cell.sources, cell.packets), (5, 10));
        }
    }

    #[test]
    fn a_record_older_than_the_open_period_is_counted_in_place() {
        // Offered out of order, as only a caller breaking `offer`'s contract
        // does: every record still lands in its own period's cell, and the
        // sealed rows are those of the same records in time order.
        let days = [5u64, 3, 0, 4, 1, 2, 5, 0, 3, 3, 1, 0];
        let srcs = [0x0101_0001u32, 0x0202_0002, 0x0101_0003];
        let records: Vec<ProbeRecord> = days
            .iter()
            .enumerate()
            .map(|(i, &day)| record(srcs[i % 3], 100 + i as u32, 80, day * DAY_MICROS + 7))
            .collect();
        let mut late = YearCollector::with_origin(2020, cfg(), 1.0, 0);
        for r in &records {
            late.offer(r);
        }
        assert_eq!(late.live_week, 5);
        assert_eq!(collector_round_trip(&late), late);
        let mut sorted = records.clone();
        sorted.sort_by_key(|r| r.ts_micros);
        let mut ordered = YearCollector::with_origin(2020, cfg(), 1.0, 0);
        for r in &sorted {
            ordered.offer(r);
        }
        let rows = |c: &YearCollector| -> Vec<((u32, u16), u64)> {
            c.sealed_cells
                .iter()
                .map(|(key, packets, _)| (key, packets))
                .collect()
        };
        assert_eq!(rows(&late), rows(&ordered));
        assert_eq!(late.finish().week_blocks, ordered.finish().week_blocks);
    }

    #[test]
    fn tool_slot_names_match_the_campaign_layer() {
        // The sketch module names tool slots without depending on ToolKind;
        // this pins its slot order and names to the campaign layer's
        // TOOL_BY_SLOT.
        use crate::sketch::TOOL_SLOT_NAMES;
        assert_eq!(TOOL_SLOT_NAMES.len(), TOOL_BY_SLOT.len() + 1);
        assert_eq!(TOOL_SLOT_NAMES[0], "unattributed");
        for (slot, tool) in TOOL_BY_SLOT.iter().enumerate() {
            assert_eq!(TOOL_SLOT_NAMES[slot + 1], tool.name(), "slot {slot}");
        }
    }

    #[test]
    fn heavy_enabled_shards_merge_to_the_sequential_sketch() {
        let heavy_cfg = HeavyHitterConfig {
            k: 8,
            width: 128,
            depth: 3,
        };
        let records: Vec<ProbeRecord> = (0..60u32)
            .map(|i| {
                record(
                    0x0101_0000 + (i % 4),
                    1000 + i,
                    if i % 2 == 0 { 80 } else { 22 },
                    u64::from(i) * 1000,
                )
            })
            .collect();
        let mut sequential = YearCollector::with_period(2020, cfg(), 7.0);
        sequential.enable_heavy_hitters(heavy_cfg);
        for r in &records {
            sequential.offer(r);
        }
        let t0 = records[0].ts_micros;
        let mut shards: Vec<YearCollector> = (0..2)
            .map(|_| {
                let mut c = YearCollector::with_origin(2020, cfg(), 7.0, t0);
                c.enable_heavy_hitters(heavy_cfg);
                c
            })
            .collect();
        for r in &records {
            shards[(r.src_ip.0 % 2) as usize].offer(r);
        }
        let mut parts: Vec<YearAnalysis> = shards.into_iter().map(YearCollector::finish).collect();
        parts.reverse();
        let merged = YearAnalysis::merge_partials(parts);
        let reference = sequential.finish();
        assert_eq!(merged, reference);
        let heavy = reference.heavy.expect("heavy enabled");
        assert_eq!(heavy.count_min().total(), 60);
        assert_eq!(heavy.top_sources().len(), 4);
    }

    #[test]
    fn heavy_collector_snapshot_round_trips() {
        let mut collector = YearCollector::with_period(2022, cfg(), 7.0);
        collector.enable_heavy_hitters(HeavyHitterConfig::with_k(4));
        for i in 0..25u32 {
            collector.offer(&record(
                0x0303_0000 + (i % 6),
                500 + i,
                80,
                u64::from(i) * 999,
            ));
        }
        let back = collector_round_trip(&collector);
        assert_eq!(back, collector);
        assert_eq!(back.finish(), collector.finish());
    }

    #[test]
    #[should_panic(expected = "heavy-hitter tracking")]
    fn mixed_heavy_partials_panic() {
        let with = {
            let mut c = YearCollector::with_origin(2020, cfg(), 7.0, 0);
            c.enable_heavy_hitters(HeavyHitterConfig::default());
            c.finish()
        };
        let without = YearCollector::with_origin(2020, cfg(), 7.0, 0).finish();
        let _ = YearAnalysis::merge_partials(vec![with, without]);
    }

    #[test]
    fn tool_attribution_flows_into_port_matrix() {
        use synscan_scanners::traits::craft_record;
        use synscan_scanners::zmap::ZmapScanner;
        let mut collector = YearCollector::new(2023, cfg());
        let z = ZmapScanner::new(1);
        for i in 0..6u64 {
            collector.offer(&craft_record(
                &z,
                Ipv4Address(0x0909_0101),
                Ipv4Address(0x0100_0000 + i as u32),
                443,
                i,
                i * 1000,
                7,
            ));
        }
        let analysis = collector.finish();
        assert_eq!(analysis.tool_port_packets[&(Some(ToolKind::Zmap), 443)], 6);
    }
}
