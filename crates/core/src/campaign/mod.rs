//! Scan-campaign identification (§3.4).
//!
//! A *campaign* is a sequence of probes from one source address that hits at
//! least `min_distinct_dests` distinct telescope destinations at an estimated
//! Internet-wide rate of at least `min_rate_pps`, expiring after
//! `expiry_secs` of silence. The paper's thresholds (100 destinations,
//! 100 pps, 1 h — justified by the geometric detection model reproduced in
//! `synscan_stats::TelescopeModel`) are the defaults; scaled-telescope
//! simulations scale `min_distinct_dests` proportionally.
//!
//! Internally the detector is built around interned source ids
//! ([`crate::intern::SourceTable`]): each source has a 24-byte slot in a
//! dense `Vec` indexed by id rather than an IP-keyed hash map, so the admit
//! path performs no per-source hashing beyond the table's one probe. The
//! body of an open scan (packets, destinations, ports, votes and the §3.3
//! pairwise fingerprint window, an inline ring) lives beside the active list
//! only while the scan is open, so an idle source costs its slot and nothing
//! more.
//!
//! Destinations are interned the same way, in a second table the detector
//! shares across all its scans: one entry per distinct destination it has
//! counted. Where the telescope admits records (`telescope::CaptureSession`)
//! that is at most `monitored_addresses` however long the stream runs; a
//! raw capture's admission (`analyze`) keeps every SYN, so there the table
//! grows with the capture's destinations, about 20 B each. Each scan's
//! distinct destinations are a `compact::BoundedIdSet` of its dense ids:
//! sorted ids while a bitmap of them would be sparse, a bitmap once it is
//! no larger, and an ordered tree for a large set too sparse for either. So
//! a scan costs a few bytes per distinct destination whatever the table's
//! size, and a heavy scan on the telescope holds a bitmap of a few KB rather
//! than a hash table of its addresses. A telescope wider than
//! `INTERNED_DESTINATIONS_MAX` addresses (`analyze --monitored N`, or the
//! count it infers) skips the table, whose probe would miss cache on every
//! record: there the sets hold the addresses themselves. The ids depend on
//! the order destinations were first seen, so they are never written: a
//! checkpoint stores each open scan's sorted addresses, a restore interns
//! them again (under new ids), and detector equality compares addresses.

pub mod estimate;

use std::collections::BTreeMap;
use std::fmt;

use synscan_stats::TelescopeModel;
use synscan_wire::{Ipv4Address, ProbeRecord};

use synscan_scanners::traits::ToolKind;

use crate::checkpoint::{Ascending, CheckpointError, SnapReader, SnapWriter};
use crate::compact::BoundedIdSet;
use crate::fingerprint::pairwise::PairwiseState;
use crate::fingerprint::{classify_window, PacketVerdict};
use crate::intern::{SourceId, SourceTable};

pub(crate) use estimate::CampaignEstimates;

/// Detection thresholds and the telescope geometry they are evaluated
/// against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// Minimum distinct telescope destinations for a probe sequence to count
    /// as a scan campaign (paper: 100).
    pub min_distinct_dests: u64,
    /// Minimum estimated Internet-wide rate in packets/second (paper: 100).
    pub min_rate_pps: f64,
    /// Idle time after which a scan is expired (paper: 3600 s).
    pub expiry_secs: f64,
    /// The telescope's monitored-address count, for extrapolation.
    pub monitored_addresses: u64,
}

impl CampaignConfig {
    /// The paper's §3.4 configuration for the full-size telescope.
    pub(crate) fn paper() -> Self {
        Self {
            min_distinct_dests: 100,
            min_rate_pps: 100.0,
            expiry_secs: 3600.0,
            monitored_addresses: 71_536,
        }
    }

    /// Thresholds for a scaled telescope: the destination threshold shrinks
    /// with the telescope so the same Internet-wide scans stay detectable
    /// (floor of 4 destinations to keep noise out), and the idle expiry
    /// *grows* inversely — the paper's 1 h was calibrated so a threshold
    /// (100 pps) scanner hits their telescope every ~10 minutes; a telescope
    /// `k`× smaller sees gaps `k`× longer, so the equivalent expiry is
    /// `k` hours (capped at 18 h so daily-recurring scanners still split
    /// into daily campaigns).
    pub fn scaled(monitored_addresses: u64) -> Self {
        let paper = Self::paper();
        let ratio = monitored_addresses as f64 / paper.monitored_addresses as f64;
        Self {
            min_distinct_dests: ((paper.min_distinct_dests as f64 * ratio).round() as u64).max(4),
            expiry_secs: (paper.expiry_secs / ratio).clamp(3600.0, 64_800.0),
            monitored_addresses,
            ..paper
        }
    }

    /// The telescope detection/extrapolation model for this configuration.
    pub fn model(&self) -> TelescopeModel {
        TelescopeModel::new(self.monitored_addresses)
    }

    /// Serialize the thresholds for a pipeline checkpoint (floats as raw
    /// IEEE-754 bits, so the round trip is exact).
    pub(crate) fn snapshot_to(&self, w: &mut SnapWriter) {
        w.put_u64(self.min_distinct_dests);
        w.put_f64(self.min_rate_pps);
        w.put_f64(self.expiry_secs);
        w.put_u64(self.monitored_addresses);
    }

    /// Rebuild a configuration written by [`CampaignConfig::snapshot_to`].
    pub(crate) fn restore_from(r: &mut SnapReader<'_>) -> Result<Self, CheckpointError> {
        Ok(Self {
            min_distinct_dests: r.take_u64()?,
            min_rate_pps: r.take_f64()?,
            expiry_secs: r.take_f64()?,
            monitored_addresses: r.take_u64()?,
        })
    }
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// One identified scan campaign with its observed and extrapolated metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    /// The scanning source.
    pub src_ip: Ipv4Address,
    /// First probe timestamp (µs).
    pub first_ts_micros: u64,
    /// Last probe timestamp (µs).
    pub last_ts_micros: u64,
    /// Probes received at the telescope.
    pub packets: u64,
    /// Distinct telescope destinations hit.
    pub distinct_dests: u64,
    /// Packets per destination port.
    pub port_packets: BTreeMap<u16, u64>,
    /// Fingerprint votes per tool.
    pub tool_votes: BTreeMap<ToolKind, u64>,
}

impl Campaign {
    /// Observed duration in seconds (zero for single-burst campaigns).
    pub fn duration_secs(&self) -> f64 {
        (self.last_ts_micros - self.first_ts_micros) as f64 / 1e6
    }

    /// Number of distinct destination ports.
    pub fn distinct_ports(&self) -> usize {
        self.port_packets.len()
    }

    /// Majority-vote tool attribution; `None` when no tracked tool matched.
    pub fn tool(&self) -> Option<ToolKind> {
        self.tool_votes
            .iter()
            .max_by_key(|(_, votes)| **votes)
            .filter(|(_, votes)| **votes > 0)
            .map(|(tool, _)| *tool)
    }

    /// Extrapolated metrics under the given telescope model.
    pub fn estimates(&self, model: &TelescopeModel) -> CampaignEstimates {
        CampaignEstimates::from_campaign(self, model)
    }

    /// Serialize the campaign for a pipeline checkpoint.
    pub(crate) fn snapshot_to(&self, w: &mut SnapWriter) {
        w.put_u32(self.src_ip.0);
        w.put_u64(self.first_ts_micros);
        w.put_u64(self.last_ts_micros);
        w.put_u64(self.packets);
        w.put_u64(self.distinct_dests);
        w.put_u64(self.port_packets.len() as u64);
        for (&port, &packets) in &self.port_packets {
            w.put_u16(port);
            w.put_u64(packets);
        }
        w.put_u64(self.tool_votes.len() as u64);
        for (&tool, &votes) in &self.tool_votes {
            w.put_tool(tool);
            w.put_u64(votes);
        }
    }

    /// Rebuild a campaign written by [`Campaign::snapshot_to`].
    pub(crate) fn restore_from(r: &mut SnapReader<'_>) -> Result<Self, CheckpointError> {
        let src_ip = Ipv4Address(r.take_u32()?);
        let first_ts_micros = r.take_u64()?;
        let last_ts_micros = r.take_u64()?;
        if last_ts_micros < first_ts_micros {
            // `duration_secs` subtracts the two.
            return Err(CheckpointError::Corrupt(
                "campaign ends before it starts".into(),
            ));
        }
        let packets = r.take_u64()?;
        let distinct_dests = r.take_u64()?;
        let ports = r.take_len(10)?;
        let mut port_packets = BTreeMap::new();
        let mut order = Ascending::new("campaign ports");
        for _ in 0..ports {
            let port = order.admit(r.take_u16()?)?;
            port_packets.insert(port, r.take_u64()?);
        }
        let tools = r.take_len(9)?;
        let mut tool_votes = BTreeMap::new();
        let mut order = Ascending::new("campaign tools");
        for _ in 0..tools {
            let tool = order.admit(r.take_tool()?)?;
            tool_votes.insert(tool, r.take_u64()?);
        }
        Ok(Self {
            src_ip,
            first_ts_micros,
            last_ts_micros,
            packets,
            distinct_dests,
            port_packets,
            tool_votes,
        })
    }
}

/// Why a finalized probe sequence was not a campaign.
///
/// Declaration order matches the lexicographic order of the variant names,
/// so a `BTreeMap<RejectReason, _>` iterates in the same order the old
/// string-keyed map did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RejectReason {
    /// Fewer distinct destinations than the threshold.
    TooFewDestinations,
    /// Estimated Internet-wide rate below the threshold.
    TooSlow,
}

impl RejectReason {
    /// The stable string name of the reason (identical to its `Debug`
    /// rendering) — the report-time stringification point.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            RejectReason::TooFewDestinations => "TooFewDestinations",
            RejectReason::TooSlow => "TooSlow",
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Checkpoint wire code of a reject reason.
fn reject_code(reason: RejectReason) -> u8 {
    match reason {
        RejectReason::TooFewDestinations => 0,
        RejectReason::TooSlow => 1,
    }
}

/// Inverse of [`reject_code`].
fn reject_from_code(code: u8) -> Result<RejectReason, CheckpointError> {
    match code {
        0 => Ok(RejectReason::TooFewDestinations),
        1 => Ok(RejectReason::TooSlow),
        c => Err(CheckpointError::Corrupt(format!("reject-reason code {c}"))),
    }
}

/// Aggregate counters for rejected (non-campaign) traffic.
///
/// Counters are keyed by the [`RejectReason`] enum — zero allocation on the
/// reject path — and stringified only at report time
/// ([`crate::report::render_noise`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NoiseStats {
    /// Probe sequences rejected, by reason.
    pub rejected_sequences: BTreeMap<RejectReason, u64>,
    /// Packets inside rejected sequences.
    pub rejected_packets: u64,
}

impl NoiseStats {
    /// Serialize the counters for a pipeline checkpoint.
    pub(crate) fn snapshot_to(&self, w: &mut SnapWriter) {
        w.put_u64(self.rejected_sequences.len() as u64);
        for (&reason, &count) in &self.rejected_sequences {
            w.put_u8(reject_code(reason));
            w.put_u64(count);
        }
        w.put_u64(self.rejected_packets);
    }

    /// Rebuild counters written by [`NoiseStats::snapshot_to`].
    pub(crate) fn restore_from(r: &mut SnapReader<'_>) -> Result<Self, CheckpointError> {
        let len = r.take_len(9)?;
        let mut rejected_sequences = BTreeMap::new();
        let mut order = Ascending::new("reject reasons");
        for _ in 0..len {
            let reason = order.admit(reject_from_code(r.take_u8()?)?)?;
            rejected_sequences.insert(reason, r.take_u64()?);
        }
        Ok(Self {
            rejected_sequences,
            rejected_packets: r.take_u64()?,
        })
    }
}

/// Number of fingerprintable tools (the arity of the vote array).
pub(crate) const TOOL_SLOTS: usize = 6;

/// Tools in declaration (= `Ord`) order, indexed by vote slot. Rebuilding a
/// `BTreeMap` by inserting in this order reproduces the map the old
/// per-record `entry()` calls built.
pub(crate) const TOOL_BY_SLOT: [ToolKind; TOOL_SLOTS] = [
    ToolKind::Zmap,
    ToolKind::Masscan,
    ToolKind::Nmap,
    ToolKind::Mirai,
    ToolKind::Unicorn,
    ToolKind::Custom,
];

/// Dense vote-array index of a tool (declaration order).
#[inline]
pub(crate) fn tool_slot(tool: ToolKind) -> usize {
    match tool {
        ToolKind::Zmap => 0,
        ToolKind::Masscan => 1,
        ToolKind::Nmap => 2,
        ToolKind::Mirai => 3,
        ToolKind::Unicorn => 4,
        ToolKind::Custom => 5,
    }
}

/// The body of one open scan: everything but its time window, which stays in
/// the source's [`SourceSlot`]. Bodies exist only while a scan is open (plus
/// a spare pool of released ones), so a source that is not scanning holds
/// none. The sorted port vec keeps its capacity across reuse, and tool votes
/// are a fixed array instead of a map.
#[derive(Debug, Clone, Default)]
struct ScanBody {
    packets: u64,
    /// Distinct destinations, numbered by the detector's `DestIds`.
    dests: BoundedIdSet,
    /// Sorted by port; campaigns rarely touch more than a handful.
    port_packets: Vec<(u16, u64)>,
    tool_votes: [u64; TOOL_SLOTS],
    /// The source's pairwise fingerprint history. It needs no clock of its
    /// own: the slot's `last_ts_micros` is its last probe, and the gap that
    /// would reset it is exactly the gap that closes the scan.
    window: PairwiseState,
}

impl ScanBody {
    /// Count `record`, whose destination the detector numbers `dest`.
    fn add(&mut self, record: &ProbeRecord, dest: u32, tool: Option<ToolKind>) {
        self.packets += 1;
        self.dests.insert(dest);
        match self
            .port_packets
            .binary_search_by_key(&record.dst_port, |&(port, _)| port)
        {
            Ok(i) => self.port_packets[i].1 += 1,
            Err(i) => self.port_packets.insert(i, (record.dst_port, 1)),
        }
        if let Some(tool) = tool {
            self.tool_votes[tool_slot(tool)] += 1;
        }
    }

    /// The accumulated state as a [`Campaign`] over `slot`'s window.
    fn campaign(&self, src_ip: Ipv4Address, slot: &SourceSlot) -> Campaign {
        let mut tool_votes = BTreeMap::new();
        for (i, &votes) in self.tool_votes.iter().enumerate() {
            if votes > 0 {
                tool_votes.insert(TOOL_BY_SLOT[i], votes);
            }
        }
        Campaign {
            src_ip,
            first_ts_micros: slot.first_ts_micros,
            last_ts_micros: slot.last_ts_micros,
            packets: self.packets,
            distinct_dests: self.dests.len() as u64,
            port_packets: self.port_packets.iter().copied().collect(),
            tool_votes,
        }
    }

    /// Clear counters, destinations and the fingerprint window, retaining
    /// the port vec's capacity for the next scan.
    fn release(&mut self) {
        self.packets = 0;
        self.dests = BoundedIdSet::default();
        self.port_packets.clear();
        self.tool_votes = [0; TOOL_SLOTS];
        self.window.reset();
    }

    /// The destination addresses, ascending: what a checkpoint writes and
    /// equality compares, whatever ids `ids` gave them.
    fn dest_addresses(&self, ids: &DestIds) -> Vec<u32> {
        let mut dests: Vec<u32> = self.dests.iter().map(|id| ids.address(id)).collect();
        dests.sort_unstable();
        dests
    }

    /// The same scan state as `other`'s, destinations compared as
    /// addresses through each body's own numbering.
    fn same_as(&self, ids: &DestIds, other: &ScanBody, other_ids: &DestIds) -> bool {
        self.packets == other.packets
            && self.port_packets == other.port_packets
            && self.tool_votes == other.tool_votes
            && self.window == other.window
            && self.dests.len() == other.dests.len()
            && self.dest_addresses(ids) == other.dest_addresses(other_ids)
    }

    /// Serialize for a pipeline checkpoint, destinations as their sorted
    /// addresses through `ids`.
    fn snapshot_to(&self, ids: &DestIds, w: &mut SnapWriter) {
        w.put_u64(self.packets);
        let dests = self.dest_addresses(ids);
        w.put_u64(dests.len() as u64);
        for dest in dests {
            w.put_u32(dest);
        }
        w.put_u64(self.port_packets.len() as u64);
        for &(port, packets) in &self.port_packets {
            w.put_u16(port);
            w.put_u64(packets);
        }
        for &votes in &self.tool_votes {
            w.put_u64(votes);
        }
        self.window.snapshot_to(w);
    }

    /// Rebuild state written by [`ScanBody::snapshot_to`], numbering its
    /// destinations through `ids`. A scan opens on its first packet, so a
    /// body without one is `Corrupt`.
    fn restore_from(r: &mut SnapReader<'_>, ids: &mut DestIds) -> Result<Self, CheckpointError> {
        let packets = r.take_u64()?;
        if packets == 0 {
            return Err(CheckpointError::Corrupt("open scan without packets".into()));
        }
        let n_dests = r.take_len(4)?;
        let mut dests = BoundedIdSet::default();
        let mut order = Ascending::new("open-scan destinations");
        for _ in 0..n_dests {
            dests.insert(ids.id(order.admit(r.take_u32()?)?));
        }
        let n_ports = r.take_len(10)?;
        let mut port_packets = Vec::with_capacity(n_ports);
        let mut order = Ascending::new("open-scan ports");
        for _ in 0..n_ports {
            let port = order.admit(r.take_u16()?)?;
            port_packets.push((port, r.take_u64()?));
        }
        let mut tool_votes = [0u64; TOOL_SLOTS];
        for votes in &mut tool_votes {
            *votes = r.take_u64()?;
        }
        Ok(Self {
            packets,
            dests,
            port_packets,
            tool_votes,
            window: PairwiseState::restore_from(r)?,
        })
    }
}

/// Sentinel for "this source has no open scan".
const NOT_ACTIVE: u32 = u32::MAX;

/// Telescopes up to this many addresses have their destinations interned:
/// the table stays within about 2.6 MB and a bitmap spanning it within
/// 16 KiB. It covers the paper's 71 536 addresses with room to spare.
const INTERNED_DESTINATIONS_MAX: u64 = 1 << 17;

/// How a detector numbers destinations for its scans' `BoundedIdSet`s,
/// fixed by the telescope's size. On a telescope of at most
/// `INTERNED_DESTINATIONS_MAX` addresses a table shared by every scan
/// interns them, so a heavy scan's ids are dense enough for a bitmap. On a
/// wider one (a raw capture's `analyze --monitored N`) the table's probe
/// misses cache on every record and holds every destination ever seen, so
/// the sets hold the addresses themselves, as sorted ids or a tree.
#[derive(Debug, Clone)]
enum DestIds {
    /// Dense ids, first appearance first.
    Interned(SourceTable),
    /// Each destination its own address.
    Addresses,
}

impl DestIds {
    fn for_telescope(monitored_addresses: u64) -> Self {
        if monitored_addresses <= INTERNED_DESTINATIONS_MAX {
            DestIds::Interned(SourceTable::new())
        } else {
            DestIds::Addresses
        }
    }

    /// The id of `address`, interning it on first sight.
    #[inline]
    fn id(&mut self, address: u32) -> u32 {
        match self {
            DestIds::Interned(table) => table.intern(address),
            DestIds::Addresses => address,
        }
    }

    /// The address behind `id`.
    fn address(&self, id: u32) -> u32 {
        match self {
            DestIds::Interned(table) => table.ip_of(id),
            DestIds::Addresses => id,
        }
    }
}

/// Per-source slot: the position of the source's open scan in the active
/// list (or [`NOT_ACTIVE`]) and that scan's time window. An idle slot keeps
/// the window of its last scan, which is all a checkpoint records for it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SourceSlot {
    active_pos: u32,
    first_ts_micros: u64,
    last_ts_micros: u64,
}

// Every source the detector has seen holds one slot, scanning or not.
const _: () = assert!(std::mem::size_of::<SourceSlot>() <= 24);

impl SourceSlot {
    const IDLE: Self = Self {
        active_pos: NOT_ACTIVE,
        first_ts_micros: 0,
        last_ts_micros: 0,
    };

    fn is_active(&self) -> bool {
        self.active_pos != NOT_ACTIVE
    }
}

/// The streaming campaign detector.
///
/// Feed records in timestamp order via [`CampaignDetector::admit`], which
/// fingerprints each record against its scan's window and counts it; call
/// [`CampaignDetector::finish`] at end of stream.
///
/// ```
/// use synscan_core::campaign::{CampaignConfig, CampaignDetector};
/// use synscan_wire::{Ipv4Address, ProbeRecord, TcpFlags};
///
/// let mut detector = CampaignDetector::new(CampaignConfig {
///     min_distinct_dests: 10,
///     min_rate_pps: 1.0,
///     expiry_secs: 3600.0,
///     monitored_addresses: 1 << 16,
/// });
/// for i in 0..50u32 {
///     detector.admit(&ProbeRecord {
///         ts_micros: u64::from(i) * 10_000,
///         src_ip: Ipv4Address::new(203, 0, 113, 9),
///         dst_ip: Ipv4Address(0x0a00_0000 + i),
///         src_port: 40000,
///         dst_port: 443,
///         seq: 7,
///         ip_id: 54_321, // the ZMap mark
///         ttl: 55,
///         flags: TcpFlags::SYN,
///         window: 1024,
///     });
/// }
/// let (campaigns, noise) = detector.finish();
/// assert_eq!(campaigns.len(), 1);
/// assert_eq!(campaigns[0].tool(), Some(synscan_core::ToolKind::Zmap));
/// assert_eq!(noise.rejected_packets, 0);
/// ```
#[derive(Debug, Clone)]
pub struct CampaignDetector {
    config: CampaignConfig,
    /// `config.expiry_secs` in µs, precomputed off the per-record path.
    expiry_micros: u64,
    table: SourceTable,
    /// How the bodies' `BoundedIdSet`s number destinations. The ids are not
    /// state: checkpoints and equality see addresses.
    dests: DestIds,
    /// Per-source slots, indexed by interned id.
    slots: Vec<SourceSlot>,
    /// Ids with an open scan, for O(active) expiry sweeps. Unordered;
    /// membership position is mirrored in `SourceSlot::active_pos`.
    active: Vec<SourceId>,
    /// Scan bodies: `bodies[..active.len()]` are the open scans', aligned
    /// with `active`; the rest are released and empty, a spare pool reused
    /// by the next scans to open. So the bodies number the peak of
    /// concurrently open scans. The spares are capacity, not state:
    /// equality and checkpoints ignore them.
    bodies: Vec<ScanBody>,
    campaigns: Vec<Campaign>,
    noise: NoiseStats,
}

impl PartialEq for CampaignDetector {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
            && self.expiry_micros == other.expiry_micros
            && self.table == other.table
            && self.slots == other.slots
            && self.active == other.active
            && self
                .open_bodies()
                .iter()
                .zip(other.open_bodies())
                .all(|(mine, theirs)| mine.same_as(&self.dests, theirs, &other.dests))
            && self.campaigns == other.campaigns
            && self.noise == other.noise
    }
}

impl CampaignDetector {
    /// Detector with the given thresholds.
    pub fn new(config: CampaignConfig) -> Self {
        Self {
            config,
            expiry_micros: (config.expiry_secs * 1e6) as u64,
            table: SourceTable::new(),
            dests: DestIds::for_telescope(config.monitored_addresses),
            slots: Vec::new(),
            active: Vec::new(),
            bodies: Vec::new(),
            campaigns: Vec::new(),
            noise: NoiseStats::default(),
        }
    }

    /// The configured thresholds.
    pub(crate) fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Pre-size the interner and slot table for roughly `sources` distinct
    /// addresses.
    pub(crate) fn reserve(&mut self, sources: usize) {
        self.table.reserve(sources);
        self.slots.reserve(sources);
    }

    /// Number of sources interned so far.
    pub(crate) fn sources(&self) -> usize {
        self.table.len()
    }

    /// Number of currently open scans.
    pub fn open_scans(&self) -> usize {
        self.active.len()
    }

    /// Open-scan bodies held, in use or spare: never more than the peak of
    /// [`CampaignDetector::open_scans`], whatever the number of sources.
    pub fn scan_bodies(&self) -> usize {
        self.bodies.len()
    }

    /// The open scans' bodies, aligned with `active`.
    fn open_bodies(&self) -> &[ScanBody] {
        &self.bodies[..self.active.len()]
    }

    /// Admit one record: intern its source, close the source's scan if it
    /// has been silent past the expiry, open or continue its scan, classify
    /// the record against that scan's pairwise window, and count it. Returns
    /// the verdict and the interned id, which callers use to index their own
    /// dense per-source state.
    ///
    /// Verdicts equal those of a per-source
    /// [`crate::fingerprint::InternedFingerprint`] under the same expiry: a
    /// window resets on a gap longer than the expiry, and a scan closes on
    /// exactly that gap, here or in [`CampaignDetector::expire_idle`] (given
    /// its caller's promise that later records are not older than `now`).
    #[inline]
    pub fn admit(&mut self, record: &ProbeRecord) -> (PacketVerdict, SourceId) {
        let sid = self.table.intern(record.src_ip.0);
        let dest = self.dests.id(record.dst_ip.0);
        let pos = self.scan_of(sid, record.ts_micros);
        let body = &mut self.bodies[pos];
        let verdict = classify_window(&mut body.window, record);
        body.add(record, dest, verdict.tool());
        (verdict, sid)
    }

    /// The body position of `sid`'s scan at `ts_micros`: the open scan,
    /// widened to `ts_micros`, or a fresh one when there is none or the open
    /// one has been silent past the expiry (which closes it).
    #[inline]
    fn scan_of(&mut self, sid: SourceId, ts_micros: u64) -> usize {
        if sid as usize >= self.slots.len() {
            self.slots.resize(sid as usize + 1, SourceSlot::IDLE);
        }
        let slot = &self.slots[sid as usize];
        if slot.is_active() && ts_micros.saturating_sub(slot.last_ts_micros) > self.expiry_micros {
            self.close(sid);
        }
        let slot = &mut self.slots[sid as usize];
        if slot.is_active() {
            // Robust to mildly out-of-order input (pcap merge artifacts):
            // the window only ever widens, so durations never underflow.
            slot.first_ts_micros = slot.first_ts_micros.min(ts_micros);
            slot.last_ts_micros = slot.last_ts_micros.max(ts_micros);
        } else {
            *slot = SourceSlot {
                active_pos: self.active.len() as u32,
                first_ts_micros: ts_micros,
                last_ts_micros: ts_micros,
            };
            self.active.push(sid);
            if self.bodies.len() < self.active.len() {
                self.bodies.push(ScanBody::default());
            }
        }
        slot.active_pos as usize
    }

    /// Expire every open scan idle since before `now_micros` (bounded-memory
    /// operation over long streams). Cost is O(open scans), not O(sources
    /// ever seen). The caller promises that no later record is older than
    /// `now_micros`; the feed loop's order gate keeps that promise.
    pub fn expire_idle(&mut self, now_micros: u64) {
        let mut i = 0;
        while i < self.active.len() {
            let sid = self.active[i];
            let last = self.slots[sid as usize].last_ts_micros;
            if now_micros.saturating_sub(last) > self.expiry_micros {
                // close() swap-removes: index i now holds a different id.
                self.close(sid);
            } else {
                i += 1;
            }
        }
    }

    /// End of stream: finalize everything and return results.
    pub fn finish(self) -> (Vec<Campaign>, NoiseStats) {
        let (campaigns, noise, _) = self.finish_with_sources();
        (campaigns, noise)
    }

    /// As [`CampaignDetector::finish`], also returning the source table so
    /// callers that keyed their own state by interned id can map back to
    /// IPs.
    pub(crate) fn finish_with_sources(mut self) -> (Vec<Campaign>, NoiseStats, SourceTable) {
        while let Some(&sid) = self.active.last() {
            self.close(sid);
        }
        self.campaigns
            .sort_by_key(|c| (c.first_ts_micros, c.src_ip));
        (self.campaigns, self.noise, self.table)
    }

    /// Close the open scan of `sid`: swap-remove it from the active list
    /// and its body to the head of the spare pool, then either emit a
    /// campaign or count it as noise, and clear the body for reuse.
    fn close(&mut self, sid: SourceId) {
        let pos = self.slots[sid as usize].active_pos as usize;
        debug_assert_eq!(self.active[pos], sid);
        self.active.swap_remove(pos);
        let spare = self.active.len();
        self.bodies.swap(pos, spare);
        let body = &mut self.bodies[spare];
        if let Some(&moved) = self.active.get(pos) {
            self.slots[moved as usize].active_pos = pos as u32;
        }
        let slot = &mut self.slots[sid as usize];
        slot.active_pos = NOT_ACTIVE;

        match check(&self.config, slot, body) {
            None => {
                let src_ip = Ipv4Address(self.table.ip_of(sid));
                self.campaigns.push(body.campaign(src_ip, slot));
            }
            Some(reason) => {
                *self.noise.rejected_sequences.entry(reason).or_default() += 1;
                self.noise.rejected_packets += body.packets;
            }
        }
        body.release();
    }

    /// Serialize the full detector state — interner, per-source slots, the
    /// active list, finalized campaigns, and noise counters — for a pipeline
    /// checkpoint. The configuration is *not* written; it is supplied again
    /// on [`CampaignDetector::restore_from`] (the caller owns it and writes
    /// it alongside, so restore stays self-contained at the collector layer).
    ///
    /// A slot is its 20 bytes (`active_pos`, first and last timestamp); only
    /// an open slot is followed by its scan's body, fingerprint window
    /// included.
    pub(crate) fn snapshot_to(&self, w: &mut SnapWriter) {
        self.table.snapshot_to(w);
        w.put_u64(self.slots.len() as u64);
        for slot in &self.slots {
            w.put_u32(slot.active_pos);
            w.put_u64(slot.first_ts_micros);
            w.put_u64(slot.last_ts_micros);
            if slot.is_active() {
                self.bodies[slot.active_pos as usize].snapshot_to(&self.dests, w);
            }
        }
        w.put_u64(self.active.len() as u64);
        for &sid in &self.active {
            w.put_u32(sid);
        }
        w.put_u64(self.campaigns.len() as u64);
        for campaign in &self.campaigns {
            campaign.snapshot_to(w);
        }
        self.noise.snapshot_to(w);
    }

    /// Rebuild a detector written by [`CampaignDetector::snapshot_to`],
    /// re-deriving the precomputed expiry from `config` and validating the
    /// active-list ↔ slot mirror invariant.
    pub(crate) fn restore_from(
        config: CampaignConfig,
        r: &mut SnapReader<'_>,
    ) -> Result<Self, CheckpointError> {
        let table = SourceTable::restore_from(r)?;
        let mut dests = DestIds::for_telescope(config.monitored_addresses);
        // An idle slot is 20 bytes, and an open one more.
        let n_slots = r.take_len(20)?;
        let mut slots = Vec::with_capacity(n_slots);
        let mut open = Vec::new();
        for _ in 0..n_slots {
            let slot = SourceSlot {
                active_pos: r.take_u32()?,
                first_ts_micros: r.take_u64()?,
                last_ts_micros: r.take_u64()?,
            };
            if slot.is_active() {
                open.push((slot.active_pos, ScanBody::restore_from(r, &mut dests)?));
            }
            slots.push(slot);
        }
        let n_active = r.take_len(4)?;
        let mut active = Vec::with_capacity(n_active);
        for _ in 0..n_active {
            active.push(r.take_u32()?);
        }
        for (pos, &sid) in active.iter().enumerate() {
            let mirrored = slots
                .get(sid as usize)
                .map(|slot| slot.active_pos)
                .unwrap_or(NOT_ACTIVE);
            if mirrored as usize != pos {
                return Err(CheckpointError::Corrupt(format!(
                    "active list entry {pos} (source {sid}) not mirrored by its slot"
                )));
            }
        }
        if open.len() != active.len() {
            return Err(CheckpointError::Corrupt(format!(
                "{} slots marked active but {} active-list entries",
                open.len(),
                active.len()
            )));
        }
        // The mirror check makes the open slots' positions exactly
        // 0..active.len(), so sorting by position aligns bodies with `active`.
        open.sort_unstable_by_key(|&(pos, _)| pos);
        let bodies = open.into_iter().map(|(_, body)| body).collect();
        let n_campaigns = r.take_len(52)?;
        let mut campaigns = Vec::with_capacity(n_campaigns);
        for _ in 0..n_campaigns {
            campaigns.push(Campaign::restore_from(r)?);
        }
        let noise = NoiseStats::restore_from(r)?;
        Ok(Self {
            config,
            expiry_micros: (config.expiry_secs * 1e6) as u64,
            table,
            dests,
            slots,
            active,
            bodies,
            campaigns,
            noise,
        })
    }
}

/// The §3.4 campaign test, as a free function so [`CampaignDetector::close`]
/// can borrow the scan and the config independently.
fn check(config: &CampaignConfig, slot: &SourceSlot, body: &ScanBody) -> Option<RejectReason> {
    if (body.dests.len() as u64) < config.min_distinct_dests {
        return Some(RejectReason::TooFewDestinations);
    }
    let duration = (slot.last_ts_micros - slot.first_ts_micros) as f64 / 1e6;
    if duration > 0.0 {
        let telescope_rate = body.packets as f64 / duration;
        let est = config.model().extrapolate_rate(telescope_rate);
        if est < config.min_rate_pps {
            return Some(RejectReason::TooSlow);
        }
    }
    None
}

/// Convenience wrapper running fingerprinting and campaign detection in one
/// pass — the §3 pipeline end to end.
///
/// The detector's [`SourceTable`] is the single source interner, and the
/// pairwise fingerprint window lives in each open scan's body, so the whole
/// §3 admit path is one [`CampaignDetector::admit`] call and two hash probes
/// per record: the source's and the destination's.
#[derive(Debug, Clone, PartialEq)]
pub struct Pipeline {
    detector: CampaignDetector,
}

impl Pipeline {
    /// New pipeline with the given campaign thresholds.
    ///
    /// The fingerprint window shares the scan's idle expiry: a source silent
    /// long enough to close its scan also restarts its pairwise history,
    /// deterministically, whatever the housekeeping cadence. This keeps
    /// sharded and sequential runs bit-identical.
    pub fn new(config: CampaignConfig) -> Self {
        Self {
            detector: CampaignDetector::new(config),
        }
    }

    /// The campaign thresholds this pipeline runs under.
    pub(crate) fn config(&self) -> &CampaignConfig {
        self.detector.config()
    }

    /// Pre-size interner and campaign slots for roughly `sources` distinct
    /// addresses.
    pub(crate) fn reserve_sources(&mut self, sources: usize) {
        self.detector.reserve(sources);
    }

    /// Number of sources interned so far.
    pub(crate) fn sources(&self) -> usize {
        self.detector.sources()
    }

    /// Process one record: intern, fingerprint and count it
    /// ([`CampaignDetector::admit`]). Returns the per-packet verdict and the
    /// record's interned source id, so the caller can index its own dense
    /// per-source state without re-hashing the address.
    #[inline]
    pub fn process_interned(&mut self, record: &ProbeRecord) -> (PacketVerdict, SourceId) {
        self.detector.admit(record)
    }

    /// Periodic housekeeping for long streams: close the scans silent past
    /// the expiry, and with them their fingerprint windows.
    pub fn housekeeping(&mut self, now_micros: u64) {
        self.detector.expire_idle(now_micros);
    }

    /// Finish, also handing back the source table for id → IP conversion.
    /// Public only because the benchmark names it.
    pub fn finish_with_sources(self) -> (Vec<Campaign>, NoiseStats, SourceTable) {
        self.detector.finish_with_sources()
    }

    /// Serialize fingerprint and campaign state for a pipeline checkpoint:
    /// the detector's, which carries every open scan's window.
    pub(crate) fn snapshot_to(&self, w: &mut SnapWriter) {
        self.detector.snapshot_to(w);
    }

    /// Rebuild a pipeline written by [`Pipeline::snapshot_to`] under the
    /// given campaign thresholds (which the caller checkpoints alongside).
    pub(crate) fn restore_from(
        config: CampaignConfig,
        r: &mut SnapReader<'_>,
    ) -> Result<Self, CheckpointError> {
        Ok(Self {
            detector: CampaignDetector::restore_from(config, r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synscan_wire::TcpFlags;

    fn cfg() -> CampaignConfig {
        CampaignConfig {
            min_distinct_dests: 10,
            min_rate_pps: 100.0,
            expiry_secs: 3600.0,
            monitored_addresses: 1 << 16,
        }
    }

    fn record(src: u32, dst: u32, port: u16, ts_micros: u64) -> ProbeRecord {
        ProbeRecord {
            ts_micros,
            src_ip: Ipv4Address(src),
            dst_ip: Ipv4Address(dst),
            src_port: 1000,
            dst_port: port,
            // No single-packet mark and no pairwise relation between any
            // two of these probes: the fingerprint leaves them unattributed.
            seq: dst.wrapping_mul(0x9e37_79b9),
            ip_id: 7,
            ttl: 60,
            flags: TcpFlags::SYN,
            window: 1024,
        }
    }

    /// `r` re-marked so the single-packet rules attribute it to `tool`.
    fn tagged(mut r: ProbeRecord, tool: ToolKind) -> ProbeRecord {
        r.ip_id = match tool {
            ToolKind::Zmap => 54_321,
            ToolKind::Masscan => {
                synscan_scanners::masscan::MasscanScanner::ip_id_for(r.dst_ip, r.dst_port, r.seq)
            }
            other => unreachable!("{other:?} has no single-packet mark"),
        };
        r
    }

    #[test]
    fn a_fast_wide_scan_becomes_a_campaign() {
        let mut det = CampaignDetector::new(cfg());
        // 50 distinct destinations in 1 second: telescope rate 50 pps,
        // extrapolated 50 × 2^32/2^16 = 3.3M pps — clearly a campaign.
        for i in 0..50u32 {
            det.admit(&record(1, 100 + i, 80, (i as u64) * 20_000));
        }
        let (campaigns, noise) = det.finish();
        assert_eq!(campaigns.len(), 1);
        assert_eq!(campaigns[0].distinct_dests, 50);
        assert_eq!(campaigns[0].packets, 50);
        assert_eq!(noise.rejected_packets, 0);
    }

    #[test]
    fn too_few_destinations_is_noise() {
        let mut det = CampaignDetector::new(cfg());
        for i in 0..5u32 {
            det.admit(&record(1, 100 + i, 80, (i as u64) * 1000));
        }
        let (campaigns, noise) = det.finish();
        assert!(campaigns.is_empty());
        assert_eq!(noise.rejected_packets, 5);
        assert_eq!(
            noise
                .rejected_sequences
                .get(&RejectReason::TooFewDestinations),
            Some(&1)
        );
    }

    #[test]
    fn slow_scans_are_rejected() {
        let mut det = CampaignDetector::new(cfg());
        // 20 destinations over 20,000 seconds: telescope rate 0.001 pps,
        // extrapolated ≈ 65 pps < 100 pps threshold.
        for i in 0..20u32 {
            det.admit(&record(1, 100 + i, 80, (i as u64) * 1_000_000_000));
        }
        // All probes are within the 1 h expiry? No — 1000 s gaps, fine.
        let (campaigns, noise) = det.finish();
        assert!(campaigns.is_empty());
        assert_eq!(
            noise.rejected_sequences.get(&RejectReason::TooSlow),
            Some(&1)
        );
    }

    #[test]
    fn idle_gap_splits_campaigns() {
        let mut det = CampaignDetector::new(cfg());
        for i in 0..15u32 {
            det.admit(&record(1, 100 + i, 80, (i as u64) * 1000));
        }
        // Resume two hours later.
        let later = 2 * 3600 * 1_000_000u64;
        for i in 0..15u32 {
            det.admit(&record(1, 500 + i, 443, later + (i as u64) * 1000));
        }
        let (campaigns, _) = det.finish();
        assert_eq!(campaigns.len(), 2);
        assert!(campaigns[0].last_ts_micros < campaigns[1].first_ts_micros);
        assert_eq!(campaigns[0].port_packets.keys().collect::<Vec<_>>(), [&80]);
        assert_eq!(campaigns[1].port_packets.keys().collect::<Vec<_>>(), [&443]);
    }

    #[test]
    fn sources_are_tracked_independently() {
        let mut det = CampaignDetector::new(cfg());
        for i in 0..12u32 {
            det.admit(&record(1, 100 + i, 80, (i as u64) * 1000));
            det.admit(&record(2, 200 + i, 22, (i as u64) * 1000 + 7));
        }
        let (campaigns, _) = det.finish();
        assert_eq!(campaigns.len(), 2);
        let srcs: Vec<u32> = campaigns.iter().map(|c| c.src_ip.0).collect();
        assert!(srcs.contains(&1) && srcs.contains(&2));
    }

    #[test]
    fn repeated_destinations_do_not_inflate_distinct_count() {
        let mut det = CampaignDetector::new(cfg());
        for i in 0..100u32 {
            det.admit(&record(1, 100 + (i % 5), 80, (i as u64) * 1000));
        }
        let (campaigns, noise) = det.finish();
        assert!(campaigns.is_empty(), "only 5 distinct destinations");
        assert_eq!(noise.rejected_packets, 100);
    }

    #[test]
    fn tool_votes_produce_majority_attribution() {
        let mut det = CampaignDetector::new(cfg());
        for i in 0..20u32 {
            let r = record(1, 100 + i, 80, (i as u64) * 1000);
            let r = match i {
                0..=14 => tagged(r, ToolKind::Zmap),
                15..=17 => tagged(r, ToolKind::Masscan),
                _ => r,
            };
            det.admit(&r);
        }
        let (campaigns, _) = det.finish();
        assert_eq!(campaigns[0].tool(), Some(ToolKind::Zmap));
        assert_eq!(campaigns[0].tool_votes[&ToolKind::Zmap], 15);
    }

    #[test]
    fn campaign_without_votes_has_no_tool() {
        let mut det = CampaignDetector::new(cfg());
        for i in 0..20u32 {
            det.admit(&record(1, 100 + i, 80, (i as u64) * 1000));
        }
        let (campaigns, _) = det.finish();
        assert_eq!(campaigns[0].tool(), None);
    }

    #[test]
    fn multi_port_campaign_metrics() {
        let mut det = CampaignDetector::new(cfg());
        for i in 0..30u32 {
            let port = [80u16, 8080, 443][i as usize % 3];
            det.admit(&record(1, 100 + i, port, (i as u64) * 1000));
        }
        let (campaigns, _) = det.finish();
        assert_eq!(campaigns[0].distinct_ports(), 3);
        assert_eq!(campaigns[0].port_packets[&80], 10);
    }

    #[test]
    fn out_of_order_timestamps_do_not_break_durations() {
        // A record arriving with an older timestamp (pcap merge artifact)
        // must widen the interval instead of inverting it.
        let mut det = CampaignDetector::new(cfg());
        det.admit(&record(1, 100, 80, 5_000_000));
        for i in 0..12u32 {
            det.admit(&record(1, 101 + i, 80, 4_000_000 + (i as u64) * 1000));
        }
        let (campaigns, _) = det.finish();
        assert_eq!(campaigns.len(), 1);
        assert!(campaigns[0].duration_secs() >= 0.0);
        assert_eq!(campaigns[0].first_ts_micros, 4_000_000);
        assert_eq!(campaigns[0].last_ts_micros, 5_000_000);
    }

    #[test]
    fn expire_idle_flushes_old_scans() {
        let mut det = CampaignDetector::new(cfg());
        for i in 0..15u32 {
            det.admit(&record(1, 100 + i, 80, (i as u64) * 1000));
        }
        det.expire_idle(2 * 3600 * 1_000_000);
        assert_eq!(det.open_scans(), 0);
        let (campaigns, _) = det.finish();
        assert_eq!(campaigns.len(), 1);
    }

    #[test]
    fn slot_reuse_after_close_starts_clean() {
        // Same source opens, closes (as noise), and reopens: the recycled
        // slot must not leak dests/ports/votes from the first sequence.
        let mut det = CampaignDetector::new(cfg());
        for i in 0..5u32 {
            det.admit(&tagged(
                record(9, 100 + i, 80, (i as u64) * 1000),
                ToolKind::Zmap,
            ));
        }
        let later = 3 * 3600 * 1_000_000u64;
        for i in 0..15u32 {
            det.admit(&record(9, 500 + i, 443, later + (i as u64) * 1000));
        }
        let (campaigns, noise) = det.finish();
        assert_eq!(campaigns.len(), 1);
        assert_eq!(campaigns[0].packets, 15);
        assert_eq!(campaigns[0].distinct_dests, 15);
        assert_eq!(campaigns[0].port_packets.keys().collect::<Vec<_>>(), [&443]);
        assert!(
            campaigns[0].tool_votes.is_empty(),
            "votes from run 1 leaked"
        );
        assert_eq!(noise.rejected_packets, 5);
    }

    #[test]
    fn active_list_survives_interleaved_closes() {
        // Many sources open; expire a middle batch (exercising swap_remove
        // position fixups); the remaining sources still close correctly.
        let mut det = CampaignDetector::new(cfg());
        for src in 0..20u32 {
            for i in 0..12u32 {
                // Sources 5..10 stop early; the rest keep going.
                let ts = if (5..10).contains(&src) {
                    (i as u64) * 1000
                } else {
                    5 * 3600 * 1_000_000 + (i as u64) * 1000
                };
                det.admit(&record(src, 100 + src * 100 + i, 80, ts));
            }
        }
        assert_eq!(det.open_scans(), 20);
        det.expire_idle(4 * 3600 * 1_000_000);
        assert_eq!(det.open_scans(), 15, "only the early batch expired");
        let (campaigns, _) = det.finish();
        assert_eq!(campaigns.len(), 20);
    }

    #[test]
    fn scaled_config_scales_the_destination_threshold() {
        let scaled = CampaignConfig::scaled(71_536 / 64);
        assert!(scaled.min_distinct_dests < 10);
        assert!(scaled.min_distinct_dests >= 4);
        assert_eq!(scaled.min_rate_pps, 100.0);
        // Expiry grows with the inverse telescope ratio, capped at 18 h.
        assert_eq!(scaled.expiry_secs, 64_800.0);
        let quarter = CampaignConfig::scaled(71_536 / 4);
        assert!((quarter.expiry_secs - 4.0 * 3600.0).abs() < 1.0);
        let full = CampaignConfig::scaled(71_536);
        assert_eq!(full.min_distinct_dests, 100);
        assert_eq!(full.expiry_secs, 3600.0);
    }

    #[test]
    fn reject_reason_names_are_stable() {
        // The report rendering leans on these exact strings, and BTreeMap
        // order must match their lexicographic order.
        assert_eq!(
            RejectReason::TooFewDestinations.as_str(),
            "TooFewDestinations"
        );
        assert_eq!(RejectReason::TooSlow.as_str(), "TooSlow");
        assert_eq!(
            RejectReason::TooFewDestinations.to_string(),
            format!("{:?}", RejectReason::TooFewDestinations)
        );
        assert!(RejectReason::TooFewDestinations < RejectReason::TooSlow);
        assert!(
            RejectReason::TooFewDestinations.as_str() < RejectReason::TooSlow.as_str(),
            "enum order tracks string order"
        );
    }

    fn detector_round_trip(det: &CampaignDetector) -> CampaignDetector {
        let mut w = SnapWriter::new();
        det.snapshot_to(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = CampaignDetector::restore_from(det.config, &mut r).unwrap();
        assert_eq!(r.remaining(), 0, "snapshot fully consumed");
        back
    }

    #[test]
    fn empty_detector_snapshot_round_trips() {
        let det = CampaignDetector::new(cfg());
        assert_eq!(detector_round_trip(&det), det);
    }

    #[test]
    fn mid_stream_detector_snapshot_round_trips_and_finishes_identically() {
        let mut det = CampaignDetector::new(cfg());
        // Source 1: a finalized campaign (closed by an expiry gap).
        for i in 0..15u32 {
            det.admit(&tagged(
                record(1, 100 + i, 80, (i as u64) * 1000),
                ToolKind::Zmap,
            ));
        }
        // Source 2: finalized noise (too few destinations, closed by gap).
        for i in 0..3u32 {
            det.admit(&record(2, 200 + i, 22, (i as u64) * 1000));
        }
        // A long gap closes both (the detector closes an idle scan only on
        // that source's next record or an expiry sweep), then sources 3 and
        // 4 open fresh scans that are still in flight at snapshot time.
        let later = 3 * 3600 * 1_000_000u64;
        det.expire_idle(later);
        for i in 0..8u32 {
            det.admit(&record(3, 300 + i, 443, later + (i as u64) * 1000));
            det.admit(&tagged(
                record(4, 400 + i, 8080, later + (i as u64) * 1000 + 3),
                ToolKind::Masscan,
            ));
        }
        assert_eq!(det.open_scans(), 2);

        let restored = detector_round_trip(&det);
        assert_eq!(restored, det, "full state equality after round trip");

        // Feed the identical continuation into both and compare final output.
        let mut restored = restored;
        for i in 8..20u32 {
            for d in [&mut det, &mut restored] {
                d.admit(&record(3, 300 + i, 443, later + (i as u64) * 1000));
                d.admit(&tagged(
                    record(4, 400 + i, 8080, later + (i as u64) * 1000 + 3),
                    ToolKind::Masscan,
                ));
            }
        }
        let (campaigns_a, noise_a, table_a) = det.finish_with_sources();
        let (campaigns_b, noise_b, table_b) = restored.finish_with_sources();
        assert_eq!(campaigns_a, campaigns_b);
        assert_eq!(noise_a, noise_b);
        assert_eq!(table_a, table_b);
        assert_eq!(campaigns_a.len(), 3);
    }

    #[test]
    fn detector_snapshot_with_broken_active_mirror_is_rejected() {
        let mut det = CampaignDetector::new(cfg());
        for i in 0..5u32 {
            det.admit(&record(1, 100 + i, 80, (i as u64) * 1000));
        }
        let mut w = SnapWriter::new();
        det.snapshot_to(&mut w);
        let mut bytes = w.into_bytes();
        // The single slot's active_pos is the first u32 after the interner
        // block (len u64 + one ip u32, then slot count u64). Corrupt it.
        let pos = 8 + 4 + 8;
        bytes[pos..pos + 4].copy_from_slice(&7u32.to_le_bytes());
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            CampaignDetector::restore_from(cfg(), &mut r),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn idle_slots_are_their_twenty_bytes_and_round_trip_alone() {
        // Sixty-four sources each scan too few destinations, fall silent and
        // are swept: every slot is idle and every body back in the pool.
        let mut det = CampaignDetector::new(cfg());
        for src in 0..64u32 {
            for i in 0..3u32 {
                det.admit(&record(src, 100 + i, 80, u64::from(i) * 1000));
            }
        }
        det.expire_idle(2 * 3600 * 1_000_000);
        assert_eq!((det.open_scans(), det.scan_bodies()), (0, 64));
        let mut w = SnapWriter::new();
        det.snapshot_to(&mut w);
        let bytes = w.into_bytes();
        // Interner (count + 64 ips), slot count, 64 bare slots, then the
        // empty active list, no campaign and the noise counters (one reason).
        let slots = 8 + 64 * 4 + 8;
        assert_eq!(bytes.len(), slots + 64 * 20 + 8 + 8 + (8 + 9 + 8));
        // The slots alone fill most of what follows the count: a floor
        // sized for a slot with a body would call this detector corrupt.
        assert!(bytes.len() - slots < 64 * 44);
        let back = detector_round_trip(&det);
        assert_eq!(back, det, "spare bodies are not state");
        let mut again = SnapWriter::new();
        back.snapshot_to(&mut again);
        assert_eq!(again.into_bytes(), bytes, "re-encodes to the same bytes");
    }

    #[test]
    fn an_open_body_without_packets_or_with_an_overlong_window_is_corrupt() {
        // One open scan of two probes, both fingerprinted into its window.
        let mut det = CampaignDetector::new(cfg());
        for i in 0..2u32 {
            det.admit(&record(1, 100 + i, 80, u64::from(i) * 1000));
        }
        let mut w = SnapWriter::new();
        det.snapshot_to(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(detector_round_trip(&det), det);
        // The body follows the interner (count + one ip), the slot count and
        // the slot; its first field is the packet count. The window's length
        // byte follows two destinations, one port and six votes.
        let packets = 8 + 4 + 8 + 20;
        let window = packets + 8 + (8 + 2 * 4) + (8 + 10) + 6 * 8;
        assert_eq!(bytes[packets], 2);
        assert_eq!(bytes[window], 2);
        for (at, value) in [(packets, 0), (window, 9)] {
            let mut damaged = bytes.clone();
            damaged[at] = value;
            assert!(
                matches!(
                    CampaignDetector::restore_from(cfg(), &mut SnapReader::new(&damaged)),
                    Err(CheckpointError::Corrupt(_))
                ),
                "byte {at} set to {value}"
            );
        }
    }

    #[test]
    fn a_reopened_scan_starts_with_an_empty_window() {
        // A confirmed NMap session goes silent past the expiry; its next
        // probe opens a new scan with no history to pair against, as does
        // another source that reuses the released body.
        use synscan_scanners::nmap::NmapScanner;
        use synscan_scanners::traits::craft_record;
        let nmap = NmapScanner::new(3);
        let probe = |src: u32, i: u64, ts: u64| {
            craft_record(
                &nmap,
                Ipv4Address(src),
                Ipv4Address(0x0a00_0000 + i as u32 * 17),
                (i * 7 % 50_000) as u16 + 1,
                i,
                ts,
                6,
            )
        };
        let mut det = CampaignDetector::new(cfg());
        for i in 0..4u64 {
            det.admit(&probe(1, i, i * 1000));
        }
        assert_eq!(
            det.admit(&probe(1, 4, 4000)).0,
            PacketVerdict::Paired(ToolKind::Nmap)
        );
        let later = 4000 + det.expiry_micros + 1;
        assert_eq!(
            det.admit(&probe(1, 5, later)).0,
            PacketVerdict::Unattributed
        );
        det.expire_idle(later + det.expiry_micros + 1);
        assert_eq!(det.scan_bodies(), 1);
        let other = det.admit(&probe(2, 6, later + det.expiry_micros + 2));
        assert_eq!(other.0, PacketVerdict::Unattributed);
    }

    /// A campaign snapshot written field by field, so its two maps can list
    /// keys no `BTreeMap` would: repeated or descending.
    fn campaign_bytes(ports: &[(u16, u64)], tools: &[(ToolKind, u64)]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_u32(9);
        for field in [1_000u64, 2_000, 30, 30] {
            w.put_u64(field);
        }
        w.put_u64(ports.len() as u64);
        for &(port, packets) in ports {
            w.put_u16(port);
            w.put_u64(packets);
        }
        w.put_u64(tools.len() as u64);
        for &(tool, votes) in tools {
            w.put_tool(tool);
            w.put_u64(votes);
        }
        w.into_bytes()
    }

    fn restore_campaign(bytes: &[u8]) -> Result<Campaign, CheckpointError> {
        Campaign::restore_from(&mut SnapReader::new(bytes))
    }

    #[test]
    fn campaign_restore_rejects_repeated_or_descending_ports() {
        let tools = [(ToolKind::Zmap, 30)];
        let good = restore_campaign(&campaign_bytes(&[(22, 10), (80, 20)], &tools));
        assert_eq!(good.expect("map order restores").port_packets.len(), 2);
        for ports in [[(80, 10), (80, 20)], [(80, 10), (22, 20)]] {
            assert!(matches!(
                restore_campaign(&campaign_bytes(&ports, &tools)),
                Err(CheckpointError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn campaign_restore_rejects_repeated_or_descending_tools() {
        let ports = [(80, 30)];
        for tools in [
            [(ToolKind::Zmap, 10), (ToolKind::Zmap, 20)],
            [(ToolKind::Masscan, 10), (ToolKind::Zmap, 20)],
        ] {
            assert!(matches!(
                restore_campaign(&campaign_bytes(&ports, &tools)),
                Err(CheckpointError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn campaign_restore_rejects_an_end_before_the_start() {
        let mut campaign = restore_campaign(&campaign_bytes(&[(80, 30)], &[])).unwrap();
        assert_eq!(campaign.duration_secs(), 0.001);
        std::mem::swap(&mut campaign.first_ts_micros, &mut campaign.last_ts_micros);
        let mut w = SnapWriter::new();
        campaign.snapshot_to(&mut w);
        assert!(matches!(
            restore_campaign(&w.into_bytes()),
            Err(CheckpointError::Corrupt(_))
        ));
        // A single-burst campaign (equal timestamps) still restores.
        campaign.first_ts_micros = campaign.last_ts_micros;
        let mut w = SnapWriter::new();
        campaign.snapshot_to(&mut w);
        assert_eq!(restore_campaign(&w.into_bytes()), Ok(campaign));
    }

    #[test]
    fn noise_restore_rejects_repeated_or_descending_reasons() {
        let noise_bytes = |reasons: &[RejectReason]| {
            let mut w = SnapWriter::new();
            w.put_u64(reasons.len() as u64);
            for &reason in reasons {
                w.put_u8(reject_code(reason));
                w.put_u64(5);
            }
            w.put_u64(10);
            w.into_bytes()
        };
        let restore = |bytes: &[u8]| NoiseStats::restore_from(&mut SnapReader::new(bytes));
        let (few, slow) = (RejectReason::TooFewDestinations, RejectReason::TooSlow);
        assert_eq!(
            restore(&noise_bytes(&[few, slow]))
                .expect("map order restores")
                .rejected_sequences
                .len(),
            2
        );
        for reasons in [[slow, slow], [slow, few]] {
            assert!(matches!(
                restore(&noise_bytes(&reasons)),
                Err(CheckpointError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn pipeline_snapshot_round_trips_mid_stream() {
        use synscan_scanners::traits::craft_record;
        use synscan_scanners::zmap::ZmapScanner;
        let mut pipeline = Pipeline::new(cfg());
        let z = ZmapScanner::new(5);
        let mk = |i: u64| {
            craft_record(
                &z,
                Ipv4Address(88),
                Ipv4Address(0x0800_0000 + i as u32),
                443,
                i,
                i * 5000,
                9,
            )
        };
        for i in 0..10u64 {
            pipeline.process_interned(&mk(i));
        }
        let mut w = SnapWriter::new();
        pipeline.snapshot_to(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let restored = Pipeline::restore_from(cfg(), &mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!(restored, pipeline);

        let mut restored = restored;
        for i in 10..25u64 {
            assert_eq!(
                restored.process_interned(&mk(i)).0,
                pipeline.process_interned(&mk(i)).0
            );
        }
        let (campaigns_a, noise_a, _) = pipeline.finish_with_sources();
        let (campaigns_b, noise_b, _) = restored.finish_with_sources();
        assert_eq!(campaigns_a, campaigns_b);
        assert_eq!(noise_a, noise_b);
        assert_eq!(campaigns_a[0].tool(), Some(ToolKind::Zmap));
    }

    #[test]
    fn pipeline_combines_fingerprint_and_detection() {
        use synscan_scanners::traits::craft_record;
        use synscan_scanners::zmap::ZmapScanner;
        let mut pipeline = Pipeline::new(cfg());
        let z = ZmapScanner::new(1);
        for i in 0..20u64 {
            let rec = craft_record(
                &z,
                Ipv4Address(77),
                Ipv4Address(0x0900_0000 + i as u32),
                443,
                i,
                i * 5000,
                9,
            );
            pipeline.process_interned(&rec);
        }
        let (campaigns, _, _) = pipeline.finish_with_sources();
        assert_eq!(campaigns.len(), 1);
        assert_eq!(campaigns[0].tool(), Some(ToolKind::Zmap));
    }
}
