//! Scanning-tool fingerprinting (§3.3).
//!
//! Two classes of evidence link a probe to the tool that crafted it:
//!
//! * **Single-packet invariants** ([`rules`]) verifiable on one frame in
//!   isolation — Masscan's identification relation, ZMap's constant
//!   identification, Mirai's destination-as-sequence quirk.
//! * **Pairwise relations** ([`pairwise`]) that hold between any two frames
//!   of one tool session — NMap's reused keystream and Unicornscan's XOR
//!   encoding. These need a short history of the source's recent probes.
//!
//! `classify_window` is the one rule set: it combines both against one
//! history. The product keeps that history in the source's open scan
//! ([`crate::campaign::CampaignDetector::admit`]), so it lives and dies
//! with the scan. [`FingerprintEngine`] (address-keyed) and
//! [`InternedFingerprint`] (id-keyed) keep one history per source instead,
//! reset after a silence longer than their expiry; they are references for
//! tests, examples and the benchmark.

pub mod pairwise;
pub mod rules;

use std::collections::HashMap;

use synscan_wire::{Ipv4Address, ProbeRecord};

use synscan_scanners::traits::ToolKind;

use self::pairwise::PairwiseState;
use self::rules::single_packet_verdict;

use crate::intern::SourceId;

/// The verdict for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketVerdict {
    /// A single-packet invariant matched.
    Single(ToolKind),
    /// A pairwise relation matched against an earlier probe of this source.
    Paired(ToolKind),
    /// No tracked tool matched.
    Unattributed,
}

impl PacketVerdict {
    /// The attributed tool, if any.
    pub fn tool(&self) -> Option<ToolKind> {
        match self {
            PacketVerdict::Single(t) | PacketVerdict::Paired(t) => Some(*t),
            PacketVerdict::Unattributed => None,
        }
    }
}

/// Classify one probe against its source's pairwise history, then add it to
/// that history.
///
/// Precedence: single-packet invariants are checked first (they are
/// verifiable without history and far more specific); pairwise relations
/// only fire for packets with no single-packet match, which prevents two
/// Mirai probes (whose sequence numbers both equal their destinations) from
/// accidentally satisfying the NMap half-equality and being
/// double-attributed. A single-packet match still enters the history, so a
/// later unmarked packet can pair against it.
#[inline]
pub(crate) fn classify_window(window: &mut PairwiseState, record: &ProbeRecord) -> PacketVerdict {
    if let Some(tool) = single_packet_verdict(record) {
        window.push(record);
        return PacketVerdict::Single(tool);
    }
    let verdict = window.test(record);
    window.push(record);
    match verdict {
        Some(tool) => PacketVerdict::Paired(tool),
        None => PacketVerdict::Unattributed,
    }
}

/// One source's pairwise history and the timestamp of its last probe, for
/// the engines that keep a history per source rather than per open scan.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct SourceWindow {
    last_seen_micros: u64,
    window: PairwiseState,
}

impl SourceWindow {
    /// Reset the history after a gap longer than `expiry_micros`, then
    /// classify `record` against it.
    #[inline]
    fn classify(&mut self, record: &ProbeRecord, expiry_micros: u64) -> PacketVerdict {
        if record.ts_micros.saturating_sub(self.last_seen_micros) > expiry_micros {
            self.window.reset();
        }
        self.last_seen_micros = self.last_seen_micros.max(record.ts_micros);
        classify_window(&mut self.window, record)
    }
}

/// Streaming fingerprint engine with bounded per-source state.
#[derive(Debug)]
pub struct FingerprintEngine {
    pairwise: HashMap<Ipv4Address, SourceWindow>,
    /// Per-source gaps longer than this reset the source's pairwise state
    /// *inside* [`FingerprintEngine::classify`], deterministically.
    ///
    /// With the reset keyed to the record stream itself, the periodic
    /// [`FingerprintEngine::evict_idle`] housekeeping is purely a memory
    /// bound — *when* it runs can no longer change any verdict.
    expiry_micros: u64,
}

impl Default for FingerprintEngine {
    fn default() -> Self {
        Self::with_expiry(u64::MAX)
    }
}

impl FingerprintEngine {
    /// Fresh engine that never expires pairwise state on its own (callers
    /// manage memory via [`FingerprintEngine::evict_idle`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh engine whose per-source state resets after `expiry_micros` of
    /// source silence, independent of eviction cadence.
    pub fn with_expiry(expiry_micros: u64) -> Self {
        Self {
            pairwise: HashMap::new(),
            expiry_micros,
        }
    }

    /// Classify one probe, updating per-source pairwise state
    /// (`classify_window`'s precedence).
    pub fn classify(&mut self, record: &ProbeRecord) -> PacketVerdict {
        self.pairwise
            .entry(record.src_ip)
            .or_default()
            .classify(record, self.expiry_micros)
    }

    /// Drop per-source state for sources idle since before `cutoff_micros`
    /// (bounded-memory operation over long streams).
    pub fn evict_idle(&mut self, cutoff_micros: u64) {
        self.pairwise
            .retain(|_, state| state.last_seen_micros >= cutoff_micros);
    }

    /// Number of sources currently tracked.
    pub fn tracked_sources(&self) -> usize {
        self.pairwise.len()
    }
}

/// Fingerprint engine keyed by interned source id instead of address.
///
/// Functionally identical to [`FingerprintEngine`] — same rules, same
/// pairwise windows, same lazy expiry reset — but per-source state is a
/// dense vector indexed by [`SourceId`], so `classify` does no hashing. It
/// keeps one history per source ever seen, idle or not; the product keeps
/// one per open scan instead and must agree with this engine verdict for
/// verdict (`tests/verdict_equivalence.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternedFingerprint {
    states: Vec<SourceWindow>,
    /// Same lazy-reset contract as [`FingerprintEngine::with_expiry`].
    expiry_micros: u64,
}

impl InternedFingerprint {
    /// Fresh engine whose per-source state resets after `expiry_micros` of
    /// source silence.
    pub fn with_expiry(expiry_micros: u64) -> Self {
        Self {
            states: Vec::new(),
            expiry_micros,
        }
    }

    /// Classify one probe of the source interned as `sid`, updating its
    /// pairwise state (`classify_window`'s precedence).
    #[inline]
    pub fn classify(&mut self, sid: SourceId, record: &ProbeRecord) -> PacketVerdict {
        let idx = sid as usize;
        if idx >= self.states.len() {
            self.states.resize_with(idx + 1, SourceWindow::default);
        }
        self.states[idx].classify(record, self.expiry_micros)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synscan_scanners::custom::CustomScanner;
    use synscan_scanners::masscan::MasscanScanner;
    use synscan_scanners::mirai::MiraiScanner;
    use synscan_scanners::nmap::NmapScanner;
    use synscan_scanners::traits::{craft_record, ProbeCrafter};
    use synscan_scanners::unicorn::UnicornScanner;
    use synscan_scanners::zmap::ZmapScanner;

    fn records_for<C: ProbeCrafter>(crafter: &C, src: u32, n: u64) -> Vec<ProbeRecord> {
        (0..n)
            .map(|i| {
                let dst = Ipv4Address(0x0b00_0000 + (i as u32) * 977);
                let port = (i * 37 % 60_000) as u16 + 1;
                craft_record(crafter, Ipv4Address(src), dst, port, i, i * 1000, 10)
            })
            .collect()
    }

    #[test]
    fn zmap_is_attributed_on_the_first_packet() {
        let mut engine = FingerprintEngine::new();
        for rec in records_for(&ZmapScanner::new(1), 100, 10) {
            assert_eq!(engine.classify(&rec), PacketVerdict::Single(ToolKind::Zmap));
        }
    }

    #[test]
    fn masscan_is_attributed_on_the_first_packet() {
        let mut engine = FingerprintEngine::new();
        for rec in records_for(&MasscanScanner::new(2), 101, 10) {
            assert_eq!(
                engine.classify(&rec),
                PacketVerdict::Single(ToolKind::Masscan)
            );
        }
    }

    #[test]
    fn mirai_is_attributed_on_the_first_packet() {
        let mut engine = FingerprintEngine::new();
        let m = MiraiScanner::new(3);
        for i in 0..10u64 {
            let dst = m.pick_target(i);
            let rec = craft_record(&m, Ipv4Address(102), dst, m.pick_port(i), i, i, 5);
            assert_eq!(
                engine.classify(&rec),
                PacketVerdict::Single(ToolKind::Mirai)
            );
        }
    }

    #[test]
    fn nmap_needs_two_packets() {
        let mut engine = FingerprintEngine::new();
        let recs = records_for(&NmapScanner::new(4), 103, 10);
        assert_eq!(engine.classify(&recs[0]), PacketVerdict::Unattributed);
        for rec in &recs[1..] {
            assert_eq!(engine.classify(rec), PacketVerdict::Paired(ToolKind::Nmap));
        }
    }

    #[test]
    fn unicorn_needs_two_packets() {
        let mut engine = FingerprintEngine::new();
        let recs = records_for(&UnicornScanner::new(5), 104, 10);
        assert_eq!(engine.classify(&recs[0]), PacketVerdict::Unattributed);
        for rec in &recs[1..] {
            assert_eq!(
                engine.classify(rec),
                PacketVerdict::Paired(ToolKind::Unicorn)
            );
        }
    }

    #[test]
    fn custom_tools_stay_unattributed() {
        let mut engine = FingerprintEngine::new();
        let mut attributed = 0;
        for rec in records_for(&CustomScanner::new(6), 105, 500) {
            if engine.classify(&rec).tool().is_some() {
                attributed += 1;
            }
        }
        // Pairwise chance matches are ~2^-16 per candidate pair.
        assert!(attributed <= 2, "{attributed} false attributions");
    }

    #[test]
    fn sources_do_not_cross_contaminate() {
        let mut engine = FingerprintEngine::new();
        // Interleave an NMap source and a custom source: the NMap pairing
        // must only consider same-source history.
        let nmap = records_for(&NmapScanner::new(7), 200, 5);
        let custom = records_for(&CustomScanner::new(8), 201, 5);
        for i in 0..5 {
            let vn = engine.classify(&nmap[i]);
            let vc = engine.classify(&custom[i]);
            if i > 0 {
                assert_eq!(vn, PacketVerdict::Paired(ToolKind::Nmap));
            }
            assert_eq!(vc.tool(), None);
        }
    }

    #[test]
    fn expiry_resets_pairwise_state_deterministically() {
        let expiry = 1_000_000u64; // 1 s
        let n = NmapScanner::new(11);
        let mk = |i: u64, ts: u64| {
            craft_record(
                &n,
                Ipv4Address(300),
                Ipv4Address(0x0d00_0000 + (i as u32) * 701),
                (i * 13 % 50_000) as u16 + 1,
                i,
                ts,
                6,
            )
        };
        let mut engine = FingerprintEngine::with_expiry(expiry);
        assert_eq!(engine.classify(&mk(0, 0)), PacketVerdict::Unattributed);
        assert_eq!(
            engine.classify(&mk(1, 100)),
            PacketVerdict::Paired(ToolKind::Nmap)
        );
        // A gap past the expiry clears the window: the next probe has no
        // history to pair against, exactly as if the source were new.
        assert_eq!(
            engine.classify(&mk(2, 100 + expiry + 1)),
            PacketVerdict::Unattributed
        );
        // An engine without expiry still pairs across the gap.
        let mut forever = FingerprintEngine::new();
        forever.classify(&mk(0, 0));
        forever.classify(&mk(1, 100));
        assert_eq!(
            forever.classify(&mk(2, 100 + expiry + 1)),
            PacketVerdict::Paired(ToolKind::Nmap)
        );
    }

    #[test]
    fn interned_engine_matches_address_keyed_engine() {
        use crate::intern::SourceTable;
        // Mixed single-packet, pairwise, and unattributable sources, replayed
        // a second time past the expiry gap: the dense-id engine must agree
        // with the map-keyed reference verdict for verdict.
        let expiry = 2_000_000u64;
        let nmap = records_for(&NmapScanner::new(21), 400, 8);
        let zmap = records_for(&ZmapScanner::new(22), 401, 8);
        let custom = records_for(&CustomScanner::new(23), 402, 8);
        let mut stream: Vec<ProbeRecord> = Vec::new();
        for i in 0..8 {
            stream.extend([nmap[i], zmap[i], custom[i]]);
        }
        let shift = expiry * 2;
        let late: Vec<ProbeRecord> = stream
            .iter()
            .map(|r| {
                let mut r = *r;
                r.ts_micros += shift;
                r
            })
            .collect();
        stream.extend(late);

        let mut reference = FingerprintEngine::with_expiry(expiry);
        let mut fast = InternedFingerprint::with_expiry(expiry);
        let mut table = SourceTable::new();
        for rec in &stream {
            let sid = table.intern(rec.src_ip.0);
            assert_eq!(fast.classify(sid, rec), reference.classify(rec), "{rec:?}");
        }
    }

    #[test]
    fn eviction_bounds_memory() {
        let mut engine = FingerprintEngine::new();
        for src in 0..100u32 {
            let rec = craft_record(
                &CustomScanner::new(9),
                Ipv4Address(src),
                Ipv4Address(0x0c00_0001),
                80,
                0,
                u64::from(src), // distinct, increasing timestamps
                4,
            );
            engine.classify(&rec);
        }
        assert_eq!(engine.tracked_sources(), 100);
        engine.evict_idle(50);
        assert_eq!(engine.tracked_sources(), 50);
    }
}
