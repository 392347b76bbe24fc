//! Pairwise fingerprint relations (NMap, Unicornscan) over a short probe
//! history.
//!
//! Both relations compare two probes of one source:
//!
//! * **NMap**: `(seq₁⊕seq₂) & 0xFFFF == (seq₁⊕seq₂) >> 16` — the keystream
//!   reuse of the session secret makes the XOR of two sequence numbers a
//!   16-bit value repeated into both halves.
//! * **Unicornscan**: `seq₁⊕seq₂ == dstIP₁⊕dstIP₂ ⊕ srcPort₁⊕srcPort₂ ⊕
//!   ((dstPort₁⊕dstPort₂) << 16)`.
//!
//! A single chance match (probability 2⁻¹⁶ per candidate pair) would produce
//! too many false attributions over billions of packets, so a relation only
//! fires after **two independent pair matches** within the history window —
//! squaring the false-positive rate — unless the probes' XOR is non-trivial.

use synscan_wire::ProbeRecord;

use synscan_scanners::nmap::nmap_pair_relation;
use synscan_scanners::traits::ToolKind;
use synscan_scanners::unicorn::unicorn_pair_relation;

use crate::checkpoint::{CheckpointError, SnapReader, SnapWriter};

/// Number of recent probes kept per source.
const WINDOW: usize = 8;

/// Minimal stored view of a probe for pairwise testing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StoredProbe {
    seq: u32,
    dst_ip: u32,
    src_port: u16,
    dst_port: u16,
}

impl From<&ProbeRecord> for StoredProbe {
    fn from(r: &ProbeRecord) -> Self {
        Self {
            seq: r.seq,
            dst_ip: r.dst_ip.0,
            src_port: r.src_port,
            dst_port: r.dst_port,
        }
    }
}

/// Sliding pairwise state: the last eight probes of one source and a
/// sticky attribution. It keeps no clock; whoever owns it decides when the
/// history has gone stale (the open scan it lives in, or a reference
/// engine's per-source stamp).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(crate) struct PairwiseState {
    window: Vec<StoredProbe>,
    /// Sticky attribution: once a source has produced two confirming pairs,
    /// subsequent probes inherit the label without re-testing.
    confirmed: Option<ToolKind>,
}

impl PairwiseState {
    /// Test a new probe against the stored window.
    pub(crate) fn test(&mut self, record: &ProbeRecord) -> Option<ToolKind> {
        if let Some(tool) = self.confirmed {
            return Some(tool);
        }
        let new: StoredProbe = record.into();
        let mut nmap_matches = 0usize;
        let mut unicorn_matches = 0usize;
        for old in &self.window {
            // Identical sequence numbers satisfy both relations trivially
            // (x = 0); retransmissions must not count as evidence.
            if old.seq == new.seq {
                continue;
            }
            if nmap_pair_relation(old.seq, new.seq) {
                nmap_matches += 1;
            }
            if unicorn_pair_relation(
                old.seq,
                synscan_wire::Ipv4Address(old.dst_ip),
                old.src_port,
                old.dst_port,
                new.seq,
                synscan_wire::Ipv4Address(new.dst_ip),
                new.src_port,
                new.dst_port,
            ) {
                unicorn_matches += 1;
            }
        }
        // Unicorn's relation implies specific structure across four fields;
        // one match against a window entry is already strong. NMap's is a
        // bare 16-bit coincidence; demand it holds against the entire
        // non-trivial window (it always does for genuine NMap traffic since
        // every pair of session packets satisfies it).
        let candidates = self.window.iter().filter(|o| o.seq != new.seq).count();
        if unicorn_matches >= 1 && unicorn_matches == candidates && candidates >= 1 {
            if candidates >= 2 {
                self.confirmed = Some(ToolKind::Unicorn);
            }
            return Some(ToolKind::Unicorn);
        }
        if nmap_matches >= 1 && nmap_matches == candidates && candidates >= 1 {
            if candidates >= 2 {
                self.confirmed = Some(ToolKind::Nmap);
            }
            return Some(ToolKind::Nmap);
        }
        None
    }

    /// Forget the window and any sticky attribution, as if the source were
    /// new; the probe vector keeps its capacity.
    pub(crate) fn reset(&mut self) {
        self.window.clear();
        self.confirmed = None;
    }

    /// Record a probe into the window.
    pub(crate) fn push(&mut self, record: &ProbeRecord) {
        if self.window.len() == WINDOW {
            self.window.remove(0);
        }
        self.window.push(record.into());
    }

    /// Serialize the window and sticky attribution for a pipeline
    /// checkpoint.
    pub(crate) fn snapshot_to(&self, w: &mut SnapWriter) {
        w.put_u8(self.window.len() as u8);
        for probe in &self.window {
            w.put_u32(probe.seq);
            w.put_u32(probe.dst_ip);
            w.put_u16(probe.src_port);
            w.put_u16(probe.dst_port);
        }
        match self.confirmed {
            Some(tool) => {
                w.put_u8(1);
                w.put_tool(tool);
            }
            None => w.put_u8(0),
        }
    }

    /// Rebuild state written by [`PairwiseState::snapshot_to`].
    pub(crate) fn restore_from(r: &mut SnapReader<'_>) -> Result<Self, CheckpointError> {
        let len = usize::from(r.take_u8()?);
        if len > WINDOW {
            return Err(CheckpointError::Corrupt(format!(
                "pairwise window of {len} probes"
            )));
        }
        let mut window = Vec::with_capacity(len);
        for _ in 0..len {
            window.push(StoredProbe {
                seq: r.take_u32()?,
                dst_ip: r.take_u32()?,
                src_port: r.take_u16()?,
                dst_port: r.take_u16()?,
            });
        }
        let confirmed = match r.take_u8()? {
            0 => None,
            1 => Some(r.take_tool()?),
            t => return Err(CheckpointError::Corrupt(format!("confirmed tag {t}"))),
        };
        Ok(Self { window, confirmed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synscan_scanners::nmap::NmapScanner;
    use synscan_scanners::traits::{craft_record, ProbeCrafter};
    use synscan_scanners::unicorn::UnicornScanner;
    use synscan_wire::Ipv4Address;

    fn probe<C: ProbeCrafter>(c: &C, i: u64) -> ProbeRecord {
        craft_record(
            c,
            Ipv4Address(9),
            Ipv4Address(0x1000_0000 + (i as u32) * 331),
            (i * 7 % 50_000) as u16 + 1,
            i,
            i * 100,
            5,
        )
    }

    #[test]
    fn nmap_confirms_and_sticks() {
        let n = NmapScanner::new(1);
        let mut state = PairwiseState::default();
        let p0 = probe(&n, 0);
        assert_eq!(state.test(&p0), None);
        state.push(&p0);
        let p1 = probe(&n, 1);
        assert_eq!(state.test(&p1), Some(ToolKind::Nmap));
        state.push(&p1);
        let p2 = probe(&n, 2);
        assert_eq!(state.test(&p2), Some(ToolKind::Nmap));
        state.push(&p2);
        assert_eq!(state.confirmed, Some(ToolKind::Nmap));
    }

    #[test]
    fn unicorn_detected() {
        let u = UnicornScanner::new(2);
        let mut state = PairwiseState::default();
        let p0 = probe(&u, 0);
        state.test(&p0);
        state.push(&p0);
        let p1 = probe(&u, 1);
        assert_eq!(state.test(&p1), Some(ToolKind::Unicorn));
    }

    #[test]
    fn retransmissions_are_not_evidence() {
        // Two identical probes (same seq) trivially XOR to zero; the state
        // must not attribute them.
        let u = UnicornScanner::new(3);
        let p = probe(&u, 0);
        let mut state = PairwiseState::default();
        state.push(&p);
        let mut retrans = p;
        retrans.ts_micros += 1000;
        assert_eq!(state.test(&retrans), None);
    }

    #[test]
    fn mixed_window_blocks_false_nmap() {
        // A window containing non-NMap traffic: an accidental single match
        // must not attribute, because the match count won't cover the
        // whole window.
        let mut state = PairwiseState::default();
        let mk = |seq: u32| ProbeRecord {
            ts_micros: 0,
            src_ip: Ipv4Address(1),
            dst_ip: Ipv4Address(500),
            src_port: 1,
            dst_port: 2,
            seq,
            ip_id: 0,
            ttl: 64,
            flags: synscan_wire::TcpFlags::SYN,
            window: 0,
        };
        // Two stored probes; the new one satisfies the relation with the
        // first (xor = 0x00050005) but not the second (xor = 0x12340000).
        state.push(&mk(0x1111_1111));
        state.push(&mk(0x2345_1111));
        let candidate = mk(0x1114_1114);
        assert_eq!(state.test(&candidate), None);
    }

    fn round_trip(state: &PairwiseState) -> PairwiseState {
        let mut w = SnapWriter::new();
        state.snapshot_to(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = PairwiseState::restore_from(&mut r).unwrap();
        assert_eq!(r.remaining(), 0, "snapshot fully consumed");
        back
    }

    #[test]
    fn snapshot_round_trips_empty_partial_and_confirmed_states() {
        // Empty (default) state.
        let empty = PairwiseState::default();
        assert_eq!(round_trip(&empty), empty);

        // Partially filled window, no attribution yet.
        let n = NmapScanner::new(7);
        let mut partial = PairwiseState::default();
        let p = probe(&n, 0);
        partial.push(&p);
        assert_eq!(round_trip(&partial), partial);

        // Saturated window with a sticky confirmation.
        let mut confirmed = PairwiseState::default();
        for i in 0..20u64 {
            let p = probe(&n, i);
            confirmed.test(&p);
            confirmed.push(&p);
        }
        assert_eq!(confirmed.confirmed, Some(ToolKind::Nmap));
        let back = round_trip(&confirmed);
        assert_eq!(back, confirmed);
        // The restored state classifies exactly like the original.
        let next = probe(&n, 21);
        assert_eq!(
            back.clone().test(&next),
            confirmed.clone().test(&next),
            "restored state behaves identically"
        );
    }

    #[test]
    fn oversized_window_snapshot_is_rejected() {
        let mut w = SnapWriter::new();
        w.put_u8(WINDOW as u8 + 1);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            PairwiseState::restore_from(&mut r),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn window_is_bounded() {
        let n = NmapScanner::new(4);
        let mut state = PairwiseState::default();
        for i in 0..100u64 {
            let p = probe(&n, i);
            state.test(&p);
            state.push(&p);
        }
        assert_eq!(state.window.len(), WINDOW);
        assert_eq!(state.window[WINDOW - 1], StoredProbe::from(&probe(&n, 99)));
    }
}
