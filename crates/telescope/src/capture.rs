//! The capture session: what the telescope records and forwards to analysis.
//!
//! Applies, in order of precedence: outage windows, destination membership
//! (only dark addresses are routed here), the ingress port policy (§3.2),
//! and the SYN-only scan filter that separates scanning from backscatter.
//! Everything dropped is counted, so studies can report filter efficacy.
//! Raw admitted frames can be exported to pcap for interoperability.

use std::io::Write;

/// The incremental pcap import, re-exported where it has always been named:
/// the stream itself now lives with the window it reads through.
pub use synscan_wire::ingest::PcapStream;
use synscan_wire::{pcap, ProbeRecord, SynFrameBuilder, TcpFlags};

use crate::addrset::AddressSet;
use crate::ingress::IngressPolicy;

/// The TCP scan techniques of §3.1. SYN scans dominate (>98% of TCP scans);
/// the "stealthy" variants of hacker folklore are classified but rare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScanTechnique {
    /// A pure SYN — the standard probe and the paper's subject.
    Syn,
    /// FIN without an established connection.
    Fin,
    /// No control bits at all.
    Null,
    /// FIN|PSH|URG — "all candles lit".
    Xmas,
    /// A bare ACK to a packet never sent.
    Ack,
    /// Not a scan probe: SYN/ACK or RST replies — attack backscatter.
    Backscatter,
    /// Anything else (odd flag combinations).
    Other,
}

/// Classify a TCP frame's flags into the §3.1 taxonomy.
pub const fn classify_technique(flags: TcpFlags) -> ScanTechnique {
    if flags.is_pure_syn() {
        ScanTechnique::Syn
    } else if flags.contains(TcpFlags::SYN_ACK) || flags.contains(TcpFlags::RST) {
        ScanTechnique::Backscatter
    } else if flags.0 == TcpFlags::NULL.0 {
        ScanTechnique::Null
    } else if flags.0 == TcpFlags::XMAS.0 {
        ScanTechnique::Xmas
    } else if flags.0 == TcpFlags::FIN.0 {
        ScanTechnique::Fin
    } else if flags.0 == TcpFlags::ACK.0 {
        ScanTechnique::Ack
    } else {
        ScanTechnique::Other
    }
}

/// Where the capture filter files a non-lost record: the index of its
/// counter in [`CaptureSession`]'s per-reason array, which `stats` and
/// `restore_stats` read and write in this declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reason {
    Admitted,
    NotDark,
    IngressBlocked,
    Backscatter,
    OtherTechnique,
}

/// The technique filter as a lookup: what each of the 256 flag bytes files
/// to, evaluated once, at compile time, from [`classify_technique`].
static BY_FLAGS: [Reason; 256] = {
    let mut table = [Reason::OtherTechnique; 256];
    let mut flags = 0;
    while flags < 256 {
        table[flags] = match classify_technique(TcpFlags(flags as u8)) {
            ScanTechnique::Syn => Reason::Admitted,
            ScanTechnique::Backscatter => Reason::Backscatter,
            _ => Reason::OtherTechnique,
        };
        flags += 1;
    }
    table
};

/// Counters describing one capture run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaptureStats {
    /// Frames offered to the session.
    pub offered: u64,
    /// Dropped: destination not in the dark set.
    pub not_dark: u64,
    /// Dropped: arrived during a telescope outage window.
    pub outage_lost: u64,
    /// Dropped: ingress port policy (23/445 from 2017).
    pub ingress_blocked: u64,
    /// Dropped: SYN/ACK or RST replies — attack backscatter.
    pub backscatter: u64,
    /// Dropped: non-SYN scan techniques (FIN/NULL/XMAS/ACK probes) — real
    /// scans, but outside the paper's SYN-scan scope (<2% of TCP scans).
    pub other_scan_techniques: u64,
    /// Admitted scan probes.
    pub admitted: u64,
}

/// A streaming capture session.
#[derive(Debug)]
pub struct CaptureSession<'a> {
    set: &'a AddressSet,
    policy: IngressPolicy,
    offered: u64,
    outage_lost: u64,
    /// One counter per [`Reason`], indexed by it.
    counts: [u64; 5],
    outages: Vec<(u64, u64)>,
}

impl<'a> CaptureSession<'a> {
    /// New session over the given dark set and capture year.
    pub fn new(set: &'a AddressSet, year: u16) -> Self {
        Self {
            set,
            policy: IngressPolicy::for_year(year),
            offered: 0,
            outage_lost: 0,
            counts: [0; 5],
            outages: Vec::new(),
        }
    }

    /// New session with outage windows (µs, relative to capture start)
    /// during which frames are lost — §3.2's telescope outages.
    pub fn with_outages(set: &'a AddressSet, year: u16, outages: Vec<(u64, u64)>) -> Self {
        Self {
            outages,
            ..Self::new(set, year)
        }
    }

    /// Offer one record; returns `true` when it is admitted as a scan probe.
    ///
    /// Past the outage check, which only a session with outage windows
    /// makes, the reason is chosen by lookups and selects rather than early
    /// returns, so no branch follows the traffic mix. Precedence: outage,
    /// not dark, ingress-blocked, then the flags' technique.
    #[inline]
    pub fn offer(&mut self, record: &ProbeRecord) -> bool {
        self.offered += 1;
        let ts = record.ts_micros;
        if !self.outages.is_empty() && self.outages.iter().any(|&(s, e)| ts >= s && ts < e) {
            self.outage_lost += 1;
            return false;
        }
        let technique = BY_FLAGS[usize::from(record.flags.0)];
        let ingress = if self.policy.blocks(record.dst_port) {
            Reason::IngressBlocked
        } else {
            technique
        };
        let reason = if self.set.contains(record.dst_ip) {
            ingress
        } else {
            Reason::NotDark
        };
        self.counts[reason as usize] += 1;
        reason == Reason::Admitted
    }

    /// The running counters.
    pub fn stats(&self) -> CaptureStats {
        let [admitted, not_dark, ingress_blocked, backscatter, other_scan_techniques] = self.counts;
        CaptureStats {
            offered: self.offered,
            not_dark,
            outage_lost: self.outage_lost,
            ingress_blocked,
            backscatter,
            other_scan_techniques,
            admitted,
        }
    }

    /// Replace the running counters wholesale.
    ///
    /// Used by checkpoint resume: the session's counters are part of a run's
    /// observable output, so a resumed run restores them from the snapshot
    /// instead of recounting the already-processed prefix.
    pub fn restore_stats(&mut self, stats: CaptureStats) {
        self.offered = stats.offered;
        self.outage_lost = stats.outage_lost;
        self.counts = [
            stats.admitted,
            stats.not_dark,
            stats.ingress_blocked,
            stats.backscatter,
            stats.other_scan_techniques,
        ];
    }
}

/// Write records to a classic pcap stream as full Ethernet frames; read them
/// back with [`synscan_wire::IngestQueues::over`].
pub fn export_pcap<W: Write>(records: &[ProbeRecord], writer: W) -> std::io::Result<W> {
    let mut pcap_writer = pcap::PcapWriter::new(writer, pcap::LINKTYPE_ETHERNET)?;
    let builder = SynFrameBuilder::default();
    let mut buf = vec![0u8; ProbeRecord::frame_len()];
    for record in records {
        builder.build_into(record, &mut buf);
        pcap_writer.write_record(record.ts_micros, &buf)?;
    }
    pcap_writer.into_inner()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TelescopeConfig;
    use synscan_wire::stream::{FaultCounters, FaultPolicy, RecordStream, StreamError};
    use synscan_wire::{IngestQueues, Ipv4Address, TcpFlags};

    /// Read a whole capture back on one queue under `policy`.
    fn import(
        bytes: Vec<u8>,
        policy: FaultPolicy,
    ) -> Result<(Vec<ProbeRecord>, FaultCounters), StreamError> {
        IngestQueues::over(std::io::Cursor::new(bytes), 1, policy)?
            .spawn()
            .into_records()
    }

    fn set() -> AddressSet {
        AddressSet::build(&TelescopeConfig::paper_scaled(128))
    }

    fn record(dst: Ipv4Address, port: u16, flags: TcpFlags) -> ProbeRecord {
        ProbeRecord {
            ts_micros: 1,
            src_ip: Ipv4Address::new(203, 0, 113, 1),
            dst_ip: dst,
            src_port: 55_555,
            dst_port: port,
            seq: 42,
            ip_id: 54_321,
            ttl: 55,
            flags,
            window: 1024,
        }
    }

    /// The capture filter as an early-return chain, each drop reason
    /// tested in turn — the reference the table-driven
    /// [`CaptureSession::offer`] must agree with. Membership reads the
    /// sorted address vector, not the bitmaps.
    struct Chain<'a> {
        set: &'a AddressSet,
        year: u16,
        outages: Vec<(u64, u64)>,
        stats: CaptureStats,
    }

    impl Chain<'_> {
        fn offer(&mut self, record: &ProbeRecord) -> bool {
            self.stats.offered += 1;
            if self
                .outages
                .iter()
                .any(|&(s, e)| record.ts_micros >= s && record.ts_micros < e)
            {
                self.stats.outage_lost += 1;
                return false;
            }
            if self.set.addresses().binary_search(&record.dst_ip).is_err() {
                self.stats.not_dark += 1;
                return false;
            }
            if self.year >= 2017 && [23, 445].contains(&record.dst_port) {
                self.stats.ingress_blocked += 1;
                return false;
            }
            match classify_technique(record.flags) {
                ScanTechnique::Syn => {}
                ScanTechnique::Backscatter => {
                    self.stats.backscatter += 1;
                    return false;
                }
                _ => {
                    self.stats.other_scan_techniques += 1;
                    return false;
                }
            }
            self.stats.admitted += 1;
            true
        }
    }

    #[test]
    fn offer_agrees_with_the_early_return_chain_on_every_input() {
        let paper = TelescopeConfig::paper_scaled(128);
        let mut twice = paper.clone();
        twice.blocks[2] = twice.blocks[0];
        let outage = (1_000, 2_000);
        for cfg in [paper, twice] {
            let set = AddressSet::build(&cfg);
            // Per listed block, a dark and a populated address; then one
            // outside the telescope.
            let mut dsts = Vec::new();
            for &block in &cfg.blocks {
                let base = u32::from(block) << 16;
                let mut block_addrs = (base..base + 65_536).map(Ipv4Address);
                let listed = |a: &Ipv4Address| set.addresses().binary_search(a).is_ok();
                dsts.push(block_addrs.clone().find(listed).unwrap());
                dsts.push(block_addrs.find(|a| !listed(a)).unwrap());
            }
            dsts.push(Ipv4Address::new(8, 8, 8, 8));
            for year in [2016, 2017, 2024] {
                for outages in [vec![], vec![outage]] {
                    let mut records = Vec::new();
                    for flags in 0..=u8::MAX {
                        for &dst in &dsts {
                            for port in [0, 22, 23, 445, 2323, 65_535] {
                                for ts in [outage.0 - 1, (outage.0 + outage.1) / 2, outage.1] {
                                    let mut r = record(dst, port, TcpFlags(flags));
                                    r.ts_micros = ts;
                                    records.push(r);
                                }
                            }
                        }
                    }
                    let mut chain = Chain {
                        set: &set,
                        year,
                        outages: outages.clone(),
                        stats: CaptureStats::default(),
                    };
                    let mut session = CaptureSession::with_outages(&set, year, outages.clone());
                    let (head, tail) = records.split_at(records.len() / 2);
                    for r in head {
                        assert_eq!(session.offer(r), chain.offer(r), "{year} {r:?}");
                        assert_eq!(session.stats(), chain.stats, "{year} {r:?}");
                    }
                    // A resumed session picks the counters up mid-stream.
                    let mut session = CaptureSession::with_outages(&set, year, outages);
                    session.restore_stats(chain.stats);
                    assert_eq!(session.stats(), chain.stats);
                    for r in tail {
                        assert_eq!(session.offer(r), chain.offer(r), "{year} {r:?}");
                        assert_eq!(session.stats(), chain.stats, "{year} {r:?}");
                    }
                    let stats = session.stats();
                    assert!(stats.admitted > 0 && stats.not_dark > 0 && stats.backscatter > 0);
                    assert!(stats.other_scan_techniques > 0);
                    assert_eq!(stats.ingress_blocked > 0, year >= 2017, "{year}");
                }
            }
            // The "no blocked port" value must equal no real port.
            let mut session = CaptureSession::new(&set, 2016);
            for port in [0, 23, 445, 65_535] {
                assert!(
                    session.offer(&record(dsts[0], port, TcpFlags::SYN)),
                    "{port}"
                );
            }
        }
    }

    #[test]
    fn filters_apply_in_order() {
        let set = set();
        let dark = set.addresses()[0];
        let mut session = CaptureSession::new(&set, 2020);

        assert!(session.offer(&record(dark, 80, TcpFlags::SYN)));
        assert!(!session.offer(&record(Ipv4Address::new(8, 8, 8, 8), 80, TcpFlags::SYN)));
        assert!(!session.offer(&record(dark, 23, TcpFlags::SYN)));
        assert!(!session.offer(&record(dark, 445, TcpFlags::SYN)));
        assert!(!session.offer(&record(dark, 80, TcpFlags::SYN_ACK)));
        assert!(!session.offer(&record(dark, 80, TcpFlags::RST)));

        let stats = session.stats();
        assert_eq!(stats.offered, 6);
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.not_dark, 1);
        assert_eq!(stats.ingress_blocked, 2);
        assert_eq!(stats.backscatter, 2);
        assert_eq!(stats.other_scan_techniques, 0);
    }

    #[test]
    fn stealth_scan_techniques_are_classified_not_lumped_with_backscatter() {
        let set = set();
        let dark = set.addresses()[2];
        let mut session = CaptureSession::new(&set, 2020);
        assert!(!session.offer(&record(dark, 80, TcpFlags::FIN)));
        assert!(!session.offer(&record(dark, 80, TcpFlags::NULL)));
        assert!(!session.offer(&record(dark, 80, TcpFlags::XMAS)));
        assert!(!session.offer(&record(dark, 80, TcpFlags::ACK)));
        assert!(!session.offer(&record(dark, 80, TcpFlags::SYN_ACK)));
        let stats = session.stats();
        assert_eq!(stats.other_scan_techniques, 4);
        assert_eq!(stats.backscatter, 1);
        assert_eq!(stats.admitted, 0);
    }

    #[test]
    fn restored_stats_continue_counting_where_they_left_off() {
        let set = set();
        let dark = set.addresses()[0];
        let mut first = CaptureSession::new(&set, 2020);
        assert!(first.offer(&record(dark, 80, TcpFlags::SYN)));
        assert!(!first.offer(&record(dark, 80, TcpFlags::SYN_ACK)));
        let snapshot = first.stats();

        // A fresh session restored from the snapshot counts as if it had
        // processed the prefix itself.
        let mut resumed = CaptureSession::new(&set, 2020);
        resumed.restore_stats(snapshot);
        assert!(resumed.offer(&record(dark, 80, TcpFlags::SYN)));
        assert!(!resumed.offer(&record(dark, 80, TcpFlags::SYN_ACK)));

        let mut uninterrupted = CaptureSession::new(&set, 2020);
        for _ in 0..2 {
            uninterrupted.offer(&record(dark, 80, TcpFlags::SYN));
            uninterrupted.offer(&record(dark, 80, TcpFlags::SYN_ACK));
        }
        assert_eq!(resumed.stats(), uninterrupted.stats());
    }

    #[test]
    fn outage_windows_lose_frames() {
        let set = set();
        let dark = set.addresses()[0];
        let mut session = CaptureSession::with_outages(&set, 2020, vec![(1_000_000, 2_000_000)]);
        let mut r = record(dark, 80, TcpFlags::SYN);
        r.ts_micros = 500_000;
        assert!(session.offer(&r));
        r.ts_micros = 1_500_000;
        assert!(!session.offer(&r));
        r.ts_micros = 2_000_000;
        assert!(session.offer(&r));
        assert_eq!(session.stats().outage_lost, 1);
        assert_eq!(session.stats().admitted, 2);
    }

    #[test]
    fn technique_taxonomy() {
        assert_eq!(classify_technique(TcpFlags::SYN), ScanTechnique::Syn);
        assert_eq!(
            classify_technique(TcpFlags::SYN | TcpFlags::PSH),
            ScanTechnique::Syn
        );
        assert_eq!(
            classify_technique(TcpFlags::SYN_ACK),
            ScanTechnique::Backscatter
        );
        assert_eq!(
            classify_technique(TcpFlags::RST),
            ScanTechnique::Backscatter
        );
        assert_eq!(
            classify_technique(TcpFlags::RST | TcpFlags::ACK),
            ScanTechnique::Backscatter
        );
        assert_eq!(classify_technique(TcpFlags::FIN), ScanTechnique::Fin);
        assert_eq!(classify_technique(TcpFlags::NULL), ScanTechnique::Null);
        assert_eq!(classify_technique(TcpFlags::XMAS), ScanTechnique::Xmas);
        assert_eq!(classify_technique(TcpFlags::ACK), ScanTechnique::Ack);
        assert_eq!(
            classify_technique(TcpFlags::FIN | TcpFlags::ACK),
            ScanTechnique::Other
        );
    }

    #[test]
    fn year_2016_admits_telnet() {
        let set = set();
        let dark = set.addresses()[0];
        let mut session = CaptureSession::new(&set, 2016);
        assert!(session.offer(&record(dark, 23, TcpFlags::SYN)));
        assert!(session.offer(&record(dark, 445, TcpFlags::SYN)));
    }

    #[test]
    fn pcap_stream_matches_materialized_import() {
        let set = set();
        let records: Vec<ProbeRecord> = set
            .addresses()
            .iter()
            .cycle()
            .take(300)
            .enumerate()
            .map(|(i, &dst)| ProbeRecord {
                ts_micros: 1_000 + i as u64,
                dst_ip: dst,
                ..record(dst, 443, TcpFlags::SYN)
            })
            .collect();
        let bytes = export_pcap(&records, Vec::new()).unwrap();
        let materialized = import(bytes.clone(), FaultPolicy::Fail).unwrap().0;

        let mut stream = PcapStream::new(std::io::Cursor::new(bytes)).unwrap();
        let mut streamed = Vec::new();
        while let Some(batch) = stream.next_batch() {
            streamed.extend_from_slice(batch);
        }
        assert_eq!(streamed, materialized);
        assert_eq!(streamed, records);
        assert_eq!(stream.error(), None);
        assert_eq!(stream.non_tcp_frames(), 0);
        assert_eq!(stream.order_violations(), 0);
        assert!(stream.next_batch().is_none(), "exhaustion is terminal");
    }

    #[test]
    fn pcap_stream_counts_order_violations() {
        let set = set();
        let dark = set.addresses()[0];
        let records = vec![
            ProbeRecord {
                ts_micros: 2_000,
                ..record(dark, 443, TcpFlags::SYN)
            },
            ProbeRecord {
                ts_micros: 1_000,
                ..record(dark, 443, TcpFlags::SYN)
            },
        ];
        let bytes = export_pcap(&records, Vec::new()).unwrap();
        let mut stream = PcapStream::new(std::io::Cursor::new(bytes)).unwrap();
        while stream.next_batch().is_some() {}
        assert_eq!(stream.order_violations(), 1);
    }

    #[test]
    fn pcap_stream_reports_truncation_as_an_error() {
        let set = set();
        let dark = set.addresses()[0];
        let records = vec![record(dark, 443, TcpFlags::SYN); 4];
        let mut bytes = export_pcap(&records, Vec::new()).unwrap();
        bytes.truncate(bytes.len() - 7); // cut into the last frame
        let mut stream = PcapStream::new(std::io::Cursor::new(bytes.clone())).unwrap();
        while stream.next_batch().is_some() {}
        assert!(stream.error().is_some());
        assert!(import(bytes, FaultPolicy::Fail).is_err());
    }

    #[test]
    fn skip_policy_survives_a_torn_tail_with_counters() {
        let set = set();
        let dark = set.addresses()[0];
        let records: Vec<ProbeRecord> = (0..6u64)
            .map(|i| ProbeRecord {
                ts_micros: 1_000 + i,
                ..record(dark, 443, TcpFlags::SYN)
            })
            .collect();
        let mut bytes = export_pcap(&records, Vec::new()).unwrap();
        bytes.truncate(bytes.len() - 7); // tear into the last frame

        // Strict policy: fatal.
        assert!(import(bytes.clone(), FaultPolicy::Fail).is_err());

        // Skip policy: the readable prefix survives, the tear is counted.
        let (parsed, faults) = import(bytes.clone(), FaultPolicy::SkipRecord).unwrap();
        assert_eq!(parsed, records[..5].to_vec());
        assert_eq!(faults.streams_truncated, 1);
        assert_eq!(faults.records_skipped, 0);

        // Stop-clean behaves the same for an unrecoverable fault.
        let (parsed, faults) = import(bytes, FaultPolicy::StopClean).unwrap();
        assert_eq!(parsed.len(), 5);
        assert_eq!(faults.streams_truncated, 1);
    }

    #[test]
    fn skip_policy_drops_recoverable_records_and_continues() {
        let set = set();
        let dark = set.addresses()[0];
        let records: Vec<ProbeRecord> = (0..2u64)
            .map(|i| ProbeRecord {
                ts_micros: 1_000 + i,
                ..record(dark, 443, TcpFlags::SYN)
            })
            .collect();
        let bytes = export_pcap(&records, Vec::new()).unwrap();
        // Splice a bogus zero-wire-length record between the two real ones.
        let first_record_end = 24 + 16 + ProbeRecord::frame_len();
        let mut spliced = bytes[..first_record_end].to_vec();
        spliced.extend_from_slice(&1u32.to_le_bytes()); // ts_sec
        spliced.extend_from_slice(&0u32.to_le_bytes()); // ts_usec
        spliced.extend_from_slice(&4u32.to_le_bytes()); // incl_len
        spliced.extend_from_slice(&0u32.to_le_bytes()); // orig_len = 0: bogus
        spliced.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        spliced.extend_from_slice(&bytes[first_record_end..]);

        assert!(import(spliced.clone(), FaultPolicy::Fail).is_err());

        let (parsed, faults) = import(spliced, FaultPolicy::SkipRecord).unwrap();
        assert_eq!(parsed, records, "both real records survive the skip");
        assert_eq!(faults.records_skipped, 1);
        assert_eq!(faults.bytes_dropped, 4);
        assert_eq!(faults.streams_truncated, 0);
    }

    #[test]
    fn pcap_export_import_round_trip() {
        let set = set();
        let records: Vec<ProbeRecord> = set
            .addresses()
            .iter()
            .take(10)
            .enumerate()
            .map(|(i, &dst)| ProbeRecord {
                ts_micros: 1_000 + i as u64,
                dst_ip: dst,
                ..record(dst, 443, TcpFlags::SYN)
            })
            .collect();
        let bytes = export_pcap(&records, Vec::new()).unwrap();
        let parsed = import(bytes, FaultPolicy::Fail).unwrap().0;
        assert_eq!(parsed, records);
    }
}
