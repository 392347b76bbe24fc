//! The telescope's ingress filtering policy.
//!
//! §3.2: *"Due to operational policies, traffic targeting Samba (445/TCP)
//! and Telnet (23/TCP) are completely blocked at the network ingress of the
//! telescope since the advent of Mirai in 2016. This means that our dataset
//! does not contain traffic to these two ports from 2017 onwards."*

use synscan_wire::ProbeRecord;

/// The year-dependent port-blocking policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct IngressPolicy {
    /// The capture year the policy is evaluated for.
    pub year: u16,
}

impl IngressPolicy {
    /// Policy for a given capture year.
    pub(crate) fn for_year(year: u16) -> Self {
        Self { year }
    }

    /// The ports dropped at the ingress in this year.
    pub(crate) fn blocked_ports(&self) -> &'static [u16] {
        if self.year >= 2017 {
            &[23, 445]
        } else {
            &[]
        }
    }

    /// True when a record survives the ingress filter.
    pub(crate) fn admits(&self, record: &ProbeRecord) -> bool {
        !self.blocked_ports().contains(&record.dst_port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synscan_wire::{Ipv4Address, TcpFlags};

    fn record(port: u16) -> ProbeRecord {
        ProbeRecord {
            ts_micros: 0,
            src_ip: Ipv4Address(1),
            dst_ip: Ipv4Address(2),
            src_port: 1000,
            dst_port: port,
            seq: 0,
            ip_id: 0,
            ttl: 64,
            flags: TcpFlags::SYN,
            window: 1024,
        }
    }

    #[test]
    fn before_2017_everything_passes() {
        for year in [2015u16, 2016] {
            let policy = IngressPolicy::for_year(year);
            assert!(policy.blocked_ports().is_empty());
            assert!(policy.admits(&record(23)));
            assert!(policy.admits(&record(445)));
        }
    }

    #[test]
    fn from_2017_telnet_and_smb_are_dropped() {
        for year in [2017u16, 2020, 2024] {
            let policy = IngressPolicy::for_year(year);
            assert!(!policy.admits(&record(23)), "year {year}");
            assert!(!policy.admits(&record(445)), "year {year}");
            assert!(policy.admits(&record(2323)), "Mirai's alias must pass");
            assert!(policy.admits(&record(80)));
        }
    }
}
