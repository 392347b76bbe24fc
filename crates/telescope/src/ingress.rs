//! The telescope's ingress filtering policy.
//!
//! §3.2: *"Due to operational policies, traffic targeting Samba (445/TCP)
//! and Telnet (23/TCP) are completely blocked at the network ingress of the
//! telescope since the advent of Mirai in 2016. This means that our dataset
//! does not contain traffic to these two ports from 2017 onwards."*

/// The year-dependent port-blocking policy, precomputed as a fixed-width
/// compare: the capture filter asks once per offered record, without a
/// branch on the port or the year.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IngressPolicy {
    /// The blocked ports widened to `u32`; an unused slot holds
    /// [`IngressPolicy::UNUSED`], which no `u16` port widens to.
    blocked: [u32; 2],
}

impl IngressPolicy {
    /// Fills a slot when the year blocks fewer ports than there are slots.
    const UNUSED: u32 = u32::MAX;

    /// Policy for a given capture year.
    pub(crate) fn for_year(year: u16) -> Self {
        let blocked = if year >= 2017 {
            [23, 445]
        } else {
            [Self::UNUSED; 2]
        };
        Self { blocked }
    }

    /// True when the ingress drops traffic to `port` in this year.
    #[inline]
    pub(crate) fn blocks(&self, port: u16) -> bool {
        let port = u32::from(port);
        (port == self.blocked[0]) | (port == self.blocked[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn before_2017_everything_passes() {
        for year in [2015u16, 2016] {
            let policy = IngressPolicy::for_year(year);
            // Every port, so the unused-slot value can equal none of them.
            assert!(
                (0..=u16::MAX).all(|port| !policy.blocks(port)),
                "year {year}"
            );
        }
    }

    #[test]
    fn from_2017_telnet_and_smb_are_dropped() {
        for year in [2017u16, 2020, 2024] {
            let policy = IngressPolicy::for_year(year);
            let blocked: Vec<u16> = (0..=u16::MAX).filter(|&p| policy.blocks(p)).collect();
            assert_eq!(blocked, [23, 445], "year {year}");
            assert!(!policy.blocks(2323), "Mirai's alias must pass");
        }
    }
}
