//! Blocklist efficacy — the operational implication of §4.4 and §6.6.
//!
//! The paper argues that because non-institutional scanner IPs are burned
//! after a single campaign ("by the time a list is distributed a scanning
//! IP address would have already vanished for good"), collecting and
//! sharing scanner blocklists is largely ineffective. This module makes
//! that quantitative: build a blocklist from the sources seen scanning in
//! one time window, then measure how much of a *later* window's scanning it
//! would actually have blocked.

use std::collections::HashSet;
use synscan_wire::impl_to_json;

use crate::campaign::Campaign;

/// The efficacy of one (list window → evaluation window) pairing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlocklistEfficacy {
    /// Addresses on the list.
    pub list_size: u64,
    /// Fraction of the evaluation window's scanning sources on the list.
    pub sources_blocked: f64,
    /// Fraction of the evaluation window's scan packets from listed sources.
    pub packets_blocked: f64,
}
impl_to_json!(BlocklistEfficacy {
    list_size,
    sources_blocked,
    packets_blocked
});

/// Build a list from campaigns *starting* in `[list_start, list_end)` µs and
/// evaluate it against campaigns starting in `[eval_start, eval_end)`.
pub fn blocklist_efficacy(
    campaigns: &[Campaign],
    list_window: (u64, u64),
    eval_window: (u64, u64),
) -> BlocklistEfficacy {
    let list: HashSet<u32> = campaigns
        .iter()
        .filter(|c| c.first_ts_micros >= list_window.0 && c.first_ts_micros < list_window.1)
        .map(|c| c.src_ip.0)
        .collect();

    let mut eval_sources: HashSet<u32> = HashSet::new();
    let mut blocked_sources: HashSet<u32> = HashSet::new();
    let mut eval_packets = 0u64;
    let mut blocked_packets = 0u64;
    for campaign in campaigns {
        if campaign.first_ts_micros < eval_window.0 || campaign.first_ts_micros >= eval_window.1 {
            continue;
        }
        eval_sources.insert(campaign.src_ip.0);
        eval_packets += campaign.packets;
        if list.contains(&campaign.src_ip.0) {
            blocked_sources.insert(campaign.src_ip.0);
            blocked_packets += campaign.packets;
        }
    }
    BlocklistEfficacy {
        list_size: list.len() as u64,
        sources_blocked: blocked_sources.len() as f64 / eval_sources.len().max(1) as f64,
        packets_blocked: blocked_packets as f64 / eval_packets.max(1) as f64,
    }
}

/// The decay curve: a list built from period 0 evaluated against periods
/// 1..n (each `period_micros` long, starting at `t0`). Returns one
/// [`BlocklistEfficacy`] per evaluated period.
pub fn blocklist_decay(
    campaigns: &[Campaign],
    t0: u64,
    period_micros: u64,
    periods: u32,
) -> Vec<BlocklistEfficacy> {
    (1..=periods)
        .map(|p| {
            blocklist_efficacy(
                campaigns,
                (t0, t0 + period_micros),
                (
                    t0 + u64::from(p) * period_micros,
                    t0 + u64::from(p + 1) * period_micros,
                ),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use synscan_wire::Ipv4Address;

    fn campaign(src: u32, start_secs: u64, packets: u64) -> Campaign {
        Campaign {
            src_ip: Ipv4Address(src),
            first_ts_micros: start_secs * 1_000_000,
            last_ts_micros: start_secs * 1_000_000 + 1_000_000,
            packets,
            distinct_dests: packets,
            port_packets: BTreeMap::from([(80u16, packets)]),
            tool_votes: BTreeMap::new(),
        }
    }

    const DAY: u64 = 86_400;

    #[test]
    fn one_shot_scanners_defeat_the_list() {
        // Day 0: sources 1..10 scan. Day 1: entirely fresh sources 11..20.
        let mut campaigns = Vec::new();
        for s in 1..=10u32 {
            campaigns.push(campaign(s, 100 + u64::from(s), 50));
        }
        for s in 11..=20u32 {
            campaigns.push(campaign(s, DAY + 100 + u64::from(s), 50));
        }
        let eff = blocklist_efficacy(
            &campaigns,
            (0, DAY * 1_000_000),
            (DAY * 1_000_000, 2 * DAY * 1_000_000),
        );
        assert_eq!(eff.list_size, 10);
        assert_eq!(eff.sources_blocked, 0.0, "the list blocks nothing");
        assert_eq!(eff.packets_blocked, 0.0);
    }

    #[test]
    fn recurring_scanners_are_caught() {
        // The same source scans every day (an institutional pattern).
        let mut campaigns = Vec::new();
        for day in 0..3u64 {
            campaigns.push(campaign(99, day * DAY + 100, 1000));
            // Plus one fresh bot per day.
            campaigns.push(campaign(1000 + day as u32, day * DAY + 200, 10));
        }
        let decay = blocklist_decay(&campaigns, 0, DAY * 1_000_000, 2);
        for eff in &decay {
            assert!((eff.sources_blocked - 0.5).abs() < 1e-9, "{eff:?}");
            // The recurring source is also the heavy one.
            assert!(eff.packets_blocked > 0.9);
        }
    }

    #[test]
    fn efficacy_decays_with_churn() {
        // Half the day-0 population returns on day 1, a quarter on day 2.
        let mut campaigns = Vec::new();
        for s in 0..40u32 {
            campaigns.push(campaign(s, 100 + u64::from(s), 10));
        }
        for s in 0..20u32 {
            campaigns.push(campaign(s, DAY + 100 + u64::from(s), 10));
        }
        for s in 0..10u32 {
            campaigns.push(campaign(s, 2 * DAY + 100 + u64::from(s), 10));
        }
        let decay = blocklist_decay(&campaigns, 0, DAY * 1_000_000, 2);
        assert!((decay[0].sources_blocked - 1.0).abs() < 1e-9); // all returnees listed
        assert!((decay[1].sources_blocked - 1.0).abs() < 1e-9);
        // Evaluate the other direction: day-1's list against day 2.
        let reverse = blocklist_efficacy(
            &campaigns,
            (DAY * 1_000_000, 2 * DAY * 1_000_000),
            (2 * DAY * 1_000_000, 3 * DAY * 1_000_000),
        );
        assert_eq!(reverse.list_size, 20);
        assert!((reverse.sources_blocked - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_windows_are_safe() {
        let eff = blocklist_efficacy(&[], (0, 100), (100, 200));
        assert_eq!(eff.list_size, 0);
        assert_eq!(eff.sources_blocked, 0.0);
    }
}
