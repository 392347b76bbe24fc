//! Figure 1: vulnerability disclosures spark a scanning surge that the
//! Internet quickly forgets.
//!
//! For a disclosure affecting `port` on day `d₀`, the figure plots the
//! port's daily traffic relative to its pre-disclosure baseline, per day
//! after disclosure. §4.3 verifies with a KS test that the *distribution of
//! scanning over ports* returns to normal within weeks.

use synscan_stats::ks::{ks_test_freq, KsResult};

use super::collect::YearAnalysis;

/// A disclosure event to analyze.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventSpec {
    /// The affected port.
    pub port: u16,
    /// Day index (relative to the capture window start) of the disclosure.
    pub disclosure_day: u32,
}

/// The decay curve of one event.
#[derive(Debug, Clone)]
pub struct EventCurve {
    /// The event.
    pub event: EventSpec,
    /// Pre-disclosure baseline: mean packets/day on the port.
    pub baseline: f64,
    /// `relative[i]` = traffic on disclosure_day + i, as a multiple of the
    /// baseline.
    pub relative: Vec<f64>,
}

impl EventCurve {
    /// Peak surge multiple.
    pub fn peak(&self) -> f64 {
        self.relative.iter().copied().fold(0.0, f64::max)
    }

    /// First day-after-disclosure where traffic is back within
    /// `threshold` × baseline (e.g. 2.0), if it happens in the window.
    pub fn days_to_return(&self, threshold: f64) -> Option<usize> {
        // Skip day 0 (the spike itself may start late in the day).
        self.relative
            .iter()
            .enumerate()
            .skip(1)
            .find(|(_, &r)| r <= threshold)
            .map(|(i, _)| i)
    }
}

/// Compute the decay curve for one event over `days_after` days.
///
/// The baseline is the mean daily traffic on the port over all days strictly
/// before the disclosure (or 1.0 when the port was silent — matching the
/// "new port appears out of nowhere" situation of real disclosures).
pub fn event_curve(analysis: &YearAnalysis, event: EventSpec, days_after: u32) -> EventCurve {
    let daily = |day: u32| -> f64 {
        analysis
            .day_port_packets
            .get(&(day, event.port))
            .copied()
            .unwrap_or(0) as f64
    };
    let baseline = if event.disclosure_day == 0 {
        1.0
    } else {
        let sum: f64 = (0..event.disclosure_day).map(daily).sum();
        (sum / event.disclosure_day as f64).max(1.0)
    };
    let relative = (0..=days_after)
        .map(|i| daily(event.disclosure_day + i) / baseline)
        .collect();
    EventCurve {
        event,
        baseline,
        relative,
    }
}

/// §4.3's KS verification: compare the per-port traffic distribution of the
/// `window` days before the disclosure against the `window` days starting at
/// `after_start` days past it. A non-rejecting result means the ecosystem
/// has "returned to normal". Returns `None` when either window holds no
/// traffic (e.g. it falls outside the capture).
pub fn ks_return_to_normal(
    analysis: &YearAnalysis,
    event: EventSpec,
    window: u32,
    after_start: u32,
) -> Option<KsResult> {
    let collect_window = |from: i64, to: i64| -> Vec<(u32, f64)> {
        let mut freq: std::collections::BTreeMap<u16, u64> = std::collections::BTreeMap::new();
        // Sorted by (day, port): the window is one contiguous run.
        let cells = analysis.day_port_packets.as_slice();
        let start = cells.partition_point(|((day, _), _)| i64::from(*day) < from);
        for ((_, port), count) in cells[start..]
            .iter()
            .take_while(|((day, _), _)| i64::from(*day) < to)
        {
            *freq.entry(*port).or_default() += count;
        }
        freq.into_iter()
            .map(|(port, count)| (u32::from(port), count as f64))
            .collect()
    };
    let d0 = event.disclosure_day as i64;
    let before = collect_window(d0 - window as i64, d0);
    let after = collect_window(d0 + after_start as i64, d0 + (after_start + window) as i64);
    if before.is_empty() || after.is_empty() {
        return None;
    }
    // Effective n: number of ports involved — the distribution is over the
    // port dimension, not raw packets (packet counts are aggregates of the
    // same daily process, not independent draws).
    let n = (before.len() + after.len()).max(2) as f64;
    Some(ks_test_freq(&before, &after, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::collect::YearCollector;
    use crate::campaign::CampaignConfig;
    use synscan_wire::{Ipv4Address, ProbeRecord, TcpFlags};

    const DAY: u64 = 86_400 * 1_000_000;

    fn analysis_with_spike() -> YearAnalysis {
        let mut collector = YearCollector::new(2021, CampaignConfig::scaled(1 << 10));
        let mut emit = |day: u64, port: u16, count: u32| {
            for i in 0..count {
                collector.offer(&ProbeRecord {
                    ts_micros: day * DAY + (i as u64) * 1000,
                    src_ip: Ipv4Address(0x0a0a_0000 + i),
                    dst_ip: Ipv4Address(0x0b0b_0000 + i),
                    src_port: 1,
                    dst_port: port,
                    seq: 0,
                    ip_id: 0,
                    ttl: 64,
                    flags: TcpFlags::SYN,
                    window: 1,
                });
            }
        };
        // Steady background on 80 and 22, all days 0..30.
        for day in 0..30u64 {
            emit(day, 80, 50);
            emit(day, 22, 30);
        }
        // Port 7547 baseline 10/day, spikes 30x on day 10, decays by day 14.
        for day in 0..30u64 {
            let count = match day {
                10 => 300,
                11 => 150,
                12 => 60,
                13 => 20,
                _ => 10,
            };
            emit(day, 7547, count);
        }
        collector.finish()
    }

    #[test]
    fn curve_shows_spike_and_decay() {
        let analysis = analysis_with_spike();
        let curve = event_curve(
            &analysis,
            EventSpec {
                port: 7547,
                disclosure_day: 10,
            },
            10,
        );
        assert!((curve.baseline - 10.0).abs() < 1e-9);
        assert!((curve.peak() - 30.0).abs() < 1e-9);
        // Back within 2x baseline on day 3 after (day 13: 20 packets).
        assert_eq!(curve.days_to_return(2.0), Some(3));
        // Long after: exactly baseline.
        assert!((curve.relative[8] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ks_outside_the_capture_is_none() {
        let analysis = analysis_with_spike();
        let event = EventSpec {
            port: 7547,
            disclosure_day: 10,
        };
        // The "after" window starts past the 30-day capture: no verdict.
        assert!(ks_return_to_normal(&analysis, event, 5, 60).is_none());
    }

    #[test]
    fn silent_port_uses_unit_baseline() {
        let analysis = analysis_with_spike();
        let curve = event_curve(
            &analysis,
            EventSpec {
                port: 9999,
                disclosure_day: 5,
            },
            3,
        );
        assert_eq!(curve.baseline, 1.0);
        assert!(curve.relative.iter().all(|&r| r == 0.0));
    }

    #[test]
    fn ks_rejects_during_spike_accepts_after() {
        let analysis = analysis_with_spike();
        let event = EventSpec {
            port: 7547,
            disclosure_day: 10,
        };
        // Window straddling the spike differs from the pre-spike window...
        let during = ks_return_to_normal(&analysis, event, 2, 0).unwrap();
        // ... while two weeks later the distribution is back to normal.
        let after = ks_return_to_normal(&analysis, event, 5, 15).unwrap();
        assert!(
            during.statistic > after.statistic,
            "during {during:?} vs after {after:?}"
        );
        assert!(after.statistic < 0.05, "{after:?}");
    }
}
