//! Figure 2: weekly change of scanning activity per /16 netblock.
//!
//! For every /16 present in two consecutive weeks, the change factor is
//! `max(current, previous) / min(current, previous)` — i.e. a block that
//! doubled *or* halved scores factor 2. The paper finds the ecosystem wildly
//! volatile: in more than 50% of /16s the activity changes by a factor ≥ 2
//! week over week, and in more than a third by ≥ 3; only 20–30% of blocks
//! are stable.

use synscan_stats::Ecdf;

use super::collect::{WeekCell, YearAnalysis};
use crate::compact::SortedMap;

/// The three per-metric change-factor CDFs of Figure 2.
#[derive(Debug, Clone)]
pub struct VolatilityCdfs {
    /// Change factor of distinct sources per /16.
    pub sources: Ecdf,
    /// Change factor of campaigns launched per /16.
    pub campaigns: Ecdf,
    /// Change factor of packets per /16.
    pub packets: Ecdf,
}

impl VolatilityCdfs {
    /// Fraction of blocks whose `metric` changed by at least `factor`.
    pub fn fraction_changing_by(&self, factor: f64) -> (f64, f64, f64) {
        (
            self.sources.tail(factor - 1e-12),
            self.campaigns.tail(factor - 1e-12),
            self.packets.tail(factor - 1e-12),
        )
    }
}

/// Compute week-over-week change factors across all /16s of one year.
///
/// Blocks absent in either week of a pair are skipped (no meaningful
/// factor); blocks present with zero in one metric but not the other are
/// capped at `CAP` to keep the CDF finite.
pub fn weekly_change(analysis: &YearAnalysis) -> VolatilityCdfs {
    weekly_change_from_cells(&analysis.week_blocks)
}

const CAP: f64 = 1000.0;

/// As [`weekly_change`] but over raw cells (exposed for tests/benches).
///
/// The cells are sorted by (week, /16), so a week is one contiguous run and
/// a pair of weeks is compared by walking their two runs in step.
pub fn weekly_change_from_cells(cells: &SortedMap<(u32, u16), WeekCell>) -> VolatilityCdfs {
    let cells = cells.as_slice();
    let week_run = |week: u32| {
        let start = cells.partition_point(|((w, _), _)| *w < week);
        let len = cells[start..].partition_point(|((w, _), _)| *w == week);
        &cells[start..start + len]
    };
    let max_week = cells.last().map_or(0, |((week, _), _)| *week);
    let absent = WeekCell::default();
    let mut sources = Vec::new();
    let mut campaigns = Vec::new();
    let mut packets = Vec::new();
    for week in 0..max_week {
        // Every block present in either week of the pair, ascending.
        let (mut prev_run, mut cur_run) = (week_run(week), week_run(week + 1));
        loop {
            let order = match (prev_run.first(), cur_run.first()) {
                (None, None) => break,
                (Some(_), None) => std::cmp::Ordering::Less,
                (None, Some(_)) => std::cmp::Ordering::Greater,
                (Some(((_, prev), _)), Some(((_, cur), _))) => prev.cmp(cur),
            };
            let prev = if order.is_le() {
                pop(&mut prev_run)
            } else {
                &absent
            };
            let cur = if order.is_ge() {
                pop(&mut cur_run)
            } else {
                &absent
            };
            sources.push(factor(prev.sources as f64, cur.sources as f64));
            campaigns.push(factor(prev.campaigns as f64, cur.campaigns as f64));
            packets.push(factor(prev.packets as f64, cur.packets as f64));
        }
    }
    VolatilityCdfs {
        sources: Ecdf::new(sources),
        campaigns: Ecdf::new(campaigns),
        packets: Ecdf::new(packets),
    }
}

/// Take the first cell off a non-empty run.
fn pop<'a>(run: &mut &'a [((u32, u16), WeekCell)]) -> &'a WeekCell {
    let (head, rest) = run
        .split_first()
        .expect("the run's block was just compared");
    *run = rest;
    &head.1
}

/// Symmetric change factor (≥ 1); transitions to/from zero cap at `CAP`.
fn factor(prev: f64, cur: f64) -> f64 {
    if prev == 0.0 && cur == 0.0 {
        1.0
    } else if prev == 0.0 || cur == 0.0 {
        CAP
    } else {
        (cur / prev).max(prev / cur).min(CAP)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(sources: u64, campaigns: u64, packets: u64) -> WeekCell {
        WeekCell {
            sources,
            campaigns,
            packets,
        }
    }

    #[test]
    fn stable_blocks_have_factor_one() {
        let cells = [((0u32, 1u16), cell(10, 2, 100)), ((1, 1), cell(10, 2, 100))];
        let v = weekly_change_from_cells(&cells.into_iter().collect());
        assert_eq!(v.packets.samples(), &[1.0]);
        assert_eq!(v.sources.samples(), &[1.0]);
        let (s, c, p) = v.fraction_changing_by(2.0);
        assert_eq!((s, c, p), (0.0, 0.0, 0.0));
    }

    #[test]
    fn doubling_and_halving_both_score_factor_two() {
        let cells = [((0u32, 1u16), cell(10, 1, 100)), ((1, 1), cell(20, 1, 50))];
        let v = weekly_change_from_cells(&cells.into_iter().collect());
        assert_eq!(v.sources.samples(), &[2.0]); // doubled
        assert_eq!(v.packets.samples(), &[2.0]); // halved
    }

    #[test]
    fn appearing_blocks_cap_the_factor() {
        let cells = [
            ((1u32, 5u16), cell(3, 1, 30)), // appears in week 1
            ((0, 6), cell(2, 1, 20)),       // disappears after week 0
            ((1, 6), cell(0, 0, 0)),
        ];
        let v = weekly_change_from_cells(&cells.into_iter().collect());
        // Block 5: 0 -> 3 sources = capped; block 6: 2 -> 0 = capped.
        assert!(v.sources.samples().iter().all(|&f| f == CAP || f == 1.0));
        let (s, _, _) = v.fraction_changing_by(2.0);
        assert!(s > 0.5);
    }

    #[test]
    fn multiple_week_pairs_accumulate() {
        let cells = (0..4u32)
            .map(|week| ((week, 9u16), cell(1 << week, 1, 10 * (week as u64 + 1))))
            .collect();
        let v = weekly_change_from_cells(&cells);
        // Three week pairs, sources double each week.
        assert_eq!(v.sources.samples(), &[2.0, 2.0, 2.0]);
        let (s, _, _) = v.fraction_changing_by(2.0);
        assert_eq!(s, 1.0);
        let (s3, _, _) = v.fraction_changing_by(3.0);
        assert_eq!(s3, 0.0);
    }
}
