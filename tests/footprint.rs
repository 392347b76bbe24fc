//! What a source costs to remember. Most sources the paper counts send a
//! handful of packets and are idle for the rest of the year, so the bytes a
//! collector holds per source bound the population one process can track.
//!
//! A counting global allocator measures the live heap of a sequential
//! `YearCollector` over thousands of small sources, and of a bare campaign
//! detector whose sources open and close their scans one after another.
//! Everything runs in one test, so no other test allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use synscan::core::analysis::YearCollector;
use synscan::core::campaign::{CampaignConfig, CampaignDetector};
use synscan::stats::mix64;
use synscan::wire::{Ipv4Address, ProbeRecord, TcpFlags};

/// Bytes currently allocated through the global allocator. A statistic
/// that publishes no other data, hence `Relaxed`.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, counting live bytes.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no memory the
// allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`, and the caller's
        // guarantees for `new_size` are `System`'s.
        let grown = unsafe { System.realloc(ptr, layout, new_size) };
        if !grown.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        grown
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live_bytes() -> isize {
    LIVE.load(Ordering::Relaxed)
}

/// Sources per population: just under a power of two, so the per-source
/// vectors sit near full capacity instead of just past a doubling.
const SOURCES: u32 = 14_000;

/// A week of capture, as the benchmark's tail mix spans.
const WINDOW_MICROS: u64 = 7 * 86_400 * 1_000_000;

/// Heap bytes one source may cost a collector, all of its state included
/// (interner, detector slot, per-source columns, its (week, /16) cell, and a
/// share of the open-scan bodies, fingerprint windows included). These
/// streams measure 218 B (1 packet) and 195 B (5 packets) per source. A
/// collector that also keeps a fingerprint window for every source ever
/// seen measures 295 B and 322 B; one that further keeps an open-scan body
/// per source and a heap vector behind every small set, 499 B and 566 B.
const MAX_BYTES_PER_SOURCE: isize = 256;

/// Telescope size the detector's thresholds are scaled to.
const MONITORED: u64 = 1 << 12;

/// The stream of `SOURCES` sources sending `packets` probes each: random
/// addresses (so nearly every source has a /16 of its own), one to two
/// common ports, start times spread evenly over the window, each source's
/// burst over before the next source starts. Already in timestamp order.
fn small_sources(packets: u32) -> Vec<ProbeRecord> {
    let spacing = WINDOW_MICROS / u64::from(SOURCES);
    (0..SOURCES)
        .flat_map(|i| {
            let draw = mix64(u64::from(i) ^ (u64::from(packets) << 32));
            let ports = [23u16, 80, 443, 22, 8080, 3389, 5555];
            let first_port = (draw >> 50) as usize;
            (0..packets).map(move |k| ProbeRecord {
                ts_micros: u64::from(i) * spacing + u64::from(k) * 2_000_000,
                src_ip: Ipv4Address(draw as u32),
                dst_ip: Ipv4Address(0x0a00_0000 | ((draw >> 32) as u32).wrapping_add(k) & 0xfff),
                src_port: 40_000 + k as u16,
                dst_port: ports[(first_port + k as usize % 2) % ports.len()],
                seq: (draw >> 16) as u32 ^ k,
                ip_id: (draw >> 8) as u16,
                ttl: 50,
                flags: TcpFlags::SYN,
                window: 1024,
            })
        })
        .collect()
}

/// Live heap bytes per source of a collector that has taken `records` (and
/// swept idle scans the way the feed loop does, once per batch).
fn collector_bytes_per_source(records: &[ProbeRecord]) -> isize {
    let before = live_bytes();
    let mut collector = YearCollector::with_period(2020, CampaignConfig::scaled(MONITORED), 1.0);
    for batch in records.chunks(1024) {
        for record in batch {
            collector.offer(record);
        }
        collector.housekeeping(batch.last().expect("non-empty batch").ts_micros);
    }
    let held = live_bytes() - before;
    let analysis = collector.finish();
    assert_eq!(analysis.distinct_sources, u64::from(SOURCES));
    held / SOURCES as isize
}

#[test]
fn small_sources_cost_a_bounded_number_of_bytes_and_idle_ones_hold_no_scan() {
    for packets in [1, 5] {
        let records = small_sources(packets);
        let per_source = collector_bytes_per_source(&records);
        eprintln!("{packets}-packet sources: {per_source} B of collector heap per source");
        assert!(
            per_source <= MAX_BYTES_PER_SOURCE,
            "{packets}-packet sources cost {per_source} B each (bound {MAX_BYTES_PER_SOURCE})"
        );
    }

    // The detector alone: sources open a scan, fall silent and are swept.
    // Bodies track the peak of concurrently open scans, never the sources.
    let records = small_sources(5);
    let mut detector = CampaignDetector::new(CampaignConfig::scaled(MONITORED));
    let mut peak_open = 0;
    for batch in records.chunks(1024) {
        for record in batch {
            detector.offer(record, None);
            peak_open = peak_open.max(detector.open_scans());
        }
        detector.expire_idle(batch.last().expect("non-empty batch").ts_micros);
    }
    let bodies = detector.scan_bodies();
    eprintln!("{SOURCES} sources, peak {peak_open} open scans, {bodies} scan bodies");
    assert!(
        bodies <= peak_open,
        "{bodies} bodies for a peak of {peak_open} open scans"
    );
    assert!(
        peak_open < SOURCES as usize / 4,
        "the stream must leave most sources idle (peak {peak_open} open)"
    );
    let (campaigns, noise) = detector.finish();
    assert!(campaigns.is_empty());
    assert_eq!(noise.rejected_packets, records.len() as u64);
}
