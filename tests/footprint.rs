//! What a source costs to remember, and what producing a year's result
//! costs above what the process already holds. Most sources the paper counts
//! send a handful of packets and are idle for the rest of the year, so the
//! bytes a collector holds per source bound the population one process can
//! track; `finish` and `write_year` must not set a higher peak than that.
//!
//! A counting global allocator measures the live heap and its high-water
//! mark: of a sequential `YearCollector` over thousands of small sources, of
//! a bare campaign detector whose sources open and close their scans one
//! after another, of the output path, and of a frame reader told a length
//! the peer never sends. The tests take turns through one lock, so no other
//! test allocates while one counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use synscan::core::analysis::{YearAnalysis, YearCollector};
use synscan::core::campaign::{CampaignConfig, CampaignDetector};
use synscan::core::distrib::{self, DistribError, Message};
use synscan::core::envelope::EnvelopeError;
use synscan::core::store::{encode_year, AnalysisStore};
use synscan::stats::mix64;
use synscan::wire::{Ipv4Address, ProbeRecord, TcpFlags};

/// Bytes currently allocated through the global allocator. A statistic
/// that publishes no other data, hence `Relaxed`.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// The most bytes `LIVE` has held since [`reset_peak`].
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// Count `bytes` more live, raising the peak with them.
fn grow(bytes: isize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// The system allocator, counting live bytes.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no memory the
// allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size() as isize);
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
            grow(new_size as isize - layout.size() as isize);
        }
        grown
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live_bytes() -> isize {
    LIVE.load(Ordering::Relaxed)
}

/// Start a new high-water mark at the live heap, and return the live heap.
fn reset_peak() -> isize {
    let live = live_bytes();
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// How far the heap rose above `base` since [`reset_peak`].
fn peak_above(base: isize) -> isize {
    PEAK.load(Ordering::Relaxed) - base
}

/// The one lock the tests take turns through.
fn take_turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
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

/// Live heap bytes per source of a collector that has taken `records`.
fn collector_bytes_per_source(records: &[ProbeRecord]) -> isize {
    let before = live_bytes();
    let collector = collect(records);
    let held = live_bytes() - before;
    let analysis = collector.finish();
    assert_eq!(analysis.distinct_sources, u64::from(SOURCES));
    held / SOURCES as isize
}

#[test]
fn small_sources_cost_a_bounded_number_of_bytes_and_idle_ones_hold_no_scan() {
    let _turn = take_turn();
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
            detector.admit(record);
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

/// A collector that has taken `records`, sweeping idle scans the way the
/// feed loop does, once per batch.
fn collect(records: &[ProbeRecord]) -> YearCollector {
    let mut collector = YearCollector::with_period(2020, CampaignConfig::scaled(MONITORED), 1.0);
    for batch in records.chunks(1024) {
        for record in batch {
            collector.offer(record);
        }
        collector.housekeeping(batch.last().expect("non-empty batch").ts_micros);
    }
    collector
}

/// Heap bytes per source `finish` may allocate above the live collector it
/// consumes, on the one-packet stream spread over ten weeks. Dropping each
/// piece of collector state as soon as its columns exist, it never rises
/// above the collector (0 B); keeping all of it until it returned, it rose
/// 473 304 B above, 33 B per source.
const MAX_FINISH_BYTES_PER_SOURCE: isize = 16;

#[test]
fn finish_releases_collector_state_as_it_builds_the_columns() {
    let _turn = take_turn();
    // Spread over ten weeks, few scans are open at once: the detector
    // state `finish` frees first is small beside the columns it builds.
    let records: Vec<ProbeRecord> = small_sources(1)
        .into_iter()
        .map(|r| ProbeRecord {
            ts_micros: r.ts_micros * 10,
            ..r
        })
        .collect();
    let collector = collect(&records);
    let base = reset_peak();
    let analysis = collector.finish();
    let per_source = peak_above(base) / SOURCES as isize;
    assert_eq!(analysis.distinct_sources, u64::from(SOURCES));
    eprintln!(
        "finish: peak {} B above the collector, {per_source} B per source",
        peak_above(base)
    );
    assert!(
        per_source <= MAX_FINISH_BYTES_PER_SOURCE,
        "finish peaks {per_source} B per source above the collector (bound {MAX_FINISH_BYTES_PER_SOURCE})"
    );
}

/// Heap bytes `write_year` may allocate above the analysis it writes,
/// whatever the slice's size: its spill buffer and a few paths. Encoding
/// the slice in memory and sealing a copy of it, it allocated at least
/// twice the slice.
const MAX_WRITE_BYTES: isize = 256 << 10;

/// Sources in [`wide_analysis`]: a slice of about 7 MiB.
const WIDE_SOURCES: u32 = 300_000;

/// A finished analysis widened through its public columns to
/// [`WIDE_SOURCES`] sources, whose slice is several MiB.
fn wide_analysis() -> YearAnalysis {
    let mut analysis = collect(&small_sources(1)[..100]).finish();
    analysis.source_packets = (0..WIDE_SOURCES)
        .map(|i| (i * 7, u64::from(1 + i % 5)))
        .collect();
    analysis.source_port_counts = (0..WIDE_SOURCES).map(|i| (i * 7, 1 + i % 3)).collect();
    analysis.distinct_sources = u64::from(WIDE_SOURCES);
    analysis
}

#[test]
fn writing_a_slice_holds_a_buffer_not_the_slice() {
    let _turn = take_turn();
    let analysis = wide_analysis();
    let dir = std::env::temp_dir().join(format!("synscan-footprint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = AnalysisStore::open(&dir).expect("open store");

    let base = reset_peak();
    let path = store.write_year(&analysis).expect("write slice");
    let written = peak_above(base);
    let slice = std::fs::metadata(&path).expect("slice written").len();
    eprintln!("write_year of a {slice} B slice: peak {written} B above the analysis");
    assert!(slice > 4 << 20, "the slice is only {slice} B");
    assert!(
        written <= MAX_WRITE_BYTES,
        "write_year peaks {written} B above the analysis (bound {MAX_WRITE_BYTES})"
    );

    // In memory the slice is sealed where it was encoded: the peak is the
    // one buffer the bytes are returned in, never a second copy of them.
    let base = reset_peak();
    let bytes = encode_year(&analysis);
    let encoded = peak_above(base);
    assert_eq!(bytes.len() as u64, slice);
    assert!(
        encoded <= bytes.capacity() as isize + MAX_WRITE_BYTES,
        "encode_year peaks {encoded} B for {} B of slice in a {} B buffer",
        bytes.len(),
        bytes.capacity()
    );
    assert!(std::fs::read(&path).expect("read slice") == bytes);
    std::fs::remove_dir_all(&dir).expect("remove store");
}

/// Heap bytes a frame read may allocate for a payload that never arrives:
/// the reader grows its buffer as bytes come in, at most 64 KiB ahead of
/// them. Sized up front from the header, it allocated the whole 1 GiB the
/// header announced before reading a payload byte.
const MAX_LYING_FRAME_BYTES: isize = 128 << 10;

/// Offset of the payload length in a frame header: magic, version, kind.
const FRAME_LEN_AT: usize = 8 + 4 + 1;

#[test]
fn a_frame_header_alone_cannot_allocate_its_announced_length() {
    let _turn = take_turn();
    let mut frame = Vec::new();
    distrib::send(&mut frame, &Message::Shutdown).expect("write to Vec");
    // A header announcing 1 GiB (the cap), followed by 10 bytes and EOF.
    frame[FRAME_LEN_AT..FRAME_LEN_AT + 8].copy_from_slice(&(1u64 << 30).to_le_bytes());
    frame.extend_from_slice(&[0xa5; 10]);

    let base = reset_peak();
    let result = distrib::recv(&mut frame.as_slice());
    let peak = peak_above(base);
    eprintln!("a torn 1 GiB frame: peak {peak} B");
    assert_eq!(
        result,
        Err(DistribError::Envelope(EnvelopeError::Truncated))
    );
    assert!(
        peak <= MAX_LYING_FRAME_BYTES,
        "reading 10 bytes of a frame peaked at {peak} B (bound {MAX_LYING_FRAME_BYTES})"
    );

    // A real payload of several 64 KiB steps still arrives whole.
    let hello = Message::Hello {
        proto: distrib::PROTO_VERSION,
        worker: "w".repeat(300_000),
    };
    let mut frame = Vec::new();
    distrib::send(&mut frame, &hello).expect("write to Vec");
    assert_eq!(distrib::recv(&mut frame.as_slice()), Ok(Some(hello)));
}
