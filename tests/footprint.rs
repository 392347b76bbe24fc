//! What a source costs to remember, and what producing a year's result
//! costs above what the process already holds. Most sources the paper counts
//! send a handful of packets and are idle for the rest of the year, so the
//! bytes a collector holds per source bound the population one process can
//! track; `finish` and `write_year` must not set a higher peak than that.
//!
//! A counting global allocator measures the live heap and its high-water
//! mark: of a sequential `YearCollector` over thousands of small sources and
//! of the volatility periods it has closed, of a bare campaign detector
//! whose sources open and close their scans one after another, of the
//! output path, of a frame reader told a length the peer never sends, of
//! decoding a store slice, a checkpoint or its collector blob whose counts
//! lie, of parsing a hostile request line, of reading a capture whose record
//! lengths lie, and of analyzing a capture end to end. The tests take turns
//! through one lock, so no other test allocates while one counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hash::Hasher as _;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use synscan::analyze::{analyze, AnalyzeError, AnalyzeOptions, CaptureInput};

use synscan::core::analysis::{YearAnalysis, YearCollector};
use synscan::core::campaign::{CampaignConfig, CampaignDetector};
use synscan::core::checkpoint::{CheckpointError, CheckpointHeader};
use synscan::core::distrib::{self, DistribError, Message};
use synscan::core::envelope::EnvelopeError;
use synscan::core::pipeline::{try_collect_year_stream, PipelineMode, SizeHints};
use synscan::core::sketch::HeavyHitterConfig;
use synscan::core::store::query::parse_request;
use synscan::core::store::{decode_year, encode_year, AnalysisStore};
use synscan::core::Checkpoint;
use synscan::core::FxHasher;
use synscan::stats::mix64;
use synscan::wire::ingest::{IngestQueues, MappedCapture, PcapStream};
use synscan::wire::net::MAX_REQUEST_BYTES;
use synscan::wire::pcap::{PcapWriter, LINKTYPE_ETHERNET};
use synscan::wire::stream::{
    FaultCounters, FaultPolicy, SliceStream, StreamError, TryRecordStream,
};
use synscan::wire::{Ipv4Address, ProbeRecord, SynFrameBuilder, TcpFlags};
use synscan::RunOptions;

mod support;

use support::{collector_count_fields, open_scan_count_fields, CountFields};

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
/// streams measure 203 B (1 packet) and 167 B (5 packets) per source. With
/// each open scan's destinations in a hash set of its own and its window
/// in a heap vector, instead of ids of one shared destination table and an
/// inline ring, they measure 190 B and 168 B. A collector that keeps the
/// cells of closed periods in the hash map of the open one measures 218 B
/// and 195 B; one that also keeps a fingerprint
/// window for every source ever seen, 295 B and 322 B; one that further
/// keeps an open-scan body per source and a heap vector behind every small
/// set, 499 B and 566 B.
const MAX_BYTES_PER_SOURCE: isize = 208;

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

/// A collector with one-day volatility periods that has taken `records`,
/// sweeping idle scans the way the feed loop does, once per batch.
fn collect(records: &[ProbeRecord]) -> YearCollector {
    collect_in_periods(records, 1.0)
}

/// As [`collect`], with volatility periods of `period_days`.
fn collect_in_periods(records: &[ProbeRecord], period_days: f64) -> YearCollector {
    let mut collector =
        YearCollector::with_period(2020, CampaignConfig::scaled(MONITORED), period_days);
    for batch in records.chunks(1024) {
        for record in batch {
            collector.offer(record);
        }
        collector.housekeeping(batch.last().expect("non-empty batch").ts_micros);
    }
    collector
}

/// Heap bytes a (week, /16) cell of a closed volatility period may cost a
/// collector, besides 4 B for each of its sources. Sealed as the stream
/// leaves its period, a cell is a 14 B row and its members a run of ids,
/// and measures 14 B; kept in the one hash map of every period's cells, it
/// measured 102 B.
const MAX_CLOSED_CELL_BYTES: isize = 16;

#[test]
fn closed_periods_cost_a_row_per_cell_and_four_bytes_per_member() {
    let _turn = take_turn();
    // The one-packet sources again, each probing once a day for ten days.
    let day = 86_400_000_000u64;
    let daily = small_sources(1);
    let records: Vec<ProbeRecord> = (0..10u64)
        .flat_map(|d| {
            daily.iter().map(move |r| ProbeRecord {
                ts_micros: d * day + r.ts_micros / 7,
                ..*r
            })
        })
        .collect();
    // The same records in one ten-day period and in ten one-day periods:
    // everything but the closed periods' cells is the same in both.
    let held = |period_days: f64| {
        let before = live_bytes();
        let collector = collect_in_periods(&records, period_days);
        let held = live_bytes() - before;
        (held, collector.finish())
    };
    let (one_period, _) = held(10.0);
    let (ten_periods, analysis) = held(1.0);
    let closed = analysis
        .week_blocks
        .iter()
        .filter(|((week, _), _)| *week < 9);
    let (cells, members) = closed.fold((0, 0), |(cells, members), (_, cell)| {
        (cells + 1, members + cell.sources as isize)
    });
    assert!(cells > 9 * SOURCES as isize / 2, "{cells} closed cells");
    let per_cell = (ten_periods - one_period - 4 * members) / cells;
    eprintln!(
        "{cells} closed cells with {members} members: {} B above one open period, {per_cell} B a cell besides its members",
        ten_periods - one_period
    );
    assert!(
        per_cell <= MAX_CLOSED_CELL_BYTES,
        "a closed cell costs {per_cell} B besides its members (bound {MAX_CLOSED_CELL_BYTES})"
    );
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

/// Heap bytes decoding an `input`-byte slice may peak at, however its
/// counts lie: every announced length is bounded by the bytes left behind
/// it before anything is allocated.
fn max_decode_bytes(input: usize) -> isize {
    4 * input as isize + (64 << 10)
}

/// `bytes` with the `width`-byte count at `at` set, in turn, to each value
/// the rule tries: 0, 1, the bytes left behind it, one more, `u32::MAX` and
/// `u64::MAX`, each capped to what the field can hold.
fn inflations(bytes: &[u8], (at, width): (usize, usize)) -> Vec<(u64, Vec<u8>)> {
    let left = (bytes.len() - at - width) as u64;
    let cap = u64::MAX >> (64 - 8 * width);
    let mut values: Vec<u64> = [0, 1, left, left + 1, u64::from(u32::MAX), u64::MAX]
        .into_iter()
        .map(|v| v.min(cap))
        .collect();
    values.dedup();
    values
        .into_iter()
        .map(|value| {
            let mut inflated = bytes.to_vec();
            inflated[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
            (value, inflated)
        })
        .collect()
}

/// A small slice with every section present: a campaign, four sources over
/// three ports, and the heavy-hitter sketch.
fn small_heavy_slice() -> Vec<u8> {
    let record = |src: u32, dst: u32, port: u16, ts: u64| ProbeRecord {
        ts_micros: ts,
        src_ip: Ipv4Address(src),
        dst_ip: Ipv4Address(dst),
        src_port: 40_000,
        dst_port: port,
        seq: 7,
        ip_id: 54_321,
        ttl: 55,
        flags: TcpFlags::SYN,
        window: 1024,
    };
    let mut records: Vec<_> = (0..8u32)
        .map(|i| record(10, 100 + i, 443, u64::from(i) * 250_000))
        .collect();
    records.push(record(11, 200, 22, 2_000_001));
    records.push(record(12, 300, 80, 2_000_002));
    records.push(record(13, 301, 443, 2_000_003));
    let config = CampaignConfig {
        min_distinct_dests: 5,
        min_rate_pps: 1.0,
        expiry_secs: 3600.0,
        monitored_addresses: 1 << 16,
    };
    let heavy = HeavyHitterConfig {
        k: 2,
        width: 4,
        depth: 2,
    };
    let outcome = try_collect_year_stream(
        2020,
        config,
        7.0,
        PipelineMode::Sequential,
        SizeHints::none().with_heavy(Some(heavy)),
        FaultPolicy::Fail,
        &mut SliceStream::new(&records),
        |_| true,
    )
    .expect("a clean stream");
    let analysis = outcome.analysis;
    assert_eq!(analysis.campaigns.len(), 1);
    assert!(analysis.heavy.is_some() && !analysis.tool_port_packets.is_empty());
    encode_year(&analysis)
}

/// Bytes before a `SYNSTORE` payload: magic, version word, length, checksum.
const STORE_HEADER: usize = 8 + 4 + 8 + 8;

/// `payload` behind the version word of `sealed`, under a fresh length and
/// checksum (the FxHash of the payload): what a writer that is not
/// `encode_year` could have produced.
fn resealed(sealed: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut sum = FxHasher::default();
    sum.write(payload);
    let mut out = sealed[..12].to_vec();
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&sum.finish().to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Every length or count field of a sealed slice: what it counts, where it
/// sits in the payload as `(offset, width)`, and the count it holds.
fn count_fields(payload: &[u8]) -> Vec<(&'static str, (usize, usize), u64)> {
    let mut walk = CountFields::new(payload);
    walk.skip(2 + 5 * 8); // year, monitored, window, totals
    walk.count("index campaigns", 8);
    walk.column("index ports", 2);
    walk.column("index sources", 4);
    walk.column("port packets", 10);
    walk.column("port sources", 10);
    walk.column("source port counts", 8);
    walk.column("source packets", 12);
    for _ in 0..walk.count("port source sets", 8) {
        walk.skip(2);
        walk.column("a port's sources", 4);
    }
    walk.column("day port packets", 14);
    for _ in 0..walk.count("tool port packets", 8) {
        let tool = walk.tag();
        walk.skip(u64::from(tool) + 2 + 8);
    }
    walk.column("week blocks", 30);
    for _ in 0..walk.count("campaigns", 8) {
        walk.skip(4 + 4 * 8);
        walk.column("campaign ports", 10);
        walk.column("campaign tools", 9);
    }
    walk.column("rejected sequences", 9);
    walk.skip(8);
    assert_eq!(walk.tag(), 1, "the fixture carries the sketch");
    walk.count("heavy-hitter k", 4);
    walk.count("heavy-hitter width", 4);
    walk.count("heavy-hitter depth", 4);
    let width = walk.count("count-min width", 4);
    let depth = walk.count("count-min depth", 4);
    walk.skip(8 + 8 * width * depth); // count-min total and cells
    walk.count("space-saving capacity", 4);
    walk.skip(16);
    walk.column("space-saving slots", 8 * 12);
    assert_eq!(walk.at, payload.len(), "the walk covers the payload");
    walk.fields
}

#[test]
fn an_inflated_count_in_a_slice_is_refused_within_a_bounded_heap() {
    let _turn = take_turn();
    let sealed = small_heavy_slice();
    let payload = &sealed[STORE_HEADER..];
    let fields = count_fields(payload);
    assert!(fields.len() > 20, "{} count fields", fields.len());
    let (mut tried, mut worst) = (0, 0);
    for &(what, field, held) in &fields {
        for (value, inflated) in inflations(payload, field) {
            let input = resealed(&sealed, &inflated);
            let base = reset_peak();
            let result = decode_year(&input);
            let peak = peak_above(base);
            (tried, worst) = (tried + 1, worst.max(peak));
            // Only the value the field already held loads: the clean slice.
            let lie = format!("{what} at payload byte {} set to {value}", field.0);
            assert_eq!(result.is_ok(), value == held, "{lie} (holds {held})");
            assert!(
                peak <= max_decode_bytes(input.len()),
                "{lie}: decoding {} B peaked at {peak} B",
                input.len()
            );
        }
    }
    eprintln!(
        "{} count fields of a {} B slice, {tried} inflated decodes: worst peak {worst} B",
        fields.len(),
        sealed.len()
    );
}

/// A collector whose one source has an open scan: twenty destinations over
/// three ports, and a full fingerprint window whose ring head has moved off
/// its first slot.
fn open_scan_collector() -> YearCollector {
    let config = CampaignConfig {
        min_distinct_dests: 5,
        min_rate_pps: 1.0,
        expiry_secs: 3600.0,
        monitored_addresses: 1 << 16,
    };
    let mut collector = YearCollector::with_period(2020, config, 7.0);
    for i in 0..23u32 {
        collector.offer(&ProbeRecord {
            ts_micros: u64::from(i) * 1_000,
            src_ip: Ipv4Address(0x0b00_0001),
            dst_ip: Ipv4Address(0x0a00_0100 + i % 20),
            src_port: 40_000,
            dst_port: [22, 80, 443][i as usize % 3],
            seq: mix64(u64::from(i)) as u32,
            ip_id: 7,
            ttl: 55,
            flags: TcpFlags::SYN,
            window: 1024,
        });
    }
    collector
}

/// `blob` decoded the way a resume decodes a shard: its typed result, and
/// the peak heap above what was live before.
fn decode_shard(blob: Vec<u8>) -> (Result<Option<YearCollector>, CheckpointError>, isize) {
    let checkpoint = Checkpoint {
        header: CheckpointHeader {
            year: 2020,
            identity: 7,
            workers: 1,
            cursor: 0,
            seq: 1,
            origin: None,
        },
        gate_last: None,
        faults: FaultCounters::default(),
        admit_state: Vec::new(),
        shards: vec![blob],
    };
    let base = reset_peak();
    let result = checkpoint.shard_collector(0);
    (result, peak_above(base))
}

#[test]
fn an_inflated_count_in_an_open_scan_is_refused_within_a_bounded_heap() {
    let _turn = take_turn();
    let collector = open_scan_collector();
    let blob = Checkpoint::encode_collector(Some(&collector));
    let fields = open_scan_count_fields(&blob);
    let held: Vec<u64> = fields.iter().map(|&(_, held)| held).collect();
    assert_eq!(
        held,
        [20, 3, 8, 3],
        "destinations, ports, window, port rows"
    );
    let (clean, _) = decode_shard(blob.clone());
    assert_eq!(clean, Ok(Some(collector)));

    let mut worst = 0;
    for &(field, held) in &fields {
        for (value, inflated) in inflations(&blob, field) {
            assert_ne!(value, held, "every value tried is a lie");
            let input = inflated.len();
            let (result, peak) = decode_shard(inflated);
            worst = worst.max(peak);
            let what = format!("count at blob byte {} set to {value}", field.0);
            assert!(result.is_err(), "{what}: loaded");
            assert!(
                peak <= max_decode_bytes(input),
                "{what}: decoding {input} B peaked at {peak} B"
            );
        }
    }
    eprintln!(
        "4 count fields of a {} B collector blob: worst peak {worst} B",
        blob.len()
    );
}

/// A checkpoint of many light scans beside one heavy scan restores within
/// the same bound as any blob. The heavy scan's 20 000 destinations take
/// the low destination ids, so the thousand later scans of seventeen (their
/// own sixteen and the heavy scan's last) hold only high ids: a bitmap
/// spanning them would cost 2.5 KB a scan where the blob spends 68 B.
#[test]
fn light_scans_beside_a_heavy_one_restore_within_a_bounded_heap() {
    let _turn = take_turn();
    let config = CampaignConfig {
        min_distinct_dests: 5,
        min_rate_pps: 1.0,
        expiry_secs: 3600.0,
        monitored_addresses: 1 << 16,
    };
    let mut collector = YearCollector::with_period(2020, config, 7.0);
    let mut ts = 0u64;
    let mut probe = |src: u32, dst: u32| {
        ts += 1_000;
        ProbeRecord {
            ts_micros: ts,
            src_ip: Ipv4Address(src),
            dst_ip: Ipv4Address(dst),
            src_port: 40_000,
            dst_port: 443,
            seq: mix64(ts) as u32,
            ip_id: 7,
            ttl: 55,
            flags: TcpFlags::SYN,
            window: 1024,
        }
    };
    let heavy_last = 0x0a00_0000 + 19_999;
    for dst in 0x0a00_0000..=heavy_last {
        collector.offer(&probe(0x0b00_0001, dst));
    }
    for scan in 0..1_000u32 {
        let src = 0x0c00_0000 + scan;
        for dst in 0..16 {
            collector.offer(&probe(src, 0x0a01_0000 + 16 * scan + dst));
        }
        collector.offer(&probe(src, heavy_last));
    }
    let blob = Checkpoint::encode_collector(Some(&collector));
    let input = blob.len();
    let (restored, peak) = decode_shard(blob);
    assert_eq!(restored, Ok(Some(collector)));
    assert!(
        peak <= max_decode_bytes(input),
        "restoring {input} B peaked at {peak} B"
    );
    eprintln!("1 001 open scans in a {input} B collector blob: restore peak {peak} B");
}

#[test]
fn port_rows_that_disagree_with_the_day_port_cells_are_corrupt() {
    let _turn = take_turn();
    let blob = Checkpoint::encode_collector(Some(&open_scan_collector()));
    let ((rows_at, _), rows) = open_scan_count_fields(&blob)[3];
    assert_eq!(rows, 3);
    // The first row: its port, then its packets, then its source set.
    let packets_at = rows_at + 8 + 2;
    let packets = u64::from_le_bytes(blob[packets_at..packets_at + 8].try_into().unwrap());
    assert_eq!(packets, 8, "port 22 took every third of 23 probes");
    for lie in [packets - 1, packets + 1] {
        let mut damaged = blob.clone();
        damaged[packets_at..packets_at + 8].copy_from_slice(&lie.to_le_bytes());
        let (result, _) = decode_shard(damaged);
        assert!(
            matches!(result, Err(CheckpointError::Corrupt(_))),
            "port 22 restored with {lie} packets: {result:?}"
        );
    }
    // A fourth row, for port 21, with no packets, no sources and no day ×
    // port cell: no record ever made it, and `finish` has no packets to
    // give it.
    let mut damaged = blob[..rows_at].to_vec();
    damaged.extend_from_slice(&4u64.to_le_bytes());
    damaged.extend_from_slice(&21u16.to_le_bytes());
    damaged.extend_from_slice(&0u64.to_le_bytes());
    damaged.push(0); // an empty sorted source set
    damaged.extend_from_slice(&0u64.to_le_bytes());
    damaged.extend_from_slice(&blob[rows_at + 8..]);
    let (result, _) = decode_shard(damaged);
    assert!(
        matches!(result, Err(CheckpointError::Corrupt(_))),
        "a row no record made restored: {result:?}"
    );
}

/// A collector with a count in every section of its blob, each set in both
/// of its shapes: a finished campaign and a rejected sequence, an open scan,
/// a port whose twenty sources fill a bitmap, a source whose forty ports
/// fill one, closed one-day volatility periods before the open one, and an
/// evicting heavy-hitter sketch.
fn every_section_collector() -> YearCollector {
    let config = CampaignConfig {
        min_distinct_dests: 5,
        min_rate_pps: 1.0,
        expiry_secs: 3600.0,
        monitored_addresses: 1 << 16,
    };
    let mut collector = YearCollector::with_period(2020, config, 1.0);
    let heavy = HeavyHitterConfig {
        k: 2,
        width: 4,
        depth: 2,
    };
    SizeHints::none()
        .with_heavy(Some(heavy))
        .apply_to(&mut collector);
    let day = 86_400_000_000u64;
    let mut offer = |ts: u64, src: u32, dst: u32, port: u16| {
        collector.offer(&ProbeRecord {
            ts_micros: ts,
            src_ip: Ipv4Address(src),
            dst_ip: Ipv4Address(dst),
            src_port: 40_000,
            dst_port: port,
            seq: mix64(ts) as u32,
            ip_id: if src == 0x0b00_0001 { 54_321 } else { 7 },
            ttl: 55,
            flags: TcpFlags::SYN,
            window: 1024,
        });
    };
    // Day 0: a ZMap campaign of 40 destinations, twenty one-probe sources on
    // port 80, and one source over forty ports.
    for i in 0..40u32 {
        offer(u64::from(i) * 1_000, 0x0b00_0001, 0x0a00_0100 + i, 443);
    }
    for i in 0..20u32 {
        offer(
            100_000 + u64::from(i),
            0x0c00_0000 + (i << 16),
            0x0a00_0200,
            80,
        );
    }
    for i in 0..40u16 {
        offer(200_000 + u64::from(i), 0x0d00_0001, 0x0a00_0300, 1_000 + i);
    }
    // Day 3: every day-0 scan has expired, and a new one is still open.
    let later = 3 * day;
    for i in 0..23u32 {
        offer(
            later + u64::from(i) * 1_000,
            0x0e00_0001,
            0x0a00_0400 + i % 20,
            [22, 80, 443][i as usize % 3],
        );
    }
    collector.housekeeping(later + 23_000);
    collector
}

#[test]
fn an_inflated_count_anywhere_in_a_collector_blob_is_refused_within_a_bounded_heap() {
    let _turn = take_turn();
    let collector = every_section_collector();
    let blob = Checkpoint::encode_collector(Some(&collector));
    let fields = collector_count_fields(&blob);
    let (clean, _) = decode_shard(blob.clone());
    assert_eq!(clean, Ok(Some(collector)));
    for section in [
        "interned sources",
        "open-scan destinations",
        "campaigns",
        "campaign tools",
        "rejected sequences",
        "a port's sources",
        "a source's ports",
        "(week, /16) cells",
        "space-saving slots",
    ] {
        assert!(
            fields
                .iter()
                .any(|&(what, _, held)| what == section && held > 0),
            "the fixture holds {section}"
        );
    }
    // Both set shapes: a bitmap adds a 4-byte member count.
    for set in ["a port's sources", "a source's ports"] {
        assert!(
            fields
                .iter()
                .any(|&(what, (_, width), _)| what == set && width == 4),
            "the fixture holds {set} as a bitmap"
        );
    }

    let (mut tried, mut worst) = (0, 0);
    for &(what, field, held) in &fields {
        for (value, inflated) in inflations(&blob, field) {
            let input = inflated.len();
            let (result, peak) = decode_shard(inflated);
            (tried, worst) = (tried + 1, worst.max(peak));
            let lie = format!("{what} at blob byte {} set to {value}", field.0);
            assert_eq!(
                result.is_ok(),
                value == held,
                "{lie} (holds {held}): {result:?}"
            );
            assert!(
                peak <= max_decode_bytes(input),
                "{lie}: decoding {input} B peaked at {peak} B"
            );
        }
    }
    eprintln!(
        "{} count fields of a {} B collector blob, {tried} inflated decodes: worst peak {worst} B",
        fields.len(),
        blob.len()
    );
}

/// Bytes before a `SYNCKPT` payload: the same envelope header as a slice's.
const CHECKPOINT_HEADER: usize = STORE_HEADER;

/// The length and count fields of a checkpoint payload around its
/// collector blobs: the admit-state blob's length, the shard count and each
/// shard blob's length, as `count_fields` notes a slice's.
fn checkpoint_count_fields(payload: &[u8]) -> Vec<(&'static str, (usize, usize), u64)> {
    let mut walk = CountFields::new(payload);
    walk.skip(2 + 8 + 4 + 8 + 8); // year, identity, workers, cursor, seq
    if walk.tag() == 1 {
        walk.skip(8); // the origin
    }
    if walk.tag() == 1 {
        walk.skip(30); // the fault gate's last record
    }
    walk.skip(4 * 8); // fault counters
    let admit = walk.count("admit-state bytes", 8);
    walk.skip(admit);
    for _ in 0..walk.count("shards", 4) {
        let blob = walk.count("a shard's blob bytes", 8);
        walk.skip(blob);
    }
    assert_eq!(walk.at, payload.len(), "the walk covers the payload");
    walk.fields
}

/// `input` decoded the way a resume decodes it — the envelope and its
/// sections, then every shard's collector, all held at once — and the peak
/// heap above what was live before.
fn decode_checkpoint(input: &[u8]) -> (Result<Vec<Option<YearCollector>>, CheckpointError>, isize) {
    let base = reset_peak();
    let result = Checkpoint::from_bytes(input).and_then(|checkpoint| {
        (0..checkpoint.shards.len())
            .map(|shard| checkpoint.shard_collector(shard))
            .collect()
    });
    (result, peak_above(base))
}

#[test]
fn an_inflated_length_around_the_collector_blobs_is_refused_within_a_bounded_heap() {
    let _turn = take_turn();
    // A real cut: two shards of a generated year and the capture
    // statistics as its admit state.
    let sealed = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/ckpt/year-2015-sharded2-v3.ckpt"
    ))
    .expect("golden checkpoint");
    let payload = &sealed[CHECKPOINT_HEADER..];
    let fields = checkpoint_count_fields(payload);
    let names: Vec<&str> = fields.iter().map(|&(what, ..)| what).collect();
    assert_eq!(
        names,
        [
            "admit-state bytes",
            "shards",
            "a shard's blob bytes",
            "a shard's blob bytes"
        ]
    );
    assert!(fields.iter().all(|&(_, _, held)| held > 0), "{fields:?}");
    let (clean, _) = decode_checkpoint(&sealed);
    assert!(clean.is_ok(), "{clean:?}");

    let (mut tried, mut worst) = (0, 0);
    for &(what, field, held) in &fields {
        for (value, inflated) in inflations(payload, field) {
            let input = resealed(&sealed, &inflated);
            let (result, peak) = decode_checkpoint(&input);
            (tried, worst) = (tried + 1, worst.max(peak));
            let lie = format!("{what} at payload byte {} set to {value}", field.0);
            assert_eq!(
                result.is_ok(),
                value == held,
                "{lie} (holds {held}): {:?}",
                result.err()
            );
            assert!(
                peak <= max_decode_bytes(input.len()),
                "{lie}: decoding {} B peaked at {peak} B",
                input.len()
            );
        }
    }
    eprintln!(
        "{} length fields of a {} B checkpoint, {tried} inflated decodes: worst peak {worst} B",
        fields.len(),
        sealed.len()
    );
}

/// `text` padded with copies of `unit` up to the daemon's request cap, then
/// closed with `end`.
fn request_at_the_cap(text: &str, unit: &str, end: &str) -> String {
    let mut line = text.to_string();
    while line.len() + unit.len() + end.len() <= MAX_REQUEST_BYTES {
        line.push_str(unit);
    }
    line + end
}

/// A request line at the cap in the shapes that once cost 11-16 times its
/// length: a long array, thousands of unknown keys, nesting to the depth
/// limit. Each is refused, naming the member, within the decode bound.
#[test]
fn a_hostile_request_line_is_refused_within_a_bounded_heap() {
    let _turn = take_turn();
    let mut keys = String::from(r#"{"op":"ping""#);
    for key in 0.. {
        let member = format!(r#","k{key}":0"#);
        if keys.len() + member.len() + 1 > MAX_REQUEST_BYTES {
            break;
        }
        keys.push_str(&member);
    }
    keys.push('}');
    let lines = [
        (
            request_at_the_cap(r#"{"op":"ping","x":[0"#, ",0", "]}"),
            "x",
        ),
        (keys, "k0"),
        // Arrays to the parser's depth limit, one beside the other.
        (
            request_at_the_cap(
                r#"{"op":"summary","year":["#,
                &format!("{}{},", "[".repeat(62), "]".repeat(62)),
                "0]}",
            ),
            "year",
        ),
    ];
    for (line, field) in lines {
        assert!(line.len() <= MAX_REQUEST_BYTES);
        let base = reset_peak();
        let result = parse_request(&line);
        let peak = peak_above(base);
        let error = result
            .expect_err("a request is `op` and one scalar argument")
            .to_string();
        assert!(error.contains(&format!("{field:?}")), "{error}");
        eprintln!("a {} B request line: parse peak {peak} B", line.len());
        assert!(
            peak <= max_decode_bytes(line.len()),
            "parsing a {} B request peaked at {peak} B",
            line.len()
        );
    }
}

/// The largest record a pcap reader accepts (`MAX_SNAPLEN` in
/// `synscan_wire::pcap`); one byte more loses framing.
const MAX_SNAPLEN: u64 = 1 << 18;

/// Heap one framer window takes. Every pcap stream reads through a window
/// buffer of this size per chunk in flight, and a capture smaller than one
/// window is a single chunk, decoded inline or on three queues alike. It is
/// the one allowance above [`max_decode_bytes`] for reading a capture.
const FRAMER_WINDOW: isize = 1 << 20;

/// Offset of the first record header in a classic pcap.
const PCAP_GLOBAL_HEADER: usize = 24;

/// One canonical probe record in a capture: its header and a 54-byte frame.
const PCAP_RECORD: usize = 16 + 54;

/// A time-ordered capture of `count` canonical probes from `sources`
/// sources, each probing the same 256 dark addresses over and over, a
/// millisecond apart.
fn repeated_capture(count: usize, sources: u32) -> Vec<u8> {
    let builder = SynFrameBuilder::default();
    let mut frame = vec![0u8; ProbeRecord::frame_len()];
    let mut writer = PcapWriter::new(Vec::new(), LINKTYPE_ETHERNET).expect("in-memory header");
    for i in 0..count as u64 {
        let record = ProbeRecord {
            ts_micros: 1_000_000 + i * 1_000,
            src_ip: Ipv4Address(0xcb00_7100 + (i % u64::from(sources)) as u32),
            dst_ip: Ipv4Address(0x0a00_0000 + (i * 7 % 256) as u32),
            src_port: 40_000 + (i % 1000) as u16,
            dst_port: [23u16, 80, 443][(i % 3) as usize],
            seq: (i as u32).wrapping_mul(2_654_435_761),
            ip_id: 54_321,
            ttl: 51,
            flags: TcpFlags::SYN,
            window: 1024,
        };
        builder.build_into(&record, &mut frame);
        writer
            .write_record(record.ts_micros, &frame)
            .expect("in-memory record");
    }
    writer.into_inner().expect("in-memory flush")
}

/// What one pcap stream yields: its records, fault counters and non-TCP
/// census, or its terminal error.
type Drained = Result<(Vec<ProbeRecord>, FaultCounters, u64), StreamError>;

fn drain<R: std::io::Read>(mut stream: PcapStream<R>) -> Drained {
    let mut records = Vec::new();
    while let Some(batch) = stream.try_next_batch()? {
        records.extend_from_slice(batch);
    }
    Ok((records, stream.faults(), stream.non_tcp_frames()))
}

/// Every record header length a capture can lie with — `incl_len` and
/// `orig_len` of the first, a middle and the last record, each set to 0, 1,
/// the bytes left behind the header, one more, `MAX_SNAPLEN`, one more and
/// `u32::MAX` — read inline and on three decode queues under every policy:
/// the same typed error or counted skip on both paths, never a panic, and a
/// heap within the decode bound plus one framer window.
#[test]
fn a_record_header_whose_lengths_lie_is_typed_and_bounded_on_every_ingest_path() {
    let _turn = take_turn();
    const RECORDS: usize = 8;
    let clean = repeated_capture(RECORDS, 3);
    assert_eq!(clean.len(), PCAP_GLOBAL_HEADER + RECORDS * PCAP_RECORD);
    let reference = drain(PcapStream::new(clean.as_slice()).expect("valid header"))
        .expect("clean capture drains");
    let mut cases = 0;
    for record in [0, RECORDS / 2, RECORDS - 1] {
        let header = PCAP_GLOBAL_HEADER + record * PCAP_RECORD;
        let left = (clean.len() - header - 16) as u64;
        for (field, at) in [("incl_len", header + 8), ("orig_len", header + 12)] {
            for value in [
                0,
                1,
                left,
                left + 1,
                MAX_SNAPLEN,
                MAX_SNAPLEN + 1,
                u64::from(u32::MAX),
            ] {
                let mut bytes = clean.clone();
                bytes[at..at + 4].copy_from_slice(&(value as u32).to_le_bytes());
                let capture = Arc::new(MappedCapture::from_bytes(bytes.clone()));
                for policy in [
                    FaultPolicy::Fail,
                    FaultPolicy::SkipRecord,
                    FaultPolicy::StopClean,
                ] {
                    let label = format!("record {record} {field} = {value} under {policy}");
                    let base = reset_peak();
                    let inline = drain(
                        PcapStream::with_policy(bytes.as_slice(), policy).expect("valid header"),
                    );
                    let inline_peak = peak_above(base);
                    let base = reset_peak();
                    let queued = drain(
                        IngestQueues::exact(Arc::clone(&capture), 3, policy)
                            .expect("valid header")
                            .spawn(),
                    );
                    let queued_peak = peak_above(base);
                    assert_eq!(inline, queued, "{label}: inline and queued ingest differ");
                    match (&inline, policy) {
                        (Err(_), FaultPolicy::Fail) => {}
                        (Err(e), _) => panic!("{label}: a lossy policy surfaced {e:?}"),
                        (Ok(outcome), _) => assert!(
                            *outcome == reference || outcome.1.any() || outcome.2 > 0,
                            "{label}: the capture read differently and nothing was counted"
                        ),
                    }
                    let bound = max_decode_bytes(bytes.len()) + FRAMER_WINDOW;
                    assert!(
                        inline_peak <= bound && queued_peak <= bound,
                        "{label}: peaked at {inline_peak} B inline and {queued_peak} B \
                         queued (bound {bound})"
                    );
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 3 * 2 * 7 * 3);
}

/// A reader that counts the bytes it hands out.
struct Counted {
    inner: std::io::Cursor<Vec<u8>>,
    read: Arc<AtomicUsize>,
}

impl std::io::Read for Counted {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.read.fetch_add(n, Ordering::Relaxed);
        Ok(n)
    }
}

/// Analyzing a capture holds a window and the analysis state, never the
/// capture: four times as many records of the same sources peak within one
/// framer window, read once with the dark set given or read twice to infer
/// it. And a one-shot input cannot infer the dark set, so it is refused
/// before a byte is read.
#[test]
fn analyzing_a_capture_holds_a_window_not_the_capture() {
    let _turn = take_turn();
    let analyzed_peak = |input: CaptureInput<'_>, options: &AnalyzeOptions| {
        let base = reset_peak();
        let result = analyze(input, options, &RunOptions::default())
            .expect("clean capture")
            .completed()
            .expect("plain run");
        let peak = peak_above(base);
        assert_eq!(result.monitored, 256);
        (result.analysis.total_packets, peak)
    };
    let given = AnalyzeOptions {
        monitored: Some(256),
        ..AnalyzeOptions::default()
    };
    let mut one_shot = Vec::new();
    let mut inferred = Vec::new();
    for windows in [4, 16] {
        let count = windows * FRAMER_WINDOW as usize / PCAP_RECORD;
        let bytes = repeated_capture(count, 64);
        let capture = MappedCapture::from_bytes(bytes.clone());
        let reader = CaptureInput::reader(std::io::Cursor::new(bytes));
        let (packets, peak) = analyzed_peak(reader, &given);
        assert_eq!(packets, count as u64);
        one_shot.push(peak);
        let (packets, peak) =
            analyzed_peak(CaptureInput::Capture(&capture), &AnalyzeOptions::default());
        assert_eq!(packets, count as u64);
        inferred.push(peak);
        eprintln!(
            "{windows} windows ({count} records): one-shot peak {} B, inferred peak {} B",
            one_shot.last().unwrap(),
            inferred.last().unwrap()
        );
    }
    for (shape, peaks) in [("one-shot", &one_shot), ("inferred", &inferred)] {
        assert!(
            (peaks[1] - peaks[0]).abs() <= FRAMER_WINDOW,
            "{shape}: 4 windows peaked at {} B, 16 at {} B",
            peaks[0],
            peaks[1]
        );
    }

    let read = Arc::new(AtomicUsize::new(0));
    let input = CaptureInput::reader(Counted {
        inner: std::io::Cursor::new(repeated_capture(1_000, 64)),
        read: Arc::clone(&read),
    });
    let refused = analyze(input, &AnalyzeOptions::default(), &RunOptions::default());
    assert_eq!(refused.unwrap_err(), AnalyzeError::MonitoredRequired);
    assert_eq!(read.load(Ordering::Relaxed), 0, "refused after reading");
}
