//! Versioned on-disk **analysis store** — the persistence layer between the
//! batch pipeline and the resident query daemon.
//!
//! A store is a directory holding exactly one `year-YYYY.store` slice per
//! year. Each file is a `SYNSTORE` envelope ([`crate::envelope`]: magic,
//! version, payload length, checksum), written atomically so a crash
//! mid-write can never destroy a previous slice. A year assembled from parts
//! (the shards of a run, the slices of a distributed one) is merged in
//! memory and written once, by [`AnalysisStore::write_year`].
//!
//! The payload is two sections:
//!
//! 1. an **index** (year, window, totals, sorted port list, sorted source
//!    list, campaign count), and
//! 2. the full [`YearAnalysis`] **body**, every map serialized in sorted key
//!    order — the order the analysis already holds them in — so encoding is
//!    deterministic: encode → decode → encode is byte-identical, which is
//!    what the equivalence suites lean on. The decoder holds a slice to that
//!    canonical form: keys strictly ascending, the index equal to the body's
//!    own keys. A slice it accepts re-encodes to the bytes it was read from.
//!
//! On the read side, [`StoreImage::load`] is the one reader: it builds the
//! compact in-memory image the `synscan-serve` daemon holds resident, every
//! slice decoded, years ascending, published to reader threads through an
//! [`ImageCell`]. A file that does not load fails the image with its path
//! named, and so does a second slice for a year, which would otherwise
//! count that year twice.

use std::collections::btree_map::{BTreeMap, Entry};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::analysis::collect::{WeekCell, YearAnalysis, YearIndex};
use crate::campaign::{Campaign, NoiseStats};
use crate::checkpoint::{Ascending, CheckpointError, SnapReader, SnapWriter};
use crate::compact::SortedMap;
use crate::envelope::{self, EnvelopeError, STORE};

pub mod query;

/// How `stats` names the one slice version this build reads and writes:
/// the envelope's word `0x0001_0001` is major 1 in its low half, minor 1 in
/// its high half.
pub(crate) const STORE_VERSION: &str = "1.1";

/// Everything that can go wrong writing, reading, or decoding a store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The file system failed, or a slice's envelope did not verify.
    Envelope(EnvelopeError),
    /// Structurally invalid slice contents, or two slices for one year.
    Corrupt(String),
    /// A slice file did not load: the file, and why.
    File {
        /// The slice file.
        path: PathBuf,
        /// What is wrong with it.
        error: Box<StoreError>,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Envelope(e) => write!(f, "store slice {e}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt store slice: {msg}"),
            StoreError::File { path, error } => write!(f, "{}: {error}", path.display()),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<EnvelopeError> for StoreError {
    fn from(e: EnvelopeError) -> Self {
        StoreError::Envelope(e)
    }
}

impl From<CheckpointError> for StoreError {
    fn from(err: CheckpointError) -> Self {
        match err {
            CheckpointError::Envelope(e) => StoreError::Envelope(e),
            CheckpointError::Corrupt(msg) => StoreError::Corrupt(msg),
            other => StoreError::Corrupt(other.to_string()),
        }
    }
}

/// The decoded index section of one slice file: what the body is checked
/// against, and the year and size [`StoreImage::load`] accounts it under.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SliceMeta {
    /// Calendar year the slice covers.
    year: u16,
    /// Telescope size the campaign thresholds were computed against.
    monitored: u64,
    /// First admitted timestamp (µs).
    start_micros: u64,
    /// Last admitted timestamp (µs).
    end_micros: u64,
    /// Admitted packets in the slice.
    total_packets: u64,
    /// Distinct scanning sources in the slice.
    distinct_sources: u64,
    /// Campaigns identified in the slice.
    campaigns: u64,
    /// Every targeted port, ascending.
    ports: Vec<u16>,
    /// Every scanning source (host-order IPv4), ascending.
    sources: Vec<u32>,
    /// Whole slice-file size in bytes, envelope included.
    file_bytes: u64,
}

fn encode_meta(w: &mut SnapWriter, analysis: &YearAnalysis) {
    w.put_u16(analysis.year);
    w.put_u64(analysis.monitored);
    w.put_u64(analysis.start_micros);
    w.put_u64(analysis.end_micros);
    w.put_u64(analysis.total_packets);
    w.put_u64(analysis.distinct_sources);
    w.put_u64(analysis.campaigns.len() as u64);
    // port_packets is a BTreeMap: keys come out ascending.
    w.put_u64(analysis.port_packets.len() as u64);
    for port in analysis.port_packets.keys() {
        w.put_u16(*port);
    }
    w.put_u64(analysis.source_packets.len() as u64);
    for src in analysis.source_packets.keys() {
        w.put_u32(*src);
    }
}

fn decode_meta(r: &mut SnapReader<'_>, file_bytes: u64) -> Result<SliceMeta, StoreError> {
    let year = r.take_u16()?;
    let monitored = r.take_u64()?;
    let start_micros = r.take_u64()?;
    let end_micros = r.take_u64()?;
    let total_packets = r.take_u64()?;
    let distinct_sources = r.take_u64()?;
    let campaigns = r.take_u64()?;
    let port_count = r.take_len(2)?;
    let mut ports = Vec::with_capacity(port_count);
    for _ in 0..port_count {
        ports.push(r.take_u16()?);
    }
    let source_count = r.take_len(4)?;
    let mut sources = Vec::with_capacity(source_count);
    for _ in 0..source_count {
        sources.push(r.take_u32()?);
    }
    Ok(SliceMeta {
        year,
        monitored,
        start_micros,
        end_micros,
        total_packets,
        distinct_sources,
        campaigns,
        ports,
        sources,
        file_bytes,
    })
}

/// Serialize a [`YearAnalysis`] to complete slice-file bytes (envelope
/// included). Every map is key-sorted in memory and written as it stands, so
/// the encoding is a pure function of the analysis value: equal analyses
/// produce byte-identical files whichever pipeline mode produced them.
pub fn encode_year(analysis: &YearAnalysis) -> Vec<u8> {
    let mut w = SnapWriter::sealed(&STORE);
    encode_slice(&mut w, analysis);
    w.into_bytes()
}

/// Stream the slice of `analysis` to `path`: the bytes [`encode_year`]
/// returns, written through a small buffer and moved into place atomically.
fn write_slice(path: &Path, analysis: &YearAnalysis) -> Result<(), StoreError> {
    let mut w = SnapWriter::create(&STORE, path)?;
    encode_slice(&mut w, analysis);
    Ok(w.commit()?)
}

/// The slice payload: the index section, then the body.
fn encode_slice(w: &mut SnapWriter, analysis: &YearAnalysis) {
    encode_meta(w, analysis);

    w.put_u64(analysis.port_packets.len() as u64);
    for (&port, &packets) in &analysis.port_packets {
        w.put_u16(port);
        w.put_u64(packets);
    }
    w.put_u64(analysis.port_sources.len() as u64);
    for (&port, &sources) in &analysis.port_sources {
        w.put_u16(port);
        w.put_u64(sources);
    }

    w.put_u64(analysis.source_port_counts.len() as u64);
    for (&src, &ports) in &analysis.source_port_counts {
        w.put_u32(src);
        w.put_u32(ports);
    }
    w.put_u64(analysis.source_packets.len() as u64);
    for (&src, &packets) in &analysis.source_packets {
        w.put_u32(src);
        w.put_u64(packets);
    }
    w.put_u64(analysis.port_source_sets.len() as u64);
    for (&port, members) in &analysis.port_source_sets {
        w.put_u16(port);
        w.put_u64(members.len() as u64);
        for &src in members {
            w.put_u32(src);
        }
    }
    w.put_u64(analysis.day_port_packets.len() as u64);
    for (&(day, port), &packets) in &analysis.day_port_packets {
        w.put_u32(day);
        w.put_u16(port);
        w.put_u64(packets);
    }
    w.put_u64(analysis.tool_port_packets.len() as u64);
    for (&(tool, port), &packets) in &analysis.tool_port_packets {
        match tool {
            Some(t) => {
                w.put_u8(1);
                w.put_tool(t);
            }
            None => w.put_u8(0),
        }
        w.put_u16(port);
        w.put_u64(packets);
    }
    w.put_u64(analysis.week_blocks.len() as u64);
    for (&(week, block), cell) in &analysis.week_blocks {
        w.put_u32(week);
        w.put_u16(block);
        w.put_u64(cell.sources);
        w.put_u64(cell.packets);
        w.put_u64(cell.campaigns);
    }

    w.put_u64(analysis.campaigns.len() as u64);
    for campaign in &analysis.campaigns {
        campaign.snapshot_to(w);
    }
    analysis.noise.snapshot_to(w);

    // The heavy-hitter sketch state, presence-tagged.
    match &analysis.heavy {
        None => w.put_u8(0),
        Some(heavy) => {
            w.put_u8(1);
            heavy.snapshot_to(w);
        }
    }
}

/// Verify the envelope and decode the index section, leaving the reader at
/// the body ([`decode_body`]).
fn open_slice(bytes: &[u8]) -> Result<(SliceMeta, SnapReader<'_>), StoreError> {
    let mut r = SnapReader::new(envelope::open(&STORE, bytes)?);
    let meta = decode_meta(&mut r, bytes.len() as u64)?;
    Ok((meta, r))
}

/// Decode complete slice-file bytes back into a [`YearAnalysis`].
///
/// Corrupted, truncated, or wrong-version input yields a typed
/// [`StoreError`]; this function never panics on hostile bytes.
pub fn decode_year(bytes: &[u8]) -> Result<YearAnalysis, StoreError> {
    let (meta, body) = open_slice(bytes)?;
    decode_body(&meta, body)
}

/// Read one keyed section of the body: `min_entry_bytes` bounds the announced
/// length before anything is allocated, `entry` reads one `(key, value)`, and
/// the keys must come strictly ascending, as [`encode_year`] writes them.
fn take_column<K: Ord, V>(
    r: &mut SnapReader<'_>,
    section: &str,
    min_entry_bytes: usize,
    mut entry: impl FnMut(&mut SnapReader<'_>) -> Result<(K, V), CheckpointError>,
) -> Result<SortedMap<K, V>, StoreError> {
    let len = r.take_len(min_entry_bytes)?;
    let mut entries = Vec::with_capacity(len);
    for _ in 0..len {
        entries.push(entry(r)?);
    }
    SortedMap::from_sorted(entries)
        .ok_or_else(|| StoreError::Corrupt(format!("{section} keys not strictly ascending")))
}

/// Decode the body behind an opened slice's index section.
fn decode_body(meta: &SliceMeta, mut r: SnapReader<'_>) -> Result<YearAnalysis, StoreError> {
    let r = &mut r;

    let port_packets = take_column(r, "port packets", 10, |r| {
        Ok((r.take_u16()?, r.take_u64()?))
    })?;
    let port_sources = take_column(r, "port sources", 10, |r| {
        Ok((r.take_u16()?, r.take_u64()?))
    })?;
    let source_port_counts = take_column(r, "source port counts", 8, |r| {
        Ok((r.take_u32()?, r.take_u32()?))
    })?;
    let source_packets = take_column(r, "source packets", 12, |r| {
        Ok((r.take_u32()?, r.take_u64()?))
    })?;
    let port_source_sets = take_column(r, "port source sets", 10, |r| {
        let port = r.take_u16()?;
        let len = r.take_len(4)?;
        let mut members = Vec::with_capacity(len);
        let mut order = Ascending::new("port source sets members");
        for _ in 0..len {
            members.push(order.admit(r.take_u32()?)?);
        }
        Ok((port, members))
    })?;
    let day_port_packets = take_column(r, "day port packets", 14, |r| {
        Ok(((r.take_u32()?, r.take_u16()?), r.take_u64()?))
    })?;
    let tool_port_packets = take_column(r, "tool port packets", 11, |r| {
        let tool = match r.take_u8()? {
            0 => None,
            1 => Some(r.take_tool()?),
            t => return Err(CheckpointError::Corrupt(format!("tool tag {t}"))),
        };
        Ok(((tool, r.take_u16()?), r.take_u64()?))
    })?;
    let week_blocks = take_column(r, "week blocks", 30, |r| {
        let key = (r.take_u32()?, r.take_u16()?);
        let cell = WeekCell {
            sources: r.take_u64()?,
            packets: r.take_u64()?,
            campaigns: r.take_u64()?,
        };
        Ok((key, cell))
    })?;

    // The index section is derived from the body at encode time; a slice
    // whose two halves disagree was not written by `encode_year`.
    if !meta.ports.iter().eq(port_packets.keys()) {
        return Err(StoreError::Corrupt(
            "index ports differ from the body's port packets keys".into(),
        ));
    }
    if !meta.sources.iter().eq(source_packets.keys()) {
        return Err(StoreError::Corrupt(
            "index sources differ from the body's source packets keys".into(),
        ));
    }

    let campaign_count = r.take_len(37)?;
    if campaign_count as u64 != meta.campaigns {
        return Err(StoreError::Corrupt(format!(
            "body carries {campaign_count} campaigns, index announced {}",
            meta.campaigns
        )));
    }
    let mut campaigns = Vec::with_capacity(campaign_count);
    for _ in 0..campaign_count {
        campaigns.push(Campaign::restore_from(r)?);
    }
    let noise = NoiseStats::restore_from(r)?;

    let heavy = match r.take_u8()? {
        0 => None,
        1 => Some(crate::sketch::HeavyHitters::restore_from(r)?),
        t => return Err(StoreError::Corrupt(format!("heavy tag {t}"))),
    };
    r.finish("slice body")?;

    Ok(YearAnalysis {
        index: YearIndex::build(&campaigns, &tool_port_packets),
        year: meta.year,
        start_micros: meta.start_micros,
        end_micros: meta.end_micros,
        total_packets: meta.total_packets,
        distinct_sources: meta.distinct_sources,
        port_packets: port_packets.into_iter().collect(),
        port_sources: port_sources.into_iter().collect(),
        source_port_counts,
        source_packets,
        port_source_sets,
        day_port_packets,
        tool_port_packets,
        week_blocks,
        campaigns,
        noise,
        monitored: meta.monitored,
        heavy,
    })
}

/// A handle on a store directory. Creating the handle creates the directory
/// (it is valid for a store to start empty and be populated run by run).
#[derive(Debug, Clone)]
pub struct AnalysisStore {
    dir: PathBuf,
}

impl AnalysisStore {
    /// Open (creating if needed) the store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| envelope::io_error("create dir", &dir, e))?;
        Ok(Self { dir })
    }

    /// Path of the one slice for `year`.
    pub fn slice_path(&self, year: u16) -> PathBuf {
        self.dir.join(format!("year-{year}.store"))
    }

    /// Atomically write the one slice for `analysis.year`, replacing the
    /// year's previous slice if there is one.
    pub fn write_year(&self, analysis: &YearAnalysis) -> Result<PathBuf, StoreError> {
        let path = self.slice_path(analysis.year);
        write_slice(&path, analysis)?;
        Ok(path)
    }

    /// Every slice file currently in the store, sorted by file name.
    fn slice_files(&self) -> Result<Vec<PathBuf>, StoreError> {
        let scan_error = |what, e| envelope::io_error(what, &self.dir, e);
        let entries = fs::read_dir(&self.dir).map_err(|e| scan_error("read dir", e))?;
        let mut files = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| scan_error("scan", e))?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) == Some("store") {
                files.push(path);
            }
        }
        files.sort();
        Ok(files)
    }
}

/// Per-year slice accounting the `stats` query reports: the files backing
/// the year and their on-disk size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct YearSliceStat {
    /// Calendar year the slices cover.
    pub year: u16,
    /// Slice files backing the year: always 1, since a store holds one
    /// slice per year.
    pub files: u64,
    /// Slice-file bytes, envelope included.
    pub bytes: u64,
}

/// The read-mostly in-memory image the daemon serves from: every year in
/// the store, decoded, ascending.
#[derive(Debug, Clone, Default)]
pub struct StoreImage {
    /// Monotonic install counter, assigned by [`ImageCell`] (0 = never
    /// installed).
    pub generation: u64,
    /// Number of slice files the image was built from.
    pub slice_files: usize,
    /// Per-year slice accounting (files, bytes), ascending by year.
    pub slices: Vec<YearSliceStat>,
    /// Per-year analyses, ascending by year.
    pub years: Vec<YearAnalysis>,
}

impl StoreImage {
    /// Build an image from everything currently in `store`, reading each
    /// slice file once: the accounting comes from the same bytes as the body.
    /// A file that does not load is an error naming it, and a second slice
    /// for a year is [`StoreError::Corrupt`] naming both.
    pub fn load(store: &AnalysisStore) -> Result<Self, StoreError> {
        let files = store.slice_files()?;
        let mut years: BTreeMap<u16, (&Path, YearSliceStat, YearAnalysis)> = BTreeMap::new();
        for path in &files {
            let bytes = fs::read(path).map_err(|e| envelope::io_error("read", path, e))?;
            let named = |error| StoreError::File {
                path: path.clone(),
                error: Box::new(error),
            };
            let (meta, body) = open_slice(&bytes).map_err(named)?;
            let slot = match years.entry(meta.year) {
                Entry::Vacant(slot) => slot,
                Entry::Occupied(first) => {
                    return Err(StoreError::Corrupt(format!(
                        "{} and {} both hold year {}; a store holds one slice per year",
                        first.get().0.display(),
                        path.display(),
                        meta.year
                    )))
                }
            };
            let analysis = decode_body(&meta, body).map_err(named)?;
            let stat = YearSliceStat {
                year: meta.year,
                files: 1,
                bytes: meta.file_bytes,
            };
            slot.insert((path, stat, analysis));
        }
        let (slices, years) = years
            .into_values()
            .map(|(_, stat, year)| (stat, year))
            .unzip();
        Ok(Self {
            generation: 0,
            slice_files: files.len(),
            slices,
            years,
        })
    }

    /// The analysis for `year`, if present.
    pub(crate) fn year(&self, year: u16) -> Option<&YearAnalysis> {
        self.years.iter().find(|a| a.year == year)
    }

    /// The years covered, ascending.
    pub fn year_list(&self) -> Vec<u16> {
        self.years.iter().map(|a| a.year).collect()
    }
}

/// Publication point between the daemon's single writer and its N reader
/// threads.
///
/// The protocol is `Arc`-swap in safe Rust: the current image lives in a
/// mutex-guarded `Arc` slot next to an atomic generation counter. Readers
/// hold an [`ImageReader`] that caches `(generation, Arc)`; per query they
/// do one `Acquire` load of the counter and touch the mutex only when the
/// counter moved — i.e. only on the (rare) reload, so the steady-state read
/// path takes zero locks. The writer clones nothing: it swaps the slot and
/// then bumps the counter with `Release`, so a reader that observes the new
/// generation is guaranteed to find the new image in the slot.
#[derive(Debug)]
pub struct ImageCell {
    generation: AtomicU64,
    slot: Mutex<Arc<StoreImage>>,
}

impl ImageCell {
    /// Create a cell publishing `image` as generation 1.
    pub fn new(mut image: StoreImage) -> Arc<Self> {
        image.generation = 1;
        Arc::new(Self {
            generation: AtomicU64::new(1),
            slot: Mutex::new(Arc::new(image)),
        })
    }

    /// Install a freshly loaded image, returning the generation it was
    /// published as. Writer-side only.
    pub fn install(&self, mut image: StoreImage) -> u64 {
        let mut slot = self.slot.lock().expect("image slot poisoned");
        let generation = self.generation.load(Ordering::Relaxed) + 1;
        image.generation = generation;
        *slot = Arc::new(image);
        // Bump after the slot swap: a reader seeing the new generation must
        // find the new image.
        self.generation.store(generation, Ordering::Release);
        generation
    }

    /// The currently installed image (locks the slot; reader threads should
    /// go through [`ImageReader`] instead).
    pub(crate) fn current(&self) -> Arc<StoreImage> {
        self.slot.lock().expect("image slot poisoned").clone()
    }

    /// The current generation counter.
    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// A per-thread cached reader handle.
    pub fn reader(self: &Arc<Self>) -> ImageReader {
        ImageReader {
            cached: self.current(),
            seen: self.generation(),
            cell: Arc::clone(self),
        }
    }
}

/// One reader thread's cached view of an [`ImageCell`] — see the cell docs
/// for the locking protocol.
#[derive(Debug)]
pub struct ImageReader {
    cell: Arc<ImageCell>,
    seen: u64,
    cached: Arc<StoreImage>,
}

impl ImageReader {
    /// The current image: one atomic load in the steady state, a slot
    /// refresh only when the writer installed a new generation.
    pub fn image(&mut self) -> &StoreImage {
        let current = self.cell.generation.load(Ordering::Acquire);
        if current != self.seen {
            self.cached = self.cell.current();
            self.seen = self.cached.generation;
        }
        &self.cached
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::collect::YearCollector;
    use crate::campaign::CampaignConfig;
    use synscan_wire::{Ipv4Address, ProbeRecord, TcpFlags};

    fn record(src: u32, dst: u32, port: u16, ts: u64) -> ProbeRecord {
        ProbeRecord {
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
        }
    }

    pub(super) fn analysis(year: u16) -> YearAnalysis {
        let cfg = CampaignConfig {
            min_distinct_dests: 5,
            min_rate_pps: 1.0,
            expiry_secs: 3600.0,
            monitored_addresses: 1 << 16,
        };
        let mut collector = YearCollector::new(year, cfg);
        for i in 0..40u32 {
            collector.offer(&record(10, 100 + i, 443, u64::from(i) * 250_000));
        }
        for i in 0..12u32 {
            collector.offer(&record(11, 200 + i, 22, u64::from(i) * 900_000 + 3));
        }
        collector.offer(&record(12, 300, 80, 5));
        collector.offer(&record(12, 301, 443, 6));
        collector.finish()
    }

    #[test]
    fn roundtrip_is_identity_and_deterministic() {
        let original = analysis(2019);
        let bytes = encode_year(&original);
        let decoded = decode_year(&bytes).expect("decodes");
        assert_eq!(decoded, original);
        // Deterministic: re-encoding the decoded value is byte-identical.
        assert_eq!(encode_year(&decoded), bytes);
    }

    #[test]
    fn meta_matches_body() {
        let original = analysis(2021);
        let bytes = encode_year(&original);
        let (meta, _) = open_slice(&bytes).expect("meta reads");
        assert_eq!(meta.year, 2021);
        assert_eq!(meta.total_packets, original.total_packets);
        assert_eq!(meta.distinct_sources, original.distinct_sources);
        assert_eq!(meta.campaigns, original.campaigns.len() as u64);
        assert_eq!(
            meta.ports,
            original.port_packets.keys().copied().collect::<Vec<_>>()
        );
        assert_eq!(meta.sources.len() as u64, original.distinct_sources);
    }

    #[test]
    fn corruption_yields_typed_errors_never_panics() {
        let bytes = encode_year(&analysis(2017));
        let envelope_error = |e: EnvelopeError| Err(StoreError::Envelope(e));
        // Truncated at every prefix length: typed error, no panic.
        for cut in [0, 7, 8, 12, 20, 27, 28, bytes.len() / 2, bytes.len() - 1] {
            let torn = envelope_error(EnvelopeError::Truncated);
            assert_eq!(decode_year(&bytes[..cut]), torn, "cut={cut}");
        }
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert_eq!(decode_year(&bad), envelope_error(EnvelopeError::BadMagic));
        // Unsupported major version (byte 8 is the major's low byte).
        let mut bad = bytes.clone();
        bad[8] = 99;
        let (found, expected) = (0x0001_0063, 0x0001_0001);
        assert_eq!(
            decode_year(&bad),
            envelope_error(EnvelopeError::UnsupportedVersion { found, expected })
        );
        // Flipped payload byte → checksum mismatch.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        let rotten = envelope_error(EnvelopeError::ChecksumMismatch);
        assert_eq!(decode_year(&bad), rotten);
    }

    /// Payload offsets of the sections the damage tests edit, from the
    /// layout `encode_year` writes: the fixed index fields, then
    /// length-prefixed runs whose entry sizes are fixed up to the sets.
    struct Layout {
        index_sources: usize,
        source_packets: usize,
        port_source_sets: usize,
    }

    fn layout(analysis: &YearAnalysis) -> Layout {
        let (ports, sources) = (analysis.port_packets.len(), analysis.source_packets.len());
        let index_ports = 2 + 6 * 8;
        let index_sources = index_ports + 8 + 2 * ports;
        let port_packets = index_sources + 8 + 4 * sources;
        let source_port_counts = port_packets + 2 * (8 + 10 * ports);
        let source_packets = source_port_counts + 8 + 8 * sources;
        Layout {
            index_sources,
            source_packets,
            port_source_sets: source_packets + 8 + 12 * sources,
        }
    }

    /// The payload a sealed slice carries.
    fn payload_of(sealed: &[u8]) -> Vec<u8> {
        envelope::open(&STORE, sealed)
            .expect("sealed slice")
            .to_vec()
    }

    fn u32_at(payload: &[u8], at: usize) -> u32 {
        u32::from_le_bytes(payload[at..at + 4].try_into().expect("4 bytes"))
    }

    /// The fixture year's payload after `damage`, under a valid checksum:
    /// what a writer that is not `encode_year` could have produced.
    fn damaged(damage: impl FnOnce(&mut Vec<u8>, Layout)) -> Result<YearAnalysis, StoreError> {
        let original = analysis(2019);
        let mut payload = payload_of(&encode_year(&original));
        damage(&mut payload, layout(&original));
        decode_year(&envelope::sealed(&STORE, &payload))
    }

    fn assert_corrupt(result: Result<YearAnalysis, StoreError>, section: &str) {
        match result {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains(section), "{msg}"),
            other => panic!("expected Corrupt naming {section:?}, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_source_is_corrupt_not_last_wins() {
        let result = damaged(|payload, at| {
            let first = at.source_packets + 8;
            assert_eq!(u32_at(payload, first), 10);
            assert_eq!(u32_at(payload, first + 12), 11);
            payload.copy_within(first..first + 4, first + 12);
        });
        assert_corrupt(result, "source packets");
    }

    #[test]
    fn swapped_adjacent_sources_are_corrupt() {
        let result = damaged(|payload, at| {
            let first = at.source_packets + 8;
            assert_eq!(u32_at(payload, first + 12), 11);
            let (a, b) = payload[first..first + 24].split_at_mut(12);
            a.swap_with_slice(b);
        });
        assert_corrupt(result, "source packets");
    }

    #[test]
    fn duplicate_member_in_a_port_set_is_corrupt() {
        let result = damaged(|payload, at| {
            // Ports 22 and 80 have one source each; 443 has sources 10, 12.
            let members = at.port_source_sets + 8 + 2 * (2 + 8 + 4) + 2 + 8;
            assert_eq!(u32_at(payload, members), 10);
            assert_eq!(u32_at(payload, members + 4), 12);
            payload.copy_within(members..members + 4, members + 4);
        });
        assert_corrupt(result, "port source sets");
    }

    #[test]
    fn index_listing_a_source_the_body_lacks_is_corrupt() {
        let result = damaged(|payload, at| {
            let last = at.index_sources + 8 + 2 * 4;
            assert_eq!(u32_at(payload, last), 12);
            payload[last..last + 4].copy_from_slice(&13u32.to_le_bytes());
        });
        assert_corrupt(result, "index sources");
    }

    #[test]
    fn campaign_ending_before_it_starts_is_corrupt() {
        // Swapped back they re-encode identically, so the canonical-decode
        // matrix below cannot see this one.
        let campaign = analysis(2019).campaigns[0].clone();
        assert!(campaign.first_ts_micros < campaign.last_ts_micros);
        let mut w = SnapWriter::new();
        campaign.snapshot_to(&mut w);
        let encoded = w.into_bytes();
        let result = damaged(|payload, _| {
            let at = (payload.windows(encoded.len()))
                .position(|window| window == encoded)
                .expect("the campaign is in the payload");
            let (first, last) = payload[at + 4..at + 20].split_at_mut(8);
            first.swap_with_slice(last);
        });
        assert_corrupt(result, "campaign ends before it starts");
    }

    /// A slice small enough to damage exhaustively: four sources over three
    /// ports, one of them a campaign, optionally with the sketch section.
    fn small_slice(heavy: bool) -> Vec<u8> {
        let mut collector = YearCollector::new(2020, tiny_cfg());
        if heavy {
            collector.enable_heavy_hitters(crate::sketch::HeavyHitterConfig {
                k: 2,
                width: 4,
                depth: 2,
            });
        }
        for i in 0..8u32 {
            collector.offer(&record(10, 100 + i, 443, u64::from(i) * 250_000));
        }
        collector.offer(&record(11, 200, 22, 3));
        collector.offer(&record(12, 300, 80, 5));
        collector.offer(&record(13, 301, 443, 6));
        let original = collector.finish();
        assert!(original.source_packets.len() >= 3 && original.port_packets.len() >= 2);
        assert_eq!(original.campaigns.len(), 1);
        assert_eq!(original.heavy.is_some(), heavy);
        let sealed = encode_year(&original);
        assert!(payload_of(&sealed).len() <= 4096);
        sealed
    }

    /// The canonical-decode rule: whatever `decode_year` accepts, it accepts
    /// in exactly one spelling — the bytes `encode_year` gives back.
    fn assert_typed_error_or_canonical(sealed: &[u8], what: &str) {
        if let Ok(decoded) = decode_year(sealed) {
            assert!(
                encode_year(&decoded) == sealed,
                "{what}: loaded, but re-encodes to different bytes"
            );
        }
    }

    #[test]
    fn resealed_damage_is_a_typed_error_or_decodes_canonically() {
        for heavy in [false, true] {
            let payload = payload_of(&small_slice(heavy));
            for cut in 0..payload.len() {
                let cut_slice = envelope::sealed(&STORE, &payload[..cut]);
                assert!(
                    decode_year(&cut_slice).is_err(),
                    "heavy={heavy}: payload cut at {cut} still loads"
                );
            }
            let mut flipped = payload.to_vec();
            for bit in 0..payload.len() * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_typed_error_or_canonical(
                    &envelope::sealed(&STORE, &flipped),
                    &format!("heavy={heavy}, payload bit {bit}"),
                );
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn unsealed_damage_never_gets_past_the_envelope() {
        // No field is exempt: the checksum covers the payload, and the whole
        // version word, minor half included, must match.
        for heavy in [false, true] {
            let sealed = small_slice(heavy);
            for cut in 0..sealed.len() {
                assert_eq!(
                    decode_year(&sealed[..cut]),
                    Err(StoreError::Envelope(EnvelopeError::Truncated)),
                    "heavy={heavy}: file cut at {cut}"
                );
            }
            let mut flipped = sealed.clone();
            for bit in 0..sealed.len() * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                let result = decode_year(&flipped);
                assert!(
                    matches!(
                        result,
                        Err(StoreError::Envelope(
                            EnvelopeError::Truncated
                                | EnvelopeError::Oversized(_)
                                | EnvelopeError::ChecksumMismatch
                                | EnvelopeError::BadMagic
                                | EnvelopeError::UnsupportedVersion { .. }
                        ))
                    ),
                    "heavy={heavy}, file bit {bit}: {result:?}"
                );
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn heavy_state_round_trips_through_the_slice() {
        use crate::sketch::HeavyHitterConfig;
        let cfg = CampaignConfig {
            min_distinct_dests: 5,
            min_rate_pps: 1.0,
            expiry_secs: 3600.0,
            monitored_addresses: 1 << 16,
        };
        let mut collector = YearCollector::new(2024, cfg);
        collector.enable_heavy_hitters(HeavyHitterConfig::with_k(8));
        for i in 0..60u32 {
            collector.offer(&record(10 + (i % 5), 100 + i, 443, u64::from(i) * 250_000));
        }
        let original = collector.finish();
        assert!(original.heavy.is_some());
        let bytes = encode_year(&original);
        let decoded = decode_year(&bytes).expect("decodes");
        assert_eq!(decoded, original);
        assert_eq!(encode_year(&decoded), bytes);
    }

    #[test]
    fn version_word_packs_major_low_minor_high() {
        // The word every slice since the heavy-hitter section carries, and
        // the only one this build reads; `stats` names it `STORE_VERSION`.
        let sealed = encode_year(&analysis(2016));
        assert_eq!(sealed[8..12], 0x0001_0001u32.to_le_bytes());
        let major = u16::from_le_bytes([sealed[8], sealed[9]]);
        let minor = u16::from_le_bytes([sealed[10], sealed[11]]);
        assert_eq!(format!("{major}.{minor}"), STORE_VERSION);
    }

    /// `sealed` under the version word `found`, which no checksum covers.
    fn sealed_as(mut sealed: Vec<u8>, found: u32) -> Vec<u8> {
        sealed[8..12].copy_from_slice(&found.to_le_bytes());
        sealed
    }

    /// The typed error a slice sealed under `found` gets from this build.
    fn unsupported(found: u32) -> StoreError {
        let expected = 0x0001_0001;
        StoreError::Envelope(EnvelopeError::UnsupportedVersion { found, expected })
    }

    #[test]
    fn a_slice_of_another_version_is_unsupported_and_says_re_run() {
        let dir = std::env::temp_dir().join(format!("synstore-t5-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = AnalysisStore::open(&dir).expect("open");
        // A 1.0 slice (the bare word 1) and a newer minor of major 1.
        for found in [1u32, 0x0002_0001] {
            let other = sealed_as(encode_year(&analysis(2022)), found);
            let err = decode_year(&other).unwrap_err();
            assert_eq!(err, unsupported(found));
            assert!(err.to_string().contains("re-run"), "{err}");
            fs::write(store.slice_path(2022), &other).expect("write slice");
            let path = store.slice_path(2022);
            let named = StoreError::File {
                path,
                error: Box::new(err),
            };
            assert_eq!(StoreImage::load(&store).unwrap_err(), named);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_newer_minor_slice_is_unsupported_and_appended_sections_are_corrupt() {
        // What a minor-2 writer might add: today's body plus a new section.
        let mut payload = payload_of(&encode_year(&analysis(2022)));
        payload.extend_from_slice(b"future-section-bytes");
        let newer = sealed_as(envelope::sealed(&STORE, &payload), 0x0002_0001);
        assert_eq!(decode_year(&newer), Err(unsupported(0x0002_0001)));
        // The same trailing bytes under this build's own word are corruption.
        assert!(matches!(
            decode_year(&envelope::sealed(&STORE, &payload)),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn store_write_load_year() {
        let dir = std::env::temp_dir().join(format!("synstore-t1-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = AnalysisStore::open(&dir).expect("open");
        let original = analysis(2020);
        store.write_year(&original).expect("write");
        let image = StoreImage::load(&store).expect("load");
        assert_eq!(image.year_list(), vec![2020]);
        assert_eq!(image.years, vec![original]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_slices_for_one_year_are_corrupt_naming_both_files() {
        // A stray copy of a slice, and a full slice beside a partial a crash
        // left behind: either would count the year twice.
        let full = encode_year(&analysis(2018));
        let mut part = YearCollector::new(2018, tiny_cfg());
        for i in 0..12u32 {
            part.offer(&record(21, 400 + i, 443, u64::from(i) * 100_000));
        }
        let part = encode_year(&part.finish());
        for (name, bytes) in [
            ("year-2018 copy.store", &full),
            ("year-2018.part-p0of2.store", &part),
        ] {
            let dir = std::env::temp_dir().join(format!("synstore-t2-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            let store = AnalysisStore::open(&dir).expect("open");
            let first = store.write_year(&analysis(2018)).expect("write");
            store.write_year(&analysis(2019)).expect("another year");
            let second = dir.join(name);
            fs::write(&second, bytes).expect("second slice");
            match StoreImage::load(&store) {
                Err(err @ StoreError::Corrupt(_)) => {
                    let msg = err.to_string();
                    for path in [&first, &second] {
                        assert!(msg.contains(&*path.to_string_lossy()), "{name}: {msg}");
                    }
                }
                other => panic!("{name}: expected Corrupt, got {other:?}"),
            }
            fs::remove_file(&second).expect("remove the second slice");
            let image = StoreImage::load(&store).expect("load");
            assert_eq!(image.year_list(), [2018, 2019]);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    fn tiny_cfg() -> CampaignConfig {
        CampaignConfig {
            min_distinct_dests: 5,
            min_rate_pps: 1.0,
            expiry_secs: 3600.0,
            monitored_addresses: 1 << 16,
        }
    }

    #[test]
    fn image_carries_per_year_slice_stats() {
        let dir = std::env::temp_dir().join(format!("synstore-t6-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = AnalysisStore::open(&dir).expect("open");
        for year in [2015, 2016] {
            store.write_year(&analysis(year)).expect("write");
        }

        let image = StoreImage::load(&store).expect("image");
        assert_eq!(image.slice_files, 2);
        let stats: Vec<_> = image.slices.iter().map(|s| (s.year, s.files)).collect();
        assert_eq!(stats, [(2015, 1), (2016, 1)]);
        for stat in &image.slices {
            let on_disk = fs::metadata(store.slice_path(stat.year)).expect("meta");
            assert_eq!(stat.bytes, on_disk.len());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn image_cell_swap_protocol() {
        let image = StoreImage {
            years: vec![analysis(2015)],
            ..StoreImage::default()
        };
        let cell = ImageCell::new(image);
        let mut reader = cell.reader();
        assert_eq!(reader.image().generation, 1);
        assert_eq!(reader.image().year_list(), vec![2015]);

        let next = StoreImage {
            years: vec![analysis(2015), analysis(2016)],
            ..StoreImage::default()
        };
        let generation = cell.install(next);
        assert_eq!(generation, 2);
        assert_eq!(reader.image().generation, 2);
        assert_eq!(reader.image().year_list(), vec![2015, 2016]);
    }
}
