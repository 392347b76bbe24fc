//! Versioned on-disk **analysis store** — the persistence layer between the
//! batch pipeline and the resident query daemon.
//!
//! A store is a directory of `*.store` files, one (or, for incrementally
//! ingested runs, several partial) slice(s) per year. Each file is a
//! `SYNSTORE` envelope ([`crate::envelope`]: magic, version, payload length,
//! checksum), written atomically so a crash mid-write can never destroy a
//! previous slice.
//!
//! The payload is two sections:
//!
//! 1. an **index** (year, window, totals, sorted port list, sorted source
//!    list, campaign count) that can be read without decoding the body, and
//! 2. the full [`YearAnalysis`] **body**, every map serialized in sorted key
//!    order — the order the analysis already holds them in — so encoding is
//!    deterministic: encode → decode → encode is byte-identical, which is
//!    what the equivalence suites lean on. The decoder holds a slice to that
//!    canonical form: keys strictly ascending, the index equal to the body's
//!    own keys. A slice it accepts re-encodes to the bytes it was read from.
//!
//! On the read side, [`StoreImage`] is the compact in-memory image the
//! `synscan-serve` daemon holds resident: all slices loaded, same-year
//! partials recombined through [`YearAnalysis::merge_partials`], years
//! ascending, published to reader threads through an [`ImageCell`].

use std::collections::BTreeMap;
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
    /// Structurally invalid slice contents.
    Corrupt(String),
    /// A year was requested that no slice in the store covers.
    MissingYear(u16),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Envelope(e) => write!(f, "store slice {e}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt store slice: {msg}"),
            StoreError::MissingYear(y) => write!(f, "no store slice covers year {y}"),
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

/// The decoded index section of one slice file — enough to route queries
/// and group partials without decoding the (much larger) body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceMeta {
    /// Calendar year the slice covers.
    pub year: u16,
    /// Telescope size the campaign thresholds were computed against.
    pub monitored: u64,
    /// First admitted timestamp (µs).
    pub start_micros: u64,
    /// Last admitted timestamp (µs).
    pub end_micros: u64,
    /// Admitted packets in the slice.
    pub total_packets: u64,
    /// Distinct scanning sources in the slice.
    pub distinct_sources: u64,
    /// Campaigns identified in the slice.
    pub campaigns: u64,
    /// Every targeted port, ascending.
    pub ports: Vec<u16>,
    /// Every scanning source (host-order IPv4), ascending.
    pub sources: Vec<u32>,
    /// Whole slice-file size in bytes, envelope included.
    pub file_bytes: u64,
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
    let mut w = SnapWriter::new();
    encode_meta(&mut w, analysis);

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
        campaign.snapshot_to(&mut w);
    }
    analysis.noise.snapshot_to(&mut w);

    // The heavy-hitter sketch state, presence-tagged.
    match &analysis.heavy {
        None => w.put_u8(0),
        Some(heavy) => {
            w.put_u8(1);
            heavy.snapshot_to(&mut w);
        }
    }

    envelope::seal(&STORE, &w.into_bytes())
}

/// Verify the envelope and decode the index section, leaving the reader at
/// the body. Every reader goes through this once per file: whoever wants the
/// body too decodes it from the same bytes ([`decode_body`]).
fn open_slice(bytes: &[u8]) -> Result<(SliceMeta, SnapReader<'_>), StoreError> {
    let mut r = SnapReader::new(envelope::open(&STORE, bytes)?);
    let meta = decode_meta(&mut r, bytes.len() as u64)?;
    Ok((meta, r))
}

/// Read just the index section of slice-file bytes, plus the file size the
/// `stats` query reports.
pub fn read_meta(bytes: &[u8]) -> Result<SliceMeta, StoreError> {
    Ok(open_slice(bytes)?.0)
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

    /// Path of the full (promoted) slice for `year`.
    pub fn slice_path(&self, year: u16) -> PathBuf {
        self.dir.join(format!("year-{year}.store"))
    }

    /// Path of a partial slice for `year` tagged `label` (e.g. a shard or
    /// worker id) — the incremental-ingest unit merged at load time.
    pub(crate) fn partial_path(&self, year: u16, label: &str) -> PathBuf {
        self.dir.join(format!("year-{year}.part-{label}.store"))
    }

    /// Atomically write the full slice for `analysis.year`, then retire any
    /// partial slices for the same year (the full slice supersedes them —
    /// keeping both would double-count at load time).
    pub fn write_year(&self, analysis: &YearAnalysis) -> Result<PathBuf, StoreError> {
        let path = self.slice_path(analysis.year);
        envelope::write_atomic(&path, &encode_year(analysis))?;
        let partial_prefix = format!("year-{}.part-", analysis.year);
        for file in self.slice_files()? {
            let name = file.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with(&partial_prefix) {
                fs::remove_file(&file).map_err(|e| envelope::io_error("remove", &file, e))?;
            }
        }
        Ok(path)
    }

    /// Atomically write a partial slice (one shard / worker / ingest batch
    /// of a year). Same-year partials are recombined bit-identically at
    /// load time via [`YearAnalysis::merge_partials`].
    pub fn write_partial(
        &self,
        analysis: &YearAnalysis,
        label: &str,
    ) -> Result<PathBuf, StoreError> {
        if label.is_empty() || !label.chars().all(|c| c.is_ascii_alphanumeric() || c == '-') {
            return Err(StoreError::Corrupt(format!(
                "partial label {label:?} must be non-empty alphanumeric/dash"
            )));
        }
        let path = self.partial_path(analysis.year, label);
        envelope::write_atomic(&path, &encode_year(analysis))?;
        Ok(path)
    }

    /// Every slice file currently in the store, sorted by file name.
    pub(crate) fn slice_files(&self) -> Result<Vec<PathBuf>, StoreError> {
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

    fn read_file(path: &Path) -> Result<Vec<u8>, StoreError> {
        fs::read(path).map_err(|e| envelope::io_error("read", path, e).into())
    }

    /// Index every slice without decoding bodies: `(path, meta)` pairs in
    /// file-name order.
    pub(crate) fn index(&self) -> Result<Vec<(PathBuf, SliceMeta)>, StoreError> {
        let mut out = Vec::new();
        for path in self.slice_files()? {
            let bytes = Self::read_file(&path)?;
            let meta = read_meta(&bytes).map_err(|e| annotate_slice_error(e, &path))?;
            out.push((path, meta));
        }
        Ok(out)
    }

    /// Distinct years covered by the store, ascending.
    pub fn years(&self) -> Result<Vec<u16>, StoreError> {
        let mut years: Vec<u16> = self.index()?.into_iter().map(|(_, m)| m.year).collect();
        years.sort_unstable();
        years.dedup();
        Ok(years)
    }

    /// Read every slice file once — one read, one checksum — and decode the
    /// body of those whose index section passes `wanted`, in file-name order.
    fn read_slices(
        &self,
        wanted: impl Fn(&SliceMeta) -> bool,
    ) -> Result<Vec<(SliceMeta, YearAnalysis)>, StoreError> {
        let mut out = Vec::new();
        for path in self.slice_files()? {
            let bytes = Self::read_file(&path)?;
            let slice = open_slice(&bytes).and_then(|(meta, body)| {
                if !wanted(&meta) {
                    return Ok(None);
                }
                let analysis = decode_body(&meta, body)?;
                Ok(Some((meta, analysis)))
            });
            out.extend(slice.map_err(|e| annotate_slice_error(e, &path))?);
        }
        Ok(out)
    }

    /// Load one year, merging same-year partial slices bit-identically.
    pub fn load_year(&self, year: u16) -> Result<YearAnalysis, StoreError> {
        merge_years(self.read_slices(|meta| meta.year == year)?)
            .pop()
            .ok_or(StoreError::MissingYear(year))
    }
}

/// Group decoded slices by year, ascending, recombining same-year partials
/// through [`YearAnalysis::merge_partials`].
fn merge_years(slices: Vec<(SliceMeta, YearAnalysis)>) -> Vec<YearAnalysis> {
    let mut by_year: BTreeMap<u16, Vec<YearAnalysis>> = BTreeMap::new();
    for (_, analysis) in slices {
        by_year.entry(analysis.year).or_default().push(analysis);
    }
    by_year
        .into_values()
        .map(|mut partials| {
            if partials.len() == 1 {
                partials.pop().expect("one partial")
            } else {
                YearAnalysis::merge_partials(partials)
            }
        })
        .collect()
}

/// Attach the offending file path to a decode error's message.
fn annotate_slice_error(err: StoreError, path: &Path) -> StoreError {
    match err {
        StoreError::Corrupt(msg) => StoreError::Corrupt(format!("{}: {msg}", path.display())),
        other => other,
    }
}

/// Per-year slice accounting the `stats` query reports: how many files back
/// the year and their combined on-disk size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct YearSliceStat {
    /// Calendar year the slices cover.
    pub year: u16,
    /// Slice files (1 for a promoted year, more for unmerged partials).
    pub files: u64,
    /// Combined slice-file bytes, envelopes included.
    pub bytes: u64,
}

/// The read-mostly in-memory image the daemon serves from: every year in
/// the store, decoded and merged, ascending.
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
    pub fn load(store: &AnalysisStore) -> Result<Self, StoreError> {
        let slices = store.read_slices(|_| true)?;
        let slice_files = slices.len();
        let mut by_year: BTreeMap<u16, YearSliceStat> = BTreeMap::new();
        for (meta, _) in &slices {
            let stat = by_year.entry(meta.year).or_insert(YearSliceStat {
                year: meta.year,
                files: 0,
                bytes: 0,
            });
            stat.files += 1;
            stat.bytes += meta.file_bytes;
        }
        Ok(Self {
            generation: 0,
            slice_files,
            slices: by_year.into_values().collect(),
            years: merge_years(slices),
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
        let meta = read_meta(&bytes).expect("meta reads");
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
        decode_year(&envelope::seal(&STORE, &payload))
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
                let cut_slice = envelope::seal(&STORE, &payload[..cut]);
                assert!(
                    decode_year(&cut_slice).is_err(),
                    "heavy={heavy}: payload cut at {cut} still loads"
                );
            }
            let mut flipped = payload.to_vec();
            for bit in 0..payload.len() * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_typed_error_or_canonical(
                    &envelope::seal(&STORE, &flipped),
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
            assert_eq!(store.load_year(2022), Err(err));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_newer_minor_slice_is_unsupported_and_appended_sections_are_corrupt() {
        // What a minor-2 writer might add: today's body plus a new section.
        let mut payload = payload_of(&encode_year(&analysis(2022)));
        payload.extend_from_slice(b"future-section-bytes");
        let newer = sealed_as(envelope::seal(&STORE, &payload), 0x0002_0001);
        assert_eq!(decode_year(&newer), Err(unsupported(0x0002_0001)));
        // The same trailing bytes under this build's own word are corruption.
        assert!(matches!(
            decode_year(&envelope::seal(&STORE, &payload)),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn a_newer_minor_partial_fails_its_year_through_the_store() {
        // A partial from a newer worker build is refused, typed, not merged
        // or skipped: the year it would have changed does not load.
        let dir = std::env::temp_dir().join(format!("synstore-t7-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = AnalysisStore::open(&dir).expect("open");
        let shard = |src: u32| {
            let mut c = YearCollector::with_origin(2023, tiny_cfg(), 7.0, 0);
            for i in 0..30u32 {
                c.offer(&record(src, 100 + i, 22, u64::from(i) * 100_000));
            }
            c.finish()
        };
        store
            .write_partial(&shard(51), "old")
            .expect("current partial");
        let newer = sealed_as(encode_year(&shard(52)), 0x0002_0001);
        fs::write(store.partial_path(2023, "new"), &newer).expect("write newer partial");
        assert_eq!(store.index(), Err(unsupported(0x0002_0001)));
        assert_eq!(store.load_year(2023), Err(unsupported(0x0002_0001)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_write_load_year() {
        let dir = std::env::temp_dir().join(format!("synstore-t1-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = AnalysisStore::open(&dir).expect("open");
        let original = analysis(2020);
        store.write_year(&original).expect("write");
        assert_eq!(store.years().expect("years"), vec![2020]);
        assert_eq!(store.load_year(2020).expect("load"), original);
        assert_eq!(store.load_year(2021), Err(StoreError::MissingYear(2021)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn partials_merge_and_full_slice_supersedes() {
        let dir = std::env::temp_dir().join(format!("synstore-t2-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = AnalysisStore::open(&dir).expect("open");

        // Two disjoint-source partials of the same year.
        let cfg = CampaignConfig {
            min_distinct_dests: 5,
            min_rate_pps: 1.0,
            expiry_secs: 3600.0,
            monitored_addresses: 1 << 16,
        };
        let mut c1 = YearCollector::new(2018, cfg);
        let mut c2 = YearCollector::new(2018, cfg);
        for i in 0..20u32 {
            c1.offer(&record(21, 400 + i, 443, u64::from(i) * 100_000));
            c2.offer(&record(22, 500 + i, 23, u64::from(i) * 100_000 + 1));
        }
        let p1 = c1.finish();
        let p2 = c2.finish();
        let merged = YearAnalysis::merge_partials(vec![p1.clone(), p2.clone()]);

        store.write_partial(&p1, "shard0").expect("p1");
        store.write_partial(&p2, "shard1").expect("p2");
        assert_eq!(store.slice_files().expect("files").len(), 2);
        assert_eq!(store.load_year(2018).expect("merged"), merged);

        // Promoting the full slice retires the partials.
        store.write_year(&merged).expect("promote");
        assert_eq!(store.slice_files().expect("files").len(), 1);
        assert_eq!(store.load_year(2018).expect("full"), merged);

        assert!(store.write_partial(&merged, "bad label").is_err());
        let _ = fs::remove_dir_all(&dir);
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
    fn empty_partials_merge_as_identity() {
        // A shard that admitted nothing still writes a (valid, empty)
        // partial; loading the year must merge it away without disturbing
        // the busy partial's analysis.
        let dir = std::env::temp_dir().join(format!("synstore-t3-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = AnalysisStore::open(&dir).expect("open");

        let mut busy = YearCollector::with_origin(2019, tiny_cfg(), 7.0, 0);
        for i in 0..25u32 {
            busy.offer(&record(31, 700 + i, 443, u64::from(i) * 90_000));
        }
        let busy = busy.finish();
        let empty = YearCollector::with_origin(2019, tiny_cfg(), 7.0, 0).finish();
        assert_eq!(empty.total_packets, 0);

        store.write_partial(&busy, "shard0").expect("busy partial");
        store
            .write_partial(&empty, "shard1")
            .expect("empty partial");
        let loaded = store.load_year(2019).expect("merged");
        assert_eq!(
            loaded,
            YearAnalysis::merge_partials(vec![busy.clone(), empty])
        );
        assert_eq!(loaded.total_packets, busy.total_packets);
        assert_eq!(loaded.campaigns, busy.campaigns);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn many_duplicate_year_partials_merge_to_one_year() {
        // Several partials of the same year — more than the usual two, with
        // an empty one mixed in — must collapse into one merged analysis,
        // and `years()` must report the year exactly once.
        let dir = std::env::temp_dir().join(format!("synstore-t4-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = AnalysisStore::open(&dir).expect("open");

        let shard = |src: u32, n: u32| {
            let mut c = YearCollector::with_origin(2021, tiny_cfg(), 7.0, 0);
            for i in 0..n {
                c.offer(&record(src, 100 + i, 80, u64::from(i) * 120_000));
            }
            c.finish()
        };
        let parts = vec![
            shard(41, 15),
            shard(42, 10),
            shard(43, 20),
            YearCollector::with_origin(2021, tiny_cfg(), 7.0, 0).finish(),
        ];
        for (i, p) in parts.iter().enumerate() {
            store.write_partial(p, &format!("w{i}")).expect("partial");
        }
        assert_eq!(store.slice_files().expect("files").len(), 4);
        assert_eq!(store.years().expect("years"), vec![2021]);
        let loaded = store.load_year(2021).expect("merged");
        assert_eq!(loaded, YearAnalysis::merge_partials(parts));
        assert_eq!(loaded.total_packets, 45);
        assert_eq!(loaded.distinct_sources, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn image_carries_per_year_slice_stats() {
        let dir = std::env::temp_dir().join(format!("synstore-t6-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = AnalysisStore::open(&dir).expect("open");
        store.write_year(&analysis(2015)).expect("write 2015");
        let p = analysis(2016);
        store.write_partial(&p, "a").expect("partial a");
        store.write_partial(&p, "b").expect("partial b");

        let image = StoreImage::load(&store).expect("image");
        assert_eq!(image.slice_files, 3);
        assert_eq!(image.slices.len(), 2);
        let s2015 = image
            .slices
            .iter()
            .find(|s| s.year == 2015)
            .expect("2015 stat");
        assert_eq!(s2015.files, 1);
        assert_eq!(
            s2015.bytes,
            fs::metadata(store.slice_path(2015)).expect("meta").len()
        );
        let s2016 = image
            .slices
            .iter()
            .find(|s| s.year == 2016)
            .expect("2016 stat");
        assert_eq!(s2016.files, 2);
        assert_eq!(s2016.bytes, 2 * encode_year(&p).len() as u64);
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
