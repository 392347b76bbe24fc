//! The five workloads: input sizes, set-up, reference results and the timed
//! reps. Every call into the program under test goes through a `pub` item
//! of the six crates; nothing is mirrored.

use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use synscan_core::analysis::yearly::{summarize, YearSummary};
use synscan_core::analysis::YearAnalysis;
use synscan_core::checkpoint::{CheckpointError, SnapReader, SnapWriter};
use synscan_core::distrib::{self, Message, SliceTask};
use synscan_core::pipeline::supervised::AdmitState;
use synscan_core::report::{self, CampaignLookup, PortTrend, SourceHistory};
use synscan_core::store::{decode_year, encode_year};
use synscan_core::{
    merge_slices, plan_slices, run_slice, try_collect_year_stream, AnalysisStore, CampaignConfig,
    Checkpoint, HeavyHitterConfig, PipelineMode, SizeHints, StoreImage,
};
use synscan_telescope::capture::{export_pcap, CaptureStats, PcapStream};
use synscan_telescope::{AddressSet, CaptureSession};
use synscan_wire::stream::{FaultPolicy, InfallibleStream, SliceStream, TryRecordStream};
use synscan_wire::{IngestQueues, Ipv4Address, MappedCapture, ProbeRecord};

use crate::gen::{self, CAMPAIGN, TAIL};
use crate::procfs::Usage;
use crate::stats::digest;
use crate::trace::{spanned, Tracer};

/// Capture year of workloads 1–4: after 2017, so the ingress policy blocks
/// 23 and 445.
pub const YEAR: u16 = 2020;
/// Volatility period for the 7-day window (one day, so week×/16 cells have
/// several periods to compare, as the short-window runs of `repro` do).
pub const PERIOD_DAYS: f64 = 1.0;
/// Years of the store that `store_lookup` reads.
pub const STORE_YEARS: [u16; 4] = [2019, 2020, 2021, 2022];
/// `summarize` ranking depth, as the serve path uses.
pub const TOP_N: usize = 10;

// Input sizes. The issue sized a warm rep at 2–5 s; the contract's budget
// (114 runs in 3420 s) is tighter, so every count is shrunk in proportion to
// put a warm rep near half a second and leave room for well over five.
/// Sources of the campaign mix (about 0.9 M records).
pub const CAMPAIGN_SOURCES: usize = 100_000;
/// Sources of the tail mix (about 2 M records, a 140 MB capture).
pub const TAIL_SOURCES: usize = 1_000_000;
/// Sources per year of the 4-year store.
pub const STORE_SOURCES: usize = 20_000;
/// Lookups one `store_lookup` rep issues.
pub const LOOKUPS: usize = 10_000;
/// Full passes over the capture in one `census_mmap_queues` rep.
pub const CENSUS_PASSES: usize = 2;
/// Source partitions `slice_ckpt` splits the year into.
pub const SLICE_PARTS: u32 = 2;
/// Checkpoints each slice streams (the issue asks for 5–8).
pub const CHECKPOINTS_PER_SLICE: u64 = 6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CampaignStreamSeq,
    TailPcapSharded,
    CensusMmapQueues,
    SliceCkpt,
    StoreLookup,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::CampaignStreamSeq,
        Workload::TailPcapSharded,
        Workload::CensusMmapQueues,
        Workload::SliceCkpt,
        Workload::StoreLookup,
    ];

    pub fn name(self) -> &'static str {
        crate::metrics::WORKLOADS[self as usize].name
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload reads the tail capture from `input.pcap` (else
    /// it holds the campaign mix in memory).
    fn reads_pcap(self) -> bool {
        matches!(self, Workload::TailPcapSharded | Workload::CensusMmapQueues)
    }

    /// Collector hints the workload runs its pipeline with: only the sharded
    /// tail run turns the heavy-hitter sketch on.
    pub fn hints(self) -> SizeHints {
        let heavy = (self == Workload::TailPcapSharded).then(HeavyHitterConfig::default);
        SizeHints::none().with_heavy(heavy)
    }
}

/// Worker and queue count of the parallel arms: the machine's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn campaign_config(dark: &AddressSet) -> CampaignConfig {
    CampaignConfig::scaled(dark.len() as u64)
}

/// Where one run keeps its inputs and outputs.
#[derive(Debug, Clone)]
pub struct RunDir(pub PathBuf);

impl RunDir {
    pub fn pcap(&self) -> PathBuf {
        self.0.join("input.pcap")
    }
    pub fn store_in(&self) -> PathBuf {
        self.0.join("store-in")
    }
    pub fn store_out(&self) -> PathBuf {
        self.0.join("store-out")
    }
    pub fn reference(&self) -> PathBuf {
        self.0.join("reference")
    }
    pub fn lookups(&self) -> PathBuf {
        self.0.join("lookups")
    }
}

/// `CaptureSession` as the checkpointable admit filter `run_slice` wants.
/// (The repository's own adapter lives in the root package, which does not
/// compile offline yet.)
pub struct SessionAdmit<'a>(pub CaptureSession<'a>);

pub fn stats_fields(s: &CaptureStats) -> [u64; 7] {
    [
        s.offered,
        s.not_dark,
        s.outage_lost,
        s.ingress_blocked,
        s.backscatter,
        s.other_scan_techniques,
        s.admitted,
    ]
}

impl AdmitState for SessionAdmit<'_> {
    fn admit(&mut self, record: &ProbeRecord) -> bool {
        self.0.offer(record)
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        for value in stats_fields(&self.0.stats()) {
            w.put_u64(value);
        }
        w.into_bytes()
    }

    fn restore(&mut self, blob: &[u8]) -> Result<(), CheckpointError> {
        let mut r = SnapReader::new(blob);
        self.0.restore_stats(CaptureStats {
            offered: r.take_u64()?,
            not_dark: r.take_u64()?,
            outage_lost: r.take_u64()?,
            ingress_blocked: r.take_u64()?,
            backscatter: r.take_u64()?,
            other_scan_techniques: r.take_u64()?,
            admitted: r.take_u64()?,
        });
        Ok(())
    }
}

// ---------------------------------------------------------------- set-up

/// What set-up hands to the reference computation.
pub enum Inputs {
    /// Workloads 1–4: the records behind `input.pcap`.
    Records(Vec<ProbeRecord>),
    /// Workload 5: the analyses behind the store, before they were stored.
    Years(Vec<YearAnalysis>),
}

/// Build the workload's inputs: generate, and where the workload reads a
/// file, export the pcap or build the store under `dir`. This is what
/// `setup_s` times.
pub fn set_up(workload: Workload, seed: u64, dark: &AddressSet, dir: &RunDir) -> Inputs {
    if workload == Workload::StoreLookup {
        let store = AnalysisStore::open(dir.store_in()).expect("open input store");
        let years = STORE_YEARS
            .iter()
            .map(|&year| {
                let records = gen::generate(dark, &CAMPAIGN, STORE_SOURCES, year, seed);
                let (analysis, _) = sequential_year(dark, year, SizeHints::none(), &records);
                store.write_year(&analysis).expect("write input slice");
                analysis
            })
            .collect();
        return Inputs::Years(years);
    }
    if !workload.reads_pcap() {
        return Inputs::Records(gen::generate(dark, &CAMPAIGN, CAMPAIGN_SOURCES, YEAR, seed));
    }
    let records = gen::generate(dark, &TAIL, TAIL_SOURCES, YEAR, seed);
    let file = File::create(dir.pcap()).expect("create input.pcap");
    let mut writer = export_pcap(&records, BufWriter::new(file)).expect("export pcap");
    writer.flush().expect("flush input.pcap");
    Inputs::Records(records)
}

/// Push what set-up wrote out to the disk before anything is timed: the
/// program's own `write_year` fsyncs, and would otherwise wait behind the
/// benchmark's dirty pages.
pub fn quiesce(workload: Workload, dir: &RunDir) {
    if workload.reads_pcap() {
        let file = File::open(dir.pcap()).expect("open input.pcap");
        file.sync_all().expect("sync input.pcap");
    }
}

/// The sequential driver over an in-memory slice: the reference every other
/// arm is compared with.
pub fn sequential_year(
    dark: &AddressSet,
    year: u16,
    hints: SizeHints,
    records: &[ProbeRecord],
) -> (YearAnalysis, CaptureStats) {
    let mut session = CaptureSession::new(dark, year);
    let mut slice = SliceStream::new(records);
    let outcome = try_collect_year_stream(
        year,
        campaign_config(dark),
        PERIOD_DAYS,
        PipelineMode::Sequential,
        hints,
        FaultPolicy::Fail,
        &mut InfallibleStream(&mut slice),
        |r| session.offer(r),
    )
    .expect("sequential reference run");
    (outcome.analysis, session.stats())
}

/// Digest of the count-min half of a run's sketch: the half that merges
/// bit-identically across shards (the top-K tracker does not, past capacity).
fn sketch_digest(analysis: &YearAnalysis) -> u64 {
    analysis.heavy.as_ref().map_or(0, |heavy| {
        let mut w = SnapWriter::new();
        heavy.count_min().snapshot_to(&mut w);
        digest(&w.into_bytes())
    })
}

/// The reference results of one run, as the measuring process reads them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reference {
    pub records: u64,
    pub pcap_bytes: u64,
    /// Digest of `encode_year` of the sequential analysis, sketch removed.
    pub year_digest: u64,
    /// Digest of the sequential run's count-min sketch (0 without sketch).
    pub sketch_digest: u64,
    pub stats: [u64; 7],
    pub distinct_sources: u64,
    pub campaigns: u64,
}

impl Reference {
    /// Run the sequential reference over the records set-up generated.
    pub fn compute(
        workload: Workload,
        dark: &AddressSet,
        dir: &RunDir,
        records: &[ProbeRecord],
    ) -> Self {
        let (mut analysis, stats) = sequential_year(dark, YEAR, workload.hints(), records);
        let sketch_digest = sketch_digest(&analysis);
        analysis.heavy = None;
        Self {
            records: records.len() as u64,
            pcap_bytes: fs::metadata(dir.pcap()).map_or(0, |m| m.len()),
            year_digest: digest(&encode_year(&analysis)),
            sketch_digest,
            stats: stats_fields(&stats),
            distinct_sources: analysis.distinct_sources,
            campaigns: analysis.campaigns.len() as u64,
        }
    }

    pub fn admitted(&self) -> u64 {
        self.stats[6]
    }

    pub fn write(&self, path: &Path) {
        let mut fields = vec![
            self.records,
            self.pcap_bytes,
            self.year_digest,
            self.sketch_digest,
            self.distinct_sources,
            self.campaigns,
        ];
        fields.extend(self.stats);
        let text: Vec<String> = fields.iter().map(u64::to_string).collect();
        fs::write(path, text.join(" ")).expect("write reference");
    }

    pub fn read(path: &Path) -> Self {
        let text = fs::read_to_string(path).expect("read reference");
        let fields: Vec<u64> = text
            .split_whitespace()
            .map(|f| f.parse().expect("numeric reference field"))
            .collect();
        assert_eq!(fields.len(), 13, "reference file has 13 fields");
        Self {
            records: fields[0],
            pcap_bytes: fields[1],
            year_digest: fields[2],
            sketch_digest: fields[3],
            distinct_sources: fields[4],
            campaigns: fields[5],
            stats: fields[6..13].try_into().expect("seven counters"),
        }
    }
}

// --------------------------------------------------------------- lookups

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    Source(Ipv4Address),
    Campaigns(Ipv4Address),
    Port(u16),
    Summary(u16),
}

/// A lookup's answer, kept until the untimed check.
pub enum Answer {
    Source(SourceHistory),
    Campaigns(CampaignLookup),
    Port(PortTrend),
    Summary(Option<YearSummary>),
}

impl Lookup {
    /// Index of the lookup's class in per-class tallies.
    pub fn class(self) -> usize {
        match self {
            Lookup::Source(_) => 0,
            Lookup::Campaigns(_) => 1,
            Lookup::Port(_) => 2,
            Lookup::Summary(_) => 3,
        }
    }

    /// Answer from decoded years, as `store::query::answer` does before it
    /// renders (rendering needs `serde_json`, which is a stand-in here).
    pub fn answer(self, years: &[YearAnalysis]) -> Answer {
        match self {
            Lookup::Source(ip) => Answer::Source(report::source_history(years, ip)),
            Lookup::Campaigns(ip) => Answer::Campaigns(report::campaign_lookup(years, ip)),
            Lookup::Port(port) => Answer::Port(report::port_trend(years, port)),
            Lookup::Summary(year) => Answer::Summary(
                years
                    .iter()
                    .find(|a| a.year == year)
                    .map(|a| summarize(a, TOP_N)),
            ),
        }
    }
}

/// What set-up recorded about a lookup's answer from the pre-store analyses.
#[derive(Debug, Clone, PartialEq)]
pub enum Expected {
    /// Digest of the answer's `Debug` rendering: every field, in order.
    Digest(u64),
    /// A year summary's numbers ([`summary_numbers`]). `summarize` adds the
    /// per-tool packet shares in hash-map order, so two runs over equal
    /// analyses differ in the last bits; these compare within 1e-9.
    Numbers(Vec<f64>),
}

/// Every number of a summary, in field order; map keys are folded into a
/// digest so a renamed or missing key still shows.
fn summary_numbers(summary: Option<&YearSummary>) -> Vec<f64> {
    let Some(s) = summary else { return Vec::new() };
    let mut out = vec![
        f64::from(s.year),
        s.packets_per_day,
        s.distinct_sources as f64,
        s.scans_per_month,
        s.total_scans as f64,
    ];
    for ranking in [
        &s.top_ports_by_packets,
        &s.top_ports_by_sources,
        &s.top_ports_by_scans,
    ] {
        out.push(ranking.len() as f64);
        out.extend(
            ranking
                .iter()
                .flat_map(|&(port, share)| [f64::from(port), share]),
        );
    }
    for shares in [&s.tool_scan_shares, &s.tool_packet_shares] {
        let keys: Vec<&str> = shares.keys().map(String::as_str).collect();
        out.push((digest(keys.join(",").as_bytes()) >> 32) as f64);
        out.extend(shares.values());
    }
    out
}

impl Answer {
    pub fn expected(&self) -> Expected {
        let text = match self {
            Answer::Source(a) => format!("{a:?}"),
            Answer::Campaigns(a) => format!("{a:?}"),
            Answer::Port(a) => format!("{a:?}"),
            Answer::Summary(a) => return Expected::Numbers(summary_numbers(a.as_ref())),
        };
        Expected::Digest(digest(text.as_bytes()))
    }

    /// Whether this answer is the one set-up recorded.
    pub fn matches(&self, expected: &Expected) -> bool {
        match (self.expected(), expected) {
            (Expected::Numbers(got), Expected::Numbers(want)) => {
                got.len() == want.len()
                    && got
                        .iter()
                        .zip(want)
                        .all(|(g, w)| (g - w).abs() <= 1e-9 * w.abs().max(1e-3))
            }
            (got, want) => got == *want,
        }
    }

    /// Whether a source-history lookup found the source in any year.
    pub fn is_hit(&self) -> bool {
        matches!(self, Answer::Source(history) if history.years_seen > 0)
    }
}

/// The seeded lookup list: 45 % source history (3 hits : 1 miss), 25 %
/// campaign lookup, 27 % port trend, 3 % year summary.
pub fn make_lookups(years: &[YearAnalysis], seed: u64) -> Vec<Lookup> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6c6f_6f6b_7570);
    // HashMap order differs per process; sort so the seed decides alone.
    let mut sources: Vec<u32> = years
        .iter()
        .flat_map(|a| a.source_packets.keys().copied())
        .collect();
    sources.sort_unstable();
    sources.dedup();
    let mut scanners: Vec<u32> = years
        .iter()
        .flat_map(|a| a.campaigns.iter().map(|c| c.src_ip.0))
        .collect();
    scanners.sort_unstable();
    scanners.dedup();
    let mut ports: Vec<u16> = years
        .iter()
        .flat_map(|a| a.port_packets.keys().copied())
        .collect();
    ports.sort_unstable();
    ports.dedup();
    (0..LOOKUPS)
        .map(|_| {
            let class = rng.random_range(0..100u32);
            let hit = rng.random_range(0..4u32) != 0;
            if class < 45 {
                let ip = if hit {
                    sources[rng.random_range(0..sources.len())]
                } else {
                    // A draw from 2^32 lands on one of a few thousand
                    // sources about once in a million lookups.
                    rng.random()
                };
                Lookup::Source(Ipv4Address(ip))
            } else if class < 70 {
                let pool = if hit { &scanners } else { &sources };
                Lookup::Campaigns(Ipv4Address(pool[rng.random_range(0..pool.len())]))
            } else if class < 97 {
                let port = if hit {
                    ports[rng.random_range(0..ports.len())]
                } else {
                    rng.random()
                };
                Lookup::Port(port)
            } else {
                Lookup::Summary(STORE_YEARS[rng.random_range(0..STORE_YEARS.len())])
            }
        })
        .collect()
}

/// Write the lookups with what their answers from `years` (the analyses as
/// they were before the store encoded them) look like: `kind key expected…`.
pub fn write_lookups(path: &Path, lookups: &[Lookup], years: &[YearAnalysis]) {
    let mut out = BufWriter::new(File::create(path).expect("create lookups"));
    for lookup in lookups {
        let (kind, key) = match *lookup {
            Lookup::Source(ip) => ('S', u64::from(ip.0)),
            Lookup::Campaigns(ip) => ('C', u64::from(ip.0)),
            Lookup::Port(port) => ('P', u64::from(port)),
            Lookup::Summary(year) => ('Y', u64::from(year)),
        };
        let expected = match lookup.answer(years).expected() {
            Expected::Digest(digest) => digest.to_string(),
            Expected::Numbers(numbers) => {
                let text: Vec<String> = numbers.iter().map(f64::to_string).collect();
                text.join(" ")
            }
        };
        writeln!(out, "{kind} {key} {expected}").expect("write lookups");
    }
    out.flush().expect("flush lookups");
}

pub fn read_lookups(path: &Path) -> Vec<(Lookup, Expected)> {
    fs::read_to_string(path)
        .expect("read lookups")
        .lines()
        .map(|line| {
            let fields: Vec<&str> = line.split(' ').collect();
            let key: u64 = fields[1].parse().expect("lookup key");
            let digest = || Expected::Digest(fields[2].parse().expect("answer digest"));
            match fields[0] {
                "S" => (Lookup::Source(Ipv4Address(key as u32)), digest()),
                "C" => (Lookup::Campaigns(Ipv4Address(key as u32)), digest()),
                "P" => (Lookup::Port(key as u16), digest()),
                _ => (
                    Lookup::Summary(key as u16),
                    Expected::Numbers(
                        fields[2..]
                            .iter()
                            .map(|f| f.parse().expect("summary number"))
                            .collect(),
                    ),
                ),
            }
        })
        .collect()
}

// ------------------------------------------------------------------ reps

/// Wall clock, user CPU and page faults of one timed section.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub wall_s: f64,
    pub cpu_user_s: f64,
    pub faults: u64,
    /// `VmHWM` when the section ended, before any check ran.
    pub peak_rss_mib: f64,
}

pub fn timed<T>(work: impl FnOnce() -> T) -> (T, Timing) {
    let before = Usage::now();
    let start = Instant::now();
    let out = work();
    let wall_s = start.elapsed().as_secs_f64();
    let after = Usage::now();
    let timing = Timing {
        wall_s,
        cpu_user_s: after.user_s - before.user_s,
        faults: after.faults - before.faults,
        peak_rss_mib: crate::procfs::peak_rss_mib(),
    };
    (out, timing)
}

/// One rep: the timing of its timed section, the work it covered, and
/// whatever the checks after it found wrong.
pub struct Rep {
    pub timing: Timing,
    /// Records offered (workloads 1–4) or lookups answered (workload 5).
    pub items: u64,
    /// Workload-specific readings: `(metric, value)`.
    pub extras: Vec<(&'static str, f64)>,
    /// Per-lookup latencies in µs with the lookup's class (workload 5).
    pub latencies: Vec<(usize, f64)>,
    /// Empty when every check passed.
    pub failures: Vec<String>,
}

/// What one pass of [`Bench::run_slices`] produced.
#[derive(Default)]
pub struct SliceRun {
    /// The coordinator's merged year (`Some` once the run has finished).
    pub merged: Option<YearAnalysis>,
    pub slice_path: PathBuf,
    /// Capture counters of the last slice; every slice sees every record.
    pub stats: CaptureStats,
    pub partial_packets: u64,
    /// Σ `Progress` + `Partial` frame bytes.
    pub wire_bytes: u64,
    /// Σ stream records the slices consumed.
    pub replayed: u64,
    pub checkpoint_sizes: Vec<usize>,
    /// Checkpoint bytes as the coordinator received them, when kept.
    pub checkpoints: Vec<Vec<u8>>,
    /// Index of each slice's last checkpoint.
    pub last_of_slice: Vec<usize>,
}

/// Everything a measuring process holds between reps.
pub struct Bench {
    pub workload: Workload,
    pub dark: AddressSet,
    pub dir: RunDir,
    pub reference: Reference,
    /// In-memory input of workloads 1 and 4.
    pub records: Vec<ProbeRecord>,
    /// Lookup list of workload 5, with the answers set-up expects.
    pub lookups: Vec<(Lookup, Expected)>,
    /// Checkpoint sizes of the first `slice_ckpt` rep; later reps must match.
    checkpoint_sizes: Vec<usize>,
}

fn check(failures: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        failures.push(what());
    }
}

impl Bench {
    /// Take up the inputs: the files set-up left in `dir`, or for the
    /// in-memory workloads the same records generated again from `seed`
    /// (no file: a 380 MB write is the noisiest thing this VM does). Not
    /// part of any rep.
    pub fn load(workload: Workload, seed: u64, dir: RunDir) -> Self {
        let dark = gen::telescope();
        let in_memory = matches!(workload, Workload::CampaignStreamSeq | Workload::SliceCkpt);
        let records = if in_memory {
            gen::generate(&dark, &CAMPAIGN, CAMPAIGN_SOURCES, YEAR, seed)
        } else {
            Vec::new()
        };
        let (reference, lookups) = if workload == Workload::StoreLookup {
            (Reference::default(), read_lookups(&dir.lookups()))
        } else {
            (Reference::read(&dir.reference()), Vec::new())
        };
        Self {
            workload,
            dark,
            dir,
            reference,
            records,
            lookups,
            checkpoint_sizes: Vec::new(),
        }
    }

    fn config(&self) -> CampaignConfig {
        campaign_config(&self.dark)
    }

    /// Run one rep. `first` turns on the checks that cost a second decode
    /// and only need doing once per process: later reps are held to the same
    /// output digest, so they cannot differ.
    pub fn rep(&mut self, first: bool) -> Rep {
        match self.workload {
            Workload::CampaignStreamSeq | Workload::TailPcapSharded => self.year_rep(first),
            Workload::CensusMmapQueues => self.census_rep(),
            Workload::SliceCkpt => self.slice_rep(first),
            Workload::StoreLookup => self.lookup_rep(),
        }
    }

    /// Checks shared by every rep that ends in a written year slice.
    fn check_year(
        &self,
        failures: &mut Vec<String>,
        mut analysis: YearAnalysis,
        stats: &CaptureStats,
        slice_path: &Path,
        first: bool,
    ) -> u64 {
        let reference = &self.reference;
        let bytes = fs::read(slice_path).expect("read written slice");
        if first {
            check(
                failures,
                decode_year(&bytes).as_ref() == Ok(&analysis),
                || "decode_year(encode_year(a)) != a".into(),
            );
        }
        check_stats(failures, reference, stats);
        check(failures, analysis.total_packets == stats.admitted, || {
            format!(
                "total_packets {} != admitted {}",
                analysis.total_packets, stats.admitted
            )
        });
        let by_source: u64 = analysis.source_packets.values().sum();
        check(failures, by_source == analysis.total_packets, || {
            format!("per-source packets sum to {by_source}, not the total")
        });
        let year_digest = if analysis.heavy.is_some() {
            // Sharded top-K state is not bit-identical to sequential past
            // capacity (core::sketch says so); the count-min half is, and so
            // is everything outside the sketch.
            check(
                failures,
                sketch_digest(&analysis) == reference.sketch_digest,
                || "count-min sketch differs from the sequential reference".into(),
            );
            analysis.heavy = None;
            digest(&encode_year(&analysis))
        } else {
            digest(&bytes)
        };
        check(failures, year_digest == reference.year_digest, || {
            format!(
                "year digest {year_digest:016x} != reference {:016x}",
                reference.year_digest
            )
        });
        bytes.len() as u64
    }

    /// Workloads 1 and 2: stream → capture filter → year driver → store.
    fn year_rep(&mut self, first: bool) -> Rep {
        let store = AnalysisStore::open(self.dir.store_out()).expect("open output store");
        let (config, hints) = (self.config(), self.workload.hints());
        let mut session = CaptureSession::new(&self.dark, YEAR);
        let (result, timing) = timed(|| {
            let outcome = if self.workload == Workload::CampaignStreamSeq {
                let mut slice = SliceStream::new(&self.records);
                try_collect_year_stream(
                    YEAR,
                    config,
                    PERIOD_DAYS,
                    PipelineMode::Sequential,
                    hints,
                    FaultPolicy::Fail,
                    &mut InfallibleStream(&mut slice),
                    |r| session.offer(r),
                )
            } else {
                // `analyze`'s default `--ingest read` path.
                let file = File::open(self.dir.pcap()).expect("open input.pcap");
                let mut stream = PcapStream::new(BufReader::new(file)).expect("pcap header");
                try_collect_year_stream(
                    YEAR,
                    config,
                    PERIOD_DAYS,
                    PipelineMode::Sharded { workers: nproc() },
                    hints,
                    FaultPolicy::Fail,
                    &mut stream,
                    |r| session.offer(r),
                )
            }
            .map_err(|e| e.to_string())?;
            let path = store
                .write_year(&outcome.analysis)
                .map_err(|e| e.to_string())?;
            Ok::<_, String>((outcome.analysis, path))
        });
        let mut failures = Vec::new();
        let mut extras = Vec::new();
        match result {
            Ok((analysis, path)) => {
                let stored =
                    self.check_year(&mut failures, analysis, &session.stats(), &path, first);
                extras.push(("store_bytes", stored as f64));
            }
            Err(e) => failures.push(format!("driver returned Err: {e}")),
        }
        Rep {
            timing,
            items: self.reference.records,
            extras,
            latencies: Vec::new(),
            failures,
        }
    }

    /// Workload 3: mapped capture → parallel ingest → capture filter only.
    fn census_rep(&mut self) -> Rep {
        let mut failures = Vec::new();
        let (passes, timing) = timed(|| {
            (0..CENSUS_PASSES)
                .map(|_| census_pass(&self.dark, &self.dir.pcap(), nproc()))
                .collect::<Vec<_>>()
        });
        for pass in passes {
            match pass {
                Ok(census) => {
                    check_stats(&mut failures, &self.reference, &census.stats);
                    check(
                        &mut failures,
                        census.non_tcp + census.unordered == 0,
                        || {
                            format!(
                                "{} non-TCP frames, {} order violations in a clean capture",
                                census.non_tcp, census.unordered
                            )
                        },
                    );
                }
                Err(e) => failures.push(format!("ingest returned Err: {e}")),
            }
        }
        Rep {
            timing,
            items: self.reference.records * CENSUS_PASSES as u64,
            extras: Vec::new(),
            latencies: Vec::new(),
            failures,
        }
    }

    /// Workload 4's protocol, once: two slices, each replaying the year and
    /// streaming its checkpoints and its partial through SYNDIST frames to a
    /// coordinator that merges and stores. With a tracer, each step is a
    /// span; `keep` retains the checkpoint bytes the coordinator received.
    pub fn run_slices(
        &self,
        mut tracer: Option<&mut Tracer>,
        keep: bool,
    ) -> Result<SliceRun, String> {
        let store = AnalysisStore::open(self.dir.store_out()).map_err(|e| e.to_string())?;
        let config = self.config();
        let mut run = SliceRun::default();
        let mut partials = Vec::new();
        for slice in plan_slices(&[YEAR], SLICE_PARTS) {
            let task = SliceTask {
                slice,
                config,
                period_days: PERIOD_DAYS,
                hints: SizeHints::none(),
                policy: FaultPolicy::Fail,
                seed: 0,
                every: self.reference.records / CHECKPOINTS_PER_SLICE - 1,
            };
            let mut stream = SliceStream::new(&self.records);
            let mut admit = SessionAdmit(CaptureSession::new(&self.dark, YEAR));
            // The frame pipe: the worker writes, the coordinator reads.
            let mut pipe = Vec::new();
            let span = tracer
                .as_deref_mut()
                .map(|t| t.enter("core.distrib.run_slice"));
            let outcome = run_slice(
                &task,
                None,
                &mut InfallibleStream(&mut stream),
                &mut admit,
                &mut |checkpoint: &Checkpoint| {
                    let bytes = spanned(&mut tracer, "core.checkpoint.envelope", || {
                        checkpoint.to_bytes()
                    });
                    let progress = Message::Progress {
                        slice,
                        cursor: checkpoint.header.cursor,
                        checkpoint: bytes,
                    };
                    pipe.clear();
                    spanned(&mut tracer, "core.distrib.frame_send", || {
                        distrib::send(&mut pipe, &progress)
                    })?;
                    run.wire_bytes += pipe.len() as u64;
                    let back = spanned(&mut tracer, "core.distrib.frame_recv", || {
                        distrib::recv(&mut pipe.as_slice())
                    })?;
                    let Some(Message::Progress { checkpoint, .. }) = back else {
                        return Err(distrib::DistribError::Protocol(
                            "Progress frame did not come back as Progress".into(),
                        ));
                    };
                    run.checkpoint_sizes.push(checkpoint.len());
                    if keep {
                        run.checkpoints.push(checkpoint);
                    }
                    Ok(())
                },
            )
            .map_err(|e| e.to_string())?;
            if let (Some(tracer), Some(span)) = (tracer.as_deref_mut(), span) {
                tracer.exit(span);
            }
            run.last_of_slice
                .push(run.checkpoint_sizes.len().saturating_sub(1));
            run.replayed += outcome.cursor;
            run.stats = admit.0.stats();
            let partial = Message::Partial {
                slice,
                cursor: outcome.cursor,
                analysis: spanned(&mut tracer, "core.store.encode", || {
                    outcome.analysis.as_ref().map(encode_year)
                }),
                admit_state: admit.snapshot(),
                faults: outcome.faults,
            };
            pipe.clear();
            spanned(&mut tracer, "core.distrib.frame_send", || {
                distrib::send(&mut pipe, &partial)
            })
            .map_err(|e| e.to_string())?;
            run.wire_bytes += pipe.len() as u64;
            let back = spanned(&mut tracer, "core.distrib.frame_recv", || {
                distrib::recv(&mut pipe.as_slice())
            })
            .map_err(|e| e.to_string())?;
            if let Some(Message::Partial {
                analysis: Some(bytes),
                ..
            }) = back
            {
                let analysis = spanned(&mut tracer, "core.store.decode", || decode_year(&bytes))
                    .map_err(|e| e.to_string())?;
                run.partial_packets += analysis.total_packets;
                partials.push(analysis);
            }
        }
        let merged = spanned(&mut tracer, "core.distrib.merge_slices", || {
            merge_slices(YEAR, config, PERIOD_DAYS, partials)
        });
        run.slice_path = spanned(&mut tracer, "core.store.write", || {
            store.write_year(&merged)
        })
        .map_err(|e| e.to_string())?;
        run.merged = Some(merged);
        Ok(run)
    }

    /// Workload 4: [`Bench::run_slices`], timed and checked.
    fn slice_rep(&mut self, first: bool) -> Rep {
        let (result, timing) = timed(|| self.run_slices(None, first));
        let mut failures = Vec::new();
        let mut extras = Vec::new();
        match result {
            Ok(mut run) => {
                let merged = run.merged.take().expect("a finished run has a merged year");
                check(
                    &mut failures,
                    run.partial_packets == merged.total_packets,
                    || {
                        format!(
                            "slice partials hold {} packets, the merged year {}",
                            run.partial_packets, merged.total_packets
                        )
                    },
                );
                let stored =
                    self.check_year(&mut failures, merged, &run.stats, &run.slice_path, first);
                extras.push(("ckpt_wire_bytes", run.wire_bytes as f64));
                extras.push(("store_bytes", stored as f64));
                let cut = run.checkpoint_sizes.len() as u32;
                check(
                    &mut failures,
                    (SLICE_PARTS * 5..=SLICE_PARTS * 8).contains(&cut),
                    || format!("{cut} checkpoints cut, outside 5-8 per slice"),
                );
                for (index, bytes) in run.checkpoints.iter().enumerate() {
                    let again = Checkpoint::from_bytes(bytes).map(|c| c.to_bytes());
                    check(&mut failures, again.as_ref() == Ok(bytes), || {
                        format!("checkpoint {index} does not decode and re-encode to itself")
                    });
                }
                if first {
                    self.checkpoint_sizes = run.checkpoint_sizes;
                } else {
                    check(
                        &mut failures,
                        run.checkpoint_sizes == self.checkpoint_sizes,
                        || "checkpoint sizes differ from the first rep's".into(),
                    );
                }
            }
            Err(e) => failures.push(format!("slice driver returned Err: {e}")),
        }
        Rep {
            timing,
            items: self.reference.records,
            extras,
            latencies: Vec::new(),
            failures,
        }
    }

    /// Workload 5: open the store, load the image, answer every lookup.
    fn lookup_rep(&mut self) -> Rep {
        let mut latencies = Vec::with_capacity(self.lookups.len());
        let mut answers = Vec::with_capacity(self.lookups.len());
        let mut image_load_s = 0.0;
        let mut store_bytes = 0;
        let (result, timing) = timed(|| {
            let start = Instant::now();
            let store = AnalysisStore::open(self.dir.store_in()).map_err(|e| e.to_string())?;
            let image = StoreImage::load(&store).map_err(|e| e.to_string())?;
            image_load_s = start.elapsed().as_secs_f64();
            store_bytes = image.slices.iter().map(|s| s.bytes).sum();
            for (lookup, _) in &self.lookups {
                let start = Instant::now();
                let answer = lookup.answer(&image.years);
                latencies.push((lookup.class(), start.elapsed().as_secs_f64() * 1e6));
                answers.push(answer);
            }
            Ok::<_, String>(image.years.len())
        });
        let mut failures = Vec::new();
        match result {
            Ok(years) => check(&mut failures, years == STORE_YEARS.len(), || {
                format!("image holds {years} years")
            }),
            Err(e) => failures.push(format!("image load returned Err: {e}")),
        }
        let wrong = answers
            .iter()
            .zip(&self.lookups)
            .filter(|(answer, (_, expected))| !answer.matches(expected))
            .count();
        check(&mut failures, wrong == 0, || {
            format!("{wrong} answers differ from the pre-store analyses")
        });
        let lookup_s: f64 = latencies.iter().map(|(_, us)| us / 1e6).sum();
        let sources = self.lookups.iter().filter(|(l, _)| l.class() == 0).count();
        let hits = answers.iter().filter(|a| a.is_hit()).count();
        Rep {
            timing,
            items: self.lookups.len() as u64,
            extras: vec![
                ("store_bytes", store_bytes as f64),
                ("image_load_s", image_load_s),
                ("lookups_per_s", self.lookups.len() as f64 / lookup_s),
                ("core.report.hit_ratio", hits as f64 / sources.max(1) as f64),
            ],
            latencies,
            failures,
        }
    }
}

/// `offered = admitted + Σ rejected-by-reason`, and every counter equals the
/// sequential reference's.
fn check_stats(failures: &mut Vec<String>, reference: &Reference, stats: &CaptureStats) {
    let fields = stats_fields(stats);
    let rejected: u64 = fields[1..6].iter().sum();
    check(failures, stats.offered == stats.admitted + rejected, || {
        format!(
            "offered {} != admitted {} + rejected {rejected}",
            stats.offered, stats.admitted
        )
    });
    check(failures, fields == reference.stats, || {
        format!(
            "capture counters {fields:?} != reference {:?}",
            reference.stats
        )
    });
}

/// What one census pass over the mapped capture saw.
pub struct Census {
    pub stats: CaptureStats,
    pub non_tcp: u64,
    pub unordered: u64,
}

/// One pass of workload 3 with `queues` decode queues.
pub fn census_pass(dark: &AddressSet, pcap: &Path, queues: usize) -> Result<Census, String> {
    let capture = Arc::new(MappedCapture::load(pcap).map_err(|e| e.to_string())?);
    let mut ingest = IngestQueues::new(capture, queues, FaultPolicy::Fail)
        .map_err(|e| e.to_string())?
        .spawn();
    let mut session = CaptureSession::new(dark, YEAR);
    while let Some(batch) = ingest.try_next_batch().map_err(|e| e.to_string())? {
        for record in batch {
            session.offer(record);
        }
    }
    Ok(Census {
        stats: session.stats(),
        non_tcp: ingest.non_tcp_frames(),
        unordered: ingest.order_violations(),
    })
}
