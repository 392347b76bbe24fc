//! The traced pass: one run per workload with spans around every call into
//! a layer, plus the isolation passes that split `YearCollector::offer` into
//! its stages. Everything is measured from outside the program, through the
//! same `pub` items the untraced reps call.

use std::collections::BTreeMap;
use std::fs::File;
use std::hint::black_box;
use std::io::BufReader;
use std::sync::Arc;
use std::time::Instant;

use synscan_core::analysis::{
    portspread, speedcov, toolports, vertical, volatility, YearAnalysis, YearCollector,
};
use synscan_core::campaign::Pipeline;
use synscan_core::pipeline::shard_of;
use synscan_core::store::{decode_year, encode_year};
use synscan_core::{
    try_collect_year_stream, AnalysisStore, CampaignConfig, Checkpoint, HeavyHitterConfig,
    HeavyHitters, InternedFingerprint, PipelineMode, SizeHints, SourceTable, StoreImage,
};
use synscan_telescope::capture::{CaptureStats, PcapStream};
use synscan_telescope::CaptureSession;
use synscan_wire::stream::{
    FaultPolicy, InfallibleStream, SliceStream, TryRecordStream, BATCH_RECORDS,
};
use synscan_wire::{IngestQueues, MappedCapture, ProbeRecord};

use crate::stats::{digest, median};
use crate::trace::Tracer;
use crate::workloads::{nproc, Bench, Workload, PERIOD_DAYS, STORE_YEARS, TOP_N, YEAR};

/// Times every measurement outside the chain is taken (isolation passes,
/// driver pairs, queue drains); each reports its median.
const ROUNDS: usize = 3;

/// Per-layer readings by metric name; names absent here report as zero.
pub type Layers = BTreeMap<&'static str, f64>;

/// What a traced pass hands back.
pub struct Traced {
    pub layers: Layers,
    /// Seconds of the traced chain.
    pub chain_s: f64,
    /// Seconds the same work takes untraced in this process, where the chain
    /// is not what the untraced reps run; `None` sets the chain against the
    /// untraced reps' median wall.
    pub baseline_s: Option<f64>,
    /// The chain's run id, for the per-layer share table.
    pub chain_run: u32,
    pub failures: Vec<String>,
}

/// Run the traced pass of `bench`'s workload.
pub fn run(bench: &mut Bench, tracer: &mut Tracer) -> Traced {
    match bench.workload {
        Workload::CampaignStreamSeq | Workload::TailPcapSharded => year_pass(bench, tracer),
        Workload::CensusMmapQueues => census_pass(bench, tracer),
        Workload::SliceCkpt => slice_pass(bench, tracer),
        Workload::StoreLookup => lookup_pass(bench, tracer),
    }
}

fn capture_layers(layers: &mut Layers, stats: &CaptureStats) {
    layers.insert("telescope.capture.offered", stats.offered as f64);
    layers.insert("telescope.capture.admitted", stats.admitted as f64);
    layers.insert("telescope.capture.not_dark", stats.not_dark as f64);
    layers.insert(
        "telescope.capture.ingress_blocked",
        stats.ingress_blocked as f64,
    );
    layers.insert("telescope.capture.backscatter", stats.backscatter as f64);
    layers.insert(
        "telescope.capture.other_techniques",
        stats.other_scan_techniques as f64,
    );
    layers.insert(
        "telescope.capture.admit_ratio",
        stats.admitted as f64 / stats.offered.max(1) as f64,
    );
}

fn analysis_layers(layers: &mut Layers, analysis: &YearAnalysis) {
    let total = analysis.total_packets.max(1) as f64;
    let attributed: u64 = analysis
        .tool_port_packets
        .iter()
        .filter(|((tool, _), _)| tool.is_some())
        .map(|(_, n)| n)
        .sum();
    let in_campaigns: u64 = analysis.campaigns.iter().map(|c| c.packets).sum();
    let rejected: u64 = analysis.noise.rejected_sequences.values().sum();
    layers.insert("core.intern.sources", analysis.distinct_sources as f64);
    layers.insert(
        "core.fingerprint.attributed_ratio",
        attributed as f64 / total,
    );
    layers.insert("core.campaign.campaigns", analysis.campaigns.len() as f64);
    layers.insert("core.campaign.rejected_sequences", rejected as f64);
    layers.insert(
        "core.campaign.campaign_packet_ratio",
        in_campaigns as f64 / total,
    );
    if let Some(heavy) = &analysis.heavy {
        layers.insert("core.sketch.state_bytes", heavy.state_bytes() as f64);
        layers.insert(
            "core.sketch.evictions",
            heavy.top_sources().evictions() as f64,
        );
    }
}

/// The stream a year workload reads: workload 1's in-memory slice or
/// workload 2's pcap file.
fn with_year_stream<T>(bench: &Bench, f: impl FnOnce(&mut dyn TryRecordStream) -> T) -> T {
    if bench.workload == Workload::CampaignStreamSeq {
        let mut slice = SliceStream::new(&bench.records);
        f(&mut InfallibleStream(&mut slice))
    } else {
        let file = File::open(bench.dir.pcap()).expect("open input.pcap");
        f(&mut PcapStream::new(BufReader::new(file)).expect("pcap header"))
    }
}

/// Workloads 1 and 2: the sequential driver's chain, driven by hand.
fn year_pass(bench: &mut Bench, tracer: &mut Tracer) -> Traced {
    let mut layers = Layers::new();
    let mut failures = Vec::new();
    let config = crate::workloads::campaign_config(&bench.dark);
    let hints = bench.workload.hints();
    let store = AnalysisStore::open(bench.dir.store_out()).expect("open output store");
    let read_span = if bench.workload == Workload::CampaignStreamSeq {
        "wire.stream.next_batch"
    } else {
        "wire.pcap.read"
    };

    // try_next_batch -> CaptureSession::offer -> YearCollector::offer ->
    // housekeeping -> finish -> write_year, as try_collect_year_stream does.
    let chain_run = tracer.next_run();
    let mut session = CaptureSession::new(&bench.dark, YEAR);
    let mut batch_admitted: Vec<ProbeRecord> = Vec::with_capacity(BATCH_RECORDS);
    let root = tracer.enter("harness.chain");
    let (analysis, slice_path) = with_year_stream(bench, |stream| {
        let mut collector = YearCollector::with_period(YEAR, config, PERIOD_DAYS);
        hints.apply_to(&mut collector);
        loop {
            let id = tracer.enter(read_span);
            let batch = stream.try_next_batch().expect("clean input stream");
            tracer.exit(id);
            let Some(batch) = batch else { break };
            batch_admitted.clear();
            let id = tracer.enter("telescope.capture.admit");
            batch_admitted.extend(batch.iter().filter(|r| session.offer(r)).copied());
            tracer.exit(id);
            let id = tracer.enter("core.collect.offer");
            for record in &batch_admitted {
                collector.offer(record);
            }
            tracer.exit(id);
            if let Some(last) = batch_admitted.last() {
                let id = tracer.enter("core.campaign.expire");
                collector.housekeeping(last.ts_micros);
                tracer.exit(id);
            }
        }
        let analysis = tracer.span("core.collect.finish", || collector.finish());
        let path = tracer.span("core.store.write", || {
            store.write_year(&analysis).expect("write slice")
        });
        (analysis, path)
    });
    let chain_s = tracer.exit(root);
    let stats = session.stats();

    // The hand-driven chain must produce the driver's bytes.
    // (Spans from here on belong to other runs than the chain's.)
    tracer.next_run();
    let mut stripped = analysis.clone();
    stripped.heavy = None;
    let id = tracer.enter("core.store.encode");
    let encoded = encode_year(&stripped);
    layers.insert("core.store.encode_s", tracer.exit(id));
    if digest(&encoded) != bench.reference.year_digest {
        failures.push("traced chain's year differs from the driver's".into());
    }
    let id = tracer.enter("core.store.decode");
    let decoded = decode_year(&encoded);
    layers.insert("core.store.decode_s", tracer.exit(id));
    if decoded.as_ref() != Ok(&stripped) {
        failures.push("decode_year(encode_year(a)) != a".into());
    }
    let stored = std::fs::metadata(&slice_path).map_or(0, |m| m.len());

    for (metric, span) in [
        ("wire.pcap.read_s", "wire.pcap.read"),
        ("telescope.capture.admit_s", "telescope.capture.admit"),
        ("core.collect.finish_s", "core.collect.finish"),
        ("core.store.write_s", "core.store.write"),
    ] {
        layers.insert(metric, tracer.total(chain_run, span));
    }
    if bench.workload == Workload::TailPcapSharded {
        layers.insert("wire.pcap.records", stats.offered as f64);
        layers.insert("wire.pcap.bytes", bench.reference.pcap_bytes as f64);
    }
    layers.insert("core.store.bytes", stored as f64);
    capture_layers(&mut layers, &stats);
    analysis_layers(&mut layers, &analysis);

    // The admitted records again, kept this time, for the passes below.
    let mut admitted: Vec<ProbeRecord> = Vec::with_capacity(stats.admitted as usize);
    let mut session = CaptureSession::new(&bench.dark, YEAR);
    with_year_stream(bench, |stream| {
        while let Some(batch) = stream.try_next_batch().expect("clean input stream") {
            admitted.extend(batch.iter().filter(|r| session.offer(r)).copied());
        }
    });

    isolation_passes(tracer, &mut layers, &admitted, config, hints.heavy);

    // The real drivers on the same input, so seq and sharded compare.
    tracer.next_run();
    let workers = nproc();
    let mut drive = |mode: PipelineMode, span: &'static str| {
        let mut session = CaptureSession::new(&bench.dark, YEAR);
        let id = tracer.enter(span);
        let outcome = with_year_stream(bench, |stream| {
            try_collect_year_stream(
                YEAR,
                config,
                PERIOD_DAYS,
                mode,
                hints,
                FaultPolicy::Fail,
                stream,
                |r| session.offer(r),
            )
        });
        let secs = tracer.exit(id);
        if outcome.is_err() {
            failures.push(format!("{span}: driver returned Err"));
        }
        secs
    };
    let (mut seq, mut sharded) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        seq.push(drive(PipelineMode::Sequential, "core.pipeline.seq"));
        sharded.push(drive(
            PipelineMode::Sharded { workers },
            "core.pipeline.sharded",
        ));
    }
    let (seq_s, sharded_s) = (median(&seq), median(&sharded));
    let stage_s: f64 = [
        read_span,
        "telescope.capture.admit",
        "core.collect.offer",
        "core.campaign.expire",
        "core.collect.finish",
    ]
    .iter()
    .map(|span| tracer.total(chain_run, span))
    .sum();
    layers.insert("core.pipeline.seq_s", seq_s);
    layers.insert("core.pipeline.driver_self_s", seq_s - stage_s);
    layers.insert("core.pipeline.sharded_s", sharded_s);
    layers.insert(
        "core.pipeline.parallel_efficiency",
        seq_s / (sharded_s * workers as f64),
    );

    if !shard_merge(tracer, &mut layers, &admitted, config, hints, &stripped) {
        failures.push("merged shard partials differ from the sequential year".into());
    }

    // The sharded run is not this chain; the sequential driver plus the
    // slice write is.
    let baseline_s =
        (bench.workload == Workload::TailPcapSharded).then(|| seq_s + layers["core.store.write_s"]);
    Traced {
        layers,
        chain_s,
        baseline_s,
        chain_run,
        failures,
    }
}

/// Isolation passes over the admitted records, fresh state each: the stages
/// inside `YearCollector::offer`, cumulatively. Whichever pass runs first
/// pays for growing the heap, so the round is repeated and each stage
/// reports its median.
fn isolation_passes(
    tracer: &mut Tracer,
    layers: &mut Layers,
    admitted: &[ProbeRecord],
    config: CampaignConfig,
    heavy: Option<HeavyHitterConfig>,
) {
    let expiry_micros = (config.expiry_secs * 1e6) as u64;
    let mut rounds: [Vec<f64>; 7] = Default::default();
    for _ in 0..ROUNDS {
        tracer.next_run();
        let mut table = SourceTable::new();
        let id = tracer.enter("core.intern.pass_a");
        for record in admitted {
            black_box(table.intern(record.src_ip.0));
        }
        rounds[0].push(tracer.exit(id));

        let mut table = SourceTable::new();
        let mut engine = InternedFingerprint::with_expiry(expiry_micros);
        let id = tracer.enter("core.fingerprint.pass_b");
        for record in admitted {
            let sid = table.intern(record.src_ip.0);
            black_box(engine.classify(sid, record));
        }
        rounds[1].push(tracer.exit(id));

        let mut pipeline = Pipeline::new(config);
        let (mut process_s, mut expire_s) = (0.0, 0.0);
        for chunk in admitted.chunks(BATCH_RECORDS) {
            let id = tracer.enter("core.campaign.pass_c");
            for record in chunk {
                black_box(pipeline.process_interned(record));
            }
            process_s += tracer.exit(id);
            let id = tracer.enter("core.campaign.expire");
            pipeline.housekeeping(chunk[chunk.len() - 1].ts_micros);
            expire_s += tracer.exit(id);
        }
        let id = tracer.enter("core.campaign.finish");
        black_box(pipeline.finish_with_sources());
        rounds[4].push(tracer.exit(id));
        rounds[2].push(process_s);
        rounds[3].push(expire_s);

        let mut collector = YearCollector::with_period(YEAR, config, PERIOD_DAYS);
        let mut offer_s = 0.0;
        for chunk in admitted.chunks(BATCH_RECORDS) {
            let id = tracer.enter("core.collect.pass_d");
            for record in chunk {
                collector.offer(record);
            }
            offer_s += tracer.exit(id);
            collector.housekeeping(chunk[chunk.len() - 1].ts_micros);
        }
        black_box(collector.finish());
        rounds[5].push(offer_s);

        if let Some(heavy_config) = heavy {
            let mut heavy = HeavyHitters::new(heavy_config);
            let id = tracer.enter("core.sketch.offer");
            for record in admitted {
                heavy.offer(record.src_ip.0, record.ts_micros, 0);
            }
            rounds[6].push(tracer.exit(id));
            black_box(heavy);
        }
    }
    let [intern_s, classify_s, process_s, expire_s, campaign_finish_s, offer_s, sketch_s] = rounds
        .map(|samples| {
            if samples.is_empty() {
                0.0
            } else {
                median(&samples)
            }
        });
    layers.insert("core.intern.intern_s", intern_s);
    layers.insert("core.fingerprint.classify_s", classify_s - intern_s);
    layers.insert("core.campaign.offer_s", process_s - classify_s);
    layers.insert("core.campaign.expire_s", expire_s);
    layers.insert("core.campaign.finish_s", campaign_finish_s);
    layers.insert("core.collect.offer_s", offer_s);
    layers.insert("core.collect.self_s", offer_s - process_s);
    layers.insert("core.sketch.offer_s", sketch_s);
}

/// Shard partials built the way a shard worker builds them, to time the
/// merge and to see how evenly the source hash spreads the load. Returns
/// whether the merged year equals `sequential` (sketch aside).
fn shard_merge(
    tracer: &mut Tracer,
    layers: &mut Layers,
    admitted: &[ProbeRecord],
    config: CampaignConfig,
    hints: SizeHints,
    sequential: &YearAnalysis,
) -> bool {
    let workers = nproc();
    let mut shards: Vec<Vec<ProbeRecord>> = vec![Vec::new(); workers];
    for record in admitted {
        shards[shard_of(record.src_ip, workers)].push(*record);
    }
    let largest = shards.iter().map(Vec::len).max().unwrap_or(0);
    layers.insert(
        "core.pipeline.shard_skew",
        largest as f64 * workers as f64 / admitted.len().max(1) as f64,
    );
    if let Some(first) = admitted.first() {
        let partials: Vec<YearAnalysis> = shards
            .iter()
            .filter(|shard| !shard.is_empty())
            .map(|shard| {
                let mut collector =
                    YearCollector::with_origin(YEAR, config, PERIOD_DAYS, first.ts_micros);
                hints.apply_to(&mut collector);
                for chunk in shard.chunks(BATCH_RECORDS) {
                    for record in chunk {
                        collector.offer(record);
                    }
                    collector.housekeeping(chunk[chunk.len() - 1].ts_micros);
                }
                collector.finish()
            })
            .collect();
        let id = tracer.enter("core.pipeline.merge_partials");
        let mut merged = YearAnalysis::merge_partials(partials);
        layers.insert("core.pipeline.merge_partials_s", tracer.exit(id));
        merged.heavy = None;
        return merged == *sequential;
    }
    true
}

/// Workload 3: load, parallel decode, capture filter; then the decode alone
/// with one queue and with all of them.
fn census_pass(bench: &mut Bench, tracer: &mut Tracer) -> Traced {
    let mut layers = Layers::new();
    let mut failures = Vec::new();
    let pcap = bench.dir.pcap();
    let queues = nproc();

    let chain_run = tracer.next_run();
    let root = tracer.enter("harness.chain");
    let capture = tracer.span("wire.ingest.load", || {
        Arc::new(MappedCapture::load(&pcap).expect("load capture"))
    });
    let mut ingest = tracer.span("wire.ingest.spawn", || {
        IngestQueues::new(Arc::clone(&capture), queues, FaultPolicy::Fail)
            .expect("pcap header")
            .spawn()
    });
    let mut session = CaptureSession::new(&bench.dark, YEAR);
    loop {
        let id = tracer.enter("wire.ingest.next_batch");
        let batch = ingest.try_next_batch().expect("clean capture");
        tracer.exit(id);
        let Some(batch) = batch else { break };
        let id = tracer.enter("telescope.capture.admit");
        for record in batch {
            session.offer(record);
        }
        tracer.exit(id);
    }
    let chain_s = tracer.exit(root);
    let stats = session.stats();
    if crate::workloads::stats_fields(&stats) != bench.reference.stats {
        failures.push("traced census counters differ from the reference".into());
    }
    layers.insert(
        "wire.ingest.load_s",
        tracer.total(chain_run, "wire.ingest.load"),
    );
    layers.insert(
        "telescope.capture.admit_s",
        tracer.total(chain_run, "telescope.capture.admit"),
    );
    layers.insert("wire.ingest.non_tcp_frames", ingest.non_tcp_frames() as f64);
    layers.insert(
        "wire.ingest.order_violations",
        ingest.order_violations() as f64,
    );
    capture_layers(&mut layers, &stats);
    drop(ingest);

    tracer.next_run();
    let mut drain = |queues: usize, span: &'static str| {
        let mut ingest = IngestQueues::exact(Arc::clone(&capture), queues, FaultPolicy::Fail)
            .expect("pcap header")
            .spawn();
        let id = tracer.enter(span);
        let mut records = 0u64;
        while let Some(batch) = ingest.try_next_batch().expect("clean capture") {
            records += batch.len() as u64;
        }
        let secs = tracer.exit(id);
        if records != bench.reference.records {
            failures.push(format!("{span}: drained {records} records"));
        }
        secs
    };
    let (mut one, mut all) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        one.push(drain(1, "wire.ingest.drain_q1"));
        all.push(drain(queues, "wire.ingest.drain_qn"));
    }
    let (q1, qn) = (median(&one), median(&all));
    layers.insert("wire.ingest.drain_q1_s", q1);
    layers.insert("wire.ingest.drain_qn_s", qn);
    layers.insert("wire.ingest.queue_efficiency", q1 / qn);

    Traced {
        layers,
        // One pass here; an untraced rep makes CENSUS_PASSES of them.
        chain_s: chain_s * crate::workloads::CENSUS_PASSES as f64,
        baseline_s: None,
        chain_run,
        failures,
    }
}

/// Workload 4: the slice rep with a span around each protocol step.
fn slice_pass(bench: &mut Bench, tracer: &mut Tracer) -> Traced {
    let mut layers = Layers::new();
    let mut failures = Vec::new();

    let chain_run = tracer.next_run();
    let root = tracer.enter("harness.chain");
    let mut run = bench
        .run_slices(Some(&mut *tracer), true)
        .expect("slice run");
    let chain_s = tracer.exit(root);
    let merged = run.merged.take().expect("a finished run has a merged year");
    let checkpoints = run.checkpoints;

    let stored = std::fs::read(&run.slice_path).expect("read written slice");
    if digest(&stored) != bench.reference.year_digest {
        failures.push("merged slices differ from the sequential year".into());
    }
    for (metric, span) in [
        ("core.distrib.run_slice_s", "core.distrib.run_slice"),
        ("core.distrib.frame_send_s", "core.distrib.frame_send"),
        ("core.distrib.frame_recv_s", "core.distrib.frame_recv"),
        ("core.distrib.merge_slices_s", "core.distrib.merge_slices"),
        ("core.checkpoint.envelope_s", "core.checkpoint.envelope"),
        ("core.store.encode_s", "core.store.encode"),
        ("core.store.decode_s", "core.store.decode"),
        ("core.store.write_s", "core.store.write"),
    ] {
        layers.insert(metric, tracer.total(chain_run, span));
    }
    layers.insert("core.distrib.replayed_records", run.replayed as f64);
    layers.insert(
        "core.distrib.useful_ratio",
        bench.reference.records as f64 / run.replayed.max(1) as f64,
    );
    layers.insert("core.distrib.frame_bytes", run.wire_bytes as f64);
    layers.insert("core.store.bytes", stored.len() as f64);
    capture_layers(&mut layers, &run.stats);
    analysis_layers(&mut layers, &merged);

    // The collector snapshot is cut inside run_slice, out of a span's reach:
    // decode every checkpoint and re-encode its collector to time both.
    tracer.next_run();
    let mut per_source = Vec::new();
    for (index, bytes) in checkpoints.iter().enumerate() {
        let id = tracer.enter("core.checkpoint.decode");
        let collector =
            Checkpoint::from_bytes(bytes).and_then(|checkpoint| checkpoint.shard_collector(0));
        tracer.exit(id);
        let Ok(collector) = collector else {
            failures.push(format!("checkpoint {index} does not decode"));
            continue;
        };
        tracer.span("core.checkpoint.encode", || {
            black_box(Checkpoint::encode_collector(collector.as_ref()))
        });
        if run.last_of_slice.contains(&index) {
            let sources = collector.map_or(0, |c| c.finish().distinct_sources);
            per_source.push(bytes.len() as f64 / sources.max(1) as f64);
        }
    }
    let run = tracer.current_run();
    layers.insert(
        "core.checkpoint.decode_s",
        tracer.total(run, "core.checkpoint.decode"),
    );
    layers.insert(
        "core.checkpoint.encode_s",
        tracer.total(run, "core.checkpoint.encode"),
    );
    layers.insert(
        "core.checkpoint.bytes",
        checkpoints.iter().map(Vec::len).sum::<usize>() as f64,
    );
    layers.insert("core.checkpoint.bytes_per_source", median(&per_source));

    Traced {
        layers,
        chain_s,
        baseline_s: None,
        chain_run,
        failures,
    }
}

/// Workload 5: a span per image load and per lookup, then the figure
/// derivations over every year of the image.
fn lookup_pass(bench: &mut Bench, tracer: &mut Tracer) -> Traced {
    let mut layers = Layers::new();
    let mut failures = Vec::new();
    const CLASS_SPANS: [&str; 4] = [
        "core.report.source_history",
        "core.report.campaign_lookup",
        "core.report.port_trend",
        "core.analysis.summarize",
    ];

    let chain_run = tracer.next_run();
    let root = tracer.enter("harness.chain");
    let image = tracer.span("core.store.image_load", || {
        let store = AnalysisStore::open(bench.dir.store_in()).expect("open input store");
        StoreImage::load(&store).expect("load image")
    });
    let mut by_class: [Vec<f64>; 4] = Default::default();
    let mut wrong = 0;
    for (lookup, expected) in &bench.lookups {
        let id = tracer.enter(CLASS_SPANS[lookup.class()]);
        let answer = lookup.answer(&image.years);
        by_class[lookup.class()].push(tracer.exit(id) * 1e6);
        // Checked inside the chain but outside every span: it lands in the
        // harness's own self time.
        wrong += usize::from(!answer.matches(expected));
    }
    let chain_s = tracer.exit(root);
    if wrong > 0 {
        failures.push(format!(
            "{wrong} traced answers differ from the pre-store analyses"
        ));
    }
    if image.years.len() != STORE_YEARS.len() {
        failures.push(format!("image holds {} years", image.years.len()));
    }
    layers.insert(
        "core.store.image_load_s",
        tracer.total(chain_run, "core.store.image_load"),
    );
    layers.insert(
        "core.store.bytes",
        image.slices.iter().map(|s| s.bytes).sum::<u64>() as f64,
    );
    for (metric, samples) in [
        "core.report.source_history_us",
        "core.report.campaign_lookup_us",
        "core.report.port_trend_us",
        "core.analysis.summarize_us",
    ]
    .into_iter()
    .zip(&by_class)
    {
        layers.insert(metric, median(samples));
    }

    tracer.next_run();
    let start = Instant::now();
    for analysis in &image.years {
        tracer.span("core.analysis.derive", || {
            black_box(volatility::weekly_change(analysis));
            black_box(portspread::ports_per_source_cdf(analysis));
            black_box(toolports::tool_mix_by_port(analysis, TOP_N));
            black_box(vertical::vertical_stats(
                &analysis.campaigns,
                analysis.monitored,
            ));
            black_box(speedcov::by_tool(&analysis.campaigns, analysis.monitored));
        });
    }
    layers.insert("core.analysis.derive_s", start.elapsed().as_secs_f64());

    Traced {
        layers,
        chain_s,
        baseline_s: None,
        chain_run,
        failures,
    }
}
