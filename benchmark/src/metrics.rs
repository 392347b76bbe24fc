//! The benchmark's declared surface: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the repository
//! root is [`benchmark_json`] written to a file; a self-test keeps the two
//! from drifting.

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 12;

/// Seed used when none is given; `expected.json` pins its counts.
pub const DEFAULT_SEED: u64 = 20_240_915;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "campaign_stream_seq",
        why: "few sources, deep per-source state, one thread: intern/fingerprint/campaign/collect carry ~70% of the time and ingest none; the baseline every other number is read against",
    },
    Workload {
        name: "tail_pcap_sharded",
        why: "many 1-5 packet sources from a pcap file through the sharded driver with the sketch on: read-path decode, filter rejections, fan-out and merge carry the cost",
    },
    Workload {
        name: "census_mmap_queues",
        why: "the same capture through MappedCapture and IngestQueues into the capture filter only: the one workload where wire::ingest decode and capture-order merge dominate",
    },
    Workload {
        name: "slice_ckpt",
        why: "campaign mix as two distributed slices with 5-8 streamed checkpoints each: full-stream replay, checkpoint encode and SYNDIST framing that a single-host run never pays",
    },
    Workload {
        name: "store_lookup",
        why: "read side: load a 4-year store image, then 10k source/campaign/port/summary lookups by one client; p50 sits in the cheap classes, p99 in summarize",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Defined, and never zero, on all five workloads. Bounds are calibrated
/// from sets of ten runs on ten seeds (README.md, "Bounds").
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_user_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "items_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.12,
    },
    EndToEnd {
        name: "page_faults",
        unit: "count",
        better: "lower",
        bound: 0.20,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Reported by the traced run; zero on a workload where the layer does not
/// run. The first seven are what a user of one workload sees but the others
/// do not define, so they cannot carry a bound.
pub const PER_LAYER: [PerLayer; 70] = [
    layer("records_per_s", "rec/s", "higher"),
    layer("store_bytes", "B", "lower"),
    layer("ckpt_wire_bytes", "B", "lower"),
    layer("image_load_s", "s", "lower"),
    layer("lookups_per_s", "1/s", "higher"),
    layer("lookup_p50_us", "us", "lower"),
    layer("lookup_p99_us", "us", "lower"),
    layer("wire.pcap.read_s", "s", "lower"),
    layer("wire.pcap.records", "count", "higher"),
    layer("wire.pcap.bytes", "B", "higher"),
    layer("wire.ingest.load_s", "s", "lower"),
    layer("wire.ingest.drain_q1_s", "s", "lower"),
    layer("wire.ingest.drain_qn_s", "s", "lower"),
    layer("wire.ingest.queue_efficiency", "ratio", "higher"),
    layer("wire.ingest.non_tcp_frames", "count", "lower"),
    layer("wire.ingest.order_violations", "count", "lower"),
    layer("telescope.capture.admit_s", "s", "lower"),
    layer("telescope.capture.offered", "count", "higher"),
    layer("telescope.capture.admitted", "count", "higher"),
    layer("telescope.capture.not_dark", "count", "lower"),
    layer("telescope.capture.ingress_blocked", "count", "lower"),
    layer("telescope.capture.backscatter", "count", "lower"),
    layer("telescope.capture.other_techniques", "count", "lower"),
    layer("telescope.capture.admit_ratio", "ratio", "higher"),
    layer("core.intern.intern_s", "s", "lower"),
    layer("core.intern.sources", "count", "higher"),
    layer("core.fingerprint.classify_s", "s", "lower"),
    layer("core.fingerprint.attributed_ratio", "ratio", "higher"),
    layer("core.campaign.offer_s", "s", "lower"),
    layer("core.campaign.expire_s", "s", "lower"),
    layer("core.campaign.finish_s", "s", "lower"),
    layer("core.campaign.campaigns", "count", "higher"),
    layer("core.campaign.rejected_sequences", "count", "lower"),
    layer("core.campaign.campaign_packet_ratio", "ratio", "higher"),
    layer("core.collect.offer_s", "s", "lower"),
    layer("core.collect.self_s", "s", "lower"),
    layer("core.collect.finish_s", "s", "lower"),
    layer("core.sketch.offer_s", "s", "lower"),
    layer("core.sketch.state_bytes", "B", "lower"),
    layer("core.sketch.evictions", "count", "lower"),
    layer("core.pipeline.seq_s", "s", "lower"),
    layer("core.pipeline.driver_self_s", "s", "lower"),
    layer("core.pipeline.sharded_s", "s", "lower"),
    layer("core.pipeline.parallel_efficiency", "ratio", "higher"),
    layer("core.pipeline.shard_skew", "ratio", "lower"),
    layer("core.pipeline.merge_partials_s", "s", "lower"),
    layer("core.checkpoint.encode_s", "s", "lower"),
    layer("core.checkpoint.decode_s", "s", "lower"),
    layer("core.checkpoint.envelope_s", "s", "lower"),
    layer("core.checkpoint.bytes", "B", "lower"),
    layer("core.checkpoint.bytes_per_source", "B", "lower"),
    layer("core.distrib.run_slice_s", "s", "lower"),
    layer("core.distrib.replayed_records", "count", "lower"),
    layer("core.distrib.useful_ratio", "ratio", "higher"),
    layer("core.distrib.frame_send_s", "s", "lower"),
    layer("core.distrib.frame_recv_s", "s", "lower"),
    layer("core.distrib.frame_bytes", "B", "lower"),
    layer("core.distrib.merge_slices_s", "s", "lower"),
    layer("core.store.encode_s", "s", "lower"),
    layer("core.store.decode_s", "s", "lower"),
    layer("core.store.write_s", "s", "lower"),
    layer("core.store.bytes", "B", "lower"),
    layer("core.store.image_load_s", "s", "lower"),
    layer("core.analysis.summarize_us", "us", "lower"),
    layer("core.analysis.derive_s", "s", "lower"),
    layer("core.report.source_history_us", "us", "lower"),
    layer("core.report.campaign_lookup_us", "us", "lower"),
    layer("core.report.port_trend_us", "us", "lower"),
    layer("core.report.hit_ratio", "ratio", "higher"),
    layer("trace.overhead_frac", "ratio", "lower"),
];

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| rows.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name, m.unit, m.better, m.bound
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name, m.unit, m.better
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `benchmark/run.sh --print-benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for name in names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for workload in &WORKLOADS {
            assert!(workload.why.len() <= 200, "{} why too long", workload.name);
        }
        for metric in &END_TO_END {
            assert!(metric.bound > 0.0 && metric.bound <= 0.25);
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
    }
}
