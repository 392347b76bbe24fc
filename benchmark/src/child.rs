//! The measuring process: a fresh child per pass, so the cold rep's peak RSS
//! and page faults are the program's and not set-up's. It reports to its
//! parent as lines on stdout:
//!
//! ```text
//! S <metric> <value>    one warm rep's sample of a metric
//! V <metric> <value>    a value taken once
//! L <layer> <self_s>    a layer's self time in the traced chain
//! O <attempted> <failed>
//! F <message>           a failed check
//! ```

use std::fs::File;
use std::io::BufWriter;
use std::path::Path;
use std::time::Instant;

use crate::stats::{median, percentile_sorted};
use crate::trace::Tracer;
use crate::traced;
use crate::workloads::{Bench, Rep, RunDir, Workload, LOOKUPS};

/// Stand-in calls so far: `rand` draws and `serde_json` entry points. No rep
/// may move either.
fn stand_in_calls() -> (u64, u64) {
    (rand::draws(), serde_json::calls())
}

/// Ops a rep stands for and how many of them failed: one per rep, except
/// `store_lookup`, where every lookup is an op.
fn ops(workload: Workload, rep: &Rep) -> (u64, u64) {
    let attempted = if workload == Workload::StoreLookup {
        LOOKUPS as u64
    } else {
        1
    };
    if rep.failures.is_empty() {
        (attempted, 0)
    } else {
        (attempted, attempted)
    }
}

/// Untraced pass: one cold rep, then warm reps until `seconds` have passed
/// and at least `min_warm` of them are in.
pub fn measure(workload: Workload, seed: u64, dir: RunDir, seconds: f64, min_warm: usize) {
    let start = Instant::now();
    let mut bench = Bench::load(workload, seed, dir);
    println!("V child_load_s {}", start.elapsed().as_secs_f64());

    let mut attempted = 0;
    let mut failed = 0;
    let mut run_rep = |bench: &mut Bench, first: bool| {
        let before = stand_in_calls();
        let mut rep = bench.rep(first);
        if stand_in_calls() != before {
            rep.failures
                .push("a rep executed a rand or serde_json stand-in".into());
        }
        let (ops, bad) = ops(workload, &rep);
        attempted += ops;
        failed += bad;
        for failure in &rep.failures {
            println!("F {failure}");
        }
        rep
    };

    let cold = run_rep(&mut bench, true);
    println!("V cold_wall_s {}", cold.timing.wall_s);
    println!("V peak_rss_mib {}", cold.timing.peak_rss_mib);
    println!("V page_faults {}", cold.timing.faults);

    let measuring = Instant::now();
    let mut warm = 0;
    let mut latencies: Vec<(usize, f64)> = Vec::new();
    while warm < min_warm || measuring.elapsed().as_secs_f64() < seconds {
        let rep = run_rep(&mut bench, false);
        warm += 1;
        if !rep.failures.is_empty() {
            // A failed rep counts against the run, never into a median.
            continue;
        }
        println!("S wall_s {}", rep.timing.wall_s);
        println!("S cpu_user_s {}", rep.timing.cpu_user_s);
        println!("S items_per_s {}", rep.items as f64 / rep.timing.wall_s);
        if workload != Workload::StoreLookup {
            println!("S records_per_s {}", rep.items as f64 / rep.timing.wall_s);
        }
        for (name, value) in &rep.extras {
            println!("S {name} {value}");
        }
        latencies.extend(rep.latencies);
    }
    if !latencies.is_empty() {
        let mut all: Vec<f64> = latencies.iter().map(|(_, us)| *us).collect();
        all.sort_by(f64::total_cmp);
        println!("V lookup_p50_us {}", percentile_sorted(&all, 50.0));
        println!("V lookup_p99_us {}", percentile_sorted(&all, 99.0));
        println!("V lookup_samples {}", all.len());
    }
    println!("O {attempted} {failed}");
}

/// Traced pass: the chain with spans, the isolation passes, and the spans
/// written to `trace_file`.
pub fn trace(workload: Workload, seed: u64, dir: RunDir, untraced_wall_s: f64, trace_file: &Path) {
    let mut bench = Bench::load(workload, seed, dir);
    // One untraced rep first, so the chain is set against warm reps in the
    // state warm reps run in (allocator grown, output store present).
    let warm_up = bench.rep(true);
    let mut tracer = Tracer::new();
    let before = stand_in_calls();
    let mut traced = traced::run(&mut bench, &mut tracer);
    traced.failures.extend(warm_up.failures);
    if stand_in_calls() != before {
        traced
            .failures
            .push("the traced pass executed a rand or serde_json stand-in".into());
    }
    traced.layers.insert(
        "trace.overhead_frac",
        traced.chain_s / traced.baseline_s.unwrap_or(untraced_wall_s) - 1.0,
    );
    for (name, value) in &traced.layers {
        println!("V {name} {value}");
    }
    println!("V traced_chain_s {}", traced.chain_s);
    for (layer, self_s) in tracer.layer_self_times(traced.chain_run) {
        println!("L {layer} {self_s}");
    }
    for failure in &traced.failures {
        println!("F {failure}");
    }
    println!("O 1 {}", u64::from(!traced.failures.is_empty()));
    let file = File::create(trace_file).expect("create trace file");
    tracer
        .write_jsonl(BufWriter::new(file))
        .expect("write trace file");
}

/// What the parent reads back from a child's stdout.
#[derive(Debug, Default)]
pub struct ChildReport {
    pub samples: std::collections::BTreeMap<String, Vec<f64>>,
    pub values: std::collections::BTreeMap<String, f64>,
    pub layer_self: Vec<(String, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl ChildReport {
    pub fn parse(stdout: &str) -> Self {
        let mut report = Self::default();
        for line in stdout.lines() {
            let Some((tag, rest)) = line.split_once(' ') else {
                continue;
            };
            let mut fields = rest.split(' ');
            let first = fields.next().unwrap_or("");
            let number = |text: Option<&str>| text.and_then(|t| t.parse::<f64>().ok());
            match tag {
                "S" => {
                    if let Some(value) = number(fields.next()) {
                        report
                            .samples
                            .entry(first.to_string())
                            .or_default()
                            .push(value);
                    }
                }
                "V" => {
                    if let Some(value) = number(fields.next()) {
                        report.values.insert(first.to_string(), value);
                    }
                }
                "L" => {
                    if let Some(value) = number(fields.next()) {
                        report.layer_self.push((first.to_string(), value));
                    }
                }
                "O" => {
                    report.attempted = first.parse().unwrap_or(0);
                    report.failed = fields.next().and_then(|t| t.parse().ok()).unwrap_or(0);
                }
                "F" => report.failures.push(rest.to_string()),
                _ => {}
            }
        }
        report
    }

    pub fn median_of(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(f64::NAN, |s| median(s))
    }
}
