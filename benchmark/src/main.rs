//! `synbench`: the benchmark of the shipped synscan pipeline crates.
//!
//! ```text
//! synbench --workload W --seed S --seconds T --trace 0|1   one run, JSON last
//! synbench [--seed S] [--reps N] [--seconds T] [--workload W]   the full report
//! synbench --aa [...]                                   the report twice, compared
//! ```
//!
//! `benchmark/run.sh` builds this offline and passes its arguments through.
//! README.md explains the metrics, the workloads and the method.

mod child;
mod gen;
mod metrics;
mod procfs;
#[cfg(test)]
mod standins;
mod stats;
mod trace;
mod traced;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use child::ChildReport;
use metrics::{DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS};
use stats::Summary;
use workloads::{Inputs, Reference, RunDir, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Warm reps every pass takes at least.
const MIN_WARM: usize = 5;

#[derive(Debug, Default)]
struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    reps: Option<usize>,
    aa: bool,
    out_dir: Option<PathBuf>,
    /// Child mode: `--child measure|trace` with `--dir`.
    child: Option<String>,
    dir: Option<PathBuf>,
    untraced_wall: Option<f64>,
    trace_file: Option<PathBuf>,
    print_expected: bool,
    print_benchmark_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let workload = Workload::from_name(&name).ok_or(format!(
                    "unknown workload {name:?}; one of: {}",
                    Workload::ALL.map(Workload::name).join(", ")
                ))?;
                args.workload = Some(workload);
            }
            "--seed" => args.seed = Some(parse(&value("a number")?)?),
            "--seconds" => args.seconds = Some(parse(&value("a number")?)?),
            "--trace" => args.trace = Some(parse::<u8>(&value("0 or 1")?)? != 0),
            "--reps" => args.reps = Some(parse(&value("a number")?)?),
            "--aa" => args.aa = true,
            "--out-dir" => args.out_dir = Some(value("a directory")?.into()),
            "--child" => args.child = Some(value("measure or trace")?),
            "--dir" => args.dir = Some(value("a directory")?.into()),
            "--untraced-wall" => args.untraced_wall = Some(parse(&value("seconds")?)?),
            "--trace-file" => args.trace_file = Some(value("a path")?.into()),
            "--print-expected" => args.print_expected = true,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(text: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("cannot parse {text:?}"))
}

/// Everything one run of one workload produced.
struct RunResult {
    workload: Workload,
    end_to_end: BTreeMap<&'static str, Summary>,
    /// Workload-specific readings of the untraced pass, and every per-layer
    /// reading of the traced one.
    other: BTreeMap<String, Summary>,
    /// Layer self times of the traced chain.
    layer_self: Vec<(String, f64)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl RunResult {
    fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }
}

/// Removes the run directory when the run ends, however it ends.
struct Scratch(RunDir);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0 .0);
    }
}

struct Runner {
    out_dir: PathBuf,
    seed: u64,
    seconds: f64,
    min_warm: usize,
}

impl Runner {
    fn spawn_child(
        &self,
        mode: &str,
        workload: Workload,
        dir: &RunDir,
        seconds: f64,
        extra: &[String],
    ) -> ChildReport {
        let exe = std::env::current_exe().expect("own executable path");
        let output = Command::new(exe)
            .args(["--child", mode, "--workload", workload.name()])
            .arg("--dir")
            .arg(&dir.0)
            .args(["--seed", &self.seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--reps", &self.min_warm.to_string()])
            .args(extra)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .expect("spawn measuring process");
        let mut report = ChildReport::parse(&String::from_utf8_lossy(&output.stdout));
        if !output.status.success() {
            report
                .failures
                .push(format!("{mode} process ended with {}", output.status));
        }
        report
    }

    /// One run: set-up, reference, a fresh measuring process, and with
    /// `traced` a second fresh process for the traced pass.
    fn run(&self, workload: Workload, traced: bool) -> RunResult {
        let dir = RunDir(self.out_dir.join(format!(
            "run-{}-{}-{}",
            workload.name(),
            self.seed,
            std::process::id()
        )));
        std::fs::create_dir_all(&dir.0).expect("create run directory");
        let _scratch = Scratch(dir.clone());
        let dark = gen::telescope();

        // A traced run spends its time on the two passes; one set-up serves.
        let setups = if traced { 1 } else { SETUPS };
        let mut setup_s = Vec::new();
        let mut inputs = None;
        for _ in 0..setups {
            drop(inputs.take());
            let start = Instant::now();
            inputs = Some(workloads::set_up(workload, self.seed, &dark, &dir));
            setup_s.push(start.elapsed().as_secs_f64());
        }
        let mut pinned = reference_and_pins(
            workload,
            self.seed,
            &dark,
            &dir,
            inputs.expect("at least one set-up"),
        );

        workloads::quiesce(workload, &dir);

        // A traced run needs only a baseline from the untraced pass.
        let seconds = if traced {
            self.seconds / 4.0
        } else {
            self.seconds
        };
        let untraced = self.spawn_child("measure", workload, &dir, seconds, &[]);
        let mut result = RunResult {
            workload,
            end_to_end: BTreeMap::new(),
            other: BTreeMap::new(),
            layer_self: Vec::new(),
            attempted: untraced.attempted,
            failed: untraced.failed,
            failures: untraced.failures.clone(),
        };
        let samples = |name: &str| untraced.samples.get(name).cloned().unwrap_or_default();
        let single = |name: &str| untraced.values.get(name).copied().unwrap_or(f64::NAN);
        let load_s = single("child_load_s");
        let mut setup = Summary::of(&setup_s);
        // Building the inputs, plus loading them into the measuring process.
        for value in [&mut setup.value, &mut setup.q1, &mut setup.q3] {
            *value += load_s;
        }
        result.end_to_end.insert("setup_s", setup);
        result
            .end_to_end
            .insert("wall_s", Summary::of(&samples("wall_s")));
        // /proc/self/stat counts 10 ms ticks: the mean over the warm reps
        // resolves what a median of tick-quantized readings cannot.
        let cpu = samples("cpu_user_s");
        let mut cpu_summary = Summary::of(&cpu);
        cpu_summary.value = cpu.iter().sum::<f64>() / cpu.len() as f64;
        result.end_to_end.insert("cpu_user_s", cpu_summary);
        result
            .end_to_end
            .insert("items_per_s", Summary::of(&samples("items_per_s")));
        for name in ["peak_rss_mib", "page_faults"] {
            result
                .end_to_end
                .insert(name, Summary::single(single(name)));
        }
        for name in [
            "records_per_s",
            "store_bytes",
            "ckpt_wire_bytes",
            "image_load_s",
            "lookups_per_s",
            "core.report.hit_ratio",
        ] {
            let values = samples(name);
            if !values.is_empty() {
                result.other.insert(name.to_string(), Summary::of(&values));
            }
        }
        for name in ["lookup_p50_us", "lookup_p99_us"] {
            if let Some(&value) = untraced.values.get(name) {
                let mut summary = Summary::single(value);
                summary.n = single("lookup_samples") as usize;
                result.other.insert(name.to_string(), summary);
            }
        }
        if self.seed == DEFAULT_SEED {
            if let Some(stored) = untraced.samples.get("store_bytes") {
                pinned.push(("store_bytes", stats::median(stored) as u64));
            }
            check_expected(&mut result, &pinned, single("page_faults"));
        }

        if traced {
            let trace_file = self
                .out_dir
                .join(format!("trace-{}.jsonl", workload.name()));
            let report = self.spawn_child(
                "trace",
                workload,
                &dir,
                seconds,
                &[
                    "--untraced-wall".into(),
                    untraced.median_of("wall_s").to_string(),
                    "--trace-file".into(),
                    trace_file.display().to_string(),
                ],
            );
            for (name, value) in &report.values {
                result.other.insert(name.clone(), Summary::single(*value));
            }
            result.layer_self = report.layer_self;
            result.attempted += report.attempted;
            result.failed += report.failed;
            result.failures.extend(report.failures);
        }
        result
    }
}

/// Compute what the measuring process checks against — the sequential
/// reference, or the lookups with their expected answers — and return the
/// counts `expected.json` pins.
fn reference_and_pins(
    workload: Workload,
    seed: u64,
    dark: &synscan_telescope::AddressSet,
    dir: &RunDir,
    inputs: Inputs,
) -> Vec<(&'static str, u64)> {
    match inputs {
        Inputs::Records(records) => {
            let reference = Reference::compute(workload, dark, dir, &records);
            reference.write(&dir.reference());
            vec![
                ("admitted", reference.admitted()),
                ("distinct_sources", reference.distinct_sources),
                ("campaigns", reference.campaigns),
            ]
        }
        Inputs::Years(years) => {
            let lookups = workloads::make_lookups(&years, seed);
            workloads::write_lookups(&dir.lookups(), &lookups, &years);
            vec![
                ("admitted", years.iter().map(|a| a.total_packets).sum()),
                (
                    "distinct_sources",
                    years.iter().map(|a| a.distinct_sources).sum(),
                ),
                (
                    "campaigns",
                    years.iter().map(|a| a.campaigns.len() as u64).sum(),
                ),
            ]
        }
    }
}

/// Value of `"<key>": <number>` in the flat `expected.json`.
fn expected_value(key: &str) -> Option<f64> {
    let text = include_str!("../expected.json");
    let at = text.find(&format!("\"{key}\""))?;
    let rest = text[at..].split_once(':')?.1;
    let end = rest.find([',', '\n', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Hold the default seed's counts to `expected.json`. Page faults depend on
/// the kernel and allocator as well as the program, so a drift there is
/// printed, not failed.
fn check_expected(result: &mut RunResult, pinned: &[(&str, u64)], page_faults: f64) {
    let workload = result.workload.name();
    for (name, value) in pinned {
        let key = format!("{workload}.{name}");
        match expected_value(&key) {
            Some(expected) if expected == *value as f64 => {}
            Some(expected) => result
                .failures
                .push(format!("{key} is {value}, expected.json pins {expected}")),
            None => result.failures.push(format!("expected.json lacks {key}")),
        }
    }
    if let Some(expected) = expected_value(&format!("{workload}.page_faults")) {
        let drift = page_faults / expected - 1.0;
        if drift.abs() > 0.05 {
            println!(
                "note: {workload} page_faults {page_faults} is {:+.1}% off expected.json's {expected}",
                drift * 100.0
            );
        }
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
        .unwrap_or("")
}

fn print_row(name: &str, summary: &Summary) {
    println!(
        "  {name:<40} {:>16.6} {:<6} q1 {:>14.6}  q3 {:>14.6}  n {}",
        summary.value,
        unit_of(name),
        summary.q1,
        summary.q3,
        summary.n
    );
}

/// Every metric of one run by name, with unit, median, quartiles and count.
fn print_result(result: &RunResult) {
    println!("== {} ==", result.workload.name());
    println!(
        "  ops attempted {}  failed {}  failed_frac {}",
        result.attempted,
        result.failed,
        result.failed as f64 / result.attempted.max(1) as f64
    );
    for failure in &result.failures {
        println!("  FAILED: {failure}");
    }
    println!(" end to end (cpu_user_s is the mean of its samples)");
    for metric in &END_TO_END {
        if let Some(summary) = result.end_to_end.get(metric.name) {
            print_row(metric.name, summary);
        }
    }
    println!(" per layer and per workload");
    for metric in &PER_LAYER {
        if let Some(summary) = result.other.get(metric.name) {
            print_row(metric.name, summary);
        }
    }
    if !result.layer_self.is_empty() {
        let total: f64 = result.layer_self.iter().map(|(_, s)| s).sum();
        println!(" share of the traced chain ({total:.6} s) by layer, self time");
        for (layer, self_s) in &result.layer_self {
            println!(
                "  {layer:<40} {self_s:>16.6} s      {:>6.2} %",
                100.0 * self_s / total
            );
        }
    }
}

/// The contract's result line.
fn result_json(result: &RunResult, traced: bool) -> String {
    let mut correct = result.correct();
    let mut metrics = Vec::new();
    let mut push = |name: &str, unit: &str, value: f64| {
        // A missing or non-finite reading is a failed run, never a number.
        correct &= value.is_finite();
        let value = if value.is_finite() { value } else { 0.0 };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    };
    if traced {
        for metric in &PER_LAYER {
            let value = result.other.get(metric.name).map_or(0.0, |s| s.value);
            push(metric.name, metric.unit, value);
        }
    } else {
        for metric in &END_TO_END {
            let value = result
                .end_to_end
                .get(metric.name)
                .map_or(f64::NAN, |s| s.value);
            push(metric.name, metric.unit, value);
        }
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.attempted.max(1),
        result.failed,
        metrics.join(", ")
    )
}

/// The full report: every workload (or one), untraced then traced.
fn report(runner: &Runner, only: Option<Workload>) -> Vec<RunResult> {
    let mut results = Vec::new();
    for workload in Workload::ALL {
        if only.is_some_and(|w| w != workload) {
            continue;
        }
        let measured = runner.run(workload, false);
        print_result(&measured);
        let traced = runner.run(workload, true);
        println!(" traced run");
        print_result(&traced);
        results.push(measured);
        results.push(traced);
    }
    results
}

/// A/A: the same build measured twice; every (metric, workload) must agree
/// within the metric's bound.
fn compare(first: &[RunResult], second: &[RunResult]) -> bool {
    println!("== A/A: second set of runs against the first ==");
    println!(
        "  {:<22} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    let mut agree = true;
    for (a, b) in first.iter().zip(second) {
        if !a.layer_self.is_empty() {
            continue; // traced runs carry no bounded metric
        }
        for metric in &END_TO_END {
            let (x, y) = (&a.end_to_end[metric.name], &b.end_to_end[metric.name]);
            let worse = if metric.better == "lower" {
                y.value / x.value - 1.0
            } else {
                1.0 - y.value / x.value
            };
            let spread = |s: &Summary| (s.q3 - s.q1) / s.value;
            let verdict = if worse <= metric.bound {
                "agree"
            } else if spread(x).max(spread(y)) > metric.bound {
                "unresolved"
            } else {
                agree = false;
                "DISAGREE"
            };
            println!(
                "  {:<22} {:<14} {:>14.6} {:>14.6} {:>8.2}% {:>6.0}%  {verdict}",
                a.workload.name(),
                metric.name,
                x.value,
                y.value,
                worse * 100.0,
                metric.bound * 100.0
            );
        }
    }
    agree
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("synbench: {message}");
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let seconds = args.seconds.unwrap_or(f64::from(RUN_SECONDS));
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let min_warm = args.reps.unwrap_or(MIN_WARM).max(MIN_WARM);
    if let Some(mode) = &args.child {
        let workload = args.workload.expect("child mode names its workload");
        let dir = RunDir(args.dir.expect("child mode names its directory"));
        match mode.as_str() {
            "measure" => child::measure(workload, seed, dir, seconds, min_warm),
            _ => child::trace(
                workload,
                seed,
                dir,
                args.untraced_wall
                    .expect("trace mode gets the untraced wall"),
                &args.trace_file.expect("trace mode gets a trace file"),
            ),
        }
        return ExitCode::SUCCESS;
    }
    let runner = Runner {
        out_dir: args
            .out_dir
            .unwrap_or_else(|| Path::new("benchmark/out").into()),
        seed,
        seconds,
        min_warm,
    };
    println!(
        "synbench: seed {}  seconds {}  min warm reps {}  parallelism {}",
        runner.seed,
        runner.seconds,
        runner.min_warm,
        workloads::nproc()
    );

    if args.print_expected {
        print_expected(&runner);
        return ExitCode::SUCCESS;
    }
    let ok = if let Some(traced) = args.trace {
        // The contract: one workload, one pass, one JSON object last.
        let Some(workload) = args.workload else {
            eprintln!("synbench: --trace needs --workload");
            return ExitCode::from(2);
        };
        let result = runner.run(workload, traced);
        print_result(&result);
        println!("{}", result_json(&result, traced));
        result.correct()
    } else {
        let first = report(&runner, args.workload);
        let mut ok = first.iter().all(RunResult::correct);
        if args.aa {
            let second = report(&runner, args.workload);
            ok &= second.iter().all(RunResult::correct);
            ok &= compare(&first, &second);
        }
        println!(
            "{}",
            if ok {
                "all checks passed"
            } else {
                "CHECKS FAILED"
            }
        );
        ok
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Print the default seed's counts in `expected.json`'s format, to re-pin
/// after a change that is meant to move them.
fn print_expected(runner: &Runner) {
    let mut rows = Vec::new();
    for workload in Workload::ALL {
        let dir = RunDir(runner.out_dir.join(format!("pin-{}", workload.name())));
        std::fs::create_dir_all(&dir.0).expect("create run directory");
        let _scratch = Scratch(dir.clone());
        let dark = gen::telescope();
        let inputs = workloads::set_up(workload, DEFAULT_SEED, &dark, &dir);
        let pins = reference_and_pins(workload, DEFAULT_SEED, &dark, &dir, inputs);
        workloads::quiesce(workload, &dir);
        let report = runner.spawn_child("measure", workload, &dir, runner.seconds, &[]);
        let name = workload.name();
        for (pin, value) in pins {
            rows.push(format!("  \"{name}.{pin}\": {value}"));
        }
        if let Some(stored) = report.samples.get("store_bytes") {
            rows.push(format!(
                "  \"{name}.store_bytes\": {}",
                stats::median(stored)
            ));
        }
        rows.push(format!(
            "  \"{name}.page_faults\": {}",
            report.values.get("page_faults").copied().unwrap_or(0.0)
        ));
    }
    println!("{{\n{}\n}}", rows.join(",\n"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_json_pins_every_workload() {
        for workload in Workload::ALL {
            for pin in ["admitted", "distinct_sources", "campaigns", "page_faults"] {
                let key = format!("{}.{pin}", workload.name());
                assert!(
                    expected_value(&key).is_some_and(|v| v > 0.0),
                    "expected.json lacks {key}"
                );
            }
        }
        assert!(expected_value("no_such_workload.admitted").is_none());
    }

    #[test]
    fn child_reports_parse_back() {
        let report = ChildReport::parse(
            "V peak_rss_mib 12.5\nS wall_s 1.0\nS wall_s 3.0\nL core.collect 0.25\n\
             F year digest differs\nO 7 1\nnoise\n",
        );
        assert_eq!(report.values["peak_rss_mib"], 12.5);
        assert_eq!(report.median_of("wall_s"), 2.0);
        assert!(report.median_of("absent").is_nan());
        assert_eq!(report.layer_self, vec![("core.collect".to_string(), 0.25)]);
        assert_eq!((report.attempted, report.failed), (7, 1));
        assert_eq!(report.failures, vec!["year digest differs".to_string()]);
    }

    #[test]
    fn a_missing_metric_fails_the_result_line() {
        let result = RunResult {
            workload: Workload::StoreLookup,
            end_to_end: BTreeMap::new(),
            other: BTreeMap::new(),
            layer_self: Vec::new(),
            attempted: 3,
            failed: 0,
            failures: Vec::new(),
        };
        let line = result_json(&result, false);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
        // Every per-layer metric is named in a traced result, zero or not.
        let traced = result_json(&result, true);
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
    }
}
