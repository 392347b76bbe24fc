//! `analyze` — run the paper's measurement pipeline on an external pcap.
//!
//! ```text
//! analyze <capture.pcap | -> [--monitored N] [--year Y] [--top N]
//!         [--pipeline sequential|auto|sharded:N] [--materialize]
//!         [--ingest read|mmap|mmap:N] [--heavy-hitters K[,WIDTH,DEPTH]]
//!         [--fault-policy fail|skip|stop] [--chaos-seed N]
//!         [--checkpoint-dir DIR] [--checkpoint-every N] [--resume]
//!         [--die-after-checkpoints K] [--store-dir DIR]
//! ```
//!
//! The capture is SYN-filtered, fingerprinted, grouped into campaigns and
//! summarized, exactly as the study does with telescope data. When the dark
//! address count is not given, it is inferred from the capture (every
//! destination that received unsolicited traffic).
//!
//! By default the capture is *streamed* through the pipeline in O(batch)
//! memory: file inputs make one cheap inference pass (distinct
//! destinations) and then one analysis pass. Pass `-` as the path to read a
//! classic pcap from stdin — combine with `--monitored N` to stay
//! single-pass streaming (stdin cannot be rewound, so inference on stdin
//! falls back to loading the capture). `--materialize` forces the
//! load-and-sort path, which also accepts captures that are not
//! time-ordered.
//!
//! `--ingest mmap:N` decodes the capture's windows on N threads (clamped to
//! the core count) behind one sequential reader, merged back in capture
//! order; plain `mmap` is N = 1. A file is opened once and streamed through
//! a recycled window on every pass — never read whole. Results are
//! byte-identical to `--ingest read` (the default) on every input,
//! including corrupt ones; stdin and pipes are buffered whole under mmap
//! modes, because the inference pass has to read them twice.
//!
//! Real captures get torn and corrupted; by default (`--fault-policy
//! fail`) the first malformed record aborts with a typed error.
//! `--fault-policy skip` skips recoverable records and treats a torn tail
//! as end-of-capture, reporting what was dropped in the summary;
//! `--fault-policy stop` ends the capture cleanly at the first fault.
//! `--chaos-seed N` XORs seeded byte noise into the capture before parsing
//! — a reproducible robustness drill for the policies.
//!
//! `--checkpoint-dir DIR` makes the streaming analysis crash-safe: the full
//! pipeline state checkpoints atomically into the directory,
//! SIGINT/SIGTERM checkpoint before exiting, and `--resume` restarts from
//! the latest checkpoint with bit-identical output. Streaming-only (needs
//! `--monitored`, file input); `--die-after-checkpoints K` is the
//! kill-and-resume drill hook.
//!
//! `--heavy-hitters K[,WIDTH,DEPTH]` adds the sublinear heavy-hitter layer:
//! the analysis carries a space-saving top-K tracker and count-min rate
//! sketch over raw source addresses, the report gains a "network impact"
//! section, and the sketch state persists into the `--store-dir` slice for
//! the `synscan-serve` `heavy` query.
//!
//! `--store-dir DIR` persists the finished analysis as a versioned store
//! slice (`year-YYYY.store`) — the same terminal-state path `repro` uses —
//! so a capture analyzed here is immediately queryable by `synscan-serve`.
//! Every run variant (streaming, mapped, materialized, checkpointed)
//! funnels through the one store write.
//!
//! `analyze --worker [tcp:HOST:PORT|unix:PATH]` does none of the above:
//! it turns the process into a distributed-runtime worker speaking the
//! SYNDIST framed protocol on stdin/stdout (or the given endpoint) and
//! serving slice assignments from a coordinator (`repro --distributed N`).
//! Both batch binaries expose the same worker, so either can populate a
//! fleet.
//!
//! Try it on the repository's own artifact:
//!
//! ```text
//! cargo run --release --bin repro -- --scale small pcap
//! cargo run --release --bin analyze -- out/sample_2020.pcap
//! cat out/sample_2020.pcap | cargo run --release --bin analyze -- - --monitored 4096
//! ```

use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};

use synscan::analyze::{
    analyze_pcap, analyze_pcap_checkpointed, analyze_pcap_mapped, infer_monitored_with_policy,
    render_report, AnalyzeOptions, AnalyzeResult, AnalyzeStatus,
};
use synscan::core::store::AnalysisStore;
use synscan::experiment::CheckpointSpec;
use synscan_wire::ingest::{IngestMode, MappedCapture};

const USAGE: &str = "usage: analyze <capture.pcap | -> [--monitored N] [--year Y] [--top N] \
                     [--pipeline sequential|auto|sharded:N] [--materialize] \
                     [--ingest read|mmap|mmap:N] [--heavy-hitters K[,WIDTH,DEPTH]] \
                     [--fault-policy fail|skip|stop] [--chaos-seed N] \
                     [--checkpoint-dir DIR] [--checkpoint-every N] [--resume] \
                     [--die-after-checkpoints K] [--store-dir DIR]\n\
                     \n  <capture.pcap | ->  classic pcap file, or `-` for stdin\
                     \n  --monitored N       dark (monitored) address count; default: inferred \
                     from the capture\
                     \n  --year Y            label year for the report (default 2024)\
                     \n  --top N             top ports to summarize (default 10)\
                     \n  --pipeline MODE     sequential | auto | sharded:N (default sequential)\
                     \n  --materialize       load and sort the whole capture instead of \
                     streaming it (required for unordered captures)\
                     \n  --ingest MODE       read (streaming, default) | mmap (reopenable \
                     capture) | mmap:N (N decode threads); mmap buffers stdin/pipes whole\
                     \n  --heavy-hitters K[,WIDTH,DEPTH]  track the top-K sources in \
                     sublinear space (space-saving + count-min; default sketch 2048x4) \
                     and report the network-impact section\
                     \n  --fault-policy P    fail | skip | stop: how malformed records are \
                     handled (default fail)\
                     \n  --chaos-seed N      XOR seeded byte noise into the capture before \
                     parsing (robustness drill)\
                     \n  --checkpoint-dir D  persist pipeline checkpoints into D \
                     (streaming-only; needs --monitored and a file input)\
                     \n  --checkpoint-every N  records between periodic checkpoints \
                     (default 500000; 0 = only on completion)\
                     \n  --resume            restart from the latest checkpoint in \
                     --checkpoint-dir\
                     \n  --die-after-checkpoints K  abort the process after K checkpoints \
                     (kill-and-resume drill)\
                     \n  --store-dir DIR     persist the finished analysis as a versioned \
                     store slice in DIR (queryable by synscan-serve)\
                     \n  --worker [EP]       run as a distributed-runtime worker on \
                     stdin/stdout, or connect to EP (tcp:HOST:PORT | unix:PATH); \
                     must be the first argument";

fn flag_value<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<T, String> {
    let value = args
        .next()
        .ok_or_else(|| format!("{flag} needs a value ({what})"))?;
    value
        .parse()
        .map_err(|_| format!("{flag}: invalid value `{value}` ({what})"))
}

/// Persist a finished analysis into `--store-dir`, if one was given — the
/// single exit point every run variant below funnels through.
fn persist_result(result: &AnalyzeResult, store_dir: Option<&Path>) -> Result<(), String> {
    let Some(dir) = store_dir else {
        return Ok(());
    };
    let store = AnalysisStore::open(dir)
        .map_err(|e| format!("cannot open analysis store {}: {e}", dir.display()))?;
    let path = result
        .persist(&store)
        .map_err(|e| format!("cannot persist analysis into {}: {e}", dir.display()))?;
    eprintln!("[analyze] store slice written: {}", path.display());
    Ok(())
}

/// Serve the distributed runtime's worker protocol — same worker as
/// `repro --worker`, hosted here so either batch binary can populate a
/// fleet (`repro --distributed N --worker-cmd "analyze --worker"`).
fn worker_main(endpoint: Option<&str>) -> Result<(), String> {
    let label = format!("analyze-worker-{}", std::process::id());
    let result = match endpoint {
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let mut input = stdin.lock();
            let mut output = stdout.lock();
            synscan::run_worker(&mut input, &mut output, &label)
        }
        Some(spec) => {
            let (mut input, mut output) =
                synscan::connect_worker(spec).map_err(|e| e.to_string())?;
            synscan::run_worker(&mut input, &mut output, &label)
        }
    };
    result.map_err(|e| format!("worker: {e}"))
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--worker") {
        if argv.len() > 2 {
            return Err("--worker takes at most one endpoint argument".into());
        }
        return worker_main(argv.get(1).map(String::as_str));
    }
    let mut args = argv.into_iter();
    let mut path: Option<String> = None;
    let mut options = AnalyzeOptions::default();
    let mut store_dir: Option<PathBuf> = None;
    let mut checkpoint_dir: Option<PathBuf> = None;
    let mut checkpoint_every: u64 = 500_000;
    let mut resume = false;
    let mut die_after: Option<u64> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--checkpoint-dir" => {
                checkpoint_dir = Some(PathBuf::from(flag_value::<String>(
                    &mut args,
                    "--checkpoint-dir",
                    "a directory",
                )?))
            }
            "--store-dir" => {
                store_dir = Some(PathBuf::from(flag_value::<String>(
                    &mut args,
                    "--store-dir",
                    "a directory",
                )?))
            }
            "--checkpoint-every" => {
                checkpoint_every = flag_value(&mut args, "--checkpoint-every", "a record count")?
            }
            "--resume" => resume = true,
            "--die-after-checkpoints" => {
                die_after = Some(flag_value(
                    &mut args,
                    "--die-after-checkpoints",
                    "a checkpoint count",
                )?)
            }
            "--monitored" => {
                options.monitored = Some(flag_value(&mut args, "--monitored", "an address count")?)
            }
            "--year" => options.year = flag_value(&mut args, "--year", "a calendar year")?,
            "--top" => options.top_ports = flag_value(&mut args, "--top", "a port count")?,
            "--pipeline" => {
                options.pipeline = flag_value(&mut args, "--pipeline", "sequential|auto|sharded:N")?
            }
            "--materialize" => options.materialize = true,
            "--ingest" => options.ingest = flag_value(&mut args, "--ingest", "read|mmap|mmap:N")?,
            "--heavy-hitters" => {
                let config: synscan::core::sketch::HeavyHitterConfig =
                    flag_value(&mut args, "--heavy-hitters", "K[,WIDTH,DEPTH]")?;
                config
                    .validate()
                    .map_err(|e| format!("--heavy-hitters: {e}"))?;
                options.heavy = Some(config);
            }
            "--fault-policy" => {
                options.policy = flag_value(&mut args, "--fault-policy", "fail|skip|stop")?
            }
            "--chaos-seed" => {
                options.chaos_seed = Some(flag_value(&mut args, "--chaos-seed", "a u64 seed")?)
            }
            "--worker" => {
                return Err("--worker must be the first argument".into());
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return Ok(());
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag `{other}`\n{USAGE}"));
            }
            other => path = Some(other.to_string()),
        }
    }
    let Some(path) = path else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };

    if checkpoint_dir.is_none() && (resume || die_after.is_some()) {
        return Err("--resume / --die-after-checkpoints need --checkpoint-dir".into());
    }
    if let IngestMode::Mapped { .. } = options.ingest {
        if checkpoint_dir.is_some() {
            // The checkpointed driver opens its own `Read`-based stream and
            // has no fanned-out variant.
            return Err("--checkpoint-dir uses the streaming reader; drop --ingest mmap".into());
        }
        // Files are opened, not loaded: each pass streams the capture
        // through a recycled window. stdin cannot be re-read, so it is
        // buffered whole, once (the documented fallback).
        let capture = if path == "-" {
            MappedCapture::from_reader(std::io::stdin().lock())
                .map_err(|e| format!("cannot buffer stdin: {e}"))?
        } else {
            MappedCapture::load(&path).map_err(|e| format!("cannot read {path}: {e}"))?
        };
        // The inference pass reads the capture as-is, like the two-pass
        // streaming default; for a file the second read is the page cache's.
        if options.monitored.is_none() && !options.materialize {
            let (monitored, faults) = infer_monitored_with_policy(capture.reader(), options.policy)
                .map_err(|e| format!("cannot read {path} for dark-set inference: {e}"))?;
            if faults.any() {
                eprintln!("[analyze] dark-set inference pass: {faults}");
            }
            options.monitored = Some(monitored);
        }
        let result = analyze_pcap_mapped(&capture, &options)
            .map_err(|e| format!("cannot analyze {path}: {e}"))?;
        persist_result(&result, store_dir.as_deref())?;
        print!("{}", render_report(&result));
        return Ok(());
    }
    if path == "-" {
        if checkpoint_dir.is_some() {
            // A resumed run has to re-read the capture to fast-forward the
            // parser, and stdin cannot be replayed.
            return Err("--checkpoint-dir needs a file input (stdin cannot be re-read)".into());
        }
        // stdin cannot be rewound: streams single-pass when --monitored is
        // given, otherwise analyze_pcap materializes to infer the dark set.
        let stdin = std::io::stdin();
        let result = analyze_pcap(stdin.lock(), &options)
            .map_err(|e| format!("cannot analyze stdin: {e}"))?;
        persist_result(&result, store_dir.as_deref())?;
        print!("{}", render_report(&result));
        return Ok(());
    }

    let open = |path: &str| -> Result<BufReader<File>, String> {
        File::open(path)
            .map(BufReader::new)
            .map_err(|e| format!("cannot open {path}: {e}"))
    };
    // Two-pass streaming default: infer the dark set in a record-free pass,
    // then stream the analysis. --materialize restores the single
    // load-and-sort pass. The inference pass reads the capture as-is
    // (chaos noise only decays the analysis pass) but honors the fault
    // policy, so a torn file can still yield an inferred dark set.
    if options.monitored.is_none() && !options.materialize {
        let (monitored, faults) = infer_monitored_with_policy(open(&path)?, options.policy)
            .map_err(|e| format!("cannot read {path} for dark-set inference: {e}"))?;
        if faults.any() {
            eprintln!("[analyze] dark-set inference pass: {faults}");
        }
        options.monitored = Some(monitored);
    }
    let Some(dir) = checkpoint_dir else {
        let result = analyze_pcap(open(&path)?, &options)
            .map_err(|e| format!("cannot analyze {path}: {e}"))?;
        persist_result(&result, store_dir.as_deref())?;
        print!("{}", render_report(&result));
        return Ok(());
    };

    std::fs::create_dir_all(&dir)
        .map_err(|e| format!("cannot create checkpoint dir {}: {e}", dir.display()))?;
    let spec = CheckpointSpec::new(&dir)
        .every(checkpoint_every)
        .resume(resume)
        .interrupt_after(die_after);
    let stop = sig::install();
    let status = analyze_pcap_checkpointed(open(&path)?, &options, &spec, Some(stop))
        .map_err(|e| format!("cannot analyze {path}: {e}"))?;
    match status {
        AnalyzeStatus::Completed {
            result,
            report,
            checkpoints,
        } => {
            if !report.stalls.is_empty() || !report.failures.is_empty() || report.retried > 0 {
                eprintln!(
                    "[analyze] supervision: {} stalls, {} contained failures, {} retries",
                    report.stalls.len(),
                    report.failures.len(),
                    report.retried
                );
            }
            eprintln!(
                "[analyze] {checkpoints} checkpoints written to {}",
                dir.display()
            );
            persist_result(&result, store_dir.as_deref())?;
            print!("{}", render_report(&result));
            Ok(())
        }
        AnalyzeStatus::Interrupted {
            checkpoints,
            cursor,
        } => {
            eprintln!(
                "[analyze] interrupted at record {cursor}: {checkpoints} checkpoints in {}",
                dir.display()
            );
            if die_after.is_some() {
                // The kill-and-resume drill dies the way a crash would.
                std::process::abort();
            }
            Err("analysis interrupted; re-run with --resume to continue".into())
        }
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("analyze: {e}");
        std::process::exit(1);
    }
}

/// Minimal SIGINT/SIGTERM hook with no signal-handling crate: the handler
/// flips one atomic, and the supervised driver checkpoints and exits at the
/// next batch boundary. Only an atomic store happens in signal context.
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static STOP: AtomicBool = AtomicBool::new(false);

    #[cfg(unix)]
    pub fn install() -> &'static AtomicBool {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        extern "C" fn on_signal(_signum: i32) {
            STOP.store(true, Ordering::SeqCst);
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
        &STOP
    }

    #[cfg(not(unix))]
    pub fn install() -> &'static AtomicBool {
        &STOP
    }
}
