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
//! The capture is *streamed* through the pipeline in O(batch) memory: one
//! cheap inference pass (distinct destinations) unless `--monitored N` is
//! given, then one analysis pass. Pass `-` as the path to read a classic
//! pcap from stdin — stdin cannot be rewound, so it is buffered whole when
//! the dark set has to be inferred; with `--monitored N` it stays
//! single-pass. `--materialize` loads and sorts the capture before the
//! analysis pass, which also accepts captures that are not time-ordered.
//!
//! `--ingest mmap:N` decodes the capture's windows on N threads (clamped to
//! the core count) behind one sequential reader, merged back in capture
//! order; `read` (the default) and plain `mmap` are N = 1, decoded on the
//! calling thread. A file is opened once per pass and streamed through a
//! recycled window — never read whole. Results are byte-identical under
//! every mode on every input, including corrupt ones.
//!
//! Real captures get torn and corrupted; by default (`--fault-policy
//! fail`) the first malformed record aborts with a typed error.
//! `--fault-policy skip` skips recoverable records and treats a torn tail
//! as end-of-capture, reporting what was dropped in the summary;
//! `--fault-policy stop` ends the capture cleanly at the first fault.
//! `--chaos-seed N` XORs seeded byte noise into the capture before parsing
//! — a reproducible robustness drill for the policies.
//!
//! `--checkpoint-dir DIR` makes the analysis crash-safe: the full pipeline
//! state checkpoints atomically into the directory, SIGINT/SIGTERM
//! checkpoint before exiting, a failed shard worker is retried once from the
//! last checkpoint, and `--resume` restarts from the latest checkpoint with
//! bit-identical output — under every `--ingest` mode, with `--materialize`,
//! with the dark set given or inferred. It needs a file input (a resume
//! re-reads the capture) and refuses a checkpoint cut from another capture
//! or under other options; `--die-after-checkpoints K` is the
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
//! The slice is written the moment the analysis completes.
//!
//! `analyze --worker [[tcp:]HOST:PORT|unix:PATH]` does none of the above:
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

use synscan::analyze::{analyze, render_report, AnalyzeOptions, CaptureInput};
use synscan::core::store::AnalysisStore;
use synscan::experiment::RunOptions;
use synscan::RunStatus;
use synscan_wire::ingest::MappedCapture;

mod cli;
use cli::{flag_dir, flag_value, sig, CheckpointFlags};

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
                     \n  --ingest MODE       read (default) | mmap (one decode thread) | \
                     mmap:N (N decode threads)\
                     \n  --heavy-hitters K[,WIDTH,DEPTH]  track the top-K sources in \
                     sublinear space (space-saving + count-min; default sketch 2048x4) \
                     and report the network-impact section\
                     \n  --fault-policy P    fail | skip | stop: how malformed records are \
                     handled (default fail)\
                     \n  --chaos-seed N      XOR seeded byte noise into the capture before \
                     parsing (robustness drill)\
                     \n  --checkpoint-dir D  persist pipeline checkpoints into D \
                     (needs a file input)\
                     \n  --checkpoint-every N  records between periodic checkpoints \
                     (default 500000; 0 = only on completion)\
                     \n  --resume            restart from the latest checkpoint in \
                     --checkpoint-dir\
                     \n  --die-after-checkpoints K  abort the process after K checkpoints \
                     (kill-and-resume drill)\
                     \n  --store-dir DIR     persist the finished analysis as a versioned \
                     store slice in DIR (queryable by synscan-serve)\
                     \n  --worker [EP]       run as a distributed-runtime worker on \
                     stdin/stdout, or connect to EP ([tcp:]HOST:PORT | unix:PATH); \
                     must be the first argument";

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--worker") {
        return cli::worker_main("analyze", &argv);
    }
    let mut args = argv.into_iter();
    let mut path: Option<String> = None;
    let mut options = AnalyzeOptions::default();
    let mut store_dir = None;
    let mut checkpoint = CheckpointFlags::default();
    while let Some(arg) = args.next() {
        if checkpoint.take(&arg, &mut args)? {
            continue;
        }
        match arg.as_str() {
            "--store-dir" => store_dir = Some(flag_dir(&mut args, "--store-dir")?),
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
            "--heavy-hitters" => options.heavy = Some(cli::heavy_hitters(&mut args)?),
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

    let spec = checkpoint.spec()?;

    // A file is opened, not loaded: every pass streams it through a recycled
    // window. stdin comes once; so does anything else that opens but is not
    // a regular file (a FIFO, a process substitution), whatever the queues.
    let capture;
    let (name, input) = if path == "-" {
        ("stdin", CaptureInput::reader(std::io::stdin()))
    } else {
        let input = match MappedCapture::load(&path) {
            Ok(loaded) => {
                capture = loaded;
                CaptureInput::Capture(&capture)
            }
            Err(e) if e.kind() == std::io::ErrorKind::InvalidInput => {
                let file = File::open(&path).map_err(|e| format!("cannot open {path}: {e}"))?;
                CaptureInput::reader(file)
            }
            Err(e) => return Err(format!("cannot read {path}: {e}")),
        };
        (path.as_str(), input)
    };

    let store = store_dir
        .map(|dir| {
            AnalysisStore::open(&dir)
                .map_err(|e| format!("cannot open analysis store {}: {e}", dir.display()))
        })
        .transpose()?;
    let run = RunOptions {
        checkpoint: spec.as_ref(),
        // Without a checkpoint to cut there is nothing to stop for.
        stop: spec
            .as_ref()
            .map(|_| sig::install(&[sig::SIGINT, sig::SIGTERM])),
        store: store.as_ref(),
    };
    let status =
        analyze(input, &options, &run).map_err(|e| format!("cannot analyze {name}: {e}"))?;
    match status {
        RunStatus::Completed {
            outcome: result,
            report,
            checkpoints,
        } => {
            cli::supervision_summary("[analyze]", &report);
            if let Some(spec) = &spec {
                eprintln!(
                    "[analyze] {checkpoints} checkpoints written to {}",
                    spec.dir().display()
                );
            }
            if let Some(store) = &store {
                eprintln!(
                    "[analyze] store slice written: {}",
                    store.slice_path(options.year).display()
                );
            }
            print!("{}", render_report(&result));
            Ok(())
        }
        RunStatus::Interrupted {
            checkpoints,
            cursor,
        } => {
            eprintln!("[analyze] interrupted at record {cursor} behind {checkpoints} checkpoints");
            Err(checkpoint.interrupted("analysis"))
        }
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("analyze: {e}");
        std::process::exit(1);
    }
}
