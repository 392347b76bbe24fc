//! `synscan-serve` — resident query daemon over the versioned analysis
//! store, plus the matching client.
//!
//! ```text
//! # daemon: load the store, answer NDJSON queries until `shutdown`
//! synscan-serve --store-dir out/store --listen 127.0.0.1:7070 [--max-in-flight N]
//! synscan-serve --store-dir out/store --listen unix:/tmp/synscan.sock
//!
//! # client: send a query file (or stdin) to a running daemon
//! synscan-serve --connect 127.0.0.1:7070 --query queries.ndjson [--bodies]
//!
//! # offline: answer the same queries straight from the store, no daemon
//! synscan-serve --store-dir out/store --query queries.ndjson [--bodies]
//! ```
//!
//! One JSON request per input line, one response line each (see
//! `synscan_core::store::query` for the op table). `--bodies` prints only
//! the rendered artifact from each `body` field — byte-identical to the
//! batch files `repro` writes, which is what the CI equivalence check
//! diffs — and exits nonzero if any query fails.
//!
//! The daemon exits on a `{"op":"shutdown"}` request; `{"op":"reload"}`
//! atomically swaps in a freshly loaded store image without dropping
//! in-flight queries.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;

use synscan::core::store::query::{answer_line, body_of};
use synscan::core::store::{AnalysisStore, StoreImage};
use synscan::serve::{ServeOptions, Server};
use synscan::Endpoint;

mod cli;
use cli::{flag_dir, flag_value};

const USAGE: &str = "usage: synscan-serve (--listen SPEC | --connect SPEC | --query FILE) \
                     [--store-dir DIR] [--query FILE] [--bodies]\n\
                     \n  --store-dir DIR     analysis store directory (default out/store)\
                     \n  --listen SPEC       run the daemon on [tcp:]HOST:PORT or unix:PATH\
                     \n  --max-in-flight N   admission gate: serve at most N connections, \
                     one thread each, and shed the rest (default 64)\
                     \n  --request-deadline MS  per-request read/write budget in \
                     milliseconds, 0 disables (default 10000)\
                     \n  --stall-timeout SECS   idle-connection cutoff in seconds (default 30)\
                     \n  --connect SPEC      send --query to a daemon at [tcp:]HOST:PORT or unix:PATH\
                     \n  --query FILE        NDJSON request file, `-` for stdin; without \
                     --connect the store is queried directly (no daemon)\
                     \n  --bodies            print only each response's rendered body \
                     (byte-identical to the batch artifacts); nonzero exit on any error \
                     response\n\
                     \nSIGTERM drains the daemon gracefully: in-flight conversations \
                     finish, new connections get a typed `draining` reply.";

/// Usage mistakes exit 2; runtime failures exit 1.
enum Failure {
    Usage(String),
    Runtime(String),
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Runtime(msg)
    }
}

impl From<cli::Usage> for Failure {
    fn from(usage: cli::Usage) -> Self {
        Failure::Usage(usage.0)
    }
}

fn run() -> Result<(), Failure> {
    let mut args = std::env::args().skip(1);
    let mut store_dir = PathBuf::from("out/store");
    let mut listen: Option<String> = None;
    let mut connect: Option<String> = None;
    let mut query: Option<String> = None;
    let mut options = ServeOptions::default();
    let mut bodies = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--store-dir" => store_dir = flag_dir(&mut args, "--store-dir")?,
            "--listen" => {
                listen = Some(flag_value(
                    &mut args,
                    "--listen",
                    "[tcp:]HOST:PORT or unix:PATH",
                )?)
            }
            "--connect" => {
                connect = Some(flag_value(
                    &mut args,
                    "--connect",
                    "[tcp:]HOST:PORT or unix:PATH",
                )?)
            }
            "--query" => query = Some(flag_value(&mut args, "--query", "a file path or -")?),
            "--max-in-flight" => {
                options.max_in_flight =
                    flag_value(&mut args, "--max-in-flight", "a connection count")?
            }
            "--request-deadline" => {
                let ms: u64 = flag_value(&mut args, "--request-deadline", "milliseconds")?;
                options.request_deadline = std::time::Duration::from_millis(ms);
            }
            "--stall-timeout" => {
                let secs: u64 = flag_value(&mut args, "--stall-timeout", "seconds")?;
                options.stall_timeout = std::time::Duration::from_secs(secs);
            }
            "--bodies" => bodies = true,
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return Ok(());
            }
            other => {
                return Err(Failure::Usage(format!("unknown argument `{other}`")));
            }
        }
    }

    match (listen, connect, query) {
        (Some(_), Some(_), _) => Err(Failure::Usage(
            "--listen and --connect are mutually exclusive".to_string(),
        )),
        (Some(spec), None, None) => run_daemon(&store_dir, &spec, options),
        (Some(_), None, Some(_)) => Err(Failure::Usage(
            "--listen runs a daemon; query it with --connect".to_string(),
        )),
        (None, Some(spec), Some(file)) => run_client(&spec, &file, bodies),
        (None, Some(_), None) => Err(Failure::Usage("--connect needs --query FILE".to_string())),
        (None, None, Some(file)) => run_offline(&store_dir, &file, bodies),
        (None, None, None) => Err(Failure::Usage(
            "nothing to do: pass --listen, --connect, or --query".to_string(),
        )),
    }
}

fn run_daemon(
    store_dir: &std::path::Path,
    spec: &str,
    options: ServeOptions,
) -> Result<(), Failure> {
    let listen = Endpoint::parse(spec).map_err(|e| Failure::Usage(format!("--listen: {e}")))?;
    let max_in_flight = options.max_in_flight.max(1);
    let server = Server::start(store_dir, &listen, options)
        .map_err(|e| format!("cannot start daemon: {e}"))?;
    eprintln!(
        "[synscan-serve] serving {} on {} (max {max_in_flight} in flight)",
        store_dir.display(),
        server.endpoint(),
    );

    // Graceful drain on SIGTERM: finish in-flight conversations, refuse new
    // ones with a typed reply, then stop once idle (30 s grace).
    let term = cli::sig::install(&[cli::sig::SIGTERM]);
    let control = server.control();
    std::thread::Builder::new()
        .name("serve-sigterm".to_string())
        .spawn(move || loop {
            if term.load(std::sync::atomic::Ordering::SeqCst) {
                eprintln!("[synscan-serve] SIGTERM: draining (in-flight finish, new refused)");
                control.drain_then_stop(std::time::Duration::from_secs(30));
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
        })
        .map_err(|e| Failure::Runtime(format!("cannot spawn signal watcher: {e}")))?;

    server
        .join()
        .map_err(|e| Failure::Runtime(format!("daemon failed: {e}")))?;
    eprintln!("[synscan-serve] shut down");
    Ok(())
}

/// Read the NDJSON request lines from a file or stdin, skipping blanks.
fn read_queries(file: &str) -> Result<Vec<String>, Failure> {
    let text = if file == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| Failure::Runtime(format!("cannot read stdin: {e}")))?;
        buf
    } else {
        std::fs::read_to_string(file)
            .map_err(|e| Failure::Runtime(format!("cannot read {file}: {e}")))?
    };
    Ok(text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect())
}

/// Print one response line. Under `--bodies` only the rendered artifact is
/// printed, and an error response fails the whole invocation.
fn emit(line: &str, bodies: bool) -> Result<(), Failure> {
    if !bodies {
        println!("{line}");
        return Ok(());
    }
    match body_of(line) {
        Some(body) => {
            println!("{body}");
            Ok(())
        }
        None => Err(Failure::Runtime(format!("query failed: {line}"))),
    }
}

fn run_client(spec: &str, file: &str, bodies: bool) -> Result<(), Failure> {
    let target = Endpoint::parse(spec).map_err(|e| Failure::Usage(format!("--connect: {e}")))?;
    let queries = read_queries(file)?;
    let refused = |e| Failure::Runtime(format!("cannot connect to {spec}: {e}"));
    match target {
        Endpoint::Unix(path) => {
            let stream = std::os::unix::net::UnixStream::connect(path).map_err(refused)?;
            exchange(stream, &queries, bodies)
        }
        Endpoint::Tcp(addr) => {
            exchange(TcpStream::connect(addr).map_err(refused)?, &queries, bodies)
        }
    }
}

/// Lockstep request/response exchange over one connection.
fn exchange<S: Read + Write>(stream: S, queries: &[String], bodies: bool) -> Result<(), Failure> {
    let mut chan = BufReader::new(stream);
    let mut line = String::new();
    for request in queries {
        // One write for the line and its newline: a separate newline write
        // waits under Nagle's algorithm for the daemon's delayed ACK.
        let out = chan.get_mut();
        out.write_all(format!("{request}\n").as_bytes())
            .and_then(|()| out.flush())
            .map_err(|e| Failure::Runtime(format!("cannot send request: {e}")))?;
        line.clear();
        let n = chan
            .read_line(&mut line)
            .map_err(|e| Failure::Runtime(format!("cannot read response: {e}")))?;
        if n == 0 {
            return Err(Failure::Runtime(
                "server closed the connection mid-exchange".to_string(),
            ));
        }
        emit(line.trim_end(), bodies)?;
    }
    Ok(())
}

/// Answer the queries straight from the store — the daemon-free path CI
/// uses as the equivalence reference, sharing every line of protocol code
/// with the daemon.
fn run_offline(store_dir: &std::path::Path, file: &str, bodies: bool) -> Result<(), Failure> {
    let queries = read_queries(file)?;
    let store = AnalysisStore::open(store_dir)
        .map_err(|e| Failure::Runtime(format!("cannot open store {}: {e}", store_dir.display())))?;
    let image = StoreImage::load(&store)
        .map_err(|e| Failure::Runtime(format!("cannot load store {}: {e}", store_dir.display())))?;
    for request in &queries {
        let line = answer_line(&image, request);
        emit(&line, bodies)?;
    }
    Ok(())
}

fn main() {
    match run() {
        Ok(()) => {}
        Err(Failure::Usage(msg)) => {
            eprintln!("synscan-serve: {msg}\n{USAGE}");
            std::process::exit(2);
        }
        Err(Failure::Runtime(msg)) => {
            eprintln!("synscan-serve: {msg}");
            std::process::exit(1);
        }
    }
}
