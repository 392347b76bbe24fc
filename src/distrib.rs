//! Distributed decade runs: the worker loop and the coordinator that
//! together lift [`synscan_core::distrib`]'s slice protocol into real
//! processes and hosts.
//!
//! The division of labor mirrors the paper's measurement reality: one
//! decade of telescope traffic is far past what a single machine ingests
//! in reasonable wall-clock time, so the run is split into
//! `(year, source-partition)` slices that any number of workers compute
//! independently and a coordinator merges bit-identically to the
//! sequential run (`YearAnalysis::merge_partials` is associative and
//! order-normalized).
//!
//! * [`run_worker`] is the whole worker: a loop over a framed pipe
//!   (stdin/stdout of a `--worker` child, or a TCP/unix socket dialed with
//!   [`connect_worker`]) that answers `Assign` messages with `Progress`
//!   checkpoints and a final `Partial`. The worker rebuilds the experiment
//!   world from the opaque job blob in the assignment, so a bare
//!   `repro --worker` child needs no command-line configuration at all.
//! * [`run_distributed`] is the coordinator: it plans slices, schedules
//!   them across N workers through a shared work queue (idle workers steal
//!   the next slice, so an uneven year mix self-balances), persists
//!   partials into the analysis store, and retries a lost slice **from its
//!   last received checkpoint** when a worker dies, or when it stays silent
//!   past the stall timeout while checkpoints are flowing.
//!
//! Failure taxonomy, in increasing severity:
//!
//! 1. A worker reports `Failed` (typed slice error, worker alive): the
//!    slice is requeued and charged an attempt; the worker keeps serving.
//! 2. A worker dies or stalls mid-slice: its pipe drops (or the coordinator
//!    kills it), the slice is requeued **at the front** together with its
//!    last checkpoint, and — in spawn mode — a fresh worker is started.
//! 3. A slice exhausts `MAX_ATTEMPTS` or a protocol invariant breaks:
//!    the run fails with a typed [`CoordError`]; nothing panics.

use std::collections::{HashMap, VecDeque};
use std::hash::Hasher as _;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use crate::experiment::{decode_capture_stats, DecadeRun, Experiment, SessionAdmit, YearRun};
use synscan_core::checkpoint::{SnapReader, SnapWriter};
use synscan_core::sketch::HeavyHitterConfig;
use synscan_core::store::{decode_year, encode_year, AnalysisStore, StoreError};
use synscan_core::{
    merge_slices, plan_slices, run_slice, AdmitState, Checkpoint, DistribError, FxHasher, Message,
    SliceSpec, SliceTask, StallEvent, SupervisionReport, WorkerFailure, PROTO_VERSION,
};
use synscan_synthesis::generate::GeneratorConfig;
use synscan_synthesis::yearcfg::YearConfig;
use synscan_telescope::{CaptureSession, CaptureStats};
use synscan_wire::net::{dial_with_backoff, Backoff, ChaosSocket, NetChaosPlan, NetFault};
use synscan_wire::stream::FaultCounters;

/// Environment variable through which the coordinator hands a spawned
/// worker its local checkpoint spill directory. The spill is purely
/// operator-visible state: resume never reads it (the retry `Assign`
/// carries the checkpoint through the protocol), which the kill drill
/// proves by deleting a dead worker's spill before the respawn.
pub(crate) const WORKER_SPILL_ENV: &str = "SYNSCAN_WORKER_SPILL";

/// How many times [`connect_worker`] tries to dial the coordinator before
/// giving up. Workers and coordinators race to start in real deployments;
/// jittered backoff absorbs the race instead of failing the fleet.
pub(crate) const DIAL_ATTEMPTS: u32 = 6;

/// How many times one slice may be attempted (first try + retries) before
/// the coordinator declares the run failed. Retries resume from the
/// slice's last received checkpoint, so even repeated deaths make forward
/// progress as long as checkpoints flow.
pub(crate) const MAX_ATTEMPTS: u32 = 3;

/// Why a distributed run failed.
#[derive(Debug)]
pub enum CoordError {
    /// A protocol, frame, or pipeline error on a worker pipe.
    Distrib(DistribError),
    /// Persisting partials or merged years failed.
    Store(StoreError),
    /// Spawning, binding, or accepting workers failed.
    Io(String),
    /// A slice burned through all `MAX_ATTEMPTS`.
    SliceFailed {
        /// The slice that kept failing.
        slice: SliceSpec,
        /// Its last reported error.
        message: String,
    },
    /// The merged state violated an invariant (missing slice, divergent
    /// capture statistics between a year's partials, …).
    Inconsistent(String),
}

impl std::fmt::Display for CoordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoordError::Distrib(e) => write!(f, "{e}"),
            CoordError::Store(e) => write!(f, "{e}"),
            CoordError::Io(e) => write!(f, "worker I/O failed: {e}"),
            CoordError::SliceFailed { slice, message } => {
                write!(
                    f,
                    "slice {slice} failed after {MAX_ATTEMPTS} attempts: {message}"
                )
            }
            CoordError::Inconsistent(what) => write!(f, "distributed state inconsistent: {what}"),
        }
    }
}

impl std::error::Error for CoordError {}

impl From<DistribError> for CoordError {
    fn from(e: DistribError) -> Self {
        CoordError::Distrib(e)
    }
}

impl From<StoreError> for CoordError {
    fn from(e: StoreError) -> Self {
        CoordError::Store(e)
    }
}

impl From<synscan_core::CheckpointError> for CoordError {
    fn from(e: synscan_core::CheckpointError) -> Self {
        CoordError::Distrib(DistribError::Checkpoint(e))
    }
}

fn io_err(e: std::io::Error) -> CoordError {
    CoordError::Io(e.to_string())
}

// ---------------------------------------------------------------------------
// Job codec
// ---------------------------------------------------------------------------

/// Encode the experiment world a worker must rebuild: the generator
/// configuration plus the heavy-hitter sketch knob. Chaos plans and
/// materialization are deliberately absent — the coordinator refuses to
/// distribute such runs instead of silently dropping the knobs.
pub(crate) fn encode_job(gen: &GeneratorConfig, heavy: Option<HeavyHitterConfig>) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put_u64(gen.seed);
    w.put_u32(gen.telescope_denominator);
    w.put_u32(gen.population_denominator);
    w.put_f64(gen.days);
    w.put_f64(gen.backscatter_fraction);
    w.put_u32(gen.vertical_ports_cap);
    match heavy {
        None => w.put_u8(0),
        Some(h) => {
            w.put_u8(1);
            w.put_u32(h.k);
            w.put_u32(h.width);
            w.put_u32(h.depth);
        }
    }
    w.into_bytes()
}

/// Decode a job blob. Typed errors on every malformed byte sequence, and on
/// heavy-hitter dimensions [`HeavyHitterConfig::validate`] refuses.
pub(crate) fn decode_job(
    blob: &[u8],
) -> Result<(GeneratorConfig, Option<HeavyHitterConfig>), DistribError> {
    let mut r = SnapReader::new(blob);
    let gen = GeneratorConfig {
        seed: r.take_u64()?,
        telescope_denominator: r.take_u32()?,
        population_denominator: r.take_u32()?,
        days: r.take_f64()?,
        backscatter_fraction: r.take_f64()?,
        vertical_ports_cap: r.take_u32()?,
    };
    let heavy = match r.take_u8()? {
        0 => None,
        1 => Some(HeavyHitterConfig {
            k: r.take_u32()?,
            width: r.take_u32()?,
            depth: r.take_u32()?,
        }),
        tag => {
            return Err(DistribError::Protocol(format!(
                "invalid heavy-hitter tag {tag} in job spec"
            )))
        }
    };
    if let Some(heavy) = heavy {
        heavy
            .validate()
            .map_err(|e| DistribError::Protocol(format!("job spec: {e}")))?;
    }
    if r.remaining() != 0 {
        return Err(DistribError::Protocol(
            "trailing bytes after job spec".into(),
        ));
    }
    Ok((gen, heavy))
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// The whole worker: greet, then serve `Assign` messages until the
/// coordinator says `Shutdown` (or closes the pipe cleanly).
///
/// The worker caches the experiment world across assignments keyed by the
/// job blob — rebuilding the synthetic Internet registry per slice would
/// dominate small runs. Diagnostics go to stderr only; stdout is the
/// protocol channel.
pub fn run_worker(
    input: &mut impl Read,
    output: &mut impl Write,
    label: &str,
) -> Result<(), DistribError> {
    send(
        output,
        &Message::Hello {
            proto: PROTO_VERSION,
            worker: label.to_string(),
        },
    )?;
    // Worker-local checkpoint spill, armed by the coordinator's
    // environment in spawn mode. Operator-visible only: resume always
    // rides the protocol, so losing (or scrubbing) this directory costs
    // nothing but the audit trail.
    let spill = std::env::var_os(WORKER_SPILL_ENV).map(PathBuf::from);
    let mut world: Option<(Vec<u8>, Experiment)> = None;
    loop {
        let message = match recv(input)? {
            None => return Ok(()),
            Some(m) => m,
        };
        match message {
            Message::Shutdown => return Ok(()),
            Message::Assign {
                slice,
                every,
                die_after_checkpoints,
                job,
                resume,
            } => {
                if world.as_ref().map(|(j, _)| j.as_slice()) != Some(job.as_slice()) {
                    let (gen, heavy) = match decode_job(&job) {
                        Ok(decoded) => decoded,
                        // A job this worker cannot run fails the slice,
                        // typed; the worker itself stays healthy.
                        Err(e) => {
                            let message = e.to_string();
                            send(output, &Message::Failed { slice, message })?;
                            continue;
                        }
                    };
                    world = Some((job.clone(), Experiment::new(gen).with_heavy_hitters(heavy)));
                }
                let experiment = &world.as_ref().expect("world just built").1;
                match serve_slice(
                    experiment,
                    slice,
                    every,
                    die_after_checkpoints,
                    resume.as_deref(),
                    spill.as_deref(),
                    output,
                ) {
                    Ok(reply) => send(output, &reply)?,
                    // A dead pipe cannot carry a Failed report; bail.
                    Err(DistribError::Envelope(e)) => return Err(DistribError::Envelope(e)),
                    Err(e) => send(
                        output,
                        &Message::Failed {
                            slice,
                            message: e.to_string(),
                        },
                    )?,
                }
            }
            other => {
                return Err(DistribError::Protocol(format!(
                    "worker received {other:?}, expected Assign or Shutdown"
                )))
            }
        }
    }
}

/// Compute one assigned slice, streaming `Progress` checkpoints out as they
/// cut, and return the terminal `Partial` message (not yet sent — the
/// caller decides between `Partial` and `Failed`).
fn serve_slice(
    experiment: &Experiment,
    slice: SliceSpec,
    every: u64,
    die_after_checkpoints: Option<u64>,
    resume: Option<&[u8]>,
    spill: Option<&Path>,
    output: &mut impl Write,
) -> Result<Message, DistribError> {
    let resume = resume.map(Checkpoint::from_bytes).transpose()?;
    let year_cfg = YearConfig::for_year(slice.year);
    let plan = experiment.plan(&year_cfg);
    let mut admit = SessionAdmit(CaptureSession::new(experiment.dark(), slice.year));
    let task = SliceTask {
        slice,
        config: experiment.campaign_config(),
        period_days: experiment.period_days(),
        hints: experiment.hints_for(&plan.truth),
        policy: experiment.fault_policy(),
        seed: experiment.config().seed,
        every,
    };
    let mut stream = plan.stream(experiment.dark());
    let mut sent = 0u64;
    let outcome = run_slice(
        &task,
        resume.as_ref(),
        &mut stream,
        &mut admit,
        &mut |cut: &Checkpoint| {
            send(
                output,
                &Message::Progress {
                    slice,
                    cursor: cut.header.cursor,
                    checkpoint: cut.to_bytes(),
                },
            )?;
            sent += 1;
            // Best-effort local spill after the protocol send, so the
            // coordinator's copy is never behind the disk's.
            if let Some(dir) = spill {
                let name = format!("slice-{}-p{}-{sent}.ckpt", slice.year, slice.part);
                if std::fs::create_dir_all(dir)
                    .and_then(|()| std::fs::write(dir.join(&name), cut.to_bytes()))
                    .is_err()
                {
                    eprintln!("worker: could not spill checkpoint {name}");
                }
            }
            if die_after_checkpoints.is_some_and(|k| sent >= k) {
                // The kill drill: vanish without a goodbye, exactly like a
                // SIGKILL'd or OOM'd worker, right after the coordinator
                // has a checkpoint to resume from.
                std::process::abort();
            }
            Ok(())
        },
    )?;
    Ok(Message::Partial {
        slice,
        cursor: outcome.cursor,
        analysis: outcome.analysis.as_ref().map(encode_year),
        admit_state: admit.snapshot(),
        faults: outcome.faults,
    })
}

// ---------------------------------------------------------------------------
// Endpoints
// ---------------------------------------------------------------------------

/// A socket address as every command line spells it: `HOST:PORT` or
/// `tcp:HOST:PORT` for TCP, `unix:PATH` for a unix-domain socket. The
/// coordinator's `--listen`, a worker's `--worker`, and the daemon's
/// `--listen` and `--connect` all parse it here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address (`HOST:PORT` as `std::net` accepts it).
    Tcp(String),
    /// A unix-domain socket path.
    Unix(PathBuf),
}

impl Endpoint {
    /// Parse an endpoint spec; a spec in none of the three spellings is
    /// rejected with a usage hint.
    pub fn parse(spec: &str) -> Result<Endpoint, String> {
        if let Some(path) = spec.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("unix: needs a socket path".into());
            }
            return Ok(Endpoint::Unix(PathBuf::from(path)));
        }
        let addr = spec.strip_prefix("tcp:").unwrap_or(spec);
        if !addr.contains(':') {
            return Err(format!(
                "`{spec}` is neither HOST:PORT, tcp:HOST:PORT nor unix:PATH"
            ));
        }
        Ok(Endpoint::Tcp(addr.to_string()))
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "{addr}"),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// FxHash of the endpoint spec: a stable per-endpoint backoff seed, so two
/// workers dialing different coordinators jitter differently but a given
/// worker replays the same schedule.
fn spec_seed(spec: &str) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write(spec.as_bytes());
    hasher.finish()
}

/// The read and write halves of a worker's connection to its coordinator.
pub(crate) type WorkerPipes = (Box<dyn Read + Send>, Box<dyn Write + Send>);

/// Dial out to a coordinator listening on `spec` and return the two pipe
/// halves a worker loop reads and writes.
///
/// The dial retries with jittered exponential backoff (`DIAL_ATTEMPTS`
/// attempts, 100 ms doubling to 5 s), so a worker started before its
/// coordinator — the normal race in a multi-host launch — connects as soon
/// as the listener is up instead of dying on the first refused connection.
pub fn connect_worker(spec: &str) -> Result<WorkerPipes, CoordError> {
    let endpoint = Endpoint::parse(spec).map_err(CoordError::Io)?;
    let mut backoff = Backoff::dial(spec_seed(spec));
    let on_retry = |attempt: u32, delay: std::time::Duration, err: &std::io::Error| {
        eprintln!(
            "worker: dial {spec} failed ({err}); retrying in {}ms \
             (attempt {attempt}/{DIAL_ATTEMPTS})",
            delay.as_millis()
        );
    };
    match endpoint {
        Endpoint::Tcp(addr) => {
            let stream = dial_with_backoff(
                DIAL_ATTEMPTS,
                &mut backoff,
                || TcpStream::connect(&addr),
                on_retry,
            )
            .map_err(io_err)?;
            let reader = stream.try_clone().map_err(io_err)?;
            Ok((Box::new(reader), Box::new(stream)))
        }
        Endpoint::Unix(path) => {
            let stream = dial_with_backoff(
                DIAL_ATTEMPTS,
                &mut backoff,
                || UnixStream::connect(&path),
                on_retry,
            )
            .map_err(io_err)?;
            let reader = stream.try_clone().map_err(io_err)?;
            Ok((Box::new(reader), Box::new(stream)))
        }
    }
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// Where the coordinator's workers come from.
#[derive(Debug, Clone)]
pub enum WorkerSource {
    /// Spawn `workers` local child processes running `cmd` (argv; the
    /// command must enter its `--worker` stdio loop). Dead children are
    /// respawned.
    Spawn {
        /// Worker argv, e.g. `["target/release/repro", "--worker"]`.
        cmd: Vec<String>,
        /// Number of concurrent children.
        workers: usize,
    },
    /// Accept `workers` already-running remote workers on an endpoint
    /// (they dial in with `--worker tcp:…`). Dead remote workers are not
    /// replaced; the survivors drain the queue.
    Listen {
        /// The address to bind.
        endpoint: Endpoint,
        /// Number of workers to wait for before planning starts.
        workers: usize,
    },
    /// Run `workers` in-process worker threads over socket pairs — the
    /// full protocol without process management, used by tests and
    /// benchmarks.
    Threads(usize),
}

impl WorkerSource {
    fn workers(&self) -> usize {
        match self {
            WorkerSource::Spawn { workers, .. }
            | WorkerSource::Listen { workers, .. }
            | WorkerSource::Threads(workers) => (*workers).max(1),
        }
    }
}

/// Where transport chaos is injected, for the net-chaos drills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetChaosMode {
    /// Benign faults (short writes, sub-deadline read stalls) on **every**
    /// worker connection. A correct fleet is byte-identical under this.
    Benign,
    /// Corrupting faults on the **first** connection only; later
    /// connections (including respawns) are clean. The first worker's
    /// stream breaks with a typed frame error, the coordinator respawns
    /// it, and the run still finishes byte-identical — deterministic
    /// recovery, not silent absorption.
    CorruptFirst,
}

impl NetChaosMode {
    /// Parse a `--net-chaos-profile` value.
    pub fn parse(spec: &str) -> Result<Self, String> {
        match spec {
            "benign" => Ok(NetChaosMode::Benign),
            "corrupt" => Ok(NetChaosMode::CorruptFirst),
            other => Err(format!(
                "unknown net-chaos profile '{other}' (expected benign or corrupt)"
            )),
        }
    }
}

/// Seeded transport-fault injection over worker connections, the
/// distributed-runtime face of [`synscan_wire::net::ChaosSocket`]. All
/// fault positions derive from the seed, so a drill replays exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetChaos {
    /// Seed for every fault position and corruption mask.
    pub seed: u64,
    /// Which connections get which faults.
    pub mode: NetChaosMode,
}

impl NetChaos {
    /// The fault plan for the `index`-th connection the coordinator makes
    /// (respawns advance the index, so a replacement connection for a
    /// corrupted one comes up clean under [`NetChaosMode::CorruptFirst`]).
    pub(crate) fn plan_for(&self, index: u64) -> Option<NetChaosPlan> {
        match self.mode {
            NetChaosMode::Benign => Some(NetChaosPlan::benign(self.seed).reseeded(index)),
            // period 64 guarantees the first corrupted byte lands inside the
            // first Assign frame (always > 64 bytes), so the drill's failure
            // is immediate and deterministic rather than load-dependent.
            NetChaosMode::CorruptFirst if index == 0 => Some(NetChaosPlan {
                seed: self.seed,
                faults: vec![NetFault::CorruptWrite { period: 64 }],
            }),
            NetChaosMode::CorruptFirst => None,
        }
    }
}

/// Coordinator knobs.
#[derive(Debug, Clone)]
pub struct DistribOptions {
    /// Worker fleet shape.
    pub source: WorkerSource,
    /// Checkpoint cadence in stream records (0 = completion-only; the
    /// stall kill is disabled then, because a silent worker is
    /// indistinguishable from a busy one without mid-slice traffic).
    pub every: u64,
    /// Arm the kill drill: the first assignment handed out carries
    /// `die_after_checkpoints = Some(k)`, so that worker aborts itself
    /// after its k-th checkpoint and the coordinator must recover.
    pub kill_drill: Option<u64>,
    /// How long a worker may stay silent mid-slice (and before its
    /// `Hello`) before it is killed and its slice retried. Defaults to
    /// [`synscan_wire::net::DEFAULT_STALL_TIMEOUT_MS`], the serve daemon's
    /// idle cutoff too.
    pub stall_after: Duration,
    /// Base directory for worker-local checkpoint spills (spawn mode sets
    /// `WORKER_SPILL_ENV` to `<dir>/worker-<n>` per child). Purely
    /// operator-visible: resume ships through the coordinator, which the
    /// kill drill proves by scrubbing a dead worker's spill before its
    /// replacement comes up.
    pub checkpoint_dir: Option<PathBuf>,
    /// Transport-fault injection over worker connections (drills only).
    pub net_chaos: Option<NetChaos>,
}

/// A finished slice as the coordinator keeps it until merge time.
struct SlicePartial {
    analysis: Option<Vec<u8>>,
    admit_state: Vec<u8>,
    faults: FaultCounters,
}

type SliceKey = (u16, u32);

fn key(slice: SliceSpec) -> SliceKey {
    (slice.year, slice.part)
}

/// Coordinator state shared across worker-handler threads.
struct Shared {
    queue: Mutex<VecDeque<SliceSpec>>,
    /// Last received checkpoint per in-flight slice — the retry state.
    resume: Mutex<HashMap<SliceKey, Vec<u8>>>,
    attempts: Mutex<HashMap<SliceKey, u32>>,
    results: Mutex<HashMap<SliceKey, SlicePartial>>,
    /// One-shot kill-drill arm, taken by the first assignment.
    drill: Mutex<Option<u64>>,
    fatal: Mutex<Option<CoordError>>,
    stalls: Mutex<Vec<StallEvent>>,
    failures: Mutex<Vec<WorkerFailure>>,
    retried: AtomicU32,
}

impl Shared {
    /// Fresh state with `slices` queued and the kill drill armed as `drill`.
    fn new(slices: Vec<SliceSpec>, drill: Option<u64>) -> Self {
        Shared {
            queue: Mutex::new(slices.into()),
            resume: Mutex::new(HashMap::new()),
            attempts: Mutex::new(HashMap::new()),
            results: Mutex::new(HashMap::new()),
            drill: Mutex::new(drill),
            fatal: Mutex::new(None),
            stalls: Mutex::new(Vec::new()),
            failures: Mutex::new(Vec::new()),
            retried: AtomicU32::new(0),
        }
    }

    fn fail(&self, error: CoordError) {
        let mut slot = self.fatal.lock().expect("fatal lock");
        if slot.is_none() {
            *slot = Some(error);
        }
    }

    fn failed(&self) -> bool {
        self.fatal.lock().expect("fatal lock").is_some()
    }

    /// Put a lost slice back at the head of the queue (its checkpoint, if
    /// any, stays in the resume map) and charge one attempt. Returns false
    /// when the slice is out of attempts — the run is then failed.
    fn requeue(&self, slice: SliceSpec, why: &str) -> bool {
        let spent = {
            let mut attempts = self.attempts.lock().expect("attempts lock");
            let n = attempts.entry(key(slice)).or_insert(0);
            *n += 1;
            *n
        };
        if spent >= MAX_ATTEMPTS {
            self.fail(CoordError::SliceFailed {
                slice,
                message: why.to_string(),
            });
            return false;
        }
        self.retried.fetch_add(1, Ordering::Relaxed);
        self.queue.lock().expect("queue lock").push_front(slice);
        true
    }
}

/// One connected worker as the handler thread sees it: a frame receiver
/// (fed by a dedicated reader thread, so the handler can poll with a
/// timeout and kill a stalled peer), the write half, and the kill handle.
struct WorkerConn {
    frames: mpsc::Receiver<Result<Option<Message>, DistribError>>,
    writer: Box<dyn Write + Send>,
    child: Option<Child>,
    shutdown: Option<Box<dyn FnMut() + Send>>,
    /// The worker's local checkpoint spill directory, if spawn mode armed
    /// one — scrubbed on death to prove resume never reads it.
    spill: Option<PathBuf>,
}

impl WorkerConn {
    /// Wrap an already-open pipe pair. The reader thread exits on the
    /// first terminal condition (clean close or error).
    fn from_pipes(
        mut reader: Box<dyn Read + Send>,
        writer: Box<dyn Write + Send>,
        child: Option<Child>,
        shutdown: Option<Box<dyn FnMut() + Send>>,
        spill: Option<PathBuf>,
    ) -> Self {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || loop {
            let item = recv(&mut reader);
            let done = matches!(item, Ok(None) | Err(_));
            if tx.send(item).is_err() || done {
                break;
            }
        });
        Self {
            frames: rx,
            writer,
            child,
            shutdown,
            spill,
        }
    }

    /// Forcibly end the worker (stall kill): SIGKILL a child, shut a
    /// socket down. Reaps the child so no zombie outlives the run.
    fn kill(&mut self) {
        if let Some(shutdown) = &mut self.shutdown {
            shutdown();
        }
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Reap a worker that already exited on its own.
    fn reap(&mut self) {
        if let Some(child) = &mut self.child {
            let _ = child.wait();
        }
    }
}

/// Per-connection wiring shared by every way the coordinator reaches a
/// worker: a monotone connection counter (respawns advance it), the spill
/// base handed to spawned children, and the chaos plan selector.
struct ConnPlumbing {
    spill_base: Option<PathBuf>,
    chaos: Option<NetChaos>,
    seq: AtomicU64,
}

impl ConnPlumbing {
    fn new(options: &DistribOptions) -> Self {
        ConnPlumbing {
            spill_base: options.checkpoint_dir.clone(),
            chaos: options.net_chaos,
            seq: AtomicU64::new(0),
        }
    }

    fn next_index(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    fn spill_for(&self, index: u64) -> Option<PathBuf> {
        self.spill_base
            .as_ref()
            .map(|base| base.join(format!("worker-{index}")))
    }

    /// Wrap both pipe halves in [`ChaosSocket`]s when this connection's
    /// chaos plan says so. The read and write halves get distinct reseeds
    /// so their fault positions are independent.
    fn wrap(
        &self,
        index: u64,
        reader: Box<dyn Read + Send>,
        writer: Box<dyn Write + Send>,
    ) -> (Box<dyn Read + Send>, Box<dyn Write + Send>) {
        match self.chaos.and_then(|chaos| chaos.plan_for(index)) {
            None => (reader, writer),
            Some(plan) => {
                eprintln!("coordinator: net-chaos plan armed on connection {index}");
                (
                    Box::new(ChaosSocket::new(reader, plan.reseeded(0x52))),
                    Box::new(ChaosSocket::new(writer, plan.reseeded(0x57))),
                )
            }
        }
    }
}

fn spawn_child(cmd: &[String], plumbing: &ConnPlumbing) -> Result<WorkerConn, CoordError> {
    if cmd.is_empty() {
        return Err(CoordError::Io("empty worker command".into()));
    }
    let index = plumbing.next_index();
    let spill = plumbing.spill_for(index);
    let mut command = Command::new(&cmd[0]);
    command
        .args(&cmd[1..])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped());
    if let Some(dir) = &spill {
        command.env(WORKER_SPILL_ENV, dir);
    }
    let mut child = command.spawn().map_err(io_err)?;
    let stdin = child.stdin.take().expect("piped stdin");
    let stdout = child.stdout.take().expect("piped stdout");
    let (reader, writer) = plumbing.wrap(index, Box::new(stdout), Box::new(stdin));
    Ok(WorkerConn::from_pipes(
        reader,
        writer,
        Some(child),
        None,
        spill,
    ))
}

fn conn_from_tcp(stream: TcpStream, plumbing: &ConnPlumbing) -> Result<WorkerConn, CoordError> {
    let reader = stream.try_clone().map_err(io_err)?;
    let killer = stream.try_clone().map_err(io_err)?;
    let (reader, writer) = plumbing.wrap(plumbing.next_index(), Box::new(reader), Box::new(stream));
    Ok(WorkerConn::from_pipes(
        reader,
        writer,
        None,
        Some(Box::new(move || {
            let _ = killer.shutdown(Shutdown::Both);
        })),
        None,
    ))
}

fn conn_from_unix(stream: UnixStream, plumbing: &ConnPlumbing) -> Result<WorkerConn, CoordError> {
    let reader = stream.try_clone().map_err(io_err)?;
    let killer = stream.try_clone().map_err(io_err)?;
    let (reader, writer) = plumbing.wrap(plumbing.next_index(), Box::new(reader), Box::new(stream));
    Ok(WorkerConn::from_pipes(
        reader,
        writer,
        None,
        Some(Box::new(move || {
            let _ = killer.shutdown(Shutdown::Both);
        })),
        None,
    ))
}

/// Accept `n` dialing-in workers on `endpoint`.
fn accept_workers(
    endpoint: &Endpoint,
    n: usize,
    plumbing: &ConnPlumbing,
) -> Result<Vec<WorkerConn>, CoordError> {
    match endpoint {
        Endpoint::Tcp(addr) => {
            let listener = TcpListener::bind(addr).map_err(io_err)?;
            (0..n)
                .map(|_| {
                    let (stream, peer) = listener.accept().map_err(io_err)?;
                    eprintln!("coordinator: worker connected from {peer}");
                    conn_from_tcp(stream, plumbing)
                })
                .collect()
        }
        Endpoint::Unix(path) => {
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path).map_err(io_err)?;
            (0..n)
                .map(|_| {
                    let (stream, _) = listener.accept().map_err(io_err)?;
                    eprintln!("coordinator: worker connected on {}", path.display());
                    conn_from_unix(stream, plumbing)
                })
                .collect()
        }
    }
}

/// Spawn an in-process worker thread bridged over a unix socket pair.
fn thread_worker(index: usize, plumbing: &ConnPlumbing) -> Result<WorkerConn, CoordError> {
    let (ours, theirs) = UnixStream::pair().map_err(io_err)?;
    std::thread::spawn(move || {
        let mut input = theirs.try_clone().expect("clone worker socket");
        let mut output = theirs;
        let label = format!("thread-worker-{index}");
        if let Err(e) = run_worker(&mut input, &mut output, &label) {
            eprintln!("{label}: {e}");
        }
    });
    conn_from_unix(ours, plumbing)
}

/// Delete a dead worker's checkpoint spill before its replacement comes
/// up. This is the kill drill's proof obligation: the respawned worker —
/// conceptually on a different host with no shared filesystem — must
/// resume mid-slice from the checkpoint the coordinator retained, never
/// from anything the dead worker left on disk.
fn scrub_spill(conn: &mut WorkerConn) {
    if let Some(dir) = conn.spill.take() {
        if dir.exists() {
            match std::fs::remove_dir_all(&dir) {
                Ok(()) => eprintln!(
                    "coordinator: scrubbed dead worker checkpoint dir {} \
                     (resume ships through the coordinator)",
                    dir.display()
                ),
                Err(e) => eprintln!(
                    "coordinator: could not scrub checkpoint dir {}: {e}",
                    dir.display()
                ),
            }
        }
    }
}

/// Wait for the worker's `Hello` and validate its protocol version.
fn expect_hello(conn: &WorkerConn, options: &DistribOptions) -> Result<String, CoordError> {
    match conn.frames.recv_timeout(options.stall_after) {
        Ok(Ok(Some(Message::Hello { proto, worker }))) => {
            if proto != PROTO_VERSION {
                return Err(CoordError::Distrib(DistribError::Protocol(format!(
                    "worker '{worker}' speaks protocol {proto}, coordinator speaks {PROTO_VERSION}"
                ))));
            }
            Ok(worker)
        }
        Ok(Ok(Some(other))) => Err(CoordError::Distrib(DistribError::Protocol(format!(
            "expected Hello, got {other:?}"
        )))),
        Ok(Ok(None)) => Err(CoordError::Io("worker closed before Hello".into())),
        Ok(Err(e)) => Err(CoordError::Distrib(e)),
        Err(_) => Err(CoordError::Io(
            "worker sent no Hello before the stall deadline".into(),
        )),
    }
}

/// How one slice assignment ended, from the handler's perspective.
enum SliceEnd {
    /// Partial received; move to the next slice.
    Done,
    /// The worker is gone (died, stalled, or corrupted); the slice was
    /// requeued. The handler should replace the worker if it can.
    WorkerLost,
    /// The run is failed; stop.
    Abort,
}

/// Drive one worker through queue slices until the queue drains, the
/// worker is lost (and cannot be respawned), or the run fails.
fn drive_worker(
    index: usize,
    mut conn: WorkerConn,
    respawn: Option<&(dyn Fn() -> Result<WorkerConn, CoordError> + Sync)>,
    shared: &Shared,
    job: &[u8],
    options: &DistribOptions,
) {
    match expect_hello(&conn, options) {
        Ok(label) => eprintln!("coordinator: worker {index} is '{label}'"),
        Err(e) => {
            conn.kill();
            shared.fail(e);
            return;
        }
    }
    loop {
        if shared.failed() {
            conn.kill();
            break;
        }
        let Some(slice) = shared.queue.lock().expect("queue lock").pop_front() else {
            // Queue drained: wave the worker goodbye and drain its pipe.
            let _ = send(&mut conn.writer, &Message::Shutdown);
            while let Ok(item) = conn.frames.recv_timeout(options.stall_after) {
                if matches!(item, Ok(None) | Err(_)) {
                    break;
                }
            }
            conn.reap();
            break;
        };
        let resume = shared
            .resume
            .lock()
            .expect("resume lock")
            .get(&key(slice))
            .cloned();
        let die_after_checkpoints = shared.drill.lock().expect("drill lock").take();
        let assign = Message::Assign {
            slice,
            every: options.every,
            die_after_checkpoints,
            job: job.to_vec(),
            resume,
        };
        if send(&mut conn.writer, &assign).is_err() {
            // Worker vanished between slices: nothing computed was lost.
            if die_after_checkpoints.is_some() {
                *shared.drill.lock().expect("drill lock") = die_after_checkpoints;
            }
            shared.queue.lock().expect("queue lock").push_front(slice);
            conn.reap();
            scrub_spill(&mut conn);
            match respawn_or_stop(index, respawn, shared) {
                Some(next) => {
                    conn = next;
                    if let Err(e) = expect_hello(&conn, options).map(|_| ()) {
                        conn.kill();
                        shared.fail(e);
                        break;
                    }
                    continue;
                }
                None => break,
            }
        }
        match pump_slice(index, &mut conn, slice, shared, options) {
            SliceEnd::Done => continue,
            SliceEnd::Abort => {
                conn.kill();
                break;
            }
            SliceEnd::WorkerLost => {
                scrub_spill(&mut conn);
                match respawn_or_stop(index, respawn, shared) {
                    Some(next) => {
                        conn = next;
                        if let Err(e) = expect_hello(&conn, options).map(|_| ()) {
                            conn.kill();
                            shared.fail(e);
                            break;
                        }
                    }
                    None => break,
                }
            }
        }
    }
}

fn respawn_or_stop(
    index: usize,
    respawn: Option<&(dyn Fn() -> Result<WorkerConn, CoordError> + Sync)>,
    shared: &Shared,
) -> Option<WorkerConn> {
    let factory = respawn?;
    if shared.failed() {
        return None;
    }
    eprintln!("coordinator: respawning worker {index}");
    match factory() {
        Ok(conn) => Some(conn),
        Err(e) => {
            shared.fail(e);
            None
        }
    }
}

/// Receive frames for one in-flight slice, just assigned, until it
/// finishes, fails, or the worker is lost. The stall kill lives here: when
/// checkpoints are flowing (`every > 0`) and nothing has been heard from
/// the worker for `stall_after` since the assignment or its last
/// `Progress`, it is killed and the slice retried from its last checkpoint.
fn pump_slice(
    index: usize,
    conn: &mut WorkerConn,
    slice: SliceSpec,
    shared: &Shared,
    options: &DistribOptions,
) -> SliceEnd {
    let stall_after = (options.every > 0).then_some(options.stall_after);
    let mut heard = Instant::now();
    let mut last_cursor = 0u64;
    loop {
        let frame = match stall_after {
            Some(after) => conn
                .frames
                .recv_timeout(after.saturating_sub(heard.elapsed())),
            None => conn
                .frames
                .recv()
                .map_err(|_| mpsc::RecvTimeoutError::Disconnected),
        };
        match frame {
            Ok(Ok(Some(Message::Progress {
                slice: from,
                cursor,
                checkpoint,
            }))) if from == slice => {
                heard = Instant::now();
                last_cursor = cursor;
                shared
                    .resume
                    .lock()
                    .expect("resume lock")
                    .insert(key(slice), checkpoint);
            }
            Ok(Ok(Some(Message::Partial {
                slice: from,
                analysis,
                admit_state,
                faults,
                ..
            }))) if from == slice => {
                shared
                    .resume
                    .lock()
                    .expect("resume lock")
                    .remove(&key(slice));
                shared.results.lock().expect("results lock").insert(
                    key(slice),
                    SlicePartial {
                        analysis,
                        admit_state,
                        faults,
                    },
                );
                return SliceEnd::Done;
            }
            Ok(Ok(Some(Message::Failed {
                slice: from,
                message,
            }))) if from == slice => {
                // Typed slice failure; the worker itself is still healthy.
                shared
                    .failures
                    .lock()
                    .expect("failures lock")
                    .push(WorkerFailure {
                        shard: slice.part,
                        message: message.clone(),
                    });
                return if shared.requeue(slice, &message) {
                    SliceEnd::Done
                } else {
                    SliceEnd::Abort
                };
            }
            Ok(Ok(Some(other))) => {
                // Out-of-protocol message: treat the worker as corrupt.
                conn.kill();
                let why = format!("protocol violation mid-slice: {other:?}");
                return if shared.requeue(slice, &why) {
                    SliceEnd::WorkerLost
                } else {
                    SliceEnd::Abort
                };
            }
            Ok(Ok(None)) | Ok(Err(_)) | Err(mpsc::RecvTimeoutError::Disconnected) => {
                // Death: clean close mid-slice, a broken frame, or the
                // reader thread is gone. Resume state (if any) is already
                // in the resume map.
                conn.reap();
                return if shared.requeue(slice, "worker died mid-slice") {
                    SliceEnd::WorkerLost
                } else {
                    SliceEnd::Abort
                };
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                shared.stalls.lock().expect("stalls lock").push(StallEvent {
                    shard: index as u32,
                    silent_ms: heard.elapsed().as_millis() as u64,
                    records_processed: last_cursor,
                });
                conn.kill();
                return if shared.requeue(slice, "worker stalled past the deadline") {
                    SliceEnd::WorkerLost
                } else {
                    SliceEnd::Abort
                };
            }
        }
    }
}

/// Run the decade distributed across N workers and persist it into
/// `store` exactly as the sequential `Experiment::decade` would: each year's
/// partials are merged in memory and the merge written once, as the year's
/// one slice, by `write_year`.
///
/// The returned [`DecadeRun`] is bit-identical to the sequential run's —
/// the equivalence the protocol layer proves per slice, assembled across
/// the whole decade.
pub fn run_distributed(
    experiment: Experiment,
    options: &DistribOptions,
    store: Option<&AnalysisStore>,
) -> Result<(DecadeRun, SupervisionReport), CoordError> {
    let parts = options.source.workers() as u32;
    let configs = YearConfig::decade();
    let years: Vec<u16> = configs.iter().map(|c| c.year).collect();
    let job = encode_job(experiment.config(), experiment.heavy());
    let slices = plan_slices(&years, parts);
    let total = slices.len();

    let shared = Shared::new(slices, options.kill_drill);

    // Establish the fleet up front so a bind/spawn error fails fast.
    let plumbing = Arc::new(ConnPlumbing::new(options));
    let mut conns: Vec<WorkerConn> = Vec::new();
    let respawn: Option<Box<dyn Fn() -> Result<WorkerConn, CoordError> + Sync>> =
        match &options.source {
            WorkerSource::Spawn { cmd, workers } => {
                for _ in 0..*workers {
                    conns.push(spawn_child(cmd, &plumbing)?);
                }
                let cmd = cmd.clone();
                let plumbing = Arc::clone(&plumbing);
                Some(Box::new(move || spawn_child(&cmd, &plumbing)))
            }
            WorkerSource::Listen { endpoint, workers } => {
                conns = accept_workers(endpoint, *workers, &plumbing)?;
                None
            }
            WorkerSource::Threads(workers) => {
                for i in 0..*workers {
                    conns.push(thread_worker(i, &plumbing)?);
                }
                None
            }
        };

    std::thread::scope(|scope| {
        for (index, conn) in conns.into_iter().enumerate() {
            let shared = &shared;
            let job = &job;
            let respawn = respawn.as_deref();
            scope.spawn(move || {
                drive_worker(
                    index,
                    conn,
                    respawn.map(|f| f as &(dyn Fn() -> Result<WorkerConn, CoordError> + Sync)),
                    shared,
                    job,
                    options,
                );
            });
        }
    });

    if let Some(error) = shared.fatal.into_inner().expect("fatal lock") {
        return Err(error);
    }
    let mut results = shared.results.into_inner().expect("results lock");
    if results.len() != total {
        return Err(CoordError::Inconsistent(format!(
            "{} of {total} slices finished — every worker was lost before the queue drained",
            results.len()
        )));
    }

    // Merge. Every worker replayed the full year stream through its own
    // capture session and fault gate, so a year's partials must agree on
    // the capture statistics and fault counters exactly; divergence means
    // non-determinism somewhere and is a hard error, not a warning.
    let mut runs = Vec::with_capacity(configs.len());
    for year_cfg in &configs {
        let year = year_cfg.year;
        let mut partials: Vec<synscan_core::analysis::YearAnalysis> = Vec::new();
        let mut capture: Option<(Vec<u8>, CaptureStats)> = None;
        let mut faults: Option<FaultCounters> = None;
        for part in 0..parts {
            let partial = results.remove(&(year, part)).ok_or_else(|| {
                CoordError::Inconsistent(format!("slice {year}/p{part}of{parts} missing"))
            })?;
            match &capture {
                None => {
                    let stats = decode_capture_stats(&partial.admit_state)?;
                    capture = Some((partial.admit_state.clone(), stats));
                }
                Some((blob, _)) if *blob != partial.admit_state => {
                    return Err(CoordError::Inconsistent(format!(
                        "year {year}: capture statistics diverge between partials"
                    )));
                }
                Some(_) => {}
            }
            match faults {
                None => faults = Some(partial.faults),
                Some(f) if f != partial.faults => {
                    return Err(CoordError::Inconsistent(format!(
                        "year {year}: fault counters diverge between partials"
                    )));
                }
                Some(_) => {}
            }
            if let Some(bytes) = &partial.analysis {
                partials.push(decode_year(bytes)?);
            }
        }
        let merged = merge_slices(
            year,
            experiment.campaign_config(),
            experiment.period_days(),
            partials,
        );
        if let Some(store) = store {
            store.write_year(&merged)?;
        }
        let truth = experiment.plan(year_cfg).truth;
        let (_, capture) = capture.expect("parts >= 1");
        runs.push(YearRun {
            analysis: merged,
            truth,
            capture,
            faults: faults.expect("parts >= 1"),
        });
    }
    let supervision = SupervisionReport {
        stalls: shared.stalls.into_inner().expect("stalls lock"),
        failures: shared.failures.into_inner().expect("failures lock"),
        retried: shared.retried.into_inner(),
    };
    Ok((experiment.into_decade(runs), supervision))
}

// Re-exported so binaries speak the protocol without reaching into core.
pub use synscan_core::distrib::{recv, send};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_codec_roundtrips_and_rejects_malformed_blobs() {
        let gen = GeneratorConfig::tiny();
        for heavy in [None, Some(HeavyHitterConfig::default())] {
            let blob = encode_job(&gen, heavy);
            let (back_gen, back_heavy) = decode_job(&blob).expect("roundtrip");
            assert_eq!(back_gen, gen);
            assert_eq!(back_heavy, heavy);
        }
        // Every truncation is a typed error.
        let blob = encode_job(&gen, Some(HeavyHitterConfig::default()));
        for cut in 0..blob.len() {
            assert!(decode_job(&blob[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage and a bad option tag are typed errors too.
        let mut long = blob.clone();
        long.push(0);
        assert!(matches!(decode_job(&long), Err(DistribError::Protocol(_))));
        let mut bad_tag = encode_job(&gen, None);
        let last = bad_tag.len() - 1;
        bad_tag[last] = 9;
        assert!(matches!(
            decode_job(&bad_tag),
            Err(DistribError::Protocol(_))
        ));
    }

    #[test]
    fn a_job_with_invalid_sketch_dimensions_fails_its_slice() {
        let gen = GeneratorConfig::tiny();
        let invalid = |k, width| HeavyHitterConfig {
            k,
            width,
            ..HeavyHitterConfig::default()
        };
        let (mut ours, theirs) = UnixStream::pair().expect("socketpair");
        let worker = std::thread::spawn(move || {
            let mut input = theirs.try_clone().expect("clone");
            let mut output = theirs;
            run_worker(&mut input, &mut output, "test-worker")
        });
        assert!(matches!(recv(&mut ours), Ok(Some(Message::Hello { .. }))));
        let slice = SliceSpec {
            year: 2020,
            part: 0,
            parts: 1,
        };
        for heavy in [invalid(0, 2048), invalid(32, 0), invalid(32, u32::MAX)] {
            let job = encode_job(&gen, Some(heavy));
            assert!(
                matches!(decode_job(&job), Err(DistribError::Protocol(_))),
                "{heavy}"
            );
            let assign = Message::Assign {
                slice,
                every: 0,
                die_after_checkpoints: None,
                job,
                resume: None,
            };
            send(&mut ours, &assign).expect("assign");
            match recv(&mut ours).expect("frame").expect("open") {
                Message::Failed {
                    slice: from,
                    message,
                } => {
                    assert_eq!(from, slice);
                    assert!(message.contains("job spec"), "{heavy}: {message}");
                }
                other => panic!("{heavy}: expected Failed, got {other:?}"),
            }
        }
        send(&mut ours, &Message::Shutdown).expect("shutdown");
        worker.join().expect("no panic").expect("clean exit");
    }

    #[test]
    fn endpoint_specs_parse() {
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:9000"),
            Ok(Endpoint::Tcp("127.0.0.1:9000".into()))
        );
        assert_eq!(
            Endpoint::parse("unix:/tmp/synscan.sock"),
            Ok(Endpoint::Unix(PathBuf::from("/tmp/synscan.sock")))
        );
        assert_eq!(
            Endpoint::parse("127.0.0.1:9000"),
            Ok(Endpoint::Tcp("127.0.0.1:9000".into()))
        );
        for bad in ["tcp:", "tcp:nonsense", "nonsense", "unix:", ""] {
            assert!(Endpoint::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn net_chaos_plans_are_deterministic_and_mode_scoped() {
        let benign = NetChaos {
            seed: 9,
            mode: NetChaosMode::Benign,
        };
        // Same connection, same plan; different connections, different seeds.
        assert_eq!(benign.plan_for(3), benign.plan_for(3));
        assert_ne!(
            benign.plan_for(0).unwrap().seed,
            benign.plan_for(1).unwrap().seed
        );
        // CorruptFirst corrupts only connection 0, so a respawned
        // replacement (a later index) always comes up clean.
        let corrupt = NetChaos {
            seed: 9,
            mode: NetChaosMode::CorruptFirst,
        };
        assert!(corrupt.plan_for(0).is_some());
        assert!(corrupt.plan_for(1).is_none());
        assert_eq!(NetChaosMode::parse("benign"), Ok(NetChaosMode::Benign));
        assert_eq!(
            NetChaosMode::parse("corrupt"),
            Ok(NetChaosMode::CorruptFirst)
        );
        assert!(NetChaosMode::parse("nope").is_err());
    }

    #[test]
    fn worker_loop_serves_a_slice_over_a_socket_pair() {
        let (mut ours, theirs) = UnixStream::pair().expect("socketpair");
        std::thread::spawn(move || {
            let mut input = theirs.try_clone().expect("clone");
            let mut output = theirs;
            run_worker(&mut input, &mut output, "test-worker").expect("worker loop");
        });
        match recv(&mut ours).expect("hello").expect("open") {
            Message::Hello { proto, worker } => {
                assert_eq!(proto, PROTO_VERSION);
                assert_eq!(worker, "test-worker");
            }
            other => panic!("expected Hello, got {other:?}"),
        }
        let slice = SliceSpec {
            year: 2020,
            part: 0,
            parts: 1,
        };
        let every = 400;
        let assign = Message::Assign {
            slice,
            every,
            die_after_checkpoints: None,
            job: encode_job(&GeneratorConfig::tiny(), None),
            resume: None,
        };
        send(&mut ours, &assign).expect("assign");
        let mut checkpoints = 0;
        let (cursor, partial) = loop {
            match recv(&mut ours).expect("frame").expect("open") {
                Message::Progress {
                    slice: from,
                    checkpoint,
                    ..
                } => {
                    assert_eq!(from, slice);
                    Checkpoint::from_bytes(&checkpoint).expect("resumable checkpoint");
                    checkpoints += 1;
                }
                Message::Partial {
                    slice: from,
                    cursor,
                    analysis,
                    admit_state,
                    faults,
                } => {
                    assert_eq!(from, slice);
                    break (cursor, (analysis, admit_state, faults));
                }
                other => panic!("unexpected {other:?}"),
            }
        };
        if cursor > 2 * every {
            assert!(
                checkpoints > 0,
                "{cursor} records but no mid-slice checkpoint"
            );
        }
        let (analysis, admit_state, faults) = partial;
        // The single-partition partial IS the sequential year.
        let reference = Experiment::new(GeneratorConfig::tiny()).run_year(2020);
        let analysis = decode_year(&analysis.expect("non-empty year")).expect("decodable");
        assert_eq!(analysis, reference.analysis);
        assert_eq!(
            decode_capture_stats(&admit_state).expect("capture blob"),
            reference.capture
        );
        assert_eq!(faults, reference.faults);
        send(&mut ours, &Message::Shutdown).expect("shutdown");
        assert!(recv(&mut ours).expect("clean close").is_none());
    }

    #[test]
    fn a_worker_fed_garbage_reports_a_typed_error_and_exits() {
        let (mut ours, theirs) = UnixStream::pair().expect("socketpair");
        let handle = std::thread::spawn(move || {
            let mut input = theirs.try_clone().expect("clone");
            let mut output = theirs;
            run_worker(&mut input, &mut output, "garbage-fed")
        });
        // Read the Hello, then write bytes that are not a frame.
        recv(&mut ours).expect("hello").expect("open");
        ours.write_all(b"not a SYNDIST frame at all............")
            .expect("write garbage");
        ours.shutdown(Shutdown::Write).expect("half close");
        let result = handle.join().expect("worker must not panic");
        assert!(
            matches!(result, Err(DistribError::Envelope(_))),
            "got {result:?}"
        );
    }

    fn options(every: u64, stall_after: Duration) -> DistribOptions {
        DistribOptions {
            source: WorkerSource::Threads(1),
            every,
            kill_drill: None,
            stall_after,
            checkpoint_dir: None,
            net_chaos: None,
        }
    }

    /// The coordinator's end of a fake worker on a socket pair, past its
    /// `Hello` and with `slice` just assigned — where `drive_worker` hands
    /// over to `pump_slice`. The fake worker reads the `Assign` and then
    /// runs `script`.
    fn assigned_fake_worker(
        options: &DistribOptions,
        slice: SliceSpec,
        script: impl FnOnce(&mut UnixStream) + Send + 'static,
    ) -> WorkerConn {
        let (ours, mut theirs) = UnixStream::pair().expect("socketpair");
        std::thread::spawn(move || {
            let hello = Message::Hello {
                proto: PROTO_VERSION,
                worker: "fake".into(),
            };
            send(&mut theirs, &hello).expect("hello");
            match recv(&mut theirs) {
                Ok(Some(Message::Assign { .. })) => script(&mut theirs),
                other => panic!("expected Assign, got {other:?}"),
            }
        });
        let mut conn = conn_from_unix(ours, &ConnPlumbing::new(options)).expect("conn");
        expect_hello(&conn, options).expect("hello");
        let assign = Message::Assign {
            slice,
            every: options.every,
            die_after_checkpoints: None,
            job: Vec::new(),
            resume: None,
        };
        send(&mut conn.writer, &assign).expect("assign");
        conn
    }

    const SLICE: SliceSpec = SliceSpec {
        year: 2020,
        part: 1,
        parts: 2,
    };
    const NEXT: SliceSpec = SliceSpec {
        year: 2021,
        part: 0,
        parts: 2,
    };

    #[test]
    fn a_worker_silent_past_the_stall_timeout_is_killed_and_its_slice_requeued() {
        let options = options(500, Duration::from_millis(200));
        let mut conn = assigned_fake_worker(&options, SLICE, |theirs| {
            let progress = Message::Progress {
                slice: SLICE,
                cursor: 1_234,
                checkpoint: vec![7; 16],
            };
            send(theirs, &progress).expect("progress");
            // Silent until the kill closes the socket.
            let _ = recv(theirs);
        });
        let shared = Shared::new(vec![SLICE, NEXT], None);
        let slice = shared.queue.lock().unwrap().pop_front().unwrap();
        let end = pump_slice(3, &mut conn, slice, &shared, &options);
        assert!(matches!(end, SliceEnd::WorkerLost));

        let stalls = shared.stalls.into_inner().unwrap();
        assert_eq!(stalls.len(), 1, "{stalls:?}");
        assert_eq!(stalls[0].shard, 3);
        assert_eq!(stalls[0].records_processed, 1_234);
        assert!(stalls[0].silent_ms >= 200, "{stalls:?}");
        let queue = shared.queue.into_inner().unwrap();
        assert_eq!(Vec::from(queue), [SLICE, NEXT], "back at the front");
        assert_eq!(shared.attempts.into_inner().unwrap()[&key(SLICE)], 1);
        assert_eq!(shared.retried.into_inner(), 1);
        // The retry resumes from the last checkpoint the worker sent.
        assert_eq!(shared.resume.into_inner().unwrap()[&key(SLICE)], [7; 16]);
        assert!(shared.fatal.into_inner().unwrap().is_none());
    }

    #[test]
    fn without_checkpoints_a_silent_worker_is_not_killed() {
        let options = options(0, Duration::from_millis(100));
        let mut conn = assigned_fake_worker(&options, SLICE, |theirs| {
            std::thread::sleep(Duration::from_millis(400));
            let partial = Message::Partial {
                slice: SLICE,
                cursor: 10,
                analysis: None,
                admit_state: vec![1, 2, 3],
                faults: FaultCounters::default(),
            };
            send(theirs, &partial).expect("partial");
        });
        let shared = Shared::new(vec![NEXT], None);
        let end = pump_slice(0, &mut conn, SLICE, &shared, &options);
        assert!(matches!(end, SliceEnd::Done));
        assert!(shared.stalls.into_inner().unwrap().is_empty());
        assert!(shared.attempts.into_inner().unwrap().is_empty());
        let results = shared.results.into_inner().unwrap();
        assert_eq!(results[&key(SLICE)].admit_state, [1, 2, 3]);
        assert_eq!(Vec::from(shared.queue.into_inner().unwrap()), [NEXT]);
    }

    fn sequential_decade(gen: GeneratorConfig) -> DecadeRun {
        Experiment::new(gen)
            .decade(&synscan_core::RunOptions::default())
            .expect("clean decade")
            .completed()
            .expect("nothing interrupts a plain run")
    }

    #[test]
    fn distributed_decade_over_thread_workers_matches_sequential() {
        let gen = GeneratorConfig::tiny();
        let sequential = sequential_decade(gen);
        let options = DistribOptions {
            source: WorkerSource::Threads(2),
            ..options(
                5_000,
                Duration::from_millis(synscan_wire::net::DEFAULT_STALL_TIMEOUT_MS),
            )
        };
        let (distributed, supervision) =
            run_distributed(Experiment::new(gen), &options, None).expect("distributed run");
        assert_eq!(supervision.retried, 0);
        assert_eq!(distributed.years.len(), sequential.years.len());
        for (d, s) in distributed.years.iter().zip(&sequential.years) {
            assert_eq!(d.analysis, s.analysis, "year {}", s.analysis.year);
            assert_eq!(d.capture, s.capture, "year {}", s.analysis.year);
            assert_eq!(d.faults, s.faults, "year {}", s.analysis.year);
            assert_eq!(d.truth, s.truth, "year {}", s.analysis.year);
        }
        assert_eq!(distributed.monitored, sequential.monitored);
    }

    #[test]
    fn single_thread_worker_equals_sequential_decade() {
        // The parts=1 degenerate case: one worker serves all ten year
        // slices back to back with completion-only checkpoints.
        let gen = GeneratorConfig::tiny();
        let options = options(0, Duration::from_secs(30));
        let sequential = sequential_decade(gen);
        let (distributed, _) =
            run_distributed(Experiment::new(gen), &options, None).expect("1-thread run");
        for (d, s) in distributed.years.iter().zip(&sequential.years) {
            assert_eq!(d.analysis, s.analysis);
        }
    }
}
