//! The resident query daemon behind `synscan-serve`.
//!
//! A [`Server`] loads an [`AnalysisStore`] into a read-mostly
//! [`StoreImage`] published through an [`ImageCell`], binds a line-delimited
//! JSON endpoint (TCP or Unix socket), and answers queries from a pool of
//! reader threads:
//!
//! - **Readers** (N threads) pull accepted connections off a shared queue
//!   and answer data ops straight from their cached [`ImageReader`] — one
//!   atomic load per query, zero locks in the steady state.
//! - **One writer thread** owns all store I/O: a `reload` request is
//!   forwarded to it over a channel, it rebuilds the image from disk and
//!   installs it in the cell, and every reader observes the new generation
//!   on its next query. Readers never touch the filesystem.
//! - **One acceptor thread** hands connections to the pool; `shutdown`
//!   stops the daemon by flipping the stop flag and unblocking the
//!   acceptor with a self-connect.
//!
//! The protocol itself (request parsing, response rendering) lives in
//! [`synscan_core::store::query`] so the offline client and tests answer
//! queries byte-identically to the daemon.

use std::collections::VecDeque;
use std::fmt;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use synscan_core::store::query::{
    answer, err_line, health_line, ok_line, parse_request, HealthCounters, Request,
};
use synscan_core::store::{AnalysisStore, ImageCell, ImageReader, StoreError, StoreImage};
use synscan_wire::net::{
    self, BoundedLineReader, Deadline, HasDeadlines, NetError, MAX_REQUEST_BYTES,
};

/// Everything that can go wrong starting or running the daemon.
#[derive(Debug)]
pub enum ServeError {
    /// The analysis store could not be opened or loaded.
    Store(StoreError),
    /// Socket setup or thread plumbing failed.
    Io(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Store(e) => write!(f, "store: {e}"),
            ServeError::Io(msg) => write!(f, "io: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        ServeError::Store(e)
    }
}

/// A socket address as every command line spells it: `HOST:PORT` or
/// `tcp:HOST:PORT` for TCP, `unix:PATH` for a unix-domain socket. The
/// daemon's `--listen` and the client's `--connect` both parse it here.
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

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "{addr}"),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// Hardening tunables for a daemon instance. Defaults are the shared
/// [`synscan_wire::net`] constants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Reader-thread pool size.
    pub readers: usize,
    /// Admission-gate width: connections beyond this many simultaneously
    /// queued-or-served are shed with a typed `overloaded` reply.
    pub max_in_flight: usize,
    /// Budget for one request to arrive in full (slow-loris cutoff) and for
    /// each response write. Zero disables the deadline.
    pub request_deadline: Duration,
    /// Idle cutoff for a kept-alive connection between requests. Zero
    /// disables the cutoff.
    pub stall_timeout: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            readers: 4,
            max_in_flight: net::DEFAULT_MAX_IN_FLIGHT,
            request_deadline: Duration::from_millis(net::DEFAULT_REQUEST_DEADLINE_MS),
            stall_timeout: Duration::from_millis(net::DEFAULT_STALL_TIMEOUT_MS),
        }
    }
}

impl ServeOptions {
    fn conn_deadline(&self) -> Deadline {
        // The socket-level read timeout is the request budget (the bounded
        // reader turns repeated timeout ticks on an idle connection into the
        // longer stall cutoff); writes get the request budget directly.
        let read = nonzero(self.request_deadline).or_else(|| nonzero(self.stall_timeout));
        Deadline {
            read,
            write: nonzero(self.request_deadline),
        }
    }
}

fn nonzero(d: Duration) -> Option<Duration> {
    if d.is_zero() {
        None
    } else {
        Some(d)
    }
}

/// The admission gate and liveness counters, shared by the acceptor (shed
/// decisions), the readers (health answers), and [`ServerControl`] (drain).
struct GateState {
    started: Instant,
    /// Connections currently queued or being served.
    active: AtomicUsize,
    /// Requests answered since start.
    served: AtomicU64,
    /// Connections shed by the gate since start.
    shed: AtomicU64,
    /// Refusing new connections (graceful drain).
    draining: AtomicBool,
}

impl GateState {
    fn new() -> Self {
        GateState {
            started: Instant::now(),
            active: AtomicUsize::new(0),
            served: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            draining: AtomicBool::new(false),
        }
    }

    fn counters(&self) -> HealthCounters {
        HealthCounters {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            in_flight: self.active.load(Ordering::Acquire) as u64,
            served: self.served.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            draining: self.draining.load(Ordering::Acquire),
        }
    }
}

/// A duplex byte stream: the only thing the reader pool needs to know
/// about a connection.
trait Conn: Read + Write + Send {}

impl<T: Read + Write + Send> Conn for T {}

/// The accepted-connection hand-off between the acceptor and the readers.
struct ConnQueue {
    queue: Mutex<VecDeque<Box<dyn Conn>>>,
    ready: Condvar,
}

impl ConnQueue {
    fn new() -> Self {
        Self {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        }
    }

    fn push(&self, conn: Box<dyn Conn>) {
        self.queue
            .lock()
            .expect("conn queue poisoned")
            .push_back(conn);
        self.ready.notify_one();
    }

    /// Pop the next connection, or `None` once the stop flag is up and the
    /// queue has drained.
    fn pop(&self, stop: &AtomicBool) -> Option<Box<dyn Conn>> {
        let mut queue = self.queue.lock().expect("conn queue poisoned");
        loop {
            if let Some(conn) = queue.pop_front() {
                return Some(conn);
            }
            if stop.load(Ordering::Acquire) {
                return None;
            }
            queue = self.ready.wait(queue).expect("conn queue poisoned");
        }
    }

    fn wake_all(&self) {
        self.ready.notify_all();
    }
}

/// What the reader threads send to the single writer thread.
enum WriterMsg {
    /// Rebuild the image from disk and install it; reply with the new
    /// generation.
    Reload(mpsc::Sender<Result<u64, StoreError>>),
}

enum Listener {
    Tcp(TcpListener),
    Unix(std::os::unix::net::UnixListener),
}

impl Listener {
    /// Bind `listen`; the endpoint returned is the one actually bound (TCP
    /// port 0 resolves to the ephemeral port here).
    fn bind(listen: &Endpoint) -> Result<(Self, Endpoint), ServeError> {
        match listen {
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr)
                    .map_err(|e| ServeError::Io(format!("bind {addr}: {e}")))?;
                let bound = listener
                    .local_addr()
                    .map_err(|e| ServeError::Io(format!("local_addr: {e}")))?;
                Ok((Listener::Tcp(listener), Endpoint::Tcp(bound.to_string())))
            }
            Endpoint::Unix(path) => {
                // A previous daemon's stale socket file would make bind fail
                // with AddrInUse even though nothing is listening.
                let _ = std::fs::remove_file(path);
                let listener = std::os::unix::net::UnixListener::bind(path)
                    .map_err(|e| ServeError::Io(format!("bind {}: {e}", path.display())))?;
                Ok((Listener::Unix(listener), Endpoint::Unix(path.clone())))
            }
        }
    }

    /// Accept one connection with the per-connection deadlines already set
    /// as native socket timeouts, boxed for the queue. Errors are transient
    /// (the acceptor logs and keeps going).
    fn accept(&self, deadline: Deadline) -> std::io::Result<Box<dyn Conn>> {
        match self {
            Listener::Tcp(listener) => {
                let (stream, _) = listener.accept()?;
                stream.set_deadline(deadline)?;
                Ok(Box::new(stream))
            }
            Listener::Unix(listener) => {
                let (stream, _) = listener.accept()?;
                stream.set_deadline(deadline)?;
                Ok(Box::new(stream))
            }
        }
    }
}

/// Connect-and-drop against our own endpoint: unblocks an acceptor that is
/// parked in `accept()` so it can observe the stop flag.
fn self_connect(endpoint: &Endpoint) {
    match endpoint {
        Endpoint::Tcp(addr) => {
            let _ = TcpStream::connect(addr);
        }
        Endpoint::Unix(path) => {
            let _ = std::os::unix::net::UnixStream::connect(path);
        }
    }
}

/// A running daemon. Dropping the handle does not stop it; call
/// [`Server::join`] to block until a client sends `shutdown` (or
/// [`Server::stop`] first to initiate one).
pub struct Server {
    endpoint: Endpoint,
    stop: Arc<AtomicBool>,
    queue: Arc<ConnQueue>,
    gate: Arc<GateState>,
    writer_tx: mpsc::Sender<WriterMsg>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Open the store under `store_dir`, load it, bind `listen`, and start
    /// the acceptor, the reader pool, and the writer thread under the
    /// hardening `options`.
    ///
    /// An empty store is allowed — the daemon starts with no years and is
    /// fed by later `reload`s.
    pub fn start(
        store_dir: &Path,
        listen: &Endpoint,
        options: ServeOptions,
    ) -> Result<Self, ServeError> {
        let store = AnalysisStore::open(store_dir)?;
        let image = StoreImage::load(&store)?;
        let cell = ImageCell::new(image);
        let (listener, endpoint) = Listener::bind(listen)?;
        let stop = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(ConnQueue::new());
        let gate = Arc::new(GateState::new());
        let (writer_tx, writer_rx) = mpsc::channel::<WriterMsg>();

        let mut threads = Vec::new();

        // The single writer: owns all store I/O after startup. A failed
        // reload (corrupt slice, vanished directory) keeps the last-good
        // image installed — the error goes back to the requesting client,
        // never into the cell.
        {
            let cell = Arc::clone(&cell);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-writer".to_string())
                    .spawn(move || {
                        while let Ok(WriterMsg::Reload(reply)) = writer_rx.recv() {
                            let outcome = StoreImage::load(&store).map(|image| cell.install(image));
                            // A vanished requester is not the writer's
                            // problem; keep serving.
                            let _ = reply.send(outcome);
                        }
                    })
                    .map_err(|e| ServeError::Io(format!("spawn writer: {e}")))?,
            );
        }

        // The reader pool.
        for n in 0..options.readers.max(1) {
            let queue = Arc::clone(&queue);
            let stop = Arc::clone(&stop);
            let gate = Arc::clone(&gate);
            let mut reader = cell.reader();
            let writer_tx = writer_tx.clone();
            let endpoint = endpoint.clone();
            let options = options.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-reader-{n}"))
                    .spawn(move || {
                        while let Some(conn) = queue.pop(&stop) {
                            let outcome =
                                serve_connection(conn, &mut reader, &writer_tx, &gate, &options);
                            gate.active.fetch_sub(1, Ordering::AcqRel);
                            match outcome {
                                Ok(true) => {
                                    // A client asked for shutdown: raise the
                                    // flag, wake the pool, unpark the
                                    // acceptor.
                                    stop.store(true, Ordering::Release);
                                    queue.wake_all();
                                    self_connect(&endpoint);
                                }
                                Ok(false) => {}
                                // A dropped client mid-conversation only
                                // loses that conversation.
                                Err(_) => {}
                            }
                        }
                    })
                    .map_err(|e| ServeError::Io(format!("spawn reader: {e}")))?,
            );
        }

        // The acceptor: admission decisions happen here, before a
        // connection can occupy a reader.
        {
            let queue = Arc::clone(&queue);
            let stop = Arc::clone(&stop);
            let gate = Arc::clone(&gate);
            let deadline = options.conn_deadline();
            let max_in_flight = options.max_in_flight.max(1);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-acceptor".to_string())
                    .spawn(move || loop {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        match listener.accept(deadline) {
                            Ok(mut conn) => {
                                if stop.load(Ordering::Acquire) {
                                    break;
                                }
                                if gate.draining.load(Ordering::Acquire) {
                                    gate.shed.fetch_add(1, Ordering::Relaxed);
                                    let _ = shed_reply(
                                        conn.as_mut(),
                                        "draining: daemon is shutting down, refusing new \
                                         connections",
                                    );
                                    continue;
                                }
                                if gate.active.load(Ordering::Acquire) >= max_in_flight {
                                    gate.shed.fetch_add(1, Ordering::Relaxed);
                                    let _ = shed_reply(
                                        conn.as_mut(),
                                        &format!(
                                            "overloaded: {max_in_flight} connections in flight; \
                                             retry later"
                                        ),
                                    );
                                    continue;
                                }
                                gate.active.fetch_add(1, Ordering::AcqRel);
                                queue.push(conn);
                            }
                            // Transient accept failures (e.g. aborted
                            // handshakes) must not take the daemon down.
                            Err(_) => continue,
                        }
                    })
                    .map_err(|e| ServeError::Io(format!("spawn acceptor: {e}")))?,
            );
        }

        Ok(Self {
            endpoint,
            stop,
            queue,
            gate,
            writer_tx,
            threads,
        })
    }

    /// The endpoint actually bound (TCP port 0 resolved to the ephemeral
    /// port).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// A cloneable handle for drain/stop from signal hooks and tests while
    /// another thread blocks in [`Server::join`].
    pub fn control(&self) -> ServerControl {
        ServerControl {
            endpoint: self.endpoint.clone(),
            stop: Arc::clone(&self.stop),
            queue: Arc::clone(&self.queue),
            gate: Arc::clone(&self.gate),
        }
    }

    /// Initiate shutdown from outside the protocol (tests, signal hooks).
    pub fn stop(&self) {
        self.control().stop();
    }

    /// Block until the daemon has shut down and every thread has exited.
    pub fn join(self) -> Result<(), ServeError> {
        let Server {
            endpoint,
            writer_tx,
            threads,
            ..
        } = self;
        // The writer exits when the last sender drops: ours now, the reader
        // pool's as each reader thread ends.
        drop(writer_tx);
        for handle in threads {
            handle
                .join()
                .map_err(|_| ServeError::Io("daemon thread panicked".to_string()))?;
        }
        if let Endpoint::Unix(path) = &endpoint {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

/// A cheap, cloneable remote control for a running [`Server`]: signal
/// handlers and tests use it to drain and stop the daemon while the main
/// thread blocks in [`Server::join`].
#[derive(Clone)]
pub struct ServerControl {
    endpoint: Endpoint,
    stop: Arc<AtomicBool>,
    queue: Arc<ConnQueue>,
    gate: Arc<GateState>,
}

impl ServerControl {
    /// Stop admitting new connections; in-flight conversations finish.
    /// New connections get a typed `draining` reply and are closed.
    pub fn drain(&self) {
        self.gate.draining.store(true, Ordering::Release);
    }

    /// Whether no connection is queued or being served.
    pub(crate) fn idle(&self) -> bool {
        self.gate.active.load(Ordering::Acquire) == 0
    }

    /// Current gate counters (what the `health` verb reports).
    pub fn counters(&self) -> HealthCounters {
        self.gate.counters()
    }

    /// Flip the stop flag and unblock every daemon thread.
    pub(crate) fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        self.queue.wake_all();
        self_connect(&self.endpoint);
    }

    /// Graceful shutdown: drain, wait up to `grace` for in-flight
    /// conversations to finish, then stop. Returns whether the daemon went
    /// idle within the grace period.
    pub fn drain_then_stop(&self, grace: Duration) -> bool {
        self.drain();
        let start = Instant::now();
        while !self.idle() && start.elapsed() < grace {
            std::thread::sleep(Duration::from_millis(20));
        }
        let clean = self.idle();
        self.stop();
        clean
    }
}

/// Best-effort typed refusal on a connection the gate is not admitting.
/// The socket's write deadline is already set, so a peer that never reads
/// cannot park the acceptor past the budget.
fn shed_reply(conn: &mut dyn Conn, msg: &str) -> std::io::Result<()> {
    conn.write_all(err_line(msg).as_bytes())?;
    conn.write_all(b"\n")?;
    conn.flush()
}

/// Ask the writer thread for a reload and wait for the new generation.
fn request_reload(writer_tx: &mpsc::Sender<WriterMsg>) -> Result<u64, String> {
    let (reply_tx, reply_rx) = mpsc::channel();
    writer_tx
        .send(WriterMsg::Reload(reply_tx))
        .map_err(|_| "writer thread is gone".to_string())?;
    match reply_rx.recv() {
        Ok(Ok(generation)) => Ok(generation),
        Ok(Err(e)) => Err(e.to_string()),
        Err(_) => Err("writer thread dropped the reload".to_string()),
    }
}

/// Serve one connection to completion: one JSON request per line, one
/// response line each. Returns `Ok(true)` if the client requested daemon
/// shutdown.
///
/// Hostile input is answered typed, never absorbed: an oversized line or an
/// expired deadline gets one `{"ok":false,…}` reply and the connection is
/// closed; garbage bytes get a parse-error reply and the connection lives.
fn serve_connection(
    mut conn: Box<dyn Conn>,
    reader: &mut ImageReader,
    writer_tx: &mpsc::Sender<WriterMsg>,
    gate: &GateState,
    options: &ServeOptions,
) -> std::io::Result<bool> {
    let mut lines = BoundedLineReader::with_deadlines(
        &mut conn,
        MAX_REQUEST_BYTES,
        nonzero(options.request_deadline),
        nonzero(options.stall_timeout),
    );
    loop {
        let line = match lines.next_line() {
            Ok(Some(line)) => line,
            Ok(None) => return Ok(false),
            Err(err @ (NetError::TooLarge { .. } | NetError::TimedOut { .. })) => {
                // Typed rejection, then hang up — the peer is hostile,
                // stalled, or gone.
                let out = lines.get_mut();
                let _ = out.write_all(err_line(&err.to_string()).as_bytes());
                let _ = out.write_all(b"\n");
                let _ = out.flush();
                return Ok(false);
            }
            Err(NetError::Io(msg)) => return Err(std::io::Error::other(msg)),
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let (response, shutdown) = match parse_request(trimmed) {
            Err(error) => (err_line(&error.to_string()), false),
            Ok(Request::Reload) => match request_reload(writer_tx) {
                Ok(generation) => (
                    ok_line(&format!("reloaded: generation {generation}")),
                    false,
                ),
                Err(error) => (err_line(&format!("reload failed: {error}")), false),
            },
            Ok(Request::Health) => (health_line(reader.image(), &gate.counters()), false),
            Ok(Request::Shutdown) => (ok_line("shutting down"), true),
            Ok(request) => (answer(reader.image(), &request), false),
        };
        gate.served.fetch_add(1, Ordering::Relaxed);
        let out = lines.get_mut();
        out.write_all(response.as_bytes())?;
        out.write_all(b"\n")?;
        out.flush()?;
        if shutdown {
            return Ok(true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    fn seeded_store(dir: &Path) -> AnalysisStore {
        use crate::experiment::Experiment;
        use crate::GeneratorConfig;
        let store = AnalysisStore::open(dir).expect("open store");
        let run = Experiment::new(GeneratorConfig::tiny()).run_year(2020);
        store.write_year(&run.analysis).expect("write slice");
        store
    }

    fn query(addr: &str, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("{request}\n").as_bytes())
            .expect("send");
        let mut lines = BufReader::new(&stream);
        let mut line = String::new();
        lines.read_line(&mut line).expect("response");
        line.trim_end().to_string()
    }

    #[test]
    fn listen_specs_parse() {
        assert_eq!(
            Endpoint::parse("127.0.0.1:7070").unwrap(),
            Endpoint::Tcp("127.0.0.1:7070".to_string())
        );
        assert_eq!(
            Endpoint::parse("unix:/tmp/s.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("/tmp/s.sock"))
        );
        assert!(Endpoint::parse("unix:").is_err());
        assert!(Endpoint::parse("nonsense").is_err());
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
    fn daemon_answers_reloads_and_shuts_down() {
        let dir = std::env::temp_dir().join(format!("synscan-serve-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = seeded_store(&dir);
        let server = Server::start(
            &dir,
            &Endpoint::Tcp("127.0.0.1:0".to_string()),
            ServeOptions {
                readers: 2,
                ..ServeOptions::default()
            },
        )
        .expect("daemon starts");
        let addr = match server.endpoint() {
            Endpoint::Tcp(addr) => addr.clone(),
            other => panic!("unexpected endpoint {other}"),
        };

        // Data op through the socket == the offline answer from the image.
        let image = StoreImage::load(&store).expect("image");
        let expect = synscan_core::store::query::answer_line(&image, "{\"op\":\"table1\"}");
        assert_eq!(query(&addr, "{\"op\":\"table1\"}"), expect);

        // Malformed lines come back as protocol errors, not disconnects.
        assert!(query(&addr, "junk").starts_with("{\"ok\":false"));

        // A reload bumps the generation (2: startup installed 1).
        let line = query(&addr, "{\"op\":\"reload\"}");
        assert!(line.contains("generation 2"), "got {line}");

        // Shutdown stops every thread.
        assert!(query(&addr, "{\"op\":\"shutdown\"}").contains("shutting down"));
        server.join().expect("clean join");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
