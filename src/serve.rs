//! The resident query daemon behind `synscan-serve`.
//!
//! A [`Server`] loads an [`AnalysisStore`] into a read-mostly
//! [`StoreImage`] published through an [`ImageCell`], binds a line-delimited
//! JSON endpoint (TCP or Unix socket), and runs two kinds of thread:
//!
//! - **One acceptor** admits connections through the gate — at most
//!   `max_in_flight` are being served, the rest get a typed shed reply —
//!   and gives each admitted connection its own scoped thread. `shutdown`
//!   stops it by flipping the stop flag and unblocking `accept()` with a
//!   self-connect; leaving its scope joins every conversation.
//! - **One thread per connection** answers data ops straight from its own
//!   [`ImageReader`](synscan_core::store::ImageReader) — one atomic load
//!   per query, zero locks in the steady state — and runs a `reload`
//!   itself: it loads the image under the store mutex, so reloads
//!   serialize, and installs it in the cell, where every other connection
//!   observes the new generation on its next query.
//!
//! So the daemon runs at most `max_in_flight` + 1 threads.
//!
//! The protocol itself (request parsing, response rendering) lives in
//! [`synscan_core::store::query`] so the offline client and tests answer
//! queries byte-identically to the daemon.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::{Builder, JoinHandle, Scope};
use std::time::{Duration, Instant};

use synscan_core::store::query::{
    answer, err_line, health_line, ok_line, parse_request, HealthCounters, Request,
};
use synscan_core::store::{AnalysisStore, ImageCell, StoreError, StoreImage};
use synscan_wire::net::{self, BoundedLineReader, NetError, MAX_REQUEST_BYTES};

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
    /// Admission-gate width: connections beyond this many simultaneously
    /// served are shed with a typed `overloaded` reply.
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
            max_in_flight: net::DEFAULT_MAX_IN_FLIGHT,
            request_deadline: Duration::from_millis(net::DEFAULT_REQUEST_DEADLINE_MS),
            stall_timeout: Duration::from_millis(net::DEFAULT_STALL_TIMEOUT_MS),
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
/// decisions), the connection threads (health answers), and
/// [`ServerControl`] (drain).
struct GateState {
    started: Instant,
    /// Connections currently being served.
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

    /// Count a connection the gate is not admitting and send it a
    /// best-effort typed refusal. The socket's write deadline is already
    /// set, so a peer that never reads cannot park the acceptor past the
    /// budget.
    fn shed(&self, mut conn: Box<dyn Conn>, msg: &str) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        let _ = send_line(&mut conn, err_line(msg));
    }
}

/// Write `line` and its newline in one call, so a reply leaves as one
/// segment: a separate newline write waits under Nagle's algorithm for the
/// peer's delayed ACK, about 40 ms a reply on a kept-alive connection.
fn send_line(out: &mut dyn Write, mut line: String) -> io::Result<()> {
    line.push('\n');
    out.write_all(line.as_bytes())?;
    out.flush()
}

/// A duplex byte stream: the only thing a connection thread needs to know
/// about a connection.
trait Conn: Read + Write + Send {}

impl<T: Read + Write + Send> Conn for T {}

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

    /// Accept one connection with the per-connection deadlines set as
    /// native socket timeouts. The read timeout is the request budget (the
    /// bounded reader turns repeated timeout ticks on an idle connection
    /// into the longer stall cutoff); writes get the request budget
    /// directly. Errors are transient (the acceptor keeps going).
    fn accept(&self, options: &ServeOptions) -> io::Result<Box<dyn Conn>> {
        let write = nonzero(options.request_deadline);
        let read = write.or_else(|| nonzero(options.stall_timeout));
        match self {
            Listener::Tcp(listener) => {
                let (stream, _) = listener.accept()?;
                stream.set_read_timeout(read)?;
                stream.set_write_timeout(write)?;
                Ok(Box::new(stream))
            }
            Listener::Unix(listener) => {
                let (stream, _) = listener.accept()?;
                stream.set_read_timeout(read)?;
                stream.set_write_timeout(write)?;
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
    control: ServerControl,
    acceptor: JoinHandle<()>,
}

impl Server {
    /// Open the store under `store_dir`, load it, bind `listen`, and start
    /// the acceptor under the hardening `options`.
    ///
    /// An empty store is allowed — the daemon starts with no years and is
    /// fed by later `reload`s.
    pub fn start(
        store_dir: &Path,
        listen: &Endpoint,
        options: ServeOptions,
    ) -> Result<Self, ServeError> {
        let store = AnalysisStore::open(store_dir)?;
        let cell = ImageCell::new(StoreImage::load(&store)?);
        let (listener, endpoint) = Listener::bind(listen)?;
        let control = ServerControl {
            endpoint,
            stop: Arc::new(AtomicBool::new(false)),
            gate: Arc::new(GateState::new()),
        };
        let shared = Shared {
            store: Mutex::new(store),
            cell,
            control: control.clone(),
            options,
        };
        let acceptor = Builder::new()
            .name("serve-acceptor".to_string())
            .spawn(move || shared.accept_loop(&listener))
            .map_err(|e| ServeError::Io(format!("spawn acceptor: {e}")))?;
        Ok(Self { control, acceptor })
    }

    /// The endpoint actually bound (TCP port 0 resolved to the ephemeral
    /// port).
    pub fn endpoint(&self) -> &Endpoint {
        &self.control.endpoint
    }

    /// A cloneable handle for drain/stop from signal hooks and tests while
    /// another thread blocks in [`Server::join`].
    pub fn control(&self) -> ServerControl {
        self.control.clone()
    }

    /// Initiate shutdown from outside the protocol (tests, signal hooks).
    pub fn stop(&self) {
        self.control.stop();
    }

    /// Block until the daemon has shut down and every thread has exited.
    pub fn join(self) -> Result<(), ServeError> {
        self.acceptor
            .join()
            .map_err(|_| ServeError::Io("daemon thread panicked".to_string()))?;
        if let Endpoint::Unix(path) = &self.control.endpoint {
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
    gate: Arc<GateState>,
}

impl ServerControl {
    /// Stop admitting new connections; in-flight conversations finish.
    /// New connections get a typed `draining` reply and are closed.
    pub fn drain(&self) {
        self.gate.draining.store(true, Ordering::Release);
    }

    /// Whether no connection is being served.
    pub(crate) fn idle(&self) -> bool {
        self.gate.active.load(Ordering::Acquire) == 0
    }

    /// Current gate counters (what the `health` verb reports).
    pub fn counters(&self) -> HealthCounters {
        self.gate.counters()
    }

    /// Flip the stop flag and unblock the acceptor.
    pub(crate) fn stop(&self) {
        self.stop.store(true, Ordering::Release);
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

/// What the acceptor owns and every connection thread borrows.
struct Shared {
    /// Held for the whole of a reload, so reloads serialize.
    store: Mutex<AnalysisStore>,
    cell: Arc<ImageCell>,
    control: ServerControl,
    options: ServeOptions,
}

impl Shared {
    /// Admit connections until the stop flag goes up, each on its own
    /// scoped thread; returns once every conversation has ended.
    fn accept_loop(&self, listener: &Listener) {
        let gate = &self.control.gate;
        std::thread::scope(|scope| {
            while !self.control.stop.load(Ordering::Acquire) {
                // Transient accept failures (e.g. aborted handshakes) must
                // not take the daemon down.
                let Ok(conn) = listener.accept(&self.options) else {
                    continue;
                };
                if self.control.stop.load(Ordering::Acquire) {
                    break;
                }
                if gate.draining.load(Ordering::Acquire) {
                    gate.shed(
                        conn,
                        "draining: daemon is shutting down, refusing new connections",
                    );
                } else if gate.active.load(Ordering::Acquire) >= self.max_in_flight() {
                    gate.shed(conn, &self.overloaded());
                } else {
                    self.admit(scope, Builder::new().name("serve-conn".to_string()), conn);
                }
            }
        });
    }

    fn max_in_flight(&self) -> usize {
        self.options.max_in_flight.max(1)
    }

    fn overloaded(&self) -> String {
        format!(
            "overloaded: {} connections in flight; retry later",
            self.max_in_flight()
        )
    }

    /// Serve `conn` on a new `thread` within `scope`. A thread that cannot
    /// be spawned is answered as the gate answers: a typed `overloaded`
    /// reply, counted as shed.
    fn admit<'scope>(
        &'scope self,
        scope: &'scope Scope<'scope, '_>,
        thread: Builder,
        conn: Box<dyn Conn>,
    ) {
        let gate = &self.control.gate;
        gate.active.fetch_add(1, Ordering::AcqRel);
        // The connection is handed over only once the thread exists, so a
        // failed spawn still holds it to reply on.
        let (hand_over, take) = mpsc::channel::<Box<dyn Conn>>();
        let spawned = thread.spawn_scoped(scope, move || {
            if let Ok(conn) = take.recv() {
                // A dropped client mid-conversation only loses that
                // conversation.
                let shutdown = self.serve_connection(conn);
                gate.active.fetch_sub(1, Ordering::AcqRel);
                if matches!(shutdown, Ok(true)) {
                    self.control.stop();
                }
            }
        });
        match spawned {
            Ok(_) => {
                let _ = hand_over.send(conn);
            }
            Err(_) => {
                gate.active.fetch_sub(1, Ordering::AcqRel);
                gate.shed(conn, &self.overloaded());
            }
        }
    }

    /// Rebuild the image from disk and install it; returns the new
    /// generation. A failed reload (corrupt slice, vanished directory)
    /// keeps the last good image installed — the error goes back to the
    /// requesting client, never into the cell.
    fn reload(&self) -> Result<u64, StoreError> {
        // The store is only read under the lock, so a reload that panicked
        // left nothing half-updated.
        let store = self.store.lock().unwrap_or_else(PoisonError::into_inner);
        StoreImage::load(&store).map(|image| self.cell.install(image))
    }

    /// Serve one connection to completion: one JSON request per line, one
    /// response line each. Returns `Ok(true)` if the client requested
    /// daemon shutdown.
    ///
    /// Hostile input is answered typed, never absorbed: an oversized line or
    /// an expired deadline gets one `{"ok":false,…}` reply and the
    /// connection is closed; garbage bytes get a parse-error reply and the
    /// connection lives.
    fn serve_connection(&self, conn: Box<dyn Conn>) -> io::Result<bool> {
        let gate = &self.control.gate;
        let mut reader = self.cell.reader();
        let mut lines = BoundedLineReader::with_deadlines(
            conn,
            MAX_REQUEST_BYTES,
            nonzero(self.options.request_deadline),
            nonzero(self.options.stall_timeout),
        );
        loop {
            let line = match lines.next_line() {
                Ok(Some(line)) => line,
                Ok(None) => return Ok(false),
                Err(err @ (NetError::TooLarge { .. } | NetError::TimedOut { .. })) => {
                    // Typed rejection, then hang up — the peer is hostile,
                    // stalled, or gone.
                    let _ = send_line(lines.get_mut(), err_line(&err.to_string()));
                    return Ok(false);
                }
                Err(NetError::Io(msg)) => return Err(io::Error::other(msg)),
            };
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let (response, shutdown) = match parse_request(trimmed) {
                Err(error) => (err_line(&error.to_string()), false),
                Ok(Request::Reload) => match self.reload() {
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
            send_line(lines.get_mut(), response)?;
            if shutdown {
                return Ok(true);
            }
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
            ServeOptions::default(),
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

    #[test]
    fn a_connection_thread_that_cannot_be_spawned_is_shed_typed() {
        let dir = std::env::temp_dir().join(format!("synscan-serve-spawn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = AnalysisStore::open(&dir).expect("open empty store");
        let shared = Shared {
            cell: ImageCell::new(StoreImage::load(&store).expect("empty image")),
            store: Mutex::new(store),
            control: ServerControl {
                endpoint: Endpoint::Tcp("127.0.0.1:0".to_string()),
                stop: Arc::new(AtomicBool::new(false)),
                gate: Arc::new(GateState::new()),
            },
            options: ServeOptions::default(),
        };
        let (conn, mut peer) = std::os::unix::net::UnixStream::pair().expect("socket pair");
        // No address space holds this stack, so the spawn fails before any
        // thread starts.
        let thread = Builder::new().stack_size(1 << 62);
        std::thread::scope(|scope| shared.admit(scope, thread, Box::new(conn)));
        let mut reply = String::new();
        peer.read_to_string(&mut reply).expect("shed reply");
        assert!(
            reply.starts_with("{\"ok\":false") && reply.contains("overloaded"),
            "{reply}"
        );
        let counters = shared.control.counters();
        assert_eq!((counters.in_flight, counters.shed), (0, 1), "{counters:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
