//! Hostile-client matrix against a live `synscan-serve` daemon: slow-loris,
//! oversized requests, garbage bytes, mid-request disconnects, and
//! connection bursts past the admission gate must all end in a typed
//! rejection (or a typed shed reply) within the configured deadlines —
//! never a panic, never a hung daemon — while well-behaved clients on the
//! same daemon keep getting correct answers. Plus the control-plane
//! drills: graceful drain and reload-failure isolation, and the client's
//! `--connect` spec parsed as strictly as `--listen`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use synscan::experiment::Experiment;
use synscan::serve::{ServeOptions, Server};
use synscan::Endpoint;
use synscan::GeneratorConfig;

fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("synscan-resil-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = synscan::core::store::AnalysisStore::open(&dir).expect("open store");
    let run = Experiment::new(GeneratorConfig::tiny()).run_year(2020);
    store.write_year(&run.analysis).expect("write slice");
    dir
}

/// Tight budgets so the hostile cases resolve in test time: 300 ms per
/// request, 1 s idle, 2 connections in flight.
fn tight_options() -> ServeOptions {
    ServeOptions {
        max_in_flight: 2,
        request_deadline: Duration::from_millis(300),
        stall_timeout: Duration::from_secs(1),
    }
}

fn start(dir: &Path, options: ServeOptions) -> (Server, SocketAddr) {
    let server = Server::start(dir, &Endpoint::Tcp("127.0.0.1:0".to_string()), options)
        .expect("daemon starts");
    let addr = match server.endpoint() {
        Endpoint::Tcp(addr) => addr.parse().expect("bound address"),
        other => panic!("unexpected endpoint {other}"),
    };
    (server, addr)
}

fn read_reply(stream: &TcpStream) -> String {
    let mut lines = BufReader::new(stream);
    let mut line = String::new();
    lines.read_line(&mut line).expect("reply line");
    line.trim_end().to_string()
}

fn query(addr: &SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("{request}\n").as_bytes())
        .expect("send");
    read_reply(&stream)
}

/// Query like a well-behaved client under load: a typed `overloaded` shed
/// while earlier connections are still being reaped is an invitation to
/// retry, not a failure — but the gate must reopen within the budget.
fn query_retry(addr: &SocketAddr, request: &str) -> String {
    let started = Instant::now();
    loop {
        let reply = query(addr, request);
        if !reply.contains("overloaded") || started.elapsed() > Duration::from_secs(5) {
            return reply;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn slow_loris_is_cut_off_with_a_typed_deadline_reply() {
    let dir = temp_store("loris");
    let (server, addr) = start(&dir, tight_options());

    // Trickle a request that never finishes its line.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"{\"op\":\"tab").expect("partial request");
    let started = Instant::now();
    let reply = read_reply(&stream);
    assert!(
        reply.starts_with("{\"ok\":false"),
        "slow-loris got a success reply: {reply}"
    );
    assert!(
        reply.contains("deadline exceeded"),
        "rejection is not typed as a deadline: {reply}"
    );
    // Cut off by the request budget (300 ms), not the idle cutoff or worse.
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "slow-loris held its connection for {:?}",
        started.elapsed()
    );
    // The daemon is unharmed.
    assert!(query(&addr, "{\"op\":\"years\"}").starts_with("{\"ok\":true"));

    server.stop();
    server.join().expect("clean join");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_request_is_rejected_without_being_buffered() {
    let dir = temp_store("oversized");
    let (server, addr) = start(&dir, tight_options());

    let mut stream = TcpStream::connect(addr).expect("connect");
    // 80 KiB with no newline: past the 64 KiB admission cap, but small
    // enough for loopback buffers so the typed reply is not lost to an RST
    // racing our still-in-progress send.
    let blob = vec![b'x'; 80 * 1024];
    let _ = stream.write_all(&blob);
    let reply = read_reply(&stream);
    assert!(
        reply.contains("exceeds the") && reply.contains("-byte limit"),
        "oversized request not rejected typed: {reply}"
    );
    assert!(query(&addr, "{\"op\":\"years\"}").starts_with("{\"ok\":true"));

    server.stop();
    server.join().expect("clean join");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_bytes_get_a_parse_error_and_the_connection_survives() {
    let dir = temp_store("garbage");
    let (server, addr) = start(&dir, tight_options());

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"\x00\xff\xfenot json at all\n")
        .expect("garbage");
    let reply = read_reply(&stream);
    assert!(
        reply.starts_with("{\"ok\":false"),
        "garbage got a success reply: {reply}"
    );
    // Same connection, next line: a valid request still answers.
    stream
        .write_all(b"{\"op\":\"years\"}\n")
        .expect("valid request after garbage");
    let reply = read_reply(&stream);
    assert!(
        reply.starts_with("{\"ok\":true"),
        "connection did not survive garbage: {reply}"
    );

    server.stop();
    server.join().expect("clean join");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_request_disconnect_leaves_the_daemon_serving() {
    let dir = temp_store("disconnect");
    let (server, addr) = start(&dir, tight_options());

    for _ in 0..5 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"{\"op\":\"tab").expect("partial");
        drop(stream); // vanish mid-request
    }
    // The corpses hold gate slots only until their threads reap them; a
    // retrying client must get service back within the budget.
    assert!(query_retry(&addr, "{\"op\":\"years\"}").starts_with("{\"ok\":true"));

    server.stop();
    server.join().expect("clean join");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn idle_connections_do_not_delay_an_admitted_one() {
    let dir = temp_store("idle-held");
    let (server, addr) = start(
        &dir,
        ServeOptions {
            max_in_flight: 4,
            request_deadline: Duration::from_millis(300),
            stall_timeout: Duration::from_secs(2),
        },
    );
    let control = server.control();

    // Three kept-alive clients that never send a request.
    let held: Vec<TcpStream> = (0..3)
        .map(|_| TcpStream::connect(addr).expect("held connect"))
        .collect();
    let started = Instant::now();
    while control.counters().in_flight < 3 {
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "held connections never admitted: {:?}",
            control.counters()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // The fourth connection has its own thread: it is answered at once,
    // not after the held ones reach the 2 s stall cutoff.
    let started = Instant::now();
    assert_eq!(
        query(&addr, "{\"op\":\"ping\"}"),
        "{\"ok\":true,\"body\":\"pong\"}"
    );
    assert!(
        started.elapsed() < Duration::from_millis(500),
        "an admitted ping waited {:?} behind idle connections",
        started.elapsed()
    );

    drop(held);
    server.stop();
    server.join().expect("clean join");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn connections_past_the_gate_are_shed_typed_and_counted() {
    let dir = temp_store("burst");
    let (server, addr) = start(&dir, tight_options());
    let control = server.control();

    // Two idle connections occupy the whole gate (max_in_flight = 2).
    let hold_a = TcpStream::connect(addr).expect("hold a");
    let hold_b = TcpStream::connect(addr).expect("hold b");
    // Wait until the acceptor has admitted both.
    let started = Instant::now();
    while control.counters().in_flight < 2 {
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "gate never filled: {:?}",
            control.counters()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // The burst: every further connection gets the typed shed reply.
    let mut shed_seen = 0;
    for _ in 0..3 {
        let stream = TcpStream::connect(addr).expect("burst connect");
        let reply = read_reply(&stream);
        assert!(
            reply.contains("overloaded"),
            "expected a typed shed reply, got: {reply}"
        );
        shed_seen += 1;
    }
    assert_eq!(shed_seen, 3);
    drop(hold_a);
    drop(hold_b);

    // Wait for the held connections to be reaped without connecting: a
    // probe sent while they linger is shed itself and counted with the burst.
    let started = Instant::now();
    while control.counters().in_flight > 0 {
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "gate never reopened: {:?}",
            control.counters()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(control.counters().shed, 3, "{:?}", control.counters());

    // The gate is open again, and health reports what happened.
    let mut stream = TcpStream::connect(addr).expect("health connect");
    stream
        .write_all(b"{\"op\":\"health\"}\n")
        .expect("health request");
    let reply = read_reply(&stream);
    assert!(reply.starts_with("{\"ok\":true"), "health failed: {reply}");
    assert!(
        reply.contains("\\\"shed\\\": 3") || reply.contains("\"shed\": 3"),
        "health does not report the 3 shed connections: {reply}"
    );
    drop(stream);

    server.stop();
    server.join().expect("clean join");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_finishes_in_flight_and_refuses_new_connections() {
    let dir = temp_store("drain");
    let (server, addr) = start(&dir, tight_options());
    let control = server.control();

    // An in-flight conversation, mid-stream.
    let mut veteran = TcpStream::connect(addr).expect("veteran connect");
    veteran
        .write_all(b"{\"op\":\"years\"}\n")
        .expect("first request");
    assert!(read_reply(&veteran).starts_with("{\"ok\":true"));

    control.drain();

    // New connections are refused with the typed draining reply.
    let newcomer = TcpStream::connect(addr).expect("newcomer connect");
    let reply = read_reply(&newcomer);
    assert!(
        reply.contains("draining"),
        "newcomer not refused typed during drain: {reply}"
    );

    // The in-flight conversation still finishes.
    veteran
        .write_all(b"{\"op\":\"table1\"}\n")
        .expect("second request");
    assert!(
        read_reply(&veteran).starts_with("{\"ok\":true"),
        "drain killed an in-flight conversation"
    );
    drop(veteran);

    assert!(
        control.drain_then_stop(Duration::from_secs(5)),
        "daemon did not go idle within the grace period"
    );
    server.join().expect("clean join");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_reload_keeps_the_last_good_image() {
    let dir = temp_store("reload");
    let (server, addr) = start(&dir, tight_options());

    let before = query_retry(&addr, "{\"op\":\"table1\"}");
    assert!(before.starts_with("{\"ok\":true"));

    // Corrupt every slice on disk: the next reload must fail...
    for entry in std::fs::read_dir(&dir).expect("store dir") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "store") {
            std::fs::write(&path, b"not a store slice").expect("corrupt slice");
        }
    }
    let reply = query_retry(&addr, "{\"op\":\"reload\"}");
    assert!(
        reply.starts_with("{\"ok\":false") && reply.contains("reload failed"),
        "reload over a corrupt store must fail typed: {reply}"
    );

    // ...and the daemon must keep answering from the last good image.
    assert_eq!(
        query_retry(&addr, "{\"op\":\"table1\"}"),
        before,
        "a failed reload replaced the last-good image"
    );

    server.stop();
    server.join().expect("clean join");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_reload_that_meets_two_slices_for_one_year_fails_naming_both() {
    let dir = temp_store("duplicate");
    let (server, addr) = start(&dir, tight_options());
    let before = query_retry(&addr, "{\"op\":\"table1\"}");
    assert!(before.starts_with("{\"ok\":true"));

    // A partial a crash left beside the year's full slice would count the
    // year twice: the reload refuses the store instead.
    let full = dir.join("year-2020.store");
    let leftover = dir.join("year-2020.part-p0of2.store");
    std::fs::copy(&full, &leftover).expect("leftover slice");
    let reply = query_retry(&addr, "{\"op\":\"reload\"}");
    assert!(
        reply.starts_with("{\"ok\":false") && reply.contains("reload failed"),
        "a reload over two slices for one year must fail typed: {reply}"
    );
    for path in [&full, &leftover] {
        let name = path.to_string_lossy();
        assert!(reply.contains(&*name), "{name} not named: {reply}");
    }

    // The last good generation keeps answering.
    assert_eq!(query_retry(&addr, "{\"op\":\"table1\"}"), before);

    server.stop();
    server.join().expect("clean join");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn health_reports_liveness_counters() {
    let dir = temp_store("health");
    let (server, addr) = start(&dir, tight_options());

    query_retry(&addr, "{\"op\":\"years\"}");
    let reply = query_retry(&addr, "{\"op\":\"health\"}");
    assert!(reply.starts_with("{\"ok\":true"), "health failed: {reply}");
    for field in [
        "generation",
        "uptime_ms",
        "in_flight",
        "served",
        "shed",
        "draining",
    ] {
        assert!(reply.contains(field), "health lacks {field}: {reply}");
    }

    server.stop();
    server.join().expect("clean join");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn idle_connections_are_reaped_by_the_stall_cutoff() {
    let dir = temp_store("idle");
    let (server, addr) = start(&dir, tight_options());
    let control = server.control();

    // Connect and say nothing. The 1 s idle cutoff must reap it.
    let stream = TcpStream::connect(addr).expect("idle connect");
    let started = Instant::now();
    let mut reader = BufReader::new(&stream);
    let mut line = String::new();
    // The daemon sends a typed idle rejection, then closes.
    let n = reader.read_line(&mut line).expect("idle reply");
    assert!(n > 0, "connection closed with no typed reply");
    assert!(
        line.contains("deadline exceeded"),
        "idle cutoff reply not typed: {line}"
    );
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("eof");
    assert!(rest.is_empty(), "daemon kept talking after the cutoff");
    assert!(
        started.elapsed() >= Duration::from_millis(900),
        "idle cutoff fired before the stall budget"
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "idle cutoff took {:?}",
        started.elapsed()
    );

    // The gate slot is free again.
    let settled = Instant::now();
    while control.counters().in_flight > 0 {
        assert!(
            settled.elapsed() < Duration::from_secs(5),
            "slot never freed"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    server.stop();
    server.join().expect("clean join");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn connect_rejects_a_malformed_spec_as_usage_like_listen_does() {
    for (spec, message) in [
        (
            "nonsense",
            "`nonsense` is neither HOST:PORT, tcp:HOST:PORT nor unix:PATH",
        ),
        ("unix:", "unix: needs a socket path"),
    ] {
        for flags in [
            &["--listen", spec][..],
            &["--connect", spec, "--query", "-"],
        ] {
            let output = std::process::Command::new(env!("CARGO_BIN_EXE_synscan-serve"))
                .args(flags)
                .stdin(std::process::Stdio::null())
                .output()
                .expect("spawn synscan-serve");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(output.status.code(), Some(2), "{flags:?}: {stderr}");
            assert!(stderr.contains(message), "{flags:?}: {stderr}");
        }
    }
}

/// One `--connect` exchange through the client binary: its stdout, or
/// `None` when it could not get an answer.
fn client(spec: &str, request: &str) -> Option<String> {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_synscan-serve"))
        .args(["--connect", spec, "--query", "-"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn synscan-serve");
    let mut stdin = child.stdin.take().expect("piped stdin");
    stdin.write_all(request.as_bytes()).expect("send query");
    drop(stdin);
    let output = child.wait_with_output().expect("client exits");
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).into_owned())
}

/// A daemon child that is killed if the test fails before it shuts down.
struct Daemon(std::process::Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn every_endpoint_spelling_listens_and_connects() {
    let dir = std::env::temp_dir().join(format!("synscan-resil-spellings-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("store dir");
    let port = || {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe port");
        probe.local_addr().expect("probe addr").port()
    };
    let unix = format!("unix:{}", dir.join("serve.sock").display());
    // The daemons run one after another, so the two ports may coincide.
    let (a, b) = (port(), port());
    let tcp = |port: u16| vec![format!("127.0.0.1:{port}"), format!("tcp:127.0.0.1:{port}")];
    let daemons = [
        (format!("127.0.0.1:{a}"), tcp(a)),
        (format!("tcp:127.0.0.1:{b}"), tcp(b)),
        (unix.clone(), vec![unix]),
    ];
    for (listen, connects) in daemons {
        let mut daemon = Daemon(
            std::process::Command::new(env!("CARGO_BIN_EXE_synscan-serve"))
                .arg("--store-dir")
                .arg(&dir)
                .args(["--listen", &listen])
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                .spawn()
                .expect("spawn daemon"),
        );
        let started = Instant::now();
        for connect in &connects {
            let pong = loop {
                match client(connect, "{\"op\":\"ping\"}\n") {
                    Some(reply) => break reply,
                    None if started.elapsed() < Duration::from_secs(20) => {
                        std::thread::sleep(Duration::from_millis(50))
                    }
                    None => panic!("--listen {listen}: --connect {connect} got no answer"),
                }
            };
            assert_eq!(
                pong, "{\"ok\":true,\"body\":\"pong\"}\n",
                "--connect {connect}"
            );
        }
        let bye = client(&connects[0], "{\"op\":\"shutdown\"}\n");
        assert!(bye.is_some_and(|line| line.contains("shutting down")));
        assert!(
            daemon.0.wait().expect("daemon exits").success(),
            "--listen {listen}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
