//! Hostile-network drill for `synscan_wire::net`: a real-TCP hostile-client
//! matrix against a mini NDJSON responder built on the same hardening the
//! daemon uses (socket read/write timeouts + `BoundedLineReader`):
//! slow-loris, oversized request, garbage bytes, mid-request disconnect,
//! connection burst past the admission gate, a client that trickles its
//! request in one-byte writes (must be absorbed) and one whose request
//! arrives with flipped bits (must surface as a typed error, never a hang).
//!
//! Run by `cargo test --test net_chaos` and the CI `net-chaos` job.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use synscan_wire::net::{BoundedLineReader, NetError};

/// The mini responder's request cap — small so the oversized drill is quick.
const LIMIT: usize = 4_096;
/// Admission-gate width.
const MAX_IN_FLIGHT: u64 = 2;
/// Per-request budget.
const REQUEST_MS: u64 = 300;
/// Idle cutoff between requests.
const IDLE_MS: u64 = 1_000;

fn reply(out: &mut TcpStream, line: &str) {
    let _ = out.write_all(line.as_bytes());
    let _ = out.write_all(b"\n");
    let _ = out.flush();
}

/// One connection: hardened exactly like the daemon — socket deadlines,
/// bounded line reader, typed rejection then hang-up on hostile input.
fn serve_conn(stream: TcpStream) {
    let mut lines = BoundedLineReader::with_deadlines(
        stream,
        LIMIT,
        Some(Duration::from_millis(REQUEST_MS)),
        Some(Duration::from_millis(IDLE_MS)),
    );
    loop {
        match lines.next_line() {
            Ok(Some(line)) => {
                let out = lines.get_mut();
                if line.trim() == "ping" {
                    reply(out, "pong");
                } else {
                    reply(out, "error: unrecognized request");
                }
            }
            Ok(None) => return,
            Err(err @ (NetError::TooLarge { .. } | NetError::TimedOut { .. })) => {
                let out = lines.get_mut();
                reply(out, &format!("error: {err}"));
                return;
            }
            Err(NetError::Io(_)) => return,
        }
    }
}

struct Responder {
    addr: SocketAddr,
    in_flight: Arc<AtomicU64>,
    shed: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
}

fn start_responder() -> Responder {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind responder");
    let addr = listener.local_addr().expect("local addr");
    let in_flight = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    {
        let in_flight = Arc::clone(&in_flight);
        let shed = Arc::clone(&shed);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(mut stream) = conn else { continue };
                let budget = Some(Duration::from_millis(REQUEST_MS));
                let _ = stream.set_read_timeout(budget);
                let _ = stream.set_write_timeout(budget);
                if in_flight.load(Ordering::Relaxed) >= MAX_IN_FLIGHT {
                    shed.fetch_add(1, Ordering::Relaxed);
                    reply(&mut stream, "error: overloaded");
                    continue;
                }
                in_flight.fetch_add(1, Ordering::Relaxed);
                let gate = Arc::clone(&in_flight);
                std::thread::spawn(move || {
                    serve_conn(stream);
                    gate.fetch_sub(1, Ordering::Relaxed);
                });
            }
        });
    }
    Responder {
        addr,
        in_flight,
        shed,
        stop,
    }
}

fn read_reply(stream: &TcpStream) -> String {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("reply line");
    line.trim_end().to_string()
}

fn ping(addr: &SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"ping\n").expect("send ping");
    read_reply(&stream)
}

/// Ping like a well-behaved client under load: a typed `overloaded` shed
/// is an invitation to retry, not a failure — but the gate must reopen
/// within the budget.
fn ping_retry(addr: &SocketAddr) -> String {
    let started = Instant::now();
    loop {
        let reply = ping(addr);
        if reply != "error: overloaded" || started.elapsed() > Duration::from_secs(5) {
            return reply;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn wait_for_drain(responder: &Responder) {
    let started = Instant::now();
    while responder.in_flight.load(Ordering::Relaxed) > 0 {
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "gate never drained"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn drill_hostile_matrix() {
    let responder = start_responder();
    let addr = responder.addr;

    // Baseline: a correct peer round-trips.
    assert_eq!(ping(&addr), "pong");

    // Garbage bytes: typed error, and the connection survives for a valid
    // request on the next line. Both replies come through one reader —
    // they may land in a single TCP segment.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"\x00\xffjunk\nping\n").expect("garbage");
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut replies = BufReader::new(&stream);
    let mut line = String::new();
    replies.read_line(&mut line).expect("garbage reply");
    assert_eq!(line.trim_end(), "error: unrecognized request");
    line.clear();
    replies.read_line(&mut line).expect("follow-up reply");
    assert_eq!(
        line.trim_end(),
        "pong",
        "connection did not survive garbage"
    );
    drop(replies);
    drop(stream);

    // Slow-loris: a never-finished line is cut off by the request budget
    // with a typed reply, well before the test would notice a hang.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"pi").expect("partial line");
    let started = Instant::now();
    let rejection = read_reply(&stream);
    assert!(
        rejection.contains("deadline exceeded"),
        "slow-loris rejection untyped: {rejection}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "slow-loris hung"
    );
    drop(stream);
    eprintln!(
        "net_chaos: slow-loris cut off typed in {:?}",
        started.elapsed()
    );

    // Oversized request: rejected at the byte cap, not buffered whole.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let _ = stream.write_all(&vec![b'x'; LIMIT * 2]);
    let rejection = read_reply(&stream);
    assert!(
        rejection.contains(&format!("exceeds the {LIMIT}-byte limit")),
        "oversized rejection untyped: {rejection}"
    );
    drop(stream);

    // Mid-request disconnects leave the responder serving. The corpses
    // hold gate slots only until the reader reaps them — wait for that,
    // then demand service.
    for _ in 0..5 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let _ = stream.write_all(b"pi");
        drop(stream);
    }
    wait_for_drain(&responder);
    assert_eq!(ping_retry(&addr), "pong");

    // Trickling correct client: a request split into one-byte writes must
    // be absorbed — every round-trip still answers pong.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut replies = BufReader::new(stream.try_clone().expect("clone"));
    for _ in 0..8 {
        for byte in b"ping\n" {
            stream.write_all(&[*byte]).expect("trickled byte");
            stream.flush().expect("flush");
        }
        let mut line = String::new();
        replies.read_line(&mut line).expect("trickled reply");
        assert_eq!(line.trim_end(), "pong", "a split request changed an answer");
    }
    drop(replies);
    drop(stream);

    // Corrupted request: flipped bits must surface as a typed reply (parse
    // error or deadline), never as a silently wrong answer or a hang.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut request = *b"ping\n";
    request[1] ^= 0x5a;
    stream.write_all(&request).expect("corrupted request");
    let rejection = read_reply(&stream);
    assert!(
        rejection.starts_with("error:"),
        "corrupted request got a success reply: {rejection}"
    );
    drop(stream);
    wait_for_drain(&responder);

    // Burst past the gate: two idle holds fill it; further connections get
    // the typed shed reply immediately.
    let hold_a = TcpStream::connect(addr).expect("hold a");
    let hold_b = TcpStream::connect(addr).expect("hold b");
    let started = Instant::now();
    while responder.in_flight.load(Ordering::Relaxed) < MAX_IN_FLIGHT {
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "gate never filled"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    for _ in 0..3 {
        let stream = TcpStream::connect(addr).expect("burst connect");
        let rejection = read_reply(&stream);
        assert_eq!(rejection, "error: overloaded", "burst was not shed typed");
    }
    assert!(responder.shed.load(Ordering::Relaxed) >= 3);
    drop(hold_a);
    drop(hold_b);
    wait_for_drain(&responder);

    // The responder survives the whole matrix.
    assert_eq!(ping_retry(&addr), "pong");

    responder.stop.store(true, Ordering::Relaxed);
    let _ = TcpStream::connect(addr); // wake the acceptor so it can exit
    eprintln!(
        "net_chaos: hostile-client TCP matrix passed (shed={})",
        responder.shed.load(Ordering::Relaxed)
    );
}
