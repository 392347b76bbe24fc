//! Hostile-network drill for `synscan_wire::net`. Two halves:
//!
//! 1. deterministic fault-injection drills over in-memory streams —
//!    `ChaosSocket` replay (same seed, same flipped bytes), benign-plan
//!    transparency, disconnect budgets, stall tallies, `Backoff` schedule
//!    replay, `dial_with_backoff` retry accounting;
//! 2. a real-TCP hostile-client matrix against a mini NDJSON responder
//!    built on the same hardening the daemon uses (`HasDeadlines` socket
//!    budgets + `BoundedLineReader`): slow-loris, oversized request,
//!    garbage bytes, mid-request disconnect, connection burst past the
//!    admission gate, and chaos-wrapped clients (benign faults must be
//!    absorbed, corrupting faults must surface as typed errors, never
//!    hangs).
//!
//! Run by `cargo test --test net_chaos` and the CI `net-chaos` job.

use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use synscan_wire::net::{
    dial_with_backoff, Backoff, BoundedLineReader, ChaosSocket, Deadline, HasDeadlines,
    NetChaosPlan, NetError, NetFault,
};

// ---------------------------------------------------------------------------
// Half 1: in-memory fault-injection drills
// ---------------------------------------------------------------------------

fn corrupt_through(seed: u64, payload: &[u8]) -> Vec<u8> {
    let plan = NetChaosPlan {
        seed,
        faults: vec![NetFault::CorruptWrite { period: 8 }],
    };
    let mut sock = ChaosSocket::new(Vec::new(), plan);
    sock.write_all(payload).expect("in-memory write");
    assert!(
        sock.log().corrupted_bytes > 0,
        "period-8 plan never corrupted"
    );
    sock.into_inner()
}

#[test]
fn drill_chaos_socket() {
    let payload: Vec<u8> = (0..=255u8).collect();

    // Same seed replays the exact same flipped bytes; a different seed
    // flips different ones; all differ from the clean payload.
    let a = corrupt_through(11, &payload);
    let b = corrupt_through(11, &payload);
    let c = corrupt_through(12, &payload);
    assert_eq!(a, b, "corruption must replay under the same seed");
    assert_ne!(a, payload, "corrupting plan left the payload intact");
    assert_ne!(a, c, "different seeds produced identical corruption");

    // The benign plan is invisible to a correct peer: partial writes get
    // retried by write_all, stalls only add latency.
    let mut benign = ChaosSocket::new(Vec::new(), NetChaosPlan::benign(7));
    for _ in 0..16 {
        benign.write_all(&payload).expect("benign write");
    }
    let log = benign.log();
    assert!(
        log.partial_writes > 0,
        "benign plan never shortened a write"
    );
    assert_eq!(log.corrupted_bytes, 0, "benign plan corrupted bytes");
    let written = benign.into_inner();
    assert_eq!(written.len(), payload.len() * 16);
    assert!(
        written.chunks(payload.len()).all(|c| c == &payload[..]),
        "partial-write retries reordered or mangled bytes"
    );

    // Disconnect budgets cut the stream at the exact byte.
    let plan = NetChaosPlan {
        seed: 3,
        faults: vec![NetFault::DisconnectAfter { bytes: 10 }],
    };
    let mut dying = ChaosSocket::new(Vec::new(), plan);
    let err = dying.write_all(&payload).expect_err("must disconnect");
    assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
    assert!(dying.log().disconnected);
    assert_eq!(dying.into_inner().len(), 10, "disconnect budget overshot");

    // Read-side stalls delay but never drop or damage bytes.
    let plan = NetChaosPlan {
        seed: 5,
        faults: vec![NetFault::StallRead { period: 1, ms: 1 }],
    };
    let mut stalled = ChaosSocket::new(Cursor::new(payload.clone()), plan);
    let mut back = Vec::new();
    stalled.read_to_end(&mut back).expect("stalled read");
    assert_eq!(back, payload, "stalls damaged the byte stream");
    assert!(
        stalled.log().stalls > 0,
        "period-1 stall plan never stalled"
    );

    eprintln!("net_chaos: chaos-socket replay/transparency drills passed");
}

#[test]
fn drill_backoff() {
    let delays = |seed: u64| -> Vec<Duration> {
        let mut backoff = Backoff::dial(seed);
        (0..6).map(|_| backoff.next_delay()).collect()
    };
    let a = delays(42);
    assert_eq!(a, delays(42), "backoff schedule must replay under one seed");
    assert_ne!(a, delays(43), "different seeds produced identical jitter");
    // Jitter stays within [base/2, cap*3/2] and the schedule grows.
    assert!(a[0] >= Duration::from_millis(50) && a[0] <= Duration::from_millis(150));
    assert!(
        a[5] <= Duration::from_millis(7_500),
        "cap not applied: {:?}",
        a[5]
    );
    assert!(a[3] > a[0], "schedule never grew: {a:?}");
    let mut backoff = Backoff::dial(42);
    let first = backoff.next_delay();
    backoff.next_delay();
    backoff.reset();
    assert_eq!(
        backoff.next_delay(),
        first,
        "reset did not restart the schedule"
    );

    // dial_with_backoff: two failures, then success — exactly two retry
    // callbacks; all-fail returns the last error after attempts-1 retries.
    let mut fast = Backoff::new(9, Duration::from_millis(1), Duration::from_millis(4));
    let mut calls = 0u32;
    let mut retries = 0u32;
    let conn = dial_with_backoff(
        5,
        &mut fast,
        || {
            calls += 1;
            if calls < 3 {
                Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionRefused,
                    "down",
                ))
            } else {
                Ok("up")
            }
        },
        |_, _, _| retries += 1,
    );
    assert_eq!(conn.expect("third dial succeeds"), "up");
    assert_eq!((calls, retries), (3, 2));

    let mut fast = Backoff::new(9, Duration::from_millis(1), Duration::from_millis(4));
    let mut retries = 0u32;
    let refused = dial_with_backoff(
        3,
        &mut fast,
        || {
            Err::<(), _>(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                "down",
            ))
        },
        |_, _, _| retries += 1,
    );
    assert!(refused.is_err(), "all-fail dial must surface the error");
    assert_eq!(retries, 2, "on_retry must not fire after the last attempt");

    eprintln!("net_chaos: backoff schedule drills passed");
}

// ---------------------------------------------------------------------------
// Half 2: real-TCP hostile-client matrix
// ---------------------------------------------------------------------------

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
                let _ = stream.set_deadline(Deadline::rw(Duration::from_millis(REQUEST_MS)));
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

    // Chaos-wrapped correct client: benign faults (partial writes, read
    // stalls) must be absorbed — every round-trip still answers pong.
    let stream = TcpStream::connect(addr).expect("connect");
    let plan = NetChaosPlan::benign(1701);
    let mut chaotic_out = ChaosSocket::new(stream.try_clone().expect("clone"), plan.reseeded(1));
    let mut chaotic_in = BufReader::new(ChaosSocket::new(stream, plan.reseeded(2)));
    for _ in 0..8 {
        chaotic_out.write_all(b"ping\n").expect("chaotic ping");
        chaotic_out.flush().expect("chaotic flush");
        let mut line = String::new();
        chaotic_in.read_line(&mut line).expect("chaotic reply");
        assert_eq!(line.trim_end(), "pong", "benign chaos changed an answer");
    }
    assert!(
        chaotic_out.log().partial_writes > 0,
        "benign chaos client never exercised a partial write"
    );
    drop(chaotic_out);
    drop(chaotic_in);

    // Corrupting client: the damage must surface as a typed reply (parse
    // error or deadline), never as a silently wrong answer or a hang.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut corrupting = ChaosSocket::new(
        stream.try_clone().expect("clone"),
        NetChaosPlan {
            seed: 99,
            faults: vec![NetFault::CorruptWrite { period: 4 }],
        },
    );
    let _ = corrupting.write_all(b"ping\n");
    let _ = corrupting.flush();
    assert!(
        corrupting.log().corrupted_bytes > 0,
        "corruption never fired"
    );
    let rejection = read_reply(&stream);
    assert!(
        rejection.starts_with("error:"),
        "corrupted request got a success reply: {rejection}"
    );
    drop(corrupting);
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
