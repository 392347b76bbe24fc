//! Distributed-runtime equivalence, end to end through the real binary:
//! a 4-process distributed decade must be **byte-identical** to the
//! sequential decade — the rendered `table1.json` artifact and every
//! on-disk store slice — including when a worker is killed mid-slice and
//! the coordinator recovers from its last checkpoint. Plus the protocol
//! hardening matrix: malformed and truncated SYNDIST frames yield typed
//! errors at the protocol layer and at a live `--worker` process, and
//! nothing ever panics (every cut and bit flip: `core::envelope`'s matrix).

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use synscan::core::envelope::write_frame;
use synscan::core::{DistribError, EnvelopeError, Message};
use synscan::distrib::{recv, send};

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("synscan-distrib-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Run `repro --scale tiny table1` with extra flags into `out`; panic with
/// the child's stderr on failure so CI logs explain themselves.
fn repro_table1(out: &Path, extra: &[&str]) -> Output {
    let output = Command::new(REPRO)
        .arg("--scale")
        .arg("tiny")
        .arg("--out")
        .arg(out)
        .args(extra)
        .arg("table1")
        .output()
        .expect("spawn repro");
    assert!(
        output.status.success(),
        "repro {extra:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

/// Every `*.store` slice in a store directory, name -> bytes.
fn store_slices(store_dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut slices: Vec<(String, Vec<u8>)> = std::fs::read_dir(store_dir)
        .expect("store dir exists")
        .map(|entry| entry.expect("store entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "store"))
        .map(|p| {
            let name = p
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            (name, std::fs::read(&p).expect("read slice"))
        })
        .collect();
    slices.sort_by(|a, b| a.0.cmp(&b.0));
    slices
}

/// The distributed run (with `extra` flags) must leave artifacts
/// byte-identical to the sequential reference: same `table1.json` bytes,
/// same store slice file names, same slice bytes.
fn assert_matches_sequential(name: &str, extra: &[&str]) -> Output {
    let seq = temp_dir(&format!("{name}-seq"));
    let dist = temp_dir(&format!("{name}-dist"));
    repro_table1(&seq, &["--pipeline", "sequential"]);
    let output = repro_table1(&dist, extra);

    let seq_table = std::fs::read(seq.join("table1.json")).expect("sequential table1.json");
    let dist_table = std::fs::read(dist.join("table1.json")).expect("distributed table1.json");
    assert!(
        seq_table == dist_table,
        "{name}: table1.json diverges from the sequential run"
    );

    let seq_slices = store_slices(&seq.join("store"));
    let dist_slices = store_slices(&dist.join("store"));
    assert!(
        !seq_slices.is_empty(),
        "{name}: sequential run wrote no slices"
    );
    let names = |s: &[(String, Vec<u8>)]| s.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(
        names(&seq_slices),
        names(&dist_slices),
        "{name}: store slice file sets differ (left sequential, right distributed)"
    );
    for ((slice, seq_bytes), (_, dist_bytes)) in seq_slices.iter().zip(&dist_slices) {
        assert!(
            seq_bytes == dist_bytes,
            "{name}: store slice {slice} diverges from the sequential run"
        );
    }

    let _ = std::fs::remove_dir_all(&seq);
    let _ = std::fs::remove_dir_all(&dist);
    output
}

#[test]
fn four_process_distributed_decade_is_byte_identical_to_sequential() {
    assert_matches_sequential(
        "4proc",
        &["--distributed", "4", "--checkpoint-every", "2000"],
    );
}

#[test]
fn kill_drill_recovers_from_checkpoint_and_stays_byte_identical() {
    // The first assigned worker aborts (as SIGKILL would) right after its
    // first checkpoint; the coordinator must respawn, resume the slice
    // from that checkpoint, and still produce the sequential bytes. The
    // tight cadence guarantees a checkpoint cuts — and the drill fires —
    // even inside the smallest tiny-scale slice (the low-volume 2015
    // stream is assigned first).
    let output = assert_matches_sequential(
        "killdrill",
        &[
            "--distributed",
            "4",
            "--checkpoint-every",
            "25",
            "--distributed-kill-drill",
            "1",
        ],
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("respawning worker"),
        "the kill drill must cost a worker its life:\n{stderr}"
    );
    assert!(
        stderr.contains("distributed supervision:"),
        "the recovery must be reported as a supervision event:\n{stderr}"
    );
}

#[test]
fn every_endpoint_spelling_carries_a_distributed_run() {
    // The coordinator's `--listen` and a worker's `--worker` take one
    // grammar: `HOST:PORT`, `tcp:HOST:PORT` and `unix:PATH`, each spelling
    // on either side of the same socket.
    let seq = temp_dir("spelling-seq");
    repro_table1(&seq, &["--pipeline", "sequential"]);
    let expect = std::fs::read(seq.join("table1.json")).expect("sequential table1.json");
    let port = || {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe port");
        probe.local_addr().expect("probe addr").port()
    };
    // The runs go one after another, so the two ports may coincide.
    let (a, b) = (port(), port());
    let unix = format!("unix:{}", seq.join("coordinator.sock").display());
    for (listen, dial) in [
        (format!("127.0.0.1:{a}"), format!("tcp:127.0.0.1:{a}")),
        (format!("tcp:127.0.0.1:{b}"), format!("127.0.0.1:{b}")),
        (unix.clone(), unix),
    ] {
        // The worker dials with backoff, so it may start first.
        let mut worker = Command::new(REPRO)
            .args(["--worker", &dial])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn worker");
        let dist = temp_dir("spelling-dist");
        repro_table1(&dist, &["--distributed", "1", "--listen", &listen]);
        let table = std::fs::read(dist.join("table1.json")).expect("distributed table1.json");
        assert!(table == expect, "--listen {listen}, --worker {dial}");
        let status = worker.wait().expect("worker exits");
        assert!(status.success(), "--worker {dial}: {status}");
        let _ = std::fs::remove_dir_all(&dist);
    }
    let _ = std::fs::remove_dir_all(&seq);
}

#[test]
fn cross_host_kill_drill_resumes_without_the_dead_workers_disk() {
    // The cross-host resume proof: workers spill their checkpoints to
    // per-worker local directories (stand-ins for per-host disks), the
    // drilled worker aborts mid-slice, and the coordinator scrubs the dead
    // worker's spill before the respawn. The replacement — conceptually on
    // a different host with no shared filesystem — must resume from the
    // coordinator-held checkpoint in the retry Assign and still produce
    // the sequential bytes.
    let spill = temp_dir("xhost-spill");
    let spill_arg = spill.to_string_lossy().into_owned();
    let output = assert_matches_sequential(
        "xhost",
        &[
            "--distributed",
            "4",
            "--checkpoint-every",
            "25",
            "--distributed-kill-drill",
            "1",
            "--checkpoint-dir",
            &spill_arg,
        ],
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("respawning worker"),
        "the kill drill must cost a worker its life:\n{stderr}"
    );
    let scrub_line = stderr
        .lines()
        .find(|l| l.contains("scrubbed dead worker checkpoint dir"))
        .unwrap_or_else(|| panic!("no scrub line in stderr:\n{stderr}"));
    // The scrubbed directory must actually be gone — resume cannot have
    // read anything from it.
    let scrubbed = scrub_line
        .split("checkpoint dir ")
        .nth(1)
        .and_then(|rest| rest.split(" (resume").next())
        .expect("scrub line names the directory");
    assert!(
        !Path::new(scrubbed).exists(),
        "scrubbed spill {scrubbed} still exists"
    );
    // Surviving workers did spill: the audit trail exists for them.
    let spilled_dirs = std::fs::read_dir(&spill)
        .map(|entries| entries.count())
        .unwrap_or(0);
    assert!(
        spilled_dirs > 0,
        "no surviving worker left a checkpoint spill in {}",
        spill.display()
    );
    let _ = std::fs::remove_dir_all(&spill);
}

#[test]
fn benign_net_chaos_is_byte_identical() {
    // Short writes and sub-deadline stalls on every worker connection must
    // be absorbed by the frame layer with zero effect on the results.
    let output = assert_matches_sequential(
        "netchaos",
        &[
            "--distributed",
            "2",
            "--checkpoint-every",
            "2000",
            "--net-chaos-seed",
            "42",
            "--net-chaos-profile",
            "benign",
        ],
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("net-chaos plan armed"),
        "chaos was requested but never armed:\n{stderr}"
    );
}

// ---------------------------------------------------------------------------
// Protocol-frame hardening matrix
// ---------------------------------------------------------------------------

fn valid_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, kind, payload).expect("in-memory frame");
    bytes
}

fn read_back(bytes: &[u8]) -> Result<Option<Message>, DistribError> {
    recv(&mut std::io::Cursor::new(bytes))
}

#[test]
fn malformed_and_truncated_frames_yield_typed_errors_never_panics() {
    let hello = Message::Hello {
        proto: synscan::core::PROTO_VERSION,
        worker: "have you SYN me?".into(),
    };
    let mut frame = Vec::new();
    send(&mut frame, &hello).expect("in-memory frame");
    assert_eq!(read_back(&frame), Ok(Some(hello)));
    let envelope_error = |e: EnvelopeError| Err(DistribError::Envelope(e));

    // Truncation at every byte boundary: empty input is a clean close,
    // dying anywhere inside the header or the payload is Truncated. No cut
    // may panic.
    for cut in 0..frame.len() {
        match read_back(&frame[..cut]) {
            Ok(None) => assert_eq!(cut, 0, "only EOF-between-frames is a clean close"),
            Err(DistribError::Envelope(EnvelopeError::Truncated)) => {
                assert_ne!(cut, 0, "EOF between frames is clean")
            }
            other => panic!("cut at {cut}: unexpected {other:?}"),
        }
    }

    // Corrupted magic.
    let mut bad = frame.clone();
    bad[0] ^= 0xff;
    assert_eq!(read_back(&bad), envelope_error(EnvelopeError::BadMagic));

    // Unsupported frame version (this build reads only version 2).
    let mut bad = frame.clone();
    bad[8..12].copy_from_slice(&11u32.to_le_bytes());
    assert_eq!(
        read_back(&bad),
        envelope_error(EnvelopeError::UnsupportedVersion {
            found: 11,
            expected: 2
        })
    );

    // A length field past the cap must be rejected before any allocation.
    let mut bad = frame.clone();
    bad[13..21].copy_from_slice(&u64::MAX.to_le_bytes());
    let oversized = envelope_error(EnvelopeError::Oversized(u64::MAX));
    assert_eq!(read_back(&bad), oversized);

    // Payload, checksum-field and kind-byte corruption all fail the
    // checksum: the kind is summed with the payload, so a flipped kind can
    // never pass for another message.
    for (at, what) in [(29, "payload"), (21, "checksum"), (12, "kind")] {
        let mut bad = frame.clone();
        bad[at] ^= 0x01;
        let rotten = envelope_error(EnvelopeError::ChecksumMismatch);
        assert_eq!(read_back(&bad), rotten, "{what} byte {at}");
    }
}

/// Feed a live `repro --worker` process hostile stdin bytes; the worker
/// must exit non-zero with a diagnosed error on stderr — and never panic.
fn worker_rejects(name: &str, stdin_bytes: &[u8]) {
    let mut child = Command::new(REPRO)
        .arg("--worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn worker");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(stdin_bytes)
        .expect("write hostile bytes");
    // stdin drops here: the worker sees EOF after the hostile bytes.
    let output = child.wait_with_output().expect("worker exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        !output.status.success(),
        "{name}: worker accepted hostile input"
    );
    assert!(
        stderr.contains("repro: worker:"),
        "{name}: expected a diagnosed worker error, got:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{name}: the worker panicked:\n{stderr}"
    );
}

#[test]
fn a_live_worker_survives_the_hostile_stdin_matrix_with_typed_errors() {
    // Garbage that is long enough to fill a header but is no frame.
    worker_rejects("bad-magic", b"this is not a SYNDIST frame, not even close");

    // A half-written header: death mid-frame.
    worker_rejects("truncated-header", &b"SYNDIST\0"[..6]);

    // A whole, checksum-valid frame whose payload is not a decodable
    // protocol message.
    worker_rejects("undecodable-payload", &valid_frame(2, b"junk payload"));

    // A valid message the worker must refuse mid-handshake: workers serve
    // Assign/Shutdown, they do not receive Hello.
    let mut hello = Vec::new();
    send(
        &mut hello,
        &Message::Hello {
            proto: synscan::core::PROTO_VERSION,
            worker: "imposter".into(),
        },
    )
    .expect("encode hello");
    worker_rejects("out-of-protocol-message", &hello);

    // An announced payload length past the frame cap.
    let mut oversized = valid_frame(2, b"");
    oversized[13..21].copy_from_slice(&u64::MAX.to_le_bytes());
    worker_rejects("oversized-length", &oversized);

    // A corrupted checksum on an otherwise valid frame.
    let mut corrupt = valid_frame(2, b"junk payload");
    corrupt[21] ^= 0x01;
    worker_rejects("checksum-mismatch", &corrupt);
}
