//! Sanity checks of the stand-in crates under `shims/`, run from here because
//! `cargo test` in this package does not reach into patched dependencies.

use std::time::Duration;

use crossbeam::channel::{bounded, RecvTimeoutError, TrySendError};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

#[test]
fn random_range_stays_in_range_and_reaches_both_ends() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut seen = [false; 7];
    for _ in 0..10_000 {
        let value: u8 = rng.random_range(3..10);
        assert!((3..10).contains(&value));
        seen[usize::from(value - 3)] = true;
        let inclusive = rng.random_range(-2..=2i32);
        assert!((-2..=2).contains(&inclusive));
        let unit: f64 = rng.random();
        assert!((0.0..1.0).contains(&unit));
    }
    assert!(
        seen.iter().all(|&hit| hit),
        "every value of 3..10 drawn: {seen:?}"
    );
    assert_eq!(rng.random_range(5..6u64), 5);
    assert_eq!(rng.random_range(u64::MAX..=u64::MAX), u64::MAX);
}

#[test]
fn seeding_is_deterministic_and_draws_are_counted() {
    let before = rand::draws();
    let mut a = StdRng::seed_from_u64(42);
    let mut b = StdRng::seed_from_u64(42);
    let mut c = StdRng::seed_from_u64(43);
    let (x, y, z): (u64, u64, u64) = (a.random(), b.random(), c.random());
    assert_eq!(x, y);
    assert_ne!(x, z);
    assert!(rand::draws() >= before + 3);
    assert!(!(0..64).all(|_| a.random_bool(0.5)));
    assert!((0..64).all(|_| a.random_bool(1.0)));
}

#[test]
fn shuffle_permutes() {
    let mut rng = StdRng::seed_from_u64(9);
    let mut values: Vec<u32> = (0..100).collect();
    values.shuffle(&mut rng);
    assert_ne!(values, (0..100).collect::<Vec<_>>());
    values.sort_unstable();
    assert_eq!(values, (0..100).collect::<Vec<_>>());
}

#[test]
fn bounded_channel_blocks_at_capacity_and_reports_disconnect() {
    let (tx, rx) = bounded::<u32>(2);
    tx.send(1).unwrap();
    tx.send(2).unwrap();
    assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
    // A blocked sender gets through once the receiver makes room.
    let sender = std::thread::spawn(move || tx.send(3));
    assert_eq!(rx.recv(), Ok(1));
    assert_eq!(sender.join().unwrap(), Ok(()));
    assert_eq!(rx.recv(), Ok(2));
    assert_eq!(rx.recv(), Ok(3));
    // The only sender is gone with its thread.
    assert_eq!(
        rx.recv_timeout(Duration::from_secs(5)),
        Err(RecvTimeoutError::Disconnected)
    );
    let (tx, rx) = bounded::<u32>(1);
    drop(rx);
    assert!(tx.send(7).is_err());
}

#[test]
fn serde_json_refuses_and_counts() {
    let before = serde_json::calls();
    assert!(serde_json::to_string(&1u32).is_err());
    assert!(serde_json::from_str::<u32>("1").is_err());
    assert_eq!(serde_json::calls(), before + 2);
}
