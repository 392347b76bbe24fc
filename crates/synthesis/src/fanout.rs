//! Cross-year fan-out: map a few independent jobs (the decade's ≤10 years)
//! over the machine's cores with scoped threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Threads [`par_map`] runs at most: the cores the OS lets this process use.
pub fn width() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// `items.iter().map(f)` on up to [`width`] threads, results in input order.
/// Workers claim the next unclaimed index, so one slow year does not hold a
/// fixed share of the others behind it. A panic in `f` resurfaces here.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    // Relaxed: the counter only hands out indices; `items` is shared before
    // any worker starts and results come back through `join`.
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            match items.get(i) {
                Some(item) => done.push((i, f(item))),
                None => return done,
            }
        }
    };
    let mut indexed: Vec<(usize, R)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..width().min(items.len()))
            .map(|_| scope.spawn(worker))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_every_item_in_input_order() {
        let items: Vec<u64> = (0..37).collect();
        assert_eq!(
            par_map(&items, |x| x * x),
            items.iter().map(|x| x * x).collect::<Vec<_>>()
        );
        assert!(par_map(&[] as &[u64], |x| *x).is_empty());
    }

    #[test]
    #[should_panic(expected = "year 3 failed")]
    fn a_worker_panic_resurfaces() {
        par_map(&[1, 2, 3, 4], |x| assert!(*x != 3, "year {x} failed"));
    }
}
