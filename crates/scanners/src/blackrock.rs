//! Masscan's BlackRock format-preserving permutation.
//!
//! Masscan randomizes its (address × port) target order with "BlackRock", a
//! generalized Feistel network over an arbitrary-size domain (Black & Rogaway,
//! "Ciphers with Arbitrary Finite Domains"). The domain `[0, range)` is
//! embedded into `a × b` with `a ≈ √range`; each round splits an index into
//! `(l, r) = (x % a, x / a)` and mixes with a keyed round function; indices
//! that land outside the domain are *cycle-walked* (re-encrypted) until they
//! fall inside. The result is a keyed bijection of `0..range` computable in
//! O(1) per element with zero state — exactly what a stateless scanner needs.

use crate::traits::mix64;

/// Default number of Feistel rounds (masscan uses 4 by default; we keep 4 —
/// statistical quality is ample for scan-order purposes).
pub(crate) const DEFAULT_ROUNDS: u32 = 4;

/// A keyed bijection of `0..range`.
///
/// ```
/// use synscan_scanners::BlackRock;
///
/// let br = BlackRock::new(1000, 0xfeed);
/// let shuffled: Vec<u64> = (0..1000).map(|i| br.shuffle(i)).collect();
/// // Every index appears exactly once...
/// let mut sorted = shuffled.clone();
/// sorted.sort_unstable();
/// assert_eq!(sorted, (0..1000).collect::<Vec<_>>());
/// // ...and the walk is invertible.
/// assert_eq!(br.unshuffle(br.shuffle(123)), 123);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BlackRock {
    range: u64,
    a: u64,
    b: u64,
    seed: u64,
    rounds: u32,
}

impl BlackRock {
    /// Create a permutation of `0..range` keyed by `seed`.
    pub fn new(range: u64, seed: u64) -> Self {
        Self::with_rounds(range, seed, DEFAULT_ROUNDS)
    }

    /// As [`BlackRock::new`] with an explicit round count (≥ 2).
    pub(crate) fn with_rounds(range: u64, seed: u64, rounds: u32) -> Self {
        assert!(range > 0, "empty range");
        assert!(rounds >= 2, "need at least two Feistel rounds");
        // a ≈ sqrt(range), b = ceil(range / a); a*b >= range always holds.
        let mut a = (range as f64).sqrt() as u64;
        if a < 1 {
            a = 1;
        }
        let b = range.div_ceil(a);
        debug_assert!(a * b >= range);
        Self {
            range,
            a,
            b,
            seed,
            rounds,
        }
    }

    /// Keyed round function: mixes the right half with the round index.
    #[inline]
    fn round_fn(&self, round: u32, r: u64) -> u64 {
        mix64(r ^ self.seed.rotate_left(round) ^ (round as u64).wrapping_mul(0x9e37))
    }

    /// One unconstrained Feistel encryption over the `a × b` embedding.
    fn encrypt_raw(&self, m: u64) -> u64 {
        // Unbalanced Feistel on mixed radix (l in [0,a), r in [0,b)).
        let mut l = m % self.a;
        let mut r = m / self.a;
        for round in 0..self.rounds {
            // Reduce the round function before adding to avoid u64 overflow.
            let (nl, nr) = if round & 1 == 0 {
                ((l + self.round_fn(round, r) % self.a) % self.a, r)
            } else {
                (l, (r + self.round_fn(round, l) % self.b) % self.b)
            };
            l = nl;
            r = nr;
        }
        r * self.a + l
    }

    fn decrypt_raw(&self, c: u64) -> u64 {
        let mut l = c % self.a;
        let mut r = c / self.a;
        for round in (0..self.rounds).rev() {
            let (nl, nr) = if round & 1 == 0 {
                ((l + self.a - self.round_fn(round, r) % self.a) % self.a, r)
            } else {
                (l, (r + self.b - self.round_fn(round, l) % self.b) % self.b)
            };
            l = nl;
            r = nr;
        }
        r * self.a + l
    }

    /// Encrypt (shuffle): maps `m ∈ [0, range)` to a unique index in the same
    /// interval, cycle-walking across the `a·b − range` gap.
    pub fn shuffle(&self, m: u64) -> u64 {
        assert!(m < self.range, "index out of domain");
        let mut c = self.encrypt_raw(m);
        while c >= self.range {
            c = self.encrypt_raw(c);
        }
        c
    }

    /// Decrypt (unshuffle): the inverse of [`BlackRock::shuffle`].
    pub fn unshuffle(&self, c: u64) -> u64 {
        assert!(c < self.range, "index out of domain");
        let mut m = self.decrypt_raw(c);
        while m >= self.range {
            m = self.decrypt_raw(m);
        }
        m
    }

    /// Iterate the whole permutation in shuffled order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.range).map(move |i| self.shuffle(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn shuffle_is_a_bijection_on_small_domains() {
        for range in [1u64, 2, 3, 10, 100, 255, 256, 257, 1000, 65_536] {
            let br = BlackRock::new(range, 0x1234);
            let outputs: HashSet<u64> = (0..range).map(|i| br.shuffle(i)).collect();
            assert_eq!(outputs.len() as u64, range, "range {range}");
            assert!(outputs.iter().all(|&v| v < range));
        }
    }

    #[test]
    fn unshuffle_inverts_shuffle() {
        let br = BlackRock::new(100_003, 0xfeed);
        for i in (0..100_003u64).step_by(977) {
            assert_eq!(br.unshuffle(br.shuffle(i)), i);
        }
    }

    #[test]
    fn different_seeds_permute_differently() {
        let a = BlackRock::new(10_000, 1);
        let b = BlackRock::new(10_000, 2);
        let same = (0..100u64)
            .filter(|&i| a.shuffle(i) == b.shuffle(i))
            .count();
        assert!(same < 5, "{same} collisions in 100 — keys not independent");
    }

    #[test]
    fn order_is_scrambled() {
        let br = BlackRock::new(1_000_000, 42);
        let head: Vec<u64> = br.iter().take(50).collect();
        let sequential = head.windows(2).filter(|w| w[1] == w[0] + 1).count();
        assert!(sequential < 3, "{head:?}");
        // Values should span the domain, not cluster at the bottom.
        let max = head.iter().max().unwrap();
        assert!(*max > 500_000);
    }

    #[test]
    fn deterministic_across_instances() {
        let a = BlackRock::new(77_777, 9);
        let b = BlackRock::new(77_777, 9);
        for i in (0..77_777u64).step_by(1111) {
            assert_eq!(a.shuffle(i), b.shuffle(i));
        }
    }

    #[test]
    fn handles_full_ipv4_times_ports_domain() {
        // 2^32 × 100 ports — far beyond u32. Spot-check bijectivity via
        // round-trips at scattered points.
        let range = (1u64 << 32) * 100;
        let br = BlackRock::new(range, 0xabcdef);
        for &i in &[0u64, 1, 12_345_678_901, range / 2, range - 1] {
            let c = br.shuffle(i);
            assert!(c < range);
            assert_eq!(br.unshuffle(c), i);
        }
    }

    #[test]
    fn single_element_domain() {
        let br = BlackRock::new(1, 5);
        assert_eq!(br.shuffle(0), 0);
        assert_eq!(br.unshuffle(0), 0);
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn out_of_domain_panics() {
        BlackRock::new(10, 1).shuffle(10);
    }
}
