//! ZMap-style iteration over a multiplicative cyclic group.
//!
//! ZMap visits every IPv4 address exactly once in a pseudo-random order
//! without keeping per-target state: it iterates the multiplicative group
//! ℤ*ₚ for the prime p = 2³² + 15 (the smallest prime larger than 2³²) by
//! repeatedly multiplying with a primitive root g. Elements that do not map
//! to an address in the target domain are skipped. Because the group is
//! cyclic of order p − 1, the walk returns to its start exactly after
//! p − 1 steps — a full permutation.
//!
//! Our implementation generalizes to any domain size `n`: it picks the
//! smallest prime `p > n`, a random primitive root of ℤ*ₚ, and iterates
//! `x ← g·x mod p`, emitting `x − 1` whenever `x − 1 < n`. This is exactly
//! ZMap's scheme for `n = 2³²` and lets small test scans enumerate a /24
//! with the same code path.

use crate::traits::mix64;

/// The prime ZMap uses for the full IPv4 space: 2³² + 15.
pub(crate) const ZMAP_PRIME: u64 = 4_294_967_311;

/// Deterministic Miller–Rabin primality test, exact for all u64 with the
/// standard witness set.
pub(crate) fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n.is_multiple_of(p) {
            return n == p;
        }
    }
    let mut d = n - 1;
    let mut r = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        r += 1;
    }
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..r - 1 {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// The smallest prime strictly greater than `n`.
pub(crate) fn next_prime(mut n: u64) -> u64 {
    loop {
        n += 1;
        if is_prime(n) {
            return n;
        }
    }
}

/// `(a * b) mod m` without overflow.
#[inline]
pub(crate) fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

/// `a^e mod m` by square-and-multiply.
pub(crate) fn pow_mod(mut a: u64, mut e: u64, m: u64) -> u64 {
    let mut result = 1u64;
    a %= m;
    while e > 0 {
        if e & 1 == 1 {
            result = mul_mod(result, a, m);
        }
        a = mul_mod(a, a, m);
        e >>= 1;
    }
    result
}

/// Prime factorization by trial division (fine for p − 1 ≤ 2⁶⁴ with small
/// factors; the ZMap prime's p − 1 factors are all small).
pub(crate) fn prime_factors(mut n: u64) -> Vec<u64> {
    let mut factors = Vec::new();
    let mut d = 2u64;
    while d * d <= n {
        if n.is_multiple_of(d) {
            factors.push(d);
            while n.is_multiple_of(d) {
                n /= d;
            }
        }
        d += 1;
    }
    if n > 1 {
        factors.push(n);
    }
    factors
}

/// True when `g` generates the full multiplicative group of ℤ*ₚ.
pub(crate) fn is_primitive_root(g: u64, p: u64, factors_of_p_minus_1: &[u64]) -> bool {
    if g <= 1 || g >= p {
        return false;
    }
    factors_of_p_minus_1
        .iter()
        .all(|&q| pow_mod(g, (p - 1) / q, p) != 1)
}

/// An iterator over a pseudo-random permutation of `0..domain`, ZMap-style.
///
/// ```
/// use synscan_scanners::CyclicIter;
///
/// // Walk a /24 in ZMap order: every address exactly once.
/// let order: Vec<u64> = CyclicIter::new(256, 42).collect();
/// assert_eq!(order.len(), 256);
/// let distinct: std::collections::HashSet<_> = order.iter().collect();
/// assert_eq!(distinct.len(), 256);
/// ```
#[derive(Debug, Clone)]
pub struct CyclicIter {
    p: u64,
    generator: u64,
    start: u64,
    current: u64,
    domain: u64,
    /// Elements of ℤ*ₚ emitted so far (group elements, not domain hits).
    steps: u64,
    done: bool,
}

impl CyclicIter {
    /// Permutation of `0..domain` seeded by `seed`. Panics if `domain == 0`.
    pub fn new(domain: u64, seed: u64) -> Self {
        assert!(domain > 0, "empty domain");
        let p = if domain == u64::from(u32::MAX) + 1 {
            ZMAP_PRIME
        } else {
            next_prime(domain)
        };
        if p == 2 {
            // Domain of one element: the group ℤ*₂ is trivial.
            return Self {
                p,
                generator: 1,
                start: 1,
                current: 1,
                domain,
                steps: 0,
                done: false,
            };
        }
        let factors = prime_factors(p - 1);
        // Derive a primitive root from the seed: walk candidates until one
        // generates the group (density of primitive roots is φ(p−1)/(p−1),
        // typically 20–40%, so this terminates in a handful of steps).
        // For p = 3 the only primitive root is 2.
        let mut candidate = if p == 3 { 2 } else { 2 + mix64(seed) % (p - 3) };
        while !is_primitive_root(candidate, p, &factors) {
            candidate += 1;
            if candidate >= p {
                candidate = 2;
            }
        }
        // Random start position within the cycle.
        let start = 1 + mix64(seed ^ 0xdead_beef) % (p - 1);
        Self {
            p,
            generator: candidate,
            start,
            current: start,
            domain,
            steps: 0,
            done: false,
        }
    }

    /// The modulus in use.
    pub fn prime(&self) -> u64 {
        self.p
    }

    /// The primitive root in use.
    pub fn generator(&self) -> u64 {
        self.generator
    }

    /// Total group elements (p − 1); the walk ends after this many steps.
    pub fn cycle_len(&self) -> u64 {
        self.p - 1
    }

    /// Group elements visited so far (including skipped out-of-domain ones) —
    /// ZMap's notion of scan progress.
    pub fn steps(&self) -> u64 {
        self.steps
    }
}

impl Iterator for CyclicIter {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        while !self.done {
            let value = self.current - 1; // group elements are 1..p-1
            self.current = mul_mod(self.current, self.generator, self.p);
            self.steps += 1;
            if self.current == self.start {
                self.done = true;
            }
            if value < self.domain {
                return Some(value);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn zmap_prime_is_the_smallest_above_2_32() {
        assert!(is_prime(ZMAP_PRIME));
        assert_eq!(next_prime(1u64 << 32), ZMAP_PRIME);
        // No prime in between.
        for n in (1u64 << 32) + 1..ZMAP_PRIME {
            assert!(!is_prime(n));
        }
    }

    #[test]
    fn primality_known_values() {
        assert!(is_prime(2));
        assert!(is_prime(3));
        assert!(is_prime(65_537));
        assert!(is_prime(4_294_967_291)); // largest prime < 2^32
        assert!(!is_prime(1));
        assert!(!is_prime(4_294_967_297)); // F5 = 641 × 6700417
        assert!(!is_prime(561)); // Carmichael
        assert!(!is_prime(u64::from(u32::MAX))); // 2^32-1 composite
    }

    #[test]
    fn pow_mod_and_mul_mod() {
        assert_eq!(pow_mod(2, 10, 1_000_000), 1024);
        assert_eq!(pow_mod(3, 0, 7), 1);
        // Fermat: a^(p-1) ≡ 1 mod p.
        assert_eq!(pow_mod(2, ZMAP_PRIME - 1, ZMAP_PRIME), 1);
        assert_eq!(
            mul_mod(u64::MAX / 2, 3, u64::MAX - 58),
            ((u64::MAX as u128 / 2 * 3) % (u64::MAX as u128 - 58)) as u64
        );
    }

    #[test]
    fn factorization_of_small_numbers() {
        assert_eq!(prime_factors(12), vec![2, 3]);
        assert_eq!(prime_factors(97), vec![97]);
        assert_eq!(prime_factors(360), vec![2, 3, 5]);
    }

    #[test]
    fn zmap_prime_minus_one_factors() {
        // p − 1 = 2 · 3 · 5 · 131 · 364289 · 3 ... verify product matches.
        let factors = prime_factors(ZMAP_PRIME - 1);
        for &f in &factors {
            assert!(is_prime(f));
            assert_eq!((ZMAP_PRIME - 1) % f, 0);
        }
    }

    #[test]
    fn iterator_is_a_permutation_of_small_domain() {
        for domain in [1u64, 2, 10, 97, 100, 256, 1000] {
            for seed in [0u64, 1, 42] {
                let seen: Vec<u64> = CyclicIter::new(domain, seed).collect();
                assert_eq!(seen.len() as u64, domain, "domain {domain} seed {seed}");
                let set: HashSet<u64> = seen.iter().copied().collect();
                assert_eq!(set.len() as u64, domain, "duplicates for {domain}");
                assert!(seen.iter().all(|&v| v < domain));
            }
        }
    }

    #[test]
    fn order_is_not_sequential() {
        let seen: Vec<u64> = CyclicIter::new(1000, 7).take(100).collect();
        let sequential = seen.windows(2).filter(|w| w[1] == w[0] + 1).count();
        assert!(sequential < 5, "walk looks sequential: {seen:?}");
    }

    #[test]
    fn different_seeds_give_different_orders() {
        let a: Vec<u64> = CyclicIter::new(1000, 1).take(20).collect();
        let b: Vec<u64> = CyclicIter::new(1000, 2).take(20).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn same_seed_reproduces() {
        let a: Vec<u64> = CyclicIter::new(5000, 9).take(50).collect();
        let b: Vec<u64> = CyclicIter::new(5000, 9).take(50).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn full_ipv4_iterator_uses_zmap_prime() {
        let it = CyclicIter::new(1u64 << 32, 3);
        assert_eq!(it.prime(), ZMAP_PRIME);
        assert_eq!(it.cycle_len(), ZMAP_PRIME - 1);
        // First few values are valid addresses and pseudo-random.
        let head: Vec<u64> = it.take(5).collect();
        assert_eq!(head.len(), 5);
        assert!(head.iter().all(|&v| v < (1u64 << 32)));
    }

    #[test]
    fn steps_track_group_progress() {
        let mut it = CyclicIter::new(100, 1);
        assert_eq!(it.steps(), 0);
        let _ = it.next();
        assert!(it.steps() >= 1);
        let _: Vec<u64> = it.by_ref().collect();
        // Every group element was visited exactly once.
        assert_eq!(it.steps(), it.cycle_len());
    }

    #[test]
    fn generator_is_a_primitive_root() {
        let it = CyclicIter::new(10_000, 5);
        let factors = prime_factors(it.prime() - 1);
        assert!(is_primitive_root(it.generator(), it.prime(), &factors));
    }
}
