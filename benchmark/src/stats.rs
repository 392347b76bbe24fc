//! Sample summaries and the digest every output is compared by.

/// Median of `values` (mean of the middle pair for even counts). `NaN` for
/// an empty sample, so a missing measurement can never pass for a number.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), because that
/// is what the acceptance spread is computed with. A single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => (f64::NAN, f64::NAN),
        1 => (sorted[0], sorted[0]),
        _ => {
            let cut = |quarter: usize| {
                // Position quarter*(n+1)/4 on a 1-based scale, clamped to
                // the sample, interpolated linearly between neighbours.
                let j = (quarter * (n + 1) / 4).clamp(1, n - 1);
                let delta = (quarter * (n + 1)) as f64 / 4.0 - j as f64;
                sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
            };
            (cut(1), cut(3))
        }
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending-sorted sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The reported value, quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// The median, unless the caller has a reason to report another
    /// statistic (`cpu_user_s` reports the mean of tick-quantized readings).
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        let (q1, q3) = quartiles(values);
        Self {
            value: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }

    /// A count or size taken once: no spread to report.
    pub fn single(value: f64) -> Self {
        Self {
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }
}

/// 64-bit FNV-1a over 8-byte words. Independent of the hashes the program
/// under test uses for its own envelopes, so a digest match is not the
/// program agreeing with itself.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write_u64(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        self.0 ^= self.0 >> 29;
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a byte string (length folded in, tail zero-padded).
pub fn digest(bytes: &[u8]) -> u64 {
    let mut hash = Fnv::new();
    hash.write_u64(bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        hash.write_u64(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    hash.write_u64(u64::from_le_bytes(tail));
    hash.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), 100.0);
        assert_eq!(percentile_sorted(&sorted, 99.0), 198.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 200.0);
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
        assert!(percentile_sorted(&[], 50.0).is_nan());
    }

    #[test]
    fn digest_separates_length_and_content() {
        assert_ne!(digest(b""), digest(b"\0"));
        assert_ne!(digest(b"abcdefgh"), digest(b"abcdefgi"));
        assert_eq!(digest(b"synscan"), digest(b"synscan"));
    }
}
