//! Order statistics, the order-independent solution digest and the seeded
//! generator the benchmark draws its inputs from.
//!
//! Everything here is the benchmark's own code, so a change to the program
//! cannot change how a metric is computed.

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = nearest_rank(sorted.len(), p)?;
    Some(sorted[rank - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(rank.clamp(1, n))
}

/// Samples strictly above the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    nearest_rank(n, p).map_or(0, |rank| n - rank)
}

/// The percentiles a tail may be reported at, highest first.
pub const TAIL_LADDER: [f64; 7] = [99.99, 99.9, 99.0, 98.0, 95.0, 90.0, 75.0];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten samples
/// beyond it, so that the tail is set by more than a single outlier.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().copied().find(|&p| samples_beyond(n, p) >= 10)
}

/// Label of a percentile as used in metric names: 99.9 → `p999`, 99 → `p99`.
pub fn percentile_label(p: f64) -> String {
    let digits = format!("{p}").replace('.', "");
    format!("p{digits}")
}

/// Median of unsorted values (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, 50.0)
}

/// The slower quartile of a run's per-iteration figures: the upper quartile
/// of times, or the lower quartile of rates when `rates` is set. On the
/// shared host the CPU alternates between a sustained speed and short
/// faster bursts; over six runs of the same code the slower quartile moved
/// half as much between runs as the median did (and the slowest iteration
/// is at the mercy of a single interruption).
pub fn slower_quartile(values: &[f64], rates: bool) -> Option<f64> {
    match values.len() {
        0 => None,
        1 => Some(values[0]),
        _ => quartiles(values).map(|q| if rates { q[0] } else { q[2] }),
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the default "exclusive" method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n as f64 + 1.0;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let pos = (i as f64 + 1.0) * m / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        *q = v[j - 1] + (v[j] - v[j - 1]) * delta;
    }
    Some(out)
}

/// splitmix64: a fixed, documented mixing function, so the benchmark's
/// inputs and digests never depend on a library's hasher.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Seeded generator for every random choice the benchmark makes.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, separated by `stream` so independent uses of
    /// one seed draw independent sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix64(seed ^ mix64(stream)))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// 64-bit hash of a solution given by its sorted left and right sides. The
/// key is the benchmark's own canonical form (left ids, a separator, right
/// ids), independent of the program's `canonical_key`.
pub fn solution_hash(left: &[u32], right: &[u32], salt: u64) -> u64 {
    let mut h = mix64(salt ^ ((left.len() as u64) << 32) ^ right.len() as u64);
    for &v in left {
        h = mix64(h ^ u64::from(v));
    }
    h = mix64(h ^ 0xFFFF_FFFF_0000_0001);
    for &u in right {
        h = mix64(h ^ u64::from(u));
    }
    h
}

/// Order-independent digest of a solution set: the count plus two sums of
/// independent 64-bit hashes, so equal sets give equal digests in any
/// emission order and any engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    /// Solutions added.
    pub count: u64,
    /// Wrapping sum of the first hash.
    pub a: u64,
    /// Wrapping sum of the second hash.
    pub b: u64,
}

impl Digest {
    /// Adds one solution; `left` and `right` must be sorted.
    pub fn add(&mut self, left: &[u32], right: &[u32]) {
        self.count += 1;
        self.a = self.a.wrapping_add(solution_hash(left, right, 0xA5A5));
        self.b = self.b.wrapping_add(solution_hash(left, right, 0x5A5A_0000));
    }

    /// Hex form used in reports and pins.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.a, self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 100k gaps: p99.99 leaves 10 beyond, so it is the supported tail.
        assert_eq!(samples_beyond(100_000, 99.99), 10);
        assert_eq!(supported_tail(100_000), Some(99.99));
        // 99_999 samples leave only 9 beyond p99.99: fall back to p99.9.
        assert_eq!(supported_tail(99_999), Some(99.9));
        // 1000 requests support p99 (10 beyond) but not p99.9 (1 beyond).
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(999), Some(98.0));
        // serve-mixed: 770 requests of each kind support p98 (15 beyond).
        assert_eq!(samples_beyond(770, 98.0), 15);
        assert_eq!(supported_tail(770), Some(98.0));
        assert_eq!(supported_tail(499), Some(95.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(39), None);
        assert_eq!(percentile_label(99.9), "p999");
        assert_eq!(percentile_label(99.0), "p99");
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), Some(50.0));
        assert_eq!(percentile_sorted(&v, 99.0), Some(99.0));
        assert_eq!(percentile_sorted(&v, 100.0), Some(100.0));
        assert_eq!(percentile_sorted(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn slower_quartile_picks_the_slow_side() {
        let times: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(slower_quartile(&times, false), Some(8.25));
        assert_eq!(slower_quartile(&times, true), Some(2.75));
        assert_eq!(slower_quartile(&[4.0], true), Some(4.0));
        assert_eq!(slower_quartile(&[], false), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn digest_ignores_order_and_separates_sides() {
        let sets: [(&[u32], &[u32]); 3] = [(&[0, 1], &[2]), (&[3], &[0, 1]), (&[], &[4])];
        let mut fwd = Digest::default();
        for (l, r) in sets {
            fwd.add(l, r);
        }
        let mut rev = Digest::default();
        for (l, r) in sets.iter().rev() {
            rev.add(l, r);
        }
        assert_eq!(fwd, rev);
        // Moving a vertex across the separator is a different solution.
        let mut x = Digest::default();
        x.add(&[0, 1], &[]);
        let mut y = Digest::default();
        y.add(&[0], &[1]);
        assert_ne!(x, y);
        // A missing solution changes the digest even at equal count.
        let mut z = Digest::default();
        z.add(&[0, 1], &[2]);
        z.add(&[3], &[0, 1]);
        z.add(&[], &[5]);
        assert_eq!(z.count, fwd.count);
        assert_ne!(z.hex(), fwd.hex());
    }

    #[test]
    fn rng_is_seeded_and_in_range() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        let mut r = Rng::new(3, 0);
        assert!((0..1000).all(|_| r.below(50) < 50));
        assert!((0..1000).map(|_| r.unit()).all(|u| (0.0..1.0).contains(&u)));
    }
}
