//! Seeded load generation: a SplitMix64 stream, Poisson arrival
//! schedules and a zipf rank sampler. Everything here is a pure function
//! of its seed, so a workload's inputs repeat exactly for a given
//! `--seed`.

/// SplitMix64: small, fast, and good enough to drive a load generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }
}

/// Arrival offsets in seconds of a Poisson process at `rate` per second
/// over `[0, duration)`: exponential gaps `-ln(1 - u) / rate`.
pub fn poisson_arrivals(rng: &mut SplitMix64, rate: f64, duration: f64) -> Vec<f64> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= duration {
            return out;
        }
        out.push(t);
    }
}

/// Zipf sampler over ranks `0..n`: rank `r` has weight `1 / (r + 1)^skew`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n ≥ 1` ranks.
    pub fn new(n: usize, skew: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(skew);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_deterministic_for_a_seed() {
        let a = poisson_arrivals(&mut SplitMix64::new(7), 200.0, 5.0);
        let b = poisson_arrivals(&mut SplitMix64::new(7), 200.0, 5.0);
        let c = poisson_arrivals(&mut SplitMix64::new(8), 200.0, 5.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn poisson_schedule_has_the_offered_rate() {
        let a = poisson_arrivals(&mut SplitMix64::new(1), 400.0, 50.0);
        // 20 000 expected arrivals; the standard deviation is ~141.
        assert!((a.len() as f64 - 20_000.0).abs() < 1_000.0, "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..50.0).contains(&t)));
    }

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let z = Zipf::new(100, 1.0);
        let mut rng = SplitMix64::new(3);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[9]);
        assert!(counts[99] > 0);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        shuffle(&mut a, &mut SplitMix64::new(5));
        shuffle(&mut b, &mut SplitMix64::new(5));
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
