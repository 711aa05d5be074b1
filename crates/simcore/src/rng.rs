//! Seedable random number generation for simulations.
//!
//! A thin, fully deterministic PRNG (xoshiro256**) plus the handful of
//! distributions the workload synthesizer and schedulers need: uniform,
//! exponential inter-arrivals, normal (Box–Muller) and log-normal demand
//! distributions, and Fisher–Yates shuffling (the random sorting
//! function ρ(·) of DSS-LC, §5.2.2).
//!
//! We implement the generator ourselves rather than pulling `rand`'s
//! `StdRng` so that streams are stable across dependency upgrades — run
//! reproducibility is part of the experiment contract.

/// A deterministic xoshiro256** PRNG.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create a generator from a 64-bit seed. Any seed (including 0) yields
    /// a well-mixed state via SplitMix64 expansion.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derive an independent child stream (e.g. one per cluster) from this
    /// generator; advances `self`.
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.next_u64() ^ 0xA5A5_5A5A_DEAD_BEEF)
    }

    /// The raw xoshiro256** state, for checkpointing. Restoring via
    /// [`SimRng::from_state`] resumes the stream exactly where it was.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuild a generator from a captured [`SimRng::state`].
    pub fn from_state(s: [u64; 4]) -> Self {
        SimRng { s }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform float in [0, 1).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits -> [0,1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in [0, n). Returns 0 when n == 0.
    /// Uses Lemire's multiply-shift rejection method for unbiased sampling.
    pub fn next_below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let low = m as u64;
            if low >= n {
                return (m >> 64) as u64;
            }
            // rejection zone: low < n; accept only if low >= (2^64 mod n)
            let threshold = n.wrapping_neg() % n;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in [lo, hi] inclusive. `lo > hi` returns `lo`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        if lo >= hi {
            return lo;
        }
        lo + self.next_below(hi - lo + 1)
    }

    /// Uniform float in [lo, hi).
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Bernoulli trial with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Exponentially distributed value with the given mean (inter-arrival
    /// times of a Poisson process).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u = loop {
            let u = self.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Standard-normal variate via Box–Muller.
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = loop {
            let u = self.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Normal variate with given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Log-normal variate parameterized by the *underlying* normal's μ, σ.
    /// Heavy-tailed resource demands in cluster traces are classically
    /// log-normal.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Fisher–Yates shuffle — the random sorting function ρ(·) DSS-LC uses
    /// to split overload-case requests (§5.2.2).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        let n = items.len();
        for i in (1..n).rev() {
            let j = self.next_below((i + 1) as u64) as usize;
            items.swap(i, j);
        }
    }

    /// Sample one index from a slice of non-negative weights. Returns
    /// `None` if the weights are empty or sum to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
        if total <= 0.0 {
            return None;
        }
        let mut target = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if w.is_finite() && w > 0.0 {
                target -= w;
                if target <= 0.0 {
                    return Some(i);
                }
            }
        }
        // floating-point slack: return last positive weight
        weights.iter().rposition(|w| w.is_finite() && *w > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn forked_streams_are_independent_but_deterministic() {
        let mut parent1 = SimRng::new(7);
        let mut parent2 = SimRng::new(7);
        let mut c1 = parent1.fork();
        let mut c2 = parent2.fork();
        for _ in 0..100 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_bounds_and_zero() {
        let mut r = SimRng::new(9);
        assert_eq!(r.next_below(0), 0);
        for _ in 0..10_000 {
            assert!(r.next_below(7) < 7);
        }
    }

    #[test]
    fn next_below_is_roughly_uniform() {
        let mut r = SimRng::new(11);
        let mut counts = [0u32; 5];
        for _ in 0..50_000 {
            counts[r.next_below(5) as usize] += 1;
        }
        for &c in &counts {
            // expected 10_000 per bucket; allow ±5%
            assert!((9_500..10_500).contains(&c), "counts={counts:?}");
        }
    }

    #[test]
    fn range_u64_inclusive_and_degenerate() {
        let mut r = SimRng::new(5);
        for _ in 0..1000 {
            let v = r.range_u64(3, 6);
            assert!((3..=6).contains(&v));
        }
        assert_eq!(r.range_u64(9, 9), 9);
        assert_eq!(r.range_u64(9, 2), 9);
    }

    #[test]
    fn exponential_mean_converges() {
        let mut r = SimRng::new(13);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.exponential(50.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 50.0).abs() < 1.5, "mean={mean}");
    }

    #[test]
    fn normal_moments_converge() {
        let mut r = SimRng::new(17);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean={mean}");
        assert!((var - 4.0).abs() < 0.15, "var={var}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::new(23);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>()); // astronomically unlikely to be identity
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = SimRng::new(29);
        let w = [1.0, 0.0, 3.0];
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            counts[r.weighted_index(&w).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio={ratio}");
    }

    #[test]
    fn weighted_index_handles_empty_and_zero() {
        let mut r = SimRng::new(31);
        assert_eq!(r.weighted_index(&[]), None);
        assert_eq!(r.weighted_index(&[0.0, 0.0]), None);
        assert_eq!(r.weighted_index(&[f64::NAN, 1.0]), Some(1));
    }
}
