//! Zipfian population sampler.
//!
//! A grid portal's users are anything but uniform: a handful of heavy
//! users dominate the repository's traffic while a long tail logs in
//! once a week. The classic model is a zipfian rank-frequency law —
//! rank *k* drawn with probability proportional to `1 / k^s` — and the
//! load plan samples its per-operation user from exactly that
//! distribution, by inverse-CDF lookup over a precomputed table.
//!
//! Determinism is the point: the sampler owns no randomness. Callers
//! feed it an explicit `Rng`, so the same seeded generator replays the
//! identical draw sequence — the property tests pin both that and the
//! empirical rank-frequency shape.

use rand::Rng;

/// Inverse-CDF zipfian sampler over ranks `0..n`.
#[derive(Clone, Debug)]
pub struct Zipf {
    /// Cumulative distribution: `cdf[k]` = P(rank ≤ k). The final entry
    /// is exactly 1.0 by construction.
    cdf: Vec<f64>,
}

/// Draws map a 53-bit uniform integer into [0, 1); 53 bits is what an
/// f64 mantissa can hold exactly, the standard construction.
const UNIFORM_BITS: u64 = 1 << 53;

impl Zipf {
    /// Sampler over `n` ranks with exponent `s ≥ 0` (s = 0 degenerates
    /// to uniform, s ≈ 1 is the classic web-traffic shape).
    ///
    /// `n` must be at least 1; the table is O(n) built once.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n >= 1, "zipf population must be non-empty");
        assert!(s >= 0.0 && s.is_finite(), "zipf exponent must be finite and >= 0");
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Zipf { cdf }
    }

    /// The modelled probability of rank `k` (0-based).
    pub fn probability(&self, k: usize) -> f64 {
        let hi = self.cdf.get(k).copied().unwrap_or(0.0);
        let lo = if k == 0 { 0.0 } else { self.cdf.get(k - 1).copied().unwrap_or(0.0) };
        hi - lo
    }

    /// Draw one rank in `0..n`. Consumes exactly one `u64` from `rng`
    /// in the common case (`gen_range` may reject and redraw, which is
    /// still deterministic for a deterministic generator).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u = rng.gen_range(0..UNIFORM_BITS) as f64 / UNIFORM_BITS as f64;
        // First rank whose cumulative probability covers u.
        self.cdf.partition_point(|c| *c <= u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_when_exponent_zero() {
        let z = Zipf::new(4, 0.0);
        for k in 0..4 {
            assert!((z.probability(k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn single_rank_always_sampled() {
        let z = Zipf::new(1, 1.2);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        let z = Zipf::new(17, 0.9);
        let total: f64 = (0..17).map(|k| z.probability(k)).sum();
        assert!((total - 1.0).abs() < 1e-9, "sum = {total}");
    }
}
