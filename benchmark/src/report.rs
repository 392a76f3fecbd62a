//! Metric values and the quantiles they are made from. Quantiles come
//! from the sorted raw sample vector (nanoseconds), never from the
//! bucketed `mp_obs` histograms.

use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a plain count or ratio).
    pub n: usize,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric { name: name.to_string(), value, unit, n }
    }
}

/// Nearest-rank quantile of an ascending sample vector.
pub fn quantile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len()) - 1).copied()
}

pub fn median(samples: &[u64]) -> Option<u64> {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    quantile(&sorted, 0.5)
}

pub fn median_f64(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.get(sorted.len().checked_sub(1)? / 2).copied()
}

/// Median of nanosecond samples as a metric in `unit` (`ms` or `us`).
pub fn median_metric(name: &str, samples: &[u64], unit: &'static str) -> Result<Metric, String> {
    let per_unit = match unit {
        "ms" => 1e6,
        "us" => 1e3,
        other => return Err(format!("{name}: no nanosecond scale for unit {other}")),
    };
    let m = median(samples).ok_or_else(|| format!("{name}: no samples"))?;
    Ok(Metric::new(name, m as f64 / per_unit, unit, samples.len()))
}

/// Call `f` (which returns one duration in nanoseconds) at least `min`
/// times, then until `max` calls or until `budget` is spent. The cheap
/// layers reach `max`; the expensive ones (2048-bit key generation) stop
/// at `min`.
pub fn sample(
    min: usize,
    max: usize,
    budget: Duration,
    mut f: impl FnMut() -> Result<u64, String>,
) -> Result<Vec<u64>, String> {
    let started = Instant::now();
    let mut out = Vec::with_capacity(max);
    while out.len() < min || (out.len() < max && started.elapsed() < budget) {
        out.push(f()?);
    }
    Ok(out)
}

/// Nanoseconds `f` takes.
pub fn timed<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let started = Instant::now();
    let out = std::hint::black_box(f());
    (started.elapsed().as_nanos() as u64, out)
}
