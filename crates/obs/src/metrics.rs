//! Metric primitives: counters, gauges, fixed-bucket histograms.
//!
//! All cells are [`RelaxedU64`] — the one documented ordering for the
//! whole workspace's metrics, carried by the type (see the crate docs
//! for why nothing stronger is warranted).

use crate::relaxed::RelaxedU64;
use std::sync::Arc;
use std::time::Instant;

/// Monotonic event counter. Cloning yields another handle to the same
/// cell, so a service struct and a registry can share one counter.
#[derive(Clone, Default)]
pub struct Counter {
    cell: Arc<RelaxedU64>,
}

impl Counter {
    /// A fresh, unregistered counter (registries intern their own).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.cell.fetch_add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load()
    }
}

/// Up/down gauge (e.g. connections currently in flight).
#[derive(Clone, Default)]
pub struct Gauge {
    cell: Arc<RelaxedU64>,
}

impl Gauge {
    /// A fresh, unregistered gauge.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Increment.
    pub fn inc(&self) {
        self.cell.fetch_add(1);
    }

    /// Decrement. Callers keep inc/dec balanced; a dec on a zero gauge
    /// saturates at zero rather than wrapping to 2^64-1 so a
    /// bookkeeping slip cannot masquerade as infinite load.
    pub fn dec(&self) {
        self.cell.saturating_dec();
    }

    /// Set to an absolute value.
    pub fn set(&self, v: u64) {
        self.cell.store(v);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load()
    }
}

/// Default latency bucket upper bounds, in microseconds: 100µs to 10s,
/// roughly 2.5× apart. Everything in this workspace — a PBKDF2 open, an
/// RSA keygen, a full handshake — lands inside this range on
/// present-day hardware; slower samples go to the overflow bucket.
pub const DEFAULT_BOUNDS: [u64; 16] = [
    100,
    250,
    500,
    1_000,
    2_500,
    5_000,
    10_000,
    25_000,
    50_000,
    100_000,
    250_000,
    500_000,
    1_000_000,
    2_500_000,
    5_000_000,
    10_000_000,
];

struct HistogramCore {
    /// Bucket upper bounds (inclusive), ascending. `buckets` has one
    /// extra slot for samples above the last bound.
    bounds: Vec<u64>,
    buckets: Vec<RelaxedU64>,
    count: RelaxedU64,
    sum: RelaxedU64,
    max: RelaxedU64,
}

/// Fixed-bucket latency histogram; recording is one bucket `fetch_add`
/// plus count/sum/max updates, all lock-free.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Histogram over [`DEFAULT_BOUNDS`].
    pub fn new() -> Self {
        Histogram::with_bounds(&DEFAULT_BOUNDS)
    }

    /// Histogram over custom ascending bucket bounds.
    pub fn with_bounds(bounds: &[u64]) -> Self {
        let mut sorted: Vec<u64> = bounds.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let buckets = (0..sorted.len().saturating_add(1))
            .map(|_| RelaxedU64::new(0))
            .collect();
        Histogram {
            core: Arc::new(HistogramCore {
                bounds: sorted,
                buckets,
                count: RelaxedU64::new(0),
                sum: RelaxedU64::new(0),
                max: RelaxedU64::new(0),
            }),
        }
    }

    /// Record one sample (microseconds for latency histograms).
    pub fn record(&self, value: u64) {
        let c = &self.core;
        let idx = c
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(c.bounds.len());
        if let Some(slot) = c.buckets.get(idx) {
            slot.fetch_add(1);
        }
        c.count.fetch_add(1);
        c.sum.fetch_add(value);
        c.max.fetch_max(value);
    }

    /// Record a wall-clock duration measured from `start` to now.
    pub fn record_since(&self, start: Instant) {
        self.record(micros_since(start));
    }

    /// A guard that records the elapsed time into this histogram when
    /// dropped.
    pub fn timer(&self) -> HistTimer {
        HistTimer { hist: self.clone(), start: Instant::now() }
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.core.count.load()
    }

    /// Point-in-time copy of all cells. Per-metric only — see the crate
    /// docs on consistency.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let c = &self.core;
        HistogramSnapshot {
            bounds: c.bounds.clone(),
            buckets: c.buckets.iter().map(|b| b.load()).collect(),
            count: c.count.load(),
            sum: c.sum.load(),
            max: c.max.load(),
        }
    }
}

/// Elapsed microseconds since `start`, saturating instead of wrapping
/// for absurd (>584 000 year) intervals.
pub(crate) fn micros_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Scope guard from [`Histogram::timer`]; records on drop.
pub struct HistTimer {
    hist: Histogram,
    start: Instant,
}

impl Drop for HistTimer {
    fn drop(&mut self) {
        self.hist.record_since(self.start);
    }
}

/// Plain-data copy of a histogram: what snapshots, exposition, merging
/// and percentile extraction operate on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Ascending bucket upper bounds (exclusive of the overflow bucket).
    pub bounds: Vec<u64>,
    /// Per-bucket sample counts; `bounds.len() + 1` entries, the last
    /// being the overflow bucket.
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot over the given bounds.
    pub fn empty(bounds: &[u64]) -> Self {
        HistogramSnapshot {
            bounds: bounds.to_vec(),
            buckets: vec![0; bounds.len().saturating_add(1)],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Merge two histograms recorded over identical bounds: bucket-wise
    /// sum, `count`/`sum` added, `max` taken. Returns `None` when the
    /// bounds differ (merging them bucket-wise would be meaningless).
    /// Commutative and associative — the property tests pin this.
    pub fn merge(&self, other: &HistogramSnapshot) -> Option<HistogramSnapshot> {
        if self.bounds != other.bounds || self.buckets.len() != other.buckets.len() {
            return None;
        }
        Some(HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .zip(other.buckets.iter())
                .map(|(a, b)| a.saturating_add(*b))
                .collect(),
            count: self.count.saturating_add(other.count),
            sum: self.sum.saturating_add(other.sum),
            max: self.max.max(other.max),
        })
    }

    /// Cumulative bucket counts (Prometheus `le` semantics): entry *i*
    /// is the number of samples ≤ `bounds[i]`, the final entry equals
    /// `count`. Monotone non-decreasing by construction.
    pub fn cumulative(&self) -> Vec<u64> {
        let mut cum = 0u64;
        self.buckets
            .iter()
            .map(|b| {
                cum = cum.saturating_add(*b);
                cum
            })
            .collect()
    }

    /// Quantile estimate: the upper bound of the bucket where the
    /// cumulative count crosses `q·count`, clamped to the recorded
    /// maximum (so `p99` can never exceed the largest real sample —
    /// the property tests pin that too). Returns 0 for an empty
    /// histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum = cum.saturating_add(*b);
            if cum >= rank {
                let bound = self.bounds.get(i).copied().unwrap_or(self.max);
                return bound.min(self.max);
            }
        }
        self.max
    }

    /// SLO helper: the fraction of recorded samples *provably* at or
    /// below `bound_us` — the cumulative share of the buckets whose
    /// upper bound does not exceed `bound_us`. Samples in the bucket
    /// straddling the bound are not counted, so the estimate is
    /// conservative (a lower bound on compliance); a bound at or above
    /// the recorded maximum is exact. An empty histogram reports 1.0 —
    /// no sample violated the objective.
    pub fn fraction_within(&self, bound_us: u64) -> f64 {
        if self.count == 0 || bound_us >= self.max {
            return 1.0;
        }
        let mut within = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            match self.bounds.get(i) {
                Some(upper) if *upper <= bound_us => within = within.saturating_add(*b),
                _ => break,
            }
        }
        within as f64 / self.count as f64
    }

    /// Does this histogram meet the latency objective "the `q`-th
    /// quantile is at most `bound_us`"? This is the predicate the
    /// capacity sweep regresses on (`p99 ≤ SLO`); it shares
    /// [`quantile`](Self::quantile)'s clamp to the recorded maximum,
    /// so an SLO at or above the worst sample always passes.
    pub fn meets_slo(&self, q: f64, bound_us: u64) -> bool {
        self.quantile(q) <= bound_us
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}
