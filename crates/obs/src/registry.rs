//! The interning registry, process-global instance, span timing and the
//! ring-buffer trace log.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use crate::metrics::{micros_since, Counter, Gauge, Histogram, HistogramSnapshot};

/// One timed scope captured by the trace ring (test diagnostics only —
/// names and durations, never payload data).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotone sequence number, process order of span completion.
    pub seq: u64,
    /// The span / histogram name.
    pub name: String,
    /// Elapsed microseconds.
    pub micros: u64,
}

/// Bounded ring of completed spans; disabled (capacity 0) by default so
/// production recording stays a pure atomic bump.
#[derive(Default)]
struct Trace {
    cap: usize,
    next_seq: u64,
    events: Vec<TraceEvent>,
}

impl Trace {
    fn push(&mut self, name: &str, micros: u64) {
        if self.cap == 0 {
            return;
        }
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        if self.events.len() >= self.cap {
            self.events.remove(0);
        }
        self.events.push(TraceEvent { seq, name: name.to_string(), micros });
    }
}

/// Point-in-time copy of every metric in one (or a merge of several)
/// registries. Per-metric reads only — not a consistent cut across
/// metrics; see the crate docs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → value.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram name → plain-data copy.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Merge another snapshot into a combined view: counters and gauges
    /// are summed, histograms bucket-merged. A histogram appearing in
    /// both with *different* bounds keeps `self`'s copy (the instance
    /// side wins over ambient) — in practice every histogram in this
    /// workspace uses [`crate::DEFAULT_BOUNDS`].
    pub fn merged(&self, other: &Snapshot) -> Snapshot {
        let mut out = self.clone();
        for (name, v) in &other.counters {
            let cell = out.counters.entry(name.clone()).or_insert(0);
            *cell = cell.saturating_add(*v);
        }
        for (name, v) in &other.gauges {
            let cell = out.gauges.entry(name.clone()).or_insert(0);
            *cell = cell.saturating_add(*v);
        }
        for (name, h) in &other.histograms {
            match out.histograms.get(name) {
                None => {
                    out.histograms.insert(name.clone(), h.clone());
                }
                Some(mine) => {
                    if let Some(m) = mine.merge(h) {
                        out.histograms.insert(name.clone(), m);
                    }
                }
            }
        }
        out
    }
}

#[derive(Default)]
struct Maps {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// An interning name→metric map. `counter("x")` returns a handle to the
/// same cell every time; handles stay valid (and keep counting) after
/// the lookup lock is released, so the hot path never touches the map.
#[derive(Default)]
pub struct Registry {
    maps: RwLock<Maps>,
    trace: Mutex<Trace>,
}

/// Keep metric names to a fixed safe alphabet so exposition, compact
/// INFO lines and JSON all emit them verbatim: anything outside
/// `[A-Za-z0-9._:-]` becomes `_`. Also guarantees (with the plain-u64
/// values) that no secret material can ride a metric into a scrape.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| match c {
            'A'..='Z' | 'a'..='z' | '0'..='9' | '.' | '_' | ':' | '-' => c,
            _ => '_',
        })
        .collect()
}

impl Registry {
    /// An empty registry (services hold their own in an `Arc`).
    pub fn new() -> Self {
        Registry::default()
    }

    /// Intern (or find) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let name = sanitize(name);
        if let Some(c) = self.maps.read().counters.get(&name) {
            return c.clone();
        }
        self.maps.write().counters.entry(name).or_default().clone()
    }

    /// Intern (or find) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let name = sanitize(name);
        if let Some(g) = self.maps.read().gauges.get(&name) {
            return g.clone();
        }
        self.maps.write().gauges.entry(name).or_default().clone()
    }

    /// Intern (or find) the histogram `name` over the default bounds.
    pub fn histogram(&self, name: &str) -> Histogram {
        let name = sanitize(name);
        if let Some(h) = self.maps.read().histograms.get(&name) {
            return h.clone();
        }
        self.maps.write().histograms.entry(name).or_default().clone()
    }

    /// Start a span recording into this registry's histogram `name`
    /// when dropped (and into the trace ring if enabled).
    pub fn span(self: &Arc<Self>, name: &str) -> Span {
        Span {
            name: sanitize(name),
            registry: Arc::clone(self),
            start: Instant::now(),
        }
    }

    /// Point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let maps = self.maps.read();
        Snapshot {
            counters: maps.counters.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            gauges: maps.gauges.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: maps
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Turn the trace ring on with the given capacity (0 disables and
    /// clears). Tests flip this on around the scenario under scrutiny.
    pub fn enable_trace(&self, cap: usize) {
        let mut t = self.trace.lock();
        t.cap = cap;
        t.events.clear();
    }

    /// Drain and return the buffered trace events.
    pub fn take_trace(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.trace.lock().events)
    }

    fn record_span(&self, name: &str, micros: u64) {
        self.histogram(name).record(micros);
        self.trace.lock().push(name, micros);
    }
}

/// The process-wide registry that ambient [`Span`]s record into.
/// Library code deep in crypto/gsi/core has no service instance to hang
/// a registry off, so its latency lands here; scrape surfaces merge
/// this with the per-service instance registry.
pub fn global() -> &'static Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(Registry::new()))
}

/// Scope timer: measures from construction to drop and records the
/// elapsed microseconds into the owning registry's histogram of the
/// same name. `Span::enter` targets the [`global`] registry;
/// [`Registry::span`] targets a specific one.
pub struct Span {
    name: String,
    registry: Arc<Registry>,
    start: Instant,
}

impl Span {
    /// Time a scope into the [`global`] registry's histogram `name`.
    pub fn enter(name: &str) -> Span {
        global().span(name)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.registry.record_span(&self.name, micros_since(self.start));
    }
}
