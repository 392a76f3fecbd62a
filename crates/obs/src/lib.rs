//! # mp-obs — unified metrics and tracing for the MyProxy stack
//!
//! The paper's evaluation is operational: §5's security analysis and
//! the deployment narrative both hinge on knowing what the repository
//! is actually doing under load. Before this crate, every service kept
//! its own scattering of `AtomicU64`s with no latency data and no
//! single scrape point. `mp-obs` replaces them with one substrate:
//!
//! * **[`Counter`] / [`Gauge`]** — named monotonic counters and
//!   up/down gauges, cloneable handles around a shared atomic cell;
//! * **[`Histogram`]** — fixed-bucket latency histograms with
//!   lock-free `AtomicU64` buckets and p50/p90/p99 extraction from
//!   snapshots;
//! * **[`Span`]** — scope timing: `Span::enter("gsi.handshake.server")`
//!   records the elapsed microseconds into the matching histogram of
//!   the [`global`] registry when it drops, and appends to an optional
//!   ring-buffer trace log for tests;
//! * **[`Registry`]** — an interning name→metric map. Each service owns
//!   one registry for its per-instance counters (so tests with several
//!   servers in one process stay isolated), while ambient latency spans
//!   record into the process-wide [`global`] registry. A scrape surface
//!   merges the two with [`Snapshot::merged`].
//! * **exposition** — [`render`] emits a deterministic text format,
//!   [`parse`] round-trips it, and [`render_compact`] produces
//!   one-line `name value` samples for the GSI INFO response.
//!
//! ## Atomic ordering: `Relaxed`, everywhere, on purpose
//!
//! Before mp-obs the workspace was inconsistent: `ServerStats::bump`
//! wrote with `Relaxed` while `NetStats` readers paired `Acquire` loads
//! with `AcqRel` bumps — an ordering strength that bought nothing. The
//! unified rule, which every metric in this crate follows:
//!
//! * every metric is a **single** `AtomicU64`; read-modify-write
//!   operations on one atomic are totally ordered regardless of the
//!   ordering parameter, so increments are never lost;
//! * metrics **never synchronize other memory** — nobody may conclude
//!   "the store write happened" from observing a counter value; the
//!   services' own locks establish those edges;
//! * a [`Snapshot`] is a per-metric point-in-time read, **not a
//!   consistent cut** across metrics (a scrape racing a handler may see
//!   `completed` bumped but `active` not yet decremented).
//!
//! Under that contract `Ordering::Relaxed` is sufficient for every
//! operation, and using anything stronger would only suggest a
//! guarantee this crate does not make. [`RelaxedU64`] carries the
//! contract as a type — its methods take no ordering — and every
//! statistic cell in the workspace is one (the metrics here, the
//! replication lag/heartbeat cells in `mp-myproxy`, the job id
//! allocator in `mp-gram`). See `docs/OBSERVABILITY.md` for the metric
//! catalog and naming convention.
//!
//! ## Secret hygiene
//!
//! Metric names are sanitized to `[A-Za-z0-9._:-]` at interning time
//! and values are plain `u64`s, so the registry cannot carry secret
//! material into a scrape. This crate is in the mp-lint R1
//! (panic-freedom) and R5 (secret-taint) gate scope.

mod expose;
mod metrics;
mod registry;
mod relaxed;

pub use expose::{parse, render, render_compact, ParseError};
pub use metrics::{
    Counter, Gauge, HistTimer, Histogram, HistogramSnapshot, DEFAULT_BOUNDS,
};
pub use registry::{global, Registry, Snapshot, Span, TraceEvent};
pub use relaxed::RelaxedU64;
