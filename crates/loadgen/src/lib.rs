//! `mp-loadgen`: a deterministic, seeded, *open-loop* load harness for
//! the MyProxy repository.
//!
//! The paper's premise is a credential repository hammered by many
//! portals at once (§3.3); the question a bench must answer is not
//! "how fast is one operation" but "how many requests per second can
//! the repository sustain before its latency objective breaks". That
//! number only means something if the generator is **open-loop**:
//! arrivals are scheduled up front at a fixed rate and dispatched on
//! the wall clock regardless of response latency, so when the server
//! saturates the backlog becomes visible as queue depth, BUSY sheds
//! and retries — a closed-loop client would instead politely slow its
//! own offered load and hide the knee entirely.
//!
//! The moving parts:
//!
//! * [`zipf`] — inverse-CDF zipfian user sampler (heavy users dominate,
//!   long tail of occasional ones).
//! * [`plan`] — the whole run's randomness materialized from one seed:
//!   arrival times, users, op kinds. Byte-reproducible; digested for
//!   the CI determinism gate.
//! * [`harness`] — a live in-process grid (repository behind the
//!   bounded worker pool, durable store on a crash VFS, portal routed
//!   through the same pool) plus the injector-thread runner with a
//!   global retry budget.
//! * [`report`] — the rate sweep, `BENCH_load.json` emission, and the
//!   baseline regression gate, over the crate's own minimal [`json`]
//!   layer and executable-[`schema`] validator.
//!
//! This is test infrastructure first, bench second: every run finishes
//! with the WAL-replay soak oracle — the journal's synced image must
//! reproduce the live store exactly, or the run fails.

pub mod harness;
pub mod json;
pub mod plan;
pub mod report;
pub mod schema;
pub mod zipf;

pub use harness::{run, Fixture, FixtureConfig, KindStats, RunConfig, RunOutcome};
pub use plan::{Mix, OpKind, Plan, PlanConfig, PlannedOp};
pub use report::{
    capacity_sweep, gate_against_baseline, GateConfig, LoadReport, RateReport, Slo, SoakReport,
    SweepConfig,
};
pub use zipf::Zipf;
