//! `mp-loadgen`: the seeded traffic vocabulary `benchmark/` plans with.
//!
//! * [`zipf`] — inverse-CDF zipfian user sampler (heavy users dominate,
//!   long tail of occasional ones); owns no randomness, so a seeded
//!   generator replays the identical draw sequence.
//! * [`plan`] — operation kinds, the traffic-mix weights, and the
//!   deterministic per-user account names and pass phrases.
//!
//! The plan itself, its digest and the process-level driver live in
//! `benchmark/` (see its README); nothing here talks to a server.

pub mod plan;
pub mod zipf;

pub use plan::{Mix, OpKind};
pub use zipf::Zipf;
