//! [`RelaxedU64`]: the one place in the metrics/stats regime where a
//! memory ordering is named.
//!
//! The crate docs give the contract — a statistic is a single atomic
//! cell that publishes no other memory — under which
//! `Ordering::Relaxed` is sufficient and anything stronger would only
//! suggest a guarantee nobody gets. This newtype makes the contract a
//! type: its methods take no ordering, so a stronger or mixed regime
//! on one of these cells cannot be written.

use std::sync::atomic::{AtomicU64, Ordering};

/// A `u64` statistic cell whose every access is `Relaxed`.
///
/// ```
/// let c = mp_obs::RelaxedU64::new(1);
/// assert_eq!(c.fetch_add(2), 1);
/// c.fetch_max(10);
/// assert_eq!(c.load(), 10);
/// ```
///
/// No ordering can be passed in:
///
/// ```compile_fail
/// use std::sync::atomic::Ordering;
/// let c = mp_obs::RelaxedU64::new(0);
/// c.load(Ordering::SeqCst);
/// ```
#[derive(Debug, Default)]
pub struct RelaxedU64(AtomicU64);

impl RelaxedU64 {
    pub const fn new(v: u64) -> Self {
        RelaxedU64(AtomicU64::new(v))
    }

    pub fn load(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    pub fn store(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `n` (wrapping), returning the previous value.
    pub fn fetch_add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::Relaxed)
    }

    /// Raise the cell to at least `v`, returning the previous value.
    pub fn fetch_max(&self, v: u64) -> u64 {
        self.0.fetch_max(v, Ordering::Relaxed)
    }

    /// Subtract one, stopping at zero instead of wrapping to 2^64-1.
    pub fn saturating_dec(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(1)));
    }
}
