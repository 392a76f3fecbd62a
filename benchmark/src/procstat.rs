//! Process accounting read from `/proc`, for the server child and for
//! the generator itself. Everything here is observed from outside the
//! program under test.

use std::fs;

/// One reading of a process's cumulative accounting.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSample {
    /// User-mode CPU, milliseconds (all threads, `utime`).
    pub user_ms: f64,
    /// Kernel-mode CPU, milliseconds (all threads, `stime`).
    pub sys_ms: f64,
    /// Voluntary context switches summed over live threads.
    pub vol_ctx: u64,
    /// On-CPU nanoseconds summed over live threads (`schedstat`): finer
    /// than the 10 ms unit of `utime`/`stime`, but a thread that exits
    /// takes its share out of the sum, so it is used only for the idle
    /// window, where the thread set is fixed and the total is a few
    /// ticks.
    pub run_ns: u64,
}

impl ProcSample {
    pub fn cpu_ms(&self) -> f64 {
        self.user_ms + self.sys_ms
    }
}

/// `pid` may be `"self"`.
pub fn sample(pid: &str) -> Result<ProcSample, String> {
    let stat =
        fs::read_to_string(format!("/proc/{pid}/stat")).map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after `)`.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("/proc/{pid}/stat: field {i} missing"))
    };
    // Linux fixes USER_HZ at 100 for every architecture's /proc output.
    let ms_per_tick = 10.0;
    let mut out = ProcSample {
        user_ms: tick(11)? * ms_per_tick,
        sys_ms: tick(12)? * ms_per_tick,
        ..ProcSample::default()
    };
    if let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) {
        for task in tasks.flatten() {
            let base = task.path();
            if let Ok(status) = fs::read_to_string(base.join("status")) {
                out.vol_ctx += status_field(&status, "voluntary_ctxt_switches").unwrap_or(0);
            }
            if let Ok(s) = fs::read_to_string(base.join("schedstat")) {
                out.run_ns += s.split_whitespace().next().and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
            }
        }
    }
    Ok(out)
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let status =
        fs::read_to_string(format!("/proc/{pid}/status")).map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    status_field(&status, "VmHWM")
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| format!("/proc/{pid}/status: no VmHWM"))
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}
