//! Capacity sweep, `BENCH_load.json` emission, and the regression gate.
//!
//! A sweep runs the same seeded plan shape at several arrival rates —
//! each against a *fresh* fixture so shed counters and store contents
//! never bleed between rates — and reports, per rate, the latency
//! distribution, shed/busy/error taxonomy and retry spend, plus the
//! headline figure: the highest tested rate that still meets the
//! latency SLO with (almost) no lost traffic. Every rate run ends with
//! the soak oracle: the WAL's synced image must replay to exactly the
//! live store.
//!
//! The JSON shape is pinned by `docs/bench-load.schema.json` (validated
//! in `tests/schema.rs` by [`crate::schema`]), and
//! [`gate_against_baseline`] compares a
//! fresh run against the committed baseline with a tolerance band — CI
//! fails on throughput-at-SLO regressions, shed-behavior regressions,
//! and on any change to the seeded op sequence (digest mismatch at
//! equal config = lost determinism).

use crate::harness::{run, Fixture, FixtureConfig, RunConfig, RunOutcome};
use crate::plan::{Mix, Plan, PlanConfig};
use crate::json::{self, Value};

/// A latency service-level objective: "the `quantile`-th percentile
/// stays at or below `bound_us`".
#[derive(Clone, Copy, Debug)]
pub struct Slo {
    /// Quantile in (0, 1], e.g. 0.99.
    pub quantile: f64,
    /// Latency bound in microseconds.
    pub bound_us: u64,
}

impl Default for Slo {
    fn default() -> Self {
        // The ISSUE's example objective: p99 ≤ 50 ms.
        Slo { quantile: 0.99, bound_us: 50_000 }
    }
}

/// Everything a sweep needs.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Master seed (the whole run's entropy).
    pub seed: u64,
    /// User population.
    pub users: u32,
    /// Zipf exponent over the population.
    pub zipf_exponent: f64,
    /// Traffic mix.
    pub mix: Mix,
    /// Arrival rates to test, ops/sec, ascending.
    pub rates: Vec<f64>,
    /// Dispatch window per rate, seconds (ops ≈ rate × duration).
    pub duration_s: f64,
    /// Server shape (fixture `users` is overridden by `users` above).
    pub fixture: FixtureConfig,
    /// Client knobs.
    pub run: RunConfig,
    /// The latency objective.
    pub slo: Slo,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            seed: 1,
            users: 16,
            zipf_exponent: 1.0,
            mix: Mix::default(),
            rates: vec![15.0, 40.0],
            duration_s: 2.0,
            fixture: FixtureConfig::default(),
            run: RunConfig::default(),
            slo: Slo::default(),
        }
    }
}

/// One rate's results.
#[derive(Clone, Debug)]
pub struct RateReport {
    /// Nominal arrival rate.
    pub rate_per_sec: f64,
    /// Digest of this rate's op sequence.
    pub plan_digest: String,
    /// Scheduled operations.
    pub offered_ops: u64,
    /// Measured outcome.
    pub outcome: RunOutcome,
    /// Did this rate meet the SLO with negligible lost traffic?
    pub slo_met: bool,
}

/// The soak verdict, aggregated over every rate run.
#[derive(Clone, Debug)]
pub struct SoakReport {
    /// Total operations dispatched across the sweep.
    pub ops: u64,
    /// Store entries live at the end of the last rate run.
    pub entries: u64,
    /// WAL-replay equivalence held after every rate run.
    pub wal_replay_matches: bool,
    /// First divergence, if any.
    pub divergence: Option<String>,
}

/// The full sweep result — what `BENCH_load.json` serializes.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Seed the sweep ran under.
    pub seed: u64,
    /// Population size.
    pub users: u32,
    /// Zipf exponent.
    pub zipf_exponent: f64,
    /// The objective.
    pub slo: Slo,
    /// Digest over all rates' digests: one fingerprint for the whole
    /// sweep's op sequences.
    pub plan_digest: String,
    /// Per-rate results, in tested order.
    pub rates: Vec<RateReport>,
    /// Highest tested rate meeting the SLO (0 when none did).
    pub max_rate_at_slo: f64,
    /// Soak verdict.
    pub soak: SoakReport,
}

/// Allowed lost-traffic fraction for a rate to still count as
/// "sustained": 1 shed/error per 100 offered ops.
const SUSTAINED_LOSS_FRAC: f64 = 0.01;

fn rate_meets(outcome: &RunOutcome, slo: &Slo) -> bool {
    let lost = outcome.busy + outcome.errors;
    outcome.ok > 0
        && (lost as f64) <= (outcome.issued as f64 * SUSTAINED_LOSS_FRAC).max(0.0)
        && outcome.overall.meets_slo(slo.quantile, slo.bound_us)
}

/// Run the sweep. One fresh fixture per rate; quiesces and soak-checks
/// each before moving on.
pub fn capacity_sweep(cfg: &SweepConfig) -> LoadReport {
    let mut rates = Vec::new();
    let mut soak = SoakReport { ops: 0, entries: 0, wal_replay_matches: true, divergence: None };
    for &rate in &cfg.rates {
        let plan = Plan::generate(&PlanConfig {
            seed: cfg.seed,
            users: cfg.users as usize,
            zipf_exponent: cfg.zipf_exponent,
            rate_per_sec: rate,
            total_ops: ((rate * cfg.duration_s).ceil() as usize).max(4),
            mix: cfg.mix,
        });
        let mut fixture = Fixture::new(FixtureConfig { users: cfg.users, ..cfg.fixture.clone() });
        let outcome = run(&fixture, &plan, &cfg.run);
        fixture.quiesce();
        if let Some(diff) = fixture.soak_divergence() {
            if soak.wal_replay_matches {
                soak.divergence = Some(format!("rate {rate}: {diff}"));
            }
            soak.wal_replay_matches = false;
        }
        soak.ops += outcome.issued;
        soak.entries = fixture.store_entries() as u64;
        rates.push(RateReport {
            rate_per_sec: rate,
            plan_digest: plan.digest(),
            offered_ops: plan.ops.len() as u64,
            slo_met: rate_meets(&outcome, &cfg.slo),
            outcome,
        });
    }
    let max_rate_at_slo = rates
        .iter()
        .filter(|r| r.slo_met)
        .map(|r| r.rate_per_sec)
        .fold(0.0f64, f64::max);
    let plan_digest = combine_digests(rates.iter().map(|r| r.plan_digest.as_str()));
    LoadReport {
        seed: cfg.seed,
        users: cfg.users,
        zipf_exponent: cfg.zipf_exponent,
        slo: cfg.slo,
        plan_digest,
        rates,
        max_rate_at_slo,
        soak,
    }
}

fn combine_digests<'a>(parts: impl Iterator<Item = &'a str>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for b in part.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= u64::from(b'|');
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

impl LoadReport {
    /// Serialize to the `bench-load-v1` JSON shape.
    pub fn to_json(&self) -> String {
        let rates: Vec<String> = self.rates.iter().map(rate_json).collect();
        let soak_div = match &self.soak.divergence {
            Some(d) => format!(",\"divergence\":\"{}\"", escape(d)),
            None => String::new(),
        };
        format!(
            concat!(
                "{{\"schema\":\"bench-load-v1\",",
                "\"seed\":{},\"users\":{},\"zipf_exponent\":{:.3},",
                "\"plan_digest\":\"{}\",",
                "\"slo\":{{\"quantile\":{:.4},\"bound_us\":{}}},",
                "\"max_rate_at_slo\":{:.1},",
                "\"rates\":[{}],",
                "\"soak\":{{\"ops\":{},\"entries\":{},\"wal_replay_matches\":{}{}}}}}\n"
            ),
            self.seed,
            self.users,
            self.zipf_exponent,
            self.plan_digest,
            self.slo.quantile,
            self.slo.bound_us,
            self.max_rate_at_slo,
            rates.join(","),
            self.soak.ops,
            self.soak.entries,
            self.soak.wal_replay_matches,
            soak_div,
        )
    }
}

fn rate_json(r: &RateReport) -> String {
    let o = &r.outcome;
    let ops: Vec<String> = o
        .per_kind
        .iter()
        .map(|k| {
            format!(
                concat!(
                    "{{\"kind\":\"{}\",\"issued\":{},\"ok\":{},\"busy\":{},",
                    "\"errors\":{},\"retries\":{},\"p50_us\":{},\"p99_us\":{}}}"
                ),
                k.kind.name(),
                k.issued,
                k.ok,
                k.busy,
                k.errors,
                k.retries,
                k.latency.p50(),
                k.latency.p99(),
            )
        })
        .collect();
    format!(
        concat!(
            "{{\"rate_per_sec\":{:.1},\"plan_digest\":\"{}\",\"offered_ops\":{},",
            "\"issued\":{},\"ok\":{},\"busy\":{},\"errors\":{},\"retries\":{},\"late\":{},",
            "\"elapsed_s\":{:.3},\"achieved_rps\":{:.1},",
            "\"shed\":{},\"accepted\":{},\"shed_rate\":{:.4},\"queue_depth_end\":{},",
            "\"p50_us\":{},\"p99_us\":{},\"slo_met\":{},",
            "\"ops\":[{}]}}"
        ),
        r.rate_per_sec,
        r.plan_digest,
        r.offered_ops,
        o.issued,
        o.ok,
        o.busy,
        o.errors,
        o.retries,
        o.late,
        o.elapsed_s,
        o.achieved_rps,
        o.shed,
        o.accepted,
        o.shed_rate(),
        o.queue_depth_end,
        o.overall.p50(),
        o.overall.p99(),
        r.slo_met,
        ops.join(","),
    )
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            c if (c as u32) < 0x20 => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// Tolerances for the CI regression gate. Wall-clock throughput on
/// shared CI runners is noisy, so the band is deliberately wide: the
/// gate catches collapses (a serialization bug halving capacity), not
/// single-digit-percent drift.
#[derive(Clone, Copy, Debug)]
pub struct GateConfig {
    /// `max_rate_at_slo` may not fall below this fraction of baseline.
    pub min_rate_frac: f64,
    /// The lowest tested rate's shed rate may not exceed baseline's by
    /// more than this (absolute).
    pub shed_rate_slack: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig { min_rate_frac: 0.5, shed_rate_slack: 0.10 }
    }
}

fn num(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_num)
}

/// Compare a fresh report against the committed baseline JSON. Returns
/// the list of gate failures (empty = pass); `Err` means the baseline
/// itself could not be understood.
pub fn gate_against_baseline(
    current: &LoadReport,
    baseline_json: &str,
    gate: &GateConfig,
) -> Result<Vec<String>, String> {
    let base = json::parse(baseline_json).map_err(|e| format!("baseline unparsable: {e:?}"))?;
    if base.get("schema").and_then(Value::as_str) != Some("bench-load-v1") {
        return Err("baseline is not a bench-load-v1 document".to_string());
    }
    let mut failures = Vec::new();

    if !current.soak.wal_replay_matches {
        failures.push(format!(
            "soak: WAL replay diverged from live store ({})",
            current.soak.divergence.as_deref().unwrap_or("no detail")
        ));
    }

    // Determinism gate: identical config must replay the identical op
    // sequence. Only comparable when the baseline ran the same config.
    let same_config = num(&base, "seed") == Some(current.seed as f64)
        && num(&base, "users") == Some(f64::from(current.users))
        && num(&base, "zipf_exponent")
            .map(|z| (z - current.zipf_exponent).abs() < 1e-9)
            .unwrap_or(false)
        && base
            .get("rates")
            .and_then(Value::as_arr)
            .map(|arr| {
                arr.len() == current.rates.len()
                    && arr.iter().zip(current.rates.iter()).all(|(b, c)| {
                        num(b, "rate_per_sec")
                            .map(|r| (r - c.rate_per_sec).abs() < 1e-6)
                            .unwrap_or(false)
                    })
            })
            .unwrap_or(false);
    if same_config {
        let base_digest = base.get("plan_digest").and_then(Value::as_str).unwrap_or("");
        if base_digest != current.plan_digest {
            failures.push(format!(
                "determinism: plan digest {} != baseline {} at identical config — \
                 the seeded op sequence is no longer reproducible",
                current.plan_digest, base_digest
            ));
        }
    }

    if let Some(base_rate) = num(&base, "max_rate_at_slo") {
        let floor = base_rate * gate.min_rate_frac;
        if base_rate > 0.0 && current.max_rate_at_slo < floor {
            failures.push(format!(
                "throughput: max_rate_at_slo {:.1}/s fell below {:.1}/s ({}% of baseline {:.1}/s)",
                current.max_rate_at_slo,
                floor,
                (gate.min_rate_frac * 100.0) as u32,
                base_rate
            ));
        }
    }

    let base_low_shed = base
        .get("rates")
        .and_then(Value::as_arr)
        .and_then(|arr| arr.first())
        .and_then(|r| num(r, "shed_rate"));
    if let (Some(base_shed), Some(cur)) = (base_low_shed, current.rates.first()) {
        let cur_shed = cur.outcome.shed_rate();
        if cur_shed > base_shed + gate.shed_rate_slack {
            failures.push(format!(
                "shed behavior: lowest-rate shed rate {:.3} exceeds baseline {:.3} + {:.2} slack",
                cur_shed, base_shed, gate.shed_rate_slack
            ));
        }
    }

    Ok(failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::KindStats;
    use crate::plan::OpKind;
    use mp_obs::HistogramSnapshot;

    fn fake_report() -> LoadReport {
        let hist = HistogramSnapshot::empty(&mp_obs::DEFAULT_BOUNDS);
        let outcome = RunOutcome {
            elapsed_s: 1.0,
            issued: 10,
            ok: 10,
            busy: 0,
            errors: 0,
            retries: 0,
            late: 0,
            achieved_rps: 10.0,
            overall: hist.clone(),
            per_kind: OpKind::ALL
                .iter()
                .map(|&kind| KindStats {
                    kind,
                    issued: 0,
                    ok: 0,
                    busy: 0,
                    errors: 0,
                    retries: 0,
                    latency: hist.clone(),
                })
                .collect(),
            shed: 0,
            accepted: 10,
            queue_depth_end: 0,
        };
        LoadReport {
            seed: 1,
            users: 4,
            zipf_exponent: 1.0,
            slo: Slo::default(),
            plan_digest: "aaaa".into(),
            rates: vec![RateReport {
                rate_per_sec: 20.0,
                plan_digest: "aaaa".into(),
                offered_ops: 10,
                outcome,
                slo_met: true,
            }],
            max_rate_at_slo: 20.0,
            soak: SoakReport { ops: 10, entries: 4, wal_replay_matches: true, divergence: None },
        }
    }

    #[test]
    fn report_json_parses_back() {
        let r = fake_report();
        let v = json::parse(&r.to_json()).expect("self-emitted JSON must parse");
        assert_eq!(v.get("schema").and_then(Value::as_str), Some("bench-load-v1"));
        assert_eq!(num(&v, "max_rate_at_slo"), Some(20.0));
    }

    #[test]
    fn gate_passes_against_own_output() {
        let r = fake_report();
        let failures =
            gate_against_baseline(&r, &r.to_json(), &GateConfig::default()).expect("parse");
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn gate_catches_throughput_collapse_and_digest_drift() {
        let mut r = fake_report();
        let baseline = r.to_json();
        r.max_rate_at_slo = 1.0;
        r.plan_digest = "bbbb".into();
        let failures =
            gate_against_baseline(&r, &baseline, &GateConfig::default()).expect("parse");
        assert!(failures.iter().any(|f| f.contains("throughput")), "{failures:?}");
        assert!(failures.iter().any(|f| f.contains("determinism")), "{failures:?}");
    }

    #[test]
    fn gate_rejects_wrong_schema() {
        let r = fake_report();
        assert!(gate_against_baseline(&r, "{\"schema\":\"other\"}", &GateConfig::default())
            .is_err());
    }
}
