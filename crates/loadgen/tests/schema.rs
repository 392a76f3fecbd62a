//! `BENCH_load.json` has an executable schema: a *real* (tiny)
//! capacity sweep is run in-process, its emitted JSON is parsed back
//! and validated against the checked-in `docs/bench-load.schema.json`,
//! and the schema is proved non-vacuous by feeding it deliberately
//! broken documents.
//! A second identical sweep must reproduce the identical plan digest —
//! the end-to-end determinism claim CI relies on.

use mp_loadgen::{capacity_sweep, json, schema, LoadReport, SweepConfig};

fn checked_in_schema() -> json::Value {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/bench-load.schema.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("schema {} unreadable: {e}", path.display()));
    json::parse(&text).expect("schema parses as JSON")
}

fn tiny_sweep() -> SweepConfig {
    let mut cfg = SweepConfig::default();
    cfg.seed = 7;
    cfg.users = 4;
    cfg.rates = vec![25.0];
    cfg.duration_s = 0.4;
    cfg.fixture.workers = 2;
    cfg.fixture.max_connections = 16;
    cfg
}

fn run_tiny() -> LoadReport {
    capacity_sweep(&tiny_sweep())
}

#[test]
fn real_sweep_report_validates_against_checked_in_schema() {
    let report = run_tiny();
    assert!(report.soak.wal_replay_matches, "soak must hold: {:?}", report.soak.divergence);
    let doc = json::parse(&report.to_json()).expect("emitted report parses as JSON");
    let errors = schema::validate(&doc, &checked_in_schema());
    assert!(errors.is_empty(), "schema violations: {errors:#?}");
}

#[test]
fn identical_sweeps_reproduce_the_identical_plan_digest() {
    let a = run_tiny();
    let b = run_tiny();
    assert_eq!(a.plan_digest, b.plan_digest, "sweep digest must be seed-deterministic");
    for (ra, rb) in a.rates.iter().zip(b.rates.iter()) {
        assert_eq!(ra.plan_digest, rb.plan_digest, "rate {} digest drifted", ra.rate_per_sec);
        assert_eq!(ra.offered_ops, rb.offered_ops);
    }
}

#[test]
fn schema_actually_rejects_malformed_reports() {
    // Guard against a vacuous schema. Start from a real emitted report
    // and break it three ways with surgical string edits: an unknown
    // top-level property, an op kind outside the enum, and a dropped
    // required soak field. All three must be reported.
    let good = run_tiny().to_json();
    let sch = checked_in_schema();

    let extra_prop = good.replacen(
        "\"schema\":\"bench-load-v1\"",
        "\"schema\":\"bench-load-v1\",\"bogus\":1",
        1,
    );
    let doc = json::parse(&extra_prop).expect("mutated doc parses");
    let errors = schema::validate(&doc, &sch);
    assert!(
        errors.iter().any(|e| e.contains("bogus")),
        "unexpected property not caught: {errors:#?}"
    );

    let bad_kind = good.replacen("\"kind\":\"put\"", "\"kind\":\"oops\"", 1);
    let doc = json::parse(&bad_kind).expect("mutated doc parses");
    let errors = schema::validate(&doc, &sch);
    assert!(errors.iter().any(|e| e.contains("enum")), "bad op kind not caught: {errors:#?}");

    let dropped = good.replacen("\"wal_replay_matches\":", "\"wal_replay_renamed\":", 1);
    let doc = json::parse(&dropped).expect("mutated doc parses");
    let errors = schema::validate(&doc, &sch);
    assert!(
        errors.iter().any(|e| e.contains("wal_replay_matches")),
        "missing required soak field not caught: {errors:#?}"
    );
}
