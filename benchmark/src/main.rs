//! The repository's one benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! mp-benchmark [--workload NAME] [--trace 0|1] [--seed N] [--seconds N]
//!              [--server-bin PATH] [--check-repeat] [--emit-spec]
//! ```
//!
//! With `--workload` and `--trace` it makes one run and ends its output
//! with one JSON line (the form the driver in `BENCHMARK.json` uses).
//! Without them it runs every workload, untraced and then traced, and
//! so prints every metric by name. It exits non-zero if any run failed
//! an output check.

mod layers;
mod ops;
mod plan;
mod procstat;
mod report;
mod run;
mod spec;
mod trace;
mod world;

use run::{RunCfg, RunResult};
use spec::{Workload, END_TO_END, WORKLOADS};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
const RUN_SECONDS: u64 = 20;
const COUNTED: [&str; 3] =
    ["core.wal.fsyncs_per_put", "core.wal.bytes_per_put", "core.wal.user_bytes_per_put"];

fn main() {
    match real_main() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

fn default_server_bin() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("release/myproxy-server")
}

/// `--key value` pairs and the two switches.
struct Args {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args { values: BTreeMap::new(), switches: Vec::new() };
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--check-repeat" | "--emit-spec" => args.switches.push(arg),
                "--workload" | "--trace" | "--seed" | "--seconds" | "--server-bin" => {
                    let value = it.next().ok_or_else(|| format!("{arg} requires a value"))?;
                    args.values.insert(arg, value);
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(args)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    fn number(&self, key: &str, default: u64) -> Result<u64, String> {
        self.get(key).map_or(Ok(default), |v| v.parse().map_err(|_| format!("{key} must be a number")))
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }
}

fn real_main() -> Result<bool, String> {
    let args = Args::parse()?;
    if args.has("--emit-spec") {
        print!("{}", spec::benchmark_json(RUN_SECONDS));
        return Ok(true);
    }
    let seed = args.number("--seed", 1)?;
    let seconds = args.number("--seconds", RUN_SECONDS)?;
    let server_bin = args.get("--server-bin").map_or_else(default_server_bin, PathBuf::from);
    if !server_bin.is_file() {
        return Err(format!("{} not found: build it with benchmark/run.sh", server_bin.display()));
    }
    let workloads: Vec<&'static Workload> = match args.get("--workload") {
        Some(name) => vec![spec::workload(name).ok_or_else(|| format!("unknown workload {name}"))?],
        None => WORKLOADS.iter().collect(),
    };
    let traces: Vec<bool> = match args.get("--trace") {
        Some("0") => vec![false],
        Some("1") => vec![true],
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other}")),
        None => vec![false, true],
    };
    let cfg = |workload, seed, trace| RunCfg {
        workload,
        seed,
        seconds,
        trace,
        server_bin: server_bin.clone(),
        out_dir: PathBuf::from("benchmark/out"),
    };

    if args.has("--check-repeat") {
        return check_repeat(&workloads, seed, &cfg);
    }
    let mut all_correct = true;
    for trace in traces {
        for w in &workloads {
            let result = run::run(&cfg(w, seed, trace))?;
            print_run(w, seed, trace, &result);
            all_correct &= result.correct;
        }
    }
    Ok(all_correct)
}

fn print_run(w: &Workload, seed: u64, trace: bool, r: &RunResult) {
    println!(
        "== {} ({}) seed={seed} trace={} plan_digest={}",
        w.name,
        w.profile.name,
        u8::from(trace),
        r.plan_digest
    );
    for note in &r.notes {
        println!("   {note}");
    }
    for m in &r.metrics {
        println!("{:<40} {:>14.4} {:<6} n={}", m.name, m.value, m.unit, m.n);
    }
    for e in &r.errors {
        println!("FAILED: {e}");
    }
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    );
}

/// The whole set twice with `seed` and once with `seed + 1`. Fails if
/// an end-to-end metric of the two same-seed sets differs by more than
/// its bound, or a counted metric or plan digest differs at all.
fn check_repeat(
    workloads: &[&'static Workload],
    seed: u64,
    cfg: &dyn Fn(&'static Workload, u64, bool) -> RunCfg,
) -> Result<bool, String> {
    type Set = BTreeMap<(String, String), f64>;
    let mut sets: Vec<(Set, Vec<String>)> = Vec::new();
    let mut ok = true;
    for set_seed in [seed, seed, seed + 1] {
        let (mut values, mut digests) = (Set::new(), Vec::new());
        for w in workloads {
            for trace in [false, true] {
                let r = run::run(&cfg(w, set_seed, trace))?;
                print_run(w, set_seed, trace, &r);
                ok &= r.correct;
                for m in r.metrics {
                    values.insert((w.name.to_string(), m.name), m.value);
                }
                digests.push(r.plan_digest);
            }
        }
        sets.push((values, digests));
    }
    let [(a, da), (b, db), (c, _)] = &sets[..] else { unreachable!("three sets were run") };
    if da != db {
        println!("REPEAT FAILED: plan digests differ between the same-seed sets");
        ok = false;
    }
    println!("== repeatability: same seed twice (a, b), then seed+1 (c)");
    for (key, &va) in a {
        let (Some(&vb), Some(&vc)) = (b.get(key), c.get(key)) else {
            continue;
        };
        let rel = |x: f64, y: f64| {
            if x == y {
                0.0
            } else {
                (x - y).abs() / x.abs().max(y.abs())
            }
        };
        let mut sorted = [va, vb, vc];
        sorted.sort_by(f64::total_cmp);
        let spread = rel(sorted[0], sorted[2]);
        let mut verdict = "";
        if let Some(e) = END_TO_END.iter().find(|e| e.name == key.1) {
            // One set-up at 2048 bits is a handful of prime searches
            // on each side; only its median over runs is steady.
            if key.1 != "setup_s" && rel(va, vb) > e.bound {
                verdict = "  REPEAT FAILED: beyond bound";
                ok = false;
            }
        } else if COUNTED.contains(&key.1.as_str()) && va != vb {
            verdict = "  REPEAT FAILED: a counted metric must repeat exactly";
            ok = false;
        }
        println!(
            "{:<12} {:<40} a={va:<12.4} b={vb:<12.4} c={vc:<12.4} same-seed diff={:.3} spread={spread:.3}{verdict}",
            key.0,
            key.1,
            rel(va, vb)
        );
    }
    Ok(ok)
}
