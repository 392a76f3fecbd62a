//! The `mp-lint` CLI: the same workspace gate that runs under
//! `cargo test -p mp-lint`, plus machine-readable output and the
//! waiver-budget check CI uses.
//!
//! ```text
//! mp-lint                        gate: exit 1 on any finding
//! mp-lint --json report.json     also write the SARIF-lite report
//! mp-lint --bench-json BENCH_lint.json
//!                                also record gate wall-clock + counts
//! mp-lint --check-waiver-budget  compare lint:allow count to budget
//! mp-lint --root <dir>           lint a different tree (default:
//!                                this workspace)
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = mp_lint::workspace_root();
    let mut json_out: Option<PathBuf> = None;
    let mut bench_out: Option<PathBuf> = None;
    let mut check_budget = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => {
                let Some(p) = args.next() else {
                    eprintln!("mp-lint: --json requires a path");
                    return ExitCode::from(2);
                };
                json_out = Some(PathBuf::from(p));
            }
            "--root" => {
                let Some(p) = args.next() else {
                    eprintln!("mp-lint: --root requires a path");
                    return ExitCode::from(2);
                };
                root = PathBuf::from(p);
            }
            "--bench-json" => {
                let Some(p) = args.next() else {
                    eprintln!("mp-lint: --bench-json requires a path");
                    return ExitCode::from(2);
                };
                bench_out = Some(PathBuf::from(p));
            }
            "--check-waiver-budget" => check_budget = true,
            "--help" | "-h" => {
                println!(
                    "mp-lint: workspace security-hygiene gate (rules R1-R15; R10 and R14 are retired)\n\
                     \n\
                     usage: mp-lint [--root DIR] [--json PATH] [--bench-json PATH] \
                     [--check-waiver-budget]\n\
                     \n\
                     --json PATH             write the SARIF-lite report to PATH\n\
                     --bench-json PATH       record gate wall-clock + finding counts to PATH\n\
                     --check-waiver-budget   fail if lint:allow count != lint-waivers.budget\n\
                     --root DIR              lint DIR instead of this workspace"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("mp-lint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    if check_budget {
        let (total, per_file) = mp_lint::waivers::count_waivers(&root);
        let Some(budget) = mp_lint::waivers::load_budget(&root) else {
            eprintln!(
                "mp-lint: missing or unreadable {} at {}",
                mp_lint::waivers::BUDGET_FILE,
                root.display()
            );
            return ExitCode::FAILURE;
        };
        println!("lint:allow annotations in scoped sources: {total} (budget: {budget})");
        for (file, n) in &per_file {
            println!("  {file}: {n}");
        }
        if total != budget {
            eprintln!(
                "mp-lint: waiver count {total} does not match committed budget {budget}; \
                 update {} in the same change that adds or removes a lint:allow",
                mp_lint::waivers::BUDGET_FILE
            );
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    let started = std::time::Instant::now();
    let result = mp_lint::gate_workspace(&root);
    let gate_wall_ms = started.elapsed().as_secs_f64() * 1000.0;

    if let Some(path) = &bench_out {
        use mp_lint::json::Value;
        let doc = Value::obj(vec![
            ("tool", Value::Str(mp_lint::sarif::TOOL_NAME.into())),
            ("version", Value::Str(mp_lint::sarif::TOOL_VERSION.into())),
            ("lint.gate_wall_ms", Value::Num(gate_wall_ms)),
            ("lint.findings", Value::Num(result.findings.len() as f64)),
        ]);
        if let Err(e) = std::fs::write(path, doc.pretty()) {
            eprintln!("mp-lint: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote lint bench record: {} ({gate_wall_ms:.0} ms)", path.display());
    }

    if let Some(path) = &json_out {
        let text = result.sarif.pretty();
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("mp-lint: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote SARIF-lite report: {}", path.display());
    }

    for d in &result.findings {
        println!("{d}");
        for s in &d.path {
            println!("    taint: line {}: {}", s.line, s.note);
        }
    }

    if result.passed() {
        println!("mp-lint: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("mp-lint: {} finding(s)", result.findings.len());
        ExitCode::FAILURE
    }
}
