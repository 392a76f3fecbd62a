//! One run of one workload: set-up, warm-up, the measured window, the
//! output checks, and the metrics. An untraced run yields the
//! end-to-end metrics; a traced run yields the per-layer ones.

use crate::layers;
use crate::ops::{self, span};
use crate::plan::{Op, Plan};
use crate::procstat::{self, ProcSample};
use crate::report::{median, median_f64, median_metric, quantile, Metric};
use crate::spec::{Workload, END_TO_END, PER_LAYER};
use crate::trace::{self, OpTrace, SpanRec};
use crate::world::{client_threads, now, World};
use mp_loadgen::{Mix, OpKind};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Untimed load before the window, so lazy set-up on both sides (pool
/// threads' first touch, page cache, allocator arenas) is done.
const WARMUP: Duration = Duration::from_secs(2);
/// Ops in the materialised plan; the window wraps around if it ever
/// gets through all of them.
const PLAN_OPS: usize = 1 << 16;
/// Repeat set-up, and report the median, until this much has been spent
/// on it or `SETUP_REPS_MAX` worlds were built.
const SETUP_BUDGET: Duration = Duration::from_secs(5);
const SETUP_REPS_MAX: usize = 3;
/// A traced run tops every op kind up to this many traced samples, so
/// each span has a value on each workload whatever its mix.
const TRACED_MIN_PER_KIND: usize = 8;
/// Phases of a run: each has its own client entropy streams, and the
/// trace numbers its ops from `phase << 32`.
const WINDOW: u64 = 0;
const WARMUP_PHASE: u64 = 1;
/// Top-up of op kind k is phase `TOPUP + k`.
const TOPUP: u64 = 2;
const REPLAY: u64 = TOPUP + OpKind::ALL.len() as u64;
/// The per-op budget closes when the child spans cover all but this
/// share of the op span.
const UNATTRIBUTED_MAX: f64 = 0.10;
/// A latency quantile needs this many samples to be reported ...
const MIN_SAMPLES: usize = 50;
/// ... and p99 this many.
const MIN_SAMPLES_P99: usize = 1000;

pub struct RunCfg {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub server_bin: PathBuf,
    pub out_dir: PathBuf,
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub plan_digest: String,
    /// Ungated detail for the reader: per-kind latencies and the like.
    pub notes: Vec<String>,
    /// The first few failures, verbatim.
    pub errors: Vec<String>,
}

#[derive(Clone, Copy)]
enum Tracing {
    Off,
    /// Even plan indices traced, odd ones plain: both forms see the
    /// same mix under the same conditions, so their medians compare.
    Alternate,
    All,
}

struct Sample {
    kind: OpKind,
    user: u32,
    ns: u64,
    traced: bool,
}

#[derive(Default)]
struct Load {
    samples: Vec<Sample>,
    spans: Vec<SpanRec>,
    attempted: u64,
    errors: Vec<String>,
    elapsed: Duration,
    server: (ProcSample, ProcSample),
    generator: (ProcSample, ProcSample),
}

impl Load {
    fn failed(&self) -> u64 {
        self.attempted - self.samples.len() as u64
    }

    fn absorb(&mut self, other: Load) {
        self.samples.extend(other.samples);
        self.spans.extend(other.spans);
        self.attempted += other.attempted;
        self.errors.extend(other.errors);
    }

    fn latencies(&self, kind: OpKind, traced: Option<bool>) -> Vec<u64> {
        self.samples
            .iter()
            .filter(|s| s.kind == kind && traced.is_none_or(|t| s.traced == t))
            .map(|s| s.ns)
            .collect()
    }
}

/// Closed loop: each of `threads` clients takes the next op of `ops`,
/// waits for it to finish, and takes another — until `deadline` (the
/// plan wraps around) or, without one, until `ops` is used up.
#[allow(clippy::too_many_arguments)]
fn drive(
    world: &World,
    ops: &[Op],
    phase: u64,
    threads: usize,
    deadline: Option<Instant>,
    tracing: Tracing,
    epoch: Instant,
) -> Result<Load, String> {
    let pid = world.server.pid.to_string();
    let next = AtomicUsize::new(0);
    let shared = Mutex::new(Load::default());
    let before = (procstat::sample(&pid)?, procstat::sample("self")?);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut mine = Load::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let done = match deadline {
                        Some(d) => Instant::now() >= d,
                        None => i >= ops.len(),
                    };
                    if done {
                        break;
                    }
                    let op = &ops[i % ops.len()];
                    let index = ((phase as usize) << 32) + i;
                    let traced = match tracing {
                        Tracing::Off => false,
                        Tracing::Alternate => i.is_multiple_of(2),
                        Tracing::All => true,
                    };
                    let mut tr = traced.then(|| OpTrace::new(epoch, index, op.kind.name()));
                    let op_started = Instant::now();
                    let outcome = ops::run(world, op, phase, tr.as_mut());
                    mine.attempted += 1;
                    match outcome {
                        Ok(latency) => {
                            let ns = latency.as_nanos() as u64;
                            mine.samples.push(Sample { kind: op.kind, user: op.user, ns, traced });
                            if let Some(tr) = tr {
                                mine.spans.extend(tr.finish(op_started, latency));
                            }
                        }
                        // A failed op has no latency sample and no spans.
                        Err(e) if mine.errors.len() < 5 => mine.errors.push(e),
                        Err(_) => {}
                    }
                }
                shared.lock().expect("load lock").absorb(mine);
            });
        }
    });
    let mut load = shared.into_inner().expect("load lock");
    load.elapsed = started.elapsed();
    load.server = (before.0, procstat::sample(&pid)?);
    load.generator = (before.1, procstat::sample("self")?);
    Ok(load)
}

fn only(kind: OpKind) -> Mix {
    let mut mix = Mix { put: 0, get: 0, info: 0, portal_login: 0 };
    match kind {
        OpKind::Put => mix.put = 1,
        OpKind::Get => mix.get = 1,
        OpKind::Info => mix.info = 1,
        OpKind::PortalLogin => mix.portal_login = 1,
    }
    mix
}

pub fn run(cfg: &RunCfg) -> Result<RunResult, String> {
    let w = cfg.workload;
    let with_portal = cfg.trace || w.mix.portal_login > 0;
    let build = || World::build(w.profile, &cfg.server_bin, &cfg.out_dir, with_portal);

    // Set-up, repeated (only where its time is reported) so that one
    // slow prime search does not decide `setup_s`.
    let mut setups: Vec<f64> = Vec::new();
    let mut world = loop {
        let started = Instant::now();
        let world = build()?;
        setups.push(started.elapsed().as_secs_f64());
        let spent: f64 = setups.iter().sum();
        if cfg.trace || setups.len() >= SETUP_REPS_MAX || spent >= SETUP_BUDGET.as_secs_f64() {
            break world;
        }
        world.finish(true);
    };

    let outcome = measure(cfg, &mut world, &setups);
    let success = matches!(&outcome, Ok(r) if r.correct);
    world.finish(success);
    outcome
}

fn measure(cfg: &RunCfg, world: &mut World, setups: &[f64]) -> Result<RunResult, String> {
    let w = cfg.workload;
    let threads = client_threads();
    let plan = Plan::generate(cfg.seed, w.profile.users, w.mix, PLAN_OPS);
    let epoch = Instant::now();

    let warm =
        drive(world, &plan.ops, WARMUP_PHASE, threads, Some(Instant::now() + WARMUP), Tracing::Off, epoch)?;
    let mut r = if cfg.trace {
        traced(cfg, world, &plan, threads, epoch)?
    } else {
        untraced(cfg, world, &plan, threads, epoch, setups)?
    };
    r.attempted += warm.attempted;
    r.failed += warm.failed();
    r.errors.splice(0..0, warm.errors);
    if w.name == "deposit" {
        if let Err(e) = replay_check(world, &r.acked_put_users) {
            r.errors.push(e);
            r.failed += 1;
        }
    }

    // Exactly the metrics `BENCHMARK.json` names, in its order.
    let names: Vec<&str> = if cfg.trace {
        PER_LAYER.iter().map(|(name, ..)| *name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    if r.metrics.len() != names.len() {
        return Err(format!("{} metrics measured, {} specified", r.metrics.len(), names.len()));
    }
    let metrics = names
        .iter()
        .map(|name| {
            r.metrics.iter().find(|m| m.name == *name).cloned().ok_or(format!("{name} was not measured"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(RunResult {
        correct: r.failed == 0,
        attempted: r.attempted,
        failed: r.failed,
        metrics,
        plan_digest: plan.digest(),
        notes: r.notes,
        errors: r.errors,
    })
}

/// What a window leaves behind, before the run-level checks.
struct Partial {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    notes: Vec<String>,
    errors: Vec<String>,
    acked_put_users: BTreeSet<u32>,
}

fn acked_put_users(load: &Load) -> BTreeSet<u32> {
    load.samples.iter().filter(|s| s.kind == OpKind::Put).map(|s| s.user).collect()
}

fn untraced(
    cfg: &RunCfg,
    world: &World,
    plan: &Plan,
    threads: usize,
    epoch: Instant,
    setups: &[f64],
) -> Result<Partial, String> {
    let w = cfg.workload;
    let deadline = Instant::now() + Duration::from_secs(cfg.seconds);
    let load = drive(world, &plan.ops, WINDOW, threads, Some(deadline), Tracing::Off, epoch)?;
    let ok = load.samples.len();
    if ok == 0 {
        return Err(format!("no op succeeded; first errors: {:?}", load.errors));
    }

    let mut notes = vec![format!(
        "load: closed loop, {threads} clients, {} users zipf(1.0), {} ops in {:.2} s; server CPU {:.3} ms/op",
        w.profile.users,
        load.attempted,
        load.elapsed.as_secs_f64(),
        (load.server.1.cpu_ms() - load.server.0.cpu_ms()) / ok as f64
    )];
    for kind in OpKind::ALL {
        let mut ns = load.latencies(kind, None);
        ns.sort_unstable();
        if ns.len() < MIN_SAMPLES {
            continue;
        }
        let ms = |q: f64| quantile(&ns, q).map_or(f64::NAN, |v| v as f64 / 1e6);
        let mut line = format!("{}: n={} p50={:.3} ms p90={:.3} ms", kind.name(), ns.len(), ms(0.5), ms(0.9));
        if ns.len() >= MIN_SAMPLES_P99 {
            line.push_str(&format!(" p99={:.3} ms", ms(0.99)));
        }
        notes.push(line);
    }

    let mut headline = load.latencies(w.headline, None);
    headline.sort_unstable();
    if headline.len() < MIN_SAMPLES {
        return Err(format!(
            "only {} {} samples in {} s; the headline quantiles need {MIN_SAMPLES}",
            headline.len(),
            w.headline.name(),
            cfg.seconds
        ));
    }
    let q_ms = |q: f64| quantile(&headline, q).map_or(f64::NAN, |v| v as f64 / 1e6);
    let setup_s = median_f64(setups).ok_or("no set-up was timed")?;
    let metrics = vec![
        Metric::new("op_p50_ms", q_ms(0.5), "ms", headline.len()),
        Metric::new("op_p90_ms", q_ms(0.9), "ms", headline.len()),
        Metric::new("ops_per_s", ok as f64 / load.elapsed.as_secs_f64(), "1/s", ok),
        Metric::new("server_peak_rss_mb", procstat::peak_rss_mib(world.server.pid)?, "MiB", 1),
        Metric::new("setup_s", setup_s, "s", setups.len()),
    ];
    Ok(Partial {
        attempted: load.attempted,
        failed: load.failed(),
        metrics,
        notes,
        acked_put_users: acked_put_users(&load),
        errors: load.errors,
    })
}

fn traced(
    cfg: &RunCfg,
    world: &World,
    plan: &Plan,
    threads: usize,
    epoch: Instant,
) -> Result<Partial, String> {
    let w = cfg.workload;
    let before = scrape(world)?;
    // Half the window: the other half of a traced run's time goes to
    // the top-up and the isolated layers.
    let deadline = Instant::now() + Duration::from_secs(cfg.seconds) / 2;
    let mut load = drive(world, &plan.ops, WINDOW, threads, Some(deadline), Tracing::Alternate, epoch)?;
    let window = (load.elapsed, load.generator);
    let headline_traced = load.latencies(w.headline, Some(true));
    let headline_plain = load.latencies(w.headline, Some(false));

    let (mut server_cpu, mut elapsed) = (load.server, load.elapsed);
    for (k, kind) in OpKind::ALL.into_iter().enumerate() {
        let have = load.latencies(kind, Some(true)).len();
        if have >= TRACED_MIN_PER_KIND {
            continue;
        }
        let extra = Plan::generate(
            cfg.seed ^ (k as u64 + 1),
            w.profile.users,
            only(kind),
            TRACED_MIN_PER_KIND - have,
        );
        let top = drive(world, &extra.ops, TOPUP + k as u64, 1, None, Tracing::All, epoch)?;
        server_cpu.1 = top.server.1;
        elapsed += top.elapsed;
        load.absorb(top);
    }
    let after = scrape(world)?;
    let ok = load.samples.len();
    if ok == 0 {
        return Err(format!("no op succeeded; first errors: {:?}", load.errors));
    }

    let mut m: Vec<Metric> = Vec::new();
    // A: spans.
    let spans_named = |name: &str, kinds: &[&str]| -> Vec<u64> {
        load.spans.iter().filter(|s| s.name == name && kinds.contains(&s.kind)).map(SpanRec::dur_ns).collect()
    };
    let gsi_ops = ["get", "put", "info"];
    m.push(median_metric("cli.dial_ms", &spans_named(span::DIAL, &gsi_ops), "ms")?);
    m.push(median_metric("gsi.channel.connect_ms", &spans_named(span::CONNECT, &gsi_ops), "ms")?);
    m.push(median_metric("core.proto.request_rtt_ms", &spans_named(span::REQUEST, &["get", "info"]), "ms")?);
    m.push(median_metric("gsi.delegate.accept_ms", &spans_named(span::ACCEPT, &["get"]), "ms")?);
    m.push(median_metric("gsi.delegate.issue_ms", &spans_named(span::ISSUE, &["put"]), "ms")?);
    m.push(median_metric("core.proto.put_ack_ms", &spans_named(span::PUT_ACK, &["put"]), "ms")?);
    m.push(median_metric("portal.login_rtt_ms", &spans_named(span::LOGIN, &["portal_login"]), "ms")?);
    m.push(median_metric(
        "portal.browser_handshake_ms",
        &spans_named(span::BROWSER_HANDSHAKE, &["portal_login"]),
        "ms",
    )?);
    let mut budget_open = 0;
    let mut by_op: BTreeMap<usize, Vec<&SpanRec>> = BTreeMap::new();
    for s in &load.spans {
        by_op.entry(s.op).or_default().push(s);
    }
    for (kind, label) in [("get", "get"), ("put", "put"), ("info", "info"), ("portal_login", "login")] {
        let fracs: Vec<f64> = by_op
            .values()
            .filter(|spans| spans[0].kind == kind)
            .filter_map(|spans| trace::unattributed_frac(spans))
            .collect();
        let value = median_f64(&fracs).ok_or_else(|| format!("no traced {kind} op"))?;
        if value > UNATTRIBUTED_MAX {
            load.errors.push(format!(
                "{kind}: {value:.3} of the op span is outside its child spans: the budget does not close"
            ));
            budget_open += 1;
        }
        m.push(Metric::new(&format!("core.client.unattributed_frac.{label}"), value, "ratio", fracs.len()));
    }

    // B: isolated layers, while the child sits idle with no connection
    // — which is also when its idle cost (the accept poll) is read.
    let tcp_ms = [OpKind::Get, OpKind::Put, OpKind::Info]
        .map(|kind| median(&load.latencies(kind, None)).map_or(f64::NAN, |ns| ns as f64 / 1e6));
    let pid = world.server.pid.to_string();
    let (idle_started, idle_before) = (Instant::now(), procstat::sample(&pid)?);
    m.extend(layers::measure(world, tcp_ms)?);
    let (idle_s, idle_after) = (idle_started.elapsed().as_secs_f64(), procstat::sample(&pid)?);

    // C: the server's own counters over the traced ops. The second
    // scrape's connection is accepted before its snapshot is taken.
    let delta = |name: &str| after.value(name).saturating_sub(before.value(name));
    let mean = |name: &str, per: f64| {
        let (count, sum) = after.hist(name);
        let (count0, sum0) = before.hist(name);
        if count > count0 {
            (sum - sum0) as f64 / (count - count0) as f64 / per
        } else {
            0.0
        }
    };
    let puts = delta("myproxy.puts").max(1);
    let per_put = |x: u64| x as f64 / puts as f64;
    let per_op = |x: f64| x / ok as f64;
    let (cpu0, cpu1) = server_cpu;
    let mut push =
        |name: &str, value: f64, unit: &'static str, n: usize| m.push(Metric::new(name, value, unit, n));
    push("core.server.request_mean_ms", mean("myproxy.request", 1e3), "ms", ok);
    push("core.server.handshake_mean_ms", mean("gsi.handshake.server", 1e3), "ms", ok);
    push("core.store.open_mean_us", mean("store.open", 1.0), "us", ok);
    let accepted = delta("net.myproxy.accepted").saturating_sub(1);
    push("gsi.net.accepted_per_op", accepted as f64 / load.attempted as f64, "count", ok);
    push("gsi.net.shed", delta("net.myproxy.shed") as f64, "count", ok);
    push("gsi.net.timeouts", delta("net.myproxy.timeouts") as f64, "count", ok);
    push("core.wal.group_fsyncs_per_put", per_put(delta("store.wal.group_fsyncs")), "count", puts as usize);
    push("core.wal.batch_mean", mean("store.wal.batch_size", 1.0), "count", puts as usize);
    push("core.wal.compactions", delta("store.wal.compactions") as f64, "count", puts as usize);
    push("core.wal.commit_stall_mean_us", mean("store.wal.commit_stall", 1.0), "us", puts as usize);

    // Outside the program.
    let users = w.profile.users;
    push("core.store.disk_bytes_per_entry", world.store_disk_bytes() as f64 / users as f64, "bytes", users);
    push("server.cpu_user_ms_per_op", per_op(cpu1.user_ms - cpu0.user_ms), "ms", ok);
    push("server.cpu_sys_ms_per_op", per_op(cpu1.sys_ms - cpu0.sys_ms), "ms", ok);
    push("server.vol_ctx_switches_per_op", per_op((cpu1.vol_ctx - cpu0.vol_ctx) as f64), "count", ok);
    let idle_ms = (idle_after.run_ns - idle_before.run_ns) as f64 / 1e6;
    push("server.idle_cpu_ms_per_s", idle_ms / idle_s, "ms/s", 1);

    // The benchmark's own validity.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let (window_elapsed, (gen0, gen1)) = window;
    let generator_s = (gen1.cpu_ms() - gen0.cpu_ms()) / 1e3;
    push("bench.client_cpu_frac", generator_s / (window_elapsed.as_secs_f64() * cores), "ratio", 1);
    let overhead = match (median(&headline_traced), median(&headline_plain)) {
        (Some(t), Some(p)) if p > 0 => t as f64 / p as f64 - 1.0,
        _ => return Err(format!("the window held no {} op in both forms", w.headline.name())),
    };
    push("bench.trace_overhead_frac", overhead, "ratio", headline_traced.len());
    let traced_ops = by_op.len();
    push("bench.traced_ops", traced_ops as f64, "count", traced_ops);

    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| e.to_string())?;
    let trace_path = cfg.out_dir.join(format!("trace-{}.jsonl", w.name));
    trace::write_jsonl(&trace_path, &load.spans).map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let notes = vec![
        format!("trace: {} spans of {traced_ops} ops in {}", load.spans.len(), trace_path.display()),
        format!(
            "traced load: {} ops in {:.2} s, then isolated layers for {idle_s:.2} s",
            load.attempted,
            elapsed.as_secs_f64()
        ),
    ];
    Ok(Partial {
        attempted: load.attempted,
        failed: load.failed() + budget_open,
        metrics: m,
        notes,
        acked_put_users: acked_put_users(&load),
        errors: load.errors,
    })
}

/// After `deposit`: SIGKILL the server, start it on the same store
/// directory, and GET every user whose PUT was acked. The OS cache
/// survives a kill, so this checks journal replay, not power loss
/// (`crash_matrix.rs` owns that).
fn replay_check(world: &mut World, acked: &BTreeSet<u32>) -> Result<(), String> {
    world.crash_and_restart()?;
    world.for_each_user(8, |u, user| {
        if !acked.contains(&(u as u32)) {
            return Ok(());
        }
        let op = Op { user: u as u32, kind: OpKind::Get, nth_of_kind: u as u32 };
        let mut rng = ops::op_rng(&op, REPLAY);
        let cred = ops::get_plain(world, user, &mut rng).map_err(|e| format!("after kill -9: {e}"))?;
        ops::check_delegated(world, user, &cred)
    })
}

/// The server's registry as `INFO METRICS=1` returns it.
struct Scrape {
    values: BTreeMap<String, u64>,
    hists: BTreeMap<String, (u64, u64)>,
}

impl Scrape {
    fn value(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }
    /// (count, sum)
    fn hist(&self, name: &str) -> (u64, u64) {
        self.hists.get(name).copied().unwrap_or((0, 0))
    }
}

fn scrape(world: &World) -> Result<Scrape, String> {
    let user = &world.users[0];
    let mut rng = ops::op_rng(&Op { user: 0, kind: OpKind::Info, nth_of_kind: 0 }, REPLAY);
    let transport = (world.connector)().map_err(|e| format!("scrape dial: {e}"))?;
    let (_, lines) = world
        .client
        .info_with_metrics(transport, &user.cred, &user.name, &user.pw, &mut rng, now())
        .map_err(|e| format!("scrape: {e}"))?;
    let mut out = Scrape { values: BTreeMap::new(), hists: BTreeMap::new() };
    for line in lines {
        let mut parts = line.split_whitespace();
        let (Some(name), Some(first)) = (parts.next(), parts.next()) else {
            continue;
        };
        if let Ok(v) = first.parse::<u64>() {
            out.values.insert(name.to_string(), v);
            continue;
        }
        let field = |key: &str| -> Option<u64> {
            line.split_whitespace().find_map(|p| p.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
        };
        if let (Some(count), Some(sum)) = (field("count"), field("sum")) {
            out.hists.insert(name.to_string(), (count, sum));
        }
    }
    Ok(out)
}
