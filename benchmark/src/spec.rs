//! The benchmark's fixed vocabulary: workloads, metric names, units and
//! regression bounds. `BENCHMARK.json` at the repository root is this
//! table rendered by `--emit-spec`; later issues cite these names.

use crate::world::{Profile, P2048, P512};
use mp_loadgen::{Mix, OpKind};

pub struct Workload {
    pub name: &'static str,
    pub profile: Profile,
    pub mix: Mix,
    /// The op whose latency is this workload's `op_p50_ms`/`op_p90_ms`.
    pub headline: OpKind,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "retrieve",
        profile: P512,
        mix: Mix { get: 70, portal_login: 20, info: 10, put: 0 },
        headline: OpKind::Get,
        why: "GET 70/portal LOGIN 20/INFO 10 at RSA-512: the paper's dominant traffic; handshake, transport, PBKDF2 open and delegation work, the WAL is idle. Headline op: GET.",
    },
    Workload {
        name: "deposit",
        profile: P512,
        mix: Mix { put: 80, get: 20, info: 0, portal_login: 0 },
        headline: OpKind::Put,
        why: "PUT 80/GET 20 at RSA-512: server keygen, seal, WAL group commit with real fsync, compaction; a read-path gain that costs the commit path shows here. Headline op: PUT.",
    },
    Workload {
        name: "status",
        profile: P512,
        mix: Mix { info: 100, put: 0, get: 0, portal_login: 0 },
        headline: OpKind::Info,
        why: "INFO 100 at RSA-512: smallest message, no keygen; connection set-up, accept poll, record writes, handshake and PBKDF2 are all that is left. Headline op: INFO.",
    },
    Workload {
        name: "deploy2048",
        profile: P2048,
        mix: Mix { get: 90, put: 10, info: 0, portal_login: 0 },
        headline: OpKind::Get,
        why: "GET 90/PUT 10 at RSA-2048 identities and stored proxies, PBKDF2-10k, 1024-bit retrieved proxy: deployment-size crypto beside the fixed stalls; a gain only at toy sizes shows less. Headline op: GET.",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.10 },
    EndToEnd { name: "op_p90_ms", unit: "ms", better: "lower", bound: 0.15 },
    EndToEnd { name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.10 },
    EndToEnd { name: "server_peak_rss_mb", unit: "MiB", better: "lower", bound: 0.15 },
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
];

/// (name, unit, better), in the order a traced run prints them.
pub const PER_LAYER: [(&str, &str, &str); 54] = [
    // A: client-side spans on live ops against the child.
    ("cli.dial_ms", "ms", "lower"),
    ("gsi.channel.connect_ms", "ms", "lower"),
    ("core.proto.request_rtt_ms", "ms", "lower"),
    ("gsi.delegate.accept_ms", "ms", "lower"),
    ("gsi.delegate.issue_ms", "ms", "lower"),
    ("core.proto.put_ack_ms", "ms", "lower"),
    ("portal.login_rtt_ms", "ms", "lower"),
    ("portal.browser_handshake_ms", "ms", "lower"),
    ("core.client.unattributed_frac.get", "ratio", "lower"),
    ("core.client.unattributed_frac.put", "ratio", "lower"),
    ("core.client.unattributed_frac.info", "ratio", "lower"),
    ("core.client.unattributed_frac.login", "ratio", "lower"),
    // B: the layer's public function in isolation at the profile's sizes.
    ("core.mem.get_ms", "ms", "lower"),
    ("core.mem.put_ms", "ms", "lower"),
    ("core.mem.info_ms", "ms", "lower"),
    ("core.transport_share.get", "ratio", "lower"),
    ("core.transport_share.put", "ratio", "lower"),
    ("core.transport_share.info", "ratio", "lower"),
    ("gsi.handshake.mem_us", "us", "lower"),
    ("gsi.handshake.tcp_us", "us", "lower"),
    ("gsi.transport.tcp_penalty_ms", "ms", "lower"),
    ("gsi.record.echo_mem_us", "us", "lower"),
    ("gsi.record.echo_tcp_us", "us", "lower"),
    ("crypto.rsa.keygen_ms", "ms", "lower"),
    ("crypto.rsa.sign_us", "us", "lower"),
    ("crypto.rsa.verify_us", "us", "lower"),
    ("bignum.modexp_us", "us", "lower"),
    ("crypto.pbkdf2_ms", "ms", "lower"),
    ("x509.validate_chain_us", "us", "lower"),
    ("core.proto.roundtrip_us", "us", "lower"),
    ("core.store.put_us", "us", "lower"),
    ("core.store.open_us", "us", "lower"),
    ("core.wal.commit_us", "us", "lower"),
    ("core.wal.fsyncs_per_put", "count", "lower"),
    ("core.wal.bytes_per_put", "bytes", "lower"),
    ("core.wal.user_bytes_per_put", "bytes", "lower"),
    // C: deltas of the server's own counters and histogram sums.
    ("core.server.request_mean_ms", "ms", "lower"),
    ("core.server.handshake_mean_ms", "ms", "lower"),
    ("core.store.open_mean_us", "us", "lower"),
    ("gsi.net.accepted_per_op", "count", "lower"),
    ("gsi.net.shed", "count", "lower"),
    ("gsi.net.timeouts", "count", "lower"),
    ("core.wal.group_fsyncs_per_put", "count", "lower"),
    ("core.wal.batch_mean", "count", "higher"),
    ("core.wal.compactions", "count", "lower"),
    ("core.wal.commit_stall_mean_us", "us", "lower"),
    // Outside the program: the store directory and /proc.
    ("core.store.disk_bytes_per_entry", "bytes", "lower"),
    ("server.cpu_user_ms_per_op", "ms", "lower"),
    ("server.cpu_sys_ms_per_op", "ms", "lower"),
    ("server.vol_ctx_switches_per_op", "count", "lower"),
    ("server.idle_cpu_ms_per_s", "ms/s", "lower"),
    // The benchmark's own validity.
    ("bench.client_cpu_frac", "ratio", "lower"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
    ("bench.traced_ops", "count", "higher"),
];

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json(run_seconds: u64) -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
