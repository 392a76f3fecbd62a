//! `bench-repl`: replication under load, over the real filesystem on
//! both sides (real fsyncs, real GSI shipper sessions).
//!
//! Two measurements, emitted as `BENCH_repl.json`:
//!
//! * **steady-state lag** — concurrent writers drive the loadgen PUT
//!   mix through the primary's group-commit path while a shipper loop
//!   pushes committed records to a warm standby. Replication is
//!   asynchronous and must never hold up an ack, so the interesting
//!   numbers are how far the standby trails (max/final
//!   `store.repl.lag_records`) and how long the tail takes to drain
//!   after the writers stop.
//! * **failover time** — the primary is "killed" (no further ship
//!   passes, its address refuses connections), the standby is
//!   promoted, and the clock runs from the kill to the first
//!   successful GET served by the standby through the client's
//!   multi-repository failover path.
//!
//! Exit code is non-zero if the standby fails to converge to the
//! primary's exact state or the post-failover GET fails — lag numbers
//! from a diverged replica would be meaningless.

use mp_myproxy::client::{GetParams, InitParams, Repositories, RetryPolicy};
use mp_myproxy::repl::ReplConfig;
use mp_myproxy::testutil::TempDir;
use mp_myproxy::wal::{RealVfs, WalConfig};
use mp_myproxy::StoredCredential;
use mp_x509::test_util::test_drbg;
use mp_x509::Clock;
use myproxy::testkit::GridWorld;
use std::sync::Arc;
use std::time::Instant;

const WRITERS: usize = 16;
const USERS: usize = WRITERS / 4;
const PUTS_PER_WRITER: usize = 64;
const SEALED_LEN: usize = 1536;

fn entry(user: &str, name: &str, fill: u8) -> StoredCredential {
    StoredCredential {
        username: user.to_string(),
        name: name.to_string(),
        owner_identity: "/O=Grid/CN=bench".to_string(),
        sealed: vec![fill; SEALED_LEN],
        retrieval_max_lifetime: 7200,
        not_after: 600_000_000,
        created_at: 100,
        long_term: false,
        tags: Vec::new(),
        renewable_by: None,
        sealed_for_renewal: None,
    }
}

fn sorted(mut v: Vec<StoredCredential>) -> Vec<StoredCredential> {
    v.sort_by(|a, b| (&a.username, &a.name).cmp(&(&b.username, &b.name)));
    v
}

fn main() {
    println!(
        "bench-repl: {WRITERS} writers x {PUTS_PER_WRITER} committed PUTs shipping to a warm standby, real fs"
    );

    let world = GridWorld::new();
    let primary = world.myproxy.clone();
    let primary_dir = TempDir::new("bench-repl-primary");
    primary
        .enable_durability_with(
            primary_dir.path(),
            Arc::new(RealVfs),
            WalConfig { compact_every: 0, ..WalConfig::default() },
        )
        .expect("primary durability");
    let log = primary.enable_replication(&ReplConfig::default()).expect("enable replication");

    let standby = world.standby_repository(b"bench repl standby");
    let standby_dir = TempDir::new("bench-repl-standby");
    standby
        .enable_durability_with(
            standby_dir.path(),
            Arc::new(RealVfs),
            WalConfig { compact_every: 0, ..WalConfig::default() },
        )
        .expect("standby durability");
    standby.configure_standby(&ReplConfig::default());
    let shipper = primary.shipper(GridWorld::myproxy_connector(&standby));

    // One real client PUT so the failover phase has a credential to
    // retrieve through the full GSI path.
    let mut rng = test_drbg("bench repl client");
    world
        .myproxy_client
        .init(
            primary.connect_local(),
            &world.alice,
            &InitParams::new("alice", "bench pass phrase"),
            &mut rng,
            world.clock.now(),
        )
        .expect("seed credential");

    // ---- steady-state lag under the PUT mix -------------------------
    let wal = primary.store().wal_handle().expect("wal attached");
    let start = Instant::now();
    let mut writers = Vec::new();
    for w in 0..WRITERS {
        let store_owner = primary.clone();
        let wal = wal.clone();
        writers.push(std::thread::spawn(move || {
            let user = format!("user-{}", w % USERS);
            for i in 0..PUTS_PER_WRITER {
                let e = entry(&user, &format!("cred-{w}-{i}"), w as u8);
                wal.commit(store_owner.store(), mp_myproxy::wal::WalRecord::Upsert(e))
                    .expect("commit");
            }
        }));
    }

    // Ship from the main thread until the writers are done and the
    // tail has drained; sample the lag gauge before every pass.
    let mut max_lag = 0u64;
    let mut passes = 0u64;
    let mut write_elapsed = None;
    loop {
        let writers_done = writers.iter().all(|h| h.is_finished());
        if writers_done && write_elapsed.is_none() {
            write_elapsed = Some(start.elapsed().as_secs_f64());
        }
        max_lag = max_lag.max(log.metrics().lag_records.get());
        shipper.run_once().expect("ship pass");
        passes += 1;
        if writers_done && log.metrics().lag_records.get() == 0 {
            break;
        }
    }
    for h in writers {
        h.join().expect("writer thread");
    }
    let write_elapsed = write_elapsed.unwrap_or_else(|| start.elapsed().as_secs_f64());
    let drain_elapsed = start.elapsed().as_secs_f64();

    let ops = (WRITERS * PUTS_PER_WRITER) as u64;
    let puts_per_s = ops as f64 / write_elapsed;
    let converged = sorted(primary.store().all_entries()) == sorted(standby.store().all_entries());
    println!(
        "steady state: {ops} puts in {write_elapsed:.3}s ({puts_per_s:.1}/s), \
         {passes} ship passes, max lag {max_lag} records, drained in {drain_elapsed:.3}s"
    );

    // ---- failover: primary kill -> first standby GET ----------------
    let dead: mp_gsi::transport::Connector = Arc::new(|| {
        Err(std::io::Error::new(std::io::ErrorKind::ConnectionRefused, "primary is down"))
    });
    drop(shipper); // primary is dead: no further ship passes
    let kill = Instant::now();
    standby.promote().expect("promote standby");
    let mut params = GetParams::new("alice", "bench pass phrase");
    params.key_bits = 512;
    params.lifetime_secs = 3600;
    let policy = RetryPolicy { max_attempts: 4, base_delay_ms: 1, max_delay_ms: 2, jitter_seed: 7 };
    let (got, _) = Repositories::new(vec![dead, GridWorld::myproxy_connector(&standby)], policy).call(
        &world.myproxy_client,
        &world.portal_cred,
        &params,
        &mut rng,
        world.clock.now(),
    );
    let failover_ms = kill.elapsed().as_secs_f64() * 1e3;
    let failover_ok = got.is_ok();
    match &got {
        Ok(proxy) => println!(
            "failover: promoted + first GET ({}) in {failover_ms:.1}ms",
            proxy.subject()
        ),
        Err(e) => eprintln!("failover GET failed: {e}"),
    }

    let json = format!(
        concat!(
            "{{\"writers\":{},\"puts_per_writer\":{},\"put_ops\":{},",
            "\"write_elapsed_s\":{:.4},\"puts_per_s\":{:.1},",
            "\"drain_elapsed_s\":{:.4},\"ship_passes\":{},",
            "\"max_lag_records\":{},\"final_lag_records\":{},",
            "\"ship_errors\":{},\"resyncs\":{},\"converged\":{},",
            "\"failover_ms\":{:.2},\"failover_ok\":{}}}\n"
        ),
        WRITERS,
        PUTS_PER_WRITER,
        ops,
        write_elapsed,
        puts_per_s,
        drain_elapsed,
        passes,
        max_lag,
        log.metrics().lag_records.get(),
        log.metrics().ship_errors.get(),
        log.metrics().resyncs.get(),
        converged,
        failover_ms,
        failover_ok,
    );
    std::fs::write("BENCH_repl.json", json).expect("write BENCH_repl.json");
    println!("wrote BENCH_repl.json");

    if !converged {
        eprintln!("FAIL: standby diverged from primary after drain");
        std::process::exit(1);
    }
    if !failover_ok {
        eprintln!("FAIL: post-failover GET was not served by the promoted standby");
        std::process::exit(1);
    }
}
