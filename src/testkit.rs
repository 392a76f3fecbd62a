//! A complete simulated Grid, wired in-process: one CA, users, a
//! MyProxy repository, a GRAM job manager, a mass-storage service, and
//! a Grid portal. Shared by the workspace integration tests and
//! examples.
//!
//! Everything runs over in-memory duplex transports with a simulated
//! clock, so scenarios are deterministic and fast; the same components
//! also run over TCP (see `works_over_tcp` tests).

use mp_crypto::HmacDrbg;
use mp_gram::{storage::MassStorage, JobManager};
use mp_gsi::transport::{BoxedTransport, Connector};
use mp_gsi::{ChannelConfig, Credential, Gridmap};
use mp_myproxy::{MyProxyClient, MyProxyServer, ServerPolicy};
use mp_portal::browser::BrowserMode;
use mp_portal::portal::{GridPortal, PortalConfig};
use mp_portal::Browser;
use mp_x509::test_util::{test_drbg, test_rsa_key};
use mp_x509::{Certificate, CertificateAuthority, Clock, Dn, SimClock};
use std::sync::Arc;

/// Canonical DNs used across the suite.
pub mod dn {
    /// The CA.
    pub const CA: &str = "/O=Grid/CN=Globus CA";
    /// The user of Figures 1–3.
    pub const ALICE: &str = "/O=Grid/CN=alice";
    /// A second user.
    pub const BOB: &str = "/O=Grid/CN=bob";
    /// The portal host.
    pub const PORTAL: &str = "/O=Grid/OU=SDSC/CN=portal.sdsc.edu";
    /// The repository host.
    pub const MYPROXY: &str = "/O=Grid/OU=NCSA/CN=myproxy.ncsa.edu";
    /// The job manager host.
    pub const JOBMGR: &str = "/O=Grid/OU=NCSA/CN=jobmanager.ncsa.edu";
    /// The mass-storage host.
    pub const STORAGE: &str = "/O=Grid/OU=NERSC/CN=storage.nersc.gov";
}

/// The assembled world.
pub struct GridWorld {
    /// The CA's self-signed certificate (everyone's trust root).
    pub ca_cert: Certificate,
    /// Alice's long-term credential (lives "on her workstation").
    pub alice: Credential,
    /// Bob's long-term credential.
    pub bob: Credential,
    /// The portal's own credential.
    pub portal_cred: Credential,
    /// The repository's service credential. A replicated deployment
    /// presents one service identity, so any standby built with
    /// [`GridWorld::standby_repository`] shares this credential and
    /// identity-pinned clients fail over without re-pinning.
    pub myproxy_cred: Credential,
    /// The repository policy both repositories run under.
    pub repo_policy: ServerPolicy,
    /// The repository.
    pub myproxy: MyProxyServer,
    /// A MyProxy client pinned to the repository identity.
    pub myproxy_client: MyProxyClient,
    /// The job manager.
    pub jobmanager: JobManager,
    /// Mass storage.
    pub storage: MassStorage,
    /// The portal.
    pub portal: Arc<GridPortal>,
    /// The simulated clock shared by every component.
    pub clock: SimClock,
}

impl GridWorld {
    /// Build the world with a permissive repository policy.
    pub fn new() -> Self {
        Self::with_policy(ServerPolicy::permissive())
    }

    /// Build the world with a custom repository policy.
    pub fn with_policy(policy: ServerPolicy) -> Self {
        let clock = SimClock::new(mp_x509::time::HPDC_2001);
        let mut ca = CertificateAuthority::new_root(
            Dn::parse(dn::CA).unwrap(),
            test_rsa_key(0).clone(),
            0,
            mp_x509::time::HPDC_2001 + 10 * 365 * 24 * 3600,
        )
        .unwrap();
        let expiry = mp_x509::time::HPDC_2001 + 365 * 24 * 3600;
        let mut mk = |idx: usize, dn_str: &str| {
            let key = test_rsa_key(idx);
            let d = Dn::parse(dn_str).unwrap();
            let cert = ca.issue_end_entity(&d, key.public_key(), 0, expiry).unwrap();
            Credential::new(vec![cert], key.clone()).unwrap()
        };
        let alice = mk(1, dn::ALICE);
        let bob = mk(2, dn::BOB);
        let portal_cred = mk(3, dn::PORTAL);
        let myproxy_cred = mk(4, dn::MYPROXY);
        let jobmgr_cred = mk(5, dn::JOBMGR);
        let storage_cred = mk(6, dn::STORAGE);
        let ca_cert = ca.certificate().clone();
        let roots = vec![ca_cert.clone()];

        let myproxy = MyProxyServer::new(
            myproxy_cred.clone(),
            roots.clone(),
            policy.clone(),
            Arc::new(clock.clone()),
            HmacDrbg::new(b"gridworld myproxy seed"),
        );
        let myproxy_client = MyProxyClient::new(roots.clone(), Some(Dn::parse(dn::MYPROXY).unwrap()));

        let mut gridmap = Gridmap::new();
        gridmap.add(&Dn::parse(dn::ALICE).unwrap(), "alice");
        gridmap.add(&Dn::parse(dn::BOB).unwrap(), "bob");

        let storage = MassStorage::new(
            "storage.nersc.gov",
            storage_cred,
            roots.clone(),
            gridmap.clone(),
            Arc::new(clock.clone()),
        );
        let jobmanager = JobManager::new(
            "jobmanager.ncsa.edu",
            jobmgr_cred,
            roots.clone(),
            gridmap,
            Arc::new(clock.clone()),
            Some((storage.clone(), ChannelConfig::new(roots.clone()))),
        );

        let portal = Arc::new(GridPortal::new(PortalConfig {
            credential: portal_cred.clone(),
            trust_roots: roots.clone(),
            myproxy: Self::myproxy_connector(&myproxy),
            myproxy_identity: Some(Dn::parse(dn::MYPROXY).unwrap()),
            jobmanager: Some(Self::jobmanager_connector(&jobmanager)),
            storage: Some(Self::storage_connector(&storage)),
            clock: Arc::new(clock.clone()),
            require_tls: true,
            rng: HmacDrbg::new(b"gridworld portal seed"),
        }));

        GridWorld {
            ca_cert,
            alice,
            bob,
            portal_cred,
            myproxy_cred,
            repo_policy: policy,
            myproxy,
            myproxy_client,
            jobmanager,
            storage,
            portal,
            clock,
        }
    }

    /// A second repository instance sharing this world's trust roots,
    /// clock, policy and service identity — the warm standby of a
    /// replicated deployment. Callers wire durability and replication
    /// themselves (`enable_durability_with` + `configure_standby`).
    pub fn standby_repository(&self, rng_seed: &[u8]) -> MyProxyServer {
        MyProxyServer::new(
            self.myproxy_cred.clone(),
            vec![self.ca_cert.clone()],
            self.repo_policy.clone(),
            Arc::new(self.clock.clone()),
            HmacDrbg::new(rng_seed),
        )
    }

    /// Connector dialing the repository.
    pub fn myproxy_connector(server: &MyProxyServer) -> Connector {
        let server = server.clone();
        Arc::new(move || Ok(Box::new(server.connect_local()) as BoxedTransport))
    }

    /// Connector dialing the job manager.
    pub fn jobmanager_connector(jm: &JobManager) -> Connector {
        let jm = jm.clone();
        let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
        Arc::new(move || {
            let n = counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Ok(Box::new(jm.connect_local(format!("jm conn {n}").as_bytes())) as BoxedTransport)
        })
    }

    /// Connector dialing mass storage.
    pub fn storage_connector(st: &MassStorage) -> Connector {
        let st = st.clone();
        let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
        Arc::new(move || {
            let n = counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Ok(Box::new(st.connect_local(format!("st conn {n}").as_bytes())) as BoxedTransport)
        })
    }

    /// Connector dialing the portal over HTTPS-sim (spawns a handler
    /// thread per connection).
    pub fn portal_tls_connector(&self) -> Connector {
        let portal = self.portal.clone();
        Arc::new(move || {
            let (client_end, server_end) = mp_gsi::duplex();
            let portal = portal.clone();
            std::thread::spawn(move || {
                let _ = portal.serve_tls(server_end, None);
            });
            Ok(Box::new(client_end) as BoxedTransport)
        })
    }

    /// Connector dialing the portal over plain HTTP.
    pub fn portal_plain_connector(&self) -> Connector {
        let portal = self.portal.clone();
        Arc::new(move || {
            let (client_end, server_end) = mp_gsi::duplex();
            let portal = portal.clone();
            std::thread::spawn(move || {
                let _ = portal.serve_plain(server_end, None);
            });
            Ok(Box::new(client_end) as BoxedTransport)
        })
    }

    /// A browser pointed at the portal over HTTPS-sim.
    pub fn browser(&self, label: &str) -> Browser {
        Browser::new(
            self.portal_tls_connector(),
            BrowserMode::Tls { roots: vec![self.ca_cert.clone()], expected: None },
            test_drbg(label),
            self.clock.now(),
        )
    }

    /// A browser over plain HTTP (for the §5.2 snooping demonstrations).
    pub fn browser_plain(&self, label: &str) -> Browser {
        Browser::new(self.portal_plain_connector(), BrowserMode::Plain, test_drbg(label), self.clock.now())
    }

    /// Alice runs `myproxy-init` with default parameters (Figure 1).
    pub fn alice_init(&self, passphrase: &str) -> mp_myproxy::Result<u64> {
        let mut rng = test_drbg("alice init");
        self.myproxy_client.init(
            self.myproxy.connect_local(),
            &self.alice,
            &mp_myproxy::client::InitParams::new("alice", passphrase),
            &mut rng,
            self.clock.now(),
        )
    }
}

impl Default for GridWorld {
    fn default() -> Self {
        Self::new()
    }
}
