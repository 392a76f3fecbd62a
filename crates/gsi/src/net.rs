//! Shared service substrate: the accept loop every daemon in this
//! workspace runs on.
//!
//! The paper positions the repository as long-lived shared
//! infrastructure that portals hammer on behalf of whole user
//! communities (§3–§4). That forces four availability properties that
//! a naive `for conn in listener.incoming()` loop does not have:
//!
//! 1. **Bounded concurrency** — a fixed worker pool with a connection
//!    cap. Beyond the cap the server *load-sheds*: the connection is
//!    refused with an in-protocol BUSY frame (see
//!    [`crate::channel::send_busy`]) and a `shed` counter is bumped,
//!    instead of spawning an unbounded thread.
//! 2. **Per-phase deadlines** — a handshake deadline is armed on every
//!    accepted connection before it reaches a worker, and services
//!    re-arm a per-request idle deadline once the handshake completes.
//!    [`MemStream`] mirrors `TcpStream`'s timeout surface so in-memory
//!    tests exercise the same eviction paths.
//! 3. **Accept-error resilience** — `accept(2)` failures are
//!    classified: `EMFILE`-class and connection-racing errors are
//!    retried with capped exponential backoff; only listener teardown
//!    stops the loop.
//! 4. **Graceful shutdown** — [`ShutdownHandle::shutdown`] stops
//!    accepting, drains in-flight handlers within a grace period,
//!    aborts what is still queued, and joins every thread, so process
//!    exit cannot race an in-flight credential write.
//!
//! Nothing on the request path waits on a clock: the accept thread
//! blocks in `accept` (shutdown wakes it through
//! [`Acceptor::waker`]), housekeeping runs on its own `net-sweep`
//! thread, a connection goes to the worker that parked most recently,
//! and every TCP socket the product owns — accepted here or dialled
//! through [`dial`] — has `TCP_NODELAY` set.
//!
//! [`FaultyTransport`] is the fault-injection half: a transport wrapper
//! that drops, errors, or stalls the connection at exact protocol-frame
//! boundaries, used by `tests/robustness.rs` to prove the above.

use crate::transport::MemStream;
use mp_obs::{Counter, Gauge, Registry};
use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for a [`serve`] pool.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Worker threads handling connections (minimum 1). Beside them a
    /// pool runs one accept thread and, with a `sweep_interval`, one
    /// `net-sweep` thread.
    pub workers: usize,
    /// Connections admitted (queued + in flight) before load-shedding.
    pub max_connections: usize,
    /// Deadline armed on a connection between accept and the end of the
    /// handshake. `None` = no deadline (not recommended in production).
    pub handshake_deadline: Option<Duration>,
    /// Idle deadline services arm per request once the handshake is
    /// done.
    pub idle_deadline: Option<Duration>,
    /// How long [`ShutdownHandle::shutdown`] waits for in-flight
    /// handlers before abandoning the drain.
    pub shutdown_grace: Duration,
    /// First retry delay after a transient accept error; doubles per
    /// consecutive failure.
    pub accept_backoff_start: Duration,
    /// Backoff ceiling.
    pub accept_backoff_max: Duration,
    /// How often the pool's `net-sweep` thread calls [`Service::sweep`]
    /// (expired credential purging, persistence flushes). `None`
    /// disables it and starts no sweep thread.
    pub sweep_interval: Option<Duration>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            workers: 8,
            max_connections: 64,
            handshake_deadline: Some(Duration::from_secs(10)),
            idle_deadline: Some(Duration::from_secs(30)),
            shutdown_grace: Duration::from_secs(5),
            accept_backoff_start: Duration::from_millis(5),
            accept_backoff_max: Duration::from_secs(1),
            sweep_interval: Some(Duration::from_secs(30)),
        }
    }
}

/// Counters exported by a pool. All monotonic except `active`, which is
/// a gauge of connections admitted but not yet finished.
///
/// These are `mp_obs` metric handles: [`serve`] gives each pool a
/// private detached set, while [`serve_scoped`] interns them into a
/// caller-supplied [`Registry`] under `net.<scope>.*` so they show up
/// on that service's scrape surface. Either way the cells follow
/// mp-obs's one documented ordering (`Relaxed`) — this replaced the
/// previous `AcqRel`/`Acquire` pairing here, which implied a
/// cross-memory synchronization guarantee no reader may rely on.
#[derive(Clone, Default)]
pub struct NetStats {
    accepted: Counter,
    active: Gauge,
    queued: Gauge,
    shed: Counter,
    timeouts: Counter,
    handler_errors: Counter,
    accept_retries: Counter,
    completed: Counter,
    aborted: Counter,
    panics: Counter,
}

impl NetStats {
    /// Intern this stat set into `registry` as `net.<scope>.*`.
    pub fn scoped(registry: &Registry, scope: &str) -> Self {
        let m = |field: &str| registry.counter(&format!("net.{scope}.{field}"));
        NetStats {
            accepted: m("accepted"),
            active: registry.gauge(&format!("net.{scope}.active")),
            queued: registry.gauge(&format!("net.{scope}.queue_depth")),
            shed: m("shed"),
            timeouts: m("timeouts"),
            handler_errors: m("handler_errors"),
            accept_retries: m("accept_retries"),
            completed: m("completed"),
            aborted: m("aborted"),
            panics: m("panics"),
        }
    }

    /// Connections the listener handed us (including ones later shed).
    pub fn accepted(&self) -> u64 {
        self.accepted.get()
    }
    /// Connections admitted and not yet finished (queued + in flight).
    pub fn active(&self) -> u64 {
        self.active.get()
    }
    /// Connections sitting in the worker queue, not yet picked up.
    /// `active - queue_depth` is therefore the in-flight handler count.
    pub fn queue_depth(&self) -> u64 {
        self.queued.get()
    }
    /// Connections refused at the cap with a BUSY frame.
    pub fn shed(&self) -> u64 {
        self.shed.get()
    }
    /// Handlers that ended by deadline eviction.
    pub fn timeouts(&self) -> u64 {
        self.timeouts.get()
    }
    /// Handlers that ended in a non-timeout error.
    pub fn handler_errors(&self) -> u64 {
        self.handler_errors.get()
    }
    /// Transient accept errors survived via backoff.
    pub fn accept_retries(&self) -> u64 {
        self.accept_retries.get()
    }
    /// Handlers that completed cleanly.
    pub fn completed(&self) -> u64 {
        self.completed.get()
    }
    /// Connections dropped from the queue at shutdown, never served.
    pub fn aborted(&self) -> u64 {
        self.aborted.get()
    }
    /// Pool threads (accept or worker) that terminated by panicking.
    pub fn panics(&self) -> u64 {
        self.panics.get()
    }
}

/// How one handled connection ended, for the pool's accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Served to completion (including clean protocol-level refusals).
    Ok,
    /// Evicted by a read/write deadline.
    Timeout,
    /// Failed some other way.
    Error,
}

/// Classify a handler result for the pool's accounting, the one way
/// every service does it: a failure whose I/O cause (`io_cause`
/// projects it out of the service's error type) is an expired socket
/// deadline is [`Outcome::Timeout`], any other failure
/// [`Outcome::Error`].
pub fn outcome_of<E>(
    result: &Result<(), E>,
    io_cause: impl FnOnce(&E) -> Option<&io::Error>,
) -> Outcome {
    match result {
        Ok(()) => Outcome::Ok,
        Err(e) => match io_cause(e).map(io::Error::kind) {
            Some(io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock) => Outcome::Timeout,
            _ => Outcome::Error,
        },
    }
}

/// A connection handler the pool drives. One value is shared by every
/// worker, so implementations hold their mutable state behind locks.
pub trait Service<C>: Send + Sync + 'static {
    /// Serve one connection to completion. `idle_deadline` is the
    /// post-handshake deadline the service should arm per request.
    fn handle(&self, conn: C, idle_deadline: Option<Duration>) -> Outcome;

    /// The pool is at its connection cap: refuse `conn` with a protocol
    /// error if the wire format has one. Default: just hang up.
    fn shed(&self, conn: C) {
        drop(conn);
    }

    /// Periodic housekeeping (purge expired credentials, flush
    /// persistence). Called from the pool's `net-sweep` thread on
    /// [`NetConfig::sweep_interval`], concurrently with `handle`.
    fn sweep(&self) {}
}

/// Arm read/write deadlines on a connection. Mirrors
/// `TcpStream::set_read_timeout`/`set_write_timeout` but infallible:
/// transports that cannot honor a deadline simply ignore it.
pub trait DeadlineControl {
    /// Set both directions' deadlines (`None` clears them).
    fn set_deadlines(&self, read: Option<Duration>, write: Option<Duration>);

    /// The remote address, for a daemon's per-connection log line.
    /// In-memory transports have none.
    fn peer_label(&self) -> Option<String> {
        None
    }
}

impl DeadlineControl for std::net::TcpStream {
    fn set_deadlines(&self, read: Option<Duration>, write: Option<Duration>) {
        // TcpStream rejects a zero Duration; normalize it to "no
        // deadline". The setters only fail on that rejected input, so
        // after normalization the discard is dead code.
        let norm = |t: Option<Duration>| t.filter(|d| !d.is_zero());
        let _ = self.set_read_timeout(norm(read));
        let _ = self.set_write_timeout(norm(write));
    }

    fn peer_label(&self) -> Option<String> {
        self.peer_addr().ok().map(|a| a.to_string())
    }
}

impl DeadlineControl for MemStream {
    fn set_deadlines(&self, read: Option<Duration>, write: Option<Duration>) {
        self.set_read_timeout(read);
        self.set_write_timeout(write);
    }
}

/// Connection type for pools that mix concrete transports (plain
/// [`MemStream`], [`FaultyTransport`]-wrapped streams, ...).
pub type BoxedConn = Box<dyn FlexConn>;

/// Object-safe bundle behind [`BoxedConn`].
pub trait FlexConn: Read + Write + Send + DeadlineControl {}
impl<T: Read + Write + Send + DeadlineControl> FlexConn for T {}

impl DeadlineControl for BoxedConn {
    fn set_deadlines(&self, read: Option<Duration>, write: Option<Duration>) {
        (**self).set_deadlines(read, write);
    }

    fn peer_label(&self) -> Option<String> {
        (**self).peer_label()
    }
}

/// Makes a blocked (or the next) [`Acceptor::accept`] return, once, so
/// the accept thread sees a stop request. `Err` means the wake could
/// not be delivered and the accept thread may stay blocked.
pub type AcceptWaker = Box<dyn FnOnce() -> io::Result<()> + Send + Sync>;

/// A source of inbound connections for the accept loop.
pub trait Acceptor: Send + 'static {
    /// The connection type this acceptor yields.
    type Conn: Send + 'static;
    /// Block until one connection arrives. `WouldBlock`-class errors
    /// (an interrupted or woken accept) mean "nothing accepted"; see
    /// [`classify_accept_error`].
    fn accept(&mut self) -> io::Result<Self::Conn>;
    /// The wake [`ShutdownHandle::shutdown`] uses to unblock `accept`.
    fn waker(&self) -> AcceptWaker;
}

/// Dial `addr` the one way the product dials TCP: connect, then set
/// `TCP_NODELAY`. Every protocol here writes a whole frame and then
/// waits on the peer, and two frames in a row from one side (Finished
/// then the request; PUT's success then its CSR) are exactly what
/// Nagle's algorithm holds back until the peer's delayed ACK.
pub fn dial(addr: impl ToSocketAddrs) -> io::Result<TcpStream> {
    let sock = TcpStream::connect(addr)?;
    sock.set_nodelay(true)?;
    Ok(sock)
}

/// How long a shutdown self-dial may take before the accept thread is
/// given up on and detached.
const WAKE_DIAL_LIMIT: Duration = Duration::from_millis(500);

/// [`Acceptor`] over a real TCP listener (blocking accept).
pub struct TcpAcceptor {
    listener: TcpListener,
    /// Where the waker dials: the listener's own address, loopback
    /// standing in for an unspecified bind address.
    wake_addr: SocketAddr,
}

impl TcpAcceptor {
    /// Wrap `listener`, switching it to blocking mode: shutdown wakes
    /// the accept thread by dialling the listener itself.
    pub fn new(listener: TcpListener) -> io::Result<Self> {
        listener.set_nonblocking(false)?;
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            let loopback: IpAddr = match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            };
            wake_addr.set_ip(loopback);
        }
        Ok(TcpAcceptor { listener, wake_addr })
    }
}

impl Acceptor for TcpAcceptor {
    type Conn = TcpStream;
    fn accept(&mut self) -> io::Result<TcpStream> {
        let (sock, _peer) = self.listener.accept()?;
        // Same reason as in `dial`. A socket we cannot configure is
        // indistinguishable from one that hung up.
        sock.set_nodelay(true)
            .map_err(|e| io::Error::new(io::ErrorKind::ConnectionAborted, e))?;
        Ok(sock)
    }

    fn waker(&self) -> AcceptWaker {
        let addr = self.wake_addr;
        Box::new(move || TcpStream::connect_timeout(&addr, WAKE_DIAL_LIMIT).map(drop))
    }
}

enum QueueItem<C> {
    Conn(C),
    Fault(io::Error),
}

struct AcceptQueueState<C> {
    items: VecDeque<QueueItem<C>>,
    closed: bool,
    /// Set by the waker, consumed by the `accept` it unblocks.
    woken: bool,
}

struct AcceptQueueShared<C> {
    state: Mutex<AcceptQueueState<C>>,
    ready: Condvar,
}

/// Producer half of an in-memory accept queue: the "network" side that
/// dials connections (and, in tests, injects accept errors).
pub struct QueuePusher<C> {
    shared: Arc<AcceptQueueShared<C>>,
}

impl<C> Clone for QueuePusher<C> {
    fn clone(&self) -> Self {
        QueuePusher { shared: self.shared.clone() }
    }
}

/// Consumer half: an [`Acceptor`] a pool accepts from.
pub struct QueueAcceptor<C> {
    shared: Arc<AcceptQueueShared<C>>,
}

impl<C> QueuePusher<C> {
    /// Enqueue one inbound connection.
    pub fn push(&self, conn: C) -> io::Result<()> {
        let mut st = self.shared.state.lock();
        if st.closed {
            return Err(io::Error::new(io::ErrorKind::NotConnected, "accept queue closed"));
        }
        st.items.push_back(QueueItem::Conn(conn));
        self.shared.ready.notify_all();
        Ok(())
    }

    /// Enqueue an accept *error* — the next `accept` returns it.
    /// This is how tests inject `EMFILE`-class failures.
    pub fn push_err(&self, err: io::Error) {
        let mut st = self.shared.state.lock();
        st.items.push_back(QueueItem::Fault(err));
        self.shared.ready.notify_all();
    }

    /// Close the queue: once drained, `accept` reports listener
    /// teardown and the accept loop exits.
    pub fn close(&self) {
        let mut st = self.shared.state.lock();
        st.closed = true;
        self.shared.ready.notify_all();
    }
}

impl<C> Drop for QueuePusher<C> {
    fn drop(&mut self) {
        // Last pusher gone (only the acceptor's reference remains):
        // behave like a closed listener.
        if Arc::strong_count(&self.shared) <= 2 {
            self.close();
        }
    }
}

impl<C: Send + 'static> Acceptor for QueueAcceptor<C> {
    type Conn = C;
    fn accept(&mut self) -> io::Result<C> {
        let mut st = self.shared.state.lock();
        loop {
            match st.items.pop_front() {
                Some(QueueItem::Conn(c)) => return Ok(c),
                Some(QueueItem::Fault(e)) => return Err(e),
                None if st.closed => {
                    return Err(io::Error::new(
                        io::ErrorKind::NotConnected,
                        "accept queue closed",
                    ));
                }
                None if st.woken => {
                    st.woken = false;
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "accept woken"));
                }
                None => self.shared.ready.wait(&mut st),
            }
        }
    }

    fn waker(&self) -> AcceptWaker {
        // Weak: a strong reference would keep `QueuePusher`'s
        // last-pusher-gone count from ever closing the queue.
        let shared = Arc::downgrade(&self.shared);
        Box::new(move || {
            if let Some(shared) = shared.upgrade() {
                shared.state.lock().woken = true;
                shared.ready.notify_all();
            }
            Ok(())
        })
    }
}

/// A connected in-memory "listener": push connections on one side, let
/// a [`serve`] pool accept them on the other.
pub fn accept_queue<C: Send + 'static>() -> (QueuePusher<C>, QueueAcceptor<C>) {
    let shared = Arc::new(AcceptQueueShared {
        state: Mutex::new(AcceptQueueState { items: VecDeque::new(), closed: false, woken: false }),
        ready: Condvar::new(),
    });
    (QueuePusher { shared: shared.clone() }, QueueAcceptor { shared })
}

/// What the accept loop should do with an `accept()` error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AcceptDisposition {
    /// Nothing accepted (interrupted or woken); accept again.
    Idle,
    /// Transient failure (`ECONNABORTED`, `EMFILE`/`ENFILE`, ...):
    /// retry with backoff. This is the availability bug the old loops
    /// had — they treated these as fatal and exited.
    Transient,
    /// The listener is gone; stop accepting.
    Fatal,
}

/// Classify an accept error. `WouldBlock`-class means idle;
/// connection-racing and fd-exhaustion errors are transient; anything
/// else is listener teardown.
pub fn classify_accept_error(e: &io::Error) -> AcceptDisposition {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted => {
            AcceptDisposition::Idle
        }
        io::ErrorKind::ConnectionAborted | io::ErrorKind::ConnectionReset => {
            AcceptDisposition::Transient
        }
        _ => match e.raw_os_error() {
            // ENFILE (23) / EMFILE (24): fd exhaustion under load —
            // exactly the situation a credential repository must ride
            // out, not die from.
            Some(23) | Some(24) => AcceptDisposition::Transient,
            _ => AcceptDisposition::Fatal,
        },
    }
}

struct PoolState<C> {
    queue: VecDeque<C>,
    /// One condvar per parked worker, the most recently parked last.
    /// Hand-off pops from the top, so a pool that is faster than its
    /// arrivals keeps reusing the few workers it really runs at once —
    /// their stacks, caches and malloc arenas — instead of cycling
    /// through every thread.
    idle: Vec<Arc<Condvar>>,
}

struct PoolShared<C> {
    state: Mutex<PoolState<C>>,
    stop: AtomicBool,
    stats: Arc<NetStats>,
}

/// Type-erased view of the pool that [`ShutdownHandle`] drives.
trait PoolControl: Send + Sync {
    fn request_stop(&self);
    fn wake_all(&self);
    fn clear_queue(&self) -> u64;
    fn active(&self) -> u64;
    #[cfg(test)]
    fn parked(&self) -> usize;
}

impl<C: Send> PoolControl for PoolShared<C> {
    fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
    }
    fn wake_all(&self) {
        // Under the lock: a worker between its stop check and its
        // wait is not yet listed, and will see the stop flag instead.
        let st = self.state.lock();
        for parked in &st.idle {
            parked.notify_one();
        }
    }
    fn clear_queue(&self) -> u64 {
        let dropped = {
            let mut st = self.state.lock();
            let n = st.queue.len() as u64;
            st.queue.clear();
            n
        };
        for _ in 0..dropped {
            self.stats.aborted.inc();
            self.stats.active.dec();
            self.stats.queued.dec();
        }
        dropped
    }
    fn active(&self) -> u64 {
        self.stats.active()
    }
    #[cfg(test)]
    fn parked(&self) -> usize {
        self.state.lock().idle.len()
    }
}

fn worker_loop<C, S>(shared: Arc<PoolShared<C>>, service: Arc<S>, idle: Option<Duration>)
where
    C: Send + 'static,
    S: Service<C>,
{
    let wake = Arc::new(Condvar::new());
    loop {
        let conn = {
            let mut st = shared.state.lock();
            loop {
                if let Some(c) = st.queue.pop_front() {
                    shared.stats.queued.dec();
                    break Some(c);
                }
                if shared.stop.load(Ordering::Acquire) {
                    break None;
                }
                st.idle.push(wake.clone());
                wake.wait(&mut st);
                // A hand-off already popped us; a spurious wake did
                // not. Either way we are not parked any more.
                st.idle.retain(|w| !Arc::ptr_eq(w, &wake));
            }
        };
        let Some(conn) = conn else { return };
        // The guard is gone: the (possibly long) handler runs outside
        // any pool lock.
        let outcome = service.handle(conn, idle);
        match outcome {
            Outcome::Ok => shared.stats.completed.inc(),
            Outcome::Timeout => shared.stats.timeouts.inc(),
            Outcome::Error => shared.stats.handler_errors.inc(),
        }
        shared.stats.active.dec();
    }
}

fn accept_loop<A, S>(mut acceptor: A, shared: Arc<PoolShared<A::Conn>>, service: Arc<S>, cfg: NetConfig)
where
    A: Acceptor,
    A::Conn: DeadlineControl,
    S: Service<A::Conn>,
{
    let mut backoff = cfg.accept_backoff_start;
    loop {
        let accepted = acceptor.accept();
        // Checked after `accept` returns: whatever woke a stopping pool
        // (the waker's self-dial included) is neither counted nor
        // queued.
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        match accepted {
            Ok(conn) => {
                backoff = cfg.accept_backoff_start;
                shared.stats.accepted.inc();
                // Arm the handshake deadline before the connection can
                // block anyone — including the shed path right below.
                conn.set_deadlines(cfg.handshake_deadline, cfg.handshake_deadline);
                if shared.stats.active() >= cfg.max_connections as u64 {
                    shared.stats.shed.inc();
                    service.shed(conn);
                    continue;
                }
                shared.stats.active.inc();
                let hottest = {
                    let mut st = shared.state.lock();
                    st.queue.push_back(conn);
                    shared.stats.queued.inc();
                    st.idle.pop()
                };
                // Outside the lock, so the woken worker does not block
                // on it straight away.
                if let Some(worker) = hottest {
                    worker.notify_one();
                }
            }
            Err(e) => match classify_accept_error(&e) {
                AcceptDisposition::Idle => {}
                AcceptDisposition::Transient => {
                    shared.stats.accept_retries.inc();
                    std::thread::sleep(backoff);
                    backoff = backoff.saturating_mul(2).min(cfg.accept_backoff_max);
                }
                AcceptDisposition::Fatal => return,
            },
        }
    }
}

/// Result of a [`ShutdownHandle::shutdown`]/[`ShutdownHandle::join`].
#[derive(Clone, Copy, Debug)]
pub struct ShutdownReport {
    /// Did every in-flight handler finish within the grace period?
    pub drained: bool,
    /// Queued connections dropped unserved.
    pub aborted: u64,
    /// Worker threads joined.
    pub workers_joined: usize,
}

/// Handle to a running [`serve`] pool.
///
/// Dropping the handle *detaches* the pool (it keeps serving for the
/// life of the process), preserving the fire-and-forget behavior of
/// the old `serve_tcp`. Call [`shutdown`](Self::shutdown) for the
/// graceful path or [`join`](Self::join) to block until the listener
/// dies on its own.
pub struct ShutdownHandle {
    control: Arc<dyn PoolControl>,
    stats: Arc<NetStats>,
    grace: Duration,
    accept: Option<(JoinHandle<()>, AcceptWaker)>,
    sweep: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ShutdownHandle {
    /// Live counters for this pool.
    pub fn stats(&self) -> Arc<NetStats> {
        self.stats.clone()
    }

    /// Workers parked waiting for a connection.
    #[cfg(test)]
    fn parked(&self) -> usize {
        self.control.parked()
    }

    /// Stop accepting, drain in-flight handlers for up to the grace
    /// period, abort whatever is still queued, and join every thread.
    /// An accept thread whose wake could not be delivered is detached
    /// rather than waited for.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.control.request_stop();
        self.control.wake_all();
        if let Some((h, wake)) = self.accept.take() {
            if wake().is_ok() {
                join_counting_panics(h, &self.stats);
            }
        }
        self.teardown()
    }

    /// Block until the accept loop exits on its own (listener
    /// teardown), then drain and join like [`shutdown`](Self::shutdown).
    pub fn join(mut self) -> ShutdownReport {
        if let Some((h, _)) = self.accept.take() {
            join_counting_panics(h, &self.stats);
        }
        self.control.request_stop();
        self.teardown()
    }

    fn teardown(&mut self) -> ShutdownReport {
        if let Some(h) = self.sweep.take() {
            h.thread().unpark();
            join_counting_panics(h, &self.stats);
        }
        // Grace period: in-flight handlers (bounded by their deadlines)
        // get a chance to finish before we abandon the drain.
        let deadline = Instant::now().checked_add(self.grace);
        let mut drained;
        loop {
            drained = self.control.active() == 0;
            let within_grace = match deadline {
                Some(d) => Instant::now() < d,
                None => false,
            };
            if drained || !within_grace {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let aborted = self.control.clear_queue();
        self.control.request_stop();
        self.control.wake_all();
        let workers: Vec<_> = self.workers.drain(..).collect();
        let mut joined = 0;
        for h in workers {
            join_counting_panics(h, &self.stats);
            joined += 1;
        }
        ShutdownReport { drained, aborted, workers_joined: joined }
    }
}

/// Join a pool thread; a panicked thread is recorded in
/// [`NetStats::panics`] rather than silently discarded.
fn join_counting_panics(h: JoinHandle<()>, stats: &NetStats) {
    if h.join().is_err() {
        stats.panics.inc();
    }
}

impl Drop for ShutdownHandle {
    fn drop(&mut self) {
        // Detach: dropping JoinHandles leaves the pool running.
        self.accept.take();
        self.sweep.take();
        self.workers.clear();
    }
}

/// Start a pool: one accept thread blocking on `acceptor`,
/// `cfg.workers` worker threads driving `service`, and a `net-sweep`
/// thread if `cfg.sweep_interval` is set. The pool's [`NetStats`] are
/// private to the returned handle; use [`serve_scoped`] to surface them
/// on a service's scrape registry.
pub fn serve<A, S>(acceptor: A, service: Arc<S>, cfg: NetConfig) -> io::Result<ShutdownHandle>
where
    A: Acceptor,
    A::Conn: DeadlineControl,
    S: Service<A::Conn>,
{
    serve_with_stats(acceptor, service, cfg, Arc::new(NetStats::default()))
}

/// [`serve`], with the pool's counters interned into `registry` as
/// `net.<scope>.*` so a `/metrics` scrape or GSI INFO snapshot sees
/// them. Each pool needs its own `scope` — two pools sharing one
/// (notably the `active` gauge, which enforces the connection cap)
/// would corrupt each other's accounting.
pub fn serve_scoped<A, S>(
    acceptor: A,
    service: Arc<S>,
    cfg: NetConfig,
    registry: &Registry,
    scope: &str,
) -> io::Result<ShutdownHandle>
where
    A: Acceptor,
    A::Conn: DeadlineControl,
    S: Service<A::Conn>,
{
    serve_with_stats(acceptor, service, cfg, Arc::new(NetStats::scoped(registry, scope)))
}

/// The `net-sweep` thread: [`Service::sweep`] every `interval` until
/// the pool stops (teardown unparks it).
fn sweep_loop<C, S>(shared: Arc<PoolShared<C>>, service: Arc<S>, interval: Duration)
where
    S: Service<C>,
{
    let mut last = Instant::now();
    loop {
        std::thread::park_timeout(interval.saturating_sub(last.elapsed()));
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        if last.elapsed() >= interval {
            service.sweep();
            last = Instant::now();
        }
    }
}

fn serve_with_stats<A, S>(
    acceptor: A,
    service: Arc<S>,
    cfg: NetConfig,
    stats: Arc<NetStats>,
) -> io::Result<ShutdownHandle>
where
    A: Acceptor,
    A::Conn: DeadlineControl,
    S: Service<A::Conn>,
{
    let shared = Arc::new(PoolShared {
        state: Mutex::new(PoolState { queue: VecDeque::new(), idle: Vec::new() }),
        stop: AtomicBool::new(false),
        stats: stats.clone(),
    });
    // Filled as threads start; on a failed spawn, shutting it down
    // stops and joins whatever did start.
    let mut pool = ShutdownHandle {
        control: shared.clone(),
        stats,
        grace: cfg.shutdown_grace,
        accept: None,
        sweep: None,
        workers: Vec::new(),
    };

    for i in 0..cfg.workers.max(1) {
        let sh = shared.clone();
        let svc = service.clone();
        let idle = cfg.idle_deadline;
        let spawned = std::thread::Builder::new()
            .name(format!("net-worker-{i}"))
            .spawn(move || worker_loop(sh, svc, idle));
        match spawned {
            Ok(h) => pool.workers.push(h),
            Err(e) => {
                pool.shutdown();
                return Err(e);
            }
        }
    }

    if let Some(interval) = cfg.sweep_interval {
        let sh = shared.clone();
        let svc = service.clone();
        let spawned = std::thread::Builder::new()
            .name("net-sweep".into())
            .spawn(move || sweep_loop(sh, svc, interval));
        match spawned {
            Ok(h) => pool.sweep = Some(h),
            Err(e) => {
                pool.shutdown();
                return Err(e);
            }
        }
    }

    let waker = acceptor.waker();
    let loop_cfg = cfg.clone();
    let spawned = std::thread::Builder::new()
        .name("net-accept".into())
        .spawn(move || accept_loop(acceptor, shared, service, loop_cfg));
    match spawned {
        Ok(h) => pool.accept = Some((h, waker)),
        Err(e) => {
            pool.shutdown();
            return Err(e);
        }
    }
    Ok(pool)
}

/// How a [`FaultyTransport`] sabotages reads once armed.
#[derive(Clone, Copy, Debug)]
enum ReadFault {
    Eof,
    Error(io::ErrorKind),
    Stall,
}

/// Fault-injection transport wrapper.
///
/// All our protocols (handshake, sealed records, HTTP-free GRAM
/// framing) ride on 4-byte big-endian length-prefixed frames, so the
/// wrapper counts *frames*, not bytes: reads never cross a frame
/// boundary, and a fault armed "after k frames" fires at a
/// deterministic protocol state regardless of read fragmentation.
/// `eof_after_read_frames(1)` on a server-side connection is a
/// mid-handshake disconnect (ClientHello arrived, KeyExchange never
/// will); during a PUT, frame 4 is the request record, so
/// `eof_after_read_frames(4)` kills the connection mid-delegation.
pub struct FaultyTransport<T> {
    inner: T,
    short_reads: bool,
    read_fault: Option<(u64, ReadFault)>,
    write_fault: Option<(u64, io::ErrorKind)>,
    frames_completed: u64,
    bytes_written: u64,
    header_have: usize,
    header: [u8; 4],
    body_remaining: usize,
    deadline: Cell<Option<Duration>>,
}

impl<T> FaultyTransport<T> {
    /// Wrap `inner` with no faults armed (a passthrough).
    pub fn new(inner: T) -> Self {
        FaultyTransport {
            inner,
            short_reads: false,
            read_fault: None,
            write_fault: None,
            frames_completed: 0,
            bytes_written: 0,
            header_have: 0,
            header: [0u8; 4],
            body_remaining: 0,
            deadline: Cell::new(None),
        }
    }

    /// Deliver at most one byte per read call (maximal fragmentation).
    pub fn short_reads(mut self) -> Self {
        self.short_reads = true;
        self
    }

    /// Reads return EOF once `frames` whole frames have been consumed —
    /// the peer "disconnected" at that protocol state.
    pub fn eof_after_read_frames(mut self, frames: u64) -> Self {
        self.read_fault = Some((frames, ReadFault::Eof));
        self
    }

    /// Reads fail with `kind` once `frames` whole frames have been
    /// consumed.
    pub fn error_after_read_frames(mut self, frames: u64, kind: io::ErrorKind) -> Self {
        self.read_fault = Some((frames, ReadFault::Error(kind)));
        self
    }

    /// Reads hang once `frames` whole frames have been consumed — a
    /// half-open peer. The hang respects the transport's own deadline
    /// (set via [`DeadlineControl`]); with none set it gives up after
    /// 30 s so a buggy pool cannot wedge the test suite.
    pub fn stall_after_read_frames(mut self, frames: u64) -> Self {
        self.read_fault = Some((frames, ReadFault::Stall));
        self
    }

    /// Writes fail with `kind` once `bytes` bytes have gone through.
    pub fn error_after_write_bytes(mut self, bytes: u64, kind: io::ErrorKind) -> Self {
        self.write_fault = Some((bytes, kind));
        self
    }

    /// Whole frames read so far.
    pub fn frames_read(&self) -> u64 {
        self.frames_completed
    }

    /// Largest read this call may perform without crossing a frame
    /// boundary.
    fn unit_remaining(&self) -> usize {
        if self.body_remaining > 0 {
            self.body_remaining
        } else {
            4 - self.header_have
        }
    }

    /// Account `chunk` (bytes just read) against the frame tracker.
    fn advance(&mut self, chunk: &[u8]) {
        for &b in chunk {
            if self.body_remaining > 0 {
                self.body_remaining -= 1;
            } else {
                if let Some(slot) = self.header.get_mut(self.header_have) {
                    *slot = b;
                }
                self.header_have += 1;
                if self.header_have == 4 {
                    self.body_remaining = u32::from_be_bytes(self.header) as usize;
                    self.header_have = 0;
                }
            }
            if self.body_remaining == 0 && self.header_have == 0 {
                self.frames_completed += 1;
            }
        }
    }

    fn stall(&self) -> io::Result<usize> {
        let cap = match self.deadline.get() {
            Some(d) => d,
            None => Duration::from_secs(30),
        };
        std::thread::sleep(cap);
        Err(io::Error::new(io::ErrorKind::TimedOut, "stalled peer: read deadline exceeded"))
    }
}

impl<T: Read> Read for FaultyTransport<T> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        if let Some((after, fault)) = self.read_fault {
            if self.frames_completed >= after {
                return match fault {
                    ReadFault::Eof => Ok(0),
                    ReadFault::Error(kind) => {
                        Err(io::Error::new(kind, "injected read fault"))
                    }
                    ReadFault::Stall => self.stall(),
                };
            }
        }
        let mut cap = self.unit_remaining().min(buf.len());
        if self.short_reads {
            cap = cap.min(1);
        }
        let Some(slice) = buf.get_mut(..cap) else {
            return Ok(0);
        };
        let n = self.inner.read(slice)?;
        if let Some(chunk) = slice.get(..n) {
            let copied: Vec<u8> = chunk.to_vec();
            self.advance(&copied);
        }
        Ok(n)
    }
}

impl<T: Write> Write for FaultyTransport<T> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if let Some((after, kind)) = self.write_fault {
            if self.bytes_written >= after {
                return Err(io::Error::new(kind, "injected write fault"));
            }
        }
        let n = self.inner.write(buf)?;
        self.bytes_written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<T: DeadlineControl> DeadlineControl for FaultyTransport<T> {
    fn set_deadlines(&self, read: Option<Duration>, write: Option<Duration>) {
        self.deadline.set(read);
        self.inner.set_deadlines(read, write);
    }
}

/// Tracked handler threads for the fire-and-forget `connect_local`
/// paths: spawn like `std::thread::spawn`, but keep the `JoinHandle`
/// so shutdown can join instead of racing process exit.
#[derive(Default)]
pub struct HandlerSet {
    handles: Mutex<Vec<JoinHandle<()>>>,
    panicked: Counter,
}

impl HandlerSet {
    /// An empty set.
    pub fn new() -> Self {
        HandlerSet::default()
    }

    /// Handlers that terminated by panicking (observed at drain time).
    pub fn panicked(&self) -> u64 {
        self.panicked.get()
    }

    /// Spawn a named handler thread and track its handle. Finished
    /// handles are reaped opportunistically so the set stays small.
    pub fn spawn<F>(&self, name: &str, f: F) -> io::Result<()>
    where
        F: FnOnce() + Send + 'static,
    {
        let handle = std::thread::Builder::new().name(name.to_string()).spawn(f)?;
        let mut v = self.handles.lock();
        v.retain(|h| !h.is_finished());
        v.push(handle);
        Ok(())
    }

    /// Dial a daemon in memory: `handle` serves the server end on a
    /// tracked thread under the pool's deadline discipline (default
    /// [`NetConfig`]: handshake deadline armed before any I/O, the idle
    /// deadline handed to `handle` to re-arm once the handshake is
    /// done) and the client end is returned. A handler error — or a
    /// failed spawn, which the client sees as EOF — is counted in
    /// `errors`, there being no caller to return it to.
    pub fn connect_local<E>(
        &self,
        name: &str,
        errors: &Counter,
        handle: impl FnOnce(MemStream, Option<Duration>) -> Result<(), E> + Send + 'static,
    ) -> MemStream {
        let (client_end, server_end) = crate::transport::duplex();
        let cfg = NetConfig::default();
        let counted = errors.clone();
        let spawned = self.spawn(name, move || {
            server_end.set_deadlines(cfg.handshake_deadline, cfg.handshake_deadline);
            if handle(server_end, cfg.idle_deadline).is_err() {
                counted.inc();
            }
        });
        if spawned.is_err() {
            errors.inc();
        }
        client_end
    }

    /// Join every tracked handler; returns how many were joined.
    pub fn drain(&self) -> usize {
        let handles: Vec<JoinHandle<()>> = {
            let mut v = self.handles.lock();
            v.drain(..).collect()
        };
        let n = handles.len();
        for h in handles {
            if h.join().is_err() {
                self.panicked.inc();
            }
        }
        n
    }

    /// Handlers currently tracked (may include already-finished ones
    /// not yet reaped).
    pub fn len(&self) -> usize {
        self.handles.lock().len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::duplex;
    use std::io::{Read, Write};

    struct Echo;
    impl Service<BoxedConn> for Echo {
        fn handle(&self, mut conn: BoxedConn, idle: Option<Duration>) -> Outcome {
            conn.set_deadlines(idle, idle);
            let mut buf = [0u8; 64];
            loop {
                match conn.read(&mut buf) {
                    Ok(0) => return Outcome::Ok,
                    Ok(n) => {
                        let Some(chunk) = buf.get(..n) else { return Outcome::Error };
                        if conn.write_all(chunk).is_err() {
                            return Outcome::Error;
                        }
                        if conn.flush().is_err() {
                            return Outcome::Error;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::TimedOut => return Outcome::Timeout,
                    Err(_) => return Outcome::Error,
                }
            }
        }
    }

    fn quick_cfg() -> NetConfig {
        NetConfig {
            workers: 2,
            max_connections: 8,
            handshake_deadline: Some(Duration::from_millis(500)),
            idle_deadline: Some(Duration::from_millis(500)),
            shutdown_grace: Duration::from_secs(2),
            accept_backoff_start: Duration::from_millis(1),
            accept_backoff_max: Duration::from_millis(20),
            sweep_interval: None,
        }
    }

    #[test]
    fn pool_serves_and_shuts_down() {
        let (push, accept) = accept_queue::<BoxedConn>();
        let handle = serve(accept, Arc::new(Echo), quick_cfg()).unwrap();
        let (mut client, server_end) = duplex();
        push.push(Box::new(server_end)).unwrap();
        client.write_all(b"hello").unwrap();
        let mut buf = [0u8; 5];
        client.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        drop(client);
        let stats = handle.stats();
        let report = handle.shutdown();
        assert!(report.drained);
        assert_eq!(report.workers_joined, 2);
        assert_eq!(stats.completed(), 1);
    }

    #[test]
    fn accept_loop_survives_transient_errors() {
        let (push, accept) = accept_queue::<BoxedConn>();
        let handle = serve(accept, Arc::new(Echo), quick_cfg()).unwrap();
        push.push_err(io::Error::new(io::ErrorKind::ConnectionAborted, "aborted"));
        push.push_err(io::Error::from_raw_os_error(24)); // EMFILE
        let (mut client, server_end) = duplex();
        push.push(Box::new(server_end)).unwrap();
        client.write_all(b"ok").unwrap();
        let mut buf = [0u8; 2];
        client.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ok");
        drop(client);
        let stats = handle.stats();
        handle.shutdown();
        assert!(stats.accept_retries() >= 2, "retries = {}", stats.accept_retries());
    }

    /// Counts sweeps; serves nothing.
    #[derive(Default)]
    struct Sweeps(Counter);
    impl<C: Send + 'static> Service<C> for Sweeps {
        fn handle(&self, _conn: C, _idle: Option<Duration>) -> Outcome {
            Outcome::Ok
        }
        fn sweep(&self) {
            self.0.inc();
        }
    }

    /// An idle pool sweeps on its own thread while `accept` blocks, and
    /// its shutdown wake is prompt and neither counted nor queued.
    fn idle_pool_sweeps_then_wakes_for_shutdown<A>(acceptor: A)
    where
        A: Acceptor,
        A::Conn: DeadlineControl,
    {
        let sweeps = Arc::new(Sweeps::default());
        let cfg = NetConfig { sweep_interval: Some(Duration::from_millis(20)), ..quick_cfg() };
        let handle = serve(acceptor, sweeps.clone(), cfg).unwrap();
        std::thread::sleep(Duration::from_millis(200));
        assert!(sweeps.0.get() >= 3, "{} sweeps in 200 ms", sweeps.0.get());
        let stats = handle.stats();
        let started = Instant::now();
        let report = handle.shutdown();
        assert!(started.elapsed() < Duration::from_secs(1), "shutdown took {:?}", started.elapsed());
        assert!(report.drained);
        assert_eq!((stats.accepted(), stats.completed(), report.aborted), (0, 0, 0));
    }

    #[test]
    fn blocking_accept_wakes_for_shutdown_and_the_sweep_runs_on_its_own_thread() {
        for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
            let listener = TcpListener::bind(bind).unwrap();
            idle_pool_sweeps_then_wakes_for_shutdown(TcpAcceptor::new(listener).unwrap());
        }
        let (_push, accept) = accept_queue::<BoxedConn>();
        idle_pool_sweeps_then_wakes_for_shutdown(accept);
    }

    /// An acceptor whose wake never arrives: `accept` stays blocked
    /// until the test lets go of it.
    struct Unwakeable(std::sync::mpsc::Receiver<()>);
    impl Acceptor for Unwakeable {
        type Conn = BoxedConn;
        fn accept(&mut self) -> io::Result<BoxedConn> {
            let _ = self.0.recv();
            Err(io::Error::new(io::ErrorKind::NotConnected, "released"))
        }
        fn waker(&self) -> AcceptWaker {
            Box::new(|| Err(io::Error::new(io::ErrorKind::TimedOut, "wake dial failed")))
        }
    }

    #[test]
    fn shutdown_detaches_an_accept_thread_it_cannot_wake() {
        let (release, blocked) = std::sync::mpsc::channel();
        let handle = serve(Unwakeable(blocked), Arc::new(Echo), quick_cfg()).unwrap();
        let started = Instant::now();
        let report = handle.shutdown();
        assert!(started.elapsed() < Duration::from_secs(1), "shutdown took {:?}", started.elapsed());
        assert_eq!(report.workers_joined, 2);
        drop(release);
    }

    #[test]
    fn accepted_and_dialled_sockets_are_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut acceptor = TcpAcceptor::new(listener).unwrap();
        let dialled = dial(addr).unwrap();
        let accepted = acceptor.accept().unwrap();
        assert!(dialled.nodelay().unwrap(), "dialled socket");
        assert!(accepted.nodelay().unwrap(), "accepted socket");
    }

    /// Answers one byte with one byte, noting which worker served it.
    #[derive(Default)]
    struct WhoServed(Mutex<Vec<String>>);
    impl Service<BoxedConn> for WhoServed {
        fn handle(&self, mut conn: BoxedConn, _idle: Option<Duration>) -> Outcome {
            let name = std::thread::current().name().unwrap_or("?").to_string();
            self.0.lock().push(name);
            let mut byte = [0u8; 1];
            match conn.read_exact(&mut byte).and_then(|()| conn.write_all(&byte)) {
                Ok(()) => Outcome::Ok,
                Err(_) => Outcome::Error,
            }
        }
    }

    impl WhoServed {
        fn distinct(&self) -> std::collections::BTreeSet<String> {
            self.0.lock().drain(..).collect()
        }
    }

    fn one_request(push: &QueuePusher<BoxedConn>) {
        let (mut client, server_end) = duplex();
        push.push(Box::new(server_end)).unwrap();
        client.write_all(b"?").unwrap();
        let mut byte = [0u8; 1];
        client.read_exact(&mut byte).unwrap();
    }

    /// Wait until at least `n` workers are parked: a client that has
    /// its answer may dial again before its worker re-parks, and on a
    /// loaded machine that window is a scheduler timeslice.
    fn await_parked(handle: &ShutdownHandle, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while handle.parked() < n {
            assert!(Instant::now() < deadline, "workers never parked");
            std::thread::yield_now();
        }
    }

    #[test]
    fn the_most_recently_parked_worker_serves() {
        let who = Arc::new(WhoServed::default());
        let (push, accept) = accept_queue::<BoxedConn>();
        let handle = serve(accept, who.clone(), NetConfig { workers: 8, ..quick_cfg() }).unwrap();

        for _ in 0..20 {
            await_parked(&handle, 8);
            one_request(&push);
        }
        let sequential = who.distinct();
        assert_eq!(sequential.len(), 1, "sequential connections spread over {sequential:?}");

        // Two closed-loop clients, each dialling once only the other's
        // connection may still hold a worker. A FIFO hand-off would
        // cycle through all eight.
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..20 {
                        await_parked(&handle, 7);
                        one_request(&push);
                    }
                });
            }
        });
        let concurrent = who.distinct();
        assert!(concurrent.len() <= 3, "two closed-loop clients touched {concurrent:?}");

        let stats = handle.stats();
        handle.shutdown();
        assert_eq!(stats.completed(), 60);
    }

    #[test]
    fn classification_table() {
        use AcceptDisposition::*;
        let k = |kind: io::ErrorKind| classify_accept_error(&io::Error::new(kind, "x"));
        assert_eq!(k(io::ErrorKind::WouldBlock), Idle);
        assert_eq!(k(io::ErrorKind::Interrupted), Idle);
        assert_eq!(k(io::ErrorKind::ConnectionAborted), Transient);
        assert_eq!(classify_accept_error(&io::Error::from_raw_os_error(24)), Transient);
        assert_eq!(classify_accept_error(&io::Error::from_raw_os_error(23)), Transient);
        assert_eq!(k(io::ErrorKind::NotConnected), Fatal);
    }

    #[test]
    fn faulty_transport_counts_frames() {
        let (mut a, b) = duplex();
        // Two frames: 3-byte body and 1-byte body.
        a.write_all(&[0, 0, 0, 3, b'x', b'y', b'z']).unwrap();
        a.write_all(&[0, 0, 0, 1, b'q']).unwrap();
        let mut ft = FaultyTransport::new(b).short_reads().eof_after_read_frames(2);
        let mut out = Vec::new();
        let mut buf = [0u8; 16];
        loop {
            match ft.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => out.extend_from_slice(buf.get(..n).unwrap()),
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        // Both frames delivered in full, then EOF — never a third.
        assert_eq!(out, vec![0, 0, 0, 3, b'x', b'y', b'z', 0, 0, 0, 1, b'q']);
        assert_eq!(ft.frames_read(), 2);
    }

    #[test]
    fn faulty_transport_write_fault_fires() {
        let (a, _b) = duplex();
        let mut ft = FaultyTransport::new(a).error_after_write_bytes(4, io::ErrorKind::BrokenPipe);
        ft.write_all(&[1, 2, 3, 4]).unwrap();
        let err = ft.write_all(&[5]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn handler_set_joins_all() {
        use std::sync::atomic::AtomicU64;
        let set = HandlerSet::new();
        let counter = Arc::new(AtomicU64::new(0));
        for i in 0..4 {
            let c = counter.clone();
            set.spawn(&format!("h{i}"), move || {
                std::thread::sleep(Duration::from_millis(5));
                c.fetch_add(1, Ordering::AcqRel);
            })
            .unwrap();
        }
        assert_eq!(set.drain(), 4);
        assert_eq!(counter.load(Ordering::Acquire), 4);
    }
}
