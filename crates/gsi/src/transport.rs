//! Byte transports: anything `Read + Write + Send` works under the
//! secure channel. Real deployments use TCP ([`std::net::TcpStream`]
//! already qualifies); tests and benches use the in-memory [`duplex`]
//! pipe; the §5.2 snooping experiments wrap either in a [`Tap`].

use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A bidirectional byte stream usable by the channel layer.
pub trait Transport: Read + Write + Send {}
impl<T: Read + Write + Send> Transport for T {}

/// A boxed transport, for components (like the Grid portal) that are
/// configured with connector closures rather than concrete stream types.
pub type BoxedTransport = Box<dyn ReadWriteSend>;

/// Object-safe supertrait bundle behind [`BoxedTransport`]. `Any` lets
/// a caller that knows what a connector dials (a test checking socket
/// options) get the concrete stream back with `downcast_ref`.
pub trait ReadWriteSend: Read + Write + Send + Any {}
impl<T: Read + Write + Send + Any> ReadWriteSend for T {}

/// A connector: dials a fresh connection to some service.
pub type Connector = std::sync::Arc<dyn Fn() -> std::io::Result<BoxedTransport> + Send + Sync>;

/// Shared state of one direction of a [`duplex`] pipe.
struct PipeState {
    buf: VecDeque<u8>,
    closed: bool,
}

struct Pipe {
    state: Mutex<PipeState>,
    readable: Condvar,
}

impl Pipe {
    fn new() -> Arc<Self> {
        Arc::new(Pipe {
            state: Mutex::new(PipeState { buf: VecDeque::new(), closed: false }),
            readable: Condvar::new(),
        })
    }

    fn write(&self, data: &[u8]) -> io::Result<usize> {
        let mut st = self.state.lock();
        if st.closed {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe closed"));
        }
        st.buf.extend(data);
        self.readable.notify_all();
        Ok(data.len())
    }

    fn read(&self, out: &mut [u8], timeout: Option<Duration>) -> io::Result<usize> {
        // A deadline, not a per-wait timeout: spurious wakeups and
        // partial waits never extend the total blocking time.
        let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
        let mut st = self.state.lock();
        while st.buf.is_empty() {
            if st.closed {
                return Ok(0); // EOF
            }
            match deadline {
                None => self.readable.wait(&mut st),
                Some(dl) => {
                    let left = dl.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "read deadline exceeded",
                        ));
                    }
                    let _ = self.readable.wait_for(&mut st, left);
                }
            }
        }
        let n = out.len().min(st.buf.len());
        for (slot, byte) in out.iter_mut().zip(st.buf.drain(..n)) {
            *slot = byte;
        }
        Ok(n)
    }

    fn close(&self) {
        let mut st = self.state.lock();
        st.closed = true;
        self.readable.notify_all();
    }
}

/// One endpoint of an in-memory duplex connection.
///
/// Mirrors [`std::net::TcpStream`]'s deadline surface: an optional
/// read timeout turns a blocked read into `ErrorKind::TimedOut`, so
/// in-memory tests exercise the same eviction paths as real sockets.
pub struct MemStream {
    read_from: Arc<Pipe>,
    write_to: Arc<Pipe>,
    read_timeout: Cell<Option<Duration>>,
    write_timeout: Cell<Option<Duration>>,
}

impl MemStream {
    /// Cap how long a read may block (`None` = block forever), like
    /// [`std::net::TcpStream::set_read_timeout`] but infallible.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) {
        self.read_timeout.set(timeout);
    }

    /// Mirror of [`std::net::TcpStream::set_write_timeout`]. The pipe's
    /// buffer is unbounded so writes never block; the value is stored
    /// for API parity and introspection.
    pub fn set_write_timeout(&self, timeout: Option<Duration>) {
        self.write_timeout.set(timeout);
    }

    /// The currently configured read timeout.
    pub fn read_timeout(&self) -> Option<Duration> {
        self.read_timeout.get()
    }

    /// The currently configured write timeout.
    pub fn write_timeout(&self) -> Option<Duration> {
        self.write_timeout.get()
    }
}

impl Read for MemStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.read_from.read(buf, self.read_timeout.get())
    }
}

impl Write for MemStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_to.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for MemStream {
    fn drop(&mut self) {
        // Closing our write side EOFs the peer's reads; closing our read
        // side makes the peer's writes fail fast.
        self.write_to.close();
        self.read_from.close();
    }
}

/// Create a connected pair of in-memory streams. Blocking semantics
/// mirror a TCP socket: reads wait for data, EOF on peer drop.
pub fn duplex() -> (MemStream, MemStream) {
    let a_to_b = Pipe::new();
    let b_to_a = Pipe::new();
    (
        MemStream {
            read_from: b_to_a.clone(),
            write_to: a_to_b.clone(),
            read_timeout: Cell::new(None),
            write_timeout: Cell::new(None),
        },
        MemStream {
            read_from: a_to_b,
            write_to: b_to_a,
            read_timeout: Cell::new(None),
            write_timeout: Cell::new(None),
        },
    )
}

/// A wiretap: records every byte that passes in either direction.
///
/// Used by the security-property tests to play the network eavesdropper
/// of paper §5.1/§5.2 ("all data passing to and from the server is
/// encrypted") and to measure wire overhead in benches.
pub struct Tap<T> {
    inner: T,
    log: Arc<Mutex<TapLog>>,
}

/// Everything a [`Tap`] captured.
#[derive(Default, Clone)]
pub struct TapLog {
    /// Bytes written through the tap.
    pub sent: Vec<u8>,
    /// Bytes read through the tap.
    pub received: Vec<u8>,
}

impl TapLog {
    /// All captured bytes, both directions.
    pub fn all(&self) -> Vec<u8> {
        let mut v = self.sent.clone();
        v.extend_from_slice(&self.received);
        v
    }

    /// Does the capture contain `needle` as a substring?
    pub fn contains(&self, needle: &[u8]) -> bool {
        let all = self.all();
        !needle.is_empty() && all.windows(needle.len()).any(|w| w == needle)
    }
}

impl<T> Tap<T> {
    /// Wrap `inner`, returning the tap and a handle to its capture log.
    pub fn new(inner: T) -> (Self, Arc<Mutex<TapLog>>) {
        let log = Arc::new(Mutex::new(TapLog::default()));
        (Tap { inner, log: log.clone() }, log)
    }
}

impl<T: Read> Read for Tap<T> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        // Read contract says n <= buf.len(); don't panic if inner lies.
        if let Some(chunk) = buf.get(..n) {
            self.log.lock().received.extend_from_slice(chunk);
        }
        Ok(n)
    }
}

impl<T: Write> Write for Tap<T> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        // Write contract says n <= buf.len(); don't panic if inner lies.
        if let Some(chunk) = buf.get(..n) {
            self.log.lock().sent.extend_from_slice(chunk);
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn duplex_carries_bytes_both_ways() {
        let (mut a, mut b) = duplex();
        a.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        b.write_all(b"pong").unwrap();
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn duplex_blocks_until_data_arrives() {
        let (mut a, mut b) = duplex();
        let t = std::thread::spawn(move || {
            let mut buf = [0u8; 5];
            b.read_exact(&mut buf).unwrap();
            buf
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        a.write_all(b"later").unwrap();
        assert_eq!(&t.join().unwrap(), b"later");
    }

    #[test]
    fn read_timeout_fires_on_idle_pipe() {
        let (mut a, _b) = duplex();
        a.set_read_timeout(Some(std::time::Duration::from_millis(10)));
        let mut buf = [0u8; 1];
        let err = a.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
        // Clearing the timeout restores blocking reads (data already
        // queued, so this returns immediately).
        a.set_read_timeout(None);
        drop(_b);
        assert_eq!(a.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn read_timeout_does_not_drop_buffered_data() {
        let (mut a, mut b) = duplex();
        b.write_all(b"x").unwrap();
        a.set_read_timeout(Some(std::time::Duration::from_millis(1)));
        let mut buf = [0u8; 1];
        assert_eq!(a.read(&mut buf).unwrap(), 1);
        assert_eq!(&buf, b"x");
    }

    #[test]
    fn drop_gives_eof() {
        let (a, mut b) = duplex();
        drop(a);
        let mut buf = [0u8; 1];
        assert_eq!(b.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn write_after_peer_drop_fails() {
        let (mut a, b) = duplex();
        drop(b);
        assert!(a.write_all(b"x").is_err());
    }

    #[test]
    fn tap_records_both_directions() {
        let (a, mut b) = duplex();
        let (mut tapped, log) = Tap::new(a);
        tapped.write_all(b"secret-out").unwrap();
        b.write_all(b"secret-in").unwrap();
        let mut buf = [0u8; 9];
        tapped.read_exact(&mut buf).unwrap();
        let log = log.lock();
        assert!(log.contains(b"secret-out"));
        assert!(log.contains(b"secret-in"));
        assert!(!log.contains(b"never-sent"));
    }
}
