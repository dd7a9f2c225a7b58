//! The I/O thread pool: connection registration, per-connection mailboxes,
//! deadline scheduling, and loop statistics.
//!
//! One [`Reactor`] owns N I/O threads. Each thread owns one [`Epoll`]
//! instance plus a [`Waker`], and multiplexes the connections assigned to it
//! (round-robin at registration). A connection is a [`Driver`] — a state
//! machine the thread invokes whenever the socket is ready, a message lands
//! in the connection's mailbox, or the driver's self-requested deadline
//! falls due. Sockets are registered edge-triggered for both directions;
//! the contract that makes that safe is that `drive` always works its
//! socket to exhaustion (`WouldBlock`) in whichever directions it has
//! pending work, on every invocation.

use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io;
use std::net::TcpStream;
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Instant;

#[cfg(test)]
use std::time::Duration;

use crate::poll::{Epoll, Events, Interest};
use crate::wake::Waker;

/// Token reserved for each I/O thread's own waker.
const WAKE_TOKEN: u64 = u64::MAX;

/// Events harvested per `epoll_wait`.
const EVENT_BATCH: usize = 1024;

/// Readiness snapshot handed to [`Driver::drive`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Ready {
    /// The socket (probably) has bytes to read. Also set on the driver's
    /// first invocation and when the peer hung up (reads return EOF).
    pub readable: bool,
    /// The socket (probably) has room to write. Also set on the first
    /// invocation.
    pub writable: bool,
    /// The kernel reported an error/hangup condition for the socket.
    pub hangup: bool,
}

/// What a driver wants done with its connection after a `drive` call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Keep the connection registered.
    Continue,
    /// Unregister and drop the driver (closing its socket).
    Close,
}

/// Reactor-level controls available inside [`Driver::drive`].
pub struct Ctl {
    stop: bool,
}

impl Ctl {
    /// Requests shutdown of the whole reactor (all I/O threads, all
    /// connections) after this dispatch — the serverd SHUTDOWN op uses this.
    pub fn stop_reactor(&mut self) {
        self.stop = true;
    }
}

/// A per-connection state machine owned by one I/O thread.
///
/// The driver owns its socket (typically inside framing buffers). `drive`
/// is invoked with the reasons batched: fresh socket readiness, any
/// mailbox messages delivered since the last call, or a due deadline.
/// Because registration is edge-triggered, a driver must attempt reads
/// until `WouldBlock` whenever it wants more input, and retry buffered
/// writes on every call — progress never waits for a specific event kind.
pub trait Driver: Send {
    /// Message type other threads post through this connection's [`Mailbox`].
    type Msg: Send;

    /// Advances the connection. `msgs` holds newly delivered mailbox
    /// messages (drain it — undrained messages are redelivered next call).
    fn drive(&mut self, ready: Ready, msgs: &mut VecDeque<Self::Msg>, ctl: &mut Ctl) -> Status;

    /// When the driver next wants an unprompted `drive` call (pacing,
    /// timeouts). Re-queried after every dispatch; `None` means
    /// "only wake me for readiness or messages".
    fn deadline(&self) -> Option<Instant> {
        None
    }
}

/// Per-I/O-thread loop counters, snapshotted via [`Reactor::stats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct LoopStats {
    /// Which I/O thread this row describes.
    pub io_thread: usize,
    /// `epoll_wait` returns (loop turns).
    pub turns: u64,
    /// Socket readiness events harvested.
    pub events: u64,
    /// Waker (eventfd) firings observed.
    pub wakeups: u64,
    /// Mailbox messages delivered to drivers.
    pub messages: u64,
    /// Connections currently owned by this thread.
    pub connections: u64,
}

#[derive(Default)]
struct LoopCounters {
    turns: AtomicU64,
    events: AtomicU64,
    wakeups: AtomicU64,
    messages: AtomicU64,
    connections: AtomicU64,
}

/// What other threads can reach of one I/O thread.
struct IoShared<M> {
    waker: Waker,
    inbox: Mutex<Inbox<M>>,
    counters: LoopCounters,
}

struct Inbox<M> {
    msgs: Vec<(u64, M)>,
    incoming: Vec<Incoming<M>>,
}

struct Incoming<M> {
    token: u64,
    fd: RawFd,
    driver: Box<dyn Driver<Msg = M>>,
}

/// Posts messages to one registered connection, waking its I/O thread.
///
/// Cheap to clone; posting to a connection that already closed silently
/// drops the message (the reply would have nowhere to go anyway).
pub struct Mailbox<M> {
    shared: Arc<IoShared<M>>,
    token: u64,
}

impl<M> Clone for Mailbox<M> {
    fn clone(&self) -> Self {
        Mailbox {
            shared: Arc::clone(&self.shared),
            token: self.token,
        }
    }
}

impl<M: Send> Mailbox<M> {
    /// Delivers `msg` to the connection's next `drive` call and wakes the
    /// owning I/O thread.
    pub fn post(&self, msg: M) {
        {
            let mut inbox = self.shared.inbox.lock().expect("reactor inbox poisoned");
            inbox.msgs.push((self.token, msg));
        }
        self.shared.waker.wake();
    }
}

struct Entry<M> {
    driver: Box<dyn Driver<Msg = M>>,
    msgs: VecDeque<M>,
    deadline: Option<Instant>,
}

/// A pool of event-loop threads multiplexing nonblocking connections.
///
/// Dropping the reactor stops and joins the pool (all remaining
/// connections close).
pub struct Reactor<M> {
    shared: Vec<Arc<IoShared<M>>>,
    stop: Arc<AtomicBool>,
    next_token: AtomicU64,
    next_thread: AtomicUsize,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl<M: Send + 'static> Reactor<M> {
    /// Spawns `io_threads` event-loop threads (at least one), named
    /// `<name>-io-<i>`.
    pub fn spawn(io_threads: usize, name: &str) -> io::Result<Reactor<M>> {
        let n = io_threads.max(1);
        let stop = Arc::new(AtomicBool::new(false));
        let mut shared = Vec::with_capacity(n);
        let mut epolls = Vec::with_capacity(n);
        for _ in 0..n {
            let waker = Waker::new()?;
            let epoll = Epoll::new()?;
            epoll.add(waker.as_raw_fd(), WAKE_TOKEN, Interest::READ)?;
            shared.push(Arc::new(IoShared {
                waker,
                inbox: Mutex::new(Inbox {
                    msgs: Vec::new(),
                    incoming: Vec::new(),
                }),
                counters: LoopCounters::default(),
            }));
            epolls.push(epoll);
        }
        let mut handles = Vec::with_capacity(n);
        for (idx, epoll) in epolls.into_iter().enumerate() {
            let own = Arc::clone(&shared[idx]);
            // Every thread can wake its siblings, so a driver-requested
            // reactor stop propagates even to threads parked in epoll_wait.
            let siblings: Vec<Arc<IoShared<M>>> = shared
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != idx)
                .map(|(_, s)| Arc::clone(s))
                .collect();
            let stop = Arc::clone(&stop);
            handles.push(
                thread::Builder::new()
                    .name(format!("{name}-io-{idx}"))
                    .spawn(move || io_loop(epoll, own, siblings, stop))?,
            );
        }
        let reactor = Reactor {
            shared,
            stop,
            next_token: AtomicU64::new(0),
            next_thread: AtomicUsize::new(0),
            handles: Mutex::new(handles),
        };
        Ok(reactor)
    }

    /// Hands a connection to the pool. The stream is switched to
    /// nonblocking, `make` builds the driver (receiving the stream and the
    /// connection's [`Mailbox`]), and the owning thread registers the socket
    /// edge-triggered and immediately invokes the driver once with
    /// `readable + writable` so it can consume anything already buffered.
    pub fn register<F>(&self, stream: TcpStream, make: F) -> io::Result<()>
    where
        F: FnOnce(TcpStream, Mailbox<M>) -> io::Result<Box<dyn Driver<Msg = M>>>,
    {
        if self.stop.load(Ordering::SeqCst) {
            return Err(io::Error::other("reactor is shutting down"));
        }
        stream.set_nonblocking(true)?;
        let fd = stream.as_raw_fd();
        let idx = self.next_thread.fetch_add(1, Ordering::Relaxed) % self.shared.len();
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let shared = &self.shared[idx];
        let mailbox = Mailbox {
            shared: Arc::clone(shared),
            token,
        };
        let driver = make(stream, mailbox)?;
        {
            let mut inbox = shared.inbox.lock().expect("reactor inbox poisoned");
            inbox.incoming.push(Incoming { token, fd, driver });
        }
        shared.waker.wake();
        Ok(())
    }

    /// Number of I/O threads in the pool.
    pub fn io_threads(&self) -> usize {
        self.shared.len()
    }

    /// Connections currently registered across all threads.
    pub fn connections(&self) -> u64 {
        self.shared
            .iter()
            .map(|s| s.counters.connections.load(Ordering::Relaxed))
            .sum()
    }

    /// Snapshot of every I/O thread's loop counters.
    pub fn stats(&self) -> Vec<LoopStats> {
        self.shared
            .iter()
            .enumerate()
            .map(|(io_thread, s)| LoopStats {
                io_thread,
                turns: s.counters.turns.load(Ordering::Relaxed),
                events: s.counters.events.load(Ordering::Relaxed),
                wakeups: s.counters.wakeups.load(Ordering::Relaxed),
                messages: s.counters.messages.load(Ordering::Relaxed),
                connections: s.counters.connections.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Asks every I/O thread to exit (closing its connections). Idempotent;
    /// returns without waiting — pair with [`Reactor::join`].
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for s in &self.shared {
            s.waker.wake();
        }
    }

    /// Waits for every I/O thread to exit. Call [`Reactor::stop`] first
    /// (or have a driver call [`Ctl::stop_reactor`]); joining a live
    /// reactor would block forever.
    pub fn join(&self) {
        let handles = std::mem::take(&mut *self.handles.lock().expect("reactor handles poisoned"));
        for h in handles {
            let _ = h.join();
        }
    }

    /// `stop` + `join`.
    pub fn shutdown(&self) {
        self.stop();
        self.join();
    }
}

impl<M> Drop for Reactor<M> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for s in &self.shared {
            s.waker.wake();
        }
        let handles = std::mem::take(&mut *self.handles.lock().expect("reactor handles poisoned"));
        for h in handles {
            let _ = h.join();
        }
    }
}

/// One event-loop thread.
fn io_loop<M: Send>(
    epoll: Epoll,
    shared: Arc<IoShared<M>>,
    siblings: Vec<Arc<IoShared<M>>>,
    stop: Arc<AtomicBool>,
) {
    let mut conns: HashMap<u64, Entry<M>> = HashMap::new();
    let mut events = Events::with_capacity(EVENT_BATCH);
    // Min-heap of (deadline, token); entries are lazily invalidated by
    // comparing against the connection's current deadline when popped.
    let mut deadlines: BinaryHeap<std::cmp::Reverse<(Instant, u64)>> = BinaryHeap::new();
    // Per-turn dispatch set (token -> accumulated readiness), kept across
    // turns to reuse its allocation.
    let mut pending: HashMap<u64, Ready> = HashMap::new();

    loop {
        let timeout = deadlines
            .peek()
            .map(|std::cmp::Reverse((t, _))| t.saturating_duration_since(Instant::now()));
        if epoll.wait(&mut events, timeout).is_err() {
            // epoll itself failing is unrecoverable for this thread.
            break;
        }
        shared.counters.turns.fetch_add(1, Ordering::Relaxed);

        pending.clear();
        let mut woke = false;
        for ev in events.iter() {
            if ev.token == WAKE_TOKEN {
                woke = true;
                continue;
            }
            shared.counters.events.fetch_add(1, Ordering::Relaxed);
            let slot = pending.entry(ev.token).or_default();
            slot.readable |= ev.readable;
            slot.writable |= ev.writable;
            slot.hangup |= ev.hangup;
        }

        if woke {
            shared.counters.wakeups.fetch_add(1, Ordering::Relaxed);
            shared.waker.drain();
            let (msgs, incoming) = {
                let mut inbox = shared.inbox.lock().expect("reactor inbox poisoned");
                (
                    std::mem::take(&mut inbox.msgs),
                    std::mem::take(&mut inbox.incoming),
                )
            };
            for inc in incoming {
                if epoll
                    .add(inc.fd, inc.token, Interest::READ_WRITE.edge())
                    .is_err()
                {
                    continue; // dropping the driver closes the socket
                }
                conns.insert(
                    inc.token,
                    Entry {
                        driver: inc.driver,
                        msgs: VecDeque::new(),
                        deadline: None,
                    },
                );
                shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                // First drive: consume anything that raced ahead of the
                // registration and let the driver send greetings.
                let slot = pending.entry(inc.token).or_default();
                slot.readable = true;
                slot.writable = true;
            }
            for (token, msg) in msgs {
                if let Some(entry) = conns.get_mut(&token) {
                    entry.msgs.push_back(msg);
                    shared.counters.messages.fetch_add(1, Ordering::Relaxed);
                    pending.entry(token).or_default();
                }
                // Messages for closed connections are dropped.
            }
        }

        if stop.load(Ordering::SeqCst) {
            break;
        }

        // Due deadlines join the dispatch set.
        let now = Instant::now();
        while let Some(&std::cmp::Reverse((t, token))) = deadlines.peek() {
            if t > now {
                break;
            }
            deadlines.pop();
            if let Some(entry) = conns.get_mut(&token) {
                if entry.deadline == Some(t) {
                    entry.deadline = None;
                    pending.entry(token).or_default();
                }
            }
        }

        let mut reactor_stop = false;
        for (&token, ready) in pending.iter() {
            let Some(entry) = conns.get_mut(&token) else {
                continue;
            };
            let mut ctl = Ctl { stop: false };
            let status = entry.driver.drive(*ready, &mut entry.msgs, &mut ctl);
            if ctl.stop {
                reactor_stop = true;
            }
            match status {
                Status::Close => {
                    conns.remove(&token);
                    shared.counters.connections.fetch_sub(1, Ordering::Relaxed);
                }
                Status::Continue => {
                    let want = entry.driver.deadline();
                    if want != entry.deadline {
                        entry.deadline = want;
                        if let Some(t) = want {
                            deadlines.push(std::cmp::Reverse((t, token)));
                        }
                    }
                }
            }
        }
        if reactor_stop {
            stop.store(true, Ordering::SeqCst);
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
    }
    // Dropping the entries closes every remaining socket.
    let remaining = conns.len() as u64;
    drop(conns);
    shared
        .counters
        .connections
        .fetch_sub(remaining, Ordering::Relaxed);
    // Other threads must exit too (a driver may have requested stop).
    stop.store(true, Ordering::SeqCst);
    for s in &siblings {
        s.waker.wake();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// Echoes every byte back, via a tiny internal buffer that survives
    /// `WouldBlock` on either side.
    struct Echo {
        stream: TcpStream,
        buf: Vec<u8>,
    }

    impl Driver for Echo {
        type Msg = ();

        fn drive(&mut self, _ready: Ready, _msgs: &mut VecDeque<()>, _ctl: &mut Ctl) -> Status {
            loop {
                // Flush pending output first.
                while !self.buf.is_empty() {
                    match self.stream.write(&self.buf) {
                        Ok(0) => return Status::Close,
                        Ok(n) => {
                            self.buf.drain(..n);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Status::Continue,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => return Status::Close,
                    }
                }
                let mut chunk = [0u8; 4096];
                match self.stream.read(&mut chunk) {
                    Ok(0) => return Status::Close,
                    Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Status::Continue,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => return Status::Close,
                }
            }
        }
    }

    #[test]
    fn echo_across_many_connections() {
        let reactor: Reactor<()> = Reactor::spawn(2, "echo-test").unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        let mut clients = Vec::new();
        for _ in 0..32 {
            let c = TcpStream::connect(addr).unwrap();
            let (s, _) = listener.accept().unwrap();
            reactor
                .register(s, |stream, _mailbox| {
                    Ok(Box::new(Echo {
                        stream,
                        buf: Vec::new(),
                    }))
                })
                .unwrap();
            clients.push(c);
        }
        assert_eq!(reactor.io_threads(), 2);

        for (i, c) in clients.iter_mut().enumerate() {
            let msg = format!("hello-{i}");
            c.write_all(msg.as_bytes()).unwrap();
            let mut back = vec![0u8; msg.len()];
            c.read_exact(&mut back).unwrap();
            assert_eq!(back, msg.as_bytes());
        }

        // Gauges: all 32 registered, spread across both threads.
        assert_eq!(reactor.connections(), 32);
        let stats = reactor.stats();
        assert_eq!(stats.len(), 2);
        assert!(stats.iter().all(|s| s.connections == 16));
        assert!(stats.iter().all(|s| s.turns > 0 && s.events > 0));

        drop(clients);
        // Disconnects drain asynchronously.
        let start = Instant::now();
        while reactor.connections() > 0 && start.elapsed() < Duration::from_secs(5) {
            thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(reactor.connections(), 0);
        reactor.shutdown();
    }

    /// Driver that forwards mailbox messages to the peer as bytes.
    struct MailEcho {
        stream: TcpStream,
        buf: Vec<u8>,
    }

    impl Driver for MailEcho {
        type Msg = Vec<u8>;

        fn drive(&mut self, _ready: Ready, msgs: &mut VecDeque<Vec<u8>>, _ctl: &mut Ctl) -> Status {
            for m in msgs.drain(..) {
                self.buf.extend_from_slice(&m);
            }
            while !self.buf.is_empty() {
                match self.stream.write(&self.buf) {
                    Ok(0) => return Status::Close,
                    Ok(n) => {
                        self.buf.drain(..n);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Status::Continue,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => return Status::Close,
                }
            }
            Status::Continue
        }
    }

    #[test]
    fn mailbox_wakes_sleeping_io_thread() {
        let reactor: Reactor<Vec<u8>> = Reactor::spawn(1, "mail-test").unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (s, _) = listener.accept().unwrap();

        let mailbox_out = std::sync::Mutex::new(None);
        reactor
            .register(s, |stream, mailbox| {
                *mailbox_out.lock().unwrap() = Some(mailbox);
                Ok(Box::new(MailEcho {
                    stream,
                    buf: Vec::new(),
                }))
            })
            .unwrap();
        let mailbox = mailbox_out.lock().unwrap().take().unwrap();

        // The io thread is idle in epoll_wait; a post must wake it.
        mailbox.post(b"ping".to_vec());
        let mut back = [0u8; 4];
        client.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"ping");

        let stats = reactor.stats();
        assert!(stats[0].wakeups >= 1);
        assert!(stats[0].messages >= 1);
        reactor.shutdown();
        assert_eq!(reactor.connections(), 0);
    }

    /// Driver that closes after its deadline fires, recording the firing.
    struct TimerConn {
        due: Instant,
        fired: Arc<AtomicBool>,
        _stream: TcpStream,
    }

    impl Driver for TimerConn {
        type Msg = ();

        fn drive(&mut self, _ready: Ready, _msgs: &mut VecDeque<()>, _ctl: &mut Ctl) -> Status {
            if Instant::now() >= self.due {
                self.fired.store(true, Ordering::SeqCst);
                return Status::Close;
            }
            Status::Continue
        }

        fn deadline(&self) -> Option<Instant> {
            Some(self.due)
        }
    }

    #[test]
    fn deadlines_fire_without_io() {
        let reactor: Reactor<()> = Reactor::spawn(1, "timer-test").unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let (s, _) = listener.accept().unwrap();

        let fired = Arc::new(AtomicBool::new(false));
        let due = Instant::now() + Duration::from_millis(80);
        let fired2 = Arc::clone(&fired);
        reactor
            .register(s, move |stream, _| {
                Ok(Box::new(TimerConn {
                    due,
                    fired: fired2,
                    _stream: stream,
                }))
            })
            .unwrap();

        let start = Instant::now();
        while !fired.load(Ordering::SeqCst) && start.elapsed() < Duration::from_secs(5) {
            thread::sleep(Duration::from_millis(5));
        }
        assert!(fired.load(Ordering::SeqCst), "deadline never fired");
        // Not meaningfully early either.
        assert!(Instant::now() >= due);
        reactor.shutdown();
    }

    /// Driver that asks the whole reactor to stop when it reads anything.
    struct StopOnInput {
        stream: TcpStream,
    }

    impl Driver for StopOnInput {
        type Msg = ();

        fn drive(&mut self, _ready: Ready, _msgs: &mut VecDeque<()>, ctl: &mut Ctl) -> Status {
            let mut buf = [0u8; 16];
            match self.stream.read(&mut buf) {
                Ok(n) if n > 0 => {
                    ctl.stop_reactor();
                    Status::Close
                }
                Ok(_) => Status::Close,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Status::Continue,
                Err(_) => Status::Close,
            }
        }
    }

    #[test]
    fn driver_can_stop_the_reactor() {
        let reactor: Reactor<()> = Reactor::spawn(2, "stop-test").unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (s, _) = listener.accept().unwrap();
        reactor
            .register(s, |stream, _| Ok(Box::new(StopOnInput { stream })))
            .unwrap();

        client.write_all(b"stop").unwrap();
        // join returns because the driver's stop propagates to all threads.
        reactor.join();
        assert!(reactor
            .register(TcpStream::connect(addr).unwrap(), |stream, _| {
                Ok(Box::new(StopOnInput { stream }))
            })
            .is_err());
    }
}
