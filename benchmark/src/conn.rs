//! One nonblocking protocol connection, built from the server crate's own
//! framing and codecs.
//!
//! A generator thread must wait for replies only until its next send is
//! due, to the microsecond, so the socket is nonblocking and every wait
//! goes through [`crate::sys::wait`].

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use p4lru_server::protocol::{encode_del, encode_get, encode_set};
use p4lru_server::{FrameReader, FrameWriter, Request, Response, StatsReport};

use crate::sys;

/// How long a control round trip (PING, STATS, SHUTDOWN, a probe) may take.
pub const CALL_TIMEOUT: Duration = Duration::from_secs(5);

/// A nonblocking client connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    reader: FrameReader<TcpStream>,
    writer: FrameWriter<TcpStream>,
    payload: Vec<u8>,
    frame: Vec<u8>,
}

fn unexpected(what: &str, got: &Response) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{what}: unexpected response {got:?}"),
    )
}

impl Conn {
    /// Connects with `TCP_NODELAY`, nonblocking.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, CALL_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Self {
            reader: FrameReader::new(stream.try_clone()?),
            writer: FrameWriter::new(stream.try_clone()?),
            stream,
            payload: Vec::new(),
            frame: Vec::new(),
        })
    }

    /// Queues a GET.
    pub fn send_get(&mut self, key: u64) -> io::Result<()> {
        encode_get(key, &mut self.payload);
        self.writer.write_frame(&self.payload)
    }

    /// Queues a SET.
    pub fn send_set(&mut self, key: u64, value: &[u8]) -> io::Result<()> {
        encode_set(key, value, &mut self.payload);
        self.writer.write_frame(&self.payload)
    }

    /// Queues a DEL.
    pub fn send_del(&mut self, key: u64) -> io::Result<()> {
        encode_del(key, &mut self.payload);
        self.writer.write_frame(&self.payload)
    }

    /// Queues any request.
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        request.encode(&mut self.payload);
        self.writer.write_frame(&self.payload)
    }

    /// Writes as much of the queue as the socket takes. `Ok(true)` when
    /// nothing is left queued.
    pub fn flush(&mut self) -> io::Result<bool> {
        self.writer.flush_nonblocking()
    }

    /// The next reply if one has fully arrived.
    pub fn try_recv(&mut self) -> io::Result<Option<Response>> {
        match self.reader.read_frame(&mut self.frame) {
            Ok(true) => Ok(Some(Response::decode(&self.frame)?)),
            Ok(false) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "peer closed the connection",
            )),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Sleeps until the socket has something to read, or queued bytes can
    /// go out (they are then written), or `timeout` passes.
    pub fn wait(&mut self, timeout: Duration) -> io::Result<()> {
        let pending = self.writer.pending() > 0;
        let ready = sys::wait(self.stream.as_raw_fd(), pending, timeout)?;
        if ready.writable {
            self.flush()?;
        }
        Ok(())
    }

    /// The next reply, waiting up to [`CALL_TIMEOUT`] for it.
    pub fn recv(&mut self) -> io::Result<Response> {
        let deadline = Instant::now() + CALL_TIMEOUT;
        loop {
            self.flush()?;
            if let Some(response) = self.try_recv()? {
                return Ok(response);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "no reply in time"));
            }
            self.wait(left)?;
        }
    }

    /// One request, one reply.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        self.send(request)?;
        self.recv()
    }

    /// PING → PONG.
    pub fn ping(&mut self) -> io::Result<()> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("PING", &other)),
        }
    }

    /// Fetches and parses STATS.
    pub fn stats(&mut self) -> io::Result<StatsReport> {
        match self.call(&Request::Stats)? {
            Response::StatsJson(json) => serde_json::from_str(&json).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("bad STATS JSON: {e:?}"))
            }),
            other => Err(unexpected("STATS", &other)),
        }
    }

    /// SHUTDOWN → OK.
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.call(&Request::Shutdown)? {
            Response::Ok => Ok(()),
            other => Err(unexpected("SHUTDOWN", &other)),
        }
    }
}
