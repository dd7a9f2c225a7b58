//! The connection front-end: one [`Driver`] per connection running the
//! pipelined pump (DESIGN.md §9) as a nonblocking state machine on the
//! reactor's event loops (DESIGN.md §12).
//!
//! The driver never blocks — not on the socket for the next request, not on
//! a disk. It applies the requests it reads to their shards itself — a
//! burst's GETs as one run per shard, applied at the burst's next other
//! frame or once the frames one socket read delivered are parsed — parks
//! the answers, and writes what is next in order before reading on; it
//! returns to its event loop when the socket runs dry, and is re-driven by
//! whichever event lands first: socket readiness (edge-triggered), a reply
//! a commit gate released into the connection's [`Mailbox`], or nothing at
//! all if the connection is idle. The edge-triggered contract is honored by
//! construction: every `drive` call retries the buffered flush until
//! `WouldBlock` and reads frames until `WouldBlock` or the pipeline window
//! fills. A full window with bytes still in the kernel buffer is safe to
//! park on — replies answered on the loop are written before the next read,
//! so a window stays full only behind a reply held at a commit gate, and
//! that reply arrives as a mailbox message that re-drives the connection
//! back into the read loop.

use std::collections::VecDeque;
use std::io;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use p4lru_reactor::{Ctl, Driver, Mailbox, Ready, SharedStream, Status};

use crate::protocol::{FrameReader, FrameWriter};
use crate::server::{apply_runs, complete_flushed, serve, Conn, Ctx, Reply};

/// Read-buffer bytes per connection. Deliberately far below
/// [`FrameReader`]'s default: the reactor exists to hold tens of thousands
/// of connections, so per-connection memory is the budget that matters, and
/// the buffer grows on demand for the rare oversized frame.
const READ_BUF: usize = 8 * 1024;

/// Write-buffer threshold per connection (same sizing argument).
const WRITE_BUF: usize = 4 * 1024;

/// One nonblocking connection: framing buffers around the two socket
/// halves, plus the shared pump state ([`Conn`]).
pub(crate) struct ReactorConn {
    reader: FrameReader<SharedStream>,
    writer: FrameWriter<SharedStream>,
    conn: Conn,
    ctx: Arc<Ctx>,
    /// Reused frame-decode scratch buffer.
    frame: Vec<u8>,
}

impl ReactorConn {
    /// Wraps an accepted stream. The reactor already set the stream
    /// nonblocking; the [`SharedStream`] halves share the one file
    /// descriptor (not a `try_clone` dup — at 10k connections the dup
    /// would double the process's fd bill), so they see that (and every
    /// other) socket flag.
    pub(crate) fn new(
        stream: TcpStream,
        mailbox: Mailbox<Reply>,
        ctx: Arc<Ctx>,
    ) -> io::Result<ReactorConn> {
        stream.set_nodelay(true)?;
        let read_half = SharedStream::new(stream);
        let write_half = read_half.clone();
        Ok(ReactorConn {
            reader: FrameReader::with_capacity(read_half, READ_BUF),
            writer: FrameWriter::with_capacity(write_half, WRITE_BUF),
            conn: Conn::new(mailbox, ctx.shards.len()),
            ctx,
            frame: Vec::new(),
        })
    }

    /// One pump turn: ship ready replies, flush, maybe finish a shutdown,
    /// then read new requests up to the window. Returns `Some(status)` when
    /// the connection is done (either direction failed, the peer
    /// disconnected, or a SHUTDOWN completed) and `None` with the count of
    /// newly served requests otherwise.
    fn pump(&mut self, ctl: &mut Ctl) -> Result<u64, Status> {
        if self.conn.write_ready(&mut self.writer, &self.ctx).is_err() {
            return Err(Status::Close);
        }
        match self.writer.flush_nonblocking() {
            // The buffer drained: every response written so far is on the
            // wire and its trace can complete.
            Ok(true) => complete_flushed(&mut self.conn, &self.ctx),
            // Socket full: EPOLLOUT re-drives this connection, and the
            // next turn retries from `FrameWriter`'s resume offset.
            Ok(false) => {}
            Err(_) => return Err(Status::Close),
        }
        if self.conn.shutdown_acked() && self.writer.pending() == 0 {
            // The SHUTDOWN ack (and everything before it) is on the wire:
            // stop the accept loop and the reactor.
            self.ctx.running.store(false, Ordering::SeqCst);
            let _ = TcpStream::connect(self.ctx.local_addr); // wake the accept loop
            ctl.stop_reactor();
            return Err(Status::Close);
        }
        let mut served = 0;
        while self.conn.outstanding() < self.ctx.pipeline_window && self.conn.shutdown_at.is_none()
        {
            if !self.reader.has_buffered_frame() {
                // Every frame one socket read delivered is parsed: apply
                // the burst's GET runs before reading again, so a lone GET
                // is not answered one (empty) read later.
                apply_runs(&self.ctx, &mut self.conn);
            }
            match self.reader.read_frame(&mut self.frame) {
                Ok(true) => {
                    serve(
                        &self.frame,
                        self.reader.take_span(),
                        &self.ctx,
                        &mut self.conn,
                    );
                    served += 1;
                }
                Ok(false) => return Err(Status::Close), // clean disconnect
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => return Err(Status::Close),
            }
        }
        // A full window stops reading with the last burst's runs pending.
        apply_runs(&self.ctx, &mut self.conn);
        Ok(served)
    }
}

impl Driver for ReactorConn {
    type Msg = Reply;

    fn drive(&mut self, _ready: Ready, msgs: &mut VecDeque<Reply>, ctl: &mut Ctl) -> Status {
        for (seq, reply, trace) in msgs.drain(..) {
            self.conn.park(seq, reply, trace);
        }
        // Keep pumping while progress is being made: replies answered on
        // the loop park during the read phase and must reach the write
        // phase of a following turn without waiting for another event.
        let status = loop {
            match self.pump(ctl) {
                Ok(0) => break Status::Continue,
                Ok(_) => {}
                Err(status) => break status,
            }
        };
        // Whatever this turn held at a commit gate, even on a connection
        // that is closing, must reach a commit.
        for shard in self.conn.to_wake.drain(..) {
            self.ctx.shards[shard].wake();
        }
        status
    }
}

impl Drop for ReactorConn {
    fn drop(&mut self) {
        self.ctx.conns.closed();
    }
}
