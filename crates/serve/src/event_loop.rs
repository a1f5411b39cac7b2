//! The nonblocking readiness loop behind [`crate::server::Server`].
//!
//! Each worker owns a set of nonblocking connections and multiplexes
//! them through a single hand-rolled `poll(2)` loop — no thread per
//! connection, so thousands of persistent clients cost one `pollfd`
//! each, not one stack each. Per connection the loop keeps a read
//! buffer (torn frames and torn lines reassemble across ticks), a write
//! buffer (a slow reader never blocks the worker — unwritten bytes wait
//! in userspace until the socket drains), and a protocol mode
//! negotiated from the first bytes: the [`crate::framing::MAGIC`]
//! preamble selects the binary frame protocol, anything else is
//! newline-delimited JSON.
//!
//! Requests are pipelined: every complete request in the buffer is
//! answered in arrival order before the next poll. Admission control is
//! wired into the same deadline machinery as compute: a request parsed
//! from a connection whose pending output already exceeds the shed
//! threshold is answered with a typed `shed` envelope instead of being
//! decided, and a request whose deadline elapsed while it sat behind a
//! deep pipeline is rejected by the existing pre-compute check (its
//! `received` instant is when its bytes arrived, not when they were
//! parsed).
//!
//! Lifecycle requests (`Swap`, `Sync`) ride the same loop as decisions:
//! a hot-swap publishes the new model between two pipelined requests on
//! the worker that carried it, while every other worker keeps answering
//! from whichever model it resolves at decision time — no connection is
//! paused, drained, or closed for a swap.

use crate::engine::Engine;
use crate::error::ServeError;
use crate::framing::{self, FrameBuffer, MAGIC};
use crate::protocol::Response;
use crate::server::{handle_line, handle_request};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Poll timeout: the latency bound for adopting new connections and
/// noticing a shutdown requested on another worker.
const POLL_TICK: i32 = 5;
/// Most bytes read from one connection per tick, so a firehose client
/// cannot starve its neighbours on the same worker.
const READ_BUDGET: usize = 256 * 1024;
/// A JSON line (or sniffed preamble) may grow this large before the
/// connection is declared malformed; binary frames have their own cap
/// ([`framing::MAX_FRAME`]).
const MAX_JSON_LINE: usize = 8 << 20;
/// How long the drain phase keeps flushing pending replies after
/// shutdown before giving up on unwritable clients.
const DRAIN_GRACE: Duration = Duration::from_secs(1);

/// Event-loop knobs, derived from [`crate::server::ServeOptions`].
#[derive(Debug, Clone, Copy)]
pub struct LoopConfig {
    /// Default per-request deadline (0 = none).
    pub default_deadline_ms: u64,
    /// Pending-output bytes beyond which a connection's further
    /// requests are shed instead of computed.
    pub shed_buffer_bytes: usize,
}

/// The accept loop hands connections to workers through this shared
/// inbox (one per worker, round-robin).
#[derive(Debug, Default)]
pub struct Inbox {
    pending: Mutex<Vec<TcpStream>>,
}

impl Inbox {
    /// Empty inbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue a freshly accepted connection for this worker.
    pub fn push(&self, stream: TcpStream) {
        self.pending.lock().expect("inbox lock").push(stream);
    }

    fn drain(&self) -> Vec<TcpStream> {
        std::mem::take(&mut *self.pending.lock().expect("inbox lock"))
    }
}

// ---------------------------------------------------------------------
// poll(2) via FFI — the readiness primitive itself, hand-rolled like
// the rest of the workspace's shims because the build has no libc
// crate. `poll` is in every libc that std already links against.
// ---------------------------------------------------------------------
#[cfg(unix)]
mod sys {
    use std::os::unix::io::RawFd;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    /// `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub struct PollFd {
        pub fd: RawFd,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    /// Level-triggered readiness over `fds`; returns how many entries
    /// have nonzero `revents`. An empty slice is a plain sleep.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> std::io::Result<usize> {
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
        if rc < 0 {
            Err(std::io::Error::last_os_error())
        } else {
            Ok(rc as usize)
        }
    }
}

#[cfg(not(unix))]
mod sys {
    //! Degenerate fallback for non-unix targets: report everything
    //! ready and let the nonblocking reads/writes sort it out.
    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    #[derive(Debug, Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> std::io::Result<usize> {
        std::thread::sleep(std::time::Duration::from_millis(timeout_ms.max(1) as u64));
        for fd in fds.iter_mut() {
            fd.revents = fd.events;
        }
        Ok(fds.len())
    }
}

// ---------------------------------------------------------------------
// Per-connection state
// ---------------------------------------------------------------------

/// Pending output: bytes the socket would not take yet. `pos` marks the
/// written prefix; compaction is amortized so a slow client costs one
/// buffer, not quadratic copies.
#[derive(Debug, Default)]
struct WriteBuf {
    data: Vec<u8>,
    pos: usize,
}

impl WriteBuf {
    fn push(&mut self, bytes: &[u8]) {
        self.data.extend_from_slice(bytes);
    }

    /// Append one JSON reply line, encoded straight into the buffer.
    fn push_json(&mut self, response: &Response) {
        serde_json::to_writer(&mut self.data, response).expect("response serializes");
        self.data.push(b'\n');
    }

    fn pending(&self) -> usize {
        self.data.len() - self.pos
    }

    fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Write as much as the socket takes right now. `Ok(false)` means
    /// the connection is gone.
    fn flush(&mut self, stream: &mut TcpStream) -> bool {
        while self.pos < self.data.len() {
            match stream.write(&self.data[self.pos..]) {
                Ok(0) => return false,
                Ok(n) => self.pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.pos == self.data.len() {
            self.data.clear();
            self.pos = 0;
        } else if self.pos >= 64 * 1024 {
            self.data.drain(..self.pos);
            self.pos = 0;
        }
        true
    }
}

/// Wire protocol spoken on one connection, decided by its first bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// Not enough bytes yet to tell.
    Sniffing,
    /// Newline-delimited JSON (the PR-4 protocol, unchanged).
    Json,
    /// Length-prefixed binary frames (see [`framing`]).
    Binary,
}

struct Conn {
    stream: TcpStream,
    mode: Mode,
    /// Sniffing preamble + JSON line accumulation.
    inbuf: Vec<u8>,
    /// Binary frame reassembly.
    frames: FrameBuffer,
    wbuf: WriteBuf,
    /// When the oldest still-unanswered bytes arrived — the `received`
    /// instant for deadline checks, so pipelined requests age while
    /// they wait behind earlier ones.
    arrival: Instant,
    /// Reading is over (EOF, protocol error, or shutdown); close once
    /// `wbuf` drains.
    draining: bool,
    /// Tear down now, pending output lost.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            mode: Mode::Sniffing,
            inbuf: Vec::new(),
            frames: FrameBuffer::new(),
            wbuf: WriteBuf::default(),
            arrival: Instant::now(),
            draining: false,
            dead: false,
        }
    }

    fn wants_write(&self) -> bool {
        !self.wbuf.is_empty()
    }

    fn finished(&self) -> bool {
        self.dead || (self.draining && self.wbuf.is_empty())
    }
}

// ---------------------------------------------------------------------
// The worker loop
// ---------------------------------------------------------------------

/// Run one event-loop worker until shutdown. Adopts connections from
/// `inbox`, multiplexes them through `poll`, and leaves only after
/// every pending reply is flushed (or the drain grace expires).
pub fn run_worker(inbox: &Inbox, engine: &Engine, shutdown: &AtomicBool, cfg: &LoopConfig) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];

    while !shutdown.load(Ordering::SeqCst) {
        for stream in inbox.drain() {
            conns.push(Conn::new(stream));
        }
        poll_once(&mut conns, &mut scratch, engine, shutdown, cfg, POLL_TICK);
        reap(&mut conns, engine);
    }

    // Drain phase: stop reading, flush what each client is owed (the
    // shutdown acknowledgement itself travels this path), give up on
    // sockets that stay unwritable past the grace period.
    let grace = Instant::now();
    for c in &mut conns {
        c.draining = true;
    }
    while conns.iter().any(|c| !c.finished()) && grace.elapsed() < DRAIN_GRACE {
        poll_once(&mut conns, &mut scratch, engine, shutdown, cfg, POLL_TICK);
        reap(&mut conns, engine);
    }
    for _ in &conns {
        engine.metrics().connection_closed();
    }
}

/// One poll tick: wait for readiness, then service every ready
/// connection (reads, request handling, writes).
fn poll_once(
    conns: &mut [Conn],
    scratch: &mut [u8],
    engine: &Engine,
    shutdown: &AtomicBool,
    cfg: &LoopConfig,
    tick_ms: i32,
) {
    #[cfg(unix)]
    use std::os::unix::io::AsRawFd;

    let mut fds: Vec<sys::PollFd> = conns
        .iter()
        .map(|c| sys::PollFd {
            #[cfg(unix)]
            fd: c.stream.as_raw_fd(),
            #[cfg(not(unix))]
            fd: 0,
            events: if c.draining {
                sys::POLLOUT
            } else {
                sys::POLLIN | if c.wants_write() { sys::POLLOUT } else { 0 }
            },
            revents: 0,
        })
        .collect();
    if sys::poll_fds(&mut fds, tick_ms).is_err() {
        return;
    }

    for (conn, fd) in conns.iter_mut().zip(&fds) {
        if conn.dead {
            continue;
        }
        if fd.revents & (sys::POLLERR | sys::POLLNVAL) != 0 {
            conn.dead = true;
            continue;
        }
        if fd.revents & sys::POLLOUT != 0 && !conn.wbuf.flush(&mut conn.stream) {
            conn.dead = true;
            continue;
        }
        if fd.revents & (sys::POLLIN | sys::POLLHUP) != 0 && !conn.draining {
            service_readable(conn, scratch, engine, shutdown, cfg);
        }
        // Opportunistic flush of anything the handlers just queued; the
        // remainder waits for the next POLLOUT.
        if !conn.dead && conn.wants_write() && !conn.wbuf.flush(&mut conn.stream) {
            conn.dead = true;
        }
    }
}

/// Drop finished connections, updating the gauge.
fn reap(conns: &mut Vec<Conn>, engine: &Engine) {
    conns.retain(|c| {
        if c.finished() {
            engine.metrics().connection_closed();
            false
        } else {
            true
        }
    });
}

/// Read what the socket has (bounded per tick), then answer every
/// complete request that produced.
fn service_readable(
    conn: &mut Conn,
    scratch: &mut [u8],
    engine: &Engine,
    shutdown: &AtomicBool,
    cfg: &LoopConfig,
) {
    let had_backlog = backlog(conn) > 0;
    let mut budget = READ_BUDGET;
    let mut eof = false;
    while budget > 0 {
        let want = budget.min(scratch.len());
        match conn.stream.read(&mut scratch[..want]) {
            Ok(0) => {
                eof = true;
                break;
            }
            Ok(n) => {
                match conn.mode {
                    Mode::Binary => conn.frames.push(&scratch[..n]),
                    _ => conn.inbuf.extend_from_slice(&scratch[..n]),
                }
                budget -= n;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                break;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    // The oldest unanswered bytes define the queue-time clock; only
    // reset it when the previous backlog was fully answered.
    if !had_backlog {
        conn.arrival = Instant::now();
    }

    process_backlog(conn, engine, shutdown, cfg, eof);
    if eof {
        conn.draining = true;
    }
}

/// Unanswered bytes currently buffered for this connection.
fn backlog(conn: &Conn) -> usize {
    conn.inbuf.len() + conn.frames.pending()
}

/// Parse and answer everything complete in the connection's buffers.
fn process_backlog(
    conn: &mut Conn,
    engine: &Engine,
    shutdown: &AtomicBool,
    cfg: &LoopConfig,
    eof: bool,
) {
    if conn.mode == Mode::Sniffing {
        sniff(conn, eof);
    }
    match conn.mode {
        Mode::Sniffing => {} // still waiting for the preamble
        Mode::Json => process_json(conn, engine, shutdown, cfg, eof),
        Mode::Binary => process_binary(conn, engine, shutdown, cfg, eof),
    }
}

/// Decide the connection's protocol from its first bytes. The binary
/// magic starts with `S`, which no JSON request line can: anything else
/// is JSON immediately; an `S` that turns out not to be the magic is a
/// typed error and the connection closes.
fn sniff(conn: &mut Conn, eof: bool) {
    let Some(&first) = conn.inbuf.first() else {
        return;
    };
    if first != MAGIC[0] {
        conn.mode = Mode::Json;
        return;
    }
    if conn.inbuf.len() < MAGIC.len() {
        if eof {
            conn.draining = true;
        }
        return;
    }
    if conn.inbuf[..MAGIC.len()] == MAGIC {
        conn.mode = Mode::Binary;
        // Acknowledge the negotiation with the same magic, then move
        // any bytes that followed the preamble into the frame buffer.
        conn.wbuf.push(&MAGIC);
        conn.frames.push(&conn.inbuf[MAGIC.len()..]);
        conn.inbuf.clear();
    } else {
        let e = ServeError::BadRequest {
            message: format!(
                "connection preamble {:?} is neither JSON nor the {:?} binary magic",
                &conn.inbuf[..MAGIC.len().min(conn.inbuf.len())],
                MAGIC
            ),
        };
        conn.wbuf.push_json(&Response::from_error(&e));
        conn.draining = true;
    }
}

/// Answer every complete JSON line in the buffer (and, at EOF, a final
/// unterminated line, matching the old reader-loop behavior). Each line
/// is decoded where it lies; the answered prefix is dropped once, at the
/// end.
fn process_json(
    conn: &mut Conn,
    engine: &Engine,
    shutdown: &AtomicBool,
    cfg: &LoopConfig,
    eof: bool,
) {
    let mut answered = 0;
    loop {
        let rest = &conn.inbuf[answered..];
        let (line, len) = match rest.iter().position(|&b| b == b'\n') {
            Some(end) => (&rest[..end], end + 1),
            None if eof && !rest.is_empty() => (rest, rest.len()),
            None => {
                if rest.len() > MAX_JSON_LINE {
                    let e = ServeError::BadRequest {
                        message: format!(
                            "request line exceeds {MAX_JSON_LINE} bytes without a newline"
                        ),
                    };
                    conn.wbuf.push_json(&Response::from_error(&e));
                    conn.draining = true;
                }
                break;
            }
        };
        answered += len;
        let line = String::from_utf8_lossy(line);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(shed) = shed_check(&conn.wbuf, engine, cfg, false) {
            conn.wbuf.push_json(&shed);
            continue;
        }
        let (response, stop) = handle_line(engine, line, conn.arrival, cfg.default_deadline_ms);
        conn.wbuf.push_json(&response);
        engine.metrics().record_latency(conn.arrival.elapsed());
        if stop {
            shutdown.store(true, Ordering::SeqCst);
            conn.draining = true;
            break;
        }
    }
    conn.inbuf.drain(..answered);
}

/// Answer every complete binary frame in the buffer. Framing errors
/// (oversized or zero lengths) are answered typed and close the
/// connection — the stream cannot be resynchronized; body-level decode
/// errors are answered typed and the connection stays usable.
fn process_binary(
    conn: &mut Conn,
    engine: &Engine,
    shutdown: &AtomicBool,
    cfg: &LoopConfig,
    eof: bool,
) {
    loop {
        let (kind_byte, body) = match conn.frames.next_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => {
                if eof && conn.frames.pending() > 0 {
                    // A torn tail: the peer closed mid-frame. Answer
                    // typed (the envelope may still be deliverable) and
                    // give up on the stream.
                    let e = ServeError::Malformed {
                        message: format!(
                            "connection closed inside a frame ({} bytes of it arrived)",
                            conn.frames.pending()
                        ),
                    };
                    engine.metrics().error();
                    conn.wbuf
                        .push(&framing::encode_response(&Response::from_error(&e)));
                    conn.draining = true;
                }
                return;
            }
            Err(e) => {
                engine.metrics().error();
                conn.wbuf
                    .push(&framing::encode_response(&Response::from_error(&e)));
                conn.draining = true;
                return;
            }
        };
        engine.metrics().request();
        engine.metrics().binary_request();
        if let Some(shed) = shed_check(&conn.wbuf, engine, cfg, true) {
            conn.wbuf.push(&framing::encode_response(&shed));
            continue;
        }
        let (response, stop) = match framing::decode_request(kind_byte, &body) {
            Ok(request) => handle_request(engine, &request, conn.arrival, cfg.default_deadline_ms),
            Err(e) => {
                engine.metrics().error();
                (Response::from_error(&e), false)
            }
        };
        conn.wbuf.push(&framing::encode_response(&response));
        engine.metrics().record_latency(conn.arrival.elapsed());
        if stop {
            shutdown.store(true, Ordering::SeqCst);
            conn.draining = true;
            return;
        }
    }
}

/// Admission control: a connection that is not draining its replies
/// gets `shed` envelopes instead of compute until it catches up. The
/// envelope is a few dozen bytes, so shedding itself cannot blow the
/// buffer up further in any meaningful way.
fn shed_check(
    wbuf: &WriteBuf,
    engine: &Engine,
    cfg: &LoopConfig,
    counted: bool,
) -> Option<Response> {
    if cfg.shed_buffer_bytes == 0 || wbuf.pending() < cfg.shed_buffer_bytes {
        return None;
    }
    if !counted {
        engine.metrics().request();
    }
    engine.metrics().shed();
    Some(Response::from_error(&ServeError::Shed {
        pending_bytes: wbuf.pending(),
        threshold_bytes: cfg.shed_buffer_bytes,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_buf_tracks_pending_and_compacts() {
        let mut wb = WriteBuf::default();
        assert!(wb.is_empty());
        wb.push(b"hello");
        wb.push(b" world");
        assert_eq!(wb.pending(), 11);
        // Simulate a partial write without a socket.
        wb.pos = 5;
        assert_eq!(wb.pending(), 6);
        wb.pos = wb.data.len();
        assert_eq!(wb.pending(), 0);
    }

    #[test]
    fn poll_on_no_fds_is_a_bounded_sleep() {
        let start = Instant::now();
        sys::poll_fds(&mut [], 20).unwrap();
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(10), "slept {elapsed:?}");
        assert!(elapsed < Duration::from_secs(2), "woke up {elapsed:?}");
    }
}
