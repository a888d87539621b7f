//! The server's front end: one readiness-polled thread owns every
//! connection.
//!
//! Epoll (via the vendored `polling` shim) drives nonblocking sockets:
//! per-connection read/write buffers, newline framing across partial
//! reads, write-interest re-arming on partial writes. Queries are
//! submitted to the engine with a completion callback
//! ([`QueryEngine::submit_with_completion`]) that renders the wire line.
//! Where it runs decides how the line comes back:
//!
//! - A **cache hit at admission** is answered inside the submit call, on
//!   this thread: the completion leaves its line in a thread-local slot,
//!   and the reactor writes it in the same turn, through the same
//!   reorder buffer — no channel hop, no eventfd write, no extra poll
//!   turn. The engine's lookup only `try_lock`s the cache, so the
//!   polling thread never waits on a lock a worker or a fault holds.
//! - **Everything else** completes on a worker thread, which posts the
//!   line back over an MPSC channel plus an eventfd wakeup. The polling
//!   thread never blocks on engine work, and one pipelined connection
//!   can have many queries in flight at once.
//! - A **`reload`** runs on the one `simsub-reload` thread, in the order
//!   read: reloads swap in the order sent, one corpus build at a time.
//!   An admin command (`info`, `stats`, `configure`, …) read while a
//!   reload of its connection is still queued or building follows it on
//!   that thread, so it answers from the state the reload left.
//!
//! # Ordering (the wire contract, enforced here)
//!
//! Requests that carry a wire-v2 `"id"` are answered as their
//! completions arrive — possibly **out of order** (the id is how the
//! client matches them). Requests *without* an id (all of v1) are
//! answered **strictly in submission order**: each gets a per-connection
//! sequence number, and finished responses wait in a small reorder map
//! until every earlier id-less response has been written.
//!
//! # Lifecycle
//!
//! The engine's completion guarantee (exactly one delivery per admitted
//! request, even across worker death and shutdown drain) is what makes
//! teardown tractable: on stop the reactor closes the listener, stops
//! reading, and keeps pumping completions until every connection has
//! nothing pending and nothing buffered — bounded by a grace timeout
//! for clients that stop reading.

use crate::engine::{panic_message, QueryEngine, ServiceError};
use crate::json::{Json, ProtocolVersion};
use crate::query::QueryResponse;
use crate::server::{self, LineJob, LineOutcome, MAX_LINE_BYTES};
use crate::stats::Count;
use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use crate::sync::Arc;
use polling::{Event, Events, Interest, Poller, Waker};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

thread_local! {
    /// True on the reactor thread. A completion that finds it set is
    /// running inside the reactor's own `submit_with_completion` call —
    /// the engine answered a cache hit at admission — since the reactor
    /// runs no other engine work.
    static ON_REACTOR: Cell<bool> = const { Cell::new(false) };
    /// The line such a completion rendered, taken by the reactor as soon
    /// as the submit call returns.
    static INLINE_LINE: Cell<Option<String>> = const { Cell::new(None) };
}

/// Registration key of the cross-thread waker.
const KEY_WAKER: usize = usize::MAX - 1;
/// Registration key of the accept listener.
const KEY_LISTENER: usize = usize::MAX;

/// Idle poll tick: how stale the stop flag can get without a wakeup.
const POLL_TIMEOUT: Duration = Duration::from_millis(200);
/// Poll tick while draining (completions also fire the waker).
const DRAIN_TICK: Duration = Duration::from_millis(20);
/// How long the listener stays parked after fd exhaustion.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(100);
/// Stop-drain bound: after this, connections still waiting on engine
/// completions or unflushed writes are closed forcibly.
const DRAIN_GRACE: Duration = Duration::from_secs(5);
/// Per-`read(2)` buffer size.
const READ_CHUNK: usize = 64 * 1024;
/// Per-event read fairness cap: past this the connection yields the
/// thread; level-triggered epoll re-delivers the event immediately.
const READ_QUANTUM: usize = 1 << 20;
/// When a client stops reading and this much response data backs up,
/// stop reading *from* it until the backlog flushes (backpressure).
const WRITE_BACKPRESSURE: usize = 4 << 20;

/// The poller and its waker, created eagerly in [`crate::server::Server::bind`]
/// so a platform without epoll fails the bind before the serve thread
/// spawns (and the `Server` can keep a waker handle for prompt stops).
pub(crate) struct ReactorParts {
    pub(crate) poller: Poller,
    pub(crate) waker: Arc<Waker>,
}

/// A queued `reload`, its work and its answer. The reload thread passes
/// `true` once the server is stopping, and the job answers unbuilt.
pub(crate) type ReloadJob = Box<dyn FnOnce(bool) + Send>;

/// Starts the `simsub-reload` thread, which runs queued reloads one at a
/// time, in queue order, until the reactor drops the queue's sender.
pub(crate) fn spawn_reload_thread(
    stop: Arc<AtomicBool>,
) -> io::Result<(Sender<ReloadJob>, std::thread::JoinHandle<()>)> {
    let (reloads, jobs) = channel::<ReloadJob>();
    let thread = std::thread::Builder::new()
        .name("simsub-reload".into())
        .spawn(move || {
            for job in jobs {
                // ordering: SeqCst — cold stop flag; strongest order keeps shutdown reasoning simple.
                job(stop.load(Ordering::SeqCst));
            }
        })?;
    Ok((reloads, thread))
}

impl ReactorParts {
    pub(crate) fn new() -> io::Result<ReactorParts> {
        // One descriptor per connection: lift the soft NOFILE limit to
        // the hard cap up front so 10k+ connections don't hit EMFILE at
        // the default soft limit (1024 on most distros).
        polling::raise_nofile_limit();
        let poller = Poller::new()?;
        let waker = Arc::new(Waker::new(&poller, KEY_WAKER)?);
        Ok(ReactorParts { poller, waker })
    }
}

/// A finished response routed back to the polling thread: the rendered
/// wire line plus where it goes and how it is ordered.
struct Completed {
    conn: usize,
    seq: u64,
    ordered: bool,
    line: String,
    /// Ran on the reload thread ([`Reactor::queue_reload`]).
    reload_thread: bool,
}

struct Conn {
    stream: TcpStream,
    /// Generation-tagged slab key (`generation << 32 | index`): stale
    /// completions for a recycled slot fail the key check and drop.
    key: usize,
    read_buf: Vec<u8>,
    /// Prefix of `read_buf` already scanned for a newline.
    scanned: usize,
    /// Discarding the rest of an oversized line (already answered).
    discard: bool,
    /// No more input will be processed (EOF, shutdown, or drain).
    read_closed: bool,
    write_buf: Vec<u8>,
    /// Prefix of `write_buf` already written to the socket.
    written: usize,
    interest: Interest,
    /// Sequence numbers for id-less requests (strictly ordered lane).
    next_ordered: u64,
    /// The id-less response that must be written next.
    next_flush: u64,
    /// Finished id-less responses waiting for their turn.
    held: BTreeMap<u64, String>,
    /// Requests submitted (queries, reloads) whose completion has not
    /// arrived yet. Drives drain termination.
    pending: usize,
    /// Those of them queued on the reload thread. While any is, an admin
    /// command read on this connection queues behind them.
    on_reload_thread: usize,
    dead: bool,
}

impl Conn {
    fn write_backlog(&self) -> usize {
        self.write_buf.len() - self.written
    }
}

struct Reactor<'a> {
    engine: &'a Arc<QueryEngine>,
    stop: &'a AtomicBool,
    poller: Poller,
    waker: Arc<Waker>,
    tx: Sender<Completed>,
    rx: Receiver<Completed>,
    reloads: Sender<ReloadJob>,
    listener: TcpListener,
    listener_armed: bool,
    listener_resume: Option<Instant>,
    slots: Vec<Option<Conn>>,
    /// Per-slot generation, bumped on release, mixed into keys.
    generations: Vec<u32>,
    free: Vec<usize>,
    open: usize,
}

/// Serve-loop entry point: runs until the stop flag is set and every
/// connection has drained. Errors (poller failure) are reported, not
/// propagated: the serve thread has no caller to hand them to.
pub(crate) fn run(
    parts: ReactorParts,
    listener: TcpListener,
    engine: &Arc<QueryEngine>,
    stop: &Arc<AtomicBool>,
    reloads: Sender<ReloadJob>,
) {
    ON_REACTOR.set(true);
    let mut reactor = Reactor::new(parts, listener, engine, stop, reloads);
    if let Err(e) = reactor.serve() {
        eprintln!("simsub: reactor failed: {e}");
    }
    reactor.close_all();
}

impl<'a> Reactor<'a> {
    fn new(
        parts: ReactorParts,
        listener: TcpListener,
        engine: &'a Arc<QueryEngine>,
        stop: &'a AtomicBool,
        reloads: Sender<ReloadJob>,
    ) -> Self {
        let (tx, rx) = channel();
        Reactor {
            engine,
            stop,
            poller: parts.poller,
            waker: parts.waker,
            tx,
            rx,
            reloads,
            listener,
            listener_armed: false,
            listener_resume: None,
            slots: Vec::new(),
            generations: Vec::new(),
            free: Vec::new(),
            open: 0,
        }
    }

    fn serve(&mut self) -> io::Result<()> {
        self.arm_listener()?;
        let mut events = Events::with_capacity(1024);
        let mut draining_since: Option<Instant> = None;
        loop {
            // ordering: SeqCst — cold stop flag; strongest order keeps shutdown reasoning simple.
            let stopping = self.stop.load(Ordering::SeqCst);
            if stopping && draining_since.is_none() {
                draining_since = Some(Instant::now());
                self.begin_drain();
            }
            if let Some(since) = draining_since {
                if self.open == 0 {
                    return Ok(());
                }
                if since.elapsed() > DRAIN_GRACE {
                    self.close_all();
                    return Ok(());
                }
            }
            if let Some(resume) = self.listener_resume {
                if Instant::now() >= resume {
                    self.listener_resume = None;
                    self.arm_listener()?;
                }
            }
            let timeout = if draining_since.is_some() {
                DRAIN_TICK
            } else if self.listener_resume.is_some() {
                ACCEPT_BACKOFF.min(POLL_TIMEOUT)
            } else {
                POLL_TIMEOUT
            };
            self.poller.wait(&mut events, Some(timeout))?;
            let mut accept_ready = false;
            for ev in &events {
                match ev.key {
                    KEY_WAKER => self.waker.drain(),
                    KEY_LISTENER => accept_ready = true,
                    _ => self.conn_event(ev),
                }
            }
            self.drain_completions();
            if accept_ready && draining_since.is_none() {
                self.accept_ready();
            }
        }
    }

    fn arm_listener(&mut self) -> io::Result<()> {
        if !self.listener_armed {
            self.poller
                .add(self.listener.as_raw_fd(), KEY_LISTENER, Interest::READ)?;
            self.listener_armed = true;
        }
        Ok(())
    }

    fn park_listener(&mut self) {
        if self.listener_armed {
            let _ = self.poller.delete(self.listener.as_raw_fd());
            self.listener_armed = false;
        }
        self.listener_resume = Some(Instant::now() + ACCEPT_BACKOFF);
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.register(stream).is_err() {
                        self.engine.serve_stats().inc(Count::AcceptErrors);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::ConnectionAborted => {
                    // The peer died between readiness and accept().
                    self.engine.serve_stats().inc(Count::AcceptErrors);
                }
                Err(_) => {
                    // EMFILE/ENFILE, or one of the pending network errors
                    // accept(2) says to retry (ENETDOWN, EPROTO, ...):
                    // park the listener briefly and keep serving
                    // established connections — closing ones free fds.
                    self.engine.serve_stats().inc(Count::AcceptErrors);
                    self.park_listener();
                    return;
                }
            }
        }
    }

    fn register(&mut self, stream: TcpStream) -> io::Result<()> {
        stream.set_nonblocking(true)?;
        // Pipelined protocols suffer under Nagle: answers are small.
        let _ = stream.set_nodelay(true);
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.generations.push(1);
            self.slots.len() - 1
        });
        let key = ((self.generations[idx] as usize) << 32) | idx;
        if let Err(e) = self.poller.add(stream.as_raw_fd(), key, Interest::READ) {
            self.free.push(idx);
            return Err(e);
        }
        self.slots[idx] = Some(Conn {
            stream,
            key,
            read_buf: Vec::new(),
            scanned: 0,
            discard: false,
            read_closed: false,
            write_buf: Vec::new(),
            written: 0,
            interest: Interest::READ,
            next_ordered: 0,
            next_flush: 0,
            held: BTreeMap::new(),
            pending: 0,
            on_reload_thread: 0,
            dead: false,
        });
        self.open += 1;
        self.engine.serve_stats().open_connections().add(1);
        Ok(())
    }

    /// Takes the connection out of its slot for the duration of the
    /// operation (so `&mut self` stays available for submit/deliver),
    /// releasing it instead of putting it back once dead.
    fn with_conn(&mut self, key: usize, f: impl FnOnce(&mut Self, &mut Conn)) {
        let idx = key & 0xFFFF_FFFF;
        let Some(slot) = self.slots.get_mut(idx) else {
            return;
        };
        let Some(conn) = slot.take_if(|c| c.key == key) else {
            return;
        };
        let mut conn = conn;
        f(self, &mut conn);
        self.settle(&mut conn);
        if conn.dead {
            self.release(conn, idx);
        } else {
            self.slots[idx] = Some(conn);
        }
    }

    fn conn_event(&mut self, ev: Event) {
        self.with_conn(ev.key, |this, conn| {
            if ev.err || (ev.hup && !ev.readable) {
                // Error, or hangup with nothing left to read.
                conn.dead = true;
                return;
            }
            if ev.readable {
                this.conn_read(conn);
            }
            if ev.writable && !conn.dead {
                Self::flush(conn);
            }
        });
    }

    fn drain_completions(&mut self) {
        loop {
            // Every sender clones per submission, so Disconnected cannot
            // happen while `self.tx` lives; treat it as empty anyway.
            match self.rx.try_recv() {
                Ok(c) => self.with_conn(c.conn, |_this, conn| {
                    conn.pending -= 1;
                    conn.on_reload_thread -= usize::from(c.reload_thread);
                    Self::deliver(conn, c.ordered, c.seq, c.line);
                }),
                Err(TryRecvError::Empty | TryRecvError::Disconnected) => return,
            }
        }
    }

    fn conn_read(&mut self, conn: &mut Conn) {
        if conn.read_closed {
            return;
        }
        let mut chunk = [0u8; READ_CHUNK];
        let mut total = 0;
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&chunk[..n]);
                    self.process_lines(conn);
                    if conn.dead || conn.read_closed {
                        return;
                    }
                    total += n;
                    // Yield past the quantum or under backpressure;
                    // level-triggered epoll re-delivers what's left.
                    if total >= READ_QUANTUM || conn.write_backlog() >= WRITE_BACKPRESSURE {
                        return;
                    }
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
        if conn.read_closed {
            self.finish_read(conn);
        }
    }

    /// EOF: a trailing partial line (no newline) is still a request.
    fn finish_read(&mut self, conn: &mut Conn) {
        let raw = std::mem::take(&mut conn.read_buf);
        conn.scanned = 0;
        if !conn.discard && !raw.is_empty() {
            self.handle_raw_line(conn, &raw);
        }
    }

    fn process_lines(&mut self, conn: &mut Conn) {
        loop {
            if conn.dead {
                return;
            }
            if conn.discard {
                // Skip the rest of an already-answered oversized line.
                match conn.read_buf.iter().position(|&b| b == b'\n') {
                    Some(pos) => {
                        conn.read_buf.drain(..=pos);
                        conn.scanned = 0;
                        conn.discard = false;
                    }
                    None => {
                        conn.read_buf.clear();
                        conn.scanned = 0;
                        return;
                    }
                }
            }
            match conn.read_buf[conn.scanned..]
                .iter()
                .position(|&b| b == b'\n')
            {
                Some(off) => {
                    let pos = conn.scanned + off;
                    let line: Vec<u8> = conn.read_buf.drain(..=pos).collect();
                    conn.scanned = 0;
                    self.handle_raw_line(conn, &line[..line.len() - 1]);
                    if conn.read_closed {
                        return;
                    }
                }
                None => {
                    conn.scanned = conn.read_buf.len();
                    if conn.read_buf.len() > MAX_LINE_BYTES {
                        // Answer now, discard until the newline shows up.
                        self.too_large(conn);
                        conn.read_buf.clear();
                        conn.scanned = 0;
                        conn.discard = true;
                    }
                    return;
                }
            }
        }
    }

    fn too_large(&mut self, conn: &mut Conn) {
        // Oversized lines get an unenveloped (v1) structured error on
        // the ordered lane: the line's envelope was never parsed.
        let seq = conn.next_ordered;
        conn.next_ordered += 1;
        Self::deliver(conn, true, seq, server::request_too_large_body().dump());
    }

    fn handle_raw_line(&mut self, conn: &mut Conn, raw: &[u8]) {
        if raw.len() > MAX_LINE_BYTES {
            // A whole oversized line arrived in one buffer (or as the
            // final EOF-terminated line): same answer, nothing to drain.
            self.too_large(conn);
            return;
        }
        let text = match std::str::from_utf8(raw) {
            Ok(text) => text.trim(),
            Err(_) => {
                let seq = conn.next_ordered;
                conn.next_ordered += 1;
                let body = server::error_response("request line is not valid UTF-8");
                Self::deliver(conn, true, seq, body.dump());
                return;
            }
        };
        if text.is_empty() {
            return;
        }
        let LineOutcome { version, id, job } = server::classify_line(text, self.engine);
        let ordered = id.is_none();
        let seq = if ordered {
            let seq = conn.next_ordered;
            conn.next_ordered += 1;
            seq
        } else {
            0
        };
        match job {
            LineJob::Immediate(body) => {
                let line = version
                    .envelope(body, id.as_ref(), self.engine.epoch())
                    .dump();
                Self::deliver(conn, ordered, seq, line);
            }
            LineJob::Shutdown(body) => {
                let line = version
                    .envelope(body, id.as_ref(), self.engine.epoch())
                    .dump();
                Self::deliver(conn, ordered, seq, line);
                // Input after `shutdown` on this connection is not
                // processed.
                conn.read_closed = true;
                conn.read_buf.clear();
                conn.scanned = 0;
                // ordering: SeqCst — cold stop flag; strongest order keeps shutdown reasoning simple.
                self.stop.store(true, Ordering::SeqCst);
                let _ = self.waker.wake();
            }
            LineJob::Command(parsed) if conn.on_reload_thread > 0 => {
                // A reload read before this line has not swapped yet:
                // answer from the state it leaves, not the one before it.
                self.queue_reload(conn, ordered, seq, version, id, move |engine| {
                    server::command_response(engine, &parsed)
                });
            }
            LineJob::Command(parsed) => {
                let body = server::command_response(self.engine, &parsed);
                let line = version
                    .envelope(body, id.as_ref(), self.engine.epoch())
                    .dump();
                Self::deliver(conn, ordered, seq, line);
            }
            LineJob::Reload(parsed) => {
                self.queue_reload(conn, ordered, seq, version, id, move |engine| {
                    server::admin_reload(engine, &parsed)
                });
            }
            LineJob::Query { request, options } => {
                let tx = self.tx.clone();
                let waker = Arc::clone(&self.waker);
                let key = conn.key;
                // Captured at submit time: a completion must not hold the
                // engine (Arc cycle through the queued job), and "the
                // epoch when the line was handled" is exactly now.
                let error_epoch = self.engine.epoch();
                let completion_id = id.clone();
                let completion = Box::new(move |outcome: Result<QueryResponse, ServiceError>| {
                    let line = server::render_query_outcome(
                        outcome,
                        options.trace,
                        version,
                        completion_id.as_ref(),
                        error_epoch,
                    );
                    if ON_REACTOR.get() {
                        // Answered inside the reactor's own submit call
                        // (a cache hit at admission): hand the line back
                        // without the channel hop or a self-wake.
                        INLINE_LINE.set(Some(line));
                        return;
                    }
                    let _ = tx.send(Completed {
                        conn: key,
                        seq,
                        ordered,
                        line,
                        reload_thread: false,
                    });
                    let _ = waker.wake();
                });
                match self
                    .engine
                    .submit_with_completion(request, options, completion)
                {
                    Ok(()) => match INLINE_LINE.take() {
                        // Written this turn, through the reorder buffer.
                        Some(line) => Self::deliver(conn, ordered, seq, line),
                        None => conn.pending += 1,
                    },
                    Err(e) => {
                        // Rejected at admission: the completion never runs
                        // (dropped disarmed); answer synchronously.
                        let line = version
                            .envelope(
                                server::service_error_response(&e),
                                id.as_ref(),
                                self.engine.epoch(),
                            )
                            .dump();
                        Self::deliver(conn, ordered, seq, line);
                    }
                }
            }
        }
    }

    /// Queues `work` — a reload, or a command read behind one — for the
    /// reload thread, which runs it after every job queued before it. Its
    /// response lands at the line's slot whatever happens: a panic in
    /// `work` is answered `{"ok":false,"error":"internal",...}`, as a scan
    /// panic is, so the id-less lines after it are never held behind a
    /// slot that cannot fill; after a stop it is "engine is shutting
    /// down", not run.
    fn queue_reload(
        &mut self,
        conn: &mut Conn,
        ordered: bool,
        seq: u64,
        version: ProtocolVersion,
        id: Option<Json>,
        work: impl FnOnce(&QueryEngine) -> Json + Send + 'static,
    ) {
        let engine = Arc::clone(self.engine);
        let tx = self.tx.clone();
        let waker = Arc::clone(&self.waker);
        let key = conn.key;
        let job = move |stopping: bool| {
            let body = if stopping {
                server::service_error_response(&ServiceError::ShuttingDown)
            } else {
                catch_unwind(AssertUnwindSafe(|| work(&engine))).unwrap_or_else(|p| {
                    let msg = format!("reload panicked: {}", panic_message(p));
                    server::service_error_response(&ServiceError::Internal(msg))
                })
            };
            let line = version.envelope(body, id.as_ref(), engine.epoch()).dump();
            let _ = tx.send(Completed {
                conn: key,
                seq,
                ordered,
                line,
                reload_thread: true,
            });
            let _ = waker.wake();
        };
        self.reloads
            .send(Box::new(job))
            .expect("the reload thread outlives the reactor (it catches every panic)");
        conn.pending += 1;
        conn.on_reload_thread += 1;
    }

    /// Routes one finished response into the connection: id-carrying
    /// responses append immediately (out-of-order lane); id-less ones
    /// wait in the reorder map until all earlier ones have flushed.
    fn deliver(conn: &mut Conn, ordered: bool, seq: u64, line: String) {
        if !ordered {
            Self::push_line(conn, &line);
        } else {
            conn.held.insert(seq, line);
            while let Some(next) = conn.held.remove(&conn.next_flush) {
                Self::push_line(conn, &next);
                conn.next_flush += 1;
            }
        }
        Self::flush(conn);
    }

    fn push_line(conn: &mut Conn, line: &str) {
        conn.write_buf.extend_from_slice(line.as_bytes());
        conn.write_buf.push(b'\n');
    }

    fn flush(conn: &mut Conn) {
        while conn.written < conn.write_buf.len() {
            match conn.stream.write(&conn.write_buf[conn.written..]) {
                Ok(0) => {
                    conn.dead = true;
                    return;
                }
                Ok(n) => conn.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
        if conn.written == conn.write_buf.len() {
            conn.write_buf.clear();
            conn.written = 0;
        } else if conn.written >= READ_QUANTUM {
            // Reclaim the flushed prefix of a large backlog.
            conn.write_buf.drain(..conn.written);
            conn.written = 0;
        }
    }

    /// Closes a fully-drained connection and keeps epoll interest in
    /// sync with what the connection can currently make progress on.
    fn settle(&mut self, conn: &mut Conn) {
        if conn.dead {
            return;
        }
        if conn.read_closed
            && conn.pending == 0
            && conn.held.is_empty()
            && conn.write_backlog() == 0
        {
            conn.dead = true;
            return;
        }
        let want = Interest {
            readable: !conn.read_closed && conn.write_backlog() < WRITE_BACKPRESSURE,
            writable: conn.write_backlog() > 0,
        };
        if want != conn.interest {
            match self.poller.modify(conn.stream.as_raw_fd(), conn.key, want) {
                Ok(()) => conn.interest = want,
                Err(_) => conn.dead = true,
            }
        }
    }

    fn release(&mut self, conn: Conn, idx: usize) {
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        self.generations[idx] = self.generations[idx].wrapping_add(1);
        self.free.push(idx);
        self.open -= 1;
        self.engine.serve_stats().open_connections().add(-1);
        // Dropping `conn` closes the socket; pending completions for it
        // fail the key check in `with_conn` and drop harmlessly.
    }

    /// Stop observed: close the listener, stop reading everywhere, and
    /// let already-admitted work finish. Idle connections close here;
    /// the serve loop keeps pumping completions for the rest.
    fn begin_drain(&mut self) {
        if self.listener_armed {
            let _ = self.poller.delete(self.listener.as_raw_fd());
            self.listener_armed = false;
        }
        self.listener_resume = None;
        for idx in 0..self.slots.len() {
            let Some(mut conn) = self.slots[idx].take() else {
                continue;
            };
            conn.read_closed = true;
            conn.read_buf.clear();
            conn.scanned = 0;
            Self::flush(&mut conn);
            self.settle(&mut conn);
            if conn.dead {
                self.release(conn, idx);
            } else {
                self.slots[idx] = Some(conn);
            }
        }
    }

    fn close_all(&mut self) {
        for idx in 0..self.slots.len() {
            if let Some(conn) = self.slots[idx].take() {
                self.release(conn, idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::engine::CorpusSnapshot;
    use simsub_index::TrajectoryDb;
    use simsub_trajectory::{Point, Trajectory};
    use std::io::{BufRead, BufReader};

    /// A reload whose work panics is answered `internal` in its own slot
    /// of the ordered lane, and the id-less line after it is answered
    /// too instead of waiting behind it.
    #[test]
    fn a_panicking_reload_is_answered_and_the_next_line_follows() {
        let points = vec![Point::new(0.0, 0.0, 0.0), Point::new(1.0, 1.0, 1.0)];
        let db = TrajectoryDb::build(vec![Trajectory::new(7, points).unwrap()]).into_shared();
        let config = EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        };
        let engine = Arc::new(QueryEngine::start(CorpusSnapshot::new(db), config));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (served, _) = listener.accept().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let parts = ReactorParts::new().unwrap();
        let (reloads, reload_thread) = spawn_reload_thread(Arc::clone(&stop)).unwrap();
        let mut reactor = Reactor::new(parts, listener, &engine, &stop, reloads);
        reactor.register(served).unwrap();
        let key = reactor.slots[0].as_ref().expect("registered").key;
        reactor.with_conn(key, |this, conn| {
            let seq = conn.next_ordered;
            conn.next_ordered += 1;
            this.queue_reload(conn, true, seq, ProtocolVersion::V1, None, |_| {
                panic!("reload body failed")
            });
            this.handle_raw_line(conn, b"{\"cmd\":\"ping\"}");
        });
        let wait_answered = |reactor: &mut Reactor| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while reactor.slots[0].as_ref().expect("open").pending > 0 {
                assert!(Instant::now() < deadline, "the reload was never answered");
                std::thread::sleep(Duration::from_millis(5));
                reactor.drain_completions();
            }
        };
        wait_answered(&mut reactor);
        let mut lines = BufReader::new(client).lines().map(Result::unwrap);
        let internal = "{\"ok\":false,\"error\":\"internal\",\
                        \"detail\":\"reload panicked: reload body failed\"}";
        assert_eq!(lines.next().as_deref(), Some(internal));
        assert_eq!(lines.next().as_deref(), Some("{\"ok\":true,\"pong\":true}"));

        // Once the server stops, a queued reload is answered without its build.
        // ordering: SeqCst — cold stop flag; strongest order keeps shutdown reasoning simple.
        stop.store(true, Ordering::SeqCst);
        reactor.with_conn(key, |this, conn| {
            let seq = conn.next_ordered;
            conn.next_ordered += 1;
            this.queue_reload(conn, true, seq, ProtocolVersion::V1, None, |_| {
                panic!("a reload built after the stop")
            });
        });
        wait_answered(&mut reactor);
        let refused = "{\"ok\":false,\"error\":\"engine is shutting down\"}";
        assert_eq!(lines.next().as_deref(), Some(refused));
        drop(reactor);
        reload_thread
            .join()
            .expect("the reload thread exits once its queue closes");
        engine.shutdown();
    }
}
