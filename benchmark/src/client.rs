//! The load generator: one wire-v2 connection, requests matched to
//! responses by `"id"`.
//!
//! Closed loop: one thread writes and reads in turn, as a caller that
//! waits for its replies does. Open loop: the generator thread sends on
//! the schedule and sleeps between sends (never spins), while a reader
//! thread blocks on the socket and timestamps each response as it lands,
//! so a latency never includes the generator's own pacing.

use crate::check::{self, Sample};
use crate::trace::Tracer;
use simsub_index::TrajectoryDb;
use simsub_service::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A response this late means the server is wedged: the phase is
/// abandoned and its outstanding requests count as failed.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// The wire `"trace"` stages, in the order of `WireObs::stages`.
pub const STAGES: [&str; 8] = [
    "admit",
    "queue",
    "batch",
    "scan",
    "bound",
    "kernel",
    "merge",
    "serialize",
];

#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// Index into the query pool.
    Query(usize),
    /// Index into the reload files.
    Reload(usize),
}

#[derive(Clone, Copy, Debug)]
pub enum Pace {
    /// `WINDOW` requests in flight; the next goes out when one returns.
    Closed,
    /// Request `i` is due at `start + i / rate`, whatever came back.
    Open { rate: f64 },
}

pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let stream = writer.try_clone()?;
        stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        Ok(Client {
            writer,
            reader: BufReader::with_capacity(1 << 16, stream),
            next_id: 1,
        })
    }

    /// Sends one line and blocks for the next response line.
    pub fn roundtrip(&mut self, line: &str) -> std::io::Result<(Duration, Json)> {
        let start = Instant::now();
        self.writer.write_all(line.as_bytes())?;
        let mut text = String::new();
        self.reader.read_line(&mut text)?;
        let rtt = start.elapsed();
        let json = Json::parse(text.trim())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        Ok((rtt, json))
    }

    pub fn ping(&mut self) -> std::io::Result<Duration> {
        let (rtt, json) = self.roundtrip("{\"cmd\":\"ping\"}\n")?;
        if json.get("pong").and_then(Json::as_bool) == Some(true) {
            Ok(rtt)
        } else {
            Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unexpected ping response {}", json.dump()),
            ))
        }
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        let _ = self.writer.shutdown(Shutdown::Both);
    }
}

/// What a phase needs to render requests and validate answers.
pub struct PhaseCtx<'a> {
    pub bodies: &'a [String],
    pub reload_paths: &'a [PathBuf],
    pub dbs: &'a [Arc<TrajectoryDb>],
    pub first_epoch: u64,
}

/// Counters read off the responses themselves (no server-side access).
#[derive(Default)]
pub struct WireObs {
    pub responses: u64,
    pub cached: u64,
    pub batch_sum: u64,
    pub shed: u64,
    pub expired: u64,
    /// Per-stage µs samples from the `"trace"` objects, indexed as
    /// `STAGES`. Singleton batches only: a dispatch group's `scan_us`
    /// covers every query in it, so it cannot be set against one
    /// request's client-observed latency.
    pub stages: [Vec<f64>; 8],
    /// Per traced singleton response: client-observed latency minus the
    /// six disjoint stages (`bound` and `kernel` are inside `scan`), µs.
    pub unaccounted_us: Vec<f64>,
    /// `cache_evicted` of every reload response.
    pub evicted: Vec<f64>,
}

impl WireObs {
    pub fn merge(&mut self, other: &WireObs) {
        self.responses += other.responses;
        self.cached += other.cached;
        self.batch_sum += other.batch_sum;
        self.shed += other.shed;
        self.expired += other.expired;
        for (mine, theirs) in self.stages.iter_mut().zip(&other.stages) {
            mine.extend(theirs);
        }
        self.evicted.extend(&other.evicted);
        self.unaccounted_us.extend(&other.unaccounted_us);
    }
}

#[derive(Default)]
pub struct PhaseOut {
    pub wall_s: f64,
    /// Query and reload operations sent.
    pub attempted: u64,
    /// OK query responses (reloads count in the wall time only).
    pub ok: u64,
    /// Failed, shed, expired, malformed, wrong or missing responses.
    pub failed: u64,
    pub first_error: Option<String>,
    /// Query latency from the intended send time (open loop) or the
    /// actual send time (closed loop), ms.
    pub lat_ms: Vec<f64>,
    /// Open loop: how late each request left once the stream was free, ms.
    pub late_ms: Vec<f64>,
    pub reload_ms: Vec<f64>,
    pub obs: WireObs,
    pub samples: Vec<Sample>,
}

/// The sending side's record of one request.
#[derive(Clone, Copy)]
struct Sent {
    /// When the schedule wanted it out (closed loop: when it went out).
    intended: Instant,
    /// `intended`, or later if a reload still blocked the stream then.
    free: Instant,
    start: Instant,
    end: Instant,
}

/// The receiving side's record of one answer.
#[derive(Clone, Copy)]
struct Received {
    at: Instant,
    handled: Instant,
    valid: bool,
    /// Sum of the disjoint trace stages, when the answer carried a trace
    /// of a singleton batch.
    accounted_us: Option<f64>,
}

/// Validates answers as they arrive; owned by whichever thread reads.
struct Receiver<'a> {
    ctx: &'a PhaseCtx<'a>,
    ops: &'a [Op],
    base_id: u64,
    sample_every: usize,
    received: Vec<Option<Received>>,
    obs: WireObs,
    samples: Vec<Sample>,
    first_error: Option<String>,
}

impl Receiver<'_> {
    /// Reads and handles one response line; returns the request it
    /// answered, or `None` for a line that matched no outstanding request.
    fn next(
        &mut self,
        reader: &mut BufReader<TcpStream>,
        line: &mut String,
    ) -> std::io::Result<Option<usize>> {
        line.clear();
        if reader.read_line(line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let at = Instant::now();
        let text = line.trim();
        let parsed = Json::parse(text).map_err(|e| format!("malformed response: {e}"));
        let index = parsed.as_ref().ok().and_then(|json| {
            let id = json.get("id")?.as_usize()? as u64;
            let index = id.checked_sub(self.base_id)? as usize;
            (index < self.ops.len() && self.received[index].is_none()).then_some(index)
        });
        let verdict = match (&parsed, index) {
            (Ok(json), Some(index)) => self.validate(json, index),
            (Err(e), _) => Err(e.clone()),
            (Ok(_), None) => Err("response matches no outstanding request".into()),
        };
        if let Err(e) = &verdict {
            self.first_error
                .get_or_insert_with(|| format!("{e}: {text}"));
        }
        if let Some(index) = index {
            self.received[index] = Some(Received {
                at,
                handled: Instant::now(),
                valid: verdict.is_ok(),
                accounted_us: verdict.unwrap_or(None),
            });
        }
        Ok(index)
    }

    /// `Ok(Some(µs))` carries the accounted stage time of a traced
    /// singleton answer.
    fn validate(&mut self, json: &Json, index: usize) -> Result<Option<f64>, String> {
        let mut accounted = None;
        if json.get("ok").and_then(Json::as_bool) != Some(true) {
            match json.get("error").and_then(Json::as_str) {
                Some("overloaded") => self.obs.shed += 1,
                Some("deadline_exceeded") => self.obs.expired += 1,
                _ => {}
            }
            return Err(format!("request {index} was not answered ok"));
        }
        let epoch = json
            .get("epoch")
            .and_then(Json::as_usize)
            .ok_or("response carries no epoch")? as u64;
        match self.ops[index] {
            Op::Reload(_) => {
                let evicted = json.get("cache_evicted").and_then(Json::as_f64);
                self.obs
                    .evicted
                    .push(evicted.ok_or("reload response without cache_evicted")?);
            }
            Op::Query(query) => {
                let hits = check::parse_hits(json)?;
                let ctx = self.ctx;
                let slot = (epoch.saturating_sub(ctx.first_epoch) as usize) % ctx.dbs.len();
                check::structural(&ctx.dbs[slot], &hits)?;
                let obs = &mut self.obs;
                obs.responses += 1;
                obs.cached += u64::from(json.get("cached").and_then(Json::as_bool) == Some(true));
                obs.batch_sum += json.get("batch").and_then(Json::as_usize).unwrap_or(1) as u64;
                let singleton = |t: &&Json| t.get("batch_size").and_then(Json::as_usize) == Some(1);
                if let Some(trace) = json.get("trace").filter(singleton) {
                    let mut total = 0.0;
                    for (samples, stage) in obs.stages.iter_mut().zip(STAGES) {
                        let us = trace.get(&format!("{stage}_us")).and_then(Json::as_f64);
                        let us = us.ok_or_else(|| format!("trace without {stage}_us"))?;
                        samples.push(us);
                        if !matches!(stage, "bound" | "kernel") {
                            total += us;
                        }
                    }
                    accounted = Some(total);
                }
                if self.sample_every > 0 && index.is_multiple_of(self.sample_every) {
                    self.samples.push(Sample { query, epoch, hits });
                }
            }
        }
        Ok(accounted)
    }
}

fn render(line: &mut String, ctx: &PhaseCtx<'_>, id: u64, op: Op, traced: bool) {
    line.clear();
    match op {
        Op::Query(q) => {
            let trace = if traced { ",\"trace\":true" } else { "" };
            line.push_str(&format!("{{\"v\":2,\"id\":{id}{trace}"));
            line.push_str(&ctx.bodies[q]);
        }
        Op::Reload(f) => {
            let path = Json::Str(ctx.reload_paths[f].display().to_string()).dump();
            line.push_str(&format!(
                "{{\"v\":2,\"id\":{id},\"cmd\":\"reload\",\"corpus_bin\":{path}}}"
            ));
        }
    }
    line.push('\n');
}

/// Runs one phase over `client`. `sample_every > 0` keeps every n-th
/// answer for the exact comparison.
pub fn run_phase(
    client: &mut Client,
    ctx: &PhaseCtx<'_>,
    ops: &[Op],
    pace: Pace,
    traced: bool,
    sample_every: usize,
    tracer: Option<&mut Tracer>,
) -> PhaseOut {
    let base_id = client.next_id;
    client.next_id += ops.len() as u64;
    let mut receiver = Receiver {
        ctx,
        ops,
        base_id,
        sample_every,
        received: vec![None; ops.len()],
        obs: WireObs::default(),
        samples: Vec::new(),
        first_error: None,
    };
    let mut sent: Vec<Option<Sent>> = vec![None; ops.len()];
    let start = Instant::now();
    let Client { writer, reader, .. } = client;
    let mut send = |i: usize, intended: Instant, free: Instant, line: &mut String| {
        render(line, ctx, base_id + i as u64, ops[i], traced);
        let start = Instant::now();
        let outcome = writer.write_all(line.as_bytes());
        sent[i] = Some(Sent {
            intended,
            free,
            start,
            end: Instant::now(),
        });
        outcome
    };
    let io_error = match pace {
        Pace::Closed => closed_loop(&mut receiver, reader, &mut send),
        Pace::Open { rate } => open_loop(&mut receiver, reader, &mut send, start, rate),
    };
    let wall_s = start.elapsed().as_secs_f64();

    let mut out = PhaseOut {
        wall_s,
        obs: receiver.obs,
        samples: receiver.samples,
        first_error: receiver.first_error,
        ..PhaseOut::default()
    };
    if let Err(e) = io_error {
        out.first_error.get_or_insert(format!("connection: {e}"));
    }
    let ms = |from: Instant, to: Instant| to.saturating_duration_since(from).as_secs_f64() * 1e3;
    let mut tracer = tracer;
    for (i, (sent, received)) in sent.iter().zip(&receiver.received).enumerate() {
        let Some(sent) = sent else { continue };
        out.attempted += 1;
        if matches!(pace, Pace::Open { .. }) {
            out.late_ms.push(ms(sent.free, sent.start));
        }
        let Some(received) = received.filter(|r| r.valid) else {
            out.failed += 1;
            continue;
        };
        match ops[i] {
            // Client-observed times run from before the write: on two cores
            // the generator is often descheduled for milliseconds inside
            // it, while the server is already at work on the request.
            Op::Reload(_) => out.reload_ms.push(ms(sent.start, received.at)),
            Op::Query(_) => {
                out.ok += 1;
                out.lat_ms.push(ms(sent.intended, received.at));
                if let Some(accounted_us) = received.accounted_us {
                    let observed_us = ms(sent.start, received.at) * 1e3;
                    out.obs.unaccounted_us.push(observed_us - accounted_us);
                }
            }
        }
        if let Some(tracer) = tracer.as_deref_mut() {
            let id = Some(base_id + i as u64);
            let root = tracer.add("request", sent.intended, received.handled, None, id);
            tracer.add("send", sent.start, sent.end, root, id);
            tracer.add("wait", sent.end, received.at, root, id);
            tracer.add("receive", received.at, received.handled, root, id);
        }
    }
    out
}

type SendFn<'a> = dyn FnMut(usize, Instant, Instant, &mut String) -> std::io::Result<()> + 'a;

/// `WINDOW` requests in flight; a reload holds the stream until answered,
/// so the epoch that answers each query is deterministic.
fn closed_loop(
    receiver: &mut Receiver<'_>,
    reader: &mut BufReader<TcpStream>,
    send: &mut SendFn<'_>,
) -> std::io::Result<()> {
    let ops = receiver.ops;
    let (mut line, mut response) = (String::new(), String::new());
    let (mut next, mut in_flight, mut reload_in_flight) = (0, 0, false);
    while next < ops.len() || in_flight > 0 {
        while next < ops.len() && in_flight < crate::workloads::WINDOW && !reload_in_flight {
            let now = Instant::now();
            send(next, now, now, &mut line)?;
            reload_in_flight = matches!(ops[next], Op::Reload(_));
            in_flight += 1;
            next += 1;
        }
        let answered = receiver.next(reader, &mut response)?;
        in_flight -= 1;
        if answered.is_some_and(|i| matches!(ops[i], Op::Reload(_))) {
            reload_in_flight = false;
        }
    }
    Ok(())
}

/// Request `i` is due at `start + i / rate`. The generator sleeps until
/// then; a scoped reader thread takes the answers.
fn open_loop(
    receiver: &mut Receiver<'_>,
    reader: &mut BufReader<TcpStream>,
    send: &mut SendFn<'_>,
    start: Instant,
    rate: f64,
) -> std::io::Result<()> {
    let ops = receiver.ops;
    let (reload_done, reload_wait) = channel::<()>();
    std::thread::scope(|scope| {
        let reading = scope.spawn(|| read_all(receiver, reader, reload_done));
        let mut line = String::new();
        let mut free = start;
        let mut sending = Ok(());
        for (i, op) in ops.iter().enumerate() {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            let wait = due.saturating_duration_since(Instant::now());
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
            sending = send(i, due, due.max(free), &mut line);
            if sending.is_err() {
                break;
            }
            if matches!(op, Op::Reload(_)) {
                // One in-order stream: nothing follows a reload until it
                // is answered, which also pins every query's epoch.
                if reload_wait.recv_timeout(RESPONSE_TIMEOUT).is_err() {
                    break;
                }
                free = Instant::now();
            }
        }
        let reading = reading.join().expect("reader thread panicked");
        sending.and(reading)
    })
}

/// Reader side of the open loop: one answer per op, then done. A read
/// error (the 30 s timeout included) ends it early; the generator sees
/// its reload wait time out and whatever is unanswered counts as failed.
fn read_all(
    receiver: &mut Receiver<'_>,
    reader: &mut BufReader<TcpStream>,
    reload_done: Sender<()>,
) -> std::io::Result<()> {
    crate::alloc::set_counted(false);
    let mut response = String::new();
    for _ in 0..receiver.ops.len() {
        let index = receiver.next(reader, &mut response)?;
        if index.is_some_and(|i| matches!(receiver.ops[i], Op::Reload(_))) {
            let _ = reload_done.send(());
        }
    }
    Ok(())
}
