//! The concurrent query engine: a fixed pool of worker threads fed by an
//! MPSC queue, one job at a time, and an LRU result cache in front of the
//! search algorithms.
//!
//! Design
//! ------
//! - **Snapshot ownership.** The engine serves from an immutable
//!   [`CorpusSnapshot`]: one `Arc<TrajectoryDb>` (one R-tree over the
//!   whole corpus) plus the loaded RLS policy and t2vec model (when
//!   present). On multi-core hosts with spare cores beyond the worker
//!   pool, each worker spreads an unprunable scan's candidates across
//!   scoped threads.
//! - **Hot-swappable handle.** The snapshot lives behind an
//!   [`EngineHandle`]: a swap cell pairing `Arc<CorpusSnapshot>` with a
//!   monotonically increasing *epoch*. [`QueryEngine::swap_snapshot`]
//!   rebinds the corpus/policies live — admissions pin the
//!   [`EpochSnapshot`] current at submit time, so in-flight requests
//!   complete against the epoch they were admitted under while new
//!   requests see the new snapshot immediately. No restart, no dropped
//!   connections.
//! - **Epoch-versioned cache keys.** Cache keys mix the canonical query
//!   hash with the handle epoch, so entries computed under one snapshot
//!   generation are never replayed under another; a swap also purges
//!   stale-epoch entries eagerly ([`SwapReport::cache_evicted`]), and a
//!   scan that finishes after the swap does not re-insert its answer.
//! - **One job per dispatch.** Each worker takes one job off the shared
//!   queue and finishes it before taking the next: it drops the job if
//!   its deadline has passed, answers it from the cache if an entry
//!   appeared since admission, and otherwise scans it through
//!   [`TrajectoryDb::top_k_with_threads`], caches the answer and replies.
//!   An answer leaves as soon as its own scan ends.
//! - **Result cache.** Keyed by [`EpochSnapshot::cache_key`] (the
//!   canonical query hash mixed with the epoch);
//!   a hit short-circuits before any search runs. Admission looks first,
//!   and a hit there is answered on the submitting thread without
//!   touching the queue; a worker looks again at dequeue, so a repeat
//!   queued behind its own miss is answered from the cache.
//! - **Graceful shutdown.** [`QueryEngine::shutdown`] stops admissions,
//!   closes the queue, and joins the workers; already-queued requests are
//!   drained and answered, never dropped. Worker or auditor panics during
//!   the drain are collected into the returned [`ShutdownReport`] instead
//!   of re-panicking mid-join.
//! - **Bulkheads.** The serve path fails partially, never totally: each
//!   job's scan runs under `catch_unwind`, so a panicking query answers
//!   its waiter with [`ServiceError::Internal`] and the worker keeps
//!   serving; a supervisor thread respawns any worker that dies anyway;
//!   every lock recovers from poisoning. An admission gate
//!   (`max_queue_depth`) sheds load with [`ServiceError::Overloaded`]
//!   instead of queueing unboundedly, and per-request deadlines drop
//!   expired work ([`ServiceError::DeadlineExceeded`]) at dequeue rather
//!   than scanning it. The [`crate::fault`] registry injects
//!   panics/stalls/drops at named points so all of this is testable
//!   (`tests/robustness.rs`).

use crate::audit::AuditSample;
use crate::cache::Cache;
use crate::fault::{
    lock_recover, read_recover, try_lock_recover, write_recover, FaultPoint, FaultRegistry,
};
use crate::metrics_registry::ExpositionBuilder;
use crate::query::{AlgoSpec, MeasureSpec, QueryRequest, QueryResponse};
use crate::stats::{Count, ServeStats, StatsSnapshot};
use crate::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use crate::sync::mpsc::{
    channel, sync_channel, Receiver, SendError, Sender, SyncSender, TrySendError,
};
use crate::sync::{Arc, Mutex, RwLock};
use crate::trace::{SlowQueryRecord, TraceReport};
use simsub_core::ExactS;
use simsub_core::{
    MdpConfig, Pos, PosD, PruneStats, Pss, Rls, SizeS, Spring, SubtrajSearch, TopKResult,
};
use simsub_index::TrajectoryDb;
use simsub_measures::{Dtw, Frechet, Measure, T2Vec};
use simsub_nn::BinaryCodec;
use simsub_rl::Policy;
use simsub_trajectory::CorpusArena;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bound on the auditor's sample queue: serving never blocks on the
/// auditor, so samples beyond this backlog are dropped (and counted).
const AUDIT_QUEUE_CAPACITY: usize = 64;

/// Slow-query records retained in memory (newest win); the stderr log
/// line is emitted for every slow query regardless.
const SLOW_LOG_CAPACITY: usize = 64;

/// Errors surfaced by the engine API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The request can never be served (bad parameters, model not loaded).
    InvalidRequest(String),
    /// The engine is shutting down and no longer admits requests.
    ShuttingDown,
    /// The engine dropped the request without answering (worker died or
    /// the response was lost) — the wire maps this to `internal`.
    Canceled,
    /// The admission gate shed this request: the queue already held
    /// `max_queue_depth` jobs. The hint estimates when capacity should
    /// free up (queue depth x median latency / workers).
    Overloaded {
        /// Suggested client back-off, milliseconds.
        retry_after_ms: u64,
    },
    /// The request's deadline expired before a worker scanned it; the
    /// work was dropped, not computed.
    DeadlineExceeded,
    /// The scan for this request panicked (caught; the worker survived).
    Internal(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            ServiceError::ShuttingDown => write!(f, "engine is shutting down"),
            ServiceError::Canceled => write!(f, "request canceled"),
            ServiceError::Overloaded { retry_after_ms } => {
                write!(f, "overloaded: queue full, retry in {retry_after_ms} ms")
            }
            ServiceError::DeadlineExceeded => {
                write!(f, "deadline exceeded before the query was scanned")
            }
            ServiceError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Immutable corpus + models the engine serves from. Cloning is cheap
/// (`Arc`s all the way down). Snapshots are never mutated — live reload
/// builds a fresh one and swaps it in through the [`EngineHandle`].
#[derive(Clone)]
pub struct CorpusSnapshot {
    corpus: Arc<TrajectoryDb>,
    rls: Option<Arc<Rls>>,
    t2vec: Option<Arc<T2Vec>>,
}

impl CorpusSnapshot {
    /// Snapshot over a built database, with no learned models loaded.
    pub fn new(db: Arc<TrajectoryDb>) -> Self {
        Self {
            corpus: db,
            rls: None,
            t2vec: None,
        }
    }

    /// Assembles a snapshot straight from a columnar [`CorpusArena`] —
    /// the *single* builder behind `simsub serve` startup, the admin
    /// `reload` command, and the packed-binary corpus path
    /// (`--corpus-bin` / `"corpus_bin"`): the arena's slabs become the
    /// database storage with no per-trajectory materialization.
    pub fn assemble_arena(
        arena: CorpusArena,
        policy: Option<(&std::path::Path, MdpConfig)>,
        t2vec: Option<&std::path::Path>,
    ) -> Result<Self, String> {
        let mut snapshot = Self::new(TrajectoryDb::from_arena(arena).into_shared());
        if let Some((path, mdp)) = policy {
            let policy =
                Policy::load(path).map_err(|e| format!("loading {}: {e}", path.display()))?;
            let rls = Rls::try_new(policy, mdp).map_err(|e| format!("{}: {e}", path.display()))?;
            snapshot = snapshot.with_rls(rls);
        }
        if let Some(path) = t2vec {
            let model =
                T2Vec::load(path).map_err(|e| format!("loading {}: {e}", path.display()))?;
            snapshot = snapshot.with_t2vec(model);
        }
        Ok(snapshot)
    }

    /// Adds a trained RLS searcher, enabling `"algo": "rls"` requests.
    pub fn with_rls(mut self, rls: Rls) -> Self {
        self.rls = Some(Arc::new(rls));
        self
    }

    /// Adds a trained t2vec model, enabling `"measure": "t2vec"` requests.
    pub fn with_t2vec(mut self, model: T2Vec) -> Self {
        self.t2vec = Some(Arc::new(model));
        self
    }

    /// The corpus this snapshot serves from.
    pub fn corpus(&self) -> &Arc<TrajectoryDb> {
        &self.corpus
    }

    /// True when an RLS policy is loaded (`"algo":"rls"` servable).
    pub fn has_rls(&self) -> bool {
        self.rls.is_some()
    }

    /// True when a t2vec model is loaded (`"measure":"t2vec"` servable).
    pub fn has_t2vec(&self) -> bool {
        self.t2vec.is_some()
    }

    /// Checks a request against the loaded models, then resolves its
    /// algorithm. The scan gets the loaded [`Rls`] itself (every request
    /// shares one policy), so all of its trait overrides — columnar
    /// `search_with`, non-admissible similarities — apply when served.
    /// Spring is DTW's DP whatever measure it is handed, so it serves
    /// `"measure":"dtw"` only.
    fn algo(
        &self,
        spec: AlgoSpec,
        measure: MeasureSpec,
    ) -> Result<Arc<dyn SubtrajSearch + Send>, ServiceError> {
        Ok(match spec {
            AlgoSpec::Exact => Arc::new(ExactS),
            AlgoSpec::SizeS { xi } => Arc::new(SizeS::new(xi)),
            AlgoSpec::Pss => Arc::new(Pss),
            AlgoSpec::Pos => Arc::new(Pos),
            AlgoSpec::PosD { delay } => Arc::new(PosD::new(delay)),
            AlgoSpec::Spring if measure != MeasureSpec::Dtw => {
                return Err(ServiceError::InvalidRequest(format!(
                    "spring answers under dtw only, not {}",
                    measure.wire_name()
                )))
            }
            AlgoSpec::Spring => Arc::new(Spring::new()),
            AlgoSpec::Rls => match &self.rls {
                Some(rls) => Arc::clone(rls) as _,
                None => {
                    return Err(ServiceError::InvalidRequest(
                        "no RLS policy loaded into this engine".into(),
                    ))
                }
            },
        })
    }

    pub(crate) fn measure(&self, spec: MeasureSpec) -> Result<&dyn Measure, ServiceError> {
        match spec {
            MeasureSpec::Dtw => Ok(&Dtw),
            MeasureSpec::Frechet => Ok(&Frechet),
            MeasureSpec::T2Vec => match &self.t2vec {
                Some(model) => Ok(model.as_ref()),
                None => Err(ServiceError::InvalidRequest(
                    "no t2vec model loaded into this engine".into(),
                )),
            },
        }
    }
}

/// A [`CorpusSnapshot`] stamped with the engine epoch it was installed
/// under. The epoch is what makes hot swap safe to cache across: it is
/// mixed into every cache key, echoed on v2 wire responses, and pinned
/// by each request at admission so in-flight work never migrates onto a
/// newer snapshot mid-flight.
pub struct EpochSnapshot {
    epoch: u64,
    snapshot: CorpusSnapshot,
}

impl EpochSnapshot {
    /// The engine epoch this snapshot was installed under (first is 1;
    /// strictly increasing across swaps).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The snapshot itself.
    pub fn snapshot(&self) -> &CorpusSnapshot {
        &self.snapshot
    }

    /// The cache key for `request` under this epoch: the request's
    /// canonical hash mixed with the epoch, `mix(canonical, epoch)`.
    /// Entries computed under an older snapshot generation are therefore
    /// unreachable the moment a swap lands, while within one generation
    /// the key is exactly as stable as the canonical query hash.
    pub fn cache_key(&self, request: &QueryRequest) -> u64 {
        crate::query::mix_key(request.canonical_key(), self.epoch)
    }
}

/// The hot-swap cell at the center of the control plane: an
/// atomically-replaceable `Arc<EpochSnapshot>`. Loads are wait-short
/// (a read lock held only for one `Arc` clone — part of every warm hit,
/// so the perf ledger's `service.engine_hit_us` carries it); swaps take the
/// write lock for one pointer exchange. Epochs start at 1 and increase
/// by exactly 1 per swap, so an epoch uniquely names a snapshot
/// generation for the lifetime of the engine.
pub struct EngineHandle {
    cell: RwLock<Arc<EpochSnapshot>>,
}

impl EngineHandle {
    /// Wraps `snapshot` as epoch 1.
    pub fn new(snapshot: CorpusSnapshot) -> Self {
        Self {
            cell: RwLock::new(Arc::new(EpochSnapshot { epoch: 1, snapshot })),
        }
    }

    /// The current snapshot generation. Callers hold the returned `Arc`
    /// for as long as they need a consistent view; a concurrent swap
    /// never invalidates it.
    pub fn load(&self) -> Arc<EpochSnapshot> {
        Arc::clone(&read_recover(&self.cell))
    }

    /// The current epoch (shorthand for `load().epoch()`).
    pub fn epoch(&self) -> u64 {
        read_recover(&self.cell).epoch
    }

    /// Atomically replaces the snapshot, bumping the epoch. Returns the
    /// displaced and the freshly installed generations.
    pub fn swap(&self, snapshot: CorpusSnapshot) -> (Arc<EpochSnapshot>, Arc<EpochSnapshot>) {
        let mut cell = write_recover(&self.cell);
        let next = Arc::new(EpochSnapshot {
            epoch: cell.epoch + 1,
            snapshot,
        });
        let old = std::mem::replace(&mut *cell, Arc::clone(&next));
        (old, next)
    }
}

/// What a [`QueryEngine::swap_snapshot`] did, for operators and the
/// admin `reload` wire response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapReport {
    /// Epoch that was serving before the swap.
    pub previous_epoch: u64,
    /// Epoch now serving (always `previous_epoch + 1`).
    pub epoch: u64,
    /// Stale-epoch result-cache entries purged by the swap.
    pub cache_evicted: usize,
    /// Trajectories in the new snapshot.
    pub trajectories: usize,
    /// Total points in the new snapshot.
    pub points: usize,
}

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads (≥ 1).
    pub workers: usize,
    /// Result-cache entries; 0 disables caching.
    pub cache_capacity: usize,
    /// `k` applied when a wire request omits `"k"` (≥ 1). Tunable live
    /// through [`QueryEngine::configure`] / the admin `configure`
    /// command.
    pub default_k: usize,
    /// Slow-query threshold in microseconds: a request whose engine
    /// latency reaches it is counted, ring-logged with its full stage
    /// trace ([`QueryEngine::slow_queries`]), and written as one JSON
    /// line to stderr. 0 (default) disables the slow-query log. Tunable
    /// live through [`QueryEngine::configure`].
    pub slow_query_us: u64,
    /// Online quality-audit sampling fraction in `[0, 1]`: roughly this
    /// fraction of cold (uncached) answers is re-checked against ExactS
    /// by the background auditor, feeding the `audit_ar`/`audit_mr`/
    /// `audit_rr` gauges. 0.0 (default) disables auditing. Tunable live.
    pub audit_sample: f64,
    /// Admission-gate bound on the queue: a submit that would make the
    /// queue exceed this depth is shed with
    /// [`ServiceError::Overloaded`] instead of enqueued. 0 (default)
    /// keeps the queue unbounded. Tunable live.
    pub max_queue_depth: usize,
    /// Deadline applied to requests that carry none of their own,
    /// milliseconds: a job whose deadline expires before a worker scans
    /// it is dropped ([`ServiceError::DeadlineExceeded`]) rather than
    /// computed. 0 (default) means no default deadline. Tunable live.
    pub default_deadline_ms: u64,
    /// Fault-injection spec applied at start (see [`crate::fault`] for
    /// the grammar). `None` (default) reads the `SIMSUB_FAULTS`
    /// environment hatch; `Some("")` forces a disarmed registry
    /// regardless of the environment. Tunable live via `configure`.
    pub faults: Option<String>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(4, usize::from),
            cache_capacity: 4096,
            default_k: 1,
            slow_query_us: 0,
            audit_sample: 0.0,
            max_queue_depth: 0,
            default_deadline_ms: 0,
            faults: None,
        }
    }
}

/// A partial update for the live-tunable engine knobs (`None` = leave
/// unchanged); applied by [`QueryEngine::configure`] and the admin
/// `{"cmd":"configure",...}` wire command.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConfigUpdate {
    /// Result-cache capacity; shrinking evicts LRU entries immediately,
    /// 0 disables caching.
    pub cache_capacity: Option<usize>,
    /// Default `k` for wire requests that omit it (≥ 1).
    pub default_k: Option<usize>,
    /// Slow-query threshold, microseconds (0 disables the slow-query
    /// log).
    pub slow_query_us: Option<u64>,
    /// Quality-audit sampling fraction, `[0, 1]` (0 disables auditing).
    pub audit_sample: Option<f64>,
    /// Admission-gate queue bound (0 = unbounded).
    pub max_queue_depth: Option<usize>,
    /// Default per-request deadline, milliseconds (0 = none).
    pub default_deadline_ms: Option<u64>,
    /// Fault-injection spec to apply (empty string disarms; see
    /// [`crate::fault`] for the grammar). Invalid specs are rejected
    /// without changing anything.
    pub faults: Option<String>,
}

/// Point-in-time view of the live engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigView {
    /// Worker threads (fixed at start).
    pub workers: usize,
    /// Current result-cache capacity.
    pub cache_capacity: usize,
    /// Entries currently cached.
    pub cache_len: usize,
    /// Default `k` for wire requests that omit it.
    pub default_k: usize,
    /// Slow-query threshold, microseconds (0 = disabled).
    pub slow_query_us: u64,
    /// Quality-audit sampling fraction (0 = disabled).
    pub audit_sample: f64,
    /// Admission-gate queue bound (0 = unbounded).
    pub max_queue_depth: usize,
    /// Default per-request deadline, milliseconds (0 = none).
    pub default_deadline_ms: u64,
    /// The fault-injection spec currently armed (empty = disarmed).
    pub faults: String,
}

/// A submitted request's pending answer.
#[derive(Debug)]
pub struct PendingQuery {
    rx: Receiver<Result<QueryResponse, ServiceError>>,
}

impl PendingQuery {
    /// Blocks until the engine answers — with the result, or with a
    /// structured error ([`ServiceError::DeadlineExceeded`],
    /// [`ServiceError::Internal`]). `Canceled` only if the engine
    /// dropped the request entirely (worker died holding it).
    pub fn wait(self) -> Result<QueryResponse, ServiceError> {
        self.rx.recv().map_err(|_| ServiceError::Canceled)?
    }
}

/// A completion to run with a job's answer. Runs on the worker thread
/// that finished the job — or, for a cache hit answered at admission,
/// on the thread that called [`QueryEngine::submit_with_completion`],
/// before that call returns — so it must be quick and must not panic.
/// The reactor's completion hands its line back directly when it runs
/// on the reactor thread and otherwise pushes onto a queue and wakes the
/// poller; [`QueryEngine::submit`]'s sends into its [`PendingQuery`]
/// channel.
pub type CompletionFn = Box<dyn FnOnce(Result<QueryResponse, ServiceError>) + Send + 'static>;

/// The per-request knobs of [`QueryEngine::submit_with_completion`]
/// besides the request itself. The default is an untraced request with
/// the engine's default deadline and no parse time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubmitOptions {
    /// Return a per-stage timing breakdown with the answer
    /// ([`QueryResponse::trace`]).
    pub trace: bool,
    /// Drop the job if no worker has dequeued it this long after
    /// admission. `None` falls back to the engine's
    /// `default_deadline_ms` (no deadline when that is 0 too).
    pub deadline: Option<Duration>,
    /// Time the caller spent turning its wire line into the request (JSON
    /// parse plus request decode), reported as the trace's `parse_us`.
    /// Zero for in-process callers.
    pub parse: Duration,
}

/// How a job's answer gets back to its requester: its completion, run
/// at most once. Delivery is guaranteed: a `Reply` dropped unused — a
/// worker died holding the job, a fault ate the response — delivers
/// [`ServiceError::Canceled`] from `Drop`, so every requester (the
/// reactor must retire every in-flight id to drain its connections)
/// hears back exactly once.
struct Reply(Option<CompletionFn>);

impl Reply {
    fn deliver(mut self, result: Result<QueryResponse, ServiceError>) {
        if let Some(completion) = self.0.take() {
            completion(result);
        }
    }

    /// Defuses the drop guard without delivering anything. Used on
    /// synchronous submit failures, where the error goes back through
    /// the `Result` return instead (a completion must never fire for a
    /// request whose submit returned `Err`).
    fn disarm(&mut self) {
        self.0 = None;
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if let Some(completion) = self.0.take() {
            completion(Err(ServiceError::Canceled));
        }
    }
}

struct Job {
    request: QueryRequest,
    key: u64,
    /// The snapshot generation current when this request was admitted.
    /// Workers answer from here — never from the live handle — so a hot
    /// swap can land mid-queue without changing what this request sees.
    admitted: Arc<EpochSnapshot>,
    submitted: Instant,
    /// Time `submit` spent validating, pinning, keying and looking up
    /// this request (the trace's admission stage).
    admit_ns: u64,
    /// The caller's line-to-request time ([`SubmitOptions::parse`]).
    parse_ns: u64,
    /// True when the requester asked for a stage trace; enables the
    /// per-candidate scan clocks for this job's scan.
    trace: bool,
    /// Drop-dead time: a worker that picks this job up after this
    /// instant fails it with `DeadlineExceeded` instead of scanning.
    /// Deadlines deliberately do NOT enter the cache key — a deadline
    /// changes *whether* work runs, never its answer.
    deadline: Option<Instant>,
    reply: Reply,
}

impl Job {
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }
}

/// A cached answer carries the request it answers: the 64-bit key is an
/// index, and every hit is verified with `canonically_equal` so an FNV
/// collision (accidental or adversarial) can never serve one query's
/// results to a different query.
struct CachedAnswer {
    request: QueryRequest,
    results: Arc<Vec<TopKResult>>,
}

/// One result-cache lookup, as admission and a dequeuing worker both make
/// it: `key` (mixed with the admitted epoch) finds the entry, and the
/// entry's own request must be canonically equal to `request`, or it is
/// a miss.
fn cached_answer(
    cache: &mut Cache<u64, Arc<CachedAnswer>>,
    key: u64,
    request: &QueryRequest,
) -> Option<Arc<Vec<TopKResult>>> {
    cache
        .get(&key)
        .filter(|entry| entry.request.canonically_equal(request))
        .map(|entry| Arc::clone(&entry.results))
}

/// The live-tunable knobs, on atomics so `configure` never blocks the
/// dispatch path.
struct Runtime {
    default_k: AtomicUsize,
    /// Slow-query threshold, microseconds; 0 disables the slow log.
    slow_query_us: AtomicU64,
    /// Audit sampling fraction as f64 bits; `0.0` disables auditing.
    audit_sample: AtomicU64,
    /// Admission-gate queue bound; 0 keeps the queue unbounded.
    max_queue_depth: AtomicUsize,
    /// Default per-request deadline, milliseconds; 0 means none.
    default_deadline_ms: AtomicU64,
}

impl Runtime {
    /// The current audit sampling fraction (0.0 = auditing off).
    fn audit_sample(&self) -> f64 {
        // ordering: relaxed — independent config cell; readers may lag a configure.
        f64::from_bits(self.audit_sample.load(Ordering::Relaxed))
    }
}

struct Inner {
    handle: EngineHandle,
    runtime: Runtime,
    workers: usize,
    queue: Mutex<Receiver<Job>>,
    cache: Mutex<Cache<u64, Arc<CachedAnswer>>>,
    stats: ServeStats,
    /// Threads each worker may spread an unprunable scan's candidates
    /// over: the cores left after the worker pool claims its share (1 on a fully subscribed
    /// pool, so the default configuration never oversubscribes and a
    /// served query never competes with the next one for a core).
    scan_threads: usize,
    /// Newest slow-query records (bounded ring; see `SLOW_LOG_CAPACITY`).
    slow_log: Mutex<VecDeque<SlowQueryRecord>>,
    /// Bounded feed into the auditor thread; `None` once shutdown has
    /// begun. `try_send` only — serving never blocks on the auditor.
    audit_tx: Mutex<Option<SyncSender<AuditSample>>>,
    /// Cold answers seen by the sampler, for the 1-in-N audit cadence.
    audit_counter: AtomicU64,
    /// Armed fault-injection points (all off unless chaos testing).
    faults: FaultRegistry,
    /// Set once by `shutdown`; tells the supervisor to stop respawning
    /// workers that exit.
    shutting_down: AtomicBool,
}

/// The worker slots, shared between the engine (shutdown joins them) and
/// the supervisor thread (respawns a slot whose thread died). `None`
/// means the slot's worker exited cleanly (shutdown drain) or is being
/// replaced.
struct WorkerPool {
    slots: Mutex<Vec<Option<JoinHandle<()>>>>,
}

/// What [`QueryEngine::shutdown`] observed while joining the engine's
/// threads. A fully healthy shutdown reports no panics; panics that did
/// happen are collected here instead of re-panicking mid-drain (which
/// would leak the remaining threads).
#[derive(Debug, Default)]
pub struct ShutdownReport {
    /// Panic messages of workers that died without being respawned.
    pub worker_panics: Vec<String>,
    /// The auditor thread's panic message, if it died.
    pub auditor_panic: Option<String>,
    /// The supervisor thread's panic message, if it died.
    pub supervisor_panic: Option<String>,
}

impl ShutdownReport {
    /// True when every thread was joined without a panic.
    pub fn clean(&self) -> bool {
        self.worker_panics.is_empty()
            && self.auditor_panic.is_none()
            && self.supervisor_panic.is_none()
    }
}

/// Renders a caught panic payload for error messages.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// How often the supervisor polls the worker slots for dead threads.
const SUPERVISE_INTERVAL: Duration = Duration::from_millis(20);

/// The concurrent query engine. See the module docs for the design.
pub struct QueryEngine {
    inner: Arc<Inner>,
    sender: Mutex<Option<Sender<Job>>>,
    pool: Arc<WorkerPool>,
    supervisor: Mutex<Option<JoinHandle<()>>>,
    auditor: Mutex<Option<JoinHandle<()>>>,
}

impl QueryEngine {
    /// Spawns the worker pool and returns the running engine, serving
    /// `snapshot` as epoch 1.
    pub fn start(snapshot: CorpusSnapshot, config: EngineConfig) -> Self {
        assert!(config.workers >= 1, "need at least one worker");
        assert!(config.default_k >= 1, "default_k must be positive");
        assert!(
            config.audit_sample.is_finite() && (0.0..=1.0).contains(&config.audit_sample),
            "audit_sample must be a fraction in [0, 1]"
        );
        let (tx, rx) = channel();
        let (audit_tx, audit_rx) = sync_channel::<AuditSample>(AUDIT_QUEUE_CAPACITY);
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let scan_threads = (cores / config.workers).max(1);
        let inner = Arc::new(Inner {
            cache: Mutex::new(Cache::new(config.cache_capacity)),
            stats: ServeStats::with_workers(config.workers),
            handle: EngineHandle::new(snapshot),
            runtime: Runtime {
                default_k: AtomicUsize::new(config.default_k),
                slow_query_us: AtomicU64::new(config.slow_query_us),
                audit_sample: AtomicU64::new(config.audit_sample.to_bits()),
                max_queue_depth: AtomicUsize::new(config.max_queue_depth),
                default_deadline_ms: AtomicU64::new(config.default_deadline_ms),
            },
            workers: config.workers,
            queue: Mutex::new(rx),
            scan_threads,
            slow_log: Mutex::new(VecDeque::with_capacity(SLOW_LOG_CAPACITY)),
            audit_tx: Mutex::new(Some(audit_tx)),
            audit_counter: AtomicU64::new(0),
            faults: FaultRegistry::disarmed(),
            shutting_down: AtomicBool::new(false),
        });
        // `Some(spec)` wins over the environment (an explicit empty spec
        // pins the registry disarmed even under SIMSUB_FAULTS — the
        // baseline engines of the chaos harness rely on this).
        let fault_spec = config
            .faults
            .or_else(|| std::env::var("SIMSUB_FAULTS").ok())
            .unwrap_or_default();
        inner
            .faults
            .set_spec(&fault_spec)
            .unwrap_or_else(|e| panic!("invalid fault spec {fault_spec:?}: {e}"));
        let pool = Arc::new(WorkerPool {
            slots: Mutex::new(
                (0..inner.workers)
                    .map(|i| Some(spawn_worker(&inner, i)))
                    .collect(),
            ),
        });
        let supervisor = {
            let inner = Arc::clone(&inner);
            let pool = Arc::clone(&pool);
            std::thread::Builder::new()
                .name("simsub-supervisor".into())
                .spawn(move || supervise(&inner, &pool))
                .expect("spawning supervisor thread")
        };
        let auditor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("simsub-auditor".into())
                .spawn(move || {
                    while let Ok(sample) = audit_rx.recv() {
                        if let Some(metrics) = crate::audit::evaluate_sample(&sample) {
                            inner.stats.record_audit_sample(&metrics);
                        } else {
                            inner.stats.inc(Count::AuditDropped);
                        }
                    }
                })
                .expect("spawning auditor thread")
        };
        Self {
            inner,
            sender: Mutex::new(Some(tx)),
            pool,
            supervisor: Mutex::new(Some(supervisor)),
            auditor: Mutex::new(Some(auditor)),
        }
    }

    /// Validates and enqueues a request; returns a handle to await. The
    /// request is pinned to the snapshot generation current *now*: a
    /// concurrent [`QueryEngine::swap_snapshot`] does not change what an
    /// already-admitted request computes against.
    pub fn submit(&self, request: QueryRequest) -> Result<PendingQuery, ServiceError> {
        let (tx, rx) = channel();
        self.submit_with_completion(
            request,
            SubmitOptions::default(),
            // Best-effort: the requester may have given up and dropped
            // the receiver.
            Box::new(move |result| {
                let _ = tx.send(result);
            }),
        )?;
        Ok(PendingQuery { rx })
    }

    /// Validates and admits a request whose answer `completion` receives
    /// — the path every admitted request takes (the reactor's directly,
    /// [`QueryEngine::submit`]'s through a channel). Validation, snapshot
    /// pinning, the admission gate and a result-cache lookup run here,
    /// synchronously, in that order.
    ///
    /// **Where the completion runs.** A cache hit at admission is
    /// answered right here: the completion runs on the calling thread
    /// *before this call returns*, and the request never enters the
    /// queue, wakes a worker or waits on a deadline (nothing waits), and
    /// leaves `queue_depth` alone. The lookup never blocks: a cache lock
    /// held elsewhere reads as a miss. Every other request is queued and its
    /// completion runs on the worker thread that finishes the job (whose
    /// own cache lookup catches an entry that appeared meanwhile).
    ///
    /// The completion fires **exactly once** for every admitted request,
    /// no matter how the job ends (answered, deadline-expired, worker
    /// panic, fault-eaten response, shutdown drain — the last three
    /// deliver [`ServiceError::Canceled`]); it must be quick and
    /// panic-free. A submit that returns `Err` was *not* admitted and
    /// the completion is dropped without running — synchronous errors
    /// travel on the return value only.
    ///
    /// A [`SubmitOptions::trace`]d request's answer carries a per-stage
    /// timing breakdown ([`QueryResponse::trace`]), including the in-scan
    /// bound/kernel split measured for its own scan. If no worker has
    /// dequeued a queued request once its [`SubmitOptions::deadline`]
    /// elapses, the job is dropped and answered with
    /// [`ServiceError::DeadlineExceeded`] (checked at dequeue only). A
    /// deadline never changes an answer — only whether the work runs — so
    /// it does not enter the cache key.
    pub fn submit_with_completion(
        &self,
        request: QueryRequest,
        options: SubmitOptions,
        completion: CompletionFn,
    ) -> Result<(), ServiceError> {
        let mut reply = Reply(Some(completion));
        let admit_start = Instant::now();
        let admitted = match self.preflight(&request) {
            Ok(snapshot) => snapshot,
            Err(e) => {
                reply.disarm();
                return Err(e);
            }
        };
        let key = admitted.cache_key(&request);
        let hit = self.admission_lookup(key, &request);
        let mut job = Job {
            key,
            admitted,
            request,
            submitted: Instant::now(),
            admit_ns: admit_start.elapsed().as_nanos() as u64,
            parse_ns: options.parse.as_nanos() as u64,
            trace: options.trace,
            deadline: None,
            reply,
        };
        if let Some(results) = hit {
            // Admitted and answered in one step; `respond` releases the
            // inflight slot it takes for the duration of the answer.
            self.inner.stats.inc(Count::Admitted);
            self.inner.stats.inflight().add(1);
            let dequeued = job.submitted;
            respond(&self.inner, job, results, dequeued, None);
            return Ok(());
        }
        let deadline = options.deadline.or_else(|| {
            let ms = self
                .inner
                .runtime
                .default_deadline_ms
                .load(Ordering::Relaxed); // ordering: relaxed config cell
            (ms > 0).then(|| Duration::from_millis(ms))
        });
        job.deadline = deadline.map(|d| job.submitted + d);
        let guard = lock_recover(&self.sender);
        let Some(tx) = guard.as_ref() else {
            let mut job = job;
            job.reply.disarm();
            return Err(ServiceError::ShuttingDown);
        };
        match tx.send(job) {
            Ok(()) => {
                self.inner.stats.inc(Count::Admitted);
                self.inner.stats.queue_depth().add(1);
                Ok(())
            }
            Err(SendError(mut job)) => {
                job.reply.disarm();
                Err(ServiceError::ShuttingDown)
            }
        }
    }

    /// The synchronous half of admission: request validation, snapshot
    /// pinning, and the shed gate. Factored out of
    /// [`Self::submit_with_completion`] so the error paths stay
    /// `?`-shaped without touching the reply guard.
    fn preflight(&self, request: &QueryRequest) -> Result<Arc<EpochSnapshot>, ServiceError> {
        if request.query.is_empty() {
            return Err(ServiceError::InvalidRequest("empty query".into()));
        }
        if request.k == 0 {
            return Err(ServiceError::InvalidRequest("k must be positive".into()));
        }
        let admitted = self.inner.handle.load();
        // Resolve once now so "model not loaded" fails fast, synchronously
        // — against the same generation the job will run on.
        admitted.snapshot.algo(request.algo, request.measure)?;
        admitted.snapshot.measure(request.measure)?;

        // Admission gate: shed instead of queueing unboundedly. Shed
        // requests still count as admitted so the reconciliation identity
        // (admitted == answered + shed + expired + internal) holds.
        // ordering: relaxed — config cell; a stale bound sheds or admits one request late.
        let max_depth = self.inner.runtime.max_queue_depth.load(Ordering::Relaxed);
        if max_depth > 0 {
            let depth = self.inner.stats.queue_depth().get();
            if depth >= max_depth as i64 {
                self.inner.stats.inc(Count::Admitted);
                self.inner.stats.inc(Count::Shed);
                return Err(ServiceError::Overloaded {
                    retry_after_ms: self.retry_after_hint(depth),
                });
            }
        }
        Ok(admitted)
    }

    /// The admission half of the result cache: the same lookup a
    /// dequeuing worker makes ([`cached_answer`]), taken only if the
    /// cache lock is free. A held lock — a worker's lookup or insert, a
    /// `cache_lock_stall` fault, a swap's purge — reads as a miss, so the
    /// reactor thread never waits on it. Once shutdown has begun nothing
    /// is answered here, so a late submit still meets the closed queue.
    fn admission_lookup(&self, key: u64, request: &QueryRequest) -> Option<Arc<Vec<TopKResult>>> {
        // ordering: SeqCst — pairs with shutdown()'s store, like supervise()'s check.
        if self.inner.shutting_down.load(Ordering::SeqCst) {
            return None;
        }
        let mut cache = try_lock_recover(&self.inner.cache)?;
        cached_answer(&mut cache, key, request)
    }

    /// Back-off hint for shed requests: roughly how long the current
    /// backlog needs to drain (`depth x median latency / workers`),
    /// clamped to [1 ms, 10 s]. With no latency history yet, assumes
    /// 1 ms per queued job.
    fn retry_after_hint(&self, depth: i64) -> u64 {
        let p50_us = self.inner.stats.latency_p50_us().max(1_000);
        (depth.max(0) as u64)
            .saturating_mul(p50_us)
            .div_euclid(self.inner.workers.max(1) as u64 * 1_000)
            .clamp(1, 10_000)
    }

    /// Convenience: submit and block for the answer.
    pub fn query(&self, request: QueryRequest) -> Result<QueryResponse, ServiceError> {
        self.submit(request)?.wait()
    }

    /// Current aggregate statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// The live stats registry, for the serving layer's own recorders
    /// (accept errors, open connections).
    pub(crate) fn serve_stats(&self) -> &ServeStats {
        &self.inner.stats
    }

    /// The hot-swap cell holding the serving snapshot.
    pub fn handle(&self) -> &EngineHandle {
        &self.inner.handle
    }

    /// The snapshot generation currently serving new admissions.
    pub fn current(&self) -> Arc<EpochSnapshot> {
        self.inner.handle.load()
    }

    /// The current engine epoch (1 until the first swap).
    pub fn epoch(&self) -> u64 {
        self.inner.handle.epoch()
    }

    /// The `k` applied to wire requests that omit `"k"`.
    pub fn default_k(&self) -> usize {
        // ordering: relaxed — config cell; no cross-field consistency is promised.
        self.inner.runtime.default_k.load(Ordering::Relaxed)
    }

    /// Atomically replaces the serving snapshot — the live-reload
    /// primitive behind the admin `{"cmd":"reload",...}` command.
    ///
    /// New admissions see `snapshot` (and its bumped epoch) immediately;
    /// requests admitted earlier complete against the generation they
    /// were admitted under, then the old snapshot's memory is released
    /// when the last such request drops its pin. Stale-epoch result
    /// cache entries are purged eagerly (they are unreachable anyway —
    /// keys mix in the epoch) and counted in
    /// [`Count::CacheEvictedOnSwap`]. The new epoch is
    /// published before the purge takes the cache lock, so a worker
    /// finishing an old-epoch scan afterwards sees it under that lock and
    /// skips its insert: no unreachable entry outlives the purge.
    pub fn swap_snapshot(&self, snapshot: CorpusSnapshot) -> SwapReport {
        let (old, new) = self.inner.handle.swap(snapshot);
        let cache_evicted = {
            let mut cache = lock_recover(&self.inner.cache);
            cache.purge_below_epoch(new.epoch)
        };
        self.inner.stats.record_swap(cache_evicted as u64);
        let corpus = new.snapshot.corpus();
        SwapReport {
            previous_epoch: old.epoch,
            epoch: new.epoch,
            cache_evicted,
            trajectories: corpus.len(),
            points: corpus.total_points(),
        }
    }

    /// Applies a partial update to the live-tunable knobs and returns
    /// the resulting configuration. Rejects a zero `default_k` without
    /// changing anything.
    pub fn configure(&self, update: ConfigUpdate) -> Result<ConfigView, ServiceError> {
        if update.default_k == Some(0) {
            return Err(ServiceError::InvalidRequest(
                "default_k must be positive".into(),
            ));
        }
        if let Some(f) = update.audit_sample {
            if !f.is_finite() || !(0.0..=1.0).contains(&f) {
                return Err(ServiceError::InvalidRequest(
                    "audit_sample must be a fraction in [0, 1] (0 disables)".into(),
                ));
            }
        }
        if let Some(spec) = &update.faults {
            crate::fault::validate_spec(spec)
                .map_err(|e| ServiceError::InvalidRequest(format!("faults: {e}")))?;
        }
        if let Some(default_k) = update.default_k {
            self.inner
                .runtime
                .default_k
                .store(default_k, Ordering::Relaxed); // ordering: relaxed config cell
        }
        if let Some(us) = update.slow_query_us {
            self.inner
                .runtime
                .slow_query_us
                .store(us, Ordering::Relaxed); // ordering: relaxed config cell
        }
        if let Some(f) = update.audit_sample {
            self.inner
                .runtime
                .audit_sample
                .store(f.to_bits(), Ordering::Relaxed); // ordering: relaxed config cell
        }
        if let Some(depth) = update.max_queue_depth {
            self.inner
                .runtime
                .max_queue_depth
                .store(depth, Ordering::Relaxed); // ordering: relaxed config cell
        }
        if let Some(ms) = update.default_deadline_ms {
            self.inner
                .runtime
                .default_deadline_ms
                .store(ms, Ordering::Relaxed); // ordering: relaxed config cell
        }
        if let Some(spec) = &update.faults {
            self.inner
                .faults
                .set_spec(spec)
                .expect("fault spec validated above");
        }
        if let Some(capacity) = update.cache_capacity {
            let evicted = {
                let mut cache = lock_recover(&self.inner.cache);
                cache.set_capacity(capacity)
            };
            self.inner.stats.add(Count::CacheEvictions, evicted as u64);
        }
        Ok(self.config_view())
    }

    /// The live configuration (worker count is fixed at start; the rest
    /// tracks [`QueryEngine::configure`]).
    pub fn config_view(&self) -> ConfigView {
        let (cache_capacity, cache_len) = {
            let cache = lock_recover(&self.inner.cache);
            (cache.capacity(), cache.len())
        };
        ConfigView {
            workers: self.inner.workers,
            cache_capacity,
            cache_len,
            default_k: self.inner.runtime.default_k.load(Ordering::Relaxed), // ordering: relaxed config read
            slow_query_us: self.inner.runtime.slow_query_us.load(Ordering::Relaxed), // ordering: relaxed config read
            audit_sample: self.inner.runtime.audit_sample(),
            max_queue_depth: self.inner.runtime.max_queue_depth.load(Ordering::Relaxed), // ordering: relaxed config read
            default_deadline_ms: self
                .inner
                .runtime
                .default_deadline_ms
                .load(Ordering::Relaxed), // ordering: relaxed config read
            faults: self.inner.faults.spec(),
        }
    }

    /// The newest retained slow-query records (oldest first; bounded
    /// ring). Empty unless `slow_query_us` is set and queries crossed it.
    pub fn slow_queries(&self) -> Vec<SlowQueryRecord> {
        lock_recover(&self.inner.slow_log).iter().cloned().collect()
    }

    /// Prometheus-style text exposition of every engine metric — the
    /// payload behind the admin `{"cmd":"metrics"}` command and
    /// `simsub admin metrics`. Names are stable; new series are additive.
    pub fn metrics_exposition(&self) -> String {
        let view = self.config_view();
        let mut b = ExpositionBuilder::new();
        self.inner.stats.snapshot().write_exposition(&mut b);
        b.gauge(
            "simsub_cache_entries",
            "Result-cache entries currently held.",
            view.cache_len as f64,
        )
        .gauge(
            "simsub_cache_capacity",
            "Result-cache capacity (0 = caching disabled).",
            view.cache_capacity as f64,
        )
        .gauge(
            "simsub_epoch",
            "Current engine epoch (bumps by 1 per snapshot swap).",
            self.epoch() as f64,
        )
        .gauge(
            "simsub_faults_armed",
            "1 when at least one fault-injection point is armed.",
            if self.inner.faults.armed() { 1.0 } else { 0.0 },
        )
        .counter_per_label(
            "simsub_fault_injections_total",
            "Times each fault-injection point fired.",
            "point",
            &self.inner.faults.fired_counts(),
        );
        b.finish()
    }

    /// Stops admitting requests, drains everything already queued, and
    /// joins the engine's threads. Idempotent; concurrent `submit`s race
    /// safely (they either enqueue before the close — and are answered —
    /// or get [`ServiceError::ShuttingDown`]).
    ///
    /// Panic-tolerant: a worker or auditor that panicked (or panics
    /// mid-drain) is reported in the returned [`ShutdownReport`] instead
    /// of re-panicking here — the remaining threads are always joined.
    pub fn shutdown(&self) -> ShutdownReport {
        let mut report = ShutdownReport::default();
        // Stop the supervisor first so a worker finishing its drain is
        // not mistaken for a death to respawn.
        // ordering: SeqCst — totally ordered with supervise()'s loads, so no respawn can be decided after this store is visible.
        self.inner.shutting_down.store(true, Ordering::SeqCst);
        if let Some(supervisor) = lock_recover(&self.supervisor).take() {
            if let Err(payload) = supervisor.join() {
                report.supervisor_panic = Some(panic_message(payload));
            }
        }
        // Closing the channel (dropping the sender) is the drain signal:
        // workers keep recv()ing until the queue is empty, then exit.
        drop(lock_recover(&self.sender).take());
        let mut slots = lock_recover(&self.pool.slots);
        for slot in slots.iter_mut() {
            if let Some(handle) = slot.take() {
                if let Err(payload) = handle.join() {
                    self.inner.stats.inc(Count::WorkerPanics);
                    report.worker_panics.push(panic_message(payload));
                }
            }
        }
        drop(slots);
        // Workers are gone, so no more samples can be enqueued; closing
        // the audit channel drains the auditor the same way.
        drop(lock_recover(&self.inner.audit_tx).take());
        if let Some(auditor) = lock_recover(&self.auditor).take() {
            if let Err(payload) = auditor.join() {
                report.auditor_panic = Some(panic_message(payload));
            }
        }
        report
    }
}

impl Drop for QueryEngine {
    fn drop(&mut self) {
        let report = self.shutdown();
        for msg in &report.worker_panics {
            eprintln!("simsub: worker panicked during shutdown: {msg}");
        }
    }
}

fn spawn_worker(inner: &Arc<Inner>, worker: usize) -> JoinHandle<()> {
    let inner = Arc::clone(inner);
    std::thread::Builder::new()
        .name(format!("simsub-worker-{worker}"))
        .spawn(move || worker_loop(&inner, worker))
        .expect("spawning worker thread")
}

/// The supervisor loop: polls the worker slots and respawns any worker
/// that died from a panic (a clean exit only happens during shutdown and
/// is left alone). A job the dead worker held is lost — its waiter
/// observes [`ServiceError::Canceled`] — but the pool's
/// capacity is restored, so one poisoned query cannot shrink the engine
/// forever.
fn supervise(inner: &Arc<Inner>, pool: &WorkerPool) {
    // ordering: SeqCst — pairs with shutdown()'s store; see the respawn check below.
    while !inner.shutting_down.load(Ordering::SeqCst) {
        std::thread::sleep(SUPERVISE_INTERVAL);
        let mut slots = lock_recover(&pool.slots);
        for (index, slot) in slots.iter_mut().enumerate() {
            let finished = slot.as_ref().is_some_and(JoinHandle::is_finished);
            if !finished {
                continue;
            }
            let handle = slot.take().expect("slot checked non-empty");
            match handle.join() {
                // Clean exit: the queue closed (shutdown drain); never
                // respawn into a closing engine.
                Ok(()) => {}
                Err(_payload) => {
                    inner.stats.inc(Count::WorkerPanics);
                    // ordering: SeqCst — a shutdown store ordered before this load forbids the respawn.
                    if !inner.shutting_down.load(Ordering::SeqCst) {
                        *slot = Some(spawn_worker(inner, index));
                        inner.stats.inc(Count::WorkerRestarts);
                    }
                }
            }
        }
    }
}

fn worker_loop(inner: &Inner, worker: usize) {
    loop {
        // Chaos hook: dies *outside* the dispatch catch_unwind, before
        // any job is held, so the supervisor's respawn path is exercised
        // without losing work.
        inner.faults.maybe_panic(FaultPoint::PanicInWorker);
        // Block for one job. The queue lock is held for the receive
        // only, never during search work.
        let received = lock_recover(&inner.queue).recv();
        let Ok(job) = received else {
            return; // channel closed and drained: shutdown
        };
        let dequeued = Instant::now();
        inner.stats.queue_depth().add(-1);
        inner.stats.inflight().add(1);
        process_job(inner, job, dequeued);
        inner
            .stats
            .record_worker_busy(worker, dequeued.elapsed().as_nanos() as u64);
    }
}

/// What a cold answer's trace reports about its own scan.
struct JobScan {
    /// The scan's prune counters and in-scan stage timings.
    stats: PruneStats,
    /// Wall-clock time of the scan, nanoseconds.
    scan_ns: u64,
    /// When the post-scan merge (cache insert, audit) began.
    merge_started: Instant,
}

/// Answers one dequeued job: drops it if its deadline has passed,
/// answers it from the cache if an entry appeared since admission, and
/// otherwise scans it, caches the answer and replies.
fn process_job(inner: &Inner, job: Job, dequeued: Instant) {
    // A key match is never trusted alone: the stored request must also be
    // canonically equal, or the entry is a miss (a hash collision must
    // not cross-contaminate answers).
    let hit = {
        let mut cache = lock_recover(&inner.cache);
        inner.faults.sleep_if(FaultPoint::CacheLockStall);
        // Deadline check at dequeue: work already expired is dropped
        // before any lookup or scan.
        if job.expired(Instant::now()) {
            drop(cache);
            fail_job(inner, job, ServiceError::DeadlineExceeded);
            return;
        }
        cached_answer(&mut cache, job.key, &job.request)
    };
    if let Some(results) = hit {
        respond(inner, job, results, dequeued, None);
        return;
    }

    let snapshot = &job.admitted.snapshot;
    let request = &job.request;
    inner.faults.sleep_if(FaultPoint::SlowScan);
    let scan_started = Instant::now();
    // The scan is the bulkhead boundary: a panic anywhere inside it (the
    // chaos hook, the algorithm, the measure, the index) is caught here,
    // the waiter gets a structured `internal` error, and the worker moves
    // on to the next job.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        inner.faults.maybe_panic(FaultPoint::PanicInScan);
        // Specs were validated at submit time against this same
        // generation; resolution cannot fail here.
        let algo = snapshot
            .algo(request.algo, request.measure)
            .expect("algo validated at submit");
        let measure = snapshot
            .measure(request.measure)
            .expect("measure validated at submit");
        // A traced job turns on the in-scan per-candidate clocks; an
        // untraced one keeps the near-zero disabled path.
        let _timing = job.trace.then(simsub_core::scan_timing_scope);
        snapshot.corpus.top_k_with_threads(
            algo.as_ref(),
            measure,
            &request.query,
            request.k,
            request.use_index,
            true,
            inner.scan_threads,
        )
    }));
    let scan_ns = scan_started.elapsed().as_nanos() as u64;
    let (results, stats) = match outcome {
        Ok(answer) => answer,
        Err(payload) => {
            inner.stats.inc(Count::WorkerPanics);
            let msg = panic_message(payload);
            fail_job(
                inner,
                job,
                ServiceError::Internal(format!("scan panicked: {msg}")),
            );
            return;
        }
    };
    inner.stats.record_scan(&stats, scan_ns);
    let scan = JobScan {
        stats,
        scan_ns,
        merge_started: Instant::now(),
    };

    let results = Arc::new(results);
    let evicted = {
        let mut cache = lock_recover(&inner.cache);
        // A swap publishes its epoch before it takes this lock to purge,
        // so an answer of an older epoch either lands before the purge,
        // which removes it, or sees the newer epoch here and stays out:
        // its key mixes in an epoch no lookup uses any more. The answer
        // itself is still delivered.
        if job.admitted.epoch < inner.handle.epoch() {
            0
        } else {
            cache.insert(
                job.key,
                Arc::new(CachedAnswer {
                    request: request.clone(),
                    results: Arc::clone(&results),
                }),
                job.admitted.epoch,
            )
        }
    };
    if evicted != 0 {
        inner.stats.add(Count::CacheEvictions, evicted as u64);
    }
    maybe_audit(inner, &job, &results);
    respond(inner, job, results, dequeued, Some(&scan));
}

/// Fails one dequeued job with a structured error: counts it, releases
/// its inflight slot, and answers its waiter.
fn fail_job(inner: &Inner, job: Job, err: ServiceError) {
    match &err {
        ServiceError::DeadlineExceeded => inner.stats.inc(Count::DeadlineExpired),
        ServiceError::Internal(_) => inner.stats.inc(Count::InternalErrors),
        _ => {}
    }
    inner.stats.inflight().add(-1);
    job.reply.deliver(Err(err));
}

/// Maybe enqueues one cold answer for the background quality auditor:
/// with sampling fraction `f`, every `round(1/f)`-th cold answer is sent
/// (a deterministic cadence — reproducible, and free of RNG state on the
/// hot path). The send never blocks; a full queue drops the sample and
/// counts it in `audit_dropped`.
fn maybe_audit(inner: &Inner, job: &Job, results: &[TopKResult]) {
    let fraction = inner.runtime.audit_sample();
    if fraction <= 0.0 {
        return;
    }
    let period = (1.0 / fraction).round().max(1.0) as u64;
    if !inner
        .audit_counter
        .fetch_add(1, Ordering::Relaxed) // ordering: relaxed — sampling counter; carries no data
        .is_multiple_of(period)
    {
        return;
    }
    let Some(top) = results.first() else {
        return;
    };
    let sample = AuditSample {
        query: job.request.query.clone(),
        measure: job.request.measure,
        trajectory_id: top.trajectory_id,
        range: top.result.range,
        snapshot: Arc::clone(&job.admitted),
    };
    let guard = lock_recover(&inner.audit_tx);
    if let Some(tx) = guard.as_ref() {
        match tx.try_send(sample) {
            // Disconnected can only race with shutdown; nothing to count.
            Ok(()) | Err(TrySendError::Disconnected(_)) => {}
            Err(TrySendError::Full(_)) => inner.stats.inc(Count::AuditDropped),
        }
    }
}

/// Answers `job` with `results`: from the cache when `scan` is `None`,
/// otherwise from the scan it describes. `dequeued` ends the job's queue
/// wait (its submit instant for a hit answered at admission).
fn respond(
    inner: &Inner,
    job: Job,
    results: Arc<Vec<TopKResult>>,
    dequeued: Instant,
    scan: Option<&JobScan>,
) {
    let cached = scan.is_none();
    // Chaos hook: lose the answer instead of sending it. The waiter
    // observes a canceled request (mapped to `internal` on the wire —
    // `Reply`'s drop guard converts the discarded job into a `Canceled`
    // delivery), and the loss is counted so stats still reconcile.
    if inner.faults.fire(FaultPoint::DropResponse) {
        inner.stats.inc(Count::InternalErrors);
        inner.stats.inflight().add(-1);
        return;
    }
    let latency = job.submitted.elapsed();
    inner.stats.record_request(latency, cached);
    inner.stats.inflight().add(-1);
    let latency_us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
    // ordering: relaxed — config cell; the threshold may lag a configure.
    let threshold = inner.runtime.slow_query_us.load(Ordering::Relaxed);
    let slow = threshold > 0 && latency_us >= threshold;
    // The full report is only assembled for traced or slow requests; the
    // common path pays for a few Instant reads and nothing else.
    let trace = (job.trace || slow).then(|| TraceReport {
        parse_us: job.parse_ns / 1_000,
        admit_us: job.admit_ns / 1_000,
        queue_us: dequeued
            .saturating_duration_since(job.submitted)
            .as_micros() as u64,
        batch_us: 0,
        scan_us: scan.map_or(0, |s| s.scan_ns / 1_000),
        bound_us: scan.map_or(0, |s| s.stats.bound_ns / 1_000),
        kernel_us: scan.map_or(0, |s| s.stats.kernel_ns / 1_000),
        merge_us: scan.map_or(0, |s| s.merge_started.elapsed().as_micros() as u64),
        serialize_us: 0, // stamped by the server after rendering
        prune: scan.map_or_else(Default::default, |s| s.stats),
        cached,
        batch_size: 1,
    });
    if slow {
        let record = SlowQueryRecord {
            latency_us,
            trace: trace.clone().expect("slow queries always build a trace"),
            epoch: job.admitted.epoch,
        };
        eprintln!("{}", record.to_line());
        {
            let mut log = lock_recover(&inner.slow_log);
            if log.len() == SLOW_LOG_CAPACITY {
                log.pop_front();
            }
            log.push_back(record);
        }
        inner.stats.inc(Count::SlowQueries);
    }
    let epoch = job.admitted.epoch;
    job.reply.deliver(Ok(QueryResponse {
        results,
        cached,
        latency,
        batch_size: 1,
        epoch,
        trace,
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use simsub_data::{generate, DatasetSpec};

    fn snapshot(count: usize, seed: u64) -> CorpusSnapshot {
        CorpusSnapshot::new(
            TrajectoryDb::build(generate(&DatasetSpec::porto(), count, seed)).into_shared(),
        )
    }

    fn request(snapshot: &CorpusSnapshot) -> QueryRequest {
        QueryRequest {
            query: snapshot.corpus().view(0).to_points()[..6].to_vec(),
            algo: AlgoSpec::Exact,
            measure: MeasureSpec::Dtw,
            k: 2,
            use_index: true,
        }
    }

    #[test]
    fn handle_epochs_are_monotonic_and_version_cache_keys() {
        let handle = EngineHandle::new(snapshot(6, 1));
        let first = handle.load();
        assert_eq!(first.epoch(), 1);
        let req = request(first.snapshot());

        // Swapping in the *same corpus* still changes every cache key:
        // the epoch alone retires stale entries.
        let (old, new) = handle.swap(snapshot(6, 1));
        assert_eq!(old.epoch(), 1);
        assert_eq!(new.epoch(), 2);
        assert_eq!(handle.epoch(), 2);
        assert_ne!(first.cache_key(&req), new.cache_key(&req));
        // The displaced generation stays fully usable through its pin.
        assert_eq!(first.snapshot().corpus().len(), 6);

        let (_, third) = handle.swap(snapshot(4, 9));
        assert_eq!(third.epoch(), 3);
        assert_eq!(handle.load().snapshot().corpus().len(), 4);
    }

    #[test]
    fn engine_swap_reports_and_counts_evictions() {
        let engine = QueryEngine::start(
            snapshot(8, 3),
            EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
        );
        let req = request(engine.current().snapshot());
        assert!(!engine.query(req.clone()).unwrap().cached);
        assert!(engine.query(req.clone()).unwrap().cached);

        let report = engine.swap_snapshot(snapshot(5, 4));
        assert_eq!(report.previous_epoch, 1);
        assert_eq!(report.epoch, 2);
        assert_eq!(report.cache_evicted, 1);
        assert_eq!(report.trajectories, 5);
        let stats = engine.stats();
        assert_eq!(stats.get(Count::Swaps), 1);
        assert_eq!(stats.get(Count::CacheEvictedOnSwap), 1);

        // Same request, new epoch: a cold answer from the new corpus.
        let response = engine.query(req).unwrap();
        assert!(!response.cached, "stale-epoch entry must not be replayed");
        assert_eq!(response.epoch, 2);
        engine.shutdown();
    }

    #[test]
    fn a_key_match_for_another_request_is_a_miss() {
        let snap = snapshot(6, 2);
        let asked = request(&snap);
        let mut other = asked.clone();
        other.query[0].x += 1e-3;
        let results = Arc::new(snap.corpus().top_k(&ExactS, &Dtw, &asked.query, 2, true));
        let mut cache = Cache::new(4);
        // Both requests under one key, as a hash collision would put them.
        let key = 7;
        let entry = CachedAnswer {
            request: asked.clone(),
            results: Arc::clone(&results),
        };
        cache.insert(key, Arc::new(entry), 1);
        assert_eq!(cached_answer(&mut cache, key, &asked), Some(results));
        assert_eq!(cached_answer(&mut cache, key, &other), None);
        assert_eq!(cached_answer(&mut cache, key + 1, &asked), None);
    }

    #[test]
    fn configure_applies_and_validates() {
        let engine = QueryEngine::start(
            snapshot(6, 5),
            EngineConfig {
                workers: 1,
                cache_capacity: 64,
                default_k: 1,
                ..EngineConfig::default()
            },
        );
        let view = engine
            .configure(ConfigUpdate {
                cache_capacity: Some(2),
                default_k: Some(7),
                slow_query_us: Some(5000),
                audit_sample: Some(0.5),
                max_queue_depth: Some(32),
                default_deadline_ms: Some(750),
                faults: Some("slow_scan=n:100:1".into()),
            })
            .unwrap();
        assert_eq!(view.cache_capacity, 2);
        assert_eq!(view.default_k, 7);
        assert_eq!(view.slow_query_us, 5000);
        assert_eq!(view.audit_sample, 0.5);
        assert_eq!(view.max_queue_depth, 32);
        assert_eq!(view.default_deadline_ms, 750);
        assert_eq!(view.faults, "slow_scan=n:100:1");
        assert_eq!(engine.default_k(), 7);

        // Empty spec disarms fault injection.
        let view = engine
            .configure(ConfigUpdate {
                faults: Some(String::new()),
                ..ConfigUpdate::default()
            })
            .unwrap();
        assert_eq!(view.faults, "");

        for bad in [
            ConfigUpdate {
                default_k: Some(0),
                ..ConfigUpdate::default()
            },
            ConfigUpdate {
                audit_sample: Some(1.5),
                ..ConfigUpdate::default()
            },
            ConfigUpdate {
                audit_sample: Some(f64::NAN),
                ..ConfigUpdate::default()
            },
            ConfigUpdate {
                faults: Some("not_a_point=n:1".into()),
                ..ConfigUpdate::default()
            },
        ] {
            assert!(matches!(
                engine.configure(bad),
                Err(ServiceError::InvalidRequest(_))
            ));
        }
        // Rejected updates changed nothing.
        assert_eq!(engine.config_view().default_k, 7);
        engine.shutdown();
    }
}
