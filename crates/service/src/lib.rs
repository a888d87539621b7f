#![warn(missing_docs)]

//! Concurrent query-serving subsystem for similar-subtrajectory search.
//!
//! The paper's setting is *online*: queries arrive continuously and the
//! splitting algorithms exist to answer them at interactive latency
//! (§3.1). This crate turns the offline library into an embeddable,
//! concurrent query engine plus a wire front-end:
//!
//! | module | contents |
//! |--------|----------|
//! | [`engine`] | [`QueryEngine`]: worker pool taking one job at a time off an MPSC queue, graceful shutdown; [`CorpusSnapshot`]: one `TrajectoryDb` corpus plus loaded models; [`EngineHandle`]: epoch-versioned hot-swap cell ([`QueryEngine::swap_snapshot`] = live reload); bulkheads: panic-isolated dispatch, worker supervision, bounded admission with deadlines; one completion-based admission path ([`QueryEngine::submit_with_completion`], knobs in [`SubmitOptions`]) that answers every admitted request exactly once, a cache hit at admission on the caller's thread — [`QueryEngine::submit`] is it plus a channel |
//! | `reactor` (private) | the one connection front end: readiness-polled serve loop (epoll via the vendored `polling` shim): 10k+ connections on one thread, pipelined out-of-order responses by wire-v2 `"id"`; admission cache hits answered in the same poll turn |
//! | [`config`] | the [`Knob`] table (each live knob's wire key, CLI flag, kind, default and help line, declared once) and the settings built from it: [`EngineConfig`], [`ConfigUpdate`], [`ConfigView`] |
//! | [`fault`] | named fault-injection points for chaos testing (`SIMSUB_FAULTS`, admin `configure`); zero-cost when disarmed |
//! | [`query`] | request/response model, canonical query hash |
//! | [`cache`] | O(1) LRU result cache with epoch-stamped entries |
//! | [`stats`] | the [`Count`] table (each engine count's `stats` key, exposition series and help text, declared once) and [`ServeStats`], which keeps one counter per row plus the gauges and latency histogram; its [`StatsSnapshot`] renders both the `stats` reply and the engine part of the `metrics` exposition, and derives qps / p50 / p99 / hit rate / prune ratio / audit means |
//! | [`metrics_registry`] | dependency-free counters, gauges, mergeable power-of-two histograms, Prometheus-style text exposition |
//! | [`trace`] | per-query stage traces (`"trace":true` on wire v2) and the slow-query log record |
//! | `audit` (private) | sampled online quality auditor: re-runs ExactS on served answers, feeds the AR/MR/RR gauges |
//! | [`server`] | newline-delimited JSON over TCP (`simsub serve`), wire protocol v1+v2 with the admin namespace (`reload` / `configure` / `info` / `metrics`) |
//! | [`json`] | dependency-free JSON parse/serialize, [`json::ProtocolVersion`] envelope rules |
//!
//! Answers are bit-identical to the offline paths: a cache hit replays a
//! previously computed `TrajectoryDb::top_k` answer for a canonically
//! equal request, and a miss runs the same algorithms through
//! `TrajectoryDb::top_k_with_threads` (asserted equivalent by tests).
//!
//! ```
//! use simsub_core::ExactS;
//! use simsub_data::{generate, DatasetSpec};
//! use simsub_index::TrajectoryDb;
//! use simsub_measures::Dtw;
//! use simsub_service::{
//!     AlgoSpec, CorpusSnapshot, EngineConfig, MeasureSpec, QueryEngine, QueryRequest,
//! };
//!
//! let corpus = generate(&DatasetSpec::porto(), 24, 7);
//! let db = TrajectoryDb::build(corpus).into_shared();
//! let engine = QueryEngine::start(
//!     CorpusSnapshot::new(db.clone()),
//!     EngineConfig { workers: 2, ..EngineConfig::default() },
//! );
//!
//! let query: Vec<_> = db.get(3).unwrap().to_points()[..8].to_vec();
//! let request = QueryRequest {
//!     query: query.clone(),
//!     algo: AlgoSpec::Exact,
//!     measure: MeasureSpec::Dtw,
//!     k: 3,
//!     use_index: true,
//! };
//! let response = engine.query(request).unwrap();
//! assert_eq!(*response.results, db.top_k(&ExactS, &Dtw, &query, 3, true));
//! engine.shutdown();
//! ```

mod audit;
pub mod cache;
pub mod config;
pub mod engine;
pub mod fault;
pub mod json;
pub mod metrics_registry;
pub mod query;
mod reactor;
pub mod server;
pub mod stats;
pub mod sync;
pub mod trace;

pub use config::{ConfigUpdate, ConfigView, EngineConfig, Knob, KnobKind, PerKnob};
pub use engine::{
    CompletionFn, CorpusSnapshot, EngineHandle, EpochSnapshot, PendingQuery, QueryEngine,
    ServiceError, ShutdownReport, SubmitOptions, SwapReport,
};
pub use fault::{FaultPoint, FaultRegistry};
pub use json::ProtocolVersion;
pub use metrics_registry::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use polling::raise_nofile_limit;
pub use query::{AlgoSpec, MeasureSpec, QueryRequest, QueryResponse};
pub use server::{IoModel, Server};
pub use stats::{Count, ServeStats, StatsSnapshot};
pub use trace::{SlowQueryRecord, TraceReport};
