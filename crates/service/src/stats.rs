//! Aggregate serving statistics — the engine's metrics registry.
//!
//! Every hot-path record is lock-free: counters and gauges are single
//! relaxed atomics, and the latency distribution lives in a
//! log-bucketed [`Histogram`] of [`crate::metrics_registry`] (which
//! replaced the old mutex-guarded latency reservoir), so p50/p99/p999
//! come from mergeable power-of-two buckets with at most one bucket (2x)
//! of error.
//!
//! Each monotone count is declared once, in the [`Count`] table: its
//! `stats` key, its exposition series and its help text. [`ServeStats`]
//! keeps one counter per row, and the point-in-time [`StatsSnapshot`]
//! renders both the `stats` wire reply ([`StatsSnapshot::to_json`]) and
//! the engine's part of the Prometheus-style `metrics` exposition
//! ([`StatsSnapshot::write_exposition`]) by walking that table, so the
//! two can never name different counts.

use crate::json::{obj, Json};
use crate::metrics_registry::{Counter, ExpositionBuilder, Gauge, Histogram, HistogramSnapshot};
use crate::sync::atomic::{AtomicU64, Ordering};
use simsub_core::{EffectivenessMetrics, PruneStats};
use std::time::{Duration, Instant};

/// Declares the [`Count`] enum and its table from one list of rows
/// `Variant = "stats key", "exposition series", "help text";`. The help
/// text is also the variant's first doc line.
macro_rules! counts {
    ($($(#[$note:meta])* $variant:ident = $key:literal, $series:literal, $help:literal;)+) => {
        /// One monotone engine count: a row of the table that both the
        /// `stats` reply and the `metrics` exposition are rendered from.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Count {
            $(#[doc = $help] $(#[$note])* $variant,)+
        }

        impl Count {
            /// Every count, in table order: the order of the additive
            /// `stats` keys and of the exposition's counters.
            pub const ALL: [Count; [$($key),+].len()] = [$(Count::$variant),+];

            /// The count's key in the `stats` reply.
            pub const fn key(self) -> &'static str {
                match self {
                    $(Count::$variant => $key,)+
                }
            }

            /// The count's exposition series (a Prometheus counter).
            pub const fn series(self) -> &'static str {
                match self {
                    $(Count::$variant => $series,)+
                }
            }

            /// The series' `# HELP` text.
            pub const fn help(self) -> &'static str {
                match self {
                    $(Count::$variant => $help,)+
                }
            }
        }
    };
}

counts! {
    Requests = "requests", "simsub_requests_total", "Requests answered.";
    CacheHits = "cache_hits", "simsub_cache_hits_total",
        "Requests answered from the result cache.";
    ScanCandidates = "scan_candidates", "simsub_scan_candidates_total",
        "Candidate (trajectory, query) pairs considered by cold scans.";
    ScanSearched = "scan_searched", "simsub_scan_searched_total",
        "Candidates fully searched by the DP kernel.";
    Swaps = "swaps", "simsub_swaps_total", "Snapshot hot-swaps performed.";
    CacheEvictedOnSwap = "cache_evicted_on_swap", "simsub_cache_evicted_on_swap_total",
        "Stale-epoch result-cache entries purged by snapshot swaps.";
    CacheEvictions = "cache_evictions", "simsub_cache_evictions_total",
        "Result-cache entries evicted by LRU capacity pressure.";
    SlowQueries = "slow_queries", "simsub_slow_queries_total",
        "Requests whose engine latency crossed the slow-query threshold.";
    ScanPrunedKim = "scan_pruned_kim", "simsub_scan_pruned_kim_total",
        "Candidates rejected by the O(1) Kim-style coarse screen.";
    ScanPrunedMbr = "scan_pruned_mbr", "simsub_scan_pruned_mbr_total",
        "Candidates rejected by the O(m) MBR-envelope bound.";
    ScanPrunedPoints = "scan_pruned_points", "simsub_scan_pruned_points_total",
        "Candidates rejected by the O(n*m) point-level bound.";
    ScanAbandoned = "scan_abandoned", "simsub_scan_abandoned_total",
        "Searched candidates the free-start DP settled below the k-th similarity; range recoveries are at most k per scan, not searched minus abandoned.";
    /// The denominator of [`StatsSnapshot::ns_per_cell`].
    ScanSearchedCells = "scan_searched_cells", "simsub_scan_searched_cells_total",
        "Nominal DP size (data_len x query_len) of searched candidates; settling early does not shrink it.";
    /// Measured by the engine around each scan call; the numerator of
    /// [`StatsSnapshot::ns_per_cell`].
    ScanNs = "scan_ns", "simsub_scan_ns_total",
        "Wall-clock nanoseconds spent inside cold corpus scans.";
    AuditSamples = "audit_samples", "simsub_audit_samples_total",
        "Served answers re-checked against ExactS by the auditor.";
    AuditDropped = "audit_dropped", "simsub_audit_dropped_total",
        "Audit candidates dropped (auditor queue full or unresolvable).";
    /// Reconciliation identity, once the engine is quiescent: `admitted
    /// ==` [`StatsSnapshot::outcomes`].
    Admitted = "admitted", "simsub_admitted_total",
        "Requests that passed validation at submit (including shed).";
    Shed = "shed", "simsub_shed_total",
        "Requests rejected by the admission gate (queue full).";
    DeadlineExpired = "deadline_expired", "simsub_deadline_expired_total",
        "Jobs dropped because their deadline expired before scanning.";
    /// A scan panicked, or the response was lost before reaching the
    /// waiter.
    InternalErrors = "internal_errors", "simsub_internal_errors_total",
        "Jobs answered with a structured internal error.";
    WorkerPanics = "worker_panics", "simsub_worker_panics_total",
        "Worker-thread panics observed (caught or supervisor-detected).";
    WorkerRestarts = "worker_restarts", "simsub_worker_restarts_total",
        "Worker threads respawned by the supervisor.";
    /// fd exhaustion or a transient socket error: serving continues and
    /// the accept loop backs off.
    AcceptErrors = "accept_errors", "simsub_accept_errors_total",
        "Failed accept() calls the serving layer survived.";
}

const COUNTS: usize = Count::ALL.len();

/// Live counters owned by the engine; cheap (lock-free) to update per
/// request.
pub struct ServeStats {
    started: Instant,
    /// One counter per [`Count`], indexed by the count.
    counts: [Counter; COUNTS],
    /// Connections the serving layer currently holds open.
    open_connections: Gauge,
    /// Jobs accepted by `submit` but not yet drained by a worker.
    queue_depth: Gauge,
    /// Jobs a worker has dequeued but not yet answered.
    inflight: Gauge,
    /// Engine latency distribution, microseconds.
    latencies_us: Histogram,
    /// Per-worker nanoseconds spent outside the blocking queue receive.
    worker_busy_ns: Vec<Counter>,
    // Running sums of the audited AR, MR and RR, stored as f64 bits. The
    // auditor thread is the only writer; readers just need a coherent f64.
    audit_sums: [AtomicU64; 3],
}

impl Default for ServeStats {
    fn default() -> Self {
        Self::new()
    }
}

fn f64_add(cell: &AtomicU64, delta: f64) {
    // ordering: relaxed — each f64 cell has a single writer (the audit
    // path), so this non-atomic read-modify-store never races a peer.
    let next = f64::from_bits(cell.load(Ordering::Relaxed)) + delta;
    // ordering: relaxed — single writer, see above.
    cell.store(next.to_bits(), Ordering::Relaxed);
}

fn f64_load(cell: &AtomicU64) -> f64 {
    // ordering: relaxed — advisory snapshot read.
    f64::from_bits(cell.load(Ordering::Relaxed))
}

impl ServeStats {
    /// Fresh, zeroed stats anchored at "now", with no per-worker busy
    /// counters (use [`ServeStats::with_workers`] for an engine).
    pub fn new() -> Self {
        Self::with_workers(0)
    }

    /// Fresh, zeroed stats with one busy-time counter per worker.
    pub fn with_workers(workers: usize) -> Self {
        Self {
            started: Instant::now(),
            counts: std::array::from_fn(|_| Counter::new()),
            open_connections: Gauge::new(),
            queue_depth: Gauge::new(),
            inflight: Gauge::new(),
            latencies_us: Histogram::new(),
            worker_busy_ns: (0..workers).map(|_| Counter::new()).collect(),
            audit_sums: std::array::from_fn(|_| AtomicU64::new(0f64.to_bits())),
        }
    }

    /// Adds one to `count`.
    #[inline]
    pub fn inc(&self, count: Count) {
        self.counts[count as usize].inc();
    }

    /// Adds `n` to `count`.
    #[inline]
    pub fn add(&self, count: Count, n: u64) {
        self.counts[count as usize].add(n);
    }

    /// Records one answered request.
    pub fn record_request(&self, latency: Duration, cache_hit: bool) {
        self.inc(Count::Requests);
        if cache_hit {
            self.inc(Count::CacheHits);
        }
        self.latencies_us
            .record(latency.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Folds one cold-path corpus scan's prune counters into the totals.
    /// `scan_ns` is the wall-clock time of the scan call (ns-per-cell
    /// numerator; pass 0 when unmeasured).
    pub fn record_scan(&self, scan: &PruneStats, scan_ns: u64) {
        self.add(Count::ScanCandidates, scan.scanned);
        self.add(Count::ScanPrunedKim, scan.pruned_by_kim);
        self.add(Count::ScanPrunedMbr, scan.pruned_by_mbr);
        self.add(Count::ScanPrunedPoints, scan.pruned_by_points);
        self.add(Count::ScanSearched, scan.searched);
        self.add(Count::ScanAbandoned, scan.abandoned);
        self.add(Count::ScanSearchedCells, scan.searched_cells);
        self.add(Count::ScanNs, scan_ns);
    }

    /// Records one snapshot hot-swap and how many stale-epoch cache
    /// entries it purged, so swaps are observable on the `stats` wire
    /// response.
    pub fn record_swap(&self, cache_evicted: u64) {
        self.inc(Count::Swaps);
        self.add(Count::CacheEvictedOnSwap, cache_evicted);
    }

    /// Connections the serving layer currently holds open.
    pub fn open_connections(&self) -> &Gauge {
        &self.open_connections
    }

    /// Bucketed median engine latency in microseconds (0 when idle) —
    /// the admission gate's input for sizing `retry_after_ms` hints.
    pub fn latency_p50_us(&self) -> u64 {
        self.latencies_us.quantile(0.50)
    }

    /// Adds busy time (time not blocked on the queue) to worker `index`.
    pub fn record_worker_busy(&self, index: usize, ns: u64) {
        if let Some(counter) = self.worker_busy_ns.get(index) {
            counter.add(ns);
        }
    }

    /// Jobs accepted by `submit` but not yet drained by a worker.
    pub fn queue_depth(&self) -> &Gauge {
        &self.queue_depth
    }

    /// Jobs a worker has dequeued but not yet answered.
    pub fn inflight(&self) -> &Gauge {
        &self.inflight
    }

    /// Folds one quality-audit sample (AR/MR/RR of a served answer
    /// re-checked against ExactS) into the running means. Single-writer:
    /// only the auditor thread calls this.
    pub fn record_audit_sample(&self, m: &EffectivenessMetrics) {
        for (sum, value) in self.audit_sums.iter().zip([m.ar, m.mr, m.rr]) {
            f64_add(sum, value);
        }
        self.inc(Count::AuditSamples);
    }

    /// Takes a consistent-enough point-in-time snapshot.
    ///
    /// The counts are independent relaxed cells: a mid-flight snapshot
    /// may transiently see an outcome before its admission (`admitted <
    /// requests + shed + deadline_expired + internal_errors`). Upgrading
    /// the loads to SeqCst would not close that window — the admission
    /// and outcome increments are separate RMWs — so the identity is only
    /// asserted on a quiesced engine and live exposition treats it as
    /// eventually consistent.
    ///
    /// The counts load last row first, the reverse of the order in which
    /// `record_scan` and `record_request` write them, so on a CPU that
    /// keeps loads in order (x86) a live read never shows more pruned and
    /// searched candidates than candidates, or more hits than requests.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut counts = [0; COUNTS];
        for (value, counter) in counts.iter_mut().zip(&self.counts).rev() {
            *value = counter.get();
        }
        StatsSnapshot {
            counts,
            uptime: self.started.elapsed(),
            queue_depth: self.queue_depth.get(),
            inflight: self.inflight.get(),
            open_connections: self.open_connections.get(),
            worker_busy_ns: self.worker_busy_ns.iter().map(Counter::get).collect(),
            latency_hist: self.latencies_us.snapshot(),
            audit_sums: std::array::from_fn(|i| f64_load(&self.audit_sums[i])),
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Point-in-time view of [`ServeStats`]: every [`Count`] (read with
/// [`StatsSnapshot::get`]), the gauges and the latency histogram, plus
/// the values derived from them as methods.
///
/// Wire-compat contract: the first thirteen fields of
/// [`StatsSnapshot::to_json`] (through `cache_evicted_on_swap`) are the
/// pre-observability `stats` object and keep their names, order, and
/// meaning; everything after is additive.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    counts: [u64; COUNTS],
    /// Time since the engine started.
    pub uptime: Duration,
    /// Jobs accepted but not yet drained by a worker.
    pub queue_depth: i64,
    /// Jobs a worker has dequeued but not yet answered.
    pub inflight: i64,
    /// Connections the serving layer currently holds open.
    pub open_connections: i64,
    /// Per-worker busy nanoseconds (time not blocked on the queue).
    pub worker_busy_ns: Vec<u64>,
    /// Engine latency distribution, microseconds.
    pub latency_hist: HistogramSnapshot,
    audit_sums: [f64; 3],
}

/// `[[le, count], ...]` pairs for the non-empty buckets of a histogram —
/// the compact wire form used by the `stats` response.
fn buckets_json(hist: &HistogramSnapshot) -> Json {
    Json::Arr(
        hist.nonzero_buckets()
            .into_iter()
            .map(|(le, n)| Json::Arr(vec![Json::Num(le as f64), Json::Num(n as f64)]))
            .collect(),
    )
}

impl StatsSnapshot {
    /// The value of `count`.
    pub fn get(&self, count: Count) -> u64 {
        self.counts[count as usize]
    }

    /// Admitted requests that reached an outcome: `requests + shed +
    /// deadline_expired + internal_errors`. Equals `admitted` once the
    /// engine is quiescent.
    pub fn outcomes(&self) -> u64 {
        self.get(Count::Requests)
            + self.get(Count::Shed)
            + self.get(Count::DeadlineExpired)
            + self.get(Count::InternalErrors)
    }

    /// `cache_hits / requests` (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        ratio(self.get(Count::CacheHits), self.get(Count::Requests))
    }

    /// Requests per second over the whole uptime.
    pub fn qps(&self) -> f64 {
        let secs = self.uptime.as_secs_f64();
        if secs > 0.0 {
            self.get(Count::Requests) as f64 / secs
        } else {
            0.0
        }
    }

    /// Scan candidates skipped by the lower-bound cascade before any
    /// search (the three `scan_pruned_*` counts).
    pub fn scan_pruned(&self) -> u64 {
        self.get(Count::ScanPrunedKim)
            + self.get(Count::ScanPrunedMbr)
            + self.get(Count::ScanPrunedPoints)
    }

    /// `scan_pruned / scan_candidates` (0 when no scans ran).
    pub fn prune_ratio(&self) -> f64 {
        ratio(self.scan_pruned(), self.get(Count::ScanCandidates))
    }

    /// `scan_ns / scan_searched_cells` — mean DP kernel cost.
    pub fn ns_per_cell(&self) -> f64 {
        ratio(self.get(Count::ScanNs), self.get(Count::ScanSearchedCells))
    }

    /// Mean AR (1.0 = exact), MR (rank in the exhaustive ranking, 1 =
    /// best) and RR (`rank / total subtrajectories`) of audited answers;
    /// all 0 before the first sample.
    pub fn audit_means(&self) -> EffectivenessMetrics {
        let mean = |sum: f64| match self.get(Count::AuditSamples) {
            0 => 0.0,
            n => sum / n as f64,
        };
        let [ar, mr, rr] = self.audit_sums.map(mean);
        EffectivenessMetrics { ar, mr, rr }
    }

    /// Wire form for the `{"cmd":"stats"}` protocol request. The first
    /// thirteen fields are frozen (see the struct docs); after them come
    /// the counts the prefix lacks, in [`Count::ALL`] order, then the
    /// additive derived values and gauges.
    pub fn to_json(&self) -> Json {
        let count = |c: Count| (c.key(), Json::Num(self.get(c) as f64));
        let latency_us = |q: f64| Json::Num(self.latency_hist.quantile(q) as f64);
        let audit = self.audit_means();
        let mut pairs = vec![
            count(Count::Requests),
            count(Count::CacheHits),
            ("hit_rate", Json::Num(self.hit_rate())),
            ("uptime_s", Json::Num(self.uptime.as_secs_f64())),
            ("qps", Json::Num(self.qps())),
            ("p50_us", latency_us(0.50)),
            ("p99_us", latency_us(0.99)),
            count(Count::ScanCandidates),
            ("scan_pruned", Json::Num(self.scan_pruned() as f64)),
            count(Count::ScanSearched),
            ("prune_ratio", Json::Num(self.prune_ratio())),
            count(Count::Swaps),
            count(Count::CacheEvictedOnSwap),
        ];
        // -- additive fields below this line --
        let rest: Vec<_> = Count::ALL
            .into_iter()
            .filter(|c| pairs.iter().all(|(key, _)| *key != c.key()))
            .map(count)
            .collect();
        pairs.extend(rest);
        pairs.extend([
            ("p999_us", latency_us(0.999)),
            ("queue_depth", Json::Num(self.queue_depth as f64)),
            ("inflight", Json::Num(self.inflight as f64)),
            ("open_connections", Json::Num(self.open_connections as f64)),
            ("ns_per_cell", Json::Num(self.ns_per_cell())),
            ("audit_ar", Json::Num(audit.ar)),
            ("audit_mr", Json::Num(audit.mr)),
            ("audit_rr", Json::Num(audit.rr)),
            ("latency_buckets", buckets_json(&self.latency_hist)),
        ]);
        obj(pairs)
    }

    /// Appends the engine-stats part of the `metrics` exposition: one
    /// counter per [`Count`], then the gauges, the latency histogram,
    /// per-worker busy time and the derived ns-per-cell and audit gauges.
    pub fn write_exposition(&self, b: &mut ExpositionBuilder) {
        for count in Count::ALL {
            b.counter(count.series(), count.help(), self.get(count));
        }
        let worker_busy: Vec<(String, u64)> = self
            .worker_busy_ns
            .iter()
            .enumerate()
            .map(|(i, &ns)| (i.to_string(), ns))
            .collect();
        let audit = self.audit_means();
        b.gauge(
            "simsub_queue_depth",
            "Jobs accepted but not yet drained by a worker.",
            self.queue_depth as f64,
        )
        .gauge(
            "simsub_inflight",
            "Jobs a worker has dequeued but not yet answered.",
            self.inflight as f64,
        )
        .gauge(
            "simsub_open_connections",
            "Connections the serving layer currently holds open.",
            self.open_connections as f64,
        )
        .histogram(
            "simsub_request_latency_us",
            "Engine latency per answered request, microseconds.",
            &self.latency_hist,
        )
        .counter_per_label(
            "simsub_worker_busy_ns_total",
            "Per-worker nanoseconds spent outside the blocking queue receive.",
            "worker",
            &worker_busy,
        )
        .gauge(
            "simsub_ns_per_cell",
            "Mean scan nanoseconds per nominal DP cell (scan_ns / searched_cells).",
            self.ns_per_cell(),
        )
        .gauge(
            "simsub_audit_ar",
            "Mean approximation ratio of audited answers (1.0 = exact).",
            audit.ar,
        )
        .gauge(
            "simsub_audit_mr",
            "Mean exhaustive-ranking rank of audited answers (1 = best).",
            audit.mr,
        )
        .gauge(
            "simsub_audit_rr",
            "Mean relative rank of audited answers.",
            audit.rr,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_bucketed_percentiles() {
        let stats = ServeStats::new();
        for i in 1..=100u64 {
            stats.record_request(Duration::from_micros(i), i % 4 == 0);
        }
        let snap = stats.snapshot();
        assert_eq!(snap.get(Count::Requests), 100);
        assert_eq!(snap.get(Count::CacheHits), 25);
        assert!((snap.hit_rate() - 0.25).abs() < 1e-12);
        // Histogram quantiles report the bucket upper bound: within one
        // power-of-two bucket (2x) of the true percentile.
        let (p50, p99) = (
            snap.latency_hist.quantile(0.50),
            snap.latency_hist.quantile(0.99),
        );
        assert!((50..100).contains(&p50), "{p50}");
        assert!((99..198).contains(&p99), "{p99}");
        assert!(snap.latency_hist.quantile(0.999) >= p99);
        assert!(snap.qps() > 0.0);
        assert_eq!(snap.latency_hist.count, 100);
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let snap = ServeStats::new().snapshot();
        assert_eq!(snap.get(Count::Requests), 0);
        for q in [0.50, 0.99, 0.999] {
            assert_eq!(snap.latency_hist.quantile(q), 0);
        }
        assert_eq!(snap.hit_rate(), 0.0);
        assert_eq!(snap.audit_means().ar, 0.0);
        assert_eq!(snap.ns_per_cell(), 0.0);
    }

    #[test]
    fn scan_counters_accumulate_and_ratio() {
        let stats = ServeStats::new();
        stats.record_scan(
            &PruneStats {
                scanned: 100,
                pruned_by_kim: 40,
                pruned_by_mbr: 20,
                pruned_by_points: 10,
                searched: 30,
                abandoned: 25,
                searched_cells: 4000,
                ..PruneStats::default()
            },
            8000,
        );
        stats.record_scan(
            &PruneStats {
                scanned: 100,
                pruned_by_kim: 0,
                pruned_by_mbr: 0,
                searched: 100,
                searched_cells: 6000,
                ..PruneStats::default()
            },
            12000,
        );
        let snap = stats.snapshot();
        assert_eq!(snap.get(Count::ScanCandidates), 200);
        assert_eq!(snap.scan_pruned(), 70);
        assert_eq!(snap.get(Count::ScanPrunedKim), 40);
        assert_eq!(snap.get(Count::ScanPrunedMbr), 20);
        assert_eq!(snap.get(Count::ScanPrunedPoints), 10);
        assert_eq!(snap.get(Count::ScanSearched), 130);
        assert_eq!(snap.get(Count::ScanAbandoned), 25);
        assert_eq!(snap.get(Count::ScanSearchedCells), 10_000);
        assert_eq!(snap.get(Count::ScanNs), 20_000);
        assert!((snap.ns_per_cell() - 2.0).abs() < 1e-12);
        assert!((snap.prune_ratio() - 0.35).abs() < 1e-12);
        assert_eq!(
            snap.get(Count::ScanCandidates),
            snap.scan_pruned() + snap.get(Count::ScanSearched)
        );
    }

    #[test]
    fn swap_counters_accumulate() {
        let stats = ServeStats::new();
        let before = stats.snapshot();
        assert_eq!(before.get(Count::Swaps), 0);
        assert_eq!(before.get(Count::CacheEvictedOnSwap), 0);
        stats.record_swap(3);
        stats.record_swap(0);
        let snap = stats.snapshot();
        assert_eq!(snap.get(Count::Swaps), 2);
        assert_eq!(snap.get(Count::CacheEvictedOnSwap), 3);
    }

    #[test]
    fn gauges_and_misc_counters_flow_to_snapshot() {
        let stats = ServeStats::with_workers(2);
        stats.queue_depth().add(3);
        stats.queue_depth().add(-1);
        stats.inflight().add(5);
        stats.add(Count::CacheEvictions, 4);
        stats.inc(Count::SlowQueries);
        stats.record_worker_busy(0, 1000);
        stats.record_worker_busy(1, 500);
        stats.record_worker_busy(9, 999); // out of range: ignored
        let snap = stats.snapshot();
        assert_eq!(snap.queue_depth, 2);
        assert_eq!(snap.inflight, 5);
        assert_eq!(snap.get(Count::CacheEvictions), 4);
        assert_eq!(snap.get(Count::SlowQueries), 1);
        assert_eq!(snap.worker_busy_ns, vec![1000, 500]);
    }

    #[test]
    fn audit_means_accumulate() {
        let stats = ServeStats::new();
        stats.record_audit_sample(&EffectivenessMetrics {
            ar: 1.0,
            mr: 1.0,
            rr: 0.1,
        });
        stats.record_audit_sample(&EffectivenessMetrics {
            ar: 1.5,
            mr: 3.0,
            rr: 0.3,
        });
        stats.inc(Count::AuditDropped);
        let snap = stats.snapshot();
        assert_eq!(snap.get(Count::AuditSamples), 2);
        assert_eq!(snap.get(Count::AuditDropped), 1);
        let audit = snap.audit_means();
        assert!((audit.ar - 1.25).abs() < 1e-12);
        assert!((audit.mr - 2.0).abs() < 1e-12);
        assert!((audit.rr - 0.2).abs() < 1e-12);
    }

    #[test]
    fn stats_wire_json_keeps_frozen_prefix_and_grows_additively() {
        let snap = ServeStats::new().snapshot();
        let Json::Obj(pairs) = snap.to_json() else {
            panic!("stats must serialize to an object")
        };
        let frozen = [
            "requests",
            "cache_hits",
            "hit_rate",
            "uptime_s",
            "qps",
            "p50_us",
            "p99_us",
            "scan_candidates",
            "scan_pruned",
            "scan_searched",
            "prune_ratio",
            "swaps",
            "cache_evicted_on_swap",
        ];
        for (i, want) in frozen.iter().enumerate() {
            assert_eq!(pairs[i].0, *want, "frozen stats field {i} moved");
        }
        assert!(pairs.len() > frozen.len(), "additive fields missing");
        for key in [
            "p999_us",
            "queue_depth",
            "audit_ar",
            "admitted",
            "shed",
            "deadline_expired",
            "internal_errors",
            "worker_panics",
            "worker_restarts",
            "latency_buckets",
        ] {
            assert!(pairs.iter().any(|(k, _)| k == key), "missing {key}");
        }
    }

    #[test]
    fn robustness_counters_flow_to_snapshot() {
        let stats = ServeStats::new();
        stats.inc(Count::Admitted);
        stats.inc(Count::Admitted);
        stats.inc(Count::Admitted);
        stats.inc(Count::Shed);
        stats.inc(Count::DeadlineExpired);
        stats.inc(Count::InternalErrors);
        stats.inc(Count::WorkerPanics);
        stats.inc(Count::WorkerRestarts);
        let snap = stats.snapshot();
        assert_eq!(snap.get(Count::Admitted), 3);
        assert_eq!(snap.get(Count::Shed), 1);
        assert_eq!(snap.get(Count::DeadlineExpired), 1);
        assert_eq!(snap.get(Count::InternalErrors), 1);
        assert_eq!(snap.get(Count::WorkerPanics), 1);
        assert_eq!(snap.get(Count::WorkerRestarts), 1);
        assert_eq!(snap.outcomes(), snap.get(Count::Admitted));
    }

    #[test]
    fn latency_p50_accessor_tracks_histogram() {
        let stats = ServeStats::new();
        assert_eq!(stats.latency_p50_us(), 0);
        for _ in 0..10 {
            stats.record_request(Duration::from_micros(100), false);
        }
        let p50 = stats.latency_p50_us();
        assert!((100..200).contains(&p50), "{p50}");
    }
}
