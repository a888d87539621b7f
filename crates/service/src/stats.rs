//! Aggregate serving statistics — the engine's metrics registry.
//!
//! Every hot-path record is lock-free: counters and gauges are single
//! relaxed atomics, and the latency distribution lives in a
//! log-bucketed [`Histogram`] of [`crate::metrics_registry`] (which
//! replaced the old mutex-guarded latency reservoir), so p50/p99/p999
//! come from mergeable power-of-two buckets with at most one bucket (2x)
//! of error. [`ServeStats::snapshot`] takes the point-in-time
//! [`StatsSnapshot`] that backs both the `stats` wire response and the
//! Prometheus-style `metrics` exposition.

use crate::json::{obj, Json};
use crate::metrics_registry::{Counter, Gauge, Histogram, HistogramSnapshot};
use crate::sync::atomic::{AtomicU64, Ordering};
use simsub_core::{EffectivenessMetrics, PruneStats};
use std::time::{Duration, Instant};

/// Live counters owned by the engine; cheap (lock-free) to update per
/// request.
pub struct ServeStats {
    started: Instant,
    requests: Counter,
    cache_hits: Counter,
    /// Candidate (trajectory, query) evaluations considered by
    /// cold-path corpus scans.
    scan_candidates: Counter,
    /// Of those, skipped by the O(1) Kim-style coarse screen.
    scan_pruned_kim: Counter,
    /// Of those, skipped by the O(m) MBR-envelope bound.
    scan_pruned_mbr: Counter,
    /// Of those, skipped by the O(n·m) point-level bound.
    scan_pruned_points: Counter,
    /// Of those, fully searched.
    scan_searched: Counter,
    /// Of the searched, those the free-start DP settled below the running
    /// k-th similarity.
    scan_abandoned: Counter,
    /// Nominal DP size (`data_len × query_len`) of the searched
    /// candidates — the denominator of the ns-per-cell gauge; settling
    /// early does not shrink it.
    scan_searched_cells: Counter,
    /// Wall-clock nanoseconds spent inside corpus scans (measured by the
    /// engine around each scan call) — the ns-per-cell numerator.
    scan_ns: Counter,
    /// Snapshot hot-swaps performed (`QueryEngine::swap_snapshot`).
    swaps: Counter,
    /// Cache entries purged by swaps (stale-epoch evictions), summed.
    cache_evicted_on_swap: Counter,
    /// Cache entries evicted by LRU capacity pressure.
    cache_evictions: Counter,
    /// Requests whose engine latency crossed the slow-query threshold.
    slow_queries: Counter,
    /// Requests that passed validation at `submit` (including those the
    /// admission gate then shed). Reconciliation identity:
    /// `admitted == requests + shed + deadline_expired + internal_errors`.
    admitted: Counter,
    /// Requests rejected by the admission gate (queue full).
    shed: Counter,
    /// Jobs dropped because their deadline expired before a worker
    /// dequeued them.
    deadline_expired: Counter,
    /// Jobs answered with a structured internal error (scan panicked, or
    /// the response was lost before reaching the waiter).
    internal_errors: Counter,
    /// Worker-thread panics observed (caught at dispatch or detected by
    /// the supervisor).
    worker_panics: Counter,
    /// Worker threads respawned by the supervisor.
    worker_restarts: Counter,
    /// `accept` failures observed by the serving layer (fd exhaustion,
    /// transient socket errors). Serving continues; the failure is
    /// counted here and the accept loop backs off.
    accept_errors: Counter,
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
    /// Quality-audit samples folded in so far.
    audit_samples: Counter,
    /// Audit candidates dropped because the auditor's queue was full.
    audit_dropped: Counter,
    // Running sums for the audit means, stored as f64 bits. The auditor
    // thread is the only writer; readers just need a coherent f64.
    audit_ar_sum: AtomicU64,
    audit_mr_sum: AtomicU64,
    audit_rr_sum: AtomicU64,
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
            requests: Counter::new(),
            cache_hits: Counter::new(),
            scan_candidates: Counter::new(),
            scan_pruned_kim: Counter::new(),
            scan_pruned_mbr: Counter::new(),
            scan_pruned_points: Counter::new(),
            scan_searched: Counter::new(),
            scan_abandoned: Counter::new(),
            scan_searched_cells: Counter::new(),
            scan_ns: Counter::new(),
            swaps: Counter::new(),
            cache_evicted_on_swap: Counter::new(),
            cache_evictions: Counter::new(),
            slow_queries: Counter::new(),
            admitted: Counter::new(),
            shed: Counter::new(),
            deadline_expired: Counter::new(),
            internal_errors: Counter::new(),
            worker_panics: Counter::new(),
            worker_restarts: Counter::new(),
            accept_errors: Counter::new(),
            open_connections: Gauge::new(),
            queue_depth: Gauge::new(),
            inflight: Gauge::new(),
            latencies_us: Histogram::new(),
            worker_busy_ns: (0..workers).map(|_| Counter::new()).collect(),
            audit_samples: Counter::new(),
            audit_dropped: Counter::new(),
            audit_ar_sum: AtomicU64::new(0f64.to_bits()),
            audit_mr_sum: AtomicU64::new(0f64.to_bits()),
            audit_rr_sum: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Records one answered request.
    pub fn record_request(&self, latency: Duration, cache_hit: bool) {
        self.requests.inc();
        if cache_hit {
            self.cache_hits.inc();
        }
        self.latencies_us
            .record(latency.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Folds one cold-path corpus scan's prune counters into the totals.
    /// `scan_ns` is the wall-clock time of the scan call (ns-per-cell
    /// numerator; pass 0 when unmeasured).
    pub fn record_scan(&self, scan: &PruneStats, scan_ns: u64) {
        self.scan_candidates.add(scan.scanned);
        self.scan_pruned_kim.add(scan.pruned_by_kim);
        self.scan_pruned_mbr.add(scan.pruned_by_mbr);
        self.scan_pruned_points.add(scan.pruned_by_points);
        self.scan_searched.add(scan.searched);
        self.scan_abandoned.add(scan.abandoned);
        self.scan_searched_cells.add(scan.searched_cells);
        self.scan_ns.add(scan_ns);
    }

    /// Records one snapshot hot-swap and how many stale-epoch cache
    /// entries it purged, so swaps are observable on the `stats` wire
    /// response.
    pub fn record_swap(&self, cache_evicted: u64) {
        self.swaps.inc();
        self.cache_evicted_on_swap.add(cache_evicted);
    }

    /// Records cache entries evicted by LRU capacity pressure.
    pub fn record_cache_evictions(&self, n: u64) {
        if n != 0 {
            self.cache_evictions.add(n);
        }
    }

    /// Records one request that crossed the slow-query threshold.
    pub fn record_slow_query(&self) {
        self.slow_queries.inc();
    }

    /// Records one request that passed validation at `submit` (counted
    /// even when the admission gate then sheds it, so admitted
    /// reconciles against answered + shed + expired + internal).
    pub fn record_admitted(&self) {
        self.admitted.inc();
    }

    /// Records one request rejected by the admission gate (queue full).
    pub fn record_shed(&self) {
        self.shed.inc();
    }

    /// Records one job dropped because its deadline expired before it
    /// was scanned.
    pub fn record_deadline_expired(&self) {
        self.deadline_expired.inc();
    }

    /// Records one job answered with a structured internal error.
    pub fn record_internal_error(&self) {
        self.internal_errors.inc();
    }

    /// Records one observed worker-thread panic.
    pub fn record_worker_panic(&self) {
        self.worker_panics.inc();
    }

    /// Records one worker thread respawned by the supervisor.
    pub fn record_worker_restart(&self) {
        self.worker_restarts.inc();
    }

    /// Records one failed `accept` call (fd exhaustion, transient
    /// socket error) the serving layer survived.
    pub fn record_accept_error(&self) {
        self.accept_errors.inc();
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
        f64_add(&self.audit_ar_sum, m.ar);
        f64_add(&self.audit_mr_sum, m.mr);
        f64_add(&self.audit_rr_sum, m.rr);
        self.audit_samples.inc();
    }

    /// Records an audit candidate dropped because the auditor's bounded
    /// queue was full (serving never blocks on the auditor).
    pub fn record_audit_dropped(&self) {
        self.audit_dropped.inc();
    }

    /// Takes a consistent-enough point-in-time snapshot.
    pub fn snapshot(&self) -> StatsSnapshot {
        let requests = self.requests.get();
        let cache_hits = self.cache_hits.get();
        let scan_pruned_kim = self.scan_pruned_kim.get();
        let scan_pruned_mbr = self.scan_pruned_mbr.get();
        let scan_pruned_points = self.scan_pruned_points.get();
        let scan_pruned = scan_pruned_kim + scan_pruned_mbr + scan_pruned_points;
        let scan_candidates = self.scan_candidates.get();
        let scan_searched = self.scan_searched.get();
        let scan_searched_cells = self.scan_searched_cells.get();
        let scan_ns = self.scan_ns.get();
        let uptime = self.started.elapsed();
        let latency_hist = self.latencies_us.snapshot();
        let audit_samples = self.audit_samples.get();
        let audit_mean = |sum: &AtomicU64| {
            if audit_samples == 0 {
                0.0
            } else {
                f64_load(sum) / audit_samples as f64
            }
        };
        StatsSnapshot {
            requests,
            cache_hits,
            hit_rate: ratio(cache_hits, requests),
            uptime,
            qps: if uptime.as_secs_f64() > 0.0 {
                requests as f64 / uptime.as_secs_f64()
            } else {
                0.0
            },
            p50_us: latency_hist.quantile(0.50),
            p99_us: latency_hist.quantile(0.99),
            scan_candidates,
            scan_pruned,
            scan_searched,
            prune_ratio: ratio(scan_pruned, scan_candidates),
            swaps: self.swaps.get(),
            cache_evicted_on_swap: self.cache_evicted_on_swap.get(),
            p999_us: latency_hist.quantile(0.999),
            queue_depth: self.queue_depth.get(),
            inflight: self.inflight.get(),
            cache_evictions: self.cache_evictions.get(),
            slow_queries: self.slow_queries.get(),
            // The four reconciliation counters below are independent relaxed
            // cells: a mid-flight snapshot may transiently see an outcome
            // before its admission (`admitted < requests + shed + expired +
            // internal`). Upgrading the loads to SeqCst would not close that
            // window — the admission and outcome increments are separate RMWs
            // — so the identity is only asserted on a quiesced engine and
            // live exposition treats it as eventually consistent.
            admitted: self.admitted.get(),
            shed: self.shed.get(),
            deadline_expired: self.deadline_expired.get(),
            internal_errors: self.internal_errors.get(),
            worker_panics: self.worker_panics.get(),
            worker_restarts: self.worker_restarts.get(),
            accept_errors: self.accept_errors.get(),
            open_connections: self.open_connections.get(),
            scan_pruned_kim,
            scan_pruned_mbr,
            scan_pruned_points,
            scan_abandoned: self.scan_abandoned.get(),
            scan_searched_cells,
            scan_ns,
            ns_per_cell: ratio(scan_ns, scan_searched_cells),
            audit_samples,
            audit_dropped: self.audit_dropped.get(),
            audit_ar: audit_mean(&self.audit_ar_sum),
            audit_mr: audit_mean(&self.audit_mr_sum),
            audit_rr: audit_mean(&self.audit_rr_sum),
            worker_busy_ns: self.worker_busy_ns.iter().map(Counter::get).collect(),
            latency_hist,
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

/// Point-in-time view of [`ServeStats`].
///
/// Wire-compat contract: the first thirteen fields of
/// [`StatsSnapshot::to_json`] (through `cache_evicted_on_swap`) are the
/// pre-observability `stats` object and keep their names, order, and
/// meaning; everything after is additive.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Requests answered so far.
    pub requests: u64,
    /// Of those, answered from the result cache.
    pub cache_hits: u64,
    /// `cache_hits / requests` (0 when idle).
    pub hit_rate: f64,
    /// Time since the engine started.
    pub uptime: Duration,
    /// Requests per second over the whole uptime.
    pub qps: f64,
    /// Median engine latency from the histogram buckets, microseconds
    /// (bucket upper bound: within 2x of the true median).
    pub p50_us: u64,
    /// 99th-percentile engine latency (bucketed), microseconds.
    pub p99_us: u64,
    /// Candidate (trajectory, query) evaluations considered by
    /// cold-path corpus scans.
    pub scan_candidates: u64,
    /// Of those, skipped by the lower-bound cascade before any search.
    pub scan_pruned: u64,
    /// Of those, fully searched.
    pub scan_searched: u64,
    /// `scan_pruned / scan_candidates` (0 when no scans ran).
    pub prune_ratio: f64,
    /// Snapshot hot-swaps performed so far.
    pub swaps: u64,
    /// Cache entries purged across all swaps (stale-epoch evictions).
    pub cache_evicted_on_swap: u64,
    /// 99.9th-percentile engine latency (bucketed), microseconds.
    pub p999_us: u64,
    /// Jobs accepted but not yet drained by a worker.
    pub queue_depth: i64,
    /// Jobs a worker has dequeued but not yet answered.
    pub inflight: i64,
    /// Cache entries evicted by LRU capacity pressure.
    pub cache_evictions: u64,
    /// Requests that crossed the slow-query threshold.
    pub slow_queries: u64,
    /// Requests that passed validation at `submit` (including shed
    /// ones). `admitted == requests + shed + deadline_expired +
    /// internal_errors` once the engine is quiescent.
    pub admitted: u64,
    /// Requests rejected by the admission gate (queue full).
    pub shed: u64,
    /// Jobs dropped because their deadline expired before being scanned.
    pub deadline_expired: u64,
    /// Jobs answered with a structured internal error.
    pub internal_errors: u64,
    /// Worker-thread panics observed.
    pub worker_panics: u64,
    /// Worker threads respawned by the supervisor.
    pub worker_restarts: u64,
    /// `accept` failures the serving layer survived.
    pub accept_errors: u64,
    /// Connections the serving layer currently holds open.
    pub open_connections: i64,
    /// Scan candidates rejected by the O(1) Kim-style screen.
    pub scan_pruned_kim: u64,
    /// Scan candidates rejected by the O(m) MBR-envelope bound.
    pub scan_pruned_mbr: u64,
    /// Scan candidates rejected by the O(n·m) point-level bound.
    pub scan_pruned_points: u64,
    /// Searched candidates the free-start DP settled below the k-th
    /// similarity. The others entered the heap with their range pending,
    /// and only those still in it when their scan ended recovered it, so
    /// range recoveries under ExactS with DTW or Frechet are at most `k`
    /// per scan, not `scan_searched - scan_abandoned`.
    pub scan_abandoned: u64,
    /// Nominal DP size (`data_len × query_len`) of the searched
    /// candidates; not reduced by settling early.
    pub scan_searched_cells: u64,
    /// Wall-clock nanoseconds spent inside corpus scans.
    pub scan_ns: u64,
    /// `scan_ns / scan_searched_cells` — mean DP kernel cost.
    pub ns_per_cell: f64,
    /// Quality-audit samples folded in so far.
    pub audit_samples: u64,
    /// Audit candidates dropped (auditor queue full).
    pub audit_dropped: u64,
    /// Mean approximation ratio of audited answers (1.0 = exact).
    pub audit_ar: f64,
    /// Mean rank of audited answers in the exhaustive ranking (1 = best).
    pub audit_mr: f64,
    /// Mean relative rank (`rank / total subtrajectories`) of audited
    /// answers.
    pub audit_rr: f64,
    /// Per-worker busy nanoseconds (time not blocked on the queue).
    pub worker_busy_ns: Vec<u64>,
    /// Engine latency distribution, microseconds.
    pub latency_hist: HistogramSnapshot,
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
    /// Wire form for the `{"cmd":"stats"}` protocol request. The first
    /// thirteen fields are frozen (see the struct docs); later fields are
    /// additive and may keep growing.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("requests", Json::Num(self.requests as f64)),
            ("cache_hits", Json::Num(self.cache_hits as f64)),
            ("hit_rate", Json::Num(self.hit_rate)),
            ("uptime_s", Json::Num(self.uptime.as_secs_f64())),
            ("qps", Json::Num(self.qps)),
            ("p50_us", Json::Num(self.p50_us as f64)),
            ("p99_us", Json::Num(self.p99_us as f64)),
            ("scan_candidates", Json::Num(self.scan_candidates as f64)),
            ("scan_pruned", Json::Num(self.scan_pruned as f64)),
            ("scan_searched", Json::Num(self.scan_searched as f64)),
            ("prune_ratio", Json::Num(self.prune_ratio)),
            ("swaps", Json::Num(self.swaps as f64)),
            (
                "cache_evicted_on_swap",
                Json::Num(self.cache_evicted_on_swap as f64),
            ),
            // -- additive observability fields below this line --
            ("p999_us", Json::Num(self.p999_us as f64)),
            ("queue_depth", Json::Num(self.queue_depth as f64)),
            ("inflight", Json::Num(self.inflight as f64)),
            ("cache_evictions", Json::Num(self.cache_evictions as f64)),
            ("slow_queries", Json::Num(self.slow_queries as f64)),
            ("scan_pruned_kim", Json::Num(self.scan_pruned_kim as f64)),
            ("scan_pruned_mbr", Json::Num(self.scan_pruned_mbr as f64)),
            (
                "scan_searched_cells",
                Json::Num(self.scan_searched_cells as f64),
            ),
            ("ns_per_cell", Json::Num(self.ns_per_cell)),
            ("audit_samples", Json::Num(self.audit_samples as f64)),
            ("audit_dropped", Json::Num(self.audit_dropped as f64)),
            ("audit_ar", Json::Num(self.audit_ar)),
            ("audit_mr", Json::Num(self.audit_mr)),
            ("audit_rr", Json::Num(self.audit_rr)),
            ("admitted", Json::Num(self.admitted as f64)),
            ("shed", Json::Num(self.shed as f64)),
            ("deadline_expired", Json::Num(self.deadline_expired as f64)),
            ("internal_errors", Json::Num(self.internal_errors as f64)),
            ("worker_panics", Json::Num(self.worker_panics as f64)),
            ("worker_restarts", Json::Num(self.worker_restarts as f64)),
            ("accept_errors", Json::Num(self.accept_errors as f64)),
            ("open_connections", Json::Num(self.open_connections as f64)),
            ("latency_buckets", buckets_json(&self.latency_hist)),
            (
                "scan_pruned_points",
                Json::Num(self.scan_pruned_points as f64),
            ),
            ("scan_abandoned", Json::Num(self.scan_abandoned as f64)),
        ])
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
        assert_eq!(snap.requests, 100);
        assert_eq!(snap.cache_hits, 25);
        assert!((snap.hit_rate - 0.25).abs() < 1e-12);
        // Histogram quantiles report the bucket upper bound: within one
        // power-of-two bucket (2x) of the true percentile.
        assert!(snap.p50_us >= 50 && snap.p50_us < 100, "{}", snap.p50_us);
        assert!(snap.p99_us >= 99 && snap.p99_us < 198, "{}", snap.p99_us);
        assert!(snap.p999_us >= snap.p99_us);
        assert!(snap.qps > 0.0);
        assert_eq!(snap.latency_hist.count, 100);
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let snap = ServeStats::new().snapshot();
        assert_eq!(snap.requests, 0);
        assert_eq!(snap.p50_us, 0);
        assert_eq!(snap.p99_us, 0);
        assert_eq!(snap.p999_us, 0);
        assert_eq!(snap.hit_rate, 0.0);
        assert_eq!(snap.audit_ar, 0.0);
        assert_eq!(snap.ns_per_cell, 0.0);
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
        assert_eq!(snap.scan_candidates, 200);
        assert_eq!(snap.scan_pruned, 70);
        assert_eq!(snap.scan_pruned_kim, 40);
        assert_eq!(snap.scan_pruned_mbr, 20);
        assert_eq!(snap.scan_pruned_points, 10);
        assert_eq!(snap.scan_searched, 130);
        assert_eq!(snap.scan_abandoned, 25);
        assert_eq!(snap.scan_searched_cells, 10_000);
        assert_eq!(snap.scan_ns, 20_000);
        assert!((snap.ns_per_cell - 2.0).abs() < 1e-12);
        assert!((snap.prune_ratio - 0.35).abs() < 1e-12);
        assert_eq!(snap.scan_candidates, snap.scan_pruned + snap.scan_searched);
    }

    #[test]
    fn swap_counters_accumulate() {
        let stats = ServeStats::new();
        let before = stats.snapshot();
        assert_eq!(before.swaps, 0);
        assert_eq!(before.cache_evicted_on_swap, 0);
        stats.record_swap(3);
        stats.record_swap(0);
        let snap = stats.snapshot();
        assert_eq!(snap.swaps, 2);
        assert_eq!(snap.cache_evicted_on_swap, 3);
    }

    #[test]
    fn gauges_and_misc_counters_flow_to_snapshot() {
        let stats = ServeStats::with_workers(2);
        stats.queue_depth().add(3);
        stats.queue_depth().add(-1);
        stats.inflight().add(5);
        stats.record_cache_evictions(4);
        stats.record_slow_query();
        stats.record_worker_busy(0, 1000);
        stats.record_worker_busy(1, 500);
        stats.record_worker_busy(9, 999); // out of range: ignored
        let snap = stats.snapshot();
        assert_eq!(snap.queue_depth, 2);
        assert_eq!(snap.inflight, 5);
        assert_eq!(snap.cache_evictions, 4);
        assert_eq!(snap.slow_queries, 1);
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
        stats.record_audit_dropped();
        let snap = stats.snapshot();
        assert_eq!(snap.audit_samples, 2);
        assert_eq!(snap.audit_dropped, 1);
        assert!((snap.audit_ar - 1.25).abs() < 1e-12);
        assert!((snap.audit_mr - 2.0).abs() < 1e-12);
        assert!((snap.audit_rr - 0.2).abs() < 1e-12);
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
        stats.record_admitted();
        stats.record_admitted();
        stats.record_admitted();
        stats.record_shed();
        stats.record_deadline_expired();
        stats.record_internal_error();
        stats.record_worker_panic();
        stats.record_worker_restart();
        let snap = stats.snapshot();
        assert_eq!(snap.admitted, 3);
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.deadline_expired, 1);
        assert_eq!(snap.internal_errors, 1);
        assert_eq!(snap.worker_panics, 1);
        assert_eq!(snap.worker_restarts, 1);
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
