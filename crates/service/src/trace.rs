//! Per-query stage tracing: the scoped-timer breakdown a `"trace":true`
//! wire-v2 request gets echoed back, and the slow-query log that captures
//! the same breakdown (plus prune counters) for latency outliers.
//!
//! Stage model — one [`TraceReport`] walks a request through the serve
//! path:
//!
//! ```text
//! admission -> queue wait -> batch formation -> scan (bounds | DP kernel)
//!           -> merge -> serialize
//! ```
//!
//! The service-level stages (admit/queue/batch/scan/merge) are measured
//! from a handful of per-batch `Instant` reads the engine takes anyway,
//! so they cost nothing extra per request; the in-scan split into bound
//! evaluation vs DP kernel time needs per-candidate clocks and is only
//! accumulated while a traced query's scan runs (see
//! [`simsub_core::scan_timing_scope`]). `serialize_us` is stamped by the
//! server after rendering the response body. Scan-stage numbers describe
//! the *dispatch group* the query was answered in (a batched scan answers
//! several deduplicated queries at once); cache hits report zero scan
//! work and `cached: true`.

use crate::json::{obj, Json};
use simsub_core::PruneStats;

/// Per-stage timing (microseconds) and prune accounting for one answered
/// request. Echoed as the `"trace"` object on traced wire-v2 responses
/// and logged for slow queries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceReport {
    /// Admission: request validation, snapshot pinning, and cache-key
    /// computation inside `submit`.
    pub admit_us: u64,
    /// Time between submission and the batch containing this job being
    /// fully formed (queue wait).
    pub queue_us: u64,
    /// Time the draining worker spent forming this job's batch.
    pub batch_us: u64,
    /// Wall-clock time of the dispatch group's corpus scan (0 for cache
    /// hits).
    pub scan_us: u64,
    /// Of the scan, time evaluating bound cascades (only measured while
    /// scan timing is enabled — i.e. for traced queries).
    pub bound_us: u64,
    /// Of the scan, time inside the DP search kernel (measured like
    /// `bound_us`).
    pub kernel_us: u64,
    /// Post-scan cache insertion and response fan-out until this job's
    /// reply was sent.
    pub merge_us: u64,
    /// Response-body rendering time, stamped by the server.
    pub serialize_us: u64,
    /// Prune cascade counters of the dispatch group's scan (all zero for
    /// cache hits).
    pub prune: PruneStats,
    /// True when the answer came from the result cache.
    pub cached: bool,
    /// How many requests shared this job's dispatch batch.
    pub batch_size: usize,
}

impl TraceReport {
    /// Wire form: the `"trace"` object appended to traced responses.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("admit_us", Json::Num(self.admit_us as f64)),
            ("queue_us", Json::Num(self.queue_us as f64)),
            ("batch_us", Json::Num(self.batch_us as f64)),
            ("scan_us", Json::Num(self.scan_us as f64)),
            ("bound_us", Json::Num(self.bound_us as f64)),
            ("kernel_us", Json::Num(self.kernel_us as f64)),
            ("merge_us", Json::Num(self.merge_us as f64)),
            ("serialize_us", Json::Num(self.serialize_us as f64)),
            ("scanned", Json::Num(self.prune.scanned as f64)),
            ("pruned_by_kim", Json::Num(self.prune.pruned_by_kim as f64)),
            ("pruned_by_mbr", Json::Num(self.prune.pruned_by_mbr as f64)),
            (
                "pruned_by_points",
                Json::Num(self.prune.pruned_by_points as f64),
            ),
            ("searched", Json::Num(self.prune.searched as f64)),
            ("abandoned", Json::Num(self.prune.abandoned as f64)),
            (
                "searched_cells",
                Json::Num(self.prune.searched_cells as f64),
            ),
            ("cached", Json::Bool(self.cached)),
            ("batch_size", Json::Num(self.batch_size as f64)),
        ])
    }
}

/// One retained slow-query record: the engine latency that crossed the
/// threshold plus the request's full stage trace.
#[derive(Debug, Clone)]
pub struct SlowQueryRecord {
    /// End-to-end engine latency, microseconds.
    pub latency_us: u64,
    /// Stage breakdown and prune counters of the slow request.
    pub trace: TraceReport,
    /// Engine epoch the answer was computed under.
    pub epoch: u64,
}

impl SlowQueryRecord {
    /// One-line JSON form, used both for the stderr slow-query log and
    /// the in-memory ring exposed to tests.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("slow_query", Json::Bool(true)),
            ("latency_us", Json::Num(self.latency_us as f64)),
            ("epoch", Json::Num(self.epoch as f64)),
            ("trace", self.trace.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_report_serializes_every_stage() {
        let report = TraceReport {
            admit_us: 1,
            queue_us: 2,
            batch_us: 3,
            scan_us: 4,
            bound_us: 5,
            kernel_us: 6,
            merge_us: 7,
            serialize_us: 8,
            prune: PruneStats {
                scanned: 10,
                pruned_by_kim: 4,
                pruned_by_mbr: 2,
                pruned_by_points: 1,
                searched: 3,
                abandoned: 2,
                searched_cells: 99,
                ..PruneStats::default()
            },
            cached: false,
            batch_size: 2,
        };
        let json = report.to_json();
        for (key, want) in [
            ("admit_us", 1.0),
            ("queue_us", 2.0),
            ("batch_us", 3.0),
            ("scan_us", 4.0),
            ("bound_us", 5.0),
            ("kernel_us", 6.0),
            ("merge_us", 7.0),
            ("serialize_us", 8.0),
            ("scanned", 10.0),
            ("pruned_by_kim", 4.0),
            ("pruned_by_mbr", 2.0),
            ("pruned_by_points", 1.0),
            ("searched", 3.0),
            ("abandoned", 2.0),
            ("searched_cells", 99.0),
            ("batch_size", 2.0),
        ] {
            assert_eq!(json.get(key).and_then(Json::as_f64), Some(want), "{key}");
        }
        assert_eq!(json.get("cached").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn slow_query_record_wraps_trace() {
        let record = SlowQueryRecord {
            latency_us: 1234,
            trace: TraceReport::default(),
            epoch: 7,
        };
        let json = record.to_json();
        assert_eq!(json.get("slow_query").and_then(Json::as_bool), Some(true));
        assert_eq!(json.get("latency_us").and_then(Json::as_f64), Some(1234.0));
        assert_eq!(json.get("epoch").and_then(Json::as_f64), Some(7.0));
        assert!(json.get("trace").is_some());
    }
}
