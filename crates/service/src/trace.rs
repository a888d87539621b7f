//! Per-query stage tracing: the scoped-timer breakdown a `"trace":true`
//! wire-v2 request gets echoed back, and the slow-query log that captures
//! the same breakdown (plus prune counters) for latency outliers.
//!
//! Stage model — one [`TraceReport`] walks a request through the serve
//! path:
//!
//! ```text
//! parse -> admission -> queue wait
//!       -> scan (bounds | DP kernel) -> merge -> serialize
//! ```
//!
//! A cache hit answered at admission never leaves the thread that
//! parsed it (the reactor): its stages are parse, admission (which then
//! includes the cache lookup) and serialize, and it reports zero queue,
//! scan and merge time. A hit found later by a worker's dequeue-time
//! lookup reports its queue wait as well. `batch_us` (always 0) and
//! `batch_size` (always 1) are kept so the wire object keeps its shape.
//!
//! `parse_us` is the reactor's JSON parse plus request decode, handed to
//! the engine in `SubmitOptions::parse`. The service-level stages
//! (admit/queue/scan/merge) are measured from a handful of
//! per-job `Instant` reads the engine takes anyway, so they cost
//! nothing extra per request; the in-scan split into bound evaluation vs
//! DP kernel time needs per-candidate clocks and is only accumulated
//! in a traced query's own scan: the worker takes the per-thread switch
//! ([`simsub_core::scan_timing_scope`]) around it, so scans on other
//! workers stay untimed. `serialize_us` is stamped by the
//! server once the response body is written. Scan-stage numbers describe
//! the query's own scan; cache hits report zero scan work and
//! `cached: true`.

use crate::json::write_num;
use simsub_core::PruneStats;

/// Per-stage timing (microseconds) and prune accounting for one answered
/// request. Echoed as the `"trace"` object on traced wire-v2 responses
/// and logged for slow queries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceReport {
    /// Wire line to request: the reactor's JSON parse and request decode
    /// (0 for in-process submits).
    pub parse_us: u64,
    /// Admission: request validation, snapshot pinning, cache-key
    /// computation and the admission cache lookup inside `submit`.
    pub admit_us: u64,
    /// Time between submission and a worker dequeuing this job (0 for
    /// hits answered at admission).
    pub queue_us: u64,
    /// Always 0 for an engine answer (no batch is formed); kept for the
    /// wire shape.
    pub batch_us: u64,
    /// Wall-clock time of the job's corpus scan (0 for cache hits).
    pub scan_us: u64,
    /// Of a pruning scan, the time outside the kernel (only measured
    /// while scan timing is enabled — i.e. for traced queries).
    pub bound_us: u64,
    /// Of the scan, time inside the DP search kernel (measured like
    /// `bound_us`), summed over every thread that searched: an
    /// unprunable scan split over several threads can report more
    /// `kernel_us` than `scan_us`.
    pub kernel_us: u64,
    /// Post-scan cache insertion until this job's reply was sent.
    pub merge_us: u64,
    /// Response-body writing time, stamped by the server.
    pub serialize_us: u64,
    /// Prune cascade counters of the job's scan (all zero for cache
    /// hits).
    pub prune: PruneStats,
    /// True when the answer came from the result cache.
    pub cached: bool,
    /// Always 1 for an engine answer; kept for the wire shape.
    pub batch_size: usize,
}

impl TraceReport {
    /// Appends the wire form — the `"trace"` object of traced responses —
    /// to `out`. `parse_us` came last and stays last: fields are only
    /// ever appended.
    pub fn write_json(&self, out: &mut String) {
        let prune = &self.prune;
        for (i, (key, value)) in [
            ("admit_us", self.admit_us),
            ("queue_us", self.queue_us),
            ("batch_us", self.batch_us),
            ("scan_us", self.scan_us),
            ("bound_us", self.bound_us),
            ("kernel_us", self.kernel_us),
            ("merge_us", self.merge_us),
            ("serialize_us", self.serialize_us),
            ("scanned", prune.scanned),
            ("pruned_by_kim", prune.pruned_by_kim),
            ("pruned_by_mbr", prune.pruned_by_mbr),
            ("pruned_by_points", prune.pruned_by_points),
            ("searched", prune.searched),
            ("abandoned", prune.abandoned),
            ("searched_cells", prune.searched_cells),
        ]
        .into_iter()
        .enumerate()
        {
            out.push_str(if i == 0 { "{\"" } else { ",\"" });
            out.push_str(key);
            out.push_str("\":");
            write_num(value as f64, out);
        }
        out.push_str(if self.cached {
            ",\"cached\":true"
        } else {
            ",\"cached\":false"
        });
        out.push_str(",\"batch_size\":");
        write_num(self.batch_size as f64, out);
        out.push_str(",\"parse_us\":");
        write_num(self.parse_us as f64, out);
        out.push('}');
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
    pub fn to_line(&self) -> String {
        let mut out = String::from("{\"slow_query\":true,\"latency_us\":");
        write_num(self.latency_us as f64, &mut out);
        out.push_str(",\"epoch\":");
        write_num(self.epoch as f64, &mut out);
        out.push_str(",\"trace\":");
        self.trace.write_json(&mut out);
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn trace_report_serializes_every_stage() {
        let report = TraceReport {
            parse_us: 9,
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
        let mut line = String::new();
        report.write_json(&mut line);
        let json = Json::parse(&line).expect("the trace is one JSON object");
        let want = [
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
            ("parse_us", 9.0),
        ];
        for (key, value) in want {
            assert_eq!(json.get(key).and_then(Json::as_f64), Some(value), "{key}");
        }
        assert_eq!(json.get("cached").and_then(Json::as_bool), Some(false));
        // Wire order is append-only: today's keys in today's order, with
        // `cached` before `batch_size` and `parse_us` last.
        let Json::Obj(pairs) = json else {
            unreachable!()
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        let mut expected: Vec<&str> = want[..15].iter().map(|(k, _)| *k).collect();
        expected.extend(["cached", "batch_size", "parse_us"]);
        assert_eq!(keys, expected);
    }

    #[test]
    fn slow_query_record_wraps_trace() {
        let record = SlowQueryRecord {
            latency_us: 1234,
            trace: TraceReport::default(),
            epoch: 7,
        };
        let json = Json::parse(&record.to_line()).expect("one JSON line");
        assert_eq!(json.get("slow_query").and_then(Json::as_bool), Some(true));
        assert_eq!(json.get("latency_us").and_then(Json::as_f64), Some(1234.0));
        assert_eq!(json.get("epoch").and_then(Json::as_f64), Some(7.0));
        assert!(json.get("trace").is_some());
    }
}
