//! The request/response model of the serving layer and the canonical
//! query hash that keys the result cache.

use crate::json::{obj, Json};
use simsub_core::TopKResult;
use simsub_trajectory::Point;

/// Which search algorithm a request selects. Mirrors the CLI's `--algo`
/// choices that make sense online (training-time-only variants excluded).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgoSpec {
    /// ExactS (§4.1) — exact, O(n²·m) in the worst case.
    Exact,
    /// SizeS (§4.2) with size window `xi`.
    SizeS {
        /// Size window ξ.
        xi: usize,
    },
    /// PSS splitting heuristic (§4.3).
    Pss,
    /// POS splitting heuristic (§4.3).
    Pos,
    /// POS-D with delay `delay` (§4.3).
    PosD {
        /// Delay D.
        delay: usize,
    },
    /// Spring (DTW-specific baseline).
    Spring,
    /// The learned RLS policy loaded into the engine snapshot.
    Rls,
}

impl AlgoSpec {
    /// Stable wire name.
    pub fn wire_name(&self) -> &'static str {
        match self {
            AlgoSpec::Exact => "exact",
            AlgoSpec::SizeS { .. } => "sizes",
            AlgoSpec::Pss => "pss",
            AlgoSpec::Pos => "pos",
            AlgoSpec::PosD { .. } => "posd",
            AlgoSpec::Spring => "spring",
            AlgoSpec::Rls => "rls",
        }
    }

    /// Parameter folded into the canonical hash (0 when none).
    fn param(&self) -> u64 {
        match self {
            AlgoSpec::SizeS { xi } => *xi as u64,
            AlgoSpec::PosD { delay } => *delay as u64,
            _ => 0,
        }
    }
}

/// Which similarity measure a request selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MeasureSpec {
    /// Dynamic time warping.
    Dtw,
    /// Discrete Frechet.
    Frechet,
    /// The learned t2vec model loaded into the engine snapshot.
    T2Vec,
}

impl MeasureSpec {
    /// Stable wire name.
    pub fn wire_name(&self) -> &'static str {
        match self {
            MeasureSpec::Dtw => "dtw",
            MeasureSpec::Frechet => "frechet",
            MeasureSpec::T2Vec => "t2vec",
        }
    }
}

/// One top-k similar-subtrajectory query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// Query trajectory points.
    pub query: Vec<Point>,
    /// Algorithm to run.
    pub algo: AlgoSpec,
    /// Measure to evaluate under.
    pub measure: MeasureSpec,
    /// Number of hits to return.
    pub k: usize,
    /// Whether to prune candidates through the R-tree first.
    pub use_index: bool,
}

impl QueryRequest {
    /// True when two requests are the same search: same algorithm (and
    /// parameters), measure, `k`, index flag, and query coordinate bit
    /// patterns. Timestamps are ignored — no measure consults them. This
    /// is the ground truth the cache verifies on every hit;
    /// [`QueryRequest::canonical_key`] is only the 64-bit index into it.
    pub fn canonically_equal(&self, other: &QueryRequest) -> bool {
        self.algo == other.algo
            && self.measure == other.measure
            && self.k == other.k
            && self.use_index == other.use_index
            && self.query.len() == other.query.len()
            && self
                .query
                .iter()
                .zip(&other.query)
                .all(|(a, b)| a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits())
    }

    /// Canonical cache key: FNV-1a over the algorithm, measure, `k`,
    /// index flag, and the exact bit patterns of the query coordinates.
    /// The key is an index, not a proof: consumers must confirm a match
    /// with [`QueryRequest::canonically_equal`] before treating two
    /// requests as the same search (64-bit FNV collisions are
    /// constructible, and the cache is shared across clients).
    pub fn canonical_key(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(match self.algo {
            AlgoSpec::Exact => 1,
            AlgoSpec::SizeS { .. } => 2,
            AlgoSpec::Pss => 3,
            AlgoSpec::Pos => 4,
            AlgoSpec::PosD { .. } => 5,
            AlgoSpec::Spring => 6,
            AlgoSpec::Rls => 7,
        });
        h.write_u64(self.algo.param());
        h.write_u64(match self.measure {
            MeasureSpec::Dtw => 1,
            MeasureSpec::Frechet => 2,
            MeasureSpec::T2Vec => 3,
        });
        h.write_u64(self.k as u64);
        h.write_u64(self.use_index as u64);
        h.write_u64(self.query.len() as u64);
        for p in &self.query {
            h.write_u64(p.x.to_bits());
            h.write_u64(p.y.to_bits());
            // Timestamps are deliberately excluded: no measure consults
            // them, so queries differing only in `t` are the same search.
        }
        h.finish()
    }

    /// Decodes a request from its wire form, e.g.
    /// `{"query": [[x, y], ...], "algo": "pss", "measure": "dtw", "k": 5, "index": true}`.
    ///
    /// `measure` defaults to `dtw`, `k` to 1, `index` to `true`;
    /// `query` and `algo` are mandatory. Points are `[x, y]` or
    /// `[x, y, t]`. Envelope fields (`"v"`, `"id"` — see
    /// [`crate::json::ProtocolVersion`]) are ignored here; the server
    /// peels them off before/after this call.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        Self::from_json_with(v, 1)
    }

    /// [`QueryRequest::from_json`] with `fallback_k` as the default for a
    /// missing `"k"` (the server passes its
    /// [`crate::config::Knob::DefaultK`]). `fallback_k` must be ≥ 1.
    pub fn from_json_with(v: &Json, fallback_k: usize) -> Result<Self, String> {
        let query_json = v.get("query").ok_or("missing \"query\"")?;
        let points = query_json.as_array().ok_or("\"query\" must be an array")?;
        if points.is_empty() {
            return Err("\"query\" must not be empty".into());
        }
        let mut query = Vec::with_capacity(points.len());
        for (i, point) in points.iter().enumerate() {
            let coords = point
                .as_array()
                .ok_or_else(|| format!("query point {i} must be an array"))?;
            let err = || format!("query point {i} must be [x, y] or [x, y, t] numbers");
            match coords {
                [x, y] => query.push(Point::new(
                    x.as_f64().ok_or_else(err)?,
                    y.as_f64().ok_or_else(err)?,
                    i as f64,
                )),
                [x, y, t] => query.push(Point::new(
                    x.as_f64().ok_or_else(err)?,
                    y.as_f64().ok_or_else(err)?,
                    t.as_f64().ok_or_else(err)?,
                )),
                _ => return Err(err()),
            }
        }

        let algo_name = v
            .get("algo")
            .and_then(Json::as_str)
            .ok_or("missing \"algo\"")?;
        let int_field = |key: &str, default: usize| -> Result<usize, String> {
            match v.get(key) {
                None => Ok(default),
                Some(field) => field
                    .as_usize()
                    .ok_or_else(|| format!("\"{key}\" must be a non-negative integer")),
            }
        };
        let algo = match algo_name {
            "exact" => AlgoSpec::Exact,
            "sizes" => AlgoSpec::SizeS {
                xi: int_field("xi", 5)?,
            },
            "pss" => AlgoSpec::Pss,
            "pos" => AlgoSpec::Pos,
            "posd" => AlgoSpec::PosD {
                delay: int_field("delay", 5)?,
            },
            "spring" => AlgoSpec::Spring,
            "rls" => AlgoSpec::Rls,
            other => return Err(format!("unknown algo {other:?}")),
        };

        let measure = match v.get("measure").map(|m| m.as_str().ok_or(m)) {
            None => MeasureSpec::Dtw,
            Some(Ok("dtw")) => MeasureSpec::Dtw,
            Some(Ok("frechet")) => MeasureSpec::Frechet,
            Some(Ok("t2vec")) => MeasureSpec::T2Vec,
            Some(Ok(other)) => return Err(format!("unknown measure {other:?}")),
            Some(Err(_)) => return Err("\"measure\" must be a string".into()),
        };

        let k = int_field("k", fallback_k.max(1))?;
        if k == 0 {
            return Err("\"k\" must be positive".into());
        }
        let use_index = match v.get("index") {
            None => true,
            Some(field) => field.as_bool().ok_or("\"index\" must be a boolean")?,
        };

        Ok(Self {
            query,
            algo,
            measure,
            k,
            use_index,
        })
    }
}

/// The engine's answer to one request.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// Ranked hits (best first), exactly what the offline
    /// `TrajectoryDb::top_k` returns for the same request.
    pub results: crate::sync::Arc<Vec<TopKResult>>,
    /// Whether the answer came out of the result cache.
    pub cached: bool,
    /// End-to-end latency inside the engine (submit → response).
    pub latency: std::time::Duration,
    /// Always 1 for an engine answer: a worker answers one request at a
    /// time. Kept so the wire body keeps its `"batch"` field.
    pub batch_size: usize,
    /// Engine epoch the request was *admitted* under: the snapshot that
    /// answered it, even if a hot swap landed while it was queued.
    pub epoch: u64,
    /// Per-stage timing breakdown, present only for requests submitted
    /// with `trace: true` (or slow-query outliers).
    /// Deliberately *not* part of [`QueryResponse::to_json`]: the server
    /// appends the `"trace"` object itself after rendering the body, so
    /// it can stamp `serialize_us` — and so the v1 body shape stays
    /// byte-identical.
    pub trace: Option<crate::trace::TraceReport>,
}

impl QueryResponse {
    /// Wire form (the protocol-v1 body, byte-compatible with pre-v2
    /// servers):
    /// `{"ok":true,"cached":false,"batch":1,"latency_us":N,"results":[{...}]}`.
    /// The v2 envelope fields (`"v"`, `"id"`, `"epoch"`) are appended by
    /// [`crate::json::ProtocolVersion::envelope`], never here, so v1
    /// clients keep seeing exactly this shape.
    pub fn to_json(&self) -> Json {
        let results = self
            .results
            .iter()
            .map(|hit| {
                obj(vec![
                    ("trajectory_id", Json::Num(hit.trajectory_id as f64)),
                    ("start", Json::Num(hit.result.range.start as f64)),
                    ("end", Json::Num(hit.result.range.end as f64)),
                    ("distance", Json::Num(hit.result.distance)),
                    ("similarity", Json::Num(hit.result.similarity)),
                ])
            })
            .collect();
        obj(vec![
            ("ok", Json::Bool(true)),
            ("cached", Json::Bool(self.cached)),
            ("batch", Json::Num(self.batch_size as f64)),
            ("latency_us", Json::Num(self.latency.as_micros() as f64)),
            ("results", Json::Arr(results)),
        ])
    }
}

/// Folds `extra` into `key` through the same FNV-1a stream the canonical
/// key uses. The engine mixes the engine epoch into every cache key this
/// way (see `EpochSnapshot::cache_key`), so entries die with the snapshot
/// that computed them.
pub(crate) fn mix_key(key: u64, extra: u64) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(key);
    h.write_u64(extra);
    h.finish()
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_request() -> QueryRequest {
        QueryRequest {
            query: vec![Point::xy(1.0, 2.0), Point::xy(3.0, 4.0)],
            algo: AlgoSpec::Pss,
            measure: MeasureSpec::Dtw,
            k: 5,
            use_index: true,
        }
    }

    #[test]
    fn canonical_key_is_stable_and_discriminating() {
        let a = base_request();
        assert_eq!(a.canonical_key(), base_request().canonical_key());

        let mut b = base_request();
        b.k = 6;
        assert_ne!(a.canonical_key(), b.canonical_key());

        let mut c = base_request();
        c.query[1] = Point::xy(3.0, 4.000001);
        assert_ne!(a.canonical_key(), c.canonical_key());

        let mut d = base_request();
        d.algo = AlgoSpec::Pos;
        assert_ne!(a.canonical_key(), d.canonical_key());

        let mut e = base_request();
        e.use_index = false;
        assert_ne!(a.canonical_key(), e.canonical_key());

        // Algorithm parameters are part of the key.
        let s5 = QueryRequest {
            algo: AlgoSpec::SizeS { xi: 5 },
            ..base_request()
        };
        let s6 = QueryRequest {
            algo: AlgoSpec::SizeS { xi: 6 },
            ..base_request()
        };
        assert_ne!(s5.canonical_key(), s6.canonical_key());
    }

    #[test]
    fn one_ulp_apart_is_another_search() {
        let a = base_request();
        let mut b = base_request();
        b.query[0].y = f64::from_bits(b.query[0].y.to_bits() + 1);
        assert!(!a.canonically_equal(&b));
        assert_ne!(a.canonical_key(), b.canonical_key());
        assert!(a.canonically_equal(&base_request()));
    }

    #[test]
    fn timestamps_do_not_affect_the_key() {
        let a = base_request();
        let mut b = base_request();
        b.query[0].t = 99.0;
        assert_eq!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn wire_decoding_applies_defaults() {
        let v = Json::parse(r#"{"query": [[1, 2], [3, 4, 9]], "algo": "pss"}"#).unwrap();
        let req = QueryRequest::from_json(&v).unwrap();
        assert_eq!(req.algo, AlgoSpec::Pss);
        assert_eq!(req.measure, MeasureSpec::Dtw);
        assert_eq!(req.k, 1);
        assert!(req.use_index);
        assert_eq!(req.query[1].t, 9.0);
        // Default timestamp is the point index.
        assert_eq!(req.query[0].t, 0.0);
    }

    #[test]
    fn wire_decoding_rejects_malformed_requests() {
        for (text, needle) in [
            (r#"{"algo": "pss"}"#, "query"),
            (r#"{"query": [], "algo": "pss"}"#, "empty"),
            (r#"{"query": [[1]], "algo": "pss"}"#, "point 0"),
            (r#"{"query": [[1,2]], "algo": "nope"}"#, "algo"),
            (r#"{"query": [[1,2]], "algo": "pss", "k": 0}"#, "positive"),
            (r#"{"query": [[1,2]], "algo": "pss", "k": 1.5}"#, "integer"),
            (
                r#"{"query": [[1,2]], "algo": "pss", "measure": "cosine"}"#,
                "measure",
            ),
            (
                r#"{"query": [[1,2]], "algo": "pss", "index": "yes"}"#,
                "boolean",
            ),
        ] {
            let v = Json::parse(text).unwrap();
            let err = QueryRequest::from_json(&v).unwrap_err();
            assert!(err.contains(needle), "error {err:?} for {text}");
        }
    }
}
