//! Harness-side spans for the `--traced` run: recorded around send, wait,
//! receive and every direct layer call, kept in memory, written to
//! `benchmark/out/<workload>.trace.json` when the run ends. Spans inside
//! the program are a later issue; these see each layer from outside.

use simsub_service::json::{obj, Json};
use std::path::Path;
use std::time::Instant;

/// Spans kept per run; later ones are counted in `"dropped"`, so the
/// file stays a few MiB even on the 10k requests/s workload.
const MAX_SPANS: usize = 40_000;

struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    request: Option<u64>,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Records one span and returns its index (the `parent` of its children).
    pub fn add(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> Option<usize> {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            start_us: us(start),
            end_us: us(end),
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Times `f` under a root span.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(name, start, Instant::now(), None, None);
        out
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                obj(vec![
                    ("id", Json::Num(i as f64)),
                    ("name", Json::Str(s.name.into())),
                    ("start_us", Json::Num(s.start_us)),
                    ("end_us", Json::Num(s.end_us)),
                    ("parent", opt(s.parent.map(|p| p as f64))),
                    ("request", opt(s.request.map(|r| r as f64))),
                ])
            })
            .collect();
        let doc = obj(vec![
            ("dropped", Json::Num(self.dropped as f64)),
            ("spans", Json::Arr(spans)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.dump())
    }
}
