//! The direct writer behind every successful query line
//! (`server::query_line`), held byte for byte to the tree it replaced:
//! `QueryResponse::to_json`, the `"trace"` object appended to it,
//! `ProtocolVersion::envelope`, then `Json::dump`.
//!
//! Generated responses cover v1 and v2; string, number and absent ids;
//! cached and uncached answers; 0 to 12 hits; non-finite distances and
//! similarities (which JSON carries as `null`); integral, fractional,
//! huge and arbitrary-bit values; and traces that were asked for, not
//! asked for (a slow-query outlier's), or absent. The trace's reference
//! object is spelled out here, key by key, independently of the writer.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simsub::core::{PruneStats, SearchResult, TopKResult};
use simsub::service::json::Json;
use simsub::service::server::query_line;
use simsub::service::{ProtocolVersion, QueryResponse, TraceReport};
use simsub::trajectory::SubtrajRange;
use std::sync::Arc;
use std::time::Duration;

/// A distance or similarity: fractions, integers, the non-finite values
/// and arbitrary bit patterns (subnormals, `-0.0`, huge exponents).
fn gen_f64(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..7) {
        0 => rng.gen_range(0.0..1.0f64),
        1 => rng.gen_range(0..5_000u32) as f64,
        2 => f64::NAN,
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        5 => -0.0,
        _ => f64::from_bits(rng.gen::<u64>()),
    }
}

/// A count or id: small, around 2^53 (where `f64` stops being exact), or
/// anywhere in `u64`.
fn gen_u64(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..4) {
        0 => rng.gen_range(0..100u64),
        1 => rng.gen_range(0..1_000_000u64),
        2 => (1u64 << 53) + rng.gen_range(0..4u64),
        _ => rng.gen::<u64>(),
    }
}

fn gen_string(rng: &mut StdRng) -> String {
    const PIECES: [&str; 10] = [
        "a", "req-7", "\"", "\\", "\n", "\t", "\u{1}", "é", "😀", "/",
    ];
    (0..rng.gen_range(0..6usize))
        .map(|_| PIECES[rng.gen_range(0..PIECES.len())])
        .collect()
}

fn gen_id(rng: &mut StdRng) -> Option<Json> {
    match rng.gen_range(0..4) {
        0 => None,
        1 => Some(Json::Str(gen_string(rng))),
        2 => Some(Json::Num(rng.gen_range(0..100_000u32) as f64)),
        _ => Some(Json::Num(rng.gen_range(-1e9..1e9f64))),
    }
}

fn gen_trace(rng: &mut StdRng) -> TraceReport {
    let mut small = || rng.gen_range(0..2_000u64);
    TraceReport {
        parse_us: small(),
        admit_us: small(),
        queue_us: small(),
        batch_us: small(),
        scan_us: small(),
        bound_us: small(),
        kernel_us: small(),
        merge_us: small(),
        serialize_us: small(),
        prune: PruneStats {
            scanned: small(),
            pruned_by_kim: small(),
            pruned_by_mbr: small(),
            pruned_by_points: small(),
            searched: small(),
            abandoned: small(),
            searched_cells: small(),
            ..PruneStats::default()
        },
        cached: rng.gen(),
        batch_size: rng.gen_range(1..17usize),
    }
}

fn gen_response(rng: &mut StdRng) -> QueryResponse {
    let hits = (0..rng.gen_range(0..13usize))
        .map(|_| TopKResult {
            trajectory_id: gen_u64(rng),
            result: SearchResult {
                range: SubtrajRange {
                    start: gen_u64(rng) as usize,
                    end: gen_u64(rng) as usize,
                },
                similarity: gen_f64(rng),
                distance: gen_f64(rng),
            },
        })
        .collect();
    QueryResponse {
        results: Arc::new(hits),
        cached: rng.gen(),
        latency: Duration::from_nanos(gen_u64(rng) % (1 << 50)),
        batch_size: rng.gen_range(1..17usize),
        epoch: gen_u64(rng),
        trace: rng.gen_bool(0.6).then(|| gen_trace(rng)),
    }
}

/// The reference trace object, key by key in wire order.
fn trace_tree(t: &TraceReport) -> Json {
    let num = |v: u64| Json::Num(v as f64);
    let pairs = vec![
        ("admit_us", num(t.admit_us)),
        ("queue_us", num(t.queue_us)),
        ("batch_us", num(t.batch_us)),
        ("scan_us", num(t.scan_us)),
        ("bound_us", num(t.bound_us)),
        ("kernel_us", num(t.kernel_us)),
        ("merge_us", num(t.merge_us)),
        ("serialize_us", num(t.serialize_us)),
        ("scanned", num(t.prune.scanned)),
        ("pruned_by_kim", num(t.prune.pruned_by_kim)),
        ("pruned_by_mbr", num(t.prune.pruned_by_mbr)),
        ("pruned_by_points", num(t.prune.pruned_by_points)),
        ("searched", num(t.prune.searched)),
        ("abandoned", num(t.prune.abandoned)),
        ("searched_cells", num(t.prune.searched_cells)),
        ("cached", Json::Bool(t.cached)),
        ("batch_size", num(t.batch_size as u64)),
        ("parse_us", num(t.parse_us)),
    ];
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Writes one response both ways and compares the bytes. The writer
/// stamps `serialize_us` itself, so the reference takes the value the
/// writer put on the line.
fn check(
    response: QueryResponse,
    trace_requested: bool,
    version: ProtocolVersion,
    id: Option<&Json>,
) {
    let line = query_line(response.clone(), trace_requested, version, id);
    let echoed = response
        .trace
        .clone()
        .filter(|_| trace_requested)
        .map(|mut trace| {
            let written = Json::parse(&line).expect("the written line is JSON");
            trace.serialize_us = written
                .get("trace")
                .and_then(|t| t.get("serialize_us"))
                .and_then(Json::as_usize)
                .expect("a requested trace is written") as u64;
            trace
        });
    let mut body = response.to_json();
    if let (Some(trace), Json::Obj(pairs)) = (&echoed, &mut body) {
        pairs.push(("trace".to_string(), trace_tree(trace)));
    }
    let reference = version.envelope(body, id, response.epoch).dump();
    assert_eq!(line, reference, "writer and tree disagree");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn query_line_matches_the_tree_reference(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let response = gen_response(&mut rng);
        let version = if rng.gen() { ProtocolVersion::V2 } else { ProtocolVersion::V1 };
        let id = gen_id(&mut rng);
        check(response, rng.gen(), version, id.as_ref());
    }
}

/// One spelled-out line: v2, a string id that needs escaping, a traced
/// hit with a fractional distance and a non-finite similarity.
#[test]
fn traced_v2_line_reads_as_specified() {
    let response = QueryResponse {
        results: Arc::new(vec![TopKResult {
            trajectory_id: 3,
            result: SearchResult {
                range: SubtrajRange { start: 4, end: 9 },
                similarity: f64::INFINITY,
                distance: 0.5,
            },
        }]),
        cached: true,
        latency: Duration::from_micros(12),
        batch_size: 1,
        epoch: 2,
        trace: Some(TraceReport {
            parse_us: 3,
            cached: true,
            batch_size: 1,
            ..TraceReport::default()
        }),
    };
    let id = Json::Str("q\"1".into());
    check(response.clone(), true, ProtocolVersion::V2, Some(&id));
    let line = query_line(response, false, ProtocolVersion::V2, Some(&id));
    assert_eq!(
        line,
        "{\"ok\":true,\"cached\":true,\"batch\":1,\"latency_us\":12,\"results\":[\
         {\"trajectory_id\":3,\"start\":4,\"end\":9,\"distance\":0.5,\"similarity\":null}],\
         \"v\":2,\"id\":\"q\\\"1\",\"epoch\":2}"
    );
}
