//! Every metric the harness emits, with its unit and direction. This table
//! and `BENCHMARK.json` must agree; `schema::verify` fails the run when
//! they do not.

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn d(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

const LO: &str = "lower";
const HI: &str = "higher";

pub const END_TO_END: &[Def] = &[
    d("setup_s", "s", LO),
    d("throughput_qps", "1/s", HI),
    d("lat_p50_ms", "ms", LO),
    d("peak_rss_mb", "MB", LO),
    d("quality_ar", "ratio", LO),
];

pub const PER_LAYER: &[Def] = &[
    d("trajectory.arena_build_ms", "ms", LO),
    d("trajectory.arena_bytes_per_point", "B", LO),
    d("data.generate_ms", "ms", LO),
    d("data.bin_write_ms", "ms", LO),
    d("data.bin_read_ms", "ms", LO),
    d("data.csv_read_ms", "ms", LO),
    d("data.bin_bytes_per_point", "B", LO),
    d("index.build_ms", "ms", LO),
    d("index.candidates_us", "us", LO),
    d("index.candidate_ratio", "ratio", LO),
    d("index.rtree_height", "count", LO),
    d("core.scan_exact_us", "us", LO),
    d("core.scan_unpruned_us", "us", LO),
    d("core.prune_ratio", "ratio", HI),
    d("core.pruned_by_kim_ratio", "ratio", HI),
    d("core.pruned_by_mbr_ratio", "ratio", HI),
    d("core.searched_per_query", "count", LO),
    d("core.cells_per_query", "count", LO),
    d("core.bound_ns_per_candidate", "ns", LO),
    d("core.exact_ns_per_cell", "ns", LO),
    d("core.topk_push_ns", "ns", LO),
    d("core.scan_pss_us", "us", LO),
    d("core.pss_ns_per_cell", "ns", LO),
    d("core.scan_rls_us", "us", LO),
    d("core.rls_ns_per_point", "ns", LO),
    d("core.quality_mr", "count", LO),
    d("core.quality_rr", "ratio", LO),
    d("measures.exact_best_ns_per_cell", "ns", LO),
    d("measures.dtw_run_ns_per_cell", "ns", LO),
    d("measures.frechet_run_ns_per_cell", "ns", LO),
    d("measures.dtw_point_ns_per_cell", "ns", LO),
    d("measures.t2vec_extend_ns_per_point", "ns", LO),
    d("measures.t2vec_encode_us", "us", LO),
    d("measures.t2vec_train_ms_per_step", "ms", LO),
    d("nn.mlp_forward_ns", "ns", LO),
    d("nn.gru_step_ns", "ns", LO),
    d("rl.train_ms_per_episode", "ms", LO),
    d("rl.transitions", "count", LO),
    d("service.json_parse_us", "us", LO),
    d("service.request_decode_us", "us", LO),
    d("service.canonical_key_ns", "ns", LO),
    d("service.cache_get_ns", "ns", LO),
    d("service.response_encode_us", "us", LO),
    d("service.engine_hit_us", "us", LO),
    d("service.wire_ping_us", "us", LO),
    d("service.wire_hit_us", "us", LO),
    d("service.cache_hit_rate", "ratio", HI),
    d("service.cache_insert_ns", "ns", LO),
    d("service.cache_purge_us", "us", LO),
    d("service.swap_ms", "ms", LO),
    d("service.reload_ms", "ms", LO),
    d("service.reload_share", "ratio", LO),
    d("service.cache_evicted_per_reload", "count", LO),
    d("service.engine_miss_overhead_us", "us", LO),
    d("service.mean_batch", "count", HI),
    d("service.trace_admit_us", "us", LO),
    d("service.trace_queue_us", "us", LO),
    d("service.trace_batch_us", "us", LO),
    d("service.trace_scan_us", "us", LO),
    d("service.trace_bound_us", "us", LO),
    d("service.trace_kernel_us", "us", LO),
    d("service.trace_merge_us", "us", LO),
    d("service.trace_serialize_us", "us", LO),
    d("service.unaccounted_us", "us", LO),
    d("service.shed", "count", LO),
    d("service.expired", "count", LO),
    d("harness.calib_ms", "ms", LO),
    d("harness.speed_spread_pct", "%", LO),
    d("harness.unstable_rounds", "count", LO),
    d("harness.round_spread_pct", "%", LO),
    d("harness.gen_late_p90_ms", "ms", LO),
    d("harness.trace_overhead_pct", "%", LO),
    d("harness.lat_p90_ms", "ms", LO),
    d("harness.raw_throughput_qps", "1/s", HI),
    d("harness.raw_lat_p50_ms", "ms", LO),
    d("harness.raw_lat_p90_ms", "ms", LO),
    d("harness.cpu_ms_per_query", "ms", LO),
    d("harness.allocs_per_query", "count", LO),
    d("harness.alloc_bytes_per_query", "B", LO),
    d("harness.samples", "count", HI),
];

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A metric value under its declared name and unit.
///
/// # Panics
/// Panics on a name the tables above do not declare — a harness bug.
pub fn metric(name: &str, value: f64) -> Metric {
    let def = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|def| def.name == name)
        .unwrap_or_else(|| panic!("metric {name:?} is not declared in metrics.rs"));
    Metric {
        name: def.name,
        value,
        unit: def.unit,
    }
}
