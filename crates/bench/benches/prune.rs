//! Prune-first scan benchmark: pruned vs unpruned cold corpus scans,
//! single vs 4-shard layouts. Writes `BENCH_prune.json` at the repo root
//! so the bound cascade's win (and its counters) stay on the record.
//!
//! The corpus is a clustered synthetic city (random walks anchored on a
//! grid of origins) and every query is a subslice of one trajectory, so
//! queries are spatially tight: most of the corpus is provably far from
//! the query and the cascade (O(1) Kim screen → O(m) MBR envelope)
//! should retire well over half of all candidates before any
//! `Φini`/`Φinc` work — scans run with the R-tree disabled precisely to
//! measure the cascade alone. Pruned answers are asserted byte-identical
//! to the unpruned reference on every query.
//!
//! Run with `cargo bench -p simsub-bench --bench prune`; set
//! `SIMSUB_BENCH_SHORT=1` for the CI smoke variant.

use simsub_core::{PruneStats, Pss, TopKResult};
use simsub_index::{PartitionerKind, ShardedDb, TrajectoryDb};
use simsub_measures::Dtw;
use simsub_trajectory::{Point, Trajectory};
use std::time::Instant;

const K: usize = 5;

struct Config {
    corpus_size: usize,
    traj_len: usize,
    queries: usize,
    query_len: usize,
}

struct Scenario {
    name: &'static str,
    shards: usize,
    prune: bool,
}

struct Measurement {
    name: &'static str,
    shards: usize,
    prune: bool,
    wall_s: f64,
    qps: f64,
    stats: PruneStats,
    /// Scan wall time per DP cell actually searched (PSS runs a prefix
    /// and a suffix pass: `2 · traj_len · query_len` cells per searched
    /// candidate) — the stable per-kernel metric shared with
    /// BENCH_layout.json. Pruned scans divide by fewer cells, so the
    /// number stays comparable across prune ratios.
    searched_ns_per_cell: f64,
}

/// Deterministic LCG walk (no rand dependency needed here).
fn walk(seed: u64, len: usize, origin: (f64, f64)) -> Vec<Point> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    };
    let (mut x, mut y) = origin;
    (0..len)
        .map(|i| {
            x += next();
            y += next();
            Point::new(x, y, i as f64)
        })
        .collect()
}

fn main() {
    let short = std::env::var("SIMSUB_BENCH_SHORT").is_ok_and(|v| !v.is_empty() && v != "0");
    let cfg = if short {
        Config {
            corpus_size: 150,
            traj_len: 48,
            queries: 24,
            query_len: 16,
        }
    } else {
        Config {
            corpus_size: 600,
            traj_len: 96,
            queries: 96,
            query_len: 20,
        }
    };

    // Clustered corpus: origins on a 10x10 grid, 30 units apart.
    let corpus: Vec<Trajectory> = (0..cfg.corpus_size)
        .map(|i| {
            let origin = ((i % 10) as f64 * 30.0, ((i / 10) % 10) as f64 * 30.0);
            Trajectory::new_unchecked(i as u64, walk(i as u64 + 1, cfg.traj_len, origin))
        })
        .collect();
    let db = TrajectoryDb::build(corpus.clone());
    let sharded = ShardedDb::build(corpus.clone(), 4, PartitionerKind::Hash);
    let queries: Vec<Vec<Point>> = (0..cfg.queries)
        .map(|i| {
            let t = &corpus[(i * 7) % corpus.len()];
            let start = (i * 3) % (t.len() - cfg.query_len);
            t.points()[start..start + cfg.query_len].to_vec()
        })
        .collect();

    let scenarios = [
        Scenario {
            name: "fullscan_unpruned",
            shards: 0,
            prune: false,
        },
        Scenario {
            name: "fullscan_pruned",
            shards: 0,
            prune: true,
        },
        Scenario {
            name: "fullscan_sharded4_unpruned",
            shards: 4,
            prune: false,
        },
        Scenario {
            name: "fullscan_sharded4_pruned",
            shards: 4,
            prune: true,
        },
    ];

    // Reference answers: the unpruned single-database scan.
    let reference: Vec<Vec<TopKResult>> = queries
        .iter()
        .map(|q| db.top_k_with_stats(&Pss, &Dtw, q, K, false, false).0)
        .collect();

    let mut measurements = Vec::new();
    for scenario in &scenarios {
        let mut stats = PruneStats::default();
        let wall_start = Instant::now();
        for (qi, q) in queries.iter().enumerate() {
            let (hits, scan) = if scenario.shards == 0 {
                db.top_k_with_stats(&Pss, &Dtw, q, K, false, scenario.prune)
            } else {
                let (mut hits, scan) =
                    sharded.top_k(&Pss, &Dtw, &[q.as_slice()], K, false, scenario.prune, 1);
                (hits.remove(0), scan)
            };
            stats.merge(&scan);
            assert_eq!(
                hits, reference[qi],
                "{}: query {qi} diverged from the unpruned reference",
                scenario.name
            );
        }
        let wall_s = wall_start.elapsed().as_secs_f64();
        assert!(
            stats.is_consistent(),
            "{}: inconsistent stats",
            scenario.name
        );
        let searched_cells =
            stats.searched as f64 * 2.0 * cfg.traj_len as f64 * cfg.query_len as f64;
        let m = Measurement {
            name: scenario.name,
            shards: scenario.shards,
            prune: scenario.prune,
            wall_s,
            qps: queries.len() as f64 / wall_s,
            stats,
            searched_ns_per_cell: wall_s * 1e9 / searched_cells.max(1.0),
        };
        println!(
            "{:<28} shards={} prune={:<5} wall={:>7.3}s qps={:>8.1} scanned={:<6} \
             pruned_kim={:<6} pruned_mbr={:<5} searched={:<6} ratio={:.1}% ns/cell={:.3}",
            m.name,
            m.shards,
            m.prune,
            m.wall_s,
            m.qps,
            m.stats.scanned,
            m.stats.pruned_by_kim,
            m.stats.pruned_by_mbr,
            m.stats.searched,
            m.stats.prune_ratio() * 100.0,
            m.searched_ns_per_cell
        );
        measurements.push(m);
    }

    let speedup = measurements[0].wall_s / measurements[1].wall_s;
    let best_ratio = measurements
        .iter()
        .map(|m| m.stats.prune_ratio())
        .fold(0.0, f64::max);
    println!(
        "speedup fullscan pruned vs unpruned: {speedup:.2}x; best prune ratio {:.1}% \
         (acceptance: >1x and >=50%)",
        best_ratio * 100.0
    );

    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_prune.json");
    std::fs::write(
        out_path,
        render_json(&cfg, &measurements, speedup, best_ratio),
    )
    .expect("writing BENCH_prune.json");
    println!("wrote {out_path}");
}

fn render_json(
    cfg: &Config,
    measurements: &[Measurement],
    speedup: f64,
    best_ratio: f64,
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"bench\": \"prune_cascade\",\n  \"corpus_size\": {},\n  \"traj_len\": {},\n  \
         \"queries\": {},\n  \"query_len\": {},\n  \"algo\": \"pss\",\n  \"measure\": \"dtw\",\n  \
         \"k\": {K},\n  \"use_index\": false,\n  \"scenarios\": [\n",
        cfg.corpus_size, cfg.traj_len, cfg.queries, cfg.query_len
    ));
    for (i, m) in measurements.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"shards\": {}, \"prune\": {}, \"wall_s\": {:.4}, \
             \"qps\": {:.1}, \"scanned\": {}, \"pruned_by_kim\": {}, \"pruned_by_mbr\": {}, \
             \"searched\": {}, \"prune_ratio\": {:.3}, \"searched_ns_per_cell\": {:.4}}}{}\n",
            m.name,
            m.shards,
            m.prune,
            m.wall_s,
            m.qps,
            m.stats.scanned,
            m.stats.pruned_by_kim,
            m.stats.pruned_by_mbr,
            m.stats.searched,
            m.stats.prune_ratio(),
            m.searched_ns_per_cell,
            if i + 1 < measurements.len() { "," } else { "" }
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"speedup_fullscan_pruned_vs_unpruned\": {speedup:.2},\n  \
         \"best_prune_ratio\": {best_ratio:.3}\n}}\n"
    ));
    out
}
