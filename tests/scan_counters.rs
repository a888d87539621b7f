//! Scan-counter gate: the work each scan shape does, pinned to a committed
//! baseline (`tests/scan_counters.baseline`).
//!
//! Every shape runs a few seeded queries through
//! `TrajectoryDb::top_k_with_stats` over one seeded corpus and records,
//! summed over its queries, every [`PruneStats`] count except the two
//! `_ns` timings, the number of candidates the index hands the scan, and
//! an FNV-1a fold of the hits' `(id, start, end, similarity bits)`. The
//! gate reads no clock and fails on any move, naming the shape and the
//! count that moved. The counts are the same for every thread count, so
//! the gate also holds when the process is pinned to one core.
//!
//! A change that is meant to move a count (a new visit order, a tighter
//! bound) re-records the baseline: the failure message prints the whole
//! file as the tree computes it now.

use simsub::core::{ExactS, MdpConfig, Pos, PosD, PruneStats, Pss, Rls, SizeS, SubtrajSearch};
use simsub::data::{generate, DatasetSpec};
use simsub::index::TrajectoryDb;
use simsub::measures::{CoordNormalizer, Dtw, Frechet, Measure, T2Vec};
use simsub::rl::{DqnAgent, DqnConfig};
use simsub::trajectory::{Mbr, Point};

const BASELINE: &str = include_str!("scan_counters.baseline");

const K: usize = 3;
const CORPUS: usize = 60;
const QUERY_LEN: usize = 20;

/// FNV-1a over 64-bit words, byte by byte.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One shape's line of the baseline: `name key=value ...`.
fn record(
    name: &str,
    db: &TrajectoryDb,
    queries: &[Vec<Point>],
    algo: &dyn SubtrajSearch,
    measure: &dyn Measure,
    use_index: bool,
) -> String {
    let mut total = PruneStats::default();
    let mut candidates = 0usize;
    let mut hits = Fnv::new();
    for query in queries {
        let (found, stats) = db.top_k_with_stats(algo, measure, query, K, use_index, true);
        total.merge(&stats);
        candidates += if use_index {
            db.candidate_ids(&Mbr::of_points(query)).len()
        } else {
            db.len()
        };
        for hit in &found {
            hits.word(hit.trajectory_id);
            hits.word(hit.result.range.start as u64);
            hits.word(hit.result.range.end as u64);
            hits.word(hit.result.similarity.to_bits());
        }
    }
    // Spelled out field by field: a count added to `PruneStats` fails to
    // compile here until the gate pins it.
    let PruneStats {
        scanned,
        pruned_by_kim,
        pruned_by_mbr,
        pruned_by_points,
        searched,
        abandoned,
        searched_cells,
        bound_ns: _,
        kernel_ns: _,
    } = total;
    format!(
        "{name} scanned={scanned} pruned_by_kim={pruned_by_kim} \
         pruned_by_mbr={pruned_by_mbr} pruned_by_points={pruned_by_points} \
         searched={searched} abandoned={abandoned} searched_cells={searched_cells} \
         candidates={candidates} hits={:#018x}",
        hits.0
    )
}

/// Every shape's line, in baseline order.
fn current() -> Vec<String> {
    let corpus = generate(&DatasetSpec::porto(), CORPUS, 17);
    // Two queries from outside the corpus and two cut from inside it, so
    // the k-th similarity climbs high enough for the kernel to abandon.
    let outside = generate(&DatasetSpec::porto(), 2, 18);
    let queries: Vec<Vec<Point>> = [&outside[0], &outside[1], &corpus[3], &corpus[11]]
        .iter()
        .map(|t| t.points()[5..5 + QUERY_LEN].to_vec())
        .collect();
    let t2vec = T2Vec::random(19, 16, CoordNormalizer::from_corpus(&corpus));
    let db = TrajectoryDb::build(corpus);
    let mdp = MdpConfig {
        skip_actions: 0,
        use_suffix: false,
    };
    let mut dqn = DqnConfig::paper(mdp.state_dim(), mdp.n_actions());
    dqn.seed = 20;
    let rls = Rls::new(DqnAgent::new(dqn).policy(), mdp);

    let mut lines = vec![
        record("exacts_dtw_index", &db, &queries, &ExactS, &Dtw, true),
        record("exacts_dtw_noindex", &db, &queries, &ExactS, &Dtw, false),
        record("pss_dtw_index", &db, &queries, &Pss, &Dtw, true),
        record("rls_t2vec_nosuffix", &db, &queries, &rls, &t2vec, false),
    ];
    let algos: [(&str, &dyn SubtrajSearch); 4] = [
        ("sizes", &SizeS::default()),
        ("pos", &Pos),
        ("posd", &PosD::default()),
        ("pss", &Pss),
    ];
    for (measure_name, measure) in [("dtw", &Dtw as &dyn Measure), ("frechet", &Frechet)] {
        for (algo_name, algo) in algos {
            let name = format!("{algo_name}_{measure_name}");
            lines.push(record(&name, &db, &queries, algo, measure, false));
        }
    }
    lines
}

/// `key=value` pairs of a line after its shape name.
fn counts(line: &str) -> Vec<(&str, &str)> {
    line.split_whitespace()
        .skip(1)
        .filter_map(|kv| kv.split_once('='))
        .collect()
}

#[test]
fn scan_counters_match_the_baseline() {
    let now = current();
    let baseline: Vec<&str> = BASELINE
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .collect();
    let mut moved = Vec::new();
    for line in &now {
        let name = line.split_whitespace().next().expect("shape name");
        let Some(pinned) = baseline
            .iter()
            .find(|l| l.split_whitespace().next() == Some(name))
        else {
            moved.push(format!("{name}: no baseline line"));
            continue;
        };
        let pinned = counts(pinned);
        for (key, value) in counts(line) {
            match pinned.iter().find(|(k, _)| *k == key) {
                Some((_, was)) if *was == value => {}
                Some((_, was)) => moved.push(format!("{name}: {key} moved from {was} to {value}")),
                None => moved.push(format!("{name}: {key} is not in the baseline")),
            }
        }
        for (key, _) in &pinned {
            if !counts(line).iter().any(|(k, _)| k == key) {
                moved.push(format!(
                    "{name}: baseline count {key} is no longer recorded"
                ));
            }
        }
    }
    for pinned in &baseline {
        let name = pinned.split_whitespace().next().unwrap_or_default();
        if !now
            .iter()
            .any(|l| l.split_whitespace().next() == Some(name))
        {
            moved.push(format!("{name}: baseline shape is no longer run"));
        }
    }
    assert!(
        moved.is_empty(),
        "scan counters moved:\n  {}\n\nthe tree now records:\n{}\n",
        moved.join("\n  "),
        now.join("\n")
    );
}
