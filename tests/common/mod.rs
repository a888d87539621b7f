//! Shared helpers for the integration harnesses: the bitwise top-k
//! assertion, the scalar bodies ([`scalar`]) and the independent
//! full-matrix ExactS oracle ([`oracle`]) of the equivalence suites, and
//! the `SIMSUB_SHARDS` snapshot constructor of the serving suites.
#![allow(dead_code)] // each harness uses its own subset

pub mod oracle;
pub mod scalar;

use simsub::core::TopKResult;
use simsub::index::{PartitionerKind, TrajectoryDb};
use simsub::service::CorpusSnapshot;

/// Snapshot over `db`'s corpus, hash-sharded N ways when
/// `SIMSUB_SHARDS=N` (N ≥ 1) is set — the CI matrix runs the serving
/// suites both ways, and their expectations compare against the
/// *unsharded* `db.top_k`, so a sharded engine is held to byte-identical
/// answers.
pub fn snapshot_for(db: &TrajectoryDb) -> CorpusSnapshot {
    let shards = std::env::var("SIMSUB_SHARDS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok());
    CorpusSnapshot::assemble_arena(
        db.arena().clone(),
        shards.map(|n| (n, PartitionerKind::Hash)),
        None,
        None,
    )
    .expect("no model files to load")
}

/// Byte-level top-k equality: same hit count, and per rank the same
/// trajectory id, split range, and exact score bit patterns. On a
/// mismatch, panics with the first diverging `(trajectory, split, score)`
/// triple on both sides, bits included, so a one-ULP drift is readable
/// straight from the failure message.
pub fn assert_bitwise_topk(got: &[TopKResult], want: &[TopKResult], context: &str) {
    assert_eq!(
        got.len(),
        want.len(),
        "hit count differs ({} vs {}): {context}",
        got.len(),
        want.len()
    );
    for (rank, (g, w)) in got.iter().zip(want).enumerate() {
        let diverges = g.trajectory_id != w.trajectory_id
            || g.result.range != w.result.range
            || g.result.similarity.to_bits() != w.result.similarity.to_bits()
            || g.result.distance.to_bits() != w.result.distance.to_bits();
        if diverges {
            panic!(
                "top-k diverges at rank {rank} ({context}):\n  \
                 got  trajectory {} split {} score {:.17e} [{:#018x}]\n  \
                 want trajectory {} split {} score {:.17e} [{:#018x}]",
                g.trajectory_id,
                g.result.range,
                g.result.similarity,
                g.result.similarity.to_bits(),
                w.trajectory_id,
                w.result.range,
                w.result.similarity,
                w.result.similarity.to_bits(),
            );
        }
    }
}
