//! Shared helpers for the integration harnesses: the bitwise top-k
//! assertion, the scalar bodies ([`scalar`]) and the independent
//! full-matrix ExactS oracle ([`oracle`]) of the equivalence suites.
#![allow(dead_code)] // each harness uses its own subset

pub mod oracle;
pub mod scalar;

use simsub::core::TopKResult;

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
