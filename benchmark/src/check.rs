//! Output checks: every answer is validated structurally as it arrives,
//! and a fixed sample is compared against the direct, unpruned library
//! call on the epoch that answered it.

use crate::workloads::K;
use simsub_core::{SubtrajSearch, TopKResult};
use simsub_index::TrajectoryDb;
use simsub_measures::Measure;
use simsub_service::json::Json;
use simsub_trajectory::Point;

#[derive(Clone, Debug, PartialEq)]
pub struct Hit {
    pub id: u64,
    pub start: usize,
    pub end: usize,
    pub similarity: f64,
}

impl From<&TopKResult> for Hit {
    fn from(r: &TopKResult) -> Self {
        Hit {
            id: r.trajectory_id,
            start: r.result.range.start,
            end: r.result.range.end,
            similarity: r.result.similarity,
        }
    }
}

/// One answer kept for the post-run exact comparison.
pub struct Sample {
    pub query: usize,
    pub epoch: u64,
    pub hits: Vec<Hit>,
}

/// Decodes the `"results"` array of an `ok` wire response.
pub fn parse_hits(response: &Json) -> Result<Vec<Hit>, String> {
    let results = response
        .get("results")
        .and_then(Json::as_array)
        .ok_or("response has no \"results\" array")?;
    results
        .iter()
        .map(|r| {
            let int = |key: &str| {
                r.get(key)
                    .and_then(Json::as_usize)
                    .ok_or_else(|| format!("hit field {key:?} missing or not an integer"))
            };
            Ok(Hit {
                id: int("trajectory_id")? as u64,
                start: int("start")?,
                end: int("end")?,
                similarity: r
                    .get("similarity")
                    .and_then(Json::as_f64)
                    .ok_or("hit has no numeric \"similarity\"")?,
            })
        })
        .collect()
}

/// At most `K` hits, sorted by descending similarity, every range inside
/// its trajectory.
pub fn structural(db: &TrajectoryDb, hits: &[Hit]) -> Result<(), String> {
    if hits.len() > K {
        return Err(format!("{} hits for k = {K}", hits.len()));
    }
    if hits.windows(2).any(|w| w[0].similarity < w[1].similarity) {
        return Err("hits are not sorted by similarity".into());
    }
    for hit in hits {
        let view = db
            .get(hit.id)
            .ok_or_else(|| format!("unknown trajectory id {}", hit.id))?;
        if hit.start > hit.end || hit.end >= view.len() {
            return Err(format!(
                "range [{}, {}] outside trajectory {} of {} points",
                hit.start,
                hit.end,
                hit.id,
                view.len()
            ));
        }
    }
    Ok(())
}

/// Ids and ranges exactly, similarity to 1e-12, against the reference
/// scan (`prune = false`).
pub fn exact(
    db: &TrajectoryDb,
    algo: &dyn SubtrajSearch,
    measure: &dyn Measure,
    query: &[Point],
    hits: &[Hit],
) -> Result<(), String> {
    let (reference, _) = db.top_k_with_stats(algo, measure, query, K, true, false);
    if reference.len() != hits.len() {
        return Err(format!(
            "{} hits, reference scan has {}",
            hits.len(),
            reference.len()
        ));
    }
    for (rank, (got, want)) in hits.iter().zip(reference.iter().map(Hit::from)).enumerate() {
        let same = got.id == want.id
            && got.start == want.start
            && got.end == want.end
            && (got.similarity - want.similarity).abs() <= 1e-12;
        if !same {
            return Err(format!("rank {rank}: got {got:?}, reference {want:?}"));
        }
    }
    Ok(())
}
