//! The sampled online quality auditor: a background thread that re-runs
//! the exhaustive ExactS ranking on a configurable fraction of served
//! answers and folds the paper's §6.1 effectiveness metrics (AR/MR/RR)
//! into the serving stats as live gauges.
//!
//! Contract
//! --------
//! - Only **cold** (uncached) answers are sampled: a cache hit replays an
//!   answer already audited (or auditable) when it was computed, so
//!   re-auditing it would double-count without adding information.
//! - The audited unit is the served top-1 hit: the returned range on its
//!   data trajectory is compared against the exhaustive ranking of *that*
//!   trajectory under the request's measure — the paper's per-(T, Tq)
//!   semantics. `AR = 1.0` therefore means the engine returned the exact
//!   best subtrajectory; admissible algorithms (ExactS) must audit at
//!   1.0, splitting heuristics (PSS/POS/POS-D) at ≥ 1.0.
//! - The auditor reads from the epoch snapshot the request was **admitted
//!   under** (pinned in the sample), so a hot swap between answer and
//!   audit can neither skew the metrics nor crash the audit.
//! - Serving never blocks on auditing: samples travel over a bounded
//!   queue, overflow is dropped and counted (`audit_dropped`), and
//!   oversized trajectories are skipped the same way — the exhaustive
//!   ranking is `O(n²m)` and must not starve the auditor on a corpus
//!   with a few huge trajectories.

use crate::engine::EpochSnapshot;
use crate::query::MeasureSpec;
use crate::sync::Arc;
use simsub_core::{exhaustive_ranking, EffectivenessMetrics};
use simsub_trajectory::{Point, SubtrajRange};

/// Trajectories longer than this are not audited (the exhaustive ranking
/// enumerates all `O(n²)` subtrajectories); skips count as dropped.
const AUDIT_MAX_TRAJECTORY_POINTS: usize = 512;

/// One served answer queued for quality auditing.
pub(crate) struct AuditSample {
    /// The query as served.
    pub(crate) query: Vec<Point>,
    /// The measure the answer was computed under.
    pub(crate) measure: MeasureSpec,
    /// Data trajectory of the served top-1 hit.
    pub(crate) trajectory_id: u64,
    /// The subtrajectory range the engine returned for that hit.
    pub(crate) range: SubtrajRange,
    /// The epoch snapshot the request was admitted under; auditing reads
    /// data and models from here, never from the live handle.
    pub(crate) snapshot: Arc<EpochSnapshot>,
}

/// Runs the exhaustive re-check for one sample. `None` means the sample
/// could not be audited (trajectory gone after a reload race, model no
/// longer resolvable, or trajectory over the size cap) — callers count
/// it as dropped rather than folding anything in.
pub(crate) fn evaluate_sample(sample: &AuditSample) -> Option<EffectivenessMetrics> {
    let snapshot = sample.snapshot.snapshot();
    let measure = snapshot.measure(sample.measure).ok()?;
    let data = snapshot.corpus().get(sample.trajectory_id)?.to_points();
    if data.is_empty() || data.len() > AUDIT_MAX_TRAJECTORY_POINTS || sample.query.is_empty() {
        return None;
    }
    let ranking = exhaustive_ranking(measure, &data, &sample.query);
    Some(EffectivenessMetrics::evaluate(&ranking, sample.range))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CorpusSnapshot, EngineHandle};
    use simsub_core::{ExactS, SubtrajSearch};
    use simsub_index::TrajectoryDb;
    use simsub_measures::Dtw;
    use simsub_trajectory::Trajectory;

    fn walk(seed: u64, len: usize) -> Vec<Point> {
        let mut x = seed as f64 * 0.13;
        let mut y = -(seed as f64) * 0.07;
        (0..len)
            .map(|i| {
                x += ((seed.wrapping_mul(31).wrapping_add(i as u64) % 17) as f64 - 8.0) * 0.1;
                y += ((seed.wrapping_mul(7).wrapping_add(i as u64) % 13) as f64 - 6.0) * 0.1;
                Point::xy(x, y)
            })
            .collect()
    }

    fn pinned(trajectories: Vec<Trajectory>) -> Arc<EpochSnapshot> {
        let snapshot = CorpusSnapshot::new(TrajectoryDb::build(trajectories).into_shared());
        EngineHandle::new(snapshot).load()
    }

    #[test]
    fn exact_answers_audit_at_ar_one() {
        let data = walk(3, 24);
        let query = walk(9, 6);
        let snapshot = pinned(vec![Trajectory::new(0, data.clone()).unwrap()]);
        // Serve the answer the engine would: ExactS top-1 on trajectory 0.
        let served = ExactS.search(&Dtw, &data, &query);
        let sample = AuditSample {
            query,
            measure: MeasureSpec::Dtw,
            trajectory_id: 0,
            range: served.range,
            snapshot,
        };
        let metrics = evaluate_sample(&sample).expect("auditable");
        assert!(
            (metrics.ar - 1.0).abs() < 1e-9,
            "ExactS must audit at AR 1.0, got {}",
            metrics.ar
        );
        assert!((metrics.mr - 1.0).abs() < 1e-9);
        assert!(metrics.rr > 0.0 && metrics.rr <= 1.0);
    }

    #[test]
    fn suboptimal_answers_audit_above_one() {
        let data = walk(5, 20);
        let query = walk(11, 5);
        let snapshot = pinned(vec![Trajectory::new(0, data.clone()).unwrap()]);
        let best = ExactS.search(&Dtw, &data, &query);
        // A deliberately different range can only rank same-or-worse.
        let worse = if best.range.start == 0 && best.range.end == 0 {
            SubtrajRange::new(data.len() - 1, data.len() - 1)
        } else {
            SubtrajRange::new(0, 0)
        };
        let sample = AuditSample {
            query,
            measure: MeasureSpec::Dtw,
            trajectory_id: 0,
            range: worse,
            snapshot,
        };
        let metrics = evaluate_sample(&sample).expect("auditable");
        assert!(metrics.ar >= 1.0);
        assert!(metrics.mr >= 1.0);
    }

    #[test]
    fn unauditable_samples_are_none() {
        let snapshot = pinned(vec![Trajectory::new(0, walk(1, 8)).unwrap()]);
        // Unknown trajectory id: the corpus was reloaded under our feet.
        let gone = AuditSample {
            query: walk(2, 4),
            measure: MeasureSpec::Dtw,
            trajectory_id: 99,
            range: SubtrajRange::new(0, 0),
            snapshot: Arc::clone(&snapshot),
        };
        assert!(evaluate_sample(&gone).is_none());

        // Oversized trajectory: skipped to keep the auditor responsive.
        let huge = pinned(vec![Trajectory::new(
            0,
            walk(4, AUDIT_MAX_TRAJECTORY_POINTS + 1),
        )
        .unwrap()]);
        let oversized = AuditSample {
            query: walk(2, 4),
            measure: MeasureSpec::Dtw,
            trajectory_id: 0,
            range: SubtrajRange::new(0, 0),
            snapshot: huge,
        };
        assert!(evaluate_sample(&oversized).is_none());
    }
}
