#![warn(missing_docs)]

//! Bounding-box R-tree index over trajectory MBRs and an indexed
//! trajectory database, as used in Section 6.2(4) of the SimSub paper:
//! "It indexes the MBRs of data trajectories and prunes all those data
//! trajectories whose MBRs do not interact with the MBR of a given query
//! trajectory."
//!
//! The pruning is *lossy by design* — the most similar subtrajectory may
//! live in a trajectory whose MBR misses the query's MBR — and the paper
//! quantifies the effect (no misses for DTW/Frechet on Porto, ≤ 20% for
//! t2vec, ~20-30% time saved). [`TrajectoryDb::top_k`] exposes both the
//! indexed and the full-scan paths so the harness can reproduce Figure 4.
//!
//! [`TrajectoryDb`] is also the corpus type the serving layer holds: one
//! R-tree over the whole corpus, and one query entry with an explicit
//! thread budget, [`TrajectoryDb::top_k_with_threads`], whose answers are
//! byte-identical to [`TrajectoryDb::top_k`] at every thread count.

mod db;
mod rtree;

pub use db::TrajectoryDb;
pub use rtree::RTree;
