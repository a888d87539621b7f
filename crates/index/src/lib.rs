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
//! [`ShardedDb`] is the corpus type the serving layer holds: N shards
//! (hash or grid assignment, one R-tree each; a single database is the
//! 1-shard case) answering `candidate_ids` and one batched `top_k` entry
//! by per-shard fan-out plus a merge that reuses the single ranking
//! function, so results are byte-identical to [`TrajectoryDb::top_k`].

mod db;
mod grid;
mod rtree;
mod shard;

pub use db::TrajectoryDb;
pub use grid::{build_grid_index, GridIndex};
pub use rtree::RTree;
pub use shard::{PartitionerKind, ShardedDb};
