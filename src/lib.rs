//! # SimSub — similar subtrajectory search with deep reinforcement learning
//!
//! A from-scratch Rust reproduction of Wang, Long, Cong & Liu,
//! *Efficient and Effective Similar Subtrajectory Search with Deep
//! Reinforcement Learning* (VLDB 2020). Given a data trajectory `T` and a
//! query trajectory `Tq`, find the contiguous portion of `T` most similar
//! to `Tq` under an abstract similarity measure.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | contents |
//! |--------|----------|
//! | [`trajectory`] | points, trajectories, subtrajectory ranges, MBRs |
//! | [`measures`] | DTW, discrete Frechet, learned t2vec-style measure, incremental evaluators |
//! | [`nn`] | minimal MLP/GRU/Adam substrate with hand-derived backprop |
//! | [`rl`] | DQN with experience replay |
//! | [`core`] | ExactS, SizeS, PSS/POS/POS-D, RLS, RLS-Skip, Spring, UCR, Random-S, SimTra, metrics, top-k |
//! | [`index`] | R-tree over trajectory MBRs, indexed database |
//! | [`data`] | seeded synthetic Porto/Harbin/Sports-like generators |
//! | [`service`] | concurrent query engine: worker pool, LRU result cache, newline-JSON server (`simsub serve`) |
//!
//! ## Quickstart
//!
//! ```
//! use simsub::core::{ExactS, Pss, SubtrajSearch};
//! use simsub::measures::Dtw;
//! use simsub::trajectory::Point;
//!
//! // A data trajectory with an embedded match for the query.
//! let data: Vec<Point> = [(9.0, 9.0), (0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (7.0, -3.0)]
//!     .iter().map(|&(x, y)| Point::xy(x, y)).collect();
//! let query: Vec<Point> = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
//!     .iter().map(|&(x, y)| Point::xy(x, y)).collect();
//!
//! let exact = ExactS.search(&Dtw, &data, &query);
//! assert_eq!((exact.range.start, exact.range.end), (1, 3));
//! assert!(exact.distance < 1e-12);
//!
//! // The greedy splitting heuristic is approximate but never better
//! // than the exact optimum.
//! let approx = Pss.search(&Dtw, &data, &query);
//! assert!(approx.distance + 1e-9 >= exact.distance);
//! ```
//!
//! Training an RLS policy end-to-end (see `examples/train_rls.rs` for a
//! full walkthrough):
//!
//! ```
//! use simsub::core::{train_rls, MdpConfig, Rls, RlsTrainConfig, SubtrajSearch};
//! use simsub::data::{generate, DatasetSpec};
//! use simsub::measures::Dtw;
//!
//! let corpus = generate(&DatasetSpec::porto(), 16, 42);
//! let cfg = RlsTrainConfig::paper(MdpConfig::rls(), 10);
//! let report = train_rls(&Dtw, &corpus, &corpus, &cfg);
//! let rls = Rls::new(report.policy, MdpConfig::rls());
//! let res = rls.search(&Dtw, corpus[0].points(), &corpus[1].points()[..10]);
//! assert!(res.similarity > 0.0);
//! ```

pub use simsub_core as core;
pub use simsub_data as data;
pub use simsub_index as index;
pub use simsub_measures as measures;
pub use simsub_nn as nn;
pub use simsub_rl as rl;
pub use simsub_service as service;
pub use simsub_trajectory as trajectory;
