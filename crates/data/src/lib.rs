#![warn(missing_docs)]

//! Seeded synthetic trajectory generators mirroring the three datasets of
//! the SimSub paper's evaluation (Section 6.1), plus query-workload
//! construction.
//!
//! # Substitution note
//!
//! The paper evaluates on proprietary/real datasets we cannot ship:
//!
//! | paper dataset | size | sampling | mean length | our spec |
//! |---------------|------|----------|-------------|----------|
//! | Porto taxi    | 1.7M | 15 s uniform | ~60  | [`DatasetSpec::porto`]  |
//! | Harbin taxi   | 1.2M | non-uniform  | ~120 | [`DatasetSpec::harbin`] |
//! | Sports (STATS soccer) | 0.2M | 10 Hz | ~170 | [`DatasetSpec::sports`] |
//!
//! The generators reproduce the *statistics the algorithms are sensitive
//! to*: mean trajectory length (drives ExactS's quadratic blow-up and the
//! Table 6 / Fig 10 regime differences), sampling interval and jitter
//! (drives t2vec's robustness property), spatial extent and urban-style
//! heading persistence (drives index selectivity and split behaviour).
//! Everything is deterministic given the seed.

mod bin_io;
mod generator;
mod io;
mod workload;

pub use bin_io::{
    read_bin, read_bin_file, write_bin, write_bin_file, BinCorpusError, BIN_CORPUS_MAGIC,
};
pub use generator::{generate, DatasetSpec, MotionModel};
pub use io::{read_csv, read_csv_file, write_csv, write_csv_file, CsvError};
pub use workload::{
    extract_query, length_groups, length_groups_cross, sample_pairs, QueryPair, LENGTH_GROUP_BOUNDS,
};
