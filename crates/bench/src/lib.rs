//! Shared harness utilities for the experiment binary: dataset/model
//! preparation with caching, timing helpers, and aligned table printing.
//!
//! The experiment protocols themselves live in `src/bin/experiments.rs`;
//! one subcommand per table/figure of the paper (its usage text is the
//! per-experiment index).

pub mod experiments;
pub mod ext_measures;

use simsub_core::{train_rls, MdpConfig, Rls, RlsTrainConfig};
use simsub_data::{generate, DatasetSpec};
use simsub_measures::{Dtw, Frechet, Measure, T2Vec, T2VecConfig};
use simsub_trajectory::Trajectory;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Experiment scale knobs. `quick` finishes the full suite in minutes on a
/// laptop; `full` approaches the paper's workload sizes.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Trajectories per generated dataset corpus.
    pub corpus_size: usize,
    /// Evaluation (data, query) pairs per effectiveness experiment.
    pub pairs: usize,
    /// Maximum query length for random-pair workloads.
    pub max_query_len: usize,
    /// DQN training episodes per policy.
    pub train_episodes: usize,
    /// t2vec contrastive training steps.
    pub t2vec_steps: usize,
    /// Database sizes (in trajectories) for the efficiency sweeps.
    pub db_sizes: &'static [usize],
    /// Query trajectories per efficiency run.
    pub efficiency_queries: usize,
    /// `k` of the top-k efficiency query (the paper uses 50).
    pub top_k: usize,
}

impl Scale {
    /// Minutes-scale defaults.
    pub fn quick() -> Self {
        Self {
            corpus_size: 200,
            pairs: 120,
            max_query_len: 25,
            train_episodes: 600,
            t2vec_steps: 250,
            db_sizes: &[50, 100, 200, 400],
            efficiency_queries: 5,
            top_k: 50,
        }
    }

    /// Paper-approaching defaults (hours-scale).
    pub fn full() -> Self {
        Self {
            corpus_size: 2_000,
            pairs: 2_000,
            max_query_len: 40,
            train_episodes: 2_000,
            t2vec_steps: 1_500,
            db_sizes: &[500, 1_000, 2_000, 4_000, 8_000],
            efficiency_queries: 10,
            top_k: 50,
        }
    }

    /// Parses `"quick"` / `"full"`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "quick" => Some(Self::quick()),
            "full" => Some(Self::full()),
            _ => None,
        }
    }
}

/// The measures under evaluation, in the paper's presentation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Meas {
    T2Vec,
    Dtw,
    Frechet,
}

impl Meas {
    pub const ALL: [Meas; 3] = [Meas::T2Vec, Meas::Dtw, Meas::Frechet];

    pub fn label(self) -> &'static str {
        match self {
            Meas::T2Vec => "t2vec",
            Meas::Dtw => "DTW",
            Meas::Frechet => "Frechet",
        }
    }
}

/// A prepared dataset: generated corpus plus a trained t2vec encoder.
pub struct Bundle {
    pub spec: DatasetSpec,
    pub corpus: Vec<Trajectory>,
    pub t2vec: T2Vec,
}

impl Bundle {
    /// The measure object for a [`Meas`] tag (t2vec borrows the bundle's
    /// trained encoder).
    pub fn measure(&self, m: Meas) -> &dyn Measure {
        match m {
            Meas::T2Vec => &self.t2vec,
            Meas::Dtw => &Dtw,
            Meas::Frechet => &Frechet,
        }
    }
}

/// Lazily prepares datasets and trains policies once per process, so the
/// `all` subcommand does not retrain for every experiment.
pub struct Context {
    pub scale: Scale,
    bundles: HashMap<&'static str, Bundle>,
    policies: HashMap<(String, &'static str, MdpKey), Rls>,
    pub train_seconds: HashMap<(String, &'static str, MdpKey), f64>,
}

/// Hashable stand-in for [`MdpConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MdpKey {
    pub skip: usize,
    pub suffix: bool,
}

impl From<MdpConfig> for MdpKey {
    fn from(c: MdpConfig) -> Self {
        Self {
            skip: c.skip_actions,
            suffix: c.use_suffix,
        }
    }
}

impl Context {
    pub fn new(scale: Scale) -> Self {
        Self {
            scale,
            bundles: HashMap::new(),
            policies: HashMap::new(),
            train_seconds: HashMap::new(),
        }
    }

    /// Dataset specs by name.
    pub fn spec(name: &str) -> DatasetSpec {
        match name {
            "Porto" => DatasetSpec::porto(),
            "Harbin" => DatasetSpec::harbin(),
            "Sports" => DatasetSpec::sports(),
            other => panic!("unknown dataset {other}"),
        }
    }

    /// Generates (once) the corpus and trains (once) the t2vec model for a
    /// dataset.
    pub fn bundle(&mut self, name: &'static str) -> &Bundle {
        let scale = self.scale;
        self.bundles.entry(name).or_insert_with(|| {
            let spec = Self::spec(name);
            eprintln!(
                "[prep] generating {name} corpus ({} trajectories)",
                scale.corpus_size
            );
            let corpus = generate(&spec, scale.corpus_size, 0xD5EA5E ^ name.len() as u64);
            eprintln!(
                "[prep] training t2vec for {name} ({} steps)",
                scale.t2vec_steps
            );
            let cfg = T2VecConfig {
                steps: scale.t2vec_steps,
                ..Default::default()
            };
            let (t2vec, sep) = T2Vec::train(&corpus, &cfg);
            eprintln!("[prep] t2vec({name}) separation diagnostic: {sep:.2}");
            Bundle {
                spec,
                corpus,
                t2vec,
            }
        })
    }

    /// Trains (once) and returns an RLS/RLS-Skip policy for
    /// (dataset, measure, mdp). Also records the wall-clock training time
    /// for Table 7.
    pub fn policy(&mut self, dataset: &'static str, meas: Meas, mdp: MdpConfig) -> Rls {
        let key = (meas.label().to_string(), dataset, MdpKey::from(mdp));
        if let Some(r) = self.policies.get(&key) {
            return r.clone();
        }
        let episodes = self.scale.train_episodes;
        let max_q = self.scale.max_query_len;
        self.bundle(dataset);
        let bundle = &self.bundles[dataset];
        let measure = bundle.measure(meas);
        // Queries: truncated trajectories, as in the evaluation workload.
        let queries: Vec<Trajectory> = bundle
            .corpus
            .iter()
            .map(|t| {
                let len = t.len().min(max_q);
                Trajectory::new_unchecked(t.id, t.points()[..len].to_vec())
            })
            .collect();
        eprintln!(
            "[prep] training {} on {dataset}/{} ({episodes} episodes)",
            mdp.algorithm_name(),
            meas.label()
        );
        let cfg = RlsTrainConfig::paper(mdp, episodes);
        let start = Instant::now();
        let report = train_rls(measure, &bundle.corpus, &queries, &cfg);
        let secs = start.elapsed().as_secs_f64();
        self.train_seconds.insert(key.clone(), secs);
        let rls = Rls::new(report.policy, mdp);
        self.policies.insert(key, rls.clone());
        rls
    }

    /// The paper's state convention: the suffix component is dropped for
    /// t2vec (§6.1 "when t2vec is adopted, we ignore the Θsuf component").
    pub fn mdp_for(meas: Meas, skip: usize) -> MdpConfig {
        MdpConfig {
            skip_actions: skip,
            use_suffix: meas != Meas::T2Vec,
        }
    }
}

/// Times a closure.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Minimal fixed-width table printer for experiment output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", c, width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a duration as milliseconds with 2 decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["algo", "AR", "time"]);
        t.row(vec!["PSS", "1.23", "5.0"]);
        t.row(vec!["RLS-Skip", "1.04", "3.2"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("algo"));
        assert!(lines[2].starts_with("PSS"));
        // Columns align: "AR" column starts at the same offset everywhere.
        let col = lines[0].find("AR").unwrap();
        assert_eq!(&lines[2][col..col + 4], "1.23");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn scale_parses() {
        assert!(Scale::parse("quick").is_some());
        assert!(Scale::parse("full").is_some());
        assert!(Scale::parse("bogus").is_none());
    }

    #[test]
    fn mdp_for_t2vec_drops_suffix() {
        assert!(!Context::mdp_for(Meas::T2Vec, 0).use_suffix);
        assert!(Context::mdp_for(Meas::Dtw, 3).use_suffix);
    }
}
