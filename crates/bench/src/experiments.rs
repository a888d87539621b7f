//! One function per table/figure of the paper's evaluation (Section 6).
//! Each prints the regenerated rows/series; EXPERIMENTS.md records the
//! measured outputs next to the paper's numbers.

use crate::{ms, time_it, Bundle, Context, Meas, Table};
use simsub_core::{
    exhaustive_ranking, EffectivenessMetrics, ExactS, MdpConfig, MetricsAccumulator, Pos, PosD,
    Pss, RandomS, SimTra, SizeS, Spring, SubtrajSearch, Ucr,
};
use simsub_data::{generate, length_groups_cross, sample_pairs, QueryPair};
use simsub_index::TrajectoryDb;
use simsub_trajectory::{Point, Trajectory};
use std::time::Duration;

/// Mean effectiveness + total wall time of one algorithm over a workload.
pub struct AlgoEval {
    pub name: String,
    pub metrics: EffectivenessMetrics,
    pub total_time: Duration,
}

/// Runs each algorithm over the pairs, computing AR/MR/RR against the
/// exhaustive ranking (computed once per pair and shared).
pub fn evaluate_algorithms(
    bundle: &Bundle,
    meas: Meas,
    pairs: &[QueryPair],
    algos: &[&dyn SubtrajSearch],
) -> Vec<AlgoEval> {
    let measure = bundle.measure(meas);
    let mut accs: Vec<MetricsAccumulator> =
        algos.iter().map(|_| MetricsAccumulator::new()).collect();
    let mut times = vec![Duration::ZERO; algos.len()];
    for pair in pairs {
        let data = bundle.corpus[pair.data_idx].points();
        let query = pair.query.points();
        let ranking = exhaustive_ranking(measure, data, query);
        for (ai, algo) in algos.iter().enumerate() {
            let (res, t) = time_it(|| algo.search(measure, data, query));
            times[ai] += t;
            accs[ai].add(EffectivenessMetrics::evaluate(&ranking, res.range));
        }
    }
    algos
        .iter()
        .zip(accs)
        .zip(times)
        .map(|((algo, acc), total_time)| AlgoEval {
            name: algo.name(),
            metrics: acc.mean(),
            total_time,
        })
        .collect()
}

fn approx_suite(
    ctx: &mut Context,
    dataset: &'static str,
    meas: Meas,
) -> Vec<Box<dyn SubtrajSearch>> {
    let rls = ctx.policy(dataset, meas, Context::mdp_for(meas, 0));
    let rls_skip = ctx.policy(dataset, meas, Context::mdp_for(meas, 3));
    vec![
        Box::new(SizeS::new(5)),
        Box::new(Pss),
        Box::new(Pos),
        Box::new(PosD::new(5)),
        Box::new(rls),
        Box::new(rls_skip),
    ]
}

/// Figure 3: AR / MR / RR of the approximate algorithms under t2vec, DTW
/// and Frechet on Porto and Harbin.
pub fn fig3(ctx: &mut Context) {
    let scale = ctx.scale;
    println!("\n=== Figure 3: effectiveness (AR / MR / RR) ===");
    for dataset in ["Porto", "Harbin"] {
        for meas in Meas::ALL {
            let algos = approx_suite(ctx, dataset, meas);
            let bundle = ctx.bundle(dataset);
            let pairs = sample_pairs(&bundle.corpus, scale.pairs, scale.max_query_len, 0xF163);
            let refs: Vec<&dyn SubtrajSearch> = algos.iter().map(|b| b.as_ref()).collect();
            let evals = evaluate_algorithms(bundle, meas, &pairs, &refs);
            println!(
                "\n--- {dataset} / {} ({} pairs) ---",
                meas.label(),
                pairs.len()
            );
            let mut table = Table::new(vec!["algorithm", "AR", "MR", "RR", "time(ms)"]);
            for e in evals {
                table.row(vec![
                    e.name,
                    format!("{:.3}", e.metrics.ar),
                    format!("{:.2}", e.metrics.mr),
                    format!("{:.2}%", e.metrics.rr * 100.0),
                    ms(e.total_time / pairs.len() as u32),
                ]);
            }
            table.print();
        }
    }
}

/// Figures 4 and 10: top-k query time vs database size, without and with
/// the R-tree index. Every row is wall time; a scan that cannot prune
/// (RLS, t2vec) spreads its candidates over the process's cores, so its
/// rows are wall time over those cores.
pub fn efficiency(ctx: &mut Context, dataset: &'static str) {
    let scale = ctx.scale;
    println!(
        "\n=== Figure 4/10: efficiency on {dataset} (top-{}) ===",
        scale.top_k
    );
    println!(
        "(wall time; unprunable rows run their candidates over {} cores)",
        simsub_core::library_scan_threads()
    );
    let spec = Context::spec(dataset);
    let max_size = *scale.db_sizes.last().expect("non-empty sizes");
    // One generation; prefixes are stable, so each size is a prefix slice.
    let full_corpus = generate(&spec, max_size, 0xF164);
    for meas in Meas::ALL {
        let algos = approx_suite(ctx, dataset, meas);
        let bundle = ctx.bundle(dataset);
        let measure = bundle.measure(meas);
        let mut all_algos: Vec<&dyn SubtrajSearch> = vec![&ExactS];
        all_algos.extend(algos.iter().map(|b| b.as_ref() as &dyn SubtrajSearch));
        println!("\n--- {dataset} / {} ---", meas.label());
        let mut table = Table::new(vec![
            "db size (points)",
            "algorithm",
            "no-index(ms)",
            "R-tree(ms)",
            "saved",
        ]);
        for &size in scale.db_sizes {
            let db = TrajectoryDb::build(full_corpus[..size].to_vec());
            let queries: Vec<Trajectory> = sample_pairs(
                &full_corpus[..size],
                scale.efficiency_queries,
                scale.max_query_len,
                0xF1640,
            )
            .into_iter()
            .map(|p| p.query)
            .collect();
            for algo in &all_algos {
                let (_, t_scan) = time_it(|| {
                    for q in &queries {
                        db.top_k(*algo, measure, q.points(), scale.top_k, false);
                    }
                });
                let (_, t_index) = time_it(|| {
                    for q in &queries {
                        db.top_k(*algo, measure, q.points(), scale.top_k, true);
                    }
                });
                let saved = 100.0 * (1.0 - t_index.as_secs_f64() / t_scan.as_secs_f64().max(1e-12));
                table.row(vec![
                    format!("{}", db.total_points()),
                    algo.name(),
                    ms(t_scan / queries.len() as u32),
                    ms(t_index / queries.len() as u32),
                    format!("{saved:.0}%"),
                ]);
            }
        }
        table.print();
    }
}

/// Figures 5, 6 and 11: effectiveness and efficiency across query-length
/// groups G1..G4.
pub fn query_length_groups(ctx: &mut Context, dataset: &'static str) {
    let scale = ctx.scale;
    println!("\n=== Figures 5/6/11: query-length groups on {dataset} ===");
    let per_group = (scale.pairs / 4).max(5);
    for meas in Meas::ALL {
        let algos = approx_suite(ctx, dataset, meas);
        let bundle = ctx.bundle(dataset);
        let groups = length_groups_cross(&bundle.corpus, per_group, 0xF165);
        println!(
            "\n--- {dataset} / {} ({per_group} queries per group) ---",
            meas.label()
        );
        let mut table = Table::new(vec!["group", "algorithm", "AR", "MR", "RR", "time(ms)"]);
        for (gi, group) in groups.iter().enumerate() {
            let refs: Vec<&dyn SubtrajSearch> = algos.iter().map(|b| b.as_ref()).collect();
            let evals = evaluate_algorithms(bundle, meas, group, &refs);
            for e in evals {
                table.row(vec![
                    format!("G{}", gi + 1),
                    e.name,
                    format!("{:.3}", e.metrics.ar),
                    format!("{:.2}", e.metrics.mr),
                    format!("{:.2}%", e.metrics.rr * 100.0),
                    ms(e.total_time / group.len() as u32),
                ]);
            }
        }
        table.print();
    }
}

/// Table 5: the effect of the skipping budget `k` on RLS-Skip
/// (Porto, DTW): AR / MR / RR / time / fraction of skipped points.
pub fn table5(ctx: &mut Context) {
    let scale = ctx.scale;
    println!("\n=== Table 5: effect of skipping steps k (Porto, DTW) ===");
    let mut table = Table::new(vec!["k", "AR", "MR", "RR", "time(ms)", "skip pts"]);
    for k in 0..=5usize {
        // Raw Algorithm 3 (final policy, no validation snapshots): the
        // effectiveness/efficiency trade-off of Table 5 is a property of
        // the training dynamics — skipping emerges because it rarely
        // hurts the reward — and best-effectiveness snapshot selection
        // would systematically pick the non-skipping policies.
        let rls = {
            let bundle = ctx.bundle("Porto");
            let queries: Vec<Trajectory> = bundle
                .corpus
                .iter()
                .map(|t| {
                    let len = t.len().min(scale.max_query_len);
                    Trajectory::new_unchecked(t.id, t.points()[..len].to_vec())
                })
                .collect();
            let mut cfg =
                simsub_core::RlsTrainConfig::paper(MdpConfig::rls_skip(k), scale.train_episodes);
            cfg.validation_pairs = 0;
            let report =
                simsub_core::train_rls(bundle.measure(Meas::Dtw), &bundle.corpus, &queries, &cfg);
            simsub_core::Rls::new(report.policy, MdpConfig::rls_skip(k))
        };
        let bundle = ctx.bundle("Porto");
        let measure = bundle.measure(Meas::Dtw);
        let pairs = sample_pairs(&bundle.corpus, scale.pairs, scale.max_query_len, 0xAB1E5);
        let mut acc = MetricsAccumulator::new();
        let mut total_time = Duration::ZERO;
        let mut skipped = 0usize;
        let mut points = 0usize;
        for pair in &pairs {
            let data = bundle.corpus[pair.data_idx].points();
            let query = pair.query.points();
            let ranking = exhaustive_ranking(measure, data, query);
            let ((res, stats), t) = time_it(|| rls.search_with_stats(measure, data, query));
            total_time += t;
            skipped += stats.skipped;
            points += data.len();
            acc.add(EffectivenessMetrics::evaluate(&ranking, res.range));
        }
        let m = acc.mean();
        table.row(vec![
            k.to_string(),
            format!("{:.3}", m.ar),
            format!("{:.2}", m.mr),
            format!("{:.2}%", m.rr * 100.0),
            ms(total_time / pairs.len() as u32),
            format!("{:.1}%", 100.0 * skipped as f64 / points as f64),
        ]);
    }
    table.print();
}

/// Figures 7 and 12: the effect of SizeS's soft margin ξ (Porto, DTW).
pub fn fig7(ctx: &mut Context) {
    let scale = ctx.scale;
    println!("\n=== Figure 7/12: effect of soft margin xi for SizeS (Porto, DTW) ===");
    let bundle = ctx.bundle("Porto");
    let pairs = sample_pairs(&bundle.corpus, scale.pairs, scale.max_query_len, 0xF167);
    let mut table = Table::new(vec!["xi", "AR", "MR", "RR", "time(ms)"]);
    let exact = ExactS;
    for xi in [0usize, 5, 10, 15, 20] {
        let algo = SizeS::new(xi);
        let refs: [&dyn SubtrajSearch; 1] = [&algo];
        let evals = evaluate_algorithms(bundle, Meas::Dtw, &pairs, &refs);
        let e = &evals[0];
        table.row(vec![
            xi.to_string(),
            format!("{:.3}", e.metrics.ar),
            format!("{:.2}", e.metrics.mr),
            format!("{:.2}%", e.metrics.rr * 100.0),
            ms(e.total_time / pairs.len() as u32),
        ]);
    }
    // ExactS reference row (the ceiling SizeS approaches as ξ grows).
    let refs: [&dyn SubtrajSearch; 1] = [&exact];
    let evals = evaluate_algorithms(bundle, Meas::Dtw, &pairs, &refs);
    table.row(vec![
        "ExactS".to_string(),
        format!("{:.3}", evals[0].metrics.ar),
        format!("{:.2}", evals[0].metrics.mr),
        format!("{:.2}%", evals[0].metrics.rr * 100.0),
        ms(evals[0].total_time / pairs.len() as u32),
    ]);
    table.print();
}

/// Table 6: SimTra (whole-trajectory search) vs SimSub (RLS) on all three
/// datasets and measures.
pub fn table6(ctx: &mut Context) {
    let scale = ctx.scale;
    println!("\n=== Table 6: SimTra vs SimSub ===");
    let mut table = Table::new(vec![
        "dataset", "measure", "problem", "AR", "MR", "RR", "time(ms)",
    ]);
    for dataset in ["Porto", "Harbin", "Sports"] {
        for meas in Meas::ALL {
            let rls = ctx.policy(dataset, meas, Context::mdp_for(meas, 0));
            let bundle = ctx.bundle(dataset);
            let pairs = sample_pairs(
                &bundle.corpus,
                (scale.pairs / 2).max(10),
                scale.max_query_len,
                0xAB1E6,
            );
            let algos: [&dyn SubtrajSearch; 2] = [&SimTra, &rls];
            let evals = evaluate_algorithms(bundle, meas, &pairs, &algos);
            for (e, label) in evals.iter().zip(["SimTra", "SimSub"]) {
                table.row(vec![
                    dataset.to_string(),
                    meas.label().to_string(),
                    label.to_string(),
                    format!("{:.3}", e.metrics.ar),
                    format!("{:.2}", e.metrics.mr),
                    format!("{:.2}%", e.metrics.rr * 100.0),
                    ms(e.total_time / pairs.len() as u32),
                ]);
            }
        }
    }
    table.print();
}

/// Figures 8 and 13: RLS-Skip+ vs the DTW-specific UCR and Spring
/// baselines across the alignment-constraint ratio R.
pub fn fig8(ctx: &mut Context) {
    let scale = ctx.scale;
    println!("\n=== Figure 8/13: comparison with UCR and Spring (Porto, DTW) ===");
    let rls_skip_plus = ctx.policy("Porto", Meas::Dtw, MdpConfig::rls_skip_plus(3));
    let bundle = ctx.bundle("Porto");
    let pairs = sample_pairs(&bundle.corpus, scale.pairs, scale.max_query_len, 0xF168);
    let mut table = Table::new(vec!["algorithm", "R", "AR", "MR", "RR", "time(ms)"]);
    let rsp: [&dyn SubtrajSearch; 1] = [&rls_skip_plus];
    let evals = evaluate_algorithms(bundle, Meas::Dtw, &pairs, &rsp);
    table.row(vec![
        "RLS-Skip+".to_string(),
        "-".to_string(),
        format!("{:.3}", evals[0].metrics.ar),
        format!("{:.2}", evals[0].metrics.mr),
        format!("{:.2}%", evals[0].metrics.rr * 100.0),
        ms(evals[0].total_time / pairs.len() as u32),
    ]);
    for r in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
        let ucr = Ucr::new(r);
        let spring = Spring::with_band(r);
        let algos: [&dyn SubtrajSearch; 2] = [&ucr, &spring];
        let evals = evaluate_algorithms(bundle, Meas::Dtw, &pairs, &algos);
        for e in evals {
            table.row(vec![
                e.name.split('(').next().unwrap_or(&e.name).to_string(),
                format!("{r:.1}"),
                format!("{:.3}", e.metrics.ar),
                format!("{:.2}", e.metrics.mr),
                format!("{:.2}%", e.metrics.rr * 100.0),
                ms(e.total_time / pairs.len() as u32),
            ]);
        }
    }
    table.print();
}

/// Figures 9 and 14: Random-S across sample sizes, with mean ± standard
/// deviation over repeated runs, vs RLS-Skip.
pub fn fig9(ctx: &mut Context) {
    let scale = ctx.scale;
    println!("\n=== Figure 9/14: comparison with Random-S (Porto, DTW) ===");
    let rls_skip = ctx.policy("Porto", Meas::Dtw, MdpConfig::rls_skip(3));
    let bundle = ctx.bundle("Porto");
    let pairs = sample_pairs(
        &bundle.corpus,
        (scale.pairs / 2).max(10),
        scale.max_query_len,
        0xF169,
    );
    let repeats = 20;
    let mut table = Table::new(vec![
        "algorithm",
        "samples",
        "RR mean",
        "RR std",
        "time(ms)",
    ]);

    // Reference rows: RLS-Skip and ExactS.
    for (label, algo) in [
        ("RLS-Skip", &rls_skip as &dyn SubtrajSearch),
        ("ExactS", &ExactS),
    ] {
        let refs: [&dyn SubtrajSearch; 1] = [algo];
        let evals = evaluate_algorithms(bundle, Meas::Dtw, &pairs, &refs);
        table.row(vec![
            label.to_string(),
            "-".to_string(),
            format!("{:.2}%", evals[0].metrics.rr * 100.0),
            "-".to_string(),
            ms(evals[0].total_time / pairs.len() as u32),
        ]);
    }

    let measure = bundle.measure(Meas::Dtw);
    for samples in [10usize, 20, 50, 100] {
        let mut rrs = Vec::with_capacity(repeats);
        let mut total_time = Duration::ZERO;
        for rep in 0..repeats {
            let algo = RandomS::new(samples, 0xBEEF + rep as u64);
            let mut acc = MetricsAccumulator::new();
            for pair in &pairs {
                let data = bundle.corpus[pair.data_idx].points();
                let query = pair.query.points();
                let ranking = exhaustive_ranking(measure, data, query);
                let (res, t) = time_it(|| algo.search(measure, data, query));
                total_time += t;
                acc.add(EffectivenessMetrics::evaluate(&ranking, res.range));
            }
            rrs.push(acc.mean().rr);
        }
        let mean = rrs.iter().sum::<f64>() / rrs.len() as f64;
        let var = rrs.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>() / rrs.len() as f64;
        table.row(vec![
            "Random-S".to_string(),
            samples.to_string(),
            format!("{:.2}%", mean * 100.0),
            format!("{:.2}%", var.sqrt() * 100.0),
            ms(total_time / (repeats * pairs.len()) as u32),
        ]);
    }
    table.print();
}

/// Table 7: training time of RLS and RLS-Skip per dataset × measure.
pub fn table7(ctx: &mut Context) {
    let scale = ctx.scale;
    println!(
        "\n=== Table 7: training time (seconds, {} episodes) ===",
        scale.train_episodes
    );
    // Ensure all policies are trained, then read the recorded times.
    for dataset in ["Porto", "Harbin", "Sports"] {
        for meas in Meas::ALL {
            let _ = ctx.policy(dataset, meas, Context::mdp_for(meas, 0));
            let _ = ctx.policy(dataset, meas, Context::mdp_for(meas, 3));
        }
    }
    let mut table = Table::new(vec!["dataset", "measure", "RLS(s)", "RLS-Skip(s)"]);
    for dataset in ["Porto", "Harbin", "Sports"] {
        for meas in Meas::ALL {
            let k0 = (
                meas.label().to_string(),
                dataset,
                crate::MdpKey::from(Context::mdp_for(meas, 0)),
            );
            let k3 = (
                meas.label().to_string(),
                dataset,
                crate::MdpKey::from(Context::mdp_for(meas, 3)),
            );
            table.row(vec![
                dataset.to_string(),
                meas.label().to_string(),
                format!("{:.1}", ctx.train_seconds[&k0]),
                format!("{:.1}", ctx.train_seconds[&k3]),
            ]);
        }
    }
    table.print();
}

/// Empirical Table 2: how each algorithm's per-query time scales with the
/// data-trajectory length n, under t2vec (expected O(n)) and DTW
/// (expected O(n·m) for splitting algorithms vs O(n²·m) for ExactS).
pub fn table2(ctx: &mut Context) {
    println!("\n=== Table 2 (empirical): per-query time vs n ===");
    let rls = ctx.policy("Porto", Meas::Dtw, MdpConfig::rls());
    let rls_t2 = ctx.policy("Porto", Meas::T2Vec, Context::mdp_for(Meas::T2Vec, 0));
    let bundle = ctx.bundle("Porto");
    let lengths = [50usize, 100, 200, 400];
    let m = 25;
    let spec = Context::spec("Porto");
    let mut spec_long = spec.clone();
    spec_long.min_len = 400;
    spec_long.max_len = 401;
    spec_long.mean_len = 400;
    let long = generate(&spec_long, 8, 0x7AB1E2);
    let query: Vec<Point> = long[7].points()[..m].to_vec();

    for meas in [Meas::T2Vec, Meas::Dtw] {
        let measure = bundle.measure(meas);
        let rls_ref: &dyn SubtrajSearch = if meas == Meas::Dtw { &rls } else { &rls_t2 };
        let algos: [(&str, &dyn SubtrajSearch); 4] = [
            ("ExactS", &ExactS),
            ("SizeS(5)", &SizeS { xi: 5 }),
            ("PSS", &Pss),
            ("RLS", rls_ref),
        ];
        println!("\n--- measure {} (m = {m}) ---", meas.label());
        let mut table = Table::new(vec![
            "algorithm",
            "n=50",
            "n=100",
            "n=200",
            "n=400",
            "x400/x50",
        ]);
        for (name, algo) in algos {
            let mut cells = vec![name.to_string()];
            let mut first = 0.0;
            let mut last = 0.0;
            for (li, &n) in lengths.iter().enumerate() {
                let reps = 20;
                let (_, t) = time_it(|| {
                    for t_i in long.iter().take(4) {
                        for _ in 0..reps / 4 {
                            algo.search(measure, &t_i.points()[..n], &query);
                        }
                    }
                });
                let per = t.as_secs_f64() * 1e3 / reps as f64;
                if li == 0 {
                    first = per;
                }
                last = per;
                cells.push(format!("{per:.3}"));
            }
            cells.push(format!("{:.1}x", last / first.max(1e-12)));
            table.row(cells);
        }
        table.print();
    }
    println!("(t2vec: splitting algorithms should scale ~linearly; ExactS ~quadratically.)");
}

/// The Figure 1 / Table 3 / Table 4 worked example: the toy instance where
/// greedy PSS is provably suboptimal and the optimum is `T[2,4]` (1-based).
pub fn toy() {
    println!("\n=== Figure 1 / Tables 3-4: worked example ===");
    let t: Vec<Point> = [(0.0, 3.0), (0.0, 1.0), (2.0, 1.0), (4.0, 1.0), (4.0, 3.0)]
        .iter()
        .map(|&(x, y)| Point::xy(x, y))
        .collect();
    let q: Vec<Point> = [(0.0, 0.0), (2.0, 0.0), (4.0, 0.0)]
        .iter()
        .map(|&(x, y)| Point::xy(x, y))
        .collect();
    let measure = simsub_measures::Dtw;
    let mut table = Table::new(vec!["algorithm", "range (1-based)", "DTW", "similarity"]);
    let algos: [&dyn SubtrajSearch; 4] = [&ExactS, &Pss, &Pos, &Spring::new()];
    for algo in algos {
        let res = algo.search(&measure, &t, &q);
        table.row(vec![
            algo.name(),
            format!("T[{}, {}]", res.range.start + 1, res.range.end + 1),
            format!("{:.3}", res.distance),
            format!("{:.3}", res.similarity),
        ]);
    }
    table.print();
    println!("(ExactS/Spring find T[2,4]; greedy PSS/POS split too early — the paper's motivating failure.)");
}
