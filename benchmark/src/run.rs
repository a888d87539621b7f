//! One run of one workload: set-up, calibration-bracketed rounds, output
//! checks, the oracle pass, and (traced runs) the per-layer probes.

use crate::calib::{Calibrator, Speed};
use crate::check::{self, Hit, Sample};
use crate::client::{Op, Pace, PhaseOut, WireObs, STAGES};
use crate::metrics::{metric, Metric};
use crate::oracle::{judge, OracleMeasure, Verdict};
use crate::trace::Tracer;
use crate::util::{derive_seed, mean, median, percentile, spread_pct, sum};
use crate::workloads::{setup, MeasureKind, Sut, Workload, EXACT_SAMPLES, K};
use crate::{alloc, probes, util, Cli};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::Instant;

/// Wall seconds one round (its phases plus one calibration sample) takes
/// at reference speed; `--seconds` over this is the round count.
const ROUND_SECONDS: f64 = 2.0;
/// Rounds of an untraced run before `--seconds` trims them.
const MAX_ROUNDS: usize = 10;
/// Never fewer than this, and unstable rounds are only dropped down to it.
const MIN_ROUNDS: usize = 5;
/// Untraced/traced round pairs of a `--trace 1` run.
const TRACED_PAIRS: usize = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Wire requests per phase that a traced library workload also sends, so
/// the service layer is observed on its inputs too.
const LIBRARY_WIRE_OPS: usize = 24;

pub const OUT_DIR: &str = "benchmark/out";

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    pub end_to_end: Vec<Metric>,
    /// Empty on an untraced run.
    pub per_layer: Vec<Metric>,
}

/// What one round measured, before normalisation.
struct Measured {
    qps: f64,
    lat_ms: Vec<f64>,
    late_ms: Vec<f64>,
    reload_ms: Vec<f64>,
    closed_wall_s: f64,
    queries: u64,
    cpu_ms: f64,
    allocs: u64,
    alloc_bytes: u64,
    obs: WireObs,
}

struct Round {
    traced: bool,
    /// From the calibration samples either side of the round.
    speed: Speed,
    m: Measured,
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    samples: Vec<Sample>,
}

impl Tally {
    fn absorb(&mut self, out: &mut PhaseOut) {
        self.attempted += out.attempted;
        self.failed += out.failed;
        if self.first_error.is_none() {
            self.first_error = out.first_error.take();
        }
        self.samples.append(&mut out.samples);
    }

    /// One more operation, and it failed.
    fn fail(&mut self, error: String) {
        self.attempted += 1;
        self.failed += 1;
        self.first_error.get_or_insert(error);
    }
}

/// Sequential library calls: a library has no arrival process, so latency
/// is the per-call duration and throughput is calls over their summed time.
fn library_phase(
    sut: &mut Sut,
    rng: &mut StdRng,
    n: usize,
    sample_every: usize,
    mut tracer: Option<&mut Tracer>,
) -> PhaseOut {
    let mut out = PhaseOut::default();
    let picks = sut.draw_queries(rng, n);
    let epoch = sut.first_epoch;
    alloc::set_counted(true);
    for (i, &q) in picks.iter().enumerate() {
        let start = Instant::now();
        let results = sut.dbs[0].top_k(sut.algo(), sut.measure(), &sut.queries[q], K, true);
        let end = Instant::now();
        let ms = (end - start).as_secs_f64() * 1e3;
        out.wall_s += ms / 1e3;
        out.attempted += 1;
        let hits: Vec<Hit> = results.iter().map(Hit::from).collect();
        match check::structural(&sut.dbs[0], &hits) {
            Ok(()) => {
                out.ok += 1;
                out.lat_ms.push(ms);
            }
            Err(e) => {
                out.failed += 1;
                out.first_error
                    .get_or_insert(format!("library call {i}: {e}"));
            }
        }
        if sample_every > 0 && i.is_multiple_of(sample_every) {
            out.samples.push(Sample {
                query: q,
                epoch,
                hits,
            });
        }
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.add("index.top_k", start, end, None, Some(i as u64));
        }
    }
    alloc::set_counted(false);
    out
}

fn run_round(
    sut: &mut Sut,
    rng: &mut StdRng,
    traced: bool,
    pacing_speed: f64,
    sample_target: usize,
    mut tracer: Option<&mut Tracer>,
    tally: &mut Tally,
) -> Measured {
    let spec = sut.spec;
    let every = |ops: usize| (ops / sample_target.max(1)).max(1);
    let cpu0 = util::process_cpu_ms();
    let (allocs0, bytes0) = alloc::totals();
    // (phase, paced by the open-loop schedule?)
    let mut phases: Vec<(PhaseOut, bool)> = Vec::new();
    if spec.wire {
        let ops = sut.plan(rng, spec.closed_ops);
        let sampled = every(ops.len());
        let closed = sut.phase(&ops, Pace::Closed, traced, sampled, tracer.as_deref_mut());
        let ops = sut.plan(rng, spec.open_ops);
        // The offered rate follows the machine, so the load factor the
        // frozen rate stands for is the same in a slow and a fast mode.
        let pace = Pace::Open {
            rate: spec.open_rate * pacing_speed,
        };
        let open = sut.phase(&ops, pace, traced, sampled, tracer.as_deref_mut());
        phases.extend([(closed, false), (open, true)]);
    } else {
        let n = spec.closed_ops;
        let calls = library_phase(sut, rng, n, every(n), tracer.as_deref_mut());
        phases.push((calls, false));
    }
    let closed_wall_s = phases[0].0.wall_s;
    let qps = phases[0].0.ok as f64 / closed_wall_s;
    let queries = phases.iter().map(|(out, _)| out.ok).sum();
    let cpu_ms = util::process_cpu_ms() - cpu0;
    let (allocs1, bytes1) = alloc::totals();
    // The open phase's latencies; a library's only phase gives its call
    // durations.
    let lat_ms = std::mem::take(&mut phases.last_mut().expect("one phase").0.lat_ms);
    let reload_ms = std::mem::take(&mut phases[0].0.reload_ms);
    if traced && !spec.wire {
        // Serve the same model over the wire as well, so a library
        // workload's trace still shows what the service layer would add.
        let half_capacity = Pace::Open { rate: qps / 2.0 };
        for (pace, open) in [(Pace::Closed, false), (half_capacity, true)] {
            let picks = sut.draw_queries(rng, LIBRARY_WIRE_OPS);
            let ops: Vec<Op> = picks.into_iter().map(Op::Query).collect();
            phases.push((sut.phase(&ops, pace, true, 0, tracer.as_deref_mut()), open));
        }
    }
    let mut obs = WireObs::default();
    let mut late_ms = Vec::new();
    for (mut out, open) in phases {
        if !open {
            // Stage times are set against the open phase's client-observed
            // latency; a closed-loop dispatch group's scan covers up to
            // `WINDOW` queries at once.
            (out.obs.stages, out.obs.unaccounted_us) = Default::default();
        }
        obs.merge(&out.obs);
        late_ms.append(&mut out.late_ms);
        tally.absorb(&mut out);
    }
    Measured {
        qps,
        lat_ms,
        late_ms,
        reload_ms,
        closed_wall_s,
        queries,
        cpu_ms,
        allocs: allocs1 - allocs0,
        alloc_bytes: bytes1 - bytes0,
        obs,
    }
}

/// Drops unstable rounds, worst first, while more than the minimum remain.
fn stable_rounds<'a>(rounds: impl Iterator<Item = &'a Round>) -> Vec<&'a Round> {
    let mut kept: Vec<&Round> = rounds.collect();
    let floor = MIN_ROUNDS.min(kept.len());
    kept.sort_by(|a, b| a.speed.rel_diff.total_cmp(&b.speed.rel_diff));
    while kept.len() > floor && kept.last().is_some_and(|r| !r.speed.stable) {
        kept.pop();
    }
    kept
}

/// `(median throughput, pooled latencies)` of a set of rounds, each
/// round's values rescaled by `speed_of(round)` (1 leaves them raw).
fn summarise(rounds: &[&Round], speed_of: fn(&Round) -> f64) -> (f64, Vec<f64>) {
    let qps: Vec<f64> = rounds.iter().map(|r| r.m.qps / speed_of(r)).collect();
    let lat = rounds
        .iter()
        .flat_map(|r| r.m.lat_ms.iter().map(|ms| ms * speed_of(r)))
        .collect();
    (median(&qps), lat)
}

/// The per-layer metrics read off the rounds themselves (the probes add
/// the rest): wire observations of the traced rounds and the harness's
/// own health.
fn observed_layer_metrics(rounds: &[Round], calib_ms: &[f64], verdicts: &[Verdict]) -> Vec<Metric> {
    let untraced = stable_rounds(rounds.iter().filter(|r| !r.traced));
    let traced = stable_rounds(rounds.iter().filter(|r| r.traced));
    let (qps, lat) = summarise(&untraced, |r| r.speed.factor);
    let (traced_qps, _) = summarise(&traced, |r| r.speed.factor);
    let (raw_qps, raw_lat) = summarise(&untraced, |_| 1.0);
    let normalised_qps: Vec<f64> = untraced.iter().map(|r| r.m.qps / r.speed.factor).collect();
    // Costs per query are taken over every untraced round, stable or not:
    // they are counts and CPU time, not wall time.
    let total = |f: fn(&Measured) -> f64| -> f64 {
        rounds.iter().filter(|r| !r.traced).map(|r| f(&r.m)).sum()
    };
    let queries = total(|m| m.queries as f64).max(1.0);
    let mut obs = WireObs::default();
    let mut late = Vec::new();
    for round in rounds.iter().filter(|r| r.traced) {
        obs.merge(&round.m.obs);
        late.extend(&round.m.late_ms);
    }
    let reload_ms: f64 = rounds.iter().map(|r| sum(&r.m.reload_ms)).sum();
    let closed_wall_ms: f64 = rounds.iter().map(|r| r.m.closed_wall_s * 1e3).sum();
    let answered = obs.responses.max(1) as f64;
    // Means, not medians: means add up, so the stages plus the unaccounted
    // remainder reconcile with the client-observed mean by construction
    // (and an integer-µs median would read the same on every run).
    let mut metrics: Vec<Metric> = STAGES
        .iter()
        .zip(&obs.stages)
        .map(|(stage, samples)| metric(&format!("service.trace_{stage}_us"), mean(samples)))
        .collect();
    let ranks: Vec<f64> = verdicts.iter().map(|v| v.rank).collect();
    let relative_ranks: Vec<f64> = verdicts.iter().map(|v| v.rr).collect();
    metrics.extend([
        metric("service.unaccounted_us", mean(&obs.unaccounted_us)),
        metric("service.cache_hit_rate", obs.cached as f64 / answered),
        metric("service.mean_batch", obs.batch_sum as f64 / answered),
        metric("service.shed", obs.shed as f64),
        metric("service.expired", obs.expired as f64),
        metric("service.reload_share", reload_ms / closed_wall_ms),
        metric("harness.calib_ms", median(calib_ms)),
        metric("harness.speed_spread_pct", spread_pct(calib_ms)),
        metric(
            "harness.unstable_rounds",
            rounds.iter().filter(|r| !r.speed.stable).count() as f64,
        ),
        metric("harness.round_spread_pct", spread_pct(&normalised_qps)),
        metric("harness.gen_late_p90_ms", percentile(&late, 90.0)),
        metric(
            "harness.trace_overhead_pct",
            (qps - traced_qps) / qps * 100.0,
        ),
        metric("harness.lat_p90_ms", percentile(&lat, 90.0)),
        metric("harness.raw_throughput_qps", raw_qps),
        metric("harness.raw_lat_p50_ms", percentile(&raw_lat, 50.0)),
        metric("harness.raw_lat_p90_ms", percentile(&raw_lat, 90.0)),
        metric("harness.cpu_ms_per_query", total(|m| m.cpu_ms) / queries),
        metric(
            "harness.allocs_per_query",
            total(|m| m.allocs as f64) / queries,
        ),
        metric(
            "harness.alloc_bytes_per_query",
            total(|m| m.alloc_bytes as f64) / queries,
        ),
        metric("harness.samples", lat.len() as f64),
        metric("core.quality_mr", mean(&ranks)),
        metric("core.quality_rr", mean(&relative_ranks)),
    ]);
    metrics
}

pub fn run(cli: &Cli, workload: Workload) -> RunResult {
    // This thread is the load generator; only the system under test's
    // allocations are counted (library phases opt back in).
    alloc::set_counted(false);
    let spec = workload.spec(cli.quick);
    let out_dir = Path::new(OUT_DIR);
    let mut calib = Calibrator::new(cli.quick);
    let mut calib_ms = vec![calib.sample_ms()];

    let mut setup_s = Vec::new();
    let mut sut: Option<Sut> = None;
    for _ in 0..if cli.quick { 1 } else { SETUPS } {
        if let Some(previous) = sut.take() {
            previous.teardown();
        }
        let t = Instant::now();
        sut = Some(setup(workload, spec, cli.seed, out_dir));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut sut = sut.expect("at least one set-up");
    eprintln!("set-ups: {setup_s:.3?} s");
    calib_ms.push(calib.sample_ms());
    let setup_speed = calib.speed(calib_ms[0], calib_ms[1]).factor;

    let kinds: Vec<bool> = if cli.traced {
        let pairs = if cli.quick { 1 } else { TRACED_PAIRS };
        (0..2 * pairs).map(|i| i % 2 == 1).collect()
    } else if cli.quick {
        vec![false]
    } else {
        let fit = (cli.seconds / ROUND_SECONDS) as usize;
        vec![false; fit.clamp(MIN_ROUNDS, MAX_ROUNDS)]
    };
    let phases = kinds.len() * if spec.wire { 2 } else { 1 };
    let sample_target = EXACT_SAMPLES.div_ceil(phases);
    let mut tracer = cli.traced.then(Tracer::new);
    let mut tally = Tally::default();
    let mut rounds: Vec<Round> = Vec::new();
    for (i, &traced) in kinds.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(derive_seed(cli.seed, 100 + i as u64));
        let before = calib_ms[calib_ms.len() - 1];
        // Two samples steady the pacing estimate: the one before the
        // previous stretch and the one just taken.
        let pacing = calib.speed(calib_ms[calib_ms.len() - 2], before).factor;
        let m = run_round(
            &mut sut,
            &mut rng,
            traced,
            pacing,
            sample_target,
            tracer.as_mut().filter(|_| traced),
            &mut tally,
        );
        let after = calib.sample_ms();
        let speed = calib.speed(before, after);
        eprintln!(
            "round {i}{}: calib {before:.1} -> {after:.1} ms, speed {:.3}{}, raw {:.1} qps, raw p50 {:.3} ms, raw p90 {:.3} ms, late p90 {:.3} ms",
            if traced { " (traced)" } else { "" },
            speed.factor,
            if speed.stable { "" } else { " UNSTABLE" },
            m.qps,
            percentile(&m.lat_ms, 50.0),
            percentile(&m.lat_ms, 90.0),
            percentile(&m.late_ms, 90.0),
        );
        calib_ms.push(after);
        rounds.push(Round { traced, speed, m });
    }
    let peak_rss_mb = util::peak_rss_mb();

    let untraced = stable_rounds(rounds.iter().filter(|r| !r.traced));
    let (qps, lat) = summarise(&untraced, |r| r.speed.factor);
    let (raw_qps, raw_lat) = summarise(&untraced, |_| 1.0);
    eprintln!(
        "raw medians over {} rounds: {raw_qps:.2} qps, p50 {:.4} ms, p90 {:.4} ms",
        untraced.len(),
        percentile(&raw_lat, 50.0),
        percentile(&raw_lat, 90.0)
    );

    // Output check: the sampled answers against the reference scan of the
    // epoch that produced them.
    for sample in std::mem::take(&mut tally.samples) {
        let verdict = check::exact(
            sut.db_for_epoch(sample.epoch),
            sut.algo(),
            sut.measure(),
            &sut.queries[sample.query],
            &sample.hits,
        );
        match verdict {
            Ok(()) => tally.attempted += 1,
            Err(e) => tally.fail(format!("exact check: {e}")),
        }
    }

    // Oracle pass (after timing, outside `setup_s` and `peak_rss_mb`).
    let oracle = match spec.measure {
        MeasureKind::Dtw => OracleMeasure::Dtw,
        MeasureKind::T2Vec => OracleMeasure::T2Vec(&sut.learned().t2vec),
    };
    let verdicts: Vec<Verdict> = sut
        .quality
        .iter()
        .map(|(data, query)| {
            let found = sut.algo().search(sut.measure(), data, query);
            judge(&oracle, data, query, found.range.start, found.range.end)
        })
        .collect();
    let quality_ar = mean(&verdicts.iter().map(|v| v.ar).collect::<Vec<_>>());
    if workload == Workload::ColdScan && quality_ar != 1.0 {
        tally.fail(format!(
            "ExactS approximate ratio is {quality_ar}, not exactly 1"
        ));
    }

    let end_to_end = vec![
        metric("setup_s", median(&setup_s) * setup_speed),
        metric("throughput_qps", qps),
        metric("lat_p50_ms", percentile(&lat, 50.0)),
        metric("peak_rss_mb", peak_rss_mb),
        metric("quality_ar", quality_ar),
    ];

    let mut per_layer = Vec::new();
    if let Some(mut tracer) = tracer {
        per_layer = observed_layer_metrics(&rounds, &calib_ms, &verdicts);
        let path = out_dir.join(format!("{}.trace.json", workload.name()));
        let probed = probes::run(&mut sut, cli.seed, cli.quick, &mut tracer)
            .map(|metrics| per_layer.extend(metrics))
            .map_err(|e| format!("probe: {e}"));
        let written = tracer
            .write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()));
        for e in [probed, written].into_iter().filter_map(Result::err) {
            tally.fail(e);
        }
    }
    sut.teardown();

    RunResult {
        correct: tally.failed == 0,
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        first_error: tally.first_error,
        end_to_end,
        per_layer,
    }
}
