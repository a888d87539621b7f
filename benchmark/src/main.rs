//! The perf ledger's harness. See `benchmark/README.md`.
//!
//! ```text
//! simsub-benchmark run --workload <name> [--seed N] [--seconds S] [--trace 0|1 | --traced] [--quick]
//! simsub-benchmark run --all [...]
//! simsub-benchmark selfcheck [--seed N] [--quick]
//! ```
//!
//! Run from the repository root: `BENCHMARK.json` and `benchmark/out/`
//! are resolved against the working directory.

mod alloc;
mod calib;
mod check;
mod client;
mod metrics;
mod oracle;
mod probes;
mod run;
mod schema;
mod selfcheck;
mod trace;
mod util;
mod workloads;

use metrics::Metric;
use run::RunResult;
use simsub_service::json::{obj, Json};
use std::process::ExitCode;
use workloads::Workload;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage: simsub-benchmark run (--workload <name> | --all) [--seed N] \
[--seconds S] [--trace 0|1 | --traced] [--quick]\n       simsub-benchmark selfcheck [--seed N] [--quick]";

pub struct Cli {
    pub workload: Option<Workload>,
    pub all: bool,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        all: false,
        seed: 1,
        seconds: schema::run_seconds().unwrap_or(20.0),
        traced: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload = Some(Workload::from_name(name).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?} (known: {})", known.join(", "))
                })?);
            }
            "--all" => cli.all = true,
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                cli.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => cli.traced = true,
            "--quick" => cli.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the latter keyed by metric name.
fn result_line(result: &RunResult, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let value = obj(vec![
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.into())),
            ]);
            (m.name.to_string(), value)
        })
        .collect();
    obj(vec![
        ("correct", Json::Bool(result.correct)),
        ("attempted", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .dump()
}

fn run_one(cli: &Cli, workload: Workload) -> Result<(), String> {
    let result = run::run(cli, workload);
    println!(
        "workload {} seed {} {}{}",
        workload.name(),
        cli.seed,
        if cli.traced { "traced" } else { "untraced" },
        if cli.quick { " quick" } else { "" }
    );
    for m in result.end_to_end.iter().chain(&result.per_layer) {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "operations attempted {} failed {}",
        result.attempted, result.failed
    );
    if let Some(error) = &result.first_error {
        println!("first error: {error}");
    }
    let reported = if cli.traced {
        &result.per_layer
    } else {
        &result.end_to_end
    };
    schema::verify(reported, cli.traced)?;
    if let Some(bad) = reported.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not a finite number", bad.name));
    }
    println!("{}", result_line(&result, reported));
    if result.correct {
        Ok(())
    } else {
        Err(format!("{}: outputs are not correct", workload.name()))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => {
            parse(rest).and_then(|cli| match (cli.workload, cli.all) {
                (Some(workload), false) => run_one(&cli, workload),
                // One process per workload: `peak_rss_mb` is a process-wide
                // high-water mark.
                (None, true) => Workload::ALL.iter().try_for_each(|w| {
                    let run =
                        selfcheck::spawn_run(*w, cli.seed, cli.seconds, cli.traced, cli.quick)?;
                    print!("{}", run.stdout);
                    Ok(())
                }),
                _ => Err(format!("give exactly one of --workload and --all\n{USAGE}")),
            })
        }
        Some((cmd, rest)) if cmd == "selfcheck" => parse(rest).and_then(|cli| selfcheck::run(&cli)),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("simsub-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
