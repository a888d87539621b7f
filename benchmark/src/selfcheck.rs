//! `selfcheck`: is the benchmark itself trustworthy on this machine?
//!
//! Runs every workload twice with one seed and once with another, each in
//! its own process, and checks that (a) each end-to-end metric repeats
//! within its bound, (b) the deterministic counts repeat bit-for-bit, and
//! (c) they move when the seed does — counts that ignore the seed are not
//! measuring the inputs.

use crate::schema;
use crate::workloads::Workload;
use crate::Cli;
use simsub_service::json::Json;
use std::process::Command;

/// Counts that depend on the inputs alone.
const DETERMINISTIC: [&str; 3] = [
    "core.cells_per_query",
    "core.searched_per_query",
    "index.candidate_ratio",
];

pub struct ChildRun {
    pub stdout: String,
    pub result: Json,
}

impl ChildRun {
    fn value(&self, name: &str) -> Result<f64, String> {
        self.result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("result line has no metric {name}"))
    }
}

/// Runs one workload in a child process of this same binary and parses
/// the result line it ends with.
pub fn spawn_run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("spawning {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if !output.status.success() {
        return Err(format!(
            "{} exited with {}:\n{stdout}{}",
            workload.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    let result = Json::parse(last).map_err(|e| format!("child result line: {e}"))?;
    Ok(ChildRun { stdout, result })
}

pub fn run(cli: &Cli) -> Result<(), String> {
    let bounds = schema::bounds()?;
    let other_seed = cli.seed.wrapping_add(1);
    let mut violations = Vec::new();
    for workload in Workload::ALL {
        let name = workload.name();
        let spawn =
            |seed: u64, traced: bool| spawn_run(workload, seed, cli.seconds, traced, cli.quick);
        let (a, b) = (spawn(cli.seed, false)?, spawn(cli.seed, false)?);
        println!("{name}");
        for (metric, bound) in &bounds {
            let (x, y) = (a.value(metric)?, b.value(metric)?);
            let gap = (x - y).abs() / x.abs().max(y.abs());
            // One tiny round times nothing: quick gaps are shown, not judged.
            let over = gap > *bound && !cli.quick;
            println!(
                "  {metric:<20} {x:>14.6} {y:>14.6}  gap {:>6.2} %  bound {:>5.1} %  {}",
                gap * 100.0,
                bound * 100.0,
                if over { "VIOLATION" } else { "ok" }
            );
            if over {
                violations.push(format!(
                    "{name}: {metric} gap {:.2} % over its bound",
                    gap * 100.0
                ));
            }
        }
        if a.value("quality_ar")?.to_bits() != b.value("quality_ar")?.to_bits() {
            violations.push(format!("{name}: quality_ar does not repeat bit-for-bit"));
        }
        let (ta, tb, tc) = (
            spawn(cli.seed, true)?,
            spawn(cli.seed, true)?,
            spawn(other_seed, true)?,
        );
        let mut counts = DETERMINISTIC.to_vec();
        if workload == Workload::WarmRepeat {
            // 1 under any seed: must repeat, cannot move.
            counts.push("service.cache_hit_rate");
        }
        let mut moved = false;
        for count in counts {
            let (x, y, z) = (ta.value(count)?, tb.value(count)?, tc.value(count)?);
            let repeats = x.to_bits() == y.to_bits();
            moved |= x != z;
            println!(
                "  {count:<28} {x:>16.6} {y:>16.6} | seed {other_seed}: {z:>16.6}  {}",
                if repeats { "ok" } else { "VIOLATION" }
            );
            if !repeats {
                violations.push(format!(
                    "{name}: {count} differs between two runs of seed {}",
                    cli.seed
                ));
            }
        }
        if !moved {
            violations.push(format!(
                "{name}: no deterministic count moved between seeds {} and {other_seed}",
                cli.seed
            ));
        }
    }
    if violations.is_empty() {
        println!("selfcheck passed");
        Ok(())
    } else {
        Err(format!("selfcheck failed:\n  {}", violations.join("\n  ")))
    }
}
