//! `BENCHMARK.json` is the contract; this module holds the harness to it.
//! Every run checks that what it is about to report matches the file by
//! name, unit and direction, so the two cannot drift apart unnoticed.

use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::workloads::Workload;
use simsub_service::json::Json;

const FILE: &str = "BENCHMARK.json";

fn load() -> Result<Json, String> {
    let text = std::fs::read_to_string(FILE)
        .map_err(|e| format!("reading {FILE} (run from the repository root): {e}"))?;
    Json::parse(&text).map_err(|e| format!("{FILE}: {e}"))
}

fn str_field<'a>(entry: &'a Json, key: &str) -> Result<&'a str, String> {
    entry
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{FILE}: entry without a string {key:?}: {}", entry.dump()))
}

fn entries<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    doc.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{FILE}: missing array {key:?}"))
}

/// The file's `run_seconds`: the default for `--seconds`.
pub fn run_seconds() -> Option<f64> {
    load().ok()?.get("run_seconds")?.as_f64()
}

/// `(metric, bound)` of every end-to-end metric.
pub fn bounds() -> Result<Vec<(String, f64)>, String> {
    let doc = load()?;
    entries(&doc, "end_to_end")?
        .iter()
        .map(|e| {
            let bound = e.get("bound").and_then(Json::as_f64);
            Ok((
                str_field(e, "name")?.to_string(),
                bound.ok_or_else(|| format!("{FILE}: end-to-end metric without a bound"))?,
            ))
        })
        .collect()
}

/// The reported metrics are exactly the file's `end_to_end` (untraced) or
/// `per_layer` (traced) list, and the file agrees with the harness's
/// tables on units, directions and workload names.
pub fn verify(reported: &[Metric], traced: bool) -> Result<(), String> {
    let doc = load()?;
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = entries(&doc, key)?;
        if listed.len() != table.len() {
            return Err(format!(
                "{FILE} lists {} {key} metrics, the harness declares {}",
                listed.len(),
                table.len()
            ));
        }
        for def in table {
            let entry = listed
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(def.name))
                .ok_or_else(|| format!("{FILE}: {key} lacks {}", def.name))?;
            if str_field(entry, "unit")? != def.unit || str_field(entry, "better")? != def.better {
                return Err(format!(
                    "{FILE}: {} disagrees on unit or direction",
                    def.name
                ));
            }
        }
    }
    let workloads = entries(&doc, "workloads")?;
    let named: Vec<&str> = workloads
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    if named != Workload::ALL.map(Workload::name) {
        return Err(format!("{FILE}: workloads are {named:?}"));
    }
    let table = if traced { PER_LAYER } else { END_TO_END };
    for def in table {
        match reported.iter().filter(|m| m.name == def.name).count() {
            1 => {}
            n => return Err(format!("metric {} reported {n} times", def.name)),
        }
    }
    if reported.len() != table.len() {
        return Err(format!(
            "{} metrics reported, {} declared",
            reported.len(),
            table.len()
        ));
    }
    Ok(())
}
