//! `--self-test`: the checker must catch a wrong output, and every metric
//! a run prints must be declared in `BENCHMARK.json` with its unit.
//!
//! For each workload it runs this binary three times, each in a fresh
//! process at the reference seed: with a perturbed reference digest
//! (which must report failed operations), untraced, and traced.

use std::process::{Command, ExitCode};

use onoc_exp::Value;

use crate::WORKLOADS;
use crate::harness::{END_TO_END, PER_LAYER};

const BENCHMARK_FILE: &str = "BENCHMARK.json";

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `(name, unit)` of every entry of one metric list in BENCHMARK.json.
fn declared(doc: &Value, list: &str) -> Result<Vec<(String, String)>, String> {
    doc.get(list)
        .and_then(Value::as_array)
        .ok_or(format!("{BENCHMARK_FILE} has no {list} list"))?
        .iter()
        .map(|entry| {
            let field = |key: &str| {
                entry
                    .get(key)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or(format!("{list} entry without a string {key}"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

/// Runs one benchmark process and parses its result line.
fn run_once(workload: &str, extra: &[&str]) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seconds", "1"])
        .args(extra)
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} {extra:?} exited with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    Value::parse_json(last).map_err(|e| format!("{workload} {extra:?}: result line: {e}"))
}

/// Every metric of a result is well named and declared with its unit.
fn metrics_declared(result: &Value, declared: &[(String, String)], context: &str) -> Vec<String> {
    let mut problems = Vec::new();
    let Some(metrics) = result.get("metrics").and_then(Value::as_table) else {
        return vec![format!("{context}: no metrics table")];
    };
    for (name, entry) in metrics {
        let unit = entry
            .get("unit")
            .and_then(Value::as_str)
            .unwrap_or_default();
        if !valid_name(name) {
            problems.push(format!("{context}: bad metric name {name:?}"));
        }
        if !declared.iter().any(|(n, u)| n == name && u == unit) {
            problems.push(format!("{context}: {name} [{unit}] is not declared"));
        }
    }
    for (name, _) in declared {
        if !metrics.contains_key(name) {
            problems.push(format!("{context}: declared {name} is missing"));
        }
    }
    problems
}

pub fn run() -> ExitCode {
    let mut problems = Vec::new();
    let doc = std::fs::read_to_string(BENCHMARK_FILE)
        .map_err(|e| e.to_string())
        .and_then(|text| Value::parse_json(&text).map_err(|e| e.to_string()));
    let (e2e, layers) = match doc
        .and_then(|doc| Ok((declared(&doc, "end_to_end")?, declared(&doc, "per_layer")?)))
    {
        Ok(lists) => lists,
        Err(e) => {
            eprintln!("self-test: {BENCHMARK_FILE}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The binary's declarations and BENCHMARK.json agree.
    for (list, ours, theirs) in [
        ("end_to_end", END_TO_END, &e2e),
        ("per_layer", PER_LAYER, &layers),
    ] {
        let ours: Vec<(String, String)> = ours
            .iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect();
        if ours != *theirs {
            problems.push(format!(
                "{list} in {BENCHMARK_FILE} differs from the binary's list"
            ));
        }
    }
    for workload in WORKLOADS {
        eprintln!("self-test: {workload}");
        match run_once(workload, &["--perturb-reference"]) {
            Ok(result) => {
                let failed = result.get("failed").and_then(Value::as_int).unwrap_or(0);
                let correct = result.get("correct").and_then(Value::as_bool);
                if failed == 0 || correct != Some(false) {
                    problems.push(format!(
                        "{workload}: a perturbed reference digest went unnoticed"
                    ));
                }
            }
            Err(e) => problems.push(e),
        }
        for (trace, list) in [("0", &e2e), ("1", &layers)] {
            match run_once(workload, &["--trace", trace]) {
                Ok(result) => {
                    if result.get("failed").and_then(Value::as_int) != Some(0) {
                        problems.push(format!("{workload} --trace {trace}: failed operations"));
                    }
                    problems.extend(metrics_declared(
                        &result,
                        list,
                        &format!("{workload} --trace {trace}"),
                    ));
                }
                Err(e) => problems.push(e),
            }
        }
    }
    for problem in &problems {
        eprintln!("self-test: {problem}");
    }
    if problems.is_empty() {
        eprintln!("self-test: passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
