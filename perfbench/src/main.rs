//! The ring-wdm-onoc benchmark: four workloads that together cover the
//! pipeline, each run in a fresh process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-dse|sat-sweep|tornado-256n|serve-churn> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--perturb-reference]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Untraced runs (`--trace 0`)
//! report the end-to-end metrics; traced runs report the per-layer ones.
//! All times are host wall time on one thread, except the traced
//! tornado-256n PDES comparison, which runs 2 workers plus the merger.

mod dse;
mod harness;
mod probe;
mod replay;
mod selftest;
mod serve;
mod sweep;
mod tornado;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use onoc_exp::Value;

use harness::{REFERENCE_SEED, RunResult, Settings, Workload};

/// Every workload, by name.
pub const WORKLOADS: &[&str] = &["paper-dse", "sat-sweep", "tornado-256n", "serve-churn"];

/// Reference digests of the simulated outputs at [`REFERENCE_SEED`].
const REFERENCE_FILE: &str = "perfbench/reference.toml";

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--self-test") {
        return selftest::run();
    }
    match parse(&args) {
        Ok(settings) => run(&settings, process_start),
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
                 [--perturb-reference] | --self-test",
                WORKLOADS.join("|")
            );
            ExitCode::from(2)
        }
    }
}

fn parse(args: &[String]) -> Result<Settings, String> {
    let mut workload = None;
    let mut seed = REFERENCE_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut perturb = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            "--perturb-reference" => perturb = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let reference = reference_digest(&workload)?.map(|d| if perturb { d ^ 1 } else { d });
    Ok(Settings {
        workload,
        seed,
        seconds,
        trace,
        reference,
    })
}

/// The recorded digest of `workload`, `None` when the file has no entry.
fn reference_digest(workload: &str) -> Result<Option<u64>, String> {
    let text = std::fs::read_to_string(REFERENCE_FILE)
        .map_err(|e| format!("cannot read {REFERENCE_FILE}: {e}"))?;
    let doc = Value::parse_toml(&text).map_err(|e| format!("{REFERENCE_FILE}: {e}"))?;
    let Some(entry) = doc.get(&workload.replace('-', "_")) else {
        return Ok(None);
    };
    let hex = entry
        .as_str()
        .and_then(|s| s.strip_prefix("0x"))
        .ok_or_else(|| format!("{REFERENCE_FILE}: {workload} is not a 0x-prefixed string"))?;
    u64::from_str_radix(hex, 16)
        .map(Some)
        .map_err(|e| format!("{REFERENCE_FILE}: {workload}: {e}"))
}

fn run(settings: &Settings, process_start: Instant) -> ExitCode {
    let result = match settings.workload.as_str() {
        "paper-dse" => dispatch(&dse::PaperDse, settings, process_start),
        "sat-sweep" => dispatch(&sweep::SatSweep, settings, process_start),
        "tornado-256n" => dispatch(&tornado::Tornado, settings, process_start),
        "serve-churn" => dispatch(&serve::ServeChurn, settings, process_start),
        _ => unreachable!("parse validated the workload name"),
    };
    let provenance = provenance(settings);
    println!("workload: {}", settings.workload);
    println!("provenance: {}", provenance.to_json_compact());
    for line in &result.report {
        println!("{line}");
    }
    eprint!("{}", harness::notes_text(&result.checks.notes));
    if let Some(mut artifact) = result.artifact {
        artifact.insert("provenance", provenance);
        let path = format!(
            "{}/trace-{}-{}.json",
            harness::OUT_DIR,
            settings.workload,
            settings.seed
        );
        let written = std::fs::create_dir_all(harness::OUT_DIR)
            .and_then(|()| std::fs::write(&path, artifact.to_json()));
        match written {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => eprintln!("warning: cannot write {path}: {e}"),
        }
    }
    println!("{}", harness::result_line(&result.checks, &result.metrics));
    ExitCode::SUCCESS
}

fn dispatch<W: Workload>(workload: &W, settings: &Settings, start: Instant) -> RunResult {
    if settings.trace {
        harness::run_traced(workload, settings, start)
    } else {
        harness::run_untraced(workload, settings, start)
    }
}

/// Seed, host, build and thread facts every result records.
fn provenance(settings: &Settings) -> Value {
    let mut doc = Value::table();
    doc.insert("workload", settings.workload.as_str());
    doc.insert("seed", settings.seed);
    doc.insert("seconds", settings.seconds);
    doc.insert("trace", settings.trace);
    doc.insert(
        "host_cores",
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
    );
    doc.insert("git_rev", git_rev());
    // Untraced runs are serial; the traced tornado-256n run adds the
    // 2-worker PDES comparison (2 shard threads plus the merger).
    let threads: usize = if settings.trace && settings.workload == "tornado-256n" {
        tornado::PDES_WORKERS + 1
    } else {
        1
    };
    doc.insert("threads", threads);
    doc
}

/// The checked-out commit, read from `.git/HEAD`; "unknown" outside a
/// git checkout.
fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                line.strip_suffix(reference)
                    .map(|rev| rev.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
