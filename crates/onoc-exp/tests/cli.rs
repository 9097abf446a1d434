//! Exit codes of the `onoc` binary on specs it must refuse, and the
//! override flags as edits of the spec document.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use onoc_exp::Value;

/// A spec file path unique to this test.
fn temp_spec(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("onoc-cli-{name}-{}.toml", std::process::id()))
}

/// Runs `onoc run --spec <spec> --quick` plus `extra` flags.
fn run_onoc(spec: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_onoc"))
        .args(["run", "--spec"])
        .arg(spec)
        .arg("--quick")
        .args(extra)
        .output()
        .expect("onoc runs")
}

/// Writes `body` to a spec file unique to this test and runs it.
fn run_spec(name: &str, body: &str, extra: &[&str]) -> Output {
    let path = temp_spec(name);
    std::fs::write(&path, body).expect("temporary spec is writable");
    let output = run_onoc(&path, extra);
    let _ = std::fs::remove_file(&path);
    output
}

fn example(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples")
        .join(name)
}

fn nsga2_spec(overrides: &str) -> String {
    format!(
        "name = \"ga\"\n[workload]\nkind = \"paper-app\"\n\
         [allocator]\nkind = \"nsga2\"\n{overrides}"
    )
}

/// A refused run is a usage error: exit 2 with the offending field named
/// on stderr, not a panic.
fn assert_refused(output: &Output, field: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(field), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn tiny_population_exits_2() {
    let output = run_spec("population", &nsga2_spec("population = 2\n"), &[]);
    assert_refused(&output, "allocator.population");
}

#[test]
fn zero_generations_exits_2() {
    let output = run_spec("generations", &nsga2_spec("generations = 0\n"), &[]);
    assert_refused(&output, "allocator.generations");
}

#[test]
fn workers_flag_is_checked_like_the_engine_key() {
    let output = run_spec("workers", &nsga2_spec(""), &["--workers", "2"]);
    assert_refused(&output, "spec field `engine`");
}

#[test]
fn chrome_trace_flag_is_checked_like_the_telemetry_key() {
    let trace = std::env::temp_dir().join(format!("onoc-cli-trace-{}.json", std::process::id()));
    let output = run_onoc(
        &example("scenario_closed_loop.toml"),
        &["--export-chrome-trace", &trace.to_string_lossy()],
    );
    assert_refused(&output, "spec field `telemetry`");
}

/// The document's integers are `i64`: a seed flag past `i64::MAX` is
/// refused like the same literal in a spec file.
#[test]
fn seed_flags_past_i64_exit_2() {
    for (flag, field) in [("--fault-seed", "`faults.seed`"), ("--seed", "`seed`")] {
        let output = run_onoc(
            &example("scenario_faults.toml"),
            &[flag, "9223372036854775808"],
        );
        assert_refused(&output, field);
    }
}

/// `--fault-ber/--fault-seed/--transport` give the same bytes as a spec
/// file with those keys written in.
#[test]
fn override_flags_equal_the_keys_they_set() {
    let example = example("scenario_faults.toml");
    let flags = [
        "--json",
        "--fault-ber",
        "0.002",
        "--fault-seed",
        "99",
        "--transport",
        "pfc",
    ];
    let overridden = run_onoc(&example, &flags);
    assert_eq!(overridden.status.code(), Some(0));

    let raw = std::fs::read_to_string(&example).expect("the example spec is readable");
    let mut doc = Value::parse_toml(&raw).expect("the example spec parses");
    let Value::Table(root) = &mut doc else {
        unreachable!("TOML documents are tables")
    };
    let Some(Value::Table(faults)) = root.get_mut("faults") else {
        panic!("the example has a [faults] table")
    };
    faults.insert("ber".into(), Value::Float(0.002));
    faults.insert("seed".into(), Value::Int(99));
    let mut transport = Value::table();
    transport.insert("mode", "pfc");
    root.insert("transport".into(), transport);
    let written = run_spec("written", &doc.to_toml(), &["--json"]);
    assert_eq!(written.status.code(), Some(0));
    assert!(!overridden.stdout.is_empty());
    assert_eq!(overridden.stdout, written.stdout);
}
