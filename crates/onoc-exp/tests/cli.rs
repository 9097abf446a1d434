//! Exit codes of the `onoc` binary on specs it must refuse.

use std::path::PathBuf;
use std::process::Command;

/// Writes `body` to a spec file unique to this test and runs
/// `onoc run --spec <file> --quick` on it.
fn run_spec(name: &str, body: &str) -> std::process::Output {
    let path: PathBuf =
        std::env::temp_dir().join(format!("onoc-cli-{name}-{}.toml", std::process::id()));
    std::fs::write(&path, body).expect("temporary spec is writable");
    let output = Command::new(env!("CARGO_BIN_EXE_onoc"))
        .args(["run", "--spec"])
        .arg(&path)
        .arg("--quick")
        .output()
        .expect("onoc runs");
    let _ = std::fs::remove_file(&path);
    output
}

fn nsga2_spec(overrides: &str) -> String {
    format!(
        "name = \"ga\"\n[workload]\nkind = \"paper-app\"\n\
         [allocator]\nkind = \"nsga2\"\n{overrides}"
    )
}

/// A degenerate GA setting is a usage error: exit 2 with the offending
/// field named on stderr, not a panic.
fn assert_refused(name: &str, overrides: &str, field: &str) {
    let output = run_spec(name, &nsga2_spec(overrides));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(field), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn tiny_population_exits_2() {
    assert_refused("population", "population = 2\n", "allocator.population");
}

#[test]
fn zero_generations_exits_2() {
    assert_refused("generations", "generations = 0\n", "allocator.generations");
}
