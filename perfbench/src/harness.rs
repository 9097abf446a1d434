//! The run loop shared by every workload: repeated set-up, closed-loop
//! timed passes, output checks, and the traced run's replays.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use onoc_exp::Value;

use crate::trace::{SelfTime, Span, Tracer};

/// Where runs leave their artifacts (git-ignored).
pub const OUT_DIR: &str = "perfbench/out";

/// Seed whose outputs are pinned by `reference.toml`.
pub const REFERENCE_SEED: u64 = 2017;

/// Set-ups per run: at least `SETUP_MIN_REPEATS`, and more while their
/// total stays under `SETUP_MIN_SECONDS`, so a set-up of microseconds is
/// still the median of many samples. `setup_s` is their median.
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_MIN_SECONDS: f64 = 1.0;
const SETUP_MAX_REPEATS: usize = 1_000_000;

/// End-to-end metrics every untraced run reports, with units.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB")];

/// Metrics every traced run reports, with units. A layer the workload
/// does not exercise reports 0. The `out.` entries are the workload's
/// simulated outputs; they are seed-deterministic, so the traced run
/// reports the same values an untraced run prints.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wa.gen_ms.p50", "ms"),
    ("wa.gen_ms.tail", "ms"),
    ("wa.evals", "count"),
    ("wa.valid_ratio", "ratio"),
    ("wa.distinct_ratio", "ratio"),
    ("wa.eval_ns", "ns"),
    ("wa.check_ns", "ns"),
    ("wa.sort_us", "us"),
    ("app.schedule_ns", "ns"),
    ("topo.spectrum_ns", "ns"),
    ("topo.budget_us", "us"),
    ("sim.energy_model_ms", "ms"),
    ("traffic.gen_ns_per_msg", "ns"),
    ("sim.engine_ns_per_msg", "ns"),
    ("sim.ns_per_fact", "ns"),
    ("sim.facts_per_msg", "count"),
    ("sim.blocked_per_msg", "ratio"),
    ("sim.fold_ns_per_msg", "ns"),
    ("sim.pdes_speedup", "x"),
    ("sim.pdes_threads", "count"),
    ("serve.ns_per_session", "ns"),
    ("serve.gen_ms", "ms"),
    ("serve.pack_ratio", "ratio"),
    ("serve.defrag_runs", "count"),
    ("serve.defrag_moves", "count"),
    ("wa.ledger.grant_ns", "ns"),
    ("wa.ledger.release_ns", "ns"),
    ("wa.ledger.defrag_us", "us"),
    ("exp.spec_parse_us", "us"),
    ("exp.render_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("out.failed_frac", "ratio"),
    ("out.best_exec_kcc", "kcc"),
    ("out.front_hv", "kcc.fJ"),
    ("out.paper_err_pct", "%"),
    ("out.pj_per_bit", "pJ/bit"),
    ("out.sat_rate", "msg/node/cc"),
    ("out.latency_p99_cycles", "cycles"),
    ("out.admit_p99_cycles", "cycles"),
    ("out.blocked_frac", "ratio"),
];

/// One named measurement.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, value: f64) -> Metric {
    Metric { name, value }
}

/// Operations attempted and failed, with a note per failure.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts `ops` operations, `failed` of which failed.
    pub fn count(&mut self, ops: usize, failed: usize) {
        self.attempted += ops as u64;
        self.failed += failed.min(ops) as u64;
    }

    /// Records one extra operation (a check that only the traced run
    /// performs, such as serial vs parallel equality).
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.count(1, usize::from(!ok));
        if !ok {
            self.notes.push(what());
        }
    }
}

/// Collects failure notes of one output check.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Operations (of one pass) that failed.
    pub failed: usize,
    pub notes: Vec<String>,
}

impl Verdict {
    /// Fails `ops` operations when `ok` is false.
    pub fn require(&mut self, ok: bool, ops: usize, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += ops;
            self.notes.push(what());
        }
    }
}

/// Shared state of one benchmark process.
#[derive(Debug)]
pub struct Bench {
    pub seed: u64,
    pub tracer: Tracer,
}

/// A benchmark workload: set-up, one timed pass, and its checks.
pub trait Workload {
    type State;
    type Output;

    /// Builds everything a pass needs; timed as `setup_s`.
    fn setup(&self, bench: &mut Bench) -> Self::State;

    /// One closed-loop job; timed as `run_s`.
    fn pass(&self, bench: &mut Bench, state: &mut Self::State) -> Self::Output;

    /// Operations one pass performs (the unit of `attempted`).
    fn operations(&self, output: &Self::Output) -> usize;

    /// Writes the canonical text of a pass's simulated outputs: passes
    /// must agree on it, and at [`REFERENCE_SEED`] its digest must match
    /// the reference.
    fn canonical(&self, output: &Self::Output, out: &mut dyn std::fmt::Write) -> std::fmt::Result;

    /// Seed-independent invariants of one pass's outputs.
    fn check(&self, state: &mut Self::State, output: &Self::Output) -> Verdict;

    /// The workload's simulated headline outputs (`out.` metrics).
    fn outputs(&self, output: &Self::Output) -> Vec<Metric>;

    /// Traced run only: layer replays and their metrics. Checks that need
    /// the replays are counted into `checks`.
    fn layers(
        &self,
        bench: &mut Bench,
        state: &mut Self::State,
        output: &Self::Output,
        checks: &mut Checks,
    ) -> Vec<Metric>;
}

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Settings {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Expected digest at the reference seed (`None`: no reference).
    pub reference: Option<u64>,
}

/// What one run reports.
#[derive(Debug)]
pub struct RunResult {
    pub checks: Checks,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub report: Vec<String>,
    /// Extra JSON written to the traced run's artifact.
    pub artifact: Option<Value>,
}

#[allow(clippy::cast_precision_loss)]
fn secs(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64 / 1e9
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolation quantile of a non-empty sample.
#[allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The highest of p50/p90/p99/p99.9 that leaves at least ten samples
/// beyond it.
#[allow(clippy::cast_precision_loss)]
pub fn tail(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    let q = [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|q| n * (1.0 - q) >= 10.0)
        .unwrap_or(0.5);
    quantile(values, q)
}

/// FNV-1a, 64 bit, over everything written to it: the digest of a
/// canonical output text, taken without holding the text in memory.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

fn digest_of<W: Workload>(workload: &W, output: &W::Output) -> u64 {
    let mut digest = Digest::new();
    workload
        .canonical(output, &mut digest)
        .expect("digests accept every write");
    digest.value()
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unavailable.
#[allow(clippy::cast_precision_loss)]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Checks a pass's outputs against the first pass, the invariants and,
/// at the reference seed, the reference digest.
struct OutputCheck {
    /// Digest of the first pass's canonical outputs.
    first: Option<u64>,
    /// Failed operations per pass when the pass equals the first.
    failed_if_equal: usize,
}

impl OutputCheck {
    fn new() -> Self {
        OutputCheck {
            first: None,
            failed_if_equal: 0,
        }
    }

    fn observe<W: Workload>(
        &mut self,
        workload: &W,
        settings: &Settings,
        state: &mut W::State,
        output: &W::Output,
        checks: &mut Checks,
    ) {
        let ops = workload.operations(output);
        let found = digest_of(workload, output);
        let Some(first) = self.first else {
            let mut verdict = workload.check(state, output);
            if settings.seed == REFERENCE_SEED {
                let expected = settings.reference;
                verdict.require(expected == Some(found), ops, || match expected {
                    Some(e) => format!("digest {found:#018x} differs from reference {e:#018x}"),
                    None => format!("no reference digest recorded (found {found:#018x})"),
                });
                if expected != Some(found) {
                    save_canonical(workload, settings, output);
                }
            }
            self.failed_if_equal = verdict.failed.min(ops);
            checks.notes.extend(verdict.notes);
            checks.count(ops, self.failed_if_equal);
            self.first = Some(found);
            return;
        };
        if first == found {
            checks.count(ops, self.failed_if_equal);
        } else {
            checks.count(ops, ops);
            checks
                .notes
                .push("a repeated pass produced different outputs".into());
        }
    }
}

/// Leaves the canonical text of a mismatching output for diffing; losing
/// it costs only that convenience.
fn save_canonical<W: Workload>(workload: &W, settings: &Settings, output: &W::Output) {
    let mut text = String::new();
    if workload.canonical(output, &mut text).is_ok() && std::fs::create_dir_all(OUT_DIR).is_ok() {
        let path = format!("{OUT_DIR}/{}-canonical.txt", settings.workload);
        let _ = std::fs::write(path, text);
    }
}

/// One untraced run: `setup_s`, `run_s` and `peak_rss_mb`.
pub fn run_untraced<W: Workload>(
    workload: &W,
    settings: &Settings,
    process_start: Instant,
) -> RunResult {
    let mut bench = Bench {
        seed: settings.seed,
        tracer: Tracer::new(process_start),
    };
    let mut setups = Vec::new();
    let mut state = None;
    let setup_start = Instant::now();
    while setups.len() < SETUP_MIN_REPEATS
        || (secs(setup_start) < SETUP_MIN_SECONDS && setups.len() < SETUP_MAX_REPEATS)
    {
        // The first set-up counts from process start.
        let start = if setups.is_empty() {
            process_start
        } else {
            Instant::now()
        };
        drop(state.take());
        state = Some(workload.setup(&mut bench));
        setups.push(secs(start));
    }
    let mut state = state.expect("at least one set-up ran");

    let mut checks = Checks::default();
    let mut output_check = OutputCheck::new();
    let mut passes = Vec::new();
    // Peak RSS of set-up plus one pass, read before the output checks
    // allocate: later passes repeat the same work, so their high-water
    // mark would only add allocator fragmentation that grows with the
    // number of passes.
    let mut peak_rss = None;
    let last = loop {
        let start = Instant::now();
        let output = workload.pass(&mut bench, &mut state);
        passes.push(secs(start));
        peak_rss.get_or_insert_with(peak_rss_mb);
        output_check.observe(workload, settings, &mut state, &output, &mut checks);
        // Closed loop: start another pass only if it should fit. The
        // budget counts pass time only, so the output checks after the
        // first pass do not cost passes.
        if passes.iter().sum::<f64>() + median(&passes) > settings.seconds {
            break output;
        }
    };

    let run_s = median(&passes);
    let mut report = vec![
        format!(
            "passes: {} (run_s median of {:?} s)",
            passes.len(),
            passes.iter().map(|p| round(*p, 4)).collect::<Vec<_>>()
        ),
        format!(
            "set-ups: {} (setup_s median; first {} s, max {} s)",
            setups.len(),
            round(setups[0], 6),
            round(setups.iter().copied().fold(0.0, f64::max), 6)
        ),
    ];
    let failed_frac = frac(checks.failed, checks.attempted);
    let mut printed = vec![metric("failed_frac", failed_frac)];
    printed.extend(workload.outputs(&last));
    for m in &printed {
        report.push(format!(
            "{:<22} {:>16} {}",
            m.name,
            m.value,
            unit_of(&format!("out.{}", m.name))
        ));
    }
    RunResult {
        checks,
        metrics: vec![
            metric("setup_s", median(&setups)),
            metric("run_s", run_s),
            metric("peak_rss_mb", peak_rss.expect("at least one pass ran")),
        ],
        report,
        artifact: None,
    }
}

/// One traced run: spans around every layer call, the layer replays, and
/// the per-layer metrics derived from them.
pub fn run_traced<W: Workload>(
    workload: &W,
    settings: &Settings,
    process_start: Instant,
) -> RunResult {
    let mut bench = Bench {
        seed: settings.seed,
        tracer: Tracer::new(process_start),
    };
    bench.tracer.set_enabled(true);
    let setup_span = bench.tracer.begin("setup");
    let mut state = workload.setup(&mut bench);
    bench.tracer.end(setup_span);

    // Untraced and traced passes alternate, so drift hits both alike.
    let mut checks = Checks::default();
    let mut output_check = OutputCheck::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut traced_runs = Vec::new();
    let mut last = None;
    loop {
        for enabled in [false, true] {
            bench.tracer.set_enabled(enabled);
            bench.tracer.next_run();
            if enabled {
                traced_runs.push(bench.tracer.run());
            }
            let span = bench.tracer.begin("pass");
            let start = Instant::now();
            let output = workload.pass(&mut bench, &mut state);
            let took = secs(start);
            bench.tracer.end(span);
            if enabled { &mut traced } else { &mut plain }.push(took);
            output_check.observe(workload, settings, &mut state, &output, &mut checks);
            last = Some(output);
        }
        if plain.iter().chain(&traced).sum::<f64>() + 2.0 * median(&plain) > settings.seconds {
            break;
        }
    }
    let last = last.expect("at least one pass ran");
    let run_s = median(&plain);
    let overhead_pct = (median(&traced) / run_s - 1.0) * 100.0;

    bench.tracer.set_enabled(true);
    bench.tracer.next_run();
    let replay_span = bench.tracer.begin("replay");
    let mut measured = workload.layers(&mut bench, &mut state, &last, &mut checks);
    bench.tracer.end(replay_span);
    measured.push(metric("trace.overhead_pct", overhead_pct));
    measured.push(metric(
        "out.failed_frac",
        frac(checks.failed, checks.attempted),
    ));
    for m in workload.outputs(&last) {
        let name = PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .find(|n| n.strip_prefix("out.") == Some(m.name))
            .expect("every workload output is declared as an out. metric");
        measured.push(metric(name, m.value));
    }

    // Every declared metric, 0 where the workload bypasses the layer.
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|(name, _)| {
            let value = measured
                .iter()
                .find(|m| m.name == *name)
                .map_or(0.0, |m| m.value);
            metric(name, value)
        })
        .collect();
    for m in &measured {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == m.name),
            "undeclared layer metric {}",
            m.name
        );
    }

    let mut report = vec![format!(
        "passes: {} untraced {:?} s, {} traced {:?} s",
        plain.len(),
        plain.iter().map(|p| round(*p, 4)).collect::<Vec<_>>(),
        traced.len(),
        traced.iter().map(|p| round(*p, 4)).collect::<Vec<_>>()
    )];
    // The traced jobs' spans break the job down; set-up and replay spans
    // are not part of a job, so their share of run_s is a size
    // comparison, not a breakdown.
    let in_job = |span: &Span| traced_runs.contains(&span.run);
    let job_table = self_time_table(
        &bench.tracer.self_times(in_job),
        traced.iter().sum::<f64>() * 1e3,
        "traced jobs (share of job time)",
        &mut report,
    );
    let other_table = self_time_table(
        &bench.tracer.self_times(|span| !in_job(span)),
        run_s * 1e3,
        "set-up and replays (size vs run_s)",
        &mut report,
    );
    let mut artifact = Value::table();
    artifact.insert("run_s_untraced", run_s);
    artifact.insert("job_self_times", job_table);
    artifact.insert("other_self_times", other_table);
    artifact.insert("spans", bench.tracer.to_value());
    RunResult {
        checks,
        metrics,
        report,
        artifact: Some(artifact),
    }
}

/// Prints a self-time table with each span's share of `base_ms`, and
/// returns it as JSON.
fn self_time_table(
    times: &BTreeMap<&'static str, SelfTime>,
    base_ms: f64,
    title: &str,
    report: &mut Vec<String>,
) -> Value {
    report.push(format!(
        "{title:<34} {:>6} {:>12} {:>12} {:>8}",
        "count", "total_ms", "self_ms", "share%"
    ));
    let mut table = Value::table();
    for (name, t) in times {
        let share = t.self_ms / base_ms * 100.0;
        report.push(format!(
            "  {name:<32} {:>6} {:>12.3} {:>12.3} {:>8.2}",
            t.count, t.total_ms, t.self_ms, share
        ));
        let mut row = Value::table();
        row.insert("count", t.count);
        row.insert("total_ms", t.total_ms);
        row.insert("self_ms", t.self_ms);
        row.insert("share_pct", share);
        table.insert(*name, row);
    }
    table
}

#[allow(clippy::cast_precision_loss)]
pub fn frac(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn round(x: f64, digits: i32) -> f64 {
    let scale = 10f64.powi(digits);
    (x * scale).round() / scale
}

/// Unit of a declared metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(checks: &Checks, metrics: &[Metric]) -> String {
    let mut table = Value::table();
    for m in metrics {
        let mut entry = Value::table();
        entry.insert("value", m.value);
        entry.insert("unit", unit_of(m.name));
        table.insert(m.name, entry);
    }
    let mut doc = Value::table();
    doc.insert("correct", checks.failed == 0);
    doc.insert("attempted", checks.attempted);
    doc.insert("failed", checks.failed);
    doc.insert("metrics", table);
    doc.to_json_compact()
}

/// Formats notes for stderr.
pub fn notes_text(notes: &[String]) -> String {
    let mut out = String::new();
    for note in notes.iter().take(20) {
        let _ = writeln!(out, "check failed: {note}");
    }
    if notes.len() > 20 {
        let _ = writeln!(out, "... and {} more", notes.len() - 20);
    }
    out
}
