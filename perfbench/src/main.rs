//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <line|bist_sweep|serve_warm|all> [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --smoke
//! ```
//!
//! One workload runs in one process.  The untraced run (`--trace 0`)
//! prints every end-to-end metric; the traced run (`--trace 1`) prints the
//! per-layer metrics, measured by spans the benchmark records around calls
//! into the library's public functions.  The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! `README.md` next to this file documents the workloads and every metric.

mod bist;
mod digests;
mod line;
mod query;
mod serve;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

pub const WORKLOADS: [&str; 3] = ["line", "bist_sweep", "serve_warm"];

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics: `(name, unit)`.  A time is read from the span named
/// without the unit suffix (see `span_of`); the other metrics are counts
/// and ratios the workloads set themselves.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("netlist.generate_s", "s"),
    ("fault.universe_s", "s"),
    ("fault.faults", "count"),
    ("fault.grade_s", "s"),
    ("fault.drop_frac", "ratio"),
    ("tpg.suite_build_s", "s"),
    ("tpg.patterns", "count"),
    ("tpg.coverage", "ratio"),
    ("sim.good_machine_s", "s"),
    ("sim.cache_hits", "count"),
    ("sim.cache_misses", "count"),
    ("bist.stumps_s", "s"),
    ("bist.dictionary_s", "s"),
    ("bist.aliasing_s", "s"),
    ("bist.aliased", "count"),
    ("manufacturing.generate_s", "s"),
    ("manufacturing.test_s", "s"),
    ("manufacturing.tabulate_s", "s"),
    ("manufacturing.stream_s", "s"),
    ("manufacturing.chips", "count"),
    ("core.forward_us", "us"),
    ("core.inverse_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.handle_us.forward", "us"),
    ("serve.handle_us.inverse", "us"),
    ("serve.handle_us.bist", "us"),
    ("serve.handle_us.line", "us"),
    ("serve.handle_us.lot", "us"),
    ("serve.first_use_ms", "ms"),
    ("serve.artifact_hits", "count"),
    ("serve.artifact_misses", "count"),
    ("serve.fault_sim_passes", "count"),
    ("serve.chips_per_s", "chips/s"),
    ("serve.model_query_us", "us"),
    ("exec.session_s", "s"),
    ("exec.join_wait_s", "s"),
    ("exec.park_s", "s"),
    ("exec.cpu_util", "ratio"),
    ("obs.trace_overhead_frac", "ratio"),
    ("obs.unattributed_frac", "ratio"),
];

/// How one workload run is driven.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    /// Measuring time; a traced run spends half of it untraced.
    pub seconds: f64,
    pub traced: bool,
    /// Passes made even when `seconds` runs out first.
    pub min_passes: usize,
    /// Set-ups made to report the median set-up time.
    pub setups: usize,
}

/// A measured value with the samples behind it.
#[derive(Debug, Clone)]
pub struct Measure {
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Measure {
    pub fn median(samples: Vec<f64>) -> Measure {
        Measure {
            value: util::median(&samples),
            samples,
        }
    }

    pub fn single(value: f64) -> Measure {
        Measure {
            value,
            samples: Vec::new(),
        }
    }
}

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks, each with its reason.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, Measure>,
    /// `key = value` facts recorded with the result.
    pub info: Vec<(String, String)>,
    /// The digest of the run's first op.
    pub digest: Option<u64>,
    pub digest_recorded: bool,
}

impl Report {
    pub fn set(&mut self, name: &'static str, measure: Measure) {
        self.metrics.insert(name, measure);
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// Counts one op and its outcome.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(problem) = outcome {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(problem);
            }
        }
    }
}

/// Runs `f`, turning a panic into an error.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .map_or_else(|| "panic".to_string(), |m| format!("panic: {m}"))),
    }
}

/// Repeats `pass` until `seconds` have passed and at least `min` passes
/// ran; returns each pass's wall time in seconds with its result.  After
/// each pass `between` is told the share of `seconds` used so far.
pub fn repeat<T>(
    seconds: f64,
    min: usize,
    mut pass: impl FnMut(usize) -> T,
    mut between: impl FnMut(f64),
) -> Vec<(f64, T)> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || started.elapsed().as_secs_f64() < seconds {
        let at = Instant::now();
        let result = pass(out.len());
        out.push((at.elapsed().as_secs_f64(), result));
        between(started.elapsed().as_secs_f64() / seconds.max(f64::MIN_POSITIVE));
    }
    out
}

/// A workload's set-up, timed.  It is made once before the passes and
/// made again (the result dropped) between passes until `ctx.setups`
/// samples are taken, spread evenly over the run, so the reported median
/// does not hang on one moment of a machine whose speed drifts.
pub struct Setup<F> {
    make: F,
    times: Vec<f64>,
    wanted: usize,
    error: Option<String>,
}

impl<T, F: FnMut() -> Result<T, String>> Setup<F> {
    pub fn new(ctx: &Ctx, make: F) -> Setup<F> {
        Setup {
            make,
            times: Vec::new(),
            wanted: if ctx.traced { 1 } else { ctx.setups.max(1) },
            error: None,
        }
    }

    pub fn make(&mut self) -> Result<T, String> {
        let at = Instant::now();
        let made = guarded(&mut self.make)?;
        self.times.push(at.elapsed().as_secs_f64());
        Ok(made)
    }

    /// Takes the samples due once `share` of the run has passed.
    pub fn resample(&mut self, share: f64) {
        let due = ((share * self.wanted as f64).floor() as usize + 1).min(self.wanted);
        while self.error.is_none() && self.times.len() < due {
            if let Err(error) = self.make() {
                self.error = Some(error);
            }
        }
    }

    /// Takes any samples still due and reports their median as `setup_s`.
    pub fn finish(mut self, report: &mut Report) -> Result<(), String> {
        self.resample(1.0);
        report.set("setup_s", Measure::median(self.times));
        self.error.map_or(Ok(()), Err)
    }
}

/// One traced pass: its wall and CPU time and the telemetry registry's
/// counter deltas.
pub struct PassRecord {
    pub op: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub counters: Vec<(String, u64)>,
}

/// Runs `body` as traced pass `op`: inside a root `pass` span, with the
/// telemetry registry snapshotted around it.
pub fn traced_pass<T>(op: u64, body: impl FnOnce() -> T) -> (T, PassRecord) {
    trace::set_op(op);
    let before = lsiq_obs::snapshot();
    let cpu = util::process_cpu_s();
    let at = Instant::now();
    let out = trace::span("pass", body);
    let wall_s = at.elapsed().as_secs_f64();
    let cpu_s = util::process_cpu_s() - cpu;
    let counters = lsiq_obs::snapshot().delta_since(&before).counters;
    trace::set_op(trace::AUX);
    (
        out,
        PassRecord {
            op,
            wall_s,
            cpu_s,
            counters,
        },
    )
}

/// The per-layer metrics every workload derives the same way from its
/// trace: span self times, registry deltas, CPU use and trace overhead.
pub fn trace_metrics(
    report: &mut Report,
    analysis: &trace::Analysis,
    passes: &[PassRecord],
    untraced_pass_s: f64,
    workers: usize,
) {
    let ops: Vec<u64> = passes.iter().map(|p| p.op).collect();
    for (name, unit) in PER_LAYER {
        match span_of(name, unit) {
            Some((span, None)) => {
                // Per pass where the layer runs inside the passes, else the
                // one-off measurement after them.
                if ops.iter().any(|&op| analysis.has(op, &span)) {
                    let per_pass = ops.iter().map(|&op| analysis.op_self_s(op, &span));
                    report
                        .metrics
                        .entry(name)
                        .or_insert(Measure::median(per_pass.collect()));
                } else if analysis.has(trace::AUX, &span) {
                    report
                        .metrics
                        .entry(name)
                        .or_insert(Measure::single(analysis.op_self_s(trace::AUX, &span)));
                }
            }
            Some((span, Some(ns_per_unit))) => {
                let calls: Vec<f64> = analysis
                    .calls_ns(&span)
                    .iter()
                    .map(|ns| ns / ns_per_unit)
                    .collect();
                if !calls.is_empty() {
                    report.metrics.entry(name).or_insert(Measure::median(calls));
                }
            }
            None => {}
        }
    }
    let per_pass = |f: &dyn Fn(&PassRecord) -> f64| Measure::median(passes.iter().map(f).collect());
    let counter = |pass: &PassRecord, name: &str| {
        pass.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v as f64)
    };
    report.set(
        "fault.drop_frac",
        per_pass(&|p| {
            let faults = counter(p, "engine.faults");
            if faults > 0.0 {
                counter(p, "engine.drops") / faults
            } else {
                0.0
            }
        }),
    );
    report.set(
        "exec.join_wait_s",
        per_pass(&|p| counter(p, "pool.join_wait_ns") / 1e9),
    );
    report.set(
        "exec.park_s",
        per_pass(&|p| counter(p, "pool.park_ns") / 1e9),
    );
    report.set(
        "exec.cpu_util",
        per_pass(&|p| p.cpu_s / (p.wall_s * workers as f64)),
    );
    let traced = Measure::median(passes.iter().map(|p| p.wall_s).collect());
    report.set(
        "obs.trace_overhead_frac",
        Measure::single(traced.value / untraced_pass_s - 1.0),
    );
    // The pass span's self time is what no layer span accounts for; the
    // worst pass is reported.
    let unattributed = passes
        .iter()
        .map(|p| analysis.op_self_s(p.op, "pass") / p.wall_s)
        .fold(0.0, f64::max);
    report.set("obs.unattributed_frac", Measure::single(unattributed));
    let walls = |samples: &[f64]| {
        samples
            .iter()
            .map(|v| format!("{v:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    report.info(
        "traced_pass_s",
        format!("{:.4} ({})", traced.value, walls(&traced.samples)),
    );
    let untraced = report
        .metrics
        .get("pass_s")
        .map_or(String::new(), |m| walls(&m.samples));
    report.info(
        "untraced_pass_s",
        format!("{untraced_pass_s:.4} ({untraced})"),
    );
}

/// The span a per-layer metric is read from: a metric in seconds is the
/// summed self time per pass of its span, one in `us` or `ms` the median
/// self time of one call.  Returns the span and the nanoseconds per unit
/// of a per-call metric.
fn span_of(metric: &str, unit: &str) -> Option<(String, Option<f64>)> {
    if let Some(op) = metric.strip_prefix("serve.handle_us.") {
        return Some((format!("serve.handle.{op}"), Some(1e3)));
    }
    let (suffix, per_call) = match unit {
        "s" => ("_s", None),
        "us" => ("_us", Some(1e3)),
        "ms" => ("_ms", Some(1e6)),
        _ => return None,
    };
    metric
        .strip_suffix(suffix)
        .map(|span| (span.to_string(), per_call))
}

/// Writes the span dump of a traced run next to the benchmark.
pub fn write_dump(
    workload: &str,
    seed: u64,
    analysis: &trace::Analysis,
    passes: &[PassRecord],
) -> String {
    let extra: Vec<String> = passes
        .iter()
        .map(|p| {
            let counters: Vec<String> = p
                .counters
                .iter()
                .map(|(name, value)| format!("\"{name}\":{value}"))
                .collect();
            format!(
                "{{\"pass\":{},\"wall_s\":{},\"cpu_s\":{},\"unattributed_s\":{},\"registry\":{{{}}}}}",
                p.op,
                p.wall_s,
                p.cpu_s,
                analysis.op_self_s(p.op, "pass"),
                counters.join(",")
            )
        })
        .collect();
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("trace-{workload}-{seed}.jsonl"));
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, analysis.dump(&extra)));
    match written {
        Ok(()) => path.display().to_string(),
        Err(error) => format!("(not written: {error})"),
    }
}

fn run_workload(name: &str, ctx: &Ctx) -> Report {
    let mut report = Report::default();
    report.info("workload", name);
    report.info("seed", ctx.seed);
    report.info("nproc", util::nproc());
    report.info(
        "git_revision",
        util::command_line("git", &["rev-parse", "HEAD"]),
    );
    report.info("rustc", util::command_line("rustc", &["--version"]));
    let ignored: Vec<String> = std::env::vars_os()
        .filter_map(|(key, _)| key.into_string().ok())
        .filter(|key| key.starts_with("LSIQ_"))
        .collect();
    report.info(
        "ignored_env",
        if ignored.is_empty() {
            "none".to_string()
        } else {
            ignored.join(",")
        },
    );
    let outcome = match name {
        "line" => line::run(ctx, &mut report),
        "bist_sweep" => bist::run(ctx, &mut report),
        _ => serve::run(ctx, &mut report),
    };
    if let Err(problem) = outcome {
        report.attempted = report.attempted.max(1);
        report.failed = report.failed.max(1);
        report.problems.push(problem);
    }
    report.set("peak_rss_mb", Measure::single(util::peak_rss_mb()));
    report
}

/// The metrics the result line carries: every end-to-end metric untraced,
/// every per-layer metric traced, in catalogue order.
fn result_metrics(report: &Report, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
    let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    catalogue
        .iter()
        .map(|&(name, unit)| {
            let value = report.metrics.get(name).map_or(0.0, |m| m.value);
            (name, unit, value)
        })
        .collect()
}

fn correct(report: &Report) -> bool {
    report.failed == 0 && report.problems.is_empty()
}

fn print_report(report: &Report, traced: bool) {
    for (key, value) in &report.info {
        println!("{key} = {value}");
    }
    if let Some(digest) = report.digest {
        let source = if report.digest_recorded {
            "recorded"
        } else {
            "not recorded for this seed; checked for determinism"
        };
        println!("digest = {digest:#018x} ({source})");
    }
    for problem in &report.problems {
        println!("problem: {problem}");
    }
    let fail_frac = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "fail_frac = {fail_frac} ratio ({} failed of {} ops)",
        report.failed, report.attempted
    );
    for (name, unit, value) in result_metrics(report, traced) {
        let mut line = format!("{name} = {value:.6} {unit}");
        if let Some(measure) = report.metrics.get(name) {
            if !measure.samples.is_empty() {
                let _ = write!(line, " (median of {} samples", measure.samples.len());
                match util::tail_percentile(&measure.samples) {
                    Some((p, v)) => {
                        let _ = write!(line, ", p{p} = {v:.6}");
                    }
                    None => line.push_str(", too few samples for a tail percentile"),
                }
                if measure.samples.len() <= 64 {
                    let samples: Vec<String> =
                        measure.samples.iter().map(|v| format!("{v:.4}")).collect();
                    let _ = write!(line, ": {}", samples.join(" "));
                }
                line.push(')');
            }
        } else {
            line.push_str(" (not exercised by this workload)");
        }
        println!("{line}");
    }
    let metrics: Vec<String> = result_metrics(report, traced)
        .into_iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        correct(report),
        report.attempted,
        report.failed,
        metrics.join(",")
    );
}

/// The metric names `BENCHMARK.json` declares under `key`.
fn declared(key: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|error| format!("cannot read BENCHMARK.json: {error}"))?;
    let json = lsiq_serve::JsonValue::parse(&text).map_err(|error| error.to_string())?;
    let entries = json
        .get(key)
        .and_then(lsiq_serve::JsonValue::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?;
    Ok(entries
        .iter()
        .filter_map(|entry| entry.get("name").and_then(lsiq_serve::JsonValue::as_str))
        .map(str::to_string)
        .collect())
}

/// The benchmark's own test: every workload at the recorded seeds, one
/// pass each, untraced and traced.  Checks the result schema against
/// `BENCHMARK.json` and the output digests against the record.
fn smoke() -> Result<(), String> {
    let mut problems = Vec::new();
    let workloads = declared("workloads")?;
    if workloads != WORKLOADS {
        problems.push(format!(
            "BENCHMARK.json workloads {workloads:?} != {WORKLOADS:?}"
        ));
    }
    for (key, catalogue) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let names: Vec<&str> = catalogue.iter().map(|(name, _)| *name).collect();
        if declared(key)? != names {
            problems.push(format!(
                "BENCHMARK.json {key} differs from the metrics emitted"
            ));
        }
    }
    for workload in WORKLOADS {
        for (seed, traced) in [
            (digests::DEFAULT_SEED, false),
            (digests::HELD_OUT_SEED, false),
            (digests::DEFAULT_SEED, true),
        ] {
            let ctx = Ctx {
                seed,
                seconds: 0.0,
                traced,
                min_passes: 1,
                setups: 1,
            };
            let report = run_workload(workload, &ctx);
            let tag = format!("{workload} seed {seed} trace {}", u8::from(traced));
            if !correct(&report) {
                problems.push(format!("{tag}: incorrect: {:?}", report.problems));
            }
            let digest = report
                .digest
                .map_or("none".to_string(), |d| format!("{d:#018x}"));
            if !report.digest_recorded {
                problems.push(format!("{tag}: digest {digest} is not recorded"));
            }
            let missing: Vec<&str> = result_metrics(&report, traced)
                .iter()
                .filter(|(name, _, value)| {
                    !traced && !report.metrics.contains_key(name) || !value.is_finite()
                })
                .map(|(name, _, _)| *name)
                .collect();
            if !missing.is_empty() {
                problems.push(format!("{tag}: metrics missing or not finite: {missing:?}"));
            }
            println!("smoke {tag}: {} ops, digest {digest}", report.attempted);
        }
    }
    if problems.is_empty() {
        println!("smoke: ok");
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

/// Runs every workload, each in a process of its own.
fn run_all(args: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|error| error.to_string())?;
    let mut failed = Vec::new();
    for workload in WORKLOADS {
        let mut child_args = args.to_vec();
        child_args.extend(["--workload".to_string(), workload.to_string()]);
        let status = std::process::Command::new(&exe)
            .args(&child_args)
            .status()
            .map_err(|error| error.to_string())?;
        if !status.success() {
            failed.push(workload);
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("workloads failed: {failed:?}"))
    }
}

fn parse_args() -> Result<(String, Ctx, Vec<String>), String> {
    let mut workload = None;
    let mut ctx = Ctx {
        seed: digests::DEFAULT_SEED,
        seconds: 30.0,
        traced: false,
        min_passes: 3,
        setups: 9,
    };
    let mut passthrough = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            return Ok(("smoke".to_string(), ctx, passthrough));
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |what: &str| -> Result<f64, String> {
            value
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| format!("{flag}: {value:?} is not {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                continue;
            }
            "--seed" => {
                ctx.seed = value
                    .parse()
                    .map_err(|_| format!("--seed: {value:?} is not an unsigned integer"))?
            }
            "--seconds" => ctx.seconds = number("a number of seconds")?,
            "--trace" => {
                ctx.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: {value:?} is not 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
        passthrough.extend([flag, value]);
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?} or all)"
        ));
    }
    Ok((workload, ctx, passthrough))
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|(workload, ctx, passthrough)| match workload.as_str() {
        "smoke" => smoke(),
        "all" => run_all(&passthrough),
        name => {
            let report = run_workload(name, &ctx);
            print_report(&report, ctx.traced);
            Ok(())
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::FAILURE
        }
    }
}
