//! The `line` workload: the Table 1 production line, cold, on the reduced
//! and the full-size device.
//!
//! Each pass opens a fresh `Session` (nothing is cached between passes) and
//! runs `Session::run_production_line` with the Table 1 ground truth on
//! both devices.  The traced run makes the same calls the session makes,
//! one public function at a time.

use crate::digests::{self, DigestCheck};
use crate::trace::{self, span};
use crate::util::{derived_seed, median, Digest};
use crate::{guarded, repeat, trace_metrics, traced_pass, write_dump, Ctx, Measure, Report, Setup};
use lsi_quality::{LineExperiment, LineSpec, Session};
use lsiq_exec::{MetricsMode, RunConfig};
use lsiq_fault::coverage::CoverageCurve;
use lsiq_fault::dictionary::FaultDictionary;
use lsiq_fault::simulator::{BuildEngine, EngineOptions};
use lsiq_fault::universe::FaultUniverse;
use lsiq_manufacturing::lot::ModelLotConfig;
use lsiq_netlist::circuit::Circuit;
use lsiq_sim::levelized::CompiledCircuit;
use lsiq_sim::pattern::PatternSet;
use std::hint::black_box;

/// The two devices every workload runs on: `(name, full_size)`.
pub const DEVICES: [(&str, bool); 2] = [("reduced", false), ("full", true)];

fn spec(full_size: bool) -> LineSpec {
    LineSpec {
        full_size,
        ..LineSpec::table1()
    }
}

/// Records the run's pinned configuration: workers and the engine each
/// device resolves to.
pub fn record_config(report: &mut Report, config: &RunConfig, devices: &[Circuit]) {
    report.info("workers", config.effective_workers());
    for ((name, _), circuit) in DEVICES.iter().zip(devices) {
        report.info(
            &format!("engine.{name}"),
            format!(
                "{} ({} gates)",
                config.engine_for_size(circuit.gate_count()).name(),
                circuit.gate_count()
            ),
        );
    }
}

/// The seed-independent part of a line: fault list and coverage curve.
fn suite_digest(line: &LineExperiment) -> u64 {
    let mut digest = Digest::new();
    digest.u64(line.universe_size as u64);
    for (_, state) in line.suite.fault_list.iter() {
        digest.u64(state.first_pattern().map_or(u64::MAX, |p| p as u64));
    }
    for &coverage in line.coverage.cumulative() {
        digest.f64(coverage);
    }
    digest.finish()
}

/// Checks one device's line and folds its statistics into `digest`.
/// Returns the suite digest.
fn finish_device(device: &str, line: &LineExperiment, digest: &mut Digest) -> Result<u64, String> {
    let suite = suite_digest(line);
    if let Some(want) = digests::line_suite(device) {
        if want != suite {
            return Err(format!(
                "{device} suite digest {suite:#018x} differs from the recorded {want:#018x}"
            ));
        }
    }
    digest.u64(suite);
    for row in line.experiment.rows() {
        digest.u64(row.patterns_applied as u64);
        digest.f64(row.fault_coverage);
        digest.u64(row.chips_failed as u64);
        digest.f64(row.fraction_failed);
    }
    digest.f64(line.observed_yield);
    digest.f64(line.observed_n0);
    Ok(suite)
}

/// `Session::run_production_line`, one public call at a time, each in a
/// span.
fn traced_line(session: &Session, full_size: bool) -> LineExperiment {
    let spec = spec(full_size);
    let circuit = span("netlist.generate", || {
        Session::reproduction_circuit(full_size)
    });
    let universe = span("fault.universe", || FaultUniverse::full(&circuit));
    let suite = span("tpg.suite_build", || {
        session.line_suite_builder(&circuit).build_cached(
            Some(session.context()),
            Some(session.good_machine_cache()),
            &circuit,
            &universe,
        )
    });
    let coverage = span("fault.coverage", || {
        CoverageCurve::from_fault_list(&suite.fault_list, suite.patterns.len())
    });
    let runner = session.lot_runner();
    let lot = span("manufacturing.generate", || {
        runner.generate_model_lot(&ModelLotConfig {
            chips: spec.chips,
            yield_fraction: spec.yield_fraction,
            n0: spec.n0,
            fault_universe_size: universe.len(),
            seed: session.config().base_seed(),
        })
    });
    let dictionary = span("fault.dictionary", || {
        FaultDictionary::from_fault_list(&suite.fault_list)
    });
    let records = span("manufacturing.test", || runner.test_lot(&dictionary, &lot));
    let checkpoints: Vec<usize> = (1..=coverage.pattern_count()).collect();
    let experiment = span("manufacturing.tabulate", || {
        runner.experiment(&records, &coverage, &checkpoints)
    });
    LineExperiment {
        universe_size: universe.len(),
        suite,
        coverage,
        experiment,
        observed_yield: lot.observed_yield(),
        observed_n0: lot.observed_n0(),
        circuit,
        test_mode: session.config().test_mode(),
    }
}

/// The set-up of `line` and `bist_sweep`: generate both devices and spawn
/// (and join) a worker pool.
pub fn open_devices(config: RunConfig) -> Vec<Circuit> {
    let devices = DEVICES
        .iter()
        .map(|&(_, full)| Session::reproduction_circuit(full))
        .collect();
    drop(Session::new(config));
    devices
}

/// Packed good-machine evaluation of `patterns`, 64 at a time.
pub fn good_machine(circuit: &Circuit, patterns: &PatternSet) -> u64 {
    let compiled = CompiledCircuit::new(circuit);
    let width = circuit.primary_inputs().len();
    let mut words = Vec::new();
    let mut fold = 0u64;
    for block in 0..patterns.block_count() {
        let (inputs, _) = patterns.pack_block(width, block);
        compiled.node_words_into(&inputs, &mut words);
        fold ^= words.iter().fold(0, |acc, w| acc ^ w);
    }
    fold
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let config = RunConfig::default().with_base_seed(derived_seed(ctx.seed, "line.lot"));
    let mut setup = Setup::new(ctx, || Ok(open_devices(config)));
    let devices = setup.make()?;
    record_config(report, &config, &devices);
    report.info("lot_seed", config.base_seed());

    let mut check = DigestCheck::new("line", ctx.seed);
    report.digest_recorded = check.is_recorded();
    let untraced_seconds = if ctx.traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let mut suites = Vec::new();
    let passes = repeat(
        untraced_seconds,
        ctx.min_passes,
        |_| {
            guarded(|| {
                let session = Session::new(config);
                let mut digest = Digest::new();
                suites.clear();
                for (device, full_size) in DEVICES {
                    let line = session
                        .run_production_line(&spec(full_size))
                        .map_err(|error| error.to_string())?;
                    let suite = finish_device(device, &line, &mut digest)?;
                    suites.push(format!("{device} {suite:#018x}"));
                }
                Ok(digest.finish())
            })
        },
        |share| setup.resample(share),
    );
    setup.finish(report)?;
    report.info("suite_digests", suites.join(", "));
    for (_, result) in &passes {
        report.op(result.clone().and_then(|digest| check.check(digest)));
    }
    let walls: Vec<f64> = passes.iter().map(|(wall, _)| *wall).collect();
    let untraced_pass_s = median(&walls);
    report.set("pass_s", Measure::median(walls));
    if !ctx.traced {
        report.digest = check.first;
        return Ok(());
    }

    trace::start();
    lsiq_obs::set_mode(MetricsMode::Json);
    let mut records = Vec::new();
    let mut counts = Vec::new();
    let mut last = Vec::new();
    let traced = repeat(
        ctx.seconds / 2.0,
        ctx.min_passes,
        |index| {
            let (result, record) = traced_pass(index as u64 + 1, || {
                guarded(|| {
                    let session = span("exec.session", || Session::new(config));
                    let mut digest = Digest::new();
                    let mut lines = Vec::new();
                    for (device, full_size) in DEVICES {
                        let line = traced_line(&session, full_size);
                        finish_device(device, &line, &mut digest)?;
                        lines.push(line);
                    }
                    let cache = session.good_machine_cache();
                    let hits_misses = (cache.hits(), cache.misses());
                    span("exec.session", || drop(session));
                    Ok((digest.finish(), lines, hits_misses))
                })
            });
            records.push(record);
            result
        },
        |_| {},
    );
    lsiq_obs::set_mode(MetricsMode::Off);
    for (_, result) in traced {
        report.op(result.and_then(|(digest, lines, hits_misses)| {
            let faults: usize = lines.iter().map(|l| l.universe_size).sum();
            counts.push([faults as f64, hits_misses.0 as f64, hits_misses.1 as f64]);
            last = lines;
            check.check(digest)
        }));
    }

    // One-off measurements on the last pass's suites: the good machine of
    // the suite patterns, and the session's engine grading the finished
    // suite (fault propagation without the suite build around it).
    let session = Session::new(config);
    for line in &last {
        black_box(span("sim.good_machine", || {
            good_machine(&line.circuit, &line.suite.patterns)
        }));
        let engine = config.engine_for_size(line.circuit.gate_count());
        let graded = span("fault.grade", || {
            engine
                .build_configured(
                    &line.circuit,
                    &EngineOptions {
                        context: Some(session.context()),
                        lanes: config.lanes(),
                        ..EngineOptions::default()
                    },
                )
                .run(&FaultUniverse::full(&line.circuit), &line.suite.patterns)
        });
        let same = graded
            .iter()
            .zip(line.suite.fault_list.iter())
            .all(|((_, a), (_, b))| a == b);
        report.op(if same && graded.len() == line.suite.fault_list.len() {
            Ok(())
        } else {
            Err("re-grading the finished suite changed its fault list".to_string())
        });
    }
    drop(session);

    let analysis = trace::Analysis::new(trace::finish());
    let column = |i: usize| Measure::median(counts.iter().map(|c: &[f64; 3]| c[i]).collect());
    report.set("fault.faults", column(0));
    report.set("sim.cache_hits", column(1));
    report.set("sim.cache_misses", column(2));
    let patterns: usize = last.iter().map(|l| l.suite.patterns.len()).sum();
    let detected: usize = last
        .iter()
        .map(|l| l.suite.fault_list.detected_count())
        .sum();
    let faults: usize = last.iter().map(|l| l.universe_size).sum();
    report.set("tpg.patterns", Measure::single(patterns as f64));
    report.set(
        "tpg.coverage",
        Measure::single(detected as f64 / faults.max(1) as f64),
    );
    report.set(
        "manufacturing.chips",
        Measure::single((DEVICES.len() * LineSpec::table1().chips) as f64),
    );
    trace_metrics(
        report,
        &analysis,
        &records,
        untraced_pass_s,
        config.effective_workers(),
    );
    report.info(
        "trace_dump",
        write_dump("line", ctx.seed, &analysis, &records),
    );
    report.digest = check.first;
    Ok(())
}
