//! The `bist_sweep` workload: the reference BIST sweep (test length ×
//! signature width), cold, on the reduced and the full-size device.
//!
//! Each pass opens a fresh `Session` seeded with the run's STUMPS seed and
//! calls `Session::run_bist_sweep` with `BistSweepSpec::reference()` on
//! both devices.  The traced run makes the same calls the session makes,
//! one public function at a time.

use crate::digests::DigestCheck;
use crate::line::{good_machine, open_devices, record_config, DEVICES};
use crate::trace::{self, span};
use crate::util::{derived_seed, median, Digest};
use crate::{guarded, repeat, trace_metrics, traced_pass, write_dump, Ctx, Measure, Report, Setup};
use lsi_quality::{BistSweep, BistSweepRow, BistSweepSpec, Session, PROGRAMME_SEED};
use lsiq_bist::aliasing::AliasingReport;
use lsiq_bist::signature::SignatureDictionary;
use lsiq_bist::stumps::{StumpsConfig, StumpsGenerator};
use lsiq_core::params::{FaultCoverage, ModelParams, Yield};
use lsiq_core::reject::field_reject_rate;
use lsiq_exec::{MetricsMode, RunConfig};
use lsiq_fault::universe::FaultUniverse;
use lsiq_netlist::circuit::Circuit;
use lsiq_sim::pattern::PatternSet;
use std::hint::black_box;

fn spec(full_size: bool) -> BistSweepSpec {
    BistSweepSpec {
        full_size,
        ..BistSweepSpec::reference()
    }
}

/// Checks one device's sweep and folds its statistics into `digest`.
fn finish_device(sweep: &BistSweep, digest: &mut Digest) -> Result<(), String> {
    digest.u64(sweep.universe_size as u64);
    for row in &sweep.rows {
        let aliased = ((row.raw_coverage - row.effective_coverage) * sweep.universe_size as f64)
            .round() as usize;
        if row.effective_coverage > row.raw_coverage || aliased != row.aliased {
            return Err(format!("inconsistent sweep cell {row:?}"));
        }
        for value in [
            row.test_length as u64,
            u64::from(row.signature_width),
            row.sessions as u64,
            row.aliased as u64,
        ] {
            digest.u64(value);
        }
        for value in [
            row.raw_coverage,
            row.effective_coverage,
            row.defect_level_raw,
            row.defect_level_effective,
        ] {
            digest.f64(value);
        }
    }
    Ok(())
}

/// `Session::run_bist_sweep`, one public call at a time, each in a span.
fn traced_sweep(
    session: &Session,
    spec: &BistSweepSpec,
) -> Result<(BistSweep, PatternSet, Circuit), String> {
    let config = session.config();
    let params = Yield::new(spec.yield_fraction)
        .ok()
        .and_then(|y| ModelParams::new(y, spec.n0).ok())
        .ok_or("invalid sweep model parameters")?;
    let circuit = span("netlist.generate", || {
        Session::reproduction_circuit(spec.full_size)
    });
    let universe = span("fault.universe", || FaultUniverse::full(&circuit));
    let max_length = spec.test_lengths.iter().copied().max().unwrap_or(0);
    let patterns = span("bist.stumps", || {
        StumpsGenerator::try_new(&StumpsConfig {
            width: circuit.primary_inputs().len(),
            channels: spec.channels,
            degree: 64,
            seed: config.seed_or(PROGRAMME_SEED),
        })
        .map(|generator| generator.generate(max_length))
    })
    .map_err(|error| error.to_string())?;
    let grid = span("bist.dictionary", || {
        SignatureDictionary::build_sweep_cached(
            session.context(),
            &circuit,
            &universe,
            &patterns,
            spec.session_len,
            &spec.signature_widths,
            &spec.test_lengths,
            config.lanes(),
            Some(session.good_machine_cache()),
        )
    });
    let defect_level = |coverage: f64| {
        span("core.forward", || {
            field_reject_rate(
                &params,
                FaultCoverage::new(coverage.clamp(0.0, 1.0)).expect("clamped into range"),
            )
            .value()
        })
    };
    let mut rows = Vec::new();
    for (dictionaries, &test_length) in grid.iter().zip(&spec.test_lengths) {
        for dictionary in dictionaries {
            let report = span("bist.aliasing", || {
                AliasingReport::from_dictionary(dictionary)
            });
            rows.push(BistSweepRow {
                test_length,
                signature_width: dictionary.signature_width(),
                sessions: dictionary.sessions(),
                raw_coverage: report.raw_coverage(),
                effective_coverage: report.effective_coverage(),
                aliased: report.aliased,
                aliasing_fraction: report.aliasing_fraction(),
                estimated_aliasing_fraction: report.estimated_aliasing_fraction(),
                defect_level_raw: defect_level(report.raw_coverage()),
                defect_level_effective: defect_level(report.effective_coverage()),
            });
        }
    }
    let sweep = BistSweep {
        universe_size: universe.len(),
        session_len: spec.session_len,
        rows,
    };
    Ok((sweep, patterns, circuit))
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let config = RunConfig::default().with_base_seed(derived_seed(ctx.seed, "bist.stumps"));
    let mut setup = Setup::new(ctx, || Ok(open_devices(config)));
    let devices = setup.make()?;
    record_config(report, &config, &devices);
    report.info(
        "engine.note",
        "the sweep builds signature dictionaries without a fault engine",
    );
    report.info("stumps_seed", config.base_seed());

    let mut check = DigestCheck::new("bist_sweep", ctx.seed);
    report.digest_recorded = check.is_recorded();
    let untraced_seconds = if ctx.traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let passes = repeat(
        untraced_seconds,
        ctx.min_passes,
        |_| {
            guarded(|| {
                let session = Session::new(config);
                let mut digest = Digest::new();
                for (_, full_size) in DEVICES {
                    let spec = spec(full_size);
                    let sweep = session
                        .run_bist_sweep(&spec)
                        .map_err(|error| error.to_string())?;
                    finish_device(&sweep, &mut digest)?;
                }
                Ok(digest.finish())
            })
        },
        |share| setup.resample(share),
    );
    setup.finish(report)?;
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
    let traced = repeat(
        ctx.seconds / 2.0,
        ctx.min_passes,
        |index| {
            let (result, record) = traced_pass(index as u64 + 1, || {
                guarded(|| {
                    let session = span("exec.session", || Session::new(config));
                    let mut digest = Digest::new();
                    let mut kept = Vec::new();
                    let mut aliased = 0;
                    for (_, full_size) in DEVICES {
                        let spec = spec(full_size);
                        let (sweep, patterns, circuit) = traced_sweep(&session, &spec)?;
                        finish_device(&sweep, &mut digest)?;
                        aliased += sweep.rows.iter().map(|row| row.aliased).sum::<usize>();
                        kept.push((sweep.universe_size, patterns, circuit));
                    }
                    let cache = session.good_machine_cache();
                    let hits_misses = (cache.hits(), cache.misses());
                    span("exec.session", || drop(session));
                    Ok((digest.finish(), kept, aliased, hits_misses))
                })
            });
            records.push(record);
            result
        },
        |_| {},
    );
    lsiq_obs::set_mode(MetricsMode::Off);
    let mut counts = Vec::new();
    let mut last = Vec::new();
    for (_, result) in traced {
        report.op(result.and_then(|(digest, kept, aliased, (hits, misses))| {
            let faults: usize = kept.iter().map(|(faults, _, _)| faults).sum();
            counts.push([faults as f64, aliased as f64, hits as f64, misses as f64]);
            last = kept;
            check.check(digest)
        }));
    }
    // One-off: the good machine of the STUMPS patterns on each device.
    for (_, patterns, circuit) in &last {
        black_box(span("sim.good_machine", || good_machine(circuit, patterns)));
    }

    let analysis = trace::Analysis::new(trace::finish());
    let column = |i: usize| Measure::median(counts.iter().map(|c| c[i]).collect());
    report.set("fault.faults", column(0));
    report.set("bist.aliased", column(1));
    report.set("sim.cache_hits", column(2));
    report.set("sim.cache_misses", column(3));
    trace_metrics(
        report,
        &analysis,
        &records,
        untraced_pass_s,
        config.effective_workers(),
    );
    report.info(
        "trace_dump",
        write_dump("bist_sweep", ctx.seed, &analysis, &records),
    );
    report.digest = check.first;
    Ok(())
}
