//! The `serve_warm` workload: a seeded query stream replayed against a
//! warm artifact directory.
//!
//! Set-up answers one cold `line` and one cold `bist` query per device on a
//! `QueryService` over a fresh artifact directory, which builds and writes
//! the artifacts.  Each pass then opens a fresh `QueryService` over that
//! directory (as a new `lsiq-serve` process would) and replays the stream
//! from one closed-loop client: about 2 000 `forward`/`inverse` queries,
//! the already-built `bist` cells, `line` queries and `lot` queries of
//! 10^5–10^6 chips on both devices.  No query may run a fault simulation.

use crate::digests::DigestCheck;
use crate::line::{record_config, DEVICES};
use crate::query::{ask, Query};
use crate::trace::{self, span};
use crate::util::{median, Digest, SplitMix};
use crate::{guarded, repeat, trace_metrics, traced_pass, write_dump, Ctx, Measure, Report, Setup};
use lsi_quality::{Session, PROGRAMME_SEED};
use lsiq_bist::aliasing::AliasingReport;
use lsiq_bist::signature::SignatureDictionary;
use lsiq_bist::stumps::{StumpsConfig, StumpsGenerator};
use lsiq_core::coverage_requirement::required_fault_coverage;
use lsiq_core::params::{FaultCoverage, ModelParams, RejectRate, Yield};
use lsiq_core::reject::field_reject_rate;
use lsiq_exec::{MetricsMode, RunConfig};
use lsiq_fault::universe::FaultUniverse;
use lsiq_manufacturing::lot::ModelLotConfig;
use lsiq_manufacturing::streaming::StreamingLotExecutor;
use lsiq_netlist::circuit::Circuit;
use lsiq_serve::{ArtifactStore, JsonValue, QueryService};
use std::hint::black_box;
use std::path::{Path, PathBuf};

const FORWARD_QUERIES: usize = 1400;
const INVERSE_QUERIES: usize = 600;
const LINE_QUERIES_PER_DEVICE: usize = 2;
const LOT_QUERIES_PER_DEVICE: usize = 10;
const LOT_CHIPS: (usize, usize) = (100_000, 1_000_000);
/// The BIST cell built in set-up: `(test length, signature width)`, with
/// the protocol's default 64-pattern sessions and 8 STUMPS channels.
const BIST_CELL: (usize, u32) = (64, 16);
const BIST_SESSION_LEN: usize = 64;
const BIST_CHANNELS: usize = 8;
/// Lot seeds travel as JSON numbers, exact only below 2^53.
const JSON_SEED_SHIFT: u32 = 11;

/// A `line` or `lot` query's lot.
#[derive(Debug, Clone, Copy)]
struct Lot {
    device: &'static str,
    chips: usize,
    yield_fraction: f64,
    n0: f64,
    seed: u64,
    dense: bool,
}

/// A model query's inputs: `(is_forward, y, n0, coverage or target)`.
type Model = (bool, f64, f64, f64);

struct Item {
    query: Query,
    lot: Option<Lot>,
    model: Option<Model>,
    /// The artifact the query reads: the first query naming it on a fresh
    /// service pays the disk read and decode.
    artifact: Option<String>,
}

fn lot_item(lot: Lot) -> Item {
    let op = if lot.dense { "line" } else { "lot" };
    Item {
        query: Query {
            op,
            line: format!(
                "{{\"op\":\"{op}\",\"circuit\":\"{}\",\"chips\":{},\"yield\":{:?},\"n0\":{:?},\"seed\":{}}}",
                lot.device, lot.chips, lot.yield_fraction, lot.n0, lot.seed
            ),
        },
        lot: Some(lot),
        model: None,
        artifact: Some(format!("suite/{}", lot.device)),
    }
}

fn bist_item(device: &str, yield_fraction: f64, n0: f64) -> Item {
    Item {
        query: Query {
            op: "bist",
            line: format!(
                "{{\"op\":\"bist\",\"circuit\":\"{device}\",\"test_length\":{},\"signature_width\":{},\
                 \"session_len\":{BIST_SESSION_LEN},\"channels\":{BIST_CHANNELS},\"yield\":{yield_fraction:?},\"n0\":{n0:?}}}",
                BIST_CELL.0, BIST_CELL.1
            ),
        },
        lot: None,
        model: None,
        artifact: Some(format!("sigdict/{device}")),
    }
}

/// The query stream of a seed, shuffled.
fn stream(seed: u64) -> Vec<Item> {
    let mut rng = SplitMix::new(seed, "serve.stream");
    let mut items = Vec::new();
    for index in 0..FORWARD_QUERIES + INVERSE_QUERIES {
        let forward = index < FORWARD_QUERIES;
        let y = rng.uniform(0.02, 0.95);
        let n0 = rng.uniform(1.0, 12.0);
        // Reject targets stay below 1 - y, so every inverse query is
        // solvable.
        let x = if forward {
            rng.uniform(0.0, 1.0)
        } else {
            rng.uniform(1e-4, 1e-2)
        };
        items.push(Item {
            query: if forward {
                Query::forward(y, n0, x)
            } else {
                Query::inverse(y, n0, x)
            },
            lot: None,
            model: Some((forward, y, n0, x)),
            artifact: None,
        });
    }
    for (device, _) in DEVICES {
        for _ in 0..2 {
            items.push(bist_item(
                device,
                rng.uniform(0.02, 0.95),
                rng.uniform(1.0, 12.0),
            ));
        }
        for _ in 0..LINE_QUERIES_PER_DEVICE {
            items.push(lot_item(Lot {
                device,
                chips: 277,
                yield_fraction: rng.uniform(0.05, 0.9),
                n0: rng.uniform(1.0, 12.0),
                seed: rng.next_u64() >> JSON_SEED_SHIFT,
                dense: true,
            }));
        }
        // A fixed ladder of lot sizes and ground truths, so every seed
        // streams the same amount of work; the seed picks the chips.
        for step in 0..LOT_QUERIES_PER_DEVICE {
            let at = step as f64 / (LOT_QUERIES_PER_DEVICE - 1) as f64;
            items.push(lot_item(Lot {
                device,
                chips: LOT_CHIPS.0 + ((LOT_CHIPS.1 - LOT_CHIPS.0) as f64 * at) as usize,
                yield_fraction: 0.1 + 0.8 * at,
                n0: 1.0 + 11.0 * (1.0 - at),
                seed: rng.next_u64() >> JSON_SEED_SHIFT,
                dense: false,
            }));
        }
    }
    rng.shuffle(&mut items);
    items
}

/// An artifact directory, removed when dropped.
struct ArtifactDir(PathBuf);

impl Drop for ArtifactDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn open(config: RunConfig, dir: &Path) -> Result<QueryService, String> {
    let store = ArtifactStore::at(dir).map_err(|error| error.to_string())?;
    Ok(QueryService::new(Session::new(config), store))
}

fn counter(response: &JsonValue, name: &str) -> f64 {
    response
        .get("counters")
        .and_then(|counters| counters.get(name))
        .and_then(JsonValue::as_f64)
        .unwrap_or(f64::NAN)
}

/// What one replay of the stream produced.
struct Replay {
    /// Per query: its time and the hash of its stable response.
    answers: Vec<Result<(f64, u64), String>>,
    responses: Vec<Option<JsonValue>>,
    stats: [f64; 5],
}

/// Replays the stream on a fresh service over `dir`.
fn replay(config: RunConfig, dir: &Path, items: &[Item], keep: bool) -> Result<Replay, String> {
    let service = span("exec.session", || open(config, dir))?;
    let mut answers = Vec::with_capacity(items.len());
    let mut responses = Vec::new();
    for item in items {
        let answer = ask(&service, &item.query);
        if keep && item.lot.is_some() {
            responses.push(answer.as_ref().ok().map(|a| a.response.clone()));
        }
        answers.push(answer.and_then(|answer| {
            if counter(&answer.response, "fault_sim_passes") != 0.0 {
                return Err(format!("query {} ran a fault simulation", item.query.line));
            }
            let mut digest = Digest::new();
            digest.bytes(answer.stable.as_bytes());
            Ok((answer.seconds, digest.finish()))
        }));
    }
    let cache = service.session().good_machine_cache();
    let stats = [
        service.artifacts().hits() as f64,
        service.artifacts().misses() as f64,
        service.fault_sim_passes() as f64,
        cache.hits() as f64,
        cache.misses() as f64,
    ];
    span("exec.session", || drop(service));
    Ok(Replay {
        answers,
        responses,
        stats,
    })
}

/// Counts every query of a replay as an op, checking its response against
/// the first replay's and the replay's stream digest against the record.
fn score(
    report: &mut Report,
    replay: &Replay,
    reference: &mut Option<Vec<u64>>,
    check: &mut DigestCheck,
) {
    let mut digest = Digest::new();
    for answer in &replay.answers {
        digest.u64(answer.as_ref().map_or(0, |(_, hash)| *hash));
    }
    let stream_ok = check.check(digest.finish());
    let hashes: Vec<u64> = replay
        .answers
        .iter()
        .map(|a| a.as_ref().map_or(0, |(_, hash)| *hash))
        .collect();
    let reference = reference.get_or_insert_with(|| hashes.clone());
    for ((answer, hash), want) in replay.answers.iter().zip(&hashes).zip(reference.iter()) {
        report.op(match (answer, &stream_ok) {
            (Err(problem), _) => Err(problem.clone()),
            (_, Err(problem)) => Err(problem.clone()),
            _ if hash != want => Err("a response differs from the first replay's".to_string()),
            _ => Ok(()),
        });
    }
}

/// Chips in `line`/`lot` queries per second spent answering them.
fn chips_per_s(items: &[Item], replay: &Replay) -> f64 {
    let (chips, seconds) = items
        .iter()
        .zip(&replay.answers)
        .filter_map(|(item, answer)| Some((item.lot?.chips, answer.as_ref().ok()?.0)))
        .fold((0.0, 0.0), |(c, s), (chips, secs)| {
            (c + chips as f64, s + secs)
        });
    chips / seconds.max(f64::MIN_POSITIVE)
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    // The service's shipped engine choice (`QueryService::from_env` without
    // `LSIQ_ENGINE`); the session seed is the run's STUMPS seed.
    let config = RunConfig::default()
        .with_engine_auto()
        .with_base_seed(crate::util::derived_seed(ctx.seed, "serve.stumps"));
    let root = PathBuf::from("perfbench/out");
    std::fs::create_dir_all(&root).map_err(|error| format!("{}: {error}", root.display()))?;
    let cold_lot_seed = crate::util::derived_seed(ctx.seed, "serve.cold_lot") >> JSON_SEED_SHIFT;
    // Each set-up builds every artifact cold, so fewer are made.
    let setup_ctx = Ctx {
        setups: ctx.setups.min(3),
        ..*ctx
    };
    let mut made = 0;
    let mut setup = Setup::new(&setup_ctx, || {
        let dir = ArtifactDir(root.join(format!("serve-{}-{made}", std::process::id())));
        made += 1;
        let _ = std::fs::remove_dir_all(&dir.0);
        let service = open(config, &dir.0)?;
        for (device, _) in DEVICES {
            for item in [
                lot_item(Lot {
                    device,
                    chips: 277,
                    yield_fraction: 0.07,
                    n0: 8.0,
                    seed: cold_lot_seed,
                    dense: true,
                }),
                bist_item(device, 0.07, 8.0),
            ] {
                ask(&service, &item.query)?;
            }
        }
        if service.fault_sim_passes() != 2 * DEVICES.len() as u64 {
            return Err("the cold set-up did not build every artifact".to_string());
        }
        Ok(dir)
    });
    let warm = setup.make()?;
    let dir = warm.0.clone();
    let devices: Vec<Circuit> = DEVICES
        .iter()
        .map(|&(_, full)| Session::reproduction_circuit(full))
        .collect();
    record_config(report, &config, &devices);
    report.info("stumps_seed", config.base_seed());

    let items = stream(ctx.seed);
    report.info("queries_per_pass", items.len());
    let mut check = DigestCheck::new("serve_warm", ctx.seed);
    report.digest_recorded = check.is_recorded();
    let mut reference = None;
    let mut model_seconds = Vec::new();
    let mut chip_rates = Vec::new();
    let mut first_lots: Vec<Option<JsonValue>> = Vec::new();
    let untraced_seconds = if ctx.traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let passes = repeat(
        untraced_seconds,
        ctx.min_passes,
        |index| guarded(|| replay(config, &dir, &items, index == 0)),
        |share| setup.resample(share),
    );
    setup.finish(report)?;
    for (_, result) in &passes {
        match result {
            Ok(replay) => {
                score(report, replay, &mut reference, &mut check);
                for (item, answer) in items.iter().zip(&replay.answers) {
                    if let (true, Ok((seconds, _))) = (item.query.is_model(), answer) {
                        model_seconds.push(*seconds);
                    }
                }
                chip_rates.push(chips_per_s(&items, replay));
                if first_lots.is_empty() {
                    first_lots = replay.responses.clone();
                }
            }
            Err(problem) => report.op(Err(problem.clone())),
        }
    }
    let walls: Vec<f64> = passes.iter().map(|(wall, _)| *wall).collect();
    let untraced_pass_s = median(&walls);
    report.set("pass_s", Measure::median(walls));
    let model_query = Measure::median(model_seconds.iter().map(|s| s * 1e6).collect());
    let chips = Measure::median(chip_rates);
    // Printed with every run, and reported by the traced run as per-layer
    // metrics: the other workloads pose no queries and test no chips.
    report.info(
        "model_query_us",
        format!(
            "{:.4} us (median of {} forward/inverse queries)",
            model_query.value,
            model_query.samples.len()
        ),
    );
    report.info(
        "chips_per_s",
        format!(
            "{:.0} chips/s (median of {} passes)",
            chips.value,
            chips.samples.len()
        ),
    );
    report.set("serve.model_query_us", model_query);
    report.set("serve.chips_per_s", chips);
    if !ctx.traced {
        report.digest = check.first;
        return Ok(());
    }

    trace::start();
    lsiq_obs::set_mode(MetricsMode::Json);
    let mut records = Vec::new();
    let mut first_use = Vec::new();
    let mut stats = Vec::new();
    let traced = repeat(
        ctx.seconds / 2.0,
        ctx.min_passes,
        |index| {
            let (result, record) = traced_pass(index as u64 + 1, || {
                guarded(|| replay(config, &dir, &items, false))
            });
            records.push(record);
            result
        },
        |_| {},
    );
    lsiq_obs::set_mode(MetricsMode::Off);
    for (_, result) in &traced {
        match result {
            Ok(replay) => {
                score(report, replay, &mut reference, &mut check);
                let mut seen = std::collections::BTreeSet::new();
                for (item, answer) in items.iter().zip(&replay.answers) {
                    if let (Some(artifact), Ok((seconds, _))) = (&item.artifact, answer) {
                        if seen.insert(artifact.clone()) {
                            first_use.push(seconds * 1e3);
                        }
                    }
                }
                stats.push(replay.stats);
            }
            Err(problem) => report.op(Err(problem.clone())),
        }
    }

    // One-off measurements from outside the service: what each fresh
    // service compiles, what set-up builds, and the lot and model layers
    // on exactly the stream's inputs.
    let session = Session::new(config);
    let mut faults = 0;
    let mut patterns = 0;
    let mut detected = 0;
    let mut aliased = 0;
    let mut suites = Vec::new();
    for (device, full_size) in DEVICES {
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
        let cell = span("bist.stumps", || {
            StumpsGenerator::try_new(&StumpsConfig {
                width: circuit.primary_inputs().len(),
                channels: BIST_CHANNELS,
                degree: 64,
                seed: config.seed_or(PROGRAMME_SEED),
            })
            .map(|generator| generator.generate(BIST_CELL.0))
        })
        .map_err(|error| error.to_string())?;
        let dictionary = span("bist.dictionary", || {
            SignatureDictionary::build_sweep_cached(
                session.context(),
                &circuit,
                &universe,
                &cell,
                BIST_SESSION_LEN,
                &[BIST_CELL.1],
                &[BIST_CELL.0],
                config.lanes(),
                Some(session.good_machine_cache()),
            )
        });
        for dictionary in dictionary.iter().flatten() {
            aliased += span("bist.aliasing", || {
                AliasingReport::from_dictionary(dictionary)
            })
            .aliased;
        }
        faults += universe.len();
        patterns += suite.patterns.len();
        detected += suite.fault_list.detected_count();
        suites.push((device, universe.len(), suite));
    }
    let executor = StreamingLotExecutor::with_context(session.context());
    let lots = items.iter().filter_map(|item| item.lot);
    for (lot, response) in lots.zip(first_lots.iter()) {
        let (_, universe_size, suite) = suites
            .iter()
            .find(|(device, _, _)| *device == lot.device)
            .ok_or("unknown device")?;
        let pattern_count = suite.coverage_curve.pattern_count();
        let checkpoints: Vec<usize> = if lot.dense {
            (1..=pattern_count).collect()
        } else {
            vec![pattern_count]
        };
        let streamed = span("manufacturing.stream", || {
            executor.stream_model_lot(
                &ModelLotConfig {
                    chips: lot.chips,
                    yield_fraction: lot.yield_fraction,
                    n0: lot.n0,
                    fault_universe_size: *universe_size,
                    seed: lot.seed,
                },
                &suite.dictionary,
                &suite.coverage_curve,
                &checkpoints,
            )
        });
        let answered = response
            .as_ref()
            .and_then(|r| r.get("escapes"))
            .and_then(JsonValue::as_f64);
        report.op(if answered == Some(streamed.outcome.escapes as f64) {
            Ok(())
        } else {
            Err(format!(
                "lot {lot:?}: the service answered {answered:?} escapes, the executor {}",
                streamed.outcome.escapes
            ))
        });
    }
    for (forward, y, n0, x) in items.iter().filter_map(|item| item.model) {
        let params = ModelParams::new(Yield::new(y).expect("in range"), n0).expect("n0 >= 1");
        if forward {
            let coverage = FaultCoverage::new(x).expect("in range");
            black_box(span("core.forward", || {
                field_reject_rate(black_box(&params), coverage)
            }));
        } else {
            let target = RejectRate::new(x).expect("in range");
            span("core.inverse", || {
                required_fault_coverage(black_box(&params), target)
            })
            .map_err(|error| error.to_string())?;
        }
    }
    drop(session);

    let analysis = trace::Analysis::new(trace::finish());
    let column = |i: usize| Measure::median(stats.iter().map(|s| s[i]).collect());
    report.set("serve.artifact_hits", column(0));
    report.set("serve.artifact_misses", column(1));
    report.set("serve.fault_sim_passes", column(2));
    report.set("sim.cache_hits", column(3));
    report.set("sim.cache_misses", column(4));
    report.set("serve.first_use_ms", Measure::median(first_use));
    report.set("fault.faults", Measure::single(faults as f64));
    report.set("tpg.patterns", Measure::single(patterns as f64));
    report.set(
        "tpg.coverage",
        Measure::single(detected as f64 / faults.max(1) as f64),
    );
    report.set("bist.aliased", Measure::single(aliased as f64));
    report.set(
        "manufacturing.chips",
        Measure::single(
            items
                .iter()
                .filter_map(|item| item.lot)
                .map(|lot| lot.chips as f64)
                .sum(),
        ),
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
        write_dump("serve_warm", ctx.seed, &analysis, &records),
    );
    report.digest = check.first;
    Ok(())
}
