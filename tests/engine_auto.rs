//! `LSIQ_ENGINE=auto` engine selection: with one production engine, `auto`
//! resolves to `EngineKind::default()` on every device, and a session
//! under `auto` produces suites and sweeps byte-identical to a session
//! pinned to that engine — engine choice is a speed knob, never a results
//! knob.

use lsi_quality::{BistSweepSpec, Session};
use lsiq_exec::{EngineKind, RunConfig};
use lsiq_fault::universe::FaultUniverse;
use lsiq_netlist::library;

#[test]
fn auto_resolution_follows_the_size_thresholds_through_the_session() {
    // There are no size thresholds left: auto resolves to the production
    // engine on a small and on an LSI-class device alike.
    let session = Session::new(RunConfig::default().with_engine_auto());
    assert!(session.config().engine_is_auto());
    let alu4 = library::alu4();
    assert_eq!(
        session.line_suite_builder(&alu4).engine,
        EngineKind::Incremental,
        "the line builder must resolve auto per device"
    );
    let reduced = Session::reproduction_circuit(false);
    assert_eq!(
        session.line_suite_builder(&reduced).engine,
        EngineKind::Incremental
    );
}

#[test]
fn auto_and_pinned_engines_build_byte_identical_suites() {
    let circuit = library::alu4();
    let universe = FaultUniverse::full(&circuit);
    let auto_session = Session::new(RunConfig::default().with_engine_auto());
    let resolved = EngineKind::default();
    let pinned_session = Session::new(RunConfig::default().with_engine(resolved));

    let build = |session: &Session| {
        session.line_suite_builder(&circuit).build_cached(
            Some(session.context()),
            Some(session.good_machine_cache()),
            &circuit,
            &universe,
        )
    };
    let auto_suite = build(&auto_session);
    let pinned_suite = build(&pinned_session);
    assert_eq!(auto_suite.patterns, pinned_suite.patterns);
    assert_eq!(
        auto_suite.dictionary.first_patterns(),
        pinned_suite.dictionary.first_patterns()
    );
    assert_eq!(
        auto_suite.coverage_curve.cumulative(),
        pinned_suite.coverage_curve.cumulative()
    );
    assert_eq!(
        auto_suite.deterministic_patterns,
        pinned_suite.deterministic_patterns
    );
}

#[test]
fn auto_and_pinned_engines_agree_on_a_bist_sweep() {
    let circuit = library::alu4();
    let spec = BistSweepSpec {
        test_lengths: vec![64, 128],
        signature_widths: vec![8, 16],
        session_len: 32,
        channels: 4,
        yield_fraction: 0.07,
        n0: 8.0,
        full_size: false,
    };
    let auto_sweep = Session::new(RunConfig::default().with_engine_auto())
        .run_bist_sweep_on(&circuit, &spec)
        .expect("auto sweep");
    let resolved = EngineKind::default();
    let pinned_sweep = Session::new(RunConfig::default().with_engine(resolved))
        .run_bist_sweep_on(&circuit, &spec)
        .expect("pinned sweep");
    assert_eq!(auto_sweep, pinned_sweep);
}
