//! Golden test for collapse-before-simulation in the suite builder.
//!
//! The `table1`/`lsiq-bench` suite-construction path now collapses the full
//! fault universe structurally and simulates one representative per
//! equivalence class by default.  Because equivalent faults are detected by
//! exactly the same patterns, the optimisation must be *invisible*: this
//! test pins the reported coverages to their pre-collapsing golden values
//! and requires byte-identity between the collapse-on and collapse-off
//! builds on every engine.

use lsi_quality::exec::{EngineKind, RunConfig};
use lsi_quality::fault::universe::FaultUniverse;
use lsi_quality::netlist::library;
use lsi_quality::tpg::suite::TestSuiteBuilder;
use lsi_quality::Session;

#[test]
fn collapsed_suite_coverages_match_the_golden_values() {
    // Golden numbers recorded before collapsing became the default.
    let cases = [
        ("c17", library::c17(), 32usize, 46usize, 1.0),
        ("alu4", library::alu4(), 64, 466, 0.978_991_596_638_655),
    ];
    for (name, circuit, patterns, detected, coverage) in cases {
        let universe = FaultUniverse::full(&circuit);
        let suite = TestSuiteBuilder::default().build_cached(None, None, &circuit, &universe);
        assert_eq!(suite.patterns.len(), patterns, "{name}");
        assert_eq!(suite.fault_list.detected_count(), detected, "{name}");
        assert!(
            (suite.coverage() - coverage).abs() < 1e-12,
            "{name}: coverage {} != golden {coverage}",
            suite.coverage()
        );
    }
}

#[test]
fn collapse_on_and_off_agree_on_every_engine() {
    // Inputs: the default builder on alu4, and the production line's
    // builder on the reduced reproduction device.  Every engine's suite,
    // collapsed or not, must equal the deductive oracle's suite.  On the
    // reduced device the serial reference is out of reach, so only the
    // deductive and incremental engines run there.
    let alu4 = library::alu4();
    let reduced = Session::reproduction_circuit(false);
    let line_builder = Session::new(RunConfig::default()).line_suite_builder(&reduced);
    assert_eq!(line_builder.engine, EngineKind::default());
    let line_engines: &[EngineKind] = &[EngineKind::Deductive, EngineKind::Incremental];
    let inputs = [
        (
            "alu4",
            &alu4,
            TestSuiteBuilder::default(),
            &EngineKind::ALL[..],
        ),
        ("reduced line", &reduced, line_builder, line_engines),
    ];
    for (name, circuit, builder, engines) in inputs {
        let universe = FaultUniverse::full(circuit);
        let oracle = TestSuiteBuilder {
            engine: EngineKind::Deductive,
            ..builder
        }
        .build_cached(None, None, circuit, &universe);
        for &engine in engines {
            let collapsed =
                TestSuiteBuilder { engine, ..builder }.build_cached(None, None, circuit, &universe);
            let raw = TestSuiteBuilder {
                engine,
                collapse: false,
                ..builder
            }
            .build_cached(None, None, circuit, &universe);
            for suite in [&collapsed, &raw] {
                assert_eq!(suite.patterns, oracle.patterns, "{name}/{engine}");
                assert_eq!(suite.fault_list, oracle.fault_list, "{name}/{engine}");
                assert_eq!(
                    suite.coverage_curve, oracle.coverage_curve,
                    "{name}/{engine}"
                );
                assert_eq!(suite.dictionary, oracle.dictionary, "{name}/{engine}");
            }
        }
    }
}
