//! Integration test: the headline numbers of the paper's Section 4, 6 and 7
//! come out of the library end to end.

use lsi_quality::quality::baseline::{WadsackModel, WilliamsBrownModel};
use lsi_quality::quality::chip_test::ChipTestTable;
use lsi_quality::quality::coverage_requirement::{
    required_coverage_at_yield, required_fault_coverage,
};
use lsi_quality::quality::estimate::N0Estimator;
use lsi_quality::quality::params::{FaultCoverage, ModelParams, RejectRate, Yield};
use lsi_quality::quality::reject::field_reject_rate;

fn yield_of(value: f64) -> Yield {
    Yield::new(value).expect("valid yield")
}

fn reject(value: f64) -> RejectRate {
    RejectRate::new(value).expect("valid reject rate")
}

#[test]
fn section_seven_n0_estimation_from_table_1() {
    let table = ChipTestTable::paper_table_1();
    let estimate = N0Estimator::default()
        .estimate(&table, yield_of(0.07))
        .expect("estimation succeeds");
    // "The experimental points closely match the curve corresponding to n0 = 8."
    assert!(
        (estimate.curve_fit_n0 - 8.0).abs() < 1.0,
        "curve-fit n0 = {}",
        estimate.curve_fit_n0
    );
    // "P'(0) = 0.41/0.05 = 8.2" and "n0 = 8.2/0.93 = 8.8".
    assert!((estimate.origin_slope - 8.2).abs() < 0.5);
    assert!((estimate.slope_n0 - 8.8).abs() < 0.6);
}

#[test]
fn section_seven_required_coverage() {
    // "Taking n0 = 8 ... for a 1 percent field reject rate, the fault
    // coverage should be about 80 percent ... improved to 95 percent in order
    // to achieve a field reject rate of 1-in-1000."
    let params = ModelParams::new(yield_of(0.07), 8.0).expect("valid");
    let at_1_percent = required_fault_coverage(&params, reject(0.01)).expect("solves");
    assert!(
        (at_1_percent.value() - 0.80).abs() < 0.04,
        "{}",
        at_1_percent.value()
    );
    let at_1_in_1000 = required_fault_coverage(&params, reject(0.001)).expect("solves");
    assert!(
        (at_1_in_1000.value() - 0.95).abs() < 0.03,
        "{}",
        at_1_in_1000.value()
    );
}

#[test]
fn section_seven_wadsack_comparison() {
    // "From this formula, for r = 0.01, y = 0.07, we get f = 99 percent and
    // for r = 0.001, f = 99.9 percent."
    let wadsack = WadsackModel::new(yield_of(0.07));
    let at_1_percent = wadsack
        .required_fault_coverage(reject(0.01))
        .expect("valid");
    assert!((at_1_percent.value() - 0.99).abs() < 0.005);
    let at_1_in_1000 = wadsack
        .required_fault_coverage(reject(0.001))
        .expect("valid");
    assert!((at_1_in_1000.value() - 0.999).abs() < 0.001);
    // Williams-Brown is similarly demanding at this yield.
    let williams_brown = WilliamsBrownModel::new(yield_of(0.07));
    assert!(
        williams_brown
            .required_fault_coverage(reject(0.01))
            .expect("valid")
            .value()
            > 0.98
    );
}

#[test]
fn section_four_figure_1_reference_points() {
    // y = 0.80: reject below 0.5 percent needs ~95 percent coverage at n0 = 2
    // but only ~38 percent at n0 = 10.
    let msi_n0_2 = ModelParams::new(yield_of(0.80), 2.0).expect("valid");
    let msi_n0_10 = ModelParams::new(yield_of(0.80), 10.0).expect("valid");
    let f_2 = required_fault_coverage(&msi_n0_2, reject(0.005)).expect("solves");
    let f_10 = required_fault_coverage(&msi_n0_10, reject(0.005)).expect("solves");
    assert!((f_2.value() - 0.95).abs() < 0.02, "n0=2: {}", f_2.value());
    assert!(
        (f_10.value() - 0.38).abs() < 0.04,
        "n0=10: {}",
        f_10.value()
    );
    // y = 0.20, n0 = 10: about 63 percent.
    let lsi_n0_10 = ModelParams::new(yield_of(0.20), 10.0).expect("valid");
    let f_lsi = required_fault_coverage(&lsi_n0_10, reject(0.005)).expect("solves");
    assert!((f_lsi.value() - 0.63).abs() < 0.04, "{}", f_lsi.value());
}

#[test]
fn section_six_figure_4_spot_check() {
    // "if the field reject rate was specified as one in a thousand ... for
    // yield y = 0.3 and n0 = 8, the fault coverage should be about 85 percent."
    let coverage = required_coverage_at_yield(8.0, reject(0.001), yield_of(0.3)).expect("solves");
    assert!(
        (coverage.value() - 0.85).abs() < 0.03,
        "{}",
        coverage.value()
    );
}

/// Golden tolerance for pinned model outputs.
///
/// The paper-tolerance tests above only guard against gross regressions; the
/// golden tests below pin the *exact* values this implementation produced at
/// the time the deductive-engine rewrite landed, so that performance
/// refactors of the simulators, solvers or special functions cannot silently
/// shift any reproduced number.  The tolerance leaves room for harmless
/// floating-point reassociation (e.g. a different summation order) but not
/// for a model change: every pinned quantity lives in `[0, 10]`, so 1e-9 is
/// about eight significant digits.
const GOLDEN_TOLERANCE: f64 = 1e-9;

fn assert_golden(actual: f64, golden: f64, what: &str) {
    assert!(
        (actual - golden).abs() <= GOLDEN_TOLERANCE,
        "{what}: got {actual:.12}, pinned {golden:.12} (tolerance {GOLDEN_TOLERANCE:e})"
    );
}

#[test]
fn golden_table_1_estimator_outputs() {
    let table = ChipTestTable::paper_table_1();
    let estimate = N0Estimator::default()
        .estimate(&table, yield_of(0.07))
        .expect("estimation succeeds");
    assert_golden(
        estimate.curve_fit_n0,
        8.695719103668,
        "Table 1 curve-fit n0",
    );
    assert_golden(
        estimate.origin_slope,
        8.158844765343,
        "Table 1 origin slope P'(0)",
    );
    assert_golden(estimate.slope_n0, 8.772951360584, "Table 1 slope n0");
}

#[test]
fn golden_figure_1_required_coverage() {
    let cases = [
        (0.80, 2.0, 0.005, 0.948123380571, "Fig. 1, y=0.80, n0=2"),
        (0.80, 10.0, 0.005, 0.380845549196, "Fig. 1, y=0.80, n0=10"),
        (0.20, 10.0, 0.005, 0.631310861441, "Fig. 1, y=0.20, n0=10"),
    ];
    for (y, n0, r, golden, what) in cases {
        let params = ModelParams::new(yield_of(y), n0).expect("valid");
        let coverage = required_fault_coverage(&params, reject(r)).expect("solves");
        assert_golden(coverage.value(), golden, what);
    }
}

#[test]
fn golden_section_seven_requirements_and_reject_rates() {
    let params = ModelParams::new(yield_of(0.07), 8.0).expect("valid");
    let at_1_percent = required_fault_coverage(&params, reject(0.01)).expect("solves");
    assert_golden(at_1_percent.value(), 0.797692100808, "required f at r=1%");
    let at_1_in_1000 = required_fault_coverage(&params, reject(0.001)).expect("solves");
    assert_golden(at_1_in_1000.value(), 0.944122224406, "required f at r=0.1%");
    // Equation 8 evaluated directly at three coverages.
    let coverage = |f: f64| FaultCoverage::new(f).expect("valid");
    assert_golden(
        field_reject_rate(&params, coverage(0.5)).value(),
        0.167080977360,
        "r(f=0.50)",
    );
    assert_golden(
        field_reject_rate(&params, coverage(0.8)).value(),
        0.009730146156,
        "r(f=0.80)",
    );
    assert_golden(
        field_reject_rate(&params, coverage(0.95)).value(),
        0.000858862120,
        "r(f=0.95)",
    );
    // Figure 4 constant-reject contour spot value.
    let fig4 = required_coverage_at_yield(8.0, reject(0.001), yield_of(0.3)).expect("solves");
    assert_golden(fig4.value(), 0.843115404714, "Fig. 4, y=0.3, n0=8");
    // Baseline models at the paper's yield.
    let wadsack = WadsackModel::new(yield_of(0.07));
    assert_golden(
        wadsack
            .required_fault_coverage(reject(0.01))
            .expect("valid")
            .value(),
        0.989247311828,
        "Wadsack f at r=1%",
    );
    assert_golden(
        wadsack
            .required_fault_coverage(reject(0.001))
            .expect("valid")
            .value(),
        0.998924731183,
        "Wadsack f at r=0.1%",
    );
    assert_golden(
        WilliamsBrownModel::new(yield_of(0.07))
            .required_fault_coverage(reject(0.01))
            .expect("valid")
            .value(),
        0.996220626898,
        "Williams-Brown f at r=1%",
    );
}

#[test]
fn golden_fault_simulation_pipeline_on_alu4() {
    // End-to-end pin of the simulation side: a deterministic random pattern
    // suite on the 4-bit ALU must keep detecting exactly the same faults at
    // exactly the same patterns through any engine or data-structure
    // refactor.  These are integer counts and exactly representable curve
    // points, so the comparison is exact.
    use lsi_quality::fault::universe::FaultUniverse;
    use lsi_quality::netlist::library;
    use lsi_quality::tpg::suite::TestSuiteBuilder;
    let circuit = library::alu4();
    let universe = FaultUniverse::full(&circuit);
    let suite = TestSuiteBuilder {
        seed: 1981,
        chunk: 32,
        max_random_patterns: 128,
        target_coverage: 0.95,
        podem_top_up: false,
        ..TestSuiteBuilder::default()
    }
    .build_cached(None, None, &circuit, &universe);
    assert_eq!(universe.len(), 476);
    assert_eq!(suite.patterns.len(), 64);
    assert_eq!(suite.fault_list.detected_count(), 461);
    let curve_coverage_after = |patterns: usize| {
        suite
            .coverage_curve
            .points()
            .nth(patterns - 1)
            .map(|(_, coverage)| coverage)
            .expect("curve point exists")
    };
    assert_golden(
        curve_coverage_after(8),
        0.758403361345,
        "alu4 coverage after 8 patterns",
    );
    assert_golden(
        curve_coverage_after(16),
        0.911764705882,
        "alu4 coverage after 16 patterns",
    );
    assert_golden(
        curve_coverage_after(32),
        0.934873949580,
        "alu4 coverage after 32 patterns",
    );
}

#[test]
fn golden_fault_simulation_pipeline_is_lane_invariant() {
    // The same end-to-end pin as above under the widest packed lane (and
    // the narrowest, for symmetry): SIMD-wide chunks are a pure throughput
    // change, so every pinned number — detection counts, curve points —
    // must come out identical to the 64-bit baseline at the same 1e-9
    // tolerance.
    use lsi_quality::exec::LaneWidth;
    use lsi_quality::fault::universe::FaultUniverse;
    use lsi_quality::netlist::library;
    use lsi_quality::tpg::suite::TestSuiteBuilder;
    let circuit = library::alu4();
    let universe = FaultUniverse::full(&circuit);
    for lanes in [LaneWidth::X1, LaneWidth::X8] {
        let suite = TestSuiteBuilder {
            seed: 1981,
            chunk: 32,
            max_random_patterns: 128,
            target_coverage: 0.95,
            podem_top_up: false,
            lanes,
            ..TestSuiteBuilder::default()
        }
        .build_cached(None, None, &circuit, &universe);
        assert_eq!(suite.patterns.len(), 64, "lanes = {lanes}");
        assert_eq!(suite.fault_list.detected_count(), 461, "lanes = {lanes}");
        let curve_coverage_after = |patterns: usize| {
            suite
                .coverage_curve
                .points()
                .nth(patterns - 1)
                .map(|(_, coverage)| coverage)
                .expect("curve point exists")
        };
        assert_golden(
            curve_coverage_after(8),
            0.758403361345,
            &format!("alu4 coverage after 8 patterns, lanes {lanes}"),
        );
        assert_golden(
            curve_coverage_after(16),
            0.911764705882,
            &format!("alu4 coverage after 16 patterns, lanes {lanes}"),
        );
        assert_golden(
            curve_coverage_after(32),
            0.934873949580,
            &format!("alu4 coverage after 32 patterns, lanes {lanes}"),
        );
    }
}

#[test]
fn reject_rate_and_requirement_are_mutually_consistent() {
    // Whatever coverage the solver proposes must achieve the target when fed
    // back through eq. 8, across a sweep of parameters.
    for &y in &[0.05, 0.2, 0.5, 0.9] {
        for &n0 in &[1.0, 2.0, 8.0, 20.0] {
            for &r in &[0.02, 0.005, 0.0005] {
                let params = ModelParams::new(yield_of(y), n0).expect("valid");
                let coverage = required_fault_coverage(&params, reject(r)).expect("solves");
                let achieved = field_reject_rate(&params, coverage);
                assert!(
                    achieved.value() <= r + 1e-9,
                    "y={y} n0={n0} r={r}: achieved {}",
                    achieved.value()
                );
                // And one point less coverage would miss the target (unless
                // the requirement was already zero).
                if coverage.value() > 0.02 {
                    let slack = FaultCoverage::new(coverage.value() - 0.02).expect("valid");
                    assert!(field_reject_rate(&params, slack).value() > r);
                }
            }
        }
    }
}
