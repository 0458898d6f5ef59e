//! The BIST wafer tester: signature compare per test session.
//!
//! Where the Sentry-like [`WaferTester`](crate::tester::WaferTester)
//! observes every applied pattern and records the chip's first failing
//! *pattern*, a self-tested chip is observed only at MISR readouts: the
//! tester compares the chip's signature against the fault-free one after
//! each test session and records the first failing *session*.  Two things
//! follow for the quality experiment:
//!
//! * the reject table is coarser — a chip can only be rejected at a session
//!   boundary, never mid-session, and
//! * aliasing can mask a defective chip entirely: its responses differ, its
//!   signatures never do, and it ships as a test escape even though the
//!   pattern set "covers" its faults.
//!
//! Both effects are captured by the
//! [`SignatureDictionary`] the tester consults; which tester a run uses is
//! selected by [`TestMode`](lsiq_exec::TestMode) on the typed run
//! configuration (`LSIQ_TEST_MODE=stored|bist`).

use crate::chip::Chip;
use crate::lot::ChipLot;
use crate::tester::TestRecord;
use lsiq_bist::signature::SignatureDictionary;

/// The BIST outcome of a single chip: pass/fail per test session, recorded
/// as the first failing session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionRecord {
    /// The chip's position in its lot.
    pub chip_id: usize,
    /// The first test session (zero-based, in readout order) whose signature
    /// differed from the fault-free one, or `None` if every readout matched.
    pub first_fail_session: Option<usize>,
    /// Whether the chip actually carries faults (ground truth, unknown to a
    /// real tester but available to the simulation for validation).
    pub is_defective: bool,
}

impl SessionRecord {
    /// The chip passed every signature readout.
    pub fn passed(&self) -> bool {
        self.first_fail_session.is_none()
    }

    /// The chip passed the self-test but is actually defective (a test
    /// escape — by weak coverage or by aliasing).
    pub fn is_escape(&self) -> bool {
        self.passed() && self.is_defective
    }

    /// Converts the session-level observation to a pattern-level
    /// [`TestRecord`] for the cumulative-reject tabulation: a chip failing
    /// session `s` is observed to fail once the session's last pattern has
    /// been applied — pattern index `(s + 1) · session_len − 1`, clamped to
    /// the final pattern for a trailing partial session.
    ///
    /// # Panics
    ///
    /// Panics if `session_len` is 0, like every other session API.
    pub fn to_test_record(&self, session_len: usize, pattern_count: usize) -> TestRecord {
        assert!(session_len >= 1, "a session must apply at least 1 pattern");
        TestRecord {
            chip_id: self.chip_id,
            first_fail: self.first_fail_session.map(|session| {
                ((session + 1) * session_len - 1).min(pattern_count.saturating_sub(1))
            }),
            is_defective: self.is_defective,
        }
    }
}

/// A BIST wafer tester bound to one self-test programme via its signature
/// dictionary.
///
/// Mirrors [`WaferTester`](crate::tester::WaferTester): under the paper's
/// single-fault-detectability assumption a chip's signature first diverges
/// at the earliest first-failing session over its faults, so the tester
/// consults the per-fault [`SignatureDictionary`] instead of folding every
/// chip's responses gate by gate.
#[derive(Debug, Clone)]
pub struct SignatureTester<'d> {
    dictionary: &'d SignatureDictionary,
}

impl<'d> SignatureTester<'d> {
    /// Creates a tester applying the self-test summarised by `dictionary`.
    pub fn new(dictionary: &'d SignatureDictionary) -> Self {
        SignatureTester { dictionary }
    }

    /// The dictionary this tester consults.
    pub fn dictionary(&self) -> &'d SignatureDictionary {
        self.dictionary
    }

    /// Tests a single chip.
    pub fn test_chip(&self, chip: &Chip) -> SessionRecord {
        SessionRecord {
            chip_id: chip.id(),
            first_fail_session: self.dictionary.first_failure_of_chip(chip.fault_indices()),
            is_defective: !chip.is_good(),
        }
    }

    /// Tests a slice of chips, in slice order.
    ///
    /// Each record depends only on its own chip, so a lot may be tested as
    /// one slice or as concatenated sub-slices with identical results —
    /// [`ParallelLotRunner`](crate::pipeline::ParallelLotRunner) relies on
    /// this to shard a lot across threads.
    pub fn test_chips(&self, chips: &[Chip]) -> Vec<SessionRecord> {
        chips.iter().map(|chip| self.test_chip(chip)).collect()
    }

    /// Tests every chip of a lot, in lot order.
    pub fn test_lot(&self, lot: &ChipLot) -> Vec<SessionRecord> {
        self.test_chips(lot.chips())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lot::ModelLotConfig;
    use lsiq_bist::signature::BistPlan;
    use lsiq_exec::{ExecutionContext, LaneWidth};
    use lsiq_fault::universe::FaultUniverse;
    use lsiq_netlist::library;
    use lsiq_sim::pattern::{Pattern, PatternSet};

    fn c17_dictionary(plan: BistPlan) -> (SignatureDictionary, usize) {
        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        let patterns: PatternSet = (0..32).map(|v| Pattern::from_integer(v, 5)).collect();
        let dictionary = SignatureDictionary::build_sweep_cached(
            &ExecutionContext::new(1),
            &circuit,
            &universe,
            &patterns,
            plan.session_len,
            &[plan.signature_width],
            &[patterns.len()],
            LaneWidth::Auto,
            None,
        )
        .swap_remove(0)
        .swap_remove(0);
        (dictionary, universe.len())
    }

    fn strong_plan() -> BistPlan {
        BistPlan {
            session_len: 8,
            signature_width: 16,
        }
    }

    #[test]
    fn good_chips_pass_and_are_not_escapes() {
        let (dictionary, _) = c17_dictionary(strong_plan());
        let tester = SignatureTester::new(&dictionary);
        let record = tester.test_chip(&Chip::new(0, vec![], 0));
        assert!(record.passed());
        assert!(!record.is_escape());
        assert!(!record.is_defective);
        assert_eq!(tester.dictionary().sessions(), 4);
    }

    #[test]
    fn defective_chips_fail_at_their_earliest_fault_session() {
        let (dictionary, _) = c17_dictionary(strong_plan());
        let tester = SignatureTester::new(&dictionary);
        let chip = Chip::new(1, vec![0, 7, 11], 1);
        let record = tester.test_chip(&chip);
        let expected = [0usize, 7, 11]
            .iter()
            .filter_map(|&i| dictionary.first_failing_session(i))
            .min();
        assert_eq!(record.first_fail_session, expected);
        assert!(record.is_defective);
    }

    #[test]
    fn lot_testing_preserves_order_and_rejects_all_defectives() {
        let (dictionary, universe_len) = c17_dictionary(strong_plan());
        let tester = SignatureTester::new(&dictionary);
        let lot = ChipLot::from_model(&ModelLotConfig {
            chips: 200,
            yield_fraction: 0.4,
            n0: 3.0,
            fault_universe_size: universe_len,
            seed: 5,
        });
        let records = tester.test_lot(&lot);
        assert_eq!(records.len(), 200);
        for (index, record) in records.iter().enumerate() {
            assert_eq!(record.chip_id, index);
        }
        // The exhaustive 16-bit self-test aliases nothing on c17, so every
        // defective chip fails and every good chip passes.
        assert!(records.iter().all(|r| r.passed() != r.is_defective));
    }

    #[test]
    fn session_records_convert_to_pattern_records() {
        let record = SessionRecord {
            chip_id: 3,
            first_fail_session: Some(2),
            is_defective: true,
        };
        // Session 2 of 8-pattern sessions completes at pattern index 23.
        assert_eq!(record.to_test_record(8, 32).first_fail, Some(23));
        // A trailing partial session clamps to the last applied pattern.
        assert_eq!(record.to_test_record(8, 20).first_fail, Some(19));
        let passing = SessionRecord {
            chip_id: 4,
            first_fail_session: None,
            is_defective: false,
        };
        let converted = passing.to_test_record(8, 32);
        assert_eq!(converted.first_fail, None);
        assert_eq!(converted.chip_id, 4);
        assert!(!converted.is_defective);
    }

    #[test]
    #[should_panic(expected = "at least 1 pattern")]
    fn zero_length_sessions_panic_in_conversion() {
        let record = SessionRecord {
            chip_id: 0,
            first_fail_session: Some(1),
            is_defective: true,
        };
        let _ = record.to_test_record(0, 32);
    }

    #[test]
    fn narrow_signatures_can_ship_defective_chips() {
        // A 4-bit signature over long sessions aliases some faults; a chip
        // carrying only aliased faults escapes.
        let (dictionary, _) = c17_dictionary(BistPlan {
            session_len: 32,
            signature_width: 4,
        });
        let tester = SignatureTester::new(&dictionary);
        let aliased = dictionary.aliased_indices();
        if let Some(&fault) = aliased.first() {
            let record = tester.test_chip(&Chip::new(0, vec![fault], 1));
            assert!(record.is_escape(), "aliased fault {fault} must escape");
        }
        // Regardless of whether c17 aliases at this seed, the dictionary's
        // bookkeeping must agree with the tester's outcomes.
        assert_eq!(
            dictionary.signature_detected_count() + aliased.len(),
            dictionary.raw_detected_count()
        );
    }
}
