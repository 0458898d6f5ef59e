//! Aliasing accounting and effective coverage.
//!
//! The paper's quality model consumes one number per test: the fault
//! coverage `f = m / N`.  Under BIST the number the model *should* consume
//! is smaller than the fault simulator reports, because an aliased fault —
//! detected by the pattern set, masked by the signature compare — ships
//! exactly like an untested one.  [`AliasingReport`] makes that correction
//! explicit: it counts the aliased faults of a
//! [`SignatureDictionary`] exactly, compares the observed aliasing
//! probability with the classical `2^−k` estimate for a `k`-bit MISR, and
//! exposes the *effective coverage* that replaces `f` in the defect-level
//! equations (eq. 7/8) when the test is applied through a compactor.

use crate::signature::SignatureDictionary;

/// The aliasing outcome of one self-test over one fault universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AliasingReport {
    /// Size `N` of the fault universe.
    pub universe_size: usize,
    /// Faults whose responses differ at some applied pattern (detections
    /// before compaction — the numerator of the raw coverage).
    pub raw_detected: usize,
    /// Faults the signature compare actually catches.
    pub signature_detected: usize,
    /// Detected-but-masked faults (`raw_detected − signature_detected`).
    pub aliased: usize,
    /// MISR width `k`.
    pub signature_width: u32,
    /// Number of signature readouts.
    pub sessions: usize,
}

impl AliasingReport {
    /// Summarises a signature dictionary.
    pub fn from_dictionary(dictionary: &SignatureDictionary) -> AliasingReport {
        let raw_detected = dictionary.raw_detected_count();
        let signature_detected = dictionary.signature_detected_count();
        AliasingReport {
            universe_size: dictionary.len(),
            raw_detected,
            signature_detected,
            aliased: raw_detected - signature_detected,
            signature_width: dictionary.signature_width(),
            sessions: dictionary.sessions(),
        }
    }

    /// The pre-compaction fault coverage `f = raw_detected / N`.
    pub fn raw_coverage(&self) -> f64 {
        if self.universe_size == 0 {
            0.0
        } else {
            self.raw_detected as f64 / self.universe_size as f64
        }
    }

    /// The effective (aliasing-corrected) coverage
    /// `f_eff = signature_detected / N` — never above
    /// [`raw_coverage`](Self::raw_coverage), converging to it as the
    /// signature width grows.
    pub fn effective_coverage(&self) -> f64 {
        if self.universe_size == 0 {
            0.0
        } else {
            self.signature_detected as f64 / self.universe_size as f64
        }
    }

    /// The observed aliasing probability: the fraction of detected faults
    /// the compactor masked (0 when nothing is detected).
    pub fn aliasing_fraction(&self) -> f64 {
        if self.raw_detected == 0 {
            0.0
        } else {
            self.aliased as f64 / self.raw_detected as f64
        }
    }

    /// The classical `2^−k` aliasing estimate for a `k`-bit maximal-length
    /// MISR (per fault, over a long random error stream).
    pub fn estimated_aliasing_fraction(&self) -> f64 {
        (self.signature_width as f64 * -(2.0f64.ln())).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::BistPlan;
    use lsiq_exec::{ExecutionContext, LaneWidth};
    use lsiq_fault::universe::FaultUniverse;
    use lsiq_netlist::library;
    use lsiq_sim::pattern::{Pattern, PatternSet};

    /// The c17 signature dictionary of `universe` under one plan.
    fn dictionary(
        universe: &FaultUniverse,
        patterns: &PatternSet,
        plan: BistPlan,
    ) -> SignatureDictionary {
        SignatureDictionary::build_sweep_cached(
            &ExecutionContext::new(1),
            &library::c17(),
            universe,
            patterns,
            plan.session_len,
            &[plan.signature_width],
            &[patterns.len()],
            LaneWidth::Auto,
            None,
        )
        .swap_remove(0)
        .swap_remove(0)
    }

    fn report(plan: BistPlan) -> AliasingReport {
        let universe = FaultUniverse::full(&library::c17());
        let patterns: PatternSet = (0..32).map(|v| Pattern::from_integer(v, 5)).collect();
        AliasingReport::from_dictionary(&dictionary(&universe, &patterns, plan))
    }

    #[test]
    fn effective_coverage_never_exceeds_raw() {
        for width in [4u32, 8, 16] {
            let report = report(BistPlan {
                session_len: 4,
                signature_width: width,
            });
            assert!(report.effective_coverage() <= report.raw_coverage() + 1e-15);
            assert_eq!(
                report.aliased,
                report.raw_detected - report.signature_detected
            );
            assert!(
                (report.estimated_aliasing_fraction() - 0.5f64.powi(width as i32)).abs() < 1e-12
            );
        }
    }

    #[test]
    fn exhaustive_wide_signature_report_is_clean() {
        let report = report(BistPlan {
            session_len: 8,
            signature_width: 16,
        });
        assert_eq!(report.raw_detected, report.universe_size);
        assert_eq!(report.aliased, 0);
        assert!((report.raw_coverage() - 1.0).abs() < 1e-12);
        assert!((report.effective_coverage() - 1.0).abs() < 1e-12);
        assert_eq!(report.aliasing_fraction(), 0.0);
        assert_eq!(report.sessions, 4);
    }

    #[test]
    fn empty_universe_yields_zero_coverages() {
        let universe = FaultUniverse::from_faults(Vec::new());
        let patterns: PatternSet = (0..4).map(|v| Pattern::from_integer(v, 5)).collect();
        let report =
            AliasingReport::from_dictionary(&dictionary(&universe, &patterns, BistPlan::default()));
        assert_eq!(report.raw_coverage(), 0.0);
        assert_eq!(report.effective_coverage(), 0.0);
        assert_eq!(report.aliasing_fraction(), 0.0);
    }
}
