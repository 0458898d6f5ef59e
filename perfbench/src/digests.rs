//! Recorded output digests.
//!
//! Every op hashes the statistics it produced; the hash must equal the one
//! recorded here for the workload and seed.  Seeds without a record are
//! checked for determinism instead: every op of the run must produce the
//! same digest as the first.  The line suites (fault list and coverage) do
//! not depend on the seed, so their digests are checked on every seed.

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// A seed not used while the benchmark was written, recorded as a check.
pub const HELD_OUT_SEED: u64 = 7;

/// `(workload, seed, digest)` of each recorded op.
const RECORDED: &[(&str, u64, u64)] = &[
    ("line", DEFAULT_SEED, 0xed9f_3b89_35ad_6395),
    ("line", HELD_OUT_SEED, 0x5d04_e578_a30b_cb24),
    ("bist_sweep", DEFAULT_SEED, 0xb162_eac4_4ce5_588c),
    ("bist_sweep", HELD_OUT_SEED, 0x52dd_16aa_1bbb_d237),
    ("serve_warm", DEFAULT_SEED, 0x2756_da6b_55f4_ae0a),
    ("serve_warm", HELD_OUT_SEED, 0xdcd7_ceb9_c912_a89c),
];

/// `(device, digest)` of the line suite: fault list and coverage curve.
pub const LINE_SUITES: &[(&str, u64)] = &[
    ("reduced", 0xa738_7ce2_2a55_8ef3),
    ("full", 0x8760_4037_f2fa_24db),
];

pub fn recorded(workload: &str, seed: u64) -> Option<u64> {
    RECORDED
        .iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
        .map(|&(_, _, digest)| digest)
}

pub fn line_suite(device: &str) -> Option<u64> {
    LINE_SUITES
        .iter()
        .find(|(d, _)| *d == device)
        .map(|&(_, digest)| digest)
}

/// Compares each op's digest with the record, or with the run's first op.
pub struct DigestCheck {
    expected: Option<u64>,
    pub first: Option<u64>,
}

impl DigestCheck {
    pub fn new(workload: &str, seed: u64) -> DigestCheck {
        DigestCheck {
            expected: recorded(workload, seed),
            first: None,
        }
    }

    pub fn is_recorded(&self) -> bool {
        self.expected.is_some()
    }

    pub fn check(&mut self, digest: u64) -> Result<(), String> {
        let reference = self.expected.or(self.first);
        self.first.get_or_insert(digest);
        match reference {
            Some(want) if want != digest => Err(format!(
                "output digest {digest:#018x} differs from {} {want:#018x}",
                if self.expected.is_some() {
                    "the recorded"
                } else {
                    "the first op's"
                }
            )),
            _ => Ok(()),
        }
    }
}
