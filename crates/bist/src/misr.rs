//! Multiple-input signature registers (MISR).
//!
//! A MISR is an LFSR with parallel inputs: each clock the register performs
//! one Galois step and XORs the current output response into its state, one
//! response bit per register position (responses wider than the register
//! fold onto positions modulo the width).  After the last pattern the state
//! is the test's *signature*; a self-tested chip passes when its signature
//! equals the fault-free one.
//!
//! Compaction loses information: a faulty response sequence can fold to the
//! fault-free signature ("aliasing"), silently converting a detected fault
//! into a test escape.  For a `k`-bit maximal-polynomial MISR the classical
//! estimate of that probability is `2^−k` per readout; the
//! [`aliasing`](crate::aliasing) module compares the estimate against the
//! exact count over a fault universe.
//!
//! The fold is linear over GF(2) — `fold` distributes over XOR of response
//! streams — so a register fed only the *error* stream (good XOR faulty)
//! holds exactly `faulty signature XOR good signature`: a failing readout is
//! a non-zero error state, and the faulty signature itself is never
//! materialised.  The signature-dictionary builder relies on that: it
//! compresses each pattern's sparse error bits into one parallel-input word
//! per register width and feeds it to [`Misr::fold_compressed`].

use crate::lfsr::{maximal_polynomial, DEGREE_GRAMMAR, SUPPORTED_DEGREES};
use lsiq_exec::ConfigError;
use lsiq_sim::packed::{gather_chunk_slot, gather_slot, PackedBlock};

/// A `width`-bit multiple-input signature register with the built-in
/// maximal-length feedback polynomial of that width.
///
/// ```
/// use lsiq_bist::misr::Misr;
///
/// let mut misr = Misr::new(16);
/// // Fold two output responses (one bool per circuit output, LSB first).
/// misr.fold([true, false, true]);
/// misr.fold([false, false, true]);
/// let signature = misr.signature();
///
/// // The same response sequence always folds to the same signature…
/// let mut replay = Misr::new(16);
/// replay.fold([true, false, true]);
/// replay.fold([false, false, true]);
/// assert_eq!(replay.signature(), signature);
///
/// // …and a single flipped response bit changes it.
/// let mut faulty = Misr::new(16);
/// faulty.fold([true, false, true]);
/// faulty.fold([true, false, true]);
/// assert_ne!(faulty.signature(), signature);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Misr {
    state: u64,
    width: u32,
    polynomial: u64,
}

impl Misr {
    /// Creates a zero-state register of `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not one of [`SUPPORTED_DEGREES`].
    pub fn new(width: u32) -> Misr {
        Misr::try_new(width).unwrap_or_else(|_| {
            panic!(
                "no built-in MISR polynomial of width {width} (supported: {SUPPORTED_DEGREES:?})"
            )
        })
    }

    /// The fallible form of [`new`](Misr::new), for signature widths that
    /// arrive from user configuration (a `BistPlan`, a sweep
    /// specification): an unsupported width becomes a typed [`ConfigError`]
    /// instead of a panic.
    pub fn try_new(width: u32) -> Result<Misr, ConfigError> {
        let polynomial = maximal_polynomial(width).ok_or_else(|| {
            ConfigError::invalid_value("signature width", width.to_string(), DEGREE_GRAMMAR)
        })?;
        Ok(Misr {
            state: 0,
            width,
            polynomial,
        })
    }

    /// The register width `k` (signature bits).
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Resets the register to the all-zero state (the start of a test
    /// session).
    pub fn reset(&mut self) {
        self.state = 0;
    }

    /// The current signature.
    pub fn signature(&self) -> u64 {
        self.state
    }

    /// One Galois step of the feedback polynomial over `state`.
    #[inline]
    fn step(state: u64, polynomial: u64) -> u64 {
        let lsb = state & 1;
        let shifted = state >> 1;
        if lsb == 1 {
            shifted ^ polynomial
        } else {
            shifted
        }
    }

    /// Compresses one response (one bit per circuit output, in output
    /// declaration order) into a parallel-input word: output `o` lands on
    /// register position `o mod width`.
    #[inline]
    fn compress(&self, response: impl IntoIterator<Item = bool>) -> u64 {
        let mut incoming = 0u64;
        for (output, bit) in response.into_iter().enumerate() {
            if bit {
                incoming ^= 1u64 << (output as u32 % self.width);
            }
        }
        incoming
    }

    /// Folds one pattern's output response into the signature: one register
    /// step, then the parallel-input XOR.
    pub fn fold(&mut self, response: impl IntoIterator<Item = bool>) {
        let incoming = self.compress(response);
        self.fold_compressed(incoming);
    }

    /// Folds one pattern's response already compressed into a
    /// parallel-input word: bit `o mod width` is the XOR of the response
    /// bits of every output `o` landing there (what [`fold`](Misr::fold)
    /// computes from the full response).
    ///
    /// Callers that know which outputs are set compress those bits
    /// directly instead of walking every output of every pattern: the
    /// signature-dictionary builder feeds a fault's *error* stream, which is
    /// set only at the few outputs the fault disturbs.  A zero register fed
    /// zero words stays zero.
    #[inline]
    pub fn fold_compressed(&mut self, incoming: u64) {
        self.state = Misr::step(self.state, self.polynomial) ^ incoming;
    }

    /// Folds a packed 64-pattern block of output responses — one `u64` per
    /// circuit output, as produced by
    /// [`CompiledCircuit::output_words`](lsiq_sim::levelized::CompiledCircuit::output_words)
    /// — in pattern order.  Only the low `pattern_count` slots are folded.
    pub fn fold_block(&mut self, output_words: &[u64], pattern_count: usize) {
        for slot in 0..pattern_count {
            self.fold(gather_slot(output_words, slot));
        }
    }

    /// Folds a lane-wide packed chunk of output responses — one
    /// [`PackedBlock`] per circuit output, as produced by
    /// [`CompiledCircuit::output_chunks`](lsiq_sim::levelized::CompiledCircuit::output_chunks)
    /// — in pattern order.  Only the low `pattern_count` slots are folded;
    /// the `L = 1` case is exactly [`fold_block`](Misr::fold_block).
    pub fn fold_chunk<const L: usize>(
        &mut self,
        output_chunks: &[PackedBlock<L>],
        pattern_count: usize,
    ) {
        for slot in 0..pattern_count {
            self.fold(gather_chunk_slot(output_chunks, slot));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsiq_stats::rng::{Rng, Xoshiro256StarStar};

    fn random_responses(outputs: usize, patterns: usize, seed: u64) -> Vec<Vec<bool>> {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        (0..patterns)
            .map(|_| (0..outputs).map(|_| rng.next_bool(0.5)).collect())
            .collect()
    }

    /// Packs per-pattern responses into one word per output (≤ 64 patterns).
    fn pack(responses: &[Vec<bool>], outputs: usize) -> Vec<u64> {
        let mut words = vec![0u64; outputs];
        for (slot, response) in responses.iter().enumerate() {
            for (output, &bit) in response.iter().enumerate() {
                if bit {
                    words[output] |= 1u64 << slot;
                }
            }
        }
        words
    }

    #[test]
    fn fold_block_matches_serial_fold() {
        let responses = random_responses(7, 50, 1);
        let words = pack(&responses, 7);
        let mut serial = Misr::new(16);
        for response in &responses {
            serial.fold(response.iter().copied());
        }
        let mut packed = Misr::new(16);
        packed.fold_block(&words, 50);
        assert_eq!(serial.signature(), packed.signature());
    }

    #[test]
    fn fold_is_linear_over_xor() {
        // signature(a) ^ signature(b) == signature(a ^ b) — the identity the
        // error-stream dictionary build rests on.
        let a = random_responses(5, 40, 2);
        let b = random_responses(5, 40, 3);
        let fold_all = |streams: &[Vec<bool>]| {
            let mut misr = Misr::new(12);
            for response in streams {
                misr.fold(response.iter().copied());
            }
            misr.signature()
        };
        let xored: Vec<Vec<bool>> = a
            .iter()
            .zip(&b)
            .map(|(ra, rb)| ra.iter().zip(rb).map(|(&x, &y)| x ^ y).collect())
            .collect();
        assert_eq!(fold_all(&a) ^ fold_all(&b), fold_all(&xored));
    }

    #[test]
    fn compressed_error_folds_detect_exactly_signature_mismatches() {
        let good = random_responses(6, 64, 4);
        let good_words = pack(&good, 6);
        // Flip one response bit to make a "faulty" stream.
        let mut faulty = good.clone();
        faulty[17][2] = !faulty[17][2];
        let faulty_words = pack(&faulty, 6);

        let mut good_misr = Misr::new(8);
        good_misr.fold_block(&good_words, 64);
        let mut faulty_misr = Misr::new(8);
        faulty_misr.fold_block(&faulty_words, 64);
        // The error stream has one set bit, output 2 of pattern 17: its
        // compressed word is `1 << (2 mod 8)` there and zero elsewhere.
        let mut error_misr = Misr::new(8);
        for slot in 0..64 {
            error_misr.fold_compressed(if slot == 17 { 1 << 2 } else { 0 });
        }
        assert_ne!(error_misr.signature(), 0);
        assert_eq!(
            error_misr.signature(),
            good_misr.signature() ^ faulty_misr.signature()
        );

        // Compressing a full response by hand is exactly `fold`.
        let mut by_hand = Misr::new(4);
        let mut folded = Misr::new(4);
        for response in &good {
            let incoming = response
                .iter()
                .enumerate()
                .filter(|&(_, &bit)| bit)
                .fold(0u64, |word, (output, _)| word ^ (1 << (output % 4)));
            by_hand.fold_compressed(incoming);
            folded.fold(response.iter().copied());
        }
        assert_eq!(by_hand, folded);

        // An all-zero error stream never leaves the zero state.
        let mut idle = Misr::new(8);
        for _ in 0..64 {
            idle.fold_compressed(0);
        }
        assert_eq!(idle.signature(), 0);
    }

    #[test]
    fn chunk_folds_match_word_folds_at_every_lane_width() {
        fn check<const L: usize>() {
            let patterns = 64 * L - 7; // partial tail in the last lane
            let responses = random_responses(6, patterns, L as u64);
            let mut chunks = vec![PackedBlock::<L>::ZERO; 6];
            for (slot, response) in responses.iter().enumerate() {
                for (output, &bit) in response.iter().enumerate() {
                    if bit {
                        chunks[output].0[slot / 64] |= 1u64 << (slot % 64);
                    }
                }
            }
            let mut serial = Misr::new(16);
            for response in &responses {
                serial.fold(response.iter().copied());
            }
            let mut packed = Misr::new(16);
            packed.fold_chunk(&chunks, patterns);
            assert_eq!(serial.signature(), packed.signature(), "L = {L}");
        }
        check::<1>();
        check::<4>();
        check::<8>();
    }

    #[test]
    fn wide_responses_fold_onto_the_register() {
        // 40 outputs into a 4-bit register: outputs o and o+4 share a slot.
        let mut misr = Misr::new(4);
        let mut response = [false; 40];
        response[3] = true;
        response[7] = true; // cancels response[3] on position 3
        misr.fold(response.iter().copied());
        assert_eq!(misr.signature(), 0);
        assert_eq!(misr.width(), 4);
    }

    #[test]
    fn reset_restores_the_session_start() {
        let mut misr = Misr::new(16);
        misr.fold([true, true, false]);
        assert_ne!(misr.signature(), 0);
        misr.reset();
        assert_eq!(misr.signature(), 0);
    }

    #[test]
    #[should_panic(expected = "no built-in MISR polynomial")]
    fn unsupported_width_panics() {
        let _ = Misr::new(10);
    }

    #[test]
    fn try_new_returns_typed_errors() {
        assert_eq!(Misr::try_new(16).expect("supported width"), Misr::new(16));
        let error = Misr::try_new(10).expect_err("unsupported width");
        assert_eq!(error.value(), "10");
        assert!(error.to_string().contains("4, 8, 12, 16"), "{error}");
    }
}
