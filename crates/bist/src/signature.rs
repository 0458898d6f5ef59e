//! Per-fault signature dictionaries.
//!
//! The stored-pattern flow records, per fault, the first *pattern* that
//! detects it ([`FaultDictionary`](lsiq_fault::dictionary::FaultDictionary)).
//! Under BIST the tester only observes MISR readouts, so the per-fault
//! record becomes the first *test session* whose signature differs from the
//! fault-free one — and a fault whose responses differ but whose session
//! signatures never do is *aliased*: detected by the pattern set, shipped by
//! the signature compare.
//!
//! [`build_sweep_cached`](SignatureDictionary::build_sweep_cached) produces
//! both records for a whole fault universe in one fault-simulation pass:
//!
//! * The good machine is evaluated once per lane-wide chunk of patterns
//!   (through a shared [`GoodMachineCache`] when one is given).
//! * Faults are propagated by the same event-driven
//!   [`ConeKernel`] as the production fault engine, so each
//!   (fault, chunk) costs its disturbed fanout cone, not the whole circuit.
//!   The kernel yields the disturbed outputs' error words (good XOR
//!   faulty), and only that *error* stream is folded: by the fold's GF(2)
//!   linearity a session signature mismatches exactly when the error
//!   register is non-zero at the readout.
//! * Each error word is pre-compressed into one MISR input word per
//!   pattern and register width ([`Misr::fold_compressed`]) by walking its
//!   set bits only.
//! * On the circuit's full universe one representative per structural
//!   equivalence class is simulated.  Equivalent faults have the same
//!   faulty circuit function, hence the same signatures, and the
//!   per-fault records are expanded through the class map.
//! * The fault shards run on the worker pool (the shared
//!   [`map_shards`] rule, like the incremental engine's class shards).  Faults whose error stream has gone quiet skip
//!   whole chunks without touching the registers, and a fault leaves the
//!   pass once every requested width has resolved its first failing
//!   session.

use crate::misr::Misr;
use lsiq_exec::{map_shards, ExecutionContext, LaneWidth};
use lsiq_fault::collapse::collapse_equivalence;
use lsiq_fault::cone::{good_chunks, ConeKernel, GoodChunk};
use lsiq_fault::model::Fault;
use lsiq_fault::universe::FaultUniverse;
use lsiq_netlist::circuit::Circuit;
use lsiq_obs::{Counter, Span};
use lsiq_sim::cache::GoodMachineCache;
use lsiq_sim::levelized::CompiledCircuit;
use lsiq_sim::packed::PackedBlock;
use lsiq_sim::pattern::PatternSet;

/// One-pass sweeps started (one per `build_sweep_cached` call).
static SWEEPS: Counter = Counter::new("bist.sweep.runs");
/// Universe faults a sweep covers; invariant at any worker count.
static SWEEP_FAULTS: Counter = Counter::new("bist.sweep.faults");
/// `(length, width)` grid cells the sweep resolves.
static SWEEP_CELLS: Counter = Counter::new("bist.sweep.cells");
/// Packing and folding the fault-free machine (once per sweep).
static GOOD_SIGNATURES: Span = Span::new("bist.sweep.good_signatures");
/// Per-shard cone propagation and error-stream folding.
static PROPAGATE: Span = Span::new("bist.sweep.propagate");

/// The readout schedule and signature geometry of one self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BistPlan {
    /// Patterns applied between signature readouts; a trailing partial
    /// session is read out too.  Must be at least 1.
    pub session_len: usize,
    /// MISR width `k` (one of
    /// [`SUPPORTED_DEGREES`](crate::lfsr::SUPPORTED_DEGREES)).
    pub signature_width: u32,
}

impl Default for BistPlan {
    /// The default self-test geometry: 64-pattern sessions (one packed
    /// simulation block) compacted into a 16-bit signature.
    fn default() -> BistPlan {
        BistPlan {
            session_len: 64,
            signature_width: 16,
        }
    }
}

/// Per-fault first-failing-session and aliasing records for one fault
/// universe under one ordered pattern set and one [`BistPlan`].
///
/// The BIST analogue of
/// [`FaultDictionary`](lsiq_fault::dictionary::FaultDictionary): the
/// signature tester consults it to decide at which session a defective chip
/// first fails, and the [`AliasingReport`](crate::aliasing::AliasingReport)
/// folds its aliased-fault count into the effective-coverage figure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureDictionary {
    session_len: usize,
    sessions: usize,
    signature_width: u32,
    /// Fault-free signature of each session, in session order.
    good: Vec<u64>,
    /// Per fault: the first session whose signature differs from `good`.
    first_fail: Vec<Option<usize>>,
    /// Per fault: whether any output response differs at any applied
    /// pattern (detection by the pattern set, before compaction).
    raw_detected: Vec<bool>,
}

impl SignatureDictionary {
    /// Builds one dictionary per `(test length, signature width)` grid cell
    /// in a *single* fault-simulation pass over the full pattern set, with
    /// the fault shards running on `context`'s pool; a single dictionary is
    /// the one-length, one-width grid.
    ///
    /// Each requested length is a prefix of `patterns`, and MISR sessions
    /// are independent (the register resets at every readout), so one
    /// maximum-length simulation determines every prefix: full-session
    /// readouts are shared verbatim, and the only extra state a shorter
    /// test needs is the error register's value at its trailing partial
    /// session — captured as a snapshot when the pass crosses that length
    /// boundary.  Every width folds the same simulated error stream into
    /// its own register.  The result is indexed `[length][width]` (input
    /// order) and each dictionary is byte-identical to a build over the
    /// truncated pattern set alone, at any worker count.
    ///
    /// The packed lane width is selectable (results are byte-identical at
    /// every width) and an optional shared [`GoodMachineCache`] supplies —
    /// or receives — the per-chunk good-machine images, so a session that
    /// has already simulated the same circuit over the same patterns (a
    /// test-suite build, an earlier sweep) never re-runs the fault-free
    /// machine.
    ///
    /// # Panics
    ///
    /// Panics if `session_len` is 0, `widths` or `lengths` is empty, any
    /// width is not a supported MISR width, or any length exceeds the
    /// pattern set.
    #[allow(clippy::too_many_arguments)]
    pub fn build_sweep_cached(
        context: &ExecutionContext,
        circuit: &Circuit,
        universe: &FaultUniverse,
        patterns: &PatternSet,
        session_len: usize,
        widths: &[u32],
        lengths: &[usize],
        lanes: LaneWidth,
        cache: Option<&GoodMachineCache>,
    ) -> Vec<Vec<SignatureDictionary>> {
        match lanes.resolve(patterns.len()) {
            1 => SignatureDictionary::build_sweep_lanes::<1>(
                context,
                circuit,
                universe,
                patterns,
                session_len,
                widths,
                lengths,
                cache,
            ),
            4 => SignatureDictionary::build_sweep_lanes::<4>(
                context,
                circuit,
                universe,
                patterns,
                session_len,
                widths,
                lengths,
                cache,
            ),
            _ => SignatureDictionary::build_sweep_lanes::<8>(
                context,
                circuit,
                universe,
                patterns,
                session_len,
                widths,
                lengths,
                cache,
            ),
        }
    }

    /// One lane-monomorphized sweep (see
    /// [`build_sweep_cached`](SignatureDictionary::build_sweep_cached)).
    #[allow(clippy::too_many_arguments)]
    fn build_sweep_lanes<const L: usize>(
        context: &ExecutionContext,
        circuit: &Circuit,
        universe: &FaultUniverse,
        patterns: &PatternSet,
        session_len: usize,
        widths: &[u32],
        lengths: &[usize],
        cache: Option<&GoodMachineCache>,
    ) -> Vec<Vec<SignatureDictionary>> {
        assert!(session_len >= 1, "a session must apply at least 1 pattern");
        assert!(!widths.is_empty(), "at least one signature width required");
        assert!(!lengths.is_empty(), "at least one test length required");
        assert!(
            lengths.iter().all(|&length| length <= patterns.len()),
            "test lengths cannot exceed the pattern set"
        );
        SWEEPS.incr();
        SWEEP_CELLS.add((widths.len() * lengths.len()) as u64);
        let good_timer = GOOD_SIGNATURES.start();
        let compiled = CompiledCircuit::new(circuit);
        let chunks = good_chunks::<L>(&compiled, patterns, cache);
        let mut boundaries: Vec<usize> = lengths.to_vec();
        boundaries.sort_unstable();
        boundaries.dedup();

        // Fault-free signatures, folded once up front: one signature per
        // *full* session, plus a running-state snapshot at every length
        // boundary (used by lengths whose trailing session is partial).
        let mut inputs = SlotInputs::<L>::new(widths);
        let mut good_registers: Vec<Misr> = widths.iter().map(|&w| Misr::new(w)).collect();
        let mut good_full: Vec<Vec<u64>> = vec![Vec::new(); widths.len()];
        let mut good_partial: Vec<Vec<u64>> = vec![vec![0; boundaries.len()]; widths.len()];
        let mut consumed = 0usize;
        let mut in_session = 0usize;
        let mut next_boundary = 0usize;
        for chunk in &chunks {
            inputs.compress(
                circuit
                    .primary_outputs()
                    .iter()
                    .enumerate()
                    .map(|(position, &out)| (position, chunk.words[out.index()] & chunk.valid)),
                chunk.count,
            );
            for slot in 0..chunk.count {
                for (which, register) in good_registers.iter_mut().enumerate() {
                    register.fold_compressed(inputs.word(which, slot));
                }
                consumed += 1;
                in_session += 1;
                while next_boundary < boundaries.len() && boundaries[next_boundary] == consumed {
                    for (which, register) in good_registers.iter().enumerate() {
                        good_partial[which][next_boundary] = register.signature();
                    }
                    next_boundary += 1;
                }
                if in_session == session_len {
                    for (which, register) in good_registers.iter_mut().enumerate() {
                        good_full[which].push(register.signature());
                        register.reset();
                    }
                    in_session = 0;
                }
            }
        }

        drop(good_timer);

        // On the circuit's full universe simulate one representative per
        // structural equivalence class.  The collapsing rules are gate-local
        // and wire merges stop at fanout stems (primary outputs count as a
        // branch), so class members share the whole faulty circuit function
        // and therefore every signature; `class_of` expands the per-class
        // records when the dictionaries are derived.
        let faults = universe.faults();
        SWEEP_FAULTS.add(faults.len() as u64);
        let collapse = universe
            .is_full(circuit)
            .then(|| collapse_equivalence(circuit));
        let simulated: &[Fault] = collapse
            .as_ref()
            .map_or(faults, |collapse| collapse.collapsed.faults());
        let class_of = |index: usize| match &collapse {
            Some(collapse) => {
                collapse.representative_of[index].expect("equivalence keeps every class")
            }
            None => index,
        };

        // Shard the simulated faults across the pool, as the incremental
        // engine shards its simulation classes.
        let results = map_shards(
            Some(context),
            simulated.len(),
            MIN_FAULTS_PER_SHARD,
            |range| {
                simulate_shard(
                    &compiled,
                    &chunks,
                    &simulated[range],
                    session_len,
                    widths,
                    &boundaries,
                )
            },
        );

        // Concatenate the shards back into simulated-fault order.
        let mut first_error: Vec<Option<usize>> = Vec::with_capacity(simulated.len());
        let mut first_fail: Vec<Vec<Option<usize>>> =
            vec![Vec::with_capacity(simulated.len()); widths.len()];
        let mut partial_fail: Vec<Vec<bool>> =
            vec![Vec::with_capacity(simulated.len() * boundaries.len()); widths.len()];
        for shard in results {
            first_error.extend(shard.first_error);
            for (which, fails) in shard.first_fail.into_iter().enumerate() {
                first_fail[which].extend(fails);
            }
            for (which, partials) in shard.partial_fail.into_iter().enumerate() {
                partial_fail[which].extend(partials);
            }
        }

        // Derive every (length, width) dictionary from the one pass.
        lengths
            .iter()
            .map(|&length| {
                let boundary = boundaries
                    .binary_search(&length)
                    .expect("every length is a recorded boundary");
                let full_sessions = length / session_len;
                let has_partial = length % session_len != 0;
                widths
                    .iter()
                    .enumerate()
                    .map(|(which, &width)| {
                        let mut good = good_full[which][..full_sessions].to_vec();
                        if has_partial {
                            good.push(good_partial[which][boundary]);
                        }
                        let first_fail: Vec<Option<usize>> = (0..faults.len())
                            .map(|index| {
                                let class = class_of(index);
                                match first_fail[which][class] {
                                    // A full-session failure inside the
                                    // prefix is the answer for every longer
                                    // length.
                                    Some(session) if session < full_sessions => Some(session),
                                    // Otherwise the prefix's only remaining
                                    // readout is its trailing partial session.
                                    _ if has_partial
                                        && partial_fail[which]
                                            [class * boundaries.len() + boundary] =>
                                    {
                                        Some(full_sessions)
                                    }
                                    _ => None,
                                }
                            })
                            .collect();
                        let raw_detected: Vec<bool> = (0..faults.len())
                            .map(|index| {
                                first_error[class_of(index)].is_some_and(|pattern| pattern < length)
                            })
                            .collect();
                        SignatureDictionary {
                            session_len,
                            sessions: length.div_ceil(session_len),
                            signature_width: width,
                            good,
                            first_fail,
                            raw_detected,
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Reassembles a dictionary from its recorded parts — the inverse of
    /// the [`good_signatures`](Self::good_signatures) /
    /// [`first_failing_sessions`](Self::first_failing_sessions) /
    /// [`raw_detected_flags`](Self::raw_detected_flags) accessors, used by
    /// artifact stores that persist dictionaries across processes.
    ///
    /// `good` carries one fault-free signature per session (a trailing
    /// partial session included), so `sessions` is taken from its length.
    ///
    /// # Panics
    ///
    /// Panics if `session_len` is 0 or the per-fault vectors disagree in
    /// length.
    pub fn from_parts(
        session_len: usize,
        signature_width: u32,
        good: Vec<u64>,
        first_fail: Vec<Option<usize>>,
        raw_detected: Vec<bool>,
    ) -> SignatureDictionary {
        assert!(session_len >= 1, "a session must apply at least 1 pattern");
        assert_eq!(
            first_fail.len(),
            raw_detected.len(),
            "per-fault records must agree in length"
        );
        SignatureDictionary {
            session_len,
            sessions: good.len(),
            signature_width,
            good,
            first_fail,
            raw_detected,
        }
    }

    /// The fault-free signature of every session, in session order.
    pub fn good_signatures(&self) -> &[u64] {
        &self.good
    }

    /// Per fault: the first session whose signature differs from the
    /// fault-free one.
    pub fn first_failing_sessions(&self) -> &[Option<usize>] {
        &self.first_fail
    }

    /// Per fault: whether any output response differs at any applied
    /// pattern (detection by the pattern set, before compaction).
    pub fn raw_detected_flags(&self) -> &[bool] {
        &self.raw_detected
    }

    /// Number of faults covered by the dictionary.
    pub fn len(&self) -> usize {
        self.first_fail.len()
    }

    /// Returns `true` if the dictionary covers no faults.
    pub fn is_empty(&self) -> bool {
        self.first_fail.is_empty()
    }

    /// Number of test sessions (signature readouts), including a trailing
    /// partial session.
    pub fn sessions(&self) -> usize {
        self.sessions
    }

    /// Patterns applied per full session.
    pub fn session_len(&self) -> usize {
        self.session_len
    }

    /// The MISR width `k`.
    pub fn signature_width(&self) -> u32 {
        self.signature_width
    }

    /// The fault-free signature read out after session `session`.
    pub fn good_signature(&self, session: usize) -> Option<u64> {
        self.good.get(session).copied()
    }

    /// The first session at which fault `index`'s signature differs from the
    /// fault-free one, or `None` if every readout matches (the fault is
    /// undetected — or detected but aliased).
    pub fn first_failing_session(&self, index: usize) -> Option<usize> {
        self.first_fail.get(index).copied().flatten()
    }

    /// Whether fault `index` produces any response difference under the
    /// applied pattern set (detection before compaction).
    pub fn is_raw_detected(&self, index: usize) -> bool {
        self.raw_detected.get(index).copied().unwrap_or(false)
    }

    /// Whether fault `index` is aliased: its responses differ at some
    /// pattern, yet every session signature equals the fault-free one.
    pub fn is_aliased(&self, index: usize) -> bool {
        self.is_raw_detected(index) && self.first_failing_session(index).is_none()
    }

    /// Indices of the aliased faults.
    pub fn aliased_indices(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.is_aliased(i)).collect()
    }

    /// Number of faults detected by the pattern set (before compaction).
    pub fn raw_detected_count(&self) -> usize {
        self.raw_detected.iter().filter(|&&d| d).count()
    }

    /// Number of faults the signature compare detects (raw detections minus
    /// aliased faults).
    pub fn signature_detected_count(&self) -> usize {
        self.first_fail.iter().filter(|f| f.is_some()).count()
    }

    /// The first session at which a chip carrying exactly the faults in
    /// `fault_indices` fails its signature compare, or `None` if every
    /// readout matches.
    ///
    /// This mirrors
    /// [`FaultDictionary::first_failure_of_chip`](lsiq_fault::dictionary::FaultDictionary::first_failure_of_chip)
    /// under the same single-fault-detectability assumption: the chip's
    /// faults are equivalent to a set of independently observable stuck-at
    /// faults, so its signature first diverges at the earliest first-failing
    /// session over them.
    pub fn first_failure_of_chip(&self, fault_indices: &[usize]) -> Option<usize> {
        fault_indices
            .iter()
            .filter_map(|&index| self.first_failing_session(index))
            .min()
    }
}

/// Minimum faults per shard; below this the scheduling overhead costs more
/// than the parallelism recovers (mirrors the incremental fault engine).
const MIN_FAULTS_PER_SHARD: usize = 64;

/// Per-pattern MISR input words for every requested width, pre-compressed
/// from sparse per-output words: output `o`'s bit at slot `s` lands on
/// register position `o mod width` of slot `s`'s word.  That is
/// [`Misr::fold`]'s compression, paid once per set bit instead of once per
/// output per pattern per width.
struct SlotInputs<const L: usize> {
    widths: Vec<u32>,
    /// `[width][slot]`, flattened as `which * PackedBlock::<L>::PATTERNS + slot`.
    words: Vec<u64>,
}

impl<const L: usize> SlotInputs<L> {
    fn new(widths: &[u32]) -> Self {
        SlotInputs {
            widths: widths.to_vec(),
            words: vec![0; widths.len() * PackedBlock::<L>::PATTERNS],
        }
    }

    /// Recompresses the first `count` slots of every width from
    /// `(output position, word)` pairs.
    fn compress(&mut self, outputs: impl Iterator<Item = (usize, PackedBlock<L>)>, count: usize) {
        for row in self.words.chunks_exact_mut(PackedBlock::<L>::PATTERNS) {
            row[..count].fill(0);
        }
        for (position, word) in outputs {
            for (row, &width) in self
                .words
                .chunks_exact_mut(PackedBlock::<L>::PATTERNS)
                .zip(&self.widths)
            {
                let bit = 1u64 << (position as u32 % width);
                for slot in word.set_slots() {
                    row[slot] ^= bit;
                }
            }
        }
    }

    /// Width `which`'s input word for pattern `slot`.
    #[inline]
    fn word(&self, which: usize, slot: usize) -> u64 {
        self.words[which * PackedBlock::<L>::PATTERNS + slot]
    }
}

/// One shard's per-fault results, in shard-local fault order.
struct ShardResult {
    /// `[width][fault]` first failing *full* session.
    first_fail: Vec<Vec<Option<usize>>>,
    /// `[width][fault * boundaries + boundary]` whether the error register
    /// was non-zero when the pass crossed that length boundary — the
    /// trailing partial-session verdict of the test ending there.
    partial_fail: Vec<Vec<bool>>,
    /// `[fault]` index of the first pattern whose response differs, or
    /// `None` if no response ever does.  `first_error < length` is the raw
    /// (pre-compaction) detection verdict of every prefix at once.
    first_error: Vec<Option<usize>>,
}

fn simulate_shard<const L: usize>(
    compiled: &CompiledCircuit<'_>,
    chunks: &[GoodChunk<L>],
    faults: &[Fault],
    session_len: usize,
    widths: &[u32],
    boundaries: &[usize],
) -> ShardResult {
    let _timer = PROPAGATE.start();
    let mut result = ShardResult {
        first_fail: vec![Vec::with_capacity(faults.len()); widths.len()],
        partial_fail: vec![Vec::with_capacity(faults.len() * boundaries.len()); widths.len()],
        first_error: Vec::with_capacity(faults.len()),
    };
    let mut kernel = ConeKernel::<L>::new(compiled);
    let mut inputs = SlotInputs::<L>::new(widths);
    let mut registers: Vec<Misr> = widths.iter().map(|&w| Misr::new(w)).collect();
    let mut first_fail: Vec<Option<usize>> = vec![None; widths.len()];
    for fault in faults {
        first_fail.fill(None);
        for partials in result.partial_fail.iter_mut() {
            partials.resize(partials.len() + boundaries.len(), false);
        }
        let partial_base = result.first_error.len() * boundaries.len();
        let mut unresolved = widths.len();
        let mut first_error: Option<usize> = None;
        for register in registers.iter_mut() {
            register.reset();
        }
        let mut session = 0usize;
        let mut in_session = 0usize;
        let mut consumed = 0usize;
        let mut next_boundary = 0usize;
        // Read out every register, record new failures, reset for the next
        // session.
        let readout = |registers: &mut [Misr],
                       first_fail: &mut [Option<usize>],
                       unresolved: &mut usize,
                       session: usize| {
            for (which, register) in registers.iter_mut().enumerate() {
                if first_fail[which].is_none() && register.signature() != 0 {
                    first_fail[which] = Some(session);
                    *unresolved -= 1;
                }
                register.reset();
            }
        };
        'chunks: for chunk in chunks {
            let errors = kernel.propagate(fault, &chunk.words, chunk.valid);
            if first_error.is_none() {
                let union = errors
                    .iter()
                    .fold(PackedBlock::<L>::ZERO, |union, error| union | error.word);
                if let Some(slot) = union.first_set_slot() {
                    first_error = Some(consumed + slot);
                }
            }
            if errors.is_empty() && registers.iter().all(|r| r.signature() == 0) {
                // A quiet chunk cannot move a zero register; fast-forward
                // the session counters (each readout trivially passes) and
                // the boundary cursor (each snapshot trivially passes too —
                // its `partial_fail` entry is already `false`).
                consumed += chunk.count;
                in_session += chunk.count;
                while in_session >= session_len {
                    in_session -= session_len;
                    session += 1;
                }
                while next_boundary < boundaries.len() && boundaries[next_boundary] <= consumed {
                    next_boundary += 1;
                }
                continue;
            }
            inputs.compress(
                errors.iter().map(|error| (error.position, error.word)),
                chunk.count,
            );
            for slot in 0..chunk.count {
                for (which, register) in registers.iter_mut().enumerate() {
                    // A resolved width's register was reset at its failing
                    // readout and is never read again; skip its folds.
                    if first_fail[which].is_none() {
                        register.fold_compressed(inputs.word(which, slot));
                    }
                }
                consumed += 1;
                in_session += 1;
                while next_boundary < boundaries.len() && boundaries[next_boundary] == consumed {
                    // A test ending here reads its last, partial session out
                    // of the register as it stands — snapshot the verdict
                    // without disturbing the ongoing fold.  (A resolved
                    // width's register is zero and its snapshot is unused.)
                    for (which, register) in registers.iter().enumerate() {
                        result.partial_fail[which][partial_base + next_boundary] =
                            register.signature() != 0;
                    }
                    next_boundary += 1;
                }
                if in_session == session_len {
                    readout(&mut registers, &mut first_fail, &mut unresolved, session);
                    session += 1;
                    in_session = 0;
                    if unresolved == 0 {
                        // Every width has its first failing full session.
                        // Later boundaries lie in later sessions, so their
                        // dictionaries resolve from `first_fail` alone, and
                        // a signature failure implies a response difference,
                        // so `first_error` is already set.
                        break 'chunks;
                    }
                }
            }
        }
        result.first_error.push(first_error);
        for (which, &fail) in first_fail.iter().enumerate() {
            result.first_fail[which].push(fail);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stumps::{StumpsConfig, StumpsGenerator};
    use lsiq_fault::inject::outputs_with_fault;
    use lsiq_netlist::generator::pipelined_datapath;
    use lsiq_netlist::library;
    use lsiq_netlist::scan::insert_scan;
    use lsiq_sim::pattern::Pattern;

    /// The one-length grid of `widths` over the whole pattern set.
    fn build_widths(
        context: &ExecutionContext,
        circuit: &Circuit,
        universe: &FaultUniverse,
        patterns: &PatternSet,
        session_len: usize,
        widths: &[u32],
    ) -> Vec<SignatureDictionary> {
        SignatureDictionary::build_sweep_cached(
            context,
            circuit,
            universe,
            patterns,
            session_len,
            widths,
            &[patterns.len()],
            LaneWidth::Auto,
            None,
        )
        .swap_remove(0)
    }

    /// One dictionary: the one-length, one-width grid.
    fn build(
        context: &ExecutionContext,
        circuit: &Circuit,
        universe: &FaultUniverse,
        patterns: &PatternSet,
        plan: &BistPlan,
    ) -> SignatureDictionary {
        build_widths(
            context,
            circuit,
            universe,
            patterns,
            plan.session_len,
            &[plan.signature_width],
        )
        .swap_remove(0)
    }

    fn c17_fixture() -> (Circuit, FaultUniverse, PatternSet) {
        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        let patterns: PatternSet = (0..32).map(|v| Pattern::from_integer(v, 5)).collect();
        (circuit, universe, patterns)
    }

    /// Brute-force reference: fold every fault's *actual* session signatures
    /// with a plain MISR over serially simulated responses and compare to
    /// the fault-free signatures.  Responses are simulated once and folded
    /// under every plan.
    fn assert_matches_brute_force(
        label: &str,
        circuit: &Circuit,
        universe: &FaultUniverse,
        patterns: &PatternSet,
        plans: &[BistPlan],
    ) {
        let context = ExecutionContext::new(0);
        let compiled = CompiledCircuit::new(circuit);
        let good: Vec<Vec<bool>> = patterns.iter().map(|p| compiled.outputs(p)).collect();
        let faulty: Vec<Vec<Vec<bool>>> = universe
            .iter()
            .map(|fault| {
                patterns
                    .iter()
                    .map(|pattern| outputs_with_fault(&compiled, pattern.bits(), fault))
                    .collect()
            })
            .collect();
        // Session signatures of one response stream under `plan`.
        let signatures = |responses: &[Vec<bool>], plan: &BistPlan| {
            let mut misr = Misr::new(plan.signature_width);
            let mut signatures = Vec::new();
            for (index, response) in responses.iter().enumerate() {
                misr.fold(response.iter().copied());
                if (index + 1) % plan.session_len == 0 || index + 1 == responses.len() {
                    signatures.push(misr.signature());
                    misr.reset();
                }
            }
            signatures
        };
        for plan in plans {
            let dictionary = build(&context, circuit, universe, patterns, plan);
            let good_signatures = signatures(&good, plan);
            assert_eq!(
                good_signatures.len(),
                patterns.len().div_ceil(plan.session_len)
            );
            assert_eq!(dictionary.good_signatures(), &good_signatures[..]);
            assert_eq!(dictionary.sessions(), good_signatures.len());
            assert_eq!(dictionary.len(), universe.len());
            for (index, responses) in faulty.iter().enumerate() {
                let first_fail = signatures(responses, plan)
                    .iter()
                    .zip(&good_signatures)
                    .position(|(faulty, good)| faulty != good);
                assert_eq!(
                    dictionary.first_failing_session(index),
                    first_fail,
                    "{label}: fault {index}, plan {plan:?}"
                );
                assert_eq!(
                    dictionary.is_raw_detected(index),
                    *responses != good,
                    "{label}: fault {index}, plan {plan:?}"
                );
            }
        }
    }

    #[test]
    fn matches_brute_force_reference_on_c17() {
        let (circuit, universe, patterns) = c17_fixture();
        let plans = [
            BistPlan::default(),
            BistPlan {
                session_len: 5,
                signature_width: 4,
            },
            BistPlan {
                session_len: 7,
                signature_width: 8,
            },
        ];
        assert_matches_brute_force("c17", &circuit, &universe, &patterns, &plans);
    }

    #[test]
    fn matches_brute_force_reference_on_collapsing_and_scan_universes() {
        // Partial sessions (5 and 7 do not divide 150) across chunk
        // boundaries, every width the sweep uses, on a full universe that
        // really collapses (alu4) and on a full-scan test view.  This pins
        // the equivalence-collapsed signatures to a per-fault scalar MISR.
        let plans: Vec<BistPlan> = [5usize, 7]
            .into_iter()
            .flat_map(|session_len| {
                [4u32, 8, 16].map(|signature_width| BistPlan {
                    session_len,
                    signature_width,
                })
            })
            .collect();
        let alu = library::alu4();
        let universe = FaultUniverse::full(&alu);
        assert_eq!(universe.len(), 476);
        assert!(collapse_equivalence(&alu).collapsed.len() < 476);
        let patterns = StumpsGenerator::new(&StumpsConfig::with_width(10, 5)).generate(150);
        assert_matches_brute_force("alu4", &alu, &universe, &patterns, &plans);

        let scan = insert_scan(&pipelined_datapath(8), 3).expect("3 chains fit");
        let view = scan.test_view();
        let patterns =
            StumpsGenerator::new(&StumpsConfig::with_width(view.primary_inputs().len(), 9))
                .generate(150);
        assert_matches_brute_force(
            "datapath8 scan view",
            view,
            &FaultUniverse::full(view),
            &patterns,
            &plans,
        );
    }

    #[test]
    fn worker_counts_are_invisible_in_the_result() {
        let circuit = library::alu4();
        let universe = FaultUniverse::full(&circuit);
        let patterns =
            StumpsGenerator::new(&StumpsConfig::with_width(circuit.primary_inputs().len(), 7))
                .generate(96);
        let plan = BistPlan {
            session_len: 32,
            signature_width: 8,
        };
        let reference = build(
            &ExecutionContext::new(1),
            &circuit,
            &universe,
            &patterns,
            &plan,
        );
        for workers in [2, 3, 8] {
            let context = ExecutionContext::new(workers);
            let dictionary = build(&context, &circuit, &universe, &patterns, &plan);
            assert_eq!(reference, dictionary, "workers = {workers}");
        }
    }

    #[test]
    fn build_many_matches_individual_builds() {
        let (circuit, universe, patterns) = c17_fixture();
        let widths = [4u32, 8, 16];
        let context = ExecutionContext::new(0);
        let many = build_widths(&context, &circuit, &universe, &patterns, 6, &widths);
        assert_eq!(many.len(), widths.len());
        for (dictionary, &width) in many.iter().zip(&widths) {
            let single = build(
                &context,
                &circuit,
                &universe,
                &patterns,
                &BistPlan {
                    session_len: 6,
                    signature_width: width,
                },
            );
            assert_eq!(*dictionary, single, "width {width}");
        }
    }

    #[test]
    fn one_pass_sweep_matches_per_length_builds() {
        // The sweep's single maximum-length pass must reproduce, byte for
        // byte, what a fresh build on each truncated pattern set computes —
        // including lengths shorter than a session, unaligned mid-session
        // boundaries, and out-of-order requests.
        let circuit = library::alu4();
        let universe = FaultUniverse::full(&circuit);
        let patterns = StumpsGenerator::new(&StumpsConfig::with_width(
            circuit.primary_inputs().len(),
            11,
        ))
        .generate(96);
        let widths = [4u32, 8, 16];
        let session_len = 16;
        let lengths = [48usize, 10, 16, 57, 96];
        let context = ExecutionContext::new(4);
        let sweep = SignatureDictionary::build_sweep_cached(
            &context,
            &circuit,
            &universe,
            &patterns,
            session_len,
            &widths,
            &lengths,
            LaneWidth::Auto,
            None,
        );
        assert_eq!(sweep.len(), lengths.len());
        for (row, &length) in sweep.iter().zip(&lengths) {
            let prefix: PatternSet = patterns.iter().take(length).cloned().collect();
            let reference = build_widths(
                &ExecutionContext::new(1),
                &circuit,
                &universe,
                &prefix,
                session_len,
                &widths,
            );
            assert_eq!(*row, reference, "length {length}");
        }
    }

    #[test]
    fn lane_widths_and_cache_are_invisible_in_the_sweep() {
        let circuit = library::alu4();
        let universe = FaultUniverse::full(&circuit);
        let patterns = StumpsGenerator::new(&StumpsConfig::with_width(
            circuit.primary_inputs().len(),
            13,
        ))
        .generate(160);
        let widths = [8u32, 16];
        let lengths = [40usize, 96, 160];
        let context = ExecutionContext::new(2);
        let reference = SignatureDictionary::build_sweep_cached(
            &context,
            &circuit,
            &universe,
            &patterns,
            32,
            &widths,
            &lengths,
            LaneWidth::Auto,
            None,
        );
        let cache = GoodMachineCache::new();
        for lanes in LaneWidth::EXPLICIT {
            let sweep = SignatureDictionary::build_sweep_cached(
                &context,
                &circuit,
                &universe,
                &patterns,
                32,
                &widths,
                &lengths,
                lanes,
                Some(&cache),
            );
            assert_eq!(reference, sweep, "lanes = {lanes}");
        }
        assert!(cache.misses() > 0);
        // Replaying a cached width is pure hits for the good machine.
        let before = cache.hits();
        let replay = SignatureDictionary::build_sweep_cached(
            &context,
            &circuit,
            &universe,
            &patterns,
            32,
            &widths,
            &lengths,
            LaneWidth::X8,
            Some(&cache),
        );
        assert_eq!(reference, replay);
        assert!(cache.hits() > before);
    }

    #[test]
    fn exhaustive_patterns_detect_everything_in_some_session() {
        let (circuit, universe, patterns) = c17_fixture();
        // Wide signature over short sessions: aliasing probability ~2^-16
        // per readout; on 46 faults the seeded run has none.
        let plan = BistPlan {
            session_len: 8,
            signature_width: 16,
        };
        let context = ExecutionContext::new(0);
        let dictionary = build(&context, &circuit, &universe, &patterns, &plan);
        assert_eq!(dictionary.len(), universe.len());
        assert_eq!(dictionary.raw_detected_count(), universe.len());
        assert_eq!(dictionary.signature_detected_count(), universe.len());
        assert!(dictionary.aliased_indices().is_empty());
        // Chip-level failure mirrors the per-fault minimum.
        let first0 = dictionary.first_failing_session(0).expect("detected");
        let first5 = dictionary.first_failing_session(5).expect("detected");
        assert_eq!(
            dictionary.first_failure_of_chip(&[0, 5]),
            Some(first0.min(first5))
        );
        assert_eq!(dictionary.first_failure_of_chip(&[]), None);
    }

    #[test]
    fn empty_pattern_set_detects_nothing() {
        let (circuit, universe, _) = c17_fixture();
        let dictionary = build(
            &ExecutionContext::new(0),
            &circuit,
            &universe,
            &PatternSet::new(),
            &BistPlan::default(),
        );
        assert_eq!(dictionary.sessions(), 0);
        assert_eq!(dictionary.raw_detected_count(), 0);
        assert_eq!(dictionary.signature_detected_count(), 0);
        assert!(!dictionary.is_aliased(0));
        assert_eq!(dictionary.good_signature(0), None);
    }
}
