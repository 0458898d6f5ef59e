//! The event-driven fanout-cone kernel shared by fault detection and BIST
//! signature dictionaries.
//!
//! A single stuck-at fault disturbs only its *fanout cone*.  Given the full
//! per-gate good-machine image of one lane-wide chunk of patterns,
//! [`ConeKernel::propagate`] seeds the fault site with its faulty chunk and
//! propagates the difference event by event, level by level, through the
//! cone.  Propagation stops as soon as the event frontier dies (every
//! disturbed chunk re-converged with the good machine) or runs out of
//! circuit, so the per-fault cost is proportional to the size of the
//! *disturbed* cone, usually a tiny fraction of the netlist.
//!
//! The kernel returns only what its consumers need: the disturbed primary
//! outputs, each with its `good ^ faulty` error chunk, collected as the cone
//! drains.  The [incremental engine](crate::incremental) ORs those chunks
//! and keeps the first set slot (its first-detection rule); the signature
//! dictionary builder (`lsiq_bist::signature`) folds them into MISR error
//! registers.  Both therefore run the same propagation loop.
//!
//! # Event propagation
//!
//! Gates are processed in level order through per-level dirty buckets, so
//! every gate in the cone is evaluated at most once per (fault, chunk):
//! when a level-`L` gate is popped, all of its disturbed drivers (levels
//! `< L`) are final.  The faulty-value and scheduled-gate arrays are
//! epoch-stamped — bumping one counter invalidates all per-fault state, so
//! nothing is cleared between faults and nothing is allocated after
//! warm-up.

use crate::model::{Fault, FaultSite};
use lsiq_netlist::circuit::{Circuit, GateId};
use lsiq_netlist::levelize::Levelization;
use lsiq_sim::cache::{circuit_fingerprint, GoodMachineCache};
use lsiq_sim::eval::eval_chunk;
use lsiq_sim::levelized::CompiledCircuit;
use lsiq_sim::packed::PackedBlock;
use lsiq_sim::pattern::PatternSet;
use std::sync::Arc;

/// The fault-free image of one lane-wide chunk of patterns: the good-machine
/// chunk of every gate (indexed by gate id) and the valid-slot mask.
///
/// The per-gate image is behind an [`Arc`] because that is what
/// [`GoodMachineCache`] stores, so a cache hit is used in place without a
/// copy.
#[derive(Debug)]
pub struct GoodChunk<const L: usize> {
    /// Good-machine chunk of every gate, indexed by gate id.
    pub words: Arc<Vec<PackedBlock<L>>>,
    /// The chunk's valid pattern slots.
    pub valid: PackedBlock<L>,
    /// Number of valid patterns (the set bits of `valid`).
    pub count: usize,
}

/// Packs every lane-wide chunk of `patterns` and evaluates its good machine
/// once, through `cache` when one is given (a hit is used in place; a miss
/// is deposited there).
///
/// The full per-gate image of every chunk is kept (O(gates × chunks × L)
/// words), so fault shards can replay chunks independently without
/// re-simulating the good machine.
pub fn good_chunks<const L: usize>(
    compiled: &CompiledCircuit<'_>,
    patterns: &PatternSet,
    cache: Option<&GoodMachineCache>,
) -> Vec<GoodChunk<L>> {
    let circuit = compiled.circuit();
    let input_count = circuit.primary_inputs().len();
    let fingerprint = cache.map(|_| circuit_fingerprint(circuit));
    let mut chunks = Vec::with_capacity(patterns.chunk_count(L));
    for chunk in 0..patterns.chunk_count(L) {
        let (inputs, count) = patterns.pack_chunk::<L>(input_count, chunk);
        if count == 0 {
            break;
        }
        let words = match (cache, fingerprint) {
            (Some(cache), Some(fingerprint)) => {
                cache.node_chunks_keyed(fingerprint, compiled, &inputs, count)
            }
            _ => Arc::new(compiled.node_chunks(&inputs)),
        };
        chunks.push(GoodChunk {
            words,
            valid: PackedBlock::valid_mask(count),
            count,
        });
    }
    chunks
}

/// One disturbed primary output of a `(fault, chunk)` propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputError<const L: usize> {
    /// The output's position in [`Circuit::primary_outputs`].
    pub position: usize,
    /// `good ^ faulty` over the chunk: never zero, and zero outside the
    /// chunk's valid slots.
    pub word: PackedBlock<L>,
}

/// Sentinel of [`ConeKernel`]'s output-position table for gates that are
/// not primary outputs.
const NOT_AN_OUTPUT: u32 = u32::MAX;

/// Event-driven cone propagation of one fault over one chunk at a time,
/// with all scratch state owned and reused (see the [module docs](self)).
///
/// ```
/// use lsiq_fault::cone::{good_chunks, ConeKernel};
/// use lsiq_fault::model::{Fault, StuckValue};
/// use lsiq_netlist::library;
/// use lsiq_sim::levelized::CompiledCircuit;
/// use lsiq_sim::pattern::{Pattern, PatternSet};
///
/// let circuit = library::half_adder();
/// let compiled = CompiledCircuit::new(&circuit);
/// let patterns: PatternSet = (0..4).map(|v| Pattern::from_integer(v, 2)).collect();
/// let chunks = good_chunks::<1>(&compiled, &patterns, None);
/// let a = circuit.find_signal("a").expect("exists");
/// let mut kernel = ConeKernel::<1>::new(&compiled);
/// let fault = Fault::output(a, StuckValue::Zero);
/// let errors = kernel.propagate(&fault, &chunks[0].words, chunks[0].valid);
/// // `a` stuck at 0 flips the sum whenever a = 1 (patterns 1 and 3) and
/// // the carry only for a = b = 1 (pattern 3).
/// assert_eq!(errors.len(), 2);
/// assert!(errors.iter().all(|error| !error.word.is_zero()));
/// ```
#[derive(Debug)]
pub struct ConeKernel<'k, const L: usize> {
    circuit: &'k Circuit,
    levelization: &'k Levelization,
    /// Per gate: its position among the primary outputs, or
    /// [`NOT_AN_OUTPUT`].  Primary outputs are distinct gates (the builder
    /// marks each at most once), so one position per gate suffices.
    output_position: Vec<u32>,
    /// Faulty chunks; `faulty[g]` is live iff `value_stamp[g] == epoch`, so
    /// advancing the epoch resets every gate at once.
    faulty: Vec<PackedBlock<L>>,
    value_stamp: Vec<u64>,
    sched_stamp: Vec<u64>,
    buckets: Vec<Vec<u32>>,
    fanin: Vec<PackedBlock<L>>,
    epoch: u64,
    errors: Vec<OutputError<L>>,
}

impl<'k, const L: usize> ConeKernel<'k, L> {
    /// Allocates the scratch state for `compiled`'s circuit.
    pub fn new(compiled: &'k CompiledCircuit<'_>) -> Self {
        let circuit = compiled.circuit();
        let levelization = compiled.levelization();
        let gate_count = circuit.gate_count();
        let mut output_position = vec![NOT_AN_OUTPUT; gate_count];
        for (position, &out) in circuit.primary_outputs().iter().enumerate() {
            output_position[out.index()] = position as u32;
        }
        ConeKernel {
            circuit,
            levelization,
            output_position,
            faulty: vec![PackedBlock::ZERO; gate_count],
            value_stamp: vec![0; gate_count],
            sched_stamp: vec![0; gate_count],
            buckets: vec![Vec::new(); levelization.depth() + 1],
            fanin: Vec::new(),
            epoch: 0,
            errors: Vec::new(),
        }
    }

    /// Propagates `fault` over one chunk whose good-machine image is `good`
    /// (indexed by gate id) and whose valid slots are `valid`, and returns
    /// the disturbed primary outputs in the order the cone drained them.
    ///
    /// Outputs that are not returned have a zero error chunk; an empty
    /// slice means no valid pattern of the chunk observes the fault.
    #[inline]
    pub fn propagate(
        &mut self,
        fault: &Fault,
        good: &[PackedBlock<L>],
        valid: PackedBlock<L>,
    ) -> &[OutputError<L>] {
        self.epoch += 1;
        self.errors.clear();
        // Each scratch buffer is its own borrow, so the drain loop can
        // index one while pushing into another.
        drain_cone(
            self.circuit,
            self.levelization,
            &self.output_position,
            self.epoch,
            fault,
            good,
            valid,
            &mut self.faulty,
            &mut self.value_stamp,
            &mut self.sched_stamp,
            &mut self.buckets,
            &mut self.fanin,
            &mut self.errors,
        );
        &self.errors
    }
}

/// Seeds `fault` and drains its cone (see [`ConeKernel::propagate`]),
/// appending the disturbed outputs to `errors`.
#[allow(clippy::too_many_arguments)]
#[inline]
fn drain_cone<const L: usize>(
    circuit: &Circuit,
    levelization: &Levelization,
    output_position: &[u32],
    epoch: u64,
    fault: &Fault,
    good: &[PackedBlock<L>],
    valid: PackedBlock<L>,
    faulty: &mut [PackedBlock<L>],
    value_stamp: &mut [u64],
    sched_stamp: &mut [u64],
    buckets: &mut [Vec<u32>],
    fanin: &mut Vec<PackedBlock<L>>,
    errors: &mut Vec<OutputError<L>>,
) {
    let mut record = |index: usize, delta: PackedBlock<L>| {
        let position = output_position[index];
        if position != NOT_AN_OUTPUT {
            errors.push(OutputError {
                position: position as usize,
                word: delta,
            });
        }
    };
    let site_id = fault.site.affected_gate();
    let site = site_id.index();
    let stuck = PackedBlock::<L>::splat(fault.stuck.as_bool());
    // Seed the fault site: an output fault pins the gate's chunk to the
    // stuck value; a pin fault re-evaluates the loading gate with that one
    // pin's chunk replaced.
    let seeded = match fault.site {
        FaultSite::Output(_) => stuck,
        FaultSite::InputPin { gate, pin } => {
            let load = circuit.gate(gate);
            fanin.clear();
            for (position, &driver) in load.fanin().iter().enumerate() {
                fanin.push(if position == pin {
                    stuck
                } else {
                    good[driver.index()]
                });
            }
            eval_chunk(load.kind(), fanin)
        }
    };
    // Restricting the seeded difference to valid slots keeps every
    // downstream chunk bitwise equal to the good machine outside the chunk,
    // killing events earlier and masking nothing (packed evaluation is
    // slot-independent).
    let diff = (seeded ^ good[site]) & valid;
    if diff.is_zero() {
        return; // not excited by any pattern of this chunk
    }
    faulty[site] = good[site] ^ diff;
    value_stamp[site] = epoch;
    record(site, diff);
    let mut pending = schedule_loads(circuit, levelization, sched_stamp, buckets, epoch, site_id);
    // Drain dirty buckets in level order; a drained gate only ever
    // schedules strictly higher levels, so each cone gate is evaluated at
    // most once and its drivers are final when popped.
    let mut level = levelization.level(site_id) + 1;
    while pending > 0 {
        while buckets[level].is_empty() {
            level += 1;
        }
        let mut bucket = std::mem::take(&mut buckets[level]);
        for &dirty in &bucket {
            pending -= 1;
            let dirty_index = dirty as usize;
            let id = GateId(dirty_index);
            let gate = circuit.gate(id);
            fanin.clear();
            for &driver in gate.fanin() {
                let driver_index = driver.index();
                fanin.push(if value_stamp[driver_index] == epoch {
                    faulty[driver_index]
                } else {
                    good[driver_index]
                });
            }
            let word = eval_chunk(gate.kind(), fanin);
            let delta = word ^ good[dirty_index];
            if delta.is_zero() {
                continue; // event died: cone re-converged here
            }
            faulty[dirty_index] = word;
            value_stamp[dirty_index] = epoch;
            record(dirty_index, delta);
            pending += schedule_loads(circuit, levelization, sched_stamp, buckets, epoch, id);
        }
        bucket.clear();
        buckets[level] = bucket;
    }
}

/// Schedules every load of gate `id` not yet scheduled in this epoch into
/// its level bucket, and returns how many were newly scheduled.
#[inline]
fn schedule_loads(
    circuit: &Circuit,
    levelization: &Levelization,
    sched_stamp: &mut [u64],
    buckets: &mut [Vec<u32>],
    epoch: u64,
    id: GateId,
) -> usize {
    let mut scheduled = 0;
    for &load in circuit.fanout(id) {
        let index = load.index();
        if sched_stamp[index] != epoch {
            sched_stamp[index] = epoch;
            buckets[levelization.level(load)].push(index as u32);
            scheduled += 1;
        }
    }
    scheduled
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::outputs_with_fault;
    use crate::universe::FaultUniverse;
    use lsiq_netlist::generator::{pipelined_datapath, random_circuit, RandomCircuitConfig};
    use lsiq_netlist::library;
    use lsiq_netlist::scan::insert_scan;
    use lsiq_sim::pattern::Pattern;
    use lsiq_stats::rng::{Rng, Xoshiro256StarStar};

    fn random_patterns(width: usize, count: usize, seed: u64) -> PatternSet {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        (0..count)
            .map(|_| Pattern::from_bits((0..width).map(|_| rng.next_bool(0.5))))
            .collect()
    }

    /// Per fault, per pattern, per output: good XOR scalar faulty response.
    fn scalar_errors(
        compiled: &CompiledCircuit<'_>,
        universe: &FaultUniverse,
        patterns: &PatternSet,
    ) -> Vec<Vec<Vec<bool>>> {
        let good: Vec<Vec<bool>> = patterns.iter().map(|p| compiled.outputs(p)).collect();
        universe
            .iter()
            .map(|fault| {
                patterns
                    .iter()
                    .zip(&good)
                    .map(|(pattern, good)| {
                        outputs_with_fault(compiled, pattern.bits(), fault)
                            .iter()
                            .zip(good)
                            .map(|(&faulty, &good)| faulty ^ good)
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    /// Replays every fault through the kernel at lane width `L` and checks
    /// its reported errors, pattern by pattern, against the scalar oracle.
    fn check_lanes<const L: usize>(
        label: &str,
        compiled: &CompiledCircuit<'_>,
        universe: &FaultUniverse,
        patterns: &PatternSet,
        expected: &[Vec<Vec<bool>>],
    ) {
        let outputs = compiled.circuit().primary_outputs().len();
        let chunks = good_chunks::<L>(compiled, patterns, None);
        assert_eq!(
            chunks.iter().map(|chunk| chunk.count).sum::<usize>(),
            patterns.len()
        );
        let mut kernel = ConeKernel::<L>::new(compiled);
        for (index, fault) in universe.iter().enumerate() {
            let mut observed = vec![vec![false; outputs]; patterns.len()];
            for (chunk_index, chunk) in chunks.iter().enumerate() {
                let mut reported = vec![false; outputs];
                for error in kernel.propagate(fault, &chunk.words, chunk.valid) {
                    assert!(
                        !error.word.is_zero(),
                        "{label}: {fault} reported a zero error"
                    );
                    assert!(
                        (error.word & !chunk.valid).is_zero(),
                        "{label}: {fault} error outside the valid slots"
                    );
                    assert!(
                        !std::mem::replace(&mut reported[error.position], true),
                        "{label}: {fault} reported output {} twice",
                        error.position
                    );
                    for slot in error.word.set_slots() {
                        observed[chunk_index * PackedBlock::<L>::PATTERNS + slot][error.position] =
                            true;
                    }
                }
            }
            // Unreported outputs stay `false` here, so this also pins that
            // every output the kernel leaves out has zero error.
            assert_eq!(observed, expected[index], "{label}: {fault} at L = {L}");
        }
    }

    fn check(label: &str, circuit: &Circuit, universe: &FaultUniverse, patterns: &PatternSet) {
        assert!(patterns.len() >= 150, "chunks must cross and end partially");
        let compiled = CompiledCircuit::new(circuit);
        let expected = scalar_errors(&compiled, universe, patterns);
        check_lanes::<1>(label, &compiled, universe, patterns, &expected);
        check_lanes::<4>(label, &compiled, universe, patterns, &expected);
        check_lanes::<8>(label, &compiled, universe, patterns, &expected);
    }

    #[test]
    fn output_errors_match_the_scalar_oracle_on_c17() {
        let circuit = library::c17();
        let patterns = random_patterns(5, 150, 3);
        check("c17", &circuit, &FaultUniverse::full(&circuit), &patterns);
    }

    #[test]
    fn output_errors_match_the_scalar_oracle_on_the_alu() {
        let circuit = library::alu4();
        let universe = FaultUniverse::full(&circuit);
        assert_eq!(universe.len(), 476);
        let patterns = random_patterns(10, 150, 11);
        check("alu4", &circuit, &universe, &patterns);
    }

    #[test]
    fn output_errors_match_the_scalar_oracle_on_pin_faults() {
        let circuit = random_circuit(&RandomCircuitConfig {
            inputs: 11,
            gates: 140,
            seed: 29,
            ..RandomCircuitConfig::default()
        });
        let universe = FaultUniverse::checkpoint(&circuit);
        let patterns = random_patterns(11, 150, 5);
        check("random140 checkpoint", &circuit, &universe, &patterns);
    }

    #[test]
    fn output_errors_match_the_scalar_oracle_on_a_scan_test_view() {
        let scan = insert_scan(&pipelined_datapath(8), 3).expect("3 chains fit");
        let view = scan.test_view();
        let patterns = random_patterns(view.primary_inputs().len(), 150, 17);
        check(
            "datapath8 scan view",
            view,
            &FaultUniverse::full(view),
            &patterns,
        );
    }

    #[test]
    fn cached_good_chunks_are_the_uncached_image() {
        let circuit = library::alu4();
        let compiled = CompiledCircuit::new(&circuit);
        let patterns = random_patterns(10, 300, 2);
        let cache = GoodMachineCache::new();
        let plain = good_chunks::<4>(&compiled, &patterns, None);
        let cached = good_chunks::<4>(&compiled, &patterns, Some(&cache));
        let replay = good_chunks::<4>(&compiled, &patterns, Some(&cache));
        assert_eq!(plain.len(), 2);
        for ((plain, cached), replay) in plain.iter().zip(&cached).zip(&replay) {
            assert_eq!(plain.words, cached.words);
            assert_eq!((plain.valid, plain.count), (cached.valid, cached.count));
            // A hit hands out the deposited image itself, not a copy.
            assert!(Arc::ptr_eq(&cached.words, &replay.words));
        }
        assert!(cache.hits() > 0);
    }
}
