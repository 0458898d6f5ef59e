//! Event-driven incremental fault simulation.
//!
//! The two other engines re-evaluate the full circuit per (pattern, fault)
//! pair ([serial](crate::serial)) or per pattern
//! ([deductive](crate::deductive)).  This engine exploits the observation
//! that a single stuck-at fault disturbs only its *fanout cone*: the good
//! machine is evaluated **once** per 64-pattern block, and each fault then
//! only seeds its fault site with the faulty word and propagates the
//! difference event-by-event, level-by-level, through the cone.  The
//! propagation stops as soon as the event frontier dies (every disturbed
//! word re-converged with the good machine) or runs out of circuit, so the
//! per-fault cost is proportional to the size of the *disturbed* cone —
//! usually a tiny fraction of the netlist — instead of the whole circuit.
//! It is the fastest engine in the workspace at every circuit size
//! measured, and therefore the production default (`EngineKind::default()`);
//! see `docs/ENGINES.md` for the full comparison.
//!
//! # Event propagation
//!
//! Gates are processed in level order through per-level dirty buckets, so
//! every gate in the cone is evaluated at most once per (fault, block):
//! when a level-`L` gate is popped, all of its disturbed drivers (levels
//! `< L`) are final.  The faulty-value and scheduled-gate arrays are
//! epoch-stamped — bumping one counter invalidates all per-fault state, so
//! nothing is cleared between faults and, in the spirit of the deductive
//! engine's `ListArena`, nothing is allocated after warm-up.
//!
//! # Detection semantics
//!
//! Whenever a disturbed gate is a primary output, the XOR of its faulty and
//! good words (masked to the block's valid patterns) is accumulated; the
//! first set bit of the accumulated word is the fault's earliest detecting
//! pattern within the block.  This is the serial reference's
//! first-failing-pattern rule, so the reported [`FaultList`] is
//! byte-identical to every other engine (enforced by
//! `tests/engine_differential.rs`).
//!
//! # Collapsing and sharding
//!
//! Like the deductive engine, the incremental engine simulates one
//! representative per structural equivalence class by default when it is
//! handed the circuit's full universe (see
//! [`with_collapsing`](IncrementalSimulator::with_collapsing)); a universe
//! the caller has already collapsed, as the suite builder does, is
//! simulated as given.  Runs are
//! single-threaded by default; binding an
//! [`ExecutionContext`] via
//! [`with_context`](IncrementalSimulator::with_context) (which
//! `BuildEngine::build_configured` does when `EngineOptions::context` is
//! set) shards the simulation classes
//! across the pool's workers, each with its own scratch state, with results
//! identical at any worker count.

use crate::classes::{simulation_classes, SimulationClasses};
use crate::collapse::CollapseResult;
use crate::list::FaultList;
use crate::model::{Fault, FaultSite};
use crate::simulator::FaultSimulator;
use crate::telemetry;
use crate::universe::FaultUniverse;
use lsiq_exec::{ExecutionContext, LaneWidth};
use lsiq_netlist::circuit::{Circuit, GateId};
use lsiq_netlist::levelize::Levelization;
use lsiq_obs::Span;
use lsiq_sim::cache::{circuit_fingerprint, GoodMachineCache};
use lsiq_sim::eval::eval_chunk;
use lsiq_sim::levelized::CompiledCircuit;
use lsiq_sim::packed::PackedBlock;
use lsiq_sim::pattern::PatternSet;
use std::cell::OnceCell;
use std::sync::Arc;

static GOOD_MACHINE: Span = Span::new("engine.incremental.good_machine");
static PROPAGATE: Span = Span::new("engine.incremental.propagate");

/// One precomputed lane-wide chunk: the good-machine chunk of every gate
/// (indexed by gate id) and the valid-slot mask.  The per-gate image is
/// behind an [`Arc`] so a shared [`GoodMachineCache`] entry can be used
/// in place without a copy.
struct Block<const L: usize> {
    words: Arc<Vec<PackedBlock<L>>>,
    valid: PackedBlock<L>,
}

/// One simulation class's seed: the representative fault and the level of
/// the gate whose evaluation it directly affects.
#[derive(Clone, Copy)]
struct Seed {
    fault: Fault,
    level: u32,
}

/// An event-driven incremental fault simulator.
///
/// Good-machine words are computed once per 64-pattern block; each fault
/// re-evaluates only its disturbed fanout cone.  See the [module
/// docs](self) for the algorithm and `docs/ENGINES.md` for when to pick
/// this engine.
///
/// ```
/// use lsiq_fault::incremental::IncrementalSimulator;
/// use lsiq_fault::deductive::DeductiveSimulator;
/// use lsiq_fault::simulator::FaultSimulator;
/// use lsiq_fault::universe::FaultUniverse;
/// use lsiq_netlist::library;
/// use lsiq_sim::pattern::{Pattern, PatternSet};
///
/// let circuit = library::c17();
/// let universe = FaultUniverse::full(&circuit);
/// let patterns: PatternSet = (0..32).map(|v| Pattern::from_integer(v, 5)).collect();
/// let incremental = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
/// // Byte-identical to every other engine; c17 is fully testable.
/// let deductive = DeductiveSimulator::new(&circuit).run(&universe, &patterns);
/// assert_eq!(incremental, deductive);
/// assert_eq!(incremental.detected_count(), universe.len());
/// ```
#[derive(Debug)]
pub struct IncrementalSimulator<'c> {
    compiled: CompiledCircuit<'c>,
    drop_detected: bool,
    collapse: bool,
    threads: usize,
    context: Option<&'c ExecutionContext>,
    lanes: LaneWidth,
    cache: Option<&'c GoodMachineCache>,
    /// Lazily built on the first collapsing run and reused afterwards (see
    /// [`DeductiveSimulator`](crate::deductive::DeductiveSimulator)).
    collapse_cache: OnceCell<CollapseResult>,
}

impl<'c> IncrementalSimulator<'c> {
    /// Minimum number of simulation classes per shard; below this, handing
    /// a shard to a worker costs more than it recovers.
    const MIN_CLASSES_PER_SHARD: usize = 64;

    /// Prepares an incremental fault simulator for `circuit` with fault
    /// dropping and equivalence collapsing enabled, running single-threaded.
    pub fn new(circuit: &'c Circuit) -> Self {
        IncrementalSimulator {
            compiled: CompiledCircuit::new(circuit),
            drop_detected: true,
            collapse: true,
            threads: 0,
            context: None,
            lanes: LaneWidth::Auto,
            cache: None,
            collapse_cache: OnceCell::new(),
        }
    }

    /// Selects the packed lane width ([`LaneWidth::Auto`] by default).
    /// Results are identical at every width.
    pub fn with_lanes(mut self, lanes: LaneWidth) -> Self {
        self.lanes = lanes;
        self
    }

    /// Shares a [`GoodMachineCache`]: the per-chunk good-machine images are
    /// looked up (and on a miss deposited) there instead of being
    /// recomputed, so repeated runs over the same patterns — a coverage
    /// loop, a signature sweep — pay for the fault-free simulation once.
    /// The engine keeps the *full* per-gate image per chunk, exactly what
    /// the cache stores, so a hit is used in place without a copy.
    pub fn with_cache(mut self, cache: &'c GoodMachineCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Binds the simulator to a persistent worker pool and shards the
    /// simulation classes across its workers.  Without this (and without
    /// [`with_threads`](Self::with_threads)) runs are single-threaded.
    pub fn with_context(mut self, context: &'c ExecutionContext) -> Self {
        self.context = Some(context);
        self
    }

    /// Controls fault dropping (see
    /// [`SerialSimulator::with_fault_dropping`](crate::serial::SerialSimulator::with_fault_dropping)).
    pub fn with_fault_dropping(mut self, enabled: bool) -> Self {
        self.drop_detected = enabled;
        self
    }

    /// Controls equivalence collapsing (enabled by default; see
    /// [`DeductiveSimulator::with_collapsing`](crate::deductive::DeductiveSimulator::with_collapsing)).
    /// The results are identical either way.
    pub fn with_collapsing(mut self, enabled: bool) -> Self {
        self.collapse = enabled;
        self
    }

    /// Overrides the worker-thread count; `0` (the default) means one
    /// thread, or the bound context's worker count if one is bound.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The worker pool multi-shard runs execute on: the bound context, or
    /// the process-wide default pool.
    fn execution_context(&self) -> &ExecutionContext {
        self.context.unwrap_or_else(|| ExecutionContext::global())
    }

    /// The shard count a run would use for `class_count` simulation classes.
    fn shard_count(&self, class_count: usize) -> usize {
        let requested = if self.threads > 0 {
            self.threads
        } else if let Some(context) = self.context {
            context.workers()
        } else {
            1
        };
        let useful = class_count.div_ceil(Self::MIN_CLASSES_PER_SHARD);
        requested.min(useful).max(1)
    }

    /// Packs every lane-wide chunk and evaluates its good machine once —
    /// through the shared cache when one is bound.
    ///
    /// The full per-gate chunk image of every chunk is kept (O(gates ×
    /// chunks × lanes) words) so class shards can replay chunks
    /// independently without re-simulating the good machine.
    fn precompute_blocks<const L: usize>(&self, patterns: &PatternSet) -> Vec<Block<L>> {
        let circuit = self.compiled.circuit();
        let input_count = circuit.primary_inputs().len();
        let fingerprint = self.cache.map(|_| circuit_fingerprint(circuit));
        let mut blocks = Vec::with_capacity(patterns.chunk_count(L));
        for chunk in 0..patterns.chunk_count(L) {
            let (inputs, pattern_count) = patterns.pack_chunk::<L>(input_count, chunk);
            if pattern_count == 0 {
                break;
            }
            let words = match (self.cache, fingerprint) {
                (Some(cache), Some(fingerprint)) => {
                    cache.node_chunks_keyed(fingerprint, &self.compiled, &inputs, pattern_count)
                }
                _ => Arc::new(self.compiled.node_chunks(&inputs)),
            };
            blocks.push(Block {
                words,
                valid: PackedBlock::valid_mask(pattern_count),
            });
        }
        blocks
    }

    /// Partitions the universe's fault indices into groups that provably
    /// share their set of detecting patterns (see
    /// [`classes::simulation_classes`](simulation_classes)).
    fn simulation_classes(&self, universe: &FaultUniverse) -> SimulationClasses {
        simulation_classes(
            self.compiled.circuit(),
            &self.collapse_cache,
            self.collapse,
            universe,
        )
    }
}

impl<'c> IncrementalSimulator<'c> {
    /// One lane-monomorphized run (see [`FaultSimulator::run`]).
    fn run_lanes<const L: usize>(
        &self,
        universe: &FaultUniverse,
        patterns: &PatternSet,
    ) -> FaultList {
        let mut list = FaultList::new(universe);
        if universe.is_empty() || patterns.is_empty() {
            return list;
        }
        let classes = self.simulation_classes(universe);
        let circuit = self.compiled.circuit();
        let levelization = self.compiled.levelization();
        let blocks = {
            let _timer = GOOD_MACHINE.start();
            self.precompute_blocks::<L>(patterns)
        };
        if blocks.is_empty() {
            return list;
        }
        telemetry::RUNS.incr();
        telemetry::FAULTS.add(classes.count() as u64);
        telemetry::GOOD_EVALS.add(blocks.len() as u64);
        let seeds: Vec<Seed> = (0..classes.count() as u32)
            .map(|class| {
                let fault = *universe
                    .get(classes.representative(class) as usize)
                    .expect("class member in range");
                Seed {
                    fault,
                    level: levelization.level(fault.site.affected_gate()) as u32,
                }
            })
            .collect();
        let mut is_output = vec![false; circuit.gate_count()];
        for &out in circuit.primary_outputs() {
            is_output[out.index()] = true;
        }

        let shards = self.shard_count(seeds.len());
        let chunk = seeds.len().div_ceil(shards);
        let drop_detected = self.drop_detected;
        let detections: Vec<Vec<Option<usize>>> = if shards == 1 {
            vec![simulate_shard(
                circuit,
                levelization,
                &is_output,
                &blocks,
                &seeds,
                drop_detected,
            )]
        } else {
            let shard_seeds: Vec<&[Seed]> = seeds.chunks(chunk).collect();
            self.execution_context().scope_map(shard_seeds, |shard| {
                simulate_shard(
                    circuit,
                    levelization,
                    &is_output,
                    &blocks,
                    shard,
                    drop_detected,
                )
            })
        };

        let mut drops = 0u64;
        for (shard, shard_detections) in detections.into_iter().enumerate() {
            let base = shard * chunk;
            for (local, detection) in shard_detections.into_iter().enumerate() {
                if let Some(pattern) = detection {
                    if drop_detected {
                        drops += 1;
                    }
                    for &member in classes.members_of((base + local) as u32) {
                        list.mark_detected(member as usize, pattern);
                    }
                }
            }
        }
        telemetry::DROPS.add(drops);
        list
    }
}

impl FaultSimulator for IncrementalSimulator<'_> {
    fn name(&self) -> &'static str {
        "incremental"
    }

    fn run(&self, universe: &FaultUniverse, patterns: &PatternSet) -> FaultList {
        match self.lanes.resolve(patterns.len()) {
            1 => self.run_lanes::<1>(universe, patterns),
            4 => self.run_lanes::<4>(universe, patterns),
            _ => self.run_lanes::<8>(universe, patterns),
        }
    }
}

/// Simulates one contiguous shard of simulation classes over all chunks,
/// returning the first detecting pattern per class (shard-local order).
///
/// All scratch state — faulty chunks, epoch stamps, per-level dirty buckets,
/// the fanin gather buffer — is allocated once per shard and reused for
/// every (class, chunk) pair.
fn simulate_shard<const L: usize>(
    circuit: &Circuit,
    levelization: &Levelization,
    is_output: &[bool],
    blocks: &[Block<L>],
    seeds: &[Seed],
    drop_detected: bool,
) -> Vec<Option<usize>> {
    let _timer = PROPAGATE.start();
    let gate_count = circuit.gate_count();
    // Faulty chunks and their validity stamp: `faulty[g]` is live iff
    // `value_stamp[g] == epoch`, so advancing the epoch resets everything.
    let mut faulty = vec![PackedBlock::<L>::ZERO; gate_count];
    let mut value_stamp = vec![0u64; gate_count];
    let mut sched_stamp = vec![0u64; gate_count];
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); levelization.depth() + 1];
    let mut fanin_words: Vec<PackedBlock<L>> = Vec::new();
    let mut epoch = 0u64;
    let mut first_detection: Vec<Option<usize>> = vec![None; seeds.len()];

    for (local, seed) in seeds.iter().enumerate() {
        let site_id = seed.fault.site.affected_gate();
        let site = site_id.index();
        let stuck = PackedBlock::<L>::splat(seed.fault.stuck.as_bool());
        for (block_index, block) in blocks.iter().enumerate() {
            if first_detection[local].is_some() && drop_detected {
                break;
            }
            epoch += 1;
            let good: &[PackedBlock<L>] = &block.words;
            // Seed the fault site: an output fault pins the gate's chunk to
            // the stuck value; a pin fault re-evaluates the loading gate
            // with that one pin's chunk replaced.
            let seeded = match seed.fault.site {
                FaultSite::Output(_) => stuck,
                FaultSite::InputPin { gate, pin } => {
                    let load = circuit.gate(gate);
                    fanin_words.clear();
                    for (position, &driver) in load.fanin().iter().enumerate() {
                        fanin_words.push(if position == pin {
                            stuck
                        } else {
                            good[driver.index()]
                        });
                    }
                    eval_chunk(load.kind(), &fanin_words)
                }
            };
            // Restricting the seeded difference to valid slots keeps every
            // downstream chunk bitwise equal to the good machine outside the
            // chunk, killing events earlier and masking nothing (packed
            // evaluation is slot-independent).
            let diff = (seeded ^ good[site]) & block.valid;
            if diff.is_zero() {
                continue; // fault not excited by any pattern of this chunk
            }
            faulty[site] = good[site] ^ diff;
            value_stamp[site] = epoch;
            let mut detect = if is_output[site] {
                diff
            } else {
                PackedBlock::ZERO
            };
            let mut pending = 0usize;
            for &load in circuit.fanout(site_id) {
                let index = load.index();
                if sched_stamp[index] != epoch {
                    sched_stamp[index] = epoch;
                    buckets[levelization.level(load)].push(index as u32);
                    pending += 1;
                }
            }
            // Drain dirty buckets in level order; a drained gate only ever
            // schedules strictly higher levels, so each cone gate is
            // evaluated at most once and its drivers are final when popped.
            let mut level = seed.level as usize + 1;
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
                    fanin_words.clear();
                    for &driver in gate.fanin() {
                        let driver_index = driver.index();
                        fanin_words.push(if value_stamp[driver_index] == epoch {
                            faulty[driver_index]
                        } else {
                            good[driver_index]
                        });
                    }
                    let word = eval_chunk(gate.kind(), &fanin_words);
                    let delta = word ^ good[dirty_index];
                    if delta.is_zero() {
                        continue; // event died: cone re-converged here
                    }
                    faulty[dirty_index] = word;
                    value_stamp[dirty_index] = epoch;
                    if is_output[dirty_index] {
                        detect |= delta;
                    }
                    for &load in circuit.fanout(id) {
                        let index = load.index();
                        if sched_stamp[index] != epoch {
                            sched_stamp[index] = epoch;
                            buckets[levelization.level(load)].push(index as u32);
                            pending += 1;
                        }
                    }
                }
                bucket.clear();
                buckets[level] = bucket;
            }
            if first_detection[local].is_none() {
                if let Some(slot) = detect.first_set_slot() {
                    first_detection[local] = Some(block_index * PackedBlock::<L>::PATTERNS + slot);
                }
            }
        }
    }
    first_detection
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::SerialSimulator;
    use lsiq_netlist::generator::{random_circuit, RandomCircuitConfig};
    use lsiq_netlist::library;
    use lsiq_sim::pattern::Pattern;
    use lsiq_stats::rng::{Rng, Xoshiro256StarStar};

    fn random_patterns(width: usize, count: usize, seed: u64) -> PatternSet {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        (0..count)
            .map(|_| Pattern::from_bits((0..width).map(|_| rng.next_bool(0.5))))
            .collect()
    }

    #[test]
    fn matches_serial_simulator_on_c17_exhaustive() {
        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        let patterns: PatternSet = (0..32).map(|v| Pattern::from_integer(v, 5)).collect();
        let serial = SerialSimulator::new(&circuit).run(&universe, &patterns);
        let incremental = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
        assert_eq!(serial, incremental);
    }

    #[test]
    fn matches_serial_on_random_logic_across_blocks() {
        let circuit = random_circuit(&RandomCircuitConfig {
            inputs: 11,
            gates: 140,
            seed: 29,
            ..RandomCircuitConfig::default()
        });
        let universe = FaultUniverse::full(&circuit);
        // More than 64 patterns so detection indices cross block boundaries.
        let patterns = random_patterns(11, 150, 5);
        let serial = SerialSimulator::new(&circuit).run(&universe, &patterns);
        let incremental = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
        assert_eq!(serial, incremental);
    }

    #[test]
    fn matches_serial_on_xor_heavy_logic() {
        // The full adder exercises XOR cones, where events re-converge and
        // die mid-circuit.
        let circuit = library::full_adder();
        let universe = FaultUniverse::full(&circuit);
        let patterns: PatternSet = (0..8).map(|v| Pattern::from_integer(v, 3)).collect();
        let serial = SerialSimulator::new(&circuit).run(&universe, &patterns);
        let incremental = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
        assert_eq!(serial, incremental);
    }

    #[test]
    fn exhaustive_patterns_fully_cover_the_alu() {
        let circuit = library::alu4();
        let universe = FaultUniverse::full(&circuit);
        let patterns: PatternSet = (0..1024).map(|v| Pattern::from_integer(v, 10)).collect();
        let list = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
        // The ALU contains a small amount of redundancy (its adder carry-in
        // is tied to constant 0), so a handful of faults are untestable;
        // everything else must be detected by the exhaustive set.
        assert!(list.coverage() > 0.95, "coverage {}", list.coverage());
    }

    #[test]
    fn coverage_grows_monotonically_with_more_patterns() {
        let circuit = library::alu4();
        let universe = FaultUniverse::full(&circuit);
        let few = random_patterns(10, 8, 1);
        let many = random_patterns(10, 64, 1);
        let coverage_few = IncrementalSimulator::new(&circuit)
            .run(&universe, &few)
            .coverage();
        let coverage_many = IncrementalSimulator::new(&circuit)
            .run(&universe, &many)
            .coverage();
        assert!(coverage_many >= coverage_few);
        assert!(coverage_few > 0.0);
    }

    #[test]
    fn collapsing_does_not_change_results() {
        let circuit = random_circuit(&RandomCircuitConfig {
            inputs: 9,
            gates: 90,
            seed: 43,
            ..RandomCircuitConfig::default()
        });
        let universe = FaultUniverse::full(&circuit);
        let patterns = random_patterns(9, 70, 13);
        let collapsed = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
        let uncollapsed = IncrementalSimulator::new(&circuit)
            .with_collapsing(false)
            .run(&universe, &patterns);
        assert_eq!(collapsed, uncollapsed);
    }

    #[test]
    fn fault_dropping_does_not_change_results() {
        let random = random_circuit(&RandomCircuitConfig {
            inputs: 10,
            gates: 110,
            seed: 61,
            ..RandomCircuitConfig::default()
        });
        let exhaustive: PatternSet = (0..1024).map(|v| Pattern::from_integer(v, 10)).collect();
        let cases = [
            (random, random_patterns(10, 130, 17)),
            (library::alu4(), exhaustive),
        ];
        for (circuit, patterns) in &cases {
            let universe = FaultUniverse::full(circuit);
            let dropped = IncrementalSimulator::new(circuit).run(&universe, patterns);
            let undropped = IncrementalSimulator::new(circuit)
                .with_fault_dropping(false)
                .run(&universe, patterns);
            assert_eq!(dropped, undropped);
        }
    }

    #[test]
    fn checkpoint_universe_exercises_pin_fault_seeding() {
        let circuit = random_circuit(&RandomCircuitConfig {
            inputs: 8,
            gates: 75,
            seed: 7,
            ..RandomCircuitConfig::default()
        });
        let universe = FaultUniverse::checkpoint(&circuit);
        let patterns = random_patterns(8, 48, 23);
        let serial = SerialSimulator::new(&circuit).run(&universe, &patterns);
        let incremental = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
        assert_eq!(serial, incremental);
    }

    #[test]
    fn lane_widths_and_cache_do_not_change_results() {
        let circuit = random_circuit(&RandomCircuitConfig {
            inputs: 10,
            gates: 120,
            seed: 101,
            ..RandomCircuitConfig::default()
        });
        let universe = FaultUniverse::full(&circuit);
        let patterns = random_patterns(10, 300, 41);
        let reference = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
        let cache = GoodMachineCache::new();
        for lanes in LaneWidth::EXPLICIT {
            let plain = IncrementalSimulator::new(&circuit)
                .with_lanes(lanes)
                .run(&universe, &patterns);
            assert_eq!(reference, plain, "lanes = {lanes}");
            let cached = IncrementalSimulator::new(&circuit)
                .with_lanes(lanes)
                .with_cache(&cache)
                .run(&universe, &patterns);
            assert_eq!(reference, cached, "lanes = {lanes} (cached)");
        }
        assert!(cache.misses() > 0);
        // Replaying a width already in the cache is a pure hit.
        let before = cache.hits();
        let replay = IncrementalSimulator::new(&circuit)
            .with_lanes(LaneWidth::X4)
            .with_cache(&cache)
            .run(&universe, &patterns);
        assert_eq!(reference, replay);
        assert!(cache.hits() > before);
    }

    #[test]
    fn lane_widths_and_cache_commute_with_sharding() {
        let circuit = random_circuit(&RandomCircuitConfig {
            inputs: 11,
            gates: 130,
            seed: 37,
            ..RandomCircuitConfig::default()
        });
        let universe = FaultUniverse::full(&circuit);
        let patterns: PatternSet = (0..1 << 9).map(|v| Pattern::from_integer(v, 9)).collect();
        let reference = IncrementalSimulator::new(&circuit)
            .with_threads(1)
            .run(&universe, &patterns);
        let cache = GoodMachineCache::new();
        for lanes in LaneWidth::EXPLICIT {
            for threads in [1, 3] {
                let list = IncrementalSimulator::new(&circuit)
                    .with_lanes(lanes)
                    .with_threads(threads)
                    .with_cache(&cache)
                    .run(&universe, &patterns);
                assert_eq!(reference, list, "lanes = {lanes}, threads = {threads}");
            }
        }
        // Each lane width misses once per chunk, then the re-run at the same
        // width hits.
        assert!(cache.hits() > 0 && cache.misses() > 0);
    }

    #[test]
    fn sharded_runs_match_at_every_worker_count() {
        let circuit = random_circuit(&RandomCircuitConfig {
            inputs: 12,
            gates: 160,
            seed: 83,
            ..RandomCircuitConfig::default()
        });
        let universe = FaultUniverse::full(&circuit);
        let patterns = random_patterns(12, 100, 31);
        let reference = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
        for threads in [2, 3, 8] {
            let sharded = IncrementalSimulator::new(&circuit)
                .with_threads(threads)
                .run(&universe, &patterns);
            assert_eq!(reference, sharded, "threads = {threads}");
        }
        for workers in [1, 2, 6] {
            let context = ExecutionContext::new(workers);
            // Two runs on one context: the pool is reused, not respawned.
            for _ in 0..2 {
                let bound = IncrementalSimulator::new(&circuit)
                    .with_context(&context)
                    .run(&universe, &patterns);
                assert_eq!(reference, bound, "workers = {workers}");
            }
        }
    }

    #[test]
    fn shard_count_scales_down_for_tiny_universes() {
        let circuit = library::c17();
        let simulator = IncrementalSimulator::new(&circuit).with_threads(16);
        assert_eq!(simulator.shard_count(46), 1);
        assert_eq!(simulator.shard_count(0), 1);
        assert_eq!(simulator.shard_count(64 * 16), 16);
        assert_eq!(simulator.shard_count(65), 2);
        // Default is single-threaded.
        assert_eq!(IncrementalSimulator::new(&circuit).shard_count(10_000), 1);
    }

    #[test]
    fn empty_inputs_yield_empty_results() {
        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        let no_patterns = IncrementalSimulator::new(&circuit).run(&universe, &PatternSet::new());
        assert_eq!(no_patterns.detected_count(), 0);
        let patterns: PatternSet = (0..4).map(|v| Pattern::from_integer(v, 5)).collect();
        let empty_universe = FaultUniverse::from_faults(Vec::new());
        let list = IncrementalSimulator::new(&circuit).run(&empty_universe, &patterns);
        assert!(list.is_empty());
    }
}
