//! Event-driven incremental fault simulation.
//!
//! The two other engines re-evaluate the full circuit per (pattern, fault)
//! pair ([serial](crate::serial)) or per pattern
//! ([deductive](crate::deductive)).  This engine exploits the observation
//! that a single stuck-at fault disturbs only its *fanout cone*: the good
//! machine is evaluated **once** per lane-wide chunk, and each fault is then
//! propagated through its disturbed cone only, by the shared
//! [`ConeKernel`] — the same kernel the BIST
//! signature dictionaries are built on.  The per-fault cost is proportional
//! to the size of the *disturbed* cone, usually a tiny fraction of the
//! netlist, instead of the whole circuit.  It is the fastest engine in the
//! workspace at every circuit size measured, and therefore the production
//! default (`EngineKind::default()`); see `docs/ENGINES.md` for the full
//! comparison.
//!
//! # Detection semantics
//!
//! The kernel reports the disturbed primary outputs of each (fault, chunk)
//! with their `good ^ faulty` error chunks, masked to the chunk's valid
//! patterns.  The engine ORs them; the first set bit of the union is the
//! fault's earliest detecting pattern within the chunk.  This is the serial
//! reference's first-failing-pattern rule, so the reported [`FaultList`] is
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
//! across the pool's workers, each with its own kernel, with results
//! identical at any worker count.

use crate::classes::{simulation_classes, SimulationClasses};
use crate::collapse::CollapseResult;
use crate::cone::{good_chunks, ConeKernel, GoodChunk};
use crate::list::FaultList;
use crate::model::Fault;
use crate::simulator::FaultSimulator;
use crate::telemetry;
use crate::universe::FaultUniverse;
use lsiq_exec::{map_shards, ExecutionContext, LaneWidth};
use lsiq_netlist::circuit::Circuit;
use lsiq_obs::Span;
use lsiq_sim::cache::GoodMachineCache;
use lsiq_sim::levelized::CompiledCircuit;
use lsiq_sim::packed::PackedBlock;
use lsiq_sim::pattern::PatternSet;
use std::cell::OnceCell;

static GOOD_MACHINE: Span = Span::new("engine.incremental.good_machine");
static PROPAGATE: Span = Span::new("engine.incremental.propagate");

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
    /// simulation classes across its workers.  Without this, runs are
    /// single-threaded on the caller.
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
        let chunks = {
            let _timer = GOOD_MACHINE.start();
            good_chunks::<L>(&self.compiled, patterns, self.cache)
        };
        if chunks.is_empty() {
            return list;
        }
        telemetry::RUNS.incr();
        telemetry::FAULTS.add(classes.count() as u64);
        telemetry::GOOD_EVALS.add(chunks.len() as u64);
        let representatives: Vec<Fault> = (0..classes.count() as u32)
            .map(|class| {
                *universe
                    .get(classes.representative(class) as usize)
                    .expect("class member in range")
            })
            .collect();

        let drop_detected = self.drop_detected;
        let compiled = &self.compiled;
        let detections = map_shards(
            self.context,
            representatives.len(),
            Self::MIN_CLASSES_PER_SHARD,
            |range| simulate_shard(compiled, &chunks, &representatives[range], drop_detected),
        );

        // The shards are contiguous and in class order.
        let mut drops = 0u64;
        for (class, detection) in detections.into_iter().flatten().enumerate() {
            if let Some(pattern) = detection {
                if drop_detected {
                    drops += 1;
                }
                for &member in classes.members_of(class as u32) {
                    list.mark_detected(member as usize, pattern);
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

/// Simulates one contiguous shard of simulation-class representatives over
/// all chunks, returning the first detecting pattern per class (shard-local
/// order).  One [`ConeKernel`] per shard owns all scratch state.
fn simulate_shard<const L: usize>(
    compiled: &CompiledCircuit<'_>,
    chunks: &[GoodChunk<L>],
    faults: &[Fault],
    drop_detected: bool,
) -> Vec<Option<usize>> {
    let _timer = PROPAGATE.start();
    let mut kernel = ConeKernel::<L>::new(compiled);
    faults
        .iter()
        .map(|fault| {
            let mut first_detection = None;
            for (index, chunk) in chunks.iter().enumerate() {
                if first_detection.is_some() && drop_detected {
                    break;
                }
                let detect = kernel
                    .propagate(fault, &chunk.words, chunk.valid)
                    .iter()
                    .fold(PackedBlock::<L>::ZERO, |union, error| union | error.word);
                if first_detection.is_none() {
                    if let Some(slot) = detect.first_set_slot() {
                        first_detection = Some(index * PackedBlock::<L>::PATTERNS + slot);
                    }
                }
            }
            first_detection
        })
        .collect()
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
        let single = ExecutionContext::new(1);
        let reference = IncrementalSimulator::new(&circuit)
            .with_context(&single)
            .run(&universe, &patterns);
        let cache = GoodMachineCache::new();
        for lanes in LaneWidth::EXPLICIT {
            for threads in [1, 3] {
                let context = ExecutionContext::new(threads);
                let list = IncrementalSimulator::new(&circuit)
                    .with_lanes(lanes)
                    .with_context(&context)
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
            let context = ExecutionContext::new(threads);
            let sharded = IncrementalSimulator::new(&circuit)
                .with_context(&context)
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
