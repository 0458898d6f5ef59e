//! Static test-set compaction.
//!
//! Reverse-order fault-simulation compaction: patterns are examined in
//! reverse application order and kept only if they detect at least one fault
//! not detected by the already-kept (later) patterns.  Random pattern sets
//! usually shrink substantially, which matters to the paper's cost argument
//! ("test application costs increase very rapidly" as coverage approaches
//! 100 percent).
//!
//! That walk keeps exactly the *last* detecting pattern of every detected
//! fault.  Walking backwards, the first pattern met that detects a fault is
//! its last one, and no pattern kept before it (all later ones) detects that
//! fault, so it is kept; conversely, a kept pattern detects some fault that
//! no later pattern detects.  A fault's last detecting pattern is its first
//! detecting pattern in reversed order, so [`reverse_order_compaction`] is
//! one engine run over the reversed pattern set, on any [`EngineKind`] with
//! any [`EngineOptions`] bundle, and the compacted set detects every fault
//! the original set detects.

use lsiq_fault::simulator::{BuildEngine, EngineKind, EngineOptions};
use lsiq_fault::universe::FaultUniverse;
use lsiq_netlist::circuit::Circuit;
use lsiq_sim::pattern::PatternSet;

/// The result of compacting a pattern set.
#[derive(Debug, Clone)]
pub struct CompactionResult {
    /// The kept patterns, in their original relative order.
    pub compacted: PatternSet,
    /// Number of patterns in the original set.
    pub original_len: usize,
    /// Coverage of the original set over the supplied universe.
    pub original_coverage: f64,
    /// Coverage of the compacted set over the supplied universe.
    pub compacted_coverage: f64,
}

impl CompactionResult {
    /// The compaction ratio `compacted / original` (1.0 for an empty input).
    pub fn ratio(&self) -> f64 {
        if self.original_len == 0 {
            1.0
        } else {
            self.compacted.len() as f64 / self.original_len as f64
        }
    }
}

/// Compacts `patterns` against `universe` by reverse-order fault simulation
/// in one run of `engine`, built with `options`: a worker pool (the
/// incremental engine shards its simulation classes across it; the
/// single-threaded engines run on the calling thread), a packed lane width,
/// and optionally a shared
/// [`GoodMachineCache`](lsiq_sim::cache::GoodMachineCache).  The kept
/// patterns are identical for every engine and option combination.
pub fn reverse_order_compaction(
    circuit: &Circuit,
    universe: &FaultUniverse,
    patterns: &PatternSet,
    engine: EngineKind,
    options: &EngineOptions,
) -> CompactionResult {
    let reversed: PatternSet = patterns.iter().rev().cloned().collect();
    let list = engine
        .build_configured(circuit, options)
        .run(universe, &reversed);
    let mut kept: Vec<usize> = list
        .first_detection_patterns()
        .into_iter()
        .map(|first| patterns.len() - 1 - first)
        .collect();
    kept.sort_unstable();
    kept.dedup();
    let coverage = list.coverage();
    CompactionResult {
        compacted: kept
            .into_iter()
            .map(|index| patterns.get(index).expect("kept index is valid").clone())
            .collect(),
        original_len: patterns.len(),
        original_coverage: coverage,
        compacted_coverage: coverage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::RandomPatternGenerator;
    use lsiq_exec::ExecutionContext;
    use lsiq_netlist::generator::{random_circuit, RandomCircuitConfig};
    use lsiq_netlist::library;

    /// Compaction on the deductive engine with default options.
    fn compact(
        circuit: &Circuit,
        universe: &FaultUniverse,
        patterns: &PatternSet,
    ) -> CompactionResult {
        reverse_order_compaction(
            circuit,
            universe,
            patterns,
            EngineKind::Deductive,
            &EngineOptions::default(),
        )
    }

    /// The reverse-order walk run literally: one engine run per pattern,
    /// last to first, over a rebuilt universe of the faults no kept pattern
    /// detects yet, then one more run to grade the compacted set.
    fn per_pattern_oracle(
        circuit: &Circuit,
        universe: &FaultUniverse,
        patterns: &PatternSet,
    ) -> CompactionResult {
        let simulator = EngineKind::Deductive.build_configured(circuit, &EngineOptions::default());
        let original_list = simulator.run(universe, patterns);
        let mut kept_reversed: Vec<usize> = Vec::new();
        let mut detected = vec![false; universe.len()];
        for index in original_list.undetected_indices() {
            // Faults never detected by the full set can be ignored entirely.
            detected[index] = true;
        }
        for pattern_index in (0..patterns.len()).rev() {
            let single: PatternSet = [patterns.get(pattern_index).expect("in range").clone()]
                .into_iter()
                .collect();
            let undetected_universe = FaultUniverse::from_faults(
                universe
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !detected[*i])
                    .map(|(_, f)| *f)
                    .collect(),
            );
            if undetected_universe.is_empty() {
                break;
            }
            let list = simulator.run(&undetected_universe, &single);
            if list.detected_count() == 0 {
                continue;
            }
            kept_reversed.push(pattern_index);
            // Map detections back to the original universe indices.
            let mut cursor = 0usize;
            for is_detected in detected.iter_mut() {
                if *is_detected {
                    continue;
                }
                if list.state(cursor).is_detected() {
                    *is_detected = true;
                }
                cursor += 1;
            }
        }
        kept_reversed.reverse();
        let compacted: PatternSet = kept_reversed
            .into_iter()
            .map(|i| patterns.get(i).expect("kept index is valid").clone())
            .collect();
        let compacted_coverage = simulator.run(universe, &compacted).coverage();
        CompactionResult {
            compacted,
            original_len: patterns.len(),
            original_coverage: original_list.coverage(),
            compacted_coverage,
        }
    }

    #[test]
    fn one_reversed_run_matches_the_per_pattern_walk() {
        // 43 circuits × 2 universes × 5 pattern counts = 430 cases, on the
        // production engine against the literal walk on the deductive one.
        let mut circuits = vec![library::c17(), library::full_adder(), library::alu4()];
        for seed in 0..40u64 {
            circuits.push(random_circuit(&RandomCircuitConfig {
                inputs: 4 + (seed as usize % 9),
                gates: 20 + (seed as usize * 7) % 60,
                seed: 1_000 + seed,
                ..RandomCircuitConfig::default()
            }));
        }
        let mut cases = 0;
        let mut shrunk = 0;
        for (index, circuit) in circuits.iter().enumerate() {
            let full = FaultUniverse::full(circuit);
            let every_third = FaultUniverse::from_faults(full.iter().step_by(3).copied().collect());
            for universe in [&full, &every_third] {
                for count in [0, 1, 7, 64, 150] {
                    let patterns =
                        RandomPatternGenerator::new(circuit, 17 + index as u64).generate(count);
                    let oracle = per_pattern_oracle(circuit, universe, &patterns);
                    let result = reverse_order_compaction(
                        circuit,
                        universe,
                        &patterns,
                        EngineKind::default(),
                        &EngineOptions::default(),
                    );
                    let label = format!(
                        "circuit {index}, {} faults, {count} patterns",
                        universe.len()
                    );
                    assert_eq!(
                        result.compacted.as_slice(),
                        oracle.compacted.as_slice(),
                        "{label}"
                    );
                    assert_eq!(result.original_len, oracle.original_len, "{label}");
                    assert_eq!(
                        result.original_coverage, oracle.original_coverage,
                        "{label}"
                    );
                    assert_eq!(
                        result.compacted_coverage, oracle.compacted_coverage,
                        "{label}"
                    );
                    cases += 1;
                    shrunk += usize::from(result.compacted.len() < count);
                }
            }
        }
        assert_eq!(cases, 430);
        assert!(shrunk > 100, "only {shrunk} cases compacted anything");
    }

    #[test]
    fn compaction_preserves_coverage() {
        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        let patterns = RandomPatternGenerator::new(&circuit, 11).generate(200);
        let result = compact(&circuit, &universe, &patterns);
        assert!(
            (result.compacted_coverage - result.original_coverage).abs() < 1e-12,
            "coverage changed: {} vs {}",
            result.compacted_coverage,
            result.original_coverage
        );
        assert!(result.compacted.len() <= result.original_len);
    }

    #[test]
    fn redundant_patterns_are_removed() {
        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        // 200 random patterns over 5 inputs are heavily redundant.
        let patterns = RandomPatternGenerator::new(&circuit, 3).generate(200);
        let result = compact(&circuit, &universe, &patterns);
        assert!(
            result.compacted.len() < 40,
            "expected strong compaction, kept {}",
            result.compacted.len()
        );
        assert!(result.ratio() < 0.25);
    }

    #[test]
    fn empty_pattern_set_is_handled() {
        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        let result = compact(&circuit, &universe, &PatternSet::new());
        assert_eq!(result.compacted.len(), 0);
        assert_eq!(result.ratio(), 1.0);
        assert_eq!(result.original_coverage, 0.0);
    }

    #[test]
    fn kept_patterns_preserve_relative_order() {
        let circuit = library::full_adder();
        let universe = FaultUniverse::full(&circuit);
        let patterns = RandomPatternGenerator::new(&circuit, 9).generate(50);
        let result = compact(&circuit, &universe, &patterns);
        // Every kept pattern must appear in the original set, in order.
        let mut search_from = 0usize;
        for kept in result.compacted.iter() {
            let position = (search_from..patterns.len())
                .find(|&i| patterns.get(i) == Some(kept))
                .expect("kept pattern comes from the original set, in order");
            search_from = position + 1;
        }
    }

    #[test]
    fn every_engine_compacts_identically() {
        let circuit = library::full_adder();
        let universe = FaultUniverse::full(&circuit);
        let patterns = RandomPatternGenerator::new(&circuit, 21).generate(60);
        let reference = compact(&circuit, &universe, &patterns);
        for engine in EngineKind::ALL {
            let result = reverse_order_compaction(
                &circuit,
                &universe,
                &patterns,
                engine,
                &EngineOptions::default(),
            );
            assert_eq!(
                result.compacted.as_slice(),
                reference.compacted.as_slice(),
                "{engine}"
            );
            assert_eq!(result.original_coverage, reference.original_coverage);
            assert_eq!(result.compacted_coverage, reference.compacted_coverage);
        }
    }

    #[test]
    fn configured_compaction_matches_at_every_lane_width_with_a_shared_cache() {
        use lsiq_exec::LaneWidth;
        use lsiq_sim::cache::GoodMachineCache;

        let circuit = library::alu4();
        let universe = FaultUniverse::full(&circuit);
        let patterns = RandomPatternGenerator::new(&circuit, 13).generate(120);
        let reference = compact(&circuit, &universe, &patterns);
        let cache = GoodMachineCache::new();
        for lanes in LaneWidth::EXPLICIT {
            // Twice per width: the first pass deposits the good machine of
            // the reversed set in the cache, the second replays it.
            for _ in 0..2 {
                let result = reverse_order_compaction(
                    &circuit,
                    &universe,
                    &patterns,
                    EngineKind::Incremental,
                    &EngineOptions {
                        lanes,
                        cache: Some(&cache),
                        ..EngineOptions::default()
                    },
                );
                assert_eq!(
                    result.compacted.as_slice(),
                    reference.compacted.as_slice(),
                    "{lanes}"
                );
            }
        }
        assert!(cache.hits() > 0);
        assert!(cache.misses() > 0);
    }

    #[test]
    fn context_bound_compaction_matches_at_any_worker_count() {
        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        let patterns = RandomPatternGenerator::new(&circuit, 5).generate(80);
        let reference = compact(&circuit, &universe, &patterns);
        for workers in [1, 3] {
            let context = ExecutionContext::new(workers);
            let result = reverse_order_compaction(
                &circuit,
                &universe,
                &patterns,
                EngineKind::Incremental,
                &EngineOptions {
                    context: Some(&context),
                    ..EngineOptions::default()
                },
            );
            assert_eq!(
                result.compacted.as_slice(),
                reference.compacted.as_slice(),
                "workers = {workers}"
            );
        }
    }
}
