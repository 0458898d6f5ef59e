//! Simulation-class machinery shared by the deductive and incremental
//! engines.
//!
//! Both engines optionally partition the requested fault universe into
//! structural equivalence classes ([`collapse_equivalence`]) and simulate
//! one representative per class, crediting its detections to every member.
//! Equivalent faults are detected by exactly the same patterns, so the
//! reported results are identical to a full-universe run — the collapsed
//! pass just carries fewer faults.  The grouping logic (and the
//! circuit-only state it caches) lives here so the two engines cannot
//! drift apart.
//!
//! Collapsing applies only when the requested universe is the circuit's
//! full universe — the rule `TestSuiteBuilder` uses too.  Any other
//! universe (checkpoint, scan-path-only, or one the caller has already
//! collapsed) is simulated fault by fault, so a suite build that hands the
//! engine its collapsed universe runs the collapsing pass exactly once.

use crate::collapse::{collapse_equivalence, CollapseResult};
use crate::universe::FaultUniverse;
use lsiq_netlist::circuit::Circuit;
use std::cell::OnceCell;

/// Partitions the universe's fault indices into groups that provably share
/// their set of detecting patterns; each group is simulated through its
/// first member.
///
/// With `collapse` disabled, or for a universe other than the circuit's
/// full universe, every fault is its own singleton class.  Otherwise the
/// `cache` cell is lazily filled with the circuit's equivalence classes on
/// the first call and reused afterwards, so runs that never collapse never
/// pay for them and engines that `run` repeatedly pay for them once.
pub(crate) fn simulation_classes(
    circuit: &Circuit,
    cache: &OnceCell<CollapseResult>,
    collapse: bool,
    universe: &FaultUniverse,
) -> SimulationClasses {
    assert!(
        universe.len() <= u32::MAX as usize,
        "fault universe exceeds u32 index space"
    );
    if !collapse || !universe.is_full(circuit) {
        return SimulationClasses::identity(universe.len());
    }
    let equivalence = cache.get_or_init(|| collapse_equivalence(circuit));
    // Universe positions are full-universe positions, and the collapsed
    // representatives are numbered in order of first appearance, so each
    // fault's representative index is its class.
    let class_of: Vec<u32> = equivalence
        .representative_of
        .iter()
        .map(|representative| representative.expect("equivalence keeps every class") as u32)
        .collect();
    SimulationClasses::from_class_of(&class_of, equivalence.collapsed.len())
}

/// The universe fault indices of a run grouped into simulation classes, in a
/// flat CSR layout (no per-class allocation).  Members of one class are in
/// ascending universe order; the first member is the propagated
/// representative.
pub(crate) struct SimulationClasses {
    members: Vec<u32>,
    offsets: Vec<u32>,
}

impl SimulationClasses {
    /// One singleton class per universe index (collapsing disabled).
    pub(crate) fn identity(len: usize) -> SimulationClasses {
        SimulationClasses {
            members: (0..len as u32).collect(),
            offsets: (0..=len as u32).collect(),
        }
    }

    /// Builds the CSR layout from a per-index class assignment.
    fn from_class_of(class_of: &[u32], class_count: usize) -> SimulationClasses {
        let mut offsets = vec![0u32; class_count + 1];
        for &class in class_of {
            offsets[class as usize + 1] += 1;
        }
        for class in 0..class_count {
            offsets[class + 1] += offsets[class];
        }
        let mut cursor: Vec<u32> = offsets[..class_count].to_vec();
        let mut members = vec![0u32; class_of.len()];
        for (index, &class) in class_of.iter().enumerate() {
            members[cursor[class as usize] as usize] = index as u32;
            cursor[class as usize] += 1;
        }
        SimulationClasses { members, offsets }
    }

    /// Number of classes.
    pub(crate) fn count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The universe indices belonging to `class`.
    pub(crate) fn members_of(&self, class: u32) -> &[u32] {
        &self.members
            [self.offsets[class as usize] as usize..self.offsets[class as usize + 1] as usize]
    }

    /// The universe index whose fault is propagated for `class`.
    pub(crate) fn representative(&self, class: u32) -> u32 {
        self.members[self.offsets[class as usize] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsiq_netlist::library;

    #[test]
    fn identity_classes_are_singletons() {
        let classes = SimulationClasses::identity(4);
        assert_eq!(classes.count(), 4);
        for class in 0..4u32 {
            assert_eq!(classes.members_of(class), &[class]);
            assert_eq!(classes.representative(class), class);
        }
    }

    #[test]
    fn full_universe_classes_cover_every_fault_once() {
        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        let cache = OnceCell::new();
        let classes = simulation_classes(&circuit, &cache, true, &universe);
        assert!(classes.count() < universe.len(), "c17 must collapse");
        let mut seen = vec![false; universe.len()];
        for class in 0..classes.count() as u32 {
            let members = classes.members_of(class);
            assert!(!members.is_empty());
            assert_eq!(classes.representative(class), members[0]);
            for &member in members {
                assert!(!seen[member as usize], "fault {member} in two classes");
                seen[member as usize] = true;
            }
        }
        assert!(seen.into_iter().all(|covered| covered));
        // The cache is populated exactly once.
        assert!(cache.get().is_some());
    }

    #[test]
    fn collapsed_universe_gets_identity_classes_without_collapsing_again() {
        // A suite build hands the engine the universe it already collapsed;
        // the engine must not run a second collapsing pass over it.
        let circuit = library::alu4();
        let collapsed = collapse_equivalence(&circuit).collapsed;
        assert!(collapsed.len() < FaultUniverse::full(&circuit).len());
        let cache = OnceCell::new();
        let classes = simulation_classes(&circuit, &cache, true, &collapsed);
        assert_eq!(classes.count(), collapsed.len());
        for class in 0..classes.count() as u32 {
            assert_eq!(classes.members_of(class), &[class]);
        }
        assert!(
            cache.get().is_none(),
            "collapsing ran on a non-full universe"
        );
    }
}
