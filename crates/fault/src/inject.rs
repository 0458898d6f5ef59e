//! Fault-injected scalar circuit evaluation: the oracle.
//!
//! These functions mirror the scalar good-machine pass of
//! [`CompiledCircuit`] but force the faulty line to its stuck value during
//! evaluation, one pattern at a time over the whole circuit.  They are the
//! serial fault simulator's evaluator, the collapsing soundness checks'
//! reference, and the brute-force oracle the packed
//! [cone kernel](crate::cone) and the BIST signature dictionaries are
//! tested against.  Production fault propagation never re-evaluates the
//! whole circuit: it runs through the cone kernel.

use crate::model::{Fault, FaultSite};
use lsiq_netlist::GateKind;
use lsiq_sim::eval::eval_bool;
use lsiq_sim::levelized::CompiledCircuit;

/// Scalar simulation of one pattern with `fault` injected; returns the value
/// of every gate indexed by gate id.
///
/// `good_inputs` must be the primary-input values in declaration order (as
/// produced by applying the pattern positionally).
pub fn node_values_with_fault(
    compiled: &CompiledCircuit<'_>,
    good_inputs: &[bool],
    fault: &Fault,
) -> Vec<bool> {
    let circuit = compiled.circuit();
    let mut values = vec![false; circuit.gate_count()];
    for (position, &input) in circuit.primary_inputs().iter().enumerate() {
        values[input.index()] = good_inputs.get(position).copied().unwrap_or(false);
    }
    // An output fault on a primary input overrides its applied value.
    if let FaultSite::Output(gate) = fault.site {
        if circuit.gate(gate).kind() == GateKind::Input {
            values[gate.index()] = fault.stuck.as_bool();
        }
    }
    let mut fanin_values = Vec::new();
    for &id in compiled.order() {
        let gate = circuit.gate(id);
        if gate.kind() == GateKind::Input {
            continue;
        }
        fanin_values.clear();
        for (pin, &driver) in gate.fanin().iter().enumerate() {
            let mut value = values[driver.index()];
            if fault.site == (FaultSite::InputPin { gate: id, pin }) {
                value = fault.stuck.as_bool();
            }
            fanin_values.push(value);
        }
        let mut output = eval_bool(gate.kind(), &fanin_values);
        if fault.site == FaultSite::Output(id) {
            output = fault.stuck.as_bool();
        }
        values[id.index()] = output;
    }
    values
}

/// Scalar primary-output response with `fault` injected.
pub fn outputs_with_fault(
    compiled: &CompiledCircuit<'_>,
    good_inputs: &[bool],
    fault: &Fault,
) -> Vec<bool> {
    let values = node_values_with_fault(compiled, good_inputs, fault);
    compiled
        .circuit()
        .primary_outputs()
        .iter()
        .map(|&out| values[out.index()])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::StuckValue;
    use lsiq_netlist::library;
    use lsiq_sim::pattern::Pattern;

    #[test]
    fn injected_output_fault_forces_line() {
        let circuit = library::c17();
        let compiled = CompiledCircuit::new(&circuit);
        let g10 = circuit.find_signal("G10").expect("exists");
        let fault = Fault::output(g10, StuckValue::One);
        // Pattern where G10 would be 0 in the good circuit: G1 = G3 = 1.
        let pattern = Pattern::from_bits([true, false, true, false, false]);
        let good = compiled.node_values(&pattern);
        assert!(!good[g10.index()]);
        let faulty = node_values_with_fault(&compiled, pattern.bits(), &fault);
        assert!(faulty[g10.index()]);
    }

    #[test]
    fn input_pin_fault_does_not_affect_other_branches() {
        let circuit = library::c17();
        let compiled = CompiledCircuit::new(&circuit);
        // G11 fans out to G16 and G19.  A fault on G16's pin reading G11 must
        // leave G19's view of G11 untouched.
        let g11 = circuit.find_signal("G11").expect("exists");
        let g16 = circuit.find_signal("G16").expect("exists");
        let g19 = circuit.find_signal("G19").expect("exists");
        let pin = circuit
            .gate(g16)
            .fanin()
            .iter()
            .position(|&d| d == g11)
            .expect("G16 reads G11");
        let fault = Fault::input_pin(g16, pin, StuckValue::Zero);
        // Choose a pattern where G11 = 1 (G3 and G6 not both 1): all zeros.
        let pattern = Pattern::zeros(5);
        let good = compiled.node_values(&pattern);
        assert!(good[g11.index()]);
        let faulty = node_values_with_fault(&compiled, pattern.bits(), &fault);
        // The stem itself and the other branch keep the good value.
        assert_eq!(faulty[g11.index()], good[g11.index()]);
        assert_eq!(faulty[g19.index()], good[g19.index()]);
        // The faulted branch sees 0, so G16 = NAND(G2, 0) = 1.
        assert!(faulty[g16.index()]);
    }

    #[test]
    fn primary_input_fault_overrides_applied_value() {
        let circuit = library::half_adder();
        let compiled = CompiledCircuit::new(&circuit);
        let a = circuit.find_signal("a").expect("exists");
        let fault = Fault::output(a, StuckValue::Zero);
        let pattern = Pattern::from_bits([true, true]);
        let outputs = outputs_with_fault(&compiled, pattern.bits(), &fault);
        // With a stuck at 0: sum = 1, carry = 0.
        assert_eq!(outputs, vec![true, false]);
    }

    #[test]
    fn fault_free_injection_matches_good_machine_when_value_agrees() {
        let circuit = library::c17();
        let compiled = CompiledCircuit::new(&circuit);
        let g10 = circuit.find_signal("G10").expect("exists");
        // With G1=0, G10 is 1 in the good circuit; injecting SA1 changes nothing.
        let pattern = Pattern::zeros(5);
        let fault = Fault::output(g10, StuckValue::One);
        assert_eq!(
            node_values_with_fault(&compiled, pattern.bits(), &fault),
            compiled.node_values(&pattern)
        );
    }
}
