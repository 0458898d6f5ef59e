//! Full-scan insertion and the time-frame-expanded test view.
//!
//! The 1981 study measured fault coverage on a production LSI chip tested
//! through its scan interface.  This module provides the design-for-test
//! transformation that makes the rest of the workspace — three combinational
//! fault-simulation engines, STUMPS pattern generation, MISR compaction —
//! applicable to sequential devices without any per-engine changes:
//!
//! 1. [`insert_scan`] rewrites a sequential [`Circuit`] so every D flip-flop
//!    becomes a *scan cell*: a 2:1 multiplexer in front of the D pin selects
//!    between functional data (`scan_en = 0`) and the previous cell of a
//!    shift chain (`scan_en = 1`).  The flip-flops are stitched into
//!    `chains` near-equal shift registers, each with its own `scan_in`
//!    primary input and a `scan_out` primary output (the last cell's Q).
//!
//! 2. The companion *test view* is the one-time-frame expansion of the scan
//!    design in capture mode: `scan_en` is tied to constant 0, every
//!    flip-flop is replaced by a pseudo-primary input (its Q is controllable
//!    by shifting), and every scan-cell mux output is a pseudo-primary
//!    output (its D capture is observable by shifting out).  The view is a
//!    pure combinational circuit with the *same gate ids* as the scan
//!    design, so faults located in one are meaningful in the other.
//!
//! A full-scan test cycle — shift a pattern in, pulse the functional clock
//! once, shift the response out — is then exactly one combinational
//! simulation of the test view.  Stuck-at faults on the inserted mux gates
//! model defects in the scan path itself and are part of the view's fault
//! universe like any other gate fault.
//!
//! # Scan-cell construction
//!
//! The mux is synthesised from the workspace's primitive gates.  One
//! inverter `scan_en$n` is shared by the whole design; each cell `q` with
//! functional next-state signal `d` and shift predecessor `si` becomes:
//!
//! ```text
//! q$d   = AND(scan_en$n, d)     -- functional path, enabled when scan_en=0
//! q$s   = AND(scan_en, si)      -- shift path, enabled when scan_en=1
//! q$mux = OR(q$d, q$s)          -- the 2:1 mux
//! q     = DFF(q$mux)
//! ```
//!
//! Three gates per cell plus the shared inverter: the area overhead the
//! paper's era paid for scan design, reproduced structurally.

use crate::builder::CircuitBuilder;
use crate::circuit::{Circuit, GateId};
use crate::error::NetlistError;
use crate::gate::GateKind;

/// Name of the scan-enable primary input added by [`insert_scan`].
pub const SCAN_ENABLE_NAME: &str = "scan_en";

/// A scan-inserted design together with its expanded combinational test
/// view.
///
/// Both circuits share one gate-id space: gate `g` in
/// [`circuit`](ScanCircuit::circuit) and gate `g` in
/// [`test_view`](ScanCircuit::test_view) describe the same physical site
/// (the view merely re-types `scan_en` as constant 0 and each flip-flop as
/// a pseudo-primary input).
#[derive(Debug, Clone)]
pub struct ScanCircuit {
    circuit: Circuit,
    test_view: Circuit,
    chains: Vec<Vec<GateId>>,
    scan_enable: GateId,
    scan_ins: Vec<GateId>,
    scan_outs: Vec<GateId>,
    scan_path_gates: Vec<GateId>,
    functional_output_count: usize,
}

impl ScanCircuit {
    /// The scan-inserted sequential circuit (mux-D scan cells, stitched
    /// chains, `scan_en`/`scan_in*` inputs, `scan_out` outputs).
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The time-frame-expanded combinational test view: one scan test cycle
    /// (shift in, capture, shift out) equals one simulation of this circuit.
    ///
    /// Its primary inputs are the `scan_in*` pins, the functional primary
    /// inputs and one pseudo-primary input per flip-flop, in gate-id order;
    /// its primary outputs are the functional (non-flip-flop) outputs
    /// followed by one pseudo-primary output per scan cell in chain-major
    /// shift order — the exact bit order a tester or MISR observes.
    pub fn test_view(&self) -> &Circuit {
        &self.test_view
    }

    /// Scan chains in shift order: `chains()[c]` lists the Q gate ids of
    /// chain `c` from the cell nearest `scan_in` to the cell driving
    /// `scan_out`.
    pub fn chains(&self) -> &[Vec<GateId>] {
        &self.chains
    }

    /// Number of scan chains.
    pub fn chain_count(&self) -> usize {
        self.chains.len()
    }

    /// Total number of scan cells (flip-flops in the original design).
    pub fn cell_count(&self) -> usize {
        self.chains.iter().map(|chain| chain.len()).sum()
    }

    /// Length of the longest chain — the number of shift clocks needed to
    /// load or unload the design.
    pub fn max_chain_length(&self) -> usize {
        self.chains
            .iter()
            .map(|chain| chain.len())
            .max()
            .unwrap_or(0)
    }

    /// The `scan_en` primary input gate.
    pub fn scan_enable(&self) -> GateId {
        self.scan_enable
    }

    /// The `scan_in` primary input gate of each chain.
    pub fn scan_ins(&self) -> &[GateId] {
        &self.scan_ins
    }

    /// The `scan_out` gate (last cell Q) of each chain.
    pub fn scan_outs(&self) -> &[GateId] {
        &self.scan_outs
    }

    /// Gates inserted by scan stitching: the shared `scan_en$n` inverter and
    /// each cell's `$d`/`$s`/`$mux` gates.  Faults on these sites (in either
    /// id space) model defects in the scan path itself.
    pub fn scan_path_gates(&self) -> &[GateId] {
        &self.scan_path_gates
    }

    /// Number of functional (non-flip-flop) primary outputs at the front of
    /// the test view's output list; the remaining outputs are the per-cell
    /// pseudo-primary outputs in chain-major shift order.
    pub fn functional_output_count(&self) -> usize {
        self.functional_output_count
    }
}

/// Stitches every flip-flop of `circuit` into `chains` scan chains and
/// builds the expanded combinational test view.
///
/// Chains are formed from contiguous, near-equal runs of
/// [`Circuit::state_elements`] order, so the assignment is deterministic
/// for a given netlist.
///
/// # Errors
///
/// Returns [`NetlistError::Scan`] if `chains` is zero, if the circuit has
/// no flip-flops, or if there are more chains than flip-flops, and
/// [`NetlistError::DuplicateSignal`] if the circuit already uses one of the
/// reserved scan signal names (`scan_en`, `scan_in*`, `*$d`, `*$s`,
/// `*$mux`).
pub fn insert_scan(circuit: &Circuit, chains: usize) -> Result<ScanCircuit, NetlistError> {
    if chains == 0 {
        return Err(NetlistError::Scan {
            message: "at least one scan chain is required".to_string(),
        });
    }
    let cells = circuit.state_elements().len();
    if cells == 0 {
        return Err(NetlistError::Scan {
            message: format!(
                "circuit `{}` has no flip-flops to stitch into scan chains",
                circuit.name()
            ),
        });
    }
    if chains > cells {
        return Err(NetlistError::Scan {
            message: format!("cannot split {cells} flip-flop(s) into {chains} scan chains"),
        });
    }

    // New ids are assigned arithmetically up front so original fanin
    // references can be rewritten in a single pass: the preamble occupies
    // ids 0..chains+2, then each original gate takes one slot, except
    // flip-flops which expand to four ($d, $s, $mux, Q at base+3).
    let scan_enable = GateId(0);
    let scan_ins: Vec<GateId> = (0..chains).map(|c| GateId(1 + c)).collect();
    let not_scan_enable = GateId(1 + chains);
    let mut map = Vec::with_capacity(circuit.gate_count());
    let mut next = 2 + chains;
    for gate in circuit.gates() {
        if gate.kind().is_state() {
            map.push(GateId(next + 3));
            next += 4;
        } else {
            map.push(GateId(next));
            next += 1;
        }
    }

    // Chain c gets cells chain_start(c)..chain_start(c+1) of state-element
    // order; the first `cells % chains` chains are one cell longer.
    let chain_of_cell = |cell: usize| -> (usize, bool) {
        let base = cells / chains;
        let longer = cells % chains;
        if cell < longer * (base + 1) {
            (cell / (base + 1), cell % (base + 1) == 0)
        } else {
            let rest = cell - longer * (base + 1);
            (longer + rest / base, rest % base == 0)
        }
    };

    let mut builder = CircuitBuilder::new(format!("{}_scan", circuit.name()));
    let scan_en = builder.input(SCAN_ENABLE_NAME);
    debug_assert_eq!(scan_en, scan_enable);
    for (c, &scan_in) in scan_ins.iter().enumerate() {
        let id = builder.input(format!("scan_in{c}"));
        debug_assert_eq!(id, scan_in);
    }
    let nse = builder.gate(format!("{SCAN_ENABLE_NAME}$n"), GateKind::Not, &[scan_en]);
    debug_assert_eq!(nse, not_scan_enable);

    let mut scan_path_gates = vec![not_scan_enable];
    let mut chain_lists: Vec<Vec<GateId>> = vec![Vec::new(); chains];
    let mut cell_index = 0usize;
    for (id, gate) in circuit.iter() {
        let name = circuit.signal_name(id);
        if gate.kind().is_state() {
            let (chain, is_first) = chain_of_cell(cell_index);
            let shift_in = if is_first {
                scan_ins[chain]
            } else {
                // State elements appear in id order, so the predecessor's
                // mapped Q id is already known (and may even be a forward
                // reference — the builder validates ids only at finish).
                *chain_lists[chain].last().expect("non-first cell")
            };
            let d = map[gate.fanin()[0].index()];
            let d_and = builder.gate(format!("{name}$d"), GateKind::And, &[nse, d]);
            let s_and = builder.gate(format!("{name}$s"), GateKind::And, &[scan_en, shift_in]);
            let mux = builder.gate(format!("{name}$mux"), GateKind::Or, &[d_and, s_and]);
            let q = builder.dff(name, mux);
            debug_assert_eq!(q, map[id.index()]);
            scan_path_gates.extend([d_and, s_and, mux]);
            chain_lists[chain].push(q);
            cell_index += 1;
        } else {
            let fanin: Vec<GateId> = gate.fanin().iter().map(|f| map[f.index()]).collect();
            let new_id = builder.gate(name, gate.kind(), &fanin);
            debug_assert_eq!(new_id, map[id.index()]);
        }
    }
    for &out in circuit.primary_outputs() {
        builder.mark_output(map[out.index()]);
    }
    let scan_outs: Vec<GateId> = chain_lists
        .iter()
        .map(|chain| *chain.last().expect("chains are non-empty"))
        .collect();
    for &out in &scan_outs {
        builder.mark_output(out);
    }
    let scan_circuit = builder.finish()?;

    // The test view re-types gates in place: same ids, same names, but
    // capture mode is frozen in (scan_en = 0) and every flip-flop becomes a
    // pseudo-primary input.
    let mut view = CircuitBuilder::new(format!("{}_scan_view", circuit.name()));
    for (id, gate) in scan_circuit.iter() {
        let name = scan_circuit.signal_name(id);
        let new_id = if id == scan_enable {
            view.constant_zero(name)
        } else if gate.kind().is_state() {
            view.input(name)
        } else {
            view.gate(name, gate.kind(), gate.fanin())
        };
        debug_assert_eq!(new_id, id);
    }
    let mut functional_output_count = 0usize;
    for &out in circuit.primary_outputs() {
        if !circuit.gate(out).kind().is_state() {
            view.mark_output(map[out.index()]);
            functional_output_count += 1;
        }
        // A flip-flop that drives a functional output is observed through
        // scan-out like any other cell: its Q is a pseudo-primary *input*
        // in the view, so it contributes nothing as an output.
    }
    for chain in &chain_lists {
        for &q in chain {
            // Q's single fanin in the scan circuit is the cell's mux: the
            // pseudo-primary output observed when the response shifts out.
            view.mark_output(scan_circuit.gate(q).fanin()[0]);
        }
    }
    let test_view = view.finish()?;
    debug_assert!(!test_view.has_state());

    Ok(ScanCircuit {
        circuit: scan_circuit,
        test_view,
        chains: chain_lists,
        scan_enable,
        scan_ins,
        scan_outs,
        scan_path_gates,
        functional_output_count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use std::collections::HashMap;

    /// A 4-bit twisted-ring (Johnson) counter with a decoded output:
    /// d0 = NOT(q3), d_i = q_{i-1}, out = AND(q0, q3).
    fn johnson4() -> Circuit {
        let mut b = CircuitBuilder::new("johnson4");
        let q: Vec<GateId> = (0..4).map(|i| b.dff_placeholder(format!("q{i}"))).collect();
        let nq3 = b.gate("nq3", GateKind::Not, &[q[3]]);
        b.bind_dff(q[0], nq3);
        for i in 1..4 {
            b.bind_dff(q[i], q[i - 1]);
        }
        let out = b.gate("out", GateKind::And, &[q[0], q[3]]);
        b.mark_output(out);
        b.mark_output(q[3]);
        b.finish().expect("valid sequential circuit")
    }

    /// Evaluates a combinational circuit by memoised recursion; `inputs`
    /// maps primary-input ids to values.
    fn eval(circuit: &Circuit, inputs: &HashMap<GateId, bool>, id: GateId) -> bool {
        fn go(
            circuit: &Circuit,
            inputs: &HashMap<GateId, bool>,
            memo: &mut HashMap<GateId, bool>,
            id: GateId,
        ) -> bool {
            if let Some(&v) = memo.get(&id) {
                return v;
            }
            let gate: &Gate = circuit.gate(id);
            let v = match gate.kind() {
                GateKind::Input => inputs[&id],
                GateKind::Const0 => false,
                GateKind::Const1 => true,
                kind => {
                    let ins: Vec<bool> = gate
                        .fanin()
                        .iter()
                        .map(|&f| go(circuit, inputs, memo, f))
                        .collect();
                    match kind {
                        GateKind::Buf => ins[0],
                        GateKind::Not => !ins[0],
                        GateKind::And => ins.iter().all(|&v| v),
                        GateKind::Nand => !ins.iter().all(|&v| v),
                        GateKind::Or => ins.iter().any(|&v| v),
                        GateKind::Nor => !ins.iter().any(|&v| v),
                        GateKind::Xor => ins.iter().filter(|&&v| v).count() % 2 == 1,
                        GateKind::Xnor => ins.iter().filter(|&&v| v).count() % 2 == 0,
                        _ => unreachable!("sources handled above"),
                    }
                }
            };
            memo.insert(id, v);
            v
        }
        let mut memo = HashMap::new();
        go(circuit, inputs, &mut memo, id)
    }

    #[test]
    fn insertion_structure_and_overhead() {
        let c = johnson4();
        let scan = insert_scan(&c, 2).expect("scan inserts");
        // Preamble (scan_en + 2 scan_ins + inverter) plus 3 extra gates per
        // cell on top of the original gate count.
        assert_eq!(scan.circuit().gate_count(), c.gate_count() + 4 + 3 * 4);
        assert_eq!(scan.chain_count(), 2);
        assert_eq!(scan.cell_count(), 4);
        assert_eq!(scan.max_chain_length(), 2);
        assert_eq!(scan.chains()[0].len(), 2);
        assert_eq!(scan.chains()[1].len(), 2);
        // 1 inverter + 3 gates per cell.
        assert_eq!(scan.scan_path_gates().len(), 1 + 3 * 4);
        // Original outputs survive and each chain's scan_out is observable
        // (q3 is both a functional output and chain 1's scan_out, so the
        // output list gains only one new entry).
        let sc = scan.circuit();
        assert_eq!(sc.primary_outputs().len(), c.primary_outputs().len() + 1);
        for &out in scan.scan_outs() {
            assert!(sc.is_primary_output(out));
        }
        assert_eq!(sc.find_signal(SCAN_ENABLE_NAME), Some(scan.scan_enable()));
        assert_eq!(sc.find_signal("scan_in0"), Some(scan.scan_ins()[0]));
        // Signal names carry over 1:1.
        assert_eq!(
            sc.signal_name(sc.find_signal("out").expect("exists")),
            "out"
        );
    }

    #[test]
    fn chains_partition_state_elements_in_order() {
        let c = johnson4();
        for chains in 1..=4 {
            let scan = insert_scan(&c, chains).expect("scan inserts");
            let all: Vec<GateId> = scan.chains().iter().flatten().copied().collect();
            assert_eq!(all.len(), 4, "{chains} chains cover every cell");
            // Q names follow state-element declaration order q0..q3.
            let names: Vec<&str> = all.iter().map(|&q| scan.circuit().signal_name(q)).collect();
            assert_eq!(names, ["q0", "q1", "q2", "q3"]);
            // Near-equal balance: lengths differ by at most one.
            let lengths: Vec<usize> = scan.chains().iter().map(|ch| ch.len()).collect();
            let max = lengths.iter().max().expect("non-empty");
            let min = lengths.iter().min().expect("non-empty");
            assert!(max - min <= 1, "balanced chains, got {lengths:?}");
            // scan_out is each chain's last cell.
            for (chain, &out) in scan.chains().iter().zip(scan.scan_outs()) {
                assert_eq!(*chain.last().expect("non-empty"), out);
                assert!(scan.circuit().is_primary_output(out));
            }
        }
    }

    #[test]
    fn test_view_is_combinational_and_id_aligned() {
        let c = johnson4();
        let scan = insert_scan(&c, 2).expect("scan inserts");
        let view = scan.test_view();
        assert!(!view.has_state());
        assert_eq!(view.gate_count(), scan.circuit().gate_count());
        for (id, gate) in scan.circuit().iter() {
            assert_eq!(view.signal_name(id), scan.circuit().signal_name(id));
            if id == scan.scan_enable() {
                assert_eq!(view.gate(id).kind(), GateKind::Const0);
            } else if gate.kind().is_state() {
                assert_eq!(view.gate(id).kind(), GateKind::Input);
            } else {
                assert_eq!(view.gate(id).kind(), gate.kind());
                assert_eq!(view.gate(id).fanin(), gate.fanin());
            }
        }
        // Outputs: functional non-DFF outputs first (q3 is dropped — it is
        // observed through scan), then one mux per cell in shift order.
        assert_eq!(scan.functional_output_count(), 1);
        assert_eq!(view.primary_outputs().len(), 1 + 4);
        let out_names: Vec<&str> = view
            .primary_outputs()
            .iter()
            .map(|&o| view.signal_name(o))
            .collect();
        assert_eq!(out_names, ["out", "q0$mux", "q1$mux", "q2$mux", "q3$mux"]);
    }

    #[test]
    fn test_view_computes_next_state_in_capture_mode() {
        let c = johnson4();
        let scan = insert_scan(&c, 1).expect("scan inserts");
        let view = scan.test_view();
        // Exhaustively check: for every present state, the view's
        // pseudo-primary outputs equal the Johnson counter's next state and
        // the functional output matches a direct evaluation.
        for state in 0u32..16 {
            let mut inputs = HashMap::new();
            for &pi in view.primary_inputs() {
                // scan_in is irrelevant in capture mode; drive it high to
                // prove the Const0 scan_en blocks the shift path.
                inputs.insert(pi, true);
            }
            for (i, &q) in scan.chains()[0].iter().enumerate() {
                inputs.insert(q, state & (1 << i) != 0);
            }
            let q = |i: usize| state & (1 << i) != 0;
            let expected_next = [!q(3), q(0), q(1), q(2)];
            for (i, &mux) in view.primary_outputs()[1..].iter().enumerate() {
                assert_eq!(
                    eval(view, &inputs, mux),
                    expected_next[i],
                    "state {state:04b} cell {i}"
                );
            }
            let out = view.primary_outputs()[0];
            assert_eq!(eval(view, &inputs, out), q(0) && q(3), "state {state:04b}");
        }
    }

    #[test]
    fn shift_mode_moves_the_chain_by_one() {
        let c = johnson4();
        let scan = insert_scan(&c, 1).expect("scan inserts");
        // Evaluate the *scan circuit*'s mux gates with scan_en = 1: each
        // cell's next value must be its shift predecessor, independent of
        // the functional data path.
        let sc = scan.circuit();
        for state in 0u32..16 {
            for scan_in in [false, true] {
                let mut inputs = HashMap::new();
                inputs.insert(scan.scan_enable(), true);
                inputs.insert(scan.scan_ins()[0], scan_in);
                // DFF Qs act as sources in the sequential circuit; the test
                // evaluator needs their values supplied like inputs.
                let mut with_state = HashMap::new();
                for (i, &q) in scan.chains()[0].iter().enumerate() {
                    with_state.insert(q, state & (1 << i) != 0);
                }
                let chain = scan.chains()[0].clone();
                for (i, &q) in chain.iter().enumerate() {
                    let mux = sc.gate(q).fanin()[0];
                    let expected = if i == 0 {
                        scan_in
                    } else {
                        state & (1 << (i - 1)) != 0
                    };
                    // Inline evaluation treating Q gates as fixed sources.
                    let got = eval_with_state(sc, &inputs, &with_state, mux);
                    assert_eq!(got, expected, "state {state:04b} cell {i}");
                }
            }
        }
    }

    /// Like `eval` but treats DFF gates as sources with given values.
    fn eval_with_state(
        circuit: &Circuit,
        inputs: &HashMap<GateId, bool>,
        state: &HashMap<GateId, bool>,
        id: GateId,
    ) -> bool {
        if let Some(&v) = state.get(&id) {
            return v;
        }
        let gate = circuit.gate(id);
        match gate.kind() {
            GateKind::Input => inputs[&id],
            GateKind::Const0 => false,
            GateKind::Const1 => true,
            GateKind::Dff => state[&id],
            kind => {
                let ins: Vec<bool> = gate
                    .fanin()
                    .iter()
                    .map(|&f| eval_with_state(circuit, inputs, state, f))
                    .collect();
                match kind {
                    GateKind::Buf => ins[0],
                    GateKind::Not => !ins[0],
                    GateKind::And => ins.iter().all(|&v| v),
                    GateKind::Nand => !ins.iter().all(|&v| v),
                    GateKind::Or => ins.iter().any(|&v| v),
                    GateKind::Nor => !ins.iter().any(|&v| v),
                    GateKind::Xor => ins.iter().filter(|&&v| v).count() % 2 == 1,
                    GateKind::Xnor => ins.iter().filter(|&&v| v).count() % 2 == 0,
                    _ => unreachable!("sources handled above"),
                }
            }
        }
    }

    #[test]
    fn invalid_requests_are_rejected() {
        let c = johnson4();
        let err = insert_scan(&c, 0).expect_err("zero chains");
        assert!(matches!(err, NetlistError::Scan { .. }));
        assert!(err.to_string().contains("at least one"));
        let err = insert_scan(&c, 5).expect_err("more chains than cells");
        assert!(err.to_string().contains("4 flip-flop"));
        let comb = crate::library::c17();
        let err = insert_scan(&comb, 1).expect_err("no flip-flops");
        assert!(err.to_string().contains("no flip-flops"));
    }

    #[test]
    fn reserved_name_collision_is_reported() {
        let mut b = CircuitBuilder::new("clash");
        let x = b.input(SCAN_ENABLE_NAME);
        let q = b.dff("q", x);
        b.mark_output(q);
        let c = b.finish().expect("valid");
        let err = insert_scan(&c, 1).expect_err("name collision");
        assert!(matches!(err, NetlistError::DuplicateSignal { .. }));
    }
}
