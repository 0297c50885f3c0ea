//! Fault-aware evaluators for the combinational primitives of the
//! modeled units.
//!
//! Each evaluator computes the output of a small gate network with an
//! optional stuck-at fault on one of its pins, *analytically* — the
//! network is never instantiated as a netlist, so evaluation is O(width)
//! regardless of how many fault sites the network exposes.

use crate::{Element, Polarity};

/// Evaluates the canonical one-hot AND–OR multiplexer.
///
/// The network, per output bit `b`:
///
/// ```text
/// and[s][b] = data[s][b] AND sel_branch[s][b]     (2-input AND per source)
/// out[b]    = OR over s of and[s][b]              (N-input OR)
/// ```
///
/// where the `sel_branch[s]` lines all fan out from a one-hot decoded
/// `sel_stem[s]`. `inputs[sel]` is the nominally selected source.
///
/// A stuck-at on a select stem can switch *two* sources on at once, in
/// which case the OR plane produces the bitwise OR of both — exactly the
/// behaviour a real AND–OR mux exhibits.
///
/// `width` is the datapath width in bits (≤ 64). Bits above `width` are
/// masked off.
///
/// # Panics
///
/// Panics if `sel >= inputs.len()` or `width > 64`.
pub fn mux_out(
    inputs: &[u64],
    sel: usize,
    width: u8,
    fault: Option<(Element, Polarity)>,
) -> u64 {
    assert!(sel < inputs.len(), "mux select {sel} out of range");
    assert!(width as usize <= 64);
    let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };

    // Fast path: no fault in this mux instance.
    let Some((element, pol)) = fault else {
        return inputs[sel] & mask;
    };

    // One-hot select (bit `s` = source `s`) with possible stem fault.
    let mut onehot = 1u64 << sel;
    if let Element::MuxSelStem { src } = element {
        if (src as usize) < inputs.len() {
            onehot = onehot & !(1 << src) | u64::from(pol.value()) << src;
        }
    }

    let mut out = 0u64;
    for (s, &data) in inputs.iter().enumerate() {
        let on = onehot >> s & 1 == 1;
        let mut data = data & mask;
        // Per-bit data-input fault.
        if let Element::MuxDataIn { src, bit } = element {
            if src as usize == s && bit < width {
                data = pol.force(data, bit);
            }
        }
        // Per-bit select-branch fault: only that bit's AND gate sees the
        // forced select.
        let mut and = if on { data } else { 0 };
        if let Element::MuxSelBranch { src, bit } = element {
            if src as usize == s && bit < width {
                let bit_on = pol.value();
                if bit_on {
                    and |= data & (1 << bit);
                } else {
                    and &= !(1 << bit);
                }
            }
        }
        // AND-output fault.
        if let Element::MuxAndOut { src, bit } = element {
            if src as usize == s && bit < width {
                and = pol.force(and, bit);
            }
        }
        out |= and;
        // OR-chain internal node fault (resynthesized OR plane): force the
        // accumulator bit right after source `s` has been OR-ed in.
        if let Element::MuxOrNode { node, bit } = element {
            if node as usize == s && bit < width {
                out = pol.force(out, bit);
            }
        }
    }

    // OR-output fault.
    if let Element::MuxOrOut { bit } = element {
        if bit < width {
            out = pol.force(out, bit);
        }
    }
    out & mask
}

/// Evaluates the HDCU equality comparator with valid gating.
///
/// The network:
///
/// ```text
/// xnor[b]  = NOT (a[b] XOR b[b])          for b in 0..bits
/// chain[0] = valid
/// chain[i] = chain[i-1] AND xnor[i-1]     (AND chain)
/// out      = chain[bits]
/// ```
///
/// [`Element::CmpChainNode`]`{node}` faults the output of `chain[node]`;
/// node 0 therefore behaves like a fault on the gated valid.
pub fn cmp_eq(
    a: u32,
    b: u32,
    bits: u8,
    valid: bool,
    fault: Option<(Element, Polarity)>,
) -> bool {
    let mut valid = valid;
    if let Some((Element::CmpValidIn, pol)) = fault {
        valid = pol.value();
    }
    let mut chain = valid;
    if let Some((Element::CmpChainNode { node: 0 }, pol)) = fault {
        chain = pol.value();
    }
    for i in 0..bits {
        let mut xnor = (a >> i) & 1 == (b >> i) & 1;
        if let Some((Element::CmpXnorOut { bit }, pol)) = fault {
            if bit == i {
                xnor = pol.value();
            }
        }
        chain = chain && xnor;
        if let Some((Element::CmpChainNode { node }, pol)) = fault {
            if node == i + 1 {
                chain = pol.value();
            }
        }
    }
    if let Some((Element::CmpOut, pol)) = fault {
        chain = pol.value();
    }
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Polarity::{StuckAt0, StuckAt1};

    const INPUTS: [u64; 5] = [0x11, 0x22, 0x44, 0x88, 0xf0];

    #[test]
    fn fault_free_mux_selects() {
        for (s, &v) in INPUTS.iter().enumerate() {
            assert_eq!(mux_out(&INPUTS, s, 8, None), v);
        }
    }

    #[test]
    fn width_masks_high_bits() {
        assert_eq!(mux_out(&[0x1ff], 0, 8, None), 0xff);
        assert_eq!(mux_out(&[u64::MAX], 0, 64, None), u64::MAX);
    }

    #[test]
    fn data_in_fault_only_affects_its_source() {
        let f = Some((Element::MuxDataIn { src: 1, bit: 0 }, StuckAt1));
        assert_eq!(mux_out(&INPUTS, 1, 8, f), 0x23, "selected source perturbed");
        assert_eq!(mux_out(&INPUTS, 0, 8, f), 0x11, "other source untouched");
    }

    #[test]
    fn sel_stem_sa1_wires_or_two_sources() {
        let f = Some((Element::MuxSelStem { src: 2 }, StuckAt1));
        assert_eq!(mux_out(&INPUTS, 0, 8, f), 0x11 | 0x44);
        // Selecting the faulty source itself is unchanged.
        assert_eq!(mux_out(&INPUTS, 2, 8, f), 0x44);
    }

    #[test]
    fn sel_stem_sa0_kills_its_source() {
        let f = Some((Element::MuxSelStem { src: 2 }, StuckAt0));
        assert_eq!(mux_out(&INPUTS, 2, 8, f), 0, "selected source gated off");
        assert_eq!(mux_out(&INPUTS, 1, 8, f), 0x22);
    }

    #[test]
    fn sel_branch_fault_affects_one_bit() {
        let f = Some((Element::MuxSelBranch { src: 2, bit: 2 }, StuckAt1));
        // Source 0 selected; bit 2 of source 2 (0x44 has bit 2 set) leaks.
        assert_eq!(mux_out(&INPUTS, 0, 8, f), 0x11 | 0x04);
        let f0 = Some((Element::MuxSelBranch { src: 2, bit: 6 }, StuckAt0));
        // Source 2 selected; its bit 6 AND gate is off.
        assert_eq!(mux_out(&INPUTS, 2, 8, f0), 0x04);
    }

    #[test]
    fn and_out_and_or_out_faults() {
        let f = Some((Element::MuxAndOut { src: 0, bit: 7 }, StuckAt1));
        assert_eq!(mux_out(&INPUTS, 1, 8, f), 0x22 | 0x80, "dead AND output leaks");
        let f = Some((Element::MuxOrOut { bit: 0 }, StuckAt0));
        assert_eq!(mux_out(&INPUTS, 0, 8, f), 0x10);
    }

    #[test]
    fn or_chain_node_fault() {
        // Node 1 is forced after sources 0 and 1 are accumulated; later
        // sources can still set the bit again for SA0.
        let f = Some((Element::MuxOrNode { node: 1, bit: 0 }, StuckAt0));
        assert_eq!(mux_out(&INPUTS, 0, 8, f), 0x10, "bit 0 of source 0 killed at node 1");
        assert_eq!(mux_out(&INPUTS, 4, 8, f), 0xf0, "source 4 ORs in after the fault");
        let f = Some((Element::MuxOrNode { node: 4, bit: 1 }, StuckAt1));
        assert_eq!(mux_out(&INPUTS, 0, 8, f), 0x13);
    }

    #[test]
    fn fault_outside_width_is_inert() {
        let f = Some((Element::MuxDataIn { src: 0, bit: 40 }, StuckAt1));
        assert_eq!(mux_out(&INPUTS, 0, 32, f), 0x11);
    }

    #[test]
    fn cmp_fault_free() {
        assert!(cmp_eq(0b10110, 0b10110, 5, true, None));
        assert!(!cmp_eq(0b10110, 0b10111, 5, true, None));
        assert!(!cmp_eq(3, 3, 5, false, None), "invalid producer never matches");
    }

    #[test]
    fn cmp_xnor_fault() {
        let f = Some((Element::CmpXnorOut { bit: 0 }, StuckAt1));
        assert!(cmp_eq(0, 1, 5, true, f), "difference masked -> false match");
        let f = Some((Element::CmpXnorOut { bit: 3 }, StuckAt0));
        assert!(!cmp_eq(7, 7, 5, true, f), "match killed");
    }

    #[test]
    fn cmp_chain_and_out_faults() {
        let f = Some((Element::CmpChainNode { node: 0 }, StuckAt1));
        assert!(cmp_eq(9, 9, 5, false, f), "valid gating bypassed");
        let f = Some((Element::CmpOut, StuckAt0));
        assert!(!cmp_eq(9, 9, 5, true, f));
        let f = Some((Element::CmpOut, StuckAt1));
        assert!(cmp_eq(1, 2, 5, true, f));
    }

    #[test]
    fn cmp_valid_in_fault() {
        let f = Some((Element::CmpValidIn, StuckAt0));
        assert!(!cmp_eq(5, 5, 5, true, f));
    }
}
