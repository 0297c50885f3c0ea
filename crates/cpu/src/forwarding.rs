//! The forwarding (bypass) network.
//!
//! Per consumer slot and operand there is a 5-input operand mux selecting
//! among the register file and the four pipeline-register forwarding
//! paths; per pipe there is a 3-input writeback-select mux collecting the
//! results of the execution units. These are the muxes whose stuck-at
//! faults the paper's Table II grades (the "Forwarding Logic").

use sbst_fault::{gates, Element, FaultPlane, FaultSite, Polarity, Unit};

use crate::CoreKind;

/// Operand-mux source index: register-file value (no forwarding).
pub const SRC_RF: usize = 0;
/// Source index: EX/MEM pipeline register, pipe 0 (one packet ahead).
pub const SRC_EXMEM_P0: usize = 1;
/// Source index: EX/MEM pipeline register, pipe 1.
pub const SRC_EXMEM_P1: usize = 2;
/// Source index: MEM/WB pipeline register, pipe 0 (two packets ahead).
pub const SRC_MEMWB_P0: usize = 3;
/// Source index: MEM/WB pipeline register, pipe 1.
pub const SRC_MEMWB_P1: usize = 4;
/// Number of operand-mux sources.
pub const OPERAND_SOURCES: usize = 5;

/// Writeback-mux source index: ALU result.
pub const WB_SRC_ALU: usize = 0;
/// Writeback-mux source index: load data.
pub const WB_SRC_MEM: usize = 1;
/// Writeback-mux source index: CSR read value.
pub const WB_SRC_CSR: usize = 2;
/// Number of writeback-mux sources.
pub const WB_SOURCES: usize = 3;

/// Mux instance id of the operand mux for (`slot`, `operand`).
pub fn operand_mux_id(slot: usize, operand: usize) -> u16 {
    debug_assert!(slot < 2 && operand < 2);
    (slot * 2 + operand) as u16
}

/// Mux instance id of the writeback-select mux of `pipe`.
pub fn wb_mux_id(pipe: usize) -> u16 {
    debug_assert!(pipe < 2);
    4 + pipe as u16
}

/// The forwarding network of one core: four operand muxes plus two
/// writeback-select muxes, fault-injectable per pin.
///
/// The network is combinational except for one word of history per mux,
/// kept to model the small-delay-defect extension
/// ([`Element::MuxPathDelay`]).
#[derive(Debug, Clone)]
pub struct ForwardingNetwork {
    kind: CoreKind,
    last_out: [u64; 6],
}

impl ForwardingNetwork {
    /// Creates the network for a core kind (datapath width 32 for A/B,
    /// 64 for C).
    pub fn new(kind: CoreKind) -> ForwardingNetwork {
        ForwardingNetwork { kind, last_out: [0; 6] }
    }

    /// Datapath width in bits.
    pub fn width(&self) -> u8 {
        self.kind.datapath_bits()
    }

    /// The per-mux one-word delay history (indexed by mux instance id).
    /// Campaign lane graders seed their reconstruction of a
    /// [`Element::MuxPathDelay`] fault's history from this, and loop
    /// state comparison includes it (the loop proof only the entry a
    /// path-delay fault reads back).
    pub fn delay_state(&self) -> &[u64; 6] {
        &self.last_out
    }

    fn mux(&mut self, id: u16, inputs: &[u64], sel: Option<usize>, plane: &FaultPlane) -> u64 {
        let fault = plane.query(Unit::Forwarding, id);
        let width = self.width();
        mux_eval(inputs, sel, width, fault, &mut self.last_out[id as usize])
    }

    /// Resolves one consumer operand through its forwarding mux.
    ///
    /// `inputs` are the five candidate values (indexed by the `SRC_*`
    /// constants); `sel` is the select code produced by the HDCU encoder
    /// (`None` = out-of-range faulty code).
    pub fn operand(
        &mut self,
        slot: usize,
        operand: usize,
        inputs: &[u64; OPERAND_SOURCES],
        sel: Option<usize>,
        plane: &FaultPlane,
    ) -> u64 {
        self.mux(operand_mux_id(slot, operand), inputs, sel, plane)
    }

    /// Selects the writeback value of `pipe` among ALU / load / CSR.
    pub fn wb_value(
        &mut self,
        pipe: usize,
        inputs: &[u64; WB_SOURCES],
        sel: usize,
        plane: &FaultPlane,
    ) -> u64 {
        self.mux(wb_mux_id(pipe), inputs, Some(sel), plane)
    }

    /// Enumerates every stuck-at fault site of the forwarding logic for a
    /// core kind.
    ///
    /// Core C's 64-bit datapath roughly doubles the site count (the
    /// paper's core C has ~2x the forwarding faults of A/B); core B's
    /// resynthesized OR plane adds [`Element::MuxOrNode`] sites.
    pub fn fault_sites(kind: CoreKind) -> Vec<FaultSite> {
        let width = kind.datapath_bits();
        let mut sites = Vec::new();
        let mut mux_sites = |instance: u16, srcs: u8, width: u8| {
            let mut push = |element| {
                for polarity in Polarity::BOTH {
                    sites.push(FaultSite { unit: Unit::Forwarding, instance, element, polarity });
                }
            };
            for src in 0..srcs {
                push(Element::MuxSelStem { src });
                for bit in 0..width {
                    push(Element::MuxDataIn { src, bit });
                    push(Element::MuxSelBranch { src, bit });
                    push(Element::MuxAndOut { src, bit });
                    if kind.has_or_chain_sites() {
                        push(Element::MuxOrNode { node: src, bit });
                    }
                }
            }
            for bit in 0..width {
                push(Element::MuxOrOut { bit });
            }
        };
        for slot in 0..2 {
            for operand in 0..2 {
                mux_sites(operand_mux_id(slot, operand), OPERAND_SOURCES as u8, width);
            }
        }
        for pipe in 0..2 {
            mux_sites(wb_mux_id(pipe), WB_SOURCES as u8, width);
        }
        sites
    }

    /// Enumerates the small-delay-defect sites (extension, paper §V).
    pub fn delay_fault_sites(kind: CoreKind) -> Vec<FaultSite> {
        let width = kind.datapath_bits();
        let mut sites = Vec::new();
        for slot in 0..2 {
            for operand in 0..2 {
                for src in 0..OPERAND_SOURCES as u8 {
                    for bit in 0..width {
                        sites.push(FaultSite {
                            unit: Unit::Forwarding,
                            instance: operand_mux_id(slot, operand),
                            element: Element::MuxPathDelay { src, bit },
                            polarity: Polarity::StuckAt0, // unused for delay
                        });
                    }
                }
            }
        }
        sites
    }
}

/// One mux evaluation of the forwarding network's gate decomposition —
/// the single function both the in-pipeline network above and the
/// campaign's bit-parallel (PPSFP) lane graders evaluate, so a lane's
/// reconstruction of a faulty mux output is exact by construction.
///
/// `fault` is the armed fault *if it lives in this mux instance* (the
/// caller resolves instance matching); `last_out` is this instance's
/// one-word delay history, updated to the fault-free/pre-delay output
/// exactly as the in-pipeline network does.
pub fn mux_eval(
    inputs: &[u64],
    sel: Option<usize>,
    width: u8,
    fault: Option<(Element, Polarity)>,
    last_out: &mut u64,
) -> u64 {
    let out = match sel {
        // A faulted select encoder can produce a code no one-hot line
        // decodes to: no AND gate opens and the OR plane yields 0
        // (modulo select-stem faults, handled by evaluating with a
        // guaranteed-dead select).
        None => gates::mux_out(&vec![0u64; inputs.len()], 0, width, fault)
            | leak_from_stems(inputs, width, fault),
        Some(s) => gates::mux_out(inputs, s, width, fault),
    };
    // Small-delay defect: the faulted bit lags one evaluation behind
    // the fault-free value (the history records what the fast path
    // would have produced).
    let delayed = if let Some((Element::MuxPathDelay { src, bit }, _)) = fault {
        if sel == Some(src as usize) && bit < width {
            let mask = 1u64 << bit;
            (out & !mask) | (*last_out & mask)
        } else {
            out
        }
    } else {
        out
    };
    *last_out = out;
    delayed
}

/// Sources leaked by select-stem/branch stuck-at-1 faults when the
/// nominal select code is dead (out of range).
fn leak_from_stems(inputs: &[u64], width: u8, fault: Option<(Element, Polarity)>) -> u64 {
    let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
    match fault {
        Some((Element::MuxSelStem { src }, pol)) if pol.value() => {
            inputs.get(src as usize).copied().unwrap_or(0) & mask
        }
        Some((Element::MuxSelBranch { src, bit }, pol)) if pol.value() && bit < width => {
            inputs.get(src as usize).copied().unwrap_or(0) & (1 << bit)
        }
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FREE: FaultPlane = FaultPlane::fault_free();

    fn site(instance: u16, element: Element, polarity: Polarity) -> FaultPlane {
        FaultPlane::armed(FaultSite { unit: Unit::Forwarding, instance, element, polarity })
    }

    #[test]
    fn operand_selects_each_source() {
        let mut net = ForwardingNetwork::new(CoreKind::A);
        let inputs = [10, 20, 30, 40, 50];
        for (s, &v) in inputs.iter().enumerate() {
            assert_eq!(net.operand(0, 0, &inputs, Some(s), &FREE), v);
        }
    }

    #[test]
    fn dead_select_yields_zero() {
        let mut net = ForwardingNetwork::new(CoreKind::A);
        assert_eq!(net.operand(1, 1, &[1, 2, 3, 4, 5], None, &FREE), 0);
    }

    #[test]
    fn dead_select_still_leaks_stem_sa1() {
        let plane = site(0, Element::MuxSelStem { src: 3 }, Polarity::StuckAt1);
        let mut net = ForwardingNetwork::new(CoreKind::A);
        assert_eq!(net.operand(0, 0, &[1, 2, 3, 4, 5], None, &plane), 4);
    }

    #[test]
    fn fault_is_local_to_one_mux_instance() {
        let plane = site(2, Element::MuxOrOut { bit: 0 }, Polarity::StuckAt1);
        let mut net = ForwardingNetwork::new(CoreKind::A);
        // Instance 2 is slot 1 operand 0.
        assert_eq!(net.operand(1, 0, &[0; 5], Some(0), &plane), 1);
        assert_eq!(net.operand(0, 0, &[0; 5], Some(0), &plane), 0);
        assert_eq!(net.wb_value(0, &[0, 0, 0], WB_SRC_ALU, &plane), 0);
    }

    #[test]
    fn wb_mux_selects() {
        let mut net = ForwardingNetwork::new(CoreKind::A);
        let inputs = [0xa, 0xb, 0xc];
        assert_eq!(net.wb_value(0, &inputs, WB_SRC_ALU, &FREE), 0xa);
        assert_eq!(net.wb_value(0, &inputs, WB_SRC_MEM, &FREE), 0xb);
        assert_eq!(net.wb_value(1, &inputs, WB_SRC_CSR, &FREE), 0xc);
    }

    #[test]
    fn core_c_width_is_64() {
        let mut net = ForwardingNetwork::new(CoreKind::C);
        let big = 0xdead_beef_0000_0001;
        assert_eq!(net.operand(0, 0, &[big, 0, 0, 0, 0], Some(0), &FREE), big);
        let mut net_a = ForwardingNetwork::new(CoreKind::A);
        assert_eq!(
            net_a.operand(0, 0, &[big, 0, 0, 0, 0], Some(0), &FREE),
            1,
            "32-bit datapath truncates"
        );
    }

    #[test]
    fn upper_half_faults_only_exist_on_core_c() {
        let plane = site(0, Element::MuxDataIn { src: 0, bit: 40 }, Polarity::StuckAt1);
        let mut c = ForwardingNetwork::new(CoreKind::C);
        assert_eq!(c.operand(0, 0, &[0; 5], Some(0), &plane), 1 << 40);
        let mut a = ForwardingNetwork::new(CoreKind::A);
        assert_eq!(a.operand(0, 0, &[0; 5], Some(0), &plane), 0, "inert on 32-bit");
    }

    #[test]
    fn delay_fault_lags_one_evaluation() {
        let sites = ForwardingNetwork::delay_fault_sites(CoreKind::A);
        let s = sites
            .iter()
            .find(|s| {
                s.instance == 0
                    && matches!(s.element, Element::MuxPathDelay { src: 0, bit: 0 })
            })
            .copied()
            .unwrap();
        let plane = FaultPlane::armed(s);
        let mut net = ForwardingNetwork::new(CoreKind::A);
        assert_eq!(net.operand(0, 0, &[0, 0, 0, 0, 0], Some(0), &plane), 0);
        // Bit 0 toggles 0 -> 1 but the slow path still shows 0.
        assert_eq!(net.operand(0, 0, &[1, 0, 0, 0, 0], Some(0), &plane), 0);
        // Now the value has propagated.
        assert_eq!(net.operand(0, 0, &[1, 0, 0, 0, 0], Some(0), &plane), 1);
    }

    #[test]
    fn site_counts_scale_with_kind() {
        let a = ForwardingNetwork::fault_sites(CoreKind::A).len();
        let b = ForwardingNetwork::fault_sites(CoreKind::B).len();
        let c = ForwardingNetwork::fault_sites(CoreKind::C).len();
        assert!(b > a, "B's resynthesis adds OR-chain sites: {b} vs {a}");
        assert!(c > 1, "C has sites");
        let ratio = c as f64 / a as f64;
        assert!(
            (1.7..2.3).contains(&ratio),
            "C/A forwarding fault ratio ~2 (paper: 113k/53k), got {ratio}"
        );
    }
}
