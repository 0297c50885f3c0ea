//! The forwarding-logic self-test routine (after Bernardi et al. \[19\]).
//!
//! Exhaustively excites every operand-bypass path of the dual-issue
//! pipeline: for each *consumer slot* (0/1), *consumer operand* (A/B),
//! *producer pipe* (0/1) and *producer distance* (1 packet → EX/MEM
//! path, 2 packets → MEM/WB path), a dependent instruction pair is
//! issued with precise packet alignment and the forwarded value is
//! folded into the signature. Additional sequences cover intra-packet
//! (interpipeline) dependencies, load-use stalls, the writeback-select
//! muxes and — on core C — the 64-bit datapath.
//!
//! The `use_pcs` flag adds the performance-counter observation of \[19\]:
//! the HDCU-stall count delta across the body is folded into the
//! signature, making wrongly inserted (or missing) stalls detectable.

use sbst_fault::Unit;
use sbst_isa::{AluOp, Asm, Csr, Reg};

use crate::routine::{RoutineEnv, SelfTestRoutine};
use crate::signature::emit_accumulate;

// Body register convention (see `SelfTestRoutine`).
const V: Reg = Reg::R1; // pattern value
const P: Reg = Reg::R5; // fixed producer (stall/CSR sequences)
const C: Reg = Reg::R6; // fixed consumer (stall/CSR sequences)
const F: Reg = Reg::R7; // filler destination
/// Producer-destination rotation: the 5-bit register indices walk every
/// comparator bit through both polarities (the HDCU's register-index
/// XNOR comparators are only testable if the indices vary — \[19\]).
const P_SET: [Reg; 5] = [Reg::R5, Reg::R6, Reg::R9, Reg::R17, Reg::R18];
/// Consumer-destination rotation (disjoint from `P_SET`).
const C_SET: [Reg; 5] = [Reg::R4, Reg::R14, Reg::R15, Reg::R16, Reg::R19];
const DB: Reg = Reg::R8; // data base pointer
const PC0: Reg = Reg::R24; // hazard-stall counter snapshot
const PC_IF: Reg = Reg::R27; // fetch-stall counter snapshot
const PC_MEM: Reg = Reg::R28; // memory-stall counter snapshot
const V64: Reg = Reg::R2; // 64-bit pattern (r2:r3)
const P64: Reg = Reg::R10; // 64-bit producer pair (r10:r11)
const C64: Reg = Reg::R12; // 64-bit consumer pair (r12:r13)

/// One forwarding path to excite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathCombo {
    /// Packets between producer and consumer (1 = EX/MEM, 2 = MEM/WB).
    pub distance: u8,
    /// Pipe the producer issues in (0/1).
    pub producer_slot: u8,
    /// Slot the consumer issues in (0/1).
    pub consumer_slot: u8,
    /// Consumer operand the dependency rides on (0 = A, 1 = B).
    pub operand: u8,
}

impl PathCombo {
    /// All 16 inter-packet path combinations.
    pub fn all() -> Vec<PathCombo> {
        let mut out = Vec::with_capacity(16);
        for distance in [1u8, 2] {
            for producer_slot in [0u8, 1] {
                for consumer_slot in [0u8, 1] {
                    for operand in [0u8, 1] {
                        out.push(PathCombo { distance, producer_slot, consumer_slot, operand });
                    }
                }
            }
        }
        out
    }
}

/// Default data patterns: together they drive every datapath bit to
/// both polarities, and they are asymmetric enough that the rotating
/// signature cannot self-cancel.
pub fn default_patterns() -> Vec<u32> {
    vec![0xaaaa_aaaa, 0x5555_5555, 0xdead_beef, 0x2152_0114]
}

/// The forwarding-logic routine.
#[derive(Debug, Clone)]
pub struct ForwardingTest {
    combos: Vec<PathCombo>,
    patterns: Vec<u32>,
    use_pcs: bool,
    with64: bool,
}

impl ForwardingTest {
    /// Full-coverage routine for a core kind, *without* performance
    /// counters (the Table II variant).
    pub fn without_pcs(kind: sbst_cpu::CoreKind) -> ForwardingTest {
        ForwardingTest {
            combos: PathCombo::all(),
            patterns: default_patterns(),
            use_pcs: false,
            with64: kind.has_alu64(),
        }
    }

    /// Full routine with performance counters (the original \[19\]
    /// algorithm, used inside the HDCU test).
    pub fn with_pcs(kind: sbst_cpu::CoreKind) -> ForwardingTest {
        ForwardingTest { use_pcs: true, ..ForwardingTest::without_pcs(kind) }
    }

    /// Custom path/pattern subset (splitting, ablations).
    pub fn with_parts(
        combos: Vec<PathCombo>,
        patterns: Vec<u32>,
        use_pcs: bool,
        with64: bool,
    ) -> ForwardingTest {
        ForwardingTest { combos, patterns, use_pcs, with64 }
    }

    /// Emits one inter-packet dependency template.
    ///
    /// Layout (distance 1, producer slot 0, consumer slot 0, operand A):
    ///
    /// ```text
    /// align 8
    /// add  P, V, r0    ; packet k   slot 0   (producer)
    /// nop              ;            slot 1
    /// add  C, P, r0    ; packet k+1 slot 0   (consumer, EX/MEM path)
    /// nop              ;            slot 1
    /// sig ^= C
    /// ```
    fn emit_combo(&self, asm: &mut Asm, combo: PathCombo, rotation: usize) {
        // Rotate the producer/consumer registers so the HDCU's 5-bit
        // index comparators see every bit in both polarities.
        let p = P_SET[rotation % P_SET.len()];
        let c = C_SET[(rotation / P_SET.len() + rotation) % C_SET.len()];
        asm.align(8);
        // Producer packet.
        if combo.producer_slot == 0 {
            asm.add(p, V, Reg::R0);
            asm.nop();
        } else {
            asm.nop();
            asm.add(p, V, Reg::R0);
        }
        // Filler packets for distance 2.
        for _ in 1..combo.distance {
            asm.addi(F, Reg::R0, 1);
            asm.nop();
        }
        // Consumer packet.
        let consumer = |asm: &mut Asm| {
            if combo.operand == 0 {
                asm.add(c, p, Reg::R0);
            } else {
                asm.add(c, Reg::R0, p);
            }
        };
        if combo.consumer_slot == 0 {
            consumer(asm);
            asm.nop();
        } else {
            asm.nop();
            consumer(asm);
        }
        emit_accumulate(asm, c);
    }

    /// 64-bit variant of a combo (core C): `add64` producer/consumer on
    /// register pairs, observed through the 32-bit signature.
    fn emit_combo64(&self, asm: &mut Asm, combo: PathCombo) {
        asm.align(8);
        if combo.producer_slot == 0 {
            asm.alu64(AluOp::Add, P64, V64, V64);
            asm.nop();
        } else {
            asm.nop();
            asm.alu64(AluOp::Add, P64, V64, V64);
        }
        for _ in 1..combo.distance {
            asm.addi(F, Reg::R0, 1);
            asm.nop();
        }
        let consumer = |asm: &mut Asm| {
            if combo.operand == 0 {
                asm.alu64(AluOp::Xor, C64, P64, V64);
            } else {
                asm.alu64(AluOp::Xor, C64, V64, P64);
            }
        };
        if combo.consumer_slot == 0 {
            consumer(asm);
            asm.nop();
        } else {
            asm.nop();
            consumer(asm);
        }
        emit_accumulate(asm, C64);
        // The [19] algorithm observes results through the 32-bit MISR:
        // the high half is only reachable for three of the four consumer
        // muxes (the fourth's upper word feeds the next excitation
        // directly), so part of core C's upper datapath stays masked by
        // the 32-bit signature — the paper's core-C coverage dip.
        if combo.consumer_slot * 2 + combo.operand != 3 {
            emit_accumulate(asm, Reg::R13);
        }
    }

    /// Intra-packet (interpipeline) dependency: split-issue path.
    fn emit_intra_packet(&self, asm: &mut Asm, operand: u8) {
        asm.align(8);
        asm.add(P, V, Reg::R0); // slot 0
        if operand == 0 {
            asm.add(C, P, Reg::R0); // slot 1: RAW on slot 0 -> split
        } else {
            asm.add(C, Reg::R0, P);
        }
        emit_accumulate(asm, C);
    }

    /// Load-use sequence: exercises the stall lines and the MEM leg of
    /// the writeback mux.
    fn emit_load_use(&self, asm: &mut Asm, env: &RoutineEnv, distance: u8, slot_off: i16) {
        // Seed the scratch word (write policy honoured).
        env.emit_store(asm, V, DB, slot_off);
        asm.align(8);
        asm.lw(P, DB, slot_off);
        asm.nop();
        for _ in 1..distance {
            asm.addi(F, Reg::R0, 1);
            asm.nop();
        }
        asm.add(C, P, Reg::R0);
        asm.nop();
        emit_accumulate(asm, C);
    }

    /// CSR leg of the writeback-select mux.
    fn emit_wb_csr(&self, asm: &mut Asm) {
        asm.csrw(Csr::Scratch0, V);
        asm.align(8);
        asm.csrr(C, Csr::Scratch0);
        asm.nop();
        asm.add(F, C, Reg::R0); // forward the CSR-read result too
        asm.nop();
        emit_accumulate(asm, C);
        emit_accumulate(asm, F);
    }
}

impl SelfTestRoutine for ForwardingTest {
    fn name(&self) -> String {
        format!(
            "forwarding[{} paths x {} patterns{}{}]",
            self.combos.len(),
            self.patterns.len(),
            if self.use_pcs { ", PCs" } else { "" },
            if self.with64 { ", 64-bit" } else { "" },
        )
    }

    fn target_unit(&self) -> Option<Unit> {
        Some(Unit::Forwarding)
    }

    fn emit_body(&self, asm: &mut Asm, env: &RoutineEnv, _tag: &str) {
        if self.use_pcs {
            // Snapshot the stall counters ([19] tracks "the number of
            // pipeline stalls": hazard-inserted AND memory-induced ones —
            // the memory-induced ones are what contention perturbs).
            asm.csrr(PC0, Csr::HazStalls);
            asm.csrr(PC_IF, Csr::IfStalls);
            asm.csrr(PC_MEM, Csr::MemStalls);
        }
        asm.li(DB, env.data_base);
        for (pi, &pattern) in self.patterns.iter().enumerate() {
            asm.li(V, pattern);
            for (ci, &combo) in self.combos.iter().enumerate() {
                self.emit_combo(asm, combo, pi * 7 + ci);
            }
            // Interpipeline + stall sequences once per pattern.
            self.emit_intra_packet(asm, (pi % 2) as u8);
            self.emit_load_use(asm, env, 1, (pi as i16 % 4) * 4);
            self.emit_load_use(asm, env, 2, (pi as i16 % 4) * 4);
            self.emit_wb_csr(asm);
            if self.with64 {
                // 64-bit pattern: complementary halves.
                asm.li(V64, pattern);
                asm.li(Reg::R3, !pattern);
                for &combo in &self.combos {
                    self.emit_combo64(asm, combo);
                }
            }
        }
        if self.use_pcs {
            // Fold the stall-count deltas across this iteration.
            asm.csrr(Reg::R25, Csr::HazStalls);
            asm.sub(Reg::R25, Reg::R25, PC0);
            emit_accumulate(asm, Reg::R25);
            asm.csrr(Reg::R25, Csr::IfStalls);
            asm.sub(Reg::R25, Reg::R25, PC_IF);
            emit_accumulate(asm, Reg::R25);
            asm.csrr(Reg::R25, Csr::MemStalls);
            asm.sub(Reg::R25, Reg::R25, PC_MEM);
            emit_accumulate(asm, Reg::R25);
        }
    }

    fn split(&self, parts: usize) -> Option<Vec<Box<dyn SelfTestRoutine>>> {
        if parts < 2 || parts > self.combos.len() {
            return None;
        }
        let chunk = self.combos.len().div_ceil(parts);
        Some(
            self.combos
                .chunks(chunk)
                .map(|c| {
                    Box::new(ForwardingTest::with_parts(
                        c.to_vec(),
                        self.patterns.clone(),
                        self.use_pcs,
                        self.with64,
                    )) as Box<dyn SelfTestRoutine>
                })
                .collect(),
        )
    }
}
