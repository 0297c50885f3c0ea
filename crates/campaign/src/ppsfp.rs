//! Bit-parallel (PPSFP) fault grading: one tapped fault-free tail run
//! grades up to 64 packed faults at once.
//!
//! Classic serial fault simulation re-runs the whole SoC tail once per
//! fault. PPSFP ("parallel-pattern single-fault propagation", here
//! adapted to parallel *faults*) observes that most forwarding-logic
//! faults perturb only *data* flowing through the pipeline — control
//! flow, memory addresses, stall timing and trap causes stay exactly as
//! in the fault-free run. For those faults the faulty run is the golden
//! run plus a small set of value differences, so one instrumented golden
//! ride can grade a whole word of faults:
//!
//! 1. the golden tail is run once from the warm-start snapshot with the
//!    core tap ([`TapEvent`]) and the bus operation tap enabled,
//!    recording every register commit, mux evaluation, executed
//!    instruction and bus transaction up to the core-under-test halt
//!    (the same early exit [`Experiment::run_warm`] uses);
//! 2. each *lane* (one fault of a packed [`FaultWord`]) replays the
//!    event stream, overlaying its own differences (registers, pipeline
//!    latches, memory words) on the recorded fault-free values and
//!    re-evaluating the shared [`mux_eval`] gate decomposition for its
//!    own faulted mux instance — bit-exact with what an armed
//!    [`ForwardingNetwork`](sbst_cpu::ForwardingNetwork) would compute;
//! 3. the moment a lane's differences would change *architecture* —
//!    branch direction, a jump target, a memory address, a trap cause, a
//!    CSR write operand, a store outside private/tracked memory, or any
//!    bus access by another core (or the instruction-fetch port)
//!    touching a differing word — the lane *falls off* the ride and is
//!    re-graded by the serial warm path. Fall-off is conservative:
//!    surviving lanes are cycle-identical to the golden run by
//!    construction, so their verdict is decided purely by overlaying
//!    their memory differences on the golden mailbox words.
//!
//! HDCU and ICU faults perturb stall timing and trap recognition — the
//! very things the ride assumes frozen — so their words are graded
//! serially as whole-word fallbacks.
//!
//! The serial fallback has one per-step hook, the *loop proof*. A
//! faulty run that never halts spins until the watchdog budget runs
//! out; most such runs are a loop whose counter the fault corrupted, so
//! the state never repeats exactly — only core-0 registers run on. Once
//! past the golden cycle count and with every foreign core halted, a
//! Brent-style doubling anchor looks for two states one period `P` apart
//! that are equal under [`Soc::loop_state_diff`] except for a set of
//! core-0 registers. The proof then replays that period once on a
//! tapped clone (refused on any MMIO access), keeping only the events
//! the differing registers can reach, and carries those registers
//! forward, period after period, up to the budget, as one [`Lane`] over
//! the recording: the same fall-off rules that guard the ride refuse
//! the proof the moment a register-derived value would reach an
//! address, a jump target, a CSR write, a trap cause or a branch
//! direction, and a period that leaves memory differing is refused too.
//! Performance-counter reads advance by each period's count. A lane
//! that survives to the budget proves the run reaches it without
//! halting, so the run ends with the watchdog outcome at the budget
//! ([`Verdict::Hang`]) without simulating the rest. Exact repetition is
//! the case where no register differs. The proof is exact, never
//! extrapolated: every remaining period is replayed, over its slice,
//! instead of simulated with [`Soc::step`].
//!
//! Verdict equivalence with the serial warm path — over full collapsed
//! lists, forced fallbacks included — is pinned by
//! `tests/ppsfp_equivalence.rs`.

use std::collections::HashMap;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use sbst_cpu::{
    alu32, alu64, imm_operand, mux_eval, operand_mux_id, wb_mux_id, CoreKind, MemOp,
    MemOpKind, TapEvent, SRC_EXMEM_P0, SRC_EXMEM_P1, SRC_MEMWB_P0, SRC_MEMWB_P1, SRC_RF,
    WB_SRC_ALU, WB_SRC_CSR, WB_SRC_MEM,
};
use sbst_fault::{
    pack_density, pack_fault_words, Element, FaultList, FaultSite, FaultWord, Polarity, Unit,
    Verdict,
};
use sbst_isa::{Csr, Instr};
use sbst_mem::{ArbiterKind, BusOp, Region, ReqKind};
use sbst_obs::PpsfpTelemetry;
use sbst_soc::{RunOutcome, Soc, StopAt};

use crate::experiment::{Experiment, Observation, Snapshot};
use crate::faultsim::{for_each_claimed, grade, CampaignResult, WarmExperimentGrader};

/// Bus master port of the core under test's data side (its
/// instruction-fetch side is port 0; foreign cores are ports 2+).
const CUT_DATA_PORT: usize = 1;

// ---------------------------------------------------------------------
// Rides: tapped stretches of core-0 execution that lanes replay.
// ---------------------------------------------------------------------

/// Events of one SoC cycle of the golden ride.
struct RideStep {
    events: Vec<TapEvent>,
    ops: Vec<BusOp>,
}

/// The facts of core 0's datapath lane replay needs.
#[derive(Debug, Clone, Copy)]
struct Datapath {
    width: u8,
    kind: CoreKind,
}

impl Datapath {
    fn of(soc: &Soc) -> Datapath {
        let core = soc.core(0);
        Datapath { width: core.forwarding_unit().width(), kind: core.config().kind }
    }
}

/// The recorded golden tail: per-cycle tap events and bus operations
/// from the warm-start snapshot to the core-under-test halt, plus the
/// SoC as it stood at that halt.
struct RideTrace {
    steps: Vec<RideStep>,
    datapath: Datapath,
    /// The golden SoC at the core-under-test halt (lanes read their
    /// mailboxes off it, overlaid with their memory differences).
    halted: Soc,
    /// Forwarding-mux delay history at the snapshot (seeds lane
    /// reconstruction of `MuxPathDelay` faults).
    delay_seed: [u64; 6],
}

/// Turns on the core-0 and bus taps of `soc`.
fn tap(soc: &mut Soc) {
    soc.core_mut(0).set_tap(true);
    soc.bus_mut().record_ops(true);
}

/// Drains the core and bus taps: the events of the step just simulated.
fn harvest(soc: &mut Soc) -> RideStep {
    RideStep { events: soc.core_mut(0).take_tap_events(), ops: soc.bus_mut().take_ops() }
}


/// Runs the golden tail once with the core and bus taps enabled.
/// Returns `None` if the golden tail fails to halt cleanly (defensive —
/// the experiment asserts a clean golden run at assembly).
fn record_ride(snapshot: &Snapshot) -> Option<RideTrace> {
    let mut soc = snapshot.soc().clone();
    tap(&mut soc);
    let mut steps = Vec::new();
    let outcome = soc.run_until(snapshot.budget(), StopAt::CoreHalted(0), |soc| {
        steps.push(harvest(soc));
        ControlFlow::Continue(())
    });
    if !outcome.is_clean() {
        return None;
    }
    // The halting step ends the run before the hook sees it.
    steps.push(harvest(&mut soc));
    Some(RideTrace {
        steps,
        datapath: Datapath::of(&soc),
        delay_seed: *snapshot.soc().core(0).forwarding_unit().delay_state(),
        halted: soc,
    })
}

// ---------------------------------------------------------------------
// Lane state
// ---------------------------------------------------------------------

/// Architectural-register differences of one lane (value at the faulty
/// run minus presence bit; absent = equal to golden).
#[derive(Debug, Clone, Copy, Default)]
struct RegDiff {
    mask: u32,
    vals: [u32; 32],
}

impl RegDiff {
    fn get(&self, r: u8) -> Option<u32> {
        (self.mask >> r & 1 == 1).then(|| self.vals[r as usize])
    }

    /// Records the lane value committed to `r` (clears the diff when it
    /// matches golden — a golden-equal commit overwrites any stale
    /// difference).
    fn commit(&mut self, r: u8, lane: u32, golden: u32) {
        if lane == golden {
            self.mask &= !(1 << r);
        } else {
            self.mask |= 1 << r;
            self.vals[r as usize] = lane;
        }
    }
}

/// EX/MEM latch differences of one lane's in-flight entry.
#[derive(Debug, Clone, Copy, Default)]
struct LatchDiff {
    /// Lane ALU/link value, if it differs from golden.
    alu: Option<u64>,
    /// Lane store/swap payload, if it differs from golden.
    wdata: Option<u32>,
    /// What a performance-counter CSR read returns on top of the
    /// recorded value (see [`Lane::drift`]).
    csr: Option<u32>,
}

/// One fault lane riding the golden trace.
struct Lane {
    /// Index into the campaign fault list.
    index: usize,
    /// Faulted forwarding-mux instance.
    instance: u16,
    fault: (Element, Polarity),
    /// Delay history of the faulted mux instance (mirrors
    /// `ForwardingNetwork::delay_state` of a really-armed run).
    last_out: u64,
    regs: RegDiff,
    exmem: [Option<LatchDiff>; 2],
    /// Lane writeback value per pipe, if it differs from golden.
    memwb: [Option<u64>; 2],
    /// Forwarding-view snapshots taken at the start of each step
    /// (EX/MEM alu and MEM/WB value differences, per pipe).
    fwd_ex: [Option<u64>; 2],
    fwd_wb: [Option<u64>; 2],
    /// Lane operand values of the current issue packet, if differing.
    ops: [[Option<u64>; 2]; 2],
    /// Lane memory view: value at every word address where the lane's
    /// memory differs (or ever differed — entries are removed when a
    /// golden-equal store reconverges the word) from golden.
    mem: HashMap<u32, u32>,
    /// Old lane value at the in-flight bus swap's address, recorded at
    /// grant time (`Some(None)` = equal to golden).
    swap_overlay: Option<Option<u32>>,
    /// The in-flight swap's write difference was applied at grant time
    /// (bus swaps); private TCM swaps apply it at the WB mux instead.
    swap_applied: bool,
    /// How far each performance counter (in [`counter`] order) runs
    /// ahead of the recording: zero on the golden ride, whole periods'
    /// worth of counts when the loop proof replays a period again.
    drift: [u32; 5],
}

/// Index of a performance-counter CSR in [`Lane::drift`].
fn counter(csr: Csr) -> Option<usize> {
    [Csr::Cycles, Csr::Retired, Csr::IfStalls, Csr::MemStalls, Csr::HazStalls]
        .iter()
        .position(|&c| c == csr)
}

/// Signals that a lane's differences escaped the data-only regime and
/// the lane must fall back to the serial path.
struct FallOff;

/// Lane `instance` of a fault outside the forwarding unit: it faults no
/// mux the lane re-evaluates.
const NO_MUX: u16 = u16::MAX;

impl Lane {
    fn new(index: usize, site: FaultSite, seed: &[u64; 6]) -> Lane {
        let instance = MuxFault::of(site).instance;
        Lane {
            index,
            instance,
            fault: (site.element, site.polarity),
            last_out: seed.get(instance as usize).copied().unwrap_or(0),
            regs: RegDiff::default(),
            exmem: [None; 2],
            memwb: [None; 2],
            fwd_ex: [None; 2],
            fwd_wb: [None; 2],
            ops: [[None; 2]; 2],
            mem: HashMap::new(),
            swap_overlay: None,
            swap_applied: false,
            drift: [0; 5],
        }
    }

    /// Applies the memory effect of a store/swap: the lane wrote
    /// `wdata` (`None` = golden value) into `addr` where golden wrote
    /// `golden_w`. Tracked for SRAM and the private data TCM; a
    /// differing write anywhere else (MMIO side effects, instruction
    /// TCM self-modification, Flash) falls off.
    fn apply_write(
        &mut self,
        union: &mut HashMap<u32, u64>,
        bit: u64,
        addr: u32,
        golden_w: u32,
        wdata: Option<u32>,
    ) -> Result<(), FallOff> {
        let lane_w = wdata.unwrap_or(golden_w);
        match Region::of(addr) {
            Region::Sram | Region::Dtcm => {
                if lane_w == golden_w {
                    self.mem.remove(&addr);
                } else {
                    self.mem.insert(addr, lane_w);
                    // Sticky: the union entry survives reconvergence, so
                    // foreign accesses during any store-buffer drain
                    // window still fall the lane off conservatively.
                    *union.entry(addr).or_insert(0) |= bit;
                }
                Ok(())
            }
            _ if lane_w != golden_w => Err(FallOff),
            _ => Ok(()),
        }
    }

    /// Lane view of a 64-bit register-file read (mirrors
    /// `Core::read_src` pairing rules over the golden value).
    fn read_src(&self, golden: u64, base: u8, is64: bool) -> u64 {
        let lo = self.regs.get(base).unwrap_or(golden as u32);
        if is64 && base.is_multiple_of(2) && base < 31 {
            let hi = self.regs.get(base + 1).unwrap_or((golden >> 32) as u32);
            lo as u64 | (hi as u64) << 32
        } else {
            lo as u64
        }
    }
}

// ---------------------------------------------------------------------
// Lane event processing
// ---------------------------------------------------------------------

/// Replays one recorded cycle for one lane. `Err(FallOff)` means the
/// lane diverged architecturally and must be re-graded serially.
fn lane_step(
    lane: &mut Lane,
    events: &[TapEvent],
    ops: &[BusOp],
    dp: Datapath,
    union: &mut HashMap<u32, u64>,
    bit: u64,
) -> Result<(), FallOff> {
    // The core snapshots its pipeline registers for the forwarding
    // network before anything else in the cycle; mirror that.
    lane.fwd_ex = [lane.exmem[0].and_then(|l| l.alu), lane.exmem[1].and_then(|l| l.alu)];
    lane.fwd_wb = lane.memwb;

    for ev in events {
        match *ev {
            TapEvent::WbCommit { pipe, dest, value } => {
                let lane_v = lane.memwb[pipe as usize].take();
                if let Some((base, is64)) = dest {
                    let lv = lane_v.unwrap_or(value);
                    if base != 0 {
                        lane.regs.commit(base, lv as u32, value as u32);
                    }
                    if is64 && base < 31 {
                        lane.regs.commit(base + 1, (lv >> 32) as u32, (value >> 32) as u32);
                    }
                }
            }
            TapEvent::WbMux { pipe, inputs, sel, out, mem } => {
                lane_wb_mux(lane, union, bit, dp, pipe as usize, &inputs, sel as usize, out, mem)?;
            }
            TapEvent::ExOperand { slot, operand, rf_src, inputs, sel, out } => {
                let (slot, operand, sel) = (slot as usize, operand as usize, sel.map(usize::from));
                let mut li = inputs;
                if let Some((base, is64)) = rf_src {
                    li[SRC_RF] = lane.read_src(inputs[SRC_RF], base, is64);
                }
                for (i, d) in [
                    (SRC_EXMEM_P0, lane.fwd_ex[0]),
                    (SRC_EXMEM_P1, lane.fwd_ex[1]),
                    (SRC_MEMWB_P0, lane.fwd_wb[0]),
                    (SRC_MEMWB_P1, lane.fwd_wb[1]),
                ] {
                    if let Some(v) = d {
                        li[i] = v;
                    }
                }
                let id = operand_mux_id(slot, operand);
                let lane_out = if id == lane.instance {
                    mux_eval(&li, sel, dp.width, Some(lane.fault), &mut lane.last_out)
                } else if li != inputs {
                    let mut dummy = 0;
                    mux_eval(&li, sel, dp.width, None, &mut dummy)
                } else {
                    out
                };
                lane.ops[slot][operand] = (lane_out != out).then_some(lane_out);
            }
            TapEvent::ExExec { slot, instr, ops, alu: _, mem, raise: _, .. } => {
                let slot = slot as usize;
                let lane_ops = [
                    lane.ops[slot][0].take().unwrap_or(ops[0]),
                    lane.ops[slot][1].take().unwrap_or(ops[1]),
                ];
                lane.exmem[slot] = if let Some(Instr::CsrRead { csr, .. }) = instr {
                    counter(csr)
                        .map(|i| lane.drift[i])
                        .filter(|&d| d != 0)
                        .map(|d| LatchDiff { csr: Some(d), ..LatchDiff::default() })
                } else if lane_ops == ops {
                    None
                } else {
                    let latch = lane_exec(dp.kind, instr, ops, lane_ops, mem)?;
                    (latch.alu.is_some() || latch.wdata.is_some()).then_some(latch)
                };
            }
        }
    }

    for op in ops {
        match op.port {
            CUT_DATA_PORT => {
                if let ReqKind::Swap(golden_w) = op.kind {
                    // The swap's data phase commits at grant: record the
                    // pre-swap lane value for the WB-stage read and apply
                    // the write difference now, before any foreign access
                    // can observe the new word. Memory ops only ever
                    // occupy pipe 0, so the in-flight latch is exmem[0].
                    lane.swap_overlay = Some(lane.mem.get(&op.addr).copied());
                    let wd = lane.exmem[0].and_then(|l| l.wdata);
                    lane.apply_write(union, bit, op.addr, golden_w, wd)?;
                    lane.swap_applied = true;
                }
                // Reads are the lane's own loads/fills (overlaid at the
                // WB mux); posted writes were applied at their WB mux.
            }
            _ => {
                // Foreign master — or the core under test's own
                // instruction fetches: any touched word the lane ever
                // diverged on invalidates the shared-trajectory
                // assumption (stale caches, divergent fetched code).
                if !union.is_empty()
                    && op.words().any(|a| union.get(&a).is_some_and(|m| m & bit != 0))
                {
                    return Err(FallOff);
                }
            }
        }
    }
    Ok(())
}

/// The WB-select mux of `pipe` for one lane: overlay latch and memory
/// differences on the recorded inputs, re-evaluate if needed, apply
/// store effects, and latch the lane's writeback value.
#[allow(clippy::too_many_arguments)]
fn lane_wb_mux(
    lane: &mut Lane,
    union: &mut HashMap<u32, u64>,
    bit: u64,
    dp: Datapath,
    pipe: usize,
    inputs: &[u64; 3],
    sel: usize,
    out: u64,
    mem: Option<MemOp>,
) -> Result<(), FallOff> {
    let latch = lane.exmem[pipe].take().unwrap_or_default();
    let mut li = [
        latch.alu.unwrap_or(inputs[WB_SRC_ALU]),
        inputs[WB_SRC_MEM],
        latch.csr.map_or(inputs[WB_SRC_CSR], |d| (inputs[WB_SRC_CSR] as u32).wrapping_add(d) as u64),
    ];
    if let Some(op) = mem {
        match op.kind {
            MemOpKind::Load => {
                if let Some(&v) = lane.mem.get(&op.addr) {
                    li[WB_SRC_MEM] = v as u64;
                }
            }
            MemOpKind::Swap => {
                match lane.swap_overlay.take() {
                    // Bus swap: read and write were resolved at grant.
                    Some(overlay) => {
                        if let Some(v) = overlay {
                            li[WB_SRC_MEM] = v as u64;
                        }
                    }
                    // Private TCM swap: same-cycle read-then-write, no
                    // bus visibility — resolve both here.
                    None => {
                        if let Some(&v) = lane.mem.get(&op.addr) {
                            li[WB_SRC_MEM] = v as u64;
                        }
                    }
                }
                if !lane.swap_applied {
                    lane.apply_write(union, bit, op.addr, op.wdata, latch.wdata)?;
                }
                lane.swap_applied = false;
            }
            MemOpKind::Store => {
                lane.apply_write(union, bit, op.addr, op.wdata, latch.wdata)?;
            }
        }
    }
    let id = wb_mux_id(pipe);
    let lane_out = if id == lane.instance {
        mux_eval(&li, Some(sel), dp.width, Some(lane.fault), &mut lane.last_out)
    } else if li[..] != inputs[..] {
        let mut dummy = 0;
        mux_eval(&li, Some(sel), dp.width, None, &mut dummy)
    } else {
        out
    };
    lane.memwb[pipe] = (lane_out != out).then_some(lane_out);
    Ok(())
}

/// Re-executes one instruction's data semantics with the lane's operand
/// values, checking every architectural decision against the golden
/// outcome. Returns the lane's EX/MEM latch differences.
fn lane_exec(
    kind: CoreKind,
    instr: Option<Instr>,
    g_ops: [u64; 2],
    l_ops: [u64; 2],
    event_mem: Option<MemOp>,
) -> Result<LatchDiff, FallOff> {
    let mut latch = LatchDiff::default();
    let (ga, gb) = (g_ops[0] as u32, g_ops[1] as u32);
    let (la, lb) = (l_ops[0] as u32, l_ops[1] as u32);
    let Some(instr) = instr else { return Ok(latch) }; // Illegal in both runs
    match instr {
        Instr::Nop | Instr::Halt | Instr::Lui { .. } | Instr::Jal { .. }
        | Instr::Cache(_) | Instr::Mret | Instr::CsrRead { .. } => {}
        Instr::Alu { op, .. } => {
            let (gv, gc) = alu32(op, ga, gb);
            let (lv, lc) = alu32(op, la, lb);
            if lc != gc {
                return Err(FallOff);
            }
            latch.alu = (lv != gv).then_some(lv as u64);
        }
        Instr::AluImm { op, imm, .. } => {
            let b = imm_operand(op, imm);
            let (gv, gc) = alu32(op, ga, b);
            let (lv, lc) = alu32(op, la, b);
            if lc != gc {
                return Err(FallOff);
            }
            latch.alu = (lv != gv).then_some(lv as u64);
        }
        Instr::Alu64 { op, rd, rs1, rs2 } => {
            let legal = kind.has_alu64()
                && rd.is_even()
                && rs1.is_even()
                && rs2.is_even()
                && rd.index() < 31;
            if legal {
                let (gv, gc) = alu64(op, g_ops[0], g_ops[1]);
                let (lv, lc) = alu64(op, l_ops[0], l_ops[1]);
                if lc != gc {
                    return Err(FallOff);
                }
                latch.alu = (lv != gv).then_some(lv);
            } // else: Illegal in both runs
        }
        Instr::Load { off, .. } => {
            if la.wrapping_add(off as i32 as u32) != ga.wrapping_add(off as i32 as u32) {
                return Err(FallOff); // address divergence
            }
        }
        Instr::Store { off, .. } => {
            if la.wrapping_add(off as i32 as u32) != ga.wrapping_add(off as i32 as u32) {
                return Err(FallOff);
            }
            if event_mem.is_some() {
                latch.wdata = (lb != gb).then_some(lb);
            } // unaligned in both runs otherwise
        }
        Instr::Amoswap { .. } => {
            if la != ga {
                return Err(FallOff);
            }
            if event_mem.is_some() {
                latch.wdata = (lb != gb).then_some(lb);
            }
        }
        Instr::Branch { cond, .. } => {
            if cond.eval(la, lb) != cond.eval(ga, gb) {
                return Err(FallOff); // taken-direction divergence
            }
        }
        Instr::Jalr { off, .. } => {
            if la.wrapping_add(off as i32 as u32) & !3 != ga.wrapping_add(off as i32 as u32) & !3 {
                return Err(FallOff); // target divergence
            }
        }
        Instr::CsrWrite { .. } => {
            if la != ga {
                return Err(FallOff); // diffed operand into CSR/ICU state
            }
        }
    }
    Ok(latch)
}

// ---------------------------------------------------------------------
// Word grading
// ---------------------------------------------------------------------

/// Grades one forwarding fault word against the recorded trace:
/// verdicts for surviving lanes, fall-off indices for the rest.
fn grade_forwarding_word(
    word: &FaultWord,
    trace: &RideTrace,
    experiment: &Experiment,
    golden: &Observation,
) -> Vec<(usize, Verdict)> {
    let mut lanes: Vec<Lane> = word
        .lanes()
        .iter()
        .map(|&(index, site)| Lane::new(index, site, &trace.delay_seed))
        .collect();
    let mut alive: u64 = if lanes.len() == 64 { u64::MAX } else { (1u64 << lanes.len()) - 1 };
    let mut union: HashMap<u32, u64> = HashMap::new();
    for step in &trace.steps {
        if alive == 0 {
            break;
        }
        for (l, lane) in lanes.iter_mut().enumerate() {
            let bit = 1u64 << l;
            if alive & bit == 0 {
                continue;
            }
            if lane_step(lane, &step.events, &step.ops, trace.datapath, &mut union, bit).is_err() {
                alive &= !bit;
            }
        }
    }
    let mut verdicts = Vec::new();
    for (l, lane) in lanes.iter().enumerate() {
        if alive & (1 << l) == 0 {
            continue; // fell off: graded serially
        }
        // The lane reached the core-under-test halt cycle-identically
        // to the golden run; its observation is the golden mailbox
        // state overlaid with its memory differences.
        let (signature, status) = experiment.read_result(|addr| {
            lane.mem.get(&addr).copied().unwrap_or_else(|| trace.halted.peek(addr))
        });
        let cycles = trace.halted.cycle();
        let obs = Observation {
            outcome: RunOutcome::AllHalted { cycles },
            signature,
            status,
            cycles,
            if_stalls: 0,
            mem_stalls: 0,
        };
        verdicts.push((lane.index, Experiment::classify(golden, &obs)));
    }
    verdicts
}

// ---------------------------------------------------------------------
// Serial fallback: the loop proof
// ---------------------------------------------------------------------

/// Initial Brent window (cycles an anchor is held before re-anchoring).
const LOOP_WINDOW: u64 = 64;

/// Longest loop period the proof records, in cycles: it bounds the
/// tapped replay one fallback run holds (the HDCU hangs of the
/// cache-wrapped routines repeat every 1.1–1.3 k cycles).
const MAX_PERIOD: u64 = 2048;

/// Hang proofs decided and refused over one campaign's fallback runs.
#[derive(Default)]
struct LoopTally {
    decided: AtomicU64,
    refused: AtomicU64,
}

/// The loop proof, run as the per-step hook of a fallback tail (see
/// [`Soc::run_until`]). Once past the golden cycle count, with every
/// foreign core halted, a Brent-style doubling anchor looks for a state
/// equal to the anchor modulo core-0 registers; [`prove`] then decides
/// the candidate. A proved loop ends the run with the watchdog outcome
/// at the budget — exactly what simulating on would return, bar an
/// earlier bite of the memory-mapped watchdog (its countdown is outside
/// the compared state), which is graded [`Verdict::Hang`] all the same.
struct LoopProof<'a> {
    /// Off under TDMA, whose slotting depends on the absolute cycle
    /// (excluded from the state comparison), and under a chaos plane,
    /// whose nondeterministic state lies outside it. Both disable the
    /// proof, never correctness.
    detect: bool,
    golden_cycles: u64,
    deadline: u64,
    site: FaultSite,
    anchor: Option<Soc>,
    window: u64,
    /// No candidate is taken before this cycle: a refused proof showed
    /// the run follows the candidate's pattern up to there, and a
    /// refusal for any reason doubles the wait.
    resume: u64,
    backoff: u64,
    tally: &'a LoopTally,
}

impl<'a> LoopProof<'a> {
    /// The proof for a tail from `soc` with `site` armed, looking for
    /// loops past `golden_cycles`; the tail's budget ends at the
    /// absolute cycle `deadline`.
    fn new(
        soc: &Soc,
        golden_cycles: u64,
        deadline: u64,
        site: FaultSite,
        tally: &'a LoopTally,
    ) -> LoopProof<'a> {
        LoopProof {
            detect: !matches!(soc.bus().arbiter_kind(), ArbiterKind::Tdma { .. })
                && !soc.has_chaos(),
            golden_cycles,
            deadline,
            site,
            anchor: None,
            window: LOOP_WINDOW,
            resume: 0,
            backoff: LOOP_WINDOW,
            tally,
        }
    }

    fn check(&mut self, soc: &Soc) -> ControlFlow<RunOutcome> {
        let cycle = soc.cycle();
        if !self.detect
            || cycle <= self.golden_cycles.max(self.resume)
            || !(1..soc.core_count()).all(|i| soc.core(i).halted())
        {
            return ControlFlow::Continue(());
        }
        let Some(anchor) = &self.anchor else {
            self.anchor = Some(soc.clone());
            return ControlFlow::Continue(());
        };
        if let Some(differing) = soc.loop_state_diff(anchor) {
            match prove(anchor, soc, differing, self.site, self.deadline) {
                Ok(()) => {
                    self.tally.decided.fetch_add(1, Ordering::Relaxed);
                    return ControlFlow::Break(RunOutcome::Watchdog { cycles: self.deadline });
                }
                Err(at) => {
                    self.tally.refused.fetch_add(1, Ordering::Relaxed);
                    self.anchor = None;
                    self.resume = at.max(cycle + self.backoff);
                    self.backoff *= 2;
                }
            }
        } else if cycle - anchor.cycle() >= self.window {
            self.anchor = Some(soc.clone());
            self.window = (self.window * 2).min(MAX_PERIOD);
        }
        ControlFlow::Continue(())
    }
}

/// Where a lane may hold differences, one bit per place: registers
/// 0–31, then the operand latches, the EX/MEM and MEM/WB entries, and
/// the faulted mux's delay history (an over-approximation — a lane's
/// actual differences always lie inside it).
#[derive(Debug, Clone, Copy)]
struct Taint(u64);

/// [`Taint`] bit of operand latch `(slot, operand)` (plus `2·slot +
/// operand`), of EX/MEM and MEM/WB entry `pipe` (plus `pipe`), and of the
/// faulted mux's delay history.
const T_OPS: u8 = 32;
const T_EXMEM: u8 = 36;
const T_MEMWB: u8 = 38;
const T_LAST_OUT: u8 = 40;

impl Taint {
    fn get(self, bit: u8) -> bool {
        self.0 >> bit & 1 == 1
    }

    fn set(&mut self, bit: u8, on: bool) {
        self.0 = self.0 & !(1 << bit) | u64::from(on) << bit;
    }

    /// Whether a register-file read of `base` (paired when `is64`, as
    /// [`Lane::read_src`] pairs) may differ.
    fn reg(self, base: u8, is64: bool) -> bool {
        self.get(base) || is64 && base.is_multiple_of(2) && base < 31 && self.get(base + 1)
    }

    /// Advances the taint over one recorded step's events, mirroring
    /// [`lane_step`] for a lane armed with `fault` whose memory may differ
    /// only at the word addresses in `words` (which tainted stores
    /// extend): appends to `kept` the events such a lane must replay —
    /// every other event leaves it unchanged.
    fn slice(
        &mut self,
        events: &[TapEvent],
        fault: &MuxFault,
        words: &mut Vec<u32>,
        kept: &mut Vec<TapEvent>,
    ) {
        let fwd = [
            self.get(T_EXMEM),
            self.get(T_EXMEM + 1),
            self.get(T_MEMWB),
            self.get(T_MEMWB + 1),
        ];
        for &ev in events {
            let keep = match ev {
                TapEvent::WbCommit { pipe, dest, .. } => {
                    let t = self.get(T_MEMWB + pipe);
                    self.set(T_MEMWB + pipe, false);
                    let mut keep = t;
                    if let Some((base, is64)) = dest {
                        let lo = (base != 0).then_some(base);
                        for r in lo.into_iter().chain((is64 && base < 31).then_some(base + 1)) {
                            keep |= self.get(r);
                            self.set(r, t);
                        }
                    }
                    keep
                }
                TapEvent::WbMux { pipe, sel, mem, .. } => {
                    let t = self.get(T_EXMEM + pipe);
                    // A load, store or swap at a word that may differ reads
                    // it, or writes it back towards the recorded value.
                    let word = mem.is_some_and(|op| words.contains(&op.addr));
                    let mut inputs = [t; 3];
                    inputs[WB_SRC_MEM] = word;
                    let (out, keep) =
                        self.mux(wb_mux_id(pipe as usize), &inputs, Some(sel as usize), fault);
                    let keep = keep || word || self.get(T_MEMWB + pipe);
                    self.set(T_EXMEM + pipe, false);
                    self.set(T_MEMWB + pipe, out);
                    keep
                }
                TapEvent::ExOperand { slot, operand, rf_src, sel, .. } => {
                    let o = T_OPS + 2 * slot + operand;
                    let mut inputs = [false; 5];
                    inputs[SRC_RF] = rf_src.is_some_and(|(base, is64)| self.reg(base, is64));
                    inputs[SRC_EXMEM_P0] = fwd[0];
                    inputs[SRC_EXMEM_P1] = fwd[1];
                    inputs[SRC_MEMWB_P0] = fwd[2];
                    inputs[SRC_MEMWB_P1] = fwd[3];
                    let id = operand_mux_id(slot as usize, operand as usize);
                    let (out, keep) = self.mux(id, &inputs, sel.map(usize::from), fault);
                    let keep = keep || self.get(o);
                    self.set(o, out);
                    keep
                }
                TapEvent::ExExec { slot, instr, mem, .. } => {
                    let counter_read = matches!(instr,
                        Some(Instr::CsrRead { csr, .. }) if counter(csr).is_some());
                    let t = self.get(T_OPS + 2 * slot)
                        || self.get(T_OPS + 2 * slot + 1)
                        || counter_read;
                    // A store whose operands may differ writes the recorded
                    // address (or the lane falls off) with data that may.
                    if let (true, Some(op)) = (t, mem) {
                        if op.kind != MemOpKind::Load && !words.contains(&op.addr) {
                            words.push(op.addr);
                        }
                    }
                    let keep = t || self.get(T_EXMEM + slot);
                    self.set(T_OPS + 2 * slot, false);
                    self.set(T_OPS + 2 * slot + 1, false);
                    self.set(T_EXMEM + slot, t);
                    keep
                }
            };
            if keep {
                kept.push(ev);
            }
        }
    }

    /// One evaluation of mux `id` whose `inputs` may differ as given:
    /// whether its output may differ, and whether a lane must replay it
    /// (also to track the delay history a path-delay fault reads).
    fn mux(&mut self, id: u16, inputs: &[bool], sel: Option<usize>, fault: &MuxFault) -> (bool, bool) {
        let taint = |s: Option<usize>| s.is_some_and(|s| inputs[s]);
        if id != fault.instance {
            return (taint(sel), taint(sel));
        }
        let out = taint(sel) || taint(fault.leak) || fault.delay && self.get(T_LAST_OUT);
        if fault.delay {
            self.set(T_LAST_OUT, taint(sel));
        }
        (out, out || fault.delay)
    }
}

/// The lane's faulted mux, as far as slicing needs it.
struct MuxFault {
    /// Its mux instance ([`NO_MUX`] for a fault elsewhere).
    instance: u16,
    /// The source a select stem or select branch fault lets through
    /// besides the selected one.
    leak: Option<usize>,
    /// Whether the fault reads the mux's delay history back.
    delay: bool,
}

impl MuxFault {
    fn of(site: FaultSite) -> MuxFault {
        if site.unit != Unit::Forwarding {
            return MuxFault { instance: NO_MUX, leak: None, delay: false };
        }
        let leak = match site.element {
            Element::MuxSelStem { src } | Element::MuxSelBranch { src, .. } => Some(src as usize),
            _ => None,
        };
        let delay = matches!(site.element, Element::MuxPathDelay { .. });
        MuxFault { instance: site.instance, leak, delay }
    }
}

/// One recorded loop period, sliced to the events a lane needs, and
/// what it changes from one period to the next outside the registers.
/// Kept steps are stored flat, so a recording is a few allocations.
struct Period {
    datapath: Datapath,
    /// Events of the kept steps, in order.
    events: Vec<TapEvent>,
    /// Bus operations of the kept steps that touch a word whose memory
    /// may differ (no other can make a lane fall off).
    ops: Vec<BusOp>,
    /// Per kept step: its step of the period (0 = the first) and where
    /// its events and operations end.
    steps: Vec<(u64, usize, usize)>,
    /// Core-0 registers at the period's end.
    end: [u32; 32],
    /// How much each performance counter advances per period.
    counts: [u32; 5],
    /// Whether the period reads a performance counter (then no two
    /// periods repeat exactly).
    reads_counter: bool,
    /// Where a lane starting inside the given taint may differ at the
    /// period's end, memory aside.
    taint: Taint,
}

/// Records the period from `anchor` on a tapped clone, slicing each
/// step as it comes (see [`Taint::slice`]) for a lane armed with `site`
/// that starts inside `taint` with no memory difference. `None` when
/// the period touches MMIO, whose registers (the watchdog countdown
/// among them) lie outside the compared state.
fn record_period(anchor: &Soc, period: u64, mut taint: Taint, site: FaultSite) -> Option<Period> {
    let fault = MuxFault::of(site);
    let mut probe = anchor.clone();
    tap(&mut probe);
    // A dual-issue step emits at most ten events (two commits, two
    // writeback muxes, four operand muxes, two executes); a slice keeps
    // far fewer. The reservation stays under the C allocator's default
    // large-block threshold (128 KiB): freeing a larger block raises that
    // threshold process-wide and leaves more freed memory resident.
    let mut events = Vec::with_capacity((period as usize * 10).min(2048));
    let (mut ops, mut steps, mut words) = (Vec::new(), Vec::with_capacity(period as usize), Vec::new());
    let mut reads_counter = false;
    for phase in 0..period {
        probe.step();
        let step = harvest(&mut probe);
        if step.ops.iter().any(|op| op.words().any(|a| Region::of(a) == Region::Mmio)) {
            return None;
        }
        reads_counter |= step.events.iter().any(|ev| {
            matches!(ev, TapEvent::ExExec { instr: Some(Instr::CsrRead { csr, .. }), .. }
                if counter(*csr).is_some())
        });
        let before = (events.len(), ops.len());
        taint.slice(&step.events, &fault, &mut words, &mut events);
        ops.extend(step.ops.into_iter().filter(|op| op.words().any(|a| words.contains(&a))));
        if (events.len(), ops.len()) != before {
            steps.push((phase, events.len(), ops.len()));
        }
    }
    let count = |soc: &Soc| {
        let c = soc.core(0).counters();
        [c.cycles, c.retired, c.if_stalls, c.mem_stalls, c.haz_stalls]
    };
    let (from, to) = (count(anchor), count(&probe));
    Some(Period {
        datapath: Datapath::of(&probe),
        events,
        ops,
        steps,
        end: *probe.core(0).regs(),
        counts: std::array::from_fn(|i| to[i].wrapping_sub(from[i]) as u32),
        reads_counter,
        taint,
    })
}

/// Decides a loop candidate: `soc` is loop-state equal to `anchor`, one
/// period earlier, except for the core-0 registers in the mask
/// `differing`. `Ok` proves that the
/// run from `soc` reaches `deadline` without halting, trapping fatally
/// or leaving the loop; `Err(cycle)` refuses, naming the first cycle the
/// proof cannot vouch for.
///
/// One lane, armed with `site`, replays the recorded period over and
/// over from `soc`'s register differences, up to the deadline. Between
/// periods the lane's registers are rebased from the period's end state
/// onto its start state; nothing else needs rebasing, because the two
/// are equal everywhere else. The performance counters are the one
/// free-running state a period can read: the trajectory repeats, so
/// they advance by the same count every period, and the lane adds that
/// many periods' worth to each counter read. The lane falls off — and
/// the proof is refused — where a register-derived value reaches an
/// address, a jump target, a CSR write, a trap cause or a branch
/// direction; a period that leaves store data differing is refused as
/// well. A lane whose differences all vanish at a period boundary, in a
/// period that reads no counter, has reached exact repetition, which
/// runs to the deadline by determinism.
///
/// The recording keeps only the events that can carry a difference (see
/// [`Taint::slice`]), which holds while the lane's differences at each
/// period start lie inside the taint the slice started from, with no
/// memory difference — checked at every boundary. The taint starts at
/// the differing registers and is widened, with the period re-recorded,
/// until the taint a period ends in lies within it.
fn prove(
    anchor: &Soc,
    soc: &Soc,
    differing: u32,
    site: FaultSite,
    deadline: u64,
) -> Result<(), u64> {
    let period = soc.cycle() - anchor.cycle();
    let (start, now) = (anchor.core(0).regs(), soc.core(0).regs());
    let mut taint = Taint(differing.into());
    let recorded = loop {
        let recorded = record_period(anchor, period, taint, site).ok_or(soc.cycle())?;
        let next = recorded.taint.0 | u64::from(differing);
        if next & !taint.0 == 0 {
            break recorded;
        }
        taint = Taint(taint.0 | next);
    };
    let delay = anchor.core(0).forwarding_unit().delay_state();
    let mut lane = Lane::new(0, site, delay);
    for (r, &v) in now.iter().enumerate() {
        lane.regs.commit(r as u8, v, start[r]);
    }
    let mut union = HashMap::new();
    for periods in 0.. {
        let base = soc.cycle() + periods * period;
        if base >= deadline {
            break;
        }
        if periods > 0 {
            for r in 0..32u8 {
                let v = lane.regs.get(r).unwrap_or(recorded.end[r as usize]);
                lane.regs.commit(r, v, start[r as usize]);
            }
            if !union.is_empty() || !lane.within(taint, delay) {
                return Err(base);
            }
        }
        if !recorded.reads_counter && lane.repeats(delay) {
            break;
        }
        lane.drift = recorded.counts.map(|c| c.wrapping_mul(periods as u32 + 1));
        let (mut from_ev, mut from_op) = (0, 0);
        for &(phase, to_ev, to_op) in &recorded.steps {
            let at = base + phase + 1;
            if at > deadline {
                break;
            }
            let (events, ops) = (&recorded.events[from_ev..to_ev], &recorded.ops[from_op..to_op]);
            if lane_step(&mut lane, events, ops, recorded.datapath, &mut union, 1).is_err() {
                return Err(at);
            }
            (from_ev, from_op) = (to_ev, to_op);
        }
    }
    Ok(())
}

impl Lane {
    /// Whether every difference the lane holds at a period boundary
    /// whose mux delay history is `delay` lies inside `taint`.
    fn within(&self, taint: Taint, delay: &[u64; 6]) -> bool {
        let mut held = Taint(u64::from(self.regs.mask));
        for (i, latch) in self.exmem.iter().enumerate() {
            held.set(T_EXMEM + i as u8, latch.is_some());
        }
        for (i, value) in self.memwb.iter().enumerate() {
            held.set(T_MEMWB + i as u8, value.is_some());
        }
        held.set(T_LAST_OUT, !self.delay_repeats(delay));
        held.0 & !taint.0 == 0
    }

    /// Whether the lane has no difference left at a period boundary
    /// whose mux delay history is `delay` (memory differences are
    /// refused before this is asked; only a path-delay fault reads its
    /// mux's history back).
    fn repeats(&self, delay: &[u64; 6]) -> bool {
        self.regs.mask == 0
            && self.exmem.iter().all(Option::is_none)
            && self.memwb.iter().all(Option::is_none)
            && self.delay_repeats(delay)
    }

    /// Whether the delay history the lane's fault reads back (only a
    /// path-delay fault reads one) equals `delay`'s.
    fn delay_repeats(&self, delay: &[u64; 6]) -> bool {
        !matches!(self.fault.0, Element::MuxPathDelay { .. })
            || delay.get(self.instance as usize) == Some(&self.last_out)
    }
}

// ---------------------------------------------------------------------
// Campaign entry point
// ---------------------------------------------------------------------

/// The bit-parallel campaign: packs the list into [`FaultWord`]s, rides
/// forwarding words on one tapped golden tail, and grades everything
/// else (fallen-off lanes, HDCU/ICU words) through the serial warm path
/// with the loop proof. Verdicts are returned in fault-list
/// order and are bit-identical to [`run_campaign_warm_detailed`]
/// (pinned by the equivalence wall); each fault is graded exactly once.
/// The telemetry reports how the list split between the ride and the
/// fallback, how many fallback hangs the loop proof decided and
/// refused, and the campaign's wall-clock time.
///
/// [`run_campaign_warm_detailed`]: crate::run_campaign_warm_detailed
pub fn run_campaign_ppsfp_telemetry(
    experiment: &Experiment,
    golden: &Observation,
    faults: &FaultList,
    threads: usize,
) -> (CampaignResult, Vec<(FaultSite, Verdict)>, PpsfpTelemetry) {
    let start = std::time::Instant::now();
    let sites = faults.sites();
    let words = pack_fault_words(sites);
    let mut tel = PpsfpTelemetry {
        words: words.len() as u64,
        pack_density: pack_density(&words),
        ..PpsfpTelemetry::default()
    };
    if sites.is_empty() {
        return (CampaignResult::default(), Vec::new(), tel);
    }
    let snapshot = experiment.snapshot(golden);
    let slots = Mutex::new(vec![None::<Verdict>; sites.len()]);

    let ridden: Vec<&FaultWord> =
        words.iter().filter(|w| w.unit() == Unit::Forwarding).collect();
    if !ridden.is_empty() {
        if let Some(trace) = record_ride(&snapshot) {
            tel.ridden_words = ridden.len() as u64;
            tel.packed_faults = ridden.iter().map(|w| w.len() as u64).sum();
            let escaped = for_each_claimed(ridden.len(), threads, &|t| {
                // A panicking word grader (harness defect) only demotes
                // its lanes to the serial fallback.
                let graded = catch_unwind(AssertUnwindSafe(|| {
                    grade_forwarding_word(ridden[t], &trace, experiment, golden)
                }))
                .unwrap_or_default();
                let mut slots = slots.lock().expect("verdict slots");
                for (index, verdict) in graded {
                    slots[index] = Some(verdict);
                }
            });
            if let Some(payload) = escaped.into_iter().next() {
                // Outside the per-word isolation: a defect of the ride itself.
                std::panic::resume_unwind(payload);
            }
        }
    }
    let slots = slots.into_inner().expect("verdict slots");
    tel.fallback_faults = slots.iter().filter(|v| v.is_none()).count() as u64;
    tel.fallback_rate = tel.fallback_faults as f64 / sites.len() as f64;

    let tally = LoopTally::default();
    let warm = WarmExperimentGrader { experiment, golden, snapshot: &snapshot };
    let fallback = |site| {
        let mut proof =
            LoopProof::new(snapshot.soc(), golden.cycles, snapshot.budget(), site, &tally);
        warm.grade_with(site, |soc| proof.check(soc))
    };
    let graded = grade(&fallback, sites, slots, usize::MAX, threads, &|_| {});
    tel.loop_short_circuits = tally.decided.into_inner();
    tel.loop_refusals = tally.refused.into_inner();

    let elapsed = start.elapsed().as_secs_f64();
    tel.total = graded.result.total as u64;
    tel.elapsed_secs = elapsed;
    tel.faults_per_sec = if elapsed > 0.0 { tel.total as f64 / elapsed } else { 0.0 };
    tel.mix = graded.result.mix();
    (graded.result, graded.records, tel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbst_cpu::CoreConfig;
    use sbst_isa::{Asm, Reg};
    use sbst_soc::SocBuilder;

    /// A one-core SoC counting x21 down from `n` in a loop padded with
    /// nops (so some phase of it holds no counter value in flight),
    /// then halting.
    fn countdown(n: u32) -> Soc {
        let mut a = Asm::new();
        a.li(Reg::R21, n);
        a.label("loop");
        a.addi(Reg::R21, Reg::R21, -1);
        a.nops(6);
        a.bne(Reg::R21, Reg::R0, "loop");
        a.halt();
        let program = a.assemble(0x100).expect("assembles");
        SocBuilder::new().load(&program).core(CoreConfig::cached(CoreKind::A, 0, 0x100), 0).build()
    }

    /// The cycle count after the step that executes the loop's exit
    /// branch not taken — where the loop's pattern breaks.
    fn exit_flip_cycle(soc: &Soc) -> u64 {
        let mut soc = soc.clone();
        tap(&mut soc);
        loop {
            soc.step();
            let flipped = harvest(&mut soc).events.iter().any(|ev| {
                matches!(ev, TapEvent::ExExec { instr: Some(Instr::Branch { cond, .. }), ops, .. }
                    if !cond.eval(ops[0] as u32, ops[1] as u32))
            });
            if flipped {
                return soc.cycle();
            }
            assert!(!soc.core(0).halted(), "the loop exits through its branch");
        }
    }

    /// The exit decision at the budget boundary: with the exit branch's
    /// flip one cycle after the deadline the proof decides the hang,
    /// with the flip at or before the deadline it must refuse; in every
    /// case the outcome is the one plain simulation returns.
    #[test]
    fn exit_flip_at_the_deadline_boundary_matches_plain_simulation() {
        let soc = countdown(400);
        let flip = exit_flip_cycle(&soc);
        // Any site outside the forwarding unit: the SoC runs fault-free
        // and the lane re-evaluates no mux.
        let site = FaultSite {
            unit: Unit::Hdcu,
            instance: 0,
            element: Element::StallLine { line: 0 },
            polarity: Polarity::StuckAt0,
        };
        for (deadline, decided) in [(flip - 1, 1), (flip, 0), (flip + 1, 0)] {
            let plain =
                soc.clone().run_until(deadline, StopAt::CoreHalted(0), |_| ControlFlow::Continue(()));
            let tally = LoopTally::default();
            let mut proof = LoopProof::new(&soc, 0, deadline, site, &tally);
            let accelerated =
                soc.clone().run_until(deadline, StopAt::CoreHalted(0), |s| proof.check(s));
            assert_eq!(accelerated, plain, "deadline {deadline}, exit flip at {flip}");
            assert_eq!(tally.decided.into_inner(), decided, "deadline {deadline}, flip {flip}");
            assert_eq!(tally.refused.into_inner(), 1 - decided, "deadline {deadline}, flip {flip}");
        }
        // Past the flip the loop exits and the core halts before a late
        // enough deadline: the proof must not stand in the way.
        let late = flip + 1000;
        let plain = soc.clone().run_until(late, StopAt::CoreHalted(0), |_| ControlFlow::Continue(()));
        assert!(plain.is_clean());
        let tally = LoopTally::default();
        let mut proof = LoopProof::new(&soc, 0, late, site, &tally);
        assert_eq!(soc.clone().run_until(late, StopAt::CoreHalted(0), |s| proof.check(s)), plain);
    }
}
