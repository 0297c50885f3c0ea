//! The dual-issue, in-order, 5-stage pipelined core.
//!
//! Stage order within one simulated cycle (synchronous registers are
//! snapshotted first, so every stage sees the previous cycle's values):
//!
//! ```text
//! snapshot EX/MEM + MEM/WB  →  WB commit  →  MEM  →  EX  →  ICU  →
//! issue  →  fetch  →  halt check
//! ```
//!
//! The ordering encodes the classic DLX hazard structure: a consumer in
//! EX forwards from the producer one packet ahead (in MEM: the EX/MEM
//! path) or two ahead (in WB: the MEM/WB path); load-use pairs cost one
//! HDCU stall; three-packet distance reads the freshly committed register
//! file.

use sbst_fault::{Element, FaultPlane, FaultSite};
use sbst_isa::{Cause, Csr, Instr, Reg};
use sbst_mem::{Bus, CacheConfig, Tcm, DTCM_BASE, ITCM_BASE};

use crate::csrfile::CsrFile;
use crate::exec::{alu32, alu64, imm_operand};
use crate::fetch::FetchUnit;
use crate::forwarding::{
    ForwardingNetwork, OPERAND_SOURCES, WB_SOURCES, WB_SRC_ALU, WB_SRC_CSR, WB_SRC_MEM,
};
use crate::hdcu::{Hdcu, ProducerView};
use crate::icu::Icu;
use crate::lsu::{Lsu, MemOp, MemOpKind};
use crate::CoreKind;

/// Configuration of one core instance.
#[derive(Debug, Clone, Copy)]
pub struct CoreConfig {
    /// Architectural variant.
    pub kind: CoreKind,
    /// Core id within the SoC (0 = A, 1 = B, 2 = C); selects the bus
    /// ports `2*id` (fetch) and `2*id + 1` (data).
    pub id: usize,
    /// Instruction-cache geometry, or `None` to run uncached.
    pub icache: Option<CacheConfig>,
    /// Data-cache geometry, or `None` to run uncached.
    pub dcache: Option<CacheConfig>,
    /// Reset program counter.
    pub reset_pc: u32,
    /// Posted-write buffer depth.
    pub wbuf_depth: usize,
}

impl CoreConfig {
    /// The paper's configuration: 8 KiB I$ + 4 KiB D$ enabled.
    pub fn cached(kind: CoreKind, id: usize, reset_pc: u32) -> CoreConfig {
        CoreConfig {
            kind,
            id,
            icache: Some(CacheConfig::icache_8k()),
            dcache: Some(CacheConfig::dcache_4k()),
            reset_pc,
            // Deep enough that the posted-write buffer never back-pressures
            // a cache-resident execution loop, even with the bus saturated
            // by the other cores.
            wbuf_depth: 32,
        }
    }

    /// Caches disabled (every access goes over the shared bus).
    pub fn uncached(kind: CoreKind, id: usize, reset_pc: u32) -> CoreConfig {
        CoreConfig { icache: None, dcache: None, ..CoreConfig::cached(kind, id, reset_pc) }
    }

    /// The certification variant: same capacities as [`cached`] but
    /// direct-mapped (one way), removing replacement state from the
    /// cache-locking argument.
    ///
    /// [`cached`]: CoreConfig::cached
    pub fn cached_direct(kind: CoreKind, id: usize, reset_pc: u32) -> CoreConfig {
        CoreConfig {
            icache: Some(CacheConfig::icache_8k_direct()),
            dcache: Some(CacheConfig::dcache_4k_direct()),
            ..CoreConfig::cached(kind, id, reset_pc)
        }
    }
}

/// Entry sitting at EX input (issued, not yet executed).
#[derive(Debug, Clone, Copy, PartialEq)]
struct ExInEntry {
    instr: Option<Instr>,
    pc: u32,
    seq: u64,
    /// Register-file values of the two source operands, read at issue.
    rf: [u64; 2],
    /// Source register descriptors: (base index, is 64-bit pair).
    src: [Option<(u8, bool)>; 2],
}

/// [`ExInEntry`] latch equality *modulo* the issue sequence number each
/// entry carries: `seq` is a snapshot of the monotone `issue_seq`
/// counter, so it never repeats across loop iterations, while its only
/// consumer (`raise_seq`, and through it the trap imprecision depth) is
/// a sequence-number *difference* — invariant across a loop period.
/// See [`Core::loop_state_eq`] for the full soundness argument.
fn ex_in_eq(a: &[Option<ExInEntry>; 2], b: &[Option<ExInEntry>; 2]) -> bool {
    a.iter().zip(b).all(|(x, y)| match (x, y) {
        (None, None) => true,
        (Some(x), Some(y)) => {
            x.instr == y.instr && x.pc == y.pc && x.rf == y.rf && x.src == y.src
        }
        _ => false,
    })
}

/// Entry in the EX/MEM or MEM/WB pipeline register.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PipeEntry {
    instr: Option<Instr>,
    pc: u32,
    dest: Option<(u8, bool)>,
    /// ALU/link result (the EX/MEM forwarding value).
    alu: u64,
    /// CSR read value.
    csr_val: u64,
    /// Writeback-mux select (`WB_SRC_*`).
    wb_sel: usize,
    /// Data-memory operation (pipe 0 only).
    mem: Option<MemOp>,
    mem_started: bool,
    /// Loaded word (valid once the LSU completed).
    mem_data: u32,
    /// Final writeback value (valid in MEM/WB).
    value: u64,
}

/// One instruction as seen by a pipeline trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSlot {
    /// Instruction address.
    pub pc: u32,
    /// Decoded instruction (`None` = undecodable word).
    pub instr: Option<Instr>,
}

/// Snapshot of pipeline occupancy, used to draw the paper's Figure 1
/// diagrams.
#[derive(Debug, Clone, Default)]
pub struct StageView {
    /// Next fetch address.
    pub fetch_pc: u32,
    /// Fetched instructions waiting to issue.
    pub buffer: Vec<StageSlot>,
    /// Instructions entering EX this cycle (per pipe).
    pub ex: [Option<StageSlot>; 2],
    /// EX/MEM pipeline register (per pipe).
    pub mem: [Option<StageSlot>; 2],
    /// MEM/WB pipeline register (per pipe).
    pub wb: [Option<StageSlot>; 2],
    /// Whether the core has fully halted.
    pub halted: bool,
}

/// One micro-architectural event captured by the core tap (see
/// [`Core::set_tap`]).
///
/// The tap records, in exact intra-step order, every register-file
/// commit, every forwarding-mux evaluation (with its fault-free inputs
/// and output) and every executed instruction (with its resolved
/// operands). The campaign's bit-parallel fault grader replays these
/// events per fault lane: a lane overlays its own value differences on
/// the recorded inputs, re-evaluates the shared
/// [`mux_eval`](crate::mux_eval) decomposition for its own faulted mux
/// instance, and tracks where its machine state diverges from the
/// fault-free run — without stepping a second SoC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TapEvent {
    /// WB committed a retiring instruction to the register file
    /// (`dest = None`: the entry retired without a destination).
    WbCommit {
        /// Pipe index.
        pipe: u8,
        /// Destination register (base index, 64-bit pair flag).
        dest: Option<(u8, bool)>,
        /// Committed value.
        value: u64,
    },
    /// The writeback-select mux of `pipe` computed an entry's final
    /// value as it moved from EX/MEM to MEM/WB.
    WbMux {
        /// Pipe index (mux instance `wb_mux_id(pipe)`).
        pipe: u8,
        /// Mux inputs: ALU result, load data, CSR read value.
        inputs: [u64; WB_SOURCES],
        /// Select code (`WB_SRC_*`).
        sel: u8,
        /// Fault-free mux output (the entry's writeback value).
        out: u64,
        /// The entry's data-memory operation, if any (the grader needs
        /// the address to overlay lane-local memory differences on the
        /// load data, and to apply store differences).
        mem: Option<MemOp>,
    },
    /// An operand-bypass mux resolved operand `operand` of slot `slot`.
    ExOperand {
        /// Issue slot (mux instance `operand_mux_id(slot, operand)`).
        slot: u8,
        /// Operand index.
        operand: u8,
        /// Source register of the register-file input (base, 64-bit).
        rf_src: Option<(u8, bool)>,
        /// Mux inputs (indexed by the `SRC_*` constants).
        inputs: [u64; OPERAND_SOURCES],
        /// HDCU-encoded select (`None` = dead code).
        sel: Option<u8>,
        /// Fault-free mux output (the resolved operand).
        out: u64,
    },
    /// EX executed one instruction with the given resolved operands.
    ExExec {
        /// Issue slot.
        slot: u8,
        /// The instruction (`None` = undecodable word).
        instr: Option<Instr>,
        /// Its address.
        pc: u32,
        /// Resolved operand values.
        ops: [u64; 2],
        /// Fault-free ALU/link result (grader cross-check).
        alu: u64,
        /// Fault-free data-memory operation (grader cross-check).
        mem: Option<MemOp>,
        /// Cause latched by this instruction, if any.
        raise: Option<Cause>,
    },
}

/// A dual-issue in-order pipelined core with private caches, TCMs,
/// forwarding network, HDCU, imprecise-interrupt ICU and per-pin fault
/// injection.
///
/// Drive it by calling [`step`](Core::step) once per cycle with the
/// shared [`Bus`]; the surrounding SoC (see `sbst-soc`) does this for
/// all three cores and the bus arbiter.
#[derive(Debug, Clone)]
pub struct Core {
    cfg: CoreConfig,
    regs: [u32; 32],
    csr: CsrFile,
    icu: Icu,
    hdcu: Hdcu,
    fwd: ForwardingNetwork,
    fetch: FetchUnit,
    lsu: Lsu,
    itcm: Tcm,
    dtcm: Tcm,
    plane: FaultPlane,
    ex_in: [Option<ExInEntry>; 2],
    exmem: [Option<PipeEntry>; 2],
    memwb: [Option<PipeEntry>; 2],
    issue_seq: u64,
    raise_seq: u64,
    branch_pending: bool,
    halting: bool,
    halted: bool,
    fatal_trap: bool,
    /// Event tap buffer (`None` = tap disabled, the normal case). Pure
    /// observation: enabling it changes no simulated behavior.
    tap: Option<Vec<TapEvent>>,
}

#[derive(Debug, Clone, Copy, Default)]
struct FwdView {
    dest: Option<(u8, bool)>,
    load_pending: bool,
    value: u64,
}

impl Core {
    /// Creates a core at reset.
    pub fn new(cfg: CoreConfig) -> Core {
        Core {
            cfg,
            regs: [0; 32],
            csr: CsrFile::new(cfg.id as u32),
            icu: Icu::new(cfg.kind),
            hdcu: Hdcu::new(cfg.kind),
            fwd: ForwardingNetwork::new(cfg.kind),
            fetch: FetchUnit::new(cfg.reset_pc, cfg.icache, 2 * cfg.id),
            lsu: Lsu::new(cfg.dcache, cfg.wbuf_depth, 2 * cfg.id + 1),
            itcm: Tcm::new(ITCM_BASE),
            dtcm: Tcm::new(DTCM_BASE),
            plane: FaultPlane::fault_free(),
            ex_in: [None; 2],
            exmem: [None; 2],
            memwb: [None; 2],
            issue_seq: 0,
            raise_seq: 0,
            branch_pending: false,
            halting: false,
            halted: false,
            fatal_trap: false,
            tap: None,
        }
    }

    /// Enables or disables the micro-architectural event tap. While
    /// enabled, [`step`](Core::step) appends [`TapEvent`]s in exact
    /// intra-cycle order; drain them with
    /// [`take_tap_events`](Core::take_tap_events) (typically once per
    /// step). Observation only — simulated behavior is unchanged.
    pub fn set_tap(&mut self, enable: bool) {
        self.tap = enable.then(Vec::new);
    }

    /// Drains the tap buffer (empty when the tap is disabled).
    pub fn take_tap_events(&mut self) -> Vec<TapEvent> {
        match &mut self.tap {
            Some(buf) => std::mem::take(buf),
            None => Vec::new(),
        }
    }

    /// The forwarding network (read-only: campaign lane graders seed
    /// delay-fault history from its [`delay_state`] and mirror its mux
    /// decomposition).
    ///
    /// [`delay_state`]: ForwardingNetwork::delay_state
    pub fn forwarding_unit(&self) -> &ForwardingNetwork {
        &self.fwd
    }

    /// The armed fault plane.
    pub fn plane(&self) -> FaultPlane {
        self.plane
    }

    /// Architectural-trajectory equality for the campaign's loop proof: two
    /// cores whose `loop_state_eq` states are equal, stepped against
    /// equal bus states, evolve identically — *modulo* the deliberately
    /// excluded free-running state: the performance counters and the
    /// issue/raise sequence numbers, including the in-flight copy each
    /// `ExInEntry` carries (all monotone; only their *difference* —
    /// the imprecision depth — is architecturally visible, and a
    /// difference is invariant across one loop period). The counters
    /// are software-visible, so a trajectory that reads one does not
    /// repeat with the state: the campaign's loop proof sees such reads
    /// on the instruction tap and adds each period's counter advance to
    /// the value read.
    pub fn loop_state_eq(&self, other: &Core) -> bool {
        self.regs == other.regs
            && self.fwd.delay_state() == other.fwd.delay_state()
            && self.loop_state_eq_modulo_regs(other)
    }

    /// [`loop_state_eq`](Core::loop_state_eq) modulo the values a loop
    /// counter leaves behind: the register file, and the last output of
    /// every forwarding mux the armed fault does not read back (the
    /// network remembers each mux's last output, but only a path-delay
    /// fault on that mux ever reads it). The rest is what a loop period
    /// must repeat exactly while its counters run on in registers.
    pub fn loop_state_eq_modulo_regs(&self, other: &Core) -> bool {
        self.delay_history() == other.delay_history()
            && self.csr.loop_state_eq(&other.csr)
            && self.icu == other.icu
            && ex_in_eq(&self.ex_in, &other.ex_in)
            && self.exmem == other.exmem
            && self.memwb == other.memwb
            && self.branch_pending == other.branch_pending
            && self.halting == other.halting
            && self.halted == other.halted
            && self.fatal_trap == other.fatal_trap
            && self.fetch.state_eq(&other.fetch)
            && self.lsu.state_eq(&other.lsu)
            && self.itcm.state_eq(&other.itcm)
            && self.dtcm.state_eq(&other.dtcm)
    }

    /// The mux output history the armed fault reads back: the last
    /// output of its mux, for a path-delay fault.
    fn delay_history(&self) -> Option<u64> {
        match self.plane.site() {
            Some(FaultSite { element: Element::MuxPathDelay { .. }, instance, .. }) => {
                self.fwd.delay_state().get(instance as usize).copied()
            }
            _ => None,
        }
    }

    /// Arms a fault (call before the first step).
    pub fn set_plane(&mut self, plane: FaultPlane) {
        self.plane = plane;
    }

    /// This core's configuration.
    pub fn config(&self) -> CoreConfig {
        self.cfg
    }

    /// Whether the core has halted (pipeline drained after `halt`).
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Whether a trap was recognised with no handler installed.
    pub fn fatal_trap(&self) -> bool {
        self.fatal_trap
    }

    /// How many instructions have entered the pipeline so far. Issue
    /// happens before fetch within a step, so the state *before* the
    /// step in which this first becomes non-zero is the last point at
    /// which no instruction of this core has had any effect yet.
    pub fn instructions_issued(&self) -> u64 {
        self.issue_seq
    }

    /// Architectural register value.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// All architectural registers.
    pub fn regs(&self) -> &[u32; 32] {
        &self.regs
    }

    /// CSR value as software would read it.
    pub fn csr_value(&self, csr: Csr) -> u32 {
        self.icu
            .read(csr, &self.plane)
            .or_else(|| self.csr.read(csr))
            .unwrap_or(0)
    }

    /// Performance counters (full 64-bit values).
    pub fn counters(&self) -> &CsrFile {
        &self.csr
    }

    /// A copied-out observability snapshot of the core: pipeline
    /// counters, cache counters and the pipeline's current position.
    /// The SoC observer diffs consecutive samples to derive per-cycle
    /// trace events; nothing here touches core state.
    pub fn obs_sample(&self) -> sbst_obs::CoreSample {
        sbst_obs::CoreSample {
            counters: sbst_obs::CoreCounters {
                cycles: self.csr.cycles,
                retired: self.csr.retired,
                issued: self.issue_seq,
                if_stalls: self.csr.if_stalls,
                mem_stalls: self.csr.mem_stalls,
                haz_stalls: self.csr.haz_stalls,
                fwd_uses: self.csr.fwd_uses,
            },
            icache: self.fetch.icache().map(|c| c.stats().counters()),
            dcache: self.lsu.dcache().map(|c| c.stats().counters()),
            next_pc: self.fetch.pc(),
            ex_pc: self.ex_in[0].map(|e| e.pc),
            halted: self.halted,
        }
    }

    /// The fetch unit (cache statistics, debug).
    pub fn fetch_unit(&self) -> &FetchUnit {
        &self.fetch
    }

    /// The load/store unit (cache statistics, debug).
    pub fn lsu_unit(&self) -> &Lsu {
        &self.lsu
    }

    /// Mutable instruction cache, if configured (SEU injection).
    pub fn icache_mut(&mut self) -> Option<&mut sbst_mem::Cache> {
        self.fetch.icache_mut()
    }

    /// Mutable data cache, if configured (SEU injection).
    pub fn dcache_mut(&mut self) -> Option<&mut sbst_mem::Cache> {
        self.lsu.dcache_mut()
    }

    /// Severs every copy-on-write page this core's backing stores (TCMs
    /// and caches) still share with other clones — the deep-copy
    /// behavior of the pre-COW `Vec` backing, as a differential-test
    /// hook.
    pub fn unshare(&mut self) {
        self.itcm.unshare();
        self.dtcm.unshare();
        if let Some(ic) = self.fetch.icache_mut() {
            ic.unshare();
        }
        if let Some(dc) = self.lsu.dcache_mut() {
            dc.unshare();
        }
    }

    /// Current pipeline occupancy for tracing.
    pub fn stage_view(&self) -> StageView {
        let slot = |e: &Option<PipeEntry>| e.map(|e| StageSlot { pc: e.pc, instr: e.instr });
        StageView {
            fetch_pc: self.fetch.pc(),
            buffer: self
                .fetch
                .buffered()
                .iter()
                .map(|f| StageSlot { pc: f.pc, instr: f.instr })
                .collect(),
            ex: [
                self.ex_in[0].map(|e| StageSlot { pc: e.pc, instr: e.instr }),
                self.ex_in[1].map(|e| StageSlot { pc: e.pc, instr: e.instr }),
            ],
            mem: [slot(&self.exmem[0]), slot(&self.exmem[1])],
            wb: [slot(&self.memwb[0]), slot(&self.memwb[1])],
            halted: self.halted,
        }
    }

    /// Advances the core by one clock cycle.
    pub fn step(&mut self, bus: &mut Bus) {
        if self.halted {
            return;
        }
        self.csr.cycles += 1;

        // ---- snapshot pipeline registers for the forwarding network ----
        let view = |e: &Option<PipeEntry>, in_mem: bool| match e {
            Some(e) => FwdView {
                dest: e.dest,
                // Loads AND CSR reads produce their value at the WB mux,
                // not in EX: while still in EX/MEM they are late
                // producers that request a load-use-style stall.
                load_pending: in_mem && e.wb_sel != WB_SRC_ALU,
                value: if in_mem { e.alu } else { e.value },
            },
            None => FwdView::default(),
        };
        let fwd_ex = [view(&self.exmem[0], true), view(&self.exmem[1], true)];
        let fwd_wb = [view(&self.memwb[0], false), view(&self.memwb[1], false)];

        // ---- WB: commit ------------------------------------------------
        for pipe in 0..2 {
            if let Some(e) = self.memwb[pipe].take() {
                if let Some(t) = &mut self.tap {
                    t.push(TapEvent::WbCommit { pipe: pipe as u8, dest: e.dest, value: e.value });
                }
                if let Some((d, is64)) = e.dest {
                    self.write_reg(d, is64, e.value);
                }
                self.csr.retired += 1;
            }
        }

        // ---- MEM -------------------------------------------------------
        if let Some(e) = &mut self.exmem[0] {
            if let Some(op) = e.mem {
                if !e.mem_started && !self.lsu.busy() {
                    self.lsu.start(op);
                    e.mem_started = true;
                }
            }
        }
        self.lsu.cycle(bus, &mut self.itcm, &mut self.dtcm);
        let mem_done = match &mut self.exmem[0] {
            Some(e) if e.mem.is_some() => match self.lsu.take_result() {
                Some(v) => {
                    e.mem_data = v;
                    true
                }
                None => {
                    self.csr.mem_stalls += 1;
                    false
                }
            },
            _ => true,
        };
        if mem_done {
            for pipe in 0..2 {
                if let Some(mut e) = self.exmem[pipe].take() {
                    let inputs = [e.alu, e.mem_data as u64, e.csr_val];
                    e.value = self.fwd.wb_value(pipe, &inputs, e.wb_sel, &self.plane);
                    if let Some(t) = &mut self.tap {
                        t.push(TapEvent::WbMux {
                            pipe: pipe as u8,
                            inputs,
                            sel: e.wb_sel as u8,
                            out: e.value,
                            mem: e.mem,
                        });
                    }
                    self.memwb[pipe] = Some(e);
                }
            }
        }

        // ---- EX ----------------------------------------------------------
        let exmem_free = self.exmem.iter().all(Option::is_none);
        if self.ex_in.iter().any(Option::is_some) && exmem_free {
            self.execute_packet(&fwd_ex, &fwd_wb);
        }

        // ---- ICU recognition --------------------------------------------
        if !self.branch_pending && !self.halting && self.icu.tick(&self.plane) {
            if self.csr.trap_vec == 0 {
                self.fatal_trap = true;
                self.halted = true;
                return;
            }
            let depth =
                self.issue_seq.saturating_sub(self.raise_seq + 1).min(255) as u32;
            let epc = self.fetch.next_unissued_pc();
            self.icu.recognize(epc, depth, &self.plane);
            self.fetch.redirect(self.csr.trap_vec);
        }

        // ---- issue -------------------------------------------------------
        if !self.halting && !self.branch_pending && self.ex_in.iter().all(Option::is_none) {
            self.issue();
        }

        // ---- fetch -------------------------------------------------------
        self.fetch.step(bus, &self.itcm, self.halting);

        // ---- halt check ----------------------------------------------------
        if self.halting
            && self.ex_in.iter().all(Option::is_none)
            && self.exmem.iter().all(Option::is_none)
            && self.memwb.iter().all(Option::is_none)
            && self.lsu.quiescent()
            && !self.fetch.busy()
        {
            self.halted = true;
        }
    }

    fn write_reg(&mut self, base: u8, is64: bool, value: u64) {
        if base != 0 {
            self.regs[base as usize] = value as u32;
        }
        if is64 && base < 31 {
            let hi = base + 1;
            if hi != 0 {
                self.regs[hi as usize] = (value >> 32) as u32;
            }
        }
    }

    fn read_src(&self, base: u8, is64: bool) -> u64 {
        let lo = self.regs[base as usize] as u64;
        if is64 && base.is_multiple_of(2) && base < 31 {
            lo | ((self.regs[base as usize + 1] as u64) << 32)
        } else {
            lo
        }
    }

    /// Executes the packet in `ex_in` (both slots), or stalls it.
    fn execute_packet(&mut self, fwd_ex: &[FwdView; 2], fwd_wb: &[FwdView; 2]) {
        let producers: [ProducerView; 4] = [
            ProducerView { dest: fwd_ex[0].dest, load_pending: fwd_ex[0].load_pending },
            ProducerView { dest: fwd_ex[1].dest, load_pending: fwd_ex[1].load_pending },
            ProducerView { dest: fwd_wb[0].dest, load_pending: false },
            ProducerView { dest: fwd_wb[1].dest, load_pending: false },
        ];
        // Refresh register-file operand values: an instruction can sit at
        // EX entry across an interlock stall long enough for its producer
        // to retire, in which case the RF path must see the committed
        // value (the RF is read through until EX entry).
        for slot in 0..2 {
            let Some(entry) = &mut self.ex_in[slot] else { continue };
            let srcs = entry.src;
            for (operand, src) in srcs.iter().enumerate() {
                if let Some((base, is64)) = src {
                    entry.rf[operand] = {
                        let lo = self.regs[*base as usize] as u64;
                        if *is64 && base % 2 == 0 && *base < 31 {
                            lo | ((self.regs[*base as usize + 1] as u64) << 32)
                        } else {
                            lo
                        }
                    };
                }
            }
        }
        // Route every operand of every slot; collect stall requests.
        let mut selects = [[None::<Option<usize>>; 2]; 2];
        let mut requests = [false; 4];
        for slot in 0..2 {
            let Some(entry) = &self.ex_in[slot] else { continue };
            for operand in 0..2 {
                let Some((src, src64)) = entry.src[operand] else { continue };
                let route =
                    self.hdcu.route(slot, operand, src, src64, &producers, &self.plane);
                selects[slot][operand] = Some(route.select);
                requests[slot * 2 + operand] = route.stall_request;
            }
        }
        if self.hdcu.aggregate_stall(&requests, &self.plane) {
            self.csr.haz_stalls += 1;
            return;
        }
        // Resolve operand values through the forwarding muxes and execute.
        for (slot, slot_selects) in selects.iter().enumerate() {
            let Some(entry) = self.ex_in[slot].take() else { continue };
            let mut ops = [0u64; 2];
            for operand in 0..2 {
                if entry.src[operand].is_none() {
                    ops[operand] = entry.rf[operand];
                    continue;
                }
                let inputs: [u64; OPERAND_SOURCES] = [
                    entry.rf[operand],
                    fwd_ex[0].value,
                    fwd_ex[1].value,
                    fwd_wb[0].value,
                    fwd_wb[1].value,
                ];
                let sel = slot_selects[operand].expect("routed above");
                if sel.is_some_and(|s| s != crate::forwarding::SRC_RF) {
                    self.csr.fwd_uses += 1;
                }
                ops[operand] = self.fwd.operand(slot, operand, &inputs, sel, &self.plane);
                if let Some(t) = &mut self.tap {
                    t.push(TapEvent::ExOperand {
                        slot: slot as u8,
                        operand: operand as u8,
                        rf_src: entry.src[operand],
                        inputs,
                        sel: sel.map(|s| s as u8),
                        out: ops[operand],
                    });
                }
            }
            let pipe_entry = self.execute_one(slot, entry, ops);
            self.exmem[slot] = Some(pipe_entry);
        }
    }

    /// Executes a single instruction in EX; returns its pipeline entry.
    fn execute_one(&mut self, slot: usize, entry: ExInEntry, ops: [u64; 2]) -> PipeEntry {
        let mut out = PipeEntry {
            instr: entry.instr,
            pc: entry.pc,
            dest: None,
            alu: 0,
            csr_val: 0,
            wb_sel: WB_SRC_ALU,
            mem: None,
            mem_started: false,
            mem_data: 0,
            value: 0,
        };
        let mut raise: Option<Cause> = None;
        let (a32, b32) = (ops[0] as u32, ops[1] as u32);
        match entry.instr {
            None => raise = Some(Cause::Illegal),
            Some(instr) => match instr {
                Instr::Nop | Instr::Halt => {}
                Instr::Alu { op, rd, .. } => {
                    let (v, c) = alu32(op, a32, b32);
                    out.alu = v as u64;
                    out.dest = entry_dest(rd, false);
                    raise = c;
                }
                Instr::AluImm { op, rd, imm, .. } => {
                    let (v, c) = alu32(op, a32, imm_operand(op, imm));
                    out.alu = v as u64;
                    out.dest = entry_dest(rd, false);
                    raise = c;
                }
                Instr::Alu64 { op, rd, rs1, rs2 } => {
                    let legal = self.cfg.kind.has_alu64()
                        && rd.is_even()
                        && rs1.is_even()
                        && rs2.is_even()
                        && rd.index() < 31;
                    if legal {
                        let (v, c) = alu64(op, ops[0], ops[1]);
                        out.alu = v;
                        out.dest = entry_dest(rd, true);
                        raise = c;
                    } else {
                        raise = Some(Cause::Illegal);
                    }
                }
                Instr::Lui { rd, imm } => {
                    out.alu = ((imm as u32) << 16) as u64;
                    out.dest = entry_dest(rd, false);
                }
                Instr::Load { rd, off, .. } => {
                    let addr = a32.wrapping_add(off as i32 as u32);
                    if addr % 4 != 0 {
                        raise = Some(Cause::Unaligned);
                        out.dest = entry_dest(rd, false);
                    } else {
                        out.mem = Some(MemOp { kind: MemOpKind::Load, addr, wdata: 0 });
                        out.dest = entry_dest(rd, false);
                        out.wb_sel = WB_SRC_MEM;
                    }
                }
                Instr::Store { off, .. } => {
                    let addr = a32.wrapping_add(off as i32 as u32);
                    if addr % 4 != 0 {
                        raise = Some(Cause::Unaligned);
                    } else {
                        out.mem =
                            Some(MemOp { kind: MemOpKind::Store, addr, wdata: b32 });
                    }
                }
                Instr::Amoswap { rd, .. } => {
                    let addr = a32;
                    if addr % 4 != 0 {
                        raise = Some(Cause::Unaligned);
                        out.dest = entry_dest(rd, false);
                    } else {
                        out.mem = Some(MemOp { kind: MemOpKind::Swap, addr, wdata: b32 });
                        out.dest = entry_dest(rd, false);
                        out.wb_sel = WB_SRC_MEM;
                    }
                }
                Instr::Branch { cond, off, .. } => {
                    if cond.eval(a32, b32) {
                        self.redirect(entry.pc.wrapping_add(off as i32 as u32));
                    }
                    self.branch_pending = false;
                }
                Instr::Jal { rd, off } => {
                    out.alu = entry.pc.wrapping_add(4) as u64;
                    out.dest = entry_dest(rd, false);
                    self.redirect(entry.pc.wrapping_add(off as u32));
                    self.branch_pending = false;
                }
                Instr::Jalr { rd, off, .. } => {
                    out.alu = entry.pc.wrapping_add(4) as u64;
                    out.dest = entry_dest(rd, false);
                    self.redirect(a32.wrapping_add(off as i32 as u32) & !3);
                    self.branch_pending = false;
                }
                Instr::CsrRead { rd, csr } => {
                    out.csr_val = self
                        .icu
                        .read(csr, &self.plane)
                        .or_else(|| self.csr.read(csr))
                        .unwrap_or(0) as u64;
                    out.wb_sel = WB_SRC_CSR;
                    out.dest = entry_dest(rd, false);
                }
                Instr::CsrWrite { csr, .. } => {
                    if csr.is_writable() {
                        if !self.icu.write(csr, a32) {
                            self.csr.write(csr, a32);
                        }
                    } else {
                        raise = Some(Cause::Illegal);
                    }
                }
                Instr::Cache(op) => match op {
                    sbst_isa::CacheOp::IcInv => {
                        if let Some(ic) = self.fetch.icache_mut() {
                            ic.invalidate_all();
                        }
                    }
                    sbst_isa::CacheOp::DcInv => {
                        if let Some(dc) = self.lsu.dcache_mut() {
                            dc.invalidate_all();
                        }
                    }
                },
                Instr::Mret => {
                    self.redirect(self.icu.epc());
                    self.icu.mret(&self.plane);
                    self.branch_pending = false;
                }
            },
        }
        if let Some(t) = &mut self.tap {
            t.push(TapEvent::ExExec {
                slot: slot as u8,
                instr: entry.instr,
                pc: entry.pc,
                ops,
                alu: out.alu,
                mem: out.mem,
                raise,
            });
        }
        if let Some(cause) = raise {
            if self.icu.raise(cause, &self.plane) {
                self.raise_seq = entry.seq;
            }
        }
        out
    }

    fn redirect(&mut self, target: u32) {
        self.fetch.redirect(target);
    }

    /// Issues up to one packet from the fetch buffer.
    fn issue(&mut self) {
        let plane = self.plane;
        let Some(packet) = self.fetch.packet_mut() else {
            self.csr.if_stalls += 1;
            return;
        };
        let rem = packet.remaining();
        debug_assert!(!rem.is_empty());
        let first = rem[0];
        let dual = match (first.instr, rem.get(1)) {
            (Some(i0), Some(second)) => match second.instr {
                Some(i1) => {
                    let split = self.hdcu.needs_split(&i0, &i1, &plane);
                    if split {
                        // A split delays the second instruction by one
                        // cycle: an HDCU-inserted stall, visible through
                        // the performance counters.
                        self.csr.haz_stalls += 1;
                    }
                    !split
                }
                None => false,
            },
            _ => false,
        };
        let packet = self.fetch.packet_mut().expect("checked");
        let issued0 = packet.take();
        let issued1 = dual.then(|| packet.take());
        self.fetch.retire_packet_if_exhausted();
        for (slot, fetched) in [(0, Some(issued0)), (1, issued1)] {
            let Some(fetched) = fetched else { continue };
            let seq = self.issue_seq;
            self.issue_seq += 1;
            let mut src = [None; 2];
            let mut rf = [0u64; 2];
            if let Some(instr) = fetched.instr {
                let is64 = matches!(instr, Instr::Alu64 { .. });
                for (i, s) in instr.sources().iter().enumerate() {
                    if let Some(r) = s {
                        src[i] = Some((r.index() as u8, is64));
                        rf[i] = self.read_src(r.index() as u8, is64);
                    }
                }
                if instr.is_control_flow() {
                    self.branch_pending = true;
                }
                if matches!(instr, Instr::Halt) {
                    self.halting = true;
                }
            }
            self.ex_in[slot] =
                Some(ExInEntry { instr: fetched.instr, pc: fetched.pc, seq, rf, src });
        }
    }
}

fn entry_dest(rd: Reg, is64: bool) -> Option<(u8, bool)> {
    (!rd.is_zero()).then_some((rd.index() as u8, is64))
}
