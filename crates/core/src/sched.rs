//! Decentralized boot-time STL scheduling (after Floridia et al. \[13\]).
//!
//! Each core runs its own sequence of wrapped routines; coordination is
//! decentralized through shared-SRAM primitives (an `amoswap` spinlock
//! and a start barrier) — no core plays master. This is the execution
//! context that produces the paper's Table I bus-contention numbers.

use sbst_isa::{Asm, Reg};
use sbst_mem::{MMIO_BASE, SRAM_BASE, WDG_KICK, WDG_LOAD};

use crate::routine::{RoutineEnv, SelfTestRoutine};
use crate::wrap::cache::{emit_into, WrapConfig};
use crate::wrap::Terminator;

/// Shared-memory layout of the scheduler's coordination block.
#[derive(Debug, Clone, Copy)]
pub struct SchedLayout {
    /// Spinlock word.
    pub lock_addr: u32,
    /// Arrived-cores counter.
    pub count_addr: u32,
    /// First per-core "done" flag word (one word per core).
    pub done_base: u32,
}

impl Default for SchedLayout {
    fn default() -> SchedLayout {
        SchedLayout {
            lock_addr: SRAM_BASE,
            count_addr: SRAM_BASE + 4,
            done_base: SRAM_BASE + 8,
        }
    }
}

// Scheduler-reserved registers (distinct from wrapper + body sets is
// unnecessary: the barrier runs before/after routines).
const LOCK_PTR: Reg = Reg::R1;
const TMP: Reg = Reg::R2;
const OLD: Reg = Reg::R3;
const CNT_PTR: Reg = Reg::R4;

/// Emits a decentralized start barrier: take the lock, bump the arrival
/// counter, release, then spin until all `n` cores arrived.
pub fn emit_barrier(asm: &mut Asm, layout: &SchedLayout, n: u32, tag: &str) {
    let acquire = format!("{tag}_bar_acq");
    let wait = format!("{tag}_bar_wait");
    asm.li(LOCK_PTR, layout.lock_addr);
    asm.li(CNT_PTR, layout.count_addr);
    asm.label(&acquire);
    asm.li(TMP, 1);
    asm.amoswap(OLD, TMP, LOCK_PTR); // swaps bypass the D$
    asm.bne(OLD, Reg::R0, &acquire);
    // There is no cache-coherence protocol: shared words written by the
    // other cores must be re-read past the private D$, so boot code
    // invalidates before every coordination read.
    asm.dcinv();
    asm.lw(TMP, CNT_PTR, 0);
    asm.addi(TMP, TMP, 1);
    asm.sw(TMP, CNT_PTR, 0); // write-through: immediately visible
    asm.sw(Reg::R0, LOCK_PTR, 0); // release
    asm.li(OLD, n);
    asm.label(&wait);
    asm.dcinv();
    asm.lw(TMP, CNT_PTR, 0);
    asm.blt(TMP, OLD, &wait);
}

/// Arms the memory-mapped watchdog with `timeout` cycles.
pub fn emit_watchdog_arm(asm: &mut Asm, timeout: u32) {
    asm.li(Reg::R1, MMIO_BASE + WDG_LOAD);
    asm.li(Reg::R2, timeout);
    asm.sw(Reg::R2, Reg::R1, 0);
}

/// Kicks (reloads) the watchdog.
pub fn emit_watchdog_kick(asm: &mut Asm) {
    asm.li(Reg::R1, MMIO_BASE + WDG_KICK);
    asm.sw(Reg::R0, Reg::R1, 0);
}

/// One core's share of the Software Test Library.
pub struct CoreStl {
    /// Routines this core runs, in order.
    pub routines: Vec<Box<dyn SelfTestRoutine>>,
    /// Environment (routine `i` runs at [`RoutineEnv::part`]`(i)`).
    pub env: RoutineEnv,
    /// Watchdog timeout armed by core 0 and kicked between routines
    /// (`None` = watchdog unused). Must exceed the longest routine's
    /// cache-wrapped execution time.
    pub watchdog: Option<u32>,
}

impl CoreStl {
    /// An STL share without watchdog supervision.
    pub fn new(routines: Vec<Box<dyn SelfTestRoutine>>, env: RoutineEnv) -> CoreStl {
        CoreStl { routines, env, watchdog: None }
    }
}

/// Builds the boot-time STL program of one core: start barrier →
/// wrapped routines back-to-back → done flag → halt.
///
/// `wrap` controls the deterministic wrapper applied to *every* routine
/// (set `iterations: 1, invalidate: false` to model the legacy uncached
/// STL).
pub fn build_stl_program(
    core_id: usize,
    total_cores: u32,
    stl: &CoreStl,
    wrap: &WrapConfig,
    layout: &SchedLayout,
) -> Asm {
    let mut asm = Asm::new();
    let tag_base = format!("c{core_id}");
    if let Some(timeout) = stl.watchdog {
        if core_id == 0 {
            emit_watchdog_arm(&mut asm, timeout);
        }
    }
    emit_barrier(&mut asm, layout, total_cores, &tag_base);
    for (i, routine) in stl.routines.iter().enumerate() {
        let cfg = WrapConfig { terminator: Terminator::Fallthrough, ..*wrap };
        emit_into(&mut asm, routine.as_ref(), &stl.env.part(i), &cfg, &format!("{tag_base}_r{i}"));
        if stl.watchdog.is_some() && core_id == 0 {
            emit_watchdog_kick(&mut asm);
        }
    }
    // Publish completion.
    asm.li(Reg::R1, layout.done_base + 4 * core_id as u32);
    asm.li(Reg::R2, 1);
    asm.sw(Reg::R2, Reg::R1, 0);
    asm.halt();
    asm
}
