//! Single-run execution helpers: running a wrapped routine on a SoC and
//! reading back its mailbox, and learning golden signatures.

use sbst_cpu::{CoreConfig, CoreKind};
use sbst_fault::FaultPlane;
use sbst_isa::Asm;
use sbst_soc::{ChaosConfig, RunOutcome, Soc, SocBuilder};

use crate::routine::{read_result, RoutineEnv, SelfTestRoutine};
use crate::wrap::cache::{wrap_cached, WrapConfig, WrapError};

/// Outcome of running one test program on one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// SoC-level outcome.
    pub outcome: RunOutcome,
    /// Signature read from the mailbox.
    pub signature: u32,
    /// Status word read from the mailbox.
    pub status: u32,
    /// Cycles the core under test took to halt (total SoC cycles).
    pub cycles: u64,
}

/// Derives a fault-free cycle budget for a wrapped program: enough for
/// every instruction to be fetched from Flash once plus re-executed
/// from cache, with generous slack for bus contention and the loading
/// loop — a clean run halts long before this; only a defective one
/// (or an armed fault) ever reaches it.
pub fn derive_cycle_budget(asm: &Asm) -> u64 {
    200_000 + 1_024 * asm.len() as u64
}

/// The cycle budget for a fault-free run of `asm` under `env`: an
/// explicit [`RoutineEnv::cycle_budget`] wins, else one is derived from
/// the program size.
pub fn cycle_budget_for(env: &RoutineEnv, asm: &Asm) -> u64 {
    env.cycle_budget.unwrap_or_else(|| derive_cycle_budget(asm))
}

/// Runs `asm` standalone on a single core and reads the mailbox at
/// `env.result_addr`.
///
/// # Panics
///
/// Panics if the program cannot be assembled at `base`.
pub fn run_standalone(
    asm: &Asm,
    env: &RoutineEnv,
    kind: CoreKind,
    cached: bool,
    base: u32,
    plane: FaultPlane,
    max_cycles: u64,
) -> RunReport {
    let program = asm.assemble(base).expect("program assembles");
    let cfg = if cached {
        CoreConfig::cached(kind, 0, base)
    } else {
        CoreConfig::uncached(kind, 0, base)
    };
    let mut soc = SocBuilder::new().load(&program).core(cfg, 0).build();
    soc.core_mut(0).set_plane(plane);
    finish(soc, env, max_cycles)
}

/// Like [`run_standalone`], but with a chaos plane attached: the
/// traffic injector contends on its own bus port and the SEU schedule
/// may flip cached/in-flight bits. The core itself stays fault-free —
/// chaos is environmental, not a logic defect.
///
/// # Panics
///
/// Panics if the program cannot be assembled at `base`.
pub fn run_chaotic(
    asm: &Asm,
    env: &RoutineEnv,
    kind: CoreKind,
    cached: bool,
    base: u32,
    chaos: ChaosConfig,
    max_cycles: u64,
) -> RunReport {
    let program = asm.assemble(base).expect("program assembles");
    let cfg = if cached {
        CoreConfig::cached(kind, 0, base)
    } else {
        CoreConfig::uncached(kind, 0, base)
    };
    let soc = SocBuilder::new().load(&program).core(cfg, 0).chaos(chaos).build();
    finish(soc, env, max_cycles)
}

/// Steps `soc` to completion and reads core 0's mailbox.
pub fn finish(mut soc: Soc, env: &RoutineEnv, max_cycles: u64) -> RunReport {
    let outcome = soc.run(max_cycles);
    let (signature, status) = read_result(env, 1, |addr| soc.peek(addr));
    RunReport {
        outcome,
        signature,
        status,
        cycles: soc.cycle(),
    }
}

/// Learns the golden signature of the cache-wrapped `routine`: wraps it
/// without an expected value, runs it fault-free on a single cached
/// core, and returns the signature (paper §I: the expected signature is
/// obtained in a fault-free scenario).
///
/// # Errors
///
/// Propagates wrapper errors (image too large, assembly failure).
pub fn learn_golden_cached(
    routine: &dyn SelfTestRoutine,
    env: &RoutineEnv,
    cfg: &WrapConfig,
    kind: CoreKind,
    base: u32,
) -> Result<u32, WrapError> {
    let learn_cfg = WrapConfig { expected_sig: None, ..*cfg };
    let asm = wrap_cached(routine, env, &learn_cfg, "golden")?;
    let report = run_standalone(
        &asm,
        env,
        kind,
        true,
        base,
        FaultPlane::fault_free(),
        cycle_budget_for(env, &asm),
    );
    assert!(
        report.outcome.is_clean(),
        "golden run must halt cleanly: {:?}",
        report.outcome
    );
    Ok(report.signature)
}
