//! The paper's contribution: the cache-based deterministic wrapper.
//!
//! Figure 2b structure around an unmodified single-core body:
//!
//! ```text
//! (a) setup: loop counter, result pointer
//! (b) invalidate I$ and D$
//! ┌─ loop (2 iterations)
//! │  (c/d) the routine body — iteration 1 is the LOADING loop (warms
//! │        the caches; its signature is discarded), iteration 2 is the
//! │        EXECUTION loop (runs entirely from cache, decoupled from
//! │        the bus: its signature is the reported one)
//! └─ (e) decrement / branch back (taken exactly once → every branch
//!        path is exercised by the end, paper §III.2.1)
//! store signature; optional self-check against the expected value
//! ```

use sbst_isa::{Asm, AsmError, Reg};

use crate::routine::{
    RoutineEnv, SelfTestRoutine, RESULT_SIG_OFF, RESULT_STATUS_OFF, STATUS_DONE, STATUS_FAIL,
    STATUS_PASS,
};
use crate::signature::{emit_init, SIG_REG};
use crate::wrap::Terminator;

/// Wrapper registers (reserved; bodies must not touch them).
const LOOP_REG: Reg = Reg::R21;
const RESULT_REG: Reg = Reg::R22;
const TMP_REG: Reg = Reg::R23;

/// Configuration of the cache-based wrapper.
#[derive(Debug, Clone, Copy)]
pub struct WrapConfig {
    /// Loop iterations (paper: 2 — loading + execution). Values other
    /// than 2 exist for the ablation benches.
    pub iterations: u32,
    /// Whether to invalidate both caches first (paper §III.3; ablations
    /// disable it).
    pub invalidate: bool,
    /// Instruction-cache capacity the wrapped image must fit in
    /// (paper §III.2.2).
    pub icache_capacity: u32,
    /// Expected (golden) signature for the embedded self-check; `None`
    /// stores the signature without checking (golden-learning runs).
    pub expected_sig: Option<u32>,
    /// How the program ends.
    pub terminator: Terminator,
}

impl Default for WrapConfig {
    fn default() -> WrapConfig {
        WrapConfig {
            iterations: 2,
            invalidate: true,
            icache_capacity: 8 * 1024,
            expected_sig: None,
            terminator: Terminator::Halt,
        }
    }
}

/// Errors from the wrappers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WrapError {
    /// The wrapped image exceeds the instruction cache and the routine
    /// does not support splitting.
    TooLarge {
        /// Wrapped image size in bytes.
        image_bytes: usize,
        /// Configured cache capacity.
        capacity: u32,
    },
    /// Label resolution failed while assembling a size probe.
    Asm(AsmError),
}

impl std::fmt::Display for WrapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WrapError::TooLarge { image_bytes, capacity } => write!(
                f,
                "wrapped image ({image_bytes} B) exceeds the {capacity} B instruction cache \
                 and the routine cannot be split"
            ),
            WrapError::Asm(e) => write!(f, "assembly failed: {e}"),
        }
    }
}

impl std::error::Error for WrapError {}

impl From<AsmError> for WrapError {
    fn from(e: AsmError) -> WrapError {
        WrapError::Asm(e)
    }
}

/// Emits the cache-wrapped version of `routine` (Figure 2b).
///
/// `tag` must be unique within the final program (label prefix).
///
/// # Errors
///
/// Returns [`WrapError::TooLarge`] when the wrapped image does not fit
/// the configured instruction-cache capacity — use [`plan_cached`] to
/// let the routine split itself instead.
pub fn wrap_cached(
    routine: &dyn SelfTestRoutine,
    env: &RoutineEnv,
    cfg: &WrapConfig,
    tag: &str,
) -> Result<Asm, WrapError> {
    let mut asm = Asm::new();
    emit_into(&mut asm, routine, env, cfg, tag);
    // Size check against the I$ (only the looped section must be
    // resident, but checking the whole image is conservative and simple).
    let probe = asm.assemble(0)?;
    if probe.len_bytes() > cfg.icache_capacity as usize {
        return Err(WrapError::TooLarge {
            image_bytes: probe.len_bytes(),
            capacity: cfg.icache_capacity,
        });
    }
    Ok(asm)
}

/// Emits the wrapper into an existing program (STL sequences).
pub(crate) fn emit_into(
    asm: &mut Asm,
    routine: &dyn SelfTestRoutine,
    env: &RoutineEnv,
    cfg: &WrapConfig,
    tag: &str,
) {
    // (a) setup.
    asm.li(RESULT_REG, env.result_addr);
    asm.li(LOOP_REG, cfg.iterations.max(1));
    // (b) cache invalidation.
    if cfg.invalidate {
        asm.icinv();
        asm.dcinv();
    }
    // Internal 16-byte alignment: the body's packet pairing (and thus
    // the deterministic signature) is independent of the scenario's
    // base-alignment axis.
    asm.align(16);
    let top = format!("{tag}_loop");
    asm.label(&top);
    // The signature restarts every iteration: the loading loop's
    // (bus-disturbed) accumulation is discarded; only the execution
    // loop's value survives the final iteration.
    emit_init(asm);
    // (c)/(d) the unmodified single-core body.
    routine.emit_body(asm, env, tag);
    // (e) loop control — taken once, then falls through.
    asm.subi(LOOP_REG, LOOP_REG, 1);
    asm.bne(LOOP_REG, Reg::R0, &top);
    // Publish the signature.
    asm.sw(SIG_REG, RESULT_REG, RESULT_SIG_OFF);
    match cfg.expected_sig {
        Some(expected) => {
            let fail = format!("{tag}_fail");
            let done = format!("{tag}_done");
            asm.li(TMP_REG, expected);
            asm.bne(SIG_REG, TMP_REG, &fail);
            asm.li(TMP_REG, STATUS_PASS);
            asm.sw(TMP_REG, RESULT_REG, RESULT_STATUS_OFF);
            asm.j(&done);
            asm.label(&fail);
            asm.li(TMP_REG, STATUS_FAIL);
            asm.sw(TMP_REG, RESULT_REG, RESULT_STATUS_OFF);
            asm.label(&done);
        }
        None => {
            asm.li(TMP_REG, STATUS_DONE);
            asm.sw(TMP_REG, RESULT_REG, RESULT_STATUS_OFF);
        }
    }
    match cfg.terminator {
        Terminator::Halt => asm.halt(),
        Terminator::Ret => asm.ret(),
        Terminator::Fallthrough => {}
    }
}

/// Emits several wrapped routines back-to-back into one program
/// (fallthrough between them, `halt` at the end) — the shape of one
/// core's share of a boot-time STL. Routine `i` runs at
/// [`env.part(i)`](RoutineEnv::part).
pub fn wrap_sequence(
    routines: &[&dyn SelfTestRoutine],
    env: &RoutineEnv,
    cfg: &WrapConfig,
    tag: &str,
) -> Asm {
    let mut asm = Asm::new();
    let cfg = WrapConfig { terminator: Terminator::Fallthrough, ..*cfg };
    for (i, routine) in routines.iter().enumerate() {
        emit_into(&mut asm, *routine, &env.part(i), &cfg, &format!("{tag}_s{i}"));
    }
    asm.halt();
    asm
}

/// The split-to-fit search (paper §III.2.2) for a routine whose wrapped
/// image of `image_bytes` overflows `cfg.icache_capacity`: the fewest
/// parts, from 2 up to 8, that `routine` splits into such that every
/// part wrapped at [`env.part(i)`](RoutineEnv::part) fits the cache.
///
/// # Errors
///
/// [`WrapError::TooLarge`] with `image_bytes` when the routine cannot
/// split or no supported split fits.
pub fn split_to_fit(
    routine: &dyn SelfTestRoutine,
    env: &RoutineEnv,
    cfg: &WrapConfig,
    image_bytes: usize,
) -> Result<Vec<Box<dyn SelfTestRoutine>>, WrapError> {
    for parts in 2..=8usize {
        let Some(split) = routine.split(parts) else { break };
        let wrapped: Result<Vec<Asm>, WrapError> = split
            .iter()
            .enumerate()
            .map(|(i, part)| wrap_cached(part.as_ref(), &env.part(i), cfg, "probe"))
            .collect();
        match wrapped {
            Ok(_) => return Ok(split),
            Err(WrapError::TooLarge { .. }) => {}
            Err(e) => return Err(e),
        }
    }
    Err(WrapError::TooLarge { image_bytes, capacity: cfg.icache_capacity })
}

/// Wraps `routine`, splitting it with [`split_to_fit`] when the wrapped
/// image exceeds the cache. Part `i` runs at
/// [`env.part(i)`](RoutineEnv::part); read the parts' mailboxes back
/// with [`read_result`](crate::read_result).
///
/// # Errors
///
/// Propagates [`WrapError::TooLarge`] when even the smallest supported
/// split does not fit.
pub fn plan_cached(
    routine: &dyn SelfTestRoutine,
    env: &RoutineEnv,
    cfg: &WrapConfig,
    tag: &str,
) -> Result<Vec<Asm>, WrapError> {
    match wrap_cached(routine, env, cfg, tag) {
        Err(WrapError::TooLarge { image_bytes, .. }) => {
            let parts = split_to_fit(routine, env, cfg, image_bytes)?;
            parts
                .iter()
                .enumerate()
                .map(|(i, p)| wrap_cached(p.as_ref(), &env.part(i), cfg, &format!("{tag}_p{i}")))
                .collect()
        }
        whole => whole.map(|asm| vec![asm]),
    }
}
