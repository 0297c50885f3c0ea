//! Fault-tolerant supervision of the decentralized boot-time STL.
//!
//! [`build_stl_program`](crate::sched::build_stl_program) assumes every
//! core completes its share of the Software Test Library; a single hung
//! or failing core leaves the whole boot report unusable. The
//! [`Supervisor`] wraps the same scheduler primitives (barrier,
//! watchdog arm/kick, cache-wrapped routines) in a host-side state
//! machine that *degrades* instead of dying:
//!
//! 1. every core's program installs a trap handler (via the
//!    software-writable `TrapVec` CSR) so an unexpected trap parks the
//!    core with a diagnostic flag instead of killing the simulation;
//! 2. the lowest active core arms the memory-mapped watchdog and kicks
//!    it between routines, so a hang anywhere bites within one routine
//!    budget;
//! 3. a core that misses its done-flag, publishes a FAIL status, or
//!    trips the trap handler is retried standalone up to
//!    [`SupervisorConfig::max_retries`] times — each retry rebuilds the
//!    SoC from the frozen image (cold caches: the deterministic wrapper
//!    re-invalidates and the loading loop re-warms) under a cycle
//!    budget that doubles per attempt;
//! 4. a core that exhausts its retries is **quarantined** and the
//!    parallel phase re-runs with the remaining cores behind a shrunken
//!    barrier, so one dead core never blocks the others' verdicts.
//!
//! The outcome is a [`DegradedReport`]: per-core
//! [`Passed`](CoreVerdict::Passed) /
//! [`PassedAfterRetry`](CoreVerdict::PassedAfterRetry) /
//! [`Quarantined`](CoreVerdict::Quarantined) verdicts a boot ROM could
//! act on (fuse off a core, enter limp-home mode, ...).

use std::collections::BTreeMap;

use sbst_cpu::CoreConfig;
use sbst_fault::FaultPlane;
use sbst_isa::{Asm, Csr, Reg};
use sbst_mem::ArbiterKind;
use sbst_soc::{ChaosConfig, RunOutcome, Soc, SocBuilder};

use crate::bound::BoundWatchdog;
use crate::harness::derive_cycle_budget;
use crate::routine::{RESULT_STATUS_OFF, STATUS_PASS};
use crate::sched::{
    emit_barrier, emit_watchdog_arm, emit_watchdog_kick, CoreStl, SchedLayout,
};
use crate::wrap::cache::{emit_into, WrapConfig};
use crate::wrap::{Terminator, WrapError};

/// The SoC's core count (core ids are `0..MAX_CORES`).
const MAX_CORES: usize = 3;

/// Value the trap handler parks in a core's trap flag.
const TRAP_FLAG: u32 = 0xdead_c0de;

/// Why a core was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineCause {
    /// A routine finished but its signature self-check failed.
    SignatureMismatch,
    /// The core never reached its done flag — in field this is the
    /// watchdog-bite path.
    WatchdogBite,
    /// The core took an unexpected trap into the supervisor's handler.
    UnexpectedTrap,
    /// One of the core's bus ports waited longer than the certified
    /// worst-case grant latency — the platform is not the certified one
    /// (or the certificate is wrong), so the routine's determinism
    /// argument is void regardless of what signature it produced.
    BoundViolation,
}

impl QuarantineCause {
    /// Short human-readable cause (also used in trace events).
    pub fn as_str(&self) -> &'static str {
        match self {
            QuarantineCause::SignatureMismatch => "signature mismatch",
            QuarantineCause::WatchdogBite => "watchdog bite",
            QuarantineCause::UnexpectedTrap => "unexpected trap",
            QuarantineCause::BoundViolation => "bound violation",
        }
    }
}

impl std::fmt::Display for QuarantineCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Final verdict of one supervised core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreVerdict {
    /// Every routine passed on the first parallel run.
    Passed,
    /// Every routine eventually passed, but only after `attempts`
    /// standalone retries (the core is suspect; field policy decides).
    PassedAfterRetry {
        /// Standalone retries consumed.
        attempts: usize,
    },
    /// The core exhausted its retries and was excluded from the
    /// remaining boot test.
    Quarantined {
        /// The failure mode of the *last* attempt.
        cause: QuarantineCause,
    },
}

impl std::fmt::Display for CoreVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreVerdict::Passed => f.write_str("PASSED"),
            CoreVerdict::PassedAfterRetry { attempts } => {
                write!(f, "PASSED after {attempts} retr{}", if *attempts == 1 { "y" } else { "ies" })
            }
            CoreVerdict::Quarantined { cause } => write!(f, "QUARANTINED ({cause})"),
        }
    }
}

/// The structured outcome of a supervised boot test.
#[derive(Debug, Clone)]
pub struct DegradedReport {
    verdicts: BTreeMap<usize, CoreVerdict>,
    /// Parallel-phase rounds executed.
    pub rounds: usize,
}

impl DegradedReport {
    /// Verdict of one core.
    pub fn verdict(&self, core: usize) -> Option<CoreVerdict> {
        self.verdicts.get(&core).copied()
    }

    /// `(core, verdict)` in core order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, CoreVerdict)> + '_ {
        self.verdicts.iter().map(|(&c, &v)| (c, v))
    }

    /// Cores that were quarantined, in core order.
    pub fn quarantined(&self) -> Vec<usize> {
        self.verdicts
            .iter()
            .filter(|(_, v)| matches!(v, CoreVerdict::Quarantined { .. }))
            .map(|(&c, _)| c)
            .collect()
    }

    /// Whether every core passed first time — the common, healthy case.
    pub fn fully_healthy(&self) -> bool {
        self.verdicts.values().all(|&v| v == CoreVerdict::Passed)
    }

    /// Whether at least one core was quarantined (degraded mode).
    pub fn degraded(&self) -> bool {
        !self.quarantined().is_empty()
    }
}

impl std::fmt::Display for DegradedReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "boot test ({} round{}):", self.rounds, if self.rounds == 1 { "" } else { "s" })?;
        for (core, verdict) in &self.verdicts {
            write!(f, " core{core}={verdict}")?;
        }
        Ok(())
    }
}

/// Supervisor tuning knobs.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Standalone retries granted to a failing core before quarantine.
    pub max_retries: usize,
    /// Watchdog reload value armed by the kicker core; 0 derives one
    /// from the largest program (it must exceed the slowest single
    /// routine plus the barrier wait).
    pub watchdog_timeout: u32,
    /// Host cycle budget for the parallel phase; 0 derives one from the
    /// program sizes. Retries double it per attempt.
    pub base_budget: u64,
    /// Deterministic wrapper applied to every routine (`expected_sig`
    /// is overridden per routine with its learned golden).
    pub wrap: WrapConfig,
    /// Shared-SRAM coordination block.
    pub layout: SchedLayout,
    /// Bus arbitration policy of every SoC the supervisor builds
    /// (parallel phase and standalone retries alike).
    pub arbiter: ArbiterKind,
    /// Chaos plane attached to every supervised run — the hook the
    /// robustness tests use to put adversarial traffic on the bus while
    /// the STL executes.
    pub chaos: Option<ChaosConfig>,
    /// When set, every run's observed per-port worst grant wait is
    /// checked against the bound certified by this watchdog *before*
    /// the routine statuses are consulted; a violation escalates like a
    /// trap, ending in [`QuarantineCause::BoundViolation`].
    pub bound_watchdog: Option<BoundWatchdog>,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            max_retries: 2,
            watchdog_timeout: 0,
            base_budget: 0,
            wrap: WrapConfig::default(),
            layout: SchedLayout::default(),
            arbiter: ArbiterKind::RoundRobin,
            chaos: None,
            bound_watchdog: None,
        }
    }
}

/// One supervised core: its STL share plus learned goldens and an
/// optional armed fault (test/diagnosis hook).
struct Supervised {
    stl: CoreStl,
    goldens: Vec<u32>,
    plane: FaultPlane,
    /// A fault armed for only the next `.1` runs — the transient hook:
    /// once consumed, the core runs with its permanent `plane` again.
    transient: Option<(FaultPlane, usize)>,
}

/// Host-side fault-tolerant driver of the decentralized boot STL — see
/// the module docs for the state machine.
///
/// # Example
///
/// ```
/// use sbst_cpu::CoreKind;
/// use sbst_mem::SRAM_BASE;
/// use sbst_stl::routines::{GenericAluTest, RegFileTest};
/// use sbst_stl::sched::CoreStl;
/// use sbst_stl::{RoutineEnv, Supervisor, SupervisorConfig};
///
/// # fn main() -> Result<(), sbst_stl::WrapError> {
/// let mut sup = Supervisor::new(SupervisorConfig::default());
/// for core in 0..2usize {
///     let env = RoutineEnv {
///         result_addr: SRAM_BASE + 0x2000 + 0x100 * core as u32,
///         data_base: SRAM_BASE + 0x4000 + 0x400 * core as u32,
///         ..RoutineEnv::for_core(CoreKind::ALL[core])
///     };
///     sup.add_core(core, CoreStl::new(
///         vec![Box::new(RegFileTest::new()), Box::new(GenericAluTest::new(2))],
///         env,
///     ));
/// }
/// let report = sup.run()?;
/// assert!(report.fully_healthy(), "{report}");
/// # Ok(())
/// # }
/// ```
pub struct Supervisor {
    cfg: SupervisorConfig,
    cores: BTreeMap<usize, Supervised>,
    /// Quarantine trace events of the last [`run`](Supervisor::run) —
    /// quarantine is a host-side decision, so the SoC-level observer
    /// cannot see it; the supervisor records it here instead.
    events: Vec<sbst_obs::TraceEvent>,
}

impl Supervisor {
    /// An empty supervisor.
    pub fn new(cfg: SupervisorConfig) -> Supervisor {
        Supervisor { cfg, cores: BTreeMap::new(), events: Vec::new() }
    }

    /// Trace events (currently: quarantines) recorded by the last
    /// [`run`](Supervisor::run).
    pub fn events(&self) -> &[sbst_obs::TraceEvent] {
        &self.events
    }

    /// Registers core `core`'s STL share. `stl.watchdog` is ignored —
    /// the supervisor owns watchdog policy.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range or already registered.
    pub fn add_core(&mut self, core: usize, stl: CoreStl) {
        assert!(core < MAX_CORES, "core must be 0..{MAX_CORES}");
        assert!(!stl.routines.is_empty(), "core {core} has no routines");
        let prev = self.cores.insert(
            core,
            Supervised {
                stl,
                goldens: Vec::new(),
                plane: FaultPlane::fault_free(),
                transient: None,
            },
        );
        assert!(prev.is_none(), "core {core} registered twice");
    }

    /// Arms a fault on one core for every subsequent run (parallel and
    /// standalone) — the hook the robustness tests use to make a core
    /// hang or fail deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `core` was not registered.
    pub fn set_plane(&mut self, core: usize, plane: FaultPlane) {
        self.cores.get_mut(&core).expect("core registered").plane = plane;
    }

    /// Arms a fault on one core for only the next `runs` runs (parallel
    /// or standalone); afterwards the core reverts to its permanent
    /// plane. This models a *transient* disturbance: the supervisor's
    /// standalone retry then faces a healthy core and should report
    /// [`CoreVerdict::PassedAfterRetry`], not quarantine.
    ///
    /// # Panics
    ///
    /// Panics if `core` was not registered.
    pub fn set_transient_plane(&mut self, core: usize, plane: FaultPlane, runs: usize) {
        self.cores.get_mut(&core).expect("core registered").transient = Some((plane, runs));
    }

    /// The plane `core` faces for the run being built *now*, consuming
    /// one transient charge if armed.
    fn plane_for_run(&mut self, core: usize) -> FaultPlane {
        let sup = self.cores.get_mut(&core).expect("core registered");
        if let Some((plane, runs)) = sup.transient {
            if runs > 0 {
                sup.transient = Some((plane, runs - 1));
                return plane;
            }
        }
        sup.plane
    }

    /// SRAM address of `core`'s trap flag (after the done flags).
    fn trap_addr(&self, core: usize) -> u32 {
        self.cfg.layout.done_base + 4 * MAX_CORES as u32 + 4 * core as u32
    }

    /// SRAM address of `core`'s done flag.
    fn done_addr(&self, core: usize) -> u32 {
        self.cfg.layout.done_base + 4 * core as u32
    }

    /// Emits core `core`'s supervised program: trap-handler install,
    /// watchdog arm (kicker only), barrier over `n_active` cores,
    /// wrapped routines with per-routine golden self-checks and
    /// inter-routine kicks, done flag, halt.
    fn emit_program(
        &self,
        core: usize,
        n_active: u32,
        kicker: bool,
        watchdog: u32,
        base: u32,
    ) -> Asm {
        let sup = &self.cores[&core];
        let tag = format!("sup{core}");
        let mut asm = Asm::new();
        // The handler sits at base + 4 (right after this jump): the
        // address is position-derived, so it can be materialised with a
        // plain `li` before any label arithmetic exists.
        asm.jal(Reg::R0, &format!("{tag}_start"));
        asm.label(&format!("{tag}_trap"));
        asm.li(Reg::R1, self.trap_addr(core));
        asm.li(Reg::R2, TRAP_FLAG);
        asm.sw(Reg::R2, Reg::R1, 0);
        asm.halt();
        asm.label(&format!("{tag}_start"));
        asm.li(Reg::R1, base + 4);
        asm.csrw(Csr::TrapVec, Reg::R1);
        if kicker {
            emit_watchdog_arm(&mut asm, watchdog);
        }
        emit_barrier(&mut asm, &self.cfg.layout, n_active, &tag);
        for (i, routine) in sup.stl.routines.iter().enumerate() {
            let cfg = WrapConfig {
                expected_sig: Some(sup.goldens[i]),
                terminator: Terminator::Fallthrough,
                ..self.cfg.wrap
            };
            let env = sup.stl.env.part(i);
            emit_into(&mut asm, routine.as_ref(), &env, &cfg, &format!("{tag}_r{i}"));
            if kicker {
                emit_watchdog_kick(&mut asm);
            }
        }
        asm.li(Reg::R1, self.done_addr(core));
        asm.li(Reg::R2, 1);
        asm.sw(Reg::R2, Reg::R1, 0);
        asm.halt();
        asm
    }

    /// Classifies one core after a run: `Ok(())` when it finished with
    /// every routine passing, else the failure cause. `slot` is the
    /// core's position in the SoC just run (its bus ports are `2·slot`
    /// and `2·slot + 1`), which differs from `core` once quarantines
    /// shrink the active set.
    fn classify(&self, soc: &Soc, core: usize, slot: usize) -> Result<(), QuarantineCause> {
        // A violated interference bound voids the determinism argument
        // for *everything* the core did this run — a hang or a bad
        // signature under a violated bound is a platform problem, not a
        // core problem, so the bound verdict comes first.
        if let Some(wd) = &self.cfg.bound_watchdog {
            if wd.check_core(soc, slot).is_some() {
                return Err(QuarantineCause::BoundViolation);
            }
        }
        if soc.peek(self.trap_addr(core)) == TRAP_FLAG {
            return Err(QuarantineCause::UnexpectedTrap);
        }
        if soc.peek(self.done_addr(core)) != 1 {
            return Err(QuarantineCause::WatchdogBite);
        }
        // Every routine's status is read on its own, not folded: a fold
        // keeps only the last non-DONE status, and a later PASS would
        // hide an earlier FAIL.
        let sup = &self.cores[&core];
        for i in 0..sup.stl.routines.len() {
            let status = soc.peek(sup.stl.env.part(i).result_addr + RESULT_STATUS_OFF as u32);
            if status != STATUS_PASS {
                return Err(QuarantineCause::SignatureMismatch);
            }
        }
        Ok(())
    }

    /// Learns every routine's golden signature (fault-free standalone
    /// cached runs, derived budgets).
    fn learn(&mut self) -> Result<(), WrapError> {
        let cores: Vec<usize> = self.cores.keys().copied().collect();
        for core in cores {
            let sup = &self.cores[&core];
            let mut goldens = Vec::with_capacity(sup.stl.routines.len());
            for i in 0..sup.stl.routines.len() {
                let sup = &self.cores[&core];
                let golden = crate::harness::learn_golden_cached(
                    sup.stl.routines[i].as_ref(),
                    &sup.stl.env.part(i),
                    &self.cfg.wrap,
                    sup.stl.env.core_kind,
                    0x1000,
                )?;
                goldens.push(golden);
            }
            self.cores.get_mut(&core).expect("core registered").goldens = goldens;
        }
        Ok(())
    }

    /// Builds and runs the parallel phase over `active`, returning the
    /// finished SoC and its outcome.
    fn run_parallel(
        &mut self,
        active: &[usize],
        watchdog: u32,
        budget: u64,
    ) -> Result<(Soc, RunOutcome), WrapError> {
        let kicker = active[0];
        let mut builder = SocBuilder::new().arbiter(self.cfg.arbiter);
        if let Some(chaos) = self.cfg.chaos {
            builder = builder.chaos(chaos);
        }
        let mut bases = Vec::new();
        for (slot, &core) in active.iter().enumerate() {
            let base = 0x1000 + 0x4_0000 * slot as u32;
            let asm =
                self.emit_program(core, active.len() as u32, core == kicker, watchdog, base);
            builder = builder.load(&asm.assemble(base)?);
            bases.push(base);
        }
        for (slot, &core) in active.iter().enumerate() {
            let kind = self.cores[&core].stl.env.core_kind;
            builder = builder.core(CoreConfig::cached(kind, slot, bases[slot]), slot as u32 * 3);
        }
        let mut soc = builder.build();
        for (slot, &core) in active.iter().enumerate() {
            let plane = self.plane_for_run(core);
            soc.core_mut(slot).set_plane(plane);
        }
        let outcome = soc.run(budget);
        Ok((soc, outcome))
    }

    /// One standalone retry of `core` under `budget` cycles. The SoC is
    /// rebuilt from scratch, so caches start cold: the wrapper's
    /// invalidation plus the loading loop re-warm them before the
    /// execution loop runs.
    fn run_standalone(
        &mut self,
        core: usize,
        watchdog: u32,
        budget: u64,
    ) -> Result<(Soc, RunOutcome), WrapError> {
        let base = 0x1000;
        let asm = self.emit_program(core, 1, true, watchdog, base);
        let kind = self.cores[&core].stl.env.core_kind;
        let mut builder = SocBuilder::new()
            .arbiter(self.cfg.arbiter)
            .load(&asm.assemble(base)?)
            .core(CoreConfig::cached(kind, 0, base), 0);
        if let Some(chaos) = self.cfg.chaos {
            builder = builder.chaos(chaos);
        }
        let mut soc = builder.build();
        let plane = self.plane_for_run(core);
        soc.core_mut(0).set_plane(plane);
        let outcome = soc.run(budget);
        Ok((soc, outcome))
    }

    /// Derived parallel-phase budget: the largest per-core program's
    /// derived budget, scaled by the number of cores sharing the bus.
    fn derive_budget(&self, active: &[usize]) -> u64 {
        let worst = active
            .iter()
            .map(|&core| {
                let asm = self.emit_program(core, active.len() as u32, true, 1, 0x1000);
                derive_cycle_budget(&asm)
            })
            .max()
            .unwrap_or(1_000_000);
        worst * active.len().max(1) as u64
    }

    /// Runs the supervised boot test to a [`DegradedReport`].
    ///
    /// # Errors
    ///
    /// Propagates wrapper/assembly errors (these are build defects, not
    /// in-field failures, and are never retried).
    ///
    /// # Panics
    ///
    /// Panics if no core was registered.
    pub fn run(&mut self) -> Result<DegradedReport, WrapError> {
        assert!(!self.cores.is_empty(), "no cores registered");
        self.events.clear();
        self.learn()?;

        let mut active: Vec<usize> = self.cores.keys().copied().collect();
        let budget = if self.cfg.base_budget != 0 {
            self.cfg.base_budget
        } else {
            self.derive_budget(&active)
        };
        // The watchdog only needs to outlast one routine plus the
        // barrier (it is kicked between routines), so the derived
        // timeout is one core's whole-program budget — a bite then
        // arrives well before the host budget expires.
        let watchdog = if self.cfg.watchdog_timeout != 0 {
            self.cfg.watchdog_timeout
        } else {
            u32::try_from(budget / active.len().max(1) as u64).unwrap_or(u32::MAX).max(1)
        };

        let mut verdicts: BTreeMap<usize, CoreVerdict> = BTreeMap::new();
        let mut attempts: BTreeMap<usize, usize> = BTreeMap::new();
        let mut rounds = 0;
        // Each round either ends cleanly or consumes at least one retry
        // (or quarantines a core), so the loop is bounded.
        let max_rounds = (self.cfg.max_retries + 1) * self.cores.len() + 1;

        while !active.is_empty() && rounds < max_rounds {
            rounds += 1;
            let (soc, _outcome) = self.run_parallel(&active, watchdog, budget)?;
            let mut last_cycle = soc.cycle();
            let failing: Vec<(usize, QuarantineCause)> = active
                .iter()
                .enumerate()
                .filter_map(|(slot, &core)| {
                    self.classify(&soc, core, slot).err().map(|c| (core, c))
                })
                .collect();
            if failing.is_empty() {
                for &core in &active {
                    let verdict = match attempts.get(&core) {
                        None | Some(0) => CoreVerdict::Passed,
                        Some(&attempts) => CoreVerdict::PassedAfterRetry { attempts },
                    };
                    verdicts.insert(core, verdict);
                }
                active.clear();
                break;
            }
            for (core, mut cause) in failing {
                let mut recovered = false;
                while *attempts.entry(core).or_insert(0) < self.cfg.max_retries {
                    let n = {
                        let a = attempts.get_mut(&core).expect("attempt counter");
                        *a += 1;
                        *a
                    };
                    let retry_budget = budget.saturating_mul(1 << n.min(16));
                    let retry_wdg = watchdog.saturating_mul(1 << n.min(16) as u32);
                    let (soc, _) = self.run_standalone(core, retry_wdg, retry_budget)?;
                    last_cycle = soc.cycle();
                    match self.classify(&soc, core, 0) {
                        Ok(()) => {
                            recovered = true;
                            break;
                        }
                        Err(c) => cause = c,
                    }
                }
                if !recovered {
                    verdicts.insert(core, CoreVerdict::Quarantined { cause });
                    active.retain(|&c| c != core);
                    self.events.push(sbst_obs::TraceEvent {
                        cycle: last_cycle,
                        core: u8::try_from(core).ok(),
                        kind: sbst_obs::TraceKind::Quarantine { cause: cause.as_str() },
                    });
                }
            }
        }
        // Unreachable in practice (the loop is bounded by retries), but
        // never report a core without a verdict.
        for core in active {
            verdicts
                .entry(core)
                .or_insert(CoreVerdict::Quarantined { cause: QuarantineCause::WatchdogBite });
        }
        Ok(DegradedReport { verdicts, rounds })
    }
}
