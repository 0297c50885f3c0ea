//! One experiment: a routine, a core under test, a scenario, and the
//! machinery to run it fault-free or with one armed fault.

use std::ops::ControlFlow;
use std::sync::Arc;

use sbst_cpu::{CoreConfig, CoreKind};
use sbst_mem::CacheConfig;
use sbst_fault::{FaultPlane, FaultSite, Verdict};
use sbst_mem::{FlashImage, SRAM_BASE};
use sbst_soc::{RunOutcome, Scenario, Soc, SocBuilder, StopAt};
use sbst_stl::routines::GenericAluTest;
use sbst_stl::{
    read_result, split_to_fit, wrap_cached, wrap_sequence, RoutineEnv, SelfTestRoutine,
    Terminator, WrapConfig, WrapError,
};

/// Builds the (core-kind specific) routine each core of the SoC runs.
pub type RoutineFactory<'a> = dyn Fn(CoreKind) -> Box<dyn SelfTestRoutine> + Sync + 'a;

/// Execution style of the core under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecStyle {
    /// Legacy execution: single pass, no cache management, caches off.
    LegacyUncached,
    /// The paper's cache-based wrapper on cached cores.
    CacheWrapped,
}

/// Full experiment configuration (the expanded form of
/// [`Experiment::assemble`]'s parameters).
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Core under test.
    pub kind: CoreKind,
    /// Execution style.
    pub style: ExecStyle,
    /// Scenario (active cores, code position, alignment, phase seed).
    pub scenario: Scenario,
    /// Wrapper loop iterations (2 = the paper's loading + execution).
    pub iterations: u32,
    /// Whether the wrapper invalidates the caches first.
    pub invalidate: bool,
    /// Instruction-cache geometry of the core under test (when cached).
    pub icache: CacheConfig,
    /// Data-cache geometry of the core under test (when cached).
    pub dcache: CacheConfig,
}

impl ExperimentConfig {
    /// The standard configuration for a style (paper cache geometry).
    pub fn new(kind: CoreKind, style: ExecStyle, scenario: Scenario) -> ExperimentConfig {
        let (iterations, invalidate) = match style {
            ExecStyle::CacheWrapped => (2, true),
            ExecStyle::LegacyUncached => (1, false),
        };
        ExperimentConfig {
            kind,
            style,
            scenario,
            iterations,
            invalidate,
            icache: CacheConfig::icache_8k(),
            dcache: CacheConfig::dcache_4k(),
        }
    }
}

/// Observables of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observation {
    /// SoC outcome.
    pub outcome: RunOutcome,
    /// Signature from the core under test's mailbox.
    pub signature: u32,
    /// Status word from the mailbox.
    pub status: u32,
    /// Total SoC cycles.
    pub cycles: u64,
    /// Stall counters of the core under test (IF, MEM).
    pub if_stalls: u64,
    /// Memory-stage stall cycles.
    pub mem_stalls: u64,
}

/// A golden-prefix snapshot of one experiment's SoC — the campaign
/// fast path.
///
/// Captured once per experiment at the last cycle *before* the core
/// under test issues its first instruction. Faults are armed only on
/// that core, and the fault plane is consulted exclusively by its
/// issue/execute/ICU logic (fetch and LSU never see it), so up to the
/// snapshot point a faulty run and the golden run are cycle-identical:
/// grading a fault can clone this state, arm the plane, and simulate
/// only the tail instead of re-booting the whole SoC from cycle 0.
/// The one unit active before first issue is the ICU (its tick runs
/// every cycle); verdict equivalence over full collapsed fault lists —
/// ICU faults included — is asserted by the warm-start test suite.
#[derive(Debug, Clone)]
pub struct Snapshot {
    soc: Soc,
    /// Absolute cycle budget of a warm run: the *same* golden-calibrated
    /// cutoff ([`hang_budget`]) the cold path passes to `Soc::run`,
    /// so the halted-by-the-deadline decision — and with it the hang
    /// verdict — is bit-identical between the two paths. A tighter
    /// budget (1.5× the golden tail) was tried and rejected: the
    /// equivalence suite found faults that *finish* at 2.4–2.8× golden
    /// (e.g. a stuck EPC bit re-executing code after every trap), which
    /// such a budget misclassifies as hangs. The warm path's win comes
    /// from skipping the prefix and from the early core-under-test halt
    /// exit, not from cutting hangs short; the PPSFP fallback's loop
    /// proof decides hangs early only by proving they reach this very
    /// budget.
    budget: u64,
}

impl Snapshot {
    /// Cycle at which the snapshot was captured (the fault-free prefix
    /// every warm run skips).
    pub fn cycle(&self) -> u64 {
        self.soc.cycle()
    }

    /// The warm run's absolute cycle budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// The captured SoC state itself (read-only). Custom grading engines
    /// clone it to start a tail simulation; with the copy-on-write
    /// backing stores in `sbst-mem` that clone is cheap.
    pub fn soc(&self) -> &Soc {
        &self.soc
    }
}

/// A fully configured experiment, cheap to re-run with different armed
/// faults (the Flash image is shared, never copied).
pub struct Experiment {
    builder: SocBuilder,
    image: Arc<FlashImage>,
    env_cut: RoutineEnv,
    /// Parts the core under test's routine runs as (more than one when
    /// it was split into cache-sized parts, paper §III.2.2).
    parts: usize,
    watchdog: u64,
    /// Fingerprint of the [`ExperimentConfig`] this experiment was
    /// assembled from (see
    /// [`fingerprint_config`](crate::fingerprint_config)) — binds
    /// checkpoints to the exact SoC configuration that graded them.
    config_fp: u64,
}

/// The hang cutoff of a program whose fault-free run takes
/// `golden_cycles`: a faulty run still going at `golden×4 + 20_000`
/// cycles is graded [`Verdict::Hang`].
pub(crate) fn hang_budget(golden_cycles: u64) -> u64 {
    golden_cycles * 4 + 20_000
}

/// Result-mailbox base of core `i` in campaign runs.
fn mailbox(i: usize) -> u32 {
    SRAM_BASE + 0x40 + 0x100 * i as u32
}

/// Scratch-data base of core `i` in campaign runs.
fn scratch(i: usize) -> u32 {
    SRAM_BASE + 0x4000 + 0x800 * i as u32
}

impl Experiment {
    /// Assembles the experiment: the core under test (`kind`) runs at
    /// index 0, the remaining active cores (other kinds, in order) run
    /// the same routine in parallel — the paper's "executed in parallel
    /// by the other cores".
    ///
    /// # Errors
    ///
    /// Propagates wrapper/assembly errors.
    pub fn assemble(
        factory: &RoutineFactory<'_>,
        kind: CoreKind,
        style: ExecStyle,
        scenario: &Scenario,
    ) -> Result<Experiment, WrapError> {
        Experiment::assemble_config(factory, &ExperimentConfig::new(kind, style, *scenario))
    }

    /// The fully explicit constructor (wrapper ablations, cache-geometry
    /// studies).
    ///
    /// # Errors
    ///
    /// Propagates wrapper/assembly errors.
    pub fn assemble_config(
        factory: &RoutineFactory<'_>,
        config: &ExperimentConfig,
    ) -> Result<Experiment, WrapError> {
        let ExperimentConfig { kind, style, ref scenario, iterations, invalidate, .. } =
            *config;
        let cached = style == ExecStyle::CacheWrapped;
        let wrap = WrapConfig {
            iterations,
            invalidate,
            icache_capacity: if cached { config.icache.size_bytes } else { u32::MAX },
            ..WrapConfig::default()
        };
        // Core kinds: the CUT first, then the others.
        let mut kinds = vec![kind];
        kinds.extend(CoreKind::ALL.iter().copied().filter(|&k| k != kind));
        kinds.truncate(scenario.active_cores.max(1));

        let delays = scenario.start_delays();
        let mut builder = SocBuilder::new();
        let mut env_cut = None;
        let mut parts = 1;
        for (i, &k) in kinds.iter().enumerate() {
            let env = RoutineEnv {
                result_addr: mailbox(i),
                data_base: scratch(i),
                ..RoutineEnv::for_core(k)
            };
            if i == 0 {
                env_cut = Some(env);
            }
            let routine = factory(k);
            let wrap = WrapConfig { terminator: Terminator::Halt, ..wrap };
            let asm = if i == 0 {
                match wrap_cached(routine.as_ref(), &env, &wrap, "c0") {
                    // Split into cache-sized parts run back to back, each
                    // with its own loading/execution loop and mailbox.
                    Err(WrapError::TooLarge { image_bytes, .. }) => {
                        let split = split_to_fit(routine.as_ref(), &env, &wrap, image_bytes)?;
                        parts = split.len();
                        let refs: Vec<&dyn SelfTestRoutine> =
                            split.iter().map(|p| p.as_ref()).collect();
                        wrap_sequence(&refs, &env, &wrap, "c0")
                    }
                    whole => whole?,
                }
            } else {
                // The other cores run their share of the STL: the same
                // routine plus generic boot-time tests whose length and
                // position in the sequence depend on the scenario — the
                // paper's varying "initial SoC configuration", which is
                // what makes the contention phase (and thus the graded
                // coverage) fluctuate between logic simulations.
                let filler = GenericAluTest::new(
                    3 + ((scenario.skew_seed as u32) * 7 + i as u32 * 5) % 11,
                );
                let seq: Vec<&dyn SelfTestRoutine> =
                    if (scenario.skew_seed as usize + i).is_multiple_of(2) {
                        vec![routine.as_ref(), &filler]
                    } else {
                        vec![&filler, routine.as_ref()]
                    };
                let wrap = WrapConfig { icache_capacity: u32::MAX, ..wrap };
                wrap_sequence(&seq, &env, &wrap, &format!("c{i}"))
            };
            let base = scenario.code_base(i);
            let program = asm.assemble(base)?;
            builder = builder.load(&program);
            // The execution style only applies to the core under test;
            // the other cores run like the application normally does —
            // caches on — which makes their bus pressure *bursty*
            // (cold-miss phases, then write-through drains): the
            // intermittent contention behind the paper's coverage
            // oscillation.
            let cfg = if i == 0 && cached {
                CoreConfig {
                    icache: Some(config.icache),
                    dcache: Some(config.dcache),
                    ..CoreConfig::cached(k, i, base)
                }
            } else if i > 0 {
                CoreConfig::cached(k, i, base)
            } else {
                CoreConfig::uncached(k, i, base)
            };
            builder = builder.core(cfg, delays[i.min(2)]);
        }
        let image = builder.freeze_image();
        let mut exp = Experiment {
            builder,
            image,
            env_cut: env_cut.expect("at least one core"),
            parts,
            watchdog: 50_000_000,
            config_fp: crate::checkpoint::fingerprint_config(config),
        };
        // Calibrate the watchdog from the golden run.
        let golden = exp.run(FaultPlane::fault_free());
        assert!(
            golden.outcome.is_clean(),
            "golden run must halt cleanly, got {:?}",
            golden.outcome
        );
        exp.watchdog = hang_budget(golden.cycles);
        Ok(exp)
    }

    /// The core under test's routine environment.
    pub fn env(&self) -> RoutineEnv {
        self.env_cut
    }

    /// Fingerprint of the configuration this experiment was assembled
    /// from — what checkpoints of its campaigns are bound to.
    pub fn config_fingerprint(&self) -> u64 {
        self.config_fp
    }

    /// Runs the experiment once with `plane` armed on the core under
    /// test.
    ///
    /// When the routine was split, the parts' mailboxes are folded by
    /// [`read_result`] into one signature and status.
    pub fn run(&self, plane: FaultPlane) -> Observation {
        let mut soc = self.builder.build_shared(Arc::clone(&self.image));
        soc.core_mut(0).set_plane(plane);
        let outcome = soc.run(self.watchdog);
        self.observe(&soc, outcome)
    }

    /// Folds the core under test's mailboxes, each word read through
    /// `peek`, into its `(signature, status)` pair.
    pub(crate) fn read_result(&self, peek: impl FnMut(u32) -> u32) -> (u32, u32) {
        read_result(&self.env_cut, self.parts, peek)
    }

    /// Reads the core under test's mailboxes and counters off a stopped
    /// SoC.
    pub(crate) fn observe(&self, soc: &Soc, outcome: RunOutcome) -> Observation {
        observe(soc, outcome, self.read_result(|addr| soc.peek(addr)))
    }

    /// Captures the warm-start [`Snapshot`]: the SoC state immediately
    /// before the step in which the core under test issues its first
    /// instruction (issue precedes fetch within a step, so this is the
    /// last state no instruction of that core has influenced).
    ///
    /// # Panics
    ///
    /// Panics if the core under test never issues within the golden
    /// cycle count — that would mean the golden run itself was broken.
    pub fn snapshot(&self, golden: &Observation) -> Snapshot {
        let mut soc = self.builder.build_shared(Arc::clone(&self.image));
        let mut prev = soc.clone();
        while soc.core(0).instructions_issued() == 0 {
            prev = soc.clone();
            soc.step();
            assert!(
                soc.cycle() <= golden.cycles,
                "core under test never issued within the golden run"
            );
        }
        Snapshot { budget: self.watchdog, soc: prev }
    }

    /// Runs one fault from `snapshot` instead of from reset: clones the
    /// snapshot, arms `plane` on the core under test and simulates only
    /// the tail, stopping as soon as the verdict is decided —
    ///
    /// - any fatal trap decides [`Verdict::UnexpectedTrap`];
    /// - the core under test halting decides the signature/status
    ///   comparison: halting requires a drained pipeline and quiescent
    ///   LSU, so its mailbox writes have reached SRAM, and the other
    ///   cores are fault-free and deterministic — they always halt
    ///   cleanly exactly as in the golden run, so waiting for them
    ///   cannot change the classification;
    /// - the golden-calibrated [`Snapshot::budget`] expiring (or the
    ///   software watchdog biting) decides [`Verdict::Hang`].
    pub fn run_warm(&self, snapshot: &Snapshot, plane: FaultPlane) -> Observation {
        self.run_tail(snapshot, plane, |_| ControlFlow::Continue(()))
    }

    /// [`run_warm`](Experiment::run_warm) with a per-step `hook` (see
    /// [`Soc::run_until`]) — how the PPSFP fallback adds its loop proof
    /// to the warm path.
    pub(crate) fn run_tail(
        &self,
        snapshot: &Snapshot,
        plane: FaultPlane,
        hook: impl FnMut(&mut Soc) -> ControlFlow<RunOutcome>,
    ) -> Observation {
        let mut soc = snapshot.soc.clone();
        soc.core_mut(0).set_plane(plane);
        let outcome = soc.run_until(snapshot.budget, StopAt::CoreHalted(0), hook);
        self.observe(&soc, outcome)
    }

    /// Runs fault-free (the golden reference of this scenario).
    pub fn golden(&self) -> Observation {
        self.run(FaultPlane::fault_free())
    }

    /// Classifies a faulty observation against the golden one.
    ///
    /// In-field detection order: a hung core is caught by the watchdog,
    /// an unexpected trap by the (absent) handler, then the signature
    /// comparison, then the routine's own status word.
    pub fn classify(golden: &Observation, faulty: &Observation) -> Verdict {
        match faulty.outcome {
            RunOutcome::Watchdog { .. } => Verdict::Hang,
            RunOutcome::FatalTrap { .. } => Verdict::UnexpectedTrap,
            RunOutcome::AllHalted { .. } => {
                if faulty.signature != golden.signature {
                    Verdict::WrongSignature
                } else if faulty.status != golden.status {
                    Verdict::TestFail
                } else {
                    Verdict::Undetected
                }
            }
        }
    }

    /// Convenience: run one fault and classify it.
    pub fn test_fault(&self, golden: &Observation, site: FaultSite) -> Verdict {
        let faulty = self.run(FaultPlane::armed(site));
        Experiment::classify(golden, &faulty)
    }

    /// Convenience: grade one fault through the warm-start fast path.
    pub fn test_fault_warm(
        &self,
        golden: &Observation,
        snapshot: &Snapshot,
        site: FaultSite,
    ) -> Verdict {
        let faulty = self.run_warm(snapshot, FaultPlane::armed(site));
        Experiment::classify(golden, &faulty)
    }
}

/// The [`Observation`] of a stopped SoC whose core 0 is under test,
/// given its folded mailbox words.
pub(crate) fn observe(
    soc: &Soc,
    outcome: RunOutcome,
    (signature, status): (u32, u32),
) -> Observation {
    let c = soc.core(0).counters();
    Observation {
        outcome,
        signature,
        status,
        cycles: soc.cycle(),
        if_stalls: c.if_stalls,
        mem_stalls: c.mem_stalls,
    }
}
