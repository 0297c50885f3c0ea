//! Routine-splitting coverage experiment (paper §III.2.2).
//!
//! The paper claims splitting an oversized routine into several smaller
//! cache-resident self-test procedures "does not compromise the fault
//! coverage of the original single-core test procedure". This experiment
//! verifies it: a fault counts as detected by the split plan when *any*
//! part detects it, and the union coverage is compared against the
//! unsplit routine graded with an unconstrained cache.

use std::sync::Arc;

use sbst_cpu::{CoreConfig, CoreKind};
use sbst_fault::{FaultList, FaultPlane, FaultSite, Verdict};
use sbst_mem::FlashImage;
use sbst_soc::SocBuilder;
use sbst_stl::routines::ForwardingTest;
use sbst_stl::{plan_cached, read_result, wrap_cached, RoutineEnv, WrapConfig, WrapError};

use crate::experiment::{hang_budget, observe, Experiment, Observation};
use crate::faultsim::{run_campaign_graded, FaultGrader};

/// Outcome of the split-vs-whole comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitComparison {
    /// Number of parts the routine was split into.
    pub parts: usize,
    /// Coverage of the unsplit routine \[%\].
    pub whole_coverage: f64,
    /// Union coverage of the split parts \[%\].
    pub split_coverage: f64,
    /// Faults graded.
    pub total: usize,
}

/// Runs the comparison on core C's forwarding routine (the largest one)
/// against `faults`, with the split forced by `capacity` bytes of I$.
///
/// # Errors
///
/// Propagates wrapper errors (e.g. the routine cannot split far enough).
pub fn split_union_coverage(
    kind: CoreKind,
    faults: &FaultList,
    capacity: u32,
    threads: usize,
) -> Result<SplitComparison, WrapError> {
    let routine = ForwardingTest::without_pcs(kind);
    let env = RoutineEnv::for_core(kind);

    // Whole routine, unconstrained capacity.
    let whole_cfg = WrapConfig { icache_capacity: u32::MAX, ..WrapConfig::default() };
    let whole = wrap_cached(&routine, &env, &whole_cfg, "whole")?;
    let whole_detected = grade_each(&whole, &env, kind, faults, threads);
    let whole_count = whole_detected.iter().filter(|&&d| d).count();

    // Split plan under the constrained capacity.
    let split_cfg = WrapConfig { icache_capacity: capacity, ..WrapConfig::default() };
    let parts = plan_cached(&routine, &env, &split_cfg, "part")?;
    assert!(parts.len() > 1, "capacity {capacity} did not force a split");
    // A fault is detected by the plan if any part detects it.
    let mut detected = vec![false; faults.len()];
    for (i, part) in parts.iter().enumerate() {
        let res = grade_each(part, &env.part(i), kind, faults, threads);
        for (d, v) in detected.iter_mut().zip(res) {
            *d |= v;
        }
    }
    let union = detected.iter().filter(|&&d| d).count();
    Ok(SplitComparison {
        parts: parts.len(),
        whole_coverage: 100.0 * whole_count as f64 / faults.len().max(1) as f64,
        split_coverage: 100.0 * union as f64 / faults.len().max(1) as f64,
        total: faults.len(),
    })
}

/// One single-core program on a cached core.
struct SplitProgram {
    builder: SocBuilder,
    image: Arc<FlashImage>,
    env: RoutineEnv,
}

impl SplitProgram {
    /// Runs the program with `plane` armed for at most `watchdog` cycles.
    fn run(&self, plane: FaultPlane, watchdog: u64) -> Observation {
        let mut soc = self.builder.build_shared(Arc::clone(&self.image));
        soc.core_mut(0).set_plane(plane);
        let outcome = soc.run(watchdog);
        observe(&soc, outcome, read_result(&self.env, 1, |addr| soc.peek(addr)))
    }
}

/// Grades a fault on one program against its golden run.
struct SplitGrader {
    program: SplitProgram,
    golden: Observation,
}

impl FaultGrader for SplitGrader {
    fn grade(&self, site: FaultSite) -> Verdict {
        let faulty = self.program.run(FaultPlane::armed(site), hang_budget(self.golden.cycles));
        Experiment::classify(&self.golden, &faulty)
    }
}

/// Per-fault detection vector for one program.
fn grade_each(
    asm: &sbst_isa::Asm,
    env: &RoutineEnv,
    kind: CoreKind,
    faults: &FaultList,
    threads: usize,
) -> Vec<bool> {
    let base = 0x400;
    let program = asm.assemble(base).expect("assembles");
    let builder = SocBuilder::new()
        .load(&program)
        .core(CoreConfig::cached(kind, 0, base), 0);
    let image = builder.freeze_image();
    let program = SplitProgram { builder, image, env: *env };
    let golden = program.run(FaultPlane::fault_free(), 50_000_000);
    assert!(golden.outcome.is_clean(), "golden split run: {:?}", golden.outcome);
    let (_, records, _) = run_campaign_graded(&SplitGrader { program, golden }, faults, threads);
    records.iter().map(|&(_, v)| v.is_detected()).collect()
}
