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
use sbst_soc::{RunOutcome, Soc, SocBuilder};
use sbst_stl::routines::ForwardingTest;
use sbst_stl::{
    plan_cached, wrap_cached, RoutineEnv, WrapConfig, WrapError, RESULT_SIG_OFF, RESULT_STATUS_OFF,
};

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
        let part_env = RoutineEnv { result_addr: env.result_addr + 16 * i as u32, ..env };
        let res = grade_each(part, &part_env, kind, faults, threads);
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

/// Grades a fault on one program: detected unless the run halts
/// cleanly with the golden mailbox.
struct SplitGrader {
    builder: SocBuilder,
    image: Arc<FlashImage>,
    result_addr: u32,
    golden: (u32, u32),
    watchdog: u64,
}

/// The (signature, status) words of the result mailbox at `addr`.
fn mailbox(soc: &Soc, addr: u32) -> (u32, u32) {
    (soc.peek(addr + RESULT_SIG_OFF as u32), soc.peek(addr + RESULT_STATUS_OFF as u32))
}

impl FaultGrader for SplitGrader {
    fn grade(&self, site: FaultSite) -> Verdict {
        let mut soc = self.builder.build_shared(Arc::clone(&self.image));
        soc.core_mut(0).set_plane(FaultPlane::armed(site));
        match soc.run(self.watchdog) {
            RunOutcome::AllHalted { .. } if mailbox(&soc, self.result_addr) == self.golden => {
                Verdict::Undetected
            }
            RunOutcome::AllHalted { .. } => Verdict::WrongSignature,
            RunOutcome::FatalTrap { .. } => Verdict::UnexpectedTrap,
            RunOutcome::Watchdog { .. } => Verdict::Hang,
        }
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
    let mut golden = builder.build_shared(Arc::clone(&image));
    let outcome = golden.run(50_000_000);
    assert!(outcome.is_clean(), "golden split run: {outcome:?}");
    let grader = SplitGrader {
        builder,
        image,
        result_addr: env.result_addr,
        golden: mailbox(&golden, env.result_addr),
        watchdog: golden.cycle() * 4 + 20_000,
    };
    let (_, records, _) = run_campaign_graded(&grader, faults, threads);
    records.iter().map(|&(_, v)| v.is_detected()).collect()
}
