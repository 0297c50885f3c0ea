//! Workspace-level PPSFP equivalence wall: the bit-parallel tier must
//! return verdicts bit-identical to the serial warm path through the
//! `det-sbst` facade. The exhaustive full-list walls live in
//! `crates/campaign/tests/ppsfp_equivalence.rs`; this sampled gate keeps
//! the invariant in the default `cargo test` run at debug-build speed.

use det_sbst::campaign::{
    routines_for, run_campaign_ppsfp_telemetry, run_campaign_warm_detailed, ExecStyle,
    Experiment, ExperimentConfig,
};
use det_sbst::cpu::{unit_fault_list, CoreKind};
use det_sbst::fault::Unit;
use det_sbst::mem::{CacheConfig, WritePolicy};
use det_sbst::soc::Scenario;

fn exp_for(unit: Unit) -> Experiment {
    let factory = routines_for(unit);
    Experiment::assemble(
        &*factory,
        CoreKind::A,
        ExecStyle::CacheWrapped,
        &Scenario { active_cores: 3, ..Scenario::single_core() },
    )
    .expect("experiment assembles")
}

#[test]
fn ppsfp_verdicts_match_warm_on_a_sampled_forwarding_list() {
    let exp = exp_for(Unit::Forwarding);
    let golden = exp.golden();
    let faults = unit_fault_list(CoreKind::A, Unit::Forwarding).sample(40);
    let (_, warm) = run_campaign_warm_detailed(&exp, &golden, &faults, 0);
    let (result, ppsfp, stats) = run_campaign_ppsfp_telemetry(&exp, &golden, &faults, 0);
    assert_eq!(result.total, faults.len(), "every fault graded exactly once");
    assert_eq!(result.sim_errors, 0);
    assert!(stats.ridden_words > 0, "forwarding faults must ride the golden tail");
    for (w, p) in warm.iter().zip(&ppsfp) {
        assert_eq!(w, p, "PPSFP verdict diverged from serial at {:?}", w.0);
    }
}

#[test]
fn ppsfp_verdicts_match_warm_on_a_split_forwarding_routine() {
    // A 2 KiB I$ splits the forwarding routine into cache-sized parts:
    // every ridden lane folds several mailboxes into its observation.
    let config = ExperimentConfig {
        icache: CacheConfig {
            size_bytes: 2 * 1024,
            ways: 2,
            line_bytes: 32,
            policy: WritePolicy::WriteAllocate,
        },
        ..ExperimentConfig::new(
            CoreKind::A,
            ExecStyle::CacheWrapped,
            Scenario { active_cores: 3, ..Scenario::single_core() },
        )
    };
    let factory = routines_for(Unit::Forwarding);
    let exp = Experiment::assemble_config(&*factory, &config).expect("experiment assembles");
    let golden = exp.golden();
    let faults = unit_fault_list(CoreKind::A, Unit::Forwarding).sample(40);
    let (_, warm) = run_campaign_warm_detailed(&exp, &golden, &faults, 0);
    let (result, ppsfp, stats) = run_campaign_ppsfp_telemetry(&exp, &golden, &faults, 0);
    assert_eq!(result.total, faults.len(), "every fault graded exactly once");
    assert_eq!(result.sim_errors, 0);
    assert!(stats.ridden_words > 0, "forwarding faults must ride the golden tail");
    assert_eq!(warm, ppsfp);
}

#[test]
fn ppsfp_forced_fallback_matches_warm_on_a_sampled_hdcu_list() {
    // HDCU faults perturb stall timing, so every lane falls back to the
    // serial path (with the livelock short-circuit active) — and the
    // verdicts must still be identical.
    let exp = exp_for(Unit::Hdcu);
    let golden = exp.golden();
    let faults = unit_fault_list(CoreKind::A, Unit::Hdcu).sample(60);
    let (_, warm) = run_campaign_warm_detailed(&exp, &golden, &faults, 0);
    let (_, ppsfp, stats) = run_campaign_ppsfp_telemetry(&exp, &golden, &faults, 0);
    assert_eq!(stats.fallback_faults, faults.len() as u64, "HDCU words must not ride");
    assert_eq!(warm, ppsfp);
}
