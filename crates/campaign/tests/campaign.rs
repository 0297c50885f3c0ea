//! Campaign-level integration tests: the fault-simulation engine and the
//! table shapes at miniature effort.

use sbst_campaign::{routines_for, run_campaign, ExecStyle, Experiment};
use sbst_cpu::{unit_fault_list, CoreKind};
use sbst_fault::{Element, FaultPlane, FaultSite, Polarity, Unit, Verdict};
use sbst_soc::Scenario;

fn cached_exp(kind: CoreKind, unit: Unit) -> Experiment {
    let factory = routines_for(unit);
    Experiment::assemble(
        &*factory,
        kind,
        ExecStyle::CacheWrapped,
        &Scenario { active_cores: 3, ..Scenario::single_core() },
    )
    .expect("experiment assembles")
}

#[test]
fn golden_run_is_reproducible() {
    let exp = cached_exp(CoreKind::A, Unit::Forwarding);
    let g1 = exp.golden();
    let g2 = exp.golden();
    assert_eq!(g1, g2, "same experiment, same observation");
    assert!(g1.outcome.is_clean());
    assert_ne!(g1.signature, 0);
}

#[test]
fn known_fault_is_detected_with_the_right_verdict() {
    let exp = cached_exp(CoreKind::A, Unit::Forwarding);
    let golden = exp.golden();
    // A stuck output bit on the slot-0 operand-A mux corrupts forwarded
    // values AND load addresses: detected either by the signature or by
    // an unaligned-access trap.
    let site = FaultSite {
        unit: Unit::Forwarding,
        instance: 0,
        element: Element::MuxOrOut { bit: 0 },
        polarity: Polarity::StuckAt1,
    };
    let verdict = exp.test_fault(&golden, site);
    assert!(verdict.is_detected(), "{verdict}");
    // A stuck data bit on the EX/MEM *forwarding input* of the slot-0
    // operand-B mux only corrupts forwarded computation values (control
    // flow reads the register-file input): the detection must come from
    // the signature comparison.
    let site = FaultSite {
        unit: Unit::Forwarding,
        instance: 1,
        element: Element::MuxDataIn { src: sbst_cpu::SRC_EXMEM_P0 as u8, bit: 12 },
        polarity: Polarity::StuckAt1,
    };
    assert_eq!(exp.test_fault(&golden, site), Verdict::WrongSignature);
}

#[test]
fn permanent_stall_fault_hangs_and_is_detected() {
    let exp = cached_exp(CoreKind::A, Unit::Hdcu);
    let golden = exp.golden();
    let site = FaultSite {
        unit: Unit::Hdcu,
        instance: sbst_cpu::HDCU_CTRL,
        element: Element::StallLine { line: 4 },
        polarity: Polarity::StuckAt1,
    };
    assert_eq!(exp.test_fault(&golden, site), Verdict::Hang);
}

#[test]
fn fault_free_plane_is_undetected() {
    let exp = cached_exp(CoreKind::A, Unit::Icu);
    let golden = exp.golden();
    let faulty = exp.run(FaultPlane::fault_free());
    assert_eq!(Experiment::classify(&golden, &faulty), Verdict::Undetected);
}

#[test]
fn campaign_aggregates_and_parallelism_matches_serial() {
    let exp = cached_exp(CoreKind::A, Unit::Icu);
    let golden = exp.golden();
    let faults = unit_fault_list(CoreKind::A, Unit::Icu).sample(12);
    let serial = run_campaign(&exp, &golden, &faults, 1);
    let parallel = run_campaign(&exp, &golden, &faults, 4);
    assert_eq!(serial, parallel, "verdicts are order-independent");
    assert_eq!(serial.total, faults.len());
    assert!(serial.detected() > 0, "{serial}");
    assert!(serial.undetected > 0, "some faults must stay masked: {serial}");
}

#[test]
fn cached_coverage_beats_single_core_uncached() {
    // The Table III headline at miniature scale.
    let kind = CoreKind::A;
    let faults = unit_fault_list(kind, Unit::Hdcu).sample(10);
    let factory = routines_for(Unit::Hdcu);
    let single = Experiment::assemble(
        &*factory,
        kind,
        ExecStyle::LegacyUncached,
        &Scenario::single_core(),
    )
    .expect("single");
    let golden = single.golden();
    let fc_single = run_campaign(&single, &golden, &faults, 0).coverage();
    let multi = cached_exp(kind, Unit::Hdcu);
    let golden = multi.golden();
    let fc_multi = run_campaign(&multi, &golden, &faults, 0).coverage();
    assert!(
        fc_multi > fc_single,
        "cache-wrapped multi-core FC ({fc_multi:.1}) must exceed \
         single-core-no-cache FC ({fc_single:.1})"
    );
}

#[test]
fn uncached_coverage_varies_with_the_scenario() {
    // The Table II min-max mechanism at miniature scale.
    let kind = CoreKind::A;
    let faults = unit_fault_list(kind, Unit::Forwarding).sample(16);
    let factory = routines_for(Unit::Forwarding);
    let mut coverages = Vec::new();
    for seed in 0..4 {
        let scenario = Scenario {
            active_cores: 3,
            skew_seed: seed,
            ..Scenario::single_core()
        };
        let exp = Experiment::assemble(&*factory, kind, ExecStyle::LegacyUncached, &scenario)
            .expect("uncached");
        let golden = exp.golden();
        coverages.push(run_campaign(&exp, &golden, &faults, 0).coverage());
    }
    let min = coverages.iter().cloned().fold(f64::MAX, f64::min);
    let max = coverages.iter().cloned().fold(f64::MIN, f64::max);
    assert!(
        max > min,
        "uncached coverage must oscillate across scenarios: {coverages:?}"
    );
}

#[test]
fn table4_shape() {
    let rows = sbst_campaign::tables::table4();
    assert_eq!(rows[0].approach, "TCM-based");
    assert_eq!(rows[1].approach, "Cache-based");
    assert!(rows[0].overhead_bytes > 0, "TCM reserves memory");
    assert_eq!(rows[1].overhead_bytes, 0, "cache-based is footprint-free");
    assert!(
        rows[1].cycles > rows[0].cycles,
        "cache-based pays extra cycles: {} vs {}",
        rows[1].cycles,
        rows[0].cycles
    );
    let ratio = rows[1].cycles as f64 / rows[0].cycles as f64;
    assert!(ratio < 2.0, "but within a small factor, got {ratio:.2}");
}

#[test]
fn table1_stalls_grow_superlinearly() {
    let effort = sbst_campaign::tables::Effort {
        max_faults: 1,
        sweep_scenarios: 1,
        seeds: 1,
        threads: 0,
    };
    let rows = sbst_campaign::tables::table1(&effort);
    assert_eq!(rows.len(), 3);
    assert!(rows[1].if_stalls > 2 * rows[0].if_stalls, "{rows:?}");
    assert!(rows[2].if_stalls > rows[1].if_stalls, "{rows:?}");
    for r in &rows {
        assert!(r.if_stalls > r.mem_stalls, "IF stalls dominate: {rows:?}");
    }
}

#[test]
fn ablation_loading_loop_is_what_buys_determinism() {
    use sbst_campaign::ablation::{ablate, Variant};
    let effort = sbst_campaign::tables::Effort {
        max_faults: 1, // determinism probing only
        sweep_scenarios: 1,
        seeds: 3,
        threads: 0,
    };
    let rows = ablate(CoreKind::A, &effort);
    let by = |v: Variant| rows.iter().find(|r| r.variant == v).expect("variant present");
    assert!(by(Variant::Full).deterministic);
    assert!(by(Variant::ThreeIterations).deterministic);
    assert!(
        !by(Variant::NoLoadingLoop).deterministic,
        "without the loading loop the execution is bus-exposed"
    );
    assert!(!by(Variant::Uncached).deterministic);
    assert!(
        by(Variant::ThreeIterations).cycles > by(Variant::Full).cycles,
        "the third iteration only costs time"
    );
}

#[test]
fn split_plan_preserves_union_coverage() {
    // Paper §III.2.2: splitting must not compromise coverage.
    let kind = CoreKind::A;
    let faults = unit_fault_list(kind, Unit::Forwarding).sample(96);
    let cmp = sbst_campaign::split::split_union_coverage(kind, &faults, 2048, 0)
        .expect("split comparison");
    assert!(cmp.parts >= 2);
    assert!(
        cmp.split_coverage >= cmp.whole_coverage - 1e-9,
        "union of parts ({:.2}%) must reach the whole routine ({:.2}%)",
        cmp.split_coverage,
        cmp.whole_coverage
    );
}

#[test]
fn every_major_fault_category_is_detectable() {
    // Guards against "dead" fault categories: for each structurally
    // important element class, at least one sampled site must be
    // detected by the unit's own routine under the cached wrapper.
    use sbst_fault::Element;
    type Category = (Unit, fn(&Element) -> bool, &'static str);
    let categories: [Category; 10] = [
        (Unit::Forwarding, |e| matches!(e, Element::MuxDataIn { .. }), "MuxDataIn"),
        (Unit::Forwarding, |e| matches!(e, Element::MuxSelStem { .. }), "MuxSelStem"),
        (Unit::Forwarding, |e| matches!(e, Element::MuxAndOut { .. }), "MuxAndOut"),
        (Unit::Forwarding, |e| matches!(e, Element::MuxOrOut { .. }), "MuxOrOut"),
        (Unit::Hdcu, |e| matches!(e, Element::CmpOut), "CmpOut"),
        (Unit::Hdcu, |e| matches!(e, Element::SelEncLine { .. }), "SelEncLine"),
        (Unit::Icu, |e| matches!(e, Element::PendSetLine { .. }), "PendSetLine"),
        (Unit::Icu, |e| matches!(e, Element::RecognizeLine), "RecognizeLine"),
        (Unit::Icu, |e| matches!(e, Element::EpcBit { .. }), "EpcBit"),
        (Unit::Icu, |e| matches!(e, Element::DepthBit { .. }), "DepthBit"),
    ];
    for (unit, matcher, name) in categories {
        let exp = cached_exp(CoreKind::A, unit);
        let golden = exp.golden();
        let sites: Vec<_> = unit_fault_list(CoreKind::A, unit)
            .iter()
            .filter(|s| matcher(&s.element))
            .copied()
            .collect();
        assert!(!sites.is_empty(), "{name}: category not enumerated");
        let detected = sites
            .iter()
            .step_by((sites.len() / 6).max(1))
            .any(|&site| exp.test_fault(&golden, site).is_detected());
        assert!(detected, "{name}: no sampled site detected — dead category");
    }
}

#[test]
fn detailed_campaign_matches_the_aggregate() {
    use sbst_campaign::run_campaign_detailed;
    let exp = cached_exp(CoreKind::A, Unit::Icu);
    let golden = exp.golden();
    let faults = unit_fault_list(CoreKind::A, Unit::Icu).sample(10);
    let aggregate = run_campaign(&exp, &golden, &faults, 0);
    let (agg2, records) = run_campaign_detailed(&exp, &golden, &faults, 0);
    assert_eq!(aggregate, agg2);
    assert_eq!(records.len(), faults.len());
    let detected = records.iter().filter(|(_, v)| v.is_detected()).count();
    assert_eq!(detected, aggregate.detected());
    // Order matches the fault list.
    for ((site, _), expected) in records.iter().zip(faults.iter()) {
        assert_eq!(site, expected);
    }
}

#[test]
fn effort_sampling_keeps_both_polarities() {
    use sbst_campaign::tables::Effort;
    use sbst_fault::Polarity;
    // Fault lists enumerate polarities adjacently; the sampler must not
    // collapse onto one polarity (a stride-parity artifact).
    let list = unit_fault_list(CoreKind::A, Unit::Hdcu);
    for max_faults in [10, 50, 100, 127, 250] {
        let effort = Effort { max_faults, sweep_scenarios: 1, seeds: 1, threads: 1 };
        let sample = effort.sample(&list);
        assert!(sample.len() <= max_faults + max_faults / 2, "budget respected-ish");
        let sa0 = sample.iter().filter(|s| s.polarity == Polarity::StuckAt0).count();
        let sa1 = sample.len() - sa0;
        assert!(sa0 > 0 && sa1 > 0, "max_faults={max_faults}: sa0={sa0} sa1={sa1}");
    }
}

#[test]
fn undersized_icache_splits_and_preserves_determinism_and_coverage() {
    use sbst_campaign::ExperimentConfig;
    use sbst_mem::{CacheConfig, WritePolicy};
    // Paper §III.2.2 at system level: with a 2 KiB I$ the forwarding
    // routine cannot fit; the experiment splits it and the method still
    // yields a deterministic signature and the same coverage as at 8 KiB.
    let kind = CoreKind::A;
    let factory = routines_for(Unit::Forwarding);
    let faults = unit_fault_list(kind, Unit::Forwarding).sample(45);
    let fc_at = |size_bytes: u32| {
        let icache = CacheConfig {
            size_bytes,
            ways: 2,
            line_bytes: 32,
            policy: WritePolicy::WriteAllocate,
        };
        let mut sigs = Vec::new();
        let mut fc = 0.0;
        for seed in 0..2 {
            let config = ExperimentConfig {
                icache,
                ..ExperimentConfig::new(
                    kind,
                    ExecStyle::CacheWrapped,
                    Scenario { active_cores: 3, skew_seed: seed, ..Scenario::single_core() },
                )
            };
            let exp =
                Experiment::assemble_config(&*factory, &config).expect("assembles");
            let golden = exp.golden();
            sigs.push(golden.signature);
            if seed == 0 {
                fc = run_campaign(&exp, &golden, &faults, 0).coverage();
            }
        }
        assert_eq!(sigs[0], sigs[1], "deterministic at {size_bytes} B");
        fc
    };
    let small = fc_at(2 * 1024);
    let paper = fc_at(8 * 1024);
    assert!(
        (small - paper).abs() < 1e-9,
        "splitting must not change coverage: {small:.2} vs {paper:.2}"
    );
}

#[test]
fn unsplittable_routine_reports_its_real_size_when_it_overflows_the_icache() {
    use sbst_campaign::ExperimentConfig;
    use sbst_mem::{CacheConfig, WritePolicy};
    use sbst_stl::WrapError;
    // The ICU routine cannot split: on a 256 B I$ assembly must fail and
    // name the wrapped image's real size.
    let factory = routines_for(Unit::Icu);
    let config = ExperimentConfig {
        icache: CacheConfig {
            size_bytes: 256,
            ways: 2,
            line_bytes: 32,
            policy: WritePolicy::WriteAllocate,
        },
        ..ExperimentConfig::new(CoreKind::A, ExecStyle::CacheWrapped, Scenario::single_core())
    };
    match Experiment::assemble_config(&*factory, &config) {
        Err(WrapError::TooLarge { image_bytes, capacity }) => {
            assert_eq!(capacity, 256);
            assert!(image_bytes > capacity as usize, "reported {image_bytes} B");
        }
        Err(e) => panic!("expected TooLarge, got {e}"),
        Ok(_) => panic!("expected TooLarge, the experiment assembled"),
    }
}

#[test]
fn fault_collapsing_preserves_campaign_verdicts() {
    use sbst_fault::collapse;
    // For a sample of equivalence classes with >1 member, every member
    // must get the same verdict as its representative in a real
    // cache-wrapped campaign — the semantic contract of collapsing.
    let exp = cached_exp(CoreKind::A, Unit::Forwarding);
    let golden = exp.golden();
    let list = unit_fault_list(CoreKind::A, Unit::Forwarding);
    let collapsed = collapse(&list);
    assert!(
        collapsed.classes() < list.len(),
        "collapsing must reduce the universe: {} -> {}",
        list.len(),
        collapsed.classes()
    );
    // Pick a handful of multi-member classes spread over the list.
    let mut checked = 0;
    for (i, rep) in collapsed.representatives().iter().enumerate().step_by(97) {
        if collapsed.class_size(i) < 2 {
            continue;
        }
        let rep_verdict = exp.test_fault(&golden, *rep);
        // Find one member that maps to this class (other than the rep).
        let member = list.iter().find(|s| {
            **s != *rep && {
                let c = collapse(&sbst_fault::FaultList::from_sites(vec![**s]));
                c.representatives().sites()[0] == *rep
            }
        });
        if let Some(&member) = member {
            assert_eq!(
                exp.test_fault(&golden, member),
                rep_verdict,
                "class member {member} disagrees with representative {rep}"
            );
            checked += 1;
        }
        if checked >= 4 {
            break;
        }
    }
    assert!(checked >= 2, "too few multi-member classes sampled");
}

#[test]
fn collapsed_campaign_matches_full_coverage() {
    use sbst_campaign::run_campaign_collapsed;
    let exp = cached_exp(CoreKind::A, Unit::Forwarding);
    let golden = exp.golden();
    let faults = unit_fault_list(CoreKind::A, Unit::Forwarding).sample(31);
    let full = run_campaign(&exp, &golden, &faults, 0);
    let collapsed = run_campaign_collapsed(&exp, &golden, &faults, 0);
    assert_eq!(collapsed.total, full.total);
    assert!(
        (collapsed.coverage() - full.coverage()).abs() < 1e-9,
        "collapsing must not change coverage: {:.3} vs {:.3}",
        collapsed.coverage(),
        full.coverage()
    );
}

#[test]
fn any_scenario_assembles_and_runs_clean() {
    // Robustness across the whole scenario space (sampled): assembling
    // and golden-running never fails for any axis combination.
    use sbst_soc::{Alignment, CodePosition};
    let factory = routines_for(Unit::Icu);
    for (i, scenario) in Scenario::table2_sweep(3).into_iter().step_by(11).enumerate() {
        let style = if i % 2 == 0 { ExecStyle::CacheWrapped } else { ExecStyle::LegacyUncached };
        let exp = Experiment::assemble(&*factory, CoreKind::B, style, &scenario)
            .unwrap_or_else(|e| panic!("{scenario} ({style:?}): {e}"));
        let golden = exp.golden();
        assert!(golden.outcome.is_clean(), "{scenario} ({style:?}): {:?}", golden.outcome);
    }
    // The extreme corners explicitly.
    for position in CodePosition::ALL {
        for alignment in Alignment::ALL {
            let scenario = Scenario { active_cores: 3, position, alignment, skew_seed: 9 };
            let exp = Experiment::assemble(
                &*factory,
                CoreKind::C,
                ExecStyle::CacheWrapped,
                &scenario,
            )
            .unwrap_or_else(|e| panic!("{scenario}: {e}"));
            assert!(exp.golden().outcome.is_clean(), "{scenario}");
        }
    }
}
