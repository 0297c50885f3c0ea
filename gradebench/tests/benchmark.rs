//! The benchmark's own tests: a seeded tiny slice of every workload
//! emits every metric `BENCHMARK.json` names, with its unit, and a
//! verdict that differs from the reference is counted as a failure.

use sbst_cpu::{unit_fault_list, CoreKind};
use sbst_fault::{Unit, Verdict};
use sbst_gradebench::workload::{jobs, Workload};
use sbst_gradebench::{count_failures, indexed, run, Metric, Options};
use sbst_obs::{parse_json, Json};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn contract(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let doc = parse_json(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn named(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn tiny(workload: Workload) -> Options {
    Options {
        max_faults: Some(3),
        ..Options::new(workload, 7, 0.0, true)
    }
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    let end_to_end = contract("end_to_end");
    let per_layer = contract("per_layer");
    for workload in Workload::ALL {
        let report = run(&tiny(workload));
        let name = workload.name();
        assert!(report.correct, "{name}: {:?}", report.problems);
        assert_eq!(report.failed, 0, "{name}");
        assert!(report.attempted >= 1, "{name}");
        assert_eq!(
            named(&report.end_to_end),
            end_to_end,
            "{name}: end-to-end metrics"
        );
        assert_eq!(
            named(&report.per_layer),
            per_layer,
            "{name}: per-layer metrics"
        );
        for m in report.end_to_end.iter().chain(&report.per_layer) {
            assert!(m.value.is_finite(), "{name}: {} = {}", m.name, m.value);
        }
        for m in &report.end_to_end {
            assert!(
                m.value > 0.0,
                "{name}: end-to-end {} must never be 0",
                m.name
            );
        }
        assert!(
            !report.spans.is_empty(),
            "{name}: a traced run records spans"
        );
    }
}

#[test]
fn injected_verdict_mismatch_is_counted_as_failure() {
    let sites = unit_fault_list(CoreKind::A, Unit::Icu);
    let reference: Vec<_> = sites
        .iter()
        .take(6)
        .map(|&s| (s, Verdict::WrongSignature))
        .collect();
    let full = indexed(&reference);
    assert_eq!(count_failures(&reference, &full), 0);

    let mut graded = reference.clone();
    graded[2].1 = Verdict::Undetected;
    assert_eq!(count_failures(&graded, &full), 1, "a flipped verdict fails");
    assert_eq!(
        count_failures(&graded, &full[3..]),
        0,
        "only checked faults are compared"
    );

    graded[4].1 = Verdict::SimError;
    assert_eq!(
        count_failures(&graded, &full[3..]),
        1,
        "a crashed simulation always fails"
    );
    assert_eq!(count_failures(&graded, &full), 2);

    assert_eq!(
        count_failures(&graded[..3], &full),
        4,
        "a fault missing from the grading fails"
    );
}

#[test]
fn the_same_seed_gives_the_same_inputs() {
    for workload in Workload::ALL {
        let describe = |seed| format!("{:?}", jobs(workload, seed));
        assert_eq!(describe(3), describe(3), "{}", workload.name());
        assert_ne!(
            describe(3),
            describe(4),
            "{}: the seed must matter",
            workload.name()
        );
    }
}
