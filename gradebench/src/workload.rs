//! The three workloads: which experiments each grades, and the seeded
//! set-up that turns a seed into experiments and fault lists.

use std::time::Instant;

use sbst_campaign::tables::Effort;
use sbst_campaign::{routines_for, ExecStyle, Experiment, Observation};
use sbst_cpu::{unit_fault_list, CoreKind};
use sbst_fault::{collapse, FaultList, Unit};
use sbst_mem::Prng;
use sbst_soc::Scenario;

use crate::trace::Tracer;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Forwarding unit of core A, cache-wrapped, three active cores,
    /// full collapsed list, graded by the PPSFP engine.
    FwdCached,
    /// HDCU and ICU of cores A, B and C, cache-wrapped, three active
    /// cores, full collapsed lists, graded by the PPSFP engine.
    HdcuIcuCached,
    /// The legacy (uncached) columns of Tables II and III, graded by
    /// the cold from-reset engine.
    LegacySweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::FwdCached,
        Workload::HdcuIcuCached,
        Workload::LegacySweep,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FwdCached => "fwd_cached",
            Workload::HdcuIcuCached => "hdcu_icu_cached",
            Workload::LegacySweep => "legacy_sweep",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload grades with the PPSFP engine on a
    /// cache-wrapped core under test (otherwise: the cold engine on a
    /// legacy, uncached one).
    pub fn cached(self) -> bool {
        self != Workload::LegacySweep
    }
}

/// The other cores' filler routines repeat with this period in
/// `Scenario::skew_seed` (filler length cycles mod 11, its order mod
/// 2). Scaling the seed by it varies the per-core start phase while
/// the contending programs, and with them the golden length and the
/// hang budget, stay those of `skew_seed = 0` (Table II's scenario).
const SKEW_PERIOD: u64 = 22;

/// One experiment of a workload: what is graded, and how the fault
/// list is drawn.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// Core under test.
    pub kind: CoreKind,
    /// Graded unit.
    pub unit: Unit,
    /// Execution style of the core under test.
    pub style: ExecStyle,
    /// Scenario (active cores, code position, alignment, skew).
    pub scenario: Scenario,
    /// Legacy sweep only: start offset of the `Effort::quick` sample
    /// into the unit's fault list (`None`: the full list).
    pub sample_offset: Option<usize>,
    /// Cached workloads only: seed of the permutation of the collapsed
    /// list, which changes how PPSFP packs fault words.
    pub permutation: Option<u64>,
}

impl Job {
    /// Short label used in request ids and reports.
    pub fn label(&self) -> String {
        format!("{:?}-{:?}-{}", self.kind, self.unit, self.scenario)
    }
}

/// The experiments `workload` grades for `seed`.
pub fn jobs(workload: Workload, seed: u64) -> Vec<Job> {
    let contended = Scenario {
        active_cores: 3,
        skew_seed: seed.wrapping_mul(SKEW_PERIOD),
        ..Scenario::single_core()
    };
    let cached = |index: u64, (kind, unit)| Job {
        kind,
        unit,
        style: ExecStyle::CacheWrapped,
        scenario: contended,
        sample_offset: None,
        permutation: Some(seed ^ (index + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
    };
    let units: Vec<(CoreKind, Unit)> = match workload {
        Workload::FwdCached => vec![(CoreKind::A, Unit::Forwarding)],
        Workload::HdcuIcuCached => CoreKind::ALL
            .into_iter()
            .flat_map(|k| [(k, Unit::Hdcu), (k, Unit::Icu)])
            .collect(),
        Workload::LegacySweep => return legacy_jobs(seed),
    };
    (0..).zip(units).map(|(i, u)| cached(i, u)).collect()
}

/// Table II's legacy column: per core, three seed-chosen sweep
/// scenarios with two active cores and three with three, each graded
/// on its own seed-offset `Effort::quick` sample of the forwarding
/// list. Table III's: HDCU and ICU of every core on one uncached core.
/// Many small experiments make per-scenario assembly and golden runs a
/// real share of the grading time.
fn legacy_jobs(seed: u64) -> Vec<Job> {
    let mut prng = Prng::new(seed ^ 0x1e9a_c5ee_7000_0001);
    // 18 scenarios: {2, 3} cores x 3 positions x 3 alignments.
    let sweep = Scenario::table2_sweep(1);
    let half = sweep.len() / 2;
    let mut jobs = Vec::new();
    for kind in CoreKind::ALL {
        let list_len = unit_fault_list(kind, Unit::Forwarding).len() as u64;
        for group in [0, half] {
            let mut picks: Vec<usize> = (group..group + half).collect();
            shuffle(&mut picks, &mut prng);
            for &i in &picks[..3] {
                jobs.push(Job {
                    kind,
                    unit: Unit::Forwarding,
                    style: ExecStyle::LegacyUncached,
                    scenario: Scenario {
                        skew_seed: seed.wrapping_mul(SKEW_PERIOD),
                        ..sweep[i]
                    },
                    sample_offset: Some(prng.below(list_len) as usize),
                    permutation: None,
                });
            }
        }
    }
    for kind in CoreKind::ALL {
        for unit in [Unit::Hdcu, Unit::Icu] {
            let list_len = unit_fault_list(kind, unit).len() as u64;
            jobs.push(Job {
                kind,
                unit,
                style: ExecStyle::LegacyUncached,
                scenario: Scenario::single_core(),
                sample_offset: Some(prng.below(list_len) as usize),
                permutation: None,
            });
        }
    }
    jobs
}

/// Fisher–Yates shuffle driven by the workload PRNG.
fn shuffle<T>(items: &mut [T], prng: &mut Prng) {
    for i in (1..items.len()).rev() {
        let j = prng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// An experiment with its golden observation.
pub struct Assembled {
    /// The configured experiment.
    pub experiment: Experiment,
    /// Its fault-free run.
    pub golden: Observation,
}

/// Host seconds of each set-up call, summed over a workload's jobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `Experiment::assemble` (includes the golden calibration run).
    pub assemble_s: f64,
    /// `Experiment::golden`.
    pub golden_s: f64,
    /// `collapse`.
    pub collapse_s: f64,
}

/// Assembles `job`'s experiment and runs its golden reference, with a
/// span around each call.
pub fn assemble(
    job: &Job,
    tracer: &Tracer,
    parent: u64,
    request: &str,
    times: &mut SetupTimes,
) -> Assembled {
    let factory = routines_for(job.unit);
    let t = Instant::now();
    let experiment = tracer.span(
        "experiment.assemble",
        parent,
        || request.to_string(),
        |_| {
            Experiment::assemble(&*factory, job.kind, job.style, &job.scenario)
                .expect("every benchmark scenario assembles")
        },
    );
    times.assemble_s += t.elapsed().as_secs_f64();
    let t = Instant::now();
    let golden = tracer.span(
        "experiment.golden",
        parent,
        || request.to_string(),
        |_| experiment.golden(),
    );
    times.golden_s += t.elapsed().as_secs_f64();
    Assembled { experiment, golden }
}

/// The collapsed fault list `job` grades: the unit's full list (or the
/// legacy sample), collapsed, and permuted when the job says so.
/// `max_faults` cuts the list to a small slice (the benchmark's own
/// tests).
pub fn fault_list(
    job: &Job,
    max_faults: Option<usize>,
    tracer: &Tracer,
    parent: u64,
    request: &str,
    times: &mut SetupTimes,
) -> FaultList {
    let list = tracer.span(
        "fault.unit_fault_list",
        parent,
        || request.to_string(),
        |_| {
            let full = unit_fault_list(job.kind, job.unit);
            match job.sample_offset {
                None => full,
                Some(offset) => {
                    let sites = full.sites();
                    let rotated: FaultList = sites[offset..]
                        .iter()
                        .chain(&sites[..offset])
                        .copied()
                        .collect();
                    Effort::quick().sample(&rotated)
                }
            }
        },
    );
    let t = Instant::now();
    let collapsed = tracer.span(
        "fault.collapse",
        parent,
        || request.to_string(),
        |_| collapse(&list),
    );
    times.collapse_s += t.elapsed().as_secs_f64();
    let mut sites = collapsed.representatives().sites().to_vec();
    if let Some(seed) = job.permutation {
        tracer.span(
            "workload.permute",
            parent,
            || request.to_string(),
            |_| shuffle(&mut sites, &mut Prng::new(seed)),
        );
    }
    if let Some(n) = max_faults {
        sites.truncate(n);
    }
    FaultList::from_sites(sites)
}
