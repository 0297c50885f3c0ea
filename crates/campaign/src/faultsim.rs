//! The parallel fault-simulation engine.
//!
//! Robustness contract: one fault's simulation crashing (a harness
//! defect — the fault model itself never panics on purpose) must not
//! abort the campaign. Every per-fault evaluation runs under
//! [`std::panic::catch_unwind`]; a panic is recorded as
//! [`Verdict::SimError`] against the offending [`FaultSite`] together
//! with the panic message, and every other fault's verdict is
//! unaffected. Worker-thread join failures are aggregated the same way
//! instead of being `expect`ed.

use std::any::Any;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use sbst_fault::{FaultList, FaultPlane, FaultSite, Verdict};
use sbst_soc::{RunOutcome, Soc};

use crate::experiment::{Experiment, Observation, Snapshot};

/// Grades one fault site into a [`Verdict`] — the seam the campaign
/// engine runs behind. The production implementation is an
/// [`Experiment`] plus its golden [`Observation`]; tests substitute
/// graders that panic or misbehave to exercise the engine's isolation.
pub trait FaultGrader: Sync {
    /// Simulates `site` and classifies the outcome.
    fn grade(&self, site: FaultSite) -> Verdict;
}

/// The production grader: a fault-free reference plus the experiment.
pub struct ExperimentGrader<'a> {
    /// The configured experiment.
    pub experiment: &'a Experiment,
    /// Its golden observation.
    pub golden: &'a Observation,
}

impl FaultGrader for ExperimentGrader<'_> {
    fn grade(&self, site: FaultSite) -> Verdict {
        self.experiment.test_fault(self.golden, site)
    }
}

/// The warm-start grader: clones the golden-prefix [`Snapshot`] per
/// fault and simulates only the tail with early-verdict exit (the
/// campaign fast path; verdict-equivalent to [`ExperimentGrader`],
/// asserted by the warm-start test suite).
pub struct WarmExperimentGrader<'a> {
    /// The configured experiment.
    pub experiment: &'a Experiment,
    /// Its golden observation.
    pub golden: &'a Observation,
    /// The golden-prefix snapshot (see [`Experiment::snapshot`]).
    pub snapshot: &'a Snapshot,
}

impl WarmExperimentGrader<'_> {
    /// Grades `site` on the warm path with a per-step `hook` on the
    /// tail run (see [`Soc::run_until`]).
    pub(crate) fn grade_with(
        &self,
        site: FaultSite,
        hook: impl FnMut(&mut Soc) -> ControlFlow<RunOutcome>,
    ) -> Verdict {
        let faulty = self.experiment.run_tail(self.snapshot, FaultPlane::armed(site), hook);
        Experiment::classify(self.golden, &faulty)
    }
}

impl FaultGrader for WarmExperimentGrader<'_> {
    fn grade(&self, site: FaultSite) -> Verdict {
        self.grade_with(site, |_| ControlFlow::Continue(()))
    }
}

/// One recorded simulation failure: which fault's evaluation crashed
/// (or which worker died) and the rendered panic payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignError {
    /// The fault whose simulation crashed; `None` for a worker-level
    /// failure not attributable to a single site.
    pub site: Option<FaultSite>,
    /// Index of the fault in the graded list (`usize::MAX` for
    /// worker-level failures).
    pub index: usize,
    /// The panic message.
    pub message: String,
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.site {
            Some(site) => write!(f, "fault #{} {:?}: {}", self.index, site, self.message),
            None => write!(f, "worker: {}", self.message),
        }
    }
}

/// Renders a `catch_unwind` payload into a readable message.
pub(crate) fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Aggregated result of fault-simulating one fault list against one
/// experiment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignResult {
    /// Faults simulated.
    pub total: usize,
    /// Detected via signature mismatch.
    pub wrong_signature: usize,
    /// Detected via the routine's own FAIL status.
    pub test_fail: usize,
    /// Detected via an unexpected trap.
    pub unexpected_trap: usize,
    /// Detected via the watchdog (hang).
    pub hang: usize,
    /// Not detected.
    pub undetected: usize,
    /// Simulations that crashed (harness defects, not silicon verdicts).
    pub sim_errors: usize,
}

impl CampaignResult {
    /// Total detections (crashed simulations prove nothing and are
    /// excluded).
    pub fn detected(&self) -> usize {
        self.total - self.undetected - self.sim_errors
    }

    /// Fault coverage in percent.
    pub fn coverage(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        100.0 * self.detected() as f64 / self.total as f64
    }

    /// Counts `weight` faults graded `verdict` (a collapsed class
    /// counts once per member).
    pub(crate) fn record(&mut self, verdict: Verdict, weight: usize) {
        self.total += weight;
        *match verdict {
            Verdict::WrongSignature => &mut self.wrong_signature,
            Verdict::TestFail => &mut self.test_fail,
            Verdict::UnexpectedTrap => &mut self.unexpected_trap,
            Verdict::Hang => &mut self.hang,
            Verdict::Undetected => &mut self.undetected,
            Verdict::SimError => &mut self.sim_errors,
        } += weight;
    }

    /// The verdict distribution in the observability layer's type.
    pub fn mix(&self) -> sbst_obs::VerdictMix {
        sbst_obs::VerdictMix {
            wrong_signature: self.wrong_signature as u64,
            test_fail: self.test_fail as u64,
            unexpected_trap: self.unexpected_trap as u64,
            hang: self.hang as u64,
            undetected: self.undetected as u64,
            sim_error: self.sim_errors as u64,
        }
    }

    /// Rebuilds the aggregate from per-fault records.
    pub fn from_records(records: &[(FaultSite, Verdict)]) -> CampaignResult {
        let mut result = CampaignResult::default();
        for &(_, v) in records {
            result.record(v, 1);
        }
        result
    }
}

impl std::fmt::Display for CampaignResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} detected ({:.2}%): sig {}, fail {}, trap {}, hang {}",
            self.detected(),
            self.total,
            self.coverage(),
            self.wrong_signature,
            self.test_fail,
            self.unexpected_trap,
            self.hang
        )?;
        if self.sim_errors != 0 {
            write!(f, ", sim-errors {}", self.sim_errors)?;
        }
        Ok(())
    }
}

/// Resolves a requested thread count (0 = available parallelism).
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    }
}

/// The scoped-thread claim loop of this crate's parallel passes:
/// `resolve_threads(threads).min(n)` workers pull indices `0..n` from
/// one counter and run `work` on each. Returns the panic payloads of
/// workers that died outside `work`'s own isolation.
pub(crate) fn for_each_claimed(
    n: usize,
    threads: usize,
    work: &(dyn Fn(usize) + Sync),
) -> Vec<Box<dyn Any + Send>> {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..resolve_threads(threads).min(n))
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    work(i);
                })
            })
            .collect();
        workers.into_iter().filter_map(|w| w.join().err()).collect()
    })
}

/// What one pass of the grading core produced.
pub(crate) struct Graded {
    /// Every verdict slot after the pass (`None` = still ungraded).
    pub slots: Vec<Option<Verdict>>,
    /// The graded slots as per-fault records, in fault-list order.
    pub records: Vec<(FaultSite, Verdict)>,
    /// The aggregate of `records`.
    pub result: CampaignResult,
    /// Simulation crashes recorded during the pass.
    pub errors: Vec<CampaignError>,
}

/// The grading core every campaign entry point runs through. Grades
/// `sites[i]` with `grade` for the first `limit` indices whose slot is
/// `None`, over `threads` workers (0 = available parallelism), and
/// turns the slots into records and a [`CampaignResult`].
///
/// A panic inside `grade` becomes [`Verdict::SimError`]; a worker join
/// failure becomes a site-less [`CampaignError`]. `on_done` receives a
/// copy of the slots taken under the lock that published a verdict — a
/// consistent state of the campaign at some publication point — but
/// runs *outside* it, so a slow observer (checkpoint serialization,
/// file I/O) never serializes the grading workers. Observers must
/// therefore tolerate snapshots arriving out of order: two workers can
/// publish a, then b, yet deliver b's snapshot first (the checkpoint
/// writer handles this with a monotonic done-count guard).
pub(crate) fn grade(
    grade: &(dyn Fn(FaultSite) -> Verdict + Sync),
    sites: &[FaultSite],
    slots: Vec<Option<Verdict>>,
    limit: usize,
    threads: usize,
    on_done: &(dyn Fn(&[Option<Verdict>]) + Sync),
) -> Graded {
    assert_eq!(slots.len(), sites.len(), "slot/site length mismatch");
    let todo: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].is_none()).take(limit).collect();
    let slots = Mutex::new(slots);
    let errors = Mutex::new(Vec::new());
    let escaped = for_each_claimed(todo.len(), threads, &|t| {
        let i = todo[t];
        let site = sites[i];
        let verdict = match catch_unwind(AssertUnwindSafe(|| grade(site))) {
            Ok(v) => v,
            Err(payload) => {
                errors.lock().expect("error log").push(CampaignError {
                    site: Some(site),
                    index: i,
                    message: panic_message(payload),
                });
                Verdict::SimError
            }
        };
        let snapshot = {
            let mut slots = slots.lock().expect("verdict slots");
            slots[i] = Some(verdict);
            slots.clone()
        };
        on_done(&snapshot);
    });
    let mut errors = errors.into_inner().expect("error log");
    // A panic that escaped the per-fault isolation (e.g. in the engine
    // itself) is recorded instead of aborting the whole campaign.
    errors.extend(escaped.into_iter().map(|payload| CampaignError {
        site: None,
        index: usize::MAX,
        message: panic_message(payload),
    }));
    let slots = slots.into_inner().expect("verdict slots");
    let records: Vec<(FaultSite, Verdict)> =
        sites.iter().zip(&slots).filter_map(|(&s, v)| v.map(|v| (s, v))).collect();
    Graded {
        result: CampaignResult::from_records(&records),
        records,
        slots,
        errors,
    }
}

/// Detailed campaign against any [`FaultGrader`]: per-fault verdicts in
/// fault-list order plus every recorded simulation crash.
pub fn run_campaign_graded(
    grader: &dyn FaultGrader,
    faults: &FaultList,
    threads: usize,
) -> (CampaignResult, Vec<(FaultSite, Verdict)>, Vec<CampaignError>) {
    let sites = faults.sites();
    let slots = vec![None; sites.len()];
    let graded = grade(&|site| grader.grade(site), sites, slots, usize::MAX, threads, &|_| {});
    (graded.result, graded.records, graded.errors)
}

/// Fault-simulates every fault of `faults` against `experiment`,
/// fanning out over `threads` worker threads (0 = available
/// parallelism). Each fault is an independent full-SoC simulation
/// sharing the frozen Flash image. A crashing simulation is recorded as
/// [`Verdict::SimError`] rather than aborting the campaign.
pub fn run_campaign(
    experiment: &Experiment,
    golden: &Observation,
    faults: &FaultList,
    threads: usize,
) -> CampaignResult {
    let grader = ExperimentGrader { experiment, golden };
    run_campaign_graded(&grader, faults, threads).0
}

/// Like [`run_campaign`] but returns the per-fault verdicts (in fault-list
/// order) alongside the aggregate — for diagnosis, dashboards, or the
/// union-coverage analyses of split plans.
pub fn run_campaign_detailed(
    experiment: &Experiment,
    golden: &Observation,
    faults: &FaultList,
    threads: usize,
) -> (CampaignResult, Vec<(FaultSite, Verdict)>) {
    let grader = ExperimentGrader { experiment, golden };
    let (result, records, _) = run_campaign_graded(&grader, faults, threads);
    (result, records)
}

/// [`run_campaign_detailed`] through the warm-start fast path: the
/// golden-prefix snapshot is captured once, then every fault clones it
/// and simulates only the tail with early-verdict exit. Verdict-
/// equivalent to the cold path (asserted over full collapsed fault
/// lists by the warm-start test suite), several times faster on
/// hang-heavy lists.
pub fn run_campaign_warm_detailed(
    experiment: &Experiment,
    golden: &Observation,
    faults: &FaultList,
    threads: usize,
) -> (CampaignResult, Vec<(FaultSite, Verdict)>) {
    let snapshot = experiment.snapshot(golden);
    let grader = WarmExperimentGrader { experiment, golden, snapshot: &snapshot };
    let (result, records, _) = run_campaign_graded(&grader, faults, threads);
    (result, records)
}

/// Buckets per-fault verdicts by element category — the diagnostic view
/// of where a routine's coverage holes are.
///
/// Returns `(category name, detected, total)` sorted by category name.
pub fn summarize_by_category(
    records: &[(FaultSite, Verdict)],
) -> Vec<(&'static str, usize, usize)> {
    use sbst_fault::Element;
    fn category(e: &Element) -> &'static str {
        match e {
            Element::MuxDataIn { .. } => "mux data input",
            Element::MuxSelStem { .. } => "mux select stem",
            Element::MuxSelBranch { .. } => "mux select branch",
            Element::MuxAndOut { .. } => "mux AND output",
            Element::MuxOrOut { .. } => "mux OR output",
            Element::MuxOrNode { .. } => "mux OR-chain node",
            Element::MuxPathDelay { .. } => "mux path delay",
            Element::CmpXnorOut { .. } => "comparator XNOR",
            Element::CmpChainNode { .. } => "comparator chain",
            Element::CmpValidIn => "comparator valid",
            Element::CmpOut => "comparator output",
            Element::StallLine { .. } => "stall line",
            Element::SelEncLine { .. } => "select encoder",
            Element::PendLatchQ { .. } => "ICU pending latch",
            Element::PendSetLine { .. } => "ICU pending set",
            Element::CauseMapLine { .. } => "ICU cause map",
            Element::CauseRegBit { .. } => "ICU cause register",
            Element::MaskBit { .. } => "ICU mask bit",
            Element::RecognizeLine => "ICU recognize line",
            Element::EpcBit { .. } => "ICU EPC capture",
            Element::DepthBit { .. } => "ICU depth counter",
        }
    }
    let mut buckets: std::collections::BTreeMap<&'static str, (usize, usize)> =
        std::collections::BTreeMap::new();
    for (site, verdict) in records {
        let entry = buckets.entry(category(&site.element)).or_insert((0, 0));
        entry.1 += 1;
        if verdict.is_detected() {
            entry.0 += 1;
        }
    }
    buckets.into_iter().map(|(k, (d, t))| (k, d, t)).collect()
}

/// Runs a campaign over the *collapsed* fault universe and reports
/// coverage against the uncollapsed totals — the way commercial fault
/// simulators spend their cycles. Typically 30–40 % fewer simulations
/// for identical coverage (collapsing preserves verdicts; asserted by
/// the test suite).
pub fn run_campaign_collapsed(
    experiment: &Experiment,
    golden: &Observation,
    faults: &FaultList,
    threads: usize,
) -> CampaignResult {
    let collapsed = sbst_fault::collapse(faults);
    let (_, records) =
        run_campaign_detailed(experiment, golden, collapsed.representatives(), threads);
    let mut result = CampaignResult::default();
    for (i, &(_, verdict)) in records.iter().enumerate() {
        result.record(verdict, collapsed.class_size(i));
    }
    result
}
