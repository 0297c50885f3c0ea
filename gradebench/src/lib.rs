//! # sbst-gradebench — the fault-grading benchmark
//!
//! Runs one named [`Workload`] end to end from a seed: seeded set-up
//! (experiments, golden runs, collapsed and permuted fault lists),
//! timed grading passes with the workload's engine, a verdict check
//! against an independent engine outside the timed region, and a probe
//! of the simulator itself. Every layer is measured from outside, by
//! timing calls into the public API of `sbst-campaign`, `sbst-fault`,
//! `sbst-soc`, `sbst-cpu` and `sbst-mem`; a traced run adds a span
//! around each of those calls and the per-layer metrics.
//!
//! See `README.md` in this directory for the workloads and the map from
//! layer metrics to end-to-end metrics.

pub mod alloc;
pub mod trace;
pub mod workload;

use std::sync::Mutex;
use std::time::Instant;

use sbst_campaign::{
    run_campaign_detailed, run_campaign_graded, run_campaign_ppsfp_telemetry,
    run_campaign_warm_detailed, Experiment, FaultGrader, Observation, Snapshot,
};
use sbst_fault::{pack_density, pack_fault_words, FaultList, FaultPlane, FaultSite, Verdict};
use sbst_obs::{parse_json, Json, PpsfpTelemetry};

use crate::alloc::ALLOC;
use crate::trace::{Span, Tracer};
use crate::workload::{assemble, fault_list, jobs, Assembled, Job, SetupTimes, Workload};

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Workload seed: picks scenarios, samples and fault order.
    pub seed: u64,
    /// Minimum host seconds of grading passes (at least one pass runs).
    pub seconds: f64,
    /// Traced run: record spans and report the per-layer metrics.
    pub trace: bool,
    /// Grade only the first `n` faults of each experiment's list (the
    /// benchmark's own tests); `None` grades the whole workload.
    pub max_faults: Option<usize>,
}

impl Options {
    /// The full workload.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Options {
        Options {
            workload,
            seed,
            seconds,
            trace,
            max_faults: None,
        }
    }
}

/// Set-up repetitions before the first pass (one more precedes each
/// later pass); the reported set-up time is the median of all.
const SETUP_REPS: usize = 3;

/// Host cores available to this process; grading uses one thread per
/// core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(out: &mut Vec<Metric>, name: impl Into<String>, value: f64, unit: &'static str) {
    out.push(Metric {
        name: name.into(),
        value,
        unit,
    });
}

/// Simulated statistics of the golden runs, summed over a workload's
/// experiments (`bus_max_grant_wait` is the maximum). Deterministic:
/// any simulator-only change must leave them bit-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GoldenStats {
    /// Instructions retired by the core under test.
    pub instructions: u64,
    /// Its fetch-stall cycles.
    pub if_stalls: u64,
    /// Its memory-stage stall cycles.
    pub mem_stalls: u64,
    /// Its instruction-cache read misses.
    pub icache_read_misses: u64,
    /// Its data-cache read misses.
    pub dcache_read_misses: u64,
    /// Shared-bus transactions (all masters).
    pub bus_transactions: u64,
    /// Cycles bus requests waited for a grant (all ports).
    pub bus_wait_cycles: u64,
    /// Longest single grant wait on any port.
    pub bus_max_grant_wait: u64,
    /// SoC cycles of the golden runs.
    pub golden_cycles: u64,
}

impl GoldenStats {
    /// The statistics as named per-layer counts.
    pub fn named(&self) -> [(&'static str, u64); 9] {
        [
            ("core.instructions", self.instructions),
            ("core.if_stalls", self.if_stalls),
            ("core.mem_stalls", self.mem_stalls),
            ("cache.icache_read_misses", self.icache_read_misses),
            ("cache.dcache_read_misses", self.dcache_read_misses),
            ("bus.transactions", self.bus_transactions),
            ("bus.wait_cycles", self.bus_wait_cycles),
            ("bus.max_grant_wait", self.bus_max_grant_wait),
            ("experiment.golden_cycles", self.golden_cycles),
        ]
    }

    fn add(&mut self, o: &GoldenStats) {
        self.instructions += o.instructions;
        self.if_stalls += o.if_stalls;
        self.mem_stalls += o.mem_stalls;
        self.icache_read_misses += o.icache_read_misses;
        self.dcache_read_misses += o.dcache_read_misses;
        self.bus_transactions += o.bus_transactions;
        self.bus_wait_cycles += o.bus_wait_cycles;
        self.bus_max_grant_wait = self.bus_max_grant_wait.max(o.bus_max_grant_wait);
        self.golden_cycles += o.golden_cycles;
    }
}

/// The five silicon verdicts, in report order, with their metric keys.
const VERDICTS: [(Verdict, &str); 5] = [
    (Verdict::Hang, "hang"),
    (Verdict::WrongSignature, "wrong_signature"),
    (Verdict::UnexpectedTrap, "unexpected_trap"),
    (Verdict::TestFail, "test_fail"),
    (Verdict::Undetected, "undetected"),
];

/// Verdict counts of a workload's reference grading, by verdict tag
/// (`sim-error` included).
fn verdict_counts(records: &[Vec<(FaultSite, Verdict)>]) -> Vec<(&'static str, u64)> {
    let all = VERDICTS.iter().map(|&(v, _)| v).chain([Verdict::SimError]);
    all.map(|v| {
        let n = records
            .iter()
            .flatten()
            .filter(|(_, got)| *got == v)
            .count();
        (v.tag(), n as u64)
    })
    .collect()
}

/// Faults of `graded` that fail: the verdict is [`Verdict::SimError`],
/// or differs from a `reference` entry `(index into graded, site,
/// verdict)`. A reference entry with no matching fault in `graded`
/// counts as failed too.
pub fn count_failures(
    graded: &[(FaultSite, Verdict)],
    reference: &[(usize, FaultSite, Verdict)],
) -> usize {
    let mut bad: Vec<bool> = graded.iter().map(|(_, v)| v.is_sim_error()).collect();
    let mut missing = 0;
    for &(i, site, verdict) in reference {
        match graded.get(i) {
            Some(&(s, v)) if s == site && v == verdict => {}
            Some(_) => bad[i] = true,
            None => missing += 1,
        }
    }
    bad.iter().filter(|&&b| b).count() + missing
}

/// `records` as reference entries covering every fault.
pub fn indexed(records: &[(FaultSite, Verdict)]) -> Vec<(usize, FaultSite, Verdict)> {
    records
        .iter()
        .enumerate()
        .map(|(i, &(s, v))| (i, s, v))
        .collect()
}

/// Untraced runs check one fault in [`CHECK_EVERY`] against the
/// reference engine, chosen by the seed.
const CHECK_EVERY: u64 = 4;

fn checked_fault(seed: u64, job: usize, fault: usize) -> bool {
    let mut prng = sbst_mem::Prng::new(seed ^ ((job as u64) << 32 | fault as u64));
    prng.below(CHECK_EVERY) == 0
}

/// One fault graded through a recording grader.
#[derive(Debug, Clone, Copy)]
struct FaultSample {
    verdict: Verdict,
    host_s: f64,
    sim_cycles: u64,
}

/// A [`FaultGrader`] that times one `Experiment::run` (cold) or
/// `Experiment::run_warm` (warm, from `snapshot`) plus `classify` per
/// fault, keeps the sample, and records a span around it.
struct Recorder<'a> {
    assembled: &'a Assembled,
    snapshot: Option<&'a Snapshot>,
    tracer: &'a Tracer,
    parent: u64,
    request: String,
    samples: Mutex<Vec<FaultSample>>,
}

impl<'a> Recorder<'a> {
    fn new(
        assembled: &'a Assembled,
        snapshot: Option<&'a Snapshot>,
        tracer: &'a Tracer,
        parent: u64,
        request: String,
    ) -> Recorder<'a> {
        Recorder {
            assembled,
            snapshot,
            tracer,
            parent,
            request,
            samples: Mutex::new(Vec::new()),
        }
    }

    fn into_samples(self) -> Vec<FaultSample> {
        self.samples.into_inner().expect("sample log poisoned")
    }
}

impl FaultGrader for Recorder<'_> {
    fn grade(&self, site: FaultSite) -> Verdict {
        let Assembled { experiment, golden } = self.assembled;
        let name = if self.snapshot.is_some() {
            "experiment.run_warm"
        } else {
            "experiment.run"
        };
        let start = Instant::now();
        let (observation, verdict) = self.tracer.span(
            name,
            self.parent,
            || format!("{}/{site}", self.request),
            |_| {
                let plane = FaultPlane::armed(site);
                let observation = match self.snapshot {
                    Some(snapshot) => experiment.run_warm(snapshot, plane),
                    None => experiment.run(plane),
                };
                (observation, Experiment::classify(golden, &observation))
            },
        );
        let sample = FaultSample {
            verdict,
            host_s: start.elapsed().as_secs_f64(),
            sim_cycles: observation.cycles - self.snapshot.map_or(0, Snapshot::cycle),
        };
        self.samples
            .lock()
            .expect("sample log poisoned")
            .push(sample);
        verdict
    }
}

/// One timed grading pass over every experiment of the workload.
struct Pass {
    secs: f64,
    faults: usize,
    traced: bool,
    verdicts: Vec<Vec<(FaultSite, Verdict)>>,
    ppsfp: Vec<PpsfpTelemetry>,
    /// Legacy sweep: per-scenario assembly and golden runs.
    times: SetupTimes,
}

/// What the SoC probe measured on one experiment's snapshot.
struct Probe {
    snapshot_s: f64,
    clone_us: Vec<f64>,
    step_cycles: u64,
    step_s: f64,
    allocs: u64,
    stats: GoldenStats,
    halted: bool,
}

/// Host facts every result names.
#[derive(Debug, Clone)]
pub struct Host {
    /// Cores available to the process.
    pub nproc: usize,
    /// Grading threads used.
    pub threads: usize,
    /// Cargo build profile of this binary.
    pub profile: &'static str,
    /// `rustc -V` of the compiler that built it.
    pub rustc: &'static str,
    /// Git commit of the checkout (`unknown` outside a git checkout).
    pub commit: String,
}

impl Host {
    fn detect() -> Host {
        let repo = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let commit = if repo.join(".git").exists() {
            std::process::Command::new("git")
                .arg("-C")
                .arg(&repo)
                .args(["rev-parse", "--short=12", "HEAD"])
                .output()
                .ok()
                .filter(|out| out.status.success())
                .and_then(|out| String::from_utf8(out.stdout).ok())
                .map(|s| s.trim().to_string())
        } else {
            None
        };
        Host {
            nproc: nproc(),
            threads: nproc(),
            profile: env!("GRADEBENCH_PROFILE"),
            rustc: env!("GRADEBENCH_RUSTC"),
            commit: commit.unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// Everything one run produced.
pub struct Report {
    /// The options it ran with.
    pub options: Options,
    /// Host facts.
    pub host: Host,
    /// Every verdict matched the reference engine and every consistency
    /// check held.
    pub correct: bool,
    /// Faults graded in the timed passes.
    pub attempted: u64,
    /// Of those, faults whose verdict differed from the reference or
    /// was `SimError`.
    pub failed: u64,
    /// `faults_per_s`, `setup_s`, `peak_rss_mib`.
    pub end_to_end: Vec<Metric>,
    /// Faults per second of each untraced grading pass, in order.
    pub pass_rates: Vec<f64>,
    /// The per-layer metrics (complete in traced runs).
    pub per_layer: Vec<Metric>,
    /// Verdict counts of the first grading pass (every pass and the
    /// checked reference verdicts must agree with it).
    pub verdicts: Vec<(&'static str, u64)>,
    /// Simulated golden-run statistics.
    pub golden: GoldenStats,
    /// `expected.json` pins this workload and seed, and the run was
    /// checked against it.
    pub pinned: bool,
    /// Checks that failed, in words.
    pub problems: Vec<String>,
    /// Recorded spans (traced runs).
    pub spans: Vec<Span>,
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of `sorted` (`p` in 0..=100).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs the workload and checks every verdict.
pub fn run(options: &Options) -> Report {
    let w = options.workload;
    let tracer = Tracer::new(options.trace);
    let untraced = Tracer::new(false);
    let host = Host::detect();
    let threads = host.threads;
    let jobs = jobs(w, options.seed);
    let labels: Vec<String> = jobs
        .iter()
        .map(|j| format!("{}/{}", w.name(), j.label()))
        .collect();
    let mut problems = Vec::new();

    // --- set-up and timed grading passes ------------------------------
    // Set-up runs `SETUP_REPS` times before the first pass and once more
    // before every later one, so its median samples the host across the
    // whole run. A traced run alternates untraced and traced passes, so
    // it reports its own tracing overhead.
    let mut setup_totals = Vec::new();
    let mut setup_times = Vec::new();
    let mut assembled: Vec<Assembled> = Vec::new();
    let mut lists: Vec<FaultList> = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let mut grading_s = 0.0;
    loop {
        let reps = if passes.is_empty() { SETUP_REPS } else { 1 };
        for _ in 0..reps {
            let rep = setup_totals.len();
            let mut times = SetupTimes::default();
            let start = Instant::now();
            (assembled, lists) = tracer.span(
                "workload.setup",
                0,
                || format!("{}/{rep}", w.name()),
                |id| setup(w, &jobs, &labels, options, &tracer, id, &mut times),
            );
            setup_totals.push(start.elapsed().as_secs_f64());
            setup_times.push(times);
        }
        let traced = options.trace && passes.len() % 2 == 1;
        let pass_tracer = if traced { &tracer } else { &untraced };
        let index = passes.len();
        let pass = pass_tracer.span(
            "workload.pass",
            0,
            || format!("{}/{index}", w.name()),
            |id| {
                grade_pass(
                    w,
                    &jobs,
                    &labels,
                    &assembled,
                    &lists,
                    threads,
                    pass_tracer,
                    id,
                    traced,
                )
            },
        );
        grading_s += pass.secs;
        passes.push(pass);
        let both = !options.trace || passes.iter().any(|p| p.traced);
        if grading_s >= options.seconds && both {
            break;
        }
    }
    let peak_rss = peak_rss_mib();

    // --- untimed: experiments for the legacy sweep's checks -----------
    if !w.cached() {
        let mut times = SetupTimes::default();
        assembled = jobs
            .iter()
            .zip(&labels)
            .map(|(job, label)| assemble(job, &untraced, 0, label, &mut times))
            .collect();
    }

    // --- SoC probe: snapshot, clone, step to the golden end -----------
    let mut golden = GoldenStats::default();
    let mut probes = Vec::new();
    let mut snapshots = Vec::new();
    for (a, label) in assembled.iter().zip(&labels) {
        let (snapshot, probe) = tracer.span(
            "soc.probe",
            0,
            || label.clone(),
            |id| probe_soc(a, &tracer, id, label),
        );
        if let Err(problem) = check_probe(a, &probe) {
            problems.push(format!("{label}: {problem}"));
        }
        golden.add(&probe.stats);
        probes.push(probe);
        snapshots.push(snapshot);
    }

    // --- reference verdicts, outside the timed region -----------------
    // Cached workloads: the cold from-reset engine (the oracle). Legacy
    // sweep (graded cold): the warm engine. An untraced run checks a
    // seeded quarter of the faults. A traced run checks every fault with
    // both engines through recording graders, which also cross-checks
    // them and yields the per-fault verdict split of `Experiment::run`
    // and `Experiment::run_warm`.
    let mut reference: Vec<Vec<(usize, FaultSite, Verdict)>> = Vec::new();
    let mut run_samples = Vec::new();
    let mut warm_samples = Vec::new();
    for (i, a) in assembled.iter().enumerate() {
        let Assembled {
            experiment,
            golden: g,
        } = a;
        let checked: Vec<usize> = (0..lists[i].len())
            .filter(|&f| options.trace || checked_fault(options.seed, i, f))
            .collect();
        let list: FaultList = checked.iter().map(|&f| lists[i].sites()[f]).collect();
        let records = if !options.trace {
            if w.cached() {
                run_campaign_detailed(experiment, g, &list, threads).1
            } else {
                run_campaign_warm_detailed(experiment, g, &list, threads).1
            }
        } else {
            tracer.span(
                "workload.reference",
                0,
                || labels[i].clone(),
                |id| {
                    // The warm replay is single-threaded, so its per-fault
                    // host times are free of contention between workers.
                    let warm =
                        Recorder::new(a, Some(&snapshots[i]), &tracer, id, labels[i].clone());
                    let (_, warm_records, _) = run_campaign_graded(&warm, &list, 1);
                    warm_samples.extend(warm.into_samples());
                    let cold = Recorder::new(a, None, &tracer, id, labels[i].clone());
                    let (_, cold_records, _) = run_campaign_graded(&cold, &list, threads);
                    run_samples.extend(cold.into_samples());
                    let diverged = count_failures(&warm_records, &indexed(&cold_records));
                    if diverged != 0 {
                        problems.push(format!(
                            "{}: warm replay diverged from the cold engine on {diverged} faults",
                            labels[i]
                        ));
                    }
                    if w.cached() {
                        cold_records
                    } else {
                        warm_records
                    }
                },
            )
        };
        let errors = records.iter().filter(|(_, v)| v.is_sim_error()).count();
        if errors != 0 {
            problems.push(format!(
                "{}: reference engine crashed on {errors} faults",
                labels[i]
            ));
        }
        reference.push(
            checked
                .into_iter()
                .zip(records)
                .map(|(f, (s, v))| (f, s, v))
                .collect(),
        );
    }

    // A fault fails when its verdict differs from the reference, or from
    // the first pass (every pass must grade identically), or is
    // `SimError`.
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for pass in &passes {
        attempted += pass.faults as u64;
        for (j, graded) in pass.verdicts.iter().enumerate() {
            let checks = [reference[j].clone(), indexed(&passes[0].verdicts[j])].concat();
            failed += count_failures(graded, &checks) as u64;
        }
    }
    let verdicts = verdict_counts(&passes[0].verdicts);
    let pinned = options.max_faults.is_none()
        && match check_expected(w, options.seed, &verdicts, &golden) {
            Some(drift) => {
                problems.extend(drift);
                true
            }
            None => false,
        };

    // --- metrics ------------------------------------------------------
    // Grading speed is the slowest pass's: on a shared host the speed
    // swings between a contended floor and faster phases of varying
    // length, and the floor is what repeats from run to run.
    let fps = |traced: bool| {
        passes
            .iter()
            .filter(|p| p.traced == traced)
            .map(|p| p.faults as f64 / p.secs)
            .fold(f64::INFINITY, f64::min)
    };
    let mut end_to_end = Vec::new();
    metric(&mut end_to_end, "faults_per_s", fps(false), "faults/s");
    metric(&mut end_to_end, "setup_s", median(&setup_totals), "s");
    metric(&mut end_to_end, "peak_rss_mib", peak_rss, "MiB");

    let mut per_layer = Vec::new();
    if options.trace {
        // Assembly and golden runs are set-up on the cached workloads
        // and part of every grading pass on the legacy sweep.
        let timed: Vec<SetupTimes> = if w.cached() {
            setup_times.clone()
        } else {
            passes.iter().map(|p| p.times).collect()
        };
        let pl = &mut per_layer;
        let field = |f: fn(&SetupTimes) -> f64| median(&timed.iter().map(f).collect::<Vec<_>>());
        metric(pl, "experiment.assemble_s", field(|t| t.assemble_s), "s");
        metric(pl, "experiment.golden_s", field(|t| t.golden_s), "s");
        metric(
            pl,
            "experiment.snapshot_s",
            probes.iter().map(|p| p.snapshot_s).sum(),
            "s",
        );
        verdict_split(pl, "experiment.run_warm", &warm_samples);
        verdict_split(pl, "experiment.run", &run_samples);

        let first = passes.iter().find(|p| !p.ppsfp.is_empty());
        let tel_sum = |f: fn(&PpsfpTelemetry) -> u64| {
            first.map_or(0, |p| p.ppsfp.iter().map(f).sum::<u64>()) as f64
        };
        let campaign: Vec<f64> = passes
            .iter()
            .filter(|p| !p.traced)
            .map(|p| p.ppsfp.iter().map(|t| t.elapsed_secs).sum::<f64>() + 0.0)
            .collect();
        let total = tel_sum(|t| t.total);
        let fallback = tel_sum(|t| t.fallback_faults);
        metric(pl, "ppsfp.campaign_s", median(&campaign), "s");
        metric(
            pl,
            "ppsfp.ridden_words",
            tel_sum(|t| t.ridden_words),
            "count",
        );
        metric(
            pl,
            "ppsfp.packed_faults",
            tel_sum(|t| t.packed_faults),
            "count",
        );
        metric(pl, "ppsfp.fallback_faults", fallback, "count");
        metric(
            pl,
            "ppsfp.fallback_rate",
            if total > 0.0 { fallback / total } else { 0.0 },
            "ratio",
        );
        metric(
            pl,
            "ppsfp.loop_short_circuits",
            tel_sum(|t| t.loop_short_circuits),
            "count",
        );

        let words: Vec<_> = lists
            .iter()
            .flat_map(|l| pack_fault_words(l.sites()))
            .collect();
        let collapsed: usize = lists.iter().map(FaultList::len).sum();
        metric(
            pl,
            "fault.collapse_s",
            median(&setup_times.iter().map(|t| t.collapse_s).collect::<Vec<_>>()),
            "s",
        );
        metric(pl, "fault.collapsed", collapsed as f64, "count");
        metric(pl, "fault.words", words.len() as f64, "count");
        metric(pl, "fault.pack_density", pack_density(&words), "ratio");

        let clones: Vec<f64> = probes
            .iter()
            .flat_map(|p| p.clone_us.iter().copied())
            .collect();
        let cycles: u64 = probes.iter().map(|p| p.step_cycles).sum();
        let step_s: f64 = probes.iter().map(|p| p.step_s).sum();
        let allocs: u64 = probes.iter().map(|p| p.allocs).sum();
        metric(pl, "soc.clone_us", median(&clones), "us");
        metric(
            pl,
            "soc.step_cycles_per_s",
            cycles as f64 / step_s,
            "cycles/s",
        );
        metric(
            pl,
            "soc.allocs_per_cycle",
            allocs as f64 / cycles.max(1) as f64,
            "allocs/cycle",
        );

        for (name, value) in golden.named() {
            let unit =
                if name.ends_with("cycles") || name.ends_with("stalls") || name.ends_with("wait") {
                    "cycles"
                } else {
                    "count"
                };
            metric(pl, name, value as f64, unit);
        }

        let (traced, plain) = (fps(true), fps(false));
        metric(pl, "trace.faults_per_s", traced, "faults/s");
        metric(pl, "trace.untraced_faults_per_s", plain, "faults/s");
        metric(
            pl,
            "trace.overhead_pct",
            100.0 * (plain / traced - 1.0),
            "%",
        );
    }

    Report {
        options: options.clone(),
        host,
        correct: failed == 0 && problems.is_empty(),
        attempted,
        failed,
        end_to_end,
        pass_rates: passes
            .iter()
            .filter(|p| !p.traced)
            .map(|p| p.faults as f64 / p.secs)
            .collect(),
        per_layer,
        verdicts,
        golden,
        pinned,
        problems,
        spans: tracer.spans(),
    }
}

/// One set-up of the workload: assembled experiments (cached workloads;
/// the legacy sweep assembles inside its passes) and fault lists.
fn setup(
    w: Workload,
    jobs: &[Job],
    labels: &[String],
    options: &Options,
    tracer: &Tracer,
    parent: u64,
    times: &mut SetupTimes,
) -> (Vec<Assembled>, Vec<FaultList>) {
    let mut assembled = Vec::new();
    let mut lists = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        if w.cached() {
            assembled.push(assemble(job, tracer, parent, &labels[i], times));
        }
        let max = options.max_faults;
        lists.push(fault_list(job, max, tracer, parent, &labels[i], times));
    }
    (assembled, lists)
}

/// Grades every experiment once with the workload's engine.
#[allow(clippy::too_many_arguments)]
fn grade_pass(
    w: Workload,
    jobs: &[Job],
    labels: &[String],
    assembled: &[Assembled],
    lists: &[FaultList],
    threads: usize,
    tracer: &Tracer,
    parent: u64,
    traced: bool,
) -> Pass {
    let start = Instant::now();
    let mut pass = Pass {
        secs: 0.0,
        faults: 0,
        traced,
        verdicts: Vec::new(),
        ppsfp: Vec::new(),
        times: SetupTimes::default(),
    };
    for (i, list) in lists.iter().enumerate() {
        pass.faults += list.len();
        let request = || labels[i].clone();
        if w.cached() {
            let Assembled { experiment, golden } = &assembled[i];
            let (_, records, telemetry) = tracer.span("ppsfp.campaign", parent, request, |_| {
                run_campaign_ppsfp_telemetry(experiment, golden, list, threads)
            });
            pass.verdicts.push(records);
            pass.ppsfp.push(telemetry);
        } else {
            // A sweep pays assembly and the golden run per scenario.
            let Assembled { experiment, golden } =
                assemble(&jobs[i], tracer, parent, &labels[i], &mut pass.times);
            let (_, records) = tracer.span("faultsim.campaign", parent, request, |_| {
                run_campaign_detailed(&experiment, &golden, list, threads)
            });
            pass.verdicts.push(records);
        }
    }
    pass.secs = start.elapsed().as_secs_f64();
    pass
}

/// Probes the simulator on one experiment: captures the warm-start
/// snapshot, times `Soc::clone` of it, and steps a clone to the golden
/// end with `Soc::step` only, counting heap allocations.
fn probe_soc(a: &Assembled, tracer: &Tracer, parent: u64, label: &str) -> (Snapshot, Probe) {
    const CLONES: usize = 64;
    const STEP_REPS: usize = 3;
    let Assembled { experiment, golden } = a;
    let start = Instant::now();
    let snapshot = tracer.span(
        "experiment.snapshot",
        parent,
        || label.to_string(),
        |_| experiment.snapshot(golden),
    );
    let snapshot_s = start.elapsed().as_secs_f64();
    let mut clone_us = Vec::with_capacity(CLONES);
    for _ in 0..CLONES {
        let start = Instant::now();
        let soc = std::hint::black_box(snapshot.soc().clone());
        clone_us.push(start.elapsed().as_secs_f64() * 1e6);
        drop(soc);
    }
    let mut step_times = Vec::new();
    let mut alloc_counts = Vec::new();
    let mut soc = snapshot.soc().clone();
    for _ in 0..STEP_REPS {
        soc = snapshot.soc().clone();
        let start = Instant::now();
        let ((), allocs) = tracer.span(
            "soc.step",
            parent,
            || label.to_string(),
            |_| {
                ALLOC.count(|| {
                    while soc.cycle() < golden.cycles {
                        soc.step();
                    }
                })
            },
        );
        step_times.push(start.elapsed().as_secs_f64());
        alloc_counts.push(allocs as f64);
    }
    let core = soc.core(0);
    let counters = core.counters();
    let (instructions, if_stalls, mem_stalls) =
        (counters.retired, counters.if_stalls, counters.mem_stalls);
    let bus = soc.bus().stats();
    let (transactions, wait_cycles, max_wait) = (
        bus.transactions,
        bus.wait_cycles.iter().sum(),
        bus.max_grant_wait.iter().copied().max().unwrap_or(0),
    );
    let core = soc.core_mut(0);
    let icache_read_misses = core.icache_mut().map_or(0, |c| c.stats().read_misses);
    let dcache_read_misses = core.dcache_mut().map_or(0, |c| c.stats().read_misses);
    let probe = Probe {
        snapshot_s,
        clone_us,
        step_cycles: golden.cycles - snapshot.cycle(),
        step_s: median(&step_times),
        allocs: median(&alloc_counts) as u64,
        stats: GoldenStats {
            instructions,
            if_stalls,
            mem_stalls,
            icache_read_misses,
            dcache_read_misses,
            bus_transactions: transactions,
            bus_wait_cycles: wait_cycles,
            bus_max_grant_wait: max_wait,
            golden_cycles: soc.cycle(),
        },
        halted: soc.all_halted(),
    };
    (snapshot, probe)
}

/// The probe stepped the golden run a second way (from the snapshot,
/// `Soc::step` only): it must land where the cold golden run did.
fn check_probe(a: &Assembled, probe: &Probe) -> Result<(), String> {
    let g: &Observation = &a.golden;
    let s = &probe.stats;
    if !probe.halted {
        return Err(format!(
            "stepped golden run not halted at cycle {}",
            s.golden_cycles
        ));
    }
    if (s.golden_cycles, s.if_stalls, s.mem_stalls) != (g.cycles, g.if_stalls, g.mem_stalls) {
        return Err(format!(
            "stepped golden run (cycles {}, IF {}, MEM {}) differs from the cold one \
             (cycles {}, IF {}, MEM {})",
            s.golden_cycles, s.if_stalls, s.mem_stalls, g.cycles, g.if_stalls, g.mem_stalls
        ));
    }
    Ok(())
}

/// `<prefix>.<verdict>.{n,host_s,sim_cycles}` plus per-fault host-time
/// percentiles and their sample count.
fn verdict_split(out: &mut Vec<Metric>, prefix: &str, samples: &[FaultSample]) {
    for (verdict, key) in VERDICTS {
        let of: Vec<&FaultSample> = samples.iter().filter(|s| s.verdict == verdict).collect();
        metric(out, format!("{prefix}.{key}.n"), of.len() as f64, "count");
        let host_s: f64 = of.iter().map(|s| s.host_s).sum();
        metric(out, format!("{prefix}.{key}.host_s"), host_s + 0.0, "s");
        let cycles: u64 = of.iter().map(|s| s.sim_cycles).sum();
        metric(
            out,
            format!("{prefix}.{key}.sim_cycles"),
            cycles as f64,
            "cycles",
        );
    }
    let mut ms: Vec<f64> = samples.iter().map(|s| s.host_s * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    metric(
        out,
        format!("{prefix}.fault_ms_p50"),
        percentile(&ms, 50.0),
        "ms",
    );
    metric(
        out,
        format!("{prefix}.fault_ms_p99"),
        percentile(&ms, 99.0),
        "ms",
    );
    metric(out, format!("{prefix}.samples"), ms.len() as f64, "count");
}

// ---------------------------------------------------------------------
// Pinned expectations: verdict counts and golden statistics per seed.
// ---------------------------------------------------------------------

/// Path of the pinned expectations file.
fn expected_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.json")
}

const EXPECTED: &str = include_str!("../expected.json");

/// Named counts as a JSON object.
pub fn counts_json(counts: &[(&str, u64)]) -> Json {
    Json::Obj(
        counts
            .iter()
            .map(|&(k, v)| (k.to_string(), Json::int(v)))
            .collect(),
    )
}

fn expected_entry(verdicts: &[(&'static str, u64)], golden: &GoldenStats) -> Json {
    Json::Obj(vec![
        ("verdicts".into(), counts_json(verdicts)),
        ("golden".into(), counts_json(&golden.named())),
    ])
}

/// Compares this run's verdict counts and golden statistics with the
/// pinned ones for `(workload, seed)`: the differences, or `None` when
/// that seed is not pinned.
fn check_expected(
    w: Workload,
    seed: u64,
    verdicts: &[(&'static str, u64)],
    golden: &GoldenStats,
) -> Option<Vec<String>> {
    let doc = parse_json(EXPECTED).expect("expected.json parses");
    let pinned = doc.get(w.name()).and_then(|e| e.get(&seed.to_string()))?;
    let got = expected_entry(verdicts, golden);
    let mut problems = Vec::new();
    for section in ["verdicts", "golden"] {
        let (Some(Json::Obj(want)), Some(have)) = (pinned.get(section), got.get(section)) else {
            problems.push(format!(
                "expected.json: {} seed {seed} lacks {section}",
                w.name()
            ));
            continue;
        };
        for (key, value) in want {
            let actual = have.get(key).and_then(Json::as_f64);
            if actual != value.as_f64() {
                problems.push(format!(
                    "{section}.{key}: pinned {} for seed {seed}, got {}",
                    value.render(),
                    actual.map_or("nothing".into(), |v| v.to_string())
                ));
            }
        }
    }
    Some(problems)
}

/// Pins this run's verdict counts and golden statistics for its seed in
/// `expected.json` (on disk; the binary embeds the file at build time).
///
/// # Errors
///
/// Reading or writing the file.
pub fn record_expected(report: &Report) -> std::io::Result<()> {
    let path = expected_path();
    let text = std::fs::read_to_string(&path)?;
    let mut doc = parse_json(&text)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let name = report.options.workload.name();
    let mut entry = doc.get(name).cloned().unwrap_or(Json::Obj(Vec::new()));
    entry.set(
        &report.options.seed.to_string(),
        expected_entry(&report.verdicts, &report.golden),
    );
    doc.set(name, entry);
    std::fs::write(&path, doc.render_pretty(1))
}
