//! Campaign telemetry: throughput, verdict mix and periodic progress
//! snapshots, collected through the grading core's `on_done` observer
//! seam.
//!
//! The observer runs outside the verdict lock, so snapshots can arrive
//! out of order; a monotonic done-count guard keeps the recorded progress
//! strictly increasing. Telemetry never changes what is graded: the
//! verdicts and aggregates are identical to
//! [`run_campaign_graded`](crate::run_campaign_graded) with the same
//! grader.

use std::sync::Mutex;
use std::time::Instant;

use sbst_fault::{FaultList, FaultSite, Verdict};
use sbst_obs::{CampaignTelemetry, ProgressSnapshot};

use crate::faultsim::{grade, CampaignResult, FaultGrader};

/// Progress snapshots targeted per campaign (the last fault always
/// produces one, so short campaigns still get an end-of-run sample).
const TARGET_SNAPSHOTS: usize = 8;

/// Grades `faults` with `grader` while collecting telemetry. The
/// wall-clock fields (`elapsed_secs`, `faults_per_sec`, snapshot
/// timings) are the only non-deterministic outputs; verdicts and the
/// mix are bit-identical to the untelemetered engine. `warm_hit_rate`
/// is left `None`: only the caller knows whether `grader` exits early.
pub fn run_campaign_graded_telemetry(
    grader: &dyn FaultGrader,
    faults: &FaultList,
    threads: usize,
) -> (CampaignResult, Vec<(FaultSite, Verdict)>, CampaignTelemetry) {
    let sites = faults.sites();
    let total = sites.len();
    let start = Instant::now();
    let interval = (total / TARGET_SNAPSHOTS).max(1);
    // (highest done-count recorded, snapshots) — the guard keeps
    // progress monotonic even when observer calls arrive out of order.
    let progress: Mutex<(usize, Vec<ProgressSnapshot>)> = Mutex::new((0, Vec::new()));
    let on_done = |slots: &[Option<Verdict>]| {
        let done = slots.iter().filter(|v| v.is_some()).count();
        if !done.is_multiple_of(interval) && done != total {
            return;
        }
        let elapsed = start.elapsed().as_secs_f64();
        let mut state = progress.lock().expect("progress state");
        if done <= state.0 {
            return;
        }
        state.0 = done;
        state.1.push(ProgressSnapshot {
            done,
            total,
            elapsed_secs: elapsed,
            faults_per_sec: if elapsed > 0.0 { done as f64 / elapsed } else { 0.0 },
        });
    };
    let graded =
        grade(&|site| grader.grade(site), sites, vec![None; total], usize::MAX, threads, &on_done);
    let elapsed = start.elapsed().as_secs_f64();
    let telemetry = CampaignTelemetry {
        total: total as u64,
        mix: graded.result.mix(),
        elapsed_secs: elapsed,
        faults_per_sec: if elapsed > 0.0 { total as f64 / elapsed } else { 0.0 },
        warm_hit_rate: None,
        progress: progress.into_inner().expect("progress state").1,
    };
    (graded.result, graded.records, telemetry)
}
