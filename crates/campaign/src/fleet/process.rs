//! Process-per-worker fleet pool: true crash isolation.
//!
//! The thread pool in [`run_fleet`](super::run_fleet) isolates panics
//! with `catch_unwind`, but an aborting worker (stack overflow, OOM
//! kill, `std::process::abort`) would take the whole fleet down. This
//! pool runs every shard attempt in its **own child process**: the
//! child grades the shard, writes a sealed [`ShardResult`] file, and
//! exits. A child dying in *any* way — clean panic, abort, SIGKILL —
//! is just a failed attempt.
//!
//! The pool is the same orchestrator as the thread pool (see the
//! [`orchestrator`](super::orchestrator) module docs) with a different
//! attempt function: each worker thread spawns one child, polls it,
//! kills it when its lease is stolen, and reads its result file.

use std::io;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};

use sbst_obs::Json;

use crate::checkpoint::{
    field, malformed, parse_record, uint, verdicts_from_json, verdicts_to_json, CheckpointError,
};

use super::lease::FailureKind;
use super::orchestrator::{
    execute_shard, orchestrate, Attempt, FleetConfig, FleetGrader, FleetReport, InjectedTally,
    ShardResult,
};
use super::shard::{FleetPlan, Shard};

impl ShardResult {
    /// Serializes the result to the shard-result file format (one JSON
    /// object, same vocabulary as the checkpoint format).
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("shard".into(), Json::int(self.shard as u64)),
            ("resumed".into(), Json::int(self.resumed.into())),
            ("checksum".into(), Json::int(self.checksum)),
            ("verdicts".into(), verdicts_to_json(self.verdicts.iter().copied().map(Some))),
        ])
        .render_pretty(2)
    }

    /// Parses the shard-result file format.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Malformed`] on any deviation — a torn
    /// or truncated result file from a killed child must parse as
    /// garbage, never as a half-result.
    pub fn from_json(text: &str) -> Result<ShardResult, CheckpointError> {
        let record = parse_record(text, &["shard", "resumed", "checksum", "verdicts"])?;
        let verdicts = verdicts_from_json(field(&record, "verdicts")?)?
            .into_iter()
            .map(|v| v.ok_or_else(|| malformed("null verdict in shard result")))
            .collect::<Result<_, _>>()?;
        Ok(ShardResult {
            shard: usize::try_from(uint(&record, "shard")?)
                .map_err(|_| malformed("shard out of range"))?,
            resumed: u32::try_from(uint(&record, "resumed")?)
                .map_err(|_| malformed("resumed out of range"))?,
            checksum: uint(&record, "checksum")?,
            verdicts,
        })
    }
}

/// Child-process entry point: grades one shard attempt to a sealed
/// result. Injected chaos behaves like a real defect would in a
/// process worker — a panic unwinds into a non-zero exit, a hang spins
/// until the parent kills the process.
///
/// Intended for the `--worker` mode of a fleet binary: rebuild the
/// same deterministic [`FleetPlan`] from the CLI arguments, call this,
/// write the result with [`ShardResult::to_json`], exit zero.
pub fn execute_shard_standalone(
    plan: &FleetPlan,
    shard: &Shard,
    attempt: u8,
    cfg: &FleetConfig,
    grader: &dyn FleetGrader,
) -> ShardResult {
    let cancel = AtomicBool::new(false);
    let tally = InjectedTally::default();
    match execute_shard(
        plan,
        shard,
        attempt,
        &cfg.chaos,
        grader,
        cfg.checkpoint_dir.as_deref(),
        cfg.checkpoint_every,
        &cancel,
        &tally,
    ) {
        Attempt::Sealed(result) => result,
        // The cancel token is never set in a standalone process, and
        // `execute_shard` reports no failure of its own.
        Attempt::Cancelled | Attempt::Failed(_) => {
            unreachable!("standalone shard attempts always seal")
        }
    }
}

/// Builds the child [`Command`] for one shard attempt. The callback
/// receives the shard, the attempt number and the path the child must
/// write its [`ShardResult`] JSON to. It is called from the worker
/// threads, hence `Sync`.
pub type ShardCommand<'a> = dyn Fn(&Shard, u8, &Path) -> Command + Sync + 'a;

/// Runs the fleet campaign with one **child process per shard
/// attempt**, under the same lease / steal / retry / quarantine
/// orchestrator as [`run_fleet`](super::run_fleet). Each of the
/// `cfg.workers` worker threads runs one child at a time: a child
/// whose lease is stolen is killed, and a child that cannot be spawned
/// or exits without a readable result file is charged as
/// [`FailureKind::WorkerLost`].
///
/// Injection counters in the returned telemetry count the chaos rolls
/// as scheduled at spawn, since a crashed child cannot report what it
/// did; `faults_graded` sums `verdicts.len() - resumed` over every
/// sealed result a child wrote, and `checkpoints_rejected` stays 0.
///
/// # Errors
///
/// Propagates creation of the scratch directory for result files;
/// per-child spawn failures are charged to the shard instead.
pub fn run_fleet_process(
    plan: &FleetPlan,
    cfg: &FleetConfig,
    command: &ShardCommand<'_>,
) -> io::Result<FleetReport> {
    let scratch = std::env::temp_dir().join(format!(
        "sbst-fleet-{}-{:x}",
        std::process::id(),
        cfg.policy.seed
    ));
    std::fs::create_dir_all(&scratch)?;
    let report = orchestrate(plan, cfg, &|lease, shard, tally| {
        tally.count(cfg.chaos.roll(lease.shard, lease.attempt, shard.len));
        let out = scratch.join(format!("shard-{:04}-e{}.json", lease.shard, lease.epoch));
        let _ = std::fs::remove_file(&out);
        let mut cmd = command(shard, lease.attempt, &out);
        cmd.stdout(Stdio::null()).stderr(Stdio::null());
        let Ok(mut child) = cmd.spawn() else {
            return Attempt::Failed(FailureKind::WorkerLost);
        };
        let exited_ok = loop {
            if lease.cancel.load(Ordering::Acquire) {
                let _ = child.kill();
                let _ = child.wait();
                let _ = std::fs::remove_file(&out);
                return Attempt::Cancelled;
            }
            match child.try_wait() {
                Ok(Some(status)) => break status.success(),
                Ok(None) => std::thread::sleep(cfg.poll),
                // Treat a wait error like a lost worker.
                Err(_) => break false,
            }
        };
        // A non-zero exit (panic/abort/signal) or an unreadable/torn
        // result file is a lost worker.
        let result = exited_ok
            .then(|| std::fs::read_to_string(&out).ok())
            .flatten()
            .and_then(|text| ShardResult::from_json(&text).ok());
        let _ = std::fs::remove_file(&out);
        match result {
            Some(result) => {
                let graded = result.verdicts.len().saturating_sub(result.resumed as usize);
                tally.faults_graded.fetch_add(graded as u64, Ordering::Relaxed);
                Attempt::Sealed(result)
            }
            None => Attempt::Failed(FailureKind::WorkerLost),
        }
    });
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbst_fault::Verdict;

    #[test]
    fn shard_result_json_round_trips_and_rejects_torn_files() {
        let r = ShardResult::seal(
            5,
            0xabc,
            0xdef,
            vec![Verdict::Hang, Verdict::Undetected, Verdict::WrongSignature],
            2,
        );
        let text = r.to_json();
        let back = ShardResult::from_json(&text).expect("parses");
        assert_eq!(back, r);
        assert!(back.is_valid(5, 0xabc, 0xdef));
        assert!(!back.is_valid(5, 0xabc, 0xdee), "wrong ECU binding rejected");
        assert!(!back.is_valid(4, 0xabc, 0xdef), "wrong shard rejected");
        // Every torn prefix (anything short of the closing brace) is
        // rejected, never half-parsed.
        for cut in 0..text.trim_end().len() {
            assert!(ShardResult::from_json(&text[..cut]).is_err(), "accepted prefix {cut}");
        }
    }

    #[test]
    fn the_previous_byte_layout_still_loads() {
        let text = "{\n  \"shard\": 5,\n  \"resumed\": 2,\n  \"checksum\": 2643592411104133119,\n  \
                    \"verdicts\": [\"hang\", \"undetected\", \"wrong-signature\"]\n}\n";
        let r = ShardResult::from_json(text).expect("parses");
        assert_eq!(r.checksum, 0x24af_ed4a_a2c7_bfff);
        assert!(r.is_valid(5, 0xabc, 0xdef), "the seal survives the codec bit-exact");
        assert_eq!(r.resumed, 2);
    }

    #[test]
    fn out_of_range_and_null_fields_are_rejected() {
        for bad in [
            r#"{"shard": 1, "resumed": 4294967297, "checksum": 3, "verdicts": []}"#,
            r#"{"shard": 1, "resumed": 0, "checksum": 3, "verdicts": ["hang", null]}"#,
            r#"{"shard": 1, "resumed": 0, "checksum": -3, "verdicts": []}"#,
            r#"{"shard": 1, "resumed": 0, "verdicts": []}"#,
        ] {
            assert!(
                matches!(ShardResult::from_json(bad), Err(CheckpointError::Malformed(_))),
                "accepted {bad}"
            );
        }
    }

    #[test]
    fn tampered_verdicts_fail_the_seal() {
        let mut r = ShardResult::seal(1, 10, 20, vec![Verdict::Undetected; 4], 0);
        assert!(r.is_valid(1, 10, 20));
        r.verdicts[2] = Verdict::Hang;
        assert!(!r.is_valid(1, 10, 20));
    }

    /// Runs a 3-shard plan whose children never write a result and
    /// checks that every shard ends quarantined as a lost worker. The
    /// seed names the scratch directory, so give each test its own.
    #[cfg(unix)]
    fn assert_all_workers_lost(seed: u64, command: &ShardCommand<'_>) {
        use std::time::Duration;

        use sbst_fault::{Element, FaultSite, Polarity, Unit};
        use sbst_obs::TraceKind;

        use crate::fleet::{EcuSpec, LeasePolicy, ShardFate};

        let sites = (0..6)
            .map(|i| FaultSite {
                unit: Unit::Hdcu,
                instance: i,
                element: Element::CmpOut,
                polarity: Polarity::StuckAt0,
            })
            .collect();
        let ecus = EcuSpec::population(Unit::Hdcu).into_iter().take(1).collect();
        let plan = FleetPlan::build(ecus, vec![sites], 2);
        assert_eq!(plan.shard_count(), 3);
        let cfg = FleetConfig {
            // Long leases: every failure must be the child's, never a
            // timeout steal.
            policy: LeasePolicy {
                max_retries: 1,
                lease_timeout: Duration::from_secs(60),
                ..LeasePolicy::fast(seed)
            },
            ..FleetConfig::new(2, seed)
        };
        let report = run_fleet_process(&plan, &cfg, command).expect("scratch dir");
        for (i, fate) in report.fates.iter().enumerate() {
            assert!(
                matches!(fate, ShardFate::Quarantined { cause: FailureKind::WorkerLost, .. }),
                "shard {i}: {fate:?}"
            );
        }
        assert!(report.verdicts.iter().all(Option::is_none), "nothing merged");
        let mut quarantined: Vec<u32> = report
            .events
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::ShardQuarantine { shard, cause } => {
                    assert_eq!(cause, "worker-lost", "shard {shard}");
                    Some(shard)
                }
                _ => None,
            })
            .collect();
        quarantined.sort_unstable();
        assert_eq!(quarantined, [0, 1, 2], "one quarantine event per shard");
    }

    #[cfg(unix)]
    #[test]
    fn unspawnable_children_are_lost_workers() {
        assert_all_workers_lost(1, &|_: &Shard, _: u8, _: &Path| {
            Command::new("/nonexistent/sbst-fleet-worker")
        });
    }

    #[cfg(unix)]
    #[test]
    fn children_that_exit_without_a_result_are_lost_workers() {
        assert_all_workers_lost(2, &|_: &Shard, _: u8, _: &Path| Command::new("true"));
    }
}
