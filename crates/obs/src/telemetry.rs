//! Campaign-level telemetry: verdict mix, throughput, warm-start hit
//! rate and periodic progress snapshots of a fault-injection campaign.

use crate::json::Json;

/// How a campaign's verdicts were distributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VerdictMix {
    /// Faults detected by a wrong signature.
    pub wrong_signature: u64,
    /// Faults detected by an explicit test-fail status.
    pub test_fail: u64,
    /// Faults detected by an unexpected trap.
    pub unexpected_trap: u64,
    /// Faults detected by a hang (watchdog / cycle budget).
    pub hang: u64,
    /// Faults the STL did not detect.
    pub undetected: u64,
    /// Simulations that failed outright (grader error).
    pub sim_error: u64,
}

impl VerdictMix {
    /// Total verdicts counted.
    pub fn total(&self) -> u64 {
        self.wrong_signature
            + self.test_fail
            + self.unexpected_trap
            + self.hang
            + self.undetected
            + self.sim_error
    }

    /// Faults detected by any mechanism.
    pub fn detected(&self) -> u64 {
        self.wrong_signature + self.test_fail + self.unexpected_trap + self.hang
    }

    /// Renders the mix as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("wrong_signature".into(), Json::int(self.wrong_signature)),
            ("test_fail".into(), Json::int(self.test_fail)),
            ("unexpected_trap".into(), Json::int(self.unexpected_trap)),
            ("hang".into(), Json::int(self.hang)),
            ("undetected".into(), Json::int(self.undetected)),
            ("sim_error".into(), Json::int(self.sim_error)),
        ])
    }
}

impl std::fmt::Display for VerdictMix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sig={} fail={} trap={} hang={} undetected={} err={}",
            self.wrong_signature,
            self.test_fail,
            self.unexpected_trap,
            self.hang,
            self.undetected,
            self.sim_error,
        )
    }
}

/// One periodic progress sample taken while a campaign was running.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressSnapshot {
    /// Faults graded so far.
    pub done: usize,
    /// Faults in the campaign.
    pub total: usize,
    /// Wall-clock seconds since the campaign started.
    pub elapsed_secs: f64,
    /// Grading throughput at this snapshot.
    pub faults_per_sec: f64,
}

impl ProgressSnapshot {
    /// Renders the snapshot as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("done".into(), Json::int(self.done as u64)),
            ("total".into(), Json::int(self.total as u64)),
            ("elapsed_secs".into(), Json::Num(self.elapsed_secs)),
            ("faults_per_sec".into(), Json::Num(self.faults_per_sec)),
        ])
    }
}

/// End-of-campaign telemetry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CampaignTelemetry {
    /// Faults graded.
    pub total: u64,
    /// Verdict distribution.
    pub mix: VerdictMix,
    /// Wall-clock seconds the campaign took.
    pub elapsed_secs: f64,
    /// Overall grading throughput.
    pub faults_per_sec: f64,
    /// Fraction of faults that short-circuited on the warm-start early
    /// verdict (None for cold campaigns).
    pub warm_hit_rate: Option<f64>,
    /// Periodic snapshots, oldest first.
    pub progress: Vec<ProgressSnapshot>,
}

impl CampaignTelemetry {
    /// Renders the telemetry as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("total".into(), Json::int(self.total)),
            ("verdicts".into(), self.mix.to_json()),
            ("elapsed_secs".into(), Json::Num(self.elapsed_secs)),
            ("faults_per_sec".into(), Json::Num(self.faults_per_sec)),
        ];
        match self.warm_hit_rate {
            Some(rate) => fields.push(("warm_hit_rate".into(), Json::Num(rate))),
            None => fields.push(("warm_hit_rate".into(), Json::Null)),
        }
        fields.push((
            "progress".into(),
            Json::Arr(self.progress.iter().map(ProgressSnapshot::to_json).collect()),
        ));
        Json::Obj(fields)
    }
}

impl std::fmt::Display for CampaignTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} faults in {:.2}s ({:.0} faults/sec; {})",
            self.total, self.elapsed_secs, self.faults_per_sec, self.mix,
        )?;
        if let Some(rate) = self.warm_hit_rate {
            write!(f, "; warm-hit {:.1}%", 100.0 * rate)?;
        }
        Ok(())
    }
}

/// End-of-run telemetry of a fleet campaign: the recovery counters of
/// the lease table, the chaos plane's injection tally, the work saved
/// by shard checkpoints and the aggregate verdict mix of every
/// completed shard.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FleetTelemetry {
    /// Lease/retry/steal/quarantine counters.
    pub counters: crate::metrics::FleetCounters,
    /// Injected worker panics (chaos plane).
    pub injected_panics: u64,
    /// Injected worker hangs.
    pub injected_hangs: u64,
    /// Injected worker slowdowns.
    pub injected_slowdowns: u64,
    /// Injected result corruptions.
    pub injected_corruptions: u64,
    /// Shard checkpoints rejected on load (fingerprint/config mismatch
    /// or torn file) and discarded.
    pub checkpoints_rejected: u64,
    /// Faults graded by workers (excluding checkpoint restores).
    pub faults_graded: u64,
    /// Faults restored from shard checkpoints instead of re-graded.
    pub faults_restored: u64,
    /// Wall-clock seconds of the fleet run.
    pub elapsed_secs: f64,
    /// Grading throughput over graded + restored faults.
    pub faults_per_sec: f64,
    /// Verdict distribution over every completed shard.
    pub mix: VerdictMix,
}

impl FleetTelemetry {
    /// Renders the telemetry as a JSON object.
    pub fn to_json(&self) -> Json {
        let c = &self.counters;
        Json::Obj(vec![
            ("shards".into(), Json::int(c.shards)),
            ("completed".into(), Json::int(c.completed)),
            ("quarantined".into(), Json::int(c.quarantined)),
            ("leases".into(), Json::int(c.leases)),
            ("retries".into(), Json::int(c.retries)),
            ("steals".into(), Json::int(c.steals)),
            ("resumes".into(), Json::int(c.resumes)),
            ("late_results".into(), Json::int(c.late_results)),
            ("injected_panics".into(), Json::int(self.injected_panics)),
            ("injected_hangs".into(), Json::int(self.injected_hangs)),
            ("injected_slowdowns".into(), Json::int(self.injected_slowdowns)),
            ("injected_corruptions".into(), Json::int(self.injected_corruptions)),
            ("checkpoints_rejected".into(), Json::int(self.checkpoints_rejected)),
            ("faults_graded".into(), Json::int(self.faults_graded)),
            ("faults_restored".into(), Json::int(self.faults_restored)),
            ("elapsed_secs".into(), Json::Num(self.elapsed_secs)),
            ("faults_per_sec".into(), Json::Num(self.faults_per_sec)),
            ("verdicts".into(), self.mix.to_json()),
        ])
    }
}

impl std::fmt::Display for FleetTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = &self.counters;
        write!(
            f,
            "{}/{} shards ({} quarantined) in {:.2}s ({:.0} faults/sec); \
             {} leases, {} retries, {} steals, {} resumes; \
             chaos: {} panics, {} hangs, {} slowdowns, {} corruptions; {}",
            c.completed,
            c.shards,
            c.quarantined,
            self.elapsed_secs,
            self.faults_per_sec,
            c.leases,
            c.retries,
            c.steals,
            c.resumes,
            self.injected_panics,
            self.injected_hangs,
            self.injected_slowdowns,
            self.injected_corruptions,
            self.mix,
        )
    }
}

/// End-of-campaign telemetry of a bit-parallel (PPSFP) grading run:
/// how the fault list packed into words, how much of it rode the shared
/// golden tail versus falling back to serial grading, and how often the
/// serial fallback's loop proof decided a hang or refused a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PpsfpTelemetry {
    /// Faults graded.
    pub total: u64,
    /// Packed fault words formed from the list (all units).
    pub words: u64,
    /// Words graded on the bit-parallel ride.
    pub ridden_words: u64,
    /// Faults packed into ridden words.
    pub packed_faults: u64,
    /// Mean lane occupancy of the packing (fraction of the word width).
    pub pack_density: f64,
    /// Faults graded by the serial fallback.
    pub fallback_faults: u64,
    /// `fallback_faults / total` (0 for an empty campaign).
    pub fallback_rate: f64,
    /// Fallback hangs the loop proof decided: runs ended at their
    /// budget without simulating the rest (exact repeats and counter
    /// runaways alike).
    pub loop_short_circuits: u64,
    /// Loop candidates whose proof failed (the run went on simulating).
    pub loop_refusals: u64,
    /// Wall-clock seconds the campaign took.
    pub elapsed_secs: f64,
    /// Overall grading throughput.
    pub faults_per_sec: f64,
    /// Verdict distribution.
    pub mix: VerdictMix,
}

impl PpsfpTelemetry {
    /// Renders the telemetry as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("total".into(), Json::int(self.total)),
            ("words".into(), Json::int(self.words)),
            ("ridden_words".into(), Json::int(self.ridden_words)),
            ("packed_faults".into(), Json::int(self.packed_faults)),
            ("pack_density".into(), Json::Num(self.pack_density)),
            ("fallback_faults".into(), Json::int(self.fallback_faults)),
            ("fallback_rate".into(), Json::Num(self.fallback_rate)),
            ("loop_short_circuits".into(), Json::int(self.loop_short_circuits)),
            ("loop_refusals".into(), Json::int(self.loop_refusals)),
            ("elapsed_secs".into(), Json::Num(self.elapsed_secs)),
            ("faults_per_sec".into(), Json::Num(self.faults_per_sec)),
            ("verdicts".into(), self.mix.to_json()),
        ])
    }
}

impl std::fmt::Display for PpsfpTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} faults in {:.2}s ({:.0} faults/sec); {} words (density {:.2}), \
             {} ridden; fallback {:.1}% ({} faults, {} loop short-circuits, \
             {} loop refusals); {}",
            self.total,
            self.elapsed_secs,
            self.faults_per_sec,
            self.words,
            self.pack_density,
            self.ridden_words,
            100.0 * self.fallback_rate,
            self.fallback_faults,
            self.loop_short_circuits,
            self.loop_refusals,
            self.mix,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

    #[test]
    fn telemetry_renders_as_valid_json() {
        let telemetry = CampaignTelemetry {
            total: 100,
            mix: VerdictMix { wrong_signature: 60, hang: 10, undetected: 30, ..VerdictMix::default() },
            elapsed_secs: 2.5,
            faults_per_sec: 40.0,
            warm_hit_rate: Some(0.9),
            progress: vec![ProgressSnapshot {
                done: 50,
                total: 100,
                elapsed_secs: 1.25,
                faults_per_sec: 40.0,
            }],
        };
        let doc = parse_json(&telemetry.to_json().render()).expect("valid JSON");
        assert_eq!(doc.get("total").and_then(Json::as_f64), Some(100.0));
        assert_eq!(
            doc.get("verdicts").and_then(|v| v.get("wrong_signature")).and_then(Json::as_f64),
            Some(60.0)
        );
        assert_eq!(doc.get("warm_hit_rate").and_then(Json::as_f64), Some(0.9));
        assert_eq!(doc.get("progress").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
        assert!(telemetry.to_string().contains("warm-hit 90.0%"));
    }

    #[test]
    fn fleet_telemetry_renders_as_valid_json() {
        let telemetry = FleetTelemetry {
            counters: crate::metrics::FleetCounters {
                shards: 12,
                completed: 11,
                quarantined: 1,
                leases: 18,
                retries: 5,
                steals: 2,
                resumes: 3,
                late_results: 1,
            },
            injected_panics: 3,
            injected_hangs: 1,
            injected_slowdowns: 2,
            injected_corruptions: 1,
            checkpoints_rejected: 0,
            faults_graded: 500,
            faults_restored: 40,
            elapsed_secs: 1.5,
            faults_per_sec: 360.0,
            mix: VerdictMix { wrong_signature: 300, undetected: 240, ..VerdictMix::default() },
        };
        let doc = parse_json(&telemetry.to_json().render()).expect("valid JSON");
        assert_eq!(doc.get("shards").and_then(Json::as_f64), Some(12.0));
        assert_eq!(doc.get("steals").and_then(Json::as_f64), Some(2.0));
        assert_eq!(doc.get("injected_hangs").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            doc.get("verdicts").and_then(|v| v.get("wrong_signature")).and_then(Json::as_f64),
            Some(300.0)
        );
        assert!(telemetry.to_string().contains("11/12 shards"));
    }

    #[test]
    fn ppsfp_telemetry_renders_as_valid_json() {
        let telemetry = PpsfpTelemetry {
            total: 587,
            words: 10,
            ridden_words: 9,
            packed_faults: 560,
            pack_density: 0.92,
            fallback_faults: 104,
            fallback_rate: 0.177,
            loop_short_circuits: 5,
            loop_refusals: 2,
            elapsed_secs: 1.5,
            faults_per_sec: 391.3,
            mix: VerdictMix { wrong_signature: 457, hang: 54, undetected: 76, ..VerdictMix::default() },
        };
        let doc = parse_json(&telemetry.to_json().render()).expect("valid JSON");
        assert_eq!(doc.get("words").and_then(Json::as_f64), Some(10.0));
        assert_eq!(doc.get("ridden_words").and_then(Json::as_f64), Some(9.0));
        assert_eq!(doc.get("pack_density").and_then(Json::as_f64), Some(0.92));
        assert_eq!(doc.get("loop_short_circuits").and_then(Json::as_f64), Some(5.0));
        assert_eq!(
            doc.get("verdicts").and_then(|v| v.get("hang")).and_then(Json::as_f64),
            Some(54.0)
        );
        assert!(telemetry.to_string().contains("fallback 17.7%"));
        assert!(telemetry.to_string().contains("5 loop short-circuits"));
    }

    #[test]
    fn mix_totals_add_up() {
        let mix = VerdictMix {
            wrong_signature: 1,
            test_fail: 2,
            unexpected_trap: 3,
            hang: 4,
            undetected: 5,
            sim_error: 6,
        };
        assert_eq!(mix.total(), 21);
        assert_eq!(mix.detected(), 10);
    }
}
