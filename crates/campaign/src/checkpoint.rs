//! Incremental campaign checkpointing and resumption.
//!
//! A fault campaign is thousands of independent full-SoC simulations;
//! killing the host process (preemption, OOM, operator ctrl-C) used to
//! lose everything. This module periodically serializes the per-fault
//! verdict vector to a small JSON file so a later invocation can skip
//! every already-graded site and finish the campaign with a
//! [`CampaignResult`] identical to an uninterrupted run.
//!
//! The checkpoint is bound to the *exact* fault list by a fingerprint
//! (FNV-1a over the site taxonomy in list order): resuming against a
//! different list, order, or taxonomy version is rejected instead of
//! silently mis-attributing verdicts. Since format version 2 it is
//! *also* bound to the SoC configuration that graded it (core kind,
//! execution style, scenario, cache geometry and write policy — see
//! [`fingerprint_config`]): a checkpoint resumed against a mismatched
//! ECU variant is rejected with [`CheckpointError::ConfigMismatch`]
//! instead of silently grading the wrong population.
//!
//! The on-disk format is one small JSON object, read and written
//! through the workspace's one JSON codec, [`sbst_obs::Json`], whose
//! exact integers carry the 64-bit fingerprints bit for bit:
//!
//! ```json
//! {
//!   "version": 2,
//!   "fingerprint": 1234567890123,
//!   "config": 9876543210,
//!   "verdicts": ["hang", null, "undetected", ...]
//! }
//! ```
//!
//! `verdicts[i]` is `null` while fault `i` is still ungraded, else the
//! stable tag of [`Verdict`] (see [`Verdict::tag`]). Reading is strict:
//! an unknown or missing key, an unsupported version, a fingerprint
//! that is not an unsigned 64-bit integer, or anything short of one
//! complete object is [`CheckpointError::Malformed`]. Writes go through
//! a temp file + rename so a crash mid-write never corrupts the last
//! good checkpoint.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use sbst_fault::{FaultList, FaultSite, Verdict};
use sbst_obs::{parse_json, Json};

use crate::experiment::ExperimentConfig;
use crate::faultsim::{grade, CampaignError, CampaignResult, ExperimentGrader, FaultGrader};
use crate::{Experiment, Observation};

/// Current checkpoint file format version.
pub const CHECKPOINT_VERSION: u32 = 2;

/// The config fingerprint of a checkpoint whose grading configuration
/// was not recorded (grader-level campaigns with no SoC notion).
pub const CONFIG_UNBOUND: u64 = 0;

/// The persisted state of a (possibly partial) campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Fingerprint of the fault list this checkpoint belongs to.
    pub fingerprint: u64,
    /// Fingerprint of the SoC/ECU configuration the verdicts were
    /// graded under ([`CONFIG_UNBOUND`] when not recorded).
    pub config: u64,
    /// Per-fault verdict slots, in fault-list order.
    pub verdicts: Vec<Option<Verdict>>,
}

/// Why a checkpoint could not be used.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(io::Error),
    /// The file is not a valid checkpoint (message says where).
    Malformed(String),
    /// The checkpoint belongs to a different fault list.
    FingerprintMismatch {
        /// Fingerprint in the file.
        found: u64,
        /// Fingerprint of the offered fault list.
        expected: u64,
    },
    /// The checkpoint was graded under a different SoC configuration
    /// (core kind, scenario, cache geometry, write policy): its
    /// verdicts describe a different ECU population and must not be
    /// merged into this campaign.
    ConfigMismatch {
        /// Config fingerprint in the file.
        found: u64,
        /// Config fingerprint of the offered experiment.
        expected: u64,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O: {e}"),
            CheckpointError::Malformed(m) => write!(f, "malformed checkpoint: {m}"),
            CheckpointError::FingerprintMismatch { found, expected } => write!(
                f,
                "checkpoint fingerprint {found:#x} does not match fault list {expected:#x}"
            ),
            CheckpointError::ConfigMismatch { found, expected } => write!(
                f,
                "checkpoint was graded under SoC config {found:#x}, not the offered \
                 {expected:#x} — resuming would grade the wrong ECU population"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> CheckpointError {
        CheckpointError::Io(e)
    }
}

/// FNV-1a over a byte stream.
pub(crate) fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Stable fingerprint of a fault list (FNV-1a over the `Debug`
/// rendering of each site, in order, plus the length).
pub fn fingerprint(faults: &FaultList) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv(&mut h, &(faults.len() as u64).to_le_bytes());
    for site in faults.iter() {
        fnv(&mut h, format!("{site:?}").as_bytes());
    }
    h
}

/// Stable fingerprint of an experiment's SoC configuration: core kind,
/// execution style, scenario (active cores / code position / alignment
/// / skew seed), wrapper settings and cache geometry incl. write
/// policy — everything that can change what a verdict means (FNV-1a
/// over the config's `Debug` rendering, which covers every field).
///
/// Never returns [`CONFIG_UNBOUND`]; the reserved "not recorded" value
/// is remapped so a real config can always be distinguished from an
/// unbound checkpoint.
pub fn fingerprint_config(config: &ExperimentConfig) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv(&mut h, format!("{config:?}").as_bytes());
    if h == CONFIG_UNBOUND {
        h = 1;
    }
    h
}

impl Checkpoint {
    /// A fresh, fully ungraded checkpoint for `faults`, not bound to
    /// any SoC configuration.
    pub fn new(faults: &FaultList) -> Checkpoint {
        Checkpoint::with_config(faults, CONFIG_UNBOUND)
    }

    /// A fresh, fully ungraded checkpoint for `faults`, graded under
    /// the SoC configuration with fingerprint `config`.
    pub fn with_config(faults: &FaultList, config: u64) -> Checkpoint {
        Checkpoint {
            fingerprint: fingerprint(faults),
            config,
            verdicts: vec![None; faults.len()],
        }
    }

    /// Number of graded slots.
    pub fn completed(&self) -> usize {
        self.verdicts.iter().filter(|v| v.is_some()).count()
    }

    /// Whether every fault is graded.
    pub fn is_complete(&self) -> bool {
        self.verdicts.iter().all(|v| v.is_some())
    }

    /// Serializes to the checkpoint JSON format.
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("version".into(), Json::int(CHECKPOINT_VERSION.into())),
            ("fingerprint".into(), Json::int(self.fingerprint)),
            ("config".into(), Json::int(self.config)),
            ("verdicts".into(), verdicts_to_json(self.verdicts.iter().copied())),
        ])
        .render_pretty(2)
    }

    /// Parses the checkpoint JSON format.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Malformed`] with a description of the
    /// first offending construct.
    pub fn from_json(text: &str) -> Result<Checkpoint, CheckpointError> {
        let record = parse_record(text, &["version", "fingerprint", "config", "verdicts"])?;
        match uint(&record, "version")? {
            // Version 1 predates config binding; treat it as unbound.
            1 => {}
            v if v == u64::from(CHECKPOINT_VERSION) => {}
            v => return Err(malformed(&format!("unsupported version {v}"))),
        }
        Ok(Checkpoint {
            fingerprint: uint(&record, "fingerprint")?,
            config: match record.get("config") {
                Some(_) => uint(&record, "config")?,
                None => CONFIG_UNBOUND,
            },
            verdicts: verdicts_from_json(field(&record, "verdicts")?)?,
        })
    }

    /// Atomically and durably writes the checkpoint to `path`: temp
    /// file, fsync, rename, then (unix) fsync of the parent directory.
    /// Without the syncs a crash *after* the rename could still leave a
    /// complete-looking but truncated file (data not yet written back)
    /// or resurrect the old file (rename not yet journaled).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let tmp = tmp_path(path);
        {
            let mut f = fs::File::create(&tmp)?;
            io::Write::write_all(&mut f, self.to_json().as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        // The rename itself must reach the directory's metadata.
        // Best-effort: not every filesystem lets a directory be synced.
        #[cfg(unix)]
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Loads a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors and format violations.
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        Checkpoint::from_json(&fs::read_to_string(path)?)
    }
}

pub(crate) fn malformed(msg: &str) -> CheckpointError {
    CheckpointError::Malformed(msg.to_string())
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// Parses one record file (a checkpoint or a fleet shard result): the
/// whole of `text` must be one JSON object whose keys all appear in
/// `keys`.
pub(crate) fn parse_record(text: &str, keys: &[&str]) -> Result<Json, CheckpointError> {
    let record = parse_json(text).map_err(|e| malformed(&e.to_string()))?;
    let Json::Obj(fields) = &record else {
        return Err(malformed("expected a JSON object"));
    };
    if let Some((key, _)) = fields.iter().find(|(k, _)| !keys.contains(&k.as_str())) {
        return Err(malformed(&format!("unknown key {key:?}")));
    }
    Ok(record)
}

/// The required field `key` of a record.
pub(crate) fn field<'a>(record: &'a Json, key: &str) -> Result<&'a Json, CheckpointError> {
    record.get(key).ok_or_else(|| malformed(&format!("missing {key}")))
}

/// The required exact-integer field `key` of a record.
pub(crate) fn uint(record: &Json, key: &str) -> Result<u64, CheckpointError> {
    field(record, key)?
        .as_u64()
        .ok_or_else(|| malformed(&format!("{key} is not an unsigned 64-bit integer")))
}

/// Verdict slots as a JSON array: each slot's stable tag, `null` when
/// ungraded.
pub(crate) fn verdicts_to_json(slots: impl Iterator<Item = Option<Verdict>>) -> Json {
    Json::Arr(slots.map(|v| v.map_or(Json::Null, |v| Json::Str(v.tag().into()))).collect())
}

/// The inverse of [`verdicts_to_json`].
pub(crate) fn verdicts_from_json(array: &Json) -> Result<Vec<Option<Verdict>>, CheckpointError> {
    let slots = array.as_arr().ok_or_else(|| malformed("verdicts is not an array"))?;
    slots
        .iter()
        .map(|slot| match slot {
            Json::Null => Ok(None),
            Json::Str(tag) => Verdict::from_tag(tag)
                .map(Some)
                .ok_or_else(|| malformed(&format!("unknown verdict tag {tag:?}"))),
            other => Err(malformed(&format!("verdict slot {} is not a tag or null", other.render()))),
        })
        .collect()
}

/// How a resumable campaign checkpoints itself.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Where the checkpoint file lives.
    pub path: PathBuf,
    /// Persist after every `every` newly graded faults (and always once
    /// at the end). 0 behaves like 1.
    pub every: usize,
    /// Grade at most this many *new* faults, then save and return a
    /// partial outcome — the deterministic stand-in for an interrupt
    /// (also useful for time-boxed campaign slices).
    pub max_new: Option<usize>,
    /// Fingerprint of the SoC configuration doing the grading (see
    /// [`fingerprint_config`]). When not [`CONFIG_UNBOUND`], a
    /// checkpoint recorded under a *different* configuration is
    /// rejected with [`CheckpointError::ConfigMismatch`], and new
    /// checkpoints are stamped with this value.
    pub config: u64,
}

impl CheckpointConfig {
    /// Checkpoints to `path` every 64 graded faults, no slice limit, no
    /// configuration binding.
    pub fn new(path: impl Into<PathBuf>) -> CheckpointConfig {
        CheckpointConfig { path: path.into(), every: 64, max_new: None, config: CONFIG_UNBOUND }
    }

    /// Like [`new`](CheckpointConfig::new) but bound to the SoC
    /// configuration with fingerprint `config`.
    pub fn bound(path: impl Into<PathBuf>, config: u64) -> CheckpointConfig {
        CheckpointConfig { config, ..CheckpointConfig::new(path) }
    }
}

/// Loads the checkpoint at `path` for exactly `faults`, graded under
/// `config` (not checked when [`CONFIG_UNBOUND`]), or starts a fresh
/// one when no file exists there.
///
/// # Errors
///
/// I/O and format errors, a checkpoint of a different fault list
/// ([`CheckpointError::FingerprintMismatch`]) or configuration
/// ([`CheckpointError::ConfigMismatch`]), and a slot count that does
/// not match the list.
pub(crate) fn load_or_fresh(
    path: &Path,
    faults: &FaultList,
    config: u64,
) -> Result<Checkpoint, CheckpointError> {
    if !path.exists() {
        return Ok(Checkpoint::with_config(faults, config));
    }
    let cp = Checkpoint::load(path)?;
    let expected = fingerprint(faults);
    if cp.fingerprint != expected {
        return Err(CheckpointError::FingerprintMismatch { found: cp.fingerprint, expected });
    }
    if config != CONFIG_UNBOUND && cp.config != config {
        return Err(CheckpointError::ConfigMismatch { found: cp.config, expected: config });
    }
    if cp.verdicts.len() != faults.len() {
        return Err(malformed(&format!(
            "checkpoint has {} slots for {} faults",
            cp.verdicts.len(),
            faults.len()
        )));
    }
    Ok(cp)
}

/// Outcome of a resumable campaign invocation.
#[derive(Debug)]
pub struct ResumableOutcome {
    /// Aggregate over every *graded* fault so far.
    pub result: CampaignResult,
    /// Per-fault records for graded faults (fault-list order).
    pub records: Vec<(FaultSite, Verdict)>,
    /// Simulation crashes recorded during *this* invocation.
    pub errors: Vec<CampaignError>,
    /// Whether every fault of the list is now graded.
    pub complete: bool,
    /// Faults graded by this invocation (as opposed to restored from
    /// the checkpoint).
    pub newly_graded: usize,
}

/// Runs (or resumes) a checkpointed campaign against any grader.
///
/// If `cfg.path` holds a checkpoint for exactly this fault list, its
/// verdicts are restored and those sites are skipped; otherwise a fresh
/// checkpoint is started. Progress is persisted every `cfg.every`
/// completions and once at the end, so a killed process loses at most
/// `cfg.every` simulations.
///
/// # Errors
///
/// Propagates checkpoint I/O and format errors. A checkpoint whose
/// fingerprint does not match `faults` is an error — pass a different
/// path (or delete the file) to start over.
pub fn resume_campaign_graded(
    grader: &dyn FaultGrader,
    faults: &FaultList,
    threads: usize,
    cfg: &CheckpointConfig,
) -> Result<ResumableOutcome, CheckpointError> {
    let mut checkpoint = load_or_fresh(&cfg.path, faults, cfg.config)?;
    let fp = checkpoint.fingerprint;
    let restored = checkpoint.completed();

    let every = cfg.every.max(1);
    // Highest done-count persisted so far (monotonic: snapshots can
    // arrive out of order).
    let saved = Mutex::new(restored);
    let graded = grade(
        &|site| grader.grade(site),
        faults.sites(),
        std::mem::take(&mut checkpoint.verdicts),
        cfg.max_new.unwrap_or(usize::MAX),
        threads,
        &|slots| {
            let mut saved = saved.lock().expect("save state");
            let done = slots.iter().filter(|v| v.is_some()).count();
            if done >= *saved + every {
                *saved = done;
                let snapshot =
                    Checkpoint { fingerprint: fp, config: cfg.config, verdicts: slots.to_vec() };
                // Persist best-effort: a failed write must not kill workers.
                let _ = snapshot.save(&cfg.path);
            }
        },
    );

    checkpoint.verdicts = graded.slots;
    checkpoint.save(&cfg.path)?;
    Ok(ResumableOutcome {
        result: graded.result,
        records: graded.records,
        errors: graded.errors,
        complete: checkpoint.is_complete(),
        newly_graded: checkpoint.completed() - restored,
    })
}

/// Runs (or resumes) a checkpointed campaign of `experiment` over
/// `faults` — the production entry point; see
/// [`resume_campaign_graded`] for the semantics.
///
/// The checkpoint is bound to the experiment's SoC configuration: if
/// `cfg` does not already pin a config fingerprint, the experiment's
/// own is used, so a checkpoint recorded under a different core kind,
/// scenario or cache geometry is rejected instead of silently graded
/// against the wrong population.
///
/// # Errors
///
/// Propagates checkpoint I/O and format errors.
pub fn resume_campaign(
    experiment: &Experiment,
    golden: &Observation,
    faults: &FaultList,
    threads: usize,
    cfg: &CheckpointConfig,
) -> Result<ResumableOutcome, CheckpointError> {
    let grader = ExperimentGrader { experiment, golden };
    let cfg = if cfg.config == CONFIG_UNBOUND {
        CheckpointConfig { config: experiment.config_fingerprint(), ..cfg.clone() }
    } else {
        cfg.clone()
    };
    resume_campaign_graded(&grader, faults, threads, &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbst_fault::{Element, Polarity, Unit};

    fn list(n: u16) -> FaultList {
        (0..n)
            .map(|i| FaultSite {
                unit: Unit::Hdcu,
                instance: i,
                element: Element::CmpOut,
                polarity: Polarity::StuckAt0,
            })
            .collect()
    }

    #[test]
    fn json_round_trip_preserves_every_slot() {
        let mut cp = Checkpoint::with_config(&list(7), 0xdead_beef);
        cp.verdicts[0] = Some(Verdict::Hang);
        cp.verdicts[3] = Some(Verdict::Undetected);
        cp.verdicts[6] = Some(Verdict::SimError);
        let back = Checkpoint::from_json(&cp.to_json()).expect("parses");
        assert_eq!(cp, back);
        assert_eq!(back.config, 0xdead_beef);
    }

    #[test]
    fn fingerprints_above_2_pow_53_round_trip_exactly() {
        let mut cp = Checkpoint::with_config(&list(2), u64::MAX);
        cp.fingerprint = (1 << 53) + 1;
        cp.verdicts[1] = Some(Verdict::TestFail);
        assert_eq!(Checkpoint::from_json(&cp.to_json()).expect("parses"), cp);
    }

    #[test]
    fn the_previous_byte_layout_still_loads() {
        let text = "{\n  \"version\": 2,\n  \"fingerprint\": 16045690981097406465,\n  \
                    \"config\": 7,\n  \"verdicts\": [\"hang\", null, \"undetected\"]\n}\n";
        let cp = Checkpoint::from_json(text).expect("parses");
        assert_eq!(
            cp,
            Checkpoint {
                fingerprint: 0xdead_beef_0000_0001,
                config: 7,
                verdicts: vec![Some(Verdict::Hang), None, Some(Verdict::Undetected)],
            }
        );
    }

    #[test]
    fn version_1_checkpoints_parse_as_config_unbound() {
        let text = "{\"version\": 1, \"fingerprint\": 42, \"verdicts\": [\"hang\", null]}";
        let cp = Checkpoint::from_json(text).expect("v1 parses");
        assert_eq!(cp.config, CONFIG_UNBOUND);
        assert_eq!(cp.fingerprint, 42);
        assert_eq!(cp.verdicts, vec![Some(Verdict::Hang), None]);
    }

    #[test]
    fn empty_list_round_trips() {
        let cp = Checkpoint::new(&FaultList::new());
        let back = Checkpoint::from_json(&cp.to_json()).expect("parses");
        assert_eq!(cp, back);
        assert!(back.is_complete());
    }

    #[test]
    fn fingerprint_tracks_order_and_content() {
        let a = list(5);
        let b = list(6);
        assert_ne!(fingerprint(&a), fingerprint(&b));
        let mut rev: Vec<_> = a.iter().copied().collect();
        rev.reverse();
        assert_ne!(fingerprint(&a), fingerprint(&rev.into_iter().collect()));
        assert_eq!(fingerprint(&a), fingerprint(&list(5)));
    }

    #[test]
    fn save_is_durable_atomic_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("det-sbst-cp-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("chk.json");
        let mut cp = Checkpoint::new(&list(4));
        cp.verdicts[1] = Some(Verdict::Hang);
        cp.save(&path).expect("saves");
        assert_eq!(Checkpoint::load(&path).expect("loads"), cp);
        assert!(!tmp_path(&path).exists(), "temp file must not linger");
        // Overwriting replaces the previous checkpoint wholesale.
        cp.verdicts[2] = Some(Verdict::Undetected);
        cp.save(&path).expect("saves again");
        assert_eq!(Checkpoint::load(&path).expect("reloads"), cp);
        assert!(!tmp_path(&path).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_checkpoints_are_rejected() {
        for bad in [
            "",
            "{",
            "{}",
            "{\"version\": 2}",
            "{\"version\": 99, \"fingerprint\": 1, \"verdicts\": []}",
            "{\"version\": 2, \"fingerprint\": 1, \"verdicts\": [\"bogus\"]}",
            "{\"version\": 2, \"fingerprint\": -1, \"verdicts\": []}",
            "{\"version\": 2, \"fingerprint\": 1.5, \"verdicts\": []}",
            "{\"version\": 2, \"fingerprint\": 1e3, \"verdicts\": []}",
            "{\"version\": 2, \"fingerprint\": 18446744073709551616, \"verdicts\": []}",
            "{\"version\": 2, \"fingerprint\": 1, \"config\": \"1\", \"verdicts\": []}",
            "{\"version\": 2, \"fingerprint\": 1, \"verdicts\": []} {}",
            "{\"version\": 2, \"fingerprint\": 1, \"verdicts\": [], \"extra\": 0}",
            "{\"version\": 2, \"fingerprint\": 1, \"verdicts\": [7]}",
            "[]",
        ] {
            assert!(Checkpoint::from_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// Torn-write regression: a worker killed mid-save must never leave
    /// a truncated/corrupt checkpoint where the last good one was. The
    /// save protocol (write to a same-directory temp file, then rename
    /// over the target) means a crash can only ever leave (a) the old
    /// intact file plus a partial temp file, or (b) the new intact
    /// file — never a torn target.
    #[test]
    fn torn_write_cannot_corrupt_the_last_good_checkpoint() {
        let dir = std::env::temp_dir().join(format!("det-sbst-torn-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("torn.ckpt.json");
        let mut good = Checkpoint::with_config(&list(6), 7);
        good.verdicts[2] = Some(Verdict::WrongSignature);
        good.save(&path).expect("saves");

        // Simulate a crash mid-save of a *newer* checkpoint: the temp
        // file holds a torn prefix, the rename never happened.
        let mut newer = good.clone();
        newer.verdicts[4] = Some(Verdict::Hang);
        let torn = &newer.to_json()[..newer.to_json().len() / 2];
        fs::write(tmp_path(&path), torn).expect("write torn temp");
        assert_eq!(
            Checkpoint::load(&path).expect("last good checkpoint intact"),
            good,
            "a torn temp file must never shadow the target"
        );

        // The next save replaces the leftover temp file and completes.
        newer.save(&path).expect("saves over leftover temp");
        assert_eq!(Checkpoint::load(&path).expect("loads"), newer);
        assert!(!tmp_path(&path).exists());

        // And a directly torn *target* (the failure mode the temp+rename
        // protocol exists to prevent) is rejected as malformed, never
        // silently half-parsed.
        fs::write(&path, torn).expect("write torn target");
        assert!(matches!(
            Checkpoint::load(&path),
            Err(CheckpointError::Malformed(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_fingerprint_tracks_every_config_axis() {
        use crate::{ExecStyle, ExperimentConfig};
        use sbst_cpu::CoreKind;
        use sbst_mem::{CacheConfig, WritePolicy};
        use sbst_soc::Scenario;

        let base = ExperimentConfig::new(
            CoreKind::A,
            ExecStyle::CacheWrapped,
            Scenario::single_core(),
        );
        let fp = fingerprint_config(&base);
        assert_ne!(fp, CONFIG_UNBOUND, "real configs never collide with the unbound value");
        assert_eq!(fp, fingerprint_config(&base), "deterministic");

        let variants = [
            ExperimentConfig { kind: CoreKind::B, ..base },
            ExperimentConfig { style: ExecStyle::LegacyUncached, ..base },
            ExperimentConfig {
                scenario: Scenario { active_cores: 3, ..base.scenario },
                ..base
            },
            ExperimentConfig {
                dcache: CacheConfig {
                    policy: WritePolicy::NoWriteAllocate,
                    ..CacheConfig::dcache_4k()
                },
                ..base
            },
            ExperimentConfig {
                icache: CacheConfig { size_bytes: 4 * 1024, ..CacheConfig::icache_8k() },
                ..base
            },
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(fp, fingerprint_config(v), "variant #{i} must change the fingerprint");
        }
    }
}
