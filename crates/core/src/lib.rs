#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # sbst-stl — the Software Test Library and the paper's contribution
//!
//! This crate implements the DATE 2020 paper's method and everything it
//! wraps:
//!
//! * [`SelfTestRoutine`] — the single-core self-test routine abstraction
//!   and the [`Signature`] (software MISR) machinery;
//! * the routines themselves ([`routines`]): the forwarding-logic test
//!   of \[19\] with and without performance counters
//!   ([`ForwardingTest`](routines::ForwardingTest)), the full HDCU test
//!   ([`HdcuTest`](routines::HdcuTest)), the imprecise-interrupt ICU
//!   test after \[21\] ([`IcuTest`](routines::IcuTest)) and a generic STL
//!   filler ([`GenericAluTest`](routines::GenericAluTest));
//! * **the cache-based deterministic wrapper** ([`wrap_cached`],
//!   Figure 2b): invalidate I$/D$, run the unmodified body twice —
//!   *loading loop* then *execution loop* — so the reported signature is
//!   computed entirely from the private caches, decoupled from
//!   multi-core bus contention; with automatic routine splitting when
//!   the image exceeds the cache ([`plan_cached`]) and the dummy-load
//!   store transform for no-write-allocate D$ configurations;
//! * **the wrapped-routine contract**, written once: part `i` of a split
//!   routine (or routine `i` of a wrapped sequence) publishes and
//!   scratches at [`RoutineEnv::part`]; [`split_to_fit`] is the one
//!   search for the fewest cache-sized parts; [`read_result`] folds the
//!   parts' mailboxes back into one `(signature, status)` pair;
//! * the competing TCM-based strategy ([`wrap_tcm`], Table IV);
//! * the decentralized multi-core STL scheduler ([`sched`], after \[13\]);
//! * run helpers ([`run_standalone`], [`learn_golden_cached`]).
//!
//! ## Quickstart
//!
//! ```
//! use sbst_cpu::CoreKind;
//! use sbst_fault::FaultPlane;
//! use sbst_stl::{
//!     learn_golden_cached, routines::IcuTest, run_standalone, wrap_cached,
//!     RoutineEnv, WrapConfig, STATUS_PASS,
//! };
//!
//! # fn main() -> Result<(), sbst_stl::WrapError> {
//! let routine = IcuTest::new();
//! let env = RoutineEnv::for_core(CoreKind::A);
//! let mut cfg = WrapConfig::default();
//! // Learn the fault-free signature, then embed it as the self-check.
//! cfg.expected_sig =
//!     Some(learn_golden_cached(&routine, &env, &cfg, CoreKind::A, 0x400)?);
//! let program = wrap_cached(&routine, &env, &cfg, "icu")?;
//! let report = run_standalone(
//!     &program, &env, CoreKind::A, true, 0x400,
//!     FaultPlane::fault_free(), 10_000_000,
//! );
//! assert_eq!(report.status, STATUS_PASS);
//! # Ok(())
//! # }
//! ```

pub mod bound;
mod catalog;
mod harness;
pub mod healer;
mod routine;
pub mod routines;
pub mod sched;
mod signature;
pub mod supervisor;
mod text_routine;
mod wrap;

pub use bound::{BoundViolation, BoundWatchdog};
pub use catalog::{BootImage, BootReport, BootVerdict, CatalogEntry, GoldenDb, StlCatalog};
pub use harness::{
    cycle_budget_for, derive_cycle_budget, finish, learn_golden_cached, run_chaotic,
    run_standalone, RunReport,
};
pub use healer::{
    heal_standalone, run_self_healing, CheckMode, HealAction, HealConfig, RecoveryReport,
};
pub use supervisor::{
    CoreVerdict, DegradedReport, QuarantineCause, Supervisor, SupervisorConfig,
};
pub use routine::{
    emit_pc_anchor, read_result, RoutineEnv, SelfTestRoutine, RESULT_SIG_OFF, RESULT_STATUS_OFF,
    STATUS_DONE, STATUS_FAIL, STATUS_PASS,
};
pub use signature::{emit_accumulate, emit_init, Signature, SIG_REG, SIG_TMP};
pub use text_routine::TextRoutine;
pub use wrap::{
    plan_cached, split_to_fit, wrap_cached, wrap_sequence, wrap_tcm, TcmWrapped, Terminator,
    WrapConfig, WrapError,
};
