//! Fleet-scale in-field campaign service.
//!
//! The paper's on-line STL campaigns ultimately run across a *fleet*:
//! thousands of ECUs, heterogeneous in cache geometry, write policy
//! and core mix, each grading a slice of the collapsed fault universe
//! between drive cycles. This module is the simulator-side service for
//! that deployment shape:
//!
//! * [`shard`] — the ECU population ([`EcuSpec`]) and the work
//!   inventory ([`FleetPlan`], [`Shard`]);
//! * [`lease`] — lease-based work distribution with epochs, watchdog
//!   deadlines, work stealing, jittered exponential backoff and
//!   quarantine ([`LeaseTable`], [`LeasePolicy`], [`ShardFate`]);
//! * [`chaos`] — the seeded worker-failure injection plane
//!   ([`WorkerChaos`]: panic / hang / slow / corrupt-result);
//! * [`orchestrator`] — the one lease orchestrator (worker threads plus
//!   a watchdog monitor) with its in-thread shard attempt
//!   ([`run_fleet`]), the serial reference ([`run_fleet_serial`]) and
//!   the production grader ([`ExperimentFleetGrader`]);
//! * [`process`] — the child-process shard attempt
//!   ([`run_fleet_process`]) for true crash isolation, run by the same
//!   orchestrator.
//!
//! The headline guarantee, asserted over dozens of seeded chaos storms
//! by the `fleet` test suite: under random injected worker failures
//! the fleet run terminates, never deadlocks, its merged verdict map
//! is bit-identical to an uninterrupted serial run on every completed
//! shard, and every skipped shard is explicitly accounted as
//! quarantined with a cause.

pub mod chaos;
pub mod lease;
pub mod orchestrator;
pub mod process;
pub mod shard;

pub use chaos::{ChaosAction, ForcedFailure, WorkerChaos};
pub use lease::{FailOutcome, FailureKind, Lease, LeasePolicy, LeaseTable, ShardFate};
pub use orchestrator::{
    assemble_ecu, run_fleet, run_fleet_serial, shard_checkpoint_path, ExperimentFleetGrader,
    FleetConfig, FleetGrader, FleetReport, ShardResult,
};
pub use process::{execute_shard_standalone, run_fleet_process, ShardCommand};
pub use shard::{EcuSpec, FleetPlan, Shard};
