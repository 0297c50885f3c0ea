//! Deterministic execution wrappers around single-core routines.

pub(crate) mod cache;
mod tcm;

pub use cache::{plan_cached, split_to_fit, wrap_cached, wrap_sequence, WrapConfig, WrapError};
pub use tcm::{wrap_tcm, TcmWrapped};

/// How a wrapped routine ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Terminator {
    /// `halt` — standalone test programs.
    #[default]
    Halt,
    /// `ret` (`jalr r0, 0(r31)`) — routine called by a scheduler.
    Ret,
    /// Nothing — the next routine of an STL sequence follows inline.
    Fallthrough,
}
