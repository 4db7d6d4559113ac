//! The workspace-wide error type.
//!
//! Each member crate keeps its own focused error enum (netlist errors
//! in `dwt-rtl`, datapath errors in `dwt-arch`, scheduler errors in
//! `dwt-pool`, …), but code that spans layers — campaign binaries,
//! backend-generic harnesses, examples — would otherwise have to map
//! three or four of them by hand at every `?`. [`DwtError`] is the
//! single sum type those callers propagate: every member crate's error
//! converts into it with `From`, so one `Result<T, DwtError>` (or the
//! [`Result`] alias) spans the whole stack.

use std::error::Error as StdError;
use std::fmt;

/// Any error from any layer of the DWT reproduction workspace.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DwtError {
    /// Software DWT / bit-width analysis error (`dwt-core`).
    Core(dwt_core::Error),
    /// Netlist construction or simulation error (`dwt-rtl`).
    Rtl(dwt_rtl::Error),
    /// Datapath generator or golden-model error (`dwt-arch`).
    Arch(dwt_arch::Error),
    /// Quantizer / entropy-coding error (`dwt-codec`).
    Codec(dwt_codec::Error),
    /// Formal equivalence-checking error (`dwt-equiv`).
    Equiv(dwt_equiv::EquivError),
    /// Recovery-runtime harness error (`dwt-recover`).
    Recover(dwt_recover::Error),
    /// Multi-lane scheduler error (`dwt-pool`).
    Pool(dwt_pool::Error),
    /// Wall-clock serving-runtime error (`dwt-serve`).
    Serve(dwt_serve::Error),
    /// Partitioned-emulation error (`dwt-partition`).
    Partition(dwt_partition::PartitionError),
}

impl fmt::Display for DwtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DwtError::Core(e) => write!(f, "core: {e}"),
            DwtError::Rtl(e) => write!(f, "rtl: {e}"),
            DwtError::Arch(e) => write!(f, "arch: {e}"),
            DwtError::Codec(e) => write!(f, "codec: {e}"),
            DwtError::Equiv(e) => write!(f, "equiv: {e}"),
            DwtError::Recover(e) => write!(f, "recover: {e}"),
            DwtError::Pool(e) => write!(f, "pool: {e}"),
            DwtError::Serve(e) => write!(f, "serve: {e}"),
            DwtError::Partition(e) => write!(f, "partition: {e}"),
        }
    }
}

impl StdError for DwtError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            DwtError::Core(e) => Some(e),
            DwtError::Rtl(e) => Some(e),
            DwtError::Arch(e) => Some(e),
            DwtError::Codec(e) => Some(e),
            DwtError::Equiv(e) => Some(e),
            DwtError::Recover(e) => Some(e),
            DwtError::Pool(e) => Some(e),
            DwtError::Serve(e) => Some(e),
            DwtError::Partition(e) => Some(e),
        }
    }
}

impl From<dwt_core::Error> for DwtError {
    fn from(e: dwt_core::Error) -> Self {
        DwtError::Core(e)
    }
}

impl From<dwt_rtl::Error> for DwtError {
    fn from(e: dwt_rtl::Error) -> Self {
        DwtError::Rtl(e)
    }
}

impl From<dwt_arch::Error> for DwtError {
    fn from(e: dwt_arch::Error) -> Self {
        DwtError::Arch(e)
    }
}

impl From<dwt_codec::Error> for DwtError {
    fn from(e: dwt_codec::Error) -> Self {
        DwtError::Codec(e)
    }
}

impl From<dwt_equiv::EquivError> for DwtError {
    fn from(e: dwt_equiv::EquivError) -> Self {
        DwtError::Equiv(e)
    }
}

impl From<dwt_recover::Error> for DwtError {
    fn from(e: dwt_recover::Error) -> Self {
        DwtError::Recover(e)
    }
}

impl From<dwt_pool::Error> for DwtError {
    fn from(e: dwt_pool::Error) -> Self {
        DwtError::Pool(e)
    }
}

impl From<dwt_serve::Error> for DwtError {
    fn from(e: dwt_serve::Error) -> Self {
        DwtError::Serve(e)
    }
}

impl From<dwt_partition::PartitionError> for DwtError {
    fn from(e: dwt_partition::PartitionError) -> Self {
        DwtError::Partition(e)
    }
}

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, DwtError>;
