//! Error type of the CoCoPeLia runtime.

use cocopelia_core::models::ModelError;
use cocopelia_gpusim::SimError;
use std::error::Error;
use std::fmt;

/// Errors returned by the CoCoPeLia runtime library.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// Operand dimensions are inconsistent with the routine.
    DimensionMismatch {
        /// Human-readable description of the inconsistency.
        what: String,
    },
    /// The system profile lacks an execution table for the requested
    /// routine/precision (deployment did not benchmark it).
    MissingExecTable {
        /// Canonical routine name, e.g. `"dgemm"`.
        routine: String,
    },
    /// A model evaluation failed.
    Model(ModelError),
    /// Data was requested from a timing-only (ghost) execution.
    NotFunctional,
    /// The underlying simulated device reported a failure.
    Sim(SimError),
    /// No request variant runs the routine at the requested precision.
    UnsupportedRoutine {
        /// Canonical routine name, e.g. `"saxpy"`.
        routine: String,
    },
    /// A request referenced a shared residency-cache operand outside an
    /// executor (direct `submit`/`run` calls take inline operands only).
    SharedOperand {
        /// The residency-cache key the request referenced.
        key: String,
    },
}

/// Coarse recoverability classification of a [`RuntimeError`], the single
/// source of truth for retry/quarantine decisions in the schedulers and the
/// serving executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Safe to retry as-is (possibly after reclaiming device memory):
    /// out-of-memory, injected transfer faults, kernel launch faults.
    Transient,
    /// The operation must be redone and the hardware is suspect (ECC-style
    /// corruption): retry, preferably counting toward quarantine faster.
    Degraded,
    /// Retrying cannot help: programming errors (dimension mismatches,
    /// stale ids, missing tables) and terminal device loss.
    Fatal,
}

impl FaultClass {
    /// Whether a retry of the failed operation can ever succeed.
    pub fn retryable(self) -> bool {
        !matches!(self, FaultClass::Fatal)
    }
}

impl RuntimeError {
    /// Classifies this error for fault-tolerance purposes.
    ///
    /// Unknown future [`SimError`] variants (the enum is `#[non_exhaustive]`)
    /// classify as [`FaultClass::Fatal`]: an unrecognised failure must not be
    /// silently retried.
    pub fn fault_class(&self) -> FaultClass {
        match self {
            RuntimeError::Sim(e) => match e {
                SimError::OutOfDeviceMemory { .. }
                | SimError::TransferFault { .. }
                | SimError::KernelFault { .. } => FaultClass::Transient,
                SimError::EccError { .. } => FaultClass::Degraded,
                _ => FaultClass::Fatal,
            },
            _ => FaultClass::Fatal,
        }
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::DimensionMismatch { what } => write!(f, "dimension mismatch: {what}"),
            RuntimeError::MissingExecTable { routine } => {
                write!(f, "no execution table for {routine} in the system profile")
            }
            RuntimeError::Model(e) => write!(f, "model error: {e}"),
            RuntimeError::NotFunctional => {
                write!(
                    f,
                    "no data available: device is running in timing-only mode"
                )
            }
            RuntimeError::Sim(e) => write!(f, "device error: {e}"),
            RuntimeError::UnsupportedRoutine { routine } => {
                write!(f, "no routine request runs {routine}")
            }
            RuntimeError::SharedOperand { key } => {
                write!(
                    f,
                    "operand '{key}' references a residency cache; shared operands \
                     require an executor"
                )
            }
        }
    }
}

/// Identifier the serving layer assigns to each submitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req-{}", self.0)
    }
}

/// A runtime failure annotated with the request it occurred in.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct RequestError {
    /// The failing request.
    pub id: RequestId,
    /// Canonical routine name of the request ("dgemm", "daxpy", …).
    pub routine: &'static str,
    /// The underlying runtime failure.
    pub source: RuntimeError,
}

impl RequestError {
    /// Annotates a runtime failure with request context.
    pub fn new(id: RequestId, routine: &'static str, source: RuntimeError) -> Self {
        RequestError {
            id,
            routine,
            source,
        }
    }
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "request {} ({}): {}", self.id, self.routine, self.source)
    }
}

impl Error for RequestError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.source)
    }
}

impl Error for RuntimeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RuntimeError::Model(e) => Some(e),
            RuntimeError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<ModelError> for RuntimeError {
    fn from(e: ModelError) -> Self {
        RuntimeError::Model(e)
    }
}

#[doc(hidden)]
impl From<SimError> for RuntimeError {
    fn from(e: SimError) -> Self {
        RuntimeError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_nonempty() {
        let e = RuntimeError::DimensionMismatch {
            what: "A cols != B rows".into(),
        };
        assert!(e.to_string().contains("A cols"));
        let e = RuntimeError::MissingExecTable {
            routine: "dgemm".into(),
        };
        assert!(e.to_string().contains("dgemm"));
    }

    #[test]
    fn sources_chain() {
        let e = RuntimeError::Model(ModelError::EmptyExecTable);
        assert!(e.source().is_some());
        let e = RuntimeError::DimensionMismatch { what: "x".into() };
        assert!(e.source().is_none());
    }

    #[test]
    fn fault_classes_cover_the_taxonomy() {
        let class = |e: SimError| RuntimeError::Sim(e).fault_class();
        assert_eq!(
            class(SimError::OutOfDeviceMemory {
                requested: 1,
                available: 0
            }),
            FaultClass::Transient
        );
        assert_eq!(
            class(SimError::TransferFault { what: "x".into() }),
            FaultClass::Transient
        );
        assert_eq!(
            class(SimError::KernelFault { what: "x".into() }),
            FaultClass::Transient
        );
        assert_eq!(
            class(SimError::EccError { what: "x".into() }),
            FaultClass::Degraded
        );
        assert_eq!(class(SimError::DeviceLost), FaultClass::Fatal);
        assert_eq!(
            class(SimError::UnknownBuffer { what: "x".into() }),
            FaultClass::Fatal
        );
        assert_eq!(
            RuntimeError::DimensionMismatch { what: "x".into() }.fault_class(),
            FaultClass::Fatal
        );
        assert_eq!(RuntimeError::NotFunctional.fault_class(), FaultClass::Fatal);
        assert!(FaultClass::Transient.retryable());
        assert!(FaultClass::Degraded.retryable());
        assert!(!FaultClass::Fatal.retryable());
    }

    #[test]
    fn request_error_carries_context() {
        let e = RequestError::new(
            RequestId(7),
            "dgemm",
            RuntimeError::SharedOperand { key: "A".into() },
        );
        let s = e.to_string();
        assert!(s.contains("req-7"), "{s}");
        assert!(s.contains("dgemm"), "{s}");
        assert!(s.contains("'A'"), "{s}");
        assert!(e.source().is_some());
    }
}
