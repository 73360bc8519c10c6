//! The request-serving layer: a long-lived, admission-controlled
//! [`ServeSession`] that dispatches heterogeneous routine requests across
//! a [`MultiGpu`] pool.
//!
//! The single-call library of §IV-C schedules one BLAS call at a time; a
//! production deployment instead sees *traffic* — many requests, some
//! naming the same operands. This module adds the three ingredients
//! multi-request throughput comes from (following BLASX's shared tile
//! cache and dynamic device dispatch):
//!
//! 1. **Admission control.** A request whose worst-case device footprint
//!    exceeds 90% of the pool's smallest device memory is rejected at
//!    submission instead of failing mid-flight.
//! 2. **Policy-driven dispatch.** The queue drains through a pluggable
//!    [`SchedulePolicy`]: FIFO (the default baseline), earliest-deadline-
//!    first, or the prediction-guided policy that orders the queue by the
//!    paper's models to minimise pool makespan. Whatever the policy, every
//!    placement reads one price per request × device pair (the private
//!    `placement` module): the model-predicted offload time
//!    ([`SystemProfile::predict_offload`](cocopelia_core::SystemProfile::predict_offload))
//!    with the shared operands the device is missing fetched from the
//!    host, plus what a degraded link adds to those fetches.
//!    The device scan scales it by the device's observed actual/predicted
//!    ratio once that leaves a dead band around 1 and adds the device's
//!    virtual clock — so an idle device steals work once the affine
//!    device falls far enough behind, and a degraded one stops pulling
//!    work after its first overrun. The session keeps one record per
//!    device (residency cache, drain-start clock, and health: serving
//!    with a fault streak and calibration, or quarantined with an
//!    optional probation probe), so quarantine and readmission are one
//!    transition each.
//! 3. **Cross-request residency.** Operands named by key
//!    ([`MatArg::shared`](crate::MatArg::shared),
//!    [`VecArg::shared`](crate::VecArg::shared)) live in a per-device LRU
//!    [`ResidencyCache`] of half the device's memory, so an operand
//!    uploaded for request *N* is not re-transferred for request *N+1*. A
//!    miss is filled by request *N*'s own tile schedule, each tile copied
//!    once on first read and overlapped with its kernels. Matrices and vectors share one kind of
//!    entry, matched on key, dtype and shape, and one resolution walk
//!    over the request's operands.
//!
//! Each request terminates in exactly one [`RequestStatus`]. The session
//! is fault-tolerant: retryable faults
//! ([`RuntimeError::fault_class`](crate::RuntimeError::fault_class)) are
//! retried up to three times after reclaiming the device; a device that
//! faults twice in a row — or is lost outright — is quarantined (its
//! residency cache invalidated, its allocations released) and the request
//! re-dispatches to a healthy peer; when every device is quarantined,
//! requests degrade gracefully to host BLAS at 50 GFLOP/s. Aggregate
//! throughput, queue-depth, occupancy, and
//! `fault_*`/`retry_*`/`quarantine_*` metrics flow through a
//! [`cocopelia_obs::Registry`].
//!
//! On top of that baseline sits the straggler-defense and self-healing
//! tier, armed per session: hedged re-dispatch races a slow attempt
//! against a healthy peer and cancels the loser ([`HedgeConfig`]),
//! quarantine probation re-admits devices that pass canary probes
//! ([`ProbationConfig`]), and a retry token bucket with a circuit breaker
//! fails fast to host during fault storms ([`RetryBudgetConfig`]).
//!
//! Shared operands carry no host data (they are ghost uploads), so the
//! serving layer is a *timing* harness: drive it with pools built in
//! [`ExecMode::TimingOnly`](cocopelia_gpusim::ExecMode).
//!
//! [`MultiGpu`]: crate::MultiGpu

mod executor;
mod placement;
mod residency;
mod sched;
mod session;
mod telemetry;
mod trace;

pub use executor::{
    ExecutorConfig, HedgeConfig, ProbationConfig, RequestOutcome, RequestStatus, RetryBudgetConfig,
    ServeReport, HEDGE_WARMUP,
};
pub use residency::ResidencyCache;
pub use sched::SchedulePolicy;
pub use session::{ServeOptions, ServeSession};
pub use telemetry::{TelemetryConfig, TelemetryReport, WatchWindow, FLOW_SECS_BOUNDS};
