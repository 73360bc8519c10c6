//! Retry/backoff of transient device faults in virtual time.
//!
//! The tile schedulers retry an enqueue that fails with a retryable fault
//! (see [`RuntimeError::fault_class`](crate::RuntimeError::fault_class))
//! up to [`MAX_ATTEMPTS`] times in all, waiting [`backoff_secs`] before
//! each retry. Backoff waits advance the device's *virtual* clock
//! ([`Gpu::advance_clock`](cocopelia_gpusim::Gpu::advance_clock)), so retry
//! latency is visible in every simulated timing result exactly as a real
//! host-side `usleep` loop would be.

/// Attempts per tile-level operation, the first included.
pub(crate) const MAX_ATTEMPTS: u32 = 3;

/// Backoff before the first retry, in virtual seconds.
const BACKOFF_BASE_SECS: f64 = 1e-4;

/// Backoff before retry number `retry` (0-based): `base · 2^retry`. With
/// [`MAX_ATTEMPTS`] attempts the longest wait is 200 µs.
pub(crate) fn backoff_secs(retry: u32) -> f64 {
    BACKOFF_BASE_SECS * 2f64.powi(retry as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_then_caps() {
        // The two retries three attempts allow wait 100 µs, then 200 µs.
        assert_eq!(MAX_ATTEMPTS, 3);
        assert_eq!(backoff_secs(0), 1e-4);
        assert_eq!(backoff_secs(1), 2e-4);
    }
}
