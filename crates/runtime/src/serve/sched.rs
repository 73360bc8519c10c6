//! Pluggable queue-scheduling policies for the [`ServeSession`].
//!
//! The session drains its queue through a [`SchedulePolicy`], which
//! decides *which* queued request is dispatched next and (for the
//! prediction-guided policy) *where*:
//!
//! * [`Fifo`](SchedulePolicy::Fifo) — strict submission order, the
//!   baseline behaviour. The request goes to the device with the lowest
//!   placement price (the session's one request × device price; see the
//!   [serve module docs](crate::serve)).
//! * [`Edf`](SchedulePolicy::Edf) — earliest-deadline-first: the queued
//!   request with the smallest deadline runs next; deadline-less requests
//!   run after every deadline-carrying one, in submission order. Device
//!   choice is as for FIFO. Because deadlines are judged on *flow time*
//!   (device clock at completion, queue wait included), reordering the
//!   queue is exactly what saves a tight deadline stuck behind bulk work.
//! * [`Predictive`](SchedulePolicy::Predictive) — the paper's models close
//!   the loop: every queued request × healthy device is priced with the
//!   same placement price. Each request is costed at its best device,
//!   and the request with the *largest* best-completion is dispatched
//!   there first — longest-processing-time list scheduling,
//!   which keeps one straggler from landing on an already-loaded device at
//!   the end and stretching the pool makespan. Residency-affine requests
//!   still batch naturally: a device holding the operands wins the
//!   request's best-device slot until its backlog outweighs the re-upload
//!   saving.
//!
//! Every policy records predicted-vs-actual per dispatch (the
//! `sched_predict_abs_err` histogram and the report's drift table)
//! whenever the device profile can predict the request, so the three
//! policies are comparable on the same misprediction accounting.
//!
//! [`ServeSession`]: crate::serve::ServeSession

use std::fmt;

/// Queue-scheduling policy of a serving session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulePolicy {
    /// Strict submission order (the default baseline).
    #[default]
    Fifo,
    /// Earliest-deadline-first; deadline-less requests after, in
    /// submission order.
    Edf,
    /// Model-predicted completion time over request × device pairs,
    /// dispatched longest-first to minimise pool makespan.
    Predictive,
}

impl SchedulePolicy {
    /// Canonical lowercase name, as accepted by [`parse`](Self::parse)
    /// and used as the metrics suffix (`sched_predict_abs_err_fifo`, …).
    pub fn name(self) -> &'static str {
        match self {
            SchedulePolicy::Fifo => "fifo",
            SchedulePolicy::Edf => "edf",
            SchedulePolicy::Predictive => "predictive",
        }
    }

    /// Name of the policy's `sched_predict_abs_err_<name>` drift
    /// histogram.
    pub(crate) fn drift_metric(self) -> &'static str {
        match self {
            SchedulePolicy::Fifo => "sched_predict_abs_err_fifo",
            SchedulePolicy::Edf => "sched_predict_abs_err_edf",
            SchedulePolicy::Predictive => "sched_predict_abs_err_predictive",
        }
    }

    /// Parses a policy name (`fifo`, `edf`, `predictive`;
    /// case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown policy and the accepted set.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "fifo" => Ok(SchedulePolicy::Fifo),
            "edf" => Ok(SchedulePolicy::Edf),
            "predictive" => Ok(SchedulePolicy::Predictive),
            other => Err(format!(
                "unknown policy `{other}` (expected fifo, edf, or predictive)"
            )),
        }
    }
}

impl fmt::Display for SchedulePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parse() {
        for p in [
            SchedulePolicy::Fifo,
            SchedulePolicy::Edf,
            SchedulePolicy::Predictive,
        ] {
            assert_eq!(SchedulePolicy::parse(p.name()), Ok(p));
            assert_eq!(p.to_string(), p.name());
            assert_eq!(
                p.drift_metric(),
                format!("sched_predict_abs_err_{}", p.name())
            );
        }
        assert_eq!(
            SchedulePolicy::parse("EDF"),
            Ok(SchedulePolicy::Edf),
            "parsing is case-insensitive"
        );
    }

    #[test]
    fn default_is_fifo_and_unknown_names_error() {
        assert_eq!(SchedulePolicy::default(), SchedulePolicy::Fifo);
        let err = SchedulePolicy::parse("sjf").expect_err("unknown policy");
        assert!(err.contains("sjf"), "{err}");
        assert!(err.contains("predictive"), "{err}");
    }
}
