//! Placement: each pool device's serving record ([`DeviceState`]) and
//! the one request × device price ([`ServeSession::price`]) that the
//! device scan, the Predictive queue scan, the shed watermark, drift
//! recording and the hedge threshold all read. Health is one enum, so a
//! quarantined device keeps no fault streak or calibration, and only a
//! quarantined device can carry a probation probe.

use crate::operand::TileChoice;
use crate::request::RoutineRequest;
use crate::serve::executor::InFlight;
use crate::serve::residency::ResidencyCache;
use crate::serve::session::ServeSession;
use cocopelia_core::models::Prediction;
use cocopelia_core::params::Loc;
use cocopelia_gpusim::SimTime;
use std::collections::VecDeque;

/// Upper edge of the calibration dead band (the lower edge is its
/// inverse). Fault-free serving runs read actual/predicted ratios of
/// 0.87–1.06 per attempt, so inside the band the model's price stands
/// exactly and fault-free schedules do not move.
const CALIBRATION_BAND: f64 = 1.5;

/// Weight of the newest attempt in a device's running actual/predicted
/// ratio.
const CALIBRATION_WEIGHT: f64 = 0.5;

/// A device's running actual/predicted ratio over its completed
/// attempts: the online correction of the offline-fitted profile that
/// prices the device. The first attempt after a reset sets the ratio;
/// later ones move it by [`CALIBRATION_WEIGHT`]. A primary cancelled by a
/// winning hedge counts with the time it would have taken.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct Calibration {
    /// `None` until an attempt was observed since the last reset.
    ratio: Option<f64>,
}

impl Calibration {
    /// Folds one completed attempt that was predicted to take
    /// `predicted_secs` and took `actual_secs`. An attempt without a
    /// positive finite prediction carries no evidence.
    fn observe(&mut self, predicted_secs: f64, actual_secs: f64) {
        let ratio = actual_secs / predicted_secs;
        if predicted_secs <= 0.0 || !ratio.is_finite() {
            return;
        }
        self.ratio = Some(
            self.ratio
                .map_or(ratio, |r| r + CALIBRATION_WEIGHT * (ratio - r)),
        );
    }

    /// The factor the device's model price is multiplied by: the running
    /// ratio once it leaves the dead band
    /// `[1 / CALIBRATION_BAND, CALIBRATION_BAND]`, else exactly `1.0`.
    fn factor(self) -> f64 {
        match self.ratio {
            Some(r) if !(1.0 / CALIBRATION_BAND..=CALIBRATION_BAND).contains(&r) => r,
            _ => 1.0,
        }
    }
}

/// Probation schedule of one quarantined device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct DeviceProbe {
    /// Raw virtual instant (device-clock axis) the next canary runs.
    pub(super) next_due_ns: u64,
    /// Probe successes since the last failure.
    pub(super) consecutive_ok: u32,
    /// Failed probe rounds so far (drives the exponential backoff).
    pub(super) round: u32,
}

/// Whether a device pulls work, with the state that only exists in each
/// case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum Health {
    /// The device pulls work.
    Serving {
        /// Consecutive faults; reset by any successful attempt.
        fault_streak: u32,
        /// Scales the device's price outside a dead band.
        calibration: Calibration,
        /// Whether an attempt succeeded on the device since it entered
        /// service. Until one does, the device runs one attempt at a
        /// time, so its first attempt prices it before more work queues
        /// behind it.
        warm: bool,
    },
    /// Removed from dispatch after repeated faults or loss.
    Quarantined {
        /// The next canary, while probation is armed and has not given
        /// the device up.
        probe: Option<DeviceProbe>,
    },
}

impl Health {
    /// A device entering service: no faults, no calibration evidence.
    pub(super) const SERVING: Health = Health::Serving {
        fault_streak: 0,
        calibration: Calibration { ratio: None },
        warm: false,
    };
}

/// The session's record of one pool device.
#[derive(Debug)]
pub(super) struct DeviceState {
    /// Shared operands resident on the device.
    pub(super) residency: ResidencyCache,
    /// The device's clock when the current drain began: the origin of
    /// arrival offsets, flow times and busy times. Set by `drain`.
    pub(super) drain_start: SimTime,
    pub(super) health: Health,
    /// Attempts issued on the device's streams and not yet settled,
    /// oldest first.
    pub(super) inflight: VecDeque<InFlight>,
    /// Predicted end of the newest attempt in flight, virtual seconds:
    /// its start (the device's clock, or the previous frontier while
    /// attempts were in flight) plus its price times the device's factor.
    pub(super) frontier: f64,
    /// Raw instant the last attempt settled from the device's window
    /// ended.
    pub(super) last_end_ns: u64,
}

impl DeviceState {
    /// A serving device with an empty residency cache of `budget_bytes`.
    pub(super) fn new(budget_bytes: usize) -> Self {
        DeviceState {
            residency: ResidencyCache::new(budget_bytes),
            drain_start: SimTime::ZERO,
            health: Health::SERVING,
            inflight: VecDeque::new(),
            frontier: 0.0,
            last_end_ns: 0,
        }
    }

    /// When the device is predicted to be free for new work, virtual
    /// seconds: `now_secs`, its clock, with nothing in flight, else the
    /// predicted end of its newest attempt in flight (never before the
    /// clock).
    pub(super) fn ready_secs(&self, now_secs: f64) -> f64 {
        if self.inflight.is_empty() {
            now_secs
        } else {
            self.frontier.max(now_secs)
        }
    }

    pub(super) fn is_quarantined(&self) -> bool {
        matches!(self.health, Health::Quarantined { .. })
    }

    /// The factor the device's price is scaled by: its calibration's
    /// while it serves. Quarantine drops the calibration, so a
    /// quarantined device reads exactly `1.0`.
    pub(super) fn factor(&self) -> f64 {
        match self.health {
            Health::Serving { calibration, .. } => calibration.factor(),
            Health::Quarantined { .. } => 1.0,
        }
    }

    /// The next canary of a quarantined device under probation.
    pub(super) fn probe(&self) -> Option<DeviceProbe> {
        match self.health {
            Health::Quarantined { probe } => probe,
            Health::Serving { .. } => None,
        }
    }

    /// Notes a successful attempt: the fault streak restarts, and the
    /// device is warm.
    pub(super) fn succeeded(&mut self) {
        if let Health::Serving {
            fault_streak, warm, ..
        } = &mut self.health
        {
            *fault_streak = 0;
            *warm = true;
        }
    }

    /// Whether the device serves and an attempt succeeded on it since it
    /// entered service.
    pub(super) fn is_warm(&self) -> bool {
        matches!(self.health, Health::Serving { warm: true, .. })
    }

    /// Notes a retryable fault, returning the consecutive-fault streak it
    /// extends.
    pub(super) fn faulted(&mut self) -> u32 {
        match &mut self.health {
            Health::Serving { fault_streak, .. } => {
                *fault_streak += 1;
                *fault_streak
            }
            Health::Quarantined { .. } => 0,
        }
    }

    /// Folds an attempt predicted to take `predicted_secs` that took
    /// `actual_secs` into the device's calibration.
    pub(super) fn calibrate(&mut self, predicted_secs: f64, actual_secs: f64) {
        if let Health::Serving { calibration, .. } = &mut self.health {
            calibration.observe(predicted_secs, actual_secs);
        }
    }
}

impl ServeSession {
    /// The price of `req` on device `d`: the model's offload prediction
    /// through the device's deployed profile
    /// ([`SystemProfile::predict_offload`](cocopelia_core::SystemProfile::predict_offload)),
    /// and the service seconds. Each shared operand the device is missing
    /// is predicted at [`Loc::Host`], because the routine's own tile
    /// schedule fills it; the service seconds are the prediction's total
    /// plus, on a degraded link, the excess of those uploads over the
    /// ideal link time the profile was fitted on. `None` when the profile
    /// cannot predict this routine/precision; the service seconds are
    /// then the uploads alone, and there is nothing to record drift
    /// against or to overrun.
    pub(super) fn price(&self, d: usize, req: &RoutineRequest) -> (Option<Prediction>, f64) {
        let (model, tile) = match req.tile_choice() {
            TileChoice::Fixed(t) => (None, Some(t)),
            TileChoice::Model(m) => (Some(m), None),
            TileChoice::Auto => (None, None),
        };
        let mut spec = req.problem_spec();
        let (mut upload, mut excess) = (0.0, 0.0);
        let args = spec.operands.iter_mut().zip(req.operands());
        for (op, s) in args.filter_map(|(op, arg)| Some((op, arg?.shared()?))) {
            if self.devices[d].residency.contains(s.key) {
                continue;
            }
            op.loc = Loc::Host;
            let (effective, ideal) = self.h2d_secs(d, s.bytes());
            upload += effective;
            excess += effective - ideal;
        }
        let prediction = self.pool.devices()[d]
            .profile()
            .predict_offload(&spec, model, tile);
        (prediction, prediction.map_or(upload, |p| p.total + excess))
    }

    /// Estimated h2d transfer time of `bytes` on device `d`: at the
    /// *effective* link bandwidth of the device's current clock (the
    /// bandwidth scaled by the degrade factor the engine applies at that
    /// instant, [`Gpu::degrade_factor_now`](cocopelia_gpusim::Gpu::degrade_factor_now)),
    /// so dispatch stops treating a degraded link as full-rate, and at the
    /// ideal link ([`DirLinkSpec::ideal_time`](cocopelia_gpusim::DirLinkSpec::ideal_time)).
    /// Outside every degrade window the two are equal bit for bit.
    fn h2d_secs(&self, d: usize, bytes: usize) -> (f64, f64) {
        let gpu = self.pool.devices()[d].gpu();
        let h2d = gpu.spec().link.h2d;
        let factor = gpu.degrade_factor_now().max(1e-9);
        let effective = h2d.latency_s + bytes as f64 / (h2d.bandwidth_bps * factor);
        (effective, h2d.ideal_time(bytes))
    }

    /// The healthy device that pulls `req` — lowest estimated completion,
    /// then lowest index — with that completion: when the device is free
    /// ([`DeviceState::ready_secs`]: its clock, or the predicted end of its
    /// newest attempt in flight) plus its [`price`](Self::price) scaled by
    /// its calibration factor. A
    /// device whose attempts keep running past the model (a degraded
    /// link) thus prices as slow before the next request lands on it,
    /// even while a winning hedge has rewound its clock to look idle;
    /// inside the dead band the price is the model's bit for bit.
    /// Residency affinity is *bounded*: a device holding the operands is
    /// preferred only while its clock lead over an idle peer stays below
    /// the re-upload cost, so high-reuse traces still spread across the
    /// pool. `skip` bars one device (the hedge-target pick must race a
    /// *different* device than the straggling primary). `None` means no
    /// candidate is healthy.
    pub(super) fn choose_device(
        &self,
        req: &RoutineRequest,
        skip: Option<usize>,
    ) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (d, dev) in self.devices.iter().enumerate() {
            if Some(d) == skip || dev.is_quarantined() {
                continue;
            }
            let now = self.pool.devices()[d].gpu().now().as_secs_f64();
            let cost = dev.ready_secs(now) + self.price(d, req).1 * dev.factor();
            if cost < best.map_or(f64::INFINITY, |b| b.1) {
                best = Some((d, cost));
            }
        }
        best
    }

    /// Service-time estimate of a request for the flow-time shed
    /// watermark: the *best* healthy device's bare
    /// [`price`](Self::price) — residency-aware, so a warm repeat request
    /// prices near its compute time instead of being charged cold uploads
    /// it will never perform (residency-blind pricing would spuriously
    /// shed exactly the cheap, cache-friendly traffic the residency layer
    /// exists to serve). When the whole pool is quarantined, device 0's
    /// price stands in — quarantine cleared its residency, so the price is
    /// cold (the arrival would run on the host; the figure only feeds the
    /// watermark). Residency changes between admission and dispatch are
    /// reconciled through the queue record: the backlog decrement returns
    /// exactly what admission added.
    pub(super) fn service_estimate(&self, req: &RoutineRequest) -> f64 {
        let best = (0..self.devices.len())
            .filter(|&d| !self.devices[d].is_quarantined())
            .map(|d| self.price(d, req).1)
            .fold(f64::INFINITY, f64::min);
        if best.is_finite() {
            best
        } else {
            self.price(0, req).1
        }
    }
}
