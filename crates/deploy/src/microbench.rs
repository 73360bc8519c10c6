//! Transfer micro-benchmarks (§IV-A): latency probes, square-transfer
//! bandwidth sweeps, and bidirectional-coupling sweeps, all run against the
//! simulated device exactly the way the paper runs them against hardware
//! (through `cublas{Set,Get}MatrixAsync` analogues on pinned memory).

use crate::stats::{fit_zero_intercept, measure_until_ci, CiConfig, Measurement};
use cocopelia_gpusim::{CopyDesc, EngineKind, ExecMode, Gpu, SimError, TestbedSpec};
use cocopelia_hostblas::Dtype;

/// Which copy direction a micro-benchmark exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Host to device.
    H2d,
    /// Device to host.
    D2h,
}

impl Direction {
    fn engine(self) -> EngineKind {
        match self {
            Direction::H2d => EngineKind::CopyH2d,
            Direction::D2h => EngineKind::CopyD2h,
        }
    }
}

/// One direction's raw micro-benchmark results, before fitting.
#[derive(Debug, Clone)]
pub struct TransferSweep {
    /// Direction measured.
    pub dir: Direction,
    /// Transfer sizes in bytes.
    pub bytes: Vec<f64>,
    /// Mean unidirectional duration per size (seconds).
    pub uni_secs: Vec<f64>,
    /// Mean duration per size while the opposite direction is saturated.
    pub bid_secs: Vec<f64>,
    /// Measured setup latency `t_l` (seconds).
    pub latency: Measurement,
}

/// Measures the average setup latency of minimal transfers in `dir`.
fn measure_latency(gpu: &mut Gpu, dir: Direction, ci: &CiConfig) -> Result<Measurement, SimError> {
    let stream = gpu.create_stream();
    let host = gpu.register_host_ghost(Dtype::F64, 1, true);
    let dev = gpu.alloc_device(Dtype::F64, 1)?;
    let mut err = None;
    let m = measure_until_ci(ci, || {
        let t0 = gpu.now();
        let desc = CopyDesc::contiguous(host, dev, 1);
        let r = match dir {
            Direction::H2d => gpu.memcpy_h2d_async(stream, desc),
            Direction::D2h => gpu.memcpy_d2h_async(stream, desc),
        };
        if let Err(e) = r {
            err = Some(e);
            return 1.0;
        }
        match gpu.synchronize() {
            Ok(now) => (now - t0).as_secs_f64(),
            Err(e) => {
                err = Some(e);
                1.0
            }
        }
    });
    if let Some(e) = err {
        return Err(e);
    }
    gpu.free_device(dev)?;
    gpu.take_host(host)?;
    Ok(m)
}

/// Duration of one `d × d` double transfer in `dir`, optionally coupled
/// with a saturating opposite-direction transfer. Reads the measured
/// engine's busy time across the sample: the transfer is the one op that
/// engine runs, so queueing artefacts and the partner transfer's tail do
/// not pollute the sample.
fn timed_square_transfer(
    gpu: &mut Gpu,
    dir: Direction,
    d: usize,
    coupled: bool,
) -> Result<f64, SimError> {
    let elems = d * d;
    let stream = gpu.create_stream();
    let host = gpu.register_host_ghost(Dtype::F64, elems, true);
    let dev = gpu.alloc_device(Dtype::F64, elems)?;
    let desc = CopyDesc::contiguous(host, dev, elems);
    let busy_before = gpu.trace().engine_busy(dir.engine());

    let opp_handles = if coupled {
        // A partner transfer 4x larger guarantees the opposite link stays
        // busy for the whole measured duration.
        let opp_elems = (elems * 4).max(1 << 22);
        let opp_stream = gpu.create_stream();
        let opp_host = gpu.register_host_ghost(Dtype::F64, opp_elems, true);
        let opp_dev = gpu.alloc_device(Dtype::F64, opp_elems)?;
        let opp_desc = CopyDesc::contiguous(opp_host, opp_dev, opp_elems);
        match dir {
            Direction::H2d => gpu.memcpy_d2h_async(opp_stream, opp_desc)?,
            Direction::D2h => gpu.memcpy_h2d_async(opp_stream, opp_desc)?,
        }
        Some((opp_host, opp_dev))
    } else {
        None
    };

    match dir {
        Direction::H2d => gpu.memcpy_h2d_async(stream, desc)?,
        Direction::D2h => gpu.memcpy_d2h_async(stream, desc)?,
    }
    gpu.synchronize()?;
    let secs = gpu
        .trace()
        .engine_busy(dir.engine())
        .saturating_since(busy_before)
        .as_secs_f64();
    // A sweep takes hundreds of samples: release each one's buffers.
    // (Its fresh stream stays behind, idle; streams are never destroyed.)
    gpu.free_device(dev)?;
    gpu.take_host(host)?;
    if let Some((opp_host, opp_dev)) = opp_handles {
        gpu.free_device(opp_dev)?;
        gpu.take_host(opp_host)?;
    }
    Ok(secs)
}

/// Runs the full sweep for one direction over the `dims` grid.
///
/// # Errors
///
/// Propagates simulator failures (out-of-memory for absurd grids, etc.).
pub fn transfer_sweep(
    testbed: &TestbedSpec,
    dir: Direction,
    dims: &[usize],
    ci: &CiConfig,
    seed: u64,
) -> Result<TransferSweep, SimError> {
    let mut gpu = Gpu::new(testbed.clone(), ExecMode::TimingOnly, seed);
    let latency = measure_latency(&mut gpu, dir, ci)?;
    let mut bytes = Vec::with_capacity(dims.len());
    let mut uni = Vec::with_capacity(dims.len());
    let mut bid = Vec::with_capacity(dims.len());
    for &d in dims {
        bytes.push((d * d * 8) as f64);
        for (coupled, out) in [(false, &mut uni), (true, &mut bid)] {
            let mut err = None;
            let m = measure_until_ci(ci, || {
                match timed_square_transfer(&mut gpu, dir, d, coupled) {
                    Ok(s) => s,
                    Err(e) => {
                        err = Some(e);
                        1.0
                    }
                }
            });
            if let Some(e) = err {
                return Err(e);
            }
            out.push(m.mean);
        }
    }
    Ok(TransferSweep {
        dir,
        bytes,
        uni_secs: uni,
        bid_secs: bid,
        latency,
    })
}

/// One direction's fitted coefficients (a row of Table II), plus the
/// goodness-of-fit diagnostics a calibration report renders.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DirFit {
    /// Setup latency `t_l` (seconds).
    pub t_l: f64,
    /// Inverse bandwidth `t_b` (seconds/byte), unidirectional.
    pub t_b: f64,
    /// Residual standard error of the unidirectional fit.
    pub rse: f64,
    /// Inverse bandwidth while the opposite direction is saturated.
    pub t_b_bid: f64,
    /// Residual standard error of the bidirectional fit.
    pub rse_bid: f64,
    /// Bidirectional slowdown `sl = t_b_bid / t_b`.
    pub sl: f64,
    /// Uncentered R² of the unidirectional fit.
    pub r2: f64,
    /// Root-mean-square error of the unidirectional fit (seconds).
    pub rmse: f64,
    /// 95 % confidence half-width of `t_b`.
    pub ci95: f64,
    /// Uncentered R² of the bidirectional (BTS) fit.
    pub r2_bid: f64,
    /// Root-mean-square error of the bidirectional fit (seconds).
    pub rmse_bid: f64,
    /// 95 % confidence half-width of `t_b_bid`.
    pub ci95_bid: f64,
    /// Number of sweep points fitted.
    pub n: usize,
    /// Achieved relative 95 % CI of the latency micro-benchmark.
    pub t_l_rel_ci: f64,
    /// Samples the latency micro-benchmark took.
    pub t_l_samples: usize,
    /// Whether the latency micro-benchmark met the CI criterion.
    pub t_l_converged: bool,
}

/// Fits the latency/bandwidth coefficients from a sweep, following §IV-A:
/// subtract the measured `t_l`, then zero-intercept least squares of time
/// on bytes, separately for the uni- and bidirectional samples.
pub fn fit_sweep(sweep: &TransferSweep) -> DirFit {
    let t_l = sweep.latency.mean;
    let adj = |ys: &[f64]| -> Vec<f64> { ys.iter().map(|y| (y - t_l).max(0.0)).collect() };
    let uni = fit_zero_intercept(&sweep.bytes, &adj(&sweep.uni_secs));
    let bid = fit_zero_intercept(&sweep.bytes, &adj(&sweep.bid_secs));
    DirFit {
        t_l,
        t_b: uni.slope,
        rse: uni.rse,
        t_b_bid: bid.slope,
        rse_bid: bid.rse,
        sl: bid.slope / uni.slope,
        r2: uni.r2,
        rmse: uni.rmse,
        ci95: uni.slope_ci95,
        r2_bid: bid.r2,
        rmse_bid: bid.rmse,
        ci95_bid: bid.slope_ci95,
        n: uni.n,
        t_l_rel_ci: sweep.latency.rel_ci,
        t_l_samples: sweep.latency.n,
        t_l_converged: sweep.latency.converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocopelia_gpusim::{testbed_i, testbed_ii, NoiseSpec};

    fn quiet(mut tb: TestbedSpec) -> TestbedSpec {
        tb.noise = NoiseSpec::NONE;
        tb
    }

    #[test]
    fn latency_probe_recovers_ground_truth() {
        let tb = quiet(testbed_i());
        let mut gpu = Gpu::new(tb.clone(), ExecMode::TimingOnly, 1);
        let m = measure_latency(&mut gpu, Direction::H2d, &CiConfig::default()).expect("probe");
        // 8 bytes at 3.15 GB/s add ~2.5ns on top of 2.4us.
        assert!(
            (m.mean - tb.link.h2d.latency_s).abs() < 1e-8,
            "measured {}",
            m.mean
        );
    }

    #[test]
    fn samples_release_their_buffers() {
        let mut gpu = Gpu::new(testbed_i(), ExecMode::TimingOnly, 1);
        measure_latency(&mut gpu, Direction::D2h, &CiConfig::default()).expect("probe");
        for coupled in [false, true] {
            timed_square_transfer(&mut gpu, Direction::H2d, 512, coupled).expect("sample");
        }
        assert!(gpu.live_device_buffers().is_empty());
        assert!(gpu.live_host_buffers().is_empty());
        assert_eq!(gpu.device_mem_used(), 0);
    }

    #[test]
    fn fit_recovers_simulator_bandwidth() {
        let tb = quiet(testbed_i());
        let dims: Vec<usize> = (1..=8).map(|i| i * 512).collect();
        let sweep =
            transfer_sweep(&tb, Direction::H2d, &dims, &CiConfig::default(), 7).expect("sweep");
        let fit = fit_sweep(&sweep);
        let true_tb = 1.0 / tb.link.h2d.bandwidth_bps;
        assert!(
            (fit.t_b - true_tb).abs() / true_tb < 0.01,
            "fit {} vs truth {true_tb}",
            fit.t_b
        );
        // sl_h2d is 1.0 on testbed I.
        assert!((fit.sl - 1.0).abs() < 0.02, "sl {}", fit.sl);
        // A noise-free sweep yields a near-perfect linear law, and the
        // latency probe converges immediately.
        assert!(fit.r2 > 0.999, "r2 {}", fit.r2);
        assert!(fit.r2_bid > 0.999, "r2_bid {}", fit.r2_bid);
        assert!(fit.ci95 < fit.t_b * 0.01, "ci95 {}", fit.ci95);
        assert_eq!(fit.n, dims.len());
        assert!(fit.t_l_converged);
        assert!(fit.t_l_rel_ci <= 0.05);
    }

    #[test]
    fn fit_recovers_bidirectional_slowdown_on_v100() {
        let tb = quiet(testbed_ii());
        let dims: Vec<usize> = (1..=6).map(|i| i * 1024).collect();
        let sweep =
            transfer_sweep(&tb, Direction::D2h, &dims, &CiConfig::default(), 9).expect("sweep");
        let fit = fit_sweep(&sweep);
        assert!(
            (fit.sl - tb.link.sl_d2h_bid).abs() < 0.05,
            "sl {} vs truth {}",
            fit.sl,
            tb.link.sl_d2h_bid
        );
    }

    #[test]
    fn noisy_sweep_still_converges_close() {
        let tb = testbed_i(); // realistic noise
        let dims: Vec<usize> = (1..=6).map(|i| i * 768).collect();
        let sweep =
            transfer_sweep(&tb, Direction::H2d, &dims, &CiConfig::default(), 11).expect("sweep");
        let fit = fit_sweep(&sweep);
        let true_tb = 1.0 / tb.link.h2d.bandwidth_bps;
        assert!(
            (fit.t_b - true_tb).abs() / true_tb < 0.05,
            "fit {}",
            fit.t_b
        );
        assert!(fit.rse >= 0.0);
    }
}
