//! The correctness gate: functional spot checks of every routine against
//! the host BLAS reference, the sgemm transfer-width check, and the serving
//! conservation laws checked on each drain.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use cocopelia_core::profile::SystemProfile;
use cocopelia_gpusim::{EngineKind, ExecMode, Gpu, NoiseSpec, SimScalar, TestbedSpec};
use cocopelia_hostblas::{level1, level2, level3, validate, Matrix};
use cocopelia_runtime::serve::{RequestStatus, ServeReport, ServeSession};
use cocopelia_runtime::{
    AxpyRequest, Cocopelia, DotRequest, GemmRequest, GemvRequest, MatOperand, RequestId,
    RoutineRequest, TileChoice,
};

use crate::report::Report;

/// A quiet copy of `testbed`: functional checks compare numbers, not time.
fn quiet(testbed: &TestbedSpec) -> TestbedSpec {
    let mut tb = testbed.clone();
    tb.noise = NoiseSpec::NONE;
    tb
}

/// Deterministic operand values in `[-0.5, 0.5)`.
fn val(i: usize, j: usize, salt: usize) -> f64 {
    ((i * 31 + j * 17 + salt * 7) % 19) as f64 / 19.0 - 0.5
}

fn functional_ctx(testbed: &TestbedSpec, profile: &SystemProfile, seed: u64) -> Cocopelia {
    Cocopelia::new(
        Gpu::new(quiet(testbed), ExecMode::Functional, seed),
        profile.clone(),
    )
}

fn check_gemm<T: SimScalar>(testbed: &TestbedSpec, profile: &SystemProfile, r: &mut Report) {
    let (m, n, k) = (300, 200, 250);
    let a = Matrix::<T>::from_fn(m, k, |i, j| T::from_f64(val(i, j, 1)));
    let b = Matrix::<T>::from_fn(k, n, |i, j| T::from_f64(val(i, j, 2)));
    let c = Matrix::<T>::from_fn(m, n, |i, j| T::from_f64(val(i, j, 3)));
    let mut expect = c.clone();
    level3::gemm(
        T::from_f64(1.5),
        &a.view(),
        &b.view(),
        T::from_f64(0.5),
        &mut expect.view_mut(),
    );
    let mut ctx = functional_ctx(testbed, profile, 11);
    let got = GemmRequest::<T>::new(a, b, c)
        .alpha(1.5)
        .beta(0.5)
        .tile(TileChoice::Fixed(128))
        .run(&mut ctx);
    let name = format!("{}gemm", T::DTYPE.blas_prefix());
    match got.map(|g| g.c) {
        Ok(Some(c)) => {
            let err = validate::max_rel_err(c.as_slice(), expect.as_slice());
            let tol = validate::gemm_tolerance::<T>(k);
            r.check(err <= tol, || {
                format!("functional {name}: max rel err {err:e} > {tol:e}")
            });
        }
        other => r.check(false, || {
            format!("functional {name}: no result ({other:?})")
        }),
    }
}

/// Functional (`ExecMode::Functional`) spot checks of s/dgemm, daxpy, ddot
/// and dgemv at small sizes against the `hostblas` reference.
pub fn functional_spot_checks(testbed: &TestbedSpec, profile: &SystemProfile, r: &mut Report) {
    check_gemm::<f64>(testbed, profile, r);
    check_gemm::<f32>(testbed, profile, r);

    let n = 10_000;
    let x: Vec<f64> = (0..n).map(|i| val(i, 0, 4)).collect();
    let y: Vec<f64> = (0..n).map(|i| val(i, 1, 5)).collect();

    let mut expect = y.clone();
    level1::axpy(0.75, &x, &mut expect);
    let got = AxpyRequest::<f64>::new(x.clone(), y.clone())
        .alpha(0.75)
        .tile(TileChoice::Fixed(4096))
        .run(&mut functional_ctx(testbed, profile, 12))
        .map(|o| o.y);
    match got {
        Ok(Some(v)) => {
            let err = validate::max_rel_err(&v, &expect);
            r.check(err <= 1e-12, || {
                format!("functional daxpy: max rel err {err:e}")
            });
        }
        other => r.check(false, || format!("functional daxpy: no result ({other:?})")),
    }

    let expect = level1::dot(&x, &y);
    let got = DotRequest::<f64>::new(x.clone(), y.clone())
        .tile(TileChoice::Fixed(4096))
        .run(&mut functional_ctx(testbed, profile, 13))
        .map(|o| o.value);
    match got {
        Ok(Some(v)) => {
            let err = validate::max_rel_err(&[v], &[expect]);
            r.check(err <= 1e-10, || format!("functional ddot: rel err {err:e}"));
        }
        other => r.check(false, || format!("functional ddot: no result ({other:?})")),
    }

    let (m, k) = (300, 200);
    let a = Matrix::<f64>::from_fn(m, k, |i, j| val(i, j, 6));
    let xv: Vec<f64> = (0..k).map(|i| val(i, 2, 7)).collect();
    let yv: Vec<f64> = (0..m).map(|i| val(i, 3, 8)).collect();
    let mut expect = yv.clone();
    level2::gemv(1.25, &a.view(), &xv, 0.5, &mut expect);
    let got = GemvRequest::<f64>::new(a, xv, yv)
        .alpha(1.25)
        .beta(0.5)
        .tile(TileChoice::Fixed(128))
        .run(&mut functional_ctx(testbed, profile, 14))
        .map(|o| o.y);
    match got {
        Ok(Some(v)) => {
            let err = validate::max_rel_err(&v, &expect);
            let tol = validate::gemm_tolerance::<f64>(k);
            r.check(err <= tol, || {
                format!("functional dgemv: max rel err {err:e}")
            });
        }
        other => r.check(false, || format!("functional dgemv: no result ({other:?})")),
    }
}

/// Host-to-device bytes of one full-offload `n³` gemm in precision `T` at
/// a fixed tile, on a fresh timing-only device.
fn gemm_h2d_bytes<T: SimScalar>(
    testbed: &TestbedSpec,
    profile: &SystemProfile,
    n: usize,
) -> Option<usize> {
    let ghost = || MatOperand::<T>::HostGhost { rows: n, cols: n };
    let mut ctx = Cocopelia::new(
        Gpu::new(quiet(testbed), ExecMode::TimingOnly, 1),
        profile.clone(),
    );
    GemmRequest::<T>::new(ghost(), ghost(), ghost())
        .alpha(1.0)
        .beta(1.0)
        .tile(TileChoice::Fixed(1024))
        .run(&mut ctx)
        .ok()?;
    Some(ctx.gpu().trace().bytes_moved(EngineKind::CopyH2d))
}

/// sgemm driven through `GemmRequest::<f32>` moves exactly half the h2d
/// bytes of the same-shape dgemm. Returns `(sgemm, dgemm)` bytes.
pub fn sgemm_moves_half_the_bytes(
    testbed: &TestbedSpec,
    profile: &SystemProfile,
    r: &mut Report,
) -> (usize, usize) {
    let s = gemm_h2d_bytes::<f32>(testbed, profile, 4096).unwrap_or(0);
    let d = gemm_h2d_bytes::<f64>(testbed, profile, 4096).unwrap_or(0);
    r.check(s > 0 && 2 * s == d, || {
        format!("sgemm 4096^3 h2d bytes {s} are not half of dgemm's {d}")
    });
    (s, d)
}

/// Each submitted request has exactly one terminal outcome.
pub fn one_outcome_per_request(report: &ServeReport, submitted: &[RequestId], r: &mut Report) {
    let want: BTreeSet<u64> = submitted.iter().map(|id| id.0).collect();
    let got: Vec<u64> = report.outcomes.iter().map(|o| o.id.0).collect();
    let unique: BTreeSet<u64> = got.iter().copied().collect();
    r.check(got.len() == submitted.len() && unique == want, || {
        format!(
            "{} outcomes ({} distinct) for {} submitted requests",
            got.len(),
            unique.len(),
            submitted.len()
        )
    });
}

/// Device flops plus host flops equal the flops of the executed requests,
/// counted from the submitted requests' problem shapes: one execution per
/// request that was not coalesced into another (a coalesced group runs
/// once), on the host for a host fallback and on a device otherwise.
pub fn flops_conserved(
    report: &ServeReport,
    requests: &[RoutineRequest],
    submitted: &[RequestId],
    r: &mut Report,
) {
    let flops: HashMap<u64, f64> = submitted
        .iter()
        .zip(requests)
        .map(|(id, req)| (id.0, req.problem_spec().flops()))
        .collect();
    let (mut device, mut host) = (0.0, 0.0);
    for o in &report.outcomes {
        if o.coalesced || o.executed_report().is_none() {
            continue;
        }
        let f = flops.get(&o.id.0).copied().unwrap_or(f64::NAN);
        if o.host_fallback {
            host += f;
        } else {
            device += f;
        }
    }
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    r.check(
        close(device, report.total_flops) && close(host, report.host_flops),
        || {
            format!(
                "flops: executed requests need device {device:e} host {host:e}, report has {:e} + {:e}",
                report.total_flops, report.host_flops
            )
        },
    );
}

/// No device holds buffers beyond its residency entries; a quarantined
/// device holds none.
pub fn no_leaked_buffers(session: &ServeSession, r: &mut Report) {
    let quarantined = session.quarantined();
    for (d, dev) in session.pool().devices().iter().enumerate() {
        let live: BTreeSet<_> = dev.gpu().live_device_buffers().into_iter().collect();
        let expect: BTreeSet<_> = if quarantined.contains(&d) {
            BTreeSet::new()
        } else {
            session.residency(d).device_buffers().into_iter().collect()
        };
        r.check(live == expect, || {
            format!(
                "dev{d}: {} live device buffers, {} residency entries",
                live.len(),
                expect.len()
            )
        });
    }
}

/// A drain's virtual-time fingerprint: makespan, per-device busy, flops,
/// and each outcome's device, status and virtual elapsed time.
pub fn fingerprint(report: &ServeReport) -> String {
    let mut out = format!(
        "{} {:?} {:x} {:x}",
        report.makespan.as_nanos(),
        report
            .per_device_busy
            .iter()
            .map(|t| t.as_nanos())
            .collect::<Vec<_>>(),
        report.total_flops.to_bits(),
        report.host_flops.to_bits()
    );
    let outcomes: BTreeMap<u64, String> = report
        .outcomes
        .iter()
        .map(|o| {
            let status = match &o.status {
                RequestStatus::Completed(rep) => {
                    format!("ok:{}:{}", rep.tile, rep.elapsed.as_nanos())
                }
                RequestStatus::TimedOut { report, .. } => {
                    format!("late:{}", report.elapsed.as_nanos())
                }
                RequestStatus::Rejected { .. } => "rejected".to_owned(),
                RequestStatus::Failed(_) => "failed".to_owned(),
                _ => "other".to_owned(),
            };
            (o.id.0, format!("{:?}:{status}:{}", o.device, o.retries))
        })
        .collect();
    for (id, s) in outcomes {
        out.push_str(&format!(" {id}={s}"));
    }
    out
}
