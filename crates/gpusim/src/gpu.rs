//! The public device facade: a CUDA-like asynchronous API over the
//! discrete-event engine.

use crate::engine::Sim;
use crate::error::SimError;
use crate::fault::{FaultPlan, FaultSite, FaultSpec, FaultStats};
use crate::funcexec::{self, Effect};
use crate::kernel::{kernel_time, KernelShape};
use crate::memory::{AllocMark, DevBufId, DeviceMemory, HostArena, HostBufId, HostBuffer, Payload};
use crate::op::{check_mat_ref, CopyDesc, EventId, KernelArgs, OpId, OpKind, StreamId};
use crate::spec::TestbedSpec;
use crate::time::SimTime;
use crate::trace::{OpTag, Trace, TraceEntry};
use cocopelia_hostblas::Dtype;
use std::collections::HashMap;

/// Whether simulated kernels and copies actually move and compute data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Buffers carry real elements; schedules are numerically checkable.
    Functional,
    /// Buffers are ghosts; only virtual time is produced. Use for large
    /// parameter sweeps.
    TimingOnly,
}

/// A simulated GPU attached to a simulated host over a simulated link.
///
/// The API mirrors the CUDA subset the paper's library uses: streams,
/// asynchronous strided matrix copies (`cublasSetMatrixAsync` /
/// `cublasGetMatrixAsync`), kernel launches, events, and device-wide
/// synchronisation. All enqueue calls are instantaneous on the virtual
/// clock; time advances in [`synchronize`](Gpu::synchronize).
///
/// # Example
///
/// ```
/// use cocopelia_gpusim::{testbed_ii, CopyDesc, ExecMode, Gpu, KernelShape};
/// use cocopelia_hostblas::Dtype;
///
/// # fn main() -> Result<(), cocopelia_gpusim::SimError> {
/// let mut gpu = Gpu::new(testbed_ii(), ExecMode::TimingOnly, 42);
/// let s = gpu.create_stream();
/// let host = gpu.register_host_ghost(Dtype::F64, 1 << 20, true);
/// let dev = gpu.alloc_device(Dtype::F64, 1 << 20)?;
/// gpu.memcpy_h2d_async(s, CopyDesc::contiguous(host, dev, 1 << 20))?;
/// gpu.launch_kernel(s, KernelShape::Axpy { dtype: Dtype::F64, n: 1 << 20 }, None)?;
/// let elapsed = gpu.synchronize()?;
/// assert!(elapsed.as_secs_f64() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Gpu {
    spec: TestbedSpec,
    mode: ExecMode,
    sim: Sim,
    host: HostArena,
    dev: DeviceMemory,
    faults: FaultPlan,
    /// Data effects of pending ops, applied at completion. Only
    /// [`ExecMode::Functional`] devices record any.
    effects: HashMap<OpId, Effect>,
}

impl Gpu {
    /// Creates a device for the given testbed. `seed` drives measurement
    /// noise; equal seeds reproduce identical virtual timings. No faults
    /// are injected (equivalent to [`Gpu::with_faults`] with
    /// [`FaultSpec::none`]).
    pub fn new(spec: TestbedSpec, mode: ExecMode, seed: u64) -> Self {
        Gpu::with_faults(spec, mode, seed, FaultSpec::none())
    }

    /// Creates a device with a seeded fault-injection plan attached.
    ///
    /// The fault RNG is independent of the timing-noise RNG (driven by
    /// `seed`), so a spec of [`FaultSpec::none`] reproduces [`Gpu::new`]
    /// bit-for-bit.
    pub fn with_faults(spec: TestbedSpec, mode: ExecMode, seed: u64, faults: FaultSpec) -> Self {
        let mut sim = Sim::new(spec.link, spec.noise, seed);
        sim.set_degrade(
            faults
                .degrade
                .iter()
                .map(|w| {
                    (
                        (w.start_s.max(0.0) * 1e9).round() as u64,
                        (w.end_s.max(0.0) * 1e9).round() as u64,
                        w.factor,
                    )
                })
                .collect(),
        );
        let dev = DeviceMemory::new(spec.gpu.mem_capacity_bytes);
        Gpu {
            spec,
            mode,
            sim,
            host: HostArena::default(),
            dev,
            faults: FaultPlan::new(faults),
            effects: HashMap::new(),
        }
    }

    /// The testbed this device simulates.
    pub fn spec(&self) -> &TestbedSpec {
        &self.spec
    }

    /// True in [`ExecMode::Functional`].
    pub fn is_functional(&self) -> bool {
        self.mode == ExecMode::Functional
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Link bandwidth multiplier the DMA engines apply at the current
    /// virtual time: `1.0` outside every fault-plan degrade window, and
    /// where windows overlap, the factor of the one that started first.
    pub fn degrade_factor_now(&self) -> f64 {
        self.sim.degrade_factor_now()
    }

    /// The fault-injection spec this device was built with.
    pub fn fault_spec(&self) -> &FaultSpec {
        self.faults.spec()
    }

    /// Counters of the faults injected so far (all zero for a device built
    /// with [`FaultSpec::none`]).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.stats()
    }

    /// True once the device has crossed its
    /// [`lost_after`](FaultSpec::lost_after) threshold. A lost device
    /// rejects every enqueue, allocation, and synchronize with
    /// [`SimError::DeviceLost`]; frees and host-buffer takes still work so
    /// callers can clean up.
    pub fn is_lost(&self) -> bool {
        self.faults.is_lost()
    }

    /// Advances the virtual clock by `dt` while no work is in flight — the
    /// host-side wait primitive behind retry backoff in virtual time.
    pub fn advance_clock(&mut self, dt: SimTime) {
        self.sim.advance_by(dt.as_nanos());
    }

    /// Cancels everything the device did after `at`: rewinds the idle
    /// virtual clock to `at` and erases trace entries past it (entries
    /// straddling `at` are clamped to end there). This is the in-flight
    /// cancellation primitive of hedged re-dispatch — the losing attempt
    /// of a speculative race is undone, so its time is never charged.
    ///
    /// The device must be idle (between [`synchronize`](Gpu::synchronize)
    /// calls) and `at` must not lie in the future; memory state (live
    /// buffers) is untouched — callers free what the cancelled work
    /// allocated. Only virtual time and the trace are rewound: in
    /// [`ExecMode::Functional`] any data effects of already-synchronised
    /// work remain applied.
    ///
    /// # Panics
    ///
    /// If `at` precedes the end of a trace entry already moved out by
    /// [`retire_trace`](Gpu::retire_trace).
    pub fn cancel_to(&mut self, at: SimTime) {
        self.sim.rewind_to(at.as_nanos());
    }

    /// Rolls the fault dice for one enqueue site. On the device-lost
    /// transition all queued and in-flight work is aborted so the device
    /// drains cleanly for teardown.
    fn fault_gate(&mut self, site: FaultSite) -> Result<(), SimError> {
        match self.faults.inject(site) {
            None => Ok(()),
            Some(e) => {
                if self.faults.is_lost() {
                    self.abort_all();
                }
                Err(e)
            }
        }
    }

    /// Drops all queued and in-flight work with its pending data effects.
    fn abort_all(&mut self) {
        self.sim.abort_all();
        self.effects.clear();
    }

    /// Records the data effect of a just-enqueued op on functional devices.
    fn keep_effect(&mut self, op: OpId, effect: Effect) {
        if self.is_functional() {
            self.effects.insert(op, effect);
        }
    }

    /// Creates a new stream.
    pub fn create_stream(&mut self) -> StreamId {
        self.sim.create_stream()
    }

    /// Registers a host staging buffer holding `payload`.
    ///
    /// In [`ExecMode::TimingOnly`] the data is degraded to a ghost of the
    /// same type and length.
    pub fn register_host(&mut self, payload: impl Into<Payload>, pinned: bool) -> HostBufId {
        let payload = payload.into();
        let payload = if self.is_functional() {
            payload
        } else {
            Payload::Ghost {
                dtype: payload.dtype(),
                len: payload.len(),
            }
        };
        self.host.register(HostBuffer { payload, pinned })
    }

    /// Registers a metadata-only host buffer (any mode).
    pub fn register_host_ghost(&mut self, dtype: Dtype, len: usize, pinned: bool) -> HostBufId {
        self.host.register(HostBuffer {
            payload: Payload::Ghost { dtype, len },
            pinned,
        })
    }

    /// Borrows the payload of a host buffer (to read results back).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownBuffer`] for stale ids.
    pub fn host_payload(&self, id: HostBufId) -> Result<&Payload, SimError> {
        Ok(&self.host.get(id)?.payload)
    }

    /// Removes a host buffer from the arena and returns it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownBuffer`] for stale ids.
    pub fn take_host(&mut self, id: HostBufId) -> Result<HostBuffer, SimError> {
        self.host.unregister(id)
    }

    /// Allocates `len` elements of `dtype` on the device.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfDeviceMemory`] if capacity is exceeded, or
    /// [`SimError::DeviceLost`] on a lost device.
    pub fn alloc_device(&mut self, dtype: Dtype, len: usize) -> Result<DevBufId, SimError> {
        if self.faults.is_lost() {
            return Err(SimError::DeviceLost);
        }
        self.dev.alloc(dtype, len, self.is_functional())
    }

    /// Frees a device buffer.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BufferInUse`] if work is still queued or running
    /// (call [`synchronize`](Gpu::synchronize) first), or
    /// [`SimError::UnknownBuffer`] for stale ids.
    pub fn free_device(&mut self, id: DevBufId) -> Result<(), SimError> {
        if !self.sim.idle() {
            return Err(SimError::BufferInUse {
                what: format!("device buffer {} freed while work is queued", id.0),
            });
        }
        self.dev.free(id)
    }

    /// Bytes of device memory currently allocated.
    pub fn device_mem_used(&self) -> usize {
        self.dev.used()
    }

    /// Bytes of device memory still available.
    pub fn device_mem_available(&self) -> usize {
        self.dev.available()
    }

    /// Total device memory capacity in bytes (the testbed's HBM/GDDR size).
    pub fn device_mem_capacity(&self) -> usize {
        self.dev.capacity()
    }

    /// Size in bytes of one live device buffer — the residency query used
    /// by admission control and device-cache accounting.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownBuffer`] for stale ids.
    pub fn device_buffer_bytes(&self, id: DevBufId) -> Result<usize, SimError> {
        Ok(self.dev.get(id)?.bytes())
    }

    /// Ids of every live device buffer, in allocation order.
    ///
    /// To find what one attempt left behind, take an
    /// [`alloc_mark`](Gpu::alloc_mark) before it and query
    /// [`live_device_buffers_since`](Gpu::live_device_buffers_since).
    pub fn live_device_buffers(&self) -> Vec<DevBufId> {
        self.dev.live_since(0)
    }

    /// Ids of every live host staging buffer, in registration order (the
    /// host-side counterpart of
    /// [`live_device_buffers`](Gpu::live_device_buffers)).
    pub fn live_host_buffers(&self) -> Vec<HostBufId> {
        self.host.live_since(0)
    }

    /// The current point in this device's allocation history: every
    /// device allocation and host registration made from now on counts as
    /// made at or after the mark, even when it reuses an older buffer's
    /// slot.
    pub fn alloc_mark(&self) -> AllocMark {
        AllocMark {
            dev: self.dev.next_seq(),
            host: self.host.next_seq(),
        }
    }

    /// Whether live device buffer `id` was allocated at or after `mark`;
    /// `false` once it is freed.
    pub fn allocated_since(&self, mark: AllocMark, id: DevBufId) -> bool {
        self.dev.seq(id).is_some_and(|seq| seq >= mark.dev)
    }

    /// Ids of the device buffers alive now that were allocated at or after
    /// `mark`, in allocation order.
    pub fn live_device_buffers_since(&self, mark: AllocMark) -> Vec<DevBufId> {
        self.dev.live_since(mark.dev)
    }

    /// Ids of the host buffers alive now that were registered at or after
    /// `mark`, in registration order.
    pub fn live_host_buffers_since(&self, mark: AllocMark) -> Vec<HostBufId> {
        self.host.live_since(mark.host)
    }

    fn check_copy(&self, desc: &CopyDesc) -> Result<(usize, bool), SimError> {
        desc.check_shapes()?;
        let hb = self.host.get(desc.host)?;
        let db = self.dev.get(desc.dev)?;
        if hb.payload.dtype() != db.dtype() {
            return Err(SimError::InvalidAccess {
                what: format!(
                    "copy dtype mismatch: host {} vs device {}",
                    hb.payload.dtype(),
                    db.dtype()
                ),
            });
        }
        desc.host_region.check(hb.payload.len(), "host region")?;
        desc.dev_region.check(db.len(), "device region")?;
        let bytes = desc.host_region.elems() * hb.payload.dtype().width();
        Ok((bytes, !hb.pinned))
    }

    /// Enqueues an asynchronous host-to-device copy on `stream`
    /// (`cublasSetMatrixAsync` analogue).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidAccess`] for out-of-bounds regions or
    /// dtype mismatches, [`SimError::UnknownBuffer`]/[`SimError::UnknownStream`]
    /// for stale ids.
    pub fn memcpy_h2d_async(&mut self, stream: StreamId, desc: CopyDesc) -> Result<(), SimError> {
        self.check_stream(stream)?;
        let (bytes, pageable) = self.check_copy(&desc)?;
        self.fault_gate(FaultSite::H2d)?;
        let op = self.sim.enqueue(stream, OpKind::H2d { bytes, pageable });
        self.keep_effect(op, Effect::H2d(desc));
        Ok(())
    }

    /// Enqueues an asynchronous device-to-host copy on `stream`
    /// (`cublasGetMatrixAsync` analogue).
    ///
    /// # Errors
    ///
    /// As for [`memcpy_h2d_async`](Gpu::memcpy_h2d_async).
    pub fn memcpy_d2h_async(&mut self, stream: StreamId, desc: CopyDesc) -> Result<(), SimError> {
        self.check_stream(stream)?;
        let (bytes, pageable) = self.check_copy(&desc)?;
        self.fault_gate(FaultSite::D2h)?;
        let op = self.sim.enqueue(stream, OpKind::D2h { bytes, pageable });
        self.keep_effect(op, Effect::D2h(desc));
        Ok(())
    }

    fn check_stream(&self, stream: StreamId) -> Result<(), SimError> {
        if self.sim.stream_exists(stream) {
            Ok(())
        } else {
            Err(SimError::UnknownStream { id: stream.index() })
        }
    }

    fn check_kernel_args(&self, shape: &KernelShape, args: &KernelArgs) -> Result<(), SimError> {
        match (*shape, *args) {
            (KernelShape::Gemm { m, n, k, dtype }, KernelArgs::Gemm { a, b, c, .. }) => {
                if c.buf == a.buf || c.buf == b.buf {
                    return Err(SimError::InvalidAccess {
                        what: "gemm output buffer must not alias inputs".to_owned(),
                    });
                }
                for (r, rows, cols, what) in [
                    (a, m, k, "gemm A"),
                    (b, k, n, "gemm B"),
                    (c, m, n, "gemm C"),
                ] {
                    let p = self.dev.get(r.buf)?;
                    if p.dtype() != dtype {
                        return Err(SimError::InvalidAccess {
                            what: format!("{what}: dtype {} != kernel {dtype}", p.dtype()),
                        });
                    }
                    check_mat_ref(p, &r, rows, cols, what)?;
                }
                Ok(())
            }
            (KernelShape::Axpy { n, dtype }, KernelArgs::Axpy { x, y, .. }) => {
                if x.buf == y.buf {
                    return Err(SimError::InvalidAccess {
                        what: "axpy vectors must live in distinct buffers".to_owned(),
                    });
                }
                for (v, what) in [(x, "axpy x"), (y, "axpy y")] {
                    let p = self.dev.get(v.buf)?;
                    if p.dtype() != dtype {
                        return Err(SimError::InvalidAccess {
                            what: format!("{what}: dtype {} != kernel {dtype}", p.dtype()),
                        });
                    }
                    if v.offset + n > p.len() {
                        return Err(SimError::InvalidAccess {
                            what: format!("{what}: region exceeds buffer"),
                        });
                    }
                }
                Ok(())
            }
            (KernelShape::Dot { n, dtype }, KernelArgs::Dot { x, y, out }) => {
                if out.buf == x.buf || out.buf == y.buf {
                    return Err(SimError::InvalidAccess {
                        what: "dot output slot must not alias inputs".to_owned(),
                    });
                }
                for (v, len, what) in [(x, n, "dot x"), (y, n, "dot y"), (out, 1, "dot out")] {
                    let p = self.dev.get(v.buf)?;
                    if p.dtype() != dtype {
                        return Err(SimError::InvalidAccess {
                            what: format!("{what}: dtype {} != kernel {dtype}", p.dtype()),
                        });
                    }
                    if v.offset + len > p.len() {
                        return Err(SimError::InvalidAccess {
                            what: format!("{what}: region exceeds buffer"),
                        });
                    }
                }
                Ok(())
            }
            (KernelShape::Gemv { m, n, dtype }, KernelArgs::Gemv { a, x, y, .. }) => {
                if y.buf == x.buf || y.buf == a.buf {
                    return Err(SimError::InvalidAccess {
                        what: "gemv output must not alias inputs".to_owned(),
                    });
                }
                let pa = self.dev.get(a.buf)?;
                if pa.dtype() != dtype {
                    return Err(SimError::InvalidAccess {
                        what: format!("gemv A: dtype {} != kernel {dtype}", pa.dtype()),
                    });
                }
                check_mat_ref(pa, &a, m, n, "gemv A")?;
                for (v, len, what) in [(x, n, "gemv x"), (y, m, "gemv y")] {
                    let p = self.dev.get(v.buf)?;
                    if p.dtype() != dtype {
                        return Err(SimError::InvalidAccess {
                            what: format!("{what}: dtype {} != kernel {dtype}", p.dtype()),
                        });
                    }
                    if v.offset + len > p.len() {
                        return Err(SimError::InvalidAccess {
                            what: format!("{what}: region exceeds buffer"),
                        });
                    }
                }
                Ok(())
            }
            _ => Err(SimError::InvalidAccess {
                what: "kernel shape does not match its arguments".to_owned(),
            }),
        }
    }

    /// Enqueues a kernel launch on `stream`.
    ///
    /// In functional mode `args` must be provided and name device buffers of
    /// the kernel's element type; output buffers must not alias inputs. In
    /// timing mode `args` may be `None`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidAccess`] for shape/argument mismatches and
    /// aliasing violations.
    pub fn launch_kernel(
        &mut self,
        stream: StreamId,
        shape: KernelShape,
        args: Option<KernelArgs>,
    ) -> Result<(), SimError> {
        self.check_stream(stream)?;
        if let Some(args) = &args {
            self.check_kernel_args(&shape, args)?;
        } else if self.is_functional() {
            return Err(SimError::InvalidAccess {
                what: "functional mode requires kernel arguments".to_owned(),
            });
        }
        self.fault_gate(FaultSite::Kernel)?;
        let base_secs = kernel_time(&self.spec.gpu, &shape);
        let op = self.sim.enqueue_kernel(stream, shape, base_secs);
        if let Some(args) = args {
            self.keep_effect(op, Effect::Kernel(shape, args));
        }
        Ok(())
    }

    /// Records an event on `stream`; later ops can
    /// [`wait_event`](Gpu::wait_event) on it from other streams.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownStream`] for stale stream ids.
    pub fn record_event(&mut self, stream: StreamId) -> Result<EventId, SimError> {
        self.check_stream(stream)?;
        Ok(self.sim.record_event(stream))
    }

    /// Makes `stream` wait until `event` has been recorded.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownEvent`] / [`SimError::UnknownStream`] for
    /// stale ids.
    pub fn wait_event(&mut self, stream: StreamId, event: EventId) -> Result<(), SimError> {
        self.check_stream(stream)?;
        if !self.sim.event_exists(event) {
            return Err(SimError::UnknownEvent { id: event.0 });
        }
        self.sim.wait_event(stream, event);
        Ok(())
    }

    /// Runs all enqueued work to completion (`cudaDeviceSynchronize`) and
    /// returns the current virtual time.
    ///
    /// # Errors
    ///
    /// Propagates functional-execution errors (these indicate scheduler
    /// bugs, e.g. dtype mixes that slipped past enqueue validation).
    ///
    /// # Panics
    ///
    /// Panics if the schedule deadlocks on an event that is never recorded.
    pub fn synchronize(&mut self) -> Result<SimTime, SimError> {
        if self.faults.is_lost() {
            // In-flight work was already aborted at the loss transition;
            // clearing again keeps this idempotent for cleanup callers that
            // sync (ignoring the error) before freeing buffers.
            self.abort_all();
            return Err(SimError::DeviceLost);
        }
        if !self.is_functional() {
            self.sim.run_to_idle(|_| {});
            return Ok(self.sim.now());
        }
        // Every pending op completes here, so every effect is taken. They
        // apply in completion order; the first error skips the rest.
        let mut result = Ok(());
        let (host, dev, effects) = (&mut self.host, &mut self.dev, &mut self.effects);
        self.sim.run_to_idle(|op| {
            if let Some(effect) = effects.remove(&op) {
                if result.is_ok() {
                    result = funcexec::apply(&effect, host, dev);
                }
            }
        });
        result.map(|()| self.sim.now())
    }

    /// Sets the ambient op tag: every op enqueued until the next
    /// [`set_op_tag`](Gpu::set_op_tag) or [`clear_op_tag`](Gpu::clear_op_tag)
    /// carries a snapshot of `tag` into its [`TraceEntry`](crate::TraceEntry).
    ///
    /// Schedulers use this to attribute low-level copies and kernel launches
    /// to the routine call, tile, and operand they serve.
    pub fn set_op_tag(&mut self, tag: OpTag) {
        self.sim.set_tag(Some(tag));
    }

    /// Clears the ambient op tag; subsequently enqueued ops are untagged.
    pub fn clear_op_tag(&mut self) {
        self.sim.set_tag(None);
    }

    /// The ambient op tag currently in effect, if any.
    pub fn op_tag(&self) -> Option<OpTag> {
        self.sim.tag()
    }

    /// Execution trace accumulated since construction or the last
    /// [`clear_trace`](Gpu::clear_trace); entries moved out by
    /// [`retire_trace`](Gpu::retire_trace) still count in its length and
    /// totals.
    pub fn trace(&self) -> &Trace {
        self.sim.trace()
    }

    /// Moves out the trace entries before global index `upto` (a
    /// [`Trace::len`] mark), in record order, folding them into the
    /// trace's exact per-engine totals. A later
    /// [`cancel_to`](Gpu::cancel_to) must not reach before the end of a
    /// retired entry.
    ///
    /// # Panics
    ///
    /// If work is in flight (call between
    /// [`synchronize`](Gpu::synchronize) calls).
    pub fn retire_trace(&mut self, upto: usize) -> Vec<TraceEntry> {
        self.sim.retire_trace(upto)
    }

    /// Discards the accumulated trace, retired totals included (keeps the
    /// clock running).
    pub fn clear_trace(&mut self) {
        self.sim.clear_trace();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{DevMatRef, DevVecRef, Region2d};
    use crate::spec::{testbed_i, testbed_ii, NoiseSpec};
    use crate::trace::{EngineKind, Routine};
    use cocopelia_hostblas::{level3, Matrix};

    fn quiet(mut tb: TestbedSpec) -> TestbedSpec {
        tb.noise = NoiseSpec::NONE;
        tb
    }

    #[test]
    fn functional_round_trip_h2d_d2h() {
        let mut gpu = Gpu::new(quiet(testbed_i()), ExecMode::Functional, 1);
        let s = gpu.create_stream();
        let data: Vec<f64> = (0..100).map(|v| v as f64).collect();
        let h_src = gpu.register_host(data.clone(), true);
        let h_dst = gpu.register_host(vec![0.0f64; 100], true);
        let d = gpu.alloc_device(Dtype::F64, 100).expect("alloc");
        gpu.memcpy_h2d_async(s, CopyDesc::contiguous(h_src, d, 100))
            .expect("h2d");
        gpu.memcpy_d2h_async(s, CopyDesc::contiguous(h_dst, d, 100))
            .expect("d2h");
        gpu.synchronize().expect("sync");
        assert_eq!(gpu.host_payload(h_dst).expect("buf").as_f64(), &data[..]);
    }

    #[test]
    fn functional_gemm_matches_reference() {
        let mut gpu = Gpu::new(quiet(testbed_i()), ExecMode::Functional, 1);
        let s = gpu.create_stream();
        let (m, n, k) = (8, 7, 9);
        let a = Matrix::<f64>::from_fn(m, k, |i, j| (i + 2 * j) as f64 * 0.25);
        let b = Matrix::<f64>::from_fn(k, n, |i, j| (i as f64) - (j as f64) * 0.5);
        let mut c_ref = Matrix::<f64>::zeros(m, n);
        level3::gemm(1.0, &a.view(), &b.view(), 0.0, &mut c_ref.view_mut());

        let ha = gpu.register_host(a.into_vec(), true);
        let hb = gpu.register_host(b.into_vec(), true);
        let hc = gpu.register_host(vec![0.0f64; m * n], true);
        let da = gpu.alloc_device(Dtype::F64, m * k).expect("alloc");
        let db = gpu.alloc_device(Dtype::F64, k * n).expect("alloc");
        let dc = gpu.alloc_device(Dtype::F64, m * n).expect("alloc");
        gpu.memcpy_h2d_async(s, CopyDesc::contiguous(ha, da, m * k))
            .expect("h2d a");
        gpu.memcpy_h2d_async(s, CopyDesc::contiguous(hb, db, k * n))
            .expect("h2d b");
        gpu.launch_kernel(
            s,
            KernelShape::Gemm {
                dtype: Dtype::F64,
                m,
                n,
                k,
            },
            Some(KernelArgs::Gemm {
                alpha: 1.0,
                beta: 0.0,
                a: DevMatRef {
                    buf: da,
                    offset: 0,
                    ld: m,
                },
                b: DevMatRef {
                    buf: db,
                    offset: 0,
                    ld: k,
                },
                c: DevMatRef {
                    buf: dc,
                    offset: 0,
                    ld: m,
                },
            }),
        )
        .expect("launch");
        gpu.memcpy_d2h_async(s, CopyDesc::contiguous(hc, dc, m * n))
            .expect("d2h");
        gpu.synchronize().expect("sync");
        let got = gpu.host_payload(hc).expect("buf").as_f64();
        for (x, y) in got.iter().zip(c_ref.as_slice()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn functional_axpy_computes() {
        let mut gpu = Gpu::new(quiet(testbed_ii()), ExecMode::Functional, 3);
        let s = gpu.create_stream();
        let n = 50;
        let hx = gpu.register_host(vec![2.0f64; n], true);
        let hy = gpu.register_host(vec![1.0f64; n], true);
        let dx = gpu.alloc_device(Dtype::F64, n).expect("alloc");
        let dy = gpu.alloc_device(Dtype::F64, n).expect("alloc");
        gpu.memcpy_h2d_async(s, CopyDesc::contiguous(hx, dx, n))
            .expect("h2d");
        gpu.memcpy_h2d_async(s, CopyDesc::contiguous(hy, dy, n))
            .expect("h2d");
        gpu.launch_kernel(
            s,
            KernelShape::Axpy {
                dtype: Dtype::F64,
                n,
            },
            Some(KernelArgs::Axpy {
                alpha: 3.0,
                x: DevVecRef { buf: dx, offset: 0 },
                y: DevVecRef { buf: dy, offset: 0 },
            }),
        )
        .expect("launch");
        gpu.memcpy_d2h_async(s, CopyDesc::contiguous(hy, dy, n))
            .expect("d2h");
        gpu.synchronize().expect("sync");
        assert!(gpu
            .host_payload(hy)
            .expect("buf")
            .as_f64()
            .iter()
            .all(|&v| v == 7.0));
    }

    #[test]
    fn strided_tile_copy() {
        // Copy the (1,1)-anchored 2x2 tile of a 4x4 host matrix into a
        // packed device tile and back into a different host location.
        let mut gpu = Gpu::new(quiet(testbed_i()), ExecMode::Functional, 1);
        let s = gpu.create_stream();
        let m = Matrix::<f64>::from_fn(4, 4, |i, j| (10 * i + j) as f64);
        let h = gpu.register_host(m.into_vec(), true);
        let hout = gpu.register_host(vec![0.0f64; 4], true);
        let d = gpu.alloc_device(Dtype::F64, 4).expect("alloc");
        gpu.memcpy_h2d_async(
            s,
            CopyDesc {
                host: h,
                host_region: Region2d {
                    offset: 1 + 4,
                    ld: 4,
                    rows: 2,
                    cols: 2,
                },
                dev: d,
                dev_region: Region2d {
                    offset: 0,
                    ld: 2,
                    rows: 2,
                    cols: 2,
                },
            },
        )
        .expect("h2d");
        gpu.memcpy_d2h_async(s, CopyDesc::contiguous(hout, d, 4))
            .expect("d2h");
        gpu.synchronize().expect("sync");
        // (1,1), (2,1), (1,2), (2,2) of the original in column-major order.
        assert_eq!(
            gpu.host_payload(hout).expect("buf").as_f64(),
            &[11.0, 21.0, 12.0, 22.0]
        );
    }

    #[test]
    fn out_of_memory_reported() {
        let mut tb = quiet(testbed_i());
        tb.gpu.mem_capacity_bytes = 1000;
        let mut gpu = Gpu::new(tb, ExecMode::TimingOnly, 1);
        assert!(gpu.alloc_device(Dtype::F64, 100).is_ok()); // 800 bytes
        let err = gpu.alloc_device(Dtype::F64, 100).expect_err("oom");
        assert!(matches!(err, SimError::OutOfDeviceMemory { .. }));
    }

    #[test]
    fn residency_queries_track_live_buffers() {
        let mut tb = quiet(testbed_i());
        tb.gpu.mem_capacity_bytes = 10_000;
        let mut gpu = Gpu::new(tb, ExecMode::TimingOnly, 1);
        assert_eq!(gpu.device_mem_capacity(), 10_000);
        assert!(gpu.live_device_buffers().is_empty());
        let a = gpu.alloc_device(Dtype::F64, 100).expect("alloc a");
        let b = gpu.alloc_device(Dtype::F32, 50).expect("alloc b");
        assert_eq!(gpu.device_buffer_bytes(a).expect("live"), 800);
        assert_eq!(gpu.device_buffer_bytes(b).expect("live"), 200);
        assert_eq!(gpu.live_device_buffers(), vec![a, b]);
        gpu.free_device(a).expect("free");
        assert_eq!(gpu.live_device_buffers(), vec![b]);
        assert!(gpu.device_buffer_bytes(a).is_err());
        let h = gpu.register_host_ghost(Dtype::F64, 10, true);
        assert_eq!(gpu.live_host_buffers(), vec![h]);
        gpu.take_host(h).expect("take");
        assert!(gpu.live_host_buffers().is_empty());
    }

    #[test]
    fn alloc_mark_reports_only_later_live_buffers() {
        let mut gpu = Gpu::new(quiet(testbed_i()), ExecMode::TimingOnly, 1);
        let alloc = |gpu: &mut Gpu| gpu.alloc_device(Dtype::F64, 10).expect("alloc");
        let register = |gpu: &mut Gpu| gpu.register_host_ghost(Dtype::F64, 10, true);
        // Before the mark: one buffer of each side freed, one kept alive.
        let (d_freed, d_kept) = (alloc(&mut gpu), alloc(&mut gpu));
        let (h_freed, h_kept) = (register(&mut gpu), register(&mut gpu));
        gpu.free_device(d_freed).expect("free");
        gpu.take_host(h_freed).expect("take");
        let mark = gpu.alloc_mark();
        assert!(gpu.live_device_buffers_since(mark).is_empty());
        assert!(gpu.live_host_buffers_since(mark).is_empty());
        // After it: buffers freed again are not reported, the rest are, in
        // allocation order — also the first, which reuses the slot freed
        // before the mark — and the pre-mark survivor never is.
        let d = [alloc(&mut gpu), alloc(&mut gpu), alloc(&mut gpu)];
        assert_eq!(d[0].0.slot(), d_freed.0.slot());
        gpu.free_device(d[1]).expect("free");
        assert_eq!(gpu.live_device_buffers_since(mark), vec![d[0], d[2]]);
        assert!(gpu.allocated_since(mark, d[0]) && gpu.allocated_since(mark, d[2]));
        assert!(
            !gpu.allocated_since(mark, d_kept),
            "allocated before the mark"
        );
        assert!(!gpu.allocated_since(mark, d[1]) && !gpu.allocated_since(mark, d_freed));
        assert_eq!(gpu.live_device_buffers(), vec![d_kept, d[0], d[2]]);
        // Device allocations do not move the host side, and vice versa.
        assert!(gpu.live_host_buffers_since(mark).is_empty());
        assert_eq!(gpu.alloc_mark().host, mark.host);
        let dev_mark = gpu.alloc_mark();
        let h = [register(&mut gpu), register(&mut gpu)];
        assert_eq!(h[0].0.slot(), h_freed.0.slot());
        gpu.take_host(h[0]).expect("take");
        assert_eq!(gpu.live_host_buffers_since(mark), vec![h[1]]);
        assert_eq!(gpu.alloc_mark().dev, dev_mark.dev);
        assert!(gpu.live_device_buffers_since(dev_mark).is_empty());
        assert_eq!(gpu.live_host_buffers(), vec![h_kept, h[1]]);
        // Stale ids stay unknown, also once a later buffer reuses their
        // slot.
        assert!(matches!(
            gpu.free_device(d[1]),
            Err(SimError::UnknownBuffer { .. })
        ));
        assert!(matches!(
            gpu.take_host(h[0]),
            Err(SimError::UnknownBuffer { .. })
        ));
        let reuse_d = alloc(&mut gpu);
        let reuse_h = register(&mut gpu);
        assert_eq!(reuse_d.0.slot(), d[1].0.slot());
        assert_eq!(reuse_h.0.slot(), h[0].0.slot());
        for stale in [d_freed, d[1]] {
            assert!(matches!(
                gpu.free_device(stale),
                Err(SimError::UnknownBuffer { .. })
            ));
            assert!(gpu.device_buffer_bytes(stale).is_err());
        }
        for stale in [h_freed, h[0]] {
            assert!(matches!(
                gpu.take_host(stale),
                Err(SimError::UnknownBuffer { .. })
            ));
        }
        gpu.free_device(reuse_d).expect("free");
        assert!(gpu.free_device(reuse_d).is_err(), "double free");
        gpu.take_host(reuse_h).expect("take");
        assert!(gpu.take_host(reuse_h).is_err(), "double take");
    }

    #[test]
    fn free_requires_idle() {
        let mut gpu = Gpu::new(quiet(testbed_i()), ExecMode::TimingOnly, 1);
        let s = gpu.create_stream();
        let h = gpu.register_host_ghost(Dtype::F64, 10, true);
        let d = gpu.alloc_device(Dtype::F64, 10).expect("alloc");
        gpu.memcpy_h2d_async(s, CopyDesc::contiguous(h, d, 10))
            .expect("h2d");
        assert!(matches!(
            gpu.free_device(d),
            Err(SimError::BufferInUse { .. })
        ));
        gpu.synchronize().expect("sync");
        gpu.free_device(d).expect("free after sync");
        assert_eq!(gpu.device_mem_used(), 0);
    }

    #[test]
    fn copy_region_out_of_bounds_rejected() {
        let mut gpu = Gpu::new(quiet(testbed_i()), ExecMode::TimingOnly, 1);
        let s = gpu.create_stream();
        let h = gpu.register_host_ghost(Dtype::F64, 10, true);
        let d = gpu.alloc_device(Dtype::F64, 5).expect("alloc");
        let err = gpu
            .memcpy_h2d_async(s, CopyDesc::contiguous(h, d, 10))
            .expect_err("device too small");
        assert!(matches!(err, SimError::InvalidAccess { .. }));
    }

    #[test]
    fn dtype_mismatch_rejected() {
        let mut gpu = Gpu::new(quiet(testbed_i()), ExecMode::TimingOnly, 1);
        let s = gpu.create_stream();
        let h = gpu.register_host_ghost(Dtype::F32, 10, true);
        let d = gpu.alloc_device(Dtype::F64, 10).expect("alloc");
        assert!(gpu
            .memcpy_h2d_async(s, CopyDesc::contiguous(h, d, 10))
            .is_err());
    }

    #[test]
    fn gemm_aliasing_rejected() {
        let mut gpu = Gpu::new(quiet(testbed_i()), ExecMode::TimingOnly, 1);
        let s = gpu.create_stream();
        let d = gpu.alloc_device(Dtype::F64, 64).expect("alloc");
        let r = DevMatRef {
            buf: d,
            offset: 0,
            ld: 8,
        };
        let err = gpu
            .launch_kernel(
                s,
                KernelShape::Gemm {
                    dtype: Dtype::F64,
                    m: 8,
                    n: 8,
                    k: 8,
                },
                Some(KernelArgs::Gemm {
                    alpha: 1.0,
                    beta: 0.0,
                    a: r,
                    b: r,
                    c: r,
                }),
            )
            .expect_err("aliased");
        assert!(matches!(err, SimError::InvalidAccess { .. }));
    }

    #[test]
    fn functional_mode_requires_args() {
        let mut gpu = Gpu::new(quiet(testbed_i()), ExecMode::Functional, 1);
        let s = gpu.create_stream();
        let err = gpu
            .launch_kernel(
                s,
                KernelShape::Axpy {
                    dtype: Dtype::F64,
                    n: 4,
                },
                None,
            )
            .expect_err("no args");
        assert!(matches!(err, SimError::InvalidAccess { .. }));
    }

    #[test]
    fn unknown_stream_rejected() {
        let mut gpu = Gpu::new(quiet(testbed_i()), ExecMode::TimingOnly, 1);
        let err = gpu
            .launch_kernel(
                StreamId(9),
                KernelShape::Axpy {
                    dtype: Dtype::F64,
                    n: 4,
                },
                None,
            )
            .expect_err("no stream");
        assert!(matches!(err, SimError::UnknownStream { id: 9 }));
    }

    #[test]
    fn none_faults_are_bit_identical_to_new() {
        let run = |gpu: &mut Gpu| {
            let s = gpu.create_stream();
            let h = gpu.register_host_ghost(Dtype::F64, 1 << 20, true);
            let d = gpu.alloc_device(Dtype::F64, 1 << 20).expect("alloc");
            gpu.memcpy_h2d_async(s, CopyDesc::contiguous(h, d, 1 << 20))
                .expect("h2d");
            gpu.launch_kernel(
                s,
                KernelShape::Gemm {
                    dtype: Dtype::F64,
                    m: 512,
                    n: 512,
                    k: 512,
                },
                None,
            )
            .expect("launch");
            gpu.synchronize().expect("sync").as_nanos()
        };
        // Realistic noise exercises the noise RNG alongside the (inactive)
        // fault plan: the draws must be identical.
        let mut plain = Gpu::new(testbed_i(), ExecMode::TimingOnly, 9);
        let mut faulted = Gpu::with_faults(testbed_i(), ExecMode::TimingOnly, 9, FaultSpec::none());
        assert_eq!(run(&mut plain), run(&mut faulted));
    }

    #[test]
    fn injected_faults_surface_and_count() {
        let spec = FaultSpec {
            seed: 3,
            h2d: 1.0,
            ..FaultSpec::none()
        };
        let mut gpu = Gpu::with_faults(quiet(testbed_i()), ExecMode::TimingOnly, 1, spec);
        let s = gpu.create_stream();
        let h = gpu.register_host_ghost(Dtype::F64, 10, true);
        let d = gpu.alloc_device(Dtype::F64, 10).expect("alloc");
        let err = gpu
            .memcpy_h2d_async(s, CopyDesc::contiguous(h, d, 10))
            .expect_err("fault");
        assert!(matches!(err, SimError::TransferFault { .. }));
        assert_eq!(gpu.fault_stats().h2d_faults, 1);
        // The failed enqueue left nothing queued: the device is still usable.
        gpu.synchronize().expect("sync");
        gpu.free_device(d).expect("free");
    }

    #[test]
    fn device_lost_aborts_and_allows_cleanup() {
        let spec = FaultSpec {
            seed: 5,
            kernel: 1.0,
            lost_after: Some(1),
            ..FaultSpec::none()
        };
        let mut gpu = Gpu::with_faults(quiet(testbed_i()), ExecMode::TimingOnly, 1, spec);
        let s = gpu.create_stream();
        let h = gpu.register_host_ghost(Dtype::F64, 100, true);
        let d = gpu.alloc_device(Dtype::F64, 100).expect("alloc");
        gpu.memcpy_h2d_async(s, CopyDesc::contiguous(h, d, 100))
            .expect("h2d enqueues fine");
        let err = gpu
            .launch_kernel(
                s,
                KernelShape::Axpy {
                    dtype: Dtype::F64,
                    n: 100,
                },
                None,
            )
            .expect_err("lost");
        assert!(matches!(err, SimError::DeviceLost));
        assert!(gpu.is_lost());
        assert!(matches!(gpu.synchronize(), Err(SimError::DeviceLost)));
        assert!(matches!(
            gpu.alloc_device(Dtype::F64, 1),
            Err(SimError::DeviceLost)
        ));
        // Cleanup still works: the queued copy was aborted at the loss
        // transition, so frees no longer see in-flight work.
        gpu.free_device(d).expect("free after loss");
        gpu.take_host(h).expect("take host after loss");
        assert_eq!(gpu.device_mem_used(), 0);
    }

    #[test]
    fn advance_clock_moves_virtual_time() {
        let mut gpu = Gpu::new(quiet(testbed_i()), ExecMode::TimingOnly, 1);
        gpu.advance_clock(SimTime::from_secs_f64(1e-4));
        assert!((gpu.now().as_secs_f64() - 1e-4).abs() < 1e-12);
    }

    #[test]
    fn cancel_to_rewinds_clock_and_trace_and_leaves_device_usable() {
        let mut gpu = Gpu::new(quiet(testbed_i()), ExecMode::TimingOnly, 1);
        let s = gpu.create_stream();
        let h = gpu.register_host_ghost(Dtype::F64, 1 << 20, true);
        let d = gpu.alloc_device(Dtype::F64, 1 << 20).expect("alloc");
        gpu.memcpy_h2d_async(s, CopyDesc::contiguous(h, d, 1 << 20))
            .expect("h2d");
        gpu.launch_kernel(
            s,
            KernelShape::Gemm {
                dtype: Dtype::F64,
                m: 512,
                n: 512,
                k: 512,
            },
            None,
        )
        .expect("launch");
        let end = gpu.synchronize().expect("sync");
        assert_eq!(gpu.trace().len(), 2);
        let mid = SimTime::from_nanos(gpu.trace().entries()[0].end.as_nanos());
        assert!(mid < end);
        gpu.cancel_to(mid);
        // The kernel (started at the copy's end) is erased; the copy stays.
        assert_eq!(gpu.now(), mid);
        assert_eq!(gpu.trace().len(), 1);
        assert!(gpu.trace().entries()[0].end <= mid);
        // The device is idle and usable: frees and new work succeed.
        gpu.free_device(d).expect("free after cancel");
        gpu.take_host(h).expect("take host after cancel");
        assert_eq!(gpu.device_mem_used(), 0);
    }

    /// A device that ran one h2d copy then one dgemm on a single stream.
    fn copy_then_kernel() -> Gpu {
        let mut gpu = Gpu::new(quiet(testbed_i()), ExecMode::TimingOnly, 1);
        let s = gpu.create_stream();
        let h = gpu.register_host_ghost(Dtype::F64, 1 << 20, true);
        let d = gpu.alloc_device(Dtype::F64, 1 << 20).expect("alloc");
        gpu.memcpy_h2d_async(s, CopyDesc::contiguous(h, d, 1 << 20))
            .expect("h2d");
        gpu.launch_kernel(
            s,
            KernelShape::Gemm {
                dtype: Dtype::F64,
                m: 512,
                n: 512,
                k: 512,
            },
            None,
        )
        .expect("launch");
        gpu.synchronize().expect("sync");
        gpu
    }

    #[test]
    fn cancel_to_at_or_after_the_retired_end_works() {
        let mut gpu = copy_then_kernel();
        let copy_end = gpu.trace().entries()[0].end;
        let h2d_busy = gpu.trace().engine_busy(EngineKind::CopyH2d);
        let retired = gpu.retire_trace(1);
        assert_eq!(retired.len(), 1);
        assert_eq!(retired[0].engine, EngineKind::CopyH2d);
        gpu.cancel_to(copy_end);
        assert_eq!(gpu.now(), copy_end);
        assert_eq!(
            gpu.trace().len(),
            1,
            "the kernel is erased, the copy counted"
        );
        assert!(gpu.trace().entries().is_empty());
        assert_eq!(gpu.trace().engine_busy(EngineKind::CopyH2d), h2d_busy);
        assert_eq!(gpu.trace().engine_busy(EngineKind::Compute), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "reaches retired trace entries")]
    fn cancel_to_into_retired_entries_panics() {
        let mut gpu = copy_then_kernel();
        let mid = gpu.trace().entries()[0].end;
        let len = gpu.trace().len();
        gpu.retire_trace(len);
        gpu.cancel_to(mid);
    }

    #[test]
    fn clear_trace_resets_retired_totals() {
        let mut gpu = copy_then_kernel();
        let len = gpu.trace().len();
        gpu.retire_trace(len);
        gpu.clear_trace();
        assert!(gpu.trace().is_empty());
        assert_eq!(gpu.trace().bytes_moved(EngineKind::CopyH2d), 0);
        assert_eq!(gpu.trace().engine_busy(EngineKind::Compute), SimTime::ZERO);
        // Nothing is retired any more, so a rewind to the start is legal.
        gpu.cancel_to(SimTime::ZERO);
    }

    #[test]
    fn trace_records_overlap() {
        let mut gpu = Gpu::new(quiet(testbed_ii()), ExecMode::TimingOnly, 1);
        let s_copy = gpu.create_stream();
        let s_exec = gpu.create_stream();
        let h = gpu.register_host_ghost(Dtype::F64, 1 << 22, true);
        let d = gpu.alloc_device(Dtype::F64, 1 << 22).expect("alloc");
        gpu.memcpy_h2d_async(s_copy, CopyDesc::contiguous(h, d, 1 << 22))
            .expect("h2d");
        gpu.launch_kernel(
            s_exec,
            KernelShape::Gemm {
                dtype: Dtype::F64,
                m: 2048,
                n: 2048,
                k: 2048,
            },
            None,
        )
        .expect("launch");
        gpu.synchronize().expect("sync");
        let t = gpu.trace();
        assert_eq!(t.entries().len(), 2);
        // Both started at t=0 on separate engines — they overlap.
        assert_eq!(t.entries()[0].start, t.entries()[1].start);
    }

    fn tag(routine: Routine, tile: (usize, usize)) -> OpTag {
        OpTag {
            get: true,
            ..OpTag::new(routine, 1, tile)
        }
    }

    #[test]
    fn pending_tables_empty_after_sync_and_after_loss() {
        let mut gpu = Gpu::new(quiet(testbed_i()), ExecMode::Functional, 1);
        let s = gpu.create_stream();
        let h = gpu.register_host(vec![1.0f64; 8], true);
        let d = gpu.alloc_device(Dtype::F64, 8).expect("alloc");
        gpu.set_op_tag(tag(Routine::Gemm, (0, 0)));
        gpu.memcpy_h2d_async(s, CopyDesc::contiguous(h, d, 8))
            .expect("h2d");
        gpu.record_event(s).expect("record");
        gpu.clear_op_tag();
        assert_eq!(gpu.sim.table_lens(), [1, 1, 0, 1]);
        assert_eq!(gpu.effects.len(), 1);
        gpu.synchronize().expect("sync");
        assert_eq!(gpu.sim.table_lens(), [0, 0, 0, 0]);
        assert!(gpu.effects.is_empty());

        let spec = FaultSpec {
            seed: 5,
            kernel: 1.0,
            lost_after: Some(1),
            ..FaultSpec::none()
        };
        let mut gpu = Gpu::with_faults(quiet(testbed_i()), ExecMode::Functional, 1, spec);
        let s = gpu.create_stream();
        let h = gpu.register_host(vec![1.0f64; 8], true);
        let d = gpu.alloc_device(Dtype::F64, 8).expect("alloc");
        gpu.memcpy_h2d_async(s, CopyDesc::contiguous(h, d, 8))
            .expect("h2d");
        let y = gpu.alloc_device(Dtype::F64, 8).expect("alloc");
        let args = KernelArgs::Axpy {
            alpha: 1.0,
            x: DevVecRef { buf: d, offset: 0 },
            y: DevVecRef { buf: y, offset: 0 },
        };
        let axpy = KernelShape::Axpy {
            dtype: Dtype::F64,
            n: 8,
        };
        gpu.launch_kernel(s, axpy, Some(args)).expect_err("lost");
        assert!(gpu.is_lost());
        assert_eq!(gpu.sim.table_lens(), [0, 0, 0, 0]);
        assert!(gpu.effects.is_empty());
    }

    #[test]
    fn trace_op_ids_stay_global_across_syncs() {
        let mut gpu = Gpu::new(quiet(testbed_i()), ExecMode::TimingOnly, 1);
        let s = gpu.create_stream();
        let h = gpu.register_host_ghost(Dtype::F64, 64, true);
        let d = gpu.alloc_device(Dtype::F64, 64).expect("alloc");
        let axpy = KernelShape::Axpy {
            dtype: Dtype::F64,
            n: 64,
        };
        let mut expected = Vec::new();
        let mut enqueued = 0;
        for _ in 0..3 {
            // h2d, event record, kernel: the record takes an op id but
            // leaves no trace entry.
            gpu.memcpy_h2d_async(s, CopyDesc::contiguous(h, d, 64))
                .expect("h2d");
            gpu.record_event(s).expect("record");
            gpu.launch_kernel(s, axpy, None).expect("launch");
            expected.extend([enqueued, enqueued + 2]);
            enqueued += 3;
            gpu.synchronize().expect("sync");
        }
        let ops: Vec<usize> = gpu.trace().entries().iter().map(|e| e.op).collect();
        assert_eq!(ops, expected);
    }

    #[test]
    fn wait_on_event_recorded_before_earlier_sync_resolves() {
        let mut gpu = Gpu::new(quiet(testbed_i()), ExecMode::TimingOnly, 1);
        let s1 = gpu.create_stream();
        let s2 = gpu.create_stream();
        let h = gpu.register_host_ghost(Dtype::F64, 64, true);
        let d = gpu.alloc_device(Dtype::F64, 64).expect("alloc");
        gpu.memcpy_h2d_async(s1, CopyDesc::contiguous(h, d, 64))
            .expect("h2d");
        let ev = gpu.record_event(s1).expect("record");
        let first = gpu.synchronize().expect("sync");
        gpu.wait_event(s2, ev).expect("wait on a retired event");
        gpu.memcpy_d2h_async(s2, CopyDesc::contiguous(h, d, 64))
            .expect("d2h");
        gpu.synchronize().expect("the wait resolves");
        let d2h = &gpu.trace().entries()[1];
        assert_eq!(d2h.engine, crate::trace::EngineKind::CopyD2h);
        assert_eq!(d2h.start, first, "the wait costs no time");
    }

    #[test]
    fn functional_gemm_split_across_syncs_matches_reference() {
        let mut gpu = Gpu::new(quiet(testbed_ii()), ExecMode::Functional, 1);
        let s = gpu.create_stream();
        let (m, n, k) = (6, 5, 4);
        let a = Matrix::<f64>::from_fn(m, k, |i, j| (i * 3 + j) as f64 * 0.5);
        let b = Matrix::<f64>::from_fn(k, n, |i, j| (i as f64) - (j as f64));
        let c0 = Matrix::<f64>::from_fn(m, n, |i, j| (i + j) as f64);
        let mut c_ref = c0.clone();
        level3::gemm(2.0, &a.view(), &b.view(), 1.0, &mut c_ref.view_mut());

        let ha = gpu.register_host(a.into_vec(), true);
        let hb = gpu.register_host(b.into_vec(), true);
        let hc = gpu.register_host(c0.into_vec(), true);
        let da = gpu.alloc_device(Dtype::F64, m * k).expect("alloc");
        let db = gpu.alloc_device(Dtype::F64, k * n).expect("alloc");
        let dc = gpu.alloc_device(Dtype::F64, m * n).expect("alloc");
        // First batch: the uploads.
        for (h, dv, len) in [(ha, da, m * k), (hb, db, k * n), (hc, dc, m * n)] {
            gpu.memcpy_h2d_async(s, CopyDesc::contiguous(h, dv, len))
                .expect("h2d");
        }
        gpu.synchronize().expect("sync uploads");
        // Second batch: the kernel and the write-back.
        let mat = |buf, ld| DevMatRef { buf, offset: 0, ld };
        gpu.launch_kernel(
            s,
            KernelShape::Gemm {
                dtype: Dtype::F64,
                m,
                n,
                k,
            },
            Some(KernelArgs::Gemm {
                alpha: 2.0,
                beta: 1.0,
                a: mat(da, m),
                b: mat(db, k),
                c: mat(dc, m),
            }),
        )
        .expect("launch");
        gpu.memcpy_d2h_async(s, CopyDesc::contiguous(hc, dc, m * n))
            .expect("d2h");
        gpu.synchronize().expect("sync kernel");
        let got = gpu.host_payload(hc).expect("buf").as_f64();
        for (x, y) in got.iter().zip(c_ref.as_slice()) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
    }

    #[test]
    fn interned_tags_land_on_the_right_entries() {
        let mut gpu = Gpu::new(quiet(testbed_i()), ExecMode::TimingOnly, 1);
        let s = gpu.create_stream();
        let h = gpu.register_host_ghost(Dtype::F64, 64, true);
        let d = gpu.alloc_device(Dtype::F64, 64).expect("alloc");
        let (a, b) = (tag(Routine::Gemm, (0, 0)), tag(Routine::Gemm, (0, 1)));
        let copy = |gpu: &mut Gpu| {
            gpu.memcpy_h2d_async(s, CopyDesc::contiguous(h, d, 64))
                .expect("h2d")
        };
        gpu.set_op_tag(a);
        copy(&mut gpu);
        gpu.set_op_tag(a); // unchanged: not interned again
        copy(&mut gpu);
        gpu.set_op_tag(b);
        copy(&mut gpu);
        gpu.set_op_tag(a);
        copy(&mut gpu);
        gpu.clear_op_tag();
        copy(&mut gpu);
        assert_eq!(
            gpu.sim.table_lens()[3],
            3,
            "A, B, A interned once per change"
        );
        gpu.set_op_tag(b);
        gpu.synchronize().expect("sync");
        // The ambient tag survives the retirement of its table.
        assert_eq!(gpu.op_tag(), Some(b));
        copy(&mut gpu);
        gpu.synchronize().expect("sync");
        let tags: Vec<Option<OpTag>> = gpu.trace().entries().iter().map(|e| e.tag).collect();
        assert_eq!(
            tags,
            vec![Some(a), Some(a), Some(b), Some(a), None, Some(b)]
        );
    }
}
