//! The simulated device: memory, kernel execution, and virtual time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::alloc::{Allocator, ALIGN};
use crate::checksum;
use crate::error::{SimError, TransferDir};
use crate::event::Event;
use crate::fault::{FaultPlan, FaultState, FaultStats, LaunchEffects, TransferOutcome};
use crate::host::Host;
use crate::kernel::{Dim3, KernelCorrupt, LaunchConfig, SharedTile, ThreadCtx, WorkerState};
use crate::memory::{Allocation, DeviceBuffer, DeviceScalar};
use crate::meter::{Cost, LaunchRecord, Meters};
use crate::props::{DeviceProps, ExecMode};
use crate::stream::{StreamId, Timelines};
use crate::trace::{OpRecord, TraceBuf};
use crate::Result;

static NEXT_DEVICE_ID: AtomicU64 = AtomicU64::new(1);

/// Virtual-time interval of one device operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeSpan {
    /// When the operation started on its stream.
    pub start_s: f64,
    /// When it finished.
    pub end_s: f64,
}

/// One part of a [`Device::transfer`]: a device buffer and the host slice
/// at the other end of the copy.
#[derive(Debug)]
pub enum Part<'a, T: DeviceScalar> {
    /// Host → device: upload the slice into the buffer.
    Up(&'a DeviceBuffer<T>, &'a [T]),
    /// Device → host: download the buffer into the slice.
    Down(&'a DeviceBuffer<T>, &'a mut [T]),
}

impl<T: DeviceScalar> Part<'_, T> {
    fn dir(&self) -> TransferDir {
        match self {
            Part::Up(..) => TransferDir::HostToDevice,
            Part::Down(..) => TransferDir::DeviceToHost,
        }
    }

    fn buf(&self) -> &DeviceBuffer<T> {
        match self {
            Part::Up(buf, _) | Part::Down(buf, _) => buf,
        }
    }

    fn host(&self) -> &[T] {
        match self {
            Part::Up(_, src) => src,
            Part::Down(_, dst) => dst,
        }
    }

    /// Move the payload to its destination.
    fn copy(&mut self) {
        match self {
            Part::Up(buf, src) => src.iter().enumerate().for_each(|(i, &v)| buf.store(i, v)),
            Part::Down(buf, dst) => dst
                .iter_mut()
                .enumerate()
                .for_each(|(i, v)| *v = buf.load(i)),
        }
    }

    /// A failed DMA may have written any prefix of the destination: poison
    /// a device buffer so a retry must fully rewrite it, scribble garbage
    /// into a host slice so the caller cannot use it.
    fn spoil(&mut self) {
        match self {
            Part::Up(buf, _) => buf.poison(),
            Part::Down(_, dst) => dst.fill(T::from_word(0xDEAD_BEEF_DEAD_BEEF)),
        }
    }

    /// XOR the top bit of byte `off` of the landed payload: in device
    /// memory for an upload, in the received host copy for a download.
    /// Returns the flipped element's index.
    fn flip(&mut self, off: u64) -> usize {
        let elem = (off / T::SIZE) as usize;
        let mask = 0x80u64 << (8 * (off % T::SIZE));
        match self {
            Part::Up(buf, _) => {
                buf.word(elem).fetch_xor(mask, Ordering::Relaxed);
            }
            Part::Down(_, dst) => dst[elem] = T::from_word(dst[elem].to_word() ^ mask),
        }
        elem
    }
}

/// CRC64 over the concatenated payload of `parts`, as the host slices hold
/// it (`on_host`) or as device memory holds it.
fn payload_crc<T: DeviceScalar>(parts: &[Part<'_, T>], on_host: bool) -> u64 {
    checksum::crc64(parts.iter().flat_map(|p| {
        (0..p.buf().len()).map(move |i| {
            if on_host {
                p.host()[i].to_word()
            } else {
                p.buf().word(i).load(Ordering::Relaxed)
            }
        })
    }))
}

/// Apply an ordered silent flip at byte `off` of the concatenated payload:
/// walk the parts to the owning one. Returns `(part, element)`.
fn flip_payload<T: DeviceScalar>(parts: &mut [Part<'_, T>], mut off: u64) -> (usize, usize) {
    for (i, part) in parts.iter_mut().enumerate() {
        let bytes = part.buf().modeled_bytes();
        if off < bytes {
            return (i, part.flip(off));
        }
        off -= bytes;
    }
    unreachable!("flip offset is wrapped to the payload length")
}

/// Mutable bookkeeping behind one lock.
#[derive(Debug)]
struct DeviceState {
    timelines: Timelines,
    meters: Meters,
    records: Vec<LaunchRecord>,
    trace: TraceBuf,
    exec_mode: ExecMode,
}

/// A software CUDA-like device.
///
/// All methods take `&self`; internal state is lock-protected, and kernel
/// execution itself runs outside the locks so simulated threads can be
/// spread over host threads.
#[derive(Debug)]
pub struct Device {
    id: u64,
    props: DeviceProps,
    allocator: Arc<Mutex<Allocator>>,
    state: Mutex<DeviceState>,
    /// Scripted fault schedule, if any (see [`crate::fault`]).
    fault: Mutex<Option<FaultState>>,
    /// The host machine this device is plugged into. Transfers contend for
    /// its shared PCIe bus; host-side FLOPs charge its CPU resource.
    host: Arc<Host>,
    /// Engine-local actor tag on that host (dense attach order).
    slot: u64,
}

impl Device {
    /// Create a device with the given properties on a **private** host (it
    /// alone owns the PCIe bus — single-device schedules are unchanged).
    /// Execution defaults to [`ExecMode::Sequential`] (bit-deterministic);
    /// switch with [`set_exec_mode`](Self::set_exec_mode).
    pub fn new(props: DeviceProps) -> Device {
        Device::new_on_host(props, &Host::new_default())
    }

    /// Create a device attached to a shared [`Host`]: its transfers
    /// contend for that host's PCIe bus with every other attached device.
    /// This is how a multi-GPU node is modeled honestly — `N` devices on
    /// one host do *not* get `N×` the host bandwidth.
    pub fn new_on_host(props: DeviceProps, host: &Arc<Host>) -> Device {
        let slot = host.attach();
        Device {
            id: NEXT_DEVICE_ID.fetch_add(1, Ordering::Relaxed),
            allocator: Arc::new(Mutex::new(Allocator::new(props.total_mem))),
            state: Mutex::new(DeviceState {
                timelines: Timelines::new(Arc::clone(host.engine()), slot),
                meters: Meters::default(),
                records: Vec::new(),
                trace: TraceBuf::default(),
                exec_mode: ExecMode::Sequential,
            }),
            fault: Mutex::new(None),
            host: Arc::clone(host),
            slot,
            props,
        }
    }

    /// The device's performance model.
    pub fn props(&self) -> &DeviceProps {
        &self.props
    }

    /// The host this device is attached to.
    pub fn host(&self) -> &Arc<Host> {
        &self.host
    }

    /// Process-unique device identifier. Buffers remember the id of the
    /// device that allocated them; callers keying per-device state (e.g.
    /// device-resident caches) should use this rather than pointer identity.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Choose how simulated threads run on the host.
    pub fn set_exec_mode(&self, mode: ExecMode) {
        if let ExecMode::Threaded(n) = mode {
            assert!(n > 0, "threaded execution needs at least one worker");
        }
        self.state.lock().exec_mode = mode;
    }

    /// How simulated threads currently run. Verification layers use this to
    /// pick a comparison tolerance: sequential execution is bit-reproducible
    /// against a host re-computation, threaded execution only agrees within
    /// floating-point reassociation tolerance.
    pub fn exec_mode(&self) -> ExecMode {
        self.state.lock().exec_mode
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Install a scripted fault schedule. Subsequent allocations, copies
    /// and launches consult the plan; a `report_mem` knob additionally caps
    /// the memory this device reports and grants.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.allocator.lock().set_limit(plan.report_mem);
        *self.fault.lock() = Some(FaultState::new(plan));
    }

    /// Remove any fault schedule and restore the real memory capacity.
    pub fn clear_fault_plan(&self) {
        self.allocator.lock().set_limit(None);
        *self.fault.lock() = None;
    }

    /// What the installed plan has injected so far (`None` without a plan).
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.fault.lock().as_ref().map(|f| f.stats)
    }

    /// Has a fault plan permanently lost this device? A lost device refuses
    /// every operation with [`SimError::DeviceLost`] until the plan is
    /// cleared; fleet schedulers use this to skip dead devices without
    /// paying for another refused operation.
    pub fn is_lost(&self) -> bool {
        self.fault.lock().as_ref().is_some_and(|f| f.is_lost())
    }

    /// Consult the fault plan before an allocation of `bytes` (pre-align).
    /// An injected allocation fault is surfaced as an ordinary
    /// [`SimError::OutOfMemory`] carrying the real allocator statistics, so
    /// callers re-plan identically for scripted and genuine exhaustion.
    fn fault_check_alloc(&self, bytes: u64) -> Result<()> {
        let outcome = match self.fault.lock().as_mut() {
            Some(f) => f.on_alloc(),
            None => Ok(()),
        };
        outcome.map_err(|e| match e {
            SimError::InvalidRequest(_) => {
                let a = self.allocator.lock();
                SimError::OutOfMemory {
                    requested: bytes.div_ceil(ALIGN) * ALIGN,
                    largest_free: a.largest_free(),
                    free_total: a.free_total(),
                    capacity: a.capacity(),
                }
            }
            other => other,
        })
    }

    /// Consult the fault plan before a transfer. A transient fault still
    /// charges the bus time (the wire was busy while the copy failed) and
    /// leaves a `"fault"` op in the trace. A clean consult may still order
    /// a **silent** payload corruption ([`TransferOutcome::Corrupt`]):
    /// [`transfer`](Self::transfer) applies it after the payload lands,
    /// leaves a `"flip"` op in the trace, and reports success — exactly
    /// like real hardware.
    fn fault_check_transfer(
        &self,
        dir: TransferDir,
        stream: StreamId,
        bytes: u64,
    ) -> Result<TransferOutcome> {
        let outcome = match self.fault.lock().as_mut() {
            Some(f) => f.on_transfer(dir),
            None => Ok(TransferOutcome::Clean),
        };
        match outcome {
            Err(e) => {
                if e.is_transient() {
                    let dur = self.props.transfer_time(bytes);
                    let mut st = self.state.lock();
                    let (start_s, end_s) = self.bus_transfer(&mut st, stream, "fault", dur);
                    st.meters.comm_time_s += dur;
                    st.trace
                        .push_with("fault", stream.index(), start_s, end_s, || {
                            format!("{} fault {bytes} B", dir.to_string().to_uppercase())
                        });
                }
                Err(e)
            }
            Ok(o) => Ok(o),
        }
    }

    /// Put a transfer of modeled duration `dur` through the host's shared
    /// PCIe bus. The stream is ready at its cursor; the bus grants time
    /// from that instant onwards (exactly `[cursor, cursor + dur)` when
    /// uncontended), and the stream then waits for the transfer's end.
    /// Any extra time beyond `dur` is bus contention, metered as
    /// `bus_wait_s`.
    fn bus_transfer(
        &self,
        st: &mut DeviceState,
        stream: StreamId,
        label: &'static str,
        dur: f64,
    ) -> (f64, f64) {
        let ready = st.timelines.cursor(stream);
        let (start_s, end_s) = self.host.bus_acquire(self.slot, label, ready, dur);
        st.timelines.wait_until(stream, end_s);
        // Extra stall beyond the uncontended duration. A contended grant may
        // split across bus gaps (first burst on time, last byte late), so the
        // stall is measured at the drain end, not the start. The uncontended
        // fast path computes `end = ready + dur` with this same expression,
        // making the subtraction bitwise zero there.
        st.meters.bus_wait_s += (end_s - (ready + dur)).max(0.0);
        (start_s, end_s)
    }

    /// Consult the fault plan before a kernel launch. A permitted launch
    /// may carry silent effects (an armed deposit flip, an injected stall)
    /// that [`launch`](Self::launch) applies while executing it.
    fn fault_check_launch(&self) -> Result<LaunchEffects> {
        match self.fault.lock().as_mut() {
            Some(f) => f.on_launch(),
            None => Ok(LaunchEffects::CLEAN),
        }
    }

    // ------------------------------------------------------------------
    // Memory management
    // ------------------------------------------------------------------

    /// Allocate an uninitialised (zero-filled) buffer of `len` elements.
    pub fn alloc<T: DeviceScalar>(&self, len: usize) -> Result<DeviceBuffer<T>> {
        if len == 0 {
            return Err(SimError::InvalidRequest("zero-length buffer".into()));
        }
        let bytes = len as u64 * T::SIZE;
        self.fault_check_alloc(bytes)?;
        let addr = self.allocator.lock().alloc(bytes)?;
        let allocation = Allocation {
            addr,
            allocator: Arc::clone(&self.allocator),
        };
        Ok(DeviceBuffer::new(len, allocation, self.id))
    }

    /// Allocate a zero-filled buffer (alias of [`alloc`](Self::alloc); the
    /// simulator zero-fills all fresh memory).
    pub fn alloc_zeroed<T: DeviceScalar>(&self, len: usize) -> Result<DeviceBuffer<T>> {
        self.alloc(len)
    }

    /// Allocate and upload in one step (charges the H2D transfer).
    pub fn alloc_from_slice<T: DeviceScalar>(&self, data: &[T]) -> Result<DeviceBuffer<T>> {
        let buf = self.alloc::<T>(data.len())?;
        self.transfer(
            StreamId::DEFAULT,
            TransferDir::HostToDevice,
            &mut [Part::Up(&buf, data)],
            false,
        )?;
        Ok(buf)
    }

    /// Bytes currently allocated on the device.
    pub fn mem_used(&self) -> u64 {
        self.allocator.lock().used()
    }

    /// High-water mark of device memory use.
    pub fn mem_peak(&self) -> u64 {
        self.allocator.lock().peak_used()
    }

    /// Modeled capacity.
    pub fn mem_capacity(&self) -> u64 {
        self.allocator.lock().capacity()
    }

    // ------------------------------------------------------------------
    // Transfers
    // ------------------------------------------------------------------

    /// Host FLOPs one CRC64 pass charges per payload byte (a table-driven
    /// software CRC: one XOR plus one table fold per byte, amortized).
    pub const CRC64_FLOPS_PER_BYTE: u64 = 4;

    /// Copy `parts` across the bus in direction `dir` on `stream`, as
    /// **one** transaction (the pinned-staging / `cudaMemcpy2D` analogue):
    /// it pays the PCIe latency once and the bandwidth term on the summed
    /// payload, `pcie_latency + Σ bytes / bw`. Every part must point the
    /// same way as `dir` ([`Part::Up`] for host → device, [`Part::Down`]
    /// for device → host).
    ///
    /// Validation (an empty list, a part pointing the other way, a foreign
    /// buffer, a length mismatch) happens before any data moves. A
    /// transient fault burns the full bus time, counts as one failed
    /// transfer in `dir`, and spoils every destination — an H2D poisons
    /// every device buffer, a D2H scribbles every host slice — since a
    /// partial DMA may have touched any of them; the caller retries the
    /// whole transaction. A silent flip addresses the concatenated payload:
    /// an H2D flip lands in device memory, a D2H flip only in the received
    /// host copy (device memory keeps the truth).
    ///
    /// With `checked`, a CRC64 over the payload before the wire is compared
    /// against a CRC64 over what landed (modeling a device-side checksum
    /// pass; both passes are charged as host FLOPs on the overlapped
    /// host-CPU resource — no extra bus traffic). A mismatch reports
    /// [`SimError::CorruptTransfer`], which is retryable exactly like a
    /// transient fault; the destinations hold the corrupted payload then
    /// and must not be used.
    pub fn transfer<T: DeviceScalar>(
        &self,
        stream: StreamId,
        dir: TransferDir,
        parts: &mut [Part<'_, T>],
        checked: bool,
    ) -> Result<TimeSpan> {
        if parts.is_empty() {
            return Err(SimError::InvalidRequest("empty transfer".into()));
        }
        let mut bytes = 0u64;
        for part in parts.iter() {
            if part.dir() != dir {
                return Err(SimError::InvalidRequest(format!(
                    "{} part in a {dir} transfer",
                    part.dir()
                )));
            }
            let (buf, host_len) = (part.buf(), part.host().len());
            if buf.device_id != self.id {
                return Err(SimError::ForeignBuffer);
            }
            if host_len != buf.len() {
                return Err(SimError::CopyLengthMismatch {
                    device_len: buf.len(),
                    host_len,
                });
            }
            bytes += buf.modeled_bytes();
        }
        let to_device = dir == TransferDir::HostToDevice;
        let sent_crc = checked.then(|| payload_crc(parts, to_device));
        let outcome = match self.fault_check_transfer(dir, stream, bytes) {
            Ok(o) => o,
            Err(e) => {
                if e.is_transient() {
                    parts.iter_mut().for_each(Part::spoil);
                }
                return Err(e);
            }
        };
        parts.iter_mut().for_each(Part::copy);
        let flipped = match outcome {
            TransferOutcome::Clean => None,
            TransferOutcome::Corrupt { byte } => Some(flip_payload(parts, byte % bytes)),
        };
        let dur = self.props.transfer_time(bytes);
        let kind = if to_device { "h2d" } else { "d2h" };
        let mut st = self.state.lock();
        let (start_s, end_s) = self.bus_transfer(&mut st, stream, kind, dur);
        st.meters.comm_time_s += dur;
        if to_device {
            st.meters.h2d_bytes += bytes;
        } else {
            st.meters.d2h_bytes += bytes;
        }
        st.meters.transfers += 1;
        let index = st.meters.transfers;
        let n = parts.len();
        st.trace
            .push_with(kind, stream.index(), start_s, end_s, || {
                format!("{} {bytes} B in {n} part(s)", kind.to_uppercase())
            });
        if let Some((part, elem)) = flipped {
            st.trace
                .push_with("flip", stream.index(), end_s, end_s, || {
                    format!(
                        "{} silent flip @ part {part} element {elem}",
                        kind.to_uppercase()
                    )
                });
        }
        drop(st);
        if let Some(expect) = sent_crc {
            let landed = payload_crc(parts, !to_device);
            self.charge_host_flops(2 * bytes * Self::CRC64_FLOPS_PER_BYTE);
            if landed != expect {
                return Err(SimError::CorruptTransfer { dir, index });
            }
        }
        Ok(TimeSpan { start_s, end_s })
    }

    // ------------------------------------------------------------------
    // Kernel launches
    // ------------------------------------------------------------------

    /// Launch a kernel on `stream`. The closure runs once per simulated
    /// thread with the block's `__shared__` tile (see [`ThreadCtx`] for the
    /// device-side API); a kernel launched without a [`SharedTile`] gets an
    /// empty tile and ignores it.
    ///
    /// With a tile, every block gets its own zero-initialised tile of
    /// `tile.doubles` doubles, and `tile.epilogue` runs **once per block**
    /// (with a context at thread (0,0,0)) after all the block's threads
    /// finish — the simulator's `__syncthreads()`-then-reduce idiom. Blocks
    /// never share a tile, so the pattern is deterministic even under
    /// [`ExecMode::Threaded`]. The reservation is charged to the launch as
    /// occupancy pressure ([`Cost::shared_request`]); a request exceeding
    /// the device's `shared_mem_per_block` is an
    /// [`SimError::InvalidLaunch`], exactly like an oversized block.
    pub fn launch<F>(
        &self,
        stream: StreamId,
        name: &str,
        cfg: LaunchConfig,
        tile: Option<SharedTile<'_>>,
        kernel: F,
    ) -> Result<LaunchRecord>
    where
        F: Fn(&mut ThreadCtx<'_>, &mut [f64]) + Sync,
    {
        cfg.validate(&self.props)?;
        let shared_bytes = tile.map_or(0, |t| t.doubles) as u64 * 8;
        if shared_bytes > self.props.shared_mem_per_block {
            return Err(SimError::InvalidLaunch(format!(
                "{shared_bytes} B of shared memory per block exceeds limit {}",
                self.props.shared_mem_per_block
            )));
        }
        let effects = self.fault_check_launch()?;
        let corrupt = effects.flip_op.map(KernelCorrupt::new);
        let exec_mode = self.state.lock().exec_mode;
        let (mut cost, traces) = match exec_mode {
            ExecMode::Sequential => {
                let mut state = WorkerState::new();
                state.corrupt = corrupt.clone();
                run_block_range(cfg, 0..cfg.grid.count(), tile, &kernel, &mut state);
                let mut cost = state.cost;
                cost.atomic_max_chain = state.chain.max_chain();
                (cost, state.traces)
            }
            ExecMode::Threaded(workers) => {
                let next = AtomicU64::new(0);
                let total = cfg.grid.count();
                // Adaptive claim grain: ~8 claims per worker amortizes the
                // counter on huge grids without serializing small ones on a
                // single worker (a fixed batch of 8 did exactly that).
                let grain = (total / (workers as u64 * 8)).max(1);
                let states = Mutex::new(Vec::new());
                std::thread::scope(|scope| {
                    for _ in 0..workers.min(total as usize).max(1) {
                        scope.spawn(|| {
                            let mut state = WorkerState::new();
                            state.corrupt = corrupt.clone();
                            loop {
                                let start = next.fetch_add(grain, Ordering::Relaxed);
                                if start >= total {
                                    break;
                                }
                                let end = (start + grain).min(total);
                                run_block_range(cfg, start..end, tile, &kernel, &mut state);
                            }
                            states.lock().push(state);
                        });
                    }
                });
                merge_states(states.into_inner())
            }
        };
        cost.shared_request = shared_bytes;
        // Only flips that actually landed on a deposit count — an armed
        // launch with fewer deposits than the target ordinal fires nothing.
        let flip_landed = corrupt
            .as_ref()
            .is_some_and(|c| c.fired.load(Ordering::Relaxed));
        if flip_landed {
            if let Some(f) = self.fault.lock().as_mut() {
                f.record_kernel_flip();
            }
        }
        // A stuck kernel occupies the stream for the extra stall with no
        // error; `cost` stays honest, so a watchdog can detect the hang by
        // comparing `duration_s` against the cost model's prediction.
        let duration = self.props.kernel_time(&cost) + effects.stall_s;
        let record = LaunchRecord {
            name: name.to_string(),
            threads: cfg.total_threads(),
            cost,
            duration_s: duration,
            stream: stream.index(),
            start_s: 0.0,
            end_s: 0.0,
            traces,
        };
        let mut st = self.state.lock();
        let (start_s, end_s) = st.timelines.schedule_labeled(stream, duration, "kernel");
        let record = LaunchRecord {
            start_s,
            end_s,
            ..record
        };
        st.meters.compute_time_s += duration;
        st.meters.launches += 1;
        st.meters.kernel_cost.merge(&cost);
        st.trace
            .push_with("kernel", stream.index(), start_s, end_s, || {
                record.name.clone()
            });
        if flip_landed {
            st.trace
                .push_with("flip", stream.index(), end_s, end_s, || {
                    format!("kernel silent flip in {}", record.name)
                });
        }
        if effects.stall_s > 0.0 {
            st.trace
                .push_with("stall", stream.index(), start_s, end_s, || {
                    format!("kernel stall +{:.3e} s in {}", effects.stall_s, record.name)
                });
        }
        st.records.push(record.clone());
        Ok(record)
    }

    // ------------------------------------------------------------------
    // Streams & time
    // ------------------------------------------------------------------

    /// Create an additional stream.
    pub fn create_stream(&self) -> StreamId {
        self.state.lock().timelines.create_stream()
    }

    /// Number of live streams (the default stream plus created ones).
    /// [`reset_meters`](Self::reset_meters) destroys created streams, so a
    /// device reused across runs stays at a constant count instead of
    /// growing by the per-run stream set every invocation.
    pub fn stream_count(&self) -> usize {
        self.state.lock().timelines.count()
    }

    /// Make `stream` wait for all work currently enqueued on `other`.
    pub fn stream_wait(&self, stream: StreamId, other: StreamId) {
        let mut st = self.state.lock();
        let t = st.timelines.schedule(other, 0.0).0;
        st.timelines.wait_until(stream, t);
    }

    /// Make `stream` wait until virtual time `t` — the event-wait primitive
    /// double-buffered pipelines use (`t` usually comes from a prior op's
    /// [`TimeSpan::end_s`] or [`LaunchRecord::end_s`]).
    pub fn wait_until(&self, stream: StreamId, t: f64) {
        self.state.lock().timelines.wait_until(stream, t);
    }

    /// Enqueue idle time on `stream` — the virtual-time analogue of a
    /// host-side sleep, used as retry backoff after a transient fault. The
    /// interval shows up in the trace but charges no meter.
    pub fn delay(&self, stream: StreamId, seconds: f64) -> TimeSpan {
        let mut st = self.state.lock();
        let (start_s, end_s) = st
            .timelines
            .schedule_labeled(stream, seconds.max(0.0), "idle");
        st.trace
            .push_with("idle", stream.index(), start_s, end_s, || {
                format!("backoff {seconds:.3e} s")
            });
        TimeSpan { start_s, end_s }
    }

    /// Device-wide barrier; returns the virtual time at the barrier.
    pub fn synchronize(&self) -> f64 {
        self.state.lock().timelines.synchronize()
    }

    /// Overlapped makespan so far.
    pub fn elapsed_s(&self) -> f64 {
        self.state.lock().timelines.elapsed()
    }

    /// Snapshot of the accumulated meters.
    pub fn meters(&self) -> Meters {
        self.state.lock().meters
    }

    /// Copy of the per-launch records.
    pub fn records(&self) -> Vec<LaunchRecord> {
        self.state.lock().records.clone()
    }

    /// Record an event capturing all work enqueued on `stream` so far.
    pub fn record_event(&self, stream: StreamId) -> Event {
        let mut st = self.state.lock();
        let (time_s, _) = st.timelines.schedule(stream, 0.0);
        Event { time_s }
    }

    /// Make `stream` wait for a recorded event (`cudaStreamWaitEvent`).
    pub fn stream_wait_event(&self, stream: StreamId, event: &Event) {
        self.state.lock().timelines.wait_until(stream, event.time_s);
    }

    /// Export the virtual timeline in Chrome Trace Event Format (view in
    /// `chrome://tracing` or Perfetto).
    pub fn export_chrome_trace(&self) -> String {
        crate::trace::chrome_trace(&[(self.props.name.clone(), self.ops())])
    }

    /// Copy of the raw operation log behind the trace export (the newest
    /// [`crate::DEFAULT_TRACE_CAP`] records).
    pub fn ops(&self) -> Vec<OpRecord> {
        self.state.lock().trace.ops()
    }

    /// Op records that fell off the bounded trace ring.
    pub fn trace_dropped(&self) -> u64 {
        self.state.lock().trace.dropped()
    }

    /// Charge `flops` of host-side work (triangulation tables, shadow
    /// culling) to the host's CPU resource. The work is accounted on the
    /// host timeline — it packs the CPU from t = 0 and contends with every
    /// device attached to the same host — but it does **not** stall the
    /// device streams: stream virtual time is unchanged, preserving
    /// bit-identical device schedules. Read it back via
    /// [`host_flops_time_s`](Self::host_flops_time_s) or
    /// [`Host::cpu_busy_s`].
    pub fn charge_host_flops(&self, flops: u64) -> TimeSpan {
        let (start_s, end_s) = self.host.cpu_charge(self.slot, flops);
        TimeSpan { start_s, end_s }
    }

    /// Host-CPU busy seconds this device's host-side work occupies.
    pub fn host_flops_time_s(&self) -> f64 {
        self.host.cpu_busy_s_of(self.slot)
    }

    /// Bus-busy seconds this device committed on its host's PCIe bus.
    pub fn bus_busy_s(&self) -> f64 {
        self.host.bus_busy_s_of(self.slot)
    }

    /// Reset meters, records, the op trace and stream clocks, destroy
    /// created streams, and release this device's commitments on the
    /// host's shared resources (other devices on the host are untouched;
    /// memory stays allocated).
    pub fn reset_meters(&self) {
        let mut st = self.state.lock();
        st.meters = Meters::default();
        st.records.clear();
        st.trace.clear();
        st.timelines.reset();
        self.host.release(self.slot);
    }
}

/// Decompose a linear block index into grid coordinates (x fastest).
fn block_coords(grid: Dim3, linear: u64) -> Dim3 {
    let x = linear % grid.x;
    let y = (linear / grid.x) % grid.y;
    let z = linear / (grid.x * grid.y);
    Dim3 { x, y, z }
}

fn run_block_range<F>(
    cfg: LaunchConfig,
    blocks: std::ops::Range<u64>,
    tile: Option<SharedTile<'_>>,
    kernel: &F,
    state: &mut WorkerState,
) where
    F: Fn(&mut ThreadCtx<'_>, &mut [f64]) + Sync,
{
    // One tile per worker, re-zeroed per block (the hardware hands every
    // block pristine shared memory only logically; reuse is free here).
    let mut shared = vec![0.0f64; tile.map_or(0, |t| t.doubles)];
    for b in blocks {
        let block_idx = block_coords(cfg.grid, b);
        shared.fill(0.0);
        for tz in 0..cfg.block.z {
            for ty in 0..cfg.block.y {
                for tx in 0..cfg.block.x {
                    let mut ctx = ThreadCtx {
                        block_idx,
                        thread_idx: Dim3 {
                            x: tx,
                            y: ty,
                            z: tz,
                        },
                        grid_dim: cfg.grid,
                        block_dim: cfg.block,
                        state,
                    };
                    kernel(&mut ctx, &mut shared);
                }
            }
        }
        if let Some(tile) = tile {
            let mut ctx = ThreadCtx {
                block_idx,
                thread_idx: Dim3 { x: 0, y: 0, z: 0 },
                grid_dim: cfg.grid,
                block_dim: cfg.block,
                state,
            };
            (tile.epilogue)(&mut ctx, &mut shared);
        }
    }
}

fn merge_states(states: Vec<WorkerState>) -> (Cost, [u64; crate::meter::TRACE_SLOTS]) {
    let mut cost = Cost::default();
    let mut chain = crate::meter::ChainEstimator::new();
    let mut traces = [0u64; crate::meter::TRACE_SLOTS];
    for s in states {
        cost.merge(&s.cost);
        chain.merge(&s.chain);
        for (t, v) in traces.iter_mut().zip(s.traces) {
            *t += v;
        }
    }
    cost.atomic_max_chain = chain.max_chain();
    (cost, traces)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_device() -> Device {
        Device::new(DeviceProps::tiny(1 << 16))
    }

    /// One-part unchecked upload on the default stream.
    fn up<T: DeviceScalar>(d: &Device, buf: &DeviceBuffer<T>, src: &[T]) -> Result<TimeSpan> {
        let mut parts = [Part::Up(buf, src)];
        d.transfer(
            StreamId::DEFAULT,
            TransferDir::HostToDevice,
            &mut parts,
            false,
        )
    }

    /// One-part unchecked download on the default stream.
    fn down<T: DeviceScalar>(d: &Device, buf: &DeviceBuffer<T>, dst: &mut [T]) -> Result<TimeSpan> {
        let mut parts = [Part::Down(buf, dst)];
        d.transfer(
            StreamId::DEFAULT,
            TransferDir::DeviceToHost,
            &mut parts,
            false,
        )
    }

    #[test]
    fn alloc_respects_capacity() {
        let d = tiny_device();
        let a = d.alloc::<f64>(4096).unwrap(); // 32 KiB
        let _b = d.alloc::<f64>(3000).unwrap(); // ~24 KiB
        assert!(matches!(
            d.alloc::<f64>(2048),
            Err(SimError::OutOfMemory { .. })
        ));
        drop(a);
        assert!(d.alloc::<f64>(2048).is_ok(), "freeing makes room");
        assert!(d.mem_peak() >= d.mem_used());
    }

    #[test]
    fn zero_length_alloc_rejected() {
        let d = tiny_device();
        assert!(d.alloc::<u8>(0).is_err());
    }

    #[test]
    fn copies_move_real_data() {
        let d = tiny_device();
        let buf = d.alloc_from_slice(&[1.5f64, -2.0, 3.25]).unwrap();
        let mut back = [0.0f64; 3];
        down(&d, &buf, &mut back).unwrap();
        assert_eq!(back, [1.5, -2.0, 3.25]);
        let m = d.meters();
        assert_eq!(m.transfers, 2);
        assert_eq!(m.h2d_bytes, 24);
        assert_eq!(m.d2h_bytes, 24);
        assert!(m.comm_time_s > 0.0);
    }

    #[test]
    fn copy_length_mismatch_rejected() {
        let d = tiny_device();
        let buf = d.alloc::<u32>(4).unwrap();
        assert!(matches!(
            up(&d, &buf, &[1u32, 2]),
            Err(SimError::CopyLengthMismatch {
                device_len: 4,
                host_len: 2
            })
        ));
        let mut small = [0u32; 3];
        assert!(down(&d, &buf, &mut small).is_err());
    }

    #[test]
    fn batched_copy_coalesces_latency() {
        // One part or three, a transaction pays the link latency once plus
        // the bandwidth term on its summed payload.
        for lens in [&[8usize][..], &[8, 4, 2]] {
            let d = tiny_device();
            let bufs: Vec<DeviceBuffer<f64>> = lens.iter().map(|&n| d.alloc(n).unwrap()).collect();
            let hosts: Vec<Vec<f64>> = (0..lens.len())
                .map(|k| (0..lens[k]).map(|i| (100 * k + i) as f64).collect())
                .collect();
            let mut parts: Vec<Part<'_, f64>> = bufs
                .iter()
                .zip(&hosts)
                .map(|(b, h)| Part::Up(b, h))
                .collect();
            d.transfer(
                StreamId::DEFAULT,
                TransferDir::HostToDevice,
                &mut parts,
                false,
            )
            .unwrap();
            let bytes = 8 * lens.iter().sum::<usize>() as u64;
            let (m, p) = (d.meters(), d.props());
            assert_eq!(m.transfers, 1, "one bus transaction");
            assert_eq!(m.h2d_bytes, bytes);
            assert_eq!(m.comm_time_s, p.pcie_latency + bytes as f64 / p.pcie_bw);
            if lens.len() > 1 {
                let separate: f64 = lens.iter().map(|&n| p.transfer_time(8 * n as u64)).sum();
                assert!(m.comm_time_s < separate, "cheaper than separate copies");
            }
            // The payloads really arrived: read them back as one download.
            let mut backs: Vec<Vec<f64>> = lens.iter().map(|&n| vec![0.0; n]).collect();
            let mut parts: Vec<Part<'_, f64>> = bufs
                .iter()
                .zip(&mut backs)
                .map(|(b, h)| Part::Down(b, h))
                .collect();
            d.transfer(
                StreamId::DEFAULT,
                TransferDir::DeviceToHost,
                &mut parts,
                false,
            )
            .unwrap();
            assert_eq!(backs, hosts);
            assert_eq!(d.meters().transfers, 2);
        }
    }

    #[test]
    fn batched_copy_validates_before_moving_data() {
        let d = tiny_device();
        let a = d.alloc_from_slice(&[5.0f64, 6.0]).unwrap();
        let b = d.alloc::<f64>(4).unwrap();
        let foreign = tiny_device().alloc::<f64>(2).unwrap();
        let h2d = |parts: &mut [Part<'_, f64>]| {
            d.transfer(StreamId::DEFAULT, TransferDir::HostToDevice, parts, false)
        };
        assert!(matches!(
            h2d(&mut [Part::Up(&a, &[1.0, 2.0]), Part::Up(&b, &[0.0; 3])]),
            Err(SimError::CopyLengthMismatch { .. })
        ));
        assert!(matches!(
            h2d(&mut [Part::Up(&a, &[1.0, 2.0]), Part::Up(&foreign, &[3.0, 4.0])]),
            Err(SimError::ForeignBuffer)
        ));
        let mut sink = [0.0f64; 4];
        assert!(matches!(
            h2d(&mut [Part::Up(&a, &[1.0, 2.0]), Part::Down(&b, &mut sink)]),
            Err(SimError::InvalidRequest(_))
        ));
        assert!(matches!(h2d(&mut []), Err(SimError::InvalidRequest(_))));
        // A rejected download leaves its host slices untouched too.
        let mut first = [9.0f64; 2];
        let mut short = [9.0f64; 3];
        assert!(d
            .transfer(
                StreamId::DEFAULT,
                TransferDir::DeviceToHost,
                &mut [Part::Down(&a, &mut first), Part::Down(&foreign, &mut short)],
                false,
            )
            .is_err());
        assert_eq!(first, [9.0; 2]);
        assert_eq!(d.meters().transfers, 1, "only the initial upload ran");
        // The rejected uploads must have left `a` untouched.
        let mut back = [0.0f64; 2];
        down(&d, &a, &mut back).unwrap();
        assert_eq!(back, [5.0, 6.0]);
    }

    #[test]
    fn batched_copy_transient_fault_poisons_all_destinations() {
        let d = tiny_device();
        let a = d.alloc_from_slice(&[7.0f64, 8.0]).unwrap();
        let b = d.alloc_from_slice(&[7.0f64, 8.0]).unwrap();
        let c = d.alloc_from_slice(&[7.0f64, 8.0]).unwrap();
        d.set_fault_plan(FaultPlan::new(0).fail_nth_h2d(1));
        let host = [1.0f64, 2.0];
        let upload = || {
            let mut parts = [
                Part::Up(&a, &host),
                Part::Up(&b, &host),
                Part::Up(&c, &host),
            ];
            d.transfer(
                StreamId::DEFAULT,
                TransferDir::HostToDevice,
                &mut parts,
                false,
            )
        };
        let before = d.meters().comm_time_s;
        assert!(matches!(upload(), Err(SimError::TransferFault { .. })));
        assert!(
            d.meters().comm_time_s > before,
            "failed transaction still burnt bus time"
        );
        // Every part was poisoned, not just the one a partial DMA reached.
        let mut back = [0.0f64; 2];
        for buf in [&a, &b, &c] {
            down(&d, buf, &mut back).unwrap();
            assert!(back.iter().all(|v| v.to_bits() == 0xDEAD_BEEF_DEAD_BEEF));
        }
        // Retry rewrites everything.
        upload().unwrap();
        for buf in [&a, &b, &c] {
            down(&d, buf, &mut back).unwrap();
            assert_eq!(back, host);
        }
    }

    #[test]
    fn threaded_grain_adapts_to_small_grids() {
        // A grid smaller than the old fixed batch of 8 must still spread
        // over workers and, above all, visit every block exactly once.
        let d = tiny_device();
        d.set_exec_mode(ExecMode::Threaded(4));
        let counts = d.alloc_zeroed::<u64>(6).unwrap();
        let cfg = LaunchConfig::new(Dim3::new(6, 1, 1), Dim3::new(1, 1, 1));
        d.launch(StreamId::DEFAULT, "tiny", cfg, None, |ctx, _| {
            ctx.atomic_add_u64(&counts, ctx.block_idx.x as usize, 1);
        })
        .unwrap();
        let mut host = vec![0u64; 6];
        down(&d, &counts, &mut host).unwrap();
        assert!(host.iter().all(|&c| c == 1), "{host:?}");
    }

    #[test]
    fn foreign_buffers_rejected() {
        let d1 = tiny_device();
        let d2 = tiny_device();
        let buf = d1.alloc::<f64>(4).unwrap();
        assert!(matches!(
            up(&d2, &buf, &[0.0; 4]),
            Err(SimError::ForeignBuffer)
        ));
    }

    #[test]
    fn launch_runs_every_thread_once() {
        let d = tiny_device();
        let counts = d.alloc_zeroed::<u64>(100).unwrap();
        let cfg = LaunchConfig::linear(100, 16); // 112 threads; guard excess
        d.launch(StreamId::DEFAULT, "count", cfg, None, |ctx, _| {
            let i = ctx.global_id().x as usize;
            if i < 100 {
                ctx.atomic_add_u64(&counts, i, 1);
            }
        })
        .unwrap();
        let mut host = vec![0u64; 100];
        down(&d, &counts, &mut host).unwrap();
        assert!(
            host.iter().all(|&c| c == 1),
            "each element visited exactly once"
        );
    }

    #[test]
    fn sequential_and_threaded_agree() {
        let run = |mode: ExecMode| -> (Vec<f64>, Cost) {
            let d = tiny_device();
            d.set_exec_mode(mode);
            let xs: Vec<f64> = (0..256).map(|i| i as f64 * 0.5).collect();
            let input = d.alloc_from_slice(&xs).unwrap();
            let out = d.alloc_zeroed::<f64>(16).unwrap();
            let cfg = LaunchConfig::linear(256, 32);
            d.launch(StreamId::DEFAULT, "hist", cfg, None, |ctx, _| {
                let i = ctx.global_id().x as usize;
                let v = ctx.read(&input, i);
                ctx.charge_flops(2);
                ctx.atomic_add_f64(&out, i % 16, v);
            })
            .unwrap();
            let mut host = vec![0.0f64; 16];
            down(&d, &out, &mut host).unwrap();
            let m = d.meters();
            (host, m.kernel_cost)
        };
        let (seq, cost_seq) = run(ExecMode::Sequential);
        let (thr, cost_thr) = run(ExecMode::Threaded(4));
        for (a, b) in seq.iter().zip(&thr) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        assert_eq!(cost_seq.flops, cost_thr.flops);
        assert_eq!(cost_seq.atomic_ops, cost_thr.atomic_ops);
        assert_eq!(cost_seq.mem_bytes, cost_thr.mem_bytes);
    }

    #[test]
    fn atomic_f64_is_exact_under_contention() {
        let d = tiny_device();
        d.set_exec_mode(ExecMode::Threaded(8));
        let out = d.alloc_zeroed::<f64>(1).unwrap();
        let cfg = LaunchConfig::linear(1024, 64);
        // Summing 1024 copies of 1.0 is exact in f64 regardless of order.
        d.launch(StreamId::DEFAULT, "sum", cfg, None, |ctx, _| {
            let _ = ctx.global_id();
            ctx.atomic_add_f64(&out, 0, 1.0);
        })
        .unwrap();
        let mut host = [0.0f64];
        down(&d, &out, &mut host).unwrap();
        assert_eq!(host[0], 1024.0);
        let m = d.meters();
        assert_eq!(m.kernel_cost.atomic_ops, 1024);
        assert!(m.kernel_cost.atomic_max_chain >= 1024, "single hot address");
    }

    #[test]
    fn shared_launch_gives_each_block_a_zeroed_tile() {
        let d = tiny_device();
        let out = d.alloc_zeroed::<f64>(4).unwrap();
        let cfg = LaunchConfig::new(Dim3::new(4, 1, 1), Dim3::linear(8));
        // Each thread privately accumulates into the block tile; the
        // epilogue commits one global add per block. A stale (un-zeroed)
        // tile would leak the previous block's sum into the next.
        let epilogue = |ctx: &mut ThreadCtx<'_>, shared: &mut [f64]| {
            ctx.atomic_add_f64(&out, ctx.block_idx.x as usize, shared[0]);
        };
        let tile = SharedTile {
            doubles: 2,
            epilogue: &epilogue,
        };
        d.launch(
            StreamId::DEFAULT,
            "private-sum",
            cfg,
            Some(tile),
            |ctx, shared| {
                ctx.charge_shared_bytes(16);
                shared[0] += 1.0;
            },
        )
        .unwrap();
        let mut host = [0.0f64; 4];
        down(&d, &out, &mut host).unwrap();
        assert_eq!(host, [8.0; 4], "8 threads per block, once per block");
        let m = d.meters();
        assert_eq!(m.kernel_cost.shared_bytes, 4 * 8 * 16);
        assert_eq!(m.kernel_cost.shared_request, 16);
        assert_eq!(m.kernel_cost.atomic_ops, 4, "one commit per block");
    }

    #[test]
    fn shared_launch_is_deterministic_under_threading() {
        // The contract the privatized accumulator relies on: each block's
        // threads see the block tile in a fixed (tz, ty, tx) order, and
        // when every global cell receives at most one commit, the result
        // is bitwise identical however blocks are spread over workers.
        let run = |mode: ExecMode| -> Vec<f64> {
            let d = tiny_device();
            d.set_exec_mode(mode);
            let xs: Vec<f64> = (0..256).map(|i| (i as f64 * 0.37).sin()).collect();
            let input = d.alloc_from_slice(&xs).unwrap();
            let out = d.alloc_zeroed::<f64>(8 * 8).unwrap();
            let cfg = LaunchConfig::linear(256, 32);
            let epilogue = |ctx: &mut ThreadCtx<'_>, shared: &mut [f64]| {
                let row = ctx.block_idx.x as usize * 8;
                for (slot, &v) in shared.iter().enumerate() {
                    ctx.atomic_add_f64(&out, row + slot, v);
                }
            };
            let tile = SharedTile {
                doubles: 8,
                epilogue: &epilogue,
            };
            d.launch(StreamId::DEFAULT, "tile", cfg, Some(tile), |ctx, shared| {
                let i = ctx.global_id().x as usize;
                let v = ctx.read(&input, i);
                ctx.charge_shared_bytes(16);
                shared[i % 8] += v;
            })
            .unwrap();
            let mut host = vec![0.0f64; 8 * 8];
            down(&d, &out, &mut host).unwrap();
            host
        };
        let seq = run(ExecMode::Sequential);
        let thr = run(ExecMode::Threaded(4));
        assert_eq!(
            seq.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            thr.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn oversized_shared_request_is_invalid_launch() {
        let d = tiny_device(); // 8 KiB shared per block
        let too_big = (d.props().shared_mem_per_block / 8 + 1) as usize;
        assert!(matches!(
            d.launch(
                StreamId::DEFAULT,
                "hog",
                LaunchConfig::linear(8, 8),
                Some(SharedTile {
                    doubles: too_big,
                    epilogue: &|_, _| {},
                }),
                |_, _| {},
            ),
            Err(SimError::InvalidLaunch(_))
        ));
        assert_eq!(d.meters().launches, 0);
    }

    #[test]
    fn big_shared_tiles_slow_the_launch_via_occupancy() {
        let time_with = |shared_f64: usize| -> f64 {
            let d = tiny_device();
            let tile = SharedTile {
                doubles: shared_f64,
                epilogue: &|_, _| {},
            };
            d.launch(
                StreamId::DEFAULT,
                "flops",
                LaunchConfig::linear(64, 8),
                Some(tile),
                |ctx, _| ctx.charge_flops(1_000_000),
            )
            .unwrap()
            .duration_s
        };
        let small = time_with(16); // plenty of blocks resident
        let huge = time_with(1024); // 8 KiB: one resident block
        assert!(
            huge > 2.0 * small,
            "low occupancy must inflate the modeled time: {huge} vs {small}"
        );
    }

    #[test]
    fn launch_validation_propagates() {
        let d = tiny_device();
        let cfg = LaunchConfig::linear(4096, 512); // tiny device: max 256/block
        assert!(matches!(
            d.launch(StreamId::DEFAULT, "bad", cfg, None, |_, _| {}),
            Err(SimError::InvalidLaunch(_))
        ));
        assert_eq!(d.meters().launches, 0);
    }

    #[test]
    fn meters_accumulate_and_reset() {
        let d = tiny_device();
        let buf = d.alloc_from_slice(&[0.0f64; 8]).unwrap();
        d.launch(
            StreamId::DEFAULT,
            "noop",
            LaunchConfig::linear(8, 8),
            None,
            |ctx, _| {
                ctx.charge_flops(10);
            },
        )
        .unwrap();
        let m = d.meters();
        assert_eq!(m.launches, 1);
        assert_eq!(m.kernel_cost.flops, 80);
        assert!(m.compute_time_s > 0.0);
        assert!(m.serial_total_s() > m.compute_time_s);
        assert_eq!(d.records().len(), 1);
        assert_eq!(d.records()[0].name, "noop");
        d.reset_meters();
        assert_eq!(d.meters(), Meters::default());
        assert!(d.records().is_empty());
        assert_eq!(d.elapsed_s(), 0.0);
        drop(buf);
    }

    #[test]
    fn streams_overlap_copies_and_kernels() {
        let d = tiny_device();
        let big = d.alloc::<f64>(4096).unwrap();
        let host = vec![0.0f64; 4096];
        // Serial: copy then kernel on the same stream.
        up(&d, &big, &host).unwrap();
        d.launch(
            StreamId::DEFAULT,
            "work",
            LaunchConfig::linear(256, 64),
            None,
            |ctx, _| {
                ctx.charge_flops(1_000_000);
            },
        )
        .unwrap();
        let serial_elapsed = d.synchronize();
        let serial_meters = d.meters();
        assert!((serial_elapsed - serial_meters.serial_total_s()).abs() < 1e-12);

        // Overlapped: same work split over two streams. The reset destroyed
        // every non-default stream, so the copy stream is created afresh.
        d.reset_meters();
        let copy_stream = d.create_stream();
        d.transfer(
            copy_stream,
            TransferDir::HostToDevice,
            &mut [Part::Up(&big, &host)],
            false,
        )
        .unwrap();
        d.launch(
            StreamId::DEFAULT,
            "work",
            LaunchConfig::linear(256, 64),
            None,
            |ctx, _| {
                ctx.charge_flops(1_000_000);
            },
        )
        .unwrap();
        let overlapped = d.synchronize();
        let m = d.meters();
        assert!(
            overlapped < m.serial_total_s() - 1e-12,
            "two streams must beat the serial sum: {overlapped} vs {}",
            m.serial_total_s()
        );
    }

    #[test]
    fn stream_wait_creates_dependency() {
        let d = tiny_device();
        let s = d.create_stream();
        let buf = d.alloc::<f64>(2048).unwrap();
        up(&d, &buf, &vec![0.0; 2048]).unwrap();
        let copy_done = d.elapsed_s();
        d.stream_wait(s, StreamId::DEFAULT);
        d.launch(s, "dependent", LaunchConfig::linear(8, 8), None, |_, _| {})
            .unwrap();
        assert!(d.elapsed_s() >= copy_done);
    }

    #[test]
    fn injected_alloc_fault_reads_as_oom_with_real_stats() {
        let d = tiny_device();
        d.set_fault_plan(FaultPlan::new(0).fail_nth_alloc(2));
        let _a = d.alloc::<f64>(16).unwrap();
        match d.alloc::<f64>(16) {
            Err(SimError::OutOfMemory {
                requested,
                capacity,
                ..
            }) => {
                assert_eq!(requested, 256, "aligned request size");
                assert_eq!(capacity, 1 << 16, "real capacity reported");
            }
            other => panic!("expected injected OOM, got {other:?}"),
        }
        assert!(d.alloc::<f64>(16).is_ok(), "fault is one-shot");
        assert_eq!(d.fault_stats().unwrap().allocs_failed, 1);
    }

    #[test]
    fn transient_h2d_fault_poisons_then_retry_succeeds() {
        let d = tiny_device();
        d.set_fault_plan(FaultPlan::new(0).fail_nth_h2d(1));
        let buf = d.alloc::<f64>(4).unwrap();
        let data = [1.0f64, 2.0, 3.0, 4.0];
        let before = d.meters().comm_time_s;
        match up(&d, &buf, &data) {
            Err(SimError::TransferFault {
                dir: TransferDir::HostToDevice,
                index: 1,
            }) => {}
            other => panic!("expected h2d fault, got {other:?}"),
        }
        assert!(
            d.meters().comm_time_s > before,
            "failed copy still burnt bus time"
        );
        assert_eq!(
            d.meters().h2d_bytes,
            0,
            "no payload counted for the failure"
        );
        assert!(d.ops().iter().any(|o| o.kind == "fault"));
        // Device memory is garbage now; the retry rewrites it fully.
        up(&d, &buf, &data).unwrap();
        let mut back = [0.0f64; 4];
        down(&d, &buf, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn transient_d2h_fault_scribbles_host_destination() {
        let d = tiny_device();
        d.set_fault_plan(FaultPlan::new(0).fail_nth_d2h(1));
        let buf = d.alloc_from_slice(&[7.0f64, 8.0]).unwrap();
        let mut out = [0.0f64; 2];
        assert!(down(&d, &buf, &mut out).is_err());
        assert!(out.iter().all(|v| v.to_bits() == 0xDEAD_BEEF_DEAD_BEEF));
        down(&d, &buf, &mut out).unwrap();
        assert_eq!(out, [7.0, 8.0]);
        // A multi-part download scribbles every destination.
        d.set_fault_plan(FaultPlan::new(0).fail_nth_d2h(1));
        let other = d.alloc_from_slice(&[9.0f64; 3]).unwrap();
        let mut more = [0.0f64; 3];
        let mut parts = [Part::Down(&buf, &mut out), Part::Down(&other, &mut more)];
        assert!(d
            .transfer(
                StreamId::DEFAULT,
                TransferDir::DeviceToHost,
                &mut parts,
                false
            )
            .is_err());
        assert!(out
            .iter()
            .chain(&more)
            .all(|v| v.to_bits() == 0xDEAD_BEEF_DEAD_BEEF));
    }

    #[test]
    fn lost_device_refuses_everything() {
        let d = tiny_device();
        let buf = d.alloc_from_slice(&[0.0f64; 4]).unwrap();
        // alloc + h2d above consumed 2 ops; allow one more, then lose it.
        d.set_fault_plan(FaultPlan::new(0).fail_after(1));
        d.launch(
            StreamId::DEFAULT,
            "ok",
            LaunchConfig::linear(4, 4),
            None,
            |_, _| {},
        )
        .unwrap();
        assert!(matches!(
            d.launch(
                StreamId::DEFAULT,
                "dead",
                LaunchConfig::linear(4, 4),
                None,
                |_, _| {}
            ),
            Err(SimError::DeviceLost)
        ));
        assert!(matches!(d.alloc::<f64>(1), Err(SimError::DeviceLost)));
        let mut out = [0.0f64; 4];
        assert!(matches!(
            down(&d, &buf, &mut out),
            Err(SimError::DeviceLost)
        ));
        assert_eq!(d.fault_stats().unwrap().refused_after_loss, 3);
    }

    #[test]
    fn report_mem_caps_device_capacity() {
        let d = tiny_device();
        assert_eq!(d.mem_capacity(), 1 << 16);
        d.set_fault_plan(FaultPlan::new(0).report_mem_bytes(1 << 12));
        assert_eq!(
            d.mem_capacity(),
            1 << 12,
            "capacity lie visible to planners"
        );
        assert!(d.alloc::<f64>(1024).is_err(), "8 KiB over a 4 KiB cap");
        assert!(d.alloc::<f64>(256).is_ok());
        d.clear_fault_plan();
        assert_eq!(d.mem_capacity(), 1 << 16);
        assert!(d.alloc::<f64>(1024).is_ok());
    }

    #[test]
    fn delay_advances_stream_clock_without_metering() {
        let d = tiny_device();
        let before = d.meters();
        let span = d.delay(StreamId::DEFAULT, 0.25);
        assert_eq!((span.start_s, span.end_s), (0.0, 0.25));
        assert_eq!(d.elapsed_s(), 0.25);
        assert_eq!(d.meters(), before, "idle time charges no meter");
        assert!(d.ops().iter().any(|o| o.kind == "idle"));
    }

    #[test]
    fn h2d_flip_lands_silently_and_is_traced() {
        let d = tiny_device();
        d.set_fault_plan(FaultPlan::new(0).flip_nth_h2d(1).flip_byte_offset(17));
        let data = [1.0f64, 2.0, 3.0, 4.0];
        let buf = d.alloc::<f64>(4).unwrap();
        up(&d, &buf, &data).unwrap();
        let mut back = [0.0f64; 4];
        down(&d, &buf, &mut back).unwrap();
        // Byte 17 → element 2, byte 1 → mask 0x8000.
        let diffs: Vec<usize> = (0..4).filter(|&i| back[i] != data[i]).collect();
        assert_eq!(diffs, vec![2], "exactly one element corrupted");
        assert_eq!(back[2].to_bits(), data[2].to_bits() ^ 0x8000);
        assert_eq!(d.fault_stats().unwrap().h2d_flipped, 1);
        assert!(d.ops().iter().any(|o| o.kind == "flip"));
        // One-shot: a fresh upload is clean again.
        up(&d, &buf, &data).unwrap();
        down(&d, &buf, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn d2h_flip_corrupts_host_copy_only() {
        let d = tiny_device();
        let data = [5.0f64, 6.0];
        let buf = d.alloc_from_slice(&data).unwrap();
        d.set_fault_plan(FaultPlan::new(0).flip_nth_d2h(1));
        let mut back = [0.0f64; 2];
        down(&d, &buf, &mut back).unwrap();
        assert_eq!(back[0].to_bits(), data[0].to_bits() ^ 0x80);
        assert_eq!(back[1], data[1]);
        assert_eq!(d.fault_stats().unwrap().d2h_flipped, 1);
        // Device memory kept the truth; the next read is clean.
        down(&d, &buf, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn batched_flip_addresses_concatenated_payload() {
        let d = tiny_device();
        // 8 f64 + 4 f64 = 96 B; byte 70 → second buffer, element 0 byte 6.
        d.set_fault_plan(FaultPlan::new(0).flip_nth_h2d(1).flip_byte_offset(70));
        let a = d.alloc::<f64>(8).unwrap();
        let b = d.alloc::<f64>(4).unwrap();
        let ha = [1.0f64; 8];
        let hb = [2.0f64; 4];
        let mut parts = [Part::Up(&a, &ha), Part::Up(&b, &hb)];
        d.transfer(
            StreamId::DEFAULT,
            TransferDir::HostToDevice,
            &mut parts,
            false,
        )
        .unwrap();
        let mut back_a = [0.0f64; 8];
        let mut back_b = [0.0f64; 4];
        down(&d, &a, &mut back_a).unwrap();
        down(&d, &b, &mut back_b).unwrap();
        assert_eq!(back_a, ha, "first buffer untouched");
        assert_eq!(back_b[0].to_bits(), hb[0].to_bits() ^ (0x80u64 << 48));
        assert_eq!(&back_b[1..], &hb[1..]);
    }

    #[test]
    fn checked_h2d_detects_flip_and_retry_succeeds() {
        let d = tiny_device();
        d.set_fault_plan(FaultPlan::new(0).flip_nth_h2d(1));
        let data = [1.0f64, 2.0, 3.0];
        let buf = d.alloc::<f64>(3).unwrap();
        let upload = || {
            let mut parts = [Part::Up(&buf, &data)];
            d.transfer(
                StreamId::DEFAULT,
                TransferDir::HostToDevice,
                &mut parts,
                true,
            )
        };
        match upload() {
            Err(SimError::CorruptTransfer {
                dir: TransferDir::HostToDevice,
                ..
            }) => {}
            other => panic!("expected detected corruption, got {other:?}"),
        }
        assert!(
            d.host_flops_time_s() > 0.0,
            "CRC passes are charged as host FLOPs"
        );
        // The retry consumes a fresh ordinal, so the one-shot flip is gone.
        upload().unwrap();
        let mut back = [0.0f64; 3];
        down(&d, &buf, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn checked_batched_h2d_detects_flip() {
        let d = tiny_device();
        d.set_fault_plan(FaultPlan::new(0).flip_nth_h2d(1).flip_byte_offset(40));
        let a = d.alloc::<f64>(4).unwrap();
        let b = d.alloc::<f64>(2).unwrap();
        let ha = [1.0f64; 4];
        let hb = [2.0f64; 2];
        let upload = || {
            let mut parts = [Part::Up(&a, &ha), Part::Up(&b, &hb)];
            d.transfer(
                StreamId::DEFAULT,
                TransferDir::HostToDevice,
                &mut parts,
                true,
            )
        };
        assert!(matches!(
            upload(),
            Err(SimError::CorruptTransfer {
                dir: TransferDir::HostToDevice,
                index: 1,
            })
        ));
        upload().unwrap();
    }

    #[test]
    fn checked_d2h_detects_flip_and_passes_clean() {
        let d = tiny_device();
        let data = [7.0f64, 8.0, 9.0];
        let buf = d.alloc_from_slice(&data).unwrap();
        d.set_fault_plan(FaultPlan::new(0).flip_nth_d2h(1));
        let mut back = [0.0f64; 3];
        let download = |back: &mut [f64]| {
            let mut parts = [Part::Down(&buf, back)];
            d.transfer(
                StreamId::DEFAULT,
                TransferDir::DeviceToHost,
                &mut parts,
                true,
            )
        };
        assert!(matches!(
            download(&mut back),
            Err(SimError::CorruptTransfer {
                dir: TransferDir::DeviceToHost,
                ..
            })
        ));
        download(&mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn kernel_flip_perturbs_one_deposit_and_is_counted() {
        let run = |plan: Option<FaultPlan>| -> (Vec<f64>, u64) {
            let d = tiny_device();
            if let Some(p) = plan {
                d.set_fault_plan(p);
            }
            let out = d.alloc_zeroed::<f64>(4).unwrap();
            d.launch(
                StreamId::DEFAULT,
                "sum",
                LaunchConfig::linear(16, 4),
                None,
                |ctx, _| {
                    let i = ctx.global_id().x as usize;
                    ctx.atomic_add_f64(&out, i % 4, 1.5);
                },
            )
            .unwrap();
            let mut host = vec![0.0f64; 4];
            down(&d, &out, &mut host).unwrap();
            let flips = d.fault_stats().map_or(0, |s| s.kernel_flipped);
            (host, flips)
        };
        let (clean, _) = run(None);
        let (bad, flips) = run(Some(FaultPlan::new(0).flip_nth_kernel(1).flip_op_index(5)));
        assert_eq!(flips, 1, "the armed flip landed");
        assert_ne!(
            clean.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            bad.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "a landed flip must change the output bits"
        );
        // An armed launch with fewer deposits than the target fires nothing.
        let (untouched, flips) = run(Some(
            FaultPlan::new(0).flip_nth_kernel(1).flip_op_index(999),
        ));
        assert_eq!(flips, 0);
        assert_eq!(untouched, clean);
    }

    #[test]
    fn stuck_kernel_stalls_stream_but_not_cost() {
        let clean = {
            let d = tiny_device();
            d.launch(
                StreamId::DEFAULT,
                "work",
                LaunchConfig::linear(64, 8),
                None,
                |ctx, _| {
                    ctx.charge_flops(1000);
                },
            )
            .unwrap()
        };
        let d = tiny_device();
        d.set_fault_plan(FaultPlan::new(0).stall_nth_kernel(1, 0.5));
        let stalled = d
            .launch(
                StreamId::DEFAULT,
                "work",
                LaunchConfig::linear(64, 8),
                None,
                |ctx, _| {
                    ctx.charge_flops(1000);
                },
            )
            .unwrap();
        assert_eq!(stalled.cost, clean.cost, "cost stays honest");
        assert!((stalled.duration_s - (clean.duration_s + 0.5)).abs() < 1e-12);
        // The watchdog predicate: observed duration far exceeds what the
        // cost model predicts for the recorded cost.
        let predicted = d.props().kernel_time(&stalled.cost);
        assert!(stalled.duration_s > 4.0 * predicted);
        assert_eq!(d.fault_stats().unwrap().kernel_stalled, 1);
        assert!(d.ops().iter().any(|o| o.kind == "stall"));
    }

    #[test]
    fn grid_3d_ids_cover_domain() {
        // The paper's Fig 6 mapping: (rows, cols, images) = (2, 9, 4).
        let d = tiny_device();
        let seen = d.alloc_zeroed::<u64>(72).unwrap();
        let cfg = LaunchConfig::cover(Dim3::new(2, 9, 4), Dim3::new(2, 3, 4));
        d.launch(StreamId::DEFAULT, "map", cfg, None, |ctx, _| {
            let g = ctx.global_id();
            if g.x < 2 && g.y < 9 && g.z < 4 {
                let lin = (g.z * 9 + g.y) * 2 + g.x;
                ctx.atomic_add_u64(&seen, lin as usize, 1);
            }
        })
        .unwrap();
        let mut host = vec![0u64; 72];
        down(&d, &seen, &mut host).unwrap();
        assert!(host.iter().all(|&c| c == 1));
    }
}
