//! Kernel launch geometry and the per-thread execution context.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::SimError;
use crate::memory::{DeviceBuffer, DeviceScalar};
use crate::meter::{ChainEstimator, Cost};
use crate::props::DeviceProps;

/// CUDA-style 3-component extent or index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dim3 {
    pub x: u64,
    pub y: u64,
    pub z: u64,
}

impl Dim3 {
    /// `(x, y, z)` extent.
    pub const fn new(x: u64, y: u64, z: u64) -> Dim3 {
        Dim3 { x, y, z }
    }

    /// 1-D extent `(n, 1, 1)`.
    pub const fn linear(n: u64) -> Dim3 {
        Dim3 { x: n, y: 1, z: 1 }
    }

    /// Total element count.
    pub const fn count(self) -> u64 {
        self.x * self.y * self.z
    }
}

/// A kernel launch configuration: grid of blocks, block of threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    pub grid: Dim3,
    pub block: Dim3,
}

impl LaunchConfig {
    /// Build a configuration.
    pub const fn new(grid: Dim3, block: Dim3) -> LaunchConfig {
        LaunchConfig { grid, block }
    }

    /// 1-D helper: enough `block_size`-wide blocks to cover `n` threads.
    pub const fn linear(n: u64, block_size: u64) -> LaunchConfig {
        let blocks = n.div_ceil(block_size);
        LaunchConfig {
            grid: Dim3::linear(blocks),
            block: Dim3::linear(block_size),
        }
    }

    /// Cover a 3-D domain `(x, y, z)` with blocks of shape `block`, exactly
    /// like the paper's `(rows, cols, images)` thread mapping.
    pub const fn cover(domain: Dim3, block: Dim3) -> LaunchConfig {
        LaunchConfig {
            grid: Dim3 {
                x: domain.x.div_ceil(block.x),
                y: domain.y.div_ceil(block.y),
                z: domain.z.div_ceil(block.z),
            },
            block,
        }
    }

    /// Total simulated threads.
    pub const fn total_threads(&self) -> u64 {
        self.grid.count() * self.block.count()
    }

    /// Validate against the device's hardware limits.
    pub fn validate(&self, props: &DeviceProps) -> Result<(), SimError> {
        if self.grid.count() == 0 || self.block.count() == 0 {
            return Err(SimError::InvalidLaunch("empty grid or block".into()));
        }
        if self.block.count() > props.max_threads_per_block {
            return Err(SimError::InvalidLaunch(format!(
                "{} threads per block exceeds limit {}",
                self.block.count(),
                props.max_threads_per_block
            )));
        }
        let b = [self.block.x, self.block.y, self.block.z];
        let g = [self.grid.x, self.grid.y, self.grid.z];
        for axis in 0..3 {
            if b[axis] > props.max_block_dim[axis] {
                return Err(SimError::InvalidLaunch(format!(
                    "block dim {axis} = {} exceeds limit {}",
                    b[axis], props.max_block_dim[axis]
                )));
            }
            if g[axis] > props.max_grid_dim[axis] {
                return Err(SimError::InvalidLaunch(format!(
                    "grid dim {axis} = {} exceeds limit {}",
                    g[axis], props.max_grid_dim[axis]
                )));
            }
        }
        Ok(())
    }
}

/// The `__shared__` memory a [`crate::Device::launch`] reserves per block:
/// a zeroed tile of `doubles` f64s, and the `epilogue` that runs once per
/// block, after all its threads, to reduce the tile.
#[derive(Clone, Copy)]
pub struct SharedTile<'a> {
    /// Tile length in f64s.
    pub doubles: usize,
    /// Per-block reduction, called with a context at thread (0,0,0).
    pub epilogue: &'a (dyn Fn(&mut ThreadCtx<'_>, &mut [f64]) + Sync),
}

/// XOR mask a kernel-flip fault applies to the targeted f64 deposit: the
/// top exponent bit. For |v| < 2 the perturbed deposit becomes huge (or
/// non-finite), for |v| ≥ 2 it collapses towards zero — either way the
/// accumulated sum changes decisively, so a bitwise ABFT comparison always
/// notices a landed flip.
const KERNEL_FLIP_MASK: u64 = 1 << 62;

/// Armed silent-corruption state for one launch (see [`crate::fault`]):
/// flip the `target`-th f64 deposit, counted in execution order across all
/// workers through the shared `counter`. Under the default sequential
/// executor the ordinal is fully deterministic; under
/// [`crate::ExecMode::Threaded`] which deposit it names depends on worker
/// scheduling, but exactly one deposit is perturbed either way.
#[derive(Debug, Clone)]
pub(crate) struct KernelCorrupt {
    pub(crate) target: u64,
    pub(crate) counter: Arc<AtomicU64>,
    pub(crate) fired: Arc<AtomicBool>,
}

impl KernelCorrupt {
    pub(crate) fn new(target: u64) -> KernelCorrupt {
        KernelCorrupt {
            target,
            counter: Arc::new(AtomicU64::new(0)),
            fired: Arc::new(AtomicBool::new(false)),
        }
    }
}

/// Per-worker scratch shared by all threads that worker simulates.
#[derive(Debug)]
pub(crate) struct WorkerState {
    pub cost: Cost,
    pub chain: ChainEstimator,
    pub traces: [u64; crate::meter::TRACE_SLOTS],
    /// Armed deposit flip for this launch (shared across workers), if any.
    pub corrupt: Option<KernelCorrupt>,
}

impl WorkerState {
    pub fn new() -> WorkerState {
        WorkerState {
            cost: Cost::default(),
            chain: ChainEstimator::new(),
            traces: [0; crate::meter::TRACE_SLOTS],
            corrupt: None,
        }
    }
}

/// Execution context handed to every simulated kernel thread.
///
/// Mirrors the implicit CUDA state (`blockIdx`, `threadIdx`, …) and is the
/// only sanctioned way for a kernel to touch device memory — its accessors
/// meter the traffic that the timing model charges.
pub struct ThreadCtx<'a> {
    pub block_idx: Dim3,
    pub thread_idx: Dim3,
    pub grid_dim: Dim3,
    pub block_dim: Dim3,
    pub(crate) state: &'a mut WorkerState,
}

impl ThreadCtx<'_> {
    /// Global 3-D thread id: `blockIdx * blockDim + threadIdx`.
    #[inline]
    pub fn global_id(&self) -> Dim3 {
        Dim3 {
            x: self.block_idx.x * self.block_dim.x + self.thread_idx.x,
            y: self.block_idx.y * self.block_dim.y + self.thread_idx.y,
            z: self.block_idx.z * self.block_dim.z + self.thread_idx.z,
        }
    }

    /// Charge `n` floating-point operations to this kernel.
    #[inline]
    pub fn charge_flops(&mut self, n: u64) {
        self.state.cost.flops += n;
    }

    /// Charge `n` bytes of device-memory traffic not covered by the typed
    /// accessors (e.g. modeled pointer-table indirections).
    #[inline]
    pub fn charge_mem_bytes(&mut self, n: u64) {
        self.state.cost.mem_bytes += n;
    }

    /// Charge `n` bytes of on-chip shared-memory traffic (the per-block
    /// tile a [`SharedTile`] launch hands out). An order of magnitude
    /// cheaper than device memory in the timing model.
    #[inline]
    pub fn charge_shared_bytes(&mut self, n: u64) {
        self.state.cost.shared_bytes += n;
    }

    /// Increment a free-form trace counter.
    ///
    /// Trace counters are **simulator instrumentation**, not device work:
    /// they cost nothing in the performance model and surface in
    /// [`crate::LaunchRecord::traces`]. The reconstruction engines use them
    /// for outcome statistics that a real kernel would either not collect or
    /// collect with negligible warp-local reductions.
    #[inline]
    pub fn trace(&mut self, slot: usize) {
        self.state.traces[slot] += 1;
    }

    /// Read one element; meters the memory traffic.
    ///
    /// Out-of-bounds access panics — the simulator's equivalent of a device
    /// memory fault.
    #[inline]
    pub fn read<T: DeviceScalar>(&mut self, buf: &DeviceBuffer<T>, i: usize) -> T {
        self.state.cost.mem_bytes += T::SIZE;
        buf.load(i)
    }

    /// Write one element; meters the memory traffic. Racy writes to the same
    /// slot have "some thread wins" semantics, as on real hardware.
    #[inline]
    pub fn write<T: DeviceScalar>(&mut self, buf: &DeviceBuffer<T>, i: usize, v: T) {
        self.state.cost.mem_bytes += T::SIZE;
        buf.store(i, v);
    }

    /// `atomicAdd(double)` exactly as the paper implements it: a
    /// compare-and-swap loop over the 64-bit pattern (Fermi-era CUDA had no
    /// native f64 atomicAdd). Returns the value before the addition.
    #[inline]
    pub fn atomic_add_f64(&mut self, buf: &DeviceBuffer<f64>, i: usize, v: f64) -> f64 {
        let mut v = v;
        if let Some(c) = &self.state.corrupt {
            if c.counter.fetch_add(1, Ordering::Relaxed) == c.target {
                v = f64::from_bits(v.to_bits() ^ KERNEL_FLIP_MASK);
                c.fired.store(true, Ordering::Relaxed);
            }
        }
        self.state.cost.atomic_ops += 1;
        self.state.cost.mem_bytes += 8;
        self.state.chain.record(i);
        let slot = buf.word(i);
        let mut old = slot.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(old) + v).to_bits();
            match slot.compare_exchange_weak(old, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return f64::from_bits(old),
                Err(actual) => {
                    self.state.cost.atomic_retries += 1;
                    old = actual;
                }
            }
        }
    }

    /// Integer atomic add (native on the device). Returns the prior value.
    #[inline]
    pub fn atomic_add_u64(&mut self, buf: &DeviceBuffer<u64>, i: usize, v: u64) -> u64 {
        self.state.cost.atomic_ops += 1;
        self.state.cost.mem_bytes += 8;
        self.state.chain.record(i);
        buf.word(i).fetch_add(v, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim3_counts() {
        assert_eq!(Dim3::linear(5).count(), 5);
        assert_eq!(Dim3::new(2, 9, 4).count(), 72, "the paper's Fig 6 example");
    }

    #[test]
    fn linear_config_covers_n() {
        let cfg = LaunchConfig::linear(1000, 256);
        assert_eq!(cfg.grid.x, 4);
        assert!(cfg.total_threads() >= 1000);
    }

    #[test]
    fn cover_matches_paper_example() {
        // 2 rows × 9 cols × 4 images with block (2, 9, 4) → one block.
        let cfg = LaunchConfig::cover(Dim3::new(2, 9, 4), Dim3::new(2, 9, 4));
        assert_eq!(cfg.grid, Dim3::new(1, 1, 1));
        assert_eq!(cfg.total_threads(), 72);
        // Same domain, blocks of (2, 3, 2) → 1×3×2 grid.
        let cfg = LaunchConfig::cover(Dim3::new(2, 9, 4), Dim3::new(2, 3, 2));
        assert_eq!(cfg.grid, Dim3::new(1, 3, 2));
    }

    #[test]
    fn validation_enforces_device_limits() {
        let props = crate::DeviceProps::tesla_m2070();
        assert!(LaunchConfig::linear(1 << 20, 1024).validate(&props).is_ok());
        // Too many threads per block.
        assert!(LaunchConfig::linear(4096, 2048).validate(&props).is_err());
        // Grid z > 1 not allowed on Fermi.
        let cfg = LaunchConfig::new(Dim3::new(1, 1, 2), Dim3::linear(32));
        assert!(cfg.validate(&props).is_err());
        // Block z ≤ 64.
        let cfg = LaunchConfig::new(Dim3::linear(1), Dim3::new(1, 1, 128));
        assert!(cfg.validate(&props).is_err());
        // Empty launch.
        let cfg = LaunchConfig::new(Dim3::new(0, 1, 1), Dim3::linear(32));
        assert!(cfg.validate(&props).is_err());
    }
}
