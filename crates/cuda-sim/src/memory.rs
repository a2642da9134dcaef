//! Device memory: typed buffers in a separate address space.
//!
//! Every buffer's payload lives in a host-side slab of `AtomicU64` words —
//! one element per word — so simulated threads can race on it safely while
//! staying in entirely safe Rust. *Capacity accounting is separate from
//! storage*: the allocator charges the modeled element size
//! (`DeviceScalar::SIZE`), which is what the memory-cap and transfer models
//! see, regardless of how the simulator chooses to back the data.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::alloc::Allocator;

/// Scalars storable in device buffers.
pub trait DeviceScalar: Copy + Default + Send + Sync + 'static {
    /// Modeled size in bytes (drives capacity and PCIe accounting).
    const SIZE: u64;
    /// Name for diagnostics.
    const NAME: &'static str;
    /// Pack into a storage word.
    fn to_word(self) -> u64;
    /// Unpack from a storage word.
    fn from_word(w: u64) -> Self;
}

macro_rules! impl_scalar {
    ($t:ty, $size:expr, $name:expr, $to:expr, $from:expr) => {
        impl DeviceScalar for $t {
            const SIZE: u64 = $size;
            const NAME: &'static str = $name;
            #[inline]
            fn to_word(self) -> u64 {
                ($to)(self)
            }
            #[inline]
            fn from_word(w: u64) -> Self {
                ($from)(w)
            }
        }
    };
}

impl_scalar!(
    f64,
    8,
    "f64",
    |v: f64| v.to_bits(),
    |w: u64| f64::from_bits(w)
);
impl_scalar!(f32, 4, "f32", |v: f32| v.to_bits() as u64, |w: u64| {
    f32::from_bits(w as u32)
});
impl_scalar!(u64, 8, "u64", |v: u64| v, |w: u64| w);
impl_scalar!(u32, 4, "u32", |v: u32| v as u64, |w: u64| w as u32);
impl_scalar!(i32, 4, "i32", |v: i32| v as u32 as u64, |w: u64| w as u32
    as i32);
impl_scalar!(u16, 2, "u16", |v: u16| v as u64, |w: u64| w as u16);
impl_scalar!(u8, 1, "u8", |v: u8| v as u64, |w: u64| w as u8);

/// RAII registration of an address range with the device allocator.
#[derive(Debug)]
pub(crate) struct Allocation {
    pub(crate) addr: u64,
    pub(crate) allocator: Arc<Mutex<Allocator>>,
}

impl Drop for Allocation {
    fn drop(&mut self) {
        self.allocator.lock().free(self.addr);
    }
}

/// A typed buffer in simulated device memory.
///
/// Cloning a handle aliases the same device memory (like copying a CUDA
/// device pointer); the allocation is released when the last handle drops.
#[derive(Debug, Clone)]
pub struct DeviceBuffer<T: DeviceScalar> {
    pub(crate) words: Arc<[AtomicU64]>,
    pub(crate) allocation: Arc<Allocation>,
    pub(crate) device_id: u64,
    pub(crate) len: usize,
    _marker: PhantomData<T>,
}

impl<T: DeviceScalar> DeviceBuffer<T> {
    pub(crate) fn new(len: usize, allocation: Allocation, device_id: u64) -> DeviceBuffer<T> {
        let words: Arc<[AtomicU64]> = (0..len).map(|_| AtomicU64::new(0)).collect();
        DeviceBuffer {
            words,
            allocation: Arc::new(allocation),
            device_id,
            len,
            _marker: PhantomData,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the buffer holds no elements (never constructed in
    /// practice; allocations are non-empty).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Modeled size in bytes (what the allocator and PCIe model charge).
    pub fn modeled_bytes(&self) -> u64 {
        self.len as u64 * T::SIZE
    }

    /// Modeled device address (for diagnostics).
    pub fn device_addr(&self) -> u64 {
        self.allocation.addr
    }

    /// Raw load (device-side; kernels use [`crate::ThreadCtx::read`], which
    /// also meters the traffic).
    #[inline]
    pub(crate) fn load(&self, i: usize) -> T {
        T::from_word(self.words[i].load(Ordering::Relaxed))
    }

    /// Raw store (device-side).
    #[inline]
    pub(crate) fn store(&self, i: usize, v: T) {
        self.words[i].store(v.to_word(), Ordering::Relaxed);
    }

    /// Atomic slot accessor for CAS loops.
    #[inline]
    pub(crate) fn word(&self, i: usize) -> &AtomicU64 {
        &self.words[i]
    }

    /// Scribble a recognisable garbage pattern over every element: a failed
    /// DMA may have written any prefix, so fault injection poisons the whole
    /// buffer to guarantee a retry that "worked" only because the data
    /// survived from a partial copy cannot pass silently.
    pub(crate) fn poison(&self) {
        for w in self.words.iter() {
            w.store(0xDEAD_BEEF_DEAD_BEEF, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_allocation(bytes: u64) -> Allocation {
        let alloc = Arc::new(Mutex::new(Allocator::new(1 << 20)));
        let addr = alloc.lock().alloc(bytes).unwrap();
        Allocation {
            addr,
            allocator: alloc,
        }
    }

    #[test]
    fn scalar_round_trips() {
        fn rt<T: DeviceScalar + PartialEq + std::fmt::Debug>(vals: &[T]) {
            for &v in vals {
                assert_eq!(T::from_word(v.to_word()), v);
            }
        }
        rt::<f64>(&[0.0, -1.5, std::f64::consts::PI, f64::MAX, 5e-324]);
        rt::<f32>(&[0.0, -2.5, f32::MAX]);
        rt::<u64>(&[0, u64::MAX]);
        rt::<u32>(&[0, u32::MAX]);
        rt::<i32>(&[i32::MIN, -1, 0, i32::MAX]);
        rt::<u16>(&[0, u16::MAX]);
        rt::<u8>(&[0, 255]);
    }

    #[test]
    fn negative_i32_survives_packing() {
        assert_eq!(i32::from_word((-123i32).to_word()), -123);
    }

    #[test]
    fn buffer_load_store() {
        let buf: DeviceBuffer<f64> = DeviceBuffer::new(8, test_allocation(64), 1);
        assert_eq!(buf.len(), 8);
        assert!(!buf.is_empty());
        assert_eq!(buf.modeled_bytes(), 64);
        buf.store(3, 2.5);
        assert_eq!(buf.load(3), 2.5);
        assert_eq!(buf.load(0), 0.0, "zero-initialised");
    }

    #[test]
    fn poison_overwrites_every_element() {
        let buf: DeviceBuffer<f64> = DeviceBuffer::new(4, test_allocation(32), 1);
        buf.store(0, 1.0);
        buf.store(3, 4.0);
        buf.poison();
        let garbage = f64::from_bits(0xDEAD_BEEF_DEAD_BEEF);
        for i in 0..4 {
            assert_eq!(buf.load(i).to_bits(), garbage.to_bits());
        }
    }

    #[test]
    fn clone_aliases_same_memory() {
        let buf: DeviceBuffer<u32> = DeviceBuffer::new(4, test_allocation(16), 1);
        let alias = buf.clone();
        buf.store(2, 99);
        assert_eq!(alias.load(2), 99);
    }

    #[test]
    fn drop_releases_allocation() {
        let alloc = Arc::new(Mutex::new(Allocator::new(1 << 20)));
        let addr = alloc.lock().alloc(64).unwrap();
        let allocation = Allocation {
            addr,
            allocator: Arc::clone(&alloc),
        };
        let buf: DeviceBuffer<u8> = DeviceBuffer::new(64, allocation, 1);
        assert!(alloc.lock().used() > 0);
        let alias = buf.clone();
        drop(buf);
        assert!(alloc.lock().used() > 0, "alias keeps allocation live");
        drop(alias);
        assert_eq!(alloc.lock().used(), 0);
    }
}
