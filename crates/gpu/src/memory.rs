//! Simulated device memory.
//!
//! A [`Device`] owns an allocation budget equal to the configured HBM
//! capacity (16 GB for the V100 preset). Buffers are real host memory, but
//! every allocation is charged against the device budget and refused with
//! [`OomError`] when it would not fit — reproducing the constraint that
//! motivates the paper's distributed approach in the first place ("GPUs
//! generally have smaller memories compared to CPUs", §I).
//!
//! Two buffer flavours exist: [`DeviceBuffer`] for exclusive or
//! block-partitioned access, and [`AtomicBuffer`]/[`AtomicBuffer32`] for
//! structures that concurrent thread blocks genuinely share (the outgoing
//! partition buffer of Fig. 2, the counting hash table of §III-B3).

use crate::config::DeviceConfig;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Allocation failure: the request would exceed device memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OomError {
    /// Bytes requested.
    pub requested: u64,
    /// Bytes currently allocated.
    pub in_use: u64,
    /// Device capacity in bytes.
    pub capacity: u64,
}

impl fmt::Display for OomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "device out of memory: requested {} B with {} B of {} B in use",
            self.requested, self.in_use, self.capacity
        )
    }
}

impl std::error::Error for OomError {}

#[derive(Debug)]
struct DeviceInner {
    config: DeviceConfig,
    allocated: AtomicU64,
    peak: AtomicU64,
}

impl DeviceInner {
    fn try_reserve(&self, bytes: u64) -> Result<(), OomError> {
        // Optimistic add; roll back on overshoot.
        let prev = self.allocated.fetch_add(bytes, Ordering::Relaxed);
        let now = prev + bytes;
        if now > self.config.memory_bytes {
            self.allocated.fetch_sub(bytes, Ordering::Relaxed);
            return Err(OomError {
                requested: bytes,
                in_use: prev,
                capacity: self.config.memory_bytes,
            });
        }
        self.peak.fetch_max(now, Ordering::Relaxed);
        Ok(())
    }

    fn release(&self, bytes: u64) {
        self.allocated.fetch_sub(bytes, Ordering::Relaxed);
    }
}

/// A simulated GPU: a configuration plus a memory budget. Cheap to clone
/// (clones share the budget).
#[derive(Clone, Debug)]
pub struct Device {
    inner: Arc<DeviceInner>,
}

impl Device {
    /// Creates a device with the given configuration.
    pub fn new(config: DeviceConfig) -> Device {
        Device {
            inner: Arc::new(DeviceInner {
                config,
                allocated: AtomicU64::new(0),
                peak: AtomicU64::new(0),
            }),
        }
    }

    /// A V100 device (the Summit GPU).
    pub fn v100() -> Device {
        Device::new(DeviceConfig::v100())
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.inner.config
    }

    /// Bytes currently allocated.
    pub fn allocated_bytes(&self) -> u64 {
        self.inner.allocated.load(Ordering::Relaxed)
    }

    /// High-water mark of allocated bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.inner.peak.load(Ordering::Relaxed)
    }

    /// Allocates a zero-initialised buffer of `len` elements.
    pub fn alloc_zeroed<T: Default + Clone>(
        &self,
        len: usize,
    ) -> Result<DeviceBuffer<T>, OomError> {
        let bytes = (len * std::mem::size_of::<T>()) as u64;
        self.inner.try_reserve(bytes)?;
        Ok(DeviceBuffer {
            data: vec![T::default(); len],
            bytes,
            device: Arc::clone(&self.inner),
        })
    }

    /// Allocates a zeroed buffer of `len` 64-bit atomics.
    pub fn alloc_atomic(&self, len: usize) -> Result<AtomicBuffer, OomError> {
        let bytes = (len * 8) as u64;
        self.inner.try_reserve(bytes)?;
        let mut v = Vec::with_capacity(len);
        v.resize_with(len, || AtomicU64::new(0));
        Ok(AtomicBuffer {
            data: v,
            bytes,
            device: Arc::clone(&self.inner),
        })
    }

    /// Allocates a zeroed buffer of `len` 32-bit atomics.
    pub fn alloc_atomic32(&self, len: usize) -> Result<AtomicBuffer32, OomError> {
        let bytes = (len * 4) as u64;
        self.inner.try_reserve(bytes)?;
        let mut v = Vec::with_capacity(len);
        v.resize_with(len, || AtomicU32::new(0));
        Ok(AtomicBuffer32 {
            data: v,
            bytes,
            device: Arc::clone(&self.inner),
        })
    }

    /// Allocates a zeroed buffer of `len` 128-bit atomically updated slots
    /// (wide k-mer keys). Charged at 16 B per slot.
    pub fn alloc_atomic128(&self, len: usize) -> Result<AtomicBuffer128, OomError> {
        let bytes = (len * 16) as u64;
        self.inner.try_reserve(bytes)?;
        let mut v = Vec::with_capacity(len);
        v.resize_with(len, || Mutex::new(0u128));
        Ok(AtomicBuffer128 {
            data: v,
            bytes,
            device: Arc::clone(&self.inner),
        })
    }
}

/// A device-resident typed buffer with exclusive (or block-partitioned)
/// access. Dereferences to a slice.
#[derive(Debug)]
pub struct DeviceBuffer<T> {
    data: Vec<T>,
    bytes: u64,
    device: Arc<DeviceInner>,
}

impl<T> Deref for DeviceBuffer<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.data
    }
}

impl<T> DerefMut for DeviceBuffer<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl<T> Drop for DeviceBuffer<T> {
    fn drop(&mut self) {
        self.device.release(self.bytes);
    }
}

/// A device buffer of 64-bit atomics shared across concurrently executing
/// thread blocks.
#[derive(Debug)]
pub struct AtomicBuffer {
    data: Vec<AtomicU64>,
    bytes: u64,
    device: Arc<DeviceInner>,
}

impl AtomicBuffer {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the buffer has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Relaxed load.
    #[inline]
    pub fn load(&self, i: usize) -> u64 {
        self.data[i].load(Ordering::Relaxed)
    }

    /// Relaxed store.
    #[inline]
    pub fn store(&self, i: usize, v: u64) {
        self.data[i].store(v, Ordering::Relaxed);
    }

    /// Atomic add, returning the previous value (CUDA `atomicAdd`).
    #[inline]
    pub fn fetch_add(&self, i: usize, v: u64) -> u64 {
        self.data[i].fetch_add(v, Ordering::Relaxed)
    }

    /// Atomic compare-and-swap (CUDA `atomicCAS`): if the slot holds
    /// `current`, replaces it with `new`. Returns the value observed before
    /// the operation (equal to `current` on success).
    #[inline]
    pub fn compare_and_swap(&self, i: usize, current: u64, new: u64) -> u64 {
        match self.data[i].compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire) {
            Ok(prev) => prev,
            Err(prev) => prev,
        }
    }

    /// Copies the current contents to a host `Vec`.
    pub fn snapshot(&self) -> Vec<u64> {
        self.data
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect()
    }
}

impl Drop for AtomicBuffer {
    fn drop(&mut self) {
        self.device.release(self.bytes);
    }
}

/// A device buffer of 32-bit atomics (counters, per-slot k-mer counts).
#[derive(Debug)]
pub struct AtomicBuffer32 {
    data: Vec<AtomicU32>,
    bytes: u64,
    device: Arc<DeviceInner>,
}

impl AtomicBuffer32 {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the buffer has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Relaxed load.
    #[inline]
    pub fn load(&self, i: usize) -> u32 {
        self.data[i].load(Ordering::Relaxed)
    }

    /// Relaxed store.
    #[inline]
    pub fn store(&self, i: usize, v: u32) {
        self.data[i].store(v, Ordering::Relaxed);
    }

    /// Atomic add, returning the previous value.
    #[inline]
    pub fn fetch_add(&self, i: usize, v: u32) -> u32 {
        self.data[i].fetch_add(v, Ordering::Relaxed)
    }

    /// Copies the current contents to a host `Vec`.
    pub fn snapshot(&self) -> Vec<u32> {
        self.data
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect()
    }
}

impl Drop for AtomicBuffer32 {
    fn drop(&mut self) {
        self.device.release(self.bytes);
    }
}

/// A device buffer of 128-bit slots with atomic compare-and-swap — the
/// key array of a wide-k (u128) counting table.
///
/// Real GPUs CAS 128-bit values with paired 64-bit CAS or
/// `atomicCAS` on `ulonglong2` via vectorized loads; the host simulation
/// uses one mutex per slot, which is linearizable and therefore a sound
/// stand-in for the device primitive. Charged at 16 B per slot, exactly
/// the device footprint of the key array.
#[derive(Debug)]
pub struct AtomicBuffer128 {
    data: Vec<Mutex<u128>>,
    bytes: u64,
    device: Arc<DeviceInner>,
}

impl AtomicBuffer128 {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the buffer has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Load.
    #[inline]
    pub fn load(&self, i: usize) -> u128 {
        *self.data[i].lock().expect("poisoned device slot")
    }

    /// Store.
    #[inline]
    pub fn store(&self, i: usize, v: u128) {
        *self.data[i].lock().expect("poisoned device slot") = v;
    }

    /// Atomic compare-and-swap (CUDA `atomicCAS` semantics): if the slot
    /// holds `current`, replaces it with `new`. Returns the value observed
    /// before the operation (equal to `current` on success).
    #[inline]
    pub fn compare_and_swap(&self, i: usize, current: u128, new: u128) -> u128 {
        let mut slot = self.data[i].lock().expect("poisoned device slot");
        let prev = *slot;
        if prev == current {
            *slot = new;
        }
        prev
    }

    /// Copies the current contents to a host `Vec`.
    pub fn snapshot(&self) -> Vec<u128> {
        (0..self.data.len()).map(|i| self.load(i)).collect()
    }
}

impl Drop for AtomicBuffer128 {
    fn drop(&mut self) {
        self.device.release(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_device(bytes: u64) -> Device {
        let mut cfg = DeviceConfig::v100();
        cfg.memory_bytes = bytes;
        Device::new(cfg)
    }

    #[test]
    fn allocation_accounting() {
        let d = small_device(1024);
        let b = d.alloc_zeroed::<u64>(64).unwrap(); // 512 B
        assert_eq!(d.allocated_bytes(), 512);
        drop(b);
        assert_eq!(d.allocated_bytes(), 0);
        assert_eq!(d.peak_bytes(), 512);
    }

    #[test]
    fn oom_is_refused_and_rolled_back() {
        let d = small_device(100);
        let err = d.alloc_zeroed::<u8>(200).unwrap_err();
        assert_eq!(err.requested, 200);
        assert_eq!(err.capacity, 100);
        assert_eq!(d.allocated_bytes(), 0); // rollback happened
                                            // A fitting allocation still works afterwards.
        assert!(d.alloc_zeroed::<u8>(100).is_ok());
    }

    #[test]
    fn atomic_buffer_cas_and_add() {
        let d = small_device(4096);
        let a = d.alloc_atomic(4).unwrap();
        assert_eq!(a.compare_and_swap(0, 0, 7), 0); // success: saw 0
        assert_eq!(a.compare_and_swap(0, 0, 9), 7); // failure: saw 7
        assert_eq!(a.load(0), 7);
        assert_eq!(a.fetch_add(1, 5), 0);
        assert_eq!(a.fetch_add(1, 5), 5);
        assert_eq!(a.snapshot(), vec![7, 10, 0, 0]);
    }

    #[test]
    fn atomic32_counter() {
        let d = small_device(4096);
        let a = d.alloc_atomic32(2).unwrap();
        a.fetch_add(0, 3);
        a.store(1, 9);
        assert_eq!(a.snapshot(), vec![3, 9]);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn concurrent_atomic_adds_are_exact() {
        let d = small_device(1 << 20);
        let a = std::sync::Arc::new(d.alloc_atomic(1).unwrap());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let a = std::sync::Arc::clone(&a);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        a.fetch_add(0, 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.load(0), 40_000);
    }

    #[test]
    fn atomic128_cas_and_accounting() {
        let d = small_device(4096);
        let a = d.alloc_atomic128(4).unwrap();
        assert_eq!(d.allocated_bytes(), 64); // 16 B per slot
        let big = (7u128 << 64) | 3;
        assert_eq!(a.compare_and_swap(0, 0, big), 0); // success: saw 0
        assert_eq!(a.compare_and_swap(0, 0, 9), big); // failure: saw big
        assert_eq!(a.load(0), big);
        a.store(1, 11);
        assert_eq!(a.snapshot(), vec![big, 11, 0, 0]);
        drop(a);
        assert_eq!(d.allocated_bytes(), 0);
    }

    #[test]
    fn concurrent_atomic128_cas_is_exact() {
        let d = small_device(1 << 20);
        let a = std::sync::Arc::new(d.alloc_atomic128(1).unwrap());
        let winners = std::sync::Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (1..=8u128)
            .map(|t| {
                let a = std::sync::Arc::clone(&a);
                let winners = std::sync::Arc::clone(&winners);
                std::thread::spawn(move || {
                    if a.compare_and_swap(0, 0, t << 64) == 0 {
                        winners.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Exactly one CAS on the empty slot may succeed.
        assert_eq!(winners.load(Ordering::Relaxed), 1);
        assert_ne!(a.load(0), 0);
    }

    #[test]
    fn v100_capacity_enforced() {
        let d = Device::v100();
        // 17 GB must not fit on a 16 GB device.
        assert!(d.alloc_zeroed::<u8>(17 * (1 << 30)).is_err());
    }
}
