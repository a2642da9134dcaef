//! The host machine a device (or several) is plugged into: the shared
//! PCIe bus and the host CPU, modeled as contended resources on one
//! discrete-event [`Engine`].
//!
//! Historically every stream carried its own private bus cursor, so the
//! ring pipeline's concurrent upload + download each got full bandwidth
//! and `gpu-multi` devices never contended at all. A [`Host`] fixes that:
//! all transfers of every device attached to it drain through one metered
//! bus, and host-side triangulation FLOPs occupy a host-CPU resource, so
//! their cost is visible instead of free.
//!
//! [`crate::Device::new`] gives each device a private host (one device on
//! the bus — the old numbers for single-device runs are reproduced
//! exactly). Fleet code attaches several devices to one host with
//! [`crate::Device::new_on_host`], which is where the contention shows up.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::meter::Cost;
use crate::props::HostProps;
use crate::sim::{Engine, ResourceId};

/// A host node: one engine, one shared half-duplex PCIe bus (both
/// directions, all streams, all attached devices drain through one pool
/// of link time — the gen-2 switches and chipset paths of the paper's era
/// rarely sustained both directions at rated speed), one host-CPU
/// resource under the Xeon E5630 model.
#[derive(Debug)]
pub struct Host {
    engine: Arc<Engine>,
    cpu_props: HostProps,
    bus: ResourceId,
    cpu: ResourceId,
    next_slot: AtomicU64,
}

impl Host {
    /// A fresh host with nothing attached.
    pub fn new_default() -> Arc<Host> {
        let engine = Arc::new(Engine::new());
        let bus = engine.shared("host/pcie");
        let cpu = engine.shared("host/cpu");
        Arc::new(Host {
            engine,
            cpu_props: HostProps::xeon_e5630(),
            bus,
            cpu,
            next_slot: AtomicU64::new(0),
        })
    }

    /// The event engine every attached device schedules through.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Claim an engine-local actor slot for a newly attached device.
    /// Slots are dense and deterministic (0, 1, 2, … in attach order), so
    /// journals of replayed plans compare bit-identically.
    pub(crate) fn attach(&self) -> u64 {
        self.next_slot.fetch_add(1, Ordering::Relaxed)
    }

    /// Acquire the bus for a transfer of modeled duration `dur` starting
    /// no earlier than `ready`; returns the `(start, end)` the transfer
    /// actually occupied. Uncontended acquisitions are `(ready, ready +
    /// dur)` exactly.
    pub(crate) fn bus_acquire(
        &self,
        owner: u64,
        label: &'static str,
        ready: f64,
        dur: f64,
    ) -> (f64, f64) {
        self.engine
            .shared_acquire(self.bus, owner, label, ready, dur)
    }

    /// Charge `flops` of host-side work (triangulation tables, shadow
    /// culling) to the host-CPU resource under the host's CPU model.
    /// Returns the `(start, end)` the work occupied. Host work packs the
    /// CPU from t = 0 (tables are produced ahead of the uploads that
    /// consume them) and is accounted in parallel with device time — it
    /// never stalls a device stream.
    pub(crate) fn cpu_charge(&self, owner: u64, flops: u64) -> (f64, f64) {
        if flops == 0 {
            return (0.0, 0.0);
        }
        let cost = Cost {
            flops,
            ..Cost::default()
        };
        let dur = self.cpu_props.kernel_time(&cost, 1);
        self.engine
            .shared_acquire(self.cpu, owner, "host-flops", 0.0, dur)
    }

    /// Committed bus-busy seconds across every attached device, both
    /// directions.
    pub fn bus_busy_s(&self) -> f64 {
        self.engine.busy_s(self.bus)
    }

    /// Bus-busy seconds one attached device contributed.
    pub(crate) fn bus_busy_s_of(&self, owner: u64) -> f64 {
        self.engine.busy_s_of(self.bus, owner)
    }

    /// Committed host-CPU busy seconds across every attached device.
    pub fn cpu_busy_s(&self) -> f64 {
        self.engine.busy_s(self.cpu)
    }

    /// Host-CPU busy seconds one attached device contributed.
    pub(crate) fn cpu_busy_s_of(&self, owner: u64) -> f64 {
        self.engine.busy_s_of(self.cpu, owner)
    }

    /// Forget everything one device committed on the host's shared
    /// resources — the device is starting a fresh virtual timeline (meter
    /// reset). Other devices' commitments stay.
    pub(crate) fn release(&self, owner: u64) {
        self.engine.shared_release_owner(self.bus, owner);
        self.engine.shared_release_owner(self.cpu, owner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_duplex_serializes_opposite_directions() {
        let h = Host::new_default();
        let a = h.attach();
        let (_, up_end) = h.bus_acquire(a, "h2d", 0.0, 1.0);
        let (down_start, down_end) = h.bus_acquire(a, "d2h", 0.0, 1.0);
        assert_eq!(up_end, 1.0);
        assert_eq!(down_start, 1.0, "download waits for the upload");
        assert_eq!(down_end, 2.0);
        assert_eq!(h.bus_busy_s(), 2.0);
    }

    #[test]
    fn cpu_charges_pack_from_zero_and_meter_busy_time() {
        let h = Host::new_default();
        let a = h.attach();
        let (s1, e1) = h.cpu_charge(a, 1_000_000);
        let (s2, e2) = h.cpu_charge(a, 1_000_000);
        assert_eq!(s1, 0.0);
        assert_eq!(s2, e1, "second charge packs right after the first");
        assert!((h.cpu_busy_s() - e2).abs() < 1e-15);
        assert_eq!(h.cpu_charge(a, 0), (0.0, 0.0), "zero flops are free");
    }

    #[test]
    fn release_clears_only_one_devices_commitments() {
        let h = Host::new_default();
        let a = h.attach();
        let b = h.attach();
        h.bus_acquire(a, "h2d", 0.0, 1.0);
        h.bus_acquire(b, "h2d", 0.0, 1.0);
        h.cpu_charge(a, 1_000_000);
        h.release(a);
        assert_eq!(h.bus_busy_s(), 1.0, "b's grant survives");
        assert_eq!(h.cpu_busy_s(), 0.0);
        // a restarts at t = 0 and now contends with b's standing grant at
        // [1, 2): it backfills the free gap [0.5, 1) and finishes after b.
        let (s, e) = h.bus_acquire(a, "h2d", 0.5, 1.0);
        assert_eq!(s, 0.5);
        assert_eq!(e, 2.5);
    }
}
