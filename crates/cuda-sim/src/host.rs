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

use crate::error::TransferDir;
use crate::meter::Cost;
use crate::props::HostProps;
use crate::sim::{Engine, ResourceId};

/// PCIe link discipline for the shared bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Duplex {
    /// One pool of link time shared by both directions, all streams, all
    /// devices on the host. The conservative model: a concurrent upload
    /// and download serialize. This is the default — the gen-2 switches
    /// and chipset paths of the paper's era rarely sustained both
    /// directions at rated speed.
    #[default]
    Half,
    /// Independent per-direction pools: an upload contends with uploads
    /// (any stream, any device) but not with downloads.
    Full,
}

/// Configuration for a [`Host`].
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Name for traces and reports.
    pub name: String,
    /// Bus discipline (see [`Duplex`]).
    pub duplex: Duplex,
    /// Performance model for host-side work charged via
    /// [`Device::charge_host_flops`](crate::Device::charge_host_flops).
    pub cpu: HostProps,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            name: "host".to_string(),
            duplex: Duplex::Half,
            cpu: HostProps::xeon_e5630(),
        }
    }
}

/// A host node: one engine, one shared PCIe bus (one pool per direction
/// under [`Duplex::Full`]), one host-CPU resource.
#[derive(Debug)]
pub struct Host {
    engine: Arc<Engine>,
    duplex: Duplex,
    cpu_props: HostProps,
    bus_up: ResourceId,
    bus_down: ResourceId,
    cpu: ResourceId,
    next_slot: AtomicU64,
}

impl Host {
    /// Build a host from a configuration.
    pub fn new(cfg: HostConfig) -> Arc<Host> {
        let engine = Arc::new(Engine::new());
        let bus_up = engine.shared(&format!("{}/pcie-h2d", cfg.name));
        let bus_down = match cfg.duplex {
            Duplex::Half => bus_up,
            Duplex::Full => engine.shared(&format!("{}/pcie-d2h", cfg.name)),
        };
        let cpu = engine.shared(&format!("{}/cpu", cfg.name));
        Arc::new(Host {
            engine,
            duplex: cfg.duplex,
            cpu_props: cfg.cpu,
            bus_up,
            bus_down,
            cpu,
            next_slot: AtomicU64::new(0),
        })
    }

    /// Host with the default configuration (half-duplex bus, Xeon E5630
    /// CPU model).
    pub fn new_default() -> Arc<Host> {
        Host::new(HostConfig::default())
    }

    /// The event engine every attached device schedules through.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Bus discipline.
    pub fn duplex(&self) -> Duplex {
        self.duplex
    }

    /// Claim an engine-local actor slot for a newly attached device.
    /// Slots are dense and deterministic (0, 1, 2, … in attach order), so
    /// journals of replayed plans compare bit-identically.
    pub(crate) fn attach(&self) -> u64 {
        self.next_slot.fetch_add(1, Ordering::Relaxed)
    }

    fn bus_for(&self, dir: TransferDir) -> ResourceId {
        match dir {
            TransferDir::HostToDevice => self.bus_up,
            TransferDir::DeviceToHost => self.bus_down,
        }
    }

    /// Acquire the bus for a transfer of modeled duration `dur` starting
    /// no earlier than `ready`; returns the `(start, end)` the transfer
    /// actually occupied. Uncontended acquisitions are `(ready, ready +
    /// dur)` exactly.
    pub(crate) fn bus_acquire(
        &self,
        dir: TransferDir,
        owner: u64,
        label: &'static str,
        ready: f64,
        dur: f64,
    ) -> (f64, f64) {
        self.engine
            .shared_acquire(self.bus_for(dir), owner, label, ready, dur)
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

    /// Committed bus-busy seconds across every attached device (both
    /// directions; under [`Duplex::Half`] they are one pool).
    pub fn bus_busy_s(&self) -> f64 {
        match self.duplex {
            Duplex::Half => self.engine.busy_s(self.bus_up),
            Duplex::Full => self.engine.busy_s(self.bus_up) + self.engine.busy_s(self.bus_down),
        }
    }

    /// Bus-busy seconds one attached device contributed.
    pub(crate) fn bus_busy_s_of(&self, owner: u64) -> f64 {
        match self.duplex {
            Duplex::Half => self.engine.busy_s_of(self.bus_up, owner),
            Duplex::Full => {
                self.engine.busy_s_of(self.bus_up, owner)
                    + self.engine.busy_s_of(self.bus_down, owner)
            }
        }
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
        self.engine.shared_release_owner(self.bus_up, owner);
        if self.duplex == Duplex::Full {
            self.engine.shared_release_owner(self.bus_down, owner);
        }
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
        let (_, up_end) = h.bus_acquire(TransferDir::HostToDevice, a, "h2d", 0.0, 1.0);
        let (down_start, down_end) = h.bus_acquire(TransferDir::DeviceToHost, a, "d2h", 0.0, 1.0);
        assert_eq!(up_end, 1.0);
        assert_eq!(down_start, 1.0, "download waits for the upload");
        assert_eq!(down_end, 2.0);
        assert_eq!(h.bus_busy_s(), 2.0);
    }

    #[test]
    fn full_duplex_overlaps_opposite_directions_but_not_same() {
        let h = Host::new(HostConfig {
            duplex: Duplex::Full,
            ..HostConfig::default()
        });
        let a = h.attach();
        h.bus_acquire(TransferDir::HostToDevice, a, "h2d", 0.0, 1.0);
        let (down_start, _) = h.bus_acquire(TransferDir::DeviceToHost, a, "d2h", 0.0, 1.0);
        assert_eq!(down_start, 0.0, "opposite directions are independent");
        let (up2_start, _) = h.bus_acquire(TransferDir::HostToDevice, a, "h2d", 0.5, 1.0);
        assert_eq!(up2_start, 1.0, "same direction still serializes");
        assert_eq!(h.bus_busy_s(), 3.0);
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
        h.bus_acquire(TransferDir::HostToDevice, a, "h2d", 0.0, 1.0);
        h.bus_acquire(TransferDir::HostToDevice, b, "h2d", 0.0, 1.0);
        h.cpu_charge(a, 1_000_000);
        h.release(a);
        assert_eq!(h.bus_busy_s(), 1.0, "b's grant survives");
        assert_eq!(h.cpu_busy_s(), 0.0);
        // a restarts at t = 0 and now contends with b's standing grant at
        // [1, 2): it backfills the free gap [0.5, 1) and finishes after b.
        let (s, e) = h.bus_acquire(TransferDir::HostToDevice, a, "h2d", 0.5, 1.0);
        assert_eq!(s, 0.5);
        assert_eq!(e, 2.5);
    }
}
