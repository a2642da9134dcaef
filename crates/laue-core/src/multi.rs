//! Multi-GPU reconstruction — the design space the paper's related work
//! opens (Schaa & Kaeli, §II) but its implementation never explores.
//!
//! This is the per-chassis fleet scheduler behind [`crate::gpu::reconstruct`]
//! (a `1 × N` topology is one chassis of N devices). The node's rows are
//! split into contiguous row bands, one per device; each device runs the
//! k-deep ring pipeline over its band. Bands are disjoint,
//! so no cross-device synchronisation is needed and the result is
//! bit-identical to the single-GPU run. In virtual time the devices work
//! concurrently: the makespan is the slowest device's timeline. Whether
//! the devices also contend for PCIe is the caller's choice — devices
//! built with [`Device::new`] each own a private host (a link per device,
//! as in a multi-socket node), while devices attached to one
//! [`cuda_sim::Host`] via [`Device::new_on_host`] drain their transfers
//! through that host's shared metered bus, which is what a single
//! workstation chassis actually provides.
//!
//! A shared [`crate::cache::DepthTableCache`] pays the host-side triangulation once for
//! the whole fleet (devices after the first hit the host cache) and keeps
//! per-device resident tables for warm re-runs.

use cuda_sim::Device;
use laue_geometry::DepthMapper;

use crate::config::ReconstructionConfig;
use crate::error::CoreError;
use crate::geometry::ScanGeometry;
use crate::gpu::{run_bands, BandTally, RunOptions};
use crate::input::SlabSource;
use crate::journal::{RunJournal, SlabProgress};
use crate::Result;

/// One [`reconstruct_multi_scoped`] call's accounting. The image and pair
/// counters it produced live in the caller's [`SlabProgress`].
#[derive(Debug)]
pub(crate) struct FleetRun {
    /// Virtual makespan: the slowest participating device's elapsed time.
    pub(crate) elapsed_s: f64,
    /// Devices that died mid-call.
    pub(crate) devices_lost: u32,
    /// Everything the devices' band loops accumulated, in commit order.
    pub(crate) bands: BandTally,
}

/// Split `n_rows` into `n` contiguous bands, remainder spread to the front.
pub(crate) fn row_bands(n_rows: usize, n: usize) -> Vec<std::ops::Range<usize>> {
    let n = n.min(n_rows).max(1);
    let base = n_rows / n;
    let extra = n_rows % n;
    let mut bands = Vec::with_capacity(n);
    let mut start = 0;
    for i in 0..n {
        let len = base + usize::from(i < extra);
        bands.push(start..start + len);
        start += len;
    }
    bands
}

/// Split a set of disjoint, row-ordered uncovered ranges over `n` workers.
/// Quotas come from [`row_bands`] over the total pending row count; the
/// ranges are then walked in row order, slicing at quota boundaries. For a
/// single full-detector range this reproduces `row_bands` exactly, so a
/// fresh failure-free fleet run is scheduled identically to the original
/// static banding.
pub(crate) fn partition_ranges(
    ranges: &[std::ops::Range<usize>],
    n: usize,
) -> Vec<Vec<std::ops::Range<usize>>> {
    let total: usize = ranges.iter().map(|r| r.len()).sum();
    let quotas: Vec<usize> = row_bands(total, n).into_iter().map(|b| b.len()).collect();
    let mut out: Vec<Vec<std::ops::Range<usize>>> = vec![Vec::new(); quotas.len()];
    let mut rest = ranges.iter().cloned();
    let mut cur = rest.next();
    for (k, quota) in quotas.into_iter().enumerate() {
        let mut quota = quota;
        while quota > 0 {
            let Some(r) = cur.take() else { break };
            let take = quota.min(r.len());
            out[k].push(r.start..r.start + take);
            if take < r.len() {
                cur = Some(r.start + take..r.end);
            } else {
                cur = rest.next();
            }
            quota -= take;
        }
    }
    out
}

/// The failover-aware fleet scheduler that runs one node's share of
/// [`crate::gpu::reconstruct`]. Only rows inside `scope` (disjoint,
/// row-ordered ranges) are considered.
///
/// Work proceeds in rounds: the rows of `scope` still uncovered by
/// `progress` are re-banded over the devices currently alive
/// ([`partition_ranges`], which degenerates to the classic static banding
/// on a fresh run), and each device runs the shared checkpointing band loop
/// ([`run_bands`]) over its share, committing slab-by-slab into `progress`
/// (and `journal`, when given). A device that fails with a GPU-class error
/// ([`CoreError::is_gpu_failure`]) is marked dead and the round continues;
/// its unfinished rows are simply still uncovered next round and flow to
/// the survivors. Only when *zero* devices remain does the last device
/// error surface — that is the caller's cue for failover one level up or
/// CPU fallback, with everything the fleet did commit salvageable from
/// `progress`.
///
/// `on_commit` observes every fresh slab commit (see [`run_bands`]); the
/// driver uses it to release reduction segments into the interconnect
/// while the rest of the band is still computing.
/// `fresh_meters` controls whether a device's meters reset on its first
/// participation in *this call*: a cluster failover round re-enters a node
/// whose devices must keep accumulating virtual time, so it passes `false`
/// after the node's first round.
#[allow(clippy::too_many_arguments)]
pub(crate) fn reconstruct_multi_scoped(
    devices: &[&Device],
    source: &mut dyn SlabSource,
    geom: &ScanGeometry,
    mapper: &DepthMapper,
    cfg: &ReconstructionConfig,
    run: &RunOptions<'_>,
    scope: &[std::ops::Range<usize>],
    progress: &mut SlabProgress,
    mut journal: Option<&mut RunJournal>,
    on_commit: &mut dyn FnMut(usize, usize, f64),
    fresh_meters: bool,
) -> Result<FleetRun> {
    let mut bands = BandTally::default();
    let mut devices_lost = 0u32;
    let mut alive: Vec<bool> = devices.iter().map(|d| !d.is_lost()).collect();
    let mut participated: Vec<bool> = vec![false; devices.len()];
    let mut last_gpu_err: Option<CoreError> = None;

    loop {
        let pending: Vec<std::ops::Range<usize>> = scope
            .iter()
            .flat_map(|band| progress.uncovered(band.clone()))
            .collect();
        if pending.is_empty() {
            break;
        }
        let alive_idx: Vec<usize> = (0..devices.len()).filter(|&i| alive[i]).collect();
        if alive_idx.is_empty() {
            return Err(last_gpu_err.unwrap_or(CoreError::Device(cuda_sim::SimError::DeviceLost)));
        }
        let assignments = partition_ranges(&pending, alive_idx.len());
        for (k, ranges) in assignments.iter().enumerate() {
            if ranges.is_empty() {
                continue;
            }
            let di = alive_idx[k];
            let device = devices[di];
            if !participated[di] {
                if fresh_meters {
                    device.reset_meters();
                }
                participated[di] = true;
            }
            let attempt = run_bands(
                device,
                source,
                geom,
                mapper,
                cfg,
                run,
                ranges,
                progress,
                journal.as_deref_mut(),
                on_commit,
                &mut bands,
            );
            match attempt {
                Ok(()) => {}
                Err(e) if e.is_gpu_failure() => {
                    // The device is gone (or hopeless): drain it from the
                    // fleet. Whatever it committed before dying is already
                    // in `progress`; the rest of its rows stay uncovered
                    // and re-band onto the survivors next round.
                    alive[di] = false;
                    devices_lost += 1;
                    last_gpu_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
    }

    let elapsed_s = devices
        .iter()
        .zip(&participated)
        .filter(|(_, &p)| p)
        .map(|(d, _)| d.synchronize())
        .fold(0.0, f64::max);
    Ok(FleetRun {
        elapsed_s,
        devices_lost,
        bands,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::DepthTableCache;
    use crate::gpu::{self, GpuOptions, PipelineDepth, Reconstruction, RecoveryLog, Topology};
    use crate::input::InMemorySlabSource;
    use cuda_sim::DeviceProps;

    fn demo() -> (ScanGeometry, ReconstructionConfig, Vec<f64>) {
        let geom = ScanGeometry::demo(8, 6, 10, -60.0, 6.0).unwrap();
        let cfg = ReconstructionConfig::new(-1500.0, 1500.0, 60);
        let (p, m, n) = (10, 8, 6);
        let data: Vec<f64> = (0..p * m * n)
            .map(|i| {
                let z = i / (m * n);
                let px = i % (m * n);
                800.0 - 23.0 * z as f64 - (px % 5) as f64 * 13.0
            })
            .collect();
        (geom, cfg, data)
    }

    /// `n` tiny devices, each on its own host (a PCIe link per device).
    fn tiny_fleet(n: usize) -> Vec<Device> {
        (0..n)
            .map(|_| Device::new(DeviceProps::tiny(16 * 1024 * 1024)))
            .collect()
    }

    /// A fresh run of `run` on one node of `devices`.
    fn fleet_run_with(
        devices: &[Device],
        data: &[f64],
        geom: &ScanGeometry,
        cfg: &ReconstructionConfig,
        run: &RunOptions<'_>,
    ) -> Result<Reconstruction> {
        let topology = Topology::node(devices.iter().collect());
        let mut source = InMemorySlabSource::new(data.to_vec(), 10, 8, 6).unwrap();
        gpu::reconstruct_fresh(&topology, &mut source, geom, cfg, run)
    }

    /// A fresh serial (`k = 1`) run on one node of `devices`.
    fn fleet_run(
        devices: &[Device],
        data: &[f64],
        geom: &ScanGeometry,
        cfg: &ReconstructionConfig,
    ) -> Result<Reconstruction> {
        let serial = RunOptions::serial(GpuOptions::default());
        fleet_run_with(devices, data, geom, cfg, &serial)
    }

    #[test]
    fn row_bands_cover_exactly() {
        for (rows, n) in [(8usize, 2usize), (7, 3), (5, 8), (1, 1), (10, 4)] {
            let bands = row_bands(rows, n);
            assert_eq!(bands[0].start, 0);
            assert_eq!(bands.last().unwrap().end, rows);
            for w in bands.windows(2) {
                assert_eq!(w[0].end, w[1].start, "contiguous");
                assert!(!w[0].is_empty());
            }
            // Balanced within one row.
            let lens: Vec<usize> = bands.iter().map(|b| b.len()).collect();
            assert!(lens.iter().max().unwrap() - lens.iter().min().unwrap() <= 1);
        }
    }

    #[test]
    fn multi_gpu_matches_single_gpu_bitwise() {
        let (geom, cfg, data) = demo();
        let ref_out = fleet_run(&tiny_fleet(1), &data, &geom, &cfg).unwrap();

        for n_dev in [2usize, 3, 4] {
            let out = fleet_run(&tiny_fleet(n_dev), &data, &geom, &cfg).unwrap();
            assert_eq!(out.image.data, ref_out.image.data, "{n_dev} devices");
            assert_eq!(out.stats, ref_out.stats);
            assert_eq!(out.per_device.len(), n_dev);
            assert_eq!(out.nodes[0].rows, 8);
        }
    }

    #[test]
    fn multi_gpu_shortens_the_makespan() {
        let (geom, cfg, data) = demo();
        let one = fleet_run(&tiny_fleet(1), &data, &geom, &cfg).unwrap();
        let four = fleet_run(&tiny_fleet(4), &data, &geom, &cfg).unwrap();
        assert!(
            four.elapsed_s < one.elapsed_s,
            "4 devices must beat 1 in virtual time: {} vs {}",
            four.elapsed_s,
            one.elapsed_s
        );
    }

    #[test]
    fn shared_host_fleet_contends_for_the_bus() {
        let (geom, cfg, data) = demo();
        let run = |devices: Vec<Device>| fleet_run(&devices, &data, &geom, &cfg).unwrap();
        // A link per device: transfers never queue.
        let private = run(tiny_fleet(4));
        assert!(private.per_device.iter().all(|m| m.bus_wait_s == 0.0));
        // One chassis, one bus: the same transfers now share the link.
        let host = cuda_sim::Host::new_default();
        let shared = run((0..4)
            .map(|_| Device::new_on_host(DeviceProps::tiny(16 * 1024 * 1024), &host))
            .collect());
        assert_eq!(
            shared.image.data, private.image.data,
            "contention moves time, never data"
        );
        assert_eq!(shared.stats, private.stats);
        let stalled: f64 = shared.per_device.iter().map(|m| m.bus_wait_s).sum();
        assert!(stalled > 0.0, "devices must queue on the shared bus");
        assert_eq!(shared.meters.bus_wait_s, stalled, "run meters sum devices");
        assert!(
            shared.elapsed_s > private.elapsed_s,
            "the shared bus must stretch the makespan ({} vs {})",
            shared.elapsed_s,
            private.elapsed_s
        );
        // The bus never idles work away: the makespan still beats one
        // device doing everything alone over the same link.
        let solo = run(tiny_fleet(1));
        assert!(
            shared.elapsed_s < solo.elapsed_s,
            "compute still parallelizes ({} vs {})",
            shared.elapsed_s,
            solo.elapsed_s
        );
    }

    #[test]
    fn faulty_device_in_the_fleet_recovers_bitwise() {
        let (geom, cfg, data) = demo();
        let ref_out = fleet_run(&tiny_fleet(2), &data, &geom, &cfg).unwrap();
        assert_eq!(ref_out.recovery, RecoveryLog::default());

        // Second device drops an allocation and flakes one transfer.
        let faulty = tiny_fleet(2);
        faulty[1].set_fault_plan(
            cuda_sim::FaultPlan::new(5)
                .fail_nth_alloc(3)
                .fail_nth_h2d(2),
        );
        let out = fleet_run(&faulty, &data, &geom, &cfg).unwrap();
        assert!(out.recovery.replans >= 1);
        assert!(out.recovery.transfer_retries >= 1);
        assert_eq!(
            out.image.data, ref_out.image.data,
            "recovery is invisible in the output"
        );
        assert_eq!(out.stats, ref_out.stats);
    }

    #[test]
    fn pipelined_fleet_with_shared_cache_matches_bitwise() {
        let (geom, cfg, data) = demo();
        let opts = GpuOptions {
            triangulation: crate::gpu::Triangulation::HostTables,
            ..GpuOptions::default()
        };
        let serial = RunOptions::serial(opts);
        let ref_out = fleet_run_with(&tiny_fleet(1), &data, &geom, &cfg, &serial).unwrap();

        let devices = tiny_fleet(3);
        let cache = DepthTableCache::new(8 * 1024 * 1024);
        let run = RunOptions {
            gpu: opts,
            depth: PipelineDepth(2),
            cache: Some(&cache),
            ..RunOptions::default()
        };
        let cold = fleet_run_with(&devices, &data, &geom, &cfg, &run).unwrap();
        assert_eq!(cold.image.data, ref_out.image.data);
        assert_eq!(cold.stats, ref_out.stats);
        // One host miss for the fleet; the other devices hit the host cache.
        let tables = &cold.table_cache;
        assert_eq!(tables.host_misses, 1);
        assert_eq!(tables.host_hits, 2);
        assert_eq!(tables.device_misses, 3, "one upload per device");
        assert_eq!(cold.pipeline_depth, 2, "the requested ring ran");

        let warm = fleet_run_with(&devices, &data, &geom, &cfg, &run).unwrap();
        assert_eq!(warm.image.data, ref_out.image.data);
        assert_eq!(warm.table_cache.device_hits, 3, "all tables resident");
        assert!(warm.elapsed_s < cold.elapsed_s);
    }

    #[test]
    fn partition_ranges_reproduces_static_banding_on_fresh_runs() {
        for (rows, n) in [(8usize, 2usize), (7, 3), (5, 8), (10, 4)] {
            let full = 0..rows;
            let from_full = partition_ranges(std::slice::from_ref(&full), n);
            let bands = row_bands(rows, n);
            assert_eq!(from_full.len(), bands.len());
            for (group, band) in from_full.iter().zip(&bands) {
                assert_eq!(group.as_slice(), std::slice::from_ref(band));
            }
        }
        // Holes are walked in row order and sliced at quota boundaries.
        let groups = partition_ranges(&[1..3, 5..9], 2);
        assert_eq!(groups, vec![vec![1..3, 5..6], vec![6..9]]);
        let one = 0..1;
        let groups = partition_ranges(std::slice::from_ref(&one), 4);
        assert_eq!(groups, vec![vec![0..1]], "fewer rows than workers");
    }

    #[test]
    fn fleet_survives_losing_each_device_in_turn() {
        let (geom, mut cfg, data) = demo();
        cfg.rows_per_slab = Some(1); // every band is several slabs
        let ref_out = fleet_run(&tiny_fleet(4), &data, &geom, &cfg).unwrap();
        assert_eq!(ref_out.devices_lost, 0);

        for victim in 0..4usize {
            let fleet = tiny_fleet(4);
            // Die after the first committed slab of the victim's band.
            fleet[victim].set_fault_plan(cuda_sim::FaultPlan::new(0).fail_after_launches(1));
            let out = fleet_run(&fleet, &data, &geom, &cfg).unwrap();
            assert_eq!(out.devices_lost, 1, "victim {victim}");
            assert_eq!(
                out.image.data, ref_out.image.data,
                "survivors finish victim {victim}'s rows bit-identically"
            );
            assert_eq!(out.stats, ref_out.stats);
            assert_eq!(out.nodes[0].rows, 8);
        }
    }

    #[test]
    fn zero_surviving_devices_surfaces_the_loss() {
        let (geom, cfg, data) = demo();
        let fleet = tiny_fleet(2);
        for d in &fleet {
            d.set_fault_plan(cuda_sim::FaultPlan::new(0).fail_after_launches(0));
        }
        let err = fleet_run(&fleet, &data, &geom, &cfg).unwrap_err();
        assert!(err.is_gpu_failure());
        assert!(err.to_string().contains("device lost"), "{err}");
    }

    #[test]
    fn privatized_fleet_matches_atomic_bitwise_even_heterogeneous() {
        let (geom, cfg, data) = demo();
        let ref_out = fleet_run(&tiny_fleet(1), &data, &geom, &cfg).unwrap();

        let mut cfg = cfg.clone();
        cfg.accumulation = crate::config::AccumulationMode::Auto;
        // Homogeneous fleet: every slab privatizes.
        let out = fleet_run(&tiny_fleet(3), &data, &geom, &cfg).unwrap();
        assert_eq!(out.image.data, ref_out.image.data);
        assert_eq!(out.slab_privatized.len(), out.n_slabs);
        assert!(out.slab_privatized.iter().all(|p| *p));
        assert_eq!(out.stats.privatized_pairs, out.stats.pairs_total);

        // Heterogeneous fleet: one device's shared memory cannot hold a
        // 60-bin row, so its slabs fall back to atomics — the image must
        // still be bit-identical and the mix visible per slab.
        let mut cramped = DeviceProps::tiny(16 * 1024 * 1024);
        cramped.shared_mem_per_block = 64;
        let devices = [
            Device::new(DeviceProps::tiny(16 * 1024 * 1024)),
            Device::new(cramped),
        ];
        let out = fleet_run(&devices, &data, &geom, &cfg).unwrap();
        assert_eq!(out.image.data, ref_out.image.data);
        assert_eq!(out.slab_privatized.len(), out.n_slabs);
        assert!(out.slab_privatized.iter().any(|p| *p));
        assert!(out.slab_privatized.iter().any(|p| !*p));
        assert!(out.stats.privatized_pairs > 0);
        assert!(out.stats.accum_fallback_pairs > 0);
        assert_eq!(
            out.stats.privatized_pairs + out.stats.accum_fallback_pairs,
            out.stats.pairs_total
        );
    }

    #[test]
    fn no_devices_is_an_error() {
        let (geom, cfg, data) = demo();
        assert!(matches!(
            fleet_run(&[], &data, &geom, &cfg),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn more_devices_than_rows_still_works() {
        let (geom, cfg, data) = demo();
        let out = fleet_run(&tiny_fleet(12), &data, &geom, &cfg).unwrap();
        // Only 8 rows → at most 8 bands get work.
        let working = out.per_device.iter().filter(|m| m.launches > 0).count();
        assert_eq!(working, 8);
        assert_eq!(out.nodes[0].rows, 8);
    }
}
