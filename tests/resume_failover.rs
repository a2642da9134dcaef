//! Checkpoint / resume / failover end-to-end: a journalled run killed at
//! any slab boundary resumes bit-identically; a multi-GPU fleet that loses
//! a device mid-run finishes on the survivors without touching the CPU;
//! and the CPU fallback salvages every GPU-committed slab instead of
//! recomputing the whole frame.

use laue::pipeline::cli;
use laue::prelude::*;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("laue_resume_{}_{name}", std::process::id()))
}

fn write_demo_scan(name: &str) -> PathBuf {
    let scan = SyntheticScanBuilder::new(12, 10, 14)
        .scatterers(6)
        .background(15.0)
        .seed(11)
        .build()
        .unwrap();
    let path = tmp(name).with_extension("mh5");
    write_scan(&path, &scan.geometry, &scan.images, Some(&scan.truth), 3).unwrap();
    path
}

/// 12 rows in 2-row slabs: six slab boundaries to kill at.
fn cfg() -> ReconstructionConfig {
    let mut cfg = ReconstructionConfig::new(-1600.0, 1600.0, 200);
    cfg.rows_per_slab = Some(2);
    cfg
}

/// `cfg()` pinned to the serial ring, which commits each slab before
/// launching the next, so `fail_after_launches(i)` leaves exactly `i` slabs
/// in the journal.
fn serial() -> ReconstructionConfig {
    let mut cfg = cfg();
    cfg.set_plan(SERIAL_1D).unwrap();
    cfg
}

const SERIAL_1D: &str = "flat1d/inkernel/k1";
const GPU: Engine = Engine::GpuPipelined;

#[test]
fn resume_is_bit_identical_at_every_slab_boundary() {
    let path = write_demo_scan("boundary");
    let cfg = serial();
    let baseline = Pipeline::default().run_scan_file(&path, &cfg, GPU).unwrap();
    assert_eq!(baseline.n_slabs, 6);

    let jdir = tmp("boundary_jrn");
    for boundary in 0..baseline.n_slabs {
        let _ = std::fs::remove_dir_all(&jdir);

        // Kill the device at this slab boundary; the abort policy surfaces
        // the loss and the journal keeps everything committed so far.
        let dying = Pipeline {
            fault_plan: Some(FaultPlan::new(0).fail_after_launches(boundary as u64)),
            journal_dir: Some(jdir.clone()),
            ..Pipeline::default()
        };
        let err = dying.run_scan_file(&path, &cfg, GPU).unwrap_err();
        assert!(err.to_string().contains("device lost"), "{err}");
        assert_eq!(std::fs::read_dir(&jdir).unwrap().count(), 1);

        // A fresh process with --resume replays the journal and recomputes
        // only the tail — bit-identical to the uninterrupted run.
        let resumed = Pipeline {
            journal_dir: Some(jdir.clone()),
            resume: true,
            ..Pipeline::default()
        };
        let r = resumed.run_scan_file(&path, &cfg, GPU).unwrap();
        assert_eq!(r.image.data, baseline.image.data, "boundary {boundary}");
        assert_eq!(r.stats, baseline.stats, "boundary {boundary}");
        match r.recovery.resume.as_ref() {
            Some(info) => assert_eq!(info.slabs_replayed, boundary),
            None => assert_eq!(boundary, 0, "non-empty journals record provenance"),
        }
        // The completed run retires its journal: resuming is idempotent.
        assert_eq!(std::fs::read_dir(&jdir).unwrap().count(), 0);
    }

    std::fs::remove_dir_all(&jdir).ok();
    std::fs::remove_file(&path).ok();
}

/// The 12×10×14 demo scan as an in-memory job.
fn demo_job() -> SyntheticScan {
    SyntheticScanBuilder::new(12, 10, 14)
        .scatterers(6)
        .background(15.0)
        .seed(11)
        .build()
        .unwrap()
}

/// One quantum of at most `max_rows` fresh rows on `topology`, resumed
/// from `progress`.
fn quantum(
    topology: &gpu::Topology<'_>,
    scan: &SyntheticScan,
    progress: &mut SlabProgress,
    max_rows: usize,
) -> gpu::Reconstruction {
    let run = gpu::RunOptions {
        max_rows: Some(max_rows),
        ..gpu::RunOptions::default()
    };
    let mut source = InMemorySlabSource::new(scan.images.clone(), 14, 12, 10).unwrap();
    gpu::reconstruct(
        topology,
        &mut source,
        &scan.geometry,
        &cfg(),
        &run,
        progress,
        None,
    )
    .unwrap()
}

/// An uninterrupted run of the demo job on one device.
fn one_shot(scan: &SyntheticScan) -> gpu::Reconstruction {
    let device = Device::new(DeviceProps::tesla_m2070());
    let mut source = InMemorySlabSource::new(scan.images.clone(), 14, 12, 10).unwrap();
    let topology = gpu::Topology::device(&device);
    gpu::reconstruct_fresh(
        &topology,
        &mut source,
        &scan.geometry,
        &cfg(),
        &Default::default(),
    )
    .unwrap()
}

/// Fresh hardware: `nodes` new chassis (own PCIe bus, own host CPU) of
/// `per_node` devices each, linked by a fabric.
struct Machine {
    devices: Vec<Vec<Device>>,
    net: std::sync::Arc<laue::sim::Interconnect>,
}

impl Machine {
    fn new(nodes: usize, per_node: usize) -> Machine {
        let devices = (0..nodes)
            .map(|_| {
                let chassis = laue::sim::Host::new_default();
                (0..per_node)
                    .map(|_| Device::new_on_host(DeviceProps::tesla_m2070(), &chassis))
                    .collect()
            })
            .collect();
        let fabric = laue::sim::InterconnectProps::ib_qdr();
        let net = laue::sim::Interconnect::new("test", nodes, fabric);
        Machine { devices, net }
    }

    fn topology(&self) -> gpu::Topology<'_> {
        let nodes = self.devices.iter().map(|ds| ds.iter().collect()).collect();
        gpu::Topology::cluster(nodes, &self.net)
    }
}

/// The serve-layer preemption contract, exercised at its foundation: a
/// quantum-bounded run stopped at *every* slab boundary carries its
/// [`SlabProgress`] checkpoint to a different device on a **different
/// chassis** (fresh PCIe bus, fresh host CPU) and finishes bit-identical
/// to an uninterrupted single-device run. Migration is resume; if the
/// checkpoint were device- or chassis-flavored in any way, this catches it.
#[test]
fn preemption_resumes_on_a_foreign_chassis_at_every_slab_boundary() {
    let scan = demo_job();
    let baseline = one_shot(&scan);
    let n_bins = cfg().n_depth_bins;

    // Preempt after `boundary` committed slabs (2 rows each), resume the
    // tail on a device that shares nothing with the first.
    for boundary in 1..6 {
        let mut progress = SlabProgress::new(n_bins, 12, 10);
        let head = quantum(
            &Machine::new(1, 1).topology(),
            &scan,
            &mut progress,
            2 * boundary,
        );
        assert!(!head.complete, "boundary {boundary} must leave a tail");
        assert!(head.image.data.is_empty(), "the partial image stays put");
        assert_eq!(progress.committed_rows(), 2 * boundary);

        let tail = quantum(
            &Machine::new(1, 1).topology(),
            &scan,
            &mut progress,
            usize::MAX,
        );
        assert!(tail.complete, "boundary {boundary} tail must finish");
        assert_eq!(
            tail.image.data, baseline.image.data,
            "migrated resume at boundary {boundary} changed the bits"
        );
        assert_eq!(tail.stats, baseline.stats, "boundary {boundary} stats");
    }

    // The worst case: new hardware for every quantum — one device, one
    // chassis of two, or two chassis over a fabric — in quanta of 1, 2,
    // 3 or all 12 rows. The job tours up to twelve machines, lands on the
    // same bits, and reports `complete` on its last quantum only.
    for (nodes, per_node) in [(1, 1), (1, 2), (2, 1)] {
        for rows in [1usize, 2, 3, 12] {
            let tag = format!("{nodes}x{per_node}, {rows}-row quanta");
            let n_quanta = 12usize.div_ceil(rows);
            let mut progress = SlabProgress::new(n_bins, 12, 10);
            for q in 1..=n_quanta {
                let machine = Machine::new(nodes, per_node);
                let out = quantum(&machine.topology(), &scan, &mut progress, rows);
                assert_eq!(progress.committed_rows(), (q * rows).min(12), "{tag}");
                assert_eq!(out.complete, q == n_quanta, "{tag}: quantum {q}");
                if out.complete {
                    assert_eq!(out.image.data, baseline.image.data, "{tag}");
                    assert_eq!(out.stats, baseline.stats, "{tag}");
                } else {
                    assert!(out.image.data.is_empty(), "{tag}: quantum {q}");
                }
            }
        }
    }
}

#[test]
fn fleet_losing_any_one_device_completes_on_survivors() {
    let path = write_demo_scan("failover");
    let cfg = cfg();
    let fleet = Engine::GpuCluster {
        nodes: 1,
        devices_per_node: 4,
    };
    let clean = Pipeline::default()
        .run_scan_file(&path, &cfg, fleet)
        .unwrap();
    assert_eq!(clean.engine, "gpu-cluster(1x4)");
    assert_eq!(clean.recovery.devices_lost, 0);

    for victim in 0..4 {
        let p = Pipeline {
            fault_plan: Some(FaultPlan::new(0).fail_after_launches(1)),
            fault_device: Some(victim),
            ..Pipeline::default()
        };
        let r = p.run_scan_file(&path, &cfg, fleet).unwrap();
        assert_eq!(r.recovery.devices_lost, 1, "victim {victim}");
        assert!(
            r.fallback.is_none(),
            "survivors absorb the rows, no CPU fallback (victim {victim})"
        );
        assert_eq!(r.recovery.recomputed_slabs, 0, "victim {victim}");
        assert_eq!(r.image.data, clean.image.data, "victim {victim}");
        assert_eq!(r.stats, clean.stats, "victim {victim}");
        assert!(r.summary().contains("device(s) lost"), "{}", r.summary());
    }

    std::fs::remove_file(&path).ok();
}

#[test]
fn losing_every_device_salvages_committed_slabs_on_the_cpu() {
    let path = write_demo_scan("all_dead");
    // Force the serial ring so each device commits its first slab before
    // the fatal second launch (the default 3-deep ring would lose the
    // in-flight slab with the device).
    let mut cfg = cfg();
    cfg.set_plan(SERIAL_1D).unwrap();
    let cpu = Pipeline::default()
        .run_scan_file(&path, &cfg, Engine::CpuSeq)
        .unwrap();

    let p = Pipeline {
        fault_plan: Some(FaultPlan::new(0).fail_after_launches(1)),
        on_gpu_failure: GpuFailurePolicy::FallbackCpu,
        ..Pipeline::default()
    };
    let r = p
        .run_scan_file(
            &path,
            &cfg,
            Engine::GpuCluster {
                nodes: 1,
                devices_per_node: 4,
            },
        )
        .unwrap();
    assert_eq!(r.recovery.devices_lost, 4);
    assert!(
        r.recovery.salvaged_slabs >= 1,
        "each device committed a slab before dying: {:?}",
        r.recovery
    );
    assert!(r.recovery.recomputed_slabs >= 1, "{:?}", r.recovery);
    assert!(r.fallback.as_deref().unwrap().contains("gpu-cluster(1x4)"));
    assert_eq!(r.image.data, cpu.image.data);
    assert_eq!(r.stats, cpu.stats);
    assert!(r.summary().contains("DEGRADED"), "{}", r.summary());
    assert!(r.summary().contains("salvage:"), "{}", r.summary());

    std::fs::remove_file(&path).ok();
}

#[test]
fn interrupted_fleet_run_resumes_on_a_healthy_fleet() {
    let path = write_demo_scan("fleet_resume");
    let mut cfg = cfg();
    cfg.set_plan(SERIAL_1D).unwrap();
    let fleet = Engine::GpuCluster {
        nodes: 1,
        devices_per_node: 4,
    };
    let baseline = Pipeline::default()
        .run_scan_file(&path, &cfg, fleet)
        .unwrap();

    let jdir = tmp("fleet_jrn");
    let _ = std::fs::remove_dir_all(&jdir);
    let dying = Pipeline {
        fault_plan: Some(FaultPlan::new(0).fail_after_launches(1)),
        journal_dir: Some(jdir.clone()),
        ..Pipeline::default()
    };
    assert!(dying.run_scan_file(&path, &cfg, fleet).is_err());

    let resumed = Pipeline {
        journal_dir: Some(jdir.clone()),
        resume: true,
        ..Pipeline::default()
    };
    let r = resumed.run_scan_file(&path, &cfg, fleet).unwrap();
    assert_eq!(r.image.data, baseline.image.data);
    assert_eq!(r.stats, baseline.stats);
    let info = r.recovery.resume.as_ref().expect("resume provenance");
    assert!(info.slabs_replayed >= 1);
    assert_eq!(std::fs::read_dir(&jdir).unwrap().count(), 0);

    std::fs::remove_dir_all(&jdir).ok();
    std::fs::remove_file(&path).ok();
}

#[test]
fn journal_of_a_different_run_is_ignored() {
    let path = write_demo_scan("keyed");
    let jdir = tmp("keyed_jrn");
    let _ = std::fs::remove_dir_all(&jdir);
    let cfg = serial();

    // Interrupt a 200-bin run...
    let dying = Pipeline {
        fault_plan: Some(FaultPlan::new(0).fail_after_launches(3)),
        journal_dir: Some(jdir.clone()),
        ..Pipeline::default()
    };
    assert!(dying
        .run_scan_file(&path, &cfg, GPU)
        .unwrap_err() // journal stays
        .to_string()
        .contains("device lost"));

    // ...then resume with a different config: the key differs, so nothing
    // is replayed and the run is a correct fresh start.
    let mut other = cfg.clone();
    other.n_depth_bins = 150;
    let fresh = Pipeline::default()
        .run_scan_file(&path, &other, GPU)
        .unwrap();
    let resumed = Pipeline {
        journal_dir: Some(jdir.clone()),
        resume: true,
        ..Pipeline::default()
    };
    let r = resumed.run_scan_file(&path, &other, GPU).unwrap();
    assert!(
        r.recovery.resume.is_none(),
        "mismatched key must not replay"
    );
    assert_eq!(r.image.data, fresh.image.data);
    // The 200-bin journal is still there for its own resume.
    assert_eq!(std::fs::read_dir(&jdir).unwrap().count(), 1);

    std::fs::remove_dir_all(&jdir).ok();
    std::fs::remove_file(&path).ok();
}

#[test]
fn cli_checkpoint_resume_round_trip() {
    let scan_path = write_demo_scan("cli");
    let scan_s = scan_path.to_string_lossy().to_string();
    let jdir = tmp("cli_jrn");
    let _ = std::fs::remove_dir_all(&jdir);
    let jdir_s = jdir.to_string_lossy().to_string();
    let sv = |args: &[&str]| -> Vec<String> { args.iter().map(|s| s.to_string()).collect() };
    let base = [
        "reconstruct",
        "--input",
        &scan_s,
        "--plan",
        "flat1d/inkernel/k1/r2",
        "--bins",
        "200",
        "--journal-dir",
        &jdir_s,
    ];

    // Interrupted run: scripted device death, default abort policy.
    let mut argv = sv(&base);
    argv.extend(sv(&["--inject-gpu-fault", "dead-after-launches=2"]));
    let cmd = cli::parse(&argv).unwrap();
    assert!(cli::run(&cmd, &mut Vec::new()).is_err());
    assert_eq!(std::fs::read_dir(&jdir).unwrap().count(), 1);

    // `--resume` finishes the job and says where it picked up.
    let mut argv = sv(&base);
    argv.push("--resume".into());
    let cmd = cli::parse(&argv).unwrap();
    let mut buf = Vec::new();
    cli::run(&cmd, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("resumed from journal"), "{text}");
    assert!(text.contains("2 slab(s) replayed"), "{text}");
    assert_eq!(std::fs::read_dir(&jdir).unwrap().count(), 0);

    // `--resume` without `--journal-dir` is rejected at parse time.
    let err = cli::parse(&sv(&["reconstruct", "--input", &scan_s, "--resume"])).unwrap_err();
    assert!(err.contains("--journal-dir"), "{err}");

    // A one-chassis fleet parses and runs from the CLI too.
    let cmd = cli::parse(&sv(&[
        "reconstruct",
        "--input",
        &scan_s,
        "--engine",
        "gpu-cluster:1x3",
        "--bins",
        "200",
    ]))
    .unwrap();
    let mut buf = Vec::new();
    cli::run(&cmd, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("gpu-cluster(1x3)"), "{text}");
    assert!(cli::parse(&sv(&[
        "reconstruct",
        "--input",
        &scan_s,
        "--engine",
        "gpu-cluster:1x0"
    ]))
    .is_err());

    std::fs::remove_dir_all(&jdir).ok();
    std::fs::remove_file(&scan_path).ok();
}
