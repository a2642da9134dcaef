//! The scan workloads: `.mh5` scans opened, reconstructed and exported
//! through the pipeline, each op checked bit for bit against `cpu-seq`.
//!
//! An op is one scan: `ScanFile::open`, `Pipeline::run_source_keyed`,
//! `export::write_mh5`. Set-up writes the scans and computes the `cpu-seq`
//! references. Ops cycle over the scans as a closed loop with one client.

use std::error::Error;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use cuda_sim::{DeviceProps, HostProps};
use laue_core::planner::{plan_run, TableWarmth};
use laue_core::{
    cpu, IntegrityMode, PlanMode, ReconstructionConfig, ScanGeometry, ScanView, SlabSource,
};
use laue_pipeline::report::PlanExplain;
use laue_pipeline::{export, file_fingerprint, ClusterReport, Engine, Pipeline, RunReport};
use laue_wire::{write_scan, ScanFile, SyntheticScanBuilder};

use crate::metrics::{median, peak_rss_mb, tail, timed_setup, Metrics};
use crate::{Args, Outcome};

type Result<T> = std::result::Result<T, Box<dyn Error>>;

/// Smallest of the paper's Fig 8 datasets, bytes. A scan of `b` bytes runs
/// on a device whose memory is scaled by `b / PAPER_SCAN_BYTES`, so it
/// streams slabs the way the paper's GB-scale runs did.
const PAPER_SCAN_BYTES: f64 = 2.1e9;

/// Distinct scans per run; ops cycle over them.
const N_SCANS: usize = 4;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Fewest timed ops per run, however short `--seconds` is.
const MIN_OPS: usize = 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `dense-stream`: noisy dense scans on the single-device ring.
    DenseStream,
    /// `sparse-verified`: sparse scans, planner on, integrity verify, journal.
    SparseVerified,
    /// `cluster-gather`: dense scans on 4 nodes × 2 devices.
    ClusterGather,
}

struct Spec {
    kind: Kind,
    /// Nominal detector rows; each scan's own count is near it.
    rows: usize,
    cols: usize,
    steps: usize,
    engine: Engine,
    cfg: ReconstructionConfig,
}

impl Spec {
    fn of(kind: Kind) -> Spec {
        let mut cfg = ReconstructionConfig::new(-4000.0, 4000.0, 200);
        let engine = match kind {
            Kind::DenseStream => Engine::GpuPipelined,
            Kind::SparseVerified => {
                cfg.intensity_cutoff = 2.5;
                cfg.plan = PlanMode::Auto;
                cfg.integrity = IntegrityMode::Verify;
                Engine::GpuPipelined
            }
            Kind::ClusterGather => Engine::GpuCluster {
                nodes: 4,
                devices_per_node: 2,
            },
        };
        Spec {
            kind,
            rows: 64,
            cols: 64,
            steps: 64,
            engine,
            cfg,
        }
    }

    fn input_bytes(&self, rows: usize) -> u64 {
        (rows * self.cols * self.steps * 2) as u64
    }

    /// Detector rows of every scan of a run: the nominal count ± 2, drawn
    /// from the seed, so virtual times differ from seed to seed.
    fn rows_of(&self, seed: u64) -> usize {
        self.rows - 2 + (splitmix64(seed) % 5) as usize
    }

    fn builder(&self, rows: usize, seed: u64) -> SyntheticScanBuilder {
        let b = SyntheticScanBuilder::new(rows, self.cols, self.steps).seed(seed);
        match self.kind {
            Kind::DenseStream | Kind::ClusterGather => b
                .scatterers(rows * self.cols / 16)
                .background(20.0)
                .noise(1.0),
            Kind::SparseVerified => b
                .scatterers(rows * self.cols / 64)
                .background(0.0)
                .noise(1.0),
        }
    }

    fn device(&self) -> DeviceProps {
        let m2070 = DeviceProps::tesla_m2070();
        let scale = self.input_bytes(self.rows) as f64 / PAPER_SCAN_BYTES;
        DeviceProps {
            total_mem: (m2070.total_mem as f64 * scale) as u64,
            ..m2070
        }
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One scan on disk with its `cpu-seq` reference.
struct Scan {
    path: PathBuf,
    input_bytes: u64,
    geometry: ScanGeometry,
    fingerprint: u64,
    reference: Vec<f64>,
    cpu_s: f64,
}

struct Prepared {
    scans: Vec<Scan>,
    pipeline: Pipeline,
}

fn prepare(spec: &Spec, seed: u64, dir: &Path) -> Result<Prepared> {
    if dir.exists() {
        fs::remove_dir_all(dir)?;
    }
    fs::create_dir_all(dir)?;
    let host = HostProps::xeon_e5630();
    let rows = spec.rows_of(seed);
    let mut scans = Vec::with_capacity(N_SCANS);
    for i in 0..N_SCANS {
        let synth = spec
            .builder(rows, seed * N_SCANS as u64 + i as u64)
            .build()?;
        let path = dir.join(format!("scan{i}.mh5"));
        write_scan(&path, &synth.geometry, &synth.images, Some(&synth.truth), 8)?;
        // The reference reads the file back, so it sees the u16 counts the
        // pipeline will stream.
        let file = ScanFile::open(&path)?;
        let stack = file.read_full()?;
        let view = ScanView::new(&stack, spec.steps, rows, spec.cols)?;
        let cpu = cpu::reconstruct_seq(&view, file.geometry(), &spec.cfg)?;
        scans.push(Scan {
            input_bytes: spec.input_bytes(rows),
            fingerprint: file_fingerprint(&path)?,
            geometry: file.geometry().clone(),
            cpu_s: cpu.modeled_time_s(&host, 1),
            reference: cpu.image.data,
            path,
        });
    }
    let journal_dir = (spec.kind == Kind::SparseVerified).then(|| dir.join("journal"));
    let pipeline = Pipeline {
        device: spec.device(),
        host,
        journal_dir,
        ..Pipeline::default()
    };
    Ok(Prepared { scans, pipeline })
}

/// `SlabSource` wrapper that times and counts every `read_slab` call.
struct TimedSource<'a> {
    inner: &'a mut ScanFile,
    wall_s: f64,
    calls: u64,
    bytes: u64,
}

impl SlabSource for TimedSource<'_> {
    fn n_images(&self) -> usize {
        self.inner.n_images()
    }

    fn n_rows(&self) -> usize {
        self.inner.n_rows()
    }

    fn n_cols(&self) -> usize {
        self.inner.n_cols()
    }

    fn read_slab(&mut self, row0: usize, n_rows_slab: usize) -> laue_core::Result<Vec<f64>> {
        let t = Instant::now();
        let slab = self.inner.read_slab(row0, n_rows_slab);
        self.wall_s += t.elapsed().as_secs_f64();
        self.calls += 1;
        // Logical u16 detector bytes delivered.
        self.bytes += (self.inner.n_images() * n_rows_slab * self.inner.n_cols() * 2) as u64;
        slab
    }
}

/// Per-layer wall times and counts of one traced op.
#[derive(Clone, Copy)]
struct LayerWall {
    read_s: f64,
    read_calls: u64,
    read_bytes: u64,
    run_s: f64,
    export_s: f64,
    export_bytes: u64,
}

struct Op {
    wall_s: f64,
    report: RunReport,
    layers: Option<LayerWall>,
}

/// One op: open the scan, reconstruct it, export the result.
fn run_op(spec: &Spec, prep: &Prepared, i: usize, traced: bool, out: &Path) -> Result<Op> {
    let scan = &prep.scans[i];
    let t0 = Instant::now();
    let mut file = ScanFile::open(&scan.path)?;
    let fp = Some(scan.fingerprint);
    let (report, layers) = if traced {
        let mut src = TimedSource {
            inner: &mut file,
            wall_s: 0.0,
            calls: 0,
            bytes: 0,
        };
        let t = Instant::now();
        let report =
            prep.pipeline
                .run_source_keyed(&mut src, &scan.geometry, &spec.cfg, spec.engine, fp)?;
        let run_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        export::write_mh5(out, &report, &spec.cfg)?;
        let export_s = t.elapsed().as_secs_f64();
        let layers = LayerWall {
            read_s: src.wall_s,
            read_calls: src.calls,
            read_bytes: src.bytes,
            run_s,
            export_s,
            export_bytes: fs::metadata(out)?.len(),
        };
        (report, Some(layers))
    } else {
        let report = prep.pipeline.run_source_keyed(
            &mut file,
            &scan.geometry,
            &spec.cfg,
            spec.engine,
            fp,
        )?;
        export::write_mh5(out, &report, &spec.cfg)?;
        (report, None)
    };
    Ok(Op {
        wall_s: t0.elapsed().as_secs_f64(),
        report,
        layers,
    })
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Read an exported depth image back from its `.mh5` file.
fn read_export(path: &Path) -> Result<Vec<f64>> {
    let r = mh5::FileReader::open(path)?;
    let ds = r.resolve_path("/reconstruction/depth_image")?;
    Ok(r.read_all(ds)?)
}

/// Assert that the run exercised the mechanism the workload exists for.
fn guard(spec: &Spec, r: &RunReport) -> std::result::Result<(), String> {
    let ok = match spec.kind {
        Kind::DenseStream => r.n_slabs > r.pipeline_depth,
        Kind::SparseVerified => {
            r.plan.is_some()
                && (r.stats.culled_rows > 0 || r.stats.compacted_pairs > 0)
                && r.integrity.checks_run > 0
        }
        Kind::ClusterGather => r
            .cluster
            .as_ref()
            .is_some_and(|c| c.net_bytes > 0 && c.nodes.iter().all(|n| n.devices >= 2)),
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "mechanism guard failed for {:?}: slabs {} ring {} plan {} culled {} \
             compacted {} checks {} cluster {:?}",
            spec.kind,
            r.n_slabs,
            r.pipeline_depth,
            r.plan.is_some(),
            r.stats.culled_rows,
            r.stats.compacted_pairs,
            r.integrity.checks_run,
            r.cluster.as_ref().map(|c| (c.net_bytes, c.nodes.len()))
        ))
    }
}

pub fn run(kind: Kind, args: &Args, dir: &Path) -> Result<Outcome> {
    let spec = Spec::of(kind);
    let (prep, setup_s) = timed_setup(SETUPS, || prepare(&spec, args.seed, &dir.join("scans")))?;
    let out = dir.join("out.mh5");
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // Reference pass: one op per scan, its export read back too. Its
    // virtual numbers are the run's deterministic ones; it also warms
    // every cache before timing starts.
    let mut first = Vec::with_capacity(N_SCANS);
    for i in 0..N_SCANS {
        let mut op = run_op(&spec, &prep, i, args.trace, &out)?;
        guard(&spec, &op.report)?;
        attempted += 1;
        let reference = &prep.scans[i].reference;
        if !same_bits(&op.report.image.data, reference)
            || !same_bits(&read_export(&out)?, reference)
        {
            eprintln!("scan {i}: output differs from the cpu-seq reference");
            failed += 1;
        }
        // Kept ops keep their counters, not their images.
        op.report.image.data = Vec::new();
        first.push(op);
    }

    // Timed loop. A traced run alternates untraced and traced ops so the
    // two samples see the same machine conditions.
    let mut plain_wall = Vec::new();
    let mut traced = Vec::new();
    let mut plan_wall = Vec::new();
    let start = Instant::now();
    let mut n = 0usize;
    while start.elapsed().as_secs_f64() < args.seconds || n < MIN_OPS {
        let i = n % N_SCANS;
        let trace_this = args.trace && n % 2 == 1;
        let mut op = run_op(&spec, &prep, i, trace_this, &out)?;
        attempted += 1;
        if !same_bits(&op.report.image.data, &prep.scans[i].reference) {
            eprintln!("op {n} (scan {i}): output differs from the cpu-seq reference");
            failed += 1;
        }
        if trace_this && spec.cfg.plan == PlanMode::Auto {
            plan_wall.push(time_plan(&spec, &prep, i)?);
        }
        match op.layers {
            Some(_) => {
                op.report.image.data = Vec::new();
                traced.push(op);
            }
            None => plain_wall.push(op.wall_s),
        }
        n += 1;
    }

    let mut m = Metrics::default();
    if args.trace {
        layer_metrics(&mut m, &prep, &first, &traced, &plan_wall, &plain_wall);
    } else {
        let virt: Vec<f64> = first.iter().map(|o| o.report.total_time_s).collect();
        let virt_sum: f64 = virt.iter().sum();
        let cpu_sum: f64 = prep.scans.iter().map(|s| s.cpu_s).sum();
        let input_mb: f64 = prep.scans.iter().map(|s| s.input_bytes as f64 / 1e6).sum();
        let p50 = median(&plain_wall);
        let t = tail(&plain_wall);
        println!(
            "{}: {n} timed ops; op_wall_tail_s is p{:.1} of {} ops; job_tail_s is the \
             slowest of {N_SCANS} scans (closed loop, one client)",
            args.workload, t.percentile, t.samples
        );
        m.put("setup_s", setup_s, "s");
        m.put("op_wall_p50_s", p50, "s");
        m.put("op_wall_tail_s", t.value, "s");
        m.put("wall_mb_per_s", input_mb / N_SCANS as f64 / p50, "MB/s");
        m.put("virtual_mb_per_s", input_mb / virt_sum, "MB/s");
        m.put("virtual_speedup_vs_cpu", cpu_sum / virt_sum, "x");
        m.put(
            "ok_frac",
            (attempted - failed) as f64 / attempted as f64,
            "ratio",
        );
        m.put("job_p50_s", median(&virt), "s");
        m.put("job_tail_s", virt.iter().cloned().fold(0.0, f64::max), "s");
        m.put("sustained_jobs_per_s", N_SCANS as f64 / virt_sum, "1/s");
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
    })
}

/// One timed `plan_run` call on a fresh handle (its reads are not counted
/// against the op's mh5 layer).
fn time_plan(spec: &Spec, prep: &Prepared, i: usize) -> Result<f64> {
    let scan = &prep.scans[i];
    let mut file = ScanFile::open(&scan.path)?;
    let props = &prep.pipeline.device;
    let warmth = TableWarmth {
        host_warm: true,
        device_warm: false,
        resident_budget: props.total_mem / 4,
    };
    let t = Instant::now();
    plan_run(
        props,
        &prep.pipeline.host,
        &mut file,
        &scan.geometry,
        &spec.cfg,
        warmth,
    )?;
    Ok(t.elapsed().as_secs_f64())
}

fn mean<T>(xs: &[T], f: impl Fn(&T) -> f64) -> f64 {
    xs.iter().map(f).sum::<f64>() / xs.len() as f64
}

/// Per-layer metrics. Counters and virtual times are per-op means over the
/// reference pass (deterministic for a seed); wall times are medians over
/// the traced ops of the timed loop.
fn layer_metrics(
    m: &mut Metrics,
    prep: &Prepared,
    first: &[Op],
    traced: &[Op],
    plan_wall: &[f64],
    plain_wall: &[f64],
) {
    let reports: Vec<&RunReport> = first.iter().map(|o| &o.report).collect();
    let layers: Vec<(LayerWall, u64)> = first
        .iter()
        .zip(&prep.scans)
        .map(|(o, s)| {
            (
                o.layers.expect("the reference pass is traced"),
                s.input_bytes,
            )
        })
        .collect();
    let med = |f: &dyn Fn(&Op, &LayerWall) -> f64| {
        median(
            &traced
                .iter()
                .map(|o| f(o, o.layers.as_ref().expect("traced op")))
                .collect::<Vec<_>>(),
        )
    };

    m.put("mh5.read_wall_s", med(&|_, l| l.read_s), "s");
    m.put(
        "mh5.read_calls",
        mean(&layers, |l| l.0.read_calls as f64),
        "count",
    );
    m.put(
        "mh5.read_mb",
        mean(&layers, |l| l.0.read_bytes as f64 / 1e6),
        "MB",
    );
    m.put(
        "mh5.read_amplification",
        mean(&layers, |l| l.0.read_bytes as f64 / l.1 as f64),
        "ratio",
    );
    m.put("export.write_wall_s", med(&|_, l| l.export_s), "s");
    m.put(
        "export.write_mb",
        mean(&layers, |l| l.0.export_bytes as f64 / 1e6),
        "MB",
    );

    if !plan_wall.is_empty() {
        m.put("planner.plan_wall_s", median(plan_wall), "s");
    }
    let plans: Vec<&PlanExplain> = reports.iter().filter_map(|r| r.plan.as_ref()).collect();
    if !plans.is_empty() {
        m.put(
            "planner.candidates",
            mean(&plans, |p| p.candidates.len() as f64),
            "count",
        );
        m.put(
            "planner.prediction_error",
            mean(&plans, |p| p.prediction_error()),
            "ratio",
        );
        m.put("planner.host_s", mean(&plans, |p| p.host_s), "s");
    }

    m.put("gpu.comm_virtual_s", mean(&reports, |r| r.comm_time_s), "s");
    m.put(
        "gpu.compute_virtual_s",
        mean(&reports, |r| r.compute_time_s),
        "s",
    );
    m.put(
        "gpu.bus_wait_virtual_s",
        mean(&reports, |r| r.bus_wait_s),
        "s",
    );
    m.put(
        "gpu.host_table_virtual_s",
        mean(&reports, |r| r.host_table_time_s),
        "s",
    );
    m.put("gpu.slabs", mean(&reports, |r| r.n_slabs as f64), "count");
    m.put(
        "gpu.transfers",
        mean(&reports, |r| r.transfers as f64),
        "count",
    );
    m.put(
        "gpu.overlap_ratio",
        mean(&reports, |r| {
            r.total_time_s / (r.comm_time_s + r.compute_time_s)
        }),
        "ratio",
    );
    m.put(
        "gpu.active_fraction",
        mean(&reports, |r| r.stats.active_fraction()),
        "ratio",
    );
    m.put(
        "gpu.culled_rows",
        mean(&reports, |r| r.stats.culled_rows as f64),
        "count",
    );
    m.put(
        "gpu.compacted_pairs",
        mean(&reports, |r| r.stats.compacted_pairs as f64),
        "count",
    );

    m.put(
        "sim.engine_self_wall_s",
        med(&|_, l| l.run_s - l.read_s),
        "s",
    );
    m.put(
        "sim.wall_per_virtual",
        med(&|o, l| l.run_s / o.report.total_time_s),
        "ratio",
    );
    m.put(
        "sim.wall_ns_per_pair",
        med(&|o, l| l.run_s / o.report.stats.pairs_total as f64 * 1e9),
        "ns",
    );

    m.put(
        "integrity.checks_run",
        mean(&reports, |r| r.integrity.checks_run as f64),
        "count",
    );
    m.put(
        "integrity.verify_host_cpu_s",
        mean(&reports, |r| r.integrity.verify_host_cpu_s),
        "s",
    );
    m.put(
        "integrity.exposed_overhead_s",
        mean(&reports, |r| r.integrity.exposed_overhead_s),
        "s",
    );

    m.put(
        "cache.host_hits",
        mean(&reports, |r| r.table_cache.host_hits as f64),
        "count",
    );
    m.put(
        "cache.host_misses",
        mean(&reports, |r| r.table_cache.host_misses as f64),
        "count",
    );
    m.put(
        "cache.device_hits",
        mean(&reports, |r| r.table_cache.device_hits as f64),
        "count",
    );
    m.put(
        "cache.device_misses",
        mean(&reports, |r| r.table_cache.device_misses as f64),
        "count",
    );

    let clusters: Vec<&ClusterReport> = reports.iter().filter_map(|r| r.cluster.as_ref()).collect();
    if !clusters.is_empty() {
        m.put(
            "cluster.reduction_exposed_s",
            mean(&clusters, |c| c.reduction_exposed_s),
            "s",
        );
        m.put("cluster.net_wait_s", mean(&clusters, |c| c.net_wait_s), "s");
        m.put(
            "cluster.net_bytes",
            mean(&clusters, |c| c.net_bytes as f64),
            "bytes",
        );
        m.put(
            "cluster.net_messages",
            mean(&clusters, |c| c.net_messages as f64),
            "count",
        );
    }

    let traced_wall: Vec<f64> = traced.iter().map(|o| o.wall_s).collect();
    m.put(
        "trace.overhead_frac",
        median(&traced_wall) / median(plain_wall),
        "ratio",
    );
}
