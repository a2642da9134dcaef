//! Machine-readable pipeline benchmark: one JSON report covering the
//! CPU/GPU ladder, the ring-depth ablation, and the depth-table cache.
//!
//! Times are **virtual seconds** from the calibrated M2070/E5630 models
//! (deterministic, machine-independent); `wall_clock_s` is the real time
//! the harness itself took, for CI trend-watching only.
//!
//! Run: `cargo run --release -p laue-bench --bin bench_report -- \
//!       [--quick] [--out BENCH_pipeline.json] [--check ci/perf_smoke_baseline.txt]`
//!
//! `--quick --check FILE` turns the report into a perf gate: lines 1–5
//! of FILE (`ci/perf_smoke_baseline.txt`) budget the compact/dense
//! kernel-time ratio at the ~25 %-active operating point, the
//! privatized/atomic kernel-time ratio, the depth-3/serial ring elapsed
//! ratio under the shared-bus model, the plan-auto/best-fixed total-time
//! ratio and the `--integrity verify`/off total-time ratio, all measured
//! on the quick 0.5 MB workload (`--check` without `--quick` exits 2
//! before running anything); the process exits 1 if any
//! measured ratio regresses past its line or the line is missing.

use std::time::Instant;

use cuda_sim::{Device, DeviceProps};
use laue_bench::report::{self, Args, Bound, Json};
use laue_bench::{
    delta_percentile, pinned, standard_config, Workload, SERIAL_1D, SERIAL_3D, SERIAL_TABLES,
};
use laue_core::cache::TableCacheStats;
use laue_core::gpu::{PipelineDepth, RunOptions};
use laue_core::{AccumulationMode, CompactionMode, IntegrityMode, PlanMode};
use laue_pipeline::{Engine, Pipeline};

fn json_stats(s: &TableCacheStats) -> Json {
    Json::object([
        ("host_hits", s.host_hits.into()),
        ("host_misses", s.host_misses.into()),
        ("device_hits", s.device_hits.into()),
        ("device_misses", s.device_misses.into()),
        ("evictions", s.evictions.into()),
        ("resident_bytes", s.resident_bytes.into()),
    ])
}

fn main() {
    let args = Args::parse("BENCH_pipeline.json");
    let quick = args.quick;
    if let (Some(path), false) = (&args.check, quick) {
        eprintln!(
            "--check: lines 1-5 of {path} budget only the quick 0.5 MB workload; \
             run `bench_report --quick --check {path}`"
        );
        std::process::exit(2);
    }
    let started = Instant::now();

    // 1. The CPU/GPU ladder over the Fig 8 sizes (one size in quick mode).
    let workloads: Vec<Workload> = if quick {
        vec![Workload::of_megabytes(0.5, 100)]
    } else {
        Workload::fig8_set()
    };
    let cfg = standard_config();
    let pipeline = Pipeline::default();
    let mut ladder = Vec::new();
    let mut ladder_totals = Vec::new(); // (label, cpu_s, gpu_serial_s, gpu_pipe_s)
    for w in &workloads {
        // Every row (and every section below) carries the quick marker so
        // a consumer can never mistake the abbreviated quick ladder for
        // the full Fig 8 one.
        let mut row = vec![
            ("quick".to_string(), quick.into()),
            ("label".to_string(), w.label.as_str().into()),
            ("bytes".to_string(), w.bytes.into()),
        ];
        let mut cpu_total = 0.0;
        let mut serial = (0.0, 0.0, 0.0); // (total, comm, compute)
        let mut pipe_total = 0.0;
        for (key, engine, cfg) in [
            ("cpu_seq", Engine::CpuSeq, cfg.clone()),
            ("gpu_serial", Engine::GpuPipelined, pinned(&cfg, SERIAL_1D)),
            ("gpu_pipe", Engine::GpuPipelined, cfg.clone()),
        ] {
            let mut source = w.source();
            let r = pipeline
                .run_source(&mut source, &w.scan.geometry, &cfg, engine)
                .expect("pipeline run");
            match key {
                "cpu_seq" => cpu_total = r.total_time_s,
                "gpu_serial" => serial = (r.total_time_s, r.comm_time_s, r.compute_time_s),
                "gpu_pipe" => pipe_total = r.total_time_s,
                _ => {}
            }
            row.push((
                key.to_string(),
                Json::object([
                    ("total_s", Json::Float(r.total_time_s, 9)),
                    ("comm_s", Json::Float(r.comm_time_s, 9)),
                    ("bus_wait_s", Json::Float(r.bus_wait_s, 9)),
                    ("compute_s", Json::Float(r.compute_time_s, 9)),
                    ("pipeline_depth", r.pipeline_depth.into()),
                    ("replans", r.gpu_replans.into()),
                    ("transfer_retries", r.gpu_transfer_retries.into()),
                    ("trace_dropped", r.trace_dropped.into()),
                ]),
            ));
        }
        // Which resource dominates the serial GPU run at this size, and how
        // much of it the overlapped ring claws back — the §III comm-vs-comp
        // axis as two derived columns.
        let (serial_total, serial_comm, serial_compute) = serial;
        row.push((
            "bus_bound".to_string(),
            (serial_comm > serial_compute).into(),
        ));
        row.push((
            "ring_saving_s".to_string(),
            Json::Float(serial_total - pipe_total, 9),
        ));
        ladder.push(Json::Object(row));
        ladder_totals.push((w.label.clone(), cpu_total, serial.0, pipe_total));
    }

    // Ladder gates: the paper's headline orderings must hold at *every*
    // Fig 8 size — GPU beats CPU and the overlapped ring never loses to
    // the serial schedule. They only mean something on the full
    // multi-size ladder; the quick mode's single 0.5 MB row (marked
    // "quick" above) is skipped.
    if quick {
        println!("ladder gates skipped (quick mode: single-row ladder)");
    } else {
        for (label, cpu_s, serial_s, pipe_s) in &ladder_totals {
            assert!(
                serial_s < cpu_s,
                "ladder gate: gpu-serial ({serial_s:.4} s) must beat cpu-seq \
                 ({cpu_s:.4} s) at {label}"
            );
            assert!(
                pipe_s <= serial_s,
                "ladder gate: the overlapped ring ({pipe_s:.4} s) must not lose \
                 to the serial schedule ({serial_s:.4} s) at {label}"
            );
        }
        println!(
            "ladder gates: gpu < cpu and pipe <= serial at all {} sizes",
            ladder_totals.len()
        );
    }

    // 2. Ring-depth ablation on the largest stack, memory-capped so it
    // streams in many slabs.
    let w = workloads.last().unwrap();
    let props = DeviceProps {
        total_mem: 32 * 1024 * 1024,
        ..DeviceProps::tesla_m2070()
    };
    let mut slab_cfg = standard_config();
    slab_cfg.rows_per_slab = Some(if quick { 4 } else { 8 });
    let mut ablation = Vec::new();
    let mut ring_elapsed = Vec::new();
    for k in [1usize, 2, 3, 4] {
        let device = Device::new(props.clone());
        let run = RunOptions {
            depth: PipelineDepth(k),
            ..RunOptions::default()
        };
        let out = w.run_on(&device, &slab_cfg, &run).expect("reconstruction");
        // No free bandwidth: one half-duplex link can never finish the
        // schedule faster than the total transfer time it carries.
        assert!(
            out.elapsed_s + 1e-12 >= out.meters.comm_time_s,
            "ring depth {k} finished below the bus floor ({} vs {} s)",
            out.elapsed_s,
            out.meters.comm_time_s
        );
        if k == 1 {
            assert_eq!(
                out.meters.bus_wait_s, 0.0,
                "the serial schedule never contends with itself"
            );
        }
        ring_elapsed.push(out.elapsed_s);
        ablation.push(Json::object([
            ("ring_depth", out.pipeline_depth.into()),
            ("n_slabs", out.n_slabs.into()),
            ("total_s", Json::Float(out.elapsed_s, 9)),
            ("comm_s", Json::Float(out.meters.comm_time_s, 9)),
            ("bus_wait_s", Json::Float(out.meters.bus_wait_s, 9)),
            ("compute_s", Json::Float(out.meters.compute_time_s, 9)),
        ]));
    }
    let ring_ratio = ring_elapsed[2] / ring_elapsed[0];

    // 3. Depth-table cache: a cold run computes and uploads the tables, a
    // warm run on the same pipeline reuses the resident copy.
    let cache_pipeline = Pipeline::default();
    let tables_cfg = pinned(&cfg, SERIAL_TABLES);
    let run_tables = || {
        let mut source = w.source();
        cache_pipeline
            .run_source(
                &mut source,
                &w.scan.geometry,
                &tables_cfg,
                Engine::GpuPipelined,
            )
            .expect("gpu-tables run")
    };
    let cold = run_tables();
    let warm = run_tables();
    assert_eq!(
        cold.image.data, warm.image.data,
        "warm run must be bit-identical"
    );

    // 4. Multi-GPU failover: a 4-device fleet, clean vs. losing one device
    // at its first slab boundary — survivors absorb the rows, same bits.
    // Small slabs so even the quick workload gives every device several
    // launches (the scripted death needs a second one to trip at).
    let fleet = Engine::GpuCluster {
        nodes: 1,
        devices_per_node: 4,
    };
    let mut fleet_cfg = standard_config();
    fleet_cfg.rows_per_slab = Some(if quick { 4 } else { 8 });
    let mut source = w.source();
    let clean_fleet = Pipeline::default()
        .run_source(&mut source, &w.scan.geometry, &fleet_cfg, fleet)
        .expect("gpu-cluster:1x4 run");
    let faulty = Pipeline {
        fault_plan: Some(cuda_sim::FaultPlan::new(0).fail_after_launches(1)),
        fault_device: Some(1),
        ..Pipeline::default()
    };
    let mut source = w.source();
    let degraded_fleet = faulty
        .run_source(&mut source, &w.scan.geometry, &fleet_cfg, fleet)
        .expect("gpu-cluster:1x4 failover run");
    assert_eq!(
        clean_fleet.image.data, degraded_fleet.image.data,
        "failover must be bit-identical"
    );
    assert_eq!(degraded_fleet.recovery.devices_lost, 1);

    // 5. Sparsity compaction: dense vs compacted serial 1-D at the paper's
    // ~25 %-active operating point (Fig 9's sparsest column). The compact
    // run must stay bit-identical and — prescan cost included — cut the
    // modeled kernel time; `--check` turns the ratio into a CI gate.
    let sparse_cutoff = delta_percentile(w, 0.75);
    let run_mode = |mode: CompactionMode| {
        let mut c = pinned(&standard_config(), SERIAL_1D);
        c.intensity_cutoff = sparse_cutoff;
        c.compaction = mode;
        let mut source = w.source();
        Pipeline::default()
            .run_source(&mut source, &w.scan.geometry, &c, Engine::GpuPipelined)
            .expect("compaction run")
    };
    let dense = run_mode(CompactionMode::Off);
    let compact = run_mode(CompactionMode::On);
    let auto = run_mode(CompactionMode::Auto);
    assert_eq!(
        dense.image.data, compact.image.data,
        "compacted run must be bit-identical to dense"
    );
    assert_eq!(
        dense.image.data, auto.image.data,
        "auto run must be bit-identical to dense"
    );
    let mean_density = |r: &laue_pipeline::RunReport| {
        if r.slab_densities.is_empty() {
            0.0
        } else {
            r.slab_densities.iter().sum::<f64>() / r.slab_densities.len() as f64
        }
    };
    let compact_ratio = compact.compute_time_s / dense.compute_time_s;

    // 6. Accumulation strategy: the paper's CAS-loop atomicAdd(double) vs
    // the shared-memory privatized tiles, dense serial 1-D on the same stack.
    // The privatized run must stay bit-identical and cut the modeled
    // kernel time; `--check` gates the ratio (baseline line 2).
    let run_accum = |mode: AccumulationMode| {
        let mut c = pinned(&standard_config(), SERIAL_1D);
        c.accumulation = mode;
        let mut source = w.source();
        Pipeline::default()
            .run_source(&mut source, &w.scan.geometry, &c, Engine::GpuPipelined)
            .expect("accumulation run")
    };
    let atomic = run_accum(AccumulationMode::Atomic);
    let privatized = run_accum(AccumulationMode::Privatized);
    assert_eq!(
        atomic.image.data, privatized.image.data,
        "privatized run must be bit-identical to atomic"
    );
    assert_eq!(
        privatized.stats.privatized_pairs, privatized.stats.pairs_total,
        "200 bins fit the M2070 tile, so every slab privatizes"
    );
    let accum_ratio = privatized.compute_time_s / atomic.compute_time_s;

    // 7. Self-tuning planner: `--plan auto` vs the best fixed configuration
    // on the same stack. The explain block's predicted virtual time must
    // track the measured one, and auto must stay within a few percent of
    // the best fixed contender; `--check` gates the ratio (baseline line 4).
    let run_fixed = |plan: &str| {
        let mut c = pinned(&standard_config(), plan);
        c.compaction = CompactionMode::Auto;
        c.accumulation = AccumulationMode::Auto;
        let mut source = w.source();
        Pipeline::default()
            .run_source(&mut source, &w.scan.geometry, &c, Engine::GpuPipelined)
            .expect("fixed plan run")
    };
    let mut c = standard_config();
    c.plan = PlanMode::Auto;
    c.compaction = CompactionMode::Auto;
    c.accumulation = AccumulationMode::Auto;
    let mut source = w.source();
    let auto_plan = Pipeline::default()
        .run_source(&mut source, &w.scan.geometry, &c, Engine::GpuPipelined)
        .expect("plan auto run");
    let explain = auto_plan.plan.clone().expect("plan auto explain block");
    let mut best_fixed: Option<(&str, f64)> = None;
    for (label, plan) in [
        ("gpu-1d", SERIAL_1D),
        ("gpu-3d", SERIAL_3D),
        ("gpu-tables", SERIAL_TABLES),
        ("gpu-pipe-k2", "flat1d/inkernel/k2"),
        ("gpu-pipe-k3", "flat1d/inkernel/k3"),
    ] {
        let r = run_fixed(plan);
        assert_eq!(
            auto_plan.image.data, r.image.data,
            "plan auto diverges from {label}"
        );
        if best_fixed.is_none_or(|(_, t)| r.total_time_s < t) {
            best_fixed = Some((label, r.total_time_s));
        }
    }
    let (best_fixed_label, best_fixed_s) = best_fixed.expect("fixed field is non-empty");
    let planner_ratio = auto_plan.total_time_s / best_fixed_s;

    // 8. End-to-end data integrity: the verification overhead of
    // `--integrity verify` on the clean Fig 8 stack (`--check` gates the
    // verify/off total-time ratio, baseline line 5),
    // and a scrub run under injected silent corruption that must come back
    // bit-identical with every detection corrected.
    let run_integrity = |mode: IntegrityMode, plan: Option<cuda_sim::FaultPlan>| {
        let mut c = standard_config();
        c.integrity = mode;
        let p = Pipeline {
            fault_plan: plan,
            ..Pipeline::default()
        };
        let mut source = w.source();
        p.run_source(&mut source, &w.scan.geometry, &c, Engine::GpuPipelined)
            .expect("integrity run")
    };
    let integrity_off = run_integrity(IntegrityMode::Off, None);
    let verify = run_integrity(IntegrityMode::Verify, None);
    assert_eq!(
        integrity_off.image.data, verify.image.data,
        "verification must not change a clean run's bits"
    );
    assert!(verify.integrity.checks_run > 0, "verify ran no checks");
    assert_eq!(
        verify.integrity.corruptions_detected, 0,
        "no false positives on a healthy device"
    );
    let integrity_ratio = verify.total_time_s / integrity_off.total_time_s;
    let scrub = run_integrity(
        IntegrityMode::Scrub,
        Some(
            cuda_sim::FaultPlan::new(5)
                .flip_nth_h2d(2)
                .flip_nth_kernel(1)
                .flip_op_index(3),
        ),
    );
    assert_eq!(
        integrity_off.image.data, scrub.image.data,
        "scrub must repair injected corruption bit-identically"
    );
    let scrub_injected = scrub.faults_injected.expect("fault plan installed");
    assert!(
        scrub_injected.total_silent() >= 1,
        "the schedule injected nothing: {scrub_injected:?}"
    );
    assert!(
        scrub.integrity.corruptions_detected >= 1,
        "injected corruption went undetected: {:?}",
        scrub.integrity
    );
    assert_eq!(
        scrub.integrity.corruptions_corrected, scrub.integrity.corruptions_detected,
        "scrub left a detection unrepaired: {:?}",
        scrub.integrity
    );

    let report = Json::object([
        ("generated_by", "bench_report".into()),
        ("quick", quick.into()),
        ("datasize", ladder.into()),
        ("depth_ablation_quick", quick.into()),
        ("depth_ablation", ablation.into()),
        ("ring_depth3_over_serial", Json::Float(ring_ratio, 6)),
        (
            "table_cache",
            Json::object([
                ("quick", quick.into()),
                ("cold_total_s", Json::Float(cold.total_time_s, 9)),
                ("warm_total_s", Json::Float(warm.total_time_s, 9)),
                ("cold", json_stats(&cold.table_cache)),
                ("warm", json_stats(&warm.table_cache)),
            ]),
        ),
        (
            "failover",
            Json::object([
                ("quick", quick.into()),
                ("clean_total_s", Json::Float(clean_fleet.total_time_s, 9)),
                (
                    "degraded_total_s",
                    Json::Float(degraded_fleet.total_time_s, 9),
                ),
                ("devices_lost", degraded_fleet.recovery.devices_lost.into()),
                (
                    "salvaged_slabs",
                    degraded_fleet.recovery.salvaged_slabs.into(),
                ),
                (
                    "recomputed_slabs",
                    degraded_fleet.recovery.recomputed_slabs.into(),
                ),
            ]),
        ),
        (
            "compaction",
            Json::object([
                ("quick", quick.into()),
                ("cutoff", Json::Float(sparse_cutoff, 6)),
                (
                    "active_fraction",
                    Json::Float(dense.stats.active_fraction(), 6),
                ),
                ("dense_compute_s", Json::Float(dense.compute_time_s, 9)),
                ("compact_compute_s", Json::Float(compact.compute_time_s, 9)),
                ("auto_compute_s", Json::Float(auto.compute_time_s, 9)),
                ("compact_over_dense", Json::Float(compact_ratio, 6)),
                ("mean_slab_density", Json::Float(mean_density(&compact), 6)),
                ("compacted_pairs", compact.stats.compacted_pairs.into()),
                ("culled_rows", compact.stats.culled_rows.into()),
            ]),
        ),
        (
            "accumulation",
            Json::object([
                ("quick", quick.into()),
                ("atomic_compute_s", Json::Float(atomic.compute_time_s, 9)),
                (
                    "privatized_compute_s",
                    Json::Float(privatized.compute_time_s, 9),
                ),
                ("privatized_over_atomic", Json::Float(accum_ratio, 6)),
                ("privatized_pairs", privatized.stats.privatized_pairs.into()),
                (
                    "accum_fallback_pairs",
                    privatized.stats.accum_fallback_pairs.into(),
                ),
            ]),
        ),
        (
            "planner",
            Json::object([
                ("quick", quick.into()),
                ("chosen", explain.chosen.as_str().into()),
                ("predicted_s", Json::Float(explain.predicted_s, 9)),
                ("measured_s", Json::Float(explain.measured_s, 9)),
                (
                    "prediction_error",
                    Json::Float(explain.prediction_error(), 6),
                ),
                ("auto_total_s", Json::Float(auto_plan.total_time_s, 9)),
                ("best_fixed", best_fixed_label.into()),
                ("best_fixed_total_s", Json::Float(best_fixed_s, 9)),
                ("auto_over_best", Json::Float(planner_ratio, 6)),
            ]),
        ),
        (
            "integrity",
            Json::object([
                ("quick", quick.into()),
                ("off_total_s", Json::Float(integrity_off.total_time_s, 9)),
                ("verify_total_s", Json::Float(verify.total_time_s, 9)),
                ("verify_over_off", Json::Float(integrity_ratio, 6)),
                ("verify_checks", verify.integrity.checks_run.into()),
                (
                    "verify_host_cpu_s",
                    Json::Float(verify.integrity.verify_host_cpu_s, 9),
                ),
                (
                    "exposed_overhead_s",
                    Json::Float(verify.integrity.exposed_overhead_s, 9),
                ),
                (
                    "measured_delta_s",
                    Json::Float(verify.total_time_s - integrity_off.total_time_s, 9),
                ),
                ("scrub_total_s", Json::Float(scrub.total_time_s, 9)),
                (
                    "scrub_silent_injected",
                    scrub_injected.total_silent().into(),
                ),
                (
                    "scrub_detected",
                    scrub.integrity.corruptions_detected.into(),
                ),
                (
                    "scrub_corrected",
                    scrub.integrity.corruptions_corrected.into(),
                ),
                ("scrub_retries", scrub.integrity.scrub_retries.into()),
            ]),
        ),
        (
            "wall_clock_s",
            Json::Float(started.elapsed().as_secs_f64(), 3),
        ),
    ]);
    report::write_report(&args.out, &report);
    println!(
        "cache: cold {:.4} s → warm {:.4} s ({} hit(s) warm)",
        cold.total_time_s,
        warm.total_time_s,
        warm.table_cache.hits()
    );
    println!(
        "compaction @ {:.1} % active: dense {:.4} s → compact {:.4} s kernel \
         (ratio {:.3}, mean slab density {:.3})",
        100.0 * dense.stats.active_fraction(),
        dense.compute_time_s,
        compact.compute_time_s,
        compact_ratio,
        mean_density(&compact),
    );
    println!(
        "accumulation: atomic {:.4} s → privatized {:.4} s kernel (ratio {:.3})",
        atomic.compute_time_s, privatized.compute_time_s, accum_ratio,
    );
    println!(
        "planner: auto chose {} at {:.4} s ({:.1} % prediction error) vs best fixed {} at {:.4} s (ratio {:.3})",
        explain.chosen,
        auto_plan.total_time_s,
        100.0 * explain.prediction_error(),
        best_fixed_label,
        best_fixed_s,
        planner_ratio,
    );
    println!(
        "integrity: off {:.4} s → verify {:.4} s (ratio {:.3}, {} check(s)); \
         scrub corrected {}/{} injected silent fault(s)",
        integrity_off.total_time_s,
        verify.total_time_s,
        integrity_ratio,
        verify.integrity.checks_run,
        scrub.integrity.corruptions_corrected,
        scrub_injected.total_silent(),
    );

    if let Some(path) = &args.check {
        report::check(
            path,
            &[
                (
                    1,
                    compact_ratio,
                    Bound::Max,
                    "compact/dense kernel-time ratio",
                ),
                (
                    2,
                    accum_ratio,
                    Bound::Max,
                    "privatized/atomic kernel-time ratio",
                ),
                (
                    3,
                    ring_ratio,
                    Bound::Max,
                    "depth-3/serial ring elapsed ratio",
                ),
                (
                    4,
                    planner_ratio,
                    Bound::Max,
                    "plan-auto/best-fixed total-time ratio",
                ),
                (
                    5,
                    integrity_ratio,
                    Bound::Max,
                    "verify/off total-time ratio",
                ),
            ],
        );
    }
}
