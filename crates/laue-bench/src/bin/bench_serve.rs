//! Reconstruction-as-a-service benchmark: saturation sweep over arrival
//! rate × batching on/off × fleet size (`BENCH_serve.json`).
//!
//! Times are **virtual seconds** from the calibrated M2070/E5630 models
//! over the fleet clock, so goodput and latency percentiles are
//! deterministic and machine-independent; `wall_clock_s` is the real
//! time the harness took, for CI trend-watching only.
//!
//! Run: `cargo run --release -p laue-bench --bin bench_serve -- \
//!       [--quick] [--out BENCH_serve.json] [--check ci/perf_smoke_baseline.txt]`
//!
//! `--check FILE` shares `ci/perf_smoke_baseline.txt` with the other
//! bench bins: the **eighth** ratio line is the minimum allowed
//! batched/unbatched goodput ratio on the small-job-heavy burst mix, the
//! **ninth** the maximum allowed p99/p50 latency ratio at the ~70 %-load
//! operating point (batching on). The process exits 1 when either
//! regresses or its line is missing.

use std::time::Instant;

use laue_bench::report::{self, Args, Bound, Json};
use laue_serve::{
    serve, AdmissionPolicy, Arrival, BatchPolicy, ServeConfig, ServeReport, WorkloadSpec,
};

/// The small-job-heavy mix every headline number uses: 3 tenants, 90 %
/// small quick-look jobs, half interactive.
fn base_spec(n_jobs: usize, rate_hz: f64) -> WorkloadSpec {
    WorkloadSpec::small_heavy(n_jobs, rate_hz, 42)
}

/// Serve one open-loop run of the base mix at `rate_hz`.
fn run_at(cfg: &ServeConfig, n_jobs: usize, rate_hz: f64) -> ServeReport {
    let spec = base_spec(n_jobs, rate_hz);
    serve(cfg, spec.generate()).expect("serve run")
}

fn report_row(label: &str, rate_hz: f64, r: &ServeReport) -> Json {
    Json::object([
        ("label", label.into()),
        ("offered_rate_hz", Json::Float(rate_hz, 6)),
        ("completed", r.outcomes.len().into()),
        ("goodput_jobs_per_s", Json::Float(r.goodput_jobs_per_s(), 6)),
        ("p50_s", Json::Float(r.p50_s(), 9)),
        ("p99_s", Json::Float(r.p99_s(), 9)),
        ("makespan_s", Json::Float(r.makespan_s, 9)),
        ("utilization", Json::Float(r.utilization, 6)),
        ("preemptions", r.preemptions.into()),
        ("quantum_expiries", r.quantum_expiries.into()),
        ("migrations", r.migrations.into()),
        ("fused_jobs", r.batch.fused_jobs.into()),
        ("batches", r.batch.batches.into()),
        ("mean_batch", Json::Float(r.batch.mean_batch(), 3)),
        ("singles", r.batch.singles.into()),
        ("cache_host_hits", r.cache.host_hits.into()),
        ("cache_host_misses", r.cache.host_misses.into()),
        ("cache_device_hits", r.cache.device_hits.into()),
        ("cache_device_misses", r.cache.device_misses.into()),
    ])
}

fn main() {
    let args = Args::parse("BENCH_serve.json");
    let quick = args.quick;
    let started = Instant::now();

    let n_jobs = if quick { 32 } else { 96 };
    // A burst rate far above any fleet capacity: the whole budget is
    // queued almost instantly, so goodput measures pure service capacity.
    let burst_hz = 1.0e6;
    let cfg = ServeConfig::for_tenants(3);

    // 1. The headline gate pair: the same saturating small-heavy burst
    // through the fused batch former vs per-job FIFO dispatch. Both runs
    // complete identical job sets (the identity suite proves the outputs
    // are bit-identical to standalone runs), so the goodput ratio is
    // exactly the batching speedup.
    let batched = run_at(&cfg, n_jobs, burst_hz);
    let mut fifo_cfg = cfg.clone();
    fifo_cfg.batch = BatchPolicy::unbatched();
    let unbatched = run_at(&fifo_cfg, n_jobs, burst_hz);
    assert_eq!(
        batched.outcomes.len(),
        unbatched.outcomes.len(),
        "both modes must serve the whole burst"
    );
    assert!(
        batched.batch.fused_jobs > 0,
        "the small-heavy burst must form fused batches"
    );
    let goodput_ratio = batched.goodput_jobs_per_s() / unbatched.goodput_jobs_per_s();
    // Capacity: completed jobs per fleet second at saturation, batching
    // on — the denominator of every load fraction below.
    let capacity_hz = batched.goodput_jobs_per_s();

    // 2. Saturation sweep: offered load as a fraction of measured
    // capacity, batching on and off. Latency percentiles come from the
    // same deterministic fleet timeline, so the knee of the p99 curve is
    // reproducible bit-for-bit.
    let fractions: &[f64] = if quick {
        &[0.5, 0.7, 1.1]
    } else {
        &[0.3, 0.5, 0.7, 0.9, 1.1]
    };
    let mut sweep_rows = Vec::new();
    let mut at_70: Option<ServeReport> = None;
    for &frac in fractions {
        let rate = frac * capacity_hz;
        let on = run_at(&cfg, n_jobs, rate);
        let off = run_at(&fifo_cfg, n_jobs, rate);
        sweep_rows.push(report_row(&format!("load-{frac:.1}-batched"), rate, &on));
        sweep_rows.push(report_row(&format!("load-{frac:.1}-fifo"), rate, &off));
        if (frac - 0.7).abs() < 1e-9 {
            at_70 = Some(on);
        }
    }
    let at_70 = at_70.expect("the sweep always includes the 0.7 operating point");
    let tail_ratio = at_70.p99_s() / at_70.p50_s();

    // 3. Fleet-size sweep: the same burst over 1, 2, and 4 devices
    // (two per chassis), batching on — how capacity and the tail scale
    // with devices when the PCIe bus and host CPU are shared pairwise.
    let mut fleet_rows = Vec::new();
    for &n_dev in &[1usize, 2, 4] {
        let mut fleet_cfg = cfg.clone();
        fleet_cfg.n_devices = n_dev;
        fleet_cfg.devices_per_chassis = 2;
        let r = run_at(&fleet_cfg, n_jobs, burst_hz);
        fleet_rows.push(report_row(&format!("fleet-{n_dev}"), burst_hz, &r));
    }

    // 4. Admission control under overload: the same burst with a backlog
    // bound sized to half the burst's service demand. Some arrivals are
    // turned away with a reason; the jobs the service does accept see a
    // far shorter queue.
    let mut bounded_cfg = cfg.clone();
    bounded_cfg.admission = AdmissionPolicy {
        max_tenant_depth: usize::MAX,
        max_backlog_s: (n_jobs as f64 / capacity_hz) * 0.25,
    };
    let bounded = run_at(&bounded_cfg, n_jobs, burst_hz);
    assert!(
        !bounded.rejected.is_empty(),
        "a burst against a bounded backlog must shed load"
    );
    assert_eq!(
        bounded.admission.offered() as usize,
        n_jobs,
        "every arrival is judged"
    );
    assert!(
        bounded.p99_s() < batched.p99_s(),
        "shedding load must shorten the accepted jobs' tail \
         ({:.4} s vs {:.4} s unbounded)",
        bounded.p99_s(),
        batched.p99_s()
    );

    // 5. Closed-loop clients: each completion triggers the next
    // submission after a think time, so the offered load self-regulates
    // at the service's pace instead of queueing without bound.
    let mut closed_spec = base_spec(n_jobs, burst_hz);
    closed_spec.arrival = Arrival::Closed {
        clients: 4,
        think_s: 1e-4,
    };
    let closed = serve(&cfg, closed_spec.generate()).expect("closed-loop run");
    assert_eq!(
        closed.outcomes.len(),
        n_jobs,
        "the closed loop serves its whole budget"
    );

    let report = Json::object([
        ("generated_by", "bench_serve".into()),
        ("quick", quick.into()),
        ("n_jobs", n_jobs.into()),
        ("workload", "small-heavy (90% small, 3 tenants)".into()),
        ("fleet", "2x tesla-m2070, shared chassis".into()),
        ("capacity_jobs_per_s", Json::Float(capacity_hz, 6)),
        (
            "batching",
            Json::object([
                (
                    "batched_goodput_jobs_per_s",
                    Json::Float(batched.goodput_jobs_per_s(), 6),
                ),
                (
                    "unbatched_goodput_jobs_per_s",
                    Json::Float(unbatched.goodput_jobs_per_s(), 6),
                ),
                ("goodput_ratio", Json::Float(goodput_ratio, 6)),
                ("fused_jobs", batched.batch.fused_jobs.into()),
                ("batches", batched.batch.batches.into()),
                ("mean_batch", Json::Float(batched.batch.mean_batch(), 3)),
                ("max_batch", batched.batch.max_batch.into()),
            ]),
        ),
        (
            "tail_at_70pct",
            Json::object([
                ("offered_rate_hz", Json::Float(0.7 * capacity_hz, 6)),
                ("utilization", Json::Float(at_70.utilization, 6)),
                ("p50_s", Json::Float(at_70.p50_s(), 9)),
                ("p99_s", Json::Float(at_70.p99_s(), 9)),
                ("p99_over_p50", Json::Float(tail_ratio, 6)),
            ]),
        ),
        ("saturation_sweep", sweep_rows.into()),
        ("fleet_sweep", fleet_rows.into()),
        (
            "admission",
            Json::object([
                (
                    "max_backlog_s",
                    Json::Float(bounded_cfg.admission.max_backlog_s, 9),
                ),
                ("offered", bounded.admission.offered().into()),
                ("accepted", bounded.admission.accepted.into()),
                ("rejected_depth", bounded.admission.rejected_depth.into()),
                (
                    "rejected_backlog",
                    bounded.admission.rejected_backlog.into(),
                ),
                ("accepted_p99_s", Json::Float(bounded.p99_s(), 9)),
                ("unbounded_p99_s", Json::Float(batched.p99_s(), 9)),
            ]),
        ),
        (
            "closed_loop",
            Json::object([
                ("clients", 4u64.into()),
                ("completed", closed.outcomes.len().into()),
                (
                    "goodput_jobs_per_s",
                    Json::Float(closed.goodput_jobs_per_s(), 6),
                ),
                ("p50_s", Json::Float(closed.p50_s(), 9)),
                ("p99_s", Json::Float(closed.p99_s(), 9)),
            ]),
        ),
        (
            "wall_clock_s",
            Json::Float(started.elapsed().as_secs_f64(), 3),
        ),
    ]);
    report::write_report(&args.out, &report);
    println!(
        "batching: {:.2} jobs/s fused vs {:.2} jobs/s FIFO (ratio {goodput_ratio:.3}, \
         mean batch {:.2})",
        batched.goodput_jobs_per_s(),
        unbatched.goodput_jobs_per_s(),
        batched.batch.mean_batch(),
    );
    println!(
        "tail at 70% load: p50 {:.4} s, p99 {:.4} s (ratio {tail_ratio:.2}, \
         utilization {:.2})",
        at_70.p50_s(),
        at_70.p99_s(),
        at_70.utilization,
    );
    println!(
        "admission under overload: {}/{} accepted, accepted p99 {:.4} s vs \
         {:.4} s unbounded",
        bounded.admission.accepted,
        bounded.admission.offered(),
        bounded.p99_s(),
        batched.p99_s(),
    );

    if let Some(path) = &args.check {
        report::check(
            path,
            &[
                (
                    8,
                    goodput_ratio,
                    Bound::Min,
                    "batched/unbatched goodput ratio",
                ),
                (
                    9,
                    tail_ratio,
                    Bound::Max,
                    "p99/p50 latency ratio at 70% load",
                ),
            ],
        );
    }
}
