//! **Planner validation**: does the self-tuning execution planner keep its
//! two promises across the hardware era matrix?
//!
//! 1. **Accuracy** — the virtual time the planner *predicts* for its chosen
//!    plan stays within 15 % of the virtual time the run then *measures*.
//! 2. **Regret** — `--plan auto` loses at most 5 % to the best fixed
//!    configuration on the same device and workload.
//!
//! Both are swept over [`laue_bench::devices::era_matrix`] × the PCIe-bound
//! Fig 8 stack and the atomic-bound §III-C ablation stack. The binary exits
//! nonzero on any violation, so CI can gate on it.
//!
//! Run: `cargo run --release -p laue-bench --bin plan_validation`

use laue_bench::devices::era_matrix;
use laue_bench::{
    ms, pinned, print_table, standard_config, Workload, SERIAL_1D, SERIAL_3D, SERIAL_TABLES,
};
use laue_core::{AccumulationMode, CompactionMode, PlanMode};
use laue_pipeline::{Engine, Pipeline, RunReport};

/// Planner budget: |predicted − measured| / measured on the chosen plan.
const MAX_PREDICTION_ERROR: f64 = 0.15;
/// Planner budget: auto total time over the best fixed total time.
const MAX_AUTO_REGRET: f64 = 1.05;

/// The fixed plan pins auto competes against (each labelled by its pin):
/// the paper's serial 1-D, 3-D and host-table design points, plus the
/// deeper ring depths of the default schedule.
const FIXED_FIELD: [&str; 5] = [
    SERIAL_1D,
    SERIAL_3D,
    SERIAL_TABLES,
    "flat1d/inkernel/k2",
    "flat1d/inkernel/k3",
];

/// Run one engine on one device with a cold cache (fresh `Pipeline`), so
/// every contender pays the same table-building costs the planner models.
fn run_cold(
    props: &cuda_sim::DeviceProps,
    w: &Workload,
    cfg: &laue_core::ReconstructionConfig,
    engine: Engine,
) -> RunReport {
    let pipeline = Pipeline {
        device: props.clone(),
        ..Pipeline::default()
    };
    let mut source = w.source();
    pipeline
        .run_source(&mut source, &w.scan.geometry, cfg, engine)
        .expect("validation run")
}

fn main() {
    let workloads = [
        Workload::of_megabytes(5.2, 222),
        Workload::of_megabytes(2.1, 555),
    ];
    let mut base = standard_config();
    base.compaction = CompactionMode::Auto;
    base.accumulation = AccumulationMode::Auto;

    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for props in era_matrix() {
        for w in &workloads {
            let mut auto_cfg = base.clone();
            auto_cfg.plan = PlanMode::Auto;
            let auto = run_cold(&props, w, &auto_cfg, Engine::GpuPipelined);
            let explain = auto.plan.as_ref().expect("plan auto explain block");
            let err = explain.prediction_error();
            if err >= MAX_PREDICTION_ERROR {
                failures.push(format!(
                    "{} / {}: prediction error {:.1} % ≥ {:.0} % (predicted {:.4} s, measured {:.4} s)",
                    props.name,
                    w.label,
                    100.0 * err,
                    100.0 * MAX_PREDICTION_ERROR,
                    explain.predicted_s,
                    explain.measured_s,
                ));
            }

            let mut best: Option<(&'static str, f64)> = None;
            for plan in FIXED_FIELD {
                let fixed = run_cold(&props, w, &pinned(&base, plan), Engine::GpuPipelined);
                assert_eq!(
                    auto.image.data, fixed.image.data,
                    "auto and {plan} diverge on {} / {}",
                    props.name, w.label
                );
                if best.is_none_or(|(_, t)| fixed.total_time_s < t) {
                    best = Some((plan, fixed.total_time_s));
                }
            }
            let (best_label, best_s) = best.expect("fixed field is non-empty");
            let regret = auto.total_time_s / best_s;
            if regret > MAX_AUTO_REGRET {
                failures.push(format!(
                    "{} / {}: auto {} ms loses {:.1} % to fixed {} at {} ms (budget {:.0} %)",
                    props.name,
                    w.label,
                    ms(auto.total_time_s),
                    100.0 * (regret - 1.0),
                    best_label,
                    ms(best_s),
                    100.0 * (MAX_AUTO_REGRET - 1.0),
                ));
            }
            rows.push(vec![
                props.name.clone(),
                w.label.clone(),
                explain.chosen.clone(),
                ms(explain.predicted_s),
                ms(explain.measured_s),
                format!("{:.1} %", 100.0 * err),
                format!("{} ({})", ms(best_s), best_label),
                format!("{:.3}", regret),
            ]);
        }
    }

    println!("planner validation — era matrix × {{Fig 8, §III-C}} stacks\n");
    print_table(
        &[
            "machine",
            "stack",
            "auto chose",
            "predicted (ms)",
            "measured (ms)",
            "error",
            "best fixed (ms)",
            "auto/best",
        ],
        &rows,
    );
    println!(
        "\nbudgets: prediction error < {:.0} %, auto/best ≤ {:.2}",
        100.0 * MAX_PREDICTION_ERROR,
        MAX_AUTO_REGRET
    );
    if failures.is_empty() {
        println!("planner validation PASSED");
    } else {
        println!("\nplanner validation FAILED:");
        for f in &failures {
            println!("  - {f}");
        }
        std::process::exit(1);
    }
}
