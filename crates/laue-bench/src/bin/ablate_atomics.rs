//! **Design ablation (paper §III-C)**: what the CAS-loop `atomicAdd(double)`
//! costs — and what the shared-memory privatized accumulator recovers.
//!
//! The paper implements double-precision atomic accumulation with an
//! `atomicCAS` loop because Fermi lacks native f64 atomicAdd. This ablation
//! (a) re-costs the recorded kernels with the atomic term removed to show
//! the modeled cost share, runs the real privatized path
//! (`--accumulation privatized`) next to that bound, and (b) runs the
//! kernels on the threaded executor to measure *real* CAS retries under
//! contention for both strategies.
//!
//! Run: `cargo run --release -p laue-bench --bin ablate_atomics`

use cuda_sim::{Cost, Device, DeviceProps, ExecMode};
use laue_bench::{ms, print_table, standard_config, Workload};
use laue_core::gpu::{GpuOptions, RunOptions};
use laue_core::AccumulationMode;

fn main() {
    let w = Workload::of_megabytes(2.1, 555);
    let cfg = standard_config();
    let mut cfg_priv = cfg.clone();
    cfg_priv.accumulation = AccumulationMode::Privatized;
    println!("atomicAdd(double) ablation — {} stack\n", w.label);

    // (a) Modeled cost share: the paper's CAS path, the free-accumulation
    // lower bound, and the real privatized path between them.
    let props = DeviceProps::tesla_m2070();
    let serial = RunOptions::serial(GpuOptions::default());
    let device = Device::new(props.clone());
    let out = w.run_on(&device, &cfg, &serial).expect("run");
    let cost = out.meters.kernel_cost;
    let no_atomics = Cost {
        atomic_ops: 0,
        atomic_retries: 0,
        atomic_max_chain: 0,
        ..cost
    };
    let t_with = props.kernel_time(&cost);
    let t_without = props.kernel_time(&no_atomics);

    let device = Device::new(props.clone());
    let priv_out = w
        .run_on(&device, &cfg_priv, &serial)
        .expect("privatized run");
    assert_eq!(
        out.image.data, priv_out.image.data,
        "privatized accumulation must be bit-identical — ablation invalid"
    );
    let priv_cost = priv_out.meters.kernel_cost;
    let t_priv = props.kernel_time(&priv_cost);

    print_table(
        &["variant", "kernel time (ms)", "atomic ops", "deposits"],
        &[
            vec![
                "CAS atomicAdd (paper)".into(),
                ms(t_with),
                cost.atomic_ops.to_string(),
                out.stats.deposits.to_string(),
            ],
            vec![
                "privatized shared tiles".into(),
                ms(t_priv),
                priv_cost.atomic_ops.to_string(),
                priv_out.stats.deposits.to_string(),
            ],
            vec![
                "free accumulation (bound)".into(),
                ms(t_without),
                "0".into(),
                out.stats.deposits.to_string(),
            ],
        ],
    );
    println!(
        "\natomics account for {:.1} % of the modeled kernel time. The\n\
         privatized path pays one global add per touched (pixel, bin) cell\n\
         instead of one per deposit ({} vs {} global atomics here), plus the\n\
         shared-tile traffic — it lands at {:.1} % of the CAS kernel time\n\
         against the free-accumulation bound's {:.1} %.\n",
        100.0 * (t_with - t_without) / t_with,
        priv_cost.atomic_ops,
        cost.atomic_ops,
        100.0 * t_priv / t_with,
        100.0 * t_without / t_with,
    );

    // (b) Real contention: run threaded and report observed CAS retries for
    // both accumulation strategies. The privatized path issues far fewer
    // global atomics, so it exposes proportionally fewer retry windows.
    let mut rows = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let mut cells = vec![workers.to_string()];
        for accum_cfg in [&cfg, &cfg_priv] {
            let device = Device::new(props.clone());
            device.set_exec_mode(if workers == 1 {
                ExecMode::Sequential
            } else {
                ExecMode::Threaded(workers)
            });
            let out = w.run_on(&device, accum_cfg, &serial).expect("run");
            let c = out.meters.kernel_cost;
            cells.push(c.atomic_ops.to_string());
            cells.push(format!(
                "{} ({:.4} %)",
                c.atomic_retries,
                100.0 * c.atomic_retries as f64 / c.atomic_ops.max(1) as f64
            ));
        }
        rows.push(cells);
    }
    print_table(
        &[
            "host workers",
            "atomic ops",
            "CAS retries",
            "atomic ops (priv)",
            "CAS retries (priv)",
        ],
        &rows,
    );
    println!(
        "\nthe CAS loop is functionally real: retries appear whenever two host\n\
         workers interleave between the load and the compare-exchange. On a\n\
         single-core host that interleaving needs a preemption, so a zero\n\
         retry count here is expected; on a multi-core host the rate becomes\n\
         non-zero and the results stay exact (the equivalence tests assert\n\
         this). The privatized path's blocks commit to disjoint pixels, so\n\
         its (fewer) global adds never contend at all."
    );
}
