//! **Fig 8 of the paper** (and the §IV headline): CPU vs GPU total running
//! time across data-set sizes.
//!
//! The paper sweeps 2.1 / 2.7 / 3.6 / 5.2 GB beamline scans and reports the
//! GPU finishing in 25–30 % of the CPU time, with a much flatter growth
//! curve. This binary reproduces the sweep at 1/1000 scale on the
//! calibrated virtual-time models.
//!
//! Run: `cargo run --release -p laue-bench --bin fig8_datasize`

use laue_bench::{assert_same_image, ms, print_table, standard_config, Workload, SERIAL_1D};
use laue_pipeline::Engine;

fn main() {
    let cfg = standard_config();
    println!("Fig 8 reproduction — data-size sweep (1/1000 scale), virtual E5630 vs M2070\n");
    let mut rows = Vec::new();
    let mut first_pair: Option<(f64, f64)> = None;
    let mut last_pair = (0.0f64, 0.0f64);
    for w in Workload::fig8_set() {
        let cpu = w.run(&cfg, Engine::CpuSeq);
        let gpu = w.run_pinned(&cfg, SERIAL_1D);
        assert_same_image(&cpu, &gpu);
        let ratio = gpu.total_time_s / cpu.total_time_s;
        rows.push(vec![
            w.label.clone(),
            format!("{}×{}", w.side(), w.side()),
            ms(cpu.total_time_s),
            ms(gpu.total_time_s),
            ms(gpu.comm_time_s),
            ms(gpu.compute_time_s),
            format!("{:.1} %", ratio * 100.0),
        ]);
        if first_pair.is_none() {
            first_pair = Some((cpu.total_time_s, gpu.total_time_s));
        }
        last_pair = (cpu.total_time_s, gpu.total_time_s);
    }
    print_table(
        &[
            "dataset",
            "detector",
            "CPU (ms)",
            "GPU (ms)",
            "GPU xfer (ms)",
            "GPU kern (ms)",
            "GPU/CPU",
        ],
        &rows,
    );
    let (cpu0, gpu0) = first_pair.unwrap();
    let (cpu3, gpu3) = last_pair;
    println!(
        "\nheadline: at the largest size the GPU needs {:.1} % of the CPU time \
         (paper: 25–30 %).",
        100.0 * gpu3 / cpu3
    );
    println!(
        "scalability: from the smallest to the largest set the CPU time grows \
         {:.2}×, the GPU time only {:.2}× — the flatter GPU curve of Fig 8.",
        cpu3 / cpu0,
        gpu3 / gpu0
    );
}
