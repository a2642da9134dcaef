//! **Design ablation (paper Fig 2)**: rows-per-slab sweep.
//!
//! The paper chunks the input by detector rows so each slab fits the
//! M2070's 6 GB. Slab size trades per-transfer latency (many small slabs)
//! against device memory footprint (few big slabs). This ablation sweeps
//! the slab size on a memory-capped device and shows the trade-off the
//! paper's design navigates.
//!
//! Run: `cargo run --release -p laue-bench --bin ablate_slab`

use cuda_sim::{Device, DeviceProps};
use laue_bench::{ms, print_table, standard_config, Workload};
use laue_core::gpu::{GpuOptions, RunOptions};

fn main() {
    let w = Workload::of_megabytes(2.1, 777);
    let base_cfg = standard_config();
    println!(
        "slab-size ablation — {} stack on a 64 MiB-capped device\n",
        w.label
    );
    let device_props = DeviceProps {
        total_mem: 64 * 1024 * 1024,
        ..DeviceProps::tesla_m2070()
    };

    let mut rows = Vec::new();
    let mut reference: Option<Vec<f64>> = None;
    for slab_rows in [1usize, 2, 4, 8, 16, 32, 0] {
        let mut cfg = base_cfg.clone();
        cfg.rows_per_slab = if slab_rows == 0 {
            None
        } else {
            Some(slab_rows)
        };
        let device = Device::new(device_props.clone());
        let out = match w.run_on(&device, &cfg, &RunOptions::serial(GpuOptions::default())) {
            Ok(out) => out,
            Err(e) => {
                rows.push(vec![
                    slab_rows.to_string(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    format!("error: {e}"),
                ]);
                continue;
            }
        };
        match &reference {
            None => reference = Some(out.image.data.clone()),
            Some(r) => assert_eq!(r, &out.image.data, "slab size changed the answer"),
        }
        rows.push(vec![
            if slab_rows == 0 {
                format!("auto({})", out.rows_per_slab)
            } else {
                slab_rows.to_string()
            },
            out.n_slabs.to_string(),
            ms(out.elapsed_s),
            ms(out.meters.comm_time_s),
            out.meters.transfers.to_string(),
            format!("{:.1} MiB", out.peak_device_mem as f64 / (1024.0 * 1024.0)),
        ]);
    }
    print_table(
        &[
            "rows/slab",
            "slabs",
            "total (ms)",
            "transfer (ms)",
            "transfers",
            "peak dev mem",
        ],
        &rows,
    );
    println!(
        "\nsmall slabs pay PCIe latency per transfer; big slabs need device \
         memory. The auto fit picks the largest slab that fits (the paper's \
         Fig 2 policy)."
    );
}
