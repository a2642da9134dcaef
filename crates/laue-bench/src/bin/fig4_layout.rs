//! **Fig 4 of the paper**: performance comparison between the 1-D array and
//! 3-D (pointer-table) array implementations.
//!
//! The paper ran one "5 GB" dataset through both designs and found the 1-D
//! flat layout faster because the 3-D design ships extra pointer tables
//! (and pays per-allocation transfers). This binary reproduces that
//! comparison on the 1/1000-scale 5.2 MB workload and prints where the gap
//! comes from.
//!
//! Run: `cargo run --release -p laue-bench --bin fig4_layout`

use laue_bench::{
    assert_same_image, ms, print_table, standard_config, Workload, SERIAL_1D, SERIAL_3D,
};

fn main() {
    let w = Workload::of_megabytes(5.2, 404);
    let cfg = standard_config();
    println!(
        "Fig 4 reproduction — {} stack ({}×{}×{} px), virtual M2070\n",
        w.label,
        w.scan.geometry.wire.n_steps,
        w.side(),
        w.side()
    );

    let flat = w.run_pinned(&cfg, SERIAL_1D);
    let ptr = w.run_pinned(&cfg, SERIAL_3D);
    assert_same_image(&flat, &ptr);

    print_table(
        &[
            "layout",
            "total (ms)",
            "compute (ms)",
            "transfer (ms)",
            "transfers",
            "slabs",
        ],
        &[("gpu-1d", &flat), ("gpu-3d", &ptr)]
            .iter()
            .map(|(label, r)| {
                vec![
                    label.to_string(),
                    ms(r.total_time_s),
                    ms(r.compute_time_s),
                    ms(r.comm_time_s),
                    r.transfers.to_string(),
                    r.n_slabs.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\n3-D/1-D total-time ratio: {:.2}× — the paper picks the 1-D design \
         (its Fig 4 shows the same ordering).",
        ptr.total_time_s / flat.total_time_s
    );
    println!(
        "gap decomposition: +{} ms transfers, +{} ms compute (pointer chases)",
        ms(ptr.comm_time_s - flat.comm_time_s),
        ms(ptr.compute_time_s - flat.compute_time_s),
    );
}
