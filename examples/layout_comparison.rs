//! The paper's Fig 4 design experiment in miniature: reconstruct one scan
//! with the flat 1-D device layout and with the pointer-table 3-D layout,
//! and show where the time goes.
//!
//! Run with: `cargo run --release --example layout_comparison`

use laue::prelude::*;

fn main() {
    let scan = SyntheticScanBuilder::new(24, 24, 32)
        .scatterers(15)
        .noise(0.5)
        .background(12.0)
        .seed(99)
        .build()
        .expect("scan");
    let cfg = ReconstructionConfig::new(-2200.0, 2200.0, 400);
    let pipeline = Pipeline::default();

    println!("layout     total(ms)   compute(ms)   transfer(ms)   transfers");
    let mut rows = Vec::new();
    for (name, plan) in [
        ("1D flat", "flat1d/inkernel/k1"),
        ("3D ptrs", "ptr3d/inkernel/k1"),
    ] {
        let mut pinned = cfg.clone();
        pinned.set_plan(plan).expect("plan pin");
        let mut source = InMemorySlabSource::new(
            scan.images.clone(),
            scan.geometry.wire.n_steps,
            scan.geometry.detector.n_rows,
            scan.geometry.detector.n_cols,
        )
        .expect("source");
        let r = pipeline
            .run_source(&mut source, &scan.geometry, &pinned, Engine::GpuPipelined)
            .expect("run");
        println!(
            "{name:<9}  {:>9.3}   {:>11.3}   {:>12.3}   {:>9}",
            r.total_time_s * 1e3,
            r.compute_time_s * 1e3,
            r.comm_time_s * 1e3,
            r.transfers,
        );
        rows.push((name, r));
    }
    let (a, b) = (&rows[0].1, &rows[1].1);
    assert_eq!(a.image.data, b.image.data, "layouts agree numerically");
    println!(
        "\nthe 3-D pointer layout takes {:.2}× the 1-D layout's time \
         (the paper picks 1-D for exactly this reason)",
        b.total_time_s / a.total_time_s
    );
}
