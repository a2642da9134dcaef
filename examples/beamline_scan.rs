//! Full beamline-style workflow: generate a scan, write it to an
//! HDF5-style container, stream-reconstruct it through a memory-capped
//! simulated device (forcing the paper's row-slab pipeline), and export the
//! results.
//!
//! Run with: `cargo run --release --example beamline_scan`

use laue::pipeline::export;
use laue::prelude::*;
use laue::sim::DeviceProps;

fn main() {
    let dir = std::env::temp_dir();
    let scan_path = dir.join("laue_example_scan.mh5");
    let out_path = dir.join("laue_example_reconstruction.mh5");

    // ------------------------------------------------------------------
    // 1. Acquire: a 32×32 detector, 24 wire steps, noisy.
    // ------------------------------------------------------------------
    let scan = SyntheticScanBuilder::new(32, 32, 24)
        .scatterers(20)
        .background(15.0)
        .noise(0.8)
        .seed(7)
        .build()
        .expect("scan");
    write_scan(
        &scan_path,
        &scan.geometry,
        &scan.images,
        Some(&scan.truth),
        4,
    )
    .expect("write scan file");
    println!(
        "wrote {} ({} bytes)",
        scan_path.display(),
        std::fs::metadata(&scan_path).map(|m| m.len()).unwrap_or(0)
    );

    // ------------------------------------------------------------------
    // 2. Reconstruct: a deliberately tiny device (256 KiB) so the stack
    //    cannot fit and the engine must stream row slabs (paper Fig 2).
    // ------------------------------------------------------------------
    let mut cfg = ReconstructionConfig::new(-2500.0, 2500.0, 500);
    // The paper's serial 1-D design: flat layout, in-kernel triangulation.
    cfg.set_plan("flat1d/inkernel/k1").expect("plan pin");
    cfg.intensity_cutoff = 5.0; // suppress pure-noise differentials
    let pipeline = Pipeline {
        device: DeviceProps::tiny(256 * 1024),
        ..Pipeline::default()
    };
    let report = pipeline
        .run_scan_file(&scan_path, &cfg, Engine::GpuPipelined)
        .expect("reconstruction");
    println!("{}", report.summary());
    println!(
        "device slabbing: {} slabs of {} rows (device holds {} KiB)",
        report.n_slabs, report.rows_per_slab, 256
    );

    // ------------------------------------------------------------------
    // 3. Export: container + text histogram.
    // ------------------------------------------------------------------
    export::write_mh5(&out_path, &report, &cfg).expect("export mh5");
    let mut hist = Vec::new();
    export::write_histogram_text(&mut hist, &report.image, &cfg).expect("histogram");
    let text = String::from_utf8(hist).unwrap();
    let peak_line = text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .max_by(|a, b| {
            let va: f64 = a.split_whitespace().nth(1).unwrap().parse().unwrap();
            let vb: f64 = b.split_whitespace().nth(1).unwrap().parse().unwrap();
            va.total_cmp(&vb)
        })
        .unwrap_or("");
    println!("strongest depth bin: {peak_line}");
    println!("wrote {}", out_path.display());

    // ------------------------------------------------------------------
    // 4. Validate against the ground truth stored in the scan file.
    // ------------------------------------------------------------------
    let scan_file = read_scan(&scan_path).expect("reopen");
    let truth = scan_file.truth().expect("truth stored");
    let tol = 2.0 * scan.geometry.wire.step.norm() + 2.0 * cfg.bin_width();
    let recovered = truth
        .scatterers
        .iter()
        .filter(|s| {
            report
                .image
                .pixel_peak_depth(s.row, s.col, &cfg)
                .is_some_and(|p| (p - s.depth).abs() <= tol)
        })
        .count();
    println!(
        "depth recovery: {recovered}/{} scatterers within ±{tol:.1} µm",
        truth.len()
    );

    std::fs::remove_file(&scan_path).ok();
    std::fs::remove_file(&out_path).ok();
}
