//! Instrument-side workflow: plan a wire scan for a target depth range and
//! resolution, simulate running it, and verify the plan delivered.
//!
//! Run with: `cargo run --release --example scan_planner`

use laue::prelude::*;
use laue::wire::forward::{render_stack, RenderOptions};
use laue::wire::plans::layered_sample;

fn main() {
    // Start from the beamline's standing geometry (any configured scan).
    let base = ScanGeometry::demo(9, 9, 16, -40.0, 8.0).expect("geometry");
    let mapper = base.mapper().expect("mapper");
    let info = pixel_scan_info(&base, &mapper, 4, 4).expect("info");
    println!("standing scan at the central pixel:");
    println!(
        "  sweep        : [{:.1}, {:.1}] µm",
        info.sweep.0, info.sweep.1
    );
    println!("  resolution   : {:.2} µm/step", info.resolution);
    println!("  valid window : {:.1} µm\n", info.valid_window);

    // Science goal: a buried layer somewhere in [0, 60] µm, resolved to 3 µm.
    let plan = plan_scan(&base, 0.0, 60.0, 3.0).expect("plan");
    println!("planned scan for [0, 60] µm at ≤3 µm:");
    println!("  steps        : {}", plan.wire.n_steps);
    println!("  step size    : {:.2} µm", plan.wire.step.norm());
    println!("  start at     : {:?}", plan.wire.origin);
    println!("  resolution   : {:.2} µm/step", plan.resolution);
    println!(
        "  sweep        : [{:.1}, {:.1}] µm\n",
        plan.sweep.0, plan.sweep.1
    );

    // "Run" the planned scan against a buried layer and reconstruct.
    let planned = ScanGeometry {
        beam: base.beam,
        wire: plan.wire.clone(),
        detector: base.detector.clone(),
    };
    let sample = layered_sample(&planned, 0.5, 250.0).expect("sample");
    let images = render_stack(
        &planned,
        &sample,
        &RenderOptions {
            background: 12.0,
            noise: 0.5,
            seed: 4,
            ..Default::default()
        },
    )
    .expect("render");
    // The depth window must cover every pixel's sweep, not just the central
    // one (each detector row looks at a different stretch of the beam).
    let pmapper = planned.mapper().expect("mapper");
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for r in 0..9 {
        for c in 0..9 {
            let i = pixel_scan_info(&planned, &pmapper, r, c).expect("info");
            lo = lo.min(i.sweep.0);
            hi = hi.max(i.sweep.1);
        }
    }
    let mut cfg = ReconstructionConfig::new(lo - 50.0, hi + 50.0, 800);
    cfg.set_plan("flat1d/inkernel/k1").expect("plan pin");
    let mut source = InMemorySlabSource::new(images, planned.wire.n_steps, 9, 9).expect("source");
    let report = Pipeline::default()
        .run_source(&mut source, &planned, &cfg, Engine::GpuPipelined)
        .expect("reconstruct");
    println!("{}\n", report.summary());

    // Verify the layer depth came back within the planned resolution.
    let truth = &sample.scatterers;
    let tol = plan.resolution + 2.0 * cfg.bin_width();
    let recovered = truth
        .iter()
        .filter(|s| {
            report
                .image
                .pixel_peak_depth(s.row, s.col, &cfg)
                .is_some_and(|p| (p - s.depth).abs() <= tol)
        })
        .count();
    println!(
        "layer recovery: {recovered}/{} pixels within ±{tol:.1} µm — the plan met \
         its resolution target",
        truth.len()
    );
}
