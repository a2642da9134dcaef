//! Region-of-interest reconstruction: cropping the detector and the source
//! must reproduce exactly the corresponding sub-block of the full
//! reconstruction, on every engine. The CPU runs take the path `laue
//! reconstruct --roi` takes — a [`RoiSlabSource`] over the scan and the
//! cropped geometry, through [`Pipeline::run_source`].

use laue::core::RoiSlabSource;
use laue::prelude::*;
use laue::sim::Device;

fn scan() -> SyntheticScan {
    SyntheticScanBuilder::new(10, 12, 14)
        .scatterers(20)
        .noise(0.5)
        .background(15.0)
        .seed(77)
        .build()
        .unwrap()
}

fn cfg() -> ReconstructionConfig {
    ReconstructionConfig::new(-2000.0, 2000.0, 120)
}

/// The scan cropped to `rows × cols` pixels from `(r0, c0)`: the ROI
/// source plus its geometry.
fn roi(
    s: &SyntheticScan,
    (r0, c0, rows, cols): (usize, usize, usize, usize),
) -> (RoiSlabSource<InMemorySlabSource>, ScanGeometry) {
    let inner = InMemorySlabSource::new(s.images.clone(), 14, 10, 12).unwrap();
    let source = RoiSlabSource::new(inner, r0, c0, rows, cols).unwrap();
    (source, s.geometry.crop(r0, c0, rows, cols).unwrap())
}

/// `laue reconstruct --roi r0:c0:rows:cols --engine cpu`.
fn roi_cpu_run(s: &SyntheticScan, window: (usize, usize, usize, usize)) -> RunReport {
    let (mut source, geom) = roi(s, window);
    Pipeline::default()
        .run_source(&mut source, &geom, &cfg(), Engine::CpuSeq)
        .unwrap()
}

/// The whole frame on the reference CPU engine, through the pipeline.
fn full_cpu_run(s: &SyntheticScan) -> RunReport {
    let mut source = InMemorySlabSource::new(s.images.clone(), 14, 10, 12).unwrap();
    Pipeline::default()
        .run_source(&mut source, &s.geometry, &cfg(), Engine::CpuSeq)
        .unwrap()
}

#[test]
fn roi_reconstruction_is_a_subblock_of_the_full_one() {
    let s = scan();
    let cfg = cfg();
    let window = (3usize, 4usize, 5usize, 6usize);
    let (r0, c0, nr, nc) = window;

    let full = full_cpu_run(&s);
    let roi_cpu = roi_cpu_run(&s, window);
    for bin in 0..cfg.n_depth_bins {
        for r in 0..nr {
            for c in 0..nc {
                assert_eq!(
                    roi_cpu.image.at(bin, r, c),
                    full.image.at(bin, r0 + r, c0 + c),
                    "bin {bin}, pixel ({r}, {c})"
                );
            }
        }
    }

    // The GPU driver over the same ROI.
    let (mut source, geom) = roi(&s, window);
    let device = Device::new(DeviceProps::tiny(8 * 1024 * 1024));
    let run = gpu::RunOptions::serial(GpuOptions::default());
    let topology = gpu::Topology::device(&device);
    let roi_gpu = gpu::reconstruct_fresh(&topology, &mut source, &geom, &cfg, &run).unwrap();
    assert_eq!(
        roi_gpu.image.data, roi_cpu.image.data,
        "GPU ROI matches CPU ROI"
    );
}

#[test]
fn full_frame_roi_is_the_identity() {
    let s = scan();
    let full = full_cpu_run(&s);
    let roi = roi_cpu_run(&s, (0, 0, 10, 12));
    assert_eq!(roi.image.data, full.image.data);
    assert_eq!(roi.stats, full.stats);
}

#[test]
fn roi_runs_cost_proportionally_less() {
    // The point of ROIs: a quarter of the pixels costs a quarter of the work.
    let s = scan();
    let full = full_cpu_run(&s);
    let roi = roi_cpu_run(&s, (0, 0, 5, 6));
    assert_eq!(roi.stats.pairs_total * 4, full.stats.pairs_total);
    assert!(roi.total_time_s < full.total_time_s / 3.0);
}
