//! Fig 8 companion (host wall-clock): CPU engine vs simulated-GPU engine
//! across data sizes. Wall-clock here measures the *implementations* (the
//! sequential loop vs the simulator running the same kernels); the
//! calibrated virtual-time figure is produced by `--bin fig8_datasize`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cuda_sim::{Device, DeviceProps};
use laue_bench::{standard_config, Workload};
use laue_core::gpu::{GpuOptions, RunOptions};
use laue_core::{cpu, ScanView};
use std::hint::black_box;

fn bench_datasize(c: &mut Criterion) {
    let cfg = standard_config();
    let mut group = c.benchmark_group("fig8_datasize");
    group.sample_size(10);
    for mb in [0.1f64, 0.2, 0.4] {
        let w = Workload::of_megabytes(mb, 7);
        let g = w.scan.geometry.clone();
        group.bench_with_input(BenchmarkId::new("cpu_seq", &w.label), &w, |b, w| {
            let view = ScanView::new(
                &w.scan.images,
                g.wire.n_steps,
                g.detector.n_rows,
                g.detector.n_cols,
            )
            .unwrap();
            b.iter(|| black_box(cpu::reconstruct_seq(&view, &g, &cfg).unwrap().stats))
        });
        group.bench_with_input(BenchmarkId::new("gpu_sim", &w.label), &w, |b, w| {
            b.iter(|| {
                let device = Device::new(DeviceProps::tesla_m2070());
                let serial = RunOptions::serial(GpuOptions::default());
                black_box(w.run_on(&device, &cfg, &serial).unwrap().stats)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_datasize);
criterion_main!(benches);
