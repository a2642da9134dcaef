//! Fig 4 companion (host wall-clock): measures how long the *simulation*
//! of each layout takes on the host. Note this is simulator overhead, not
//! device time — the simulator's per-element copy loops and allocation
//! patterns differ between layouts, so the wall-clock ordering here need
//! not match the modeled ordering. The calibrated virtual-time figure —
//! the authoritative Fig 4 reproduction — is produced by
//! `--bin fig4_layout`.

use criterion::{criterion_group, criterion_main, Criterion};
use cuda_sim::{Device, DeviceProps};
use laue_bench::{standard_config, Workload};
use laue_core::gpu::{GpuOptions, Layout, RunOptions};
use std::hint::black_box;

fn bench_layouts(c: &mut Criterion) {
    let w = Workload::of_megabytes(0.3, 42);
    let cfg = standard_config();
    let mut group = c.benchmark_group("fig4_layout");
    group.sample_size(10);
    for (name, layout) in [
        ("flat_1d", Layout::Flat1d),
        ("pointer_3d", Layout::Pointer3d),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let device = Device::new(DeviceProps::tesla_m2070());
                let serial = RunOptions::serial(GpuOptions {
                    layout,
                    ..GpuOptions::default()
                });
                let out = w.run_on(&device, &cfg, &serial).unwrap();
                black_box(out.image.data.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_layouts);
criterion_main!(benches);
