//! **Extension study**: how would the paper's conclusion change on other
//! hardware of the era?
//!
//! The paper evaluates exactly one GPU (Tesla M2070). This study reruns the
//! Fig 8 largest workload on (a) a consumer Fermi card with throttled
//! double precision (at the paper's full 5.2 GB scale its 1.5 GB would also
//! force slab streaming), and (b) the next-generation Tesla K40 —
//! quantifying how much of the paper's speedup is tied to its specific
//! hardware.
//!
//! Run: `cargo run --release -p laue-bench --bin whatif_hardware`

use cuda_sim::Device;
use laue_bench::devices::{era_matrix, paper_host};
use laue_bench::{ms, print_table, standard_config, Workload};
use laue_core::gpu::{GpuOptions, RunOptions};
use laue_core::{AccumulationMode, ScanView};

fn main() {
    let w = Workload::of_megabytes(5.2, 222);
    let cfg = standard_config();
    let mut cfg_priv = cfg.clone();
    cfg_priv.accumulation = AccumulationMode::Privatized;
    let serial = RunOptions::serial(GpuOptions::default());
    println!("what-if hardware study — {} stack\n", w.label);

    // CPU reference.
    let g = w.scan.geometry.clone();
    let view = ScanView::new(
        &w.scan.images,
        g.wire.n_steps,
        g.detector.n_rows,
        g.detector.n_cols,
    )
    .unwrap();
    let cpu = laue_core::cpu::reconstruct_seq(&view, &g, &cfg).unwrap();
    let cpu_s = cpu.modeled_time_s(&paper_host(), 1);

    let mut rows = vec![vec![
        "Xeon E5630 (1 core)".to_string(),
        ms(cpu_s),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "100.0 %".into(),
    ]];
    let mut reference: Option<Vec<f64>> = None;
    for props in era_matrix() {
        let name = props.name.clone();
        let device = Device::new(props.clone());
        let out = w.run_on(&device, &cfg, &serial).expect("run");
        match &reference {
            None => reference = Some(out.image.data.clone()),
            Some(r) => assert_eq!(r, &out.image.data, "devices diverge"),
        }
        // The same machine with the shared-memory privatized accumulator:
        // how much of each generation's kernel time the CAS loop was.
        let device = Device::new(props);
        let pout = w
            .run_on(&device, &cfg_priv, &serial)
            .expect("privatized run");
        assert_eq!(
            out.image.data, pout.image.data,
            "privatized accumulation diverges on {name}"
        );
        rows.push(vec![
            name,
            ms(out.elapsed_s),
            ms(out.meters.comm_time_s),
            ms(out.meters.compute_time_s),
            format!(
                "{} ({:.0} %)",
                ms(pout.meters.compute_time_s),
                100.0 * pout.meters.compute_time_s / out.meters.compute_time_s
            ),
            format!("{}×{}", out.n_slabs, out.rows_per_slab),
            format!("{:.1} %", 100.0 * out.elapsed_s / cpu_s),
        ]);
    }
    assert!(
        (reference.unwrap().iter().sum::<f64>() - cpu.image.data.iter().sum::<f64>()).abs()
            < 1e-6 * cpu.image.data.iter().sum::<f64>().abs().max(1.0)
    );
    print_table(
        &[
            "machine",
            "total (ms)",
            "transfer (ms)",
            "kernel (ms)",
            "kernel priv (ms)",
            "slabs×rows",
            "vs CPU",
        ],
        &rows,
    );
    println!(
        "\nall devices are PCIe-bound on this workload, so even the consumer \
         card's 1/8-rate double precision barely hurts — and the K40's win \
         comes almost entirely from PCIe gen-3. The paper's conclusion is \
         robust to the exact GPU; its bottleneck analysis (§III-B) is the \
         durable part. On this noisy full-scale stack the kernel itself is \
         memory-bound — global reads top the roofline, not atomics — so the \
         privatized accumulator coalesces plenty of deposits yet the kernel \
         column barely moves.\n"
    );

    // The same machines on the atomic-bound §III-C ablation stack (2.1 MB,
    // ~38 % of pairs depositing): there the atomic term tops the kernel's
    // roofline, so retiring the CAS loop pays — by an amount that depends
    // on each generation's f64 atomic cost.
    let w2 = Workload::of_megabytes(2.1, 555);
    let mut rows = Vec::new();
    for props in era_matrix() {
        let name = props.name.clone();
        let mut kernel = [0.0f64; 2];
        let mut image: Option<Vec<f64>> = None;
        for (i, c) in [&cfg, &cfg_priv].into_iter().enumerate() {
            let device = Device::new(props.clone());
            let out = w2.run_on(&device, c, &serial).expect("run");
            kernel[i] = out.meters.compute_time_s;
            match &image {
                None => image = Some(out.image.data),
                Some(r) => assert_eq!(r, &out.image.data, "strategies diverge on {name}"),
            }
        }
        rows.push(vec![
            name,
            ms(kernel[0]),
            ms(kernel[1]),
            format!("{:.0} %", 100.0 * kernel[1] / kernel[0]),
        ]);
    }
    println!(
        "accumulation-bound kernel: the {} §III-C ablation stack\n",
        w2.label
    );
    print_table(
        &["machine", "kernel (ms)", "kernel priv (ms)", "priv/atomic"],
        &rows,
    );
    println!(
        "\nhere retiring the CAS loop matters, and by a generation-dependent \
         amount: Fermi (M2070, GTX 580) pays dearly for every emulated f64 \
         atomic, so staging deposits in shared tiles recovers most of that \
         cost; Kepler (K40) has native f64 atomicAdd and keeps much less on \
         the table — exactly the hardware trend that later made \
         shared-memory staging optional."
    );
}
