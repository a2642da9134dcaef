//! The CI fault matrix: every scripted `FaultPlan` family runs end-to-end
//! through the CLI with a journal and `--on-gpu-failure fallback-cpu`, and
//! each run's recovery story (summary text + deviation from the clean run)
//! is written as a report file. CI fans the specs out with
//! `LAUE_FAULT_SPEC` and uploads the report directory as an artifact.
//!
//! * `LAUE_FAULT_SPEC`  — run one named spec (unset: run all of them).
//! * `LAUE_REPORT_DIR`  — report directory (default `target/fault-reports`).

use laue::pipeline::cli;
use laue::prelude::*;
use std::io::Write as _;
use std::path::PathBuf;

/// Name → `--inject-gpu-fault` schedule. One entry per fault family the
/// simulator can script.
const SPECS: &[(&str, &str)] = &[
    ("alloc-oom", "alloc-nth=2"),
    ("h2d-transient", "seed=42,h2d-nth=2"),
    ("d2h-transient", "seed=42,d2h-nth=1"),
    ("capacity-lie", "free-mem=65536"),
    ("dead-after-ops", "seed=9,dead-after=5"),
    ("dead-at-first-boundary", "dead-after-launches=1"),
    ("dead-mid-run", "dead-after-launches=3"),
    ("flaky-bus", "seed=7,h2d-prob=0.4,d2h-prob=0.2"),
];

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("laue_matrix_{}_{name}", std::process::id()))
}

fn report_dir() -> PathBuf {
    std::env::var("LAUE_REPORT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/fault-reports"))
}

fn sv(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

/// Run one spec through the CLI (journal + CPU fallback), compare its
/// output against the fault-free run, and write `<name>.txt` in the
/// report directory.
fn run_spec(name: &str, spec: &str, scan_s: &str, clean: &[f64]) {
    let jdir = tmp(&format!("{name}_jrn"));
    let _ = std::fs::remove_dir_all(&jdir);
    let out_path = tmp(&format!("{name}_out")).with_extension("mh5");
    let argv = sv(&[
        "reconstruct",
        "--input",
        scan_s,
        "--plan",
        "flat1d/inkernel/k1/r2",
        "--bins",
        "200",
        "--journal-dir",
        &jdir.to_string_lossy(),
        "--on-gpu-failure",
        "fallback-cpu",
        "--inject-gpu-fault",
        spec,
        "--out",
        &out_path.to_string_lossy(),
    ]);
    let cmd = cli::parse(&argv).unwrap_or_else(|e| panic!("{name}: parse failed: {e}"));
    let mut buf = Vec::new();
    cli::run(&cmd, &mut buf).unwrap_or_else(|e| panic!("{name}: run failed: {e}"));
    let summary = String::from_utf8(buf).unwrap();

    // The exported image must match the fault-free run to float tolerance
    // (bitwise for in-place recoveries; the CPU fallback may re-order
    // depositions).
    let f = laue::container::FileReader::open(&out_path)
        .unwrap_or_else(|e| panic!("{name}: no output written: {e}"));
    let ds = f.resolve_path("/reconstruction/depth_image").unwrap();
    let data: Vec<f64> = f.read_all(ds).unwrap();
    assert_eq!(data.len(), clean.len(), "{name}: dims changed");
    let mut max_rel = 0.0f64;
    for (a, b) in data.iter().zip(clean) {
        let rel = (a - b).abs() / (1.0 + b.abs());
        assert!(rel <= 1e-9, "{name}: output diverges ({a} vs {b})");
        max_rel = max_rel.max(rel);
    }
    // A finished run always retires its journal, degraded or not.
    assert_eq!(
        std::fs::read_dir(&jdir).map(|d| d.count()).unwrap_or(0),
        0,
        "{name}: journal left behind"
    );

    let dir = report_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let mut rpt = std::fs::File::create(dir.join(format!("{name}.txt"))).unwrap();
    writeln!(rpt, "spec: {spec}").unwrap();
    writeln!(rpt, "status: PASS (max relative deviation {max_rel:.3e})").unwrap();
    writeln!(rpt, "--- run summary ---\n{summary}").unwrap();

    std::fs::remove_file(&out_path).ok();
    std::fs::remove_dir_all(&jdir).ok();
}

#[test]
fn fault_matrix_recovers_every_scripted_fault() {
    let scan = SyntheticScanBuilder::new(12, 10, 14)
        .scatterers(6)
        .background(15.0)
        .seed(11)
        .build()
        .unwrap();
    let scan_path = tmp("scan").with_extension("mh5");
    write_scan(
        &scan_path,
        &scan.geometry,
        &scan.images,
        Some(&scan.truth),
        3,
    )
    .unwrap();
    let scan_s = scan_path.to_string_lossy().to_string();

    // Fault-free reference through the same CLI path.
    let clean_out = tmp("clean_out").with_extension("mh5");
    let cmd = cli::parse(&sv(&[
        "reconstruct",
        "--input",
        &scan_s,
        "--plan",
        "flat1d/inkernel/k1/r2",
        "--bins",
        "200",
        "--out",
        &clean_out.to_string_lossy(),
    ]))
    .unwrap();
    cli::run(&cmd, &mut Vec::new()).unwrap();
    let f = laue::container::FileReader::open(&clean_out).unwrap();
    let ds = f.resolve_path("/reconstruction/depth_image").unwrap();
    let clean: Vec<f64> = f.read_all(ds).unwrap();
    drop(f);
    std::fs::remove_file(&clean_out).ok();

    let only = std::env::var("LAUE_FAULT_SPEC").ok();
    if let Some(name) = &only {
        assert!(
            SPECS.iter().any(|(n, _)| n == name),
            "unknown LAUE_FAULT_SPEC {name:?}; known: {:?}",
            SPECS.iter().map(|(n, _)| *n).collect::<Vec<_>>()
        );
    }
    for (name, spec) in SPECS {
        if only.as_deref().is_none_or(|o| o == *name) {
            run_spec(name, spec, &scan_s, &clean);
        }
    }

    std::fs::remove_file(&scan_path).ok();
}
