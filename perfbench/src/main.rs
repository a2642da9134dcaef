//! The repository's benchmark: one workload per run, end-to-end metrics
//! from an untraced run (`--trace 0`) or per-layer metrics from a traced
//! one (`--trace 1`), every output checked against a `cpu-seq` reference.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dense-stream --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The exit code is non-zero when any output differs from its reference,
//! a mechanism guard fails, or anything errors.

mod metrics;
mod scan;
mod serve;

use std::path::Path;
use std::process::ExitCode;

use metrics::Metrics;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("op_wall_p50_s", "s"),
    ("op_wall_tail_s", "s"),
    ("wall_mb_per_s", "MB/s"),
    ("virtual_mb_per_s", "MB/s"),
    ("virtual_speedup_vs_cpu", "x"),
    ("ok_frac", "ratio"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("sustained_jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a
/// layer a workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("mh5.read_wall_s", "s"),
    ("mh5.read_calls", "count"),
    ("mh5.read_mb", "MB"),
    ("mh5.read_amplification", "ratio"),
    ("export.write_wall_s", "s"),
    ("export.write_mb", "MB"),
    ("planner.plan_wall_s", "s"),
    ("planner.candidates", "count"),
    ("planner.prediction_error", "ratio"),
    ("planner.host_s", "s"),
    ("gpu.comm_virtual_s", "s"),
    ("gpu.compute_virtual_s", "s"),
    ("gpu.bus_wait_virtual_s", "s"),
    ("gpu.host_table_virtual_s", "s"),
    ("gpu.slabs", "count"),
    ("gpu.transfers", "count"),
    ("gpu.overlap_ratio", "ratio"),
    ("gpu.active_fraction", "ratio"),
    ("gpu.culled_rows", "count"),
    ("gpu.compacted_pairs", "count"),
    ("sim.engine_self_wall_s", "s"),
    ("sim.wall_per_virtual", "ratio"),
    ("sim.wall_ns_per_pair", "ns"),
    ("integrity.checks_run", "count"),
    ("integrity.verify_host_cpu_s", "s"),
    ("integrity.exposed_overhead_s", "s"),
    ("cache.host_hits", "count"),
    ("cache.host_misses", "count"),
    ("cache.device_hits", "count"),
    ("cache.device_misses", "count"),
    ("cluster.reduction_exposed_s", "s"),
    ("cluster.net_wait_s", "s"),
    ("cluster.net_bytes", "bytes"),
    ("cluster.net_messages", "count"),
    ("serve.queue_wait_p50_s", "s"),
    ("serve.queue_wait_tail_s", "s"),
    ("serve.service_p50_s", "s"),
    ("serve.fused_jobs", "count"),
    ("serve.batches", "count"),
    ("serve.mean_batch", "jobs"),
    ("serve.utilization", "ratio"),
    ("serve.preemptions", "count"),
    ("serve.migrations", "count"),
    ("serve.rejects_depth", "count"),
    ("serve.rejects_backlog", "count"),
    ("serve.wall_us_per_job", "us"),
    ("trace.overhead_frac", "ratio"),
];

pub const WORKLOADS: [&str; 4] = [
    "dense-stream",
    "sparse-verified",
    "cluster-gather",
    "serve-mix",
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let get = |flag: &str| -> Result<&str, String> {
            let i = argv
                .iter()
                .position(|a| a == flag)
                .ok_or(format!("missing {flag}"))?;
            argv.get(i + 1)
                .map(String::as_str)
                .ok_or(format!("{flag} needs a value"))
        };
        let workload = get("--workload")?.to_string();
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
        }
        let num = |flag: &str| -> Result<u64, String> {
            get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
        };
        let trace = match num("--trace")? {
            0 => false,
            1 => true,
            t => return Err(format!("--trace is 0 or 1, got {t}")),
        };
        Ok(Args {
            workload,
            seed: num("--seed")?,
            seconds: num("--seconds")? as f64,
            trace,
        })
    }
}

/// What one run produced.
pub struct Outcome {
    /// Ops (scan workloads) or jobs (`serve-mix`) attempted.
    pub attempted: u64,
    /// Errors, reference mismatches and admission rejects.
    pub failed: u64,
    pub metrics: Metrics,
}

fn run(args: &Args, dir: &Path) -> Result<Outcome, Box<dyn std::error::Error>> {
    match args.workload.as_str() {
        "dense-stream" => scan::run(scan::Kind::DenseStream, args, dir),
        "sparse-verified" => scan::run(scan::Kind::SparseVerified, args, dir),
        "cluster-gather" => scan::run(scan::Kind::ClusterGather, args, dir),
        "serve-mix" => serve::run(args),
        w => unreachable!("workload {w} was validated by Args::parse"),
    }
}

/// Serve every allocation from the heap and never trim it, so that peak RSS
/// is the heap's high-water mark. Under glibc's default sliding mmap
/// threshold, whether a large buffer is mapped or carved from the heap
/// depends on the sizes freed before it, and peak RSS swings by a quarter
/// between scans a few rows apart.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only changes allocator tuning parameters; it is
    // called before this process starts any other thread.
    let ok = unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1
    };
    assert!(ok, "mallopt rejected the allocator settings");
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator() {}

fn main() -> ExitCode {
    pin_allocator();
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    // Scratch files live in the working directory, one directory per
    // process, removed on the way out.
    let dir =
        Path::new(".perfbench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let result = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".perfbench_work");
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let expected: &[(&str, &'static str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if let Err(e) = out.metrics.conform(expected) {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    let correct = out.failed == 0;
    println!(
        "{} (seed {}, {}): {} attempted, {} failed, failed_frac {}",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted as f64
    );
    out.metrics.print();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        out.metrics.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the workloads and metrics this
    /// program reports, with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names = json.matches("\"name\": ").count();
        assert_eq!(names, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
        }
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let at = json
                .find(&format!("\"name\": \"{name}\""))
                .unwrap_or_else(|| panic!("metric {name} missing"));
            let rest = &json[at..];
            let u = rest.find("\"unit\": \"").expect("a unit") + "\"unit\": \"".len();
            assert!(
                rest[u..].starts_with(&format!("{unit}\"")),
                "unit of {name}"
            );
        }
    }
}
