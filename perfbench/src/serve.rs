//! `serve-mix`: the multi-tenant service under an open loop.
//!
//! An op is one `serve()` call over a fixed Poisson trace of
//! `WorkloadSpec::small_heavy` jobs on the two-device shared-chassis
//! fleet. Every completed job is checked bit for bit (through a hash of
//! its f64 bit patterns) against a standalone `cpu-seq` run of
//! `JobSpec::materialize()` computed during set-up.
//! Arrival times are virtual, so the generator can never run late.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::error::Error;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use cuda_sim::HostProps;
use laue_core::{cpu, ScanView};
use laue_serve::{serve, JobSpec, ServeConfig, ServeReport, Workload, WorkloadSpec};

use crate::metrics::{median, peak_rss_mb, percentile, tail, timed_setup, Metrics};
use crate::{Args, Outcome};

type Result<T> = std::result::Result<T, Box<dyn Error>>;

/// Jobs per trace; an op serves one trace.
pub const JOBS: usize = 2000;
/// Distinct traces per run. Ops cycle over them; the virtual metrics pool
/// the jobs of all of them.
pub const TRACES: usize = 8;
/// Traces pooled at each ladder rate (the first of the run's traces).
pub const LADDER_TRACES: usize = 4;
/// The fixed offered rate the end-to-end latencies are measured at,
/// jobs per virtual second.
pub const RATE_HZ: f64 = 20_000.0;
/// Fixed ladder of offered rates for `sustained_jobs_per_s`.
pub const LADDER_HZ: [f64; 12] = [
    8_000.0, 12_000.0, 16_000.0, 20_000.0, 22_000.0, 24_000.0, 25_000.0, 26_000.0, 27_000.0,
    28_000.0, 30_000.0, 32_000.0,
];
/// Job latencies are summarised by their median and this percentile.
/// Pooled over the run's traces it has well over ten jobs beyond it.
pub const JOB_TAIL_Q: f64 = 0.99;
/// Latency limit on the [`JOB_TAIL_Q`] latency for a ladder rate to count
/// as sustained.
pub const TAIL_LIMIT_S: f64 = 1e-3;
/// A ladder rate also needs every trace's goodput to reach this share of
/// its offered rate: a growing backlog stretches the makespan past the
/// arrivals.
const MIN_GOODPUT_SHARE: f64 = 0.9;

const SETUPS: usize = 3;
const MIN_OPS: usize = 40;

/// Standalone result of one job. The image is kept as a 64-bit hash of
/// its f64 bit patterns, which keeps thousands of references small.
struct Reference {
    image_hash: u64,
    cpu_s: f64,
    input_bytes: u64,
}

/// Jobs materialize from their seed and shape alone, so that is the key.
type Key = (u64, usize, usize, usize, usize);
type References = HashMap<Key, Reference>;

fn key(j: &JobSpec) -> Key {
    let s = &j.shape;
    (j.seed, s.n_rows, s.n_cols, s.n_steps, s.n_bins)
}

fn image_hash(data: &[f64]) -> u64 {
    let mut h = DefaultHasher::new();
    data.len().hash(&mut h);
    for x in data {
        x.to_bits().hash(&mut h);
    }
    h.finish()
}

fn reference(spec: &JobSpec, host: &HostProps) -> Result<Reference> {
    let scan = spec.materialize();
    let s = &spec.shape;
    let view = ScanView::new(&scan.images, s.n_steps, s.n_rows, s.n_cols)?;
    let out = cpu::reconstruct_seq(&view, &scan.geometry, &spec.config())?;
    Ok(Reference {
        image_hash: image_hash(&out.image.data),
        cpu_s: out.modeled_time_s(host, 1),
        input_bytes: (s.n_steps * s.n_rows * s.n_cols * 2) as u64,
    })
}

/// The run's traces at `rate_hz`. The generator draws the same jobs at
/// every rate; only the arrival times scale.
fn traces(rate_hz: f64, seed: u64, count: usize) -> Vec<Vec<JobSpec>> {
    (0..count as u64)
        .map(|t| {
            WorkloadSpec::small_heavy(JOBS, rate_hz, seed * TRACES as u64 + t)
                .generate()
                .initial
        })
        .collect()
}

/// Compute the references `traces` still lack.
fn add_references(refs: &mut References, traces: &[Vec<JobSpec>]) -> Result<()> {
    let host = HostProps::xeon_e5630();
    for j in traces.iter().flatten() {
        if let Entry::Vacant(slot) = refs.entry(key(j)) {
            slot.insert(reference(j, &host)?);
        }
    }
    Ok(())
}

fn prepare(seed: u64) -> Result<(Vec<Vec<JobSpec>>, References)> {
    let traces = traces(RATE_HZ, seed, TRACES);
    let mut refs = HashMap::with_capacity(TRACES * JOBS);
    add_references(&mut refs, &traces)?;
    Ok((traces, refs))
}

fn run_trace(cfg: &ServeConfig, jobs: &[JobSpec]) -> Result<(f64, ServeReport)> {
    let workload = Workload {
        initial: jobs.to_vec(),
        closed: None,
    };
    let t = Instant::now();
    let report = serve(cfg, workload)?;
    Ok((t.elapsed().as_secs_f64(), report))
}

/// Jobs that were rejected, lost, or differ from their reference.
fn failures(report: &ServeReport, jobs: &[JobSpec], refs: &References) -> u64 {
    let by_id: HashMap<u64, &JobSpec> = jobs.iter().map(|j| (j.id, j)).collect();
    let mut failed = (jobs.len() - report.outcomes.len()) as u64;
    for o in &report.outcomes {
        let r = by_id.get(&o.id).and_then(|j| refs.get(&key(j)));
        if r.is_none_or(|r| r.image_hash != image_hash(&o.image.data)) {
            eprintln!(
                "job {}: output differs from its standalone cpu-seq run",
                o.id
            );
            failed += 1;
        }
    }
    failed
}

/// Virtual-time results pooled over several traces.
#[derive(Default)]
struct Pool {
    latencies: Vec<f64>,
    waits: Vec<f64>,
    service: Vec<f64>,
    completed: u64,
    makespan_s: f64,
    utilization: Vec<f64>,
    fused_jobs: u64,
    batches: u64,
    preemptions: u64,
    migrations: u64,
    rejects_depth: u64,
    rejects_backlog: u64,
    cache: [u64; 4],
}

impl Pool {
    fn absorb(&mut self, r: &ServeReport) {
        for o in &r.outcomes {
            self.latencies.push(o.latency_s());
            self.waits.push(o.queued_s());
            self.service.push(o.service_s);
        }
        self.completed += r.outcomes.len() as u64;
        self.makespan_s += r.makespan_s;
        self.utilization.push(r.utilization);
        self.fused_jobs += r.batch.fused_jobs;
        self.batches += r.batch.batches;
        self.preemptions += r.preemptions;
        self.migrations += r.migrations;
        self.rejects_depth += r.admission.rejected_depth;
        self.rejects_backlog += r.admission.rejected_backlog;
        let c = &r.cache;
        for (sum, x) in
            self.cache
                .iter_mut()
                .zip([c.host_hits, c.host_misses, c.device_hits, c.device_misses])
        {
            *sum += x;
        }
    }

    fn goodput(&self) -> f64 {
        self.completed as f64 / self.makespan_s
    }
}

pub fn run(args: &Args) -> Result<Outcome> {
    let cfg = ServeConfig::for_tenants(3);
    let ((traces, mut refs), setup_s) = timed_setup(SETUPS, || prepare(args.seed))?;
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // Reference pass, one op per trace: its virtual numbers are the run's
    // deterministic ones.
    let mut pool = Pool::default();
    for jobs in &traces {
        let (_, report) = run_trace(&cfg, jobs)?;
        attempted += jobs.len() as u64;
        failed += failures(&report, jobs, &refs);
        pool.absorb(&report);
    }
    if pool.fused_jobs == 0 {
        return Err("mechanism guard failed for serve-mix: no fused jobs".into());
    }

    let mut plain_wall = Vec::new();
    let mut traced_wall = Vec::new();
    let start = Instant::now();
    let mut n = 0usize;
    while start.elapsed().as_secs_f64() < args.seconds || n < MIN_OPS {
        let jobs = &traces[n % TRACES];
        let (wall, report) = run_trace(&cfg, jobs)?;
        attempted += jobs.len() as u64;
        failed += failures(&report, jobs, &refs);
        // Serving has no inner call to wrap: a traced op is the same
        // `serve()` call, timed the same way.
        if args.trace && n % 2 == 1 {
            traced_wall.push(wall);
        } else {
            plain_wall.push(wall);
        }
        n += 1;
    }

    let mut m = Metrics::default();
    if args.trace {
        layer_metrics(&mut m, &pool, &traced_wall, &plain_wall);
    } else {
        let all = || traces.iter().flatten().map(|j| &refs[&key(j)]);
        let input_mb = all().map(|r| r.input_bytes).sum::<u64>() as f64 / 1e6;
        let cpu_s: f64 = all().map(|r| r.cpu_s).sum();
        let service_s: f64 = pool.service.iter().sum();
        let (sustained, ladder_attempted, ladder_failed) = ladder(&cfg, args.seed, &mut refs)?;
        attempted += ladder_attempted;
        failed += ladder_failed;
        let p50 = median(&plain_wall);
        let t = tail(&plain_wall);
        println!(
            "serve-mix: open loop at {RATE_HZ} jobs/s, {TRACES} traces of {JOBS} jobs, {n} timed \
             traces; op_wall_tail_s is p{:.1} of {} traces; job_tail_s is p{} of {} jobs",
            t.percentile,
            t.samples,
            100.0 * JOB_TAIL_Q,
            pool.latencies.len()
        );
        m.put("setup_s", setup_s, "s");
        m.put("op_wall_p50_s", p50, "s");
        m.put("op_wall_tail_s", t.value, "s");
        m.put("wall_mb_per_s", input_mb / TRACES as f64 / p50, "MB/s");
        m.put("virtual_mb_per_s", input_mb / service_s, "MB/s");
        m.put("virtual_speedup_vs_cpu", cpu_s / service_s, "x");
        m.put(
            "ok_frac",
            (attempted - failed) as f64 / attempted as f64,
            "ratio",
        );
        m.put("job_p50_s", median(&pool.latencies), "s");
        m.put("job_tail_s", percentile(&pool.latencies, JOB_TAIL_Q), "s");
        m.put("sustained_jobs_per_s", sustained, "1/s");
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
    })
}

/// Walk the fixed rate ladder. Returns the goodput at the highest rate
/// whose pooled job tail meets [`TAIL_LIMIT_S`] with no growing backlog,
/// plus the jobs attempted and failed on the way.
fn ladder(cfg: &ServeConfig, seed: u64, refs: &mut References) -> Result<(f64, u64, u64)> {
    let mut sustained = None;
    let (mut attempted, mut failed) = (0, 0);
    for &rate in &LADDER_HZ {
        let traces = traces(rate, seed, LADDER_TRACES);
        add_references(refs, &traces)?;
        let mut pool = Pool::default();
        let mut keeps_up = true;
        for jobs in &traces {
            let (_, report) = run_trace(cfg, jobs)?;
            attempted += jobs.len() as u64;
            failed += failures(&report, jobs, refs);
            let offered = jobs.len() as f64 / jobs.last().expect("non-empty trace").arrival_s;
            keeps_up &= report.outcomes.len() == jobs.len()
                && report.goodput_jobs_per_s() >= MIN_GOODPUT_SHARE * offered;
            pool.absorb(&report);
        }
        let tail_s = percentile(&pool.latencies, JOB_TAIL_Q);
        let ok = keeps_up && tail_s <= TAIL_LIMIT_S;
        println!(
            "  ladder {rate:>8} jobs/s: tail {tail_s:.6} s, goodput {:.0}/s -> {}",
            pool.goodput(),
            if ok { "sustained" } else { "not sustained" }
        );
        if ok {
            sustained = Some(pool.goodput());
        }
    }
    let sustained = sustained.ok_or("serve-mix: no ladder rate met the latency limit")?;
    Ok((sustained, attempted, failed))
}

fn layer_metrics(m: &mut Metrics, p: &Pool, traced_wall: &[f64], plain_wall: &[f64]) {
    m.put("serve.queue_wait_p50_s", median(&p.waits), "s");
    m.put(
        "serve.queue_wait_tail_s",
        percentile(&p.waits, JOB_TAIL_Q),
        "s",
    );
    m.put("serve.service_p50_s", median(&p.service), "s");
    m.count("serve.fused_jobs", p.fused_jobs);
    m.count("serve.batches", p.batches);
    m.put(
        "serve.mean_batch",
        p.fused_jobs as f64 / p.batches as f64,
        "jobs",
    );
    m.put("serve.utilization", median(&p.utilization), "ratio");
    m.count("serve.preemptions", p.preemptions);
    m.count("serve.migrations", p.migrations);
    m.count("serve.rejects_depth", p.rejects_depth);
    m.count("serve.rejects_backlog", p.rejects_backlog);
    m.put(
        "serve.wall_us_per_job",
        median(traced_wall) / JOBS as f64 * 1e6,
        "us",
    );
    m.count("cache.host_hits", p.cache[0]);
    m.count("cache.host_misses", p.cache[1]);
    m.count("cache.device_hits", p.cache[2]);
    m.count("cache.device_misses", p.cache[3]);
    m.put(
        "trace.overhead_frac",
        median(traced_wall) / median(plain_wall),
        "ratio",
    );
}
