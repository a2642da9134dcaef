//! The service loop: admission → queues → batch former → fleet executor.
//!
//! The scheduler is a deterministic discrete-event loop over fleet time.
//! Each iteration picks the device that frees earliest, advances the
//! clock to the first instant that device has ready work (admitting any
//! arrivals that occur on the way), and dispatches once:
//!
//! * if the serve-order head job is batchable, the batch former harvests
//!   every ready fused-eligible job that fits the memory budget and the
//!   whole set runs as **one** fused launch (one coalesced upload, one
//!   kernel, per-job outputs bit-identical to standalone runs);
//! * otherwise the head job runs **one quantum** of rows through the
//!   checkpointed engine. An unfinished job re-queues with its
//!   [`SlabProgress`] and may resume on any device — preemption and
//!   migration are the same mechanism the crash-recovery journal uses,
//!   which is why a preempted, migrated job still completes
//!   bit-identical to an uninterrupted one.
//!
//! Virtual time does not advance while the scheduler "thinks": decision
//! cost is zero, only measured device work and declared arrivals move
//! the clock. Two runs of the same workload therefore produce identical
//! timelines, which the CI latency gates depend on.

use std::collections::VecDeque;

use cuda_sim::DeviceProps;
use laue_core::cache::TableCacheStats;
use laue_core::gpu::batch::{reconstruct_batch_fused, BatchJob};
use laue_core::gpu::{self, GpuOptions, RunOptions, Topology, Triangulation};
use laue_core::journal::SlabProgress;
use laue_core::{InMemorySlabSource, Result};

use crate::admission::{AdmissionPolicy, AdmissionStats, ServicePredictor};
use crate::batcher::{BatchPolicy, BatchStats};
use crate::fleet::GpuFleet;
use crate::job::{JobOutcome, JobSpec, RejectReason};
use crate::queue::{QueuedJob, TenantQueues};
use crate::workload::Workload;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Devices in the fleet.
    pub n_devices: usize,
    /// Devices sharing one chassis (PCIe bus + host CPU).
    pub devices_per_chassis: usize,
    /// Device model (homogeneous fleet).
    pub device: DeviceProps,
    /// Fleet-wide depth-table cache budget, bytes.
    pub cache_bytes: u64,
    /// Fair-share weight per tenant (index = tenant id).
    pub tenant_weights: Vec<f64>,
    /// Admission limits.
    pub admission: AdmissionPolicy,
    /// Batch-forming policy.
    pub batch: BatchPolicy,
    /// Preemption quantum, rows per dispatch of a non-fused job.
    /// `usize::MAX` disables preemption.
    pub quantum_rows: usize,
    /// Run non-fused jobs with host-precomputed depth tables through the
    /// shared cache (cross-tenant reuse); `false` = in-kernel
    /// triangulation, cache unused.
    pub host_tables: bool,
}

impl ServeConfig {
    /// Sensible service for `n_tenants` equal-weight tenants: two M2070s
    /// in one chassis, batching on, 8-row quantum, shared tables.
    pub fn for_tenants(n_tenants: usize) -> ServeConfig {
        ServeConfig {
            n_devices: 2,
            devices_per_chassis: 2,
            device: DeviceProps::tesla_m2070(),
            cache_bytes: 32 * 1024 * 1024,
            tenant_weights: vec![1.0; n_tenants.max(1)],
            admission: AdmissionPolicy::unbounded(),
            batch: BatchPolicy::default(),
            quantum_rows: 8,
            host_tables: true,
        }
    }
}

/// Everything one service run produced.
#[derive(Debug)]
pub struct ServeReport {
    /// Completed jobs, in completion order.
    pub outcomes: Vec<JobOutcome>,
    /// Turned-away arrivals with reasons.
    pub rejected: Vec<(JobSpec, RejectReason)>,
    /// Admission counters.
    pub admission: AdmissionStats,
    /// Batch-former counters.
    pub batch: BatchStats,
    /// Fleet makespan: when the last job finished.
    pub makespan_s: f64,
    /// Busy device-seconds over available device-seconds.
    pub utilization: f64,
    /// Quantum expiries after which another job was dispatched on the
    /// device before the expired job ran again: the job was displaced.
    pub preemptions: u64,
    /// Quantum expiries after which the expired job itself ran next
    /// (nothing else was waiting for its device): a checkpoint, not a
    /// preemption.
    pub quantum_expiries: u64,
    /// Resumes on a different device than the previous quantum.
    pub migrations: u64,
    /// Fleet-wide depth-table cache accounting.
    pub cache: TableCacheStats,
}

impl ServeReport {
    /// Completed jobs per fleet second.
    pub fn goodput_jobs_per_s(&self) -> f64 {
        if self.makespan_s <= 0.0 {
            0.0
        } else {
            self.outcomes.len() as f64 / self.makespan_s
        }
    }

    /// Nearest-rank latency percentile over completed jobs, `q ∈ (0, 1]`.
    pub fn latency_percentile(&self, q: f64) -> f64 {
        let mut lats: Vec<f64> = self.outcomes.iter().map(|o| o.latency_s()).collect();
        if lats.is_empty() {
            return 0.0;
        }
        lats.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = ((q * lats.len() as f64).ceil() as usize).clamp(1, lats.len());
        lats[rank - 1]
    }

    /// Median latency.
    pub fn p50_s(&self) -> f64 {
        self.latency_percentile(0.50)
    }

    /// Tail latency.
    pub fn p99_s(&self) -> f64 {
        self.latency_percentile(0.99)
    }
}

/// Run a workload through the service. Deterministic: the same config
/// and workload always produce the same report, bit for bit.
pub fn serve(cfg: &ServeConfig, workload: Workload) -> Result<ServeReport> {
    let fleet = GpuFleet::new(
        cfg.n_devices,
        cfg.devices_per_chassis,
        cfg.device.clone(),
        cfg.cache_bytes,
    );
    let mut predictor =
        ServicePredictor::new(fleet.device_props().clone(), fleet.host_props().clone());
    let max_tenant = workload.initial.iter().map(|j| j.tenant).max().unwrap_or(0);
    assert!(
        cfg.tenant_weights.len() > max_tenant,
        "a weight per tenant: {} tenants, {} weights",
        max_tenant + 1,
        cfg.tenant_weights.len()
    );

    let mut pending: VecDeque<JobSpec> = workload.initial.into();
    let mut closed = workload.closed;
    let mut queues = TenantQueues::new(cfg.tenant_weights.clone());
    let mut state = ServeState {
        fleet,
        queues: &mut queues,
        outcomes: Vec::new(),
        rejected: Vec::new(),
        admission: AdmissionStats::default(),
        batch: BatchStats::default(),
        preemptions: 0,
        quantum_expiries: 0,
        expired: vec![None; cfg.n_devices],
        migrations: 0,
    };

    loop {
        // Where can the fleet next do work?
        let (dev, free) = state.fleet.clock.earliest_free();
        let horizon = match (state.queues.earliest_ready(), pending.front()) {
            (Some(q), Some(p)) => q.min(p.arrival_s),
            (Some(q), None) => q,
            (None, Some(p)) => p.arrival_s,
            (None, None) => break,
        };
        let now = free.max(horizon);

        // Admit every arrival on or before the dispatch instant.
        while pending.front().is_some_and(|j| j.arrival_s <= now) {
            let spec = pending.pop_front().unwrap();
            let predicted = predictor.predict(&spec);
            let decision = cfg.admission.admit(
                state.queues.tenant_depth(spec.tenant),
                state.queues.predicted_backlog_s(),
                predicted,
            );
            state.admission.record(&decision);
            match decision {
                Ok(()) => state.queues.push(QueuedJob::new(spec, predicted)),
                Err(reason) => state.rejected.push((spec, reason)),
            }
        }

        // Dispatch once on the chosen device (an all-rejected admission
        // round can leave nothing ready — loop and re-evaluate).
        let Some(head) = state.queues.pick(now) else {
            continue;
        };
        let finished = if cfg.batch.eligible(&head.spec) {
            state.run_fused(cfg, head, dev, now)?
        } else {
            state.run_quantum(cfg, head, dev, now)?
        };

        // Closed-loop clients respond to completions with fresh arrivals.
        if let Some(cl) = closed.as_mut() {
            for finish_s in finished {
                if let Some(next) = cl.next_job(finish_s) {
                    let at = pending
                        .iter()
                        .position(|j| j.arrival_s > next.arrival_s)
                        .unwrap_or(pending.len());
                    pending.insert(at, next);
                }
            }
        }
    }

    let makespan_s = state.fleet.clock.makespan_s();
    let utilization = state.fleet.clock.utilization();
    let cache = state.fleet.cache().totals();
    Ok(ServeReport {
        outcomes: state.outcomes,
        rejected: state.rejected,
        admission: state.admission,
        batch: state.batch,
        makespan_s,
        utilization,
        preemptions: state.preemptions,
        quantum_expiries: state.quantum_expiries,
        migrations: state.migrations,
        cache,
    })
}

/// Mutable run state threaded through the dispatch paths.
struct ServeState<'a> {
    fleet: GpuFleet,
    queues: &'a mut TenantQueues,
    outcomes: Vec<JobOutcome>,
    rejected: Vec<(JobSpec, RejectReason)>,
    admission: AdmissionStats,
    batch: BatchStats,
    preemptions: u64,
    quantum_expiries: u64,
    /// Per device, the job whose quantum last expired there and that is
    /// not yet settled as a preemption or a plain expiry.
    expired: Vec<Option<u64>>,
    migrations: u64,
}

impl ServeState<'_> {
    /// Settle pending quantum expiries at a dispatch of `ids` on `dev`. An
    /// expired job that runs again (on any device) before its device
    /// served anyone else was not preempted; a device handed to another
    /// job first preempted the one that expired there.
    fn settle_expiries(&mut self, dev: usize, ids: &[u64]) {
        for (d, slot) in self.expired.iter_mut().enumerate() {
            match *slot {
                Some(id) if ids.contains(&id) => self.quantum_expiries += 1,
                Some(_) if d == dev => self.preemptions += 1,
                _ => continue,
            }
            *slot = None;
        }
    }

    /// Fuse the head job with every ready eligible job that fits, run
    /// the batch as one launch, and complete every member. Returns the
    /// members' finish times (for closed-loop resubmission).
    fn run_fused(
        &mut self,
        cfg: &ServeConfig,
        head: QueuedJob,
        dev: usize,
        now: f64,
    ) -> Result<Vec<f64>> {
        let mut used = head.spec.shape.fused_bytes();
        let mut members = vec![head];
        if cfg.batch.max_jobs > 1 {
            let extra = self.queues.pick_batch(now, cfg.batch.max_jobs - 1, |j| {
                cfg.batch.admit_to_batch(j, &mut used)
            });
            members.extend(extra);
        }
        let ids: Vec<u64> = members.iter().map(|m| m.spec.id).collect();
        self.settle_expiries(dev, &ids);

        let scans: Vec<_> = members.iter().map(|m| m.spec.materialize()).collect();
        let job_cfgs: Vec<_> = members.iter().map(|m| m.spec.config()).collect();
        let mut sources: Vec<InMemorySlabSource> = members
            .iter()
            .zip(&scans)
            .map(|(m, scan)| {
                InMemorySlabSource::new(
                    scan.images.clone(),
                    m.spec.shape.n_steps,
                    m.spec.shape.n_rows,
                    m.spec.shape.n_cols,
                )
            })
            .collect::<Result<_>>()?;
        let mut jobs: Vec<BatchJob<'_>> = sources
            .iter_mut()
            .zip(&scans)
            .zip(&job_cfgs)
            .map(|((source, scan), cfg)| BatchJob {
                source,
                geom: &scan.geometry,
                cfg,
            })
            .collect();
        let batch = reconstruct_batch_fused(self.fleet.device(dev), &mut jobs)?;
        drop(jobs);

        let span = self.fleet.clock.dispatch(dev, now, batch.elapsed_s);
        self.batch.record_batch(members.len());
        let total_threads: u64 = members.iter().map(|m| m.spec.shape.threads()).sum();
        let mut finished = Vec::with_capacity(members.len());
        for (member, result) in members.into_iter().zip(batch.results) {
            // Each member's fair-share charge is its proportional slice
            // of the batch makespan (bigger jobs pay more of the fuse).
            let share = batch.elapsed_s * member.spec.shape.threads() as f64 / total_threads as f64;
            self.queues.charge(member.spec.tenant, share);
            finished.push(span.end_s);
            self.outcomes.push(JobOutcome {
                id: member.spec.id,
                tenant: member.spec.tenant,
                class: member.spec.class,
                arrival_s: member.spec.arrival_s,
                start_s: span.start_s,
                finish_s: span.end_s,
                service_s: share,
                batched: true,
                quanta: 1,
                migrations: 0,
                image: result.image,
                stats: result.stats,
            });
        }
        Ok(finished)
    }

    /// Run one preemption quantum of a non-fused job. A finished job
    /// completes; an unfinished one re-queues carrying its checkpoint.
    fn run_quantum(
        &mut self,
        cfg: &ServeConfig,
        mut job: QueuedJob,
        dev: usize,
        now: f64,
    ) -> Result<Vec<f64>> {
        let spec = job.spec.clone();
        self.settle_expiries(dev, &[spec.id]);
        let scan = spec.materialize();
        let job_cfg = spec.config();
        let mut source = InMemorySlabSource::new(
            scan.images,
            spec.shape.n_steps,
            spec.shape.n_rows,
            spec.shape.n_cols,
        )?;
        let mut progress = job.progress.take().unwrap_or_else(|| {
            SlabProgress::new(job_cfg.n_depth_bins, spec.shape.n_rows, spec.shape.n_cols)
        });
        let triangulation = if cfg.host_tables {
            Triangulation::HostTables
        } else {
            Triangulation::InKernel
        };
        let run = RunOptions {
            gpu: GpuOptions {
                triangulation,
                ..GpuOptions::default()
            },
            cache: cfg.host_tables.then(|| self.fleet.cache()),
            max_rows: Some(cfg.quantum_rows),
            ..RunOptions::default()
        };
        let out = gpu::reconstruct(
            &Topology::device(self.fleet.device(dev)),
            &mut source,
            &scan.geometry,
            &job_cfg,
            &run,
            &mut progress,
            None,
        )?;

        let span = self.fleet.clock.dispatch(dev, now, out.elapsed_s);
        self.queues.charge(spec.tenant, out.elapsed_s);
        if job.first_start_s.is_none() {
            job.first_start_s = Some(span.start_s);
        }
        if job.devices.last().is_some_and(|&prev| prev != dev) {
            self.migrations += 1;
        }
        job.devices.push(dev);
        job.service_s += out.elapsed_s;
        job.quanta += 1;
        self.batch.singles += 1;

        if out.complete {
            let migrations = job.devices.windows(2).filter(|w| w[0] != w[1]).count() as u32;
            self.outcomes.push(JobOutcome {
                id: spec.id,
                tenant: spec.tenant,
                class: spec.class,
                arrival_s: spec.arrival_s,
                start_s: job.first_start_s.unwrap(),
                finish_s: span.end_s,
                service_s: job.service_s,
                batched: false,
                quanta: job.quanta,
                migrations,
                image: out.image,
                stats: out.stats,
            });
            Ok(vec![span.end_s])
        } else {
            self.expired[dev] = Some(spec.id);
            job.progress = Some(progress);
            job.ready_s = span.end_s;
            self.queues.push(job);
            Ok(Vec::new())
        }
    }
}
