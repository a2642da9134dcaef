//! Service-level bit-identity: every job the service completes — fused
//! into a batch, preempted mid-run, migrated across devices, under any
//! tenant mix — must produce exactly the image and stats a standalone
//! single-job run of the same spec produces. Batching and scheduling are
//! performance knobs; if they are ever *observable* in the output, the
//! service is broken.

use cuda_sim::{Device, DeviceProps};
use laue_core::gpu::{self, GpuOptions, RunOptions, Topology};
use laue_core::InMemorySlabSource;
use laue_serve::{serve, Arrival, BatchPolicy, JobOutcome, JobSpec, ServeConfig, WorkloadSpec};
use proptest::prelude::*;

/// Standalone single-run reference for a job spec: a fresh device, the
/// default engine, no service anywhere in sight.
fn standalone(spec: &JobSpec) -> (Vec<f64>, laue_core::ReconStats) {
    let scan = spec.materialize();
    let mut source = InMemorySlabSource::new(
        scan.images,
        spec.shape.n_steps,
        spec.shape.n_rows,
        spec.shape.n_cols,
    )
    .unwrap();
    let device = Device::new(DeviceProps::tesla_m2070());
    let serial = RunOptions::serial(GpuOptions::default());
    let topology = Topology::device(&device);
    let out = gpu::reconstruct_fresh(
        &topology,
        &mut source,
        &scan.geometry,
        &spec.config(),
        &serial,
    )
    .unwrap();
    (out.image.data, out.stats)
}

fn assert_outcomes_standalone(outcomes: &[JobOutcome], specs: &[JobSpec]) {
    assert_eq!(outcomes.len(), specs.len(), "every accepted job completes");
    for outcome in outcomes {
        let spec = specs.iter().find(|s| s.id == outcome.id).unwrap();
        let (image, stats) = standalone(spec);
        assert_eq!(
            outcome.image.data, image,
            "job {} (batched={}, quanta={}, migrations={}) must be \
             bit-identical to its standalone run",
            outcome.id, outcome.batched, outcome.quanta, outcome.migrations
        );
        assert_eq!(outcome.stats, stats, "job {} stats", outcome.id);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The headline property: across random tenant mixes, job-size
    /// mixes, arrival rates, quanta, and batching on/off, every served
    /// job is bit-identical to a standalone single run of its spec.
    #[test]
    fn every_served_job_is_bit_identical_to_standalone(
        seed in 0u64..1000,
        n_jobs in 4usize..10,
        small_fraction in prop_oneof![Just(0.0), Just(0.5), Just(0.9), Just(1.0)],
        rate in prop_oneof![Just(50.0), Just(2000.0)],
        quantum in prop_oneof![Just(4usize), Just(8usize), Just(usize::MAX)],
        batching in any::<bool>(),
        n_devices in 1usize..4,
    ) {
        let spec = WorkloadSpec {
            seed,
            n_jobs,
            n_tenants: 3,
            small_fraction,
            interactive_fraction: 0.4,
            arrival: Arrival::Open { rate_hz: rate },
        };
        let workload = spec.generate();
        let specs = workload.initial.clone();
        let mut cfg = ServeConfig::for_tenants(spec.n_tenants);
        cfg.n_devices = n_devices;
        cfg.devices_per_chassis = 2;
        cfg.quantum_rows = quantum;
        if !batching {
            cfg.batch = BatchPolicy::unbatched();
        }
        let report = serve(&cfg, workload).unwrap();
        assert_outcomes_standalone(&report.outcomes, &specs);
    }
}

/// A deterministic scenario tuned to force preemption *and* migration:
/// two devices, a tiny quantum, a mixed workload arriving fast enough that
/// jobs queue behind each other (so an expired quantum really hands its
/// device to another job). The property above covers it statistically;
/// this pins it so a regression can't hide behind proptest sampling.
#[test]
fn preempted_and_migrated_jobs_stay_standalone_identical() {
    let spec = WorkloadSpec::mixed(10, 10000.0, 21);
    let workload = spec.generate();
    let specs = workload.initial.clone();
    let mut cfg = ServeConfig::for_tenants(spec.n_tenants);
    cfg.n_devices = 2;
    cfg.quantum_rows = 4;
    let report = serve(&cfg, workload).unwrap();
    assert!(
        report.preemptions > 0,
        "mixed load with a 4-row quantum must preempt"
    );
    assert!(report.migrations > 0, "and resume on the other device");
    assert_outcomes_standalone(&report.outcomes, &specs);
    // Determinism of the whole service: run it again, same everything.
    let again = serve(&cfg, spec.generate()).unwrap();
    assert_eq!(again.makespan_s.to_bits(), report.makespan_s.to_bits());
    assert_eq!(again.preemptions, report.preemptions);
    assert_eq!(again.outcomes.len(), report.outcomes.len());
    for (a, b) in again.outcomes.iter().zip(&report.outcomes) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.finish_s.to_bits(), b.finish_s.to_bits());
        assert_eq!(a.image.data, b.image.data);
    }
}

/// A quantum that expires with nothing else waiting for the device is a
/// checkpoint, not a preemption: one large job alone on one device runs
/// quantum after quantum and is never displaced.
#[test]
fn a_lone_job_expires_quanta_without_being_preempted() {
    let mut spec = WorkloadSpec::mixed(1, 100.0, 3);
    spec.small_fraction = 0.0;
    let workload = spec.generate();
    let specs = workload.initial.clone();
    let mut cfg = ServeConfig::for_tenants(spec.n_tenants);
    cfg.n_devices = 1;
    cfg.quantum_rows = 4;
    let report = serve(&cfg, workload).unwrap();
    assert_eq!(report.outcomes.len(), 1);
    let quanta = report.outcomes[0].quanta as u64;
    assert!(quanta > 1, "a large job spans several quanta");
    assert_eq!(report.preemptions, 0, "nothing else ever ran on the device");
    assert_eq!(report.quantum_expiries, quanta - 1);
    assert_outcomes_standalone(&report.outcomes, &specs);
}

/// Closed-loop workloads complete the full job budget and stay
/// bit-identical (resubmission times depend on service times, so this
/// also exercises the completion→arrival feedback path).
#[test]
fn closed_loop_serves_full_budget_identically() {
    let mut spec = WorkloadSpec::small_heavy(12, 1.0, 5);
    spec.arrival = Arrival::Closed {
        clients: 3,
        think_s: 1e-4,
    };
    let workload = spec.generate();
    let cfg = ServeConfig::for_tenants(spec.n_tenants);
    let report = serve(&cfg, workload).unwrap();
    assert_eq!(report.outcomes.len(), 12, "the whole budget is served");
    for outcome in &report.outcomes {
        // Rebuild the job's spec from a fresh generation replaying the
        // same closed loop is impractical; instead verify against the
        // spec the service actually ran, reconstructed from its id/seed.
        let (image, stats) = standalone(&JobSpec {
            id: outcome.id,
            tenant: outcome.tenant,
            class: outcome.class,
            arrival_s: outcome.arrival_s,
            shape: if outcome.image.n_rows == 6 {
                laue_serve::JobShape::small()
            } else {
                laue_serve::JobShape::large()
            },
            seed: spec
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(outcome.id),
        });
        assert_eq!(outcome.image.data, image, "closed-loop job {}", outcome.id);
        assert_eq!(outcome.stats, stats);
    }
}

/// Fairness sanity: with one tenant weighted 4× under saturation, it
/// receives measurably more service than an equal-weight peer.
#[test]
fn weights_shift_service_share_under_saturation() {
    let spec = WorkloadSpec {
        seed: 13,
        n_jobs: 40,
        n_tenants: 2,
        small_fraction: 1.0,
        interactive_fraction: 0.0,
        arrival: Arrival::Open { rate_hz: 1.0e5 }, // everything queued at once
    };
    let run = |weights: Vec<f64>| {
        let mut cfg = ServeConfig::for_tenants(2);
        cfg.tenant_weights = weights;
        cfg.n_devices = 1;
        cfg.batch = BatchPolicy {
            max_jobs: 2, // small batches so pick order matters
            ..BatchPolicy::default()
        };
        serve(&cfg, spec.generate()).unwrap()
    };
    let fair = run(vec![1.0, 1.0]);
    let skewed = run(vec![4.0, 1.0]);
    let mean_latency = |r: &laue_serve::ServeReport, tenant: usize| {
        let xs: Vec<f64> = r
            .outcomes
            .iter()
            .filter(|o| o.tenant == tenant)
            .map(|o| o.latency_s())
            .collect();
        xs.iter().sum::<f64>() / xs.len() as f64
    };
    assert!(
        mean_latency(&skewed, 0) < mean_latency(&fair, 0),
        "a 4× weight must improve tenant 0's mean latency: {:.3e} vs {:.3e}",
        mean_latency(&skewed, 0),
        mean_latency(&fair, 0)
    );
}
