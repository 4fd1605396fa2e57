//! Acceptance tests of the multi-tenant job service: admission control,
//! deterministic fair scheduling, shared-cache compile counting, and the
//! isolation contract — concurrent tenants (faulty ones included) get
//! bitwise the results and exactly the logical traffic of their solo
//! runs.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use gpaw_fd::config::Approach;
use gpaw_fd::plan::RankPlan;
use gpaw_hybrid_rt::{
    execute, run_digest, AdmissionError, FaultPlan, JobService, NativeJob, Priority, RetryPolicy,
    RunError, RunPolicy, ServiceConfig, ServiceOutcome,
};
use std::collections::HashMap;
use std::time::Duration;

/// A solo (unserviced, fault-free) run's identity: what any serviced run
/// of the same job must reproduce exactly.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct SoloIdentity {
    digest: u64,
    messages: u64,
    network_bytes: u64,
}

fn solo_identity(job: &NativeJob, approach: Approach) -> SoloIdentity {
    let clean = NativeJob {
        fault: None,
        ..*job
    };
    let run = execute::<f64>(&clean, approach, &RunPolicy::bare())
        .expect("solo run completes")
        .run;
    SoloIdentity {
        digest: run_digest(&run.sets),
        messages: run.report.messages,
        network_bytes: run.report.total_network_bytes,
    }
}

/// Rank 0's first plan neighbor — the black hole must swallow a message
/// on a real communication edge.
fn neighbor_of_rank0(job: &NativeJob, approach: Approach) -> usize {
    let clean = NativeJob {
        fault: None,
        ..*job
    };
    let run = execute::<f64>(&clean, approach, &RunPolicy::bare())
        .expect("geometry probe run completes")
        .run;
    let cfg = job.config(approach);
    let plan = RankPlan::for_rank(&run.map, job.grid_ext, 0, 8, &cfg);
    plan.neighbors
        .iter()
        .flatten()
        .copied()
        .next()
        .expect("rank 0 has a neighbor on a 2-node partition")
}

fn assert_matches_solo(outcome: &ServiceOutcome<f64>, solo: &SoloIdentity, what: &str) {
    let result = outcome
        .result
        .as_ref()
        .unwrap_or_else(|e| panic!("{what} (tenant {}): failed: {e}", outcome.tenant));
    assert_eq!(
        result.digest, solo.digest,
        "{what} (tenant {}): result not bitwise identical to its solo run",
        outcome.tenant
    );
    assert_eq!(
        (result.messages, result.network_bytes),
        (solo.messages, solo.network_bytes),
        "{what} (tenant {}): logical traffic drifted from the solo run",
        outcome.tenant
    );
}

/// The tentpole acceptance test: mixed tenants × mixed approaches ×
/// injected lethal faults, many jobs in flight at once. Every outcome
/// must be bitwise its solo run with exact logical traffic; the faulty
/// tenant's recoveries must not perturb anyone (and must really have
/// recovered — attempts ≥ 2). Clean tenants complete on attempt 1: a
/// neighbor's fault never bleeds into their supervision.
#[test]
fn mixed_tenants_with_injected_faults_keep_solo_identity() {
    let small = NativeJob::new([8, 6, 6], 2, 1);
    let wide = NativeJob::new([10, 8, 6], 3, 2).with_sweeps(2);
    let hybrid = NativeJob::new([10, 8, 6], 3, 2)
        .with_threads(2)
        .with_sweeps(2);
    let chaos_base = NativeJob::new([10, 8, 6], 3, 2)
        .with_sweeps(2)
        .with_recv_timeout_ms(300);

    // Tenant → (approach, clean job). Four clean tenants on distinct
    // approaches plus one chaos tenant injecting lethal faults.
    let clean_tenants: Vec<(&str, Approach, NativeJob)> = vec![
        ("alice", Approach::FlatOptimized, wide),
        ("bob", Approach::HybridMultiple, hybrid),
        ("carol", Approach::HybridMasterOnly, hybrid),
        ("dave", Approach::FlatOriginal, small),
    ];
    let chaos_approach = Approach::FlatOptimized;

    let mut solos: HashMap<&str, SoloIdentity> = HashMap::new();
    for (tenant, approach, job) in &clean_tenants {
        solos.insert(tenant, solo_identity(job, *approach));
    }
    let chaos_solo = solo_identity(&chaos_base, chaos_approach);
    let dst = neighbor_of_rank0(&chaos_base, chaos_approach);

    let service: JobService<f64> = JobService::start(ServiceConfig {
        workers: 3,
        queue_capacity: 256,
        cache_capacity: 16,
        retry: RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(2),
        },
        ..ServiceConfig::default()
    });

    let mut handles = Vec::new();
    let per_tenant = 4usize;
    for round in 0..per_tenant {
        for (tenant, approach, job) in &clean_tenants {
            let priority = if round == 0 {
                Priority::High
            } else {
                Priority::Normal
            };
            let h = service
                .submit(tenant, priority, *approach, *job)
                .expect("clean submission admitted");
            handles.push(("clean", *tenant, h));
        }
        let seed = round as u64;
        let faulty = [
            chaos_base.with_fault(FaultPlan::benign(seed).with_panic_on_send(0, seed % 3)),
            chaos_base.with_fault(FaultPlan::benign(seed).with_black_hole(0, dst, 1 + seed % 2)),
        ];
        for job in faulty {
            let h = service
                .submit("mallory", Priority::Normal, chaos_approach, job)
                .expect("faulty submission admitted");
            handles.push(("faulty", "mallory", h));
        }
    }

    let total = handles.len() as u64;
    let mut faulty_recovered = 0u64;
    for (kind, tenant, handle) in &handles {
        let outcome = handle.wait();
        assert_eq!(outcome.tenant, *tenant);
        let solo = if *kind == "faulty" {
            &chaos_solo
        } else {
            &solos[tenant]
        };
        assert_matches_solo(&outcome, solo, kind);
        let result = outcome.result.as_ref().unwrap();
        if *kind == "faulty" {
            assert!(
                result.recovery.attempts >= 2,
                "mallory's lethal fault never fired — the test is not testing isolation"
            );
            faulty_recovered += 1;
        } else {
            assert_eq!(
                result.recovery.attempts, 1,
                "a clean tenant ({tenant}) was perturbed into a retry by a neighbor's fault"
            );
        }
    }
    assert_eq!(faulty_recovered, 2 * per_tenant as u64);

    let stats = service.join();
    assert_eq!(stats.submitted, total);
    assert_eq!(stats.completed, total);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.served.get("mallory"), Some(&(2 * per_tenant as u64)));
    // Five distinct job shapes (chaos shares alice's FdConfig but not her
    // fault-free twin? no — the fault plan is not part of the program
    // key, and mallory's clean shape differs from alice's only in the
    // watchdog, which is not a compile input either: they share programs).
    // alice+mallory, bob, carol, dave → 4 distinct compile keys.
    assert_eq!(
        stats.cache.compiles, 4,
        "repeat traffic must share compiles"
    );
    assert_eq!(stats.cache.misses, 4);
    assert_eq!(stats.cache.hits + stats.cache.misses, total);
}

/// Admission control: a full queue and impossible geometries bounce at
/// the door, without disturbing admitted work.
#[test]
fn admission_rejects_full_queues_and_impossible_jobs() {
    let job = NativeJob::new([8, 6, 6], 2, 1);
    let service: JobService<f64> = JobService::start(ServiceConfig {
        workers: 1,
        queue_capacity: 2,
        start_paused: true,
        ..ServiceConfig::default()
    });

    let h1 = service
        .submit("a", Priority::Normal, Approach::FlatOptimized, job)
        .expect("first fits");
    let h2 = service
        .submit("b", Priority::Normal, Approach::FlatOptimized, job)
        .expect("second fits");
    match service.submit("c", Priority::Normal, Approach::FlatOptimized, job) {
        Err(AdmissionError::QueueFull { capacity: 2 }) => {}
        other => panic!("expected QueueFull, got {other:?}"),
    }

    // Impossible geometries are rejected eagerly — they never occupy a
    // queue slot (the queue is still full, so rejection must come first).
    let bad_threads = NativeJob::new([12, 12, 12], 4, 2).with_threads(3);
    match service.submit("c", Priority::Normal, Approach::HybridMultiple, bad_threads) {
        Err(AdmissionError::Rejected(RunError::Map(_))) => {}
        other => panic!("expected Rejected(Map), got {other:?}"),
    }
    let bad_nodes = NativeJob::new([12, 12, 12], 2, 3);
    match service.submit("c", Priority::Normal, Approach::FlatOptimized, bad_nodes) {
        Err(AdmissionError::Rejected(RunError::UnsupportedNodeCount { nodes: 3 })) => {}
        other => panic!("expected Rejected(UnsupportedNodeCount), got {other:?}"),
    }
    let mut no_grids = job;
    no_grids.n_grids = 0;
    match service.submit("c", Priority::Normal, Approach::FlatOptimized, no_grids) {
        Err(AdmissionError::Rejected(RunError::NoGrids)) => {}
        other => panic!("expected Rejected(NoGrids), got {other:?}"),
    }
    // 3 planes per axis over 8 virtual-node ranks leaves a subdomain one
    // plane deep against an exchange depth of 2: bounced typed, before
    // its programs are compiled (the cache sees only the admitted shape).
    let too_fine = NativeJob::new([3, 3, 3], 2, 2).with_threads(1);
    match service.submit("c", Priority::Normal, Approach::FlatOptimized, too_fine) {
        Err(AdmissionError::Rejected(RunError::Decomposition { halo_depth: 2, .. })) => {}
        other => panic!("expected Rejected(Decomposition), got {other:?}"),
    }
    // Flat static over 3 grids leaves core 3's ranks nothing to sweep.
    let idle_core = NativeJob::new([12, 10, 8], 3, 1);
    match service.submit("c", Priority::Normal, Approach::FlatStatic, idle_core) {
        Err(AdmissionError::Rejected(RunError::IdleCores { .. })) => {}
        other => panic!("expected Rejected(IdleCores), got {other:?}"),
    }

    service.resume();
    let solo = solo_identity(&job, Approach::FlatOptimized);
    assert_matches_solo(&h1.wait(), &solo, "admitted job 1");
    assert_matches_solo(&h2.wait(), &solo, "admitted job 2");
    let stats = service.join();
    assert_eq!(stats.submitted, 2);
    assert_eq!(stats.completed, 2);
    assert_eq!((stats.cache.misses, stats.cache.hits), (1, 1));
}

/// The scheduling rule, pinned end to end: priority lanes first, then
/// least-served tenant, then submission order. A paused single-worker
/// service dispatches a staged backlog in exactly the predicted order.
#[test]
fn dispatch_order_is_priority_then_least_served_then_fifo() {
    let job = NativeJob::new([8, 6, 6], 2, 1);
    let approach = Approach::FlatOptimized;
    let service: JobService<f64> = JobService::start(ServiceConfig {
        workers: 1,
        queue_capacity: 16,
        start_paused: true,
        ..ServiceConfig::default()
    });

    // Staged backlog (all jobs identical, so served-cost ties are exact):
    //   a: Normal, Normal        (seq 0, 1)
    //   b: Normal, Normal        (seq 2, 3)
    //   c: High, Low             (seq 4, 5)
    // Expected dispatch: c's High; then a/b alternate (cost balancing,
    // earliest-seq tie-break); c's Low last.
    let submits = [
        ("a", Priority::Normal),
        ("a", Priority::Normal),
        ("b", Priority::Normal),
        ("b", Priority::Normal),
        ("c", Priority::High),
        ("c", Priority::Low),
    ];
    let handles: Vec<_> = submits
        .iter()
        .map(|(tenant, priority)| {
            service
                .submit(tenant, *priority, approach, job)
                .expect("backlog fits")
        })
        .collect();
    service.resume();

    let dispatch: Vec<(u64, u64)> = handles
        .iter()
        .map(|h| {
            let o = h.wait();
            assert!(o.result.is_ok());
            (o.job_id, o.dispatch_seq)
        })
        .collect();
    let expected = [
        (0u64, 1u64), // a's first: after c's High, a wins the seq tie
        (1, 3),       // a's second: after b has been served once
        (2, 2),       // b's first: least-served once a has run
        (3, 4),       // b's second
        (4, 0),       // c's High lane goes first
        (5, 5),       // c's Low lane goes last
    ];
    assert_eq!(
        dispatch, expected,
        "dispatch order drifted from the fairness rule"
    );
    service.join();
}

/// End-to-end cache behavior under eviction pressure: a capacity-1 cache
/// thrashing between two shapes still yields bitwise-solo results —
/// eviction can cost compiles, never correctness.
#[test]
fn eviction_pressure_never_changes_results() {
    let shape_a = NativeJob::new([8, 6, 6], 2, 1);
    let shape_b = NativeJob::new([8, 8, 8], 2, 1);
    let approach = Approach::FlatOptimized;
    let solo_a = solo_identity(&shape_a, approach);
    let solo_b = solo_identity(&shape_b, approach);

    let service: JobService<f64> = JobService::start(ServiceConfig {
        workers: 1,
        queue_capacity: 32,
        cache_capacity: 1,
        ..ServiceConfig::default()
    });
    let mut handles = Vec::new();
    for _ in 0..3 {
        handles.push((
            solo_a,
            service
                .submit("a", Priority::Normal, approach, shape_a)
                .unwrap(),
        ));
        handles.push((
            solo_b,
            service
                .submit("b", Priority::Normal, approach, shape_b)
                .unwrap(),
        ));
    }
    for (solo, h) in &handles {
        assert_matches_solo(&h.wait(), solo, "evicted-and-recompiled job");
    }
    let stats = service.join();
    assert!(
        stats.cache.evictions >= 2,
        "capacity 1 with two alternating shapes must evict (got {:?})",
        stats.cache
    );
    assert_eq!(stats.cache.entries, 1);
}
