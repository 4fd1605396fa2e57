//! `service`: 1000 mixed-size jobs through the multi-tenant job service,
//! at 2 and then 4 workers. A deterministic mix (shapes, approaches, node
//! and thread counts, priorities) spans four clean tenants and one chaos
//! tenant whose every job carries a lethal fault (a send panic or a
//! black-holed message). Every outcome must equal its solo identity — the
//! digest and logical traffic of the same job run alone on a quiet
//! fabric — so multiplexing, cache sharing and a neighbor's recovery are
//! proven to leave results bit-identical; faulty jobs must really have
//! recovered (≥ 2 attempts) and clean jobs never retried (exactly 1).
//! Scheduling is deterministic, so job, cache and traffic counts are
//! exact; throughput and latency percentiles are reported only.

use super::*;
use gpaw_hybrid_rt::{JobService, Priority, ServiceConfig};
use std::collections::{hash_map::Entry, HashMap};
use std::time::Instant;

const JOBS: usize = 1000;
const WORKERS: [usize; 2] = [2, 4];
const CLEAN_TENANTS: [&str; 4] = ["atlas", "borr", "ceres", "dione"];
const CHAOS_TENANT: &str = "eris";

/// One generated submission: who, what, and whether it carries a fault.
struct MixJob {
    tenant: &'static str,
    priority: Priority,
    approach: Approach,
    job: NativeJob,
    faulty: bool,
}

/// A job's *clean* configuration: fault plans and watchdog budgets do not
/// change results.
type SoloKey = (Approach, [usize; 3], usize, usize, usize, usize, usize);

fn solo_key(m: &MixJob) -> SoloKey {
    let j = &m.job;
    (
        m.approach, j.grid_ext, j.n_grids, j.nodes, j.threads, j.sweeps, j.batch,
    )
}

/// The deterministic mix. Clean tenants rotate through shapes and
/// approaches; every tenth job goes to the chaos tenant, alternating
/// send panics and black holes layered over benign chaos.
fn generate_mix() -> Vec<MixJob> {
    let shapes: [([usize; 3], usize); 4] = [
        ([8, 6, 6], 2),
        ([10, 8, 6], 3),
        ([8, 8, 8], 2),
        ([12, 10, 8], 4),
    ];
    let mut mix = Vec::with_capacity(JOBS);
    for i in 0..JOBS {
        // The i-th draw of a SplitMix64 stream seeded 0x5eed…
        let r = splitmix(
            0x5eed_5eed_5eed_5eed_u64.wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        );
        if i % 10 == 9 {
            // 2 nodes so rank 0 really sends, and a short watchdog.
            let seed = r % 251;
            let approach = if i % 20 == 9 {
                Approach::FlatOptimized
            } else {
                Approach::HybridMultiple
            };
            let job = NativeJob::new([10, 8, 6], 3, 2)
                .with_threads(2)
                .with_sweeps(2)
                .with_recv_timeout_ms(300);
            mix.push(MixJob {
                tenant: CHAOS_TENANT,
                priority: Priority::Normal,
                approach,
                job: job.with_fault(FaultPlan::benign(seed).with_panic_on_send(0, seed % 3)),
                faulty: true,
            });
            continue;
        }
        let approach = Approach::ALL[((r >> 16) % Approach::ALL.len() as u64) as usize];
        let (grid_ext, n_grids) = match approach {
            // Flat static-groups needs a grid per core, and temporal
            // blocking's depth-4 ghosts need subdomains ≥ 4 deep on a
            // 2-node split: only the 12×10×8 shape serves both.
            Approach::FlatStatic | Approach::TemporalBlocked => shapes[3],
            _ => shapes[((r >> 8) % 4) as usize],
        };
        let nodes = 1 + ((r >> 24) % 2) as usize;
        let threads = if (r >> 32).is_multiple_of(2) { 2 } else { 4 };
        let sweeps = 1 + ((r >> 40) % 2) as usize;
        let priority = match (r >> 48) % 10 {
            0 => Priority::High,
            1 => Priority::Low,
            _ => Priority::Normal,
        };
        mix.push(MixJob {
            tenant: CLEAN_TENANTS[(r % 4) as usize],
            priority,
            approach,
            job: NativeJob::new(grid_ext, n_grids, nodes)
                .with_threads(threads)
                .with_sweeps(sweeps),
            faulty: false,
        });
    }
    mix
}

pub fn run(ledger: &mut Ledger) -> Result<(), SoakFailure> {
    let mut mix = generate_mix();
    let faulty_total = mix.iter().filter(|m| m.faulty).count();
    for a in Approach::ALL {
        ensure!(
            mix.iter().any(|m| m.approach == a),
            "the job mix never runs {a:?}"
        );
    }
    // Solo identities, one per distinct clean configuration, with the
    // geometry that gives a chaos job its rank-0 neighbor.
    let mut solos: HashMap<SoloKey, (Identity, CartMap)> = HashMap::new();
    for m in &mix {
        if let Entry::Vacant(slot) = solos.entry(solo_key(m)) {
            let job = NativeJob {
                fault: None,
                ..m.job
            };
            let (run, identity) = clean(&job, m.approach)?;
            slot.insert((identity, run.map));
        }
    }
    // Every second chaos job black-holes a message on a real plan edge of
    // rank 0 instead of panicking.
    for (n, m) in mix
        .iter_mut()
        .filter(|m| m.faulty)
        .enumerate()
        .skip(1)
        .step_by(2)
    {
        let (seed, map) = (n as u64 + 1, &solos[&solo_key(m)].1);
        let dst = neighbor_of_rank0(&m.job, m.approach, map);
        m.job.fault = Some(FaultPlan::benign(seed).with_black_hole(0, dst, 1 + seed % 2));
    }

    for workers in WORKERS {
        let service: JobService<f64> = JobService::start(ServiceConfig {
            workers,
            queue_capacity: JOBS + 8,
            // Ample for the mix's ~120 compile keys: eviction under a
            // racing dispatch order would make the exact cache counts
            // host-dependent.
            cache_capacity: 256,
            retry: retry(4).retry,
            ..ServiceConfig::default()
        });
        let started = Instant::now();
        let mut handles = Vec::with_capacity(JOBS);
        for (i, m) in mix.iter().enumerate() {
            let submitted = service.submit(m.tenant, m.priority, m.approach, m.job);
            let bounced = |e| SoakFailure::divergence(format!("submission {i} bounced: {e}"));
            handles.push(submitted.map_err(bounced)?);
        }
        let (mut violations, mut queue_ms, mut run_ms) = (0u64, vec![], vec![]);
        let [mut messages, mut bytes, mut attempts, mut retransmitted, mut replayed] = [0u64; 5];
        for (i, (m, handle)) in mix.iter().zip(&handles).enumerate() {
            let outcome = handle.wait();
            queue_ms.push(outcome.queued.as_secs_f64() * 1e3);
            run_ms.push(outcome.ran.as_secs_f64() * 1e3);
            let what = format!("job {i} (tenant {})", m.tenant);
            let checked = outcome
                .result
                .as_ref()
                .map_err(|e| format!("{what}: failed: {e}"));
            let checked = checked.and_then(|r| {
                let got = Identity {
                    digest: r.digest,
                    messages: r.messages,
                    bytes: r.network_bytes,
                };
                solos[&solo_key(m)]
                    .0
                    .check(&what, got)
                    .map_err(|e| e.to_string())?;
                match (m.faulty, r.recovery.attempts) {
                    (true, 0..=1) => Err(format!("{what}: lethal fault never fired — not soaking")),
                    (false, n @ 2..) => Err(format!("{what}: clean job retried {n} times")),
                    _ => Ok(r),
                }
            });
            let r = match checked {
                Ok(r) => r,
                Err(violation) => {
                    eprintln!("{violation}");
                    violations += 1;
                    continue;
                }
            };
            (messages, bytes) = (messages + r.messages, bytes + r.network_bytes);
            attempts += u64::from(r.recovery.attempts);
            retransmitted += r.recovery.messages_retransmitted;
            replayed += r.recovery.epochs_replayed as u64;
        }
        let soak_seconds = started.elapsed().as_secs_f64();
        let stats = service.join();
        ensure!(
            violations == 0,
            "{workers} workers: {violations} violations"
        );
        let (done, failed) = (stats.completed, stats.failed);
        ensure!(
            done == JOBS as u64 && failed == 0,
            "{workers} workers: {done} done, {failed} failed"
        );

        let p = format!("workers{workers}");
        let exact = [
            ("jobs_total", JOBS as f64),
            ("tenants", (CLEAN_TENANTS.len() + 1) as f64),
            ("faulty_jobs_total", faulty_total as f64),
            ("parity_failures", violations as f64),
            ("cache_misses_total", stats.cache.misses as f64),
            ("cache_compiles_total", stats.cache.compiles as f64),
            ("cache_hits_total", stats.cache.hits as f64),
            ("messages_total", messages as f64),
            ("bytes_total", bytes as f64),
        ];
        for (key, value) in exact {
            ledger.scalar(&format!("{p}/{key}"), value, Tol::Exact);
        }
        ledger.scalar(
            &format!("{p}/attempts_total"),
            attempts as f64,
            Tol::Abs(64.0),
        );
        queue_ms.sort_by(f64::total_cmp);
        run_ms.sort_by(f64::total_cmp);
        let pct = |sorted: &[f64], q: f64| sorted[(q * (sorted.len() - 1) as f64).round() as usize];
        let info = [
            ("messages_retransmitted_total", retransmitted as f64),
            ("epochs_replayed_total", replayed as f64),
            ("throughput_jobs_per_s", JOBS as f64 / soak_seconds),
            ("queue_p50_ms", pct(&queue_ms, 0.5)),
            ("queue_p99_ms", pct(&queue_ms, 0.99)),
            ("run_p50_ms", pct(&run_ms, 0.5)),
            ("run_p99_ms", pct(&run_ms, 0.99)),
            ("soak_seconds", soak_seconds),
        ];
        for (key, value) in info {
            ledger.info(&format!("{p}/{key}"), value);
        }
    }
    Ok(())
}
