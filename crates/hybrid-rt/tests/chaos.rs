//! Chaos validation of the native plane.
//!
//! The fault plane's contract, exercised end to end:
//!
//! * under any *benign* seeded fault schedule (delays, duplicates,
//!   drop-with-redelivery) every strategy still reproduces the sequential
//!   reference bit for bit, with exactly the clean run's traffic counts;
//! * under a *lethal* fault (a black-holed message, an injected panic)
//!   the run terminates — within the watchdog budget, with a structured
//!   [`RunError`] naming the failed rank and the awaited `(src, tag)` —
//!   instead of hanging a condvar or aborting the process;
//! * a job whose decomposition is too fine for its exchange depth never
//!   starts: it is rejected with the typed [`RunError::Decomposition`]
//!   before a rank spawns, exactly when the plan could not be built.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use gpaw_bgp_hw::{CartMap, Partition};
use gpaw_fd::exec::{max_error_vs_reference_planned, sequential_reference};
use gpaw_fd::plan::{decomposition_supports, RankPlan};
use gpaw_fd::Approach;
use gpaw_hybrid_rt::{
    execute, FailureKind, FaultPlan, NativeJob, RetryPolicy, RunError, RunPolicy,
};
use std::time::{Duration, Instant};

fn coef(job: &NativeJob) -> gpaw_grid::stencil::StencilCoeffs {
    gpaw_grid::stencil::StencilCoeffs::laplacian(job.spacing)
}

fn check_bitwise(job: &NativeJob, approach: Approach, what: &str) {
    let run = execute::<f64>(job, approach, &RunPolicy::bare())
        .expect(what)
        .run;
    let reference = sequential_reference::<f64>(
        job.grid_ext,
        job.n_grids,
        job.seed,
        &coef(job),
        job.bc,
        job.sweeps,
    );
    let cfg = job.config(approach);
    let err = max_error_vs_reference_planned(&run.sets, &run.map, job.grid_ext, &reference, &cfg);
    assert_eq!(err, 0.0, "{}: diverged under {what}", approach.label());
}

/// The acceptance bar: all four strategies hold bitwise parity — and
/// exact message/byte counts — under 20 distinct seeded fault schedules.
#[test]
fn all_strategies_hold_parity_and_traffic_under_twenty_fault_schedules() {
    // 12×10×8 keeps every sub-extent ≥ 4, the ghost depth of the fused
    // temporal-blocked schedule (block 2 × stencil halo 2).
    let base = NativeJob::new([12, 10, 8], 4, 2)
        .with_threads(2)
        .with_sweeps(2);
    for a in Approach::ALL {
        let clean = execute::<f64>(&base, a, &RunPolicy::bare())
            .expect("clean run")
            .run;
        for seed in 0..20 {
            let job = base.with_fault(FaultPlan::benign(seed));
            check_bitwise(&job, a, "benign chaos run");
            // Counters are charged per logical message, so benign chaos
            // must not change what the run claims to have communicated.
            let chaotic = execute::<f64>(&job, a, &RunPolicy::bare())
                .expect("benign chaos run")
                .run;
            assert_eq!(
                chaotic.report.messages,
                clean.report.messages,
                "{} seed {seed}: message count drifted under chaos",
                a.label()
            );
            assert_eq!(
                chaotic.report.total_network_bytes,
                clean.report.total_network_bytes,
                "{} seed {seed}: network bytes drifted under chaos",
                a.label()
            );
        }
    }
}

/// A black-holed message must starve exactly its receive, which must hit
/// the watchdog and name the blocked rank and awaited `(src, tag)` — not
/// hang the test.
#[test]
fn a_black_holed_message_fails_the_run_with_a_diagnostic() {
    let job = NativeJob::new([10, 10, 10], 3, 2)
        .with_threads(2)
        .with_recv_timeout_ms(300)
        .with_fault(FaultPlan::quiet(5).with_black_hole(0, 1, 1));
    let err = execute::<f64>(&job, Approach::HybridMultiple, &RunPolicy::bare())
        .err()
        .expect("a black hole must fail the run");
    let RunError::Failed {
        strategy, failures, ..
    } = &err
    else {
        panic!("expected RunError::Failed, got {err:?}");
    };
    assert!(!err.is_integrity(), "a black hole is not corruption: {err}");
    assert_eq!(*strategy, Approach::HybridMultiple.label());
    let timeout = failures
        .iter()
        .find_map(|f| match &f.kind {
            FailureKind::RecvTimeout(t) => Some(t),
            _ => None,
        })
        .expect("a starved receive must report a watchdog timeout");
    assert_eq!(timeout.rank, 1, "the swallowed 0→1 message starves rank 1");
    assert_eq!(timeout.src, 0);
    assert!(
        !timeout.diagnostic.blocked.is_empty(),
        "the snapshot must list the blocked receive"
    );
    let text = err.to_string();
    assert!(text.contains("watchdog"), "{text}");
    assert!(text.contains("recv(src=0, tag="), "{text}");
}

/// A panic injected into a flat rank's send path is contained: the run
/// returns a structured error (panics ranked before the peers' timeouts)
/// instead of aborting the process.
#[test]
fn an_injected_send_panic_is_contained_in_flat_mode() {
    let job = NativeJob::new([10, 10, 10], 3, 2)
        .with_recv_timeout_ms(300)
        .with_fault(FaultPlan::quiet(5).with_panic_on_send(0, 2));
    let err = execute::<f64>(&job, Approach::FlatOptimized, &RunPolicy::bare())
        .err()
        .expect("an injected panic must fail the run");
    let first = err.first_failure().expect("failures must be listed");
    assert_eq!(first.rank, 0);
    let FailureKind::Panic(msg) = &first.kind else {
        panic!("panics sort before the peers' timeouts, got {first:?}");
    };
    assert!(msg.contains("chaos: injected panic"), "{msg}");
}

/// The same containment inside a hybrid schedule: the panicking endpoint
/// thread drains its barrier so its sibling threads finish, and the rank
/// reports the panic with its thread slot.
#[test]
fn an_injected_send_panic_is_contained_in_a_hybrid_endpoint() {
    let job = NativeJob::new([10, 10, 10], 4, 2)
        .with_threads(2)
        .with_recv_timeout_ms(300)
        .with_fault(FaultPlan::quiet(5).with_panic_on_send(0, 0));
    let err = execute::<f64>(&job, Approach::HybridMultiple, &RunPolicy::bare())
        .err()
        .expect("an injected panic must fail the run");
    let first = err.first_failure().expect("failures must be listed");
    assert_eq!(first.rank, 0);
    assert_eq!(first.phase, "thread-pool");
    let FailureKind::Panic(msg) = &first.kind else {
        panic!("rank 0's failure must be the contained panic, got {first:?}");
    };
    assert!(msg.contains("chaos: injected panic"), "{msg}");
    assert!(msg.contains("slot"), "{msg}");
}

/// The fault schedule is a pure function of the seed: the same seed gives
/// the same perturbation, different seeds still converge to the same
/// (bitwise-identical) answer.
#[test]
fn chaos_runs_are_reproducible_per_seed() {
    let job = NativeJob::new([10, 8, 6], 4, 2)
        .with_threads(2)
        .with_fault(FaultPlan::benign(77));
    let a = execute::<f64>(&job, Approach::HybridMultiple, &RunPolicy::bare())
        .expect("chaos run")
        .run;
    let b = execute::<f64>(&job, Approach::HybridMultiple, &RunPolicy::bare())
        .expect("chaos run")
        .run;
    assert_eq!(a.report.messages, b.report.messages);
    for (x, y) in a.sets.iter().zip(&b.sets) {
        for g in 0..x.len() {
            assert_eq!(
                gpaw_grid::norms::max_abs_diff(x.grid(g), y.grid(g)),
                0.0,
                "same seed, different bits"
            );
        }
    }
}

/// 3 planes per axis over 8 virtual-node ranks: some axis gets a
/// sub-extent of 1 against an exchange depth of 2. The run is rejected
/// typed at resolution — no rank spawns, so no watchdog runs out, and a
/// supervised run burns no retries on it.
#[test]
fn a_too_fine_decomposition_is_rejected_not_run() {
    let job = NativeJob::new([3, 3, 3], 2, 2).with_threads(1);
    let started = Instant::now();
    for policy in [
        RunPolicy::bare(),
        RunPolicy::supervised(RetryPolicy::default()),
    ] {
        let err = execute::<f64>(&job, Approach::FlatOptimized, &policy)
            .err()
            .expect("a too-fine decomposition must be rejected");
        let RunError::Decomposition {
            sub_extent,
            halo_depth: 2,
            ..
        } = err
        else {
            panic!("expected RunError::Decomposition at depth 2, got {err}");
        };
        assert!(sub_extent < 2, "{err}");
        assert!(err.to_string().contains("exchange depth 2"), "{err}");
    }
    let took = started.elapsed();
    let watchdog = Duration::from_millis(job.recv_timeout_ms);
    assert!(took < watchdog / 10, "rejection took {took:?}");
}

/// Every extent 1..=6 per axis on 1 and 2 nodes, every approach (two
/// sweeps, so temporal blocking fuses at block 2): a run starts exactly
/// when `decomposition_supports` says its geometry admits the exchange
/// depth, every rank's plan then builds, and every other run is the typed
/// rejection — as is a flat-static job that leaves a core without grids.
#[test]
fn runs_start_exactly_when_the_decomposition_supports_them() {
    for nodes in [1, 2] {
        for approach in Approach::ALL {
            for e in 0..216 {
                let ext = [1 + e % 6, 1 + e / 6 % 6, 1 + e / 36];
                // Four grids, so each FlatStatic core holds at least one.
                let job = NativeJob::new(ext, 4, nodes)
                    .with_threads(2)
                    .with_sweeps(2)
                    .with_recv_timeout_ms(2000);
                let cfg = job.config(approach);
                let partition = Partition::standard(nodes, approach.exec_mode());
                let map = CartMap::best(partition.expect("1 and 2 are standard"), ext);
                let supported = decomposition_supports(&map, ext, &cfg);
                let what = format!("{approach:?} on {nodes} node(s), extents {ext:?}");
                match execute::<f64>(&job, approach, &RunPolicy::bare()) {
                    Ok(_) => {
                        assert!(supported, "{what}: ran an unsupported geometry");
                        for rank in 0..map.ranks() {
                            RankPlan::for_rank(&map, ext, rank, 8, &cfg);
                        }
                    }
                    Err(RunError::Decomposition { .. }) => {
                        assert!(!supported, "{what}: rejected a supported geometry");
                    }
                    Err(e) => panic!("{what}: {e}"),
                }
            }
        }
        // Flat static deals the grids over the 4 cores statically: with 3
        // grids, core 3's ranks would hold nothing. Typed, not a panic.
        let job = NativeJob::new([12, 10, 8], 3, nodes);
        match execute::<f64>(&job, Approach::FlatStatic, &RunPolicy::bare()).err() {
            Some(RunError::IdleCores {
                approach: Approach::FlatStatic,
                n_grids: 3,
                cores,
            }) => assert_eq!(cores, [3]),
            other => panic!("flat static over 3 grids: expected IdleCores, got {other:?}"),
        }
    }
}
