//! The synthetic fill, dealt over a rank's own threads.
//!
//! A fresh run's inputs are built by up to `threads` fillers per rank.
//! That must be invisible in the results (same digest for every thread
//! count, grids in assignment order), contained when it fails (a panicking
//! fill is a typed `RankFailure`, not an abort or a hang), and absent from
//! a supervised resume (which restores from the checkpoint store).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use gpaw_fd::exec::SyntheticFill;
use gpaw_fd::integrity::run_digest;
use gpaw_grid::decomp::Subdomain;
use gpaw_grid::grid3::Grid3;
use gpaw_grid::scalar::{Scalar, C64};
use gpaw_hybrid_rt::{
    run_native, supervise, FailureKind, FaultPlan, HybridMasterOnly, HybridMultiple, NativeJob,
    RetryPolicy, RunError, Strategy, TemporalBlocked,
};
use std::ops::{Add, AddAssign, Neg, Sub};
use std::time::Duration;

fn digests_do_not_depend_on_the_filler_count<T: SyntheticFill>() {
    let strategies: [&dyn Strategy<T>; 3] = [&HybridMultiple, &HybridMasterOnly, &TemporalBlocked];
    for strategy in strategies {
        for n_grids in [1, 2, 3, 5] {
            let digest = |threads: usize| {
                let job = NativeJob::new([12, 10, 8], n_grids, 2)
                    .with_threads(threads)
                    .with_sweeps(2);
                let run = run_native::<T>(&job, strategy).expect("valid job");
                run_digest(&run.sets)
            };
            // One thread is the serial fill; 2 and 4 deal the grids.
            let serial = digest(1);
            for threads in [2, 4] {
                assert_eq!(
                    digest(threads),
                    serial,
                    "{} with {n_grids} grids on {threads} threads",
                    strategy.name()
                );
            }
        }
    }
}

#[test]
fn real_digests_do_not_depend_on_the_filler_count() {
    digests_do_not_depend_on_the_filler_count::<f64>();
}

#[test]
fn complex_digests_do_not_depend_on_the_filler_count() {
    digests_do_not_depend_on_the_filler_count::<C64>();
}

/// A scalar with nothing in it but a synthetic fill that panics for the
/// grid whose index equals the job's seed.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Boom;

impl Add for Boom {
    type Output = Boom;
    fn add(self, _: Boom) -> Boom {
        Boom
    }
}

impl Sub for Boom {
    type Output = Boom;
    fn sub(self, _: Boom) -> Boom {
        Boom
    }
}

impl AddAssign for Boom {
    fn add_assign(&mut self, _: Boom) {}
}

impl Neg for Boom {
    type Output = Boom;
    fn neg(self) -> Boom {
        Boom
    }
}

impl Scalar for Boom {
    const BYTES: usize = 0;
    const LANES: usize = 0;

    fn lanes(_: &[Boom]) -> &[f64] {
        &[]
    }

    fn lanes_mut(_: &mut [Boom]) -> &mut [f64] {
        &mut []
    }

    fn zero() -> Boom {
        Boom
    }

    fn scale(self, _: f64) -> Boom {
        Boom
    }

    fn from_f64(_: f64) -> Boom {
        Boom
    }

    fn abs(self) -> f64 {
        0.0
    }

    fn dot_re(self, _: Boom) -> f64 {
        0.0
    }

    fn bit_pattern(self) -> [u64; 2] {
        [0; 2]
    }

    fn from_bit_pattern(_: [u64; 2]) -> Boom {
        Boom
    }
}

impl SyntheticFill for Boom {
    fn fill(_: &mut Grid3<Boom>, _: &Subdomain, _: [usize; 3], seed: u64, g: usize) {
        assert!(g as u64 != seed, "boom: grid {g} cannot be filled");
    }
}

#[test]
fn a_panicking_fill_is_a_typed_rank_failure_not_a_hang() {
    // With two fillers over three grids the rank's own thread fills grids
    // 0 and 2 and its helper grid 1: seed 1 panics on the helper, seed 2
    // on the rank thread after the helper finished, and one thread (the
    // serial fill) panics in place.
    for (threads, cursed) in [(2, 1), (2, 2), (1, 1)] {
        let job = NativeJob::new([12, 10, 8], 3, 2)
            .with_threads(threads)
            .with_seed(cursed)
            .with_recv_timeout_ms(500);
        let err = run_native::<Boom>(&job, &HybridMultiple)
            .err()
            .expect("the fill panics on every rank");
        let RunError::Failed { failures, .. } = err else {
            panic!("expected RunError::Failed, got {err}");
        };
        assert_eq!(failures.len(), 2, "both ranks fill grid {cursed}");
        for f in &failures {
            let FailureKind::Panic(message) = &f.kind else {
                panic!(
                    "rank {}: expected a contained panic, got {:?}",
                    f.rank, f.kind
                );
            };
            assert!(
                message.contains(&format!("boom: grid {cursed}")),
                "rank {} on {threads} threads: {message}",
                f.rank
            );
        }
    }
}

#[test]
fn a_supervised_retry_restores_from_the_store_not_from_a_refill() {
    // Five grids over two fillers on the first attempt; a send panics
    // mid-program and the retry resumes from a checkpointed epoch >= 1.
    // Re-running the fill there would restart from sweep-0 data, so a
    // digest equal to the clean run's proves the store supplied the inputs.
    let base = NativeJob::new([12, 10, 8], 5, 2)
        .with_threads(2)
        .with_sweeps(3)
        .with_recv_timeout_ms(300);
    let policy = RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_millis(1),
    };
    let clean = run_native::<f64>(&base, &HybridMultiple).expect("clean run");
    let resumed_mid = [8u64, 12, 16, 24, 32, 48, 64]
        .into_iter()
        .find(|&after_sends| {
            let job = base.with_fault(FaultPlan::quiet(9).with_panic_on_send(0, after_sends));
            let sup = supervise::<f64>(&job, &HybridMultiple, &policy).expect("recovers");
            assert_eq!(run_digest(&sup.run.sets), run_digest(&clean.sets));
            sup.recovery.failures.iter().any(|f| f.resumed_from >= 1)
        });
    assert!(
        resumed_mid.is_some(),
        "some panic ordinal must land past the first checkpointed epoch"
    );
}
