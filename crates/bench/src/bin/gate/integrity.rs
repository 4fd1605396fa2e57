//! `integrity`: silent corruption detected end to end. Per strategy at 2
//! and 4 threads: an unsupervised probe, where a flipped payload must fail
//! with the typed `RunError::Integrity`; six seeded payload flips over
//! benign chaos, supervised, each bitwise identical to the fault-free run
//! with exact logical traffic and its detection counted separately; and a
//! snapshot-poison scan, where a send panic climbs until a rollback
//! reaches a snapshot poisoned after deposit, the digest must convict it,
//! and the degraded resume must still be bitwise. A targeted flip detects
//! exactly once and a poisoned snapshot fails exactly one digest, so those
//! totals are exact.

use super::*;

const SEEDS: u64 = 6;
const RECV_TIMEOUT_MS: u64 = 300;

pub fn run(ledger: &mut Ledger) -> Result<(), SoakFailure> {
    // Every sub-extent stays ≥ 4, the temporal-blocked ghost depth.
    let base = NativeJob::new([12, 10, 8], 4, 2).with_sweeps(2);
    let base = base.with_recv_timeout_ms(RECV_TIMEOUT_MS);
    let (mut runs, mut detections, mut convictions, mut snapshot_cases) = (0u64, 0, 0, 0u64);
    let (mut attempts, mut retransmitted) = (0u64, 0u64);
    per_strategy(ledger, base, |g| {
        let probe = g
            .job
            .with_fault(FaultPlan::quiet(11).with_corrupt_payload(0, g.dst, 1));
        expect_typed_corruption(&g.name, &probe, &g)?;

        let mut last = g.clean.report;
        for seed in 0..SEEDS {
            let what = format!("{} seed {seed}, payload flip", g.name);
            let plan = FaultPlan::benign(seed).with_corrupt_payload(0, g.dst, 1 + seed % 2);
            let faulted = g.job.with_fault(plan);
            let sup = execute::<f64>(&faulted, g.approach, &retry(4)).context(&what)?;
            g.identity.check(&what, Identity::of(&sup.run))?;
            let r = sup.recovery;
            ensure!(
                r.corruptions_detected >= 1,
                "{what}: no detection counted — not soaking"
            );
            detections += r.corruptions_detected;
            attempts += u64::from(r.attempts);
            retransmitted += r.messages_retransmitted;
            runs += 1;
            last = sup.run.report;
        }

        // The panic ordinal climbs until a rollback reaches the poisoned
        // epoch-1 snapshot.
        let snap_job = g.job.with_sweeps(3);
        let (_, snap_identity) = clean(&snap_job, g.approach)?;
        let mut convicted = 0;
        for after_sends in [4u64, 6, 8, 12, 16, 24, 32, 48] {
            let what = format!("{} after {after_sends} sends, snapshot poison", g.name);
            let plan = FaultPlan::quiet(9).with_panic_on_send(0, after_sends);
            let poisoned = snap_job.with_fault(plan.with_corrupt_snapshot(0, 0, 1));
            let sup = execute::<f64>(&poisoned, g.approach, &retry(4)).context(&what)?;
            if sup.recovery.attempts == 1 {
                // The ordinal outran the run's sends: the panic never
                // fired and the poison was never on a rollback path.
                break;
            }
            snap_identity.check(&what, Identity::of(&sup.run))?;
            convicted = sup.recovery.snapshot_digest_failures;
            if convicted >= 1 {
                break;
            }
        }
        let name = &g.name;
        ensure!(
            convicted >= 1,
            "{name}: no panic ordinal convicted the poisoned snapshot"
        );
        convictions += convicted;
        snapshot_cases += 1;
        Ok(last)
    })?;
    ledger.scalar("seeds", SEEDS as f64, Tol::Exact);
    ledger.scalar("runs_total", runs as f64, Tol::Exact);
    ledger.scalar("corruptions_detected_total", detections as f64, Tol::Exact);
    ledger.scalar("snapshot_cases", snapshot_cases as f64, Tol::Exact);
    ledger.scalar(
        "snapshot_digest_failures_total",
        convictions as f64,
        Tol::Exact,
    );
    ledger.scalar("recv_timeout_ms", RECV_TIMEOUT_MS as f64, Tol::Exact);
    ledger.scalar("attempts_total", attempts as f64, Tol::Abs(64.0));
    ledger.info("messages_retransmitted_total", retransmitted as f64);
    Ok(())
}
