//! `chaos`: the native plane's parity under sustained perturbation. Per
//! strategy at 2 and 4 threads, ten seeded benign fault schedules
//! (delays, duplicates, drop-with-redelivery) must each leave the run
//! bitwise identical to the fault-free run with exactly its traffic. Each
//! seed also flips one bit of one in-flight payload: unsupervised, the run
//! must fail with the typed `RunError::Integrity`; supervised, it must
//! complete bitwise with exact traffic and count the detection. Last, a
//! black-holed message must end the run within the watchdog budget with a
//! diagnostic naming the pending receive — never hang.

use super::*;

const SEEDS: u64 = 10;
const WATCHDOG_MS: u64 = 500;

pub fn run(ledger: &mut Ledger) -> Result<(), SoakFailure> {
    // Every sub-extent stays ≥ 4, the temporal-blocked ghost depth (block
    // 2 × halo 2), so the fused strategy soaks too.
    let base = NativeJob::new([16, 16, 16], 6, 2).with_sweeps(2);
    let (mut runs, mut corrupt_runs, mut detections) = (0u64, 0u64, 0u64);
    per_strategy(ledger, base, |g| {
        for seed in 0..SEEDS {
            let what = format!("{} seed {seed}", g.name);
            let chaotic = g.job.with_fault(FaultPlan::benign(seed));
            let run = execute::<f64>(&chaotic, g.approach, &RunPolicy::bare())
                .context(&what)?
                .run;
            g.identity
                .check(&format!("{what}, benign chaos"), Identity::of(&run))?;

            let plan = FaultPlan::quiet(seed).with_corrupt_payload(0, g.dst, 1 + seed % 2);
            let corrupt = g.job.with_recv_timeout_ms(300).with_fault(plan);
            expect_typed_corruption(&what, &corrupt, &g)?;
            let sup = execute::<f64>(&corrupt, g.approach, &retry(4)).context(&what)?;
            g.identity
                .check(&format!("{what}, corrupt recovery"), Identity::of(&sup.run))?;
            let detected = sup.recovery.corruptions_detected;
            ensure!(detected >= 1, "{what}: no detection counted — not soaking");
            (runs, corrupt_runs, detections) = (runs + 2, corrupt_runs + 1, detections + detected);
        }
        Ok(g.clean.report)
    })?;

    let lethal = base
        .with_threads(THREADS[0])
        .with_recv_timeout_ms(WATCHDOG_MS);
    let lethal = lethal.with_fault(FaultPlan::quiet(1).with_black_hole(0, 1, 1));
    match execute::<f64>(&lethal, Approach::HybridMultiple, &RunPolicy::bare()) {
        Ok(_) => {
            return Err(SoakFailure::divergence(
                "black-holed run completed: fault lost",
            ))
        }
        Err(e @ RunError::Failed { .. }) => {
            let text = e.to_string();
            let named = text.contains("watchdog") && text.contains("recv(src=0, tag=");
            ensure!(
                named,
                "watchdog diagnostic is missing the pending receive:\n{text}"
            );
        }
        Err(e) => return Err(e).context("black-holed run failed for the wrong reason"),
    }
    ledger.scalar("seeds", SEEDS as f64, Tol::Exact);
    ledger.scalar("runs_total", runs as f64, Tol::Exact);
    ledger.scalar("watchdog_ms", WATCHDOG_MS as f64, Tol::Exact);
    ledger.scalar("corrupt_runs_total", corrupt_runs as f64, Tol::Exact);
    ledger.scalar(
        "corruptions_detected_total",
        detections as f64,
        Tol::Abs(64.0),
    );
    Ok(())
}
