//! `recovery`: checkpoint/replay under sustained lethal injection. Per
//! strategy at 2 and 4 threads, six seeds each run twice under the
//! supervisor — once with an injected send panic, once with a black-holed
//! message, both over benign chaos. Every run must complete bitwise
//! identical to the fault-free run with exactly its logical traffic, and
//! must really have been hit (at least two attempts). Attempts are gated
//! with slack for a loaded host; replayed epochs and retransmissions
//! depend on how far each rank ran before the watchdog fired, so they are
//! reported only.

use super::*;

const SEEDS: u64 = 6;
const RECV_TIMEOUT_MS: u64 = 300;

pub fn run(ledger: &mut Ledger) -> Result<(), SoakFailure> {
    // Every sub-extent stays ≥ 4, the temporal-blocked ghost depth.
    let base = NativeJob::new([12, 10, 8], 4, 2).with_sweeps(2);
    let base = base.with_recv_timeout_ms(RECV_TIMEOUT_MS);
    let (mut runs, mut attempts, mut retransmitted, mut replayed) = (0u64, 0u64, 0u64, 0u64);
    per_strategy(ledger, base, |g| {
        let mut last = g.clean.report;
        for seed in 0..SEEDS {
            let injectors = [
                (
                    "panic",
                    FaultPlan::benign(seed).with_panic_on_send(0, seed % 3),
                ),
                (
                    "black hole",
                    FaultPlan::benign(seed).with_black_hole(0, g.dst, 1 + seed % 2),
                ),
            ];
            for (injector, plan) in injectors {
                let what = format!("{} seed {seed}, {injector}", g.name);
                let faulted = g.job.with_fault(plan);
                let sup = execute::<f64>(&faulted, g.approach, &retry(4)).context(&what)?;
                g.identity.check(&what, Identity::of(&sup.run))?;
                let r = sup.recovery;
                ensure!(
                    r.attempts >= 2,
                    "{what}: the lethal fault never fired — not soaking"
                );
                attempts += u64::from(r.attempts);
                retransmitted += r.messages_retransmitted;
                replayed += r.epochs_replayed as u64;
                runs += 1;
                last = sup.run.report;
            }
        }
        Ok(last)
    })?;
    ledger.scalar("seeds", SEEDS as f64, Tol::Exact);
    ledger.scalar("runs_total", runs as f64, Tol::Exact);
    ledger.scalar("recv_timeout_ms", RECV_TIMEOUT_MS as f64, Tol::Exact);
    // Two attempts per lethal injection by construction; the slack covers
    // a loaded host pushing an occasional retry to three.
    ledger.scalar("attempts_total", attempts as f64, Tol::Abs(64.0));
    ledger.info("messages_retransmitted_total", retransmitted as f64);
    ledger.info("epochs_replayed_total", replayed as f64);
    Ok(())
}
