//! `durability`: kill -9 the process, restore bit-identical. Per strategy
//! at 2 and 4 threads, ten rounds each spawn this binary as a durable
//! child with a per-sweep throttle, SIGKILL it after a seed-derived delay
//! (anywhere from before the first sweep to after completion), restart it
//! restoring from its spill directory, and require the restart's digest
//! and logical traffic to equal the fault-free run's exactly. At least one
//! kill must land mid-run. Then the corruption matrix: a bit-flipped or
//! truncated newest epoch must degrade to an older one, an all-garbled
//! directory to a fresh start, each still bit-identical, and a restore
//! from a missing directory must exit with the typed-error code 3. Where
//! each SIGKILL lands is host scheduling, so resume depths are reported
//! only.

use super::*;
use gpaw_fd::durable::DurableStore;

const SEEDS: u64 = 10;
const SWEEPS: usize = 6;
/// Damage done to a finished run's spill directory.
type Damage<'a> = &'a dyn Fn(&Path);

/// Small grids so compute is cheap; throttled sweeps give a SIGKILL a
/// wide mid-run window. Every sub-extent stays ≥ 4, the temporal-blocked
/// ghost depth.
fn job(threads: usize, throttle_ms: u64) -> NativeJob {
    let job = NativeJob::new([12, 10, 8], 4, 2)
        .with_threads(threads)
        .with_sweeps(SWEEPS);
    job.with_recv_timeout_ms(2000)
        .with_sweep_throttle_ms(throttle_ms)
}

/// The job and retry policy a durable child of this scenario runs.
pub fn victim(threads: usize) -> (NativeJob, RunPolicy<'static>) {
    (job(threads, 25), retry(4))
}

pub fn run(ledger: &mut Ledger) -> Result<(), SoakFailure> {
    let root = std::env::temp_dir().join(format!("gate_durability_{}", std::process::id()));
    std::fs::create_dir_all(&root).expect("create the soak root");
    let outcome = soak(ledger, &root);
    let _ = std::fs::remove_dir_all(&root);
    outcome
}

fn soak(ledger: &mut Ledger, root: &Path) -> Result<(), SoakFailure> {
    let (mut runs, mut kills, mut midrun, mut resumed, mut degraded) = (0u64, 0u64, 0, 0, 0);
    per_strategy(ledger, job(2, 0), |g| {
        let (a, threads) = (g.approach, g.job.threads);
        for seed in 0..SEEDS {
            let dir = root.join(format!("{}_{threads}t_seed{seed}", a.slug()));
            // Kill anywhere from before the first sweep to past the
            // ~150 ms run: nothing durable yet, mid-run, already done.
            let delay = Duration::from_millis(5 + SplitMix64::new(seed).next_u64() % 250);
            kill_after(child("durability", a, threads, &dir, false), delay);
            // A very early kill can beat the victim to creating the
            // directory; the operator's restart then starts fresh.
            let what = format!("{} seed {seed} (killed at {delay:?})", g.name);
            let restore = RunPolicy {
                durable: Some(DurabilityConfig::new(&dir).with_restore(dir.is_dir())),
                ..retry(4)
            };
            let dr = execute::<f64>(&g.job, g.approach, &restore).context(&what)?;
            let (resumed_from, skipped) = (dr.durable.resumed_from, dr.durable.degraded.len());
            let what = format!("{what}, resumed from epoch {resumed_from}");
            g.identity.check(&what, Identity::of(&dr.run))?;
            midrun += u64::from(resumed_from > 0 && resumed_from < SWEEPS);
            (resumed, degraded) = (resumed + resumed_from as u64, degraded + skipped as u64);
            (runs, kills) = (runs + 2, kills + 1);
        }
        // Every restored run was held to the clean run's identity.
        Ok(g.clean.report)
    })?;
    ensure!(
        midrun > 0,
        "no SIGKILL ever landed mid-run ({kills} kills) — not soaking"
    );

    let cases = corruption_cases(root)?;
    ledger.scalar("seeds", SEEDS as f64, Tol::Exact);
    ledger.scalar("runs_total", (runs + cases) as f64, Tol::Exact);
    ledger.scalar("kills_total", kills as f64, Tol::Exact);
    ledger.scalar("corruption_cases", cases as f64, Tol::Exact);
    // tmp + rename: a SIGKILL never leaves a damaged epoch behind.
    ledger.scalar("restore_degradations_total", degraded as f64, Tol::Exact);
    ledger.info("kills_midrun_total", midrun as f64);
    ledger.info("resumed_epochs_total", resumed as f64);
    Ok(())
}

/// The corruption matrix at 2 threads: every case ends bit-identical or,
/// for a missing directory, in the typed-error exit code — never a panic
/// or a wrong answer. Returns the number of cases.
fn corruption_cases(root: &Path) -> Result<u64, SoakFailure> {
    let (a, job) = (Approach::HybridMultiple, job(2, 0));
    let durable = |config: DurabilityConfig| RunPolicy {
        durable: Some(config),
        ..retry(4)
    };
    let (_, identity) = clean(&job, a)?;
    let newest_epoch = |dir: &Path, damage: fn(&mut Vec<u8>)| {
        let store = DurableStore::open(dir).expect("open the spill dir");
        let epochs = store.epochs_on_disk().expect("list the epochs");
        let path = store.epoch_path(*epochs.last().expect("a completed run spilled epochs"));
        let mut bytes = std::fs::read(&path).expect("read the epoch file");
        damage(&mut bytes);
        std::fs::write(&path, bytes).expect("rewrite the epoch file");
    };
    let flip: fn(&mut Vec<u8>) = |b| {
        let mid = b.len() / 2;
        b[mid] ^= 0x40;
    };
    let truncate: fn(&mut Vec<u8>) = |b| b.truncate(b.len() / 2);
    let garble = |dir: &Path| {
        for entry in std::fs::read_dir(dir).expect("list the spill dir") {
            let path = entry.expect("a dir entry").path();
            std::fs::write(&path, b"not a checkpoint").expect("garble a file");
        }
    };
    // A record digest catches a flip and the framing a torn write, and
    // recovery falls back to the retained previous epoch; with every file
    // garbled, to a fresh start.
    let cases: [(&str, Damage, usize); 3] = [
        ("bit-flip", &|dir| newest_epoch(dir, flip), SWEEPS - 1),
        ("truncation", &|dir| newest_epoch(dir, truncate), SWEEPS - 1),
        ("all-garbled", &garble, 0),
    ];
    for (case, damage, max_resume) in cases {
        let dir = root.join(format!("corrupt_{case}"));
        let spill = DurabilityConfig::new(&dir);
        execute::<f64>(&job, a, &durable(spill.clone())).context(case)?;
        damage(&dir);
        let what = format!("{case}: restore (it must degrade, not fail)");
        let restore = durable(spill.with_restore(true));
        let dr = execute::<f64>(&job, a, &restore).context(&what)?;
        let (digest, resumed_from) = (run_digest(&dr.run.sets), dr.durable.resumed_from);
        ensure!(
            digest == identity.digest,
            "{case}: restored run diverged ({digest:016x})"
        );
        let corrupt =
            format!("{case}: resumed from epoch {resumed_from}, not at most {max_resume}");
        ensure!(resumed_from <= max_resume, "{corrupt}");
        ensure!(
            !dr.durable.degraded.is_empty(),
            "{case}: corruption left no degradation trail"
        );
        println!("{case}: degraded to epoch {resumed_from}, bit-identical");
    }
    let missing = root.join("no_such_checkpoint_dir");
    let out = child("durability", a, 2, &missing, true).output();
    let status = out.expect("spawn the missing-dir child").status;
    ensure!(
        status.code() == Some(3),
        "missing-dir restore: {status}, not the typed-error code 3"
    );
    Ok(cases.len() as u64 + 1)
}
