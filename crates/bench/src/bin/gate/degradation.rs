//! `degradation`: permanent rank loss becomes a completed run on fewer
//! ranks. In-process rounds: per strategy at 2 and 4 threads, four seeds
//! run a 2-node job whose rank 1 dies for good from sweep 2 (over benign
//! chaos) under `supervise_degradable`; every run must shrink exactly once
//! onto 1 node, match the sequential reference bitwise, and report each
//! geometry segment's logical traffic equal to `predicted_logical_span`.
//! Kill rounds: a durable 2-node child is SIGKILLed after a seed-derived
//! delay and restored onto 1 node in this process; a mid-run kill must
//! give a cross-geometry restore, bitwise, with its segment exact, and at
//! least one kill must land mid-run. Retries charged before each shrink
//! and where each SIGKILL lands are host scheduling, so reported only.

use super::*;
use gpaw_bgp_hw::Partition;
use gpaw_fd::program::{compile_rank, predicted_logical_span, SweepProgram};
use gpaw_fd::Approach::{FlatOptimized, HybridMultiple, TemporalBlocked};
use gpaw_hybrid_rt::DegradePolicy;

const SEEDS: u64 = 4;
/// The lethal rank fails from this sweep, so epochs 1 and 2 commit first
/// and the shrink resumes from a real mid-run checkpoint (2 is also a
/// temporal block boundary).
const LETHAL_FROM: usize = 2;
const SWEEPS: usize = 4;

/// Every sub-extent stays ≥ 4 (the temporal-blocked ghost depth) on both
/// the 2-node and the degraded 1-node geometry.
fn job(threads: usize, throttle_ms: u64) -> NativeJob {
    let job = NativeJob::new([12, 10, 8], 4, 2)
        .with_threads(threads)
        .with_sweeps(SWEEPS);
    job.with_recv_timeout_ms(300)
        .with_sweep_throttle_ms(throttle_ms)
}

/// The job and retry policy a durable child of this scenario runs.
pub fn victim(threads: usize) -> (NativeJob, RunPolicy<'static>) {
    (job(threads, 30), retry(2))
}

/// Every rank's compiled programs for `approach` on `nodes` nodes: the
/// static traffic model the per-segment checks compare against.
fn programs(job: &NativeJob, approach: Approach, nodes: usize) -> Vec<Vec<SweepProgram>> {
    let part = Partition::standard(nodes, approach.exec_mode()).expect("a standard node count");
    let map = CartMap::best(part, job.grid_ext);
    let threads = match approach {
        HybridMultiple | Approach::HybridMasterOnly | TemporalBlocked => job.threads,
        _ => 1,
    };
    let cfg = job.config(approach);
    let plan = |r| RankPlan::for_rank(&map, job.grid_ext, r, 8, &cfg);
    (0..map.ranks())
        .map(|r| compile_rank(&cfg, &map, &plan(r), job.n_grids, threads))
        .collect()
}

/// Fail unless a segment's `(messages, bytes)` are the static prediction.
fn check_span(
    what: &str,
    programs: &[Vec<SweepProgram>],
    epochs: (usize, usize),
    got: (u64, u64),
) -> Result<(), SoakFailure> {
    let predicted = predicted_logical_span(programs, epochs.0, epochs.1);
    ensure!(
        got == predicted,
        "{what}: segment {epochs:?} traffic {got:?} != {predicted:?}"
    );
    Ok(())
}

pub fn run(ledger: &mut Ledger) -> Result<(), SoakFailure> {
    let (mut runs, mut degrades, mut segments, mut retries) = (0u64, 0u64, 0u64, 0u64);
    per_strategy(ledger, job(2, 0), |g| {
        let a = g.approach;
        let geometries = [programs(&g.job, a, 2), programs(&g.job, a, 1)];
        let mut last = None;
        for seed in 0..SEEDS {
            let lethal = FaultPlan::benign(seed).with_lethal_rank_from(1, LETHAL_FROM);
            let (faulted, what) = (g.job.with_fault(lethal), format!("{} seed {seed}", g.name));
            let degrade = DegradePolicy::default();
            let sup = execute::<f64>(
                &faulted,
                g.approach,
                &RunPolicy {
                    degrade,
                    ..retry(2)
                },
            )
            .context(&what)?;
            verify_reference(&what, &faulted, a, &sup.run)?;
            let Some(deg) = sup.recovery.degradation.as_ref() else {
                return Err(SoakFailure::divergence(format!(
                    "{what}: no shrink — not soaking"
                )));
            };
            let (from, to, n) = (deg.from_ranks(), deg.to_ranks(), deg.segments.len());
            ensure!(
                from > to && n == 2,
                "{what}: malformed degradation ({from} -> {to}, {n})"
            );
            // Committed spans at the static prediction, nothing leaked
            // between geometries.
            for (seg, programs) in deg.segments.iter().zip(&geometries) {
                let got = (seg.logical_messages, seg.logical_bytes);
                check_span(&what, programs, (seg.start_epoch, seg.end_epoch), got)?;
            }
            degrades += u64::from(deg.degrades());
            segments += n as u64;
            let escalations = sup.recovery.rank_escalations();
            retries += escalations
                .iter()
                .map(|e| u64::from(e.retries))
                .sum::<u64>();
            runs += 1;
            last = Some(sup.run.report);
        }
        Ok(last.expect("at least one seed ran"))
    })?;

    let root = std::env::temp_dir().join(format!("gate_degradation_{}", std::process::id()));
    std::fs::create_dir_all(&root).expect("create the soak root");
    let killed = kill_rounds(&root);
    let _ = std::fs::remove_dir_all(&root);
    let (kills, cross_geometry) = killed?;
    ledger.scalar("seeds", SEEDS as f64, Tol::Exact);
    ledger.scalar("runs_total", (runs + kills) as f64, Tol::Exact);
    ledger.scalar("degrades_total", degrades as f64, Tol::Exact);
    ledger.scalar("segments_total", segments as f64, Tol::Exact);
    ledger.scalar("kills_total", kills as f64, Tol::Exact);
    ledger.info("retries_charged_total", retries as f64);
    ledger.info("cross_geometry_restores_total", cross_geometry as f64);
    Ok(())
}

/// SIGKILL a durable 2-node child at 2 threads, restore onto the one node
/// left. Returns (kills, mid-run cross-geometry restores).
fn kill_rounds(root: &Path) -> Result<(u64, u64), SoakFailure> {
    let (mut kills, mut cross_geometry) = (0u64, 0u64);
    for a in [FlatOptimized, HybridMultiple, TemporalBlocked] {
        let mut one_node = job(2, 0);
        one_node.nodes = 1;
        let survivor = programs(&one_node, a, 1);
        for seed in 0..SEEDS {
            let dir = root.join(format!("{}_seed{seed}", a.slug()));
            // Kill anywhere from before the first sweep to past the
            // ~120 ms run: nothing durable yet, mid-run, already done.
            let delay = Duration::from_millis(10 + SplitMix64::new(seed).next_u64() % 200);
            kill_after(child("degradation", a, 2, &dir, false), delay);
            kills += 1;
            // A very early kill can beat the victim to creating the
            // directory; the restart then starts fresh on 1 node.
            let what = format!("{} kill seed {seed} (killed at {delay:?})", a.label());
            let durability = DurabilityConfig::new(&dir).with_restore(dir.is_dir());
            let dr = execute::<f64>(
                &one_node,
                a,
                &RunPolicy {
                    durable: Some(durability),
                    ..retry(2)
                },
            )
            .context(&what)?;
            verify_reference(&what, &one_node, a, &dr.run)?;
            if dr.durable.resumed_from == 0 {
                continue;
            }
            // The spilled epoch came from the 2-node geometry, so a real
            // resume must be a cross-geometry restore.
            let deg = dr.recovery.degradation.as_ref();
            let shrunk = deg.filter(|d| d.from_ranks() > d.to_ranks());
            let Some(last) = shrunk.and_then(|d| d.segments.last()) else {
                return Err(SoakFailure::divergence(format!(
                    "{what}: resumed without shrinking"
                )));
            };
            let got = (last.logical_messages, last.logical_bytes);
            check_span(&what, &survivor, (last.start_epoch, SWEEPS), got)?;
            cross_geometry += u64::from(dr.durable.resumed_from < SWEEPS);
        }
    }
    ensure!(
        cross_geometry > 0,
        "no SIGKILL landed mid-run ({kills} kills) — not soaking"
    );
    Ok((kills, cross_geometry))
}
