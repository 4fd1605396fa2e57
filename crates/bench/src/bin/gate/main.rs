//! `gate <scenario> [--update]`: the CI matrix, one fixed scenario per
//! invocation.
//!
//! | scenario | proves |
//! |---|---|
//! | `sim` | the paper's model on the deterministic timed plane, plus two native points |
//! | `chaos` | parity and exact traffic under benign faults; typed corruption; the watchdog |
//! | `recovery` | lethal faults supervised to completed, bit-identical runs |
//! | `integrity` | flipped payloads and poisoned snapshots detected and recovered |
//! | `durability` | SIGKILLed processes restored bit-identical; damaged stores degrade |
//! | `degradation` | a permanently lethal rank becomes a run on fewer ranks |
//! | `service` | 1000 mixed jobs through the job service, each equal to its solo run |
//!
//! Each scenario runs at one fixed size, asserts its invariants as it
//! goes, prints and writes everything it measured to
//! `BENCH_<scenario>.json`, and gates the numbers it pushed to its ledger
//! against `results/baseline.json`. Exit codes: 0 pass, 1 divergence or a
//! gated number out of bounds, 2 usage or an unreadable baseline, 3
//! durable checkpoint error, 4 corruption that did not surface as a typed
//! integrity error. `--update` rewrites the scenario's baseline keys once
//! its own assertions have passed.
//!
//! The durability and degradation scenarios re-invoke this binary as the
//! process they SIGKILL (`gate <scenario> --child …`, internal).

/// Fail the enclosing scenario with a divergence (exit 1) unless `cond`.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(SoakFailure::divergence(format!($($msg)+)));
        }
    };
}

mod chaos;
mod degradation;
mod durability;
mod integrity;
mod recovery;
mod service;
mod sim;

use gpaw_bench::gate::{self, Ledger, RunContext, SoakFailure, Tol, BASELINE};
use gpaw_bgp_hw::CartMap;
use gpaw_fd::exec::{max_error_vs_reference_planned, sequential_reference};
use gpaw_fd::plan::RankPlan;
use gpaw_fd::Approach;
use gpaw_grid::stencil::StencilCoeffs;
use gpaw_hybrid_rt::{
    execute, run_digest, DurabilityConfig, FaultPlan, NativeJob, NativeRun, RetryPolicy, RunError,
    RunPolicy,
};
use gpaw_simmpi::RunReport;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

type Scenario = fn(&mut Ledger) -> Result<(), SoakFailure>;

const SCENARIOS: [(&str, Scenario); 7] = [
    ("sim", sim::run),
    ("chaos", chaos::run),
    ("recovery", recovery::run),
    ("integrity", integrity::run),
    ("durability", durability::run),
    ("degradation", degradation::run),
    ("service", service::run),
];

/// Threads per process for every per-strategy soak.
const THREADS: [usize; 2] = [2, 4];
/// The argument that turns this binary into a durable child.
const CHILD: &str = "--child";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.as_slice() {
        [name, flag, rest @ ..] if flag == CHILD => child_main(name, rest),
        [name] => gate_scenario(name, false),
        [name, flag] if flag == "--update" => gate_scenario(name, true),
        _ => usage(),
    };
    ExitCode::from(code)
}

fn gate_scenario(name: &str, update: bool) -> u8 {
    let Some(&(name, body)) = SCENARIOS.iter().find(|(n, _)| *n == name) else {
        return usage();
    };
    let artifact = format!("BENCH_{name}.json");
    gate::run(
        name,
        Path::new(BASELINE),
        Path::new(&artifact),
        update,
        body,
    )
}

fn usage() -> u8 {
    let names: Vec<&str> = SCENARIOS.iter().map(|(n, _)| *n).collect();
    eprintln!("usage: gate <{}> [--update]", names.join("|"));
    2
}

/// Every soak's supervised policy: `max_attempts`, 2 ms base backoff.
fn retry(max_attempts: u32) -> RunPolicy<'static> {
    let base_backoff = Duration::from_millis(2);
    RunPolicy::supervised(RetryPolicy {
        max_attempts,
        base_backoff,
    })
}

/// SplitMix64: seed-derived schedules, identical on every host and run.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Rank 0's first neighbor under `approach`'s geometry: flat strategies
/// run virtual ranks, where rank 1 need not be adjacent to rank 0, so an
/// injector must target a real plan edge.
fn neighbor_of_rank0(job: &NativeJob, approach: Approach, map: &CartMap) -> usize {
    let plan = RankPlan::for_rank(map, job.grid_ext, 0, 8, &job.config(approach));
    let mut neighbors = plan.neighbors.iter().flatten().copied();
    neighbors
        .next()
        .expect("rank 0 always has a neighbor on a 2-node partition")
}

/// What a perturbed run must reproduce exactly: the fault-free run's bits
/// (by digest) and its logical traffic.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Identity {
    digest: u64,
    messages: u64,
    bytes: u64,
}

impl Identity {
    fn of(run: &NativeRun<f64>) -> Identity {
        let (messages, bytes) = (run.report.messages, run.report.total_network_bytes);
        Identity {
            digest: run_digest(&run.sets),
            messages,
            bytes,
        }
    }

    fn check(self, what: &str, got: Identity) -> Result<(), SoakFailure> {
        ensure!(
            got == self,
            "{what}: diverged from the fault-free run ({got:x?} vs {self:x?})"
        );
        Ok(())
    }
}

/// A fault-free run of `job`, verified bitwise against the sequential
/// reference, and its identity.
fn clean(job: &NativeJob, approach: Approach) -> Result<(NativeRun<f64>, Identity), SoakFailure> {
    let what = format!("{} clean run ({} threads)", approach.label(), job.threads);
    let run = execute::<f64>(job, approach, &RunPolicy::bare())
        .context(&what)?
        .run;
    verify_reference(&what, job, approach, &run)?;
    let identity = Identity::of(&run);
    Ok((run, identity))
}

/// Fail unless `run` equals the sequential reference of `job` bit for bit.
fn verify_reference(
    what: &str,
    job: &NativeJob,
    approach: Approach,
    run: &NativeRun<f64>,
) -> Result<(), SoakFailure> {
    let coef = StencilCoeffs::laplacian(job.spacing);
    let (ext, n, seed) = (job.grid_ext, job.n_grids, job.seed);
    let reference = sequential_reference::<f64>(ext, n, seed, &coef, job.bc, job.sweeps);
    let cfg = job.config(approach);
    let err = max_error_vs_reference_planned(&run.sets, &run.map, ext, &reference, &cfg);
    ensure!(
        err == 0.0,
        "{what}: diverged from the sequential reference (max err {err:e})"
    );
    Ok(())
}

/// An unsupervised corrupted run must fail with the typed
/// [`RunError::Integrity`]: never complete, never surface as a stall.
fn expect_typed_corruption(what: &str, job: &NativeJob, g: &Group) -> Result<(), SoakFailure> {
    match execute::<f64>(job, g.approach, &RunPolicy::bare()) {
        Err(RunError::Integrity { .. }) => Ok(()),
        other => {
            let got = other
                .err()
                .map_or("a completed run".into(), |e| e.to_string());
            let untyped = format!("{what}: expected RunError::Integrity, got {got}");
            Err(SoakFailure::integrity(untyped))
        }
    }
}

/// One strategy at one thread count, as a per-strategy soak sees it.
struct Group {
    /// `"<strategy> (<threads> threads)"`, for messages.
    name: String,
    approach: Approach,
    job: NativeJob,
    clean: NativeRun<f64>,
    identity: Identity,
    /// Rank 0's first neighbor: where an injector must aim.
    dst: usize,
}

/// Soak every strategy at each of [`THREADS`] on `base`, after its
/// verified fault-free run. The report `soak` returns becomes the point
/// `<threads>/<strategy>`, its counts gated exactly: when it is a
/// perturbed run's, that exactness is the scenario's invariant itself.
fn per_strategy(
    ledger: &mut Ledger,
    base: NativeJob,
    mut soak: impl FnMut(Group) -> Result<RunReport, SoakFailure>,
) -> Result<(), SoakFailure> {
    for threads in THREADS {
        for a in Approach::ALL {
            let job = base.with_threads(threads);
            let (clean, identity) = clean(&job, a)?;
            let dst = neighbor_of_rank0(&job, a, &clean.map);
            let name = format!("{} ({threads} threads)", a.label());
            let r = soak(Group {
                name,
                approach: a,
                job,
                clean,
                identity,
                dst,
            })?;
            let point = format!("{threads}/{}", a.label());
            ledger.point(&point, a.label(), r.threads, base.batch, r);
        }
    }
    Ok(())
}

/// This binary as `scenario`'s durable child: `approach` at `threads`,
/// spilling every epoch into `dir`, restoring from it first if `restore`.
fn child(scenario: &str, approach: Approach, threads: usize, dir: &Path, restore: bool) -> Command {
    let mut cmd = Command::new(std::env::current_exe().expect("current_exe resolves"));
    cmd.args([scenario, CHILD, approach.slug(), &threads.to_string()])
        .arg(dir);
    cmd.arg(if restore { "restore" } else { "fresh" });
    cmd
}

/// Spawn a durable child and SIGKILL it after `delay`: no chance to flush.
fn kill_after(mut child: Command, delay: Duration) {
    let quiet = child.stdout(Stdio::null()).stderr(Stdio::null());
    let mut victim = quiet.spawn().expect("spawn a durable child");
    std::thread::sleep(delay);
    let _ = victim.kill();
    let _ = victim.wait();
}

/// Child mode: run the scenario's victim job durably; the exit code is
/// [`RunError::exit_code`]'s, so a restore from a missing directory exits
/// with the typed durable error's 3.
fn child_main(scenario: &str, args: &[String]) -> u8 {
    let victim = match scenario {
        "durability" => durability::victim,
        "degradation" => degradation::victim,
        _ => return usage(),
    };
    let [slug, threads, dir, mode] = args else {
        return usage();
    };
    let (Some(approach), Ok(threads)) = (Approach::parse(slug), threads.parse()) else {
        return usage();
    };
    let (job, policy) = victim(threads);
    let durability = DurabilityConfig::new(dir).with_spill_every(1);
    let durability = durability.with_restore(mode == "restore");
    match execute::<f64>(
        &job,
        approach,
        &RunPolicy {
            durable: Some(durability),
            ..policy
        },
    ) {
        Ok(_) => 0,
        Err(e) => {
            eprintln!("{scenario} child: {e}");
            u8::try_from(e.exit_code()).unwrap_or(1)
        }
    }
}
