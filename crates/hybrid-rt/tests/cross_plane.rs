//! Cross-plane validation of the shared sweep-schedule IR, by a generated
//! oracle.
//!
//! One fixed-seed SplitMix stream generates job configurations (extents,
//! nodes, threads, approach, batch, sweeps, temporal depth, boundary
//! condition, grid count); the hand-written matrices this oracle replaced
//! come first. Every configuration is either rejected by the native plane
//! as a typed geometry [`RunError`] — never a panic — or all of this
//! holds:
//!
//! * every compiled program passes `validate()`;
//! * the native bare run and the functional plane are bitwise identical
//!   to the sequential reference and to each other, rank by rank;
//! * the native fabric counts exactly the messages the programs predict,
//!   and its busiest node sends exactly the predicted bytes;
//! * the timed plane on the same map counts exactly the messages its own
//!   compiled programs predict.
//!
//! `NativeJob` has no temporal-depth knob, so the native plane runs the
//! job's own config (depth 2); the generated depth drives the functional
//! and timed planes. Every depth is reference-exact, so the rank-by-rank
//! comparison holds across depths.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use gpaw_bgp_hw::spec::CostModel;
use gpaw_bgp_hw::CartMap;
use gpaw_des::SplitMix64;
use gpaw_fd::config::{Approach, FdConfig};
use gpaw_fd::exec::{max_error_vs_reference_planned, run_distributed, sequential_reference};
use gpaw_fd::interp::panic_message;
use gpaw_fd::plan::{decomposition_supports, RankPlan};
use gpaw_fd::program::{compile_rank, SweepProgram};
use gpaw_fd::timed::{run_timed_with_map, ScopeSel, TimedJob};
use gpaw_grid::norms::max_abs_diff;
use gpaw_grid::stencil::{BoundaryCond, StencilCoeffs};
use gpaw_hybrid_rt::{execute, strategy_for, NativeJob, RunError, RunPolicy};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Configurations per run, the replaced matrices included.
const CONFIGS: usize = 1000;
const SEED: u64 = 0x5EED_C0DE;

/// One generated job.
#[derive(Debug, Clone, Copy)]
struct Config {
    approach: Approach,
    ext: [usize; 3],
    nodes: usize,
    threads: usize,
    batch: usize,
    sweeps: usize,
    depth: usize,
    bc: BoundaryCond,
    grids: usize,
}

impl Config {
    fn job(&self) -> NativeJob {
        let mut job = NativeJob::new(self.ext, self.grids, self.nodes)
            .with_threads(self.threads)
            .with_sweeps(self.sweeps);
        job.batch = self.batch;
        job.bc = self.bc;
        job
    }

    /// Threads per rank the native run uses (flat approaches are pinned
    /// to one by virtual node mode).
    fn native_threads(&self) -> usize {
        match self.approach {
            Approach::HybridMultiple | Approach::HybridMasterOnly | Approach::TemporalBlocked => {
                self.threads
            }
            _ => 1,
        }
    }

    /// The functional and timed planes' engine config: the native job's,
    /// at the generated temporal depth.
    fn cfg(&self) -> FdConfig {
        self.job()
            .config(self.approach)
            .with_temporal_depth(self.depth)
    }
}

/// The replaced hand-written matrices, then the generated configs.
fn configs() -> Vec<Config> {
    let fixed = |approach, threads, batch| Config {
        approach,
        ext: [12, 10, 8],
        nodes: 2,
        threads,
        batch,
        sweeps: 2,
        depth: 2,
        bc: BoundaryCond::Periodic,
        grids: 6,
    };
    let mut out = Vec::new();
    for a in Approach::ALL {
        for threads in [1, 2, 4] {
            out.push(fixed(a, threads, 4));
        }
    }
    for a in Approach::ALL {
        for batch in [1, 2, 4] {
            for threads in [1, 2, 4] {
                let c = fixed(a, threads, batch);
                if c.native_threads() == threads {
                    out.push(c);
                }
            }
        }
    }
    let mut rng = SplitMix64::new(SEED);
    let mut pick = |n: usize| rng.next_below(n as u64) as usize;
    while out.len() < CONFIGS {
        out.push(Config {
            approach: Approach::ALL[pick(6)],
            ext: [1 + pick(12), 1 + pick(12), 1 + pick(12)],
            nodes: 1 + pick(2),
            threads: [1, 2, 4][pick(3)],
            batch: 1 + pick(5),
            sweeps: 1 + pick(4),
            depth: 1 + pick(3),
            bc: [BoundaryCond::Periodic, BoundaryCond::Zero][pick(2)],
            grids: 1 + pick(9),
        });
    }
    out
}

/// Every rank's programs for `cfg` on `map`, each validated.
fn programs(c: &Config, cfg: &FdConfig, map: &CartMap, threads: usize) -> Vec<SweepProgram> {
    let mut all = Vec::new();
    for rank in 0..map.ranks() {
        let plan = RankPlan::for_rank(map, c.ext, rank, 8, cfg);
        for prog in compile_rank(cfg, map, &plan, c.grids, threads) {
            prog.validate()
                .unwrap_or_else(|e| panic!("rank {rank} {:?}: {e}", prog.role));
            all.push(prog);
        }
    }
    all
}

/// Check one config on every plane; `false` when the native plane
/// rejected it.
fn check(c: &Config) -> bool {
    let job = c.job();
    let native_cfg = job.config(c.approach);
    let strategy = strategy_for::<f64>(c.approach);
    let native = match execute::<f64>(&job, strategy.as_ref(), &RunPolicy::bare()) {
        Ok(sup) => sup.run,
        Err(RunError::Decomposition { .. } | RunError::IdleCores { .. }) => return false,
        Err(e) => panic!("not a geometry rejection: {e}"),
    };
    let map = &native.map;

    // Native traffic: exactly what its programs predict.
    let native_progs = programs(c, &native_cfg, map, c.native_threads());
    let messages: u64 = native_progs.iter().map(|p| p.predicted_messages()).sum();
    assert_eq!(native.report.messages, messages, "native messages");
    let mut per_node = vec![0u64; c.nodes];
    let shape = map.partition.node_shape;
    for p in &native_progs {
        per_node[shape.index(map.node_of(p.plan.rank))] += p.predicted_bytes();
    }
    let busiest = per_node.iter().copied().max().unwrap_or(0);
    assert_eq!(native.report.bytes_per_node, busiest, "busiest-node bytes");

    // Native vs the sequential reference.
    let coef = StencilCoeffs::laplacian(job.spacing);
    let reference = sequential_reference::<f64>(c.ext, c.grids, job.seed, &coef, c.bc, c.sweeps);
    let err = max_error_vs_reference_planned(&native.sets, map, c.ext, &reference, &native_cfg);
    assert_eq!(err, 0.0, "native diverged from the reference");

    // A deeper generated block can need wider ghosts than the native
    // run's: that geometry is the functional and timed planes' to refuse.
    let cfg = c.cfg();
    if !decomposition_supports(map, c.ext, &cfg) {
        return true;
    }

    // Functional vs native, rank by rank.
    let functional = run_distributed::<f64>(c.ext, c.grids, job.seed, &coef, &cfg, map);
    assert_eq!(native.sets.len(), functional.len());
    for (rank, (a, b)) in native.sets.iter().zip(&functional).enumerate() {
        assert_eq!(a.len(), b.len(), "rank {rank} grid count");
        for g in 0..a.len() {
            let diff = max_abs_diff(a.grid(g), b.grid(g));
            assert_eq!(diff, 0.0, "rank {rank} grid {g} differs between planes");
        }
    }

    // Timed traffic: exactly what its own programs predict.
    let timed_progs = programs(c, &cfg, map, map.partition.threads_per_process());
    let timed = TimedJob {
        cores: 4 * c.nodes,
        grid_ext: c.ext,
        n_grids: c.grids,
        bytes_per_point: 8,
        config: cfg,
    };
    let report = run_timed_with_map(&timed, map.clone(), &CostModel::bgp(), ScopeSel::Full);
    let predicted: u64 = timed_progs.iter().map(|p| p.predicted_messages()).sum();
    assert_eq!(report.messages, predicted, "timed messages");
    true
}

#[test]
fn generated_configs_are_rejected_typed_or_agree_on_every_plane() {
    let configs = configs();
    let mut accepted = 0;
    for (i, c) in configs.iter().enumerate() {
        let checked = catch_unwind(AssertUnwindSafe(|| check(c)))
            .unwrap_or_else(|p| panic!("config {i} {c:?}: {}", panic_message(p.as_ref())));
        accepted += usize::from(checked);
    }
    // Most random geometries are too fine for 8 virtual ranks; the oracle
    // must still run a real share of them end to end.
    assert!(
        accepted * 3 >= configs.len(),
        "only {accepted} of {} configs ran",
        configs.len()
    );
}

#[test]
fn flat_static_runs_natively_with_zero_plane_specific_code() {
    // The §VII diagnostic exists only as a compiler case; the native
    // interpreter had never heard of it. Static quarters on 8 virtual
    // ranks, grids indivisible by the 4 cores.
    let job = NativeJob::new([13, 11, 9], 9, 2).with_sweeps(3);
    let cfg = job.config(Approach::FlatStatic);
    let coef = StencilCoeffs::laplacian(job.spacing);
    let native = execute::<f64>(
        &job,
        strategy_for(Approach::FlatStatic).as_ref(),
        &RunPolicy::bare(),
    )
    .expect("valid job")
    .run;
    // 8 virtual ranks; each holds only its static quarter of the grids,
    // so the 4 cores of each node partition the 9 grids exactly once.
    assert_eq!(native.sets.len(), 8);
    let held: usize = native.sets.iter().map(|s| s.len()).sum();
    assert_eq!(held, 2 * job.n_grids);
    let reference = sequential_reference::<f64>(
        job.grid_ext,
        job.n_grids,
        job.seed,
        &coef,
        job.bc,
        job.sweeps,
    );
    let err =
        max_error_vs_reference_planned(&native.sets, &native.map, job.grid_ext, &reference, &cfg);
    assert_eq!(err, 0.0);
}
