//! The timed executor: the compiled sweep programs, replayed on the
//! simulated BGP.
//!
//! Each (rank, thread) gets a [`StreamProgram`] — a lazy cursor over its
//! compiled [`SweepProgram`] that lowers one op at a time into
//! `gpaw-simmpi` instructions, so even the 16 384-core Gustafson runs
//! keep O(batch) memory per rank. There is no schedule logic here: which
//! batch exchanges when, who barriers with whom — all of that was decided
//! once by [`crate::program::compile_rank`], and this module only maps
//! each [`SweepOp`] to its cost-model instruction(s). The other planes
//! interpret the *same* op stream, so messages, tags, epochs and compute
//! volume agree by construction.

use crate::config::FdConfig;
use crate::plan::{recv_tag, send_tag, RankPlan};
use crate::program::{compile_rank, Cursor, SweepOp, SweepProgram};
use gpaw_bgp_hw::spec::CostModel;
use gpaw_bgp_hw::{CartMap, Partition};
use gpaw_simmpi::{Instr, Machine, Program, RunReport, Scope};
use std::collections::VecDeque;

/// A timed FD job.
#[derive(Debug, Clone, Copy)]
pub struct TimedJob {
    /// Total CPU cores (4 × nodes; 1 means the sequential baseline).
    pub cores: usize,
    /// Global grid extents.
    pub grid_ext: [usize; 3],
    /// Number of real-space grids.
    pub n_grids: usize,
    /// Bytes per grid point (8 real / 16 complex).
    pub bytes_per_point: usize,
    /// Engine configuration.
    pub config: FdConfig,
}

/// Which machine scope to simulate at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScopeSel {
    /// Unit cell on torus partitions, full machine otherwise — what the
    /// figures use.
    Auto,
    /// Force the exact full-machine simulation.
    Full,
    /// Force the unit cell (requires a torus partition).
    Cell,
}

/// Lazy lowering of one thread's [`SweepProgram`] to simulator
/// instructions.
pub struct StreamProgram {
    prog: SweepProgram,
    /// This thread's compute share of one grid, `(points, rows)`.
    unit_points: u64,
    unit_rows: u64,
    queue: VecDeque<Instr>,
    cursor: Cursor,
}

impl StreamProgram {
    /// Wrap one compiled program.
    pub fn new(prog: SweepProgram) -> StreamProgram {
        let (unit_points, unit_rows) = prog.compute_unit();
        StreamProgram {
            prog,
            unit_points,
            unit_rows,
            queue: VecDeque::new(),
            cursor: Cursor::at(0),
        }
    }

    /// One [`SweepOp`] → its cost-model instruction(s).
    fn lower(&mut self, sweep: usize, op: SweepOp) {
        let plan = &self.prog.plan;
        match op {
            SweepOp::PostRecv { batch, dirs, .. } => {
                let size = self.prog.batches.size(batch);
                let first = self.prog.first_global(batch);
                let epoch = self.prog.epoch(sweep, batch);
                for &ld in dirs.dirs() {
                    if let Some(nb) = plan.neighbors[ld.index()] {
                        self.queue.push_back(Instr::Irecv {
                            src: nb,
                            bytes: plan.msg_bytes(ld.axis, size),
                            tag: recv_tag(sweep, first, ld),
                            epoch,
                        });
                    }
                }
            }
            SweepOp::SendFace { batch, dirs, .. } => {
                let size = self.prog.batches.size(batch);
                let first = self.prog.first_global(batch);
                let epoch = self.prog.epoch(sweep, batch);
                for &ld in dirs.dirs() {
                    if let Some(nb) = plan.neighbors[ld.index()] {
                        self.queue.push_back(Instr::Isend {
                            dst: nb,
                            bytes: plan.msg_bytes(ld.axis, size),
                            tag: send_tag(sweep, first, ld),
                            epoch,
                        });
                    }
                }
            }
            SweepOp::WaitAll { batch, .. } => {
                self.queue.push_back(Instr::WaitEpoch {
                    epoch: self.prog.epoch(sweep, batch),
                });
            }
            SweepOp::ComputeInterior { batch } => {
                let size = self.prog.batches.size(batch) as u64;
                if size > 0 {
                    self.queue.push_back(Instr::Compute {
                        points: self.unit_points * size,
                        rows: self.unit_rows * size,
                        grids: size,
                    });
                }
            }
            // One wavefront step of a fused block. Redundant ghost-zone
            // compute is exactly what temporal blocking trades for fewer
            // exchange epochs, so the cost model charges the full box.
            SweepOp::ComputeWavefront {
                batch,
                step,
                shrink,
            } => {
                let size = self.prog.batches.size(batch) as u64;
                if size > 0 {
                    let [minus, plus] = self.prog.wavefront_box(step, shrink);
                    let dims: [u64; 3] =
                        std::array::from_fn(|a| (plan.sub.ext[a] + minus[a] + plus[a]) as u64);
                    self.queue.push_back(Instr::Compute {
                        points: dims[0] * dims[1] * dims[2] * size,
                        rows: dims[0] * dims[1] * size,
                        grids: size,
                    });
                }
            }
            // One slab-fenced grid: "we have to synchronize between every
            // grid-computation" (§VI) — batching aggregates the messages,
            // but the slab-parallel compute is still fenced per grid, so
            // the synchronization penalty grows with the number of grids.
            SweepOp::ApplyBoundarySlab { .. } => {
                self.queue.push_back(Instr::ThreadBarrier);
                self.queue.push_back(Instr::Compute {
                    points: self.unit_points,
                    rows: self.unit_rows,
                    grids: 1,
                });
                self.queue.push_back(Instr::ThreadBarrier);
            }
            SweepOp::ThreadBarrier => self.queue.push_back(Instr::ThreadBarrier),
            // The simulator has no grid buffers to swap; the sweep
            // transition is the cursor's wrap.
            SweepOp::AdvanceBuffer => {}
        }
    }
}

impl Program for StreamProgram {
    fn next(&mut self) -> Instr {
        loop {
            if let Some(i) = self.queue.pop_front() {
                return i;
            }
            match self.cursor.step(&self.prog) {
                Some((sweep, op)) => self.lower(sweep, op),
                None => return Instr::Done,
            }
        }
    }
}

/// Build the partition + cartesian map a job runs on.
pub fn job_map(job: &TimedJob) -> CartMap {
    let mode = job.config.approach.exec_mode();
    let partition = Partition::for_cores(job.cores, mode)
        .unwrap_or_else(|| panic!("no standard BGP partition for {} cores", job.cores));
    CartMap::best(partition, job.grid_ext)
}

/// Compile and wrap the programs for every instantiated (rank, thread)
/// slot.
fn build_programs(job: &TimedJob, map: &CartMap, scope: Scope) -> Vec<Box<dyn Program>> {
    let threads = map.partition.threads_per_process();
    let mut programs: Vec<Box<dyn Program>> = Vec::new();
    for rank in Machine::instantiated_ranks(map, scope) {
        let plan = RankPlan::for_rank(map, job.grid_ext, rank, job.bytes_per_point, &job.config);
        let compiled = compile_rank(&job.config, map, &plan, job.n_grids, threads);
        debug_assert_eq!(compiled.len(), threads);
        for prog in compiled {
            programs.push(Box::new(StreamProgram::new(prog)));
        }
    }
    programs
}

/// Run a timed FD job.
pub fn run_timed(job: &TimedJob, model: &CostModel, scope: ScopeSel) -> RunReport {
    if job.cores == 1 {
        return sequential_baseline(job, model);
    }
    run_timed_with_map(job, job_map(job), model, scope)
}

/// Run a timed FD job on an explicit cartesian map — the hook for the
/// `MPI_Cart_create` ablation (`CartMap::with_reorder(…, false)` places
/// ranks linearly, so logical neighbors land hops apart).
pub fn run_timed_with_map(
    job: &TimedJob,
    map: CartMap,
    model: &CostModel,
    scope: ScopeSel,
) -> RunReport {
    let scope = match scope {
        ScopeSel::Full => Scope::Full,
        ScopeSel::Cell => {
            assert!(
                map.partition.is_torus(),
                "unit-cell scope needs a torus partition (≥ 512 nodes)"
            );
            Scope::UnitCell { neighbor_hops: 1 }
        }
        ScopeSel::Auto => {
            if map.partition.is_torus() {
                Scope::UnitCell { neighbor_hops: 1 }
            } else {
                Scope::Full
            }
        }
    };
    let programs = build_programs(job, &map, scope);
    Machine::new(
        map,
        model.clone(),
        job.config.approach.thread_mode(),
        scope,
        programs,
    )
    .run()
}

/// The unreordered variant of [`job_map`] (ranks assigned to nodes in
/// plain linear order, ignoring the torus).
pub fn job_map_unreordered(job: &TimedJob) -> CartMap {
    let reordered = job_map(job);
    CartMap::with_reorder(reordered.partition, reordered.proc_dims, false)
        .unwrap_or_else(|e| panic!("dims were already validated by job_map: {e:?}"))
}

/// The sequential baseline: one core computing every grid whole, no
/// communication — the denominator of the paper's speedup graphs.
pub fn sequential_baseline(job: &TimedJob, model: &CostModel) -> RunReport {
    let points: u64 = job.grid_ext.iter().map(|&e| e as u64).product();
    let rows = (job.grid_ext[0] * job.grid_ext[1]) as u64;
    let mut instrs = Vec::with_capacity(job.config.sweeps);
    for _ in 0..job.config.sweeps {
        instrs.push(Instr::Compute {
            points: points * job.n_grids as u64,
            rows: rows * job.n_grids as u64,
            grids: job.n_grids as u64,
        });
    }
    let partition = Partition::new([1, 1, 1], gpaw_bgp_hw::ExecMode::Smp);
    let map = CartMap::new(partition, [1, 1, 1])
        .unwrap_or_else(|e| panic!("1-node map is always valid: {e:?}"));
    let mut programs: Vec<Box<dyn Program>> = vec![Box::new(gpaw_simmpi::VecProgram::new(instrs))];
    for _ in 1..4 {
        programs.push(Box::new(gpaw_simmpi::VecProgram::new(vec![])));
    }
    Machine::new(
        map,
        model.clone(),
        gpaw_simmpi::ThreadMode::Single,
        Scope::Full,
        programs,
    )
    .run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Approach;
    use gpaw_grid::stencil::BoundaryCond;

    fn job(cores: usize, approach: Approach, batch: usize) -> TimedJob {
        TimedJob {
            cores,
            grid_ext: [48, 48, 48],
            n_grids: 16,
            bytes_per_point: 8,
            config: FdConfig::paper(approach).with_batch(batch),
        }
    }

    fn model() -> CostModel {
        CostModel::bgp()
    }

    #[test]
    fn sequential_baseline_is_pure_compute() {
        let j = job(1, Approach::FlatOptimized, 1);
        let r = sequential_baseline(&j, &model());
        assert_eq!(r.messages, 0);
        assert_eq!(r.bytes_per_node, 0);
        let expect = model().compute_time(16 * 48 * 48 * 48, 16 * 48 * 48, 16);
        assert_eq!(r.makespan, expect);
    }

    #[test]
    fn all_approaches_complete_and_send_messages() {
        for approach in Approach::GRAPHED {
            let j = job(32, approach, 4);
            let r = run_timed(&j, &model(), ScopeSel::Full);
            assert!(r.messages > 0, "{approach:?} sent nothing");
            assert!(r.makespan.as_ps() > 0);
        }
    }

    #[test]
    fn flat_static_runs_on_timed_plane() {
        let j = job(32, Approach::FlatStatic, 4);
        let r = run_timed(&j, &model(), ScopeSel::Full);
        assert!(r.messages > 0);
    }

    #[test]
    fn temporal_blocking_halves_timed_messages() {
        // Same decomposition, same batches, same endpoints — but the
        // fused schedule exchanges once per block of 2 sweeps, so the
        // simulated machine observes exactly half the messages.
        let mut tb = job(32, Approach::TemporalBlocked, 4);
        tb.config = tb.config.with_sweeps(4);
        let mut hm = job(32, Approach::HybridMultiple, 4);
        hm.config = hm.config.with_sweeps(4);
        let rt = run_timed(&tb, &model(), ScopeSel::Full);
        let rh = run_timed(&hm, &model(), ScopeSel::Full);
        assert!(rt.messages > 0);
        assert_eq!(rt.messages * 2, rh.messages);
        assert!(rt.makespan.as_ps() > 0);
    }

    #[test]
    fn parallel_beats_sequential() {
        let seq = run_timed(
            &job(1, Approach::FlatOptimized, 4),
            &model(),
            ScopeSel::Full,
        );
        let par = run_timed(
            &job(32, Approach::FlatOptimized, 4),
            &model(),
            ScopeSel::Full,
        );
        let speedup = par.speedup_vs(&seq);
        assert!(
            speedup > 4.0,
            "32 cores should beat 1 core clearly, got {speedup}"
        );
    }

    #[test]
    fn flat_optimized_beats_flat_original() {
        let seq = run_timed(&job(1, Approach::FlatOriginal, 1), &model(), ScopeSel::Full);
        let orig = run_timed(
            &job(64, Approach::FlatOriginal, 1),
            &model(),
            ScopeSel::Full,
        );
        let opt = run_timed(
            &job(64, Approach::FlatOptimized, 8),
            &model(),
            ScopeSel::Full,
        );
        assert!(
            opt.makespan < orig.makespan,
            "optimized {} vs original {}",
            opt.makespan,
            orig.makespan
        );
        let _ = seq;
    }

    #[test]
    fn batching_reduces_messages() {
        let unbatched = run_timed(
            &job(32, Approach::FlatOptimized, 1),
            &model(),
            ScopeSel::Full,
        );
        let batched = run_timed(
            &job(32, Approach::FlatOptimized, 8),
            &model(),
            ScopeSel::Full,
        );
        assert!(batched.messages < unbatched.messages);
        // Payload bytes are identical — batching only concatenates.
        assert_eq!(batched.bytes_per_node, unbatched.bytes_per_node);
    }

    #[test]
    fn hybrid_communicates_less_per_node_than_flat() {
        let flat = run_timed(
            &job(64, Approach::FlatOptimized, 4),
            &model(),
            ScopeSel::Full,
        );
        let hyb = run_timed(
            &job(64, Approach::HybridMultiple, 4),
            &model(),
            ScopeSel::Full,
        );
        assert!(
            hyb.bytes_per_node < flat.bytes_per_node,
            "hybrid {} vs flat {}",
            hyb.bytes_per_node,
            flat.bytes_per_node
        );
    }

    #[test]
    fn cell_scope_matches_full_scope_on_torus() {
        // 512 nodes; keep the job small so the full run stays fast.
        let mut j = job(2048, Approach::HybridMultiple, 4);
        j.grid_ext = [64, 64, 64];
        j.n_grids = 8;
        let full = run_timed(&j, &model(), ScopeSel::Full);
        let cell = run_timed(&j, &model(), ScopeSel::Cell);
        assert_eq!(full.makespan, cell.makespan);
        assert_eq!(full.bytes_per_node, cell.bytes_per_node);
    }

    #[test]
    fn cell_scope_matches_full_scope_virtual_mode() {
        let mut j = job(2048, Approach::FlatOptimized, 4);
        j.grid_ext = [64, 64, 64];
        j.n_grids = 8;
        let full = run_timed(&j, &model(), ScopeSel::Full);
        let cell = run_timed(&j, &model(), ScopeSel::Cell);
        assert_eq!(full.makespan, cell.makespan);
    }

    #[test]
    fn master_only_pays_per_grid_barriers() {
        // The synchronization penalty is proportional to the number of
        // grids (§VI) regardless of batching: raising the barrier cost by
        // Δ lengthens a master-only run by ≈ 2·grids·Δ (two barriers per
        // grid on the critical path), but a hybrid-multiple run by only
        // ≈ Δ (one barrier per sweep).
        let base = model();
        let mut pricey = model();
        pricey.t_barrier = base.t_barrier + gpaw_des::SimDuration::from_us(50);
        let j = job(32, Approach::HybridMasterOnly, 8); // 16 grids
        let d_mo = run_timed(&j, &pricey, ScopeSel::Full)
            .makespan
            .saturating_sub(run_timed(&j, &base, ScopeSel::Full).makespan);
        let expect = gpaw_des::SimDuration::from_us(50) * (2 * 16);
        let lo = expect.as_ps() as f64 * 0.8;
        let hi = expect.as_ps() as f64 * 1.3;
        assert!(
            (lo..hi).contains(&(d_mo.as_ps() as f64)),
            "per-grid barrier delta {d_mo} (expected ≈ {expect})"
        );
        let h = job(32, Approach::HybridMultiple, 8);
        let d_hyb = run_timed(&h, &pricey, ScopeSel::Full)
            .makespan
            .saturating_sub(run_timed(&h, &base, ScopeSel::Full).makespan);
        assert!(
            d_hyb.as_ps() < expect.as_ps() / 8,
            "hybrid multiple pays a constant penalty, got {d_hyb}"
        );
    }
    #[test]
    fn zero_bc_sends_fewer_messages_than_periodic() {
        let mut j = job(32, Approach::FlatOptimized, 4);
        j.config.bc = BoundaryCond::Zero;
        let zero = run_timed(&j, &model(), ScopeSel::Full);
        let per = run_timed(
            &job(32, Approach::FlatOptimized, 4),
            &model(),
            ScopeSel::Full,
        );
        assert!(zero.messages < per.messages);
    }

    /// The timed plane's exact statistics, pinned: any change to the
    /// machine's matching, routing or event order shows up here as a
    /// changed makespan, event count or message count. The full-mesh
    /// points are the quick `des_mesh` benchmark shape (192³, 64 grids,
    /// 128 cores, one sweep; batch 8, Flat original unbatched); the cell
    /// point is the 16 384-core Fig. 7 shape, which routes every off-node
    /// message through the mirror and looks ranks up sparsely.
    #[test]
    fn timed_statistics_are_pinned() {
        let exp = crate::runner::FdExperiment {
            grid_ext: [192; 3],
            n_grids: 64,
            bytes_per_point: 8,
            sweeps: 1,
        };
        let m = model();
        let mut got = Vec::new();
        for approach in Approach::GRAPHED {
            let batch = if approach == Approach::FlatOriginal {
                1
            } else {
                8
            };
            let r = exp.run(128, approach, batch, &m, ScopeSel::Full);
            got.push((approach.slug(), r.makespan.as_ps(), r.events, r.messages));
        }
        let cell = crate::runner::FdExperiment {
            n_grids: 256,
            ..exp
        }
        .run(16_384, Approach::HybridMultiple, 8, &m, ScopeSel::Cell);
        got.push((
            "cell-16384",
            cell.makespan.as_ps(),
            cell.events,
            cell.messages,
        ));
        // (approach, makespan_ps, events, messages)
        let want = [
            ("flat-original", 337_846_263_900, 229_504, 49_152),
            ("flat-optimized", 311_191_069_884, 26_752, 6_144),
            ("hybrid-multiple", 319_909_105_176, 6_912, 1_536),
            ("hybrid-master-only", 311_172_919_294, 31_104, 1_536),
            ("cell-16384", 11_577_972_000, 840, 192),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn sweeps_scale_time_roughly_linearly() {
        let mut j = job(32, Approach::HybridMultiple, 4);
        let one = run_timed(&j, &model(), ScopeSel::Full);
        j.config = j.config.with_sweeps(3);
        let three = run_timed(&j, &model(), ScopeSel::Full);
        let ratio = three.seconds() / one.seconds();
        assert!(
            (2.5..3.5).contains(&ratio),
            "3 sweeps should cost ≈ 3×, got {ratio}"
        );
    }
}
