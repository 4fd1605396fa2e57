//! Node memory accounting.
//!
//! The paper's Fig. 5 job is capped at 32 grids of 144³ because "because of
//! the memory demand, it is not possible to have more than 32 grids running
//! on a single CPU-core". This module reproduces that arithmetic: the FD
//! operation needs an input *and* an output copy of every grid plus halo
//! storage, and a virtual-mode rank has 512 MB.

use crate::partition::{ExecMode, Partition};
use crate::spec::NodeSpec;

/// Description of an FD job for sizing purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Global grid extents (e.g. `[144, 144, 144]`).
    pub grid_ext: [usize; 3],
    /// Number of real-space grids (wave functions).
    pub n_grids: usize,
    /// Bytes per grid point: 8 for real grids, 16 for complex.
    pub bytes_per_point: usize,
    /// Halo depth of the stencil (2 for the 13-point operator).
    pub halo: usize,
}

impl JobSpec {
    /// Bytes one rank needs when the job is decomposed over `proc_dims`:
    /// input + output storage of its sub-grid of every grid (sub-grids
    /// stored with halo shells) — the dominant term the paper's 32-grid cap
    /// comes from.
    pub fn bytes_per_rank(&self, proc_dims: [usize; 3]) -> u64 {
        let sub: Vec<u64> = (0..3)
            .map(|d| {
                // Worst-case (ceiling) sub-extent plus two halo shells.
                let s = self.grid_ext[d].div_ceil(proc_dims[d]);
                (s + 2 * self.halo) as u64
            })
            .collect();
        let sub_points = sub[0] * sub[1] * sub[2];
        // Input grid + separate output grid (the paper notes the FD input
        // and output are always distinct arrays).
        2 * sub_points * self.n_grids as u64 * self.bytes_per_point as u64
    }
}

/// Why a job does not fit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryError {
    /// Bytes needed by the hungriest rank.
    pub needed: u64,
    /// Bytes available to one rank.
    pub available: u64,
    /// Execution mode the check was done for.
    pub mode: ExecMode,
}

impl std::fmt::Display for MemoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job needs {} MB per rank but {} mode provides {} MB",
            self.needed >> 20,
            self.mode,
            self.available >> 20
        )
    }
}

impl std::error::Error for MemoryError {}

/// Memory available to one MPI rank in the given mode.
pub fn rank_memory(node: &NodeSpec, mode: ExecMode) -> u64 {
    node.memory_bytes / mode.processes_per_node() as u64
}

/// Check that a decomposed job fits in per-rank memory.
pub fn check_fits(
    job: &JobSpec,
    partition: &Partition,
    proc_dims: [usize; 3],
) -> Result<(), MemoryError> {
    let node = NodeSpec::bgp();
    let available = rank_memory(&node, partition.mode);
    let needed = job.bytes_per_rank(proc_dims);
    if needed <= available {
        Ok(())
    } else {
        Err(MemoryError {
            needed,
            available,
            mode: partition.mode,
        })
    }
}

/// Largest number of grids of the given extent that fit on a single rank —
/// the paper's "no more than 32 grids on a single CPU-core" bound.
pub fn max_grids_per_rank(grid_ext: [usize; 3], bytes_per_point: usize, mode: ExecMode) -> usize {
    let node = NodeSpec::bgp();
    let avail = rank_memory(&node, mode);
    let per_grid = JobSpec {
        grid_ext,
        n_grids: 1,
        bytes_per_point,
        halo: 2,
    }
    .bytes_per_rank([1, 1, 1]);
    (avail / per_grid) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_32_grid_cap_on_one_core() {
        // 144³ real grids on one virtual-mode rank (512 MB): in+out copies
        // of a (148)³ halo-padded grid are ≈ 49.5 MB per grid ⇒ 10 grids per
        // virtual-mode rank. The paper ran its single-core baseline in SMP
        // mode (whole 2 GB node, one core busy): 2 GB / 49.5 MB ≈ 41, so a
        // 32-grid job fits on a full node but not in a 512 MB rank — which
        // is exactly why 32 was the paper's ceiling for the speedup graph.
        let smp = max_grids_per_rank([144, 144, 144], 8, ExecMode::Smp);
        let virt = max_grids_per_rank([144, 144, 144], 8, ExecMode::Virtual);
        assert!(
            (32..=48).contains(&smp),
            "whole-node capacity should admit the 32-grid job, got {smp}"
        );
        assert!(virt < 32, "512 MB rank cannot hold 32 grids, got {virt}");
    }

    #[test]
    fn bytes_per_rank_shrinks_with_decomposition() {
        let job = JobSpec {
            grid_ext: [192, 192, 192],
            n_grids: 512,
            bytes_per_point: 8,
            halo: 2,
        };
        let whole = job.bytes_per_rank([1, 1, 1]);
        let split = job.bytes_per_rank([8, 8, 8]);
        assert!(split < whole / 256, "split {split} whole {whole}");
    }

    #[test]
    fn check_fits_reports_errors() {
        let p = Partition::standard(1, ExecMode::Virtual).unwrap();
        let job = JobSpec {
            grid_ext: [144, 144, 144],
            n_grids: 32,
            bytes_per_point: 8,
            halo: 2,
        };
        // 32 grids on a single virtual-mode rank: does not fit.
        let err = check_fits(&job, &p, [1, 1, 1]).unwrap_err();
        assert!(err.needed > err.available);
        // Over 4 ranks... still the same per-rank subset? No: decomposed
        // over the node's 4 ranks it fits.
        assert!(check_fits(&job, &p, [1, 2, 2]).is_ok());
    }

    #[test]
    fn complex_grids_double_the_footprint() {
        let real = JobSpec {
            grid_ext: [100, 100, 100],
            n_grids: 4,
            bytes_per_point: 8,
            halo: 2,
        };
        let cplx = JobSpec {
            bytes_per_point: 16,
            ..real
        };
        assert_eq!(
            cplx.bytes_per_rank([2, 2, 1]),
            2 * real.bytes_per_rank([2, 2, 1])
        );
    }
}
