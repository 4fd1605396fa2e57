//! # gpaw-bench — figure and table harnesses
//!
//! Three binaries (see `DESIGN.md` §5 and `EXPERIMENTS.md` for
//! paper-vs-measured):
//!
//! | binary | does |
//! |---|---|
//! | `figures [<name>…]` | regenerates the paper's tables and figures into `results/<name>.txt` and checks its anchors ([`figures`]) |
//! | `gate <scenario>` | runs the CI matrix: seven fixed scenarios gated against `results/baseline.json` ([`gate`]) |
//! | `native_headline` | runs the headline strategies on real threads, bitwise against the sequential reference |
//!
//! The figures are `table1_hardware` (Table I), `fig2_bandwidth`
//! (Fig. 2), `fig5_speedup`, `fig6_gustafson` and `fig7_large_speedup`
//! (Figs. 5–7), `headline` (§VII-B / §VIII) and `ablations` (§V). The
//! `calibrate` binary grid-searches the cost model against the anchor
//! table's values.
//!
//! This library holds the shared pieces: the figure and anchor tables,
//! the gate's ledger, the paper's workload presets, an aligned-table
//! printer, and a simulated-seconds formatter.

use gpaw_fd::runner::FdExperiment;

pub mod figures;
pub mod gate;

/// The paper's Fig. 5 workload: 32 grids of 144³ ("because of the memory
/// demand, it is not possible to have more than 32 grids running on a
/// single CPU-core").
pub fn fig5_experiment() -> FdExperiment {
    FdExperiment {
        grid_ext: [144, 144, 144],
        n_grids: 32,
        bytes_per_point: 8,
        sweeps: 1,
    }
}

/// The Fig. 6 Gustafson workload: grid size 192³, one grid per CPU-core
/// (the grid count is set per point).
pub fn fig6_experiment(cores: usize) -> FdExperiment {
    FdExperiment {
        grid_ext: [192, 192, 192],
        n_grids: cores,
        bytes_per_point: 8,
        sweeps: 1,
    }
}

/// The Fig. 7 / headline workload: 2816 grids of 192³.
pub fn fig7_experiment() -> FdExperiment {
    FdExperiment {
        grid_ext: [192, 192, 192],
        n_grids: 2816,
        bytes_per_point: 8,
        sweeps: 1,
    }
}

/// Core counts of the Fig. 5 x-axis.
pub const FIG5_CORES: [usize; 5] = [1, 512, 1024, 2048, 4096];
/// Core counts of the Fig. 6 x-axis.
pub const FIG6_CORES: [usize; 4] = [2048, 4096, 8192, 16384];
/// Core counts of the Fig. 7 x-axis.
pub const FIG7_CORES: [usize; 5] = [1024, 2048, 4096, 8192, 16384];

/// Batch candidates for "best batch-size found" sweeps. Sizes below 4
/// never win for thousand-grid jobs and make the sub-torus (full-machine)
/// points needlessly slow, so they are excluded here; `ablations` sweeps
/// the full range.
pub const BIG_JOB_BATCHES: [usize; 6] = [4, 8, 16, 32, 64, 128];

/// Simple fixed-width table printer.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header length).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", cell, width = widths[c]));
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format simulated seconds compactly.
pub fn secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.3}ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3}us", s * 1e6)
    } else {
        format!("{:.0}ns", s * 1e9)
    }
}

/// Format bytes as MB (the Fig. 6 right axis unit).
pub fn mb(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(vec!["a", "bbbb"]);
        t.row(vec!["1", "2"]);
        t.row(vec!["333", "4"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines same width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert!(lines[0].contains('a') && lines[0].contains("bbbb"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }

    #[test]
    fn formatters() {
        assert_eq!(secs(2.5), "2.500s");
        assert_eq!(secs(0.0025), "2.500ms");
        assert_eq!(secs(2.5e-6), "2.500us");
        assert_eq!(mb(1_500_000), "1.5");
    }

    #[test]
    fn presets_match_the_paper() {
        assert_eq!(fig5_experiment().n_grids, 32);
        assert_eq!(fig5_experiment().grid_ext, [144; 3]);
        assert_eq!(fig7_experiment().n_grids, 2816);
        assert_eq!(fig6_experiment(8192).n_grids, 8192);
    }
}
