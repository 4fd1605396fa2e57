//! Cost-model calibration: grid-search a handful of model constants so the
//! paper's quantitative anchors come out together. Prints the best
//! candidates; the winner is baked into `CostModel::bgp()`.
//!
//! Targets, each the paper's value of its row in the anchor table
//! (`gpaw_bench::figures::ANCHORS`):
//! * T(Flat original)/T(Hybrid multiple) at 16 384 cores (§VIII);
//! * T(Flat optimized)/T(Hybrid multiple) (§VIII);
//! * p2p bandwidth at 10³ B as a share of the asymptote (Fig. 2);
//! * batching (batch 8 vs 1, Fig. 5 job at 4096 cores) speeds up Hybrid
//!   multiple, and by more than it speeds up Flat optimized (§VII).

use gpaw_bench::figures::paper_value;
use gpaw_bench::{fig5_experiment, fig7_experiment, BIG_JOB_BATCHES};
use gpaw_bgp_hw::CostModel;
use gpaw_des::SimDuration;
use gpaw_fd::timed::ScopeSel;
use gpaw_fd::Approach;
use gpaw_simmpi::ping::{bandwidth_sweep, p2p_bandwidth};

struct Scores {
    r_orig: f64,
    r_opt: f64,
    /// Bandwidth at 10³ B, percent of the asymptote.
    half: f64,
    gain_hyb: f64,
    gain_flat: f64,
}

fn measure(model: &CostModel) -> Scores {
    let exp = fig7_experiment();
    let cores = 16_384;
    let (_, orig) = exp.best_batch(cores, Approach::FlatOriginal, &[1], model, ScopeSel::Cell);
    let (_, opt) = exp.best_batch(
        cores,
        Approach::FlatOptimized,
        &BIG_JOB_BATCHES,
        model,
        ScopeSel::Cell,
    );
    let (_, hyb) = exp.best_batch(
        cores,
        Approach::HybridMultiple,
        &BIG_JOB_BATCHES,
        model,
        ScopeSel::Cell,
    );
    let f5 = fig5_experiment();
    let gain = |a: Approach| {
        let b1 = f5.run(4096, a, 1, model, ScopeSel::Cell);
        let b8 = f5.run(4096, a, 8, model, ScopeSel::Cell);
        b1.seconds() / b8.seconds()
    };
    let asymptote = bandwidth_sweep(model).last().expect("sweep").bandwidth;
    Scores {
        r_orig: orig.seconds() / hyb.seconds(),
        r_opt: opt.seconds() / hyb.seconds(),
        half: p2p_bandwidth(model, 1000).bandwidth / asymptote * 100.0,
        gain_hyb: gain(Approach::HybridMultiple),
        gain_flat: gain(Approach::FlatOptimized),
    }
}

fn score(s: &Scores) -> f64 {
    let off = |v: f64, figure, key| {
        let paper = paper_value(figure, key);
        ((v - paper) / paper).powi(2)
    };
    let mut d = off(s.r_orig, "headline", "vs_original") * 4.0
        + off(s.r_opt, "headline", "vs_optimized") * 2.0
        + off(s.half, "fig2_bandwidth", "half");
    // Batching must help hybrid, and help it more than flat.
    if s.gain_hyb < 1.02 {
        d += ((1.05 - s.gain_hyb) * 10.0).powi(2);
    }
    if s.gain_hyb <= s.gain_flat {
        d += ((s.gain_flat - s.gain_hyb + 0.02) * 10.0).powi(2);
    }
    d
}

fn main() {
    let mut best: Vec<(f64, String)> = Vec::new();
    for &t_point_ns in &[90.0f64, 110.0, 130.0, 150.0] {
        for &t_grid_us in &[3.0f64, 6.0] {
            for &o_send_us in &[0.8f64, 1.2, 1.8] {
                for &o_lock_us in &[2.0f64, 3.5, 5.0, 7.0] {
                    let mut m = CostModel::bgp();
                    m.t_point = SimDuration::from_ps((t_point_ns * 1000.0) as u64);
                    m.t_grid = SimDuration::from_ps((t_grid_us * 1e6) as u64);
                    m.o_send = SimDuration::from_ps((o_send_us * 1e6) as u64);
                    m.o_recv = SimDuration::from_ps((o_send_us * 0.75 * 1e6) as u64);
                    m.o_wait = SimDuration::from_ps((o_send_us * 0.25 * 1e6) as u64);
                    m.o_lock_multiple = SimDuration::from_ps((o_lock_us * 1e6) as u64);
                    let s = measure(&m);
                    best.push((
                        score(&s),
                        format!(
                            "t_point={t_point_ns}ns t_grid={t_grid_us}us o_send={o_send_us}us \
                             lock={o_lock_us}us -> orig/hyb={:.2} opt/hyb={:.2} bw(1k)={:.1}% \
                             gain_hyb={:.2} gain_flat={:.2}",
                            s.r_orig, s.r_opt, s.half, s.gain_hyb, s.gain_flat
                        ),
                    ));
                }
            }
        }
    }
    best.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    println!("Top 12 candidates (lower score = closer to paper):");
    for (d, s) in best.iter().take(12) {
        println!("  score={d:.4}  {s}");
    }
}
