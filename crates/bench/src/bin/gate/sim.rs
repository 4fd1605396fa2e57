//! `sim`: the paper's claims on the deterministic timed plane. The DES
//! gives identical times on every host, so a model or scheduler change
//! shows up here rather than in a figure. Points: the Fig. 5 job at 256
//! cores (mesh scope, the four graphed approaches); the headline job at
//! 1024 cores (full scope) and at 16 384 cores (unit cell, every
//! approach at its best batch: the 36 % → 70 % utilization claim);
//! temporal blocking against Hybrid multiple at equal sweeps, which must
//! move the same faces in ≥ 40 % fewer exchange epochs; two native 16³
//! points on real threads, bitwise against the sequential reference;
//! and three Fig. 2 ping sizes. Modelled counts are exact, times ±5 %,
//! utilizations and phase fractions ±0.05; the native points gate their
//! counts only, since their times are the host's wall clock.

use super::*;
use gpaw_bench::{fig5_experiment, fig7_experiment, BIG_JOB_BATCHES};
use gpaw_bgp_hw::CostModel;
use gpaw_fd::report::phase_fractions_json;
use gpaw_fd::timed::ScopeSel;
use gpaw_fd::Json;
use gpaw_simmpi::ping::p2p_bandwidth;

/// Report a timed-plane point: counts exact, the model's times ±5 %, its
/// utilizations and phase fractions ±0.05.
fn modelled(ledger: &mut Ledger, at: &str, a: Approach, cores: usize, batch: usize, r: RunReport) {
    let name = format!("{at}/{}", a.label());
    let link_busy = r.net.link_busy_max.as_secs_f64();
    let times = [
        ("seconds", r.seconds()),
        ("flops", r.flops),
        ("net/link_busy_max_secs", link_busy),
    ];
    let mut fractions = vec![
        ("utilization".to_string(), r.utilization),
        (
            "utilization_from_spans".to_string(),
            r.utilization_from_spans(),
        ),
        (
            "utilization_paper_scale".to_string(),
            r.utilization_paper_scale(),
        ),
        ("max_link_utilization".to_string(), r.max_link_utilization),
    ];
    if let Json::Obj(phases) = phase_fractions_json(&r.phases, r.seconds() * r.threads as f64) {
        for (kind, v) in phases {
            let v = v.as_f64().unwrap_or(f64::NAN);
            fractions.push((format!("phase_fractions/{kind}"), v));
        }
    }
    for (leaf, v) in times {
        ledger.gate(&format!("{name}/{leaf}"), v, Tol::Rel(0.05));
    }
    for (leaf, v) in fractions {
        ledger.gate(&format!("{name}/{leaf}"), v, Tol::Abs(0.05));
    }
    ledger.point(&name, a.label(), cores, batch, r);
}

pub fn run(ledger: &mut Ledger) -> Result<(), SoakFailure> {
    let model = CostModel::bgp();
    let (f5, f7) = (fig5_experiment(), fig7_experiment());
    for a in Approach::GRAPHED {
        let batch = if a == Approach::FlatOriginal { 1 } else { 8 };
        let r = f5.run(256, a, batch, &model, ScopeSel::Full);
        modelled(ledger, "fig5/256", a, 256, batch, r);
    }
    for a in [Approach::FlatOptimized, Approach::HybridMultiple] {
        let r = f7.run(1024, a, 32, &model, ScopeSel::Full);
        modelled(ledger, "headline/1024", a, 1024, 32, r);
    }
    // Iterating the registry gives a new approach a gated point (and an
    // unbaselined key, failing the gate) the moment it exists.
    for a in Approach::ALL {
        let (batch, r) = f7.best_batch(16_384, a, &BIG_JOB_BATCHES, &model, ScopeSel::Cell);
        if matches!(a, Approach::FlatOriginal | Approach::HybridMultiple) {
            let key = format!(
                "utilization_paper_scale_{}_16384",
                a.slug().replace('-', "_")
            );
            ledger.scalar(&key, r.utilization_paper_scale(), Tol::Abs(0.05));
        }
        modelled(ledger, "headline/16384", a, 16_384, batch, r);
    }

    let mut fused = fig5_experiment();
    fused.sweeps = 2;
    let hm = fused.run(256, Approach::HybridMultiple, 8, &model, ScopeSel::Full);
    let tb = fused.run(256, Approach::TemporalBlocked, 8, &model, ScopeSel::Full);
    let (tb_messages, hm_messages) = (tb.messages, hm.messages);
    ensure!(
        tb_messages * 10 <= hm_messages * 6,
        "temporal blocking must cut exchange epochs by >= 40% at equal sweeps \
         ({tb_messages} vs {hm_messages} messages)"
    );
    let reduction = 1.0 - tb_messages as f64 / hm_messages as f64;
    ledger.scalar(
        "temporal_blocking_message_reduction",
        reduction,
        Tol::Rel(0.05),
    );
    for (a, r) in [
        (Approach::HybridMultiple, hm),
        (Approach::TemporalBlocked, tb),
    ] {
        modelled(ledger, "temporal/256", a, 256, 8, r);
    }

    // Two sweeps for temporal blocking, so the fused block really engages.
    for (a, sweeps) in [
        (Approach::HybridMultiple, 1),
        (Approach::TemporalBlocked, 2),
    ] {
        let job = NativeJob::new([16, 16, 16], 4, 1)
            .with_threads(2)
            .with_sweeps(sweeps);
        let (run, _) = clean(&job, a)?;
        let name = format!("native/2/{}", a.label());
        ledger.point(&name, a.label(), 2, job.batch, run.report);
    }
    for bytes in [1_000u64, 100_000, 10_000_000] {
        let bandwidth = p2p_bandwidth(&model, bytes).bandwidth;
        ledger.scalar(
            &format!("fig2_bandwidth_{bytes}"),
            bandwidth,
            Tol::Rel(0.05),
        );
    }
    Ok(())
}
