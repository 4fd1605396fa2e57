//! The benchmark's contract as data: workload names, end-to-end metrics
//! with their regression bounds, and the per-layer metrics the traced
//! run reports. `BENCHMARK.json` at the repo root is rendered from these
//! tables (`benchmark manifest`) and a unit test keeps the two equal.

use crate::sut::Json;

/// Seconds one run measures (`--seconds` default, `run_seconds` in
/// `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 12;

/// Set-ups (and therefore warm-up repetitions) per run; `setup_s` is
/// their median.
pub const CYCLES: usize = 3;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "sweep_compute",
        why: "kernel-bound native sweeps: 144^3, 24 sweeps, 1 node x 2 threads, four legs use the stencil four ways; the fabric barely moves",
    },
    WorkloadSpec {
        name: "sweep_comm",
        why: "message-bound native sweeps: 1024 grids of 8^3 on 2 ranks, batch 1 (latency) and batch 16 (payload); the opposite mix to sweep_compute",
    },
    WorkloadSpec {
        name: "sweep_resilient",
        why: "fault-free resilience tax: the same job bare, supervised and durable, so checkpoint, integrity and spill code does most of the work",
    },
    WorkloadSpec {
        name: "service_mix",
        why: "closed-loop job service: 4 clients over 2 workers, 48 skewed program keys against a 32-entry cache; admission, scheduling, spawn and fill dominate",
    },
    WorkloadSpec {
        name: "des_mesh",
        why: "timed plane host cost: 192^3 x 256 grids at 1024 simulated cores, full mesh, four approaches; no native code runs",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports all eight. A *job* is one call into the
/// program that returns a result to verify: a native leg, a service job,
/// a simulated experiment point.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "mlups",
        unit: "Mlup/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "jobs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "job_latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "job_latency_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "msgs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
    },
];

#[derive(Clone, Debug)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// Native legs, in workload order.
pub const COMPUTE_LEGS: [&str; 4] = ["hm_f64", "hmo_f64", "tb_f64", "hm_c64"];
pub const COMM_LEGS: [&str; 2] = ["b1", "b16"];
pub const RESILIENT_LEGS: [&str; 3] = ["bare", "supervised", "durable"];
/// Legs whose program-reported phase fractions are declared per-layer
/// metrics (the `hmo_f64` and `b16` fractions are printed but not
/// declared: the declared list has a 128 cap).
pub const FRAC_LEGS: [&str; 4] = ["hm_f64", "tb_f64", "hm_c64", "b1"];
pub const REPLAY_LEGS: [&str; 2] = ["hm_f64", "b1"];
pub const PHASES: [&str; 5] = ["compute", "halo", "comm", "barrier", "idle"];
/// The four graphed approaches `des_mesh` simulates, and the six the
/// traced run's strategy matrix runs.
pub const SIM_APPROACHES: [&str; 4] = [
    "flat-original",
    "flat-optimized",
    "hybrid-multiple",
    "hybrid-master-only",
];
pub const MATRIX_APPROACHES: [&str; 6] = [
    "flat-original",
    "flat-optimized",
    "hybrid-multiple",
    "hybrid-master-only",
    "flat-static",
    "temporal-blocked",
];

/// Units that denote a time. A declared per-layer metric with one of
/// these must be measured in every traced run (never defaulted).
pub fn is_time_unit(unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "us" | "ns")
}

/// The declared per-layer metrics, in report order.
///
/// The first two groups are measured in every traced run (the `layers`
/// pass is workload-independent; the `trace.*`/`rep.*` ledger is read off
/// the traced repetition of whichever workload ran). The third group
/// belongs to single workloads and reads 0 — "not exercised by this
/// workload" — in the traced runs of the others; it holds only ratios and
/// counts for that reason.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut v: Vec<PerLayer> = Vec::new();
    let mut add = |name: String, unit: &'static str, better: Better| {
        v.push(PerLayer { name, unit, better });
    };
    // --- layers pass ---
    add("host.copy_gbs".into(), "GB/s", Higher);
    add("host.triad_gbs".into(), "GB/s", Higher);
    add("host.llc_bytes".into(), "B", Higher);
    add("host.array_bytes".into(), "B", Higher);
    for shape in [
        "f64_48",
        "f64_144",
        "f64_192",
        "c64_96",
        "slab4_f64_144",
        "region_f64_144",
    ] {
        add(format!("grid.stencil.{shape}.mlups"), "Mlup/s", Higher);
    }
    add("grid.stencil.f64_192.computed_gbs".into(), "GB/s", Higher);
    add("grid.stencil.roofline_ratio".into(), "ratio", Higher);
    for op in ["pack_x", "pack_z", "unpack_x", "unpack_z", "pack_z_d4"] {
        add(format!("grid.halo.{op}.gbs"), "GB/s", Higher);
    }
    add("grid.fill.mpts_per_s".into(), "Mpt/s", Higher);
    add("hybrid-rt.fabric.small_ns_per_msg".into(), "ns", Lower);
    add("hybrid-rt.fabric.pingpong_ns".into(), "ns", Lower);
    add("hybrid-rt.fabric.contended_ns_per_msg".into(), "ns", Lower);
    add("hybrid-rt.fabric.large_gbs".into(), "GB/s", Higher);
    add("core.integrity.payload_digest_gbs".into(), "GB/s", Higher);
    add("core.integrity.fnv_gbs".into(), "GB/s", Higher);
    add("core.integrity.crc32_gbs".into(), "GB/s", Higher);
    add("core.checkpoint.deposit_ms".into(), "ms", Lower);
    add("core.checkpoint.deposit_gbs".into(), "GB/s", Higher);
    add("core.checkpoint.restore_ms".into(), "ms", Lower);
    add("core.durable.spill_mbs".into(), "MB/s", Higher);
    add("core.durable.recover_mbs".into(), "MB/s", Higher);
    add("core.program.compile_us".into(), "us", Lower);
    add("core.progcache.hit_ns".into(), "ns", Lower);
    add("core.progcache.miss_us".into(), "us", Lower);
    add("des.queue.mevents_per_s".into(), "Mev/s", Higher);
    add("core.timed.cell_16384c_ms".into(), "ms", Lower);
    add(
        "core.timed.full_1024c.mevents_per_s".into(),
        "Mev/s",
        Higher,
    );
    add("core.exec.functional_s".into(), "s", Lower);
    add("gpaw-mini.poisson.solve_s".into(), "s", Lower);
    add("gpaw-mini.poisson.iters".into(), "count", Lower);
    for a in MATRIX_APPROACHES {
        add(format!("hybrid-rt.matrix.{a}.wall_ms"), "ms", Lower);
    }
    // --- ledger of the traced repetition, any workload ---
    add("trace.overhead_ratio".into(), "ratio", Lower);
    add("trace.spans".into(), "count", Lower);
    add("trace.sut_self_s".into(), "s", Lower);
    add("trace.verify_self_s".into(), "s", Lower);
    add("rep.wall_s".into(), "s", Lower);
    add("rep.jobs".into(), "count", Higher);
    add("rep.messages".into(), "count", Lower);
    add("rep.predicted_messages".into(), "count", Lower);
    for p in PHASES {
        let better = if p == "compute" { Higher } else { Lower };
        add(format!("rep.{p}_frac"), "ratio", better);
    }
    // --- single-workload metrics (0 in the other workloads' traced runs) ---
    for leg in COMPUTE_LEGS.iter().chain(&COMM_LEGS).chain(&RESILIENT_LEGS) {
        add(format!("leg.{leg}.share"), "ratio", Lower);
        add(format!("leg.{leg}.messages"), "count", Lower);
    }
    for leg in FRAC_LEGS {
        for p in PHASES {
            let better = if p == "compute" { Higher } else { Lower };
            add(format!("leg.{leg}.{p}_frac"), "ratio", better);
        }
    }
    for leg in REPLAY_LEGS {
        for part in ["stencil", "halo", "fabric", "fill"] {
            add(format!("replay.{leg}.{part}_share"), "ratio", Lower);
        }
        add(format!("replay.{leg}.coverage_ratio"), "ratio", Higher);
    }
    add("hybrid-rt.scaling_efficiency_2t".into(), "ratio", Higher);
    add("hybrid-rt.supervisor.tax_ratio".into(), "ratio", Lower);
    add("hybrid-rt.durable.tax_ratio".into(), "ratio", Lower);
    add("hybrid-rt.durable.epochs_spilled".into(), "count", Lower);
    add("hybrid-rt.supervisor.recovery_ratio".into(), "ratio", Lower);
    add("core.progcache.hit_ratio".into(), "ratio", Higher);
    add("core.progcache.evictions".into(), "count", Lower);
    add("hybrid-rt.service.queue_wait_share".into(), "ratio", Lower);
    add("hybrid-rt.service.run_share".into(), "ratio", Higher);
    add("hybrid-rt.service.overhead_ratio".into(), "ratio", Lower);
    for a in SIM_APPROACHES {
        add(format!("sim.{a}.makespan_ps"), "sim-ps", Lower);
        add(format!("sim.{a}.events"), "count", Lower);
        add(format!("sim.{a}.messages"), "count", Lower);
    }
    v
}

/// A metric or workload name the contract accepts: starts with a letter
/// or digit, then letters, digits, `_`, `.`, `-`; at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit the contract accepts: letters, digits, `_ / % . -`, at most 16.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn s(text: &str) -> Json {
    Json::Str(text.to_string())
}

/// `BENCHMARK.json` as a value.
pub fn manifest() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    obj(vec![
        ("command", Json::Arr(command.iter().map(|c| s(c)).collect())),
        ("paths", Json::Arr(vec![s("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(&m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `BENCHMARK.json` as text.
pub fn manifest_text() -> String {
    pretty(&manifest(), 0) + "\n"
}

/// Indented rendering with every object or array of scalars on one line,
/// so the manifest and the trajectory records diff entry by entry.
pub fn pretty(j: &Json, depth: usize) -> String {
    let pad = "  ".repeat(depth + 1);
    let leaf = |v: &Json| !matches!(v, Json::Obj(_) | Json::Arr(_));
    match j {
        Json::Obj(members) if !members.iter().all(|(_, v)| leaf(v)) => {
            let body: Vec<String> = members
                .iter()
                .map(|(k, v)| {
                    format!(
                        "{pad}{}: {}",
                        Json::Str(k.clone()).render(),
                        pretty(v, depth + 1)
                    )
                })
                .collect();
            format!("{{\n{}\n{}}}", body.join(",\n"), "  ".repeat(depth))
        }
        Json::Arr(items) if !items.iter().all(leaf) => {
            let body: Vec<String> = items
                .iter()
                .map(|v| format!("{pad}{}", pretty(v, depth + 1)))
                .collect();
            format!("[\n{}\n{}]", body.join(",\n"), "  ".repeat(depth))
        }
        other => other.render(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name.to_string()), "duplicate {}", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name.to_string()), "duplicate {}", m.name);
        }
        let layers = per_layer();
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer",
            layers.len()
        );
        for m in &layers {
            assert!(valid_name(&m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name.clone()), "duplicate {}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s takes the largest bound");
    }

    #[test]
    fn name_validity_rejects_what_the_contract_rejects() {
        assert!(valid_name("grid.stencil.f64_144.mlups"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("a/b"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("GB/s") && valid_unit("%") && !valid_unit("") && !valid_unit("a b"));
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            text,
            manifest_text(),
            "regenerate with `benchmark manifest > BENCHMARK.json`"
        );
        assert!(text.len() <= 64 * 1024);
        let parsed = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(parsed, manifest());
    }
}
