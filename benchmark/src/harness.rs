//! The run protocol: cycles of set-up → warm-up → timed repetitions for
//! the untraced run, and warm-up → untraced → traced repetition → layers
//! pass for the traced one.
//!
//! End-to-end metrics always come from the untraced run; the traced run
//! produces the per-layer ledger and the Chrome trace.

use crate::layers;
use crate::spec::{self, CYCLES};
use crate::stats::{median, percentile, samples_beyond};
use crate::sut::Json;
use crate::trace::{Cat, Tracer};
use crate::workloads::{self, Metric, Metrics, Rep, Workload};
use std::time::Instant;

pub struct RunOptions {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

pub struct RunOutcome {
    pub attempted: u64,
    pub failed: u64,
    /// Exactly the metrics `BENCHMARK.json` declares for this kind of
    /// run, in declaration order.
    pub declared: Vec<Metric>,
    /// Everything else that was measured (printed, not part of the
    /// contract's result line).
    pub extras: Vec<Metric>,
}

impl RunOutcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The contract's result line.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .declared
            .iter()
            .map(|m| {
                let value = Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]);
                (m.name.clone(), value)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

/// Peak resident set (`VmHWM`) in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset `VmHWM` to the current resident set, so the oracle's reference
/// grids (alive during the warm-up only) do not set the peak. Best
/// effort: where the kernel refuses, the peak includes them.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

pub fn run(opts: &RunOptions) -> Result<RunOutcome, String> {
    let mut workload =
        workloads::by_name(&opts.workload, opts.seed, opts.quick).ok_or_else(|| {
            let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            format!(
                "unknown workload {:?}; expected one of {}",
                opts.workload,
                names.join(", ")
            )
        })?;
    Ok(if opts.trace {
        run_traced(workload.as_mut(), opts)
    } else {
        run_untraced(workload.as_mut(), opts)
    })
}

fn run_untraced(w: &mut dyn Workload, opts: &RunOptions) -> RunOutcome {
    let mut tr = Tracer::off();
    // A set-up sample is construction plus the first repetition after it.
    let set_up = |w: &mut dyn Workload, tr: &mut Tracer| -> (f64, Rep) {
        let t = Instant::now();
        w.set_up(tr);
        let construct_s = t.elapsed().as_secs_f64();
        let rep = w.repetition(tr);
        (construct_s + rep.wall_s, rep)
    };

    // The first set-up is the process's warm-up: its repetition pays the
    // first-touch faults and carries the oracle check, and is not timed.
    let mut setups = Vec::with_capacity(CYCLES);
    let (cold_setup_s, warm_up) = set_up(w, &mut tr);
    setups.push(cold_setup_s);
    reset_peak_rss();

    // Timed repetitions until `--seconds` is as nearly used as whole
    // repetitions allow. The program is torn down and set up again at
    // each further 1/CYCLES of the way; the repetition right after a
    // set-up counts both as that set-up's tail and as a timed repetition.
    let mut reps: Vec<Rep> = Vec::new();
    let mut spent = 0.0;
    loop {
        let due = setups.len() as f64 * opts.seconds / CYCLES as f64;
        let rep = if setups.len() < CYCLES && spent >= due {
            w.tear_down(&mut tr);
            let (setup_s, rep) = set_up(w, &mut tr);
            setups.push(setup_s);
            rep
        } else {
            w.repetition(&mut tr)
        };
        spent += rep.wall_s;
        reps.push(rep);
        if spent + spent / reps.len() as f64 / 2.0 >= opts.seconds {
            break;
        }
    }
    w.tear_down(&mut tr);
    let attempted = warm_up.attempted + reps.iter().map(|r| r.attempted).sum::<u64>();
    let failed = warm_up.failed + reps.iter().map(|r| r.failed).sum::<u64>();

    let per_rep = |f: fn(&Rep) -> f64| -> f64 { median(&reps.iter().map(f).collect::<Vec<_>>()) };
    // Latency percentiles are taken within each repetition — where a leg
    // workload has one sample per leg and a service round a thousand —
    // and reported as the median over repetitions, so a percentile never
    // lands on the boundary between two legs' samples.
    let latency_ms = |q: f64| -> f64 {
        let per_rep: Vec<f64> = reps
            .iter()
            .filter(|r| !r.jobs.is_empty())
            .map(|r| {
                percentile(
                    &r.jobs.iter().map(|j| j.latency_s * 1e3).collect::<Vec<_>>(),
                    q,
                )
            })
            .collect();
        median(&per_rep)
    };
    let value_of = |name: &str| -> f64 {
        match name {
            "wall_s" => per_rep(|r| r.wall_s),
            "setup_s" => median(&setups),
            "peak_rss_mb" => peak_rss_mib(),
            "mlups" => per_rep(|r| r.updates / r.wall_s / 1e6),
            "jobs_per_s" => per_rep(|r| r.jobs.len() as f64 / r.wall_s),
            "job_latency_p50_ms" => latency_ms(50.0),
            "job_latency_p95_ms" => latency_ms(95.0),
            "msgs_per_s" => per_rep(|r| r.messages as f64 / r.wall_s),
            other => unreachable!("end-to-end metric {other} has no definition"),
        }
    };
    let declared = spec::END_TO_END
        .iter()
        .map(|m| Metric {
            name: m.name.to_string(),
            value: value_of(m.name),
            unit: m.unit,
        })
        .collect();
    let mut extras = Metrics::default();
    extras.put("timed_repetitions", reps.len() as f64, "count");
    extras.put("setups", setups.len() as f64, "count");
    let jobs_per_rep = reps.iter().map(|r| r.jobs.len()).min().unwrap_or(0);
    extras.put("jobs_per_repetition", jobs_per_rep as f64, "count");
    extras.put(
        "jobs_beyond_p95_per_repetition",
        samples_beyond(jobs_per_rep, 95.0) as f64,
        "count",
    );
    RunOutcome {
        attempted,
        failed,
        declared,
        extras: extras.0,
    }
}

fn run_traced(w: &mut dyn Workload, opts: &RunOptions) -> RunOutcome {
    let name = w.name();
    let mut tr = Tracer::new(name, true);
    let mut off = Tracer::off();
    let mut m = Metrics::default();

    let warm = tr.span("set_up+warm_up", Cat::Harness, |tr| {
        w.set_up(tr);
        w.repetition(tr)
    });
    let untraced = w.repetition(&mut off);
    tr.set_rep(1);
    let traced = tr.span("repetition", Cat::Harness, |tr| w.repetition(tr));
    tr.set_rep(0);
    let attempted = warm.attempted + untraced.attempted + traced.attempted;
    let failed = warm.failed + untraced.failed + traced.failed;

    m.put(
        "trace.overhead_ratio",
        traced.wall_s / untraced.wall_s,
        "ratio",
    );
    m.put("trace.sut_self_s", tr.self_seconds(Cat::Sut, 1), "s");
    m.put("trace.verify_self_s", tr.self_seconds(Cat::Verify, 1), "s");
    m.put("rep.wall_s", traced.wall_s, "s");
    m.put("rep.jobs", traced.jobs.len() as f64, "count");
    m.put("rep.messages", traced.messages as f64, "count");
    m.put(
        "rep.predicted_messages",
        traced.predicted_messages as f64,
        "count",
    );
    if let Some(ph) = w.phases(&traced) {
        for (p, v) in spec::PHASES.iter().zip(ph.as_array()) {
            m.put(format!("rep.{p}_frac"), v, "ratio");
        }
    }
    w.ledger(&traced, &mut m);
    w.traced_extras(&mut tr, &traced, &mut m);
    w.tear_down(&mut tr);
    layers::run(&mut tr, &mut m, opts.quick);
    m.put("trace.spans", tr.spans().len() as f64, "count");

    let path = workloads::bench_dir().join(format!("out/trace_{name}.json"));
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, tr.chrome_json().render()));
    match written {
        Ok(()) => eprintln!(
            "[trace] wrote {} ({} spans)",
            path.display(),
            tr.spans().len()
        ),
        Err(e) => panic!("cannot write {}: {e}", path.display()),
    }

    let mut declared = Vec::new();
    let layers = spec::per_layer();
    for l in &layers {
        let value = match m.get(&l.name) {
            Some(v) => v,
            // A ratio or count of a leg this workload does not run.
            None if !spec::is_time_unit(l.unit) => 0.0,
            None => panic!("per-layer time {} was not measured", l.name),
        };
        declared.push(Metric {
            name: l.name.clone(),
            value,
            unit: l.unit,
        });
    }
    let extras =
        m.0.into_iter()
            .filter(|x| !layers.iter().any(|l| l.name == x.name))
            .collect();
    RunOutcome {
        attempted,
        failed,
        declared,
        extras,
    }
}
