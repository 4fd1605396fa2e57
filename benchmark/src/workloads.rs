//! The five workloads. Each is a set-up, a warm-up repetition and timed
//! repetitions of the same *legs*; shapes, thread counts and message
//! counts are fixed here and named in `README.md`.
//!
//! Sizing: the host has two cores, so no workload runs more than two
//! compute threads (the durable leg's spiller is the one deliberate
//! third). Sweep counts are the knob that was cut to fit the per-run time
//! budget — never grid shapes, thread counts or batch sizes.

use crate::spec;
use crate::sut::{self, Approach, Elem, Entry, LegSpec, Phases};
use crate::trace::{Cat, Tracer};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Name, value, unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An insertion-ordered bag of measured metrics.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        debug_assert!(
            spec::valid_name(&name) && spec::valid_unit(unit),
            "{name} [{unit}]"
        );
        self.0.push(Metric { name, value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// One job of a repetition, as timed from outside.
#[derive(Clone, Debug)]
pub struct JobObs {
    /// Which of the workload's legs, in execution order.
    pub leg: usize,
    /// Which program key a service job ran (0 elsewhere).
    pub key: usize,
    pub latency_s: f64,
    pub messages: u64,
    /// Program-reported phase shares, where the entry point returns them.
    pub phases: Option<Phases>,
    /// Epoch files written (durable leg).
    pub epochs_spilled: u64,
    /// Service-side queue wait and run time.
    pub queued_s: f64,
    pub ran_s: f64,
}

/// One repetition: every leg once (or one service round).
#[derive(Default)]
pub struct Rep {
    /// Seconds inside the program: the sum of the legs' call times, or a
    /// service round's wall clock.
    pub wall_s: f64,
    pub jobs: Vec<JobObs>,
    /// Grid-point updates performed (simulated ones on the timed plane).
    pub updates: f64,
    pub messages: u64,
    pub predicted_messages: u64,
    /// Jobs started, and those that errored or failed verification.
    pub attempted: u64,
    pub failed: u64,
}

pub trait Workload {
    fn name(&self) -> &'static str;
    /// Construct, compile, start — the part of set-up before the warm-up
    /// repetition. Called once per cycle, after [`Workload::tear_down`].
    fn set_up(&mut self, tr: &mut Tracer);
    /// Run every leg once. A leg's first run is verified against the
    /// oracle and establishes the digest every later run must reproduce.
    /// Verification is outside `Rep::wall_s`.
    fn repetition(&mut self, tr: &mut Tracer) -> Rep;
    fn tear_down(&mut self, tr: &mut Tracer);
    /// The workload's own per-layer numbers, read off a repetition.
    fn ledger(&self, rep: &Rep, out: &mut Metrics);
    /// Extra traced measurements (replay budget, recovery run).
    fn traced_extras(&mut self, _tr: &mut Tracer, _rep: &Rep, _out: &mut Metrics) {}
    /// Program-reported shares of thread time over a repetition.
    fn phases(&self, rep: &Rep) -> Option<Phases> {
        rep_phases(rep)
    }
}

pub fn by_name(name: &str, seed: u64, quick: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "sweep_compute" => Box::new(Sweeps::compute(seed, quick)),
        "sweep_comm" => Box::new(Sweeps::comm(seed, quick)),
        "sweep_resilient" => Box::new(Sweeps::resilient(seed, quick)),
        "service_mix" => Box::new(ServiceMix::new(seed, quick)),
        "des_mesh" => Box::new(DesMesh::new(quick)),
        _ => return None,
    })
}

// ---------------------------------------------------------------------
// Scratch directories
// ---------------------------------------------------------------------

/// The benchmark's own directory: where `cargo run` says the manifest
/// is, else `benchmark/` under the working directory.
pub fn bench_dir() -> PathBuf {
    let is_it = |dir: &Path| dir.join("src/sut.rs").is_file();
    match std::env::var_os("CARGO_MANIFEST_DIR").map(PathBuf::from) {
        Some(dir) if is_it(&dir) => dir,
        _ if !is_it(Path::new("benchmark")) && is_it(Path::new(".")) => PathBuf::from("."),
        _ => PathBuf::from("benchmark"),
    }
}

/// A fresh directory under `benchmark/out/tmp`, removed on drop — on
/// success, on a failed repetition, and while unwinding.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(label: &str) -> Scratch {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let id = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = bench_dir()
            .join("out/tmp")
            .join(format!("{}-{label}-{id}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("cannot create scratch directory {dir:?}: {e}"));
        Scratch(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ---------------------------------------------------------------------
// The three native sweep workloads
// ---------------------------------------------------------------------

/// The identity a leg established on its first, oracle-checked run.
#[derive(Clone, Copy)]
struct Identity {
    digest: u64,
    messages: u64,
}

pub struct Sweeps {
    name: &'static str,
    seed: u64,
    specs: Vec<LegSpec>,
    prepared: Vec<sut::PreparedLeg>,
    identity: Vec<Option<Identity>>,
}

impl Sweeps {
    fn new(name: &'static str, seed: u64, specs: Vec<LegSpec>) -> Sweeps {
        let identity = vec![None; specs.len()];
        Sweeps {
            name,
            seed,
            specs,
            prepared: Vec::new(),
            identity,
        }
    }

    /// 144³ (the paper's Fig. 5 grid), 1 node × 2 threads, batch 4: the
    /// same kernel four ways — whole-grid `apply`, master-only slabs,
    /// temporal-blocked regions, complex scalars.
    pub fn compute(seed: u64, quick: bool) -> Sweeps {
        let hm_f64 = LegSpec {
            name: "hm_f64",
            approach: Approach::HybridMultiple,
            elem: Elem::F64,
            ext: [144; 3],
            grids: 4,
            nodes: 1,
            threads: 2,
            batch: 4,
            sweeps: if quick { 4 } else { 24 },
            entry: Entry::Bare,
        };
        let legs = vec![
            hm_f64,
            LegSpec {
                name: "hmo_f64",
                approach: Approach::HybridMasterOnly,
                ..hm_f64
            },
            LegSpec {
                name: "tb_f64",
                approach: Approach::TemporalBlocked,
                ..hm_f64
            },
            LegSpec {
                name: "hm_c64",
                elem: Elem::C64,
                grids: 2,
                ..hm_f64
            },
        ];
        Sweeps::new("sweep_compute", seed, legs)
    }

    /// 1024 grids of 8³ on 2 nodes × 1 thread (two real ranks, so
    /// receives really block): batch 1 is latency-bound, batch 16
    /// payload-bound.
    pub fn comm(seed: u64, quick: bool) -> Sweeps {
        let b1 = LegSpec {
            name: "b1",
            approach: Approach::HybridMultiple,
            elem: Elem::F64,
            ext: [8; 3],
            grids: 1024,
            nodes: 2,
            threads: 1,
            batch: 1,
            sweeps: if quick { 4 } else { 24 },
            entry: Entry::Bare,
        };
        let legs = vec![
            b1,
            LegSpec {
                name: "b16",
                batch: 16,
                ..b1
            },
        ];
        Sweeps::new("sweep_comm", seed, legs)
    }

    /// 8 grids of 96³, 1 node × 2 threads: the same job bare, supervised
    /// and durable (three spill strides per run).
    pub fn resilient(seed: u64, quick: bool) -> Sweeps {
        let sweeps = if quick { 6 } else { 15 };
        let bare = LegSpec {
            name: "bare",
            approach: Approach::HybridMultiple,
            elem: Elem::F64,
            ext: [96; 3],
            grids: 8,
            nodes: 1,
            threads: 2,
            batch: 4,
            sweeps,
            entry: Entry::Bare,
        };
        let durable = Entry::Durable {
            spill_every: sweeps / 3,
        };
        let legs = vec![
            bare,
            LegSpec {
                name: "supervised",
                entry: Entry::Supervised,
                ..bare
            },
            LegSpec {
                name: "durable",
                entry: durable,
                ..bare
            },
        ];
        Sweeps::new("sweep_resilient", seed, legs)
    }

    /// The leg called `name` and what it did in `rep`, if it ran there.
    fn leg_in<'a>(&self, rep: &'a Rep, name: &str) -> Option<(usize, &'a JobObs)> {
        let i = self.specs.iter().position(|s| s.name == name)?;
        Some((i, rep.jobs.iter().find(|j| j.leg == i)?))
    }
}

impl Workload for Sweeps {
    fn name(&self) -> &'static str {
        self.name
    }

    fn set_up(&mut self, tr: &mut Tracer) {
        let seed = self.seed;
        self.prepared = self
            .specs
            .iter()
            .map(|s| {
                tr.span(&format!("prepare_leg:{}", s.name), Cat::Sut, |_| {
                    sut::prepare_leg(s, seed)
                })
            })
            .collect();
    }

    fn repetition(&mut self, tr: &mut Tracer) -> Rep {
        let mut rep = Rep::default();
        // The oracle: one sequential reference per distinct job among the
        // legs not yet verified, computed side by side, and dropped with
        // this repetition so none outlives into a timed one.
        let mut unverified: Vec<&sut::PreparedLeg> = Vec::new();
        for (p, id) in self.prepared.iter().zip(&self.identity) {
            let key = sut::reference_key(&p.spec);
            if id.is_none()
                && !unverified
                    .iter()
                    .any(|q| sut::reference_key(&q.spec) == key)
            {
                unverified.push(p);
            }
        }
        let references: HashMap<_, sut::Reference> =
            tr.span("oracle:references", Cat::Verify, |_| {
                std::thread::scope(|s| {
                    let workers: Vec<_> = unverified
                        .iter()
                        .map(|&p| s.spawn(move || (sut::reference_key(&p.spec), sut::reference(p))))
                        .collect();
                    workers
                        .into_iter()
                        .map(|h| {
                            h.join()
                                .unwrap_or_else(|_| panic!("reference computation panicked"))
                        })
                        .collect()
                })
            });
        for (i, p) in self.prepared.iter().enumerate() {
            let name = p.spec.name;
            rep.attempted += 1;
            rep.updates += p.spec.updates();
            rep.predicted_messages += p.predicted_messages;
            let scratch = matches!(p.spec.entry, Entry::Durable { .. }).then(|| Scratch::new(name));
            let dir = scratch.as_ref().map_or(Path::new(""), Scratch::path);
            let run = tr.span(&format!("run_leg:{name}"), Cat::Sut, |_| {
                sut::run_leg(p, dir)
            });
            drop(scratch);
            let run = match run {
                Ok(run) => run,
                Err(e) => {
                    eprintln!("{}: leg {name} failed: {e}", self.name);
                    rep.failed += 1;
                    continue;
                }
            };
            rep.wall_s += run.wall_s;
            rep.messages += run.messages;
            let ok = tr.span(&format!("verify:{name}"), Cat::Verify, |_| {
                let digest = sut::leg_digest(&run);
                let mut ok = true;
                if run.messages != p.predicted_messages {
                    eprintln!(
                        "{}: leg {name} moved {} messages, its programs predict {}",
                        self.name, run.messages, p.predicted_messages
                    );
                    ok = false;
                }
                if run.attempts != 1 {
                    eprintln!("{}: leg {name} needed {} attempts on a clean fabric", self.name, run.attempts);
                    ok = false;
                }
                match self.identity[i] {
                    Some(id) => {
                        if digest != id.digest || run.messages != id.messages {
                            eprintln!("{}: leg {name} did not reproduce its warm-up (digest {digest:#018x})", self.name);
                            ok = false;
                        }
                    }
                    None => {
                        let reference = &references[&sut::reference_key(&p.spec)];
                        let err = sut::error_vs_reference(p, &run, reference);
                        if err == 0.0 {
                            self.identity[i] = Some(Identity { digest, messages: run.messages });
                        } else {
                            eprintln!("{}: leg {name} differs from the sequential reference by {err:e}", self.name);
                            ok = false;
                        }
                    }
                }
                ok
            });
            if !ok {
                rep.failed += 1;
            }
            rep.jobs.push(JobObs {
                leg: i,
                key: 0,
                latency_s: run.wall_s,
                messages: run.messages,
                phases: Some(run.phases),
                epochs_spilled: run.epochs_spilled,
                queued_s: 0.0,
                ran_s: run.wall_s,
            });
        }
        rep
    }

    fn tear_down(&mut self, _tr: &mut Tracer) {
        self.prepared.clear();
    }

    fn ledger(&self, rep: &Rep, out: &mut Metrics) {
        let by_leg = |name: &str| self.leg_in(rep, name).map(|(_, job)| job);
        for job in &rep.jobs {
            let name = self.specs[job.leg].name;
            out.put(
                format!("leg.{name}.share"),
                job.latency_s / rep.wall_s,
                "ratio",
            );
            out.put(format!("leg.{name}.wall_s"), job.latency_s, "s");
            out.put(format!("leg.{name}.messages"), job.messages as f64, "count");
            // The resilient legs' reports describe the same schedule as
            // `bare`; their cost shows in the tax ratios instead.
            if let (Some(ph), false) = (job.phases, self.name == "sweep_resilient") {
                for (p, v) in spec::PHASES.iter().zip(ph.as_array()) {
                    out.put(format!("leg.{name}.{p}_frac"), v, "ratio");
                }
            }
        }
        if let (Some(bare), Some(sup), Some(dur)) =
            (by_leg("bare"), by_leg("supervised"), by_leg("durable"))
        {
            out.put(
                "hybrid-rt.supervisor.tax_ratio",
                sup.latency_s / bare.latency_s,
                "ratio",
            );
            out.put(
                "hybrid-rt.durable.tax_ratio",
                dur.latency_s / bare.latency_s,
                "ratio",
            );
            out.put(
                "hybrid-rt.durable.epochs_spilled",
                dur.epochs_spilled as f64,
                "count",
            );
        }
    }

    fn traced_extras(&mut self, tr: &mut Tracer, rep: &Rep, out: &mut Metrics) {
        if let Some((i, two)) = self.leg_in(rep, "hm_f64") {
            // The plain single-threaded baseline: the same job on one
            // thread over twice its two-thread wall (1.0 = perfect).
            let one = sut::prepare_leg(
                &LegSpec {
                    threads: 1,
                    ..self.specs[i]
                },
                self.seed,
            );
            let run = tr
                .span("run_leg:hm_f64:1t", Cat::Sut, |_| {
                    sut::run_leg(&one, Path::new(""))
                })
                .unwrap_or_else(|e| panic!("single-threaded hm_f64 failed: {e}"));
            let same = self.identity[i].is_some_and(|id| id.digest == sut::leg_digest(&run));
            assert!(
                same,
                "single-threaded hm_f64 is not bitwise equal to the two-thread run"
            );
            out.put(
                "hybrid-rt.scaling_efficiency_2t",
                run.wall_s / (2.0 * two.latency_s),
                "ratio",
            );
        }
        for name in spec::REPLAY_LEGS {
            if let Some((i, job)) = self.leg_in(rep, name) {
                crate::layers::replay(tr, &self.prepared[i], job.latency_s, out);
            }
        }
        if let Some((i, sup)) = self.leg_in(rep, "supervised") {
            // Recovery: the supervised job again, with a panic injected
            // into rank 0's second send. The supervisor must absorb it
            // in exactly one retry and still land on the same bits.
            let p = &self.prepared[i];
            let run = tr.span("run_leg:supervised+send_panic", Cat::Sut, |_| {
                sut::run_leg_with_send_panic(p, 1, Path::new(""))
            });
            match run {
                Ok(run) => {
                    let same =
                        self.identity[i].is_some_and(|id| id.digest == sut::leg_digest(&run));
                    assert!(
                        run.attempts == 2 && same,
                        "recovery run: attempts {} (want 2), bitwise {same}",
                        run.attempts
                    );
                    out.put(
                        "hybrid-rt.supervisor.recovery_ratio",
                        run.wall_s / sup.latency_s,
                        "ratio",
                    );
                    out.put(
                        "hybrid-rt.supervisor.recovery_s",
                        run.wall_s - sup.latency_s,
                        "s",
                    );
                }
                Err(e) => panic!("recovery run failed outright: {e}"),
            }
        }
    }
}

// ---------------------------------------------------------------------
// service_mix
// ---------------------------------------------------------------------

const TENANTS: [&str; 4] = ["atlas", "borr", "ceres", "dione"];

/// SplitMix64: the mix is a pure function of the seed on every host.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

/// 8 shapes × 3 hybrid approaches × 2 sweep counts = 48 program keys.
fn service_keys() -> Vec<sut::ServiceKey> {
    let shapes: [([usize; 3], usize); 8] = [
        ([12, 10, 8], 4),
        ([16, 12, 10], 4),
        ([16, 16, 16], 4),
        ([24, 20, 16], 3),
        ([24, 24, 24], 4),
        ([32, 32, 24], 2),
        ([40, 32, 32], 2),
        ([48, 48, 48], 2),
    ];
    let approaches = [
        Approach::HybridMultiple,
        Approach::HybridMasterOnly,
        Approach::TemporalBlocked,
    ];
    let mut keys = Vec::with_capacity(48);
    for (ext, grids) in shapes {
        for approach in approaches {
            for sweeps in [2, 4] {
                keys.push(sut::ServiceKey {
                    approach,
                    ext,
                    grids,
                    sweeps,
                });
            }
        }
    }
    keys
}

/// How many of a round's `jobs` go to each key: a Zipf-like skew over a
/// fixed popularity order that scatters small and large shapes across
/// the ranks. The *multiset* is the same for every seed — the seed only
/// orders it — so a round's total work does not depend on the seed.
fn key_counts(n_keys: usize, jobs: usize) -> Vec<usize> {
    let weight = |k: usize| 1.0 / (1.0 + ((k * 29) % n_keys) as f64);
    let total: f64 = (0..n_keys).map(weight).sum();
    let mut counts: Vec<usize> = (0..n_keys)
        .map(|k| (jobs as f64 * weight(k) / total).floor() as usize)
        .collect();
    // Hand the rounding remainder to the most popular keys.
    let mut by_rank: Vec<usize> = (0..n_keys).collect();
    by_rank.sort_by_key(|&k| (k * 29) % n_keys);
    let mut left = jobs - counts.iter().sum::<usize>();
    for &k in by_rank.iter().cycle() {
        if left == 0 {
            break;
        }
        counts[k] += 1;
        left -= 1;
    }
    counts
}

pub struct ServiceMix {
    seed: u64,
    keys: Vec<sut::ServiceKey>,
    round_jobs: usize,
    rng: SplitMix,
    solos: Vec<sut::Solo>,
    service: Option<sut::Service>,
}

impl ServiceMix {
    pub fn new(seed: u64, quick: bool) -> ServiceMix {
        ServiceMix {
            seed,
            keys: service_keys(),
            round_jobs: if quick { 120 } else { 1000 },
            rng: SplitMix(seed ^ 0x5eed_5eed_5eed_5eed),
            solos: Vec::new(),
            service: None,
        }
    }

    /// The round's job list, one lane per client.
    fn lanes(&mut self, jobs: usize) -> Vec<Vec<usize>> {
        let counts = key_counts(self.keys.len(), jobs);
        let mut order: Vec<usize> = counts
            .iter()
            .enumerate()
            .flat_map(|(k, &c)| std::iter::repeat_n(k, c))
            .collect();
        self.rng.shuffle(&mut order);
        let mut lanes = vec![Vec::new(); TENANTS.len()];
        for (i, k) in order.into_iter().enumerate() {
            lanes[i % TENANTS.len()].push(k);
        }
        lanes
    }
}

impl Workload for ServiceMix {
    fn name(&self) -> &'static str {
        "service_mix"
    }

    fn set_up(&mut self, tr: &mut Tracer) {
        let seed = self.seed;
        self.service = Some(tr.span("service_start", Cat::Sut, |_| sut::Service::start(seed)));
    }

    fn repetition(&mut self, tr: &mut Tracer) -> Rep {
        if self.solos.is_empty() {
            // The oracle: every key alone on a quiet fabric.
            let (keys, seed) = (&self.keys, self.seed);
            self.solos = tr.span("oracle:solo_runs", Cat::Verify, |_| {
                keys.iter()
                    .map(|k| {
                        sut::solo_run(k, seed)
                            .unwrap_or_else(|e| panic!("solo run of {k:?} failed: {e}"))
                    })
                    .collect()
            });
        }
        let jobs = self.round_jobs;
        let lanes = self.lanes(jobs);
        let service = self.service.as_ref().expect("set_up starts the service");
        let (keys, solos) = (&self.keys, &self.solos);

        let mut rep = Rep {
            attempted: jobs as u64,
            ..Rep::default()
        };
        let started = Instant::now();
        let results: Vec<(Vec<JobObs>, u64, Tracer)> = tr.span("round", Cat::Harness, |tr| {
            std::thread::scope(|s| {
                let clients: Vec<_> = lanes
                    .iter()
                    .enumerate()
                    .map(|(c, lane)| {
                        let mut ctr = tr.fork(c as u32 + 1);
                        s.spawn(move || {
                            let mut obs = Vec::with_capacity(lane.len());
                            let mut failed = 0u64;
                            for &k in lane {
                                let t = Instant::now();
                                let served = ctr.span("submit+wait", Cat::Sut, |_| {
                                    service.submit(TENANTS[c], &keys[k]).and_then(|ticket| service.wait(ticket))
                                });
                                let latency_s = t.elapsed().as_secs_f64();
                                match served {
                                    Ok(j) => {
                                        let solo = &solos[k];
                                        let same = ctr.span("verify:solo_identity", Cat::Verify, |_| {
                                            j.digest == solo.digest && j.messages == solo.messages && j.attempts == 1
                                        });
                                        if !same {
                                            eprintln!(
                                                "service_mix: key {k} digest {:#018x}/{} msgs/{} attempts, solo {:#018x}/{}",
                                                j.digest, j.messages, j.attempts, solo.digest, solo.messages
                                            );
                                            failed += 1;
                                        }
                                        obs.push(JobObs {
                                            leg: 0,
                                            key: k,
                                            latency_s,
                                            messages: j.messages,
                                            phases: None,
                                            epochs_spilled: 0,
                                            queued_s: j.queued_s,
                                            ran_s: j.ran_s,
                                        });
                                    }
                                    Err(e) => {
                                        eprintln!("service_mix: key {k} failed: {e}");
                                        failed += 1;
                                    }
                                }
                            }
                            (obs, failed, ctr)
                        })
                    })
                    .collect();
                clients
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|_| panic!("service client panicked")))
                    .collect()
            })
        });
        rep.wall_s = started.elapsed().as_secs_f64();
        for (obs, failed, ctr) in results {
            rep.messages += obs.iter().map(|j| j.messages).sum::<u64>();
            rep.jobs.extend(obs);
            rep.failed += failed;
            tr.absorb(ctr);
        }
        for lane in &lanes {
            for &k in lane {
                rep.updates += keys[k].updates();
                rep.predicted_messages += solos[k].messages;
            }
        }
        rep
    }

    fn tear_down(&mut self, tr: &mut Tracer) {
        if let Some(service) = self.service.take() {
            tr.span("service_join", Cat::Sut, |_| service.join());
        }
    }

    fn ledger(&self, rep: &Rep, out: &mut Metrics) {
        use crate::stats::median;
        let service = self
            .service
            .as_ref()
            .expect("the ledger is read before tear-down");
        let c = service.counters();
        let lookups = (c.hits + c.misses).max(1) as f64;
        out.put("core.progcache.hit_ratio", c.hits as f64 / lookups, "ratio");
        out.put("core.progcache.evictions", c.evictions as f64, "count");
        let ms = |f: fn(&JobObs) -> f64| median(&rep.jobs.iter().map(f).collect::<Vec<_>>()) * 1e3;
        let (lat, queued, ran) = (ms(|j| j.latency_s), ms(|j| j.queued_s), ms(|j| j.ran_s));
        out.put("hybrid-rt.service.queue_wait_p50_ms", queued, "ms");
        out.put("hybrid-rt.service.run_p50_ms", ran, "ms");
        out.put("hybrid-rt.service.queue_wait_share", queued / lat, "ratio");
        out.put("hybrid-rt.service.run_share", ran / lat, "ratio");
        // What being served adds: over the jobs of the smallest shape
        // (keys 0..6), submit-to-outcome latency against the same key's
        // solo `run_native` time.
        let small: Vec<&JobObs> = rep.jobs.iter().filter(|j| j.key < 6).collect();
        if !small.is_empty() {
            let over = median(
                &small
                    .iter()
                    .map(|j| j.latency_s - self.solos[j.key].wall_s)
                    .collect::<Vec<_>>(),
            );
            let ratio = median(
                &small
                    .iter()
                    .map(|j| j.latency_s / self.solos[j.key].wall_s)
                    .collect::<Vec<_>>(),
            );
            out.put("hybrid-rt.service.overhead_us", over * 1e6, "us");
            out.put("hybrid-rt.service.overhead_ratio", ratio, "ratio");
        }
    }

    /// The service returns no per-job report, so the mix's budget is the
    /// solo runs' phase shares, weighted by how often and how long each
    /// key runs in a round.
    fn phases(&self, _rep: &Rep) -> Option<Phases> {
        let counts = key_counts(self.keys.len(), self.round_jobs);
        let mut acc = [0.0f64; 5];
        let mut weight = 0.0;
        for (solo, &n) in self.solos.iter().zip(&counts) {
            let w = solo.wall_s * n as f64;
            for (a, v) in acc.iter_mut().zip(solo.phases.as_array()) {
                *a += v * w;
            }
            weight += w;
        }
        (weight > 0.0).then(|| Phases::from_array(acc.map(|a| a / weight)))
    }
}

// ---------------------------------------------------------------------
// des_mesh
// ---------------------------------------------------------------------

pub struct DesMesh {
    points: Vec<sut::TimedPoint>,
    model: Option<sut::TimedModel>,
    identity: Vec<Option<sut::SimStats>>,
}

impl DesMesh {
    /// 192³ × 256 grids, one sweep, 1024 cores as a full 256-node mesh
    /// (every rank simulated): the four graphed approaches at batch 8,
    /// Flat original unbatched.
    pub fn new(quick: bool) -> DesMesh {
        let (grids, cores) = if quick { (64, 128) } else { (256, 1024) };
        let points: Vec<_> = [
            Approach::FlatOriginal,
            Approach::FlatOptimized,
            Approach::HybridMultiple,
            Approach::HybridMasterOnly,
        ]
        .into_iter()
        .map(|approach| sut::TimedPoint {
            ext: [192; 3],
            grids,
            sweeps: 1,
            cores,
            approach,
            batch: if approach == Approach::FlatOriginal {
                1
            } else {
                8
            },
            cell: false,
        })
        .collect();
        let identity = vec![None; points.len()];
        DesMesh {
            points,
            model: None,
            identity,
        }
    }
}

impl Workload for DesMesh {
    fn name(&self) -> &'static str {
        "des_mesh"
    }

    fn set_up(&mut self, tr: &mut Tracer) {
        self.model = Some(tr.span("timed_model", Cat::Sut, |_| sut::timed_model()));
    }

    fn repetition(&mut self, tr: &mut Tracer) -> Rep {
        let model = self.model.as_ref().expect("set_up builds the cost model");
        let mut rep = Rep::default();
        for (i, point) in self.points.iter().enumerate() {
            let name = spec::SIM_APPROACHES[i];
            let run = tr.span(&format!("run_timed:{name}"), Cat::Sut, |_| {
                sut::run_timed_point(point, model)
            });
            rep.attempted += 1;
            rep.wall_s += run.wall_s;
            rep.updates += point.updates();
            rep.messages += run.stats.messages;
            rep.predicted_messages += run.stats.messages;
            // The simulation is deterministic: every repetition must
            // reproduce the first one's statistics exactly.
            let same = tr.span(&format!("verify:{name}"), Cat::Verify, |_| {
                *self.identity[i].get_or_insert(run.stats) == run.stats
            });
            if !same {
                eprintln!(
                    "des_mesh: {name} simulated {:?}, first run {:?}",
                    run.stats, self.identity[i]
                );
                rep.failed += 1;
            }
            rep.jobs.push(JobObs {
                leg: i,
                key: 0,
                latency_s: run.wall_s,
                messages: run.stats.messages,
                phases: Some(run.phases),
                epochs_spilled: 0,
                queued_s: 0.0,
                ran_s: run.wall_s,
            });
        }
        rep
    }

    fn tear_down(&mut self, _tr: &mut Tracer) {
        self.model = None;
    }

    fn ledger(&self, rep: &Rep, out: &mut Metrics) {
        let mut events = 0u64;
        for job in &rep.jobs {
            let name = spec::SIM_APPROACHES[job.leg];
            if let Some(stats) = self.identity[job.leg] {
                out.put(
                    format!("sim.{name}.makespan_ps"),
                    stats.makespan_ps as f64,
                    "sim-ps",
                );
                out.put(format!("sim.{name}.events"), stats.events as f64, "count");
                out.put(
                    format!("sim.{name}.messages"),
                    stats.messages as f64,
                    "count",
                );
                events += stats.events;
            }
            out.put(format!("leg.{name}.wall_s"), job.latency_s, "s");
        }
        out.put(
            "sim_mevents_per_s",
            events as f64 / rep.wall_s / 1e6,
            "Mev/s",
        );
    }
}

/// Thread-time-weighted phase shares of a repetition, from the reports
/// the program returned (`None` when no job carried one).
pub fn rep_phases(rep: &Rep) -> Option<Phases> {
    let mut acc = [0.0f64; 5];
    let mut weight = 0.0;
    for job in &rep.jobs {
        if let Some(ph) = job.phases {
            for (a, v) in acc.iter_mut().zip(ph.as_array()) {
                *a += v * job.latency_s;
            }
            weight += job.latency_s;
        }
    }
    (weight > 0.0).then(|| Phases::from_array(acc.map(|a| a / weight)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_is_skewed_complete_and_seed_independent_in_content() {
        let counts = key_counts(48, 1000);
        assert_eq!(counts.iter().sum::<usize>(), 1000);
        assert!(
            counts.iter().all(|&c| c >= 1),
            "every key appears: the cache must evict"
        );
        let (max, min) = (counts.iter().max().unwrap(), counts.iter().min().unwrap());
        assert!(max > &(10 * min), "skewed: {max} vs {min}");
        let mut a = ServiceMix::new(1, false);
        let mut b = ServiceMix::new(2, false);
        let (la, lb) = (a.lanes(1000), b.lanes(1000));
        assert_ne!(la, lb, "the seed orders the mix");
        let flat = |l: Vec<Vec<usize>>| {
            let mut v: Vec<usize> = l.into_iter().flatten().collect();
            v.sort_unstable();
            v
        };
        assert_eq!(
            flat(la),
            flat(lb),
            "but never changes what a round contains"
        );
    }

    #[test]
    fn forty_eight_distinct_keys() {
        let keys = service_keys();
        assert_eq!(keys.len(), 48);
        assert_eq!(keys[0].ext, [12, 10, 8]);
        assert_eq!(keys[47].ext, [48, 48, 48]);
    }

    #[test]
    fn workload_table_and_constructors_agree() {
        for w in &spec::WORKLOADS {
            let built =
                by_name(w.name, 1, true).unwrap_or_else(|| panic!("{} has no constructor", w.name));
            assert_eq!(built.name(), w.name);
        }
        assert!(by_name("nope", 1, true).is_none());
    }
}
