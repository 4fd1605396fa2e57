//! The `layers` pass: every layer timed on its own, from outside, at the
//! workloads' shapes, each against a host ceiling measured in the same
//! run (the roofline method of Malas et al.); plus the replay budget that
//! rebuilds a leg's wall clock from its compiled op counts.
//!
//! Every kernel comes from `sut.rs` as a closure with a unit count; this
//! file only decides how often to call it and what to divide by.

use crate::stats::median;
use crate::sut::{self, Approach, Elem, Entry, Kernel, LegSpec};
use crate::trace::{Cat, Tracer};
use crate::workloads::{Metrics, Scratch};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Median seconds per call over `samples` timed calls, after one untimed
/// call that pays first-touch and lazy initialisation.
fn time_calls(k: &mut Kernel, samples: usize) -> f64 {
    k.call();
    time_calls_cold(k, samples)
}

/// [`time_calls`] without the untimed call, for kernels whose every call
/// is as cold as the program's own (a spill creates its file each time).
fn time_calls_cold(k: &mut Kernel, samples: usize) -> f64 {
    let times: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            k.call();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Units per second of a kernel, inside a span named for it.
fn rate(tr: &mut Tracer, span: &str, mut k: Kernel, samples: usize) -> f64 {
    let secs = tr.span(span, Cat::Sut, |_| time_calls(&mut k, samples));
    k.units / secs
}

/// Seconds per call of a kernel, inside a span named for it.
fn secs_per_call(tr: &mut Tracer, span: &str, mut k: Kernel, samples: usize) -> f64 {
    tr.span(span, Cat::Sut, |_| time_calls(&mut k, samples))
}

// ---------------------------------------------------------------------
// Host ceiling
// ---------------------------------------------------------------------

fn read_trimmed(path: &Path) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// Summed size of the distinct last-level caches the online CPUs see,
/// from sysfs; 32 MiB when sysfs has no cache topology.
pub fn llc_bytes() -> u64 {
    let mut seen: Vec<(String, u64)> = Vec::new();
    let cpus = Path::new("/sys/devices/system/cpu");
    let Ok(entries) = std::fs::read_dir(cpus) else {
        return 32 << 20;
    };
    for cpu in entries.flatten() {
        let name = cpu.file_name().to_string_lossy().into_owned();
        if !name.starts_with("cpu")
            || !name[3..].chars().all(|c| c.is_ascii_digit())
            || name.len() == 3
        {
            continue;
        }
        // The highest-level data or unified cache of this CPU.
        let mut best: Option<(u32, String, u64)> = None;
        for idx in 0..8 {
            let dir = cpu.path().join(format!("cache/index{idx}"));
            let (Some(level), Some(kind), Some(size), Some(shared)) = (
                read_trimmed(&dir.join("level")).and_then(|s| s.parse::<u32>().ok()),
                read_trimmed(&dir.join("type")),
                read_trimmed(&dir.join("size")),
                read_trimmed(&dir.join("shared_cpu_list")),
            ) else {
                continue;
            };
            if kind == "Instruction" {
                continue;
            }
            let bytes = match size.strip_suffix('K') {
                Some(kb) => kb.parse::<u64>().unwrap_or(0) << 10,
                None => match size.strip_suffix('M') {
                    Some(mb) => mb.parse::<u64>().unwrap_or(0) << 20,
                    None => size.parse().unwrap_or(0),
                },
            };
            if best.as_ref().is_none_or(|b| level > b.0) {
                best = Some((level, shared, bytes));
            }
        }
        if let Some((level, shared, bytes)) = best {
            let key = format!("L{level}:{shared}");
            if !seen.iter().any(|(k, _)| *k == key) {
                seen.push((key, bytes));
            }
        }
    }
    let total: u64 = seen.iter().map(|(_, b)| b).sum();
    if total == 0 {
        32 << 20
    } else {
        total
    }
}

fn ram_bytes() -> u64 {
    let text = std::fs::read_to_string("/proc/meminfo").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("MemTotal:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(8 << 30, |kb| kb << 10)
}

/// Most the three ceiling arrays may touch together. On the 2-core
/// sandbox VM the first touch of guest memory beyond about a gigabyte
/// costs 3–4 s per GB (the host backs it lazily), which a traced run
/// cannot afford; under this cap it costs about a second.
const CEILING_FOOTPRINT_CAP: u64 = 1 << 30;

/// Copy (`a = b`) and triad (`a = b + s·c`) bandwidth over arrays four
/// times the summed last-level caches, capped at RAM/8 and at a third of
/// [`CEILING_FOOTPRINT_CAP`]. Both sizes are reported: where the cap
/// bites (a VM that reports its host's whole shared L3), compare
/// `host.array_bytes` with `host.llc_bytes` before trusting the ceiling.
fn host_ceiling(tr: &mut Tracer, out: &mut Metrics, quick: bool) {
    let llc = llc_bytes();
    // `--quick` is a smoke run: cache-sized arrays, no ceiling claimed.
    let array_bytes = if quick {
        64 << 20
    } else {
        (4 * llc)
            .min(ram_bytes() / 8)
            .min(CEILING_FOOTPRINT_CAP / 3)
    };
    let n = (array_bytes / 8) as usize;
    tr.span("host_ceiling", Cat::Harness, |_| {
        let mut a = vec![0.0f64; n];
        let b = vec![1.25f64; n];
        let c = vec![2.5f64; n];
        // One untimed pass touches every page of `a`.
        a.copy_from_slice(&b);
        let passes = 3;
        let copy: Vec<f64> = (0..passes)
            .map(|_| {
                let t = Instant::now();
                a.copy_from_slice(black_box(&b));
                black_box(&mut a);
                t.elapsed().as_secs_f64()
            })
            .collect();
        let s = black_box(3.0f64);
        let triad: Vec<f64> = (0..passes)
            .map(|_| {
                let t = Instant::now();
                for ((x, y), z) in a.iter_mut().zip(black_box(&b)).zip(black_box(&c)) {
                    *x = y + s * z;
                }
                black_box(&mut a);
                t.elapsed().as_secs_f64()
            })
            .collect();
        let bytes = (n * 8) as f64;
        out.put("host.copy_gbs", 2.0 * bytes / median(&copy) / 1e9, "GB/s");
        out.put("host.triad_gbs", 3.0 * bytes / median(&triad) / 1e9, "GB/s");
    });
    out.put("host.llc_bytes", llc as f64, "B");
    out.put("host.array_bytes", (n * 8) as f64, "B");
}

// ---------------------------------------------------------------------
// The pass
// ---------------------------------------------------------------------

const SNAP_EXT: [usize; 3] = [96; 3];
const SNAP_GRIDS: usize = 8;

fn hm_f64_spec() -> LegSpec {
    LegSpec {
        name: "hm_f64",
        approach: Approach::HybridMultiple,
        elem: Elem::F64,
        ext: [144; 3],
        grids: 4,
        nodes: 1,
        threads: 2,
        batch: 4,
        sweeps: 24,
        entry: Entry::Bare,
    }
}

/// Run the whole pass, one metric (or a few) per layer.
pub fn run(tr: &mut Tracer, out: &mut Metrics, quick: bool) {
    tr.span("layers", Cat::Harness, |tr| {
        host_ceiling(tr, out, quick);
        stencil(tr, out);
        halo_and_fill(tr, out);
        fabric_and_integrity(tr, out);
        checkpoint_and_durable(tr, out);
        programs(tr, out);
        timed_plane(tr, out);
        other_consumers(tr, out);
        strategy_matrix(tr, out);
    });
}

fn stencil(tr: &mut Tracer, out: &mut Metrics) {
    let mlups = |tr: &mut Tracer, name: &str, k: Kernel, samples: usize| -> f64 {
        rate(tr, &format!("stencil:{name}"), k, samples) / 1e6
    };
    let shapes: [(&str, Kernel, usize); 6] = [
        ("f64_48", sut::k_stencil(Elem::F64, [48; 3]), 15),
        ("f64_144", sut::k_stencil(Elem::F64, [144; 3]), 7),
        ("f64_192", sut::k_stencil(Elem::F64, [192; 3]), 5),
        ("c64_96", sut::k_stencil(Elem::C64, [96; 3]), 7),
        ("slab4_f64_144", sut::k_stencil_slab4([144; 3]), 7),
        ("region_f64_144", sut::k_stencil_region([144; 3]), 7),
    ];
    let mut f64_192 = 0.0;
    for (name, k, samples) in shapes {
        let v = mlups(tr, name, k, samples);
        if name == "f64_192" {
            f64_192 = v;
        }
        out.put(format!("grid.stencil.{name}.mlups"), v, "Mlup/s");
    }
    // 16 B per point — one read, one write of an f64 — is the least the
    // kernel can move; computed from array sizes, not measured traffic.
    let computed_gbs = f64_192 * 1e6 * 16.0 / 1e9;
    out.put("grid.stencil.f64_192.computed_gbs", computed_gbs, "GB/s");
    if let Some(triad) = out.get("host.triad_gbs") {
        out.put("grid.stencil.roofline_ratio", computed_gbs / triad, "ratio");
    }
}

fn halo_and_fill(tr: &mut Tracer, out: &mut Metrics) {
    let gbs =
        |tr: &mut Tracer, name: &str, k: Kernel| rate(tr, &format!("halo:{name}"), k, 9) / 1e9;
    let (n, batch) = (SNAP_EXT, 8);
    let ops: [(&str, Kernel); 5] = [
        ("pack_x", sut::k_halo_pack(n, batch, 0, 2)),
        ("pack_z", sut::k_halo_pack(n, batch, 2, 2)),
        ("unpack_x", sut::k_halo_unpack(n, batch, 0, 2)),
        ("unpack_z", sut::k_halo_unpack(n, batch, 2, 2)),
        ("pack_z_d4", sut::k_halo_pack(n, batch, 2, 4)),
    ];
    for (name, k) in ops {
        let v = gbs(tr, name, k);
        out.put(format!("grid.halo.{name}.gbs"), v, "GB/s");
    }
    let fill = rate(tr, "fill:f64_96", sut::k_fill(SNAP_EXT, 2), 5);
    out.put("grid.fill.mpts_per_s", fill / 1e6, "Mpt/s");
}

fn fabric_and_integrity(tr: &mut Tracer, out: &mut Metrics) {
    let small = rate(tr, "fabric:small", sut::k_fabric_same_thread(64, 20_000), 5);
    out.put("hybrid-rt.fabric.small_ns_per_msg", 1e9 / small, "ns");
    let pingpong = rate(tr, "fabric:pingpong", sut::k_fabric_pingpong(64, 1_500), 3);
    out.put("hybrid-rt.fabric.pingpong_ns", 1e9 / pingpong, "ns");
    let contended = rate(
        tr,
        "fabric:contended",
        sut::k_fabric_contended(64, 5_000),
        3,
    );
    out.put(
        "hybrid-rt.fabric.contended_ns_per_msg",
        1e9 / contended,
        "ns",
    );
    let elems = 256 * 1024;
    let large = rate(tr, "fabric:large", sut::k_fabric_same_thread(elems, 8), 5);
    out.put(
        "hybrid-rt.fabric.large_gbs",
        large * (elems * 8) as f64 / 1e9,
        "GB/s",
    );
    let digest = rate(
        tr,
        "integrity:payload_digest",
        sut::k_payload_digest(elems),
        9,
    );
    out.put("core.integrity.payload_digest_gbs", digest / 1e9, "GB/s");
    let fnv = rate(tr, "integrity:fnv", sut::k_fnv(SNAP_EXT, SNAP_GRIDS), 5);
    out.put("core.integrity.fnv_gbs", fnv / 1e9, "GB/s");
    let crc = rate(tr, "integrity:crc32", sut::k_crc32(4 << 20), 3);
    out.put("core.integrity.crc32_gbs", crc / 1e9, "GB/s");
}

fn checkpoint_and_durable(tr: &mut Tracer, out: &mut Metrics) {
    let deposit = sut::k_checkpoint_deposit(SNAP_EXT, SNAP_GRIDS);
    let bytes = deposit.units;
    let deposit_s = secs_per_call(tr, "checkpoint:deposit", deposit, 5);
    out.put("core.checkpoint.deposit_ms", deposit_s * 1e3, "ms");
    out.put(
        "core.checkpoint.deposit_gbs",
        bytes / deposit_s / 1e9,
        "GB/s",
    );
    let restore_s = secs_per_call(
        tr,
        "checkpoint:restore",
        sut::k_checkpoint_restore(SNAP_EXT, SNAP_GRIDS),
        5,
    );
    out.put("core.checkpoint.restore_ms", restore_s * 1e3, "ms");
    // Spill writes beside recover reads: the same directory, the same
    // epoch files.
    let scratch = Scratch::new("layers-durable");
    let mut spill = sut::k_durable_spill(scratch.path(), SNAP_EXT, SNAP_GRIDS);
    let spill_s = tr.span("durable:spill", Cat::Sut, |_| {
        time_calls_cold(&mut spill, 2)
    });
    out.put(
        "core.durable.spill_mbs",
        spill.units / spill_s / 1e6,
        "MB/s",
    );
    let mut recover = sut::k_durable_recover(scratch.path(), SNAP_EXT, SNAP_GRIDS);
    let recover_s = tr.span("durable:recover", Cat::Sut, |_| {
        time_calls_cold(&mut recover, 1)
    });
    out.put(
        "core.durable.recover_mbs",
        recover.units / recover_s / 1e6,
        "MB/s",
    );
}

/// A kernel that repeats `inner` `n` times a call, for calls too short to
/// time singly.
fn repeated(mut inner: Kernel, n: usize) -> Kernel {
    let units = inner.units * n as f64;
    Kernel::new(units, move || {
        for _ in 0..n {
            inner.call();
        }
    })
}

fn programs(tr: &mut Tracer, out: &mut Metrics) {
    // The largest compile among the workloads: `b1`'s 1024 one-grid
    // batches on two ranks. Cache lookups use `hm_f64`'s small programs.
    let b1 = LegSpec {
        name: "b1",
        ext: [8; 3],
        grids: 1024,
        nodes: 2,
        threads: 1,
        batch: 1,
        ..hm_f64_spec()
    };
    let compile = rate(tr, "program:compile", repeated(sut::k_compile(&b1), 10), 5);
    out.put("core.program.compile_us", 1e6 / compile, "us");
    let spec = hm_f64_spec();
    let hit = rate(
        tr,
        "progcache:hit",
        repeated(sut::k_progcache_hit(&spec), 20_000),
        5,
    );
    out.put("core.progcache.hit_ns", 1e9 / hit, "ns");
    let miss = rate(
        tr,
        "progcache:miss",
        repeated(sut::k_progcache_miss(&spec), 200),
        5,
    );
    out.put("core.progcache.miss_us", 1e6 / miss, "us");
}

fn timed_plane(tr: &mut Tracer, out: &mut Metrics) {
    let queue = rate(tr, "des:queue", sut::k_des_queue(400_000), 5);
    out.put("des.queue.mevents_per_s", queue / 1e6, "Mev/s");
    let model = sut::timed_model();
    let mut point = sut::TimedPoint {
        ext: [192; 3],
        grids: 256,
        sweeps: 1,
        cores: 16_384,
        approach: Approach::HybridMultiple,
        batch: 8,
        cell: true,
    };
    let cell: Vec<f64> = (0..3)
        .map(|_| {
            tr.span("run_timed:cell_16384c", Cat::Sut, |_| {
                sut::run_timed_point(&point, &model).wall_s
            })
        })
        .collect();
    out.put("core.timed.cell_16384c_ms", median(&cell) * 1e3, "ms");
    // The full-mesh interpreter at the des_mesh shape, on its cheapest
    // event-dense approach.
    (point.cores, point.approach, point.cell) = (1024, Approach::HybridMasterOnly, false);
    let full: Vec<f64> = (0..3)
        .map(|_| {
            tr.span("run_timed:full_1024c", Cat::Sut, |_| {
                let run = sut::run_timed_point(&point, &model);
                run.stats.events as f64 / run.wall_s
            })
        })
        .collect();
    out.put(
        "core.timed.full_1024c.mevents_per_s",
        median(&full) / 1e6,
        "Mev/s",
    );
}

/// Other consumers of the kernel: a kernel change must not slow them.
fn other_consumers(tr: &mut Tracer, out: &mut Metrics) {
    let functional = secs_per_call(tr, "run_distributed", sut::k_functional([48; 3], 8, 2), 3);
    out.put("core.exec.functional_s", functional, "s");
    let (secs, iters) = tr.span("poisson_solve", Cat::Sut, |_| sut::poisson_solve(16));
    out.put("gpaw-mini.poisson.solve_s", secs, "s");
    out.put("gpaw-mini.poisson.iters", iters as f64, "count");
}

/// All six approaches on one small equal-core job (one node: the flat
/// approaches as 4 ranks × 1 thread, the hybrid ones as 1 rank × 4
/// threads). Four threads on two cores time the scheduler as much as the
/// schedule, which is why the flat approaches appear only here.
fn strategy_matrix(tr: &mut Tracer, out: &mut Metrics) {
    let mut reference = None;
    for approach in Approach::ALL {
        let spec = LegSpec {
            name: "matrix",
            approach,
            elem: Elem::F64,
            ext: [48; 3],
            grids: 8,
            nodes: 1,
            threads: 4,
            batch: 4,
            sweeps: 2,
            entry: Entry::Bare,
        };
        let p = sut::prepare_leg(&spec, 42);
        let label = format!("run_leg:matrix:{}", approach.slug());
        let mut walls = Vec::new();
        for _ in 0..3 {
            let run = tr
                .span(&label, Cat::Sut, |_| sut::run_leg(&p, Path::new("")))
                .unwrap_or_else(|e| panic!("{label} failed: {e}"));
            // One job, six schedules: they share the reference.
            let err = tr.span("verify:matrix", Cat::Verify, |_| {
                sut::error_vs_reference(
                    &p,
                    &run,
                    reference.get_or_insert_with(|| sut::reference(&p)),
                )
            });
            assert!(err == 0.0, "{label} differs from the reference by {err:e}");
            assert_eq!(run.messages, p.predicted_messages, "{label} traffic");
            walls.push(run.wall_s);
        }
        out.put(
            format!("hybrid-rt.matrix.{}.wall_ms", approach.slug()),
            median(&walls) * 1e3,
            "ms",
        );
    }
}

// ---------------------------------------------------------------------
// Replay budget
// ---------------------------------------------------------------------

/// Rebuild a leg's wall clock from its compiled op counts times each
/// layer's measured unit time at the leg's own shapes — the paper-style
/// budget, from outside. The fill is serial per rank (each rank thread
/// fills its grids before its worker threads start); stencil, halo and
/// fabric work is spread over the leg's threads. What the shares leave
/// unexplained is thread spawn, allocation beyond the fill, barriers and
/// blocked waits.
pub fn replay(tr: &mut Tracer, p: &sut::PreparedLeg, wall_s: f64, out: &mut Metrics) {
    let (spec, ops) = (&p.spec, &p.ops);
    let leg = spec.name;
    let threads = ops.threads as f64;
    tr.span(&format!("replay:{leg}"), Cat::Harness, |tr| {
        let stencil_rate = rate(
            tr,
            "replay:stencil",
            sut::k_stencil(spec.elem, ops.sub_ext),
            7,
        );
        let stencil_s = ops.stencil_points / stencil_rate / threads;

        // One SendFace packs (and one WaitAll unpacks) the six faces of a
        // batch; a thread's batch is the leg's batch, capped by its grids.
        let per_thread_grids = spec.grids.div_ceil(spec.threads);
        let batch = spec.batch.min(per_thread_grids);
        let mut pack6 = 0.0;
        let mut unpack6 = 0.0;
        for axis in 0..3 {
            pack6 += 2.0
                * secs_per_call(
                    tr,
                    "replay:pack",
                    sut::k_halo_pack(ops.sub_ext, batch, axis, 2),
                    9,
                );
            unpack6 += 2.0
                * secs_per_call(
                    tr,
                    "replay:unpack",
                    sut::k_halo_unpack(ops.sub_ext, batch, axis, 2),
                    9,
                );
        }
        let halo_s = (ops.send_ops * pack6 + ops.wait_ops * unpack6) / threads;

        let elems = (ops.bytes / ops.messages.max(1) / 8) as usize;
        let per_call = (2_000_000 / elems.max(1)).clamp(4, 20_000);
        let msg_rate = rate(
            tr,
            "replay:fabric",
            sut::k_fabric_same_thread(elems, per_call),
            5,
        );
        let fabric_s = ops.messages as f64 / msg_rate / threads;

        // Each rank fills its own grids, one after the other, while the
        // other ranks do the same.
        let fill_rate = rate(tr, "replay:fill", sut::k_fill(ops.sub_ext, 2), 5);
        let points: f64 = ops.sub_ext.iter().product::<usize>() as f64;
        let fill_s = spec.grids as f64 * points / fill_rate;

        for (part, secs) in [
            ("stencil", stencil_s),
            ("halo", halo_s),
            ("fabric", fabric_s),
            ("fill", fill_s),
        ] {
            out.put(format!("replay.{leg}.{part}_share"), secs / wall_s, "ratio");
            out.put(format!("replay.{leg}.{part}_s"), secs, "s");
        }
        out.put(
            format!("replay.{leg}.coverage_ratio"),
            (stencil_s + halo_s + fabric_s + fill_s) / wall_s,
            "ratio",
        );
    });
}
