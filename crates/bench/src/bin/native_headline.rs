//! The paper's strategy ranking on real OS threads.
//!
//! Runs the four programming approaches of §V–§VI natively — real
//! `std::thread` workers over the in-process rank fabric of
//! `gpaw-hybrid-rt` — on an equal-core single-node job: the flat
//! approaches drive 4 virtual-node ranks of one thread each, the hybrid
//! approaches one SMP rank of `--threads` threads. Every run is validated
//! bitwise against the sequential reference before its time is believed,
//! and each approach reports the best of `--repeats` runs (wall clock on a
//! shared machine is noisy; the minimum is the schedule's intrinsic cost).
//!
//! The point is not to reproduce the paper's absolute numbers — that is
//! the timed plane's job — but to show the *ordering* survives contact
//! with a real memory system: Hybrid multiple must not lose to Flat
//! original at 4 threads, for the same reason as on the Blue Gene/P
//! (fewer, larger messages and one synchronization per sweep instead of a
//! blocking exchange per dimension).
//!
//! Usage: `native_headline [--threads N] [--repeats N] [--quick]
//!                         [--approach <name>] [--trace-out <chrome-trace.json>]
//!                         [--checkpoint-dir <dir>] [--spill-every N] [--restore]`
//!
//! `--approach` narrows the suite to one approach — any of the compiler's
//! five, including `flat-static` (§VII), which has no native code of its
//! own: the shared interpreter simply executes its compiled programs.
//!
//! `--checkpoint-dir` makes each run *durable*: consistent epochs spill
//! into `<dir>/<approach-slug>` as they complete, and `--restore` resumes
//! each approach from its newest durable epoch first (forcing
//! `--repeats 1`, since a restored repeat would have nothing left to do).
//! A missing or garbled checkpoint directory is a typed error and exit
//! code 3 — never a panic.

use gpaw_bench::{emit_report, mb, secs, Table};
use gpaw_des::SpanKind;
use gpaw_fd::config::Approach;
use gpaw_fd::exec::{max_error_vs_reference_planned, sequential_reference};
use gpaw_fd::{ChromeTrace, ExperimentReport};
use gpaw_grid::stencil::StencilCoeffs;
use gpaw_hybrid_rt::{execute, DurabilityConfig, NativeJob, NativeRun, RetryPolicy, RunPolicy};
use std::path::PathBuf;

fn main() {
    let mut threads = 4usize;
    let mut repeats = 3usize;
    let mut quick = false;
    let mut approach: Option<Approach> = None;
    let mut trace_out: Option<String> = None;
    let mut checkpoint_dir: Option<PathBuf> = None;
    let mut spill_every = 1usize;
    let mut restore = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" if i + 1 < args.len() => {
                threads = args[i + 1].parse().expect("--threads takes a number");
                i += 2;
            }
            "--repeats" if i + 1 < args.len() => {
                repeats = args[i + 1].parse().expect("--repeats takes a number");
                i += 2;
            }
            "--quick" => {
                quick = true;
                i += 1;
            }
            "--approach" if i + 1 < args.len() => {
                approach = Some(Approach::parse(&args[i + 1]).unwrap_or_else(|| {
                    eprintln!(
                        "unknown approach {:?}; expected one of: {}",
                        args[i + 1],
                        Approach::ALL.map(Approach::slug).join(", ")
                    );
                    std::process::exit(2);
                }));
                i += 2;
            }
            "--trace-out" if i + 1 < args.len() => {
                trace_out = Some(args[i + 1].clone());
                i += 2;
            }
            "--checkpoint-dir" if i + 1 < args.len() => {
                checkpoint_dir = Some(PathBuf::from(&args[i + 1]));
                i += 2;
            }
            "--spill-every" if i + 1 < args.len() => {
                spill_every = args[i + 1].parse().expect("--spill-every takes a number");
                i += 2;
            }
            "--restore" => {
                restore = true;
                i += 1;
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: native_headline [--threads N] [--repeats N] [--quick] \
                     [--approach <name>] [--trace-out <path>] \
                     [--checkpoint-dir <dir>] [--spill-every N] [--restore]"
                );
                std::process::exit(2);
            }
        }
    }
    assert!(repeats >= 1, "--repeats must be at least 1");
    if restore && checkpoint_dir.is_none() {
        eprintln!("--restore needs --checkpoint-dir");
        std::process::exit(2);
    }
    if checkpoint_dir.is_some() && repeats != 1 {
        // A second repeat of a durable run would restore a finished
        // checkpoint and measure nothing; one timed pass is the contract.
        println!("[durable] --checkpoint-dir set: forcing --repeats 1\n");
        repeats = 1;
    }
    let suite: Vec<Approach> = match approach {
        Some(a) => vec![a],
        None => Approach::GRAPHED.to_vec(),
    };

    // Compute-heavy enough that the schedule differences (message count,
    // exchange ordering, barriers) are measured against real stencil work;
    // --quick shrinks it for CI smoke runs.
    let job = if quick {
        NativeJob::new([48, 48, 48], 6, 1)
    } else {
        NativeJob::new([96, 96, 96], 8, 1)
    }
    .with_threads(threads)
    .with_sweeps(2);

    println!(
        "Native headline: {} grids of {}^3, {} sweeps, one node \
         (flat: 4 ranks x 1 thread, hybrid: 1 rank x {} threads), best of {}\n",
        job.n_grids, job.grid_ext[0], job.sweeps, threads, repeats
    );

    let coef = StencilCoeffs::laplacian(job.spacing);
    let reference = sequential_reference::<f64>(
        job.grid_ext,
        job.n_grids,
        job.seed,
        &coef,
        job.bc,
        job.sweeps,
    );

    let mut json = ExperimentReport::new("native_headline");
    let mut results: Vec<(String, NativeRun<f64>)> = Vec::new();
    for &a in &suite {
        let cfg = job.config(a);
        let mut best: Option<NativeRun<f64>> = None;
        for _ in 0..repeats {
            let policy = match &checkpoint_dir {
                // Durable pass: spill while running; --restore resumes
                // this approach from its newest durable epoch first.
                Some(dir) => RunPolicy {
                    durable: Some(
                        DurabilityConfig::new(dir.join(a.slug()))
                            .with_spill_every(spill_every)
                            .with_restore(restore),
                    ),
                    ..RunPolicy::supervised(RetryPolicy::default())
                },
                None => RunPolicy::bare(),
            };
            // One shared exit taxonomy: Durable → 3, Integrity → 4, other
            // failures → 1.
            let sup = execute::<f64>(&job, a, &policy).unwrap_or_else(|e| {
                eprintln!("{}: {e}", a.label());
                std::process::exit(e.exit_code());
            });
            if sup.durable.resumed_from > 0 {
                let epoch = sup.durable.resumed_from;
                println!("[durable] {}: resumed from epoch {epoch}", a.label());
            }
            for note in &sup.durable.degraded {
                println!("[durable] {}: degraded: {note}", a.label());
            }
            let run = sup.run;
            let err =
                max_error_vs_reference_planned(&run.sets, &run.map, job.grid_ext, &reference, &cfg);
            assert_eq!(
                err,
                0.0,
                "{}: native result diverged from the sequential reference",
                a.label()
            );
            if best
                .as_ref()
                .is_none_or(|b| run.report.makespan < b.report.makespan)
            {
                best = Some(run);
            }
        }
        let best = best.expect("at least one repeat ran");
        json.push(
            format!("native/{threads}/{}", a.label()),
            a.label(),
            best.report.threads,
            job.batch,
            best.report.clone(),
        );
        results.push((a.label().to_string(), best));
    }

    let mut t = Table::new(vec![
        "approach",
        "ranks x threads",
        "time",
        if approach.is_none() {
            "vs Flat original"
        } else {
            "vs first"
        },
        "messages",
        "comm/node (MB)",
        "compute/comm/barrier/idle",
    ]);
    let original_secs = results[0].1.report.seconds();
    for (name, run) in &results {
        let r = &run.report;
        let slots = r.threads / run.map.ranks();
        t.row(vec![
            name.clone(),
            format!("{} x {}", run.map.ranks(), slots),
            secs(r.seconds()),
            format!("{:.2}x", original_secs / r.seconds()),
            r.messages.to_string(),
            mb(r.bytes_per_node),
            format!(
                "{:.0}/{:.0}/{:.1}/{:.0}%",
                (r.span_fraction(SpanKind::Compute)
                    + r.span_fraction(SpanKind::HaloPack)
                    + r.span_fraction(SpanKind::HaloUnpack))
                    * 100.0,
                (r.span_fraction(SpanKind::Post)
                    + r.span_fraction(SpanKind::Wait)
                    + r.span_fraction(SpanKind::LibLock))
                    * 100.0,
                (r.span_fraction(SpanKind::ThreadBarrier) + r.span_fraction(SpanKind::Collective))
                    * 100.0,
                r.idle_fraction_from_spans() * 100.0
            ),
        ]);
    }
    t.print();

    // The headline scalar needs both ends of the comparison; a narrowed
    // --approach run reports its table without it.
    let hybrid_secs = results
        .iter()
        .find(|(n, _)| n == "Hybrid multiple")
        .map(|(_, run)| run.report.seconds());
    let flat_ran = results.iter().any(|(n, _)| n == "Flat original");
    if let (Some(hybrid_secs), true) = (hybrid_secs, flat_ran) {
        let speedup = original_secs / hybrid_secs;
        println!(
            "\nHybrid multiple vs Flat original (native, {} threads): {:.2}x",
            threads, speedup
        );
        json.scalar("speedup_hybrid_vs_flat_original", speedup);
    }
    println!(
        "All {} strategies verified bitwise against the sequential reference.",
        results.len()
    );
    json.scalar("threads", threads as f64);
    emit_report(&json);

    if let Some(path) = trace_out {
        // Native runs keep the raw timelines, so the export is exact: the
        // real interleaving of compute, comm, and barriers per thread.
        let mut tr = ChromeTrace::new();
        let mut pid_base = 0;
        for (name, run) in &results {
            tr.add_run_spans(pid_base, &run.timelines);
            // Re-name the processes with the strategy so the four runs are
            // distinguishable side by side (the later metadata wins).
            for r in 0..run.map.ranks() {
                tr.name_process(pid_base + r, &format!("{name} rank {r}"));
            }
            pid_base += run.map.ranks();
        }
        match tr.write(&path) {
            Ok(()) => println!("[trace] wrote {path} ({} events)", tr.len()),
            Err(e) => {
                eprintln!("[trace] FAILED to write {path}: {e}");
                std::process::exit(2);
            }
        }
    }
}
