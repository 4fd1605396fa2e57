//! `figures [<name>…] [--trace-out <path>]`: regenerate the paper's
//! tables and figures.
//!
//! Runs each named figure of [`FIGURES`] (all seven when none is named),
//! prints it and writes it to `results/<name>.txt`; run it from the
//! repository root. Each figure ends with its paper anchors.
//! `--trace-out` writes the headline runs as a Chrome trace (open it in
//! Perfetto) and needs `headline` among the figures run.
//!
//! Exit codes: 0 every anchor passes or is at its pinned deviation, 1 an
//! anchor missed, 2 usage or an unwritable file.

use gpaw_bench::figures::{self, FIGURES};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut names: Vec<&str> = Vec::new();
    let mut trace_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match (arg.as_str(), FIGURES.iter().find(|(n, _)| *n == arg)) {
            ("--trace-out", _) => match args.next() {
                Some(path) => trace_out = Some(path),
                None => return usage(),
            },
            (_, Some((name, _))) => names.push(name),
            _ => return usage(),
        }
    }
    if names.is_empty() {
        names = FIGURES.iter().map(|(n, _)| *n).collect();
    }
    if trace_out.is_some() && !names.contains(&"headline") {
        return usage();
    }

    let mut misses = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let sheet = figures::render(name).expect("a known figure");
        if i > 0 {
            println!();
        }
        print!("{}", sheet.text);
        let path = format!("results/{name}.txt");
        if let Err(e) = std::fs::write(&path, &sheet.text) {
            eprintln!("[figures] FAILED to write {path}: {e}");
            return ExitCode::from(2);
        }
        misses.extend(sheet.misses.iter().map(|claim| format!("{name}: {claim}")));
        if let (Some(path), Some(trace)) = (&trace_out, &sheet.trace) {
            if let Err(e) = trace.write(path) {
                eprintln!("[trace] FAILED to write {path}: {e}");
                return ExitCode::from(2);
            }
            println!("[trace] wrote {path} ({} events)", trace.len());
        }
    }
    if !misses.is_empty() {
        eprintln!("\nfigures: {} paper anchors missed:", misses.len());
        for m in &misses {
            eprintln!("  {m}");
        }
        return ExitCode::from(1);
    }
    println!(
        "\nfigures: {} written; every paper anchor holds or sits at its pinned deviation",
        names.join(", ")
    );
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    let names: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
    eprintln!(
        "usage: figures [{}]... [--trace-out <chrome-trace.json>]\n\
         (--trace-out needs headline among the figures run)",
        names.join("|")
    );
    ExitCode::from(2)
}
