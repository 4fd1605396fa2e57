//! One benchmark for the whole stack: five workloads, eight end-to-end
//! metrics, a per-layer ledger and a traced run. See `README.md`.
//!
//! ```text
//! benchmark run --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--quick]
//! benchmark run --all             [--seed N] [--seconds S] [--trace]       [--quick] [--record FILE]
//! benchmark check [--runs N]      [--seed N] [--seconds S]                 [--quick]
//! benchmark manifest
//! ```
//!
//! `run --workload` measures one workload in this process and ends its
//! standard output with one JSON result line. `run --all` re-executes
//! itself once per workload (a fresh process each, so peak RSS and
//! allocator state are per workload) and prints every metric by name.
//! `check` runs two full sets and holds their medians to the bounds.

mod harness;
mod layers;
mod spec;
mod stats;
mod sut;
mod trace;
mod workloads;

use harness::RunOptions;
use std::process::{Command, ExitCode, Stdio};
use sut::Json;
use workloads::Metric;

const USAGE: &str = "usage:
  benchmark run --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--quick]
  benchmark run --all [--seed N] [--seconds S] [--trace] [--quick] [--record FILE]
  benchmark check [--runs N] [--seed N] [--seconds S] [--quick]
  benchmark manifest";

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    runs: usize,
    record: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        all: false,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        runs: 1,
        record: None,
    };
    let mut i = 0;
    let value = |i: usize| {
        args.get(i + 1)
            .ok_or_else(|| format!("{} takes a value", args[i]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                a.workload = Some(value(i)?.clone());
                i += 1;
            }
            "--record" => {
                a.record = Some(value(i)?.clone());
                i += 1;
            }
            "--seed" => {
                a.seed = value(i)?.parse().map_err(|e| format!("--seed: {e}"))?;
                i += 1;
            }
            "--seconds" => {
                a.seconds = value(i)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(format!("--seconds {} is out of range", a.seconds));
                }
                i += 1;
            }
            "--runs" => {
                a.runs = value(i)?.parse().map_err(|e| format!("--runs: {e}"))?;
                if a.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
                i += 1;
            }
            // `--trace 0|1` (the driver's form) or a bare `--trace`.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    a.trace = false;
                    i += 1;
                }
                Some("1") => {
                    a.trace = true;
                    i += 1;
                }
                _ => a.trace = true,
            },
            "--all" => a.all = true,
            "--quick" => a.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    // A smoke run measures briefly unless told otherwise.
    if a.quick && !args.iter().any(|arg| arg == "--seconds") {
        a.seconds = 2.0;
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let args = match parse_args(rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match command.as_str() {
        "run" if args.all => run_all(&args),
        "run" => run_one(&args),
        "check" => check(&args),
        "manifest" => {
            print!("{}", spec::manifest_text());
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn print_metric(m: &Metric) {
    println!("{:<46} {:>18} {}", m.name, format_value(m.value), m.unit);
}

/// Six significant digits for reading; the result line keeps them all.
fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 1e5 {
        format!("{v:.1}")
    } else {
        let digits = (5 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
        format!("{v:.digits$}")
    }
}

/// Measure one workload in this process.
fn run_one(args: &Args) -> Result<bool, String> {
    let workload = args
        .workload
        .clone()
        .ok_or("run needs --workload <name> or --all")?;
    let opts = RunOptions {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick,
    };
    let outcome = harness::run(&opts)?;
    println!(
        "# {} seed {} {} ({} host threads){}",
        opts.workload,
        opts.seed,
        if opts.trace {
            "traced run".into()
        } else {
            format!("{} s", opts.seconds)
        },
        std::thread::available_parallelism().map_or(0, usize::from),
        if opts.quick {
            " QUICK: shrunken, not comparable"
        } else {
            ""
        },
    );
    outcome.declared.iter().for_each(print_metric);
    if !outcome.extras.is_empty() {
        println!("# measured, not declared in BENCHMARK.json:");
        outcome.extras.iter().for_each(print_metric);
    }
    println!(
        "# operations attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
    println!("{}", outcome.result_json().render());
    Ok(outcome.correct())
}

/// What a child run reported on its result line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

fn parse_result_line(stdout: &str) -> Result<ChildResult, String> {
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    let json = Json::parse(line).map_err(|e| format!("child result line: {e}"))?;
    let num = |key: &str| {
        json.get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("result line lacks {key}"))
    };
    let Some(Json::Obj(members)) = json.get("metrics") else {
        return Err("result line lacks metrics".into());
    };
    let metrics = members
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("{name} lacks a value"))?;
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .ok_or(format!("{name} lacks a unit"))?;
            Ok((name.clone(), value, unit.to_string()))
        })
        .collect::<Result<_, String>>()?;
    Ok(ChildResult {
        correct: json.get("correct") == Some(&Json::Bool(true)),
        attempted: num("attempted")? as u64,
        failed: num("failed")? as u64,
        metrics,
    })
}

/// Re-execute this binary for one workload and parse its result line.
/// `echo` passes the child's metric lines through.
fn spawn_child(
    args: &Args,
    workload: &str,
    seed: u64,
    trace: bool,
    echo: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if echo {
        let lines: Vec<&str> = stdout.lines().collect();
        for line in &lines[..lines.len().saturating_sub(1)] {
            println!("{line}");
        }
    }
    let result = parse_result_line(&stdout)
        .map_err(|e| format!("{workload} child ({}): {e}", out.status))?;
    if !out.status.success() && result.correct {
        return Err(format!("{workload} child exited with {}", out.status));
    }
    Ok(result)
}

/// Every workload, each in a fresh child process; with `--trace`, the
/// traced run of each as well.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    let mut rows: Vec<(&str, ChildResult)> = Vec::new();
    let mut record = Vec::new();
    for w in &spec::WORKLOADS {
        let untraced = spawn_child(args, w.name, args.seed, false, true)?;
        all_correct &= untraced.correct;
        let mut entry = vec![
            ("name".to_string(), Json::Str(w.name.into())),
            (
                "attempted".to_string(),
                Json::Num(untraced.attempted as f64),
            ),
            ("failed".to_string(), Json::Num(untraced.failed as f64)),
            ("end_to_end".to_string(), metrics_json(&untraced)),
        ];
        if args.trace {
            let traced = spawn_child(args, w.name, args.seed, true, true)?;
            all_correct &= traced.correct;
            entry.push(("per_layer".to_string(), metrics_json(&traced)));
        }
        println!();
        record.push(Json::Obj(entry));
        rows.push((w.name, untraced));
    }
    if let Some(path) = &args.record {
        let doc = Json::Obj(vec![
            ("host".to_string(), host_json()),
            ("seed".to_string(), Json::Num(args.seed as f64)),
            ("run_seconds".to_string(), Json::Num(args.seconds)),
            ("quick".to_string(), Json::Bool(args.quick)),
            ("workloads".to_string(), Json::Arr(record)),
        ]);
        std::fs::write(path, spec::pretty(&doc, 0) + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("[record] wrote {path}");
    }
    println!("# end-to-end, seed {}:", args.seed);
    print!("{:<22}", "metric [unit]");
    for (name, _) in &rows {
        print!(" {name:>15}");
    }
    println!();
    for m in &spec::END_TO_END {
        print!("{:<22}", format!("{} [{}]", m.name, m.unit));
        for (_, r) in &rows {
            let v = r
                .metrics
                .iter()
                .find(|(n, _, _)| n == m.name)
                .map_or(f64::NAN, |x| x.1);
            print!(" {:>15}", format_value(v));
        }
        println!();
    }
    print!("{:<22}", "attempted/failed");
    for (_, r) in &rows {
        print!(" {:>15}", format!("{}/{}", r.attempted, r.failed));
    }
    println!();
    if !all_correct {
        eprintln!("FAILED: at least one operation failed verification");
    }
    Ok(all_correct)
}

fn metrics_json(r: &ChildResult) -> Json {
    let members = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let m = vec![
                ("value".to_string(), Json::Num(*value)),
                ("unit".to_string(), Json::Str(unit.clone())),
            ];
            (name.clone(), Json::Obj(m))
        })
        .collect();
    Json::Obj(members)
}

/// What the numbers were measured on.
fn host_json() -> Json {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let field = |text: &str, key: &str| -> String {
        text.lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split(':').nth(1))
            .map_or(String::new(), |v| v.trim().to_string())
    };
    Json::Obj(vec![
        (
            "cpu".to_string(),
            Json::Str(field(&read("/proc/cpuinfo"), "model name")),
        ),
        (
            "nproc".to_string(),
            Json::Num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
        ),
        (
            "mem_total".to_string(),
            Json::Str(field(&read("/proc/meminfo"), "MemTotal")),
        ),
        (
            "kernel".to_string(),
            Json::Str(read("/proc/sys/kernel/osrelease").trim().to_string()),
        ),
        (
            "llc_bytes".to_string(),
            Json::Num(layers::llc_bytes() as f64),
        ),
    ])
}

/// Two full sets of the same build: per workload × end-to-end metric,
/// both medians, how much worse the second is, each set's quartile
/// spread (from four runs a set), and the bound.
fn check(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let mut seed = args.seed;
    println!(
        "{:<16} {:<20} {:>12} {:>12} {:>8} {:>9} {:>9} {:>6}",
        "workload", "metric", "median A", "median B", "worse", "spread A", "spread B", "bound"
    );
    for w in &spec::WORKLOADS {
        let mut sets: [Vec<ChildResult>; 2] = [Vec::new(), Vec::new()];
        for set in &mut sets {
            for _ in 0..args.runs {
                let r = spawn_child(args, w.name, seed, false, false)?;
                if !r.correct {
                    eprintln!(
                        "{}: seed {seed}: {} of {} operations failed",
                        w.name, r.failed, r.attempted
                    );
                    ok = false;
                }
                set.push(r);
                seed += 1;
            }
        }
        for m in &spec::END_TO_END {
            let values = |set: &[ChildResult]| -> Vec<f64> {
                set.iter()
                    .filter_map(|r| r.metrics.iter().find(|(n, _, _)| n == m.name).map(|x| x.1))
                    .collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            let (ma, mb) = (stats::median(&a), stats::median(&b));
            let worse = match m.better {
                spec::Better::Lower => (mb - ma) / ma,
                spec::Better::Higher => (ma - mb) / ma,
            };
            let spread = |v: &[f64]| (v.len() >= 4).then(|| stats::quartile_spread(v));
            let (sa, sb) = (spread(&a), spread(&b));
            let show = |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
            let spread_ok = m.name == "setup_s" || [sa, sb].iter().flatten().all(|&s| s <= m.bound);
            let verdict = if worse > m.bound || !spread_ok {
                "  FAIL"
            } else {
                ""
            };
            if !verdict.is_empty() {
                ok = false;
            }
            println!(
                "{:<16} {:<20} {:>12} {:>12} {:>7.1}% {:>9} {:>9} {:>5.0}%{verdict}",
                w.name,
                m.name,
                format_value(ma),
                format_value(mb),
                worse * 100.0,
                show(sa),
                show(sb),
                m.bound * 100.0
            );
        }
    }
    println!("{}", if ok { "check: PASS" } else { "check: FAIL" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::RunOutcome;

    fn outcome() -> RunOutcome {
        RunOutcome {
            attempted: 12,
            failed: 0,
            declared: vec![
                Metric {
                    name: "wall_s".into(),
                    value: 2.9034117,
                    unit: "s",
                },
                Metric {
                    name: "mlups".into(),
                    value: 101.25,
                    unit: "Mlup/s",
                },
            ],
            extras: Vec::new(),
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_all_digits() {
        let line = outcome().result_json().render();
        assert!(!line.contains('\n'));
        let json = Json::parse(&line).expect("parses");
        let Json::Obj(members) = &json else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(json.get("attempted").and_then(Json::as_f64), Some(12.0));
        let wall = json
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("wall_s");
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(2.9034117));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
        assert!(line.contains("2.9034117"), "{line}");
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let mut o = outcome();
        o.failed = 1;
        assert!(!o.correct());
        assert_eq!(o.result_json().get("correct"), Some(&Json::Bool(false)));
    }

    #[test]
    fn child_result_lines_round_trip() {
        let text = format!(
            "# header\nwall_s 2.9 s\n{}\n",
            outcome().result_json().render()
        );
        let r = parse_result_line(&text).expect("parses");
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (12, 0));
        assert_eq!(
            r.metrics[1],
            ("mlups".to_string(), 101.25, "Mlup/s".to_string())
        );
        assert!(parse_result_line("not json").is_err());
    }

    #[test]
    fn the_driver_argument_form_parses() {
        let argv: Vec<String> = "--workload des_mesh --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv).expect("parses");
        assert_eq!(a.workload.as_deref(), Some("des_mesh"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let argv: Vec<String> = "--all --trace --quick"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv).expect("parses");
        assert!(a.all && a.trace && a.quick);
        assert_eq!(a.seconds, 2.0, "a smoke run is short by default");
        let argv: Vec<String> = "--trace 0 --all".split(' ').map(String::from).collect();
        assert!(!parse_args(&argv).expect("parses").trace);
        assert!(parse_args(&["--bogus".to_string()]).is_err());
        assert!(parse_args(&["--seed".to_string()]).is_err());
    }

    #[test]
    fn records_render_one_metric_per_line_and_parse_back() {
        let r = parse_result_line(&outcome().result_json().render()).expect("parses");
        let doc = Json::Obj(vec![
            ("seed".to_string(), Json::Num(1.0)),
            (
                "workloads".to_string(),
                Json::Arr(vec![Json::Obj(vec![(
                    "end_to_end".to_string(),
                    metrics_json(&r),
                )])]),
            ),
        ]);
        let text = spec::pretty(&doc, 0);
        assert!(
            text.contains("\n        \"wall_s\": {\"value\":2.9034117,\"unit\":\"s\"},\n"),
            "{text}"
        );
        assert_eq!(Json::parse(&text).expect("parses"), doc);
    }

    #[test]
    fn values_print_with_six_significant_digits() {
        assert_eq!(format_value(2.9034117), "2.90341");
        assert_eq!(format_value(0.000123456789), "0.000123457");
        assert_eq!(format_value(737280.0), "737280");
        assert_eq!(format_value(123456.78), "123456.8");
        assert_eq!(format_value(0.0), "0");
    }
}
