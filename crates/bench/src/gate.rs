//! The gate's bookkeeping. Every scenario of the `gate` binary pushes the
//! numbers it gates into a [`Ledger`], each with the [`Tol`] chosen where
//! the number is produced; [`run`] compares them against one flat baseline
//! file (`"<scenario>/<key>": value`) or, with `--update`, rewrites that
//! scenario's keys once its own assertions have passed.

use crate::{secs, Table};
use gpaw_fd::report::SCHEMA_VERSION;
use gpaw_fd::{ExperimentReport, Json};
use gpaw_hybrid_rt::RunError;
use gpaw_simmpi::RunReport;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Write as _};
use std::path::Path;
use std::time::Instant;

/// The committed baseline, relative to the repository root.
pub const BASELINE: &str = "results/baseline.json";

/// How far a gated number may move from its baseline value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Tol {
    /// Equal: counts and other deterministic totals.
    Exact,
    /// Within this absolute distance.
    Abs(f64),
    /// Within this fraction of the baseline value.
    Rel(f64),
}

impl Tol {
    /// Whether `value` is within this tolerance of `base`; NaN never is.
    pub fn admits(self, base: f64, value: f64) -> bool {
        match self {
            Tol::Exact => value == base,
            Tol::Abs(a) => (value - base).abs() <= a,
            Tol::Rel(r) => (value - base).abs() <= r * base.abs(),
        }
    }
}

/// Why a scenario, or the gate around it, failed. The exit code is the
/// taxonomy every harness shares: 1 divergence or a gated number out of
/// bounds, 2 usage or an unreadable baseline, 3 durable checkpoint error,
/// 4 corruption that did not surface as a typed integrity error.
#[derive(Debug)]
pub struct SoakFailure {
    code: u8,
    message: String,
}

impl SoakFailure {
    /// A result, a count or a guard that broke its contract (exit 1).
    pub fn divergence(message: impl Into<String>) -> SoakFailure {
        SoakFailure::new(1, message)
    }

    /// Bad arguments or an unreadable baseline (exit 2).
    pub fn usage(message: impl Into<String>) -> SoakFailure {
        SoakFailure::new(2, message)
    }

    /// Corruption that was lost or surfaced untyped (exit 4).
    pub fn integrity(message: impl Into<String>) -> SoakFailure {
        SoakFailure::new(4, message)
    }

    fn new(code: u8, message: impl Into<String>) -> SoakFailure {
        let message = message.into();
        SoakFailure { code, message }
    }

    /// The process exit code.
    pub fn exit_code(&self) -> u8 {
        self.code
    }
}

impl fmt::Display for SoakFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// Name what failed, keeping [`RunError::exit_code`]'s taxonomy.
pub trait RunContext<T> {
    /// Turn a run error into a [`SoakFailure`] prefixed with `what`.
    fn context(self, what: impl fmt::Display) -> Result<T, SoakFailure>;
}

impl<T> RunContext<T> for Result<T, RunError> {
    fn context(self, what: impl fmt::Display) -> Result<T, SoakFailure> {
        let code = |e: &RunError| u8::try_from(e.exit_code()).unwrap_or(1);
        self.map_err(|e| SoakFailure::new(code(&e), format!("{what}: {e}")))
    }
}

/// One scenario's output: the full report written to the artifact, and
/// the gated numbers, each with its own tolerance.
pub struct Ledger {
    scenario: String,
    report: ExperimentReport,
    gated: Vec<(String, f64, Tol)>,
}

impl Ledger {
    /// An empty ledger for `scenario`; it gates the report schema.
    pub fn new(scenario: &str) -> Ledger {
        let report = ExperimentReport::new(scenario);
        let scenario = scenario.to_string();
        let mut ledger = Ledger {
            scenario,
            report,
            gated: Vec::new(),
        };
        ledger.gate("schema_version", SCHEMA_VERSION as f64, Tol::Exact);
        ledger
    }

    /// Gate `key` at `tol` (a point's leaf; not reported again).
    pub fn gate(&mut self, key: &str, value: f64, tol: Tol) {
        let key = format!("{}/{key}", self.scenario);
        self.gated.push((key, value, tol));
    }

    /// Report a scalar and gate it at `tol`.
    pub fn scalar(&mut self, key: &str, value: f64, tol: Tol) {
        self.info(key, value);
        self.gate(key, value, tol);
    }

    /// Report a scalar that gates nothing: wall clock, or a count that
    /// depends on host scheduling.
    pub fn info(&mut self, key: &str, value: f64) {
        self.report.scalar(key, value);
    }

    /// Report a run as a point and gate its counts exactly: a schedule is
    /// deterministic even when its timing is not.
    pub fn point(&mut self, name: &str, approach: &str, cores: usize, batch: usize, r: RunReport) {
        let counts = [
            ("cores", cores as f64),
            ("batch", batch as f64),
            ("threads", r.threads as f64),
            ("messages", r.messages as f64),
            ("bytes_per_node", r.bytes_per_node as f64),
            ("network_bytes_per_node", r.network_bytes_per_node as f64),
            ("net/nodes", r.net.nodes as f64),
            ("net/bytes_total", r.net.bytes_total as f64),
            ("net/messages_total", r.net.messages_total as f64),
        ];
        for (leaf, value) in counts {
            self.gate(&format!("{name}/{leaf}"), value, Tol::Exact);
        }
        self.report
            .push(name.to_string(), approach, cores, batch, r);
    }

    /// Every gated number outside its tolerance, every baseline key of
    /// this scenario the run did not produce, and every key it produced
    /// that the baseline lacks.
    pub fn compare(&self, baseline: &BTreeMap<String, f64>) -> Vec<String> {
        let mut failures = Vec::new();
        for (key, value, tol) in &self.gated {
            match baseline.get(key) {
                None => failures.push(format!("{key}: not in the baseline (this run: {value})")),
                Some(&base) if !tol.admits(base, *value) => {
                    failures.push(format!("{key}: baseline {base} vs {value} ({tol:?})"))
                }
                Some(_) => {}
            }
        }
        let produced: BTreeSet<&str> = self.gated.iter().map(|(k, ..)| k.as_str()).collect();
        let prefix = format!("{}/", self.scenario);
        for key in baseline.keys().filter(|k| k.starts_with(&prefix)) {
            if !produced.contains(key.as_str()) {
                failures.push(format!("{key}: missing from this run"));
            }
        }
        failures
    }

    /// Print every point and scalar, gated or not.
    fn print(&self) {
        let header = vec!["point", "cores", "batch", "messages", "time", "util(paper)"];
        let mut points = Table::new(header);
        for p in &self.report.points {
            points.row(vec![
                p.name.clone(),
                p.cores.to_string(),
                p.batch.to_string(),
                p.run.messages.to_string(),
                secs(p.run.seconds()),
                format!("{:.0}%", p.run.utilization_paper_scale() * 100.0),
            ]);
        }
        let mut scalars = Table::new(vec!["scalar", "value"]);
        for (key, value) in &self.report.scalars {
            scalars.row(vec![key.clone(), format!("{value}")]);
        }
        if !self.report.points.is_empty() {
            points.print();
        }
        scalars.print();
    }
}

/// Read a baseline: a flat JSON object of numbers. A missing or garbled
/// file is a usage error (exit 2) naming the path.
pub fn load_baseline(path: &Path) -> Result<BTreeMap<String, f64>, SoakFailure> {
    let garbled = |why: String| SoakFailure::usage(format!("baseline {}: {why}", path.display()));
    let text = std::fs::read_to_string(path).map_err(|e| garbled(e.to_string()))?;
    let Json::Obj(members) = Json::parse(&text).map_err(garbled)? else {
        return Err(garbled("not a JSON object".into()));
    };
    let number = |(key, v): (String, Json)| match v.as_f64() {
        Some(x) => Ok((key, x)),
        None => Err(garbled(format!("{key} is not a number"))),
    };
    members.into_iter().map(number).collect()
}

/// Replace the scenario's keys in the baseline with the ledger's, one key
/// per line so an update diffs line by line; tmp + rename, so a reader
/// never sees a torn file.
fn update(
    path: &Path,
    mut baseline: BTreeMap<String, f64>,
    ledger: &Ledger,
) -> Result<(), SoakFailure> {
    let prefix = format!("{}/", ledger.scenario);
    baseline.retain(|key, _| !key.starts_with(&prefix));
    for (key, value, _) in &ledger.gated {
        if !value.is_finite() {
            return Err(SoakFailure::divergence(format!(
                "{key} = {value} cannot be baselined"
            )));
        }
        baseline.insert(key.clone(), *value);
    }
    let mut text = String::from("{\n");
    for (i, (key, value)) in baseline.iter().enumerate() {
        let comma = if i + 1 < baseline.len() { "," } else { "" };
        let (key, value) = (Json::Str(key.clone()).render(), Json::Num(*value).render());
        let _ = writeln!(text, "  {key}: {value}{comma}");
    }
    text.push_str("}\n");
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, text)
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            SoakFailure::usage(format!("cannot update baseline {}: {e}", path.display()))
        })
}

/// Run `scenario` under the gate and return the process exit code.
///
/// The baseline is read first, so a missing or garbled file fails fast
/// (exit 2, naming the path). A failing scenario exits with its own code
/// and leaves the baseline untouched. Otherwise everything it measured is
/// printed and written to `artifact`, and the gated numbers are compared
/// against the baseline (exit 1 naming every offending key) or, with
/// `update`, replace this scenario's keys in it.
pub fn run(
    scenario: &str,
    baseline: &Path,
    artifact: &Path,
    update_baseline: bool,
    body: impl FnOnce(&mut Ledger) -> Result<(), SoakFailure>,
) -> u8 {
    let started = Instant::now();
    let gated = || -> Result<String, SoakFailure> {
        let base = load_baseline(baseline)?;
        let mut ledger = Ledger::new(scenario);
        body(&mut ledger)?;
        ledger.print();
        let json = ledger.report.to_json().render() + "\n";
        let unwritable =
            |e| SoakFailure::usage(format!("cannot write {}: {e}", artifact.display()));
        std::fs::write(artifact, json).map_err(unwritable)?;
        let n = ledger.gated.len();
        if update_baseline {
            update(baseline, base, &ledger)?;
            return Ok(format!(
                "{n} gated numbers written to {}",
                baseline.display()
            ));
        }
        let failures = ledger.compare(&base);
        if !failures.is_empty() {
            return Err(SoakFailure::divergence(format!(
                "{} of {n} gated numbers against {}:\n  {}\nIf the shift is intended, rerun \
                 with --update and commit the baseline.",
                failures.len(),
                baseline.display(),
                failures.join("\n  ")
            )));
        }
        Ok(format!("PASS, {n} gated numbers"))
    };
    let outcome = gated();
    let elapsed = started.elapsed().as_secs_f64();
    match outcome {
        Ok(verdict) => {
            println!(
                "\ngate {scenario}: {verdict} ({elapsed:.1}s; wrote {})",
                artifact.display()
            );
            0
        }
        Err(failure) => {
            eprintln!("\ngate {scenario}: FAIL — {failure}");
            failure.exit_code()
        }
    }
}
