//! The gate's comparison and baseline handling: each tolerance class at
//! its edges, NaN, missing and unbaselined keys, unreadable baselines,
//! and `--update` — which rewrites only its own scenario's keys, and
//! nothing at all when the scenario failed.

use gpaw_bench::gate::{load_baseline, run, Ledger, SoakFailure, Tol};
use std::path::PathBuf;

const BASE: &str = r#"{"t/schema_version": 1, "t/a": 3, "other/a": 7}"#;

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gpaw_gate_{}_{name}", std::process::id()))
}

/// Gate scenario `t` pushing `values` exactly against a baseline file
/// holding `base`, then failing if `fail`; the exit code and the file
/// afterwards.
fn gate(name: &str, base: &str, update: bool, values: &[(&str, f64)], fail: bool) -> (u8, String) {
    let (path, artifact) = (scratch(name), scratch(&format!("{name}_artifact")));
    std::fs::write(&path, base).unwrap();
    let code = run("t", &path, &artifact, update, |ledger| {
        for &(key, value) in values {
            ledger.scalar(key, value, Tol::Exact);
        }
        match fail {
            true => Err(SoakFailure::integrity("the flip was lost")),
            false => Ok(()),
        }
    });
    let after = std::fs::read_to_string(&path).unwrap();
    assert_eq!(
        artifact.exists(),
        !fail,
        "an artifact exactly when the scenario passed"
    );
    let _ = (std::fs::remove_file(&path), std::fs::remove_file(&artifact));
    (code, after)
}

#[test]
fn each_class_admits_just_inside_and_rejects_just_outside() {
    let cases = [
        (Tol::Exact, 3.0, 3.0, 3.0 + 4.0 * f64::EPSILON),
        (Tol::Abs(0.05), 0.5, 0.549, 0.551),
        (Tol::Abs(0.05), 0.5, 0.451, 0.449),
        (Tol::Abs(64.0), 100.0, 164.0, 164.5),
        (Tol::Rel(0.05), 200.0, 209.9, 210.1),
        (Tol::Rel(0.05), 200.0, 190.1, 189.9),
    ];
    for (tol, base, inside, outside) in cases {
        assert!(
            tol.admits(base, inside),
            "{tol:?} rejected {inside} against {base}"
        );
        assert!(
            !tol.admits(base, outside),
            "{tol:?} admitted {outside} against {base}"
        );
    }
}

#[test]
fn nan_never_passes() {
    for tol in [Tol::Exact, Tol::Abs(1e12), Tol::Rel(1e12)] {
        assert!(!tol.admits(1.0, f64::NAN), "{tol:?} admitted NaN");
    }
    assert_eq!(
        gate("nan", BASE, false, &[("a", f64::NAN)], false),
        (1, BASE.into())
    );
    assert_eq!(
        gate("nan_up", BASE, true, &[("a", f64::NAN)], false),
        (1, BASE.into())
    );
}

#[test]
fn only_every_key_within_its_class_passes() {
    assert_eq!(gate("pass", BASE, false, &[("a", 3.0)], false).0, 0);
    assert_eq!(gate("outside", BASE, false, &[("a", 4.0)], false).0, 1);
    assert_eq!(gate("missing", BASE, false, &[], false).0, 1);
    assert_eq!(
        gate("extra", BASE, false, &[("a", 3.0), ("b", 1.0)], false).0,
        1
    );
    let mut ledger = Ledger::new("t");
    ledger.scalar("b", 1.0, Tol::Exact);
    let base = [("t/schema_version", 1.0), ("t/a", 3.0), ("other/a", 7.0)];
    let failures = ledger.compare(&base.map(|(k, v)| (k.to_string(), v)).into());
    let expected = [
        "t/b: not in the baseline (this run: 1)",
        "t/a: missing from this run",
    ];
    assert_eq!(failures, expected);
}

#[test]
fn a_missing_or_garbled_baseline_exits_2_naming_the_path() {
    let path = scratch("garbled");
    for text in [
        None,
        Some("{\"t/a\": "),
        Some("[1, 2]"),
        Some(r#"{"t/a": "x"}"#),
    ] {
        if let Some(text) = text {
            std::fs::write(&path, text).unwrap();
        }
        let failure = load_baseline(&path).unwrap_err();
        assert_eq!(failure.exit_code(), 2);
        assert!(
            failure.to_string().contains(&path.display().to_string()),
            "{failure}"
        );
        assert_eq!(
            run("t", &path, &scratch("garbled_artifact"), false, |_| Ok(())),
            2
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn update_rewrites_only_its_own_scenario() {
    let (code, after) = gate("update", BASE, true, &[("b", 0.25)], false);
    assert_eq!(code, 0);
    assert_eq!(
        after,
        "{\n  \"other/a\": 7,\n  \"t/b\": 0.25,\n  \"t/schema_version\": 1\n}\n"
    );
    assert_eq!(
        gate("update_again", &after, false, &[("b", 0.25)], false).0,
        0
    );
}

#[test]
fn a_failing_scenario_leaves_the_baseline_byte_identical() {
    assert_eq!(
        gate("failing", BASE, true, &[("a", 5.0)], true),
        (4, BASE.into())
    );
}
