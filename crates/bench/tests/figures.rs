//! The committed figure files are the `figures` binary's output. The
//! fast figures are rendered here and compared byte for byte with
//! `results/<name>.txt`; `fig5_speedup`, `fig6_gustafson` and
//! `fig7_large_speedup` take seconds to a minute even optimized, so CI's
//! `figures` job regenerates them instead.

use gpaw_bench::figures::render;

fn matches_its_results_file(name: &str) {
    let path = format!("{}/../../results/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    let committed = std::fs::read_to_string(&path).unwrap();
    let sheet = render(name).unwrap();
    assert!(
        sheet.text == committed,
        "results/{name}.txt is not what the code prints; regenerate it with \
         `cargo run --release -p gpaw-bench --bin figures -- {name}`.\n\
         --- printed:\n{}",
        sheet.text
    );
    assert_eq!(sheet.misses, Vec::<&str>::new(), "{name} missed anchors");
}

#[test]
fn table1_hardware_is_its_results_file() {
    matches_its_results_file("table1_hardware");
}

#[test]
fn fig2_bandwidth_is_its_results_file() {
    matches_its_results_file("fig2_bandwidth");
}

#[test]
fn headline_is_its_results_file() {
    matches_its_results_file("headline");
}

#[test]
fn ablations_is_its_results_file() {
    matches_its_results_file("ablations");
}
