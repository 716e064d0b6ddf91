//! Runs every workload at tiny size, traced and untraced, and checks
//! that the benchmark prints exactly the metrics `BENCHMARK.json` lists.

use std::process::Command;

#[test]
fn every_workload_prints_the_listed_metrics() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--selftest")
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "selftest failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("selftest ok"), "{stdout}");
}
