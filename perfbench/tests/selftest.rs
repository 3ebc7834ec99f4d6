//! Self-test of the benchmark: every workload of `BENCHMARK.json` runs
//! at a tiny size, untraced and traced, and must print every metric the
//! file names, with its unit, and no failed check.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serde_json::Value;
use std::path::PathBuf;
use std::process::Command;

fn benchmark() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to perfbench/");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing {key}"))
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(b: &Value, list: &str) -> Vec<(String, String)> {
    b.get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                str_field(m, "name").to_string(),
                str_field(m, "unit").to_string(),
            )
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> (Value, String) {
    let dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--size", "tiny"])
        .current_dir(&dir)
        .output()
        .expect("spawn perfbench");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    (
        serde_json::from_str(last).expect("result line is JSON"),
        stdout,
    )
}

#[test]
fn every_workload_prints_every_metric_with_its_unit_and_no_failure() {
    let b = benchmark();
    let workloads = b
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads");
    for w in workloads {
        let name = str_field(w, "name");
        for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
            let (result, stdout) = run(name, trace);
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
            assert!(stdout.contains("failed_frac 0 "), "{name}: {stdout}");
            let metrics = result
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics");
            let want = declared(&b, list);
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, v)| (k.clone(), str_field(v, "unit").to_string()))
                .collect();
            assert_eq!(
                got, want,
                "{name} trace {trace}: metrics differ from BENCHMARK.json"
            );
            for (k, v) in metrics {
                let value = v.get("value").and_then(Value::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{name}: {k} is {value:?}"
                );
            }
        }
    }
}

#[test]
fn a_bad_invocation_exits_non_zero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("spawn perfbench");
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
