//! Tiny-size runs of the benchmark binary: every metric `BENCHMARK.json`
//! names is printed with its unit, and a wrong measurement digest fails the
//! run.

use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["grid-schedule", "grid-verify-contention", "service-mixed"];

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--loops", "4", "--seconds", "0.1"])
        .args(args)
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("stdout is UTF-8")
}

fn result_line(out: &Output) -> String {
    stdout(out).lines().last().expect("a result line").to_string()
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let json = include_str!("../../BENCHMARK.json");
    let start = json.find(&format!("\"{list}\"")).expect("list present");
    let body = &json[start..json[start..].find(']').map(|end| start + end).expect("list closed")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        entry[at..at + entry[at..].find('"').expect("string closed")].to_string()
    };
    body.split('{').skip(1).map(|entry| (field(entry, "name"), field(entry, "unit"))).collect()
}

fn assert_reports(line: &str, metrics: &[(String, String)]) {
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
    for (name, unit) in metrics {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = line.find(&key).unwrap_or_else(|| panic!("{name} missing from {line}"));
        let rest = &line[at + key.len()..];
        let value: f64 = rest[..rest.find(',').expect("value ends")].parse().expect("a number");
        assert!(value.is_finite(), "{name} = {value}");
        assert!(rest.contains(&format!("\"unit\": \"{unit}\"}}")), "{name} has no unit {unit}");
    }
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
    assert!(end_to_end.iter().any(|(name, unit)| name == "setup_s" && unit == "s"));
    for workload in WORKLOADS {
        for (trace, metrics) in [("0", &end_to_end), ("1", &per_layer)] {
            let out = bench(&["--workload", workload, "--seed", "3", "--trace", trace]);
            assert!(out.status.success(), "{workload} --trace {trace}: {out:?}");
            assert_reports(&result_line(&out), metrics);
        }
    }
}

#[test]
fn a_wrong_csv_digest_fails_the_run_and_the_right_one_holds_for_any_seed() {
    let base = ["--workload", "grid-schedule", "--trace", "0"];
    let out = bench(&[&base[..], &["--seed", "1"]].concat());
    assert!(out.status.success());
    let digest = stdout(&out)
        .lines()
        .find_map(|l| l.strip_prefix("measurement CSV digest: "))
        .and_then(|rest| rest.split_whitespace().next())
        .expect("digest printed")
        .to_string();

    let same = bench(&[&base[..], &["--seed", "2", "--expect-digest", &digest]].concat());
    assert!(same.status.success(), "another seed reorders the loops but must not change the CSV");

    let corrupted = format!("{:016x}", u64::from_str_radix(&digest, 16).unwrap() ^ 1);
    let bad = bench(&[&base[..], &["--seed", "1", "--expect-digest", &corrupted]].concat());
    assert!(!bad.status.success());
    let line = result_line(&bad);
    assert!(line.starts_with("{\"correct\": false"), "{line}");
    assert!(!line.contains("\"failed\": 0,"), "{line}");
}

#[test]
fn a_trace_flag_other_than_0_or_1_is_refused() {
    for value in ["false", "2", ""] {
        let out = bench(&["--workload", "grid-schedule", "--seed", "1", "--trace", value]);
        assert_eq!(out.status.code(), Some(2), "--trace {value:?}: {out:?}");
        assert!(out.stdout.is_empty(), "--trace {value:?} printed a result");
    }
}
