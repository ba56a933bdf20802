//! Tier-1 smoke test of the benchmark: every workload for ~50 ms, every
//! named metric present, finite and carrying its unit, and `BENCHMARK.json`
//! in step with the code. No timing thresholds: the numbers of a debug
//! build under `cargo test` mean nothing, only their presence does.

use dimmunix_benchmark::json::{self, Value};
use dimmunix_benchmark::workloads::{self, Plan};
use dimmunix_benchmark::{report, spec, trace};
use std::path::PathBuf;
use std::time::Duration;

fn plan(name: &str) -> Plan {
    Plan {
        seed: 7,
        window: Duration::from_millis(50),
        reps: 1,
        quick: true,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name),
    }
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// The contract's result object: exactly these keys, each metric a
/// `{value, unit}` pair with a finite value and the spec's unit.
fn check_result_line(line: &str, expected: &[&str]) {
    let v = json::parse(line).expect("result line is JSON");
    let keys: Vec<&str> = v
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert!(v.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
    let metrics = v.get("metrics").unwrap().as_obj().unwrap();
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, expected);
    for (name, metric) in metrics {
        let value = metric.get("value").and_then(Value::as_f64).unwrap();
        assert!(value.is_finite(), "{name} = {value}");
        assert_eq!(
            metric.get("unit").and_then(Value::as_str),
            spec::unit_of(name),
            "{name}"
        );
    }
}

#[test]
fn benchmark_json_is_generated_from_the_spec_and_within_the_contract() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the workspace root");
    assert_eq!(
        on_disk,
        spec::benchmark_json(),
        "regenerate with `cargo run --release -p dimmunix_benchmark -- spec > BENCHMARK.json`"
    );
    assert!(on_disk.len() <= 64 * 1024);
    let doc = json::parse(&on_disk).unwrap();
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let mut names = Vec::new();
    let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        names.push(w.get("name").unwrap().as_str().unwrap());
        let why = w.get("why").unwrap().as_str().unwrap();
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{} chars: {why}",
            why.len()
        );
    }
    let end_to_end = doc.get("end_to_end").unwrap().as_arr().unwrap();
    assert!((1..=16).contains(&end_to_end.len()));
    for m in end_to_end {
        names.push(m.get("name").unwrap().as_str().unwrap());
        assert!(is_unit(m.get("unit").unwrap().as_str().unwrap()));
        let bound = m.get("bound").unwrap().as_f64().unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let setup = &end_to_end[0];
    assert_eq!(setup.get("name").unwrap().as_str(), Some("setup_s"));
    assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    assert_eq!(setup.get("better").unwrap().as_str(), Some("lower"));
    let per_layer = doc.get("per_layer").unwrap().as_arr().unwrap();
    assert!((1..=128).contains(&per_layer.len()));
    for m in per_layer {
        names.push(m.get("name").unwrap().as_str().unwrap());
        assert!(is_unit(m.get("unit").unwrap().as_str().unwrap()));
    }
    for name in &names {
        assert!(is_name(name), "`{name}` is not a contract name");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
}

/// One test, the workloads in sequence: they are multi-threaded and spin,
/// so running them side by side would only make them fight for two cores.
#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    let end_to_end: Vec<&str> = spec::END_TO_END.iter().map(|m| m.0).collect();
    for (workload, _) in spec::WORKLOADS {
        let plan = plan(workload);
        let report = report::end_to_end(workload, &plan).unwrap();
        assert!(report.correct(), "{workload}: {:?}", report.errors);
        assert!(
            report.metrics.iter().all(|&(_, v)| v > 0.0),
            "{workload}: an end-to-end metric is 0: {:?}",
            report.metrics
        );
        check_result_line(&report.result_line(), &end_to_end);

        // The traced replay records whole op trees whose children lie
        // inside their parent, so self time + covered time = duration.
        let traced = workloads::run(workload, &plan, true).unwrap();
        assert!(
            traced.errors().is_empty(),
            "{workload} traced: {:?}",
            traced.errors()
        );
        let spans = &traced.reps[0].spans;
        assert!(
            spans.iter().any(|s| s.name == "op"),
            "{workload}: no op span"
        );
        let self_ns = trace::self_times(spans);
        for (i, s) in spans.iter().enumerate() {
            assert!(s.end_ns >= s.start_ns, "{workload}: span {i} never closed");
            assert!(self_ns[i] <= s.duration_ns());
            if let Some(parent) = spans.get(s.parent as usize) {
                assert_eq!(parent.pair_id, s.pair_id, "{workload}: span {i}");
            }
        }
    }
}

#[test]
fn a_traced_invocation_reports_every_per_layer_metric() {
    let per_layer: Vec<&str> = spec::PER_LAYER.iter().map(|m| m.0).collect();
    let plan = plan("per_layer");
    let trace_file = plan.work_dir.join("trace.jsonl");
    let report = report::per_layer("raw_paced", &plan, &trace_file).unwrap();
    assert!(report.correct(), "{:?}", report.errors);
    check_result_line(&report.result_line(), &per_layer);
    let value = |name: &str| report.metrics.iter().find(|m| m.0 == name).unwrap().1;
    // The composed pair was traced layer by layer, and nothing overflowed.
    for span in [
        "request",
        "acquired",
        "release",
        "mutex_lock",
        "mutex_unlock",
    ] {
        assert!(value(&format!("trace.{span}_ns")) >= 0.0);
    }
    assert_eq!(value("lanes.overflow_share"), 0.0);
    assert_eq!(value("avoidance.yields"), 0.0);
    // The trace file holds the spans of whole pairs and reads back.
    let spans = trace::read_jsonl(&trace_file).unwrap();
    assert!(!spans.is_empty());
    let roots = spans.iter().filter(|s| s.name == "op").count();
    let requests = spans.iter().filter(|s| s.name == "request").count();
    assert_eq!(roots, requests, "every traced pair has its request span");
}
