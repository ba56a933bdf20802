//! `compare`: judges a second set of results against a first with each
//! end-to-end metric's bound from `BENCHMARK.json`, one row per metric ×
//! workload.

use crate::json::{self, Value};
use crate::measure::{median, spread};
use std::collections::BTreeMap;
use std::path::Path;

/// Verdict on one metric of one workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// The second median is no worse than the first by more than the bound.
    Ok,
    /// It is worse by more than the bound.
    Regressed,
    /// Run-to-run spread within a set exceeds the bound, so the sets cannot
    /// resolve a change of that size.
    Unresolved,
}

impl Verdict {
    /// The word printed in the row.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One output row.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median of the first set.
    pub base: f64,
    /// Median of the second set.
    pub change: f64,
    /// Worsening of `change` against `base`, as a share of `base`
    /// (negative = improved).
    pub worse_by: f64,
    /// The wider of the two sets' spreads (IQR over median).
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// `(metric, lower_is_better, bound)` of every end-to-end metric in a
/// `BENCHMARK.json` document.
pub fn bounds(benchmark_json: &str) -> Result<Vec<(String, bool, f64)>, String> {
    let doc = json::parse(benchmark_json)?;
    doc.get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no `end_to_end` array")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without name")?;
            let better = m
                .get("better")
                .and_then(Value::as_str)
                .ok_or("metric without better")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without bound")?;
            Ok((name.to_string(), better == "lower", bound))
        })
        .collect()
}

/// `workload → metric → values` of a result file: one record per line, as
/// `run --out` writes them (a bare contract result line has no workload
/// name and is rejected).
pub fn read_results(path: &Path) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut sets: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |what: &str| format!("{}:{}: {what}", path.display(), i + 1);
        let record = json::parse(line).map_err(|e| at(&e))?;
        let workload = record
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| at("no `workload`"))?;
        let metrics = record
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or_else(|| at("no `metrics`"))?;
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| at("metric without value"))?;
            sets.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(sets)
}

/// Compares two result files under the bounds of `benchmark_json`.
pub fn compare(benchmark_json: &str, base: &Path, change: &Path) -> Result<Vec<Row>, String> {
    let bounds = bounds(benchmark_json)?;
    let (base, change) = (read_results(base)?, read_results(change)?);
    let mut rows = Vec::new();
    for (workload, base_metrics) in &base {
        for (metric, lower, bound) in &bounds {
            let (Some(a), Some(b)) = (
                base_metrics.get(metric),
                change.get(workload).and_then(|m| m.get(metric)),
            ) else {
                continue;
            };
            let (ma, mb) = (median(a), median(b));
            let worse_by = if *lower { mb - ma } else { ma - mb } / ma.abs().max(f64::MIN_POSITIVE);
            let spread = spread(a).max(spread(b));
            let verdict = if worse_by > *bound {
                Verdict::Regressed
            } else if spread > *bound {
                Verdict::Unresolved
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.clone(),
                base: ma,
                change: mb,
                worse_by,
                spread,
                bound: *bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{"end_to_end": [
        {"name": "op_ns_p50", "unit": "ns", "better": "lower", "bound": 0.1},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#;

    fn file(name: &str, p50: &[f64], rate: &[f64]) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("dimmunix-bench-{}-{name}", std::process::id()));
        let lines: Vec<String> = p50
            .iter()
            .zip(rate)
            .map(|(p, r)| {
                format!(
                    "{{\"workload\": \"w\", \"metrics\": {{\"op_ns_p50\": {{\"value\": {p}, \"unit\": \"ns\"}}, \
                     \"ops_per_s\": {{\"value\": {r}, \"unit\": \"1/s\"}}}}}}"
                )
            })
            .collect();
        std::fs::write(&path, lines.join("\n")).unwrap();
        path
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let base = file("base", &[100.0, 101.0, 99.0], &[1000.0, 1010.0, 990.0]);
        // Latency 20 % worse (regressed); throughput 5 % lower (ok).
        let slow = file("slow", &[120.0, 121.0, 119.0], &[950.0, 955.0, 945.0]);
        let rows = compare(BENCH, &base, &slow).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        assert_eq!(rows[1].verdict, Verdict::Ok);
        // Same medians, but one set too noisy to resolve 10 %.
        let noisy = file("noisy", &[70.0, 100.0, 130.0], &[1000.0, 1001.0, 999.0]);
        let rows = compare(BENCH, &base, &noisy).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Unresolved);
        assert_eq!(rows[1].verdict, Verdict::Ok);
        for f in [base, slow, noisy] {
            std::fs::remove_file(f).unwrap();
        }
    }
}
