//! Turns workload runs and probes into the named metric lists the contract
//! asks for: every end-to-end metric (tracing off), or every per-layer
//! metric (probes + an untraced and a traced replay of the workload).

use crate::json::escape;
use crate::measure::{host_cores, median, percentile, rss_peak_kb, rustc_version};
use crate::trace::{self, Span, NO_PARENT};
use crate::workloads::{self, Plan};
use crate::{probes, spec};
use std::collections::BTreeMap;
use std::path::Path;

/// One invocation's result for one workload.
#[derive(Debug)]
pub struct Report {
    /// The workload measured.
    pub workload: String,
    /// The seed its inputs came from.
    pub seed: u64,
    /// `(name, value)` in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed (see [`workloads::Rep::failed`]).
    pub failed: u64,
    /// Output checks that did not hold.
    pub errors: Vec<String>,
}

impl Report {
    /// Whether every output check held and no op failed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    fn metrics_json(&self) -> String {
        let members: Vec<String> = self
            .metrics
            .iter()
            .map(|&(name, value)| {
                let unit = spec::unit_of(name).expect("metric is in the spec");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", members.join(", "))
    }

    /// The contract's result object (the last line of standard output).
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics_json()
        )
    }
}

/// A self-describing record for result files (`compare` reads these): a
/// contract result object prefixed with the workload, seed and host.
pub fn record_line(workload: &str, seed: u64, result_line: &str) -> String {
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"host_cores\": {}, \"rustc\": \"{}\", {}",
        host_cores(),
        escape(rustc_version()),
        result_line.trim_start().trim_start_matches('{')
    )
}

fn check_finite(metrics: &[(&'static str, f64)]) -> Result<(), String> {
    match metrics.iter().find(|(_, v)| !v.is_finite()) {
        Some((name, v)) => Err(format!("metric {name} is {v}")),
        None => Ok(()),
    }
}

/// Every end-to-end metric of `workload`, tracing off.
pub fn end_to_end(workload: &str, plan: &Plan) -> Result<Report, String> {
    let outcome = workloads::run(workload, plan, false)?;
    let metrics = outcome.end_to_end();
    check_finite(&metrics)?;
    Ok(Report {
        workload: workload.to_string(),
        seed: plan.seed,
        metrics,
        attempted: outcome.attempted(),
        failed: outcome.failed(),
        errors: outcome.errors(),
    })
}

/// Span names of the traced replay and the metric each feeds.
const SPAN_METRICS: [(&str, &str); 11] = [
    ("current_thread", "trace.current_thread_ns"),
    ("capture", "trace.capture_ns"),
    ("intern_stack", "trace.intern_stack_ns"),
    ("request", "trace.request_ns"),
    ("mutex_lock", "trace.mutex_lock_ns"),
    ("acquired", "trace.acquired_ns"),
    ("release", "trace.release_ns"),
    ("mutex_unlock", "trace.mutex_unlock_ns"),
    ("lock_call", "trace.lock_call_ns"),
    ("unlock_call", "trace.unlock_call_ns"),
    ("step_monitor", "trace.step_monitor_ns"),
];

/// Share of the *untraced* op the traced child spans account for: per op,
/// the part of its span its children cover, less one timer read per child
/// (a span's stamps enclose about one), over the untraced p50 less its own
/// timer read. p50 over ops; `ops_per_root` is how many ops one root span
/// stands for (a `monitor_backlog` root is a whole slice of events).
fn closure_share(spans: &[Span], ops_per_root: f64, timer_ns: f64, untraced_op_ns: f64) -> f64 {
    let self_ns = trace::self_times(spans);
    let mut children = vec![0_u32; spans.len()];
    for s in spans {
        if let Some(n) = children.get_mut(s.parent as usize) {
            *n += 1;
        }
    }
    let mut explained: Vec<u64> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent == NO_PARENT && s.name == "op")
        .map(|(i, s)| {
            let covered = (s.duration_ns() - self_ns[i]) as f64;
            (covered - f64::from(children[i]) * timer_ns).max(0.0) as u64
        })
        .collect();
    if explained.is_empty() {
        return 0.0;
    }
    explained.sort_unstable();
    percentile(&explained, 0.5) as f64 / ops_per_root / (untraced_op_ns - timer_ns).max(1.0)
}

/// Every per-layer metric for `workload`: the standalone probes, the
/// workload's counters from an untraced replay, and the span self-times of
/// a traced replay, whose last rep is written to `trace_file`.
pub fn per_layer(workload: &str, plan: &Plan, trace_file: &Path) -> Result<Report, String> {
    let mut values: BTreeMap<&'static str, f64> =
        probes::run_all(plan.seed, plan.quick, &plan.work_dir)?
            .into_iter()
            .collect();
    let timer_ns = values["baseline.timer_ns"];

    let untraced = workloads::run(workload, plan, false)?;
    let untraced_op_ns = untraced.op_ns_p50();
    values.insert("trace.untraced_op_ns_p99", untraced.op_ns_p99());
    values.extend(untraced.counts());
    values.insert("runtime.rss_peak_kb", rss_peak_kb());

    let traced = workloads::run(workload, plan, true)?;
    let per_rep: Vec<BTreeMap<&'static str, (f64, usize)>> = traced
        .reps
        .iter()
        .map(|r| trace::self_p50_by_name(&r.spans))
        .collect();
    let over_reps = |name: &str| {
        let seen: Vec<f64> = per_rep
            .iter()
            .filter_map(|m| m.get(name).map(|p| p.0))
            .collect();
        if seen.is_empty() {
            0.0
        } else {
            median(&seen)
        }
    };
    let op_ns = traced.op_ns_p50();
    values.insert("trace.op_ns", op_ns);
    values.insert("trace.untraced_op_ns", untraced_op_ns);
    values.insert(
        "trace.overhead_share",
        op_ns / untraced_op_ns.max(1.0) - 1.0,
    );
    for (span, metric) in SPAN_METRICS {
        values.insert(metric, (over_reps(span) - timer_ns).max(0.0));
    }
    let last = traced.reps.last().expect("at least one traced rep");
    let ops_per_root = if last.aligned_cycles {
        last.cycle_ops
    } else {
        1.0
    };
    values.insert(
        "trace.closure_share",
        closure_share(&last.spans, ops_per_root, timer_ns, untraced_op_ns),
    );
    values.insert("trace.spans", last.spans.len() as f64);
    // Cap the file: a saturated rep records a few hundred thousand spans,
    // and whole ops are what a reader needs, not all of them.
    trace::write_jsonl(trace_file, &trace::head_by_pair(&last.spans, 60_000))
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;

    let metrics: Vec<(&'static str, f64)> = spec::PER_LAYER
        .iter()
        .map(|&(name, _, _)| {
            values
                .get(name)
                .map(|&v| (name, v))
                .ok_or_else(|| format!("per-layer metric {name} was not measured"))
        })
        .collect::<Result<_, _>>()?;
    check_finite(&metrics)?;
    let mut errors = untraced.errors();
    errors.extend(traced.errors().into_iter().map(|e| format!("traced {e}")));
    Ok(Report {
        workload: workload.to_string(),
        seed: plan.seed,
        metrics,
        attempted: untraced.attempted() + traced.attempted(),
        failed: untraced.failed() + traced.failed(),
        errors,
    })
}
