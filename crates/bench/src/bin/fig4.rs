//! Regenerates **Figure 4**: end-to-end overhead on real-system-style
//! workloads vs. history size.
//!
//! Paper result: ≤2.6% for JBoss/RUBiS and ≤7.17% for MySQL-JDBC/JDBCBench
//! across 32–128 signatures, roughly flat in history size.

use dimmunix_bench::microbench::Engine;
use dimmunix_bench::report::{arg_u64, banner, pct, scale_from_args, table, Scale};
use dimmunix_bench::rubis::MacroParams;
use dimmunix_bench::{jdbcbench, rubis, siggen};
use dimmunix_core::Runtime;
use std::time::Duration;

fn main() {
    let scale = scale_from_args();
    let (threads, millis, reps) = match scale {
        Scale::Quick => (8, 200, 1),
        Scale::Normal => (64, 800, 3),
        Scale::Full => (280, 4_000, 3),
    };
    let params = MacroParams {
        threads: arg_u64("threads", threads) as usize,
        duration: Duration::from_millis(arg_u64("duration-ms", millis)),
        seed: 7,
    };

    banner(&format!(
        "Figure 4: end-to-end overhead vs. history size ({} threads, {:?} windows, best of {reps})",
        params.threads, params.duration
    ));

    let mut rows = Vec::new();
    let mut lag_rows = Vec::new();
    for sigs in [32_u64, 64, 128] {
        // RUBiS-like (JBoss): low lock rate, think-time dominated.
        let base = best_rps(reps, || rubis::run_rubis(&params, &Engine::Baseline));
        let rt = Runtime::start(monitored_config()).unwrap();
        siggen::synthesize_history(&rt, &rubis::call_paths(), sigs as usize, 2, 11, 4);
        let dlk = best_rps(reps, || {
            rubis::run_rubis(&params, &Engine::Dimmunix(rt.clone()))
        });
        lag_rows.push(lag_row("RUBiS", sigs, &rt));
        rt.shutdown();
        let rubis_overhead = (base - dlk) / base * 100.0;

        // JDBCBench-like (MySQL JDBC): tight transaction loop. CPU-bound
        // (no think time), so run a moderate client count instead of the
        // app-server's thread pool — like JDBCBench itself does.
        let jdbc_params = MacroParams {
            threads: (params.threads / 4).max(2),
            ..params.clone()
        };
        let base_j = best_rps(reps, || {
            jdbcbench::run_jdbcbench(&jdbc_params, &Engine::Baseline)
        });
        let rt = Runtime::start(monitored_config()).unwrap();
        siggen::synthesize_history(&rt, &jdbcbench::call_paths(), sigs as usize, 2, 13, 4);
        let dlk_j = best_rps(reps, || {
            jdbcbench::run_jdbcbench(&jdbc_params, &Engine::Dimmunix(rt.clone()))
        });
        lag_rows.push(lag_row("JDBC", sigs, &rt));
        rt.shutdown();
        let jdbc_overhead = (base_j - dlk_j) / base_j * 100.0;

        rows.push(vec![
            sigs.to_string(),
            format!("{base:.0}"),
            format!("{dlk:.0}"),
            pct(rubis_overhead.max(0.0)),
            format!("{base_j:.0}"),
            format!("{dlk_j:.0}"),
            pct(jdbc_overhead.max(0.0)),
        ]);
    }
    table(
        &[
            "Signatures",
            "RUBiS base req/s",
            "RUBiS dlk req/s",
            "RUBiS overhead",
            "JDBC base txn/s",
            "JDBC dlk txn/s",
            "JDBC overhead",
        ],
        &rows,
    );
    println!(
        "\nMonitor lag + bucket skew (event-lane backpressure and hot signature-member \
         buckets; all gauges from the run's final state):"
    );
    table(
        &[
            "Workload",
            "Signatures",
            "Events/pass",
            "Lane high-water",
            "Lane growths",
            "Hot bucket peak",
            "Occupancy skew [0 1 2-3 4-7 8-15 16-31 32-63 64+]",
            "Prediction [edges cycles sigs guard-suppr defer retired]",
            "Rebuild µs hist [1 4 16 64 256 1k 4k inf]",
            "Robustness [panics restarts salvaged]",
        ],
        &lag_rows,
    );
    println!(
        "\nPaper shape: both overheads single-digit %, JDBC >= RUBiS, roughly flat in history size \
         (paper maxima: 2.6% JBoss/RUBiS, 7.17% MySQL/JDBCBench)."
    );
}

/// The figure's Dimmunix configuration: defaults plus the proactive
/// predictor (the demonstration workload's shared configuration), so the
/// lag table also shows the prediction pipeline's telemetry (all
/// monitor-side; the overhead columns absorb its cost).
use dimmunix_workloads::prediction::prediction_config as monitored_config;

fn best_rps(reps: u64, mut run: impl FnMut() -> rubis::MacroReport) -> f64 {
    (0..reps)
        .map(|_| run().requests_per_sec())
        .fold(0.0_f64, f64::max)
}

/// One monitor-lag + bucket-skew gauge row for a finished Dimmunix run.
fn lag_row(workload: &str, sigs: u64, rt: &Runtime) -> Vec<String> {
    let s = rt.stats();
    vec![
        workload.to_string(),
        sigs.to_string(),
        s.events_last_drain.to_string(),
        s.lane_high_water.to_string(),
        s.lane_overflows.to_string(),
        s.hot_bucket_peak.to_string(),
        dimmunix_bench::report::skew_cell(&rt.occupancy_skew()),
        format!(
            "{} {} {} {} {} {}",
            s.prediction_edges,
            s.cycles_predicted,
            s.predicted_signatures,
            s.prediction_guard_suppressed,
            s.prediction_deferred,
            s.prediction_edges_retired
        ),
        dimmunix_bench::report::rebuild_cell(&s),
        format!(
            "{} {} {}",
            s.panic_cleanups, s.monitor_restarts, s.history_salvaged
        ),
    ]
}
