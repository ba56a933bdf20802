//! `explore_bench` — the schedule-space explorer's benchmark: states
//! explored and DPOR reduction factor versus naive full enumeration on
//! the reference scenarios, recorded in `BENCH_explore.json`.
//!
//! For every reference scenario the explorer runs twice over fresh
//! empty-history runtimes: once with DPOR pruning (sleep sets + local
//! singletons), once with naive full enumeration. Both walks must be
//! exhaustive, observe the *same distinct outcome set* (the differential
//! soundness check), and run with the lockstep shadow and the
//! no-lost-wakeup accounting live on every schedule. On the deadlocking
//! scenarios, the first witness is then vaccinated and the vaccinated
//! space re-explored: every schedule must complete.
//!
//! `--check-baseline` (the CI smoke) gates on machine-independent
//! invariants:
//!
//! * zero invariant violations anywhere (lockstep divergence, lost
//!   wakeup, park/wake imbalance, replay nondeterminism);
//! * DPOR and naive agree on the distinct outcome set per scenario;
//! * DPOR explores at least 2× fewer schedules than naive on every
//!   scenario with local structure (the reduction-factor floor);
//! * deadlock counts are exactly reproducible across two DPOR walks;
//! * the vaccinated re-exploration completes every schedule.
//!
//! `--quick` skips the slowest naive enumerations; a full run rewrites
//! `BENCH_explore.json`. `--emit-corpus` re-mines, minimizes and rewrites
//! the checked-in fixtures under `tests/fixtures/corpus/`.

use std::time::Instant;

use dimmunix_core::{Config, Runtime};
use dimmunix_explore::{
    default_corpus_dir, edges_fingerprint, explore, minimize, scenarios, verify_scenario,
    ExploreConfig, Fixture, Pruning, Scenario,
};

/// Reduction-factor floor gated by `--check-baseline`.
const REDUCTION_FLOOR: f64 = 2.0;

struct Row {
    scenario: &'static str,
    dpor_runs: usize,
    dpor_pruned: usize,
    dpor_decisions: u64,
    dpor_ms: u128,
    naive_runs: usize,
    naive_decisions: u64,
    naive_ms: u128,
    deadlocks: usize,
    immune_runs: usize,
    violations: usize,
}

impl Row {
    fn reduction(&self) -> f64 {
        self.naive_runs as f64 / self.dpor_runs.max(1) as f64
    }
}

fn fresh() -> Runtime {
    Runtime::new(Config::default()).expect("runtime")
}

fn reference_scenarios() -> Vec<Scenario> {
    vec![
        scenarios::ab_minimal(),
        scenarios::trylock_mix(),
        scenarios::same_order(),
        scenarios::ab_ba(),
        scenarios::b_round_detour(),
        scenarios::stacked_abba(),
    ]
}

fn emit_corpus() {
    let dir = default_corpus_dir();
    std::fs::create_dir_all(&dir).expect("corpus dir");
    let cfg = ExploreConfig {
        max_schedules: 200_000,
        ..ExploreConfig::default()
    };
    for s in [
        scenarios::ab_ba(),
        scenarios::stacked_abba(),
        scenarios::ring(3),
        scenarios::b_round_detour(),
    ] {
        let ex = explore(&s, &cfg, fresh);
        assert!(
            ex.violations.is_empty(),
            "{}: {:?}",
            s.name(),
            ex.violations
        );
        for (i, d) in ex.deadlocks.iter().enumerate() {
            let fp = edges_fingerprint(&d.edges);
            let min = minimize(&s, &d.schedule, &fp, cfg.max_steps, fresh);
            let fx = Fixture::mined(s.clone(), min).expect("minimized witness replays");
            assert_eq!(edges_fingerprint(&fx.edges), fp, "{}", s.name());
            let path = dir.join(format!("{}_{i}.corpus", s.name()));
            fx.save(&path).expect("write fixture");
            println!(
                "emitted {} (schedule length {})",
                path.display(),
                fx.schedule.len()
            );
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick =
        args.iter().any(|a| a == "--quick") || std::env::var("DIMMUNIX_BENCH_QUICK").is_ok();
    let check_baseline = args.iter().any(|a| a == "--check-baseline");
    if args.iter().any(|a| a == "--emit-corpus") {
        emit_corpus();
        return;
    }
    println!(
        "explore_bench: DPOR vs naive enumeration{}",
        if quick { ", --quick" } else { "" }
    );

    let cfg = |pruning: Pruning| ExploreConfig {
        pruning,
        max_schedules: 200_000,
        ..ExploreConfig::default()
    };
    let mut rows: Vec<Row> = Vec::new();
    let mut failed = false;

    for s in reference_scenarios() {
        // stacked_abba's naive tree is ~19k schedules; skip it in quick
        // mode but keep the DPOR side (which is 9 schedules).
        let skip_naive = quick && s.name() == "stacked_abba";

        let t0 = Instant::now();
        let dpor = explore(&s, &cfg(Pruning::Dpor), fresh);
        let dpor_ms = t0.elapsed().as_millis();
        let dpor2 = explore(&s, &cfg(Pruning::Dpor), fresh);

        let (naive, naive_ms) = if skip_naive {
            (None, 0)
        } else {
            let t1 = Instant::now();
            let n = explore(&s, &cfg(Pruning::Naive), fresh);
            (Some(n), t1.elapsed().as_millis())
        };

        // Vaccinate-and-reverify on deadlocking scenarios.
        let rep = verify_scenario(&s, &cfg(Pruning::Dpor));
        let immune_runs = rep.immune.as_ref().map_or(0, |i| i.runs);

        let mut violations = dpor.violations.len() + rep.violations.len();
        let mut problems: Vec<String> = Vec::new();
        if !dpor.complete {
            problems.push(format!("DPOR walk not exhaustive: {}", dpor.summary()));
        }
        if dpor2.runs != dpor.runs
            || dpor2.outcomes != dpor.outcomes
            || dpor2.deadlocks.len() != dpor.deadlocks.len()
        {
            problems.push("DPOR walk not deterministic across runs".into());
        }
        if let Some(n) = &naive {
            violations += n.violations.len();
            if !n.complete {
                problems.push(format!("naive walk not exhaustive: {}", n.summary()));
            }
            if n.distinct_outcomes() != dpor.distinct_outcomes() {
                problems.push(format!(
                    "outcome sets differ: naive {:?} vs dpor {:?}",
                    n.distinct_outcomes(),
                    dpor.distinct_outcomes()
                ));
            }
        }
        if !rep.violations.is_empty() {
            problems.push(format!("harness violations: {:?}", rep.violations));
        }

        let row = Row {
            scenario: Box::leak(s.name().to_string().into_boxed_str()),
            dpor_runs: dpor.runs,
            dpor_pruned: dpor.pruned,
            dpor_decisions: dpor.decisions,
            dpor_ms,
            naive_runs: naive.as_ref().map_or(0, |n| n.runs),
            naive_decisions: naive.as_ref().map_or(0, |n| n.decisions),
            naive_ms,
            deadlocks: dpor.deadlocks.len(),
            immune_runs,
            violations,
        };
        println!(
            "{:>16}: dpor {} runs ({} pruned, {} decisions, {}ms) | naive {} runs \
             ({} decisions, {}ms) | reduction {:.1}× | {} deadlock(s) | immune {} runs",
            row.scenario,
            row.dpor_runs,
            row.dpor_pruned,
            row.dpor_decisions,
            row.dpor_ms,
            row.naive_runs,
            row.naive_decisions,
            row.naive_ms,
            row.reduction(),
            row.deadlocks,
            row.immune_runs,
        );
        for p in &problems {
            println!("    PROBLEM: {p}");
        }
        failed |= !problems.is_empty() || violations > 0;
        rows.push(row);
    }

    if check_baseline {
        for r in &rows {
            if r.violations > 0 {
                println!(
                    "FAIL: {} had {} invariant violations",
                    r.scenario, r.violations
                );
                failed = true;
            }
            if r.naive_runs > 0 && r.reduction() < REDUCTION_FLOOR {
                println!(
                    "FAIL: {} reduction {:.2}× below the {REDUCTION_FLOOR:.0}× floor",
                    r.scenario,
                    r.reduction()
                );
                failed = true;
            }
        }
        if failed {
            println!("\nFAIL: explore_bench baseline gate");
            std::process::exit(1);
        }
        println!("\nexplore_bench baseline gate: ok");
    } else if failed {
        println!("\nFAIL: explore_bench invariants");
        std::process::exit(1);
    }

    if quick {
        println!("\n--quick run: committed baseline left untouched");
        return;
    }

    let json_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_explore.json");
    let mut json = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"scenario\": \"{}\", \"dpor_runs\": {}, \"dpor_pruned\": {}, \
             \"dpor_decisions\": {}, \"dpor_ms\": {}, \"naive_runs\": {}, \
             \"naive_decisions\": {}, \"naive_ms\": {}, \"reduction\": {:.2}, \
             \"deadlocks\": {}, \"immune_runs\": {}, \"violations\": {}}}{}\n",
            r.scenario,
            r.dpor_runs,
            r.dpor_pruned,
            r.dpor_decisions,
            r.dpor_ms,
            r.naive_runs,
            r.naive_decisions,
            r.naive_ms,
            r.reduction(),
            r.deadlocks,
            r.immune_runs,
            r.violations,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("]\n");
    match std::fs::write(json_path, &json) {
        Ok(()) => println!("\nrecorded {json_path}"),
        Err(e) => println!("\ncould not record {json_path}: {e}"),
    }
}
