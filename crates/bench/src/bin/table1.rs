//! Regenerates **Table 1**: real deadlock bugs avoided by Dimmunix.
//!
//! For every bug the paper evaluates, this harness (1) hunts deadlocking
//! schedules on an uninstrumented runtime, (2) verifies the
//! instrumented-but-ignoring-yields configuration still deadlocks, (3)
//! learns the signatures, then (4) replays deadlocking schedules under full
//! Dimmunix — which must complete them all — reporting yields per trial and
//! the learned patterns. It exits 1 if any row fails the shape checks it
//! prints.

use dimmunix_bench::report::{arg_u64, banner, scale_from_args, table, Scale};
use dimmunix_core::{Config, Runtime};
use dimmunix_threadsim::Outcome;
use dimmunix_workloads as workloads;

fn main() {
    let scale = scale_from_args();
    let trials = arg_u64(
        "trials",
        match scale {
            Scale::Quick => 10,
            Scale::Normal => 100,
            Scale::Full => 100,
        },
    ) as usize;

    banner(&format!(
        "Table 1: reported deadlock bugs avoided by Dimmunix ({trials} trials per bug)"
    ));
    let mut failures = Vec::new();
    let mut rows = Vec::new();
    for w in workloads::table1() {
        // Config 2 sanity: instrumented, yields ignored, must still deadlock.
        let ignore_rt = Runtime::new(Config {
            enforce_yields: false,
            ..Config::default()
        })
        .unwrap();
        let probe_seeds = workloads::find_exploits(&w, 0..100_000, 3);
        let ignored_still_deadlocks = probe_seeds.iter().any(|&s| {
            matches!(
                workloads::run_once(&ignore_rt, &w, s).outcome,
                Outcome::Deadlock { .. }
            )
        });

        let cert = workloads::certify(&w, trials);
        let mut depths: Vec<usize> = cert.pattern_depths.clone();
        depths.sort_unstable();
        depths.dedup();
        let missed = [
            (cert.completed != cert.trials, "complete every trial"),
            (cert.yields.0 == 0, "yield in every trial"),
            (
                cert.patterns != w.expected_patterns,
                "learn the paper's pattern count",
            ),
            (!ignored_still_deadlocks, "deadlock with yields ignored"),
        ];
        for (_, what) in missed.iter().filter(|(missed, _)| *missed) {
            failures.push(format!("{} {}: did not {what}", w.system, w.bug_id));
        }
        rows.push(vec![
            w.system.to_string(),
            w.bug_id.to_string(),
            w.description.chars().take(48).collect(),
            format!("{}", cert.yields.0),
            format!("{:.0}", cert.yields.1),
            format!("{}", cert.yields.2),
            format!("{}/{}", cert.patterns, w.expected_patterns),
            format!("{depths:?}"),
            format!("{}/{}", cert.completed, cert.trials),
            if ignored_still_deadlocks { "yes" } else { "NO" }.to_string(),
        ]);
    }
    table(
        &[
            "System",
            "Bug #",
            "Deadlock Between ...",
            "Yld min",
            "Yld avg",
            "Yld max",
            "Patterns (got/paper)",
            "Stack depths",
            "Completed",
            "Ignored=>dlk",
        ],
        &rows,
    );
    println!(
        "\nShape checks: every bug deadlocks without enforcement, completes {trials}/{trials} \
         with Dimmunix, and yields >= 1 per replayed exploit."
    );
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("FAIL: {failure}");
        }
        std::process::exit(1);
    }
}
