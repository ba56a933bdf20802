//! Simulator-level immunity tests: the full learn-then-avoid loop under
//! deterministic schedules.

use dimmunix_core::{Config, CycleKind, Runtime};
use dimmunix_threadsim::{explore, Outcome, Script, Sim, SimConfig};

fn abba_sim(rt: &Runtime, seed: u64) -> Sim {
    let mut sim = Sim::new(rt, seed);
    let a = sim.lock_handle("A");
    let b = sim.lock_handle("B");
    sim.spawn(
        "T1",
        Script::new().scoped("update", |s| {
            s.lock(a).compute(5).lock(b).unlock(b).unlock(a)
        }),
    );
    sim.spawn(
        "T2",
        Script::new().scoped("update", |s| {
            s.lock(b).compute(5).lock(a).unlock(a).unlock(b)
        }),
    );
    sim
}

fn find_deadlock_seed(rt: &Runtime) -> u64 {
    (0..256)
        .find(|&s| matches!(abba_sim(rt, s).run().outcome, Outcome::Deadlock { .. }))
        .expect("ABBA must deadlock under some schedule")
}

#[test]
fn immunity_develops_after_first_deadlock() {
    let rt = Runtime::new(Config::default()).unwrap();
    let seed = find_deadlock_seed(&rt);
    assert_eq!(rt.history().len(), 1, "signature captured");
    assert_eq!(rt.history().snapshot()[0].kind, CycleKind::Deadlock);
    // The exact schedule that deadlocked now completes — and every other
    // schedule too.
    for s in [seed, seed + 1, seed + 17, 1234] {
        let report = abba_sim(&rt, s).run();
        assert!(
            report.completed(),
            "seed {s} must complete, got {:?}",
            report.outcome
        );
    }
    // No new signatures were needed.
    assert_eq!(rt.history().len(), 1);
}

#[test]
fn avoided_run_reports_yields() {
    let rt = Runtime::new(Config::default()).unwrap();
    let seed = find_deadlock_seed(&rt);
    let report = abba_sim(&rt, seed).run();
    assert!(report.completed());
    assert!(
        report.yields >= 1,
        "avoidance must have yielded at least once: {report:?}"
    );
    assert_eq!(report.deadlocks_detected, 0);
}

#[test]
fn one_hundred_trials_all_complete_after_immunization() {
    // The Table 1 protocol: 100 trials with the signature in history.
    let rt = Runtime::new(Config::default()).unwrap();
    find_deadlock_seed(&rt);
    let report = explore(0..100, |seed| abba_sim(&rt, seed).run());
    assert_eq!(report.completed_seeds.len(), 100, "{report:?}");
    assert!(report.total_yields >= 1);
}

#[test]
fn ignore_yields_mode_still_deadlocks() {
    // The paper's control configuration: instrumentation on, decisions
    // ignored — the exploit must still deadlock.
    let learn_rt = Runtime::new(Config::default()).unwrap();
    let seed = find_deadlock_seed(&learn_rt);
    // Transfer the signature to a runtime that ignores yields.
    let path = std::env::temp_dir().join(format!("dimmunix-sim-{}.dlk", std::process::id()));
    learn_rt.history().set_path(Some(path.clone()));
    learn_rt.save_history().unwrap();
    let rt = Runtime::new(Config {
        enforce_yields: false,
        ..Config::default()
    })
    .unwrap();
    rt.vaccinate(&path).unwrap();
    let report = abba_sim(&rt, seed).run();
    assert!(
        matches!(report.outcome, Outcome::Deadlock { .. }),
        "ignoring yields must reproduce the deadlock: {:?}",
        report.outcome
    );
    assert!(report.yields >= 1, "the would-be yield is still counted");
    std::fs::remove_file(&path).ok();
}

#[test]
fn three_thread_cycle_learned_and_avoided() {
    let rt = Runtime::new(Config::default()).unwrap();
    let build = |rt: &Runtime, seed: u64| {
        let mut sim = Sim::new(rt, seed);
        let a = sim.lock_handle("A");
        let b = sim.lock_handle("B");
        let c = sim.lock_handle("C");
        sim.spawn(
            "T1",
            Script::new().scoped("w1", |s| s.lock(a).compute(3).lock(b).unlock(b).unlock(a)),
        );
        sim.spawn(
            "T2",
            Script::new().scoped("w2", |s| s.lock(b).compute(3).lock(c).unlock(c).unlock(b)),
        );
        sim.spawn(
            "T3",
            Script::new().scoped("w3", |s| s.lock(c).compute(3).lock(a).unlock(a).unlock(c)),
        );
        sim
    };
    let seed = (0..512)
        .find(|&s| matches!(build(&rt, s).run().outcome, Outcome::Deadlock { .. }))
        .expect("3-cycle must deadlock under some schedule");
    let sig = &rt.history().snapshot()[0];
    assert_eq!(sig.size(), 3, "three stacks in the signature");
    let report = build(&rt, seed).run();
    assert!(report.completed(), "{:?}", report.outcome);
}

#[test]
fn trylock_fallback_never_deadlocks() {
    // A program using trylock with a give-up path cannot deadlock; verify
    // the cancel path keeps the avoidance state clean over many runs.
    let rt = Runtime::new(Config::default()).unwrap();
    let report = explore(0..50, |seed| {
        let mut sim = Sim::new(&rt, seed);
        let a = sim.lock_handle("A");
        let b = sim.lock_handle("B");
        sim.spawn(
            "T1",
            Script::new()
                .lock(a)
                .compute(2)
                .try_lock(b)
                .unlock_if_held(b)
                .unlock(a),
        );
        sim.spawn(
            "T2",
            Script::new()
                .lock(b)
                .compute(2)
                .try_lock(a)
                .unlock_if_held(a)
                .unlock(b),
        );
        sim.run()
    });
    assert_eq!(report.completed_seeds.len(), 50, "{report:?}");
    assert!(rt.history().is_empty(), "no deadlock, no signature");
}

#[test]
fn signatures_survive_simulated_restart() {
    // Two runtimes sharing one history file model two program executions.
    let path =
        std::env::temp_dir().join(format!("dimmunix-sim-restart-{}.dlk", std::process::id()));
    std::fs::remove_file(&path).ok();
    let seed;
    {
        let rt = Runtime::new(Config {
            history_path: Some(path.clone()),
            ..Config::default()
        })
        .unwrap();
        seed = find_deadlock_seed(&rt);
        rt.save_history().unwrap();
    }
    {
        let rt = Runtime::new(Config {
            history_path: Some(path.clone()),
            ..Config::default()
        })
        .unwrap();
        assert_eq!(rt.history().len(), 1, "history loaded at startup");
        let report = abba_sim(&rt, seed).run();
        assert!(
            report.completed(),
            "immune after restart: {:?}",
            report.outcome
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn starvation_is_broken_not_fatal() {
    // Force an avoidance-induced starvation: T0 yields because of T1, but
    // T1 is blocked behind T2 which never releases until T0 progresses...
    // Simplest robust check: run a 4-thread mix long enough that yields
    // happen, and assert the sim always terminates (weak immunity breaks
    // any starvation).
    let rt = Runtime::new(Config::default()).unwrap();
    let build = |rt: &Runtime, seed: u64| {
        let mut sim = Sim::with_config(
            rt,
            seed,
            SimConfig {
                max_yield_steps: Some(500),
                ..SimConfig::default()
            },
        );
        let a = sim.lock_handle("A");
        let b = sim.lock_handle("B");
        let c = sim.lock_handle("C");
        for (name, first, second) in [("T1", a, b), ("T2", b, a), ("T3", b, c), ("T4", c, a)] {
            sim.spawn(
                name,
                Script::new().scoped("mix", |s| {
                    s.lock(first)
                        .compute(3)
                        .lock(second)
                        .unlock(second)
                        .unlock(first)
                }),
            );
        }
        sim
    };
    let mut completed_after = 0;
    for seed in 0..64 {
        let r = build(&rt, seed).run();
        if r.completed() {
            completed_after += 1;
        }
    }
    assert!(completed_after > 0);
    // After enough learning, everything completes.
    let report = explore(100..150, |seed| build(&rt, seed).run());
    assert_eq!(
        report.completed_seeds.len() + report.deadlock_seeds.len(),
        50
    );
    assert_eq!(report.exhausted_seeds.len(), 0, "sim never wedges");
}

#[test]
fn weak_immunity_reoccurrence_is_bounded() {
    // §5.4: with weak immunity a pattern can reoccur, but boundedly (the
    // nesting depth). Starvation breaks may let the original deadlock slip
    // through; the history then gains the starvation signature and the
    // program converges. We check convergence: after enough runs, no new
    // signatures are added.
    let rt = Runtime::new(Config::default()).unwrap();
    for seed in 0..64 {
        abba_sim(&rt, seed).run();
    }
    let sigs_then = rt.history().len();
    for seed in 64..128 {
        abba_sim(&rt, seed).run();
    }
    assert_eq!(rt.history().len(), sigs_then, "history converged");
}

#[test]
fn eight_thread_storm_completes_on_sharded_match_path() {
    // After immunization, eight simulated threads hammer the same ABBA
    // pattern through the *same* call sites, so nearly every second-lock
    // request lands in a populated signature-member bucket. This drives
    // the sharded matching path — emptiness prechecks, shard-ordered
    // cover searches, and the sharded wake index under repeated yield
    // storms — from simulated threads rather than OS threads.
    let rt = Runtime::new(Config::default()).unwrap();
    find_deadlock_seed(&rt);
    let report = explore(0..16, |seed| {
        let mut sim = Sim::new(&rt, seed);
        let a = sim.lock_handle("A");
        let b = sim.lock_handle("B");
        for i in 0..8 {
            let (first, second) = if i % 2 == 0 { (a, b) } else { (b, a) };
            sim.spawn(
                "W",
                Script::new().scoped("update", |s| {
                    s.lock(first)
                        .compute(3)
                        .lock(second)
                        .unlock(second)
                        .unlock(first)
                }),
            );
        }
        sim.run()
    });
    assert_eq!(report.completed_seeds.len(), 16, "{report:?}");
    assert!(
        report.total_yields >= 1,
        "storm must have avoided: {report:?}"
    );
}
