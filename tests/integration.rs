//! Cross-crate integration tests: facade API, workloads, baselines and the
//! simulator working together.

use dimmunix::sim::{Outcome, Script, Sim};
use dimmunix::{Config, CycleKind, Runtime};
use dimmunix_bench::GateLockTable;
use dimmunix_workloads as workloads;

#[test]
fn facade_reexports_cover_the_public_surface() {
    // Types from every layer are reachable through the facade.
    let _cfg: dimmunix::Config = Config::default();
    let _kind: dimmunix::CycleKind = CycleKind::Deadlock;
    let _q: dimmunix::lockfree::MpscQueue<u8> = dimmunix::lockfree::MpscQueue::new();
    let _rag = dimmunix::rag::Rag::new();
    let _tbl = dimmunix::signature::FrameTable::new();
}

#[test]
fn end_to_end_learn_save_vaccinate_gate_compare() {
    let path = std::env::temp_dir().join(format!("dimmunix-int-{}.dlk", std::process::id()));
    std::fs::remove_file(&path).ok();

    // 1. Learn the MySQL workload's signature in a simulator.
    let rt = Runtime::new(Config {
        history_path: Some(path.clone()),
        ..Config::default()
    })
    .unwrap();
    let seeds = workloads::find_exploits(&workloads::mysql::WORKLOAD, 0..512, 1);
    let report = workloads::run_once(&rt, &workloads::mysql::WORKLOAD, seeds[0]);
    assert!(matches!(report.outcome, Outcome::Deadlock { .. }));
    rt.save_history().unwrap();
    assert_eq!(rt.history().len(), 1);

    // 2. A second installation is vaccinated from the file.
    let user = Runtime::new(Config::default()).unwrap();
    assert_eq!(user.vaccinate(&path).unwrap(), 1);
    let r = workloads::run_once(&user, &workloads::mysql::WORKLOAD, seeds[0]);
    assert_eq!(r.outcome, Outcome::Completed);

    // 3. The same history can drive the gate-lock baseline: one gate, two
    //    gated sites (INSERT's and TRUNCATE's lock blocks share a gate).
    let gates = GateLockTable::from_history(user.history(), user.stack_table());
    assert_eq!(gates.gate_count(), 1);
    assert_eq!(gates.gated_sites(), 2);

    std::fs::remove_file(&path).ok();
}

#[test]
fn immunity_is_cumulative_across_different_bugs() {
    // One runtime learns several unrelated bugs; immunity accumulates and
    // does not interfere across patterns.
    let rt = Runtime::new(Config::default()).unwrap();
    let bugs = [
        workloads::jdbc::BUG_2147,
        workloads::jdbc::BUG_14972,
        workloads::collections::VECTOR,
    ];
    for bug in &bugs {
        for seed in 0..128 {
            workloads::run_once(&rt, bug, seed);
        }
    }
    let learned = rt.history().len();
    assert!(learned >= 3, "three distinct patterns, got {learned}");
    // Everything completes now, on schedules that previously deadlocked.
    for bug in &bugs {
        let seeds = workloads::find_exploits(bug, 0..512, 2);
        for &s in &seeds {
            let r = workloads::run_once(&rt, bug, s);
            assert!(r.completed(), "{bug:?} seed {s}: {:?}", r.outcome);
        }
    }
}

#[test]
fn sim_and_real_threads_share_one_runtime() {
    // The simulator and real threads can drive the same runtime: immunity
    // learned in simulation protects real threads (same history).
    let rt = Runtime::new(Config::default()).unwrap();

    // Learn ABBA in the simulator with explicitly named sites.
    let mut learned = false;
    for seed in 0..128 {
        let mut sim = Sim::new(&rt, seed);
        let a = sim.lock_handle("A");
        let b = sim.lock_handle("B");
        sim.spawn(
            "S1",
            Script::new()
                .lock_at(a, "site-first")
                .compute(3)
                .lock_at(b, "site-second")
                .unlock(b)
                .unlock(a),
        );
        sim.spawn(
            "S2",
            Script::new()
                .lock_at(b, "site-first")
                .compute(3)
                .lock_at(a, "site-second")
                .unlock(a)
                .unlock(b),
        );
        if matches!(sim.run().outcome, Outcome::Deadlock { .. }) {
            learned = true;
            break;
        }
    }
    assert!(learned);
    let yields_before = rt.stats().yields;

    // Real threads now hit the same pattern through RawLocks at the same
    // sites; the second requester must yield instead of deadlocking.
    let site1 = rt.make_site(&[("site-first", "<site>", 0)]);
    let la = std::sync::Arc::new(rt.raw_lock());
    let lb = std::sync::Arc::new(rt.raw_lock());
    la.lock(&site1); // Main thread plays S1's first step.
    let lb2 = std::sync::Arc::clone(&lb);
    let s1 = site1.clone();
    let h = std::thread::spawn(move || {
        // This request matches the signature (main holds A at site-first):
        // it yields, times out or is woken, and eventually proceeds.
        lb2.lock(&s1);
        lb2.unlock();
    });
    h.join().unwrap();
    la.unlock();
    assert!(
        rt.stats().yields > yields_before,
        "real thread must have yielded on the sim-learned signature"
    );
}

#[test]
fn strong_immunity_hook_fires_under_simulated_starvation() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    let restarts = Arc::new(AtomicUsize::new(0));
    let r2 = Arc::clone(&restarts);
    let hooks = dimmunix::Hooks {
        on_restart_required: Some(Box::new(move || {
            r2.fetch_add(1, Ordering::SeqCst);
        })),
        ..Default::default()
    };
    let rt = Runtime::with_hooks(
        Config {
            immunity: dimmunix::Immunity::Strong,
            ..Config::default()
        },
        hooks,
    )
    .unwrap();
    // Drive enough conflicting schedules that some avoidance-induced
    // starvation arises; under strong immunity each one requests a restart.
    // Every acquisition shares the `acq` site so the learned signature also
    // matches second-lock requests: holders can then yield and mutually pin
    // each other, which is what makes a yield cycle possible at all.
    for seed in 0..200 {
        let mut sim = Sim::new(&rt, seed);
        let a = sim.lock_handle("A");
        let b = sim.lock_handle("B");
        let c = sim.lock_handle("C");
        for (name, x, y) in [("W1", a, b), ("W2", b, a), ("W3", b, c), ("W4", c, a)] {
            sim.spawn(
                name,
                Script::new().scoped("mix", |s| {
                    s.lock_at(x, "acq")
                        .compute(2)
                        .lock_at(y, "acq")
                        .unlock(y)
                        .unlock(x)
                }),
            );
        }
        sim.run();
        if restarts.load(Ordering::SeqCst) > 0 {
            break;
        }
    }
    assert!(
        restarts.load(Ordering::SeqCst) > 0,
        "strong immunity must have requested a restart"
    );
}
