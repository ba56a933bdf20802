//! The chaos storm: Table-1-style workloads driven under seed-derived
//! random fault plans, plus a lockstep differential run under monitor
//! chaos.
//!
//! Every case is replayable from its proptest seed: the fault plan is a
//! pure function of the case's `seed` input (`FaultPlan::from_seed`), and
//! the workload schedules are seeded too. CI runs this suite with a fixed
//! `PROPTEST_CASES` budget.

use dimmunix_chaos::{quiet_scripted_panics, tmp_path};
use dimmunix_core::{Config, CycleKind, Decision, PredictionConfig, Runtime};
use dimmunix_inject::{install, FaultPlan, MonitorFault, MonitorFaultKind};
use dimmunix_threadsim::Lockstep;
use dimmunix_workloads::{run_once, table1};
use proptest::prelude::*;
use std::time::Duration;

/// Splittable xorshift64* — deterministic op-stream driver (the chaos
/// crate deliberately has no RNG dependency).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One fixed-seed storm with prediction enabled: the monitor is scripted-
/// killed mid-storm, and the restart path must keep the predictor as its
/// last completed call left it. A lock ordering taught (and fully released)
/// before the kill combines with only its post-storm inverse into a fresh
/// prediction — impossible if the respawned monitor had started from an
/// empty lock-order graph.
#[test]
fn seeded_storm_with_prediction_restores_predictor_across_restart() {
    quiet_scripted_panics();
    let guard = install(FaultPlan::none().kill_monitor_after(2, 1));
    let path = tmp_path("storm-predict");
    std::fs::remove_file(&path).ok();
    let rt = Runtime::new(Config {
        history_path: Some(path.clone()),
        prediction: Some(PredictionConfig::default()),
        ..Config::default()
    })
    .unwrap();

    // Taught before the kill; locks `a`/`b` are never touched again until
    // the post-storm inverse, so the edge survives only in the snapshot.
    let t0 = rt.core().register_thread().unwrap();
    let a = rt.new_lock_id();
    let b = rt.new_lock_id();
    let sa = rt.make_site(&[("predict_seed", "chaos.rs", 1)]);
    let sb = rt.make_site(&[("predict_seed", "chaos.rs", 2)]);
    rt.core().request(t0, a, sa.frames(), sa.stack());
    rt.core().acquired(t0, a, sa.stack());
    rt.core().request(t0, b, sb.frames(), sb.stack());
    rt.core().acquired(t0, b, sb.stack());
    rt.core().release(t0, b);
    rt.core().release(t0, a);
    rt.step_monitor(); // pass 1 succeeds: snapshot holds a→b

    // The storm: seeded Table-1-style workloads; the scripted kill fires
    // on the next monitor pass inside the first run.
    let workloads = table1();
    for s in 0..4_u64 {
        run_once(&rt, &workloads[(s as usize) % workloads.len()], 0xD1A6 + s);
    }
    for _ in 0..8 {
        rt.step_monitor(); // drain anything the storm left queued
    }
    let before = rt.stats();
    assert!(before.monitor_restarts >= 1, "{before:?}");
    assert_eq!(before.degraded_mode, 0, "{before:?}");

    // Only the inverse ordering after the storm: a new prediction needs
    // the pre-kill a→b edge out of the restored predictor clone.
    let t1 = rt.core().register_thread().expect("slots exhausted");
    rt.core().request(t1, b, sb.frames(), sb.stack());
    rt.core().acquired(t1, b, sb.stack());
    rt.core().request(t1, a, sa.frames(), sa.stack());
    rt.core().acquired(t1, a, sa.stack());
    rt.core().release(t1, a);
    rt.core().release(t1, b);
    rt.step_monitor();

    let after = rt.stats();
    assert!(
        after.cycles_predicted > before.cycles_predicted,
        "inverse ordering must predict against the restored snapshot: \
         before {before:?}, after {after:?}"
    );
    assert_eq!(guard.fired().monitor_faults, 1);
    drop(guard);
    drop(rt);
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// No-hang / no-lost-wakeup under randomized faults: a Table-1-style
    /// workload keeps terminating (the simulator's step bound turns a hang
    /// into a failure), the runtime stays decision-sound afterwards, and
    /// whatever the storm leaves on disk still boots.
    #[test]
    fn table1_workloads_survive_seeded_fault_plans(seed in any::<u64>()) {
        quiet_scripted_panics();
        let mut plan = FaultPlan::from_seed(seed);
        // Scripted thread panics target real OS threads (covered by the
        // degradation-path tests); the simulator's threads are virtual.
        plan.acquire_panics.clear();
        if plan.monitor.is_none() && plan.history.is_none() {
            // Never run a fault-free "storm": stall a few passes instead.
            plan.monitor = Some(MonitorFault {
                after_pass: 1,
                kind: MonitorFaultKind::Stall(Duration::from_millis(1)),
                times: 3,
            });
        }
        let guard = install(plan);

        let path = tmp_path(&format!("storm-{seed:016x}"));
        std::fs::remove_file(&path).ok();
        let workloads = table1();
        let w = &workloads[(seed as usize) % workloads.len()];
        let rt = Runtime::new(Config {
            history_path: Some(path.clone()),
            ..Config::default()
        }).unwrap();

        // Returning at all is the no-hang property: Sim bounds both steps
        // and yield waits, and the monitor is stepped (and possibly killed,
        // stalled, restarted, degraded) inside each run.
        for s in 0..4_u64 {
            run_once(&rt, w, s);
        }

        // Let any remaining scripted monitor faults burn out (bounded
        // `times` by construction), then check the runtime is still sound:
        // a fresh vaccination must still produce a yield.
        for _ in 0..8 {
            rt.step_monitor();
        }
        let sa = rt.make_site(&[("storm_check", "chaos.rs", 1)]);
        let sb = rt.make_site(&[("storm_check", "chaos.rs", 2)]);
        rt.history().add(CycleKind::Deadlock, vec![sa.stack(), sb.stack()], 2).unwrap();
        rt.history().touch();
        rt.step_monitor(); // publish (a degraded pass still republishes)
        let t0 = rt.core().register_thread().expect("slots exhausted");
        let t1 = rt.core().register_thread().expect("slots exhausted");
        let a = rt.new_lock_id();
        let b = rt.new_lock_id();
        rt.core().request(t0, a, sa.frames(), sa.stack());
        rt.core().acquired(t0, a, sa.stack());
        let d = rt.core().request(t1, b, sb.frames(), sb.stack());
        prop_assert!(
            matches!(d, Decision::Yield { .. }),
            "post-storm vaccination ignored (seed {seed:016x}): {d:?}, {:?}",
            rt.stats()
        );
        rt.core().cancel(t1, b);

        // Whatever file state the storm (and its history faults) left
        // behind must boot — salvaged or clean.
        let fired = guard.fired();
        drop(guard); // final shutdown save + verification boot run clean
        drop(rt);
        let reboot = Runtime::new(Config {
            history_path: Some(path.clone()),
            ..Config::default()
        });
        prop_assert!(reboot.is_ok(), "storm left an unbootable history: {reboot:?}");
        drop(reboot);
        std::fs::remove_file(&path).ok();
        prop_assert!(
            fired.monitor_faults + fired.history_faults > 0,
            "seed {seed:016x} injected nothing: {fired:?}"
        );
    }

    /// Lockstep differential under monitor chaos: with the monitor being
    /// scripted-killed and restarted underneath, the surviving decisions
    /// (GO, or YIELD and on which signature) and wake sets must still
    /// match the preserved single-lock
    /// [`ReferenceCore`](dimmunix_core::ReferenceCore) at every hook. Ops
    /// are try-lock style (a yield cancels immediately), so successful
    /// monitor passes are decision-neutral and every divergence is a real
    /// soundness bug.
    #[test]
    fn surviving_decisions_match_reference_under_monitor_chaos(seed in any::<u64>()) {
        quiet_scripted_panics();
        let guard = install(FaultPlan::none().kill_monitor_after(1, 3));
        let rt = Runtime::new(Config::default()).unwrap();
        let mut ls = Lockstep::with_reference(&rt);

        const THREADS: usize = 3;
        const LOCKS: usize = 4;
        let sites: Vec<_> = (0..4)
            .map(|p| rt.make_site(&[("op", "chaos.rs", p), ("outer", "chaos.rs", 99)]))
            .collect();
        let tids: Vec<_> = (0..THREADS).map(|_| ls.register("T")).collect();
        let locks: Vec<_> = (0..LOCKS).map(|_| rt.new_lock_id()).collect();

        let mut rng = Rng::new(seed);
        let mut held: Vec<Vec<usize>> = vec![Vec::new(); THREADS];
        let mut owner: Vec<Option<usize>> = vec![None; LOCKS];
        let mut compared = 0_u64;
        rt.step_monitor(); // pass 1: the first scripted kill

        for step in 0..400 {
            match rng.below(8) {
                0..=4 => {
                    let t = rng.below(THREADS as u64) as usize;
                    let l = rng.below(LOCKS as u64) as usize;
                    let p = rng.below(4) as usize;
                    if held[t].contains(&l) {
                        continue; // keep both engines off the reentrant path
                    }
                    let site = &sites[p];
                    let d = ls.request(tids[t], locks[l], site.frames(), site.stack());
                    compared += 1;
                    if matches!(d, Decision::Go) && owner[l].is_none() {
                        ls.acquired(tids[t], locks[l], site.stack());
                        owner[l] = Some(t);
                        held[t].push(l);
                    } else {
                        // Contended or yielded: try-lock semantics, back off.
                        ls.cancel(tids[t], locks[l]);
                    }
                }
                5 => {
                    let t = rng.below(THREADS as u64) as usize;
                    if let Some(l) = held[t].pop() {
                        ls.release(tids[t], locks[l]);
                        owner[l] = None;
                    }
                }
                6 => {
                    let (i, j) = (rng.below(4) as usize, rng.below(4) as usize);
                    if i != j {
                        let depth = 2 + rng.below(2) as u8;
                        // None = dedup hit; repeats are expected here.
                        rt.history().add(
                            CycleKind::Deadlock,
                            vec![sites[i].stack(), sites[j].stack()],
                            depth,
                        );
                        rt.history().touch(); // both engines share this history
                    }
                }
                _ => rt.step_monitor(), // chaos target: may die and restart
            }
            prop_assert!(
                ls.divergences().is_empty(),
                "divergence at step {} (seed {:016x}): {:?}",
                step, seed, ls.divergences()
            );
        }
        let stats = rt.stats();
        prop_assert!(compared > 0);
        prop_assert!(
            stats.monitor_restarts >= 1,
            "the scripted monitor kill never fired: {stats:?}"
        );
        prop_assert!(guard.fired().monitor_faults >= 1);
    }
}

/// Every checked-in corpus fixture — a minimized schedule the explorer
/// proved deadlocks on a fresh runtime — is replayed here under an
/// *immunized* runtime (vaccinated with the signature its own deadlock
/// captures) while the fault-injection hooks are armed but quiet. None
/// may deadlock: the corpus is the regression fence for the avoidance
/// engine itself.
#[test]
fn corpus_fixtures_stay_immune_under_armed_hooks() {
    use dimmunix_explore::{default_corpus_dir, load_dir, mine_vaccine};

    let _guard = install(FaultPlan::none());
    let fixtures = load_dir(&default_corpus_dir()).expect("corpus dir loads");
    assert!(fixtures.len() >= 3, "corpus too small: {}", fixtures.len());
    for (path, fx) in fixtures {
        let vax = tmp_path(&format!(
            "chaos-corpus-{}",
            path.file_stem().unwrap().to_string_lossy()
        ));
        std::fs::remove_file(&vax).ok();
        mine_vaccine(&fx.scenario, &fx.schedule, 100_000, &vax)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let rt = Runtime::new(Config::default()).expect("runtime");
        assert!(rt.vaccinate(&vax).expect("vaccinate") >= 1);
        fx.verify_immunized(&rt)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        std::fs::remove_file(&vax).ok();
    }
}
