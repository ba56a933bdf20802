//! Quiet holds under the simulator, in lockstep with the reference engine:
//! a lock a thread takes alone is not published until the thread nests
//! another inside it, and that changes nothing the monitor detects.

use dimmunix_core::{Config, Runtime};
use dimmunix_threadsim::{Outcome, ReplayScheduler, Script, Sim, SimConfig};

/// T1 enters its scope and takes A, T2 enters its scope and takes B, then
/// each asks for the other's lock and blocks.
const ABBA: [usize; 6] = [0, 0, 1, 1, 0, 1];

/// ABBA with the monitor stepped before every scheduling decision and the
/// reference engine shadowing every hook, stopped after `max_steps`.
fn abba(rt: &Runtime, max_steps: u64) -> Sim {
    let config = SimConfig {
        monitor_every: 1,
        max_steps,
        ..SimConfig::default()
    };
    let mut sim = Sim::with_config(rt, 0, config);
    sim.attach_shadow();
    let a = sim.lock_handle("A");
    let b = sim.lock_handle("B");
    let t1 = Script::new().scoped("t1", |s| s.lock(a).lock(b).unlock(b).unlock(a));
    let t2 = Script::new().scoped("t2", |s| s.lock(b).lock(a).unlock(a).unlock(b));
    sim.spawn("T1", t1);
    sim.spawn("T2", t2);
    sim
}

/// Each label of the runtime's one signature as `function@file:line`
/// frames, outermost first; the labels sorted.
fn signature_labels(rt: &Runtime) -> Vec<String> {
    let history = rt.history().snapshot();
    assert_eq!(history.len(), 1, "one signature");
    let mut labels: Vec<String> = history[0]
        .stacks
        .iter()
        .map(|&stack| {
            let frames = rt.stack_table().resolve(stack);
            let frames = frames.iter().map(|&f| {
                let f = rt.frame_table().resolve(f);
                format!("{}@{}:{}", f.function, f.file, f.line)
            });
            frames.collect::<Vec<_>>().join(" > ")
        })
        .collect();
    labels.sort();
    labels
}

/// Both outer locks start as quiet holds — two decisions in, T1 holds A
/// and the monitor has been told nothing — yet the deadlock is detected
/// with the labels, and on the pass, it was at the commit before quiet
/// holds: every nested request publishes its thread's quiet hold first.
#[test]
fn an_abba_over_quiet_outer_holds_is_detected_as_before() {
    let rt = Runtime::new(Config::default()).unwrap();
    let mut sim = abba(&rt, 2);
    let report = sim.run_with(&mut ReplayScheduler::strict(ABBA));
    assert_eq!(report.outcome, Outcome::MaxSteps);
    let s = rt.stats();
    assert_eq!((s.acquisitions, s.events_processed), (1, 0), "{s:?}");
    assert!(!rt.rag_dot().contains("hold"), "{}", rt.rag_dot());
    assert!(sim.shadow_divergences().is_empty());
    drop(sim);

    let rt = Runtime::new(Config::default()).unwrap();
    let mut sim = abba(&rt, 1_000);
    let mut sched = ReplayScheduler::strict(ABBA);
    let report = sim.run_with(&mut sched);
    assert!(!sched.diverged());
    assert!(
        matches!(report.outcome, Outcome::Deadlock { .. }),
        "{:?}",
        report.outcome
    );
    assert!(
        sim.shadow_divergences().is_empty(),
        "{:?}",
        sim.shadow_divergences()
    );
    // One pass before each of the six decisions, the seventh finds the
    // cycle, the eighth is the run's closing drain: as before quiet holds.
    let s = rt.stats();
    assert_eq!((s.deadlocks_detected, s.monitor_passes), (1, 8), "{s:?}");
    assert_eq!(
        signature_labels(&rt),
        [
            "t1@<call>:0 > lock@<script>:1",
            "t2@<call>:0 > lock@<script>:1"
        ]
    );
}

/// T1 takes A alone and computes; T2 asks for A and blocks on T1's quiet
/// hold. The monitor claims it, so the blocked waiter's "waiting for whom"
/// is in the RAG; once both pairs end no edge is left.
#[test]
fn a_hold_claimed_for_a_blocked_waiter_leaves_no_stale_edge() {
    let run = |max_steps| {
        let rt = Runtime::new(Config::default()).unwrap();
        let config = SimConfig {
            monitor_every: 1,
            max_steps,
            ..SimConfig::default()
        };
        let mut sim = Sim::with_config(&rt, 0, config);
        sim.attach_shadow();
        let a = sim.lock_handle("A");
        sim.spawn("T1", Script::new().lock(a).compute(3).unlock(a));
        sim.spawn("T2", Script::new().lock(a).unlock(a));
        let mut sched = ReplayScheduler::strict([0, 1, 0, 0, 0, 1, 1]);
        let report = sim.run_with(&mut sched);
        assert!(!sched.diverged());
        assert!(
            sim.shadow_divergences().is_empty(),
            "{:?}",
            sim.shadow_divergences()
        );
        // Read before `sim` drops and deregisters its threads.
        (report.outcome, rt.rag_dot(), rt.stats())
    };
    let edges = |dot: &str, label: &str| dot.matches(&format!("[label=\"{label}")).count();

    let (outcome, dot, s) = run(3);
    assert_eq!(outcome, Outcome::MaxSteps);
    assert_eq!((edges(&dot, "allow"), edges(&dot, "hold")), (1, 1), "{dot}");
    assert_eq!(s.quiet_pairs, 0, "{s:?}");

    let (outcome, dot, s) = run(1_000);
    assert_eq!(outcome, Outcome::Completed);
    assert_eq!((edges(&dot, "allow"), edges(&dot, "hold")), (0, 0), "{dot}");
    assert_eq!(
        s.quiet_pairs, 0,
        "claimed, then its waiter's went through Go"
    );
    assert_eq!(
        s.events_processed,
        s.requests + s.gos + s.acquisitions + s.releases,
        "{s:?}"
    );
}
