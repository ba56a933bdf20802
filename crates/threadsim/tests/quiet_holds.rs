//! Quiet holds under the simulator, in lockstep with the reference engine:
//! a lock a thread takes alone is not published until the thread nests
//! another inside it — on a signature stack too, where covers still see it
//! — and that changes nothing the monitor detects.

use dimmunix_core::{Config, CycleKind, Runtime, StackId};
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

/// The stack a script scoped in `scope` locks with at program position
/// `pc`: a signature member to preload.
fn script_stack(rt: &Runtime, scope: &str, pc: u32) -> StackId {
    let frames = [
        rt.frame_table().intern(scope, "<call>", 0),
        rt.frame_table().intern("lock", "<script>", pc),
    ];
    rt.stack_table().intern(&frames)
}

/// Each label of the runtime's signature `at` (in history order) as
/// `function@file:line` frames, outermost first; the labels sorted.
fn signature_labels(rt: &Runtime, at: usize) -> Vec<String> {
    let history = rt.history().snapshot();
    let mut labels: Vec<String> = history[at]
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
    assert_eq!(rt.history().len(), 1, "one signature");
    assert_eq!(
        signature_labels(&rt, 0),
        [
            "t1@<call>:0 > lock@<script>:1",
            "t2@<call>:0 > lock@<script>:1"
        ]
    );
}

/// ABBA with both outer locks on signature stacks: a preloaded decoy names
/// them beside a stack no one locks with, so each outer grant is bucketed,
/// finds no cover, and is a quiet hold all the same. The deadlock is
/// detected with the labels, and on the pass, it was before.
#[test]
fn an_abba_over_quiet_outer_holds_on_signature_stacks_is_detected_as_before() {
    let decoyed = || {
        let rt = Runtime::new(Config::default()).unwrap();
        let members = ["t1", "t2", "nowhere"].map(|scope| script_stack(&rt, scope, 1));
        let decoy = rt.history().add(CycleKind::Deadlock, members.to_vec(), 2);
        assert!(decoy.is_some());
        rt
    };
    let rt = decoyed();
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
    let s = rt.stats();
    assert_eq!((s.deadlocks_detected, s.monitor_passes), (1, 8), "{s:?}");
    assert_eq!(rt.history().len(), 2, "the decoy and the deadlock");
    assert_eq!(
        signature_labels(&rt, 1),
        [
            "t1@<call>:0 > lock@<script>:1",
            "t2@<call>:0 > lock@<script>:1"
        ]
    );
    drop(sim);

    // Two decisions in, T1 holds A in its bucket, and the monitor has been
    // told nothing.
    let rt = decoyed();
    let mut sim = abba(&rt, 2);
    let report = sim.run_with(&mut ReplayScheduler::strict(ABBA));
    assert_eq!(report.outcome, Outcome::MaxSteps);
    assert!(sim.shadow_divergences().is_empty());
    assert_eq!(rt.occupancy_skew().live_entries, 1);
    let s = rt.stats();
    assert_eq!((s.acquisitions, s.events_processed), (1, 0), "{s:?}");
}

/// T1 takes A on a signature stack — a quiet hold — and T2, holding X,
/// yields with `(T1, A)` as its cause; then T1 blocks on X. The yield
/// cycle is detected on the pass, and with the labels, it was before: T1's
/// request for X published its hold of A ahead of the `Go` that left it
/// stuck.
#[test]
fn a_yield_cycle_through_a_quiet_cause_is_detected_as_before() {
    let run = |max_steps| {
        let rt = Runtime::new(Config::default()).unwrap();
        let members = vec![script_stack(&rt, "t1", 1), script_stack(&rt, "t2", 2)];
        assert!(rt.history().add(CycleKind::Deadlock, members, 2).is_some());
        let config = SimConfig {
            monitor_every: 1,
            max_steps,
            ..SimConfig::default()
        };
        let mut sim = Sim::with_config(&rt, 0, config);
        sim.attach_shadow();
        let a = sim.lock_handle("A");
        let b = sim.lock_handle("B");
        let x = sim.lock_handle("X");
        let t1 = Script::new().scoped("t1", |s| s.lock(a).lock(x).unlock(x).unlock(a));
        let t2 = Script::new().scoped("t2", |s| s.lock(x).lock(b).unlock(b).unlock(x));
        sim.spawn("T1", t1);
        sim.spawn("T2", t2);
        let mut sched = ReplayScheduler::strict([0, 0, 1, 1, 1, 0]);
        let report = sim.run_with(&mut sched);
        assert!(!sched.diverged());
        assert!(
            sim.shadow_divergences().is_empty(),
            "{:?}",
            sim.shadow_divergences()
        );
        // Read before `sim` drops and deregisters its threads.
        let live = rt.occupancy_skew().live_entries;
        (report.outcome, rt.stats(), live, rt)
    };
    let (outcome, s, _, _) = run(5);
    assert_eq!(outcome, Outcome::MaxSteps);
    assert_eq!((s.yields, s.starvations_detected), (1, 0), "{s:?}");
    // One pass before each of the six decisions, the seventh finds the
    // cycle: as when every hold on a signature stack was published.
    let (outcome, s, _, rt) = run(6);
    assert_eq!(outcome, Outcome::MaxSteps);
    assert_eq!((s.starvations_detected, s.monitor_passes), (1, 7), "{s:?}");
    assert_eq!(rt.history().len(), 2, "the preloaded and the starvation");
    assert_eq!(
        signature_labels(&rt, 1),
        [
            "t1@<call>:0 > lock@<script>:1",
            "t2@<call>:0 > lock@<script>:1"
        ]
    );
    let (outcome, s, _, _) = run(1_000);
    assert_eq!(outcome, Outcome::Completed);
    assert_eq!((s.starvations_detected, s.yields_broken), (1, 1), "{s:?}");

    // Four decisions in, both threads hold their outer locks quietly, and
    // T1's hold of A is in its bucket.
    let (_, s, live, _) = run(4);
    assert_eq!(live, 1);
    assert_eq!((s.acquisitions, s.events_processed), (2, 0), "{s:?}");
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
