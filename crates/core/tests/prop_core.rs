//! Property tests of the avoidance engine: safety invariants under
//! randomized scenarios.

use dimmunix_core::{Config, CycleKind, Decision, Runtime};
use proptest::prelude::*;

/// A randomized single-run scenario over a small universe of threads,
/// locks and call paths.
#[derive(Clone, Debug)]
enum Op {
    Acquire { t: u8, l: u8, path: u8 },
    Release { t: u8 },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0_u8..4, 0_u8..4, 0_u8..6).prop_map(|(t, l, path)| Op::Acquire { t, l, path }),
            (0_u8..4).prop_map(|t| Op::Release { t }),
        ],
        0..80,
    )
}

fn build_runtime(with_history: bool) -> Runtime {
    let rt = Runtime::new(Config::default()).unwrap();
    if with_history {
        // Signatures over a subset of the paths used by the scenario.
        let paths: Vec<Vec<(&str, &str, u32)>> = (0..6_u32)
            .map(|p| vec![("caller", "s.rs", p), ("inner", "s.rs", 100 + p)])
            .collect();
        for (i, j) in [(0_usize, 1_usize), (2, 3), (1, 4)] {
            let a = rt.make_site(&paths[i]).stack();
            let b = rt.make_site(&paths[j]).stack();
            rt.history().add(CycleKind::Deadlock, vec![a, b], 2);
        }
        rt.history().touch();
    }
    rt
}

/// Replays a scenario, returning the decision sequence. Threads that hold
/// no lock release nothing; a yielding request is recorded and cancelled so
/// the run keeps moving deterministically.
fn replay(rt: &Runtime, ops: &[Op]) -> Vec<bool> {
    let tids: Vec<_> = (0..4)
        .map(|_| rt.core().register_thread().unwrap())
        .collect();
    let locks: Vec<_> = (0..4).map(|_| rt.new_lock_id()).collect();
    let sites: Vec<_> = (0..6_u32)
        .map(|p| rt.make_site(&[("caller", "s.rs", p), ("inner", "s.rs", 100 + p)]))
        .collect();
    let mut held: Vec<Vec<usize>> = vec![Vec::new(); 4];
    let mut lock_owner: Vec<Option<usize>> = vec![None; 4];
    let mut decisions = Vec::new();
    for op in ops {
        match *op {
            Op::Acquire { t, l, path } => {
                let (ti, li) = (t as usize, l as usize);
                // Keep the run deadlock-free and simple: only acquire free
                // locks with a thread that isn't the owner.
                if lock_owner[li].is_some() {
                    continue;
                }
                let site = &sites[path as usize];
                match rt
                    .core()
                    .request(tids[ti], locks[li], site.frames(), site.stack())
                {
                    Decision::Go => {
                        decisions.push(true);
                        rt.core().acquired(tids[ti], locks[li], site.stack());
                        lock_owner[li] = Some(ti);
                        held[ti].push(li);
                    }
                    Decision::Yield { .. } => {
                        decisions.push(false);
                        rt.core().cancel(tids[ti], locks[li]);
                    }
                }
            }
            Op::Release { t } => {
                let ti = t as usize;
                if let Some(li) = held[ti].pop() {
                    rt.core().release(tids[ti], locks[li]);
                    lock_owner[li] = None;
                }
            }
        }
    }
    decisions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With an empty history, the engine never yields: "a program that
    /// never deadlocks will have a perpetually empty history, which means
    /// no avoidance will ever be done" (§5.7).
    #[test]
    fn empty_history_never_yields(ops in arb_ops()) {
        let rt = build_runtime(false);
        let decisions = replay(&rt, &ops);
        prop_assert!(decisions.iter().all(|&d| d), "yield without history");
        prop_assert_eq!(rt.stats().yields, 0);
    }

    /// Monitor replay of any such scenario never fabricates a deadlock:
    /// the scenario only ever acquires free locks, so no cycle can exist.
    #[test]
    fn no_false_deadlocks_from_clean_runs(ops in arb_ops()) {
        let rt = build_runtime(true);
        replay(&rt, &ops);
        rt.step_monitor();
        prop_assert_eq!(rt.stats().deadlocks_detected, 0);
        // History still holds exactly the 3 seeded signatures.
        prop_assert_eq!(rt.history().len(), 3);
    }
}
