//! Deterministic exhaustive-exploration regressions: exact interleaving
//! counts for the canonical AB/BA inversion, DPOR-vs-naive differential
//! equivalence, and minimizer behaviour.

use dimmunix_core::{Config, Runtime};
use dimmunix_explore::corpus::edges_fingerprint;
use dimmunix_explore::{
    explore, minimize, scenarios, Exploration, ExploreConfig, Pruning, Scenario,
};

fn fresh() -> Runtime {
    Runtime::new(Config::default()).expect("runtime")
}

fn run(s: &Scenario, pruning: Pruning) -> Exploration {
    let cfg = ExploreConfig {
        pruning,
        max_schedules: 200_000,
        ..ExploreConfig::default()
    };
    explore(s, &cfg, fresh)
}

/// The canonical 2-thread AB/BA inversion has exactly one Mazurkiewicz
/// trace that deadlocks, and DPOR visits it exactly once. The counts are
/// fully deterministic: the driver is a DFS over recorded decision
/// prefixes with no randomness anywhere.
#[test]
fn ab_ba_exact_interleaving_counts() {
    let first = run(&scenarios::ab_ba(), Pruning::Dpor);
    assert!(
        first.complete,
        "space must be exhausted: {}",
        first.summary()
    );
    assert!(first.violations.is_empty(), "{:?}", first.violations);
    // 9 executed schedules: 8 complete, exactly 1 reaches the deadlock
    // state (T1 holds A wanting B, T2 holds B wanting A).
    assert_eq!(first.runs, 9, "{}", first.summary());
    assert_eq!(first.deadlocked, 1, "{}", first.summary());
    assert_eq!(first.completed, 8, "{}", first.summary());
    assert_eq!(first.deadlocks.len(), 1, "one distinct wait-for cycle");
    assert_eq!(first.exhausted, 0);

    // Deterministic: a second exploration reproduces every number and
    // the same witness schedule.
    let second = run(&scenarios::ab_ba(), Pruning::Dpor);
    assert_eq!(second.runs, first.runs);
    assert_eq!(second.pruned, first.pruned);
    assert_eq!(second.decisions, first.decisions);
    assert_eq!(second.outcomes, first.outcomes);
    assert_eq!(
        second.deadlocks[0].schedule, first.deadlocks[0].schedule,
        "witness schedule must be reproducible"
    );
}

/// Naive full enumeration agrees with DPOR on *what* can happen — the
/// distinct outcome set — while exploring far more schedules. Three small
/// scenarios keep the naive side tractable.
#[test]
fn dpor_matches_naive_outcome_sets() {
    for s in [
        scenarios::ab_minimal(),
        scenarios::trylock_mix(),
        scenarios::same_order(),
    ] {
        let dpor = run(&s, Pruning::Dpor);
        let naive = run(&s, Pruning::Naive);
        assert!(dpor.complete, "{}: {}", s.name(), dpor.summary());
        assert!(naive.complete, "{}: {}", s.name(), naive.summary());
        assert_eq!(
            dpor.distinct_outcomes(),
            naive.distinct_outcomes(),
            "{}: DPOR and naive must observe the same outcomes",
            s.name()
        );
        assert!(
            naive.runs > dpor.runs,
            "{}: reduction expected (naive {} vs dpor {})",
            s.name(),
            naive.runs,
            dpor.runs
        );
        assert!(dpor.violations.is_empty(), "{:?}", dpor.violations);
        assert!(naive.violations.is_empty(), "{:?}", naive.violations);
    }
}

/// A preemption bound caps the walk and reports that completeness was
/// given up. The AB/BA deadlock needs exactly one preemption: bound 0
/// cannot see it, bound 1 (over the naive tree, where the bound composes
/// exactly) finds it while exploring far fewer schedules than the full
/// enumeration.
#[test]
fn preemption_bound_is_an_escape_hatch_not_a_lie() {
    let bounded = |b: u32| {
        explore(
            &scenarios::ab_ba(),
            &ExploreConfig {
                pruning: Pruning::Naive,
                preemption_bound: Some(b),
                max_schedules: 200_000,
                ..ExploreConfig::default()
            },
            fresh,
        )
    };
    let zero = bounded(0);
    assert_eq!(zero.deadlocked, 0, "{}", zero.summary());
    assert!(zero.bound_hits > 0, "bound must actually bite");
    assert!(!zero.complete, "a bitten bound forfeits exhaustiveness");

    let one = bounded(1);
    assert!(one.deadlocked >= 1, "{}", one.summary());
    assert!(!one.complete);

    let full = run(&scenarios::ab_ba(), Pruning::Naive);
    assert!(
        zero.runs < one.runs && one.runs < full.runs,
        "bounds must shrink the walk: {} < {} < {}",
        zero.runs,
        one.runs,
        full.runs
    );
}

/// The minimizer collapses a witness that wanders through a redundant
/// lock round down to the 4-decision core of the inversion.
#[test]
fn minimizer_shrinks_detour_witness() {
    let s = scenarios::b_round_detour();
    let ex = run(&s, Pruning::Naive);
    assert!(ex.complete);
    let d = &ex.deadlocks[0];
    let fp = edges_fingerprint(&d.edges);
    // Hand the minimizer a deliberately wasteful witness: T1 completes a
    // full lock/unlock round on B before the inversion bites.
    let long = vec![0, 0, 0, 1, 1, 0];
    let min = minimize(&s, &long, &fp, 20_000, fresh);
    assert_eq!(
        min.len(),
        4,
        "minimal witness is lockA, lockB, block, block: got {min:?}"
    );
    // The minimized schedule still reproduces the same deadlock.
    let fx = dimmunix_explore::Fixture::mined(s, min).expect("minimized witness replays");
    assert_eq!(edges_fingerprint(&fx.edges), fp);
}
