//! The checked-in deadlock corpus gates the engine: every fixture must
//! (a) strictly replay to its recorded deadlock on a fresh runtime, and
//! (b) complete when the runtime is vaccinated with the signature that
//! very deadlock captures. A refactor that breaks either direction —
//! deadlocks that stop reproducing, or vaccines that stop working — fails
//! here before it ships.

use dimmunix_core::{Config, Runtime};
use dimmunix_explore::{default_corpus_dir, load_dir, mine_vaccine, ExpectedOutcome};

#[test]
fn corpus_fixtures_replay_and_vaccinate() {
    let fixtures = load_dir(&default_corpus_dir()).expect("corpus dir loads");
    assert!(
        fixtures.len() >= 3,
        "expected at least 3 checked-in fixtures, found {}",
        fixtures.len()
    );
    for (path, fx) in fixtures {
        assert_eq!(
            fx.expected,
            ExpectedOutcome::Deadlock,
            "{}: the corpus holds deadlocks",
            path.display()
        );
        assert!(!fx.edges.is_empty(), "{}", path.display());

        // Fresh runtime: the schedule must reproduce the exact deadlock.
        let rt = Runtime::new(Config::default()).expect("runtime");
        fx.verify_fresh(&rt)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        drop(rt);

        // Mine the vaccine from this very schedule, then the same
        // schedule on a vaccinated runtime must run to completion.
        let vax = std::env::temp_dir().join(format!(
            "corpus-replay-{}-{}.vax",
            std::process::id(),
            path.file_stem().unwrap().to_string_lossy()
        ));
        mine_vaccine(&fx.scenario, &fx.schedule, 100_000, &vax)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let rt = Runtime::new(Config::default()).expect("runtime");
        let sigs = rt.vaccinate(&vax).expect("vaccinate");
        assert!(sigs >= 1, "{}", path.display());
        fx.verify_immunized(&rt)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let _ = std::fs::remove_file(&vax);
    }
}
