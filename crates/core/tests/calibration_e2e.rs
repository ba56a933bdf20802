//! End-to-end matching-depth calibration (§5.5): the monitor's
//! false-positive probes drive the per-signature state machine, walk the
//! candidate depths, and settle on the smallest depth with the minimal FP
//! rate. Also covers the §8 obsolete-signature discard after recalibration.

use dimmunix_core::{CalibrationConfig, Config, Decision, Runtime};

/// Test world: signature {SA, SB} where SA/SB are 2-frame stacks; a set of
/// "impostor" stacks share SA's innermost frame but differ at depth 2 — they
/// match at depth 1 only.
struct World {
    rt: Runtime,
    t0: dimmunix_core::ThreadId,
    t1: dimmunix_core::ThreadId,
    sa: dimmunix_core::LockSite,
    sb: dimmunix_core::LockSite,
    /// Same depth-1 suffix as SA, different outer frame.
    sa_shallow: dimmunix_core::LockSite,
}

impl World {
    fn new(cal: CalibrationConfig) -> Self {
        let rt = Runtime::new(Config {
            calibration: Some(cal),
            ..Config::default()
        })
        .unwrap();
        let t0 = rt.core().register_thread().unwrap();
        let t1 = rt.core().register_thread().unwrap();
        let sa = rt.make_site(&[("main", "w.rs", 1), ("update", "w.rs", 3)]);
        let sb = rt.make_site(&[("main", "w.rs", 2), ("update", "w.rs", 3)]);
        let sa_shallow = rt.make_site(&[("other", "w.rs", 9), ("update", "w.rs", 3)]);
        Self {
            rt,
            t0,
            t1,
            sa,
            sb,
            sa_shallow,
        }
    }

    /// Seeds the {SA, SB} signature via a real deadlock, then recovers.
    fn seed(&self) {
        let a = self.rt.new_lock_id();
        let b = self.rt.new_lock_id();
        let core = self.rt.core();
        core.request(self.t0, a, self.sa.frames(), self.sa.stack());
        core.acquired(self.t0, a, self.sa.stack());
        core.request(self.t1, b, self.sb.frames(), self.sb.stack());
        core.acquired(self.t1, b, self.sb.stack());
        // Both are granted the other's lock and block on it.
        core.request(self.t0, b, self.sb.frames(), self.sb.stack());
        core.waiting(self.t0, b, self.sb.stack());
        core.request(self.t1, a, self.sa.frames(), self.sa.stack());
        core.waiting(self.t1, a, self.sa.stack());
        self.rt.step_monitor();
        core.release(self.t0, a);
        core.release(self.t1, b);
        core.cancel(self.t0, b);
        core.cancel(self.t1, a);
        self.rt.step_monitor();
        assert_eq!(self.rt.history().len(), 1);
    }

    fn sig(&self) -> std::sync::Arc<dimmunix_core::Signature> {
        self.rt.history().snapshot()[0].clone()
    }

    /// One avoidance episode. `candidate` is the site T0 requests with;
    /// `inversion` decides whether T1 behaves like a real deadlock partner
    /// (true positive) or releases innocently (false positive).
    fn episode(&self, candidate: &dimmunix_core::LockSite, inversion: bool) -> bool {
        let a = self.rt.new_lock_id();
        let b = self.rt.new_lock_id();
        let core = self.rt.core();
        // T1 holds B with SB.
        core.request(self.t1, b, self.sb.frames(), self.sb.stack());
        core.acquired(self.t1, b, self.sb.stack());
        // T0 requests A with the candidate stack.
        let yielded = match core.request(self.t0, a, candidate.frames(), candidate.stack()) {
            Decision::Yield { .. } => true,
            Decision::Go => {
                core.acquired(self.t0, a, candidate.stack());
                core.release(self.t0, a);
                core.release(self.t1, b);
                self.rt.step_monitor();
                return false;
            }
        };
        if inversion {
            // T1 grabs A while holding B (the deadlock was real).
            core.request(self.t1, a, self.sa.frames(), self.sa.stack());
            core.acquired(self.t1, a, self.sa.stack());
            core.release(self.t1, a);
        }
        core.release(self.t1, b);
        // T0 proceeds after the wake: acquires and releases A (and, for the
        // inversion case, also B — completing the opposite order).
        core.request(self.t0, a, candidate.frames(), candidate.stack());
        core.acquired(self.t0, a, candidate.stack());
        if inversion {
            core.request(self.t0, b, self.sb.frames(), self.sb.stack());
            core.acquired(self.t0, b, self.sb.stack());
            core.release(self.t0, b);
        }
        core.release(self.t0, a);
        self.rt.step_monitor();
        self.rt.step_monitor();
        yielded
    }
}

#[test]
fn new_signatures_start_calibrating_at_depth_one() {
    let w = World::new(CalibrationConfig {
        na: 3,
        nt: 1_000,
        max_depth: 4,
    });
    w.seed();
    assert_eq!(w.sig().depth(), 1, "calibration starts at depth 1");
}

#[test]
fn impostor_fps_push_depth_up_to_the_clean_level() {
    let w = World::new(CalibrationConfig {
        na: 2,
        nt: 1_000,
        max_depth: 3,
    });
    w.seed();
    let sig = w.sig();
    assert_eq!(sig.depth(), 1);

    // Depth 1: the shallow impostor matches (same innermost frame) and the
    // run is innocent → false positives at depth 1 only (the impostor does
    // NOT match at depth 2, so no fast-forward credit).
    while sig.depth() == 1 {
        assert!(
            w.episode(&w.sa_shallow, false),
            "impostor must be avoided at depth 1"
        );
    }
    assert_eq!(sig.depth(), 2, "depth 1 exhausted its NA avoidances");
    // The impostor no longer matches at depth 2.
    assert!(!w.episode(&w.sa_shallow, false));

    // Depth ≥ 2: the genuine pattern arrives and is a true positive; the
    // exact bindings match at every depth, so fast-forward fills depth 3
    // as well and calibration finishes.
    while sig.calibration().phase() != dimmunix_signature::Phase::Stable {
        assert!(w.episode(&w.sa, true), "true pattern must be avoided");
    }
    let (depth, fp_rate) = sig.calibration().chosen().unwrap();
    assert_eq!(
        depth, 2,
        "smallest depth with the minimal FP rate (depth 1 was polluted)"
    );
    assert_eq!(fp_rate, 0.0);
    assert_eq!(sig.depth(), 2);
    let stats = w.rt.stats();
    assert!(stats.false_positives >= 2, "{stats:?}");
    assert!(stats.true_positives >= 2, "{stats:?}");
}

#[test]
fn all_fp_recalibration_discards_obsolete_signature() {
    // na=1 and nt=2 make both calibration rounds short. Every avoidance is
    // innocent (the "bug" was fixed by an upgrade): the first calibration
    // picks depth 1 with 100% FP; after NT more avoidances the signature is
    // recalibrated, concludes 100% FP again, and is discarded (§8).
    let w = World::new(CalibrationConfig {
        na: 1,
        nt: 2,
        max_depth: 2,
    });
    w.seed();
    let sig = w.sig();
    let mut guard = 0;
    while w.rt.history().len() == 1 && guard < 40 {
        w.episode(&w.sa, false);
        guard += 1;
    }
    assert!(
        w.rt.history().is_empty(),
        "obsolete signature must be discarded after all-FP recalibration \
         (completed {} calibrations, depth {})",
        sig.calibration().completed_calibrations(),
        sig.depth()
    );
}

#[test]
fn explicit_recalibrate_all_resets_depths() {
    let w = World::new(CalibrationConfig {
        na: 1,
        nt: 1_000,
        max_depth: 2,
    });
    w.seed();
    let sig = w.sig();
    // Finish one calibration with clean episodes.
    while sig.calibration().phase() != dimmunix_signature::Phase::Stable {
        w.episode(&w.sa, true);
    }
    let settled = sig.depth();
    // §8: after an upgrade, recalibrate everything.
    w.rt.recalibrate_all();
    assert_eq!(sig.depth(), 1, "recalibration restarts at depth 1");
    assert_eq!(
        sig.calibration().phase(),
        dimmunix_signature::Phase::Calibrating
    );
    let _ = settled;
}
