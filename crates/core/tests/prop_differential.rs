//! Differential property test: the sharded request path must be a pure
//! performance refactor.
//!
//! Random threadsim-style schedules (per-thread lock/unlock scripts
//! interleaved by a generated slot sequence, with signatures injected
//! mid-run so the history crosses the empty→non-empty transition) are
//! replayed in lockstep through the sharded engine
//! ([`dimmunix_core::AvoidanceCore`], via a `Runtime`) and the preserved
//! pre-refactor single-lock engine ([`dimmunix_core::ReferenceCore`]). The
//! decision streams — GO, or YIELD and on which signature — must be
//! identical at every step. The sharded engine finds its candidates through
//! the suffix index, the reference by walking the history, so every run
//! here is also index against walk.

use dimmunix_core::{
    Config, CycleKind, Decision, FrameId, LockId, ReferenceCore, Runtime, SigId, StackId,
    StatsSnapshot, ThreadId, YieldCause,
};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;

const THREADS: usize = 4;
const LOCKS: usize = 4;
const SITES: u8 = 6;
/// Sites past the first [`SITES`], each the *twin* of site `p - SITES`: same
/// innermost frame, different caller. A request through a site matches a
/// depth-2 signature over that site and a depth-1 signature over its twin —
/// two candidates at two depths, which is where candidate order shows. Only
/// the shared-inner generator uses them.
const TWINS: u8 = 2;

/// One entry of the generated schedule.
#[derive(Clone, Debug)]
enum Step {
    /// Give thread `t` one scheduling slot.
    Run(u8),
    /// Add a deadlock signature over sites `i`/`j` at `depth` — the
    /// empty→non-empty history transition happens mid-schedule. Followed
    /// by a structural touch, so the sharded engine's next rebuild builds a
    /// fresh table.
    AddSig { i: u8, j: u8, depth: u8 },
    /// Add a deadlock signature *without* a structural touch: the bump is
    /// a pure append, so the sharded engine's next rebuild extends its
    /// view (the reference always rebuilds from scratch — the two must
    /// stay decision-identical).
    AddSigDelta { i: u8, j: u8, depth: u8 },
}

/// One scripted action of a simulated thread.
#[derive(Clone, Debug)]
enum Action {
    /// Blocking lock of lock `l` through call site `p`.
    Lock(u8, u8),
    /// Try-lock (cancels on contention or yield) of `l` through `p`.
    TryLock(u8, u8),
    /// Release the most recently acquired lock (no-op when holding none).
    Unlock,
}

fn arb_schedule() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            (0_u8..THREADS as u8).prop_map(Step::Run),
            (0_u8..THREADS as u8).prop_map(Step::Run),
            (0_u8..THREADS as u8).prop_map(Step::Run),
            (0_u8..THREADS as u8).prop_map(Step::Run),
            (0_u8..SITES, 0_u8..SITES, 1_u8..3).prop_map(|(i, j, depth)| Step::AddSig {
                i,
                j,
                depth
            }),
        ],
        0..160,
    )
}

/// Size of the reduced site alphabet used by the signature-hit-heavy
/// generator: with signatures injected over the same few sites up front,
/// most requests land in populated suffix buckets and exercise the sharded
/// matching path (occupancy prechecks, shard-ordered cover searches)
/// rather than the no-candidate fast path.
const HOT_SITES: u8 = 3;

/// The shared-inner generator's alphabet: sites 0 and 1 with their twins,
/// so most requests match one signature at depth 1 and another at depth 2,
/// in either history order.
fn arb_twinned_site() -> impl Strategy<Value = u8> {
    prop_oneof![0_u8..TWINS, SITES..SITES + TWINS]
}

/// Schedules over a small site alphabet, the history seeded before any
/// scheduling so the very first requests already hit signature-member
/// buckets.
fn arb_hit_heavy_schedule<S: Strategy<Value = u8> + 'static>(
    site: fn() -> S,
) -> impl Strategy<Value = Vec<Step>> {
    let add_sig =
        move || (site(), site(), 1_u8..3).prop_map(|(i, j, depth)| Step::AddSig { i, j, depth });
    (
        prop::collection::vec(add_sig(), 2..6),
        prop::collection::vec(
            prop_oneof![
                (0_u8..THREADS as u8).prop_map(Step::Run),
                (0_u8..THREADS as u8).prop_map(Step::Run),
                (0_u8..THREADS as u8).prop_map(Step::Run),
                (0_u8..THREADS as u8).prop_map(Step::Run),
                (0_u8..THREADS as u8).prop_map(Step::Run),
                (0_u8..THREADS as u8).prop_map(Step::Run),
                (0_u8..THREADS as u8).prop_map(Step::Run),
                add_sig(),
            ],
            0..160,
        ),
    )
        .prop_map(|(mut steps, rest)| {
            steps.extend(rest);
            steps
        })
}

/// Pure-append generator for extending rebuilds: signatures are
/// injected mid-run *without* a structural touch, interleaved with decision
/// traffic, so the sharded engine repeatedly extends its live match state
/// (shared buckets, only the new keys' buckets filled) while requests race
/// the bumps.
/// The reference rebuilds fully on every bump; the decision streams must
/// stay byte-identical.
fn arb_delta_schedule() -> impl Strategy<Value = Vec<Step>> {
    let add = || {
        (0_u8..SITES, 0_u8..SITES, 1_u8..3).prop_map(|(i, j, depth)| Step::AddSigDelta {
            i,
            j,
            depth,
        })
    };
    (
        // Seed one or two signatures so the first requests already run
        // against a built match state; later appends then extend it.
        prop::collection::vec(add(), 1..3),
        prop::collection::vec(
            prop_oneof![
                (0_u8..THREADS as u8).prop_map(Step::Run),
                (0_u8..THREADS as u8).prop_map(Step::Run),
                (0_u8..THREADS as u8).prop_map(Step::Run),
                (0_u8..THREADS as u8).prop_map(Step::Run),
                (0_u8..THREADS as u8).prop_map(Step::Run),
                (0_u8..THREADS as u8).prop_map(Step::Run),
                add(),
            ],
            0..160,
        ),
    )
        .prop_map(|(mut steps, rest)| {
            steps.extend(rest);
            steps
        })
}

/// Scripts confined to the schedule's site alphabet, so nearly every
/// request's suffix matches some injected signature member.
fn arb_hit_heavy_script<S: Strategy<Value = u8> + 'static>(
    site: fn() -> S,
) -> impl Strategy<Value = Vec<Action>> {
    prop::collection::vec(
        prop_oneof![
            (0_u8..LOCKS as u8, site()).prop_map(|(l, p)| Action::Lock(l, p)),
            (0_u8..LOCKS as u8, site()).prop_map(|(l, p)| Action::Lock(l, p)),
            (0_u8..LOCKS as u8, site()).prop_map(|(l, p)| Action::TryLock(l, p)),
            (0_u8..1).prop_map(|_| Action::Unlock),
        ],
        0..16,
    )
}

/// Schedule for the shared-cause generator: one signature over sites 0/1
/// seeded up front, then pure scheduling noise — the scripts below funnel
/// every yield cause onto thread 0, so all wake traffic goes through one
/// `WakeList` (drain ordering, retained nodes, epoch retraction).
fn arb_hot_cause_schedule() -> impl Strategy<Value = Vec<Step>> {
    (
        1_u8..3,
        prop::collection::vec((0_u8..THREADS as u8).prop_map(Step::Run), 0..200),
    )
        .prop_map(|(depth, runs)| {
            let mut steps = vec![Step::AddSig { i: 0, j: 1, depth }];
            steps.extend(runs);
            steps
        })
}

/// Thread 0's script under the shared-cause generator: churn locks 0/1
/// through site 0 — its `Allowed` entries are the only possible cover
/// members, so it is the cause thread of every yield, and its unlocks
/// exercise both drain verdicts (a release of lock 1 must *retain* a
/// registration keyed by lock 0).
fn arb_holder_script() -> impl Strategy<Value = Vec<Action>> {
    prop::collection::vec(
        prop_oneof![
            (0_u8..2).prop_map(|l| Action::Lock(l, 0)),
            (0_u8..2).prop_map(|l| Action::Lock(l, 0)),
            (0_u8..1).prop_map(|_| Action::Unlock),
        ],
        0..16,
    )
}

/// A waiter's script under the shared-cause generator: thread `w` drives
/// its own lock through site 1, so every one of its yields is caused by
/// thread 0's site-0 entries.
fn arb_waiter_script(w: u8) -> impl Strategy<Value = Vec<Action>> {
    prop::collection::vec(
        prop_oneof![
            (0_u8..1).prop_map(move |_| Action::Lock(w, 1)),
            (0_u8..1).prop_map(move |_| Action::Lock(w, 1)),
            (0_u8..1).prop_map(move |_| Action::TryLock(w, 1)),
            (0_u8..1).prop_map(|_| Action::Unlock),
        ],
        0..16,
    )
}

fn arb_script() -> impl Strategy<Value = Vec<Action>> {
    prop::collection::vec(
        prop_oneof![
            (0_u8..LOCKS as u8, 0_u8..SITES).prop_map(|(l, p)| Action::Lock(l, p)),
            (0_u8..LOCKS as u8, 0_u8..SITES).prop_map(|(l, p)| Action::TryLock(l, p)),
            (0_u8..1).prop_map(|_| Action::Unlock),
        ],
        0..16,
    )
}

/// The hook surface both engines expose. `request` answers `None` for GO
/// and the signature yielded on otherwise.
trait Hooks {
    fn request(&self, t: ThreadId, l: LockId, frames: &[FrameId], stack: StackId) -> Option<SigId>;
    fn acquired(&self, t: ThreadId, l: LockId, stack: StackId);
    fn release(&self, t: ThreadId, l: LockId) -> Vec<ThreadId>;
    fn cancel(&self, t: ThreadId, l: LockId);
}

fn yielded_on(decision: Decision) -> Option<SigId> {
    match decision {
        Decision::Go => None,
        Decision::Yield { sig } => Some(sig.id),
    }
}

impl Hooks for Runtime {
    fn request(&self, t: ThreadId, l: LockId, frames: &[FrameId], stack: StackId) -> Option<SigId> {
        yielded_on(self.core().request(t, l, frames, stack))
    }
    fn acquired(&self, t: ThreadId, l: LockId, stack: StackId) {
        self.core().acquired(t, l, stack);
    }
    fn release(&self, t: ThreadId, l: LockId) -> Vec<ThreadId> {
        self.core().release(t, l)
    }
    fn cancel(&self, t: ThreadId, l: LockId) {
        self.core().cancel(t, l);
    }
}

impl Hooks for ReferenceCore {
    fn request(&self, t: ThreadId, l: LockId, frames: &[FrameId], stack: StackId) -> Option<SigId> {
        yielded_on(ReferenceCore::request(self, t, l, frames, stack))
    }
    fn acquired(&self, t: ThreadId, l: LockId, stack: StackId) {
        ReferenceCore::acquired(self, t, l, stack);
    }
    fn release(&self, t: ThreadId, l: LockId) -> Vec<ThreadId> {
        ReferenceCore::release(self, t, l)
    }
    fn cancel(&self, t: ThreadId, l: LockId) {
        ReferenceCore::cancel(self, t, l);
    }
}

#[derive(Clone, Copy, PartialEq)]
enum VState {
    Ready,
    Blocked(usize),
    Yielding(usize),
}

/// Minimal deterministic thread simulator over one engine, mirroring
/// `dimmunix_threadsim::Sim`'s blocking/yield/wake semantics.
struct MiniSim<'a, E: Hooks> {
    engine: &'a E,
    tids: Vec<ThreadId>,
    lock_ids: Vec<LockId>,
    sites: Vec<(Vec<FrameId>, StackId)>,
    scripts: Vec<Vec<Action>>,
    pc: Vec<usize>,
    state: Vec<VState>,
    woken: Vec<bool>,
    held: Vec<Vec<usize>>,
    owner: Vec<Option<usize>>,
    waiters: Vec<VecDeque<usize>>,
    /// Site of the outstanding (blocked or yielding) request per thread.
    pending: Vec<Option<u8>>,
}

impl<'a, E: Hooks> MiniSim<'a, E> {
    fn new(
        engine: &'a E,
        tids: Vec<ThreadId>,
        lock_ids: Vec<LockId>,
        sites: Vec<(Vec<FrameId>, StackId)>,
        scripts: Vec<Vec<Action>>,
    ) -> Self {
        let n = scripts.len();
        Self {
            engine,
            tids,
            lock_ids,
            sites,
            scripts,
            pc: vec![0; n],
            state: vec![VState::Ready; n],
            woken: vec![false; n],
            held: vec![Vec::new(); n],
            owner: vec![None; LOCKS],
            waiters: vec![VecDeque::new(); LOCKS],
            pending: vec![None; n],
        }
    }

    /// Runs one slot for thread `v`; returns the decision ([`Hooks::request`])
    /// if a `request` was made.
    fn run_slot(&mut self, v: usize) -> Option<Option<SigId>> {
        match self.state[v] {
            VState::Blocked(_) => None,
            VState::Yielding(l) => {
                if !self.woken[v] {
                    return None;
                }
                self.woken[v] = false;
                let site = self.pending[v].expect("yielding thread has a pending site");
                let (frames, stack) = self.sites[site as usize].clone();
                let yielded = self
                    .engine
                    .request(self.tids[v], self.lock_ids[l], &frames, stack);
                if yielded.is_none() {
                    self.attempt_acquire(v, l, stack);
                }
                Some(yielded)
            }
            VState::Ready => {
                let action = self.scripts[v].get(self.pc[v]).cloned()?;
                match action {
                    Action::Lock(l, p) => {
                        let (frames, stack) = self.sites[p as usize].clone();
                        let l = l as usize;
                        let yielded =
                            self.engine
                                .request(self.tids[v], self.lock_ids[l], &frames, stack);
                        self.pending[v] = Some(p);
                        if yielded.is_none() {
                            self.attempt_acquire(v, l, stack);
                        } else {
                            self.state[v] = VState::Yielding(l);
                            self.woken[v] = false;
                        }
                        Some(yielded)
                    }
                    Action::TryLock(l, p) => {
                        let (frames, stack) = self.sites[p as usize].clone();
                        let l = l as usize;
                        let yielded =
                            self.engine
                                .request(self.tids[v], self.lock_ids[l], &frames, stack);
                        if yielded.is_none() && self.owner[l].is_none() {
                            self.engine.acquired(self.tids[v], self.lock_ids[l], stack);
                            self.owner[l] = Some(v);
                            self.held[v].push(l);
                        } else {
                            self.engine.cancel(self.tids[v], self.lock_ids[l]);
                        }
                        self.pc[v] += 1;
                        Some(yielded)
                    }
                    Action::Unlock => {
                        if let Some(l) = self.held[v].pop() {
                            self.do_unlock(v, l);
                        }
                        self.pc[v] += 1;
                        None
                    }
                }
            }
        }
    }

    fn attempt_acquire(&mut self, v: usize, l: usize, stack: StackId) {
        if self.owner[l].is_none() {
            self.grant(v, l, stack);
        } else {
            self.waiters[l].push_back(v);
            self.state[v] = VState::Blocked(l);
        }
    }

    fn grant(&mut self, v: usize, l: usize, stack: StackId) {
        self.engine.acquired(self.tids[v], self.lock_ids[l], stack);
        self.owner[l] = Some(v);
        self.held[v].push(l);
        self.state[v] = VState::Ready;
        self.pc[v] += 1;
    }

    fn do_unlock(&mut self, v: usize, l: usize) {
        let wake = self.engine.release(self.tids[v], self.lock_ids[l]);
        self.owner[l] = None;
        if let Some(next) = self.waiters[l].pop_front() {
            let site = self.pending[next].expect("blocked thread has a pending site");
            let stack = self.sites[site as usize].1;
            self.grant(next, l, stack);
        }
        for w in wake {
            if let Some(idx) = self.tids.iter().position(|&t| t == w) {
                if matches!(self.state[idx], VState::Yielding(_)) {
                    self.woken[idx] = true;
                }
            }
        }
    }
}

/// Replays `schedule` over `scripts` through both engines in lockstep and
/// returns the (asserted-identical) decision stream, `true` for GO.
fn run_differential(
    schedule: &[Step],
    scripts: [Vec<Action>; THREADS],
) -> Result<Vec<bool>, String> {
    run_differential_full(schedule, scripts).map(|(d, _)| d)
}

/// [`run_differential`] plus the sharded runtime's final stats snapshot,
/// for tests that assert *which* rebuild path ran.
fn run_differential_full(
    schedule: &[Step],
    scripts: [Vec<Action>; THREADS],
) -> Result<(Vec<bool>, StatsSnapshot), String> {
    let config = || Config {
        max_threads: 8,
        ..Config::default()
    };
    let rt = Runtime::new(config()).unwrap();
    // The reference engine shares the runtime's history and interners, so
    // signature injection and stack ids line up exactly; nothing else
    // mutates the history (the monitor is never stepped here).
    let reference = ReferenceCore::new(
        config(),
        Arc::clone(rt.history()),
        Arc::clone(rt.stack_table()),
    );

    let sites: Vec<(Vec<FrameId>, StackId)> = (0..SITES + TWINS)
        .map(|p| {
            let (caller, inner) = if p < SITES {
                ("caller", p)
            } else {
                ("twin", p - SITES)
            };
            let site = rt.make_site(&[
                (caller, "d.rs", u32::from(p)),
                ("inner", "d.rs", 100 + u32::from(inner)),
            ]);
            (site.frames().to_vec(), site.stack())
        })
        .collect();
    let tids_a: Vec<ThreadId> = (0..THREADS)
        .map(|_| rt.core().register_thread().unwrap())
        .collect();
    let tids_b: Vec<ThreadId> = (0..THREADS)
        .map(|_| reference.register_thread().unwrap())
        .collect();
    if tids_a != tids_b {
        return Err("engines assigned different thread ids".into());
    }
    let lock_ids: Vec<LockId> = (0..LOCKS).map(|_| rt.new_lock_id()).collect();

    let mut sim_a = MiniSim::new(
        &rt,
        tids_a,
        lock_ids.clone(),
        sites.clone(),
        scripts.to_vec(),
    );
    let mut sim_b = MiniSim::new(
        &reference,
        tids_b,
        lock_ids,
        sites.clone(),
        scripts.to_vec(),
    );

    let mut decisions = Vec::new();
    for (step_no, step) in schedule.iter().enumerate() {
        match *step {
            Step::Run(t) => {
                let da = sim_a.run_slot(t as usize);
                let db = sim_b.run_slot(t as usize);
                if da != db {
                    return Err(format!(
                        "decision divergence at step {step_no} (thread {t}): \
                         sharded={da:?} reference={db:?}"
                    ));
                }
                if let Some(yielded) = da {
                    decisions.push(yielded.is_none());
                }
            }
            Step::AddSig { i, j, depth } => {
                let a = sites[i as usize].1;
                let b = sites[j as usize].1;
                rt.history().add(CycleKind::Deadlock, vec![a, b], depth);
                rt.history().touch();
            }
            Step::AddSigDelta { i, j, depth } => {
                let a = sites[i as usize].1;
                let b = sites[j as usize].1;
                // No touch: the add itself is one pure-append generation
                // bump, which the sharded engine's rebuild can extend over.
                rt.history().add(CycleKind::Deadlock, vec![a, b], depth);
            }
        }
    }
    Ok((decisions, rt.stats()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sharded and reference engines agree on every decision.
    #[test]
    fn sharded_engine_matches_reference_with_index(
        schedule in arb_schedule(),
        s0 in arb_script(),
        s1 in arb_script(),
        s2 in arb_script(),
        s3 in arb_script(),
    ) {
        let result = run_differential(&schedule, [s0, s1, s2, s3]);
        prop_assert!(result.is_ok(), "{}", result.err().unwrap_or_default());
    }

    /// Same agreement when the schedule is skewed so most requests land in
    /// populated signature-member buckets — the sharded matching path
    /// (occupancy prechecks + shard-ordered cover searches) must still be
    /// decision-identical to the reference's globally guarded search.
    #[test]
    fn sharded_engine_matches_reference_hit_heavy(
        schedule in arb_hit_heavy_schedule(|| 0_u8..HOT_SITES),
        s0 in arb_hit_heavy_script(|| 0_u8..HOT_SITES),
        s1 in arb_hit_heavy_script(|| 0_u8..HOT_SITES),
        s2 in arb_hit_heavy_script(|| 0_u8..HOT_SITES),
        s3 in arb_hit_heavy_script(|| 0_u8..HOT_SITES),
    ) {
        let result = run_differential(&schedule, [s0, s1, s2, s3]);
        prop_assert!(result.is_ok(), "{}", result.err().unwrap_or_default());
    }

    /// Same agreement when every yield shares thread 0 as its cause — the
    /// lock-free `WakeList` path (Treiber pushes, swap-and-drain, retained
    /// nodes, epoch retraction) must deliver exactly the wake sets the
    /// reference's yielding-map scan produces, at every step.
    #[test]
    fn sharded_engine_matches_reference_hot_cause(
        schedule in arb_hot_cause_schedule(),
        s0 in arb_holder_script(),
        s1 in arb_waiter_script(1),
        s2 in arb_waiter_script(2),
        s3 in arb_waiter_script(3),
    ) {
        let result = run_differential(&schedule, [s0, s1, s2, s3]);
        prop_assert!(result.is_ok(), "{}", result.err().unwrap_or_default());
    }

    /// Same agreement when every mid-run history bump is a pure append
    /// (vaccination without a structural touch): the sharded engine's
    /// extending rebuilds — extended layouts, shared buckets, a visit that
    /// fills only the new keys' buckets — must be decision-identical to
    /// the reference's full rebuilds, including bumps landing between a thread's entries being
    /// recorded and the cover searches that consume them.
    #[test]
    fn sharded_engine_matches_reference_delta_rebuilds(
        schedule in arb_delta_schedule(),
        s0 in arb_script(),
        s1 in arb_script(),
        s2 in arb_script(),
        s3 in arb_script(),
    ) {
        let result = run_differential(&schedule, [s0, s1, s2, s3]);
        prop_assert!(result.is_ok(), "{}", result.err().unwrap_or_default());
    }

    /// Same agreement when sites share innermost frames and signatures mix
    /// depths 1 and 2, so one request has candidates at both depths: the
    /// index (depth layers ascending) and the reference's walk must try
    /// them in the same order, or they yield on different signatures and
    /// wait for different releases.
    #[test]
    fn sharded_engine_matches_reference_shared_inner(
        schedule in arb_hit_heavy_schedule(arb_twinned_site),
        s0 in arb_hit_heavy_script(arb_twinned_site),
        s1 in arb_hit_heavy_script(arb_twinned_site),
        s2 in arb_hit_heavy_script(arb_twinned_site),
        s3 in arb_hit_heavy_script(arb_twinned_site),
    ) {
        let result = run_differential(&schedule, [s0, s1, s2, s3]);
        prop_assert!(result.is_ok(), "{}", result.err().unwrap_or_default());
    }
}

/// A deterministic yield-storm regression: several threads yield on the
/// *same* cause `(T0, L0)` — all indexed under one wake shard — and a
/// single release must wake every one of them, after which each retried
/// request must GO (the cover's member bucket emptied with the release).
/// Both engines must agree at every step.
#[test]
fn yield_storm_wakes_every_yielder_in_lockstep() {
    let schedule = vec![
        Step::AddSig {
            i: 0,
            j: 1,
            depth: 2,
        },
        Step::Run(0), // T0 locks L0 via site 1: member bucket [site 0] is
        Step::Run(1), // empty, so the occupancy precheck proves GO.
        Step::Run(2), // T1..T3 request L1..L3 via site 0: T0's bucketed
        Step::Run(3), // entry covers member [site 1] → three YIELDs on the
        Step::Run(0), // same cause (T0, L0). T0 unlocks → wakes all three.
        Step::Run(1), // Retried requests GO: the member bucket emptied.
        Step::Run(2),
        Step::Run(3),
    ];
    let scripts = [
        vec![Action::Lock(0, 1), Action::Unlock],
        vec![Action::Lock(1, 0)],
        vec![Action::Lock(2, 0)],
        vec![Action::Lock(3, 0)],
    ];
    let decisions = run_differential(&schedule, scripts).expect("no divergence");
    assert_eq!(
        decisions,
        vec![true, false, false, false, true, true, true],
        "three yields on one cause, then three post-wake GOs"
    );
}

/// A single-member signature (legal via `History::add` — e.g. a
/// self-cycle, or a vaccination file) is instantiated by its anchor
/// request *alone*: no emptiness argument may reject it, so both engines
/// must YIELD. Regression for the whole-set occupancy fast reject, which
/// once refuted zero-other-member candidates unconditionally.
#[test]
fn single_member_signature_yields_in_both_engines() {
    let rt = Runtime::new(Config {
        max_threads: 8,
        ..Config::default()
    })
    .unwrap();
    let reference = ReferenceCore::new(
        Config {
            max_threads: 8,
            ..Config::default()
        },
        Arc::clone(rt.history()),
        Arc::clone(rt.stack_table()),
    );
    let site = rt.make_site(&[("caller", "d.rs", 1), ("inner", "d.rs", 101)]);
    rt.history()
        .add(CycleKind::Deadlock, vec![site.stack()], 2)
        .expect("fresh signature");
    rt.history().touch();
    let ta = rt.core().register_thread().unwrap();
    let tb = reference.register_thread().unwrap();
    let l = rt.new_lock_id();
    let da = rt.core().request(ta, l, site.frames(), site.stack());
    let db = ReferenceCore::request(&reference, tb, l, site.frames(), site.stack());
    assert!(
        matches!(da, Decision::Yield { .. }) && matches!(db, Decision::Yield { .. }),
        "both engines must yield on a lone-member signature: sharded={da:?} reference={db:?}"
    );
    rt.core().cancel(ta, l);
    reference.cancel(tb, l);
}

/// Pins the candidate-order rule (`dimmunix_core::reference`'s module docs):
/// ascending matching depth first, history order only within a depth. The
/// requester's site and its twin share an innermost frame, so its request
/// matches the depth-2 signature over its own site — added *first* — and
/// the depth-1 signature over the twin, and each signature's other member
/// has a holder. Both engines must yield on the depth-1 signature, with its
/// holder as the cause: only that holder's release wakes the requester. An
/// oracle walking in plain history order yields on the depth-2 signature
/// and fails here.
#[test]
fn a_request_matching_at_two_depths_tries_the_shallower_signature_first() {
    let config = || Config {
        max_threads: 8,
        ..Config::default()
    };
    let rt = Runtime::new(config()).unwrap();
    let reference = ReferenceCore::new(
        config(),
        Arc::clone(rt.history()),
        Arc::clone(rt.stack_table()),
    );
    let site = |caller: &'static str, inner: u32| {
        rt.make_site(&[(caller, "order.rs", 1), ("inner", "order.rs", inner)])
    };
    let requester = site("requester", 100);
    let twin = site("twin", 100);
    let deep_holder = site("deep_holder", 200);
    let shallow_holder = site("shallow_holder", 300);
    let add = |a: StackId, b: StackId, depth: u8| {
        rt.history()
            .add(CycleKind::Deadlock, vec![a, b], depth)
            .expect("fresh signature")
    };
    let deep = add(requester.stack(), deep_holder.stack(), 2);
    let shallow = add(twin.stack(), shallow_holder.stack(), 1);
    assert!(deep.id < shallow.id, "history order: the deeper one first");

    let threads: Vec<ThreadId> = (0..3)
        .map(|_| {
            let t = rt.core().register_thread().unwrap();
            assert_eq!(reference.register_thread(), Some(t));
            t
        })
        .collect();
    let (deep_thread, shallow_thread, asking) = (threads[0], threads[1], threads[2]);
    let (deep_lock, shallow_lock, wanted) = (rt.new_lock_id(), rt.new_lock_id(), rt.new_lock_id());
    // One holder per signature, each covering its signature's other member.
    for (t, l, s) in [
        (deep_thread, deep_lock, &deep_holder),
        (shallow_thread, shallow_lock, &shallow_holder),
    ] {
        assert_eq!(Hooks::request(&rt, t, l, s.frames(), s.stack()), None);
        assert_eq!(
            Hooks::request(&reference, t, l, s.frames(), s.stack()),
            None
        );
        Hooks::acquired(&rt, t, l, s.stack());
        Hooks::acquired(&reference, t, l, s.stack());
    }

    let (frames, stack) = (requester.frames(), requester.stack());
    assert_eq!(
        Hooks::request(&rt, asking, wanted, frames, stack),
        Some(shallow.id),
        "sharded"
    );
    assert_eq!(
        Hooks::request(&reference, asking, wanted, frames, stack),
        Some(shallow.id),
        "reference"
    );
    assert_eq!(
        rt.core().yield_causes(asking),
        vec![YieldCause {
            thread: shallow_thread,
            lock: shallow_lock,
            stack: shallow_holder.stack(),
        }]
    );
    // The reference shows its causes by whom a release wakes.
    assert_eq!(Hooks::release(&rt, deep_thread, deep_lock), vec![]);
    assert_eq!(Hooks::release(&reference, deep_thread, deep_lock), vec![]);
    assert_eq!(
        Hooks::release(&rt, shallow_thread, shallow_lock),
        vec![asking]
    );
    assert_eq!(
        Hooks::release(&reference, shallow_thread, shallow_lock),
        vec![asking]
    );
    Hooks::cancel(&rt, asking, wanted);
    Hooks::cancel(&reference, asking, wanted);
}

/// A deterministic drain-ordering regression for the lock-free wake list:
/// the cause thread holds two locks acquired through the same site, a
/// yielder registers against the *first* one (bucket order picks the
/// first-inserted entry), and the cause thread releases them innermost-
/// first. The first release (lock 1) must *retain* the registration —
/// waking nobody, exactly like the reference — and the second release
/// (lock 0) must deliver it.
#[test]
fn retained_wake_registration_survives_unrelated_release() {
    let schedule = vec![
        Step::AddSig {
            i: 0,
            j: 1,
            depth: 2,
        },
        Step::Run(0), // T0 locks L0 via site 0 (member bucket gains entry 1)
        Step::Run(0), // T0 locks L1 via site 0 (member bucket gains entry 2)
        Step::Run(1), // T1 requests L2 via site 1 → cover picks (T0, L0) → YIELD
        Step::Run(0), // T0 unlocks L1 (innermost): registration retained, no wake
        Step::Run(1), // T1 still yielding, not woken: no decision
        Step::Run(0), // T0 unlocks L0: drain delivers the wake
        Step::Run(1), // T1 retries → member bucket empty → GO
    ];
    let scripts = [
        vec![
            Action::Lock(0, 0),
            Action::Lock(1, 0),
            Action::Unlock,
            Action::Unlock,
        ],
        vec![Action::Lock(2, 1)],
        vec![],
        vec![],
    ];
    let decisions = run_differential(&schedule, scripts).expect("no divergence");
    assert_eq!(
        decisions,
        vec![true, true, false, true],
        "two holder GOs, one yield on (T0, L0), one post-wake GO"
    );
}

/// A deterministic regression for the extending rebuild: an entry
/// recorded as *irrelevant* (its suffix matched no signature member) must
/// be found by the visit when a later pure-append bump makes its suffix a
/// member key — and an entry bucketed *before* the bump must survive in
/// its shared bucket. Both covers must then fire, in lockstep with the
/// reference, and the sharded engine must have extended its view (not
/// fallen back to a fresh table).
#[test]
fn mid_run_append_bump_patches_live_state_in_lockstep() {
    let schedule = vec![
        Step::AddSigDelta {
            i: 0,
            j: 1,
            depth: 2,
        },
        Step::Run(0), // T0 locks L0 via site 2: irrelevant suffix → log-only
        Step::Run(1), // T1 locks L2 via site 0: member of sig(0,1) → bucketed
        Step::AddSigDelta {
            i: 2,
            j: 3,
            depth: 2,
        },
        Step::Run(2), // T2 requests L1 via site 3: the cover needs T0's
        // (L0, site 2) entry, which only the rebuild's
        // visit could have bucketed → YIELD
        Step::Run(3), // T3 requests L3 via site 1: the cover needs T1's
                      // (L2, site 0) entry, surviving in a shared bucket → YIELD
    ];
    let scripts = [
        vec![Action::Lock(0, 2)],
        vec![Action::Lock(2, 0)],
        vec![Action::Lock(1, 3)],
        vec![Action::Lock(3, 1)],
    ];
    let (decisions, stats) = run_differential_full(&schedule, scripts).expect("no divergence");
    assert_eq!(
        decisions,
        vec![true, true, false, false],
        "two holder GOs, then one cover out of a visited bucket and one out of a shared bucket"
    );
    assert!(
        stats.rebuilds_delta >= 1,
        "the mid-run append must have extended the view (delta={} full={})",
        stats.rebuilds_delta,
        stats.rebuilds_full
    );
}

/// The fallback from extending to a fresh table: an append batch that
/// outgrows the inherited fingerprint array is rebuilt fresh, once; an
/// entry held across that rebuild (bucketed or log-only before it) is
/// still found by the next cover, in lockstep with the reference; and the
/// following small append extends again.
#[test]
fn outgrowing_the_fingerprints_rebuilds_fresh_once_then_extends_again() {
    let config = || Config {
        max_threads: 8,
        ..Config::default()
    };
    let rt = Runtime::new(config()).unwrap();
    let reference = ReferenceCore::new(
        config(),
        Arc::clone(rt.history()),
        Arc::clone(rt.stack_table()),
    );
    let site = |p: u32| rt.make_site(&[("caller", "grow.rs", p), ("inner", "grow.rs", 100 + p)]);
    let add = |i: u32, j: u32| {
        rt.history()
            .add(
                CycleKind::Deadlock,
                vec![site(i).stack(), site(j).stack()],
                2,
            )
            .expect("fresh signature");
    };
    // Every step runs through both engines and must decide alike.
    let request = |t: ThreadId, l: LockId, p: u32| -> bool {
        let s = site(p);
        let a = <Runtime as Hooks>::request(&rt, t, l, s.frames(), s.stack());
        let b = Hooks::request(&reference, t, l, s.frames(), s.stack());
        assert_eq!(a, b, "engines disagree on site {p}");
        if a.is_none() {
            Hooks::acquired(&rt, t, l, s.stack());
            Hooks::acquired(&reference, t, l, s.stack());
        }
        a.is_none()
    };
    let threads: Vec<ThreadId> = (0..5)
        .map(|_| {
            let t = rt.core().register_thread().unwrap();
            assert_eq!(reference.register_thread(), Some(t));
            t
        })
        .collect();
    let locks: Vec<LockId> = (0..8).map(|_| rt.new_lock_id()).collect();

    // Two keys: the first build sizes four fingerprints.
    add(0, 1);
    assert!(request(threads[0], locks[0], 0), "bucketed holder");
    assert!(request(threads[1], locks[1], 2), "log-only holder");
    assert!(
        request(threads[0], locks[4], 6),
        "log-only holder, for later"
    );
    let before = rt.stats();
    assert_eq!((before.rebuilds_full, before.rebuilds_delta), (1, 0));

    // Six more keys in pure appends: eight do not fit four fingerprints.
    add(2, 3);
    add(10, 11);
    add(12, 13);
    assert!(
        !request(threads[2], locks[2], 1),
        "cover over the entry bucketed before the fresh build"
    );
    assert!(
        !request(threads[3], locks[3], 3),
        "cover over the entry only the fresh build's visit could bucket"
    );
    let grown = rt.stats();
    assert_eq!(
        (grown.rebuilds_full, grown.rebuilds_delta),
        (2, 0),
        "outgrown fingerprints: one fresh build, no extension"
    );

    // Two more keys fit the re-sized array: this one extends.
    add(6, 7);
    assert!(
        !request(threads[4], locks[5], 7),
        "cover over an entry the extension's visit bucketed"
    );
    let after = rt.stats();
    assert_eq!((after.rebuilds_full, after.rebuilds_delta), (2, 1));
}

/// A deterministic regression for the empty→non-empty transition: entries
/// recorded guardlessly while the history was empty must be visible to the
/// cover search after the first signature arrives — in both engines,
/// yielding identical decisions.
#[test]
fn empty_to_nonempty_transition_is_lockstep() {
    let schedule = vec![
        Step::Run(0), // T0 locks L0 (empty history: sharded fast path)
        Step::Run(1), // T1 locks L1
        Step::AddSig {
            i: 0,
            j: 1,
            depth: 2,
        },
        Step::Run(0), // T0 requests L1 → first guarded request post-transition
        Step::Run(1), // T1 requests L0 → must YIELD in both engines
    ];
    let scripts = [
        vec![Action::Lock(0, 0), Action::Lock(1, 1)],
        vec![Action::Lock(1, 1), Action::Lock(0, 0)],
        vec![],
        vec![],
    ];
    let decisions = run_differential(&schedule, scripts).expect("no divergence");
    assert_eq!(
        decisions,
        vec![true, true, true, false],
        "T1's second request must instantiate the injected signature"
    );
}
