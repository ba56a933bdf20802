//! Differential property test: the sharded request path must be a pure
//! performance refactor.
//!
//! Random schedules (per-thread lock/unlock scripts interleaved by a
//! generated slot sequence, with signatures injected mid-run so the history
//! crosses the empty→non-empty transition) are replayed through a [`Sim`]
//! whose [`Lockstep`] drives the sharded engine
//! ([`dimmunix_core::AvoidanceCore`], via a `Runtime`) and the preserved
//! pre-refactor single-lock engine ([`dimmunix_core::ReferenceCore`]). The
//! decisions — GO, or YIELD and on which signature — and the wake sets must
//! be identical at every hook. The sharded engine finds its candidates
//! through the suffix index and its buckets, the reference by walking the
//! history and the `Allowed` entries, so every run here is also index
//! against walk.

use dimmunix_core::{
    Config, CycleKind, Decision, LockId, Runtime, StackId, StatsSnapshot, ThreadId, YieldCause,
};
use dimmunix_threadsim::{LockHandle, Lockstep, Script, Sim};
use proptest::prelude::*;

const THREADS: usize = 4;
const LOCKS: usize = 4;
const SITES: u8 = 6;
/// Sites past the first [`SITES`], each the *twin* of site `p - SITES`: same
/// innermost frame, different caller. A request through a site matches a
/// depth-2 signature over that site and a depth-1 signature over its twin —
/// two candidates at two depths, which is where candidate order shows. Only
/// the shared-inner generator uses them.
const TWINS: u8 = 2;
/// The caller frame of each site: sites `0..SITES`, then their twins.
const CALLERS: [&str; (SITES + TWINS) as usize] = [
    "caller0", "caller1", "caller2", "caller3", "caller4", "caller5", "twin0", "twin1",
];
/// The innermost frame of each site, shared by a site and its twin.
const INNER: [&str; SITES as usize] = ["inner0", "inner1", "inner2", "inner3", "inner4", "inner5"];

/// One entry of the generated schedule.
#[derive(Clone, Debug)]
enum Step {
    /// Step thread `t` ([`Sim::step`]): its ops up to one lock operation.
    Run(u8),
    /// Add a deadlock signature over sites `i`/`j` at `depth` — the
    /// empty→non-empty history transition happens mid-schedule. Followed
    /// by a structural touch, so the sharded engine's next rebuild builds a
    /// fresh table.
    AddSig { i: u8, j: u8, depth: u8 },
    /// Add a deadlock signature *without* a structural touch: the bump is
    /// a pure append, so the sharded engine's next rebuild extends its
    /// view (the reference keeps no match state — the two must stay
    /// decision-identical).
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
/// matching path (emptiness prechecks, shard-ordered cover searches)
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
/// The reference walks the history afresh on every request; the decision
/// streams must stay byte-identical.
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
/// log's waiters (takes by lock, waiters kept for another lock, withdrawals
/// by yielders whose yield ended).
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
/// both take and keep waiters (a release of lock 1 must *keep* a
/// registration for lock 0).
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

/// Site `p` as script ops: its caller frame, the lock operation at its
/// innermost frame, the return.
fn at_site(s: Script, p: u8, op: impl FnOnce(Script, &'static str) -> Script) -> Script {
    op(s.call(CALLERS[p as usize]), INNER[(p % SITES) as usize]).ret()
}

/// The stack the simulator interns for a lock operation at site `p`.
fn site_stack(rt: &Runtime, p: u8) -> StackId {
    let caller = (CALLERS[p as usize], "<call>", 0);
    rt.make_site(&[caller, (INNER[(p % SITES) as usize], "<site>", 0)])
        .stack()
}

/// Replays `schedule` over `scripts` in lockstep and returns the
/// (asserted-identical) decision stream, `true` for GO.
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
    let rt = Runtime::new(Config::default()).unwrap();
    // The reference engine shares the runtime's history and interners, so
    // signature injection and stack ids line up exactly; nothing else
    // mutates the history (`Sim::step` never steps the monitor).
    let mut sim = Sim::new(&rt, 0);
    sim.attach_shadow();
    let locks: Vec<LockHandle> = ["L0", "L1", "L2", "L3"]
        .map(|name| sim.lock_handle(name))
        .into();
    for (name, actions) in ["T0", "T1", "T2", "T3"].into_iter().zip(&scripts) {
        let script = actions.iter().fold(Script::new(), |s, a| match *a {
            Action::Lock(l, p) => at_site(s, p, |s, site| s.lock_at(locks[l as usize], site)),
            Action::TryLock(l, p) => {
                at_site(s, p, |s, site| s.try_lock_at(locks[l as usize], site))
            }
            Action::Unlock => s.unlock_innermost(),
        });
        sim.spawn(name, script);
    }

    let mut decisions = Vec::new();
    for (step_no, step) in schedule.iter().enumerate() {
        match *step {
            Step::Run(t) => {
                if let Some(d) = sim.step(t as usize) {
                    decisions.push(matches!(d, Decision::Go));
                }
            }
            Step::AddSig { i, j, depth } => {
                let members = vec![site_stack(&rt, i), site_stack(&rt, j)];
                rt.history().add(CycleKind::Deadlock, members, depth);
                rt.history().touch();
            }
            Step::AddSigDelta { i, j, depth } => {
                let members = vec![site_stack(&rt, i), site_stack(&rt, j)];
                // No touch: the add itself is one pure-append generation
                // bump, which the sharded engine's rebuild can extend over.
                rt.history().add(CycleKind::Deadlock, members, depth);
            }
        }
        if let Some(d) = sim.shadow_divergences().first() {
            return Err(format!("at step {step_no} ({step:?}): {d}"));
        }
    }
    Ok((decisions, rt.stats()))
}

/// Asserts that the engines behind `ls` agreed on every hook so far.
fn assert_agreed(ls: &Lockstep) {
    assert!(ls.divergences().is_empty(), "{:?}", ls.divergences());
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
    /// (emptiness prechecks + shard-ordered cover searches) must still be
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
    /// registrations in its log (taken by lock, kept for another lock,
    /// withdrawn when their yield ends) must deliver exactly the wake sets the
    /// reference's yielding-map scan produces, at every release, and at a
    /// cancel after a GO (a waiter's try-lock of the lock it holds). A
    /// try-lock that yields cancels without popping anything: it wakes
    /// nobody.
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
    /// the reference's walks, including bumps landing between a thread's
    /// entries being recorded and the cover searches that consume them.
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
/// *same* cause `(T0, L0)` — all registered in T0's log — and a
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
        Step::Run(1), // empty, so the emptiness precheck proves GO.
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
/// must YIELD. Regression for the whole-set emptiness fast reject, which
/// once refuted zero-other-member candidates unconditionally.
#[test]
fn single_member_signature_yields_in_both_engines() {
    let rt = Runtime::new(Config::default()).unwrap();
    let mut ls = Lockstep::with_reference(&rt);
    let site = rt.make_site(&[("caller", "d.rs", 1), ("inner", "d.rs", 101)]);
    rt.history()
        .add(CycleKind::Deadlock, vec![site.stack()], 2)
        .expect("fresh signature");
    rt.history().touch();
    let t = ls.register("T");
    let l = rt.new_lock_id();
    let d = ls.request(t, l, site.frames(), site.stack());
    assert!(
        matches!(d, Decision::Yield { .. }),
        "a lone-member signature must yield: {d:?}"
    );
    ls.cancel(t, l);
    assert_agreed(&ls);
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
    let rt = Runtime::new(Config::default()).unwrap();
    let mut ls = Lockstep::with_reference(&rt);
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

    let deep_thread = ls.register("deep");
    let shallow_thread = ls.register("shallow");
    let asking = ls.register("asking");
    let (deep_lock, shallow_lock, wanted) = (rt.new_lock_id(), rt.new_lock_id(), rt.new_lock_id());
    // One holder per signature, each covering its signature's other member.
    for (t, l, s) in [
        (deep_thread, deep_lock, &deep_holder),
        (shallow_thread, shallow_lock, &shallow_holder),
    ] {
        assert!(matches!(
            ls.request(t, l, s.frames(), s.stack()),
            Decision::Go
        ));
        ls.acquired(t, l, s.stack());
    }

    let (frames, stack) = (requester.frames(), requester.stack());
    let Decision::Yield { sig } = ls.request(asking, wanted, frames, stack) else {
        panic!("the requester must yield");
    };
    assert_eq!(sig.id, shallow.id);
    assert_eq!(
        rt.core().yield_causes(asking),
        vec![YieldCause {
            thread: shallow_thread,
            lock: shallow_lock,
            stack: shallow_holder.stack(),
        }]
    );
    // The reference shows its causes by whom a release wakes.
    assert_eq!(ls.release(deep_thread, deep_lock), vec![]);
    assert_eq!(ls.release(shallow_thread, shallow_lock), vec![asking]);
    ls.cancel(asking, wanted);
    assert_agreed(&ls);
}

/// A deterministic regression for a registration kept across an unrelated
/// release: the cause thread holds two locks acquired through the same
/// site, a yielder registers against the *first* one (bucket order picks
/// the first-inserted entry), and the cause thread releases them
/// innermost-first. The first release (lock 1) must *keep* the
/// registration — waking nobody, exactly like the reference — and the
/// second release (lock 0) must take it and wake the yielder.
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
        Step::Run(0), // T0 unlocks L1 (innermost): registration kept, no wake
        Step::Run(1), // T1 still yielding, not woken: no decision
        Step::Run(0), // T0 unlocks L0: its pop takes the registration, wakes T1
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

/// Pure appends always extend the view, however far the layout grows past
/// the first build's size: an append batch that quadruples the key count
/// extends it, an entry held across that rebuild (bucketed or log-only
/// before it) is still found by the next cover, in lockstep with the
/// reference, and the following small append extends again. Only the
/// first build is fresh.
#[test]
fn pure_appends_past_the_first_builds_size_keep_extending() {
    let rt = Runtime::new(Config::default()).unwrap();
    let mut ls = Lockstep::with_reference(&rt);
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
    // Every step runs through both engines and must decide alike; a GO
    // acquires.
    let request = |ls: &mut Lockstep, t: ThreadId, l: LockId, p: u32| -> bool {
        let s = site(p);
        let go = matches!(ls.request(t, l, s.frames(), s.stack()), Decision::Go);
        if go {
            ls.acquired(t, l, s.stack());
        }
        assert_agreed(ls);
        go
    };
    let threads: Vec<ThreadId> = (0..5).map(|_| ls.register("T")).collect();
    let locks: Vec<LockId> = (0..8).map(|_| rt.new_lock_id()).collect();

    // Two keys: the first build.
    add(0, 1);
    assert!(request(&mut ls, threads[0], locks[0], 0), "bucketed holder");
    assert!(request(&mut ls, threads[1], locks[1], 2), "log-only holder");
    assert!(
        request(&mut ls, threads[0], locks[4], 6),
        "log-only holder, for later"
    );
    let before = rt.stats();
    assert_eq!((before.rebuilds_full, before.rebuilds_delta), (1, 0));

    // Six more keys in pure appends, four times the first build's two.
    add(2, 3);
    add(10, 11);
    add(12, 13);
    assert!(
        !request(&mut ls, threads[2], locks[2], 1),
        "cover over the entry bucketed before the extension"
    );
    assert!(
        !request(&mut ls, threads[3], locks[3], 3),
        "cover over the entry only the extension's visit could bucket"
    );
    let grown = rt.stats();
    assert_eq!(
        (grown.rebuilds_full, grown.rebuilds_delta),
        (1, 1),
        "one extension over the whole span, no fresh build"
    );

    // Two more keys: this one extends too.
    add(6, 7);
    assert!(
        !request(&mut ls, threads[4], locks[5], 7),
        "cover over an entry the extension's visit bucketed"
    );
    let after = rt.stats();
    assert_eq!((after.rebuilds_full, after.rebuilds_delta), (1, 2));
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

/// The engines agree across chunks of thread records. With 66 threads
/// registered, ids 64 and 65 live in the second chunk. A holder there takes
/// a lock through a path that a pure append then makes relevant, so only
/// the extension's visit, walking both chunks, can bucket its entry. A
/// yielder in the first chunk waits on it and is woken by its release. Then
/// the same runs the other way round: a first-chunk holder wakes a
/// second-chunk yielder.
#[test]
fn a_visit_and_a_wake_cross_chunks_of_thread_records_in_lockstep() {
    let rt = Runtime::new(Config::default()).unwrap();
    let mut ls = Lockstep::with_reference(&rt);
    let site =
        |p: u32| rt.make_site(&[("caller", "chunks.rs", p), ("inner", "chunks.rs", 100 + p)]);
    let add = |i: u32, j: u32| {
        rt.history()
            .add(
                CycleKind::Deadlock,
                vec![site(i).stack(), site(j).stack()],
                2,
            )
            .expect("fresh signature")
            .id
    };
    // Every request runs through both engines and must decide alike: the
    // signature yielded on, or `None` for a GO, which acquires.
    let request = |ls: &mut Lockstep, t: ThreadId, l: LockId, p: u32| {
        let s = site(p);
        let sig = match ls.request(t, l, s.frames(), s.stack()) {
            Decision::Go => {
                ls.acquired(t, l, s.stack());
                None
            }
            Decision::Yield { sig } => Some(sig.id),
        };
        assert_agreed(ls);
        sig
    };
    let release = |ls: &mut Lockstep, t: ThreadId, l: LockId| {
        let wake = ls.release(t, l);
        assert_agreed(ls);
        wake
    };
    let threads: Vec<ThreadId> = (0..66).map(|_| ls.register("T")).collect();
    let locks: Vec<LockId> = (0..4).map(|_| rt.new_lock_id()).collect();
    let parked = || {
        rt.core()
            .parked_yielders()
            .into_iter()
            .map(|(t, _)| t)
            .collect::<Vec<_>>()
    };

    // Chunk 1 holds, chunk 0 yields.
    let (first, second) = (threads[1], threads[65]);
    let sig01 = add(0, 1);
    assert_eq!(
        request(&mut ls, second, locks[0], 2),
        None,
        "log-only holder"
    );
    let sig23 = add(2, 3);
    assert_eq!(
        request(&mut ls, first, locks[1], 3),
        Some(sig23),
        "cover over the visited entry"
    );
    assert_eq!(parked(), vec![first]);
    assert_eq!(release(&mut ls, second, locks[0]), vec![first]);
    assert_eq!(
        request(&mut ls, first, locks[1], 3),
        None,
        "retried after the wake"
    );
    assert!(parked().is_empty());

    // Chunk 0 holds, chunk 1 yields.
    let (first, second) = (threads[0], threads[64]);
    assert_eq!(request(&mut ls, first, locks[2], 0), None);
    assert_eq!(request(&mut ls, second, locks[3], 1), Some(sig01));
    assert_eq!(parked(), vec![second]);
    assert_eq!(release(&mut ls, first, locks[2]), vec![second]);
    assert_eq!(request(&mut ls, second, locks[3], 1), None);

    let stats = rt.stats();
    assert_eq!((stats.rebuilds_full, stats.rebuilds_delta), (1, 1));
}
