//! Differential property test: the incremental SCC predictor against a
//! brute-force reference on random small event traces.
//!
//! The reference re-records the same events into its own edge/instance
//! store (identical dedup rules), exhaustively enumerates every canonical
//! simple lock cycle of length `MIN_CYCLE_LEN..=MAX_CYCLE_LEN`, and runs
//! the same first-fit feasibility assignment. The predictor — fed the
//! identical trace and drained at the end — must produce exactly the same
//! set of emitted label multisets and the same count of guard-suppressed
//! cycles, no matter which merges, reorders or deferrals its incremental
//! machinery went through along the way.

use dimmunix_predict::{PredictionConfig, Predictor, MAX_CYCLE_LEN, MIN_CYCLE_LEN};
use dimmunix_rag::{LockId, ThreadId};
use dimmunix_signature::StackId;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

#[derive(Clone, Debug)]
enum Op {
    /// Thread `t` acquires lock `l` (stack derived from `(t, l)`).
    Acquire { t: u8, l: u8 },
    /// Thread `t` releases its innermost held lock.
    Release { t: u8 },
    /// Thread `t` exits, dropping all holds.
    Exit { t: u8 },
}

const THREADS: u8 = 4;
const LOCKS: u8 = 6;

fn arb_trace() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            // Acquire twice so traces stay hold-heavy (richer guard sets).
            (0..THREADS, 0..LOCKS).prop_map(|(t, l)| Op::Acquire { t, l }),
            (0..THREADS, 0..LOCKS).prop_map(|(t, l)| Op::Acquire { t, l }),
            (0..THREADS).prop_map(|t| Op::Release { t }),
            (0..THREADS).prop_map(|t| Op::Exit { t }),
        ],
        0..120,
    )
}

fn stack_of(t: u8, l: u8) -> StackId {
    StackId(u32::from(t) * 64 + u32::from(l) + 1)
}

fn config() -> PredictionConfig {
    PredictionConfig {
        // Caps high enough that the trace universe can never hit them:
        // the reference does not model capping.
        max_instances_per_edge: 1 << 12,
        max_edge_instances: 1 << 20,
        // Aging off: the reference has no notion of time.
        lock_retire_after: 0,
        ..PredictionConfig::default()
    }
}

/// One recorded edge instance: the holding thread, the hold-site stack,
/// and the sorted guard set (other locks held at request time).
type EdgeInstance = (ThreadId, StackId, Vec<LockId>);

/// The reference: an independent edge recorder plus an exhaustive
/// canonical-cycle enumerator with the predictor's feasibility filter.
#[derive(Default)]
struct Reference {
    /// `src → dst → instances` in insertion order, deduplicated —
    /// mirrors the predictor's recording rules exactly.
    edges: HashMap<LockId, HashMap<LockId, Vec<EdgeInstance>>>,
    held: HashMap<ThreadId, Vec<(LockId, StackId)>>,
}

impl Reference {
    fn acquire(&mut self, t: ThreadId, l: LockId, stack: StackId) {
        let held = self.held.entry(t).or_default();
        let reentrant = held.iter().any(|&(h, _)| h == l);
        let mut distinct: Vec<(LockId, StackId)> = Vec::new();
        if !reentrant {
            for &(h, s) in held.iter() {
                match distinct.iter_mut().find(|(d, _)| *d == h) {
                    Some(e) => e.1 = s, // innermost hold wins
                    None => distinct.push((h, s)),
                }
            }
        }
        held.push((l, stack));
        for &(src, hold_stack) in &distinct {
            let mut guards: Vec<LockId> = distinct
                .iter()
                .map(|&(d, _)| d)
                .filter(|&d| d != src)
                .collect();
            guards.sort_unstable();
            let inst = (t, hold_stack, guards);
            let slot = self.edges.entry(src).or_default().entry(l).or_default();
            if !slot.contains(&inst) {
                slot.push(inst);
            }
        }
    }

    fn release(&mut self, t: ThreadId, l: LockId) {
        if let Some(held) = self.held.get_mut(&t) {
            if let Some(pos) = held.iter().rposition(|&(h, _)| h == l) {
                held.remove(pos);
            }
        }
    }

    fn exit(&mut self, t: ThreadId) {
        self.held.remove(&t);
    }

    /// Exhaustively enumerates canonical simple cycles (minimum lock
    /// first, so each directed cycle is visited exactly once) and applies
    /// the feasibility filter. Returns `(emitted label multisets,
    /// guard-suppressed cycle count)`.
    fn predict(&self) -> (BTreeSet<Vec<StackId>>, u64) {
        let mut emitted: BTreeSet<Vec<StackId>> = BTreeSet::new();
        let mut suppressed: BTreeSet<Vec<LockId>> = BTreeSet::new();
        let mut nodes: Vec<LockId> = self.edges.keys().copied().collect();
        nodes.sort_unstable();
        for &start in &nodes {
            let mut path = vec![start];
            self.dfs(start, &mut path, &mut emitted, &mut suppressed);
        }
        (emitted, suppressed.len() as u64)
    }

    fn dfs(
        &self,
        start: LockId,
        path: &mut Vec<LockId>,
        emitted: &mut BTreeSet<Vec<StackId>>,
        suppressed: &mut BTreeSet<Vec<LockId>>,
    ) {
        let last = *path.last().expect("path never empty");
        let Some(succs) = self.edges.get(&last) else {
            return;
        };
        let mut next: Vec<LockId> = succs.keys().copied().collect();
        next.sort_unstable();
        for n in next {
            if n == start {
                if path.len() >= MIN_CYCLE_LEN {
                    self.try_emit(path, emitted, suppressed);
                }
                continue;
            }
            // Canonical: only locks above the start, each visited once.
            if n < start || path.contains(&n) || path.len() >= MAX_CYCLE_LEN {
                continue;
            }
            path.push(n);
            self.dfs(start, path, emitted, suppressed);
            path.pop();
        }
    }

    fn try_emit(
        &self,
        path: &[LockId],
        emitted: &mut BTreeSet<Vec<StackId>>,
        suppressed: &mut BTreeSet<Vec<LockId>>,
    ) {
        let mut chosen: Vec<&EdgeInstance> = Vec::new();
        let mut guard_blocked = false;
        if self.assign(path, 0, &mut chosen, &mut guard_blocked) {
            let mut labels: Vec<StackId> = chosen.iter().map(|i| i.1).collect();
            labels.sort_unstable();
            emitted.insert(labels);
        } else if guard_blocked {
            let mut key = path.to_vec();
            key.sort_unstable();
            suppressed.insert(key);
        }
    }

    fn assign<'g>(
        &'g self,
        path: &[LockId],
        i: usize,
        chosen: &mut Vec<&'g EdgeInstance>,
        guard_blocked: &mut bool,
    ) -> bool {
        if i == path.len() {
            return true;
        }
        let dst = path[(i + 1) % path.len()];
        let insts = self
            .edges
            .get(&path[i])
            .and_then(|m| m.get(&dst))
            .map_or(&[][..], |v| v.as_slice());
        for inst in insts {
            if chosen.iter().any(|c| c.0 == inst.0) {
                continue;
            }
            if inst
                .2
                .iter()
                .any(|g| path.contains(g) || chosen.iter().any(|c| c.2.contains(g)))
            {
                *guard_blocked = true;
                continue;
            }
            chosen.push(inst);
            if self.assign(path, i + 1, chosen, guard_blocked) {
                return true;
            }
            chosen.pop();
        }
        false
    }
}

/// One side's outcome: its predicted signature set plus its pass counter.
type SideOutcome = (BTreeSet<Vec<StackId>>, u64);

/// Feeds the trace to both sides and drains the predictor completely.
fn run_both(trace: &[Op], cfg: PredictionConfig) -> (SideOutcome, SideOutcome) {
    let mut p = Predictor::new(cfg);
    let mut r = Reference::default();
    for op in trace {
        match *op {
            Op::Acquire { t, l } => {
                let (tid, lid) = (ThreadId(u64::from(t)), LockId(u64::from(l)));
                let stack = stack_of(t, l);
                p.on_acquired(tid, lid, stack);
                r.acquire(tid, lid, stack);
            }
            Op::Release { t } => {
                let tid = ThreadId(u64::from(t));
                if let Some(&(l, _)) = r.held.get(&tid).and_then(|h| h.last()) {
                    p.on_release(tid, l);
                    r.release(tid, l);
                }
            }
            Op::Exit { t } => {
                let tid = ThreadId(u64::from(t));
                p.on_thread_exit(tid);
                r.exit(tid);
            }
        }
    }
    let mut predicted: BTreeSet<Vec<StackId>> = BTreeSet::new();
    // Drain: deferrals park work across passes; a bounded loop flushes
    // every pending enumeration (bound generous — deferral count per
    // pass is at least one enumeration's progress).
    for _ in 0..1024 {
        for c in p.pass() {
            predicted.insert(c.labels);
        }
        if !p.has_pending_work() {
            break;
        }
    }
    assert!(!p.has_pending_work(), "drain loop failed to converge");
    let stats = p.stats();
    assert_eq!(stats.dropped, 0, "caps must not fire in the test universe");
    ((predicted, stats.guard_suppressed), r.predict())
}

proptest! {
    /// The incremental predictor and the exhaustive reference agree on
    /// every random trace: same feasible cycles (by label multiset) and
    /// same guard-suppression verdicts.
    #[test]
    fn scc_predictor_matches_brute_force(trace in arb_trace()) {
        let ((got, got_suppressed), (want, want_suppressed)) =
            run_both(&trace, config());
        prop_assert_eq!(&got, &want, "emitted cycle sets diverge");
        prop_assert_eq!(got_suppressed, want_suppressed, "suppression verdicts diverge");
    }

    /// Same equivalence under a starved pass budget: deferrals reorder
    /// work across passes but never lose or invent cycles.
    #[test]
    fn equivalence_survives_deferrals(trace in arb_trace()) {
        let cfg = PredictionConfig { pass_budget: 3, ..config() };
        let ((got, got_suppressed), (want, want_suppressed)) =
            run_both(&trace, cfg);
        prop_assert_eq!(&got, &want, "emitted cycle sets diverge under deferral");
        prop_assert_eq!(got_suppressed, want_suppressed, "suppression verdicts diverge under deferral");
    }
}

/// Feeds `trace[range]` to `p`, running a pass after every third op of the
/// whole trace; returns the labels of the cycles those passes found.
/// `held` is the caller's record of each thread's holds, so that a release
/// names the thread's innermost lock.
fn feed(
    p: &mut Predictor,
    held: &mut HashMap<ThreadId, Vec<LockId>>,
    trace: &[Op],
    range: std::ops::Range<usize>,
) -> Vec<Vec<StackId>> {
    let mut found = Vec::new();
    for i in range {
        match trace[i] {
            Op::Acquire { t, l } => {
                let (tid, lid) = (ThreadId(u64::from(t)), LockId(u64::from(l)));
                p.on_acquired(tid, lid, stack_of(t, l));
                held.entry(tid).or_default().push(lid);
            }
            Op::Release { t } => {
                let tid = ThreadId(u64::from(t));
                if let Some(l) = held.get_mut(&tid).and_then(Vec::pop) {
                    p.on_release(tid, l);
                }
            }
            Op::Exit { t } => {
                let tid = ThreadId(u64::from(t));
                p.on_thread_exit(tid);
                held.remove(&tid);
            }
        }
        if i % 3 == 2 {
            found.extend(p.pass().into_iter().map(|c| c.labels));
        }
    }
    found
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The determinism contract the monitor's restart path relies on: a
    /// clone taken at any point of a trace and fed the rest of it finds
    /// the same cycles as its original and ends in the same state, `Debug`
    /// dump for dump — lock aging and budget deferrals included.
    #[test]
    fn a_clone_fed_the_same_inputs_reaches_the_same_state(
        trace in arb_trace(),
        cut in any::<usize>(),
    ) {
        let cut = cut % (trace.len() + 1);
        let cfg = PredictionConfig { pass_budget: 3, lock_retire_after: 2, ..config() };
        let mut original = Predictor::new(cfg);
        let mut held = HashMap::new();
        feed(&mut original, &mut held, &trace, 0..cut);
        let (mut copy, mut copy_held) = (original.clone(), held.clone());
        let want = feed(&mut original, &mut held, &trace, cut..trace.len());
        let got = feed(&mut copy, &mut copy_held, &trace, cut..trace.len());
        prop_assert_eq!(got, want);
        prop_assert_eq!(format!("{copy:?}"), format!("{original:?}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The same contract when the copy is not fresh: a predictor fed an
    /// older prefix of the trace — smaller arenas, other map layouts — is
    /// refreshed with `clone_from`, and must then be indistinguishable
    /// from a clone.
    #[test]
    fn a_clone_fed_the_same_inputs_reaches_the_same_state_after_clone_from(
        trace in arb_trace(),
        cut in any::<usize>(),
        older in any::<usize>(),
    ) {
        let cut = cut % (trace.len() + 1);
        let older = older % (cut + 1);
        let cfg = PredictionConfig { pass_budget: 3, lock_retire_after: 2, ..config() };
        let (mut original, mut copy) = (Predictor::new(cfg.clone()), Predictor::new(cfg));
        let (mut held, mut stale_held) = (HashMap::new(), HashMap::new());
        feed(&mut copy, &mut stale_held, &trace, 0..older);
        feed(&mut original, &mut held, &trace, 0..cut);
        copy.clone_from(&original);
        let mut copy_held = held.clone();
        let want = feed(&mut original, &mut held, &trace, cut..trace.len());
        let got = feed(&mut copy, &mut copy_held, &trace, cut..trace.len());
        prop_assert_eq!(got, want);
        prop_assert_eq!(format!("{copy:?}"), format!("{original:?}"));
    }

    /// The same contract across compactions: every lock retires after one
    /// quiet pass, and halfway through every thread exits and passes run
    /// until the whole graph has retired, so its arenas compact (to
    /// nothing, then again as the second half re-learns it).
    #[test]
    fn a_clone_fed_the_same_inputs_reaches_the_same_state_across_compactions(
        trace in arb_trace(),
        mid in any::<usize>(),
        cut in any::<usize>(),
    ) {
        let mid = mid % (trace.len() + 1);
        // Twelve exits: every hold dropped, then four passes with no input.
        let exits = (0..3).flat_map(|_| (0..THREADS).map(|t| Op::Exit { t }));
        let ops: Vec<Op> = trace[..mid].iter().cloned().chain(exits).chain(trace[mid..].iter().cloned()).collect();
        let quiet = mid + 3 * usize::from(THREADS);
        let cfg = PredictionConfig { pass_budget: 3, lock_retire_after: 1, ..config() };
        let mut probe = Predictor::new(cfg.clone());
        feed(&mut probe, &mut HashMap::new(), &ops, 0..quiet);
        prop_assert_eq!(probe.stats().locks, 0, "the quiet stretch retires every lock");

        let cut = cut % (ops.len() + 1);
        let mut original = Predictor::new(cfg);
        let mut held = HashMap::new();
        feed(&mut original, &mut held, &ops, 0..cut);
        let (mut copy, mut copy_held) = (original.clone(), held.clone());
        let want = feed(&mut original, &mut held, &ops, cut..ops.len());
        let got = feed(&mut copy, &mut copy_held, &ops, cut..ops.len());
        prop_assert_eq!(got, want);
        prop_assert_eq!(format!("{copy:?}"), format!("{original:?}"));
    }
}
