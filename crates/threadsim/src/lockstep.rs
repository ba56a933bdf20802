//! One driver for the engine and its oracle. Every hook goes to the
//! runtime's `AvoidanceCore` and, when a reference is attached, to a
//! [`ReferenceCore`] over the same history and stack table, and the answers
//! are compared at the hook: a request's decision and the signature yielded
//! on; the wake sets of `release`, `cancel` and the exit sweep. [`crate::Sim`]
//! (and so the explorer), the differential proptests and the chaos storm
//! all drive the engines through it.
//!
//! Wake sets are compared, as sorted thread ids, only while both engines
//! have handed out the same id at every registration: which entry a cover
//! binds, and so which give-up wakes a yielder, follows the ids' order.
//! Decisions are always compared.

use dimmunix_core::{Decision, LockId, ReferenceCore, Runtime, ThreadId};
use dimmunix_signature::{FrameId, StackId};
use std::sync::Arc;

/// Drives every hook through the engine and, when attached, the oracle
/// (module docs).
#[derive(Debug)]
pub struct Lockstep {
    rt: Runtime,
    reference: Option<ReferenceCore>,
    /// `(engine id, reference id, name)` per registration, latest last.
    threads: Vec<(ThreadId, ThreadId, &'static str)>,
    aligned: bool,
    divergences: Vec<String>,
}

impl Lockstep {
    /// Drives the engine of `rt` alone, until [`Lockstep::attach_reference`].
    pub fn new(rt: &Runtime) -> Self {
        Self {
            rt: rt.clone(),
            reference: None,
            threads: Vec::new(),
            aligned: true,
            divergences: Vec::new(),
        }
    }

    /// Drives the engine of `rt` and a [`ReferenceCore`] beside it.
    pub fn with_reference(rt: &Runtime) -> Self {
        let mut lockstep = Self::new(rt);
        lockstep.attach_reference();
        lockstep
    }

    /// Attaches a [`ReferenceCore`] sharing the runtime's history and stack
    /// table: every later hook is compared.
    ///
    /// # Panics
    ///
    /// Panics if a thread is registered: both engines must see them all.
    pub fn attach_reference(&mut self) {
        assert!(self.threads.is_empty(), "attach before registering");
        let (history, stacks) = (self.rt.history(), self.rt.stack_table());
        let config = self.rt.config().clone();
        let reference = ReferenceCore::new(config, Arc::clone(history), Arc::clone(stacks));
        self.reference = Some(reference);
    }

    /// The divergences reported so far, each naming its thread and lock.
    pub fn divergences(&self) -> &[String] {
        &self.divergences
    }

    /// Registers a thread in both engines; `name` labels it in reports.
    ///
    /// # Panics
    ///
    /// Panics when either engine has no free thread slot.
    pub fn register(&mut self, name: &'static str) -> ThreadId {
        let full = "thread registration failed: MAX_THREADS threads are registered";
        let engine = self.rt.core().register_thread().expect(full);
        let reference = match &self.reference {
            Some(r) => r.register_thread().expect(full),
            None => engine,
        };
        self.aligned &= reference == engine;
        self.threads.push((engine, reference, name));
        engine
    }

    /// The exit sweep: deregisters `t`, returning the yielders it woke.
    pub fn unregister(&mut self, t: ThreadId) -> Vec<ThreadId> {
        let mut wake = Vec::new();
        let core = self.rt.core();
        core.unregister_thread_waking(t, &mut |w| wake.push(w));
        self.compare_wakes(t, "exiting".into(), wake, |r, rt| r.unregister_thread(rt))
    }

    /// The `request` hook: the engine's decision.
    pub fn request(
        &mut self,
        t: ThreadId,
        l: LockId,
        frames: &[FrameId],
        stack: StackId,
    ) -> Decision {
        let decision = self.rt.core().request(t, l, frames, stack);
        if let Some((r, rt)) = self.reference(t) {
            let verdict = |d: &Decision| match d {
                Decision::Go => "GO".to_string(),
                Decision::Yield { sig } => format!("YIELD on signature {}", sig.id.0),
            };
            let (a, b) = (
                verdict(&decision),
                verdict(&r.request(rt, l, frames, stack)),
            );
            if a != b {
                let what = format!("requesting lock {}: engine {a} vs reference {b}", l.0);
                self.diverged(t, what);
            }
        }
        decision
    }

    /// The `waiting` hook, engine only: the reference publishes nothing.
    pub fn waiting(&mut self, t: ThreadId, l: LockId, stack: StackId) {
        self.rt.core().waiting(t, l, stack);
    }

    /// The `acquired` hook, engine only: the reference's GO already entered
    /// the `Allowed` entry.
    pub fn acquired(&mut self, t: ThreadId, l: LockId, stack: StackId) {
        self.rt.core().acquired(t, l, stack);
    }

    /// The `force_go` hook (a broken or timed-out yield).
    pub fn force_go(&mut self, t: ThreadId, l: LockId, frames: &[FrameId], stack: StackId) {
        self.rt.core().force_go(t, l, frames, stack);
        if let Some((r, rt)) = self.reference(t) {
            r.force_go(rt, l, stack);
        }
    }

    /// The `release` hook: the yielders the engine says to wake.
    pub fn release(&mut self, t: ThreadId, l: LockId) -> Vec<ThreadId> {
        let wake = self.rt.core().release(t, l);
        let what = format!("releasing lock {}", l.0);
        self.compare_wakes(t, what, wake, |r, rt| r.release(rt, l))
    }

    /// The `cancel` hook: the yielders the engine says to wake.
    pub fn cancel(&mut self, t: ThreadId, l: LockId) -> Vec<ThreadId> {
        let wake = self.rt.core().cancel(t, l);
        let what = format!("cancelling lock {}", l.0);
        self.compare_wakes(t, what, wake, |r, rt| r.cancel(rt, l))
    }

    /// The latest registration of engine id `t`.
    fn thread(&self, t: ThreadId) -> (ThreadId, ThreadId, &'static str) {
        let mut latest = self.threads.iter().rev();
        *latest
            .find(|r| r.0 == t)
            .expect("registered through Lockstep")
    }

    fn reference(&self, t: ThreadId) -> Option<(&ReferenceCore, ThreadId)> {
        Some((self.reference.as_ref()?, self.thread(t).1))
    }

    /// Runs the reference's side of a give-up by `t` and records a
    /// divergence if the aligned engines woke different threads. Returns
    /// the engine's `wake`.
    fn compare_wakes(
        &mut self,
        t: ThreadId,
        what: String,
        wake: Vec<ThreadId>,
        hook: impl FnOnce(&ReferenceCore, ThreadId) -> Vec<ThreadId>,
    ) -> Vec<ThreadId> {
        if let Some((r, rt)) = self.reference(t) {
            let (mut a, mut b) = (wake.clone(), hook(r, rt));
            a.sort_unstable();
            b.sort_unstable();
            if self.aligned && a != b {
                self.diverged(t, format!("{what}: engine wakes {a:?} vs reference {b:?}"));
            }
        }
        wake
    }

    fn diverged(&mut self, t: ThreadId, what: String) {
        let name = self.thread(t).2;
        let report = format!("thread {name} (id {}) {what}", t.0);
        self.divergences.push(report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimmunix_core::{Config, CycleKind, LockSite};

    /// A runtime whose history holds one signature over `s1` and `s2` at
    /// depth 2, with a lockstep driver over it.
    fn two_sites() -> (Runtime, Lockstep, LockSite, LockSite) {
        let rt = Runtime::new(Config::default()).unwrap();
        let ls = Lockstep::with_reference(&rt);
        let s1 = rt.make_site(&[("caller", "lockstep.rs", 1), ("s1", "lockstep.rs", 1)]);
        let s2 = rt.make_site(&[("caller", "lockstep.rs", 1), ("s2", "lockstep.rs", 2)]);
        let members = vec![s1.stack(), s2.stack()];
        rt.history()
            .add(CycleKind::Deadlock, members, 2)
            .expect("fresh signature");
        rt.history().touch();
        (rt, ls, s1, s2)
    }

    fn request(ls: &mut Lockstep, t: ThreadId, l: LockId, s: &LockSite) -> Decision {
        ls.request(t, l, s.frames(), s.stack())
    }

    fn assert_agreed(ls: &Lockstep) {
        assert!(ls.divergences().is_empty(), "{:?}", ls.divergences());
    }

    /// A try-lock that yields on a lock its thread already holds cancels
    /// only the yield: the hold stays in both engines and still covers.
    #[test]
    fn a_yielded_try_lock_of_a_held_lock_keeps_the_hold() {
        let (rt, mut ls, s1, s2) = two_sites();
        let [t0, t1, t2] = ["T0", "T1", "T2"].map(|name| ls.register(name));
        let [a, b, c] = [(); 3].map(|_| rt.new_lock_id());
        for (t, l) in [(t0, a), (t2, c)] {
            assert!(matches!(request(&mut ls, t, l, &s1), Decision::Go));
            ls.acquired(t, l, s1.stack());
        }
        let d = request(&mut ls, t0, a, &s2);
        assert!(
            matches!(d, Decision::Yield { .. }),
            "T2's hold covers: {d:?}"
        );
        assert_eq!(ls.cancel(t0, a), vec![], "the yield pushed no entry");
        assert_eq!(ls.release(t2, c), vec![]);
        let d = request(&mut ls, t1, b, &s2);
        assert_agreed(&ls);
        assert!(
            matches!(d, Decision::Yield { .. }),
            "T0 still holds A via s1: {d:?}"
        );
    }

    /// A cause whose request was granted, and who then gives up waiting
    /// for the lock, wakes its yielder at the `cancel`, in both engines.
    #[test]
    fn a_granted_then_cancelled_cause_wakes_its_yielder() {
        let (rt, mut ls, s1, s2) = two_sites();
        let [c, y] = ["C", "Y"].map(|name| ls.register(name));
        let [l0, l1] = [(); 2].map(|_| rt.new_lock_id());
        assert!(matches!(request(&mut ls, c, l0, &s1), Decision::Go));
        ls.waiting(c, l0, s1.stack());
        let d = request(&mut ls, y, l1, &s2);
        assert!(
            matches!(d, Decision::Yield { .. }),
            "C's grant covers: {d:?}"
        );
        let wake = ls.cancel(c, l0);
        assert_agreed(&ls);
        assert_eq!(wake, vec![y]);
    }

    /// A hook driven behind the driver's back leaves the engines apart, and
    /// the next compared hook reports it, naming the thread and the lock.
    #[test]
    fn a_divergence_planted_behind_the_drivers_back_is_reported() {
        let (rt, mut ls, s1, s2) = two_sites();
        let [h, w] = ["H", "W"].map(|name| ls.register(name));
        let [a, b] = [(); 2].map(|_| rt.new_lock_id());
        // Only the engine learns of H's hold.
        assert!(matches!(
            rt.core().request(h, a, s1.frames(), s1.stack()),
            Decision::Go
        ));
        rt.core().acquired(h, a, s1.stack());
        let d = request(&mut ls, w, b, &s2);
        assert!(matches!(d, Decision::Yield { .. }), "{d:?}");
        let [report] = ls.divergences() else {
            panic!("one divergence expected: {:?}", ls.divergences());
        };
        assert!(report.contains("thread W"), "{report}");
        assert!(report.contains(&format!("lock {}", b.0)), "{report}");
    }
}
