//! Scripts: the programs virtual threads execute.

use crate::sim::LockHandle;

/// An optional explicit source-site label for a lock operation.
///
/// By default a lock op's call-site frame is derived from its position in
/// the script, which distinguishes textually distinct operations — like
/// distinct source lines. When several scripts share a logical function
/// (e.g. two different callers both running `Connection.close()`), give the
/// shared operations the *same* site label so their frames coincide across
/// scripts, exactly as shared code produces shared return addresses.
pub type Site = Option<&'static str>;

/// One scripted operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// Blocking lock acquisition (routed through the Dimmunix hooks).
    Lock(LockHandle, Site),
    /// Release (the `release` hook runs before the simulated unlock).
    Unlock(LockHandle),
    /// Release only if this thread currently holds the lock — the natural
    /// companion of [`Op::TryLock`] fallback paths.
    UnlockIfHeld(LockHandle),
    /// Release of the most recently acquired lock still held; nothing when
    /// the thread holds none.
    UnlockInnermost,
    /// Non-blocking acquisition; on failure (contention or yield decision)
    /// execution simply continues — like taking the fallback path after
    /// `pthread_mutex_trylock` fails.
    TryLock(LockHandle, Site),
    /// Spin for `n` simulated time steps (models δin/δout computation).
    Compute(u32),
    /// Push a named call frame (shapes the signature stacks).
    Call(&'static str),
    /// Pop the innermost call frame.
    Return,
}

/// A straight-line program for one virtual thread, built fluently.
///
/// Call frames pushed with [`Script::call`] become part of every later lock
/// operation's call stack until the matching [`Script::ret`]; each lock op
/// additionally contributes its own site frame.
#[derive(Clone, Default, Debug)]
pub struct Script {
    ops: Vec<Op>,
}

impl Script {
    /// Empty script.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a blocking lock (site derived from script position).
    pub fn lock(mut self, l: LockHandle) -> Self {
        self.ops.push(Op::Lock(l, None));
        self
    }

    /// Appends a blocking lock at an explicitly named source site.
    pub fn lock_at(mut self, l: LockHandle, site: &'static str) -> Self {
        self.ops.push(Op::Lock(l, Some(site)));
        self
    }

    /// Appends an unlock.
    pub fn unlock(mut self, l: LockHandle) -> Self {
        self.ops.push(Op::Unlock(l));
        self
    }

    /// Appends a try-lock (site derived from script position).
    pub fn try_lock(mut self, l: LockHandle) -> Self {
        self.ops.push(Op::TryLock(l, None));
        self
    }

    /// Appends a conditional unlock (no-op when not held).
    pub fn unlock_if_held(mut self, l: LockHandle) -> Self {
        self.ops.push(Op::UnlockIfHeld(l));
        self
    }

    /// Appends a release of the most recently acquired lock (no-op when
    /// none is held).
    pub fn unlock_innermost(mut self) -> Self {
        self.ops.push(Op::UnlockInnermost);
        self
    }

    /// Appends a try-lock at an explicitly named source site.
    pub fn try_lock_at(mut self, l: LockHandle, site: &'static str) -> Self {
        self.ops.push(Op::TryLock(l, Some(site)));
        self
    }

    /// Appends `n` steps of computation.
    pub fn compute(mut self, n: u32) -> Self {
        self.ops.push(Op::Compute(n));
        self
    }

    /// Pushes a call frame.
    pub fn call(mut self, name: &'static str) -> Self {
        self.ops.push(Op::Call(name));
        self
    }

    /// Pops the innermost call frame.
    pub fn ret(mut self) -> Self {
        self.ops.push(Op::Return);
        self
    }

    /// Runs `f` inside a named call frame (`call` … `ret` bracket).
    pub fn scoped(self, name: &'static str, f: impl FnOnce(Self) -> Self) -> Self {
        f(self.call(name)).ret()
    }

    /// Appends all ops of `other`.
    pub fn then(mut self, other: Script) -> Self {
        self.ops.extend(other.ops);
        self
    }

    /// Repeats `other` `n` times.
    pub fn repeat(mut self, n: usize, other: Script) -> Self {
        for _ in 0..n {
            self.ops.extend(other.ops.iter().copied());
        }
        self
    }

    /// The op sequence.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the script is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_ops() {
        let l = LockHandle(0);
        let s = Script::new().call("f").lock(l).compute(3).unlock(l).ret();
        assert_eq!(
            s.ops(),
            &[
                Op::Call("f"),
                Op::Lock(l, None),
                Op::Compute(3),
                Op::Unlock(l),
                Op::Return
            ]
        );
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
    }

    #[test]
    fn scoped_brackets_with_call_ret() {
        let l = LockHandle(1);
        let s = Script::new().scoped("update", |s| s.lock_at(l, "s3").unlock(l));
        assert_eq!(s.ops()[0], Op::Call("update"));
        assert_eq!(s.ops()[1], Op::Lock(l, Some("s3")));
        assert_eq!(*s.ops().last().unwrap(), Op::Return);
    }

    #[test]
    fn then_and_repeat_concatenate() {
        let a = Script::new().compute(1);
        let b = Script::new().compute(2);
        assert_eq!(a.clone().then(b.clone()).len(), 2);
        assert_eq!(a.repeat(3, b).len(), 4);
    }
}
