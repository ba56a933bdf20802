//! Stateless model checking for the Dimmunix engine: exhaustive
//! enumeration of thread interleavings over bounded [`Scenario`] scripts,
//! with dynamic partial-order reduction (DPOR), an invariant harness, a
//! schedule minimizer and a replayable deadlock corpus.
//!
//! Random seed sweeps
//! ([`dimmunix_threadsim::explore`](mod@dimmunix_threadsim::explore))
//! answer "does some schedule deadlock?"; this crate answers "does **any**
//! schedule violate an invariant?" by walking the whole schedule space of
//! small scripts.
//!
//! # The schedule space
//!
//! A [`dimmunix_threadsim::Sim`] run is fully determined by the sequence
//! of scheduler decisions: at each decision point the set of eligible
//! threads and the class of each thread's next step
//! ([`dimmunix_threadsim::StepClass`]) are exposed through
//! [`dimmunix_threadsim::SchedulePoint`], and the explorer's
//! [`Scheduler`](dimmunix_threadsim::Scheduler) picks one thread. The
//! explorer re-executes the scenario from scratch for every schedule
//! (stateless model checking), replaying a recorded prefix and branching
//! at the deepest unexplored decision — a depth-first walk of the
//! schedule tree.
//!
//! Determinism requires that a run's behaviour depend *only* on the
//! decision sequence. [`Scenario::sim_config`] pins the two sources of
//! timing sensitivity: the monitor only steps at quiescence
//! (`monitor_every = u64::MAX`, and the simulator always steps it when no
//! thread is runnable), and yield timeouts are disabled
//! (`max_yield_steps = None`). Under that configuration the explorer
//! verifies replay determinism on every run: a replayed prefix must
//! reproduce the recorded eligible sets exactly, else the run is flagged
//! as a nondeterminism violation.
//!
//! # Independence and soundness of the reduction
//!
//! DPOR prunes schedules that are *Mazurkiewicz-equivalent* — reachable
//! from an explored schedule by swapping adjacent independent steps. Two
//! steps are independent when executing them in either order yields the
//! same state and neither enables/disables the other. The explorer derives
//! independence from [`StepClass`](dimmunix_threadsim::StepClass) alone:
//!
//! * `Local` steps (`Compute`, `Call`, `Return`, thread exit) touch only
//!   the stepping thread's program counter, frame stack and the global
//!   step counter. With the monitor quiesced and yield timeouts off,
//!   simulated time has no observable effect, so a `Local` step is
//!   independent of **every** other step. A thread whose next step is
//!   `Local` therefore forms a singleton persistent set: the explorer
//!   runs it immediately and never branches at that node ("invisible
//!   transition" reduction).
//! * `Visible(l)` steps (lock, try-lock, unlock, park, resume on lock
//!   `l`) interact with lock state, the avoidance engine and the FIFO
//!   wait queues. Their independence depends on the engine mode, chosen
//!   per run by inspecting the runtime's history
//!   ([`DependenceMode`]):
//!   * **`PerLock`** (empty history — avoidance never yields): every
//!     acquire gets GO, so two visible steps on *different* locks
//!     commute: lock state is per-lock, engine resource records are
//!     per-thread appends whose cross-thread order is unobservable, and
//!     monitor event lanes are per-thread SPSC queues drained in slot
//!     order at quiescence — the reconstructed wait-for graph depends
//!     only on per-thread event streams, not on their interleaving.
//!     Same-lock steps (FIFO queue order, ownership hand-off) are
//!     dependent and never pruned.
//!   * **`Global`** (non-empty history — avoidance live): a yield
//!     decision is computed from a *cross-thread* cover search over every
//!     thread's held/requested resources, so any two visible steps may
//!     enable or disable each other. The explorer conservatively treats
//!     all visible pairs as dependent; only the `Local` singleton
//!     reduction applies. This degrades reduction, never soundness.
//!
//! Sleep sets prune the remaining commutations: after exploring child `c`
//! at a node, `c` is put to sleep for the later siblings' subtrees and
//! woken only by a step dependent on `c`'s. Because a sleeping thread's
//! next-step class cannot change while it sleeps (only the thread's own
//! step changes its state), the class-based dependence test is stable.
//! Together — full branching at visible nodes (the conservative
//! persistent set), singleton `Local` nodes, and sleep sets — every
//! Mazurkiewicz trace of the scenario is explored at least once, so any
//! reachable deadlock, lockstep divergence or lost wakeup is found.
//! [`Exploration::complete`] reports whether the walk covered the space
//! without hitting the schedule cap, the step budget or a preemption
//! bound.
//!
//! # Pipeline
//!
//! ```text
//! Scenario ──▶ explore (DPOR, avoidance off) ──▶ deadlock schedules
//!                   │                                  │
//!                   │ Lockstep vs ReferenceCore        ▼
//!                   │ no-lost-wakeup accounting    minimize ──▶ corpus
//!                   ▼                                  │       fixture
//!              violations == ∅                         ▼
//!              Scenario ──▶ explore (vaccinated) ──▶ must complete
//! ```
//!
//! Lockstep is [`dimmunix_threadsim::Lockstep`], in each schedule's `Sim`:
//! decision, signature and the wake sets of release, cancel and exit.
//!
//! [`harness::verify_scenario`] runs the full pipeline; [`corpus`] gives
//! the fixtures a versioned on-disk format so refactors of the engine are
//! gated by replaying every previously-mined deadlock.

pub mod corpus;
pub mod dpor;
pub mod harness;
pub mod minimize;
pub mod scenario;

pub use corpus::{default_corpus_dir, edges_fingerprint, load_dir, ExpectedOutcome, Fixture};
pub use dpor::{
    explore, outcome_fingerprint, DeadlockSchedule, DependenceMode, Exploration, ExploreConfig,
    Pruning,
};
pub use harness::{mine_vaccine, verify_scenario, HarnessReport};
pub use minimize::minimize;
pub use scenario::{scenarios, Scenario, ThreadSpec};
