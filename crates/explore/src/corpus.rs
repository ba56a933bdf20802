//! The deadlock corpus: a versioned, line-oriented text format for
//! checked-in fixtures (scenario + schedule + expected outcome), so every
//! deadlock the explorer ever mined keeps gating future engine refactors.
//!
//! Format (`dimmunix-corpus v1`):
//!
//! ```text
//! dimmunix-corpus v1
//! scenario ab_ba
//! lock A
//! lock B
//! thread T1 call:update lock:0 lock:1 unlock:1 unlock:0 ret
//! thread T2 call:update lock:1 lock:0 unlock:0 unlock:1 ret
//! schedule 0 0 1 1 1 0
//! outcome deadlock
//! edge T1 B T2 blocked
//! edge T2 A T1 blocked
//! end
//! ```
//!
//! Lock operands are lock *indices* (declaration order); an optional
//! `@site` suffix names the acquisition site. All names are
//! whitespace-free tokens. A fixture replays two ways:
//! [`Fixture::verify_fresh`] (strict schedule replay on an empty-history
//! runtime must reproduce the recorded outcome byte-for-byte) and
//! [`Fixture::verify_immunized`] (lenient replay on a vaccinated runtime
//! must complete — the mined deadlock is gone).

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use dimmunix_core::{Config, Runtime};
use dimmunix_threadsim::{Outcome, ReplayScheduler, Script, WaitEdge};

use crate::scenario::Scenario;

/// Interns a string, so parsed fixtures can feed the `&'static str` APIs
/// of the simulator. Deduplicated: re-parsing fixtures does not leak.
fn intern(s: &str) -> &'static str {
    static CACHE: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut set = CACHE.get_or_init(Default::default).lock().unwrap();
    if let Some(&e) = set.get(s) {
        return e;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    set.insert(leaked);
    leaked
}

/// Canonical fingerprint of a wait-for edge set: sorted, one token per
/// edge. Used to decide whether two deadlocks are "the same".
pub fn edges_fingerprint(edges: &[WaitEdge]) -> String {
    let mut toks: Vec<String> = edges.iter().map(edge_token).collect();
    toks.sort();
    toks.join(",")
}

fn edge_token(e: &WaitEdge) -> String {
    format!(
        "{}->{}@{}({})",
        e.waiter,
        e.lock,
        e.holder.unwrap_or("-"),
        if e.via_yield { "yield" } else { "blocked" }
    )
}

/// The outcome a fixture expects when strictly replayed on a fresh
/// runtime.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExpectedOutcome {
    /// The schedule deadlocks (the corpus's reason to exist).
    Deadlock,
    /// The schedule completes (useful for pinning tricky non-deadlocks).
    Completed,
}

/// One corpus entry: a scenario, a schedule, and what must happen.
#[derive(Clone, Debug)]
pub struct Fixture {
    /// The program.
    pub scenario: Scenario,
    /// The decision sequence to replay.
    pub schedule: Vec<usize>,
    /// Expected strict-replay outcome on a fresh runtime.
    pub expected: ExpectedOutcome,
    /// For [`ExpectedOutcome::Deadlock`]: the expected wait-for edges.
    pub edges: Vec<WaitEdge>,
}

const MAGIC: &str = "dimmunix-corpus v1";

impl Fixture {
    /// Replays `schedule` strictly on a fresh runtime and records the
    /// resulting deadlock as a fixture. Errors if the replay diverges or
    /// does not deadlock.
    pub fn mined(scenario: Scenario, schedule: Vec<usize>) -> Result<Fixture, String> {
        let rt = Runtime::new(Config::default()).map_err(|e| format!("runtime: {e}"))?;
        let mut sim = scenario.instantiate(&rt, Scenario::sim_config(100_000), false);
        let mut sched = ReplayScheduler::strict(schedule.iter().copied());
        let report = sim.run_with(&mut sched);
        drop(sim);
        if sched.diverged() {
            return Err(format!(
                "{}: mining replay diverged at decision {:?}",
                scenario.name(),
                sched.first_divergence()
            ));
        }
        match report.outcome {
            Outcome::Deadlock { edges, .. } => Ok(Fixture {
                scenario,
                schedule,
                expected: ExpectedOutcome::Deadlock,
                edges,
            }),
            other => Err(format!(
                "{}: schedule did not deadlock ({other:?})",
                scenario.name()
            )),
        }
    }
}

fn token_ok(s: &str) -> bool {
    !s.is_empty() && !s.contains(char::is_whitespace) && !s.contains('@') && !s.contains(':')
}

impl Fixture {
    /// Serializes to the v1 text format. Panics if any name is not a
    /// clean token (whitespace, `@` or `:`) — fixtures are authored from
    /// code, so this is a programming error.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        out.push_str(MAGIC);
        out.push('\n');
        assert!(token_ok(self.scenario.name()), "bad scenario name");
        out.push_str(&format!("scenario {}\n", self.scenario.name()));
        for l in self.scenario.locks() {
            assert!(token_ok(l), "bad lock name {l:?}");
            out.push_str(&format!("lock {l}\n"));
        }
        for t in self.scenario.threads() {
            assert!(token_ok(t.name), "bad thread name {:?}", t.name);
            out.push_str(&format!("thread {}", t.name));
            for op in t.script.ops() {
                out.push(' ');
                out.push_str(&op_token(op, self.scenario.locks().len()));
            }
            out.push('\n');
        }
        out.push_str("schedule");
        for c in &self.schedule {
            out.push_str(&format!(" {c}"));
        }
        out.push('\n');
        match self.expected {
            ExpectedOutcome::Deadlock => {
                out.push_str("outcome deadlock\n");
                for e in &self.edges {
                    out.push_str(&format!(
                        "edge {} {} {} {}\n",
                        e.waiter,
                        e.lock,
                        e.holder.unwrap_or("-"),
                        if e.via_yield { "yield" } else { "blocked" }
                    ));
                }
            }
            ExpectedOutcome::Completed => out.push_str("outcome completed\n"),
        }
        out.push_str("end\n");
        out
    }

    /// Parses the v1 text format.
    pub fn parse(text: &str) -> Result<Fixture, String> {
        let mut lines = text.lines().map(str::trim).filter(|l| !l.is_empty());
        if lines.next() != Some(MAGIC) {
            return Err(format!("not a corpus file (expected `{MAGIC}` header)"));
        }
        let mut scenario: Option<Scenario> = None;
        let mut schedule: Option<Vec<usize>> = None;
        let mut expected: Option<ExpectedOutcome> = None;
        let mut edges: Vec<WaitEdge> = Vec::new();
        let mut saw_end = false;
        for line in lines {
            let (kw, rest) = line.split_once(' ').unwrap_or((line, ""));
            match kw {
                "scenario" => {
                    scenario = Some(Scenario::new(rest.to_string()));
                }
                "lock" => {
                    let s = scenario.as_mut().ok_or("lock before scenario")?;
                    s.lock(intern(rest));
                }
                "thread" => {
                    let s = scenario.as_mut().ok_or("thread before scenario")?;
                    let mut toks = rest.split_whitespace();
                    let name = toks.next().ok_or("thread without a name")?;
                    let nlocks = s.locks().len();
                    let mut script = Script::new();
                    for tok in toks {
                        script = parse_op(script, tok, nlocks)?;
                    }
                    s.thread(intern(name), script);
                }
                "schedule" => {
                    schedule = Some(
                        rest.split_whitespace()
                            .map(|t| t.parse::<usize>().map_err(|e| format!("schedule: {e}")))
                            .collect::<Result<_, _>>()?,
                    );
                }
                "outcome" => {
                    expected = Some(match rest {
                        "deadlock" => ExpectedOutcome::Deadlock,
                        "completed" => ExpectedOutcome::Completed,
                        other => return Err(format!("unknown outcome {other:?}")),
                    });
                }
                "edge" => {
                    let t: Vec<&str> = rest.split_whitespace().collect();
                    let [waiter, lock, holder, kind] = t[..] else {
                        return Err(format!("malformed edge line {line:?}"));
                    };
                    edges.push(WaitEdge {
                        waiter: intern(waiter),
                        lock: intern(lock),
                        holder: (holder != "-").then(|| intern(holder)),
                        via_yield: match kind {
                            "yield" => true,
                            "blocked" => false,
                            other => return Err(format!("unknown edge kind {other:?}")),
                        },
                    });
                }
                "end" => {
                    saw_end = true;
                    break;
                }
                other => return Err(format!("unknown keyword {other:?}")),
            }
        }
        if !saw_end {
            return Err("missing `end` line (truncated fixture?)".into());
        }
        let scenario = scenario.ok_or("missing scenario")?;
        if scenario.threads().is_empty() {
            return Err("fixture has no threads".into());
        }
        Ok(Fixture {
            scenario,
            schedule: schedule.ok_or("missing schedule")?,
            expected: expected.ok_or("missing outcome")?,
            edges,
        })
    }

    /// Loads a fixture from `path`.
    pub fn load(path: &Path) -> Result<Fixture, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Saves the fixture to `path`.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.serialize()).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Strictly replays the schedule on `rt` and checks the recorded
    /// expectation: outcome kind, wait-for fingerprint (for deadlocks)
    /// and zero replay divergence. `rt` should have an empty history.
    pub fn verify_fresh(&self, rt: &Runtime) -> Result<(), String> {
        let mut sim = self
            .scenario
            .instantiate(rt, Scenario::sim_config(100_000), false);
        let mut sched = ReplayScheduler::strict(self.schedule.iter().copied());
        let report = sim.run_with(&mut sched);
        if let Some(d) = sched.first_divergence() {
            return Err(format!(
                "{}: strict replay diverged at decision {d} (outcome {:?})",
                self.scenario.name(),
                report.outcome
            ));
        }
        match (self.expected, &report.outcome) {
            (ExpectedOutcome::Completed, Outcome::Completed) => Ok(()),
            (ExpectedOutcome::Deadlock, Outcome::Deadlock { edges, .. }) => {
                let (want, got) = (edges_fingerprint(&self.edges), edges_fingerprint(edges));
                if want == got {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: deadlock mismatch: fixture {want} vs replay {got}",
                        self.scenario.name()
                    ))
                }
            }
            (want, got) => Err(format!(
                "{}: expected {want:?}, replay ended {got:?}",
                self.scenario.name()
            )),
        }
    }

    /// Leniently replays the schedule on `rt` — a runtime vaccinated with
    /// this deadlock's signature — and requires the run to complete with
    /// no starvation breaks and no yield aborts: the immunized engine
    /// must steer the once-deadlocking schedule to completion.
    pub fn verify_immunized(&self, rt: &Runtime) -> Result<(), String> {
        let mut sim = self
            .scenario
            .instantiate(rt, Scenario::sim_config(100_000), false);
        let mut sched = ReplayScheduler::lenient(self.schedule.iter().copied());
        let report = sim.run_with(&mut sched);
        if report.outcome != Outcome::Completed
            || report.starvations_detected != 0
            || report.yield_aborts != 0
        {
            return Err(format!(
                "{}: immunized replay must complete cleanly, got {:?} \
                 (starvations={}, yield_aborts={})",
                self.scenario.name(),
                report.outcome,
                report.starvations_detected,
                report.yield_aborts
            ));
        }
        Ok(())
    }
}

/// Loads every `*.corpus` fixture in `dir`, sorted by file name.
pub fn load_dir(dir: &Path) -> Result<Vec<(PathBuf, Fixture)>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "corpus"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| Fixture::load(&p).map(|f| (p, f)))
        .collect()
}

/// The checked-in corpus directory (`tests/fixtures/corpus/` at the repo
/// root).
pub fn default_corpus_dir() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/corpus"
    ))
}

fn op_token(op: &dimmunix_threadsim::Op, nlocks: usize) -> String {
    use dimmunix_threadsim::Op;
    let lock_tok = |kw: &str, l: dimmunix_threadsim::LockHandle, site: Option<&'static str>| {
        assert!(l.0 < nlocks, "script references undeclared lock {}", l.0);
        match site {
            Some(s) => {
                assert!(token_ok(s), "bad site name {s:?}");
                format!("{kw}:{}@{s}", l.0)
            }
            None => format!("{kw}:{}", l.0),
        }
    };
    match *op {
        Op::Lock(l, site) => lock_tok("lock", l, site),
        Op::TryLock(l, site) => lock_tok("try", l, site),
        Op::Unlock(l) => format!("unlock:{}", l.0),
        Op::UnlockIfHeld(l) => format!("unlockif:{}", l.0),
        Op::UnlockInnermost => "unlocktop".to_string(),
        Op::Compute(n) => format!("compute:{n}"),
        Op::Call(name) => {
            assert!(token_ok(name), "bad call name {name:?}");
            format!("call:{name}")
        }
        Op::Return => "ret".to_string(),
    }
}

fn parse_op(script: Script, tok: &str, nlocks: usize) -> Result<Script, String> {
    use dimmunix_threadsim::LockHandle;
    match tok {
        "ret" => return Ok(script.ret()),
        "unlocktop" => return Ok(script.unlock_innermost()),
        _ => {}
    }
    let (kw, operand) = tok
        .split_once(':')
        .ok_or_else(|| format!("malformed op token {tok:?}"))?;
    let lock_of = |s: &str| -> Result<LockHandle, String> {
        let i: usize = s.parse().map_err(|e| format!("op {tok:?}: {e}"))?;
        if i >= nlocks {
            return Err(format!("op {tok:?}: lock index {i} out of range"));
        }
        Ok(LockHandle(i))
    };
    Ok(match kw {
        "lock" | "try" => {
            let (idx, site) = match operand.split_once('@') {
                Some((i, s)) => (i, Some(intern(s))),
                None => (operand, None),
            };
            let l = lock_of(idx)?;
            match (kw, site) {
                ("lock", Some(s)) => script.lock_at(l, s),
                ("lock", None) => script.lock(l),
                ("try", Some(s)) => script.try_lock_at(l, s),
                ("try", None) => script.try_lock(l),
                _ => unreachable!(),
            }
        }
        "unlock" => script.unlock(lock_of(operand)?),
        "unlockif" => script.unlock_if_held(lock_of(operand)?),
        "compute" => script.compute(operand.parse().map_err(|e| format!("op {tok:?}: {e}"))?),
        "call" => script.call(intern(operand)),
        other => return Err(format!("unknown op keyword {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::scenarios;

    #[test]
    fn round_trips_through_text() {
        let fx = Fixture {
            scenario: scenarios::stacked_abba(),
            schedule: vec![0, 0, 0, 1, 1, 1, 1, 0, 1],
            expected: ExpectedOutcome::Deadlock,
            edges: vec![
                WaitEdge {
                    waiter: "writer",
                    lock: "journal",
                    holder: Some("reaper"),
                    via_yield: false,
                },
                WaitEdge {
                    waiter: "reaper",
                    lock: "cache",
                    holder: Some("writer"),
                    via_yield: false,
                },
            ],
        };
        let text = fx.serialize();
        let back = Fixture::parse(&text).unwrap();
        assert_eq!(back.serialize(), text, "round trip must be stable");
        assert_eq!(back.schedule, fx.schedule);
        assert_eq!(back.expected, fx.expected);
        assert_eq!(edges_fingerprint(&back.edges), edges_fingerprint(&fx.edges));
        // Scripts survive: same ops, same sites.
        for (a, b) in fx
            .scenario
            .threads()
            .iter()
            .zip(back.scenario.threads().iter())
        {
            assert_eq!(a.name, b.name);
            assert_eq!(a.script.ops(), b.script.ops());
        }
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Fixture::parse("garbage").is_err());
        assert!(Fixture::parse("dimmunix-corpus v2\nend\n").is_err());
        let truncated = "dimmunix-corpus v1\nscenario x\nlock A\nthread T lock:0\nschedule 0\noutcome deadlock\n";
        assert!(Fixture::parse(truncated).unwrap_err().contains("end"));
        let bad_lock = "dimmunix-corpus v1\nscenario x\nlock A\nthread T lock:7\nschedule 0\noutcome completed\nend\n";
        assert!(Fixture::parse(bad_lock)
            .unwrap_err()
            .contains("out of range"));
    }
}
