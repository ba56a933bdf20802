//! The seven workloads. Each rep builds a fresh [`Runtime`] on a fresh
//! thread (so thread-local registrations never accumulate), measures a
//! closed loop of fixed-size *cycles*, drains the monitor and checks the
//! program's outputs.
//!
//! Ground rules: `Config::default()` (τ = 100 ms, lane capacity 1024); at
//! most two load threads, because the host has two cores; think time never
//! enters a timed op. What a two-core virtual machine can repeat to a few
//! percent is work that stays hot on one core, so the saturated workloads
//! run the monitor *cooperatively*: no monitor thread, the worker calls
//! `step_monitor()` itself after every burst, and that pass is on the
//! throughput clock. (A monitor thread racing a saturated worker sits at
//! the edge of its capacity, where the share of time it is draining — and
//! with it every latency — swings ±25 % from rep to rep.) `raw_paced` and
//! `yield_handoff` keep the monitor thread.
//!
//! Every reported timing is a *calm decile* (see [`Outcome`]): the host's
//! memory latency swings for seconds at a time, and only its calm stretches
//! repeat from run to run. A traced rep replaces each real lock call by the same sequence of public layer calls
//! with a span around each (`yield_handoff` and `monitor_backlog` keep the
//! real calls and wrap those: parking is not reachable from outside).

use crate::gen::{self, FramePath, LOCKS, POOL_PATHS, SIG_DEPTH};
use crate::measure::{median, ns, percentile, spin_until};
use crate::trace::{self, Span, Tracer, NO_PARENT};
use dimmunix_core::{
    context, Config, CycleKind, Decision, ImmunizedMutex, LockId, LockSite, PredictionConfig,
    Provenance, RawLock, Runtime, StatsSnapshot, ThreadId,
};
use parking_lot::Mutex as PlainMutex;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// How much to run.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Seed of every generated input and of the op sequence.
    pub seed: u64,
    /// Measured window of one rep.
    pub window: Duration,
    /// Reps, each on a fresh runtime ([`Outcome`] says how a reported value
    /// is taken over them).
    pub reps: usize,
    /// Shrinks fixed-size work for the tier-1 smoke test.
    pub quick: bool,
    /// Directory for generated inputs (inside the checkout).
    pub work_dir: PathBuf,
}

/// Set-up-only cycles run after every rep: set-up takes about a
/// millisecond, so it needs more samples than there are reps to hold still —
/// and samples spread over the run, because the host's slow stretches last
/// longer than thirty set-ups in a row.
pub const SETUPS_PER_REP: usize = 3;

/// Names of the per-workload count metrics, aligned with [`Rep::counts`].
pub const COUNT_NAMES: [&str; 18] = [
    "avoidance.precheck_skip_share",
    "avoidance.cover_searches",
    "avoidance.cover_retries",
    "avoidance.cover_fallbacks",
    "avoidance.yields",
    "avoidance.yield_aborts",
    "avoidance.wake_drains",
    "avoidance.rebuilds_delta",
    "avoidance.rebuilds_full",
    "avoidance.rebuild_us_delta_max",
    "avoidance.rebuild_us_full_max",
    "lanes.overflow_share",
    "lanes.high_water",
    "lockfree.wake_pool_hit_share",
    "monitor.passes",
    "monitor.events_per_pass",
    "predict.edges",
    "predict.scc_merges",
];

/// One rep's measurements.
#[derive(Debug, Default)]
pub struct Rep {
    /// `Runtime::new` (history load, index build) through site interning,
    /// thread registration, monitor spawn and warm-up, to the first
    /// measured op.
    pub setup_s: f64,
    /// Ops attempted in the measured window.
    pub ops: u64,
    /// Ops in one cycle: a burst of pairs, one hand-off round, or the
    /// events of one `monitor_backlog` slice.
    pub cycle_ops: f64,
    /// Duration of every cycle, ns (on `monitor_backlog`, its
    /// `step_monitor()` time only).
    pub cycle_ns: Vec<u64>,
    /// Op latencies, ns.
    pub samples: Vec<u64>,
    /// `Runtime::memory_footprint()` after the final drain.
    pub footprint: f64,
    /// Ops that failed: yield aborts, unsupervised ops, mutual-exclusion
    /// violations, events produced but never processed, unexpected yields.
    pub failed: u64,
    /// Output checks that did not hold.
    pub errors: Vec<String>,
    /// `rt.stats()` deltas over the rep, aligned with [`COUNT_NAMES`].
    pub counts: Vec<f64>,
    /// Spans of a traced rep.
    pub spans: Vec<Span>,
    /// Cycle `i` does the same work in every rep, but other work than cycle
    /// `j` (`monitor_backlog`, whose graph grows slice by slice). A traced
    /// `op` root span then stands for a whole cycle, not for one op.
    pub aligned_cycles: bool,
}

/// All reps of one workload, and how a reported value is taken over them.
///
/// The host is a two-core virtual machine whose cache and memory latency
/// swing by tens of percent for seconds at a time (a plain pointer chase
/// shows it), always towards slower. A median follows those swings; the
/// value in the calmest tenth of the repetitions — the 10th percentile, the
/// *calm decile* — repeats to a few percent. A regression in the code moves
/// both, so every timing here is a calm decile: of the cycle times for
/// throughput, of per-chunk median latencies for latency, of the set-ups
/// for set-up time.
#[derive(Debug)]
pub struct Outcome {
    /// The reps, in run order.
    pub reps: Vec<Rep>,
    /// Set-up times of the extra set-up-only cycles (see [`SETUPS_PER_REP`]).
    pub extra_setups: Vec<f64>,
}

/// Consecutive op samples whose p50 forms one latency observation (on a
/// saturated workload, exactly one cycle's samples).
const CHUNK: usize = 64;

/// The calm decile of `values` (see [`Outcome`]).
fn calm(values: &mut [u64]) -> f64 {
    values.sort_unstable();
    percentile(values, 0.10) as f64
}

impl Outcome {
    fn median_of(&self, f: impl Fn(&Rep) -> f64) -> f64 {
        median(&self.reps.iter().map(f).collect::<Vec<_>>())
    }

    /// Set-up time: calm decile over the reps and the set-up-only cycles.
    pub fn setup_s(&self) -> f64 {
        let mut ns: Vec<u64> = self
            .reps
            .iter()
            .map(|r| r.setup_s)
            .chain(self.extra_setups.iter().copied())
            .map(|s| (s * 1e9) as u64)
            .collect();
        calm(&mut ns) / 1e9
    }

    /// For a workload whose cycle `i` does the same work in every rep but
    /// other work than cycle `j` (`monitor_backlog`): per cycle index, the
    /// fastest rep.
    fn fastest_aligned(&self, f: impl Fn(&Rep) -> &[u64]) -> Vec<u64> {
        let cycles = self.reps.iter().map(|r| f(r).len()).min().unwrap_or(0);
        (0..cycles)
            .map(|i| self.reps.iter().map(|r| f(r)[i]).min().expect("a rep"))
            .collect()
    }

    /// Ops per second of a calm cycle.
    pub fn ops_per_s(&self) -> f64 {
        let cycle_ops = self.median_of(|r| r.cycle_ops);
        let cycle_ns = if self.reps[0].aligned_cycles {
            let fastest = self.fastest_aligned(|r| &r.cycle_ns);
            fastest.iter().sum::<u64>() as f64 / fastest.len().max(1) as f64
        } else {
            let mut pooled: Vec<u64> = self
                .reps
                .iter()
                .flat_map(|r| r.cycle_ns.iter().copied())
                .collect();
            calm(&mut pooled)
        };
        cycle_ops * 1e9 / cycle_ns.max(1.0)
    }

    /// Median op latency in a calm stretch: the calm decile of the p50s of
    /// [`CHUNK`] consecutive samples.
    pub fn op_ns_p50(&self) -> f64 {
        if self.reps[0].aligned_cycles {
            let mut fastest = self.fastest_aligned(|r| &r.samples);
            fastest.sort_unstable();
            return percentile(&fastest, 0.5) as f64;
        }
        let mut chunk_p50s: Vec<u64> = self
            .reps
            .iter()
            .flat_map(|r| {
                // Whole chunks only, unless the rep is shorter than one.
                let whole = r.samples.len() / CHUNK * CHUNK;
                let used = if whole == 0 {
                    &r.samples[..]
                } else {
                    &r.samples[..whole]
                };
                used.chunks(CHUNK)
            })
            .map(|c| {
                let mut c = c.to_vec();
                c.sort_unstable();
                percentile(&c, 0.5)
            })
            .collect();
        calm(&mut chunk_p50s)
    }

    /// p99 op latency: median over reps of each rep's p99. Too noisy on this
    /// host to carry a bound, so it is a per-layer metric.
    pub fn op_ns_p99(&self) -> f64 {
        self.median_of(|r| {
            let mut samples = r.samples.clone();
            samples.sort_unstable();
            percentile(&samples, 0.99) as f64
        })
    }

    /// The end-to-end metrics, in `spec::END_TO_END` order.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("setup_s", self.setup_s()),
            ("ops_per_s", self.ops_per_s()),
            ("op_ns_p50", self.op_ns_p50()),
            ("footprint_bytes", self.median_of(|r| r.footprint)),
        ]
    }

    /// The workload's count metrics (median over reps).
    pub fn counts(&self) -> Vec<(&'static str, f64)> {
        COUNT_NAMES
            .iter()
            .enumerate()
            .map(|(i, &name)| (name, self.median_of(|r| r.counts[i])))
            .collect()
    }

    /// Ops attempted over all reps.
    pub fn attempted(&self) -> u64 {
        self.reps.iter().map(|r| r.ops).sum()
    }

    /// Ops failed over all reps.
    pub fn failed(&self) -> u64 {
        self.reps.iter().map(|r| r.failed).sum()
    }

    /// Every failed output check, prefixed by its rep.
    pub fn errors(&self) -> Vec<String> {
        self.reps
            .iter()
            .enumerate()
            .flat_map(|(i, r)| r.errors.iter().map(move |e| format!("rep {i}: {e}")))
            .collect()
    }
}

/// Runs `workload` under `plan`; `traced` records spans (see module docs).
pub fn run(workload: &str, plan: &Plan, traced: bool) -> Result<Outcome, String> {
    std::fs::create_dir_all(&plan.work_dir)
        .map_err(|e| format!("{}: {e}", plan.work_dir.display()))?;
    let pool = gen::build_pool(plan.seed);
    // A set-up-only cycle is a rep with nothing to measure: it sets up,
    // performs one op and tears down.
    let idle = Plan {
        window: Duration::ZERO,
        quick: true,
        ..plan.clone()
    };
    let idle = &idle;
    let pick = move |setup_only: bool| if setup_only { idle } else { plan };
    let rep_fn: Box<dyn Fn(usize, bool) -> Rep + Sync + '_> = match workload {
        "yield_handoff" => {
            let file = history_input(plan, workload, &pool, &[handoff_pair(&pool)])?;
            Box::new(move |rep, idle| handoff_rep(pick(idle), &pool, &file, rep, traced))
        }
        "monitor_backlog" => Box::new(move |_, idle| backlog_rep(pick(idle), &pool, traced)),
        _ => {
            let spec = PairSpec::of(workload).ok_or_else(|| {
                format!("unknown workload `{workload}` (see BENCHMARK.json for the names)")
            })?;
            let file = match spec.history_sigs {
                0 => None,
                n => {
                    let pairs = gen::synth_pairs(plan.seed, 2, spec.sig_paths.clone(), n);
                    Some(history_input(plan, workload, &pool, &pairs)?)
                }
            };
            Box::new(move |rep, idle| {
                pair_rep(pick(idle), &spec, &pool, file.as_deref(), rep, traced)
            })
        }
    };
    // `monitor_backlog` does fixed work per rep, so its reps fill the plan's
    // total time instead of each lasting one window.
    let fixed_work = workload == "monitor_backlog";
    let total = plan.window * plan.reps as u32;
    let min_reps = if fixed_work && !plan.quick {
        3
    } else {
        plan.reps
    };
    let on_fresh_thread = |i: usize, setup_only: bool| {
        std::thread::scope(|s| {
            std::thread::Builder::new()
                .name(format!("bench-{workload}"))
                .spawn_scoped(s, || rep_fn(i, setup_only))
                .expect("spawn rep thread")
                .join()
        })
        .map_err(|_| format!("{workload}: rep {i} panicked"))
    };
    let extras = if plan.quick || traced {
        0
    } else {
        SETUPS_PER_REP
    };
    let started = Instant::now();
    let (mut reps, mut extra_setups) = (Vec::new(), Vec::new());
    while reps.len() < min_reps || (fixed_work && started.elapsed() < total) {
        reps.push(on_fresh_thread(reps.len(), false)?);
        for _ in 0..extras {
            extra_setups.push(on_fresh_thread(reps.len(), true)?.setup_s);
        }
    }
    Ok(Outcome { reps, extra_setups })
}

/// Generates (once per invocation) the history file a workload loads.
fn history_input(
    plan: &Plan,
    workload: &str,
    pool: &[FramePath],
    pairs: &[[usize; 2]],
) -> Result<PathBuf, String> {
    let file = plan.work_dir.join(format!("{workload}-{}.dlk", plan.seed));
    gen::write_history_file(&file, pool, pairs).map_err(|e| format!("{}: {e}", file.display()))?;
    Ok(file)
}

/// The runtime rewrites its history file on shutdown, so each rep loads a
/// private copy and the generated input stays as generated.
fn private_copy(input: &Path, rep: usize) -> PathBuf {
    let copy = input.with_extension(format!("rep{rep}.dlk"));
    std::fs::copy(input, &copy).expect("copy generated history file");
    copy
}

/// Stops the monitor thread (if any) and steps the monitor until every
/// produced event was applied; returns the final stats and how many events
/// were lost (never processed).
fn drain(rt: &Runtime) -> (StatsSnapshot, u64) {
    rt.shutdown();
    let mut s = rt.stats();
    // A pass applies up to 2^20 events; `yield_handoff` can leave more.
    for _ in 0..16 {
        if s.events_processed >= produced(&s) {
            break;
        }
        rt.step_monitor();
        s = rt.stats();
    }
    let lost = produced(&s).saturating_sub(s.events_processed);
    (s, lost)
}

/// Events the hooks pushed so far (no cancels or thread exits occur before
/// the final drain in any workload).
fn produced(s: &StatsSnapshot) -> u64 {
    s.requests + s.gos + s.yields + s.acquisitions + s.releases
}

fn share(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn counts(before: &StatsSnapshot, after: &StatsSnapshot) -> Vec<f64> {
    let d = |f: fn(&StatsSnapshot) -> u64| f(after) - f(before);
    let events = d(|s| s.events_processed);
    let passes = d(|s| s.monitor_passes);
    vec![
        share(d(|s| s.precheck_skips), d(|s| s.requests)),
        d(|s| s.cover_searches) as f64,
        d(|s| s.cover_retries) as f64,
        d(|s| s.cover_fallbacks) as f64,
        d(|s| s.yields) as f64,
        d(|s| s.yield_aborts) as f64,
        d(|s| s.wake_drains) as f64,
        d(|s| s.rebuilds_delta) as f64,
        d(|s| s.rebuilds_full) as f64,
        after.rebuild_us_delta_max as f64,
        after.rebuild_us_full_max as f64,
        share(d(|s| s.lane_overflows), events),
        after.lane_high_water as f64,
        share(
            d(|s| s.wake_pool_hits),
            d(|s| s.wake_pool_hits) + d(|s| s.wake_pool_misses),
        ),
        passes as f64,
        share(events, passes),
        after.prediction_edges as f64,
        d(|s| s.scc_merges) as f64,
    ]
}

/// Records the checks every workload shares: nothing unsupervised, no yield
/// aborts, no lost events, and the plain counters kept under the locks add
/// up to the ops performed (mutual exclusion).
fn common_checks(
    rep: &mut Rep,
    before: &StatsSnapshot,
    after: &StatsSnapshot,
    lost: u64,
    counted: u64,
    performed: u64,
) {
    let aborts = after.yield_aborts - before.yield_aborts;
    let violations = performed.abs_diff(counted);
    rep.failed += aborts + after.unsupervised_threads + lost + violations;
    if aborts > 0 {
        rep.errors.push(format!("{aborts} yield-timeout aborts"));
    }
    if after.unsupervised_threads > 0 {
        rep.errors.push("a load thread ran unsupervised".into());
    }
    if lost > 0 {
        rep.errors
            .push(format!("{lost} events produced but never processed"));
    }
    if violations > 0 {
        rep.errors.push(format!(
            "counters under the locks read {counted}, {performed} ops performed"
        ));
    }
}

/// Increments a counter the way unsynchronised code would (load, then
/// store), so two threads inside one critical section lose an update.
#[inline]
fn bump(counter: &AtomicU64) {
    counter.store(counter.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}

fn total(counters: &[AtomicU64]) -> u64 {
    counters.iter().map(|c| c.load(Ordering::Relaxed)).sum()
}

fn counters(n: usize) -> Vec<AtomicU64> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

/// Interns every pool path as a [`LockSite`] of `rt`.
pub(crate) fn intern_sites(rt: &Runtime, pool: &[FramePath]) -> Vec<LockSite> {
    pool.iter().map(|p| rt.make_site(p)).collect()
}

/// Pushes `path` as live [`context`] frames of the calling thread; they pop
/// when the guards drop.
pub(crate) fn push_context(path: &FramePath) -> Vec<context::FrameGuard> {
    path.iter()
        .map(|&(function, file, line)| {
            context::push_frame(context::RawFrame {
                function,
                file,
                line,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Pair workloads: raw_saturated, raw_paced, raii_saturated, raw_history1k,
// vaccinate_live.

/// Warm-up pairs inside the set-up clock: they trigger the first match-view
/// build, so the measured window starts on a built index.
const WARM_UP_OPS: usize = 64;
/// Pairs per cycle of a saturated workload: 16 384 events against a
/// 1024-slot lane, so 15 of 16 events take the overflow path before the
/// worker's own monitor pass drains them.
const SATURATED_BURST: u64 = 4096;
/// Pairs per cycle of `raw_paced`: 800 events, which fit the lane, so the
/// monitor thread drains them at its next τ tick without one overflow.
const PACED_BURST: u64 = 200;
/// Saturated workloads time one pair in this many, so the timer does not
/// perturb throughput.
const SAMPLE_EVERY: u64 = 64;
/// Signatures `vaccinate_live` appends per batch, and the batch period.
const LIVE_BATCH: usize = 4;
const LIVE_PERIOD: Duration = Duration::from_millis(50);
/// Spans one traced rep may record.
const TRACE_CAPACITY: usize = 400_000;

struct PairSpec {
    raii: bool,
    /// Paced: the monitor *thread* runs, and the worker waits between
    /// bursts until it has drained them. Otherwise the worker steps the
    /// monitor itself after every burst (see the module docs).
    paced: bool,
    history_sigs: usize,
    /// Pool paths the initial signatures are drawn from.
    sig_paths: Range<usize>,
    /// Pool paths the worker locks through.
    worker_paths: Range<usize>,
    /// Append signatures over the *other* pool paths while running.
    vaccinate: bool,
}

impl PairSpec {
    fn of(workload: &str) -> Option<Self> {
        let base = Self {
            raii: false,
            paced: false,
            history_sigs: 0,
            sig_paths: 0..POOL_PATHS,
            worker_paths: 0..POOL_PATHS,
            vaccinate: false,
        };
        Some(match workload {
            "raw_saturated" => base,
            "raw_paced" => Self {
                paced: true,
                ..base
            },
            "raii_saturated" => Self { raii: true, ..base },
            "raw_history1k" => Self {
                history_sigs: 1024,
                ..base
            },
            "vaccinate_live" => Self {
                history_sigs: 64,
                sig_paths: 0..POOL_PATHS / 2,
                worker_paths: 0..POOL_PATHS / 2,
                vaccinate: true,
                ..base
            },
            _ => return None,
        })
    }
}

/// The locks of a pair workload and how one pair is performed on them.
enum PairOps {
    Raw {
        locks: Vec<RawLock>,
        sites: Vec<LockSite>,
        counters: Vec<AtomicU64>,
    },
    Raii {
        locks: Vec<ImmunizedMutex<u64>>,
    },
    /// The same pair re-composed from the layers' public calls, so a traced
    /// rep can put a span around each.
    Composed {
        rt: Runtime,
        raii: bool,
        ids: Vec<LockId>,
        plain: Vec<PlainMutex<()>>,
        sites: Vec<LockSite>,
        counters: Vec<AtomicU64>,
    },
}

impl PairOps {
    fn new(rt: &Runtime, pool: &[FramePath], raii: bool, composed: bool) -> Self {
        let sites = || intern_sites(rt, pool);
        if composed {
            PairOps::Composed {
                rt: rt.clone(),
                raii,
                ids: (0..LOCKS).map(|_| rt.new_lock_id()).collect(),
                plain: (0..LOCKS).map(|_| PlainMutex::new(())).collect(),
                sites: sites(),
                counters: counters(LOCKS),
            }
        } else if raii {
            PairOps::Raii {
                locks: (0..LOCKS).map(|_| rt.mutex(0)).collect(),
            }
        } else {
            PairOps::Raw {
                locks: (0..LOCKS).map(|_| rt.raw_lock()).collect(),
                sites: sites(),
                counters: counters(LOCKS),
            }
        }
    }

    /// One lock/unlock pair on lock `l` through call path `p`. Returns
    /// whether the pair ran supervised and was granted without a yield.
    #[inline]
    fn pair(&self, l: usize, p: usize, tracer: Option<(&mut Tracer, u64)>) -> bool {
        match self {
            PairOps::Raw {
                locks,
                sites,
                counters,
            } => {
                locks[l].lock(&sites[p]);
                bump(&counters[l]);
                locks[l].unlock();
                true
            }
            PairOps::Raii { locks } => {
                *locks[l].lock() += 1;
                true
            }
            PairOps::Composed { .. } => self.composed_pair(l, p, tracer),
        }
    }

    #[track_caller]
    fn composed_pair(&self, l: usize, p: usize, mut tracer: Option<(&mut Tracer, u64)>) -> bool {
        let PairOps::Composed {
            rt,
            raii,
            ids,
            plain,
            sites,
            counters,
        } = self
        else {
            unreachable!("composed_pair on a real lock set");
        };
        let root = tracer
            .as_mut()
            .map_or(NO_PARENT, |(t, pair)| t.begin("op", NO_PARENT, *pair));
        // Times `$call` as a child span of this pair when tracing.
        macro_rules! layer {
            ($name:literal, $call:expr) => {
                match tracer.as_mut() {
                    Some((t, pair)) => {
                        let id = t.begin($name, root, *pair);
                        let out = $call;
                        t.end(id);
                        out
                    }
                    None => $call,
                }
            };
        }
        let core = rt.core();
        let id = ids[l];
        let Some(t) = layer!("current_thread", rt.current_thread()) else {
            return false;
        };
        let captured;
        let (frames, stack) = if *raii {
            let here = std::panic::Location::caller();
            captured = layer!("capture", context::capture(rt.frame_table(), here));
            let stack = layer!("intern_stack", core.intern_stack(&captured));
            (&captured[..], stack)
        } else {
            (sites[p].frames(), sites[p].stack())
        };
        let granted = match layer!("request", core.request(t, id, frames, stack)) {
            Decision::Go => true,
            Decision::Yield { .. } => {
                core.cancel(t, id);
                false
            }
        };
        if granted {
            let guard = layer!("mutex_lock", plain[l].lock());
            layer!("acquired", core.acquired(t, id, stack));
            bump(&counters[l]);
            // `unlock()` looks the thread up again, as the real lock types do.
            let again = layer!("current_thread", rt.current_thread());
            let wake = layer!("release", core.release(again.unwrap_or(t), id));
            layer!("mutex_unlock", drop(guard));
            debug_assert!(wake.is_empty(), "nobody yields on a single worker");
        }
        if let Some((t, _)) = tracer.as_mut() {
            t.end(root);
        }
        granted
    }

    fn counted(&self) -> u64 {
        match self {
            PairOps::Raw { counters, .. } | PairOps::Composed { counters, .. } => total(counters),
            PairOps::Raii { locks } => locks.iter().map(|m| *m.lock()).sum(),
        }
    }
}

fn pair_rep(
    plan: &Plan,
    spec: &PairSpec,
    pool: &[FramePath],
    history: Option<&Path>,
    rep_index: usize,
    traced: bool,
) -> Rep {
    let history_copy = history.map(|h| private_copy(h, rep_index));
    let mut tracer = traced.then(|| Tracer::with_capacity(TRACE_CAPACITY));
    let mut rep = Rep::default();

    let t_setup = Instant::now();
    let rt = Runtime::new(Config {
        history_path: history_copy,
        ..Config::default()
    })
    .expect("generated history file loads");
    let ops = PairOps::new(&rt, pool, spec.raii, traced);
    // The RAII flavour captures the live context frames on every lock: keep
    // ten of them (one pool path) live for the whole rep.
    let _frames = spec.raii.then(|| push_context(&pool[0]));
    let paths = spec.worker_paths.clone();
    let mut refused = 0_u64;
    for i in 0..WARM_UP_OPS {
        refused += u64::from(!ops.pair(i % LOCKS, paths.start + (i * 5) % paths.len(), None));
    }
    if spec.paced {
        // After the warm-up, so the first match-view build is the worker's:
        // a monitor thread started earlier races it for that build, and
        // set-up time then has two modes 0.4 ms apart.
        rt.spawn_monitor();
    }
    rep.setup_s = t_setup.elapsed().as_secs_f64();

    let before = rt.stats();
    let burst = if spec.paced {
        PACED_BURST
    } else {
        SATURATED_BURST
    };
    rep.cycle_ops = burst as f64;
    let stop = AtomicBool::new(false);
    let appended = std::thread::scope(|s| {
        let vaccinator = spec
            .vaccinate
            .then(|| s.spawn(|| vaccinate(plan, &rt, pool, &stop)));
        // Closed loop, one caller. The op sequence is seeded too.
        let mut walk = gen::Walk::new(plan.seed, 100 + rep_index as u64);
        let deadline = Instant::now() + plan.window;
        while Instant::now() < deadline {
            if spec.paced {
                // Think time: until the monitor thread's next τ tick has
                // applied everything pushed so far, so the burst starts on
                // an empty lane. Sleeping here is outside every timed pair,
                // and a spinning worker would only heat the core.
                let target = produced(&rt.stats());
                while rt.stats().events_processed < target {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            let cycle = (rep.cycle_ns.len() + 1) as u64;
            let cycle_start = Instant::now();
            for i in 0..burst {
                let (l, p) = walk.next(&paths);
                if !spec.paced && i % SAMPLE_EVERY != 0 {
                    refused += u64::from(!ops.pair(l, p, None));
                    continue;
                }
                // A traced pair is recorded whole or (buffer full) not at all.
                match tracer.as_mut().filter(|t| t.has_room(12)) {
                    Some(t) => {
                        refused += u64::from(!ops.pair(l, p, Some((t, rep.ops + i))));
                    }
                    None => {
                        let t0 = Instant::now();
                        refused += u64::from(!ops.pair(l, p, None));
                        rep.samples.push(ns(t0.elapsed()) as u64);
                    }
                }
            }
            rep.ops += burst;
            if spec.paced {
                rep.cycle_ns.push(ns(cycle_start.elapsed()) as u64);
            } else {
                match tracer.as_mut().filter(|t| t.has_room(1)) {
                    Some(t) => t.span("step_monitor", NO_PARENT, cycle, || rt.step_monitor()),
                    None => rt.step_monitor(),
                }
                rep.cycle_ns.push(ns(cycle_start.elapsed()) as u64);
            }
        }
        stop.store(true, Ordering::Relaxed);
        vaccinator.map(|v| v.join().expect("vaccinator panicked"))
    });

    let (after, lost) = drain(&rt);
    rep.footprint = rt.memory_footprint() as f64;
    rep.counts = counts(&before, &after);
    let performed = rep.ops + WARM_UP_OPS as u64 - refused;
    common_checks(&mut rep, &before, &after, lost, ops.counted(), performed);
    let yields = after.yields - before.yields;
    if yields + refused > 0 {
        rep.failed += yields.max(refused);
        rep.errors.push(format!(
            "{yields} yields ({refused} pairs refused) on a single worker"
        ));
    }
    if spec.paced && after.lane_overflows > 0 {
        rep.errors.push(format!(
            "{} events overflowed their lane on the paced workload",
            after.lane_overflows
        ));
    }
    if let Some(appended) = appended {
        let expected = spec.history_sigs + appended;
        if rt.history().len() != expected {
            rep.errors.push(format!(
                "history holds {} signatures, expected {expected}",
                rt.history().len()
            ));
        }
        if after.rebuilds_full > 1 {
            rep.errors.push(format!(
                "{} full rebuilds: appends must take the delta path",
                after.rebuilds_full
            ));
        }
    }
    if let Some(t) = tracer {
        rep.samples = root_durations(t.spans());
        rep.spans = t.spans().to_vec();
    }
    rep
}

/// Durations of the `op` root spans: a traced rep's op latencies.
fn root_durations(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.parent == NO_PARENT && s.name == "op")
        .map(Span::duration_ns)
        .collect()
}

/// The `vaccinate_live` writer: appends [`LIVE_BATCH`] signatures over pool
/// paths the worker never uses, every [`LIVE_PERIOD`]. It sleeps between
/// batches (its timing is not measured, and a third spinning thread would
/// take a core from the worker or the monitor). Returns how many it added.
fn vaccinate(plan: &Plan, rt: &Runtime, pool: &[FramePath], stop: &AtomicBool) -> usize {
    if plan.window.is_zero() {
        return 0;
    }
    let period = LIVE_PERIOD.min(plan.window / 4);
    let batches = (plan.window.as_nanos() / period.as_nanos()) as usize + 2;
    let live = gen::synth_pairs(
        plan.seed,
        3,
        POOL_PATHS / 2..POOL_PATHS,
        batches * LIVE_BATCH,
    );
    let mut appended = 0;
    for chunk in live.chunks(LIVE_BATCH) {
        std::thread::sleep(period);
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let batch = chunk
            .iter()
            .map(|&[a, b]| {
                let members = vec![
                    rt.make_site(&pool[a]).stack(),
                    rt.make_site(&pool[b]).stack(),
                ];
                (
                    CycleKind::Deadlock,
                    members,
                    SIG_DEPTH,
                    Provenance::Detected,
                )
            })
            .collect();
        appended += rt.history().add_batch_with_provenance(batch, |_| {}).len();
    }
    appended
}

// ---------------------------------------------------------------------------
// yield_handoff

/// How long T0 keeps holding its lock after T1's yield is in force, so T1
/// has parked by the time T0 releases.
const HANDOFF_HOLD: Duration = Duration::from_micros(20);

/// The two pool paths of the hand-off signature: path 0 and the first path
/// whose matching-depth suffix differs from it.
fn handoff_pair(pool: &[FramePath]) -> [usize; 2] {
    let suffix = |p: &FramePath| p[p.len() - SIG_DEPTH as usize..].to_vec();
    let b = (1..pool.len())
        .find(|&i| suffix(&pool[i]) != suffix(&pool[0]))
        .expect("the pool holds two distinct suffixes");
    [0, b]
}

/// Phases of one hand-off round, stored in a shared atomic.
const T1_GO: u32 = 1;
const T1_DONE: u32 = 2;
const EXIT: u32 = 3;

fn handoff_rep(
    plan: &Plan,
    pool: &[FramePath],
    history: &Path,
    rep_index: usize,
    traced: bool,
) -> Rep {
    let history_copy = private_copy(history, rep_index);
    let [a, b] = handoff_pair(pool);
    let mut rep = Rep::default();
    let origin = Instant::now();
    let mut tracer0 = traced.then(|| Tracer::with_origin(origin, TRACE_CAPACITY / 2));
    let mut tracer1 = traced.then(|| Tracer::with_origin(origin, TRACE_CAPACITY / 2));

    // What T1 needs from the runtime T0 sets up.
    let t1_side: OnceLock<(Runtime, RawLock, LockSite)> = OnceLock::new();
    let held = counters(2);
    let phase = AtomicU32::new(0);
    // T1's thread id + 1, once it has registered.
    let t1_id = AtomicU64::new(0);
    // T0's pre-unlock stamp, ns since `origin`; 0 = not stamped this round.
    let released_at = AtomicU64::new(0);
    let now_ns = || ns(origin.elapsed()) as u64;

    let mut before = None;
    let mut samples = Vec::with_capacity(1 << 16);
    let mut missed = 0_u64;
    let rt = std::thread::scope(|s| {
        // T1: waits its turn, requests L1 through site B — which completes
        // the signature {A, B} against T0's hold on L0, so it must yield on
        // cause (T0, L0) — and stamps the clock when `lock()` returns. Its
        // OS thread starts before the set-up clock (thread start-up time is
        // the scheduler's, not the runtime's); its registration is on it.
        s.spawn(|| {
            let (rt, l1, site_b) = loop {
                if let Some(side) = t1_side.get() {
                    break side;
                }
            };
            let me = rt.current_thread().expect("a free thread slot");
            t1_id.store(me.0 + 1, Ordering::Release);
            let mut round = 0_u64;
            loop {
                // Plain loads, no PAUSE hint: under a hypervisor a long
                // PAUSE loop invites a pause-loop exit, which deschedules
                // the very thread the hand-off is about to need.
                match phase.load(Ordering::Acquire) {
                    T1_GO => {}
                    EXIT => return,
                    _ => continue,
                }
                round += 1;
                let acquired_at;
                match tracer1.as_mut().filter(|t| t.has_room(3)) {
                    Some(t) => {
                        let op = t.begin("op", NO_PARENT, round);
                        t.span("lock_call", op, round, || l1.lock(site_b));
                        acquired_at = now_ns();
                        t.end(op);
                        // The hand-off starts at T0's stamp, not at T1's call.
                        match released_at.load(Ordering::Acquire) {
                            0 => {}
                            stamp => t.set_start(op, stamp),
                        }
                        bump(&held[1]);
                        t.span("unlock_call", NO_PARENT, round, || l1.unlock());
                    }
                    None => {
                        l1.lock(site_b);
                        acquired_at = now_ns();
                        bump(&held[1]);
                        l1.unlock();
                    }
                }
                match released_at.load(Ordering::Acquire) {
                    // Granted before T0 released: no hand-off happened.
                    0 => missed += 1,
                    stamp => samples.push(acquired_at.saturating_sub(stamp)),
                }
                phase.store(T1_DONE, Ordering::Release);
            }
        });

        let t_setup = Instant::now();
        let rt = Runtime::new(Config {
            history_path: Some(history_copy),
            ..Config::default()
        })
        .expect("generated history file loads");
        let l0 = rt.raw_lock();
        let site_a = rt.make_site(&pool[a]);
        rt.spawn_monitor();
        if t1_side
            .set((rt.clone(), rt.raw_lock(), rt.make_site(&pool[b])))
            .is_err()
        {
            unreachable!("only T0 sets T1's side");
        }

        let mut round = 0_u64;
        let mut deadline = Instant::now() + plan.window;
        rep.cycle_ops = 1.0;
        loop {
            round += 1;
            let round_start = Instant::now();
            released_at.store(0, Ordering::Release);
            // Tells T1 to go, keeps L0 until T1's yield on (T0, L0) is in
            // force (or T1 got through without one) and a little longer so
            // it has parked, then stamps the clock.
            let hold_and_stamp = || {
                bump(&held[0]);
                phase.store(T1_GO, Ordering::Release);
                let t1 = loop {
                    match t1_id.load(Ordering::Acquire) {
                        0 => continue,
                        id => break ThreadId(id - 1),
                    }
                };
                while !rt.core().is_yielding(t1) && phase.load(Ordering::Acquire) != T1_DONE {
                    // Poll gently: the probe takes T1's yield-state lock.
                    spin_until(Instant::now() + Duration::from_micros(1));
                }
                spin_until(Instant::now() + HANDOFF_HOLD);
                released_at.store(now_ns().max(1), Ordering::Release);
            };
            match tracer0.as_mut().filter(|t| t.has_room(2)) {
                Some(t) => {
                    t.span("lock_call", NO_PARENT, round, || l0.lock(&site_a));
                    hold_and_stamp();
                    t.span("unlock_call", NO_PARENT, round, || l0.unlock());
                }
                None => {
                    l0.lock(&site_a);
                    hold_and_stamp();
                    l0.unlock();
                }
            }
            while phase.load(Ordering::Acquire) != T1_DONE {}
            let now = Instant::now();
            if before.is_none() {
                // The first round (both registrations, the first index
                // build, one park/unpark) is set-up, not measurement.
                rep.setup_s = t_setup.elapsed().as_secs_f64();
                before = Some(rt.stats());
                deadline = now + plan.window;
                continue;
            }
            rep.ops += 1;
            rep.cycle_ns.push(ns(now - round_start) as u64);
            if now >= deadline {
                break;
            }
        }
        phase.store(EXIT, Ordering::Release);
        rt
    });
    let before = before.expect("at least the warm-up round ran");
    // The warm-up round's sample belongs to set-up.
    rep.samples = samples.split_off(1.min(samples.len()));

    let (after, lost) = drain(&rt);
    rep.footprint = rt.memory_footprint() as f64;
    rep.counts = counts(&before, &after);
    // Two pairs per round, plus the warm-up round.
    let pairs = 2 * (rep.ops + 1);
    common_checks(&mut rep, &before, &after, lost, total(&held), pairs);
    let yields = after.yields - before.yields;
    if (yields as f64) < 0.99 * rep.ops as f64 {
        rep.failed += rep.ops.saturating_sub(yields);
        rep.errors.push(format!(
            "{yields} yields in {} rounds ({missed} rounds granted early)",
            rep.ops
        ));
    }
    if let (Some(t0), Some(t1)) = (tracer0, tracer1) {
        rep.spans = trace::merge(t0.spans(), t1.spans());
        rep.samples = root_durations(&rep.spans);
    }
    rep
}

// ---------------------------------------------------------------------------
// monitor_backlog

/// Locks in the global order, slices per rep and nested acquisitions per
/// worker per slice: fixed work, the same backlog every rep.
const BACKLOG_LOCKS: usize = 4096;
const BACKLOG_SLICES: usize = 64;
const BACKLOG_NESTS: usize = 256;
const BACKLOG_WORKERS: usize = 2;
/// Locks per nested acquisition (L_i → L_i+1 → L_i+2).
const NEST: usize = 3;

fn backlog_rep(plan: &Plan, pool: &[FramePath], traced: bool) -> Rep {
    let (slices, nests) = if plan.quick {
        (4, 32)
    } else {
        (BACKLOG_SLICES, BACKLOG_NESTS)
    };
    let mut rep = Rep::default();
    let mut tracer = traced.then(|| Tracer::with_capacity(TRACE_CAPACITY));

    let t_setup = Instant::now();
    let rt = Runtime::new(Config {
        prediction: Some(PredictionConfig::default()),
        ..Config::default()
    })
    .expect("no history file to fail on");
    let locks: Vec<RawLock> = (0..BACKLOG_LOCKS).map(|_| rt.raw_lock()).collect();
    let sites = intern_sites(&rt, pool);
    let held = counters(BACKLOG_LOCKS);
    let gate = Barrier::new(BACKLOG_WORKERS + 1);
    let before = rt.stats();

    std::thread::scope(|s| {
        for w in 0..BACKLOG_WORKERS {
            let (locks, sites, held, gate) = (&locks, &sites, &held, &gate);
            s.spawn(move || {
                // Worker w walks the order from its own offset, so the two
                // share every lock over a rep but never wait for each other.
                let span = BACKLOG_LOCKS - NEST + 1;
                let mut k = w * span / BACKLOG_WORKERS;
                for _ in 0..slices {
                    gate.wait();
                    for _ in 0..nests {
                        let i = k % span;
                        let site = &sites[(k + w * 128) % sites.len()];
                        for l in i..i + NEST {
                            locks[l].lock(site);
                            bump(&held[l]);
                        }
                        for l in (i..i + NEST).rev() {
                            locks[l].unlock();
                        }
                        k += 1;
                    }
                    gate.wait();
                }
            });
        }
        rep.setup_s = t_setup.elapsed().as_secs_f64();
        let mut processed = before.events_processed;
        for slice in 0..slices as u64 {
            gate.wait();
            gate.wait();
            // The workers are parked at the gate: only the monitor runs,
            // and only `step_monitor()` is on the clock.
            let target = produced(&rt.stats());
            let op = tracer
                .as_mut()
                .filter(|t| t.has_room(8))
                .map(|t| t.begin("op", NO_PARENT, slice));
            let mut busy = Duration::ZERO;
            for _ in 0..8 {
                let t0 = Instant::now();
                match (op, tracer.as_mut()) {
                    (Some(op), Some(t)) => t.span("step_monitor", op, slice, || rt.step_monitor()),
                    _ => rt.step_monitor(),
                }
                busy += t0.elapsed();
                if rt.stats().events_processed >= target {
                    break;
                }
            }
            if let (Some(op), Some(t)) = (op, tracer.as_mut()) {
                t.end(op);
            }
            let now = rt.stats().events_processed;
            let events = now - processed;
            processed = now;
            rep.ops += events;
            rep.cycle_ns.push(ns(busy) as u64);
            rep.samples.push((ns(busy) / events.max(1) as f64) as u64);
        }
    });

    // Every slice holds the same number of events, but the lock-order
    // graph they meet grows from slice to slice.
    rep.cycle_ops = rep.ops as f64 / slices as f64;
    rep.aligned_cycles = true;
    let (after, lost) = drain(&rt);
    rep.footprint = rt.memory_footprint() as f64;
    rep.counts = counts(&before, &after);
    let performed = (BACKLOG_WORKERS * slices * nests * NEST) as u64;
    common_checks(&mut rep, &before, &after, lost, total(&held), performed);
    if after.deadlocks_detected + after.cycles_predicted + after.yields > 0 {
        rep.failed += after.deadlocks_detected + after.cycles_predicted + after.yields;
        rep.errors.push(format!(
            "{} deadlocks detected, {} cycles predicted, {} yields in an acyclic lock order",
            after.deadlocks_detected, after.cycles_predicted, after.yields
        ));
    }
    if let Some(t) = tracer {
        rep.spans = t.spans().to_vec();
    }
    rep
}
