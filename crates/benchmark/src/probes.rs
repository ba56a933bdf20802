//! Standalone layer probes: the p50 cost of each layer's public calls, one
//! layer at a time, independent of any workload. Runtime-bound probes run
//! embedded (no monitor thread) in bursts that fit the 1024-slot event lane
//! with an untimed `step_monitor()` between bursts, so they time the hook
//! with room in its lane; the overflow path has its own probe.

use crate::gen::{self, FramePath, Walk, LOCKS, POOL_PATHS, SIG_DEPTH};
use crate::measure::{batch_ns, each_ns, median, ns, timer_ns};
use crate::workloads::{intern_sites, push_context};
use dimmunix_core::{
    context, Config, CycleKind, Event, EventLanes, FrameId, FrameTable, History, LockId, LockSite,
    Provenance, RawLock, Runtime, RuntimeMode, StackId, StackTable, ThreadId,
};
use dimmunix_lockfree::{
    DrainVerdict, EpochCell, MpscQueue, OccupancyArray, SpscRing, VersionedBucket, WakeList,
    WakeNodePool,
};
use dimmunix_predict::{PredictionConfig, Predictor};
use dimmunix_rag::Rag;
use dimmunix_signature::match_index::{BucketLayout, MatchIndex};
use parking_lot::Mutex as PlainMutex;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Pairs per burst: 4 events each, so a burst fits the 1024-slot lane.
const BURST: usize = 200;
/// Probes lock through the whole pool.
const ALL_PATHS: std::ops::Range<usize> = 0..POOL_PATHS;

/// Iteration counts; `quick` (the smoke test) only proves the plumbing.
#[derive(Clone, Copy)]
struct Scale {
    quick: bool,
    batches: usize,
    per_batch: usize,
    bursts: usize,
    slow_runs: usize,
}

impl Scale {
    fn new(quick: bool) -> Self {
        if quick {
            Self {
                quick,
                batches: 3,
                per_batch: 20,
                bursts: 2,
                slow_runs: 2,
            }
        } else {
            Self {
                quick,
                batches: 21,
                per_batch: 2000,
                bursts: 25,
                slow_runs: 9,
            }
        }
    }

    fn cheap(&self, f: impl FnMut()) -> f64 {
        batch_ns(self.batches, self.per_batch, f)
    }
}

/// Runs `f` on a fresh thread, so its runtime registrations die with it.
fn fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| s.spawn(f).join().expect("probe thread panicked"))
}

fn embedded(config: Config) -> Runtime {
    Runtime::new(config).expect("probe runtime starts")
}

/// Median ns per pair of `pair`, over bursts with an untimed monitor pass
/// between them.
fn burst_pair_ns(scale: Scale, rt: &Runtime, mut pair: impl FnMut()) -> f64 {
    let mut per_pair = Vec::with_capacity(scale.bursts);
    for _ in 0..scale.bursts {
        let t0 = Instant::now();
        for _ in 0..BURST {
            pair();
        }
        per_pair.push(ns(t0.elapsed()) / BURST as f64);
        rt.step_monitor();
    }
    median(&per_pair)
}

/// p50 of `request`, `acquired` and `release`, each timed alone with an
/// explicit thread id (as `hot_path.rs` drives the engine), timer subtracted.
fn hook_ns(scale: Scale, rt: &Runtime, site: &LockSite, timer: f64) -> [f64; 3] {
    let core = rt.core();
    let t = core.register_thread().expect("a free thread slot");
    let l = rt.new_lock_id();
    let mut samples: [Vec<f64>; 3] = Default::default();
    for burst in 0..=scale.bursts {
        for _ in 0..BURST {
            let t0 = Instant::now();
            black_box(core.request(t, l, site.frames(), site.stack()));
            let t1 = Instant::now();
            core.acquired(t, l, site.stack());
            let t2 = Instant::now();
            black_box(core.release(t, l));
            let t3 = Instant::now();
            // Burst 0 warms up (it builds the first match view).
            if burst > 0 {
                samples[0].push(ns(t1 - t0));
                samples[1].push(ns(t2 - t1));
                samples[2].push(ns(t3 - t2));
            }
        }
        rt.step_monitor();
    }
    core.unregister_thread(t);
    samples.map(|s| (median(&s) - timer).max(0.0))
}

/// The floor every pair cost is read against: `[timer_ns, plain_pair_ns,
/// plain_pairs_per_s]`, the pair being the workloads' loop over 64 plain
/// `parking_lot` mutexes, each guarding a counter.
pub fn baseline(seed: u64, quick: bool) -> [f64; 3] {
    let scale = Scale::new(quick);
    let plain: Vec<PlainMutex<u64>> = (0..LOCKS).map(|_| PlainMutex::new(0)).collect();
    let mut walk = Walk::new(seed, 0);
    let plain_pair = scale.cheap(|| *plain[walk.next(&ALL_PATHS).0].lock() += 1);
    let t0 = Instant::now();
    let pairs = scale.batches * scale.per_batch * 10;
    for _ in 0..pairs {
        *plain[walk.next(&ALL_PATHS).0].lock() += 1;
    }
    let rate = pairs as f64 / t0.elapsed().as_secs_f64();
    [timer_ns(quick), plain_pair, rate]
}

/// Every standalone per-layer metric, by name.
pub fn run_all(
    seed: u64,
    quick: bool,
    work_dir: &Path,
) -> Result<Vec<(&'static str, f64)>, String> {
    std::fs::create_dir_all(work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    let scale = Scale::new(quick);
    let pool = gen::build_pool(seed);
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    let [timer, plain_pair, plain_rate] = baseline(seed, quick);
    out.push(("baseline.timer_ns", timer));
    out.push(("baseline.plain_pair_ns", plain_pair));
    out.push(("baseline.plain_pairs_per_s", plain_rate));

    // context, interners, the raw/sync lock types and the engine hooks, on
    // an embedded default runtime with an empty history.
    let (capture, intern_stack, hooks) = fresh_thread(|| {
        let rt = embedded(Config::default());
        let sites = intern_sites(&rt, &pool);
        out.push((
            "context.push_frame_ns",
            scale.cheap(|| {
                drop(black_box(context::push_frame(context::RawFrame {
                    function: "probe",
                    file: "probe.rs",
                    line: 1,
                })));
            }),
        ));
        let live = push_context(&pool[0]);
        let here = std::panic::Location::caller();
        let capture = scale.cheap(|| {
            black_box(context::capture(rt.frame_table(), here));
        });
        drop(live);
        out.push(("context.capture_ns", capture));
        let (function, file, line) = pool[0][3];
        out.push((
            "signature.intern_frame_ns",
            scale.cheap(|| {
                black_box(rt.frame_table().intern(function, file, line));
            }),
        ));
        let frames: Vec<FrameId> = sites[0].frames().to_vec();
        let intern_stack = scale.cheap(|| {
            black_box(rt.core().intern_stack(&frames));
        });
        out.push(("signature.intern_stack_ns", intern_stack));
        out.push((
            "runtime.current_thread_ns",
            scale.cheap(|| {
                black_box(rt.current_thread());
            }),
        ));
        let hooks = hook_ns(scale, &rt, &sites[0], timer);
        out.push(("avoidance.request_ns", hooks[0]));
        out.push(("avoidance.acquired_ns", hooks[1]));
        out.push(("avoidance.release_ns", hooks[2]));
        (capture, intern_stack, hooks)
    });
    let engine = hooks.iter().sum::<f64>() + plain_pair;

    // raw: the pthreads-style lock, full and under the two ablation cuts.
    for (name, mode) in [
        ("raw.pair_ns", RuntimeMode::Full),
        (
            "avoidance.instr_only_pair_ns",
            RuntimeMode::InstrumentationOnly,
        ),
        ("avoidance.updates_only_pair_ns", RuntimeMode::UpdatesOnly),
    ] {
        let pair = fresh_thread(|| {
            let rt = embedded(Config {
                mode,
                ..Config::default()
            });
            let (locks, sites) = (raw_locks(&rt), intern_sites(&rt, &pool));
            let mut walk = Walk::new(seed, 0);
            burst_pair_ns(scale, &rt, || {
                let (l, p) = walk.next(&ALL_PATHS);
                locks[l].lock(&sites[p]);
                locks[l].unlock();
            })
        });
        out.push((name, pair));
        if mode == RuntimeMode::Full {
            out.push(("raw.skin_ns", pair - engine));
        }
    }
    out.push((
        "raw.try_lock_pair_ns",
        fresh_thread(|| {
            let rt = embedded(Config::default());
            let (locks, sites) = (raw_locks(&rt), intern_sites(&rt, &pool));
            let mut walk = Walk::new(seed, 0);
            burst_pair_ns(scale, &rt, || {
                let (l, p) = walk.next(&ALL_PATHS);
                if locks[l].try_lock(&sites[p]) {
                    locks[l].unlock();
                }
            })
        }),
    ));

    // sync: the RAII types, under ten live context frames.
    fresh_thread(|| {
        let rt = embedded(Config::default());
        let _live = push_context(&pool[0]);
        let mutexes: Vec<_> = (0..LOCKS).map(|_| rt.mutex(0_u64)).collect();
        let mut walk = Walk::new(seed, 0);
        let pair = burst_pair_ns(scale, &rt, || *mutexes[walk.next(&ALL_PATHS).0].lock() += 1);
        out.push(("sync.mutex_pair_ns", pair));
        out.push(("sync.mutex_skin_ns", pair - engine - capture - intern_stack));
        let reentrant = rt.reentrant_lock();
        out.push((
            "sync.reentrant_pair_ns",
            burst_pair_ns(scale, &rt, || drop(reentrant.enter())),
        ));
        let outer = reentrant.enter();
        out.push((
            "sync.reentrant_nested_pair_ns",
            burst_pair_ns(scale, &rt, || drop(reentrant.enter())),
        ));
        drop(outer);
    });

    signature_probes(scale, seed, &pool, work_dir, timer, &mut out)?;
    lanes_probes(scale, &mut out);
    lockfree_probes(scale, &mut out);
    monitor_probes(scale, &pool, &mut out);
    graph_probes(scale, &mut out);
    Ok(out)
}

fn raw_locks(rt: &Runtime) -> Vec<RawLock> {
    (0..LOCKS).map(|_| rt.raw_lock()).collect()
}

/// History file I/O, index builds and lookups over 1 024 signatures, and a
/// `request` that hits a member bucket.
fn signature_probes(
    scale: Scale,
    seed: u64,
    pool: &[FramePath],
    work_dir: &Path,
    timer: f64,
    out: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    let sigs = if scale.quick { 64 } else { 1024 };
    let pairs = gen::synth_pairs(seed, 2, 0..POOL_PATHS, sigs);
    let file = work_dir.join(format!("probe-{seed}.dlk"));
    gen::write_history_file(&file, pool, &pairs).map_err(|e| format!("{}: {e}", file.display()))?;

    out.push((
        "signature.history_open_ns",
        each_ns(
            scale.slow_runs,
            || (FrameTable::new(), StackTable::new()),
            |(frames, stacks)| {
                black_box(History::open(&file, &frames, &stacks).expect("generated file loads"));
            },
        ),
    ));
    let (frames, stacks) = (FrameTable::new(), StackTable::new());
    let history = History::open(&file, &frames, &stacks).map_err(|e| e.to_string())?;
    let saved = work_dir.join(format!("probe-{seed}.saved.dlk"));
    out.push((
        "signature.history_save_ns",
        each_ns(
            scale.slow_runs,
            || (),
            |()| history.save_to(&saved, &frames, &stacks).expect("save"),
        ),
    ));
    out.push((
        "signature.match_index_build_ns",
        each_ns(
            scale.slow_runs,
            || (),
            |()| {
                black_box(MatchIndex::build(&history, &stacks));
            },
        ),
    ));

    let index = MatchIndex::build(&history, &stacks);
    let member = stacks.resolve(history.snapshot()[0].stacks[0]);
    out.push((
        "signature.match_hit_ns",
        scale.cheap(|| {
            black_box(
                index
                    .candidate_sets(&member)
                    .map(|set| set.candidates().len())
                    .sum::<usize>(),
            );
        }),
    ));
    let mut stranger = member.to_vec();
    *stranger.last_mut().expect("paths are not empty") = frames.intern("noSite", "probe.rs", 0);
    out.push((
        "signature.match_miss_ns",
        scale.cheap(|| {
            black_box(index.matches_any(&stranger));
        }),
    ));

    // Appends: batches of 4 new signatures, as `vaccinate_live` adds them.
    let intern = |i: usize| {
        let ids: Vec<FrameId> = pool[i]
            .iter()
            .map(|&(f, file, line)| frames.intern(f, file, line))
            .collect();
        stacks.intern(&ids)
    };
    let runs = scale.slow_runs * 2;
    let mut fresh = gen::synth_pairs(seed, 4, 0..POOL_PATHS, sigs + 4 * runs + 4)
        .into_iter()
        .filter(|pair| !pairs.contains(pair) && !pairs.contains(&[pair[1], pair[0]]))
        .map(|[a, b]| {
            (
                CycleKind::Deadlock,
                vec![intern(a), intern(b)],
                SIG_DEPTH,
                Provenance::Detected,
            )
        });
    let appended = history.add_batch_with_provenance(fresh.by_ref().take(4).collect(), |_| {});
    out.push((
        "signature.match_index_extended_ns",
        each_ns(
            scale.slow_runs,
            || (),
            |()| {
                let layout = Arc::new(BucketLayout::extended(index.layout(), &appended, &stacks));
                black_box(MatchIndex::extended(
                    &index,
                    history.generation(),
                    layout,
                    &appended,
                    &stacks,
                ));
            },
        ),
    ));
    out.push((
        "signature.history_add_batch_ns",
        each_ns(
            runs,
            || fresh.by_ref().take(4).collect::<Vec<_>>(),
            |batch| {
                black_box(history.add_batch_with_provenance(batch, |_| {}));
            },
        ),
    ));

    // `request` through a member path of a loaded history (the runtime
    // rewrites its file on drop: give it a private copy).
    let loaded = work_dir.join(format!("probe-{seed}.loaded.dlk"));
    std::fs::copy(&file, &loaded).map_err(|e| format!("{}: {e}", loaded.display()))?;
    let hit = fresh_thread(|| {
        let rt = embedded(Config {
            history_path: Some(loaded),
            ..Config::default()
        });
        let site = rt.make_site(&pool[pairs[0][0]]);
        hook_ns(scale, &rt, &site, timer)[0]
    });
    out.push(("avoidance.request_hit_ns", hit));
    Ok(())
}

fn lanes_probes(scale: Scale, out: &mut Vec<(&'static str, f64)>) {
    const N: usize = 1000;
    let lanes = EventLanes::new(4, 1024);
    lanes.register(0);
    let event = || Event::Acquired {
        t: ThreadId(0),
        l: LockId(1),
        stack: StackId(0),
    };
    let timed_pushes = || {
        let t0 = Instant::now();
        for _ in 0..N {
            lanes.push(0, event());
        }
        ns(t0.elapsed()) / N as f64
    };
    let (mut room, mut full, mut drain) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..scale.bursts {
        room.push(timed_pushes());
        let t0 = Instant::now();
        let drained = lanes.drain(usize::MAX, |e| {
            black_box(e);
        });
        drain.push(ns(t0.elapsed()) / drained.max(1) as f64);
        // Fill the ring, then time pushes that must spill to the MPSC queue.
        for _ in 0..1024 {
            lanes.push(0, event());
        }
        full.push(timed_pushes());
        lanes.drain(usize::MAX, |_| {});
    }
    out.push(("lanes.push_ns", median(&room)));
    out.push(("lanes.push_overflow_ns", median(&full)));
    out.push(("lanes.drain_ns_per_event", median(&drain)));
}

fn lockfree_probes(scale: Scale, out: &mut Vec<(&'static str, f64)>) {
    let ring = SpscRing::with_capacity(1024);
    out.push((
        "lockfree.spsc_push_pop_ns",
        scale.cheap(|| {
            black_box(ring.push(7_u64).is_ok());
            black_box(ring.pop());
        }),
    ));
    let queue = MpscQueue::new();
    out.push((
        "lockfree.mpsc_push_pop_ns",
        scale.cheap(|| {
            queue.push(7_u64);
            black_box(queue.pop());
        }),
    ));
    let cell = EpochCell::new(Arc::new(0_u64));
    out.push((
        "lockfree.epoch_load_ns",
        scale.cheap(|| {
            black_box(cell.epoch());
        }),
    ));
    let occupancy = OccupancyArray::new(2048);
    occupancy.increment(5);
    let mut slot = 0_u64;
    out.push((
        "lockfree.occupancy_probe_ns",
        scale.cheap(|| {
            slot = slot.wrapping_add(1);
            black_box(occupancy.possibly_nonempty(slot));
        }),
    ));
    // The engine's buckets hold (thread, lock, stack) records.
    let bucket = VersionedBucket::<3>::new();
    for i in 0..4 {
        bucket.write().push([i, i, i]);
    }
    out.push((
        "lockfree.bucket_write_ns",
        scale.cheap(|| {
            bucket.write().push([9, 9, 9]);
            black_box(bucket.write().remove([9, 9, 9]));
        }),
    ));
    let mut records = Vec::new();
    out.push((
        "lockfree.bucket_read_ns",
        scale.cheap(|| {
            black_box(bucket.read_into(&mut records));
        }),
    ));
    let (list, nodes) = (WakeList::new(), WakeNodePool::new());
    out.push((
        "lockfree.wakelist_push_drain_ns",
        scale.cheap(|| {
            black_box(list.push_pooled(&nodes, 1, 2, 3));
            black_box(list.drain_into(&nodes, |_, _, _| DrainVerdict::Consume));
        }),
    ));
}

/// The monitor pass on a lane-sized backlog, and idle over 4 096 held locks
/// (every pass clones the RAG as its restart snapshot).
fn monitor_probes(scale: Scale, pool: &[FramePath], out: &mut Vec<(&'static str, f64)>) {
    let per_event = fresh_thread(|| {
        let rt = embedded(Config::default());
        let (locks, sites) = (raw_locks(&rt), intern_sites(&rt, pool));
        let mut walk = Walk::new(1, 0);
        let mut per_event = Vec::new();
        for _ in 0..scale.bursts {
            for _ in 0..BURST {
                let (l, p) = walk.next(&ALL_PATHS);
                locks[l].lock(&sites[p]);
                locks[l].unlock();
            }
            let before = rt.stats().events_processed;
            let t0 = Instant::now();
            rt.step_monitor();
            let spent = ns(t0.elapsed());
            per_event.push(spent / (rt.stats().events_processed - before).max(1) as f64);
        }
        median(&per_event)
    });
    out.push(("monitor.step_ns_per_event", per_event));
    let held = if scale.quick { 64 } else { 4096 };
    let idle = fresh_thread(|| {
        let rt = embedded(Config::default());
        let site = rt.make_site(&pool[0]);
        let locks: Vec<RawLock> = (0..held).map(|_| rt.raw_lock()).collect();
        for lock in &locks {
            lock.lock(&site);
            // Keep each burst of events inside the lane.
            if lock.id().0 % BURST as u64 == 0 {
                rt.step_monitor();
            }
        }
        rt.step_monitor();
        let idle = each_ns(scale.slow_runs * 3, || (), |()| rt.step_monitor());
        for lock in locks.iter().rev() {
            lock.unlock();
        }
        idle
    });
    out.push(("monitor.idle_step_ns", idle));
}

/// `Rag` and `Predictor` fed the `monitor_backlog` event shape directly:
/// two threads nesting L_i → L_i+1 → L_i+2 along one global lock order.
fn graph_probes(scale: Scale, out: &mut Vec<(&'static str, f64)>) {
    const LOCKS: u64 = 4096;
    let nests: u64 = if scale.quick { 64 } else { 8192 };
    let stack = StackId(0);
    let (mut replay, mut feed, mut pass) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..scale.slow_runs {
        let mut rag = Rag::new();
        let t0 = Instant::now();
        for k in 0..nests {
            let t = ThreadId(k % 2);
            let i = (k / 2 + (k % 2) * LOCKS / 2) % (LOCKS - 2);
            for l in i..i + 3 {
                rag.on_request(t, LockId(l), stack);
                rag.on_go(t, LockId(l), stack);
                rag.on_acquired(t, LockId(l), stack);
            }
            for l in (i..i + 3).rev() {
                rag.on_release(t, LockId(l));
            }
        }
        replay.push(ns(t0.elapsed()) / (nests * 12) as f64);

        let mut predictor = Predictor::new(PredictionConfig::default());
        let t0 = Instant::now();
        for k in 0..nests {
            let t = ThreadId(k % 2);
            let i = (k / 2 + (k % 2) * LOCKS / 2) % (LOCKS - 2);
            for l in i..i + 3 {
                predictor.on_acquired(t, LockId(l), StackId((k % 256) as u32));
            }
            for l in (i..i + 3).rev() {
                predictor.on_release(t, LockId(l));
            }
        }
        feed.push(ns(t0.elapsed()) / (nests * 6) as f64);
        let t0 = Instant::now();
        black_box(predictor.pass());
        pass.push(ns(t0.elapsed()));
    }
    out.push(("rag.replay_ns_per_event", median(&replay)));
    out.push(("predict.feed_ns_per_event", median(&feed)));
    out.push(("predict.pass_ns", median(&pass)));

    // A 64-thread wait-for chain without a cycle: T_i holds L_i and waits
    // for L_i+1.
    let mut rag = Rag::new();
    for i in 0..64 {
        rag.on_acquired(ThreadId(i), LockId(i), stack);
    }
    for i in 0..63 {
        rag.on_request(ThreadId(i), LockId(i + 1), stack);
        rag.on_go(ThreadId(i), LockId(i + 1), stack);
    }
    out.push((
        "rag.find_cycles_ns",
        each_ns(
            scale.batches * 10,
            || (),
            |()| {
                rag.mark_all_dirty();
                black_box(rag.find_deadlock_cycles());
            },
        ),
    ));
}
