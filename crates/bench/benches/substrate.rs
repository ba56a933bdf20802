//! Criterion micro-costs of the lock-free substrate and the interners:
//! MPSC enqueue/dequeue, stack interning and suffix matching.

use criterion::{criterion_group, criterion_main, Criterion};
use dimmunix_lockfree::MpscQueue;
use dimmunix_signature::{suffix_matches, FrameTable, StackTable};

fn bench_mpsc(c: &mut Criterion) {
    let mut g = c.benchmark_group("mpsc");
    g.bench_function("push_pop", |b| {
        let q = MpscQueue::new();
        b.iter(|| {
            q.push(42_u64);
            std::hint::black_box(q.pop());
        });
    });
    g.bench_function("push_drain_64", |b| {
        let q = MpscQueue::new();
        b.iter(|| {
            for i in 0..64_u64 {
                q.push(i);
            }
            let mut sum = 0;
            q.drain(|v| sum += v);
            std::hint::black_box(sum);
        });
    });
    g.finish();
}

fn bench_interning(c: &mut Criterion) {
    let mut g = c.benchmark_group("interning");
    g.bench_function("frame_intern_hit", |b| {
        let t = FrameTable::new();
        t.intern("update", "main.rs", 3);
        b.iter(|| std::hint::black_box(t.intern("update", "main.rs", 3)));
    });
    g.bench_function("stack_intern_hit_depth10", |b| {
        let ft = FrameTable::new();
        let st = StackTable::new();
        let frames: Vec<_> = (0..10).map(|i| ft.intern("f", "x.rs", i)).collect();
        st.intern(&frames);
        b.iter(|| std::hint::black_box(st.intern(&frames)));
    });
    g.bench_function("suffix_match_depth4", |b| {
        let ft = FrameTable::new();
        let a: Vec<_> = (0..10).map(|i| ft.intern("f", "x.rs", i)).collect();
        let mut bb = a.clone();
        bb[0] = ft.intern("g", "x.rs", 99);
        b.iter(|| std::hint::black_box(suffix_matches(&a, &bb, 4)));
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_millis(600))
        .warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_mpsc, bench_interning
}
criterion_main!(benches);
