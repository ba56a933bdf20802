//! Criterion latency of the hot path: one full
//! `request → acquired → release` hook cycle, swept over history size and
//! the linear-scan vs. match-index strategies (an ablation: both resolve a
//! stack to its bucket slots through the `BucketLayout`, only the index
//! also enters its candidate sets by slot; the paper's complexity
//! discussion is §5.6).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dimmunix_bench::microbench::{build_pool, MicroParams};
use dimmunix_bench::siggen;
use dimmunix_core::{Config, Runtime};

fn bench_request_cycle(c: &mut Criterion) {
    let mut g = c.benchmark_group("request_cycle");
    for &history_size in &[0_usize, 64, 256] {
        for &use_index in &[false, true] {
            let rt = Runtime::new(Config {
                use_match_index: use_index,
                ..Config::default()
            })
            .unwrap();
            let pool = build_pool(&MicroParams::default());
            if history_size > 0 {
                siggen::synthesize_history(&rt, &siggen::pool_frames(&pool), history_size, 2, 5, 4);
            }
            let t = rt.core().register_thread().unwrap();
            let l = rt.new_lock_id();
            let site = rt.make_site(&pool[0].frames());
            let label = format!(
                "H={history_size},{}",
                if use_index { "index" } else { "linear" }
            );
            g.bench_with_input(
                BenchmarkId::new("go_acquire_release", label),
                &(),
                |b, ()| {
                    b.iter(|| {
                        match rt.core().request(t, l, site.frames(), site.stack()) {
                            dimmunix_core::Decision::Go => {}
                            dimmunix_core::Decision::Yield { .. } => unreachable!(),
                        }
                        rt.core().acquired(t, l, site.stack());
                        std::hint::black_box(rt.core().release(t, l));
                    });
                },
            );
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_millis(600))
        .warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_request_cycle
}
criterion_main!(benches);
