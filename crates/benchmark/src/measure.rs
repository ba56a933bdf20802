//! Timing helpers: medians, nearest-rank percentiles, batch timers and the
//! host facts every result records.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median of `values` (mean of the two middle values for even counts).
/// Panics on an empty slice or a NaN: both are harness bugs.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are not NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 1) of an ascending slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Interquartile range over the median, as the driver computes run-to-run
/// spread (`statistics.quantiles(values, n=4)`, exclusive method).
pub fn spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are not NaN"));
    let quartile = |k: f64| {
        let pos = k * (v.len() as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, v.len());
        let hi = (lo + 1).min(v.len());
        v[lo - 1] + (pos - lo as f64).clamp(0.0, 1.0) * (v[hi - 1] - v[lo - 1])
    };
    let m = median(&v);
    if m == 0.0 {
        0.0
    } else {
        (quartile(3.0) - quartile(1.0)) / m.abs()
    }
}

/// Busy-waits until `deadline` — think time never sleeps, which keeps OS
/// timer jitter out of paced workloads.
pub fn spin_until(deadline: Instant) {
    while Instant::now() < deadline {}
}

/// Median ns per call of `f`, from `batches` timed batches of `per_batch`
/// calls each (batching keeps the timer's own cost out of cheap calls).
pub fn batch_ns(batches: usize, per_batch: usize, mut f: impl FnMut()) -> f64 {
    let mut per_call = Vec::with_capacity(batches);
    for _ in 0..batches {
        let t0 = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    median(&per_call)
}

/// Median ns of single calls to `f`, each preceded by an untimed `prep`.
pub fn each_ns<T>(runs: usize, mut prep: impl FnMut() -> T, mut f: impl FnMut(T)) -> f64 {
    let mut ns = Vec::with_capacity(runs);
    for _ in 0..runs {
        let input = prep();
        let t0 = Instant::now();
        f(input);
        ns.push(t0.elapsed().as_nanos() as f64);
    }
    median(&ns)
}

/// Cost of one `Instant::now()` read, ns (p50 over batches).
pub fn timer_ns(quick: bool) -> f64 {
    batch_ns(if quick { 5 } else { 31 }, 1000, || {
        black_box(Instant::now());
    })
}

/// Nanoseconds of `d` as `f64`.
pub fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Cores the host offers (recorded with every result).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The compiler that built this benchmark.
pub fn rustc_version() -> &'static str {
    env!("DIMMUNIX_BENCH_RUSTC")
}

/// Peak resident set of this process, kB (`VmHWM`); 0 where `/proc` is absent.
pub fn rss_peak_kb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.50), 50);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
