//! Lock-cheap metric primitives: counter, gauge, log-bucketed histogram.
//!
//! Every `record`/`inc` is a handful of relaxed atomic RMWs — safe to
//! call from the docking inner loop or the reactor's event loop without
//! perturbing the measurement. Cross-metric consistency is explicitly
//! *not* promised here (each atomic is independent); callers that need
//! an invariant-preserving multi-metric snapshot order their loads, as
//! `serve::net`'s connection gauges do.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (open connections, queue depth).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of finite buckets; index [`BUCKETS`] is the +Inf overflow.
pub const BUCKETS: usize = 40;

/// Smallest bucket boundary: 1 µs, in nanoseconds.
const FIRST_BOUND_NS: u64 = 1_000;

/// Fixed upper bounds, nanoseconds, doubling per bucket:
/// 1 µs, 2 µs, 4 µs, … — the top finite bound is 1 µs · 2³⁹ ≈ 550 s.
/// Every histogram in the process shares these boundaries, which is
/// what lets the bench and the server agree on quantiles exactly.
pub fn bucket_bounds_ns() -> &'static [u64; BUCKETS] {
    static BOUNDS: std::sync::OnceLock<[u64; BUCKETS]> = std::sync::OnceLock::new();
    BOUNDS.get_or_init(|| {
        let mut b = [0u64; BUCKETS];
        let mut v = FIRST_BOUND_NS;
        for slot in b.iter_mut() {
            *slot = v;
            v = v.saturating_mul(2);
        }
        b
    })
}

/// Index of the bucket whose upper bound is the smallest `>= ns`
/// (i.e. Prometheus `le` semantics); [`BUCKETS`] for the overflow.
#[inline]
fn bucket_index(ns: u64) -> usize {
    // bounds[i] = FIRST · 2^i, so we need the smallest i with
    // 2^i >= ns / FIRST — a leading-zeros computation, no search.
    let q = ns.div_ceil(FIRST_BOUND_NS);
    if q <= 1 {
        return 0;
    }
    let i = (u64::BITS - (q - 1).leading_zeros()) as usize;
    i.min(BUCKETS)
}

/// Fixed-boundary log-bucketed latency histogram.
///
/// `record_ns` is wait-free: one bucket increment plus count/sum adds
/// and a CAS-loop max. Snapshots read the buckets relaxed; totals are
/// deterministic (every recorded value lands in exactly one bucket and
/// in `count`/`sum` exactly once) even under concurrent recording,
/// though a snapshot racing a record may transiently see `count`
/// ahead of the bucket sum by in-flight records.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS + 1],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one observation, in nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Record a [`std::time::Duration`] observation.
    #[inline]
    pub fn record(&self, d: std::time::Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Record an observation given in (possibly fractional)
    /// milliseconds — the bench harness's native unit.
    #[inline]
    pub fn record_ms_f64(&self, ms: f64) {
        if ms.is_finite() && ms >= 0.0 {
            self.record_ns((ms * 1e6).min(u64::MAX as f64) as u64);
        }
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS + 1];
        for (dst, src) in buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        // Derive totals from the buckets themselves so the snapshot is
        // self-consistent (count == Σ buckets) even when records are
        // landing concurrently.
        let count = buckets.iter().sum();
        HistogramSnapshot {
            buckets,
            count,
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

/// Frozen histogram state with quantile interpolation.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    pub buckets: [u64; BUCKETS + 1],
    pub count: u64,
    pub sum_ns: u64,
    pub max_ns: u64,
}

impl HistogramSnapshot {
    /// Estimate the `q`-quantile (`0.0 ..= 1.0`), in nanoseconds.
    ///
    /// Linear interpolation inside the covering bucket, clamped to the
    /// observed maximum (so the overflow bucket and the top of a
    /// sparsely filled bucket never report a value larger than any
    /// observation). Returns 0 for an empty histogram.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based: the smallest rank
        // covering fraction q of the population.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let bounds = bucket_bounds_ns();
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if cum + n >= rank {
                let lower = if i == 0 { 0 } else { bounds[i - 1] };
                let upper = if i < BUCKETS { bounds[i] } else { self.max_ns };
                let within = (rank - cum) as f64 / n as f64;
                let est = lower as f64 + (upper.saturating_sub(lower)) as f64 * within;
                return (est as u64).min(self.max_ns);
            }
            cum += n;
        }
        self.max_ns
    }

    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// Mean observation, nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_le_semantics() {
        // Exactly on a bound lands in that bucket; one past it moves up.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(1_000), 0);
        assert_eq!(bucket_index(1_001), 1);
        assert_eq!(bucket_index(2_000), 1);
        assert_eq!(bucket_index(2_001), 2);
        assert_eq!(bucket_index(4_000), 2);
        // Cross-check the closed form against the bounds table.
        let bounds = bucket_bounds_ns();
        for (i, &b) in bounds.iter().enumerate() {
            assert_eq!(bucket_index(b), i, "bound {b} ns");
            if i + 1 < BUCKETS {
                assert_eq!(bucket_index(b + 1), i + 1, "bound {b}+1 ns");
            }
        }
        // Past the top finite bound: the overflow bucket.
        assert_eq!(bucket_index(bounds[BUCKETS - 1] + 1), BUCKETS);
        assert_eq!(bucket_index(u64::MAX), BUCKETS);
    }

    #[test]
    fn quantile_interpolates_within_a_bucket() {
        let h = Histogram::new();
        // 100 observations spread uniformly in the (1 ms, 2 ms] bucket.
        for i in 0..100u64 {
            h.record_ns(1_024_000 + i * 9_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        let bounds = bucket_bounds_ns();
        let (lower, upper) = (bounds[10], bounds[11]); // 1.024 ms, 2.048 ms
        assert_eq!(bucket_index(1_024_000 + 99 * 9_000), 11);
        // p50 interpolates to the middle of the bucket, p99 near its top.
        let p50 = s.p50_ns();
        let mid = lower + (upper - lower) / 2;
        assert!(
            (p50 as i64 - mid as i64).unsigned_abs() <= (upper - lower) / 20,
            "p50 {p50} not near bucket midpoint {mid}"
        );
        let p99 = s.p99_ns();
        assert!(p99 > p50);
        assert!(
            p99 <= s.max_ns,
            "p99 {p99} exceeds observed max {}",
            s.max_ns
        );
        // p100 is exactly the observed max — never the bucket bound.
        assert_eq!(s.quantile_ns(1.0), s.max_ns);
    }

    #[test]
    fn quantile_exact_on_single_valued_histogram() {
        let h = Histogram::new();
        for _ in 0..10 {
            h.record_ns(5_000_000); // 5 ms
        }
        let s = h.snapshot();
        // Every quantile is clamped to the (single) observed value.
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert!(s.quantile_ns(q) <= 5_000_000);
        }
        assert_eq!(s.max_ns, 5_000_000);
        assert_eq!(s.mean_ns(), 5_000_000);
    }

    #[test]
    fn saturates_at_the_overflow_bucket() {
        let h = Histogram::new();
        let bounds = bucket_bounds_ns();
        let huge = bounds[BUCKETS - 1].saturating_mul(8);
        h.record_ns(huge);
        h.record_ns(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.buckets[BUCKETS], 2, "both land in +Inf");
        assert_eq!(s.count, 2);
        assert_eq!(s.max_ns, u64::MAX);
        // Quantiles in the overflow bucket report the observed max, not
        // an invented bound.
        assert_eq!(s.quantile_ns(1.0), u64::MAX);
        // The interpolated median is clamped into the observed range.
        assert!(s.p50_ns() >= bounds[BUCKETS - 1]);
    }

    #[test]
    fn concurrent_recording_keeps_totals_deterministic() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        // Deterministic per-thread pattern spanning many buckets.
                        h.record_ns(500 + (t * PER_THREAD + i) * 137);
                    }
                })
            })
            .collect();
        for j in handles {
            j.join().unwrap();
        }
        let s = h.snapshot();
        let expected = THREADS * PER_THREAD;
        assert_eq!(s.count, expected);
        assert_eq!(s.buckets.iter().sum::<u64>(), expected);
        // The sum is the exact arithmetic series regardless of interleaving.
        let n = THREADS * PER_THREAD;
        let expected_sum: u64 = 500 * n + 137 * (n * (n - 1) / 2);
        assert_eq!(s.sum_ns, expected_sum);
        assert_eq!(s.max_ns, 500 + (n - 1) * 137);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.add(5);
        g.sub(2);
        assert_eq!(g.get(), 3);
        g.set(-1);
        assert_eq!(g.get(), -1);
    }

    #[test]
    fn record_ms_f64_converts_and_rejects_garbage() {
        let h = Histogram::new();
        h.record_ms_f64(1.5); // 1.5 ms = 1_500_000 ns
        h.record_ms_f64(f64::NAN);
        h.record_ms_f64(-3.0);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.max_ns, 1_500_000);
    }
}
