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
/// Every histogram in the process shares these boundaries.
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
/// `record_ns` is wait-free: one bucket increment plus count/sum adds,
/// exactly what `/metrics` renders (buckets, `_sum`, `_count`).
/// Snapshots read the buckets relaxed; totals are deterministic (every
/// recorded value lands in exactly one bucket and in `count`/`sum`
/// exactly once) even under concurrent recording,
/// though a snapshot racing a record may transiently see `count`
/// ahead of the bucket sum by in-flight records.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS + 1],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
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
    }

    /// Record a [`std::time::Duration`] observation.
    #[inline]
    pub fn record(&self, d: std::time::Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
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
        }
    }
}

/// Frozen histogram state.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    pub buckets: [u64; BUCKETS + 1],
    pub count: u64,
    pub sum_ns: u64,
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
    fn saturates_at_the_overflow_bucket() {
        let h = Histogram::new();
        let bounds = bucket_bounds_ns();
        let huge = bounds[BUCKETS - 1].saturating_mul(8);
        h.record_ns(huge);
        h.record_ns(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.buckets[BUCKETS], 2, "both land in +Inf");
        assert_eq!(s.count, 2);
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
}
