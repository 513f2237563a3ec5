//! Host microbenchmarks in the spirit of `likwid-bench`: the paper uses
//! its `peakflops` and `load` kernels to anchor the roofline ceilings
//! (Section VII-d). These are *measurements of this host*, the ceilings
//! and bandwidth of the host roofline `paper host` prints; the
//! cross-architecture figures use the modeled peaks of [`crate::arch`]
//! instead.

use std::time::Instant;

/// Measure scalar peak FLOP/s with independent FMA-shaped chains
/// (`x = x * a + b`), reported in GFLOP/s.
pub fn peakflops_scalar(iters: u64) -> f64 {
    let a = std::hint::black_box(1.000_000_1f32);
    let b = std::hint::black_box(1e-9f32);
    let mut x = [1.0f32, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7];
    let t0 = Instant::now();
    for _ in 0..iters {
        for xi in &mut x {
            *xi = *xi * a + b;
        }
    }
    let dt = t0.elapsed().as_secs_f64();
    std::hint::black_box(x);
    // 8 lanes × 2 flops per iteration.
    (iters as f64 * 8.0 * 2.0) / dt / 1e9
}

/// Measure streaming load bandwidth (GB/s) by summing a buffer larger
/// than the last-level cache.
pub fn load_bandwidth(buffer_mib: usize, passes: usize) -> f64 {
    let n = buffer_mib * 1024 * 1024 / 4;
    let data = vec![1.0f32; n];
    // Warm-up pass so page faults don't pollute the measurement.
    let mut sink = data.iter().sum::<f32>();
    let t0 = Instant::now();
    for _ in 0..passes {
        let mut acc0 = 0.0f32;
        let mut acc1 = 0.0f32;
        let mut acc2 = 0.0f32;
        let mut acc3 = 0.0f32;
        for c in data.chunks_exact(4) {
            acc0 += c[0];
            acc1 += c[1];
            acc2 += c[2];
            acc3 += c[3];
        }
        sink += acc0 + acc1 + acc2 + acc3;
    }
    let dt = t0.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    (passes as f64 * n as f64 * 4.0) / dt / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peakflops_is_positive_and_sane() {
        let g = peakflops_scalar(200_000);
        // Anything from an emulator to a fast core: just sanity bounds.
        assert!(g > 0.01 && g < 10_000.0, "peakflops {g}");
    }

    #[test]
    fn bandwidth_is_positive_and_sane() {
        let b = load_bandwidth(8, 1);
        assert!(b > 0.05 && b < 10_000.0, "bandwidth {b}");
    }
}
