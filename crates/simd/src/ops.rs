//! Slice-level vector operations built on [`crate::Simd`].
//!
//! These are the "utility kernels" counterpart of Highway's `hwy/contrib`
//! algorithms: convenient entry points used by benchmarks, tests, and the
//! simpler call-sites in the docking engine. Each handles unaligned lengths
//! with a scalar tail.

use crate::math;
use crate::traits::Simd;
use crate::SimdLevel;

#[inline(always)]
fn exp_slice_kernel<S: Simd>(s: S, xs: &[f32], out: &mut [f32]) {
    assert_eq!(xs.len(), out.len());
    let n = xs.len() / S::LANES * S::LANES;
    for (c, o) in xs[..n]
        .chunks_exact(S::LANES)
        .zip(out[..n].chunks_exact_mut(S::LANES))
    {
        let v = math::exp(s, s.load(c));
        s.store(v, o);
    }
    for i in n..xs.len() {
        out[i] = math::exp(crate::Scalar::new(), xs[i]);
    }
}

/// `out[i] = e^xs[i]` using the polynomial vector exponential.
pub fn exp_slice(level: SimdLevel, xs: &[f32], out: &mut [f32]) {
    crate::dispatch!(level, |s| exp_slice_kernel(s, xs, out));
}

#[inline(always)]
fn rsqrt_slice_kernel<S: Simd>(s: S, xs: &[f32], out: &mut [f32]) {
    assert_eq!(xs.len(), out.len());
    let n = xs.len() / S::LANES * S::LANES;
    for (c, o) in xs[..n]
        .chunks_exact(S::LANES)
        .zip(out[..n].chunks_exact_mut(S::LANES))
    {
        let v = math::rsqrt_nr(s, s.load(c));
        s.store(v, o);
    }
    for i in n..xs.len() {
        out[i] = 1.0 / xs[i].sqrt();
    }
}

/// `out[i] = 1/sqrt(xs[i])` with Newton-refined hardware estimates.
pub fn rsqrt_slice(level: SimdLevel, xs: &[f32], out: &mut [f32]) {
    crate::dispatch!(level, |s| rsqrt_slice_kernel(s, xs, out));
}

#[inline(always)]
fn gather_sum_kernel<S: Simd>(s: S, table: &[f32], idx: &[i32]) -> f32 {
    let n = idx.len() / S::LANES * S::LANES;
    let mut acc = s.splat(0.0);
    for c in idx[..n].chunks_exact(S::LANES) {
        let iv = s.load_i32(c);
        acc = s.add(acc, s.gather(table, iv));
    }
    let mut t = s.reduce_add(acc);
    for &i in &idx[n..] {
        t += table[i as usize];
    }
    t
}

/// `Σ table[idx[i]]` — the paper's "memory lookups into large constant data
/// structures" pattern in isolation (microbenchmark for the inter-energy
/// access pattern).
pub fn gather_sum(level: SimdLevel, table: &[f32], idx: &[i32]) -> f32 {
    crate::dispatch!(level, |s| gather_sum_kernel(s, table, idx))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn levels() -> Vec<SimdLevel> {
        SimdLevel::available()
    }

    #[test]
    fn exp_slice_matches_std_on_all_levels() {
        let xs: Vec<f32> = (0..131).map(|i| (i as f32) * 0.17 - 11.0).collect();
        for level in levels() {
            let mut out = vec![0.0f32; xs.len()];
            exp_slice(level, &xs, &mut out);
            for (&x, &o) in xs.iter().zip(&out) {
                let want = x.exp();
                assert!(
                    (o - want).abs() <= 2e-6 * want.max(1e-30),
                    "{level}: exp({x}) = {o}, want {want}"
                );
            }
        }
    }

    #[test]
    fn gather_sum_all_levels() {
        let table: Vec<f32> = (0..256).map(|i| (i * i) as f32).collect();
        let idx: Vec<i32> = (0..99).map(|i| (i * 37) % 256).collect();
        let want: f32 = idx.iter().map(|&i| table[i as usize]).sum();
        for level in levels() {
            let got = gather_sum(level, &table, &idx);
            assert_eq!(got, want, "{level}");
        }
    }

    #[test]
    fn rsqrt_slice_accuracy() {
        let xs: Vec<f32> = (1..200).map(|i| i as f32 * 0.9).collect();
        for level in levels() {
            let mut out = vec![0.0f32; xs.len()];
            rsqrt_slice(level, &xs, &mut out);
            for (&x, &o) in xs.iter().zip(&out) {
                let want = 1.0 / x.sqrt();
                assert!(
                    (o - want).abs() <= 3e-6 * want,
                    "{level}: rsqrt({x}) = {o}, want {want}"
                );
            }
        }
    }
}
