//! Width-generic vector math: `exp`, a bounded-domain `exp`, `log`,
//! refined reciprocals.
//!
//! The reproduced paper shows that availability of *vectorized math
//! functions* is the single biggest portability cliff: compilers that cannot
//! resolve a vector `expf` (GCC/NVC++ with an old GLIBC on ARM) simply do not
//! vectorize the docking kernels at all (Sections VII-c, VIII-a). Explicit
//! frameworks like Highway sidestep the problem by shipping their own
//! polynomial implementations — which is exactly what this module is.
//!
//! Implementations follow the classic Cephes `expf`/`logf` reductions (the
//! same lineage as `avx_mathfun`, SLEEF's `u10` kernels, and Highway's
//! `Exp`/`Log`). Accuracy is unit- and property-tested against `f64`
//! references: `exp` ≤ 2 ulp over the full finite range, `log` ≤ 2 ulp for
//! normal inputs.

use crate::traits::Simd;

/// Upper clamp for [`exp`]: chosen so the scale factor `2^n` stays finite
/// with round-to-nearest reduction (`n ≤ 127`).
pub const EXP_HI: f32 = 88.376_26;
/// Lower clamp for [`exp`]: below this `expf` underflows to 0 anyway.
pub const EXP_LO: f32 = -87.336_54;

const LOG2E: f32 = std::f32::consts::LOG2_E;
const LN2_HI: f32 = 0.693_359_4;
const LN2_LO: f32 = -2.121_944_4e-4;

/// Vectorized `e^x` (Cephes-style degree-5 polynomial after range
/// reduction).
///
/// Inputs are clamped to `[EXP_LO, EXP_HI]`; NaN propagates.
#[inline(always)]
pub fn exp<S: Simd>(s: S, x: S::V) -> S::V {
    let x = s.min(s.max(x, s.splat(EXP_LO)), s.splat(EXP_HI));

    // n = round(x / ln2); r = x - n*ln2 in two steps for extra bits.
    let n_i = s.round_i32(s.mul(x, s.splat(LOG2E)));
    let n_f = s.i32_to_f32(n_i);
    let r = s.neg_mul_add(n_f, s.splat(LN2_HI), x);
    let r = s.neg_mul_add(n_f, s.splat(LN2_LO), r);

    // e^r = 1 + r + r^2 * P(r) on |r| <= ln2/2.
    let mut p = s.splat(1.987_569_1e-4);
    p = s.mul_add(p, r, s.splat(1.398_199_9e-3));
    p = s.mul_add(p, r, s.splat(8.333_452e-3));
    p = s.mul_add(p, r, s.splat(4.166_579_6e-2));
    p = s.mul_add(p, r, s.splat(1.666_666_6e-1));
    p = s.mul_add(p, r, s.splat(5e-1));
    let r2 = s.mul(r, r);
    let y = s.add(s.mul_add(p, r2, r), s.splat(1.0));

    // y * 2^n via exponent-field construction.
    let scale = s.bitcast_i32_f32(s.i32_shl::<23>(s.i32_add(n_i, s.splat_i32(127))));
    s.mul(y, scale)
}

/// Lower end of [`exp_bounded`]'s domain.
pub const EXP_BOUNDED_LO: f32 = -2.6;

/// Vectorized `e^x` for `x` in `[EXP_BOUNDED_LO, 0]` only: one degree-9
/// minimax polynomial in `t = x/1.3 + 1 ∈ [−1, 1]` — ten FMAs, against
/// the ~20 operations of [`exp`], because there is no clamp, no range
/// reduction, no float→int conversion and no exponent-field scale.
///
/// The domain is the caller's obligation (`debug_assert`ed, unchecked in
/// release builds; outside it the polynomial diverges from `e^x` without
/// warning). The intra-energy pair term meets it by construction: both of
/// its exponentials, `exp(−λB·r)` and `exp(−r²/2σ²)`, have arguments in
/// `[−2.53, 0]` once `r` is held inside the 8 Å cutoff.
///
/// Accuracy: the polynomial is within 7.2e-9 (relative) of `e^x` in exact
/// arithmetic; evaluated in `f32` by Horner's rule it stays ≤ 4 ulp on
/// backends with a fused multiply-add and ≤ 6 ulp where `mul_add` rounds
/// twice (scalar, SSE2) — the cancellation near `t = −1`, where terms of
/// magnitude 0.27 sum to 0.074, is what costs the last ulps.
#[inline(always)]
pub fn exp_bounded<S: Simd>(s: S, x: S::V) -> S::V {
    debug_assert!(
        s.all(s.mask_and(s.ge(x, s.splat(EXP_BOUNDED_LO)), s.le(x, s.zero()))),
        "exp_bounded argument outside [{EXP_BOUNDED_LO}, 0]: {x:?}"
    );
    // Remez fit of e^(1.3(t−1)) on [−1, 1], relative error.
    let t = s.mul_add(x, s.splat(1.0 / 1.3), s.splat(1.0));
    let mut p = s.splat(7.663_754e-6);
    p = s.mul_add(p, t, s.splat(5.758_401_7e-5));
    p = s.mul_add(p, t, s.splat(3.403_673e-4));
    p = s.mul_add(p, t, s.splat(1.825_084_1e-3));
    p = s.mul_add(p, t, s.splat(8.431_564e-3));
    p = s.mul_add(p, t, s.splat(3.243_301_8e-2));
    p = s.mul_add(p, t, s.splat(9.979_23e-2));
    p = s.mul_add(p, t, s.splat(2.302_893_1e-1));
    p = s.mul_add(p, t, s.splat(3.542_913_2e-1));
    s.mul_add(p, t, s.splat(2.725_318e-1))
}

const SQRT_HALF: f32 = std::f32::consts::FRAC_1_SQRT_2;

/// Vectorized natural logarithm (Cephes-style degree-9 polynomial).
///
/// Defined for strictly positive normal inputs; inputs `<= 0` or denormal
/// are clamped to the smallest positive normal, matching the "fast-math"
/// contract the paper's kernels are compiled under (`-ffast-math` assumes
/// no invalid operands).
#[inline(always)]
pub fn log<S: Simd>(s: S, x: S::V) -> S::V {
    let x = s.max(x, s.splat(f32::MIN_POSITIVE));

    // Split into exponent and mantissa m in [0.5, 1).
    let bits = s.bitcast_f32_i32(x);
    let exp_raw = s.i32_shr::<23>(bits);
    let e = s.i32_to_f32(s.i32_sub(exp_raw, s.splat_i32(126)));
    let mant_bits = s.i32_and(bits, s.splat_i32(0x007f_ffff));
    let m = s.bitcast_i32_f32(s.i32_and(
        s.i32_add(mant_bits, s.splat_i32(0x3f00_0000)),
        s.splat_i32(0x3fff_ffff),
    ));

    // If m < sqrt(1/2): e -= 1, m = 2m - 1; else m = m - 1.
    let small = s.lt(m, s.splat(SQRT_HALF));
    let e = s.sub(e, s.select(small, s.splat(1.0), s.splat(0.0)));
    let m = s.sub(s.select(small, s.add(m, m), m), s.splat(1.0));

    let z = s.mul(m, m);
    let mut p = s.splat(7.037_683_6e-2);
    p = s.mul_add(p, m, s.splat(-1.151_461e-1));
    p = s.mul_add(p, m, s.splat(1.167_699_9e-1));
    p = s.mul_add(p, m, s.splat(-1.242_014_1e-1));
    p = s.mul_add(p, m, s.splat(1.424_932_3e-1));
    p = s.mul_add(p, m, s.splat(-1.666_805_7e-1));
    p = s.mul_add(p, m, s.splat(2.000_071_5e-1));
    p = s.mul_add(p, m, s.splat(-2.499_999_4e-1));
    p = s.mul_add(p, m, s.splat(3.333_333e-1));
    let mut y = s.mul(s.mul(p, m), z);

    y = s.mul_add(e, s.splat(LN2_LO), y);
    y = s.neg_mul_add(s.splat(0.5), z, y);
    let r = s.add(m, y);
    s.mul_add(e, s.splat(LN2_HI), r)
}

/// Reciprocal refined with one Newton-Raphson step from the hardware
/// estimate: `r' = r * (2 - a*r)`. ≈ full f32 accuracy (≤ 2 ulp).
#[inline(always)]
pub fn recip_nr<S: Simd>(s: S, a: S::V) -> S::V {
    let r = s.recip_fast(a);
    s.mul(r, s.neg_mul_add(a, r, s.splat(2.0)))
}

/// Reciprocal square root refined with one Newton-Raphson step:
/// `r' = r * (1.5 - 0.5*a*r*r)`. ≈ full f32 accuracy (≤ 2 ulp).
#[inline(always)]
pub fn rsqrt_nr<S: Simd>(s: S, a: S::V) -> S::V {
    let r = s.rsqrt_fast(a);
    let half_a_r = s.mul(s.mul(s.splat(0.5), a), r);
    s.mul(r, s.neg_mul_add(half_a_r, r, s.splat(1.5)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::Scalar;

    fn rel_err(got: f32, want: f64) -> f64 {
        if want == 0.0 {
            got as f64
        } else {
            ((got as f64 - want) / want).abs()
        }
    }

    #[test]
    fn exp_accuracy_scalar() {
        let s = Scalar::new();
        let mut worst = 0.0f64;
        let mut x = -87.0f32;
        while x < 88.0 {
            let got = exp(s, x);
            let want = (x as f64).exp();
            worst = worst.max(rel_err(got, want));
            x += 0.037;
        }
        assert!(worst < 1e-6, "exp worst rel err {worst}");
    }

    #[test]
    fn exp_edge_cases() {
        let s = Scalar::new();
        assert_eq!(exp(s, 0.0), 1.0);
        assert!(exp(s, -100.0) < 1.2e-38);
        assert!(exp(s, 200.0).is_finite());
        assert!((exp(s, 1.0) - std::f32::consts::E).abs() < 1e-6);
    }

    #[inline(always)]
    fn exp_bounded_slice<S: Simd>(s: S, xs: &[f32], out: &mut [f32]) {
        for (x, y) in xs
            .chunks_exact(S::LANES)
            .zip(out.chunks_exact_mut(S::LANES))
        {
            s.store(exp_bounded(s, s.load(x)), y);
        }
    }

    /// Worst error of `exp_bounded` as `run` evaluates it over a slice, in
    /// ulps of the `f64` reference rounded to `f32`, over every `stride`-th
    /// float of the domain plus both endpoints.
    fn exp_bounded_worst_ulp(stride: usize, run: impl FnOnce(&[f32], &mut [f32])) -> f64 {
        // Bit patterns of the negative floats ascend from -0.0 to -2.6.
        let mut xs: Vec<f32> = ((-0.0f32).to_bits()..=EXP_BOUNDED_LO.to_bits())
            .step_by(stride)
            .map(f32::from_bits)
            .collect();
        xs.extend([0.0, EXP_BOUNDED_LO]);
        xs.resize(xs.len().next_multiple_of(crate::MAX_LANES), 0.0);
        let mut got = vec![0.0f32; xs.len()];
        run(&xs, &mut got);
        xs.iter()
            .zip(&got)
            .map(|(&x, &y)| {
                let want = (x as f64).exp();
                let w32 = want as f32;
                let ulp = (f32::from_bits(w32.to_bits() + 1) - w32) as f64;
                (y as f64 - want).abs() / ulp
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn exp_bounded_accuracy_all_levels() {
        for level in crate::SimdLevel::available() {
            // Two roundings per Horner step without a fused multiply-add.
            let fused = matches!(level, crate::SimdLevel::Avx2 | crate::SimdLevel::Avx512);
            let bound = if fused { 4.0 } else { 6.0 };
            let worst = exp_bounded_worst_ulp(997, |xs, got| {
                crate::dispatch!(level, |s| exp_bounded_slice(s, xs, got))
            });
            assert!(worst <= bound, "{level}: {worst} ulp");
        }
        // The fused one-lane token holds the fused levels' bound.
        let worst = exp_bounded_worst_ulp(997, |xs, got| {
            exp_bounded_slice(crate::OneLane::<true>::new(), xs, got)
        });
        assert!(worst <= 4.0, "fused one-lane: {worst} ulp");
    }

    #[test]
    fn exp_bounded_endpoints() {
        let s = Scalar::new();
        assert_eq!(exp_bounded(s, 0.0), 1.0);
        assert_eq!(exp_bounded(s, -0.0), 1.0);
        let lo = exp_bounded(s, EXP_BOUNDED_LO);
        assert!(rel_err(lo, (EXP_BOUNDED_LO as f64).exp()) < 3e-7, "{lo}");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exp_bounded argument outside")]
    fn exp_bounded_asserts_its_domain() {
        exp_bounded(Scalar::new(), -2.7);
    }

    #[test]
    fn log_accuracy_scalar() {
        let s = Scalar::new();
        let mut worst = 0.0f64;
        for i in 1..4000 {
            let x = i as f32 * 0.013;
            let got = log(s, x);
            let want = (x as f64).ln();
            let err = if want.abs() < 1e-3 {
                (got as f64 - want).abs()
            } else {
                rel_err(got, want)
            };
            worst = worst.max(err);
        }
        assert!(worst < 2e-6, "log worst err {worst}");
    }

    #[test]
    fn log_exp_roundtrip() {
        let s = Scalar::new();
        for i in 1..100 {
            let x = i as f32 * 0.7;
            let rt = exp(s, log(s, x));
            assert!((rt - x).abs() / x < 3e-6, "roundtrip {x} -> {rt}");
        }
    }

    #[test]
    fn newton_refinements() {
        let s = Scalar::new();
        for i in 1..50 {
            let a = i as f32 * 1.37;
            assert!((recip_nr(s, a) - 1.0 / a).abs() / (1.0 / a) < 1e-6);
            let rs = rsqrt_nr(s, a);
            assert!((rs - 1.0 / a.sqrt()).abs() * a.sqrt() < 1e-6);
        }
    }
}
