//! Scalar (1-lane) backend: the portable reference implementation.
//!
//! Every other backend is property-tested against this one. It also serves
//! as the fallback on targets without a vector ISA backend, in the same way
//! Google Highway provides `HWY_SCALAR`.
//!
//! The token comes in two flavours that differ in one operation pair,
//! `mul_add` / `neg_mul_add`:
//!
//! * [`Scalar`] = `OneLane<false>` rounds the product and the sum
//!   separately. It models what a compiler emits without FMA contraction
//!   and is the oracle level (`SimdLevel::Scalar`).
//! * `OneLane<true>` fuses them (`f32::mul_add`, one rounding). It models
//!   `-ffp-contract=fast` *inside an FMA frame*: a lane loop over it that
//!   the compiler vectorizes in a `#[target_feature(enable = "fma")]`
//!   region becomes packed `vfmadd`. Outside such a region it is still
//!   safe — `f32::mul_add` is then a (slow) libm `fmaf` call, never UB —
//!   which is why the fused token needs no proof of CPU support either.

use crate::traits::Simd;

/// One-lane token over plain `f32` / `i32` / `bool`. Always constructible:
/// neither flavour needs a CPU feature to be *sound* (module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OneLane<const FUSED: bool>;

/// The unfused one-lane token: the reference every other backend is tested
/// against.
pub type Scalar = OneLane<false>;

impl<const FUSED: bool> OneLane<FUSED> {
    #[inline(always)]
    pub fn new() -> Self {
        OneLane
    }
}

impl<const FUSED: bool> Simd for OneLane<FUSED> {
    const LANES: usize = 1;
    const NAME: &'static str = if FUSED { "scalar-fused" } else { "scalar" };
    const WIDTH_BITS: usize = 32;

    type V = f32;
    type VI = i32;
    type M = bool;

    #[inline(always)]
    fn vectorize<R, F: FnOnce(Self) -> R>(self, f: F) -> R {
        f(self)
    }

    #[inline(always)]
    fn splat(self, x: f32) -> f32 {
        x
    }
    #[inline(always)]
    fn splat_i32(self, x: i32) -> i32 {
        x
    }
    #[inline(always)]
    fn iota(self) -> f32 {
        0.0
    }

    #[inline(always)]
    fn load(self, src: &[f32]) -> f32 {
        src[0]
    }
    #[inline(always)]
    fn load_or(self, src: &[f32], fill: f32) -> f32 {
        src.first().copied().unwrap_or(fill)
    }
    #[inline(always)]
    fn load_i32(self, src: &[i32]) -> i32 {
        src[0]
    }
    #[inline(always)]
    fn store(self, v: f32, dst: &mut [f32]) {
        dst[0] = v;
    }
    #[inline(always)]
    fn store_i32(self, v: i32, dst: &mut [i32]) {
        dst[0] = v;
    }

    #[inline(always)]
    fn add(self, a: f32, b: f32) -> f32 {
        a + b
    }
    #[inline(always)]
    fn sub(self, a: f32, b: f32) -> f32 {
        a - b
    }
    #[inline(always)]
    fn mul(self, a: f32, b: f32) -> f32 {
        a * b
    }
    #[inline(always)]
    fn div(self, a: f32, b: f32) -> f32 {
        a / b
    }
    #[inline(always)]
    fn min(self, a: f32, b: f32) -> f32 {
        // IEEE minps semantics: returns b if either is NaN.
        if a < b {
            a
        } else {
            b
        }
    }
    #[inline(always)]
    fn max(self, a: f32, b: f32) -> f32 {
        if a > b {
            a
        } else {
            b
        }
    }
    #[inline(always)]
    fn mul_add(self, a: f32, b: f32, c: f32) -> f32 {
        if FUSED {
            a.mul_add(b, c)
        } else {
            // Plain mul+add rather than f32::mul_add: `Scalar` models
            // what a compiler emits without FMA contraction, and
            // f32::mul_add lowers to a libm call on targets without fused
            // hardware.
            a * b + c
        }
    }
    #[inline(always)]
    fn neg_mul_add(self, a: f32, b: f32, c: f32) -> f32 {
        if FUSED {
            (-a).mul_add(b, c)
        } else {
            c - a * b
        }
    }
    #[inline(always)]
    fn neg(self, a: f32) -> f32 {
        -a
    }
    #[inline(always)]
    fn abs(self, a: f32) -> f32 {
        a.abs()
    }
    #[inline(always)]
    fn sqrt(self, a: f32) -> f32 {
        a.sqrt()
    }
    #[inline(always)]
    fn recip_fast(self, a: f32) -> f32 {
        1.0 / a
    }
    #[inline(always)]
    fn rsqrt_fast(self, a: f32) -> f32 {
        1.0 / a.sqrt()
    }

    #[inline(always)]
    fn lt(self, a: f32, b: f32) -> bool {
        a < b
    }
    #[inline(always)]
    fn le(self, a: f32, b: f32) -> bool {
        a <= b
    }
    #[inline(always)]
    fn gt(self, a: f32, b: f32) -> bool {
        a > b
    }
    #[inline(always)]
    fn ge(self, a: f32, b: f32) -> bool {
        a >= b
    }
    #[inline(always)]
    fn select(self, m: bool, t: f32, f: f32) -> f32 {
        if m {
            t
        } else {
            f
        }
    }
    #[inline(always)]
    fn mask_and(self, a: bool, b: bool) -> bool {
        a && b
    }
    #[inline(always)]
    fn mask_or(self, a: bool, b: bool) -> bool {
        a || b
    }
    #[inline(always)]
    fn any(self, m: bool) -> bool {
        m
    }
    #[inline(always)]
    fn all(self, m: bool) -> bool {
        m
    }

    #[inline(always)]
    fn round_i32(self, v: f32) -> i32 {
        // round-to-nearest-even, matching cvtps2dq under default MXCSR.
        let r = v.round_ties_even();
        r as i32
    }
    #[inline(always)]
    fn trunc_i32(self, v: f32) -> i32 {
        v as i32
    }
    #[inline(always)]
    fn i32_to_f32(self, v: i32) -> f32 {
        v as f32
    }
    #[inline(always)]
    fn bitcast_f32_i32(self, v: f32) -> i32 {
        v.to_bits() as i32
    }
    #[inline(always)]
    fn bitcast_i32_f32(self, v: i32) -> f32 {
        f32::from_bits(v as u32)
    }
    #[inline(always)]
    fn i32_add(self, a: i32, b: i32) -> i32 {
        a.wrapping_add(b)
    }
    #[inline(always)]
    fn i32_sub(self, a: i32, b: i32) -> i32 {
        a.wrapping_sub(b)
    }
    #[inline(always)]
    fn i32_and(self, a: i32, b: i32) -> i32 {
        a & b
    }
    #[inline(always)]
    fn i32_shl<const IMM: i32>(self, a: i32) -> i32 {
        ((a as u32) << IMM as u32) as i32
    }
    #[inline(always)]
    fn i32_shr<const IMM: i32>(self, a: i32) -> i32 {
        ((a as u32) >> IMM as u32) as i32
    }

    #[inline(always)]
    unsafe fn gather_unchecked(self, table: &[f32], idx: i32) -> f32 {
        debug_assert!((idx as usize) < table.len());
        *table.get_unchecked(idx as usize)
    }

    #[inline(always)]
    fn reduce_add(self, v: f32) -> f32 {
        v
    }
    #[inline(always)]
    fn reduce_min(self, v: f32) -> f32 {
        v
    }
    #[inline(always)]
    fn reduce_max(self, v: f32) -> f32 {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let s = Scalar::new();
        assert_eq!(s.add(1.0, 2.0), 3.0);
        assert_eq!(s.mul_add(2.0, 3.0, 4.0), 10.0);
        assert_eq!(s.select(true, 1.0, 2.0), 1.0);
        assert_eq!(s.select(false, 1.0, 2.0), 2.0);
        assert_eq!(s.reduce_add(5.0), 5.0);
    }

    #[test]
    fn the_fused_token_rounds_once() {
        // a² = 1 + 2⁻¹¹ + 2⁻²⁴ exactly; f32 rounds the last term away
        // (spacing above 1 is 2⁻²³). Adding c = −(1 + 2⁻¹¹) after that
        // rounding gives 0; fused, the 2⁻²⁴ survives.
        let a = 1.0 + 2f32.powi(-12);
        let c = -(1.0 + 2f32.powi(-11));
        let lost = 2f32.powi(-24);
        assert_eq!(a * a + c, 0.0, "the triple rounds twice unfused");
        assert_eq!(Scalar::new().mul_add(a, a, c), 0.0);
        assert_eq!(OneLane::<true>::new().mul_add(a, a, c), lost);
        assert_eq!(Scalar::new().neg_mul_add(a, a, -c), 0.0);
        assert_eq!(OneLane::<true>::new().neg_mul_add(a, a, -c), -lost);
    }

    #[test]
    fn rounding_is_nearest_even() {
        let s = Scalar::new();
        assert_eq!(s.round_i32(0.5), 0);
        assert_eq!(s.round_i32(1.5), 2);
        assert_eq!(s.round_i32(2.5), 2);
        assert_eq!(s.round_i32(-0.5), 0);
        assert_eq!(s.round_i32(-1.5), -2);
    }

    #[test]
    fn shifts() {
        let s = Scalar::new();
        assert_eq!(s.i32_shl::<23>(1), 1 << 23);
        assert_eq!(s.i32_shr::<23>(127 << 23), 127);
    }

    #[test]
    fn gather_checked() {
        let s = Scalar::new();
        let table = [10.0f32, 20.0, 30.0];
        assert_eq!(s.gather(&table, 2), 30.0);
    }

    #[test]
    #[should_panic]
    fn gather_oob_panics() {
        let s = Scalar::new();
        let table = [10.0f32];
        let _ = s.gather(&table, 3);
    }
}
