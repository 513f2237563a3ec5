//! AVX-512F backend: 512-bit vectors, 16 × f32 lanes, predicate masks.
//!
//! This is the full-width path Highway takes on Sapphire Rapids and that the
//! compilers' cost models avoid (Section VIII-a): explicitly emitting 512-bit
//! instructions is what gives HWY the win on SPR in the paper.

use core::arch::x86_64::*;

use crate::traits::Simd;

/// AVX-512F proof token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Avx512 {
    _priv: (),
}

impl Avx512 {
    /// Returns a token iff the CPU supports AVX-512F.
    #[inline]
    pub fn try_new() -> Option<Self> {
        if std::arch::is_x86_feature_detected!("avx512f") {
            Some(Avx512 { _priv: () })
        } else {
            None
        }
    }
}

impl Simd for Avx512 {
    const LANES: usize = 16;
    const NAME: &'static str = "avx512";
    const TABLE_LANES: usize = 32;

    type V = __m512;
    type VI = __m512i;
    type M = __mmask16;

    #[inline]
    fn vectorize<R, F: FnOnce(Self) -> R>(self, f: F) -> R {
        #[target_feature(enable = "avx512f")]
        #[inline]
        unsafe fn inner<R, F: FnOnce(Avx512) -> R>(s: Avx512, f: F) -> R {
            f(s)
        }
        // SAFETY: token existence proves AVX-512F support.
        unsafe { inner(self, f) }
    }

    #[inline(always)]
    fn splat(self, x: f32) -> __m512 {
        unsafe { _mm512_set1_ps(x) }
    }
    #[inline(always)]
    fn splat_i32(self, x: i32) -> __m512i {
        unsafe { _mm512_set1_epi32(x) }
    }

    #[inline(always)]
    fn load(self, src: &[f32]) -> __m512 {
        assert!(src.len() >= 16, "load needs at least 16 elements");
        unsafe { _mm512_loadu_ps(src.as_ptr()) }
    }
    #[inline(always)]
    fn load_or(self, src: &[f32], fill: f32) -> __m512 {
        if src.len() >= 16 {
            unsafe { _mm512_loadu_ps(src.as_ptr()) }
        } else {
            let mut buf = [fill; 16];
            buf[..src.len()].copy_from_slice(src);
            unsafe { _mm512_loadu_ps(buf.as_ptr()) }
        }
    }
    #[inline(always)]
    fn load_i32(self, src: &[i32]) -> __m512i {
        assert!(src.len() >= 16, "load_i32 needs at least 16 elements");
        unsafe { _mm512_loadu_si512(src.as_ptr() as *const __m512i) }
    }
    #[inline(always)]
    fn store(self, v: __m512, dst: &mut [f32]) {
        assert!(dst.len() >= 16, "store needs at least 16 elements");
        unsafe { _mm512_storeu_ps(dst.as_mut_ptr(), v) }
    }
    #[inline(always)]
    fn store_i32(self, v: __m512i, dst: &mut [i32]) {
        assert!(dst.len() >= 16, "store_i32 needs at least 16 elements");
        unsafe { _mm512_storeu_si512(dst.as_mut_ptr() as *mut __m512i, v) }
    }

    #[inline(always)]
    fn add(self, a: __m512, b: __m512) -> __m512 {
        unsafe { _mm512_add_ps(a, b) }
    }
    #[inline(always)]
    fn sub(self, a: __m512, b: __m512) -> __m512 {
        unsafe { _mm512_sub_ps(a, b) }
    }
    #[inline(always)]
    fn mul(self, a: __m512, b: __m512) -> __m512 {
        unsafe { _mm512_mul_ps(a, b) }
    }
    #[inline(always)]
    fn min(self, a: __m512, b: __m512) -> __m512 {
        unsafe { _mm512_min_ps(a, b) }
    }
    #[inline(always)]
    fn max(self, a: __m512, b: __m512) -> __m512 {
        unsafe { _mm512_max_ps(a, b) }
    }
    #[inline(always)]
    fn mul_add(self, a: __m512, b: __m512, c: __m512) -> __m512 {
        unsafe { _mm512_fmadd_ps(a, b, c) }
    }
    #[inline(always)]
    fn neg_mul_add(self, a: __m512, b: __m512, c: __m512) -> __m512 {
        unsafe { _mm512_fnmadd_ps(a, b, c) }
    }
    #[inline(always)]
    fn neg(self, a: __m512) -> __m512 {
        unsafe { _mm512_sub_ps(_mm512_setzero_ps(), a) }
    }
    #[inline(always)]
    fn abs(self, a: __m512) -> __m512 {
        unsafe { _mm512_abs_ps(a) }
    }
    #[inline(always)]
    fn sqrt(self, a: __m512) -> __m512 {
        unsafe { _mm512_sqrt_ps(a) }
    }
    #[inline(always)]
    fn recip_fast(self, a: __m512) -> __m512 {
        unsafe { _mm512_rcp14_ps(a) }
    }
    #[inline(always)]
    fn rsqrt_fast(self, a: __m512) -> __m512 {
        unsafe { _mm512_rsqrt14_ps(a) }
    }

    #[inline(always)]
    fn lt(self, a: __m512, b: __m512) -> __mmask16 {
        unsafe { _mm512_cmp_ps_mask::<_CMP_LT_OQ>(a, b) }
    }
    #[inline(always)]
    fn le(self, a: __m512, b: __m512) -> __mmask16 {
        unsafe { _mm512_cmp_ps_mask::<_CMP_LE_OQ>(a, b) }
    }
    #[inline(always)]
    fn gt(self, a: __m512, b: __m512) -> __mmask16 {
        unsafe { _mm512_cmp_ps_mask::<_CMP_GT_OQ>(a, b) }
    }
    #[inline(always)]
    fn ge(self, a: __m512, b: __m512) -> __mmask16 {
        unsafe { _mm512_cmp_ps_mask::<_CMP_GE_OQ>(a, b) }
    }
    #[inline(always)]
    fn select(self, m: __mmask16, t: __m512, f: __m512) -> __m512 {
        unsafe { _mm512_mask_blend_ps(m, f, t) }
    }
    #[inline(always)]
    fn mask_and(self, a: __mmask16, b: __mmask16) -> __mmask16 {
        a & b
    }
    #[inline(always)]
    fn any(self, m: __mmask16) -> bool {
        m != 0
    }
    #[inline(always)]
    fn all(self, m: __mmask16) -> bool {
        m == 0xFFFF
    }

    #[inline(always)]
    fn round_i32(self, v: __m512) -> __m512i {
        unsafe { _mm512_cvtps_epi32(v) }
    }
    #[inline(always)]
    fn trunc_i32(self, v: __m512) -> __m512i {
        unsafe { _mm512_cvttps_epi32(v) }
    }
    #[inline(always)]
    fn i32_to_f32(self, v: __m512i) -> __m512 {
        unsafe { _mm512_cvtepi32_ps(v) }
    }
    #[inline(always)]
    fn bitcast_f32_i32(self, v: __m512) -> __m512i {
        unsafe { _mm512_castps_si512(v) }
    }
    #[inline(always)]
    fn bitcast_i32_f32(self, v: __m512i) -> __m512 {
        unsafe { _mm512_castsi512_ps(v) }
    }
    #[inline(always)]
    fn i32_add(self, a: __m512i, b: __m512i) -> __m512i {
        unsafe { _mm512_add_epi32(a, b) }
    }
    #[inline(always)]
    fn i32_sub(self, a: __m512i, b: __m512i) -> __m512i {
        unsafe { _mm512_sub_epi32(a, b) }
    }
    #[inline(always)]
    fn i32_and(self, a: __m512i, b: __m512i) -> __m512i {
        unsafe { _mm512_and_si512(a, b) }
    }
    #[inline(always)]
    fn i32_shl<const IMM: i32>(self, a: __m512i) -> __m512i {
        // The AVX-512 immediate-shift intrinsics take `u32` immediates, which
        // a `const IMM: i32` generic cannot feed on stable Rust; the variable
        // shift lowers to the same single instruction with a broadcast count.
        unsafe { _mm512_sllv_epi32(a, _mm512_set1_epi32(IMM)) }
    }
    #[inline(always)]
    fn i32_shr<const IMM: i32>(self, a: __m512i) -> __m512i {
        unsafe { _mm512_srlv_epi32(a, _mm512_set1_epi32(IMM)) }
    }

    #[inline(always)]
    unsafe fn gather_unchecked(self, table: &[f32], idx: __m512i) -> __m512 {
        #[cfg(debug_assertions)]
        {
            let mut ix = [0i32; 16];
            _mm512_storeu_si512(ix.as_mut_ptr() as *mut __m512i, idx);
            debug_assert!(ix.iter().all(|&i| i >= 0 && (i as usize) < table.len()));
        }
        _mm512_i32gather_ps::<4>(idx, table.as_ptr())
    }

    #[inline(always)]
    unsafe fn gather_pair_unchecked(self, table: &[f32], idx: __m512i) -> (__m512, __m512) {
        #[cfg(debug_assertions)]
        {
            let mut ix = [0i32; 16];
            _mm512_storeu_si512(ix.as_mut_ptr() as *mut __m512i, idx);
            debug_assert!(ix.iter().all(|&i| i >= 0 && (i as usize) + 1 < table.len()));
        }
        // One 8-byte load per lane at byte offset 4·idx: floats `idx` and
        // `idx + 1`, both inside `table` by the caller's contract. Hardware
        // gathers have no alignment requirement, and the `*const f64` is
        // only ever handed to the instruction, never dereferenced by Rust.
        let base = table.as_ptr() as *const f64;
        let lo = _mm512_castsi512_si256(idx);
        let hi = _mm512_extracti64x4_epi64::<1>(idx);
        let a = _mm512_castpd_ps(_mm512_i32gather_pd::<4>(lo, base));
        let b = _mm512_castpd_ps(_mm512_i32gather_pd::<4>(hi, base));
        // a ‖ b = [t(i0) t(i0+1) t(i1) t(i1+1) …]: evens are `table[idx]`.
        let even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
        let odd = _mm512_setr_epi32(1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31);
        (
            _mm512_permutex2var_ps(a, even, b),
            _mm512_permutex2var_ps(a, odd, b),
        )
    }

    #[inline(always)]
    fn lookup2(self, lo: __m512, hi: __m512, idx: __m512i) -> __m512 {
        // vpermi2ps reads bits 0–3 as the lane and bit 4 as the source
        // register, and ignores the rest: the documented wrap.
        unsafe { _mm512_permutex2var_ps(lo, idx, hi) }
    }

    #[inline(always)]
    fn reduce_add(self, v: __m512) -> f32 {
        unsafe { _mm512_reduce_add_ps(v) }
    }
}
