//! AVX2+FMA backend: 256-bit vectors, 8 × f32 lanes, fused multiply-add and
//! hardware gathers.
//!
//! This is the width that LLVM's cost model prefers on Sapphire Rapids (the
//! "256-bit cap" discussed in Section VIII-a of the paper); the AVX-512
//! backend models what Highway does by explicitly emitting full-width code.

use core::arch::x86_64::*;

use crate::traits::Simd;

/// AVX2+FMA proof token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Avx2 {
    _priv: (),
}

impl Avx2 {
    /// Returns a token iff the CPU supports both AVX2 and FMA.
    #[inline]
    pub fn try_new() -> Option<Self> {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            Some(Avx2 { _priv: () })
        } else {
            None
        }
    }
}

impl Simd for Avx2 {
    const LANES: usize = 8;
    const NAME: &'static str = "avx2";

    type V = __m256;
    type VI = __m256i;
    type M = __m256;

    #[inline]
    fn vectorize<R, F: FnOnce(Self) -> R>(self, f: F) -> R {
        #[target_feature(enable = "avx2,fma")]
        #[inline]
        unsafe fn inner<R, F: FnOnce(Avx2) -> R>(s: Avx2, f: F) -> R {
            f(s)
        }
        // SAFETY: token existence proves AVX2+FMA support.
        unsafe { inner(self, f) }
    }

    #[inline(always)]
    fn splat(self, x: f32) -> __m256 {
        unsafe { _mm256_set1_ps(x) }
    }
    #[inline(always)]
    fn splat_i32(self, x: i32) -> __m256i {
        unsafe { _mm256_set1_epi32(x) }
    }

    #[inline(always)]
    fn load(self, src: &[f32]) -> __m256 {
        assert!(src.len() >= 8, "load needs at least 8 elements");
        unsafe { _mm256_loadu_ps(src.as_ptr()) }
    }
    #[inline(always)]
    fn load_or(self, src: &[f32], fill: f32) -> __m256 {
        if src.len() >= 8 {
            unsafe { _mm256_loadu_ps(src.as_ptr()) }
        } else {
            let mut buf = [fill; 8];
            buf[..src.len()].copy_from_slice(src);
            unsafe { _mm256_loadu_ps(buf.as_ptr()) }
        }
    }
    #[inline(always)]
    fn load_i32(self, src: &[i32]) -> __m256i {
        assert!(src.len() >= 8, "load_i32 needs at least 8 elements");
        unsafe { _mm256_loadu_si256(src.as_ptr() as *const __m256i) }
    }
    #[inline(always)]
    fn store(self, v: __m256, dst: &mut [f32]) {
        assert!(dst.len() >= 8, "store needs at least 8 elements");
        unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), v) }
    }
    #[inline(always)]
    fn store_i32(self, v: __m256i, dst: &mut [i32]) {
        assert!(dst.len() >= 8, "store_i32 needs at least 8 elements");
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr() as *mut __m256i, v) }
    }

    #[inline(always)]
    fn add(self, a: __m256, b: __m256) -> __m256 {
        unsafe { _mm256_add_ps(a, b) }
    }
    #[inline(always)]
    fn sub(self, a: __m256, b: __m256) -> __m256 {
        unsafe { _mm256_sub_ps(a, b) }
    }
    #[inline(always)]
    fn mul(self, a: __m256, b: __m256) -> __m256 {
        unsafe { _mm256_mul_ps(a, b) }
    }
    #[inline(always)]
    fn min(self, a: __m256, b: __m256) -> __m256 {
        unsafe { _mm256_min_ps(a, b) }
    }
    #[inline(always)]
    fn max(self, a: __m256, b: __m256) -> __m256 {
        unsafe { _mm256_max_ps(a, b) }
    }
    #[inline(always)]
    fn mul_add(self, a: __m256, b: __m256, c: __m256) -> __m256 {
        unsafe { _mm256_fmadd_ps(a, b, c) }
    }
    #[inline(always)]
    fn neg_mul_add(self, a: __m256, b: __m256, c: __m256) -> __m256 {
        unsafe { _mm256_fnmadd_ps(a, b, c) }
    }
    #[inline(always)]
    fn neg(self, a: __m256) -> __m256 {
        unsafe { _mm256_xor_ps(a, _mm256_set1_ps(-0.0)) }
    }
    #[inline(always)]
    fn abs(self, a: __m256) -> __m256 {
        unsafe { _mm256_andnot_ps(_mm256_set1_ps(-0.0), a) }
    }
    #[inline(always)]
    fn sqrt(self, a: __m256) -> __m256 {
        unsafe { _mm256_sqrt_ps(a) }
    }
    #[inline(always)]
    fn recip_fast(self, a: __m256) -> __m256 {
        unsafe { _mm256_rcp_ps(a) }
    }
    #[inline(always)]
    fn rsqrt_fast(self, a: __m256) -> __m256 {
        unsafe { _mm256_rsqrt_ps(a) }
    }

    #[inline(always)]
    fn lt(self, a: __m256, b: __m256) -> __m256 {
        unsafe { _mm256_cmp_ps::<_CMP_LT_OQ>(a, b) }
    }
    #[inline(always)]
    fn le(self, a: __m256, b: __m256) -> __m256 {
        unsafe { _mm256_cmp_ps::<_CMP_LE_OQ>(a, b) }
    }
    #[inline(always)]
    fn gt(self, a: __m256, b: __m256) -> __m256 {
        unsafe { _mm256_cmp_ps::<_CMP_GT_OQ>(a, b) }
    }
    #[inline(always)]
    fn ge(self, a: __m256, b: __m256) -> __m256 {
        unsafe { _mm256_cmp_ps::<_CMP_GE_OQ>(a, b) }
    }
    #[inline(always)]
    fn select(self, m: __m256, t: __m256, f: __m256) -> __m256 {
        unsafe { _mm256_blendv_ps(f, t, m) }
    }
    #[inline(always)]
    fn mask_and(self, a: __m256, b: __m256) -> __m256 {
        unsafe { _mm256_and_ps(a, b) }
    }
    #[inline(always)]
    fn any(self, m: __m256) -> bool {
        unsafe { _mm256_movemask_ps(m) != 0 }
    }
    #[inline(always)]
    fn all(self, m: __m256) -> bool {
        unsafe { _mm256_movemask_ps(m) == 0xFF }
    }

    #[inline(always)]
    fn round_i32(self, v: __m256) -> __m256i {
        unsafe { _mm256_cvtps_epi32(v) }
    }
    #[inline(always)]
    fn trunc_i32(self, v: __m256) -> __m256i {
        unsafe { _mm256_cvttps_epi32(v) }
    }
    #[inline(always)]
    fn i32_to_f32(self, v: __m256i) -> __m256 {
        unsafe { _mm256_cvtepi32_ps(v) }
    }
    #[inline(always)]
    fn bitcast_f32_i32(self, v: __m256) -> __m256i {
        unsafe { _mm256_castps_si256(v) }
    }
    #[inline(always)]
    fn bitcast_i32_f32(self, v: __m256i) -> __m256 {
        unsafe { _mm256_castsi256_ps(v) }
    }
    #[inline(always)]
    fn i32_add(self, a: __m256i, b: __m256i) -> __m256i {
        unsafe { _mm256_add_epi32(a, b) }
    }
    #[inline(always)]
    fn i32_sub(self, a: __m256i, b: __m256i) -> __m256i {
        unsafe { _mm256_sub_epi32(a, b) }
    }
    #[inline(always)]
    fn i32_and(self, a: __m256i, b: __m256i) -> __m256i {
        unsafe { _mm256_and_si256(a, b) }
    }
    #[inline(always)]
    fn i32_shl<const IMM: i32>(self, a: __m256i) -> __m256i {
        unsafe { _mm256_slli_epi32::<IMM>(a) }
    }
    #[inline(always)]
    fn i32_shr<const IMM: i32>(self, a: __m256i) -> __m256i {
        unsafe { _mm256_srli_epi32::<IMM>(a) }
    }

    #[inline(always)]
    unsafe fn gather_unchecked(self, table: &[f32], idx: __m256i) -> __m256 {
        #[cfg(debug_assertions)]
        {
            let mut ix = [0i32; 8];
            _mm256_storeu_si256(ix.as_mut_ptr() as *mut __m256i, idx);
            debug_assert!(ix.iter().all(|&i| i >= 0 && (i as usize) < table.len()));
        }
        _mm256_i32gather_ps::<4>(table.as_ptr(), idx)
    }

    #[inline(always)]
    unsafe fn gather_pair_unchecked(self, table: &[f32], idx: __m256i) -> (__m256, __m256) {
        #[cfg(debug_assertions)]
        {
            let mut ix = [0i32; 8];
            _mm256_storeu_si256(ix.as_mut_ptr() as *mut __m256i, idx);
            debug_assert!(ix.iter().all(|&i| i >= 0 && (i as usize) + 1 < table.len()));
        }
        // One 8-byte load per lane at byte offset 4·idx: floats `idx` and
        // `idx + 1`, both inside `table` by the caller's contract. Hardware
        // gathers have no alignment requirement, and the `*const f64` is
        // only ever handed to the instruction, never dereferenced by Rust.
        let base = table.as_ptr() as *const f64;
        let lo = _mm256_castsi256_si128(idx);
        let hi = _mm256_extracti128_si256::<1>(idx);
        let a = _mm256_castpd_ps(_mm256_i32gather_pd::<4>(base, lo));
        let b = _mm256_castpd_ps(_mm256_i32gather_pd::<4>(base, hi));
        // a = [t0 t0' t1 t1' | t2 t2' t3 t3'], b likewise for lanes 4–7.
        // shufps picks per 128-bit half, leaving the 64-bit quarters in
        // the order 0 2 1 3, which vpermpd undoes.
        let even = _mm256_castps_pd(_mm256_shuffle_ps::<0b10_00_10_00>(a, b));
        let odd = _mm256_castps_pd(_mm256_shuffle_ps::<0b11_01_11_01>(a, b));
        (
            _mm256_castpd_ps(_mm256_permute4x64_pd::<0b11_01_10_00>(even)),
            _mm256_castpd_ps(_mm256_permute4x64_pd::<0b11_01_10_00>(odd)),
        )
    }

    #[inline(always)]
    fn reduce_add(self, v: __m256) -> f32 {
        unsafe {
            let lo = _mm256_castps256_ps128(v);
            let hi = _mm256_extractf128_ps::<1>(v);
            let s = _mm_add_ps(lo, hi);
            let sh = _mm_movehl_ps(s, s);
            let s2 = _mm_add_ps(s, sh);
            let lane1 = _mm_shuffle_ps::<0b01>(s2, s2);
            _mm_cvtss_f32(_mm_add_ss(s2, lane1))
        }
    }
}
