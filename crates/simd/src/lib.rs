//! # mudock-simd — portable explicit SIMD (the Google Highway analogue)
//!
//! The reproduced paper (CLUSTER 2025) compares *compiler auto-vectorization*
//! of a single scalar codebase against *explicit vectorization* through
//! Google Highway. This crate plays Highway's role for the Rust
//! reproduction:
//!
//! * a width-generic [`Simd`] trait with backends for scalar, SSE2 (128-bit),
//!   AVX2+FMA (256-bit) and AVX-512F (512-bit) — selected at **runtime** via
//!   [`SimdLevel::detect`], so one binary adapts to the host CPU exactly like
//!   Highway's dynamic dispatch;
//! * vector math ([`math::exp`], [`math::log`], …) standing in for
//!   libmvec/ArmPL/SLEEF, because the paper shows vectorized math libraries
//!   are the decisive portability factor;
//! * a [`dispatch!`] macro that instantiates an `#[inline(always)]` kernel
//!   once per backend inside a `#[target_feature]` region.
//!
//! Soundness model: backend tokens ([`Sse2`], [`Avx2`], [`Avx512`]) are
//! zero-sized proofs of CPU support, only constructible through feature
//! detection (or `unsafe`). Every intrinsic call is therefore safe behind
//! the token.
//!
//! ## Quick example
//!
//! ```
//! use mudock_simd::{dispatch, math, Simd, SimdLevel};
//!
//! #[inline(always)]
//! fn softmax_denominator<S: Simd>(s: S, xs: &[f32]) -> f32 {
//!     let mut acc = s.splat(0.0);
//!     let mut it = xs.chunks_exact(S::LANES);
//!     for c in it.by_ref() {
//!         acc = s.add(acc, math::exp(s, s.load(c)));
//!     }
//!     let mut total = s.reduce_add(acc);
//!     for &x in it.remainder() {
//!         total += x.exp();
//!     }
//!     total
//! }
//!
//! let xs = vec![0.5f32; 100];
//! let z = dispatch!(SimdLevel::detect(), |s| softmax_denominator(s, &xs));
//! assert!((z - 100.0 * 0.5f32.exp()).abs() < 1e-3);
//! ```

pub mod math;
pub mod ops;
pub mod scalar;
pub mod traits;

#[cfg(target_arch = "x86_64")]
pub mod x86 {
    pub mod avx2;
    pub mod avx512;
    pub mod sse2;
}

pub use scalar::{OneLane, Scalar};
pub use traits::Simd;
#[cfg(target_arch = "x86_64")]
pub use x86::{avx2::Avx2, avx512::Avx512, sse2::Sse2};

/// Maximum lane count across all backends (AVX-512: 16 × f32).
pub const MAX_LANES: usize = 16;

/// The vector instruction-set levels this crate can target, ordered from
/// narrowest to widest.
///
/// This is the Rust-side analogue of Highway's `HWY_TARGETS`: the level is a
/// *runtime* choice, so experiments can pin a level (`--simd=sse2`) or take
/// the best the host offers ([`SimdLevel::detect`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// Plain scalar f32 code (1 lane). Portable reference.
    Scalar,
    /// SSE2: 128-bit, 4 lanes, no FMA (the x86-64 baseline).
    Sse2,
    /// AVX2 + FMA: 256-bit, 8 lanes.
    Avx2,
    /// AVX-512F: 512-bit, 16 lanes.
    Avx512,
}

impl SimdLevel {
    /// All levels, narrowest first.
    pub const ALL: [SimdLevel; 4] = [
        SimdLevel::Scalar,
        SimdLevel::Sse2,
        SimdLevel::Avx2,
        SimdLevel::Avx512,
    ];

    /// Pick the widest level supported by the host CPU.
    pub fn detect() -> SimdLevel {
        #[cfg(target_arch = "x86_64")]
        {
            if x86::avx512::Avx512::try_new().is_some() {
                return SimdLevel::Avx512;
            }
            if x86::avx2::Avx2::try_new().is_some() {
                return SimdLevel::Avx2;
            }
            SimdLevel::Sse2
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            SimdLevel::Scalar
        }
    }

    /// Is this level usable on the current host?
    pub fn is_supported(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            match self {
                SimdLevel::Scalar => true,
                SimdLevel::Sse2 => x86::sse2::Sse2::try_new().is_some(),
                SimdLevel::Avx2 => x86::avx2::Avx2::try_new().is_some(),
                SimdLevel::Avx512 => x86::avx512::Avx512::try_new().is_some(),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            matches!(self, SimdLevel::Scalar)
        }
    }

    /// Every level supported on this host, narrowest first.
    pub fn available() -> Vec<SimdLevel> {
        Self::ALL.into_iter().filter(|l| l.is_supported()).collect()
    }

    /// f32 lanes per vector at this level.
    pub fn lanes(self) -> usize {
        match self {
            SimdLevel::Scalar => 1,
            SimdLevel::Sse2 => 4,
            SimdLevel::Avx2 => 8,
            SimdLevel::Avx512 => 16,
        }
    }

    /// Register width in bits.
    pub fn width_bits(self) -> usize {
        self.lanes() * 32
    }

    /// Short lowercase name (`"avx2"`, …).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }

    /// Parse a level name as used on experiment command lines.
    pub fn parse(name: &str) -> Option<SimdLevel> {
        match name.to_ascii_lowercase().as_str() {
            "scalar" => Some(SimdLevel::Scalar),
            "sse2" | "sse" | "128" => Some(SimdLevel::Sse2),
            "avx2" | "256" => Some(SimdLevel::Avx2),
            "avx512" | "avx-512" | "512" => Some(SimdLevel::Avx512),
            _ => None,
        }
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Instantiate a width-generic kernel at a runtime-selected [`SimdLevel`].
///
/// `$body` is evaluated with `$s` bound to the backend token, inside that
/// backend's `#[target_feature]` region, once per possible level
/// (monomorphized). Panics if the requested level is not supported by the
/// host CPU.
///
/// The closure wrapping `$body` is `#[inline(always)]`: left to the
/// inliner's size heuristic, a large kernel's closure stays a function of
/// its own *outside* the `#[target_feature]` frame, and every intrinsic in
/// it becomes a call (measured: 20× on the AVX-512 intra kernel).
///
/// ```
/// use mudock_simd::{dispatch, Simd, SimdLevel};
///
/// #[inline(always)]
/// fn dot<S: Simd>(s: S, a: &[f32], b: &[f32]) -> f32 {
///     let mut acc = s.splat(0.0);
///     let n = a.len() / S::LANES * S::LANES;
///     for (ca, cb) in a[..n].chunks_exact(S::LANES).zip(b[..n].chunks_exact(S::LANES)) {
///         acc = s.mul_add(s.load(ca), s.load(cb), acc);
///     }
///     let mut t = s.reduce_add(acc);
///     for i in n..a.len() {
///         t += a[i] * b[i];
///     }
///     t
/// }
///
/// let a = vec![2.0f32; 37];
/// let b = vec![3.0f32; 37];
/// for level in SimdLevel::available() {
///     let d = dispatch!(level, |s| dot(s, &a, &b));
///     assert_eq!(d, 2.0 * 3.0 * 37.0);
/// }
/// ```
#[macro_export]
macro_rules! dispatch {
    (@in $tok:expr, |$s:ident| $body:expr) => {
        $crate::Simd::vectorize($tok, #[inline(always)] |$s| $body)
    };
    ($level:expr, |$s:ident| $body:expr) => {{
        match $level {
            $crate::SimdLevel::Scalar => {
                let tok = $crate::Scalar::new();
                $crate::dispatch!(@in tok, |$s| $body)
            }
            #[cfg(target_arch = "x86_64")]
            $crate::SimdLevel::Sse2 => {
                let tok = $crate::Sse2::try_new().expect("SSE2 unsupported on this CPU");
                $crate::dispatch!(@in tok, |$s| $body)
            }
            #[cfg(target_arch = "x86_64")]
            $crate::SimdLevel::Avx2 => {
                let tok = $crate::Avx2::try_new().expect("AVX2+FMA unsupported on this CPU");
                $crate::dispatch!(@in tok, |$s| $body)
            }
            #[cfg(target_arch = "x86_64")]
            $crate::SimdLevel::Avx512 => {
                let tok = $crate::Avx512::try_new().expect("AVX-512F unsupported on this CPU");
                $crate::dispatch!(@in tok, |$s| $body)
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => {
                let tok = $crate::Scalar::new();
                $crate::dispatch!(@in tok, |$s| $body)
            }
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_returns_supported_level() {
        let l = SimdLevel::detect();
        assert!(l.is_supported());
        // Detection picks the widest available level.
        for wider in SimdLevel::ALL.iter().filter(|w| **w > l) {
            assert!(!wider.is_supported());
        }
    }

    #[test]
    fn available_is_monotone_prefix() {
        let avail = SimdLevel::available();
        assert!(avail.contains(&SimdLevel::Scalar));
        // Sorted narrowest-first.
        let mut sorted = avail.clone();
        sorted.sort();
        assert_eq!(avail, sorted);
    }

    #[test]
    fn names_roundtrip() {
        for l in SimdLevel::ALL {
            assert_eq!(SimdLevel::parse(l.name()), Some(l));
        }
        assert_eq!(SimdLevel::parse("AVX2"), Some(SimdLevel::Avx2));
        assert_eq!(SimdLevel::parse("bogus"), None);
    }

    #[test]
    fn lanes_and_width() {
        assert_eq!(SimdLevel::Scalar.lanes(), 1);
        assert_eq!(SimdLevel::Sse2.lanes(), 4);
        assert_eq!(SimdLevel::Avx2.lanes(), 8);
        assert_eq!(SimdLevel::Avx512.lanes(), 16);
        assert_eq!(SimdLevel::Avx512.width_bits(), 512);
    }

    #[inline(always)]
    fn composite_kernel<S: Simd>(s: S, xs: &[f32]) -> f32 {
        // Exercises arithmetic, compares, select, gather, reductions.
        let table: Vec<f32> = (0..64).map(|i| i as f32 * 0.5).collect();
        let mut acc = s.splat(0.0);
        for c in xs.chunks_exact(S::LANES) {
            let v = s.load(c);
            let clamped = s.min(s.max(v, s.splat(0.0)), s.splat(63.0));
            let idx = s.round_i32(clamped);
            let t = s.gather(&table, idx);
            let m = s.gt(v, s.splat(10.0));
            let picked = s.select(m, t, s.neg(t));
            acc = s.mul_add(picked, s.splat(2.0), acc);
        }
        s.reduce_add(acc)
    }

    #[test]
    fn all_backends_agree_on_composite_kernel() {
        let xs: Vec<f32> = (0..64).map(|i| (i as f32 * 0.7) - 5.0).collect();
        let reference = dispatch!(SimdLevel::Scalar, |s| composite_kernel(s, &xs));
        for level in SimdLevel::available() {
            let got = dispatch!(level, |s| composite_kernel(s, &xs));
            assert!(
                (got - reference).abs() <= 1e-4 * reference.abs().max(1.0),
                "{level}: {got} vs scalar {reference}"
            );
        }
    }
}
