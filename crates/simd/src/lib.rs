//! # mudock-simd — portable explicit SIMD (the Google Highway analogue)
//!
//! The reproduced paper (CLUSTER 2025) compares *compiler auto-vectorization*
//! of a single scalar codebase against *explicit vectorization* through
//! Google Highway. This crate plays Highway's role for the Rust
//! reproduction:
//!
//! * a width-generic [`Simd`] trait with backends for scalar (one lane),
//!   AVX2+FMA (256-bit) and AVX-512F (512-bit) — selected at **runtime** via
//!   [`SimdLevel::detect`], so one binary adapts to the host CPU exactly like
//!   Highway's dynamic dispatch. Below AVX2 there is no hand-written
//!   multi-lane level: a host without it scores with `mudock-core`'s
//!   portable arm, compiled for the build's baseline ISA;
//! * vector math ([`math::exp`], [`math::log`], …) standing in for
//!   libmvec/ArmPL/SLEEF, because the paper shows vectorized math libraries
//!   are the decisive portability factor;
//! * a [`dispatch!`] macro that instantiates an `#[inline(always)]` kernel
//!   once per backend inside a `#[target_feature]` region;
//! * an [`in_frame!`] macro that runs a *lane loop* — safe Rust over a
//!   one-lane token, which the compiler vectorizes — inside the widest such
//!   region the host has ([`frame`]), or in place, compiled for the build's
//!   baseline ISA, on a host without one.
//!
//! Soundness model: backend tokens ([`Avx2`], [`Avx512`]) are
//! zero-sized proofs of CPU support, only constructible through feature
//! detection. Every intrinsic call is therefore safe behind the token.
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
}

use std::sync::OnceLock;

pub use scalar::{OneLane, Scalar};
pub use traits::Simd;
#[cfg(target_arch = "x86_64")]
pub use x86::{avx2::Avx2, avx512::Avx512};

/// Maximum lane count across all backends (AVX-512: 16 × f32).
pub const MAX_LANES: usize = 16;

/// The vector instruction-set levels this crate can target, ordered from
/// narrowest to widest.
///
/// This is the Rust-side analogue of Highway's `HWY_TARGETS`: the level is a
/// *runtime* choice. Experiments pin one through a campaign's `backend`
/// (`--backend avx2` on the command line, `{"fixed": "avx2"}` on the
/// wire), or take the best the host offers ([`SimdLevel::detect`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// Plain scalar f32 code (1 lane). Portable reference, and what
    /// [`SimdLevel::detect`] returns on a host without AVX2+FMA.
    Scalar,
    /// AVX2 + FMA: 256-bit, 8 lanes.
    Avx2,
    /// AVX-512F: 512-bit, 16 lanes.
    Avx512,
}

impl SimdLevel {
    /// All levels, narrowest first.
    pub const ALL: [SimdLevel; 3] = [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512];

    /// Pick the widest level supported by the host CPU: [`SimdLevel::Scalar`]
    /// on any host without AVX2+FMA, x86-64 or not.
    pub fn detect() -> SimdLevel {
        #[cfg(target_arch = "x86_64")]
        {
            if x86::avx512::Avx512::try_new().is_some() {
                return SimdLevel::Avx512;
            }
            if x86::avx2::Avx2::try_new().is_some() {
                return SimdLevel::Avx2;
            }
        }
        SimdLevel::Scalar
    }

    /// Is this level usable on the current host?
    pub fn is_supported(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            match self {
                SimdLevel::Scalar => true,
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
            SimdLevel::Avx2 => 8,
            SimdLevel::Avx512 => 16,
        }
    }

    /// Short lowercase name (`"avx2"`, …).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }

    /// Parse a level name as used on experiment command lines.
    pub fn parse(name: &str) -> Option<SimdLevel> {
        match name.to_ascii_lowercase().as_str() {
            "scalar" => Some(SimdLevel::Scalar),
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

/// Does `frame` enable wider registers and FMA than the build's baseline?
/// [`SimdLevel::Scalar`] has no frame of its own: a lane loop's baseline
/// body is already compiled for it. The same rule picks `mudock-core`'s
/// default backend: a wide level runs the explicit arm, anything else the
/// portable one.
#[inline(always)]
pub fn is_wide(frame: SimdLevel) -> bool {
    matches!(frame, SimdLevel::Avx2 | SimdLevel::Avx512)
}

/// The frame lane loops run in on this host, resolved once per process:
/// [`SimdLevel::detect`] — AVX-512 or AVX2+FMA where the CPU has them,
/// else [`SimdLevel::Scalar`], no frame, the lane loops as compiled for the
/// build's baseline ISA. Nothing else selects it: no flag, env var, config
/// field or wire value; `mudock-core`'s `DockingEngine::new` reads it.
pub fn frame() -> SimdLevel {
    static FRAME: OnceLock<SimdLevel> = OnceLock::new();
    *FRAME.get_or_init(SimdLevel::detect)
}

/// Run `$body`, a lane loop over the one-lane token `$s`, in `$frame`.
///
/// In a wide frame ([`is_wide`]) the body runs inside [`dispatch!`]'s
/// `#[target_feature]` region of that level, where the compiler vectorizes
/// its lane loops with that level's registers; anywhere else it runs in
/// place. `dispatch!`'s wide token is unused: it only proves the CPU runs
/// the frame. Panics, like `dispatch!`, on a wide frame the host lacks.
///
/// Which token `$s` is:
///
/// * `in_frame!(frame, |s| …)`: the fused [`OneLane<true>`](OneLane) in a
///   wide frame, where its `mul_add` becomes packed `vfmadd`, and
///   [`Scalar`] in place. The result's rounding depends on the frame.
/// * `in_frame!(frame, unfused, |s| …)`: [`Scalar`] in every frame. Rust
///   never contracts `a * b + c`, so each lane does exactly `Scalar`'s
///   arithmetic, and the bits do not depend on the frame.
///
/// ```
/// use mudock_simd::{frame, in_frame, Simd};
///
/// #[inline(always)]
/// fn axpy<S: Simd<V = f32>>(s: S, a: f32, x: &[f32; 16], y: &mut [f32; 16]) {
///     for l in 0..16 {
///         y[l] = s.mul_add(a, x[l], y[l]);
///     }
/// }
///
/// let x = [1.5f32; 16];
/// let mut y = [0.25f32; 16];
/// in_frame!(frame(), unfused, |s| axpy(s, 2.0, &x, &mut y));
/// assert_eq!(y, [3.25; 16]);
/// ```
#[macro_export]
macro_rules! in_frame {
    (@with $frame:expr, $wide:ty, |$s:ident| $body:expr) => {{
        let frame = $frame;
        if $crate::is_wide(frame) {
            $crate::dispatch!(frame, |_wide| {
                let $s = <$wide>::new();
                $body
            })
        } else {
            let $s = $crate::Scalar::new();
            $body
        }
    }};
    ($frame:expr, |$s:ident| $body:expr) => {
        $crate::in_frame!(@with $frame, $crate::OneLane::<true>, |$s| $body)
    };
    ($frame:expr, unfused, |$s:ident| $body:expr) => {
        $crate::in_frame!(@with $frame, $crate::Scalar, |$s| $body)
    };
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
    fn lanes_per_level() {
        assert_eq!(SimdLevel::Scalar.lanes(), 1);
        assert_eq!(SimdLevel::Avx2.lanes(), 8);
        assert_eq!(SimdLevel::Avx512.lanes(), 16);
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
