//! The [`Simd`] capability-token trait: a width-generic, safe SIMD interface.
//!
//! A value implementing `Simd` is a zero-sized *proof token* that the CPU
//! features required by the backend are present. Tokens can only be obtained
//! through runtime feature detection ([`crate::SimdLevel::detect`] /
//! `try_new`), which makes every trait method safe to call: the token's
//! existence is the safety argument.
//!
//! This mirrors the role Google Highway plays for C++ in the reproduced
//! paper: one kernel source, instantiated per target vector ISA.
//!
//! # Two lookup operations with measured per-ISA implementations
//!
//! [`Simd::lookup2`] (a `2 · LANES`-entry table held in two registers,
//! indices *wrap*) and [`Simd::gather_pair_unchecked`] (`table[idx]` and
//! `table[idx + 1]` in one 8-byte gather element) each have a default
//! written in the trait's other operations — [`lookup2_default`],
//! [`gather_pair_default`], callable at every level as the test oracle —
//! and a backend overrides one only where a measurement says so:
//! `lookup2` on AVX-512 (one `vpermi2ps`; an AVX2 version of two `vpermps`
//! and a blend was no faster than that level's 8-lane gather, so
//! [`Simd::TABLE_LANES`] stays 0 there and kernels keep gathering), the
//! paired gather on AVX-512 and AVX2 (22–50 % faster than two single
//! gathers on tables up to 8 MiB). `ablation_soa` and `ablation_gather` in
//! `mudock-bench` re-measure both on another host.

/// Width-generic SIMD operations over `f32` lanes (with the `i32` support
/// operations needed by vector math and table lookups).
///
/// # Writing kernels
///
/// Kernels are written once, generic over `S: Simd`, and must be marked
/// `#[inline(always)]` so they inline into the `#[target_feature]` region
/// created by [`Simd::vectorize`]:
///
/// ```
/// use mudock_simd::{Simd, SimdLevel, dispatch};
///
/// #[inline(always)]
/// fn sum_squares<S: Simd>(s: S, xs: &[f32]) -> f32 {
///     let mut acc = s.splat(0.0);
///     let mut it = xs.chunks_exact(S::LANES);
///     for chunk in it.by_ref() {
///         let v = s.load(chunk);
///         acc = s.mul_add(v, v, acc);
///     }
///     let mut total = s.reduce_add(acc);
///     for &x in it.remainder() {
///         total += x * x;
///     }
///     total
/// }
///
/// let xs: Vec<f32> = (0..100).map(|i| i as f32).collect();
/// let level = SimdLevel::detect();
/// let total = dispatch!(level, |s| sum_squares(s, &xs));
/// assert!((total - 328350.0).abs() < 1.0);
/// ```
pub trait Simd: Copy + Send + Sync + 'static {
    /// Number of `f32` lanes per vector register.
    const LANES: usize;
    /// Human-readable backend name (e.g. `"avx2"`).
    const NAME: &'static str;
    /// Size of the table [`Simd::lookup2`] searches with *one instruction*
    /// (`2 · LANES` entries), or 0 where `lookup2` is the default and a
    /// memory gather is at least as fast. Kernels take their in-register
    /// table path only for tables of at most `TABLE_LANES` entries.
    const TABLE_LANES: usize = 0;

    /// Packed `f32` vector.
    type V: Copy + core::fmt::Debug;
    /// Packed `i32` vector (same lane count).
    type VI: Copy + core::fmt::Debug;
    /// Lane mask produced by comparisons.
    type M: Copy;

    /// Run `f` inside a `#[target_feature]`-enabled frame so that the
    /// backend's intrinsics (and any `#[inline(always)]` kernel calling
    /// them) are compiled with the right ISA extensions enabled.
    ///
    /// All non-trivial kernel entry points should go through this (the
    /// [`crate::dispatch!`] macro does so automatically).
    fn vectorize<R, F: FnOnce(Self) -> R>(self, f: F) -> R;

    // ---- construction & memory ----------------------------------------

    /// Broadcast a scalar to all lanes.
    fn splat(self, x: f32) -> Self::V;
    /// Broadcast an `i32` to all lanes.
    fn splat_i32(self, x: i32) -> Self::VI;
    /// All-zero vector.
    #[inline(always)]
    fn zero(self) -> Self::V {
        self.splat(0.0)
    }

    /// Load `LANES` contiguous values. Panics if `src.len() < LANES`.
    fn load(self, src: &[f32]) -> Self::V;
    /// Load up to `LANES` values, filling missing lanes with `fill`.
    fn load_or(self, src: &[f32], fill: f32) -> Self::V;
    /// Load `LANES` contiguous `i32`s. Panics if `src.len() < LANES`.
    fn load_i32(self, src: &[i32]) -> Self::VI;
    /// Store `LANES` values. Panics if `dst.len() < LANES`.
    fn store(self, v: Self::V, dst: &mut [f32]);
    /// Store `LANES` `i32`s. Panics if `dst.len() < LANES`.
    fn store_i32(self, v: Self::VI, dst: &mut [i32]);

    /// Extract one lane (slow; intended for tails, tests and debugging).
    #[inline(always)]
    fn extract(self, v: Self::V, lane: usize) -> f32 {
        assert!(lane < Self::LANES, "lane {lane} out of range");
        let mut buf = [0.0f32; crate::MAX_LANES];
        self.store(v, &mut buf[..Self::LANES]);
        buf[lane]
    }

    // ---- arithmetic ----------------------------------------------------

    fn add(self, a: Self::V, b: Self::V) -> Self::V;
    fn sub(self, a: Self::V, b: Self::V) -> Self::V;
    fn mul(self, a: Self::V, b: Self::V) -> Self::V;
    fn min(self, a: Self::V, b: Self::V) -> Self::V;
    fn max(self, a: Self::V, b: Self::V) -> Self::V;
    /// `a * b + c`, contracted to an FMA where the ISA provides one.
    fn mul_add(self, a: Self::V, b: Self::V, c: Self::V) -> Self::V;
    /// `c - a * b`, contracted to an FNMA where the ISA provides one.
    #[inline(always)]
    fn neg_mul_add(self, a: Self::V, b: Self::V, c: Self::V) -> Self::V {
        self.sub(c, self.mul(a, b))
    }
    fn neg(self, a: Self::V) -> Self::V;
    fn abs(self, a: Self::V) -> Self::V;
    fn sqrt(self, a: Self::V) -> Self::V;

    /// Fast reciprocal *estimate* (≈12-bit). Refine with
    /// [`crate::math::recip_nr`] when accuracy matters.
    fn recip_fast(self, a: Self::V) -> Self::V;
    /// Fast reciprocal-sqrt *estimate* (≈12-bit). Refine with
    /// [`crate::math::rsqrt_nr`].
    fn rsqrt_fast(self, a: Self::V) -> Self::V;

    // ---- comparison & selection ----------------------------------------

    fn lt(self, a: Self::V, b: Self::V) -> Self::M;
    fn le(self, a: Self::V, b: Self::V) -> Self::M;
    fn gt(self, a: Self::V, b: Self::V) -> Self::M;
    fn ge(self, a: Self::V, b: Self::V) -> Self::M;
    /// Per-lane `if m { t } else { f }`.
    fn select(self, m: Self::M, t: Self::V, f: Self::V) -> Self::V;
    fn mask_and(self, a: Self::M, b: Self::M) -> Self::M;
    /// True if any lane of the mask is set.
    fn any(self, m: Self::M) -> bool;
    /// True if all lanes of the mask are set.
    fn all(self, m: Self::M) -> bool;

    // ---- integer support (vector math, index arithmetic) ---------------

    /// Convert to `i32` with round-to-nearest-even.
    fn round_i32(self, v: Self::V) -> Self::VI;
    /// Convert to `i32` with truncation toward zero (= floor for
    /// non-negative inputs, as produced by grid-coordinate clamping).
    fn trunc_i32(self, v: Self::V) -> Self::VI;
    /// Convert `i32` lanes to `f32`.
    fn i32_to_f32(self, v: Self::VI) -> Self::V;
    /// Reinterpret `f32` bits as `i32`.
    fn bitcast_f32_i32(self, v: Self::V) -> Self::VI;
    /// Reinterpret `i32` bits as `f32`.
    fn bitcast_i32_f32(self, v: Self::VI) -> Self::V;
    fn i32_add(self, a: Self::VI, b: Self::VI) -> Self::VI;
    fn i32_sub(self, a: Self::VI, b: Self::VI) -> Self::VI;
    fn i32_and(self, a: Self::VI, b: Self::VI) -> Self::VI;
    /// Logical shift left by a compile-time immediate.
    fn i32_shl<const IMM: i32>(self, a: Self::VI) -> Self::VI;
    /// Logical shift right by a compile-time immediate.
    fn i32_shr<const IMM: i32>(self, a: Self::VI) -> Self::VI;

    // ---- gathers (the paper's "memory lookups into large constant
    //      data structures" pattern) -------------------------------------

    /// Gather `table[idx[lane]]` for each lane **without bounds checks**.
    ///
    /// # Safety
    /// Every lane of `idx` must satisfy `0 <= idx < table.len()`.
    unsafe fn gather_unchecked(self, table: &[f32], idx: Self::VI) -> Self::V;

    /// Gather `table[idx[lane]]` with per-lane bounds checking.
    /// Panics if any lane is out of range.
    #[inline(always)]
    fn gather(self, table: &[f32], idx: Self::VI) -> Self::V {
        let mut buf = [0i32; crate::MAX_LANES];
        self.store_i32(idx, &mut buf[..Self::LANES]);
        for &i in &buf[..Self::LANES] {
            assert!(
                (i as usize) < table.len() && i >= 0,
                "gather index {i} out of range for table of len {}",
                table.len()
            );
        }
        // SAFETY: all lanes verified in range above.
        unsafe { self.gather_unchecked(table, idx) }
    }

    /// Gather the adjacent pair `(table[idx], table[idx + 1])` for each
    /// lane **without bounds checks** — the two x-neighbours of a lattice
    /// cell. Returns exactly the floats two [`Simd::gather_unchecked`]
    /// calls at `idx` and `idx + 1` return (that is the default); backends
    /// with a 64-bit gather fetch each lane's pair with *one* 8-byte load
    /// and split the halves in registers, halving the load µops.
    ///
    /// # Safety
    /// Every lane of `idx` must satisfy `0 <= idx` and
    /// `idx + 1 < table.len()`.
    #[inline(always)]
    unsafe fn gather_pair_unchecked(self, table: &[f32], idx: Self::VI) -> (Self::V, Self::V) {
        gather_pair_default(self, table, idx)
    }

    // ---- in-register tables ---------------------------------------------

    /// Look `idx` up in the `2 · LANES`-entry table held in two registers:
    /// lane ℓ of the result is `(lo ‖ hi)[idx[ℓ] mod 2·LANES]`. Only the
    /// low `log2(2·LANES)` bits of an index are read, so any `idx` —
    /// negative or beyond the table — *wraps* instead of reading out of
    /// bounds; the operation is safe for every input. One `vpermi2ps` on
    /// AVX-512 ([`Simd::TABLE_LANES`] = 32); everywhere else the default,
    /// a stack copy indexed lane by lane ([`lookup2_default`]).
    #[inline(always)]
    fn lookup2(self, lo: Self::V, hi: Self::V, idx: Self::VI) -> Self::V {
        lookup2_default(self, lo, hi, idx)
    }

    // ---- horizontal reductions ------------------------------------------

    fn reduce_add(self, v: Self::V) -> f32;
}

/// The default of [`Simd::lookup2`], callable at every level: the oracle
/// the intrinsic implementations are tested against.
#[inline(always)]
pub fn lookup2_default<S: Simd>(s: S, lo: S::V, hi: S::V, idx: S::VI) -> S::V {
    let mut table = [0.0f32; 2 * crate::MAX_LANES];
    s.store(lo, &mut table[..S::LANES]);
    s.store(hi, &mut table[S::LANES..]);
    let mut ix = [0i32; crate::MAX_LANES];
    s.store_i32(idx, &mut ix[..S::LANES]);
    let mut out = [0.0f32; crate::MAX_LANES];
    for (o, &i) in out.iter_mut().zip(&ix[..S::LANES]) {
        // LANES is a power of two: the mask is `mod 2·LANES`, also for
        // negative indices (two's complement).
        *o = table[i as usize & (2 * S::LANES - 1)];
    }
    s.load(&out[..S::LANES])
}

/// The default of [`Simd::gather_pair_unchecked`], callable at every
/// level: two single gathers, at `idx` and at `idx + 1`.
///
/// # Safety
/// As [`Simd::gather_pair_unchecked`]: every lane needs `0 <= idx` and
/// `idx + 1 < table.len()`.
#[inline(always)]
pub unsafe fn gather_pair_default<S: Simd>(s: S, table: &[f32], idx: S::VI) -> (S::V, S::V) {
    // SAFETY: the caller guarantees both index vectors are in range.
    unsafe {
        (
            s.gather_unchecked(table, idx),
            s.gather_unchecked(table, s.i32_add(idx, s.splat_i32(1))),
        )
    }
}
