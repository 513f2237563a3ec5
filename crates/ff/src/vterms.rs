//! Vectorized force-field terms, generic over a [`Simd`] backend.
//!
//! Lane-for-lane equivalents of [`crate::terms`], instantiated at every
//! SIMD level by two callers with different needs:
//!
//! * the grid builder (`mudock-grids`) evaluates [`dielectric`],
//!   [`vdw_hbond`] and [`desolv_gauss`] separately, at receptor–probe
//!   distances that are **unbounded** — they use the full-range
//!   [`math::exp`];
//! * the intra-energy kernel (`mudock-core`) evaluates one fused
//!   [`pair_energy`] per pair-vector. Only pairs inside the
//!   [`NB_CUTOFF`] survive that kernel's mask, so `pair_energy` holds `r`
//!   in `[RMIN, NB_CUTOFF]`, which bounds both of its exponentials'
//!   arguments to `[−2.53, 0]` and lets them use the ten-FMA
//!   [`math::exp_bounded`]. It takes `r²` and never calls `sqrt`: `1/r`
//!   comes from a Newton-refined `rsqrt`, `r = r²·(1/r)`, and the same
//!   `1/r` folds `qq/(ε(r)·r)` into one reciprocal.
//!
//! The equivalence tests in this module pin both to the scalar reference
//! within documented tolerances.
//!
//! All branches of the scalar code become mask/select operations — the
//! "complex control flow" → "branchless data flow" transformation the paper
//! identifies as a prerequisite for vectorization (Section IX).

use mudock_simd::{math, Simd};

use crate::params::{weights, COULOMB, DESOLV_SIGMA, NB_CUTOFF, SMOOTH};
use crate::terms::{ECLAMP, RMIN};

// Mehler–Solmajer dielectric `ε(r) = A + B/(1 + K·exp(−λB·r))`.
const DIEL_LAMBDA: f32 = 0.003_627;
const DIEL_A: f32 = -8.5525;
const DIEL_B: f32 = 78.4 - DIEL_A;
const DIEL_K: f32 = 7.7839;
/// `1/2σ²` of the desolvation Gaussian.
const DESOLV_K: f32 = 1.0 / (2.0 * DESOLV_SIGMA * DESOLV_SIGMA);

/// Vectorized Mehler–Solmajer dielectric `ε(r)`.
#[inline(always)]
pub fn dielectric<S: Simd>(s: S, r: S::V) -> S::V {
    let e = math::exp(s, s.mul(r, s.splat(-DIEL_LAMBDA * DIEL_B)));
    let denom = s.mul_add(e, s.splat(DIEL_K), s.splat(1.0));
    s.add(
        s.splat(DIEL_A),
        s.mul(s.splat(DIEL_B), math::recip_nr(s, denom)),
    )
}

/// Vectorized AutoGrid smoothing: snap `r` to the pair's well distance
/// `rij` when within ±SMOOTH/2, otherwise move it SMOOTH/2 toward the well.
#[inline(always)]
pub fn smooth_r<S: Simd>(s: S, r: S::V, rij: S::V) -> S::V {
    let half = s.splat(SMOOTH * 0.5);
    let above = s.gt(s.sub(r, rij), half);
    let below = s.gt(s.sub(rij, r), half);

    s.select(above, s.sub(r, half), s.select(below, s.add(r, half), rij))
}

/// Vectorized 12-6 / 12-10 van der Waals + hydrogen-bond term with
/// smoothing and the `ECLAMP` ceiling. `c6` must be zero for H-bond pairs
/// and `c10` zero for plain vdW pairs (as produced by
/// [`crate::params::PairTable`]), which makes the power selection free.
#[inline(always)]
pub fn vdw_hbond<S: Simd>(s: S, r: S::V, rij: S::V, c12: S::V, c6: S::V, c10: S::V) -> S::V {
    vdw_hbond_clamped(s, s.max(r, s.splat(RMIN)), rij, c12, c6, c10)
}

/// [`vdw_hbond`] for an `r` already held at or above `RMIN`.
#[inline(always)]
fn vdw_hbond_clamped<S: Simd>(s: S, r: S::V, rij: S::V, c12: S::V, c6: S::V, c10: S::V) -> S::V {
    let r = smooth_r(s, r, rij);
    let inv_r2 = math::recip_nr(s, s.mul(r, r));
    let inv_r4 = s.mul(inv_r2, inv_r2);
    let inv_r6 = s.mul(inv_r4, inv_r2);
    // c12·r⁻¹² − c6·r⁻⁶ − c10·r⁻¹⁰ = −r⁻⁶·((c6 + c10·r⁻⁴) − c12·r⁻⁶)
    let att = s.mul_add(c10, inv_r4, c6);
    let net = s.neg_mul_add(c12, inv_r6, att);
    let e = s.neg_mul_add(net, inv_r6, s.zero());
    s.min(e, s.splat(ECLAMP))
}

/// Vectorized Gaussian desolvation envelope `exp(−r²/2σ²)`.
#[inline(always)]
pub fn desolv_gauss<S: Simd>(s: S, r2: S::V) -> S::V {
    math::exp(s, s.mul(r2, s.splat(-DESOLV_K)))
}

/// Premultiplied per-pair coefficients, one vector of lanes each — what
/// `PairsSoA` in `mudock-core` stores per scored pair.
#[derive(Clone, Copy, Debug)]
pub struct PairCoefs<V> {
    /// Pair equilibrium distance (for smoothing).
    pub rij: V,
    /// Weighted 12-power coefficient.
    pub c12: V,
    /// Weighted 6-power coefficient (0 for H-bond pairs).
    pub c6: V,
    /// Weighted 10-power coefficient (0 for non-H-bond pairs).
    pub c10: V,
    /// [`premult::qq`].
    pub qq: V,
    /// [`premult::sv`].
    pub sv: V,
}

/// All four weighted terms of one ligand-internal pair, from its squared
/// distance: van der Waals / H-bond + electrostatics + desolvation —
/// lane-for-lane [`crate::terms::pair_energy`]`.total()` for
/// `r ≤ NB_CUTOFF`.
///
/// `r²` is clamped to `NB_CUTOFF²` first, so a lane beyond the cutoff gets
/// the (finite) energy of the cutoff distance; the caller masks those
/// lanes out. That clamp is what puts both exponentials inside
/// [`math::exp_bounded`]'s domain: `λB·r ≤ 0.3154·8 = 2.53` and
/// `r²/2σ² ≤ 64/25.92 = 2.47`. All-zero coefficients (with any
/// `rij > 0`) give exactly `±0`.
#[inline(always)]
pub fn pair_energy<S: Simd>(s: S, r2: S::V, c: PairCoefs<S::V>) -> S::V {
    const _: () = assert!(
        DIEL_LAMBDA * DIEL_B * NB_CUTOFF <= -math::EXP_BOUNDED_LO
            && DESOLV_K * NB_CUTOFF * NB_CUTOFF <= -math::EXP_BOUNDED_LO
    );
    let r2 = s.min(r2, s.splat(NB_CUTOFF * NB_CUTOFF));
    // r = max(√r², RMIN) without a sqrt: r = r²·rsqrt(r²).
    let r2_clamped = s.max(r2, s.splat(RMIN * RMIN));
    let inv_r = math::rsqrt_nr(s, r2_clamped);
    let r = s.mul(r2_clamped, inv_r);

    let vdw = vdw_hbond_clamped(s, r, c.rij, c.c12, c.c6, c.c10);

    // qq/(ε(r)·r) with ε = A + B/d, d = 1 + K·e  ⇒  qq·(1/r)·d/(A·d + B).
    let e = math::exp_bounded(s, s.mul(r, s.splat(-DIEL_LAMBDA * DIEL_B)));
    let d = s.mul_add(e, s.splat(DIEL_K), s.splat(1.0));
    let denom = s.mul_add(d, s.splat(DIEL_A), s.splat(DIEL_B));
    let elec = s.mul(s.mul(c.qq, inv_r), s.mul(d, math::recip_nr(s, denom)));

    // The Gaussian takes the distance as measured, not raised to RMIN.
    let gauss = math::exp_bounded(s, s.mul(r2, s.splat(-DESOLV_K)));
    s.mul_add(c.sv, gauss, s.add(vdw, elec))
}

/// Free-energy weight constants re-exported for kernels that premultiply.
pub mod premult {
    use super::*;

    /// Premultiplied electrostatic coefficient for a charge pair.
    #[inline]
    pub fn qq(qi: f32, qj: f32) -> f32 {
        weights::ESTAT * COULOMB * qi * qj
    }

    /// Premultiplied desolvation coefficient for a typed charge pair.
    #[inline]
    pub fn sv(si: f32, vi: f32, sj: f32, vj: f32) -> f32 {
        weights::DESOLV * (si * vj + sj * vi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::PairTable;
    use crate::terms;
    use crate::types::AtomType;
    use mudock_simd::{dispatch, SimdLevel};

    /// Evaluate a single-lane quantity through a full-width backend by
    /// splatting and extracting lane 0.
    macro_rules! lane0 {
        ($level:expr, |$s:ident| $v:expr) => {
            dispatch!($level, |$s| {
                let v = $v;
                $s.extract(v, 0)
            })
        };
    }

    #[test]
    fn dielectric_matches_scalar_all_levels() {
        for level in SimdLevel::available() {
            for i in 1..100 {
                let r = i as f32 * 0.11;
                let want = terms::dielectric(r);
                let got = lane0!(level, |s| dielectric(s, s.splat(r)));
                assert!(
                    (got - want).abs() < 2e-4 * want.abs().max(1.0),
                    "{level} r={r}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn smoothing_matches_scalar_all_levels() {
        for level in SimdLevel::available() {
            for (r, rij) in [
                (4.0f32, 4.0f32),
                (4.2, 4.0),
                (3.8, 4.0),
                (5.0, 4.0),
                (3.0, 4.0),
            ] {
                let want = terms::smooth_r(r, rij);
                let got = lane0!(level, |s| smooth_r(s, s.splat(r), s.splat(rij)));
                assert_eq!(got, want, "{level} r={r} rij={rij}");
            }
        }
    }

    #[test]
    fn vdw_hbond_matches_scalar_all_levels() {
        let table = PairTable::new();
        let pairs = [
            (AtomType::C, AtomType::C),
            (AtomType::C, AtomType::OA),
            (AtomType::HD, AtomType::OA),
            (AtomType::HD, AtomType::NA),
            (AtomType::A, AtomType::S),
        ];
        for level in SimdLevel::available() {
            for (ta, tb) in pairs {
                let k = PairTable::index(ta, tb);
                for i in 1..80 {
                    let r = 0.8 + i as f32 * 0.09;
                    let want = terms::vdw_hbond(&table, k, r);
                    let (c12, c6, c10, rij) =
                        (table.c12[k], table.c6[k], table.c10[k], table.rij[k]);
                    let got = lane0!(level, |s| vdw_hbond(
                        s,
                        s.splat(r),
                        s.splat(rij),
                        s.splat(c12),
                        s.splat(c6),
                        s.splat(c10)
                    ));
                    let tol = 5e-4 * want.abs().max(1.0);
                    assert!(
                        (got - want).abs() < tol,
                        "{level} {ta}-{tb} r={r}: {got} vs {want}"
                    );
                }
            }
        }
    }

    /// One lane's worth of `pair_energy` inputs and the scalar answer.
    struct Case {
        r: f32,
        coefs: [f32; 6], // rij, c12, c6, c10, qq, sv
        want: f32,
    }

    fn cases() -> Vec<Case> {
        let table = PairTable::new();
        let atoms = [
            (AtomType::C, 0.12f32),
            (AtomType::OA, -0.38),
            (AtomType::HD, 0.21),
            (AtomType::NA, -0.30),
            (AtomType::A, 0.02),
            (AtomType::S, -0.10),
        ];
        let mut out = Vec::new();
        for (ia, &(ta, qa)) in atoms.iter().enumerate() {
            for &(tb, qb) in &atoms[ia..] {
                // Below RMIN, through the wells, up to the cutoff itself.
                for i in 0..=64 {
                    let r = 0.3 + (NB_CUTOFF - 0.3) * i as f32 / 64.0;
                    let k = PairTable::index(ta, tb);
                    let (pa, pb) = (
                        crate::params::type_params(ta),
                        crate::params::type_params(tb),
                    );
                    let sv = premult::sv(
                        terms::solvation_param(ta, qa),
                        pa.vol,
                        terms::solvation_param(tb, qb),
                        pb.vol,
                    );
                    out.push(Case {
                        r,
                        coefs: [
                            table.rij[k],
                            table.c12[k],
                            table.c6[k],
                            table.c10[k],
                            premult::qq(qa, qb),
                            sv,
                        ],
                        want: terms::pair_energy(&table, ta, qa, tb, qb, r).total(),
                    });
                }
            }
        }
        out
    }

    #[inline(always)]
    fn pair_energy_lanes<S: Simd>(s: S, cases: &[Case], got: &mut Vec<f32>) {
        for chunk in cases.chunks_exact(S::LANES) {
            let col = |f: &dyn Fn(&Case) -> f32| {
                let mut buf = [0.0f32; mudock_simd::MAX_LANES];
                for (b, c) in buf.iter_mut().zip(chunk) {
                    *b = f(c);
                }
                s.load(&buf)
            };
            let coefs = PairCoefs {
                rij: col(&|c| c.coefs[0]),
                c12: col(&|c| c.coefs[1]),
                c6: col(&|c| c.coefs[2]),
                c10: col(&|c| c.coefs[3]),
                qq: col(&|c| c.coefs[4]),
                sv: col(&|c| c.coefs[5]),
            };
            let e = pair_energy(s, col(&|c| c.r * c.r), coefs);
            for lane in 0..S::LANES {
                got.push(s.extract(e, lane));
            }
        }
    }

    #[test]
    fn pair_energy_matches_scalar_lane_for_lane_all_levels() {
        let mut cases = cases();
        cases.truncate(cases.len() / mudock_simd::MAX_LANES * mudock_simd::MAX_LANES);
        for level in SimdLevel::available() {
            let mut got = Vec::with_capacity(cases.len());
            dispatch!(level, |s| pair_energy_lanes(s, &cases, &mut got));
            assert_eq!(got.len(), cases.len());
            for (c, &g) in cases.iter().zip(&got) {
                // The r^-12 wall amplifies a 2-ulp r into ~25 ulp.
                assert!(
                    (g - c.want).abs() <= 2e-5 * c.want.abs().max(1.0),
                    "{level} r={}: {g} vs {}",
                    c.r,
                    c.want
                );
            }
        }
    }

    #[test]
    fn pair_energy_is_finite_beyond_the_cutoff_and_zero_for_zero_coefficients() {
        for level in SimdLevel::available() {
            for r2 in [0.0f32, 1.0, 63.9, 64.0, 65.0, 1.0e4, 3.0e12] {
                let zero = lane0!(level, |s| pair_energy(
                    s,
                    s.splat(r2),
                    PairCoefs {
                        rij: s.splat(1.0),
                        c12: s.zero(),
                        c6: s.zero(),
                        c10: s.zero(),
                        qq: s.zero(),
                        sv: s.zero(),
                    }
                ));
                assert_eq!(zero, 0.0, "{level} r2={r2}");
                let some = lane0!(level, |s| pair_energy(
                    s,
                    s.splat(r2),
                    PairCoefs {
                        rij: s.splat(4.0),
                        c12: s.splat(1.0e5),
                        c6: s.splat(1.0e2),
                        c10: s.zero(),
                        qq: s.splat(-3.0),
                        sv: s.splat(0.01),
                    }
                ));
                assert!(some.is_finite(), "{level} r2={r2}: {some}");
            }
        }
    }
}
