//! Intramolecular (intra-energy) scoring — Algorithm 2, lines 10–16.
//!
//! For every non-excluded atom pair within the 8 Å cutoff: electrostatic,
//! van der Waals / H-bond, and desolvation contributions. This is the
//! paper's *compute-bound* kernel: FMA chains, two reciprocals, one
//! reciprocal square root and two exponentials per pair, all inside
//! [`vterms::pair_energy`].
//!
//! Three paths with identical semantics:
//!
//! * [`intra_energy_reference`] — scalar with `libm` math (`f32::exp`).
//!   Library calls in the loop body are exactly what blocks loop
//!   vectorization when no vector math library exists (the paper's
//!   GCC-on-ARM case).
//! * [`intra_energy_kernel`] at [`mudock_simd::Scalar`] — the same
//!   arithmetic with inlinable polynomial math: what a compiler can
//!   auto-vectorize when a vector math library *is* available.
//! * [`intra_energy_kernel`] at SSE2/AVX2/AVX-512 — explicit vectorization
//!   (the Highway arm).
//!
//! # One kernel, two walks
//!
//! The kernel's body — squared distance, cutoff mask, `pair_energy`,
//! masked accumulate — is the same for every pair-vector; what differs is
//! where the coordinates come from (layouts and the selection rule are in
//! [`super::pairs`]):
//!
//! * **packed walk**: load 16 `i`s and `j`s, gather six coordinate
//!   vectors. Used for ligands too sparse in scored pairs for rows, and by
//!   every one-lane instantiation — at one lane a row walk would visit each
//!   neutral slot individually, while the packed list holds none but
//!   padding.
//! * **rows walk**: for row `i`, splat atom `i` and load its partners
//!   `i+1 … i+stride` contiguously from a copy of the pose's coordinates
//!   that wraps around past `N`. The copy (`N + stride ≤ 256` floats per
//!   axis) is made on the stack at every call: callers hand in a plain
//!   [`ConformSoA`], and ~1 KB of `memcpy` is not measurable against the
//!   ~2 µs the walk takes. No gathers, no index arrays, no `unsafe`.
//!
//! `pair_energy` needs `r ≤ NB_CUTOFF` for its bounded-domain
//! exponentials; it clamps `r²` itself, and the lanes it clamped are
//! exactly the ones the cutoff mask discards.

use mudock_ff::params::NB_CUTOFF;
use mudock_ff::terms::{ECLAMP, RMIN};
use mudock_ff::vterms;
use mudock_mol::ConformSoA;
use mudock_simd::{dispatch, Simd, SimdLevel};

use super::pairs::{HalfShellRows, PairCoefStreams, PairsSoA, WRAP_CAP};

/// Scalar reference with `libm` math calls.
pub fn intra_energy_reference(conf: &ConformSoA, pairs: &PairsSoA) -> f32 {
    let cutoff2 = NB_CUTOFF * NB_CUTOFF;
    let mut total = 0.0f32;
    for k in 0..pairs.n {
        let i = pairs.i[k] as usize;
        let j = pairs.j[k] as usize;
        let c = pairs.coefs.get(k);
        let dx = conf.x[i] - conf.x[j];
        let dy = conf.y[i] - conf.y[j];
        let dz = conf.z[i] - conf.z[j];
        let r2 = dx * dx + dy * dy + dz * dz;
        if r2 > cutoff2 {
            continue;
        }
        let r = r2.sqrt().max(RMIN);
        // vdW / H-bond with smoothing and clamp.
        let rs = mudock_ff::terms::smooth_r(r, c.rij);
        let inv_r2 = 1.0 / (rs * rs);
        let inv_r6 = inv_r2 * inv_r2 * inv_r2;
        let inv_r10 = inv_r6 * inv_r2 * inv_r2;
        let inv_r12 = inv_r6 * inv_r6;
        let vdw = (c.c12 * inv_r12 - c.c6 * inv_r6 - c.c10 * inv_r10).min(ECLAMP);
        // Electrostatics with distance-dependent dielectric.
        let elec = c.qq / (mudock_ff::terms::dielectric(r) * r);
        // Desolvation.
        let sigma2 = 2.0 * mudock_ff::params::DESOLV_SIGMA * mudock_ff::params::DESOLV_SIGMA;
        let des = c.sv * (-r2 / sigma2).exp();
        total += vdw + elec + des;
    }
    total
}

/// Width-generic intra-energy kernel (see module docs for the three roles
/// it plays depending on the instantiating backend, and its two walks).
///
/// # Panics
/// If `conf` is not a conformation of the molecule `pairs` was built from
/// (atom counts differ, or a coordinate array is shorter than that).
#[inline(always)]
pub fn intra_energy_kernel<S: Simd>(s: S, conf: &ConformSoA, pairs: &PairsSoA) -> f32 {
    let n = pairs.atoms();
    assert!(
        conf.n == n && conf.x.len() >= n && conf.y.len() >= n && conf.z.len() >= n,
        "conformation of {} atoms scored against pairs of {n}",
        conf.n
    );
    if pairs.n == 0 {
        return 0.0;
    }
    let acc = match pairs.rows() {
        Some(rows) if S::LANES > 1 => walk_rows(s, conf, rows),
        _ => walk_packed(s, conf, pairs),
    };
    s.reduce_add(acc)
}

/// `acc` plus the energies of the in-cutoff lanes of one pair-vector:
/// displacement `(dx, dy, dz)`, coefficients at slots `k .. k + LANES`.
#[inline(always)]
fn add_pair_vector<S: Simd>(
    s: S,
    acc: S::V,
    (dx, dy, dz): (S::V, S::V, S::V),
    coefs: &PairCoefStreams,
    k: usize,
) -> S::V {
    let r2 = s.mul_add(dz, dz, s.mul_add(dy, dy, s.mul(dx, dx)));
    let in_cut = s.le(r2, s.splat(NB_CUTOFF * NB_CUTOFF));
    if !s.any(in_cut) {
        return acc;
    }
    let e = vterms::pair_energy(s, r2, coefs.load(s, k));
    s.add(acc, s.select(in_cut, e, s.zero()))
}

#[inline(always)]
fn walk_packed<S: Simd>(s: S, conf: &ConformSoA, pairs: &PairsSoA) -> S::V {
    let len = pairs.len_padded();
    debug_assert_eq!(len % S::LANES, 0);
    let mut acc = s.zero();
    let mut k = 0;
    while k < len {
        let vi = s.load_i32(&pairs.i[k..]);
        let vj = s.load_i32(&pairs.j[k..]);
        // SAFETY: `PairsSoA::build_as` checks every pair index against its
        // molecule's atom count and writes 0 into padding, and the caller
        // reaches this walk only with `pairs.n > 0` (so that count is ≥ 2)
        // and after `intra_energy_kernel`'s assert that `conf.x/y/z` hold
        // at least that many elements. `i`/`j` are public for reading;
        // code that overwrites them after `build` voids this.
        let (xi, yi, zi, xj, yj, zj) = unsafe {
            (
                s.gather_unchecked(&conf.x, vi),
                s.gather_unchecked(&conf.y, vi),
                s.gather_unchecked(&conf.z, vi),
                s.gather_unchecked(&conf.x, vj),
                s.gather_unchecked(&conf.y, vj),
                s.gather_unchecked(&conf.z, vj),
            )
        };
        let d = (s.sub(xi, xj), s.sub(yi, yj), s.sub(zi, zj));
        acc = add_pair_vector(s, acc, d, &pairs.coefs, k);
        k += S::LANES;
    }
    acc
}

/// `src` followed by as much of its own beginning, repeated, as fills
/// `src.len() + extra` floats: element `t` is `src[t mod src.len()]`.
#[inline(always)]
fn wrapped(src: &[f32], extra: usize) -> [f32; WRAP_CAP] {
    let mut w = [0.0f32; WRAP_CAP];
    let len = src.len() + extra;
    w[..src.len()].copy_from_slice(src);
    let mut filled = src.len();
    while filled < len {
        // `filled` stays a multiple of `src.len()` until the last copy.
        let m = filled.min(len - filled);
        w.copy_within(..m, filled);
        filled += m;
    }
    w
}

#[inline(always)]
fn walk_rows<S: Simd>(s: S, conf: &ConformSoA, rows: &HalfShellRows) -> S::V {
    let n = conf.n;
    let stride = rows.stride;
    debug_assert_eq!(stride % S::LANES, 0);
    let wx = wrapped(&conf.x[..n], stride);
    let wy = wrapped(&conf.y[..n], stride);
    let wz = wrapped(&conf.z[..n], stride);
    let mut acc = s.zero();
    for i in 0..n {
        let (xi, yi, zi) = (s.splat(wx[i]), s.splat(wy[i]), s.splat(wz[i]));
        // Slot c of row i pairs atom i with atom (i + 1 + c) mod n.
        let (px, py, pz) = (
            &wx[i + 1..i + 1 + stride],
            &wy[i + 1..i + 1 + stride],
            &wz[i + 1..i + 1 + stride],
        );
        let mut c = 0;
        while c < stride {
            let d = (
                s.sub(xi, s.load(&px[c..])),
                s.sub(yi, s.load(&py[c..])),
                s.sub(zi, s.load(&pz[c..])),
            );
            acc = add_pair_vector(s, acc, d, &rows.coefs, i * stride + c);
            c += S::LANES;
        }
    }
    acc
}

/// Dispatch the intra kernel at a runtime-selected level.
///
/// # Panics
/// If `conf` is not a conformation of the molecule `pairs` was built from.
pub fn intra_energy_simd(level: SimdLevel, conf: &ConformSoA, pairs: &PairsSoA) -> f32 {
    dispatch!(level, |s| intra_energy_kernel(s, conf, pairs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scoring::pairs::PairLayout;
    use mudock_ff::params::PairTable;
    use mudock_ff::terms::pair_energy;
    use mudock_mol::{Molecule, Topology};
    use mudock_molio::{synthetic_ligand, LigandSpec};

    /// A 25-heavy-atom ligand (packed by the selection rule) and a
    /// 48-heavy-atom one (rows).
    const SIZES: [(usize, usize); 2] = [(25, 5), (48, 10)];

    fn prep_sized(
        seed: u64,
        heavy_atoms: usize,
        torsions: usize,
    ) -> (Molecule, Topology, ConformSoA) {
        let m = synthetic_ligand(
            seed,
            LigandSpec {
                heavy_atoms,
                torsions,
            },
        );
        let topo = Topology::build(&m);
        let conf = ConformSoA::from_molecule(&m);
        (m, topo, conf)
    }

    fn prep(seed: u64) -> (Molecule, Topology, ConformSoA, PairsSoA) {
        let (m, topo, conf) = prep_sized(seed, 25, 5);
        let pairs = PairsSoA::build(&m, &topo, &PairTable::new());
        (m, topo, conf, pairs)
    }

    /// Both layouts of one molecule's pairs.
    fn both_layouts(m: &Molecule, topo: &Topology) -> [PairsSoA; 2] {
        [PairLayout::Packed, PairLayout::Rows]
            .map(|layout| PairsSoA::build_as(m, topo, &PairTable::new(), layout))
    }

    #[test]
    fn reference_matches_force_field_pair_sum() {
        // Independent ground truth: sum ff::pair_energy over the topology
        // pair list with the same cutoff.
        let (m, topo, conf, pairs) = prep(3);
        let table = PairTable::new();
        let mut want = 0.0f32;
        for &(i, j) in &topo.pairs {
            let a = &m.atoms[i as usize];
            let b = &m.atoms[j as usize];
            let r = conf.pos(i as usize).distance(conf.pos(j as usize));
            if r * r > NB_CUTOFF * NB_CUTOFF {
                continue;
            }
            want += pair_energy(&table, a.ty, a.charge, b.ty, b.charge, r).total();
        }
        let got = intra_energy_reference(&conf, &pairs);
        assert!(
            (got - want).abs() < 1e-3 * want.abs().max(1.0),
            "{got} vs {want}"
        );
    }

    #[test]
    fn selection_sends_the_large_ligand_to_rows() {
        let [small, large] = SIZES.map(|(heavy, tors)| {
            let (m, topo, _) = prep_sized(1, heavy, tors);
            PairsSoA::build(&m, &topo, &PairTable::new()).layout()
        });
        assert_eq!((small, large), (PairLayout::Packed, PairLayout::Rows));
    }

    #[test]
    fn kernel_matches_reference_all_levels_both_layouts() {
        for (heavy, tors) in SIZES {
            for seed in [1u64, 7, 42] {
                let (m, topo, conf) = prep_sized(seed, heavy, tors);
                for pairs in both_layouts(&m, &topo) {
                    let want = intra_energy_reference(&conf, &pairs);
                    for level in SimdLevel::available() {
                        let got = intra_energy_simd(level, &conf, &pairs);
                        assert!(
                            (got - want).abs() < 2e-3 * want.abs().max(1.0),
                            "{heavy} heavy, seed {seed}, {:?}, {level}: {got} vs {want}",
                            pairs.layout()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tiny_ligands_score_the_same_in_rows() {
        // Rows shorter than one vector, N below the widest lane count, a
        // wrapped copy that laps the molecule more than once.
        for heavy in 2..12 {
            let (m, topo, conf) = prep_sized(heavy as u64, heavy, 0);
            for pairs in both_layouts(&m, &topo) {
                let want = intra_energy_reference(&conf, &pairs);
                for level in SimdLevel::available() {
                    let got = intra_energy_simd(level, &conf, &pairs);
                    assert!(
                        (got - want).abs() < 2e-3 * want.abs().max(1.0),
                        "{} atoms, {:?}, {level}: {got} vs {want}",
                        conf.n,
                        pairs.layout()
                    );
                }
            }
        }
    }

    #[test]
    fn empty_pair_list_scores_zero() {
        // Atoms, but no scored pair among them.
        for (heavy, tors) in SIZES {
            let (m, _t, conf) = prep_sized(5, heavy, tors);
            for empty in both_layouts(&m, &Topology::default()) {
                assert_eq!(intra_energy_reference(&conf, &empty), 0.0);
                for level in SimdLevel::available() {
                    assert_eq!(intra_energy_simd(level, &conf, &empty), 0.0, "{level}");
                }
            }
        }
        // No atoms at all: nothing is read from the empty conformation.
        let nothing = Molecule {
            name: String::new(),
            atoms: vec![],
            bonds: vec![],
        };
        let empty = PairsSoA::build(&nothing, &Topology::default(), &PairTable::new());
        for level in SimdLevel::available() {
            let conf = ConformSoA::with_capacity(0);
            assert_eq!(intra_energy_simd(level, &conf, &empty), 0.0, "{level}");
        }
    }

    #[test]
    fn far_apart_pairs_score_zero() {
        // Stretch the molecule far beyond the cutoff: every pair masks
        // out, in either layout.
        for (heavy, tors) in SIZES {
            let (m, topo, mut conf) = prep_sized(9, heavy, tors);
            for i in 0..conf.n {
                conf.x[i] += 100.0 * i as f32; // > 8 Å between every pair
            }
            for pairs in both_layouts(&m, &topo) {
                assert_eq!(intra_energy_reference(&conf, &pairs), 0.0);
                for level in SimdLevel::available() {
                    assert_eq!(intra_energy_simd(level, &conf, &pairs), 0.0, "{level}");
                }
            }
        }
    }

    #[test]
    fn a_conformation_of_another_molecule_is_refused() {
        // The packed walk gathers unchecked: a shorter `conf` must be a
        // panic, never an out-of-bounds read.
        let (_m, _t, _conf, pairs) = prep(5);
        let (_m, _t, other) = prep_sized(5, 8, 1);
        for level in SimdLevel::available() {
            let hit = std::panic::catch_unwind(|| intra_energy_simd(level, &other, &pairs));
            assert!(hit.is_err(), "{level}");
        }
        let mut short = ConformSoA::with_capacity(pairs.atoms());
        short.z.truncate(pairs.atoms() - 1);
        let hit =
            std::panic::catch_unwind(|| intra_energy_simd(SimdLevel::detect(), &short, &pairs));
        assert!(hit.is_err());
    }
}
