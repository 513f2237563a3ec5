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
//! * [`intra_energy_autovec_at`](crate::autovec::intra_energy_autovec_at) — the
//!   portable arm: this kernel's per-lane math, inlinable polynomials
//!   included, in lane loops the compiler vectorizes. It lives in
//!   [`crate::autovec`] and has its own two walks (rows where built, else
//!   the packed list with clamped indices); nothing below describes it.
//! * [`intra_energy_kernel`] at AVX2/AVX-512 — explicit vectorization
//!   (the Highway arm) — and at [`mudock_simd::Scalar`], the one-lane
//!   level every other one is tested against (`Explicit(Scalar)`).
//!
//! # One kernel body, three ways to fetch coordinates
//!
//! The kernel's body — squared distance, cutoff mask, `pair_energy`,
//! masked accumulate — is the same for every pair-vector; what differs is
//! where its six coordinate vectors come from ([`IntraWalk`]; the pair
//! layouts and the packed-vs-rows rule are in [`super::pairs`]):
//!
//! * **table walk** — ligands of at most [`Simd::TABLE_LANES`] atoms (32
//!   on AVX-512, 0 — never — at every other level): load `conf.{x,y,z}`
//!   into two registers per axis *once per call*, then look the packed
//!   list's `i`s and `j`s up in them with [`Simd::lookup2`]. Six
//!   in-register permutes per pair-vector instead of six memory gathers
//!   (96 load µops at 16 lanes): 30 → 20 ns per pair-vector on the
//!   31-atom class, where the gathers were a third of the cost. No
//!   `unsafe`: the permute reads only the low five index bits, so it
//!   cannot leave the table whatever `i`/`j` hold. Takes precedence over
//!   rows, which lose to it at these sizes (`ablation_soa`).
//! * **rows walk** — larger ligands dense in scored pairs: for row `i`,
//!   splat atom `i` and load its partners `i+1 … i+stride` contiguously
//!   from a copy of the pose's coordinates that wraps around past `N`.
//!   The copy (`N + stride ≤ 256` floats per axis) is made on the stack at
//!   every call: callers hand in a plain [`ConformSoA`], and ~1 KB of
//!   `memcpy` is not measurable against the ~2 µs the walk takes. No
//!   gathers, no index arrays, no `unsafe`.
//! * **gathered walk** — everything else: load 16 `i`s and `j`s, gather
//!   six coordinate vectors from memory. Ligands above the table size
//!   that are too sparse in scored pairs for rows, every ligand on AVX2
//!   that rows do not cover (a 16-entry AVX2 table was measured
//!   no faster than its 8-lane gather), and the one-lane instantiation
//!   (`Explicit(Scalar)`, which since the portable arm has drivers of its
//!   own is the only one) — at one lane a row walk would visit each
//!   neutral slot individually, while the packed list holds none but
//!   padding.
//!
//! The table and gathered walks visit the same pair-vectors in the same
//! order and fetch the same floats, so their energies are bit-identical;
//! [`intra_energy_simd_walk`] forces a walk so tests can pin that and
//! `ablation_soa` can time all three side by side.
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

/// How the kernel fetches a pair-vector's coordinates (module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntraWalk {
    /// Packed list, `i`/`j` looked up in a two-register table per axis.
    Table,
    /// Packed list, `i`/`j` gathered from memory.
    Gathered,
    /// Half-shell rows, contiguous loads.
    Rows,
}

impl IntraWalk {
    /// The walk [`intra_energy_simd`] takes for `pairs` at `level`.
    pub fn selected(level: SimdLevel, pairs: &PairsSoA) -> IntraWalk {
        dispatch!(level, |s| IntraWalk::select(s, pairs))
    }

    /// The walk [`intra_energy_kernel`] takes for `pairs` at backend `S`.
    #[inline(always)]
    fn select<S: Simd>(_: S, pairs: &PairsSoA) -> IntraWalk {
        if pairs.atoms() <= S::TABLE_LANES {
            IntraWalk::Table
        } else if S::LANES > 1 && pairs.rows().is_some() {
            IntraWalk::Rows
        } else {
            IntraWalk::Gathered
        }
    }
}

/// Width-generic intra-energy kernel (see module docs for the three roles
/// it plays depending on the instantiating backend, and its three walks).
///
/// # Panics
/// If `conf` is not a conformation of the molecule `pairs` was built from
/// (atom counts differ, or a coordinate array is shorter than that).
#[inline(always)]
pub fn intra_energy_kernel<S: Simd>(s: S, conf: &ConformSoA, pairs: &PairsSoA) -> f32 {
    intra_energy_kernel_walk(s, conf, pairs, IntraWalk::select(s, pairs))
}

/// [`intra_energy_kernel`] with the walk forced.
///
/// # Panics
/// As [`intra_energy_kernel`]; also if `walk` is `Table` for a ligand of
/// more than `2 · LANES` atoms, or `Rows` for `pairs` built without them.
#[inline(always)]
fn intra_energy_kernel_walk<S: Simd>(
    s: S,
    conf: &ConformSoA,
    pairs: &PairsSoA,
    walk: IntraWalk,
) -> f32 {
    let n = pairs.atoms();
    assert!(
        conf.n == n && conf.x.len() >= n && conf.y.len() >= n && conf.z.len() >= n,
        "conformation of {} atoms scored against pairs of {n}",
        conf.n
    );
    if pairs.n == 0 {
        return 0.0;
    }
    let acc = match walk {
        IntraWalk::Table => walk_table(s, conf, pairs),
        IntraWalk::Gathered => walk_gathered(s, conf, pairs),
        IntraWalk::Rows => {
            let rows = pairs.rows().expect("rows walk of pairs built without rows");
            walk_rows(s, conf, rows)
        }
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

/// The first `2 · LANES` of `coords` as a [`Simd::lookup2`] table, zeros
/// where `coords` is shorter. Handed the whole padded array, so both
/// halves are plain loads; the entries past the last atom are never
/// looked up, every `i`/`j` of a pair list being an atom index.
#[inline(always)]
fn table_of<S: Simd>(s: S, coords: &[f32]) -> (S::V, S::V) {
    let (lo, hi) = coords.split_at(coords.len().min(S::LANES));
    (s.load_or(lo, 0.0), s.load_or(hi, 0.0))
}

#[inline(always)]
fn walk_table<S: Simd>(s: S, conf: &ConformSoA, pairs: &PairsSoA) -> S::V {
    let n = conf.n;
    assert!(
        n <= 2 * S::LANES,
        "{n} atoms exceed a two-register table of {} lanes",
        S::LANES
    );
    let (tx, ty, tz) = (
        table_of(s, &conf.x),
        table_of(s, &conf.y),
        table_of(s, &conf.z),
    );
    let len = pairs.len_padded();
    debug_assert_eq!(len % S::LANES, 0);
    let mut acc = s.zero();
    let mut k = 0;
    while k < len {
        let vi = s.load_i32(&pairs.i[k..]);
        let vj = s.load_i32(&pairs.j[k..]);
        let d = (
            s.sub(s.lookup2(tx.0, tx.1, vi), s.lookup2(tx.0, tx.1, vj)),
            s.sub(s.lookup2(ty.0, ty.1, vi), s.lookup2(ty.0, ty.1, vj)),
            s.sub(s.lookup2(tz.0, tz.1, vi), s.lookup2(tz.0, tz.1, vj)),
        );
        acc = add_pair_vector(s, acc, d, &pairs.coefs, k);
        k += S::LANES;
    }
    acc
}

#[inline(always)]
fn walk_gathered<S: Simd>(s: S, conf: &ConformSoA, pairs: &PairsSoA) -> S::V {
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
        // and after `intra_energy_kernel_walk`'s assert that `conf.x/y/z`
        // hold at least that many elements. `i`/`j` are public for
        // reading; code that overwrites them after `build` voids this.
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
pub(crate) fn wrapped(src: &[f32], extra: usize) -> [f32; WRAP_CAP] {
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

/// [`intra_energy_simd`] with the walk forced instead of selected — for
/// testing the walks against each other and for `ablation_soa`, as
/// [`PairsSoA::build_as`] forces a layout.
///
/// # Panics
/// As [`intra_energy_simd`]; also if `walk` is `Table` for a ligand of
/// more than `2 · level.lanes()` atoms, or `Rows` for `pairs` built
/// without them.
pub fn intra_energy_simd_walk(
    level: SimdLevel,
    conf: &ConformSoA,
    pairs: &PairsSoA,
    walk: IntraWalk,
) -> f32 {
    dispatch!(level, |s| intra_energy_kernel_walk(s, conf, pairs, walk))
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

    /// The energy by every walk that can run `pairs` at `level`: the
    /// selected one first, then each forced.
    fn all_walks(level: SimdLevel, conf: &ConformSoA, pairs: &PairsSoA) -> Vec<(String, f32)> {
        let mut out = vec![(
            "selected".to_string(),
            intra_energy_simd(level, conf, pairs),
        )];
        let mut walks = vec![IntraWalk::Gathered];
        if pairs.atoms() <= 2 * level.lanes() {
            walks.push(IntraWalk::Table);
        }
        if pairs.layout() == PairLayout::Rows {
            walks.push(IntraWalk::Rows);
        }
        for walk in walks {
            let e = intra_energy_simd_walk(level, conf, pairs, walk);
            out.push((format!("{walk:?}"), e));
        }
        out
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
                        for (walk, got) in all_walks(level, &conf, &pairs) {
                            assert!(
                                (got - want).abs() < 2e-3 * want.abs().max(1.0),
                                "{heavy} heavy, seed {seed}, {level} {walk}: {got} vs {want}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tiny_ligands_score_the_same_by_every_walk() {
        // Rows shorter than one vector, N below the widest lane count, a
        // wrapped copy that laps the molecule more than once; tables with
        // an empty upper register.
        for heavy in 2..12 {
            let (m, topo, conf) = prep_sized(heavy as u64, heavy, 0);
            for pairs in both_layouts(&m, &topo) {
                let want = intra_energy_reference(&conf, &pairs);
                for level in SimdLevel::available() {
                    for (walk, got) in all_walks(level, &conf, &pairs) {
                        assert!(
                            (got - want).abs() < 2e-3 * want.abs().max(1.0),
                            "{} atoms, {level} {walk}: {got} vs {want}",
                            conf.n
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn selection_prefers_the_table_where_the_backend_has_one() {
        let (m, topo, _) = prep_sized(1, 25, 5);
        assert!(m.atoms.len() <= 32);
        let (l, _, _) = prep_sized(1, 48, 10);
        assert!(l.atoms.len() > 32);
        let large = PairsSoA::build(&l, &Topology::build(&l), &PairTable::new());
        assert_eq!(large.layout(), PairLayout::Rows);
        for level in SimdLevel::available() {
            for pairs in both_layouts(&m, &topo) {
                let want = match (level, pairs.layout()) {
                    (SimdLevel::Avx512, _) => IntraWalk::Table,
                    (SimdLevel::Scalar, _) | (_, PairLayout::Packed) => IntraWalk::Gathered,
                    (_, PairLayout::Rows) => IntraWalk::Rows,
                };
                assert_eq!(IntraWalk::selected(level, &pairs), want, "{level}");
            }
            let want = match level {
                SimdLevel::Scalar => IntraWalk::Gathered,
                _ => IntraWalk::Rows,
            };
            assert_eq!(IntraWalk::selected(level, &large), want, "{level}");
        }
    }

    #[test]
    #[should_panic(expected = "exceed a two-register table")]
    fn a_forced_table_walk_refuses_a_ligand_it_cannot_hold() {
        let (_m, _t, conf, pairs) = prep(3);
        intra_energy_simd_walk(SimdLevel::Scalar, &conf, &pairs, IntraWalk::Table);
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
