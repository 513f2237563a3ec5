//! Intermolecular (inter-energy) scoring — Algorithm 2, lines 4–9, after
//! AutoGrid memoization: per ligand atom, one trilinear lookup in the
//! atom-type map plus charge-scaled lookups in the electrostatic and
//! desolvation maps.
//!
//! This is the paper's *memory-bound* kernel: 24 corner values per atom
//! and map triple, fetched from maps that are megabytes large, stressing
//! cache hierarchy and memory bandwidth (Sections V and VIII-b).
//!
//! Atoms outside the grid box are clamped to it and charged a linear
//! penalty per Å of excursion, keeping the GA inside the sampled region.
//!
//! # Paired corners
//!
//! The maps are x-fastest, so the eight corners of a cell are four
//! x-adjacent pairs `(c000,c100) (c010,c110) (c001,c101) (c011,c111)`,
//! each 8 contiguous bytes. `trilerp` fetches each pair with one
//! [`Simd::gather_pair_unchecked`]: on AVX-512 and AVX2 that is one 8-byte
//! load per lane, split into the two corners in registers — 12 gathers and
//! 192 element loads per 16-lane atom-vector where single gathers issue
//! 24 and 384. Everywhere else the operation's default *is* the two single
//! gathers. Either way the same floats reach the same interpolation
//! arithmetic, so energies are bit-identical to single gathers
//! ([`inter_energy_simd_single_gathers`] keeps that form for tests).
//!
//! # Why the unchecked gathers stay inside `GridSet::data`
//!
//! Per call the kernel asserts, on the lattice itself: every axis has
//! `n ≥ 2` points, `data.len() == NUM_MAPS · nx·ny·nz`, and
//! `data.len() < 2²⁴` (so all f32 index arithmetic is exact). Per
//! atom-vector it clamps, in registers: each grid coordinate to
//! `[0, h]` with `h = min((n−1) − 1e-4, pred(n−1))`, where `pred` is the
//! next float below — so `trunc` gives a cell index in `0 ..= n−2` (NaN
//! coordinates clamp to 0: `max(NaN, 0) = 0` at every level), *also* on
//! axes of 2050 points and more, where `(n−1) − 1e-4` alone rounds back to
//! `n−1`; and the atom-type index to `0 ..= NUM_TYPES−1`. The lowest
//! corner index of a lane is then `m·stride + cell ≥ 0` and the highest,
//! `+ nx·ny + nx + 1`, at most `m·stride + stride − 1` for a map slot
//! `m < NUM_MAPS`: `idx ≥ 0` and `idx + 1 < data.len()` for each of the
//! four pair gathers. [`DockingEngine::new`](crate::DockingEngine::new)
//! and `CampaignBuilder::build` reject one-point axes with a typed error
//! long before a kernel would trip the assert.

use mudock_ff::types::NUM_TYPES;
use mudock_grids::{GridSet, DESOLV_MAP, ELEC_MAP, NUM_MAPS};
use mudock_mol::{AtomStatics, ConformSoA};
use mudock_simd::traits::gather_pair_default;
use mudock_simd::{dispatch, Simd, SimdLevel};

/// Penalty slope for atoms outside the grid box (kcal/mol per Å).
pub const OUT_OF_BOX_PENALTY: f32 = 1_000.0;

/// One recorded map access (for the cache-model trace in `mudock-archsim`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GridAccess {
    /// Map slot (atom type index, `ELEC_MAP`, or `DESOLV_MAP`).
    pub map: u16,
    /// Linear cell index of the 000 corner of the trilinear fetch.
    pub cell: u32,
}

/// Scalar reference implementation over [`mudock_grids::trilinear`].
pub fn inter_energy_reference(gs: &GridSet, conf: &ConformSoA, st: &AtomStatics) -> f32 {
    inter_reference_impl(gs, conf, st, &mut None)
}

/// Scalar reference that also records every map access — used by the
/// architecture model to drive its cache simulator with the *actual*
/// lookup stream of the docking run.
pub fn inter_energy_traced(
    gs: &GridSet,
    conf: &ConformSoA,
    st: &AtomStatics,
    trace: &mut Vec<GridAccess>,
) -> f32 {
    let mut t = Some(std::mem::take(trace));
    let e = inter_reference_impl(gs, conf, st, &mut t);
    *trace = t.unwrap();
    e
}

fn inter_reference_impl(
    gs: &GridSet,
    conf: &ConformSoA,
    st: &AtomStatics,
    trace: &mut Option<Vec<GridAccess>>,
) -> f32 {
    let dims = gs.dims;
    let mut total = 0.0f32;
    for i in 0..conf.n {
        let p = conf.pos(i);
        let ty = st.ty[i] as usize;
        let e_t = gs.sample(ty, p);
        let e_e = st.charge[i] * gs.sample(ELEC_MAP, p);
        let e_d = st.charge[i].abs() * gs.sample(DESOLV_MAP, p);
        let pen = OUT_OF_BOX_PENALTY * dims.distance_outside(p);
        total += e_t + e_e + e_d + pen;
        if let Some(tr) = trace.as_mut() {
            let cell = cell000(gs, p);
            tr.push(GridAccess {
                map: ty as u16,
                cell,
            });
            tr.push(GridAccess {
                map: ELEC_MAP as u16,
                cell,
            });
            tr.push(GridAccess {
                map: DESOLV_MAP as u16,
                cell,
            });
        }
    }
    total
}

/// Linear index of the 000 corner the trilinear sample of `p` touches.
fn cell000(gs: &GridSet, p: mudock_mol::Vec3) -> u32 {
    let d = &gs.dims;
    let g = d.to_grid_units(p);
    let ix = (g.x.clamp(0.0, (d.npts[0] - 1) as f32) as u32).min(d.npts[0] - 2);
    let iy = (g.y.clamp(0.0, (d.npts[1] - 1) as f32) as u32).min(d.npts[1] - 2);
    let iz = (g.z.clamp(0.0, (d.npts[2] - 1) as f32) as u32).min(d.npts[2] - 2);
    d.linear(ix, iy, iz) as u32
}

/// Width-generic inter-energy kernel: vectorized trilinear interpolation
/// with paired gathers into the concatenated map buffer (module docs).
///
/// # Panics
/// If `gs` has an axis of fewer than 2 points, a `data` buffer that is not
/// `NUM_MAPS` maps of its lattice, or 2²⁴ values or more; if `conf` or
/// `st` are shorter than `conf`'s padded length.
#[inline(always)]
pub fn inter_energy_kernel<S: Simd>(
    s: S,
    gs: &GridSet,
    conf: &ConformSoA,
    st: &AtomStatics,
) -> f32 {
    inter_kernel::<S, false>(s, gs, conf, st)
}

/// The kernel body; `SINGLE` replaces every paired gather by the
/// operation's default (two single gathers), whatever the backend has.
#[inline(always)]
fn inter_kernel<S: Simd, const SINGLE: bool>(
    s: S,
    gs: &GridSet,
    conf: &ConformSoA,
    st: &AtomStatics,
) -> f32 {
    let dims = &gs.dims;
    let (nx, ny, nz) = (dims.npts[0], dims.npts[1], dims.npts[2]);
    let data = gs.data.as_slice();
    // What the SAFETY argument below stands on (module docs); the length
    // bound also keeps every integer in the f32 index arithmetic inside
    // the 24-bit mantissa.
    assert!(
        nx >= 2 && ny >= 2 && nz >= 2,
        "lattice {:?} has an axis without a cell",
        dims.npts
    );
    assert!(
        data.len() == NUM_MAPS * gs.stride() && data.len() < (1 << 24),
        "grid buffer of {} values for lattice {:?}",
        data.len(),
        dims.npts
    );
    let stride = gs.stride() as f32;

    let inv_sp = s.splat(1.0 / dims.spacing);
    let (ox, oy, oz) = (
        s.splat(dims.origin.x),
        s.splat(dims.origin.y),
        s.splat(dims.origin.z),
    );
    let (bx, by, bz) = ((nx - 1) as f32, (ny - 1) as f32, (nz - 1) as f32);
    // Upper clamp strictly inside the last cell so trunc() lands on n-2:
    // `b − 1e-4` below 2050 points, where it is at least one float below
    // `b`; the next float below `b` from there on, where it would round
    // back to `b`.
    let inside = |b: f32| (b - 1e-4).min(b.next_down());
    let (hx, hy, hz) = (
        s.splat(inside(bx)),
        s.splat(inside(by)),
        s.splat(inside(bz)),
    );
    let (bx, by, bz) = (s.splat(bx), s.splat(by), s.splat(bz));
    let zero = s.zero();
    let nxf = s.splat(nx as f32);
    let nyf = s.splat(ny as f32);
    let sy = nx as i32;
    let sz = (nx * ny) as i32;
    let elec_base = s.splat_i32((ELEC_MAP * gs.stride()) as i32);
    let des_base = s.splat_i32((DESOLV_MAP * gs.stride()) as i32);
    let stride_f = s.splat(stride);
    let max_ty = s.splat((NUM_TYPES - 1) as f32);
    let pen_slope = s.splat(OUT_OF_BOX_PENALTY * dims.spacing);

    let mut acc = s.zero();
    let len = conf.len_padded();
    let mut i = 0;
    while i < len {
        let px = s.load(&conf.x[i..]);
        let py = s.load(&conf.y[i..]);
        let pz = s.load(&conf.z[i..]);
        // Continuous grid coordinates.
        let gx = s.mul(s.sub(px, ox), inv_sp);
        let gy = s.mul(s.sub(py, oy), inv_sp);
        let gz = s.mul(s.sub(pz, oz), inv_sp);

        // Out-of-box distance (in grid units; converted by pen_slope).
        let out_x = s.add(s.max(s.neg(gx), zero), s.max(s.sub(gx, bx), zero));
        let out_y = s.add(s.max(s.neg(gy), zero), s.max(s.sub(gy, by), zero));
        let out_z = s.add(s.max(s.neg(gz), zero), s.max(s.sub(gz, bz), zero));
        let out2 = s.mul_add(out_z, out_z, s.mul_add(out_y, out_y, s.mul(out_x, out_x)));
        let penalty = s.mul(pen_slope, s.sqrt(out2));

        // Clamp into the box, split integer cell + fraction.
        let cx = s.min(s.max(gx, zero), hx);
        let cy = s.min(s.max(gy, zero), hy);
        let cz = s.min(s.max(gz, zero), hz);
        let ixi = s.trunc_i32(cx);
        let iyi = s.trunc_i32(cy);
        let izi = s.trunc_i32(cz);
        let ixf = s.i32_to_f32(ixi);
        let iyf = s.i32_to_f32(iyi);
        let izf = s.i32_to_f32(izi);
        let fx = s.sub(cx, ixf);
        let fy = s.sub(cy, iyf);
        let fz = s.sub(cz, izf);

        // cell = (iz*ny + iy)*nx + ix — exact in f32 (< 2^24).
        let cell_f = s.mul_add(s.mul_add(izf, nyf, iyf), nxf, ixf);

        // Type map base = ty * stride, again exact in f32. The clamp is
        // the identity on every index `AtomStatics::from_molecule` writes.
        let ty_f = s.i32_to_f32(s.load_i32(&st.ty[i..]));
        let ty_f = s.min(s.max(ty_f, zero), max_ty);
        let t_idx = s.round_i32(s.mul_add(ty_f, stride_f, cell_f));
        let cell_i = s.round_i32(cell_f);
        let e_idx = s.i32_add(elec_base, cell_i);
        let d_idx = s.i32_add(des_base, cell_i);

        // SAFETY: the two asserts above and the coordinate and type clamps
        // of this iteration put every lane's 000-corner at
        // `m·stride + cell` with `m < NUM_MAPS`, `cell ≥ 0` and
        // `cell + sz + sy + 1 ≤ stride − 1` (ix ≤ nx−2, iy ≤ ny−2,
        // iz ≤ nz−2), which is `trilerp`'s contract for `data`.
        let (e_t, e_e, e_d) = unsafe {
            (
                trilerp::<S, SINGLE>(s, data, t_idx, sy, sz, fx, fy, fz),
                trilerp::<S, SINGLE>(s, data, e_idx, sy, sz, fx, fy, fz),
                trilerp::<S, SINGLE>(s, data, d_idx, sy, sz, fx, fy, fz),
            )
        };

        let q = s.load(&st.charge[i..]);
        let qa = s.abs(q);
        let e = s.mul_add(q, e_e, s.mul_add(qa, e_d, s.add(e_t, penalty)));
        // Padding lanes zero out here.
        acc = s.mul_add(s.load(&st.wt[i..]), e, acc);
        i += S::LANES;
    }
    s.reduce_add(acc)
}

/// `(data[idx], data[idx + 1])`: the backend's paired gather, or with
/// `SINGLE` the two single gathers that are its default.
///
/// # Safety
/// Every lane needs `0 <= idx` and `idx + 1 < data.len()`.
#[inline(always)]
unsafe fn corner_pair<S: Simd, const SINGLE: bool>(s: S, data: &[f32], idx: S::VI) -> (S::V, S::V) {
    if SINGLE {
        gather_pair_default(s, data, idx)
    } else {
        s.gather_pair_unchecked(data, idx)
    }
}

/// Fetch the 8 trilinear corners of the cell at `idx000` as four
/// x-adjacent pairs and interpolate.
///
/// # Safety
/// Every lane needs `0 <= idx000` and `idx000 + sz + sy + 1 < data.len()`
/// with `sy, sz ≥ 0`: the four pair gathers start at `idx000`, `+ sy`,
/// `+ sz` and `+ sz + sy`, and each reads its index and the one after.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // one cell: base index, two strides, three fractions
unsafe fn trilerp<S: Simd, const SINGLE: bool>(
    s: S,
    data: &[f32],
    idx000: S::VI,
    sy: i32,
    sz: i32,
    fx: S::V,
    fy: S::V,
    fz: S::V,
) -> S::V {
    let i010 = s.i32_add(idx000, s.splat_i32(sy));
    let i001 = s.i32_add(idx000, s.splat_i32(sz));
    let i011 = s.i32_add(i001, s.splat_i32(sy));

    // SAFETY: the caller's contract bounds the largest of the four,
    // `i011`, by `i011 + 1 < data.len()`, and the smallest, `idx000`, by 0.
    let ((c000, c100), (c010, c110), (c001, c101), (c011, c111)) = unsafe {
        (
            corner_pair::<S, SINGLE>(s, data, idx000),
            corner_pair::<S, SINGLE>(s, data, i010),
            corner_pair::<S, SINGLE>(s, data, i001),
            corner_pair::<S, SINGLE>(s, data, i011),
        )
    };

    let c00 = s.mul_add(fx, s.sub(c100, c000), c000);
    let c10 = s.mul_add(fx, s.sub(c110, c010), c010);
    let c01 = s.mul_add(fx, s.sub(c101, c001), c001);
    let c11 = s.mul_add(fx, s.sub(c111, c011), c011);
    let c0 = s.mul_add(fy, s.sub(c10, c00), c00);
    let c1 = s.mul_add(fy, s.sub(c11, c01), c01);
    s.mul_add(fz, s.sub(c1, c0), c0)
}

/// Dispatch the inter kernel at a runtime-selected level.
///
/// # Panics
/// As [`inter_energy_kernel`].
pub fn inter_energy_simd(
    level: SimdLevel,
    gs: &GridSet,
    conf: &ConformSoA,
    st: &AtomStatics,
) -> f32 {
    dispatch!(level, |s| inter_energy_kernel(s, gs, conf, st))
}

/// [`inter_energy_simd`] with every paired corner gather replaced by two
/// single gathers — the oracle the paired path is pinned to, bit for bit.
pub fn inter_energy_simd_single_gathers(
    level: SimdLevel,
    gs: &GridSet,
    conf: &ConformSoA,
    st: &AtomStatics,
) -> f32 {
    dispatch!(level, |s| inter_kernel::<_, true>(s, gs, conf, st))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mudock_ff::types::AtomType;
    use mudock_grids::{GridBuilder, GridDims};
    use mudock_mol::Vec3;
    use mudock_molio::{synthetic_ligand, synthetic_receptor, LigandSpec};

    fn setup() -> (GridSet, ConformSoA, AtomStatics) {
        let rec = synthetic_receptor(5, 120, 8.0);
        let lig = synthetic_ligand(
            6,
            LigandSpec {
                heavy_atoms: 18,
                torsions: 4,
            },
        );
        let types: Vec<AtomType> = {
            let mut t: Vec<AtomType> = lig.atoms.iter().map(|a| a.ty).collect();
            t.sort_unstable();
            t.dedup();
            t
        };
        let dims = GridDims::centered(Vec3::ZERO, 10.0, 0.6);
        let gs = GridBuilder::new(&rec, dims)
            .with_types(&types)
            .build_simd(SimdLevel::detect());
        let conf = ConformSoA::from_molecule(&lig);
        let st = AtomStatics::from_molecule(&lig);
        (gs, conf, st)
    }

    #[test]
    fn kernel_matches_reference_all_levels() {
        let (gs, conf, st) = setup();
        let want = inter_energy_reference(&gs, &conf, &st);
        for level in SimdLevel::available() {
            let got = inter_energy_simd(level, &gs, &conf, &st);
            assert!(
                (got - want).abs() < 2e-3 * want.abs().max(1.0),
                "{level}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn out_of_box_atoms_pay_penalty() {
        let (gs, mut conf, st) = setup();
        let base = inter_energy_reference(&gs, &conf, &st);
        // Push one atom 3 Å past the box edge.
        let edge = gs.dims.max_corner();
        conf.set_pos(0, edge + Vec3::new(3.0, 0.0, 0.0));
        let shifted = inter_energy_reference(&gs, &conf, &st);
        assert!(
            shifted > base + 0.9 * 3.0 * OUT_OF_BOX_PENALTY,
            "penalty missing: {base} -> {shifted}"
        );
        // SIMD path sees the same penalty.
        for level in SimdLevel::available() {
            let got = inter_energy_simd(level, &gs, &conf, &st);
            assert!(
                (got - shifted).abs() < 2e-2 * shifted.abs().max(1.0),
                "{level}: {got} vs {shifted}"
            );
        }
    }

    #[test]
    fn trace_records_three_lookups_per_atom() {
        let (gs, conf, st) = setup();
        let mut trace = Vec::new();
        let _ = inter_energy_traced(&gs, &conf, &st, &mut trace);
        assert_eq!(trace.len(), conf.n * 3);
        let stride = gs.stride() as u32;
        for a in &trace {
            assert!(a.cell < stride, "cell index inside one map");
        }
        // The three lookups per atom hit the same cell in different maps.
        for chunk in trace.chunks(3) {
            assert_eq!(chunk[0].cell, chunk[1].cell);
            assert_eq!(chunk[1].cell, chunk[2].cell);
            assert_eq!(chunk[1].map, ELEC_MAP as u16);
            assert_eq!(chunk[2].map, DESOLV_MAP as u16);
        }
    }

    #[test]
    fn charges_scale_elec_contribution() {
        let (gs, conf, mut st) = setup();
        let e1 = inter_energy_reference(&gs, &conf, &st);
        for q in st.charge.iter_mut() {
            *q = 0.0;
        }
        let e0 = inter_energy_reference(&gs, &conf, &st);
        // Chargeless ligand keeps only the type-map part.
        assert!((e0 - e1).abs() > 1e-6 || e1 == e0, "sanity");
        let mut sum_types = 0.0;
        for i in 0..conf.n {
            sum_types += gs.sample(st.ty[i] as usize, conf.pos(i));
        }
        assert!((e0 - sum_types).abs() < 1e-2 * sum_types.abs().max(1.0));
    }
}
