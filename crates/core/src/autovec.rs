//! The portable arm: loop drivers the compiler vectorizes.
//!
//! [`Backend::AutoVec`](crate::Backend::AutoVec) scores with the three
//! functions of this module. They run the *same per-lane math* as the
//! explicit arm — [`vterms::pair_energy`], `simd::math::exp_bounded`
//! inside it, the trilinear formula of [`super::scoring::inter`] —
//! instantiated at a one-lane token, and differ from
//! `Explicit(SimdLevel::Scalar)` only in the loops around that math: safe
//! Rust, no intrinsics, no per-ISA source, and a shape the loop vectorizer
//! turns into packed instructions at whatever ISA the enclosing function
//! is compiled for.
//!
//! The transform, [`apply_pose_simd`], serves every backend but the
//! reference: the explicit arm calls it at its own level, so both arms
//! pose from this one body and differ only in how they score the pose.
//! A change to its bits moves the explicit arm's scores too, so
//! `tests/autovec_equivalence.rs` pins them per arithmetic class.
//!
//! # Frames
//!
//! That ISA is the host's, not the build's. Each driver body is an
//! `#[inline(always)]` function generic over the one-lane token, and each
//! entry point instantiates it, through `mudock-simd`'s
//! [`in_frame!`](mudock_simd::in_frame), inside the *frame* it is given:
//!
//! * On a CPU with AVX-512F or AVX2+FMA, the body runs at
//!   [`OneLane<true>`](mudock_simd::OneLane) inside the `#[target_feature]` region
//!   that `Simd::vectorize` of that level already provides (through
//!   `dispatch!`, like every explicit kernel). The wide token `dispatch!`
//!   hands over is ignored: no operation of it is called, it only proves
//!   the CPU runs the frame. Inside the frame the compiler vectorizes the
//!   same sixteen-lane loops with `zmm` / `ymm` registers, hardware
//!   gathers where its cost model wants them (`intra`'s packed walk at
//!   512 bits; `inter`'s corner fetches stay scalar loads), and —
//!   because the fused token's `mul_add` is `f32::mul_add` — packed
//!   `vfmadd`.
//! * Anywhere else (no AVX2+FMA, or not x86-64) the body runs at
//!   [`Scalar`](mudock_simd::Scalar) in place, compiled for the build's
//!   baseline ISA (SSE2 on plain `x86-64`, NEON on `aarch64`, wider under
//!   `-C target-cpu=…`): the *baseline* frame. On such a host this arm is
//!   also the default backend (`Backend::auto`).
//!
//! There is no frame-less form. A dock's frame is read once, by
//! [`DockingEngine::new`](crate::DockingEngine::new) from
//! [`mudock_simd::frame`]: the widest the CPU runs, selected by no flag,
//! env var, config field or wire value.
//!
//! The fused token is only ever instantiated inside an FMA frame. It would
//! be *safe* elsewhere — `f32::mul_add` without FMA hardware is a libm
//! `fmaf` call, never UB, which is why this module needs no `unsafe` and
//! no proof token of its own — but ten times slower; `codegen_autovec`
//! fails on any `fmaf` call in the module's code.
//!
//! # Two arithmetic classes
//!
//! The lane count (16) and the reduction tree are fixed in the source, so
//! register width cannot reorder a sum: the AVX2 and AVX-512 frames give
//! `to_bits`-equal scores, and differ from the baseline frame only by
//! fusion (one rounding per `mul_add` instead of two). A score therefore
//! belongs to one of two classes, [`arithmetic_at`] `"fused"` or
//! `"unfused"`; the class, not the frame, is what must match before
//! stored scores are merged with new ones (`mudock-serve` hashes it into
//! its checkpoint key), and a job scattered over hosts of both classes
//! merges sub-rankings no single host would reproduce bit for bit.
//!
//! # The loop shape
//!
//! Each line is one of the code transformations the paper's Section IX
//! names, with what happens without it:
//!
//! 1. **Lane loops over fixed-size chunks.** Every inner loop is
//!    `for l in 0..W` over `&[T; W]` chunks (`W` = [`PAD`], the padding
//!    every SoA array already has), obtained once per array with
//!    `as_chunks`. Indexing a slice as `a[k + l]` instead leaves a bounds
//!    check per lane, which is a second loop exit: the vectorizer peels
//!    the lanes into a scalar epilogue.
//! 2. **Per-lane partial sums.** Energies accumulate into `[f32; W]` and
//!    are reduced once per call in a fixed tree order; the cutoff is a
//!    select, never an early exit.
//! 3. **Clamped indices instead of checked ones.** An indexed load is
//!    `t[idx.min(n − 1)]` behind an up-front `assert!(n > 0)`, with `t` a
//!    local slice whose length the compiler can see is `n`: that lets it
//!    drop the bounds check in safe code (tables kept in an array, or
//!    an `n` from a `saturating_sub`, and the check stays next to the
//!    clamp). The clamp is the identity on every index the kernels
//!    compute from valid input and turns a corrupt one into a
//!    wrong-but-in-bounds read; the loop has no panic edge, so a frame
//!    with hardware gathers may use them.
//! 4. **Loop fission around indexed loads.** `inter` is three lane loops
//!    per chunk — coordinates → cell indices and fractions, then the 24
//!    corner fetches into stack arrays, then interpolation — and the
//!    packed `intra` walk fetches displacements before it evaluates them.
//!    Fused, the scalar loads sit between the vector operations and the
//!    loop runs no faster than one lane.
//! 5. **Helpers are `#[inline(always)]` functions**, never closures the
//!    inliner may leave behind: one call left in a lane loop keeps the
//!    whole loop scalar.
//! 6. **No float→int cast.** `x as i32` saturates, SSE2 has no packed
//!    instruction that does, and the vectorizer emits a compare-and-
//!    convert sequence per lane. `inter` takes ⌊c⌋ and the integer value
//!    of its exact-in-f32 cell index from float alignment at 2²³
//!    (`split_cell`, `small_int`) — the one place the per-lane math is
//!    not the explicit kernel's operation for operation; the values are
//!    the same integers.
//!
//! The entry points are deliberately non-generic and `#[inline(never)]`:
//! `codegen_autovec` in `mudock-bench` finds `apply_pose_simd`,
//! `inter_energy_autovec_at` and `intra_energy_autovec_at` by symbol (the
//! baseline body is inlined there), follows their calls to the frames'
//! `vectorize::inner` instances, and fails when a packed-to-scalar
//! instruction ratio drops.
//!
//! Scores differ from `Explicit(Scalar)` in the last bits (sixteen
//! partial sums instead of one, and fusion in a wide frame) and are
//! deterministic: the reduction order is written out, not left to the
//! compiler.

// `for l in 0..W` indexing several `[T; W]` arrays is the shape that
// vectorizes (point 1 above); iterator chains over eight zipped arrays
// are not clearer.
#![allow(clippy::needless_range_loop)]

use mudock_ff::params::NB_CUTOFF;
use mudock_ff::types::NUM_TYPES;
use mudock_ff::vterms::{self, PairCoefs};
use mudock_grids::{GridSet, DESOLV_MAP, ELEC_MAP, NUM_MAPS};
use mudock_mol::{AtomStatics, ConformSoA, Quat, PAD};
use mudock_simd::{in_frame, is_wide, Simd, SimdLevel};

use crate::genotype::Genotype;
use crate::scoring::inter::OUT_OF_BOX_PENALTY;
use crate::scoring::intra::wrapped;
use crate::scoring::pairs::{HalfShellRows, PairCoefStreams, PairsSoA};
use crate::transform::TorsionPlan;

/// Lanes per chunk.
const W: usize = PAD;
const _: () = assert!(W.is_power_of_two(), "reduce_tree halves W down to 1");

type Lanes = [f32; W];

/// A one-lane token: what the lane loops run their per-lane math at.
trait Lane: Simd<V = f32, VI = i32, M = bool> {}
impl<S: Simd<V = f32, VI = i32, M = bool>> Lane for S {}

/// What a frame is called in reports: the level's name, `"baseline"` for
/// every level without a frame of its own.
pub fn frame_name(frame: SimdLevel) -> &'static str {
    if is_wide(frame) {
        frame.name()
    } else {
        "baseline"
    }
}

/// The arithmetic class of the scores computed in `frame` (module docs):
/// `"fused"` in the AVX2 and AVX-512 frames, `"unfused"` below. Scores of
/// one class are bit-identical whatever the frame; scores of different
/// classes differ in the last bits and must never be merged.
pub fn arithmetic_at(frame: SimdLevel) -> &'static str {
    if is_wide(frame) {
        "fused"
    } else {
        "unfused"
    }
}

/// The first `len` elements of `a` as whole lane-chunks.
///
/// # Panics
/// If `a` is shorter than `len`, or `len` is not a multiple of `W` (every
/// SoA array of the workspace is padded to it).
#[inline(always)]
fn lanes<T>(a: &[T], len: usize) -> &[[T; W]] {
    let (chunks, rest) = a[..len].as_chunks();
    assert!(rest.is_empty(), "{len} slots are not padded to {W}");
    chunks
}

#[inline(always)]
fn lanes_mut(a: &mut [f32], len: usize) -> &mut [Lanes] {
    let (chunks, rest) = a[..len].as_chunks_mut();
    assert!(rest.is_empty(), "{len} slots are not padded to {W}");
    chunks
}

/// Sum of the lanes, pairing lane `l` with lane `l + w/2` at every level.
#[inline(always)]
fn reduce_tree(mut a: Lanes) -> f32 {
    let mut w = W / 2;
    while w > 0 {
        for l in 0..w {
            a[l] += a[l + w];
        }
        w /= 2;
    }
    a[0]
}

/// `m · v + t` for a row-major 3×3 `m`: per lane, three `mul_add` chains.
#[inline(always)]
fn affine<S: Lane>(s: S, m: &[f32; 9], v: [f32; 3], t: [f32; 3]) -> [f32; 3] {
    [
        s.mul_add(
            m[2],
            v[2],
            s.mul_add(m[1], v[1], s.mul_add(m[0], v[0], t[0])),
        ),
        s.mul_add(
            m[5],
            v[2],
            s.mul_add(m[4], v[1], s.mul_add(m[3], v[0], t[1])),
        ),
        s.mul_add(
            m[8],
            v[2],
            s.mul_add(m[7], v[1], s.mul_add(m[6], v[0], t[2])),
        ),
    ]
}

/// Branchless pose transform in `level`'s frame ([`SimdLevel::Scalar`]
/// names the baseline): rigid placement, then every torsion rotates *all*
/// atoms and blends by the plan's 0/1 mask, padding atoms included. The
/// one vectorized transform of the workspace (see [`crate::transform`]):
/// `Backend::Explicit(level)` calls it at `level`,
/// [`Backend::AutoVec`](crate::Backend::AutoVec) at the engine's frame.
///
/// # Panics
/// If `base`, `out` or a plan's mask is shorter than `base`'s padded
/// length, that length is not a multiple of [`PAD`], or `level` is a wide
/// level the host does not support.
#[inline(never)]
pub fn apply_pose_simd(
    level: SimdLevel,
    base: &ConformSoA,
    plans: &[TorsionPlan],
    g: &Genotype,
    out: &mut ConformSoA,
) {
    in_frame!(level, |s| apply_pose(s, base, plans, g, out))
}

#[inline(always)]
fn apply_pose<S: Lane>(
    s: S,
    base: &ConformSoA,
    plans: &[TorsionPlan],
    g: &Genotype,
    out: &mut ConformSoA,
) {
    debug_assert_eq!(g.n_torsions(), plans.len());
    let len = base.len_padded();

    let m = g.rotation().to_matrix();
    let t = g.translation();
    let t = [t.x, t.y, t.z];
    let (bx, by, bz) = (
        lanes(&base.x, len),
        lanes(&base.y, len),
        lanes(&base.z, len),
    );
    let (ox, oy, oz) = (
        lanes_mut(&mut out.x, len),
        lanes_mut(&mut out.y, len),
        lanes_mut(&mut out.z, len),
    );
    let posed = ox.iter_mut().zip(oy).zip(oz);
    for (((x, y), z), ((nx, ny), nz)) in bx.iter().zip(by).zip(bz).zip(posed) {
        for l in 0..W {
            [nx[l], ny[l], nz[l]] = affine(s, &m, [x[l], y[l], z[l]], t);
        }
    }

    for (k, plan) in plans.iter().enumerate() {
        let pa = out.pos(plan.a);
        let pb = out.pos(plan.b);
        let rot = Quat::from_axis_angle(pb - pa, g.torsion(k)).to_matrix();
        let a = [pa.x, pa.y, pa.z];
        let mask = lanes(&plan.mask, len);
        let (ox, oy, oz) = (
            lanes_mut(&mut out.x, len),
            lanes_mut(&mut out.y, len),
            lanes_mut(&mut out.z, len),
        );
        for (((x, y), z), w) in ox.iter_mut().zip(oy).zip(oz).zip(mask) {
            for l in 0..W {
                let p = [x[l], y[l], z[l]];
                let v = [s.sub(p[0], a[0]), s.sub(p[1], a[1]), s.sub(p[2], a[2])];
                let r = affine(s, &rot, v, a);
                // out + w · (rotated − out): w ∈ {0, 1} selects exactly.
                x[l] = s.mul_add(w[l], s.sub(r[0], p[0]), p[0]);
                y[l] = s.mul_add(w[l], s.sub(r[1], p[1]), p[1]);
                z[l] = s.mul_add(w[l], s.sub(r[2], p[2]), p[2]);
            }
        }
    }
}

/// Lane `l` of a map's eight fetched corners.
#[inline(always)]
fn corners_of(c: &[Lanes; 8], l: usize) -> [f32; 8] {
    [
        c[0][l], c[1][l], c[2][l], c[3][l], c[4][l], c[5][l], c[6][l], c[7][l],
    ]
}

/// The trilinear formula of the explicit kernel, for one lane.
#[inline(always)]
fn trilerp<S: Lane>(s: S, c: [f32; 8], fx: f32, fy: f32, fz: f32) -> f32 {
    let c00 = s.mul_add(fx, s.sub(c[1], c[0]), c[0]);
    let c10 = s.mul_add(fx, s.sub(c[3], c[2]), c[2]);
    let c01 = s.mul_add(fx, s.sub(c[5], c[4]), c[4]);
    let c11 = s.mul_add(fx, s.sub(c[7], c[6]), c[6]);
    let c0 = s.mul_add(fy, s.sub(c10, c00), c00);
    let c1 = s.mul_add(fy, s.sub(c11, c01), c01);
    s.mul_add(fz, s.sub(c1, c0), c0)
}

/// 2²³. A float in `[0, 2²³)` added to it lands in `[2²³, 2²⁴)`, where
/// floats are the integers: the sum is the addend rounded to the nearest
/// integer, and its low mantissa bits are that integer.
const ALIGN: f32 = 8_388_608.0;

/// The integer held by an integer-valued float in `[0, 2²³)`, read from
/// the mantissa of `f + 2²³`. Not `f as i32`: that cast saturates, SSE2
/// has no packed form of it, and the vectorizer falls back to sixteen
/// compare-and-convert sequences per cast.
#[inline(always)]
fn small_int<S: Lane>(s: S, f: f32) -> i32 {
    s.i32_sub(s.bitcast_f32_i32(s.add(f, ALIGN)), s.bitcast_f32_i32(ALIGN))
}

/// Clamped grid coordinate → (cell index as a float, fraction inside it).
#[inline(always)]
fn split_cell<S: Lane>(s: S, g: f32, hi: f32) -> (f32, f32) {
    // `max` first: a NaN coordinate clamps to 0, as at every explicit level.
    let c = s.min(s.max(g, 0.0), hi);
    // ⌊c⌋ without a float→int cast (see `small_int`): round to nearest,
    // step down where that rounded up.
    let nearest = s.sub(s.add(c, ALIGN), ALIGN);
    let cell = s.sub(nearest, s.select(s.gt(nearest, c), 1.0, 0.0));
    (cell, s.sub(c, cell))
}

/// Distance of grid coordinate `g` outside `[0, b]`, in grid units.
#[inline(always)]
fn outside<S: Lane>(s: S, g: f32, b: f32) -> f32 {
    s.add(s.max(s.neg(g), 0.0), s.max(s.sub(g, b), 0.0))
}

/// Inter-energy of a pose in `frame`: per atom, trilinear lookups in its
/// type map, the electrostatic map and the desolvation map, plus the
/// out-of-box penalty — the arithmetic of
/// [`inter_energy_kernel`](crate::scoring::inter::inter_energy_kernel).
///
/// Every map read is a clamped index into a window of `gs.data` (module
/// docs, point 3), so no coordinate, type index or lattice can make it
/// read out of bounds.
///
/// # Panics
/// As [`inter_energy_kernel`](crate::scoring::inter::inter_energy_kernel):
/// an axis of fewer than 2 points, a `data` buffer that is not `NUM_MAPS`
/// maps of the lattice or holds 2²⁴ values or more, `conf` or `st`
/// shorter than `conf`'s padded length; and if `frame` is a wide level
/// the host does not support.
#[inline(never)]
pub fn inter_energy_autovec_at(
    frame: SimdLevel,
    gs: &GridSet,
    conf: &ConformSoA,
    st: &AtomStatics,
) -> f32 {
    in_frame!(frame, |s| inter_energy(s, gs, conf, st))
}

#[inline(always)]
fn inter_energy<S: Lane>(s: S, gs: &GridSet, conf: &ConformSoA, st: &AtomStatics) -> f32 {
    let dims = &gs.dims;
    let [nx, ny, nz] = dims.npts;
    let data = gs.data.as_slice();
    let stride = gs.stride();
    assert!(
        nx >= 2 && ny >= 2 && nz >= 2,
        "lattice {:?} has an axis without a cell",
        dims.npts
    );
    // The length bound keeps every integer of the f32 index arithmetic
    // inside the 24-bit mantissa.
    assert!(
        data.len() == NUM_MAPS * stride && data.len() < (1 << 24),
        "grid buffer of {} values for lattice {:?}",
        data.len(),
        dims.npts
    );
    let len = conf.len_padded();

    // One window of `data` per corner (in `trilerp`'s order: c000 c100
    // c010 c110 c001 c101 c011 c111), each `cells` long and starting at
    // that corner's offset from the 000 corner: corner `k` of the cell at
    // `idx` is `w…[idx]` for every `idx < cells`.
    let (sy, sz) = (nx as usize, (nx * ny) as usize);
    let offsets = [0, 1, sy, sy + 1, sz, sz + 1, sz + sy, sz + sy + 1];
    assert!(
        data.len() > offsets[7],
        "lattice {:?} holds no cell",
        dims.npts
    );
    let cells = data.len() - offsets[7];
    // Eight locals, not an array: the compiler has to see that each
    // window's length is `cells` to drop the bounds checks.
    let w000 = &data[offsets[0]..][..cells];
    let w100 = &data[offsets[1]..][..cells];
    let w010 = &data[offsets[2]..][..cells];
    let w110 = &data[offsets[3]..][..cells];
    let w001 = &data[offsets[4]..][..cells];
    let w101 = &data[offsets[5]..][..cells];
    let w011 = &data[offsets[6]..][..cells];
    let w111 = &data[offsets[7]..][..cells];

    let inv_sp = 1.0 / dims.spacing;
    let origin = [dims.origin.x, dims.origin.y, dims.origin.z];
    let b = [(nx - 1) as f32, (ny - 1) as f32, (nz - 1) as f32];
    // Upper clamp strictly inside the last cell, as the explicit kernel's.
    let h = b.map(|b| (b - 1e-4).min(b.next_down()));
    let (nxf, nyf) = (nx as f32, ny as f32);
    const MAX_TY: i32 = NUM_TYPES as i32 - 1;
    const _: () = assert!(NUM_MAPS >= 2, "one map's cell indices stay below 2^23");
    let stride_i = stride as i32;
    let map_base = [(ELEC_MAP * stride) as i32, (DESOLV_MAP * stride) as i32];
    let pen_slope = OUT_OF_BOX_PENALTY * dims.spacing;

    let (xs, ys, zs) = (
        lanes(&conf.x, len),
        lanes(&conf.y, len),
        lanes(&conf.z, len),
    );
    let (tys, qs, wts) = (
        lanes(&st.ty, len),
        lanes(&st.charge, len),
        lanes(&st.wt, len),
    );

    let mut acc = [0.0f32; W];
    // Every slot is rewritten per chunk; declared here so it is zeroed
    // once per call.
    let mut fetched = [[[0.0f32; W]; 8]; 3];
    let statics = tys.iter().zip(qs).zip(wts);
    for (((px, py), pz), ((ty, q), wt)) in xs.iter().zip(ys).zip(zs).zip(statics) {
        // 1: coordinates → 000-corner index per map, fractions, penalty.
        let mut idx = [[0i32; W]; 3];
        let mut frac = [[0.0f32; W]; 3];
        let mut penalty = [0.0f32; W];
        for l in 0..W {
            let gx = s.mul(s.sub(px[l], origin[0]), inv_sp);
            let gy = s.mul(s.sub(py[l], origin[1]), inv_sp);
            let gz = s.mul(s.sub(pz[l], origin[2]), inv_sp);

            let (ox, oy, oz) = (
                outside(s, gx, b[0]),
                outside(s, gy, b[1]),
                outside(s, gz, b[2]),
            );
            let out2 = s.mul_add(oz, oz, s.mul_add(oy, oy, s.mul(ox, ox)));
            penalty[l] = s.mul(pen_slope, s.sqrt(out2));

            let (ix, fx) = split_cell(s, gx, h[0]);
            let (iy, fy) = split_cell(s, gy, h[1]);
            let (iz, fz) = split_cell(s, gz, h[2]);
            frac[0][l] = fx;
            frac[1][l] = fy;
            frac[2][l] = fz;

            // cell = (iz·ny + iy)·nx + ix, exact in f32 and below 2²³:
            // `data` holds at least two maps in fewer than 2²⁴ values.
            let cell = small_int(s, s.mul_add(s.mul_add(iz, nyf, iy), nxf, ix));
            // The clamp is the identity on every type index
            // `AtomStatics::from_molecule` writes.
            idx[0][l] = s.i32_add(ty[l].clamp(0, MAX_TY) * stride_i, cell);
            idx[1][l] = s.i32_add(map_base[0], cell);
            idx[2][l] = s.i32_add(map_base[1], cell);
        }

        // 2: the 24 corner fetches. The clamp is the identity: lattice
        // and type clamps above put every index at `m·stride + cell` with
        // `cell + offsets[7] < stride`.
        for (of_map, idx) in fetched.iter_mut().zip(&idx) {
            let [c000, c100, c010, c110, c001, c101, c011, c111] = of_map;
            for l in 0..W {
                let i = (idx[l] as usize).min(cells - 1);
                c000[l] = w000[i];
                c100[l] = w100[i];
                c010[l] = w010[i];
                c110[l] = w110[i];
                c001[l] = w001[i];
                c101[l] = w101[i];
                c011[l] = w011[i];
                c111[l] = w111[i];
            }
        }

        // 3: interpolate, weigh, accumulate.
        for l in 0..W {
            let (fx, fy, fz) = (frac[0][l], frac[1][l], frac[2][l]);
            let e_t = trilerp(s, corners_of(&fetched[0], l), fx, fy, fz);
            let e_e = trilerp(s, corners_of(&fetched[1], l), fx, fy, fz);
            let e_d = trilerp(s, corners_of(&fetched[2], l), fx, fy, fz);
            let e = s.mul_add(
                q[l],
                e_e,
                s.mul_add(s.abs(q[l]), e_d, s.add(e_t, penalty[l])),
            );
            // Padding lanes zero out here.
            acc[l] = s.mul_add(wt[l], e, acc[l]);
        }
    }
    reduce_tree(acc)
}

/// The coefficient streams chunk by chunk, in storage order.
#[inline(always)]
fn coef_chunks(c: &PairCoefStreams) -> impl Iterator<Item = PairCoefs<&Lanes>> {
    #[inline(always)]
    fn chunks(stream: &[f32]) -> std::slice::Iter<'_, Lanes> {
        stream.as_chunks().0.iter()
    }
    chunks(&c.rij)
        .zip(chunks(&c.c12))
        .zip(chunks(&c.c6))
        .zip(chunks(&c.c10))
        .zip(chunks(&c.qq))
        .zip(chunks(&c.sv))
        .map(|(((((rij, c12), c6), c10), qq), sv)| PairCoefs {
            rij,
            c12,
            c6,
            c10,
            qq,
            sv,
        })
}

/// `acc` plus, per lane, the energy of the pair at displacement `d` with
/// coefficients `c` if it is inside the cutoff.
#[inline(always)]
fn add_pair_lanes<S: Lane>(s: S, acc: &mut Lanes, d: &[Lanes; 3], c: PairCoefs<&Lanes>) {
    for l in 0..W {
        let (dx, dy, dz) = (d[0][l], d[1][l], d[2][l]);
        let r2 = s.mul_add(dz, dz, s.mul_add(dy, dy, s.mul(dx, dx)));
        let coefs = PairCoefs {
            rij: c.rij[l],
            c12: c.c12[l],
            c6: c.c6[l],
            c10: c.c10[l],
            qq: c.qq[l],
            sv: c.sv[l],
        };
        // `pair_energy` clamps r² itself, so lanes beyond the cutoff (or
        // NaN) are finite-or-NaN values this select discards.
        let e = vterms::pair_energy(s, r2, coefs);
        let in_cut = s.le(r2, NB_CUTOFF * NB_CUTOFF);
        acc[l] = s.add(acc[l], s.select(in_cut, e, 0.0));
    }
}

/// The packed list: fetch sixteen pairs' displacements, then score them.
#[inline(always)]
fn walk_packed<S: Lane>(s: S, conf: &ConformSoA, pairs: &PairsSoA, n: usize) -> Lanes {
    // `n > 0` (the caller's `pairs.n > 0` implies two atoms) is what
    // makes `min(n − 1)` an in-bounds index the compiler can see.
    assert!(n > 0);
    let (x, y, z) = (&conf.x[..n], &conf.y[..n], &conf.z[..n]);
    let len = pairs.len_padded();
    let (is, js) = (lanes(&pairs.i, len), lanes(&pairs.j, len));
    let mut acc = [0.0f32; W];
    for ((vi, vj), coefs) in is.iter().zip(js).zip(coef_chunks(&pairs.coefs)) {
        let mut d = [[0.0f32; W]; 3];
        for l in 0..W {
            // Negative indices wrap to huge ones and clamp like them.
            let i = (vi[l] as usize).min(n - 1);
            let j = (vj[l] as usize).min(n - 1);
            d[0][l] = x[i] - x[j];
            d[1][l] = y[i] - y[j];
            d[2][l] = z[i] - z[j];
        }
        add_pair_lanes(s, &mut acc, &d, coefs);
    }
    acc
}

/// The `W` floats of a wrapped coordinate copy from slot `p` on.
#[inline(always)]
fn lanes_at(wrapped: &[f32], p: usize) -> &Lanes {
    wrapped[p..]
        .first_chunk()
        .expect("wrapped copy holds n + stride floats")
}

/// Half-shell rows: atom `i` against its `stride` contiguous partners in
/// a wrapped copy of the pose (see [`crate::scoring::pairs`]).
#[inline(always)]
fn walk_rows<S: Lane>(s: S, conf: &ConformSoA, rows: &HalfShellRows, n: usize) -> Lanes {
    let stride = rows.stride;
    assert!(
        stride.is_multiple_of(W),
        "row stride {stride} is not padded"
    );
    let wx = wrapped(&conf.x[..n], stride);
    let wy = wrapped(&conf.y[..n], stride);
    let wz = wrapped(&conf.z[..n], stride);
    // Row-major slots are visited in storage order.
    let mut coefs = coef_chunks(&rows.coefs);
    let mut acc = [0.0f32; W];
    for i in 0..n {
        for c in (0..stride).step_by(W) {
            // Slot c of row i pairs atom i with atom (i + 1 + c) mod n.
            let p = i + 1 + c;
            let (px, py, pz) = (lanes_at(&wx, p), lanes_at(&wy, p), lanes_at(&wz, p));
            let mut d = [[0.0f32; W]; 3];
            for l in 0..W {
                d[0][l] = wx[i] - px[l];
                d[1][l] = wy[i] - py[l];
                d[2][l] = wz[i] - pz[l];
            }
            let coefs = coefs.next().expect("rows hold n · stride slots");
            add_pair_lanes(s, &mut acc, &d, coefs);
        }
    }
    acc
}

/// Intra-energy of a pose in `frame`: [`vterms::pair_energy`] over every
/// scored pair inside the cutoff. Walks half-shell rows where `pairs` has
/// them and the packed list otherwise.
///
/// Unlike the explicit kernel's gathered walk this one cannot read out of
/// bounds whatever `pairs.i` / `pairs.j` hold: a corrupt index is clamped
/// to the last atom (module docs, point 3).
///
/// # Panics
/// If `conf` is not a conformation of the molecule `pairs` was built from
/// (atom counts differ, or a coordinate array is shorter than that), or
/// `frame` is a wide level the host does not support.
#[inline(never)]
pub fn intra_energy_autovec_at(frame: SimdLevel, conf: &ConformSoA, pairs: &PairsSoA) -> f32 {
    in_frame!(frame, |s| intra_energy(s, conf, pairs))
}

#[inline(always)]
fn intra_energy<S: Lane>(s: S, conf: &ConformSoA, pairs: &PairsSoA) -> f32 {
    let n = pairs.atoms();
    assert!(
        conf.n == n && conf.x.len() >= n && conf.y.len() >= n && conf.z.len() >= n,
        "conformation of {} atoms scored against pairs of {n}",
        conf.n
    );
    if pairs.n == 0 {
        return 0.0;
    }
    reduce_tree(match pairs.rows() {
        Some(rows) => walk_rows(s, conf, rows, n),
        None => walk_packed(s, conf, pairs, n),
    })
}
