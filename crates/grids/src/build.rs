//! AutoGrid-style map precomputation (scalar reference + SIMD builders).
//!
//! For every grid point the builder accumulates, over all receptor atoms:
//!
//! * per probe-type maps: vdW/H-bond 12-6/12-10 energy plus the
//!   type-dependent half of the desolvation term;
//! * an electrostatic map per unit probe charge;
//! * a desolvation map per unit |probe charge| (the charge-dependent half).
//!
//! This is the memoization/gridification step of the paper's Section V: at
//! docking time the inter-energy of a pose reduces to table lookups.
//!
//! The SIMD builder vectorizes over *lattice points*: one vector holds
//! `S::LANES` consecutive points in the maps' linear (x-fastest) order —
//! a vector runs on across row ends, so only a map's last one is
//! partial — and meets the receptor's atoms one at a time, in index
//! order, each atom's coordinates and coefficients splatted. Each lane
//! therefore sums its point's terms over the atoms in index order, and
//! every accumulator is stored straight into its map: no horizontal
//! reduction. The short-range terms of an atom are skipped only when it
//! lies beyond the cutoff of every point in the vector — common, since a
//! vector covers a few ångström of one or two rows.
//!
//! The AVX2 and AVX-512 maps come from that builder, generic over the
//! level's `Simd` token. The [`SimdLevel::Scalar`] maps, which
//! `Reference`, `AutoVec` and `Explicit(Scalar)` dock against, come from
//! the same loop written as *lane loops* (`core::autovec`'s shape):
//! sixteen points per chunk, per-lane math in `for l in 0..16` loops at
//! the unfused one-lane `Scalar` token, run in the host's frame
//! (`mudock-simd`'s `in_frame!` at [`mudock_simd::frame`]): inside the
//! AVX-512 or AVX2 `#[target_feature]` region where the CPU has one,
//! in place, compiled for the build's baseline ISA, elsewhere. Rust
//! never contracts `a * b + c`, the atoms stay in index order and the
//! `math` exps are the same, so every lane does exactly the one-lane
//! arithmetic, whatever the frame: an atom's short-range terms reach a
//! lane's sums through a per-lane select, and a chunk skips them only
//! when no lane is within the cutoff. Those bits are pinned by the root
//! `grid_build` test; the proptest below holds the lane build in every
//! frame to `build_points` at the `Scalar` token. As no caller needs
//! another frame, `build_simd_on` reads [`mudock_simd::frame`] itself.
//!
//! One build can run on several `mudock-pool` workers
//! ([`GridBuilder::build_simd_on`]; the service builds on a job's share
//! of the node's threads). The lattice is cut into contiguous ranges of
//! points, and every map into the same ranges, so each worker writes its
//! own disjoint slices. Every range starts at a multiple of
//! [`MAX_LANES`], which every level's width and the lane loops' chunk
//! divide: each vector holds the same points as in the one-worker build,
//! each lane still sums its point over the atoms in index order, and a
//! vector skips an atom's short-range terms exactly when it did before.
//! The maps are therefore bit-identical for any worker count, at every
//! level.

use std::ops::Range;
use std::sync::Mutex;

use mudock_ff::params::{weights, PairTable, NB_CUTOFF, QSOLPAR};
use mudock_ff::terms;
use mudock_ff::types::{AtomType, NUM_TYPES};
use mudock_ff::vterms;
use mudock_mol::{Molecule, Vec3};
use mudock_simd::{dispatch, in_frame, math, Simd, SimdLevel, MAX_LANES};

use crate::dims::GridDims;
use crate::map::{GridSet, DESOLV_MAP, ELEC_MAP, NUM_MAPS};

/// One receptor atom's coefficients against one probe type.
#[derive(Clone, Copy, Default)]
struct TypeCoef {
    c12: f32,
    c6: f32,
    c10: f32,
    rij: f32,
    /// Weighted full desolvation coefficient `W_d(S_t·V_j + S_j·V_t)`.
    sv: f32,
}

/// One receptor atom as the SIMD builder reads it: scalars to splat.
struct AtomCoef {
    pos: Vec3,
    /// Electrostatic coefficient `W_e·332.06·q_j`.
    qv: f32,
    /// Charge-dependent desolvation coefficient `W_d·0.01097·V_j`.
    dv: f32,
    /// Against each probe type being built, in the builder's type order.
    per_type: [TypeCoef; NUM_TYPES],
}

impl AtomCoef {
    fn all(receptor: &Molecule, types: &[AtomType], table: &PairTable) -> Vec<AtomCoef> {
        receptor
            .atoms
            .iter()
            .map(|a| {
                let vj = mudock_ff::params::type_params(a.ty).vol;
                let sj = terms::solvation_param(a.ty, a.charge);
                let mut per_type = [TypeCoef::default(); NUM_TYPES];
                for (c, &ty) in per_type.iter_mut().zip(types) {
                    let pt = mudock_ff::params::type_params(ty);
                    let k = PairTable::index(ty, a.ty);
                    *c = TypeCoef {
                        c12: table.c12[k],
                        c6: table.c6[k],
                        c10: table.c10[k],
                        rij: table.rij[k],
                        sv: weights::DESOLV * (pt.solpar * vj + sj * pt.vol),
                    };
                }
                AtomCoef {
                    pos: a.pos,
                    qv: vterms::premult::qq(1.0, a.charge),
                    dv: weights::DESOLV * QSOLPAR * vj,
                    per_type,
                }
            })
            .collect()
    }
}

/// Configurable grid-set builder. The short-range (vdW/desolvation)
/// cutoff is the force field's [`NB_CUTOFF`], not a setting: neither the
/// cache key nor the spill header records a cutoff, so maps built with
/// two different ones would be indistinguishable.
pub struct GridBuilder<'a> {
    receptor: &'a Molecule,
    dims: GridDims,
    types: Vec<AtomType>,
}

impl<'a> GridBuilder<'a> {
    /// Build maps for all 14 atom types by default.
    pub fn new(receptor: &'a Molecule, dims: GridDims) -> GridBuilder<'a> {
        GridBuilder {
            receptor,
            dims,
            types: AtomType::ALL.to_vec(),
        }
    }

    /// Restrict to the type maps actually needed (AutoGrid is told the
    /// ligand types up front; building fewer maps is much cheaper).
    pub fn with_types(mut self, types: &[AtomType]) -> Self {
        let mut ts = types.to_vec();
        ts.sort_unstable();
        ts.dedup();
        self.types = ts;
        self
    }

    /// Scalar reference build.
    pub fn build_scalar(&self) -> GridSet {
        let table = PairTable::new();
        let mut gs = GridSet::empty(self.dims);
        let [nx, ny, nz] = self.dims.npts;
        let atoms = &self.receptor.atoms;

        // Pre-resolve per-atom solvation data once.
        let sj: Vec<f32> = atoms
            .iter()
            .map(|a| terms::solvation_param(a.ty, a.charge))
            .collect();
        let vj: Vec<f32> = atoms
            .iter()
            .map(|a| mudock_ff::params::type_params(a.ty).vol)
            .collect();

        for iz in 0..nz {
            for iy in 0..ny {
                for ix in 0..nx {
                    let p = self.dims.point(ix, iy, iz);
                    let cell = self.dims.linear(ix, iy, iz);
                    let mut elec = 0.0f32;
                    let mut des = 0.0f32;
                    for (j, a) in atoms.iter().enumerate() {
                        let r = p.distance(a.pos);
                        elec += terms::electrostatic(1.0, a.charge, r);
                        if r <= NB_CUTOFF {
                            let g = (-(r * r)
                                / (2.0
                                    * mudock_ff::params::DESOLV_SIGMA
                                    * mudock_ff::params::DESOLV_SIGMA))
                                .exp();
                            des += weights::DESOLV * QSOLPAR * vj[j] * g;
                            for ty in &self.types {
                                let pt = mudock_ff::params::type_params(*ty);
                                let k = PairTable::index(*ty, a.ty);
                                let e = terms::vdw_hbond(&table, k, r)
                                    + weights::DESOLV * (pt.solpar * vj[j] + sj[j] * pt.vol) * g;
                                let s = gs.stride();
                                gs.data[ty.idx() * s + cell] += e;
                            }
                        }
                    }
                    let s = gs.stride();
                    gs.data[ELEC_MAP * s + cell] = elec;
                    gs.data[DESOLV_MAP * s + cell] = des;
                }
            }
        }
        for ty in &self.types {
            gs.built[ty.idx()] = true;
        }
        gs.built[ELEC_MAP] = true;
        gs.built[DESOLV_MAP] = true;
        gs
    }

    /// SIMD build at the requested level, vectorized over lattice
    /// points: each lane sums its point's terms over the receptor's atoms
    /// in index order (see the module docs). At [`SimdLevel::Scalar`] the
    /// maps come from lane loops in the host's frame
    /// ([`GridBuilder::build_lanes_at`] at [`mudock_simd::frame`]); their
    /// bits are pinned by the root `grid_build` test. Runs on the calling
    /// thread alone: [`GridBuilder::build_simd_on`] with one worker.
    pub fn build_simd(&self, level: SimdLevel) -> GridSet {
        self.build_simd_on(level, 1)
    }

    /// [`GridBuilder::build_simd`] on up to `workers` `mudock-pool`
    /// workers, the calling thread included. The lattice is cut into
    /// contiguous point ranges that start at multiples of [`MAX_LANES`],
    /// so the maps are bit-identical to the one-worker build's for any
    /// worker count (see the module docs). The [`SimdLevel::Scalar`] maps
    /// come from lane loops in the host's frame, whatever that is.
    pub fn build_simd_on(&self, level: SimdLevel, workers: usize) -> GridSet {
        if level == SimdLevel::Scalar {
            return self.build_lanes_at(mudock_simd::frame(), workers);
        }
        self.build_parts(workers, |atoms, points, maps| {
            dispatch!(level, |s| build_points(
                s,
                atoms,
                &self.types,
                &self.dims,
                points,
                maps
            ))
        })
    }

    /// The [`SimdLevel::Scalar`] maps, from lane loops run in `frame` on
    /// up to `workers` workers: [`GridBuilder::build_simd_on`] at that
    /// level, with the frame named instead of found. The bits are the
    /// same in every frame. Panics on a wide frame the host lacks. For
    /// tests and the codegen checker; the service builds through
    /// `build_simd_on`.
    pub fn build_lanes_at(&self, frame: SimdLevel, workers: usize) -> GridSet {
        self.build_parts(workers, |atoms, points, maps| {
            build_lanes_at(frame, atoms, &self.types, &self.dims, points, maps)
        })
    }

    /// A build whose `build` fills every map over one part of the
    /// lattice, on up to `workers` workers.
    fn build_parts<F>(&self, workers: usize, build: F) -> GridSet
    where
        F: Fn(&[AtomCoef], Range<usize>, &mut Maps) + Sync,
    {
        let atoms = AtomCoef::all(self.receptor, &self.types, &PairTable::new());
        let mut gs = GridSet::empty(self.dims);
        let parts = split_lattice(&mut gs.data, self.dims.total(), workers);
        mudock_pool::parallel_map(&parts, workers, |_, part| {
            let taken = part.lock().expect("held only to take the part").take();
            let (points, mut maps) = taken.expect("each part is claimed by one task");
            build(&atoms, points, &mut maps);
        });
        for ty in &self.types {
            gs.built[ty.idx()] = true;
        }
        gs.built[ELEC_MAP] = true;
        gs.built[DESOLV_MAP] = true;
        gs
    }
}

/// Every map's values over one part of the lattice, by map slot.
type Maps<'d> = [&'d mut [f32]; NUM_MAPS];

/// Split builds cut the lattice into this many parts per worker, so a
/// worker that drew a cheap stretch (few atoms within the cutoff) claims
/// another instead of idling.
const PARTS_PER_WORKER: usize = 4;

/// One part of a split build: its lattice points and, for every map
/// slot in order, that map's values over exactly those points.
type Part<'d> = (Range<usize>, Maps<'d>);

/// Cut [`GridSet::data`] (`NUM_MAPS` maps of `stride` points) into
/// contiguous point ranges, one part for a single worker and a few per
/// worker otherwise. Every range starts at a multiple of [`MAX_LANES`],
/// hence of every level's `S::LANES`: each vector of a part holds the
/// points it holds in a one-part build.
fn split_lattice(data: &mut [f32], stride: usize, workers: usize) -> Vec<Mutex<Option<Part<'_>>>> {
    let vectors = stride.div_ceil(MAX_LANES);
    let n = match workers {
        0 | 1 => 1,
        w => (w * PARTS_PER_WORKER).min(vectors).max(1),
    };
    let bound = |i: usize| (vectors * i / n * MAX_LANES).min(stride);
    let mut parts: Vec<(Range<usize>, Vec<&mut [f32]>)> = (0..n)
        .map(|i| (bound(i)..bound(i + 1), Vec::with_capacity(NUM_MAPS)))
        .collect();
    let mut rest = data;
    for _ in 0..NUM_MAPS {
        let (mut map, tail) = std::mem::take(&mut rest).split_at_mut(stride);
        rest = tail;
        for (points, maps) in &mut parts {
            let (head, tail) = std::mem::take(&mut map).split_at_mut(points.len());
            maps.push(head);
            map = tail;
        }
    }
    let whole = |(points, maps): (_, Vec<_>)| (points, maps.try_into().expect("NUM_MAPS maps"));
    parts
        .into_iter()
        .map(|p| Mutex::new(Some(whole(p))))
        .collect()
}

/// Every map's values over `points`, `S::LANES` consecutive points at a
/// time; `maps[m]` holds map `m`'s values over exactly `points`. What the
/// AVX2 and AVX-512 levels build with.
#[inline(always)]
fn build_points<S: Simd>(
    s: S,
    atoms: &[AtomCoef],
    types: &[AtomType],
    dims: &GridDims,
    points: Range<usize>,
    maps: &mut Maps,
) {
    let [nx, ny, _] = dims.npts.map(|n| n as usize);
    let vcut2 = s.splat(NB_CUTOFF * NB_CUTOFF);
    let zero = s.zero();
    for start in points.clone().step_by(S::LANES) {
        // Lanes past the map's end hold points past the lattice; their
        // sums are computed and dropped.
        let mut pts = [Vec3::ZERO; MAX_LANES];
        for (l, p) in pts[..S::LANES].iter_mut().enumerate() {
            let c = start + l;
            *p = dims.point(
                (c % nx) as u32,
                (c / nx % ny) as u32,
                (c / (nx * ny)) as u32,
            );
        }
        let px = s.load(&pts.map(|p| p.x));
        let py = s.load(&pts.map(|p| p.y));
        let pz = s.load(&pts.map(|p| p.z));

        let mut elec_acc = zero;
        let mut des_acc = zero;
        let mut type_acc = [zero; NUM_TYPES];
        for a in atoms {
            let dx = s.sub(s.splat(a.pos.x), px);
            let dy = s.sub(s.splat(a.pos.y), py);
            let dz = s.sub(s.splat(a.pos.z), pz);
            let r2 = s.mul_add(dz, dz, s.mul_add(dy, dy, s.mul(dx, dx)));
            let r = s.sqrt(r2);

            // Electrostatics: no cutoff.
            let r_cl = s.max(r, s.splat(terms::RMIN));
            let denom = s.mul(vterms::dielectric(s, r_cl), r_cl);
            elec_acc = s.mul_add(s.splat(a.qv), math::recip_nr(s, denom), elec_acc);

            // Short-range terms, masked by the cutoff.
            let in_cut = s.le(r2, vcut2);
            if s.any(in_cut) {
                let g = vterms::desolv_gauss(s, r2);
                let des = s.mul(s.splat(a.dv), g);
                des_acc = s.add(des_acc, s.select(in_cut, des, zero));
                for (acc, tc) in type_acc.iter_mut().zip(&a.per_type[..types.len()]) {
                    let e = vterms::vdw_hbond(
                        s,
                        r,
                        s.splat(tc.rij),
                        s.splat(tc.c12),
                        s.splat(tc.c6),
                        s.splat(tc.c10),
                    );
                    let e = s.mul_add(s.splat(tc.sv), g, e);
                    *acc = s.add(*acc, s.select(in_cut, e, zero));
                }
            }
        }

        let n = S::LANES.min(points.end - start);
        let sums = types.iter().map(|ty| ty.idx()).zip(type_acc);
        let mut buf = [0.0f32; MAX_LANES];
        for (m, v) in sums.chain([(ELEC_MAP, elec_acc), (DESOLV_MAP, des_acc)]) {
            s.store(v, &mut buf);
            maps[m][start - points.start..][..n].copy_from_slice(&buf[..n]);
        }
    }
}

/// Points per chunk of the lane-loop build: [`MAX_LANES`], so a chunk
/// never straddles two parts of a split build.
const W: usize = MAX_LANES;

/// The [`SimdLevel::Scalar`] maps over `points`, from lane loops in
/// `frame` (`mudock-simd`'s `in_frame!`, unfused token: the bits do not
/// depend on the frame). Non-generic and never inlined, so that
/// `codegen_autovec` finds the baseline body here by symbol and the
/// frames' bodies by call edge.
#[inline(never)]
fn build_lanes_at(
    frame: SimdLevel,
    atoms: &[AtomCoef],
    types: &[AtomType],
    dims: &GridDims,
    points: Range<usize>,
    maps: &mut Maps,
) {
    in_frame!(frame, unfused, |s| build_lanes(
        s, atoms, types, dims, points, maps
    ))
}

/// [`build_points`] at the one-lane token `s`, written as lane loops
/// over `W` consecutive points that the compiler vectorizes: each lane
/// does exactly the arithmetic `build_points` does for its point at the
/// same token.
/// Two things keep it so. A lane outside an atom's cutoff keeps its
/// accumulator by a select, never by adding a zero (`-0.0 + 0.0` is
/// `+0.0`). And a chunk skips an atom's short-range terms only when no
/// lane is within the cutoff, which no lane's sum can see.
// `for l in 0..W` over several `[T; W]` arrays is the shape the loop
// vectorizer takes; zipped iterator chains are not clearer.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn build_lanes<S: Simd<V = f32, VI = i32, M = bool>>(
    s: S,
    atoms: &[AtomCoef],
    types: &[AtomType],
    dims: &GridDims,
    points: Range<usize>,
    maps: &mut Maps,
) {
    let [nx, ny, _] = dims.npts.map(|n| n as usize);
    let vcut2 = NB_CUTOFF * NB_CUTOFF;
    for start in points.clone().step_by(W) {
        // Lattice indices, stepped along the x rows: two integer
        // divisions per chunk, not per lane. Lanes past the map's end
        // hold points past the lattice; their sums are computed and
        // dropped.
        let mut idx = [[0i32; W]; 3];
        let (mut ix, mut iy, mut iz) = (start % nx, start / nx % ny, start / (nx * ny));
        for l in 0..W {
            idx[0][l] = ix as i32;
            idx[1][l] = iy as i32;
            idx[2][l] = iz as i32;
            ix += 1;
            if ix == nx {
                ix = 0;
                iy += 1;
                if iy == ny {
                    iy = 0;
                    iz += 1;
                }
            }
        }
        // `GridDims::point`, lane by lane.
        let origin = [dims.origin.x, dims.origin.y, dims.origin.z];
        let mut p = [[0.0f32; W]; 3];
        for (p, (idx, o)) in p.iter_mut().zip(idx.iter().zip(origin)) {
            for l in 0..W {
                p[l] = o + idx[l] as f32 * dims.spacing;
            }
        }
        let [px, py, pz] = p;

        let mut elec_acc = [0.0f32; W];
        let mut des_acc = [0.0f32; W];
        let mut type_acc = [[0.0f32; W]; NUM_TYPES];
        for a in atoms {
            let mut r = [0.0f32; W];
            let mut r2 = [0.0f32; W];
            let mut in_cut = [false; W];
            for l in 0..W {
                let dx = s.sub(a.pos.x, px[l]);
                let dy = s.sub(a.pos.y, py[l]);
                let dz = s.sub(a.pos.z, pz[l]);
                r2[l] = s.mul_add(dz, dz, s.mul_add(dy, dy, s.mul(dx, dx)));
                r[l] = s.sqrt(r2[l]);

                // Electrostatics: no cutoff.
                let r_cl = s.max(r[l], terms::RMIN);
                let denom = s.mul(vterms::dielectric(s, r_cl), r_cl);
                elec_acc[l] = s.mul_add(a.qv, math::recip_nr(s, denom), elec_acc[l]);
                in_cut[l] = s.le(r2[l], vcut2);
            }

            // Short-range terms, kept by the cutoff lane by lane.
            if !in_cut.iter().fold(false, |any, &c| any | c) {
                continue;
            }
            let mut g = [0.0f32; W];
            for l in 0..W {
                g[l] = vterms::desolv_gauss(s, r2[l]);
                let des = s.add(des_acc[l], s.mul(a.dv, g[l]));
                des_acc[l] = s.select(in_cut[l], des, des_acc[l]);
            }
            for (acc, tc) in type_acc.iter_mut().zip(&a.per_type[..types.len()]) {
                for l in 0..W {
                    let e = vterms::vdw_hbond(s, r[l], tc.rij, tc.c12, tc.c6, tc.c10);
                    let e = s.add(acc[l], s.mul_add(tc.sv, g[l], e));
                    acc[l] = s.select(in_cut[l], e, acc[l]);
                }
            }
        }

        let (at, n) = (start - points.start, W.min(points.end - start));
        for (ty, v) in types.iter().zip(&type_acc) {
            maps[ty.idx()][at..][..n].copy_from_slice(&v[..n]);
        }
        maps[ELEC_MAP][at..][..n].copy_from_slice(&elec_acc[..n]);
        maps[DESOLV_MAP][at..][..n].copy_from_slice(&des_acc[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mudock_mol::Atom;
    use proptest::prelude::*;

    fn tiny_receptor() -> Molecule {
        let mut m = Molecule::new("tiny");
        m.atoms
            .push(Atom::new(Vec3::new(0.0, 0.0, 0.0), AtomType::OA, -0.4));
        m.atoms
            .push(Atom::new(Vec3::new(1.5, 0.0, 0.0), AtomType::C, 0.1));
        m.atoms
            .push(Atom::new(Vec3::new(0.0, 1.5, 0.0), AtomType::HD, 0.3));
        m.atoms
            .push(Atom::new(Vec3::new(0.0, 0.0, 1.5), AtomType::N, -0.2));
        m
    }

    fn tiny_dims() -> GridDims {
        GridDims::centered(Vec3::new(0.5, 0.5, 0.5), 3.0, 0.75)
    }

    #[test]
    fn scalar_build_marks_built_maps() {
        let r = tiny_receptor();
        let gs = GridBuilder::new(&r, tiny_dims())
            .with_types(&[AtomType::C, AtomType::HD])
            .build_scalar();
        assert!(gs.built[AtomType::C.idx()]);
        assert!(gs.built[AtomType::HD.idx()]);
        assert!(!gs.built[AtomType::Br.idx()]);
        assert!(gs.built[ELEC_MAP]);
        assert!(gs.built[DESOLV_MAP]);
    }

    #[test]
    fn repulsive_near_receptor_atoms() {
        // A carbon probe sitting on top of a receptor atom sees a huge
        // positive vdW energy; far corners are mildly attractive/near zero.
        let r = tiny_receptor();
        let gs = GridBuilder::new(&r, tiny_dims())
            .with_types(&[AtomType::C])
            .build_scalar();
        let on_atom = gs.sample(AtomType::C.idx(), Vec3::new(0.0, 0.0, 0.0));
        assert!(on_atom > 100.0, "on-atom energy {on_atom}");
        let far = gs.sample(AtomType::C.idx(), Vec3::new(3.0, 3.0, 3.0));
        assert!(far < 1.0, "far energy {far}");
    }

    #[test]
    fn elec_map_sign_follows_receptor_charge() {
        // Net receptor charge here is -0.2; a positive unit probe near the
        // OA (q = -0.4) should see negative potential.
        let r = tiny_receptor();
        let gs = GridBuilder::new(&r, tiny_dims())
            .with_types(&[AtomType::C])
            .build_scalar();
        let near_oa = gs.sample(ELEC_MAP, Vec3::new(-0.7, -0.7, 0.0));
        assert!(near_oa < 0.0, "elec near OA = {near_oa}");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// Random receptors, some atoms outside the lattice, on lattices
        /// whose rows and whole maps end mid-vector at every width; each
        /// level's build split over `workers` has the one-worker bits, and
        /// the lane-loop build in every frame the host has, split over
        /// `workers`, has the bits of `build_points` at the `Scalar` token.
        #[test]
        fn simd_builds_match_scalar_over_random_lattices(
            // Position as a fraction of the lattice's extent per axis
            // (outside [0, 1] is outside it), type index, charge.
            atoms in prop::collection::vec(
                ((-0.4f32..1.4, -0.4f32..1.4, -0.4f32..1.4), 0usize..NUM_TYPES, -0.6f32..0.6),
                0..=40,
            ),
            npts in (2u32..41, 2u32..41, 2u32..41)
                .prop_filter("at most 6000 points", |&(x, y, z)| x * y * z <= 6000),
            spacing in 0.3f32..1.0,
            type_mask in 0u32..(1 << NUM_TYPES),
            workers in 1usize..=8,
        ) {
            let dims = GridDims {
                npts: [npts.0, npts.1, npts.2],
                spacing,
                origin: Vec3::new(-1.5, 0.25, 3.0),
            };
            let span = dims.max_corner() - dims.origin;
            let mut receptor = Molecule::new("random");
            for ((fx, fy, fz), ty, q) in atoms {
                let p = dims.origin + Vec3::new(fx * span.x, fy * span.y, fz * span.z);
                receptor.atoms.push(Atom::new(p, AtomType::ALL[ty], q));
            }
            let types: Vec<AtomType> = AtomType::ALL
                .into_iter()
                .filter(|t| type_mask >> t.idx() & 1 == 1)
                .collect();
            let builder = GridBuilder::new(&receptor, dims).with_types(&types);
            let reference = builder.build_scalar();
            // The reference keeps an atom at `r ≤ NB_CUTOFF`, the SIMD
            // build at `r² ≤ NB_CUTOFF²`: they may round one sitting on
            // the cutoff to opposite sides.
            let [nx, ny, _] = dims.npts;
            let on_cutoff: Vec<bool> = (0..dims.total() as u32)
                .map(|k| dims.point(k % nx, k / nx % ny, k / (nx * ny)))
                .map(|p| {
                    receptor
                        .atoms
                        .iter()
                        .any(|a| (p.distance(a.pos) - NB_CUTOFF).abs() < 1e-3)
                })
                .collect();
            for level in SimdLevel::available() {
                let got = builder.build_simd(level);
                prop_assert_eq!(got.built, reference.built, "{}", level);
                for m in 0..NUM_MAPS {
                    let values = reference.map(m).iter().zip(got.map(m)).zip(&on_cutoff);
                    for ((&want, &v), &on_cutoff) in values {
                        if !got.built[m] {
                            prop_assert_eq!(v.to_bits(), 0, "{} unbuilt map {}", level, m);
                        } else if !on_cutoff {
                            let err = (v - want).abs() / want.abs().max(1.0);
                            prop_assert!(err < 2e-3, "{level} map {m}: {v} vs {want}");
                        }
                    }
                }
                let split = builder.build_simd_on(level, workers);
                prop_assert_eq!(split.built, got.built, "{} on {} workers", level, workers);
                let differs = first_difference(&split, &got);
                prop_assert_eq!(differs, None, "{} on {} workers: first differing value", level, workers);
            }
            let oracle = one_lane_points(&builder);
            for frame in SimdLevel::available() {
                let lanes = builder.build_lanes_at(frame, workers);
                prop_assert_eq!(lanes.built, oracle.built, "lanes at {} on {} workers", frame, workers);
                let differs = first_difference(&lanes, &oracle);
                prop_assert_eq!(differs, None, "lanes at {} on {} workers: first differing value", frame, workers);
            }
        }
    }

    /// The one-lane maps as `build_points` computes them at the `Scalar`
    /// token, one point per vector, on one worker: the oracle of the
    /// lane-loop build.
    fn one_lane_points(builder: &GridBuilder) -> GridSet {
        builder.build_parts(1, |atoms, points, maps| {
            build_points(
                mudock_simd::Scalar::new(),
                atoms,
                &builder.types,
                &builder.dims,
                points,
                maps,
            )
        })
    }

    /// Where two builds' values first differ in their bits.
    fn first_difference(a: &GridSet, b: &GridSet) -> Option<usize> {
        a.data
            .iter()
            .zip(&b.data)
            .position(|(a, b)| a.to_bits() != b.to_bits())
    }

    /// Bits of two builds, value by value.
    fn same_bits(a: &GridSet, b: &GridSet) -> bool {
        a.built == b.built
            && a.data
                .iter()
                .map(|v| v.to_bits())
                .eq(b.data.iter().map(|v| v.to_bits()))
    }

    #[test]
    fn fewer_vectors_than_workers_split_to_the_same_bits() {
        // 12 points: less than one vector at every width. 60 points: four
        // 16-lane vectors for eight workers.
        let r = tiny_receptor();
        for npts in [[3, 2, 2], [5, 4, 3]] {
            let dims = GridDims {
                npts,
                spacing: 0.75,
                origin: Vec3::new(-1.0, -0.5, -0.5),
            };
            let builder = GridBuilder::new(&r, dims).with_types(&[AtomType::C, AtomType::OA]);
            for level in SimdLevel::available() {
                let one = builder.build_simd(level);
                assert!(
                    same_bits(&builder.build_simd_on(level, 8), &one),
                    "{npts:?} at {level}"
                );
            }
        }
    }

    #[test]
    fn parts_tile_every_map_from_lane_aligned_starts() {
        for stride in [1, 12, 16, 17, 100, 12167] {
            for workers in 1..=8 {
                let mut data = vec![0.0f32; NUM_MAPS * stride];
                let base = data.as_ptr();
                let parts = split_lattice(&mut data, stride, workers);
                let mut next = 0;
                for part in parts {
                    let (points, maps) = part.into_inner().unwrap().unwrap();
                    assert_eq!((points.start, points.start % MAX_LANES), (next, 0));
                    assert_eq!(maps.len(), NUM_MAPS);
                    for (m, map) in maps.iter().enumerate() {
                        assert_eq!(map.as_ptr(), base.wrapping_add(m * stride + points.start));
                        assert_eq!(map.len(), points.len());
                    }
                    next = points.end;
                }
                assert_eq!(next, stride, "{stride} points on {workers} workers");
            }
        }
    }

    #[test]
    fn desolv_map_positive_and_decaying() {
        let r = tiny_receptor();
        let gs = GridBuilder::new(&r, tiny_dims())
            .with_types(&[AtomType::C])
            .build_scalar();
        let near = gs.sample(DESOLV_MAP, Vec3::new(0.2, 0.2, 0.2));
        let far = gs.sample(DESOLV_MAP, Vec3::new(3.2, 3.2, 3.2));
        assert!(near > 0.0);
        assert!(far < near);
    }

    #[test]
    fn empty_receptor_builds_zero_maps() {
        let m = Molecule::new("empty");
        let gs = GridBuilder::new(&m, tiny_dims())
            .with_types(&[AtomType::C])
            .build_simd(SimdLevel::detect());
        assert!(gs.data.iter().all(|&v| v == 0.0));
    }
}
