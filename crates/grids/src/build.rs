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
//! The SIMD builder vectorizes over *receptor atoms* (structure-of-arrays,
//! padded), computing each point's sums with full-width arithmetic and a
//! final horizontal reduction.

use mudock_ff::params::{weights, PairTable, NB_CUTOFF, QSOLPAR};
use mudock_ff::terms;
use mudock_ff::types::AtomType;
use mudock_ff::vterms;
use mudock_mol::{padded_len, Molecule, Vec3, PAD_COORD};
use mudock_simd::{dispatch, math, Simd, SimdLevel};

use crate::dims::GridDims;
use crate::map::{GridSet, DESOLV_MAP, ELEC_MAP};

/// Per-probe-type coefficient arrays over the receptor atoms (padded).
struct TypeCoef {
    c12: Vec<f32>,
    c6: Vec<f32>,
    c10: Vec<f32>,
    rij: Vec<f32>,
    /// Weighted full desolvation coefficient `W_d(S_t·V_j + S_j·V_t)`.
    sv: Vec<f32>,
}

/// Receptor data flattened for the builder kernels.
struct ReceptorTables {
    x: Vec<f32>,
    y: Vec<f32>,
    z: Vec<f32>,
    /// Electrostatic coefficient `W_e·332.06·q_j` (padded 0).
    qv: Vec<f32>,
    /// Charge-dependent desolvation coefficient `W_d·0.01097·V_j` (padded 0).
    dv: Vec<f32>,
    per_type: Vec<TypeCoef>,
}

impl ReceptorTables {
    fn new(receptor: &Molecule, types: &[AtomType], table: &PairTable) -> ReceptorTables {
        let n = receptor.atoms.len();
        let len = padded_len(n.max(1));
        let mut t = ReceptorTables {
            x: vec![PAD_COORD; len],
            y: vec![PAD_COORD; len],
            z: vec![PAD_COORD; len],
            qv: vec![0.0; len],
            dv: vec![0.0; len],
            per_type: Vec::with_capacity(types.len()),
        };
        for (j, a) in receptor.atoms.iter().enumerate() {
            t.x[j] = a.pos.x;
            t.y[j] = a.pos.y;
            t.z[j] = a.pos.z;
            t.qv[j] = vterms::premult::qq(1.0, a.charge);
            t.dv[j] = weights::DESOLV * QSOLPAR * mudock_ff::params::type_params(a.ty).vol;
        }
        for &ty in types {
            let pt = mudock_ff::params::type_params(ty);
            let mut c = TypeCoef {
                c12: vec![0.0; len],
                c6: vec![0.0; len],
                c10: vec![0.0; len],
                rij: vec![1.0; len],
                sv: vec![0.0; len],
            };
            for (j, a) in receptor.atoms.iter().enumerate() {
                let k = PairTable::index(ty, a.ty);
                c.c12[j] = table.c12[k];
                c.c6[j] = table.c6[k];
                c.c10[j] = table.c10[k];
                c.rij[j] = table.rij[k];
                let sj = terms::solvation_param(a.ty, a.charge);
                let vj = mudock_ff::params::type_params(a.ty).vol;
                c.sv[j] = weights::DESOLV * (pt.solpar * vj + sj * pt.vol);
            }
            t.per_type.push(c);
        }
        t
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

    /// SIMD build at the requested level (vectorizes over receptor atoms).
    pub fn build_simd(&self, level: SimdLevel) -> GridSet {
        let table = PairTable::new();
        let tables = ReceptorTables::new(self.receptor, &self.types, &table);
        let mut gs = GridSet::empty(self.dims);
        let [nx, ny, nz] = self.dims.npts;
        let stride = gs.stride();

        // One pass over points; all per-point sums computed vector-wide.
        let n_types = self.types.len();
        let mut sums = vec![0.0f32; n_types + 2];
        for iz in 0..nz {
            for iy in 0..ny {
                for ix in 0..nx {
                    let p = self.dims.point(ix, iy, iz);
                    let cell = self.dims.linear(ix, iy, iz);
                    dispatch!(level, |s| point_sums(s, &tables, p, &mut sums));
                    for (ti, ty) in self.types.iter().enumerate() {
                        gs.data[ty.idx() * stride + cell] = sums[ti];
                    }
                    gs.data[ELEC_MAP * stride + cell] = sums[n_types];
                    gs.data[DESOLV_MAP * stride + cell] = sums[n_types + 1];
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
}

/// Vector-wide accumulation of every map's value at one grid point.
/// `sums` receives `[type_0, …, type_{n-1}, elec, desolv]`.
#[inline(always)]
fn point_sums<S: Simd>(s: S, t: &ReceptorTables, p: Vec3, sums: &mut [f32]) {
    let px = s.splat(p.x);
    let py = s.splat(p.y);
    let pz = s.splat(p.z);
    let vcut2 = s.splat(NB_CUTOFF * NB_CUTOFF);
    let zero = s.zero();

    let n_types = t.per_type.len();
    debug_assert_eq!(sums.len(), n_types + 2);

    let mut elec_acc = s.zero();
    let mut des_acc = s.zero();
    // Per-type accumulators: bounded small (≤ 14); stack array avoids
    // allocation in the hot loop.
    let mut type_acc = [s.zero(); mudock_ff::types::NUM_TYPES];

    let len = t.x.len();
    let mut j = 0;
    while j < len {
        let dx = s.sub(s.load(&t.x[j..]), px);
        let dy = s.sub(s.load(&t.y[j..]), py);
        let dz = s.sub(s.load(&t.z[j..]), pz);
        let r2 = s.mul_add(dz, dz, s.mul_add(dy, dy, s.mul(dx, dx)));
        let r = s.sqrt(r2);

        // Electrostatics: no cutoff (padding lanes have qv = 0).
        let r_cl = s.max(r, s.splat(terms::RMIN));
        let denom = s.mul(vterms::dielectric(s, r_cl), r_cl);
        elec_acc = s.mul_add(s.load(&t.qv[j..]), math::recip_nr(s, denom), elec_acc);

        // Short-range terms, masked by the cutoff.
        let in_cut = s.le(r2, vcut2);
        if s.any(in_cut) {
            let g = vterms::desolv_gauss(s, r2);
            let des = s.mul(s.load(&t.dv[j..]), g);
            des_acc = s.add(des_acc, s.select(in_cut, des, zero));
            for (ti, tc) in t.per_type.iter().enumerate() {
                let e = vterms::vdw_hbond(
                    s,
                    r,
                    s.load(&tc.rij[j..]),
                    s.load(&tc.c12[j..]),
                    s.load(&tc.c6[j..]),
                    s.load(&tc.c10[j..]),
                );
                let e = s.mul_add(s.load(&tc.sv[j..]), g, e);
                type_acc[ti] = s.add(type_acc[ti], s.select(in_cut, e, zero));
            }
        }
        j += S::LANES;
    }

    for ti in 0..n_types {
        sums[ti] = s.reduce_add(type_acc[ti]);
    }
    sums[n_types] = s.reduce_add(elec_acc);
    sums[n_types + 1] = s.reduce_add(des_acc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mudock_mol::Atom;

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

    #[test]
    fn simd_build_matches_scalar_all_levels() {
        let r = tiny_receptor();
        let builder = GridBuilder::new(&r, tiny_dims()).with_types(&[
            AtomType::C,
            AtomType::OA,
            AtomType::HD,
        ]);
        let reference = builder.build_scalar();
        for level in SimdLevel::available() {
            let got = builder.build_simd(level);
            let mut worst = 0.0f32;
            for (a, b) in reference.data.iter().zip(&got.data) {
                let err = (a - b).abs() / a.abs().max(1.0);
                worst = worst.max(err);
            }
            assert!(
                worst < 2e-3,
                "{level}: worst relative map deviation {worst}"
            );
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
