//! Pose transforms — the paper's Algorithm 1: rigid-body translation and
//! rotation of the ligand, then rotation of each rotatable-bond fragment.
//!
//! Two implementations with identical semantics:
//!
//! * [`apply_pose_reference`] — index-chasing scalar code (rotates only the
//!   atoms in each torsion's moving set), the test oracle;
//! * [`apply_pose_simd`] — the one vectorized body, for every backend but
//!   the reference: branchless code in which every torsion rotates *all*
//!   atoms and blends the result with a per-atom 0/1 mask. This trades
//!   redundant arithmetic for streaming, gather/scatter-free vector code —
//!   the transformation that makes the loop vectorizable. It is
//!   [`crate::autovec`]'s lane loop, run in the frame of the level it is
//!   given: `Backend::Explicit(level)` transforms in `level`'s,
//!   `Backend::AutoVec` in [its engine's](crate::DockingEngine::frame).

use mudock_mol::{ConformSoA, Quat, Topology};

use crate::genotype::Genotype;

pub use crate::autovec::apply_pose_simd;

/// Precomputed per-torsion data for the branchless kernel.
#[derive(Clone, Debug)]
pub struct TorsionPlan {
    /// Fixed axis endpoint (atom index).
    pub a: usize,
    /// Moving-side axis endpoint (atom index).
    pub b: usize,
    /// Moving atom indices (for the scalar reference path).
    pub moving: Vec<u32>,
    /// Per-atom blend weight, padded: 1.0 if the atom moves with this
    /// torsion, else 0.0.
    pub mask: Vec<f32>,
}

/// Build the torsion plans for a topology (padded to `padded` lanes).
pub fn torsion_plans(topo: &Topology, padded: usize) -> Vec<TorsionPlan> {
    topo.torsions
        .iter()
        .map(|t| {
            let mut mask = vec![0.0f32; padded];
            for &m in &t.moving {
                mask[m as usize] = 1.0;
            }
            TorsionPlan {
                a: t.a as usize,
                b: t.b as usize,
                moving: t.moving.clone(),
                mask,
            }
        })
        .collect()
}

/// Scalar reference: quaternion rigid placement + per-fragment rotation
/// over explicit index lists.
pub fn apply_pose_reference(
    base: &ConformSoA,
    plans: &[TorsionPlan],
    g: &Genotype,
    out: &mut ConformSoA,
) {
    debug_assert_eq!(g.n_torsions(), plans.len());
    let q = g.rotation();
    let t = g.translation();
    out.copy_from(base);
    for i in 0..base.n {
        let p = q.rotate(base.pos(i)) + t;
        out.set_pos(i, p);
    }
    for (k, plan) in plans.iter().enumerate() {
        let pa = out.pos(plan.a);
        let pb = out.pos(plan.b);
        let axis = pb - pa;
        let rot = Quat::from_axis_angle(axis, g.torsion(k));
        for &m in &plan.moving {
            let v = out.pos(m as usize) - pa;
            out.set_pos(m as usize, pa + rot.rotate(v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mudock_ff::types::AtomType;
    use mudock_mol::{Atom, Bond, Molecule, Vec3};
    use mudock_simd::SimdLevel;

    /// 5-atom chain with one torsion in the middle.
    fn chain() -> (Molecule, Topology) {
        let mut m = Molecule::new("chain");
        // Zig-zag chain: atoms must NOT be collinear with the torsion axis,
        // otherwise rotating the fragment is a no-op.
        for i in 0..5 {
            m.atoms.push(Atom::new(
                Vec3::new(
                    i as f32 * 1.3,
                    if i % 2 == 0 { 0.0 } else { 0.9 },
                    0.1 * i as f32,
                ),
                AtomType::C,
                0.0,
            ));
        }
        for i in 0..4u32 {
            m.bonds.push(Bond::new(i, i + 1, i == 1));
        }
        let t = Topology::build(&m);
        (m, t)
    }

    fn setup() -> (ConformSoA, Vec<TorsionPlan>, usize) {
        let (m, topo) = chain();
        let base = ConformSoA::from_molecule(&m);
        let plans = torsion_plans(&topo, base.len_padded());
        let n_tors = plans.len();
        (base, plans, n_tors)
    }

    #[test]
    fn identity_pose_is_identity() {
        let (base, plans, n_tors) = setup();
        let g = Genotype::identity(n_tors);
        let mut out = ConformSoA::with_capacity(base.n);
        apply_pose_reference(&base, &plans, &g, &mut out);
        for i in 0..base.n {
            assert!((out.pos(i) - base.pos(i)).norm() < 1e-5);
        }
    }

    #[test]
    fn translation_moves_everything() {
        let (base, plans, n_tors) = setup();
        let mut g = Genotype::identity(n_tors);
        g.genes[0] = 2.0;
        g.genes[1] = -1.0;
        g.genes[2] = 0.5;
        let mut out = ConformSoA::with_capacity(base.n);
        apply_pose_reference(&base, &plans, &g, &mut out);
        for i in 0..base.n {
            let d = out.pos(i) - base.pos(i);
            assert!((d - Vec3::new(2.0, -1.0, 0.5)).norm() < 1e-5);
        }
    }

    #[test]
    fn torsion_preserves_bond_lengths() {
        let (base, plans, n_tors) = setup();
        assert_eq!(n_tors, 1);
        let mut g = Genotype::identity(n_tors);
        g.genes[crate::genotype::FIRST_TORSION] = 1.1;
        let mut out = ConformSoA::with_capacity(base.n);
        apply_pose_reference(&base, &plans, &g, &mut out);
        // All bonds (chain neighbors) keep their lengths.
        for i in 0..4 {
            let before = base.pos(i).distance(base.pos(i + 1));
            let after = out.pos(i).distance(out.pos(i + 1));
            assert!((before - after).abs() < 1e-4, "bond {i}");
        }
        // Atoms beyond the rotated bond moved; earlier atoms did not.
        assert!((out.pos(0) - base.pos(0)).norm() < 1e-5);
        assert!((out.pos(1) - base.pos(1)).norm() < 1e-5);
        assert!((out.pos(2) - base.pos(2)).norm() < 1e-5);
        assert!((out.pos(3) - base.pos(3)).norm() > 0.1);
        assert!((out.pos(4) - base.pos(4)).norm() > 0.1);
    }

    #[test]
    fn kernel_matches_reference_all_levels() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let (base, plans, n_tors) = setup();
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..20 {
            let g = Genotype::random(&mut rng, n_tors, Vec3::ZERO, 5.0);
            let mut want = ConformSoA::with_capacity(base.n);
            apply_pose_reference(&base, &plans, &g, &mut want);
            for level in SimdLevel::available() {
                let mut got = ConformSoA::with_capacity(base.n);
                apply_pose_simd(level, &base, &plans, &g, &mut got);
                for i in 0..base.n {
                    let d = (got.pos(i) - want.pos(i)).norm();
                    assert!(d < 1e-3, "{level} trial {trial} atom {i}: off by {d}");
                }
            }
        }
    }

    #[test]
    fn padding_stays_far_away() {
        let (base, plans, n_tors) = setup();
        let mut g = Genotype::identity(n_tors);
        g.genes[0] = 3.0;
        let mut out = ConformSoA::with_capacity(base.n);
        apply_pose_simd(SimdLevel::detect(), &base, &plans, &g, &mut out);
        for i in base.n..base.len_padded() {
            assert!(
                out.pos(i).norm() > 1e5,
                "padding atom {i} wandered to {}",
                out.pos(i)
            );
        }
    }

    #[test]
    fn rigid_rotation_preserves_shape() {
        let (base, plans, n_tors) = setup();
        let mut g = Genotype::identity(n_tors);
        // quaternion genes: some non-trivial rotation
        g.genes[3] = 0.8;
        g.genes[4] = 0.36;
        g.genes[5] = -0.2;
        g.genes[6] = 0.44;
        let mut out = ConformSoA::with_capacity(base.n);
        apply_pose_reference(&base, &plans, &g, &mut out);
        for i in 0..base.n {
            for j in (i + 1)..base.n {
                let before = base.pos(i).distance(base.pos(j));
                let after = out.pos(i).distance(out.pos(j));
                assert!((before - after).abs() < 1e-4, "pair {i},{j}");
            }
        }
    }
}
