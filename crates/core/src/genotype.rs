//! Pose genotype: the chromosome the genetic algorithm evolves.
//!
//! Matches AutoDock's state encoding: 3 translation genes (Å), 4 rigid
//! rotation genes (a quaternion, re-normalized on decode), and one torsion
//! angle (radians) per rotatable bond.

use mudock_mol::{Quat, Vec3};
use rand::rngs::StdRng;
use rand::RngExt;

/// Gene index of the first torsion angle.
pub const FIRST_TORSION: usize = 7;

/// A docking pose chromosome. Stored as a flat gene vector so genetic
/// operators (crossover, per-gene mutation) are uniform.
#[derive(Debug, PartialEq)]
pub struct Genotype {
    /// `[tx, ty, tz, qw, qx, qy, qz, θ_0, …, θ_{T-1}]`
    pub genes: Vec<f32>,
}

impl Clone for Genotype {
    fn clone(&self) -> Genotype {
        Genotype {
            genes: self.genes.clone(),
        }
    }

    /// Reuses `self`'s gene buffer (the derive would allocate a new one):
    /// the GA and the engine overwrite genotypes every generation.
    fn clone_from(&mut self, source: &Genotype) {
        self.genes.clone_from(&source.genes);
    }
}

impl Genotype {
    /// Identity pose with `n_torsions` zeroed torsion angles.
    pub fn identity(n_torsions: usize) -> Genotype {
        let mut genes = vec![0.0; FIRST_TORSION + n_torsions];
        genes[3] = 1.0; // unit quaternion w
        Genotype { genes }
    }

    /// Uniformly random pose: translation inside a cube of half-side
    /// `t_bound` around `center`, uniform rotation (Shoemake), torsions
    /// uniform in (−π, π].
    pub fn random(rng: &mut StdRng, n_torsions: usize, center: Vec3, t_bound: f32) -> Genotype {
        let mut g = Genotype::identity(n_torsions);
        for (k, c) in [center.x, center.y, center.z].into_iter().enumerate() {
            g.genes[k] = c + (rng.random::<f32>() * 2.0 - 1.0) * t_bound;
        }
        let q = Quat::from_uniforms(rng.random(), rng.random(), rng.random());
        g.genes[3] = q.w;
        g.genes[4] = q.x;
        g.genes[5] = q.y;
        g.genes[6] = q.z;
        for k in 0..n_torsions {
            g.genes[FIRST_TORSION + k] = (rng.random::<f32>() * 2.0 - 1.0) * std::f32::consts::PI;
        }
        g
    }

    /// Number of torsion genes.
    #[inline]
    pub fn n_torsions(&self) -> usize {
        self.genes.len() - FIRST_TORSION
    }

    /// Rigid-body translation.
    #[inline]
    pub fn translation(&self) -> Vec3 {
        Vec3::new(self.genes[0], self.genes[1], self.genes[2])
    }

    /// Rigid-body rotation, re-normalized (genetic operators perturb the
    /// raw components).
    #[inline]
    pub fn rotation(&self) -> Quat {
        Quat::new(self.genes[3], self.genes[4], self.genes[5], self.genes[6]).normalized()
    }

    /// Torsion angle `k` in radians.
    #[inline]
    pub fn torsion(&self, k: usize) -> f32 {
        self.genes[FIRST_TORSION + k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn identity_decodes_to_identity() {
        let g = Genotype::identity(3);
        assert_eq!(g.translation(), Vec3::ZERO);
        assert_eq!(g.rotation(), Quat::IDENTITY);
        assert_eq!(g.n_torsions(), 3);
        assert_eq!(g.torsion(2), 0.0);
    }

    #[test]
    fn random_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        let c = Vec3::new(1.0, -2.0, 3.0);
        for _ in 0..100 {
            let g = Genotype::random(&mut rng, 5, c, 4.0);
            let t = g.translation();
            assert!((t.x - c.x).abs() <= 4.0);
            assert!((t.y - c.y).abs() <= 4.0);
            assert!((t.z - c.z).abs() <= 4.0);
            assert!((g.rotation().norm() - 1.0).abs() < 1e-5);
            for k in 0..5 {
                assert!(g.torsion(k).abs() <= std::f32::consts::PI + 1e-5);
            }
        }
    }

    #[test]
    fn random_is_seed_deterministic() {
        let a = Genotype::random(&mut StdRng::seed_from_u64(3), 4, Vec3::ZERO, 5.0);
        let b = Genotype::random(&mut StdRng::seed_from_u64(3), 4, Vec3::ZERO, 5.0);
        assert_eq!(a, b);
    }
}
